//! Library-lending emulator.
//!
//! Models the classic library dataset of the interval-mining literature:
//! every sequence is one patron's borrowing history; every interval is a
//! loan of a book *category*, from checkout to return. Patrons have a small
//! set of favourite genres and follow correlated habits — e.g. borrowing a
//! language textbook together with its exercise book, or picking up the next
//! volume of a series while the previous one is still checked out — which
//! plants genuine overlap/containment arrangements for the miner to find.

use interval_core::rng::SplitMix64;
use interval_core::{IntervalDatabase, IntervalSequence, SymbolTable, Time};

/// The book categories of the emulated library.
pub const CATEGORIES: &[&str] = &[
    "novel",
    "novel-sequel",
    "textbook",
    "exercise-book",
    "travel-guide",
    "phrasebook",
    "biography",
    "cookbook",
    "magazine",
    "comics",
    "poetry",
    "history",
];

/// Parameters of the library emulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibraryConfig {
    /// Number of patrons (sequences).
    pub patrons: usize,
    /// Average loans per patron (Poisson-ish).
    pub avg_loans: f64,
    /// Mean loan duration in days.
    pub avg_loan_days: f64,
    /// Observation window in days.
    pub horizon_days: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        Self {
            patrons: 1_000,
            avg_loans: 8.0,
            avg_loan_days: 21.0,
            horizon_days: 365,
            seed: 11,
        }
    }
}

/// Correlated habits: `(first category, companion category, gap mean)`.
/// A negative gap means the companion is usually borrowed while the first
/// loan is still open (producing overlaps); `0` tends to produce meets.
const HABITS: &[(&str, &str, i64)] = &[
    ("novel", "novel-sequel", -7),
    ("textbook", "exercise-book", -18),
    ("travel-guide", "phrasebook", -10),
    ("history", "biography", 0),
];

/// The emulator. Construct with a [`LibraryConfig`], call
/// [`generate`](LibraryEmulator::generate).
#[derive(Debug, Clone)]
pub struct LibraryEmulator {
    config: LibraryConfig,
}

impl LibraryEmulator {
    /// Creates an emulator.
    pub fn new(config: LibraryConfig) -> Self {
        Self { config }
    }

    /// Generates the lending database (deterministic per seed).
    pub fn generate(&self) -> IntervalDatabase {
        let mut symbols = SymbolTable::new();
        for c in CATEGORIES {
            symbols.intern(c);
        }
        let mut rng = SplitMix64::new(self.config.seed);
        let mut sequences = Vec::with_capacity(self.config.patrons);
        for _ in 0..self.config.patrons {
            sequences.push(self.patron(&mut rng, &symbols));
        }
        IntervalDatabase::from_parts(symbols, sequences)
    }

    fn patron(&self, rng: &mut SplitMix64, symbols: &SymbolTable) -> IntervalSequence {
        let cfg = &self.config;
        // Favourite habit of this patron: most of their correlated borrowing
        // follows it. Popularity is skewed (novel readers dominate), so the
        // top habits clear case-study support thresholds.
        let habit_idx = (rng.unit_f64().powi(2) * HABITS.len() as f64) as usize;
        let habit = HABITS[habit_idx.min(HABITS.len() - 1)];
        let loans = ((cfg.avg_loans * (0.5 + rng.unit_f64())) as usize).max(1);
        let mut seq = IntervalSequence::new();
        let mut count = 0usize;
        while count < loans {
            let start = rng.range(0..cfg.horizon_days.max(1));
            let dur = loan_days(rng, cfg.avg_loan_days);
            if rng.unit_f64() < 0.55 {
                // Correlated pair following the habit.
                let (first, second, gap_mean) = habit;
                #[expect(
                    clippy::expect_used,
                    reason = "habit pairs are drawn from CATEGORIES, all interned up front; a miss means the two tables drifted"
                )]
                let a = symbols.lookup(first).expect("category interned");
                #[expect(
                    clippy::expect_used,
                    reason = "habit pairs are drawn from CATEGORIES, all interned up front; a miss means the two tables drifted"
                )]
                let b = symbols.lookup(second).expect("category interned");
                seq.push(interval_core::EventInterval::new_unchecked(
                    a,
                    start,
                    start + dur,
                ));
                let gap = gap_mean + rng.range(-3..=3);
                let second_start = (start + dur + gap).max(start + 1);
                let second_dur = loan_days(rng, cfg.avg_loan_days);
                seq.push(interval_core::EventInterval::new_unchecked(
                    b,
                    second_start,
                    second_start + second_dur,
                ));
                count += 2;
            } else {
                // Casual loan of any category.
                #[expect(
                    clippy::expect_used,
                    reason = "indexed straight out of CATEGORIES, which is interned up front"
                )]
                let c = symbols
                    .lookup(CATEGORIES[rng.range(0..CATEGORIES.len())])
                    .expect("category interned");
                seq.push(interval_core::EventInterval::new_unchecked(
                    c,
                    start,
                    start + dur,
                ));
                count += 1;
            }
        }
        seq
    }
}

fn loan_days(rng: &mut SplitMix64, mean: f64) -> Time {
    let u: f64 = rng.unit_f64().max(f64::MIN_POSITIVE);
    ((-u.ln() * mean) as Time).clamp(1, 90)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = LibraryEmulator::new(LibraryConfig::default()).generate();
        let b = LibraryEmulator::new(LibraryConfig::default()).generate();
        assert_eq!(a, b);
        let c = LibraryEmulator::new(LibraryConfig {
            seed: 99,
            ..Default::default()
        })
        .generate();
        assert_ne!(a, c);
    }

    /// The first patron at the default seed, recorded before the emulator
    /// moved to `interval_core::rng`.
    #[test]
    fn first_patron_is_pinned() {
        let db = LibraryEmulator::new(LibraryConfig::default()).generate();
        let first: Vec<(&str, Time, Time)> = db.sequences()[0]
            .iter()
            .map(|iv| (db.symbols().name(iv.symbol), iv.start, iv.end))
            .collect();
        assert_eq!(
            first,
            [
                ("biography", 11, 45),
                ("travel-guide", 19, 47),
                ("phrasebook", 40, 41),
                ("comics", 202, 206),
                ("travel-guide", 253, 305),
                ("phrasebook", 295, 310),
                ("phrasebook", 301, 330),
            ]
        );
    }

    #[test]
    fn respects_patron_count() {
        let cfg = LibraryConfig {
            patrons: 37,
            ..Default::default()
        };
        let db = LibraryEmulator::new(cfg).generate();
        assert_eq!(db.len(), 37);
        assert!(db.sequences().iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn uses_only_known_categories() {
        let db = LibraryEmulator::new(LibraryConfig {
            patrons: 50,
            ..Default::default()
        })
        .generate();
        assert_eq!(db.symbols().len(), CATEGORIES.len());
        for seq in db.sequences() {
            for iv in seq {
                assert!(db.symbols().try_name(iv.symbol).is_some());
                assert!(iv.duration() >= 1 && iv.duration() <= 90);
            }
        }
    }

    #[test]
    fn habit_pairs_co_occur_frequently() {
        let db = LibraryEmulator::new(LibraryConfig {
            patrons: 400,
            ..Default::default()
        })
        .generate();
        let novel = db.symbols().lookup("novel").unwrap();
        let sequel = db.symbols().lookup("novel-sequel").unwrap();
        let both = db
            .sequences()
            .iter()
            .filter(|s| s.contains_symbol(novel) && s.contains_symbol(sequel))
            .count();
        assert!(both > 40, "novel+sequel co-occur in only {both} patrons");
    }
}
