//! Stock price-state emulator.
//!
//! Models the stock dataset of the interval-mining literature: prices are
//! discretized into maximal *state intervals* (`TICKER-up`, `TICKER-down`,
//! `TICKER-flat`), and each sequence covers one trading window over a basket
//! of tickers. A shared market factor correlates moves across tickers, so
//! arrangements like `bank1-up overlaps bank2-up` are genuinely frequent —
//! the kind of pattern the paper's case study reports.

use interval_core::rng::SplitMix64;
use interval_core::{EventInterval, IntervalDatabase, IntervalSequence, SymbolTable, Time};

/// Parameters of the stock emulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StockConfig {
    /// Number of tickers in the basket.
    pub tickers: usize,
    /// Number of trading windows (sequences).
    pub windows: usize,
    /// Trading days per window.
    pub days_per_window: Time,
    /// Strength of the shared market factor in `[0, 1]`; higher values make
    /// tickers move together more often.
    pub market_correlation: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StockConfig {
    fn default() -> Self {
        Self {
            tickers: 6,
            windows: 500,
            days_per_window: 20,
            market_correlation: 0.6,
            seed: 21,
        }
    }
}

/// Price move discretization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MoveState {
    Up,
    Down,
    Flat,
}

impl MoveState {
    fn suffix(self) -> &'static str {
        match self {
            MoveState::Up => "up",
            MoveState::Down => "down",
            MoveState::Flat => "flat",
        }
    }
}

/// The emulator. Construct with a [`StockConfig`], call
/// [`generate`](StockEmulator::generate).
#[derive(Debug, Clone)]
pub struct StockEmulator {
    config: StockConfig,
}

impl StockEmulator {
    /// Creates an emulator.
    pub fn new(config: StockConfig) -> Self {
        Self { config }
    }

    /// Generates the state-interval database (deterministic per seed).
    pub fn generate(&self) -> IntervalDatabase {
        let cfg = &self.config;
        let mut symbols = SymbolTable::new();
        for t in 0..cfg.tickers {
            for s in [MoveState::Up, MoveState::Down, MoveState::Flat] {
                symbols.intern(&format!("stk{t}-{}", s.suffix()));
            }
        }
        let mut rng = SplitMix64::new(cfg.seed);
        let mut sequences = Vec::with_capacity(cfg.windows);
        for _ in 0..cfg.windows {
            sequences.push(self.window(&mut rng, &symbols));
        }
        IntervalDatabase::from_parts(symbols, sequences)
    }

    /// One trading window: per-day market factor, per-ticker daily moves,
    /// maximal runs of equal state become intervals.
    fn window(&self, rng: &mut SplitMix64, symbols: &SymbolTable) -> IntervalSequence {
        let cfg = &self.config;
        let days = cfg.days_per_window.max(2) as usize;
        // Market factor per day: -1, 0, +1 with persistence.
        let mut market = Vec::with_capacity(days);
        let mut m: i64 = 0;
        for _ in 0..days {
            if rng.unit_f64() < 0.4 {
                m = rng.range(-1..=1);
            }
            market.push(m);
        }

        let mut intervals = Vec::new();
        for t in 0..cfg.tickers {
            let mut states = Vec::with_capacity(days);
            for &m in &market {
                let follow = rng.unit_f64() < cfg.market_correlation;
                let direction = if follow { m } else { rng.range(-1..=1) };
                states.push(match direction {
                    1 => MoveState::Up,
                    -1 => MoveState::Down,
                    _ => MoveState::Flat,
                });
            }
            // Compress runs into maximal state intervals.
            let mut day = 0usize;
            while day < days {
                let state = states[day];
                let mut end = day + 1;
                while end < days && states[end] == state {
                    end += 1;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "all ticker-state names are interned before generation from the same format string"
                )]
                let symbol = symbols
                    .lookup(&format!("stk{t}-{}", state.suffix()))
                    .expect("state symbol interned");
                intervals.push(EventInterval::new_unchecked(
                    symbol,
                    day as Time,
                    end as Time,
                ));
                day = end;
            }
        }
        IntervalSequence::from_intervals(intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = StockEmulator::new(StockConfig::default()).generate();
        let b = StockEmulator::new(StockConfig::default()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn state_intervals_tile_the_window_per_ticker() {
        let cfg = StockConfig {
            tickers: 3,
            windows: 10,
            days_per_window: 15,
            ..Default::default()
        };
        let db = StockEmulator::new(cfg).generate();
        assert_eq!(db.len(), 10);
        for seq in db.sequences() {
            // per ticker, total covered days == window length, no overlap
            for t in 0..cfg.tickers {
                let mut ticker_ivs: Vec<_> = seq
                    .iter()
                    .filter(|iv| {
                        db.symbols()
                            .name(iv.symbol)
                            .starts_with(&format!("stk{t}-"))
                    })
                    .collect();
                ticker_ivs.sort_by_key(|iv| iv.start);
                let covered: i64 = ticker_ivs.iter().map(|iv| iv.duration()).sum();
                assert_eq!(covered, cfg.days_per_window);
                for w in ticker_ivs.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "maximal runs must tile");
                }
            }
        }
    }

    #[test]
    fn runs_are_maximal() {
        let db = StockEmulator::new(StockConfig {
            windows: 20,
            ..Default::default()
        })
        .generate();
        for seq in db.sequences() {
            let mut by_ticker: std::collections::HashMap<&str, Vec<(&str, i64, i64)>> =
                std::collections::HashMap::new();
            for iv in seq {
                let name = db.symbols().name(iv.symbol);
                let (ticker, state) = name.split_once('-').unwrap();
                by_ticker
                    .entry(ticker)
                    .or_default()
                    .push((state, iv.start, iv.end));
            }
            for ivs in by_ticker.values_mut() {
                ivs.sort_by_key(|&(_, s, _)| s);
                for w in ivs.windows(2) {
                    assert_ne!(w[0].0, w[1].0, "adjacent runs must differ in state");
                }
            }
        }
    }

    #[test]
    fn high_correlation_produces_co_moving_tickers() {
        let db = StockEmulator::new(StockConfig {
            market_correlation: 0.95,
            windows: 300,
            ..Default::default()
        })
        .generate();
        let s0 = db.symbols().lookup("stk0-up").unwrap();
        let s1 = db.symbols().lookup("stk1-up").unwrap();
        let both = db
            .sequences()
            .iter()
            .filter(|s| s.contains_symbol(s0) && s.contains_symbol(s1))
            .count();
        assert!(
            both > db.len() / 2,
            "correlated ups co-occur in only {both}/{} windows",
            db.len()
        );
    }
}
