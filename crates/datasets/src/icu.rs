//! Patient-monitoring (ICU) emulator.
//!
//! The motivating example of interval-based pattern mining: each sequence is
//! one patient stay, each interval a *state* that holds for a while — a
//! symptom, an abnormal vital sign, a running medication. Clinical courses
//! follow loose scripts (infection → fever with tachycardia riding on it →
//! antibiotics overlapping both; hypotension during sedation; …), which the
//! emulator plants with jitter, optional steps and background noise.

use interval_core::rng::SplitMix64;
use interval_core::{EventInterval, IntervalDatabase, IntervalSequence, SymbolTable, Time};

/// Clinical state vocabulary of the emulator.
pub const STATES: &[&str] = &[
    "fever",
    "tachycardia",
    "hypotension",
    "antibiotics",
    "vasopressors",
    "sedation",
    "ventilation",
    "dialysis",
    "delirium",
    "anemia",
];

/// Parameters of the ICU emulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcuConfig {
    /// Number of patient stays (sequences).
    pub patients: usize,
    /// Mean state duration in hours.
    pub avg_state_hours: f64,
    /// Probability a patient follows the sepsis script (vs. the
    /// post-operative script).
    pub sepsis_fraction: f64,
    /// Expected number of unrelated background states per stay.
    pub noise_states: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IcuConfig {
    fn default() -> Self {
        Self {
            patients: 1_000,
            avg_state_hours: 12.0,
            sepsis_fraction: 0.45,
            noise_states: 1.5,
            seed: 41,
        }
    }
}

/// The emulator. Construct with an [`IcuConfig`], call
/// [`generate`](IcuEmulator::generate).
#[derive(Debug, Clone)]
pub struct IcuEmulator {
    config: IcuConfig,
}

impl IcuEmulator {
    /// Creates an emulator.
    pub fn new(config: IcuConfig) -> Self {
        Self { config }
    }

    /// Generates the patient-stay database (deterministic per seed).
    pub fn generate(&self) -> IntervalDatabase {
        let mut symbols = SymbolTable::new();
        for s in STATES {
            symbols.intern(s);
        }
        let mut rng = SplitMix64::new(self.config.seed);
        let mut sequences = Vec::with_capacity(self.config.patients);
        for _ in 0..self.config.patients {
            sequences.push(self.stay(&mut rng, &symbols));
        }
        IntervalDatabase::from_parts(symbols, sequences)
    }

    fn stay(&self, rng: &mut SplitMix64, symbols: &SymbolTable) -> IntervalSequence {
        let cfg = &self.config;
        let mut seq = IntervalSequence::new();
        let onset = rng.range(0..24i64);
        let h = |rng: &mut SplitMix64| hours(rng, cfg.avg_state_hours);

        let push = |seq: &mut IntervalSequence, name: &str, start: Time, dur: Time| {
            #[expect(
                clippy::expect_used,
                reason = "every clinical state name is interned before generation; a miss means the state list and scripts drifted"
            )]
            let sym = symbols.lookup(name).expect("state interned");
            seq.push(EventInterval::new_unchecked(sym, start, start + dur.max(1)));
        };

        if rng.unit_f64() < cfg.sepsis_fraction {
            // Sepsis script: fever; tachycardia during fever; antibiotics
            // started during fever and outlasting it; possibly hypotension
            // with vasopressors contained in it.
            let fever_dur = h(rng) + 6;
            push(&mut seq, "fever", onset, fever_dur);
            let tachy_start = onset + rng.range(1..4);
            push(
                &mut seq,
                "tachycardia",
                tachy_start,
                (fever_dur - rng.range(2..5)).max(2),
            );
            let abx_start = onset + rng.range(2..6);
            push(&mut seq, "antibiotics", abx_start, fever_dur + h(rng) + 12);
            if rng.unit_f64() < 0.6 {
                let hypo_start = onset + rng.range(3..8);
                let hypo_dur = h(rng);
                push(&mut seq, "hypotension", hypo_start, hypo_dur + 4);
                push(
                    &mut seq,
                    "vasopressors",
                    hypo_start + 1,
                    hypo_dur.max(3) - 1,
                );
            }
        } else {
            // Post-operative script: sedation with ventilation contained in
            // it; delirium after sedation ends.
            let sed_dur = h(rng) + 8;
            push(&mut seq, "sedation", onset, sed_dur);
            push(
                &mut seq,
                "ventilation",
                onset + 1,
                (sed_dur - rng.range(2..4)).max(2),
            );
            if rng.unit_f64() < 0.5 {
                let delirium_start = onset + sed_dur + rng.range(1..6);
                push(&mut seq, "delirium", delirium_start, h(rng) + 2);
            }
        }

        // Background noise.
        let noise = (cfg.noise_states * (0.4 + 1.2 * rng.unit_f64())).round() as usize;
        for _ in 0..noise {
            let name = STATES[rng.range(0..STATES.len())];
            let start = rng.range(0..96i64);
            push(&mut seq, name, start, h(rng));
        }
        seq
    }
}

fn hours(rng: &mut SplitMix64, mean: f64) -> Time {
    let u: f64 = rng.unit_f64().max(f64::MIN_POSITIVE);
    ((-u.ln() * mean) as Time).clamp(1, 96)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = IcuEmulator::new(IcuConfig::default()).generate();
        let b = IcuEmulator::new(IcuConfig::default()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn respects_patient_count_and_vocabulary() {
        let db = IcuEmulator::new(IcuConfig {
            patients: 77,
            ..Default::default()
        })
        .generate();
        assert_eq!(db.len(), 77);
        assert_eq!(db.symbols().len(), STATES.len());
        for seq in db.sequences() {
            assert!(seq.len() >= 2, "every stay follows a script");
        }
    }

    #[test]
    fn sepsis_script_plants_tachycardia_during_fever() {
        let db = IcuEmulator::new(IcuConfig {
            patients: 600,
            noise_states: 0.0,
            ..Default::default()
        })
        .generate();
        let fever = db.symbols().lookup("fever").unwrap();
        let tachy = db.symbols().lookup("tachycardia").unwrap();
        let both = db
            .sequences()
            .iter()
            .filter(|s| {
                // tachycardia strictly inside fever
                let fevers: Vec<_> = s.iter().filter(|iv| iv.symbol == fever).collect();
                let tachys: Vec<_> = s.iter().filter(|iv| iv.symbol == tachy).collect();
                fevers
                    .iter()
                    .any(|f| tachys.iter().any(|t| f.start < t.start && t.end < f.end))
            })
            .count();
        assert!(
            both > 150,
            "tachycardia-during-fever planted in only {both}/600 stays"
        );
    }

    #[test]
    fn scripts_split_population() {
        let db = IcuEmulator::new(IcuConfig {
            patients: 400,
            sepsis_fraction: 0.5,
            noise_states: 0.0,
            ..Default::default()
        })
        .generate();
        let sedation = db.symbols().lookup("sedation").unwrap();
        let fever = db.symbols().lookup("fever").unwrap();
        let sedated = db
            .sequences()
            .iter()
            .filter(|s| s.contains_symbol(sedation))
            .count();
        let febrile = db
            .sequences()
            .iter()
            .filter(|s| s.contains_symbol(fever))
            .count();
        assert!(sedated > 120 && febrile > 120);
        assert_eq!(
            sedated + febrile,
            db.len(),
            "with zero noise each stay follows exactly one script"
        );
    }
}
