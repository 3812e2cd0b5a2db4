//! Property tests for the probabilistic layer: P-TPMiner reduces to TPMiner
//! on certain data, expected supports are consistent with the exact
//! semantics, and the PT4 bound really bounds.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

mod common;

use common::prop;
use interval_core::probability::{
    containment_probability, containment_upper_bound, expected_support, ProbabilityConfig,
};
use interval_core::rng::SplitMix64;
use interval_core::{
    matcher, TemporalPattern, UncertainDatabase, UncertainInterval, UncertainSequence,
};
use tpminer::{MinerConfig, ProbabilisticConfig, ProbabilisticMiner, TpMiner};

/// Attach probabilities from a fixed palette to a certain database.
fn uncertainify(db: &interval_core::IntervalDatabase, salt: u64) -> UncertainDatabase {
    let palette = [1.0, 0.75, 0.5, 0.25];
    let mut rng = SplitMix64::new(salt);
    let sequences = db
        .sequences()
        .iter()
        .map(|s| {
            s.iter()
                .map(|&iv| {
                    UncertainInterval::new(iv, palette[rng.range(0..palette.len())]).unwrap()
                })
                .collect::<UncertainSequence>()
        })
        .collect();
    UncertainDatabase::from_parts(db.symbols().clone(), sequences)
}

#[test]
fn certain_probabilistic_mining_equals_deterministic() {
    let generate = |rng: &mut _| (common::small_database(rng), rng.range(1usize..4));
    prop::check(48, generate, |(db, min_sup)| {
        let udb = UncertainDatabase::from_certain(&db);
        let det = TpMiner::new(MinerConfig::with_min_support(min_sup)).mine(&db);
        let prob = ProbabilisticMiner::new(ProbabilisticConfig::with_min_expected_support(
            min_sup as f64,
        ))
        .mine(&udb);
        assert_eq!(det.len(), prob.len());
        for (d, p) in det.patterns().iter().zip(prob.patterns()) {
            assert_eq!(&d.pattern, &p.pattern);
            assert!((p.expected_support - d.support as f64).abs() < 1e-9);
        }
    });
}

#[test]
fn upper_bound_dominates_exact_probability() {
    let generate = |rng: &mut _| (common::small_database(rng), rng.range(0u64..32));
    prop::check(48, generate, |(db, salt)| {
        let udb = uncertainify(&db, salt);
        let cfg = ProbabilityConfig {
            exact_limit: 16,
            ..Default::default()
        };
        // check on every pattern of the full world up to arity 2
        let full = TpMiner::new(MinerConfig::with_min_support(1).max_arity(2)).mine(&db);
        for fp in full.patterns() {
            for (i, seq) in udb.sequences().iter().enumerate() {
                let p = containment_probability(seq, &fp.pattern, &cfg, i as u64);
                let bound = containment_upper_bound(seq, &fp.pattern);
                assert!(
                    bound >= p - 1e-9,
                    "bound {} < probability {} for {}",
                    bound,
                    p,
                    fp.pattern.display(db.symbols())
                );
                assert!((0.0..=1.0).contains(&p));
            }
        }
    });
}

#[test]
fn expected_support_is_anti_monotone() {
    let generate = |rng: &mut _| (common::small_database(rng), rng.range(0u64..32));
    prop::check(48, generate, |(db, salt)| {
        let udb = uncertainify(&db, salt);
        let cfg = ProbabilityConfig {
            exact_limit: 16,
            ..Default::default()
        };
        let full = TpMiner::new(MinerConfig::with_min_support(1).max_arity(3)).mine(&db);
        for fp in full.patterns() {
            if fp.pattern.arity() < 2 {
                continue;
            }
            let esup = expected_support(&udb, &fp.pattern, &cfg);
            for slot in 0..fp.pattern.arity() {
                let sub = baselines::ieminer::remove_slot(&fp.pattern, slot);
                let sub_esup = expected_support(&udb, &sub, &cfg);
                assert!(
                    sub_esup >= esup - 1e-9,
                    "E[sup] not anti-monotone: {} -> {}",
                    esup,
                    sub_esup
                );
            }
        }
    });
}

#[test]
fn probabilistic_miner_output_satisfies_threshold() {
    let generate = |rng: &mut _| (common::small_database(rng), rng.range(0u64..16));
    prop::check(48, generate, |(db, salt)| {
        let udb = uncertainify(&db, salt);
        let min_esup = 1.25;
        let cfg = ProbabilisticConfig {
            probability: ProbabilityConfig {
                exact_limit: 16,
                ..Default::default()
            },
            ..ProbabilisticConfig::with_min_expected_support(min_esup)
        };
        let result = ProbabilisticMiner::new(cfg).mine(&udb);
        for p in result.patterns() {
            assert!(p.expected_support >= min_esup);
            let recomputed = expected_support(&udb, &p.pattern, &cfg.probability);
            assert!((recomputed - p.expected_support).abs() < 1e-9);
            assert!(p.expected_support <= p.world_support as f64 + 1e-9);
        }
    });
}

#[test]
fn world_sampling_frequency_approaches_probability() {
    let generate = |rng: &mut _| (common::small_database(rng), rng.range(0u64..8));
    prop::check(48, generate, |(db, salt)| {
        // Monte-Carlo estimator sanity over the model itself: empirical
        // containment frequency over sampled worlds approximates the exact
        // containment probability.
        let udb = uncertainify(&db, salt);
        let cfg = ProbabilityConfig {
            exact_limit: 16,
            ..Default::default()
        };
        let full = TpMiner::new(MinerConfig::with_min_support(1).max_arity(2)).mine(&{
            let sequences = udb.sequences().iter().map(|s| s.to_certain()).collect();
            interval_core::IntervalDatabase::from_parts(udb.symbols().clone(), sequences)
        });
        let Some(fp) = full.patterns().iter().max_by_key(|p| p.pattern.arity()) else {
            return;
        };
        let pattern: &TemporalPattern = &fp.pattern;
        let exact: f64 = expected_support(&udb, pattern, &cfg);
        let trials = 600u32;
        let mut acc = 0.0f64;
        for t in 0..trials {
            let world = udb.sample_world(t as u64 * 977 + salt);
            acc += matcher::support(&world, pattern) as f64;
        }
        let sampled = acc / f64::from(trials);
        // ~3-sigma tolerance for the worst case (variance <= n/4 per world)
        let tol = 3.0 * (udb.len() as f64 / 4.0 / f64::from(trials)).sqrt() + 0.05;
        assert!(
            (sampled - exact).abs() <= tol,
            "sampled {} vs exact {} (tol {})",
            sampled,
            exact,
            tol
        );
    });
}
