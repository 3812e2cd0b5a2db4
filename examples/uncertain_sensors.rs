//! Probabilistic mining over uncertain interval data: sensor-style
//! detections that exist only with a confidence score.
//!
//! ```text
//! cargo run --release --example uncertain_sensors
//! ```

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "an example narrates to stdout and stops on a failed check"
)]

use interval_core::rng::SplitMix64;
use ptpminer::interval_core::UncertainDatabaseBuilder;
use ptpminer::prelude::*;
use ptpminer::tpminer::ProbabilisticMiner;

fn main() {
    // Occupancy-sensing scenario: per day (sequence), detectors report
    // presence intervals with a confidence. `desk` detections are reliable,
    // `meeting` detections overlap them with medium confidence, and
    // `corridor` blips are noisy.
    let mut rng = SplitMix64::new(7);
    let mut builder = UncertainDatabaseBuilder::new();
    for _ in 0..400 {
        let day = builder.sequence();
        let desk_start = rng.range(0..60i64);
        let desk_end = desk_start + rng.range(180..360);
        let day = day.interval("desk", desk_start, desk_end, 0.97);
        let day = if rng.unit_f64() < 0.8 {
            let m_start = desk_start + rng.range(30..90);
            day.interval("meeting", m_start, m_start + 45, rng.range(0.55..0.9))
        } else {
            day
        };
        if rng.unit_f64() < 0.5 {
            let c_start = rng.range(0..400i64);
            day.interval("corridor", c_start, c_start + 5, rng.range(0.05..0.3));
        }
    }
    let udb = builder.build();
    println!(
        "uncertain sensor log: {} days, {} detections",
        udb.len(),
        udb.total_intervals()
    );

    // Patterns with expected support over 35% of days.
    let min_esup = 0.35 * udb.len() as f64;
    let result = ProbabilisticMiner::new(ProbabilisticConfig::with_min_expected_support(min_esup))
        .mine(&udb);

    println!("\nprobabilistically frequent patterns (expected support >= {min_esup:.0}):");
    for p in result.patterns() {
        println!(
            "  {:45}  E[support] {:7.1}   full-world support {:4}",
            p.pattern.display(udb.symbols()).to_string(),
            p.expected_support,
            p.world_support
        );
    }
    let s = result.stats();
    println!(
        "\nskeleton candidates {}, screened by the PT4 bound {}, fully evaluated {}",
        s.candidates, s.pruned_by_bound, s.evaluated
    );
    println!(
        "note: low-confidence `corridor` blips are frequent in the full world \
         but fail the expected-support threshold — that is the point of \
         probabilistic mining."
    );
}
