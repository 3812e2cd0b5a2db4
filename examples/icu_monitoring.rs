//! Clinical course mining on the ICU emulator: find state arrangements that
//! distinguish the sepsis script from the post-operative script, with a
//! 48-hour window constraint.
//!
//! ```text
//! cargo run --release --example icu_monitoring
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

use ptpminer::datasets::{IcuConfig, IcuEmulator};
use ptpminer::prelude::*;

fn main() {
    let db = IcuEmulator::new(IcuConfig {
        patients: 2_000,
        ..Default::default()
    })
    .generate();
    println!(
        "ICU emulator: {} stays, {} state intervals, {} states",
        db.len(),
        db.total_intervals(),
        db.symbols().len()
    );

    // Clinical questions care about co-occurring states within a bounded
    // horizon: mine arrangements that fit inside 48 hours.
    let result = TpMiner::new(
        MinerConfig::with_min_support(db.absolute_support(0.15))
            .max_arity(3)
            .max_window(48),
    )
    .mine(&db);
    println!(
        "\n{} patterns frequent in >=15% of stays within a 48h window",
        result.len()
    );

    let mut courses: Vec<_> = result
        .patterns()
        .iter()
        .filter(|p| p.pattern.arity() >= 2)
        .collect();
    courses.sort_by_key(|p| std::cmp::Reverse(p.support));
    println!("\nmost common clinical courses:");
    for p in courses.iter().take(8) {
        println!(
            "  {:68} {:4} stays",
            p.pattern.display(db.symbols()).to_string(),
            p.support
        );
    }

    // Rules: what does fever imply?
    let rules = generate_rules(
        result.patterns(),
        &RuleConfig {
            min_confidence: 0.55,
        },
    );
    let fever = db.symbols().lookup("fever").expect("state exists");
    println!("\nhigh-confidence implications of febrile courses:");
    for r in rules
        .iter()
        .filter(|r| r.antecedent.symbols().contains(&fever))
        .take(5)
    {
        println!("  {}", r.display(db.symbols()));
    }

    // Navigate the result: which patterns extend "sedation"?
    let sedation = TemporalPattern::singleton(db.symbols().lookup("sedation").unwrap());
    let extensions = result.super_patterns_of(&sedation).count();
    println!(
        "\n{} frequent patterns extend the bare `sedation` state (e.g. \
         ventilation contained in sedation)",
        extensions
    );
}
