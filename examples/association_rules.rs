//! Turn mined temporal patterns into actionable **temporal association
//! rules** — "patrons who borrow X also borrow Y while X is still out" —
//! and explore top-k and window-constrained mining along the way.
//!
//! ```text
//! cargo run --release --example association_rules
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

use ptpminer::prelude::*;

fn main() {
    let db = ptpminer::datasets::LibraryEmulator::new(LibraryConfig {
        patrons: 1_500,
        ..Default::default()
    })
    .generate();
    println!(
        "library emulator: {} patrons, {} loans",
        db.len(),
        db.total_intervals()
    );

    // Top-10 two-or-more-interval patterns — no support threshold guessing.
    let top = mine_top_k(&db, TopKConfig::new(10));
    println!("\ntop-10 borrowing arrangements:");
    for p in &top {
        println!(
            "  {:55} support {:4}",
            p.pattern.display(db.symbols()).to_string(),
            p.support
        );
    }

    // Rules at 60% confidence from a full mine at 10% support.
    let result =
        TpMiner::new(MinerConfig::with_min_support(db.absolute_support(0.10)).max_arity(3))
            .mine(&db);
    let rules = generate_rules(
        result.patterns(),
        &RuleConfig {
            min_confidence: 0.6,
        },
    );
    println!(
        "\n{} rules at confidence >= 0.6 (from {} frequent patterns):",
        rules.len(),
        result.len()
    );
    for r in rules.iter().take(8) {
        println!("  {}", r.display(db.symbols()));
    }

    // Window-constrained mining: the same habits, but only when the two
    // loans happen within a quarter (91 days).
    let windowed = TpMiner::new(
        MinerConfig::with_min_support(db.absolute_support(0.10))
            .max_arity(3)
            .max_window(91),
    )
    .mine(&db);
    println!(
        "\nwithin a 91-day window, {} of the {} patterns remain frequent",
        windowed.len(),
        result.len()
    );
}
