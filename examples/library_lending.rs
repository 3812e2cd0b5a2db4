//! Case study on the library-lending emulator: discover how patrons'
//! borrowing habits arrange in time, and compress the answer with closed
//! patterns.
//!
//! ```text
//! cargo run --release --example library_lending
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
use ptpminer::tpminer::closed_patterns;
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the example times the runs it reports"
)]
fn main() {
    let db = ptpminer::datasets::LibraryEmulator::new(LibraryConfig {
        patrons: 2_000,
        ..Default::default()
    })
    .generate();
    println!(
        "library emulator: {} patrons, {} loans, {} book categories",
        db.len(),
        db.total_intervals(),
        db.symbols().len()
    );

    // 15% of patrons is a demanding threshold for a 12-category library.
    let min_sup = db.absolute_support(0.15);
    let started = Instant::now();
    let result = TpMiner::new(MinerConfig::with_min_support(min_sup)).mine(&db);
    println!(
        "\n{} frequent patterns at min support {min_sup} ({:?})",
        result.len(),
        started.elapsed()
    );

    // The closed subset tells the same story without the redundancy.
    let closed = closed_patterns(result.patterns());
    println!(
        "{} closed patterns carry the same information\n",
        closed.len()
    );

    // Show the correlated borrowing habits the emulator plants: multi-loan
    // arrangements rank first.
    let mut showcase: Vec<_> = closed.iter().filter(|p| p.pattern.arity() >= 2).collect();
    showcase.sort_by_key(|p| std::cmp::Reverse((p.pattern.arity(), p.support)));
    println!("top multi-loan borrowing habits:");
    for p in showcase.iter().take(8) {
        println!(
            "  {:55}  support {:4}  ({:.0}% of patrons)",
            p.pattern.display(db.symbols()).to_string(),
            p.support,
            100.0 * p.support as f64 / db.len() as f64
        );
    }

    // Read one habit as Allen relations.
    if let Some(p) = showcase.first() {
        println!("\nrelation matrix of the first habit:");
        let matrix = p.pattern.relation_matrix();
        let infos = p.pattern.slot_infos();
        for (i, row) in matrix.iter().enumerate() {
            for (j, rel) in row.iter().enumerate() {
                if i < j {
                    println!(
                        "  {} {} {}",
                        db.symbols().name(infos[i].symbol),
                        rel,
                        db.symbols().name(infos[j].symbol)
                    );
                }
            }
        }
    }
}
