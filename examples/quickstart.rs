//! Quickstart: build a small interval database by hand, mine it, and read
//! the patterns.
//!
//! ```text
//! cargo run --example quickstart
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
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the example times the runs it reports"
)]
fn main() {
    // A toy symptom diary: three patients, intervals of ongoing symptoms.
    let mut builder = DatabaseBuilder::new();
    builder
        .sequence() // patient 1
        .interval("fever", 0, 10)
        .interval("rash", 5, 20)
        .interval("headache", 21, 30);
    builder
        .sequence() // patient 2
        .interval("fever", 3, 12)
        .interval("rash", 8, 25);
    builder
        .sequence() // patient 3
        .interval("rash", 0, 5)
        .interval("headache", 9, 14);
    let db = builder.build();

    // Mine every temporal pattern occurring in at least two patients.
    let miner = TpMiner::new(MinerConfig::with_min_support(2));
    let started = Instant::now();
    let result = miner.mine(&db);
    let elapsed = started.elapsed();

    println!(
        "frequent temporal patterns (min support 2 of {}):",
        db.len()
    );
    println!("{}", result.render(db.symbols()));

    // Patterns are arrangements: `fever+ | rash+ | fever- | rash-` says the
    // rash starts while the fever is ongoing — Allen's "overlaps".
    let overlap = result
        .patterns()
        .iter()
        .find(|p| p.pattern.arity() == 2)
        .expect("a 2-interval pattern is frequent");
    println!(
        "two-interval pattern: {}  =>  Allen relation: {}",
        overlap.pattern.display(db.symbols()),
        overlap.pattern.relation(0, 1),
    );

    // Patterns render as ASCII timelines too:
    println!("\n{}", overlap.pattern.ascii_timeline(db.symbols()));

    // And every match can be *explained* by a concrete witness embedding.
    let witness = ptpminer::interval_core::matcher::find_embedding(
        &db.sequences()[0],
        &overlap.pattern,
        ptpminer::interval_core::MatchConstraints::none(),
    )
    .expect("patient 1 supports the pattern");
    println!("witness in patient 1:");
    for (slot, iv) in witness.iter().enumerate() {
        println!(
            "  slot {slot}: {} [{}, {})",
            db.symbols().name(iv.symbol),
            iv.start,
            iv.end
        );
    }

    // The same statistics are available programmatically.
    println!(
        "\n{} patterns total; histogram by size: {:?}",
        result.len(),
        result.arity_histogram()
    );
    println!(
        "search explored {} nodes in {:?}",
        result.stats().nodes_explored,
        elapsed
    );
}
