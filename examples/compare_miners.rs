//! Run all four miners on the same synthetic workload, verify they agree,
//! and compare their work counters — a miniature of the paper's E1.
//!
//! ```text
//! cargo run --release --example compare_miners
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
    let config = QuestConfig::small().sequences(800).symbols(60).seed(2024);
    let db = QuestGenerator::new(config).generate();
    println!(
        "workload {}: {} sequences, {} intervals",
        config.name(),
        db.len(),
        db.total_intervals()
    );

    let min_sup = db.absolute_support(0.08);
    println!("mining at absolute min support {min_sup}\n");

    let started = Instant::now();
    let tp = TpMiner::new(MinerConfig::with_min_support(min_sup)).mine(&db);
    let tp_time = started.elapsed();

    let started = Instant::now();
    let tps = TPrefixSpan::new(min_sup).mine(&db);
    let tps_time = started.elapsed();

    let started = Instant::now();
    let ie = IeMiner::new(min_sup).mine(&db);
    let ie_time = started.elapsed();

    let started = Instant::now();
    let hdfs = HDfsMiner::new(min_sup).mine(&db);
    let hdfs_time = started.elapsed();

    assert_eq!(tp.patterns(), &tps.patterns[..], "TPrefixSpan disagrees");
    assert_eq!(tp.patterns(), &ie.patterns[..], "IEMiner disagrees");
    assert_eq!(tp.patterns(), &hdfs.patterns[..], "H-DFS disagrees");
    println!("all four miners agree on {} frequent patterns\n", tp.len());

    println!("{:<14} {:>10}  work profile", "miner", "time");
    println!("{}", "-".repeat(78));
    println!(
        "{:<14} {:>10.1?}  {} nodes explored, {} embedding states",
        "P-TPMiner",
        tp_time,
        tp.stats().nodes_explored,
        tp.stats().states_created
    );
    println!(
        "{:<14} {:>10.1?}  {} candidates, {} containment scans",
        "TPrefixSpan", tps_time, tps.stats.candidates_generated, tps.stats.containment_tests
    );
    println!(
        "{:<14} {:>10.1?}  {} candidates, {} containment scans",
        "IEMiner", ie_time, ie.stats.candidates_generated, ie.stats.containment_tests
    );
    println!(
        "{:<14} {:>10.1?}  {} candidates, {} occurrence tuples",
        "H-DFS", hdfs_time, hdfs.stats.candidates_generated, hdfs.stats.occurrences_materialized
    );

    println!("\nthe pruning techniques' contribution (same output, less work):");
    for (name, pruning) in [
        ("all pruning", PruningConfig::all()),
        ("no pruning", PruningConfig::none()),
    ] {
        let started = Instant::now();
        let r = TpMiner::new(MinerConfig::with_min_support(min_sup).pruning(pruning)).mine(&db);
        println!(
            "  {:<12} {:>10.1?}  {} nodes, {} candidate extensions",
            name,
            started.elapsed(),
            r.stats().nodes_explored,
            r.stats().candidates_counted
        );
    }
}
