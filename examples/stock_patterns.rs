//! Case study on the stock-state emulator: mine co-movement arrangements
//! from price state intervals (`stk3-up`, `stk5-down`, …) across trading
//! windows, comparing the sequential and parallel miners.
//!
//! ```text
//! cargo run --release --example stock_patterns
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
use ptpminer::tpminer::ParallelTpMiner;
use std::time::Instant;

#[expect(
    clippy::disallowed_methods,
    reason = "the example times the runs it reports"
)]
fn main() {
    let db = ptpminer::datasets::StockEmulator::new(StockConfig {
        tickers: 6,
        windows: 800,
        days_per_window: 10,
        market_correlation: 0.7,
        ..Default::default()
    })
    .generate();
    println!(
        "stock emulator: {} trading windows, {} state intervals, {} symbols",
        db.len(),
        db.total_intervals(),
        db.symbols().len()
    );

    let config = MinerConfig::with_min_support(db.absolute_support(0.40)).max_arity(3);

    let started = Instant::now();
    let sequential = TpMiner::new(config).mine(&db);
    let seq_time = started.elapsed();

    let started = Instant::now();
    let parallel = ParallelTpMiner::new(config, 0).mine(&db);
    let par_time = started.elapsed();

    assert_eq!(
        sequential.patterns(),
        parallel.patterns(),
        "parallel mining must agree with sequential"
    );
    println!(
        "\n{} patterns; sequential {seq_time:?}, parallel {par_time:?} (identical output)",
        sequential.len()
    );

    // Co-movement: arrangements joining *different* tickers.
    let cross_ticker = |p: &ptpminer::tpminer::FrequentPattern| {
        let mut tickers: Vec<&str> = p
            .pattern
            .slot_infos()
            .iter()
            .map(|s| {
                db.symbols()
                    .name(s.symbol)
                    .split_once('-')
                    .map(|(t, _)| t)
                    .unwrap_or("?")
            })
            .collect();
        tickers.sort_unstable();
        tickers.dedup();
        tickers.len() >= 2
    };
    let mut movers: Vec<_> = sequential
        .patterns()
        .iter()
        .filter(|p| p.pattern.arity() >= 2 && cross_ticker(p))
        .collect();
    movers.sort_by_key(|p| std::cmp::Reverse(p.support));
    println!("\nstrongest cross-ticker co-movements:");
    for p in movers.iter().take(10) {
        println!(
            "  {:45}  in {:4} windows ({:.0}%)",
            p.pattern.display(db.symbols()).to_string(),
            p.support,
            100.0 * p.support as f64 / db.len() as f64
        );
    }
}
