//! Streaming: feed timestamped interval events into a sliding window and
//! keep the frequent-pattern set continuously mined, refreshing only the
//! partitions the latest events actually touched.
//!
//! ```text
//! cargo run --example streaming
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

use std::sync::Arc;

use ptpminer::interval_core::StreamEvent;
use ptpminer::stream::{IncrementalMiner, SlidingWindowDatabase, SnapshotCell};
use ptpminer::tpminer::MinerConfig;

fn main() {
    // A ward monitor: vitals-derived symptom intervals arrive as the shifts
    // progress, punctuated by watermarks ("everything before t has been
    // delivered"). The window keeps the trailing 48 time units.
    let mut window = SlidingWindowDatabase::new(48);
    let cell = Arc::new(SnapshotCell::new());
    let mut miner = IncrementalMiner::new(MinerConfig::with_min_support(2), 0);

    // Shift 1: two patients develop fever, then a rash while feverish.
    let shift1 = [
        "open 1 fever 0",
        "interval 1 rash 4 14",
        "close 1 fever 9",
        "open 2 fever 2",
        "interval 2 rash 6 16",
        "close 2 fever 11",
        "watermark 20",
    ];
    // Shift 2: patient 3 shows the same course much later; the watermark
    // slides the window far enough to evict shift 1 entirely.
    let shift2 = [
        "interval 3 fever 60 69",
        "interval 3 rash 64 74",
        "interval 4 fever 61 70",
        "interval 4 rash 66 76",
        "watermark 110",
    ];

    for (name, lines) in [("shift 1", &shift1[..]), ("shift 2", &shift2[..])] {
        for (i, line) in lines.iter().enumerate() {
            let event = StreamEvent::parse_line(line, i + 1)
                .expect("well-formed event")
                .expect("no blank lines here");
            window.ingest(event).expect("consistent stream");
        }
        let snapshot = miner.refresh(&mut window);
        // Publish for readers on other threads.
        cell.store(Arc::clone(&snapshot));
        println!(
            "after {name}: revision {}, window [{}, {}), {} sequences, \
             {} patterns ({} re-mined roots, {} patterns carried over)",
            snapshot.revision,
            snapshot.window_start.unwrap(),
            snapshot.watermark.unwrap(),
            snapshot.sequences,
            snapshot.result.len(),
            snapshot.refresh.dirty_roots,
            snapshot.refresh.carried_patterns,
        );
        println!("{}", snapshot.render());
    }

    // Any thread holding the cell sees the latest coherent snapshot.
    let latest = cell.load();
    println!(
        "cell holds revision {} with {} patterns; {} intervals were evicted \
         by the slide",
        latest.revision,
        latest.result.len(),
        window.stats().intervals_evicted,
    );
}
