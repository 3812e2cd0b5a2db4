//! The CI perf job's two intra-run ratio gates. Each compares two
//! measurements taken in one run on one host, so neither reads a committed
//! timing baseline:
//!
//! - **WAL tax**: journaled ingest within [`MAX_WAL_RATIO`] of bare ingest
//!   (best of 3, [`wal_workload`]);
//! - **shard speedup**: a 4-worker sharded refresh at least
//!   [`MIN_SHARD_SPEEDUP`]x faster than 1 worker over [`dense_db`],
//!   enforced only on hosts with [`SHARD_GATE_MIN_CORES`]+ cores.
//!
//! ```text
//! cargo run --release -p bench --bin gates
//! ```
//!
//! Prints one line per gate to stderr and exits non-zero when an enforced
//! gate fails.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "a CI gate prints its verdict, and may stop on a broken invariant"
)]

use durability::FsyncPolicy;
use interval_core::{IntervalDatabase, MiningBudget, StreamEvent};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use stream::{ShardPool, SlidingWindowDatabase};
use synthgen::{QuestConfig, QuestGenerator};
use tpminer::{DbIndex, MinerConfig};

/// Journaled ingest must stay within this factor of bare ingest. The
/// journaled side measures the WAL's software tax (framing, CRC, buffered
/// OS writes); the fsync to stable storage is timed apart and only
/// printed. The measured tax sits around x1.3-x1.5 on a 2-vCPU host, and the
/// bare-loop denominator swings a few percent with the codegen of
/// unrelated crates, so the limit carries headroom: it still catches
/// order-of-regression bugs (an accidental fsync-per-append is >10x)
/// without flaking on binary layout.
const MAX_WAL_RATIO: f64 = 1.6;
/// A 4-worker sharded refresh must be at least this much faster than one
/// worker over the same multi-root workload.
const MIN_SHARD_SPEEDUP: f64 = 1.5;
/// Cores below which the shard gate is informational: a pool's real
/// threads cannot beat one worker without hardware to run them on.
const SHARD_GATE_MIN_CORES: usize = 4;
/// Window length the WAL workload is ingested into.
const STREAM_WINDOW: i64 = 100;
/// Replays of the WAL workload per timing sample (keeps each sample in the
/// tens of milliseconds, well above timer noise).
const WAL_REPS: usize = 5;

fn main() -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failures: Vec<String> = [wal_tax(), shard_speedup(cores)]
        .into_iter()
        .flatten()
        .collect();
    for failure in &failures {
        eprintln!("gates: FAIL: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Times an ingest-only loop (no refreshes: the journal taxes ingest, so
/// that is what gets timed) bare and journaled under the epoch fsync
/// policy, and applies [`wal_gate`]. Pushing the bytes to stable storage
/// is disk bandwidth: on hosts whose in-memory ingest outruns the disk
/// (~300 MB/s of events against a ~160 MB/s disk on a 2-vCPU host), no
/// implementation could keep fsync-inclusive time within any small factor
/// of bare ingest. So the epoch fsync is printed for information, and the
/// timed loop spans a single epoch (no mid-loop seal).
fn wal_tax() -> Option<String> {
    let events = wal_workload();
    let bare_us = best_of(3, || {
        #[expect(
            clippy::disallowed_methods,
            reason = "a ratio gate times the two workloads it compares"
        )]
        let started = Instant::now();
        for _ in 0..WAL_REPS {
            let mut window = SlidingWindowDatabase::new(STREAM_WINDOW);
            for event in &events {
                window
                    .ingest(event.clone())
                    .expect("workload is well-formed");
            }
        }
        started.elapsed().as_micros() as u64
    });
    let mut sample = 0u64;
    let mut flush_us = 0u64;
    let journaled_us = best_of(3, || {
        sample += 1;
        let dir = std::env::temp_dir().join(format!(
            "ptpminer-gates-wal-{}-{sample}",
            std::process::id()
        ));
        // A rotation horizon past the whole run keeps the loop inside one
        // epoch; the end-of-epoch fsync is timed separately below.
        let mut journal = stream::Journal::open(&dir, i64::MAX / 2, FsyncPolicy::Epoch)
            .expect("temp WAL dir must open");
        #[expect(
            clippy::disallowed_methods,
            reason = "a ratio gate times the two workloads it compares"
        )]
        let started = Instant::now();
        for _ in 0..WAL_REPS {
            let mut window = SlidingWindowDatabase::new(STREAM_WINDOW);
            for event in &events {
                journal.append(event);
                window
                    .ingest(event.clone())
                    .expect("workload is well-formed");
            }
        }
        let us = started.elapsed().as_micros() as u64;
        #[expect(
            clippy::disallowed_methods,
            reason = "a ratio gate times the two workloads it compares"
        )]
        let flush_started = Instant::now();
        assert!(journal.flush(), "the gate's journal must stay healthy");
        flush_us = flush_us.max(flush_started.elapsed().as_micros() as u64);
        std::fs::remove_dir_all(&dir).ok();
        us
    });
    eprintln!("gates: epoch flush to stable storage {flush_us} us (informational)");
    wal_gate(bare_us, journaled_us)
}

/// Times one full refresh's mining work (every root dirty) over
/// [`dense_db`] through a [`ShardPool`] of 1 and of 4 workers, checks the
/// two agree, and applies [`shard_gate`].
fn shard_speedup(cores: usize) -> Option<String> {
    let db = dense_db();
    let min_sup = db.absolute_support(0.05);
    let config = MinerConfig::with_min_support(min_sup);
    let index = Arc::new(DbIndex::build(&db));
    let roots = index.frequent_symbols(min_sup);
    let pool1 = ShardPool::new(1);
    let pool4 = ShardPool::new(4);
    let one = pool1.mine_sharded(&index, &roots, config, MiningBudget::unlimited());
    let four = pool4.mine_sharded(&index, &roots, config, MiningBudget::unlimited());
    assert_eq!(
        one.patterns(),
        four.patterns(),
        "parity violation: sharded refresh output diverged"
    );
    let time = |pool: &ShardPool| {
        best_of(3, || {
            #[expect(
                clippy::disallowed_methods,
                reason = "a ratio gate times the two workloads it compares"
            )]
            let started = Instant::now();
            let _ = pool.mine_sharded(&index, &roots, config, MiningBudget::unlimited());
            started.elapsed().as_micros() as u64
        })
    };
    shard_gate(time(&pool1), time(&pool4), cores)
}

/// Journaled ingest within [`MAX_WAL_RATIO`] of bare ingest. Returns the
/// failure message, if any.
fn wal_gate(bare_us: u64, journaled_us: u64) -> Option<String> {
    if bare_us == 0 {
        return None; // timer too coarse to judge
    }
    let ratio = journaled_us as f64 / bare_us as f64;
    let verdict = if ratio > MAX_WAL_RATIO { "FAIL" } else { "ok" };
    eprintln!(
        "gates: wal tax x{ratio:.2} (journaled {journaled_us} us vs bare {bare_us} us, \
         limit x{MAX_WAL_RATIO}) {verdict}"
    );
    (ratio > MAX_WAL_RATIO).then(|| {
        format!(
            "journaled ingest regressed to x{ratio:.2} of bare ingest \
             (journaled {journaled_us} us, bare {bare_us} us, limit x{MAX_WAL_RATIO})"
        )
    })
}

/// 4 pool workers at least [`MIN_SHARD_SPEEDUP`]x faster than 1 over the
/// same roots. Enforced only with [`SHARD_GATE_MIN_CORES`]+ `cores`: a 1-
/// or 2-core host runs the pool's threads (mostly) one after another, so
/// there the comparison is printed but cannot fail. Returns the failure
/// message, if any.
fn shard_gate(one_us: u64, four_us: u64, cores: usize) -> Option<String> {
    if one_us == 0 || four_us == 0 {
        return None; // timer too coarse to judge
    }
    let speedup = one_us as f64 / four_us as f64;
    let enforced = cores >= SHARD_GATE_MIN_CORES;
    let verdict = if speedup >= MIN_SHARD_SPEEDUP {
        "ok"
    } else if enforced {
        "FAIL"
    } else {
        "ok (informational: too few cores)"
    };
    eprintln!(
        "gates: shard speedup x{speedup:.2} (1 worker {one_us} us vs 4 workers {four_us} us, \
         need x{MIN_SHARD_SPEEDUP} on {SHARD_GATE_MIN_CORES}+ cores, host has {cores}) {verdict}"
    );
    (enforced && speedup < MIN_SHARD_SPEEDUP).then(|| {
        format!(
            "4-worker sharded refresh only x{speedup:.2} faster than 1 worker \
             ({four_us} us vs {one_us} us, need x{MIN_SHARD_SPEEDUP} on this {cores}-core host)"
        )
    })
}

/// The shard gate's workload: a small QUEST-style database with many
/// frequent roots, whose frontier projections dominate the runtime. The
/// ledger's `mine-dense` workload mines a seeded isomorphic copy of it.
fn dense_db() -> IntervalDatabase {
    QuestGenerator::new(QuestConfig {
        num_sequences: 600,
        avg_intervals_per_sequence: 12.0,
        avg_pattern_arity: 4.0,
        num_symbols: 40,
        num_potential_patterns: 20,
        corruption: 0.25,
        noise: 0.15,
        avg_duration: 20.0,
        horizon: 400,
        seed: 7,
    })
    .generate()
}

/// The WAL gate's workload: 512 sequences carrying 8 co-occurring symbols
/// per round from a 32-symbol alphabet, one watermark per round — big
/// enough that the window's per-event hash and eviction work runs at a
/// realistic cache footprint instead of entirely in L1, which would
/// understate bare ingest cost and make the ratio meaninglessly harsh.
fn wal_workload() -> Vec<StreamEvent> {
    let (seqs, syms, rounds) = (512u64, 8usize, 20i64);
    let mut events = Vec::with_capacity((seqs as usize * syms + 1) * rounds as usize);
    for round in 0..rounds {
        let t0 = round * 10;
        for seq in 0..seqs {
            for s in 0..syms {
                events.push(StreamEvent::Interval {
                    sequence: seq,
                    symbol: format!("s{:02}", (seq as usize + s) % (syms * 4)),
                    start: t0 + s as i64,
                    end: t0 + s as i64 + 5,
                });
            }
        }
        events.push(StreamEvent::Watermark(t0 + 9));
    }
    events
}

/// Smallest of `samples` runs — the least-disturbed measurement.
fn best_of(samples: usize, mut run: impl FnMut() -> u64) -> u64 {
    (0..samples).map(|_| run()).min().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_gate_fails_only_past_the_ratio() {
        assert!(wal_gate(1000, 1500).is_none(), "x1.5 < 1.6");
        assert!(wal_gate(1000, 1700).is_some(), "x1.7 > 1.6");
        // A bare loop below timer resolution never fails the gate.
        assert!(wal_gate(0, 1700).is_none());
    }

    #[test]
    fn shard_gate_is_hardware_conditional() {
        // x1.11 < 1.5: fails on a wide host, informational on a narrow one.
        assert!(shard_gate(1000, 900, SHARD_GATE_MIN_CORES).is_some());
        assert!(shard_gate(1000, 900, SHARD_GATE_MIN_CORES - 1).is_none());
        // x2.0 >= 1.5: a real speedup always passes.
        assert!(shard_gate(1000, 500, SHARD_GATE_MIN_CORES).is_none());
        // Samples below timer resolution never fail the gate.
        assert!(shard_gate(0, 900, SHARD_GATE_MIN_CORES).is_none());
    }
}
