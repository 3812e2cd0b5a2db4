//! Concurrency tests for the pipelined refresh worker (`stream::worker`):
//!
//! - **shadow-replay parity**: for any op sequence, running every refresh
//!   on the background worker publishes, at every revision, exactly the
//!   snapshot the synchronous path publishes — same patterns, supports,
//!   window bounds, and refresh accounting (the bit-identical discipline
//!   the parallel miner established for parallel vs sequential);
//! - **stress under coalescing**: high-rate ingestion against a worker
//!   that cannot keep up must lose no events (conservation against the
//!   ingest counters), never double-count a refresh, and still converge
//!   to the exact batch result once drained;
//! - **shutdown**: a cancelled budget token (the SIGINT / `--timeout`
//!   path) stops an in-flight background refresh and the worker joins
//!   without deadlock, handing the miner back intact.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

mod common;

use std::sync::Arc;

use common::{ops, prop, Op};
use interval_core::wire::SupportSpec;
use interval_core::{MiningBudget, StreamEvent, Termination, Time};
use stream::{
    IncrementalMiner, Pipeline, PipelineConfig, RefreshJob, RefreshWorker, SlidingWindowDatabase,
    SnapshotCell, Trigger,
};
use tpminer::{MinerConfig, TpMiner};

const WINDOW: Time = 20;

/// Runs `ops`, refreshing synchronously at every watermark, and returns
/// every published snapshot in revision order.
fn run_sync(ops: &[Op], config: MinerConfig) -> Vec<Arc<stream::PatternSnapshot>> {
    let mut window = SlidingWindowDatabase::new(WINDOW);
    let mut miner = IncrementalMiner::new(config, 0);
    let mut published = Vec::new();
    for op in ops {
        window.ingest(op.event()).unwrap();
        if matches!(op, Op::Watermark(_)) {
            published.push(miner.refresh(&mut window));
        }
    }
    published
}

/// Runs `ops`, submitting every watermark's epoch to the background worker
/// (blocking submission: no trigger is coalesced, so revisions line up 1:1
/// with the synchronous run) mining on `threads` threads, and returns
/// every published snapshot.
fn run_pipelined(
    ops: &[Op],
    config: MinerConfig,
    threads: usize,
) -> Vec<Arc<stream::PatternSnapshot>> {
    let mut window = SlidingWindowDatabase::new(WINDOW);
    let cell = Arc::new(SnapshotCell::new());
    let worker = RefreshWorker::spawn(IncrementalMiner::new(config, threads), Arc::clone(&cell));
    let mut published = Vec::new();
    for op in ops {
        window.ingest(op.event()).unwrap();
        if matches!(op, Op::Watermark(_)) {
            worker.submit(RefreshJob {
                view: window.freeze(),
                budget: MiningBudget::unlimited(),
                min_support: None,
            });
        }
        published.extend(worker.drain_completed());
    }
    let outcome = worker.shutdown();
    assert!(outcome.miner.is_some(), "worker must join cleanly");
    published.extend(outcome.unreported);
    published
}

/// Shadow replay: the pipelined path publishes, at every revision,
/// exactly what the synchronous path publishes for the same events —
/// patterns, supports, window bounds, and refresh accounting — at
/// every refresh thread count (the dispatcher mining alone, and with
/// scoped helper workers).
#[test]
fn pipelined_snapshots_equal_synchronous() {
    prop::check(48, ops, |ops| {
        let config = MinerConfig::with_min_support(2);
        let sync = run_sync(&ops, config);
        for threads in [1usize, 2, 8] {
            let pipelined = run_pipelined(&ops, config, threads);
            assert_eq!(sync.len(), pipelined.len(), "threads={}", threads);
            for (s, p) in sync.iter().zip(&pipelined) {
                assert_eq!(s.revision, p.revision);
                assert_eq!(s.watermark, p.watermark);
                assert_eq!(s.window_start, p.window_start);
                assert_eq!(s.sequences, p.sequences);
                assert_eq!(s.result.patterns(), p.result.patterns());
                assert_eq!(&s.refresh, &p.refresh);
            }
        }
    });
}

/// Freezing is a point-in-time boundary: events ingested after a freeze
/// never leak into that epoch's snapshot, and are never lost — they are
/// covered by the *next* epoch.
#[test]
fn freeze_is_a_consistent_cut() {
    prop::check(48, ops, |ops| {
        let config = MinerConfig::with_min_support(1);
        let mut window = SlidingWindowDatabase::new(WINDOW);
        let cell = Arc::new(SnapshotCell::new());
        let worker = RefreshWorker::spawn(IncrementalMiner::new(config, 0), Arc::clone(&cell));
        let mut frozen_meta = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            window.ingest(op.event()).unwrap();
            if i % 7 == 3 {
                let view = window.freeze();
                frozen_meta.push((view.watermark(), view.sequences()));
                worker.submit(RefreshJob {
                    view,
                    budget: MiningBudget::unlimited(),
                    min_support: None,
                });
            }
        }
        let outcome = worker.shutdown();
        assert!(outcome.miner.is_some());
        // Every published snapshot reflects its freeze point, not whatever
        // the live window had moved on to while it was mined.
        let mut all: Vec<_> = outcome.unreported;
        for (snapshot, (watermark, sequences)) in all.drain(..).zip(frozen_meta) {
            assert_eq!(snapshot.watermark, watermark);
            assert_eq!(snapshot.sequences, sequences);
        }
    });
}

/// High-rate ingestion against slow refreshes with the coalescing policy:
/// no event is lost or duplicated, the counters balance, and after the
/// final drain the result is exactly the batch miner's on the final window.
#[test]
fn stress_coalesced_ingestion_converges_to_batch() {
    // The window keeps ~5 rounds of intervals live and the arity cap
    // bounds each refresh, so the run is fast — but a refresh still costs
    // far more than one ingest, so triggers routinely arrive while the
    // worker is busy and must coalesce.
    let config = MinerConfig::with_min_support(2).max_arity(3);
    let mut pipeline: Pipeline = Pipeline::new(
        SlidingWindowDatabase::new(50),
        None,
        None,
        PipelineConfig {
            miner: config,
            support: SupportSpec::Absolute(2),
            trigger: Trigger::Every(1),
            // Every core, so coalesced refreshes run the multi-worker
            // queue while ingestion races them.
            refresh_workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            budget: MiningBudget::unlimited(),
        },
    );

    let symbols = ["a", "b", "c", "d"];
    let mut sent = 0u64;
    let mut triggers = 0u64;
    let mut accepted = 0u64;
    let mut published = Vec::new();
    for round in 0i64..40 {
        for seq in 0..6u64 {
            for (i, sym) in symbols.iter().enumerate() {
                let start = round * 10 + i as i64;
                let ingested = pipeline
                    .ingest(StreamEvent::Interval {
                        sequence: seq,
                        symbol: (*sym).into(),
                        start,
                        end: start + 5,
                    })
                    .unwrap();
                assert!(ingested.due.is_none(), "only a watermark triggers");
                sent += 1;
            }
        }
        let ingested = pipeline
            .ingest(StreamEvent::Watermark(round * 10 + 9))
            .unwrap();
        sent += 1;
        triggers += 1;
        if let Some(due) = ingested.due {
            published.extend(due.submit());
            accepted += 1;
        }
    }

    // Conservation: every event reached the window exactly once, whatever
    // the worker was doing at the time, and the window really slid.
    assert_eq!(pipeline.window().stats().events, sent);
    assert!(
        pipeline.window().stats().intervals_evicted > 0,
        "the window slid"
    );

    // The final epoch folds in every coalesced trigger's dirt; its result
    // must be exactly the batch run over the final window.
    let batch = TpMiner::new(config).mine(&pipeline.window().snapshot_database());
    let finished = pipeline.finish(true).expect("not yet finished").join();
    assert!(!finished.worker_failed, "worker must join cleanly");
    published.extend(finished.snapshots);
    let stats = finished.stats;
    let epochs = accepted + 1; // every accepted trigger, then the final one
    assert_eq!(stats.submitted_refreshes, epochs);
    assert_eq!(
        stats.completed_refreshes, epochs,
        "every accepted epoch completes exactly once"
    );
    assert_eq!(
        stats.coalesced_refreshes,
        triggers - accepted,
        "every trigger is either accepted or coalesced"
    );
    assert_eq!(published.len() as u64, epochs);

    // Revisions are consecutive: nothing published twice, nothing skipped.
    for (i, snapshot) in published.iter().enumerate() {
        assert_eq!(snapshot.revision, i as u64 + 1);
    }

    let finale = published.last().expect("the final epoch published");
    assert_eq!(finale.result.patterns(), batch.patterns());
    assert!(finale.result.is_exhaustive());
}

/// A stalled subscriber (bounded queue, never drained) must not delay
/// snapshot publication or ingest by a single event: the pipeline runs to
/// completion at full rate, the stalled subscriber just loses revisions —
/// counted, observable, and strictly its own problem.
#[test]
fn stalled_subscriber_never_delays_publication_or_ingest() {
    let config = MinerConfig::with_min_support(2).max_arity(3);
    let mut window = SlidingWindowDatabase::new(50);
    let cell = Arc::new(SnapshotCell::new());
    // Capacity-1 queue, never drained: every publication past the first
    // would block here if fan-out were blocking.
    let stalled = cell.subscribe(1);
    let worker = RefreshWorker::spawn(IncrementalMiner::new(config, 2), Arc::clone(&cell));

    let mut sent = 0u64;
    for round in 0i64..25 {
        for seq in 0..4u64 {
            for (i, sym) in ["a", "b", "c"].iter().enumerate() {
                let start = round * 10 + i as i64;
                window
                    .ingest(StreamEvent::Interval {
                        sequence: seq,
                        symbol: (*sym).into(),
                        start,
                        end: start + 5,
                    })
                    .unwrap();
                sent += 1;
            }
        }
        window
            .ingest(StreamEvent::Watermark(round * 10 + 9))
            .unwrap();
        sent += 1;
        // Blocking submission: every epoch is mined and *published* while
        // the subscriber stays stalled.
        worker.submit(RefreshJob {
            view: window.freeze(),
            budget: MiningBudget::unlimited(),
            min_support: None,
        });
    }
    // Ingest never stalled: every event reached the window.
    assert_eq!(window.stats().events, sent);

    let stats = worker.stats(window.watermark());
    assert_eq!(stats.subscribers, 1);
    assert_eq!(
        stats.subscriber_delivered, 1,
        "only the first fit the queue"
    );
    let outcome = worker.shutdown();
    assert!(outcome.miner.is_some());

    // Publication went through all 25 epochs regardless of the stall...
    assert_eq!(cell.load().revision, 25);
    // ...and the stalled subscriber lost exactly the ones it had no room
    // for, in order, with the loss counted.
    assert_eq!(stalled.delivered(), 1);
    assert_eq!(stalled.dropped(), 24);
    assert_eq!(stalled.try_next().map(|s| s.revision), Some(1));
    assert!(stalled.try_next().is_none());
}

/// The SIGINT / `--timeout` path: cancelling the budget token of an
/// in-flight background refresh stops it and `shutdown` joins the worker
/// without deadlock, keeping the last published snapshot valid.
#[test]
fn cancellation_mid_refresh_joins_cleanly() {
    let config = MinerConfig::with_min_support(1);
    let mut window = SlidingWindowDatabase::new(10_000);
    let cell = Arc::new(SnapshotCell::new());
    let worker = RefreshWorker::spawn(IncrementalMiner::new(config, 0), Arc::clone(&cell));

    // First, a small epoch that completes normally.
    window
        .ingest(StreamEvent::Interval {
            sequence: 0,
            symbol: "a".into(),
            start: 0,
            end: 5,
        })
        .unwrap();
    worker.submit(RefreshJob {
        view: window.freeze(),
        budget: MiningBudget::unlimited(),
        min_support: None,
    });

    // Then a deliberately heavy epoch whose token we cancel while it is
    // (potentially) in flight — exactly what the CLI's SIGINT handler does.
    for seq in 0..10u64 {
        for (i, sym) in ["a", "b", "c", "d", "e", "f"].iter().enumerate() {
            window
                .ingest(StreamEvent::Interval {
                    sequence: seq,
                    symbol: (*sym).into(),
                    start: i as i64,
                    end: i as i64 + 20,
                })
                .unwrap();
        }
    }
    let budget = MiningBudget::unlimited();
    let token = budget.token();
    worker.submit(RefreshJob {
        view: window.freeze(),
        budget,
        min_support: None,
    });
    token.cancel();

    let outcome = worker.shutdown();
    let miner = outcome.miner.expect("join must not deadlock after cancel");
    assert!(miner.revision() >= 1);

    // The published state is one of the two epochs; whichever it is, it is
    // coherent: either the completed small epoch or the cancelled heavy one
    // (sound partial result, exact supports).
    let last = cell.load();
    assert!(last.revision >= 1);
    match last.result.termination() {
        Termination::Complete | Termination::Cancelled => {}
        other => panic!("unexpected termination {other:?}"),
    }

    // After the handoff the miner recovers: an unbudgeted refresh restores
    // exhaustiveness and agrees with the batch miner.
    let mut miner = miner;
    let finale = miner.refresh(&mut window);
    assert!(finale.result.is_exhaustive());
    let batch = TpMiner::new(config).mine(&window.snapshot_database());
    assert_eq!(finale.result.patterns(), batch.patterns());
}
