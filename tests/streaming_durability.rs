//! Crash-safety properties of the streaming durability tier, end to end:
//!
//! - **recovery-by-replay at every crash point**: a journaled stream is
//!   crashed (via the fault-injecting filesystem) after an arbitrary
//!   number of bytes, and the replayed window must be bit-identical — same
//!   contents, open intervals, watermark, ingest counters, and *mined
//!   snapshot* — to a shadow run over the events whose frames fully
//!   reached the disk;
//! - **fsync exhaustion degrades, never truncates**: when the disk refuses
//!   every fsync, the journal latches its sticky degraded flag, the
//!   pipeline surfaces it in [`stream::PipelineStats`], and the in-memory
//!   window still holds every ingested event;
//! - **a seal crash in combination**: with the WAL and the segment store
//!   on fault-injecting disks, the store's disk dies at any byte of its
//!   seals while ingestion goes on, WAL reclaim included; after reopen and
//!   replay, every accepted interval is in the WAL or in a sealed segment,
//!   and the replayed window equals a shadow that never crashed;
//! - **committed fixtures**: real WAL files with a torn tail and with a
//!   flipped bit (under `tests/fixtures/wal/`) recover with exactly the
//!   documented semantics, so the on-disk format cannot drift silently.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{drifting_ops, ops, prop, window_contents, Op};
use durability::{
    frame_record, scan_wal, FaultPlan, FaultyFs, FsyncPolicy, RetryPolicy, StdFs, WalOptions,
    WalWriter,
};
use interval_core::wire::SupportSpec;
use interval_core::{MiningBudget, SequenceId, StreamEvent, Time};
use segment::{ParsedSegment, SegmentOptions, SegmentStore};
use stream::{
    durable, IncrementalMiner, Journal, Pipeline, PipelineConfig, SlidingWindowDatabase, Trigger,
};
use tpminer::MinerConfig;

/// The sliding-window length every test here uses.
const WINDOW: Time = 20;

/// A pipeline that refreshes at absolute support `min_support`.
fn pipeline_config(min_support: usize) -> PipelineConfig {
    PipelineConfig {
        miner: MinerConfig::with_min_support(min_support),
        support: SupportSpec::Absolute(min_support),
        trigger: Trigger::Every(1),
        refresh_workers: 1,
        budget: MiningBudget::unlimited(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ptpminer-durability-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The mined snapshot of a window, rendered — the strongest equality we can
/// assert without reaching into miner internals.
fn mined(window: &mut SlidingWindowDatabase) -> String {
    let mut miner = IncrementalMiner::new(MinerConfig::with_min_support(2), 0);
    miner.refresh(window).render()
}

/// For *every* crash offset: journal a run onto a disk that dies after
/// `crash_after` bytes, replay the surviving log, and require the
/// recovered window to match a shadow ingest of exactly the events
/// whose frames fully reached the disk. `FsyncPolicy::Always` writes
/// frame-by-frame (and the segment never rotates), so the durable file
/// is byte-for-byte the first `crash_after` bytes of the framed run —
/// the durable prefix is computable in the test, not guessed.
#[test]
fn replay_at_any_crash_point_matches_the_uncrashed_shadow() {
    let generate = |rng: &mut _| (ops(rng), rng.range(0.0f64..1.0));
    prop::check(64, generate, |(run, frac)| {
        let events: Vec<StreamEvent> = run.iter().map(Op::event).collect();

        // Frame the whole run once to learn where each record's bytes end.
        let mut frame_ends = Vec::with_capacity(events.len());
        let mut framed = Vec::new();
        for event in &events {
            frame_record(event, &mut framed);
            frame_ends.push(framed.len() as u64);
        }
        let total = framed.len() as u64;
        let crash_after = ((frac * total as f64) as u64).min(total);
        // Events whose final byte landed on disk before it died.
        let durable = frame_ends.iter().filter(|&&end| end <= crash_after).count();

        let dir = temp_dir("crash");
        let fs = FaultyFs::new(FaultPlan {
            crash_after_bytes: Some(crash_after),
            ..FaultPlan::default()
        });
        let mut opts = WalOptions::new(Time::MAX);
        opts.policy = FsyncPolicy::Always;
        opts.retry = RetryPolicy::none();
        let mut journal = Journal::with_wal(WalWriter::open_with(fs, &dir, opts).unwrap());

        let mut live = SlidingWindowDatabase::new(WINDOW);
        for event in &events {
            journal.append(event); // may degrade mid-run; ingestion continues
            live.ingest(event.clone()).unwrap();
        }
        assert_eq!(live.stats().events, events.len() as u64);

        // Recover from the torn log and shadow-ingest the durable prefix.
        let outcome = durable::replay(&dir, WINDOW).unwrap();
        assert!(outcome.report.is_clean(), "a torn tail is not corruption");
        assert_eq!(outcome.records_rejected, 0);
        assert_eq!(outcome.report.records_replayed, durable as u64);
        let tail_start = if durable == 0 {
            0
        } else {
            frame_ends[durable - 1]
        };
        assert_eq!(outcome.report.torn_tail_bytes, crash_after - tail_start);

        let mut shadow = SlidingWindowDatabase::new(WINDOW);
        for event in &events[..durable] {
            shadow.ingest(event.clone()).unwrap();
        }

        let mut recovered = outcome.window;
        assert_eq!(recovered.watermark(), shadow.watermark());
        assert_eq!(recovered.len(), shadow.len());
        assert_eq!(recovered.open_intervals(), shadow.open_intervals());
        assert_eq!(recovered.stats(), shadow.stats());
        assert_eq!(window_contents(&recovered), window_contents(&shadow));
        assert_eq!(mined(&mut recovered), mined(&mut shadow));

        std::fs::remove_dir_all(&dir).ok();
    });
}

/// One completed interval, as the WAL and the segments both record it.
type Record = (SequenceId, String, Time, Time);

/// What [`durable_run`] left behind.
struct DurableRun {
    dir: PathBuf,
    /// The intervals the pipeline accepted.
    accepted: Vec<Record>,
    /// Bytes the store's disk took: segment files and manifest lines.
    store_bytes: u64,
}

/// Runs `events` through a pipeline that journals to a WAL (fsync on every
/// append) and seals into a segment store once `seal_bytes` are buffered,
/// each on its own fault-injecting disk, then finishes it cleanly.
fn durable_run(events: &[StreamEvent], seal_bytes: usize, store_plan: FaultPlan) -> DurableRun {
    let dir = temp_dir("seal-crash");
    let mut opts = WalOptions::new(WINDOW);
    opts.policy = FsyncPolicy::Always;
    opts.retry = RetryPolicy::none();
    let wal_fs = FaultyFs::new(FaultPlan::default());
    let wal = WalWriter::open_with(wal_fs, dir.join("wal"), opts).unwrap();
    let store_fs = FaultyFs::new(store_plan);
    let seals = SegmentOptions {
        seal_bytes,
        retry: RetryPolicy::none(),
    };
    let store = SegmentStore::open_with(store_fs.clone(), dir.join("seg"), seals).unwrap();
    let mut pipeline = Pipeline::new(
        SlidingWindowDatabase::new(WINDOW),
        Some(Journal::with_wal(wal)),
        Some(store),
        pipeline_config(2),
    );
    let mut accepted = Vec::new();
    for event in events {
        let Ok(ingested) = pipeline.ingest(event.clone()) else {
            continue;
        };
        if let StreamEvent::Interval {
            sequence,
            symbol,
            start,
            end,
        } = event
        {
            accepted.push((*sequence, symbol.clone(), *start, *end));
        }
        if let Some(due) = ingested.due {
            due.submit();
        }
    }
    assert!(!pipeline.journal().unwrap().is_degraded());
    let finished = pipeline.finish(false).unwrap().join();
    assert!(!finished.worker_failed);
    DurableRun {
        dir,
        accepted,
        store_bytes: store_fs.bytes_written(),
    }
}

/// The intervals a segment directory holds after a reopen has recovered
/// it (partial segments deleted, orphans adopted).
fn sealed_records(dir: &Path) -> Vec<Record> {
    let store = SegmentStore::open(dir, SegmentOptions::default()).unwrap();
    let mut records = Vec::new();
    for meta in store.segments() {
        let bytes = std::fs::read(dir.join(&meta.file)).unwrap();
        let parsed = ParsedSegment::parse(&bytes).unwrap();
        for entry in &parsed.footer.sequences {
            parsed
                .visit_records(entry, |symbol, start, end| {
                    records.push((entry.sequence, symbol.to_owned(), start, end));
                })
                .unwrap();
        }
    }
    records
}

/// The store's disk dies at byte `k` of its seals while ingestion goes on
/// past the failed seal's watermark, WAL reclaim included: the degraded
/// store must freeze reclaim below every interval it failed to seal. After
/// reopen and replay, no accepted interval is
/// lost from both the WAL and the segments, no segment holds an interval
/// that was never accepted, and the replayed window holds what a shadow
/// window that ingested the same events without any storage holds. (Its
/// mined patterns are not compared as text: once the WAL's head is
/// reclaimed, replay interns the symbols in another order.)
#[test]
fn a_seal_crash_loses_no_accepted_interval_and_replays_the_shadow() {
    let generate = |rng: &mut _| {
        (
            drifting_ops(rng),
            rng.range(1usize..400),
            rng.range(0.0f64..1.0),
        )
    };
    prop::check(48, generate, |(run, seal_bytes, frac)| {
        let events: Vec<StreamEvent> = run.iter().map(Op::event).collect();
        // An uncrashed run measures how many bytes this run's seals write.
        let probe = durable_run(&events, seal_bytes, FaultPlan::default());
        std::fs::remove_dir_all(&probe.dir).ok();
        let crash_after = (frac * probe.store_bytes as f64) as u64;
        let crashed = durable_run(
            &events,
            seal_bytes,
            FaultPlan {
                crash_after_bytes: Some(crash_after),
                ..FaultPlan::default()
            },
        );
        assert_eq!(crashed.accepted, probe.accepted);

        let sealed = sealed_records(&crashed.dir.join("seg"));
        let (logged, _) = scan_wal(&StdFs, &crashed.dir.join("wal")).unwrap();
        let mut durable: BTreeSet<Record> = sealed.iter().cloned().collect();
        for event in logged {
            if let StreamEvent::Interval {
                sequence,
                symbol,
                start,
                end,
            } = event
            {
                durable.insert((sequence, symbol, start, end));
            }
        }
        for record in &crashed.accepted {
            assert!(
                durable.contains(record),
                "accepted interval {record:?} is in neither the WAL nor a segment \
                 (store disk died after {crash_after} of {} bytes)",
                probe.store_bytes
            );
        }
        let accepted: BTreeSet<&Record> = crashed.accepted.iter().collect();
        for record in &sealed {
            assert!(
                accepted.contains(record),
                "sealed {record:?} never accepted"
            );
        }

        let mut shadow = SlidingWindowDatabase::new(WINDOW);
        for event in &events {
            let _ = shadow.ingest(event.clone());
        }
        let recovered = durable::replay(crashed.dir.join("wal"), WINDOW)
            .unwrap()
            .window;
        assert_eq!(recovered.watermark(), shadow.watermark());
        assert_eq!(recovered.open_intervals(), shadow.open_intervals());
        assert_eq!(window_contents(&recovered), window_contents(&shadow));
        std::fs::remove_dir_all(&crashed.dir).ok();
    });
}

#[test]
fn fsync_exhaustion_degrades_the_pipeline_without_losing_events() {
    let dir = temp_dir("fsync");
    let fs = FaultyFs::new(FaultPlan {
        fail_syncs: u32::MAX,
        ..FaultPlan::default()
    });
    let mut opts = WalOptions::new(WINDOW);
    opts.policy = FsyncPolicy::Always; // every append must fsync — and fail
    opts.retry = RetryPolicy::none();
    let mut journal = Journal::with_wal(WalWriter::open_with(fs, &dir, opts).unwrap());

    let mut window = SlidingWindowDatabase::new(WINDOW);
    for seq in 0..6u64 {
        let event = StreamEvent::Interval {
            sequence: seq,
            symbol: "fever".into(),
            start: seq as Time,
            end: seq as Time + 4,
        };
        journal.append(&event);
        window.ingest(event).unwrap();
    }
    window.ingest(StreamEvent::Watermark(10)).unwrap();

    // Degraded on the very first exhausted fsync; nothing in memory lost.
    assert!(journal.is_degraded());
    assert_eq!(window.len(), 6, "every sequence survives in memory");
    assert_eq!(window.stats().events, 7);

    // The pipelined shutdown path surfaces the degradation (and the absent
    // flush) through the worker's stats — what the CLI prints and maps to
    // exit code 5.
    let mut pipeline = Pipeline::new(window, Some(journal), None, pipeline_config(2));
    let outcome = pipeline.finish(false).unwrap().join();
    let journal = pipeline.journal().unwrap();
    assert!(
        outcome.stats.wal_degraded,
        "sticky flag must reach the stats"
    );
    assert_eq!(
        outcome.stats.wal_flushes, 0,
        "a degraded flush must not count"
    );
    assert_eq!(journal.stats().flushes, 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// The healthy counterpart: a clean shutdown flush is counted.
#[test]
fn pipeline_shutdown_flushes_the_journal() {
    let dir = temp_dir("clean-shutdown");
    let mut journal = Journal::open(&dir, WINDOW, FsyncPolicy::Epoch).unwrap();
    let mut window = SlidingWindowDatabase::new(WINDOW);
    let event = StreamEvent::Interval {
        sequence: 1,
        symbol: "fever".into(),
        start: 0,
        end: 5,
    };
    journal.append(&event);
    window.ingest(event).unwrap();

    let mut pipeline = Pipeline::new(window, Some(journal), None, pipeline_config(1));
    let outcome = pipeline.finish(false).unwrap().join();
    assert!(!outcome.stats.wal_degraded);
    assert_eq!(
        outcome.stats.wal_flushes, 1,
        "the shutdown flush is recorded"
    );

    // And the flushed log replays the event.
    let replayed = durable::replay(&dir, WINDOW).unwrap();
    assert!(replayed.report.is_clean());
    assert_eq!(replayed.window.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wal")
        .join(name)
}

/// The committed torn-tail fixture: three clean frames, then 21 bytes of a
/// frame that never finished. A torn tail is the normal crash signature —
/// recovery truncates it and reports the log clean.
#[test]
fn committed_torn_tail_fixture_recovers_clean() {
    let outcome = durable::replay(fixture("torn_tail"), WINDOW).unwrap();
    assert!(outcome.report.is_clean());
    assert_eq!(outcome.report.records_replayed, 3);
    assert_eq!(outcome.report.torn_tail_bytes, 21);
    assert_eq!(outcome.report.records_dropped, 0);
    assert_eq!(outcome.records_rejected, 0);
    assert_eq!(outcome.window.watermark(), Some(12));
    assert_eq!(outcome.window.len(), 2, "sequences 1 and 2 replayed");
}

/// The committed bit-flip fixture: the second frame's payload has one bit
/// flipped, so its checksum no longer matches. Recovery must stop at the
/// last trustworthy record and account for everything it refused.
#[test]
fn committed_bit_flip_fixture_stops_at_corruption() {
    let outcome = durable::replay(fixture("bit_flip"), WINDOW).unwrap();
    assert!(!outcome.report.is_clean());
    assert_eq!(outcome.report.records_replayed, 1);
    // The flipped frame itself is accounted in `bytes_dropped` (its payload
    // is untrustworthy); `records_dropped` counts the still-well-formed
    // frames the scanner resynced past after it.
    assert_eq!(
        outcome.report.records_dropped, 1,
        "the frame after the flipped one"
    );
    assert_eq!(
        outcome.report.bytes_dropped, 62,
        "flipped frame + everything after"
    );
    let corruption = outcome.report.corruption.as_ref().expect("flip detected");
    assert_eq!(corruption.offset, 46, "first byte of the flipped frame");
    assert!(
        corruption.reason.contains("CRC mismatch"),
        "{}",
        corruption.reason
    );
    assert_eq!(outcome.window.len(), 1, "only the intact prefix is trusted");
    assert_eq!(
        outcome.window.watermark(),
        None,
        "the dropped watermark never lands"
    );
}
