//! Background refresh worker: pipelined re-mining concurrent with ingestion.
//!
//! A synchronous refresh stalls ingestion for the whole re-mine. The
//! pipeline splits a refresh into a **freeze** on the ingest thread
//! ([`SlidingWindowDatabase::freeze`](crate::SlidingWindowDatabase::freeze),
//! which re-indexes only the changed sequences but clones one `Arc` per
//! live sequence) and the expensive **mine** on a dedicated
//! [`RefreshWorker`] thread ([`IncrementalMiner::refresh_frozen`]), which
//! publishes each result through the shared [`SnapshotCell`]. Ingestion
//! keeps mutating the live window the whole time; the frozen `Arc`-shared
//! indexes are never written through.
//!
//! # Backpressure and coalescing
//!
//! The handoff channel is bounded (capacity 1) and the driver never queues
//! behind a running refresh: [`Pipeline`](crate::Pipeline) freezes and
//! submits only when the worker is idle, and otherwise *coalesces* the
//! trigger — the window's dirty set simply keeps accumulating, so the next
//! accepted freeze covers everything the skipped ones would have. No event
//! is ever lost to coalescing, and memory stays bounded no matter how far
//! ingestion outpaces mining. The policy is observable through
//! [`PipelineStats`]: `coalesced_refreshes`, `events_during_refresh` and
//! the watermark `refresh_lag` between the live window and the latest
//! published snapshot.
//!
//! # Equivalence with synchronous refreshes
//!
//! [`IncrementalMiner::refresh`] *is* freeze + refresh over the
//! frozen view, so a pipelined refresh of a given epoch publishes exactly
//! the snapshot the synchronous path would have published at the same
//! point in the stream (property-tested in `tests/streaming_pipeline.rs`).
//!
//! # Shutdown
//!
//! [`RefreshWorker::shutdown`] lets queued epochs finish (a caller's final
//! refresh is simply its last submitted epoch, see
//! [`Pipeline::finish`](crate::Pipeline::finish)), closes the channel and
//! joins the thread, returning the [`IncrementalMiner`] with all its
//! carried state. Cancelling the
//! [`interval_core::MiningBudget`] token carried by an
//! in-flight job (SIGINT, `--timeout`) makes the refresh terminate at its
//! next budget check, so shutdown never blocks on an unbounded mine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use interval_core::{MiningBudget, Time};

use crate::incremental::IncrementalMiner;
use crate::snapshot::{PatternSnapshot, SnapshotCell};
use crate::window::FrozenView;

/// One refresh epoch handed to the background worker.
#[derive(Debug)]
pub struct RefreshJob {
    /// The frozen window contents to mine.
    pub view: FrozenView,
    /// Budget for this refresh. Its cancellation token is the shutdown
    /// lever: cancelling it stops the refresh at the next budget check.
    pub budget: MiningBudget,
    /// Absolute support threshold for this epoch, when the driver
    /// re-derives it per refresh (fractional thresholds depend on the
    /// frozen sequence count). `None` keeps the miner's current threshold.
    pub min_support: Option<usize>,
}

/// Counters shared between the ingest thread and the worker thread.
#[derive(Debug, Default)]
struct SharedCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    coalesced: AtomicU64,
    events_during_refresh: AtomicU64,
}

/// Point-in-time view of a pipeline's counters. Each field is read from
/// the component that does the work: refresh counters from the
/// [`RefreshWorker`], subscriber counters from the [`SnapshotCell`], WAL
/// fields from the [`Journal`](crate::Journal) and segment fields from the
/// [`SegmentStore`](segment::SegmentStore) (see
/// [`Pipeline::stats`](crate::Pipeline::stats)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Refresh epochs accepted and handed to the worker.
    pub submitted_refreshes: u64,
    /// Refresh epochs the worker finished (and published).
    pub completed_refreshes: u64,
    /// Refresh triggers absorbed into a later epoch because the worker was
    /// still busy. The skipped work is not lost: the live dirty set keeps
    /// accumulating until the next accepted freeze.
    pub coalesced_refreshes: u64,
    /// Events ingested while a refresh was in flight — the throughput the
    /// pipeline won over a synchronous refresh, which would have stalled
    /// exactly these events.
    pub events_during_refresh: u64,
    /// How far (in stream time) the latest published snapshot trails the
    /// live watermark. `None` until both sides have a watermark.
    pub refresh_lag: Option<Time>,
    /// Currently connected snapshot subscribers
    /// ([`SnapshotCell::subscribe`]).
    pub subscribers: u64,
    /// Snapshots enqueued to subscriber channels, summed over connected
    /// subscribers.
    pub subscriber_delivered: u64,
    /// Revisions dropped because a subscriber's bounded queue was full —
    /// the per-subscriber cost of falling behind; publication itself never
    /// blocks.
    pub subscriber_dropped: u64,
    /// Worst current lag (revisions published since the last enqueued one)
    /// across connected subscribers.
    pub subscriber_max_lag: u64,
    /// Write-ahead-log flushes (buffer + fsync) that succeeded — the
    /// journal's `flushes`, at most the shutdown flush. Zero when no WAL
    /// is attached.
    pub wal_flushes: u64,
    /// Sticky degraded flag: the WAL exhausted its write retries and
    /// ingestion continued in-memory only — the journal's `degraded`. Once
    /// set it never clears (see `docs/DURABILITY.md`, "Graceful degradation").
    pub wal_degraded: bool,
    /// Segment files sealed to the cold store — the store's
    /// `segments_sealed`. Zero when no `--segment-dir` is attached (see
    /// `docs/STORAGE.md`).
    pub segments_sealed: u64,
    /// Evicted interval records persisted across all sealed segments.
    pub segment_records: u64,
    /// Bytes written across all sealed segment files (magic + body +
    /// footer + trailer).
    pub segment_bytes: u64,
    /// Seal attempts that failed and degraded the segment store; the WAL
    /// reclaim floor freezes so no durable data is lost.
    pub segment_seal_failures: u64,
}

/// A dedicated background dispatcher thread running [`IncrementalMiner`]
/// refreshes against [`FrozenView`]s while the caller keeps ingesting.
///
/// The dispatcher owns the miner state and mines each accepted epoch
/// itself, on the miner's own thread count
/// ([`IncrementalMiner::new`]): the dispatcher is worker 0 of
/// [`ParallelTpMiner::mine_partitions`](tpminer::ParallelTpMiner::mine_partitions)
/// and any further workers are scoped to the one refresh, so between
/// refreshes a worker keeps one idle thread. Snapshots are bit-identical
/// at every thread count.
///
/// This is a sanctioned spawn site (an `#[expect]` of clippy's
/// `disallowed_methods` lint): it owns the dispatcher thread, and its
/// lifecycle (bounded channel, cancellation, join on shutdown) is the part
/// the lint exists to keep reviewable.
///
/// ```
/// use std::sync::Arc;
/// use interval_core::{MiningBudget, StreamEvent};
/// use stream::{IncrementalMiner, RefreshJob, RefreshWorker, SlidingWindowDatabase, SnapshotCell};
/// use tpminer::MinerConfig;
///
/// let mut window = SlidingWindowDatabase::new(100);
/// let cell = Arc::new(SnapshotCell::new());
/// let miner = IncrementalMiner::new(MinerConfig::with_min_support(1), 1);
/// let worker = RefreshWorker::spawn(miner, Arc::clone(&cell));
///
/// window
///     .ingest(StreamEvent::Interval { sequence: 1, symbol: "a".into(), start: 0, end: 5 })
///     .unwrap();
/// worker.submit(RefreshJob {
///     view: window.freeze(),
///     budget: MiningBudget::unlimited(),
///     min_support: None,
/// });
/// // ...ingestion continues here while the refresh runs...
/// let outcome = worker.shutdown();
/// assert!(outcome.miner.is_some(), "worker joined cleanly");
/// assert_eq!(cell.load().result.len(), 1);
/// ```
pub struct RefreshWorker {
    sender: Option<SyncSender<RefreshJob>>,
    /// Behind a mutex only to make the handle `Sync` (drivers share it as
    /// `Arc<RefreshWorker>` so they can block on it without holding their
    /// own locks); collection itself is non-blocking `try_iter`.
    results: Mutex<Receiver<Arc<PatternSnapshot>>>,
    handle: Option<JoinHandle<IncrementalMiner>>,
    counters: Arc<SharedCounters>,
    cell: Arc<SnapshotCell>,
}

/// What [`RefreshWorker::shutdown`] recovered from the worker thread.
pub struct ShutdownOutcome {
    /// The miner with all its carried state (previous partitions, pending
    /// truncated roots, revision counter). `None` if the worker thread
    /// panicked; the last successfully published snapshot remains valid in
    /// the cell either way.
    pub miner: Option<IncrementalMiner>,
    /// Snapshots completed but not yet collected via
    /// [`RefreshWorker::drain_completed`], in publication order.
    pub unreported: Vec<Arc<PatternSnapshot>>,
    /// Final worker counters ([`RefreshWorker::stats`]), read after the
    /// join (so they include every refresh the worker ever completed).
    /// `refresh_lag` is `None` here —
    /// there is no live watermark to compare against anymore; compare the
    /// last published snapshot with the live window if needed.
    pub stats: PipelineStats,
}

impl RefreshWorker {
    /// Spawns the dispatcher thread. Every refresh it completes is
    /// published into `cell` and also queued for
    /// [`drain_completed`](Self::drain_completed).
    pub fn spawn(miner: IncrementalMiner, cell: Arc<SnapshotCell>) -> Self {
        let (job_tx, job_rx) = mpsc::sync_channel::<RefreshJob>(1);
        let (out_tx, out_rx) = mpsc::channel::<Arc<PatternSnapshot>>();
        let counters = Arc::new(SharedCounters::default());
        let shared = Arc::clone(&counters);
        let publish = Arc::clone(&cell);
        #[expect(
            clippy::disallowed_methods,
            reason = "the pipelined-refresh dispatcher: its bounded channel and join-on-shutdown lifecycle are the one reviewable place a stream thread starts"
        )]
        let handle = std::thread::spawn(move || {
            let mut miner = miner;
            // `recv` drains any buffered job before reporting disconnect,
            // so dropping the sender lets in-flight work finish first.
            while let Ok(job) = job_rx.recv() {
                if let Some(min_support) = job.min_support {
                    miner.set_min_support(min_support);
                }
                let snapshot = miner.refresh_frozen(&job.view, job.budget);
                // Published before it counts as completed, so a caller that
                // sees the worker idle finds the snapshot in the cell.
                publish.store(Arc::clone(&snapshot));
                shared.completed.fetch_add(1, Ordering::Release);
                // The driver may have dropped its receiver during shutdown;
                // the cell already holds the snapshot, so losing the copy
                // here is harmless.
                let _ = out_tx.send(snapshot);
            }
            miner
        });
        Self {
            sender: Some(job_tx),
            results: Mutex::new(out_rx),
            handle: Some(handle),
            counters,
            cell,
        }
    }

    /// Whether a submitted refresh has not completed yet.
    pub fn is_busy(&self) -> bool {
        let submitted = self.counters.submitted.load(Ordering::Acquire);
        let completed = self.counters.completed.load(Ordering::Acquire);
        submitted > completed
    }

    /// Submits a refresh epoch, blocking while the worker still has its
    /// one-deep queue full. An ingest path should only submit to an idle
    /// worker and coalesce otherwise, as [`crate::Pipeline`] does.
    pub fn submit(&self, job: RefreshJob) {
        self.counters.submitted.fetch_add(1, Ordering::Release);
        if let Some(sender) = &self.sender {
            if sender.send(job).is_err() {
                // Worker thread died (it panicked mid-refresh); undo the
                // accounting so `is_busy` doesn't stick. The panic itself
                // surfaces at `shutdown` as `miner: None`.
                self.counters.submitted.fetch_sub(1, Ordering::Release);
            }
        }
    }

    /// Records one coalesced trigger: a refresh was due while another was
    /// still in flight, so the request collapsed into the next epoch
    /// instead of queueing behind it.
    pub(crate) fn note_coalesced(&self) {
        self.counters.coalesced.fetch_add(1, Ordering::Release);
    }

    /// Records `n` events ingested while a refresh was in flight (the
    /// driver calls this from its ingest loop when [`is_busy`](Self::is_busy)).
    pub fn note_events_during_refresh(&self, n: u64) {
        self.counters
            .events_during_refresh
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Completed snapshots not yet collected, in publication order.
    /// Non-blocking.
    pub fn drain_completed(&self) -> Vec<Arc<PatternSnapshot>> {
        self.results
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .try_iter()
            .collect()
    }

    /// The worker's and the cell's counters. `refresh_lag` compares
    /// `live_watermark` (the ingesting window's watermark) against the
    /// latest published snapshot's. The WAL and segment fields are zero:
    /// the worker owns no storage, and [`Pipeline::stats`](crate::Pipeline::stats)
    /// fills them in from the journal and the store.
    pub fn stats(&self, live_watermark: Option<Time>) -> PipelineStats {
        let published = self.cell.load().watermark;
        let refresh_lag = match (live_watermark, published) {
            (Some(live), Some(done)) => Some(live.saturating_sub(done)),
            _ => None,
        };
        let subs = self.cell.subscriber_stats();
        PipelineStats {
            submitted_refreshes: self.counters.submitted.load(Ordering::Acquire),
            completed_refreshes: self.counters.completed.load(Ordering::Acquire),
            coalesced_refreshes: self.counters.coalesced.load(Ordering::Acquire),
            events_during_refresh: self.counters.events_during_refresh.load(Ordering::Relaxed),
            refresh_lag,
            subscribers: subs.subscribers,
            subscriber_delivered: subs.subscriber_delivered,
            subscriber_dropped: subs.subscriber_dropped,
            subscriber_max_lag: subs.subscriber_max_lag,
            ..PipelineStats::default()
        }
    }

    /// Closes the job channel, lets any in-flight or queued refresh finish
    /// (cancel its budget token first to make that prompt), joins the
    /// thread and returns the miner plus any uncollected snapshots.
    pub fn shutdown(mut self) -> ShutdownOutcome {
        self.sender = None; // disconnects the channel; worker loop exits
        let miner = match self.handle.take() {
            Some(handle) => handle.join().ok(),
            None => None,
        };
        let unreported = self.drain_completed();
        let stats = self.stats(None);
        ShutdownOutcome {
            miner,
            unreported,
            stats,
        }
    }
}

impl Drop for RefreshWorker {
    /// Joining on drop keeps the no-detached-threads discipline even on
    /// early-exit paths; pair with a cancelled budget token to bound the
    /// wait.
    fn drop(&mut self) {
        self.sender = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::SlidingWindowDatabase;
    use interval_core::{StreamEvent, Termination};
    use tpminer::MinerConfig;

    fn interval(sequence: u64, symbol: &str, start: i64, end: i64) -> StreamEvent {
        StreamEvent::Interval {
            sequence,
            symbol: symbol.into(),
            start,
            end,
        }
    }

    fn worker(min_support: usize) -> (RefreshWorker, Arc<SnapshotCell>) {
        let cell = Arc::new(SnapshotCell::new());
        let miner = IncrementalMiner::new(MinerConfig::with_min_support(min_support), 1);
        (RefreshWorker::spawn(miner, Arc::clone(&cell)), cell)
    }

    #[test]
    fn background_refresh_publishes_to_the_cell() {
        let (worker, cell) = worker(1);
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        worker.submit(RefreshJob {
            view: w.freeze(),
            budget: MiningBudget::unlimited(),
            min_support: None,
        });
        let outcome = worker.shutdown();
        assert!(outcome.miner.is_some());
        assert_eq!(outcome.unreported.len(), 1);
        assert_eq!(cell.load().revision, 1);
        assert_eq!(cell.load().result.len(), 1);
    }

    #[test]
    fn ingestion_after_freeze_does_not_leak_into_the_epoch() {
        let (worker, cell) = worker(1);
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        let view = w.freeze();
        // Mutate the live window after the freeze; the epoch must not see it.
        w.ingest(interval(1, "b", 1, 6)).unwrap();
        w.ingest(interval(2, "b", 2, 7)).unwrap();
        worker.submit(RefreshJob {
            view,
            budget: MiningBudget::unlimited(),
            min_support: None,
        });
        let outcome = worker.shutdown();
        let snapshot = cell.load();
        assert!(outcome.miner.is_some());
        assert_eq!(snapshot.sequences, 1);
        assert_eq!(snapshot.result.len(), 1, "only the frozen singleton");
        // The post-freeze events stayed in the live window, marked dirty.
        assert_eq!(w.len(), 2);
        assert!(!w.freeze().dirty().is_empty());
    }

    #[test]
    fn cancelled_budget_stops_inflight_refresh_and_joins() {
        let (worker, cell) = worker(1);
        let mut w = SlidingWindowDatabase::new(10_000);
        for seq in 0..6 {
            for (i, sym) in ["a", "b", "c", "d"].iter().enumerate() {
                w.ingest(interval(seq, sym, i as i64, i as i64 + 10))
                    .unwrap();
            }
        }
        let budget = MiningBudget::unlimited();
        let token = budget.token();
        token.cancel(); // cancel *before* the refresh runs: must stop promptly
        worker.submit(RefreshJob {
            view: w.freeze(),
            budget,
            min_support: None,
        });
        let outcome = worker.shutdown();
        assert!(outcome.miner.is_some(), "join after cancellation");
        assert_eq!(cell.load().result.termination(), &Termination::Cancelled);
    }

    #[test]
    fn shutdown_returns_miner_that_continues_incrementally() {
        let (worker, _cell) = worker(1);
        let mut w = SlidingWindowDatabase::new(1_000);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        worker.submit(RefreshJob {
            view: w.freeze(),
            budget: MiningBudget::unlimited(),
            min_support: None,
        });
        let outcome = worker.shutdown();
        let mut miner = match outcome.miner {
            Some(miner) => miner,
            None => panic!("worker must join"),
        };
        assert_eq!(miner.revision(), 1);
        w.ingest(interval(2, "a", 1, 6)).unwrap();
        let snapshot = miner.refresh(&mut w);
        assert_eq!(snapshot.revision, 2);
        assert!(!snapshot.refresh.full, "carried state survived the handoff");
    }

    #[test]
    fn stats_report_refresh_lag_against_published_watermark() {
        let (worker, _cell) = worker(1);
        let mut w = SlidingWindowDatabase::new(1_000);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        w.ingest(StreamEvent::Watermark(10)).unwrap();
        assert_eq!(worker.stats(w.watermark()).refresh_lag, None);
        worker.submit(RefreshJob {
            view: w.freeze(),
            budget: MiningBudget::unlimited(),
            min_support: None,
        });
        w.ingest(StreamEvent::Watermark(25)).unwrap();
        let outcome = worker.shutdown();
        assert!(outcome.miner.is_some());
        // After shutdown the epoch at watermark 10 is published; live is 25.
        let published = outcome.unreported.last().and_then(|s| s.watermark);
        assert_eq!(published, Some(10));
    }

    #[test]
    fn note_events_accumulate() {
        let (worker, _cell) = worker(1);
        worker.note_events_during_refresh(3);
        worker.note_events_during_refresh(4);
        assert_eq!(worker.stats(None).events_during_refresh, 7);
        worker.shutdown();
    }
}
