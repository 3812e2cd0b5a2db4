//! One stream's ingest-to-snapshot loop.
//!
//! A [`Pipeline`] owns the [`SlidingWindowDatabase`], an optional
//! write-ahead [`Journal`], an optional cold [`SegmentStore`] and the
//! background [`RefreshWorker`], and the orderings between them. The
//! `stream` CLI and the server's sessions are thin callers of it.
//!
//! - **Ingest**: journal append, then window ingest, so the log is a
//!   superset of what the window accepted (replay refuses a refused event
//!   identically). A watermark then spills its evictions into the store,
//!   seals once the store's buffer is full, and reclaims the WAL — never
//!   past [`SegmentStore::reclaim_bound`], so WAL + segments hold every
//!   event and a degraded store freezes reclaim.
//! - **Trigger**: [`Trigger`] decides whether the watermark makes a
//!   refresh due. The window is frozen only when the worker is idle; a
//!   busy worker coalesces the trigger into its next epoch.
//! - **Submit**: a due epoch comes back as a [`DueRefresh`], because
//!   submitting can block on the worker's one-deep queue: a caller that
//!   keeps the pipeline behind a lock submits after the lock drops. Each
//!   submit collects the snapshots earlier epochs completed, so none pile
//!   up in the worker.
//! - **Finish** ([`Pipeline::finish`], then [`Finishing::join`]): flush
//!   the WAL, spill the evicted and live intervals and force a seal, so
//!   the segment directory covers every completed interval; then freeze
//!   the final epoch, which covers every event, run it on the worker and
//!   join it. Every refresh, live or final, mines on the worker's
//!   `refresh_workers` threads.
//! - **Stats**: the pipeline keeps no copy of any counter. Each
//!   [`PipelineStats`] field is read, when asked for, from the component
//!   that does the work: the worker, the cell, the journal or the store.

use std::sync::Arc;
use std::time::Duration;

use durability::{StdFs, WalFs};
use interval_core::wire::SupportSpec;
use interval_core::{MiningBudget, StreamEvent, Time};
use segment::{SegmentStats, SegmentStore};
use tpminer::MinerConfig;

use crate::durable::{Journal, JournalStats};
use crate::incremental::IncrementalMiner;
use crate::snapshot::{PatternSnapshot, SnapshotCell};
use crate::window::SlidingWindowDatabase;
use crate::worker::{PipelineStats, RefreshJob, RefreshWorker};

/// How [`Finishing::join`] waits for other holders of the worker handle
/// (a `SYNC` blocked on it) to let go: polls of 1 ms, 30 s in total.
const RECLAIM_POLL: Duration = Duration::from_millis(1);
const RECLAIM_POLL_LIMIT: u32 = 30_000;

/// When a watermark makes a refresh due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every `n`th watermark (0 behaves as 1).
    Every(u64),
    /// Once the published snapshot trails the live watermark by more than
    /// this many time units. A stream that has never published qualifies
    /// at once.
    MaxLag(Time),
}

/// How a [`Pipeline`] mines and when it refreshes.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Mining configuration; its `min_support` is overridden per refresh
    /// by `support`.
    pub miner: MinerConfig,
    /// The support threshold, resolved against the window size at every
    /// freeze.
    pub support: SupportSpec,
    /// When a watermark makes a refresh due.
    pub trigger: Trigger,
    /// Threads each refresh mines on, the dispatcher included (0 behaves
    /// as 1).
    pub refresh_workers: usize,
    /// Cloned into every refresh: its token and deadline stop any of them;
    /// the node cap is shared by all of them together.
    pub budget: MiningBudget,
}

/// What one [`Pipeline::ingest`] did beyond updating the window.
pub struct Ingested {
    /// Set exactly once, on the append that latched WAL degradation.
    pub wal_degraded_now: bool,
    /// A refresh epoch this event made due, to be submitted by the caller.
    pub due: Option<DueRefresh>,
}

/// A refresh epoch frozen from the window, not yet handed to the worker.
#[must_use = "a due refresh does nothing until it is submitted"]
pub struct DueRefresh {
    worker: Arc<RefreshWorker>,
    job: RefreshJob,
}

impl DueRefresh {
    /// Hands the epoch to the worker and returns the snapshots earlier
    /// epochs completed, in publication order. The cell already holds the
    /// newest one; a caller that only reads the cell drops them.
    ///
    /// Blocks while the worker's one-deep queue is full, so call it
    /// without holding any lock.
    pub fn submit(self) -> Vec<Arc<PatternSnapshot>> {
        let completed = self.worker.drain_completed();
        self.worker.submit(self.job);
        completed
    }
}

/// The first half of a pipeline's shutdown: storage is flushed and sealed,
/// and the worker is detached with the final epoch, if any.
#[must_use = "the worker keeps running until the finish is joined"]
pub struct Finishing {
    worker: Arc<RefreshWorker>,
    finale: Option<RefreshJob>,
    /// The journal's and the store's counters after the finishing flush
    /// and seal.
    journal: Option<JournalStats>,
    store: Option<SegmentStats>,
}

/// What a finished pipeline's worker left behind.
#[derive(Debug, Default)]
pub struct Finished {
    /// Snapshots completed since the last submit, in publication order;
    /// the final refresh's snapshot comes last.
    pub snapshots: Vec<Arc<PatternSnapshot>>,
    /// Pipeline counters: the worker's read after it joined, the journal's
    /// and the store's as [`Pipeline::finish`] left them. `refresh_lag` is
    /// `None`: there is no live watermark to compare against anymore.
    pub stats: PipelineStats,
    /// Whether the worker died, or stayed shared past the grace period,
    /// instead of joining. The last published snapshot stands.
    pub worker_failed: bool,
}

impl Finishing {
    /// Runs the final refresh on the worker and joins the worker.
    /// Blocks, so call it without holding any lock.
    pub fn join(self) -> Finished {
        let Finishing {
            worker,
            finale,
            journal,
            store,
        } = self;
        let stats = |worker| read_stats(worker, journal, store.as_ref());
        for _ in 0..RECLAIM_POLL_LIMIT {
            if Arc::strong_count(&worker) == 1 {
                break;
            }
            std::thread::sleep(RECLAIM_POLL);
        }
        let worker = match Arc::try_unwrap(worker) {
            Ok(sole) => sole,
            Err(shared) => {
                return Finished {
                    snapshots: Vec::new(),
                    stats: stats(shared.stats(None)),
                    worker_failed: true,
                }
            }
        };
        if let Some(job) = finale {
            worker.submit(job);
        }
        let outcome = worker.shutdown();
        Finished {
            snapshots: outcome.unreported,
            stats: stats(outcome.stats),
            worker_failed: outcome.miner.is_none(),
        }
    }
}

/// One stream's window, storage and refresh worker, and the loop between
/// them (see the module docs).
pub struct Pipeline<F: WalFs = StdFs> {
    window: SlidingWindowDatabase,
    journal: Option<Journal<F>>,
    store: Option<SegmentStore<F>>,
    /// `None` once [`finish`](Self::finish) has detached it.
    worker: Option<Arc<RefreshWorker>>,
    cell: Arc<SnapshotCell>,
    support: SupportSpec,
    trigger: Trigger,
    budget: MiningBudget,
    watermarks: u64,
}

impl<F: WalFs> Pipeline<F> {
    /// Starts the refresh worker over `window`. With a `store`, the window
    /// keeps what it evicts so the watermark path can spill it.
    pub fn new(
        mut window: SlidingWindowDatabase,
        journal: Option<Journal<F>>,
        store: Option<SegmentStore<F>>,
        config: PipelineConfig,
    ) -> Self {
        if store.is_some() {
            window.retain_evicted(true);
        }
        let cell = Arc::new(SnapshotCell::new());
        // Every refresh mines on `refresh_workers` threads, the dispatcher
        // being one of them; 0 means one, not the host's parallelism.
        let miner = IncrementalMiner::new(config.miner, config.refresh_workers.max(1));
        let worker = RefreshWorker::spawn(miner, Arc::clone(&cell));
        Pipeline {
            window,
            journal,
            store,
            worker: Some(Arc::new(worker)),
            cell,
            support: config.support,
            trigger: config.trigger,
            budget: config.budget,
            watermarks: 0,
        }
    }

    /// The live window.
    pub fn window(&self) -> &SlidingWindowDatabase {
        &self.window
    }

    /// The write-ahead journal, when the stream is durable.
    pub fn journal(&self) -> Option<&Journal<F>> {
        self.journal.as_ref()
    }

    /// The cold segment store, when one is attached.
    pub fn store(&self) -> Option<&SegmentStore<F>> {
        self.store.as_ref()
    }

    /// The cell every refresh publishes into.
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// The refresh worker, until [`finish`](Self::finish) detaches it.
    pub fn worker(&self) -> Option<&Arc<RefreshWorker>> {
        self.worker.as_ref()
    }

    /// Watermarks the window accepted.
    pub fn watermarks(&self) -> u64 {
        self.watermarks
    }

    /// Current pipeline counters, with `refresh_lag` against the live
    /// watermark. Once finished, the refresh and subscriber counters read
    /// zero (the worker is detached; [`Finished::stats`] holds their final
    /// values), while the WAL and segment fields still read the journal
    /// and the store.
    pub fn stats(&self) -> PipelineStats {
        let worker = self
            .worker
            .as_ref()
            .map(|w| w.stats(self.window.watermark()));
        read_stats(
            worker.unwrap_or_default(),
            self.journal.as_ref().map(Journal::stats),
            self.store.as_ref().map(SegmentStore::stats),
        )
    }

    /// Ingests one event (see the module docs for the order of steps).
    /// `Err` is the window's refusal; the event was journaled anyway and
    /// the pipeline stays usable.
    pub fn ingest(&mut self, event: StreamEvent) -> interval_core::Result<Ingested> {
        let wal_degraded_now = self.journal.as_mut().is_some_and(|journal| {
            let was_degraded = journal.is_degraded();
            !journal.append(&event) && !was_degraded
        });
        let is_watermark = matches!(event, StreamEvent::Watermark(_));
        self.window.ingest(event)?;
        if let Some(worker) = &self.worker {
            if worker.is_busy() {
                worker.note_events_during_refresh(1);
            }
        }
        let mut due = None;
        if is_watermark {
            self.watermarks += 1;
            if let Some(cutoff) = self.window.cutoff() {
                self.spill(false);
                let bound = match self.store.as_mut() {
                    Some(store) => {
                        store.maybe_seal();
                        store.reclaim_bound(cutoff)
                    }
                    None => cutoff,
                };
                if let Some(journal) = self.journal.as_mut() {
                    journal.reclaim(bound);
                }
            }
            if self.is_due() {
                due = self.freeze_unless_busy();
            }
        }
        Ok(Ingested {
            wal_degraded_now,
            due,
        })
    }

    /// Freezes an epoch covering everything ingested so far, whether or
    /// not the worker is busy (the submit then waits for its queue).
    /// `None` once finished.
    pub fn refresh_now(&mut self) -> Option<DueRefresh> {
        let worker = Arc::clone(self.worker.as_ref()?);
        Some(DueRefresh {
            worker,
            job: self.freeze(),
        })
    }

    /// Flushes the WAL, spills every evicted and live interval into the
    /// store and force-seals it, then detaches the worker, with the final
    /// epoch when `final_refresh` is set. [`Finishing::join`] does the
    /// blocking half. `None`, touching nothing, when already finished.
    pub fn finish(&mut self, final_refresh: bool) -> Option<Finishing> {
        let worker = self.worker.take()?;
        // A failed flush degrades the journal, and its stats say so.
        if let Some(journal) = self.journal.as_mut() {
            journal.flush();
        }
        // The window's contents will never be evicted now: persist them
        // too, so the segment directory covers every completed interval.
        self.spill(true);
        if let Some(store) = self.store.as_mut() {
            store.seal();
        }
        let finale = final_refresh.then(|| self.freeze());
        Some(Finishing {
            worker,
            finale,
            journal: self.journal.as_ref().map(Journal::stats),
            store: self.store.as_ref().map(|store| store.stats().clone()),
        })
    }

    #[expect(
        clippy::manual_is_multiple_of,
        reason = "u64::is_multiple_of needs Rust 1.87; the `%` form builds on older toolchains"
    )]
    fn is_due(&self) -> bool {
        match self.trigger {
            Trigger::Every(n) => self.watermarks % n.max(1) == 0,
            Trigger::MaxLag(bound) => match (self.window.watermark(), self.cell.load().watermark) {
                (Some(live), Some(done)) => live.saturating_sub(done) > bound,
                (Some(_), None) => true,
                (None, _) => false,
            },
        }
    }

    /// A busy worker coalesces the trigger: no freeze, so the window's
    /// dirty set keeps accumulating into the next accepted epoch.
    fn freeze_unless_busy(&mut self) -> Option<DueRefresh> {
        let worker = self.worker.as_ref()?;
        if worker.is_busy() {
            worker.note_coalesced();
            return None;
        }
        self.refresh_now()
    }

    fn freeze(&mut self) -> RefreshJob {
        RefreshJob {
            min_support: Some(self.support.absolute_for(self.window.len())),
            view: self.window.freeze(),
            budget: self.budget.clone(),
        }
    }

    /// Moves what the window evicted (or dropped late) into the store —
    /// with `live`, also every completed interval it still holds.
    fn spill(&mut self, live: bool) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let evicted = self.window.take_evicted();
        let window = &self.window;
        let live = live
            .then(|| window.completed_intervals())
            .into_iter()
            .flatten();
        for (sequence, iv) in evicted.into_iter().chain(live) {
            store.append(sequence, window.symbols().name(iv.symbol), iv.start, iv.end);
        }
    }
}

/// Every [`PipelineStats`] field, read from its owner: `worker` carries the
/// refresh and subscriber counters ([`RefreshWorker::stats`]), the journal
/// the WAL fields and the store the segment fields.
fn read_stats(
    worker: PipelineStats,
    journal: Option<JournalStats>,
    store: Option<&SegmentStats>,
) -> PipelineStats {
    let journal = journal.unwrap_or_default();
    let store = store.cloned().unwrap_or_default();
    PipelineStats {
        wal_flushes: journal.flushes,
        wal_degraded: journal.degraded,
        segments_sealed: store.segments_sealed,
        segment_records: store.records_sealed,
        segment_bytes: store.bytes_sealed,
        segment_seal_failures: store.seal_failures,
        ..worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durability::{FaultPlan, FaultyFs, FsyncPolicy, RetryPolicy, WalOptions, WalWriter};
    use segment::SegmentOptions;

    /// Bytes each disk of the live-stats test takes before it dies.
    const WAL_DISK_BYTES: u64 = 700;
    const SEGMENT_DISK_BYTES: u64 = 600;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "stream-pipeline-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn interval(sequence: u64, symbol: &str, start: Time, end: Time) -> StreamEvent {
        StreamEvent::Interval {
            sequence,
            symbol: symbol.into(),
            start,
            end,
        }
    }

    fn config(budget: MiningBudget) -> PipelineConfig {
        PipelineConfig {
            miner: MinerConfig::with_min_support(1),
            support: SupportSpec::Absolute(1),
            trigger: Trigger::Every(1),
            refresh_workers: 1,
            budget,
        }
    }

    fn tiny_seals() -> SegmentOptions {
        SegmentOptions {
            seal_bytes: 1,
            retry: RetryPolicy::none(),
        }
    }

    #[test]
    fn refused_event_is_still_journaled() {
        let dir = temp_dir("refused");
        let journal = Journal::open(dir.join("wal"), 100, FsyncPolicy::Always).unwrap();
        let mut pipeline: Pipeline = Pipeline::new(
            SlidingWindowDatabase::new(100),
            Some(journal),
            None,
            config(MiningBudget::unlimited()),
        );
        // A close without its open: write-ahead logged, then refused.
        let refused = pipeline.ingest(StreamEvent::Close {
            sequence: 1,
            symbol: "x".into(),
            at: 5,
        });
        assert!(refused.is_err());
        let journal = pipeline.journal().unwrap();
        assert_eq!(journal.stats().wal.records_appended, 1);
        assert!(pipeline.window().is_empty());
        let finished = pipeline.finish(true).unwrap().join();
        assert!(!finished.worker_failed);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Slides a window of 10 over 30 epochs with one interval per epoch
    /// and returns how many WAL segments were reclaimed.
    fn reclaimed_with_store(plan: FaultPlan) -> (u64, bool) {
        let dir = temp_dir("reclaim");
        let mut opts = WalOptions::new(10);
        opts.policy = FsyncPolicy::Never;
        let wal = WalWriter::open_with(FaultyFs::new(FaultPlan::default()), dir.join("wal"), opts)
            .unwrap();
        let store =
            SegmentStore::open_with(FaultyFs::new(plan), dir.join("seg"), tiny_seals()).unwrap();
        let mut pipeline = Pipeline::new(
            SlidingWindowDatabase::new(10),
            Some(Journal::with_wal(wal)),
            Some(store),
            config(MiningBudget::unlimited()),
        );
        for epoch in 0..30i64 {
            let t = epoch * 10;
            pipeline
                .ingest(interval(epoch as u64, "a", t, t + 5))
                .unwrap();
            let ingested = pipeline.ingest(StreamEvent::Watermark(t + 9)).unwrap();
            if let Some(due) = ingested.due {
                due.submit();
            }
        }
        let reclaimed = pipeline.journal().unwrap().stats().wal.segments_reclaimed;
        let degraded = pipeline.store().unwrap().is_degraded();
        pipeline.finish(false).unwrap().join();
        std::fs::remove_dir_all(&dir).ok();
        (reclaimed, degraded)
    }

    #[test]
    fn reclaim_never_passes_the_bound_while_the_store_is_degraded() {
        let (healthy, degraded) = reclaimed_with_store(FaultPlan::default());
        assert!(!degraded);
        assert!(healthy > 0, "a healthy store lets the WAL reclaim");
        let (frozen, degraded) = reclaimed_with_store(FaultPlan {
            fail_syncs: u32::MAX,
            ..FaultPlan::default()
        });
        assert!(degraded, "every seal fails");
        assert_eq!(frozen, 0, "nothing sealed, so nothing may be reclaimed");
    }

    /// Every WAL and segment field of [`Pipeline::stats`] equals the
    /// journal's or the store's own counter.
    fn assert_stats_read_their_owners(pipeline: &Pipeline<FaultyFs>, stats: &PipelineStats) {
        let journal = pipeline.journal().unwrap().stats();
        let store = pipeline.store().unwrap().stats();
        assert_eq!(stats.wal_flushes, journal.flushes);
        assert_eq!(stats.wal_degraded, journal.degraded);
        assert_eq!(stats.segments_sealed, store.segments_sealed);
        assert_eq!(stats.segment_records, store.records_sealed);
        assert_eq!(stats.segment_bytes, store.bytes_sealed);
        assert_eq!(stats.segment_seal_failures, store.seal_failures);
    }

    #[test]
    fn live_stats_read_the_journal_and_the_store_at_every_step() {
        let dir = temp_dir("live");
        let mut opts = WalOptions::new(10);
        opts.policy = FsyncPolicy::Always;
        opts.retry = RetryPolicy::none();
        // Both disks die part-way through the run: the store's after a few
        // seals, the WAL's a few epochs later.
        let dies_after = |bytes| {
            FaultyFs::new(FaultPlan {
                crash_after_bytes: Some(bytes),
                ..FaultPlan::default()
            })
        };
        let wal = WalWriter::open_with(dies_after(WAL_DISK_BYTES), dir.join("wal"), opts).unwrap();
        let store = SegmentStore::open_with(
            dies_after(SEGMENT_DISK_BYTES),
            dir.join("seg"),
            tiny_seals(),
        )
        .unwrap();
        let mut pipeline = Pipeline::new(
            SlidingWindowDatabase::new(10),
            Some(Journal::with_wal(wal)),
            Some(store),
            config(MiningBudget::unlimited()),
        );
        let mut degraded_at = None;
        for epoch in 0..20i64 {
            let t = epoch * 10;
            let events = [
                interval(epoch as u64, "a", t, t + 5),
                StreamEvent::Watermark(t + 9),
            ];
            for event in events {
                let ingested = pipeline.ingest(event).unwrap();
                if ingested.wal_degraded_now {
                    assert!(degraded_at.is_none(), "degradation is reported once");
                    degraded_at = Some(epoch);
                }
                if let Some(due) = ingested.due {
                    due.submit();
                }
                assert_stats_read_their_owners(&pipeline, &pipeline.stats());
            }
        }
        let store = pipeline.store().unwrap().stats().clone();
        assert!(
            store.segments_sealed > 0,
            "seals succeed before the disk dies"
        );
        assert_eq!(store.seal_failures, 1, "the failed seal degrades the store");
        let degraded_at = degraded_at.expect("the WAL degrades mid-run");
        assert!(degraded_at > 0 && degraded_at < 19, "{degraded_at}");

        let finishing = pipeline.finish(true).unwrap();
        assert_stats_read_their_owners(&pipeline, &pipeline.stats());
        let finished = finishing.join();
        assert!(!finished.worker_failed);
        assert_stats_read_their_owners(&pipeline, &finished.stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn busy_worker_coalesces_without_freezing() {
        let budget = MiningBudget::unlimited();
        let token = budget.token();
        let mut pipeline: Pipeline = Pipeline::new(
            SlidingWindowDatabase::new(1_000),
            None,
            None,
            config(budget),
        );
        // Thirty mutually overlapping intervals at support 1: 2^30
        // patterns, so the first refresh runs until the token cancels it.
        for i in 0..30i64 {
            pipeline
                .ingest(interval(0, &format!("s{i}"), i, 100 + i))
                .unwrap();
        }
        let due = pipeline.ingest(StreamEvent::Watermark(1)).unwrap().due;
        due.expect("an idle worker takes the first epoch").submit();
        assert!(pipeline.worker().unwrap().is_busy());

        pipeline.ingest(interval(1, "late", 0, 2)).unwrap();
        let ingested = pipeline.ingest(StreamEvent::Watermark(2)).unwrap();
        assert!(ingested.due.is_none(), "a busy worker coalesces");
        let stats = pipeline.stats();
        assert_eq!(stats.coalesced_refreshes, 1);
        assert_eq!(stats.submitted_refreshes, 1);
        // No freeze happened: the coalesced event is still dirty and lands
        // in the next epoch.
        let late = pipeline.window().symbols().lookup("late").unwrap();
        let next = pipeline.refresh_now().unwrap();
        assert!(next.job.view.dirty().contains(&late));
        drop(next);

        token.cancel();
        let finished = pipeline.finish(false).unwrap().join();
        assert!(!finished.worker_failed);
    }

    #[test]
    fn second_finish_spills_nothing() {
        let dir = temp_dir("finish");
        let store = SegmentStore::open(&dir, SegmentOptions::default()).unwrap();
        let mut pipeline: Pipeline = Pipeline::new(
            SlidingWindowDatabase::new(10),
            None,
            Some(store),
            config(MiningBudget::unlimited()),
        );
        pipeline.ingest(interval(1, "a", 0, 5)).unwrap();
        pipeline.ingest(interval(2, "b", 12, 18)).unwrap();
        // Evicts "a" (cutoff 10); "b" stays live.
        let due = pipeline.ingest(StreamEvent::Watermark(20)).unwrap().due;
        due.unwrap().submit();

        let finished = pipeline.finish(true).unwrap().join();
        let sealed = pipeline.store().unwrap().stats().clone();
        assert_eq!(sealed.records_sealed, 2, "evicted + live, sealed once");
        assert_eq!(
            finished.stats.segments_sealed, sealed.segments_sealed,
            "the finishing seal is counted by the pipeline"
        );
        let last = finished.snapshots.last().expect("the final refresh");
        assert_eq!(last.revision, pipeline.cell().load().revision);

        assert!(pipeline.finish(true).is_none());
        let store = pipeline.store().unwrap();
        assert_eq!(store.stats().records_sealed, sealed.records_sealed);
        assert_eq!(store.pending_records(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
