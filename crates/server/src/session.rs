//! One tenant's stream: a [`Pipeline`] behind a lock, plus the read path.
//!
//! A [`StreamSession`] is the unit of multi-tenancy. Its mutable ingest
//! state — the [`Pipeline`] owning window, worker, journal and segment
//! store — sits behind one mutex taken by
//! writers — `EVENT`, `BATCH`, `SYNC`, `DROP` — while the *read path* goes
//! straight to the shared [`SnapshotCell`]: `QUERY` clones the latest
//! published `Arc<PatternSnapshot>` and never touches the ingest lock, so
//! queries cannot block ingestion (and ingestion cannot block queries
//! beyond the cell's pointer swap).
//!
//! # Recovery by replay
//!
//! A durable session whose WAL directory already exists is rebuilt with
//! [`stream::durable::replay`] *before* it goes live: the recovered window
//! carries the same contents, watermark and ingest counters the pre-crash
//! window had over the durable prefix, and the journal then resumes in a
//! fresh segment after the sealed ones. An initial refresh is submitted so
//! the first `QUERY` after recovery already sees the recovered patterns.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use interval_core::wire::{CreateSpec, SupportSpec};
use interval_core::{MiningBudget, StreamEvent, SymbolId, Time};
use segment::{SegmentOptions, SegmentReader, SegmentStore};
use stream::{
    Finished, Finishing, FrozenView, IncrementalMiner, Journal, JournalStats, PatternSnapshot,
    Pipeline, PipelineConfig, PipelineStats, RefreshWorker, SlidingWindowDatabase, SnapshotCell,
    SnapshotSubscriber, Trigger,
};
use tpminer::MinerConfig;

use crate::{ServerConfig, StreamDrain};

/// How long [`StreamSession::sync`] waits for the worker before deciding
/// it is unresponsive (a dead worker never completes its epoch).
const SYNC_POLL: Duration = Duration::from_millis(1);
const SYNC_POLL_LIMIT: u32 = 30_000;

/// Wall-clock budget for one `HISTORY` request, so a huge cold range
/// cannot pin a connection thread forever.
const HISTORY_DEADLINE: Duration = Duration::from_secs(30);

/// What `CREATE` found when it opened the session.
#[derive(Debug, Clone, Default)]
pub struct CreateOutcome {
    /// Whether the session journals to a WAL directory.
    pub durable: bool,
    /// Events replayed from a pre-existing WAL (0 for a fresh stream).
    pub recovered_events: u64,
    /// Records that decoded but were refused by ingest semantics on replay.
    pub recovered_rejected: u64,
    /// The recovered window's watermark, if any.
    pub recovered_watermark: Option<Time>,
    /// Whether the replayed log was corruption-free (torn tails are clean).
    pub replay_clean: bool,
}

/// The result of ingesting one event.
#[derive(Debug, Clone, Copy)]
pub struct IngestAck {
    /// Whether the window accepted the event.
    pub accepted: bool,
    /// Set exactly once, on the append that latched WAL degradation.
    pub degraded_now: bool,
}

/// One frequent pattern prepared for the wire: support + rendered form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLine {
    /// Exact support in the snapshot's window.
    pub support: usize,
    /// The pattern in the same textual form the offline miner prints.
    pub pattern: String,
}

/// One line of a snapshot's ranked listing, with the root symbol `PREFIX`
/// filters on.
#[derive(Debug)]
struct RankedLine {
    root: Option<SymbolId>,
    line: QueryLine,
}

/// A consistent read served from one published snapshot.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Snapshot revision the reply was computed from.
    pub revision: u64,
    /// The snapshot's watermark.
    pub watermark: Option<Time>,
    /// Sequences in the mined window.
    pub sequences: usize,
    /// Matching patterns, sorted by descending support then pattern text.
    pub lines: Vec<QueryLine>,
}

/// Point-in-time statistics for one stream.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Stream name.
    pub name: String,
    /// Events accepted since creation (including replayed ones).
    pub events: u64,
    /// Watermarks observed.
    pub watermarks: u64,
    /// Sequences currently in the live window.
    pub sequences: usize,
    /// Open (unclosed) intervals in the live window.
    pub open_intervals: usize,
    /// Revision of the latest published snapshot.
    pub revision: u64,
    /// Patterns in the latest published snapshot.
    pub patterns: usize,
    /// Pipeline counters, with `refresh_lag` against the live watermark.
    pub pipeline: PipelineStats,
    /// Journal counters when the stream is durable.
    pub journal: Option<JournalStats>,
    /// `QUERY` requests served from this stream.
    pub queries: u64,
}

/// One named stream session. See the module docs for the locking story.
pub struct StreamSession {
    name: String,
    cell: Arc<SnapshotCell>,
    queries: AtomicU64,
    /// The ranked listing of the newest revision a `QUERY` has read, so
    /// each published revision is rendered and sorted once, not per query.
    /// Its own lock: the read path never takes the ingest lock.
    ranked: Mutex<Option<(u64, Arc<Vec<RankedLine>>)>>,
    /// The ingest lock.
    ///
    /// Everything that blocks — submitting a due refresh, `SYNC`'s
    /// wait-for-idle, `DROP`'s join — happens after the lock drops: the
    /// pipeline hands due refreshes back instead of submitting them, and
    /// its worker handle is an `Arc` the blocking paths clone under a
    /// brief lock. Holding the ingest mutex across a channel send or a
    /// thread join is this codebase's deadlock shape, and `xlint`'s
    /// `lock-discipline` rule rejects it.
    pipeline: Mutex<Pipeline>,
}

impl StreamSession {
    /// Opens (or recovers) a session per the `CREATE` spec. Fails when the
    /// spec asks for a WAL but the server has no `wal_root`, or when the
    /// WAL directory cannot be opened/replayed.
    pub fn open(
        name: &str,
        spec: &CreateSpec,
        config: &ServerConfig,
    ) -> Result<(Arc<StreamSession>, CreateOutcome), String> {
        let mut outcome = CreateOutcome {
            replay_clean: true,
            ..CreateOutcome::default()
        };
        let mut window = SlidingWindowDatabase::new(spec.window);
        let mut journal = None;
        if spec.durable {
            let root = config.wal_root.as_ref().ok_or_else(|| {
                "stream asked for WAL but the server has no --wal-root".to_owned()
            })?;
            let dir = root.join(name);
            if dir.is_dir() {
                let replayed = stream::durable::replay(&dir, spec.window)
                    .map_err(|e| format!("WAL replay for {name:?} failed: {e}"))?;
                outcome.recovered_events = replayed.report.records_replayed;
                outcome.recovered_rejected = replayed.records_rejected;
                outcome.recovered_watermark = replayed.window.watermark();
                outcome.replay_clean = replayed.report.is_clean();
                window = replayed.window;
            }
            journal = Some(
                Journal::open(&dir, spec.window, config.fsync)
                    .map_err(|e| format!("WAL open for {name:?} failed: {e}"))?,
            );
            outcome.durable = true;
        }
        let store = match &config.segment_root {
            Some(root) => Some(
                SegmentStore::open(root.join(name), SegmentOptions::default())
                    .map_err(|e| format!("segment store for {name:?} failed: {e}"))?,
            ),
            None => None,
        };

        let mut miner = MinerConfig::with_min_support(1);
        if let Some(k) = spec.max_arity {
            miner = miner.max_arity(k);
        }
        if let Some(g) = spec.max_gap {
            miner = miner.max_gap(g);
        }
        let trigger = match config.max_lag {
            Some(bound) => Trigger::MaxLag(bound),
            None => Trigger::Every(spec.refresh_every),
        };
        let mut pipeline = Pipeline::new(
            window,
            journal,
            store,
            PipelineConfig {
                miner,
                support: spec.support,
                trigger,
                refresh_workers: config.refresh_workers,
                budget: MiningBudget::unlimited(),
            },
        );
        let cell = Arc::clone(pipeline.cell());
        // Publish the recovered state immediately: the first QUERY after a
        // recovery must not have to wait for new traffic to trigger a
        // refresh. No lock exists yet, so the blocking submit is safe here.
        if pipeline.window().stats().events > 0 {
            if let Some(due) = pipeline.refresh_now() {
                due.submit();
            }
        }
        let session = Arc::new(StreamSession {
            name: name.to_owned(),
            cell,
            queries: AtomicU64::new(0),
            ranked: Mutex::new(None),
            pipeline: Mutex::new(pipeline),
        });
        Ok((session, outcome))
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ingests one event through the pipeline (journal first, then the
    /// window, then maybe a refresh trigger). `Err` carries the refusal
    /// reason; the session stays usable either way.
    pub fn ingest(&self, event: StreamEvent) -> Result<IngestAck, String> {
        // A due refresh is frozen under the lock but *submitted* after it
        // drops: the submit can block on the worker's one-deep queue, and
        // blocking under the ingest lock would stall every other writer
        // (and trip `lock-discipline`).
        let ingested = self
            .pipeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ingest(event)
            .map_err(|e| e.to_string())?;
        if let Some(due) = ingested.due {
            due.submit();
        }
        Ok(IngestAck {
            accepted: true,
            degraded_now: ingested.wal_degraded_now,
        })
    }

    /// Forces a refresh covering everything ingested so far and waits for
    /// it to publish. This is the barrier deterministic tests (and clients
    /// that just loaded a batch) use before querying.
    pub fn sync(&self) -> Result<Arc<PatternSnapshot>, String> {
        // Clone the worker handle under a brief lock; every wait happens
        // without it, so concurrent EVENT/STATS requests stay live for the
        // whole barrier instead of queueing behind a sleeping SYNC.
        let Some(worker) = self
            .pipeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .worker()
            .cloned()
        else {
            return Ok(self.cell.load());
        };
        wait_idle(&worker)?;
        // A concurrent DROP may have finished the pipeline between our
        // clone and now; its final refresh already published everything.
        let Some(due) = self
            .pipeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .refresh_now()
        else {
            return Ok(self.cell.load());
        };
        due.submit();
        wait_idle(&worker)?;
        Ok(self.cell.load())
    }

    /// Serves a query from the latest published snapshot — no ingest lock.
    /// Results are canonically ordered: support descending, then pattern
    /// text ascending, so replies are deterministic for a given snapshot.
    pub fn query(&self, prefix: Option<&str>, top: Option<usize>) -> QueryReply {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let snapshot = self.cell.load();
        let ranked = self.ranked(&snapshot);
        let root_filter = prefix.map(|name| snapshot.symbols.lookup(name));
        let lines = ranked
            .iter()
            .filter(|r| match root_filter {
                None => true,
                // A prefix symbol the snapshot has never seen matches
                // nothing (rather than erroring: the symbol may simply not
                // have arrived yet).
                Some(None) => false,
                Some(root) => r.root == root,
            })
            .take(top.unwrap_or(usize::MAX))
            .map(|r| r.line.clone())
            .collect();
        QueryReply {
            revision: snapshot.revision,
            watermark: snapshot.watermark,
            sequences: snapshot.sequences,
            lines,
        }
    }

    /// The ranked listing of `snapshot`, computed at most once per
    /// revision. A reader that loaded an older snapshot than the cached
    /// one ranks its own without evicting the newer entry.
    fn ranked(&self, snapshot: &PatternSnapshot) -> Arc<Vec<RankedLine>> {
        if let Some((revision, lines)) = &*self.ranked.lock().unwrap_or_else(|e| e.into_inner()) {
            if *revision == snapshot.revision {
                return Arc::clone(lines);
            }
        }
        let lines = Arc::new(ranked_lines(snapshot));
        let mut slot = self.ranked.lock().unwrap_or_else(|e| e.into_inner());
        if !matches!(&*slot, Some((cached, _)) if *cached >= snapshot.revision) {
            *slot = Some((snapshot.revision, Arc::clone(&lines)));
        }
        lines
    }

    /// Attaches a bounded push subscriber to this session's snapshot
    /// cell: every snapshot published after this call is enqueued, and a
    /// full queue drops the revision for this subscriber only —
    /// publication and ingest never wait (see
    /// [`SnapshotCell::subscribe`]).
    pub fn subscribe(&self, capacity: usize) -> SnapshotSubscriber {
        self.cell.subscribe(capacity)
    }

    /// Point-in-time statistics (takes the ingest lock briefly).
    pub fn stats(&self) -> SessionStats {
        let pipeline = self.pipeline.lock().unwrap_or_else(|e| e.into_inner());
        let snapshot = self.cell.load();
        SessionStats {
            name: self.name.clone(),
            events: pipeline.window().stats().events,
            watermarks: pipeline.watermarks(),
            sequences: pipeline.window().len(),
            open_intervals: pipeline.window().open_intervals(),
            revision: snapshot.revision,
            patterns: snapshot.result.len(),
            pipeline: pipeline.stats(),
            journal: pipeline.journal().map(|j| j.stats()),
            queries: self.queries.load(Ordering::Relaxed),
        }
    }

    /// Drains the session: flush the WAL, seal everything into the cold
    /// store, run one final refresh on the worker so the published
    /// snapshot covers every accepted event, and join the worker.
    /// Idempotent — a second drain reports the first's leftovers without
    /// touching anything.
    pub fn drain(&self) -> StreamDrain {
        // Phase 1 — brief lock: flush + spill + seal, freeze the final
        // epoch and detach the worker (new triggers find none from here
        // on). Only the drain that detaches the worker spills — a second
        // one re-spilling the same intervals would duplicate them.
        let finishing = self
            .pipeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .finish(true);
        // Phase 2 — no lock: the final refresh, then the join (after a
        // bounded wait for a concurrent SYNC to let go of the handle).
        let finished = finishing.map(Finishing::join);
        let pipeline = self.pipeline.lock().unwrap_or_else(|e| e.into_inner());
        // A repeated drain finds the worker gone; the journal and the store
        // still report their counters.
        let finished = finished.unwrap_or_else(|| Finished {
            stats: pipeline.stats(),
            ..Finished::default()
        });
        let snapshot = self.cell.load();
        StreamDrain {
            name: self.name.clone(),
            pipeline: finished.stats,
            worker_failed: finished.worker_failed,
            events: pipeline.window().stats().events,
            final_revision: snapshot.revision,
            final_patterns: snapshot.result.len(),
        }
    }
}

/// Every pattern of `snapshot`, rendered the way the offline miner prints
/// it and in canonical reply order: support descending, then pattern text
/// ascending.
fn ranked_lines(snapshot: &PatternSnapshot) -> Vec<RankedLine> {
    let mut lines: Vec<RankedLine> = snapshot
        .result
        .patterns()
        .iter()
        .map(|fp| RankedLine {
            root: fp
                .pattern
                .groups()
                .first()
                .and_then(|g| g.first())
                .map(|e| e.symbol),
            line: QueryLine {
                support: fp.support,
                pattern: fp.pattern.display(&snapshot.symbols).to_string(),
            },
        })
        .collect();
    lines.sort_by(|a, b| {
        b.line
            .support
            .cmp(&a.line.support)
            .then_with(|| a.line.pattern.cmp(&b.line.pattern))
    });
    lines
}

/// Serves a `HISTORY` request: re-mines a sealed time range straight out
/// of a stream's cold segment directory. Runs entirely on the calling
/// connection thread and touches no session state — no ingest lock, no
/// registry entry — so the stream may be live, draining or long dropped;
/// ingestion never waits on a historical mine. Bounded by
/// the 30-second `HISTORY_DEADLINE` so a huge range cannot pin the
/// connection.
pub fn mine_history(
    dir: &Path,
    from: Time,
    to: Time,
    support: Option<SupportSpec>,
    top: Option<usize>,
    threads: usize,
) -> Result<QueryReply, String> {
    let reader = SegmentReader::open(dir).map_err(|e| e.to_string())?;
    let load = reader.load_range(from, to).map_err(|e| e.to_string())?;
    let min_support = support.map_or(1, |s| s.absolute_for(load.sequences));
    // Every symbol is dirty: a historical mine has no carried state to be
    // incremental against, so the whole range is mined fresh.
    let dirty: Vec<_> = load.symbols.iter().map(|(id, _)| id).collect();
    let view = FrozenView::from_parts(dirty, load.seq_indexes, Some(to), Some(from), load.symbols);
    let mut miner = IncrementalMiner::new(MinerConfig::with_min_support(min_support), threads);
    let budget = MiningBudget::unlimited().with_timeout(HISTORY_DEADLINE);
    let snapshot = miner.refresh_frozen(&view, budget);
    let lines = ranked_lines(&snapshot)
        .into_iter()
        .take(top.unwrap_or(usize::MAX))
        .map(|r| r.line)
        .collect();
    Ok(QueryReply {
        revision: snapshot.revision,
        watermark: snapshot.watermark,
        sequences: snapshot.sequences,
        lines,
    })
}

/// Polls the worker until its queue is empty. Bounded: a worker that died
/// mid-refresh never completes its epoch, and SYNC must fail rather than
/// hang the connection forever. Callers must not hold the ingest lock —
/// this sleeps.
fn wait_idle(worker: &RefreshWorker) -> Result<(), String> {
    for _ in 0..SYNC_POLL_LIMIT {
        if !worker.is_busy() {
            return Ok(());
        }
        std::thread::sleep(SYNC_POLL);
    }
    Err("refresh worker unresponsive (sync timed out)".to_owned())
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests drive a session from threads of their own"
)]
mod tests {
    use super::*;

    fn spec(window: Time, support: SupportSpec) -> CreateSpec {
        CreateSpec {
            window,
            support,
            refresh_every: 1,
            max_arity: None,
            max_gap: None,
            durable: false,
        }
    }

    fn interval(sequence: u64, symbol: &str, start: Time, end: Time) -> StreamEvent {
        StreamEvent::Interval {
            sequence,
            symbol: symbol.into(),
            start,
            end,
        }
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "server-session-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingest_sync_query_round_trip() {
        let config = ServerConfig::default();
        let (session, outcome) =
            StreamSession::open("s", &spec(100, SupportSpec::Absolute(2)), &config).unwrap();
        assert_eq!(outcome.recovered_events, 0);
        for seq in 0..3u64 {
            session.ingest(interval(seq, "fever", 0, 5)).unwrap();
        }
        session.ingest(StreamEvent::Watermark(10)).unwrap();
        let snapshot = session.sync().unwrap();
        assert!(snapshot.revision >= 1);
        let reply = session.query(None, None);
        assert_eq!(reply.lines.len(), 1);
        assert_eq!(reply.lines[0].support, 3);
        // Prefix filtering: an unknown symbol matches nothing.
        assert!(session.query(Some("rash"), None).lines.is_empty());
        assert_eq!(session.query(Some("fever"), None).lines.len(), 1);
        let drain = session.drain();
        assert!(!drain.worker_failed);
        assert!(!drain.pipeline.wal_degraded);
        assert_eq!(drain.events, 4);
    }

    #[test]
    fn query_orders_by_support_then_pattern_and_truncates() {
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(1000, SupportSpec::Absolute(1)), &config).unwrap();
        for seq in 0..3u64 {
            session.ingest(interval(seq, "a", 0, 5)).unwrap();
        }
        session.ingest(interval(0, "b", 10, 15)).unwrap();
        session.ingest(StreamEvent::Watermark(20)).unwrap();
        session.sync().unwrap();
        let reply = session.query(None, None);
        assert!(reply.lines.len() >= 2);
        for pair in reply.lines.windows(2) {
            assert!(
                pair[0].support > pair[1].support
                    || (pair[0].support == pair[1].support && pair[0].pattern <= pair[1].pattern),
                "canonical order violated: {pair:?}"
            );
        }
        let top1 = session.query(None, Some(1));
        assert_eq!(top1.lines.len(), 1);
        assert_eq!(top1.lines[0].support, 3);
        session.drain();
    }

    #[test]
    fn rejected_events_leave_the_session_usable() {
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(100, SupportSpec::Absolute(1)), &config).unwrap();
        // A close without an open is refused by ingest semantics.
        let refused = session.ingest(StreamEvent::Close {
            sequence: 1,
            symbol: "x".into(),
            at: 5,
        });
        assert!(refused.is_err());
        session.ingest(interval(1, "x", 0, 4)).unwrap();
        session.ingest(StreamEvent::Watermark(6)).unwrap();
        let snapshot = session.sync().unwrap();
        assert_eq!(snapshot.result.len(), 1);
        session.drain();
    }

    #[test]
    fn durable_session_recovers_by_replay_on_reopen() {
        let root = temp_root("recover");
        let config = ServerConfig {
            wal_root: Some(root.clone()),
            fsync: durability::FsyncPolicy::Always,
            threads: 1,
            ..ServerConfig::default()
        };
        let mut s = spec(100, SupportSpec::Absolute(2));
        s.durable = true;
        let (session, outcome) = StreamSession::open("vitals", &s, &config).unwrap();
        assert!(outcome.durable);
        assert_eq!(outcome.recovered_events, 0);
        for seq in 0..2u64 {
            session.ingest(interval(seq, "fever", 0, 5)).unwrap();
            session.ingest(interval(seq, "rash", 3, 9)).unwrap();
        }
        session.ingest(StreamEvent::Watermark(12)).unwrap();
        let before = session.sync().unwrap();
        let drain = session.drain();
        assert!(
            !drain.pipeline.wal_degraded,
            "healthy WAL through the drain"
        );

        // Re-open the same name: the WAL directory exists, so the session
        // must recover by replay and immediately publish the old patterns.
        let (revived, outcome) = StreamSession::open("vitals", &s, &config).unwrap();
        assert_eq!(outcome.recovered_events, 5);
        assert_eq!(outcome.recovered_watermark, Some(12));
        assert!(outcome.replay_clean);
        let after = revived.sync().unwrap();
        let render = |s: &PatternSnapshot| {
            let mut lines: Vec<String> = s
                .result
                .patterns()
                .iter()
                .map(|fp| format!("{}\t{}", fp.support, fp.pattern.display(&s.symbols)))
                .collect();
            lines.sort();
            lines
        };
        assert_eq!(render(&before), render(&after));
        revived.drain();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn wal_without_root_is_refused() {
        let mut s = spec(100, SupportSpec::Absolute(1));
        s.durable = true;
        let Err(err) = StreamSession::open("s", &s, &ServerConfig::default()) else {
            panic!("durable CREATE without --wal-root must be refused");
        };
        assert!(err.contains("wal-root"), "{err}");
    }

    #[test]
    fn adaptive_trigger_refreshes_on_lag_not_every_watermark() {
        let config = ServerConfig {
            max_lag: Some(50),
            ..ServerConfig::default()
        };
        let (session, _) =
            StreamSession::open("s", &spec(10_000, SupportSpec::Absolute(1)), &config).unwrap();
        session.ingest(interval(1, "a", 0, 5)).unwrap();
        // The first qualifying watermark publishes (nothing published yet
        // counts as unbounded lag); wait for it so later lag comparisons
        // run against a real snapshot watermark.
        session.ingest(StreamEvent::Watermark(10)).unwrap();
        for _ in 0..3_000 {
            if session.query(None, Some(0)).revision > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let published = session.query(None, Some(0)).revision;
        assert!(published >= 1);
        let submitted_before = session.stats().pipeline.submitted_refreshes;
        // Watermarks within the bound of the published snapshot must not
        // submit new refreshes, even though refresh_every == 1.
        for t in [20, 30, 40] {
            session.ingest(StreamEvent::Watermark(t)).unwrap();
        }
        assert_eq!(
            session.stats().pipeline.submitted_refreshes,
            submitted_before,
            "watermarks within max_lag must not trigger refreshes"
        );
        // A watermark beyond the bound triggers again.
        session.ingest(StreamEvent::Watermark(200)).unwrap();
        assert!(session.stats().pipeline.submitted_refreshes > submitted_before);
        session.drain();
    }

    #[test]
    fn subscriber_sees_session_publications() {
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(100, SupportSpec::Absolute(1)), &config).unwrap();
        let sub = session.subscribe(8);
        session.ingest(interval(1, "a", 0, 5)).unwrap();
        session.ingest(StreamEvent::Watermark(10)).unwrap();
        session.sync().unwrap();
        let snapshot = sub
            .next_timeout(Duration::from_secs(5))
            .expect("a published snapshot");
        assert!(snapshot.revision >= 1);
        session.drain();
    }

    #[test]
    fn concurrent_syncs_and_ingest_make_progress() {
        // SYNC no longer holds the ingest lock while it waits for the
        // worker, so writers on other connections keep landing during a
        // barrier and every sync still observes a coherent snapshot.
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(100_000, SupportSpec::Absolute(1)), &config).unwrap();
        for seq in 0..20u64 {
            session.ingest(interval(seq, "a", 0, 5)).unwrap();
        }
        session.ingest(StreamEvent::Watermark(10)).unwrap();
        let syncers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&session);
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        s.sync().unwrap();
                    }
                })
            })
            .collect();
        let writer = {
            let s = Arc::clone(&session);
            std::thread::spawn(move || {
                for seq in 20..120u64 {
                    s.ingest(interval(seq, "b", 0, 5)).unwrap();
                    if seq % 25 == 0 {
                        s.ingest(StreamEvent::Watermark(10 + seq as Time)).unwrap();
                    }
                }
            })
        };
        for t in syncers {
            t.join().unwrap();
        }
        writer.join().unwrap();
        let snapshot = session.sync().unwrap();
        assert!(snapshot.revision >= 1);
        let drain = session.drain();
        assert!(!drain.worker_failed);
        // 20 + 1 watermark up front, 100 intervals + 4 watermarks (seq
        // 25/50/75/100) from the writer.
        assert_eq!(drain.events, 125);
    }

    #[test]
    fn drain_while_sync_is_in_flight_completes() {
        // DROP reclaims the worker handle with a bounded wait, so a
        // concurrent SYNC (which holds a clone of the handle while it
        // waits) delays the drain instead of deadlocking it.
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(100_000, SupportSpec::Absolute(1)), &config).unwrap();
        for seq in 0..10u64 {
            session.ingest(interval(seq, "a", 0, 5)).unwrap();
        }
        session.ingest(StreamEvent::Watermark(10)).unwrap();
        let syncer = {
            let s = Arc::clone(&session);
            // The sync may lose the race and see a drained session; either
            // way it must return (Ok from the published cell) not hang.
            std::thread::spawn(move || {
                let _ = s.sync();
            })
        };
        let drain = session.drain();
        syncer.join().unwrap();
        assert!(!drain.worker_failed);
        assert_eq!(drain.events, 11);
    }

    #[test]
    fn refreshes_without_sync_retain_at_most_one_snapshot() {
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(100_000, SupportSpec::Absolute(1)), &config).unwrap();
        let worker = session
            .pipeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .worker()
            .cloned()
            .unwrap();
        for i in 0..50u64 {
            // Wait out the previous refresh so this watermark submits a
            // new one instead of coalescing.
            wait_idle(&worker).unwrap();
            let t = i as Time * 10;
            session.ingest(interval(i, "a", t, t + 5)).unwrap();
            session.ingest(StreamEvent::Watermark(t + 9)).unwrap();
        }
        wait_idle(&worker).unwrap();
        assert_eq!(session.stats().pipeline.completed_refreshes, 50);
        assert!(worker.drain_completed().len() <= 1);
        drop(worker);
        session.drain();
    }

    #[test]
    fn query_ranks_each_revision_once_and_filters_the_cached_listing() {
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(1000, SupportSpec::Absolute(1)), &config).unwrap();
        for seq in 0..3u64 {
            session.ingest(interval(seq, "a", 0, 5)).unwrap();
        }
        session.ingest(interval(0, "b", 10, 15)).unwrap();
        session.ingest(StreamEvent::Watermark(20)).unwrap();
        let revision = session.sync().unwrap().revision;
        let all = session.query(None, None);
        let cached = session
            .ranked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|(r, l)| (*r, Arc::clone(l)));
        let (cached_revision, listing) = cached.expect("the query filled the cache");
        assert_eq!(cached_revision, revision);
        // Later reads of the same revision reuse the listing.
        let top = session.query(None, Some(2));
        let b_rooted = session.query(Some("b"), None);
        let reused = session
            .ranked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|(_, l)| Arc::clone(l));
        assert!(Arc::ptr_eq(&listing, &reused.unwrap()));
        assert_eq!(top.lines, all.lines[..2]);
        assert!(!b_rooted.lines.is_empty());
        assert!(b_rooted.lines.iter().all(|l| l.pattern.starts_with("b")));
        assert!(b_rooted.lines.len() < all.lines.len());
        session.drain();
    }

    #[test]
    fn drain_counts_its_final_seal_in_the_pipeline_stats() {
        let root = temp_root("seal");
        let config = ServerConfig {
            segment_root: Some(root.clone()),
            ..ServerConfig::default()
        };
        let (session, _) =
            StreamSession::open("s", &spec(100, SupportSpec::Absolute(1)), &config).unwrap();
        for seq in 0..3u64 {
            session.ingest(interval(seq, "a", 0, 5)).unwrap();
        }
        session.ingest(StreamEvent::Watermark(10)).unwrap();
        let drain = session.drain();
        let store_sealed = session
            .pipeline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .store()
            .unwrap()
            .stats()
            .segments_sealed;
        assert!(store_sealed >= 1, "the drain force-seals the live window");
        assert_eq!(drain.pipeline.segments_sealed, store_sealed);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn drain_is_idempotent() {
        let config = ServerConfig::default();
        let (session, _) =
            StreamSession::open("s", &spec(100, SupportSpec::Absolute(1)), &config).unwrap();
        session.ingest(interval(1, "a", 0, 5)).unwrap();
        let first = session.drain();
        let second = session.drain();
        assert_eq!(first.events, second.events);
        assert!(!second.worker_failed);
    }
}
