//! Published mining snapshots and the cell readers load them from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, RwLock};

use interval_core::{SymbolTable, Termination, Time};
use tpminer::{MinerStats, MiningResult};

/// How a refresh produced its snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Whether this was a full re-mine (first refresh, changed threshold,
    /// or an explicit invalidation) rather than a dirty-partition refresh.
    pub full: bool,
    /// Number of root partitions re-mined.
    pub dirty_roots: usize,
    /// Number of sequences the refresh's index covered: the whole window
    /// on a full refresh, the sequences holding a dirty root otherwise
    /// (0 when nothing is dirty).
    pub indexed_sequences: usize,
    /// Patterns carried over unchanged from the previous snapshot.
    pub carried_patterns: usize,
    /// Patterns produced by the re-mine of the dirty partitions.
    pub mined_patterns: usize,
}

/// An immutable, self-contained view of the mining state at one refresh:
/// the frequent patterns of the window at `revision`, the window bounds
/// they were mined over, and how the refresh was computed.
///
/// Snapshots are shared as `Arc<PatternSnapshot>` and never mutated, so any
/// number of readers can hold one while the miner publishes the next.
#[derive(Debug, Clone)]
pub struct PatternSnapshot {
    /// Monotonically increasing refresh counter (0 = empty initial state).
    pub revision: u64,
    /// The watermark the window had at refresh time.
    pub watermark: Option<Time>,
    /// Lower edge of the window (`watermark − window length`).
    pub window_start: Option<Time>,
    /// Number of sequences in the mined window.
    pub sequences: usize,
    /// Symbol table for rendering patterns, shared with the frozen view it
    /// was refreshed from (the live table may have grown since).
    pub symbols: Arc<SymbolTable>,
    /// The mining result: patterns with exact supports, work counters and
    /// the [`Termination`] status of the refresh.
    pub result: MiningResult,
    /// How this refresh was computed.
    pub refresh: RefreshStats,
}

impl PatternSnapshot {
    /// The snapshot published before any refresh: revision 0, no window,
    /// no patterns.
    pub fn empty() -> Self {
        Self {
            revision: 0,
            watermark: None,
            window_start: None,
            sequences: 0,
            symbols: Arc::new(SymbolTable::new()),
            result: MiningResult::from_parts(
                Vec::new(),
                MinerStats::default(),
                Termination::Complete,
            ),
            refresh: RefreshStats::default(),
        }
    }

    /// Renders every pattern with its support, one per line.
    pub fn render(&self) -> String {
        self.result.render(&self.symbols)
    }
}

impl Default for PatternSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// A shared cell holding the latest [`PatternSnapshot`].
///
/// Publication is an `Arc` swap behind a lock: writers block only for the
/// pointer exchange, readers clone the `Arc` and then work lock-free on an
/// immutable snapshot. A reader mid-query keeps its (old) snapshot alive
/// while newer ones are published.
///
/// ```
/// use std::sync::Arc;
/// use stream::{PatternSnapshot, SnapshotCell};
///
/// let cell = Arc::new(SnapshotCell::new());
/// let reader = cell.load();
/// assert_eq!(reader.revision, 0);
/// ```
#[derive(Debug, Default)]
pub struct SnapshotCell {
    current: RwLock<Arc<PatternSnapshot>>,
    subscribers: Mutex<Vec<SubEntry>>,
}

/// Per-subscriber counters shared between the cell (writer) and the
/// [`SnapshotSubscriber`] handle (reader).
#[derive(Debug, Default)]
struct SubCounters {
    delivered: AtomicU64,
    dropped: AtomicU64,
    /// Revision of the last snapshot successfully enqueued; the
    /// subscriber's *lag* is the cell's current revision minus this.
    last_enqueued: AtomicU64,
}

/// The cell's send-side record of one subscriber.
#[derive(Debug)]
struct SubEntry {
    sender: SyncSender<Arc<PatternSnapshot>>,
    counters: Arc<SubCounters>,
}

/// Aggregate subscriber accounting, folded into
/// [`PipelineStats`](crate::PipelineStats) by the pipeline driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubscriberStats {
    /// Currently connected subscribers.
    pub subscribers: u64,
    /// Snapshots enqueued to subscriber channels, summed over all
    /// subscribers (past and present).
    pub subscriber_delivered: u64,
    /// Revisions dropped because a subscriber's channel was full, summed
    /// over all subscribers. Drops are per-subscriber: a slow consumer
    /// loses *its own* revisions and nothing else.
    pub subscriber_dropped: u64,
    /// The worst current lag (published revisions since the last one
    /// enqueued) across connected subscribers.
    pub subscriber_max_lag: u64,
}

/// The receiving end of [`SnapshotCell::subscribe`]: a bounded channel
/// that gets every published snapshot the subscriber keeps up with.
///
/// Publication never blocks on a subscriber — when the channel is full
/// the new revision is *dropped for that subscriber* (counted in
/// [`SnapshotSubscriber::dropped`]) and the publisher moves on. Delivered
/// snapshots arrive in publication order (revisions strictly increase);
/// a gap in revisions is exactly the drop count. Dropping the handle
/// unsubscribes: the cell prunes the dead channel on its next publish.
#[derive(Debug)]
pub struct SnapshotSubscriber {
    receiver: Receiver<Arc<PatternSnapshot>>,
    counters: Arc<SubCounters>,
}

impl SnapshotSubscriber {
    /// The next published snapshot, if one is already queued.
    /// Non-blocking; `None` when the queue is empty (the cell may still
    /// publish more later — this is not a disconnect signal).
    pub fn try_next(&self) -> Option<Arc<PatternSnapshot>> {
        self.receiver.try_recv().ok()
    }

    /// Blocks until the next snapshot or `timeout`, whichever comes
    /// first.
    pub fn next_timeout(&self, timeout: std::time::Duration) -> Option<Arc<PatternSnapshot>> {
        self.receiver.recv_timeout(timeout).ok()
    }

    /// Snapshots enqueued to this subscriber so far.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.load(Ordering::Relaxed)
    }

    /// Revisions this subscriber missed because its queue was full.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Relaxed)
    }
}

impl SnapshotCell {
    /// Creates a cell holding the empty snapshot (revision 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the latest snapshot. The returned `Arc` stays valid (and
    /// immutable) regardless of later publications.
    pub fn load(&self) -> Arc<PatternSnapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Atomically publishes a new snapshot, then fans it out to every
    /// subscriber. Fan-out is strictly non-blocking: a full subscriber
    /// queue drops the revision for that subscriber (counted), a
    /// disconnected subscriber is pruned, and readers polling
    /// [`load`](Self::load) are never delayed past the pointer swap.
    pub fn store(&self, snapshot: Arc<PatternSnapshot>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot.clone();
        let mut subscribers = self.subscribers.lock().unwrap_or_else(|e| e.into_inner());
        subscribers.retain(|entry| match entry.sender.try_send(Arc::clone(&snapshot)) {
            Ok(()) => {
                entry.counters.delivered.fetch_add(1, Ordering::Relaxed);
                entry
                    .counters
                    .last_enqueued
                    .store(snapshot.revision, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) => {
                entry.counters.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Registers a push subscriber with a queue of `capacity` snapshots
    /// (clamped to at least 1) and returns its receiving handle. The
    /// subscriber sees every snapshot published *after* this call that it
    /// keeps up with; see [`SnapshotSubscriber`] for the drop policy.
    pub fn subscribe(&self, capacity: usize) -> SnapshotSubscriber {
        let (sender, receiver) = mpsc::sync_channel(capacity.max(1));
        let counters = Arc::new(SubCounters {
            last_enqueued: AtomicU64::new(self.load().revision),
            ..SubCounters::default()
        });
        let mut subscribers = self.subscribers.lock().unwrap_or_else(|e| e.into_inner());
        subscribers.push(SubEntry {
            sender,
            counters: Arc::clone(&counters),
        });
        SnapshotSubscriber { receiver, counters }
    }

    /// Aggregate accounting across currently connected subscribers (plus
    /// cumulative delivered/dropped totals of past ones is *not* kept —
    /// totals cover live entries, which is what the pipeline reports).
    pub fn subscriber_stats(&self) -> SubscriberStats {
        let revision = self.load().revision;
        let subscribers = self.subscribers.lock().unwrap_or_else(|e| e.into_inner());
        let mut stats = SubscriberStats {
            subscribers: subscribers.len() as u64,
            ..SubscriberStats::default()
        };
        for entry in subscribers.iter() {
            stats.subscriber_delivered += entry.counters.delivered.load(Ordering::Relaxed);
            stats.subscriber_dropped += entry.counters.dropped.load(Ordering::Relaxed);
            let lag = revision.saturating_sub(entry.counters.last_enqueued.load(Ordering::Relaxed));
            stats.subscriber_max_lag = stats.subscriber_max_lag.max(lag);
        }
        stats
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests publish and read snapshots from threads of their own"
)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_has_revision_zero() {
        let s = PatternSnapshot::empty();
        assert_eq!(s.revision, 0);
        assert!(s.result.is_empty());
        assert!(s.result.is_exhaustive());
        assert_eq!(s.render(), "");
    }

    #[test]
    fn cell_swaps_without_invalidating_readers() {
        let cell = SnapshotCell::new();
        let old = cell.load();
        let mut next = PatternSnapshot::empty();
        next.revision = 1;
        cell.store(Arc::new(next));
        assert_eq!(old.revision, 0, "held snapshot unaffected");
        assert_eq!(cell.load().revision, 1);
    }

    fn publish(cell: &SnapshotCell, revision: u64) {
        let mut s = PatternSnapshot::empty();
        s.revision = revision;
        cell.store(Arc::new(s));
    }

    #[test]
    fn subscribers_receive_snapshots_in_publication_order() {
        let cell = SnapshotCell::new();
        let sub = cell.subscribe(8);
        for revision in 1..=5 {
            publish(&cell, revision);
        }
        for expected in 1..=5 {
            assert_eq!(sub.try_next().map(|s| s.revision), Some(expected));
        }
        assert!(sub.try_next().is_none());
        assert_eq!(sub.delivered(), 5);
        assert_eq!(sub.dropped(), 0);
    }

    #[test]
    fn slow_subscriber_drops_revisions_but_never_blocks_publication() {
        let cell = SnapshotCell::new();
        let sub = cell.subscribe(2);
        // Ten publications into a queue of two: if fan-out blocked on the
        // stalled subscriber this loop would deadlock (nothing drains).
        for revision in 1..=10 {
            publish(&cell, revision);
        }
        assert_eq!(cell.load().revision, 10, "publication went through");
        assert_eq!(sub.delivered(), 2);
        assert_eq!(sub.dropped(), 8);
        // The survivors are the oldest enqueued, still in order.
        assert_eq!(sub.try_next().map(|s| s.revision), Some(1));
        assert_eq!(sub.try_next().map(|s| s.revision), Some(2));
        assert!(sub.try_next().is_none());
    }

    #[test]
    fn disconnected_subscriber_is_pruned_on_next_publish() {
        let cell = SnapshotCell::new();
        let sub = cell.subscribe(1);
        assert_eq!(cell.subscriber_stats().subscribers, 1);
        drop(sub);
        publish(&cell, 1);
        assert_eq!(cell.subscriber_stats().subscribers, 0);
    }

    #[test]
    fn subscriber_stats_report_worst_lag_and_drop_totals() {
        let cell = SnapshotCell::new();
        let slow = cell.subscribe(1);
        let fast = cell.subscribe(16);
        for revision in 1..=4 {
            publish(&cell, revision);
        }
        let stats = cell.subscriber_stats();
        assert_eq!(stats.subscribers, 2);
        // slow enqueued revision 1 then dropped 2..4; fast kept up.
        assert_eq!(stats.subscriber_dropped, 3);
        assert_eq!(stats.subscriber_delivered, 1 + 4);
        assert_eq!(stats.subscriber_max_lag, 3);
        drop((slow, fast));
    }

    #[test]
    fn concurrent_readers_and_subscribers_survive_rapid_publication() {
        const REVISIONS: u64 = 300;
        let cell = Arc::new(SnapshotCell::new());
        let subs: Vec<_> = (0..3).map(|_| cell.subscribe(4)).collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while last < REVISIONS {
                        let s = cell.load();
                        assert!(s.revision >= last, "revisions move forward");
                        last = last.max(s.revision);
                    }
                })
            })
            .collect();
        let drainers: Vec<_> = subs
            .into_iter()
            .map(|sub| {
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    // Drain until the final revision arrives or the
                    // publisher has clearly stopped (it may have dropped
                    // the tail for this subscriber).
                    while last < REVISIONS {
                        match sub.next_timeout(std::time::Duration::from_millis(500)) {
                            Some(s) => {
                                assert!(s.revision > last, "strictly increasing per subscriber");
                                last = s.revision;
                            }
                            None => break,
                        }
                    }
                    (sub.delivered(), sub.dropped())
                })
            })
            .collect();
        for revision in 1..=REVISIONS {
            publish(&cell, revision);
        }
        for reader in readers {
            reader.join().unwrap();
        }
        for drainer in drainers {
            let (delivered, dropped) = drainer.join().unwrap();
            assert!(delivered >= 1);
            // Every publication was either enqueued or dropped.
            assert!(delivered + dropped <= REVISIONS);
        }
    }

    #[test]
    fn concurrent_readers_see_a_coherent_snapshot() {
        let cell = Arc::new(SnapshotCell::new());
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for revision in 1..=50u64 {
                    let mut s = PatternSnapshot::empty();
                    s.revision = revision;
                    cell.store(Arc::new(s));
                }
            })
        };
        let reader = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..200 {
                    let s = cell.load();
                    assert!(s.revision >= last, "revisions move forward");
                    last = s.revision;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(cell.load().revision, 50);
    }
}
