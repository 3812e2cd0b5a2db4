//! Sliding-window interval database fed by a stream of events.
//!
//! [`SlidingWindowDatabase`] ingests [`StreamEvent`]s and maintains, at all
//! times, the interval database induced by the current window `[watermark −
//! window, watermark]`:
//!
//! - `open`/`close` events buffer *open* intervals per `(sequence, symbol)`
//!   until the close arrives; only completed intervals are minable;
//! - watermarks advance event time and trigger **eviction**: a completed
//!   interval is expired exactly when `end < watermark − window` (it lies
//!   entirely before the window), and a sequence is dropped once it has
//!   neither live intervals nor open ones;
//! - per-sequence endpoint indexes ([`SeqIndex`]) are cached and
//!   invalidated only for sequences that actually changed. The window keeps
//!   no global support table: a refresh counts supports from the index
//!   postings of the view it mines.
//!
//! Open intervals are never evicted: a watermark `w` promises all endpoints
//! `< w` have been delivered, so an interval still open at `w` must close at
//! some `end ≥ w`, which is inside every window ending at `w`.
//!
//! The window also tracks which *root symbols* are dirty since the last
//! [`freeze`](SlidingWindowDatabase::freeze): whenever a sequence changes,
//! every symbol present in it before or after the change is marked, read
//! off the sequence's per-symbol interval counts, in a bitmap over symbol
//! ids that a freeze drains in ascending id order.
//! [`IncrementalMiner`](crate::IncrementalMiner) re-mines only those
//! partitions; see `docs/ALGORITHMS.md` for why that is sufficient.

// A hot-path file: no hash or tree maps (see `disallowed-types` in
// clippy.toml).
#![deny(clippy::disallowed_types)]

use std::sync::Arc;

use interval_core::{
    EventInterval, IntervalDatabase, IntervalError, IntervalSequence, Result, SequenceId,
    StreamEvent, SymbolId, SymbolTable, Time,
};
use tpminer::SeqIndex;

/// Counters describing everything a window has ingested and evicted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Events accepted by [`SlidingWindowDatabase::ingest`].
    pub events: u64,
    /// Intervals completed (a matched open/close pair or an `interval`
    /// record).
    pub intervals_completed: u64,
    /// Completed intervals that were already expired on arrival
    /// (`end < watermark − window`) and were dropped without entering the
    /// window.
    pub late_intervals_dropped: u64,
    /// Intervals evicted by watermark advancement.
    pub intervals_evicted: u64,
    /// Sequences dropped entirely (no live or open intervals left).
    pub sequences_evicted: u64,
    /// Watermarks that regressed (ignored, counted for observability).
    pub watermark_regressions: u64,
}

/// Looks up `key` in a `SymbolId`-sorted association list.
#[inline]
fn assoc_get_mut<V>(list: &mut [(SymbolId, V)], key: SymbolId) -> Option<&mut V> {
    match list.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(pos) => Some(&mut list[pos].1),
        Err(_) => None,
    }
}

/// Returns the entry for `key`, inserting a default at its sorted position
/// when absent.
#[inline]
fn assoc_entry<V: Default>(list: &mut Vec<(SymbolId, V)>, key: SymbolId) -> &mut V {
    let pos = match list.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(pos) => pos,
        Err(pos) => {
            list.insert(pos, (key, V::default()));
            pos
        }
    };
    &mut list[pos].1
}

/// Per-sequence state: completed in-window intervals, open intervals and the
/// bookkeeping that makes dirty marking and index reuse incremental.
///
/// The per-sequence symbol alphabet is tiny (a handful of symbols out of a
/// possibly large universe), so the per-symbol tables are `SymbolId`-sorted
/// flat vectors — binary-searched on access, iterated in deterministic
/// order, no hashing on the refresh path (this file denies
/// `clippy::disallowed_types`).
#[derive(Debug, Default)]
struct SeqState {
    /// Completed intervals currently in the window (insertion order; sorted
    /// by the index build).
    intervals: Vec<EventInterval>,
    /// Number of completed intervals per symbol, sorted by symbol: the
    /// sequence's distinct-symbol set that dirty marking walks on every
    /// insert and eviction. Keep it. Deriving that set from `intervals`
    /// instead rescans every interval of the sequence on each change, and
    /// on the ledger's `ingest-durable` and `history-query` workloads, where
    /// a sequence holds about 48 intervals of 8 symbols, that lost every
    /// one of 3 alternating pairs on a 2-vCPU host (`ingest-durable`
    /// `op_p25_ms` 96.4 → 147.5 ms, `history-query` `setup_s` +33%).
    symbol_counts: Vec<(SymbolId, u32)>,
    /// Start times of currently-open intervals per symbol, sorted by symbol.
    open: Vec<(SymbolId, Vec<Time>)>,
    /// Cached endpoint index; invalidated whenever `intervals` changes.
    cached: Option<Arc<SeqIndex>>,
}

impl SeqState {
    fn open_count(&self) -> usize {
        self.open.iter().map(|(_, opens)| opens.len()).sum()
    }

    fn is_exhausted(&self) -> bool {
        self.intervals.is_empty() && self.open.iter().all(|(_, opens)| opens.is_empty())
    }

    /// The symbols with at least one completed interval, in sorted order.
    fn symbols(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.symbol_counts.iter().map(|&(s, _)| s)
    }
}

/// A sliding-window interval database maintained incrementally from a
/// [`StreamEvent`] stream.
///
/// ```
/// use interval_core::StreamEvent;
/// use stream::SlidingWindowDatabase;
///
/// let mut w = SlidingWindowDatabase::new(100);
/// w.ingest(StreamEvent::Interval { sequence: 1, symbol: "fever".into(), start: 0, end: 10 })
///     .unwrap();
/// w.ingest(StreamEvent::Watermark(50)).unwrap();
/// assert_eq!(w.len(), 1);
/// // The watermark reaching 111 pushes [0, 10) entirely out of the window.
/// w.ingest(StreamEvent::Watermark(111)).unwrap();
/// assert_eq!(w.len(), 0);
/// ```
#[derive(Debug)]
pub struct SlidingWindowDatabase {
    window: Time,
    watermark: Option<Time>,
    /// Shared with every [`FrozenView`] and snapshot taken since the last
    /// new symbol; copied on write only when a symbol is interned while
    /// one of them still holds the table.
    symbols: Arc<SymbolTable>,
    /// Live sequences, sorted by `SequenceId` (binary-searched on ingest,
    /// iterated in id order for snapshots).
    sequences: Vec<(SequenceId, SeqState)>,
    /// Root symbols touched by any sequence change since `take_dirty`:
    /// bit `id % 64` of word `id / 64`, one bit for every interned symbol.
    dirty: Vec<u64>,
    /// When `Some`, intervals leaving the window (watermark eviction and
    /// late drops) are captured here instead of vanishing, so a persistence
    /// layer can spill them to cold storage. `None` (the default) keeps the
    /// historical fire-and-forget behaviour with zero overhead.
    evicted: Option<Vec<(SequenceId, EventInterval)>>,
    stats: IngestStats,
}

/// Sets the dirty bit of every symbol in `symbols`.
#[inline]
fn mark_dirty(dirty: &mut [u64], symbols: impl Iterator<Item = SymbolId>) {
    for s in symbols {
        dirty[s.index() / 64] |= 1 << (s.index() % 64);
    }
}

/// Returns the state for `sequence`, inserting an empty one at its sorted
/// position when absent.
fn seq_entry(sequences: &mut Vec<(SequenceId, SeqState)>, sequence: SequenceId) -> &mut SeqState {
    let pos = match sequences.binary_search_by_key(&sequence, |(id, _)| *id) {
        Ok(pos) => pos,
        Err(pos) => {
            sequences.insert(pos, (sequence, SeqState::default()));
            pos
        }
    };
    &mut sequences[pos].1
}

impl SlidingWindowDatabase {
    /// Creates a window of the given length (in stream time units).
    ///
    /// # Panics
    /// Panics when `window <= 0`.
    pub fn new(window: Time) -> Self {
        assert!(window > 0, "window length must be positive");
        Self {
            window,
            watermark: None,
            symbols: Arc::new(SymbolTable::new()),
            sequences: Vec::new(),
            dirty: Vec::new(),
            evicted: None,
            stats: IngestStats::default(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> Time {
        self.window
    }

    /// The highest watermark observed, if any.
    pub fn watermark(&self) -> Option<Time> {
        self.watermark
    }

    /// Lower edge of the current window (`watermark − window`), if a
    /// watermark has been observed. Completed intervals with `end` before
    /// this instant are expired.
    pub fn cutoff(&self) -> Option<Time> {
        self.watermark.map(|w| w.saturating_sub(self.window))
    }

    /// The symbol table shared by all sequences (grows monotonically).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns `name`, copying the shared table only for a new symbol (and
    /// growing the dirty bitmap to cover it).
    fn intern(&mut self, name: &str) -> SymbolId {
        match self.symbols.lookup(name) {
            Some(id) => id,
            None => {
                let id = Arc::make_mut(&mut self.symbols).intern(name);
                self.dirty.resize(id.index() / 64 + 1, 0);
                id
            }
        }
    }

    /// Ingestion/eviction counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Number of sequences with at least one completed in-window interval
    /// (the size of the minable database).
    pub fn len(&self) -> usize {
        self.sequences
            .iter()
            .filter(|(_, s)| !s.intervals.is_empty())
            .count()
    }

    /// Whether no sequence has a completed in-window interval.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of currently-open (unclosed) intervals.
    pub fn open_intervals(&self) -> usize {
        self.sequences.iter().map(|(_, s)| s.open_count()).sum()
    }

    /// Drains the set of dirty root symbols accumulated since the previous
    /// call: every symbol that occurred (before or after the change) in any
    /// sequence whose in-window intervals changed.
    fn take_dirty(&mut self) -> Vec<SymbolId> {
        let mut drained = Vec::new();
        for (word_index, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                drained.push(SymbolId(word_index as u32 * 64 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        drained
    }

    /// Turns capture of expiring intervals on or off.
    ///
    /// With capture on, every interval that leaves the window — evicted by
    /// a watermark or dropped on arrival because it was already expired —
    /// is recorded with its sequence id and can be drained with
    /// [`take_evicted`](Self::take_evicted). Turning capture off discards
    /// anything not yet drained.
    pub fn retain_evicted(&mut self, on: bool) {
        self.evicted = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the intervals captured since the previous call (empty unless
    /// [`retain_evicted`](Self::retain_evicted) is on).
    pub fn take_evicted(&mut self) -> Vec<(SequenceId, EventInterval)> {
        match self.evicted.as_mut() {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// All completed in-window intervals with their sequence ids, in
    /// `SequenceId` order. Non-draining: the window is unchanged. Used by
    /// the persistence layer to spill the final (never-to-be-evicted)
    /// window contents at shutdown so cold storage covers every interval.
    pub fn completed_intervals(&self) -> impl Iterator<Item = (SequenceId, EventInterval)> + '_ {
        self.sequences
            .iter()
            .flat_map(|(id, s)| s.intervals.iter().map(move |iv| (*id, *iv)))
    }

    /// Applies one stream event.
    ///
    /// Errors leave the window unchanged: a close without a matching open or
    /// with a non-positive duration is [`IntervalError::InconsistentStream`];
    /// degenerate `interval` records are rejected as in the batch model.
    /// Regressing watermarks are ignored (counted in
    /// [`IngestStats::watermark_regressions`]).
    pub fn ingest(&mut self, event: StreamEvent) -> Result<()> {
        match event {
            StreamEvent::Open {
                sequence,
                symbol,
                at,
            } => {
                let id = self.intern(&symbol);
                let seq = seq_entry(&mut self.sequences, sequence);
                assoc_entry(&mut seq.open, id).push(at);
            }
            StreamEvent::Close {
                sequence,
                symbol,
                at,
            } => {
                let id = self.intern(&symbol);
                let start = self.pop_open(sequence, id, &symbol, at)?;
                let interval = EventInterval::new_unchecked(id, start, at);
                self.complete(sequence, interval);
            }
            StreamEvent::Interval {
                sequence,
                symbol,
                start,
                end,
            } => {
                let id = self.intern(&symbol);
                let interval = EventInterval::new(id, start, end)?;
                self.complete(sequence, interval);
            }
            StreamEvent::Watermark(at) => self.advance_watermark(at),
        }
        self.stats.events += 1;
        Ok(())
    }

    /// Matches a close event to the earliest open interval of the symbol.
    fn pop_open(
        &mut self,
        sequence: SequenceId,
        id: SymbolId,
        symbol: &str,
        at: Time,
    ) -> Result<Time> {
        let opens = match self
            .sequences
            .binary_search_by_key(&sequence, |(id, _)| *id)
        {
            Ok(pos) => assoc_get_mut(&mut self.sequences[pos].1.open, id),
            Err(_) => None,
        }
        .filter(|opens| !opens.is_empty())
        .ok_or_else(|| {
            IntervalError::InconsistentStream(format!(
                "close of {symbol:?} at {at} in sequence {sequence} has no open interval"
            ))
        })?;
        // FIFO: a close finishes the *earliest* still-open interval of the
        // symbol, which keeps concurrent same-symbol intervals well nested.
        let mut earliest = 0;
        for (i, &start) in opens.iter().enumerate() {
            if start < opens[earliest] {
                earliest = i;
            }
        }
        let start = opens[earliest];
        // Validate before removing so errors leave the window unchanged.
        if start >= at {
            return Err(IntervalError::InconsistentStream(format!(
                "close of {symbol:?} at {at} in sequence {sequence} precedes its open at {start}"
            )));
        }
        opens.swap_remove(earliest);
        Ok(start)
    }

    /// Adds a completed interval to its sequence, maintaining its symbol
    /// counts and the dirty roots.
    fn complete(&mut self, sequence: SequenceId, interval: EventInterval) {
        self.stats.intervals_completed += 1;
        if let Some(cutoff) = self.cutoff() {
            if interval.end < cutoff {
                self.stats.late_intervals_dropped += 1;
                // A late interval never enters the window, but it is still
                // real history: capture it for the persistence layer.
                if let Some(buf) = self.evicted.as_mut() {
                    buf.push((sequence, interval));
                }
                return;
            }
        }
        let seq = seq_entry(&mut self.sequences, sequence);
        seq.intervals.push(interval);
        seq.cached = None;
        *assoc_entry(&mut seq.symbol_counts, interval.symbol) += 1;
        // The post-change symbol set of the sequence is a superset of the
        // pre-change one, so marking it covers both sides of the change.
        mark_dirty(&mut self.dirty, seq.symbols());
    }

    /// Advances the watermark and evicts expired intervals and sequences.
    fn advance_watermark(&mut self, at: Time) {
        if self.watermark.is_some_and(|w| at < w) {
            self.stats.watermark_regressions += 1;
            return;
        }
        self.watermark = Some(at);
        let cutoff = at.saturating_sub(self.window);

        let mut evicted_intervals = 0u64;
        let mut evicted_sequences = 0u64;
        let dirty = &mut self.dirty;
        let evicted = &mut self.evicted;
        self.sequences.retain_mut(|(id, seq)| {
            let expired = seq.intervals.iter().any(|iv| iv.end < cutoff);
            if expired {
                // Pre-change symbol set is a superset of the post-change
                // one: mark it before removal.
                mark_dirty(dirty, seq.symbols());
                seq.cached = None;
                seq.intervals.retain(|iv| {
                    if iv.end >= cutoff {
                        return true;
                    }
                    evicted_intervals += 1;
                    if let Some(buf) = evicted.as_mut() {
                        buf.push((*id, *iv));
                    }
                    // Every in-window interval was counted on insert, so its
                    // symbol must have a count.
                    match seq
                        .symbol_counts
                        .binary_search_by_key(&iv.symbol, |(s, _)| *s)
                    {
                        Ok(pos) => {
                            seq.symbol_counts[pos].1 -= 1;
                            if seq.symbol_counts[pos].1 == 0 {
                                seq.symbol_counts.remove(pos);
                            }
                        }
                        Err(_) => debug_assert!(false, "present symbol has a count"),
                    }
                    false
                });
            }
            if seq.is_exhausted() {
                evicted_sequences += 1;
                false
            } else {
                true
            }
        });
        self.stats.intervals_evicted += evicted_intervals;
        self.stats.sequences_evicted += evicted_sequences;
    }

    /// Materializes the current window as a batch [`IntervalDatabase`]:
    /// one sequence (in `SequenceId` order) per sequence with at least one
    /// completed interval. Open intervals are excluded — they are not
    /// minable until closed.
    pub fn snapshot_database(&self) -> IntervalDatabase {
        let sequences = self
            .sequences
            .iter()
            .filter(|(_, s)| !s.intervals.is_empty())
            .map(|(_, s)| IntervalSequence::from_intervals(s.intervals.clone()))
            .collect();
        IntervalDatabase::from_parts(SymbolTable::clone(&self.symbols), sequences)
    }

    /// Per-sequence endpoint indexes of the current window, in the same
    /// order as [`snapshot_database`](Self::snapshot_database). Indexes of
    /// unchanged sequences are reused from the cache; only sequences whose
    /// intervals changed since the last call are re-indexed.
    fn seq_indexes(&mut self) -> Vec<Arc<SeqIndex>> {
        self.sequences
            .iter_mut()
            .filter(|(_, s)| !s.intervals.is_empty())
            .map(|(_, s)| {
                s.cached
                    .get_or_insert_with(|| {
                        Arc::new(SeqIndex::from_sequence(&IntervalSequence::from_intervals(
                            s.intervals.clone(),
                        )))
                    })
                    .clone()
            })
            .collect()
    }

    /// Freezes the current window contents into an immutable refresh epoch.
    ///
    /// This is the copy-on-write handoff behind pipelined refreshes: the
    /// per-sequence endpoint indexes are shared with the live window as
    /// `Arc`s (only sequences that changed since the previous freeze are
    /// re-indexed; the rest are pointer copies), the accumulated dirty set
    /// is drained into the view, and the window immediately resumes
    /// mutation on the live side. Only the re-indexing is O(changed
    /// sequences): collecting the indexes still visits every live sequence
    /// and clones one `Arc` per sequence, so a freeze is O(window) in
    /// pointer copies (ROADMAP item 6).
    ///
    /// Ingesting further events after a freeze never mutates the frozen
    /// indexes — a sequence change replaces the cached `Arc` rather than
    /// writing through it — so a [`FrozenView`] stays valid for the whole
    /// refresh no matter how far the live window has moved on.
    pub fn freeze(&mut self) -> FrozenView {
        let dirty = self.take_dirty();
        let seq_indexes = self.seq_indexes();
        FrozenView {
            dirty,
            seq_indexes,
            watermark: self.watermark,
            window_start: self.cutoff(),
            symbols: Arc::clone(&self.symbols),
        }
    }
}

/// An immutable view of a [`SlidingWindowDatabase`] at one refresh epoch,
/// produced by [`SlidingWindowDatabase::freeze`].
///
/// The view owns everything a refresh needs — the dirty root set, the
/// per-sequence endpoint indexes (shared with the live window via `Arc`),
/// and the window metadata stamped onto the published snapshot — so it can
/// be shipped to a background [`RefreshWorker`](crate::RefreshWorker) while
/// ingestion keeps mutating the live side.
#[derive(Debug, Clone)]
pub struct FrozenView {
    dirty: Vec<SymbolId>,
    seq_indexes: Vec<Arc<SeqIndex>>,
    watermark: Option<Time>,
    window_start: Option<Time>,
    symbols: Arc<SymbolTable>,
}

impl FrozenView {
    /// Assembles a view directly from reconstructed parts, bypassing a live
    /// window. This is how cold storage re-enters the mining pipeline: a
    /// segment reader rebuilds per-sequence indexes for a historical range
    /// and wraps them in a view the existing
    /// [`IncrementalMiner`](crate::IncrementalMiner) can refresh against,
    /// with every symbol dirty (nothing is incremental about a cold load).
    pub fn from_parts(
        dirty: Vec<SymbolId>,
        seq_indexes: Vec<Arc<SeqIndex>>,
        watermark: Option<Time>,
        window_start: Option<Time>,
        symbols: impl Into<Arc<SymbolTable>>,
    ) -> Self {
        FrozenView {
            dirty,
            seq_indexes,
            watermark,
            window_start,
            symbols: symbols.into(),
        }
    }

    /// Root symbols dirtied since the previous freeze (drained from the
    /// window by [`SlidingWindowDatabase::freeze`]).
    pub fn dirty(&self) -> &[SymbolId] {
        &self.dirty
    }

    /// Per-sequence endpoint indexes of the frozen window, in `SequenceId`
    /// order (same order as
    /// [`snapshot_database`](SlidingWindowDatabase::snapshot_database)).
    pub fn seq_indexes(&self) -> &[Arc<SeqIndex>] {
        &self.seq_indexes
    }

    /// The watermark at freeze time.
    pub fn watermark(&self) -> Option<Time> {
        self.watermark
    }

    /// Lower edge of the frozen window (`watermark − window`), if a
    /// watermark had been observed.
    pub fn window_start(&self) -> Option<Time> {
        self.window_start
    }

    /// Number of minable sequences in the frozen window.
    pub fn sequences(&self) -> usize {
        self.seq_indexes.len()
    }

    /// The symbol table at freeze time, shared with the live window until
    /// it interns a new symbol.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(sequence: SequenceId, symbol: &str, start: Time, end: Time) -> StreamEvent {
        StreamEvent::Interval {
            sequence,
            symbol: symbol.into(),
            start,
            end,
        }
    }

    #[test]
    fn open_close_completes_an_interval() {
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(StreamEvent::Open {
            sequence: 1,
            symbol: "a".into(),
            at: 5,
        })
        .unwrap();
        assert_eq!(w.len(), 0, "open intervals are not minable");
        assert_eq!(w.open_intervals(), 1);
        w.ingest(StreamEvent::Close {
            sequence: 1,
            symbol: "a".into(),
            at: 9,
        })
        .unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.open_intervals(), 0);
        let db = w.snapshot_database();
        let a = db.symbols().lookup("a").unwrap();
        assert_eq!(
            db.sequences()[0].intervals(),
            &[EventInterval::new_unchecked(a, 5, 9)]
        );
    }

    #[test]
    fn close_matches_earliest_open_of_symbol() {
        let mut w = SlidingWindowDatabase::new(100);
        for at in [10, 2, 7] {
            w.ingest(StreamEvent::Open {
                sequence: 1,
                symbol: "a".into(),
                at,
            })
            .unwrap();
        }
        w.ingest(StreamEvent::Close {
            sequence: 1,
            symbol: "a".into(),
            at: 20,
        })
        .unwrap();
        let db = w.snapshot_database();
        assert_eq!(db.sequences()[0].intervals()[0].start, 2);
        assert_eq!(w.open_intervals(), 2);
    }

    #[test]
    fn close_without_open_is_rejected_and_harmless() {
        let mut w = SlidingWindowDatabase::new(100);
        let err = w
            .ingest(StreamEvent::Close {
                sequence: 1,
                symbol: "a".into(),
                at: 9,
            })
            .unwrap_err();
        assert!(matches!(err, IntervalError::InconsistentStream(_)));
        assert_eq!(w.stats().events, 0);

        w.ingest(StreamEvent::Open {
            sequence: 1,
            symbol: "a".into(),
            at: 5,
        })
        .unwrap();
        let err = w
            .ingest(StreamEvent::Close {
                sequence: 1,
                symbol: "a".into(),
                at: 5,
            })
            .unwrap_err();
        assert!(matches!(err, IntervalError::InconsistentStream(_)));
        // The open interval survives the failed close.
        assert_eq!(w.open_intervals(), 1);
        w.ingest(StreamEvent::Close {
            sequence: 1,
            symbol: "a".into(),
            at: 6,
        })
        .unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn watermark_evicts_expired_intervals_and_sequences() {
        let mut w = SlidingWindowDatabase::new(10);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        w.ingest(interval(1, "b", 8, 20)).unwrap();
        w.ingest(interval(2, "a", 1, 4)).unwrap();
        w.ingest(StreamEvent::Watermark(12)).unwrap();
        // cutoff 2: nothing expired (ends 5, 20, 4 all >= 2).
        assert_eq!(w.len(), 2);

        w.ingest(StreamEvent::Watermark(16)).unwrap();
        // cutoff 6: [0,5) and [1,4) expire; sequence 2 is dropped.
        assert_eq!(w.len(), 1);
        let b = w.symbols().lookup("b").unwrap();
        let db = w.snapshot_database();
        let live: Vec<SymbolId> = db.sequences()[0].iter().map(|iv| iv.symbol).collect();
        assert_eq!(live, vec![b]);
        assert_eq!(w.stats().intervals_evicted, 2);
        assert_eq!(w.stats().sequences_evicted, 1);
    }

    #[test]
    fn interval_spanning_the_cutoff_stays_live() {
        let mut w = SlidingWindowDatabase::new(10);
        w.ingest(interval(1, "a", 0, 100)).unwrap();
        w.ingest(StreamEvent::Watermark(90)).unwrap();
        assert_eq!(w.len(), 1, "end 100 >= cutoff 80 keeps it live");
        w.ingest(StreamEvent::Watermark(111)).unwrap();
        assert_eq!(w.len(), 0, "end 100 < cutoff 101 expires it");
    }

    #[test]
    fn open_intervals_survive_eviction() {
        let mut w = SlidingWindowDatabase::new(10);
        w.ingest(StreamEvent::Open {
            sequence: 1,
            symbol: "a".into(),
            at: 0,
        })
        .unwrap();
        w.ingest(StreamEvent::Watermark(1_000)).unwrap();
        assert_eq!(w.open_intervals(), 1);
        // Closing far in the future completes a live interval.
        w.ingest(StreamEvent::Close {
            sequence: 1,
            symbol: "a".into(),
            at: 1_005,
        })
        .unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn late_intervals_are_dropped() {
        let mut w = SlidingWindowDatabase::new(10);
        w.ingest(StreamEvent::Watermark(100)).unwrap();
        w.ingest(interval(1, "a", 0, 5)).unwrap(); // end 5 < cutoff 90
        assert_eq!(w.len(), 0);
        assert_eq!(w.stats().late_intervals_dropped, 1);
    }

    #[test]
    fn regressing_watermark_is_ignored() {
        let mut w = SlidingWindowDatabase::new(10);
        w.ingest(interval(1, "a", 95, 99)).unwrap();
        w.ingest(StreamEvent::Watermark(100)).unwrap();
        w.ingest(StreamEvent::Watermark(40)).unwrap();
        assert_eq!(w.watermark(), Some(100));
        assert_eq!(w.stats().watermark_regressions, 1);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn dirty_symbols_cover_changed_sequences() {
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        w.ingest(interval(1, "b", 2, 8)).unwrap();
        w.ingest(interval(2, "c", 0, 5)).unwrap();
        let a = w.symbols().lookup("a").unwrap();
        let b = w.symbols().lookup("b").unwrap();
        let c = w.symbols().lookup("c").unwrap();
        assert_eq!(w.take_dirty(), vec![a, b, c]);
        assert!(w.take_dirty().is_empty(), "drained");

        // Touching sequence 1 dirties a and b, not c.
        w.ingest(interval(1, "a", 3, 9)).unwrap();
        assert_eq!(w.take_dirty(), vec![a, b]);

        // Cutoff 10 empties sequences 1 and 2.
        w.ingest(StreamEvent::Watermark(110)).unwrap();
        assert_eq!(w.take_dirty(), vec![a, b, c]);
        assert_eq!(w.len(), 0);

        // Sequence 3 holds `a` twice. Evicting one `a` keeps `a` in the
        // sequence, so `a` is marked, and marked again by the next insert.
        w.ingest(interval(3, "a", 120, 130)).unwrap();
        w.ingest(interval(3, "a", 120, 150)).unwrap();
        w.ingest(interval(3, "d", 120, 400)).unwrap();
        let d = w.symbols().lookup("d").unwrap();
        assert_eq!(w.take_dirty(), vec![a, d]);
        w.ingest(StreamEvent::Watermark(235)).unwrap(); // cutoff 135
        assert_eq!(w.take_dirty(), vec![a, d]);
        w.ingest(interval(3, "d", 140, 160)).unwrap();
        assert_eq!(w.take_dirty(), vec![a, d], "one `a` is still live");

        // Evicting the last `a` marks it once; a later insert into the
        // sequence no longer does.
        w.ingest(StreamEvent::Watermark(255)).unwrap(); // cutoff 155
        assert_eq!(w.take_dirty(), vec![a, d]);
        w.ingest(interval(3, "d", 170, 180)).unwrap();
        assert_eq!(w.take_dirty(), vec![d], "`a` left the sequence");
    }

    #[test]
    fn dirty_bitmap_drains_ids_on_both_sides_of_a_word_in_order() {
        let mut w = SlidingWindowDatabase::new(10);
        // Symbol `s{i}` gets id i: 130 ids span three bitmap words.
        for i in 0..130 {
            w.ingest(interval(i, &format!("s{i}"), 0, 5)).unwrap();
        }
        let all: Vec<SymbolId> = (0..130).map(SymbolId).collect();
        assert_eq!(w.take_dirty(), all);
        assert!(w.take_dirty().is_empty(), "the drain empties the set");

        // Cutoff 6 evicts every sequence: each marks its symbol before
        // removal.
        w.ingest(StreamEvent::Watermark(16)).unwrap();
        assert_eq!(w.len(), 0);
        assert_eq!(w.take_dirty(), all);

        // One sequence over ids 3, 63, 64 and 129, inserted out of order,
        // drains ascending.
        for (symbol, start, end) in [("s129", 10, 12), ("s64", 11, 40), ("s3", 10, 40)] {
            w.ingest(interval(500, symbol, start, end)).unwrap();
        }
        w.ingest(interval(500, "s63", 13, 40)).unwrap();
        let ids = |ids: &[u32]| ids.iter().map(|&i| SymbolId(i)).collect::<Vec<_>>();
        assert_eq!(w.take_dirty(), ids(&[3, 63, 64, 129]));

        // Cutoff 20 evicts only the `s129` interval: the pre-change set is
        // marked, 129 included; a later insert marks the post-change set.
        w.ingest(StreamEvent::Watermark(30)).unwrap();
        assert_eq!(w.take_dirty(), ids(&[3, 63, 64, 129]));
        w.ingest(interval(500, "s3", 20, 41)).unwrap();
        assert_eq!(w.take_dirty(), ids(&[3, 63, 64]));
        assert!(w.take_dirty().is_empty());
    }

    #[test]
    fn eviction_marks_pre_change_symbols_dirty() {
        let mut w = SlidingWindowDatabase::new(10);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        w.ingest(interval(1, "b", 8, 30)).unwrap();
        w.ingest(StreamEvent::Watermark(9)).unwrap();
        let _ = w.take_dirty();
        // cutoff 10: [0,5) of "a" expires; both a and b were present.
        w.ingest(StreamEvent::Watermark(20)).unwrap();
        let a = w.symbols().lookup("a").unwrap();
        let b = w.symbols().lookup("b").unwrap();
        assert_eq!(w.take_dirty(), vec![a, b]);
    }

    #[test]
    fn seq_indexes_are_cached_until_change() {
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        w.ingest(interval(2, "b", 1, 6)).unwrap();
        let first = w.seq_indexes();
        let second = w.seq_indexes();
        assert!(Arc::ptr_eq(&first[0], &second[0]));
        assert!(Arc::ptr_eq(&first[1], &second[1]));

        w.ingest(interval(1, "a", 2, 7)).unwrap();
        let third = w.seq_indexes();
        assert!(!Arc::ptr_eq(&first[0], &third[0]), "changed: rebuilt");
        assert!(Arc::ptr_eq(&first[1], &third[1]), "unchanged: reused");
    }

    #[test]
    fn frozen_views_share_the_symbol_table_until_a_new_symbol() {
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        let first = w.freeze();
        // A known symbol interns without copying the shared table.
        w.ingest(interval(2, "a", 1, 6)).unwrap();
        let second = w.freeze();
        assert!(Arc::ptr_eq(first.symbols(), second.symbols()));

        // A new symbol copies it once; the held views keep the old table.
        w.ingest(interval(2, "b", 2, 7)).unwrap();
        let third = w.freeze();
        assert!(!Arc::ptr_eq(first.symbols(), third.symbols()));
        assert_eq!(first.symbols().len(), 1);
        assert_eq!(third.symbols().len(), 2);
        assert_eq!(w.symbols().lookup("b"), third.symbols().lookup("b"));
    }

    #[test]
    fn retain_evicted_captures_evictions_and_late_drops() {
        let mut w = SlidingWindowDatabase::new(10);
        w.retain_evicted(true);
        w.ingest(interval(1, "a", 0, 5)).unwrap();
        w.ingest(interval(2, "b", 1, 4)).unwrap();
        // cutoff 6: both expire.
        w.ingest(StreamEvent::Watermark(16)).unwrap();
        // end 2 < cutoff 6: dropped on arrival, still captured.
        w.ingest(interval(3, "c", 0, 2)).unwrap();

        let a = w.symbols().lookup("a").unwrap();
        let b = w.symbols().lookup("b").unwrap();
        let c = w.symbols().lookup("c").unwrap();
        let captured = w.take_evicted();
        assert_eq!(
            captured,
            vec![
                (1, EventInterval::new_unchecked(a, 0, 5)),
                (2, EventInterval::new_unchecked(b, 1, 4)),
                (3, EventInterval::new_unchecked(c, 0, 2)),
            ]
        );
        assert!(w.take_evicted().is_empty(), "drained");

        // Capture off: evictions vanish again.
        w.retain_evicted(false);
        w.ingest(interval(4, "a", 10, 12)).unwrap();
        w.ingest(StreamEvent::Watermark(30)).unwrap();
        assert!(w.take_evicted().is_empty());
    }

    #[test]
    fn completed_intervals_lists_the_window_without_draining() {
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(interval(5, "b", 1, 6)).unwrap();
        w.ingest(interval(2, "a", 0, 5)).unwrap();
        let listed: Vec<_> = w.completed_intervals().collect();
        let a = w.symbols().lookup("a").unwrap();
        let b = w.symbols().lookup("b").unwrap();
        assert_eq!(
            listed,
            vec![
                (2, EventInterval::new_unchecked(a, 0, 5)),
                (5, EventInterval::new_unchecked(b, 1, 6)),
            ]
        );
        assert_eq!(w.len(), 2, "non-draining");
    }

    #[test]
    fn snapshot_matches_seq_indexes_order() {
        let mut w = SlidingWindowDatabase::new(100);
        w.ingest(interval(5, "b", 1, 6)).unwrap();
        w.ingest(interval(2, "a", 0, 5)).unwrap();
        let db = w.snapshot_database();
        let idx = w.seq_indexes();
        assert_eq!(db.len(), idx.len());
        // Sequence-id order: 2 before 5.
        let a = db.symbols().lookup("a").unwrap();
        assert_eq!(db.sequences()[0].intervals()[0].symbol, a);
        assert_eq!(idx[0].symbols_sorted(), &[a]);
    }
}
