//! Mining index: the database transformed into endpoint representation plus
//! the per-symbol access structures and global statistics the miner and its
//! pruning techniques need.
//!
//! # Memory layout
//!
//! [`SymbolId`]s are dense `u32`s handed out by the interner, so the
//! database-level tables are flat `Vec`s indexed by symbol id — no hashing
//! anywhere on the mining path. Per sequence, the alphabet is tiny and
//! sparse (a handful of symbols out of a possibly large universe), so a
//! dense per-sequence table would waste `O(|Σ|)` per sequence; instead each
//! [`SeqIndex`] stores its sorted symbol list plus a parallel range table
//! ("slots"), giving the search engine positional `O(1)` access while
//! one-off symbol lookups binary-search a few entries. The ranges cut one
//! `u32` allocation that holds three columns: the instance ids grouped by
//! slot, their start groups in the same order, and the slots sorted by
//! descending last start group. Start-group cuts read the start column
//! (contiguous `u32`s) rather than the per-instance records, and the
//! candidate gather walks the last-start order so that it stops at the
//! first slot whose symbol starts too early for the states it scans.
//!
//! # Postings and root weights
//!
//! The pass that builds the global statistics also records, per symbol,
//! its total instance count (so [`DbIndex::root_weight`], which the
//! parallel scheduler reads inside its sort, is an `O(1)` lookup) and its
//! *postings*: the ascending ids of the sequences that contain it, stored
//! as one flat array cut by per-symbol offsets. Seeding a level-1 root then
//! visits only the root's postings instead of every sequence, so a
//! streaming refresh that re-mines a few dirty roots of a large window pays
//! for the sequences those roots occur in, not for the window.

// A hot-path file: no hash or tree maps (see `disallowed-types` in
// clippy.toml).
#![deny(clippy::disallowed_types)]

use interval_core::{EndpointSeq, IntervalDatabase, IntervalSequence, SymbolId};
use std::sync::Arc;

/// Sequence-level co-occurrence counts of unordered symbol pairs, stored as
/// a sorted flat table of `lo * universe + hi` keys with a parallel count
/// column. Pairs are sparse in the symbol universe (a dense triangular
/// matrix would be `O(|Σ|²)`), but the PT1 pair-pruning filter probes this
/// table inside the candidate gather loop, so lookups binary-search a
/// contiguous `Vec<u64>` instead of hashing — same cache-friendly layout
/// discipline as the rest of the index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairCounts {
    universe: u64,
    keys: Vec<u64>,
    counts: Vec<u32>,
}

impl PairCounts {
    /// Builds the table from raw (unsorted, possibly repeated) pair keys.
    fn from_keys(universe: usize, mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        let mut keys = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for key in raw {
            if keys.last() == Some(&key) {
                // Run-length encode: consecutive equal keys accumulate.
                if let Some(last) = counts.last_mut() {
                    *last += 1;
                }
            } else {
                keys.push(key);
                counts.push(1);
            }
        }
        Self {
            universe: universe as u64,
            keys,
            counts,
        }
    }

    /// Co-occurrence count of the unordered pair `{a, b}` (0 when absent).
    #[inline]
    pub fn get(&self, a: SymbolId, b: SymbolId) -> u32 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key = lo.index() as u64 * self.universe + hi.index() as u64;
        match self.keys.binary_search(&key) {
            Ok(i) => self.counts[i],
            Err(_) => 0,
        }
    }

    /// Number of distinct pairs with a non-zero count.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no pair co-occurs.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Per-sequence mining index.
///
/// Besides the endpoint representation, it holds one `u32` allocation
/// with three columns over the sequence's `n` instances and `m` distinct
/// symbols ("slots"):
///
/// - `[0, n)`: instance ids grouped by slot, each slot's run sorted by
///   start group (ties by id);
/// - `[n, 2n)`: the start group of each of those ids, position for
///   position, so a slot's start groups are one contiguous run;
/// - `[2n, 2n + m)`: the slots by descending last start group, ties by
///   slot.
///
/// Start-group cuts binary-search the contiguous start run instead of
/// chasing ids into [`EndpointSeq::instance`], a slot's last start is one
/// load, and the gather's start scan walks the last-start order so it can
/// stop at the first slot that starts too early.
#[derive(Debug)]
pub struct SeqIndex {
    /// The endpoint representation of the sequence.
    pub endpoints: EndpointSeq,
    /// Ids, start groups and last-start order (see above). Slot `k` owns
    /// ids `columns[lo..hi]` and start groups `columns[n + lo..n + hi]`
    /// for `(lo, hi) = slot_ranges[k]`.
    columns: Box<[u32]>,
    slot_ranges: Vec<(u32, u32)>,
    /// The distinct symbols of the sequence, sorted; parallel to
    /// `slot_ranges`.
    symbols_sorted: Vec<SymbolId>,
}

impl SeqIndex {
    /// Indexes one sequence (endpoint transform plus per-symbol sort).
    ///
    /// Public so streaming drivers can index sequences individually as they
    /// change and reuse the untouched ones across re-mines (see
    /// [`DbIndex::from_seq_indexes`]).
    pub fn from_sequence(sequence: &IntervalSequence) -> Self {
        Self::from_endpoints(EndpointSeq::from_sequence(sequence))
    }

    /// Indexes a sequence already in endpoint representation.
    pub fn from_endpoints(endpoints: EndpointSeq) -> Self {
        let n = endpoints.instance_count();
        let mut columns: Vec<u32> = (0..n as u32).collect();
        columns.sort_unstable_by_key(|&i| {
            let info = endpoints.instance(i);
            (info.symbol, info.start_group, i)
        });
        let mut slot_ranges = Vec::new();
        let mut symbols_sorted = Vec::new();
        let mut lo = 0usize;
        while lo < n {
            let symbol = endpoints.instance(columns[lo]).symbol;
            let mut hi = lo + 1;
            while hi < n && endpoints.instance(columns[hi]).symbol == symbol {
                hi += 1;
            }
            symbols_sorted.push(symbol);
            slot_ranges.push((lo as u32, hi as u32));
            lo = hi;
        }
        let m = slot_ranges.len();
        columns.reserve_exact(n + m);
        for j in 0..n {
            columns.push(endpoints.instance(columns[j]).start_group);
        }
        columns.extend(0..m as u32);
        let (ids_and_starts, order) = columns.split_at_mut(2 * n);
        let last_start = |k: u32| ids_and_starts[n + slot_ranges[k as usize].1 as usize - 1];
        order.sort_unstable_by_key(|&k| (std::cmp::Reverse(last_start(k)), k));
        Self {
            endpoints,
            columns: columns.into_boxed_slice(),
            slot_ranges,
            symbols_sorted,
        }
    }

    /// The slot (position in [`SeqIndex::symbols_sorted`]) of `symbol`, if
    /// the sequence contains it.
    #[inline]
    pub fn symbol_slot(&self, symbol: SymbolId) -> Option<usize> {
        self.symbols_sorted.binary_search(&symbol).ok()
    }

    /// Number of distinct symbols (slots) in the sequence.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.symbols_sorted.len()
    }

    /// Instance ids of the `slot`-th distinct symbol, sorted by start group.
    #[inline]
    pub fn slot_instances(&self, slot: usize) -> &[u32] {
        let (lo, hi) = self.slot_ranges[slot];
        &self.columns[lo as usize..hi as usize]
    }

    /// Start groups of [`SeqIndex::slot_instances`], position for
    /// position (ascending).
    #[inline]
    pub(crate) fn slot_starts(&self, slot: usize) -> &[u32] {
        let n = self.endpoints.instance_count();
        let (lo, hi) = self.slot_ranges[slot];
        &self.columns[n + lo as usize..n + hi as usize]
    }

    /// The slots by descending last start group, ties by slot.
    #[inline]
    pub(crate) fn slots_by_last_start(&self) -> &[u32] {
        &self.columns[2 * self.endpoints.instance_count()..]
    }

    /// Instance ids carrying `symbol`, sorted by start group.
    #[inline]
    pub fn instances_of(&self, symbol: SymbolId) -> &[u32] {
        match self.symbol_slot(symbol) {
            Some(slot) => self.slot_instances(slot),
            None => &[],
        }
    }

    /// Start group of the `slot`-th symbol's last instance.
    #[inline]
    pub(crate) fn slot_last_start(&self, slot: usize) -> u32 {
        let n = self.endpoints.instance_count();
        self.columns[n + self.slot_ranges[slot].1 as usize - 1]
    }

    /// Instance ids of the `slot`-th symbol whose start group is
    /// **strictly after** `g`.
    #[inline]
    pub fn slot_instances_starting_after(&self, slot: usize, g: u32) -> &[u32] {
        let cut = self.slot_starts(slot).partition_point(|&s| s <= g);
        &self.slot_instances(slot)[cut..]
    }

    /// Instance ids of the `slot`-th symbol whose start group is
    /// **exactly** `g`.
    #[inline]
    pub fn slot_instances_starting_at(&self, slot: usize, g: u32) -> &[u32] {
        let starts = self.slot_starts(slot);
        let lo = starts.partition_point(|&s| s < g);
        let hi = lo + starts[lo..].partition_point(|&s| s <= g);
        &self.slot_instances(slot)[lo..hi]
    }

    /// The symbols occurring in this sequence, sorted ascending.
    pub fn symbols(&self) -> impl Iterator<Item = SymbolId> + '_ {
        self.symbols_sorted.iter().copied()
    }

    /// The distinct symbols of the sequence, sorted ascending.
    #[inline]
    pub fn symbols_sorted(&self) -> &[SymbolId] {
        &self.symbols_sorted
    }
}

/// Whole-database mining index.
#[derive(Debug)]
pub struct DbIndex {
    /// One [`SeqIndex`] per database sequence (same order). Shared
    /// ownership lets streaming drivers keep per-sequence indexes cached
    /// and rebuild only the changed ones between re-mines.
    pub sequences: Vec<Arc<SeqIndex>>,
    /// Sequence-level co-occurrence counts of unordered symbol pairs
    /// (`a <= b` keys, including `a == b` meaning "two or more instances").
    pub cooccurrence: PairCounts,
    /// Ids of the sequences containing each symbol, ascending, concatenated
    /// in symbol order; symbol `s` owns
    /// `postings[posting_offsets[s] .. posting_offsets[s + 1]]`, so its
    /// sequence-level support is the length of that run.
    postings: Vec<u32>,
    /// `universe + 1` cut points into `postings`, dense-indexed by
    /// [`SymbolId`] (the universe is the smallest one covering every symbol
    /// that occurs; absent symbols own an empty run).
    posting_offsets: Vec<u32>,
    /// Total instance count of every symbol across all sequences.
    root_weights: Vec<u64>,
}

impl DbIndex {
    /// Builds the index (one database scan plus per-sequence sorts).
    pub fn build(db: &IntervalDatabase) -> Self {
        Self::from_seq_indexes(
            db.sequences()
                .iter()
                .map(|s| Arc::new(SeqIndex::from_sequence(s)))
                .collect(),
        )
    }

    /// Assembles a database index from prebuilt per-sequence indexes,
    /// recomputing only the global statistics (symbol supports and
    /// postings, root weights and co-occurrence counts). This is the
    /// streaming fast path: when a window slides, unchanged sequences keep
    /// their cached [`SeqIndex`] and only changed ones pay the endpoint
    /// transform and sort again.
    pub fn from_seq_indexes(sequences: Vec<Arc<SeqIndex>>) -> Self {
        let universe = sequences
            .iter()
            .filter_map(|s| s.symbols_sorted().last())
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0);
        // Symbol `s`'s support is counted at `posting_offsets[s + 1]`; the
        // prefix sum below turns the counts into cut points.
        let mut posting_offsets = vec![0u32; universe + 1];
        let mut root_weights = vec![0u64; universe];
        let mut pair_keys: Vec<u64> = Vec::new();
        for seq in &sequences {
            let seq_symbols = seq.symbols_sorted();
            for (slot, &s) in seq_symbols.iter().enumerate() {
                let instances = seq.slot_instances(slot).len();
                posting_offsets[s.index() + 1] += 1;
                root_weights[s.index()] += instances as u64;
                // A pattern with two instances of `s` needs two instances in
                // the sequence; record the (s, s) "pair" accordingly.
                if instances >= 2 {
                    pair_keys.push(s.index() as u64 * universe as u64 + s.index() as u64);
                }
            }
            // `seq_symbols` is sorted, so `i < j` already yields `lo <= hi`.
            for i in 0..seq_symbols.len() {
                for j in (i + 1)..seq_symbols.len() {
                    pair_keys.push(
                        seq_symbols[i].index() as u64 * universe as u64
                            + seq_symbols[j].index() as u64,
                    );
                }
            }
        }
        let mut running = 0;
        for cut in &mut posting_offsets {
            running += *cut;
            *cut = running;
        }
        // Deal each sequence id into its symbols' runs. Sequences are
        // visited in id order, so every run comes out sorted.
        let mut cursor = posting_offsets[..universe].to_vec();
        let mut postings = vec![0u32; running as usize];
        for (seq_id, seq) in sequences.iter().enumerate() {
            for &s in seq.symbols_sorted() {
                postings[cursor[s.index()] as usize] = seq_id as u32;
                cursor[s.index()] += 1;
            }
        }
        Self {
            sequences,
            cooccurrence: PairCounts::from_keys(universe, pair_keys),
            postings,
            posting_offsets,
            root_weights,
        }
    }

    /// Size of the dense symbol universe (one past the largest occurring
    /// symbol id; dense tables over symbols are sized by this).
    #[inline]
    pub fn symbol_universe(&self) -> usize {
        self.root_weights.len()
    }

    /// Ids of the sequences containing `symbol`, ascending (empty for a
    /// symbol that never occurs).
    #[inline]
    pub fn postings(&self, symbol: SymbolId) -> &[u32] {
        let s = symbol.index();
        if s >= self.symbol_universe() {
            return &[];
        }
        let (lo, hi) = (self.posting_offsets[s], self.posting_offsets[s + 1]);
        &self.postings[lo as usize..hi as usize]
    }

    /// Sequence-level support of `symbol`.
    #[inline]
    pub fn symbol_support(&self, symbol: SymbolId) -> u32 {
        self.postings(symbol).len() as u32
    }

    /// Sequence-level co-occurrence count of `a` and `b` (for `a == b`: the
    /// number of sequences with at least two instances of the symbol).
    #[inline]
    pub fn cooccurrence(&self, a: SymbolId, b: SymbolId) -> u32 {
        self.cooccurrence.get(a, b)
    }

    /// Symbols whose sequence-level support reaches `min_support`, sorted.
    pub fn frequent_symbols(&self, min_support: usize) -> Vec<SymbolId> {
        self.posting_offsets
            .windows(2)
            .enumerate()
            .filter(|&(_, cut)| (cut[1] - cut[0]) as usize >= min_support)
            .map(|(s, _)| SymbolId(s as u32))
            .collect()
    }

    /// Estimated subtree weight of mining the level-1 subtree rooted at
    /// `symbol`: its total instance count across all sequences (recorded
    /// at build time, so this is a lookup). Used by the parallel scheduler
    /// to order the shared work queue heaviest-first.
    #[inline]
    pub fn root_weight(&self, symbol: SymbolId) -> u64 {
        self.root_weights.get(symbol.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interval_core::DatabaseBuilder;

    fn sample_db() -> IntervalDatabase {
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 5)
            .interval("B", 3, 8)
            .interval("A", 6, 9);
        b.sequence().interval("A", 0, 5).interval("C", 1, 2);
        b.sequence().interval("B", 0, 5);
        b.build()
    }

    #[test]
    fn symbol_support_counts_sequences() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b = db.symbols().lookup("B").unwrap();
        let c = db.symbols().lookup("C").unwrap();
        assert_eq!(idx.symbol_support(a), 2);
        assert_eq!(idx.symbol_support(b), 2);
        assert_eq!(idx.symbol_support(c), 1);
        assert_eq!(idx.symbol_support(SymbolId(99)), 0);
        assert_eq!(idx.symbol_universe(), 3);
    }

    #[test]
    fn cooccurrence_is_symmetric_and_counts_self_pairs() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b = db.symbols().lookup("B").unwrap();
        let c = db.symbols().lookup("C").unwrap();
        assert_eq!(idx.cooccurrence(a, b), 1);
        assert_eq!(idx.cooccurrence(b, a), 1);
        assert_eq!(idx.cooccurrence(a, c), 1);
        assert_eq!(idx.cooccurrence(b, c), 0);
        // sequence 0 has two A's
        assert_eq!(idx.cooccurrence(a, a), 1);
        assert_eq!(idx.cooccurrence(b, b), 0);
    }

    #[test]
    fn frequent_symbols_filters_and_sorts() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b = db.symbols().lookup("B").unwrap();
        assert_eq!(idx.frequent_symbols(2), vec![a, b]);
        assert_eq!(idx.frequent_symbols(3), Vec::<SymbolId>::new());
        assert_eq!(idx.frequent_symbols(1).len(), 3);
    }

    #[test]
    fn per_sequence_instance_lookup() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let seq0 = &idx.sequences[0];
        let ids = seq0.instances_of(a);
        assert_eq!(ids.len(), 2);
        // sorted by start group
        assert!(
            seq0.endpoints.instance(ids[0]).start_group
                <= seq0.endpoints.instance(ids[1]).start_group
        );
        // the start-group cuts split the two instances
        let slot = seq0.symbol_slot(a).unwrap();
        let g0 = seq0.endpoints.instance(ids[0]).start_group;
        assert_eq!(seq0.slot_instances_starting_after(slot, g0), &ids[1..]);
        assert_eq!(seq0.slot_instances_starting_at(slot, g0), &ids[..1]);
    }

    /// Checks `seq`'s start column, last starts, slot order and start-group
    /// cuts against a scan over `endpoints.instance()`.
    fn assert_columns_match_a_scan(seq: &SeqIndex) {
        let infos = seq.endpoints.instances();
        for (slot, &s) in seq.symbols_sorted().iter().enumerate() {
            let mut ids: Vec<u32> = (0..infos.len() as u32)
                .filter(|&i| infos[i as usize].symbol == s)
                .collect();
            ids.sort_by_key(|&i| (infos[i as usize].start_group, i));
            let start = |i: u32| infos[i as usize].start_group;
            assert_eq!(seq.slot_instances(slot), &ids[..]);
            let starts: Vec<u32> = ids.iter().map(|&i| start(i)).collect();
            assert_eq!(seq.slot_starts(slot), &starts[..], "slot {slot}");
            assert_eq!(Some(&seq.slot_last_start(slot)), starts.iter().max());
            for g in 0..=seq.endpoints.group_count() {
                let at: Vec<u32> = ids.iter().copied().filter(|&i| start(i) == g).collect();
                let after: Vec<u32> = ids.iter().copied().filter(|&i| start(i) > g).collect();
                assert_eq!(
                    seq.slot_instances_starting_at(slot, g),
                    &at[..],
                    "slot {slot} at {g}"
                );
                assert_eq!(
                    seq.slot_instances_starting_after(slot, g),
                    &after[..],
                    "slot {slot} after {g}"
                );
            }
        }
        let order = seq.slots_by_last_start();
        let mut slots = order.to_vec();
        slots.sort_unstable();
        assert_eq!(slots, (0..seq.slot_count() as u32).collect::<Vec<_>>());
        for pair in order.windows(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            let (la, lb) = (seq.slot_last_start(a), seq.slot_last_start(b));
            assert!(
                la > lb || (la == lb && a < b),
                "slots {a}, {b} out of order"
            );
        }
    }

    #[test]
    fn slot_accessors_agree_with_symbol_accessors() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        for seq in &idx.sequences {
            assert_eq!(seq.slot_count(), seq.symbols_sorted().len());
            for (slot, &s) in seq.symbols_sorted().iter().enumerate() {
                assert_eq!(seq.symbol_slot(s), Some(slot));
                assert_eq!(seq.slot_instances(slot), seq.instances_of(s));
            }
            assert_columns_match_a_scan(seq);
        }
    }

    #[test]
    fn start_columns_match_a_scan_on_random_databases() {
        for idx in random_indexes() {
            for seq in &idx.sequences {
                assert_columns_match_a_scan(seq);
            }
        }
    }

    #[test]
    fn root_weight_totals_instances() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b = db.symbols().lookup("B").unwrap();
        let c = db.symbols().lookup("C").unwrap();
        assert_eq!(idx.root_weight(a), 3);
        assert_eq!(idx.root_weight(b), 2);
        assert_eq!(idx.root_weight(c), 1);
        assert_eq!(idx.root_weight(SymbolId(99)), 0);
    }

    #[test]
    fn from_seq_indexes_matches_full_build() {
        let db = sample_db();
        let full = DbIndex::build(&db);
        let rebuilt = DbIndex::from_seq_indexes(full.sequences.clone());
        assert_eq!(rebuilt.postings, full.postings);
        assert_eq!(rebuilt.posting_offsets, full.posting_offsets);
        assert_eq!(rebuilt.root_weights, full.root_weights);
        assert_eq!(rebuilt.cooccurrence, full.cooccurrence);
        assert_eq!(rebuilt.sequences.len(), full.sequences.len());
    }

    #[test]
    fn postings_list_the_sequences_containing_each_symbol() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b = db.symbols().lookup("B").unwrap();
        let c = db.symbols().lookup("C").unwrap();
        assert_eq!(idx.postings(a), &[0, 1]);
        assert_eq!(idx.postings(b), &[0, 2]);
        assert_eq!(idx.postings(c), &[1]);
        assert!(idx.postings(SymbolId(99)).is_empty());
    }

    /// Random databases indexed both ways: `build` over the whole database,
    /// and `from_seq_indexes` over a reordered subset of its cached
    /// per-sequence indexes (the shape a sliding window hands over).
    fn random_indexes() -> Vec<DbIndex> {
        let mut out = Vec::new();
        for seed in 1..=6u64 {
            let db = synthgen::QuestGenerator::new(
                synthgen::QuestConfig::small()
                    .sequences(40 + 15 * seed as usize)
                    .symbols(8 + 4 * seed as usize)
                    .seed(seed),
            )
            .generate();
            let full = DbIndex::build(&db);
            let subset: Vec<Arc<SeqIndex>> = full
                .sequences
                .iter()
                .rev()
                .step_by(1 + seed as usize % 3)
                .cloned()
                .collect();
            out.push(DbIndex::from_seq_indexes(subset));
            out.push(full);
        }
        out
    }

    #[test]
    fn postings_and_root_weights_match_a_full_scan_on_random_databases() {
        for idx in random_indexes() {
            // Probe past the universe too: absent symbols are empty, not
            // out of bounds.
            for s in (0..idx.symbol_universe() as u32 + 3).map(SymbolId) {
                let scanned_weight: u64 = idx
                    .sequences
                    .iter()
                    .map(|q| q.instances_of(s).len() as u64)
                    .sum();
                assert_eq!(idx.root_weight(s), scanned_weight, "symbol {s:?}");
                let containing: Vec<u32> = (0..idx.sequences.len() as u32)
                    .filter(|&q| !idx.sequences[q as usize].instances_of(s).is_empty())
                    .collect();
                assert_eq!(idx.postings(s), &containing[..], "symbol {s:?}");
                assert_eq!(idx.symbol_support(s) as usize, containing.len());
            }
        }
    }

    #[test]
    fn missing_symbol_yields_empty_slices() {
        let db = sample_db();
        let idx = DbIndex::build(&db);
        let seq = &idx.sequences[2];
        assert!(seq.instances_of(SymbolId(42)).is_empty());
        assert_eq!(seq.symbol_slot(SymbolId(42)), None);
    }
}
