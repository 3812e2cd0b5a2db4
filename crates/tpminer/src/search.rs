//! The pattern-growth search engine.
//!
//! TPMiner grows patterns one *endpoint* at a time over the endpoint
//! representation. A search node holds a (possibly incomplete) pattern
//! prefix plus, for every supporting sequence, the *frontier* of partial
//! embeddings — each embedding records which endpoint set the prefix
//! currently ends at and which concrete interval instance every still-open
//! pattern slot is bound to. Tracking whole frontiers (rather than a single
//! position, as in plain PrefixSpan) is what makes support counting exact in
//! the presence of repeated symbols.
//!
//! Extensions come in four flavours:
//!
//! - `AfterStart(x)` / `MeetStart(x)` — a new interval of symbol `x` starts
//!   in a strictly later endpoint set / in the same endpoint set;
//! - `AfterFinish(k)` / `MeetFinish(k)` — the `k`-th open slot closes in a
//!   strictly later / the same endpoint set.
//!
//! Canonical-form gates guarantee each pattern is generated along exactly
//! one path: inside an endpoint set, endpoints are appended in canonical
//! rank order (finishes by slot, then starts by symbol), and among open
//! same-symbol slots that started together the lowest-numbered one must
//! finish first.
//!
//! # Memory layout
//!
//! Embeddings are stored structure-of-arrays: a node owns one `Frontier`
//! holding three flat `Vec<u32>` columns (`groups`, `first_groups`, and a
//! fixed-stride `bindings` arena — every state of a node binds exactly
//! `open.len()` instances) plus per-sequence `SeqSpan` ranges. Candidate
//! gathering counts extensions in dense stamp-versioned arrays instead of
//! hash maps, and child projection reuses engine-owned scratch columns plus
//! a pool of recycled frontiers, so steady-state node growth performs no
//! heap allocation. The output (patterns, supports, canonical order,
//! termination) is bit-identical to the earlier per-state `Vec` layout: the
//! per-sequence state order is still sorted by `(group, first_group,
//! bindings)` and deduplicated, and candidates are still counted once per
//! sequence and sorted in `Ext` order.

// A hot-path file: no hash or tree maps (see `disallowed-types` in
// clippy.toml).
#![deny(clippy::disallowed_types)]

use crate::config::MinerConfig;
use crate::index::{DbIndex, SeqIndex};
use crate::stats::MinerStats;
use interval_core::budget::{MiningBudget, Termination};
use interval_core::{EndpointKind, PatternEndpoint, SymbolId, TemporalPattern};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A candidate extension of the current pattern prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Ext {
    /// Close open slot `k` (index into the node's open list) in the current
    /// endpoint set.
    MeetFinish(u8),
    /// Close open slot `k` in a strictly later endpoint set.
    AfterFinish(u8),
    /// Start a new `symbol` interval in the current endpoint set.
    MeetStart(SymbolId),
    /// Start a new `symbol` interval in a strictly later endpoint set.
    AfterStart(SymbolId),
}

/// Number of dense extension codes reserved for finish extensions: open
/// slots are capped at 255 (the arity gate), two variants each. Start
/// extensions for symbol `s` live at `FINISH_CODES + 2s (+1)`.
const FINISH_CODES: usize = 512;

/// Recycled-frontier pool size: deep enough for any realistic DFS path,
/// small enough to bound idle memory.
const POOL_CAP: usize = 256;

/// Safety cap on the partial embeddings tracked per sequence per pattern
/// node. A hit is *reported* in `MinerStats::frontier_cap_hits` (and would
/// make results approximate); it is set high enough that no workload in
/// this repository ever reaches it.
const FRONTIER_CAP: usize = 1 << 20;

/// Canonical within-group rank of an appended endpoint. Finishes (class 0,
/// keyed by slot) precede starts (class 1, keyed by symbol).
type Rank = (u8, u32);

fn finish_rank(slot: u8) -> Rank {
    (0, u32::from(slot))
}

fn start_rank(symbol: SymbolId) -> Rank {
    (1, symbol.0)
}

/// A state's *horizon*: the earliest end group among its open bindings
/// (`u32::MAX` with none). Under postfix pruning a child whose new endpoint
/// group lies past its parent's horizon is dead — the binding that set the
/// horizon ended before the child's group — so the search never builds it.
#[inline]
fn horizon(seq: &SeqIndex, row: &[u32]) -> u32 {
    row.iter()
        .map(|&b| seq.endpoints.instance(b).end_group)
        .min()
        .unwrap_or(u32::MAX)
}

/// Whether an After extension from endpoint group `from` to the later group
/// `to` respects the gap constraint. The jump between consecutive pattern
/// sets is final once the later set is appended (growth is suffix-only), so
/// `apply` rejects a too-far jump at construction and the gather does not
/// count it.
#[inline]
fn gap_ok(seq: &SeqIndex, max_gap: Option<i64>, from: u32, to: u32) -> bool {
    match max_gap {
        None => true,
        Some(g) => seq.endpoints.group(to)[0].time - seq.endpoints.group(from)[0].time <= g,
    }
}

/// An open pattern slot: started, not yet finished.
#[derive(Debug, Clone, Copy)]
struct OpenSlot {
    slot: u8,
    symbol: SymbolId,
    /// Pattern group index of the slot's start endpoint.
    start_group: u16,
}

/// The contiguous range of a node's frontier columns holding one supporting
/// sequence's embedding states.
#[derive(Debug, Clone, Copy)]
struct SeqSpan {
    seq: u32,
    /// First state index (inclusive).
    lo: u32,
    /// One past the last state index.
    hi: u32,
}

/// Structure-of-arrays frontier shared by all of a node's embeddings.
///
/// State `i` is `(groups[i], first_groups[i],
/// bindings[i*width..(i+1)*width])`; `first_groups` is meaningful only
/// under a window constraint (0 otherwise, keeping deduplication exact in
/// the common unconstrained case). Within each [`SeqSpan`] the states are
/// sorted by exactly that tuple and deduplicated — the same order the old
/// per-state `Vec<EmbState>` layout maintained.
#[derive(Debug, Default)]
struct Frontier {
    /// Bindings per state — the node's open-slot count.
    width: usize,
    groups: Vec<u32>,
    first_groups: Vec<u32>,
    bindings: Vec<u32>,
    spans: Vec<SeqSpan>,
}

impl Frontier {
    fn state_count(&self) -> usize {
        self.groups.len()
    }

    fn bindings_of(&self, i: usize) -> &[u32] {
        &self.bindings[i * self.width..(i + 1) * self.width]
    }

    fn clear(&mut self) {
        self.width = 0;
        self.groups.clear();
        self.first_groups.clear();
        self.bindings.clear();
        self.spans.clear();
    }

    /// Logical size of the live columns (length-based, so it is
    /// deterministic across allocators) — the unit of the
    /// `arena_peak_bytes` stat.
    fn logical_bytes(&self) -> u64 {
        4 * (self.groups.len() + self.first_groups.len() + self.bindings.len()) as u64
            + (std::mem::size_of::<SeqSpan>() * self.spans.len()) as u64
    }
}

/// A search-tree node: pattern prefix plus projected database.
#[derive(Debug)]
struct Node {
    groups: Vec<Vec<PatternEndpoint>>,
    open: Vec<OpenSlot>,
    arity: u16,
    last_rank: Rank,
    /// Sorted distinct start symbols of the pattern, maintained
    /// incrementally as starts are appended (pair pruning reads this on
    /// every candidate symbol; recomputing it from `groups` per check was
    /// measurably hot).
    symbols: Vec<SymbolId>,
    frontier: Frontier,
}

impl Node {
    fn support(&self) -> usize {
        self.frontier.spans.len()
    }

    fn is_complete(&self) -> bool {
        self.open.is_empty()
    }

    /// Whether closing open slot `k` respects the canonical
    /// "close the lowest same-symbol co-started slot first" rule.
    fn finish_allowed(&self, k: usize) -> bool {
        let target = self.open[k];
        !self.open[..k]
            .iter()
            .any(|o| o.symbol == target.symbol && o.start_group == target.start_group)
    }
}

/// Dense, stamp-versioned scratch for candidate gathering, owned by the
/// engine and reused across every node expansion.
///
/// Extension codes index `ext_*`; `ext_seen[code] == seq_tag` means the
/// extension was already counted for the sequence currently being scanned
/// (the role the old per-sequence `HashSet<Ext>` played), and
/// `symbol_stamp[s] == node_tag` means the per-node symbol memo
/// (`symbol_meet`/`symbol_after`/`symbol_spans`) is valid for `s`.
/// Bumping a tag invalidates a whole array in O(1); the arrays themselves
/// are never cleared.
#[derive(Debug, Default)]
struct GatherScratch {
    ext_count: Vec<u32>,
    ext_seen: Vec<u64>,
    /// Distinct codes with a non-zero count this gather, in first-touch
    /// order (used to reset `ext_count` and to enumerate results).
    ext_touched: Vec<u32>,
    seq_tag: u64,
    node_tag: u64,
    /// Per-open-slot (MeetFinish, AfterFinish) admissibility for the
    /// current node.
    finish_adm: Vec<(bool, bool)>,
    symbol_meet: Vec<bool>,
    symbol_after: Vec<bool>,
    /// Under PT3, the spans of the current node in which the symbol still
    /// starts at or after the span's first state group.
    symbol_spans: Vec<u32>,
    symbol_stamp: Vec<u64>,
    /// `alphabet_stamp[s] == node_tag` means `s` is in the start alphabet
    /// the current node inherited (PT3 below a root).
    alphabet_stamp: Vec<u64>,
    /// Horizon of each state of the sequence span being scanned (indexed
    /// from the span's first state); all `u32::MAX` without postfix
    /// pruning.
    horizons: Vec<u32>,
}

impl GatherScratch {
    /// Grows the dense arrays to cover `universe` symbols. Fresh cells get
    /// stamp 0, which never matches a live tag (tags are pre-incremented
    /// before first use).
    fn ensure(&mut self, universe: usize) {
        let ext_len = FINISH_CODES + 2 * universe;
        if self.ext_count.len() < ext_len {
            self.ext_count.resize(ext_len, 0);
            self.ext_seen.resize(ext_len, 0);
        }
        if self.symbol_stamp.len() < universe {
            self.symbol_meet.resize(universe, false);
            self.symbol_after.resize(universe, false);
            self.symbol_spans.resize(universe, 0);
            self.symbol_stamp.resize(universe, 0);
            self.alphabet_stamp.resize(universe, 0);
        }
    }

    /// Counts `code` once per sequence (idempotent within the current
    /// `seq_tag`).
    fn mark(&mut self, code: usize) {
        if self.ext_seen[code] != self.seq_tag {
            self.ext_seen[code] = self.seq_tag;
            if self.ext_count[code] == 0 {
                self.ext_touched.push(code as u32);
            }
            self.ext_count[code] += 1;
        }
    }
}

/// Engine-owned columns for building one sequence's child states in
/// [`SearchEngine::apply`]; recycled across all projections.
#[derive(Debug, Default)]
struct ApplyScratch {
    groups: Vec<u32>,
    first_groups: Vec<u32>,
    bindings: Vec<u32>,
    /// Sort permutation over the surviving states.
    perm: Vec<u32>,
}

impl ApplyScratch {
    fn clear(&mut self) {
        self.groups.clear();
        self.first_groups.clear();
        self.bindings.clear();
        self.perm.clear();
    }

    /// Appends a state copying `row` minus the binding at `k` (a finish).
    fn push_without(&mut self, group: u32, first_group: u32, row: &[u32], k: usize) {
        self.groups.push(group);
        self.first_groups.push(first_group);
        self.bindings.extend_from_slice(&row[..k]);
        self.bindings.extend_from_slice(&row[k + 1..]);
    }

    /// Appends a state copying `row` plus a new trailing binding (a start).
    fn push_with(&mut self, group: u32, first_group: u32, row: &[u32], extra: u32) {
        self.groups.push(group);
        self.first_groups.push(first_group);
        self.bindings.extend_from_slice(row);
        self.bindings.push(extra);
    }
}

/// A deterministic fault-injection plan: panic at the `after_nodes`-th node
/// expansion once the subtree of `root` has been entered. Test-only (also
/// available behind the `fault-injection` feature for chaos drills).
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Root symbol whose level-1 subtree arms the countdown.
    pub root: SymbolId,
    /// Node expansions to survive after arming before panicking (1 panics
    /// on the first expansion of the poisoned root).
    pub after_nodes: u64,
}

/// The engine. Create with [`SearchEngine::new`], grow one claimed root
/// at a time with [`SearchEngine::try_grow_root`] and collect the patterns
/// and work counters with [`SearchEngine::finish`]; the work queue in
/// `parallel.rs` is the one driver.
pub struct SearchEngine<'a> {
    index: &'a DbIndex,
    config: MinerConfig,
    min_sup: usize,
    /// Dense symbol-id bound of the index (`SymbolId.0 < universe`).
    universe: usize,
    /// Global frequent-symbol bitset (PT3), indexed by symbol id: it
    /// gates a root's start scan, the projected alphabet every node below.
    /// `None` when the technique is off.
    frequent: Option<Vec<bool>>,
    /// Instrumentation counters.
    pub stats: MinerStats,
    emitted: Vec<(TemporalPattern, usize)>,
    /// Resource budget; checked before every node expansion.
    budget: MiningBudget,
    /// Set when a budget check trips; the search unwinds without further
    /// expansion and reports this status.
    stop: Option<Termination>,
    gather: GatherScratch,
    scratch: ApplyScratch,
    /// Released frontiers awaiting reuse (capacity retained).
    pool: Vec<Frontier>,
    /// Released start alphabets awaiting reuse (capacity retained).
    alphabets: Vec<Vec<SymbolId>>,
    /// Logical bytes of every frontier on the current DFS path; feeds
    /// `arena_peak_bytes`.
    live_arena_bytes: u64,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<FaultPlan>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault_countdown: Option<u64>,
}

impl<'a> SearchEngine<'a> {
    /// Prepares an engine over a prebuilt database index, with an unlimited
    /// budget.
    pub fn new(index: &'a DbIndex, config: MinerConfig) -> Self {
        let min_sup = config.effective_min_support();
        let universe = index.symbol_universe();
        let frequent = config.pruning.symbol_pruning.then(|| {
            let mut bits = vec![false; universe];
            for s in index.frequent_symbols(min_sup) {
                bits[s.0 as usize] = true;
            }
            bits
        });
        Self {
            index,
            config,
            min_sup,
            universe,
            frequent,
            stats: MinerStats::default(),
            emitted: Vec::new(),
            budget: MiningBudget::unlimited(),
            stop: None,
            gather: GatherScratch::default(),
            scratch: ApplyScratch::default(),
            pool: Vec::new(),
            alphabets: Vec::new(),
            live_arena_bytes: 0,
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
            #[cfg(any(test, feature = "fault-injection"))]
            fault_countdown: None,
        }
    }

    /// Attaches a resource budget. The engine checks it cooperatively
    /// before every node expansion: the cancellation token, the node
    /// counter and, when one is set, the wall-clock deadline.
    pub fn with_budget(mut self, budget: MiningBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms deterministic fault injection: the engine panics at the
    /// `after_nodes`-th node expansion after entering the subtree of
    /// `root`. Used to prove that a parallel run survives a poisoned
    /// worker.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn poison_root(mut self, root: SymbolId, after_nodes: u64) -> Self {
        self.fault = Some(FaultPlan { root, after_nodes });
        self
    }

    /// Whether a budget check has tripped; once true, further root growth
    /// is a no-op, so queue-driven callers should drain without claiming
    /// more work.
    pub fn stopped(&self) -> bool {
        self.stop.is_some()
    }

    /// Expands one root's subtree, catching a panic inside it. On panic the
    /// engine stays usable for further roots: patterns emitted by the
    /// poisoned subtree are rolled back (their DFS was cut short, so
    /// keeping a prefix would silently under-report the subtree) and
    /// `false` is returned so the caller can record the root as failed.
    /// Work counters keep whatever the subtree managed before dying.
    pub fn try_grow_root(&mut self, root: SymbolId) -> bool {
        let checkpoint = self.emitted.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.grow_root(root);
        }));
        match outcome {
            Ok(()) => true,
            Err(_panic) => {
                self.emitted.truncate(checkpoint);
                // The unwound subtree's frontiers are gone (and any
                // mid-flight scratch was dropped): reset the live-bytes
                // ledger, which is empty between roots by construction.
                self.live_arena_bytes = 0;
                #[cfg(any(test, feature = "fault-injection"))]
                {
                    self.fault_countdown = None;
                }
                false
            }
        }
    }

    /// Consumes the engine, extracting the result triple (unsorted; the
    /// work queue's merge sorts).
    pub fn finish(mut self) -> (Vec<(TemporalPattern, usize)>, MinerStats, Termination) {
        let termination = self.stop.take().unwrap_or_default();
        (self.emitted, self.stats, termination)
    }

    /// Expands the level-1 subtree of `symbol`; a no-op once a budget
    /// check has tripped.
    fn grow_root(&mut self, symbol: SymbolId) {
        if self.stop.is_some() {
            return;
        }
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(fault) = self.fault {
            if fault.root == symbol {
                self.fault_countdown = Some(fault.after_nodes);
            }
        }
        let root = self.make_root(symbol);
        if root.support() >= self.min_sup {
            self.expand(root, None);
        } else {
            self.release(root);
        }
    }

    /// Accounts a freshly built frontier against the live-arena ledger.
    fn charge(&mut self, frontier: &Frontier) {
        self.live_arena_bytes += frontier.logical_bytes();
        self.stats.arena_peak_bytes = self.stats.arena_peak_bytes.max(self.live_arena_bytes);
    }

    /// Retires a node, recycling its frontier's allocations.
    fn release(&mut self, node: Node) {
        let mut frontier = node.frontier;
        self.live_arena_bytes = self
            .live_arena_bytes
            .saturating_sub(frontier.logical_bytes());
        frontier.clear();
        if self.pool.len() < POOL_CAP {
            self.pool.push(frontier);
        }
    }

    fn make_root(&mut self, symbol: SymbolId) -> Node {
        let index = self.index;
        let windowed = self.config.max_window.is_some();
        let mut frontier = self.pool.pop().unwrap_or_default();
        frontier.width = 1;
        // Only the root's postings can contribute states, so the seed costs
        // the sequences the symbol occurs in, not the whole database.
        for &seq_id in index.postings(symbol) {
            let seq = &index.sequences[seq_id as usize];
            let lo = frontier.groups.len() as u32;
            for &i in seq.instances_of(symbol) {
                let group = seq.endpoints.instance(i).start_group;
                frontier.groups.push(group);
                frontier.first_groups.push(if windowed { group } else { 0 });
                frontier.bindings.push(i);
            }
            let hi = frontier.groups.len() as u32;
            self.stats.states_created += u64::from(hi - lo);
            frontier.spans.push(SeqSpan {
                seq: seq_id,
                lo,
                hi,
            });
        }
        self.charge(&frontier);
        Node {
            groups: vec![vec![PatternEndpoint {
                kind: EndpointKind::Start,
                symbol,
                slot: 0,
            }]],
            open: vec![OpenSlot {
                slot: 0,
                symbol,
                start_group: 0,
            }],
            arity: 1,
            last_rank: start_rank(symbol),
            symbols: vec![symbol],
            frontier,
        }
    }

    /// Depth-first expansion of a node whose support already passed the
    /// threshold. Consumes the node; its frontier returns to the pool on
    /// every exit path. `alphabet` is the sorted set of symbols the node
    /// may start with, inherited from its parent (`None` at a root and
    /// with PT3 off).
    ///
    /// Budget checks happen *before* any work on the node: a tripped budget
    /// unwinds without emitting, so every emitted pattern's support comes
    /// from a fully materialized projection and is exact even in truncated
    /// runs (the soundness-under-truncation invariant).
    fn expand(&mut self, node: Node, alphabet: Option<&[SymbolId]>) {
        if self.stop.is_some() {
            self.release(node);
            return;
        }
        if let Err(termination) = self.budget.on_node() {
            self.stop = Some(termination);
            self.release(node);
            return;
        }
        #[cfg(any(test, feature = "fault-injection"))]
        self.fault_tick();
        self.stats.nodes_explored += 1;
        let node_states = node.frontier.state_count() as u64;
        self.stats.peak_node_states = self.stats.peak_node_states.max(node_states);

        if node.is_complete() {
            #[expect(
                clippy::expect_used,
                reason = "enumeration emits only canonical well-formed prefixes; failure here is a search-invariant break, not recoverable input"
            )]
            let pattern = TemporalPattern::from_groups(node.groups.clone())
                .expect("generated prefixes are well-formed");
            debug_assert_eq!(
                pattern.groups(),
                &node.groups[..],
                "generation order must already be canonical"
            );
            self.stats.patterns_emitted += 1;
            self.emitted.push((pattern, node.support()));
        }

        let mut next = self.alphabets.pop().unwrap_or_default();
        let (total, mut candidates) = self.gather_candidates(&node, alphabet, &mut next);
        self.stats.candidates_counted += total as u64;
        candidates.sort_unstable();
        next.sort_unstable();
        let inherited = self.frequent.is_some().then_some(next.as_slice());

        for ext in candidates {
            if self.stop.is_some() {
                break;
            }
            let child = self.apply(&node, ext);
            if child.support() >= self.min_sup {
                self.expand(child, inherited);
            } else {
                self.stats.children_infrequent += 1;
                self.release(child);
            }
        }
        self.release(node);
        next.clear();
        if self.alphabets.len() < POOL_CAP {
            self.alphabets.push(next);
        }
    }

    /// Decrements the armed fault countdown, panicking when it reaches the
    /// poisoned expansion.
    #[cfg(any(test, feature = "fault-injection"))]
    #[expect(
        clippy::panic,
        reason = "the test-only fault hook panics on purpose to exercise worker isolation"
    )]
    fn fault_tick(&mut self) {
        if let Some(countdown) = self.fault_countdown.as_mut() {
            if *countdown <= 1 {
                panic!("fault injection: poisoned root reached its target expansion");
            }
            *countdown -= 1;
        }
    }

    /// Node-level structural admissibility of an extension (canonical-form
    /// gates and size limits); independent of any particular sequence.
    fn ext_admissible(&self, node: &Node, ext: Ext) -> bool {
        match ext {
            Ext::MeetFinish(k) | Ext::AfterFinish(k) => {
                if !node.finish_allowed(k as usize) {
                    return false;
                }
                if matches!(ext, Ext::MeetFinish(_))
                    && finish_rank(node.open[k as usize].slot) <= node.last_rank
                {
                    return false;
                }
                true
            }
            Ext::MeetStart(s) | Ext::AfterStart(s) => {
                if let Some(max) = self.config.max_arity {
                    if usize::from(node.arity) >= max {
                        return false;
                    }
                }
                if node.arity as usize >= u8::MAX as usize {
                    return false;
                }
                if matches!(ext, Ext::MeetStart(_)) {
                    let r = start_rank(s);
                    // within a group starts must come in non-decreasing
                    // symbol order; equal rank (same symbol) is allowed.
                    if r < node.last_rank {
                        return false;
                    }
                    if r == node.last_rank && node.last_rank.0 != 1 {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Pair-pruning check (PT1) plus frequent-symbol filter (PT3) for
    /// start extensions by `s`; callers memoize the verdict per node.
    fn start_symbol_ok(&mut self, pattern_symbols: &[SymbolId], s: SymbolId) -> bool {
        if let Some(frequent) = &self.frequent {
            if !frequent.get(s.0 as usize).copied().unwrap_or(false) {
                self.stats.exts_pruned_symbol += 1;
                return false;
            }
        }
        if self.config.pruning.pair_pruning {
            for &y in pattern_symbols {
                if (self.index.cooccurrence(y, s) as usize) < self.min_sup {
                    self.stats.exts_pruned_pair += 1;
                    return false;
                }
            }
        }
        true
    }

    /// Counts, for every admissible extension, the number of sequences with
    /// at least one embedding admitting it. Returns the number of distinct
    /// supported extensions (the `candidates_counted` charge) and the
    /// subset meeting `min_sup`, unsorted.
    ///
    /// The start scan walks each sequence's symbols in descending
    /// last-start order. Under PT3 it visits only symbols of `alphabet`
    /// (every symbol when `None`) that still start at or after the span's
    /// first state group, stopping at the first that does not, and pushes
    /// into `next`, unsorted, the ones that do so in `min_sup` spans with
    /// `AfterStart` admissible: the node's children may start with no
    /// other symbol. With PT3 off, `alphabet` is `None`, every symbol is
    /// visited and `next` stays empty.
    fn gather_candidates(
        &mut self,
        node: &Node,
        alphabet: Option<&[SymbolId]>,
        next: &mut Vec<SymbolId>,
    ) -> (usize, Vec<Ext>) {
        let mut g = std::mem::take(&mut self.gather);
        g.ensure(self.universe);
        for &code in &g.ext_touched {
            g.ext_count[code as usize] = 0;
        }
        g.ext_touched.clear();
        g.node_tag += 1;
        for &s in alphabet.unwrap_or_default() {
            g.alphabet_stamp[s.0 as usize] = g.node_tag;
        }

        // Precompute node-level admissibility of the (small) finish space.
        g.finish_adm.clear();
        for k in 0..node.open.len() as u8 {
            g.finish_adm.push((
                self.ext_admissible(node, Ext::MeetFinish(k)),
                self.ext_admissible(node, Ext::AfterFinish(k)),
            ));
        }

        // Extension-major scan: for each candidate extension, walk the
        // sequence's states only until one admits it (a sequence counts
        // each extension at most once, so the first witness settles it).
        // This is the same mark set the old state-major scan produced —
        // marks are monotone and per-sequence — but the inner loop usually
        // stops at the first state instead of revisiting every extension
        // for every state. Under postfix pruning an After witness counts
        // only if its child state would be live: its new endpoint group
        // lies at or before the state's horizon, and under a gap
        // constraint only if its jump passes the same `gap_ok` test `apply`
        // uses. Either test needs only the nearest new endpoint: a later one
        // lies further past the horizon and further from the state's group.
        let index = self.index;
        let postfix = self.config.pruning.postfix_pruning;
        let max_gap = self.config.max_gap;
        let projected = self.frequent.is_some();
        let frontier = &node.frontier;
        for &span in &frontier.spans {
            g.seq_tag += 1;
            let seq = &index.sequences[span.seq as usize];
            let states = span.lo as usize..span.hi as usize;
            g.horizons.clear();
            g.horizons.extend(states.clone().map(|i| {
                if postfix {
                    horizon(seq, frontier.bindings_of(i))
                } else {
                    u32::MAX
                }
            }));
            // Finish candidates.
            for k in 0..g.finish_adm.len() {
                let (meet_adm, after_adm) = g.finish_adm[k];
                let (mut need_meet, mut need_after) = (meet_adm, after_adm);
                for i in states.clone() {
                    if !need_meet && !need_after {
                        break;
                    }
                    let group = frontier.groups[i];
                    let end_group = seq
                        .endpoints
                        .instance(frontier.bindings[i * frontier.width + k])
                        .end_group;
                    if end_group == group {
                        if need_meet {
                            g.mark(2 * k);
                            need_meet = false;
                        }
                    } else if end_group > group
                        && need_after
                        && end_group <= g.horizons[i - span.lo as usize]
                        && gap_ok(seq, max_gap, group, end_group)
                    {
                        g.mark(2 * k + 1);
                        need_after = false;
                    }
                }
            }
            // Start candidates, slots in descending last-start order. Under
            // PT3 the scan stops at the first slot whose last start precedes
            // the span's first state: states run in ascending group order,
            // so none of them can witness that symbol or any later one. It
            // also skips a symbol outside the alphabet, which cannot reach
            // `min_sup` below the ancestor that dropped it. Both tests come
            // before the memo, so the memo is filled for the same symbols
            // in any visiting order.
            let first_group = frontier.groups[span.lo as usize];
            for &slot in seq.slots_by_last_start() {
                let slot = slot as usize;
                let last_start = seq.slot_last_start(slot);
                if projected && last_start < first_group {
                    break;
                }
                let s = seq.symbols_sorted()[slot];
                let si = s.0 as usize;
                if alphabet.is_some() && g.alphabet_stamp[si] != g.node_tag {
                    continue;
                }
                if g.symbol_stamp[si] != g.node_tag {
                    g.symbol_stamp[si] = g.node_tag;
                    let ok = self.start_symbol_ok(&node.symbols, s);
                    g.symbol_meet[si] = ok && self.ext_admissible(node, Ext::MeetStart(s));
                    g.symbol_after[si] = ok && self.ext_admissible(node, Ext::AfterStart(s));
                    g.symbol_spans[si] = 0;
                }
                if projected {
                    // MeetStart admissibility implies AfterStart's, so an
                    // inadmissible AfterStart leaves nothing to scan.
                    if !g.symbol_after[si] {
                        continue;
                    }
                    g.symbol_spans[si] += 1;
                    if g.symbol_spans[si] as usize == self.min_sup {
                        next.push(s);
                    }
                }
                let meet_code = FINISH_CODES + 2 * si;
                let (mut need_meet, mut need_after) = (g.symbol_meet[si], g.symbol_after[si]);
                let (ids, starts) = (seq.slot_instances(slot), seq.slot_starts(slot));
                // `ids[at..after]` start exactly at the state's group. States
                // ascend by group, so both cursors only move forward.
                let (mut at, mut after) = (0, 0);
                for i in states.clone() {
                    let group = frontier.groups[i];
                    // Once a state lies past the symbol's last start, no
                    // later one can witness either extension.
                    if (!need_meet && !need_after) || group > last_start {
                        break;
                    }
                    // `group <= last_start`, the last entry of `starts`, so
                    // `at` stays in bounds.
                    while starts[at] < group {
                        at += 1;
                    }
                    after = after.max(at);
                    while after < starts.len() && starts[after] <= group {
                        after += 1;
                    }
                    if need_after
                        && starts.get(after).is_some_and(|&start| {
                            start <= g.horizons[i - span.lo as usize]
                                && gap_ok(seq, max_gap, group, start)
                        })
                    {
                        g.mark(meet_code + 1);
                        need_after = false;
                    }
                    if need_meet {
                        let row = frontier.bindings_of(i);
                        if ids[at..after].iter().any(|inst| !row.contains(inst)) {
                            g.mark(meet_code);
                            need_meet = false;
                        }
                    }
                }
            }
        }

        let total = g.ext_touched.len();
        let mut candidates = Vec::new();
        for &code in &g.ext_touched {
            if g.ext_count[code as usize] as usize >= self.min_sup {
                candidates.push(decode_ext(code as usize));
            }
        }
        self.gather = g;
        (total, candidates)
    }

    /// Builds the child node for `ext`.
    fn apply(&mut self, node: &Node, ext: Ext) -> Node {
        // --- pattern bookkeeping ---
        let mut groups = node.groups.clone();
        let mut open = node.open.clone();
        let mut symbols = node.symbols.clone();
        let mut arity = node.arity;
        let last_rank;

        match ext {
            Ext::MeetFinish(k) | Ext::AfterFinish(k) => {
                let slot = open[k as usize];
                let endpoint = PatternEndpoint {
                    kind: EndpointKind::Finish,
                    symbol: slot.symbol,
                    slot: slot.slot,
                };
                // Meet joins the last group; After opens a new one. Meet
                // extensions are only generated for non-empty prefixes, so
                // the fallback arm can only fire for After.
                debug_assert!(!matches!(ext, Ext::MeetFinish(_)) || !groups.is_empty());
                match groups.last_mut() {
                    Some(last) if matches!(ext, Ext::MeetFinish(_)) => last.push(endpoint),
                    _ => groups.push(vec![endpoint]),
                }
                last_rank = finish_rank(slot.slot);
                open.remove(k as usize);
            }
            Ext::MeetStart(s) | Ext::AfterStart(s) => {
                let slot = arity as u8;
                let endpoint = PatternEndpoint {
                    kind: EndpointKind::Start,
                    symbol: s,
                    slot,
                };
                debug_assert!(!matches!(ext, Ext::MeetStart(_)) || !groups.is_empty());
                match groups.last_mut() {
                    Some(last) if matches!(ext, Ext::MeetStart(_)) => last.push(endpoint),
                    _ => groups.push(vec![endpoint]),
                }
                last_rank = start_rank(s);
                open.push(OpenSlot {
                    slot,
                    symbol: s,
                    start_group: (groups.len() - 1) as u16,
                });
                arity += 1;
                if let Err(pos) = symbols.binary_search(&s) {
                    symbols.insert(pos, s);
                }
            }
        }

        // --- frontier projection ---
        let index = self.index;
        let postfix = self.config.pruning.postfix_pruning;
        let max_gap = self.config.max_gap;
        let max_window = self.config.max_window;
        let cw = open.len(); // child binding width
        let parent = &node.frontier;
        // Children the horizon kept from being built (`states_pruned_dead`).
        let mut dead = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        let pooled = !self.pool.is_empty();
        let mut child = self.pool.pop().unwrap_or_default();
        let caps = (
            child.groups.capacity(),
            child.first_groups.capacity(),
            child.bindings.capacity(),
            child.spans.capacity(),
        );
        child.width = cw;

        for &span in &parent.spans {
            let seq = &index.sequences[span.seq as usize];
            scratch.clear();
            let states = span.lo as usize..span.hi as usize;
            match ext {
                Ext::MeetFinish(k) => {
                    let k = k as usize;
                    for i in states {
                        let group = parent.groups[i];
                        let row = parent.bindings_of(i);
                        if seq.endpoints.instance(row[k]).end_group == group {
                            scratch.push_without(group, parent.first_groups[i], row, k);
                        }
                    }
                }
                Ext::AfterFinish(k) => {
                    let k = k as usize;
                    for i in states {
                        let group = parent.groups[i];
                        let row = parent.bindings_of(i);
                        let end_group = seq.endpoints.instance(row[k]).end_group;
                        if end_group <= group {
                            continue;
                        }
                        if postfix && end_group > horizon(seq, row) {
                            dead += 1;
                            continue;
                        }
                        if gap_ok(seq, max_gap, group, end_group) {
                            scratch.push_without(end_group, parent.first_groups[i], row, k);
                        }
                    }
                }
                Ext::MeetStart(s) => {
                    if let Some(slot) = seq.symbol_slot(s) {
                        for i in states {
                            let group = parent.groups[i];
                            let row = parent.bindings_of(i);
                            for &inst in seq.slot_instances_starting_at(slot, group) {
                                if !row.contains(&inst) {
                                    scratch.push_with(group, parent.first_groups[i], row, inst);
                                }
                            }
                        }
                    }
                }
                Ext::AfterStart(s) => {
                    if let Some(slot) = seq.symbol_slot(s) {
                        let starts = seq.slot_starts(slot);
                        for i in states {
                            let group = parent.groups[i];
                            let row = parent.bindings_of(i);
                            let after = seq.slot_instances_starting_after(slot, group);
                            let after_starts = &starts[starts.len() - after.len()..];
                            let limit = if postfix && !after.is_empty() {
                                horizon(seq, row)
                            } else {
                                u32::MAX
                            };
                            for (j, (&inst, &start_group)) in
                                after.iter().zip(after_starts).enumerate()
                            {
                                if start_group > limit {
                                    // instances are sorted by start group, so
                                    // every later one starts past the horizon
                                    dead += (after.len() - j) as u64;
                                    break;
                                }
                                if !gap_ok(seq, max_gap, group, start_group) {
                                    // instances are sorted by start group, so
                                    // every later one also violates the gap
                                    break;
                                }
                                scratch.push_with(start_group, parent.first_groups[i], row, inst);
                            }
                        }
                    }
                }
            }

            // Postfix pruning already happened above: a Meet child keeps
            // its parent's group, and the horizon stopped every After child
            // whose group would pass an open binding's end. No built state
            // is dead.
            debug_assert!(
                !postfix
                    || (0..scratch.groups.len()).all(|i| scratch.bindings[i * cw..(i + 1) * cw]
                        .iter()
                        .all(|&b| seq.endpoints.instance(b).end_group >= scratch.groups[i])),
                "the horizon cuts left a dead state"
            );
            // Window constraint: the final embedding's span is already
            // lower bounded by the current set's time and the concrete ends
            // of all bound open instances, so states that cannot fit are
            // dropped, compacting the columns in place.
            if let Some(w) = max_window {
                let mut write = 0usize;
                for read in 0..scratch.groups.len() {
                    let group = scratch.groups[read];
                    let row = read * cw..(read + 1) * cw;
                    let first_time = seq.endpoints.group(scratch.first_groups[read])[0].time;
                    let mut latest = seq.endpoints.group(group)[0].time;
                    for &b in &scratch.bindings[row.clone()] {
                        latest = latest.max(seq.endpoints.instance(b).end);
                    }
                    if latest - first_time > w {
                        continue;
                    }
                    if write != read {
                        scratch.groups[write] = group;
                        scratch.first_groups[write] = scratch.first_groups[read];
                        scratch.bindings.copy_within(row, write * cw);
                    }
                    write += 1;
                }
                scratch.groups.truncate(write);
                scratch.first_groups.truncate(write);
                scratch.bindings.truncate(write * cw);
            }

            // Sort by (group, first_group, bindings) — the old EmbState
            // order — then write out deduplicated, stopping at the cap. A
            // span that built nothing has nothing to write, and one state
            // is already in order.
            let built = scratch.groups.len();
            if built == 0 {
                continue;
            }
            scratch.perm.clear();
            scratch.perm.extend(0..built as u32);
            if built > 1 {
                let (sg, sf, sb) = (&scratch.groups, &scratch.first_groups, &scratch.bindings);
                scratch.perm.sort_unstable_by(|&a, &b| {
                    let (a, b) = (a as usize, b as usize);
                    (sg[a], sf[a], &sb[a * cw..(a + 1) * cw]).cmp(&(
                        sg[b],
                        sf[b],
                        &sb[b * cw..(b + 1) * cw],
                    ))
                });
            }
            let lo = child.groups.len() as u32;
            let mut written = 0usize;
            for &p in &scratch.perm {
                let p = p as usize;
                let row = &scratch.bindings[p * cw..(p + 1) * cw];
                if written > 0 {
                    let last = child.groups.len() - 1;
                    if child.groups[last] == scratch.groups[p]
                        && child.first_groups[last] == scratch.first_groups[p]
                        && &child.bindings[last * cw..(last + 1) * cw] == row
                    {
                        continue;
                    }
                }
                if written == FRONTIER_CAP {
                    self.stats.frontier_cap_hits += 1;
                    break;
                }
                child.groups.push(scratch.groups[p]);
                child.first_groups.push(scratch.first_groups[p]);
                child.bindings.extend_from_slice(row);
                written += 1;
            }
            if written > 0 {
                self.stats.states_created += written as u64;
                child.spans.push(SeqSpan {
                    seq: span.seq,
                    lo,
                    hi: lo + written as u32,
                });
            }
        }

        if pooled
            && child.groups.capacity() == caps.0
            && child.first_groups.capacity() == caps.1
            && child.bindings.capacity() == caps.2
            && child.spans.capacity() == caps.3
        {
            self.stats.scratch_reuse_hits += 1;
        }
        self.stats.states_pruned_dead += dead;
        self.scratch = scratch;
        self.charge(&child);

        Node {
            groups,
            open,
            arity,
            last_rank,
            symbols,
            frontier: child,
        }
    }
}

/// Inverse of the dense extension-code layout used by [`GatherScratch`].
#[expect(
    clippy::manual_is_multiple_of,
    reason = "usize::is_multiple_of needs Rust 1.87; the `%` form builds on older toolchains"
)]
fn decode_ext(code: usize) -> Ext {
    if code < FINISH_CODES {
        let k = (code / 2) as u8;
        if code % 2 == 0 {
            Ext::MeetFinish(k)
        } else {
            Ext::AfterFinish(k)
        }
    } else {
        let c = code - FINISH_CODES;
        let s = SymbolId((c / 2) as u32);
        if c % 2 == 0 {
            Ext::MeetStart(s)
        } else {
            Ext::AfterStart(s)
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the tests check results against hash sets; the hash-free rule covers the search itself"
)]
mod tests {
    use super::*;
    use crate::TpMiner;
    use interval_core::{
        matcher, DatabaseBuilder, IntervalDatabase, MatchConstraints, SymbolTable,
    };
    use std::collections::HashSet;

    fn mine(db: &IntervalDatabase, config: MinerConfig) -> Vec<(TemporalPattern, usize)> {
        TpMiner::new(config)
            .mine(db)
            .into_patterns()
            .into_iter()
            .map(|fp| (fp.pattern, fp.support))
            .collect()
    }

    fn pat(text: &str, t: &mut SymbolTable) -> TemporalPattern {
        TemporalPattern::parse(text, t).unwrap()
    }

    #[test]
    fn mines_singletons() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 5);
        b.sequence().interval("A", 1, 3).interval("B", 0, 2);
        let db = b.build();
        let result = mine(&db, MinerConfig::with_min_support(2));
        assert_eq!(result.len(), 1);
        let mut t = db.symbols().clone();
        assert_eq!(result[0].0, pat("A+ | A-", &mut t));
        assert_eq!(result[0].1, 2);
    }

    #[test]
    fn mines_overlap_pattern() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 5).interval("B", 3, 8);
        b.sequence().interval("A", 10, 20).interval("B", 15, 30);
        let db = b.build();
        let result = mine(&db, MinerConfig::with_min_support(2));
        let mut t = db.symbols().clone();
        let overlap = pat("A+ | B+ | A- | B-", &mut t);
        let found: Vec<&TemporalPattern> = result.iter().map(|(p, _)| p).collect();
        assert!(found.contains(&&overlap), "found: {found:?}");
        // A, B, A-overlaps-B: exactly 3 frequent patterns
        assert_eq!(result.len(), 3);
        for (_, sup) in &result {
            assert_eq!(*sup, 2);
        }
    }

    #[test]
    fn distinguishes_meets_from_overlaps() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 5).interval("B", 5, 8);
        b.sequence().interval("A", 0, 5).interval("B", 5, 9);
        let db = b.build();
        let result = mine(&db, MinerConfig::with_min_support(2));
        let mut t = db.symbols().clone();
        let meets = pat("A+ | A- B+ | B-", &mut t);
        let overlaps = pat("A+ | B+ | A- | B-", &mut t);
        let found: Vec<&TemporalPattern> = result.iter().map(|(p, _)| p).collect();
        assert!(found.contains(&&meets));
        assert!(!found.contains(&&overlaps));
    }

    #[test]
    fn supports_match_oracle_exhaustively() {
        // Dense little database with repeated symbols and ties.
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 4)
            .interval("B", 2, 6)
            .interval("A", 5, 9);
        b.sequence()
            .interval("A", 0, 9)
            .interval("B", 1, 3)
            .interval("A", 1, 3);
        b.sequence().interval("B", 0, 2).interval("A", 2, 4);
        let db = b.build();
        let result = mine(&db, MinerConfig::with_min_support(1));
        assert!(!result.is_empty());
        let mut seen = HashSet::new();
        for (p, sup) in &result {
            assert!(seen.insert(p.clone()), "duplicate pattern {p:?}");
            assert_eq!(
                matcher::support(&db, p),
                *sup,
                "support mismatch for {}",
                p.display(db.symbols())
            );
        }
    }

    #[test]
    fn pruning_configs_agree() {
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 4)
            .interval("B", 2, 6)
            .interval("C", 5, 7);
        b.sequence()
            .interval("A", 0, 4)
            .interval("B", 2, 6)
            .interval("A", 3, 9);
        b.sequence().interval("C", 0, 2).interval("B", 1, 5);
        b.sequence().interval("A", 0, 2).interval("B", 0, 2);
        let db = b.build();
        for min_sup in 1..=3 {
            let with = mine(
                &db,
                MinerConfig::with_min_support(min_sup).pruning(crate::PruningConfig::all()),
            );
            let without = mine(
                &db,
                MinerConfig::with_min_support(min_sup).pruning(crate::PruningConfig::none()),
            );
            assert_eq!(with, without, "min_sup={min_sup}");
        }
    }

    #[test]
    fn repeated_symbol_crossing_is_mined() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 2).interval("A", 1, 3);
        b.sequence().interval("A", 5, 8).interval("A", 6, 9);
        let db = b.build();
        let result = mine(&db, MinerConfig::with_min_support(2));
        let mut t = db.symbols().clone();
        let crossing = pat("A+#0 | A+#1 | A-#0 | A-#1", &mut t);
        let found: Vec<&TemporalPattern> = result.iter().map(|(p, _)| p).collect();
        assert!(found.contains(&&crossing), "found: {found:?}");
    }

    #[test]
    fn max_arity_limits_pattern_size() {
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 2)
            .interval("B", 3, 5)
            .interval("C", 6, 8);
        let db = b.build();
        let result = mine(&db, MinerConfig::with_min_support(1).max_arity(2));
        assert!(result.iter().all(|(p, _)| p.arity() <= 2));
        assert!(result.iter().any(|(p, _)| p.arity() == 2));
    }

    #[test]
    fn simultaneous_starts_are_one_canonical_pattern() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 5).interval("B", 0, 5);
        b.sequence().interval("A", 2, 9).interval("B", 2, 9);
        let db = b.build();
        let result = mine(&db, MinerConfig::with_min_support(2));
        let mut t = db.symbols().clone();
        let equals = pat("A+ B+ | A- B-", &mut t);
        let two: Vec<&TemporalPattern> = result
            .iter()
            .filter(|(p, _)| p.arity() == 2)
            .map(|(p, _)| p)
            .collect();
        assert_eq!(two, vec![&equals]);
    }

    #[test]
    fn empty_database_mines_nothing() {
        let db = IntervalDatabase::new();
        assert!(mine(&db, MinerConfig::with_min_support(1)).is_empty());
    }

    #[test]
    fn window_constraint_limits_supports() {
        let mut b = DatabaseBuilder::new();
        // "A before B" tight in one sequence, wide in the other.
        b.sequence().interval("A", 0, 2).interval("B", 4, 6);
        b.sequence().interval("A", 0, 2).interval("B", 50, 60);
        let db = b.build();
        let mut t = db.symbols().clone();
        let before = pat("A+ | A- | B+ | B-", &mut t);

        let unconstrained = mine(&db, MinerConfig::with_min_support(1));
        assert!(unconstrained.iter().any(|(p, s)| p == &before && *s == 2));

        let windowed = mine(&db, MinerConfig::with_min_support(1).max_window(10));
        let found = windowed.iter().find(|(p, _)| p == &before);
        assert_eq!(
            found.map(|(_, s)| *s),
            Some(1),
            "only the tight embedding fits"
        );
        // Window-constrained supports agree with the oracle for every
        // emitted pattern.
        for (p, s) in &windowed {
            assert_eq!(
                matcher::support_constrained(&db, p, MatchConstraints::window(10)),
                *s,
                "window support mismatch for {}",
                p.display(db.symbols())
            );
        }
    }

    #[test]
    fn gap_constraint_limits_jumps() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 2).interval("B", 4, 6); // gap 2
        b.sequence().interval("A", 0, 2).interval("B", 40, 44); // gap 38
        let db = b.build();
        let mut t = db.symbols().clone();
        let before = pat("A+ | A- | B+ | B-", &mut t);

        let gapped = mine(&db, MinerConfig::with_min_support(1).max_gap(2));
        let found = gapped.iter().find(|(p, _)| p == &before);
        assert_eq!(found.map(|(_, s)| *s), Some(1));
        for (p, s) in &gapped {
            assert_eq!(
                matcher::support_constrained(
                    &db,
                    p,
                    interval_core::matcher::MatchConstraints::gap(2)
                ),
                *s,
                "gap support mismatch for {}",
                p.display(db.symbols())
            );
        }
    }

    #[test]
    fn gap_bridging_pattern_is_found() {
        // A..B..C chains within gap 2, while A..C alone jumps 4: the miner
        // must still reach the bridged 3-pattern (prefix growth keeps all
        // its consecutive jumps small).
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 2)
            .interval("B", 3, 5)
            .interval("C", 6, 8);
        let db = b.build();
        let mut t = db.symbols().clone();
        let ac = pat("A+ | A- | C+ | C-", &mut t);
        let abc = pat("A+ | A- | B+ | B- | C+ | C-", &mut t);
        let gapped = mine(&db, MinerConfig::with_min_support(1).max_gap(2));
        assert!(!gapped.iter().any(|(p, _)| p == &ac));
        assert!(gapped.iter().any(|(p, _)| p == &abc), "got: {gapped:?}");
    }

    #[test]
    fn window_excludes_long_singletons() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 100);
        b.sequence().interval("A", 0, 3);
        let db = b.build();
        let windowed = mine(&db, MinerConfig::with_min_support(2).max_window(5));
        assert!(
            windowed.is_empty(),
            "the 100-tick A cannot fit a 5-tick window"
        );
        let loose = mine(&db, MinerConfig::with_min_support(2).max_window(100));
        assert_eq!(loose.len(), 1);
    }

    #[test]
    fn ext_codes_round_trip() {
        let exts = [
            Ext::MeetFinish(0),
            Ext::AfterFinish(0),
            Ext::MeetFinish(200),
            Ext::AfterFinish(255),
            Ext::MeetStart(SymbolId(0)),
            Ext::AfterStart(SymbolId(0)),
            Ext::MeetStart(SymbolId(97)),
            Ext::AfterStart(SymbolId(4096)),
        ];
        for ext in exts {
            let code = match ext {
                Ext::MeetFinish(k) => 2 * k as usize,
                Ext::AfterFinish(k) => 2 * k as usize + 1,
                Ext::MeetStart(s) => FINISH_CODES + 2 * s.0 as usize,
                Ext::AfterStart(s) => FINISH_CODES + 2 * s.0 as usize + 1,
            };
            assert_eq!(decode_ext(code), ext);
        }
    }

    #[test]
    fn arena_stats_are_populated() {
        let mut b = DatabaseBuilder::new();
        for _ in 0..4 {
            b.sequence()
                .interval("A", 0, 4)
                .interval("B", 2, 6)
                .interval("C", 5, 9);
        }
        let db = b.build();
        let result = TpMiner::new(MinerConfig::with_min_support(4)).mine(&db);
        assert!(!result.is_empty());
        let stats = result.stats();
        assert!(stats.arena_peak_bytes > 0, "arena ledger never charged");
        assert!(
            stats.scratch_reuse_hits > 0,
            "frontier pool never produced a clean reuse"
        );
    }

    #[test]
    fn try_grow_root_rolls_back_poisoned_roots_only() {
        let mut b = DatabaseBuilder::new();
        for _ in 0..3 {
            b.sequence().interval("A", 0, 4).interval("B", 6, 9);
        }
        let db = b.build();
        let index = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b_sym = db.symbols().lookup("B").unwrap();

        let mut engine =
            SearchEngine::new(&index, MinerConfig::with_min_support(3)).poison_root(a, 1);
        assert!(engine.try_grow_root(b_sym), "healthy root must succeed");
        assert!(
            !engine.try_grow_root(a),
            "poisoned root must report failure"
        );
        let (emitted, _, termination) = engine.finish();
        assert_eq!(termination, Termination::Complete);
        // Everything B-rooted survives; nothing A-rooted leaked out of the
        // rolled-back subtree.
        assert!(!emitted.is_empty());
        let t = db.symbols();
        assert!(emitted
            .iter()
            .all(|(p, _)| !p.display(t).to_string().contains('A')));
    }

    #[test]
    fn projected_alphabet_drops_symbols_that_start_too_early() {
        // C co-occurs with A in three sequences, so pair pruning keeps it,
        // but only in the third does a C start after A's. E is globally
        // frequent yet co-occurs with A once, so pair pruning drops it.
        let mut b = DatabaseBuilder::new();
        for _ in 0..2 {
            b.sequence()
                .interval("C", 0, 1)
                .interval("A", 2, 6)
                .interval("B", 3, 5);
        }
        b.sequence().interval("A", 0, 2).interval("C", 3, 4);
        b.sequence().interval("A", 0, 1).interval("E", 2, 3);
        b.sequence().interval("E", 0, 1).interval("B", 0, 1);
        let db = b.build();
        let index = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b_sym = db.symbols().lookup("B").unwrap();

        // Every child of A+ inherits the alphabet A+'s gather collects:
        // neither C nor E is in it.
        let mut engine = SearchEngine::new(&index, MinerConfig::with_min_support(2));
        let root = engine.make_root(a);
        let mut alphabet = Vec::new();
        engine.gather_candidates(&root, None, &mut alphabet);
        assert_eq!(alphabet, vec![b_sym]);

        let run = |pruning| {
            let result = TpMiner::new(MinerConfig::with_min_support(2).pruning(pruning)).mine(&db);
            let stats = result.stats().clone();
            let patterns: Vec<_> = result
                .into_patterns()
                .into_iter()
                .map(|fp| (fp.pattern, fp.support))
                .collect();
            (patterns, stats)
        };
        // No symbol is globally infrequent here, so `no-symbol` runs the
        // search a global-only PT3 ran: C is counted again, and E
        // pair-pruned again, below the node whose alphabet dropped it.
        let no_symbol = crate::PruningConfig {
            symbol_pruning: false,
            ..crate::PruningConfig::all()
        };
        let (without, global) = run(no_symbol);
        assert_eq!(global.candidates_counted, 15);
        assert_eq!(global.exts_pruned_pair, 39);

        let (all, stats) = run(crate::PruningConfig::all());
        assert_eq!(stats.candidates_counted, 14);
        assert_eq!(stats.exts_pruned_pair, 11);
        assert_eq!(stats.exts_pruned_symbol, 0);
        // The search tree itself is unchanged.
        assert_eq!(stats.nodes_explored, global.nodes_explored);
        assert_eq!(stats.nodes_explored, 18);
        assert_eq!(stats.states_created, global.states_created);
        assert_eq!(stats.states_created, 44);
        assert_eq!(all, without);
        assert_eq!(all, run(crate::PruningConfig::none()).0);
    }

    #[test]
    fn gap_drops_far_witnesses_from_the_gather() {
        // A[0,5] overlaps B[3,40], and C[30,32] lies inside B. Endpoint
        // groups: A+ 0 (t0), B+ 1 (t3), A- 2 (t5), C+ 3 (t30), C- 4 (t32),
        // B- 5 (t40). At A+ | B+ | A- the state's horizon is B-'s group, so
        // closing B and starting C are both live there, but each jumps more
        // than 10 ticks from t5.
        let mut b = DatabaseBuilder::new();
        for _ in 0..2 {
            b.sequence()
                .interval("A", 0, 5)
                .interval("B", 3, 40)
                .interval("C", 30, 32);
        }
        let db = b.build();
        let index = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b_sym = db.symbols().lookup("B").unwrap();
        let config = MinerConfig::with_min_support(2).max_gap(10);

        let mut engine = SearchEngine::new(&index, config);
        let root = engine.make_root(a);
        let ab = engine.apply(&root, Ext::AfterStart(b_sym));
        let ab_a = engine.apply(&ab, Ext::AfterFinish(0));
        assert_eq!(ab_a.frontier.state_count(), 2);
        let (total, candidates) = engine.gather_candidates(&ab_a, None, &mut Vec::new());
        assert_eq!(candidates, vec![], "every live witness is past the gap");
        assert_eq!(total, 0);

        // Without the gap both are counted.
        let mut engine = SearchEngine::new(&index, MinerConfig::with_min_support(2));
        let root = engine.make_root(a);
        let ab = engine.apply(&root, Ext::AfterStart(b_sym));
        let ab_a = engine.apply(&ab, Ext::AfterFinish(0));
        let (total, _) = engine.gather_candidates(&ab_a, None, &mut Vec::new());
        assert_eq!(total, 2);

        // Whole run: nodes A+, A+|A-, A+|B+, A+|B+|A-, B+, C+, C+|C-. A
        // gather count is the child's support under a gap, so no child is
        // built only to be released.
        for pruning in [crate::PruningConfig::all(), no_postfix()] {
            let result = TpMiner::new(config.pruning(pruning)).mine(&db);
            let stats = result.stats().clone();
            assert_eq!(stats.children_infrequent, 0);
            assert_eq!(stats.candidates_counted, 4);
            assert_eq!(stats.nodes_explored, 7);
            for fp in result.into_patterns() {
                assert_eq!(
                    matcher::support_constrained(
                        &db,
                        &fp.pattern,
                        interval_core::matcher::MatchConstraints::gap(10)
                    ),
                    fp.support,
                    "gap support mismatch for {}",
                    fp.pattern.display(db.symbols())
                );
            }
        }
    }

    fn no_postfix() -> crate::PruningConfig {
        crate::PruningConfig {
            postfix_pruning: false,
            ..crate::PruningConfig::all()
        }
    }

    fn assert_postfix_preserves_output(db: &IntervalDatabase) {
        for min_sup in 1..=2 {
            let with = mine(
                db,
                MinerConfig::with_min_support(min_sup).pruning(crate::PruningConfig::all()),
            );
            let without = mine(
                db,
                MinerConfig::with_min_support(min_sup).pruning(no_postfix()),
            );
            assert_eq!(with, without, "min_sup={min_sup}");
        }
    }

    #[test]
    fn horizon_drops_dead_witnesses_from_the_gather() {
        // A+ | A- | B+ | B- in both sequences. At node A+ the state's
        // horizon is A-'s group, which every B start lies past.
        let mut b = DatabaseBuilder::new();
        for _ in 0..2 {
            b.sequence().interval("A", 0, 2).interval("B", 3, 5);
        }
        let db = b.build();
        let index = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b_sym = db.symbols().lookup("B").unwrap();

        let mut engine = SearchEngine::new(&index, MinerConfig::with_min_support(2));
        let root = engine.make_root(a);
        let (total, mut candidates) = engine.gather_candidates(&root, None, &mut Vec::new());
        candidates.sort_unstable();
        assert_eq!(candidates, vec![Ext::AfterFinish(0)]);
        assert_eq!(total, 1, "AfterStart(B) has no live witness");

        let mut engine = SearchEngine::new(
            &index,
            MinerConfig::with_min_support(2).pruning(no_postfix()),
        );
        let root = engine.make_root(a);
        let (_, mut candidates) = engine.gather_candidates(&root, None, &mut Vec::new());
        candidates.sort_unstable();
        assert_eq!(
            candidates,
            vec![Ext::AfterFinish(0), Ext::AfterStart(b_sym)]
        );

        // Whole run: nodes A+, A+|A-, A+|A-|B+, A+|A-|B+|B-, B+, B+|B-,
        // two states each and one candidate per node with a successor.
        let result = TpMiner::new(MinerConfig::with_min_support(2)).mine(&db);
        let stats = result.stats();
        assert_eq!(stats.nodes_explored, 6);
        assert_eq!(stats.states_created, 12);
        assert_eq!(stats.candidates_counted, 4);
        assert_eq!(stats.states_pruned_dead, 0);
        assert_eq!(stats.children_infrequent, 0);

        assert_postfix_preserves_output(&db);
    }

    #[test]
    fn horizon_cuts_dead_children_in_apply() {
        // A[0,4] overlaps B[2,6]; B[5,8] starts after A ended. Endpoint
        // groups: A+ 0, B+ 1, A- 2, B+ 3, B- 4, B- 5.
        let mut b = DatabaseBuilder::new();
        for _ in 0..2 {
            b.sequence()
                .interval("A", 0, 4)
                .interval("B", 2, 6)
                .interval("B", 5, 8);
        }
        let db = b.build();
        let index = DbIndex::build(&db);
        let a = db.symbols().lookup("A").unwrap();
        let b_sym = db.symbols().lookup("B").unwrap();

        let mut engine = SearchEngine::new(&index, MinerConfig::with_min_support(2));
        let root = engine.make_root(a);
        assert_eq!(engine.stats.states_created, 2);
        // Cut (a): per sequence the B at group 1 is built, the B at group 3
        // starts past the horizon (group 2) and is counted, not built.
        let child = engine.apply(&root, Ext::AfterStart(b_sym));
        assert_eq!(child.frontier.state_count(), 2);
        assert_eq!(engine.stats.states_created, 4);
        assert_eq!(engine.stats.states_pruned_dead, 2);
        // Cut (b) on finishes: at A+ | B+ the B binding ends at group 4,
        // past A-'s group 2, so only closing A is a candidate.
        let (total, mut candidates) = engine.gather_candidates(&child, None, &mut Vec::new());
        candidates.sort_unstable();
        assert_eq!(candidates, vec![Ext::AfterFinish(0)]);
        assert_eq!(total, 1);
        // Cut (c): closing B first would leave A dead, so nothing is built.
        let dead_end = engine.apply(&child, Ext::AfterFinish(1));
        assert_eq!(dead_end.support(), 0);
        assert_eq!(engine.stats.states_created, 4);
        assert_eq!(engine.stats.states_pruned_dead, 4);

        // Without postfix pruning every child is built and none is cut.
        let mut engine = SearchEngine::new(
            &index,
            MinerConfig::with_min_support(2).pruning(no_postfix()),
        );
        let root = engine.make_root(a);
        let child = engine.apply(&root, Ext::AfterStart(b_sym));
        assert_eq!(child.frontier.state_count(), 4);
        let dead_end = engine.apply(&child, Ext::AfterFinish(1));
        assert_eq!(dead_end.support(), 2);
        assert_eq!(engine.stats.states_created, 2 + 4 + 4);
        assert_eq!(engine.stats.states_pruned_dead, 0);

        assert_postfix_preserves_output(&db);
    }
}
