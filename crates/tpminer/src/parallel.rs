//! Parallel mining driver.
//!
//! The level-1 subtrees of the pattern-growth search (one per frequent root
//! symbol) are independent, so the search parallelizes across root symbols.
//! Roots are placed on a shared work queue ordered by estimated subtree
//! weight (total instance count, heaviest first) and each idle worker
//! claims the next unclaimed root via an atomic cursor — greedy list
//! scheduling. Unlike the static round-robin partition this replaces, a
//! worker that drew a light root comes back for more work instead of going
//! idle, so skewed root distributions no longer stack the heavy subtrees
//! onto one thread. Each worker runs a private `SearchEngine` over the
//! shared, read-only [`DbIndex`]; results and counters are merged at the
//! end. Output is identical at every thread count and claim interleaving
//! (tested): patterns are globally unique across root subtrees and the
//! merged result is sorted canonically. This is the only mining driver:
//! [`TpMiner`](crate::TpMiner) is a one-worker run of it.
//!
//! # Fault isolation
//!
//! A panicking subtree does **not** abort the process or discard the run:
//! the owning worker catches the panic at the root boundary
//! (`SearchEngine::try_grow_root`), rolls back only that root's
//! partially-emitted patterns, and keeps claiming queue work. The merged
//! result reports [`Termination::WorkerFailed`] naming exactly the lost
//! roots; every other root's patterns are merged as usual, with exact
//! supports.
//!
//! A panic anywhere else in a worker is caught at the worker's own unwind
//! boundary, on the calling thread as on the scoped ones, and never
//! unwinds the caller: the worker's engine state is lost, so every root
//! it claimed is reported in [`Termination::WorkerFailed`].
//!
//! # Threads
//!
//! The calling thread is always worker 0; the other workers run under
//! [`std::thread::scope`] and are joined before the merge. A one-worker
//! mine (one thread requested, or a single queued root) spawns nothing.
//!
//! # Budgets
//!
//! A [`MiningBudget`] attached via [`ParallelTpMiner::with_budget`] is
//! shared by every worker: the node cap bounds the *total* work across
//! workers and cancelling the token stops all of them. A worker
//! whose engine trips the budget stops claiming roots.

// A hot-path file: no hash or tree maps (see `disallowed-types` in
// clippy.toml).
#![deny(clippy::disallowed_types)]

use crate::config::MinerConfig;
use crate::index::DbIndex;
use crate::miner::MiningResult;
use crate::search::SearchEngine;
use crate::stats::MinerStats;
use interval_core::budget::{MiningBudget, Termination};
use interval_core::{IntervalDatabase, SymbolId, TemporalPattern};
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The work-queue mining driver; [`TpMiner`](crate::TpMiner) is its
/// one-worker form.
#[derive(Debug, Clone)]
pub struct ParallelTpMiner {
    config: MinerConfig,
    threads: usize,
    budget: MiningBudget,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<(SymbolId, u64)>,
}

/// Clamps the worker-pool size to the amount of queued work: at most one
/// worker per root (excess workers would only spin on an empty queue) and
/// at least one worker even for an empty queue, so the spawn loop and the
/// merge never see zero workers regardless of how the caller computed
/// `threads`.
fn worker_count(roots: usize, threads: usize) -> usize {
    threads.max(1).min(roots.max(1))
}

/// The shared-queue claim order: heaviest estimated subtree first, ties
/// broken by symbol id. The weight estimate is the root symbol's total
/// instance count across sequences ([`DbIndex::root_weight`]) — cheap,
/// already indexed, and monotone with level-1 frontier size. Heaviest-first
/// greedy claiming is classic LPT list scheduling, which bounds the
/// makespan at 4/3 of optimal; the deterministic order also makes the
/// scheduler reproducible for a given index.
fn queue_order(index: &DbIndex, roots: &[SymbolId]) -> Vec<SymbolId> {
    let mut ordered = roots.to_vec();
    ordered.sort_unstable_by_key(|&s| (Reverse(index.root_weight(s)), s));
    ordered
}

/// The result of one worker's queue run: the patterns and counters of
/// every root its engine finished, plus the roots whose subtrees panicked
/// and were rolled back at the root boundary. Outcomes of disjoint root
/// sets merge into one canonical [`MiningResult`] via
/// [`ParallelTpMiner::merge_shards`].
#[derive(Debug)]
struct ShardOutcome {
    pairs: Vec<(TemporalPattern, usize)>,
    stats: MinerStats,
    termination: Termination,
    failed: Vec<SymbolId>,
}

impl ShardOutcome {
    /// A degraded outcome for a worker that died outside a root: the
    /// engine never got to contain the failure, so every root the worker
    /// claimed is reported lost.
    fn failed(roots: Vec<SymbolId>) -> Self {
        Self {
            pairs: Vec::new(),
            stats: MinerStats::default(),
            termination: Termination::WorkerFailed { roots: Vec::new() },
            failed: roots,
        }
    }
}

impl ParallelTpMiner {
    /// Creates a parallel miner using `threads` workers (values of 0 use
    /// the machine's available parallelism). The worker count is further
    /// clamped to the number of frequent root symbols at mining time.
    pub fn new(config: MinerConfig, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        Self {
            config,
            threads,
            budget: MiningBudget::unlimited(),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
        }
    }

    /// Attaches a resource budget, shared across all workers.
    pub fn with_budget(mut self, budget: MiningBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured worker-pool size (before the per-run clamp to the
    /// number of queued roots).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Arms deterministic fault injection in whichever worker claims
    /// `root`: that worker panics at the `after_nodes`-th expansion inside
    /// the poisoned subtree. Test-only (also available behind the
    /// `fault-injection` feature).
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn poison_root(mut self, root: SymbolId, after_nodes: u64) -> Self {
        self.fault = Some((root, after_nodes));
        self
    }

    /// Mines all frequent temporal patterns of `db` using the worker pool.
    pub fn mine(&self, db: &IntervalDatabase) -> MiningResult {
        let index = DbIndex::build(db);
        self.mine_indexed(&index)
    }

    /// Mines over a prebuilt index.
    pub fn mine_indexed(&self, index: &DbIndex) -> MiningResult {
        let roots = index.frequent_symbols(self.config.effective_min_support());
        self.mine_partitions(index, &roots)
    }

    /// Mines only the level-1 subtrees rooted at `roots`, using the worker
    /// pool. The result contains exactly the frequent patterns whose first
    /// endpoint set starts with one of the given roots, with exact supports.
    ///
    /// This is the incremental-mining hook: a driver that knows which root
    /// partitions are *dirty* since its last snapshot re-mines just those
    /// and merges the clean partitions from the previous result. Roots not
    /// frequent under the current index are mined to an empty partition, so
    /// passing stale roots is safe.
    pub fn mine_partitions(&self, index: &DbIndex, roots: &[SymbolId]) -> MiningResult {
        if roots.is_empty() {
            return MiningResult::from_parts(
                Vec::new(),
                MinerStats::default(),
                Termination::Complete,
            );
        }
        let ordered = queue_order(index, roots);
        let workers = worker_count(ordered.len(), self.threads);
        let cursor = AtomicUsize::new(0);
        let claim = || ordered.get(cursor.fetch_add(1, Ordering::Relaxed)).copied();
        let run = |claimed: &mut Vec<SymbolId>| self.contained_run(index, claim, claimed);

        // The calling thread is worker 0 and the other workers run scoped,
        // so a one-worker mine spawns nothing. Each worker logs its claims
        // into a slot owned here, outside every unwind boundary; a worker
        // that returned no outcome is reported with all of them.
        let mut claims: Vec<Vec<SymbolId>> = vec![Vec::new(); workers];
        let outcomes: Vec<Option<ShardOutcome>> = std::thread::scope(|scope| {
            let (caller, helpers) = claims.split_at_mut(1);
            let handles: Vec<_> = helpers
                .iter_mut()
                .map(|claimed| scope.spawn(move || run(claimed)))
                .collect();
            let mut outcomes: Vec<_> = caller.iter_mut().map(run).collect();
            outcomes.extend(handles.into_iter().map(|h| h.join().ok().flatten()));
            outcomes
        });
        let outcomes = outcomes
            .into_iter()
            .zip(claims)
            .map(|(outcome, claimed)| outcome.unwrap_or_else(|| ShardOutcome::failed(claimed)))
            .collect();
        Self::merge_shards(outcomes)
    }

    /// One worker: a [`queue_run`](Self::queue_run) inside an unwind
    /// boundary, logging every root it claims into `claimed`, which lives
    /// outside that boundary. Subtree panics are contained per root by the
    /// engine; this catches a panic anywhere else in the worker (engine
    /// set-up, the claim, the finish) and returns `None`, so the panic
    /// never unwinds the calling thread.
    fn contained_run(
        &self,
        index: &DbIndex,
        mut claim: impl FnMut() -> Option<SymbolId>,
        claimed: &mut Vec<SymbolId>,
    ) -> Option<ShardOutcome> {
        catch_unwind(AssertUnwindSafe(|| {
            self.queue_run(index, || {
                let root = claim();
                claimed.extend(root);
                root
            })
        }))
        .ok()
    }

    /// One engine's run over a claim stream: claims roots until the queue
    /// is empty or the budget stops the engine, recycling frontier scratch
    /// across every claimed root and containing subtree panics at the root
    /// boundary.
    fn queue_run(
        &self,
        index: &DbIndex,
        mut claim: impl FnMut() -> Option<SymbolId>,
    ) -> ShardOutcome {
        #[allow(
            unused_mut,
            reason = "with fault injection compiled in, this binding moves into the poisoned rebinding below"
        )]
        let mut engine = SearchEngine::new(index, self.config).with_budget(self.budget.clone());
        #[cfg(any(test, feature = "fault-injection"))]
        let mut engine = match self.fault {
            Some((root, after_nodes)) => engine.poison_root(root, after_nodes),
            None => engine,
        };
        let mut failed: Vec<SymbolId> = Vec::new();
        while !engine.stopped() {
            let Some(root) = claim() else {
                break;
            };
            if !engine.try_grow_root(root) {
                failed.push(root);
            }
        }
        let (pairs, stats, termination) = engine.finish();
        ShardOutcome {
            pairs,
            stats,
            termination,
            failed,
        }
    }

    /// Merges shard outcomes covering disjoint root sets into one
    /// canonical [`MiningResult`]: patterns are concatenated and sorted by
    /// [`MiningResult::from_parts`] (they are globally unique across root
    /// subtrees, so the order does not depend on which worker claimed
    /// which root), counters merge additively, terminations merge to the
    /// most abnormal, and every failed root across all shards is reported
    /// in a single [`Termination::WorkerFailed`]. The output is
    /// independent of shard count and shard assignment.
    fn merge_shards(outcomes: Vec<ShardOutcome>) -> MiningResult {
        let mut all: Vec<(TemporalPattern, usize)> = Vec::new();
        let mut stats = MinerStats::default();
        let mut termination = Termination::Complete;
        let mut failed_roots: Vec<SymbolId> = Vec::new();
        for outcome in outcomes {
            all.extend(outcome.pairs);
            stats.merge(&outcome.stats);
            termination = termination.merge(outcome.termination);
            failed_roots.extend(outcome.failed);
        }
        if !failed_roots.is_empty() {
            failed_roots.sort_unstable();
            termination = termination.merge(Termination::WorkerFailed {
                roots: failed_roots,
            });
        }
        MiningResult::from_parts(all, stats, termination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TpMiner;
    use interval_core::DatabaseBuilder;

    fn demo_db() -> IntervalDatabase {
        let mut b = DatabaseBuilder::new();
        for i in 0..8i64 {
            b.sequence()
                .interval("A", i, i + 5)
                .interval("B", i + 3, i + 8)
                .interval("C", i + 6, i + 10)
                .interval("A", i + 7, i + 12);
        }
        b.sequence().interval("D", 0, 1);
        b.build()
    }

    /// Two heavy roots, each with five overlapping same-symbol instances
    /// per sequence, so their subtrees are deep, plus light roots that
    /// start after every heavy instance ends and so stay tiny: the shape
    /// where how the queue hands out roots decides the makespan.
    fn skewed_db() -> IntervalDatabase {
        let mut b = DatabaseBuilder::new();
        for s in 0..48i64 {
            let t = s % 7;
            let mut sb = b.sequence();
            for k in 0..5 {
                sb = sb.interval("H0", t + k, t + k + 6);
            }
            sb = sb.interval("L1", t + 13, t + 15);
            for k in 0..5 {
                sb = sb.interval("H2", t + k + 1, t + k + 7);
            }
            sb.interval("L3", t + 14, t + 16)
                .interval("L5", t + 15, t + 17)
                .interval("L7", t + 16, t + 18);
        }
        b.build()
    }

    #[test]
    fn parallel_output_matches_sequential() {
        let demo = demo_db();
        let skewed = skewed_db();
        let skewed_config =
            MinerConfig::with_min_support(skewed.absolute_support(0.60)).max_arity(6);
        // The skewed input's pattern count pins its shape: heavy,
        // overlapping same-symbol roots.
        let cases = [1, 4, 8]
            .map(|min_sup| (&demo, MinerConfig::with_min_support(min_sup), None))
            .into_iter()
            .chain([(&skewed, skewed_config, Some(1_029))]);
        for (db, config, expected) in cases {
            let seq = TpMiner::new(config).mine(db);
            if let Some(expected) = expected {
                assert_eq!(seq.len(), expected, "the skewed input keeps its shape");
            }
            for threads in [1, 2, 8] {
                let par = ParallelTpMiner::new(config, threads).mine(db);
                assert_eq!(
                    seq.patterns(),
                    par.patterns(),
                    "threads={threads} {config:?}"
                );
                assert!(par.is_exhaustive());
            }
        }
    }

    #[test]
    fn truncated_runs_agree_across_drivers() {
        // Under a node cap that cuts the skewed search short, `TpMiner`
        // and a one-worker queue claim the same roots in the same order,
        // so they stop at the same node.
        let db = skewed_db();
        let config = MinerConfig::with_min_support(db.absolute_support(0.60)).max_arity(6);
        for cap in [2_500, 3_000] {
            let budget = || MiningBudget::unlimited().with_max_nodes(cap);
            let seq = TpMiner::new(config).with_budget(budget()).mine(&db);
            let par = ParallelTpMiner::new(config, 1)
                .with_budget(budget())
                .mine(&db);
            assert_eq!(seq.patterns(), par.patterns(), "cap={cap}");
            assert_eq!(seq.termination(), par.termination(), "cap={cap}");
            assert_eq!(seq.stats(), par.stats(), "cap={cap}");
        }
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let miner = ParallelTpMiner::new(MinerConfig::with_min_support(1), 0);
        assert!(miner.threads() >= 1);
        let db = demo_db();
        assert!(!miner.mine(&db).is_empty());
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let db = IntervalDatabase::new();
        let result = ParallelTpMiner::new(MinerConfig::with_min_support(1), 4).mine(&db);
        assert!(result.is_empty());
        assert!(result.is_exhaustive());
    }

    #[test]
    fn worker_count_clamps_to_queue_depth() {
        // Never more workers than queued roots.
        assert_eq!(worker_count(3, 8), 3);
        assert_eq!(worker_count(7, 2), 2);
        assert_eq!(worker_count(1, 64), 1);
        // Degenerate inputs still yield a well-formed pool of one: an
        // empty queue (the old round-robin clamp produced a worker with no
        // chunk here) and a zero thread request alike.
        assert_eq!(worker_count(0, 8), 1);
        assert_eq!(worker_count(5, 0), 1);
        assert_eq!(worker_count(0, 0), 1);
    }

    #[test]
    fn queue_orders_heaviest_roots_first() {
        let db = demo_db();
        let index = DbIndex::build(&db);
        let symbols = db.symbols();
        let a = symbols.lookup("A").unwrap();
        let b = symbols.lookup("B").unwrap();
        let c = symbols.lookup("C").unwrap();
        let d = symbols.lookup("D").unwrap();
        // A has two instances per sequence; B and C tie (one each, broken
        // by symbol id); D appears once overall.
        let ordered = queue_order(&index, &[d, c, b, a]);
        assert_eq!(ordered, vec![a, b, c, d]);
        // The order is a pure function of the index, not the input order.
        assert_eq!(queue_order(&index, &[b, a, d, c]), ordered);
    }

    #[test]
    fn dead_shard_outcome_reports_lost_roots() {
        let db = demo_db();
        let index = DbIndex::build(&db);
        let symbols = db.symbols();
        let a = symbols.lookup("A").unwrap();
        let d = symbols.lookup("D").unwrap();
        let config = MinerConfig::with_min_support(1);
        let miner = ParallelTpMiner::new(config, 1);
        let mut queue = vec![d].into_iter();
        let mut claimed = Vec::new();
        let survived = miner
            .contained_run(&index, || queue.next(), &mut claimed)
            .unwrap();
        assert_eq!(claimed, vec![d]);
        let merged = ParallelTpMiner::merge_shards(vec![survived, ShardOutcome::failed(vec![a])]);
        match merged.termination() {
            Termination::WorkerFailed { roots } => assert_eq!(roots, &vec![a]),
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
        assert!(!merged.is_empty());
    }

    #[test]
    fn panic_outside_a_root_reports_every_claimed_root() {
        let db = demo_db();
        let index = DbIndex::build(&db);
        let symbols = db.symbols();
        let a = symbols.lookup("A").unwrap();
        let b = symbols.lookup("B").unwrap();
        let miner = ParallelTpMiner::new(MinerConfig::with_min_support(1), 1);
        // The third claim panics in the claim itself, outside any root's
        // unwind boundary, after two roots were claimed and mined.
        let mut queue = vec![a, b].into_iter();
        let mut claimed = Vec::new();
        let outcome = miner.contained_run(
            &index,
            || match queue.next() {
                Some(root) => Some(root),
                None => panic!("claim failed outside a root"),
            },
            &mut claimed,
        );
        assert!(outcome.is_none(), "the panic was caught, not returned");
        assert_eq!(claimed, vec![a, b]);
        let merged = ParallelTpMiner::merge_shards(vec![ShardOutcome::failed(claimed)]);
        match merged.termination() {
            Termination::WorkerFailed { roots } => assert_eq!(roots, &vec![a, b]),
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
        assert!(merged.is_empty(), "a dead worker's patterns are not merged");
    }

    #[test]
    fn shared_budget_truncates_the_parallel_mine() {
        let db = demo_db();
        let config = MinerConfig::with_min_support(1);
        let full = TpMiner::new(config).mine(&db);
        let budget = MiningBudget::unlimited().with_max_nodes(2);
        let par = ParallelTpMiner::new(config, 4)
            .with_budget(budget)
            .mine(&db);
        assert_eq!(par.termination(), &Termination::NodeBudgetExceeded);
        // The cap bounds the *sum* of nodes across workers.
        assert!(par.stats().nodes_explored <= 2);
        for fp in par.patterns() {
            assert_eq!(full.support_of(&fp.pattern), Some(fp.support));
        }
    }

    #[test]
    fn poisoned_root_loses_only_its_partition() {
        let db = demo_db();
        let config = MinerConfig::with_min_support(1);
        let full = TpMiner::new(config).mine(&db);
        let a = db.symbols().lookup("A").expect("A is interned");

        let par = ParallelTpMiner::new(config, 64).poison_root(a, 1).mine(&db);

        let failed = match par.termination() {
            Termination::WorkerFailed { roots } => roots.clone(),
            other => panic!("expected WorkerFailed, got {other:?}"),
        };
        // The work queue contains the panic at the root boundary, so
        // exactly the poisoned root is lost — not a whole static chunk.
        assert_eq!(failed, vec![a]);

        // Every pattern of a surviving root is present with its exact
        // support; patterns rooted at A are the only ones missing.
        assert!(!par.is_empty());
        for fp in full.patterns() {
            let root = fp.pattern.groups()[0][0].symbol;
            if root == a {
                continue;
            }
            assert_eq!(
                par.support_of(&fp.pattern),
                Some(fp.support),
                "surviving pattern missing or support drifted"
            );
        }
        for fp in par.patterns() {
            assert_eq!(full.support_of(&fp.pattern), Some(fp.support));
            assert_ne!(fp.pattern.groups()[0][0].symbol, a);
        }
    }

    #[test]
    fn poisoned_root_is_isolated_at_every_thread_count() {
        // With the shared queue the failure set no longer depends on how
        // roots used to be chunked: whichever worker claims the poisoned
        // root loses exactly that root.
        let db = demo_db();
        let config = MinerConfig::with_min_support(1);
        let full = TpMiner::new(config).mine(&db);
        let a = db.symbols().lookup("A").expect("A is interned");
        for threads in [1, 2, 8] {
            let par = ParallelTpMiner::new(config, threads)
                .poison_root(a, 1)
                .mine(&db);
            match par.termination() {
                Termination::WorkerFailed { roots } => {
                    assert_eq!(roots, &vec![a], "threads={threads}")
                }
                other => panic!("threads={threads}: expected WorkerFailed, got {other:?}"),
            }
            for fp in full.patterns() {
                if fp.pattern.groups()[0][0].symbol == a {
                    continue;
                }
                assert_eq!(par.support_of(&fp.pattern), Some(fp.support));
            }
        }
    }

    #[test]
    fn poisoned_singleton_run_still_reports_other_workers() {
        // Even with fewer workers than roots, only the poisoned root is
        // lost and the run reports it.
        let db = demo_db();
        let config = MinerConfig::with_min_support(1);
        let d = db.symbols().lookup("D").expect("D is interned");
        let par = ParallelTpMiner::new(config, 2).poison_root(d, 1).mine(&db);
        match par.termination() {
            Termination::WorkerFailed { roots } => assert!(roots.contains(&d)),
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
        assert!(!par.is_empty(), "surviving partition must still report");
    }
}
