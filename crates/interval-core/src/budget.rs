//! Resource governance for long-running mining operations.
//!
//! Pattern-growth search is exponential in the worst case, so a production
//! deployment cannot offer only two outcomes — "ran to completion" or
//! "process aborted". This module provides the third: **bounded runs with
//! sound partial results**. A [`MiningBudget`] carries a wall-clock
//! deadline, a search-node budget and a shareable [`CancellationToken`];
//! the search checks it cooperatively and unwinds
//! cleanly when any limit trips, reporting *why* through a [`Termination`]
//! status.
//!
//! # The soundness-under-truncation invariant
//!
//! A budget never changes *what* a reported pattern means, only *how many*
//! patterns get reported:
//!
//! - every pattern in a truncated result is a pattern of the unbudgeted
//!   result, with **exactly** the same support (supports are computed from a
//!   fully materialized projection before the pattern is emitted — a budget
//!   can only prevent emission, never corrupt a count);
//! - only **completeness** is lost: frequent patterns whose search-tree
//!   nodes were never reached are missing.
//!
//! This invariant is property-tested in `tests/robustness.rs`.
//!
//! # Sharing
//!
//! Cloning a [`MiningBudget`] shares its cancellation token and its node
//! counter. Handing clones of one budget to several worker threads
//! therefore makes the limits *global*: the node budget bounds the sum of
//! nodes explored across all workers, and cancelling the token stops every
//! worker.

use crate::symbols::SymbolId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, shareable across threads.
///
/// Cancellation is level-triggered and permanent: once [`cancel`] has been
/// called, every present and future observer of the token (or of any clone
/// of it) sees it cancelled. The flag is a single atomic store, so it is
/// safe to flip from a Unix signal handler.
///
/// [`cancel`]: CancellationToken::cancel
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    ///
    /// The load is `Relaxed`: the flag carries no data of its own, and the
    /// search only needs to observe it eventually (within one node
    /// expansion).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a mining run stopped.
///
/// `Complete` is the only status under which the reported pattern set is
/// exhaustive. Under every other status the result is a **sound partial
/// result**: each reported support is exact, but some frequent patterns may
/// be missing (see the [module docs](self) for the invariant).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The search space was exhausted; the result is exact and complete.
    #[default]
    Complete,
    /// The wall-clock deadline passed before the search finished.
    DeadlineExceeded,
    /// The search-node budget was spent before the search finished.
    NodeBudgetExceeded,
    /// The cancellation token was flipped (operator Ctrl-C, caller abort).
    Cancelled,
    /// One or more worker threads panicked. Only the named root-symbol
    /// partitions are missing; every surviving worker's patterns are
    /// reported with exact supports.
    WorkerFailed {
        /// The root symbols whose level-1 subtrees were lost.
        roots: Vec<SymbolId>,
    },
}

impl Termination {
    /// Whether the run exhausted its search space (the result is complete).
    pub fn is_complete(&self) -> bool {
        matches!(self, Termination::Complete)
    }

    /// Coarse ordering used by [`merge`](Termination::merge): higher means
    /// "more abnormal".
    fn severity(&self) -> u8 {
        match self {
            Termination::Complete => 0,
            Termination::NodeBudgetExceeded => 1,
            Termination::DeadlineExceeded => 2,
            Termination::Cancelled => 3,
            Termination::WorkerFailed { .. } => 4,
        }
    }

    /// Combines the statuses of two partial runs (e.g. two parallel
    /// workers) into the status of their merged result: the more abnormal
    /// one wins, and failed-root lists are unioned.
    pub fn merge(self, other: Termination) -> Termination {
        match (self, other) {
            (
                Termination::WorkerFailed { mut roots },
                Termination::WorkerFailed { roots: other_roots },
            ) => {
                roots.extend(other_roots);
                roots.sort_unstable();
                roots.dedup();
                Termination::WorkerFailed { roots }
            }
            (a, b) => {
                if a.severity() >= b.severity() {
                    a
                } else {
                    b
                }
            }
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::Complete => write!(f, "complete"),
            Termination::DeadlineExceeded => write!(f, "deadline exceeded"),
            Termination::NodeBudgetExceeded => write!(f, "node budget exceeded"),
            Termination::Cancelled => write!(f, "cancelled"),
            Termination::WorkerFailed { roots } => {
                write!(f, "worker failed (lost roots: ")?;
                for (i, r) in roots.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", r.0)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Resource limits for a mining run. The default is unlimited.
///
/// Budgets compose with every miner through `with_budget`-style builders;
/// see the [module docs](self) for sharing semantics and the soundness
/// invariant.
#[derive(Debug, Clone)]
pub struct MiningBudget {
    deadline: Option<Instant>,
    max_nodes: Option<u64>,
    cancel: CancellationToken,
    nodes_charged: Arc<AtomicU64>,
}

impl Default for MiningBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl MiningBudget {
    /// A budget with no limits (the default): the only way such a run stops
    /// early is through its cancellation token.
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            max_nodes: None,
            cancel: CancellationToken::new(),
            nodes_charged: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the mining budget owns time: setting its deadline is a sanctioned clock read"
    )]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Caps the total number of search-node expansions (shared across every
    /// clone of this budget).
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Uses an external cancellation token (e.g. one flipped by a signal
    /// handler) instead of the budget's private one.
    pub fn with_token(mut self, token: CancellationToken) -> Self {
        self.cancel = token;
        self
    }

    /// A clone of the cancellation token, for handing to signal handlers or
    /// other controllers.
    pub fn token(&self) -> CancellationToken {
        self.cancel.clone()
    }

    /// Non-charging probe: the status a run should stop with right now, if
    /// any. Used by coarse-grained loops (e.g. per-candidate probabilistic
    /// evaluation) where per-item `Instant::now` calls are affordable.
    pub fn exceeded(&self) -> Option<Termination> {
        if self.cancel.is_cancelled() {
            return Some(Termination::Cancelled);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the mining budget owns time: checking its deadline is a sanctioned clock read"
        )]
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Termination::DeadlineExceeded);
            }
        }
        if let Some(m) = self.max_nodes {
            if self.nodes_charged.load(Ordering::Relaxed) >= m {
                return Some(Termination::NodeBudgetExceeded);
            }
        }
        None
    }

    /// Charges one node expansion against the shared counter. `Err` when
    /// the node budget is already spent; the caller must stop *before*
    /// performing the expansion, which keeps per-run node counters at or
    /// below the cap.
    fn charge_node(&self) -> Result<(), Termination> {
        if let Some(m) = self.max_nodes {
            if self.nodes_charged.fetch_add(1, Ordering::Relaxed) >= m {
                return Err(Termination::NodeBudgetExceeded);
            }
        }
        Ok(())
    }

    /// Called once before each node expansion: checks cancellation, charges
    /// the shared node counter and, when one is set, reads the clock against
    /// the deadline. A node costs microseconds, so one clock read per node
    /// is cheap next to it, and a run stops within one node of its deadline.
    /// `Err` means the run must unwind with the given status, *without*
    /// performing the expansion, so a run whose deadline has already passed
    /// explores no node.
    pub fn on_node(&self) -> Result<(), Termination> {
        if self.cancel.is_cancelled() {
            return Err(Termination::Cancelled);
        }
        self.charge_node()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "the mining budget owns time: checking its deadline is a sanctioned clock read"
        )]
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Termination::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = MiningBudget::default();
        assert_eq!(b.exceeded(), None);
        for _ in 0..10_000 {
            assert!(b.on_node().is_ok());
        }
    }

    #[test]
    fn node_budget_trips_exactly_at_cap() {
        let budget = MiningBudget::unlimited().with_max_nodes(5);
        for _ in 0..5 {
            assert!(budget.on_node().is_ok());
        }
        assert_eq!(budget.on_node(), Err(Termination::NodeBudgetExceeded));
        assert_eq!(budget.exceeded(), Some(Termination::NodeBudgetExceeded));
    }

    #[test]
    fn node_budget_is_shared_across_clones() {
        let budget = MiningBudget::unlimited().with_max_nodes(6);
        let a = budget.clone();
        let b = budget;
        for _ in 0..3 {
            assert!(a.on_node().is_ok());
            assert!(b.on_node().is_ok());
        }
        assert!(a.on_node().is_err());
        assert!(b.on_node().is_err());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs a deadline that has already passed"
    )]
    fn expired_deadline_trips_on_first_node() {
        let budget = MiningBudget::unlimited().with_deadline(Instant::now());
        assert_eq!(budget.on_node(), Err(Termination::DeadlineExceeded));
    }

    #[test]
    fn cancellation_is_observed_by_clones() {
        let token = CancellationToken::new();
        let budget = MiningBudget::unlimited().with_token(token.clone());
        let clone = budget.clone();
        assert!(clone.on_node().is_ok());
        token.cancel();
        assert_eq!(clone.on_node(), Err(Termination::Cancelled));
        assert_eq!(budget.exceeded(), Some(Termination::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn merge_prefers_the_more_abnormal_status() {
        use Termination::*;
        assert_eq!(Complete.merge(Complete), Complete);
        assert_eq!(Complete.merge(DeadlineExceeded), DeadlineExceeded);
        assert_eq!(NodeBudgetExceeded.merge(Complete), NodeBudgetExceeded);
        assert_eq!(Cancelled.merge(DeadlineExceeded), Cancelled);
        let failed = WorkerFailed {
            roots: vec![SymbolId(3)],
        };
        assert_eq!(failed.clone().merge(Cancelled), failed);
        let both = WorkerFailed {
            roots: vec![SymbolId(7), SymbolId(3)],
        }
        .merge(WorkerFailed {
            roots: vec![SymbolId(3), SymbolId(1)],
        });
        assert_eq!(
            both,
            WorkerFailed {
                roots: vec![SymbolId(1), SymbolId(3), SymbolId(7)],
            }
        );
    }

    #[test]
    fn termination_display_is_human_readable() {
        assert_eq!(Termination::Complete.to_string(), "complete");
        assert_eq!(
            Termination::WorkerFailed {
                roots: vec![SymbolId(1), SymbolId(4)]
            }
            .to_string(),
            "worker failed (lost roots: 1, 4)"
        );
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let future = MiningBudget::unlimited().with_timeout(Duration::from_secs(3600));
        for _ in 0..5000 {
            assert!(future.on_node().is_ok());
        }
    }

    #[test]
    fn deadline_is_checked_on_every_node() {
        let budget = MiningBudget::unlimited().with_timeout(Duration::from_millis(50));
        let _ = budget.on_node();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(budget.on_node(), Err(Termination::DeadlineExceeded));
    }
}
