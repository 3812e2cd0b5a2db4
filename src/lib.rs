//! Umbrella crate for the P-TPMiner reproduction.
//!
//! This crate re-exports the public API of every workspace crate so that the
//! examples under `examples/` and the integration tests under `tests/` can
//! exercise the whole system through a single dependency:
//!
//! - [`interval_core`] — the interval data model: event intervals, sequences,
//!   databases, Allen relations, the endpoint representation and the
//!   [`interval_core::TemporalPattern`] type, plus the ground-truth
//!   containment matcher.
//! - [`tpminer`] — the paper's contribution: the TPMiner pattern-growth miner,
//!   the probabilistic P-TPMiner, the pruning techniques and closed-pattern
//!   mining.
//! - [`baselines`] — the comparison algorithms: TPrefixSpan, an
//!   IEMiner-style level-wise miner, an H-DFS-style vertical miner and a
//!   naive oracle.
//! - [`synthgen`] — the QUEST-style synthetic interval workload generator.
//! - [`datasets`] — realistic dataset emulators (library loans, stock state
//!   intervals, gesture annotations) and text I/O.
//! - [`stream`] — streaming ingestion: a sliding-window database over
//!   timestamped interval events and an incremental miner that refreshes
//!   only the partitions the latest events touched.
//! - [`durability`] — crash safety for the streaming tier: a checksummed
//!   write-ahead log with epoch-rotated segments, recovery-by-replay, and
//!   a fault-injecting filesystem shim for crash-point tests.
//!
//! # Quickstart
//!
//! ```
//! use ptpminer::prelude::*;
//!
//! // Build a tiny database: "fever overlaps rash" appears in 2 of 3 patients.
//! let mut db = DatabaseBuilder::new();
//! db.sequence().interval("fever", 0, 10).interval("rash", 5, 20);
//! db.sequence().interval("fever", 2, 9).interval("rash", 4, 15);
//! db.sequence().interval("fever", 0, 4).interval("rash", 6, 8);
//! let db = db.build();
//!
//! let result = TpMiner::new(MinerConfig::with_min_support(2)).mine(&db);
//! assert!(result
//!     .patterns()
//!     .iter()
//!     .any(|p| p.pattern.display(db.symbols()).to_string().contains("fever")));
//! ```

#![forbid(unsafe_code)]

pub use baselines;
pub use datasets;
pub use durability;
pub use interval_core;
pub use stream;
pub use synthgen;
pub use tpminer;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use baselines::{HDfsMiner, IeMiner, NaiveMiner, TPrefixSpan};
    pub use datasets::{
        gesture::GestureConfig, icu::IcuConfig, library::LibraryConfig, stock::StockConfig,
    };
    pub use interval_core::{
        AllenRelation, DatabaseBuilder, EventInterval, IntervalDatabase, IntervalSequence,
        MatchConstraints, SymbolTable, TemporalPattern, UncertainDatabase,
    };
    pub use synthgen::{QuestConfig, QuestGenerator};
    pub use tpminer::{
        closed_patterns, generate_rules, maximal_patterns, mine_top_k, MinerConfig, MiningResult,
        ProbabilisticConfig, ProbabilisticMiner, PruningConfig, RuleConfig, TopKConfig, TpMiner,
    };
}
