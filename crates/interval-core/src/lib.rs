//! Core data model for interval-based temporal pattern mining.
//!
//! This crate is the substrate shared by every miner in the workspace. It
//! defines:
//!
//! - [`EventInterval`] / [`IntervalSequence`] / [`IntervalDatabase`] — the
//!   interval data model, plus the uncertain variants
//!   ([`UncertainInterval`], [`UncertainSequence`], [`UncertainDatabase`])
//!   where intervals carry existence probabilities;
//! - [`AllenRelation`] — Allen's 13 qualitative interval relations;
//! - [`EndpointSeq`] — the paper's *endpoint representation* of a sequence;
//! - [`StreamEvent`] — the event/watermark model for streaming ingestion
//!   (consumed by the `stream` crate's sliding-window database);
//! - [`TemporalPattern`] — canonical arrangement patterns in the endpoint
//!   representation;
//! - [`matcher`] — a ground-truth backtracking containment matcher used as
//!   the oracle in tests and the naive baseline;
//! - [`probability`] — containment probabilities and expected support over
//!   uncertain sequences;
//! - [`json`] — the compact JSON writer behind every `--json` line and
//!   result row;
//! - [`rng`] — the seeded generator behind every synthetic input.
//!
//! # Example
//!
//! ```
//! use interval_core::{matcher, DatabaseBuilder, TemporalPattern};
//!
//! let mut b = DatabaseBuilder::new();
//! b.sequence().interval("fever", 0, 10).interval("rash", 5, 20);
//! b.sequence().interval("fever", 2, 9).interval("rash", 11, 15);
//! let db = b.build();
//!
//! let mut table = db.symbols().clone();
//! let overlap = TemporalPattern::parse("fever+ | rash+ | fever- | rash-", &mut table).unwrap();
//! assert_eq!(matcher::support(&db, &overlap), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allen;
pub mod budget;
pub mod database;
pub mod endpoint;
pub mod error;
pub mod event;
pub mod interval;
pub mod json;
pub mod matcher;
pub mod pattern;
pub mod probability;
pub mod rng;
pub mod sequence;
pub mod symbols;
pub mod wire;

pub use allen::AllenRelation;
pub use budget::{CancellationToken, MiningBudget, Termination};
pub use database::{
    DatabaseBuilder, IntervalDatabase, SequenceBuilder, UncertainDatabase,
    UncertainDatabaseBuilder, UncertainSequenceBuilder,
};
pub use endpoint::{DataEndpoint, EndpointKind, EndpointSeq, InstanceInfo};
pub use error::{IntervalError, Result};
pub use event::{IntervalRecord, SequenceId, StreamEvent};
pub use interval::{EventInterval, Time, UncertainInterval};
pub use matcher::MatchConstraints;
pub use pattern::{PatternEndpoint, SlotInfo, TemporalPattern};
pub use probability::ProbabilityConfig;
pub use sequence::{IntervalSequence, UncertainSequence};
pub use symbols::{SymbolId, SymbolTable};
pub use wire::{CreateSpec, Request, SupportSpec, WireError};
