//! Streaming ingestion and incremental mining over sliding windows.
//!
//! This crate turns the batch miner of [`tpminer`] into a continuously
//! refreshed one:
//!
//! - [`SlidingWindowDatabase`] ingests [`interval_core::StreamEvent`]s
//!   (open/close endpoint pairs or completed intervals, punctuated by
//!   watermarks), evicts expired intervals as the watermark advances, and
//!   keeps per-sequence symbol counts (for marking dirty roots) plus cached
//!   per-sequence endpoint indexes;
//! - [`IncrementalMiner`] re-mines only the *dirty* root-symbol partitions
//!   — those whose supporting sequences changed since the last refresh —
//!   and carries every clean partition's patterns over unchanged (see
//!   [`incremental`] for the correctness argument);
//! - [`PatternSnapshot`] / [`SnapshotCell`] publish each refreshed result
//!   atomically (an `Arc` swap behind a lock) so concurrent readers always
//!   see one coherent result while the next refresh is computed; the
//!   [`RefreshWorker`] is the one publisher, a synchronous caller stores
//!   its own snapshots;
//! - [`RefreshWorker`] pipelines refreshes onto a background thread:
//!   [`SlidingWindowDatabase::freeze`] takes a copy-on-write
//!   [`FrozenView`] of the window (it re-indexes only the changed
//!   sequences but clones one `Arc` per live sequence), ingestion
//!   continues while the worker mines it, and triggers arriving mid-flight
//!   coalesce into the next epoch — bounded memory, no lost events, and
//!   snapshots bit-identical to the synchronous path (see [`worker`] and
//!   `docs/STREAMING.md`);
//! - [`durable::Journal`] writes every event ahead of ingestion into a
//!   checksummed write-ahead log ([`durability`]), [`durable::replay`]
//!   rebuilds the window after a crash, and persistent write failures
//!   degrade the stream to in-memory-only instead of killing it (see
//!   [`durable`] and `docs/DURABILITY.md`);
//! - [`Pipeline`] is the one per-stream loop every caller runs: it owns
//!   window + journal + segment store + worker and the orderings between
//!   them (write-ahead, spill, seal, bounded WAL reclaim, the refresh
//!   trigger, and the finish), see [`pipeline`].
//!
//! ```
//! use interval_core::StreamEvent;
//! use stream::{IncrementalMiner, SlidingWindowDatabase};
//! use tpminer::MinerConfig;
//!
//! let mut window = SlidingWindowDatabase::new(50);
//! let mut miner = IncrementalMiner::new(MinerConfig::with_min_support(2), 0);
//!
//! for seq in 0..3u64 {
//!     window
//!         .ingest(StreamEvent::Interval {
//!             sequence: seq,
//!             symbol: "fever".into(),
//!             start: 10 * seq as i64,
//!             end: 10 * seq as i64 + 5,
//!         })
//!         .unwrap();
//! }
//! window.ingest(StreamEvent::Watermark(30)).unwrap();
//!
//! let snapshot = miner.refresh(&mut window);
//! assert_eq!(snapshot.result.len(), 1);
//! println!("{}", snapshot.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod incremental;
pub mod pipeline;
pub mod pool;
pub mod snapshot;
pub mod window;
pub mod worker;

pub use durable::{Journal, JournalStats, ReplayOutcome};
pub use incremental::IncrementalMiner;
pub use pipeline::{DueRefresh, Finished, Finishing, Ingested, Pipeline, PipelineConfig, Trigger};
pub use pool::ShardPool;
pub use snapshot::{
    PatternSnapshot, RefreshStats, SnapshotCell, SnapshotSubscriber, SubscriberStats,
};
pub use window::{FrozenView, IngestStats, SlidingWindowDatabase};
pub use worker::{PipelineStats, RefreshJob, RefreshWorker, ShutdownOutcome};
