//! Shared helpers for the evaluation harness: workload construction, result
//! tables and charts. The `repro` binary, the one harness that re-runs the
//! evaluation, and the `gates` binary build on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "the evaluation harness prints its tables, and may stop on a broken invariant"
)]

pub mod chart;
pub mod tables;
pub mod workloads;
