//! Shared input generators for the cross-crate integration tests, and the
//! property harness that runs them ([`prop`]).
//!
//! Each integration-test binary compiles this module independently and uses
//! a subset of it, so unused-item warnings are expected noise.
#![allow(
    dead_code,
    reason = "each integration-test binary uses a subset of this module"
)]

pub mod prop;

use interval_core::rng::SplitMix64;
use interval_core::{
    EventInterval, IntervalDatabase, IntervalSequence, StreamEvent, SymbolId, SymbolTable, Time,
};
use stream::SlidingWindowDatabase;

/// One event interval over a tiny alphabet and time grid, so that
/// coincidences (meets, equal starts, ties) are common.
pub fn small_interval(rng: &mut SplitMix64, max_symbol: u32) -> EventInterval {
    let symbol = SymbolId(rng.range(0..max_symbol));
    let start = rng.range(0i64..8);
    let len = rng.range(1i64..5);
    EventInterval::new_unchecked(symbol, start, start + len)
}

/// A small interval database (dense enough to be interesting, small enough
/// for the exponential oracles).
pub fn small_database(rng: &mut SplitMix64) -> IntervalDatabase {
    let sequences = prop::vec(rng, 1..6, |rng| {
        IntervalSequence::from_intervals(prop::vec(rng, 0..6, |rng| small_interval(rng, 4)))
    });
    IntervalDatabase::from_parts(SymbolTable::with_synthetic_symbols(4), sequences)
}

/// A list of concrete intervals to build arrangements from.
pub fn interval_set(rng: &mut SplitMix64) -> Vec<EventInterval> {
    prop::vec(rng, 1..5, |rng| small_interval(rng, 3))
}

/// One step of a randomly generated ingest run.
#[derive(Debug, Clone)]
pub enum Op {
    Interval {
        sequence: u64,
        symbol: u32,
        start: Time,
        end: Time,
    },
    Watermark(Time),
}

impl Op {
    pub fn event(&self) -> StreamEvent {
        match *self {
            Op::Interval {
                sequence,
                symbol,
                start,
                end,
            } => StreamEvent::Interval {
                sequence,
                symbol: format!("s{symbol}"),
                start,
                end,
            },
            Op::Watermark(at) => StreamEvent::Watermark(at),
        }
    }

    /// The same op, `by` time units later.
    fn shifted(self, by: Time) -> Op {
        match self {
            Op::Interval {
                sequence,
                symbol,
                start,
                end,
            } => Op::Interval {
                sequence,
                symbol,
                start: start + by,
                end: end + by,
            },
            Op::Watermark(at) => Op::Watermark(at + by),
        }
    }
}

/// ~1 in 4 ops advances the watermark; the rest insert intervals over a
/// tiny alphabet/sequence space so that co-occurrence (and therefore mining
/// work) is common. Times start in `0..span`.
fn op(rng: &mut SplitMix64, span: Time) -> Op {
    let kind = rng.range(0u32..4);
    let sequence = rng.range(0u64..4);
    let symbol = rng.range(0u32..4);
    let t = rng.range(0i64..span);
    let len = rng.range(1i64..8);
    if kind == 0 {
        Op::Watermark(t + len)
    } else {
        Op::Interval {
            sequence,
            symbol,
            start: t,
            end: t + len,
        }
    }
}

/// A random ingest run of 1 to 39 ops.
pub fn ops(rng: &mut SplitMix64) -> Vec<Op> {
    prop::vec(rng, 1..40, |rng| op(rng, 50))
}

/// A longer run, of 40 to 159 ops, on a clock that moves forward: each op
/// is drawn as in [`ops`] over a 16-unit span, then shifted by the clock,
/// which advances 0 to 2 units per op. Watermarks mostly advance, so a
/// sliding window evicts as it goes, and a journal rotates and reclaims.
pub fn drifting_ops(rng: &mut SplitMix64) -> Vec<Op> {
    let mut now: Time = 0;
    prop::vec(rng, 40..160, |rng| {
        now += rng.range(0i64..3);
        op(rng, 16).shifted(now)
    })
}

/// The window's materialized contents in a canonical, name-keyed shape:
/// per sequence (in id order), the sorted `(symbol name, start, end)`
/// triples. Symbol-table internals use hash maps, so raw `Debug` output is
/// not order-stable across instances.
pub fn window_contents(window: &SlidingWindowDatabase) -> Vec<Vec<(String, Time, Time)>> {
    let db = window.snapshot_database();
    db.sequences()
        .iter()
        .map(|seq| {
            let mut intervals: Vec<(String, Time, Time)> = seq
                .intervals()
                .iter()
                .map(|iv| (db.symbols().name(iv.symbol).to_owned(), iv.start, iv.end))
                .collect();
            intervals.sort();
            intervals
        })
        .collect()
}
