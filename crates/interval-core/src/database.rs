//! Interval databases: collections of sequences sharing one symbol table,
//! plus ergonomic builders.

use crate::interval::{EventInterval, Time, UncertainInterval};
use crate::rng::SplitMix64;
use crate::sequence::{IntervalSequence, UncertainSequence};
use crate::symbols::{SymbolId, SymbolTable};

/// A database of interval sequences over a shared symbol table.
///
/// This is the input type of every miner in the workspace. Use
/// [`DatabaseBuilder`] for ergonomic construction from names, or
/// [`IntervalDatabase::from_parts`] when symbols are already interned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalDatabase {
    symbols: SymbolTable,
    sequences: Vec<IntervalSequence>,
}

impl IntervalDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles a database from pre-interned parts.
    pub fn from_parts(symbols: SymbolTable, sequences: Vec<IntervalSequence>) -> Self {
        Self { symbols, sequences }
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The sequences.
    pub fn sequences(&self) -> &[IntervalSequence] {
        &self.sequences
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether the database has no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total number of intervals across all sequences.
    pub fn total_intervals(&self) -> usize {
        self.sequences.iter().map(IntervalSequence::len).sum()
    }

    /// Mean intervals per sequence (0.0 when empty).
    pub fn mean_sequence_len(&self) -> f64 {
        if self.sequences.is_empty() {
            0.0
        } else {
            self.total_intervals() as f64 / self.sequences.len() as f64
        }
    }

    /// Converts an absolute support count into a relative one.
    pub fn relative_support(&self, count: usize) -> f64 {
        if self.sequences.is_empty() {
            0.0
        } else {
            count as f64 / self.sequences.len() as f64
        }
    }

    /// Converts a relative minimum support in `[0, 1]` into the smallest
    /// absolute count that satisfies it (at least 1).
    pub fn absolute_support(&self, fraction: f64) -> usize {
        ((fraction * self.sequences.len() as f64).ceil() as usize).max(1)
    }
}

/// A database of uncertain interval sequences.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UncertainDatabase {
    symbols: SymbolTable,
    sequences: Vec<UncertainSequence>,
}

impl UncertainDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles an uncertain database from pre-interned parts.
    pub fn from_parts(symbols: SymbolTable, sequences: Vec<UncertainSequence>) -> Self {
        Self { symbols, sequences }
    }

    /// Lifts a certain database: every interval exists with probability 1.
    pub fn from_certain(db: &IntervalDatabase) -> Self {
        let sequences = db
            .sequences()
            .iter()
            .map(|s| s.iter().copied().map(UncertainInterval::certain).collect())
            .collect();
        Self {
            symbols: db.symbols().clone(),
            sequences,
        }
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The sequences.
    pub fn sequences(&self) -> &[UncertainSequence] {
        &self.sequences
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether the database has no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total number of intervals across all sequences.
    pub fn total_intervals(&self) -> usize {
        self.sequences.iter().map(UncertainSequence::len).sum()
    }

    /// Samples one possible world: each interval is kept independently with
    /// its probability. Deterministic for a fixed `seed`.
    pub fn sample_world(&self, seed: u64) -> IntervalDatabase {
        let mut rng = SplitMix64::new(seed);
        let sequences = self
            .sequences
            .iter()
            .map(|s| {
                s.intervals()
                    .iter()
                    .filter(|u| rng.unit_f64() < u.probability)
                    .map(|u| u.interval)
                    .collect()
            })
            .collect();
        IntervalDatabase {
            symbols: self.symbols.clone(),
            sequences,
        }
    }
}

/// Fluent builder for [`IntervalDatabase`] that interns symbol names on the
/// fly.
///
/// ```
/// use interval_core::DatabaseBuilder;
///
/// let mut b = DatabaseBuilder::new();
/// b.sequence().interval("a", 0, 5).interval("b", 3, 8);
/// b.sequence().interval("a", 1, 2);
/// let db = b.build();
/// assert_eq!(db.len(), 2);
/// assert_eq!(db.total_intervals(), 3);
/// ```
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    symbols: SymbolTable,
    sequences: Vec<IntervalSequence>,
}

impl DatabaseBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a symbol name up front (e.g. from a file header), fixing its
    /// id before any interval mentions it.
    pub fn intern_symbol(&mut self, name: &str) -> SymbolId {
        self.symbols.intern(name)
    }

    /// Starts a new (initially empty) sequence and returns a handle for
    /// adding intervals to it.
    pub fn sequence(&mut self) -> SequenceBuilder<'_> {
        self.sequences.push(IntervalSequence::new());
        SequenceBuilder { db: self }
    }

    /// Finalizes the database.
    pub fn build(self) -> IntervalDatabase {
        IntervalDatabase {
            symbols: self.symbols,
            sequences: self.sequences,
        }
    }
}

/// Handle appending intervals to the sequence most recently started on a
/// [`DatabaseBuilder`].
#[derive(Debug)]
pub struct SequenceBuilder<'a> {
    db: &'a mut DatabaseBuilder,
}

impl SequenceBuilder<'_> {
    /// Appends `(symbol, start, end)`, interning the symbol name.
    ///
    /// # Panics
    /// Panics when `start >= end`; use [`EventInterval::new`] directly for
    /// fallible construction.
    pub fn interval(self, symbol: &str, start: Time, end: Time) -> Self {
        let id = self.db.symbols.intern(symbol);
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract of the test/example builder; EventInterval::new is the fallible API"
        )]
        let iv = EventInterval::new(id, start, end)
            .unwrap_or_else(|e| panic!("DatabaseBuilder::interval: {e}"));
        #[expect(
            clippy::expect_used,
            reason = "the builder type is only reachable via sequence(), which pushes the entry this unwraps"
        )]
        self.db
            .sequences
            .last_mut()
            .expect("sequence() was called")
            .push(iv);
        self
    }

    /// Appends an already-interned interval.
    pub fn raw(self, symbol: SymbolId, start: Time, end: Time) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract of the test/example builder; EventInterval::new is the fallible API"
        )]
        let iv = EventInterval::new(symbol, start, end)
            .unwrap_or_else(|e| panic!("DatabaseBuilder::raw: {e}"));
        #[expect(
            clippy::expect_used,
            reason = "the builder type is only reachable via sequence(), which pushes the entry this unwraps"
        )]
        self.db
            .sequences
            .last_mut()
            .expect("sequence() was called")
            .push(iv);
        self
    }
}

/// Fluent builder for [`UncertainDatabase`].
#[derive(Debug, Default)]
pub struct UncertainDatabaseBuilder {
    symbols: SymbolTable,
    sequences: Vec<UncertainSequence>,
}

impl UncertainDatabaseBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a symbol name up front (e.g. from a file header), fixing its
    /// id before any interval mentions it.
    pub fn intern_symbol(&mut self, name: &str) -> SymbolId {
        self.symbols.intern(name)
    }

    /// Starts a new sequence.
    pub fn sequence(&mut self) -> UncertainSequenceBuilder<'_> {
        self.sequences.push(UncertainSequence::new());
        UncertainSequenceBuilder { db: self }
    }

    /// Finalizes the database.
    pub fn build(self) -> UncertainDatabase {
        UncertainDatabase {
            symbols: self.symbols,
            sequences: self.sequences,
        }
    }
}

/// Handle appending uncertain intervals to the sequence most recently started
/// on an [`UncertainDatabaseBuilder`].
#[derive(Debug)]
pub struct UncertainSequenceBuilder<'a> {
    db: &'a mut UncertainDatabaseBuilder,
}

impl UncertainSequenceBuilder<'_> {
    /// Appends `(symbol, start, end)` existing with probability `p`.
    ///
    /// # Panics
    /// Panics when `start >= end` or `p` is outside `(0, 1]`.
    pub fn interval(self, symbol: &str, start: Time, end: Time, p: f64) -> Self {
        let id = self.db.symbols.intern(symbol);
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract of the test/example builder; EventInterval::new is the fallible API"
        )]
        let iv = EventInterval::new(id, start, end)
            .unwrap_or_else(|e| panic!("UncertainDatabaseBuilder::interval: {e}"));
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract of the test/example builder; UncertainInterval::new is the fallible API"
        )]
        let u = UncertainInterval::new(iv, p)
            .unwrap_or_else(|e| panic!("UncertainDatabaseBuilder::interval: {e}"));
        #[expect(
            clippy::expect_used,
            reason = "the builder type is only reachable via sequence(), which pushes the entry this unwraps"
        )]
        self.db
            .sequences
            .last_mut()
            .expect("sequence() was called")
            .push(u);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_and_collects() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("a", 0, 5).interval("b", 3, 8);
        b.sequence().interval("a", 1, 2);
        let db = b.build();
        assert_eq!(db.len(), 2);
        assert_eq!(db.symbols().len(), 2);
        assert_eq!(db.total_intervals(), 3);
        assert!((db.mean_sequence_len() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn support_conversions() {
        let mut b = DatabaseBuilder::new();
        for _ in 0..10 {
            b.sequence().interval("a", 0, 1);
        }
        let db = b.build();
        assert_eq!(db.absolute_support(0.25), 3);
        assert_eq!(db.absolute_support(0.0), 1);
        assert!((db.relative_support(5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uncertain_from_certain_has_probability_one() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("a", 0, 5);
        let db = b.build();
        let udb = UncertainDatabase::from_certain(&db);
        assert_eq!(udb.len(), 1);
        assert_eq!(udb.sequences()[0].intervals()[0].probability, 1.0);
    }

    #[test]
    fn sample_world_is_deterministic_and_respects_extremes() {
        let mut b = UncertainDatabaseBuilder::new();
        b.sequence()
            .interval("sure", 0, 5, 1.0)
            .interval("maybe", 1, 3, 0.5);
        let udb = b.build();
        let w1 = udb.sample_world(42);
        let w2 = udb.sample_world(42);
        assert_eq!(w1, w2);
        // probability-1 intervals are always present
        for seed in 0..20 {
            let w = udb.sample_world(seed);
            assert!(w.sequences()[0]
                .iter()
                .any(|iv| udb.symbols().name(iv.symbol) == "sure"));
        }
        // probability-0.5 interval appears in some but not all worlds
        let kept = (0..200)
            .filter(|&seed| udb.sample_world(seed).sequences()[0].len() == 2)
            .count();
        assert!(kept > 40 && kept < 160, "kept={kept}");
    }

    #[test]
    fn empty_database_stats() {
        let db = IntervalDatabase::new();
        assert!(db.is_empty());
        assert_eq!(db.mean_sequence_len(), 0.0);
        assert_eq!(db.relative_support(0), 0.0);
    }
}
