//! Symbol interning.
//!
//! Event symbols (e.g. `"fever"`, `"AAPL-up"`) are interned into dense
//! [`SymbolId`]s so the mining hot paths work on `u32`s while display and I/O
//! keep human-readable names.

use std::collections::HashMap;
use std::fmt;

/// A dense identifier for an interned event symbol.
///
/// Ids are assigned consecutively from 0 by the [`SymbolTable`] that created
/// them; they are only meaningful together with that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u32);

impl SymbolId {
    /// The id as a `usize`, for indexing per-symbol arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An interning table mapping symbol names to dense [`SymbolId`]s.
///
/// ```
/// use interval_core::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// let fever = table.intern("fever");
/// assert_eq!(table.intern("fever"), fever); // idempotent
/// assert_eq!(table.name(fever), "fever");
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, SymbolId>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table pre-populated with `n` synthetic symbols named
    /// `e0, e1, …` — convenient for generators that only need ids.
    pub fn with_synthetic_symbols(n: usize) -> Self {
        let mut table = Self::new();
        for i in 0..n {
            table.intern(&format!("e{i}"));
        }
        table
    }

    /// Interns `name`, returning its id. Repeated calls with the same name
    /// return the same id.
    pub fn intern(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "id-space exhaustion (> 4 billion distinct symbols) is unrecoverable capacity corruption, not an input error worth a Result in every signature"
        )]
        let id = SymbolId(u32::try_from(self.names.len()).expect("more than u32::MAX symbols"));
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<SymbolId> {
        self.index.get(name).copied()
    }

    /// The name of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not created by this table.
    pub fn name(&self, id: SymbolId) -> &str {
        &self.names[id.index()]
    }

    /// The name of `id`, or `None` if it is out of range.
    pub fn try_name(&self, id: SymbolId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SymbolId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (SymbolId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn names_round_trip() {
        let mut t = SymbolTable::new();
        let id = t.intern("fever");
        assert_eq!(t.name(id), "fever");
        assert_eq!(t.lookup("fever"), Some(id));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn synthetic_symbols_are_named_consecutively() {
        let t = SymbolTable::with_synthetic_symbols(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.name(SymbolId(0)), "e0");
        assert_eq!(t.name(SymbolId(2)), "e2");
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let pairs: Vec<_> = t.iter().map(|(id, n)| (id.0, n.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "a".to_owned()), (1, "b".to_owned())]);
    }
}
