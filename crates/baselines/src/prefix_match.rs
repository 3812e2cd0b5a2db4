//! Containment of pattern *prefixes* — the verification primitive of
//! [`TPrefixSpan`](crate::TPrefixSpan).
//!
//! A prefix is a well-formed pattern that may still have *open* slots
//! (started, not yet finished). A sequence supports a prefix when there is
//! an injective symbol-preserving assignment of slots to instances such that
//!
//! - all *appended* endpoints (starts, and finishes of closed slots)
//!   reproduce the prefix's group order/equality structure, and
//! - every open slot's instance ends **no earlier than** the data time the
//!   prefix's last endpoint set is mapped to (otherwise the prefix could
//!   never be completed in this embedding).

use interval_core::{EndpointKind, EventInterval, IntervalSequence, PatternEndpoint, SymbolId};

/// A pattern prefix: endpoint sets plus the set of still-open slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prefix {
    /// The endpoint sets appended so far.
    pub groups: Vec<Vec<PatternEndpoint>>,
    /// Slots with a start but no finish yet, ascending.
    pub open: Vec<u8>,
}

/// Per-slot view of a prefix.
#[derive(Debug, Clone, Copy)]
struct PrefixSlot {
    symbol: SymbolId,
    start_group: u16,
    /// `None` while the slot is open.
    end_group: Option<u16>,
}

impl Prefix {
    /// The number of slots (intervals) in the prefix.
    pub fn arity(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .filter(|e| e.kind == EndpointKind::Start)
            .count()
    }

    /// Whether all slots are closed.
    pub fn is_complete(&self) -> bool {
        self.open.is_empty()
    }

    fn slots(&self) -> Vec<PrefixSlot> {
        let arity = self.arity();
        let mut slots = vec![
            PrefixSlot {
                symbol: SymbolId(0),
                start_group: 0,
                end_group: None,
            };
            arity
        ];
        for (gi, g) in self.groups.iter().enumerate() {
            for e in g {
                let s = &mut slots[e.slot as usize];
                s.symbol = e.symbol;
                match e.kind {
                    EndpointKind::Start => s.start_group = gi as u16,
                    EndpointKind::Finish => s.end_group = Some(gi as u16),
                }
            }
        }
        slots
    }
}

/// Whether `seq` supports `prefix` (see the module docs for the semantics).
pub fn prefix_contains(seq: &IntervalSequence, prefix: &Prefix) -> bool {
    if prefix.groups.is_empty() {
        return true;
    }
    let slots = prefix.slots();
    let last_group = (prefix.groups.len() - 1) as u16;
    // An endpoint anchored in the last set, used to read off its data time.
    #[expect(
        clippy::expect_used,
        reason = "guarded by the is_empty early-return above"
    )]
    let anchor = prefix.groups.last().expect("non-empty")[0];

    // Bucket sequence instances by the symbols the prefix needs.
    let mut symbols: Vec<SymbolId> = slots.iter().map(|s| s.symbol).collect();
    symbols.sort_unstable();
    symbols.dedup();
    let mut by_symbol: Vec<Vec<EventInterval>> = vec![Vec::new(); symbols.len()];
    for iv in seq.iter() {
        if let Ok(i) = symbols.binary_search(&iv.symbol) {
            by_symbol[i].push(*iv);
        }
    }
    let symbol_of: Vec<usize> = match slots
        .iter()
        .map(|s| symbols.binary_search(&s.symbol).ok())
        .collect::<Option<Vec<_>>>()
    {
        Some(v) => v,
        None => return false,
    };
    if symbol_of.iter().any(|&i| by_symbol[i].is_empty()) {
        return false;
    }

    let mut assigned: Vec<EventInterval> = Vec::with_capacity(slots.len());
    let mut used: Vec<Vec<bool>> = by_symbol.iter().map(|v| vec![false; v.len()]).collect();
    search(
        &slots,
        last_group,
        anchor,
        &by_symbol,
        &symbol_of,
        &mut assigned,
        &mut used,
    )
}

/// Ordered comparison of two endpoint *positions* of the prefix, where a
/// position is `(group, known)`; unknown (open-end) positions impose no
/// constraint.
fn pairwise_ok(
    slots: &[PrefixSlot],
    assigned: &[EventInterval],
    j: usize,
    iv: &EventInterval,
) -> bool {
    let sj = &slots[j];
    for (i, other) in assigned.iter().enumerate() {
        let si = &slots[i];
        // start_j vs start_i
        if sj.start_group.cmp(&si.start_group) != iv.start.cmp(&other.start) {
            return false;
        }
        // start_j vs end_i
        if let Some(ei) = si.end_group {
            if sj.start_group.cmp(&ei) != iv.start.cmp(&other.end) {
                return false;
            }
        }
        // end_j vs start_i / end_i
        if let Some(ej) = sj.end_group {
            if ej.cmp(&si.start_group) != iv.end.cmp(&other.start) {
                return false;
            }
            if let Some(ei) = si.end_group {
                if ej.cmp(&ei) != iv.end.cmp(&other.end) {
                    return false;
                }
            }
        }
    }
    true
}

fn search(
    slots: &[PrefixSlot],
    last_group: u16,
    anchor: PatternEndpoint,
    by_symbol: &[Vec<EventInterval>],
    symbol_of: &[usize],
    assigned: &mut Vec<EventInterval>,
    used: &mut Vec<Vec<bool>>,
) -> bool {
    let j = assigned.len();
    if j == slots.len() {
        // Open ends must be completable: end no earlier than the data time
        // the last endpoint set maps to.
        let anchor_iv = assigned[anchor.slot as usize];
        let t_last = match anchor.kind {
            EndpointKind::Start => anchor_iv.start,
            EndpointKind::Finish => anchor_iv.end,
        };
        let _ = last_group;
        return slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_group.is_none())
            .all(|(i, _)| assigned[i].end >= t_last);
    }
    let sym = symbol_of[j];
    for idx in 0..by_symbol[sym].len() {
        if used[sym][idx] {
            continue;
        }
        let iv = by_symbol[sym][idx];
        if !pairwise_ok(slots, assigned, j, &iv) {
            continue;
        }
        used[sym][idx] = true;
        assigned.push(iv);
        if search(
            slots, last_group, anchor, by_symbol, symbol_of, assigned, used,
        ) {
            return true;
        }
        assigned.pop();
        used[sym][idx] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use interval_core::{matcher, DatabaseBuilder, SymbolTable, TemporalPattern};

    fn prefix_of(pattern: &TemporalPattern) -> Prefix {
        Prefix {
            groups: pattern.groups().to_vec(),
            open: Vec::new(),
        }
    }

    #[test]
    fn complete_prefix_agrees_with_matcher() {
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 5)
            .interval("B", 3, 8)
            .interval("A", 7, 9);
        b.sequence().interval("A", 0, 5).interval("B", 6, 8);
        let db = b.build();
        let mut t = db.symbols().clone();
        for text in [
            "A+ | A-",
            "A+ | B+ | A- | B-",
            "A+ | A- | B+ | B-",
            "A+#0 | A-#0 | A+#1 | A-#1",
            "B+ | B- A+ | A-",
        ] {
            let p = TemporalPattern::parse(text, &mut t).unwrap();
            let prefix = prefix_of(&p);
            for seq in db.sequences() {
                assert_eq!(
                    prefix_contains(seq, &prefix),
                    matcher::contains(seq, &p),
                    "pattern {text}"
                );
            }
        }
    }

    #[test]
    fn open_prefix_requires_completable_end() {
        let mut t = SymbolTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        // prefix: A+ | A- B+  (B still open)
        let prefix = Prefix {
            groups: vec![
                vec![PatternEndpoint {
                    kind: EndpointKind::Start,
                    symbol: a,
                    slot: 0,
                }],
                vec![
                    PatternEndpoint {
                        kind: EndpointKind::Finish,
                        symbol: a,
                        slot: 0,
                    },
                    PatternEndpoint {
                        kind: EndpointKind::Start,
                        symbol: b,
                        slot: 1,
                    },
                ],
            ],
            open: vec![1],
        };
        let mut db = DatabaseBuilder::new();
        // B starts exactly when A ends: supports the prefix.
        db.sequence().interval("A", 0, 5).interval("B", 5, 9);
        // B entirely before A: cannot realize A- and B+ simultaneously.
        db.sequence().interval("B", 0, 1).interval("A", 2, 5);
        let db = db.build();
        assert!(prefix_contains(&db.sequences()[0], &prefix));
        assert!(!prefix_contains(&db.sequences()[1], &prefix));
    }

    #[test]
    fn open_end_before_last_group_is_rejected() {
        let mut t = SymbolTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        // prefix: A+ | B+ | B-   (A open, so A must end at/after B-'s time)
        let prefix = Prefix {
            groups: vec![
                vec![PatternEndpoint {
                    kind: EndpointKind::Start,
                    symbol: a,
                    slot: 0,
                }],
                vec![PatternEndpoint {
                    kind: EndpointKind::Start,
                    symbol: b,
                    slot: 1,
                }],
                vec![PatternEndpoint {
                    kind: EndpointKind::Finish,
                    symbol: b,
                    slot: 1,
                }],
            ],
            open: vec![0],
        };
        let mut db = DatabaseBuilder::new();
        db.sequence().interval("A", 0, 10).interval("B", 2, 5); // A contains B: ok
        db.sequence().interval("A", 0, 4).interval("B", 2, 5); // A ends before B-: dead
        let db = db.build();
        assert!(prefix_contains(&db.sequences()[0], &prefix));
        assert!(!prefix_contains(&db.sequences()[1], &prefix));
    }

    #[test]
    fn empty_prefix_is_everywhere() {
        let mut db = DatabaseBuilder::new();
        db.sequence();
        let db = db.build();
        let prefix = Prefix {
            groups: vec![],
            open: vec![],
        };
        assert!(prefix_contains(&db.sequences()[0], &prefix));
    }
}
