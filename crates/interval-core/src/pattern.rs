//! Temporal (arrangement) patterns in the endpoint representation.
//!
//! A temporal pattern describes a *qualitative arrangement* of `k` event
//! intervals: which endpoints coincide and which strictly precede others.
//! It is stored as a sequence of *endpoint sets* ("groups"); each endpoint
//! names the pattern *slot* (interval occurrence) it belongs to, so repeated
//! symbols are unambiguous (e.g. two overlapping `A`s that cross vs. nest are
//! different patterns).
//!
//! Patterns are kept in a **canonical form** so that structural equality is
//! pattern equality:
//!
//! - slots are numbered by the order of their start endpoints (group index
//!   ascending; within a group by symbol, then by end group);
//! - within a group, finish endpoints come first (sorted by slot), then
//!   start endpoints (sorted by symbol, then slot).
//!
//! The canonical form also resolves the classic isomorphism trap: when two
//! same-symbol slots start in the same group, the lower-numbered slot always
//! finishes no later than the higher one.

use crate::allen::AllenRelation;
use crate::endpoint::EndpointKind;
use crate::error::{IntervalError, Result};
use crate::interval::EventInterval;
use crate::sequence::IntervalSequence;
use crate::symbols::{SymbolId, SymbolTable};
use std::fmt;

/// One endpoint of one pattern slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternEndpoint {
    /// Start or finish.
    pub kind: EndpointKind,
    /// The event symbol.
    pub symbol: SymbolId,
    /// The slot (interval occurrence within the pattern) this endpoint
    /// belongs to, in `0..arity`.
    pub slot: u8,
}

impl PatternEndpoint {
    /// Sort key realizing the canonical within-group order.
    fn group_rank(&self) -> (u8, SymbolId, u8) {
        match self.kind {
            EndpointKind::Finish => (0, SymbolId(0), self.slot),
            EndpointKind::Start => (1, self.symbol, self.slot),
        }
    }
}

/// Derived per-slot view of a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotInfo {
    /// The slot's symbol.
    pub symbol: SymbolId,
    /// Group index of its start endpoint.
    pub start_group: u16,
    /// Group index of its finish endpoint (always `> start_group`).
    pub end_group: u16,
}

/// A temporal pattern: a canonical well-formed sequence of endpoint sets.
///
/// ```
/// use interval_core::{EventInterval, SymbolId, TemporalPattern};
///
/// // The arrangement of two concrete intervals: A overlaps B.
/// let a = EventInterval::new(SymbolId(0), 0, 5).unwrap();
/// let b = EventInterval::new(SymbolId(1), 3, 8).unwrap();
/// let p = TemporalPattern::arrangement_of(&[a, b]);
/// assert_eq!(p.arity(), 2);
/// assert_eq!(p.num_groups(), 4); // A+ | B+ | A- | B-
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TemporalPattern {
    groups: Vec<Vec<PatternEndpoint>>,
    arity: u8,
}

impl TemporalPattern {
    /// The empty pattern (zero intervals). Contained in every sequence.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The 1-pattern consisting of a single `symbol` interval.
    pub fn singleton(symbol: SymbolId) -> Self {
        Self {
            groups: vec![
                vec![PatternEndpoint {
                    kind: EndpointKind::Start,
                    symbol,
                    slot: 0,
                }],
                vec![PatternEndpoint {
                    kind: EndpointKind::Finish,
                    symbol,
                    slot: 0,
                }],
            ],
            arity: 1,
        }
    }

    /// Builds a pattern from endpoint groups, validating well-formedness and
    /// bringing it to canonical form (slots may be renumbered).
    ///
    /// Requirements:
    /// - groups are non-empty;
    /// - slots form a contiguous range `0..arity`;
    /// - each slot has exactly one start and one finish, with a consistent
    ///   symbol, and the start group strictly precedes the finish group.
    pub fn from_groups(groups: Vec<Vec<PatternEndpoint>>) -> Result<Self> {
        if groups.iter().any(Vec::is_empty) {
            return Err(IntervalError::MalformedPattern("empty endpoint set".into()));
        }
        let mut max_slot: i32 = -1;
        for g in &groups {
            for e in g {
                max_slot = max_slot.max(e.slot as i32);
            }
        }
        let arity = (max_slot + 1) as usize;
        if arity > u8::MAX as usize {
            return Err(IntervalError::MalformedPattern(
                "pattern arity exceeds 255".into(),
            ));
        }
        if groups.len() > u16::MAX as usize {
            return Err(IntervalError::MalformedPattern(
                "pattern has more than 65535 endpoint sets".into(),
            ));
        }

        // Collect per-slot info, validating multiplicity and consistency.
        let mut starts: Vec<Option<(u16, SymbolId)>> = vec![None; arity];
        let mut ends: Vec<Option<(u16, SymbolId)>> = vec![None; arity];
        for (gi, g) in groups.iter().enumerate() {
            for e in g {
                let entry = match e.kind {
                    EndpointKind::Start => &mut starts[e.slot as usize],
                    EndpointKind::Finish => &mut ends[e.slot as usize],
                };
                if entry.is_some() {
                    return Err(IntervalError::MalformedPattern(format!(
                        "slot {} has a duplicate {:?} endpoint",
                        e.slot, e.kind
                    )));
                }
                *entry = Some((gi as u16, e.symbol));
            }
        }
        let mut slots = Vec::with_capacity(arity);
        for slot in 0..arity {
            let (sg, ssym) = starts[slot].ok_or_else(|| {
                IntervalError::MalformedPattern(format!("slot {slot} has no start endpoint"))
            })?;
            let (eg, esym) = ends[slot].ok_or_else(|| {
                IntervalError::MalformedPattern(format!("slot {slot} has no finish endpoint"))
            })?;
            if ssym != esym {
                return Err(IntervalError::MalformedPattern(format!(
                    "slot {slot} start symbol {ssym} differs from finish symbol {esym}"
                )));
            }
            if sg >= eg {
                return Err(IntervalError::MalformedPattern(format!(
                    "slot {slot} finish (set {eg}) does not strictly follow its start (set {sg})"
                )));
            }
            slots.push(SlotInfo {
                symbol: ssym,
                start_group: sg,
                end_group: eg,
            });
        }

        // Canonical slot renumbering.
        let mut order: Vec<u8> = (0..arity as u8).collect();
        order.sort_by_key(|&s| {
            let info = slots[s as usize];
            (info.start_group, info.symbol, info.end_group, s)
        });
        let mut remap = vec![0u8; arity];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u8;
        }

        let mut canonical: Vec<Vec<PatternEndpoint>> = groups
            .into_iter()
            .map(|g| {
                g.into_iter()
                    .map(|e| PatternEndpoint {
                        slot: remap[e.slot as usize],
                        ..e
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        for g in &mut canonical {
            g.sort_unstable_by_key(PatternEndpoint::group_rank);
        }

        Ok(Self {
            groups: canonical,
            arity: arity as u8,
        })
    }

    /// The arrangement pattern of a set of concrete intervals: endpoints
    /// grouped by equal timestamps, everything else abstracted away.
    #[expect(
        clippy::expect_used,
        reason = "groups are built from valid intervals (start < end, every slot paired), so from_groups cannot reject them; failure is construction-invariant corruption"
    )]
    pub fn arrangement_of(intervals: &[EventInterval]) -> Self {
        if intervals.is_empty() {
            return Self::empty();
        }
        let mut times: Vec<i64> = intervals.iter().flat_map(|iv| [iv.start, iv.end]).collect();
        times.sort_unstable();
        times.dedup();
        // Every queried timestamp was just inserted into `times`, so the
        // search is infallible; clamp on the (unreachable) miss.
        let rank = |t: i64| {
            times.binary_search(&t).unwrap_or_else(|pos| {
                debug_assert!(false, "endpoint time {t} missing from rank table");
                pos.min(times.len() - 1)
            })
        };

        let mut groups: Vec<Vec<PatternEndpoint>> = vec![Vec::new(); times.len()];
        for (slot, iv) in intervals.iter().enumerate() {
            groups[rank(iv.start)].push(PatternEndpoint {
                kind: EndpointKind::Start,
                symbol: iv.symbol,
                slot: slot as u8,
            });
            groups[rank(iv.end)].push(PatternEndpoint {
                kind: EndpointKind::Finish,
                symbol: iv.symbol,
                slot: slot as u8,
            });
        }
        Self::from_groups(groups).expect("arrangement of concrete intervals is well-formed")
    }

    /// Number of intervals in the pattern.
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// The canonical result order: by arity, then by the derived `Ord`.
    /// Every mined result is sorted by it; closed and maximal pattern sets
    /// keep the derived order.
    pub fn canonical_cmp(&self, other: &TemporalPattern) -> std::cmp::Ordering {
        (self.arity, self).cmp(&(other.arity, other))
    }

    /// Number of endpoint sets.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether the pattern is empty (zero intervals).
    pub fn is_empty(&self) -> bool {
        self.arity == 0
    }

    /// The endpoint sets in order.
    pub fn groups(&self) -> &[Vec<PatternEndpoint>] {
        &self.groups
    }

    /// Iterates over all endpoints with their group index.
    pub fn endpoints(&self) -> impl Iterator<Item = (u16, PatternEndpoint)> + '_ {
        self.groups
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| g.iter().map(move |&e| (gi as u16, e)))
    }

    /// Derived slot views, indexed by slot.
    pub fn slot_infos(&self) -> Vec<SlotInfo> {
        let mut slots = vec![
            SlotInfo {
                symbol: SymbolId(0),
                start_group: 0,
                end_group: 0,
            };
            self.arity()
        ];
        for (gi, e) in self.endpoints() {
            let info = &mut slots[e.slot as usize];
            info.symbol = e.symbol;
            match e.kind {
                EndpointKind::Start => info.start_group = gi,
                EndpointKind::Finish => info.end_group = gi,
            }
        }
        slots
    }

    /// The distinct symbols used by the pattern, sorted.
    pub fn symbols(&self) -> Vec<SymbolId> {
        let mut syms: Vec<SymbolId> = self.slot_infos().iter().map(|s| s.symbol).collect();
        syms.sort_unstable();
        syms.dedup();
        syms
    }

    /// The Allen relation between two slots, `slot_a rel slot_b`.
    pub fn relation(&self, slot_a: usize, slot_b: usize) -> AllenRelation {
        let infos = self.slot_infos();
        let to_iv = |s: &SlotInfo| {
            EventInterval::new_unchecked(s.symbol, s.start_group as i64, s.end_group as i64)
        };
        AllenRelation::relate(&to_iv(&infos[slot_a]), &to_iv(&infos[slot_b]))
    }

    /// The full `arity × arity` Allen relation matrix (diagonal is `Equals`).
    pub fn relation_matrix(&self) -> Vec<Vec<AllenRelation>> {
        let infos = self.slot_infos();
        let ivs: Vec<EventInterval> = infos
            .iter()
            .map(|s| {
                EventInterval::new_unchecked(s.symbol, s.start_group as i64, s.end_group as i64)
            })
            .collect();
        ivs.iter()
            .map(|a| ivs.iter().map(|b| AllenRelation::relate(a, b)).collect())
            .collect()
    }

    /// A canonical concrete realization of the pattern: one interval per
    /// slot, with times equal to group indices. The realization's
    /// [`arrangement_of`](Self::arrangement_of) is the pattern itself.
    pub fn realization(&self) -> Vec<EventInterval> {
        self.slot_infos()
            .iter()
            .map(|s| {
                EventInterval::new_unchecked(s.symbol, s.start_group as i64, s.end_group as i64)
            })
            .collect()
    }

    /// The realization as an [`IntervalSequence`] (slot identity is lost but
    /// arrangement is preserved).
    pub fn realization_sequence(&self) -> IntervalSequence {
        IntervalSequence::from_intervals(self.realization())
    }

    /// Whether `self` is a (not necessarily proper) sub-pattern of `other`:
    /// every sequence containing `other` contains `self`.
    pub fn is_subpattern_of(&self, other: &TemporalPattern) -> bool {
        crate::matcher::contains(&other.realization_sequence(), self)
    }

    /// Renders the pattern with symbol names, e.g. `A+ B+ | A- | B-`.
    /// Slots of symbols that occur more than once carry a `#k` disambiguator.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> PatternDisplay<'a> {
        PatternDisplay {
            pattern: self,
            symbols,
        }
    }

    /// Renders the pattern as an ASCII timeline, one row per slot:
    ///
    /// ```text
    /// fever  |===========|
    /// rash       |===========|
    /// ```
    ///
    /// Columns are endpoint-set positions (qualitative time); equal columns
    /// mean simultaneous endpoints.
    pub fn ascii_timeline(&self, symbols: &SymbolTable) -> String {
        const CELL: usize = 4;
        let infos = self.slot_infos();
        if infos.is_empty() {
            return String::from("(empty pattern)\n");
        }
        let name_width = infos
            .iter()
            .map(|s| {
                symbols
                    .try_name(s.symbol)
                    .map_or_else(|| s.symbol.to_string().len(), str::len)
            })
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for info in &infos {
            let name = symbols
                .try_name(info.symbol)
                .map_or_else(|| info.symbol.to_string(), str::to_owned);
            let start_col = info.start_group as usize * CELL;
            let end_col = info.end_group as usize * CELL;
            out.push_str(&format!("{name:<name_width$}  "));
            out.push_str(&" ".repeat(start_col));
            out.push('|');
            out.push_str(&"=".repeat(end_col - start_col - 1));
            out.push('|');
            out.push('\n');
        }
        out
    }

    /// Parses the textual form produced by [`display`](Self::display),
    /// interning names into `symbols`.
    ///
    /// Groups are separated by `|`, endpoints by whitespace; an endpoint is
    /// `NAME('+'|'-')` with an optional `#k` naming the k-th occurrence of
    /// that symbol (by start order). Without `#`, a finish closes the oldest
    /// still-open occurrence of its symbol.
    pub fn parse(text: &str, symbols: &mut SymbolTable) -> Result<Self> {
        let mut groups: Vec<Vec<PatternEndpoint>> = Vec::new();
        // per symbol: start order -> global slot
        let mut occurrences: std::collections::HashMap<SymbolId, Vec<u8>> =
            std::collections::HashMap::new();
        let mut open: std::collections::HashMap<SymbolId, Vec<u8>> =
            std::collections::HashMap::new();
        let mut next_slot: u16 = 0;

        for group_text in text.split('|') {
            let mut group = Vec::new();
            for token in group_text.split_whitespace() {
                let (body, occ) = match token.split_once('#') {
                    Some((b, k)) => {
                        let k: usize = k.parse().map_err(|_| IntervalError::Parse {
                            line: 0,
                            message: format!("bad occurrence index in `{token}`"),
                        })?;
                        (b, Some(k))
                    }
                    None => (token, None),
                };
                let (name, kind) = if let Some(n) = body.strip_suffix('+') {
                    (n, EndpointKind::Start)
                } else if let Some(n) = body.strip_suffix('-') {
                    (n, EndpointKind::Finish)
                } else {
                    return Err(IntervalError::Parse {
                        line: 0,
                        message: format!("endpoint `{token}` must end with + or -"),
                    });
                };
                if name.is_empty() {
                    return Err(IntervalError::Parse {
                        line: 0,
                        message: format!("empty symbol name in `{token}`"),
                    });
                }
                let symbol = symbols.intern(name);
                let slot = match kind {
                    EndpointKind::Start => {
                        if next_slot > u8::MAX as u16 {
                            return Err(IntervalError::MalformedPattern(
                                "pattern arity exceeds 255".into(),
                            ));
                        }
                        let slot = next_slot as u8;
                        next_slot += 1;
                        let occs = occurrences.entry(symbol).or_default();
                        if let Some(k) = occ {
                            if k != occs.len() {
                                return Err(IntervalError::Parse {
                                    line: 0,
                                    message: format!(
                                        "start `{token}` has occurrence #{k} but is the #{} start of its symbol",
                                        occs.len()
                                    ),
                                });
                            }
                        }
                        occs.push(slot);
                        open.entry(symbol).or_default().push(slot);
                        slot
                    }
                    EndpointKind::Finish => {
                        let open_list = open.entry(symbol).or_default();
                        let slot = match occ {
                            Some(k) => {
                                let slot = occurrences.get(&symbol).and_then(|o| o.get(k)).copied();
                                let slot = slot.ok_or_else(|| IntervalError::Parse {
                                    line: 0,
                                    message: format!("finish `{token}` names unknown occurrence"),
                                })?;
                                let pos =
                                    open_list.iter().position(|&s| s == slot).ok_or_else(|| {
                                        IntervalError::Parse {
                                            line: 0,
                                            message: format!("finish `{token}` already closed"),
                                        }
                                    })?;
                                open_list.remove(pos);
                                slot
                            }
                            None => {
                                if open_list.is_empty() {
                                    return Err(IntervalError::Parse {
                                        line: 0,
                                        message: format!("finish `{token}` has no open start"),
                                    });
                                }
                                open_list.remove(0)
                            }
                        };
                        slot
                    }
                };
                group.push(PatternEndpoint { kind, symbol, slot });
            }
            if !group.is_empty() {
                groups.push(group);
            }
        }
        Self::from_groups(groups)
    }
}

/// Display adaptor returned by [`TemporalPattern::display`].
#[derive(Debug)]
pub struct PatternDisplay<'a> {
    pattern: &'a TemporalPattern,
    symbols: &'a SymbolTable,
}

impl fmt::Display for PatternDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Count symbol multiplicity to decide whether `#k` is needed.
        let infos = self.pattern.slot_infos();
        let mut multiplicity: std::collections::HashMap<SymbolId, usize> =
            std::collections::HashMap::new();
        for s in &infos {
            *multiplicity.entry(s.symbol).or_insert(0) += 1;
        }
        // occurrence index of each slot among its symbol, by slot order
        // (canonical slot order == start order).
        let mut seen: std::collections::HashMap<SymbolId, usize> = std::collections::HashMap::new();
        let mut occ_of_slot = vec![0usize; infos.len()];
        for (slot, s) in infos.iter().enumerate() {
            let c = seen.entry(s.symbol).or_insert(0);
            occ_of_slot[slot] = *c;
            *c += 1;
        }

        let mut first_group = true;
        for g in self.pattern.groups() {
            if !first_group {
                f.write_str(" | ")?;
            }
            first_group = false;
            let mut first = true;
            for e in g {
                if !first {
                    f.write_str(" ")?;
                }
                first = false;
                match self.symbols.try_name(e.symbol) {
                    Some(name) => write!(f, "{name}{}", e.kind.sigil())?,
                    None => write!(f, "{}{}", e.symbol, e.kind.sigil())?,
                }
                if multiplicity[&e.symbol] > 1 {
                    write!(f, "#{}", occ_of_slot[e.slot as usize])?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(sym: u32, start: i64, end: i64) -> EventInterval {
        EventInterval::new(SymbolId(sym), start, end).unwrap()
    }

    #[test]
    fn singleton_shape() {
        let p = TemporalPattern::singleton(SymbolId(3));
        assert_eq!(p.arity(), 1);
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.slot_infos()[0].symbol, SymbolId(3));
    }

    #[test]
    fn arrangement_overlap() {
        let p = TemporalPattern::arrangement_of(&[iv(0, 0, 5), iv(1, 3, 8)]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.num_groups(), 4);
        assert_eq!(p.relation(0, 1), AllenRelation::Overlaps);
    }

    #[test]
    fn arrangement_meets_shares_group() {
        let p = TemporalPattern::arrangement_of(&[iv(0, 0, 5), iv(1, 5, 8)]);
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.relation(0, 1), AllenRelation::Meets);
        // shared group lists the finish first
        let shared = &p.groups()[1];
        assert_eq!(shared[0].kind, EndpointKind::Finish);
        assert_eq!(shared[1].kind, EndpointKind::Start);
    }

    #[test]
    fn arrangement_is_invariant_under_time_warping() {
        let p1 = TemporalPattern::arrangement_of(&[iv(0, 0, 5), iv(1, 3, 8)]);
        let p2 = TemporalPattern::arrangement_of(&[iv(0, 100, 500), iv(1, 300, 80000)]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn arrangement_is_invariant_under_interval_order() {
        let p1 = TemporalPattern::arrangement_of(&[iv(0, 0, 5), iv(1, 3, 8)]);
        let p2 = TemporalPattern::arrangement_of(&[iv(1, 3, 8), iv(0, 0, 5)]);
        assert_eq!(p1, p2, "canonical slot renumbering must kick in");
    }

    #[test]
    fn crossing_and_nesting_same_symbol_are_distinct() {
        // Crossing: A starts, A starts, first ends, second ends.
        let crossing = TemporalPattern::arrangement_of(&[iv(0, 0, 2), iv(0, 1, 3)]);
        // Nesting: A starts, A starts, second ends, first ends.
        let nesting = TemporalPattern::arrangement_of(&[iv(0, 0, 3), iv(0, 1, 2)]);
        assert_ne!(crossing, nesting);
        assert_eq!(crossing.relation(0, 1), AllenRelation::Overlaps);
        assert_eq!(nesting.relation(0, 1), AllenRelation::Contains);
    }

    #[test]
    fn same_group_same_symbol_starts_are_canonicalized() {
        // Two A's starting together, ending apart: only one canonical form.
        let p1 = TemporalPattern::arrangement_of(&[iv(0, 0, 2), iv(0, 0, 5)]);
        let p2 = TemporalPattern::arrangement_of(&[iv(0, 0, 5), iv(0, 0, 2)]);
        assert_eq!(p1, p2);
        // Lower slot finishes first.
        let infos = p1.slot_infos();
        assert!(infos[0].end_group < infos[1].end_group);
    }

    #[test]
    fn from_groups_rejects_malformed() {
        let start = |sym: u32, slot: u8| PatternEndpoint {
            kind: EndpointKind::Start,
            symbol: SymbolId(sym),
            slot,
        };
        let finish = |sym: u32, slot: u8| PatternEndpoint {
            kind: EndpointKind::Finish,
            symbol: SymbolId(sym),
            slot,
        };
        // unmatched start
        assert!(TemporalPattern::from_groups(vec![vec![start(0, 0)]]).is_err());
        // finish before start
        assert!(TemporalPattern::from_groups(vec![vec![finish(0, 0)], vec![start(0, 0)]]).is_err());
        // start and finish in the same group
        assert!(TemporalPattern::from_groups(vec![vec![start(0, 0), finish(0, 0)]]).is_err());
        // symbol mismatch
        assert!(TemporalPattern::from_groups(vec![vec![start(0, 0)], vec![finish(1, 0)]]).is_err());
        // duplicate start
        assert!(TemporalPattern::from_groups(vec![
            vec![start(0, 0)],
            vec![start(0, 0)],
            vec![finish(0, 0)]
        ])
        .is_err());
        // empty group
        assert!(
            TemporalPattern::from_groups(vec![vec![start(0, 0)], vec![], vec![finish(0, 0)]])
                .is_err()
        );
        // gap in slot numbering (slot 1 missing its endpoints entirely)
        assert!(TemporalPattern::from_groups(vec![
            vec![start(0, 0)],
            vec![finish(0, 0), start(0, 2)],
            vec![finish(0, 2)]
        ])
        .is_err());
    }

    #[test]
    fn realization_round_trips() {
        let samples = vec![
            vec![iv(0, 0, 5)],
            vec![iv(0, 0, 5), iv(1, 3, 8)],
            vec![iv(0, 0, 5), iv(1, 5, 8), iv(2, 2, 3)],
            vec![iv(0, 0, 4), iv(0, 2, 6), iv(1, 2, 4)],
            vec![iv(3, 0, 1), iv(2, 0, 1), iv(1, 0, 1)],
        ];
        for s in samples {
            let p = TemporalPattern::arrangement_of(&s);
            let q = TemporalPattern::arrangement_of(&p.realization());
            assert_eq!(p, q, "realization must reproduce the pattern");
        }
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "index symmetry (i, j) vs (j, i)"
    )]
    fn relation_matrix_is_consistent() {
        let p = TemporalPattern::arrangement_of(&[iv(0, 0, 10), iv(1, 2, 5), iv(2, 5, 12)]);
        let m = p.relation_matrix();
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m[i][i], AllenRelation::Equals);
            for j in 0..3 {
                assert_eq!(m[i][j], m[j][i].inverse());
            }
        }
        assert_eq!(m[1][0], AllenRelation::During);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let mut table = SymbolTable::new();
        let a = table.intern("A");
        let b = table.intern("B");
        let p = TemporalPattern::arrangement_of(&[
            EventInterval::new(a, 0, 5).unwrap(),
            EventInterval::new(b, 3, 8).unwrap(),
        ]);
        let text = p.display(&table).to_string();
        assert_eq!(text, "A+ | B+ | A- | B-");
        let parsed = TemporalPattern::parse(&text, &mut table).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn display_disambiguates_repeated_symbols() {
        let mut table = SymbolTable::new();
        let a = table.intern("A");
        let p = TemporalPattern::arrangement_of(&[
            EventInterval::new(a, 0, 2).unwrap(),
            EventInterval::new(a, 1, 3).unwrap(),
        ]);
        let text = p.display(&table).to_string();
        assert_eq!(text, "A+#0 | A+#1 | A-#0 | A-#1");
        let parsed = TemporalPattern::parse(&text, &mut table).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn parse_crossing_vs_nesting() {
        let mut t = SymbolTable::new();
        let crossing = TemporalPattern::parse("A+#0 | A+#1 | A-#0 | A-#1", &mut t).unwrap();
        let nesting = TemporalPattern::parse("A+#0 | A+#1 | A-#1 | A-#0", &mut t).unwrap();
        assert_ne!(crossing, nesting);
    }

    #[test]
    fn parse_rejects_garbage() {
        let mut t = SymbolTable::new();
        assert!(TemporalPattern::parse("A* | A-", &mut t).is_err());
        assert!(TemporalPattern::parse("A-", &mut t).is_err());
        assert!(TemporalPattern::parse("A+ | B-", &mut t).is_err());
        assert!(TemporalPattern::parse("+", &mut t).is_err());
        assert!(TemporalPattern::parse("A+#x | A-", &mut t).is_err());
        assert!(TemporalPattern::parse("A+#1 | A-", &mut t).is_err());
        assert!(TemporalPattern::parse("A+ | A-#3", &mut t).is_err());
    }

    #[test]
    fn subpattern_relation() {
        let p_ab = TemporalPattern::arrangement_of(&[iv(0, 0, 5), iv(1, 3, 8)]);
        let p_a = TemporalPattern::singleton(SymbolId(0));
        let p_b = TemporalPattern::singleton(SymbolId(1));
        let p_c = TemporalPattern::singleton(SymbolId(2));
        assert!(p_a.is_subpattern_of(&p_ab));
        assert!(p_b.is_subpattern_of(&p_ab));
        assert!(!p_c.is_subpattern_of(&p_ab));
        assert!(!p_ab.is_subpattern_of(&p_a));
        assert!(p_ab.is_subpattern_of(&p_ab));
        assert!(TemporalPattern::empty().is_subpattern_of(&p_a));
    }

    #[test]
    fn symbols_are_sorted_and_deduped() {
        let p = TemporalPattern::arrangement_of(&[iv(2, 0, 5), iv(0, 3, 8), iv(2, 9, 12)]);
        assert_eq!(p.symbols(), vec![SymbolId(0), SymbolId(2)]);
    }

    #[test]
    fn ascii_timeline_aligns_groups() {
        let mut table = SymbolTable::new();
        let fever = table.intern("fever");
        let rash = table.intern("rash");
        let p = TemporalPattern::arrangement_of(&[
            EventInterval::new(fever, 0, 5).unwrap(),
            EventInterval::new(rash, 3, 8).unwrap(),
        ]);
        let art = p.ascii_timeline(&table);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("fever"));
        assert!(lines[1].starts_with("rash"));
        // fever: groups 0..2, rash: groups 1..3 — rash starts one cell later
        let fever_bar = lines[0].find('|').unwrap();
        let rash_bar = lines[1].find('|').unwrap();
        assert_eq!(rash_bar - fever_bar, 4, "{art}");
        // equal-length bars (both span two endpoint sets)
        assert_eq!(lines[0].matches('=').count(), lines[1].matches('=').count());
    }

    #[test]
    fn ascii_timeline_shows_simultaneity() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let b = table.intern("b");
        let p = TemporalPattern::arrangement_of(&[
            EventInterval::new(a, 0, 10).unwrap(),
            EventInterval::new(b, 0, 10).unwrap(),
        ]);
        let art = p.ascii_timeline(&table);
        let lines: Vec<&str> = art.lines().collect();
        // equal intervals: bars start at the same column
        assert_eq!(lines[0].find('|'), lines[1].find('|'));
        assert_eq!(
            TemporalPattern::empty().ascii_timeline(&table),
            "(empty pattern)\n"
        );
    }

    #[test]
    fn empty_pattern_properties() {
        let p = TemporalPattern::empty();
        assert!(p.is_empty());
        assert_eq!(p.arity(), 0);
        assert_eq!(p.num_groups(), 0);
        assert!(p.realization().is_empty());
    }
}
