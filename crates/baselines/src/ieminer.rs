//! IEMiner-style level-wise (Apriori) miner.
//!
//! Following the breadth-first approach of Patel, Hsu & Lee, level `k+1`
//! candidates are generated by inserting one new interval (of a frequent
//! symbol) into every possible position of every frequent `k`-pattern,
//! pruned by the Apriori condition (every `k`-sub-pattern must be frequent),
//! and support-counted with one full database scan per level. The per-level
//! candidate explosion and the repeated scans are the documented costs that
//! pattern-growth miners avoid.

use crate::{BaselineResult, BaselineStats};
use interval_core::{
    matcher, EndpointKind, IntervalDatabase, PatternEndpoint, SymbolId, TemporalPattern,
};
use std::collections::{HashMap, HashSet};
use tpminer::FrequentPattern;

/// The IEMiner-style level-wise miner.
#[derive(Debug, Clone)]
pub struct IeMiner {
    min_support: usize,
    max_arity: Option<usize>,
}

impl IeMiner {
    /// Creates a miner with the given absolute support threshold.
    pub fn new(min_support: usize) -> Self {
        Self {
            min_support: min_support.max(1),
            max_arity: None,
        }
    }

    /// Bounds the pattern arity.
    pub fn max_arity(mut self, arity: usize) -> Self {
        self.max_arity = Some(arity);
        self
    }

    /// Mines all frequent patterns level by level.
    pub fn mine(&self, db: &IntervalDatabase) -> BaselineResult {
        let mut stats = BaselineStats::default();
        let mut all: Vec<FrequentPattern> = Vec::new();

        // Level 1: frequent symbols by one scan.
        let mut symbol_counts: HashMap<SymbolId, usize> = HashMap::new();
        for seq in db.sequences() {
            let mut syms: Vec<SymbolId> = seq.iter().map(|iv| iv.symbol).collect();
            syms.sort_unstable();
            syms.dedup();
            for s in syms {
                *symbol_counts.entry(s).or_insert(0) += 1;
            }
        }
        let mut frequent_symbols: Vec<SymbolId> = symbol_counts
            .iter()
            .filter(|&(_, &c)| c >= self.min_support)
            .map(|(&s, _)| s)
            .collect();
        frequent_symbols.sort_unstable();

        let mut level: HashMap<TemporalPattern, usize> = frequent_symbols
            .iter()
            .map(|&s| (TemporalPattern::singleton(s), symbol_counts[&s]))
            .collect();
        all.extend(level.iter().map(|(p, &support)| FrequentPattern {
            pattern: p.clone(),
            support,
        }));

        let mut arity = 1usize;
        while !level.is_empty() {
            if let Some(max) = self.max_arity {
                if arity >= max {
                    break;
                }
            }
            let frequent_set: HashSet<&TemporalPattern> = level.keys().collect();

            // Candidate generation + Apriori pruning.
            let mut candidates: HashSet<TemporalPattern> = HashSet::new();
            for p in level.keys() {
                for &s in &frequent_symbols {
                    for candidate in insertions(p, s) {
                        if candidates.contains(&candidate) {
                            continue;
                        }
                        if self.apriori_ok(&candidate, &frequent_set) {
                            candidates.insert(candidate);
                        }
                    }
                }
            }
            stats.candidates_generated += candidates.len() as u64;

            // One support scan for the whole level.
            let mut next: HashMap<TemporalPattern, usize> = HashMap::new();
            for candidate in candidates {
                let mut support = 0usize;
                for seq in db.sequences() {
                    stats.containment_tests += 1;
                    if matcher::contains(seq, &candidate) {
                        support += 1;
                    }
                }
                if support >= self.min_support {
                    next.insert(candidate, support);
                }
            }
            all.extend(next.iter().map(|(p, &support)| FrequentPattern {
                pattern: p.clone(),
                support,
            }));
            level = next;
            arity += 1;
        }

        BaselineResult::finish(all, stats)
    }

    /// Apriori condition: all sub-patterns obtained by dropping one slot are
    /// frequent at the previous level.
    fn apriori_ok(&self, candidate: &TemporalPattern, level: &HashSet<&TemporalPattern>) -> bool {
        (0..candidate.arity()).all(|slot| level.contains(&remove_slot(candidate, slot)))
    }
}

/// All patterns obtained by adding one `symbol` interval to `p`, at every
/// structurally distinct position.
///
/// Positions are indexed over the pattern's group sequence: even index `2i`
/// denotes "a fresh endpoint set in the gap before group `i`" (with `2g` the
/// gap after the last group), odd index `2i+1` denotes "inside existing
/// group `i`". The new start must precede the new end; placing both in the
/// same gap creates two consecutive fresh sets, while placing both inside
/// the same existing set is impossible (intervals are proper).
pub fn insertions(p: &TemporalPattern, symbol: SymbolId) -> Vec<TemporalPattern> {
    let g = p.num_groups();
    let slot = p.arity() as u8;
    let positions = 2 * g + 1;
    let mut out = Vec::new();
    for ps in 0..positions {
        for pe in ps..positions {
            if ps == pe && ps % 2 == 1 {
                continue; // start and end inside the same existing set
            }
            let start = PatternEndpoint {
                kind: EndpointKind::Start,
                symbol,
                slot,
            };
            let end = PatternEndpoint {
                kind: EndpointKind::Finish,
                symbol,
                slot,
            };
            // Rebuild the group list with the insertions applied.
            let mut groups: Vec<Vec<PatternEndpoint>> = Vec::with_capacity(g + 2);
            for gap in 0..=g {
                let even = 2 * gap;
                if ps == even && pe == even {
                    groups.push(vec![start]);
                    groups.push(vec![end]);
                } else if ps == even {
                    groups.push(vec![start]);
                } else if pe == even {
                    groups.push(vec![end]);
                }
                if gap < g {
                    let mut grp = p.groups()[gap].clone();
                    let odd = 2 * gap + 1;
                    if ps == odd {
                        grp.push(start);
                    }
                    if pe == odd {
                        grp.push(end);
                    }
                    groups.push(grp);
                }
            }
            if let Ok(candidate) = TemporalPattern::from_groups(groups) {
                out.push(candidate);
            }
        }
    }
    out
}

/// The sub-pattern of `p` with `slot` removed (groups that become empty are
#[expect(
    clippy::expect_used,
    reason = "removing one interval's two endpoints and renumbering preserves well-formedness; a reject is algorithm corruption"
)]
/// dropped; remaining slots are canonically renumbered).
pub fn remove_slot(p: &TemporalPattern, slot: usize) -> TemporalPattern {
    let renumber = |s: u8| if (s as usize) > slot { s - 1 } else { s };
    let mut groups: Vec<Vec<PatternEndpoint>> = Vec::with_capacity(p.num_groups());
    for g in p.groups() {
        let filtered: Vec<PatternEndpoint> = g
            .iter()
            .filter(|e| e.slot as usize != slot)
            .map(|e| PatternEndpoint {
                slot: renumber(e.slot),
                ..*e
            })
            .collect();
        if !filtered.is_empty() {
            groups.push(filtered);
        }
    }
    TemporalPattern::from_groups(groups).expect("dropping a slot keeps patterns well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use interval_core::{DatabaseBuilder, SymbolTable};
    use tpminer::{MinerConfig, TpMiner};

    #[test]
    fn insertions_cover_all_two_patterns() {
        // Inserting B into the singleton A must produce all 13 Allen
        // relations of (A, B).
        let a = TemporalPattern::singleton(SymbolId(0));
        let results = insertions(&a, SymbolId(1));
        let mut relations = HashSet::new();
        for p in &results {
            assert_eq!(p.arity(), 2);
            // slot order may have flipped during canonicalization; find B
            let infos = p.slot_infos();
            let b_slot = infos.iter().position(|i| i.symbol == SymbolId(1)).unwrap();
            relations.insert(p.relation(1 - b_slot, b_slot));
        }
        assert_eq!(relations.len(), 13, "got {relations:?}");
    }

    #[test]
    fn remove_slot_inverts_insertion() {
        let a = TemporalPattern::singleton(SymbolId(0));
        for p in insertions(&a, SymbolId(1)) {
            let infos = p.slot_infos();
            let b_slot = infos.iter().position(|i| i.symbol == SymbolId(1)).unwrap();
            assert_eq!(remove_slot(&p, b_slot), a);
        }
    }

    #[test]
    fn agrees_with_tpminer() {
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 4)
            .interval("B", 2, 6)
            .interval("C", 5, 7);
        b.sequence()
            .interval("A", 0, 4)
            .interval("B", 2, 6)
            .interval("A", 3, 9);
        b.sequence().interval("C", 0, 2).interval("B", 1, 5);
        b.sequence().interval("A", 0, 2).interval("B", 0, 2);
        let db = b.build();
        for min_sup in 1..=3 {
            let ie = IeMiner::new(min_sup).mine(&db);
            let tp = TpMiner::new(MinerConfig::with_min_support(min_sup)).mine(&db);
            assert_eq!(ie.patterns, tp.patterns().to_vec(), "min_sup={min_sup}");
        }
    }

    #[test]
    fn repeated_symbols_are_handled() {
        let mut b = DatabaseBuilder::new();
        b.sequence().interval("A", 0, 2).interval("A", 1, 3);
        b.sequence().interval("A", 5, 8).interval("A", 6, 9);
        let db = b.build();
        let ie = IeMiner::new(2).mine(&db);
        let tp = TpMiner::new(MinerConfig::with_min_support(2)).mine(&db);
        assert_eq!(ie.patterns, tp.patterns().to_vec());
    }

    #[test]
    fn max_arity_stops_levels() {
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 2)
            .interval("B", 3, 5)
            .interval("C", 6, 8);
        let db = b.build();
        let result = IeMiner::new(1).max_arity(2).mine(&db);
        assert!(result.patterns.iter().all(|p| p.pattern.arity() <= 2));
    }

    #[test]
    fn empty_database() {
        assert!(IeMiner::new(1).mine(&IntervalDatabase::new()).is_empty());
    }

    #[test]
    fn display_of_insertions_is_well_formed() {
        let mut t = SymbolTable::new();
        t.intern("A");
        t.intern("B");
        let a = TemporalPattern::singleton(SymbolId(0));
        for p in insertions(&a, SymbolId(1)) {
            let text = p.display(&t).to_string();
            let parsed = TemporalPattern::parse(&text, &mut t).unwrap();
            assert_eq!(parsed, p, "{text}");
        }
    }
}
