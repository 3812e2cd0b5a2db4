//! TPrefixSpan-style miner (Wu & Chen 2007).
//!
//! Grows patterns endpoint-by-endpoint over the endpoint representation —
//! the same canonical search tree as TPMiner — but **without** the embedding
//! frontier projection: every candidate extension is verified by re-matching
//! the extended prefix against each supporting sequence with the
//! backtracking [`prefix_match`](crate::prefix_match) primitive. These
//! per-candidate verification scans are the algorithm's documented cost and
//! the reason TPMiner's projected databases win in the paper's runtime
//! figures.

use crate::prefix_match::{prefix_contains, Prefix};
use crate::{BaselineResult, BaselineStats};
use interval_core::{EndpointKind, IntervalDatabase, PatternEndpoint, SymbolId, TemporalPattern};
use std::collections::HashMap;
use tpminer::FrequentPattern;

/// Canonical within-group rank (finishes before starts, matching TPMiner).
type Rank = (u8, u32);

fn finish_rank(slot: u8) -> Rank {
    (0, u32::from(slot))
}

fn start_rank(symbol: SymbolId) -> Rank {
    (1, symbol.0)
}

#[derive(Debug, Clone, Copy)]
struct OpenSlot {
    slot: u8,
    symbol: SymbolId,
    start_group: u16,
}

/// The TPrefixSpan-style miner.
#[derive(Debug, Clone)]
pub struct TPrefixSpan {
    min_support: usize,
    max_arity: Option<usize>,
}

impl TPrefixSpan {
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

    /// Mines all frequent patterns.
    pub fn mine(&self, db: &IntervalDatabase) -> BaselineResult {
        let mut stats = BaselineStats::default();
        let mut out = Vec::new();

        // Distinct symbols per sequence, sorted.
        let seq_symbols: Vec<Vec<SymbolId>> = db
            .sequences()
            .iter()
            .map(|s| {
                let mut v: Vec<SymbolId> = s.iter().map(|iv| iv.symbol).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();

        let mut symbol_counts: HashMap<SymbolId, usize> = HashMap::new();
        for syms in &seq_symbols {
            for &s in syms {
                *symbol_counts.entry(s).or_insert(0) += 1;
            }
        }
        let mut roots: Vec<SymbolId> = symbol_counts
            .iter()
            .filter(|&(_, &c)| c >= self.min_support)
            .map(|(&s, _)| s)
            .collect();
        roots.sort_unstable();

        for symbol in roots {
            let supporting: Vec<u32> = seq_symbols
                .iter()
                .enumerate()
                .filter(|(_, syms)| syms.binary_search(&symbol).is_ok())
                .map(|(i, _)| i as u32)
                .collect();
            let prefix = Prefix {
                groups: vec![vec![PatternEndpoint {
                    kind: EndpointKind::Start,
                    symbol,
                    slot: 0,
                }]],
                open: vec![0],
            };
            let open = vec![OpenSlot {
                slot: 0,
                symbol,
                start_group: 0,
            }];
            self.grow(
                db,
                &seq_symbols,
                prefix,
                open,
                1,
                start_rank(symbol),
                supporting,
                &mut out,
                &mut stats,
            );
        }

        BaselineResult::finish(out, stats)
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one recursion level's state travels as arguments, not as a struct rebuilt per level"
    )]
    fn grow(
        &self,
        db: &IntervalDatabase,
        seq_symbols: &[Vec<SymbolId>],
        prefix: Prefix,
        open: Vec<OpenSlot>,
        arity: u8,
        last_rank: Rank,
        supporting: Vec<u32>,
        out: &mut Vec<FrequentPattern>,
        stats: &mut BaselineStats,
    ) {
        if open.is_empty() {
            #[expect(
                clippy::expect_used,
                reason = "enumeration emits only canonical well-formed prefixes, mirroring the engine's emit path"
            )]
            let pattern = TemporalPattern::from_groups(prefix.groups.clone())
                .expect("generated prefixes are well-formed");
            out.push(FrequentPattern {
                pattern,
                support: supporting.len(),
            });
        }

        // ---- enumerate candidate extensions (canonical gates) ----
        #[derive(Clone, Copy)]
        enum Ext {
            Finish { k: usize, meet: bool },
            Start { symbol: SymbolId, meet: bool },
        }

        let mut candidates: Vec<Ext> = Vec::new();
        for (k, slot) in open.iter().enumerate() {
            // close-lowest-co-started-first canonical rule
            let blocked = open[..k]
                .iter()
                .any(|o| o.symbol == slot.symbol && o.start_group == slot.start_group);
            if blocked {
                continue;
            }
            if finish_rank(slot.slot) > last_rank {
                candidates.push(Ext::Finish { k, meet: true });
            }
            candidates.push(Ext::Finish { k, meet: false });
        }
        let may_start = self.max_arity.is_none_or(|max| usize::from(arity) < max)
            && usize::from(arity) < usize::from(u8::MAX);
        if may_start {
            // Locally frequent symbols among the supporting sequences.
            let mut counts: HashMap<SymbolId, usize> = HashMap::new();
            for &sid in &supporting {
                for &s in &seq_symbols[sid as usize] {
                    *counts.entry(s).or_insert(0) += 1;
                }
            }
            let mut symbols: Vec<SymbolId> = counts
                .iter()
                .filter(|&(_, &c)| c >= self.min_support)
                .map(|(&s, _)| s)
                .collect();
            symbols.sort_unstable();
            for s in symbols {
                let r = start_rank(s);
                if r > last_rank || (r == last_rank && last_rank.0 == 1) {
                    candidates.push(Ext::Start {
                        symbol: s,
                        meet: true,
                    });
                }
                candidates.push(Ext::Start {
                    symbol: s,
                    meet: false,
                });
            }
        }

        // ---- verify each candidate with full prefix-matching scans ----
        for ext in candidates {
            stats.candidates_generated += 1;
            let mut groups = prefix.groups.clone();
            let mut child_open = open.clone();
            let child_arity;
            let child_rank;
            match ext {
                Ext::Finish { k, meet } => {
                    let slot = child_open.remove(k);
                    let endpoint = PatternEndpoint {
                        kind: EndpointKind::Finish,
                        symbol: slot.symbol,
                        slot: slot.slot,
                    };
                    // Meet extensions are only generated for non-empty
                    // prefixes, so the fallback only fires for non-meet.
                    debug_assert!(!meet || !groups.is_empty());
                    match groups.last_mut() {
                        Some(last) if meet => last.push(endpoint),
                        _ => groups.push(vec![endpoint]),
                    }
                    child_arity = arity;
                    child_rank = finish_rank(slot.slot);
                }
                Ext::Start { symbol, meet } => {
                    let endpoint = PatternEndpoint {
                        kind: EndpointKind::Start,
                        symbol,
                        slot: arity,
                    };
                    debug_assert!(!meet || !groups.is_empty());
                    match groups.last_mut() {
                        Some(last) if meet => last.push(endpoint),
                        _ => groups.push(vec![endpoint]),
                    }
                    child_open.push(OpenSlot {
                        slot: arity,
                        symbol,
                        start_group: (groups.len() - 1) as u16,
                    });
                    child_arity = arity + 1;
                    child_rank = start_rank(symbol);
                }
            }
            let child_prefix = Prefix {
                groups,
                open: child_open.iter().map(|o| o.slot).collect(),
            };
            let mut child_supporting = Vec::new();
            for &sid in &supporting {
                stats.containment_tests += 1;
                if prefix_contains(&db.sequences()[sid as usize], &child_prefix) {
                    child_supporting.push(sid);
                }
            }
            if child_supporting.len() >= self.min_support {
                self.grow(
                    db,
                    seq_symbols,
                    child_prefix,
                    child_open,
                    child_arity,
                    child_rank,
                    child_supporting,
                    out,
                    stats,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interval_core::DatabaseBuilder;
    use tpminer::{MinerConfig, TpMiner};

    fn messy_db() -> IntervalDatabase {
        let mut b = DatabaseBuilder::new();
        b.sequence()
            .interval("A", 0, 4)
            .interval("B", 2, 6)
            .interval("A", 5, 9);
        b.sequence()
            .interval("A", 0, 9)
            .interval("B", 1, 3)
            .interval("A", 1, 3);
        b.sequence().interval("B", 0, 2).interval("A", 2, 4);
        b.sequence().interval("A", 0, 5).interval("B", 0, 5);
        b.build()
    }

    #[test]
    fn agrees_with_tpminer() {
        let db = messy_db();
        for min_sup in 1..=4 {
            let tps = TPrefixSpan::new(min_sup).mine(&db);
            let tp = TpMiner::new(MinerConfig::with_min_support(min_sup)).mine(&db);
            assert_eq!(tps.patterns, tp.patterns().to_vec(), "min_sup={min_sup}");
        }
    }

    #[test]
    fn performs_many_containment_tests() {
        // The verification-scan architecture must show up in the counters.
        let db = messy_db();
        let result = TPrefixSpan::new(1).mine(&db);
        assert!(result.stats.containment_tests > result.patterns.len() as u64);
    }

    #[test]
    fn max_arity_is_respected() {
        let db = messy_db();
        let result = TPrefixSpan::new(1).max_arity(2).mine(&db);
        assert!(result.patterns.iter().all(|p| p.pattern.arity() <= 2));
    }

    #[test]
    fn empty_database() {
        assert!(TPrefixSpan::new(1)
            .mine(&IntervalDatabase::new())
            .is_empty());
    }
}
