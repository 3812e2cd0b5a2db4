//! H-DFS-style vertical (id-list) miner.
//!
//! Following the hybrid DFS approach of Papapetrou et al., patterns are
//! grown one *interval instance* at a time and every node materializes its
//! full **occurrence lists**: for each supporting sequence, every instance
//! tuple realizing the pattern. Support counting is then trivial (count
//! sequences with a non-empty list), but the lists themselves are the
//! algorithm's documented weakness — they grow with the number of
//! embeddings, which the paper's memory experiment shows.
//!
//! Tuples are enumerated in a fixed instance order (sorted by
//! `(start, end, symbol, id)`), so each tuple is produced once and each
//! pattern has a unique parent (the pattern minus its latest slot) — no
//! duplicate exploration.

use crate::{BaselineResult, BaselineStats};
use interval_core::{EventInterval, IntervalDatabase, TemporalPattern};
use std::collections::HashMap;
use tpminer::FrequentPattern;

/// One occurrence: positions (into the per-sequence sorted instance list) of
/// the instances realizing the pattern, ascending.
type Occurrence = Vec<u32>;

/// Occurrence lists per sequence id.
type OccMap = HashMap<u32, Vec<Occurrence>>;

/// The H-DFS-style miner.
#[derive(Debug, Clone)]
pub struct HDfsMiner {
    min_support: usize,
    max_arity: Option<usize>,
}

impl HDfsMiner {
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

        // Per-sequence instance lists in canonical enumeration order.
        let ordered: Vec<Vec<EventInterval>> = db
            .sequences()
            .iter()
            .map(|s| {
                let mut v: Vec<EventInterval> = s.intervals().to_vec();
                v.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.symbol));
                v
            })
            .collect();

        // Level 1: bucket singleton occurrences by symbol pattern.
        let mut level1: HashMap<TemporalPattern, OccMap> = HashMap::new();
        for (seq_id, ivs) in ordered.iter().enumerate() {
            for (pos, iv) in ivs.iter().enumerate() {
                let pattern = TemporalPattern::singleton(iv.symbol);
                level1
                    .entry(pattern)
                    .or_default()
                    .entry(seq_id as u32)
                    .or_default()
                    .push(vec![pos as u32]);
            }
        }

        let mut patterns = Vec::new();
        let mut roots: Vec<(TemporalPattern, OccMap)> = level1.into_iter().collect();
        roots.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (pattern, occ) in roots {
            if occ.len() >= self.min_support {
                self.expand(&ordered, pattern, occ, &mut patterns, &mut stats);
            }
        }

        BaselineResult::finish(patterns, stats)
    }

    fn expand(
        &self,
        ordered: &[Vec<EventInterval>],
        pattern: TemporalPattern,
        occ: OccMap,
        out: &mut Vec<FrequentPattern>,
        stats: &mut BaselineStats,
    ) {
        stats.occurrences_materialized += occ.values().map(|v| v.len() as u64).sum::<u64>();
        let arity = pattern.arity();
        out.push(FrequentPattern {
            pattern,
            support: occ.len(),
        });
        if let Some(max) = self.max_arity {
            if arity >= max {
                return;
            }
        }

        // Extend every occurrence with every later instance.
        let mut children: HashMap<TemporalPattern, OccMap> = HashMap::new();
        let mut scratch: Vec<EventInterval> = Vec::with_capacity(arity + 1);
        for (&seq_id, tuples) in &occ {
            let ivs = &ordered[seq_id as usize];
            for tuple in tuples {
                #[expect(
                    clippy::expect_used,
                    reason = "occurrence tuples are built non-empty at arity 1 and only grow"
                )]
                let last = *tuple.last().expect("non-empty occurrence") as usize;
                for next in (last + 1)..ivs.len() {
                    scratch.clear();
                    scratch.extend(tuple.iter().map(|&p| ivs[p as usize]));
                    scratch.push(ivs[next]);
                    stats.candidates_generated += 1;
                    let child_pattern = TemporalPattern::arrangement_of(&scratch);
                    let mut child_tuple = tuple.clone();
                    child_tuple.push(next as u32);
                    children
                        .entry(child_pattern)
                        .or_default()
                        .entry(seq_id)
                        .or_default()
                        .push(child_tuple);
                }
            }
        }

        let mut children: Vec<(TemporalPattern, OccMap)> = children.into_iter().collect();
        children.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (child_pattern, child_occ) in children {
            if child_occ.len() >= self.min_support {
                self.expand(ordered, child_pattern, child_occ, out, stats);
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
            let hdfs = HDfsMiner::new(min_sup).mine(&db);
            let tp = TpMiner::new(MinerConfig::with_min_support(min_sup)).mine(&db);
            assert_eq!(hdfs.patterns, tp.patterns().to_vec(), "min_sup={min_sup}");
        }
    }

    #[test]
    fn max_arity_limits_depth() {
        let db = messy_db();
        let result = HDfsMiner::new(1).max_arity(2).mine(&db);
        assert!(result.patterns.iter().all(|p| p.pattern.arity() <= 2));
        let full = HDfsMiner::new(1).mine(&db);
        assert!(full.len() > result.len());
    }

    #[test]
    fn materializes_occurrences() {
        let db = messy_db();
        let result = HDfsMiner::new(1).mine(&db);
        assert!(result.stats.occurrences_materialized > 0);
        assert!(result.stats.candidates_generated > 0);
    }

    #[test]
    fn empty_database() {
        assert!(HDfsMiner::new(1).mine(&IntervalDatabase::new()).is_empty());
    }
}
