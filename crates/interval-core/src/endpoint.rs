//! The **endpoint representation** of interval sequences.
//!
//! This is the paper's key device: every event interval `(A, t⁻, t⁺)` is
//! split into a *start endpoint* `A+` at `t⁻` and a *finish endpoint* `A−` at
//! `t⁺`. Sorting all endpoints of a sequence by time — grouping endpoints
//! with equal timestamps into *endpoint sets* — yields a representation that
//! determines the full arrangement (all pairwise Allen relations)
//! unambiguously, is closed under prefixes, and therefore supports
//! PrefixSpan-style pattern growth with anti-monotone pruning.

use crate::interval::Time;
use crate::sequence::IntervalSequence;
use crate::symbols::SymbolId;

/// Whether an endpoint opens or closes its interval.
///
/// `Finish` sorts before `Start`: within one endpoint set (one time point)
/// the canonical listing shows what ends before what begins, matching the
/// conventional reading of Allen's *meets*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EndpointKind {
    /// The end of an interval (`A−`).
    Finish,
    /// The beginning of an interval (`A+`).
    Start,
}

impl EndpointKind {
    /// `"+"` for starts, `"-"` for finishes.
    pub fn sigil(self) -> char {
        match self {
            EndpointKind::Start => '+',
            EndpointKind::Finish => '-',
        }
    }
}

/// One endpoint of one concrete interval instance within a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataEndpoint {
    /// The timestamp of the endpoint.
    pub time: Time,
    /// Index of the endpoint set (time rank) this endpoint belongs to.
    pub group: u32,
    /// The symbol of the underlying interval.
    pub symbol: SymbolId,
    /// Start or finish.
    pub kind: EndpointKind,
    /// Index of the underlying interval instance within the sequence
    /// (position in the normalized [`IntervalSequence`]).
    pub instance: u32,
}

/// Metadata about one interval instance, as seen by the endpoint sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceInfo {
    /// The instance's symbol.
    pub symbol: SymbolId,
    /// Endpoint-set index of its start.
    pub start_group: u32,
    /// Endpoint-set index of its end (always `> start_group`).
    pub end_group: u32,
    /// Concrete start time.
    pub start: Time,
    /// Concrete end time.
    pub end: Time,
}

/// The endpoint representation of one interval sequence.
///
/// ```
/// use interval_core::{EndpointSeq, EventInterval, IntervalSequence, SymbolId};
///
/// let seq = IntervalSequence::from_intervals(vec![
///     EventInterval::new(SymbolId(0), 0, 5).unwrap(), // A
///     EventInterval::new(SymbolId(1), 5, 9).unwrap(), // B, meets A's end
/// ]);
/// let es = EndpointSeq::from_sequence(&seq);
/// assert_eq!(es.group_count(), 3); // {A+} {A− B+} {B−}
/// assert_eq!(es.group(1).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointSeq {
    /// Endpoints sorted by `(group, kind, symbol, instance)`.
    endpoints: Vec<DataEndpoint>,
    /// `group_offsets[g]..group_offsets[g+1]` indexes `endpoints` for set `g`.
    group_offsets: Vec<u32>,
    /// Per-instance metadata, indexed by instance id.
    instances: Vec<InstanceInfo>,
}

impl EndpointSeq {
    /// Transforms a normalized interval sequence into its endpoint
    /// representation.
    pub fn from_sequence(seq: &IntervalSequence) -> Self {
        let ivs = seq.intervals();
        let mut endpoints = Vec::with_capacity(ivs.len() * 2);
        for (idx, iv) in ivs.iter().enumerate() {
            let instance = idx as u32;
            endpoints.push(DataEndpoint {
                time: iv.start,
                group: 0,
                symbol: iv.symbol,
                kind: EndpointKind::Start,
                instance,
            });
            endpoints.push(DataEndpoint {
                time: iv.end,
                group: 0,
                symbol: iv.symbol,
                kind: EndpointKind::Finish,
                instance,
            });
        }
        endpoints.sort_unstable_by_key(|e| (e.time, e.kind, e.symbol, e.instance));

        // Assign group ids by distinct time and record offsets.
        let mut group_offsets = vec![0u32];
        let mut current_group = 0u32;
        for i in 0..endpoints.len() {
            if i > 0 && endpoints[i].time != endpoints[i - 1].time {
                current_group += 1;
                group_offsets.push(i as u32);
            }
            endpoints[i].group = current_group;
        }
        group_offsets.push(endpoints.len() as u32);
        if endpoints.is_empty() {
            group_offsets = vec![0];
        }

        let mut instances = vec![
            InstanceInfo {
                symbol: SymbolId(0),
                start_group: 0,
                end_group: 0,
                start: 0,
                end: 0,
            };
            ivs.len()
        ];
        for e in &endpoints {
            let info = &mut instances[e.instance as usize];
            info.symbol = e.symbol;
            match e.kind {
                EndpointKind::Start => {
                    info.start_group = e.group;
                    info.start = e.time;
                }
                EndpointKind::Finish => {
                    info.end_group = e.group;
                    info.end = e.time;
                }
            }
        }
        debug_assert!(instances.iter().all(|i| i.start_group < i.end_group));

        Self {
            endpoints,
            group_offsets,
            instances,
        }
    }

    /// All endpoints in canonical order.
    pub fn endpoints(&self) -> &[DataEndpoint] {
        &self.endpoints
    }

    /// Number of endpoint sets (distinct timestamps).
    pub fn group_count(&self) -> u32 {
        (self.group_offsets.len() - 1) as u32
    }

    /// The endpoints of set `g`.
    pub fn group(&self, g: u32) -> &[DataEndpoint] {
        let lo = self.group_offsets[g as usize] as usize;
        let hi = self.group_offsets[g as usize + 1] as usize;
        &self.endpoints[lo..hi]
    }

    /// Per-instance metadata.
    pub fn instances(&self) -> &[InstanceInfo] {
        &self.instances
    }

    /// Metadata for instance `id`.
    pub fn instance(&self, id: u32) -> &InstanceInfo {
        &self.instances[id as usize]
    }

    /// Number of interval instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Iterates `(group_index, endpoints_of_group)` pairs.
    pub fn groups(&self) -> impl Iterator<Item = (u32, &[DataEndpoint])> {
        (0..self.group_count()).map(move |g| (g, self.group(g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::EventInterval;

    fn seq(raw: &[(u32, Time, Time)]) -> IntervalSequence {
        raw.iter()
            .map(|&(s, a, b)| EventInterval::new(SymbolId(s), a, b).unwrap())
            .collect()
    }

    #[test]
    fn empty_sequence_has_no_groups() {
        let es = EndpointSeq::from_sequence(&IntervalSequence::new());
        assert_eq!(es.group_count(), 0);
        assert!(es.endpoints().is_empty());
        assert_eq!(es.instance_count(), 0);
    }

    #[test]
    fn single_interval_has_two_groups() {
        let es = EndpointSeq::from_sequence(&seq(&[(0, 3, 7)]));
        assert_eq!(es.group_count(), 2);
        assert_eq!(es.group(0)[0].kind, EndpointKind::Start);
        assert_eq!(es.group(1)[0].kind, EndpointKind::Finish);
        let info = es.instance(0);
        assert_eq!((info.start_group, info.end_group), (0, 1));
        assert_eq!((info.start, info.end), (3, 7));
    }

    #[test]
    fn meets_produces_shared_group_with_finish_first() {
        // A = [0,5), B = [5,9): one shared endpoint set at t=5.
        let es = EndpointSeq::from_sequence(&seq(&[(0, 0, 5), (1, 5, 9)]));
        assert_eq!(es.group_count(), 3);
        let shared = es.group(1);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared[0].kind, EndpointKind::Finish); // A− listed first
        assert_eq!(shared[1].kind, EndpointKind::Start); // then B+
    }

    #[test]
    fn group_ids_are_time_ranks() {
        let es = EndpointSeq::from_sequence(&seq(&[(0, 0, 10), (1, 2, 10), (2, 2, 4)]));
        // distinct times: 0, 2, 4, 10 -> 4 groups
        assert_eq!(es.group_count(), 4);
        for e in es.endpoints() {
            let expected = match e.time {
                0 => 0,
                2 => 1,
                4 => 2,
                10 => 3,
                t => panic!("unexpected endpoint time {t}"),
            };
            assert_eq!(e.group, expected);
        }
        // both symbol-0 and symbol-1 end at the same (last) group
        let end_group_of = |sym: u32| {
            es.instances()
                .iter()
                .find(|i| i.symbol == SymbolId(sym))
                .unwrap()
                .end_group
        };
        assert_eq!(end_group_of(0), 3);
        assert_eq!(end_group_of(1), 3);
        assert_eq!(end_group_of(2), 2);
    }

    #[test]
    fn endpoint_count_is_twice_instance_count() {
        let es = EndpointSeq::from_sequence(&seq(&[(0, 0, 5), (0, 1, 2), (1, 3, 8)]));
        assert_eq!(es.endpoints().len(), 6);
        assert_eq!(es.instance_count(), 3);
    }

    #[test]
    fn start_groups_precede_end_groups() {
        let es = EndpointSeq::from_sequence(&seq(&[(0, 0, 1), (1, 0, 1), (2, 1, 2)]));
        for info in es.instances() {
            assert!(info.start_group < info.end_group);
        }
    }

    #[test]
    fn groups_iterator_covers_all_endpoints() {
        let es = EndpointSeq::from_sequence(&seq(&[(0, 0, 5), (1, 2, 3), (2, 2, 5)]));
        let total: usize = es.groups().map(|(_, g)| g.len()).sum();
        assert_eq!(total, es.endpoints().len());
    }

    #[test]
    fn repeated_symbol_instances_are_distinguished() {
        let es = EndpointSeq::from_sequence(&seq(&[(0, 0, 4), (0, 2, 6)]));
        assert_eq!(es.instance_count(), 2);
        assert_ne!(es.instance(0).start_group, es.instance(1).start_group);
        let starts: Vec<_> = es
            .endpoints()
            .iter()
            .filter(|e| e.kind == EndpointKind::Start)
            .map(|e| e.instance)
            .collect();
        assert_eq!(starts, vec![0, 1]);
    }
}
