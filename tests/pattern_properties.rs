//! Property tests on the pattern data model: canonicalization, the
//! endpoint representation, display/parse, and the containment matcher.

mod common;

use common::prop;
use interval_core::{
    matcher, AllenRelation, EndpointKind, EndpointSeq, IntervalSequence, SymbolTable,
    TemporalPattern,
};

#[test]
fn arrangement_realization_round_trips() {
    prop::check(256, common::interval_set, |ivs| {
        let p = TemporalPattern::arrangement_of(&ivs);
        assert_eq!(&TemporalPattern::arrangement_of(&p.realization()), &p);
        // The realization, as a sequence, contains its own pattern.
        assert!(matcher::contains(&p.realization_sequence(), &p));
    });
}

#[test]
fn arrangement_is_permutation_invariant() {
    let generate = |rng: &mut _| (common::interval_set(rng), rng.range(0u64..64));
    prop::check(256, generate, |(ivs, seed)| {
        let p1 = TemporalPattern::arrangement_of(&ivs);
        // Deterministic pseudo-shuffle.
        let mut shuffled = ivs.clone();
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            shuffled.swap(i, j);
        }
        assert_eq!(TemporalPattern::arrangement_of(&shuffled), p1);
    });
}

#[test]
fn arrangement_is_time_shift_invariant() {
    let generate = |rng: &mut _| (common::interval_set(rng), rng.range(-100i64..100));
    prop::check(256, generate, |(ivs, shift)| {
        let p1 = TemporalPattern::arrangement_of(&ivs);
        let shifted: Vec<_> = ivs
            .iter()
            .map(|iv| {
                interval_core::EventInterval::new_unchecked(
                    iv.symbol,
                    iv.start + shift,
                    iv.end + shift,
                )
            })
            .collect();
        assert_eq!(TemporalPattern::arrangement_of(&shifted), p1);
    });
}

#[test]
fn display_parse_round_trips() {
    prop::check(256, common::interval_set, |ivs| {
        let mut table = SymbolTable::with_synthetic_symbols(3);
        let p = TemporalPattern::arrangement_of(&ivs);
        let text = p.display(&table).to_string();
        let parsed = TemporalPattern::parse(&text, &mut table).unwrap();
        assert_eq!(parsed, p, "text was `{}`", text);
    });
}

#[test]
#[expect(
    clippy::needless_range_loop,
    reason = "index symmetry (i, j) vs (j, i)"
)]
fn relation_matrix_is_coherent() {
    prop::check(256, common::interval_set, |ivs| {
        let p = TemporalPattern::arrangement_of(&ivs);
        let m = p.relation_matrix();
        let direct: Vec<Vec<AllenRelation>> = ivs_matrix(&p);
        assert_eq!(&m, &direct);
        for i in 0..m.len() {
            assert_eq!(m[i][i], AllenRelation::Equals);
            for j in 0..m.len() {
                assert_eq!(m[i][j], m[j][i].inverse());
            }
        }
    });
}

#[test]
fn endpoint_transform_is_consistent() {
    prop::check(256, common::interval_set, |ivs| {
        let seq = IntervalSequence::from_intervals(ivs);
        let es = EndpointSeq::from_sequence(&seq);
        // Twice as many endpoints as intervals, alternating per instance.
        assert_eq!(es.endpoints().len(), 2 * seq.len());
        // Groups partition the endpoints with strictly increasing times.
        let mut last_time = i64::MIN;
        for (_, group) in es.groups() {
            assert!(!group.is_empty());
            let t = group[0].time;
            assert!(t > last_time);
            last_time = t;
            for e in group {
                assert_eq!(e.time, t);
                // canonical order within the group: finishes first
                let _ = e;
            }
            let mut seen_start = false;
            for e in group {
                match e.kind {
                    EndpointKind::Start => seen_start = true,
                    EndpointKind::Finish => {
                        assert!(!seen_start, "finish after start within group");
                    }
                }
            }
        }
        // Instance info agrees with the original intervals.
        for (idx, iv) in seq.iter().enumerate() {
            let info = es.instance(idx as u32);
            assert_eq!(info.symbol, iv.symbol);
            assert_eq!(info.start, iv.start);
            assert_eq!(info.end, iv.end);
            assert!(info.start_group < info.end_group);
        }
    });
}

#[test]
fn containment_is_reflexive_and_monotone() {
    let generate = |rng: &mut _| (common::interval_set(rng), common::interval_set(rng));
    prop::check(256, generate, |(ivs, extra)| {
        let p = TemporalPattern::arrangement_of(&ivs);
        let seq = IntervalSequence::from_intervals(ivs.clone());
        assert!(matcher::contains(&seq, &p));
        // Adding intervals never destroys containment.
        let bigger: IntervalSequence = ivs.iter().chain(extra.iter()).copied().collect();
        assert!(matcher::contains(&bigger, &p));
    });
}

#[test]
fn subpattern_relation_is_a_partial_order_sample() {
    let generate = |rng: &mut _| (common::interval_set(rng), common::interval_set(rng));
    prop::check(256, generate, |(a, b)| {
        let pa = TemporalPattern::arrangement_of(&a);
        let pb = TemporalPattern::arrangement_of(&b);
        // reflexive
        assert!(pa.is_subpattern_of(&pa));
        // antisymmetric
        if pa.is_subpattern_of(&pb) && pb.is_subpattern_of(&pa) {
            assert_eq!(&pa, &pb);
        }
        // consistent with arity
        if pa.is_subpattern_of(&pb) {
            assert!(pa.arity() <= pb.arity());
        }
    });
}

#[test]
fn allen_relation_matches_endpoint_grouping() {
    let generate = |rng: &mut _| {
        (
            common::small_interval(rng, 1),
            common::small_interval(rng, 1),
        )
    };
    prop::check(256, generate, |(a, b)| {
        use AllenRelation::*;
        let p = TemporalPattern::arrangement_of(&[a, b]);
        // map slots back: slot order is canonical; find which slot is `a`
        let rel = AllenRelation::relate(&a, &b);
        let groups = p.num_groups();
        match rel {
            Equals => assert_eq!(groups, 2),
            Meets | MetBy | Starts | StartedBy | Finishes | FinishedBy => {
                assert_eq!(groups, 3)
            }
            _ => assert_eq!(groups, 4),
        }
    });
}

fn ivs_matrix(p: &TemporalPattern) -> Vec<Vec<AllenRelation>> {
    let r = p.realization();
    r.iter()
        .map(|a| r.iter().map(|b| AllenRelation::relate(a, b)).collect())
        .collect()
}
