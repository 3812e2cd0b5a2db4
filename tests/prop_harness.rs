//! Self-tests of the property harness in `tests/common/prop.rs`: a failing
//! case names its seed and input, a seed regenerates its input, and the
//! draws stay inside their alphabet and length bounds, ends included.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

mod common;

use std::collections::BTreeSet;
use std::panic;

use common::prop;
use interval_core::rng::SplitMix64;

/// The harness's panic message for a property that fails.
fn failure_message<T: Clone + std::fmt::Debug>(
    generate: impl Fn(&mut SplitMix64) -> T,
    property: impl Fn(T),
) -> String {
    let payload = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        prop::check(64, generate, property)
    }))
    .expect_err("the property fails");
    payload
        .downcast_ref::<String>()
        .expect("a formatted message")
        .clone()
}

fn small_vec(rng: &mut SplitMix64) -> Vec<u64> {
    prop::vec(rng, 1..4, |rng| rng.range(0u64..1000))
}

#[test]
fn failing_property_names_its_seed_and_input() {
    let message = failure_message(small_vec, |v| panic!("always fails on {}", v.len()));
    let input = small_vec(&mut SplitMix64::new(0));
    assert!(message.contains("seed 0 of 0..64"), "{message}");
    assert!(message.contains(&format!("input: {input:?}")), "{message}");
    assert!(
        message.contains(&format!("always fails on {}", input.len())),
        "{message}"
    );
}

#[test]
fn a_failure_past_the_first_case_names_that_case() {
    let fails = |v: &Vec<u64>| v.iter().sum::<u64>() % 5 == 0;
    let first = (0..64)
        .find(|&seed| fails(&small_vec(&mut SplitMix64::new(seed))))
        .expect("some case fails");
    assert!(first > 0, "the check needs a later first failure");
    let message = failure_message(small_vec, |v| assert!(!fails(&v), "sum divisible by 5"));
    let input = small_vec(&mut SplitMix64::new(first));
    assert!(message.contains(&format!("seed {first} of")), "{message}");
    assert!(message.contains(&format!("input: {input:?}")), "{message}");
}

#[test]
fn a_passing_property_runs_every_case() {
    let runs = std::cell::Cell::new(0);
    prop::check(48, small_vec, |_| runs.set(runs.get() + 1));
    assert_eq!(runs.get(), 48);
}

#[test]
fn the_same_seed_regenerates_the_same_input() {
    for seed in 0..32 {
        let draw = |rng: &mut SplitMix64| (common::small_database(rng), common::ops(rng));
        let (db1, ops1) = draw(&mut SplitMix64::new(seed));
        let (db2, ops2) = draw(&mut SplitMix64::new(seed));
        assert_eq!(db1, db2);
        assert_eq!(format!("{ops1:?}"), format!("{ops2:?}"));
    }
}

#[test]
fn alphabet_strings_stay_in_their_alphabet_and_length() {
    let alphabet = " ;,09az#+|-";
    let mut rng = SplitMix64::new(3);
    let mut lengths = BTreeSet::new();
    let mut seen = BTreeSet::new();
    for _ in 0..2000 {
        let s = prop::string(&mut rng, alphabet, 0..=20);
        lengths.insert(s.chars().count());
        seen.extend(s.chars());
    }
    assert_eq!(lengths, (0..=20).collect::<BTreeSet<_>>());
    assert_eq!(seen, alphabet.chars().collect::<BTreeSet<_>>());
}

#[test]
fn printable_strings_hold_no_control_character() {
    let mut rng = SplitMix64::new(5);
    let mut lengths = BTreeSet::new();
    let mut non_ascii = false;
    for _ in 0..2000 {
        let s = prop::printable(&mut rng, 1..=40);
        lengths.insert(s.chars().count());
        assert!(!s.chars().any(char::is_control), "{s:?}");
        non_ascii |= !s.is_ascii();
    }
    assert_eq!(lengths, (1..=40).collect::<BTreeSet<_>>());
    assert!(non_ascii, "the draw reaches beyond ASCII");
}

#[test]
fn vec_lengths_stay_in_their_half_open_range() {
    let mut rng = SplitMix64::new(7);
    let lengths: BTreeSet<usize> = (0..1000)
        .map(|_| prop::vec(&mut rng, 1..6, |rng| rng.range(0u32..4)).len())
        .collect();
    assert_eq!(lengths, (1..6).collect::<BTreeSet<_>>());
    let elements: BTreeSet<u32> = (0..200)
        .flat_map(|_| prop::vec(&mut rng, 0..=3, |rng| rng.range(0u32..4)))
        .collect();
    assert_eq!(elements, (0..4).collect::<BTreeSet<_>>());
}
