//! A seeded property harness.
//!
//! A property is a plain function of an input, checked with `assert*`. It
//! runs on a fixed number of cases; case `k` draws its input from
//! `SplitMix64::new(k)` with a plain generator function, so every build on
//! every host runs the same cases. A failing case panics with its seed, its
//! input (`Debug`) and the property's own message; rerun it alone with
//! `property(generate(&mut SplitMix64::new(seed)))`.
//!
//! There is no shrinking: the generators keep their inputs small instead.

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

use interval_core::rng::{SampleRange, SplitMix64};

/// Runs `property` on the input `generate` draws for each seed in
/// `0..cases`, stopping at the first case that panics. Each case gets a
/// clone of its input, so the input can still be shown when it fails.
///
/// # Panics
///
/// When a case fails, with a message that names its seed and its input
/// ahead of the property's own panic message.
#[expect(
    clippy::panic,
    reason = "a failed case panics again, naming its seed and input"
)]
pub fn check<T: Clone + Debug>(
    cases: u64,
    generate: impl Fn(&mut SplitMix64) -> T,
    property: impl Fn(T),
) {
    for seed in 0..cases {
        let input = generate(&mut SplitMix64::new(seed));
        let run = AssertUnwindSafe(|| property(input.clone()));
        if let Err(payload) = panic::catch_unwind(run) {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            panic!("property failed on seed {seed} of 0..{cases}\ninput: {input:?}\n{message}");
        }
    }
}

/// A vector whose length is drawn from `len`, each element by `element`.
pub fn vec<T>(
    rng: &mut SplitMix64,
    len: impl SampleRange<usize>,
    mut element: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = rng.range(len);
    (0..n).map(|_| element(rng)).collect()
}

/// A string whose length is drawn from `len`, each character uniformly
/// from the characters of `alphabet`.
pub fn string(rng: &mut SplitMix64, alphabet: &str, len: impl SampleRange<usize>) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    vec(rng, len, |rng| chars[rng.range(0..chars.len())])
        .into_iter()
        .collect()
}

/// A string whose length is drawn from `len`, of characters that are not
/// control characters: printable ASCII three times in four, otherwise any
/// scalar value from U+00A0 up (a surrogate is drawn again). Unlike the
/// regex class `\PC`, it may draw format, private-use and unassigned code
/// points, which only widens what a parser is fed.
pub fn printable(rng: &mut SplitMix64, len: impl SampleRange<usize>) -> String {
    vec(rng, len, |rng| loop {
        let code = if rng.range(0u32..4) < 3 {
            rng.range(0x20u32..0x7f)
        } else {
            rng.range(0xa0u32..0x11_0000)
        };
        if let Some(c) = char::from_u32(code) {
            break c;
        }
    })
    .into_iter()
    .collect()
}
