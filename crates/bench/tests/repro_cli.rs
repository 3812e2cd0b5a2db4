//! `repro`'s exit status: every experiment name is checked before any
//! experiment runs, so a typo costs nothing and reports the usage error.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use std::process::Command;

/// The usage exit code of the CLI's registry (`cli/src/exit.rs`).
const EXIT_USAGE: i32 = 2;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn an_unknown_experiment_is_a_usage_error() {
    let out = repro(&["e9"]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    assert!(out.stdout.is_empty(), "no experiment ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `e9`"), "{stderr}");
}

#[test]
fn names_are_checked_before_any_experiment_runs() {
    let out = repro(&["e8", "e9"]);
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    assert!(
        out.stdout.is_empty(),
        "e8 must not run before e9 is rejected"
    );
}
