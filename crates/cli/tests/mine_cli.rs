//! Pins `mine`'s stdout over a small hand-written database, and the usage
//! exit of `mine` and `stream` on an out-of-range support threshold and of
//! `mine --top-k` given a threshold.
//!
//! `mine` runs one engine whatever `--threads` says, so the default run
//! and every worker count must print the same bytes. The expected strings
//! below were captured once from the binary and are compared byte for
//! byte: a change to the miner, the rule generator, top-k or the renderer
//! that moves a line fails here. The database is written out by hand, so
//! a change to `generate` or its seeded generator cannot move these
//! strings.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

/// Eight short clinical courses over four symbols: enough for arity-3
/// patterns at support 2, and for rules whose single-extension form
/// differs from an any-sub-pattern form.
const DATABASE: &str = "\
# fever, rash, cough and ache over eight courses
fever 0 10; rash 5 20; cough 12 18
fever 2 9; rash 6 15; ache 16 30
fever 1 8; cough 3 7; rash 9 14
rash 0 6; fever 4 12; cough 13 20; ache 14 22
fever 0 10; rash 5 20; ache 21 25
cough 0 4; fever 5 15; rash 8 18
fever 3 11; rash 7 19; cough 12 16; ache 17 24
ache 0 5; cough 6 9
";

const FREQUENT: &str = "\
frequent patterns: 12
  fever+ | fever-   (support 7)
  rash+ | rash-   (support 7)
  cough+ | cough-   (support 6)
  ache+ | ache-   (support 5)
  fever+ | fever- | cough+ | cough-   (support 3)
  fever+ | fever- | ache+ | ache-   (support 4)
  fever+ | rash+ | fever- | rash-   (support 5)
  rash+ | rash- | ache+ | ache-   (support 3)
  rash+ | cough+ | cough- | rash-   (support 2)
  cough+ | cough- | rash+ | rash-   (support 2)
  fever+ | rash+ | fever- | rash- | ache+ | ache-   (support 2)
  fever+ | rash+ | fever- | cough+ | cough- | rash-   (support 2)
";

const JSON: &str = r#"{"arity":1,"kind":"frequent","pattern":"fever+ | fever-","support":7}
{"arity":1,"kind":"frequent","pattern":"rash+ | rash-","support":7}
{"arity":1,"kind":"frequent","pattern":"cough+ | cough-","support":6}
{"arity":1,"kind":"frequent","pattern":"ache+ | ache-","support":5}
{"arity":2,"kind":"frequent","pattern":"fever+ | fever- | cough+ | cough-","support":3}
{"arity":2,"kind":"frequent","pattern":"fever+ | fever- | ache+ | ache-","support":4}
{"arity":2,"kind":"frequent","pattern":"fever+ | rash+ | fever- | rash-","support":5}
{"arity":2,"kind":"frequent","pattern":"rash+ | rash- | ache+ | ache-","support":3}
{"arity":2,"kind":"frequent","pattern":"rash+ | cough+ | cough- | rash-","support":2}
{"arity":2,"kind":"frequent","pattern":"cough+ | cough- | rash+ | rash-","support":2}
{"arity":3,"kind":"frequent","pattern":"fever+ | rash+ | fever- | rash- | ache+ | ache-","support":2}
{"arity":3,"kind":"frequent","pattern":"fever+ | rash+ | fever- | cough+ | cough- | rash-","support":2}
"#;

const CLOSED: &str = "\
closed patterns: 11
  fever+ | fever-   (support 7)
  fever+ | fever- | cough+ | cough-   (support 3)
  fever+ | fever- | ache+ | ache-   (support 4)
  fever+ | rash+ | fever- | rash-   (support 5)
  fever+ | rash+ | fever- | rash- | ache+ | ache-   (support 2)
  fever+ | rash+ | fever- | cough+ | cough- | rash-   (support 2)
  rash+ | rash-   (support 7)
  rash+ | rash- | ache+ | ache-   (support 3)
  cough+ | cough-   (support 6)
  cough+ | cough- | rash+ | rash-   (support 2)
  ache+ | ache-   (support 5)
";

const TOP_K: &str = "\
top-k patterns: 5
  fever+ | rash+ | fever- | rash-   (support 5)
  fever+ | fever- | ache+ | ache-   (support 4)
  fever+ | fever- | cough+ | cough-   (support 3)
  rash+ | rash- | ache+ | ache-   (support 3)
  rash+ | cough+ | cough- | rash-   (support 2)
";

const RULES: &str = "\
10 rules at confidence >= 0.5
  rash+ | cough+ | cough- | rash-  =>  fever+ | rash+ | fever- | cough+ | cough- | rash-   (conf 1.00, sup 2)
  ache+ | ache-  =>  fever+ | fever- | ache+ | ache-   (conf 0.80, sup 4)
  fever+ | fever-  =>  fever+ | rash+ | fever- | rash-   (conf 0.71, sup 5)
  rash+ | rash-  =>  fever+ | rash+ | fever- | rash-   (conf 0.71, sup 5)
  fever+ | fever- | cough+ | cough-  =>  fever+ | rash+ | fever- | cough+ | cough- | rash-   (conf 0.67, sup 2)
  rash+ | rash- | ache+ | ache-  =>  fever+ | rash+ | fever- | rash- | ache+ | ache-   (conf 0.67, sup 2)
  ache+ | ache-  =>  rash+ | rash- | ache+ | ache-   (conf 0.60, sup 3)
  fever+ | fever-  =>  fever+ | fever- | ache+ | ache-   (conf 0.57, sup 4)
  cough+ | cough-  =>  fever+ | fever- | cough+ | cough-   (conf 0.50, sup 3)
  fever+ | fever- | ache+ | ache-  =>  fever+ | rash+ | fever- | rash- | ache+ | ache-   (conf 0.50, sup 2)
";

/// Runs `command` over [`DATABASE`] with `args`. Each run gets its own
/// copy of the database, so tests running in parallel never see a
/// half-written file.
fn run(command: &str, args: &[&str]) -> Output {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "ptpminer-mine-cli-{}-{}.txt",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, DATABASE).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ptpminer-cli"))
        .arg(command)
        .arg(&path)
        .args(args)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    out
}

/// Runs `mine` over [`DATABASE`] with `args` and returns its stdout,
/// failing unless it exits 0.
fn mine(args: &[&str]) -> String {
    let out = run("mine", args);
    assert!(
        out.status.success(),
        "mine {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn every_thread_count_prints_the_default_stdout() {
    assert_eq!(mine(&["--abs-support", "2"]), FREQUENT);
    for threads in ["1", "2", "0"] {
        assert_eq!(
            mine(&["--abs-support", "2", "--threads", threads]),
            FREQUENT,
            "--threads {threads}"
        );
    }
}

#[test]
fn out_of_range_support_is_a_usage_error_naming_the_range() {
    let cases = [
        (["--min-support", "2"], "must be in (0, 1]"),
        (["--min-support", "0"], "must be in (0, 1]"),
        (["--abs-support", "0"], "must be at least 1"),
    ];
    for (command, extra) in [("mine", &[][..]), ("stream", &["--window", "10"][..])] {
        for (support, range) in cases {
            let out = run(command, &[&support[..], extra].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{command} {support:?}: {stderr}"
            );
            assert!(stderr.contains(range), "{command} {support:?}: {stderr}");
        }
    }
}

#[test]
fn json_and_closed_stdout_are_pinned() {
    assert_eq!(mine(&["--abs-support", "2", "--json"]), JSON);
    assert_eq!(mine(&["--abs-support", "2", "--closed"]), CLOSED);
}

#[test]
fn top_k_stdout_is_pinned() {
    assert_eq!(mine(&["--top-k", "5"]), TOP_K);
}

#[test]
fn top_k_with_a_support_threshold_is_a_usage_error() {
    for support in [["--min-support", "2"], ["--abs-support", "2"]] {
        let out = run("mine", &[&["--top-k", "3"][..], &support[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{support:?}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "--top-k ranks patterns by support and takes no threshold: drop {}",
                support[0]
            )),
            "{support:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{support:?}");
    }
}

#[test]
fn rules_stdout_is_pinned() {
    assert_eq!(mine(&["--abs-support", "2", "--rules", "0.5"]), RULES);
}
