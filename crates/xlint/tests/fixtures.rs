//! End-to-end rule tests over the files in `fixtures/`.
//!
//! Each rule has a violating fixture and a suppressed (`xlint::allow` +
//! reason) one. The fixtures are checked as a miniature workspace under
//! synthetic paths, because the rules key on a file's location (the
//! mining-path files, the stream and server crates, the exit-code
//! registry) rather than its content alone.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use std::fs;
use std::path::Path;
use xlint::rules::Violation;
use xlint::source::FileContext;

/// Lints a set of fixtures as a miniature workspace: each fixture lands
/// at its synthetic workspace `path` and the set goes through
/// [`xlint::lint_files`], as `run_workspace` sends the real one.
fn lint_workspace(files: &[(&str, &str)]) -> (Vec<Violation>, usize) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let ctxs: Vec<FileContext> = files
        .iter()
        .map(|(fixture, path)| {
            let src = fs::read_to_string(dir.join(fixture))
                .unwrap_or_else(|e| panic!("fixture {fixture} unreadable: {e}"));
            FileContext::new((*path).into(), src)
        })
        .collect();
    let report = xlint::lint_files(ctxs);
    (report.violations, report.suppressed)
}

fn rules(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn budget_poll_fixture_pair() {
    // Violating: the unpolled growth loop fires; the bookkeeping loop is
    // silent because it never reaches a growth entry point.
    let (v, suppressed) =
        lint_workspace(&[("budget_poll_violation.rs", "crates/tpminer/src/search.rs")]);
    assert_eq!(rules(&v), ["budget-poll"], "{v:?}");
    assert_eq!(v[0].line, 7, "the unpolled loop, not the bookkeeping one");
    assert_eq!(suppressed, 0);

    // Suppressed: the reasoned allow absorbs the violation; the metered
    // loop alongside needs no annotation at all.
    let (v, suppressed) =
        lint_workspace(&[("budget_poll_allow.rs", "crates/tpminer/src/search.rs")]);
    assert!(v.is_empty(), "{v:?}");
    assert_eq!(suppressed, 1);

    // Off the mining path the rule does not apply, so the allow would be
    // flagged as unused — suppressions must never outlive their rule.
    let (v, _) = lint_workspace(&[("budget_poll_allow.rs", "crates/cli/src/main.rs")]);
    assert_eq!(rules(&v), ["unused-allow"], "{v:?}");
}

#[test]
fn lock_discipline_fixture_pair() {
    let (v, suppressed) = lint_workspace(&[(
        "lock_discipline_violation.rs",
        "crates/server/src/session.rs",
    )]);
    assert_eq!(rules(&v), ["lock-discipline"], "{v:?}");
    assert_eq!(
        v[0].line, 7,
        "the send under the guard; the frozen variant passes"
    );
    assert!(v[0].message.contains("`guard`"), "{v:?}");
    assert_eq!(suppressed, 0);

    let (v, suppressed) =
        lint_workspace(&[("lock_discipline_allow.rs", "crates/server/src/session.rs")]);
    assert!(v.is_empty(), "{v:?}");
    assert_eq!(suppressed, 1);

    // Outside the stream/server crates guards may block freely (the
    // mining engine has no cross-thread lock protocol), so the allow
    // comes back as unused.
    let (v, _) = lint_workspace(&[("lock_discipline_allow.rs", "crates/tpminer/src/helper.rs")]);
    assert_eq!(rules(&v), ["unused-allow"], "{v:?}");
}

#[test]
fn exit_code_registry_fixture_pair() {
    // Violating: one numeric `exit(…)` and one numeric `ExitCode::from`;
    // the `exit::USAGE` call is the sanctioned shape and passes.
    let (v, suppressed) =
        lint_workspace(&[("exit_code_registry_violation.rs", "crates/cli/src/main.rs")]);
    assert_eq!(
        rules(&v),
        ["exit-code-registry", "exit-code-registry"],
        "{v:?}"
    );
    assert_eq!(
        (v[0].line, v[1].line),
        (5, 9),
        "the numeric exit and the numeric ExitCode::from"
    );
    assert_eq!(suppressed, 0);

    let (v, suppressed) =
        lint_workspace(&[("exit_code_registry_allow.rs", "crates/cli/src/main.rs")]);
    assert!(v.is_empty(), "{v:?}");
    assert_eq!(suppressed, 1);

    // The registry module itself is the one sanctioned home for numbers.
    let (v, _) = lint_workspace(&[("exit_code_registry_violation.rs", "crates/cli/src/exit.rs")]);
    assert!(v.is_empty(), "{v:?}");
}
