//! The rule catalogue and the allow-directive engine.
//!
//! Every rule pins an invariant that rustc and clippy cannot express, so
//! the rules live in [`semantic`](crate::semantic) and run over the whole
//! workspace. Per-file invariants (panic-free libraries, the hash-free hot
//! path, unsafe hygiene, thread and clock confinement) are rustc and
//! clippy lints, configured in the root `Cargo.toml` and `clippy.toml`.
//!
//! Suppression is per line via `// xlint::allow(<rule>): <reason>`; a
//! directive without a reason, naming no rule, or suppressing nothing is
//! itself reported.

use crate::source::FileContext;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// Names of all rules, for directive validation and docs.
pub const RULES: &[(&str, &str)] = &[
    (
        "budget-poll",
        "every loop on a mining growth path reaches a MiningBudget poll",
    ),
    (
        "lock-discipline",
        "no lock guard live across channel send/recv, thread join, or socket I/O in stream/server",
    ),
    (
        "exit-code-registry",
        "process exit codes are named constants from cli/src/exit.rs, never numeric literals",
    ),
];

/// Applies allow-directives to raw violations. Returns the surviving
/// violations (malformed or unknown-rule directives are appended as
/// violations of their own) plus the number suppressed.
pub fn apply_allows(ctx: &FileContext, raw: Vec<Violation>) -> (Vec<Violation>, usize) {
    let mut used = vec![false; ctx.allows.len()];
    let mut out = Vec::new();
    let mut suppressed = 0usize;
    for v in raw {
        let allowed = ctx.allows.iter().enumerate().any(|(i, a)| {
            let hit = a.rule == v.rule && a.target_line == v.line && !a.reason.is_empty();
            if hit {
                used[i] = true;
            }
            hit
        });
        if allowed {
            suppressed += 1;
        } else {
            out.push(v);
        }
    }
    for (i, a) in ctx.allows.iter().enumerate() {
        if a.reason.is_empty() {
            out.push(Violation {
                file: ctx.path.clone(),
                line: a.directive_line,
                rule: "malformed-allow",
                message: format!(
                    "xlint::allow({}) has no reason; write `// xlint::allow({}): <why>`",
                    a.rule, a.rule
                ),
            });
        } else if !RULES.iter().any(|(name, _)| *name == a.rule) {
            out.push(Violation {
                file: ctx.path.clone(),
                line: a.directive_line,
                rule: "unknown-rule-allow",
                message: format!("xlint::allow references unknown rule `{}`", a.rule),
            });
        } else if !used[i] {
            out.push(Violation {
                file: ctx.path.clone(),
                line: a.directive_line,
                rule: "unused-allow",
                message: format!(
                    "xlint::allow({}) suppresses nothing on line {}; remove it",
                    a.rule, a.target_line
                ),
            });
        }
    }
    (out, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `exit-code-registry` finding on line 3 of `src`.
    fn run(src: &str) -> (Vec<Violation>, usize) {
        let ctx = FileContext::new("crates/cli/src/main.rs".into(), src.into());
        let raw = vec![Violation {
            file: ctx.path.clone(),
            line: 3,
            rule: "exit-code-registry",
            message: "numeric exit code".into(),
        }];
        apply_allows(&ctx, raw)
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_not_unused() {
        let src = "fn main() {\n    // xlint::allow(exit-code-registry): mirrors the shell's convention\n    std::process::exit(9);\n}\n";
        let (v, suppressed) = run(src);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn allow_without_reason_is_malformed_and_does_not_suppress() {
        let src =
            "fn main() {\n    // xlint::allow(exit-code-registry)\n    std::process::exit(9);\n}\n";
        let (v, suppressed) = run(src);
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["exit-code-registry", "malformed-allow"], "{v:?}");
        assert_eq!(suppressed, 0);
    }

    #[test]
    fn allow_naming_a_retired_rule_is_unknown() {
        let src = "fn main() {\n    // xlint::allow(no-panic-lib): a clippy lint now\n    std::process::exit(9);\n}\n";
        let (v, _) = run(src);
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["exit-code-registry", "unknown-rule-allow"], "{v:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src =
            "// xlint::allow(exit-code-registry): stale justification\nfn f() -> u32 { 1 }\n\n";
        let ctx = FileContext::new("crates/cli/src/main.rs".into(), src.into());
        let (v, _) = apply_allows(&ctx, Vec::new());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unused-allow");
    }
}
