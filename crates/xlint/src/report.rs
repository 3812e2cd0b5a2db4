//! Human and SARIF rendering of a lint run. SARIF is emitted by hand
//! (xlint is dependency-free by design).

use crate::rules::{Violation, RULES};
use std::fmt::Write as _;

/// Rules the engine emits that are not in the configurable catalogue:
/// the allow-directive hygiene checks.
const META_RULES: &[(&str, &str)] = &[
    ("malformed-allow", "xlint::allow directive without a reason"),
    (
        "unknown-rule-allow",
        "xlint::allow references an unknown rule",
    ),
    ("unused-allow", "xlint::allow suppresses nothing"),
];

/// Outcome of linting a file set.
pub struct Report {
    pub checked_files: usize,
    pub suppressed: usize,
    pub violations: Vec<Violation>,
}

impl Report {
    /// Whether the run is clean (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One `file:line: [rule] message` row per violation plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
        let _ = writeln!(
            out,
            "xlint: {} file(s) checked, {} violation(s), {} suppressed by allow",
            self.checked_files,
            self.violations.len(),
            self.suppressed
        );
        out
    }

    /// A minimal SARIF 2.1.0 document, the schema GitHub code scanning
    /// ingests for inline annotations. Every catalogue rule (plus the
    /// allow-hygiene meta rules) is declared in the driver so `ruleId`
    /// references always resolve; each violation becomes one `result`
    /// with a single physical location.
    pub fn render_sarif(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
        out.push_str("  \"version\": \"2.1.0\",\n");
        out.push_str("  \"runs\": [\n    {\n");
        out.push_str("      \"tool\": {\n        \"driver\": {\n");
        out.push_str("          \"name\": \"xlint\",\n");
        out.push_str("          \"informationUri\": \"CONTRIBUTING.md#lint-policy\",\n");
        out.push_str("          \"rules\": [");
        let all_rules = RULES.iter().chain(META_RULES.iter());
        for (i, (id, desc)) in all_rules.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
                json_str(id),
                json_str(desc)
            );
        }
        out.push_str("\n          ]\n        }\n      },\n");
        out.push_str("      \"results\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n        {{\"ruleId\": {}, \"level\": \"error\", \
                 \"message\": {{\"text\": {}}}, \"locations\": [{{\
                 \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
                 \"region\": {{\"startLine\": {}}}}}}}]}}",
                json_str(v.rule),
                json_str(&v.message),
                json_str(&v.file),
                v.line
            );
        }
        if !self.violations.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

/// Escapes a string per RFC 8259.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report {
            checked_files: 3,
            suppressed: 0,
            violations: vec![],
        };
        assert!(r.is_clean());
        assert!(r
            .render_human()
            .contains("3 file(s) checked, 0 violation(s)"));
    }

    #[test]
    fn violations_render_in_human_form() {
        let r = Report {
            checked_files: 1,
            suppressed: 2,
            violations: vec![Violation {
                file: "crates/x/src/a.rs".into(),
                line: 7,
                rule: "exit-code-registry",
                message: "it exits 9".into(),
            }],
        };
        assert!(!r.is_clean());
        let human = r.render_human();
        assert!(human.contains("crates/x/src/a.rs:7: [exit-code-registry] it exits 9"));
        assert!(human.contains("2 suppressed"));
    }

    #[test]
    fn sarif_declares_every_rule_and_locates_violations() {
        let r = Report {
            checked_files: 1,
            suppressed: 0,
            violations: vec![Violation {
                file: "crates/x/src/a.rs".into(),
                line: 7,
                rule: "budget-poll",
                message: "unpolled \"growth\" loop".into(),
            }],
        };
        let sarif = r.render_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        // Every catalogue rule plus the meta rules is declared.
        for (id, _) in RULES.iter().chain(META_RULES.iter()) {
            assert!(
                sarif.contains(&format!("\"id\": \"{id}\"")),
                "missing driver rule {id}"
            );
        }
        assert!(sarif.contains("\"ruleId\": \"budget-poll\""));
        assert!(sarif.contains("\"uri\": \"crates/x/src/a.rs\""));
        assert!(sarif.contains("\"startLine\": 7"));
        assert!(
            sarif.contains("unpolled \\\"growth\\\" loop"),
            "escaped message"
        );
    }

    #[test]
    fn sarif_with_no_violations_has_empty_results() {
        let r = Report {
            checked_files: 2,
            suppressed: 1,
            violations: vec![],
        };
        assert!(r.render_sarif().contains("\"results\": []"));
    }
}
