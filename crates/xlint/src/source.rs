//! Per-file analysis context: the token stream plus the two structural
//! facts every rule needs — which lines are test code, and which lines
//! carry an `xlint::allow` directive.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// A parsed `// xlint::allow(<rule>): <reason>` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Rule the directive suppresses.
    pub rule: String,
    /// Mandatory justification (everything after the `:`).
    pub reason: String,
    /// Line the directive comment starts on.
    pub directive_line: usize,
    /// Line whose violations it suppresses (same line for trailing
    /// comments, the next code line for comment-only lines).
    pub target_line: usize,
}

/// Token stream plus derived structure for one source file.
pub struct FileContext {
    /// Workspace-relative path with forward slashes (stable across hosts).
    pub path: String,
    /// The raw source text.
    pub src: String,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Inclusive line ranges covered by `#[test]` / `#[cfg(test)]` items.
    test_regions: Vec<(usize, usize)>,
    /// Allow directives parsed out of comments.
    pub allows: Vec<AllowDirective>,
}

impl FileContext {
    pub fn new(path: String, src: String) -> Self {
        let tokens = lex(&src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let code_lines: BTreeSet<usize> = code
            .iter()
            .flat_map(|&i| {
                let t = &tokens[i];
                t.line..=t.end_line(&src)
            })
            .collect();
        let test_regions = find_test_regions(&src, &tokens, &code);
        let allows = parse_allows(&src, &tokens, &code_lines);
        Self {
            path,
            src,
            tokens,
            code,
            test_regions,
            allows,
        }
    }

    /// Whether `line` lies inside a test-gated item (`#[test]` fn,
    /// `#[cfg(test)]` module, or a `cfg(any(test, …))`-gated item — the
    /// fault-injection hooks ride the same gate and panic by design).
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// Text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.src)
    }
}

/// Finds line ranges of items annotated with a test-marking attribute.
///
/// An attribute marks its item as test code when it mentions the `test`
/// identifier and does not mention `not` (so `#[cfg(not(test))]` items stay
/// linted while `#[test]`, `#[cfg(test)]` and `#[cfg(any(test, feature =
/// "…"))]` items are exempt). The region runs from the attribute to the
/// end of the item: through the matching `}` of the first top-level brace
/// block, or through the first top-level `;` for bodiless items.
fn find_test_regions(src: &str, tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut pos = 0usize;
    while pos < code.len() {
        let ti = code[pos];
        if tokens[ti].text(src) != "#" {
            pos += 1;
            continue;
        }
        // Parse one attribute: `#` (`!`)? `[` … matching `]`.
        let mut scan = pos + 1;
        if scan < code.len() && tokens[code[scan]].text(src) == "!" {
            // Inner attributes (`#![…]`) apply to the enclosing scope, not
            // a following item; skip them entirely.
            pos += 1;
            continue;
        }
        if scan >= code.len() || tokens[code[scan]].text(src) != "[" {
            pos += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut mentions_test = false;
        let mut mentions_not = false;
        let attr_end;
        loop {
            if scan >= code.len() {
                return regions; // malformed tail; nothing more to find
            }
            let t = &tokens[code[scan]];
            match t.text(src) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        attr_end = scan;
                        break;
                    }
                }
                "test" if t.kind == TokenKind::Ident => mentions_test = true,
                "not" if t.kind == TokenKind::Ident => mentions_not = true,
                _ => {}
            }
            scan += 1;
        }
        if !mentions_test || mentions_not {
            pos = attr_end + 1;
            continue;
        }
        // Attribute marks a test item: find where the item ends. Skip any
        // further attributes first, then scan for `{`/`;` at depth 0.
        let start_line = tokens[ti].line;
        let mut cursor = attr_end + 1;
        let mut nest = 0i32;
        let mut end_line = tokens[code[attr_end]].end_line(src);
        while cursor < code.len() {
            let t = &tokens[code[cursor]];
            match t.text(src) {
                "{" | "(" | "[" => nest += 1,
                "}" | ")" | "]" => {
                    nest -= 1;
                    if nest == 0 && t.text(src) == "}" {
                        end_line = t.end_line(src);
                        break;
                    }
                }
                ";" if nest == 0 => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            end_line = t.end_line(src);
            cursor += 1;
        }
        regions.push((start_line, end_line));
        // Continue after the region to catch sibling items; nested
        // attributes inside the region are redundant but harmless.
        pos = cursor.max(attr_end + 1);
    }
    regions
}

/// Extracts `xlint::allow(<rule>): <reason>` directives from comments.
///
/// A directive trailing code applies to its own line; a directive on a
/// comment-only line applies to the next line carrying code (directives
/// stack: several comment lines in a row may target the same code line).
/// A directive missing its reason is kept with an empty reason — the
/// engine reports it as malformed instead of honoring it.
fn parse_allows(src: &str, tokens: &[Token], code_lines: &BTreeSet<usize>) -> Vec<AllowDirective> {
    let mut allows = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(src);
        let mut search_from = 0usize;
        while let Some(found) = text[search_from..].find("xlint::allow(") {
            let at = search_from + found + "xlint::allow(".len();
            let rest = &text[at..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            // Only well-formed rule names are directives; prose mentions
            // like `xlint::allow(...)` or `xlint::allow(<rule>)` in docs
            // must not parse as (malformed) suppressions.
            if rule.is_empty()
                || !rule
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            {
                search_from = at + close;
                continue;
            }
            let after = &rest[close + 1..];
            let reason = after
                .strip_prefix(':')
                .map(|r| {
                    // Reason runs to end of line within the comment.
                    r.split('\n').next().unwrap_or("").trim().to_string()
                })
                .unwrap_or_default();
            // Trailing directive ⇒ same line; standalone ⇒ next code line.
            let directive_line = tok.line;
            let has_code_before = tokens[..i].iter().any(|t| {
                !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                    && t.end_line(src) == directive_line
            });
            let target_line = if has_code_before {
                directive_line
            } else {
                let after_line = tok.end_line(src);
                code_lines
                    .range(after_line + 1..)
                    .next()
                    .copied()
                    .unwrap_or(directive_line)
            };
            allows.push(AllowDirective {
                rule,
                reason,
                directive_line,
                target_line,
            });
            search_from = at + close;
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileContext {
        FileContext::new("crates/demo/src/lib.rs".into(), src.into())
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn also_live() {}\n";
        let c = ctx(src);
        assert!(!c.is_test_line(1));
        assert!(c.is_test_line(3));
        assert!(c.is_test_line(6));
        assert!(!c.is_test_line(8));
    }

    #[test]
    fn test_fn_region_covers_only_the_fn() {
        let src = "#[test]\nfn t() {\n    boom();\n}\nfn live() {}\n";
        let c = ctx(src);
        assert!(c.is_test_line(3));
        assert!(!c.is_test_line(5));
    }

    #[test]
    fn cfg_any_test_feature_is_exempt_but_not_test_is_not() {
        let src = "#[cfg(any(test, feature = \"fault-injection\"))]\nfn hook() { panic!(); }\n#[cfg(not(test))]\nfn live() { run(); }\n";
        let c = ctx(src);
        assert!(c.is_test_line(2));
        assert!(!c.is_test_line(4));
    }

    #[test]
    fn inner_attributes_do_not_open_regions() {
        let src = "#![allow(dead_code)]\nfn live() {}\n";
        let c = ctx(src);
        assert!(!c.is_test_line(2));
    }

    #[test]
    fn cfg_test_on_bodiless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let c = ctx(src);
        assert!(c.is_test_line(2));
        assert!(!c.is_test_line(3));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src =
            "let x = f(); // xlint::allow(budget-poll): builder misuse is a programming error\n";
        let c = ctx(src);
        assert_eq!(c.allows.len(), 1);
        assert_eq!(c.allows[0].rule, "budget-poll");
        assert_eq!(c.allows[0].target_line, 1);
        assert!(c.allows[0].reason.contains("programming error"));
    }

    #[test]
    fn standalone_allow_targets_next_code_line() {
        let src = "// xlint::allow(lock-discipline): cold config path\n// xlint::allow(budget-poll): second rule stacks\nlet m = HashMap::new();\n";
        let c = ctx(src);
        assert_eq!(c.allows.len(), 2);
        assert_eq!(c.allows[0].target_line, 3);
        assert_eq!(c.allows[1].target_line, 3);
    }

    #[test]
    fn allow_without_reason_is_kept_but_empty() {
        let src = "// xlint::allow(budget-poll)\nlet x = f();\n";
        let c = ctx(src);
        assert_eq!(c.allows.len(), 1);
        assert!(c.allows[0].reason.is_empty());
    }

    #[test]
    fn directive_inside_string_is_ignored() {
        let src = "let s = \"xlint::allow(budget-poll): nope\";\n";
        let c = ctx(src);
        assert!(c.allows.is_empty());
    }
}
