//! A lightweight cross-crate call graph built on the lexer.
//!
//! The rules in [`semantic`](crate::semantic) need to know *what calls
//! what* across the whole workspace — a loop in
//! `tpminer::search` is only budget-safe because a function three call
//! edges away polls the meter. This module extracts just enough structure
//! to answer those questions, still zero-dependency and token-driven:
//!
//! - **Fns**: every `fn` definition, by bare name.
//! - **Call edges**: every `name(…)` / `.name(…)` site inside a fn body,
//!   resolved *by name* to every workspace fn sharing that name. Name
//!   resolution without types over-approximates, which is the right
//!   direction for a linter: reachability queries may return "reaches"
//!   for a call that dynamically goes elsewhere, but they never miss a
//!   real edge.
//!
//! Test-gated fns (`#[cfg(test)]`, `#[test]`) are indexed but marked,
//! so rules can skip them.

use crate::lexer::TokenKind;
use crate::source::FileContext;
use std::collections::HashMap;

/// Rust keywords that look like call sites when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move", "ref", "mut",
    "box", "do", "else", "impl", "trait", "struct", "enum", "union", "unsafe", "where", "use",
    "mod", "pub", "const", "static", "type", "dyn", "yield", "await",
];

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Bare callee name (`submit`, not `worker.submit`).
    pub name: String,
    /// Whether the argument list is empty (`name()`), which is how the
    /// lock-discipline rule tells a thread `join()` / channel `recv()`
    /// from `Vec::join(sep)` / `Read::read(buf)`.
    pub empty_args: bool,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Whether the item sits inside a test region.
    pub test: bool,
    /// Call sites inside the body, in source order.
    pub calls: Vec<Call>,
}

/// The fns extracted from one file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path, mirrored from the [`FileContext`].
    pub path: String,
    pub fns: Vec<FnItem>,
}

/// The workspace-wide model: per-file fns plus a name→fn index used for
/// call-edge resolution.
#[derive(Debug, Default)]
pub struct Model {
    pub files: Vec<FileModel>,
    /// Bare fn name → every `(file, fn)` defining it, workspace-wide.
    by_name: HashMap<String, Vec<(usize, usize)>>,
}

impl Model {
    /// Builds the model over every given file context. The `files` order
    /// defines the indices used throughout the model.
    pub fn build(ctxs: &[&FileContext]) -> Model {
        let mut model = Model::default();
        for ctx in ctxs {
            model.files.push(extract_file(ctx));
        }
        for (fi, file) in model.files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                model
                    .by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push((fi, gi));
            }
        }
        model
    }

    /// Every fn named `name`, across the workspace.
    pub fn fns_named(&self, name: &str) -> impl Iterator<Item = &FnItem> {
        self.by_name
            .get(name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&(fi, gi)| &self.files[fi].fns[gi])
    }

    /// Whether any call in `seeds` transitively reaches a call whose name
    /// satisfies `target`, following workspace call edges by name.
    /// Over-approximate by construction (see the module docs).
    pub fn reaches(&self, seeds: &[String], target: impl Fn(&str) -> bool) -> bool {
        let mut seen: Vec<&str> = Vec::new();
        let mut queue: Vec<&str> = seeds.iter().map(String::as_str).collect();
        while let Some(name) = queue.pop() {
            if target(name) {
                return true;
            }
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            for f in self.fns_named(name) {
                for call in &f.calls {
                    if !seen.contains(&call.name.as_str()) {
                        queue.push(&call.name);
                    }
                }
            }
        }
        false
    }

    /// Computes, by fixpoint over the call graph, the set of fn names
    /// whose callers may reach a call satisfying `direct` (e.g. "is a
    /// blocking primitive"). The predicate sees the defining file so
    /// callers can scope which modules' primitives count. Test-gated fns
    /// do not contribute direct hits (test helpers block freely) but do
    /// propagate.
    ///
    /// Because call edges are name-resolved, a name is only credited when
    /// **every** workspace definition of that name may reach a direct
    /// hit. The cheaper "any definition" rule melts down in practice: one
    /// `fn new` that spawns a worker thread would make every constructor
    /// call in the workspace "blocking", and the poison spreads through
    /// `len`/`iter`/`default` until the set contains essentially every
    /// fn. Unanimity keeps the answer meaningful for exactly the calls
    /// the lock rule cares about — helpers like `wait_idle` or
    /// `submit_refresh` with a single, genuinely blocking definition —
    /// at the cost of missing a blocking fn that shares its name with a
    /// non-blocking one (an accepted, documented under-approximation).
    pub fn may_reach_set(
        &self,
        direct: impl Fn(&FileModel, &Call) -> bool,
    ) -> std::collections::HashSet<String> {
        // Per-definition hotness, keyed in lockstep with self.files[..].fns.
        let mut def_hot: Vec<Vec<bool>> = self
            .files
            .iter()
            .map(|f| vec![false; f.fns.len()])
            .collect();
        // name -> its definition sites, for the unanimity check.
        let mut defs: std::collections::HashMap<&str, Vec<(usize, usize)>> =
            std::collections::HashMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (i, f) in file.fns.iter().enumerate() {
                defs.entry(f.name.as_str()).or_default().push((fi, i));
            }
        }
        let mut hot_names: std::collections::HashSet<String> = std::collections::HashSet::new();
        loop {
            let mut changed = false;
            for (fi, file) in self.files.iter().enumerate() {
                for (i, f) in file.fns.iter().enumerate() {
                    if def_hot[fi][i] {
                        continue;
                    }
                    let hits = f
                        .calls
                        .iter()
                        .any(|c| (!f.test && direct(file, c)) || hot_names.contains(&c.name));
                    if hits {
                        def_hot[fi][i] = true;
                        changed = true;
                    }
                }
            }
            for (name, sites) in &defs {
                if !hot_names.contains(*name) && sites.iter().all(|&(fi, i)| def_hot[fi][i]) {
                    hot_names.insert((*name).to_string());
                    changed = true;
                }
            }
            if !changed {
                return hot_names;
            }
        }
    }
}

/// Token-walk extraction of one file's fns.
fn extract_file(ctx: &FileContext) -> FileModel {
    let mut out = FileModel {
        path: ctx.path.clone(),
        fns: Vec::new(),
    };
    let code = &ctx.code;
    let mut pos = 0usize;
    while pos < code.len() {
        let ti = code[pos];
        if ctx.tokens[ti].kind != TokenKind::Ident || ctx.text(ti) != "fn" {
            pos += 1;
            continue;
        }
        let Some(&name_ti) = code.get(pos + 1) else {
            break;
        };
        // A fn-pointer type (`fn(Scale)`) is not an item: a definition
        // names itself right after `fn`.
        if ctx.tokens[name_ti].kind != TokenKind::Ident {
            pos += 1;
            continue;
        }
        let name = ctx.text(name_ti).to_string();
        let line = ctx.tokens[name_ti].line;
        // Find the body `{` (or `;` for signatures), skipping the
        // parameter list, generics and return type.
        let mut scan = pos + 2;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut body = (0usize, 0usize);
        while scan < code.len() {
            let t = ctx.text(code[scan]);
            match t {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "<" if paren == 0 => angle += 1,
                ">" if paren == 0 => angle = (angle - 1).max(0),
                "{" if paren == 0 => {
                    let close = matching_brace(ctx, scan);
                    body = (scan, close + 1);
                    break;
                }
                ";" if paren == 0 && angle == 0 => break,
                _ => {}
            }
            scan += 1;
        }
        let calls = if body.0 < body.1 {
            extract_calls(ctx, body)
        } else {
            Vec::new()
        };
        out.fns.push(FnItem {
            name,
            test: ctx.is_test_line(line),
            calls,
        });
        // Continue *inside* the body: nested fns and closures keep
        // getting indexed.
        pos = body.0.max(pos + 2).min(code.len());
        if body.0 >= body.1 {
            pos = scan.min(code.len());
        }
    }
    out
}

/// Index (into `ctx.code`) of the `}` matching the `{` at code index
/// `open`. Falls back to the last token on unbalanced input.
fn matching_brace(ctx: &FileContext, open: usize) -> usize {
    let mut depth = 0i32;
    for pos in open..ctx.code.len() {
        match ctx.text(ctx.code[pos]) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return pos;
                }
            }
            _ => {}
        }
    }
    ctx.code.len().saturating_sub(1)
}

/// Call sites within a body code-range (braces included).
fn extract_calls(ctx: &FileContext, body: (usize, usize)) -> Vec<Call> {
    let mut calls = Vec::new();
    for pos in body.0..body.1 {
        let ti = ctx.code[pos];
        let tok = &ctx.tokens[ti];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = ctx.text(ti);
        if NON_CALL_KEYWORDS.contains(&text) {
            continue;
        }
        // `name(` — but not `name!(` (macro) and not `fn name(` (nested
        // definition; those are indexed as their own items).
        let next_is_paren = pos + 1 < body.1 && ctx.text(ctx.code[pos + 1]) == "(";
        if !next_is_paren {
            continue;
        }
        if pos > 0 && ctx.text(ctx.code[pos - 1]) == "fn" {
            continue;
        }
        let empty_args = pos + 2 < body.1 && ctx.text(ctx.code[pos + 2]) == ")";
        calls.push(Call {
            name: text.to_string(),
            empty_args,
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str, src: &str) -> FileContext {
        FileContext::new(path.into(), src.into())
    }

    fn model(src: &str) -> Model {
        let c = ctx("crates/demo/src/lib.rs", src);
        Model::build(&[&c])
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        // The shape of `repro.rs`: a fn-pointer alias, then fns that use
        // it; plus a struct field of fn-pointer type.
        let m = model(
            "type Experiment = (&'static str, fn(Scale));\n\
             struct Hook {\n    run: fn(u32) -> bool,\n}\n\
             fn e1(scale: Scale) { table(scale); }\n\
             fn table(scale: Scale) { chart(); }\n\
             fn chart() {}\n\
             fn main() { let all: [Experiment; 1] = [(\"e1\", e1)]; dispatch(&all); }\n",
        );
        let names: Vec<&str> = m.files[0].fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["e1", "table", "chart", "main"]);
        let calls = |name: &str| -> Vec<String> {
            m.fns_named(name)
                .flat_map(|f| f.calls.iter().map(|c| c.name.clone()))
                .collect()
        };
        assert_eq!(calls("e1"), ["table"]);
        assert_eq!(calls("table"), ["chart"]);
        assert_eq!(calls("main"), ["dispatch"]);
    }

    #[test]
    fn call_edges_cover_methods_and_paths_and_skip_macros() {
        let m = model(
            "fn f() {\n    helper();\n    self.method(1);\n    println!(\"not a call\");\n    let v = Vec::new();\n}\nfn helper() {}\n",
        );
        let f = &m.files[0].fns[0];
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["helper", "method", "new"]);
    }

    #[test]
    fn reaches_follows_transitive_call_edges() {
        let m =
            model("fn a() { b(); }\nfn b() { c(); }\nfn c() { poll_budget(); }\nfn lonely() {}\n");
        assert!(m.reaches(&["a".into()], |n| n == "poll_budget"));
        assert!(!m.reaches(&["lonely".into()], |n| n == "poll_budget"));
    }

    #[test]
    fn reaches_handles_recursion_without_looping() {
        let m = model("fn a() { a(); b(); }\nfn b() { a(); }\n");
        assert!(!m.reaches(&["a".into()], |n| n == "absent"));
        assert!(m.reaches(&["b".into()], |n| n == "a"));
    }

    #[test]
    fn may_reach_set_requires_every_definition_of_a_name_to_block() {
        // `spawn_worker` blocks (send), and `new` has two definitions: one
        // calls spawn_worker, one is a pure constructor. Unanimity means
        // `new` stays cold — otherwise every constructor call in the
        // workspace would be poisoned through the shared name.
        let a = ctx(
            "crates/a/src/lib.rs",
            "fn spawn_worker(tx: &T) { tx.send(1); }\n\
             impl Worker { fn new(tx: &T) -> Self { spawn_worker(tx); Self }\n}\n",
        );
        let b = ctx(
            "crates/b/src/lib.rs",
            "impl Plain { fn new() -> Self { Self }\n}\n\
             fn build() { let p = Plain::new(); }\n",
        );
        let m = Model::build(&[&a, &b]);
        let hot = m.may_reach_set(|_, c| c.name == "send");
        assert!(hot.contains("spawn_worker"), "direct hit propagates");
        assert!(
            !hot.contains("new"),
            "split-definition names stay cold: {hot:?}"
        );
        assert!(!hot.contains("build"), "callers of cold names stay cold");
    }

    #[test]
    fn may_reach_set_credits_unanimous_names_transitively() {
        let a = ctx(
            "crates/a/src/lib.rs",
            "fn wait_idle(&self) { self.cv.wait(); }\n\
             fn sync(&self) { self.wait_idle(); }\n",
        );
        let m = Model::build(&[&a]);
        let hot = m.may_reach_set(|_, c| c.name == "wait");
        assert!(hot.contains("wait_idle"));
        assert!(
            hot.contains("sync"),
            "single-definition chains still propagate"
        );
    }

    #[test]
    fn re_exported_fn_is_reachable_under_its_own_name() {
        // A re-export does not rename the fn: call edges resolve by bare
        // name, so `pub use` corner cases must not hide definitions.
        let src_a = ctx(
            "crates/a/src/lib.rs",
            "pub mod deep { pub fn poll() {} }\npub use deep::poll;\n",
        );
        let src_b = ctx("crates/b/src/lib.rs", "fn go() { poll(); }\n");
        let m = Model::build(&[&src_a, &src_b]);
        assert!(m.reaches(&["go".into()], |n| n == "poll"));
    }

    #[test]
    fn bodiless_fns_are_indexed() {
        let m = model(
            "trait T {\n    fn sig(&self) -> u32;\n    fn with_body(&self) -> u32 { self.sig() }\n}\n",
        );
        let sig = m.files[0].fns.iter().find(|f| f.name == "sig").unwrap();
        assert!(sig.calls.is_empty(), "no body, no calls");
        let with_body = m.files[0]
            .fns
            .iter()
            .find(|f| f.name == "with_body")
            .unwrap();
        assert_eq!(with_body.calls.len(), 1);
    }

    #[test]
    fn test_gated_fns_are_marked() {
        let m = model(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { live(); }\n}\n",
        );
        assert!(!m.files[0].fns[0].test);
        let t = m.files[0].fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.test);
    }
}
