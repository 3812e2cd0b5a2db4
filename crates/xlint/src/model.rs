//! A lightweight cross-crate item model built on the lexer.
//!
//! The rules in [`semantic`](crate::semantic) need to know *what calls
//! what* across the whole workspace — a loop in
//! `tpminer::search` is only budget-safe because a function three call
//! edges away polls the meter. This module extracts just enough structure
//! to answer those questions, still zero-dependency and token-driven:
//!
//! - **Items**: `fn` definitions (with module path and surrounding `impl`
//!   type), `struct` fields, `enum` variants, `const`/`static` names, and
//!   `use` declarations resolved to leaf aliases.
//! - **Call edges**: every `name(…)` / `.name(…)` site inside a fn body,
//!   resolved *by name* to every workspace fn sharing that name. Name
//!   resolution without types over-approximates, which is the right
//!   direction for a linter: reachability queries may return "reaches"
//!   for a call that dynamically goes elsewhere, but they never miss a
//!   real edge.
//!
//! Test-gated items (`#[cfg(test)]`, `#[test]`) are indexed but marked,
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
    /// Whether the site is a method call (`.name(`) rather than a path
    /// or free-function call.
    pub method: bool,
    /// Whether the argument list is empty (`name()`), which is how the
    /// lock-discipline rule tells a thread `join()` / channel `recv()`
    /// from `Vec::join(sep)` / `Read::read(buf)`.
    pub empty_args: bool,
    /// 1-based source line of the callee token.
    pub line: usize,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Module-qualified name within its file, `impl` type included:
    /// `outer::inner::Type::method`.
    pub qual: String,
    /// Index of the owning file in [`Model::files`].
    pub file: usize,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Code-index range (into `FileContext::code`) of the body, braces
    /// included. Empty for bodiless trait-method signatures.
    pub body: (usize, usize),
    /// Whether the item sits inside a test region.
    pub test: bool,
    /// Call sites inside the body, in source order.
    pub calls: Vec<Call>,
}

/// One named struct field.
#[derive(Debug)]
pub struct FieldItem {
    pub name: String,
    pub line: usize,
    pub public: bool,
}

/// One `struct` item (unit and tuple structs carry no fields).
#[derive(Debug)]
pub struct StructItem {
    pub name: String,
    pub file: usize,
    pub line: usize,
    pub fields: Vec<FieldItem>,
}

/// One `enum` item with its variant names.
#[derive(Debug)]
pub struct EnumItem {
    pub name: String,
    pub file: usize,
    pub line: usize,
    pub variants: Vec<(String, usize)>,
}

/// One `const` or `static` item.
#[derive(Debug)]
pub struct ConstItem {
    pub name: String,
    pub file: usize,
    pub line: usize,
}

/// One leaf of a `use` tree: `use a::b::{c, d as e};` yields aliases
/// `c` (path `a::b::c`) and `e` (path `a::b::d`).
#[derive(Debug, PartialEq, Eq)]
pub struct UseItem {
    /// Name the import is visible as in this file.
    pub alias: String,
    /// Full `::`-separated path segments, alias excluded.
    pub path: Vec<String>,
    pub line: usize,
    /// Whether the use is re-exported (`pub use`).
    pub public: bool,
}

/// Everything the model extracted from one file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Workspace-relative path, mirrored from the [`FileContext`].
    pub path: String,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub enums: Vec<EnumItem>,
    pub consts: Vec<ConstItem>,
    pub uses: Vec<UseItem>,
}

/// The workspace-wide model: per-file items plus a name→fn index used for
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
        for (file_idx, ctx) in ctxs.iter().enumerate() {
            model.files.push(extract_file(ctx, file_idx));
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

    /// The model of the file at `path`, if it was indexed.
    pub fn file(&self, path: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.path == path)
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

/// Token-walk extraction of one file's items.
fn extract_file(ctx: &FileContext, file_idx: usize) -> FileModel {
    let mut out = FileModel {
        path: ctx.path.clone(),
        ..FileModel::default()
    };
    // Scope stack: (brace depth at open, name contributed to the path).
    // `mod x {` and `impl Ty {` push; any other `{` pushes an anonymous
    // frame so depths stay matched.
    let mut scopes: Vec<(i32, Option<String>)> = Vec::new();
    let mut depth = 0i32;
    let code = &ctx.code;
    let mut pos = 0usize;
    while pos < code.len() {
        let ti = code[pos];
        let tok = &ctx.tokens[ti];
        let text = ctx.text(ti);
        match text {
            "{" => {
                depth += 1;
                scopes.push((depth, None));
                pos += 1;
            }
            "}" => {
                while scopes.last().is_some_and(|&(d, _)| d >= depth) {
                    scopes.pop();
                }
                depth -= 1;
                pos += 1;
            }
            "mod" if tok.kind == TokenKind::Ident => {
                // `mod name {` opens a named scope; `mod name;` does not.
                let name = code
                    .get(pos + 1)
                    .map(|&i| ctx.text(i).to_string())
                    .unwrap_or_default();
                if code.get(pos + 2).is_some_and(|&i| ctx.text(i) == "{") {
                    depth += 1;
                    scopes.push((depth, Some(name)));
                    pos += 3;
                } else {
                    pos += 1;
                }
            }
            "impl" if tok.kind == TokenKind::Ident => {
                // `impl<G> Trait for Type {` / `impl Type {`: the scope
                // name is the implemented type — the last path identifier
                // before the opening brace (after `for` when present).
                let mut scan = pos + 1;
                let mut ty: Option<String> = None;
                let mut angle = 0i32;
                while scan < code.len() {
                    let t = ctx.text(code[scan]);
                    match t {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "{" if angle <= 0 => break,
                        ";" if angle <= 0 => break,
                        _ => {
                            if angle <= 0 && ctx.tokens[code[scan]].kind == TokenKind::Ident {
                                if t == "where" {
                                    // Bounds after `where` name types that
                                    // are not the impl target.
                                    break;
                                }
                                if t == "for" {
                                    ty = None; // the trait name was not the type
                                } else {
                                    ty = Some(t.to_string());
                                }
                            }
                        }
                    }
                    scan += 1;
                }
                // Advance to the `{` (or `;`) we stopped near.
                while scan < code.len()
                    && ctx.text(code[scan]) != "{"
                    && ctx.text(code[scan]) != ";"
                {
                    scan += 1;
                }
                if scan < code.len() && ctx.text(code[scan]) == "{" {
                    depth += 1;
                    scopes.push((depth, ty));
                    pos = scan + 1;
                } else {
                    pos = scan.max(pos + 1);
                }
            }
            "fn" if tok.kind == TokenKind::Ident => {
                let Some(&name_ti) = code.get(pos + 1) else {
                    break;
                };
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
                let qual_prefix: Vec<&str> =
                    scopes.iter().filter_map(|(_, n)| n.as_deref()).collect();
                let qual = if qual_prefix.is_empty() {
                    name.clone()
                } else {
                    format!("{}::{}", qual_prefix.join("::"), name)
                };
                let calls = if body.0 < body.1 {
                    extract_calls(ctx, body)
                } else {
                    Vec::new()
                };
                out.fns.push(FnItem {
                    name,
                    qual,
                    file: file_idx,
                    line,
                    body,
                    test: ctx.is_test_line(line),
                    calls,
                });
                // Continue *inside* the body: nested fns and closures keep
                // getting indexed, and scope tracking stays consistent.
                pos = body.0.max(pos + 2).min(code.len());
                if body.0 >= body.1 {
                    pos = scan.min(code.len());
                }
            }
            "struct" if tok.kind == TokenKind::Ident => {
                if let Some(&name_ti) = code.get(pos + 1) {
                    let name = ctx.text(name_ti).to_string();
                    let line = ctx.tokens[name_ti].line;
                    // Only brace-bodied structs carry named fields; skip
                    // generics to find which delimiter follows.
                    let mut scan = pos + 2;
                    let mut angle = 0i32;
                    while scan < code.len() {
                        match ctx.text(code[scan]) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "{" if angle == 0 => break,
                            "(" | ";" if angle == 0 => {
                                scan = code.len();
                                break;
                            }
                            _ => {}
                        }
                        scan += 1;
                    }
                    let mut fields = Vec::new();
                    if scan < code.len() {
                        let close = matching_brace(ctx, scan);
                        fields = extract_fields(ctx, scan, close);
                        out.structs.push(StructItem {
                            name,
                            file: file_idx,
                            line,
                            fields,
                        });
                        pos = close + 1;
                        continue;
                    }
                    out.structs.push(StructItem {
                        name,
                        file: file_idx,
                        line,
                        fields,
                    });
                }
                pos += 1;
            }
            "enum" if tok.kind == TokenKind::Ident => {
                if let Some(&name_ti) = code.get(pos + 1) {
                    let name = ctx.text(name_ti).to_string();
                    let line = ctx.tokens[name_ti].line;
                    let mut scan = pos + 2;
                    let mut angle = 0i32;
                    while scan < code.len() {
                        match ctx.text(code[scan]) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "{" if angle == 0 => break,
                            ";" if angle == 0 => {
                                scan = code.len();
                                break;
                            }
                            _ => {}
                        }
                        scan += 1;
                    }
                    if scan < code.len() {
                        let close = matching_brace(ctx, scan);
                        let variants = extract_variants(ctx, scan, close);
                        out.enums.push(EnumItem {
                            name,
                            file: file_idx,
                            line,
                            variants,
                        });
                        pos = close + 1;
                        continue;
                    }
                }
                pos += 1;
            }
            "const" | "static" if tok.kind == TokenKind::Ident => {
                // `const NAME: …` (skip `const fn` and `const` in pointer
                // types, which are not followed by IDENT `:`).
                let named = code
                    .get(pos + 1)
                    .zip(code.get(pos + 2))
                    .is_some_and(|(&n, &c)| {
                        ctx.tokens[n].kind == TokenKind::Ident
                            && ctx.text(n) != "fn"
                            && ctx.text(c) == ":"
                    });
                if named {
                    let name_ti = code[pos + 1];
                    out.consts.push(ConstItem {
                        name: ctx.text(name_ti).to_string(),
                        file: file_idx,
                        line: ctx.tokens[name_ti].line,
                    });
                }
                pos += 1;
            }
            "use" if tok.kind == TokenKind::Ident => {
                let public = pos > 0 && ctx.text(code[pos - 1]) == "pub";
                let (items, next) = parse_use_tree(ctx, pos + 1, public);
                out.uses.extend(items);
                pos = next;
            }
            _ => pos += 1,
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
        let method = pos > 0 && ctx.text(ctx.code[pos - 1]) == ".";
        let empty_args = pos + 2 < body.1 && ctx.text(ctx.code[pos + 2]) == ")";
        calls.push(Call {
            name: text.to_string(),
            method,
            empty_args,
            line: tok.line,
        });
    }
    calls
}

/// Named fields between a struct's braces: identifiers at nesting depth 1
/// directly followed by `:`.
fn extract_fields(ctx: &FileContext, open: usize, close: usize) -> Vec<FieldItem> {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut pos = open;
    while pos < close {
        let t = ctx.text(ctx.code[pos]);
        match t {
            "{" | "(" | "[" | "<" => depth += 1,
            "}" | ")" | "]" | ">" => depth -= 1,
            _ => {
                let tok = &ctx.tokens[ctx.code[pos]];
                if depth == 1
                    && tok.kind == TokenKind::Ident
                    && pos + 1 < close
                    && ctx.text(ctx.code[pos + 1]) == ":"
                    // Skip `pub(crate)` interior and attribute contents.
                    && t != "pub"
                    && t != "crate"
                {
                    // A field is either at statement start (previous token
                    // `{`, `,`, `]` from an attribute) or preceded by
                    // `pub`/`pub(…)`.
                    let prev = ctx.text(ctx.code[pos - 1]);
                    if matches!(prev, "{" | "," | "]" | ")" | "pub") {
                        let public = prev == "pub" || prev == ")";
                        fields.push(FieldItem {
                            name: t.to_string(),
                            line: tok.line,
                            public,
                        });
                    }
                }
            }
        }
        pos += 1;
    }
    fields
}

/// Variant names between an enum's braces: identifiers at depth 1 at
/// variant-start position.
fn extract_variants(ctx: &FileContext, open: usize, close: usize) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut pos = open;
    while pos < close {
        let t = ctx.text(ctx.code[pos]);
        match t {
            "{" | "(" | "[" | "<" => depth += 1,
            "}" | ")" | "]" | ">" => depth -= 1,
            _ => {
                let tok = &ctx.tokens[ctx.code[pos]];
                if depth == 1 && tok.kind == TokenKind::Ident {
                    let prev = ctx.text(ctx.code[pos - 1]);
                    if matches!(prev, "{" | "," | "]") {
                        variants.push((t.to_string(), tok.line));
                    }
                }
            }
        }
        pos += 1;
    }
    variants
}

/// Parses one `use` declaration starting at the code index after the
/// `use` keyword. Returns the leaf items and the code index after the
/// terminating `;`.
fn parse_use_tree(ctx: &FileContext, start: usize, public: bool) -> (Vec<UseItem>, usize) {
    let mut items = Vec::new();
    let mut pos = start;
    let mut prefix: Vec<Vec<String>> = vec![Vec::new()];
    let mut current: Vec<String> = Vec::new();
    let line = ctx
        .code
        .get(start)
        .map(|&i| ctx.tokens[i].line)
        .unwrap_or(0);

    fn flush(
        items: &mut Vec<UseItem>,
        prefix: &[Vec<String>],
        current: &mut Vec<String>,
        alias: Option<String>,
        line: usize,
        public: bool,
    ) {
        if current.is_empty() {
            return;
        }
        let mut path: Vec<String> = prefix.iter().flatten().cloned().collect();
        path.append(current);
        let last = path.last().cloned().unwrap_or_default();
        let alias = alias.unwrap_or(last);
        // `use x::*;` globs carry no single alias; record them with the
        // `*` alias so callers can still see the glob.
        items.push(UseItem {
            alias,
            path,
            line,
            public,
        });
    }

    while pos < ctx.code.len() {
        let t = ctx.text(ctx.code[pos]).to_string();
        match t.as_str() {
            ";" => {
                flush(&mut items, &prefix, &mut current, None, line, public);
                return (items, pos + 1);
            }
            "{" => {
                prefix.push(std::mem::take(&mut current));
                pos += 1;
            }
            "}" => {
                flush(&mut items, &prefix, &mut current, None, line, public);
                prefix.pop();
                pos += 1;
            }
            "," => {
                flush(&mut items, &prefix, &mut current, None, line, public);
                pos += 1;
            }
            "as" => {
                let alias = ctx.code.get(pos + 1).map(|&i| ctx.text(i).to_string());
                flush(&mut items, &prefix, &mut current, alias, line, public);
                // Skip the alias token; the following `,`/`}`/`;` is
                // handled normally (current is already empty).
                pos += 2;
            }
            ":" => pos += 1,
            _ => {
                if ctx.tokens[ctx.code[pos]].kind == TokenKind::Ident || t == "*" {
                    current.push(t);
                }
                pos += 1;
            }
        }
    }
    flush(&mut items, &prefix, &mut current, None, line, public);
    (items, pos)
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
    fn fns_in_nested_modules_get_qualified_names() {
        let m = model(
            "mod outer {\n    pub mod inner {\n        pub fn leaf() {}\n    }\n    fn mid() {}\n}\nfn top() {}\n",
        );
        let quals: Vec<&str> = m.files[0].fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["outer::inner::leaf", "outer::mid", "top"]);
    }

    #[test]
    fn impl_methods_carry_the_type_name() {
        let m = model(
            "struct Engine { x: u32 }\nimpl Engine {\n    fn run(&self) { self.step(); }\n}\nimpl Iterator for Engine {\n    type Item = u32;\n    fn next(&mut self) -> Option<u32> { None }\n}\n",
        );
        let quals: Vec<&str> = m.files[0].fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["Engine::run", "Engine::next"]);
    }

    #[test]
    fn call_edges_distinguish_methods_and_skip_macros() {
        let m = model(
            "fn f() {\n    helper();\n    self.method(1);\n    println!(\"not a call\");\n    let v = Vec::new();\n}\nfn helper() {}\n",
        );
        let f = &m.files[0].fns[0];
        let names: Vec<(&str, bool)> = f
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.method))
            .collect();
        assert_eq!(names, [("helper", false), ("method", true), ("new", false)]);
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
    fn struct_fields_and_enum_variants_are_extracted() {
        let m = model(
            "pub struct Stats {\n    pub done: u64,\n    started: u64,\n    pub lag: Option<u64>,\n}\npub enum Verb {\n    Create { name: String },\n    Ping,\n    Query(u32),\n}\nstruct Unit;\nstruct Pair(u32, u32);\n",
        );
        let s = &m.files[0].structs[0];
        let fields: Vec<(&str, bool)> = s
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.public))
            .collect();
        assert_eq!(fields, [("done", true), ("started", false), ("lag", true)]);
        let e = &m.files[0].enums[0];
        let variants: Vec<&str> = e.variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(variants, ["Create", "Ping", "Query"]);
        // Unit/tuple structs are indexed without phantom fields.
        assert_eq!(m.files[0].structs.len(), 3);
        assert!(m.files[0].structs[1].fields.is_empty());
        assert!(m.files[0].structs[2].fields.is_empty());
    }

    #[test]
    fn use_trees_resolve_nested_groups_and_renames() {
        let m = model(
            "use std::sync::{Arc, mpsc::{self, Sender as Tx}};\npub use crate::inner::Thing;\nuse std::collections::*;\n",
        );
        let uses = &m.files[0].uses;
        let find = |alias: &str| uses.iter().find(|u| u.alias == alias).unwrap();
        assert_eq!(find("Arc").path, ["std", "sync", "Arc"]);
        assert_eq!(find("Tx").path, ["std", "sync", "mpsc", "Sender"]);
        assert_eq!(find("self").path, ["std", "sync", "mpsc", "self"]);
        let thing = find("Thing");
        assert!(thing.public, "pub use is a re-export");
        assert_eq!(thing.path, ["crate", "inner", "Thing"]);
        assert!(uses.iter().any(|u| u.alias == "*"));
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
        // And the re-export itself is visible to use-resolution queries.
        let reexport = m.files[0]
            .uses
            .iter()
            .find(|u| u.alias == "poll")
            .expect("re-export indexed");
        assert!(reexport.public);
        assert_eq!(reexport.path, ["deep", "poll"]);
    }

    #[test]
    fn consts_and_bodiless_fns_are_indexed() {
        let m = model(
            "pub const LIMIT: usize = 4;\nstatic NAME: &str = \"x\";\ntrait T {\n    fn sig(&self) -> u32;\n    fn with_body(&self) -> u32 { self.sig() }\n}\n",
        );
        let consts: Vec<&str> = m.files[0].consts.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(consts, ["LIMIT", "NAME"]);
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
