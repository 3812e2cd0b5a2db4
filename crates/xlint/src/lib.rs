//! `xlint` — first-party static analysis for this workspace.
//!
//! rustc and clippy enforce the per-file invariants: panic-free library
//! crates, the hash-free hot path, unsafe hygiene and thread and clock
//! confinement (see the root `Cargo.toml` and `clippy.toml`). What they
//! cannot express are invariants over the call graph: `xlint` pins those
//! as `budget-poll` and `lock-discipline`, over a cross-crate model of fns
//! and call edges, beside the token-level `exit-code-registry`. Per-line
//! `// xlint::allow(<rule>): <reason>` escape hatches force every
//! exception to carry a justification.
//!
//! The crate is pure `std` (zero dependencies). See `CONTRIBUTING.md`
//! ("Lint policy") for the rule catalogue and `DESIGN.md` for why each
//! invariant exists.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod source;

use model::Model;
use report::Report;
use rules::apply_allows;
use source::FileContext;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints every workspace source file under `root` and returns the report.
///
/// Coverage is the `src/` tree of each member crate plus the umbrella
/// crate's `src/`. Integration tests, benches, examples and fixtures are
/// deliberately out of scope: the rules police production code. The
/// rules resolve call edges across crates, so the whole set is always
/// analyzed together.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    for member in members {
        collect_rs(&member.join("src"), &mut files)?;
    }

    let mut ctxs: Vec<FileContext> = Vec::with_capacity(files.len());
    for abs in files {
        let rel = abs.strip_prefix(root).unwrap_or(&abs);
        // Normalize separators so the rules' path anchors match on every host.
        let rel = rel.to_string_lossy().replace('\\', "/");
        ctxs.push(FileContext::new(rel, fs::read_to_string(&abs)?));
    }
    Ok(lint_files(ctxs))
}

/// Runs every rule over `ctxs` as one workspace and applies each file's
/// allow directives.
pub fn lint_files(mut ctxs: Vec<FileContext>) -> Report {
    ctxs.sort_by(|a, b| a.path.cmp(&b.path));
    // Each violation is routed back to its file, so one apply_allows pass
    // per file sees every finding there (this keeps unused-allow exact).
    let refs: Vec<&FileContext> = ctxs.iter().collect();
    let model = Model::build(&refs);
    let mut raw = vec![Vec::new(); ctxs.len()];
    for v in semantic::check_workspace(&refs, &model) {
        if let Some(i) = ctxs.iter().position(|c| c.path == v.file) {
            raw[i].push(v);
        }
    }

    let mut violations = Vec::new();
    let mut suppressed = 0usize;
    for (ctx, raw) in ctxs.iter().zip(raw) {
        let (mut v, s) = apply_allows(ctx, raw);
        violations.append(&mut v);
        suppressed += s;
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        checked_files: ctxs.len(),
        suppressed,
        violations,
    }
}

/// Recursively collects `.rs` files under `dir` (no-op if it is absent),
/// in sorted order for deterministic reports.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}
