//! The rules: invariants that rustc and clippy cannot express, checked
//! over the token streams and the [`Model`]'s call-edge index. Per-file
//! invariants are rustc and clippy lints (root `Cargo.toml` and
//! `clippy.toml`); what a type or an exhaustive match can decide is left
//! to rustc.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `budget-poll` | every loop on a pattern-growth path reaches a `MiningBudget` poll |
//! | `lock-discipline` | no lock guard is live across a channel/join/socket blocking call |
//! | `exit-code-registry` | process exit codes are named constants, not numeric literals |
//!
//! `budget-poll` and `lock-discipline` are name-resolved, not
//! type-resolved: call edges connect every same-named fn in the
//! workspace. That over-approximates reachability,
//! which errs in the safe direction for `budget-poll` (a loop is more
//! easily credited with reaching a poll) and is kept honest for
//! `lock-discipline` by scoping which primitives count as blocking.
//! Violations go through [`apply_allows`](crate::rules::apply_allows),
//! so each can be suppressed by a reasoned `xlint::allow`.
//!
//! The rules need the whole workspace to resolve call edges, so they run
//! from [`run_workspace`](crate::run_workspace).

use crate::lexer::TokenKind;
use crate::model::Model;
use crate::rules::Violation;
use crate::source::FileContext;
use std::collections::HashSet;

/// Files on the mining search/expansion paths: every loop here either
/// drives pattern growth (and must poll the budget) or is bounded
/// per-node bookkeeping (and must not call growth entry points).
const BUDGET_SCOPE: &[&str] = &[
    "crates/tpminer/src/search.rs",
    "crates/tpminer/src/parallel.rs",
    "crates/stream/src/incremental.rs",
    "crates/stream/src/worker.rs",
];

/// Pattern-growth entry points: calling one of these (directly or
/// transitively) means the loop's iteration count scales with the
/// pattern-growth tree, which is exactly what the paper's budget exists
/// to bound.
const GROWTH_FNS: &[&str] = &[
    "expand",
    "make_root",
    "try_grow_root",
    "grow_root",
    "queue_run",
    "mine_sharded",
    "mine_partitions",
    "mine_indexed",
];

/// Budget/cancellation polls: reaching one of these each iteration keeps
/// the loop governed.
const POLL_FNS: &[&str] = &[
    "on_node",
    "charge_node",
    "is_cancelled",
    "exceeded",
    "stopped",
];

/// Budget-carrying entry points: these take (or clone) a `MiningBudget`
/// into every unit of work they schedule, so reaching one satisfies the
/// poll requirement. `ShardPool::mine_sharded` is not listed: it calls
/// `mine_partitions` directly, so the call graph credits it.
const BUDGETED_ENTRYPOINTS: &[&str] = &["mine_partitions", "mine_indexed"];

/// Crates whose guards the lock-discipline rule watches.
const LOCK_SCOPE_PREFIXES: &[&str] = &["crates/stream/src/", "crates/server/src/"];

/// Blocking primitives of any arity: channel sends, socket/connection
/// I/O, sleeps and waits. `try_*` variants are different identifiers and
/// deliberately absent — non-blocking attempts under a guard are fine.
const BLOCKING_ANY_ARITY: &[&str] = &[
    "send",
    "recv_timeout",
    "read_line",
    "write_all",
    "write_fmt",
    "flush",
    "sleep",
    "wait",
    "wait_timeout",
    "park",
    "accept",
];

/// Blocking primitives only when called with no arguments: `recv()` is a
/// channel receive but `recv(buf)` would be socket API; `join()` is a
/// thread join but `join(sep)` is `slice::join`.
const BLOCKING_ZERO_ARITY: &[&str] = &["recv", "join"];

/// The one module allowed to own numeric exit codes.
const EXIT_REGISTRY_FILE: &str = "crates/cli/src/exit.rs";

/// Runs every semantic rule over the analyzed file set.
pub fn check_workspace(ctxs: &[&FileContext], model: &Model) -> Vec<Violation> {
    let mut out = Vec::new();
    budget_poll(ctxs, model, &mut out);
    lock_discipline(ctxs, model, &mut out);
    exit_code_registry(ctxs, &mut out);
    out
}

fn violation(ctx: &FileContext, line: usize, rule: &'static str, message: String) -> Violation {
    Violation {
        file: ctx.path.clone(),
        line,
        rule,
        message,
    }
}

/// A loop found in a file: the keyword token's line plus the code-index
/// region from the keyword through the body's closing brace (the header
/// is included so `while !engine.stopped()` counts its condition).
struct Loop {
    line: usize,
    region: (usize, usize),
}

/// Finds every `for`/`while`/`loop` in non-test code. The body is the
/// first `{` at bracket depth 0 after the keyword (Rust forbids bare
/// struct literals in loop headers, so that brace is the body).
fn find_loops(ctx: &FileContext) -> Vec<Loop> {
    let mut out = Vec::new();
    let code = &ctx.code;
    for pos in 0..code.len() {
        let ti = code[pos];
        let tok = &ctx.tokens[ti];
        if tok.kind != TokenKind::Ident || ctx.is_test_line(tok.line) {
            continue;
        }
        if !matches!(ctx.text(ti), "for" | "while" | "loop") {
            continue;
        }
        // `for` in `impl Trait for Type` and lifetime bounds: a loop
        // keyword is preceded by start-of-statement punctuation, never by
        // an identifier or `>`.
        if pos > 0 {
            let prev = &ctx.tokens[code[pos - 1]];
            if prev.kind == TokenKind::Ident && !matches!(ctx.text(code[pos - 1]), "{" | "}" | ";")
            {
                let p = ctx.text(code[pos - 1]);
                if !matches!(p, "else") {
                    // `impl X for Y`, `label: for`, `&for<'a>` bounds all
                    // have an ident/`>` right before; real loops follow
                    // `{`, `}`, `;`, `=>`, `else`, or a label `:`.
                    continue;
                }
            }
            if ctx.text(code[pos - 1]) == ">" {
                continue;
            }
        }
        let mut depth = 0i32;
        let mut open = None;
        for (scan, &ti) in code.iter().enumerate().skip(pos + 1) {
            match ctx.text(ti) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(scan);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let mut depth = 0i32;
        let mut close = code.len().saturating_sub(1);
        for (scan, &ti) in code.iter().enumerate().skip(open) {
            match ctx.text(ti) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = scan;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(Loop {
            line: tok.line,
            region: (pos, close + 1),
        });
    }
    out
}

/// Call names (`name(` / `.name(`, macros excluded) within a code region.
fn region_calls(ctx: &FileContext, region: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    for pos in region.0..region.1 {
        let ti = ctx.code[pos];
        if ctx.tokens[ti].kind != TokenKind::Ident {
            continue;
        }
        let next_is_paren = pos + 1 < region.1 && ctx.text(ctx.code[pos + 1]) == "(";
        if !next_is_paren {
            continue;
        }
        if pos > 0 && ctx.text(ctx.code[pos - 1]) == "fn" {
            continue;
        }
        out.push(ctx.text(ti).to_string());
    }
    out
}

/// `budget-poll`: in the mining-path files, a loop that (transitively)
/// calls a pattern-growth entry point must (transitively) reach a
/// `MiningBudget` poll or cancellation check each iteration. Bounded
/// per-node loops never call growth entry points and are exempt; growth
/// loops normally inherit their poll from `expand`'s `on_node` — this
/// fires when someone adds a growth path that bypasses the meter.
fn budget_poll(ctxs: &[&FileContext], model: &Model, out: &mut Vec<Violation>) {
    for ctx in ctxs {
        if !BUDGET_SCOPE.contains(&ctx.path.as_str()) {
            continue;
        }
        for lp in find_loops(ctx) {
            let calls = region_calls(ctx, lp.region);
            let growth: Vec<&String> = calls
                .iter()
                .filter(|c| GROWTH_FNS.contains(&c.as_str()))
                .collect();
            let drives_growth =
                !growth.is_empty() || model.reaches(&calls, |n| GROWTH_FNS.contains(&n));
            if !drives_growth {
                continue;
            }
            let polls = calls.iter().any(|c| is_poll(c))
                || stop_field_poll(ctx, lp.region)
                || model.reaches(&calls, is_poll);
            if !polls {
                let named = growth
                    .first()
                    .map(|g| g.as_str())
                    .unwrap_or("a growth path");
                out.push(violation(
                    ctx,
                    lp.line,
                    "budget-poll",
                    format!(
                        "loop drives pattern growth via `{named}` but never reaches a \
                         MiningBudget poll (on_node/is_cancelled/stopped); \
                         unbudgeted growth loops are how the pattern tree blows up"
                    ),
                ));
            }
        }
    }
}

/// Whether reaching `name` satisfies the poll requirement.
fn is_poll(name: &str) -> bool {
    POLL_FNS.contains(&name) || BUDGETED_ENTRYPOINTS.contains(&name)
}

/// `stop.is_some()` / `stop.take()` / `stop.is_none()` inside the region:
/// the engine's inline cancellation checks, which poll without a call
/// into the budget module.
fn stop_field_poll(ctx: &FileContext, region: (usize, usize)) -> bool {
    for pos in region.0..region.1.saturating_sub(2) {
        if ctx.text(ctx.code[pos]) == "stop"
            && ctx.text(ctx.code[pos + 1]) == "."
            && matches!(ctx.text(ctx.code[pos + 2]), "is_some" | "is_none" | "take")
        {
            return true;
        }
    }
    false
}

/// `lock-discipline`: in `stream`/`server`, a `let` binding whose
/// initializer takes a lock (`.lock()` / `.read()` / `.write()`, empty
/// parens) must not stay live across a blocking call — channel
/// send/recv, thread join, socket I/O, sleep/wait — whether the call is
/// direct or through a helper that blocks transitively. Guard liveness
/// ends at the enclosing block's `}` or an explicit `drop(guard)`.
fn lock_discipline(ctxs: &[&FileContext], model: &Model, out: &mut Vec<Violation>) {
    // Fn names that may transitively hit a blocking primitive. Durability
    // fns are excluded as direct sources: WAL flushes are disk I/O, which
    // this rule's deadlock scope (channels/joins/sockets) does not cover.
    let may_block = model.may_reach_set(|file, call| {
        !file.path.starts_with("crates/durability/")
            && is_blocking_name(&call.name, call.empty_args)
    });
    for ctx in ctxs {
        if !LOCK_SCOPE_PREFIXES.iter().any(|p| ctx.path.starts_with(p)) {
            continue;
        }
        for guard in find_guards(ctx) {
            scan_guard_region(ctx, &guard, &may_block, out);
        }
    }
}

fn is_blocking_name(name: &str, empty_args: bool) -> bool {
    BLOCKING_ANY_ARITY.contains(&name) || (empty_args && BLOCKING_ZERO_ARITY.contains(&name))
}

/// A live lock guard: its name, the line it was acquired on, and the
/// code-index where its liveness region starts (just past the `;`).
struct Guard {
    name: String,
    line: usize,
    start: usize,
}

fn find_guards(ctx: &FileContext) -> Vec<Guard> {
    let mut out = Vec::new();
    let code = &ctx.code;
    for pos in 0..code.len() {
        let ti = code[pos];
        if ctx.tokens[ti].kind != TokenKind::Ident
            || ctx.text(ti) != "let"
            || ctx.is_test_line(ctx.tokens[ti].line)
        {
            continue;
        }
        // `let [mut] NAME = …;` — destructuring patterns are skipped (a
        // heuristic the rule documents: guards bound through patterns are
        // rare and reviewable by eye).
        let mut at = pos + 1;
        if code.get(at).is_some_and(|&i| ctx.text(i) == "mut") {
            at += 1;
        }
        let Some(&name_ti) = code.get(at) else {
            continue;
        };
        if ctx.tokens[name_ti].kind != TokenKind::Ident {
            continue;
        }
        let name = ctx.text(name_ti).to_string();
        if code.get(at + 1).map(|&i| ctx.text(i)) != Some("=") {
            continue;
        }
        // Initializer runs to the `;` at bracket depth 0.
        let mut depth = 0i32;
        let mut end = None;
        for (scan, &ti) in code.iter().enumerate().skip(at + 2) {
            match ctx.text(ti) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => {
                    end = Some(scan);
                    break;
                }
                _ => {}
            }
        }
        let Some(end) = end else { continue };
        // The lock call must sit outside any `{ … }` inside the
        // initializer: in `let x = { let g = m.lock(); g.len() };` the
        // guard lives and dies inside the block — `x` holds no lock.
        let mut brace = 0i32;
        let mut takes_lock = false;
        for p in at + 2..end.saturating_sub(2) {
            match ctx.text(code[p]) {
                "{" => brace += 1,
                "}" => brace -= 1,
                "." if brace == 0
                    && matches!(ctx.text(code[p + 1]), "lock" | "read" | "write")
                    && ctx.text(code[p + 2]) == "("
                    && code.get(p + 3).is_some_and(|&i| ctx.text(i) == ")") =>
                {
                    takes_lock = true;
                }
                _ => {}
            }
        }
        if takes_lock {
            out.push(Guard {
                name,
                line: ctx.tokens[name_ti].line,
                start: end + 1,
            });
        }
    }
    out
}

/// Walks the guard's liveness region flagging blocking calls. The region
/// ends when the enclosing block closes (brace depth drops below the
/// binding's level) or at `drop(guard)`.
fn scan_guard_region(
    ctx: &FileContext,
    guard: &Guard,
    may_block: &HashSet<String>,
    out: &mut Vec<Violation>,
) {
    let code = &ctx.code;
    let mut depth = 0i32;
    let mut pos = guard.start;
    while pos < code.len() {
        let text = ctx.text(code[pos]);
        match text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return;
                }
            }
            "drop"
                if code.get(pos + 1).is_some_and(|&i| ctx.text(i) == "(")
                    && code
                        .get(pos + 2)
                        .is_some_and(|&i| ctx.text(i) == guard.name)
                    && code.get(pos + 3).is_some_and(|&i| ctx.text(i) == ")") =>
            {
                return;
            }
            _ => {
                let ti = code[pos];
                let tok = &ctx.tokens[ti];
                if tok.kind == TokenKind::Ident
                    && code.get(pos + 1).is_some_and(|&i| ctx.text(i) == "(")
                    && !ctx.is_test_line(tok.line)
                {
                    let empty = code.get(pos + 2).is_some_and(|&i| ctx.text(i) == ")");
                    let blocking = is_blocking_name(text, empty) || may_block.contains(text);
                    if blocking {
                        out.push(violation(
                            ctx,
                            tok.line,
                            "lock-discipline",
                            format!(
                                "guard `{}` (acquired on line {}) is live across blocking \
                                 call `{}()`; clone what you need, drop the guard, then \
                                 block — a held lock across channel/join/socket ops is \
                                 this codebase's deadlock shape",
                                guard.name, guard.line, text
                            ),
                        ));
                    }
                }
            }
        }
        pos += 1;
    }
}

/// `exit-code-registry`: numeric process exits (`process::exit(2)`,
/// `ExitCode::from(2)`) are banned everywhere but the registry module —
/// codes must be named constants so `cli/src/exit.rs` stays the single
/// source of truth. (rustc already rejects an `exit::NAME` that the
/// registry does not define.)
fn exit_code_registry(ctxs: &[&FileContext], out: &mut Vec<Violation>) {
    for ctx in ctxs {
        if ctx.path == EXIT_REGISTRY_FILE {
            continue;
        }
        let code = &ctx.code;
        for pos in 0..code.len() {
            let ti = code[pos];
            let tok = &ctx.tokens[ti];
            if tok.kind != TokenKind::Ident || ctx.is_test_line(tok.line) {
                continue;
            }
            match ctx.text(ti) {
                // `exit ( <num> )` — bare or `process::exit`.
                "exit" if is_numeric_call(ctx, pos) => {
                    out.push(violation(
                        ctx,
                        tok.line,
                        "exit-code-registry",
                        "process exit with a numeric literal; use the named constants \
                         from cli/src/exit.rs (or a local constant mirroring that \
                         registry in crates that cannot depend on the CLI)"
                            .to_string(),
                    ));
                }
                // `ExitCode :: from ( <num> )`.
                "from"
                    if pos >= 3
                        && ctx.text(code[pos - 1]) == ":"
                        && ctx.text(code[pos - 2]) == ":"
                        && ctx.text(code[pos - 3]) == "ExitCode"
                        && is_numeric_call(ctx, pos) =>
                {
                    out.push(violation(
                        ctx,
                        tok.line,
                        "exit-code-registry",
                        "ExitCode::from with a numeric literal; name the code after \
                         the cli/src/exit.rs registry so every exit is greppable"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// `<ident at pos> ( <Num> )`.
fn is_numeric_call(ctx: &FileContext, pos: usize) -> bool {
    let code = &ctx.code;
    pos + 3 < code.len()
        && ctx.text(code[pos + 1]) == "("
        && ctx.tokens[code[pos + 2]].kind == TokenKind::Num
        && ctx.text(code[pos + 3]) == ")"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::source::FileContext;

    fn check(files: &[(&str, &str)]) -> Vec<Violation> {
        let ctxs: Vec<FileContext> = files
            .iter()
            .map(|(p, s)| FileContext::new((*p).into(), (*s).into()))
            .collect();
        let refs: Vec<&FileContext> = ctxs.iter().collect();
        let model = Model::build(&refs);
        check_workspace(&refs, &model)
    }

    #[test]
    fn budget_poll_flags_unpolled_growth_loops_and_passes_polled_ones() {
        let v = check(
            &[(
                "crates/tpminer/src/search.rs",
                "impl Engine {\n\
                 fn bad(&mut self) {\n    loop {\n        self.expand_all();\n    }\n}\n\
                 fn good(&mut self) {\n    loop {\n        self.meter.on_node();\n        self.expand_all();\n    }\n}\n\
                 fn expand_all(&mut self) { self.expand(0); }\n\
                 fn expand(&mut self, _n: u32) {}\n\
                 fn bookkeeping(&self) { for _x in 0..3 { self.tally(); } }\n\
                 fn tally(&self) {}\n\
                 }\n",
            )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "budget-poll");
        assert_eq!(v[0].line, 3, "the unpolled loop only");
    }

    #[test]
    fn budget_poll_credits_transitive_polls_and_stop_checks() {
        let v = check(
            &[(
                "crates/tpminer/src/parallel.rs",
                "impl Miner {\n\
                 fn run(&mut self) {\n    while self.stop.is_none() {\n        self.try_grow_root(1);\n    }\n}\n\
                 fn deep(&mut self) {\n    loop {\n        self.step();\n    }\n}\n\
                 fn step(&mut self) { self.try_grow_root(2); self.meter.exceeded(); }\n\
                 fn try_grow_root(&mut self, _r: u32) {}\n\
                 }\n",
            )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn budget_poll_ignores_out_of_scope_files_and_test_code() {
        let v = check(
            &[
                (
                    "crates/stream/src/window.rs",
                    "fn f(e: &mut E) { loop { e.expand(); } }\n",
                ),
                (
                    "crates/tpminer/src/search.rs",
                    "#[cfg(test)]\nmod tests {\n    fn t(e: &mut E) { loop { e.expand(); } }\n}\nfn expand() {}\n",
                ),
            ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_discipline_flags_guard_across_send_and_transitive_blocks() {
        let v = check(
            &[(
                "crates/server/src/session.rs",
                "impl S {\n\
                 fn direct(&self) {\n    let guard = self.state.lock();\n    self.tx.send(1);\n    guard.touch();\n}\n\
                 fn indirect(&self) {\n    let guard = self.state.lock();\n    self.helper();\n}\n\
                 fn helper(&self) { self.tx.send(2); }\n\
                 fn fine(&self) {\n    let guard = self.state.lock();\n    let n = guard.len();\n    drop(guard);\n    self.tx.send(n);\n}\n\
                 fn scoped(&self) {\n    { let guard = self.state.lock(); guard.touch(); }\n    self.tx.send(3);\n}\n\
                 }\n",
            )]);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(
            v.iter().filter(|x| x.rule == "lock-discipline").count(),
            2,
            "{v:?}"
        );
        assert_eq!(
            lines,
            [4, 9],
            "direct send + transitive helper, not the dropped/scoped ones"
        );
    }

    #[test]
    fn lock_discipline_ignores_block_scoped_guards_in_initializers() {
        // `let job = { let g = m.lock(); … };` binds the block's *result*;
        // the guard died at the inner `}`, so blocking afterwards is the
        // recommended pattern, not a violation.
        let v = check(
            &[(
                "crates/server/src/session.rs",
                "impl S {\nfn sync(&self) {\n    let job = {\n        let mut guard = self.state.lock();\n        guard.freeze()\n    };\n    self.tx.send(job);\n}\n}\n",
            )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_discipline_permits_try_variants_and_nonempty_read_write() {
        let v = check(
            &[(
                "crates/stream/src/snapshot.rs",
                "fn publish(&self) {\n    let subs = self.subs.lock();\n    for s in subs.iter() { s.tx.try_send(1); }\n}\n\
                 fn io(sock: &mut T, buf: &mut [u8]) {\n    let n = sock.read(buf);\n    let m = sock.write(buf);\n    sock.flush();\n}\n",
            )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_discipline_catches_zero_arg_recv_and_join_only() {
        let v = check(
            &[(
                "crates/stream/src/worker.rs",
                "fn bad(&self) {\n    let g = self.m.lock();\n    let _ = self.rx.recv();\n    let _ = self.h.join();\n    g.touch();\n}\n\
                 fn fine(&self, parts: &[String]) {\n    let g = self.m.lock();\n    let _ = parts.join(\", \");\n    g.touch();\n}\n",
            )]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "lock-discipline"));
    }

    #[test]
    fn exit_code_registry_flags_numeric_exits() {
        let v = check(&[
            (
                "crates/cli/src/exit.rs",
                "pub const SUCCESS: u8 = 0;\npub const USAGE: u8 = 2;\n",
            ),
            (
                "crates/cli/src/main.rs",
                "fn a() { std::process::exit(2); }\n\
                     fn b() -> ExitCode { ExitCode::from(3) }\n\
                     fn c() { std::process::exit(i32::from(exit::USAGE)); }\n",
            ),
        ]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "exit-code-registry"));
        assert!(v.iter().any(|x| x.line == 1), "numeric process::exit");
        assert!(v.iter().any(|x| x.line == 2), "numeric ExitCode::from");
    }

    #[test]
    fn exit_code_registry_is_quiet_in_the_registry_and_tests() {
        let v = check(&[
            (
                "crates/cli/src/exit.rs",
                "pub const SUCCESS: u8 = 0;\nfn die() { std::process::exit(0); }\n",
            ),
            (
                "crates/cli/src/main.rs",
                "#[cfg(test)]\nmod tests {\n    fn t() { std::process::exit(7); }\n}\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
