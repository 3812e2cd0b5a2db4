//! `ptpminer-cli` — command-line interface to the P-TPMiner system.
//!
//! ```text
//! ptpminer-cli generate --sequences 1000 --symbols 100 --seed 7 --out data.txt
//! ptpminer-cli stats data.txt
//! ptpminer-cli mine data.txt --min-support 0.1 --closed
//! ptpminer-cli mine data.txt --top-k 20
//! ptpminer-cli mine-prob data.csv --min-esup 0.1
//! ```
//!
//! Input formats are auto-detected: `.csv` files use the long format
//! (`sequence,symbol,start,end[,probability]`); anything else uses the
//! native text format (one sequence per line; see `datasets::io`).
//!
//! # Degraded operation
//!
//! `mine` and `mine-prob` accept `--timeout SECS` and `--max-nodes N`, and
//! Ctrl-C requests a cooperative stop instead of killing the process. In
//! all three cases the command prints the **sound partial result** computed
//! so far (every reported support is exact; only completeness is lost) and
//! signals the truncation through its exit code:
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0    | complete result |
//! | 2    | usage error |
//! | 3    | budget exhausted (deadline or node cap) — partial result |
//! | 4    | a worker thread failed — surviving partitions reported |
//! | 5    | durability degraded — WAL stopped accepting writes (or a recovered log was corrupt); the in-memory result is complete |
//! | 130  | interrupted by Ctrl-C — partial result |

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "a command-line tool: it prints, and may stop on a broken invariant"
)]

mod args;
mod client_cmd;
mod exit;
mod history_cmd;
mod recover_cmd;
mod serve_cmd;
mod sigint;
mod stats_json;
mod stream_cmd;

use args::Parsed;
use interval_core::json::Object;
use interval_core::{IntervalDatabase, SymbolTable, UncertainDatabase};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tpminer::{
    closed_patterns, maximal_patterns, mine_top_k_budgeted, MinerConfig, MiningBudget,
    ParallelTpMiner, ProbabilisticConfig, ProbabilisticMiner, Termination, TopKConfig,
};

const USAGE: &str = "\
usage: ptpminer-cli <command> [options]

commands:
  generate   produce a QUEST-style synthetic dataset
             --sequences N --intervals C --symbols N --patterns N --seed S
             --uncertain  --format text|csv  --out FILE (stdout otherwise)
  stats      summarize a dataset
             <file> [--json]
  mine       mine frequent temporal patterns
             <file> --min-support FRAC | --abs-support N | --top-k K
             [--max-arity K] [--window W] [--gap G] [--closed] [--maximal]
             [--rules CONF] [--explain] [--json] [--stats]
             [--timeout SECS] [--max-nodes N]
             [--threads N]  (default 1; 0 = every core)
  mine-prob  mine probabilistic patterns from uncertain data
             <file> --min-esup FRAC [--json] [--timeout SECS] [--max-nodes N]
  stream     tail interval events from a file (or `-` for stdin) and keep
             the pattern set continuously mined over a sliding window
             <file|-> --window W  --min-support FRAC | --abs-support N
             [--refresh-every N | --max-lag T] [--max-arity K] [--gap G]
             [--refresh-workers N]  (refreshes mine on N threads in the
             background while ingestion continues)
             [--timeout SECS] [--json] [--stats-json]
             [--wal-dir DIR [--fsync always|epoch|never]]  (write-ahead log
             every event before ingesting it; recover after a crash with
             `recover DIR`)
             [--segment-dir DIR [--segment-bytes N]]  (seal evicted
             intervals into cold segment files; re-mine any past range
             with `history DIR`)
  history    re-mine a historical time range from a segment directory
             <segment-dir> --from T1 --to T2
             [--min-support FRAC | --abs-support N]  (default: all
             patterns with support >= 1)  [--max-arity K] [--gap G]
             [--threads N] [--timeout SECS] [--max-nodes N] [--json]
  recover    rebuild a crashed stream's window from its write-ahead log
             <wal-dir> --window W | --verify  (scan integrity only)
             [--min-support FRAC | --abs-support N]  (also mine the
             recovered window)  [--max-arity K] [--gap G] [--threads N]
             [--json]
  serve      run the multi-tenant pattern-mining service (docs/SERVER.md)
             [--addr HOST:PORT] [--wal-root DIR [--fsync always|epoch|never]]
             [--segment-dir DIR]  (per-stream cold segment stores; enables
             the HISTORY wire verb, see docs/STORAGE.md)
             [--refresh-workers N] [--max-lag T]  (every stream's refresh
             threads and trigger)  [--threads N]  (HISTORY mines only)
             [--port-file PATH] [--stats-json]
             streams are CREATEd over the wire; SIGINT or SHUTDOWN drains
             every stream gracefully (WAL flushed, final refresh folded in)
  client     script the service protocol over one connection
             --addr HOST:PORT [script|-]  (commands from file or stdin;
             responses on stdout; exit 2 if any command got ERR)

exit codes:
  0 complete   2 usage error   3 budget exhausted (partial result)
  4 worker failed (partial result)   130 interrupted (partial result)
  5 durability degraded (WAL failed or corrupt; in-memory result complete)
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(exit::USAGE)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    if parsed.flag("help") || parsed.command.is_empty() {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    match parsed.command.as_str() {
        "generate" => {
            parsed.expect_options(&[
                "sequences",
                "intervals",
                "symbols",
                "patterns",
                "seed",
                "uncertain",
                "format",
                "out",
            ])?;
            generate(&parsed).map(|()| ExitCode::SUCCESS)
        }
        "stats" => {
            parsed.expect_options(&["json"])?;
            stats(&parsed).map(|()| ExitCode::SUCCESS)
        }
        "mine" => {
            parsed.expect_options(&[
                "min-support",
                "abs-support",
                "max-arity",
                "window",
                "gap",
                "closed",
                "maximal",
                "top-k",
                "rules",
                "explain",
                "json",
                "stats",
                "timeout",
                "max-nodes",
                "threads",
            ])?;
            mine(&parsed)
        }
        "mine-prob" => {
            parsed.expect_options(&["min-esup", "json", "timeout", "max-nodes"])?;
            mine_prob(&parsed)
        }
        "stream" => {
            parsed.expect_options(stream_cmd::OPTIONS)?;
            stream_cmd::run(&parsed)
        }
        "history" => {
            parsed.expect_options(history_cmd::OPTIONS)?;
            history_cmd::run(&parsed)
        }
        "recover" => {
            parsed.expect_options(recover_cmd::OPTIONS)?;
            recover_cmd::run(&parsed)
        }
        "serve" => {
            parsed.expect_options(serve_cmd::OPTIONS)?;
            serve_cmd::run(&parsed)
        }
        "client" => {
            parsed.expect_options(client_cmd::OPTIONS)?;
            client_cmd::run(&parsed)
        }
        other => {
            let mut message = format!("unknown command `{other}`");
            if let Some(suggestion) = args::suggest_command(other) {
                message.push_str(&format!(" (did you mean `{suggestion}`?)"));
            }
            Err(message)
        }
    }
}

/// `--timeout SECS` as a duration, `None` when it is not given.
fn timeout_from(p: &Parsed) -> Result<Option<Duration>, String> {
    p.opt_num::<f64>("timeout")?
        .map(|secs| {
            if (0.0..=1e15).contains(&secs) {
                Ok(Duration::from_secs_f64(secs))
            } else {
                Err(format!(
                    "--timeout: `{secs}` is not a usable number of seconds"
                ))
            }
        })
        .transpose()
}

/// Builds the run's resource budget from `--timeout` / `--max-nodes` and
/// wires in the Ctrl-C cancellation token.
fn budget_from(p: &Parsed) -> Result<MiningBudget, String> {
    let mut budget = MiningBudget::unlimited().with_token(sigint::install());
    if let Some(timeout) = timeout_from(p)? {
        budget = budget.with_timeout(timeout);
    }
    if let Some(n) = p.opt_num::<u64>("max-nodes")? {
        budget = budget.with_max_nodes(n);
    }
    Ok(budget)
}

/// Dumps the full work-counter block behind `mine --stats`: search effort,
/// pruning effectiveness, and the allocation proxies of the flat search
/// core (live-arena high-water mark, recycled-buffer hit count).
fn report_miner_stats(stats: &tpminer::MinerStats) {
    eprintln!("miner stats:");
    eprintln!("  nodes explored        {}", stats.nodes_explored);
    eprintln!("  patterns emitted      {}", stats.patterns_emitted);
    eprintln!("  candidates counted    {}", stats.candidates_counted);
    eprintln!("  states created        {}", stats.states_created);
    eprintln!("  peak node states      {}", stats.peak_node_states);
    eprintln!("  states cut (horizon)  {}", stats.states_pruned_dead);
    eprintln!("  children infrequent   {}", stats.children_infrequent);
    eprintln!("  exts pruned (pair)    {}", stats.exts_pruned_pair);
    eprintln!("  exts pruned (symbol)  {}", stats.exts_pruned_symbol);
    eprintln!("  frontier cap hits     {}", stats.frontier_cap_hits);
    eprintln!("  arena peak bytes      {}", stats.arena_peak_bytes);
    eprintln!("  scratch reuse hits    {}", stats.scratch_reuse_hits);
}

/// Tells the user (on stderr) that the printed result is partial.
fn report_truncation(termination: &Termination) {
    if !termination.is_complete() {
        eprintln!(
            "note: {termination} — partial result: reported supports are exact, \
             but the pattern set may be incomplete"
        );
    }
}

fn load_database(path: &str) -> Result<IntervalDatabase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let db = if Path::new(path).extension().is_some_and(|e| e == "csv") {
        datasets::csv::read_long_csv(&text)
    } else {
        datasets::io::read_database(&text)
    };
    db.map_err(|e| format!("{path}: {e}"))
}

fn load_uncertain(path: &str) -> Result<UncertainDatabase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let db = if Path::new(path).extension().is_some_and(|e| e == "csv") {
        datasets::csv::read_long_csv_uncertain(&text)
    } else {
        datasets::io::read_uncertain_database(&text)
    };
    db.map_err(|e| format!("{path}: {e}"))
}

fn generate(p: &Parsed) -> Result<(), String> {
    let config = synthgen::QuestConfig::small()
        .sequences(p.num("sequences", 1_000usize)?)
        .intervals_per_sequence(p.num("intervals", 8.0f64)?)
        .symbols(p.num("symbols", 100usize)?)
        .seed(p.num("seed", 1u64)?);
    let config = synthgen::QuestConfig {
        num_potential_patterns: p.num("patterns", 20usize)?,
        ..config
    };
    let generator = synthgen::QuestGenerator::new(config);
    let format = p.get("format").unwrap_or("text");
    let output = if p.flag("uncertain") {
        let udb = generator.generate_uncertain(&synthgen::UncertaintyConfig::default());
        match format {
            "text" => datasets::io::write_uncertain_database(&udb),
            other => return Err(format!("--format {other} not supported with --uncertain")),
        }
    } else {
        let db = generator.generate();
        match format {
            "text" => datasets::io::write_database(&db),
            "csv" => datasets::csv::write_long_csv(&db),
            other => return Err(format!("unknown --format `{other}`")),
        }
    };
    match p.get("out") {
        Some(path) => std::fs::write(path, output).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{output}"),
    }
    eprintln!("generated {}", config.name());
    Ok(())
}

fn stats(p: &Parsed) -> Result<(), String> {
    let db = load_database(p.input()?)?;
    let profile = datasets::DatasetProfile::of(&db);
    let text = if p.flag("json") {
        Object::default()
            .member("sequences", profile.sequences)
            .member("intervals", profile.intervals)
            .member("used_symbols", profile.used_symbols)
            .member("seq_len", profile.seq_len)
            .member("duration", profile.duration)
            .member("overlap_density", profile.overlap_density)
            .member("top_symbols", profile.top_symbols.as_slice())
            .finish()
    } else {
        profile.to_string()
    };
    emit_lines(text.lines().map(str::to_owned))
}

fn mine(p: &Parsed) -> Result<ExitCode, String> {
    let db = load_database(p.input()?)?;
    let mut config = MinerConfig::default();
    if let Some(k) = p.opt_num::<usize>("max-arity")? {
        config = config.max_arity(k);
    }
    if let Some(w) = p.opt_num::<i64>("window")? {
        config = config.max_window(w);
    }
    if let Some(g) = p.opt_num::<i64>("gap")? {
        config = config.max_gap(g);
    }
    let budget = budget_from(p)?;

    if let Some(k) = p.opt_num::<usize>("top-k")? {
        if let Some(option) = ["min-support", "abs-support"]
            .into_iter()
            .find(|&option| p.get(option).is_some())
        {
            return Err(format!(
                "--top-k ranks patterns by support and takes no threshold: drop --{option}"
            ));
        }
        let (top, termination) = mine_top_k_budgeted(&db, TopKConfig { k, base: config }, budget);
        report_truncation(&termination);
        render(p, db.symbols(), &top, "top-k")?;
        return Ok(exit::from_termination(&termination));
    }

    config.min_support = stream_cmd::support_from(p)?
        .ok_or("pass --min-support FRAC or --abs-support N")?
        .absolute_for(db.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "`mine` reports how long the run took"
    )]
    let started = Instant::now();
    let result = ParallelTpMiner::new(config, p.num("threads", 1)?)
        .with_budget(budget)
        .mine(&db);
    eprintln!(
        "mined {} patterns in {:?} ({} nodes explored)",
        result.len(),
        started.elapsed(),
        result.stats().nodes_explored
    );
    if p.flag("stats") {
        report_miner_stats(result.stats());
    }
    report_truncation(result.termination());

    if let Some(min_confidence) = p.opt_num::<f64>("rules")? {
        let rules =
            tpminer::generate_rules(result.patterns(), &tpminer::RuleConfig { min_confidence });
        emit_lines(
            std::iter::once(format!(
                "{} rules at confidence >= {min_confidence}",
                rules.len()
            ))
            .chain(
                rules
                    .iter()
                    .map(|r| format!("  {}", r.display(db.symbols()))),
            ),
        )?;
        return Ok(exit::from_termination(result.termination()));
    }
    if (p.flag("maximal") || p.flag("closed")) && !result.is_exhaustive() {
        eprintln!(
            "warning: --closed/--maximal filter a *complete* frequent set; \
             on this partial result the labels may be wrong (a missing \
             super-pattern cannot subsume anything)"
        );
    }
    let patterns: Vec<tpminer::FrequentPattern> = if p.flag("maximal") {
        maximal_patterns(result.patterns())
    } else if p.flag("closed") {
        closed_patterns(result.patterns())
    } else {
        result.patterns().to_vec()
    };
    let kind = if p.flag("maximal") {
        "maximal"
    } else if p.flag("closed") {
        "closed"
    } else {
        "frequent"
    };
    render(p, db.symbols(), &patterns, kind)?;

    if p.flag("explain") {
        explain(&db, &patterns)?;
    }
    Ok(exit::from_termination(result.termination()))
}

/// Prints, for the largest pattern found, an ASCII timeline and one concrete
/// witness embedding from the first supporting sequence.
fn explain(db: &IntervalDatabase, patterns: &[tpminer::FrequentPattern]) -> Result<(), String> {
    let Some(best) = patterns
        .iter()
        .max_by_key(|p| (p.pattern.arity(), p.support))
    else {
        return Ok(());
    };
    let mut lines = vec![
        String::new(),
        format!(
            "largest pattern ({} intervals, support {}):",
            best.pattern.arity(),
            best.support
        ),
        best.pattern.ascii_timeline(db.symbols()),
    ];
    for (i, seq) in db.sequences().iter().enumerate() {
        if let Some(witness) = interval_core::matcher::find_embedding(
            seq,
            &best.pattern,
            interval_core::MatchConstraints::none(),
        ) {
            lines.push(format!("witness in sequence {i}:"));
            for (slot, iv) in witness.iter().enumerate() {
                lines.push(format!(
                    "  slot {slot}: {} [{}, {})",
                    db.symbols().name(iv.symbol),
                    iv.start,
                    iv.end
                ));
            }
            break;
        }
    }
    emit_lines(lines.into_iter())
}

/// Writes lines to stdout, treating a broken pipe (e.g. `| head`) as a
/// graceful end of output rather than a panic.
pub(crate) fn emit_lines(lines: impl Iterator<Item = String>) -> Result<(), String> {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for line in lines {
        match writeln!(lock, "{line}") {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
            Err(e) => return Err(format!("stdout: {e}")),
        }
    }
    Ok(())
}

/// A pattern list on stdout, one JSON object per pattern with `--json`,
/// else a `{kind} patterns: N` header and one indented line per pattern.
/// Every command that prints patterns (`mine`, `stream`, `recover`,
/// `history`) goes through it.
pub(crate) fn render(
    p: &Parsed,
    symbols: &SymbolTable,
    patterns: &[tpminer::FrequentPattern],
    kind: &str,
) -> Result<(), String> {
    if p.flag("json") {
        emit_lines(patterns.iter().map(|fp| {
            Object::default()
                .member("arity", fp.pattern.arity())
                .member("kind", kind)
                .member("pattern", fp.pattern.display(symbols).to_string())
                .member("support", fp.support)
                .finish()
        }))
    } else {
        let header = format!("{kind} patterns: {}", patterns.len());
        emit_lines(std::iter::once(header).chain(patterns.iter().map(|fp| {
            format!(
                "  {}   (support {})",
                fp.pattern.display(symbols),
                fp.support
            )
        })))
    }
}

fn mine_prob(p: &Parsed) -> Result<ExitCode, String> {
    let udb = load_uncertain(p.input()?)?;
    let frac: f64 = p
        .opt_num("min-esup")?
        .ok_or_else(|| "pass --min-esup FRAC".to_string())?;
    let min_esup = frac * udb.len() as f64;
    let result = ProbabilisticMiner::new(ProbabilisticConfig::with_min_expected_support(min_esup))
        .with_budget(budget_from(p)?)
        .mine(&udb);
    eprintln!(
        "{} probabilistic patterns (candidates {}, screened {})",
        result.len(),
        result.stats().candidates,
        result.stats().pruned_by_bound
    );
    report_truncation(result.termination());
    if p.flag("json") {
        emit_lines(result.patterns().iter().map(|pp| {
            Object::default()
                .member("expected_support", pp.expected_support)
                .member("pattern", pp.pattern.display(udb.symbols()).to_string())
                .member("world_support", pp.world_support)
                .finish()
        }))?;
    } else {
        emit_lines(result.patterns().iter().map(|pp| {
            format!(
                "  {}   E[support] {:.2} (full world {})",
                pp.pattern.display(udb.symbols()),
                pp.expected_support,
                pp.world_support
            )
        }))?;
    }
    Ok(exit::from_termination(result.termination()))
}
