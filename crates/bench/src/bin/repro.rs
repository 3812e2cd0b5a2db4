//! Regenerates every table and figure of the paper's evaluation, and the
//! two extension experiments EXPERIMENTS.md records beside it.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- \
//!     [--scale quick|full] [--timeout SECS] [e1 ... e8 constraints streaming | all]
//! ```
//!
//! Each experiment prints the table/series the corresponding paper figure
//! plots and writes machine-readable rows to `results/<exp>.jsonl`,
//! replacing an earlier run's. An unknown name exits with [`EXIT_USAGE`]
//! before anything runs; a failed oracle check prints a `!!` line and makes
//! the run exit with [`ExitCode::FAILURE`] once every experiment finished.
//!
//! `--timeout SECS` caps each P-TPMiner invocation's wall clock via a
//! [`MiningBudget`]; a run that trips it is flagged `(truncated)` — its
//! pattern set is a sound subset (exact supports), so the timing row and
//! any cross-miner agreement checks for that row are skipped.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "the evaluation harness prints its tables, and may stop on a broken invariant"
)]

use baselines::{BaselineResult, HDfsMiner, IeMiner, TPrefixSpan};
use bench::chart::Chart;
use bench::tables::{emit_json_row, fmt_bytes, fmt_micros, Spread, Table};
use bench::workloads::{self, Scale, STREAM_WINDOW};
use interval_core::json::Object;
use interval_core::wire::SupportSpec;
use interval_core::{IntervalDatabase, Time};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use stream::{IncrementalMiner, Pipeline, PipelineConfig, Trigger};
use tpminer::{
    closed_patterns, DbIndex, FrequentPattern, MinerConfig, MiningBudget, MiningResult,
    ProbabilisticConfig, ProbabilisticMiner, PruningConfig, Termination, TpMiner,
};

/// The usage exit code, mirroring the `cli/src/exit.rs` registry (the
/// bench harness does not depend on the CLI crate; xlint's
/// `exit-code-registry` rule bans re-deriving it as a bare numeral).
const EXIT_USAGE: u8 = 2;

/// An experiment's name and its run.
type Experiment = (&'static str, fn(Scale));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 10] = [
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("constraints", constraints),
    ("streaming", streaming),
];

/// Per-invocation wall-clock cap from `--timeout`, if any.
static RUN_TIMEOUT: OnceLock<Option<Duration>> = OnceLock::new();

/// Set by every failed oracle check.
static FAILED: AtomicBool = AtomicBool::new(false);

/// A fresh budget for one mining invocation (each call restarts the
/// deadline clock, so `--timeout` bounds individual runs, not the whole
/// harness).
fn run_budget() -> MiningBudget {
    match RUN_TIMEOUT.get().copied().flatten() {
        Some(limit) => MiningBudget::unlimited().with_timeout(limit),
        None => MiningBudget::unlimited(),
    }
}

/// Flags a truncated run on stderr; returns whether it was complete.
fn note_truncation(who: &str, termination: &Termination) -> bool {
    if termination.is_complete() {
        true
    } else {
        eprintln!("!! {who}: {termination} — row is truncated, comparisons skipped");
        false
    }
}

/// Reports a failed oracle check; the run goes on and exits non-zero.
fn check_failed(what: &str) {
    eprintln!("!! {what} — this should never happen");
    FAILED.store(true, Ordering::Relaxed);
}

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut timeout: Option<Duration> = None;
    let mut names: Vec<String> = Vec::new();
    let known = EXPERIMENTS.map(|(name, _)| name).join(" ");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_default();
                let Some(parsed) = Scale::parse(&value) else {
                    eprintln!("unknown scale `{value}` (expected quick|full)");
                    return ExitCode::from(EXIT_USAGE);
                };
                scale = parsed;
            }
            "--timeout" => {
                let value = args.next().unwrap_or_default();
                match value.parse::<f64>() {
                    Ok(secs) if (0.0..=1e15).contains(&secs) => {
                        timeout = Some(Duration::from_secs_f64(secs));
                    }
                    _ => {
                        eprintln!("bad --timeout `{value}` (expected seconds)");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale quick|full] [--timeout SECS] [EXPERIMENT... | all]\n\
                     experiments: {known}"
                );
                return ExitCode::SUCCESS;
            }
            other => names.push(other.to_owned()),
        }
    }
    let mut runs: Vec<fn(Scale)> = Vec::new();
    for name in &names {
        match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some(&(_, run)) => runs.push(run),
            None if name == "all" => {}
            None => {
                eprintln!("unknown experiment `{name}` (expected {known} or all)");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if runs.is_empty() || names.iter().any(|n| n == "all") {
        runs = EXPERIMENTS.map(|(_, run)| run).to_vec();
    }
    RUN_TIMEOUT.set(timeout).expect("set once");

    println!("P-TPMiner reproduction harness (scale: {scale:?})");
    println!("(see DESIGN.md §4 for the experiment index, EXPERIMENTS.md for recorded results)\n");
    for run in runs {
        run(scale);
        println!();
    }
    if FAILED.load(Ordering::Relaxed) {
        eprintln!("!! at least one check failed (see the `!!` lines above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs `f` once: its wall-clock time in microseconds, and its value.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the harness reports each run's wall-clock time"
    )]
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_micros() as u64, value)
}

/// Reports `who`'s patterns differing from P-TPMiner's. Callers compare
/// complete runs only: a truncated run's patterns are a sound subset.
fn check_agreement(reference: &[FrequentPattern], other: &[FrequentPattern], who: &str) {
    if reference != other {
        check_failed(&format!(
            "{who} disagrees with P-TPMiner ({} vs {} patterns)",
            other.len(),
            reference.len()
        ));
    }
}

/// A baseline miner: its column name, and its run at an absolute support.
type Baseline = (&'static str, fn(usize, &IntervalDatabase) -> BaselineResult);

/// The baselines, in column order.
const BASELINES: [Baseline; 3] = [
    ("TPrefixSpan", |sup, db| TPrefixSpan::new(sup).mine(db)),
    ("IEMiner", |sup, db| IeMiner::new(sup).mine(db)),
    ("H-DFS", |sup, db| HDfsMiner::new(sup).mine(db)),
];

/// P-TPMiner, then each of `baselines`, on `db` at relative support `rel`,
/// each baseline checked against a complete P-TPMiner run. Adds
/// P-TPMiner's pattern count and each miner's time to the row's `cells`,
/// and each time to its chart series in `ys`; returns the count and the
/// times.
fn race(
    db: &IntervalDatabase,
    rel: f64,
    baselines: &[Baseline],
    cells: &mut Vec<String>,
    ys: &mut [Vec<f64>],
) -> (usize, Vec<u64>) {
    let min_sup = db.absolute_support(rel);
    let (tp_us, result) = timed(|| {
        TpMiner::new(MinerConfig::with_min_support(min_sup))
            .with_budget(run_budget())
            .mine(db)
    });
    let complete = note_truncation("P-TPMiner", result.termination());
    let mut times = vec![tp_us];
    for &(name, mine) in baselines {
        let (us, baseline) = timed(|| mine(min_sup, db));
        if complete {
            check_agreement(result.patterns(), &baseline.patterns, name);
        }
        times.push(us);
    }
    cells.push(result.len().to_string());
    for (y, &us) in ys.iter_mut().zip(&times) {
        y.push(us as f64);
        cells.push(fmt_micros(us));
    }
    (result.len(), times)
}

/// Prints one log-scale chart with a series per name.
fn runtime_chart(title: &str, x: Vec<String>, names: &[&str], ys: &[Vec<f64>]) {
    let mut chart = Chart::new(title, x).log_y();
    for (name, y) in names.iter().zip(ys) {
        chart = chart.series(name, y);
    }
    chart.print();
}

// ---------------------------------------------------------------- E1 ----
fn e1(scale: Scale) {
    let db = workloads::e1_database(scale);
    let miners = ["P-TPMiner", "TPrefixSpan", "IEMiner", "H-DFS"];
    let mut columns = vec!["min_sup", "abs", "patterns"];
    columns.extend(miners);
    let mut table = Table::new(
        &format!(
            "E1 (Fig: runtime vs minimum support) — {} ({} seqs, {} intervals)",
            workloads::base_quest(scale).name(),
            db.len(),
            db.total_intervals()
        ),
        &columns,
    );
    let mut x = Vec::new();
    let mut ys = vec![Vec::new(); miners.len()];
    for rel in workloads::e1_support_sweep(scale) {
        let min_sup = db.absolute_support(rel);
        x.push(format!("{:.0}%", rel * 100.0));
        let mut cells = vec![format!("{:.0}%", rel * 100.0), min_sup.to_string()];
        let (patterns, us) = race(&db, rel, &BASELINES, &mut cells, &mut ys);
        table.row(cells);
        emit_json_row(
            "e1",
            &Object::default()
                .member("abs_support", min_sup)
                .member("hdfs_us", us[3])
                .member("ieminer_us", us[2])
                .member("patterns", patterns)
                .member("rel_support", rel)
                .member("tpminer_us", us[0])
                .member("tprefixspan_us", us[1])
                .finish(),
        );
    }
    table.print();
    runtime_chart(
        "runtime (us, log scale) vs minimum support",
        x,
        &miners,
        &ys,
    );
}

// ---------------------------------------------------------------- E2 ----
fn e2(scale: Scale) {
    let rel = workloads::e2_support(scale);
    let miners = ["P-TPMiner", "TPrefixSpan", "IEMiner", "H-DFS"];
    let mut columns = vec!["|D|", "patterns"];
    columns.extend(miners);
    let mut table = Table::new(
        &format!("E2 (Fig: scalability in |D|) — min_sup {:.0}%", rel * 100.0),
        &columns,
    );
    let mut x = Vec::new();
    let mut ys = vec![Vec::new(); miners.len()];
    for n in workloads::e2_sizes(scale) {
        let db = workloads::e2_database(scale, n);
        x.push(n.to_string());
        let mut cells = vec![n.to_string()];
        let (patterns, us) = race(&db, rel, &BASELINES, &mut cells, &mut ys);
        table.row(cells);
        emit_json_row(
            "e2",
            &Object::default()
                .member("hdfs_us", us[3])
                .member("ieminer_us", us[2])
                .member("patterns", patterns)
                .member("sequences", n)
                .member("tpminer_us", us[0])
                .member("tprefixspan_us", us[1])
                .finish(),
        );
    }
    table.print();
    runtime_chart("runtime (us, log scale) vs database size", x, &miners, &ys);
}

// ---------------------------------------------------------------- E3 ----
fn e3(scale: Scale) {
    let db = workloads::e1_database(scale);
    let index = DbIndex::build(&db);
    let without = |off: fn(&mut PruningConfig)| {
        let mut pruning = PruningConfig::all();
        off(&mut pruning);
        pruning
    };
    let configs = [
        ("all", PruningConfig::all()),
        ("no-pair", without(|p| p.pair_pruning = false)),
        ("no-postfix", without(|p| p.postfix_pruning = false)),
        ("no-symbol", without(|p| p.symbol_pruning = false)),
        ("none", PruningConfig::none()),
    ];
    let mut columns: Vec<&str> = vec!["min_sup", "patterns"];
    columns.extend(configs.iter().map(|(n, _)| *n));
    let mut table = Table::new("E3 (Fig: pruning-technique ablation)", &columns);
    let mut x = Vec::new();
    let mut ys: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for rel in workloads::e1_support_sweep(scale) {
        let min_sup = db.absolute_support(rel);
        let mut cells = vec![format!("{:.0}%", rel * 100.0)];
        let mut reference: Option<MiningResult> = None; // the `all` run
                                                        // `configs` is in key order, so the row's keys come out sorted.
        let mut row = Object::default();
        x.push(format!("{:.0}%", rel * 100.0));
        for (ci, (name, pruning)) in configs.iter().enumerate() {
            let (us, result) = timed(|| {
                TpMiner::new(MinerConfig::with_min_support(min_sup).pruning(*pruning))
                    .with_budget(run_budget())
                    .mine_indexed(&index)
            });
            let complete = note_truncation(name, result.termination());
            match &reference {
                None => {
                    cells.push(result.len().to_string());
                    reference = Some(result);
                }
                Some(all) if complete && all.termination().is_complete() => {
                    check_agreement(all.patterns(), result.patterns(), name);
                }
                Some(_) => {}
            }
            cells.push(fmt_micros(us));
            ys[ci].push(us as f64);
            row = row.member(&format!("{name}_us"), us);
        }
        table.row(cells);
        emit_json_row("e3", &row.member("rel_support", rel).finish());
    }
    table.print();
    let names: Vec<&str> = configs.iter().map(|(name, _)| *name).collect();
    runtime_chart(
        "runtime (us, log scale) per pruning configuration",
        x,
        &names,
        &ys,
    );
}

// ---------------------------------------------------------------- E4 ----
fn e4(scale: Scale) {
    let db = workloads::e1_database(scale);
    // Structural proxies, mirroring what the paper's memory figure
    // contrasts: live embedding states for the projected databases against
    // materialized occurrence tuples for the id-lists.
    let mut table = Table::new(
        "E4 (Fig: peak memory vs minimum support)",
        &[
            "min_sup",
            "P-TPMiner peak states",
            "states created",
            "arena peak",
            "scratch reuse",
            "H-DFS occurrences",
        ],
    );
    for rel in workloads::e1_support_sweep(scale) {
        let min_sup = db.absolute_support(rel);
        let tp = TpMiner::new(MinerConfig::with_min_support(min_sup))
            .with_budget(run_budget())
            .mine(&db);
        note_truncation("P-TPMiner", tp.termination());
        let hd = HDfsMiner::new(min_sup).mine(&db);
        table.row(vec![
            format!("{:.0}%", rel * 100.0),
            tp.stats().peak_node_states.to_string(),
            tp.stats().states_created.to_string(),
            fmt_bytes(tp.stats().arena_peak_bytes),
            tp.stats().scratch_reuse_hits.to_string(),
            hd.stats.occurrences_materialized.to_string(),
        ]);
        emit_json_row(
            "e4",
            &Object::default()
                .member("hdfs_occurrences", hd.stats.occurrences_materialized)
                .member("rel_support", rel)
                .member("tpminer_arena_peak_bytes", tp.stats().arena_peak_bytes)
                .member("tpminer_peak_states", tp.stats().peak_node_states)
                .member("tpminer_scratch_reuse_hits", tp.stats().scratch_reuse_hits)
                .member("tpminer_states_created", tp.stats().states_created)
                .finish(),
        );
    }
    table.print();
}

// ---------------------------------------------------------------- E5 ----
fn e5(scale: Scale) {
    let rel = workloads::e2_support(scale);
    let miners = ["P-TPMiner", "TPrefixSpan", "H-DFS"];
    let without_ie = [BASELINES[0], BASELINES[2]];
    let mut columns = vec!["|C|", "patterns"];
    columns.extend(miners);
    let mut table = Table::new(
        &format!(
            "E5 (Fig: runtime vs intervals-per-sequence |C|) — min_sup {:.0}%",
            rel * 100.0
        ),
        &columns,
    );
    let mut x = Vec::new();
    let mut ys = vec![Vec::new(); miners.len()];
    for c in workloads::e5_densities(scale) {
        let db = workloads::e5_database(scale, c);
        x.push(format!("{c}"));
        let mut cells = vec![format!("{c}")];
        let (patterns, us) = race(&db, rel, &without_ie, &mut cells, &mut ys);
        table.row(cells);
        emit_json_row(
            "e5",
            &Object::default()
                .member("density", c)
                .member("hdfs_us", us[2])
                .member("patterns", patterns)
                .member("tpminer_us", us[0])
                .member("tprefixspan_us", us[1])
                .finish(),
        );
    }
    table.print();
    runtime_chart(
        "runtime (us, log scale) vs sequence density",
        x,
        &miners,
        &ys,
    );
}

// ---------------------------------------------------------------- E6 ----
fn e6(scale: Scale) {
    let mut table = Table::new(
        "E6 (Table: realistic datasets case study)",
        &[
            "dataset",
            "seqs",
            "intervals",
            "symbols",
            "min_sup",
            "patterns",
            "closed",
            "runtime",
        ],
    );
    let mut examples: Vec<String> = Vec::new();
    for (name, db, max_arity) in workloads::e6_datasets(scale) {
        for rel in workloads::e6_supports() {
            let min_sup = db.absolute_support(rel);
            let (us, result) = timed(|| {
                TpMiner::new(MinerConfig::with_min_support(min_sup).max_arity(max_arity))
                    .with_budget(run_budget())
                    .mine(&db)
            });
            // Closed filtering needs the complete set; on a truncated run
            // the closed column is best-effort (see tpminer::closed).
            note_truncation(name, result.termination());
            let closed = closed_patterns(result.patterns());
            table.row(vec![
                name.to_string(),
                db.len().to_string(),
                db.total_intervals().to_string(),
                db.symbols().len().to_string(),
                format!("{:.0}%", rel * 100.0),
                result.len().to_string(),
                closed.len().to_string(),
                fmt_micros(us),
            ]);
            emit_json_row(
                "e6",
                &Object::default()
                    .member("abs_support", min_sup)
                    .member("closed", closed.len())
                    .member("dataset", name)
                    .member("patterns", result.len())
                    .member("rel_support", rel)
                    .member("runtime_us", us)
                    .finish(),
            );
            if (rel - 0.30).abs() < 1e-9 {
                // Showcase the highest-arity patterns, as the paper's case
                // study does.
                let mut by_arity: Vec<_> = result.patterns().to_vec();
                by_arity.sort_by_key(|p| std::cmp::Reverse((p.pattern.arity(), p.support)));
                for p in by_arity.iter().take(2) {
                    examples.push(format!(
                        "  [{name}] {}   (support {}, {:.0}%)",
                        p.pattern.display(db.symbols()),
                        p.support,
                        100.0 * p.support as f64 / db.len() as f64
                    ));
                }
            }
        }
    }
    table.print();
    println!("example patterns at 30% support:");
    for e in examples {
        println!("{e}");
    }
}

// ---------------------------------------------------------------- E7 ----
fn e7(scale: Scale) {
    let udb = workloads::e7_database(scale);
    let mut table = Table::new(
        &format!(
            "E7 (Fig: probabilistic mining) — uncertain {} seqs, {} intervals",
            udb.len(),
            udb.total_intervals()
        ),
        &[
            "min_esup",
            "patterns",
            "with PT4",
            "without PT4",
            "candidates",
            "screened",
        ],
    );
    let mut x = Vec::new();
    let mut ys: [Vec<f64>; 2] = Default::default();
    for rel in workloads::e7_esup_sweep(scale) {
        let min_esup = rel * udb.len() as f64;
        let mut cfg = ProbabilisticConfig::with_min_expected_support(min_esup);
        cfg.upper_bound_pruning = true;
        let (with_us, with) = timed(|| {
            ProbabilisticMiner::new(cfg)
                .with_budget(run_budget())
                .mine(&udb)
        });
        cfg.upper_bound_pruning = false;
        let (without_us, without) = timed(|| {
            ProbabilisticMiner::new(cfg)
                .with_budget(run_budget())
                .mine(&udb)
        });
        let complete = note_truncation("with PT4", with.termination())
            && note_truncation("without PT4", without.termination());
        if complete && with.patterns() != without.patterns() {
            check_failed("PT4 changed the probabilistic output");
        }
        x.push(format!("{:.0}%", rel * 100.0));
        ys[0].push(with_us as f64);
        ys[1].push(without_us as f64);
        table.row(vec![
            format!("{:.0}%", rel * 100.0),
            with.len().to_string(),
            fmt_micros(with_us),
            fmt_micros(without_us),
            with.stats().candidates.to_string(),
            with.stats().pruned_by_bound.to_string(),
        ]);
        emit_json_row(
            "e7",
            &Object::default()
                .member("candidates", with.stats().candidates)
                .member("min_esup", min_esup)
                .member("patterns", with.len())
                .member("rel_esup", rel)
                .member("screened", with.stats().pruned_by_bound)
                .member("with_pt4_us", with_us)
                .member("without_pt4_us", without_us)
                .finish(),
        );
    }
    table.print();
    runtime_chart(
        "P-TPMiner runtime (us) vs expected-support threshold",
        x,
        &["with PT4", "without PT4"],
        &ys,
    );
}

// ---------------------------------------------------------------- E8 ----
fn e8(scale: Scale) {
    let db = workloads::e1_database(scale);
    let rel = *workloads::e1_support_sweep(scale)
        .last()
        .expect("non-empty sweep");
    let min_sup = db.absolute_support(rel);
    let result = TpMiner::new(MinerConfig::with_min_support(min_sup))
        .with_budget(run_budget())
        .mine(&db);
    note_truncation("P-TPMiner", result.termination());
    let closed = closed_patterns(result.patterns());
    let hist = result.arity_histogram();
    let mut closed_hist = vec![0usize; hist.len()];
    for p in &closed {
        closed_hist[p.pattern.arity()] += 1;
    }
    let mut table = Table::new(
        &format!(
            "E8 (Fig: pattern count by length) — min_sup {:.0}%",
            rel * 100.0
        ),
        &["arity", "frequent", "closed"],
    );
    let mut x = Vec::new();
    let mut freq_series = Vec::new();
    let mut closed_series = Vec::new();
    for arity in 1..hist.len() {
        x.push(arity.to_string());
        freq_series.push(hist[arity] as f64);
        closed_series.push(closed_hist[arity] as f64);
        table.row(vec![
            arity.to_string(),
            hist[arity].to_string(),
            closed_hist[arity].to_string(),
        ]);
        emit_json_row(
            "e8",
            &Object::default()
                .member("arity", arity)
                .member("closed", closed_hist[arity])
                .member("frequent", hist[arity])
                .finish(),
        );
    }
    table.print();
    Chart::new("pattern counts by arity", x)
        .series("frequent", &freq_series)
        .series("closed", &closed_series)
        .print();
}

// ----------------------------------------------------------- extensions ----
/// Timed runs per cell of the two extension experiments (odd, so each
/// median is a sample).
const SAMPLES: usize = 21;

/// The window/gap constraints ablation (not a paper figure).
fn constraints(_: Scale) {
    let db = workloads::constraints_database();
    let index = DbIndex::build(&db);
    let min_sup = db.absolute_support(0.05);
    let base = MinerConfig::with_min_support(min_sup);
    let configs = [
        ("unconstrained", base),
        ("window 100", base.max_window(100)),
        ("window 40", base.max_window(40)),
        ("gap 50", base.max_gap(50)),
        ("gap 15", base.max_gap(15)),
        ("window 40 + gap 15", base.max_window(40).max_gap(15)),
    ];
    let mut table = Table::new(
        &format!(
            "Constraints ablation — D1000-C6-N60 ({} intervals), min_sup 5% ({min_sup}), \
             {SAMPLES} runs per config",
            db.total_intervals()
        ),
        &["config", "patterns", "time: median (p25–p75)"],
    );
    for (name, config) in configs {
        let mut patterns = 0;
        let spread = Spread::of(
            (0..SAMPLES)
                .map(|_| {
                    let (us, result) = timed(|| {
                        TpMiner::new(config)
                            .with_budget(run_budget())
                            .mine_indexed(&index)
                    });
                    note_truncation(name, result.termination());
                    patterns = result.len();
                    us
                })
                .collect(),
        );
        table.row(vec![name.to_owned(), patterns.to_string(), spread.cell()]);
        let row = spread.members(Object::default().member("config", name), "");
        emit_json_row("constraints", &row.member("patterns", patterns).finish());
    }
    table.print();
}

/// What a window slide costs (not a paper figure): a full re-mine and an
/// inline incremental refresh of one window, compared at every slide, and
/// the ingest-side stall of a [`Pipeline`] fed the same stream.
fn streaming(_: Scale) {
    let config = MinerConfig::with_min_support(5).max_arity(4);
    let mut table = Table::new(
        &format!(
            "Streaming refresh — session stream, window {STREAM_WINDOW}, {SAMPLES} slides per \
             ratio, median (p25–p75)"
        ),
        &[
            "slide",
            "full re-mine",
            "incremental (inline)",
            "pipelined (ingest-side)",
        ],
    );
    for ratio in [0.01, 0.10, 0.50] {
        let slide = ((STREAM_WINDOW as f64 * ratio) as Time).max(1);
        let label = format!("{:.0}%", ratio * 100.0);

        let (mut stream, mut window) = workloads::streaming_window();
        let mut miner = IncrementalMiner::new(config, 1);
        miner.refresh_frozen(&window.freeze(), run_budget()); // the carried state
        let (mut full, mut incremental) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            for event in stream.advance(slide) {
                window.ingest(event).expect("the stream is in order");
            }
            let (us, batch) = timed(|| {
                TpMiner::new(config)
                    .with_budget(run_budget())
                    .mine(&window.snapshot_database())
            });
            full.push(us);
            let (us, snapshot) = timed(|| miner.refresh_frozen(&window.freeze(), run_budget()));
            incremental.push(us);
            if note_truncation("full re-mine", batch.termination())
                && note_truncation("incremental", snapshot.result.termination())
                && snapshot.result.patterns() != batch.patterns()
            {
                check_failed(&format!(
                    "incremental refresh disagrees with a full re-mine at a {label} slide \
                     ({} vs {} patterns)",
                    snapshot.result.len(),
                    batch.len()
                ));
            }
        }

        let (mut stream, window) = workloads::streaming_window();
        let mut pipeline: Pipeline = Pipeline::new(
            window,
            None,
            None,
            PipelineConfig {
                miner: config,
                support: SupportSpec::Absolute(config.min_support),
                trigger: Trigger::Every(1),
                refresh_workers: 1,
                budget: run_budget(),
            },
        );
        let stall: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let events = stream.advance(slide);
                timed(|| {
                    for event in events {
                        let ingested = pipeline.ingest(event).expect("the stream is in order");
                        if let Some(due) = ingested.due {
                            due.submit();
                        }
                    }
                })
                .0
            })
            .collect();
        let finished = pipeline.finish(false).expect("not yet finished").join();
        if finished.worker_failed {
            check_failed(&format!("the refresh worker failed at a {label} slide"));
        }

        let [full, incremental, stall] = [full, incremental, stall].map(Spread::of);
        table.row(vec![label, full.cell(), incremental.cell(), stall.cell()]);
        let row = full.members(Object::default(), "full_");
        let row = incremental.members(row, "incremental_");
        let row = stall.members(row, "pipelined_ingest_");
        emit_json_row(
            "streaming",
            &row.member("slide", slide)
                .member("slide_ratio", ratio)
                .finish(),
        );
    }
    table.print();
}
