//! The `stream` subcommand: tail a file (or stdin) of interval events and
//! keep the frequent-pattern set continuously up to date.
//!
//! Each input line is one [`StreamEvent`] in the wire format of
//! [`interval_core::event`] (`open`/`close`/`interval`/`watermark` records;
//! blank lines and `#` comments are skipped). Events feed a
//! [`SlidingWindowDatabase`]; every `--refresh-every` watermarks a refresh
//! trigger fires and the [`stream::IncrementalMiner`] re-mines the dirty partitions,
//! printing a one-line snapshot summary to stderr. `--max-lag T` replaces
//! the periodic trigger with an adaptive one: refresh only once the
//! published snapshot trails the live watermark by more than `T` time
//! units. At end of input (or on Ctrl-C / `--timeout`) the final pattern
//! set is printed to stdout and throughput statistics to stderr.
//!
//! # Pipelined refreshes
//!
//! The command is a thin caller of [`stream::Pipeline`], the same loop the
//! server runs per stream. Refreshes run on a background worker while
//! ingestion continues: a trigger freezes the window (re-indexing only the
//! changed sequences, one `Arc` clone per live sequence) and hands the
//! epoch to the worker; triggers arriving while a
//! refresh is still in flight are *coalesced* into the next epoch (see
//! `docs/STREAMING.md`). `--refresh-workers N` shards each refresh's
//! dirty roots across a pool of `N` mining workers (LPT-balanced,
//! bit-identical output; see `docs/STREAMING.md` for sizing). The final
//! refresh at end of input runs on the same pool.
//!
//! Degraded operation matches the batch commands: a truncated run still
//! prints a sound partial result (exact supports, possibly incomplete) and
//! reports the truncation through the exit code. SIGINT and `--timeout`
//! cancel an in-flight background refresh through its budget token and
//! join the worker before exiting.
//!
//! # Durability (`--wal-dir`)
//!
//! With `--wal-dir DIR` every event is appended to a checksummed
//! write-ahead log *before* ingestion ([`stream::Journal`]), so a crashed
//! stream can be rebuilt with `recover DIR --window W`. `--fsync` picks
//! the durability/throughput trade-off (`always`, `epoch`, `never` — see
//! `docs/DURABILITY.md`). If the log stops accepting writes the stream
//! keeps running from memory and reports the degradation via a sticky
//! warning, the `wal:` summary and exit code 5.
//!
//! # Cold storage (`--segment-dir`)
//!
//! With `--segment-dir DIR` everything the watermark evicts is *sealed*
//! instead of lost: evicted (and late-dropped) intervals buffer in a
//! [`segment::SegmentStore`] and seal into immutable checksummed segment
//! files once `--segment-bytes` worth accumulates (plus a forced seal at
//! shutdown covering the final window contents). WAL reclaim is then
//! re-tied to what is **sealed and fsynced** — never merely evicted — so
//! the union of WAL + segments always holds every event. Historical
//! ranges mine back out of DIR with the `history` subcommand. See
//! `docs/STORAGE.md`.

use std::io::BufRead;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use durability::FsyncPolicy;
use interval_core::json::Object;
use interval_core::wire::SupportSpec;
use interval_core::{MiningBudget, StreamEvent, Termination};
use segment::{SegmentOptions, SegmentStore};
use stream::{
    Finishing, Journal, PatternSnapshot, Pipeline, PipelineConfig, SlidingWindowDatabase, Trigger,
};
use tpminer::MinerConfig;

use crate::args::{self, Parsed};
use crate::{exit, render, sigint, stats_json, timeout_from};

/// Options every `stream` invocation may use (checked by `expect_options`).
pub const OPTIONS: &[&str] = &[
    "window",
    "min-support",
    "abs-support",
    "max-arity",
    "gap",
    "refresh-every",
    "refresh-workers",
    "max-lag",
    "timeout",
    "json",
    "wal-dir",
    "fsync",
    "segment-dir",
    "segment-bytes",
    "stats-json",
];

/// The fsync policy from `--fsync`, with did-you-mean suggestions for
/// typos. Shared by `stream` (per-run WAL) and `serve` (per-stream WALs).
pub(crate) fn fsync_from(p: &Parsed) -> Result<FsyncPolicy, String> {
    match p.get("fsync") {
        None => Ok(FsyncPolicy::Epoch),
        Some(value) => FsyncPolicy::parse(value).ok_or_else(|| {
            let mut message = format!(
                "--fsync: unknown policy `{value}` (one of: {})",
                FsyncPolicy::NAMES.join(", ")
            );
            if let Some(suggestion) = args::suggest_value(value, FsyncPolicy::NAMES) {
                message.push_str(&format!(" (did you mean `{suggestion}`?)"));
            }
            message
        }),
    }
}

/// The support threshold from `--abs-support` / `--min-support`, if either
/// was given (`stream` requires one; `mine`, unless `--top-k`, too;
/// `recover` and `history` take it optionally), range-checked by
/// [`SupportSpec::checked`]. A fraction is re-resolved against the window
/// size at every refresh, so a refresh after a window-size change may be
/// full.
pub(crate) fn support_from(p: &Parsed) -> Result<Option<SupportSpec>, String> {
    let (option, spec) = match (
        p.opt_num::<usize>("abs-support")?,
        p.opt_num::<f64>("min-support")?,
    ) {
        (Some(n), _) => ("abs-support", SupportSpec::Absolute(n)),
        (None, Some(frac)) => ("min-support", SupportSpec::Fraction(frac)),
        (None, None) => return Ok(None),
    };
    spec.checked().map(Some).map_err(|range| {
        format!(
            "--{option}: `{}` {range}",
            p.get(option).unwrap_or_default()
        )
    })
}

pub fn run(p: &Parsed) -> Result<ExitCode, String> {
    let window_len: i64 = p
        .opt_num::<i64>("window")?
        .ok_or_else(|| "pass --window W (sliding-window length in time units)".to_string())?;
    if window_len <= 0 {
        return Err(format!("--window: `{window_len}` must be positive"));
    }
    let support =
        support_from(p)?.ok_or_else(|| "pass --min-support FRAC or --abs-support N".to_string())?;
    let refresh_every = p.num::<u64>("refresh-every", 1)?;
    if refresh_every == 0 {
        return Err("--refresh-every: must be at least 1".into());
    }
    let max_lag = p.opt_num::<i64>("max-lag")?;
    if max_lag.is_some_and(|l| l < 0) {
        return Err("--max-lag: must be non-negative".into());
    }
    if max_lag.is_some() && p.get("refresh-every").is_some() {
        return Err(
            "--max-lag and --refresh-every are mutually exclusive (adaptive vs periodic trigger)"
                .into(),
        );
    }
    let trigger = match max_lag {
        Some(bound) => Trigger::MaxLag(bound),
        None => Trigger::Every(refresh_every),
    };
    let refresh_workers = p.num::<usize>("refresh-workers", 1)?.max(1);
    let fsync_policy = fsync_from(p)?;
    if p.get("fsync").is_some() && p.get("wal-dir").is_none() {
        return Err("--fsync needs --wal-dir (there is no log to sync without one)".into());
    }
    if p.get("segment-bytes").is_some() && p.get("segment-dir").is_none() {
        return Err(
            "--segment-bytes needs --segment-dir (there is no store to seal without one)".into(),
        );
    }
    let mut config = MinerConfig::default();
    if let Some(k) = p.opt_num::<usize>("max-arity")? {
        config = config.max_arity(k);
    }
    if let Some(g) = p.opt_num::<i64>("gap")? {
        config = config.max_gap(g);
    }

    let token = sigint::install();
    #[expect(
        clippy::disallowed_methods,
        reason = "`--timeout` is a wall-clock deadline on the whole stream"
    )]
    let deadline = timeout_from(p)?.map(|timeout| Instant::now() + timeout);
    // Every refresh, the final one included, runs under the SIGINT token
    // and whatever is left of the `--timeout` deadline.
    let mut budget = MiningBudget::unlimited().with_token(token.clone());
    if let Some(d) = deadline {
        budget = budget.with_deadline(d);
    }

    let path = p.input()?;
    let mut reader: Box<dyn BufRead> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };

    let journal: Option<Journal> = match p.get("wal-dir") {
        Some(dir) => Some(
            Journal::open(dir, window_len, fsync_policy)
                .map_err(|e| format!("--wal-dir {dir}: {e}"))?,
        ),
        None => None,
    };
    let store: Option<SegmentStore> = match p.get("segment-dir") {
        Some(dir) => {
            let mut options = SegmentOptions::default();
            if let Some(bytes) = p.opt_num::<usize>("segment-bytes")? {
                if bytes == 0 {
                    return Err("--segment-bytes: must be at least 1".into());
                }
                options.seal_bytes = bytes;
            }
            Some(
                SegmentStore::open(dir, options)
                    .map_err(|e| format!("--segment-dir {dir}: {e}"))?,
            )
        }
        None => None,
    };
    let mut pipeline = Pipeline::new(
        SlidingWindowDatabase::new(window_len),
        journal,
        store,
        PipelineConfig {
            miner: config,
            support,
            trigger,
            refresh_workers,
            budget,
        },
    );
    let mut seal_warned = false;
    #[expect(
        clippy::disallowed_methods,
        reason = "each refresh report carries the stream's elapsed time"
    )]
    let started = Instant::now();
    let mut full_refreshes = 0u64;
    // Why the tail stopped before end of input, if it did.
    let mut stopped: Option<Termination> = None;

    let mut line = String::new();
    let mut idx = 0usize;
    loop {
        if token.is_cancelled() {
            stopped = Some(Termination::Cancelled);
            break;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "`--timeout` is a wall-clock deadline on the whole stream"
        )]
        if deadline.is_some_and(|d| Instant::now() >= d) {
            stopped = Some(Termination::DeadlineExceeded);
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            // A zero-byte read is end of input — the file ended or the
            // writer closed the pipe. It is *final*: break straight to the
            // wind-down (WAL flush + final refresh); retrying would spin
            // on zero-byte reads forever.
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A non-blocking stdin (inherited from some process
                // managers) signals "no data yet", not EOF: back off
                // briefly instead of busy-polling.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(e) => {
                // A hard read error mid-tail behaves like EOF with a
                // warning: everything accepted so far still gets its
                // final flush + refresh instead of being thrown away.
                eprintln!("warning: {path}: {e} — treating as end of input");
                break;
            }
        }
        idx += 1;
        let Some(event) = StreamEvent::parse_line(&line, idx).map_err(|e| e.to_string())? else {
            continue;
        };
        let ingested = pipeline
            .ingest(event)
            .map_err(|e| format!("line {idx}: {e}"))?;
        if ingested.wal_degraded_now {
            eprintln!(
                "warning: WAL degraded — continuing in-memory only ({})",
                pipeline
                    .journal()
                    .and_then(|j| j.degraded_reason())
                    .unwrap_or("unknown failure"),
            );
        }
        if let Some(due) = ingested.due {
            for snapshot in due.submit() {
                report_refresh(p, &snapshot, started, &mut full_refreshes)?;
            }
        }
        warn_store_degraded(&pipeline, &mut seal_warned);
    }

    // Wind the pipeline down: flush the WAL, seal everything the window
    // saw into the segment store, and fold everything after the last
    // refresh point into a final refresh on the worker — unless
    // the tail was interrupted and a snapshot is already published (or on
    // its way), where re-mining would be pointless: the budget is spent.
    let published =
        pipeline.worker().is_some_and(|w| w.is_busy()) || pipeline.cell().load().revision > 0;
    let finished = pipeline
        .finish(stopped.is_none() || !published)
        .map(Finishing::join)
        .unwrap_or_default();
    warn_store_degraded(&pipeline, &mut seal_warned);
    for snapshot in &finished.snapshots {
        report_refresh(p, snapshot, started, &mut full_refreshes)?;
    }
    // The final refresh's snapshot — or, after an interrupted tail or a
    // dead worker, the last one published.
    let finale = pipeline.cell().load();
    let worker_failed = finished.worker_failed;
    let pstats = finished.stats;

    let elapsed = started.elapsed();
    let window = pipeline.window();
    let stats = window.stats();
    let rate = stats.events as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "ingested {} events ({} intervals, {} late-dropped, {} evicted) in {:.2?} — {:.0} events/s",
        stats.events,
        stats.intervals_completed,
        stats.late_intervals_dropped,
        stats.intervals_evicted,
        elapsed,
        rate,
    );
    eprintln!(
        "{} refreshes ({} full); window now holds {} sequences, {} open intervals",
        finale.revision,
        full_refreshes,
        window.len(),
        window.open_intervals(),
    );
    let lag = match (window.watermark(), finale.watermark) {
        (Some(live), Some(done)) => (live.saturating_sub(done)).to_string(),
        _ => "-".into(),
    };
    let wal_suffix = if pipeline.journal().is_some() {
        let marker = if pstats.wal_degraded {
            " [WAL DEGRADED]"
        } else {
            ""
        };
        format!(", {} wal flushes{marker}", pstats.wal_flushes)
    } else {
        String::new()
    };
    eprintln!(
        "pipeline: {} background refreshes ({} coalesced), {} events during refresh, \
         refresh lag {lag}{wal_suffix}",
        pstats.completed_refreshes, pstats.coalesced_refreshes, pstats.events_during_refresh,
    );
    if let Some(journal) = pipeline.journal() {
        let js = journal.stats();
        eprintln!(
            "wal: {} records ({} bytes, {} writes, {} fsyncs, {} retries), \
             {} segments sealed ({} reclaimed), {} flushes — {}",
            js.wal.records_appended,
            js.wal.bytes_written,
            js.wal.writes,
            js.wal.syncs,
            js.wal.retries,
            js.wal.segments_sealed,
            js.wal.segments_reclaimed,
            js.flushes,
            if js.degraded { "DEGRADED" } else { "healthy" },
        );
    }
    if let Some(store) = pipeline.store() {
        let ss = store.stats();
        eprintln!(
            "segments: {} sealed ({} records, {} bytes, {} failures, {} skipped), \
             sealed through {} — {}",
            ss.segments_sealed,
            ss.records_sealed,
            ss.bytes_sealed,
            ss.seal_failures,
            ss.appends_skipped,
            store
                .sealed_through()
                .map_or_else(|| "-".into(), |t| t.to_string()),
            if store.is_degraded() {
                "DEGRADED"
            } else {
                "healthy"
            },
        );
    }
    if worker_failed {
        eprintln!("warning: background refresh worker failed; last published snapshot stands");
    }
    if p.flag("stats-json") {
        // One machine-readable line for integration tests and ops
        // tooling, instead of scraping the human summary above.
        let seg = pipeline.store().map(|store| {
            let ss = store.stats();
            Object::default()
                .member("segments_sealed", ss.segments_sealed)
                .member("records_sealed", ss.records_sealed)
                .member("bytes_sealed", ss.bytes_sealed)
                .member("seal_failures", ss.seal_failures)
                .member("appends_skipped", ss.appends_skipped)
                .member("segments_adopted", ss.segments_adopted)
                .member("partials_deleted", ss.partials_deleted)
                .member("seal_micros", ss.seal_micros)
                .member("sealed_through", store.sealed_through())
                .member("degraded", store.is_degraded())
        });
        let wal = pipeline.journal().map(|j| {
            let js = j.stats();
            Object::default()
                .member("records", js.wal.records_appended)
                .member("bytes", js.wal.bytes_written)
                .member("syncs", js.wal.syncs)
                .member("segments_sealed", js.wal.segments_sealed)
                .member("segments_reclaimed", js.wal.segments_reclaimed)
                .member("flushes", js.flushes)
                .member("degraded", js.degraded)
        });
        let line = Object::default()
            .member("events", stats.events)
            .member("intervals", stats.intervals_completed)
            .member("late_dropped", stats.late_intervals_dropped)
            .member("evicted", stats.intervals_evicted)
            .member("watermarks", pipeline.watermarks())
            .member("sequences", window.len())
            .member("open_intervals", window.open_intervals())
            .member("revision", finale.revision)
            .member("patterns", finale.result.len())
            .member("full_refreshes", full_refreshes)
            .member("elapsed_ms", elapsed.as_millis() as u64)
            .member("worker_failed", worker_failed)
            .member(
                "pipeline",
                stats_json::pipeline_fields(Object::default(), &pstats),
            )
            .member("wal", wal)
            .member("segment", seg);
        eprintln!("{}", line.finish());
    }

    render(p, &finale.symbols, finale.result.patterns(), "frequent")?;
    let termination = if worker_failed {
        Termination::WorkerFailed { roots: Vec::new() }
    } else {
        stopped.unwrap_or_else(|| finale.result.termination().clone())
    };
    if !termination.is_complete() {
        eprintln!(
            "note: {termination} — partial result: reported supports are exact, \
             but the pattern set may be incomplete"
        );
    }
    let wal_degraded = pipeline.journal().is_some_and(|j| j.is_degraded());
    if wal_degraded && termination.is_complete() {
        eprintln!(
            "note: durability degraded — the printed result is complete in memory, \
             but events after the WAL failure were not persisted (exit code {})",
            exit::DEGRADED,
        );
    }
    let seg_degraded = pipeline.store().is_some_and(|s| s.is_degraded());
    if seg_degraded && !wal_degraded && termination.is_complete() {
        eprintln!(
            "note: segment store degraded — evicted intervals after the seal failure \
             were not persisted to cold storage; the WAL (reclaim frozen at the durable \
             floor) still holds them (exit code {})",
            exit::DEGRADED,
        );
    }
    Ok(exit::from_termination_degraded(
        &termination,
        wal_degraded || seg_degraded,
    ))
}

/// Warns once, the first time the segment store is seen degraded.
fn warn_store_degraded(pipeline: &Pipeline, warned: &mut bool) {
    if *warned {
        return;
    }
    if let Some(store) = pipeline.store().filter(|s| s.is_degraded()) {
        *warned = true;
        eprintln!(
            "warning: segment store degraded — WAL reclaim frozen at the durable floor ({})",
            store.degraded_reason().unwrap_or("unknown failure"),
        );
    }
}

/// One stderr line per refresh: what the window looked like and how much
/// work the refresh needed. Counts full refreshes along the way.
fn report_refresh(
    p: &Parsed,
    s: &PatternSnapshot,
    started: Instant,
    full_refreshes: &mut u64,
) -> Result<(), String> {
    if s.refresh.full {
        *full_refreshes += 1;
    }
    if p.flag("json") {
        let line = Object::default()
            .member("carried_patterns", s.refresh.carried_patterns)
            .member("dirty_roots", s.refresh.dirty_roots)
            .member("elapsed_ms", started.elapsed().as_millis() as u64)
            .member("full", s.refresh.full)
            .member("indexed_sequences", s.refresh.indexed_sequences)
            .member("mined_patterns", s.refresh.mined_patterns)
            .member("patterns", s.result.len())
            .member("revision", s.revision)
            .member("sequences", s.sequences)
            .member("watermark", s.watermark)
            .member("window_start", s.window_start)
            .finish();
        eprintln!("{line}");
    } else {
        let kind = if s.refresh.full {
            "full"
        } else {
            "incremental"
        };
        eprintln!(
            "[rev {}] watermark {} | {} sequences, {} patterns ({kind}: {} dirty roots, \
             {} mined, {} carried)",
            s.revision,
            s.watermark.map_or_else(|| "-".into(), |w| w.to_string()),
            s.sequences,
            s.result.len(),
            s.refresh.dirty_roots,
            s.refresh.mined_patterns,
            s.refresh.carried_patterns,
        );
    }
    Ok(())
}
