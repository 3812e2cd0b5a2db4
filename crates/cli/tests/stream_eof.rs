//! Regression tests for `stream -` end-of-input handling: a closed stdin
//! pipe must wind the run down (WAL flush + final refresh + summary)
//! promptly instead of spinning on zero-byte reads, and `--stats-json`
//! must report the run in machine-readable form.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use std::io::Write;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ptpminer-cli"))
}

const EVENTS: &str = "\
interval 0 a 0 5
interval 0 b 3 8
watermark 9
interval 1 a 10 15
interval 1 b 13 18
watermark 19
";

/// Waits for exit with a hard deadline — if EOF handling regresses into a
/// spin, the child never exits and this fails instead of hanging the suite.
fn wait_bounded(child: &mut Child) -> std::process::ExitStatus {
    for _ in 0..600 {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = child.kill();
    panic!("stream did not exit after stdin closed (EOF spin regression)");
}

fn run_stream(extra: &[&str]) -> (std::process::ExitStatus, String, String) {
    let mut child = bin()
        .args([
            "stream",
            "-",
            "--window",
            "1000",
            "--abs-support",
            "2",
            "--refresh-every",
            "1",
        ])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(EVENTS.as_bytes()).unwrap();
        // Dropping stdin closes the pipe: the next read returns 0 bytes.
    }
    let status = wait_bounded(&mut child);
    let out = child.wait_with_output().unwrap();
    (
        status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn closed_stdin_pipe_triggers_final_refresh_and_clean_exit() {
    let (status, stdout, stderr) = run_stream(&[]);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    // The wind-down ran: ingest summary on stderr, final patterns on
    // stdout (the post-EOF refresh folded in the tail after the last
    // watermark trigger).
    assert!(stderr.contains("ingested 6 events"), "{stderr}");
    assert!(stdout.contains("frequent patterns:"), "{stdout}");
    assert!(stdout.contains("a+ | b+ | a- | b-"), "{stdout}");
}

/// The `--stats-json` line of a run with its timing-dependent values (how
/// refreshes coalesced, the revision they reached, wall-clock times)
/// replaced by `_`; every other key and value is deterministic.
fn masked_stats_json(stderr: &str) -> String {
    const TIMING: &[&str] = &[
        "submitted",
        "completed",
        "coalesced",
        "events_during_refresh",
        "revision",
        "elapsed_ms",
        "seal_micros",
    ];
    let line = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON stats line in: {stderr}"));
    let mut out = String::new();
    let mut rest = line;
    while let Some(pos) = rest.find("\":") {
        let (head, tail) = rest.split_at(pos + 2);
        out.push_str(head);
        rest = tail;
        let key = head[..pos].rsplit('"').next().unwrap_or_default();
        if TIMING.contains(&key) {
            out.push('_');
            rest = &rest[rest.find([',', '}']).unwrap_or(rest.len())..];
        }
    }
    out.push_str(rest);
    out
}

#[test]
fn stats_json_reports_the_run_machine_readably() {
    let (status, _stdout, stderr) = run_stream(&["--stats-json"]);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(
        masked_stats_json(&stderr),
        "{\"events\":6,\"intervals\":4,\"late_dropped\":0,\"evicted\":0,\"watermarks\":2,\
         \"sequences\":2,\"open_intervals\":0,\"revision\":_,\"patterns\":3,\
         \"full_refreshes\":1,\"elapsed_ms\":_,\"worker_failed\":false,\
         \"pipeline\":{\"submitted\":_,\"completed\":_,\"coalesced\":_,\
         \"events_during_refresh\":_,\"refresh_lag\":null,\"subscribers\":0,\
         \"subscriber_delivered\":0,\"subscriber_dropped\":0,\"subscriber_max_lag\":0,\
         \"wal_flushes\":0,\"wal_degraded\":false,\"segments_sealed\":0,\
         \"segment_records\":0,\"segment_bytes\":0,\"segment_seal_failures\":0},\
         \"wal\":null,\"segment\":null}"
    );

    // With a WAL and a segment store, both report as nested objects.
    let dir = std::env::temp_dir().join(format!("ptpminer-stream-eof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = dir.join("wal");
    let seg = dir.join("seg");
    let (status, _stdout, stderr) = run_stream(&[
        "--stats-json",
        "--wal-dir",
        wal.to_str().unwrap(),
        "--segment-dir",
        seg.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(
        masked_stats_json(&stderr),
        "{\"events\":6,\"intervals\":4,\"late_dropped\":0,\"evicted\":0,\"watermarks\":2,\
         \"sequences\":2,\"open_intervals\":0,\"revision\":_,\"patterns\":3,\
         \"full_refreshes\":1,\"elapsed_ms\":_,\"worker_failed\":false,\
         \"pipeline\":{\"submitted\":_,\"completed\":_,\"coalesced\":_,\
         \"events_during_refresh\":_,\"refresh_lag\":null,\"subscribers\":0,\
         \"subscriber_delivered\":0,\"subscriber_dropped\":0,\"subscriber_max_lag\":0,\
         \"wal_flushes\":1,\"wal_degraded\":false,\"segments_sealed\":1,\
         \"segment_records\":4,\"segment_bytes\":304,\"segment_seal_failures\":0},\
         \"wal\":{\"records\":6,\"bytes\":202,\"syncs\":1,\"segments_sealed\":0,\
         \"segments_reclaimed\":0,\"flushes\":1,\"degraded\":false},\
         \"segment\":{\"segments_sealed\":1,\"records_sealed\":4,\"bytes_sealed\":304,\
         \"seal_failures\":0,\"appends_skipped\":0,\"segments_adopted\":0,\
         \"partials_deleted\":0,\"seal_micros\":_,\"sealed_through\":-981,\
         \"degraded\":false}}"
    );
}
