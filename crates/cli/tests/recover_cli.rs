//! End-to-end exit-code and wiring tests for `stream --wal-dir` and
//! `recover`, driving the real binary against the committed WAL fixtures
//! under `tests/fixtures/wal/` (repo root) and against logs it writes
//! itself.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ptpminer-cli"))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/wal")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ptpminer-recover-cli-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn recover_replays_the_torn_tail_fixture_cleanly() {
    let out = bin()
        .arg("recover")
        .arg(fixture("torn_tail"))
        .args(["--window", "20", "--abs-support", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("torn tail"), "{err}");
    assert!(err.contains("recovered window: 2 sequences"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("frequent patterns"), "{stdout}");
}

#[test]
fn recover_maps_corruption_to_the_degraded_exit_code() {
    let out = bin()
        .arg("recover")
        .arg(fixture("bit_flip"))
        .args(["--window", "20"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("CORRUPTION"), "{err}");
    assert!(err.contains("CRC mismatch"), "{err}");
}

#[test]
fn recover_verify_scans_without_a_window() {
    let out = bin()
        .arg("recover")
        .arg(fixture("bit_flip"))
        .arg("--verify")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));

    let out = bin()
        .arg("recover")
        .arg(fixture("torn_tail"))
        .arg("--verify")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    // Golden: the verify summary reports the segment-reclaim watermark
    // documented in docs/DURABILITY.md §2 (the torn-tail fixture's durable
    // prefix ends at watermark 12).
    let err = stderr(&out);
    assert!(err.contains("segment-reclaim watermark: 12"), "{err}");
}

#[test]
fn stream_journals_and_recover_rebuilds_the_same_patterns() {
    let dir = temp_dir("roundtrip");
    let wal = dir.join("wal");
    let input = dir.join("events.txt");
    std::fs::write(
        &input,
        "interval 1 fever 0 5\n\
         interval 2 fever 1 6\n\
         interval 1 rash 3 9\n\
         interval 2 rash 4 8\n\
         watermark 12\n",
    )
    .unwrap();

    let streamed = bin()
        .arg("stream")
        .arg(&input)
        .args(["--window", "20", "--abs-support", "2"])
        .arg("--wal-dir")
        .arg(&wal)
        .args(["--fsync", "always"])
        .output()
        .unwrap();
    assert_eq!(
        streamed.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&streamed)
    );
    let err = stderr(&streamed);
    assert!(err.contains("wal: 5 records"), "{err}");
    assert!(err.contains("healthy"), "{err}");

    let recovered = bin()
        .arg("recover")
        .arg(&wal)
        .args(["--window", "20", "--abs-support", "2"])
        .output()
        .unwrap();
    assert_eq!(
        recovered.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&recovered)
    );
    assert_eq!(
        String::from_utf8_lossy(&recovered.stdout),
        String::from_utf8_lossy(&streamed.stdout),
        "replay must reproduce the crashed stream's final pattern set"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsync_typos_get_suggestions_and_fsync_requires_a_wal_dir() {
    let dir = temp_dir("usage");
    let input = dir.join("events.txt");
    std::fs::write(&input, "watermark 1\n").unwrap();

    let out = bin()
        .arg("stream")
        .arg(&input)
        .args(["--window", "20", "--abs-support", "1"])
        .arg("--wal-dir")
        .arg(dir.join("wal"))
        .args(["--fsync", "epcoh"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("did you mean `epoch`?"), "{err}");

    let out = bin()
        .arg("stream")
        .arg(&input)
        .args(["--window", "20", "--abs-support", "1", "--fsync", "epoch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--fsync needs --wal-dir"),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}
