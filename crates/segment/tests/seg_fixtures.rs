//! Corruption-path tests against the committed segment fixtures under
//! `tests/fixtures/seg/` (repo root).
//!
//! The fixtures were produced by the real pipeline —
//! `ptpminer-cli stream --segment-dir … --segment-bytes 1` over a small
//! workload — then damaged deterministically:
//!
//! - `clean/`     — 3 sealed segments + MANIFEST, untouched
//! - `bit_flip/`  — one bit flipped inside segment 0's first body frame
//!   (the footer still validates; only the per-record CRC scan catches it)
//! - `truncated/` — segment 1 cut in half (footer and trailer gone)
//!
//! They pin the on-disk format: a byte-level change to the segment layout
//! that silently reads old files differently will fail here first, and
//! resealing `clean/`'s records must write its files again byte for byte.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use segment::{ParsedSegment, SegmentOptions, SegmentReader, SegmentStore, MANIFEST_FILE};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/seg")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "seg-fixture-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn temp_copy(of: &Path, tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    for entry in std::fs::read_dir(of).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

#[test]
fn clean_fixture_reads_fully() {
    let reader = SegmentReader::open(fixture("clean")).unwrap();
    assert_eq!(reader.segments().len(), 3);
    assert_eq!(reader.records(), 5);
    let load = reader.load_range(0, 60).unwrap();
    assert_eq!(load.intervals, 5);
    assert_eq!(load.sequences, 3);
    assert_eq!(load.segments_read, 3);
    // A narrow range skips non-intersecting segments by footer bounds
    // without reading them.
    let narrow = reader.load_range(21, 27).unwrap();
    assert_eq!(narrow.intervals, 2);
    assert_eq!(narrow.segments_read, 1);
    assert_eq!(narrow.segments_skipped, 2);
}

#[test]
fn resealing_the_clean_fixture_reproduces_it_byte_for_byte() {
    let clean = fixture("clean");
    let dir = temp_dir("reseal");
    let reader = SegmentReader::open(&clean).unwrap();
    let mut store = SegmentStore::open(&dir, SegmentOptions::default()).unwrap();
    for meta in reader.segments() {
        let bytes = std::fs::read(clean.join(&meta.file)).unwrap();
        let parsed = ParsedSegment::parse(&bytes).unwrap();
        let mut records = Vec::new();
        for entry in &parsed.footer.sequences {
            parsed
                .visit_records(entry, |symbol, start, end| {
                    records.push((entry.sequence, symbol.to_owned(), start, end))
                })
                .unwrap();
        }
        // Append against the sealed order: the seal must restore it.
        let sealed_order = records.clone();
        records.reverse();
        assert!(records.len() < 2 || records != sealed_order);
        for (sequence, symbol, start, end) in &records {
            store.append(*sequence, symbol, *start, *end);
        }
        assert!(store.seal());
    }
    let mut files: Vec<String> = reader.segments().iter().map(|m| m.file.clone()).collect();
    files.push(MANIFEST_FILE.to_owned());
    for file in &files {
        assert_eq!(
            std::fs::read(dir.join(file)).unwrap(),
            std::fs::read(clean.join(file)).unwrap(),
            "{file} differs from the committed fixture"
        );
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), files.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_fixture_errors_naming_the_segment() {
    let reader = SegmentReader::open(fixture("bit_flip")).unwrap();
    // The footer still validates, so the segment lists fine…
    assert_eq!(reader.segments().len(), 3);
    // …but decoding its body must fail loudly, naming the file — never
    // silently dropping records.
    let err = reader.load_range(0, 60).unwrap_err();
    assert!(err.to_string().contains("00000000.seg"), "{err}");
    // A range that skips the damaged segment by its footer time bounds
    // still answers from the healthy ones.
    let load = reader.load_range(21, 60).unwrap();
    assert_eq!(load.intervals, 3);
    assert_eq!(load.segments_read, 2);
}

#[test]
fn truncated_fixture_errors_on_read_and_is_quarantined_on_reopen() {
    let reader = SegmentReader::open(fixture("truncated")).unwrap();
    let err = reader.load_range(0, 60).unwrap_err();
    assert!(err.to_string().contains("00000001.seg"), "{err}");

    // A writer reopening the same directory (work on a temp copy: the
    // store mutates) must exclude the listed-but-corrupt segment, keep it
    // on disk for forensics, and carry on healthy in a fresh epoch.
    let dir = temp_copy(&fixture("truncated"), "reopen");
    let mut store = SegmentStore::open(&dir, SegmentOptions::default()).unwrap();
    assert_eq!(store.stats().segments_corrupt, 1);
    assert!(!store.is_degraded());
    assert!(dir.join("00000001.seg").exists(), "kept for forensics");
    store.append(9, "after", 100, 110);
    assert!(store.seal());
    assert!(
        dir.join("00000003.seg").exists(),
        "sealing resumes past every on-disk epoch"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_fixture_reopens_with_nothing_to_repair() {
    let dir = temp_copy(&fixture("clean"), "noop");
    let store = SegmentStore::open(&dir, SegmentOptions::default()).unwrap();
    let stats = store.stats();
    assert_eq!(stats.segments_corrupt, 0);
    assert_eq!(stats.segments_missing, 0);
    assert_eq!(stats.segments_adopted, 0);
    assert_eq!(stats.partials_deleted, 0);
    assert_eq!(stats.manifest_lines_dropped, 0);
    assert_eq!(store.segments().len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Damages the newest segment (`00000002.seg`) of a copy of `clean/`,
/// reopens a writer, seals one new interval and checks that the seal took
/// a fresh epoch: the damaged file's name is never reused, so the seal
/// neither appends onto a quarantined file nor lists a name twice.
fn damaged_newest_segment_keeps_its_epoch(tag: &str, damage: impl FnOnce(&Path)) -> SegmentStore {
    let dir = temp_copy(&fixture("clean"), tag);
    let newest = dir.join("00000002.seg");
    damage(&newest);
    let quarantined = std::fs::read(&newest).ok();

    let mut store = SegmentStore::open(&dir, SegmentOptions::default()).unwrap();
    store.append(9, "after", 100, 110);
    assert!(store.seal());
    assert!(
        dir.join("00000003.seg").exists(),
        "sealing resumes past every epoch the manifest names"
    );
    assert_eq!(
        std::fs::read(&newest).ok(),
        quarantined,
        "the damaged segment is left as it was"
    );

    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let mut files: Vec<&str> = manifest
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    let listed = files.len();
    files.sort_unstable();
    files.dedup();
    assert_eq!(
        files.len(),
        listed,
        "a segment file is listed twice:\n{manifest}"
    );

    let load = SegmentReader::open(&dir)
        .unwrap()
        .load_range(100, 110)
        .unwrap();
    assert_eq!(load.intervals, 1);
    std::fs::remove_dir_all(&dir).ok();
    store
}

#[test]
fn corrupt_newest_segment_keeps_its_epoch() {
    let store = damaged_newest_segment_keeps_its_epoch("corrupt-newest", |newest| {
        let bytes = std::fs::read(newest).unwrap();
        std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();
    });
    assert_eq!(store.stats().segments_corrupt, 1);
}

#[test]
fn missing_newest_segment_keeps_its_epoch() {
    let store = damaged_newest_segment_keeps_its_epoch("missing-newest", |newest| {
        std::fs::remove_file(newest).unwrap();
    });
    assert_eq!(store.stats().segments_missing, 1);
}
