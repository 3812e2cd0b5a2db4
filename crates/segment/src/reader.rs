//! The reading half of the segment store: rebuilding minable per-sequence
//! endpoint indexes from cold segments on demand.
//!
//! [`SegmentReader`] opens a segment directory **read-only** — it never
//! adopts orphans, deletes partials, or appends to the manifest — so it is
//! safe to run concurrently with a live writer (the server's `HISTORY`
//! verb opens a reader without touching any ingest lock). It trusts the
//! manifest's clean prefix plus any orphan file whose footer validates,
//! which is exactly the set a crash-recovering [`SegmentStore`] would
//! adopt.
//!
//! [`SegmentReader::load_range`] assembles, for a closed time range
//! `[from, to]`, the same inputs a live refresh gets from
//! [`SlidingWindowDatabase::freeze`]: a symbol table and one
//! [`SeqIndex`] per sequence. Segments are visited one at a time and only
//! the sequence runs that can intersect the range are decoded, so memory
//! is bounded by one segment image plus the filtered result — windows far
//! larger than RAM mine by spill-and-reload. The caller wraps the load in
//! a `stream::FrozenView` (via `FrozenView::from_parts`) and hands it to
//! the unchanged `IncrementalMiner` under a `MiningBudget`.
//!
//! Range semantics match window eviction: an interval belongs to
//! `[from, to]` exactly when `from <= end <= to` — the same
//! "evict when `end < cutoff`" rule the live window applies, so a
//! historical mine reproduces what a window covering that span held.
//!
//! [`SegmentStore`]: crate::SegmentStore
//! [`SlidingWindowDatabase::freeze`]: ../../stream/window/struct.SlidingWindowDatabase.html

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use interval_core::{EventInterval, IntervalSequence, SequenceId, SymbolId, SymbolTable, Time};
use tpminer::SeqIndex;

use durability::{StdFs, WalFs};

use crate::format::ParsedSegment;
use crate::store::{epoch_of, parse_manifest, rank_names, SegmentMeta, MANIFEST_FILE};
use crate::SegmentError;

/// Everything a historical mine needs, rebuilt from cold segments: the
/// out-of-core analogue of a frozen window view.
#[derive(Debug)]
pub struct RangeLoad {
    /// Symbol table interning every symbol in the loaded range, in
    /// deterministic (sequence id, symbol name, start, end) order.
    pub symbols: SymbolTable,
    /// One endpoint index per sequence with at least one interval in the
    /// range, ascending by sequence id.
    pub seq_indexes: Vec<Arc<SeqIndex>>,
    /// Number of loaded sequences (`seq_indexes.len()`).
    pub sequences: usize,
    /// Interval records that fell inside the range.
    pub intervals: u64,
    /// Segment files whose metadata intersected the range and were read.
    pub segments_read: usize,
    /// Segment files skipped entirely by their manifest time bounds.
    pub segments_skipped: usize,
}

/// A read-only view over a segment directory (see the module docs).
#[derive(Debug)]
pub struct SegmentReader<F: WalFs = StdFs> {
    fs: F,
    dir: PathBuf,
    segments: Vec<SegmentMeta>,
}

impl SegmentReader<StdFs> {
    /// Opens a reader on the real filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SegmentError> {
        Self::open_with(StdFs, dir)
    }
}

impl<F: WalFs> SegmentReader<F> {
    /// Opens a reader over an explicit filesystem. The directory must
    /// exist; an empty one (no manifest, no segments) is a valid empty
    /// store.
    pub fn open_with(fs: F, dir: impl Into<PathBuf>) -> Result<Self, SegmentError> {
        let dir = dir.into();
        let manifest_bytes = match fs.read(&dir.join(MANIFEST_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (mut segments, _) = parse_manifest(&manifest_bytes);
        // Include valid orphans (sealed file durable, manifest line lost):
        // a writer crash must not hide sealed data from history queries.
        for path in fs.list(&dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(epoch) = epoch_of(name) else {
                continue;
            };
            if segments.iter().any(|m| m.file == name) {
                continue;
            }
            let Ok(bytes) = fs.read(&path) else { continue };
            if let Ok(parsed) = ParsedSegment::parse(&bytes) {
                segments.push(SegmentMeta {
                    file: name.to_owned(),
                    epoch,
                    records: parsed.footer.records,
                    min_start: parsed.footer.min_start,
                    min_end: parsed.footer.min_end,
                    max_end: parsed.footer.max_end,
                });
            }
        }
        segments.sort_by_key(|m| m.epoch);
        Ok(SegmentReader { fs, dir, segments })
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The readable segments, ascending by epoch.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Total interval records across all readable segments.
    pub fn records(&self) -> u64 {
        self.segments.iter().map(|m| m.records).sum()
    }

    /// Rebuilds the minable state of the closed range `[from, to]`
    /// (intervals with `from <= end <= to`) from the sealed segments.
    ///
    /// Corruption inside a segment body surfaces as an error naming the
    /// segment — the caller decides whether a partial answer is
    /// acceptable; this loader never silently drops records.
    pub fn load_range(&self, from: Time, to: Time) -> Result<RangeLoad, SegmentError> {
        // Rows hold a load-local name id: a record allocates nothing, and a
        // name is copied once, the first time an in-range record holds it.
        let mut names = SymbolTable::new();
        let mut by_sequence: BTreeMap<SequenceId, Vec<(u32, Time, Time)>> = BTreeMap::new();
        let mut run: Vec<(u32, Time, Time)> = Vec::new();
        let mut intervals = 0u64;
        let mut segments_read = 0usize;
        let mut segments_skipped = 0usize;
        for meta in &self.segments {
            // The footer's end-time bounds decide intersection: a segment
            // with every end below `from` or above `to` has nothing for us.
            if meta.max_end < from || meta.min_end > to {
                segments_skipped += 1;
                continue;
            }
            segments_read += 1;
            let bytes = self.fs.read(&self.dir.join(&meta.file))?;
            let named = |e: SegmentError| SegmentError::corrupt(format!("{}: {e}", meta.file));
            let parsed = ParsedSegment::parse(&bytes).map_err(named)?;
            for entry in &parsed.footer.sequences {
                parsed
                    .visit_records(entry, |symbol, start, end| {
                        if from <= end && end <= to {
                            run.push((names.intern(symbol).0, start, end));
                        }
                    })
                    .map_err(named)?;
                if !run.is_empty() {
                    intervals += run.len() as u64;
                    by_sequence
                        .entry(entry.sequence)
                        .or_default()
                        .append(&mut run);
                }
            }
        }

        // Deterministic rebuild: sequences ascend by id; within one,
        // intervals sort by (symbol name, start, end) and symbols intern in
        // that order — independent of seal or capture order. Names are
        // ranked once, so the sort compares integers.
        let (_, rank) = rank_names(&names);
        let mut symbols = SymbolTable::new();
        let mut interned: Vec<Option<SymbolId>> = vec![None; rank.len()];
        let mut seq_indexes = Vec::with_capacity(by_sequence.len());
        for (_, mut list) in by_sequence {
            list.sort_unstable_by_key(|&(name, start, end)| (rank[name as usize], start, end));
            let intervals: Vec<EventInterval> = list
                .into_iter()
                .map(|(name, start, end)| {
                    let id = *interned[name as usize]
                        .get_or_insert_with(|| symbols.intern(names.name(SymbolId(name))));
                    EventInterval::new_unchecked(id, start, end)
                })
                .collect();
            seq_indexes.push(Arc::new(SeqIndex::from_sequence(
                &IntervalSequence::from_intervals(intervals),
            )));
        }
        Ok(RangeLoad {
            sequences: seq_indexes.len(),
            seq_indexes,
            symbols,
            intervals,
            segments_read,
            segments_skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{SegmentOptions, SegmentStore};
    use durability::RetryPolicy;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "segment-reader-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn store_with(dir: &Path, batches: &[&[(SequenceId, &str, Time, Time)]]) {
        let mut store = SegmentStore::open(
            dir,
            SegmentOptions {
                seal_bytes: 1,
                retry: RetryPolicy::none(),
            },
        )
        .unwrap();
        for batch in batches {
            for &(seq, sym, start, end) in *batch {
                store.append(seq, sym, start, end);
            }
            assert!(store.seal());
        }
    }

    #[test]
    fn load_range_filters_by_interval_end() {
        let dir = temp_dir("filter");
        store_with(
            &dir,
            &[
                &[(1, "a", 0, 5), (1, "b", 3, 9), (2, "a", 1, 4)],
                &[(1, "c", 10, 20), (3, "a", 12, 18)],
            ],
        );
        let reader = SegmentReader::open(&dir).unwrap();
        assert_eq!(reader.segments().len(), 2);
        assert_eq!(reader.records(), 5);

        let load = reader.load_range(5, 18).unwrap();
        // Ends in [5, 18]: (1,a,0,5), (1,b,3,9), (3,a,12,18).
        assert_eq!(load.intervals, 3);
        assert_eq!(load.sequences, 2, "sequence 2's only end (4) is outside");
        assert_eq!(load.segments_read, 2);

        let narrow = reader.load_range(0, 4).unwrap();
        assert_eq!(narrow.intervals, 1, "only (2,a,1,4)");
        assert_eq!(narrow.segments_read, 1, "second segment skipped by min_end");
        assert_eq!(narrow.segments_skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_is_an_empty_store() {
        let dir = temp_dir("empty");
        let reader = SegmentReader::open(&dir).unwrap();
        assert!(reader.segments().is_empty());
        let load = reader.load_range(0, 100).unwrap();
        assert_eq!(load.sequences, 0);
        assert_eq!(load.intervals, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_segments_are_readable() {
        let dir = temp_dir("orphan");
        store_with(&dir, &[&[(1, "a", 0, 5)]]);
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let reader = SegmentReader::open(&dir).unwrap();
        assert_eq!(reader.segments().len(), 1);
        assert_eq!(reader.load_range(0, 10).unwrap().intervals, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_body_surfaces_as_an_error_naming_the_segment() {
        let dir = temp_dir("corrupt");
        store_with(&dir, &[&[(1, "alpha", 0, 5), (1, "beta", 2, 9)]]);
        let reader = SegmentReader::open(&dir).unwrap();
        let file = dir.join(&reader.segments()[0].file);
        let mut bytes = std::fs::read(&file).unwrap();
        // Flip a bit inside the first body frame's payload. The footer
        // still validates; the per-sequence scan must catch it.
        bytes[8 + 8 + 2] ^= 0x01;
        std::fs::write(&file, &bytes).unwrap();
        let err = SegmentReader::open(&dir)
            .unwrap()
            .load_range(0, 100)
            .unwrap_err();
        assert!(err.to_string().contains(".seg"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `00000000.seg` (an orphan the reader adopts) holding one run
    /// for sequence 1 over `records`, whose footer promises `count`.
    fn write_run(dir: &Path, records: &[(SequenceId, &str, Time, Time)], count: u64) {
        let mut body = Vec::new();
        for &(sequence, symbol, start, end) in records {
            durability::frame_record(
                &interval_core::StreamEvent::Interval {
                    sequence,
                    symbol: symbol.into(),
                    start,
                    end,
                },
                &mut body,
            );
        }
        let footer = crate::format::Footer {
            min_start: 0,
            min_end: 5,
            max_end: 9,
            records: count,
            sequences: vec![crate::format::SeqEntry {
                sequence: 1,
                offset: 0,
                len: body.len() as u64,
                count,
            }],
        };
        let mut image = crate::format::begin_image(body.len(), 1);
        image.extend_from_slice(&body);
        crate::format::finish_image(&mut image, &footer);
        std::fs::write(dir.join("00000000.seg"), image).unwrap();
    }

    #[test]
    fn foreign_record_and_count_mismatch_fail_naming_the_segment() {
        let dir = temp_dir("foreign");
        write_run(&dir, &[(1, "a", 0, 5), (2, "b", 3, 9)], 2);
        let err = SegmentReader::open(&dir)
            .unwrap()
            .load_range(0, 100)
            .unwrap_err()
            .to_string();
        assert!(err.contains("00000000.seg"), "{err}");
        assert!(err.contains("foreign record"), "{err}");
        std::fs::remove_dir_all(&dir).ok();

        let dir = temp_dir("count");
        write_run(&dir, &[(1, "a", 0, 5), (1, "b", 3, 9)], 3);
        // The footer bounds admit [6, 7] but neither record's end does:
        // the count is checked anyway.
        let err = SegmentReader::open(&dir)
            .unwrap()
            .load_range(6, 7)
            .unwrap_err()
            .to_string();
        assert!(err.contains("00000000.seg"), "{err}");
        assert!(
            err.contains("decoded 2 records, footer promised 3"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebuild_is_deterministic_across_capture_orders() {
        let dir_a = temp_dir("order-a");
        let dir_b = temp_dir("order-b");
        store_with(&dir_a, &[&[(2, "y", 4, 9), (1, "x", 0, 5), (1, "y", 2, 7)]]);
        store_with(&dir_b, &[&[(1, "y", 2, 7), (2, "y", 4, 9), (1, "x", 0, 5)]]);
        let load_a = SegmentReader::open(&dir_a)
            .unwrap()
            .load_range(0, 10)
            .unwrap();
        let load_b = SegmentReader::open(&dir_b)
            .unwrap()
            .load_range(0, 10)
            .unwrap();
        let names_a: Vec<&str> = load_a.symbols.iter().map(|(_, n)| n).collect();
        let names_b: Vec<&str> = load_b.symbols.iter().map(|(_, n)| n).collect();
        assert_eq!(names_a, names_b, "symbol interning order is canonical");
        assert_eq!(load_a.intervals, load_b.intervals);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
