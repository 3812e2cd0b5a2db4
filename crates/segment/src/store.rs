//! The writing half of the segment store: buffering evicted intervals,
//! sealing them into immutable segment files, and the append-only manifest
//! that names the live segment set.
//!
//! # Seal protocol
//!
//! A seal is a two-step commit whose crash points are all recoverable:
//!
//! 1. assemble the full segment image in memory (body, footer, trailer),
//!    write it to `{epoch:08}.seg` and **fsync** it;
//! 2. append one checksummed line naming the segment to `MANIFEST` and
//!    **fsync** that.
//!
//! Only after both steps does the store advance its durable floor — the
//! watermark below which every captured interval is sealed on disk — which
//! is what callers feed to [`Journal::reclaim`](../../stream/durable) in
//! place of the raw eviction cutoff. A crash before step 1 completes
//! leaves a file without a valid footer: reopen deletes it and the WAL
//! (never reclaimed past the floor) replays the data. A crash between the
//! steps leaves a valid *orphan* segment: reopen re-validates its footer
//! and adopts it back into the manifest. Either way the data exists in at
//! least one durable place at every instant — the crash-point property
//! test in this module walks every byte boundary of a seal and asserts
//! exactly that.
//!
//! # Degraded operation
//!
//! A failed seal (I/O error, fsync failure, dead disk) never kills the
//! stream: the store goes *sticky degraded* like the WAL journal — it
//! stops accepting intervals (counted, not lost: the WAL keeps them,
//! because the frozen durable floor stops WAL reclaim), counts the
//! failure, and the pipeline keeps mining in memory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use interval_core::{IntervalRecord, SequenceId, SymbolId, SymbolTable, Time};

use durability::record::FRAME_HEADER_LEN;
use durability::{crc32, frame_with, write_all_retrying, RetryPolicy, StdFs, WalFile, WalFs};

use crate::format::{begin_image, finish_image, Footer, ParsedSegment, SeqEntry};
use crate::SegmentError;

/// Name of the manifest file inside a segment directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Default seal threshold: buffered evicted intervals are sealed once
/// their estimated framed size reaches this many bytes.
pub const DEFAULT_SEAL_BYTES: usize = 1 << 20;

/// Tuning knobs for a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct SegmentOptions {
    /// Seal once the buffered body bytes reach this threshold.
    pub seal_bytes: usize,
    /// Retry policy for transient write errors during a seal.
    pub retry: RetryPolicy,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            seal_bytes: DEFAULT_SEAL_BYTES,
            retry: RetryPolicy::default(),
        }
    }
}

/// Counters describing everything a store has sealed, skipped and healed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segments sealed (file + manifest line durable).
    pub segments_sealed: u64,
    /// Interval records sealed across all segments.
    pub records_sealed: u64,
    /// Bytes written across all sealed segment files.
    pub bytes_sealed: u64,
    /// Seals that failed; the store is sticky-degraded after the first.
    pub seal_failures: u64,
    /// Intervals offered after degradation and skipped (still WAL-held).
    pub appends_skipped: u64,
    /// Valid orphan segments adopted back into the manifest on open
    /// (crash landed between the seal's two steps).
    pub segments_adopted: u64,
    /// Invalid partial segment files deleted on open (crash mid-write).
    pub partials_deleted: u64,
    /// Manifest-listed segments that failed footer validation on open —
    /// excluded from the live set, left on disk for forensics.
    pub segments_corrupt: u64,
    /// Manifest-listed segments missing from the directory.
    pub segments_missing: u64,
    /// Manifest lines dropped at open (bad checksum or torn tail).
    pub manifest_lines_dropped: u64,
    /// Total wall-clock microseconds spent inside seals.
    pub seal_micros: u64,
}

/// One live sealed segment, as tracked by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name within the segment directory (`{epoch:08}.seg`).
    pub file: String,
    /// The epoch number encoded in the file name.
    pub epoch: u64,
    /// Interval records in the segment.
    pub records: u64,
    /// Smallest interval start.
    pub min_start: Time,
    /// Smallest interval end.
    pub min_end: Time,
    /// Largest interval end.
    pub max_end: Time,
}

impl SegmentMeta {
    /// Renders this segment's manifest line (including its checksum).
    pub fn manifest_line(&self) -> String {
        let prefix = format!(
            "{} {} {} {} {}",
            self.file, self.records, self.min_start, self.min_end, self.max_end
        );
        let crc = crc32(prefix.as_bytes());
        format!("{prefix} {crc}\n")
    }

    /// Parses one manifest line, verifying its checksum.
    pub fn parse_manifest_line(line: &str) -> Option<SegmentMeta> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [file, records, min_start, min_end, max_end, crc] = fields.as_slice() else {
            return None;
        };
        let prefix = format!("{file} {records} {min_start} {min_end} {max_end}");
        if crc.parse::<u32>().ok()? != crc32(prefix.as_bytes()) {
            return None;
        }
        Some(SegmentMeta {
            file: (*file).to_owned(),
            epoch: epoch_of(file)?,
            records: records.parse().ok()?,
            min_start: min_start.parse().ok()?,
            min_end: min_end.parse().ok()?,
            max_end: max_end.parse().ok()?,
        })
    }
}

/// The epoch encoded in a `{epoch:08}.seg` file name, if it is one.
pub fn epoch_of(file: &str) -> Option<u64> {
    file.strip_suffix(".seg")?.parse().ok()
}

/// Parses manifest bytes: entries up to the first bad line. A bad *final*
/// line is the torn-tail shape of a crash mid-append and is silently
/// truncated; bad lines with valid lines after them count as dropped too —
/// the store trusts only the clean prefix, exactly like WAL replay.
pub fn parse_manifest(bytes: &[u8]) -> (Vec<SegmentMeta>, u64) {
    let text = String::from_utf8_lossy(bytes);
    let mut entries = Vec::new();
    let mut dropped = 0u64;
    let mut stopped = false;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if stopped {
            dropped += 1;
            continue;
        }
        match SegmentMeta::parse_manifest_line(line) {
            Some(meta) => entries.push(meta),
            None => {
                dropped += 1;
                stopped = true;
            }
        }
    }
    (entries, dropped)
}

/// One buffered evicted interval awaiting its seal. `name` is the id of
/// its symbol in the store's name table until the seal ranks the names,
/// and the symbol's rank by name from then on.
#[derive(Debug, Clone, Copy)]
struct Pending {
    sequence: SequenceId,
    start: Time,
    end: Time,
    name: u32,
}

/// The segment store writer: buffers intervals evicted from the sliding
/// window and seals them into immutable segment files (see the module
/// docs for the protocol and `docs/STORAGE.md` for the file format).
#[derive(Debug)]
pub struct SegmentStore<F: WalFs = StdFs> {
    fs: F,
    dir: PathBuf,
    options: SegmentOptions,
    pending: Vec<Pending>,
    /// The symbols of `pending`, each copied once; cleared at each seal.
    names: SymbolTable,
    /// Estimated framed size of `pending` (drives the seal trigger only;
    /// exact sizes are counted at seal time).
    pending_bytes: usize,
    /// Smallest `end` in `pending` (`Time::MAX` when it is empty).
    pending_min_end: Time,
    next_epoch: u64,
    segments: Vec<SegmentMeta>,
    /// Watermark below which every captured interval is sealed durable.
    durable_floor: Option<Time>,
    degraded: Option<String>,
    stats: SegmentStats,
}

impl SegmentStore<StdFs> {
    /// Opens (or creates) a segment store on the real filesystem.
    pub fn open(dir: impl Into<PathBuf>, options: SegmentOptions) -> Result<Self, SegmentError> {
        Self::open_with(StdFs, dir, options)
    }
}

impl<F: WalFs> SegmentStore<F> {
    /// Opens (or creates) a segment store over an explicit filesystem —
    /// fault-injection tests pass `durability::FaultyFs` here.
    ///
    /// Opening *recovers*: partial segment files (no valid footer — a
    /// crash mid-seal) are deleted, valid segments missing from the
    /// manifest (a crash between seal steps) are adopted back, and
    /// manifest lines past the first bad checksum are dropped.
    pub fn open_with(
        fs: F,
        dir: impl Into<PathBuf>,
        options: SegmentOptions,
    ) -> Result<Self, SegmentError> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        let mut stats = SegmentStats::default();

        let manifest_bytes = match fs.read(&dir.join(MANIFEST_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (listed, dropped) = parse_manifest(&manifest_bytes);
        stats.manifest_lines_dropped = dropped;

        let mut on_disk: Vec<String> = Vec::new();
        for path in fs.list(&dir)? {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if epoch_of(name).is_some() {
                    on_disk.push(name.to_owned());
                }
            }
        }
        on_disk.sort();

        let listed_files: Vec<String> = listed.iter().map(|m| m.file.clone()).collect();
        let mut segments: Vec<SegmentMeta> = Vec::new();
        for meta in listed {
            if !on_disk.contains(&meta.file) {
                stats.segments_missing += 1;
                continue;
            }
            match validate_file(&fs, &dir, &meta.file) {
                Ok(_) => segments.push(meta),
                Err(_) => stats.segments_corrupt += 1,
            }
        }
        // Orphans: on disk with a valid footer but not in the manifest —
        // the signature of a crash after step 1 of a seal. Adopt them.
        // Files that fail validation are partial writes; delete them (the
        // WAL still holds their data). Manifest-listed files are never
        // orphans: a listed-but-corrupt segment is excluded above and kept
        // on disk for forensics.
        let mut adopted: Vec<SegmentMeta> = Vec::new();
        for file in &on_disk {
            if listed_files.contains(file) || segments.iter().any(|m| &m.file == file) {
                continue;
            }
            match validate_file(&fs, &dir, file) {
                Ok(footer) => {
                    adopted.push(SegmentMeta {
                        file: file.clone(),
                        epoch: epoch_of(file).unwrap_or(0),
                        records: footer.records,
                        min_start: footer.min_start,
                        min_end: footer.min_end,
                        max_end: footer.max_end,
                    });
                }
                Err(_) => {
                    fs.remove_file(&dir.join(file))?;
                    stats.partials_deleted += 1;
                }
            }
        }
        if !adopted.is_empty() {
            let mut retries = 0u64;
            let mut manifest = fs.open_append(&dir.join(MANIFEST_FILE))?;
            for meta in &adopted {
                write_all_retrying(
                    &mut manifest,
                    meta.manifest_line().as_bytes(),
                    &options.retry,
                    &mut retries,
                )?;
            }
            manifest.sync()?;
            stats.segments_adopted = adopted.len() as u64;
            segments.extend(adopted);
        }
        segments.sort_by_key(|m| m.epoch);
        // Seal past every epoch the manifest names or the directory holds,
        // not just the valid ones: a quarantined or missing segment keeps
        // its file name, so a seal never appends onto it or lists it twice.
        let next_epoch = listed_files
            .iter()
            .chain(&on_disk)
            .filter_map(|file| epoch_of(file))
            .map(|epoch| epoch + 1)
            .max()
            .unwrap_or(0);

        Ok(SegmentStore {
            fs,
            dir,
            options,
            pending: Vec::new(),
            names: SymbolTable::new(),
            pending_bytes: 0,
            pending_min_end: Time::MAX,
            next_epoch,
            segments,
            durable_floor: None,
            degraded: None,
            stats,
        })
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live sealed segments, ascending by epoch.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Seal and recovery counters.
    pub fn stats(&self) -> &SegmentStats {
        &self.stats
    }

    /// Whether a failed seal has stuck the store in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Why the store degraded, if it did.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Intervals buffered but not yet sealed.
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// The watermark below which every interval handed to this store is
    /// sealed and fsynced, if any seal has completed.
    pub fn sealed_through(&self) -> Option<Time> {
        self.durable_floor
    }

    /// Buffers one completed interval evicted from (or dropped late by)
    /// the window. Returns `false` when the store is degraded and the
    /// interval was skipped (the WAL still holds it — the frozen durable
    /// floor stops reclaim).
    pub fn append(&mut self, sequence: SequenceId, symbol: &str, start: Time, end: Time) -> bool {
        if self.degraded.is_some() {
            self.stats.appends_skipped += 1;
            return false;
        }
        // Frame header + event tag + sequence + symbol-length prefix +
        // symbol + two times: close enough for a seal trigger.
        self.pending_bytes += FRAME_HEADER_LEN + 29 + symbol.len();
        self.pending_min_end = self.pending_min_end.min(end);
        let name = self.names.intern(symbol).0;
        self.pending.push(Pending {
            sequence,
            start,
            end,
            name,
        });
        true
    }

    /// Empties the pending buffer and its name table.
    fn clear_pending(&mut self) {
        self.pending.clear();
        self.names = SymbolTable::new();
        self.pending_bytes = 0;
        self.pending_min_end = Time::MAX;
    }

    /// Seals the buffered intervals if they crossed the size threshold.
    /// Returns whether a seal ran (successfully or not).
    pub fn maybe_seal(&mut self) -> bool {
        if self.pending.is_empty() || self.pending_bytes < self.options.seal_bytes {
            return false;
        }
        self.seal();
        true
    }

    /// Seals every buffered interval now (e.g. at shutdown), regardless of
    /// the size threshold. Returns `false` when the seal failed and the
    /// store degraded.
    pub fn seal(&mut self) -> bool {
        if self.pending.is_empty() || self.degraded.is_some() {
            return self.degraded.is_none();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "each fsync-backed seal is timed (`seal_micros`) so operators can spot slow disks: the segment crate's one sanctioned clock read"
        )]
        let started = Instant::now();
        let result = self.try_seal();
        self.stats.seal_micros += started.elapsed().as_micros() as u64;
        match result {
            Ok(()) => true,
            Err(e) => {
                // Sticky degradation: drop the buffer (the WAL keeps the
                // data because the durable floor stops advancing), stop
                // accepting, keep mining.
                self.stats.seal_failures += 1;
                self.degraded = Some(e.to_string());
                self.clear_pending();
                false
            }
        }
    }

    /// The WAL reclaim watermark implied by this store's durable state:
    /// never past an interval that is still only in the WAL. Healthy with
    /// nothing buffered → the caller's eviction `cutoff` unchanged;
    /// buffered intervals hold it back to their earliest end; degraded →
    /// frozen at the last durable floor.
    pub fn reclaim_bound(&mut self, cutoff: Time) -> Time {
        if self.degraded.is_some() {
            return self.durable_floor.unwrap_or(Time::MIN);
        }
        let bound = self.pending_min_end.min(cutoff);
        // Remember the high-water mark so a later failed seal freezes the
        // floor here rather than at MIN.
        self.durable_floor = Some(self.durable_floor.map_or(bound, |f| f.max(bound)));
        bound
    }

    fn try_seal(&mut self) -> Result<(), SegmentError> {
        // Deterministic layout: group by sequence id ascending, intervals
        // sorted by (start, end, symbol) within each run — independent of
        // eviction order, so a re-run or a restarted stream seals
        // byte-identical segments from the same events. Names are ranked
        // once, so the sort compares integers only.
        let names = &self.names;
        let (by_name, rank) = rank_names(names);
        for p in &mut self.pending {
            p.name = rank[p.name as usize];
        }
        // Each watermark spills its evictions in sequence order, so the
        // buffer is a few runs already sorted by sequence. The stable sort
        // finds and merges those runs; each sequence's intervals are then
        // sorted alone. That takes half the time of one sort on the whole
        // key and gives the same order (equal keys are equal records).
        self.pending.sort_by_key(|p| p.sequence);
        let mut runs = 0;
        for run in self.pending.chunk_by_mut(|a, b| a.sequence == b.sequence) {
            run.sort_unstable_by_key(|p| (p.start, p.end, p.name));
            runs += 1;
        }
        let record = |p: &Pending| IntervalRecord {
            sequence: p.sequence,
            symbol: names.name(by_name[p.name as usize]),
            start: p.start,
            end: p.end,
        };
        // The body is framed straight into an image sized exactly for it
        // (`pending_bytes` is only the trigger's estimate).
        let body_bytes = self
            .pending
            .iter()
            .map(|p| FRAME_HEADER_LEN + record(p).encoded_len())
            .sum();
        let mut image = begin_image(body_bytes, runs);
        let body_start = image.len();
        let mut entries: Vec<SeqEntry> = Vec::with_capacity(runs);
        let mut min_start = Time::MAX;
        let mut max_end = Time::MIN;
        for p in &self.pending {
            let offset = (image.len() - body_start) as u64;
            let record = record(p);
            frame_with(&mut image, |out| record.encode(out));
            min_start = min_start.min(p.start);
            max_end = max_end.max(p.end);
            let len = (image.len() - body_start) as u64;
            match entries.last_mut() {
                Some(entry) if entry.sequence == p.sequence => {
                    entry.len = len - entry.offset;
                    entry.count += 1;
                }
                _ => entries.push(SeqEntry {
                    sequence: p.sequence,
                    offset,
                    len: len - offset,
                    count: 1,
                }),
            }
        }
        let records = self.pending.len() as u64;
        let min_end = self.pending_min_end;
        let footer = Footer {
            min_start,
            min_end,
            max_end,
            records,
            sequences: entries,
        };
        finish_image(&mut image, &footer);
        let file = format!("{:08}.seg", self.next_epoch);
        let meta = SegmentMeta {
            file: file.clone(),
            epoch: self.next_epoch,
            records,
            min_start,
            min_end,
            max_end,
        };

        // Step 1: the segment file, fully written and fsynced.
        let mut retries = 0u64;
        let mut seg = self.fs.open_append(&self.dir.join(&file))?;
        write_all_retrying(&mut seg, &image, &self.options.retry, &mut retries)?;
        seg.sync()?;
        // Step 2: the manifest line, appended and fsynced. A crash between
        // the steps leaves a valid orphan that reopen adopts.
        let mut manifest = self.fs.open_append(&self.dir.join(MANIFEST_FILE))?;
        write_all_retrying(
            &mut manifest,
            meta.manifest_line().as_bytes(),
            &self.options.retry,
            &mut retries,
        )?;
        manifest.sync()?;

        self.stats.segments_sealed += 1;
        self.stats.records_sealed += records;
        self.stats.bytes_sealed += image.len() as u64;
        self.next_epoch += 1;
        self.segments.push(meta);
        self.clear_pending();
        Ok(())
    }
}

/// Ranks the names of `names` in byte order: `by_name[r]` is the id of
/// the `r`-th smallest name and `rank[id]` is that id's rank, so sorting
/// on ranks orders records exactly as sorting on their names would.
pub(crate) fn rank_names(names: &SymbolTable) -> (Vec<SymbolId>, Vec<u32>) {
    let mut by_name: Vec<SymbolId> = (0..names.len() as u32).map(SymbolId).collect();
    by_name.sort_unstable_by_key(|&id| names.name(id));
    let mut rank = vec![0u32; by_name.len()];
    for (r, id) in by_name.iter().enumerate() {
        rank[id.index()] = r as u32;
    }
    (by_name, rank)
}

/// Reads and validates one segment file's footer.
fn validate_file<F: WalFs>(fs: &F, dir: &Path, file: &str) -> Result<Footer, SegmentError> {
    let bytes = fs.read(&dir.join(file))?;
    Ok(ParsedSegment::parse(&bytes)?.footer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use durability::{FaultPlan, FaultyFs};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "segment-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_options() -> SegmentOptions {
        SegmentOptions {
            seal_bytes: 1, // every maybe_seal fires
            retry: RetryPolicy::none(),
        }
    }

    fn fill(store: &mut SegmentStore<impl WalFs>, n: u64) {
        for i in 0..n {
            store.append(i % 3, "sym", i as Time, i as Time + 5);
        }
    }

    #[test]
    fn seal_then_reopen_round_trips_the_manifest() {
        let dir = temp_dir("roundtrip");
        let mut store = SegmentStore::open(&dir, tiny_options()).unwrap();
        fill(&mut store, 10);
        assert!(store.seal());
        fill(&mut store, 4);
        assert!(store.seal());
        assert_eq!(store.segments().len(), 2);
        assert_eq!(store.stats().records_sealed, 14);

        let reopened = SegmentStore::open(&dir, tiny_options()).unwrap();
        assert_eq!(reopened.segments(), store.segments());
        assert_eq!(reopened.stats().segments_adopted, 0);
        assert_eq!(reopened.stats().partials_deleted, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ties_on_sequence_start_and_end_seal_in_symbol_order() {
        // `zeta` is seen first and gets the store's first name id, but
        // sorts last: the seal orders by name, not by first sight.
        let seal_of = |records: &[(SequenceId, &str, Time, Time)]| {
            let dir = temp_dir("ties");
            let mut store = SegmentStore::open(&dir, tiny_options()).unwrap();
            for &(sequence, symbol, start, end) in records {
                store.append(sequence, symbol, start, end);
            }
            assert!(store.seal());
            let bytes = std::fs::read(dir.join("00000000.seg")).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        };
        let seen = seal_of(&[(2, "b", 1, 3), (1, "zeta", 0, 5), (1, "alpha", 0, 5)]);
        let parsed = ParsedSegment::parse(&seen).unwrap();
        let mut order = Vec::new();
        for entry in &parsed.footer.sequences {
            parsed
                .visit_records(entry, |symbol, start, end| {
                    order.push((entry.sequence, symbol, start, end))
                })
                .unwrap();
        }
        assert_eq!(
            order,
            [(1, "alpha", 0, 5), (1, "zeta", 0, 5), (2, "b", 1, 3)]
        );
        let reversed = seal_of(&[(1, "alpha", 0, 5), (1, "zeta", 0, 5), (2, "b", 1, 3)]);
        assert_eq!(seen, reversed, "a seal is a function of its records");
    }

    #[test]
    fn orphan_segment_is_adopted_on_reopen() {
        let dir = temp_dir("orphan");
        let mut store = SegmentStore::open(&dir, tiny_options()).unwrap();
        fill(&mut store, 6);
        assert!(store.seal());
        // Simulate a crash between seal steps: the manifest vanishes but
        // the sealed file (valid footer) survives.
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let reopened = SegmentStore::open(&dir, tiny_options()).unwrap();
        assert_eq!(reopened.stats().segments_adopted, 1);
        assert_eq!(reopened.segments().len(), 1);
        assert_eq!(reopened.segments()[0].records, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_segment_is_deleted_on_reopen() {
        let dir = temp_dir("partial");
        // A torn write: half a segment with no valid trailer.
        std::fs::write(dir.join("00000000.seg"), b"PTSEG001torn-mid-write").unwrap();
        let store = SegmentStore::open(&dir, tiny_options()).unwrap();
        assert_eq!(store.stats().partials_deleted, 1);
        assert!(store.segments().is_empty());
        assert!(!dir.join("00000000.seg").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_listed_segment_is_excluded_not_deleted() {
        let dir = temp_dir("corrupt");
        let mut store = SegmentStore::open(&dir, tiny_options()).unwrap();
        fill(&mut store, 6);
        assert!(store.seal());
        let file = dir.join(&store.segments()[0].file);
        // Flip a byte in the footer region.
        let mut bytes = std::fs::read(&file).unwrap();
        let at = bytes.len() - 20;
        bytes[at] ^= 0xFF;
        std::fs::write(&file, &bytes).unwrap();
        let reopened = SegmentStore::open(&dir, tiny_options()).unwrap();
        assert_eq!(reopened.stats().segments_corrupt, 1);
        assert!(reopened.segments().is_empty());
        assert!(file.exists(), "corrupt segments are kept for forensics");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_tail_is_truncated_silently() {
        let dir = temp_dir("torn-manifest");
        let mut store = SegmentStore::open(&dir, tiny_options()).unwrap();
        fill(&mut store, 6);
        assert!(store.seal());
        // Append half a line, as a crash mid-manifest-append would.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(MANIFEST_FILE))
            .unwrap();
        f.write_all(b"00000001.seg 3 0").unwrap();
        drop(f);
        let reopened = SegmentStore::open(&dir, tiny_options()).unwrap();
        assert_eq!(reopened.stats().manifest_lines_dropped, 1);
        assert_eq!(reopened.segments().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_seal_degrades_and_freezes_the_reclaim_bound() {
        let dir = temp_dir("degrade");
        let fs = FaultyFs::new(FaultPlan {
            fail_syncs: u32::MAX,
            ..FaultPlan::default()
        });
        let mut store = SegmentStore::open_with(fs, &dir, tiny_options()).unwrap();
        store.append(1, "a", 0, 10);
        assert_eq!(store.reclaim_bound(50), 10, "pending holds the bound");
        assert!(!store.seal(), "fsync failure fails the seal");
        assert!(store.is_degraded());
        assert_eq!(store.stats().seal_failures, 1);
        // Frozen: later cutoffs cannot advance reclaim past the floor.
        assert_eq!(store.reclaim_bound(1_000), 10);
        assert!(!store.append(2, "b", 20, 30), "degraded store skips");
        assert_eq!(store.stats().appends_skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reclaim_bound_tracks_cutoff_when_everything_is_sealed() {
        let dir = temp_dir("bound");
        let mut store = SegmentStore::open(&dir, tiny_options()).unwrap();
        assert_eq!(store.reclaim_bound(40), 40, "empty store: cutoff passes");
        store.append(1, "a", 0, 10);
        assert_eq!(store.reclaim_bound(40), 10);
        assert!(store.seal());
        assert_eq!(store.reclaim_bound(40), 40);
        assert_eq!(store.sealed_through(), Some(40));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_mid_seal_leaves_wal_replayable_state_or_a_valid_segment() {
        // The crash-point walk behind the seal protocol's invariant: for
        // every byte boundary at which the disk can die during a seal,
        // reopening must find either (a) no live segment (partial deleted
        // — the WAL, never reclaimed past the floor, still has the data)
        // or (b) exactly the sealed segment with all records — never a
        // half-segment, never both states at once.
        let probe_dir = temp_dir("probe");
        let mut probe = SegmentStore::open(&probe_dir, tiny_options()).unwrap();
        fill(&mut probe, 8);
        assert!(probe.seal());
        let full_image_len = std::fs::metadata(probe_dir.join("00000000.seg"))
            .unwrap()
            .len();
        let manifest_len = std::fs::metadata(probe_dir.join(MANIFEST_FILE))
            .unwrap()
            .len();
        std::fs::remove_dir_all(&probe_dir).ok();
        let total = full_image_len + manifest_len;

        for cliff in 0..=total {
            let dir = temp_dir(&format!("crash-{cliff}"));
            let fs = FaultyFs::new(FaultPlan {
                crash_after_bytes: Some(cliff),
                ..FaultPlan::default()
            });
            let mut store = SegmentStore::open_with(fs, &dir, tiny_options()).unwrap();
            fill(&mut store, 8);
            let sealed = store.seal();
            let floor_frozen = store.reclaim_bound(1_000);
            if !sealed {
                assert!(
                    floor_frozen <= 7 + 5,
                    "failed seal must not release the WAL past the earliest pending end"
                );
            }
            drop(store);

            let reopened = SegmentStore::open(&dir, SegmentOptions::default()).unwrap();
            match reopened.segments() {
                [] => {
                    // WAL-replayable state: nothing half-sealed survived.
                    assert!(!sealed, "a successful seal cannot vanish");
                }
                [meta] => {
                    // A surviving segment is always the complete one —
                    // whether the seal finished, the crash left a valid
                    // orphan that reopen adopted, or the crash ate only
                    // the manifest line's trailing newline (the line's
                    // checksum covers everything before it, so the entry
                    // still parses). Never a half-segment.
                    assert_eq!(meta.records, 8, "a surviving segment is complete");
                }
                more => panic!("one seal produced {} segments", more.len()),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
