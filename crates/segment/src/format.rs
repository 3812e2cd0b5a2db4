//! The on-disk segment file format.
//!
//! A sealed segment is immutable and self-validating:
//!
//! ```text
//! ┌──────────────┬─────────────────────────────┬──────────────┬─────────────────────────┐
//! │ magic (8 B)  │ body: framed interval       │ footer frame │ trailer (12 B)          │
//! │ "PTSEG001"   │ records, grouped by         │ [len][crc]   │ footer_frame_len: u32 LE│
//! │              │ sequence id ascending       │ [payload]    │ magic "PTSEGFTR" (8 B)  │
//! └──────────────┴─────────────────────────────┴──────────────┴─────────────────────────┘
//! ```
//!
//! Body records reuse the WAL's CRC-32 framing and record codec verbatim
//! ([`durability::frame_with`] around an [`IntervalRecord`]): each is the
//! bytes of one framed [`StreamEvent::Interval`], so the same slicing-by-8
//! checksum and the same frame checks ([`durability::frame_payload`])
//! guard both the hot log and the cold store. The footer is a single frame
//! in the same `[len][crc][payload]` shape whose payload indexes the body
//! **per sequence** — `(sequence id, byte offset, byte length, record
//! count)` — so a reader can rebuild one sequence's endpoint index without
//! touching the rest of the file (out-of-core spill-and-reload). The fixed-size trailer lets a reader
//! find the footer from the end of the file without scanning the body.
//!
//! A file missing its trailer, footer CRC, or header magic is *not a
//! segment*: seals write body-then-footer-then-trailer, so any crash
//! mid-seal leaves a file this module refuses to validate, and recovery
//! deletes it (the data is still WAL-replayable — the WAL is only
//! reclaimed past epochs whose segments validated; see `docs/STORAGE.md`).

use interval_core::{IntervalRecord, SequenceId, StreamEvent, Time};

use durability::record::FRAME_HEADER_LEN;
use durability::{crc32, frame_payload};

use crate::SegmentError;

/// Leading file magic: "PTSEG001" (the trailing digits version the layout).
pub const SEGMENT_MAGIC: &[u8; 8] = b"PTSEG001";
/// Trailing file magic, after the footer-length word.
pub const TRAILER_MAGIC: &[u8; 8] = b"PTSEGFTR";
/// Bytes of the fixed trailer: `footer_frame_len: u32 LE` + trailer magic.
pub const TRAILER_LEN: usize = 4 + TRAILER_MAGIC.len();
/// Footer payload version written by this crate.
pub const FOOTER_VERSION: u32 = 1;

/// Reads a little-endian `u32` from the first 4 bytes of `bytes`.
/// Callers guarantee the length; a short slice trips the slice bound.
fn u32_at(bytes: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(buf)
}

/// Reads a little-endian `u64` from the first 8 bytes of `bytes`.
fn u64_at(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(buf)
}

/// Reads a little-endian [`Time`] from the first 8 bytes of `bytes`.
fn time_at(bytes: &[u8]) -> Time {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    Time::from_le_bytes(buf)
}

/// Per-sequence body index entry: where one sequence's framed interval
/// records live inside the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqEntry {
    /// The sequence id.
    pub sequence: SequenceId,
    /// Byte offset of the sequence's first frame, relative to the start of
    /// the body (i.e. just after the leading magic).
    pub offset: u64,
    /// Byte length of the sequence's frames.
    pub len: u64,
    /// Number of interval records in the run.
    pub count: u64,
}

/// The decoded footer of one sealed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// Smallest interval start in the segment.
    pub min_start: Time,
    /// Smallest interval end in the segment (range queries filter segments
    /// by `[min_end, max_end]` against the requested `[from, to]`).
    pub min_end: Time,
    /// Largest interval end in the segment.
    pub max_end: Time,
    /// Total interval records in the body.
    pub records: u64,
    /// Per-sequence body index, ascending by sequence id.
    pub sequences: Vec<SeqEntry>,
}

impl Footer {
    /// Encodes the footer payload (everything inside the footer frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(44 + self.sequences.len() * 32);
        out.extend_from_slice(&FOOTER_VERSION.to_le_bytes());
        out.extend_from_slice(&self.min_start.to_le_bytes());
        out.extend_from_slice(&self.min_end.to_le_bytes());
        out.extend_from_slice(&self.max_end.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&(self.sequences.len() as u64).to_le_bytes());
        for entry in &self.sequences {
            out.extend_from_slice(&entry.sequence.to_le_bytes());
            out.extend_from_slice(&entry.offset.to_le_bytes());
            out.extend_from_slice(&entry.len.to_le_bytes());
            out.extend_from_slice(&entry.count.to_le_bytes());
        }
        out
    }

    /// Decodes a footer payload (CRC already checked by the frame).
    pub fn decode(bytes: &[u8]) -> Result<Footer, SegmentError> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], SegmentError> {
            let slice = bytes
                .get(pos..pos + n)
                .ok_or_else(|| SegmentError::corrupt("footer payload truncated"))?;
            pos += n;
            Ok(slice)
        };
        let version = u32_at(take(4)?);
        if version != FOOTER_VERSION {
            return Err(SegmentError::corrupt(format!(
                "unsupported footer version {version}"
            )));
        }
        let min_start = time_at(take(8)?);
        let min_end = time_at(take(8)?);
        let max_end = time_at(take(8)?);
        let records = u64_at(take(8)?);
        let seq_count = u64_at(take(8)?);
        // A count that cannot fit in the payload is a corrupt length field,
        // not an allocation request.
        if seq_count > (bytes.len() as u64) / 32 + 1 {
            return Err(SegmentError::corrupt(format!(
                "footer claims {seq_count} sequences in a {}-byte payload",
                bytes.len()
            )));
        }
        let mut sequences = Vec::with_capacity(seq_count as usize);
        for _ in 0..seq_count {
            sequences.push(SeqEntry {
                sequence: u64_at(take(8)?),
                offset: u64_at(take(8)?),
                len: u64_at(take(8)?),
                count: u64_at(take(8)?),
            });
        }
        if pos != bytes.len() {
            return Err(SegmentError::corrupt("footer payload has trailing bytes"));
        }
        Ok(Footer {
            min_start,
            min_end,
            max_end,
            records,
            sequences,
        })
    }
}

/// Starts a segment image: the leading magic, with room for `body_bytes`
/// of framed records and the footer of `sequences` runs, so appending the
/// body and then [`finish_image`] never reallocates (and never copies the
/// body).
pub fn begin_image(body_bytes: usize, sequences: usize) -> Vec<u8> {
    let footer_frame = FRAME_HEADER_LEN + 44 + 32 * sequences;
    let mut image =
        Vec::with_capacity(SEGMENT_MAGIC.len() + body_bytes + footer_frame + TRAILER_LEN);
    image.extend_from_slice(SEGMENT_MAGIC);
    image
}

/// Completes an image that [`begin_image`] started and the caller extended
/// by its framed interval records: appends the framed footer and the
/// trailer in place. `footer` must describe the body (offsets relative to
/// the body start, just after the magic).
pub fn finish_image(image: &mut Vec<u8>, footer: &Footer) {
    let payload = footer.encode();
    let frame_len = FRAME_HEADER_LEN + payload.len();
    image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    image.extend_from_slice(&crc32(&payload).to_le_bytes());
    image.extend_from_slice(&payload);
    image.extend_from_slice(&(frame_len as u32).to_le_bytes());
    image.extend_from_slice(TRAILER_MAGIC);
}

/// A validated in-memory segment image: the decoded footer plus the byte
/// range of the body within the image.
#[derive(Debug)]
pub struct ParsedSegment<'a> {
    /// The decoded, CRC-checked footer.
    pub footer: Footer,
    /// The framed body records (between magic and footer).
    pub body: &'a [u8],
}

impl<'a> ParsedSegment<'a> {
    /// Validates `bytes` as a sealed segment: header magic, trailer magic,
    /// footer frame CRC, payload decode, and per-sequence index bounds.
    /// Everything short of re-scanning the body records — that happens per
    /// sequence, on demand, in [`ParsedSegment::visit_records`].
    pub fn parse(bytes: &'a [u8]) -> Result<ParsedSegment<'a>, SegmentError> {
        let min_len = SEGMENT_MAGIC.len() + TRAILER_LEN;
        if bytes.len() < min_len {
            return Err(SegmentError::corrupt(format!(
                "{} bytes is too short to be a segment",
                bytes.len()
            )));
        }
        if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(SegmentError::corrupt("bad segment magic"));
        }
        let trailer = &bytes[bytes.len() - TRAILER_LEN..];
        if &trailer[4..] != TRAILER_MAGIC {
            return Err(SegmentError::corrupt(
                "bad trailer magic (crash mid-seal or truncation)",
            ));
        }
        let frame_len = u32_at(trailer) as usize;
        let body_end = bytes
            .len()
            .checked_sub(TRAILER_LEN + frame_len)
            .filter(|&e| e >= SEGMENT_MAGIC.len())
            .ok_or_else(|| SegmentError::corrupt("footer length exceeds file"))?;
        let frame = &bytes[body_end..bytes.len() - TRAILER_LEN];
        if frame.len() < FRAME_HEADER_LEN {
            return Err(SegmentError::corrupt("footer frame truncated"));
        }
        let payload_len = u32_at(frame) as usize;
        if FRAME_HEADER_LEN + payload_len != frame.len() {
            return Err(SegmentError::corrupt("footer frame length mismatch"));
        }
        let expected_crc = u32_at(&frame[4..8]);
        let payload = &frame[FRAME_HEADER_LEN..];
        if crc32(payload) != expected_crc {
            return Err(SegmentError::corrupt("footer CRC mismatch"));
        }
        let footer = Footer::decode(payload)?;
        let body = &bytes[SEGMENT_MAGIC.len()..body_end];
        for entry in &footer.sequences {
            let in_bounds = entry
                .offset
                .checked_add(entry.len)
                .is_some_and(|end| end <= body.len() as u64);
            if !in_bounds {
                return Err(SegmentError::corrupt(format!(
                    "sequence {} index points outside the body",
                    entry.sequence
                )));
            }
        }
        Ok(ParsedSegment { footer, body })
    }

    /// Decodes one sequence's body run in place, checking every frame: the
    /// record length cap, the CRC, the payload (symbol length cap, UTF-8,
    /// `start < end`), that the record belongs to `entry.sequence`, and that
    /// the run holds exactly the footer's count. Hands each record's
    /// `(symbol, start, end)` to `visit`, the symbol borrowed from the
    /// image, so nothing is allocated per record.
    pub fn visit_records(
        &self,
        entry: &SeqEntry,
        mut visit: impl FnMut(&'a str, Time, Time),
    ) -> Result<(), SegmentError> {
        let body: &'a [u8] = self.body;
        let run = &body[entry.offset as usize..(entry.offset + entry.len) as usize];
        let corrupt = |pos: usize, reason: String| {
            SegmentError::corrupt(format!(
                "sequence {} run corrupt at offset {pos}: {reason}",
                entry.sequence
            ))
        };
        let mut pos = 0usize;
        let mut decoded = 0u64;
        while pos < run.len() {
            let Some(payload) = frame_payload(run, pos).map_err(|reason| corrupt(pos, reason))?
            else {
                break; // torn tail: reported by the count check below
            };
            let record = match IntervalRecord::decode(payload) {
                Ok(record) if record.sequence == entry.sequence => record,
                Ok(record) => return Err(foreign(entry, &record.to_event())),
                // Cold path: a well-formed record of another kind is
                // foreign; anything else is undecodable.
                Err(_) => match StreamEvent::decode(payload) {
                    Ok(other) => return Err(foreign(entry, &other)),
                    Err(err) => return Err(corrupt(pos, format!("undecodable payload: {err}"))),
                },
            };
            visit(record.symbol, record.start, record.end);
            decoded += 1;
            pos += FRAME_HEADER_LEN + payload.len();
        }
        if pos < run.len() || decoded != entry.count {
            return Err(SegmentError::corrupt(format!(
                "sequence {} run decoded {decoded} records, footer promised {}",
                entry.sequence, entry.count
            )));
        }
        Ok(())
    }
}

/// The error for a record in `entry`'s run that is not one of its
/// intervals.
fn foreign(entry: &SeqEntry, record: &StreamEvent) -> SegmentError {
    SegmentError::corrupt(format!(
        "sequence {} run holds a foreign record {record:?}",
        entry.sequence
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use durability::frame_record;

    fn sample_image() -> Vec<u8> {
        let mut body = Vec::new();
        let mut entries = Vec::new();
        for (seq, runs) in [
            (3u64, vec![("a", 0, 5), ("b", 2, 9)]),
            (7, vec![("a", 4, 8)]),
        ] {
            let offset = body.len() as u64;
            for (symbol, start, end) in &runs {
                frame_record(
                    &StreamEvent::Interval {
                        sequence: seq,
                        symbol: (*symbol).into(),
                        start: *start,
                        end: *end,
                    },
                    &mut body,
                );
            }
            entries.push(SeqEntry {
                sequence: seq,
                offset,
                len: body.len() as u64 - offset,
                count: runs.len() as u64,
            });
        }
        let footer = Footer {
            min_start: 0,
            min_end: 5,
            max_end: 9,
            records: 3,
            sequences: entries,
        };
        let mut image = begin_image(body.len(), footer.sequences.len());
        image.extend_from_slice(&body);
        finish_image(&mut image, &footer);
        image
    }

    /// The `(symbol, start, end)` records of the `index`-th sequence run.
    fn records<'a>(
        parsed: &ParsedSegment<'a>,
        index: usize,
    ) -> Result<Vec<(&'a str, Time, Time)>, SegmentError> {
        let mut out = Vec::new();
        parsed.visit_records(&parsed.footer.sequences[index], |symbol, start, end| {
            out.push((symbol, start, end))
        })?;
        Ok(out)
    }

    #[test]
    fn round_trips_footer_and_per_sequence_records() {
        let image = sample_image();
        let parsed = ParsedSegment::parse(&image).unwrap();
        assert_eq!(parsed.footer.records, 3);
        assert_eq!(parsed.footer.sequences.len(), 2);
        let first = records(&parsed, 0).unwrap();
        assert_eq!(first, vec![("a", 0, 5), ("b", 2, 9)]);
        let second = records(&parsed, 1).unwrap();
        assert_eq!(second, vec![("a", 4, 8)]);
    }

    #[test]
    fn truncation_anywhere_fails_validation() {
        let image = sample_image();
        for cut in [0, 4, SEGMENT_MAGIC.len(), image.len() - 1, image.len() - 6] {
            assert!(
                ParsedSegment::parse(&image[..cut]).is_err(),
                "cut at {cut} must not validate"
            );
        }
    }

    #[test]
    fn footer_bit_flip_fails_validation() {
        let mut image = sample_image();
        let at = image.len() - TRAILER_LEN - 3;
        image[at] ^= 0x10;
        let err = ParsedSegment::parse(&image).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn body_bit_flip_is_caught_on_sequence_read() {
        let mut image = sample_image();
        // Flip one bit inside the first body frame's payload.
        image[SEGMENT_MAGIC.len() + FRAME_HEADER_LEN + 2] ^= 0x01;
        let parsed = ParsedSegment::parse(&image).unwrap();
        let err = records(&parsed, 0).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut image = sample_image();
        image[0] = b'X';
        assert!(ParsedSegment::parse(&image).is_err());
    }
}
