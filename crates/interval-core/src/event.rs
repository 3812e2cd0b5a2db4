//! Streaming event model for interval data.
//!
//! Batch mining consumes an [`IntervalDatabase`](crate::IntervalDatabase)
//! that is fully materialized up front. Streaming ingestion instead observes
//! a sequence of *events*: an interval's start and finish may arrive as two
//! separate records ([`StreamEvent::Open`] / [`StreamEvent::Close`]), or as
//! one completed record ([`StreamEvent::Interval`]). Progress of event time
//! is communicated out-of-band by [`StreamEvent::Watermark`] records: a
//! watermark `w` is the source's promise that every endpoint at time `< w`
//! has already been delivered, which is what makes window eviction safe.
//!
//! The textual wire format is deliberately line-oriented so streams can be
//! tailed from files or pipes:
//!
//! ```text
//! open      <sequence> <symbol> <time>
//! close     <sequence> <symbol> <time>
//! interval  <sequence> <symbol> <start> <end>
//! watermark <time>
//! ```
//!
//! Blank lines and lines starting with `#` are ignored. Symbols must be
//! non-empty and must not contain whitespace (they are whitespace-delimited
//! on the wire).
//!
//! Parsing ([`StreamEvent::parse_line`]) and rendering
//! ([`Display`](std::fmt::Display)) round-trip:
//!
//! ```
//! use interval_core::StreamEvent;
//!
//! let lines = "\
//! ## one patient's vitals
//! open      7 fever 3
//! interval  7 rash 5 20
//! close     7 fever 12
//! watermark 21
//! ";
//! let events: Vec<StreamEvent> = lines
//!     .lines()
//!     .enumerate()
//!     .filter_map(|(i, line)| StreamEvent::parse_line(line, i + 1).transpose())
//!     .collect::<Result<_, _>>()
//!     .unwrap();
//!
//! assert_eq!(events.len(), 4); // the comment line carries no event
//! assert_eq!(events[1].to_string(), "interval 7 rash 5 20");
//! assert_eq!(events[3], StreamEvent::Watermark(21));
//! ```

use std::fmt;
use std::str::FromStr;

use crate::error::{IntervalError, Result};
use crate::interval::Time;

/// Identifier of a logical sequence (e.g. one patient, one stock) within a
/// stream. Sequence ids are assigned by the source and need not be dense.
pub type SequenceId = u64;

/// One record of an interval event stream.
///
/// See the [module documentation](self) for the wire format and watermark
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StreamEvent {
    /// An interval with the given symbol started at `at` in sequence
    /// `sequence`. The interval stays *open* (end unknown) until a matching
    /// [`StreamEvent::Close`] arrives.
    Open {
        /// Logical sequence the interval belongs to.
        sequence: SequenceId,
        /// Event symbol, e.g. `"fever"`.
        symbol: String,
        /// Start time of the interval.
        at: Time,
    },
    /// The earliest currently-open interval with this symbol in `sequence`
    /// finished at `at`.
    Close {
        /// Logical sequence the interval belongs to.
        sequence: SequenceId,
        /// Event symbol, matching a prior [`StreamEvent::Open`].
        symbol: String,
        /// End time of the interval; must exceed the matched start.
        at: Time,
    },
    /// A completed interval delivered as a single record.
    Interval {
        /// Logical sequence the interval belongs to.
        sequence: SequenceId,
        /// Event symbol.
        symbol: String,
        /// Start time (`start < end`).
        start: Time,
        /// End time.
        end: Time,
    },
    /// Watermark: every endpoint strictly before this time has been
    /// delivered. Watermarks must be non-decreasing.
    Watermark(Time),
}

impl StreamEvent {
    /// The sequence this event belongs to, if any (watermarks are global).
    pub fn sequence(&self) -> Option<SequenceId> {
        match self {
            StreamEvent::Open { sequence, .. }
            | StreamEvent::Close { sequence, .. }
            | StreamEvent::Interval { sequence, .. } => Some(*sequence),
            StreamEvent::Watermark(_) => None,
        }
    }

    /// The latest timestamp mentioned by this event.
    pub fn time(&self) -> Time {
        match self {
            StreamEvent::Open { at, .. } | StreamEvent::Close { at, .. } => *at,
            StreamEvent::Interval { end, .. } => *end,
            StreamEvent::Watermark(at) => *at,
        }
    }

    /// Parses one line of the wire format, skipping blanks and `#` comments.
    ///
    /// Returns `Ok(None)` for lines that carry no event. `line_no` (1-based,
    /// 0 when unknown) is only used to annotate errors.
    pub fn parse_line(line: &str, line_no: usize) -> Result<Option<StreamEvent>> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        trimmed
            .parse()
            .map(Some)
            .map_err(|e| annotate_line(e, line_no))
    }
}

fn annotate_line(e: IntervalError, line_no: usize) -> IntervalError {
    match e {
        IntervalError::Parse { line: 0, message } => IntervalError::Parse {
            line: line_no,
            message,
        },
        other => other,
    }
}

fn parse_err(message: impl Into<String>) -> IntervalError {
    IntervalError::Parse {
        line: 0,
        message: message.into(),
    }
}

fn next_field<'a, 'b>(
    fields: &mut impl Iterator<Item = &'a str>,
    what: &'b str,
) -> Result<&'a str> {
    fields
        .next()
        .ok_or_else(|| parse_err(format!("missing {what}")))
}

fn parse_num<T: FromStr>(field: &str, what: &str) -> Result<T> {
    field
        .parse()
        .map_err(|_| parse_err(format!("invalid {what} {field:?}")))
}

fn parse_symbol(field: &str) -> Result<String> {
    // Whitespace-containing symbols cannot appear here (the line is
    // whitespace-split), so only emptiness needs checking.
    if field.is_empty() {
        Err(parse_err("empty symbol"))
    } else {
        Ok(field.to_owned())
    }
}

impl FromStr for StreamEvent {
    type Err = IntervalError;

    fn from_str(s: &str) -> Result<StreamEvent> {
        let mut fields = s.split_whitespace();
        let keyword = next_field(&mut fields, "event keyword")?;
        let event = match keyword {
            "open" | "close" => {
                let sequence = parse_num(next_field(&mut fields, "sequence id")?, "sequence id")?;
                let symbol = parse_symbol(next_field(&mut fields, "symbol")?)?;
                let at = parse_num(next_field(&mut fields, "time")?, "time")?;
                if keyword == "open" {
                    StreamEvent::Open {
                        sequence,
                        symbol,
                        at,
                    }
                } else {
                    StreamEvent::Close {
                        sequence,
                        symbol,
                        at,
                    }
                }
            }
            "interval" => {
                let sequence = parse_num(next_field(&mut fields, "sequence id")?, "sequence id")?;
                let symbol = parse_symbol(next_field(&mut fields, "symbol")?)?;
                let start = parse_num(next_field(&mut fields, "start time")?, "start time")?;
                let end = parse_num(next_field(&mut fields, "end time")?, "end time")?;
                if start >= end {
                    return Err(IntervalError::DegenerateInterval { start, end });
                }
                StreamEvent::Interval {
                    sequence,
                    symbol,
                    start,
                    end,
                }
            }
            "watermark" => {
                StreamEvent::Watermark(parse_num(next_field(&mut fields, "time")?, "time")?)
            }
            other => {
                return Err(parse_err(format!(
                    "unknown event keyword {other:?} (expected open, close, interval or watermark)"
                )))
            }
        };
        if let Some(extra) = fields.next() {
            return Err(parse_err(format!("unexpected trailing field {extra:?}")));
        }
        Ok(event)
    }
}

// ---------------------------------------------------------------- codec ----
//
// Binary record codec used by the durability write-ahead log. The format is
// deliberately trivial — a tag byte plus fixed-width little-endian fields —
// so a record's bytes can be validated and decoded without any allocation
// beyond the symbol string (none at all for an `IntervalRecord`, whose
// symbol borrows the bytes), and without a serialization framework (the
// workspace depends on none). Framing (length + CRC) is the
// WAL's job, not the codec's: these bytes are exactly one record's payload.
//
// ```text
// open      tag=0  sequence:u64  at:i64                sym_len:u64  sym
// close     tag=1  sequence:u64  at:i64                sym_len:u64  sym
// interval  tag=2  sequence:u64  start:i64  end:i64    sym_len:u64  sym
// watermark tag=3  at:i64
// ```

/// Longest symbol (in bytes) [`StreamEvent::decode`] accepts. Caps the
/// allocation a corrupt length field can demand.
pub const MAX_SYMBOL_LEN: usize = 64 * 1024;

const TAG_OPEN: u8 = 0;
const TAG_CLOSE: u8 = 1;
const TAG_INTERVAL: u8 = 2;
const TAG_WATERMARK: u8 = 3;

fn codec_err(message: impl Into<String>) -> IntervalError {
    IntervalError::Parse {
        line: 0,
        message: message.into(),
    }
}

/// Bounds-checked reader over one record's bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| codec_err(format!("record truncated reading {what}")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8, what)?);
        Ok(i64::from_le_bytes(raw))
    }

    fn symbol(&mut self) -> Result<&'a str> {
        let len = self.u64("symbol length")?;
        if len == 0 {
            return Err(codec_err("empty symbol"));
        }
        if len > MAX_SYMBOL_LEN as u64 {
            return Err(codec_err(format!(
                "symbol length {len} exceeds the {MAX_SYMBOL_LEN}-byte cap"
            )));
        }
        let raw = self.take(len as usize, "symbol bytes")?;
        std::str::from_utf8(raw).map_err(|_| codec_err("symbol is not valid UTF-8"))
    }

    fn finish(self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(codec_err(format!(
                "{} trailing bytes after the record",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn push_symbol(out: &mut Vec<u8>, symbol: &str) {
    out.extend_from_slice(&(symbol.len() as u64).to_le_bytes());
    out.extend_from_slice(symbol.as_bytes());
}

/// A completed interval whose symbol is borrowed: the `interval` arm of the
/// binary codec, encodable from fields and decodable from a record's bytes
/// without allocating. [`StreamEvent::encode`] and [`StreamEvent::decode`]
/// run their `Interval` arm through it, so the WAL and the segment store
/// share one interval codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRecord<'a> {
    /// Logical sequence the interval belongs to.
    pub sequence: SequenceId,
    /// Event symbol.
    pub symbol: &'a str,
    /// Start time (`start < end`).
    pub start: Time,
    /// End time.
    pub end: Time,
}

impl<'a> IntervalRecord<'a> {
    /// Appends the record's binary encoding: the same bytes as the
    /// equivalent [`StreamEvent::Interval`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(TAG_INTERVAL);
        out.extend_from_slice(&self.sequence.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        push_symbol(out, self.symbol);
    }

    /// The number of bytes [`encode`](Self::encode) appends: the tag,
    /// sequence, two times, the symbol's length prefix and the symbol.
    pub fn encoded_len(&self) -> usize {
        1 + 4 * 8 + self.symbol.len()
    }

    /// Decodes one interval record in place; the symbol borrows from
    /// `bytes`. Every check of [`StreamEvent::decode`] applies, and a
    /// well-formed record of another kind is an error too.
    pub fn decode(bytes: &'a [u8]) -> Result<IntervalRecord<'a>> {
        let mut cursor = Cursor { bytes, pos: 0 };
        match cursor.u8("record tag")? {
            TAG_INTERVAL => {}
            other => return Err(codec_err(format!("record tag {other} is not an interval"))),
        }
        let record = Self::decode_fields(&mut cursor)?;
        cursor.finish()?;
        Ok(record)
    }

    /// Reads the fields after the `interval` tag and rejects a degenerate
    /// interval.
    fn decode_fields(cursor: &mut Cursor<'a>) -> Result<IntervalRecord<'a>> {
        let sequence = cursor.u64("sequence id")?;
        let start = cursor.i64("start time")?;
        let end = cursor.i64("end time")?;
        let symbol = cursor.symbol()?;
        if start >= end {
            return Err(IntervalError::DegenerateInterval { start, end });
        }
        Ok(IntervalRecord {
            sequence,
            symbol,
            start,
            end,
        })
    }

    /// The owned event this record encodes.
    pub fn to_event(&self) -> StreamEvent {
        StreamEvent::Interval {
            sequence: self.sequence,
            symbol: self.symbol.to_owned(),
            start: self.start,
            end: self.end,
        }
    }
}

impl StreamEvent {
    /// Appends the record's binary encoding (see the codec notes in the
    /// source) to `out`. Infallible: every in-memory event is encodable.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StreamEvent::Open {
                sequence,
                symbol,
                at,
            } => {
                out.push(TAG_OPEN);
                out.extend_from_slice(&sequence.to_le_bytes());
                out.extend_from_slice(&at.to_le_bytes());
                push_symbol(out, symbol);
            }
            StreamEvent::Close {
                sequence,
                symbol,
                at,
            } => {
                out.push(TAG_CLOSE);
                out.extend_from_slice(&sequence.to_le_bytes());
                out.extend_from_slice(&at.to_le_bytes());
                push_symbol(out, symbol);
            }
            StreamEvent::Interval {
                sequence,
                symbol,
                start,
                end,
            } => IntervalRecord {
                sequence: *sequence,
                symbol,
                start: *start,
                end: *end,
            }
            .encode(out),
            StreamEvent::Watermark(at) => {
                out.push(TAG_WATERMARK);
                out.extend_from_slice(&at.to_le_bytes());
            }
        }
    }

    /// Decodes one binary record produced by [`StreamEvent::encode`].
    ///
    /// Every malformation — unknown tag, truncation, oversized or non-UTF-8
    /// symbol, trailing bytes, degenerate interval — is an error, so a
    /// record that decodes is semantically valid (the same contract the
    /// textual parser gives).
    pub fn decode(bytes: &[u8]) -> Result<StreamEvent> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let event = match cursor.u8("record tag")? {
            TAG_OPEN => StreamEvent::Open {
                sequence: cursor.u64("sequence id")?,
                at: cursor.i64("time")?,
                symbol: cursor.symbol()?.to_owned(),
            },
            TAG_CLOSE => StreamEvent::Close {
                sequence: cursor.u64("sequence id")?,
                at: cursor.i64("time")?,
                symbol: cursor.symbol()?.to_owned(),
            },
            TAG_INTERVAL => IntervalRecord::decode_fields(&mut cursor)?.to_event(),
            TAG_WATERMARK => StreamEvent::Watermark(cursor.i64("time")?),
            other => return Err(codec_err(format!("unknown record tag {other}"))),
        };
        cursor.finish()?;
        Ok(event)
    }
}

impl fmt::Display for StreamEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamEvent::Open {
                sequence,
                symbol,
                at,
            } => write!(f, "open {sequence} {symbol} {at}"),
            StreamEvent::Close {
                sequence,
                symbol,
                at,
            } => write!(f, "close {sequence} {symbol} {at}"),
            StreamEvent::Interval {
                sequence,
                symbol,
                start,
                end,
            } => write!(f, "interval {sequence} {symbol} {start} {end}"),
            StreamEvent::Watermark(at) => write!(f, "watermark {at}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_variant() {
        let events = [
            StreamEvent::Open {
                sequence: 7,
                symbol: "fever".into(),
                at: -3,
            },
            StreamEvent::Close {
                sequence: 7,
                symbol: "fever".into(),
                at: 12,
            },
            StreamEvent::Interval {
                sequence: 0,
                symbol: "rash".into(),
                start: 5,
                end: 20,
            },
            StreamEvent::Watermark(99),
        ];
        for event in events {
            let line = event.to_string();
            let back: StreamEvent = line.parse().expect("round trip");
            assert_eq!(back, event, "line {line:?}");
        }
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        assert_eq!(StreamEvent::parse_line("", 1).unwrap(), None);
        assert_eq!(StreamEvent::parse_line("   \t ", 2).unwrap(), None);
        assert_eq!(StreamEvent::parse_line("# comment", 3).unwrap(), None);
        assert_eq!(
            StreamEvent::parse_line(" watermark 4 ", 4).unwrap(),
            Some(StreamEvent::Watermark(4))
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = StreamEvent::parse_line("frobnicate 1 a 2", 17).unwrap_err();
        match err {
            IntervalError::Parse { line, message } => {
                assert_eq!(line, 17);
                assert!(message.contains("frobnicate"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_records() {
        assert!("open".parse::<StreamEvent>().is_err());
        assert!("open x fever 3".parse::<StreamEvent>().is_err());
        assert!("open 1 fever x".parse::<StreamEvent>().is_err());
        assert!("open 1 fever 3 extra".parse::<StreamEvent>().is_err());
        assert!("watermark".parse::<StreamEvent>().is_err());
        assert!(matches!(
            "interval 1 fever 5 5".parse::<StreamEvent>(),
            Err(IntervalError::DegenerateInterval { start: 5, end: 5 })
        ));
    }

    #[test]
    fn binary_codec_round_trips_every_variant() {
        let events = [
            StreamEvent::Open {
                sequence: u64::MAX,
                symbol: "fever".into(),
                at: -3,
            },
            StreamEvent::Close {
                sequence: 7,
                symbol: "ünïcode✓".into(),
                at: Time::MAX,
            },
            StreamEvent::Interval {
                sequence: 0,
                symbol: "rash".into(),
                start: Time::MIN,
                end: 20,
            },
            StreamEvent::Watermark(-99),
        ];
        for event in events {
            let mut bytes = Vec::new();
            event.encode(&mut bytes);
            assert_eq!(StreamEvent::decode(&bytes).expect("decode"), event);
        }
    }

    #[test]
    fn binary_codec_rejects_malformed_records() {
        let mut good = Vec::new();
        StreamEvent::Watermark(5).encode(&mut good);

        // Empty input, unknown tag, truncation, trailing garbage.
        assert!(StreamEvent::decode(&[]).is_err());
        assert!(StreamEvent::decode(&[9]).is_err());
        assert!(StreamEvent::decode(&good[..good.len() - 1]).is_err());
        let mut long = good.clone();
        long.push(0);
        assert!(StreamEvent::decode(&long).is_err());

        // Symbol validation: empty, oversized length claim, bad UTF-8.
        let mut open = Vec::new();
        StreamEvent::Open {
            sequence: 1,
            symbol: "ab".into(),
            at: 2,
        }
        .encode(&mut open);
        let sym_len_at = 1 + 8 + 8;
        let mut empty_sym = open.clone();
        empty_sym[sym_len_at..sym_len_at + 8].copy_from_slice(&0u64.to_le_bytes());
        empty_sym.truncate(sym_len_at + 8);
        assert!(StreamEvent::decode(&empty_sym).is_err());
        let mut huge_sym = open.clone();
        huge_sym[sym_len_at..sym_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(StreamEvent::decode(&huge_sym).is_err());
        let mut bad_utf8 = open.clone();
        bad_utf8[sym_len_at + 8] = 0xFF;
        assert!(StreamEvent::decode(&bad_utf8).is_err());

        // Degenerate intervals are rejected exactly like the text parser.
        let mut degenerate = Vec::new();
        StreamEvent::Interval {
            sequence: 1,
            symbol: "x".into(),
            start: 4,
            end: 9,
        }
        .encode(&mut degenerate);
        degenerate[17..25].copy_from_slice(&4i64.to_le_bytes());
        assert!(matches!(
            StreamEvent::decode(&degenerate),
            Err(IntervalError::DegenerateInterval { start: 4, end: 4 })
        ));
    }

    #[test]
    fn interval_record_shares_the_event_codec() {
        let event = StreamEvent::Interval {
            sequence: 9,
            symbol: "ünïcode✓".into(),
            start: -4,
            end: 30,
        };
        let mut owned = Vec::new();
        event.encode(&mut owned);
        let record = IntervalRecord::decode(&owned).expect("decode in place");
        assert_eq!(record.symbol, "ünïcode✓");
        assert_eq!(record.to_event(), event);
        let mut borrowed = Vec::new();
        record.encode(&mut borrowed);
        assert_eq!(borrowed, owned, "one encoding");
        assert_eq!(record.encoded_len(), owned.len());

        // Another well-formed kind is not an interval; truncation and a
        // degenerate interval fail as they do for `StreamEvent::decode`.
        let mut watermark = Vec::new();
        StreamEvent::Watermark(3).encode(&mut watermark);
        assert!(IntervalRecord::decode(&watermark).is_err());
        assert!(IntervalRecord::decode(&owned[..owned.len() - 1]).is_err());
        let mut degenerate = owned.clone();
        degenerate[17..25].copy_from_slice(&(-4i64).to_le_bytes());
        assert!(matches!(
            IntervalRecord::decode(&degenerate),
            Err(IntervalError::DegenerateInterval { start: -4, end: -4 })
        ));
    }

    #[test]
    fn accessors_report_sequence_and_time() {
        let open = StreamEvent::Open {
            sequence: 3,
            symbol: "a".into(),
            at: 10,
        };
        assert_eq!(open.sequence(), Some(3));
        assert_eq!(open.time(), 10);
        let iv = StreamEvent::Interval {
            sequence: 4,
            symbol: "b".into(),
            start: 1,
            end: 9,
        };
        assert_eq!(iv.time(), 9);
        assert_eq!(StreamEvent::Watermark(5).sequence(), None);
        assert_eq!(StreamEvent::Watermark(5).time(), 5);
    }
}
