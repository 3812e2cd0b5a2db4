//! Wire protocol for the pattern-mining service tier.
//!
//! The server (`crates/server`) speaks a line-delimited text protocol: one
//! request per line, commands case-insensitive, stream names case-sensitive.
//! This module owns the *request* grammar — frame types, parse errors with
//! did-you-mean suggestions, stream-name validation and the shared
//! edit-distance machinery the CLI reuses for its own suggestions. Response
//! framing lives server-side: requests must parse identically in the server,
//! the `client` helper and the protocol unit tests, so they are core.
//!
//! # Grammar
//!
//! ```text
//! CREATE <stream> WINDOW <w> (SUPPORT <fraction> | ABS-SUPPORT <n>)
//!        [REFRESH-EVERY <n>] [MAX-ARITY <k>] [MAX-GAP <g>] [WAL]
//! EVENT  <stream> <event line>        # StreamEvent text format
//! BATCH  <stream> <count>             # <count> event lines follow
//! QUERY  <stream> [PREFIX <symbol>] [TOP <k>]
//! HISTORY <stream> FROM <t1> TO <t2>  # re-mine a sealed time range
//!        [SUPPORT <fraction> | ABS-SUPPORT <n>] [TOP <k>]
//! SYNC   <stream>                     # block until a fresh refresh lands
//! SUBSCRIBE   <stream>                # push revision lines until UNSUBSCRIBE
//! UNSUBSCRIBE [<stream>]              # stop the connection's subscription
//! STATS  [<stream>]
//! DROP   <stream>
//! HEALTH | PING | SHUTDOWN | QUIT
//! ```
//!
//! Blank lines and `#` comments carry no request and parse to `Ok(None)`.

use std::fmt;

use crate::error::IntervalError;
use crate::event::StreamEvent;
use crate::interval::Time;

/// Longest request line (in bytes) a conforming server accepts. Bounds the
/// per-connection read buffer; longer lines are rejected (and drained)
/// without allocating them.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest `BATCH` count a conforming server accepts, so a malicious header
/// cannot pin a connection reading events forever.
pub const MAX_BATCH_EVENTS: usize = 65_536;

/// Longest stream name in bytes.
pub const MAX_STREAM_NAME: usize = 64;

/// Every protocol verb, for did-you-mean suggestions and docs.
pub const VERBS: &[&str] = &[
    "CREATE",
    "EVENT",
    "BATCH",
    "QUERY",
    "HISTORY",
    "SYNC",
    "SUBSCRIBE",
    "UNSUBSCRIBE",
    "STATS",
    "DROP",
    "HEALTH",
    "PING",
    "SHUTDOWN",
    "QUIT",
];

/// Keyword parameters accepted inside `CREATE`.
const CREATE_KEYWORDS: &[&str] = &[
    "WINDOW",
    "SUPPORT",
    "ABS-SUPPORT",
    "REFRESH-EVERY",
    "MAX-ARITY",
    "MAX-GAP",
    "WAL",
];

/// Keyword parameters accepted inside `QUERY`.
const QUERY_KEYWORDS: &[&str] = &["PREFIX", "TOP"];

/// Keyword parameters accepted inside `HISTORY`.
const HISTORY_KEYWORDS: &[&str] = &["FROM", "TO", "SUPPORT", "ABS-SUPPORT", "TOP"];

/// A minimum-support threshold as specified on the wire or the CLI: either
/// an absolute sequence count or a fraction of the live window resolved per
/// refresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SupportSpec {
    /// Fraction of the sequences currently in the window, `0 < f <= 1`.
    Fraction(f64),
    /// Absolute number of supporting sequences, `>= 1`.
    Absolute(usize),
}

impl SupportSpec {
    /// Checks the threshold's range, for every parser of one (the wire's
    /// `CREATE` and `HISTORY`, the CLI): a fraction must lie in `(0, 1]`
    /// and a count must be at least 1. The error is the valid range, for
    /// the caller to prefix with the keyword or option it parsed.
    pub fn checked(self) -> Result<SupportSpec, &'static str> {
        match self {
            SupportSpec::Fraction(f) if !(f > 0.0 && f <= 1.0) => Err("must be in (0, 1]"),
            SupportSpec::Absolute(0) => Err("must be at least 1"),
            spec => Ok(spec),
        }
    }

    /// Resolves the threshold against the number of sequences currently in
    /// the window. Fractions round up (a pattern must appear in *at least*
    /// the fraction) and never resolve below 1.
    pub fn absolute_for(&self, sequences: usize) -> usize {
        match *self {
            SupportSpec::Absolute(n) => n.max(1),
            SupportSpec::Fraction(f) => (((sequences as f64) * f).ceil() as usize).max(1),
        }
    }
}

impl fmt::Display for SupportSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupportSpec::Fraction(v) => write!(f, "SUPPORT {v}"),
            SupportSpec::Absolute(n) => write!(f, "ABS-SUPPORT {n}"),
        }
    }
}

/// Everything a `CREATE` frame specifies about a new stream session.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateSpec {
    /// Sliding-window length in event-time units.
    pub window: Time,
    /// Minimum support threshold.
    pub support: SupportSpec,
    /// Refresh the miner after this many accepted events (default 1024).
    pub refresh_every: u64,
    /// Optional cap on pattern arity.
    pub max_arity: Option<usize>,
    /// Optional cap on the gap between pattern elements.
    pub max_gap: Option<Time>,
    /// Whether the stream journals to a per-stream WAL directory.
    pub durable: bool,
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create (or recover) a named stream session.
    Create {
        /// Stream name (validated by [`validate_stream_name`]).
        stream: String,
        /// Session parameters.
        spec: CreateSpec,
    },
    /// Ingest a single event into a stream.
    Event {
        /// Target stream.
        stream: String,
        /// The event.
        event: StreamEvent,
    },
    /// Announce `count` event lines that follow this frame.
    Batch {
        /// Target stream.
        stream: String,
        /// Number of event lines that follow.
        count: usize,
    },
    /// Read frequent patterns from the latest published snapshot.
    Query {
        /// Target stream.
        stream: String,
        /// Only patterns rooted at this symbol.
        prefix: Option<String>,
        /// At most this many patterns, by descending support.
        top: Option<usize>,
    },
    /// Re-mine a sealed historical time range out of the stream's cold
    /// segment store (served without touching the live ingest path).
    History {
        /// Target stream (its segment directory; the live session need
        /// not exist).
        stream: String,
        /// Start of the historical range (inclusive).
        from: Time,
        /// End of the historical range (inclusive).
        to: Time,
        /// Minimum-support threshold, resolved against the sequences in
        /// the loaded range. Defaults to every pattern (support 1).
        support: Option<SupportSpec>,
        /// At most this many patterns, by descending support.
        top: Option<usize>,
    },
    /// Block until a refresh covering everything ingested so far publishes.
    Sync {
        /// Target stream.
        stream: String,
    },
    /// Start pushing this stream's published revisions to the connection
    /// (one `REV` line per snapshot) until `UNSUBSCRIBE` or disconnect.
    Subscribe {
        /// Target stream.
        stream: String,
    },
    /// Stop the connection's active subscription. The stream name is
    /// optional; when given it must match the active subscription.
    Unsubscribe {
        /// Restrict to one stream when given.
        stream: Option<String>,
    },
    /// Pipeline/server statistics for one stream or all of them.
    Stats {
        /// Restrict to one stream when given.
        stream: Option<String>,
    },
    /// Tear down a stream session (drains its worker first).
    Drop {
        /// Target stream.
        stream: String,
    },
    /// Liveness probe.
    Health,
    /// No-op round trip.
    Ping,
    /// Graceful whole-server drain.
    Shutdown,
    /// Close this connection only.
    Quit,
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversize {
        /// The configured limit the line exceeded.
        limit: usize,
    },
    /// Unrecognized verb, with a did-you-mean when one is close.
    UnknownCommand {
        /// What the client sent.
        got: String,
        /// The closest known verb, if plausibly a typo.
        suggestion: Option<&'static str>,
    },
    /// Stream name failed [`validate_stream_name`].
    BadStreamName {
        /// The offending name.
        name: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// Structurally invalid frame for a known verb.
    Malformed {
        /// The verb whose grammar was violated.
        command: &'static str,
        /// Human-readable detail.
        message: String,
    },
    /// The embedded `EVENT` payload failed the event parser.
    Event(IntervalError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversize { limit } => {
                write!(f, "line exceeds the {limit}-byte limit")
            }
            WireError::UnknownCommand { got, suggestion } => {
                write!(f, "unknown command {got:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s}?)")?;
                }
                Ok(())
            }
            WireError::BadStreamName { name, reason } => {
                write!(f, "invalid stream name {name:?}: {reason}")
            }
            WireError::Malformed { command, message } => {
                write!(f, "malformed {command}: {message}")
            }
            WireError::Event(e) => write!(f, "invalid event: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Validates a stream name: 1..=[`MAX_STREAM_NAME`] bytes of
/// `[A-Za-z0-9._-]`, starting with an alphanumeric. The charset doubles as
/// path-traversal protection — a valid name can never escape the WAL root
/// it becomes a directory under.
pub fn validate_stream_name(name: &str) -> Result<(), WireError> {
    let bad = |reason: &'static str| WireError::BadStreamName {
        name: name.to_owned(),
        reason,
    };
    if name.is_empty() {
        return Err(bad("must not be empty"));
    }
    if name.len() > MAX_STREAM_NAME {
        return Err(bad("longer than 64 bytes"));
    }
    let mut chars = name.chars();
    let first = chars.next().unwrap_or('-');
    if !first.is_ascii_alphanumeric() {
        return Err(bad("must start with an ASCII letter or digit"));
    }
    if !chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')) {
        return Err(bad("allowed characters are [A-Za-z0-9._-]"));
    }
    Ok(())
}

impl Request {
    /// Parses one request line. Blank lines and `#` comments carry no
    /// request and return `Ok(None)`. Verbs and keywords are matched
    /// case-insensitively; stream names and symbols are case-sensitive.
    pub fn parse_line(line: &str) -> Result<Option<Request>, WireError> {
        if line.len() > MAX_LINE_BYTES {
            return Err(WireError::Oversize {
                limit: MAX_LINE_BYTES,
            });
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        let (verb_raw, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim_start()),
            None => (trimmed, ""),
        };
        let verb = verb_raw.to_ascii_uppercase();
        let request = match verb.as_str() {
            "CREATE" => parse_create(rest)?,
            "EVENT" => parse_event(rest)?,
            "BATCH" => parse_batch(rest)?,
            "QUERY" => parse_query(rest)?,
            "HISTORY" => parse_history(rest)?,
            "SYNC" => Request::Sync {
                stream: one_stream("SYNC", rest)?,
            },
            "SUBSCRIBE" => Request::Subscribe {
                stream: one_stream("SUBSCRIBE", rest)?,
            },
            "UNSUBSCRIBE" => Request::Unsubscribe {
                stream: optional_stream("UNSUBSCRIBE", rest)?,
            },
            "STATS" => Request::Stats {
                stream: optional_stream("STATS", rest)?,
            },
            "DROP" => Request::Drop {
                stream: one_stream("DROP", rest)?,
            },
            "HEALTH" => bare("HEALTH", rest, Request::Health)?,
            "PING" => bare("PING", rest, Request::Ping)?,
            "SHUTDOWN" => bare("SHUTDOWN", rest, Request::Shutdown)?,
            "QUIT" => bare("QUIT", rest, Request::Quit)?,
            _ => {
                return Err(WireError::UnknownCommand {
                    got: verb_raw.to_owned(),
                    suggestion: closest(&verb, VERBS),
                })
            }
        };
        Ok(Some(request))
    }
}

fn malformed(command: &'static str, message: impl Into<String>) -> WireError {
    WireError::Malformed {
        command,
        message: message.into(),
    }
}

/// [`SupportSpec::checked`], with a range error naming its keyword.
fn checked_support(
    command: &'static str,
    keyword: &str,
    spec: SupportSpec,
) -> Result<SupportSpec, WireError> {
    spec.checked()
        .map_err(|range| malformed(command, format!("{keyword} {range}")))
}

fn bare(command: &'static str, rest: &str, request: Request) -> Result<Request, WireError> {
    if rest.is_empty() {
        Ok(request)
    } else {
        Err(malformed(
            command,
            format!("takes no arguments, got {rest:?}"),
        ))
    }
}

fn stream_name(command: &'static str, field: Option<&str>) -> Result<String, WireError> {
    let name = field.ok_or_else(|| malformed(command, "missing stream name"))?;
    validate_stream_name(name)?;
    Ok(name.to_owned())
}

fn one_stream(command: &'static str, rest: &str) -> Result<String, WireError> {
    let mut fields = rest.split_whitespace();
    let name = stream_name(command, fields.next())?;
    if let Some(extra) = fields.next() {
        return Err(malformed(command, format!("unexpected argument {extra:?}")));
    }
    Ok(name)
}

fn optional_stream(command: &'static str, rest: &str) -> Result<Option<String>, WireError> {
    let mut fields = rest.split_whitespace();
    let name = match fields.next() {
        None => return Ok(None),
        Some(f) => stream_name(command, Some(f))?,
    };
    if let Some(extra) = fields.next() {
        return Err(malformed(command, format!("unexpected argument {extra:?}")));
    }
    Ok(Some(name))
}

fn parse_num<T: std::str::FromStr>(
    command: &'static str,
    what: &str,
    field: &str,
) -> Result<T, WireError> {
    field
        .parse()
        .map_err(|_| malformed(command, format!("invalid {what} {field:?}")))
}

fn keyword_typo(command: &'static str, got: &str, known: &[&str]) -> WireError {
    let mut message = format!("unknown keyword {got:?}");
    if let Some(s) = closest(&got.to_ascii_uppercase(), known) {
        message.push_str(&format!(" (did you mean {s}?)"));
    }
    malformed(command, message)
}

fn parse_create(rest: &str) -> Result<Request, WireError> {
    const CMD: &str = "CREATE";
    let mut fields = rest.split_whitespace();
    let stream = stream_name(CMD, fields.next())?;
    let mut window: Option<Time> = None;
    let mut support: Option<SupportSpec> = None;
    let mut refresh_every: u64 = 1024;
    let mut max_arity: Option<usize> = None;
    let mut max_gap: Option<Time> = None;
    let mut durable = false;
    while let Some(raw) = fields.next() {
        let keyword = raw.to_ascii_uppercase();
        let mut value = |what: &str| -> Result<String, WireError> {
            fields
                .next()
                .map(str::to_owned)
                .ok_or_else(|| malformed(CMD, format!("{keyword} needs a {what}")))
        };
        match keyword.as_str() {
            "WINDOW" => {
                let w: Time = parse_num(CMD, "window length", &value("length")?)?;
                if w <= 0 {
                    return Err(malformed(CMD, "WINDOW must be positive"));
                }
                window = Some(w);
            }
            "SUPPORT" => {
                let f = parse_num(CMD, "support fraction", &value("fraction")?)?;
                support = Some(checked_support(CMD, &keyword, SupportSpec::Fraction(f))?);
            }
            "ABS-SUPPORT" => {
                let n = parse_num(CMD, "support count", &value("count")?)?;
                support = Some(checked_support(CMD, &keyword, SupportSpec::Absolute(n))?);
            }
            "REFRESH-EVERY" => {
                let n: u64 = parse_num(CMD, "refresh interval", &value("count")?)?;
                if n == 0 {
                    return Err(malformed(CMD, "REFRESH-EVERY must be at least 1"));
                }
                refresh_every = n;
            }
            "MAX-ARITY" => {
                max_arity = Some(parse_num(CMD, "arity", &value("arity")?)?);
            }
            "MAX-GAP" => {
                max_gap = Some(parse_num(CMD, "gap", &value("gap")?)?);
            }
            "WAL" => durable = true,
            _ => return Err(keyword_typo(CMD, raw, CREATE_KEYWORDS)),
        }
    }
    let window = window.ok_or_else(|| malformed(CMD, "missing WINDOW"))?;
    let support = support.ok_or_else(|| malformed(CMD, "missing SUPPORT or ABS-SUPPORT"))?;
    Ok(Request::Create {
        stream,
        spec: CreateSpec {
            window,
            support,
            refresh_every,
            max_arity,
            max_gap,
            durable,
        },
    })
}

fn parse_event(rest: &str) -> Result<Request, WireError> {
    const CMD: &str = "EVENT";
    let (name, payload) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| malformed(CMD, "expected EVENT <stream> <event line>"))?;
    validate_stream_name(name)?;
    let event = StreamEvent::parse_line(payload, 0)
        .map_err(WireError::Event)?
        .ok_or_else(|| malformed(CMD, "event payload is empty"))?;
    Ok(Request::Event {
        stream: name.to_owned(),
        event,
    })
}

fn parse_batch(rest: &str) -> Result<Request, WireError> {
    const CMD: &str = "BATCH";
    let mut fields = rest.split_whitespace();
    let stream = stream_name(CMD, fields.next())?;
    let count_field = fields
        .next()
        .ok_or_else(|| malformed(CMD, "missing event count"))?;
    let count: usize = parse_num(CMD, "event count", count_field)?;
    if count == 0 || count > MAX_BATCH_EVENTS {
        return Err(malformed(
            CMD,
            format!("count must be in 1..={MAX_BATCH_EVENTS}"),
        ));
    }
    if let Some(extra) = fields.next() {
        return Err(malformed(CMD, format!("unexpected argument {extra:?}")));
    }
    Ok(Request::Batch { stream, count })
}

fn parse_query(rest: &str) -> Result<Request, WireError> {
    const CMD: &str = "QUERY";
    let mut fields = fields_of(rest);
    let stream = stream_name(CMD, fields.next())?;
    let mut prefix = None;
    let mut top = None;
    while let Some(raw) = fields.next() {
        match raw.to_ascii_uppercase().as_str() {
            "PREFIX" => {
                let symbol = fields
                    .next()
                    .ok_or_else(|| malformed(CMD, "PREFIX needs a symbol"))?;
                prefix = Some(symbol.to_owned());
            }
            "TOP" => {
                let field = fields
                    .next()
                    .ok_or_else(|| malformed(CMD, "TOP needs a count"))?;
                let k: usize = parse_num(CMD, "top-k count", field)?;
                if k == 0 {
                    return Err(malformed(CMD, "TOP must be at least 1"));
                }
                top = Some(k);
            }
            _ => return Err(keyword_typo(CMD, raw, QUERY_KEYWORDS)),
        }
    }
    Ok(Request::Query {
        stream,
        prefix,
        top,
    })
}

fn parse_history(rest: &str) -> Result<Request, WireError> {
    const CMD: &str = "HISTORY";
    let mut fields = fields_of(rest);
    let stream = stream_name(CMD, fields.next())?;
    let mut from: Option<Time> = None;
    let mut to: Option<Time> = None;
    let mut support: Option<SupportSpec> = None;
    let mut top: Option<usize> = None;
    while let Some(raw) = fields.next() {
        let keyword = raw.to_ascii_uppercase();
        let mut value = |what: &str| -> Result<String, WireError> {
            fields
                .next()
                .map(str::to_owned)
                .ok_or_else(|| malformed(CMD, format!("{keyword} needs a {what}")))
        };
        match keyword.as_str() {
            "FROM" => from = Some(parse_num(CMD, "start time", &value("time")?)?),
            "TO" => to = Some(parse_num(CMD, "end time", &value("time")?)?),
            "SUPPORT" => {
                let f = parse_num(CMD, "support fraction", &value("fraction")?)?;
                support = Some(checked_support(CMD, &keyword, SupportSpec::Fraction(f))?);
            }
            "ABS-SUPPORT" => {
                let n = parse_num(CMD, "support count", &value("count")?)?;
                support = Some(checked_support(CMD, &keyword, SupportSpec::Absolute(n))?);
            }
            "TOP" => {
                let k: usize = parse_num(CMD, "top-k count", &value("count")?)?;
                if k == 0 {
                    return Err(malformed(CMD, "TOP must be at least 1"));
                }
                top = Some(k);
            }
            _ => return Err(keyword_typo(CMD, raw, HISTORY_KEYWORDS)),
        }
    }
    let from = from.ok_or_else(|| malformed(CMD, "missing FROM"))?;
    let to = to.ok_or_else(|| malformed(CMD, "missing TO"))?;
    if from > to {
        return Err(malformed(CMD, format!("FROM {from} is after TO {to}")));
    }
    Ok(Request::History {
        stream,
        from,
        to,
        support,
        top,
    })
}

fn fields_of(rest: &str) -> impl Iterator<Item = &str> {
    rest.split_whitespace()
}

/// The known candidate with the smallest edit distance to `needle`, if close
/// enough (distance ≤ 2) to be a plausible typo. Shared by the server
/// protocol and the CLI's option/command suggestions.
pub fn closest<'a>(needle: &str, known: &[&'a str]) -> Option<&'a str> {
    known
        .iter()
        .map(|&k| (edit_distance(needle, k), k))
        .min()
        .filter(|&(d, _)| d <= 2)
        .map(|(_, k)| k)
}

/// Plain Levenshtein distance (inputs are short; O(nm) is fine).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            current.push((prev[j] + cost).min(prev[j + 1] + 1).min(current[j] + 1));
        }
        prev = current;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Request {
        Request::parse_line(line).expect("parse").expect("a frame")
    }

    fn err(line: &str) -> WireError {
        Request::parse_line(line).expect_err("should fail")
    }

    #[test]
    fn create_parses_full_and_minimal_forms() {
        let r = parse(
            "CREATE vitals WINDOW 100 SUPPORT 0.1 REFRESH-EVERY 64 MAX-ARITY 3 MAX-GAP 10 WAL",
        );
        match r {
            Request::Create { stream, spec } => {
                assert_eq!(stream, "vitals");
                assert_eq!(spec.window, 100);
                assert_eq!(spec.support, SupportSpec::Fraction(0.1));
                assert_eq!(spec.refresh_every, 64);
                assert_eq!(spec.max_arity, Some(3));
                assert_eq!(spec.max_gap, Some(10));
                assert!(spec.durable);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = parse("create s1 window 20 abs-support 2");
        match r {
            Request::Create { spec, .. } => {
                assert_eq!(spec.support, SupportSpec::Absolute(2));
                assert_eq!(spec.refresh_every, 1024);
                assert!(!spec.durable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_rejects_missing_and_out_of_range_parameters() {
        assert!(matches!(err("CREATE s"), WireError::Malformed { .. }));
        assert!(matches!(
            err("CREATE s WINDOW 100"),
            WireError::Malformed { message, .. } if message.contains("SUPPORT")
        ));
        assert!(matches!(
            err("CREATE s SUPPORT 0.5"),
            WireError::Malformed { message, .. } if message.contains("WINDOW")
        ));
        assert!(matches!(
            err("CREATE s WINDOW 0 SUPPORT 0.5"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("CREATE s WINDOW -5 SUPPORT 0.5"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("CREATE s WINDOW 10 SUPPORT 0"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("CREATE s WINDOW 10 SUPPORT 1.5"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("CREATE s WINDOW 10 ABS-SUPPORT 0"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("CREATE s WINDOW 10 SUPPORT 0.5 REFRESH-EVERY 0"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("CREATE s WINDOW 10 SUPPORT"),
            WireError::Malformed { .. }
        ));
    }

    #[test]
    fn create_keyword_typos_get_suggestions() {
        match err("CREATE s WINDWO 10 SUPPORT 0.5") {
            WireError::Malformed { message, .. } => {
                assert!(message.contains("did you mean WINDOW"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match err("CREATE s WINDOW 10 ABS-SUPORT 2") {
            WireError::Malformed { message, .. } => {
                assert!(message.contains("did you mean ABS-SUPPORT"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn command_typos_get_suggestions() {
        match err("QUREY s") {
            WireError::UnknownCommand { got, suggestion } => {
                assert_eq!(got, "QUREY");
                assert_eq!(suggestion, Some("QUERY"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match err("CRATE s WINDOW 10 SUPPORT 0.5") {
            WireError::UnknownCommand { suggestion, .. } => {
                assert_eq!(suggestion, Some("CREATE"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match err("frobnicate") {
            WireError::UnknownCommand { suggestion, .. } => assert_eq!(suggestion, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn event_embeds_the_stream_event_grammar() {
        let r = parse("EVENT vitals interval 1 fever 0 5");
        match r {
            Request::Event { stream, event } => {
                assert_eq!(stream, "vitals");
                assert_eq!(
                    event,
                    StreamEvent::Interval {
                        sequence: 1,
                        symbol: "fever".into(),
                        start: 0,
                        end: 5
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse("EVENT s watermark 9"),
            Request::Event { .. }
        ));
        assert!(matches!(err("EVENT s"), WireError::Malformed { .. }));
        assert!(matches!(
            err("EVENT s interval 1 fever 5 5"),
            WireError::Event(IntervalError::DegenerateInterval { .. })
        ));
        assert!(matches!(err("EVENT s frobnicate 1"), WireError::Event(_)));
    }

    #[test]
    fn batch_bounds_its_count() {
        assert_eq!(
            parse("BATCH s 100"),
            Request::Batch {
                stream: "s".into(),
                count: 100
            }
        );
        assert!(matches!(err("BATCH s 0"), WireError::Malformed { .. }));
        assert!(matches!(
            err("BATCH s 1000000"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(err("BATCH s"), WireError::Malformed { .. }));
        assert!(matches!(
            err("BATCH s 5 extra"),
            WireError::Malformed { .. }
        ));
    }

    #[test]
    fn query_accepts_prefix_and_top_in_any_order() {
        assert_eq!(
            parse("QUERY s"),
            Request::Query {
                stream: "s".into(),
                prefix: None,
                top: None
            }
        );
        assert_eq!(
            parse("QUERY s PREFIX fever TOP 5"),
            Request::Query {
                stream: "s".into(),
                prefix: Some("fever".into()),
                top: Some(5)
            }
        );
        assert_eq!(
            parse("query s top 3 prefix Rash"),
            Request::Query {
                stream: "s".into(),
                prefix: Some("Rash".into()),
                top: Some(3)
            }
        );
        assert!(matches!(err("QUERY s TOP 0"), WireError::Malformed { .. }));
        assert!(matches!(err("QUERY s PREFIX"), WireError::Malformed { .. }));
        match err("QUERY s PERFIX fever") {
            WireError::Malformed { message, .. } => {
                assert!(message.contains("did you mean PREFIX"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn history_requires_a_range_and_bounds_its_keywords() {
        assert_eq!(
            parse("HISTORY vitals FROM 0 TO 100"),
            Request::History {
                stream: "vitals".into(),
                from: 0,
                to: 100,
                support: None,
                top: None
            }
        );
        assert_eq!(
            parse("history s from -5 to 10 abs-support 2 top 3"),
            Request::History {
                stream: "s".into(),
                from: -5,
                to: 10,
                support: Some(SupportSpec::Absolute(2)),
                top: Some(3)
            }
        );
        assert_eq!(
            parse("HISTORY s FROM 0 TO 10 SUPPORT 0.5"),
            Request::History {
                stream: "s".into(),
                from: 0,
                to: 10,
                support: Some(SupportSpec::Fraction(0.5)),
                top: None
            }
        );
        assert!(matches!(err("HISTORY s"), WireError::Malformed { .. }));
        assert!(matches!(
            err("HISTORY s FROM 5"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(err("HISTORY s TO 5"), WireError::Malformed { .. }));
        assert!(matches!(
            err("HISTORY s FROM 10 TO 5"),
            WireError::Malformed { message, .. } if message.contains("after")
        ));
        assert!(matches!(
            err("HISTORY s FROM 0 TO 10 SUPPORT 0"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("HISTORY s FROM 0 TO 10 TOP 0"),
            WireError::Malformed { .. }
        ));
        assert!(matches!(
            err("HISTORY bad/name FROM 0 TO 10"),
            WireError::BadStreamName { .. }
        ));
        match err("HISTORY s FORM 0 TO 10") {
            WireError::Malformed { message, .. } => {
                assert!(message.contains("did you mean FROM"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match err("HISOTRY s FROM 0 TO 10") {
            WireError::UnknownCommand { suggestion, .. } => {
                assert_eq!(suggestion, Some("HISTORY"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subscribe_takes_one_stream_and_unsubscribe_an_optional_one() {
        assert_eq!(
            parse("SUBSCRIBE vitals"),
            Request::Subscribe {
                stream: "vitals".into()
            }
        );
        assert_eq!(
            parse("subscribe s1"),
            Request::Subscribe {
                stream: "s1".into()
            }
        );
        assert!(matches!(err("SUBSCRIBE"), WireError::Malformed { .. }));
        assert!(matches!(err("SUBSCRIBE a b"), WireError::Malformed { .. }));
        assert!(matches!(
            err("SUBSCRIBE bad/name"),
            WireError::BadStreamName { .. }
        ));
        assert_eq!(parse("UNSUBSCRIBE"), Request::Unsubscribe { stream: None });
        assert_eq!(
            parse("UNSUBSCRIBE vitals"),
            Request::Unsubscribe {
                stream: Some("vitals".into())
            }
        );
        assert!(matches!(
            err("UNSUBSCRIBE a b"),
            WireError::Malformed { .. }
        ));
        match err("SUBSCIRBE s") {
            WireError::UnknownCommand { suggestion, .. } => {
                assert_eq!(suggestion, Some("SUBSCRIBE"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_commands_reject_arguments() {
        assert_eq!(parse("HEALTH"), Request::Health);
        assert_eq!(parse("ping"), Request::Ping);
        assert_eq!(parse("SHUTDOWN"), Request::Shutdown);
        assert_eq!(parse("QUIT"), Request::Quit);
        assert!(matches!(err("HEALTH now"), WireError::Malformed { .. }));
        assert_eq!(parse("STATS"), Request::Stats { stream: None });
        assert_eq!(
            parse("STATS vitals"),
            Request::Stats {
                stream: Some("vitals".into())
            }
        );
        assert!(matches!(err("STATS a b"), WireError::Malformed { .. }));
    }

    #[test]
    fn blanks_and_comments_carry_no_request() {
        assert_eq!(Request::parse_line("").unwrap(), None);
        assert_eq!(Request::parse_line("   \t").unwrap(), None);
        assert_eq!(Request::parse_line("# comment").unwrap(), None);
    }

    #[test]
    fn oversize_lines_are_rejected_before_parsing() {
        let long = format!("PING {}", "x".repeat(MAX_LINE_BYTES));
        assert!(matches!(
            Request::parse_line(&long),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn stream_names_are_validated_everywhere() {
        for bad in [
            "",
            "-leading-dash",
            ".hidden",
            "has space",
            "path/../escape",
            "dot\\slash",
            &"x".repeat(MAX_STREAM_NAME + 1),
        ] {
            assert!(
                validate_stream_name(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
        for good in [
            "a",
            "vitals",
            "tenant-7.shard_2",
            &"x".repeat(MAX_STREAM_NAME),
        ] {
            assert!(validate_stream_name(good).is_ok(), "{good:?} should pass");
        }
        assert!(matches!(
            err("SYNC bad/name"),
            WireError::BadStreamName { .. }
        ));
        assert!(matches!(err("DROP -x"), WireError::BadStreamName { .. }));
        assert!(matches!(
            err("QUERY ../etc"),
            WireError::BadStreamName { .. }
        ));
    }

    #[test]
    fn support_spec_resolves_thresholds() {
        assert_eq!(SupportSpec::Absolute(3).absolute_for(100), 3);
        assert_eq!(SupportSpec::Absolute(0).absolute_for(100), 1);
        assert_eq!(SupportSpec::Fraction(0.1).absolute_for(100), 10);
        assert_eq!(SupportSpec::Fraction(0.1).absolute_for(5), 1);
        assert_eq!(SupportSpec::Fraction(0.25).absolute_for(10), 3, "ceil");
        assert_eq!(SupportSpec::Fraction(1.0).absolute_for(0), 1, "never 0");
    }

    #[test]
    fn edit_distance_and_closest_are_shared_helpers() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(closest("QUREY", VERBS), Some("QUERY"));
        assert_eq!(closest("zzzzzz", VERBS), None);
    }

    /// The verb a request is spelled with. No `_` arm: a new `Request`
    /// variant fails to compile here until it names its verb.
    fn verb_of(request: &Request) -> &'static str {
        match request {
            Request::Create { .. } => "CREATE",
            Request::Event { .. } => "EVENT",
            Request::Batch { .. } => "BATCH",
            Request::Query { .. } => "QUERY",
            Request::History { .. } => "HISTORY",
            Request::Sync { .. } => "SYNC",
            Request::Subscribe { .. } => "SUBSCRIBE",
            Request::Unsubscribe { .. } => "UNSUBSCRIBE",
            Request::Stats { .. } => "STATS",
            Request::Drop { .. } => "DROP",
            Request::Health => "HEALTH",
            Request::Ping => "PING",
            Request::Shutdown => "SHUTDOWN",
            Request::Quit => "QUIT",
        }
    }

    /// One well-formed line per verb.
    const SAMPLES: &[(&str, &str)] = &[
        ("CREATE", "CREATE s WINDOW 10 SUPPORT 0.5"),
        ("EVENT", "EVENT s watermark 9"),
        ("BATCH", "BATCH s 1"),
        ("QUERY", "QUERY s"),
        ("HISTORY", "HISTORY s FROM 0 TO 10"),
        ("SYNC", "SYNC s"),
        ("SUBSCRIBE", "SUBSCRIBE s"),
        ("UNSUBSCRIBE", "UNSUBSCRIBE"),
        ("STATS", "STATS"),
        ("DROP", "DROP s"),
        ("HEALTH", "HEALTH"),
        ("PING", "PING"),
        ("SHUTDOWN", "SHUTDOWN"),
        ("QUIT", "QUIT"),
    ];

    /// The protocol reference whose command table lists every verb.
    const SERVER_DOCS: &str = include_str!("../../../docs/SERVER.md");

    /// Whether a table row of [`SERVER_DOCS`] opens its first cell's code
    /// span with `verb` (`| `SYNC <s>` |`, `| `PING` / `QUIT` |`).
    fn documented(verb: &str) -> bool {
        SERVER_DOCS
            .lines()
            .filter_map(|line| line.strip_prefix("| "))
            .filter_map(|row| row.split(" |").next())
            .any(|cell| {
                cell.split('`')
                    .skip(1)
                    .step_by(2)
                    .any(|span| span.split(' ').next() == Some(verb))
            })
    }

    #[test]
    fn every_verb_parses_to_its_own_request_and_is_documented() {
        for &verb in VERBS {
            assert!(
                !matches!(
                    Request::parse_line(verb),
                    Err(WireError::UnknownCommand { .. })
                ),
                "{verb} is in VERBS but has no parse arm"
            );
            let (_, line) = SAMPLES
                .iter()
                .find(|(v, _)| *v == verb)
                .unwrap_or_else(|| panic!("no sample line for {verb}"));
            assert_eq!(verb_of(&parse(line)), verb, "{line:?}");
            assert!(
                documented(verb),
                "{verb} has no row in the docs/SERVER.md command table"
            );
        }
    }
}
