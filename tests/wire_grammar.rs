//! Property tests over the wire request grammar (`interval_core::wire`),
//! focused on the read-side verbs the service tier streams results for:
//!
//! - **round trip**: formatting a structurally valid `QUERY` / `SUBSCRIBE`
//!   / `UNSUBSCRIBE` frame (any keyword order, any casing, messy
//!   whitespace) and parsing it back yields exactly the intended request;
//! - **junk classification**: arbitrary printable garbage never panics
//!   the parser.

mod common;

use common::prop;
use interval_core::rng::SplitMix64;
use interval_core::wire::Request;

const STREAMS: &[&str] = &["s", "vitals", "tenant-7.shard_2", "a1-b2.c"];
const SYMBOLS: &[&str] = &["fever", "Rash", "x9", "alpha_3"];

/// Applies one of three casings to a keyword.
fn cased(word: &str, casing: u32) -> String {
    match casing % 3 {
        0 => word.to_ascii_uppercase(),
        1 => word.to_ascii_lowercase(),
        _ => word
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            })
            .collect(),
    }
}

/// Whitespace separator: one to three spaces or a tab.
fn sep(kind: u32) -> &'static str {
    match kind % 4 {
        0 => " ",
        1 => "  ",
        2 => "   ",
        _ => "\t",
    }
}

/// QUERY round trip: for every combination of PREFIX/TOP presence,
/// argument order, keyword casing and whitespace, the formatted line
/// parses back to exactly the intended request.
#[test]
fn query_frames_round_trip() {
    let generate = |rng: &mut SplitMix64| {
        (
            (
                rng.range(0usize..4),
                rng.range(0usize..4),
                rng.range(1usize..10_000),
            ),
            (rng.range(0u32..2), rng.range(0u32..2), rng.range(0u32..2)),
            (rng.range(0u32..3), rng.range(0u32..4)),
        )
    };
    prop::check(
        64,
        generate,
        |((stream_i, sym_i, top), (has_prefix, has_top, top_first), (casing, ws))| {
            let stream = STREAMS[stream_i];
            let symbol = SYMBOLS[sym_i];
            let prefix = (has_prefix == 1).then(|| symbol.to_owned());
            let top_arg = (has_top == 1).then_some(top);

            let mut clauses: Vec<String> = Vec::new();
            let prefix_clause = format!("{}{}{}", cased("PREFIX", casing), sep(ws), symbol);
            let top_clause = format!("{}{}{}", cased("TOP", casing), sep(ws), top);
            if top_first == 1 {
                if top_arg.is_some() {
                    clauses.push(top_clause);
                }
                if prefix.is_some() {
                    clauses.push(prefix_clause);
                }
            } else {
                if prefix.is_some() {
                    clauses.push(prefix_clause);
                }
                if top_arg.is_some() {
                    clauses.push(top_clause);
                }
            }
            let mut line = format!("{}{}{}", cased("QUERY", casing), sep(ws), stream);
            for clause in &clauses {
                line.push_str(sep(ws));
                line.push_str(clause);
            }

            let parsed = Request::parse_line(&line)
                .expect("valid frame")
                .expect("a request");
            assert_eq!(
                parsed,
                Request::Query {
                    stream: stream.to_owned(),
                    prefix,
                    top: top_arg,
                }
            );
        },
    );
}

/// SUBSCRIBE / UNSUBSCRIBE round trip across casing and whitespace.
#[test]
fn subscribe_frames_round_trip() {
    let generate = |rng: &mut SplitMix64| {
        (
            rng.range(0usize..4),
            rng.range(0u32..3),
            rng.range(0u32..4),
            rng.range(0u32..2),
        )
    };
    prop::check(64, generate, |(stream_i, casing, ws, bare_unsub)| {
        let stream = STREAMS[stream_i];
        let line = format!("{}{}{}", cased("SUBSCRIBE", casing), sep(ws), stream);
        let parsed = Request::parse_line(&line)
            .expect("valid frame")
            .expect("a request");
        assert_eq!(
            parsed,
            Request::Subscribe {
                stream: stream.to_owned()
            }
        );

        let line = if bare_unsub == 1 {
            cased("UNSUBSCRIBE", casing)
        } else {
            format!("{}{}{}", cased("UNSUBSCRIBE", casing), sep(ws), stream)
        };
        let parsed = Request::parse_line(&line)
            .expect("valid frame")
            .expect("a request");
        let expected = if bare_unsub == 1 {
            None
        } else {
            Some(stream.to_owned())
        };
        assert_eq!(parsed, Request::Unsubscribe { stream: expected });
    });
}

/// Junk never panics the parser: every line classifies as a request, a
/// blank or comment line, or an error. (That junk never desyncs the next
/// frame is a property of the server's line reader; the TCP test
/// `protocol_errors_keep_the_connection_alive` checks it on one
/// connection.)
#[test]
fn junk_is_classified_without_panicking() {
    prop::check(
        64,
        |rng| prop::printable(rng, 0..=60),
        |junk| {
            let _ = Request::parse_line(&junk);
        },
    );
}

/// Structured near-misses of the SUBSCRIBE grammar (missing stream,
/// trailing junk, invalid names) are Malformed/BadStreamName errors,
/// never accepted and never a panic.
#[test]
fn subscribe_near_misses_error_cleanly() {
    let generate = |rng: &mut SplitMix64| (rng.range(0u32..4), rng.range(0usize..4));
    prop::check(64, generate, |(variant, stream_i)| {
        let stream = STREAMS[stream_i];
        let line = match variant {
            0 => "SUBSCRIBE".to_owned(),
            1 => format!("SUBSCRIBE {stream} extra-arg"),
            2 => format!("SUBSCRIBE -{stream}"),
            _ => format!("SUBSCRIBE ../{stream}"),
        };
        assert!(Request::parse_line(&line).is_err());
    });
}
