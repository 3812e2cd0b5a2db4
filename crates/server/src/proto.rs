//! Response framing for the service protocol.
//!
//! Requests are parsed by [`interval_core::wire`]; this module renders the
//! three response shapes the server ever sends:
//!
//! ```text
//! OK <detail>                      # single-line success
//! ERR <reason>                     # single-line failure (connection stays up)
//! BEGIN <n> [k=v ...]              # framed payload: exactly n lines follow
//! <payload line> × n
//! END
//! REV <k=v ...>                    # asynchronous push (active SUBSCRIBE only)
//! ```
//!
//! `REV` lines appear only between request/response exchanges on a
//! connection with an active subscription — never inside a `BEGIN … END`
//! frame — so clients that subscribe must treat any `REV`-prefixed line as
//! a push and keep waiting for the response they asked for.
//!
//! The `BEGIN <n> … END` frame lets a client read a variable-length reply
//! without sniffing — it knows the exact line count up front and `END`
//! double-checks framing. Payload lines are guaranteed to never start with
//! `OK`, `ERR`, `BEGIN` or `END` confusion because clients must count, not
//! sniff.

use std::io::{self, Write};

use stream::{PatternSnapshot, PipelineStats};

use crate::session::{QueryReply, SessionStats};
use crate::stats::CountersSnapshot;

/// Writes a single-line success response.
pub fn ok(w: &mut impl Write, detail: &str) -> io::Result<()> {
    if detail.is_empty() {
        w.write_all(b"OK\n")
    } else {
        writeln!(w, "OK {detail}")
    }
}

/// Writes a single-line error response.
pub fn err(w: &mut impl Write, reason: &str) -> io::Result<()> {
    // Keep the frame single-line no matter what the reason contains.
    let flat = reason.replace(['\n', '\r'], " ");
    writeln!(w, "ERR {flat}")
}

/// Writes a framed payload: `BEGIN <n> [suffix]`, the lines, `END`.
pub fn block(w: &mut impl Write, suffix: &str, lines: &[String]) -> io::Result<()> {
    if suffix.is_empty() {
        writeln!(w, "BEGIN {}", lines.len())?;
    } else {
        writeln!(w, "BEGIN {} {suffix}", lines.len())?;
    }
    for line in lines {
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.write_all(b"END\n")
}

/// Renders a query reply: header carries the snapshot provenance, each
/// payload line is `<support>\t<pattern>` in canonical order.
pub fn query_reply(w: &mut impl Write, reply: &QueryReply) -> io::Result<()> {
    let suffix = format!(
        "revision={} watermark={} sequences={}",
        reply.revision,
        reply
            .watermark
            .map_or_else(|| "-".to_owned(), |t| t.to_string()),
        reply.sequences,
    );
    let lines: Vec<String> = reply
        .lines
        .iter()
        .map(|l| format!("{}\t{}", l.support, l.pattern))
        .collect();
    block(w, &suffix, &lines)
}

/// One pushed revision notification for an active subscription.
/// `dropped` is the subscriber's cumulative drop count, so a client can
/// detect that it missed revisions without comparing revision numbers.
pub fn rev_line(stream: &str, snapshot: &PatternSnapshot, dropped: u64) -> String {
    format!(
        "REV stream={stream} revision={} watermark={} sequences={} patterns={} dropped={dropped}",
        snapshot.revision,
        snapshot
            .watermark
            .map_or_else(|| "-".to_owned(), |t| t.to_string()),
        snapshot.sequences,
        snapshot.result.len(),
    )
}

/// One `STATS` payload line for a stream — stable `k=v` pairs.
pub fn stats_line(s: &SessionStats) -> String {
    // No `..`: a new pipeline counter fails to compile until it is rendered.
    let PipelineStats {
        submitted_refreshes,
        completed_refreshes,
        coalesced_refreshes,
        events_during_refresh,
        refresh_lag,
        subscribers,
        subscriber_delivered,
        subscriber_dropped,
        subscriber_max_lag,
        wal_flushes,
        wal_degraded,
        segments_sealed,
        segment_records,
        segment_bytes,
        segment_seal_failures,
    } = &s.pipeline;
    let lag = refresh_lag.map_or_else(|| "-".to_owned(), |t| t.to_string());
    let wal = match &s.journal {
        None => "wal=none".to_owned(),
        Some(j) => format!(
            "wal_records={} wal_flushes={wal_flushes} wal_degraded={wal_degraded}",
            j.wal.records_appended
        ),
    };
    format!(
        "stream={} events={} watermarks={} sequences={} open={} revision={} patterns={} \
         submitted={submitted_refreshes} completed={completed_refreshes} \
         coalesced={coalesced_refreshes} during_refresh={events_during_refresh} lag={lag} \
         subscribers={subscribers} sub_delivered={subscriber_delivered} \
         sub_dropped={subscriber_dropped} sub_max_lag={subscriber_max_lag} \
         sealed={segments_sealed} seal_records={segment_records} seal_bytes={segment_bytes} \
         seal_failures={segment_seal_failures} queries={} {wal}",
        s.name,
        s.events,
        s.watermarks,
        s.sequences,
        s.open_intervals,
        s.revision,
        s.patterns,
        s.queries,
    )
}

/// The server-wide `STATS` payload line.
pub fn server_line(c: &CountersSnapshot, streams: usize) -> String {
    format!(
        "server streams={streams} connections={} commands={} protocol_errors={} \
         events_accepted={} events_rejected={} queries={}",
        c.connections,
        c.commands,
        c.protocol_errors,
        c.events_accepted,
        c.events_rejected,
        c.queries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::QueryLine;

    #[test]
    fn frames_render_exactly() {
        let mut buf = Vec::new();
        ok(&mut buf, "created stream=s").unwrap();
        ok(&mut buf, "").unwrap();
        err(&mut buf, "multi\nline\rreason").unwrap();
        block(&mut buf, "k=v", &["a".into(), "b".into()]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "OK created stream=s\nOK\nERR multi line reason\nBEGIN 2 k=v\na\nb\nEND\n"
        );
    }

    #[test]
    fn query_reply_renders_provenance_and_tab_separated_lines() {
        let reply = QueryReply {
            revision: 3,
            watermark: Some(42),
            sequences: 7,
            lines: vec![
                QueryLine {
                    support: 5,
                    pattern: "a+ | a-".into(),
                },
                QueryLine {
                    support: 2,
                    pattern: "b+ | b-".into(),
                },
            ],
        };
        let mut buf = Vec::new();
        query_reply(&mut buf, &reply).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "BEGIN 2 revision=3 watermark=42 sequences=7\n5\ta+ | a-\n2\tb+ | b-\nEND\n"
        );
    }

    /// A `SessionStats` whose every counter holds a distinct value, so a
    /// swapped or dropped key shows in the golden lines below.
    fn distinct_stats(journal: Option<stream::JournalStats>) -> SessionStats {
        SessionStats {
            name: "vitals".into(),
            events: 1,
            watermarks: 2,
            sequences: 3,
            open_intervals: 4,
            revision: 5,
            patterns: 6,
            pipeline: PipelineStats {
                submitted_refreshes: 7,
                completed_refreshes: 8,
                coalesced_refreshes: 9,
                events_during_refresh: 10,
                refresh_lag: Some(11),
                subscribers: 12,
                subscriber_delivered: 13,
                subscriber_dropped: 14,
                subscriber_max_lag: 15,
                wal_flushes: 16,
                wal_degraded: true,
                segments_sealed: 17,
                segment_records: 18,
                segment_bytes: 19,
                segment_seal_failures: 20,
            },
            journal,
            queries: 21,
        }
    }

    #[test]
    fn stats_line_is_golden_in_both_wal_forms() {
        let durable = distinct_stats(Some(stream::JournalStats {
            wal: durability::WalStats {
                records_appended: 22,
                bytes_written: 23,
                writes: 24,
                syncs: 25,
                segments_sealed: 26,
                segments_reclaimed: 27,
                retries: 28,
            },
            flushes: 29,
            appends_skipped: 30,
            degraded: false,
        }));
        assert_eq!(
            stats_line(&durable),
            "stream=vitals events=1 watermarks=2 sequences=3 open=4 revision=5 patterns=6 \
             submitted=7 completed=8 coalesced=9 during_refresh=10 lag=11 \
             subscribers=12 sub_delivered=13 sub_dropped=14 sub_max_lag=15 \
             sealed=17 seal_records=18 seal_bytes=19 seal_failures=20 queries=21 \
             wal_records=22 wal_flushes=16 wal_degraded=true"
        );

        let mut volatile = distinct_stats(None);
        volatile.pipeline.refresh_lag = None;
        assert_eq!(
            stats_line(&volatile),
            "stream=vitals events=1 watermarks=2 sequences=3 open=4 revision=5 patterns=6 \
             submitted=7 completed=8 coalesced=9 during_refresh=10 lag=- \
             subscribers=12 sub_delivered=13 sub_dropped=14 sub_max_lag=15 \
             sealed=17 seal_records=18 seal_bytes=19 seal_failures=20 queries=21 wal=none"
        );
    }

    #[test]
    fn server_line_is_stable() {
        let line = server_line(&CountersSnapshot::default(), 2);
        assert!(line.starts_with("server streams=2 connections=0"), "{line}");
    }
}
