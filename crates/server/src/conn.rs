//! Per-connection protocol loop: capped line reading and request dispatch.
//!
//! Each accepted socket gets one thread (spawned by [`crate::accept`], the
//! sanctioned spawn site) running `serve`. The read side uses a short
//! socket timeout so the loop can observe the server's draining flag
//! between requests — a connection never pins the drain behind an idle
//! client. Lines longer than [`interval_core::wire::MAX_LINE_BYTES`] are
//! rejected *and discarded without being buffered*: the reader switches to
//! a discard state that consumes up to the newline in fixed-size chunks,
//! so a hostile client cannot make the server allocate its line.
//!
//! One connection failing — malformed frames, a mid-`BATCH` disconnect, a
//! kill -9 on the client — affects only that connection: sessions are
//! owned by the registry, not the connection, and every response path
//! keeps the loop alive except genuine I/O errors and `QUIT`.

use std::borrow::Cow;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use interval_core::wire::{Request, WireError, MAX_LINE_BYTES};
use interval_core::StreamEvent;
use stream::SnapshotSubscriber;

use crate::session::{QueryReply, StreamSession};
use crate::{proto, Shared};

/// Socket read timeout: the cadence at which an idle connection re-checks
/// the draining flag — and drains any pending push subscription.
const READ_TICK: Duration = Duration::from_millis(50);

/// Bounded queue depth of one connection's push subscription. A
/// subscriber that falls more than this many revisions behind starts
/// dropping (counted, reported on `UNSUBSCRIBE` and in `STATS`);
/// publication never waits for it.
const SUBSCRIBER_CAPACITY: usize = 64;

/// The connection's active push subscription (at most one).
struct ActiveSub {
    stream: String,
    subscriber: SnapshotSubscriber,
}

/// What one attempt to read a request line produced.
enum Next<'a> {
    /// A complete line (without its terminator), borrowed from the
    /// reader's buffer until the next read; invalid UTF-8 is decoded
    /// lossily into an owned copy.
    Line(Cow<'a, str>),
    /// A line exceeded the cap and was discarded through the newline.
    Oversize,
    /// The peer closed the connection.
    Eof,
    /// The read timed out with no (or only partial) data; poll flags and
    /// try again — any partial data stays buffered.
    Idle,
}

/// A capped, timeout-tolerant line reader over the socket.
struct LineReader {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
    /// Whether `buf` holds the line the last `next` returned, to be
    /// cleared before the next read.
    lent: bool,
    discarding: bool,
}

impl LineReader {
    fn new(sock: TcpStream) -> Self {
        LineReader {
            reader: BufReader::new(sock),
            buf: Vec::new(),
            lent: false,
            discarding: false,
        }
    }

    fn next(&mut self) -> std::io::Result<Next<'_>> {
        use std::io::ErrorKind;
        if self.lent {
            self.buf.clear();
            self.lent = false;
        }
        loop {
            if self.discarding {
                // Consume through the newline in buffer-sized chunks.
                let consumed = match self.reader.fill_buf() {
                    Ok([]) => return Ok(Next::Eof),
                    Ok(bytes) => match bytes.iter().position(|&b| b == b'\n') {
                        Some(pos) => {
                            self.reader.consume(pos + 1);
                            self.discarding = false;
                            return Ok(Next::Oversize);
                        }
                        None => bytes.len(),
                    },
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) =>
                    {
                        return Ok(Next::Idle)
                    }
                    Err(e) => return Err(e),
                };
                self.reader.consume(consumed);
                continue;
            }
            let budget = (MAX_LINE_BYTES + 1).saturating_sub(self.buf.len());
            if budget == 0 {
                self.buf.clear();
                self.discarding = true;
                continue;
            }
            let mut limited = Read::by_ref(&mut self.reader).take(budget as u64);
            match limited.read_until(b'\n', &mut self.buf) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(Next::Eof)
                    } else {
                        // EOF terminated a final, newline-less line.
                        Ok(Next::Line(self.take_line()))
                    };
                }
                Ok(_) => {
                    if self.buf.last() == Some(&b'\n') {
                        return Ok(Next::Line(self.take_line()));
                    }
                    if self.buf.len() > MAX_LINE_BYTES {
                        self.buf.clear();
                        self.discarding = true;
                        continue;
                    }
                    // Short read without a delimiter: more data may follow.
                    continue;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    // Partial data (if any) stays in `buf` for the retry.
                    return Ok(Next::Idle);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Lends the buffered line, without its terminator, until the next
    /// read clears it.
    fn take_line(&mut self) -> Cow<'_, str> {
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
        }
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        self.lent = true;
        String::from_utf8_lossy(&self.buf)
    }
}

/// Runs the protocol loop for one accepted connection until the client
/// quits, hangs up, errors, or the server drains.
pub(crate) fn serve(sock: TcpStream, shared: Arc<Shared>) {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(READ_TICK));
    let writer_sock = match sock.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(writer_sock);
    let mut lines = LineReader::new(sock);
    let mut active: Option<ActiveSub> = None;
    loop {
        if shared.draining.load(Ordering::Relaxed) {
            break;
        }
        // Push pending subscription revisions between requests — at worst
        // one READ_TICK after publication on an otherwise idle connection.
        if pump_subscription(&mut active, &mut writer).is_err() {
            break;
        }
        let reply = match lines.next() {
            Ok(Next::Idle) => continue,
            Ok(Next::Eof) | Err(_) => break,
            Ok(Next::Oversize) => Err(WireError::Oversize {
                limit: MAX_LINE_BYTES,
            }
            .to_string()),
            Ok(Next::Line(line)) => match Request::parse_line(&line) {
                Ok(None) => continue,
                Err(e) => Err(e.to_string()),
                Ok(Some(request)) => {
                    shared.counters.note_command();
                    // A revision published while this request was in
                    // flight goes out ahead of its reply, so a
                    // request/response client sees it now rather than one
                    // request later.
                    if pump_subscription(&mut active, &mut writer).is_err() {
                        break;
                    }
                    dispatch(request, &shared, &mut lines, &mut active)
                }
            },
        };
        match send(&mut writer, &shared, reply) {
            Ok(false) => {}
            Ok(true) | Err(_) => break,
        }
    }
    let _ = writer.flush();
}

/// One successful reply to a request; a refusal is the `Err` beside it.
enum Reply {
    /// `OK <detail>`.
    Ok(String),
    /// A `BEGIN … END` block: header suffix and payload lines.
    Block(String, Vec<String>),
    /// A `QUERY` or `HISTORY` answer block.
    Query(QueryReply),
    /// A refused `EVENT`, framed `ERR rejected: <reason>`. It is counted as
    /// an event rejection, not as a protocol error.
    Rejected(String),
    /// Closes the connection, after `OK <detail>` when there is one.
    Close(Option<String>),
}

/// Frames one reply and flushes it; the one place a refusal is counted
/// as a protocol error. `Ok(true)` closes the connection.
fn send(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    reply: Result<Reply, String>,
) -> std::io::Result<bool> {
    let mut close = false;
    match reply {
        Err(reason) => {
            shared.counters.note_protocol_error();
            proto::err(writer, &reason)?;
        }
        Ok(Reply::Ok(detail)) => proto::ok(writer, &detail)?,
        Ok(Reply::Block(suffix, lines)) => proto::block(writer, &suffix, &lines)?,
        Ok(Reply::Query(reply)) => proto::query_reply(writer, &reply)?,
        Ok(Reply::Rejected(reason)) => proto::err(writer, &format!("rejected: {reason}"))?,
        Ok(Reply::Close(detail)) => {
            close = true;
            if let Some(detail) = detail {
                proto::ok(writer, &detail)?;
            }
        }
    }
    writer.flush()?;
    Ok(close)
}

/// The live session named `name`, or the refusal naming it.
fn session(shared: &Shared, name: &str) -> Result<Arc<StreamSession>, String> {
    shared
        .registry
        .get(name)
        .ok_or_else(|| format!("no such stream {name:?}"))
}

/// Writes every snapshot the active subscription has queued as `REV` push
/// lines. Queue-empty and sender-gone (the stream was `DROP`ped) look the
/// same here — the subscription simply goes quiet; `UNSUBSCRIBE` still
/// reports its final counters. Only genuine socket errors propagate.
fn pump_subscription(
    active: &mut Option<ActiveSub>,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    let Some(sub) = active.as_ref() else {
        return Ok(());
    };
    let mut wrote = false;
    while let Some(snapshot) = sub.subscriber.try_next() {
        let line = proto::rev_line(&sub.stream, &snapshot, sub.subscriber.dropped());
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        wrote = true;
    }
    if wrote {
        writer.flush()?;
    }
    Ok(())
}

/// Handles one parsed request.
fn dispatch(
    request: Request,
    shared: &Shared,
    lines: &mut LineReader,
    active: &mut Option<ActiveSub>,
) -> Result<Reply, String> {
    match request {
        Request::Create { stream, spec } => {
            if shared.registry.get(&stream).is_some() {
                return Err(format!("stream {stream:?} already exists"));
            }
            let (session, outcome) = StreamSession::open(&stream, &spec, &shared.config)?;
            if let Err(reason) = shared.registry.insert(Arc::clone(&session)) {
                // Lost a CREATE race (or hit the cap): tear the fresh
                // session down again.
                session.drain();
                return Err(reason);
            }
            Ok(Reply::Ok(if outcome.recovered_events > 0 {
                format!(
                    "recovered stream={stream} events={} watermark={} clean={}",
                    outcome.recovered_events,
                    outcome
                        .recovered_watermark
                        .map_or_else(|| "-".to_owned(), |t| t.to_string()),
                    outcome.replay_clean,
                )
            } else {
                format!("created stream={stream} wal={}", outcome.durable)
            }))
        }
        Request::Event { stream, event } => match session(shared, &stream)?.ingest(event) {
            Ok(ack) => {
                shared.counters.note_events_accepted(1);
                Ok(Reply::Ok(
                    if ack.degraded_now {
                        "accepted wal=degraded"
                    } else {
                        "accepted"
                    }
                    .to_owned(),
                ))
            }
            Err(reason) => {
                shared.counters.note_events_rejected(1);
                Ok(Reply::Rejected(reason))
            }
        },
        Request::Batch { stream, count } => ingest_batch(&stream, count, shared, lines),
        Request::Query {
            stream,
            prefix,
            top,
        } => {
            let session = session(shared, &stream)?;
            shared.counters.note_query();
            Ok(Reply::Query(session.query(prefix.as_deref(), top)))
        }
        Request::History {
            stream,
            from,
            to,
            support,
            top,
        } => {
            shared.counters.note_query();
            let root = shared
                .config
                .segment_root
                .as_ref()
                .ok_or("server has no --segment-dir (HISTORY disabled)")?;
            // Served straight off the sealed segment files — no registry
            // lookup, no ingest lock: the stream may be live, draining or
            // long dropped, and ingestion never waits on a historical mine.
            crate::session::mine_history(
                &root.join(&stream),
                from,
                to,
                support,
                top,
                shared.config.threads,
            )
            .map(Reply::Query)
        }
        Request::Sync { stream } => {
            let snapshot = session(shared, &stream)?.sync()?;
            Ok(Reply::Ok(format!(
                "synced revision={} watermark={} patterns={}",
                snapshot.revision,
                snapshot
                    .watermark
                    .map_or_else(|| "-".to_owned(), |t| t.to_string()),
                snapshot.result.len(),
            )))
        }
        Request::Stats { stream } => {
            let payload = match stream {
                Some(name) => vec![proto::stats_line(&session(shared, &name)?.stats())],
                None => std::iter::once(proto::server_line(
                    &shared.counters.snapshot(),
                    shared.registry.len(),
                ))
                .chain(
                    shared
                        .registry
                        .all()
                        .iter()
                        .map(|session| proto::stats_line(&session.stats())),
                )
                .collect(),
            };
            Ok(Reply::Block(String::new(), payload))
        }
        Request::Drop { stream } => {
            let session = shared
                .registry
                .remove(&stream)
                .ok_or_else(|| format!("no such stream {stream:?}"))?;
            let drain = session.drain();
            Ok(Reply::Ok(format!(
                "dropped stream={stream} events={} revision={} wal_degraded={}",
                drain.events, drain.final_revision, drain.pipeline.wal_degraded,
            )))
        }
        Request::Subscribe { stream } => {
            if let Some(sub) = active.as_ref() {
                return Err(format!(
                    "already subscribed to {:?} (UNSUBSCRIBE first)",
                    sub.stream
                ));
            }
            let subscriber = session(shared, &stream)?.subscribe(SUBSCRIBER_CAPACITY);
            let detail = format!("subscribed stream={stream} capacity={SUBSCRIBER_CAPACITY}");
            *active = Some(ActiveSub { stream, subscriber });
            Ok(Reply::Ok(detail))
        }
        Request::Unsubscribe { stream } => {
            let sub = active.take().ok_or("no active subscription")?;
            if let Some(name) = stream.filter(|name| name != &sub.stream) {
                let reason = format!("subscribed to {:?}, not {name:?}", sub.stream);
                *active = Some(sub);
                return Err(reason);
            }
            Ok(Reply::Ok(format!(
                "unsubscribed stream={} delivered={} dropped={}",
                sub.stream,
                sub.subscriber.delivered(),
                sub.subscriber.dropped(),
            )))
        }
        Request::Health => {
            let draining = shared.draining.load(Ordering::Relaxed)
                || shared.shutdown_requested.load(Ordering::Relaxed);
            Ok(Reply::Ok(format!(
                "healthy streams={} draining={draining}",
                shared.registry.len()
            )))
        }
        Request::Ping => Ok(Reply::Ok("pong".to_owned())),
        Request::Shutdown => {
            shared.shutdown_requested.store(true, Ordering::Relaxed);
            Ok(Reply::Ok("draining".to_owned()))
        }
        Request::Quit => Ok(Reply::Close(Some("bye".to_owned()))),
    }
}

/// Reads and ingests the `count` event lines following a `BATCH` header.
/// The payload is always consumed — even when the stream does not exist —
/// so the connection's framing stays intact.
fn ingest_batch(
    stream: &str,
    count: usize,
    shared: &Shared,
    lines: &mut LineReader,
) -> Result<Reply, String> {
    let session = shared.registry.get(stream);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut remaining = count;
    while remaining > 0 {
        if shared.draining.load(Ordering::Relaxed) {
            return Ok(Reply::Close(None));
        }
        match lines.next() {
            Ok(Next::Idle) => continue,
            // A client killed mid-batch: everything accepted so far stays
            // accepted (and journaled); only the connection dies.
            Ok(Next::Eof) | Err(_) => return Ok(Reply::Close(None)),
            Ok(Next::Oversize) => {
                remaining -= 1;
                rejected += 1;
            }
            Ok(Next::Line(line)) => {
                remaining -= 1;
                match StreamEvent::parse_line(&line, count - remaining) {
                    Ok(None) => {} // blank/comment payload line: counted, no event
                    Err(_) => rejected += 1,
                    Ok(Some(event)) => match &session {
                        None => rejected += 1,
                        Some(session) => match session.ingest(event) {
                            Ok(_) => accepted += 1,
                            Err(_) => rejected += 1,
                        },
                    },
                }
            }
        }
    }
    shared.counters.note_events_accepted(accepted);
    shared.counters.note_events_rejected(rejected);
    if session.is_none() {
        return Err(format!(
            "no such stream {stream:?} (batch payload discarded)"
        ));
    }
    Ok(Reply::Ok(format!(
        "batch accepted={accepted} rejected={rejected}"
    )))
}
