//! End-to-end tests for `serve`: two concurrent named streams ingesting
//! over real TCP connections while queries are served from published
//! snapshots, query results bit-identical to an offline `mine` over the
//! same window, and a SIGINT drain that flushes the WAL and loses no
//! accepted event (verified by replaying the log with `recover`).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods,
    reason = "a test helper fails its test by panicking, and tests drive the server from client threads"
)]

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ptpminer-cli"))
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ptpminer-server-e2e-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts `serve` on a free port and waits for the port file.
fn launch_serve(dir: &Path, extra: &[&str]) -> (Child, String) {
    let port_file = dir.join("port.txt");
    let stderr_file = File::create(dir.join("server.log")).unwrap();
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr_file))
        .spawn()
        .unwrap();
    for _ in 0..300 {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            let addr = addr.trim().to_owned();
            if !addr.is_empty() {
                return (child, addr);
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("serve did not write its port file");
}

/// One line-oriented protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let sock = TcpStream::connect(addr).unwrap();
        Conn {
            reader: BufReader::new(sock.try_clone().unwrap()),
            writer: sock,
        }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_owned()
    }

    /// Sends a command; returns the whole response unit (line or block).
    /// `REV` push lines arriving ahead of the response (possible on a
    /// subscribed connection) are skipped.
    fn send(&mut self, command: &str) -> Vec<String> {
        self.writer
            .write_all(format!("{command}\n").as_bytes())
            .unwrap();
        let mut head = self.read_line();
        while head.starts_with("REV ") {
            head = self.read_line();
        }
        let mut out = vec![head.clone()];
        if let Some(rest) = head.strip_prefix("BEGIN ") {
            let count: usize = rest.split_whitespace().next().unwrap().parse().unwrap();
            for _ in 0..count {
                out.push(self.read_line());
            }
            let end = self.read_line();
            assert_eq!(end, "END");
            out.push(end);
        }
        out
    }

    /// Reads one asynchronous push line, or `None` if the connection stays
    /// quiet for `timeout`.
    fn read_push(&mut self, timeout: Duration) -> Option<String> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout))
            .unwrap();
        let mut line = String::new();
        let got = match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_owned()),
        };
        self.reader.get_ref().set_read_timeout(None).unwrap();
        got
    }

    fn ok(&mut self, command: &str) {
        let reply = self.send(command);
        assert!(reply[0].starts_with("OK"), "{command} -> {reply:?}");
    }
}

/// The interval workload for one stream: `(sequence, symbol, start, end)`.
/// Watermarks are sent after each sequence when ingesting over TCP but are
/// control records, so they do not appear in the offline database.
fn workload(symbols: [&str; 2], sequences: i64) -> Vec<(i64, String, i64, i64)> {
    let mut events = Vec::new();
    for seq in 0..sequences {
        let base = seq * 40;
        events.push((seq, symbols[0].to_owned(), base, base + 6));
        events.push((seq, symbols[1].to_owned(), base + 3, base + 9));
        if seq % 2 == 0 {
            // An extra interval in even sequences keeps some patterns
            // below threshold, so filtering actually does something.
            events.push((seq, symbols[0].to_owned(), base + 10, base + 14));
        }
    }
    events
}

/// Ingests a workload over one connection, one watermark per sequence.
fn ingest(conn: &mut Conn, stream: &str, events: &[(i64, String, i64, i64)]) {
    let mut current_seq = None;
    for (seq, sym, start, end) in events {
        if current_seq.is_some_and(|s| s != *seq) {
            conn.ok(&format!("EVENT {stream} watermark {}", seq * 40 - 1));
        }
        current_seq = Some(*seq);
        conn.ok(&format!(
            "EVENT {stream} interval {seq} {sym} {start} {end}"
        ));
    }
    if let Some(seq) = current_seq {
        conn.ok(&format!("EVENT {stream} watermark {}", (seq + 1) * 40 - 1));
    }
}

/// Canonical form of a pattern set: `(support desc, pattern asc)` pairs.
fn canonical(mut pairs: Vec<(usize, String)>) -> Vec<(usize, String)> {
    pairs.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    pairs
}

/// Parses a `QUERY` block body (`support\tpattern` lines).
fn parse_query(reply: &[String]) -> Vec<(usize, String)> {
    assert!(reply[0].starts_with("BEGIN "), "{reply:?}");
    reply[1..reply.len() - 1]
        .iter()
        .map(|line| {
            let (support, pattern) = line.split_once('\t').unwrap();
            (support.parse().unwrap(), pattern.to_owned())
        })
        .collect()
}

/// Parses `mine`/`recover` stdout (`  <pattern>   (support N)` lines).
fn parse_mine(stdout: &str) -> Vec<(usize, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let line = line.strip_prefix("  ")?;
            let (pattern, support) = line.rsplit_once("   (support ")?;
            Some((support.strip_suffix(')')?.parse().ok()?, pattern.to_owned()))
        })
        .collect()
}

/// Writes a workload as the long-CSV offline format.
fn write_csv(path: &Path, events: &[(i64, String, i64, i64)]) {
    let mut text = String::from("sequence,symbol,start,end\n");
    for (seq, sym, start, end) in events {
        text.push_str(&format!("{seq},{sym},{start},{end}\n"));
    }
    std::fs::write(path, text).unwrap();
}

/// Offline `mine` over the same window, canonicalized.
fn mine_offline(csv: &Path, abs_support: usize) -> Vec<(usize, String)> {
    let out = bin()
        .arg("mine")
        .arg(csv)
        .args(["--abs-support", &abs_support.to_string()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "mine: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    canonical(parse_mine(&String::from_utf8_lossy(&out.stdout)))
}

#[test]
fn two_streams_over_tcp_match_offline_mine_and_sigint_drains_cleanly() {
    let dir = temp_dir("full");
    let wal_root = dir.join("wal");
    let (mut child, addr) = launch_serve(
        &dir,
        &["--wal-root", wal_root.to_str().unwrap(), "--stats-json"],
    );

    let alpha = workload(["a", "b"], 6);
    let beta = workload(["x", "y"], 4);

    // Two tenants ingest concurrently on their own connections — alpha
    // durable, beta memory-only — while this thread queries both.
    let mut admin = Conn::open(&addr);
    admin.ok("CREATE alpha WINDOW 100000 ABS-SUPPORT 4 REFRESH-EVERY 1 WAL");
    admin.ok("CREATE beta WINDOW 100000 ABS-SUPPORT 2 REFRESH-EVERY 1");

    let total_events;
    {
        let addr_a = addr.clone();
        let events_a = alpha.clone();
        let writer_a = std::thread::spawn(move || {
            let mut conn = Conn::open(&addr_a);
            ingest(&mut conn, "alpha", &events_a);
        });
        let addr_b = addr.clone();
        let events_b = beta.clone();
        let writer_b = std::thread::spawn(move || {
            let mut conn = Conn::open(&addr_b);
            ingest(&mut conn, "beta", &events_b);
        });
        // Interleaved reads: every reply must be a well-formed block no
        // matter where ingestion currently stands.
        for _ in 0..20 {
            let reply = admin.send("QUERY alpha");
            assert!(reply[0].starts_with("BEGIN "), "{reply:?}");
            let reply = admin.send("QUERY beta TOP 3");
            assert!(reply[0].starts_with("BEGIN "), "{reply:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        writer_a.join().unwrap();
        writer_b.join().unwrap();
        // Watermark control records ride along with the intervals.
        total_events = (alpha.len() + 6) + (beta.len() + 4);
    }

    // Settle both pipelines, then compare against the offline miner over
    // the exact same window contents.
    admin.ok("SYNC alpha");
    admin.ok("SYNC beta");
    let query_alpha = canonical(parse_query(&admin.send("QUERY alpha")));
    let query_beta = canonical(parse_query(&admin.send("QUERY beta")));
    assert!(!query_alpha.is_empty(), "alpha mined nothing");
    assert!(!query_beta.is_empty(), "beta mined nothing");

    let alpha_csv = dir.join("alpha.csv");
    write_csv(&alpha_csv, &alpha);
    assert_eq!(
        query_alpha,
        mine_offline(&alpha_csv, 4),
        "alpha: served snapshot diverges from offline mine"
    );
    let beta_csv = dir.join("beta.csv");
    write_csv(&beta_csv, &beta);
    assert_eq!(
        query_beta,
        mine_offline(&beta_csv, 2),
        "beta: served snapshot diverges from offline mine"
    );

    // Prefix filtering stays a strict subset of the full answer.
    let filtered = canonical(parse_query(&admin.send("QUERY alpha PREFIX a")));
    assert!(!filtered.is_empty());
    assert!(filtered.iter().all(|p| query_alpha.contains(p)));

    drop(admin);

    // SIGINT → graceful drain: exit 0, both streams reported, and the
    // machine-readable stats account for every accepted event.
    let pid = child.id().to_string();
    let status = Command::new("kill").args(["-INT", &pid]).status().unwrap();
    assert!(status.success());
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    let log = std::fs::read_to_string(dir.join("server.log")).unwrap();
    assert!(log.contains("drained 2 stream(s)"), "{log}");
    assert!(log.contains("\"wal_degraded\":false"), "{log}");
    // The line's keys in order: server counters, then each of the two
    // stream objects with every pipeline counter, the segment ones
    // included.
    let json = log
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no --stats-json line in: {log}"));
    let keys: Vec<&str> = json
        .match_indices("\":")
        .filter_map(|(pos, _)| json[..pos].rsplit('"').next())
        .collect();
    let stream_keys = [
        "name",
        "events",
        "revision",
        "patterns",
        "submitted",
        "completed",
        "coalesced",
        "events_during_refresh",
        "refresh_lag",
        "subscribers",
        "subscriber_delivered",
        "subscriber_dropped",
        "subscriber_max_lag",
        "wal_flushes",
        "wal_degraded",
        "segments_sealed",
        "segment_records",
        "segment_bytes",
        "segment_seal_failures",
        "worker_failed",
    ];
    let mut expected = vec![
        "connections",
        "commands",
        "protocol_errors",
        "events_accepted",
        "events_rejected",
        "queries",
        "streams",
    ];
    expected.extend(stream_keys);
    expected.extend(stream_keys);
    assert_eq!(keys, expected, "{json}");
    assert!(
        log.contains(&format!("\"events_accepted\":{total_events}")),
        "expected {total_events} accepted events in: {log}"
    );

    // No accepted event lost: replaying alpha's WAL rebuilds the same
    // window and mines the same patterns the live server served.
    let out = bin()
        .arg("recover")
        .arg(wal_root.join("alpha"))
        .args(["--window", "100000", "--abs-support", "4"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "recover: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let recovered = canonical(parse_mine(&String::from_utf8_lossy(&out.stdout)));
    assert_eq!(
        recovered, query_alpha,
        "replayed WAL diverges from the served snapshot"
    );
}

#[test]
fn subscribe_streams_revision_pushes_until_unsubscribe() {
    let dir = temp_dir("subscribe");
    let (mut child, addr) = launch_serve(&dir, &["--refresh-workers", "2"]);
    let mut writer = Conn::open(&addr);
    writer.ok("CREATE s WINDOW 100000 ABS-SUPPORT 2 REFRESH-EVERY 1");

    let mut sub = Conn::open(&addr);
    // Grammar-valid but unusable subscriptions are clean errors.
    assert!(
        sub.send("SUBSCRIBE nope")[0].starts_with("ERR"),
        "unknown stream"
    );
    assert!(
        sub.send("UNSUBSCRIBE")[0].starts_with("ERR"),
        "nothing active"
    );
    let reply = sub.send("SUBSCRIBE s");
    assert!(reply[0].starts_with("OK subscribed stream=s"), "{reply:?}");
    let reply = sub.send("SUBSCRIBE s");
    assert!(reply[0].starts_with("ERR already subscribed"), "{reply:?}");

    // Ingest on another connection: every published refresh must reach
    // the subscriber as a REV push without the subscriber asking.
    ingest(&mut writer, "s", &workload(["a", "b"], 4));
    writer.ok("SYNC s");
    let mut revisions: Vec<u64> = Vec::new();
    while let Some(line) = sub.read_push(Duration::from_secs(2)) {
        assert!(line.starts_with("REV stream=s revision="), "{line}");
        let revision = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("revision="))
            .unwrap()
            .parse()
            .unwrap();
        revisions.push(revision);
        if revisions.len() > 64 {
            break;
        }
    }
    assert!(!revisions.is_empty(), "no REV push arrived after SYNC");
    assert!(
        revisions.windows(2).all(|w| w[0] < w[1]),
        "pushed revisions must be strictly increasing: {revisions:?}"
    );

    // The subscription is observable per-tenant in STATS.
    let stats = writer.send("STATS s");
    assert!(
        stats.iter().any(|l| l.contains("subscribers=1")),
        "{stats:?}"
    );

    // UNSUBSCRIBE must name the active stream (when it names one), then
    // reports the subscriber's delivery accounting.
    assert!(sub.send("UNSUBSCRIBE other")[0].starts_with("ERR"));
    let reply = sub.send("UNSUBSCRIBE s");
    assert!(
        reply[0].starts_with("OK unsubscribed stream=s delivered="),
        "{reply:?}"
    );
    // Disconnected subscribers are pruned at the next publication (not
    // eagerly), so force one refresh before checking the count.
    writer.ok("SYNC s");
    let stats = writer.send("STATS s");
    assert!(
        stats.iter().any(|l| l.contains("subscribers=0")),
        "gone after UNSUBSCRIBE + publish: {stats:?}"
    );

    writer.ok("SHUTDOWN");
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn client_times_out_cleanly_against_a_hung_server() {
    // A socket that accepts and then never responds: the client must fail
    // with a timeout error, not block forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let held = listener.accept().ok();
        std::thread::sleep(Duration::from_secs(5));
        drop(held);
    });

    let dir = temp_dir("client-timeout");
    let script = dir.join("script.txt");
    std::fs::write(&script, "PING\n").unwrap();
    let out = bin()
        .args(["client", "--addr", &addr, "--timeout", "0.5"])
        .arg(&script)
        .output()
        .unwrap();
    assert_ne!(out.status.code(), Some(0), "a hung server must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no response within"),
        "expected a timeout error, got: {stderr}"
    );
    drop(hold); // detached on purpose: it outlives the client by design
}

#[test]
fn recreating_a_durable_stream_recovers_it_by_replay() {
    let dir = temp_dir("recover");
    let wal_root = dir.join("wal");

    // First server lifetime: ingest durably, drain via SHUTDOWN.
    let (mut child, addr) = launch_serve(&dir, &["--wal-root", wal_root.to_str().unwrap()]);
    let events = workload(["p", "q"], 4);
    {
        let mut conn = Conn::open(&addr);
        conn.ok("CREATE s WINDOW 100000 ABS-SUPPORT 2 REFRESH-EVERY 1 WAL");
        ingest(&mut conn, "s", &events);
        conn.ok("SYNC s");
        conn.ok("SHUTDOWN");
    }
    assert_eq!(child.wait().unwrap().code(), Some(0));

    // Second lifetime: CREATE of the same name finds the WAL and replays.
    std::fs::remove_file(dir.join("port.txt")).unwrap();
    let (mut child, addr) = launch_serve(&dir, &["--wal-root", wal_root.to_str().unwrap()]);
    let mut conn = Conn::open(&addr);
    let reply = conn.send("CREATE s WINDOW 100000 ABS-SUPPORT 2 REFRESH-EVERY 1 WAL");
    assert!(
        reply[0].starts_with("OK recovered"),
        "expected recovery, got {reply:?}"
    );
    conn.ok("SYNC s");
    let query = canonical(parse_query(&conn.send("QUERY s")));
    let csv = dir.join("s.csv");
    write_csv(&csv, &events);
    assert_eq!(
        query,
        mine_offline(&csv, 2),
        "recovered stream diverges from offline mine"
    );
    conn.ok("SHUTDOWN");
    assert_eq!(child.wait().unwrap().code(), Some(0));
}
