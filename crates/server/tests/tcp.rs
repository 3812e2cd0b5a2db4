//! Integration tests over a real TCP socket: the full accept → connection
//! → session path, including protocol errors, a client killed mid-`BATCH`,
//! and the multi-tenant isolation guarantee (one misbehaving connection
//! never disturbs another stream).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use server::{ServerConfig, ServerHandle};

/// A line-oriented test client over one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let sock = TcpStream::connect(handle.addr()).expect("connect");
        let reader = BufReader::new(sock.try_clone().expect("clone"));
        Client {
            reader,
            writer: sock,
        }
    }

    fn send_raw(&mut self, text: &str) {
        self.writer.write_all(text.as_bytes()).expect("write");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        line.trim_end().to_owned()
    }

    /// Sends one command line and reads one response unit: a single
    /// `OK`/`ERR` line, or a full `BEGIN n … END` block.
    fn roundtrip(&mut self, command: &str) -> Vec<String> {
        self.send_raw(command);
        self.send_raw("\n");
        let head = self.read_line();
        if let Some(rest) = head.strip_prefix("BEGIN ") {
            let count: usize = rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("bad BEGIN header: {head}"));
            let mut out = vec![head];
            for _ in 0..count {
                out.push(self.read_line());
            }
            let end = self.read_line();
            assert_eq!(end, "END", "unterminated block");
            out.push(end);
            out
        } else {
            vec![head]
        }
    }

    fn ok(&mut self, command: &str) -> String {
        let reply = self.roundtrip(command);
        assert_eq!(reply.len(), 1, "{command}: {reply:?}");
        assert!(reply[0].starts_with("OK"), "{command} -> {}", reply[0]);
        reply[0].clone()
    }

    fn err(&mut self, command: &str) -> String {
        let reply = self.roundtrip(command);
        assert_eq!(reply.len(), 1, "{command}: {reply:?}");
        assert!(reply[0].starts_with("ERR"), "{command} -> {}", reply[0]);
        reply[0].clone()
    }
}

fn ingest_pairs(client: &mut Client, stream: &str, symbol: &str, n: i64) {
    for i in 0..n {
        let base = i * 10;
        client.ok(&format!(
            "EVENT {stream} interval {i} {symbol} {base} {}",
            base + 5
        ));
        client.ok(&format!("EVENT {stream} watermark {}", base + 9));
    }
}

#[test]
fn two_streams_ingest_query_and_drain_independently() {
    let handle = ServerHandle::launch("127.0.0.1:0", ServerConfig::default()).expect("launch");
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);

    a.ok("CREATE alpha WINDOW 1000 ABS-SUPPORT 2 REFRESH-EVERY 1");
    b.ok("CREATE beta WINDOW 1000 ABS-SUPPORT 1 REFRESH-EVERY 1");

    ingest_pairs(&mut a, "alpha", "x", 4);
    ingest_pairs(&mut b, "beta", "y", 3);

    a.ok("SYNC alpha");
    b.ok("SYNC beta");

    // Each stream only ever sees its own symbols.
    let qa = a.roundtrip("QUERY alpha");
    assert!(qa.len() > 2, "{qa:?}");
    assert!(
        qa[1..qa.len() - 1].iter().all(|l| l.contains('x')),
        "{qa:?}"
    );
    let qb = b.roundtrip("QUERY beta");
    assert!(
        qb[1..qb.len() - 1].iter().all(|l| l.contains('y')),
        "{qb:?}"
    );

    // Cross-connection access is fine — streams are server-owned, not
    // connection-owned.
    let cross = b.roundtrip("QUERY alpha TOP 1");
    assert_eq!(cross.len(), 3, "{cross:?}");

    let stats = a.roundtrip("STATS");
    assert!(stats[1].starts_with("server streams=2"), "{stats:?}");
    assert!(stats[2].starts_with("stream=alpha"), "{stats:?}");
    assert!(stats[3].starts_with("stream=beta"), "{stats:?}");

    a.ok("QUIT");
    b.ok("QUIT");
    let report = handle.shutdown().expect("drain");
    assert_eq!(report.streams.len(), 2);
    assert!(!report.any_worker_failed());
    assert!(!report.any_wal_degraded());
    let names: Vec<&str> = report.streams.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["alpha", "beta"], "deterministic drain order");
    assert_eq!(report.counters.connections, 2);
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    let handle = ServerHandle::launch("127.0.0.1:0", ServerConfig::default()).expect("launch");
    let mut c = Client::connect(&handle);

    // Every refusal path, each reply verbatim: an unknown command with a
    // did-you-mean suggestion, a malformed CREATE, a bad stream name, every
    // verb on a missing stream, and the refusals of a live stream.
    let transcript = [
        (
            "KREATE s WINDOW 10 ABS-SUPPORT 1",
            r#"ERR unknown command "KREATE" (did you mean CREATE?)"#,
        ),
        (
            "CREATE s WINDOW 10",
            "ERR malformed CREATE: missing SUPPORT or ABS-SUPPORT",
        ),
        (
            "CREATE ../evil WINDOW 10 ABS-SUPPORT 1",
            r#"ERR invalid stream name "../evil": must start with an ASCII letter or digit"#,
        ),
        ("EVENT ghost watermark 5", r#"ERR no such stream "ghost""#),
        ("QUERY ghost", r#"ERR no such stream "ghost""#),
        ("SYNC ghost", r#"ERR no such stream "ghost""#),
        ("STATS ghost", r#"ERR no such stream "ghost""#),
        ("DROP ghost", r#"ERR no such stream "ghost""#),
        ("SUBSCRIBE ghost", r#"ERR no such stream "ghost""#),
        (
            "BATCH ghost 2\ninterval 0 a 0 5\nwatermark 9",
            r#"ERR no such stream "ghost" (batch payload discarded)"#,
        ),
        (
            "CREATE live WINDOW 100 ABS-SUPPORT 1",
            "OK created stream=live wal=false",
        ),
        (
            "CREATE live WINDOW 100 ABS-SUPPORT 1",
            r#"ERR stream "live" already exists"#,
        ),
        ("UNSUBSCRIBE", "ERR no active subscription"),
        ("SUBSCRIBE live", "OK subscribed stream=live capacity=64"),
        (
            "SUBSCRIBE live",
            r#"ERR already subscribed to "live" (UNSUBSCRIBE first)"#,
        ),
        (
            "UNSUBSCRIBE other",
            r#"ERR subscribed to "live", not "other""#,
        ),
        (
            "UNSUBSCRIBE live",
            "OK unsubscribed stream=live delivered=0 dropped=0",
        ),
        ("UNSUBSCRIBE", "ERR no active subscription"),
        (
            "EVENT live close 0 a 5",
            r#"ERR rejected: inconsistent event stream: close of "a" at 5 in sequence 0 has no open interval"#,
        ),
        ("EVENT live interval 0 a 0 5", "OK accepted"),
        (
            "HISTORY live FROM 0 TO 10",
            "ERR server has no --segment-dir (HISTORY disabled)",
        ),
    ];
    for (command, expected) in transcript {
        assert_eq!(c.roundtrip(command), vec![expected.to_owned()], "{command}");
    }

    // An oversize line is rejected and discarded without killing the
    // connection or desynchronizing framing.
    let huge = "X".repeat(80 * 1024);
    c.send_raw(&huge);
    c.send_raw("\n");
    assert_eq!(c.read_line(), "ERR line exceeds the 65536-byte limit");

    // Junk the parser rejects gets exactly one ERR line each and leaves
    // framing intact: a CR inside a line is not a line break, so the reply
    // read after the junk is the QUERY's own.
    let junk = [
        (
            "QUÉRY live",
            r#"ERR unknown command "QUÉRY" (did you mean QUERY?)"#,
        ),
        (
            "PING\rPING",
            r#"ERR malformed PING: takes no arguments, got "PING""#,
        ),
        (
            "%%% sixty printable characters, spaces inside, and no verb %",
            r#"ERR unknown command "%%%""#,
        ),
        ("  no   such   verb  ", r#"ERR unknown command "no""#),
    ];
    for (line, expected) in junk {
        assert_eq!(c.roundtrip(line), vec![expected.to_owned()], "{line:?}");
    }
    assert_eq!(
        c.roundtrip("QUERY live"),
        ["BEGIN 0 revision=0 watermark=- sequences=0", "END"]
    );

    // Still healthy, still parsing.
    assert_eq!(c.ok("HEALTH"), "OK healthy streams=1 draining=false");
    assert_eq!(c.ok("PING"), "OK pong");
    let counters = handle.shutdown().expect("drain").counters;
    // Seven lines never parse into a command; every `ERR` but the
    // rejected event is a protocol error, oversize line and junk included;
    // the ghost batch's two payload events count as rejected.
    assert_eq!(counters.commands, 21);
    assert_eq!(counters.protocol_errors, 21);
    assert_eq!(counters.events_accepted, 1);
    assert_eq!(counters.events_rejected, 3);
}

#[test]
fn client_killed_mid_batch_leaves_other_streams_unharmed() {
    let handle = ServerHandle::launch("127.0.0.1:0", ServerConfig::default()).expect("launch");
    let mut victim = Client::connect(&handle);
    let mut survivor = Client::connect(&handle);

    victim.ok("CREATE doomed WINDOW 1000 ABS-SUPPORT 1 REFRESH-EVERY 1");
    survivor.ok("CREATE steady WINDOW 1000 ABS-SUPPORT 1 REFRESH-EVERY 1");

    // Announce a 100-line batch but hang up after two lines: the accepted
    // prefix stays accepted, only the connection dies.
    victim.send_raw("BATCH doomed 100\n");
    victim.send_raw("interval 0 a 0 5\n");
    victim.send_raw("watermark 9\n");
    drop(victim);

    // The other tenant keeps ingesting and querying normally.
    ingest_pairs(&mut survivor, "steady", "z", 3);
    survivor.ok("SYNC steady");
    let q = survivor.roundtrip("QUERY steady");
    assert!(q.len() > 2, "{q:?}");

    // The half-delivered batch is visible in the doomed stream's stats.
    let stats = survivor.roundtrip("STATS doomed");
    assert_eq!(stats.len(), 3, "{stats:?}");
    assert!(stats[1].contains("events=2"), "{stats:?}");

    survivor.ok("QUIT");
    let report = handle.shutdown().expect("drain");
    assert!(!report.any_worker_failed());
    let doomed = report
        .streams
        .iter()
        .find(|s| s.name == "doomed")
        .expect("doomed drained");
    assert_eq!(doomed.events, 2, "accepted prefix survives the drain");
}

#[test]
fn shutdown_command_drains_the_server() {
    let handle = ServerHandle::launch("127.0.0.1:0", ServerConfig::default()).expect("launch");
    let mut c = Client::connect(&handle);
    c.ok("CREATE s WINDOW 100 ABS-SUPPORT 1");
    c.ok("EVENT s interval 0 a 0 5");
    c.ok("EVENT s watermark 9");
    let reply = c.ok("SHUTDOWN");
    assert!(reply.contains("draining"), "{reply}");
    // The accept loop notices the flag and drains without the token.
    let report = handle.shutdown().expect("drain");
    assert_eq!(report.streams.len(), 1);
    assert_eq!(report.streams[0].events, 2);
    assert!(!report.any_worker_failed());
}

#[test]
fn pending_rev_is_written_ahead_of_the_next_reply() {
    let handle = ServerHandle::launch("127.0.0.1:0", ServerConfig::default()).expect("launch");
    let mut writer = Client::connect(&handle);
    let mut sub = Client::connect(&handle);
    // Refreshes only on SYNC, so the SYNC below publishes the one revision.
    writer.ok("CREATE s WINDOW 1000 ABS-SUPPORT 1 REFRESH-EVERY 1000");
    sub.ok("SUBSCRIBE s");
    writer.ok("EVENT s interval 0 a 0 5");
    writer.ok("EVENT s watermark 9");
    // SYNC returns after the revision is published and fanned out, while
    // the subscriber's connection sits waiting for its next request.
    let synced = writer.ok("SYNC s");
    let revision = synced
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("revision="))
        .expect("SYNC reports its revision")
        .to_owned();

    sub.send_raw("PING\n");
    let first = sub.read_line();
    assert!(
        first.starts_with(&format!("REV stream=s revision={revision} ")),
        "the pending REV must precede the reply: {first}"
    );
    assert_eq!(sub.read_line(), "OK pong");
    // Nothing was left to trail the reply.
    assert_eq!(sub.roundtrip("PING"), ["OK pong"]);
    handle.shutdown().expect("drain");
}

#[test]
fn drop_closes_one_stream_and_frees_its_name() {
    let handle = ServerHandle::launch("127.0.0.1:0", ServerConfig::default()).expect("launch");
    let mut c = Client::connect(&handle);
    c.ok("CREATE s WINDOW 100 ABS-SUPPORT 1 REFRESH-EVERY 1");
    c.ok("EVENT s interval 0 a 0 5");
    c.ok("EVENT s watermark 9");
    let reply = c.ok("DROP s");
    assert!(reply.contains("dropped stream=s"), "{reply}");
    c.err("QUERY s");
    // The name is reusable immediately.
    c.ok("CREATE s WINDOW 100 ABS-SUPPORT 1");
    let report = handle.shutdown().expect("drain");
    assert_eq!(report.streams.len(), 1, "only the re-created stream");
    assert_eq!(report.streams[0].events, 0);
}
