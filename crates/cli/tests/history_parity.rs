//! The out-of-core acceptance property: `history --from T1 --to T2` over
//! a sealed segment directory produces the same pattern set as an offline
//! `mine` over the same event slice — for the whole stream and for
//! sub-ranges — both through the CLI and through the server's `HISTORY`
//! wire verb over real TCP.
//!
//! The CLI half is a seeded-random property check (several deterministic
//! pseudo-random workloads, full range + sub-range each); the TCP half
//! drives `serve --segment-dir`, drops the stream so the drain seals
//! everything, and compares the `HISTORY` reply against offline `mine`.
//! Every CLI run is made twice, in text mode and with `--json`, and the
//! two must report the same patterns.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test helper fails its test by panicking"
)]

use interval_core::rng::SplitMix64;
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
        "ptpminer-history-parity-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic pseudo-random workload: `(sequence, symbol, start, end)`
/// tuples, deduplicated (a duplicate interval would be one record to the
/// window but two rows to the offline miner).
fn gen_workload(seed: u64, sequences: i64) -> Vec<(i64, String, i64, i64)> {
    let mut rng = SplitMix64::new(seed);
    let symbols = ["a", "b", "c", "d"];
    let mut events = Vec::new();
    for seq in 0..sequences {
        for _ in 0..rng.range(2..5u32) {
            let start = rng.range(0..150);
            let end = start + 1 + rng.range(0..20);
            let symbol = symbols[rng.range(0..symbols.len())].to_owned();
            let row = (seq, symbol, start, end);
            if !events.contains(&row) {
                events.push(row);
            }
        }
    }
    events
}

/// Writes a workload as stream-event lines plus one final watermark far
/// past every interval, so the run ends with everything evictable.
fn write_events(path: &Path, events: &[(i64, String, i64, i64)], final_watermark: i64) {
    let mut text = String::new();
    for (seq, sym, start, end) in events {
        text.push_str(&format!("interval {seq} {sym} {start} {end}\n"));
    }
    text.push_str(&format!("watermark {final_watermark}\n"));
    std::fs::write(path, text).unwrap();
}

/// Writes a workload as the long-CSV offline format.
fn write_csv(path: &Path, events: &[(i64, String, i64, i64)]) {
    let mut text = String::from("sequence,symbol,start,end\n");
    for (seq, sym, start, end) in events {
        text.push_str(&format!("{seq},{sym},{start},{end}\n"));
    }
    std::fs::write(path, text).unwrap();
}

/// Canonical form of a pattern set: `(support desc, pattern asc)` pairs.
fn canonical(mut pairs: Vec<(usize, String)>) -> Vec<(usize, String)> {
    pairs.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    pairs
}

/// Parses `mine`/`history` stdout (`  <pattern>   (support N)` lines).
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

/// Parses `--json` stdout, checking each line's exact layout: sorted keys,
/// `kind` `frequent`, `arity` the pattern's interval count. Patterns here
/// use plain symbol names, so the pattern string needs no unescaping.
fn parse_json(stdout: &str) -> Vec<(usize, String)> {
    stdout
        .lines()
        .map(|line| {
            let (pattern, support) = line
                .split_once(",\"pattern\":\"")
                .and_then(|(_, rest)| rest.strip_suffix('}')?.split_once("\",\"support\":"))
                .expect(line);
            let arity = pattern.matches('+').count();
            assert_eq!(
                line,
                format!(
                    "{{\"arity\":{arity},\"kind\":\"frequent\",\"pattern\":\"{pattern}\",\
                     \"support\":{support}}}"
                )
            );
            (support.parse().expect(line), pattern.to_owned())
        })
        .collect()
}

/// Runs a command, checks it exits 0, and returns its stdout.
fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{cmd:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Runs a pattern-printing command in text mode, then again with `--json`,
/// checks that both report the same `(support, pattern)` set, and returns
/// it canonicalized.
fn patterns(cmd: &mut Command) -> Vec<(usize, String)> {
    let text = canonical(parse_mine(&stdout_of(cmd)));
    let json = canonical(parse_json(&stdout_of(cmd.arg("--json"))));
    assert_eq!(json, text, "{cmd:?}: --json and text output disagree");
    text
}

/// Offline `mine` over a workload slice, canonicalized.
fn mine_offline(csv: &Path, abs_support: usize) -> Vec<(usize, String)> {
    patterns(
        bin()
            .arg("mine")
            .arg(csv)
            .args(["--abs-support", &abs_support.to_string()]),
    )
}

/// `history` over a sealed segment directory, canonicalized.
fn history(seg: &Path, from: i64, to: i64, abs_support: usize) -> Vec<(usize, String)> {
    patterns(bin().arg("history").arg(seg).args([
        "--from",
        &from.to_string(),
        "--to",
        &to.to_string(),
        "--abs-support",
        &abs_support.to_string(),
    ]))
}

/// The rows of a workload whose interval end falls in `[from, to]` — the
/// range rule `load_range` applies (matching window eviction: an interval
/// belongs to the span that still held it).
fn slice(events: &[(i64, String, i64, i64)], from: i64, to: i64) -> Vec<(i64, String, i64, i64)> {
    events
        .iter()
        .filter(|(_, _, _, end)| from <= *end && *end <= to)
        .cloned()
        .collect()
}

#[test]
fn history_equals_offline_mine_over_sealed_ranges() {
    for (case, seed) in [(0u32, 0xB10C_5EEDu64), (1, 0xDEAD_BEE5), (2, 0x5EA1_5EED)] {
        let dir = temp_dir(&format!("prop-{case}"));
        let events = gen_workload(seed, 6);
        let input = dir.join("events.txt");
        write_events(&input, &events, 1_000);
        let seg = dir.join("seg");

        // Seal everything: tiny seal threshold, window small enough that
        // the final watermark evicts the lot before shutdown.
        let streamed = bin()
            .arg("stream")
            .arg(&input)
            .args(["--window", "10", "--abs-support", "1"])
            .arg("--segment-dir")
            .arg(&seg)
            .args(["--segment-bytes", "1"])
            .output()
            .unwrap();
        assert_eq!(
            streamed.status.code(),
            Some(0),
            "stream: {}",
            String::from_utf8_lossy(&streamed.stderr)
        );
        let err = String::from_utf8_lossy(&streamed.stderr);
        assert!(err.contains("segments:"), "{err}");
        assert!(!err.contains("DEGRADED"), "{err}");

        // Full range: bit-identical to offline mine over every event.
        let csv = dir.join("all.csv");
        write_csv(&csv, &events);
        let full = history(&seg, -1_000, 1_000, 2);
        assert_eq!(
            full,
            mine_offline(&csv, 2),
            "case {case}: full-range history diverges from offline mine"
        );
        assert!(!full.is_empty(), "case {case}: degenerate workload");

        // Sub-range: history [from, to] == offline mine over the slice of
        // events whose end falls in [from, to].
        let (from, to) = (40, 120);
        let sliced = slice(&events, from, to);
        let slice_csv = dir.join("slice.csv");
        write_csv(&slice_csv, &sliced);
        assert_eq!(
            history(&seg, from, to, 2),
            mine_offline(&slice_csv, 2),
            "case {case}: sub-range history diverges from offline mine over the slice"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mine_json_escapes_symbol_names() {
    let dir = temp_dir("escape");
    let input = dir.join("db.txt");
    std::fs::write(&input, "a\"b 0 10; c\\d 20 30\na\"b 0 4; c\\d 5 9\n").unwrap();
    let stdout = stdout_of(
        bin()
            .arg("mine")
            .arg(&input)
            .args(["--abs-support", "2", "--json"]),
    );
    let lines: Vec<&str> = stdout.lines().collect();
    for expected in [
        r#"{"arity":1,"kind":"frequent","pattern":"a\"b+ | a\"b-","support":2}"#,
        r#"{"arity":1,"kind":"frequent","pattern":"c\\d+ | c\\d-","support":2}"#,
    ] {
        assert!(lines.contains(&expected), "{expected} not in:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn history_usage_errors_are_clean() {
    let dir = temp_dir("usage");
    let out = bin()
        .arg("history")
        .arg(&dir)
        .args(["--from", "10", "--to", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--from 10 is after --to 5"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin().arg("history").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing --from/--to is usage");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// TCP half: the HISTORY verb against a real `serve --segment-dir`.

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

    fn send(&mut self, command: &str) -> Vec<String> {
        self.writer
            .write_all(format!("{command}\n").as_bytes())
            .unwrap();
        let head = self.read_line();
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

    fn ok(&mut self, command: &str) {
        let reply = self.send(command);
        assert!(reply[0].starts_with("OK"), "{command} -> {reply:?}");
    }
}

/// Parses a `QUERY`/`HISTORY` block body (`support\tpattern` lines).
fn parse_block(reply: &[String]) -> Vec<(usize, String)> {
    assert!(reply[0].starts_with("BEGIN "), "{reply:?}");
    reply[1..reply.len() - 1]
        .iter()
        .map(|line| {
            let (support, pattern) = line.split_once('\t').unwrap();
            (support.parse().unwrap(), pattern.to_owned())
        })
        .collect()
}

#[test]
fn history_verb_matches_offline_mine_over_tcp() {
    let dir = temp_dir("tcp");
    let seg_root = dir.join("seg");
    let (mut child, addr) = launch_serve(&dir, &["--segment-dir", seg_root.to_str().unwrap()]);

    let events = gen_workload(0x7C9_5EED, 6);
    let max_end = events.iter().map(|e| e.3).max().unwrap();
    let mut conn = Conn::open(&addr);
    conn.ok("CREATE s WINDOW 40 ABS-SUPPORT 1 REFRESH-EVERY 1");
    for (seq, sym, start, end) in &events {
        conn.ok(&format!("EVENT s interval {seq} {sym} {start} {end}"));
    }
    conn.ok(&format!("EVENT s watermark {}", max_end + 50));
    conn.ok("SYNC s");

    // DROP seals the stream's cold store: the drain spills the evicted
    // backlog plus every completed interval still in the window, then
    // forces a seal. HISTORY keeps answering for the dropped stream.
    conn.ok("DROP s");
    let reply = conn.send(&format!(
        "HISTORY s FROM -1000 TO {} ABS-SUPPORT 2",
        max_end + 50
    ));
    let served = canonical(parse_block(&reply));
    let csv = dir.join("s.csv");
    write_csv(&csv, &events);
    let offline = mine_offline(&csv, 2);
    assert!(!offline.is_empty(), "degenerate workload");
    assert_eq!(
        served, offline,
        "HISTORY over TCP diverges from offline mine"
    );

    // A stream with no segment directory is a clean error, not a hang.
    let reply = conn.send("HISTORY nosuch FROM 0 TO 10");
    assert!(reply[0].starts_with("ERR"), "{reply:?}");

    conn.ok("SHUTDOWN");
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn history_without_segment_dir_is_refused() {
    let dir = temp_dir("nodir");
    let (mut child, addr) = launch_serve(&dir, &[]);
    let mut conn = Conn::open(&addr);
    let reply = conn.send("HISTORY s FROM 0 TO 10");
    assert!(
        reply[0].starts_with("ERR") && reply[0].contains("segment-dir"),
        "{reply:?}"
    );
    conn.ok("SHUTDOWN");
    assert_eq!(child.wait().unwrap().code(), Some(0));
}
