//! Crash-recovery integration test for `rescomm-serve`: warm the cache,
//! `kill -9` the server, restart it from the snapshot, and require the
//! restarted process to serve byte-identical responses carrying the
//! served-from-snapshot marker.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const NEST: &str = "nest crashdemo\narray a 2\nstmt S depth 2 domain 0..5 0..5\n  \
                    write a [1 0; 0 1] + [0 0]\n  read a [0 1; 1 0] + [2 0]\n";

struct Serve {
    child: Child,
    addr: String,
}

impl Serve {
    /// Start the real binary and wait for its `listening on ADDR` line.
    fn start(snapshot: &std::path::Path) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rescomm-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--snapshot-every",
                "1",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rescomm-serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .to_string();
        Serve { child, addr }
    }

    fn request(&self, req: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        writeln!(stream, "{req}").expect("send");
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("recv");
        line.trim().to_string()
    }

    /// The crash under test: SIGKILL, no drain, no warning.
    fn kill9(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    fn shutdown(self) {
        let _ = self.request("{\"op\": \"shutdown\"}");
        let mut child = self.child;
        child.wait().expect("reap");
    }
}

/// Extract `"field": "…"` (string) or splice out an object field from a
/// response line without depending on the json crate (the test checks
/// raw bytes on purpose).
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": ");
    let start = line
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + tag.len();
    &line[start..]
}

#[test]
fn sigkill_then_restart_serves_identical_bytes_from_snapshot() {
    let dir = std::env::temp_dir().join(format!("rescomm-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("plans.json");
    let _ = std::fs::remove_file(&snap);

    let nest_json = NEST.replace('\n', "\\n");
    let map_req =
        format!("{{\"id\": 1, \"op\": \"map\", \"nest\": \"{nest_json}\", \"mesh\": [4, 4]}}");

    // Round 1: cold server computes fresh and flushes per compute.
    let server = Serve::start(&snap);
    let fresh = server.request(&map_req);
    assert!(
        fresh.contains("\"ok\": true") && fresh.contains("\"served\": \"fresh\""),
        "first response must be fresh: {fresh}"
    );
    let fresh_result = field(&fresh, "result").to_string();
    // Same request again: now from the in-process cache, same bytes.
    let cached = server.request(&map_req);
    assert!(cached.contains("\"served\": \"cache\""), "{cached}");
    assert_eq!(field(&cached, "result"), fresh_result);

    // The crash: no shutdown op, no drain — the per-compute flush is all
    // the durability the server gets.
    server.kill9();
    assert!(snap.exists(), "snapshot must exist before the crash");

    // Round 2: a fresh process restores the snapshot and replays the
    // exact bytes with the snapshot marker.
    let server = Serve::start(&snap);
    let replay = server.request(&map_req);
    assert!(
        replay.contains("\"served\": \"snapshot\""),
        "restarted server must serve from snapshot: {replay}"
    );
    assert_eq!(
        field(&replay, "result"),
        fresh_result,
        "snapshot-restored response must be byte-identical"
    );
    let stats = server.request("{\"id\": 2, \"op\": \"stats\"}");
    assert!(
        stats.contains("\"restored_entries\": 1") && stats.contains("\"snapshot_hits\": 1"),
        "{stats}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_degrades_to_cold_start_not_a_crash() {
    let dir = std::env::temp_dir().join(format!("rescomm-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("plans.json");
    let _ = std::fs::remove_file(&snap);
    let nest_json = NEST.replace('\n', "\\n");
    let req = |bytes: u64| {
        format!(
            "{{\"id\": 1, \"op\": \"map\", \"nest\": \"{nest_json}\", \
             \"mesh\": [4, 4], \"bytes\": {bytes}}}"
        )
    };

    // The fresh answers, computed by servers that start cold.
    let fresh = |bytes: u64, snapshot: &std::path::Path| {
        let server = Serve::start(snapshot);
        let resp = server.request(&req(bytes));
        server.shutdown();
        assert!(resp.contains("\"served\": \"fresh\""), "{resp}");
        field(&resp, "result").to_string()
    };
    let fresh_2048 = fresh(2048, &dir.join("other.json"));
    // A real snapshot holding one entry, for the 1024-byte request.
    let fresh_1024 = fresh(1024, &snap);
    let real = std::fs::read_to_string(&snap).unwrap();

    // One-field edits of the real snapshot. Each must be caught at
    // restore: the request is then recomputed, never served from the
    // doctored entry.
    let edit = |from: &str, to: &str| {
        assert!(real.contains(from), "{from} not in {real}");
        real.replacen(from, to, 1)
    };
    let makespan = {
        let tail = field(&real, "makespan");
        format!(
            "\"makespan\": {}",
            &tail[..tail.find(|c: char| !c.is_ascii_digit()).unwrap()]
        )
    };
    let garbage = "{\"format\": \"rescomm-snapshot\", \"version\": 1, garbage".to_string();
    let cases = [
        (garbage, 1024, &fresh_1024),
        // A key naming a 2^40-node mesh: simulating it at restore would
        // abort the process on allocation.
        (
            edit("\"mesh\": [4, 4]", "\"mesh\": [1048576, 1048576]"),
            1024,
            &fresh_1024,
        ),
        // A count inside the served result.
        (edit("\"local\": 1", "\"local\": 0"), 1024, &fresh_1024),
        // The served makespan itself.
        (edit(&makespan, "\"makespan\": 1"), 1024, &fresh_1024),
        // The key's spec: accepted, it would answer a 2048-byte request
        // with the 1024-byte makespan.
        (
            edit("\"bytes\": 1024", "\"bytes\": 2048"),
            2048,
            &fresh_2048,
        ),
    ];
    for (doc, bytes, want) in cases {
        std::fs::write(&snap, &doc).unwrap();
        let server = Serve::start(&snap);
        let resp = server.request(&req(bytes));
        assert!(
            resp.contains("\"ok\": true") && resp.contains("\"served\": \"fresh\""),
            "corrupt snapshot must cold-start, then serve: {resp}"
        );
        assert_eq!(field(&resp, "result"), want.as_str(), "{doc}");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
