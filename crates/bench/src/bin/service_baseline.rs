//! Robustness + throughput baseline for `rescomm-serve` (the mapping
//! service), written to `BENCH_service.json`. Four gated sections:
//!
//! * **throughput** — a corpus of distinct nests served cold (every
//!   request computes) vs warm (every request hits the plan cache).
//!   **Gate: warm throughput ≥ 3× cold.**
//! * **snapshot** — the corpus is served fresh on a snapshotting
//!   server, the server is stopped, a new server restores the
//!   snapshot and replays the corpus. **Gate: every restored response
//!   carries the `snapshot` marker and byte-identical result bytes.**
//! * **malformed** — a corpus of hostile request lines (bad JSON,
//!   duplicate keys, wrong types, bad nests, unknown ops, an oversized
//!   mesh, oversized lines). **Gate: every line gets a structured
//!   error, the server keeps serving, and zero panics are absorbed.**
//! * **deadline** — requests with already-expired and mid-pipeline
//!   deadlines. **Gate: each is cancelled with the `deadline` error
//!   code (exit code 6) and counted in the server stats.**
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin service_baseline [--out PATH | --check PATH]
//! ```

use rescomm::serve::{Server, ServerConfig, ServerHandle};
use rescomm_bench::harness::Args;
use rescomm_json::{fixed, parse, JsonDoc, JsonValue, Val};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One line-oriented client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr).expect("connect to in-process server");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn request(&mut self, req: &str) -> JsonValue {
        writeln!(self.writer, "{req}").expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        parse(line.trim()).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
    }
}

/// Distinct well-formed nest sources (the serving corpus).
fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let dom = 3 + (i % 5) as i64;
            let sx = (i % 3) as i64;
            let sy = ((i / 3) % 3) as i64;
            format!(
                "nest svc{i}\narray a 2\narray b 2\n\
                 stmt S depth 2 domain 0..{dom} 0..{dom}\n  \
                 write a [1 0; 0 1] + [0 0]\n  \
                 read a [0 1; 1 0] + [{sx} {sy}]\n  \
                 read b [1 0; 0 1] + [{sy} 1]\n"
            )
        })
        .collect()
}

fn map_req(id: usize, nest: &str) -> String {
    let nest = JsonValue::Str(nest.to_string()).render();
    format!("{{\"id\": {id}, \"op\": \"map\", \"nest\": {nest}, \"mesh\": [8, 4]}}")
}

fn served(resp: &JsonValue) -> &str {
    resp.get("served")
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
}

fn result_bytes(resp: &JsonValue) -> String {
    resp.get("result")
        .unwrap_or_else(|| panic!("response without result: {resp:?}"))
        .render()
}

fn stat(client: &mut Client, key: &str) -> u64 {
    let resp = client.request("{\"op\": \"stats\"}");
    resp.get("result")
        .and_then(|r| r.get(key))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("stats missing {key}: {resp:?}"))
}

fn main() {
    let args = Args::parse("BENCH_service.json");
    let n_corpus = 24;
    let warm_rounds = 16;
    let nests = corpus(n_corpus);

    // --- throughput: cold (every request computes) vs warm (cache) ---
    eprintln!("throughput: {n_corpus}-nest corpus, cold vs warm ({warm_rounds} warm rounds)");
    let handle = Server::bind(ServerConfig::default()).expect("bind").spawn();
    let mut client = Client::connect(&handle);

    let t0 = Instant::now();
    let fresh: Vec<JsonValue> = nests
        .iter()
        .enumerate()
        .map(|(i, nest)| client.request(&map_req(i, nest)))
        .collect();
    let cold_ns = t0.elapsed().as_nanos() as u64;
    for r in &fresh {
        assert_eq!(served(r), "fresh", "cold round must compute: {r:?}");
    }

    // Both clocks time the requests alone: the checks run after each
    // clock stops.
    let t0 = Instant::now();
    let mut warm = Vec::with_capacity(warm_rounds * n_corpus);
    for round in 0..warm_rounds {
        for (i, nest) in nests.iter().enumerate() {
            warm.push(client.request(&map_req(1000 + round * n_corpus + i, nest)));
        }
    }
    let warm_total = t0.elapsed().as_nanos() as u64;
    for (r, want) in warm.iter().zip(fresh.iter().cycle()) {
        assert_eq!(served(r), "cache", "warm round must hit: {r:?}");
        assert_eq!(
            result_bytes(r),
            result_bytes(want),
            "cache replay must be byte-identical"
        );
    }
    let warm_ns = warm_total / warm_rounds as u64; // per corpus pass
    let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    eprintln!("  cold {cold_ns:>12} ns/corpus   warm {warm_ns:>9} ns/corpus   ×{speedup:.1}");
    assert!(
        speedup >= 3.0,
        "GATE: warm throughput must be ≥ 3× cold (got {speedup:.2}×)"
    );
    handle.stop().expect("drain");

    // --- snapshot: restored responses byte-identical to fresh ---
    eprintln!("snapshot: fresh → kill → restore → replay, byte equality");
    let dir = std::env::temp_dir().join(format!("rescomm-svcbench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let snap = dir.join("plans.json");
    let _ = std::fs::remove_file(&snap);
    let cfg = ServerConfig {
        snapshot_path: Some(snap.clone()),
        snapshot_every: 1,
        ..ServerConfig::default()
    };
    let handle = Server::bind(cfg.clone()).expect("bind").spawn();
    let mut client = Client::connect(&handle);
    let fresh_bytes: Vec<String> = nests
        .iter()
        .enumerate()
        .map(|(i, nest)| result_bytes(&client.request(&map_req(i, nest))))
        .collect();
    drop(client);
    handle.stop().expect("drain");

    let server = Server::bind(cfg).expect("rebind");
    let restored = server.restored_entries();
    assert_eq!(
        restored as usize, n_corpus,
        "GATE: every corpus entry must restore from the snapshot"
    );
    let handle = server.spawn();
    let mut client = Client::connect(&handle);
    let mut verified = 0usize;
    for (i, (nest, want)) in nests.iter().zip(&fresh_bytes).enumerate() {
        let r = client.request(&map_req(i, nest));
        assert_eq!(
            served(&r),
            "snapshot",
            "GATE: restored server must serve from snapshot: {r:?}"
        );
        assert_eq!(
            &result_bytes(&r),
            want,
            "GATE: snapshot-restored response must be byte-identical"
        );
        verified += 1;
    }
    eprintln!("  {verified}/{n_corpus} snapshot replays byte-identical");
    handle.stop().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);

    // --- malformed corpus: structured rejection, zero panics ---
    eprintln!("malformed: hostile corpus, structured rejection only");
    let handle = Server::bind(ServerConfig {
        max_line_bytes: 4096,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn();
    let hostile = [
        "garbage".to_string(),
        "{\"op\": \"map\"}".to_string(),
        "{\"op\": \"map\", \"nest\": 42}".to_string(),
        "{\"op\": \"map\", \"nest\": \"nest x\\nbroken\"}".to_string(),
        "{\"op\": \"map\", \"nest\": \"\", \"mesh\": [0, 0]}".to_string(),
        "{\"op\": \"map\", \"nest\": \"\", \"mesh\": \"big\"}".to_string(),
        "{\"op\": \"map\", \"nest\": \"\", \"mode\": \"warp\"}".to_string(),
        "{\"op\": \"map\", \"nest\": \"\", \"m\": 3}".to_string(),
        "{\"op\": \"teleport\"}".to_string(),
        "{\"no_op\": true}".to_string(),
        "{\"op\": \"map\", \"op\": \"map\"}".to_string(),
        "[\"not\", \"an\", \"object\"]".to_string(),
        "null".to_string(),
        "{\"op\": \"map_batch\", \"nests\": []}".to_string(),
        "{\"op\": \"map_batch\", \"nests\": [7]}".to_string(),
        // A valid nest on a 2^40-node mesh: must be refused before the
        // simulator allocates a clock per link.
        map_req(0, &nests[0]).replace("[8, 4]", "[1048576, 1048576]"),
        format!("{{\"op\": \"map\", \"nest\": \"{}\"}}", "y".repeat(8000)),
    ];
    let mut rejected = 0usize;
    for line in &hostile {
        // One connection per hostile line: oversized lines close theirs.
        let mut c = Client::connect(&handle);
        let resp = c.request(line);
        assert_eq!(
            resp.get("ok"),
            Some(&JsonValue::Bool(false)),
            "GATE: hostile line must be rejected structurally: {line:?} -> {resp:?}"
        );
        assert!(
            resp.get("error").and_then(|e| e.get("code")).is_some(),
            "error must carry a code: {resp:?}"
        );
        rejected += 1;
    }
    let mut client = Client::connect(&handle);
    let pong = client.request("{\"op\": \"ping\"}");
    assert_eq!(
        pong.get("ok"),
        Some(&JsonValue::Bool(true)),
        "server must survive the hostile corpus"
    );
    let panics = stat(&mut client, "panics_absorbed");
    assert_eq!(panics, 0, "GATE: zero panics absorbed on malformed corpus");
    eprintln!(
        "  {rejected}/{} hostile lines rejected, {panics} panics",
        hostile.len()
    );
    handle.stop().expect("drain");

    // --- deadlines: expired requests cancelled and reported ---
    eprintln!("deadline: expired requests must cancel, not compute");
    let handle = Server::bind(ServerConfig::default()).expect("bind").spawn();
    let mut client = Client::connect(&handle);
    let deadline_corpus = corpus(4);
    let mut cancelled = 0usize;
    for (i, nest) in deadline_corpus.iter().enumerate() {
        let nest_json = JsonValue::Str(nest.clone()).render();
        let req =
            format!("{{\"id\": {i}, \"op\": \"map\", \"nest\": {nest_json}, \"deadline_ms\": 0}}");
        let resp = client.request(&req);
        assert_eq!(
            resp.get("ok"),
            Some(&JsonValue::Bool(false)),
            "GATE: zero-deadline request must not succeed: {resp:?}"
        );
        let err = resp.get("error").expect("structured error");
        assert_eq!(
            err.get("code").and_then(JsonValue::as_str),
            Some("deadline"),
            "GATE: cancelled request must report the deadline code: {resp:?}"
        );
        assert_eq!(err.get("exit_code").and_then(JsonValue::as_i64), Some(6));
        cancelled += 1;
    }
    let reported = stat(&mut client, "deadline_cancelled");
    assert_eq!(
        reported as usize, cancelled,
        "GATE: every cancellation must be reported in stats"
    );
    // A generous deadline on the same corpus still completes.
    let nest_json = JsonValue::Str(deadline_corpus[0].clone()).render();
    let ok = client.request(&format!(
        "{{\"op\": \"map\", \"nest\": {nest_json}, \"deadline_ms\": 60000}}"
    ));
    assert_eq!(ok.get("ok"), Some(&JsonValue::Bool(true)), "{ok:?}");
    eprintln!("  {cancelled} cancelled + reported, generous deadline still serves");
    handle.stop().expect("drain");

    let mut doc = JsonDoc::new();
    doc.field("bench", "service")
        .field("corpus", n_corpus)
        .field("warm_rounds", warm_rounds)
        .field("cold_ns_per_corpus", cold_ns)
        .field("warm_ns_per_corpus", warm_ns)
        .field("warm_speedup", fixed(speedup, 2))
        .field("warm_speedup_gate", 3u64)
        .field("snapshot_entries_restored", restored)
        .field("snapshot_replays_byte_identical", verified)
        .field("hostile_lines", hostile.len())
        .field("hostile_rejected_structurally", rejected)
        .field("panics_absorbed", panics)
        .field("deadline_cancelled", cancelled)
        .field(
            "gates",
            Val::from(
                "warm>=3x_cold; snapshot_byte_identical; zero_panics_malformed; \
                 deadline_cancelled_and_reported",
            ),
        );
    args.emit(&doc);
}
