//! `rescomm-serve` — the crash-safe mapping service (JSON lines over
//! TCP; see `rescomm::serve` and `DESIGN.md` §15 for the protocol).
//!
//! ```text
//! rescomm-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!               [--snapshot PATH] [--snapshot-every N]
//!               [--snapshot-interval-ms N] [--deadline-ms N]
//!               [--max-line-bytes N] [--cache-cap N]
//! ```
//!
//! * `--addr`          bind address (default `127.0.0.1:7457`; port 0
//!   picks an ephemeral port — the real one is printed)
//! * `--workers N`     concurrent map computations (default 2)
//! * `--queue N`       admission queue depth before overload
//!   rejections (default 16)
//! * `--snapshot PATH` plan-cache snapshot file; enables crash-safe
//!   restarts (each restored entry is recomputed and kept only if the
//!   recomputation renders its stored bytes)
//! * `--snapshot-every N`        flush after every N computations; the
//!   Nth is answered only after the write (default 32; 0 =
//!   interval/shutdown only)
//! * `--snapshot-interval-ms N`  flush interval when dirty
//!   (default 5000; 0 = no interval flushes)
//! * `--deadline-ms N` default per-request deadline for requests that
//!   don't set their own (default: none)
//! * `--max-line-bytes N`        request line cap (default 1 MiB)
//! * `--cache-cap N`   plan-cache entry cap; LRU eviction past it
//!   (default 1024; 0 = unbounded)
//!
//! On startup the server prints exactly one line
//! `listening on HOST:PORT` to stdout, then serves until a `shutdown`
//! op drains it (flushing a final snapshot).

use rescomm::serve::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

fn parse_args() -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7457".to_string(),
        ..ServerConfig::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("{what} needs a non-negative integer"))
        };
        match a.as_str() {
            "--addr" => {
                cfg.addr = it.next().ok_or("--addr needs HOST:PORT")?;
            }
            "--workers" => {
                cfg.workers = num("--workers")?.max(1) as usize;
            }
            "--queue" => {
                cfg.max_queue = num("--queue")? as usize;
            }
            "--snapshot" => {
                cfg.snapshot_path = Some(it.next().ok_or("--snapshot needs a path")?.into());
            }
            "--snapshot-every" => {
                cfg.snapshot_every = num("--snapshot-every")?;
            }
            "--snapshot-interval-ms" => {
                let ms = num("--snapshot-interval-ms")?;
                cfg.snapshot_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--deadline-ms" => {
                cfg.default_deadline = Some(Duration::from_millis(num("--deadline-ms")?));
            }
            "--max-line-bytes" => {
                cfg.max_line_bytes = num("--max-line-bytes")?.max(64) as usize;
            }
            "--cache-cap" => {
                cfg.plan_cache_cap = num("--cache-cap")? as usize;
            }
            "--help" | "-h" => {
                return Err("usage: rescomm-serve [--addr HOST:PORT] [--workers N] \
                            [--queue N] [--snapshot PATH] [--snapshot-every N] \
                            [--snapshot-interval-ms N] [--deadline-ms N] \
                            [--max-line-bytes N] [--cache-cap N]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rescomm-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if server.restored_entries() > 0 {
        eprintln!(
            "rescomm-serve: restored {} plan-cache entries from snapshot",
            server.restored_entries()
        );
    }
    // The one line tooling (tests, bench harness) keys on.
    println!("listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rescomm-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
