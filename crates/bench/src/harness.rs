//! The shared harness of the baseline bins: one argument parser, one
//! timing loop, and one host-aware scaling section with its efficiency
//! gate. Each bin keeps only its own workload, gates and artifact
//! columns.

use crate::workload::host_threads;
use rescomm_json::{fixed, parse, raw, JsonDoc, JsonValue, Val};
use rescomm_machine::SweepReport;
use std::hint::black_box;
use std::time::Instant;

/// The options every baseline bin takes: `--out PATH` (where the
/// artifact goes) and `--check PATH` (compare the run with a committed
/// artifact instead of writing one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub out: String,
    /// The committed artifact `--check` compares the fresh run with.
    pub check: Option<String>,
}

impl Args {
    /// Parse `--out PATH` and `--check PATH` from `args` (program name
    /// already stripped); `out` defaults to `default_out`. Anything else
    /// is a usage error, and so is `--check` next to `--out` (a check
    /// writes nothing).
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            out: default_out.to_string(),
            check: None,
        };
        let mut out_given = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" | "--check" => match it.next() {
                    Some(path) if !path.starts_with("--") => {
                        if arg == "--out" {
                            parsed.out = path;
                            out_given = true;
                        } else {
                            parsed.check = Some(path);
                        }
                    }
                    _ => return Err(format!("{arg} needs a path")),
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if parsed.check.is_some() && out_given {
            return Err("--check compares the run with a committed artifact and \
                        writes nothing: drop --out"
                .into());
        }
        Ok(parsed)
    }

    /// [`Args::parse_from`] over the process arguments; a usage error
    /// prints the usage line and exits with status 2.
    pub fn parse(default_out: &str) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Args::parse_from(argv, default_out).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {bin} [--out PATH | --check PATH]");
            std::process::exit(2)
        })
    }

    /// Write the finished artifact to `--out`, or, under `--check`,
    /// compare it with the committed file leaf by leaf (skipping the
    /// host-clock and host leaves of `CLOCK_HOST_LEAVES`), print every
    /// path that differs and exit with status 1 if one does. A check
    /// never writes a file.
    pub fn emit(&self, doc: &JsonDoc) {
        let Some(path) = &self.check else {
            doc.write(&self.out);
            return;
        };
        let committed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| {
                eprintln!("error: --check {path}: {e}");
                std::process::exit(1)
            });
        let fresh = parse(&doc.finish()).expect("the harness emits valid JSON");
        let diffs = artifact_diff(&fresh, &committed);
        if diffs.is_empty() {
            eprintln!("check {path}: every field off the clock/host list matches");
            return;
        }
        for d in &diffs {
            eprintln!("differs: {d}");
        }
        eprintln!("check {path}: {} field(s) differ", diffs.len());
        std::process::exit(1)
    }
}

/// The leaves `--check` skips because they record the host's clock or
/// the host itself, not the program: timings read off `Instant` (named
/// one by one — a blanket `*_ns` would also skip every simulated
/// makespan, `makespan_ns`, `lost_work_ns`, `wall_clock_ns`, which is
/// what the check exists to pin), ratios of timings (`*_speedup`,
/// `speedup*`, `efficiency`), the host's thread count, and whether the
/// sweep's worker count fit on it (`oversubscribed`, `skipped`).
/// A pattern starting or ending with `*` matches that key suffix or
/// prefix; a subtree under a matching key is skipped whole. A new timing
/// column fails `--check` until it is added here.
const CLOCK_HOST_LEAVES: &[&str] = &[
    // Ratios of timings.
    "*_speedup",
    "speedup*",
    "efficiency",
    // The host and the sweep's run on it.
    "host",
    "host_threads",
    "oversubscribed",
    "skipped",
    // Timings.
    "wall_ns",
    "auto_ns",
    "cached_replay_ns",
    "closed_ns",
    "dense_ns",
    "enumerated_ns",
    "oneshot_ns",
    "phasesim_ns",
    "compiled_ns",
    "lanes_ns",
    "oracle_ns",
    "per_seed_ns",
    "optimized_ns",
    "reference_ns",
    "warm_cache_ns",
    "cold_ns_per_corpus",
    "warm_ns_per_corpus",
];

fn is_clock_or_host(key: &str) -> bool {
    CLOCK_HOST_LEAVES.iter().any(|pat| {
        if let Some(suffix) = pat.strip_prefix('*') {
            key.ends_with(suffix)
        } else if let Some(prefix) = pat.strip_suffix('*') {
            key.starts_with(prefix)
        } else {
            key == *pat
        }
    })
}

/// The paths (`section[3].field`) at which `fresh` and `committed`
/// differ, skipping [`CLOCK_HOST_LEAVES`]: a changed leaf, a changed
/// value kind, a key or array element only one side has, or keys in a
/// different order.
fn artifact_diff(fresh: &JsonValue, committed: &JsonValue) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("", fresh, committed, &mut out);
    out
}

fn diff_at(path: &str, a: &JsonValue, b: &JsonValue, out: &mut Vec<String>) {
    let at = |p: &str| {
        if p.is_empty() {
            "(root)".to_string()
        } else {
            p.to_string()
        }
    };
    match (a, b) {
        (JsonValue::Object(fa), JsonValue::Object(fb)) => {
            let keys = |f: &[(String, JsonValue)]| -> Vec<String> {
                f.iter().map(|(k, _)| k.clone()).collect()
            };
            if keys(fa) != keys(fb) {
                out.push(format!(
                    "{}: keys {:?} vs committed {:?}",
                    at(path),
                    keys(fa),
                    keys(fb)
                ));
                return;
            }
            for ((k, va), (_, vb)) in fa.iter().zip(fb) {
                if !is_clock_or_host(k) {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    diff_at(&sub, va, vb, out);
                }
            }
        }
        (JsonValue::Array(xa), JsonValue::Array(xb)) => {
            if xa.len() != xb.len() {
                out.push(format!(
                    "{}: {} elements vs committed {}",
                    at(path),
                    xa.len(),
                    xb.len()
                ));
                return;
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_at(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{}: {a:?} vs committed {b:?}", at(path))),
    }
}

/// Median of `reps` timed samples of `f` after one warm-up call, in
/// nanoseconds per call. Each sample runs `f` `inner` times:
/// microsecond-scale work needs batching to rise above timer jitter.
pub fn median_ns<R>(reps: usize, inner: u32, mut f: impl FnMut() -> R) -> u64 {
    black_box(f());
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            t0.elapsed().as_nanos() as u64 / u64::from(inner)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Two workloads timed as interleaved pairs by [`paired_ns`].
pub struct Paired {
    /// Median of `a`'s samples, ns per call.
    pub a_ns: u64,
    /// Median of `b`'s samples, ns per call.
    pub b_ns: u64,
    /// Median over the pairs of `a`'s time over `b`'s.
    pub ratio: f64,
}

/// Time `a` then `b`, `reps` times. A host slowing down or speeding up
/// between pairs moves both halves of a pair alike, so the median paired
/// ratio holds where the ratio of two separately timed medians would
/// carry the drift on one side only. Each timed call follows an untimed
/// call of the same side, so neither side is timed on the caches the
/// other one left, just as [`median_ns`] times a side after itself.
pub fn paired_ns<R, S>(reps: usize, mut a: impl FnMut() -> R, mut b: impl FnMut() -> S) -> Paired {
    let warm_ns = |f: &mut dyn FnMut()| {
        f();
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as u64
    };
    let pairs: Vec<(u64, u64)> = (0..reps)
        .map(|_| {
            let ta = warm_ns(&mut || drop(black_box(a())));
            (ta, warm_ns(&mut || drop(black_box(b()))))
        })
        .collect();
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|&(ta, tb)| ta as f64 / tb.max(1) as f64)
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    Paired {
        a_ns: median(pairs.iter().map(|p| p.0).collect()),
        b_ns: median(pairs.iter().map(|p| p.1).collect()),
        ratio: ratios[ratios.len() / 2],
    }
}

/// One worker-count row of a [`Scaling`] section.
pub struct ScaleRow {
    pub report: SweepReport,
    /// `None` = skipped: the host cannot run that many workers at once,
    /// so a timing would measure the OS scheduler, not the sweep.
    pub wall_ns: Option<u64>,
}

/// A timed parallel-scaling section: one row per requested worker
/// count, the first always the 1-worker baseline.
pub struct Scaling {
    host: usize,
    pub rows: Vec<ScaleRow>,
}

impl Scaling {
    /// Run `run(w)` once per worker count for its sweep report, then time
    /// it ([`median_ns`] over `reps`) if the host can run `w` workers.
    /// The 1-worker row is always timed, even when [`host_threads`]
    /// cannot tell (0); multi-worker rows are skipped, never faked.
    pub fn measure(counts: &[usize], reps: usize, run: impl FnMut(usize) -> SweepReport) -> Self {
        Self::measure_on(host_threads(), counts, reps, run)
    }

    /// [`Scaling::measure`] against an explicit host thread count.
    fn measure_on(
        host: usize,
        counts: &[usize],
        reps: usize,
        mut run: impl FnMut(usize) -> SweepReport,
    ) -> Self {
        assert_eq!(
            counts.first(),
            Some(&1),
            "a scaling section starts at 1 worker"
        );
        let rows = counts
            .iter()
            .map(|&w| {
                let report = run(w);
                let wall_ns = (w == 1 || w <= host).then(|| median_ns(reps, 1, || run(w)));
                match wall_ns {
                    Some(t) => {
                        eprintln!("  {w} workers ({} used)  wall {t:>12} ns", report.workers)
                    }
                    None => eprintln!("  {w} workers  skipped (host has {host} threads)"),
                }
                ScaleRow { report, wall_ns }
            })
            .collect();
        Scaling { host, rows }
    }

    /// Speedup of `r` over the 1-worker row; `None` when `r` was skipped.
    fn speedup(&self, r: &ScaleRow) -> Option<f64> {
        let t1 = self.rows[0]
            .wall_ns
            .expect("the 1-worker row is always timed");
        r.wall_ns.map(|w| t1 as f64 / w.max(1) as f64)
    }

    /// The artifact columns of one row: the sweep's worker counts, task
    /// count and grain, then its timing. Efficiency is measured against
    /// the workers the sweep actually used, not the request.
    pub fn columns(&self, r: &ScaleRow) -> Vec<(&'static str, Val)> {
        let speedup = self.speedup(r);
        let null = || raw("null");
        vec![
            ("workers_requested", Val::from(r.report.requested)),
            ("workers_used", Val::from(r.report.workers)),
            ("tasks", Val::from(r.report.tasks)),
            ("grain", Val::from(r.report.grain)),
            ("wall_ns", r.wall_ns.map_or_else(null, Val::from)),
            ("speedup_vs_1", speedup.map_or_else(null, |s| fixed(s, 2))),
            (
                "efficiency",
                speedup.map_or_else(null, |s| fixed(s / r.report.workers.max(1) as f64, 2)),
            ),
            ("oversubscribed", Val::from(r.report.requested > self.host)),
            ("skipped", Val::from(r.wall_ns.is_none())),
        ]
    }

    /// The efficiency gate: a timed 4-worker row must reach ≥ 0.7
    /// efficiency. Hosts with fewer than 4 threads skip that row, so the
    /// gate only bites where the timing means something.
    pub fn gate_efficiency(&self, section: &str) {
        for r in self.rows.iter().filter(|r| r.report.requested == 4) {
            let Some(speedup) = self.speedup(r) else {
                continue;
            };
            let efficiency = speedup / r.report.workers.max(1) as f64;
            assert!(
                efficiency >= 0.7,
                "{section}: 4-worker efficiency {efficiency:.2} below the 0.7 floor \
                 on a {}-thread host (tasks {}, grain {})",
                self.host,
                r.report.tasks,
                r.report.grain
            );
            eprintln!("  {section}: 4-worker efficiency {efficiency:.2} >= 0.7  ok");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|a| a.to_string()), "BENCH_x.json")
    }

    #[test]
    fn args_default_to_full_run_at_the_committed_path() {
        let a = args(&[]).unwrap();
        assert_eq!(a.out, "BENCH_x.json");
        assert_eq!(a.check, None);
        let want = Args {
            out: "/tmp/b.json".into(),
            check: None,
        };
        assert_eq!(args(&["--out", "/tmp/b.json"]), Ok(want));
    }

    #[test]
    fn args_reject_a_missing_out_path() {
        assert!(args(&["--out"]).unwrap_err().contains("--out needs a path"));
        assert!(args(&["--out", "--check"]).is_err());
        assert!(args(&["--check"])
            .unwrap_err()
            .contains("--check needs a path"));
    }

    #[test]
    fn args_reject_unknown_flags() {
        for bad in ["--smoke", "--quick", "--smok", "-s", "extra"] {
            let err = args(&["--out", "/tmp/b.json", bad]).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn args_check_stands_alone() {
        let a = args(&["--check", "BENCH_x.json"]).unwrap();
        assert_eq!(a.check.as_deref(), Some("BENCH_x.json"));
        for bad in [
            &["--out", "/tmp/b.json", "--check", "BENCH_x.json"][..],
            &["--check", "BENCH_x.json", "--out", "/tmp/b.json"],
        ] {
            assert!(args(bad).unwrap_err().contains("writes nothing"), "{bad:?}");
        }
    }

    fn json(text: &str) -> JsonValue {
        rescomm_json::parse(text).unwrap()
    }

    #[test]
    fn artifact_diff_skips_only_the_clock_and_host_leaves() {
        let committed = json(
            r#"{"host": "cpu a", "host_threads": 2, "rows": [{"n": 1, "wall_ns": 10, "speedup_vs_1": 1.5,
                "efficiency": 0.7, "oversubscribed": false, "skipped": false,
                "makespan_ns": 42, "dense_speedup": 3.1,
                "t": {"closed_ns": 5}}]}"#,
        );
        let clocks_moved = json(
            r#"{"host": "cpu b", "host_threads": 8, "rows": [{"n": 1, "wall_ns": null, "speedup_vs_1": 2.0,
                "efficiency": 0.9, "oversubscribed": true, "skipped": true,
                "makespan_ns": 42, "dense_speedup": 2.7,
                "t": {"closed_ns": 7}}]}"#,
        );
        assert_eq!(
            artifact_diff(&clocks_moved, &committed),
            Vec::<String>::new()
        );
        // A simulated makespan is not a clock reading, whatever its unit.
        let makespan_moved = json(
            r#"{"host": "cpu a", "host_threads": 2, "rows": [{"n": 1, "wall_ns": 10, "speedup_vs_1": 1.5,
                "efficiency": 0.7, "oversubscribed": false, "skipped": false,
                "makespan_ns": 43, "dense_speedup": 3.1,
                "t": {"closed_ns": 5}}]}"#,
        );
        let d = artifact_diff(&makespan_moved, &committed);
        assert_eq!(d.len(), 1);
        assert!(d[0].starts_with("rows[0].makespan_ns: Int(43)"), "{d:?}");
    }

    #[test]
    fn artifact_diff_names_shape_changes() {
        let committed = json(r#"{"a": [1, 2], "b": {"x": 1, "y": 2}, "c": "s"}"#);
        let fresh = json(r#"{"a": [1], "b": {"y": 2, "x": 1}, "c": 1}"#);
        let d = artifact_diff(&fresh, &committed);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0].starts_with("a: 1 elements vs committed 2"), "{d:?}");
        assert!(d[1].starts_with("b: keys"), "{d:?}");
        assert!(d[2].starts_with("c: Int(1) vs committed Str"), "{d:?}");
        let renamed = json(r#"{"a": [1, 2], "b": {"x": 1, "y": 2}, "d": "s"}"#);
        assert!(artifact_diff(&renamed, &committed)[0].starts_with("(root): keys"));
    }

    #[test]
    fn median_ns_calls_warm_up_plus_reps_times_inner() {
        let mut calls = 0u32;
        median_ns(5, 3, || calls += 1);
        assert_eq!(calls, 1 + 5 * 3);
    }

    #[test]
    fn paired_ns_interleaves_warm_calls() {
        let order = std::cell::RefCell::new(String::new());
        let p = paired_ns(
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), "aabbaabbaabb");
        assert!(p.ratio > 0.0);
    }

    fn fake_report(w: usize) -> SweepReport {
        SweepReport {
            requested: w,
            workers: w,
            tasks: 64,
            grain: 1,
        }
    }

    /// The `key` column of row `row`.
    fn column(s: &Scaling, row: usize, key: &str) -> Val {
        let cols = s.columns(&s.rows[row]);
        cols.into_iter().find(|c| c.0 == key).unwrap().1
    }

    #[test]
    fn scaling_times_one_worker_even_when_the_host_will_not_say() {
        let s = Scaling::measure_on(0, &[1, 2, 4], 3, fake_report);
        assert!(s.rows[0].wall_ns.is_some(), "1-worker row always timed");
        assert!(s.rows[1..].iter().all(|r| r.wall_ns.is_none()));
        assert_eq!(s.columns(&s.rows[0])[0].0, "workers_requested");
        assert!(matches!(column(&s, 0, "skipped"), Val::Bool(false)));
        assert!(matches!(column(&s, 2, "skipped"), Val::Bool(true)));
        s.gate_efficiency("host0");
    }

    #[test]
    fn scaling_times_every_count_the_host_can_run() {
        let s = Scaling::measure_on(2, &[1, 2, 4, 8], 1, fake_report);
        let timed: Vec<bool> = s.rows.iter().map(|r| r.wall_ns.is_some()).collect();
        assert_eq!(timed, [true, true, false, false]);
        assert!(matches!(column(&s, 2, "oversubscribed"), Val::Bool(true)));
    }
}
