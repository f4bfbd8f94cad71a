//! The shared harness of the baseline bins: one argument parser, one
//! timing loop, and one host-aware scaling section with its efficiency
//! gate. Each bin keeps only its own workload, gates and artifact
//! columns.

use crate::workload::host_threads;
use rescomm_json::{fixed, raw, Val};
use rescomm_machine::SweepReport;
use std::hint::black_box;
use std::time::Instant;

/// The options every baseline bin takes: `--out PATH` (where the
/// artifact goes) and `--smoke` (the small CI-sized workload, same
/// gates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub out: String,
    pub smoke: bool,
}

impl Args {
    /// Parse `--out PATH` and `--smoke` from `args` (program name already
    /// stripped); `out` defaults to `default_out`. Anything else is a
    /// usage error.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            out: default_out.to_string(),
            smoke: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" => match it.next() {
                    Some(path) if !path.starts_with("--") => parsed.out = path,
                    _ => return Err("--out needs a path".into()),
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }

    /// [`Args::parse_from`] over the process arguments; a usage error
    /// prints the usage line and exits with status 2.
    pub fn parse(default_out: &str) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Args::parse_from(argv, default_out).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {bin} [--smoke] [--out PATH]");
            std::process::exit(2)
        })
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
    /// Run `run(w)` once per worker count for its pool report, then time
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
                    Some(t) => eprintln!(
                        "  {w} workers ({} used)  wall {t:>12} ns   steals {}",
                        report.workers, report.steals
                    ),
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

    /// The shared artifact columns of one row. Efficiency is measured
    /// against the workers the pool actually used, not the request.
    pub fn columns(&self, r: &ScaleRow) -> Vec<(&'static str, Val)> {
        let speedup = self.speedup(r);
        let null = || raw("null");
        vec![
            ("workers_requested", Val::from(r.report.requested)),
            ("workers_used", Val::from(r.report.workers)),
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
                 on a {}-thread host (tasks {}, grain {}, steals {})",
                self.host,
                r.report.tasks,
                r.report.grain,
                r.report.steals
            );
            eprintln!("  {section}: 4-worker efficiency {efficiency:.2} >= 0.7  ok");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|a| a.to_string()), "BENCH_x.json")
    }

    #[test]
    fn args_default_to_full_run_at_the_committed_path() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.out.as_str(), a.smoke), ("BENCH_x.json", false));
    }

    #[test]
    fn args_take_smoke_and_out_in_any_order() {
        let want = Args {
            out: "/tmp/b.json".into(),
            smoke: true,
        };
        assert_eq!(
            parse(&["--smoke", "--out", "/tmp/b.json"]),
            Ok(want.clone())
        );
        assert_eq!(parse(&["--out", "/tmp/b.json", "--smoke"]), Ok(want));
    }

    #[test]
    fn args_reject_a_missing_out_path() {
        assert!(parse(&["--out"])
            .unwrap_err()
            .contains("--out needs a path"));
        assert!(parse(&["--out", "--smoke"]).is_err());
    }

    #[test]
    fn args_reject_unknown_flags() {
        for bad in ["--quick", "--smok", "-s", "extra"] {
            let err = parse(&["--smoke", bad]).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn median_ns_calls_warm_up_plus_reps_times_inner() {
        let mut calls = 0u32;
        median_ns(5, 3, || calls += 1);
        assert_eq!(calls, 1 + 5 * 3);
    }

    fn fake_report(w: usize) -> SweepReport {
        SweepReport {
            requested: w,
            workers: w,
            tasks: 64,
            grain: 1,
            steals: 0,
        }
    }

    #[test]
    fn scaling_times_one_worker_even_when_the_host_will_not_say() {
        let s = Scaling::measure_on(0, &[1, 2, 4], 3, fake_report);
        assert!(s.rows[0].wall_ns.is_some(), "1-worker row always timed");
        assert!(s.rows[1..].iter().all(|r| r.wall_ns.is_none()));
        let cols = s.columns(&s.rows[0]);
        assert_eq!(cols[0].0, "workers_requested");
        assert!(matches!(cols[6], ("skipped", Val::Bool(false))));
        assert!(matches!(
            s.columns(&s.rows[2])[6],
            ("skipped", Val::Bool(true))
        ));
        s.gate_efficiency("host0");
    }

    #[test]
    fn scaling_times_every_count_the_host_can_run() {
        let s = Scaling::measure_on(2, &[1, 2, 4, 8], 1, fake_report);
        let timed: Vec<bool> = s.rows.iter().map(|r| r.wall_ns.is_some()).collect();
        assert_eq!(timed, [true, true, false, false]);
        assert!(matches!(
            s.columns(&s.rows[2])[5],
            ("oversubscribed", Val::Bool(true))
        ));
    }
}
