//! Measure how the shared work-stealing pool (`machine::pool`) scales
//! the workspace's parallel sweeps and write a machine-readable baseline
//! to `BENCH_scaling.json` so later PRs can track the trajectory.
//!
//! Two timed workloads, chosen because every ROADMAP item above the
//! substrate (topology sweeps, schedule search, the sharded service)
//! fans out exactly like one of them:
//!
//! * **fault_replay** — [`par_fault_sweep`] over a bank of fault plans
//!   (plan×seed task sharding, per-worker [`FaultSim`](rescomm_machine::FaultSim) engines);
//! * **analysis_batch** — [`map_nest_batch`] over a fleet of loop nests
//!   of deliberately skewed sizes (per-worker `AnalysisCache`s; the
//!   skew is what the steal path exists for).
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin scaling_baseline [--smoke] [--out PATH]
//! ```
//!
//! Gates, in order:
//!
//! * **Identity (every host, including single-core CI, smoke or not):**
//!   fault, recovery, schedule and analysis sweeps must be bit-identical
//!   to their 1-worker runs at several worker counts — the pool's
//!   determinism contract, checked end to end at the public entry
//!   points. The artifact's `identity` rows exist only if this passed
//!   (a divergence panics the bin).
//! * **Timing (only when `host_threads > 1`):** speedup over the
//!   1-worker run and efficiency against `workers_used` (the pool's
//!   post-clamp worker count, not the request). Rows asking for more
//!   workers than the host has hardware threads are **skipped** —
//!   emitted with `skipped: true` and null timings, never fabricated —
//!   because they would time the OS scheduler, not the sweep. On
//!   multi-core hosts the 4-worker row of each workload must reach
//!   ≥ 0.7 efficiency.

use rescomm::{map_nest_batch, map_nest_batch_report, MappingOptions};
use rescomm_bench::json::{fixed, raw, JsonDoc, Val};
use rescomm_bench::workload::{chained_stencil_nest, host_threads, pipeline_nest};
use rescomm_loopnest::LoopNest;
use rescomm_machine::{
    par_fault_sweep, par_fault_sweep_report, par_recovery_sweep, par_schedule_sweep, CachedPhase,
    CheckpointPolicy, CostModel, FaultPlan, LinkOutage, Mesh2D, NodeOutage, PMsg, RetryPolicy,
    ScheduleMode, SchedulePolicy, SweepReport, XorShift64,
};
use std::hint::black_box;
use std::time::Instant;

/// Median of `reps` timed runs of `f`, in nanoseconds.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> u64 {
    black_box(f()); // warm up
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Deterministic synthetic phase set on `nodes` processors.
fn synth_phases(nodes: usize, n_phases: usize, per_phase: usize, seed: u64) -> Vec<Vec<PMsg>> {
    let mut rng = XorShift64::new(seed);
    (0..n_phases)
        .map(|_| {
            (0..per_phase)
                .map(|_| PMsg {
                    src: rng.below(nodes as u64) as usize,
                    dst: rng.below(nodes as u64) as usize,
                    bytes: 1 + rng.below(2048),
                })
                .collect()
        })
        .collect()
}

/// A fault plan exercising every transport mechanism: seeded link and
/// node outage windows, drop, duplication, retries.
fn dense_plan(mesh: &Mesh2D, seed: u64) -> FaultPlan {
    let mut rng = XorShift64::new(0xfa17_babe ^ seed);
    let link_outages = (0..24)
        .map(|_| {
            let from = rng.below(600_000);
            LinkOutage {
                link: rng.below(mesh.link_count() as u64) as usize,
                from,
                until: from + 50_000 + rng.below(200_000),
            }
        })
        .collect();
    let node_outages = (0..4)
        .map(|_| {
            let from = rng.below(400_000);
            NodeOutage {
                node: rng.below(mesh.nodes() as u64) as usize,
                from,
                until: from + 30_000 + rng.below(100_000),
            }
        })
        .collect();
    FaultPlan {
        seed,
        drop_prob: 0.2,
        dup_prob: 0.02,
        link_outages,
        node_outages,
        retry: RetryPolicy::default(),
        ..FaultPlan::none()
    }
}

/// One timing row of a workload section.
struct ScaleRow {
    report: SweepReport,
    /// `None` = row skipped (would oversubscribe the host).
    wall_ns: Option<u64>,
}

/// Render one timing section; `t1` is the 1-worker wall clock.
fn emit_rows(doc: &mut JsonDoc, section: &'static str, rows: &[ScaleRow], t1: u64, host: usize) {
    doc.rows(section, rows, |r| {
        let speedup = r.wall_ns.map(|w| t1 as f64 / w.max(1) as f64);
        vec![
            ("workers_requested", Val::from(r.report.requested)),
            ("workers_used", Val::from(r.report.workers)),
            ("tasks", Val::from(r.report.tasks)),
            ("grain", Val::from(r.report.grain)),
            ("steals", Val::from(r.report.steals)),
            ("wall_ns", r.wall_ns.map_or(raw("null"), Val::from)),
            ("speedup_vs_1", speedup.map_or(raw("null"), |s| fixed(s, 2))),
            (
                "efficiency",
                speedup.map_or(raw("null"), |s| {
                    fixed(s / r.report.workers.max(1) as f64, 2)
                }),
            ),
            ("oversubscribed", Val::from(r.report.requested > host)),
            ("skipped", Val::from(r.wall_ns.is_none())),
        ]
    });
}

/// The ≥0.7-efficiency floor on the timed 4-worker row, when one ran.
fn gate_efficiency(section: &str, rows: &[ScaleRow], t1: u64, host: usize) {
    for r in rows {
        let Some(wall) = r.wall_ns else { continue };
        if r.report.requested != 4 {
            continue;
        }
        let efficiency = t1 as f64 / wall.max(1) as f64 / r.report.workers.max(1) as f64;
        assert!(
            efficiency >= 0.7,
            "{section}: 4-worker efficiency {efficiency:.2} below the 0.7 floor \
             on a {host}-thread host (tasks {}, grain {}, steals {})",
            r.report.tasks,
            r.report.grain,
            r.report.steals
        );
        eprintln!("  {section}: 4-worker efficiency {efficiency:.2} >= 0.7  ok");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let out = args
        .iter()
        .skip_while(|a| *a != "--out")
        .nth(1)
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".into());
    let host = host_threads();
    let timing_reps = if smoke { 3 } else { 7 };

    let mesh = Mesh2D::new(8, 4, CostModel::paragon());
    let phases = synth_phases(mesh.nodes(), 5, 56, 0xfa17);
    let sched = SchedulePolicy::default();
    let bank: Vec<FaultPlan> = (0..if smoke { 4 } else { 8 })
        .map(|i| dense_plan(&mesh, 42 + i))
        .collect();
    let reps = if smoke { 4 } else { 32 };

    // Analysis fleet with a ~4x size skew between the smallest and
    // largest nest, alternating families — the uneven per-task cost the
    // steal path has to level out.
    let fleet: Vec<LoopNest> = (0..if smoke { 8 } else { 32 })
        .map(|i| {
            if i % 2 == 0 {
                chained_stencil_nest(12 + 3 * i, 8)
            } else {
                pipeline_nest(12 + 3 * i, 8)
            }
        })
        .collect();
    let opts = MappingOptions::new(2);

    // --- identity gates: every host, smoke or not --------------------------
    eprintln!("identity: all four sweep entry points vs their 1-worker runs");
    let id_workers: &[usize] = if smoke { &[2, 3, 8] } else { &[2, 3, 5, 8] };
    let mut id_rows: Vec<(&str, usize)> = Vec::new();

    let fault_serial = par_fault_sweep(&mesh, &phases, &bank, reps, 1, sched);
    for &w in id_workers {
        assert_eq!(
            par_fault_sweep(&mesh, &phases, &bank, reps, w, sched),
            fault_serial,
            "par_fault_sweep diverged from serial at {w} workers"
        );
        id_rows.push(("fault", w));
    }

    let policy = CheckpointPolicy::default();
    let rec_reps = reps.min(8);
    let rec_serial = par_recovery_sweep(&mesh, &phases, &bank, &policy, rec_reps, 1, sched);
    for &w in &id_workers[..2] {
        assert_eq!(
            par_recovery_sweep(&mesh, &phases, &bank, &policy, rec_reps, w, sched),
            rec_serial,
            "par_recovery_sweep diverged from serial at {w} workers"
        );
        id_rows.push(("recovery", w));
    }

    let cached: Vec<CachedPhase> = phases.iter().map(|p| CachedPhase::new(&mesh, p)).collect();
    let byte_scales: Vec<u64> = (1..=if smoke { 16 } else { 64 }).collect();
    let sched_serial =
        par_schedule_sweep(&mesh, &cached, ScheduleMode::overlapped(), &byte_scales, 1);
    for &w in &id_workers[..2] {
        assert_eq!(
            par_schedule_sweep(&mesh, &cached, ScheduleMode::overlapped(), &byte_scales, w),
            sched_serial,
            "par_schedule_sweep diverged from serial at {w} workers"
        );
        id_rows.push(("schedule", w));
    }

    let analysis_serial = map_nest_batch(&fleet, &opts, 1).unwrap();
    for &w in id_workers {
        let par = map_nest_batch(&fleet, &opts, w).unwrap();
        assert_eq!(par.len(), analysis_serial.len());
        for (i, (s, p)) in analysis_serial.iter().zip(&par).enumerate() {
            assert_eq!(
                (&s.outcomes, &s.rotations),
                (&p.outcomes, &p.rotations),
                "map_nest_batch diverged from serial at {w} workers on nest {i}"
            );
        }
        id_rows.push(("analysis", w));
    }
    eprintln!("  all {} identity checks passed", id_rows.len());

    // --- timing: fault replay ---------------------------------------------
    let worker_counts = [1usize, 2, 4, 8];
    eprintln!(
        "fault_replay: {} plans x {reps} replications on a {host}-thread host",
        bank.len()
    );
    let mut fault_rows = Vec::new();
    for w in worker_counts {
        let (_, report) = par_fault_sweep_report(&mesh, &phases, &bank, reps, w, sched);
        // Oversubscribed rows time the OS scheduler, not the sweep:
        // skip them outright, never fake them.
        let wall_ns = (w <= host).then(|| {
            median_ns(timing_reps, || {
                par_fault_sweep(&mesh, &phases, &bank, reps, w, sched)
            })
        });
        match wall_ns {
            Some(t) => eprintln!(
                "  {w} workers ({} used)  wall {t:>12} ns   steals {}",
                report.workers, report.steals
            ),
            None => eprintln!("  {w} workers  skipped (host has {host} threads)"),
        }
        fault_rows.push(ScaleRow { report, wall_ns });
    }

    // --- timing: analysis batch -------------------------------------------
    eprintln!("analysis_batch: {} skewed nests", fleet.len());
    let mut analysis_rows = Vec::new();
    for w in worker_counts {
        let (result, report) = map_nest_batch_report(&fleet, &opts, w);
        result.unwrap();
        let wall_ns = (w <= host)
            .then(|| median_ns(timing_reps, || map_nest_batch(&fleet, &opts, w).unwrap()));
        match wall_ns {
            Some(t) => eprintln!(
                "  {w} workers ({} used)  wall {t:>12} ns   steals {}",
                report.workers, report.steals
            ),
            None => eprintln!("  {w} workers  skipped (host has {host} threads)"),
        }
        analysis_rows.push(ScaleRow { report, wall_ns });
    }

    // --- efficiency gates (timed rows only, so host_threads > 1) ----------
    let fault_t1 = fault_rows[0].wall_ns.expect("1-worker row always timed");
    let analysis_t1 = analysis_rows[0].wall_ns.expect("1-worker row always timed");
    gate_efficiency("fault_replay", &fault_rows, fault_t1, host);
    gate_efficiency("analysis_batch", &analysis_rows, analysis_t1, host);

    // --- artifact ----------------------------------------------------------
    let mut doc = JsonDoc::new();
    doc.field("bench", "scaling")
        .field("host_threads", host)
        .field("smoke", smoke)
        .field("mesh", raw("[8, 4]"))
        .field("fault_plans", bank.len())
        .field("fault_replications", reps)
        .field("analysis_nests", fleet.len());
    doc.rows("identity", &id_rows, |r| {
        vec![
            ("workload", Val::from(r.0)),
            ("workers", Val::from(r.1)),
            ("identical", Val::from(true)),
        ]
    });
    emit_rows(&mut doc, "fault_replay", &fault_rows, fault_t1, host);
    emit_rows(
        &mut doc,
        "analysis_batch",
        &analysis_rows,
        analysis_t1,
        host,
    );
    doc.write(&out);
}
