//! Measure how the claim-cursor sweep (`machine::pool`) scales
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
//!   skew is what claiming small blocks from one cursor exists for).
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin scaling_baseline [--out PATH | --check PATH]
//! ```
//!
//! Gates, in order:
//!
//! * **Identity (every host, including single-core CI):**
//!   fault, recovery, schedule and analysis sweeps must be bit-identical
//!   to their 1-worker runs at several worker counts — the sweep's
//!   determinism contract, checked end to end at the public entry
//!   points. The artifact's `identity` rows exist only if this passed
//!   (a divergence panics the bin).
//! * **Timing ([`Scaling`]):** speedup over the always-timed 1-worker
//!   run and efficiency against `workers_used` (the sweep's post-clamp
//!   worker count, not the request). Rows asking for more workers than
//!   the host has hardware threads are **skipped** — emitted with
//!   `skipped: true` and null timings, never fabricated — because they
//!   would time the OS scheduler, not the sweep. On hosts with ≥ 4
//!   threads the 4-worker row of each workload must reach ≥ 0.7
//!   efficiency.

use rescomm::{map_nest_batch, MappingOptions};
use rescomm_bench::harness::{Args, Scaling};
use rescomm_bench::workload::{
    chained_stencil_nest, host_threads, lossy_plan, paragon_mesh, pipeline_nest, seeded_outages,
    synth_phases,
};
use rescomm_json::{raw, JsonDoc, Val};
use rescomm_loopnest::LoopNest;
use rescomm_machine::{
    par_fault_sweep, par_schedule_sweep, CachedPhase, CheckpointPolicy, FaultPlan, ScheduleMode,
    SchedulePolicy,
};

fn main() {
    let args = Args::parse("BENCH_scaling.json");
    let host = host_threads();
    let timing_reps = 7;

    let mesh = paragon_mesh();
    let phases = synth_phases(mesh.nodes(), 5, 56, 0xfa17);
    let sched = SchedulePolicy::default();
    // Fault plans exercising every transport mechanism: seeded link and
    // node outage windows, drop, duplication, retries.
    let bank: Vec<FaultPlan> = (0..8)
        .map(|i| lossy_plan(42 + i, seeded_outages(&mesh, 42 + i, 24, 4)))
        .collect();
    let reps = 32;

    // Analysis fleet with a ~4x size skew between the smallest and
    // largest nest, alternating families — the uneven per-task cost the
    // shared cursor has to level out.
    let fleet: Vec<LoopNest> = (0..32)
        .map(|i| {
            if i % 2 == 0 {
                chained_stencil_nest(12 + 3 * i, 8)
            } else {
                pipeline_nest(12 + 3 * i, 8)
            }
        })
        .collect();
    let opts = MappingOptions::new(2);

    // --- identity gates: every host ----------------------------------------
    eprintln!("identity: fault, recovery, schedule and analysis sweeps vs their 1-worker runs");
    let id_workers = [2usize, 3, 5, 8];
    let mut id_rows: Vec<(&str, usize)> = Vec::new();

    let fault_serial = par_fault_sweep(&mesh, &phases, &bank, None, reps, 1, sched).0;
    for w in id_workers {
        assert_eq!(
            par_fault_sweep(&mesh, &phases, &bank, None, reps, w, sched).0,
            fault_serial,
            "par_fault_sweep diverged from serial at {w} workers"
        );
        id_rows.push(("fault", w));
    }

    let ckpt = Some(&CheckpointPolicy::default());
    let rec_reps = reps.min(8);
    let rec_serial = par_fault_sweep(&mesh, &phases, &bank, ckpt, rec_reps, 1, sched).0;
    for &w in &id_workers[..2] {
        assert_eq!(
            par_fault_sweep(&mesh, &phases, &bank, ckpt, rec_reps, w, sched).0,
            rec_serial,
            "recovering par_fault_sweep diverged from serial at {w} workers"
        );
        id_rows.push(("recovery", w));
    }

    let cached: Vec<CachedPhase> = phases.iter().map(|p| CachedPhase::new(&mesh, p)).collect();
    let byte_scales: Vec<u64> = (1..=64).collect();
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

    let analysis_serial = map_nest_batch(&fleet, &opts, 1).0.unwrap();
    for w in id_workers {
        let par = map_nest_batch(&fleet, &opts, w).0.unwrap();
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
    let fault = Scaling::measure(&worker_counts, timing_reps, |w| {
        par_fault_sweep(&mesh, &phases, &bank, None, reps, w, sched).1
    });

    // --- timing: analysis batch -------------------------------------------
    eprintln!("analysis_batch: {} skewed nests", fleet.len());
    let analysis = Scaling::measure(&worker_counts, timing_reps, |w| {
        let (result, report) = map_nest_batch(&fleet, &opts, w);
        result.unwrap();
        report
    });

    // --- efficiency gates (timed rows only) -------------------------------
    fault.gate_efficiency("fault_replay");
    analysis.gate_efficiency("analysis_batch");

    // --- artifact ----------------------------------------------------------
    let mut doc = JsonDoc::new();
    doc.field("bench", "scaling")
        .field("host_threads", host)
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
    doc.rows("fault_replay", &fault.rows, |r| fault.columns(r));
    doc.rows("analysis_batch", &analysis.rows, |r| analysis.columns(r));
    args.emit(&doc);
}
