//! Measure the compiled fault engine against the fault oracle and
//! write a machine-readable baseline to `BENCH_faultperf.json` so later
//! PRs can track the perf trajectory.
//!
//! Workload: the paper's motivating example mapped by the full pipeline,
//! folded onto an 8×4 Paragon mesh (the same plan the CLI and the paper
//! tables use), under a fault plan with two link-outage windows, one
//! node outage, 20% message drop, 2% duplication and the default retry
//! policy — every fault mechanism the transport has is in force.
//!
//! Three sections:
//!
//! * **replay** — multi-seed faulty Monte Carlo: the oracle loop
//!   ([`rescomm_machine::reference::simulate`] once per seed, linear
//!   outage scans, per-call filter+sort+route walks) vs the compiled
//!   engine
//!   ([`FaultSim::replay_faulty`]: plan compiled to sorted interval
//!   buckets, phases compiled once to flat route slices). Full-mode
//!   rows at ≥64 replications assert the compiled engine is ≥3×.
//! * **recovering** — the same comparison through the
//!   checkpoint/rollback path with permanent node deaths.
//! * **parallel** — [`par_fault_sweep`] wall-clock at 1..8 workers over
//!   a bank of plans on the shared work-stealing pool (plan×seed task
//!   sharding; see `machine::pool` and `BENCH_scaling.json` for the
//!   dedicated scaling study), as one shared [`Scaling`] section:
//!   speedup over one worker, efficiency against `workers_used`, and
//!   rows the host cannot run concurrently skipped (`skipped: true`,
//!   null timings) — timing them would measure the OS scheduler, not
//!   the sweep. The worker-count bit-identity gate runs on every host.
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin fault_baseline [--smoke] [--out PATH]
//! ```
//!
//! Every timed pair is first checked for **bit-identity** (full
//! [`rescomm_machine::FaultReport`] per seed) and the parallel sweep for
//! thread-count independence, so the numbers can't drift from a wrong
//! answer going fast. `--smoke` shrinks the replication counts for the
//! CI job and skips the wall-clock-dependent speedup floors (CI boxes
//! are noisy); the identity gates are unchanged.

use rescomm::{build_plan, map_nest, MappingOptions};
use rescomm_bench::harness::{median_ns, Args, Scaling};
use rescomm_bench::workload::{
    fixed_outages, host_threads, lossy_plan, paragon_mesh, seeded_outages,
};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_json::{fixed, raw, JsonDoc, Val};
use rescomm_loopnest::examples;
use rescomm_machine::{
    mttf_death_schedule, par_fault_sweep, reference, replication_seed, CheckpointPolicy, FaultPlan,
    FaultReport, FaultSim, PMsg, ScheduleMode, SchedulePolicy,
};

struct ReplayRow {
    replications: usize,
    oracle_ns: u64,
    compiled_ns: u64,
}

fn main() {
    let Args { out, smoke } = Args::parse("BENCH_faultperf.json");

    // The paper plan: motivating example through the full mapping
    // pipeline, folded onto the 8×4 Paragon mesh.
    let (nest, _) = examples::motivating_example(6, 2);
    let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
    let mesh = paragon_mesh();
    let dist = Dist2D::uniform(Dist1D::Cyclic);
    let phases: Vec<Vec<PMsg>> =
        build_plan(&nest, &mapping).phases_on_mesh(&mesh, dist, (24, 24), 64);
    let messages: usize = phases.iter().map(Vec::len).sum();
    let healthy = mesh.simulate_phases(&phases);

    // Every fault mechanism in force: a dense outage schedule (48 link
    // windows and 6 node windows — the per-call oracle scans the whole
    // list per link per attempt, the compiled plan binary-searches its
    // per-link buckets), drop, duplication and retries. The first two
    // link windows and the node-13 window are the faultsweep harness's
    // fixed outages; the rest are seeded.
    let (mut link_outages, mut node_outages) = fixed_outages(&mesh);
    let (seeded_links, seeded_nodes) = seeded_outages(&mesh, 0, 46, 5);
    link_outages.extend(seeded_links);
    node_outages.extend(seeded_nodes);
    let plan = lossy_plan(42, (link_outages, node_outages));

    let rep_counts: &[usize] = if smoke { &[4, 8] } else { &[16, 64, 256] };
    let timing_reps = if smoke { 3 } else { 7 };
    // The timed sections track the historical phased-barrier path; the
    // overlapped schedules get their own identity gates below and their
    // own artifact (`faultsched`).
    let sched = SchedulePolicy::default();

    eprintln!(
        "replay: paper plan on 8x4 mesh, {} phases, {messages} messages, drop 0.20 dup 0.02",
        phases.len()
    );
    let mut engine = FaultSim::new(&mesh, &phases, &plan);
    // The oracle, one full run per seed under `sched` and `ckpt`.
    let oracle = |plan: &FaultPlan,
                  seeds: &[u64],
                  sched: SchedulePolicy,
                  ckpt: Option<&CheckpointPolicy>|
     -> Vec<FaultReport> {
        seeds
            .iter()
            .map(|&seed| {
                let seeded = FaultPlan {
                    seed,
                    ..plan.clone()
                };
                reference::simulate(&mesh, &phases, &seeded, sched, ckpt)
            })
            .collect()
    };
    let mut replay_rows = Vec::new();
    for &n in rep_counts {
        let seeds: Vec<u64> = (0..n)
            .map(|r| replication_seed(plan.seed, r as u64))
            .collect();
        // Bit-identity gate before any timing: every compiled replay must
        // reproduce the oracle's full report, seed for seed.
        assert_eq!(
            engine.replay_faulty(&seeds, sched),
            oracle(&plan, &seeds, sched, None),
            "compiled replay diverged from the oracle at {n} replications"
        );
        let oracle_ns = median_ns(timing_reps, 1, || oracle(&plan, &seeds, sched, None));
        let compiled_ns = median_ns(timing_reps, 1, || engine.replay_faulty(&seeds, sched));
        let speedup = oracle_ns as f64 / compiled_ns.max(1) as f64;
        assert!(speedup > 0.0);
        // Wall-clock floor: the compiled engine has measured 4–6.5x over
        // the oracle across hosts (both sides single-threaded; the ratio
        // swings with the box's memory subsystem and background load, so
        // the floor carries headroom below the worst measurement).
        if !smoke && n >= 64 {
            assert!(
                speedup >= 3.0,
                "compiled replay must be >=3x the oracle at {n} replications, got {speedup:.2}x"
            );
        }
        eprintln!(
            "  {n:>4} replications  oracle {oracle_ns:>12} ns   compiled {compiled_ns:>10} ns   x{speedup:.1}"
        );
        replay_rows.push(ReplayRow {
            replications: n,
            oracle_ns,
            compiled_ns,
        });
    }

    // Overlapped-faulty gate (runs in smoke too): the compiled engine
    // must reproduce the oracle bit for bit under the overlapped and
    // adaptive schedules as well.
    let gate_seeds: Vec<u64> = (0..4).map(|r| replication_seed(plan.seed, r)).collect();
    for gate in [
        SchedulePolicy::Fixed(ScheduleMode::overlapped()),
        SchedulePolicy::Adaptive {
            inflation_threshold: 1.5,
        },
    ] {
        let want = oracle(&plan, &gate_seeds, gate, None);
        assert_eq!(
            engine.replay_faulty(&gate_seeds, gate),
            want,
            "compiled overlapped-faulty replay diverged from the oracle under {}",
            gate.label()
        );
        for r in &want {
            assert_eq!(r.delivered, r.messages, "{}", gate.label());
        }
        eprintln!("overlapped-faulty gate ({}): ok", gate.label());
    }

    // Checkpoint/rollback path with permanent deaths on top of the lossy
    // transport.
    let policy = CheckpointPolicy::default();
    let recover_plan = FaultPlan {
        node_deaths: mttf_death_schedule(mesh.nodes(), healthy / 3, healthy, 0xdead),
        detection_latency: 5_000,
        ..plan.clone()
    };
    let n = if smoke { 8usize } else { 64 };
    let seeds: Vec<u64> = (0..n)
        .map(|r| replication_seed(plan.seed, r as u64))
        .collect();
    engine.set_plan(&recover_plan);
    assert_eq!(
        engine.replay_recovering(&policy, &seeds, sched),
        oracle(&recover_plan, &seeds, sched, Some(&policy)),
        "compiled recovering replay diverged from the oracle"
    );
    // Overlapped-recovering gate (runs in smoke too): rollback + replay
    // under the overlapped schedule, compiled vs oracle, exactly once.
    {
        let gate = SchedulePolicy::Fixed(ScheduleMode::overlapped());
        let want = oracle(&recover_plan, &gate_seeds, gate, Some(&policy));
        assert_eq!(
            engine.replay_recovering(&policy, &gate_seeds, gate),
            want,
            "compiled overlapped-recovering replay diverged from the oracle"
        );
        for r in &want {
            assert!(r.recovery.all_recovered(), "{:?}", r.recovery);
            assert_eq!(r.delivered, r.messages, "overlapped recovery exactly-once");
        }
        eprintln!("overlapped-recovering gate ({}): ok", gate.label());
    }
    let rec_oracle_ns = median_ns(timing_reps, 1, || {
        oracle(&recover_plan, &seeds, sched, Some(&policy))
    });
    let rec_compiled_ns = median_ns(timing_reps, 1, || {
        engine.replay_recovering(&policy, &seeds, sched)
    });
    eprintln!(
        "recovering: {n} replications  oracle {rec_oracle_ns} ns   compiled {rec_compiled_ns} ns   x{:.1}",
        rec_oracle_ns as f64 / rec_compiled_ns.max(1) as f64
    );

    // Parallel efficiency of the Monte Carlo sweep driver: a bank of
    // plans (distinct seeds, same faults), replications per plan.
    let bank: Vec<FaultPlan> = (0..8)
        .map(|i| FaultPlan {
            seed: 42 + i,
            ..plan.clone()
        })
        .collect();
    let par_reps = if smoke { 4 } else { 32 };
    let host = host_threads();
    let sweep = |w| par_fault_sweep(&mesh, &phases, &bank, None, par_reps, w, sched);
    // Worker-count-independence gate before timing — on *every* host,
    // including single-core CI (the work-stealing pool still runs real
    // worker threads there; only the timing is meaningless).
    let serial = sweep(1).0;
    for w in [2, 4, 8] {
        assert_eq!(
            sweep(w).0,
            serial,
            "parallel sweep diverged from serial at {w} workers"
        );
    }
    let parallel = Scaling::measure(&[1, 2, 4, 8], timing_reps, |w| sweep(w).1);
    if !smoke {
        parallel.gate_efficiency("parallel");
    }

    let mut doc = JsonDoc::new();
    doc.field("bench", "faultperf")
        .field("mesh", raw("[8, 4]"))
        .field("phases", phases.len())
        .field("messages", messages)
        .field("healthy_makespan_ns", healthy)
        .field("drop_prob", fixed(0.2, 2))
        .field("dup_prob", fixed(0.02, 2))
        .field("host_threads", host)
        .field("schedule_policy", sched.label())
        .field("smoke", smoke);
    let mode_label = sched.healthy_mode().label();
    doc.rows("replay", &replay_rows, |r| {
        vec![
            ("schedule_mode", Val::from(mode_label)),
            ("policy", Val::from(sched.label())),
            ("replications", Val::from(r.replications)),
            ("oracle_ns", Val::from(r.oracle_ns)),
            ("compiled_ns", Val::from(r.compiled_ns)),
            (
                "speedup",
                fixed(r.oracle_ns as f64 / r.compiled_ns.max(1) as f64, 2),
            ),
        ]
    });
    doc.rows("recovering", &[(n, rec_oracle_ns, rec_compiled_ns)], |r| {
        vec![
            ("schedule_mode", Val::from(mode_label)),
            ("policy", Val::from(sched.label())),
            ("replications", Val::from(r.0)),
            ("oracle_ns", Val::from(r.1)),
            ("compiled_ns", Val::from(r.2)),
            ("speedup", fixed(r.1 as f64 / r.2.max(1) as f64, 2)),
        ]
    });
    doc.rows("parallel", &parallel.rows, |r| {
        let mut cols = vec![
            ("schedule_mode", Val::from(mode_label)),
            ("policy", Val::from(sched.label())),
            ("plans", Val::from(bank.len())),
            ("replications", Val::from(par_reps)),
        ];
        cols.extend(parallel.columns(r));
        cols
    });
    doc.write(&out);
}
