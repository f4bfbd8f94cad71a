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
//! * **lanes** — the same paper plan under drops alone
//!   (`FaultPlan::with_drop(42, 0.05)`) and the overlapped schedule, at
//!   64 replications: a per-seed [`FaultSim::run_faulty`] loop vs
//!   [`FaultSim::replay_faulty`], which advances up to
//!   [`rescomm_machine::LANES`] seeds through one pass when the plan has
//!   no outages or deaths. Both sides are first gated against the
//!   oracle; no speedup floor.
//! * **recovering** — the same comparison through the
//!   checkpoint/rollback path with permanent node deaths.
//!
//! How the parallel sweep scales is measured once, by `scaling_baseline`
//! (`BENCH_scaling.json`).
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin fault_baseline [--out PATH | --check PATH]
//! ```
//!
//! Every timed pair is first checked for **bit-identity** (full
//! [`rescomm_machine::FaultReport`] per seed), so the numbers can't
//! drift from a wrong answer going fast.

use rescomm::{build_plan, map_nest, MappingOptions};
use rescomm_bench::harness::{median_ns, Args};
use rescomm_bench::workload::{
    fixed_outages, host_threads, lossy_plan, paragon_mesh, seeded_outages,
};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_json::{fixed, raw, JsonDoc, Val};
use rescomm_loopnest::examples;
use rescomm_machine::{
    mttf_death_schedule, reference, replication_seed, CheckpointPolicy, FaultPlan, FaultReport,
    FaultSim, PMsg, ScheduleMode, SchedulePolicy, LANES,
};

struct ReplayRow {
    replications: usize,
    oracle_ns: u64,
    compiled_ns: u64,
}

fn main() {
    let args = Args::parse("BENCH_faultperf.json");

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

    let rep_counts = [16usize, 64, 256];
    let timing_reps = 7;
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
    for n in rep_counts {
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
        if n >= 64 {
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

    // Overlapped-faulty gate: the compiled engine
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

    // Lane path: a drop-only plan under the overlapped schedule, where
    // every seed visits the messages in the same order. Gated against
    // the oracle; timed without a floor.
    let lane_plan = FaultPlan::with_drop(42, 0.05);
    let lane_sched = SchedulePolicy::Fixed(ScheduleMode::overlapped());
    let lane_seeds: Vec<u64> = (0..64)
        .map(|r| replication_seed(lane_plan.seed, r))
        .collect();
    let mut lane_engine = FaultSim::new(&mesh, &phases, &lane_plan);
    let per_seed = |engine: &mut FaultSim| -> Vec<FaultReport> {
        lane_seeds
            .iter()
            .map(|&s| engine.run_faulty(s, lane_sched))
            .collect()
    };
    let want = oracle(&lane_plan, &lane_seeds, lane_sched, None);
    assert_eq!(
        per_seed(&mut lane_engine),
        want,
        "per-seed replay diverged from the oracle"
    );
    assert_eq!(
        lane_engine.replay_faulty(&lane_seeds, lane_sched),
        want,
        "lane replay diverged from the oracle"
    );
    let per_seed_ns = median_ns(timing_reps, 1, || per_seed(&mut lane_engine));
    let lanes_ns = median_ns(timing_reps, 1, || {
        lane_engine.replay_faulty(&lane_seeds, lane_sched)
    });
    eprintln!(
        "lanes: {} replications, drop 0.05, {}  per-seed {per_seed_ns} ns   lanes {lanes_ns} ns   x{:.1}",
        lane_seeds.len(),
        lane_sched.label(),
        per_seed_ns as f64 / lanes_ns.max(1) as f64
    );

    // Checkpoint/rollback path with permanent deaths on top of the lossy
    // transport.
    let policy = CheckpointPolicy::default();
    let recover_plan = FaultPlan {
        node_deaths: mttf_death_schedule(mesh.nodes(), healthy / 3, healthy, 0xdead),
        detection_latency: 5_000,
        ..plan.clone()
    };
    let n = 64usize;
    let seeds: Vec<u64> = (0..n)
        .map(|r| replication_seed(plan.seed, r as u64))
        .collect();
    engine.set_plan(&recover_plan);
    assert_eq!(
        engine.replay_recovering(&policy, &seeds, sched),
        oracle(&recover_plan, &seeds, sched, Some(&policy)),
        "compiled recovering replay diverged from the oracle"
    );
    // Overlapped-recovering gate: rollback + replay
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

    let mut doc = JsonDoc::new();
    doc.field("bench", "faultperf")
        .field("mesh", raw("[8, 4]"))
        .field("phases", phases.len())
        .field("messages", messages)
        .field("healthy_makespan_ns", healthy)
        .field("drop_prob", fixed(0.2, 2))
        .field("dup_prob", fixed(0.02, 2))
        .field("host_threads", host_threads())
        .field("schedule_policy", sched.label());
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
    doc.rows("lanes", &[(per_seed_ns, lanes_ns)], |r| {
        vec![
            (
                "schedule_mode",
                Val::from(lane_sched.healthy_mode().label()),
            ),
            ("policy", Val::from(lane_sched.label())),
            ("drop_prob", fixed(lane_plan.drop_prob, 2)),
            ("replications", Val::from(lane_seeds.len())),
            ("lanes", Val::from(LANES)),
            ("per_seed_ns", Val::from(r.0)),
            ("lanes_ns", Val::from(r.1)),
            ("speedup", fixed(r.0 as f64 / r.1.max(1) as f64, 2)),
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
    args.emit(&doc);
}
