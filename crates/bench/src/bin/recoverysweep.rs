//! Checkpoint/restart sweep over the mesh scheduler with permanent node
//! deaths; writes `BENCH_recovery.json` with wall-clock-inflation and
//! lost-work curves.
//!
//! Three sections:
//!
//! * **MTTF sweep** — node deaths injected at a fixed mean-time-to-failure
//!   (as a fraction of the healthy makespan), recovered via rollback to
//!   the newest usable checkpoint and survivor folding. At every point the
//!   run asserts exactly-once recovery (`detected == deaths`, every
//!   message delivered, zero black holes) and bit-exact determinism.
//! * **checkpoint-interval sweep** — a fixed death plan under intervals
//!   from every-phase to almost-never: more checkpoints mean more
//!   overhead but strictly less lost work on rollback.
//! * **zero-death gate** — a death-free plan through the recovering
//!   driver must be bit-identical to the unfaulted scheduler: no
//!   rollbacks, no folds, same makespan.
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin recoverysweep [--out PATH | --check PATH]
//! ```
//!
//! Every MTTF point is evaluated through both the fault oracle
//! ([`rescomm_machine::reference::simulate`]) and the compiled engine
//! ([`rescomm_machine::FaultSim`]), which must agree bit for bit, and carries Monte Carlo statistics over
//! [`rescomm_machine::replication_seed`]-derived replications computed
//! with [`rescomm_machine::par_fault_sweep`] under the checkpoint
//! policy (replication 0 **is**
//! the classic run; the parallel sweep is asserted bit-identical to a
//! serial one).
//!
//! Every gate also runs on a smaller 8×24 phase set with 8 replications
//! first, a gate-only pass that adds nothing to the artifact.

use rescomm_bench::harness::Args;
use rescomm_bench::workload::{host_threads, paragon_mesh, synth_phases};
use rescomm_json::{fixed, raw, JsonDoc, Val};
use rescomm_machine::{
    mttf_death_schedule, par_fault_sweep, reference, CheckpointPolicy, FaultPlan, FaultSim,
    SchedulePolicy,
};

struct MttfRow {
    mttf_pct: u32,
    deaths: usize,
    wall_clock_ns: u64,
    inflation: f64,
    lost_work_ns: u64,
    lost_work_fraction: f64,
    rollbacks: usize,
    replayed_phases: usize,
    checkpoint_overhead_ns: u64,
    // Monte Carlo statistics over the replications (appended after the
    // classic single-seed columns so the artifact stays diffable).
    mc_wall_clock_mean: f64,
    mc_wall_clock_std: f64,
    mc_inflation: f64,
    mc_rollbacks_total: u64,
}

struct IntervalRow {
    interval: usize,
    checkpoints: usize,
    checkpoint_overhead_ns: u64,
    lost_work_ns: u64,
    wall_clock_ns: u64,
}

/// The zero-death gate, the MTTF sweep and the checkpoint-interval
/// sweep over `n_phases × per_phase` messages, every gate checked on the
/// way: the healthy makespan and the rows of both sweeps.
fn study(
    n_phases: usize,
    per_phase: usize,
    replications: usize,
) -> (u64, Vec<MttfRow>, Vec<IntervalRow>) {
    let mesh = paragon_mesh();
    let phases = synth_phases(mesh.nodes(), n_phases, per_phase, 0x4ec0);
    let healthy = mesh.simulate_phases(&phases);
    let policy = CheckpointPolicy::default();
    // This artifact tracks the historical phased-barrier path; the
    // overlapped/adaptive schedules are gated in `faultsched`. The
    // policy is recorded in every row so the artifacts stay comparable.
    let sched = SchedulePolicy::default();

    // Zero-death gate first: the recovering driver on a death-free plan
    // must match the unfaulted scheduler bit for bit.
    let none = FaultPlan::none();
    let zero = FaultSim::new(&mesh, &phases, &none).run_recovering(&policy, none.seed, sched);
    assert_eq!(zero.makespan, healthy, "zero-death run must be identical");
    assert_eq!(zero.delivered, zero.messages);
    assert_eq!(zero.recovery.rollbacks, 0);
    assert_eq!(zero.recovery.folded_nodes, 0);
    eprintln!("zero-death gate: makespan {} ns == healthy", zero.makespan);

    let threads = host_threads().max(1);
    eprintln!(
        "mttf sweep: 8x4 mesh, {n_phases} phases x {per_phase} msgs, {replications} replications"
    );
    let points = [10u32, 20, 40, 80];
    let plans: Vec<FaultPlan> = points
        .iter()
        .map(|&mttf_pct| {
            let mttf_ns = healthy * u64::from(mttf_pct) / 100;
            FaultPlan {
                seed: 42,
                node_deaths: mttf_death_schedule(mesh.nodes(), mttf_ns, healthy, 0xdead),
                detection_latency: 5_000,
                ..FaultPlan::none()
            }
        })
        .collect();
    let ckpt = Some(&policy);
    let sweep = |w| par_fault_sweep(&mesh, &phases, &plans, ckpt, replications, w, sched).0;
    let stats = sweep(threads);
    // Parallel-determinism gate: the sweep must not depend on the
    // thread count.
    assert_eq!(
        stats,
        sweep(1),
        "parallel recovery sweep diverged from serial"
    );

    let mut engine = FaultSim::new(&mesh, &phases, &plans[0]);
    let mut mttf_rows = Vec::new();
    for ((&mttf_pct, plan), st) in points.iter().zip(&plans).zip(&stats) {
        // The classic single-seed run through the fault oracle …
        let rep = reference::simulate(&mesh, &phases, plan, sched, Some(&policy));
        // … must be reproduced bit for bit by the compiled engine
        // (replication 0's seed is the plan's own seed).
        engine.set_plan(plan);
        assert_eq!(
            engine.run_recovering(&policy, plan.seed, sched),
            rep,
            "compiled engine diverged from the oracle at mttf={mttf_pct}%"
        );
        // Exactly-once gate: every death detected and recovered exactly
        // once, every message delivered to a live node, nothing lost —
        // across every replication, not just the classic seed.
        assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        assert!(
            rep.recovery.deaths >= 1,
            "mttf={mttf_pct}%: no death struck"
        );
        assert_eq!(rep.recovery.folded_nodes, rep.recovery.detected);
        assert_eq!(rep.delivered, rep.messages, "mttf={mttf_pct}%");
        assert_eq!(rep.black_holes, 0);
        assert_eq!(st.total.delivered, st.total.messages, "mttf={mttf_pct}%");
        assert_eq!(st.total.black_holes, 0);
        assert_eq!(st.total.recovery.folded_nodes, st.total.recovery.detected);
        let wall = rep.wall_clock_ns();
        let inflation = wall as f64 / healthy.max(1) as f64;
        let lost_frac = rep.recovery.lost_work_ns as f64 / wall.max(1) as f64;
        eprintln!(
            "  mttf {mttf_pct:>3}%  deaths {}  wall {wall:>12} ns  x{inflation:.2}  lost {:>5.1}%  rollbacks {}  mc x{:.2}",
            rep.recovery.deaths,
            lost_frac * 100.0,
            rep.recovery.rollbacks,
            st.wall_clock.mean() / healthy.max(1) as f64
        );
        mttf_rows.push(MttfRow {
            mttf_pct,
            deaths: rep.recovery.deaths,
            wall_clock_ns: wall,
            inflation,
            lost_work_ns: rep.recovery.lost_work_ns,
            lost_work_fraction: lost_frac,
            rollbacks: rep.recovery.rollbacks,
            replayed_phases: rep.recovery.replayed_phases,
            checkpoint_overhead_ns: rep.recovery.checkpoint_overhead_ns,
            mc_wall_clock_mean: st.wall_clock.mean(),
            mc_wall_clock_std: st.wall_clock.std_dev(),
            mc_inflation: st.wall_clock.mean() / healthy.max(1) as f64,
            mc_rollbacks_total: st.total.recovery.rollbacks as u64,
        });
    }

    eprintln!("checkpoint-interval sweep: fixed death plan");
    let fixed_plan = FaultPlan {
        seed: 42,
        node_deaths: mttf_death_schedule(mesh.nodes(), healthy / 4, healthy, 0xdead),
        detection_latency: 5_000,
        ..FaultPlan::none()
    };
    let mut interval_engine = FaultSim::new(&mesh, &phases, &fixed_plan);
    let mut interval_rows = Vec::new();
    for interval in [1usize, 2, 4, 8, 16] {
        let p = CheckpointPolicy {
            interval,
            ring: 32,
            ..CheckpointPolicy::default()
        };
        let rep = interval_engine.run_recovering(&p, fixed_plan.seed, sched);
        assert!(rep.recovery.all_recovered(), "interval={interval}");
        assert_eq!(rep.delivered, rep.messages);
        eprintln!(
            "  interval {interval:>2}  checkpoints {:>3}  overhead {:>9} ns  lost {:>10} ns",
            rep.recovery.checkpoints,
            rep.recovery.checkpoint_overhead_ns,
            rep.recovery.lost_work_ns
        );
        interval_rows.push(IntervalRow {
            interval,
            checkpoints: rep.recovery.checkpoints,
            checkpoint_overhead_ns: rep.recovery.checkpoint_overhead_ns,
            lost_work_ns: rep.recovery.lost_work_ns,
            wall_clock_ns: rep.wall_clock_ns(),
        });
    }
    // Tighter checkpointing must not lose more work than sparser.
    for w in interval_rows.windows(2) {
        assert!(
            w[0].lost_work_ns <= w[1].lost_work_ns,
            "lost work must grow with the checkpoint interval"
        );
        assert!(w[0].checkpoints >= w[1].checkpoints);
    }
    (healthy, mttf_rows, interval_rows)
}

fn main() {
    let args = Args::parse("BENCH_recovery.json");
    let (n_phases, per_phase, replications) = (24, 48, 32);
    study(8, 24, 8);
    let (healthy, mttf_rows, interval_rows) = study(n_phases, per_phase, replications);
    let sched = SchedulePolicy::default();

    let mut doc = JsonDoc::new();
    doc.field("bench", "recovery")
        .field("mesh", raw("[8, 4]"))
        .field("phases", n_phases)
        .field("msgs_per_phase", per_phase)
        .field("healthy_makespan_ns", healthy)
        .field("detection_latency_ns", 5000u64)
        .field("replications", replications)
        .field("schedule_policy", sched.label())
        .field("host_threads", host_threads());
    let mode_label = sched.healthy_mode().label();
    doc.rows("mttf_sweep", &mttf_rows, |r| {
        vec![
            ("schedule_mode", Val::from(mode_label)),
            ("policy", Val::from(sched.label())),
            ("mttf_pct", Val::from(r.mttf_pct)),
            ("deaths", Val::from(r.deaths)),
            ("wall_clock_ns", Val::from(r.wall_clock_ns)),
            ("inflation", fixed(r.inflation, 3)),
            ("lost_work_ns", Val::from(r.lost_work_ns)),
            ("lost_work_fraction", fixed(r.lost_work_fraction, 4)),
            ("rollbacks", Val::from(r.rollbacks)),
            ("replayed_phases", Val::from(r.replayed_phases)),
            (
                "checkpoint_overhead_ns",
                Val::from(r.checkpoint_overhead_ns),
            ),
            ("mc_wall_clock_mean_ns", fixed(r.mc_wall_clock_mean, 0)),
            ("mc_wall_clock_std_ns", fixed(r.mc_wall_clock_std, 0)),
            ("mc_inflation", fixed(r.mc_inflation, 3)),
            ("mc_rollbacks_total", Val::from(r.mc_rollbacks_total)),
        ]
    });
    doc.rows("interval_sweep", &interval_rows, |r| {
        vec![
            ("schedule_mode", Val::from(mode_label)),
            ("policy", Val::from(sched.label())),
            ("interval", Val::from(r.interval)),
            ("checkpoints", Val::from(r.checkpoints)),
            (
                "checkpoint_overhead_ns",
                Val::from(r.checkpoint_overhead_ns),
            ),
            ("lost_work_ns", Val::from(r.lost_work_ns)),
            ("wall_clock_ns", Val::from(r.wall_clock_ns)),
        ]
    });
    args.emit(&doc);
}
