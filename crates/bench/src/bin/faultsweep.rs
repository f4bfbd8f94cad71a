//! Fault-injection sweep over the mesh scheduler and the fat-tree
//! collectives; writes `BENCH_faults.json` with delivered-fraction and
//! makespan-inflation curves.
//!
//! Three sections:
//!
//! * **drop sweep** — drop probabilities × retry on/off on an 8×4 mesh
//!   with link and node outage windows in force. With retries enabled the
//!   delivery-guarantee invariant (exactly-once, 100% delivered) is
//!   asserted at every point; without them the delivered fraction decays
//!   and the lost messages are accounted for.
//! * **zero-fault gate** — a zero-fault plan must be bit-identical in
//!   makespan to the unfaulted scheduler.
//! * **fat-tree degraded mode** — hardware control-network collectives vs
//!   the software binomial fallback used when `ctrl_outage` is set.
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin faultsweep [--out PATH | --check PATH]
//! ```
//!
//! Every sweep point is evaluated twice — once through the fault oracle
//! ([`rescomm_machine::reference::simulate`]) and once through the
//! compiled engine ([`rescomm_machine::FaultSim`]) — and the two must
//! agree bit for bit,
//! so a nondeterministic fault schedule or a compiled-plan divergence
//! fails the run instead of polluting the curves. On top of the classic
//! single-seed columns, every sweep point carries Monte Carlo statistics
//! over [`rescomm_machine::replication_seed`]-derived replications
//! (replication 0 **is** the classic run), computed with
//! [`rescomm_machine::par_fault_sweep`] and asserted bit-identical to a
//! serial evaluation.

use rescomm_bench::harness::Args;
use rescomm_bench::workload::{
    fixed_outages, host_threads, lossy_plan, paragon_mesh, synth_phases,
};
use rescomm_json::{fixed, raw, JsonDoc, Val};
use rescomm_machine::{
    par_fault_sweep, reference, CostModel, FatTree, FaultPlan, FaultSim, RetryPolicy,
    SchedulePolicy,
};

struct DropRow {
    drop_pct: u32,
    retry: bool,
    delivered_fraction: f64,
    makespan: u64,
    inflation: f64,
    retries: u64,
    reroutes: u64,
    escalations: u64,
    // Monte Carlo statistics over the replications (appended after the
    // classic single-seed columns so the artifact stays diffable).
    mc_makespan_mean: f64,
    mc_makespan_std: f64,
    mc_makespan_min: u64,
    mc_makespan_max: u64,
    mc_inflation: f64,
    mc_delivered_mean: f64,
}

struct DegradedRow {
    bytes: u64,
    hw_ns: u64,
    sw_ns: u64,
}

fn main() {
    let args = Args::parse("BENCH_faults.json");
    let mesh = paragon_mesh();
    let (n_phases, per_phase) = (8, 48);
    let phases = synth_phases(mesh.nodes(), n_phases, per_phase, 0xfa17);
    let healthy = mesh.simulate_phases(&phases);

    let replications = 32;
    let threads = host_threads().max(1);
    eprintln!(
        "drop sweep: 8x4 mesh, {n_phases} phases x {per_phase} msgs, outages in force, \
         {replications} replications"
    );
    // Outage windows held fixed across the sweep; drop and retry vary.
    let points: Vec<(u32, bool)> = [0u32, 5, 10, 20, 40, 80]
        .iter()
        .flat_map(|&d| [(d, true), (d, false)])
        .collect();
    let plans: Vec<FaultPlan> = points
        .iter()
        .map(|&(drop_pct, retry)| FaultPlan {
            drop_prob: f64::from(drop_pct) / 100.0,
            retry: if retry {
                RetryPolicy::default()
            } else {
                RetryPolicy::disabled()
            },
            ..lossy_plan(42, fixed_outages(&mesh))
        })
        .collect();
    let sched = SchedulePolicy::default();
    let sweep = |w| par_fault_sweep(&mesh, &phases, &plans, None, replications, w, sched).0;
    let stats = sweep(threads);
    // Parallel-determinism gate: the sweep must not depend on the
    // thread count.
    assert_eq!(stats, sweep(1), "parallel fault sweep diverged from serial");

    let mut engine = FaultSim::new(&mesh, &phases, &plans[0]);
    let mut rows = Vec::new();
    for ((&(drop_pct, retry), plan), st) in points.iter().zip(&plans).zip(&stats) {
        // The classic single-seed run through the fault oracle …
        let rep = reference::simulate(&mesh, &phases, plan, sched, None);
        // … must be reproduced bit for bit by the compiled engine
        // (replication 0's seed is the plan's own seed).
        engine.set_plan(plan);
        assert_eq!(
            engine.replay_faulty(&[plan.seed], sched)[0],
            rep,
            "compiled engine diverged from the oracle at drop={drop_pct}% retry={retry}"
        );
        assert!(
            st.makespan.min() <= rep.makespan as f64 && rep.makespan as f64 <= st.makespan.max(),
            "replication 0 outside the Monte Carlo envelope at drop={drop_pct}%"
        );
        if retry {
            // The delivery-guarantee invariant, at every sweep point and
            // every replication.
            assert_eq!(
                rep.delivered, rep.messages,
                "delivery guarantee violated at drop={drop_pct}%"
            );
            assert_eq!(rep.lost, 0);
            assert_eq!(st.total.delivered, st.total.messages);
            assert_eq!(st.total.lost, 0);
        } else {
            assert_eq!(rep.delivered + rep.lost, rep.messages);
            assert_eq!(st.total.delivered + st.total.lost, st.total.messages);
        }
        let inflation = rep.makespan as f64 / healthy.max(1) as f64;
        eprintln!(
            "  drop {drop_pct:>2}%  retry {}  delivered {:>6.1}%  makespan {:>12} ns  x{inflation:.2}  mc x{:.2}",
            if retry { "on " } else { "off" },
            rep.delivered_fraction() * 100.0,
            rep.makespan,
            st.inflation(healthy)
        );
        rows.push(DropRow {
            drop_pct,
            retry,
            delivered_fraction: rep.delivered_fraction(),
            makespan: rep.makespan,
            inflation,
            retries: rep.retries,
            reroutes: rep.reroutes,
            escalations: rep.escalations,
            mc_makespan_mean: st.makespan.mean(),
            mc_makespan_std: st.makespan.std_dev(),
            mc_makespan_min: st.makespan.min() as u64,
            mc_makespan_max: st.makespan.max() as u64,
            mc_inflation: st.inflation(healthy),
            mc_delivered_mean: st.delivered.mean(),
        });
    }

    // Zero-fault gate: no faults → bit-identical to the unfaulted engine.
    engine.set_plan(&FaultPlan::none());
    let zero = engine.replay_faulty(&[FaultPlan::none().seed], sched)[0];
    assert_eq!(zero.makespan, healthy, "zero-fault plan must be identical");
    assert_eq!(zero.delivered, zero.messages);
    eprintln!("zero-fault gate: makespan {} ns == healthy", zero.makespan);

    eprintln!("fat-tree degraded mode: hw collectives vs software binomial fallback");
    let ft = FatTree::new(32, 4, CostModel::cm5());
    let degraded_plan = FaultPlan {
        ctrl_outage: true,
        ..FaultPlan::none()
    };
    let mut degraded = Vec::new();
    for bytes in [64u64, 1024, 16384] {
        let hw_ns = ft.broadcast_time(32, bytes, &FaultPlan::none());
        let sw_ns = ft.broadcast_time(32, bytes, &degraded_plan);
        assert!(
            sw_ns >= hw_ns,
            "software fallback cannot beat the control network"
        );
        eprintln!(
            "  {bytes:>5} B  hw {hw_ns:>10} ns   sw {sw_ns:>10} ns   x{:.1}",
            sw_ns as f64 / hw_ns.max(1) as f64
        );
        degraded.push(DegradedRow {
            bytes,
            hw_ns,
            sw_ns,
        });
    }

    let mut doc = JsonDoc::new();
    doc.field("bench", "faults")
        .field("mesh", raw("[8, 4]"))
        .field("phases", n_phases)
        .field("msgs_per_phase", per_phase)
        .field("healthy_makespan_ns", healthy)
        .field("dup_prob", fixed(0.02, 2))
        .field("replications", replications)
        .field("host_threads", host_threads());
    doc.rows("drop_sweep", &rows, |r| {
        vec![
            ("drop_pct", Val::from(r.drop_pct)),
            ("retry", Val::from(r.retry)),
            ("delivered_fraction", fixed(r.delivered_fraction, 4)),
            ("makespan_ns", Val::from(r.makespan)),
            ("inflation", fixed(r.inflation, 3)),
            ("retries", Val::from(r.retries)),
            ("reroutes", Val::from(r.reroutes)),
            ("escalations", Val::from(r.escalations)),
            ("mc_makespan_mean_ns", fixed(r.mc_makespan_mean, 0)),
            ("mc_makespan_std_ns", fixed(r.mc_makespan_std, 0)),
            ("mc_makespan_min_ns", Val::from(r.mc_makespan_min)),
            ("mc_makespan_max_ns", Val::from(r.mc_makespan_max)),
            ("mc_inflation", fixed(r.mc_inflation, 3)),
            ("mc_delivered_mean", fixed(r.mc_delivered_mean, 4)),
        ]
    });
    doc.rows("fattree_degraded", &degraded, |r| {
        vec![
            ("bytes", Val::from(r.bytes)),
            ("hw_broadcast_ns", Val::from(r.hw_ns)),
            ("sw_broadcast_ns", Val::from(r.sw_ns)),
            ("slowdown", fixed(r.sw_ns as f64 / r.hw_ns.max(1) as f64, 2)),
        ]
    });
    args.emit(&doc);
}
