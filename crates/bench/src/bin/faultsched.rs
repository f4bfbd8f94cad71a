//! Faulty execution under phased, overlapped and adaptive schedules,
//! written as a machine-readable baseline to `BENCH_faultsched.json`.
//!
//! Workloads are the multi-factor kernel-zoo decompositions of
//! `schedule_baseline` (each unimodular dataflow matrix decomposed into
//! its unirow factor chain, one affine phase per factor) plus the
//! paper's motivating-example plan, folded onto the 8×4 Paragon mesh.
//! Every workload runs through the compiled fault engine
//! ([`rescomm_machine::FaultSim`]) under a drop/duplication fault plan
//! with retries, replayed over [`replication_seed`]-derived seeds under
//! each [`SchedulePolicy`]: fixed phased barriers, fixed overlap (both
//! orders) and adaptive degradation. Every simulated quantity is
//! deterministic, so the committed artifact is byte-stable across hosts.
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin faultsched [--out PATH | --check PATH]
//! ```
//!
//! Gates (checked before anything is written, also on a gate-only pass
//! at 48² with 4 replications that adds no artifact row: grouped(3)
//! divides 48 but not 256):
//!
//! * (a) **zero-fault identity per mode** — a zero-fault plan through
//!   the fault engine is bit-identical in makespan to the fault-free
//!   scheduler under every policy's healthy mode, with zero downgrades;
//! * (b) **overlap helps under faults** — overlapped-faulty mean
//!   makespan ≤ phased-faulty mean makespan at equal seeds on at least
//!   one multi-factor chain (drop-only plans keep the per-message RNG
//!   draw sequence identical across modes, so the comparison is
//!   schedule-for-schedule);
//! * (c) **adaptive dominance** — on every row the adaptive policy's
//!   mean makespan is never worse than the worse of the two fixed
//!   modes it arbitrates between;
//! * (d) **oracle bit-identity** — the compiled replay reproduces the
//!   fault oracle ([`rescomm_machine::reference::simulate`]) on
//!   replication 0 under every policy;
//! * (e) **delivery** — with retries enabled, every replication of
//!   every row delivers every message.

use rescomm_bench::harness::Args;
use rescomm_bench::workload::{host_threads, lossy_plan, paragon_mesh, zoo_workloads};
use rescomm_json::{fixed, raw, JsonDoc, Val};
use rescomm_machine::{
    reference, replication_seed, FaultPlan, FaultReport, FaultSim, OverlapOrder, PhaseSim,
    ScheduleMode, SchedulePolicy,
};

/// The multi-factor subset of the kernel zoo — chains where phases can
/// actually pipeline, plus one single-factor control — and the paper
/// plan.
const WORKLOADS: [&str; 5] = [
    "U(3)",
    "coupled[[1,3],[2,7]]",
    "fib[[1,1],[1,2]]",
    "rot90",
    "paper_plan",
];

/// Element size of every message, in bytes.
const BYTES: u64 = 64;

/// One (workload, policy) row of the artifact.
struct Row {
    workload: &'static str,
    factors: usize,
    multi_factor: bool,
    messages: usize,
    policy: SchedulePolicy,
    healthy_ns: u64,
    mean_makespan_ns: f64,
    max_makespan_ns: u64,
    retries: u64,
    downgrades: u64,
}

impl Row {
    fn inflation(&self) -> f64 {
        if self.healthy_ns == 0 {
            return 1.0;
        }
        self.mean_makespan_ns / self.healthy_ns as f64
    }
}

fn mean(reports: &[FaultReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(|r| r.makespan as f64).sum::<f64>() / reports.len() as f64
}

/// Every row of the study at `side`² over `replications` seeds, with
/// gates (a)–(e) checked on the way.
fn run(side: usize, replications: usize) -> Vec<Row> {
    let mesh = paragon_mesh();
    let mut sim = PhaseSim::new(mesh.clone());
    // Drop-only (plus duplication) faults: no outage windows, so the
    // per-message RNG draw sequence is identical under every schedule
    // mode and gate (b) compares schedules, not fault timings.
    let fault = lossy_plan(42, Default::default());
    let seeds: Vec<u64> = (0..replications)
        .map(|r| replication_seed(fault.seed, r as u64))
        .collect();

    let policies = [
        SchedulePolicy::Fixed(ScheduleMode::Phased),
        SchedulePolicy::Fixed(ScheduleMode::overlapped()),
        SchedulePolicy::Fixed(ScheduleMode::Overlapped(OverlapOrder::LongestFirst)),
        SchedulePolicy::Adaptive {
            inflation_threshold: 1.5,
        },
    ];

    eprintln!("faultsched: {side}² grids on 8x4, drop 0.20 dup 0.02, {replications} replications");
    let mut rows = Vec::new();
    let mut overlap_beats_phased_somewhere = false;
    let workloads = zoo_workloads(&mesh, side, BYTES);
    for w in workloads.iter().filter(|w| WORKLOADS.contains(&w.name)) {
        let messages: usize = w.phases.iter().map(Vec::len).sum();
        let mut engine = FaultSim::new(&mesh, &w.phases, &fault);
        let mut per_policy = Vec::new();
        for sched in policies {
            let healthy = sim.simulate_phases_mode(&w.phases, sched.healthy_mode());
            // Gate (a): zero-fault identity under this policy.
            let zero = FaultPlan {
                seed: fault.seed,
                ..FaultPlan::none()
            };
            let z = FaultSim::new(&mesh, &w.phases, &zero).replay_faulty(&[zero.seed], sched)[0];
            assert_eq!(
                z.makespan,
                healthy,
                "{}: zero-fault {} diverged from the fault-free scheduler",
                w.name,
                sched.label()
            );
            assert_eq!(z.downgrades, 0, "{}: zero-fault run degraded", w.name);

            let reports = engine.replay_faulty(&seeds, sched);
            // Gate (d): replication 0 is the fault oracle's run.
            assert_eq!(
                reports[0],
                reference::simulate(&mesh, &w.phases, &fault, sched, None),
                "{}: compiled replay diverged from the oracle under {}",
                w.name,
                sched.label()
            );
            // Gate (e): retries are on, so every message lands.
            for r in &reports {
                assert_eq!(
                    r.delivered,
                    r.messages,
                    "{} under {}",
                    w.name,
                    sched.label()
                );
            }
            let row = Row {
                workload: w.name,
                factors: w.factors,
                multi_factor: w.multi_factor,
                messages,
                policy: sched,
                healthy_ns: healthy,
                mean_makespan_ns: mean(&reports),
                max_makespan_ns: reports.iter().map(|r| r.makespan).max().unwrap_or(0),
                retries: reports.iter().map(|r| r.retries).sum(),
                downgrades: reports.iter().map(|r| r.downgrades).sum(),
            };
            eprintln!(
                "  {:<22} {:<20} mean {:>12.0} ns  x{:.2}  retries {:>5}  downgrades {}",
                row.workload,
                sched.label(),
                row.mean_makespan_ns,
                row.inflation(),
                row.retries,
                row.downgrades
            );
            per_policy.push(row);
        }
        // Gate (b) bookkeeping: overlapped vs phased at equal seeds.
        let phased_mean = per_policy[0].mean_makespan_ns;
        let over_mean = per_policy[1].mean_makespan_ns;
        if w.multi_factor && over_mean <= phased_mean {
            overlap_beats_phased_somewhere = true;
        }
        // Gate (c): adaptive never worse than the worse fixed mode it
        // arbitrates between (phased vs default overlap).
        let adaptive_mean = per_policy[3].mean_makespan_ns;
        assert!(
            adaptive_mean <= phased_mean.max(over_mean) + 1e-9,
            "{}: adaptive mean {adaptive_mean:.0} ns worse than both fixed modes \
             (phased {phased_mean:.0}, overlapped {over_mean:.0})",
            w.name
        );
        rows.extend(per_policy);
    }
    assert!(
        overlap_beats_phased_somewhere,
        "overlapped-faulty beat phased-faulty on no multi-factor chain"
    );
    eprintln!("gates ok: zero-fault identity, overlap win, adaptive dominance, oracle identity");
    rows
}

fn main() {
    let args = Args::parse("BENCH_faultsched.json");
    let (side, replications) = (256usize, 16usize);
    run(48, 4);
    let rows = run(side, replications);

    let mut doc = JsonDoc::new();
    doc.field("bench", "faultsched")
        .field("mesh", raw("[8, 4]"))
        .field("dist", "grouped(3) x block")
        .field("grid", format!("{side}x{side}"))
        .field("elem_bytes", BYTES)
        .field("drop_prob", fixed(0.2, 2))
        .field("dup_prob", fixed(0.02, 2))
        .field("replications", replications)
        .field("host_threads", host_threads());
    doc.rows("faultsched", &rows, |r| {
        vec![
            ("workload", Val::from(r.workload)),
            ("phases", Val::from(r.factors)),
            ("multi_factor", Val::from(r.multi_factor)),
            ("messages", Val::from(r.messages)),
            ("schedule_mode", Val::from(r.policy.healthy_mode().label())),
            ("policy", Val::from(r.policy.label())),
            ("healthy_makespan_ns", Val::from(r.healthy_ns)),
            ("mean_makespan_ns", fixed(r.mean_makespan_ns, 0)),
            ("max_makespan_ns", Val::from(r.max_makespan_ns)),
            ("inflation", fixed(r.inflation(), 3)),
            ("retries", Val::from(r.retries)),
            ("downgrades", Val::from(r.downgrades)),
        ]
    });
    args.emit(&doc);
}
