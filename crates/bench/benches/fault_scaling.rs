//! Criterion bench for the fault/recovery simulator: the oracle
//! ([`rescomm_machine::reference::simulate`], linear plan scans + route
//! walks per call) vs the compiled engine
//! ([`FaultSim`]: plan compiled to sorted interval buckets, phases
//! compiled once to flat route slices), across replication counts and
//! outage-schedule densities.
//!
//! `cargo bench -p rescomm-bench --bench fault_scaling`
//!
//! For machine-readable numbers, speedup ratios and the committed
//! artifact, run the `fault_baseline` binary instead (it writes
//! `BENCH_faultperf.json` and asserts bit-identity before timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescomm_bench::workload::{lossy_plan, paragon_mesh, seeded_outages, synth_phases};
use rescomm_machine::{
    reference, replication_seed, CheckpointPolicy, FaultPlan, FaultSim, NodeDeath, SchedulePolicy,
};
use std::hint::black_box;

fn bench_replay(c: &mut Criterion) {
    let mesh = paragon_mesh();
    let phases = synth_phases(mesh.nodes(), 5, 56, 0xfa17);
    let plan = lossy_plan(42, seeded_outages(&mesh, 0, 48, 0));
    let mut g = c.benchmark_group("fault_replay");
    for n in [4usize, 16, 64] {
        let seeds: Vec<u64> = (0..n)
            .map(|r| replication_seed(plan.seed, r as u64))
            .collect();
        g.bench_with_input(BenchmarkId::new("oracle", n), &seeds, |b, seeds| {
            b.iter(|| {
                for &seed in seeds {
                    let seeded = FaultPlan {
                        seed,
                        ..plan.clone()
                    };
                    let sched = SchedulePolicy::default();
                    black_box(reference::simulate(&mesh, &phases, &seeded, sched, None));
                }
            })
        });
        let mut engine = FaultSim::new(&mesh, &phases, &plan);
        g.bench_with_input(BenchmarkId::new("compiled", n), &seeds, |b, seeds| {
            b.iter(|| black_box(engine.replay_faulty(seeds, SchedulePolicy::default())))
        });
    }
    g.finish();
}

fn bench_outage_density(c: &mut Criterion) {
    let mesh = paragon_mesh();
    let phases = synth_phases(mesh.nodes(), 5, 56, 0xfa17);
    let mut g = c.benchmark_group("outage_density");
    for outages in [4usize, 16, 64] {
        let plan = lossy_plan(42, seeded_outages(&mesh, 0, outages, 0));
        g.bench_with_input(BenchmarkId::new("oracle", outages), &plan, |b, plan| {
            let sched = SchedulePolicy::default();
            b.iter(|| black_box(reference::simulate(&mesh, &phases, plan, sched, None)))
        });
        let mut engine = FaultSim::new(&mesh, &phases, &plan);
        g.bench_with_input(BenchmarkId::new("compiled", outages), &plan, |b, plan| {
            b.iter(|| black_box(engine.run_faulty(plan.seed, SchedulePolicy::default())))
        });
    }
    g.finish();
}

fn bench_recovering(c: &mut Criterion) {
    let mesh = paragon_mesh();
    let phases = synth_phases(mesh.nodes(), 12, 48, 0x4ec0);
    let healthy = mesh.simulate_phases(&phases);
    let plan = FaultPlan {
        node_deaths: vec![
            NodeDeath {
                node: 5,
                t: healthy / 3,
            },
            NodeDeath {
                node: 19,
                t: 2 * healthy / 3,
            },
        ],
        detection_latency: 5_000,
        ..lossy_plan(42, seeded_outages(&mesh, 0, 16, 0))
    };
    let policy = CheckpointPolicy::default();
    let seeds: Vec<u64> = (0..16)
        .map(|r| replication_seed(plan.seed, r as u64))
        .collect();
    let mut g = c.benchmark_group("recovering_replay");
    g.bench_with_input(BenchmarkId::new("oracle", 16), &seeds, |b, seeds| {
        b.iter(|| {
            for &seed in seeds {
                let seeded = FaultPlan {
                    seed,
                    ..plan.clone()
                };
                let sched = SchedulePolicy::default();
                black_box(reference::simulate(
                    &mesh,
                    &phases,
                    &seeded,
                    sched,
                    Some(&policy),
                ));
            }
        })
    });
    let mut engine = FaultSim::new(&mesh, &phases, &plan);
    g.bench_with_input(BenchmarkId::new("compiled", 16), &seeds, |b, seeds| {
        b.iter(|| black_box(engine.replay_recovering(&policy, seeds, SchedulePolicy::default())))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_replay,
    bench_outage_density,
    bench_recovering
);
criterion_main!(benches);
