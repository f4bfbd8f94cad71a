//! Criterion bench for the shared work-stealing pool (`machine::pool`):
//! the fault-replay and analysis-batch sweeps across worker counts, plus
//! the grain knob on a deliberately skewed task-cost distribution.
//!
//! `cargo bench -p rescomm-bench --bench sweep_scaling`
//!
//! For machine-readable numbers, the efficiency gates and the committed
//! artifact, run the `scaling_baseline` binary instead (it writes
//! `BENCH_scaling.json` and asserts thread-count bit-identity before
//! timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescomm::{map_nest_batch, MappingOptions};
use rescomm_bench::workload::{
    chained_stencil_nest, host_threads, lossy_plan, paragon_mesh, pipeline_nest, seeded_outages,
    synth_phases,
};
use rescomm_loopnest::LoopNest;
use rescomm_machine::{par_fault_sweep, FaultPlan, PhaseSim, SchedulePolicy};
use std::hint::black_box;

/// Worker counts worth timing on this host: 1, and the powers of two up
/// to the hardware thread count (oversubscribed points only measure the
/// OS scheduler).
fn worker_points() -> Vec<usize> {
    let host = host_threads();
    [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w == 1 || w <= host)
        .collect()
}

fn bench_fault_replay(c: &mut Criterion) {
    let mesh = paragon_mesh();
    let phases = synth_phases(mesh.nodes(), 5, 56, 0xfa17);
    let bank: Vec<FaultPlan> = (0..8)
        .map(|i| lossy_plan(42 + i, seeded_outages(&mesh, 42 + i, 24, 0)))
        .collect();
    let sched = SchedulePolicy::default();
    let mut g = c.benchmark_group("pool_fault_replay");
    for workers in worker_points() {
        g.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| black_box(par_fault_sweep(&mesh, &phases, &bank, None, 8, w, sched)))
        });
    }
    g.finish();
}

fn bench_analysis_batch(c: &mut Criterion) {
    let fleet: Vec<LoopNest> = (0..16)
        .map(|i| {
            if i % 2 == 0 {
                chained_stencil_nest(12 + 3 * i, 8)
            } else {
                pipeline_nest(12 + 3 * i, 8)
            }
        })
        .collect();
    let opts = MappingOptions::new(2);
    let mut g = c.benchmark_group("pool_analysis_batch");
    for workers in worker_points() {
        g.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| black_box(map_nest_batch(&fleet, &opts, w).unwrap()))
        });
    }
    g.finish();
}

/// The grain knob on a skewed workload: per-task cost rises with the
/// task index, so fine grains lean on the steal path and coarse grains
/// on the initial partition.
fn bench_grain_skew(c: &mut Criterion) {
    let mesh = paragon_mesh();
    let tasks: Vec<u64> = (1..=256).collect();
    let workers = host_threads().clamp(1, 8);
    let mut g = c.benchmark_group("pool_grain_skew");
    for grain in [1usize, 4, 16] {
        g.bench_with_input(BenchmarkId::new("grain", grain), &grain, |b, &grain| {
            b.iter(|| {
                let (r, _) = rescomm_machine::pool::sweep(
                    &tasks,
                    workers,
                    grain,
                    || PhaseSim::new(mesh.clone()),
                    |sim, &scale| {
                        let phases = synth_phases(32, 1, 8 + (scale as usize % 32), scale);
                        sim.simulate_phases(&phases)
                    },
                );
                black_box(r)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fault_replay,
    bench_analysis_batch,
    bench_grain_skew
);
criterion_main!(benches);
