//! Criterion bench for the simulator hot path at production sizes:
//! closed-form vs enumerated message generation, and reused/cached
//! scheduling vs the one-shot oracle.
//!
//! `cargo bench -p rescomm-bench --bench simulator_scaling`
//!
//! For machine-readable numbers and speedup ratios, run the
//! `simulator_baseline` binary instead (it writes `BENCH_simulator.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescomm_bench::workload::{hashed_phase, kernel_zoo, paragon_mesh, zoo_dist};
use rescomm_distribution::{fold_general, general_pattern, physical_messages};
use rescomm_machine::{CachedPhase, PhaseSim, ScheduleMode};
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let dist = zoo_dist();
    let pshape = (8usize, 4usize);
    let zoo = kernel_zoo();
    let mut g = c.benchmark_group("msgset_generation");
    for side in [64usize, 256, 1024, 4096] {
        let vshape = (side, side);
        let t = &zoo[0].t; // U(3)
                           // The enumerated oracle is O(V log V): past 1024² it stops being
                           // a baseline and starts being a stress test, so it is capped.
        if side <= 1024 {
            g.bench_with_input(BenchmarkId::new("enumerated", side), &vshape, |b, &v| {
                b.iter(|| {
                    let pat = general_pattern(t, v);
                    black_box(physical_messages(&pat, dist, v, pshape, 64))
                })
            });
        }
        g.bench_with_input(BenchmarkId::new("closed_form", side), &vshape, |b, &v| {
            b.iter(|| black_box(fold_general(t, dist, v, pshape, 64)))
        });
    }
    // The previously-dense zoo: closed-form cost stays flat in V where the
    // dense fallback these matrices used to take is O(V).
    for k in zoo.iter().filter(|k| k.previously_dense) {
        for side in [1024usize, 4096, 8192] {
            let vshape = (side, side);
            g.bench_with_input(
                BenchmarkId::new(format!("closed_form_{}", k.name), side),
                &vshape,
                |b, &v| b.iter(|| black_box(fold_general(&k.t, dist, v, pshape, 64))),
            );
        }
    }
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mesh = paragon_mesh();
    let mut g = c.benchmark_group("phase_scheduling");
    for n in [1_000usize, 10_000, 100_000] {
        let msgs = hashed_phase(n);
        g.bench_with_input(BenchmarkId::new("oneshot", n), &msgs, |b, m| {
            b.iter(|| black_box(mesh.simulate_phase(m)))
        });
        let mut sim = PhaseSim::new(mesh.clone());
        g.bench_with_input(BenchmarkId::new("phasesim", n), &msgs, |b, m| {
            b.iter(|| black_box(sim.simulate_phase(m)))
        });
        let cached = vec![CachedPhase::new(&mesh, &msgs)];
        let mut sim2 = PhaseSim::new(mesh.clone());
        g.bench_with_input(BenchmarkId::new("cached_replay", n), &cached, |b, ph| {
            b.iter(|| black_box(sim2.run_cached_phases(ph, ScheduleMode::Phased, 1)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_generation, bench_scheduling);
criterion_main!(benches);
