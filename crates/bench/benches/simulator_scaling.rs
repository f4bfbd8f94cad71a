//! Criterion bench for the simulator hot path at production sizes:
//! closed-form vs enumerated message generation, and reused/cached
//! scheduling vs the one-shot oracle.
//!
//! `cargo bench -p rescomm-bench --bench simulator_scaling`
//!
//! For machine-readable numbers and speedup ratios, run the
//! `simulator_baseline` binary instead (it writes `BENCH_simulator.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescomm_distribution::{fold_general, general_pattern, physical_messages, Dist1D, Dist2D};
use rescomm_intlin::IMat;
use rescomm_machine::{CachedPhase, CostModel, Mesh2D, PMsg, PhaseSim, ScheduleMode};
use std::hint::black_box;

fn uk() -> IMat {
    IMat::from_rows(&[&[1, 3], &[0, 1]])
}

/// Matrices the old elementary-only fast path could not fold in closed
/// form — before the general segment algebra they hit the dense `O(V)`
/// fallback.
fn previously_dense() -> Vec<(&'static str, IMat)> {
    vec![
        ("coupled", IMat::from_rows(&[&[1, 3], &[2, 7]])),
        ("fib", IMat::from_rows(&[&[1, 1], &[1, 2]])),
        ("rot90", IMat::from_rows(&[&[0, -1], &[1, 0]])),
    ]
}

fn bench_generation(c: &mut Criterion) {
    let dist = Dist2D {
        rows: Dist1D::Grouped(3),
        cols: Dist1D::Block,
    };
    let pshape = (8usize, 4usize);
    let mut g = c.benchmark_group("msgset_generation");
    for side in [64usize, 256, 1024, 4096] {
        let vshape = (side, side);
        let t = uk();
        // The enumerated oracle is O(V log V): past 1024² it stops being
        // a baseline and starts being a stress test, so it is capped.
        if side <= 1024 {
            g.bench_with_input(BenchmarkId::new("enumerated", side), &vshape, |b, &v| {
                b.iter(|| {
                    let pat = general_pattern(&t, v);
                    black_box(physical_messages(&pat, dist, v, pshape, 64))
                })
            });
        }
        g.bench_with_input(BenchmarkId::new("closed_form", side), &vshape, |b, &v| {
            b.iter(|| black_box(fold_general(&t, dist, v, pshape, 64)))
        });
    }
    // The fully-coupled zoo: closed-form cost stays flat in V where the
    // dense fallback these matrices used to take is O(V).
    for (name, t) in previously_dense() {
        for side in [1024usize, 4096, 8192] {
            let vshape = (side, side);
            g.bench_with_input(
                BenchmarkId::new(format!("closed_form_{name}"), side),
                &vshape,
                |b, &v| b.iter(|| black_box(fold_general(&t, dist, v, pshape, 64))),
            );
        }
    }
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mesh = Mesh2D::new(8, 4, CostModel::paragon());
    let mut g = c.benchmark_group("phase_scheduling");
    for n in [1_000usize, 10_000, 100_000] {
        let msgs: Vec<PMsg> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                PMsg {
                    src: (h % 32) as usize,
                    dst: ((h >> 17) % 32) as usize,
                    bytes: 1 + (h >> 40) % 4096,
                }
            })
            .collect();
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
