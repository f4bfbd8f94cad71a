//! Criterion bench for the overlapped phase scheduler: phased barriers
//! vs. dependency-aware overlap (both orders), direct and through the
//! cached-replay path, on multi-phase plans at production message
//! counts.
//!
//! `cargo bench -p rescomm-bench --bench schedule_scaling`
//!
//! For the simulated-makespan comparison (the quantity the scheduler
//! optimizes) and its acceptance gates, run the `schedule_baseline`
//! binary instead — it writes `BENCH_schedule.json`. This bench times
//! the *engines themselves*: the overlapped scheduler does strictly more
//! bookkeeping per message (readiness reads, arrival updates, an index
//! permutation), and this is where a regression in that overhead would
//! show.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rescomm_bench::workload::paragon_mesh;
use rescomm_machine::{CachedPhase, OverlapOrder, PMsg, PhaseSim, ScheduleMode};
use std::hint::black_box;

/// A deterministic multi-phase workload: `phases` phases of `n` random
/// messages each on the 8×4 mesh (same hash mixer as the other benches).
fn workload(phases: usize, n: usize) -> Vec<Vec<PMsg>> {
    (0..phases)
        .map(|k| {
            (0..n)
                .map(|i| {
                    let h = ((k * n + i) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    PMsg {
                        src: (h % 32) as usize,
                        dst: ((h >> 17) % 32) as usize,
                        bytes: 1 + (h >> 40) % 4096,
                    }
                })
                .collect()
        })
        .collect()
}

fn bench_schedule_modes(c: &mut Criterion) {
    let mesh = paragon_mesh();
    let mut g = c.benchmark_group("schedule_modes");
    for n in [1_000usize, 10_000, 100_000] {
        let phases = workload(4, n);
        let mut sim = PhaseSim::new(mesh.clone());
        g.bench_with_input(BenchmarkId::new("phased", n), &phases, |b, p| {
            b.iter(|| black_box(sim.simulate_phases(p)))
        });
        g.bench_with_input(BenchmarkId::new("overlapped", n), &phases, |b, p| {
            b.iter(|| black_box(sim.simulate_phases_mode(p, ScheduleMode::overlapped())))
        });
        g.bench_with_input(
            BenchmarkId::new("overlapped_longest", n),
            &phases,
            |b, p| {
                b.iter(|| {
                    black_box(sim.simulate_phases_mode(
                        p,
                        ScheduleMode::Overlapped(OverlapOrder::LongestFirst),
                    ))
                })
            },
        );
        let cached: Vec<CachedPhase> = phases.iter().map(|p| CachedPhase::new(&mesh, p)).collect();
        g.bench_with_input(BenchmarkId::new("cached_phased", n), &cached, |b, ph| {
            b.iter(|| black_box(sim.run_cached_phases(ph, ScheduleMode::Phased, 1)))
        });
        g.bench_with_input(
            BenchmarkId::new("cached_overlapped", n),
            &cached,
            |b, ph| b.iter(|| black_box(sim.run_cached_phases(ph, ScheduleMode::overlapped(), 1))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_schedule_modes);
criterion_main!(benches);
