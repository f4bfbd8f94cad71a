//! Measure the simulator hot path and write a machine-readable baseline
//! to `BENCH_simulator.json` so later PRs can track the perf trajectory.
//!
//! Two axes, matching the two halves of the optimization:
//!
//! * **generation** — the closed residue-class fold
//!   ([`rescomm_distribution::fold_general`]) vs the dense `O(V)` count
//!   fold and the enumerated oracle, across a *kernel zoo* of unimodular
//!   dataflow matrices (shears, fully-coupled maps, rotations, swaps —
//!   the matrices that used to force the dense fallback) at virtual
//!   grids 64² through 8192² (67M virtual processors).
//! * **period_tile** — under CYCLIC × CYCLIC the `Auto` fold counts one
//!   `lcm`-period tile (8×8 on the 8×4 mesh) and scales it, instead of
//!   the closed lattice count over the whole grid: forced `Closed` vs
//!   `Auto` for the four shear/coupled zoo matrices at 1024² to 8192².
//! * **scheduling** — one-shot `Mesh2D::simulate_phase` (fresh link
//!   table and route `Vec` per message) vs the reused `PhaseSim` scratch
//!   engine and `CachedPhase` replay, at message counts up to 10⁵.
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin simulator_baseline [--smoke] [--out PATH | --check PATH]
//! ```
//!
//! `--smoke` runs the correctness gates only (small grids, no timing, no
//! artifact): every zoo matrix must take the closed path and match the
//! enumeration oracle bit-for-bit — CI fails on any dense fallback for
//! unimodular `T` — and `Auto` must take the period tile under CYCLIC ×
//! CYCLIC at every `period_tile` grid and equal the whole-grid closed
//! fold (and the oracle at 1024²).
//!
//! Every timed pair is also checked for equality (same message sets, same
//! locality) before timing, so the numbers can't drift from a wrong
//! answer going fast. The full run additionally gates the acceptance
//! floor: closed ≥ 20× over the dense fold at 4096² for the
//! previously-dense matrices, and sublinear-in-V growth of the closed
//! path from 4096² to 8192².

use rescomm_bench::harness::{median_ns, Args};
use rescomm_bench::workload::{
    hashed_phase, host_threads, kernel_zoo, paragon_mesh, zoo_dist, Kernel,
};
use rescomm_decompose::decompose_general;
use rescomm_distribution::{
    fold_affine_with, fold_pattern, general_pattern, Dist1D, Dist2D, FoldPath,
};
use rescomm_json::{fixed, raw, JsonDoc, Val};
use rescomm_machine::{CachedPhase, PhaseSim, ScheduleMode};

struct GenRow {
    matrix: &'static str,
    side: usize,
    factors: usize,
    closed_ns: u64,
    dense_ns: u64,
    /// `None` above the enumeration cutoff (the oracle is `O(V log V)`
    /// with tree-map constants; 16.8M-send patterns are not a baseline).
    enumerated_ns: Option<u64>,
}

struct TileRow {
    matrix: &'static str,
    side: usize,
    closed_ns: u64,
    auto_ns: u64,
}

/// The zoo matrices of the `period_tile` section.
const TILE_KERNELS: [&str; 4] = ["U(3)", "L(2)", "U(-2)", "coupled[[1,3],[2,7]]"];
/// Grid sides of the `period_tile` section, all multiples of the tile.
const TILE_SIDES: [usize; 3] = [1024, 4096, 8192];
/// Largest side at which a fold is checked against the enumeration
/// oracle.
const ORACLE_CUTOFF: usize = 1024;

struct SchedRow {
    messages: usize,
    oneshot_ns: u64,
    phasesim_ns: u64,
    cached_ns: u64,
}

/// Correctness gate: the closed path must fire for unimodular `T`, match
/// the dense fold everywhere, and match the enumeration oracle below the
/// cutoff. Panics with a witness on any divergence.
fn gate(k: &Kernel, dist: Dist2D, side: usize, pshape: (usize, usize), bytes: u64, oracle: bool) {
    let vshape = (side, side);
    let closed = fold_affine_with(FoldPath::Closed, &k.t, (0, 0), dist, vshape, pshape, bytes);
    assert!(
        closed.closed,
        "{}: closed path did not fire at {side}x{side}",
        k.name
    );
    assert!(
        decompose_general(&k.t).is_ok_and(|f| !f.is_empty()),
        "{}: unimodular matrix has no factor chain",
        k.name
    );
    let dense = fold_affine_with(FoldPath::Dense, &k.t, (0, 0), dist, vshape, pshape, bytes);
    assert_eq!(
        closed, dense,
        "{}: closed fold diverged from dense at {side}x{side}",
        k.name
    );
    // Auto must route unimodular T through the closed path.
    let auto = fold_affine_with(FoldPath::Auto, &k.t, (0, 0), dist, vshape, pshape, bytes);
    assert!(
        auto.closed,
        "{}: auto path fell back to dense for unimodular T at {side}x{side}",
        k.name
    );
    if oracle {
        let want = fold_pattern(&general_pattern(&k.t, vshape), dist, vshape, pshape, bytes);
        assert_eq!(
            closed, want,
            "{}: closed fold diverged from the enumeration oracle at {side}x{side}",
            k.name
        );
    }
}

/// Period-tile gate: under a periodic `dist` on a grid the period
/// divides, `Auto` must count the tile (`closed == false`) and equal the
/// forced whole-grid closed fold, and the enumeration oracle below the
/// cutoff.
fn tile_gate(k: &Kernel, dist: Dist2D, side: usize, pshape: (usize, usize), bytes: u64) {
    let vshape = (side, side);
    let auto = fold_affine_with(FoldPath::Auto, &k.t, (0, 0), dist, vshape, pshape, bytes);
    assert!(
        !auto.closed,
        "{}: auto skipped the period tile at {side}x{side}",
        k.name
    );
    let closed = fold_affine_with(FoldPath::Closed, &k.t, (0, 0), dist, vshape, pshape, bytes);
    assert_eq!(
        auto, closed,
        "{}: period-tile fold diverged from the closed fold at {side}x{side}",
        k.name
    );
    if side <= ORACLE_CUTOFF {
        let want = fold_pattern(&general_pattern(&k.t, vshape), dist, vshape, pshape, bytes);
        assert_eq!(
            auto, want,
            "{}: period-tile fold diverged from the enumeration oracle at {side}x{side}",
            k.name
        );
    }
}

fn main() {
    let args = Args::parse("BENCH_simulator.json");
    let smoke = args.smoke;
    let dist = zoo_dist();
    let pshape = (8usize, 4usize);
    let bytes = 64u64;
    let zoo = kernel_zoo();
    let tile_dist = Dist2D::uniform(Dist1D::Cyclic);
    let tile_zoo: Vec<&Kernel> = zoo
        .iter()
        .filter(|k| TILE_KERNELS.contains(&k.name))
        .collect();

    if smoke {
        eprintln!("smoke: closed-path + oracle gates over the kernel zoo");
        for k in &zoo {
            for side in [16usize, 48, 96] {
                gate(k, dist, side, pshape, bytes, true);
            }
            eprintln!("  {:<22} closed path ok", k.name);
        }
        for k in &tile_zoo {
            for side in TILE_SIDES {
                tile_gate(k, tile_dist, side, pshape, bytes);
            }
            eprintln!("  {:<22} period tile ok (cyclic x cyclic)", k.name);
        }
        eprintln!(
            "smoke ok: {} matrices, no dense fallback; {} period-tile matrices",
            zoo.len(),
            tile_zoo.len()
        );
        return;
    }

    eprintln!("generation: closed vs dense vs enumerated, grouped(3)×block on 8×4");
    let mut gen = Vec::new();
    for k in &zoo {
        let factors = decompose_general(&k.t).map_or(0, |f| f.len());
        for side in [64usize, 256, 1024, 4096, 8192] {
            let vshape = (side, side);
            // Enumeration is the gold oracle but O(V log V): gate against
            // it only where it is tractable.
            let with_oracle = side <= ORACLE_CUTOFF;
            gate(k, dist, side, pshape, bytes, with_oracle);

            let reps = if side >= 4096 { 3 } else { 7 };
            let closed_ns = median_ns(reps.max(7), 1, || {
                fold_affine_with(FoldPath::Closed, &k.t, (0, 0), dist, vshape, pshape, bytes)
            });
            let dense_ns = median_ns(reps, 1, || {
                fold_affine_with(FoldPath::Dense, &k.t, (0, 0), dist, vshape, pshape, bytes)
            });
            let enumerated_ns = with_oracle.then(|| {
                median_ns(reps, 1, || {
                    fold_pattern(&general_pattern(&k.t, vshape), dist, vshape, pshape, bytes)
                })
            });
            eprintln!(
                "  {:<22} {side:>4}²  closed {closed_ns:>10} ns   dense {dense_ns:>12} ns (×{:.1})   enumerated {}",
                k.name,
                dense_ns as f64 / closed_ns.max(1) as f64,
                enumerated_ns.map_or("-".into(), |e| format!("{e} ns")),
            );
            gen.push(GenRow {
                matrix: k.name,
                side,
                factors,
                closed_ns,
                dense_ns,
                enumerated_ns,
            });
        }
    }

    // Acceptance gates: the previously-dense matrices must beat the dense
    // fold by ≥20× at 4096², and the closed path must grow sublinearly in
    // V (V quadruples from 4096² to 8192²; flat-in-V means the ratio
    // stays far under 4).
    for k in zoo.iter().filter(|k| k.previously_dense) {
        let at = |side: usize| {
            gen.iter()
                .find(|r| r.matrix == k.name && r.side == side)
                .unwrap()
        };
        let r4 = at(4096);
        let speedup = r4.dense_ns as f64 / r4.closed_ns.max(1) as f64;
        assert!(
            speedup >= 20.0,
            "{}: closed path only {speedup:.1}x over dense at 4096² (gate: 20x)",
            k.name
        );
        let r8 = at(8192);
        // Floor the denominator at 50µs so scheduler noise on a
        // sub-millisecond sample cannot fail the growth gate.
        let growth = r8.closed_ns as f64 / r4.closed_ns.max(50_000) as f64;
        assert!(
            growth < 4.0,
            "{}: closed path grew {growth:.2}x from 4096² to 8192² (V grew 4x; gate: sublinear)",
            k.name
        );
    }
    eprintln!("gates ok: ≥20x over dense at 4096², sublinear growth to 8192²");

    eprintln!("period_tile: whole-grid closed vs auto (one period tile), cyclic×cyclic on 8×4");
    let mut tile = Vec::new();
    for k in &tile_zoo {
        for side in TILE_SIDES {
            let vshape = (side, side);
            tile_gate(k, tile_dist, side, pshape, bytes);
            let fold =
                |path| fold_affine_with(path, &k.t, (0, 0), tile_dist, vshape, pshape, bytes);
            let closed_ns = median_ns(7, 1, || fold(FoldPath::Closed));
            let auto_ns = median_ns(7, 16, || fold(FoldPath::Auto));
            eprintln!(
                "  {:<22} {side:>4}²  closed {closed_ns:>10} ns   auto {auto_ns:>8} ns (×{:.1})",
                k.name,
                closed_ns as f64 / auto_ns.max(1) as f64,
            );
            tile.push(TileRow {
                matrix: k.name,
                side,
                closed_ns,
                auto_ns,
            });
        }
    }

    eprintln!("scheduling: one-shot vs PhaseSim vs CachedPhase replay on 8×4");
    let mesh = paragon_mesh();
    let mut sched = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        let msgs = hashed_phase(n);
        let mut sim = PhaseSim::new(mesh.clone());
        let cached = [CachedPhase::new(&mesh, &msgs)];
        // Correctness gate before timing.
        let want = mesh.simulate_phase(&msgs);
        assert_eq!(
            sim.simulate_phase(&msgs),
            want,
            "PhaseSim diverged at n={n}"
        );
        assert_eq!(
            sim.run_cached_phases(&cached, ScheduleMode::Phased, 1),
            want,
            "CachedPhase diverged at n={n}"
        );

        let reps = if n >= 100_000 { 5 } else { 9 };
        let oneshot_ns = median_ns(reps, 1, || mesh.simulate_phase(&msgs));
        let phasesim_ns = median_ns(reps, 1, || sim.simulate_phase(&msgs));
        let cached_ns = median_ns(reps, 1, || {
            sim.run_cached_phases(&cached, ScheduleMode::Phased, 1)
        });
        eprintln!(
            "  {n:>6} msgs  oneshot {:>12} ns   phasesim {:>12} ns (×{:.1})   cached {:>12} ns (×{:.1})",
            oneshot_ns,
            phasesim_ns,
            oneshot_ns as f64 / phasesim_ns.max(1) as f64,
            cached_ns,
            oneshot_ns as f64 / cached_ns.max(1) as f64
        );
        sched.push(SchedRow {
            messages: n,
            oneshot_ns,
            phasesim_ns,
            cached_ns,
        });
    }

    let mut doc = JsonDoc::new();
    doc.field("bench", "simulator")
        .field("mesh", raw("[8, 4]"))
        .field("dist", "grouped(3) x block")
        .field("elem_bytes", bytes)
        .field("host_threads", host_threads());
    doc.rows("generation", &gen, |r| {
        vec![
            ("matrix", Val::from(r.matrix)),
            ("grid", Val::from(format!("{0}x{0}", r.side))),
            ("closed", Val::from(true)),
            ("factors", Val::from(r.factors)),
            ("closed_ns", Val::from(r.closed_ns)),
            ("dense_ns", Val::from(r.dense_ns)),
            (
                "enumerated_ns",
                r.enumerated_ns.map_or(raw("null"), Val::from),
            ),
            (
                "dense_speedup",
                fixed(r.dense_ns as f64 / r.closed_ns.max(1) as f64, 2),
            ),
        ]
    });
    doc.rows("period_tile", &tile, |r| {
        vec![
            ("matrix", Val::from(r.matrix)),
            ("dist", Val::from("cyclic x cyclic")),
            ("grid", Val::from(format!("{0}x{0}", r.side))),
            ("auto_closed", Val::from(false)),
            ("closed_ns", Val::from(r.closed_ns)),
            ("auto_ns", Val::from(r.auto_ns)),
            (
                "auto_speedup",
                fixed(r.closed_ns as f64 / r.auto_ns.max(1) as f64, 2),
            ),
        ]
    });
    doc.rows("scheduling", &sched, |r| {
        vec![
            ("messages", Val::from(r.messages)),
            ("oneshot_ns", Val::from(r.oneshot_ns)),
            ("phasesim_ns", Val::from(r.phasesim_ns)),
            ("cached_replay_ns", Val::from(r.cached_ns)),
            (
                "phasesim_speedup",
                fixed(r.oneshot_ns as f64 / r.phasesim_ns.max(1) as f64, 2),
            ),
            (
                "cached_speedup",
                fixed(r.oneshot_ns as f64 / r.cached_ns.max(1) as f64, 2),
            ),
        ]
    });
    args.emit(&doc);
}
