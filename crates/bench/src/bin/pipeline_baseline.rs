//! Measure the compiler front-end (`map_nest`) old vs new, and the
//! explicit lowering behind it, and write a machine-readable baseline to
//! `BENCH_pipeline.json` so later PRs can track the cost trajectory.
//!
//! Three sections:
//!
//! * **synthetic** — `map_nest_reference` (the seed passes: positional
//!   vertex scans, per-start cycle rescans, O(E²) twin marking, no
//!   memoization) vs `map_nest` on the chained-stencil and pipeline
//!   families at 10–500 statements.
//! * **kernels** — the paper's kernels mapped repeatedly, old vs new with
//!   a warm shared [`rescomm::AnalysisCache`] (the batch-serving setting
//!   `map_nest_batch` exists for).
//! * **lowering** — `build_plan` followed by `phases_on_mesh` on the 8×4
//!   Paragon mesh (32² virtual grid, CYCLIC) for the synthetic nests: the
//!   explicit plan and fold of the cold CLI path. Its counts (phases,
//!   the distinct endpoint slices among them, virtual and physical
//!   messages) and the overlapped makespan, read off one
//!   `rescomm::compile`, are pinned by `--check`. The time
//!   (`optimized_ns`) is paired with a fixed partner (`oracle_ns`):
//!   `build_plan`, then each phase's wrapped pattern through the
//!   `physical_messages` enumeration oracle.
//!
//! Each old/new pair is timed as interleaved pairs
//! ([`rescomm_bench::harness::paired_ns`]), so a host that drifts during
//! the run moves both sides alike; `speedup` is the median paired ratio.
//!
//! How `map_nest_batch` scales across workers is measured once, by
//! `scaling_baseline` (`BENCH_scaling.json`).
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin pipeline_baseline [--out PATH | --check PATH]
//! ```
//!
//! Every timed pair is first checked for identical mappings (outcomes,
//! rotations, allocation matrices), so the numbers can't drift from a
//! wrong answer going fast.

use rescomm::{build_plan, compile, map_nest, map_nest_reference, map_nest_with, AnalysisCache};
use rescomm::{
    CancelToken, CommPlan, CompileOptions, Compiled, Mapping, MappingOptions, PhasePattern,
};
use rescomm_bench::harness::{paired_ns, Args, Paired};
use rescomm_bench::workload::{host_cpu, host_threads, paragon_mesh};
use rescomm_distribution::{physical_messages, Dist1D, Dist2D};
use rescomm_json::{fixed, JsonDoc, Val};
use rescomm_loopnest::examples::{self, chained_stencil_nest, pipeline_nest};
use rescomm_loopnest::LoopNest;
use rescomm_machine::{Mesh2D, PMsg, ScheduleMode};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

/// The virtual grid the lowering section's explicit patterns wrap into.
const VSHAPE: (usize, usize) = (32, 32);
/// Element size of every lowered message.
const BYTES: u64 = 64;

/// Panic unless the two mappings classify identically.
fn assert_same_mapping(tag: &str, new: &Mapping, old: &Mapping) {
    assert_eq!(new.outcomes, old.outcomes, "{tag}: outcomes diverged");
    assert_eq!(new.rotations, old.rotations, "{tag}: rotations diverged");
    for (a, b) in new
        .alignment
        .stmt_alloc
        .iter()
        .zip(&old.alignment.stmt_alloc)
    {
        assert_eq!(a.mat, b.mat, "{tag}: statement allocation diverged");
    }
    for (a, b) in new
        .alignment
        .array_alloc
        .iter()
        .zip(&old.alignment.array_alloc)
    {
        assert_eq!(a.mat, b.mat, "{tag}: array allocation diverged");
    }
}

/// The lowering's partner: every phase of an explicit plan folded on its
/// own by the `physical_messages` enumeration oracle on its toroidally
/// wrapped pattern, then flattened to node ids.
fn lower_by_oracle(plan: &CommPlan, mesh: &Mesh2D, dist: Dist2D) -> Vec<Vec<PMsg>> {
    let wrap = |(i, j): (i64, i64)| (i.rem_euclid(VSHAPE.0 as i64), j.rem_euclid(VSHAPE.1 as i64));
    plan.phases
        .iter()
        .map(|phase| {
            let pattern = phase
                .pattern
                .explicit()
                .expect("build_plan emits explicit phases");
            let wrapped: Vec<_> = pattern.iter().map(|&(s, d)| (wrap(s), wrap(d))).collect();
            physical_messages(&wrapped, dist, VSHAPE, (mesh.px, mesh.py), BYTES)
                .iter()
                .map(|m| PMsg {
                    src: mesh.node_id(m.src.0, m.src.1),
                    dst: mesh.node_id(m.dst.0, m.dst.1),
                    bytes: m.bytes,
                })
                .collect()
        })
        .collect()
}

/// The number of distinct explicit endpoint slices of a plan: the
/// phases `build_plan` built and `phases_on_mesh` folded, the rest being
/// shared repeats.
fn distinct_slices(plan: &CommPlan) -> usize {
    let slices = plan.phases.iter().filter_map(|p| match &p.pattern {
        PhasePattern::Explicit(v) => Some(Arc::as_ptr(v)),
        PhasePattern::Affine { .. } => None,
    });
    slices.collect::<HashSet<_>>().len()
}

/// A synthetic nest family: name + generator `(n_stmts, size)`.
type Family = (&'static str, fn(usize, i64) -> LoopNest);

struct SynthRow {
    family: &'static str,
    n_stmts: usize,
    accesses: usize,
    /// `map_nest_reference` (`a`) against `map_nest` (`b`).
    timing: Paired,
}

struct KernelRow {
    kernel: &'static str,
    /// `map_nest_reference` (`a`) against the warm-cache `map_nest_with`
    /// (`b`), per call.
    timing: Paired,
}

struct LoweringRow {
    family: &'static str,
    n_stmts: usize,
    phases: usize,
    distinct_phases: usize,
    virtual_msgs: usize,
    physical_msgs: usize,
    makespan_ns: u64,
    /// `build_plan` + [`lower_by_oracle`] (`a`) against `build_plan` +
    /// `phases_on_mesh` (`b`).
    timing: Paired,
}

fn main() {
    let args = Args::parse("BENCH_pipeline.json");
    let opts = MappingOptions::new(2);

    let sizes = [10usize, 50, 200, 500];
    let families: [Family; 2] = [
        ("chained_stencil", chained_stencil_nest),
        ("pipeline", pipeline_nest),
    ];

    eprintln!("synthetic: map_nest_reference (seed passes) vs map_nest");
    let mut synth = Vec::new();
    for (family, build) in families {
        for n in sizes {
            let nest = build(n, 8);
            // Correctness gate before timing.
            let new = map_nest(&nest, &opts).unwrap();
            let old = map_nest_reference(&nest, &opts);
            assert_same_mapping(&format!("{family} n={n}"), &new, &old);

            let reps = if n >= 200 { 5 } else { 9 };
            let timing = paired_ns(
                reps,
                || map_nest_reference(&nest, &opts),
                || map_nest(&nest, &opts),
            );
            eprintln!(
                "  {family:>15} n={n:>4}  old {:>12} ns   new {:>10} ns   ×{:.1}",
                timing.a_ns, timing.b_ns, timing.ratio
            );
            synth.push(SynthRow {
                family,
                n_stmts: n,
                accesses: nest.accesses.len(),
                timing,
            });
        }
    }

    eprintln!("kernels: repeated mapping, old vs new with a warm shared cache");
    let kernels: Vec<(&'static str, LoopNest)> = vec![
        ("motivating", examples::motivating_example(8, 4).0),
        ("matmul", examples::matmul(6)),
        ("gauss", examples::gauss_elim(6)),
        ("adi", examples::adi_sweep(8)),
    ];
    let mut kern = Vec::new();
    for (name, nest) in &kernels {
        let new = map_nest(nest, &opts).unwrap();
        let old = map_nest_reference(nest, &opts);
        assert_same_mapping(name, &new, &old);

        // Microsecond-scale calls: each timed sample runs 32 of them.
        const INNER: u64 = 32;
        let mut cache = AnalysisCache::new();
        let batch = paired_ns(
            33,
            || (0..INNER).for_each(|_| drop(black_box(map_nest_reference(nest, &opts)))),
            || (0..INNER).for_each(|_| drop(black_box(map_nest_with(nest, &opts, &mut cache)))),
        );
        let timing = Paired {
            a_ns: batch.a_ns / INNER,
            b_ns: batch.b_ns / INNER,
            ..batch
        };
        eprintln!(
            "  {name:>12}  old {:>9} ns   new {:>9} ns   ×{:.1}",
            timing.a_ns, timing.b_ns, timing.ratio
        );
        kern.push(KernelRow {
            kernel: name,
            timing,
        });
    }

    eprintln!("lowering: build_plan + phases_on_mesh, 8x4 mesh, 32x32 CYCLIC");
    let target = CompileOptions {
        mesh: paragon_mesh(),
        dist: Dist2D::uniform(Dist1D::Cyclic),
        vshape: VSHAPE,
        bytes: BYTES,
        mode: ScheduleMode::overlapped(),
        closed: false,
    };
    let (mesh, dist) = (&target.mesh, target.dist);
    let mut lowering = Vec::new();
    for (family, build) in families {
        for n in sizes {
            let nest = build(n, 8);
            let mapping = map_nest(&nest, &opts).unwrap();
            let Compiled {
                plan,
                phases,
                makespan: makespan_ns,
            } = compile(&nest, &mapping, &target, &CancelToken::none()).unwrap();
            plan.verify_availability(&nest, &mapping)
                .unwrap_or_else(|e| panic!("{family} n={n}: {e}"));
            // Correctness gate before timing.
            assert_eq!(
                phases,
                lower_by_oracle(&plan, mesh, dist),
                "{family} n={n}: lowering differs from the oracle"
            );
            let timing = paired_ns(
                9,
                || lower_by_oracle(&build_plan(&nest, &mapping), mesh, dist),
                || build_plan(&nest, &mapping).phases_on_mesh(mesh, dist, VSHAPE, BYTES),
            );
            eprintln!(
                "  {family:>15} n={n:>4}  oracle {:>10} ns   lowering {:>10} ns   ×{:.1}",
                timing.a_ns, timing.b_ns, timing.ratio
            );
            lowering.push(LoweringRow {
                family,
                n_stmts: n,
                phases: plan.phases.len(),
                distinct_phases: distinct_slices(&plan),
                virtual_msgs: plan.message_count(),
                physical_msgs: phases.iter().map(Vec::len).sum(),
                makespan_ns,
                timing,
            });
        }
    }

    let speedup = |t: &Paired| fixed(t.ratio, 2);
    let mut doc = JsonDoc::new();
    doc.field("bench", "pipeline")
        .field("m", 2u64)
        .field("host", host_cpu())
        .field("host_threads", host_threads());
    doc.rows("synthetic", &synth, |r| {
        vec![
            ("family", Val::from(r.family)),
            ("statements", Val::from(r.n_stmts)),
            ("accesses", Val::from(r.accesses)),
            ("reference_ns", Val::from(r.timing.a_ns)),
            ("optimized_ns", Val::from(r.timing.b_ns)),
            ("speedup", speedup(&r.timing)),
        ]
    });
    doc.rows("kernels", &kern, |r| {
        vec![
            ("kernel", Val::from(r.kernel)),
            ("reference_ns", Val::from(r.timing.a_ns)),
            ("warm_cache_ns", Val::from(r.timing.b_ns)),
            ("speedup", speedup(&r.timing)),
        ]
    });
    doc.rows("lowering", &lowering, |r| {
        vec![
            ("family", Val::from(r.family)),
            ("statements", Val::from(r.n_stmts)),
            ("phases", Val::from(r.phases)),
            ("distinct_phases", Val::from(r.distinct_phases)),
            ("virtual_msgs", Val::from(r.virtual_msgs)),
            ("physical_msgs", Val::from(r.physical_msgs)),
            ("makespan_ns", Val::from(r.makespan_ns)),
            ("oracle_ns", Val::from(r.timing.a_ns)),
            ("optimized_ns", Val::from(r.timing.b_ns)),
            ("speedup", speedup(&r.timing)),
        ]
    });
    args.emit(&doc);
}
