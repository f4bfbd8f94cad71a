//! Measure the compiler front-end (`map_nest`) old vs new and write a
//! machine-readable baseline to `BENCH_pipeline.json` so later PRs can
//! track the analysis-cost trajectory.
//!
//! Two sections, matching the two halves of the optimization:
//!
//! * **synthetic** — `map_nest_reference` (the seed passes: positional
//!   vertex scans, per-start cycle rescans, O(E²) twin marking, no
//!   memoization) vs `map_nest` on the chained-stencil and pipeline
//!   families at 10–500 statements.
//! * **kernels** — the paper's kernels mapped repeatedly, old vs new with
//!   a warm shared [`rescomm::AnalysisCache`] (the batch-serving setting
//!   `map_nest_batch` exists for).
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

use rescomm::{map_nest, map_nest_reference, map_nest_with, AnalysisCache};
use rescomm::{Mapping, MappingOptions};
use rescomm_bench::harness::{median_ns, Args};
use rescomm_bench::workload::{chained_stencil_nest, host_threads, pipeline_nest};
use rescomm_json::{fixed, JsonDoc, Val};
use rescomm_loopnest::{examples, LoopNest};

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

/// A synthetic nest family: name + generator `(n_stmts, size)`.
type Family = (&'static str, fn(usize, i64) -> LoopNest);

struct SynthRow {
    family: &'static str,
    n_stmts: usize,
    accesses: usize,
    old_ns: u64,
    new_ns: u64,
}

struct KernelRow {
    kernel: &'static str,
    old_ns: u64,
    new_ns: u64,
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
            let old_ns = median_ns(reps, 1, || map_nest_reference(&nest, &opts));
            let new_ns = median_ns(reps.max(9), 1, || map_nest(&nest, &opts));
            eprintln!(
                "  {family:>15} n={n:>4}  old {old_ns:>12} ns   new {new_ns:>10} ns   ×{:.1}",
                old_ns as f64 / new_ns.max(1) as f64
            );
            synth.push(SynthRow {
                family,
                n_stmts: n,
                accesses: nest.accesses.len(),
                old_ns,
                new_ns,
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

        let old_ns = median_ns(33, 32, || map_nest_reference(nest, &opts));
        let mut cache = AnalysisCache::new();
        let new_ns = median_ns(33, 32, || map_nest_with(nest, &opts, &mut cache));
        eprintln!(
            "  {name:>12}  old {old_ns:>9} ns   new {new_ns:>9} ns   ×{:.1}",
            old_ns as f64 / new_ns.max(1) as f64
        );
        kern.push(KernelRow {
            kernel: name,
            old_ns,
            new_ns,
        });
    }

    let speedup = |old: u64, new: u64| fixed(old as f64 / new.max(1) as f64, 2);
    let mut doc = JsonDoc::new();
    doc.field("bench", "pipeline")
        .field("m", 2u64)
        .field("host_threads", host_threads());
    doc.rows("synthetic", &synth, |r| {
        vec![
            ("family", Val::from(r.family)),
            ("statements", Val::from(r.n_stmts)),
            ("accesses", Val::from(r.accesses)),
            ("reference_ns", Val::from(r.old_ns)),
            ("optimized_ns", Val::from(r.new_ns)),
            ("speedup", speedup(r.old_ns, r.new_ns)),
        ]
    });
    doc.rows("kernels", &kern, |r| {
        vec![
            ("kernel", Val::from(r.kernel)),
            ("reference_ns", Val::from(r.old_ns)),
            ("warm_cache_ns", Val::from(r.new_ns)),
            ("speedup", speedup(r.old_ns, r.new_ns)),
        ]
    });
    args.emit(&doc);
}
