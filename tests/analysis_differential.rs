//! Differential tests for the front-end optimization: the optimized
//! passes (`map_nest`, and `map_nest_with` under a warm shared
//! [`AnalysisCache`]) must classify exactly like the seed implementation
//! (`map_nest_reference`: positional vertex scans, per-start cycle
//! rescans, O(E²) twin marking, no memoization) on every nest — random
//! small nests and the large synthetic families alike.

use proptest::prelude::*;
use rescomm::{map_nest, map_nest_reference, map_nest_with, AnalysisCache};
use rescomm::{CommOutcome, Mapping, MappingOptions};
use rescomm_bench::workload::{chained_stencil_nest, pipeline_nest};
use rescomm_intlin::IMat;
use rescomm_loopnest::{Domain, LoopNest, NestBuilder};

/// Assert the two mappings are observably identical: outcomes, component
/// rotations, allocation matrices and offsets, component assignment.
fn assert_identical(tag: &str, new: &Mapping, old: &Mapping) {
    assert_eq!(new.outcomes, old.outcomes, "{tag}: outcomes diverged");
    assert_eq!(new.rotations, old.rotations, "{tag}: rotations diverged");
    assert_eq!(
        new.alignment.n_components, old.alignment.n_components,
        "{tag}: component count diverged"
    );
    assert_eq!(
        new.alignment.comp_of_stmt, old.alignment.comp_of_stmt,
        "{tag}: statement components diverged"
    );
    assert_eq!(
        new.alignment.comp_of_array, old.alignment.comp_of_array,
        "{tag}: array components diverged"
    );
    for (i, (a, b)) in new
        .alignment
        .stmt_alloc
        .iter()
        .zip(&old.alignment.stmt_alloc)
        .enumerate()
    {
        assert_eq!(a.mat, b.mat, "{tag}: stmt {i} allocation diverged");
        assert_eq!(a.rho, b.rho, "{tag}: stmt {i} offset diverged");
    }
    for (i, (a, b)) in new
        .alignment
        .array_alloc
        .iter()
        .zip(&old.alignment.array_alloc)
        .enumerate()
    {
        assert_eq!(a.mat, b.mat, "{tag}: array {i} allocation diverged");
        assert_eq!(a.rho, b.rho, "{tag}: array {i} offset diverged");
    }
}

/// Strategy: a random nest with 1–3 statements (depths 2–3), 1–3 arrays
/// (dims 1–3) and 2–7 affine accesses with small coefficients — same
/// family as `cross_crate_invariants`, slightly wider.
fn small_nest() -> impl Strategy<Value = LoopNest> {
    let dims = proptest::collection::vec(1usize..=3, 1..=3);
    let depths = proptest::collection::vec(2usize..=3, 1..=3);
    (
        dims,
        depths,
        proptest::collection::vec(
            (
                0usize..100,
                0usize..100,
                proptest::collection::vec(-2i64..=2, 9),
                proptest::collection::vec(-2i64..=2, 3),
                any::<bool>(),
            ),
            2..=7,
        ),
    )
        .prop_map(|(dims, depths, accs)| {
            let mut b = NestBuilder::new("random");
            let arrays: Vec<_> = dims
                .iter()
                .enumerate()
                .map(|(i, &d)| b.array(&format!("x{i}"), d))
                .collect();
            let stmts: Vec<_> = depths
                .iter()
                .enumerate()
                .map(|(i, &d)| b.statement(&format!("S{i}"), d, Domain::cube(d, 4)))
                .collect();
            for (ai, si, coeffs, offs, write) in accs {
                let x = arrays[ai % arrays.len()];
                let s = stmts[si % stmts.len()];
                let q = dims[ai % arrays.len()];
                let d = depths[si % stmts.len()];
                let f = IMat::from_fn(q, d, |i, j| coeffs[(i * d + j) % coeffs.len()]);
                let c: Vec<i64> = (0..q).map(|i| offs[i % offs.len()]).collect();
                if write {
                    b.write(s, x, f, &c);
                } else {
                    b.read(s, x, f, &c);
                }
            }
            b.build().expect("random nest must validate")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The optimized pipeline classifies every random nest exactly like
    /// the seed passes.
    #[test]
    fn optimized_matches_reference(nest in small_nest()) {
        let opts = MappingOptions::new(2);
        assert_identical("m=2", &map_nest(&nest, &opts).unwrap(), &map_nest_reference(&nest, &opts));
    }

    /// Same, with the unit-weights ablation that exercises the other
    /// branching/augment code paths.
    #[test]
    fn optimized_matches_reference_ablations(nest in small_nest()) {
        let mut opts = MappingOptions::new(2);
        opts.weight_by_rank = false;
        assert_identical(
            "ablation",
            &map_nest(&nest, &opts).unwrap(),
            &map_nest_reference(&nest, &opts),
        );
    }

    /// A warm shared cache is outcome-transparent: mapping the same nest
    /// repeatedly through one [`AnalysisCache`] replays, never drifts.
    #[test]
    fn warm_cache_is_outcome_transparent(nest in small_nest()) {
        let opts = MappingOptions::new(2);
        let cold = map_nest(&nest, &opts).unwrap();
        let mut cache = AnalysisCache::new();
        let first = map_nest_with(&nest, &opts, &mut cache).unwrap();
        let warm = map_nest_with(&nest, &opts, &mut cache).unwrap();
        assert_identical("first", &first, &cold);
        assert_identical("warm", &warm, &cold);
    }
}

/// Golden test: the 200-statement chained-stencil nest — the headline
/// `BENCH_pipeline.json` size — maps identically through both paths, and
/// the heuristic zeroes out the expected fraction of its accesses.
#[test]
fn golden_chained_stencil_200() {
    let nest = chained_stencil_nest(200, 8);
    let opts = MappingOptions::new(2);
    let new = map_nest(&nest, &opts).unwrap();
    let old = map_nest_reference(&nest, &opts);
    assert_identical("chained_stencil n=200", &new, &old);

    let local = new
        .outcomes
        .iter()
        .filter(|o| matches!(o, CommOutcome::Local))
        .count();
    // Each statement reads its predecessor's array (local along the chain)
    // and the shared array g; one of the two per statement is zeroed.
    assert_eq!(new.outcomes.len(), nest.accesses.len());
    let frac = local as f64 / new.outcomes.len() as f64;
    assert!(
        (0.45..=0.75).contains(&frac),
        "chained stencil local fraction drifted: {local}/{} = {frac:.3}",
        new.outcomes.len()
    );
}

/// Golden test: the 200-statement pipeline family (3-D statements, flat
/// and square accesses mixed) through both paths.
#[test]
fn golden_pipeline_200() {
    let nest = pipeline_nest(200, 8);
    let opts = MappingOptions::new(2);
    let new = map_nest(&nest, &opts).unwrap();
    let old = map_nest_reference(&nest, &opts);
    assert_identical("pipeline n=200", &new, &old);
}
