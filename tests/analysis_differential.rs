//! Differential tests for the front-end optimization: the optimized
//! passes (`map_nest`, and `map_nest_with` under a warm shared
//! [`AnalysisCache`]) must classify exactly like the seed implementation
//! (`map_nest_reference`: positional vertex scans, per-start cycle
//! rescans, O(E²) twin marking, per-residual reduction rescans, a second
//! locality test and detection per access, no memoization) on every
//! nest — random small nests and the large synthetic families alike.
//! The printers' per-statement access table is pinned against the
//! per-statement scan it replaced.

use proptest::prelude::*;
use rescomm::{map_nest, map_nest_reference, map_nest_with, AnalysisCache};
use rescomm::{CommOutcome, Mapping, MappingOptions};
use rescomm_bench::workload::kernel_zoo;
use rescomm_intlin::IMat;
use rescomm_loopnest::examples::{chained_stencil_nest, pipeline_nest};
use rescomm_loopnest::{
    examples, to_text, Access, AccessId, AccessKind, Domain, LoopNest, NestBuilder, StmtId,
};

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
/// (dims 1–3) and 2–7 affine reads, writes and reductions with small
/// coefficients — same family as `cross_crate_invariants`, slightly wider.
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
                0usize..3,
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
            for (ai, si, coeffs, offs, kind) in accs {
                let x = arrays[ai % arrays.len()];
                let s = stmts[si % stmts.len()];
                let q = dims[ai % arrays.len()];
                let d = depths[si % stmts.len()];
                let f = IMat::from_fn(q, d, |i, j| coeffs[(i * d + j) % coeffs.len()]);
                let c: Vec<i64> = (0..q).map(|i| offs[i % offs.len()]).collect();
                match kind {
                    0 => b.read(s, x, f, &c),
                    1 => b.write(s, x, f, &c),
                    _ => b.reduce(s, x, f, &c),
                };
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

/// A nest whose mapping panics part-way (the alignment's offset chase
/// leaves `i64` after the graph, the components and augment have filled
/// the matrix table), so the map fails with an analysis error.
fn offset_overflow_nest() -> LoopNest {
    let mut b = NestBuilder::new("offset-edge");
    let a = b.array("a", 2);
    let out = b.array("b", 2);
    let s = b.statement("S", 2, Domain::cube(2, 2));
    b.read(s, a, IMat::identity(2), &[i64::MIN, 0]);
    b.write(s, out, IMat::identity(2), &[1, 0]);
    b.build().expect("offset nest validates")
}

/// `map_nest_with` through `cache`, with an error as its message, so an
/// analysis error compares like a mapping.
fn map_through(
    nest: &LoopNest,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
) -> Result<Mapping, String> {
    map_nest_with(nest, opts, cache).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One cache shared across a sequence of different nests, mixing
    /// `m = 2` and `m = 3`, cleared once midway and fed one nest whose
    /// map panics part-way and fails: every mapping (or error) equals
    /// the nest's mapping through a fresh cache, so nothing one nest
    /// leaves in the matrix table or the memos leaks into the next.
    #[test]
    fn shared_cache_across_distinct_nests_matches_fresh(
        nests in proptest::collection::vec(small_nest(), 3..=8),
        ms in proptest::collection::vec(2usize..=3, 8),
        clear_at in 0usize..8,
        panic_at in 0usize..8,
    ) {
        let mut shared = AnalysisCache::new();
        let mut failed = false;
        for (i, nest) in nests.iter().enumerate() {
            if i == clear_at % nests.len() {
                shared.clear();
                prop_assert!(shared.is_empty());
            }
            if i == panic_at % nests.len() {
                let hostile = offset_overflow_nest();
                let opts = MappingOptions::new(2);
                let got = map_through(&hostile, &opts, &mut shared);
                prop_assert!(got.is_err(), "the offset nest must fail");
                prop_assert_eq!(got.err(), map_through(&hostile, &opts, &mut AnalysisCache::new()).err());
                failed = true;
            }
            let opts = MappingOptions::new(ms[i]);
            let got = map_through(nest, &opts, &mut shared);
            let fresh = map_through(nest, &opts, &mut AnalysisCache::new());
            match (&got, &fresh) {
                (Ok(g), Ok(f)) => {
                    assert_identical(&format!("nest {i}, m = {}", ms[i]), g, f);
                    prop_assert_eq!(&g.incidents, &f.incidents);
                }
                _ => prop_assert_eq!(got.err(), fresh.err()),
            }
        }
        prop_assert!(failed);
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

/// Every nest of the kernel zoo (the textbook nests of
/// [`rescomm_loopnest::examples`]) at size 6.
fn zoo_nests() -> Vec<LoopNest> {
    vec![
        examples::motivating_example(6, 4).0,
        examples::example2_broadcast(6),
        examples::example3_gather(6),
        examples::example4_reduction(6),
        examples::example5_platonoff(6).0,
        examples::matmul(6),
        examples::gauss_elim(6),
        examples::jacobi2d(6),
        examples::transpose(6),
        examples::syrk(6),
        examples::stencil1d(6, 4),
        examples::gauss_triangular(6),
        examples::adi_sweep(6),
    ]
}

/// `nest` with its access list reversed (ids renumbered), so each
/// statement's accesses interleave with every other statement's.
fn reversed_accesses(nest: &LoopNest) -> LoopNest {
    let mut out = nest.clone();
    out.accesses = nest
        .accesses
        .iter()
        .rev()
        .enumerate()
        .map(|(i, a)| Access {
            id: AccessId(i),
            ..a.clone()
        })
        .collect();
    out
}

/// The printer as it was before the per-statement access table: every
/// statement rescans the whole access list.
fn to_text_by_scan(nest: &LoopNest) -> String {
    let row = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
    let mut out = format!("nest {}\n", nest.name);
    for a in &nest.arrays {
        out += &format!("array {} {}\n", a.name, a.dim);
    }
    for (si, st) in nest.statements.iter().enumerate() {
        let ranges: Vec<String> = (0..st.depth)
            .map(|k| format!("{}..{}", st.domain.lo(k), st.domain.hi(k)))
            .collect();
        out += &format!(
            "stmt {} depth {} domain {}\n",
            st.name,
            st.depth,
            ranges.join(" ")
        );
        if !st.schedule.is_parallel() {
            let theta = st.schedule.theta();
            let mark = if theta.rows() == 1 {
                ""
            } else {
                " # (first row of a multidim schedule)"
            };
            out += &format!("  schedule linear {}{mark}\n", row(theta.row(0)));
        }
        for (g, b) in st.domain.guards() {
            out += &format!("  guard {} <= {b}\n", row(g));
        }
        for acc in nest.accesses.iter().filter(|a| a.stmt == StmtId(si)) {
            let kw = match acc.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
                AccessKind::Reduce => "reduce",
            };
            let rows: Vec<String> = (0..acc.f.rows()).map(|i| row(acc.f.row(i))).collect();
            out += &format!(
                "  {kw} {} [{}] + [{}]\n",
                nest.array(acc.array).name,
                rows.join("; "),
                row(&acc.c)
            );
        }
    }
    out
}

/// `Display for LoopNest` as it was before the per-statement access
/// table.
fn display_by_scan(nest: &LoopNest) -> String {
    let mut out = format!("nest {}:\n", nest.name);
    for (si, st) in nest.statements.iter().enumerate() {
        out += &format!("  {} (depth {}):\n", st.name, st.depth);
        for a in nest.accesses.iter().filter(|a| a.stmt == StmtId(si)) {
            let kind = match a.kind {
                AccessKind::Read => "read ",
                AccessKind::Write => "write",
                AccessKind::Reduce => "reduce",
            };
            out += &format!(
                "    {kind} {}[F{}·I + {:?}]\n",
                nest.array(a.array).name,
                a.id.0,
                a.c
            );
        }
    }
    out
}

/// `to_text` and `Display` print byte-identically to the per-statement
/// scan on the kernel zoo and the 200-statement synthetic families, also
/// with every statement's accesses interleaved.
#[test]
fn printers_match_the_per_statement_scan() {
    let mut nests = zoo_nests();
    nests.push(chained_stencil_nest(200, 8));
    nests.push(pipeline_nest(200, 8));
    let interleaved: Vec<LoopNest> = nests.iter().map(reversed_accesses).collect();
    for nest in nests.iter().chain(&interleaved) {
        assert_eq!(
            to_text(nest),
            to_text_by_scan(nest),
            "to_text: {}",
            nest.name
        );
        assert_eq!(
            nest.to_string(),
            display_by_scan(nest),
            "Display: {}",
            nest.name
        );
    }
}

/// A one-statement nest whose residual has dataflow matrix `t` (or its
/// inverse, whichever side the branching zeroes): the statement writes
/// `x[I]` and reads `x[t⁻¹·I]`.
fn dataflow_nest(name: &str, t: &IMat) -> LoopNest {
    let n = t.rows();
    let mut b = NestBuilder::new(name);
    let x = b.array("x", n);
    let s = b.statement("S", n, Domain::cube(n, 6));
    b.write(s, x, IMat::identity(n), &vec![0; n]);
    let tinv = t.inverse_unimodular().expect("unimodular dataflow matrix");
    b.read(s, x, tinv, &vec![0; n]);
    b.build().expect("dataflow nest valid")
}

/// The unirow-decomposition memo is outcome-transparent: the Fig. 8
/// shears `U(k)`, the kernel-zoo dataflow matrices (plus reflections that
/// take the `det ≠ 1` unirow path on 2-D and 3-D grids) and the kernel-zoo
/// nests map through one warm [`AnalysisCache`], twice over, exactly as
/// `map_nest_reference` maps them, computing every decomposition afresh.
#[test]
fn warm_decomposition_memo_is_outcome_transparent() {
    let mut nests: Vec<(LoopNest, usize)> = (1..=8)
        .map(|k| {
            let u = IMat::from_rows(&[&[1, k], &[0, 1]]);
            (dataflow_nest(&format!("U({k})"), &u), 2)
        })
        .collect();
    for k in kernel_zoo() {
        nests.push((dataflow_nest(k.name, &k.t), 2));
    }
    for (name, t) in [
        ("reflect2", IMat::from_rows(&[&[1, 1], &[0, -1]])),
        ("reflect2b", IMat::from_rows(&[&[-1, 2], &[0, 1]])),
        (
            "reflect3",
            IMat::from_rows(&[&[1, 1, 0], &[0, -1, 0], &[0, 0, 1]]),
        ),
    ] {
        let m = t.rows();
        nests.push((dataflow_nest(name, &t), m));
    }
    nests.extend(zoo_nests().into_iter().map(|n| (n, 2)));

    let mut warm = AnalysisCache::new();
    let mut unirow = 0;
    for pass in 0..2 {
        for (nest, m) in &nests {
            let opts = MappingOptions::new(*m);
            let fresh = map_nest_reference(nest, &opts);
            let cached = map_nest_with(nest, &opts, &mut warm).unwrap();
            assert_identical(&format!("{} pass {pass}", nest.name), &cached, &fresh);
            unirow += cached
                .outcomes
                .iter()
                .filter(|o| matches!(o, CommOutcome::DecomposedGeneral { .. }))
                .count();
        }
    }
    assert!(unirow >= 4, "the unirow path must be exercised: {unirow}");
}
