//! End-to-end integration test for the §2 motivating example: every
//! claim of the paper's worked narrative, across all crates.

use rescomm::substrate::accessgraph::{
    augment, component_structure, maximum_branching, AccessGraph, EdgeClasses,
};
use rescomm::substrate::alignment::{compute_alignment, residual_communications};
use rescomm::substrate::intlin::MatTable;
use rescomm::{map_nest, CommOutcome, MappingOptions};
use rescomm_bench::workload::{mapping_cost_on_mesh, paragon_mesh};
use rescomm_loopnest::deps::is_doall;
use rescomm_loopnest::examples::motivating_example;

#[test]
fn nest_is_doall_as_claimed() {
    let (nest, _) = motivating_example(4, 2);
    assert!(
        is_doall(&nest).unwrap(),
        "§2: no data dependences in the nest"
    );
}

#[test]
fn figure1_access_graph() {
    // Fig. 1: 6 vertices; the rank-deficient access is not represented.
    let (nest, ids) = motivating_example(8, 4);
    let g = AccessGraph::build(&nest, 2);
    assert_eq!(g.vertices.len(), 6);
    assert_eq!(g.represented_accesses(), 7);
    assert_eq!(g.excluded.len(), 1);
    assert_eq!(g.excluded[0].0, ids.f8);
}

#[test]
fn figure2_integer_weights() {
    // Fig. 2: weight = rank of the access matrix; the two depth-3 square
    // accesses weigh 3, everything else 2.
    let (nest, ids) = motivating_example(8, 4);
    let g = AccessGraph::build(&nest, 2);
    for e in &g.edges {
        let want = nest.access(e.access).f.rank() as i64;
        assert_eq!(e.int_weight, want);
    }
    let w = |a| g.edges.iter().find(|e| e.access == a).unwrap().int_weight;
    assert_eq!(w(ids.f5), 3);
    assert_eq!(w(ids.f7), 3);
    assert_eq!(w(ids.f1), 2);
}

#[test]
fn figure3_maximum_branching() {
    // Fig. 3: 5 of the 7 represented communications become local, and the
    // two maximum-weight edges are among them.
    let (nest, ids) = motivating_example(8, 4);
    let g = AccessGraph::build(&nest, 2);
    let b = maximum_branching(&g);
    assert_eq!(b.edges.len(), 5);
    assert_eq!(b.total_weight, 12);
    let accs: Vec<_> = b.edges.iter().map(|e| g.edges[e.0].access).collect();
    assert!(accs.contains(&ids.f5));
    assert!(accs.contains(&ids.f7));
}

#[test]
fn single_connected_component() {
    let (nest, _) = motivating_example(8, 4);
    let mut mats = MatTable::new();
    let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
    let b = maximum_branching(&g);
    let comps = component_structure(&g, &b, &nest, &mut mats);
    assert_eq!(comps.list.len(), 1);
    assert_eq!(comps.list[0].members.len(), 6);
}

#[test]
fn residuals_before_step2() {
    let (nest, ids) = motivating_example(8, 4);
    let mut mats = MatTable::new();
    let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
    let b = maximum_branching(&g);
    let comps = component_structure(&g, &b, &nest, &mut mats);
    let aug = augment(&g, &b.edges, &comps, 2, &mut mats);
    let (al, _) = compute_alignment(&nest, &g, &comps, &aug, &mut mats);
    let res = residual_communications(&nest, &al);
    let accs: Vec<_> = res.iter().map(|r| r.access).collect();
    assert_eq!(accs.len(), 3);
    assert!(accs.contains(&ids.f3));
    assert!(accs.contains(&ids.f6));
    assert!(accs.contains(&ids.f8));
}

#[test]
fn section2_final_tally() {
    // "we finally obtain … 5 local communications, one broadcast and one
    // residual communication that can be decomposed into two elementary
    // communications" — plus the footnoted F8 broadcast.
    let (nest, ids) = motivating_example(8, 4);
    let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
    let r = mapping.report(&nest);
    assert_eq!(r.n_local, 5);
    assert_eq!(r.n_broadcast, 2);
    assert_eq!(r.n_decomposed, 1);
    assert_eq!(r.n_factors, 2);
    assert_eq!(r.n_general, 0);
    // The broadcast needed exactly one unimodular rotation of the (single)
    // component.
    assert_eq!(mapping.rotations.len(), 1);
    let v = mapping.rotations.values().next().unwrap();
    assert!(rescomm::substrate::intlin::is_unimodular(v));
    // F3 decomposes into exactly L·U (two factors).
    match &mapping.outcomes[ids.f3.0] {
        CommOutcome::Decomposed { factors, .. } => assert_eq!(factors.len(), 2),
        other => panic!("F3: {other:?}"),
    }
}

#[test]
fn locality_survives_everything() {
    // After branching, augmentation, rotation: the five local accesses
    // have exactly zero communication distance at every iteration point.
    let (nest, ids) = motivating_example(4, 2);
    let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
    for fid in [ids.f1, ids.f2, ids.f4, ids.f5, ids.f7] {
        let acc = nest.access(fid);
        let dom = &nest.statement(acc.stmt).domain;
        for p in dom.points() {
            let d = mapping.alignment.comm_distance(&nest, acc, &p);
            assert_eq!(d, vec![0, 0], "access {fid:?} at {p:?}");
        }
    }
}

#[test]
fn two_step_beats_step1_on_simulated_mesh() {
    let (nest, _) = motivating_example(8, 4);
    let mesh = paragon_mesh();
    let ours = map_nest(&nest, &MappingOptions::new(2)).unwrap();
    let step1 = rescomm::baselines::feautrier_map(&nest, 2).unwrap();
    let c_ours = mapping_cost_on_mesh(&nest, &ours, &mesh, (32, 16), 256);
    let c_step1 = mapping_cost_on_mesh(&nest, &step1, &mesh, (32, 16), 256);
    assert!(
        c_ours < c_step1,
        "residual optimization must pay off: {c_ours} vs {c_step1}"
    );
}

#[test]
fn strategy_and_ablation_rows_match_experiments_md() {
    // EXPERIMENTS.md's motivating-example and ablation tables: counts are
    // (local, macro, decomposed, general), times are estimated ns and the
    // compiled plan's phased makespan in ns, both on the 8×4 mesh with
    // CYCLIC over 32×16 at 256 B.
    let got: Vec<_> = rescomm_bench::motivating(256)
        .into_iter()
        .map(|r| (r.strategy, r.counts, r.est_time, r.compiled_time))
        .collect();
    assert_eq!(
        got,
        [
            ("two-step heuristic", [5, 2, 1, 0], 798_352, 6_189_256),
            (
                "step 1 only (greedy zeroing)",
                [5, 0, 0, 3],
                2_098_960,
                6_061_424
            ),
            (
                "Platonoff (macro-first)",
                [4, 1, 0, 3],
                2_150_256,
                10_637_032
            ),
            (
                "macro-only (no decomposition)",
                [5, 2, 0, 1],
                879_552,
                6_351_952
            ),
            (
                "decompose-only (no macro)",
                [5, 0, 1, 2],
                2_510_512,
                6_409_312
            ),
        ]
    );
}
