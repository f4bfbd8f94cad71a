//! Property tests for the access graph and the maximum branching on
//! randomly generated nests.

use proptest::prelude::*;
use rescomm_accessgraph::branching::is_valid_branching;
use rescomm_accessgraph::{
    augment, component_structure, maximum_branching, AccessGraph, EdgeClasses, Vertex,
};
use rescomm_intlin::{IMat, MatTable};
use rescomm_loopnest::{Domain, LoopNest, NestBuilder};

fn random_nest() -> impl Strategy<Value = LoopNest> {
    (
        proptest::collection::vec(1usize..=3, 1..=3), // array dims
        proptest::collection::vec(2usize..=3, 1..=2), // stmt depths
        proptest::collection::vec(
            (
                0usize..100,
                0usize..100,
                proptest::collection::vec(-2i64..=2, 9),
                any::<bool>(),
            ),
            1..=6,
        ),
    )
        .prop_map(|(dims, depths, accs)| {
            let mut b = NestBuilder::new("rand");
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
            for (ai, si, coeffs, write) in accs {
                let x = arrays[ai % arrays.len()];
                let s = stmts[si % stmts.len()];
                let q = dims[ai % arrays.len()];
                let d = depths[si % stmts.len()];
                let f = IMat::from_fn(q, d, |i, j| coeffs[(i * d + j) % coeffs.len()]);
                if write {
                    b.write(s, x, f, &vec![0; q]);
                } else {
                    b.read(s, x, f, &vec![0; q]);
                }
            }
            b.build().expect("random nest valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Orientation rules of §2.2.2 hold on every edge.
    #[test]
    fn edge_orientation_rules(nest in random_nest()) {
        let g = AccessGraph::build(&nest, 2);
        for e in &g.edges {
            let acc = nest.access(e.access);
            let (q, d) = acc.f.shape();
            // Full rank ≥ m.
            prop_assert_eq!(acc.f.rank(), q.min(d));
            prop_assert!(q.min(d) >= 2);
            match (q.cmp(&d), e.from) {
                (std::cmp::Ordering::Less, Vertex::Array(_)) => {
                    // Flat: array → statement, weight = F.
                    prop_assert_eq!(g.weight(e), &acc.f);
                }
                (std::cmp::Ordering::Greater, Vertex::Stmt(_)) => {
                    // Narrow: statement → array, weight·F = Id.
                    prop_assert!((g.weight(e) * &acc.f).is_identity());
                }
                (std::cmp::Ordering::Equal, _) => {
                    prop_assert!(e.twin_of_square);
                }
                other => prop_assert!(false, "bad orientation {:?}", other),
            }
        }
    }

    /// The branching is always structurally valid and weight-maximal
    /// against brute force (on the raw integer weights).
    #[test]
    fn branching_valid_and_maximal(nest in random_nest()) {
        let g = AccessGraph::build(&nest, 2);
        let b = maximum_branching(&g);
        prop_assert!(is_valid_branching(&g, &b));
        if g.edges.len() <= 12 {
            let raw: Vec<(usize, usize, i64)> = g
                .edges
                .iter()
                .map(|e| {
                    (
                        g.vertex_index(e.from),
                        g.vertex_index(e.to),
                        e.int_weight,
                    )
                })
                .collect();
            let best = rescomm_accessgraph::branching::brute_force_branching(
                g.vertices.len(),
                &raw,
            );
            prop_assert_eq!(b.total_weight, best, "suboptimal branching");
        }
    }

    /// Components cover each vertex exactly once and the relative
    /// matrices satisfy every branching edge.
    #[test]
    fn components_consistent(nest in random_nest()) {
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let comps = component_structure(&g, &b, &nest, &mut mats);
        let rel = |v| &mats[comps.rel[g.vertex_index(v)]];
        prop_assert_eq!(comps.rel.len(), g.vertices.len());
        let mut seen = std::collections::HashSet::new();
        for c in &comps.list {
            prop_assert!(rel(c.root).is_identity(), "root {:?}", c.root);
            for &v in &c.members {
                prop_assert!(seen.insert(v), "vertex {v:?} in two components");
            }
            for &eid in &c.edges {
                let e = &g.edges[eid.0];
                prop_assert_eq!(rel(e.to).clone(), rel(e.from) * g.weight(e));
            }
        }
        prop_assert_eq!(seen.len(), g.vertices.len());
    }

    /// Whatever augment accepts as local must be certified: free edges
    /// satisfy R_u·W = R_v exactly; constrained roots keep a kernel of
    /// dimension ≥ m.
    #[test]
    fn augmentation_certificates(nest in random_nest()) {
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let comps = component_structure(&g, &b, &nest, &mut mats);
        let aug = augment(&g, &b.edges, &comps, 2, &mut mats);
        for (_, k) in aug.root_constraints.iter() {
            let basis = rescomm_intlin::left_kernel_basis(k)
                .expect("accepted constraint must have kernel");
            prop_assert!(basis.rows() >= 2);
        }
        // local ∪ residual covers all non-twin edges; no overlap.
        let locals: std::collections::HashSet<_> =
            aug.local_edges.iter().copied().collect();
        for e in &aug.residual_edges {
            prop_assert!(!locals.contains(e), "edge both local and residual");
        }
    }

    /// The indexed branching is bit-for-bit identical to the seed
    /// implementation (positional scans + per-start cycle rescans).
    #[test]
    fn branching_matches_reference(nest in random_nest()) {
        let g = AccessGraph::build(&nest, 2);
        let new = maximum_branching(&g);
        let old = rescomm_accessgraph::reference::maximum_branching_reference(&g);
        prop_assert_eq!(new, old);
    }

    /// The dense-index augment and union-find merge produce exactly the
    /// seed implementation's outcomes, locals, residuals and constraints.
    #[test]
    fn augment_and_merge_match_reference(nest in random_nest(), m in 1usize..=2) {
        use rescomm_accessgraph::reference;
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let mut comps_new = component_structure(&g, &b, &nest, &mut mats);
        let mut comps_old = comps_new.clone();
        let mut aug_new = augment(&g, &b.edges, &comps_new, m, &mut mats);
        let mut aug_old = reference::augment_reference(&g, &b.edges, &comps_old, m, &mats);
        prop_assert_eq!(&aug_new.outcomes, &aug_old.outcomes);
        prop_assert_eq!(&aug_new.local_edges, &aug_old.local_edges);
        prop_assert_eq!(&aug_new.residual_edges, &aug_old.residual_edges);
        prop_assert_eq!(&aug_new.root_constraints, &aug_old.root_constraints);
        rescomm_accessgraph::merge_cross_components(&g, &mut comps_new, &mut aug_new, m, &mut mats);
        reference::merge_cross_components_reference(&g, &mut comps_old, &mut aug_old, m, &mut mats);
        prop_assert_eq!(&aug_new.outcomes, &aug_old.outcomes);
        prop_assert_eq!(&aug_new.local_edges, &aug_old.local_edges);
        prop_assert_eq!(&aug_new.residual_edges, &aug_old.residual_edges);
        prop_assert_eq!(comps_new.list.len(), comps_old.list.len());
        for (cn, co) in comps_new.list.iter().zip(&comps_old.list) {
            prop_assert_eq!(cn.root, co.root);
            prop_assert_eq!(&cn.members, &co.members);
            prop_assert_eq!(&cn.edges, &co.edges);
        }
        prop_assert_eq!(&comps_new.rel, &comps_old.rel);
    }
}
