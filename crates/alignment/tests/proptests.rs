//! Property tests for the alignment on randomly generated nests: the
//! dense `compute_alignment` against the seed implementation, and the
//! locality every chosen edge must end with.

use proptest::prelude::*;
use rescomm_accessgraph::{
    augment, component_structure, maximum_branching, merge_cross_components, AccessGraph,
    AugmentOutcome, EdgeClasses,
};
use rescomm_alignment::reference::compute_alignment_reference;
use rescomm_alignment::{compute_alignment, Alignment, AllocIds};
use rescomm_intlin::{IMat, MatTable};
use rescomm_loopnest::{Domain, LoopNest, NestBuilder};

/// Nests of 1–3 arrays and 1–3 statements with up to 8 accesses whose
/// matrices have small entries and whose offsets are nonzero, so the
/// offset fixpoint has work to do.
fn random_nest() -> impl Strategy<Value = LoopNest> {
    (
        proptest::collection::vec(1usize..=3, 1..=3), // array dims
        proptest::collection::vec(2usize..=3, 1..=3), // stmt depths
        proptest::collection::vec(
            (
                0usize..100,
                0usize..100,
                proptest::collection::vec(-2i64..=2, 9),
                proptest::collection::vec(-3i64..=3, 3),
                any::<bool>(),
            ),
            1..=8,
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
            for (ai, si, coeffs, offset, write) in accs {
                let x = arrays[ai % arrays.len()];
                let s = stmts[si % stmts.len()];
                let q = dims[ai % arrays.len()];
                let d = depths[si % stmts.len()];
                let f = IMat::from_fn(q, d, |i, j| coeffs[(i * d + j) % coeffs.len()]);
                if write {
                    b.write(s, x, f, &offset[..q]);
                } else {
                    b.read(s, x, f, &offset[..q]);
                }
            }
            b.build().expect("random nest valid")
        })
}

fn assert_same(new: &Alignment, old: &Alignment) -> Result<(), String> {
    prop_assert_eq!(new.m, old.m);
    prop_assert_eq!(&new.stmt_alloc, &old.stmt_alloc);
    prop_assert_eq!(&new.array_alloc, &old.array_alloc);
    prop_assert_eq!(&new.comp_of_stmt, &old.comp_of_stmt);
    prop_assert_eq!(&new.comp_of_array, &old.comp_of_array);
    prop_assert_eq!(new.n_components, old.n_components);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat-buffer alignment equals the seed's `HashMap` alignment
    /// before and after merging, and every edge augment or merge made
    /// local is local under it: the branching's and the merged edges
    /// fully (offsets included), free and constrained ones linearly.
    #[test]
    fn alignment_matches_reference_and_keeps_locals(nest in random_nest(), m in 1usize..=2) {
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, m, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let mut comps = component_structure(&g, &b, &nest, &mut mats);
        let mut aug = augment(&g, &b.edges, &comps, m, &mut mats);
        assert_same(
            &compute_alignment(&nest, &g, &comps, &aug, &mut mats).0,
            &compute_alignment_reference(&nest, &g, &comps, &aug, &mats),
        )?;
        merge_cross_components(&g, &mut comps, &mut aug, m, &mut mats);
        let (al, ids) = compute_alignment(&nest, &g, &comps, &aug, &mut mats);
        assert_same(&al, &compute_alignment_reference(&nest, &g, &comps, &aug, &mats))?;
        // The ids that come back are the allocations' own.
        let interned = AllocIds::intern(&al, &mut mats);
        prop_assert_eq!(&ids.stmt, &interned.stmt);
        prop_assert_eq!(&ids.array, &interned.array);

        for c in &comps.list {
            for &eid in &c.edges {
                let acc = nest.access(g.edges[eid.0].access);
                prop_assert!(al.is_local(&nest, acc), "tree or merged edge {eid:?} not local");
            }
        }
        for (eid, o) in &aug.outcomes {
            if matches!(o, AugmentOutcome::Free | AugmentOutcome::Constrained) {
                let acc = nest.access(g.edges[eid.0].access);
                prop_assert!(al.is_linear_local(&nest, acc), "{o:?} edge {eid:?} not local");
            }
        }
    }
}
