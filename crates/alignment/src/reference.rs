//! Seed (pre-optimization) alignment computation, kept as a
//! proof-of-equivalence oracle — see `rescomm_accessgraph::reference` for
//! the pattern.
//!
//! The optimized [`crate::compute_alignment`] replaced the
//! `HashMap<Vertex, _>` allocation/offset bookkeeping with dense
//! `StmtId`/`ArrayId`-indexed tables and hoisted the per-edge `M_x·c`
//! product out of the offset fixpoint sweeps. This function preserves the
//! original algorithm verbatim (up to materializing the same dense
//! [`Alignment`] struct at the end, which did not exist then, reading
//! the relative matrices from the vertex-indexed [`Components::rel`]
//! through a [`MatTable`], and checking the offset chase as the fast path
//! does) so
//! differential tests and `pipeline_baseline` can check — and time — old
//! versus new on the same inputs.

use crate::{canonical, Alignment, Alloc, OFFSET_OVERFLOW};
use rescomm_accessgraph::{AccessGraph, Augmented, Components, Vertex};
use rescomm_intlin::{left_kernel_basis, IMat, MatTable};
use rescomm_loopnest::{ArrayId, LoopNest, StmtId};
use std::collections::HashMap;

/// Seed `compute_alignment`: per-vertex `HashMap`s for allocations,
/// component indices and offsets, with `M_x·c` recomputed (behind a
/// matrix clone) on every fixpoint sweep.
pub fn compute_alignment_reference(
    nest: &LoopNest,
    graph: &AccessGraph,
    components: &Components,
    augmented: &Augmented,
    mats: &MatTable,
) -> Alignment {
    let m = graph.m;
    let mut allocs: HashMap<Vertex, Alloc> = HashMap::new();
    let mut component_of: HashMap<Vertex, usize> = HashMap::new();

    for (ci, comp) in components.list.iter().enumerate() {
        // Seed the root.
        let root_dim = match comp.root {
            Vertex::Stmt(s) => nest.statement(s).depth,
            Vertex::Array(x) => nest.array(x).dim,
        };
        let seed = match augmented
            .root_constraints
            .get(graph.vertex_index(comp.root))
        {
            Some(k) => {
                let basis =
                    left_kernel_basis(k).expect("augment accepted an infeasible constraint");
                assert!(basis.rows() >= m, "constraint kernel too small");
                basis.submatrix(0, m, 0, basis.cols())
            }
            None => IMat::from_fn(m.min(root_dim), root_dim, |i, j| i64::from(i == j)),
        };
        for &v in &comp.members {
            component_of.insert(v, ci);
        }
        for &w in &comp.members {
            allocs.insert(
                w,
                Alloc {
                    mat: &seed * &mats[components.rel[graph.vertex_index(w)]],
                    rho: Vec::new(), // filled below
                },
            );
        }
        let mut rho: HashMap<Vertex, Vec<i64>> = HashMap::new();
        rho.insert(comp.root, vec![0; m.min(root_dim)]);
        let mut progress = true;
        while progress {
            progress = false;
            for &eid in &comp.edges {
                let e = &graph.edges[eid.0];
                let acc = nest.access(e.access);
                let (xv, sv) = match (e.from, e.to) {
                    (Vertex::Array(x), Vertex::Stmt(st)) => (Vertex::Array(x), Vertex::Stmt(st)),
                    (Vertex::Stmt(st), Vertex::Array(x)) => (Vertex::Array(x), Vertex::Stmt(st)),
                    _ => unreachable!("access graph is bipartite"),
                };
                let mx = allocs[&xv].mat.clone();
                let mc = mx.mul_vec(&acc.c);
                match (rho.contains_key(&xv), rho.contains_key(&sv)) {
                    (true, false) => {
                        let rx = &rho[&xv];
                        let rs: Vec<i64> = mc
                            .iter()
                            .zip(rx)
                            .map(|(&a, &b)| a.checked_add(b).expect(OFFSET_OVERFLOW))
                            .collect();
                        rho.insert(sv, rs);
                        progress = true;
                    }
                    (false, true) => {
                        let rs = &rho[&sv];
                        let rx: Vec<i64> = rs
                            .iter()
                            .zip(&mc)
                            .map(|(&a, &b)| a.checked_sub(b).expect(OFFSET_OVERFLOW))
                            .collect();
                        rho.insert(xv, rx);
                        progress = true;
                    }
                    _ => {}
                }
            }
        }
        for w in &comp.members {
            let alloc = allocs.get_mut(w).expect("member has an allocation");
            if alloc.rho.is_empty() {
                alloc.rho = rho
                    .get(w)
                    .cloned()
                    .unwrap_or_else(|| vec![0; alloc.mat.rows()]);
            }
        }
    }

    let stmt_alloc: Vec<Alloc> = (0..nest.statements.len())
        .map(|i| {
            let v = Vertex::Stmt(StmtId(i));
            allocs
                .get(&v)
                .cloned()
                .unwrap_or_else(|| canonical(m, nest.statements[i].depth))
        })
        .collect();
    let array_alloc: Vec<Alloc> = (0..nest.arrays.len())
        .map(|i| {
            let v = Vertex::Array(ArrayId(i));
            allocs
                .get(&v)
                .cloned()
                .unwrap_or_else(|| canonical(m, nest.arrays[i].dim))
        })
        .collect();

    // Same struct as the optimized path (dense component bookkeeping is
    // output format, not algorithm).
    let mut comp_of_stmt: Vec<Option<u32>> = vec![None; nest.statements.len()];
    let mut comp_of_array: Vec<Option<u32>> = vec![None; nest.arrays.len()];
    for (v, ci) in component_of {
        match v {
            Vertex::Stmt(s) => comp_of_stmt[s.0] = Some(ci as u32),
            Vertex::Array(x) => comp_of_array[x.0] = Some(ci as u32),
        }
    }
    Alignment {
        m,
        stmt_alloc,
        array_alloc,
        comp_of_stmt,
        comp_of_array,
        n_components: components.list.len(),
    }
}
