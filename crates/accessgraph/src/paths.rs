//! Components of a branching and relative alignment matrices.
//!
//! Inside one connected component of the chosen branching, every
//! allocation matrix is determined by the component root's matrix:
//! following the tree edges, `M_v = M_root · R_v` where `R_v` is the
//! product of the weight matrices along the root→v path (`R_root = Id`).
//! This is the paper's observation that alignment matrices are fixed *up
//! to left-multiplication by a unimodular matrix* per component (§2.3
//! remark) — later exploited to rotate broadcasts onto grid axes and to
//! massage dataflow matrices into decomposable similarity classes.

use crate::branching::Branching;
use crate::graph::{AccessGraph, EdgeId, Vertex};
use rescomm_intlin::{IMat, MatId, MatTable};
use rescomm_loopnest::LoopNest;

/// One connected component of the branching forest.
#[derive(Debug, Clone)]
pub struct Component {
    /// The root vertex (no incoming branching edge).
    pub root: Vertex,
    /// All member vertices, root first, in traversal order.
    pub members: Vec<Vertex>,
    /// The branching edges inside this component.
    pub edges: Vec<EdgeId>,
}

/// The components of a branching with their relative matrices.
///
/// Components are vertex-disjoint and cover every vertex, so one
/// vertex-indexed table holds every `R_v`: augmentation, merging and
/// alignment read it by [`AccessGraph::vertex_index`], and a merge
/// rebases the absorbed vertices in place.
#[derive(Debug, Clone)]
pub struct Components {
    /// The components, ordered by root vertex index; merging drops the
    /// absorbed ones.
    pub list: Vec<Component>,
    /// `R_v` per vertex index, as its id in the table the components were
    /// built in: `M_v = M_root · R_v` for the root of `v`'s component
    /// (`R_root = Id`).
    pub rel: Vec<MatId>,
}

/// Split the branching into its connected components and compute the
/// relative matrices along the tree paths, in `mats` (the table `graph`
/// was built in): each `R_v = R_u·W` is a memoized id product.
///
/// The children of every vertex sit in one CSR table (an offsets array
/// over the branching edges, in edge order), and the traversal reuses one
/// stack across all roots, so the only per-component allocations are the
/// exact-size `members` and `edges` lists.
pub fn component_structure(
    graph: &AccessGraph,
    branching: &Branching,
    nest: &LoopNest,
    mats: &mut MatTable,
) -> Components {
    graph.check_table(mats);
    let n = graph.vertices.len();
    let mut has_parent = vec![false; n];
    // `child_start[v]..child_start[v + 1]` indexes `child_edge` for the
    // branching edges leaving vertex `v`.
    let mut child_start = vec![0u32; n + 1];
    for &eid in &branching.edges {
        let e = &graph.edges[eid.0];
        let ti = graph.vertex_index(e.to);
        assert!(!has_parent[ti], "branching has in-degree > 1 at {:?}", e.to);
        has_parent[ti] = true;
        child_start[graph.vertex_index(e.from) + 1] += 1;
    }
    for v in 0..n {
        child_start[v + 1] += child_start[v];
    }
    let mut child_edge = vec![EdgeId(0); branching.edges.len()];
    let mut cursor = child_start.clone();
    for &eid in &branching.edges {
        let fi = graph.vertex_index(graph.edges[eid.0].from);
        child_edge[cursor[fi] as usize] = eid;
        cursor[fi] += 1;
    }
    // Vertex dimension hint from the first incident edge (one pass over
    // all edges instead of one scan per root): for `u → v`, `W` is
    // `dim(u) × dim(v)`.
    let mut dim_hint: Vec<Option<usize>> = vec![None; n];
    for e in &graph.edges {
        let fi = graph.vertex_index(e.from);
        if dim_hint[fi].is_none() {
            dim_hint[fi] = Some(graph.weight(e).rows());
        }
        let ti = graph.vertex_index(e.to);
        if dim_hint[ti].is_none() {
            dim_hint[ti] = Some(graph.weight(e).cols());
        }
    }

    let unset = mats.intern(&IMat::zeros(0, 0));
    let mut rel = vec![unset; n];
    let mut list = Vec::new();
    let mut members: Vec<Vertex> = Vec::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for (ri, &root) in graph.vertices.iter().enumerate() {
        if has_parent[ri] {
            continue; // not a root
        }
        // R_root = identity of the root's dimension, derived from any
        // incident weight matrix; fall back to the vertex dimension for
        // isolated vertices.
        let root_dim = dim_hint[ri].unwrap_or_else(|| graph.vertex_dim(nest, root));
        rel[ri] = mats.intern(&IMat::identity(root_dim));
        members.clear();
        edges.clear();
        members.push(root);
        stack.push(ri);
        while let Some(ui) = stack.pop() {
            let (a, b) = (child_start[ui] as usize, child_start[ui + 1] as usize);
            for &eid in &child_edge[a..b] {
                let e = &graph.edges[eid.0];
                let ci = graph.vertex_index(e.to);
                rel[ci] = mats.mul(rel[ui], graph.weight_id(e));
                members.push(e.to);
                edges.push(eid);
                stack.push(ci);
            }
        }
        list.push(Component {
            root,
            members: members.clone(),
            edges: edges.clone(),
        });
    }
    Components { list, rel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branching::maximum_branching;
    use crate::graph::{AccessGraph, EdgeClasses};
    use rescomm_intlin::MatTable;
    use rescomm_loopnest::examples;

    #[test]
    fn motivating_example_single_component() {
        let (nest, _) = examples::motivating_example(8, 4);
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let cs = component_structure(&g, &b, &nest, &mut mats);
        assert_eq!(cs.list.len(), 1, "all six vertices align into one tree");
        let c = &cs.list[0];
        assert_eq!(c.members.len(), 6);
        assert_eq!(c.edges.len(), 5);
        // Root relative matrix is the identity.
        assert!(mats[cs.rel[g.vertex_index(c.root)]].is_identity());
    }

    #[test]
    fn relative_matrices_compose_edge_weights() {
        let (nest, _) = examples::motivating_example(8, 4);
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let cs = component_structure(&g, &b, &nest, &mut mats);
        let rel = |v| &mats[cs.rel[g.vertex_index(v)]];
        // Every branching edge u→v must satisfy R_v = R_u · W.
        for &eid in &cs.list[0].edges {
            let e = &g.edges[eid.0];
            assert_eq!(*rel(e.to), rel(e.from) * g.weight(e));
        }
    }

    #[test]
    fn relative_matrices_have_full_row_rank() {
        // Lemma 1 chain: all R_v keep rank = root_dim, so any full-rank
        // seed M_root yields full-rank allocations.
        let (nest, _) = examples::motivating_example(8, 4);
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let cs = component_structure(&g, &b, &nest, &mut mats);
        let c = &cs.list[0];
        let root_dim = mats[cs.rel[g.vertex_index(c.root)]].rows();
        for &v in &c.members {
            let r = &mats[cs.rel[g.vertex_index(v)]];
            assert_eq!(r.rank(), root_dim, "R for {v:?} lost rank: {r:?}");
        }
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        use rescomm_loopnest::{Domain, NestBuilder};
        let mut bld = NestBuilder::new("iso");
        let _x = bld.array("x", 2);
        let _y = bld.array("y", 2);
        let _s = bld.statement("S", 2, Domain::cube(2, 4));
        let nest = bld.build().unwrap();
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let cs = component_structure(&g, &b, &nest, &mut mats);
        assert_eq!(cs.list.len(), 3);
        assert!(cs.list.iter().all(|c| c.members.len() == 1));
    }

    #[test]
    fn matmul_components() {
        let nest = examples::matmul(4);
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let cs = component_structure(&g, &b, &nest, &mut mats);
        // One edge chosen: one 2-vertex component + two singletons.
        assert_eq!(cs.list.len(), 3);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = cs.list.iter().map(|c| c.members.len()).collect();
            v.sort();
            v
        };
        assert_eq!(sizes, vec![1, 1, 2]);
    }
}
