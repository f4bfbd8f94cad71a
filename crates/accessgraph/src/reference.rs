//! Seed (pre-optimization) implementations of the graph passes, kept as
//! proof-of-equivalence oracles.
//!
//! The optimized passes in [`crate::branching`] and [`crate::augment`](mod@crate::augment)
//! replaced positional vertex scans, per-start cycle rescans, the O(E²)
//! twin marking and the per-merge residual retains with dense indices and
//! a union-find. These functions preserve the original algorithms verbatim
//! (up to the `Augmented` index bookkeeping, which did not exist then, and
//! the vertex-indexed relative-matrix and root-constraint tables, which
//! are data layout; the relative matrices are ids read through a
//! [`MatTable`] and edge weights are read with [`AccessGraph::weight`]) so differential property tests and the
//! `pipeline_baseline` bin can check — and time — old versus new on the
//! same inputs. Feasibility stays the seed's kernel-basis test and merging
//! the seed's full solution family, the oracles of the rank test and the
//! particular-only solve.

use crate::branching::Branching;
use crate::graph::{AccessGraph, EdgeId, Vertex};
use crate::paths::Components;
use crate::{AugmentOutcome, Augmented, RootConstraints};
use rescomm_intlin::{left_kernel_basis, solve_xf_eq_s, IMat, MatTable};
use std::collections::HashMap;

/// Seed maximum branching: positional `vertices.iter().position(..)`
/// lookups, one cycle contracted per recursion level, and a fresh `seen`
/// vector per cycle-scan start vertex. The only deviation from the seed:
/// the chosen edges are sorted at the end, matching the canonical order
/// [`Branching`] now documents (the recursion emitted them in expansion
/// order; the set is identical).
pub fn maximum_branching_reference(graph: &AccessGraph) -> Branching {
    let n = graph.vertices.len();
    let position = |v: Vertex| {
        graph
            .vertices
            .iter()
            .position(|&u| u == v)
            .expect("vertex not in graph")
    };
    let raw: Vec<RawEdge> = graph
        .edges
        .iter()
        .map(|e| RawEdge {
            from: position(e.from),
            to: position(e.to),
            w: e.int_weight,
            orig: e.id.0,
            entry: None,
        })
        .collect();
    let mut chosen = max_branching_raw_ref(n, raw);
    chosen.sort_unstable();
    let total_weight = chosen.iter().map(|&i| graph.edges[i].int_weight).sum();
    Branching {
        edges: chosen.into_iter().map(EdgeId).collect(),
        total_weight,
    }
}

#[derive(Debug, Clone)]
struct RawEdge {
    from: usize,
    to: usize,
    w: i64,
    orig: usize,
    entry: Option<usize>,
}

fn max_branching_raw_ref(n: usize, edges: Vec<RawEdge>) -> Vec<usize> {
    let mut best: Vec<Option<usize>> = vec![None; n];
    for (i, e) in edges.iter().enumerate() {
        if e.w <= 0 || e.from == e.to {
            continue;
        }
        match best[e.to] {
            None => best[e.to] = Some(i),
            Some(j) => {
                let cur = &edges[j];
                if e.w > cur.w || (e.w == cur.w && e.orig < cur.orig) {
                    best[e.to] = Some(i);
                }
            }
        }
    }

    let parent = |v: usize| best[v].map(|i| edges[i].from);
    let mut cycle: Option<Vec<usize>> = None;
    'outer: for start in 0..n {
        let mut seen = vec![false; n];
        let mut v = start;
        loop {
            if seen[v] {
                let mut c = vec![v];
                let mut u = parent(v).unwrap();
                while u != v {
                    c.push(u);
                    u = parent(u).unwrap();
                }
                cycle = Some(c);
                break 'outer;
            }
            seen[v] = true;
            match parent(v) {
                Some(p) => v = p,
                None => break,
            }
        }
    }

    let Some(cyc) = cycle else {
        return best.iter().flatten().map(|&i| edges[i].orig).collect();
    };

    let in_cycle = {
        let mut m = vec![false; n];
        for &v in &cyc {
            m[v] = true;
        }
        m
    };
    let sel_weight = |v: usize| edges[best[v].unwrap()].w;
    let wmin = cyc.iter().map(|&v| sel_weight(v)).min().unwrap();

    let mut contracted: Vec<RawEdge> = Vec::with_capacity(edges.len());
    for e in &edges {
        let fu = in_cycle[e.from];
        let tv = in_cycle[e.to];
        match (fu, tv) {
            (false, false) => contracted.push(e.clone()),
            (false, true) => contracted.push(RawEdge {
                from: e.from,
                to: n,
                w: e.w - sel_weight(e.to) + wmin,
                orig: e.orig,
                entry: Some(e.to),
            }),
            (true, false) => contracted.push(RawEdge {
                from: n,
                to: e.to,
                w: e.w,
                orig: e.orig,
                entry: e.entry,
            }),
            (true, true) => {}
        }
    }

    let sub = max_branching_raw_ref(n + 1, contracted.clone());

    let entry_vertex = sub
        .iter()
        .filter_map(|&orig| {
            contracted
                .iter()
                .find(|e| e.orig == orig && e.to == n)
                .and_then(|e| e.entry)
        })
        .next();

    let mut result = sub;
    match entry_vertex {
        Some(v_in) => {
            for &v in &cyc {
                if v != v_in {
                    result.push(edges[best[v].unwrap()].orig);
                }
            }
        }
        None => {
            let drop = cyc
                .iter()
                .copied()
                .min_by_key(|&v| (sel_weight(v), edges[best[v].unwrap()].orig))
                .unwrap();
            for &v in &cyc {
                if v != drop {
                    result.push(edges[best[v].unwrap()].orig);
                }
            }
        }
    }
    result
}

/// Seed augmentation: `HashMap<Vertex, usize>` component map, `HashSet`
/// residual-access tracking, and twin marking by rescanning every edge of
/// the graph per newly-local edge (the O(E²) path).
pub fn augment_reference(
    graph: &AccessGraph,
    branching_edges: &[EdgeId],
    components: &Components,
    m: usize,
    mats: &MatTable,
) -> Augmented {
    let in_branching: Vec<bool> = {
        let mut v = vec![false; graph.edges.len()];
        for e in branching_edges {
            v[e.0] = true;
        }
        v
    };
    let mut comp_of: HashMap<Vertex, usize> = HashMap::new();
    for (ci, c) in components.list.iter().enumerate() {
        for &v in &c.members {
            comp_of.insert(v, ci);
        }
    }
    let rel = |v: Vertex| &mats[components.rel[graph.vertex_index(v)]];

    let mut outcomes = Vec::new();
    let mut local_edges: Vec<EdgeId> = branching_edges.to_vec();
    let mut residual_edges = Vec::new();
    let mut root_constraints = RootConstraints::default();
    let mut local_access: Vec<bool> = vec![false; graph.edges.len().max(1)];
    let mark_access = |local_access: &mut Vec<bool>, graph: &AccessGraph, eid: EdgeId| {
        let a = graph.edges[eid.0].access;
        for e in &graph.edges {
            if e.access == a {
                if e.id.0 >= local_access.len() {
                    local_access.resize(e.id.0 + 1, false);
                }
                local_access[e.id.0] = true;
            }
        }
    };
    for &eid in branching_edges {
        mark_access(&mut local_access, graph, eid);
    }

    let mut residual_access: std::collections::HashSet<rescomm_loopnest::AccessId> =
        std::collections::HashSet::new();

    for e in &graph.edges {
        if in_branching[e.id.0] {
            continue;
        }
        if local_access.get(e.id.0).copied().unwrap_or(false) {
            outcomes.push((e.id, AugmentOutcome::Free));
            continue;
        }
        if residual_access.contains(&e.access) {
            outcomes.push((e.id, AugmentOutcome::Residual));
            continue;
        }
        let (cu, cv) = (comp_of[&e.from], comp_of[&e.to]);
        if cu != cv {
            outcomes.push((e.id, AugmentOutcome::CrossComponent));
            residual_edges.push(e.id);
            residual_access.insert(e.access);
            continue;
        }
        let comp = &components.list[cu];
        let ru = rel(e.from);
        let rv = rel(e.to);
        let lhs = ru * graph.weight(e);
        if lhs == *rv {
            outcomes.push((e.id, AugmentOutcome::Free));
            local_edges.push(e.id);
            mark_access(&mut local_access, graph, e.id);
            continue;
        }
        let k = &lhs - rv;
        let ri = graph.vertex_index(comp.root);
        let accumulated = match root_constraints.get(ri) {
            Some(prev) => prev.hstack(&k),
            None => k.clone(),
        };
        let feasible = match left_kernel_basis(&accumulated) {
            Some(basis) => basis.rows() >= m,
            None => false,
        };
        if feasible {
            root_constraints.insert(graph.vertices.len(), ri, comp.root, accumulated);
            outcomes.push((e.id, AugmentOutcome::Constrained));
            local_edges.push(e.id);
            mark_access(&mut local_access, graph, e.id);
        } else {
            outcomes.push((e.id, AugmentOutcome::Residual));
            residual_edges.push(e.id);
            residual_access.insert(e.access);
        }
    }

    Augmented::from_parts(
        outcomes,
        local_edges,
        residual_edges,
        root_constraints,
        graph.edges.len(),
    )
}

/// Seed cross-component merging: `HashMap` component map rebuilt up front,
/// `comp_of` rewritten per moved member, and a full outcome scan plus
/// `residual_edges.retain(..)` per merged edge.
pub fn merge_cross_components_reference(
    graph: &AccessGraph,
    components: &mut Components,
    aug: &mut Augmented,
    _m: usize,
    mats: &mut MatTable,
) {
    let mut comp_of: HashMap<Vertex, usize> = HashMap::new();
    for (ci, c) in components.list.iter().enumerate() {
        for &v in &c.members {
            comp_of.insert(v, ci);
        }
    }
    let cross: Vec<EdgeId> = aug
        .outcomes
        .iter()
        .filter(|(_, o)| *o == AugmentOutcome::CrossComponent)
        .map(|(e, _)| *e)
        .collect();
    for eid in cross {
        let e = &graph.edges[eid.0];
        let (cu, cv) = (comp_of[&e.from], comp_of[&e.to]);
        if cu == cv {
            continue;
        }
        let root_index = |c: usize| graph.vertex_index(components.list[c].root);
        if aug.root_constraints.get(root_index(cu)).is_some()
            || aug.root_constraints.get(root_index(cv)).is_some()
        {
            continue;
        }
        let rel = |v: Vertex| &mats[components.rel[graph.vertex_index(v)]];
        let target = rel(e.from) * graph.weight(e);

        let try_a = solve_xf_eq_s(&target, rel(e.to))
            .ok()
            .map(|f| f.particular)
            .filter(|z| {
                components.list[cv]
                    .members
                    .iter()
                    .all(|&w| (z * rel(w)).rank() == z.rows())
            });
        if let Some(z) = try_a {
            apply_merge_ref(graph, components, mats, &mut comp_of, cv, cu, &z, eid);
            mark_merged_ref(aug, eid);
            continue;
        }
        let try_b = solve_xf_eq_s(rel(e.to), &target)
            .ok()
            .map(|f| f.particular)
            .filter(|z| {
                components.list[cu]
                    .members
                    .iter()
                    .all(|&w| (z * rel(w)).rank() == z.rows())
            });
        if let Some(z) = try_b {
            apply_merge_ref(graph, components, mats, &mut comp_of, cu, cv, &z, eid);
            mark_merged_ref(aug, eid);
        }
    }
    components.list.retain(|c| !c.members.is_empty());
}

#[allow(clippy::too_many_arguments)]
fn apply_merge_ref(
    graph: &AccessGraph,
    components: &mut Components,
    mats: &mut MatTable,
    comp_of: &mut HashMap<Vertex, usize>,
    absorbed: usize,
    grown: usize,
    z: &IMat,
    eid: EdgeId,
) {
    let Components { list, rel } = components;
    let moved_members: Vec<Vertex> = list[absorbed].members.clone();
    let moved_edges: Vec<EdgeId> = list[absorbed].edges.clone();
    for w in moved_members {
        let wi = graph.vertex_index(w);
        rel[wi] = mats.intern_owned(z * &mats[rel[wi]]);
        list[grown].members.push(w);
        comp_of.insert(w, grown);
    }
    list[grown].edges.extend(moved_edges);
    list[grown].edges.push(eid);
    list[absorbed].members.clear();
    list[absorbed].edges.clear();
}

fn mark_merged_ref(aug: &mut Augmented, eid: EdgeId) {
    for (e, o) in aug.outcomes.iter_mut() {
        if *e == eid {
            *o = AugmentOutcome::Merged;
        }
    }
    aug.residual_edges.retain(|e| *e != eid);
    aug.local_edges.push(eid);
}
