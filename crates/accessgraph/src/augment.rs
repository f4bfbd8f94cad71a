//! Step 1(c) of the heuristic: re-adding non-branching edges.
//!
//! After the maximum branching is extracted, each remaining edge `u → v`
//! of the access graph is examined (§2.2.3, §6):
//!
//! * if both endpoints already lie in the same component, the edge imposes
//!   `M_root·R_u·W = M_root·R_v`. When `R_u·W = R_v` exactly (a multiple
//!   path of equal matrix weight, or a cycle whose weight product is the
//!   identity) the edge is **free**: it can be added and its communication
//!   is local for *every* choice of `M_root`;
//! * otherwise, with `K = R_u·W − R_v ≠ 0`, the communication is local
//!   only for roots satisfying `M_root·K = 0`. That is possible with a
//!   full-rank `M_root` iff the left kernel of the accumulated constraint
//!   matrix `[K₁ | K₂ | …]` still has dimension ≥ `m` — the paper's
//!   "`F_{p1} − F_{p2}` of deficient rank: it can or not be possible".
//!   That dimension is `rows − rank` of the accumulated matrix, so the
//!   test is one rank computation and no kernel basis is built;
//! * edges across two components are left for the residual-communication
//!   optimizer (the branching, being maximum, had its reasons).

use crate::graph::{AccessGraph, EdgeId, Vertex};
use crate::paths::Components;
use rescomm_intlin::{solve_xf_eq_s_particular, IMat, MatId, MatTable};

/// Outcome of examining one non-branching edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AugmentOutcome {
    /// `R_u·W = R_v`: local for free (identity cycle / duplicate path).
    Free,
    /// Local only under the recorded root constraint, which is satisfiable
    /// with a full-rank root; the constraint was accepted.
    Constrained,
    /// The constraint would make a full-rank root impossible; edge stays
    /// residual.
    Residual,
    /// Endpoints in different components; edge stays residual.
    CrossComponent,
    /// A cross-component edge whose compatibility equation solved: the two
    /// components were merged and the edge is local
    /// (see [`merge_cross_components`]).
    Merged,
}

/// Result of the augmentation pass for one component set.
#[derive(Debug, Clone)]
pub struct Augmented {
    /// Per-edge outcome for every non-branching edge.
    pub outcomes: Vec<(EdgeId, AugmentOutcome)>,
    /// Edges now known local (branching ∪ free ∪ constrained).
    pub local_edges: Vec<EdgeId>,
    /// Residual edges (to hand to the macro-communication detector and
    /// the decomposer).
    pub residual_edges: Vec<EdgeId>,
    /// Per component-root accumulated constraint `M_root·K = 0`.
    pub root_constraints: RootConstraints,
    /// Edge id → index into `outcomes` (`u32::MAX` for branching edges,
    /// which have no outcome entry), so updating one edge's outcome is O(1).
    outcome_slot: Vec<u32>,
}

impl Augmented {
    /// Build the edge-id → outcome index from the outcome list.
    pub(crate) fn from_parts(
        outcomes: Vec<(EdgeId, AugmentOutcome)>,
        local_edges: Vec<EdgeId>,
        residual_edges: Vec<EdgeId>,
        root_constraints: RootConstraints,
        n_edges: usize,
    ) -> Self {
        let mut outcome_slot = vec![u32::MAX; n_edges];
        for (i, (eid, _)) in outcomes.iter().enumerate() {
            outcome_slot[eid.0] = i as u32;
        }
        Augmented {
            outcomes,
            local_edges,
            residual_edges,
            root_constraints,
            outcome_slot,
        }
    }

    /// O(1) outcome update through the edge-id index.
    fn set_outcome(&mut self, eid: EdgeId, o: AugmentOutcome) {
        let i = self.outcome_slot[eid.0];
        debug_assert_ne!(i, u32::MAX, "edge {eid:?} has no outcome entry");
        self.outcomes[i as usize].1 = o;
    }
}

/// The accumulated constraints `M_root·K = 0` of the constrained
/// component roots, looked up by the root's
/// [`AccessGraph::vertex_index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RootConstraints {
    /// `(root, K)` in the order the roots were first constrained.
    list: Vec<(Vertex, IMat)>,
    /// Vertex index → position in `list` (`u32::MAX`: unconstrained);
    /// left empty until the first constraint.
    slot: Vec<u32>,
}

impl RootConstraints {
    /// The constraint of the root with vertex index `root`, if any.
    pub fn get(&self, root: usize) -> Option<&IMat> {
        match self.slot.get(root) {
            Some(&i) if i != u32::MAX => Some(&self.list[i as usize].1),
            _ => None,
        }
    }

    /// `(root, K)` pairs in the order the roots were first constrained.
    pub fn iter(&self) -> impl Iterator<Item = (Vertex, &IMat)> {
        self.list.iter().map(|(v, k)| (*v, k))
    }

    /// Set the constraint of `root` (vertex index `ri` of `n` vertices).
    pub(crate) fn insert(&mut self, n: usize, ri: usize, root: Vertex, k: IMat) {
        if self.slot.is_empty() {
            self.slot = vec![u32::MAX; n];
        }
        match self.slot[ri] {
            u32::MAX => {
                self.slot[ri] = self.list.len() as u32;
                self.list.push((root, k));
            }
            i => self.list[i as usize].1 = k,
        }
    }
}

/// Run the augmentation pass.
///
/// `branching_edges` are the already-local edges; `components` the
/// structure from [`crate::paths::component_structure`]; `m` the target
/// grid dimension; `mats` the table both were built in. The freeness test
/// `R_u·W = R_v` is a memoized id product and an id comparison.
pub fn augment(
    graph: &AccessGraph,
    branching_edges: &[EdgeId],
    components: &Components,
    m: usize,
    mats: &mut MatTable,
) -> Augmented {
    graph.check_table(mats);
    let in_branching: Vec<bool> = {
        let mut v = vec![false; graph.edges.len()];
        for e in branching_edges {
            v[e.0] = true;
        }
        v
    };
    // Vertex index -> component index (dense; vertex_index is O(1)).
    let comp_of = component_index(graph, components);

    let mut outcomes = Vec::new();
    let mut local_edges: Vec<EdgeId> = branching_edges.to_vec();
    let mut residual_edges = Vec::new();
    let mut root_constraints = RootConstraints::default();
    // Track which edge ids belong to an already-local access: the second
    // direction of a square access is the same communication. Sized once by
    // the edge count; marking walks only the access's own edges through the
    // precomputed access → edges adjacency, so the pass is O(E) overall.
    let mut local_access: Vec<bool> = vec![false; graph.edges.len()];
    let mark_access = |local_access: &mut [bool], graph: &AccessGraph, eid: EdgeId| {
        let a = graph.edges[eid.0].access;
        for i in graph.access_edge_range(a) {
            local_access[i] = true;
        }
    };
    for &eid in branching_edges {
        mark_access(&mut local_access, graph, eid);
    }

    // Accesses already decided residual: both directions of a square access
    // express the same locality equation (the constraints differ by an
    // invertible factor), so the twin must not be re-counted.
    let mut residual_access: Vec<bool> = vec![false; graph.n_accesses];

    for e in &graph.edges {
        if in_branching[e.id.0] {
            continue;
        }
        if local_access[e.id.0] {
            // Twin of an already-local square access: nothing to do, and it
            // is not a residual communication either.
            outcomes.push((e.id, AugmentOutcome::Free));
            continue;
        }
        if residual_access[e.access.0] {
            outcomes.push((e.id, AugmentOutcome::Residual));
            continue;
        }
        let (ui, vi) = (graph.vertex_index(e.from), graph.vertex_index(e.to));
        let cu = comp_of[ui];
        if cu != comp_of[vi] {
            outcomes.push((e.id, AugmentOutcome::CrossComponent));
            residual_edges.push(e.id);
            residual_access[e.access.0] = true;
            continue;
        }
        let rv = components.rel[vi];
        let lhs = mats.mul(components.rel[ui], graph.weight_id(e));
        if lhs == rv {
            outcomes.push((e.id, AugmentOutcome::Free));
            local_edges.push(e.id);
            mark_access(&mut local_access, graph, e.id);
            continue;
        }
        // Constraint K = R_u·W − R_v; accumulate with existing ones.
        let k = &mats[lhs] - &mats[rv];
        let root = components.list[cu as usize].root;
        let ri = graph.vertex_index(root);
        let accumulated = match root_constraints.get(ri) {
            Some(prev) => prev.hstack(&k),
            None => k,
        };
        // Need a full-rank m root with M·K = 0: the left kernel of the
        // accumulated constraint, of dimension rows − rank, must have
        // dimension ≥ m.
        if accumulated.rows() - accumulated.rank() >= m {
            root_constraints.insert(graph.vertices.len(), ri, root, accumulated);
            outcomes.push((e.id, AugmentOutcome::Constrained));
            local_edges.push(e.id);
            mark_access(&mut local_access, graph, e.id);
        } else {
            outcomes.push((e.id, AugmentOutcome::Residual));
            residual_edges.push(e.id);
            residual_access[e.access.0] = true;
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

/// Component index per vertex index.
fn component_index(graph: &AccessGraph, components: &Components) -> Vec<u32> {
    let mut comp_of = vec![u32::MAX; graph.vertices.len()];
    for (ci, c) in components.list.iter().enumerate() {
        for &v in &c.members {
            comp_of[graph.vertex_index(v)] = ci as u32;
        }
    }
    comp_of
}

/// Second pass over the `CrossComponent` residuals: try to *merge* the two
/// components so the edge becomes local.
///
/// For an edge `u → v` (locality `M_v = M_u·W`) with `u` in component `cu`
/// (root relation `R_u`) and `v` in `cv` (relation `R_v`), the components
/// unify when the root of one can be expressed from the root of the other:
///
/// * rebase `cv` onto `cu`'s root: find `Z` with `Z·R_v = R_u·W`, then
///   every `w ∈ cv` gets `R'_w = Z·R_w`;
/// * or, symmetrically, rebase `cu` onto `cv`'s root via `Z'·(R_u·W) = R_v`.
///
/// A rebase is accepted only when every rebased relation keeps **full row
/// rank** (so any full-rank seed still yields full-rank allocations, the
/// Lemma-1 guarantee the branching relations enjoy by construction).
/// Components carrying root constraints are left alone (transforming the
/// constraints is possible but the pipeline keeps them rare).
pub fn merge_cross_components(
    graph: &AccessGraph,
    components: &mut Components,
    aug: &mut Augmented,
    _m: usize,
    mats: &mut MatTable,
) {
    graph.check_table(mats);
    // Dense vertex → initial component index; merges are tracked by the
    // union-find on component indices instead of rewriting the map.
    let comp_of = component_index(graph, components);
    let mut uf = UnionFind::new(components.list.len());
    let cross: Vec<EdgeId> = aug
        .outcomes
        .iter()
        .filter(|(_, o)| *o == AugmentOutcome::CrossComponent)
        .map(|(e, _)| *e)
        .collect();
    // Edges absorbed by a merge; drained from `residual_edges` in one pass
    // at the end instead of a `retain` per merged edge.
    let mut merged_edge = vec![false; graph.edges.len()];
    for eid in cross {
        let e = &graph.edges[eid.0];
        let (ui, vi) = (graph.vertex_index(e.from), graph.vertex_index(e.to));
        let (cu, cv) = (uf.find(comp_of[ui] as usize), uf.find(comp_of[vi] as usize));
        if cu == cv {
            continue; // already merged through an earlier edge
        }
        let constrained = |c: usize| {
            let root = components.list[c].root;
            aug.root_constraints.get(graph.vertex_index(root)).is_some()
        };
        if constrained(cu) || constrained(cv) {
            continue;
        }
        let target = mats.mul(components.rel[ui], graph.weight_id(e)); // R_u·W
        let rv = components.rel[vi];

        // Direction (a): rebase cv onto cu's root; else (b): cu onto cv's.
        let mut rebase = None;
        for (x, s, absorbed, grown) in [(target, rv, cv, cu), (rv, target, cu, cv)] {
            let Ok(z) = solve_xf_eq_s_particular(&mats[x], &mats[s]) else {
                continue;
            };
            let z = mats.intern_owned(z);
            if keeps_rank(graph, components, mats, z, absorbed) {
                rebase = Some((absorbed, grown, z));
                break;
            }
        }
        if let Some((absorbed, grown, z)) = rebase {
            apply_merge(graph, components, mats, absorbed, grown, z, eid);
            uf.absorb(absorbed, grown);
            mark_merged(aug, eid, &mut merged_edge);
        }
    }
    if merged_edge.contains(&true) {
        aug.residual_edges.retain(|e| !merged_edge[e.0]);
    }
    // Drop now-empty components (keep indices stable by filtering at the
    // end; comp_of was only internal).
    components.list.retain(|c| !c.members.is_empty());
}

/// Union-find over component indices with an explicitly directed union:
/// the absorbed component's class is pointed at the grown component's, so
/// lookups after any number of merges stay amortized O(α).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Direct the class of `absorbed` into the class of `grown`.
    fn absorb(&mut self, absorbed: usize, grown: usize) {
        let (a, g) = (self.find(absorbed), self.find(grown));
        self.parent[a] = g;
    }
}

/// Full row rank of every relation of component `c` rebased by `z` keeps
/// the Lemma-1 guarantee alive.
fn keeps_rank(
    graph: &AccessGraph,
    components: &Components,
    mats: &mut MatTable,
    z: MatId,
    c: usize,
) -> bool {
    let rows = mats[z].rows();
    components.list[c].members.iter().all(|&w| {
        let p = mats.mul(z, components.rel[graph.vertex_index(w)]);
        mats[p].rank() == rows
    })
}

fn apply_merge(
    graph: &AccessGraph,
    components: &mut Components,
    mats: &mut MatTable,
    absorbed: usize,
    grown: usize,
    z: MatId,
    eid: EdgeId,
) {
    let Components { list, rel } = components;
    let moved_members = std::mem::take(&mut list[absorbed].members);
    let moved_edges = std::mem::take(&mut list[absorbed].edges);
    for &w in &moved_members {
        let wi = graph.vertex_index(w);
        rel[wi] = mats.mul(z, rel[wi]);
    }
    list[grown].members.extend(moved_members);
    list[grown].edges.extend(moved_edges);
    list[grown].edges.push(eid);
}

/// O(1) per merged edge: the outcome index points straight at the entry,
/// and residual removal is batched by the caller.
fn mark_merged(aug: &mut Augmented, eid: EdgeId, merged_edge: &mut [bool]) {
    aug.set_outcome(eid, AugmentOutcome::Merged);
    merged_edge[eid.0] = true;
    aug.local_edges.push(eid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branching::maximum_branching;
    use crate::graph::{AccessGraph, EdgeClasses};
    use crate::paths::component_structure;
    use rescomm_intlin::{IMat, MatTable};
    use rescomm_loopnest::{examples, Domain, NestBuilder};

    mod rescomm_accessgraph_test_helpers {
        pub use crate::augment::merge_cross_components;
        pub use rescomm_intlin::IMat;
        pub use rescomm_loopnest::{Domain, NestBuilder};
    }

    fn run(nest: &rescomm_loopnest::LoopNest, m: usize) -> (AccessGraph, Augmented) {
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(nest, m, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let comps = component_structure(&g, &b, nest, &mut mats);
        let a = augment(&g, &b.edges, &comps, m, &mut mats);
        (g, a)
    }

    #[test]
    fn motivating_example_residuals_are_f3_and_f6() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let (g, aug) = run(&nest, 2);
        let residual_accs: Vec<_> = aug
            .residual_edges
            .iter()
            .map(|e| g.edges[e.0].access)
            .collect();
        assert!(residual_accs.contains(&ids.f3), "F3 must stay residual");
        assert!(residual_accs.contains(&ids.f6), "F6 must stay residual");
        assert_eq!(
            residual_accs.len(),
            2,
            "exactly two residuals: {residual_accs:?}"
        );
        // Five communications are local (the branching).
        let local_accs: std::collections::HashSet<_> = aug
            .local_edges
            .iter()
            .map(|e| g.edges[e.0].access)
            .collect();
        assert_eq!(local_accs.len(), 5);
        assert_eq!(aug.root_constraints.iter().count(), 0);
    }

    #[test]
    fn identity_cycle_edge_is_free() {
        // x read twice through the same matrix: second edge duplicates the
        // first path exactly → free.
        let mut bld = NestBuilder::new("dup");
        let x = bld.array("x", 2);
        let s = bld.statement("S", 2, Domain::cube(2, 4));
        let f = IMat::from_rows(&[&[1, 1], &[0, 1]]);
        bld.read(s, x, f.clone(), &[0, 0]);
        bld.read(s, x, f, &[3, 3]); // same matrix, different offset
        let nest = bld.build().unwrap();
        let (g, aug) = run(&nest, 2);
        assert!(aug.residual_edges.is_empty());
        // One branching edge + free twin edges.
        assert!(aug.outcomes.iter().any(|(_, o)| *o == AugmentOutcome::Free));
        let local_accs: std::collections::HashSet<_> = aug
            .local_edges
            .iter()
            .map(|e| g.edges[e.0].access)
            .collect();
        assert_eq!(local_accs.len(), 2);
    }

    #[test]
    fn deficient_rank_constraint_accepted_when_kernel_large() {
        // Two reads whose matrices differ in a rank-1 way that a rank-1
        // target (m = 1) can still kill: M·(F1 − F2) = 0 with M 1×2.
        let mut bld = NestBuilder::new("constrained");
        let x = bld.array("x", 2);
        let s = bld.statement("S", 2, Domain::cube(2, 4));
        bld.read(s, x, IMat::from_rows(&[&[1, 0], &[0, 1]]), &[0, 0]);
        // F2 = F1 + e2·(0,1)ᵗ difference of rank 1 with left kernel (1,0).
        bld.read(s, x, IMat::from_rows(&[&[1, 0], &[1, 1]]), &[0, 0]);
        let nest = bld.build().unwrap();
        let (_, aug) = run(&nest, 1);
        assert!(
            aug.outcomes
                .iter()
                .any(|(_, o)| *o == AugmentOutcome::Constrained),
            "outcomes: {:?}",
            aug.outcomes
        );
        assert!(aug.residual_edges.is_empty());
        assert_eq!(aug.root_constraints.iter().count(), 1);
    }

    #[test]
    fn deficient_rank_constraint_rejected_when_kernel_small() {
        // Same nest but m = 2: killing the rank-1 difference leaves only a
        // rank-1 root — infeasible, the edge stays residual.
        let mut bld = NestBuilder::new("residual");
        let x = bld.array("x", 2);
        let s = bld.statement("S", 2, Domain::cube(2, 4));
        bld.read(s, x, IMat::from_rows(&[&[1, 0], &[0, 1]]), &[0, 0]);
        bld.read(s, x, IMat::from_rows(&[&[1, 0], &[1, 1]]), &[0, 0]);
        let nest = bld.build().unwrap();
        let (_, aug) = run(&nest, 2);
        assert!(aug
            .outcomes
            .iter()
            .any(|(_, o)| *o == AugmentOutcome::Residual));
        assert_eq!(aug.residual_edges.len(), 1);
        assert_eq!(aug.root_constraints.iter().count(), 0);
    }

    #[test]
    fn matmul_two_residual_cross_component() {
        let nest = examples::matmul(4);
        let (_, aug) = run(&nest, 2);
        // One access local, the other two stay residual (they enter the
        // same statement vertex from other components).
        assert_eq!(aug.residual_edges.len(), 2);
        assert!(aug
            .outcomes
            .iter()
            .all(|(_, o)| *o != AugmentOutcome::Constrained));
    }

    #[test]
    fn cross_component_merge_unifies_compatible_reads() {
        use rescomm_accessgraph_test_helpers::*;
        // S (depth 3) writes c[Id], reads a[Fa], reads b[Fb] with Fb a row
        // swap of Fa: both reads can be local simultaneously once the
        // components merge.
        let mut bld = NestBuilder::new("mergeable");
        let a = bld.array("a", 2);
        let b = bld.array("b", 2);
        let c = bld.array("c", 3);
        let s = bld.statement("S", 3, Domain::cube(3, 4));
        bld.write(s, c, IMat::identity(3), &[0, 0, 0]);
        bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]), &[0, 0]);
        bld.read(s, b, IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0]]), &[0, 0]);
        let nest = bld.build().unwrap();
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let br = maximum_branching(&g);
        let mut comps = component_structure(&g, &br, &nest, &mut mats);
        let mut aug = augment(&g, &br.edges, &comps, 2, &mut mats);
        let before = aug.residual_edges.len();
        merge_cross_components(&g, &mut comps, &mut aug, 2, &mut mats);
        assert!(
            aug.residual_edges.len() < before,
            "merging must absorb at least one residual: {:?}",
            aug.outcomes
        );
        assert!(aug
            .outcomes
            .iter()
            .any(|(_, o)| *o == AugmentOutcome::Merged));
        // One unified component containing all five vertices.
        let list = &comps.list;
        assert_eq!(list.iter().filter(|c| !c.members.is_empty()).count(), 1);
        assert_eq!(list[0].members.len(), 4);
        // Merged relations still satisfy every component edge.
        let rel = |v| &mats[comps.rel[g.vertex_index(v)]];
        for &eid in &list[0].edges {
            let e = &g.edges[eid.0];
            assert_eq!(*rel(e.to), rel(e.from) * g.weight(e));
        }
    }

    #[test]
    fn matmul_merge_attempts_fail_cleanly() {
        // matmul's cross edges are genuinely incompatible (at most one
        // operand aligns at full rank): merging must not change anything.
        let nest = examples::matmul(4);
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let br = maximum_branching(&g);
        let mut comps = component_structure(&g, &br, &nest, &mut mats);
        let mut aug = augment(&g, &br.edges, &comps, 2, &mut mats);
        let before = aug.residual_edges.clone();
        merge_cross_components(&g, &mut comps, &mut aug, 2, &mut mats);
        assert_eq!(aug.residual_edges, before);
    }

    #[test]
    fn square_twin_not_double_counted() {
        // A single square access: branching picks one direction, the twin
        // must be reported Free (same communication), not residual.
        let mut bld = NestBuilder::new("square");
        let x = bld.array("x", 2);
        let s = bld.statement("S", 2, Domain::cube(2, 4));
        bld.read(s, x, IMat::from_rows(&[&[1, 1], &[0, 1]]), &[0, 0]);
        let nest = bld.build().unwrap();
        let (_, aug) = run(&nest, 2);
        assert!(aug.residual_edges.is_empty());
    }
}
