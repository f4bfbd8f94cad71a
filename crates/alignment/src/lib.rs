//! # rescomm-alignment — concrete allocation matrices from a branching
//!
//! Turns the symbolic result of the access-graph analysis into concrete
//! affine allocation functions `alloc_v(I) = M_v·I + ρ_v` for every array
//! and statement:
//!
//! * the component root gets a seed `M_root` — the canonical projection
//!   `[Id_m | 0]`, or `m` rows of the constraint kernel when the
//!   augmentation pass recorded a `M_root·K = 0` condition;
//! * allocations propagate along the branching edges
//!   (`M_v = M_u·W`, offsets chased so that the *whole* affine distance of
//!   each local communication is zero, constant term included);
//! * each connected component can afterwards be rotated by a unimodular
//!   matrix ([`Alignment::rotate_component`]) without breaking any local
//!   communication — the degree of freedom §3.1 and §4.2.2 of the paper
//!   exploit;
//! * the remaining accesses are extracted as [`ResidualComm`]s for the
//!   macro-communication detector and the decomposer.

use rescomm_accessgraph::{AccessGraph, Augmented, Component, Vertex};
use rescomm_intlin::{left_kernel_basis, IMat};
use rescomm_loopnest::{Access, AccessId, ArrayId, LoopNest, StmtId};

pub mod reference;

/// Affine allocation `M·I + ρ` of one vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alloc {
    /// Allocation matrix (`m × dim`).
    pub mat: IMat,
    /// Allocation offset (`m` entries).
    pub rho: Vec<i64>,
}

impl Alloc {
    /// Virtual processor owning point/index `i`.
    pub fn apply(&self, i: &[i64]) -> Vec<i64> {
        let mut v = self.mat.mul_vec(i);
        for (x, &o) in v.iter_mut().zip(&self.rho) {
            *x += o;
        }
        v
    }
}

/// A residual (non-local) communication, ready for step 2 of the
/// heuristic.
#[derive(Debug, Clone)]
pub struct ResidualComm {
    /// The access that stayed non-local.
    pub access: AccessId,
    /// The statement reading/writing.
    pub stmt: StmtId,
    /// The array touched.
    pub array: ArrayId,
    /// `true` iff statement and array vertices ended in the same branching
    /// component (a rotation then affects both sides together).
    pub same_component: bool,
}

/// The complete alignment of a nest onto an `m`-dimensional virtual grid.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// Target grid dimension.
    pub m: usize,
    /// Allocation per statement (indexed by `StmtId`).
    pub stmt_alloc: Vec<Alloc>,
    /// Allocation per array (indexed by `ArrayId`).
    pub array_alloc: Vec<Alloc>,
    /// Component index per statement (dense; `None` = in no component).
    pub comp_of_stmt: Vec<Option<u32>>,
    /// Component index per array (dense; `None` = in no component).
    pub comp_of_array: Vec<Option<u32>>,
    /// Number of components.
    pub n_components: usize,
}

impl Alignment {
    /// The allocation of a vertex.
    pub fn alloc_of(&self, v: Vertex) -> &Alloc {
        match v {
            Vertex::Stmt(s) => &self.stmt_alloc[s.0],
            Vertex::Array(x) => &self.array_alloc[x.0],
        }
    }

    /// Component index of a vertex, if it belongs to one.
    pub fn component_of(&self, v: Vertex) -> Option<usize> {
        match v {
            Vertex::Stmt(s) => self.comp_of_stmt[s.0].map(|c| c as usize),
            Vertex::Array(x) => self.comp_of_array[x.0].map(|c| c as usize),
        }
    }

    /// Communication distance of `access` at iteration point `i`:
    /// `alloc_S(I) − alloc_x(F·I + c)` (the paper's `Δ(a, S)`); the zero
    /// vector for every `I` iff the communication is local.
    pub fn comm_distance(&self, _nest: &LoopNest, access: &Access, i: &[i64]) -> Vec<i64> {
        let s = self.stmt_alloc[access.stmt.0].apply(i);
        let e = access.subscript(i);
        let x = self.array_alloc[access.array.0].apply(&e);
        s.iter().zip(&x).map(|(&a, &b)| a - b).collect()
    }

    /// Exact locality test of an access: `M_S = M_x·F` and
    /// `ρ_S = M_x·c + ρ_x`.
    pub fn is_local(&self, _nest: &LoopNest, access: &Access) -> bool {
        let ms = &self.stmt_alloc[access.stmt.0];
        let mx = &self.array_alloc[access.array.0];
        if ms.mat != &mx.mat * &access.f {
            return false;
        }
        let mc = mx.mat.mul_vec(&access.c);
        ms.rho
            .iter()
            .zip(mc.iter().zip(&mx.rho))
            .all(|(&rs, (&c, &rx))| rs == c + rx)
    }

    /// Locality of only the *linear* part (`M_S = M_x·F`): the paper's
    /// criterion — a nonzero constant term is a fixed-size translation,
    /// cheap on any DMPC.
    pub fn is_linear_local(&self, _nest: &LoopNest, access: &Access) -> bool {
        let ms = &self.stmt_alloc[access.stmt.0];
        let mx = &self.array_alloc[access.array.0];
        ms.mat == &mx.mat * &access.f
    }

    /// Left-multiply every allocation of component `ci` by the unimodular
    /// matrix `v` (matrices *and* offsets). Preserves every local
    /// communication inside the component.
    pub fn rotate_component(&mut self, ci: usize, v: &IMat) {
        assert!(
            rescomm_intlin::is_unimodular(v),
            "rotation must be unimodular"
        );
        assert_eq!(v.rows(), self.m);
        let rotate = |alloc: &mut Alloc| {
            if alloc.mat.rows() != v.cols() {
                return; // degenerate (dim < m) vertex: cannot rotate
            }
            alloc.mat = v * &alloc.mat;
            alloc.rho = v.mul_vec(&alloc.rho);
        };
        for (alloc, &c) in self.stmt_alloc.iter_mut().zip(&self.comp_of_stmt) {
            if c == Some(ci as u32) {
                rotate(alloc);
            }
        }
        for (alloc, &c) in self.array_alloc.iter_mut().zip(&self.comp_of_array) {
            if c == Some(ci as u32) {
                rotate(alloc);
            }
        }
    }
}

/// Compute the alignment from the graph analysis.
///
/// `augmented` may carry root constraints from the deficient-rank pass;
/// seeds then come from the constraint kernels.
///
/// Dense throughout: allocations and component indices live in
/// `StmtId`/`ArrayId`-indexed tables and the offset fixpoint runs over
/// precomputed `(x, S, M_x·c)` triples — the seed's `HashMap<Vertex, _>`
/// bookkeeping (kept in [`reference`](mod@reference)) re-hashed every vertex on every
/// sweep and recomputed `M_x·c` per edge *per sweep*.
pub fn compute_alignment(
    nest: &LoopNest,
    graph: &AccessGraph,
    components: &[Component],
    augmented: &Augmented,
) -> Alignment {
    let m = graph.m;
    let mut stmt_alloc: Vec<Option<Alloc>> = vec![None; nest.statements.len()];
    let mut array_alloc: Vec<Option<Alloc>> = vec![None; nest.arrays.len()];
    let mut comp_of_stmt: Vec<Option<u32>> = vec![None; nest.statements.len()];
    let mut comp_of_array: Vec<Option<u32>> = vec![None; nest.arrays.len()];
    // Offset slots per graph vertex; components are vertex-disjoint, so
    // one shared table serves every component's fixpoint.
    let mut rho: Vec<Option<Vec<i64>>> = vec![None; graph.vertices.len()];
    let mut edge_info: Vec<(usize, usize, Vec<i64>)> = Vec::new();

    for (ci, comp) in components.iter().enumerate() {
        // Seed the root.
        let root_dim = match comp.root {
            Vertex::Stmt(s) => nest.statement(s).depth,
            Vertex::Array(x) => nest.array(x).dim,
        };
        let seed = match augmented.root_constraints.get(&comp.root) {
            Some(k) => {
                let basis =
                    left_kernel_basis(k).expect("augment accepted an infeasible constraint");
                assert!(basis.rows() >= m, "constraint kernel too small");
                basis.submatrix(0, m, 0, basis.cols())
            }
            None => IMat::from_fn(m.min(root_dim), root_dim, |i, j| i64::from(i == j)),
        };
        for &v in &comp.members {
            match v {
                Vertex::Stmt(s) => comp_of_stmt[s.0] = Some(ci as u32),
                Vertex::Array(x) => comp_of_array[x.0] = Some(ci as u32),
            }
        }
        // Matrices come straight from the relative matrices (valid for
        // plain branching trees AND merged components): M_w = seed·R_w.
        for (&w, r) in &comp.rel {
            let alloc = Alloc {
                mat: &seed * r,
                rho: Vec::new(), // filled below
            };
            match w {
                Vertex::Stmt(s) => stmt_alloc[s.0] = Some(alloc),
                Vertex::Array(x) => array_alloc[x.0] = Some(alloc),
            }
        }
        // Offsets: fixpoint propagation over the component's edges (each
        // edge determines one endpoint's offset from the other; merged
        // components are not parent-before-child ordered, so iterate).
        // Locality: alloc_S(I) = alloc_x(F·I + c), i.e. ρ_S = M_x·c + ρ_x
        // with (x = array side, S = stmt side); M_x·c is constant across
        // sweeps, so hoist it.
        edge_info.clear();
        for &eid in &comp.edges {
            let e = &graph.edges[eid.0];
            let acc = nest.access(e.access);
            let (xv, sv) = match (e.from, e.to) {
                (Vertex::Array(x), Vertex::Stmt(st)) => (x, st),
                (Vertex::Stmt(st), Vertex::Array(x)) => (x, st),
                _ => unreachable!("access graph is bipartite"),
            };
            let mx = array_alloc[xv.0]
                .as_ref()
                .expect("component endpoint has an allocation");
            edge_info.push((
                graph.vertex_index(Vertex::Array(xv)),
                graph.vertex_index(Vertex::Stmt(sv)),
                mx.mat.mul_vec(&acc.c),
            ));
        }
        rho[graph.vertex_index(comp.root)] = Some(vec![0; m.min(root_dim)]);
        let mut progress = true;
        while progress {
            progress = false;
            for (xi, si, mc) in &edge_info {
                match (rho[*xi].is_some(), rho[*si].is_some()) {
                    (true, false) => {
                        let rx = rho[*xi].as_ref().expect("checked");
                        let rs: Vec<i64> = mc.iter().zip(rx).map(|(&a, &b)| a + b).collect();
                        rho[*si] = Some(rs);
                        progress = true;
                    }
                    (false, true) => {
                        let rs = rho[*si].as_ref().expect("checked");
                        let rx: Vec<i64> = rs.iter().zip(mc).map(|(&a, &b)| a - b).collect();
                        rho[*xi] = Some(rx);
                        progress = true;
                    }
                    _ => {}
                }
            }
        }
        for &w in comp.rel.keys() {
            let alloc = match w {
                Vertex::Stmt(s) => stmt_alloc[s.0].as_mut(),
                Vertex::Array(x) => array_alloc[x.0].as_mut(),
            }
            .expect("rel vertex has an allocation");
            if alloc.rho.is_empty() {
                alloc.rho = rho[graph.vertex_index(w)]
                    .clone()
                    .unwrap_or_else(|| vec![0; alloc.mat.rows()]);
            }
        }
    }

    // Materialize dense tables (vertices outside every component keep a
    // canonical projection — untouched arrays/statements).
    let stmt_alloc: Vec<Alloc> = stmt_alloc
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.unwrap_or_else(|| canonical(m, nest.statements[i].depth)))
        .collect();
    let array_alloc: Vec<Alloc> = array_alloc
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.unwrap_or_else(|| canonical(m, nest.arrays[i].dim)))
        .collect();

    Alignment {
        m,
        stmt_alloc,
        array_alloc,
        comp_of_stmt,
        comp_of_array,
        n_components: components.len(),
    }
}

pub(crate) fn canonical(m: usize, dim: usize) -> Alloc {
    let rows = m.min(dim);
    Alloc {
        mat: IMat::from_fn(rows, dim, |i, j| i64::from(i == j)),
        rho: vec![0; rows],
    }
}

/// Extract the residual communications: every access that is not
/// linear-local under the alignment.
pub fn residual_communications(nest: &LoopNest, alignment: &Alignment) -> Vec<ResidualComm> {
    nest.accesses
        .iter()
        .filter(|a| !alignment.is_linear_local(nest, a))
        .map(|a| {
            let cs = alignment.component_of(Vertex::Stmt(a.stmt));
            let cx = alignment.component_of(Vertex::Array(a.array));
            ResidualComm {
                access: a.id,
                stmt: a.stmt,
                array: a.array,
                same_component: matches!((cs, cx), (Some(x), Some(y)) if x == y),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescomm_accessgraph::{augment, component_structure, maximum_branching};
    use rescomm_loopnest::examples;

    fn full(nest: &LoopNest, m: usize) -> (AccessGraph, Alignment) {
        let g = AccessGraph::build(nest, m);
        let b = maximum_branching(&g);
        let comps = component_structure(&g, &b, nest);
        let aug = augment(&g, &b.edges, &comps, m);
        let al = compute_alignment(nest, &g, &comps, &aug);
        (g, al)
    }

    #[test]
    fn motivating_example_five_local_two_residual() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let (_, al) = full(&nest, 2);
        let res = residual_communications(&nest, &al);
        let accs: Vec<_> = res.iter().map(|r| r.access).collect();
        // F3, F6 residual; F8 (rank-deficient, excluded from the graph) is
        // also non-local.
        assert!(accs.contains(&ids.f3), "residuals: {accs:?}");
        assert!(accs.contains(&ids.f6));
        assert!(accs.contains(&ids.f8));
        assert_eq!(accs.len(), 3);
        // The five branching accesses are *fully* local, offsets included.
        for fid in [ids.f1, ids.f2, ids.f4, ids.f5, ids.f7] {
            let a = nest.access(fid);
            assert!(al.is_local(&nest, a), "access {fid:?} must be fully local");
        }
    }

    #[test]
    fn local_distance_is_zero_everywhere() {
        let (nest, ids) = examples::motivating_example(4, 2);
        let (_, al) = full(&nest, 2);
        for fid in [ids.f1, ids.f2, ids.f4, ids.f5, ids.f7] {
            let a = nest.access(fid);
            let dom = &nest.statement(a.stmt).domain;
            for p in dom.points().take(50) {
                assert_eq!(
                    al.comm_distance(&nest, a, &p),
                    vec![0; 2],
                    "nonzero distance for {fid:?} at {p:?}"
                );
            }
        }
    }

    #[test]
    fn all_allocations_full_rank() {
        let (nest, _) = examples::motivating_example(8, 4);
        let (_, al) = full(&nest, 2);
        for a in &al.stmt_alloc {
            assert_eq!(a.mat.rank(), 2, "statement allocation lost rank");
        }
        for a in &al.array_alloc {
            assert_eq!(a.mat.rank(), 2, "array allocation lost rank");
        }
    }

    #[test]
    fn rotation_preserves_locality() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let (_, mut al) = full(&nest, 2);
        let v = IMat::from_rows(&[&[1, 1], &[0, 1]]);
        al.rotate_component(0, &v);
        for fid in [ids.f1, ids.f2, ids.f4, ids.f5, ids.f7] {
            let a = nest.access(fid);
            assert!(al.is_local(&nest, a), "rotation broke locality of {fid:?}");
        }
        let res = residual_communications(&nest, &al);
        assert_eq!(res.len(), 3);
    }

    #[test]
    #[should_panic(expected = "unimodular")]
    fn rotation_rejects_non_unimodular() {
        let (nest, _) = examples::motivating_example(4, 2);
        let (_, mut al) = full(&nest, 2);
        al.rotate_component(0, &IMat::from_rows(&[&[2, 0], &[0, 1]]));
    }

    #[test]
    fn residuals_know_their_component() {
        let (nest, _) = examples::motivating_example(8, 4);
        let (_, al) = full(&nest, 2);
        for r in residual_communications(&nest, &al) {
            assert!(r.same_component, "single-component nest");
        }
        // matmul: B and C end in other components than the statement.
        let nest = examples::matmul(4);
        let (_, al) = full(&nest, 2);
        let res = residual_communications(&nest, &al);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|r| !r.same_component));
    }

    #[test]
    fn constrained_root_seed_satisfies_constraint() {
        use rescomm_intlin::IMat;
        use rescomm_loopnest::{Domain, NestBuilder};
        // m = 1 constraint case from the augment tests.
        let mut bld = NestBuilder::new("constrained");
        let x = bld.array("x", 2);
        let s = bld.statement("S", 2, Domain::cube(2, 4));
        bld.read(s, x, IMat::from_rows(&[&[1, 0], &[0, 1]]), &[0, 0]);
        bld.read(s, x, IMat::from_rows(&[&[1, 0], &[1, 1]]), &[0, 0]);
        let nest = bld.build().unwrap();
        let (_, al) = full(&nest, 1);
        for a in &nest.accesses {
            assert!(
                al.is_linear_local(&nest, a),
                "constrained seed failed for {:?}: M_S={:?} M_x={:?}",
                a.id,
                al.stmt_alloc[0].mat,
                al.array_alloc[0].mat
            );
        }
    }

    #[test]
    fn example5_locality_first_is_communication_free() {
        // §7.2: our strategy maps Example 5 without any communication.
        let (nest, _) = examples::example5_platonoff(4);
        let (_, al) = full(&nest, 2);
        let res = residual_communications(&nest, &al);
        assert!(
            res.is_empty(),
            "example 5 must be communication-free: {res:?}"
        );
    }
}
