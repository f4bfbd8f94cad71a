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

#![forbid(unsafe_code)]

use rescomm_accessgraph::{AccessGraph, Augmented, Components, Vertex};
use rescomm_intlin::{left_kernel_basis, IMat, MatId, MatTable};
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
    /// Virtual processor owning point/index `i`; panics where an entry
    /// leaves `i64` ([`IMat::mul_vec_add`]).
    pub fn apply(&self, i: &[i64]) -> Vec<i64> {
        self.mat.mul_vec_add(i, &self.rho)
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

    /// The linear part `M_x·F` of the owner map of `access`: element
    /// `x[F·I + c]` lives on `(M_x·F)·I + (M_x·c + ρ_x)`.
    fn owner_linear(&self, access: &Access) -> IMat {
        &self.array_alloc[access.array.0].mat * &access.f
    }

    /// Exact locality test of an access: the owner map equals the
    /// statement's allocation, `M_S = M_x·F` and `ρ_S = M_x·c + ρ_x`.
    /// The linear parts are compared first, and a mismatch there never
    /// evaluates the constant term.
    pub fn is_local(&self, nest: &LoopNest, access: &Access) -> bool {
        self.is_linear_local(nest, access) && self.is_offset_local(access)
    }

    /// Locality of only the *constant* part (`ρ_S = M_x·c + ρ_x`). An
    /// access whose linear part is local is local when this holds and a
    /// translation otherwise.
    ///
    /// Compared in place, one component of `M_x·c + ρ_x` at a time; every
    /// component is formed, so one that leaves `i64` panics as
    /// [`Alloc::apply`] does.
    pub fn is_offset_local(&self, access: &Access) -> bool {
        let x = &self.array_alloc[access.array.0];
        let rho_s = &self.stmt_alloc[access.stmt.0].rho;
        let mut equal = rho_s.len() == x.mat.rows();
        for r in 0..x.mat.rows() {
            let owner = x
                .mat
                .row_affine(r, &access.c, x.rho.get(r).map_or(0, |&o| o));
            equal &= rho_s.get(r) == Some(&owner);
        }
        equal
    }

    /// Locality of only the *linear* part (`M_S = M_x·F`): the paper's
    /// criterion — a nonzero constant term is a fixed-size translation,
    /// cheap on any DMPC.
    pub fn is_linear_local(&self, _nest: &LoopNest, access: &Access) -> bool {
        self.stmt_alloc[access.stmt.0].mat == self.owner_linear(access)
    }

    /// Left-multiply every allocation of component `ci` by the unimodular
    /// matrix `v` (matrices *and* offsets). Preserves every local
    /// communication inside the component.
    pub fn rotate_component(&mut self, ci: usize, v: &IMat) {
        self.rotate_with(ci, v, |_, mat| v * mat);
    }

    /// The loop of [`Alignment::rotate_component`], with `product(w, M)`
    /// forming `v·M` for the allocation `M` of vertex `w`; offsets are
    /// rotated in place.
    fn rotate_with(&mut self, ci: usize, v: &IMat, mut product: impl FnMut(Vertex, &IMat) -> IMat) {
        assert!(
            rescomm_intlin::is_unimodular(v),
            "rotation must be unimodular"
        );
        assert_eq!(v.rows(), self.m);
        let mut rotate = |w: Vertex, alloc: &mut Alloc| {
            if alloc.mat.rows() != v.cols() {
                return; // degenerate (dim < m) vertex: cannot rotate
            }
            alloc.mat = product(w, &alloc.mat);
            let mut buf = [0i64; IMat::INLINE_CAP];
            match buf.get_mut(..v.rows()) {
                Some(out) => {
                    v.mul_vec_into(&alloc.rho, out);
                    alloc.rho.clear();
                    alloc.rho.extend_from_slice(out);
                }
                None => alloc.rho = v.mul_vec(&alloc.rho),
            }
        };
        let c = Some(ci as u32);
        for (s, alloc) in self.stmt_alloc.iter_mut().enumerate() {
            if self.comp_of_stmt[s] == c {
                rotate(Vertex::Stmt(StmtId(s)), alloc);
            }
        }
        for (x, alloc) in self.array_alloc.iter_mut().enumerate() {
            if self.comp_of_array[x] == c {
                rotate(Vertex::Array(ArrayId(x)), alloc);
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
/// `StmtId`/`ArrayId`-indexed tables, relative matrices come from the
/// vertex-indexed [`Components::rel`], and the offsets live in one flat
/// `n·m` buffer (a row of `m` entries per vertex, of which a component
/// uses its seed's row count) beside a flat `M_x·c` buffer for the
/// component's edges — the seed's `HashMap<Vertex, _>` bookkeeping (kept
/// in [`reference`](mod@reference)) re-hashed every vertex on every sweep
/// and recomputed `M_x·c` per edge *per sweep*.
///
/// `mats` is the table `graph` and `components` were built in: each
/// `M_w = seed·R_w` is a memoized id product, and the ids of every
/// allocation come back beside the alignment.
///
/// # Panics
/// Panics with [`OFFSET_OVERFLOW`] when an offset leaves `i64`.
pub fn compute_alignment(
    nest: &LoopNest,
    graph: &AccessGraph,
    components: &Components,
    augmented: &Augmented,
    mats: &mut MatTable,
) -> (Alignment, AllocIds) {
    graph.check_table(mats);
    let m = graph.m;
    let mut stmt_ids: Vec<Option<MatId>> = vec![None; nest.statements.len()];
    let mut array_ids: Vec<Option<MatId>> = vec![None; nest.arrays.len()];
    let mut stmt_alloc: Vec<Option<Alloc>> = vec![None; nest.statements.len()];
    let mut array_alloc: Vec<Option<Alloc>> = vec![None; nest.arrays.len()];
    let mut comp_of_stmt: Vec<Option<u32>> = vec![None; nest.statements.len()];
    let mut comp_of_array: Vec<Option<u32>> = vec![None; nest.arrays.len()];
    // Offsets per graph vertex, `m` slots each; components are
    // vertex-disjoint, so one shared buffer serves every component's
    // fixpoint, and an offset it never reaches (the root's included)
    // stays zero.
    let mut rho = vec![0i64; graph.vertices.len() * m];
    let mut known = vec![false; graph.vertices.len()];
    // Per component edge: (array vertex, statement vertex); `mc` holds
    // the edge's `M_x·c` in `m` slots.
    let mut edge_info: Vec<(usize, usize)> = Vec::new();
    let mut mc: Vec<i64> = Vec::new();

    for (ci, comp) in components.list.iter().enumerate() {
        // Seed the root.
        let root_dim = match comp.root {
            Vertex::Stmt(s) => nest.statement(s).depth,
            Vertex::Array(x) => nest.array(x).dim,
        };
        let root = graph.vertex_index(comp.root);
        let seed = match augmented.root_constraints.get(root) {
            Some(k) => {
                let basis =
                    left_kernel_basis(k).expect("augment accepted an infeasible constraint");
                assert!(basis.rows() >= m, "constraint kernel too small");
                basis.submatrix(0, m, 0, basis.cols())
            }
            None => IMat::from_fn(m.min(root_dim), root_dim, |i, j| i64::from(i == j)),
        };
        // Every offset of the component has the seed's row count.
        let rows = seed.rows();
        let seed = mats.intern_owned(seed);
        // Matrices come straight from the relative matrices (valid for
        // plain branching trees AND merged components): M_w = seed·R_w.
        for &v in &comp.members {
            let id = mats.mul(seed, components.rel[graph.vertex_index(v)]);
            let alloc = Alloc {
                mat: mats[id].clone(),
                rho: Vec::new(), // filled below
            };
            match v {
                Vertex::Stmt(s) => {
                    comp_of_stmt[s.0] = Some(ci as u32);
                    stmt_alloc[s.0] = Some(alloc);
                    stmt_ids[s.0] = Some(id);
                }
                Vertex::Array(x) => {
                    comp_of_array[x.0] = Some(ci as u32);
                    array_alloc[x.0] = Some(alloc);
                    array_ids[x.0] = Some(id);
                }
            }
        }
        // Offsets: fixpoint propagation over the component's edges (each
        // edge determines one endpoint's offset from the other; merged
        // components are not parent-before-child ordered, so iterate).
        // Locality: alloc_S(I) = alloc_x(F·I + c), i.e. ρ_S = M_x·c + ρ_x
        // with (x = array side, S = stmt side); M_x·c is constant across
        // sweeps, so hoist it.
        edge_info.clear();
        mc.clear();
        for &eid in &comp.edges {
            let e = &graph.edges[eid.0];
            let acc = nest.access(e.access);
            let (xv, sv) = match (e.from, e.to) {
                (Vertex::Array(x), Vertex::Stmt(st)) => (x, st),
                (Vertex::Stmt(st), Vertex::Array(x)) => (x, st),
                _ => unreachable!("access graph is bipartite"),
            };
            let mx = &array_alloc[xv.0]
                .as_ref()
                .expect("component endpoint has an allocation")
                .mat;
            let at = mc.len();
            mc.resize(at + m, 0);
            mx.mul_vec_into(&acc.c, &mut mc[at..at + rows]);
            edge_info.push((
                graph.vertex_index(Vertex::Array(xv)),
                graph.vertex_index(Vertex::Stmt(sv)),
            ));
        }
        known[root] = true;
        let mut progress = true;
        while progress {
            progress = false;
            for (k, &(xi, si)) in edge_info.iter().enumerate() {
                let mc = &mc[k * m..k * m + rows];
                match (known[xi], known[si]) {
                    (true, false) => {
                        for (r, &c) in mc.iter().enumerate() {
                            rho[si * m + r] =
                                c.checked_add(rho[xi * m + r]).expect(OFFSET_OVERFLOW);
                        }
                        known[si] = true;
                    }
                    (false, true) => {
                        for (r, &c) in mc.iter().enumerate() {
                            rho[xi * m + r] =
                                rho[si * m + r].checked_sub(c).expect(OFFSET_OVERFLOW);
                        }
                        known[xi] = true;
                    }
                    _ => continue,
                }
                progress = true;
            }
        }
        for &w in &comp.members {
            let wi = graph.vertex_index(w);
            let alloc = match w {
                Vertex::Stmt(s) => stmt_alloc[s.0].as_mut(),
                Vertex::Array(x) => array_alloc[x.0].as_mut(),
            }
            .expect("member has an allocation");
            alloc.rho = rho[wi * m..wi * m + rows].to_vec();
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
    let mut fill = |ids: Vec<Option<MatId>>, allocs: &[Alloc]| -> Vec<MatId> {
        ids.into_iter()
            .zip(allocs)
            .map(|(id, a)| id.unwrap_or_else(|| mats.intern(&a.mat)))
            .collect()
    };
    let ids = AllocIds {
        stmt: fill(stmt_ids, &stmt_alloc),
        array: fill(array_ids, &array_alloc),
        tag: mats.tag(),
    };

    (
        Alignment {
            m,
            stmt_alloc,
            array_alloc,
            comp_of_stmt,
            comp_of_array,
            n_components: components.list.len(),
        },
        ids,
    )
}

/// The panic message of an allocation offset that leaves `i64`, in
/// [`compute_alignment`] and its reference alike.
pub const OFFSET_OVERFLOW: &str = "i64 overflow in the alignment offset chase";

/// The id of every allocation matrix of one [`Alignment`] in one
/// [`MatTable`], so the residual test, the detection memo and the
/// dataflow memo compare and hash ids. Kept beside the alignment, not in
/// it: a rotation goes through [`AllocIds::rotate`], which re-interns only
/// the rotated component.
#[derive(Debug, Clone)]
pub struct AllocIds {
    /// Per statement (indexed by `StmtId`).
    pub stmt: Vec<MatId>,
    /// Per array (indexed by `ArrayId`).
    pub array: Vec<MatId>,
    /// [`MatTable::tag`] of the table the ids are in.
    tag: u64,
}

impl AllocIds {
    /// Intern every allocation matrix of `alignment` in `mats`.
    pub fn intern(alignment: &Alignment, mats: &mut MatTable) -> Self {
        AllocIds {
            stmt: alignment
                .stmt_alloc
                .iter()
                .map(|a| mats.intern(&a.mat))
                .collect(),
            array: alignment
                .array_alloc
                .iter()
                .map(|a| mats.intern(&a.mat))
                .collect(),
            tag: mats.tag(),
        }
    }

    /// Assert that `mats` is the table (and generation) the ids are in.
    ///
    /// # Panics
    /// Panics on any other table, or after `mats` was cleared.
    pub fn check_table(&self, mats: &MatTable) {
        assert_eq!(self.tag, mats.tag(), "allocation ids from another table");
    }

    /// [`Alignment::rotate_component`] through the table: each rotated
    /// allocation's matrix is the memoized product `v·M` of its id, so a
    /// component's few distinct allocations are multiplied once each.
    pub fn rotate(&mut self, alignment: &mut Alignment, ci: usize, v: &IMat, mats: &mut MatTable) {
        self.check_table(mats);
        let vid = mats.intern(v);
        alignment.rotate_with(ci, v, |w, _| {
            let id = match w {
                Vertex::Stmt(s) => &mut self.stmt[s.0],
                Vertex::Array(x) => &mut self.array[x.0],
            };
            *id = mats.mul(vid, *id);
            mats[*id].clone()
        });
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
    use rescomm_accessgraph::{augment, component_structure, maximum_branching, EdgeClasses};
    use rescomm_loopnest::examples;

    fn full(nest: &LoopNest, m: usize) -> (AccessGraph, Alignment) {
        let mut mats = MatTable::new();
        let g = AccessGraph::build_in(nest, m, true, &mut mats, &mut EdgeClasses::new());
        let b = maximum_branching(&g);
        let comps = component_structure(&g, &b, nest, &mut mats);
        let aug = augment(&g, &b.edges, &comps, m, &mut mats);
        let (al, _) = compute_alignment(nest, &g, &comps, &aug, &mut mats);
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
