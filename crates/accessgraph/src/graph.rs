//! Construction of the access graph `G(V, E, m)`.
//!
//! Definition (§2.2.2 of the paper): one vertex per array and per
//! statement; for every access `x[F·I + c]` of statement `S` with `F` of
//! full rank `min(q_x, d) ≥ m`:
//!
//! * `q_x < d` (flat `F`): edge `x → S`, weight matrix `F` — given `M_x` of
//!   rank `m` one can always set `M_S = M_x·F` (Lemma 1);
//! * `q_x > d` (narrow `F`): edge `S → x`, weight matrix any `G` with
//!   `G·F = Id` (remark at the end of §2.2.2; the true pseudo-inverse is
//!   rational in general, so we search a small *integer* one) — given `M_S`
//!   one sets `M_x = M_S·G`;
//! * `q_x = d` (square): a double-arrow edge; direction `x → S` always
//!   works with weight `F`, direction `S → x` needs `F` unimodular for the
//!   allocation to stay integral.
//!
//! Accesses whose matrix is rank-deficient or of rank < `m` are *excluded*
//! (they are dealt with later: a rank-deficient access can still turn into
//! a broadcast, cf. the motivating example's `F8`).

use rescomm_intlin::{small_left_inverse, IMat};
use rescomm_loopnest::{AccessId, ArrayId, LoopNest, StmtId};
use std::collections::HashMap;
use std::fmt;

/// A vertex of the access graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vertex {
    /// An array variable.
    Array(ArrayId),
    /// A statement.
    Stmt(StmtId),
}

/// Identifier of a directed edge in the access graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// A directed edge of the access graph: choosing it makes the underlying
/// communication local by setting `M_to = M_from · weight`.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Edge identifier (index into [`AccessGraph::edges`]).
    pub id: EdgeId,
    /// The access this edge represents.
    pub access: AccessId,
    /// Source vertex.
    pub from: Vertex,
    /// Destination vertex.
    pub to: Vertex,
    /// Weight matrix `W`: local iff `M_to = M_from · W`.
    pub weight: IMat,
    /// Integer weight for the branching: `rank F`, a consistent estimate of
    /// the communication volume (§2.2.3).
    pub int_weight: i64,
    /// `true` if this edge is one direction of a square (double-arrow)
    /// access; its twin has the same `access`.
    pub twin_of_square: bool,
}

/// Why an access did not produce a graph edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exclusion {
    /// `F` is rank-deficient.
    RankDeficient,
    /// `rank F < m`: the communication is too small to distribute over the
    /// full target grid; the heuristic ignores it.
    RankBelowTarget,
    /// Narrow `F` with no integer left inverse (non-primitive lattice).
    NoIntegerInverse,
}

/// The access graph of a nest for target dimension `m`.
#[derive(Debug, Clone)]
pub struct AccessGraph {
    /// Target virtual-grid dimension.
    pub m: usize,
    /// All vertices (arrays first, then statements; order is stable).
    pub vertices: Vec<Vertex>,
    /// All directed edges (a square access contributes two).
    pub edges: Vec<Edge>,
    /// Accesses that produced no edge, with the reason.
    pub excluded: Vec<(AccessId, Exclusion)>,
    /// Number of array vertices; statement vertices follow them in
    /// [`AccessGraph::vertices`], making [`AccessGraph::vertex_index`] O(1).
    pub n_arrays: usize,
    /// Number of accesses in the source nest (edge ids per access live in
    /// `access_edge_span`).
    pub n_accesses: usize,
    /// Per access id, the half-open range of edge ids it produced (edges of
    /// one access are pushed contiguously; excluded accesses get an empty
    /// range). This is the access → edges adjacency used by `augment`.
    access_edge_span: Vec<(u32, u32)>,
}

/// What one access contributes to the graph, as a pure function of
/// `(F, m)` — classification (excluded or not, and why), edge directions,
/// and weight matrices. Everything position-dependent (which statement,
/// which array, edge ids) is applied at materialization time.
#[derive(Debug, Clone)]
enum CachedAccess {
    /// The access produces no edge.
    Excluded(Exclusion),
    /// The access produces these directed edges.
    Edges {
        /// `min(q, d)` = `rank F` (full by construction): the by-rank
        /// integer weight.
        full: i64,
        /// `true` iff the access is square (its edges are twins).
        square: bool,
        /// `(array_to_stmt, weight matrix)` per directed edge.
        dirs: Vec<(bool, IMat)>,
    },
}

/// Classify one access matrix: exclusion or edge set. The expensive parts
/// (rank, the integer left-inverse search, unimodular inversion) all live
/// here, and depend only on `(f, m)`.
fn classify_access(f: &IMat, m: usize) -> CachedAccess {
    let (q, d) = f.shape();
    let full = q.min(d);
    if f.rank() < full {
        return CachedAccess::Excluded(Exclusion::RankDeficient);
    }
    if full < m {
        return CachedAccess::Excluded(Exclusion::RankBelowTarget);
    }
    if q < d {
        // Flat: array → statement with weight F.
        CachedAccess::Edges {
            full: full as i64,
            square: false,
            dirs: vec![(true, f.clone())],
        }
    } else if q > d {
        // Narrow: statement → array with an integer G, G·F = Id.
        match small_left_inverse(f, 2) {
            Ok(g) => CachedAccess::Edges {
                full: full as i64,
                square: false,
                dirs: vec![(false, g)],
            },
            Err(_) => CachedAccess::Excluded(Exclusion::NoIntegerInverse),
        }
    } else {
        // Square: x → S always; S → x only if F is unimodular.
        let mut dirs = vec![(true, f.clone())];
        if matches!(f.det(), 1 | -1) {
            let inv = f.inverse_unimodular().expect("unimodular inverse");
            dirs.push((false, inv));
        }
        CachedAccess::Edges {
            full: full as i64,
            square: true,
            dirs,
        }
    }
}

/// Memo for the per-access work of [`AccessGraph::build_weighted`].
///
/// Exclusion checks and edge-weight matrices are pure functions of the
/// access matrix `F` and the target dimension `m` — in particular the
/// integer left-inverse search for narrow accesses, which dominates build
/// time on nests with store accesses. Repeated builds (batch serving,
/// parameter sweeps, `map_nest_with` under a warm `AnalysisCache`)
/// replay them from here via [`AccessGraph::build_weighted_cached`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuildCache {
    map: HashMap<(IMat, usize), CachedAccess>,
}

impl GraphBuildCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized `(F, m)` classifications.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop all memoized classifications.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

impl AccessGraph {
    /// Build the access graph of `nest` for an `m`-dimensional target grid
    /// (integer edge weights = `rank F`, the paper's volume estimate).
    pub fn build(nest: &LoopNest, m: usize) -> Self {
        Self::build_weighted(nest, m, true)
    }

    /// Build with a choice of weighting: `by_rank = true` gives the
    /// paper's volume-prioritized weights, `false` gives unit weights
    /// (the ablation: a plain maximum-cardinality branching).
    pub fn build_weighted(nest: &LoopNest, m: usize, by_rank: bool) -> Self {
        Self::build_impl(nest, m, by_rank, None)
    }

    /// [`AccessGraph::build_weighted`] with per-access memoization: the
    /// classification and weight matrices of each distinct `(F, m)` pair
    /// are computed once and replayed from `cache` thereafter.
    pub fn build_weighted_cached(
        nest: &LoopNest,
        m: usize,
        by_rank: bool,
        cache: &mut GraphBuildCache,
    ) -> Self {
        Self::build_impl(nest, m, by_rank, Some(cache))
    }

    fn build_impl(
        nest: &LoopNest,
        m: usize,
        by_rank: bool,
        mut cache: Option<&mut GraphBuildCache>,
    ) -> Self {
        assert!(m >= 1, "target dimension must be at least 1");
        let mut vertices = Vec::new();
        for i in 0..nest.arrays.len() {
            vertices.push(Vertex::Array(ArrayId(i)));
        }
        for i in 0..nest.statements.len() {
            vertices.push(Vertex::Stmt(StmtId(i)));
        }

        let mut edges: Vec<Edge> = Vec::new();
        let mut excluded = Vec::new();
        let mut access_edge_span = Vec::with_capacity(nest.accesses.len());
        for acc in &nest.accesses {
            let start = edges.len() as u32;
            access_edge_span.push((start, start));
            let fresh;
            let class: &CachedAccess = match cache.as_deref_mut() {
                Some(c) => c
                    .map
                    .entry((acc.f.clone(), m))
                    .or_insert_with(|| classify_access(&acc.f, m)),
                None => {
                    fresh = classify_access(&acc.f, m);
                    &fresh
                }
            };
            match class {
                CachedAccess::Excluded(why) => excluded.push((acc.id, why.clone())),
                CachedAccess::Edges { full, square, dirs } => {
                    let x = Vertex::Array(acc.array);
                    let s = Vertex::Stmt(acc.stmt);
                    let w = if by_rank { *full } else { 1 };
                    for (array_to_stmt, weight) in dirs {
                        let (from, to) = if *array_to_stmt { (x, s) } else { (s, x) };
                        let id = EdgeId(edges.len());
                        edges.push(Edge {
                            id,
                            access: acc.id,
                            from,
                            to,
                            weight: weight.clone(),
                            int_weight: w,
                            twin_of_square: *square,
                        });
                    }
                }
            }
            access_edge_span.last_mut().unwrap().1 = edges.len() as u32;
        }
        AccessGraph {
            m,
            vertices,
            edges,
            excluded,
            n_arrays: nest.arrays.len(),
            n_accesses: nest.accesses.len(),
            access_edge_span,
        }
    }

    /// Index of a vertex in [`AccessGraph::vertices`].
    ///
    /// O(1): vertices are laid out arrays-first, statements-after, so the
    /// index is a direct function of the vertex id.
    #[inline]
    pub fn vertex_index(&self, v: Vertex) -> usize {
        let idx = match v {
            Vertex::Array(ArrayId(i)) => i,
            Vertex::Stmt(StmtId(i)) => self.n_arrays + i,
        };
        debug_assert_eq!(self.vertices.get(idx), Some(&v), "vertex not in graph");
        idx
    }

    /// The edge ids produced by access `a`, as a half-open range into
    /// [`AccessGraph::edges`] (empty for excluded accesses). Edges of one
    /// access are contiguous, so this is the full access → edges adjacency.
    #[inline]
    pub fn access_edge_range(&self, a: AccessId) -> std::ops::Range<usize> {
        let (s, e) = self.access_edge_span[a.0];
        s as usize..e as usize
    }

    /// Number of *accesses* represented in the graph (square accesses
    /// count once even though they contribute two directed edges).
    pub fn represented_accesses(&self) -> usize {
        let mut ids: Vec<AccessId> = self.edges.iter().map(|e| e.access).collect();
        ids.sort();
        ids.dedup();
        ids.len()
    }

    /// The dimension (depth for statements, array rank for arrays)
    /// associated with a vertex — the column count of its allocation
    /// matrix.
    pub fn vertex_dim(&self, nest: &LoopNest, v: Vertex) -> usize {
        match v {
            Vertex::Array(x) => nest.array(x).dim,
            Vertex::Stmt(s) => nest.statement(s).depth,
        }
    }
}

impl fmt::Display for AccessGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "access graph (m = {}): {} vertices, {} directed edges, {} excluded",
            self.m,
            self.vertices.len(),
            self.edges.len(),
            self.excluded.len()
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {:?} -> {:?}  (access {:?}, |w| = {})",
                e.from, e.to, e.access, e.int_weight
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescomm_loopnest::examples;

    #[test]
    fn motivating_example_graph_shape() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let g = AccessGraph::build(&nest, 2);
        // 6 vertices: a, b, c, S1, S2, S3.
        assert_eq!(g.vertices.len(), 6);
        // 7 of the 8 accesses are represented (F8 is rank-deficient).
        assert_eq!(g.represented_accesses(), 7);
        assert_eq!(g.excluded.len(), 1);
        assert_eq!(g.excluded[0], (ids.f8, Exclusion::RankDeficient));
    }

    #[test]
    fn motivating_example_orientations() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let g = AccessGraph::build(&nest, 2);
        // F1 narrow (3×2): edge S1 → b.
        let e1 = g.edges.iter().find(|e| e.access == ids.f1).unwrap();
        assert_eq!(e1.from, Vertex::Stmt(ids.s1));
        assert_eq!(e1.to, Vertex::Array(ids.b));
        // Its weight satisfies G·F1 = Id.
        let f1 = &nest.access(ids.f1).f;
        assert!((&e1.weight * f1).is_identity());
        // F6 flat (2×3): edge a → S2 with weight F6 itself.
        let e6 = g.edges.iter().find(|e| e.access == ids.f6).unwrap();
        assert_eq!(e6.from, Vertex::Array(ids.a));
        assert_eq!(e6.to, Vertex::Stmt(ids.s2));
        assert_eq!(e6.weight, nest.access(ids.f6).f);
        // F5 square identity: double arrow (two edges).
        let e5: Vec<_> = g.edges.iter().filter(|e| e.access == ids.f5).collect();
        assert_eq!(e5.len(), 2);
        assert!(e5.iter().all(|e| e.twin_of_square));
    }

    #[test]
    fn motivating_example_weights() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let g = AccessGraph::build(&nest, 2);
        // Depth-3 square accesses have weight 3 ("edges of maximum weight").
        for e in &g.edges {
            let expect = nest.access(e.access).f.rank() as i64;
            assert_eq!(e.int_weight, expect);
        }
        let w5 = g
            .edges
            .iter()
            .find(|e| e.access == ids.f5)
            .unwrap()
            .int_weight;
        let w3 = g
            .edges
            .iter()
            .find(|e| e.access == ids.f3)
            .unwrap()
            .int_weight;
        assert_eq!(w5, 3);
        assert_eq!(w3, 2);
    }

    #[test]
    fn rank_below_target_excluded() {
        // With m = 3, the 2-D accesses of S1 fall below the target rank.
        let (nest, ids) = examples::motivating_example(8, 4);
        let g = AccessGraph::build(&nest, 3);
        assert!(g
            .excluded
            .iter()
            .any(|(a, r)| *a == ids.f2 && *r == Exclusion::RankBelowTarget));
        // F5 (3×3, rank 3) survives.
        assert!(g.edges.iter().any(|e| e.access == ids.f5));
    }

    #[test]
    fn square_non_unimodular_gets_single_direction() {
        use rescomm_intlin::IMat;
        use rescomm_loopnest::{Domain, NestBuilder};
        let mut b = NestBuilder::new("t");
        let x = b.array("x", 2);
        let s = b.statement("S", 2, Domain::cube(2, 4));
        // det = 2: no integral inverse.
        b.read(s, x, IMat::from_rows(&[&[2, 0], &[0, 1]]), &[0, 0]);
        let nest = b.build().unwrap();
        let g = AccessGraph::build(&nest, 2);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].from, Vertex::Array(x));
    }

    #[test]
    fn matmul_graph() {
        let nest = examples::matmul(4);
        let g = AccessGraph::build(&nest, 2);
        // Three flat accesses: three array→statement edges.
        assert_eq!(g.edges.len(), 3);
        assert!(g.edges.iter().all(|e| matches!(e.from, Vertex::Array(_))));
        assert!(g.excluded.is_empty());
    }

    #[test]
    fn gauss_graph_excludes_pivot() {
        let nest = examples::gauss_elim(4);
        let g = AccessGraph::build(&nest, 2);
        // The A[k,k] access (rank 1) is excluded; four flat rank-2 edges.
        assert_eq!(g.excluded.len(), 1);
        assert_eq!(g.excluded[0].1, Exclusion::RankDeficient);
        assert_eq!(g.edges.len(), 4);
    }

    #[test]
    fn vertex_dims() {
        let (nest, ids) = examples::motivating_example(4, 2);
        let g = AccessGraph::build(&nest, 2);
        assert_eq!(g.vertex_dim(&nest, Vertex::Array(ids.a)), 2);
        assert_eq!(g.vertex_dim(&nest, Vertex::Array(ids.b)), 3);
        assert_eq!(g.vertex_dim(&nest, Vertex::Stmt(ids.s1)), 2);
        assert_eq!(g.vertex_dim(&nest, Vertex::Stmt(ids.s2)), 3);
    }
}
