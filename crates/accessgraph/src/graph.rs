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

use rescomm_intlin::{small_left_inverse, FxMap, IMat, MatId, MatTable};
use rescomm_loopnest::{AccessId, ArrayId, LoopNest, StmtId};
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
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Edge identifier (index into [`AccessGraph::edges`]).
    pub id: EdgeId,
    /// The access this edge represents.
    pub access: AccessId,
    /// Source vertex.
    pub from: Vertex,
    /// Destination vertex.
    pub to: Vertex,
    /// Weight matrix `W` (local iff `M_to = M_from · W`), as an index
    /// into the graph's distinct weights: read it with
    /// [`AccessGraph::weight`], or its [`MatId`] with
    /// [`AccessGraph::weight_id`].
    pub weight: u32,
    /// Integer weight for the branching: `rank F`, a consistent estimate of
    /// the communication volume (§2.2.3).
    pub int_weight: i64,
    /// `true` if this edge is one direction of a square (double-arrow)
    /// access; its twin has the same `access`.
    pub twin_of_square: bool,
}

/// Why an access did not produce a graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// The distinct weight matrices, indexed by [`Edge::weight`].
    weights: Vec<IMat>,
    /// The id of each of `weights` in the table the graph was built in.
    weight_ids: Vec<MatId>,
    /// The id of each access's `F` in that table, by access id.
    f_ids: Vec<MatId>,
    /// [`MatTable::tag`] of that table.
    table_tag: u64,
}

/// What one access contributes to the graph, as a pure function of
/// `(F, m)`: excluded (and why), or its edges with their by-rank weight.
/// Everything position-dependent (which statement, which array, edge ids)
/// is applied when the edges are pushed. `W` names a weight: a [`MatId`]
/// in [`EdgeClasses`], an index into the graph's weights in a build.
#[derive(Debug, Clone, Copy)]
enum Class<W> {
    /// The access produces no edge.
    Excluded(Exclusion),
    /// The access produces one or two directed edges.
    Edges {
        /// `min(q, d)` = `rank F` (full by construction): the by-rank
        /// integer weight.
        full: i64,
        /// `true` iff the access is square (its edges are twins).
        square: bool,
        /// `(array_to_stmt, weight)` per directed edge; the second is
        /// used only when `n == 2`.
        dirs: [(bool, W); 2],
        /// Number of directed edges (1 or 2).
        n: u8,
    },
}

/// Classify the access matrix `f` (id `fid` in `mats`): exclusion or edge
/// set, its weights interned in `mats`. The expensive parts (rank, the
/// integer left-inverse search, unimodular inversion) all live here and
/// depend only on `(f, m)`.
fn classify_access(f: &IMat, fid: MatId, m: usize, mats: &mut MatTable) -> Class<MatId> {
    let (q, d) = f.shape();
    let full = q.min(d);
    if f.rank() < full {
        return Class::Excluded(Exclusion::RankDeficient);
    }
    if full < m {
        return Class::Excluded(Exclusion::RankBelowTarget);
    }
    let full = full as i64;
    let edges = |square, dirs, n| Class::Edges {
        full,
        square,
        dirs,
        n,
    };
    if q < d {
        // Flat: array → statement with weight F.
        edges(false, [(true, fid); 2], 1)
    } else if q > d {
        // Narrow: statement → array with an integer G, G·F = Id.
        match small_left_inverse(f, 2) {
            Ok(g) => edges(false, [(false, mats.intern_owned(g)); 2], 1),
            Err(_) => Class::Excluded(Exclusion::NoIntegerInverse),
        }
    } else if matches!(f.det(), 1 | -1) {
        // Square: x → S always; S → x only if F is unimodular.
        let inv = f.inverse_unimodular().expect("unimodular inverse");
        edges(true, [(true, fid), (false, mats.intern_owned(inv))], 2)
    } else {
        edges(true, [(true, fid); 2], 1)
    }
}

/// The classification of each distinct access matrix, by its id and `m`,
/// kept across the graph builds in one [`MatTable`]: a nest repeats its
/// few matrices hundreds of times, and a stream of small nests repeats
/// them across nests. Its entries hold ids of the table they were made
/// in and are dropped when [`AccessGraph::build_in`] is given another
/// table (or the same one after [`MatTable::clear`]).
#[derive(Debug, Default)]
pub struct EdgeClasses {
    map: FxMap<(MatId, usize), Class<MatId>>,
    tag: u64,
}

impl EdgeClasses {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of classified `(F, m)` pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is classified.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every classification.
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
    /// (the ablation: a plain maximum-cardinality branching). The matrix
    /// ids live in a private table; passes that read ids need
    /// [`AccessGraph::build_in`].
    pub fn build_weighted(nest: &LoopNest, m: usize, by_rank: bool) -> Self {
        Self::build_in(
            nest,
            m,
            by_rank,
            &mut MatTable::new(),
            &mut EdgeClasses::new(),
        )
    }

    /// [`AccessGraph::build_weighted`] with every access matrix and edge
    /// weight interned in `mats`, and each distinct `F` classified once
    /// per `classes` (by id). The passes that follow read the ids
    /// ([`AccessGraph::weight_id`], [`AccessGraph::f_ids`]) in the same
    /// table.
    pub fn build_in(
        nest: &LoopNest,
        m: usize,
        by_rank: bool,
        mats: &mut MatTable,
        classes: &mut EdgeClasses,
    ) -> Self {
        assert!(m >= 1, "target dimension must be at least 1");
        if classes.tag != mats.tag() {
            classes.map.clear();
            classes.tag = mats.tag();
        }
        let n_arrays = nest.arrays.len();
        let mut vertices = Vec::with_capacity(n_arrays + nest.statements.len());
        vertices.extend((0..n_arrays).map(|i| Vertex::Array(ArrayId(i))));
        vertices.extend((0..nest.statements.len()).map(|i| Vertex::Stmt(StmtId(i))));

        let mut edges: Vec<Edge> = Vec::with_capacity(nest.accesses.len() * 2);
        let mut excluded = Vec::new();
        let mut access_edge_span = Vec::with_capacity(nest.accesses.len());
        let mut f_ids = Vec::with_capacity(nest.accesses.len());
        let mut weights = Vec::new();
        let mut weight_ids = Vec::new();
        // Each distinct F of this build, with its weights as indices into
        // `weights`.
        let mut local: FxMap<MatId, Class<u32>> = FxMap::default();
        let mut last: Option<(MatId, Class<u32>)> = None;
        for acc in &nest.accesses {
            let fid = mats.intern(&acc.f);
            f_ids.push(fid);
            let class = match last {
                Some((id, c)) if id == fid => c,
                _ => {
                    let c = *local.entry(fid).or_insert_with(|| {
                        let class = *classes
                            .map
                            .entry((fid, m))
                            .or_insert_with(|| classify_access(&acc.f, fid, m, mats));
                        match class {
                            Class::Excluded(why) => Class::Excluded(why),
                            Class::Edges {
                                full,
                                square,
                                dirs,
                                n,
                            } => {
                                let mut index = |(to_stmt, id): (bool, MatId)| {
                                    weights.push(mats[id].clone());
                                    weight_ids.push(id);
                                    (to_stmt, (weights.len() - 1) as u32)
                                };
                                let first = index(dirs[0]);
                                let second = if n == 2 { index(dirs[1]) } else { first };
                                Class::Edges {
                                    full,
                                    square,
                                    dirs: [first, second],
                                    n,
                                }
                            }
                        }
                    });
                    last = Some((fid, c));
                    c
                }
            };
            let start = edges.len() as u32;
            match class {
                Class::Excluded(why) => excluded.push((acc.id, why)),
                Class::Edges {
                    full,
                    square,
                    dirs,
                    n,
                } => {
                    let x = Vertex::Array(acc.array);
                    let s = Vertex::Stmt(acc.stmt);
                    let w = if by_rank { full } else { 1 };
                    for &(array_to_stmt, weight) in &dirs[..n as usize] {
                        let (from, to) = if array_to_stmt { (x, s) } else { (s, x) };
                        edges.push(Edge {
                            id: EdgeId(edges.len()),
                            access: acc.id,
                            from,
                            to,
                            weight,
                            int_weight: w,
                            twin_of_square: square,
                        });
                    }
                }
            }
            access_edge_span.push((start, edges.len() as u32));
        }
        AccessGraph {
            m,
            vertices,
            edges,
            excluded,
            n_arrays,
            n_accesses: nest.accesses.len(),
            access_edge_span,
            weights,
            weight_ids,
            f_ids,
            table_tag: mats.tag(),
        }
    }

    /// The weight matrix `W` of edge `e`.
    #[inline]
    pub fn weight(&self, e: &Edge) -> &IMat {
        &self.weights[e.weight as usize]
    }

    /// The id of `e`'s weight in the table the graph was built in.
    #[inline]
    pub fn weight_id(&self, e: &Edge) -> MatId {
        self.weight_ids[e.weight as usize]
    }

    /// The id of every access's matrix `F` (by access id) in the table
    /// the graph was built in.
    #[inline]
    pub fn f_ids(&self) -> &[MatId] {
        &self.f_ids
    }

    /// Assert that `mats` is the table (and the same generation of it)
    /// the graph was built in, so its ids mean what the graph says.
    ///
    /// # Panics
    /// Panics on any other table, or after `mats` was cleared.
    pub fn check_table(&self, mats: &MatTable) {
        assert_eq!(
            self.table_tag,
            mats.tag(),
            "matrix ids from another table: build the graph with AccessGraph::build_in"
        );
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
        assert!((g.weight(e1) * f1).is_identity());
        // F6 flat (2×3): edge a → S2 with weight F6 itself.
        let e6 = g.edges.iter().find(|e| e.access == ids.f6).unwrap();
        assert_eq!(e6.from, Vertex::Array(ids.a));
        assert_eq!(e6.to, Vertex::Stmt(ids.s2));
        assert_eq!(*g.weight(e6), nest.access(ids.f6).f);
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
    fn edge_classes_persist_per_table_and_m() {
        let (nest, _) = examples::motivating_example(8, 4);
        let mut mats = MatTable::new();
        let mut classes = EdgeClasses::new();
        let fresh = AccessGraph::build(&nest, 2);
        let first = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut classes);
        let n = classes.len();
        let distinct: std::collections::HashSet<&IMat> =
            nest.accesses.iter().map(|a| &a.f).collect();
        assert_eq!(n, distinct.len(), "one entry per distinct F");
        let again = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut classes);
        assert_eq!(classes.len(), n, "a second build classifies nothing new");
        for g in [&first, &again] {
            assert_eq!(g.excluded, fresh.excluded);
            assert_eq!(g.edges.len(), fresh.edges.len());
            for (e, f) in g.edges.iter().zip(&fresh.edges) {
                assert_eq!(
                    (e.access, e.from, e.to, e.int_weight),
                    (f.access, f.from, f.to, f.int_weight)
                );
                assert_eq!(g.weight(e), fresh.weight(f));
                assert_eq!(mats[g.weight_id(e)], *g.weight(e));
            }
        }
        // Another m classifies afresh beside the first.
        AccessGraph::build_in(&nest, 3, true, &mut mats, &mut classes);
        assert!(classes.len() > n);
        // Another table's ids would mean other matrices: the memo starts over.
        let mut other = MatTable::new();
        AccessGraph::build_in(&nest, 2, true, &mut other, &mut classes);
        assert_eq!(classes.len(), n);
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
