//! Maximum branchings via Chu–Liu/Edmonds with cycle contraction.
//!
//! A *branching* of a directed graph is an edge set in which every vertex
//! has at most one incoming edge and which contains no cycle; a *maximum
//! branching* maximizes the total edge weight (Evans & Minieka, cited by
//! the paper). The paper extracts a maximum branching of the access graph
//! so that the zeroed-out communications favour the edges of largest
//! integer weight — the accesses moving the most data.

use crate::graph::{AccessGraph, EdgeId};

/// A maximum branching: the chosen edges and their total integer weight.
///
/// `edges` is sorted by edge id — a canonical order, so two
/// implementations of the algorithm (see [`crate::reference`]) can be
/// compared for equality directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branching {
    /// Chosen edges of the original graph, ascending by id.
    pub edges: Vec<EdgeId>,
    /// Sum of the chosen edges' integer weights.
    pub total_weight: i64,
}

#[derive(Debug, Clone)]
struct RawEdge {
    from: usize,
    to: usize,
    w: i64,
    /// Index into the original edge list (stable across contractions).
    orig: usize,
}

const NIL: u32 = u32::MAX;

/// Arena of skew-heap nodes, one per input edge, ordered by
/// `(weight desc, original id asc)` — the same strict total order the
/// per-vertex best-edge scan used, so pops are canonical regardless of
/// meld history. `lazy` carries pending weight adjustments for a whole
/// subtree (Edmonds' cycle reweighting applied in O(1) per contraction
/// instead of rewriting every entering edge).
struct Heaps {
    l: Vec<u32>,
    r: Vec<u32>,
    key: Vec<i64>,
    lazy: Vec<i64>,
    orig: Vec<u32>,
}

impl Heaps {
    fn push_down(&mut self, x: u32) {
        let lz = self.lazy[x as usize];
        if lz == 0 {
            return;
        }
        for c in [self.l[x as usize], self.r[x as usize]] {
            if c != NIL {
                self.key[c as usize] += lz;
                self.lazy[c as usize] += lz;
            }
        }
        self.lazy[x as usize] = 0;
    }

    /// `true` when node `a` outranks node `b` (keys already settled).
    fn beats(&self, a: u32, b: u32) -> bool {
        let (ka, kb) = (self.key[a as usize], self.key[b as usize]);
        ka > kb || (ka == kb && self.orig[a as usize] < self.orig[b as usize])
    }

    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        self.push_down(a);
        self.push_down(b);
        let (top, other) = if self.beats(a, b) { (a, b) } else { (b, a) };
        let merged = self.meld(self.r[top as usize], other);
        self.r[top as usize] = self.l[top as usize];
        self.l[top as usize] = merged;
        top
    }

    /// Remove the root of `h`, returning the remaining heap.
    fn pop(&mut self, h: u32) -> u32 {
        self.push_down(h);
        self.meld(self.l[h as usize], self.r[h as usize])
    }

    /// Add `delta` to every key in heap `h`.
    fn add(&mut self, h: u32, delta: i64) {
        if h != NIL {
            self.key[h as usize] += delta;
            self.lazy[h as usize] += delta;
        }
    }
}

fn dsu_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// The contractions of one run in one flat arena: contraction `k`
/// replaced its cycle by super node `node[k]`, and its members — forest
/// nodes with their selected in-edges `(forest node, edge index, adjusted
/// weight)` — are `members[start[k]..start[k + 1]]`.
struct Events {
    node: Vec<u32>,
    start: Vec<u32>,
    members: Vec<(u32, u32, i64)>,
}

impl Events {
    fn len(&self) -> usize {
        self.node.len()
    }

    fn members(&self, k: usize) -> &[(u32, u32, i64)] {
        &self.members[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// Compute a maximum branching of `graph` (using the integer edge weights)
/// and return the chosen edge ids with the total weight.
pub fn maximum_branching(graph: &AccessGraph) -> Branching {
    let n = graph.vertices.len();
    let raw: Vec<RawEdge> = graph
        .edges
        .iter()
        .map(|e| RawEdge {
            from: graph.vertex_index(e.from),
            to: graph.vertex_index(e.to),
            w: e.int_weight,
            orig: e.id.0,
        })
        .collect();
    let chosen = max_branching_raw(n, raw);
    let total_weight = chosen.iter().map(|&i| graph.edges[i].int_weight).sum();
    Branching {
        edges: chosen.into_iter().map(EdgeId).collect(),
        total_weight,
    }
}

/// Chu–Liu/Edmonds in the Tarjan path-growth formulation: components are
/// union-find classes, each carrying a lazy-offset skew heap of its
/// incoming edges. Growing a path of best in-edges either terminates (no
/// positive in-edge, or a finished component is reached) or closes a
/// cycle, which is contracted in O(k log E) — heap melds plus one O(1)
/// lazy reweight per member — instead of the seed recursion's O(E) edge
/// rebuild. Every edge is popped at most once overall, so the whole run
/// is O(E log E); the seed pays O(E) per contraction, O(V·E) on the twin
/// chains square accesses produce (and even batched multi-cycle
/// contraction stays quadratic there, because each contraction exposes
/// the *next* 2-cycle of the chain one level later).
///
/// The per-vertex in-edge choice is a strict total order (weight desc,
/// then lowest original id), so the optimum is canonical and independent
/// of contraction and path order — the seed recursion (kept in
/// [`crate::reference`]) picks the same edge set. Returns original edge
/// indices, ascending.
fn max_branching_raw(n: usize, edges: Vec<RawEdge>) -> Vec<usize> {
    let ne = edges.len();
    if n == 0 || ne == 0 {
        return Vec::new();
    }

    // One heap node per edge; self-loops are never selectable, skip them.
    let mut heaps = Heaps {
        l: vec![NIL; ne],
        r: vec![NIL; ne],
        key: edges.iter().map(|e| e.w).collect(),
        lazy: vec![0; ne],
        orig: edges.iter().map(|e| e.orig as u32).collect(),
    };
    let mut heap: Vec<u32> = vec![NIL; n];
    for (i, e) in edges.iter().enumerate() {
        if e.from != e.to {
            heap[e.to] = heaps.meld(heap[e.to], i as u32);
        }
    }

    let mut dsu: Vec<u32> = (0..n as u32).collect();
    let mut size: Vec<u32> = vec![1; n];
    // Contraction forest: leaves 0..n are the vertices, every contraction
    // appends a super node. `chosen` holds a node's selected in-edge
    // `(edge index, adjusted weight)` until the node is itself contracted
    // (the edge then moves into the contraction's event record).
    //
    // Every contraction merges at least two classes, so there are fewer
    // than `n` of them, the forest has fewer than `2n` nodes, and every
    // forest node is a contraction member at most once: the tables below
    // are sized once.
    let mut node_of: Vec<u32> = (0..n as u32).collect();
    let mut fparent: Vec<u32> = Vec::with_capacity(2 * n);
    fparent.resize(n, NIL);
    let mut chosen: Vec<Option<(u32, i64)>> = Vec::with_capacity(2 * n);
    chosen.resize(n, None);
    let mut events = Events {
        node: Vec::with_capacity(n),
        start: Vec::with_capacity(n + 1),
        members: Vec::with_capacity(2 * n),
    };
    events.start.push(0);
    // The union-find representatives of the cycle being contracted,
    // aligned with its entries in `events.members`.
    let mut reprs: Vec<u32> = Vec::new();
    // 0 = untouched, 1 = on the current path, 2 = finished.
    let mut status: Vec<u8> = vec![0; n];
    let mut path: Vec<u32> = Vec::new();

    for start in 0..n as u32 {
        let s = dsu_find(&mut dsu, start);
        if status[s as usize] != 0 {
            continue;
        }
        let mut current = s;
        status[current as usize] = 1;
        path.push(current);
        loop {
            // Best positive in-edge of `current`, discarding edges the
            // contractions have turned into self-loops.
            let mut picked = NIL;
            while heap[current as usize] != NIL {
                let top = heap[current as usize];
                heaps.push_down(top);
                if dsu_find(&mut dsu, edges[top as usize].from as u32) == current {
                    heap[current as usize] = heaps.pop(top);
                    continue;
                }
                if heaps.key[top as usize] <= 0 {
                    break; // offsets only decrease keys; still inert after melds
                }
                heap[current as usize] = heaps.pop(top);
                picked = top;
                break;
            }
            if picked == NIL {
                // `current` is a root of the branching: the path cannot
                // close a cycle through it, so everything on it is final.
                for v in path.drain(..) {
                    status[v as usize] = 2;
                }
                break;
            }
            chosen[node_of[current as usize] as usize] = Some((picked, heaps.key[picked as usize]));
            let p = dsu_find(&mut dsu, edges[picked as usize].from as u32);
            match status[p as usize] {
                2 => {
                    // Entered the finished region: in-edges there are
                    // settled, no cycle can form — the path is final too.
                    for v in path.drain(..) {
                        status[v as usize] = 2;
                    }
                    break;
                }
                0 => {
                    status[p as usize] = 1;
                    path.push(p);
                    current = p;
                }
                _ => {
                    // `p` is on the path: the segment p..=current is a
                    // cycle. Contract it: record the event, reweight each
                    // member's remaining in-edges by (wmin − selected) in
                    // O(1), meld the heaps, union the classes.
                    let snode = fparent.len() as u32;
                    fparent.push(NIL);
                    chosen.push(None);
                    let first = events.members.len();
                    reprs.clear();
                    let mut wmin = i64::MAX;
                    loop {
                        let m = path.pop().expect("cycle member on path");
                        let mnode = node_of[m as usize];
                        let (ce, adj) = chosen[mnode as usize]
                            .take()
                            .expect("path member has a selected in-edge");
                        wmin = wmin.min(adj);
                        events.members.push((mnode, ce, adj));
                        reprs.push(m);
                        fparent[mnode as usize] = snode;
                        if m == p {
                            break;
                        }
                    }
                    let mut merged = NIL;
                    for (&m, &(_, _, adj)) in reprs.iter().zip(&events.members[first..]) {
                        heaps.add(heap[m as usize], wmin - adj);
                        merged = heaps.meld(merged, heap[m as usize]);
                        heap[m as usize] = NIL;
                    }
                    let mut r = reprs[0];
                    for &m in &reprs[1..] {
                        let (a, b) = if size[r as usize] >= size[m as usize] {
                            (r, m)
                        } else {
                            (m, r)
                        };
                        dsu[b as usize] = a;
                        size[a as usize] += size[b as usize];
                        r = a;
                    }
                    heap[r as usize] = merged;
                    node_of[r as usize] = snode;
                    status[r as usize] = 1;
                    path.push(r);
                    current = r;
                    events.node.push(snode);
                    events.start.push(events.members.len() as u32);
                }
            }
        }
    }

    // Expansion: outermost contraction first (events are created inner to
    // outer, so reverse order). A contracted cycle entered from outside
    // keeps all its selected edges except the one of the member the entry
    // lands in; an unentered cycle drops a minimum one instead.
    let mut assigned: Vec<Option<u32>> = vec![None; fparent.len()];
    let mut result: Vec<usize> = Vec::with_capacity(n);
    for node in 0..fparent.len() {
        if fparent[node] == NIL {
            if let Some((eidx, _)) = chosen[node] {
                assigned[node] = Some(eidx);
                result.push(edges[eidx as usize].orig);
            }
        }
    }
    for k in (0..events.len()).rev() {
        let (node, members) = (events.node[k], events.members(k));
        let drop_node = match assigned[node as usize] {
            Some(eidx) => {
                // Walk the forest up from the entry edge's original target
                // to the member of *this* contraction containing it.
                let mut x = edges[eidx as usize].to as u32;
                while fparent[x as usize] != node {
                    x = fparent[x as usize];
                    debug_assert_ne!(x, NIL, "entry target outside contracted cycle");
                }
                x
            }
            None => {
                members
                    .iter()
                    .min_by_key(|&&(_, ce, adj)| (adj, edges[ce as usize].orig))
                    .expect("contraction has members")
                    .0
            }
        };
        for &(mnode, ce, _) in members {
            if mnode == drop_node {
                // Displaced by the entry edge (or dropped): pass the entry
                // down so nested contractions resolve against it.
                assigned[mnode as usize] = assigned[node as usize];
            } else {
                assigned[mnode as usize] = Some(ce);
                result.push(edges[ce as usize].orig);
            }
        }
    }
    result.sort_unstable();
    result
}

/// Brute-force maximum branching over all edge subsets: exponential, only
/// for validation on tiny graphs.
pub fn brute_force_branching(n: usize, edges: &[(usize, usize, i64)]) -> i64 {
    assert!(edges.len() <= 20, "brute force limited to 20 edges");
    let mut best = 0i64;
    for mask in 0u32..(1 << edges.len()) {
        let mut indeg = vec![0usize; n];
        let mut w = 0i64;
        let mut ok = true;
        let mut chosen = Vec::new();
        for (i, &(u, v, ew)) in edges.iter().enumerate() {
            if mask & (1 << i) != 0 {
                indeg[v] += 1;
                if indeg[v] > 1 || u == v {
                    ok = false;
                    break;
                }
                w += ew;
                chosen.push((u, v));
            }
        }
        if !ok {
            continue;
        }
        // Acyclicity: repeatedly remove vertices with no outgoing edge.
        let mut alive: Vec<(usize, usize)> = chosen.clone();
        loop {
            let before = alive.len();
            let has_out: Vec<bool> = {
                let mut h = vec![false; n];
                for &(u, _) in &alive {
                    h[u] = true;
                }
                h
            };
            alive.retain(|&(_, v)| has_out[v]);
            if alive.len() == before {
                break;
            }
        }
        if alive.is_empty() {
            best = best.max(w);
        }
    }
    best
}

/// Validity check used by tests and the pipeline's debug assertions:
/// in-degree ≤ 1 and acyclicity of the chosen edge set.
pub fn is_valid_branching(graph: &AccessGraph, b: &Branching) -> bool {
    let n = graph.vertices.len();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &eid in &b.edges {
        let e = &graph.edges[eid.0];
        let (u, v) = (graph.vertex_index(e.from), graph.vertex_index(e.to));
        indeg[v] += 1;
        if indeg[v] > 1 {
            return false;
        }
        adj[u].push(v);
    }
    // Kahn-style acyclicity on the chosen edges.
    let mut indeg2 = indeg.clone();
    let mut stack: Vec<usize> = (0..n).filter(|&v| indeg2[v] == 0).collect();
    let mut visited = 0;
    while let Some(v) = stack.pop() {
        visited += 1;
        for &w in &adj[v] {
            indeg2[w] -= 1;
            if indeg2[w] == 0 {
                stack.push(w);
            }
        }
    }
    visited == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescomm_loopnest::examples;

    fn raw(n: usize, edges: &[(usize, usize, i64)]) -> i64 {
        let re: Vec<RawEdge> = edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| RawEdge {
                from: u,
                to: v,
                w,
                orig: i,
            })
            .collect();
        let chosen = max_branching_raw(n, re);
        chosen.iter().map(|&i| edges[i].2).sum()
    }

    #[test]
    fn simple_chain() {
        assert_eq!(raw(3, &[(0, 1, 5), (1, 2, 3)]), 8);
    }

    #[test]
    fn indegree_conflict_picks_heavier() {
        assert_eq!(raw(3, &[(0, 2, 5), (1, 2, 7)]), 7);
    }

    #[test]
    fn two_cycle_broken() {
        // 0→1 (4) and 1→0 (5) form a cycle; only one survives.
        assert_eq!(raw(2, &[(0, 1, 4), (1, 0, 5)]), 5);
    }

    #[test]
    fn cycle_with_external_entry() {
        // Cycle 0→1→2→0 of weight 3 each, plus 3→1 (weight 2). The
        // optimum takes 3→1, 1→2, 2→0: weight 8.
        assert_eq!(raw(4, &[(0, 1, 3), (1, 2, 3), (2, 0, 3), (3, 1, 2)]), 8);
    }

    #[test]
    fn matches_brute_force_on_randoms() {
        let mut seed = 0xfeedu64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(3);
            (seed >> 33) as usize
        };
        for _ in 0..300 {
            let n = 2 + next() % 4; // 2..=5 vertices
            let ecount = 1 + next() % 9; // 1..=9 edges
            let mut edges = Vec::new();
            for _ in 0..ecount {
                let u = next() % n;
                let mut v = next() % n;
                if v == u {
                    v = (v + 1) % n;
                }
                let w = 1 + (next() % 5) as i64;
                edges.push((u, v, w));
            }
            let got = raw(n, &edges);
            let want = brute_force_branching(n, &edges);
            assert_eq!(got, want, "n={n} edges={edges:?}");
        }
    }

    #[test]
    fn motivating_example_branching() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let g = crate::graph::AccessGraph::build(&nest, 2);
        let b = maximum_branching(&g);
        assert!(is_valid_branching(&g, &b));
        // 5 edges (6 vertices, a as root), and both weight-3 edges in.
        assert_eq!(b.edges.len(), 5);
        assert_eq!(b.total_weight, 3 + 3 + 2 + 2 + 2);
        let accs: Vec<_> = b.edges.iter().map(|e| g.edges[e.0].access).collect();
        assert!(accs.contains(&ids.f5), "weight-3 F5 must be zeroed");
        assert!(accs.contains(&ids.f7), "weight-3 F7 must be zeroed");
        assert!(accs.contains(&ids.f1));
        assert!(accs.contains(&ids.f4));
        // Exactly one of F2/F3 (both enter S1).
        let s1_reads = [ids.f2, ids.f3]
            .iter()
            .filter(|&&a| accs.contains(&a))
            .count();
        assert_eq!(s1_reads, 1);
        // F6 (a→S2) cannot be in: S2 already has its in-edge from b (F5)…
        // unless the branching chose F6 instead; weight says F5 (3) beats
        // F6 (2).
        assert!(!accs.contains(&ids.f6));
    }

    #[test]
    fn matmul_branching_saturates() {
        let nest = examples::matmul(4);
        let g = crate::graph::AccessGraph::build(&nest, 2);
        let b = maximum_branching(&g);
        assert!(is_valid_branching(&g, &b));
        // Three edges all enter the single statement: only one fits.
        assert_eq!(b.edges.len(), 1);
        assert_eq!(b.total_weight, 2);
    }

    #[test]
    fn empty_graph() {
        use rescomm_loopnest::{Domain, NestBuilder};
        let mut bld = NestBuilder::new("empty");
        let _ = bld.array("x", 1);
        let _ = bld.statement("S", 1, Domain::cube(1, 2));
        let nest = bld.build().unwrap();
        let g = crate::graph::AccessGraph::build(&nest, 1);
        let b = maximum_branching(&g);
        assert!(b.edges.is_empty());
        assert_eq!(b.total_weight, 0);
    }
}
