//! A `P×Q` wormhole 2-D mesh with XY routing and per-link serialization —
//! the Paragon-like substrate for Table 2 and Figure 8.
//!
//! Contention model: a wormhole message reserves **every link of its
//! route** for its whole transfer time (head-of-line blocking collapses
//! the pipeline to this approximation); two messages sharing any link
//! serialize. A communication phase is scheduled greedily: messages are
//! processed in deterministic order, each starting as soon as all its
//! links are free. The phase *makespan* is what the benchmarks report —
//! exactly the quantity the paper measures when it times one
//! communication pattern.

use crate::model::{CostModel, PMsg};
use std::cmp::Ordering;

/// A 2-D mesh of `px × py` nodes.
///
/// ```
/// use rescomm_machine::{CostModel, Mesh2D, PMsg};
/// let mesh = Mesh2D::new(8, 4, CostModel::paragon());
/// // Two messages forced through one link serialize:
/// let a = PMsg { src: 0, dst: 3, bytes: 64 };
/// let b = PMsg { src: 1, dst: 2, bytes: 64 };
/// let both = mesh.simulate_phase(&[a, b]);
/// assert_eq!(both, mesh.simulate_phase(&[a]) + mesh.simulate_phase(&[b]));
/// ```
#[derive(Debug, Clone)]
pub struct Mesh2D {
    /// Nodes along X.
    pub px: usize,
    /// Nodes along Y.
    pub py: usize,
    /// The cost model.
    pub cost: CostModel,
}

/// Directed link identifier inside the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(usize);

impl LinkId {
    /// Dense index of the link (for utilization tables).
    pub fn index(&self) -> usize {
        self.0
    }
}

#[inline]
fn h_link_id(px: usize, x: usize, y: usize, positive: bool) -> usize {
    (y * (px - 1) + x) * 2 + usize::from(positive)
}

#[inline]
fn v_link_id(px: usize, py: usize, x: usize, y: usize, positive: bool) -> usize {
    2 * (px - 1) * py + (x * (py - 1) + y) * 2 + usize::from(positive)
}

/// Allocation-free iterator over the directed links of a dimension-order
/// route (see [`Mesh2D::route_links`] and [`Mesh2D::route_links_yx`]).
/// Owns plain coordinates, so it borrows nothing and can be re-created
/// cheaply for the two passes a greedy scheduler needs (reserve scan,
/// then commit scan).
#[derive(Debug, Clone)]
pub struct RouteLinks {
    px: usize,
    py: usize,
    x: usize,
    y: usize,
    tx: usize,
    ty: usize,
    /// Route Y before X (the fault-avoidance alternative to XY).
    yx: bool,
}

impl RouteLinks {
    #[inline]
    fn step_x(&mut self) -> LinkId {
        if self.x < self.tx {
            let l = h_link_id(self.px, self.x, self.y, true);
            self.x += 1;
            LinkId(l)
        } else {
            self.x -= 1;
            LinkId(h_link_id(self.px, self.x, self.y, false))
        }
    }

    #[inline]
    fn step_y(&mut self) -> LinkId {
        if self.y < self.ty {
            let l = v_link_id(self.px, self.py, self.x, self.y, true);
            self.y += 1;
            LinkId(l)
        } else {
            self.y -= 1;
            LinkId(v_link_id(self.px, self.py, self.x, self.y, false))
        }
    }
}

impl Iterator for RouteLinks {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        if self.yx {
            if self.y != self.ty {
                Some(self.step_y())
            } else if self.x != self.tx {
                Some(self.step_x())
            } else {
                None
            }
        } else if self.x != self.tx {
            Some(self.step_x())
        } else if self.y != self.ty {
            Some(self.step_y())
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.x.abs_diff(self.tx) + self.y.abs_diff(self.ty);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteLinks {}

impl Mesh2D {
    /// Build a mesh.
    pub fn new(px: usize, py: usize, cost: CostModel) -> Self {
        assert!(px > 0 && py > 0);
        Mesh2D { px, py, cost }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.px * self.py
    }

    /// Flatten `(x, y)` to a node id.
    pub fn node_id(&self, x: usize, y: usize) -> usize {
        assert!(x < self.px && y < self.py, "node ({x},{y}) out of mesh");
        y * self.px + x
    }

    /// Unflatten a node id.
    pub fn coords(&self, id: usize) -> (usize, usize) {
        assert!(id < self.nodes());
        (id % self.px, id / self.px)
    }

    /// Number of directed links (2 per adjacent pair).
    pub fn link_count(&self) -> usize {
        // Horizontal: (px−1)·py pairs; vertical: px·(py−1) pairs; ×2.
        2 * ((self.px - 1) * self.py + self.px * (self.py - 1))
    }

    /// Directed link between `(x,y)` and `(x+1,y)` (`positive` = rightward).
    pub fn h_link(&self, x: usize, y: usize, positive: bool) -> LinkId {
        // Link between (x,y) and (x+1,y): the right endpoint must exist.
        debug_assert!(x + 1 < self.px);
        LinkId(h_link_id(self.px, x, y, positive))
    }

    /// Directed link between `(x,y)` and `(x,y+1)` (`positive` = upward).
    pub fn v_link(&self, x: usize, y: usize, positive: bool) -> LinkId {
        // Link between (x,y) and (x,y+1): the upper endpoint must exist.
        debug_assert!(y + 1 < self.py);
        LinkId(v_link_id(self.px, self.py, x, y, positive))
    }

    /// XY route between two nodes: X first, then Y; returns directed links.
    pub fn route(&self, src: usize, dst: usize) -> Vec<LinkId> {
        self.route_links(src, dst).collect()
    }

    /// Allocation-free XY route: an iterator over the directed links
    /// between two nodes (X first, then Y). This is the hot-path form
    /// [`crate::PhaseSim`] uses; [`Mesh2D::route`] is its collected twin.
    pub fn route_links(&self, src: usize, dst: usize) -> RouteLinks {
        let (x, y) = self.coords(src);
        let (tx, ty) = self.coords(dst);
        RouteLinks {
            px: self.px,
            py: self.py,
            x,
            y,
            tx,
            ty,
            yx: false,
        }
    }

    /// The YX alternative to [`Mesh2D::route_links`]: Y first, then X.
    /// Same hop count, but (for src/dst differing in both dimensions) a
    /// disjoint set of intermediate links — the fault scheduler uses it
    /// to route around a dead link on the XY path.
    pub fn route_links_yx(&self, src: usize, dst: usize) -> RouteLinks {
        let mut r = self.route_links(src, dst);
        r.yx = true;
        r
    }

    /// Append the link indices of the XY route (YX with `yx`) from `src`
    /// to `dst` to `out` — the links [`Mesh2D::route_links`] yields. Each
    /// leg of a dimension-order route is an arithmetic run of link ids
    /// (step ±2), so it is written in bulk rather than walked hop by hop.
    pub(crate) fn extend_route(&self, src: usize, dst: usize, yx: bool, out: &mut Vec<u32>) {
        let (x, y) = self.coords(src);
        let (tx, ty) = self.coords(dst);
        let (px, py) = (self.px, self.py);
        let run = |out: &mut Vec<u32>, first: usize, n: usize, up: bool| {
            out.extend((0..n).map(|k| if up { first + 2 * k } else { first - 2 * k } as u32));
        };
        let h_leg = |out: &mut Vec<u32>, y: usize| match x.cmp(&tx) {
            Ordering::Less => run(out, h_link_id(px, x, y, true), tx - x, true),
            Ordering::Greater => run(out, h_link_id(px, x - 1, y, false), x - tx, false),
            Ordering::Equal => {}
        };
        let v_leg = |out: &mut Vec<u32>, x: usize| match y.cmp(&ty) {
            Ordering::Less => run(out, v_link_id(px, py, x, y, true), ty - y, true),
            Ordering::Greater => run(out, v_link_id(px, py, x, y - 1, false), y - ty, false),
            Ordering::Equal => {}
        };
        if yx {
            v_leg(out, x);
            h_leg(out, ty);
        } else {
            h_leg(out, y);
            v_leg(out, tx);
        }
    }

    /// Hop count of the XY route.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        let (x, y) = self.coords(src);
        let (tx, ty) = self.coords(dst);
        x.abs_diff(tx) + y.abs_diff(ty)
    }

    /// Simulate one communication phase: all messages available at t = 0,
    /// greedy whole-route reservation in deterministic (sorted) order.
    /// Returns the makespan in nanoseconds (0 for an empty phase).
    pub fn simulate_phase(&self, msgs: &[PMsg]) -> u64 {
        let mut link_free = vec![0u64; self.link_count()];
        let mut msgs: Vec<PMsg> = msgs.iter().copied().filter(|m| m.src != m.dst).collect();
        msgs.sort();
        let mut makespan = 0u64;
        for m in &msgs {
            let route = self.route(m.src, m.dst);
            let dur = self.cost.p2p(route.len(), m.bytes);
            let start = route.iter().map(|l| link_free[l.0]).max().unwrap_or(0);
            let end = start + dur;
            for l in &route {
                link_free[l.0] = end;
            }
            makespan = makespan.max(end);
        }
        makespan
    }

    /// Simulate a sequence of dependent phases (each starts after the
    /// previous completes) and return the total time.
    pub fn simulate_phases(&self, phases: &[Vec<PMsg>]) -> u64 {
        phases.iter().map(|p| self.simulate_phase(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(px: usize, py: usize) -> Mesh2D {
        Mesh2D::new(px, py, CostModel::paragon())
    }

    #[test]
    fn routes_are_xy_and_hop_counts_match() {
        let m = mesh(4, 4);
        let a = m.node_id(0, 0);
        let b = m.node_id(3, 2);
        let r = m.route(a, b);
        assert_eq!(r.len(), 5);
        assert_eq!(m.hops(a, b), 5);
        // Reverse direction uses different (opposite) links.
        let r2 = m.route(b, a);
        assert_eq!(r2.len(), 5);
        assert!(
            r.iter().all(|l| !r2.contains(l)),
            "directed links must differ"
        );
    }

    #[test]
    fn route_links_iterator_matches_collected_route() {
        let m = mesh(4, 3);
        for src in 0..m.nodes() {
            for dst in 0..m.nodes() {
                let collected = m.route(src, dst);
                let streamed: Vec<LinkId> = m.route_links(src, dst).collect();
                assert_eq!(collected, streamed);
                assert_eq!(m.route_links(src, dst).len(), m.hops(src, dst));
            }
        }
    }

    #[test]
    fn yx_route_same_hops_disjoint_interior() {
        let m = mesh(4, 4);
        let a = m.node_id(0, 0);
        let b = m.node_id(3, 2);
        let xy: Vec<LinkId> = m.route_links(a, b).collect();
        let yx: Vec<LinkId> = m.route_links_yx(a, b).collect();
        assert_eq!(xy.len(), yx.len());
        assert_eq!(m.route_links_yx(a, b).len(), m.hops(a, b));
        // XY goes right along y=0; YX goes up along x=0: no shared links.
        assert!(xy.iter().all(|l| !yx.contains(l)));
        // YX starts with a vertical link, XY with a horizontal one.
        assert_eq!(yx[0], m.v_link(0, 0, true));
        assert_eq!(xy[0], m.h_link(0, 0, true));
    }

    #[test]
    fn yx_route_degenerates_to_xy_on_straight_lines() {
        let m = mesh(4, 4);
        for (a, b) in [(0, 3), (0, 12), (5, 5)] {
            let xy: Vec<LinkId> = m.route_links(a, b).collect();
            let yx: Vec<LinkId> = m.route_links_yx(a, b).collect();
            assert_eq!(xy, yx, "single-dimension routes must coincide");
        }
    }

    #[test]
    fn extend_route_matches_route_links() {
        for m in [mesh(4, 4), mesh(8, 4), mesh(1, 5), mesh(6, 1)] {
            for (a, b) in (0..m.nodes()).flat_map(|a| (0..m.nodes()).map(move |b| (a, b))) {
                for yx in [false, true] {
                    let mut got = vec![7];
                    m.extend_route(a, b, yx, &mut got);
                    let want = match yx {
                        false => m.route_links(a, b),
                        true => m.route_links_yx(a, b),
                    };
                    let want: Vec<u32> = want.map(|l| l.index() as u32).collect();
                    assert_eq!(got[1..], want[..], "{a}->{b} yx={yx}");
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn h_link_rejects_rightmost_column() {
        // x = px − 1 has no rightward neighbour: the bounds check must
        // fire instead of silently aliasing another link.
        mesh(4, 4).h_link(3, 0, true);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn v_link_rejects_topmost_row() {
        mesh(4, 4).v_link(0, 3, true);
    }

    #[test]
    fn empty_phase_is_free() {
        assert_eq!(mesh(4, 4).simulate_phase(&[]), 0);
        // Local messages are free too.
        let m = mesh(4, 4);
        assert_eq!(
            m.simulate_phase(&[PMsg {
                src: 5,
                dst: 5,
                bytes: 100
            }]),
            0
        );
    }

    #[test]
    fn single_message_time_is_p2p() {
        let m = mesh(4, 4);
        let t = m.simulate_phase(&[PMsg {
            src: 0,
            dst: 1,
            bytes: 64,
        }]);
        assert_eq!(t, m.cost.p2p(1, 64));
    }

    #[test]
    fn disjoint_messages_run_in_parallel() {
        let m = mesh(4, 4);
        let a = PMsg {
            src: m.node_id(0, 0),
            dst: m.node_id(1, 0),
            bytes: 64,
        };
        let b = PMsg {
            src: m.node_id(0, 2),
            dst: m.node_id(1, 2),
            bytes: 64,
        };
        let t2 = m.simulate_phase(&[a, b]);
        let t1 = m.simulate_phase(&[a]);
        assert_eq!(t2, t1, "disjoint routes must not serialize");
    }

    #[test]
    fn shared_link_serializes() {
        let m = mesh(4, 1);
        // Two messages crossing the same middle link.
        let a = PMsg {
            src: 0,
            dst: 3,
            bytes: 64,
        };
        let b = PMsg {
            src: 1,
            dst: 2,
            bytes: 64,
        };
        let t = m.simulate_phase(&[a, b]);
        let ta = m.simulate_phase(&[a]);
        let tb = m.simulate_phase(&[b]);
        assert_eq!(t, ta + tb, "shared link must serialize");
    }

    #[test]
    fn makespan_monotone_in_bytes() {
        let m = mesh(4, 4);
        let small: Vec<PMsg> = (0..8)
            .map(|i| PMsg {
                src: i,
                dst: 15 - i,
                bytes: 16,
            })
            .collect();
        let big: Vec<PMsg> = small.iter().map(|m| PMsg { bytes: 1024, ..*m }).collect();
        assert!(m.simulate_phase(&big) > m.simulate_phase(&small));
    }

    #[test]
    fn makespan_monotone_in_message_count() {
        let m = mesh(4, 4);
        let msgs: Vec<PMsg> = (0..12)
            .map(|i| PMsg {
                src: i,
                dst: (i + 5) % 16,
                bytes: 128,
            })
            .collect();
        let t_half = m.simulate_phase(&msgs[..6]);
        let t_full = m.simulate_phase(&msgs);
        assert!(t_full >= t_half);
    }

    #[test]
    fn contention_free_lower_bound() {
        let m = mesh(8, 8);
        let msgs: Vec<PMsg> = (0..32)
            .map(|i| PMsg {
                src: i,
                dst: 63 - i,
                bytes: 256,
            })
            .collect();
        let t = m.simulate_phase(&msgs);
        let lb = msgs
            .iter()
            .map(|mm| m.cost.p2p(m.hops(mm.src, mm.dst), mm.bytes))
            .max()
            .unwrap();
        assert!(t >= lb, "makespan below contention-free bound");
    }

    #[test]
    fn phases_accumulate() {
        let m = mesh(4, 1);
        let p1 = vec![PMsg {
            src: 0,
            dst: 1,
            bytes: 64,
        }];
        let p2 = vec![PMsg {
            src: 2,
            dst: 3,
            bytes: 64,
        }];
        assert_eq!(
            m.simulate_phases(&[p1.clone(), p2.clone()]),
            m.simulate_phase(&p1) + m.simulate_phase(&p2)
        );
    }

    #[test]
    fn degenerate_1x1_mesh() {
        let m = mesh(1, 1);
        assert_eq!(m.simulate_phase(&[]), 0);
        assert_eq!(m.nodes(), 1);
    }
}
