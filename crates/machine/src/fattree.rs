//! A CM-5-like machine: 4-ary fat-tree data network plus a dedicated
//! control network with hardware broadcast / reduction / scan.
//!
//! Point-to-point traffic climbs the tree to the lowest common ancestor
//! and descends; every tree edge (up and down directions separately) is a
//! serializing resource, which is what makes irregular *general affine*
//! communications expensive relative to the hardware collectives — the
//! phenomenon behind Table 1 of the paper.

use crate::fault::FaultPlan;
use crate::model::{CostModel, PMsg};

/// The fat-tree machine.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Number of leaf processors (rounded up to a power of `arity`).
    pub nprocs: usize,
    /// Tree arity (4 for the CM-5).
    pub arity: usize,
    /// Cost model (use [`CostModel::cm5`]).
    pub cost: CostModel,
}

impl FatTree {
    /// Build a fat tree over `nprocs` leaves with the given arity and one
    /// lane per edge (the conservative contention model).
    pub fn new(nprocs: usize, arity: usize, cost: CostModel) -> Self {
        assert!(nprocs > 0 && arity >= 2);
        FatTree {
            nprocs,
            arity,
            cost,
        }
    }

    /// Level of the lowest common ancestor of two leaves (1-based; 0 means
    /// same leaf).
    fn lca_level(&self, a: usize, b: usize) -> usize {
        let (mut a, mut b) = (a, b);
        let mut lvl = 0;
        while a != b {
            a /= self.arity;
            b /= self.arity;
            lvl += 1;
        }
        lvl
    }

    /// The serializing resources of a route: `(level, group, up?)` edges.
    /// Edge at level `l` above group `g` connects `g` to its parent.
    fn route_edges(&self, src: usize, dst: usize) -> Vec<(usize, usize, bool)> {
        let top = self.lca_level(src, dst);
        let mut edges = Vec::with_capacity(2 * top);
        let mut g = src;
        for l in 0..top {
            edges.push((l, g, true));
            g /= self.arity;
        }
        // Descend to dst: gather the groups on the way down.
        let mut down = Vec::with_capacity(top);
        let mut h = dst;
        for l in 0..top {
            down.push((l, h, false));
            h /= self.arity;
        }
        edges.extend(down.into_iter().rev());
        edges
    }

    /// Simulate a point-to-point phase on the data network (greedy
    /// whole-route reservation, like the mesh). Each tree edge is one
    /// lane; a message starts when every edge of its route is free.
    /// Returns the makespan.
    pub fn simulate_phase(&self, msgs: &[PMsg]) -> u64 {
        use std::collections::HashMap;
        // (level, group, up) -> the time the edge is next free.
        let mut free: HashMap<(usize, usize, bool), u64> = HashMap::new();
        let mut msgs: Vec<PMsg> = msgs.iter().copied().filter(|m| m.src != m.dst).collect();
        msgs.sort();
        let mut makespan = 0;
        for m in &msgs {
            let edges = self.route_edges(m.src, m.dst);
            let dur = self.cost.p2p(edges.len(), m.bytes);
            let start = edges
                .iter()
                .map(|e| free.get(e).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let end = start.saturating_add(dur);
            for e in edges {
                free.insert(e, end);
            }
            makespan = makespan.max(end);
        }
        makespan
    }

    /// Hardware broadcast over the control network: one source, `p`
    /// participants, `bytes` payload.
    pub fn hw_broadcast(&self, participants: usize, bytes: u64) -> u64 {
        self.cost.ctrl_collective(participants, bytes)
    }

    /// Hardware reduction (same control-network price as broadcast on the
    /// CM-5; the combine happens in the tree).
    pub fn hw_reduce(&self, participants: usize, bytes: u64) -> u64 {
        self.cost.ctrl_collective(participants, bytes)
    }

    /// Software broadcast over the *data* network: a binomial recursive-
    /// halving tree among leaves `0..participants` (the same schedule the
    /// mesh collectives use — each holder forwards to the middle of its
    /// segment, so one round's messages take disjoint subtrees). This is
    /// the degraded-mode fallback when the control network is down.
    fn sw_broadcast(&self, participants: usize, bytes: u64) -> u64 {
        let p = participants.min(self.nprocs);
        if p <= 1 {
            return 0;
        }
        let mut total = 0u64;
        let mut stride = 1usize;
        while stride * 2 < p {
            stride *= 2;
        }
        while stride >= 1 {
            let mut phase = Vec::new();
            let mut x = 0;
            while x + stride < p {
                phase.push(PMsg {
                    src: x,
                    dst: x + stride,
                    bytes,
                });
                x += 2 * stride;
            }
            total += self.simulate_phase(&phase);
            if stride == 1 {
                break;
            }
            stride /= 2;
        }
        total
    }

    /// Broadcast under a fault plan, at the start of the run: the
    /// hardware control network when available, the software binomial
    /// tree when [`FaultPlan::ctrl_outage`] marks it down (the CM-5
    /// degraded mode). Leaves the plan kills at time 0
    /// ([`FaultPlan::death_time`]) have been folded out of the collective
    /// by the recovery layer, so only the live participants pay.
    pub fn broadcast_time(&self, participants: usize, bytes: u64, plan: &FaultPlan) -> u64 {
        let live = (0..participants.min(self.nprocs))
            .filter(|&p| plan.death_time(p).is_none_or(|d| d > 0))
            .count();
        if plan.ctrl_outage {
            self.sw_broadcast(live, bytes)
        } else {
            self.hw_broadcast(live, bytes)
        }
    }

    /// A translation (uniform shift by `delta` leaves, toroidal): each
    /// processor sends one message to `(i + delta) mod nprocs`.
    pub fn translation(&self, delta: usize, bytes: u64) -> u64 {
        let msgs: Vec<PMsg> = (0..self.nprocs)
            .map(|i| PMsg {
                src: i,
                dst: (i + delta) % self.nprocs,
                bytes,
            })
            .collect();
        self.simulate_phase(&msgs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> FatTree {
        FatTree::new(32, 4, CostModel::cm5())
    }

    #[test]
    fn levels_and_lca() {
        let t = ft();
        assert_eq!(t.lca_level(0, 0), 0);
        assert_eq!(t.lca_level(0, 1), 1);
        assert_eq!(t.lca_level(0, 4), 2);
        assert_eq!(t.lca_level(0, 16), 3);
    }

    #[test]
    fn route_edges_symmetric_length() {
        let t = ft();
        assert_eq!(t.route_edges(0, 1).len(), 2);
        assert_eq!(t.route_edges(0, 5).len(), 4);
        assert_eq!(t.route_edges(3, 28).len(), 6);
    }

    #[test]
    fn siblings_do_not_contend_with_distant_pairs() {
        let t = ft();
        let a = PMsg {
            src: 0,
            dst: 1,
            bytes: 64,
        };
        let b = PMsg {
            src: 8,
            dst: 9,
            bytes: 64,
        };
        let t2 = t.simulate_phase(&[a, b]);
        assert_eq!(t2, t.simulate_phase(&[a]));
    }

    #[test]
    fn shared_upward_edge_serializes() {
        let t = ft();
        // Both messages leave leaf group {0..3} upward from leaf 0.
        let a = PMsg {
            src: 0,
            dst: 16,
            bytes: 64,
        };
        let b = PMsg {
            src: 0,
            dst: 20,
            bytes: 64,
        };
        let both = t.simulate_phase(&[a, b]);
        let one = t.simulate_phase(&[a]);
        assert!(both > one, "same source must serialize on its up-edge");
    }

    #[test]
    fn hw_broadcast_beats_software_emulation() {
        let t = ft();
        let hw = t.hw_broadcast(32, 8);
        // Software emulation: root sends to every leaf one by one.
        let sw: Vec<PMsg> = (1..32)
            .map(|d| PMsg {
                src: 0,
                dst: d,
                bytes: 8,
            })
            .collect();
        let sw_time = t.simulate_phase(&sw);
        assert!(hw * 4 < sw_time, "hw {hw} vs sw {sw_time}");
    }

    #[test]
    fn translation_cheaper_than_random_like_pattern() {
        let t = ft();
        let shift = t.translation(1, 256);
        // A bit-reversal-like pattern crosses the top of the tree a lot.
        let msgs: Vec<PMsg> = (0..32)
            .map(|i| PMsg {
                src: i,
                dst: (i * 13 + 5) % 32,
                bytes: 256,
            })
            .collect();
        let general = t.simulate_phase(&msgs);
        assert!(shift < general, "shift {shift} vs general {general}");
    }

    #[test]
    fn sw_broadcast_is_logarithmic_and_dearer_than_hw() {
        let t = ft();
        let sw = t.sw_broadcast(32, 64);
        let hw = t.hw_broadcast(32, 64);
        assert!(sw > hw, "sw {sw} must cost more than hw {hw}");
        // But far cheaper than the naive one-by-one emulation.
        let naive: Vec<PMsg> = (1..32)
            .map(|d| PMsg {
                src: 0,
                dst: d,
                bytes: 64,
            })
            .collect();
        assert!(sw < t.simulate_phase(&naive));
        // Degenerate participant counts are free.
        assert_eq!(t.sw_broadcast(0, 64), 0);
        assert_eq!(t.sw_broadcast(1, 64), 0);
    }

    #[test]
    fn ctrl_outage_selects_software_collectives() {
        let t = ft();
        let healthy = FaultPlan::none();
        let degraded = FaultPlan {
            ctrl_outage: true,
            ..FaultPlan::none()
        };
        assert_eq!(t.broadcast_time(32, 64, &healthy), t.hw_broadcast(32, 64));
        assert_eq!(t.broadcast_time(32, 64, &degraded), t.sw_broadcast(32, 64));
        // Degradation is measurable: the fallback costs strictly more.
        assert!(t.broadcast_time(32, 64, &degraded) > t.broadcast_time(32, 64, &healthy));
    }

    #[test]
    fn dead_leaves_fold_out_of_collectives() {
        let t = ft();
        let death = |node, t| crate::NodeDeath { node, t };
        let plan = |node_deaths, ctrl_outage| FaultPlan {
            node_deaths,
            ctrl_outage,
            ..FaultPlan::none()
        };
        // Leaves dead at time 0 leave the collective; later deaths do not
        // shrink it yet (a death at t strikes at t).
        let later = plan(vec![death(3, 1_000), death(7, 5_000)], false);
        assert_eq!(t.broadcast_time(32, 64, &later), t.hw_broadcast(32, 64));
        let at_start = plan(vec![death(3, 0), death(7, 5_000)], false);
        assert_eq!(t.broadcast_time(32, 64, &at_start), t.hw_broadcast(31, 64));
        let degraded = plan(vec![death(3, 0), death(7, 0)], true);
        assert_eq!(t.broadcast_time(32, 64, &degraded), t.sw_broadcast(30, 64));
        // Beyond the tree's leaves nobody else can join.
        assert_eq!(t.broadcast_time(64, 64, &later), t.hw_broadcast(32, 64));
    }

    #[test]
    fn table1_ordering_holds() {
        // Reduction ≤ broadcast < translation < general communication —
        // the qualitative content of Table 1.
        let t = ft();
        let bytes = 512;
        let red = t.hw_reduce(32, 8);
        let bc = t.hw_broadcast(32, bytes.min(64));
        let tr = t.translation(1, bytes);
        let msgs: Vec<PMsg> = (0..32)
            .map(|i| PMsg {
                src: i,
                dst: (i * 13 + 5) % 32,
                bytes,
            })
            .collect();
        let gen = t.simulate_phase(&msgs);
        assert!(red <= bc, "red={red} bc={bc}");
        assert!(bc < tr, "bc={bc} tr={tr}");
        assert!(tr < gen, "tr={tr} gen={gen}");
    }
}
