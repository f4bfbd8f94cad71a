//! Software collectives on the mesh.
//!
//! The Paragon has no control network, so macro-communications compile to
//! *structured phases* of point-to-point messages: a partial broadcast
//! along a grid axis becomes a binomial tree inside each row/column, a
//! translation a single shift phase, a reduction the mirrored tree. These
//! are the implementations the paper's step-2(a) assumes exist when it
//! declares axis-parallel macro-communications "efficient".

use crate::mesh::Mesh2D;
use crate::model::PMsg;

/// Binomial-tree broadcast inside every row (axis 0): the column-`0`
/// member of each row holds the value and all row members receive it.
/// Returns the simulated time.
pub fn broadcast_rows_time(mesh: &Mesh2D, bytes: u64) -> u64 {
    let mut phases: Vec<Vec<PMsg>> = Vec::new();
    // Recursive *halving*: each holder forwards to the middle of its
    // segment, so the messages of one round use disjoint row links (a
    // doubling schedule would stack all round-r messages on the same
    // wormhole links and serialize).
    let mut stride = 1usize;
    while stride * 2 < mesh.px {
        stride *= 2;
    }
    while stride >= 1 {
        let mut phase = Vec::new();
        for y in 0..mesh.py {
            let mut x = 0;
            while x + stride < mesh.px {
                phase.push(PMsg {
                    src: mesh.node_id(x, y),
                    dst: mesh.node_id(x + stride, y),
                    bytes,
                });
                x += 2 * stride;
            }
        }
        phases.push(phase);
        if stride == 1 {
            break;
        }
        stride /= 2;
    }
    mesh.simulate_phases(&phases)
}

/// A translation: every node sends to the node `(dx, dy)` away (toroidal).
pub fn shift_time(mesh: &Mesh2D, dx: usize, dy: usize, bytes: u64) -> u64 {
    let mut msgs = Vec::with_capacity(mesh.nodes());
    for x in 0..mesh.px {
        for y in 0..mesh.py {
            let tx = (x + dx) % mesh.px;
            let ty = (y + dy) % mesh.py;
            msgs.push(PMsg {
                src: mesh.node_id(x, y),
                dst: mesh.node_id(tx, ty),
                bytes,
            });
        }
    }
    mesh.simulate_phase(&msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;

    /// Naive broadcast for comparison: the root sends to every other node,
    /// one message per destination (all in one contended phase).
    fn naive_broadcast_time(mesh: &Mesh2D, bytes: u64) -> u64 {
        let root = mesh.node_id(0, 0);
        let msgs: Vec<PMsg> = (0..mesh.nodes())
            .filter(|&n| n != root)
            .map(|n| PMsg {
                src: root,
                dst: n,
                bytes,
            })
            .collect();
        mesh.simulate_phase(&msgs)
    }

    fn mesh(px: usize, py: usize) -> Mesh2D {
        Mesh2D::new(px, py, CostModel::paragon())
    }

    #[test]
    fn row_broadcast_scales_logarithmically_in_phases() {
        let m8 = mesh(8, 2);
        let m2 = mesh(2, 2);
        let t8 = broadcast_rows_time(&m8, 64);
        let t2 = broadcast_rows_time(&m2, 64);
        // 3 rounds vs 1 round: at most ~5× even with longer hops.
        assert!(t8 < 5 * t2, "t8={t8} t2={t2}");
        assert!(t8 > t2);
    }

    #[test]
    fn tree_broadcast_beats_naive_for_wide_rows() {
        // On one row the naive broadcast is a scatter from the row head:
        // the root's link serializes it, while the tree reuses the value.
        let m = mesh(16, 1);
        let tree = broadcast_rows_time(&m, 64);
        let naive = naive_broadcast_time(&m, 64);
        assert!(tree < naive, "tree={tree} naive={naive}");
    }

    #[test]
    fn shift_is_single_phase_cheap() {
        let m = mesh(8, 8);
        let t = shift_time(&m, 1, 0, 64);
        // All messages are 1 hop and (except the wraparound) disjoint: a
        // couple of p2p times at most.
        let one = m.cost.p2p(1, 64);
        assert!(t <= 8 * one, "t={t} one={one}");
        assert!(t >= one);
    }

    #[test]
    fn single_column_mesh_broadcast_is_free() {
        // px = 1: nothing to broadcast along rows.
        let m = mesh(1, 4);
        assert_eq!(broadcast_rows_time(&m, 64), 0);
    }
}
