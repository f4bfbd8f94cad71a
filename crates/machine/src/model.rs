//! The shared linear communication cost model.
//!
//! Both simulated machines price a point-to-point message as
//! `startup + hops·per_hop + bytes·per_byte` (the classic postal/wormhole
//! model); the CM-5's control network adds a cheap collective primitive
//! priced as `ctrl_startup + log₂(P)·ctrl_hop + bytes·ctrl_per_byte`.

/// A physical point-to-point message between flattened node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PMsg {
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
}

/// Linear communication costs, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per-message software start-up.
    pub startup: u64,
    /// Per-hop (router traversal) latency.
    pub per_hop: u64,
    /// Per-byte transfer time on a data-network link.
    pub per_byte: u64,
    /// Control-network collective start-up (CM-5 style). Machines without
    /// a control network set this to `u64::MAX/4` to disable it.
    pub ctrl_startup: u64,
    /// Control-network per-stage latency.
    pub ctrl_hop: u64,
    /// Control-network per-byte cost (collectives are pipelined, so this
    /// is typically the same order as `per_byte`).
    pub ctrl_per_byte: u64,
}

impl CostModel {
    /// Paragon-flavoured defaults: expensive start-up, no control network.
    pub fn paragon() -> Self {
        CostModel {
            startup: 40_000, // ≈ 40 µs software latency
            per_hop: 40,
            per_byte: 6, // ≈ 175 MB/s
            ctrl_startup: u64::MAX / 4,
            ctrl_hop: 0,
            ctrl_per_byte: 0,
        }
    }

    /// CM-5-flavoured defaults: data network plus fast control network.
    pub fn cm5() -> Self {
        CostModel {
            startup: 86_000, // CMMD-era software start-up
            per_hop: 200,
            per_byte: 100, // ≈ 10 MB/s per data-network link
            ctrl_startup: 4_000,
            ctrl_hop: 125,
            ctrl_per_byte: 120,
        }
    }

    /// Duration of one point-to-point transfer over `hops` links,
    /// saturating at `u64::MAX` (the simulated clock never wraps).
    pub fn p2p(&self, hops: usize, bytes: u64) -> u64 {
        let hops = self.per_hop.saturating_mul(hops as u64);
        let wire = self.per_byte.saturating_mul(bytes);
        self.startup.saturating_add(hops).saturating_add(wire)
    }

    /// Duration of a control-network collective over `p` participants.
    pub fn ctrl_collective(&self, p: usize, bytes: u64) -> u64 {
        let stages = (usize::BITS - p.max(1).leading_zeros()) as u64;
        self.ctrl_startup + self.ctrl_hop * stages + self.ctrl_per_byte * bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_is_affine_in_bytes_and_hops() {
        let c = CostModel::paragon();
        let base = c.p2p(1, 0);
        assert_eq!(c.p2p(1, 100) - base, 100 * c.per_byte);
        assert_eq!(c.p2p(3, 0) - base, 2 * c.per_hop);
    }

    #[test]
    fn ctrl_collective_scales_logarithmically() {
        let c = CostModel::cm5();
        let t32 = c.ctrl_collective(32, 8);
        let t64 = c.ctrl_collective(64, 8);
        assert_eq!(t64 - t32, c.ctrl_hop);
    }

    #[test]
    fn cm5_collective_cheaper_than_many_p2p() {
        let c = CostModel::cm5();
        // One hardware broadcast vs 31 sequential sends.
        let hw = c.ctrl_collective(32, 8);
        let sw = 31 * c.p2p(5, 8);
        assert!(hw * 5 < sw, "hw={hw} sw={sw}");
    }
}
