//! Link-utilization tracing for the mesh simulator.
//!
//! The contention argument of the paper ("communication conflicts are
//! generated by serial messages on a single link") is made visible here:
//! a traced simulation reports, per directed link, the total busy time
//! and the maximum queue depth — the evidence that a general affine
//! pattern piles onto a few links while an elementary decomposition
//! spreads the load.

use crate::mesh::Mesh2D;
use crate::model::PMsg;
use crate::overlap::{OverlapEvent, ScheduleMode};
use crate::phasesim::{PhaseSim, Sink};

/// Per-phase utilization statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Phase makespan (ns).
    pub makespan: u64,
    /// Busy time of the most-loaded directed link (ns).
    pub max_link_busy: u64,
    /// Number of messages crossing the most-loaded link.
    pub max_link_msgs: usize,
    /// Number of distinct links used.
    pub links_used: usize,
    /// Total message count (non-local).
    pub messages: usize,
}

impl PhaseTrace {
    /// Lower bound on any schedule of this message set: the bottleneck
    /// link must carry all its traffic serially.
    pub fn bottleneck_bound(&self) -> u64 {
        self.max_link_busy
    }
}

/// Per-link load of a traced run.
struct LinkLoad {
    busy: Vec<u64>,
    msgs: Vec<usize>,
}

impl Sink for LinkLoad {
    fn sent(&mut self, e: OverlapEvent, links: &[u32]) {
        for &l in links {
            self.busy[l as usize] += e.end - e.start;
            self.msgs[l as usize] += 1;
        }
    }
}

/// Simulate a phase on the engine ([`PhaseSim`], the schedule of
/// [`Mesh2D::simulate_phase`]) while recording link statistics.
pub fn trace_phase(mesh: &Mesh2D, msgs: &[PMsg]) -> PhaseTrace {
    let mut load = LinkLoad {
        busy: vec![0; mesh.link_count()],
        msgs: vec![0; mesh.link_count()],
    };
    let phases = [msgs.to_vec()];
    let makespan =
        PhaseSim::new(mesh.clone()).simulate_traced(&phases, ScheduleMode::Phased, &mut load);
    PhaseTrace {
        makespan,
        max_link_busy: load.busy.iter().copied().max().unwrap_or(0),
        max_link_msgs: load.msgs.iter().copied().max().unwrap_or(0),
        links_used: load.msgs.iter().filter(|&&n| n > 0).count(),
        messages: msgs.iter().filter(|m| m.src != m.dst).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;

    fn mesh() -> Mesh2D {
        Mesh2D::new(8, 4, CostModel::paragon())
    }

    #[test]
    fn trace_matches_simulation_makespan() {
        let m = mesh();
        let msgs: Vec<PMsg> = (0..16)
            .map(|i| PMsg {
                src: i,
                dst: (i * 7 + 3) % 32,
                bytes: 128,
            })
            .collect();
        let t = trace_phase(&m, &msgs);
        assert_eq!(t.makespan, m.simulate_phase(&msgs));
        assert!(t.makespan >= t.bottleneck_bound());
        assert!(t.messages <= 16);
    }

    #[test]
    fn empty_trace() {
        let t = trace_phase(&mesh(), &[]);
        assert_eq!(t.makespan, 0);
        assert_eq!(t.links_used, 0);
        assert_eq!(t.max_link_msgs, 0);
    }

    #[test]
    fn congested_pattern_has_hot_link() {
        let m = mesh();
        // Everyone in row 0 sends to the far-right node: the last link
        // carries all the traffic.
        let dst = m.node_id(7, 0);
        let msgs: Vec<PMsg> = (0..7)
            .map(|x| PMsg {
                src: m.node_id(x, 0),
                dst,
                bytes: 64,
            })
            .collect();
        let t = trace_phase(&m, &msgs);
        assert_eq!(t.max_link_msgs, 7, "all messages funnel into one link");
    }

    #[test]
    fn elementary_pattern_spreads_load_vs_funnel() {
        let m = mesh();
        // Neighbour shift: 7 messages, each on its own link.
        let shift: Vec<PMsg> = (0..7)
            .map(|x| PMsg {
                src: m.node_id(x, 0),
                dst: m.node_id(x + 1, 0),
                bytes: 64,
            })
            .collect();
        let t = trace_phase(&m, &shift);
        assert_eq!(t.max_link_msgs, 1);
        assert_eq!(t.links_used, 7);
    }
}
