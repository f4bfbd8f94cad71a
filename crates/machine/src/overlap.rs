//! Dependency-aware overlapped execution of multi-phase plans.
//!
//! [`ScheduleMode::Phased`] runs phases as strict barriers: every
//! message of phase k+1 waits for the globally slowest message of phase
//! k. The overlapped scheduler in this module relaxes the barrier to the
//! true dataflow dependence: a phase-k+1 message becomes *ready* once its
//! **source node** has received all of its phase-k inflows, and ready
//! messages are list-scheduled greedily onto the same per-link timelines
//! the phased engine uses.
//!
//! # Determinism and the ≤-phased guarantee
//!
//! Greedy list scheduling suffers from Graham anomalies: processing
//! messages in an arbitrary priority order can produce a *longer*
//! schedule than the barriered one. The default
//! [`OverlapOrder::Sorted`] therefore processes messages in exactly the
//! phased engine's order — phase-major, within each phase the sorted
//! [`PMsg`] total order — and uses readiness only as a per-message
//! release time. Under that order a simple induction holds: every
//! message's overlapped start is ≤ its phased start (its release time is
//! ≤ the end of the previous phase, and every earlier-processed message
//! finished no later than it did in the phased schedule), so the
//! overlapped makespan is **structurally ≤ the phased makespan** and a
//! single-phase plan schedules bit-identically under both modes.
//!
//! [`OverlapOrder::LongestFirst`] is a true priority-queue order —
//! (ready time, longest route first, [`PMsg`] order) — which can win on
//! contended meshes but carries no ≤ guarantee; benches score it against
//! the default rather than gating on it.
//!
//! This module defines the schedule vocabulary; the engine that runs it
//! is [`crate::phasesim`].

use crate::mesh::Mesh2D;
use crate::phasesim::{CachedPhase, PhaseSim};
use crate::pool;
use crate::PMsg;

/// How a multi-phase plan is executed on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleMode {
    /// Strict barriers between phases (the historical behaviour);
    /// bit-identical to the oracle [`Mesh2D::simulate_phases`].
    #[default]
    Phased,
    /// Software-pipelined: messages release as soon as their source
    /// node's inflows from the previous phase have arrived.
    Overlapped(OverlapOrder),
}

impl ScheduleMode {
    /// The default overlapped mode ([`OverlapOrder::Sorted`]).
    pub fn overlapped() -> Self {
        ScheduleMode::Overlapped(OverlapOrder::Sorted)
    }

    /// Parse a CLI spelling: `phased`, `overlapped`, `overlapped-longest`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "phased" => Some(ScheduleMode::Phased),
            "overlapped" => Some(ScheduleMode::Overlapped(OverlapOrder::Sorted)),
            "overlapped-longest" => Some(ScheduleMode::Overlapped(OverlapOrder::LongestFirst)),
            _ => None,
        }
    }

    /// The CLI spelling accepted by [`ScheduleMode::parse`].
    pub fn label(self) -> &'static str {
        match self {
            ScheduleMode::Phased => "phased",
            ScheduleMode::Overlapped(OverlapOrder::Sorted) => "overlapped",
            ScheduleMode::Overlapped(OverlapOrder::LongestFirst) => "overlapped-longest",
        }
    }
}

/// Intra-phase processing order of the overlapped scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverlapOrder {
    /// The phased engine's order (sorted [`PMsg`] order within each
    /// phase). Guarantees overlapped makespan ≤ phased makespan.
    #[default]
    Sorted,
    /// Priority order (ready time, longest route first, [`PMsg`] order).
    /// A heuristic for contended meshes; no ≤-phased guarantee.
    LongestFirst,
}

/// How the fault-injected engines pick a [`ScheduleMode`] — either
/// pinned for the whole run, or adaptively degraded mid-run.
///
/// Under [`SchedulePolicy::Adaptive`], the run starts overlapped
/// ([`OverlapOrder::Sorted`]) and compares, at every phase boundary, the
/// observed makespan against the healthy (fault-free) overlapped
/// makespan of the same phase prefix. The moment the ratio exceeds
/// `inflation_threshold`, the engine falls back to **phased barriers
/// for the remaining phases** — the conservative order whose
/// phase-aligned quiescence keeps rollback and retry storms contained —
/// and records the downgrade in [`crate::FaultReport::downgrades`]. The
/// decision uses only committed state, so adaptive runs replay
/// deterministically (and roll back consistently: the flag is part of
/// every overlapped checkpoint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulePolicy {
    /// Always execute under the given mode.
    Fixed(ScheduleMode),
    /// Start overlapped; degrade to phased barriers when the observed
    /// fault inflation over the healthy overlapped baseline crosses
    /// `inflation_threshold` (e.g. `1.5` = 50% slower than healthy).
    Adaptive {
        /// Ratio of observed to healthy prefix makespan that triggers
        /// the downgrade (sensible values are ≥ 1).
        inflation_threshold: f64,
    },
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy::Fixed(ScheduleMode::Phased)
    }
}

impl SchedulePolicy {
    /// Threshold used by the bare `adaptive` CLI spelling.
    pub const DEFAULT_INFLATION_THRESHOLD: f64 = 1.5;

    /// The adaptive policy at the default threshold.
    pub fn adaptive() -> Self {
        SchedulePolicy::Adaptive {
            inflation_threshold: Self::DEFAULT_INFLATION_THRESHOLD,
        }
    }

    /// Parse a CLI spelling: any [`ScheduleMode::parse`] spelling,
    /// `adaptive`, or `adaptive:<threshold>` (threshold ≥ 1).
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(mode) = ScheduleMode::parse(s) {
            return Some(SchedulePolicy::Fixed(mode));
        }
        if s == "adaptive" {
            return Some(Self::adaptive());
        }
        if let Some(t) = s.strip_prefix("adaptive:") {
            let t: f64 = t.parse().ok()?;
            if t.is_finite() && t >= 1.0 {
                return Some(SchedulePolicy::Adaptive {
                    inflation_threshold: t,
                });
            }
        }
        None
    }

    /// The CLI spelling accepted by [`SchedulePolicy::parse`].
    pub fn label(self) -> String {
        match self {
            SchedulePolicy::Fixed(mode) => mode.label().to_string(),
            SchedulePolicy::Adaptive {
                inflation_threshold,
            } => format!("adaptive:{inflation_threshold}"),
        }
    }

    /// The mode a fault-free run executes under: the fixed mode, or the
    /// overlapped starting mode of the adaptive policy (which never
    /// degrades without fault inflation).
    pub fn healthy_mode(self) -> ScheduleMode {
        match self {
            SchedulePolicy::Fixed(mode) => mode,
            SchedulePolicy::Adaptive { .. } => ScheduleMode::overlapped(),
        }
    }
}

/// One scheduled transmission, as the engine's step reports it to an
/// event sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapEvent {
    /// Index of the phase the message belongs to.
    pub phase: usize,
    /// The message as given (self-messages are filtered, never traced).
    pub msg: PMsg,
    /// Release time: when the source node had received all inflows of
    /// the previous phase.
    pub ready: u64,
    /// When the transmission actually started (≥ `ready`).
    pub start: u64,
    /// When the last flit arrived at `msg.dst`.
    pub end: u64,
}

/// Sweep `byte_scales` over one compiled plan under `mode`, fanning out
/// across `threads` workers (each with its own [`PhaseSim`] scratch).
/// Results are in input order; entry `i` equals
/// `PhaseSim::run_cached_phases(phases, mode, byte_scales[i])`.
pub fn par_schedule_sweep(
    mesh: &Mesh2D,
    phases: &[CachedPhase],
    mode: ScheduleMode,
    byte_scales: &[u64],
    threads: usize,
) -> Vec<u64> {
    pool::sweep(
        byte_scales,
        threads,
        || PhaseSim::new(mesh.clone()),
        |sim, &scale| sim.run_cached_phases(phases, mode, scale),
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh2D;
    use crate::model::CostModel;

    fn mesh() -> Mesh2D {
        Mesh2D::new(4, 2, CostModel::paragon())
    }

    fn pm(src: usize, dst: usize, bytes: u64) -> PMsg {
        PMsg { src, dst, bytes }
    }

    #[test]
    fn phased_mode_is_simulate_phases() {
        let phases = vec![
            vec![pm(0, 3, 64), pm(4, 7, 32), pm(2, 2, 9999)],
            vec![pm(3, 0, 128), pm(7, 4, 8)],
        ];
        let mut sim = PhaseSim::new(mesh());
        assert_eq!(
            sim.simulate_phases_mode(&phases, ScheduleMode::Phased),
            mesh().simulate_phases(&phases)
        );
    }

    #[test]
    fn overlap_pipelines_independent_chains() {
        // Phase 1: a long transfer 0→3 and a short one 4→5 on disjoint
        // links. Phase 2: 5→4 depends only on the short chain, so it
        // overlaps with the long transfer instead of waiting for it.
        let m = mesh();
        let phases = vec![vec![pm(0, 3, 4096), pm(4, 5, 64)], vec![pm(5, 4, 64)]];
        let mut sim = PhaseSim::new(m.clone());
        let phased = sim.simulate_phases_mode(&phases, ScheduleMode::Phased);
        let mut events: Vec<OverlapEvent> = Vec::new();
        let over = sim.simulate_traced(&phases, ScheduleMode::overlapped(), &mut events);
        assert!(over < phased, "expected overlap win: {over} vs {phased}");
        let long = m.cost.p2p(3, 4096);
        let short = m.cost.p2p(1, 64);
        assert_eq!(phased, long + short);
        assert_eq!(over, long.max(2 * short));
        // The dependent message released exactly when its source's
        // inflow arrived, not at the end of the phase.
        let e = events.iter().find(|e| e.phase == 1).unwrap();
        assert_eq!(e.ready, short);
        assert_eq!(e.start, short);
    }

    #[test]
    fn self_messages_filtered_identically() {
        let with_self = vec![
            vec![pm(0, 0, 1_000_000), pm(1, 2, 64)],
            vec![pm(2, 1, 64), pm(5, 5, 1_000_000)],
        ];
        let without: Vec<Vec<PMsg>> = with_self
            .iter()
            .map(|p| p.iter().copied().filter(|m| m.src != m.dst).collect())
            .collect();
        let mut sim = PhaseSim::new(mesh());
        for order in [OverlapOrder::Sorted, OverlapOrder::LongestFirst] {
            let a = sim.simulate_phases_mode(&with_self, ScheduleMode::Overlapped(order));
            let b = sim.simulate_phases_mode(&without, ScheduleMode::Overlapped(order));
            assert_eq!(a, b);
            let mut events: Vec<OverlapEvent> = Vec::new();
            sim.simulate_traced(&with_self, ScheduleMode::Overlapped(order), &mut events);
            assert!(events.iter().all(|e| e.msg.src != e.msg.dst));
            assert_eq!(events.len(), 2);
        }
    }

    #[test]
    fn empty_and_self_only_plans_are_free() {
        let mut sim = PhaseSim::new(mesh());
        assert_eq!(sim.simulate_phases_mode(&[], ScheduleMode::overlapped()), 0);
        let selfies = vec![vec![pm(0, 0, 7)], vec![], vec![pm(3, 3, 9)]];
        assert_eq!(
            sim.simulate_phases_mode(&selfies, ScheduleMode::overlapped()),
            0
        );
    }

    #[test]
    fn cached_replay_matches_direct() {
        let m = mesh();
        let phases = [
            vec![pm(0, 7, 512), pm(1, 6, 64), pm(4, 2, 32), pm(3, 3, 5)],
            vec![pm(7, 0, 256), pm(6, 1, 128)],
            vec![pm(2, 4, 96), pm(0, 5, 64)],
        ];
        let cached: Vec<CachedPhase> = phases.iter().map(|p| CachedPhase::new(&m, p)).collect();
        let mut sim = PhaseSim::new(m.clone());
        for scale in [1u64, 3, 17] {
            let scaled: Vec<Vec<PMsg>> = phases
                .iter()
                .map(|p| {
                    p.iter()
                        .map(|&PMsg { src, dst, bytes }| pm(src, dst, bytes * scale))
                        .collect()
                })
                .collect();
            for mode in [
                ScheduleMode::Phased,
                ScheduleMode::overlapped(),
                ScheduleMode::Overlapped(OverlapOrder::LongestFirst),
            ] {
                assert_eq!(
                    sim.run_cached_phases(&cached, mode, scale),
                    sim.simulate_phases_mode(&scaled, mode),
                    "mode {mode:?} scale {scale}"
                );
            }
        }
    }

    #[test]
    fn par_schedule_sweep_matches_serial() {
        let m = mesh();
        let phases = [
            vec![pm(0, 7, 512), pm(1, 6, 64)],
            vec![pm(7, 0, 256), pm(6, 1, 128)],
        ];
        let cached: Vec<CachedPhase> = phases.iter().map(|p| CachedPhase::new(&m, p)).collect();
        let scales = [1u64, 2, 4, 8, 16];
        let mut sim = PhaseSim::new(m.clone());
        for mode in [ScheduleMode::Phased, ScheduleMode::overlapped()] {
            let expect: Vec<u64> = scales
                .iter()
                .map(|&s| sim.run_cached_phases(&cached, mode, s))
                .collect();
            for threads in [1, 2, 4] {
                assert_eq!(
                    par_schedule_sweep(&m, &cached, mode, &scales, threads),
                    expect
                );
            }
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [
            ScheduleMode::Phased,
            ScheduleMode::overlapped(),
            ScheduleMode::Overlapped(OverlapOrder::LongestFirst),
        ] {
            assert_eq!(ScheduleMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(ScheduleMode::parse("bogus"), None);
        assert_eq!(ScheduleMode::default(), ScheduleMode::Phased);
    }
}
