//! Communication plans: from a [`Mapping`] to concrete message phases.
//!
//! This is the artifact a runtime or code generator consumes: for every
//! access, the ordered list of *phases* (virtual-processor message
//! patterns) that realize its communication — none for a local access,
//! one shift for a translation, one placement phase for a collective,
//! one sweep per elementary factor (plus the paper's final "up to a
//! translation" shift) for a decomposition, a single irregular pattern
//! for a general residual.
//!
//! Patterns are generated **exactly** from the iteration domain and the
//! allocation functions and carry *raw* virtual coordinates;
//! [`CommPlan::simulate_on_mesh`] folds them toroidally onto a physical
//! machine. [`CommPlan::verify_availability`] proves the plan correct:
//! chaining the phases of each access delivers every element to exactly
//! the processor that computes with it.

use crate::pipeline::{dataflow_matrix, CommOutcome, Mapping};
use rescomm_decompose::{product, Elementary};
use rescomm_distribution::{fold_affine, fold_pattern, Dist2D};
use rescomm_intlin::IMat;
use rescomm_loopnest::{AccessId, LoopNest};
use rescomm_machine::{
    replication_seed, CachedPhase, CheckpointPolicy, FaultPlan, FaultReport, FaultSim, Mesh2D,
    PMsg, PhaseSim, ScheduleMode, SchedulePolicy,
};
use std::collections::{BTreeSet, HashMap};

/// What a phase implements (for reporting; the pattern is authoritative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseKind {
    /// A constant-distance shift.
    Translation,
    /// The data-placement phase of a collective (the machine's tree rounds
    /// implement the fan-out/fan-in).
    CollectiveRound,
    /// One elementary factor of a decomposition.
    Elementary(Elementary),
    /// The final constant shift of a decomposition ("up to a
    /// translation", §4.2).
    DecompositionShift,
    /// One unirow factor of a general decomposition.
    UnirowFactor,
    /// An irregular affine pattern executed directly.
    GeneralAffine,
}

/// One virtual endpoint pair `(source, destination)`, raw coordinates.
pub type Endpoints = ((i64, i64), (i64, i64));

/// How a phase's virtual message pattern is represented.
///
/// Explicit patterns are exact endpoint lists read off the iteration
/// domain — `O(domain)` to build and to fold. Affine patterns are
/// *grid-wide* closed forms `v → T·v + shift`: `O(1)` to build and
/// folded through the residue-class segment algebra
/// ([`rescomm_distribution::fold_affine`]) at a cost flat in the
/// virtual-grid area, which is what lets one plan model a million-VP
/// machine. The two differ in which virtual processors participate
/// (an affine phase moves every VP of the grid, the SPMD execution
/// model; an explicit pattern only the data-carrying subset) — the
/// availability proof treats both exactly.
#[derive(Debug, Clone)]
pub enum PhasePattern {
    /// Exact `(source, destination)` endpoint pairs, raw coordinates.
    Explicit(Vec<Endpoints>),
    /// Every virtual processor `v` sends to `T·v + shift` (wrapped into
    /// `vshape` at fold time).
    Affine {
        /// The 2×2 linear part.
        t: IMat,
        /// The constant term.
        shift: (i64, i64),
    },
}

impl PhasePattern {
    /// Where this phase moves the data sitting at `pos` (raw
    /// coordinates; a position absent from an explicit pattern stays).
    pub fn apply(&self, pos: (i64, i64)) -> (i64, i64) {
        match self {
            PhasePattern::Explicit(v) => v
                .iter()
                .find(|&&(from, _)| from == pos)
                .map_or(pos, |&(_, to)| to),
            PhasePattern::Affine { t, shift } => (
                t[(0, 0)] * pos.0 + t[(0, 1)] * pos.1 + shift.0,
                t[(1, 0)] * pos.0 + t[(1, 1)] * pos.1 + shift.1,
            ),
        }
    }

    /// Whether this phase carries the transfer `src → dst`.
    pub fn routes(&self, src: (i64, i64), dst: (i64, i64)) -> bool {
        match self {
            PhasePattern::Explicit(v) => v.contains(&(src, dst)),
            PhasePattern::Affine { .. } => self.apply(src) == dst,
        }
    }

    /// The explicit endpoint list, when there is one.
    pub fn explicit(&self) -> Option<&[Endpoints]> {
        match self {
            PhasePattern::Explicit(v) => Some(v),
            PhasePattern::Affine { .. } => None,
        }
    }
}

/// One communication phase: a set of virtual-processor point-to-point
/// transfers that may all proceed concurrently. Coordinates are raw
/// (unwrapped) virtual grid positions.
#[derive(Debug, Clone)]
pub struct CommPhase {
    /// The access this phase belongs to.
    pub access: AccessId,
    /// Reporting tag.
    pub kind: PhaseKind,
    /// Virtual messages of the phase.
    pub pattern: PhasePattern,
}

/// The full plan of a mapping: phases in execution order.
#[derive(Debug, Clone, Default)]
pub struct CommPlan {
    /// Ordered phases.
    pub phases: Vec<CommPhase>,
}

/// The fold memo key of an affine phase: the 2×2 linear part, row-major,
/// and the shift.
type AffineKey = ([i64; 4], (i64, i64));

fn wrap2(p: (i64, i64), vshape: (usize, usize)) -> (i64, i64) {
    (
        p.0.rem_euclid(vshape.0 as i64),
        p.1.rem_euclid(vshape.1 as i64),
    )
}

/// Pad a (possibly degenerate, e.g. 1-D array owner) virtual coordinate
/// to the 2-D grid: missing dimensions live at coordinate 0.
fn coord2(v: &[i64]) -> (i64, i64) {
    (
        v.first().copied().unwrap_or(0),
        v.get(1).copied().unwrap_or(0),
    )
}

impl CommPlan {
    /// Total number of explicitly enumerated virtual messages. Affine
    /// (grid-wide) phases count 0 here — their message volume is a
    /// function of the virtual-grid shape chosen at fold time.
    pub fn message_count(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.pattern.explicit().map_or(0, |v| v.len()))
            .sum()
    }

    /// Number of phases carried in closed (affine) form.
    pub fn affine_phase_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p.pattern, PhasePattern::Affine { .. }))
            .count()
    }

    /// Fold every phase onto physical mesh coordinates: toroidal wrap
    /// into `vshape`, distribution fold, node-id flattening. This is the
    /// single lowering step shared by all the mesh simulation entry
    /// points below — the phases it returns feed [`PhaseSim`] and
    /// [`FaultSim`] directly.
    ///
    /// Each distinct affine pattern is folded once per call: a factor
    /// chain reuses a handful of `L(k)`/`U(k)` matrices, so a repeated
    /// `(T, shift)` clones the phase lowered first under that key.
    /// Explicit phases are always folded (hashing an endpoint list costs
    /// as much as folding it).
    pub fn phases_on_mesh(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
    ) -> Vec<Vec<PMsg>> {
        let mut first: HashMap<AffineKey, usize> = HashMap::new();
        let mut out: Vec<Vec<PMsg>> = Vec::with_capacity(self.phases.len());
        for phase in &self.phases {
            let folded = match &phase.pattern {
                PhasePattern::Explicit(pattern) => {
                    let wrapped: Vec<((i64, i64), (i64, i64))> = pattern
                        .iter()
                        .map(|&(s, d)| (wrap2(s, vshape), wrap2(d, vshape)))
                        .filter(|(s, d)| s != d)
                        .collect();
                    fold_pattern(&wrapped, dist, vshape, (mesh.px, mesh.py), bytes)
                }
                // The closed path: no virtual-grid enumeration, cost
                // flat in the grid area.
                PhasePattern::Affine { t, shift } => {
                    let key = ([t[(0, 0)], t[(0, 1)], t[(1, 0)], t[(1, 1)]], *shift);
                    if let Some(&i) = first.get(&key) {
                        let repeat = out[i].clone();
                        out.push(repeat);
                        continue;
                    }
                    first.insert(key, out.len());
                    fold_affine(t, *shift, dist, vshape, (mesh.px, mesh.py), bytes)
                }
            };
            out.push(
                folded
                    .msgs
                    .iter()
                    .map(|m| PMsg {
                        src: mesh.node_id(m.src.0, m.src.1),
                        dst: mesh.node_id(m.dst.0, m.dst.1),
                        bytes: m.bytes,
                    })
                    .collect(),
            );
        }
        out
    }

    /// Fold onto a mesh with a distribution (toroidal wrap into `vshape`)
    /// and simulate the phases under `mode`; returns total time.
    /// [`ScheduleMode::Phased`] runs phases as strict barriers (the
    /// historical behaviour); [`ScheduleMode::Overlapped`] releases each
    /// phase-(k+1) message as soon as its source node has received all of
    /// its phase-k inflows. Both pattern forms go through the same
    /// lowering ([`CommPlan::phases_on_mesh`]): an affine phase folds to
    /// at most `P²` physical messages regardless of virtual-grid size,
    /// so the overlapped engine's per-node readiness tracking works on
    /// the compact folded set without ever materializing the
    /// virtual-processor message list.
    pub fn simulate_on_mesh(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
        mode: ScheduleMode,
    ) -> u64 {
        // One reused scratch engine for the whole plan — the pattern
        // never touches a tree map or a per-phase link table.
        let mut sim = PhaseSim::new(mesh.clone());
        sim.simulate_phases_mode(&self.phases_on_mesh(mesh, dist, vshape, bytes), mode)
    }

    /// Compile the folded phases for repeated replay: the returned
    /// [`CachedPhase`]s feed [`PhaseSim::run_cached_phases`] (or
    /// [`rescomm_machine::par_schedule_sweep`]) under any
    /// [`ScheduleMode`], which is the batch-sweep fast path.
    pub fn compile_on_mesh(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
    ) -> Vec<CachedPhase> {
        self.phases_on_mesh(mesh, dist, vshape, bytes)
            .iter()
            .map(|p| CachedPhase::new(mesh, p))
            .collect()
    }

    /// Compile the plan into a reusable multi-seed fault replay engine:
    /// the folded phases and the fault plan are compiled once, then
    /// [`FaultSim::replay_faulty`] / [`FaultSim::replay_recovering`]
    /// replay any number of seeds at cached-phase speed, bit-identical
    /// to the per-call simulators.
    pub fn fault_engine(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
        plan: &FaultPlan,
    ) -> FaultSim {
        FaultSim::new(mesh, &self.phases_on_mesh(mesh, dist, vshape, bytes), plan)
    }

    /// Fold onto a mesh like [`CommPlan::simulate_on_mesh`], but drive
    /// the phases through the resilient transport under `plan`, with
    /// the phase schedule chosen by `sched` ([`SchedulePolicy::Fixed`]
    /// barriers or overlap, or adaptive degradation). On a zero-fault
    /// plan the makespan equals [`CommPlan::simulate_on_mesh`] under
    /// the policy's healthy mode exactly.
    pub fn simulate_on_mesh_faulty(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
        plan: &FaultPlan,
        sched: SchedulePolicy,
    ) -> FaultReport {
        let phases = self.phases_on_mesh(mesh, dist, vshape, bytes);
        PhaseSim::new(mesh.clone()).simulate_phases_faulty_policy(&phases, plan, sched)
    }

    /// Monte Carlo replication of the faulty simulation: run the plan
    /// under `plan` with `replications` independent seeds derived from
    /// `plan.seed` via [`replication_seed`] (replication 0 reproduces
    /// the classic single-seed run exactly), every replication
    /// scheduled per `sched`. Returns one full [`FaultReport`] per
    /// replication.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_on_mesh_faulty_replicated(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
        plan: &FaultPlan,
        replications: usize,
        sched: SchedulePolicy,
    ) -> Vec<FaultReport> {
        let seeds: Vec<u64> = (0..replications)
            .map(|r| replication_seed(plan.seed, r as u64))
            .collect();
        self.fault_engine(mesh, dist, vshape, bytes, plan)
            .replay_faulty(&seeds, sched)
    }

    /// Monte Carlo replication of the recovering simulation (checkpoint
    /// and rollback under permanent node deaths); seed derivation as in
    /// [`CommPlan::simulate_on_mesh_faulty_replicated`], schedule per
    /// `sched`.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_on_mesh_recovering_replicated(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
        plan: &FaultPlan,
        policy: &CheckpointPolicy,
        replications: usize,
        sched: SchedulePolicy,
    ) -> Vec<FaultReport> {
        let seeds: Vec<u64> = (0..replications)
            .map(|r| replication_seed(plan.seed, r as u64))
            .collect();
        self.fault_engine(mesh, dist, vshape, bytes, plan)
            .replay_recovering(policy, &seeds, sched)
    }

    /// Fold onto a mesh like [`CommPlan::simulate_on_mesh`], but drive
    /// the phases through the checkpoint/rollback engine
    /// ([`PhaseSim::simulate_phases_recovering`] or its overlapped
    /// twin, per `sched`) so the plan survives the fault plan's
    /// permanent node deaths. On a death-free plan the committed
    /// makespan equals the faulty run under the same policy exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_on_mesh_recovering(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
        plan: &FaultPlan,
        policy: &CheckpointPolicy,
        sched: SchedulePolicy,
    ) -> FaultReport {
        let phases = self.phases_on_mesh(mesh, dist, vshape, bytes);
        PhaseSim::new(mesh.clone()).simulate_phases_recovering_policy(&phases, plan, policy, sched)
    }

    /// Verify the plan delivers data correctly: for every non-local access
    /// and every iteration point, following the access's phases from the
    /// element's owner must end at the computing processor.
    ///
    /// Returns `Err` with a witness description on the first violation.
    pub fn verify_availability(&self, nest: &LoopNest, mapping: &Mapping) -> Result<(), String> {
        for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
            if matches!(out, CommOutcome::Local) {
                continue;
            }
            let phases: Vec<&CommPhase> =
                self.phases.iter().filter(|p| p.access == acc.id).collect();
            let dom = &nest.statement(acc.stmt).domain;
            for p in dom.points() {
                let e = acc.subscript(&p);
                let src = coord2(&mapping.alignment.array_alloc[acc.array.0].apply(&e));
                let dst = coord2(&mapping.alignment.stmt_alloc[acc.stmt.0].apply(&p));
                if src == dst {
                    continue;
                }
                // A phase is functional when it moves every position by a
                // well-defined map: affine phases always, explicit ones
                // when they belong to a factor chain.
                let chained = phases.iter().all(|ph| {
                    matches!(ph.pattern, PhasePattern::Affine { .. })
                        || matches!(
                            ph.kind,
                            PhaseKind::Elementary(_) | PhaseKind::DecompositionShift
                        )
                });
                if chained {
                    // Chain the phases (absent entry = stays in place).
                    let mut pos = src;
                    for phase in &phases {
                        pos = phase.pattern.apply(pos);
                    }
                    if pos != dst {
                        return Err(format!(
                            "access {:?} at {:?}: element owner {:?} routed to {:?}, \
                             but the computation runs on {:?}",
                            acc.id, p, src, pos, dst
                        ));
                    }
                } else {
                    // One-shot phases (translation / collective / general)
                    // may fan out: the endpoint pair must be present in
                    // some phase of this access.
                    let present = phases.iter().any(|ph| ph.pattern.routes(src, dst));
                    if !present {
                        return Err(format!(
                            "access {:?} at {:?}: transfer {:?} → {:?} missing \
                             from the plan",
                            acc.id, p, src, dst
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Build the communication plan of a mapping (2-D mappings only — the
/// simulators are 2-D). Coordinates are raw; wrapping happens at fold
/// time.
pub fn build_plan(nest: &LoopNest, mapping: &Mapping) -> CommPlan {
    assert_eq!(mapping.alignment.m, 2, "plans target 2-D grids");
    let mut plan = CommPlan::default();
    for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
        let dom = &nest.statement(acc.stmt).domain;
        // Exact (owner → computer) endpoints per iteration point.
        let endpoints = || {
            let mut seen = BTreeSet::new();
            let mut v = Vec::new();
            for p in dom.points() {
                let e = acc.subscript(&p);
                let src = coord2(&mapping.alignment.array_alloc[acc.array.0].apply(&e));
                let dst = coord2(&mapping.alignment.stmt_alloc[acc.stmt.0].apply(&p));
                if src != dst && seen.insert((src, dst)) {
                    v.push((src, dst));
                }
            }
            v
        };
        match out {
            CommOutcome::Local => {}
            CommOutcome::Translation => plan.phases.push(CommPhase {
                access: acc.id,
                kind: PhaseKind::Translation,
                pattern: PhasePattern::Explicit(endpoints()),
            }),
            CommOutcome::Macro { .. } => plan.phases.push(CommPhase {
                access: acc.id,
                kind: PhaseKind::CollectiveRound,
                pattern: PhasePattern::Explicit(endpoints()),
            }),
            CommOutcome::Decomposed { factors, .. } => {
                // precv = F₁·…·F_n·psend + t₀: one phase per factor (right
                // to left), then the constant shift t₀ (§4.2: the dataflow
                // equality holds "up to a translation").
                let mut sources: Vec<((i64, i64), (i64, i64))> = {
                    // (current position, final destination) pairs.
                    let mut seen = BTreeSet::new();
                    let mut v = Vec::new();
                    for p in dom.points() {
                        let e = acc.subscript(&p);
                        let src = coord2(&mapping.alignment.array_alloc[acc.array.0].apply(&e));
                        let dst = coord2(&mapping.alignment.stmt_alloc[acc.stmt.0].apply(&p));
                        if seen.insert((src, dst)) {
                            v.push((src, dst));
                        }
                    }
                    v
                };
                for f in factors.iter().rev() {
                    let mat = f.to_mat();
                    let mut pattern = Vec::new();
                    for (pos, _) in &mut sources {
                        let q = mat.mul_vec(&[pos.0, pos.1]);
                        let q = (q[0], q[1]);
                        if q != *pos {
                            pattern.push((*pos, q));
                        }
                        *pos = q;
                    }
                    pattern.sort();
                    pattern.dedup();
                    plan.phases.push(CommPhase {
                        access: acc.id,
                        kind: PhaseKind::Elementary(*f),
                        pattern: PhasePattern::Explicit(pattern),
                    });
                }
                // Final constant shift to the true destination.
                let mut shift: Vec<((i64, i64), (i64, i64))> = sources
                    .iter()
                    .filter(|(pos, dst)| pos != dst)
                    .map(|&(pos, dst)| (pos, dst))
                    .collect();
                shift.sort();
                shift.dedup();
                if !shift.is_empty() {
                    // All moves share one offset (affine constant term).
                    let d0 = (shift[0].1 .0 - shift[0].0 .0, shift[0].1 .1 - shift[0].0 .1);
                    debug_assert!(
                        shift.iter().all(|&(s, d)| (d.0 - s.0, d.1 - s.1) == d0),
                        "decomposition residue is not a constant shift"
                    );
                    plan.phases.push(CommPhase {
                        access: acc.id,
                        kind: PhaseKind::DecompositionShift,
                        pattern: PhasePattern::Explicit(shift),
                    });
                }
            }
            CommOutcome::DecomposedGeneral { .. } => plan.phases.push(CommPhase {
                access: acc.id,
                kind: PhaseKind::UnirowFactor,
                pattern: PhasePattern::Explicit(endpoints()),
            }),
            CommOutcome::General => plan.phases.push(CommPhase {
                access: acc.id,
                kind: PhaseKind::GeneralAffine,
                pattern: PhasePattern::Explicit(endpoints()),
            }),
        }
    }
    plan
}

/// Build the plan of a mapping in **closed (affine) form**: every phase
/// whose transfer is an affine map of the sender's position is carried
/// as [`PhasePattern::Affine`] instead of an enumerated endpoint list.
///
/// Construction cost is `O(1)` per affine access — the linear part comes
/// from the dataflow matrix (or the decomposition's factor chain) and the
/// constant term is pinned by sampling a *single* iteration point, since
/// the mapping pipeline already proved `dst = T·src + t₀` holds
/// point-wise. Folding such a plan onto a mesh then goes through
/// [`rescomm_distribution::fold_affine`], flat in the virtual-grid area:
/// this is the entry point for simulating plans on huge grids (4096²,
/// 8192²) where [`build_plan`]'s per-point enumeration is intractable.
///
/// Collectives ([`CommOutcome::Macro`]) stay explicit — their placement
/// phase is data-dependent, not a grid-wide map — as does any access
/// whose dataflow matrix the alignment cannot express (rank-deficient
/// replication); [`CommPlan::verify_availability`] treats both forms
/// exactly, so `build_plan_closed` is proved against the same oracle as
/// [`build_plan`].
pub fn build_plan_closed(nest: &LoopNest, mapping: &Mapping) -> CommPlan {
    assert_eq!(mapping.alignment.m, 2, "plans target 2-D grids");
    let mut plan = CommPlan::default();
    for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
        if matches!(out, CommOutcome::Local) {
            continue;
        }
        let dom = &nest.statement(acc.stmt).domain;
        // One sample pins the affine constant term.
        let Some(p0) = dom.points().next() else {
            continue;
        };
        let e0 = acc.subscript(&p0);
        let src0 = coord2(&mapping.alignment.array_alloc[acc.array.0].apply(&e0));
        let dst0 = coord2(&mapping.alignment.stmt_alloc[acc.stmt.0].apply(&p0));
        let endpoints = || {
            let mut seen = BTreeSet::new();
            let mut v = Vec::new();
            for p in dom.points() {
                let e = acc.subscript(&p);
                let src = coord2(&mapping.alignment.array_alloc[acc.array.0].apply(&e));
                let dst = coord2(&mapping.alignment.stmt_alloc[acc.stmt.0].apply(&p));
                if src != dst && seen.insert((src, dst)) {
                    v.push((src, dst));
                }
            }
            v
        };
        match out {
            CommOutcome::Local => unreachable!(),
            CommOutcome::Translation => {
                let d0 = (dst0.0 - src0.0, dst0.1 - src0.1);
                plan.phases.push(CommPhase {
                    access: acc.id,
                    kind: PhaseKind::Translation,
                    pattern: PhasePattern::Affine {
                        t: IMat::identity(2),
                        shift: d0,
                    },
                });
            }
            // The collective's placement phase is data-dependent (a
            // fan-out/fan-in set, not a position map): keep it explicit.
            CommOutcome::Macro { .. } => plan.phases.push(CommPhase {
                access: acc.id,
                kind: PhaseKind::CollectiveRound,
                pattern: PhasePattern::Explicit(endpoints()),
            }),
            CommOutcome::Decomposed { factors, .. } => {
                // precv = F₁·…·F_n·psend + t₀: factors apply right to
                // left, each one a grid-wide linear sweep, then the
                // constant shift t₀ = dst₀ − (F₁·…·F_n)·src₀.
                for f in factors.iter().rev() {
                    plan.phases.push(CommPhase {
                        access: acc.id,
                        kind: PhaseKind::Elementary(*f),
                        pattern: PhasePattern::Affine {
                            t: f.to_mat(),
                            shift: (0, 0),
                        },
                    });
                }
                let prod = product(factors);
                let moved = prod.mul_vec(&[src0.0, src0.1]);
                let t0 = (dst0.0 - moved[0], dst0.1 - moved[1]);
                if t0 != (0, 0) {
                    plan.phases.push(CommPhase {
                        access: acc.id,
                        kind: PhaseKind::DecompositionShift,
                        pattern: PhasePattern::Affine {
                            t: IMat::identity(2),
                            shift: t0,
                        },
                    });
                }
            }
            CommOutcome::DecomposedGeneral { .. } | CommOutcome::General => {
                let kind = if matches!(out, CommOutcome::General) {
                    PhaseKind::GeneralAffine
                } else {
                    PhaseKind::UnirowFactor
                };
                let pattern = match dataflow_matrix(&mapping.alignment, nest, acc.id) {
                    Some(t) => {
                        let moved = t.mul_vec(&[src0.0, src0.1]);
                        PhasePattern::Affine {
                            t,
                            shift: (dst0.0 - moved[0], dst0.1 - moved[1]),
                        }
                    }
                    // Rank-deficient alignment: no grid-wide map exists.
                    None => PhasePattern::Explicit(endpoints()),
                };
                plan.phases.push(CommPhase {
                    access: acc.id,
                    kind,
                    pattern,
                });
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{map_nest, MappingOptions};
    use rescomm_distribution::Dist1D;
    use rescomm_loopnest::examples;
    use rescomm_machine::CostModel;

    #[test]
    fn local_accesses_produce_no_phase() {
        let (nest, _) = examples::example5_platonoff(4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        assert!(plan.phases.is_empty(), "communication-free nest");
        assert_eq!(plan.message_count(), 0);
        plan.verify_availability(&nest, &mapping).unwrap();
    }

    #[test]
    fn motivating_example_plan_structure() {
        let (nest, ids) = examples::motivating_example(6, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        // The decomposed access contributes one phase per factor plus
        // (possibly) the final shift.
        let f3_phases: Vec<_> = plan.phases.iter().filter(|p| p.access == ids.f3).collect();
        assert!(f3_phases.len() >= 2, "{}", f3_phases.len());
        assert!(f3_phases
            .iter()
            .take(2)
            .all(|p| matches!(p.kind, PhaseKind::Elementary(_))));
        assert!(plan
            .phases
            .iter()
            .any(|p| p.access == ids.f6 && p.kind == PhaseKind::CollectiveRound));
        assert!(plan
            .phases
            .iter()
            .all(|p| p.kind != PhaseKind::GeneralAffine));
    }

    #[test]
    fn every_plan_delivers_its_data() {
        // The availability proof across kernels — the strongest
        // correctness statement about the whole pipeline.
        for nest in [
            examples::motivating_example(6, 2).0,
            examples::jacobi2d(6),
            examples::transpose(6),
            examples::matmul(4),
            examples::syrk(4),
            examples::example2_broadcast(6),
            examples::gauss_elim(4),
            examples::adi_sweep(6),
        ] {
            let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
            let plan = build_plan(&nest, &mapping);
            plan.verify_availability(&nest, &mapping)
                .unwrap_or_else(|e| panic!("{}: {e}", nest.name));
        }
    }

    #[test]
    fn jacobi_plan_is_pure_translations() {
        let nest = examples::jacobi2d(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        assert!(plan.phases.iter().all(|p| p.kind == PhaseKind::Translation));
        assert!(!plan.phases.is_empty());
    }

    #[test]
    fn plan_simulation_runs() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &full);
        let t = plan.simulate_on_mesh(&mesh, dist, (24, 24), 64, ScheduleMode::Phased);
        assert!(t > 0);
        // Relaxing the phase barriers can only help, and the compiled
        // replay reproduces both modes exactly.
        let cached = plan.compile_on_mesh(&mesh, dist, (24, 24), 64);
        let mut sim = PhaseSim::new(mesh.clone());
        for mode in [ScheduleMode::Phased, ScheduleMode::overlapped()] {
            let direct = plan.simulate_on_mesh(&mesh, dist, (24, 24), 64, mode);
            assert!(direct <= t);
            assert_eq!(sim.run_cached_phases(&cached, mode, 1), direct);
        }
    }

    #[test]
    fn recovering_plan_simulation_matches_plain_without_deaths() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &full);
        let t = plan.simulate_on_mesh(&mesh, dist, (24, 24), 64, ScheduleMode::Phased);
        let rep = plan.simulate_on_mesh_recovering(
            &mesh,
            dist,
            (24, 24),
            64,
            &FaultPlan::none(),
            &CheckpointPolicy::default(),
            SchedulePolicy::default(),
        );
        assert_eq!(rep.makespan, t, "zero-death recovery is bit-identical");
        assert_eq!(rep.recovery.rollbacks, 0);
        // Under an overlapped policy the zero-fault recovery matches the
        // fault-free overlapped schedule instead.
        let over = plan.simulate_on_mesh(&mesh, dist, (24, 24), 64, ScheduleMode::overlapped());
        let rep = plan.simulate_on_mesh_recovering(
            &mesh,
            dist,
            (24, 24),
            64,
            &FaultPlan::none(),
            &CheckpointPolicy::default(),
            SchedulePolicy::Fixed(ScheduleMode::overlapped()),
        );
        assert_eq!(rep.makespan, over, "zero-death overlapped recovery");
        assert_eq!(rep.downgrades, 0);

        // And with a mid-run death the plan still completes, exactly once.
        let faulty = FaultPlan {
            node_deaths: vec![rescomm_machine::NodeDeath { node: 6, t: t / 2 }],
            ..FaultPlan::none()
        };
        for sched in [
            SchedulePolicy::default(),
            SchedulePolicy::Fixed(ScheduleMode::overlapped()),
            SchedulePolicy::Adaptive {
                inflation_threshold: 1.2,
            },
        ] {
            let rep = plan.simulate_on_mesh_recovering(
                &mesh,
                dist,
                (24, 24),
                64,
                &faulty,
                &CheckpointPolicy::default(),
                sched,
            );
            assert!(
                rep.recovery.all_recovered(),
                "{sched:?}: {:?}",
                rep.recovery
            );
            assert_eq!(rep.delivered, rep.messages, "{sched:?}");
            assert_eq!(rep.black_holes, 0, "{sched:?}");
        }
    }

    #[test]
    fn replicated_faulty_rep0_matches_classic_run() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &full);
        let fplan = FaultPlan {
            seed: 42,
            drop_prob: 0.2,
            dup_prob: 0.02,
            ..FaultPlan::none()
        };
        let reps = plan.simulate_on_mesh_faulty_replicated(
            &mesh,
            dist,
            (24, 24),
            64,
            &fplan,
            5,
            SchedulePolicy::default(),
        );
        assert_eq!(reps.len(), 5);

        // Replication 0 is the classic single-seed run, bit-identical to
        // the per-call oracle over the same folded phases.
        let phases = plan.phases_on_mesh(&mesh, dist, (24, 24), 64);
        let oracle = PhaseSim::new(mesh.clone()).simulate_phases_faulty(&phases, &fplan);
        assert_eq!(reps[0], oracle);
        // Distinct seeds genuinely vary the runs.
        assert!(reps
            .iter()
            .any(|r| r.retries != reps[0].retries || r != &reps[0]));
        // The overlapped policy threads through to the batch engine and
        // agrees with the per-call policy oracle on replication 0.
        let sched = SchedulePolicy::Fixed(ScheduleMode::overlapped());
        let over =
            plan.simulate_on_mesh_faulty_replicated(&mesh, dist, (24, 24), 64, &fplan, 3, sched);
        assert_eq!(
            over[0],
            plan.simulate_on_mesh_faulty(&mesh, dist, (24, 24), 64, &fplan, sched)
        );
    }

    #[test]
    fn replicated_recovering_rep0_matches_single_run() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &full);
        let healthy = plan.simulate_on_mesh(&mesh, dist, (24, 24), 64, ScheduleMode::Phased);
        let fplan = FaultPlan {
            seed: 7,
            drop_prob: 0.1,
            node_deaths: vec![rescomm_machine::NodeDeath {
                node: 6,
                t: healthy / 2,
            }],
            detection_latency: 5_000,
            ..FaultPlan::none()
        };
        let policy = CheckpointPolicy::default();
        let reps = plan.simulate_on_mesh_recovering_replicated(
            &mesh,
            dist,
            (24, 24),
            64,
            &fplan,
            &policy,
            3,
            SchedulePolicy::default(),
        );
        assert_eq!(reps.len(), 3);
        let single = plan.simulate_on_mesh_recovering(
            &mesh,
            dist,
            (24, 24),
            64,
            &fplan,
            &policy,
            SchedulePolicy::default(),
        );
        assert_eq!(reps[0], single, "replication 0 is the classic run");
        for r in &reps {
            assert!(r.recovery.all_recovered(), "{:?}", r.recovery);
            assert_eq!(r.delivered, r.messages);
        }
    }

    #[test]
    fn patterns_are_deduplicated() {
        let nest = examples::example2_broadcast(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        for phase in &plan.phases {
            let mut sorted = phase
                .pattern
                .explicit()
                .expect("build_plan is explicit")
                .to_vec();
            sorted.sort();
            let before = sorted.len();
            sorted.dedup();
            assert_eq!(sorted.len(), before, "duplicate virtual messages");
        }
    }

    #[test]
    fn closed_plans_deliver_their_data() {
        // The availability proof holds for affine-form plans on the same
        // kernels as the explicit ones — same oracle, both forms exact.
        for nest in [
            examples::motivating_example(6, 2).0,
            examples::jacobi2d(6),
            examples::transpose(6),
            examples::matmul(4),
            examples::syrk(4),
            examples::example2_broadcast(6),
            examples::gauss_elim(4),
            examples::adi_sweep(6),
        ] {
            let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
            let plan = build_plan_closed(&nest, &mapping);
            plan.verify_availability(&nest, &mapping)
                .unwrap_or_else(|e| panic!("{}: {e}", nest.name));
        }
    }

    #[test]
    fn closed_plan_carries_affine_phases() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan_closed(&nest, &mapping);
        assert!(plan.affine_phase_count() > 0, "no closed phases emitted");
        // Explicit enumeration only survives in collective phases.
        for p in &plan.phases {
            if p.pattern.explicit().is_some() {
                assert_eq!(p.kind, PhaseKind::CollectiveRound, "{:?}", p.kind);
            }
        }
        // Translations are pure shifts: identity linear part.
        let nest = examples::jacobi2d(6);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan_closed(&nest, &mapping);
        assert!(!plan.phases.is_empty());
        for p in &plan.phases {
            match &p.pattern {
                PhasePattern::Affine { t, shift } => {
                    assert_eq!(*t, IMat::identity(2));
                    assert_ne!(*shift, (0, 0));
                }
                PhasePattern::Explicit(_) => panic!("jacobi plan should be fully affine"),
            }
        }
    }

    #[test]
    fn closed_plan_simulates_huge_grids() {
        // The point of the closed path: folding a plan at 4096² virtual
        // processors without enumerating 16.8M sends. The explicit plan
        // cannot even be built at this size; the closed one folds in
        // milliseconds and still produces a positive makespan.
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(8, 8, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan_closed(&nest, &mapping);
        let t = plan.simulate_on_mesh(&mesh, dist, (4096, 4096), 64, ScheduleMode::Phased);
        assert!(t > 0);
        // Affine phases go through the same mode plumbing: overlapping
        // a closed (million-VP) plan never makes it slower.
        let over = plan.simulate_on_mesh(&mesh, dist, (4096, 4096), 64, ScheduleMode::overlapped());
        assert!(over <= t);
    }

    /// The unmemoized lowering: every phase folded on its own, then
    /// flattened to node ids — what `phases_on_mesh` must reproduce.
    fn lower_each_phase(
        plan: &CommPlan,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
    ) -> Vec<Vec<PMsg>> {
        let pshape = (mesh.px, mesh.py);
        plan.phases
            .iter()
            .map(|phase| {
                let folded = match &phase.pattern {
                    PhasePattern::Explicit(pattern) => {
                        let wrapped: Vec<Endpoints> = pattern
                            .iter()
                            .map(|&(s, d)| (wrap2(s, vshape), wrap2(d, vshape)))
                            .filter(|(s, d)| s != d)
                            .collect();
                        fold_pattern(&wrapped, dist, vshape, pshape, bytes)
                    }
                    PhasePattern::Affine { t, shift } => {
                        fold_affine(t, *shift, dist, vshape, pshape, bytes)
                    }
                };
                folded
                    .msgs
                    .iter()
                    .map(|m| PMsg {
                        src: mesh.node_id(m.src.0, m.src.1),
                        dst: mesh.node_id(m.dst.0, m.dst.1),
                        bytes: m.bytes,
                    })
                    .collect()
            })
            .collect()
    }

    /// A chained stencil: each statement reads the previous stage and a
    /// shared array through signed permutations, so the closed plan is a
    /// chain of repeated elementary factors.
    fn chained_stencil(n_stmts: usize) -> LoopNest {
        let fam = [
            IMat::identity(2),
            IMat::from_rows(&[&[0, 1], &[1, 0]]),
            IMat::from_rows(&[&[0, -1], &[1, 0]]),
        ];
        let mut b = rescomm_loopnest::NestBuilder::new("chained-stencil");
        let g = b.array("g", 2);
        let stages: Vec<_> = (0..=n_stmts)
            .map(|i| b.array(&format!("a{i}"), 2))
            .collect();
        for i in 1..=n_stmts {
            let s = b.statement(&format!("S{i}"), 2, rescomm_loopnest::Domain::cube(2, 4));
            b.write(s, stages[i], IMat::identity(2), &[0, 0]);
            b.read(s, stages[i - 1], fam[i % 3].clone(), &[0, 0]);
            b.read(s, g, fam[(i + 1) % 3].clone(), &[(i % 2) as i64, 0]);
        }
        b.build().unwrap()
    }

    #[test]
    fn memoized_lowering_matches_per_phase_fold() {
        let mut nests = vec![
            examples::motivating_example(6, 4).0,
            examples::example2_broadcast(6),
            examples::example3_gather(6),
            examples::example4_reduction(6),
            examples::matmul(6),
            examples::gauss_elim(6),
            examples::jacobi2d(6),
            examples::syrk(6),
            examples::stencil1d(6, 4),
            examples::gauss_triangular(6),
            examples::adi_sweep(6),
        ];
        nests.extend([5, 9, 16].map(chained_stencil));
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut repeats = 0;
        for nest in &nests {
            let mapping = map_nest(nest, &MappingOptions::new(2)).unwrap();
            let plan = build_plan_closed(nest, &mapping);
            assert!(!plan.phases.is_empty(), "{} communicates", nest.name);
            let mut keys = std::collections::HashSet::new();
            for p in &plan.phases {
                if let PhasePattern::Affine { t, shift } = &p.pattern {
                    repeats += usize::from(!keys.insert((t.clone(), *shift)));
                }
            }
            for vshape in [(4096, 4096), (1021, 67)] {
                for d in [Dist1D::Cyclic, Dist1D::Block] {
                    let dist = Dist2D::uniform(d);
                    assert_eq!(
                        plan.phases_on_mesh(&mesh, dist, vshape, 64),
                        lower_each_phase(&plan, &mesh, dist, vshape, 64),
                        "{} at {vshape:?} under {d:?}",
                        nest.name
                    );
                }
            }
        }
        assert!(repeats > 0, "the corpus must exercise the memo");
    }

    #[test]
    fn memo_keys_on_every_entry_of_t_and_the_shift() {
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let affine = |rows: &[&[i64]], shift| CommPhase {
            access: AccessId(0),
            kind: PhaseKind::UnirowFactor,
            pattern: PhasePattern::Affine {
                t: IMat::from_rows(rows),
                shift,
            },
        };
        let explicit = |pairs: Vec<Endpoints>| CommPhase {
            access: AccessId(0),
            kind: PhaseKind::Translation,
            pattern: PhasePattern::Explicit(pairs),
        };
        let u1: &[&[i64]] = &[&[1, 1], &[0, 1]];
        let mut phases = vec![
            affine(u1, (0, 0)),
            explicit(vec![((0, 0), (5, 3)), ((1, 2), (7, 7))]),
            affine(u1, (1, 0)),
            affine(u1, (0, 1)),
            explicit(vec![((3, 3), (0, 9))]),
            affine(u1, (0, 0)),
        ];
        // One entry of `T` changed at a time, same shift.
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut rows = [[1i64, 1], [0, 1]];
            rows[r][c] += 2;
            phases.push(affine(&[&rows[0], &rows[1]], (0, 0)));
        }
        phases.push(affine(u1, (1, 0)));
        let plan = CommPlan { phases };
        for vshape in [(24, 24), (23, 17)] {
            for d in [Dist1D::Cyclic, Dist1D::Block] {
                let dist = Dist2D::uniform(d);
                let memo = plan.phases_on_mesh(&mesh, dist, vshape, 8);
                assert_eq!(memo, lower_each_phase(&plan, &mesh, dist, vshape, 8));
                // The keys above really fold differently: a key that
                // dropped `shift` or an entry of `T` would copy a wrong
                // phase and break the equality.
                let distinct: BTreeSet<&Vec<PMsg>> =
                    [0, 2, 3, 6, 7, 8, 9].iter().map(|&i| &memo[i]).collect();
                assert_eq!(distinct.len(), 7, "{vshape:?} under {d:?}");
            }
        }
    }

    #[test]
    fn closed_plan_fold_matches_explicit_grid_wide_phases() {
        // On a grid the size of the iteration space, an all-affine access
        // folds to the same phase count through either plan form.
        let nest = examples::jacobi2d(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let explicit = build_plan(&nest, &mapping);
        let closed = build_plan_closed(&nest, &mapping);
        assert_eq!(explicit.phases.len(), closed.phases.len());
        for (e, c) in explicit.phases.iter().zip(&closed.phases) {
            assert_eq!(e.kind, c.kind);
            assert_eq!(e.access, c.access);
        }
    }
}
