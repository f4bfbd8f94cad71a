//! The simulation engine: one transport step and one run driver behind
//! every mesh schedule the workspace simulates.
//!
//! * [`CachedPhase`] is a phase compiled for the step: self-messages
//!   filtered, the rest sorted in [`PMsg`] order, every XY route
//!   flattened into one link table. When the fault plan has link
//!   outages, [`FaultSim`] also records the YX detour of every message
//!   for rerouting around dead links.
//! * **The step** runs one compiled phase: greedy whole-route
//!   reservation on an epoch-stamped link table (no per-phase clear), in
//!   sorted order or, for [`OverlapOrder::LongestFirst`], by (release
//!   time, longest route, sorted order). It is generic over whether a
//!   [`CompiledFaultPlan`] is present, so the healthy loop carries no
//!   fault branches, and over an event sink that sees every
//!   transmission (`()` sees nothing and compiles away).
//! * **The driver** runs a plan of phases under a release rule:
//!   *phased* (link table and clock restart at every phase, phase
//!   makespans add up), *dependency frontier* (one shared clock; a
//!   message releases once its source node has received every delivered
//!   inflow of earlier phases), or, after an adaptive downgrade
//!   ([`SchedulePolicy::Adaptive`]), a *barrier* at the committed clock.
//!   Its checkpoint parameter is `None` for a run that black-holes
//!   traffic to permanently dead nodes, or `Some(&CheckpointPolicy)` for
//!   checkpoint/rollback recovery with survivor folding.
//! * **The lane path** of [`FaultSim::replay_faulty`] runs two to
//!   [`LANES`] seeds of a drop/dup-only run in one pass over lane-major
//!   clocks and RNG states (a lone seed is faster through the step). A
//!   message's first attempt and its drop and duplicate draws are
//!   straight-line code over the lanes; a lane whose first attempt
//!   dropped settles the rest through the step's own fault rule
//!   (`fate`), so there is no second copy of the fault semantics.
//!   The lane code is compiled twice, portable and for AVX-512, and the
//!   CPU picks the build at run time.
//!
//! [`PhaseSim`] owns the scratch state; its per-call entry points compile
//! each phase into a reused scratch [`CachedPhase`] first, so they take
//! the same step as [`PhaseSim::run_cached_phases`] and [`FaultSim`].
//! The engine is tested against two oracles that share none of its
//! code: [`Mesh2D::simulate_phase`] for healthy schedules and
//! [`crate::reference::simulate`] for every fault and recovery semantic.

use crate::fault::{CompiledFaultPlan, FaultReport};
use crate::mesh::Mesh2D;
use crate::model::PMsg;
use crate::overlap::{OverlapEvent, OverlapOrder, ScheduleMode, SchedulePolicy};
use crate::rng::{advance, hits, threshold, XorShift64};
use crate::FaultPlan;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Reusable scratch state for simulating mesh communication phases.
#[derive(Debug, Clone)]
pub struct PhaseSim {
    mesh: Mesh2D,
    /// Per-link reservation clock; a link whose stamp is not the current
    /// epoch is free. The lane path keeps its clocks in `lanes` and
    /// uses only the stamps.
    links: Vec<LinkClock>,
    epoch: u32,
    /// Per-node release time and latest delivered arrival (the
    /// dependency frontier).
    node_ready: Vec<u64>,
    node_arrival: Vec<u64>,
    /// Processing-order scratch for [`OverlapOrder::LongestFirst`].
    order: Vec<u32>,
    /// Per-call compile scratch.
    compiled: CachedPhase,
    /// Lane-path scratch, sized on first use.
    lanes: Lanes,
}

/// Seeds that [`FaultSim::replay_faulty`] advances together in one pass
/// when the plan and schedule allow it (see [`FaultSim::replay_faulty`]).
pub const LANES: usize = 16;

/// Lane-major clocks of the lane path: entry `k` of every row belongs
/// to lane `k`, so one message's lanes sit side by side in memory.
#[derive(Debug, Clone, Default)]
struct Lanes {
    /// Per-link reservation clocks, valid while the link's stamp in
    /// [`PhaseSim::links`] is the current epoch.
    free: Vec<[u64; LANES]>,
    /// Per-node release time and latest delivered arrival.
    node_ready: Vec<[u64; LANES]>,
    node_arrival: Vec<[u64; LANES]>,
}

impl Lanes {
    /// Reserve every link of `links` until `until` in lane `k`.
    #[inline]
    fn reserve(&mut self, links: &[u32], k: usize, until: u64) {
        for &l in links {
            self.free[l as usize][k] = until;
        }
    }

    /// Send lane `k`'s duplicate of a delivery that ended at `end` back to
    /// back on the same route; returns its end.
    #[inline]
    fn duplicate(&mut self, links: &[u32], k: usize, end: u64, dur: u64) -> u64 {
        let end2 = end.saturating_add(dur);
        self.reserve(links, k, end2);
        end2
    }
}

/// Observer of a run: the step reports every transmission, the driver
/// every committed phase. `()` observes nothing.
pub(crate) trait Sink {
    /// One transmission over `links` (message, release, start, end).
    fn sent(&mut self, _event: OverlapEvent, _links: &[u32]) {}
    /// Phase `phase` committed; the run's clock is now `clock`.
    fn committed(&mut self, _phase: usize, _clock: u64) {}
}

impl Sink for () {}

impl Sink for Vec<OverlapEvent> {
    fn sent(&mut self, event: OverlapEvent, _links: &[u32]) {
        self.push(event);
    }
}

/// Records the committed clock after every phase.
struct Clocks(Vec<u64>);

impl Sink for Clocks {
    fn committed(&mut self, phase: usize, clock: u64) {
        self.0[phase] = clock;
    }
}

/// When a phase's messages may start (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Release {
    /// Phased: link table and clock restart at 0.
    PerPhase,
    /// Overlapped: at the source node's dependency frontier.
    Frontier,
    /// Adaptive after a downgrade: every node at the committed clock.
    Barrier,
}

/// Survivor folds of a recovering run, keyed by (phase, unique deaths
/// folded), with each fold's dropped (no-survivor) message count.
type Folds = BTreeMap<(usize, usize), (CachedPhase, usize)>;

/// The phases a run executes.
enum Phases<'a> {
    /// Raw message sets, compiled one at a time into the scratch phase.
    Raw(&'a [Vec<PMsg>]),
    /// Precompiled phases.
    Compiled(&'a [CachedPhase]),
    /// Precompiled phases of a recovering run and the raw message sets
    /// they came from; folds are compiled on first use.
    Folding(&'a [CachedPhase], &'a [Vec<PMsg>], &'a mut Folds),
}

impl Phases<'_> {
    fn len(&self) -> usize {
        match self {
            Phases::Raw(raw) => raw.len(),
            Phases::Compiled(c) | Phases::Folding(c, ..) => c.len(),
        }
    }
}

/// Everything the driver needs besides the phases.
#[derive(Clone, Copy)]
struct Run<'a> {
    faults: Option<&'a CompiledFaultPlan>,
    /// Phase `i` draws faults from `XorShift64::new(seed + i)`.
    seed: u64,
    mode: ScheduleMode,
    /// Adaptive downgrade threshold and the healthy overlapped clock
    /// after every phase.
    adapt: Option<(f64, &'a [u64])>,
    ckpt: Option<&'a CheckpointPolicy>,
    byte_scale: u64,
}

impl Run<'_> {
    fn healthy(mode: ScheduleMode, byte_scale: u64) -> Self {
        Run {
            faults: None,
            seed: 0,
            mode,
            adapt: None,
            ckpt: None,
            byte_scale,
        }
    }
}

/// When a link becomes free, valid in epoch `stamp` only.
#[derive(Debug, Clone, Copy, Default)]
struct LinkClock {
    stamp: u32,
    free: u64,
}

/// A phase-boundary snapshot of the engine and the committed run.
#[derive(Debug, Clone)]
struct Checkpoint {
    phase: usize,
    now: u64,
    report: FaultReport,
    release: Release,
    links: Vec<LinkClock>,
    epoch: u32,
    node_ready: Vec<u64>,
    node_arrival: Vec<u64>,
}

impl PhaseSim {
    /// Build a scratch engine for `mesh` (sizes the link table once).
    pub fn new(mesh: Mesh2D) -> Self {
        PhaseSim {
            links: vec![LinkClock::default(); mesh.link_count()],
            epoch: 0,
            node_ready: vec![0; mesh.nodes()],
            node_arrival: vec![0; mesh.nodes()],
            order: Vec::new(),
            compiled: CachedPhase::default(),
            lanes: Lanes::default(),
            mesh,
        }
    }

    /// The simulated machine.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// Simulate one phase; returns the same makespan as
    /// [`Mesh2D::simulate_phase`] without per-call allocation once the
    /// scratch buffers have warmed up.
    pub fn simulate_phase(&mut self, msgs: &[PMsg]) -> u64 {
        let mut c = std::mem::take(&mut self.compiled);
        c.compile(&self.mesh, msgs, false);
        let run = Run::healthy(ScheduleMode::Phased, 1);
        let rep = self.step::<false, _>(&c, 0, Release::PerPhase, &run, 0, &mut ());
        self.compiled = c;
        rep.makespan
    }

    /// Simulate `phases` under `mode`; returns the total time. Phased,
    /// each phase starts after the previous completes (the sum of
    /// [`Mesh2D::simulate_phases`]); see [`crate::overlap`] for the
    /// overlapped readiness rule and its ≤-phased guarantee.
    pub fn simulate_phases_mode(&mut self, phases: &[Vec<PMsg>], mode: ScheduleMode) -> u64 {
        self.simulate_traced(phases, mode, &mut ())
    }

    /// A healthy per-call run reporting to `sink`.
    pub(crate) fn simulate_traced(
        &mut self,
        phases: &[Vec<PMsg>],
        mode: ScheduleMode,
        sink: &mut impl Sink,
    ) -> u64 {
        let run = Run::healthy(mode, 1);
        self.drive(Phases::Raw(phases), run, sink).makespan
    }

    /// Replay precompiled phases under `mode` with every payload scaled
    /// by `byte_scale` — the batch-sweep fast path. Equals
    /// [`PhaseSim::simulate_phases_mode`] on the scaled message sets
    /// (uniform scaling preserves both the sorted order and the
    /// longest-first priority).
    pub fn run_cached_phases(
        &mut self,
        phases: &[CachedPhase],
        mode: ScheduleMode,
        byte_scale: u64,
    ) -> u64 {
        let run = Run::healthy(mode, byte_scale);
        self.drive(Phases::Compiled(phases), run, &mut ()).makespan
    }

    /// Start a fresh link timeline: bump the epoch so every link reads
    /// as free.
    fn begin_phase(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: physically clear the stamps once per 2³² phases.
            self.links.fill(LinkClock::default());
            self.epoch = 1;
        }
    }

    /// Earliest start ≥ `t` at which every link of `links` is free.
    #[inline]
    fn earliest(&self, links: &[u32], t: u64) -> u64 {
        links.iter().fold(t, |start, &l| {
            let c = self.links[l as usize];
            start.max(if c.stamp == self.epoch { c.free } else { 0 })
        })
    }

    /// Reserve every link of `links` until `until`.
    #[inline]
    fn reserve(&mut self, links: &[u32], until: u64) {
        for &l in links {
            self.links[l as usize] = LinkClock {
                stamp: self.epoch,
                free: until,
            };
        }
    }

    fn checkpoint(
        &self,
        phase: usize,
        now: u64,
        report: FaultReport,
        release: Release,
    ) -> Checkpoint {
        Checkpoint {
            phase,
            now,
            report,
            release,
            links: self.links.clone(),
            epoch: self.epoch,
            node_ready: self.node_ready.clone(),
            node_arrival: self.node_arrival.clone(),
        }
    }

    fn restore(&mut self, c: &Checkpoint) {
        self.links.copy_from_slice(&c.links);
        self.epoch = c.epoch;
        self.node_ready.copy_from_slice(&c.node_ready);
        self.node_arrival.copy_from_slice(&c.node_arrival);
    }

    /// The run driver (see the module docs). The report's `makespan` is
    /// the committed clock, the sum of the per-phase clock advances.
    fn drive(&mut self, mut phases: Phases, run: Run, sink: &mut impl Sink) -> FaultReport {
        let mut release = match run.mode {
            ScheduleMode::Phased => Release::PerPhase,
            ScheduleMode::Overlapped(_) => Release::Frontier,
        };
        // Deaths are survived by rollback here, or black-holed by the
        // step when there is no checkpoint policy.
        let deaths = match (run.faults, run.ckpt) {
            (Some(f), Some(_)) => f.sorted_deaths(),
            _ => &[],
        };
        let mut scratch = std::mem::take(&mut self.compiled);
        self.node_ready.fill(0);
        self.node_arrival.fill(0);
        self.begin_phase();
        let mut total = FaultReport::default();
        let mut ring: VecDeque<Checkpoint> = VecDeque::new();
        let (mut now, mut i) = (0u64, 0usize);
        // Highest phase committed so far (exclusive), the next death in
        // handling order, and the unique deaths folded so far.
        let (mut frontier, mut next_death, mut k) = (0usize, 0usize, 0usize);
        loop {
            let mut phase_end = now;
            let mut done = None;
            if i < phases.len() {
                if let Some(p) = run.ckpt {
                    // Checkpoint at the boundary, unless the rollback just
                    // taken restored exactly this one.
                    let fresh = ring.back().is_none_or(|c| c.phase != i || c.now != now);
                    if i % p.interval.max(1) == 0 && fresh {
                        if ring.len() == p.ring.max(1) {
                            ring.pop_front();
                        }
                        ring.push_back(self.checkpoint(i, now, total, release));
                        total.recovery.checkpoints += 1;
                        total.recovery.checkpoint_overhead_ns += p.cost_ns;
                    }
                }
                let (phase, dropped) = match &mut phases {
                    Phases::Raw(raw) => {
                        scratch.compile(&self.mesh, &raw[i], false);
                        (&scratch, 0)
                    }
                    Phases::Compiled(c) => (&c[i], 0),
                    Phases::Folding(c, _, _) if k == 0 => (&c[i], 0),
                    Phases::Folding(_, raw, folds) => {
                        let plan = run.faults.expect("a recovering run has a fault plan");
                        let (p, d) = folds
                            .entry((i, k))
                            .or_insert_with(|| compile_folded(&self.mesh, plan, &raw[i], k));
                        (&*p, *d)
                    }
                };
                let mut rep = match run.faults {
                    Some(_) => self.step::<true, _>(phase, i, release, &run, now, sink),
                    None => self.step::<false, _>(phase, i, release, &run, now, sink),
                };
                phase_end = self::phase_end(release, now, rep.makespan);
                rep.makespan = phase_end - now;
                rep.messages += dropped;
                rep.lost += dropped;
                rep.black_holes += dropped as u64;
                done = Some(rep);
            }
            // The next death the detector sees: inside the span this phase
            // would commit, or anywhere in the committed run once every
            // phase is done. Visibility is monotone in handling order.
            let visible = deaths.get(next_death).filter(|d| match done {
                Some(_) => d.detect <= phase_end,
                None => d.t < now,
            });
            if let Some(d) = visible {
                next_death += 1;
                total.recovery.detected += 1;
                if d.first {
                    total.recovery.folded_nodes += 1;
                }
                k = d.k_after;
                // Roll back to the newest checkpoint at or before the
                // death (the oldest one left if the ring evicted it).
                let pos = ring.iter().rposition(|c| c.now <= d.t).unwrap_or(0);
                ring.truncate(pos + 1);
                let c = ring.back().expect("phase 0 is always checkpointed");
                let lost = &mut total.recovery.lost_work_ns;
                *lost = lost.saturating_add(phase_end - c.now);
                let recovery = total.recovery;
                total = c.report;
                total.recovery = recovery;
                total.recovery.rollbacks += 1;
                (now, i, release) = (c.now, c.phase, c.release);
                self.restore(c);
                continue;
            }
            let Some(rep) = done else { break };
            total.absorb(&rep);
            now = phase_end;
            sink.committed(i, now);
            if let Some((threshold, healthy)) = run.adapt {
                if release == Release::Frontier && now as f64 > threshold * healthy[i] as f64 {
                    release = Release::Barrier;
                    total.downgrades += 1;
                }
            }
            if i < frontier {
                total.recovery.replayed_phases += 1;
            } else {
                frontier = i + 1;
            }
            i += 1;
        }
        total.recovery.deaths = next_death;
        self.compiled = scratch;
        total
    }

    /// The transport step: run phase `i` (committed clock `now`) under
    /// `release`. The report's `makespan` is the latest end time in the
    /// phase's clock frame (0 when nothing was sent).
    ///
    /// With `FAULTY`, each message runs the resilient transport: defer
    /// while an endpoint is inside an outage window; black-hole it when
    /// an endpoint is permanently dead (runs without a checkpoint policy
    /// only); take the YX detour when the XY route crosses a dead link,
    /// or wait for the first dead link to return when both do; lose each
    /// attempt with `drop_prob` (still occupying its links) and retry
    /// after timeout × backoff until `max_attempts` forces delivery;
    /// duplicate a delivery with `dup_prob` (a lost acknowledgement: the
    /// copy wastes bandwidth and is dropped at the receiver). Only the
    /// delivering transmission advances the destination's frontier.
    fn step<const FAULTY: bool, S: Sink>(
        &mut self,
        phase: &CachedPhase,
        i: usize,
        release: Release,
        run: &Run,
        now: u64,
        sink: &mut S,
    ) -> FaultReport {
        match release {
            Release::PerPhase => self.begin_phase(),
            Release::Frontier => {
                if i > 0 {
                    for (r, &a) in self.node_ready.iter_mut().zip(&self.node_arrival) {
                        *r = (*r).max(a);
                    }
                }
            }
            Release::Barrier => self.node_ready.fill(now),
        }
        let longest = release != Release::PerPhase
            && run.mode == ScheduleMode::Overlapped(OverlapOrder::LongestFirst);
        if longest {
            self.order.clear();
            self.order.extend(0..phase.len() as u32);
            let ready = &self.node_ready;
            self.order.sort_by_key(|&j| {
                let j = j as usize;
                (ready[phase.msgs[j].src], Reverse(phase.xy(j).len()), j)
            });
        }
        let faults = run.faults.filter(|_| FAULTY);
        let with_deaths = run.ckpt.is_none();
        let node_faults = faults.filter(|f| f.check_nodes(with_deaths));
        let link_faults = faults.filter(|f| f.has_link_outages());
        let plan = faults.map(CompiledFaultPlan::plan);
        let cost = self.mesh.cost;
        let mut rng = XorShift64::new(run.seed.wrapping_add(i as u64));
        let mut rep = FaultReport {
            messages: phase.len(),
            ..FaultReport::default()
        };
        for oi in 0..phase.len() {
            let j = if longest { self.order[oi] as usize } else { oi };
            let msg = phase.msgs[j];
            let (src, dst) = (msg.src, msg.dst);
            let xy = phase.xy(j);
            let dur = cost.p2p(xy.len(), msg.bytes.saturating_mul(run.byte_scale));
            let ready = match release {
                Release::PerPhase => 0,
                _ => self.node_ready[src],
            };
            let mut next_send = ready;
            let mut attempt = 0u32;
            loop {
                if let Some(f) = node_faults {
                    let alive = f
                        .node_alive_after_mode(src, next_send, with_deaths)
                        .max(f.node_alive_after_mode(dst, next_send, with_deaths));
                    // `u64::MAX` is death unless the clock saturated there.
                    if alive == u64::MAX && next_send < u64::MAX {
                        rep.lost += 1;
                        rep.black_holes += 1;
                        break;
                    }
                    if alive > next_send {
                        rep.deferrals += 1;
                        next_send = alive;
                        continue;
                    }
                }
                let (mut links, mut start) = (xy, self.earliest(xy, next_send));
                if let Some(f) = link_faults {
                    if let Some(xy_back) = scan_outages(xy, start, f) {
                        let yx = phase.yx(j);
                        let start_yx = self.earliest(yx, next_send);
                        if let Some(yx_back) = scan_outages(yx, start_yx, f) {
                            rep.deferrals += 1;
                            next_send = xy_back.min(yx_back).max(next_send.saturating_add(1));
                            continue;
                        }
                        rep.reroutes += 1;
                        (links, start) = (yx, start_yx);
                    }
                }
                attempt += 1;
                let end = start.saturating_add(dur);
                self.reserve(links, end);
                rep.makespan = rep.makespan.max(end);
                sink.sent(
                    OverlapEvent {
                        phase: i,
                        msg,
                        ready,
                        start,
                        end,
                    },
                    links,
                );
                match fate(plan, &mut rng, attempt, end, &mut rep) {
                    Fate::Retry(at) => {
                        next_send = at;
                        continue;
                    }
                    Fate::Lost => {}
                    Fate::Delivered { dup } => {
                        self.node_arrival[dst] = self.node_arrival[dst].max(end);
                        if dup {
                            // The links were just reserved to `end`, so the
                            // copy goes out back to back on the same route.
                            let end2 = end.saturating_add(dur);
                            self.reserve(links, end2);
                            rep.makespan = rep.makespan.max(end2);
                            sink.sent(
                                OverlapEvent {
                                    phase: i,
                                    msg,
                                    ready,
                                    start: end,
                                    end: end2,
                                },
                                links,
                            );
                        }
                    }
                }
                break;
            }
        }
        rep
    }

    /// The lane path of [`FaultSim::replay_faulty`]: one faulty run per
    /// seed of `seeds` (at most [`LANES`]) over `phases` under `mode`,
    /// for a plan whose only faults are drops and duplicates, equal seed
    /// for seed to the scalar driver. Such a run visits the messages of
    /// every seed in the same order (`mode` is never
    /// [`OverlapOrder::LongestFirst`]), so the seeds advance together
    /// (see [`PhaseSim::step_lanes`]). Runs the AVX-512 build of the lane
    /// code when the CPU has it and the portable build otherwise; both
    /// compile the same source and give the same reports.
    fn drive_lanes(
        &mut self,
        phases: &[CachedPhase],
        plan: &FaultPlan,
        seeds: &[u64],
        mode: ScheduleMode,
    ) -> Vec<FaultReport> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: the CPU supports every feature the AVX-512 build is
            // compiled for, as just detected.
            return unsafe { self.drive_lanes_avx512(phases, plan, seeds, mode) };
        }
        self.drive_lanes_portable(phases, plan, seeds, mode)
    }

    /// The portable build of the lane driver.
    fn drive_lanes_portable(
        &mut self,
        phases: &[CachedPhase],
        plan: &FaultPlan,
        seeds: &[u64],
        mode: ScheduleMode,
    ) -> Vec<FaultReport> {
        self.lanes_body(phases, plan, seeds, mode)
    }

    /// The AVX-512 build of the lane driver: with 64-bit vector max,
    /// compare and multiply, one message's lanes fill two 512-bit
    /// registers. (The baseline x86-64 target, SSE2, has none of the
    /// three, so the portable build stays scalar in those loops.)
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, AVX-512F, AVX-512DQ and AVX-512VL.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    unsafe fn drive_lanes_avx512(
        &mut self,
        phases: &[CachedPhase],
        plan: &FaultPlan,
        seeds: &[u64],
        mode: ScheduleMode,
    ) -> Vec<FaultReport> {
        self.lanes_body(phases, plan, seeds, mode)
    }

    /// The lane driver, inlined into each build.
    #[inline(always)]
    fn lanes_body(
        &mut self,
        phases: &[CachedPhase],
        plan: &FaultPlan,
        seeds: &[u64],
        mode: ScheduleMode,
    ) -> Vec<FaultReport> {
        let release = match mode {
            ScheduleMode::Phased => Release::PerPhase,
            ScheduleMode::Overlapped(order) => {
                debug_assert_eq!(order, OverlapOrder::Sorted);
                Release::Frontier
            }
        };
        let (n, links, nodes) = (seeds.len(), self.links.len(), self.node_ready.len());
        debug_assert!(n <= LANES);
        let lanes = &mut self.lanes;
        lanes.free.resize(links, [0; LANES]);
        lanes.node_ready.clear();
        lanes.node_ready.resize(nodes, [0; LANES]);
        lanes.node_arrival.clear();
        lanes.node_arrival.resize(nodes, [0; LANES]);
        self.begin_phase();
        let mut totals = vec![FaultReport::default(); n];
        let mut reps = totals.clone();
        for (i, phase) in phases.iter().enumerate() {
            self.step_lanes(phase, i, release, plan, seeds, &mut reps);
            for (total, rep) in totals.iter_mut().zip(&mut reps) {
                // A lane's committed clock is its summed makespan so far.
                let now = total.makespan;
                rep.makespan = phase_end(release, now, rep.makespan) - now;
                total.absorb(rep);
            }
        }
        totals
    }

    /// The transport step of the lane driver for phase `i`, writing lane
    /// `k`'s report to `reps[k]`. Each message's first attempt is
    /// straight-line code over the lanes: an element-wise max/store of
    /// the clocks, then the drop draw of every lane (draw 1), then the
    /// duplicate draw of every lane that delivered (draw 2, selected per
    /// lane). Lanes whose first attempt dropped leave the vector path one
    /// by one and settle it through [`fate`] on their own clocks, as the
    /// scalar step would. Every lane keeps the scalar draw order.
    #[inline(always)]
    fn step_lanes(
        &mut self,
        phase: &CachedPhase,
        i: usize,
        release: Release,
        plan: &FaultPlan,
        seeds: &[u64],
        reps: &mut [FaultReport],
    ) {
        match release {
            Release::PerPhase => self.begin_phase(),
            _ if i > 0 => {
                let lanes = &mut self.lanes;
                for (r, a) in lanes.node_ready.iter_mut().zip(&lanes.node_arrival) {
                    for k in 0..LANES {
                        r[k] = r[k].max(a[k]);
                    }
                }
            }
            _ => {}
        }
        // Lane `k` draws from `XorShift64::new(seeds[k] + i)`; lanes past
        // the last seed draw from a dummy state and are never read.
        let mut state = [0u64; LANES];
        for (s, seed) in state.iter_mut().zip(seeds) {
            *s = XorShift64::new(seed.wrapping_add(i as u64)).state();
        }
        let live = ((1u64 << seeds.len()) - 1) as u32;
        for rep in reps.iter_mut() {
            // Every message's first attempt is counted here.
            *rep = FaultReport {
                messages: phase.len(),
                attempts: phase.len() as u64,
                ..FaultReport::default()
            };
        }
        let (drop, dup) = (threshold(plan.drop_prob), threshold(plan.dup_prob));
        let cost = self.mesh.cost;
        let epoch = self.epoch;
        let mut makespan = [0u64; LANES];
        let mut delivered = [0u64; LANES];
        for j in 0..phase.len() {
            let msg = phase.msgs[j];
            let xy = phase.xy(j);
            let dur = cost.p2p(xy.len(), msg.bytes);
            // Every lane's first attempt, released at its own frontier.
            let mut end = match release {
                Release::PerPhase => [0; LANES],
                _ => self.lanes.node_ready[msg.src],
            };
            for &l in xy {
                if self.links[l as usize].stamp == epoch {
                    let free = &self.lanes.free[l as usize];
                    for k in 0..LANES {
                        end[k] = end[k].max(free[k]);
                    }
                }
            }
            for e in &mut end {
                *e = e.saturating_add(dur);
            }
            for &l in xy {
                // The stamp is shared by all lanes; this store rewrites
                // every lane's clock, so stale rows never survive it.
                self.links[l as usize].stamp = epoch;
                self.lanes.free[l as usize] = end;
            }
            for k in 0..LANES {
                makespan[k] = makespan[k].max(end[k]);
            }
            // Draw 1: the first attempt's drop, in every lane.
            let mut dropped = 0u32;
            for (k, s) in state.iter_mut().enumerate() {
                *s = advance(*s);
                dropped |= (hits(*s, drop) as u32) << k;
            }
            dropped &= live;
            // Draw 2: the duplicate, in the lanes that delivered.
            let arrival = &mut self.lanes.node_arrival[msg.dst];
            let mut duped = 0u32;
            for k in 0..LANES {
                let kept = dropped >> k & 1 == 0;
                let next = advance(state[k]);
                state[k] = if kept { next } else { state[k] };
                arrival[k] = if kept {
                    arrival[k].max(end[k])
                } else {
                    arrival[k]
                };
                delivered[k] += kept as u64;
                duped |= ((kept && hits(next, dup)) as u32) << k;
            }
            for k in lanes_of(duped & live) {
                reps[k].duplicates += 1;
                reps[k].attempts += 1;
                makespan[k] = makespan[k].max(self.lanes.duplicate(xy, k, end[k], dur));
            }
            // The dropped lanes settle the rest of their message alone.
            // Every link of `xy` now carries this epoch's stamp, so each
            // lane reads its row as is.
            for k in lanes_of(dropped) {
                let (lanes, rep) = (&mut self.lanes, &mut reps[k]);
                let mut rng = XorShift64::from_state(state[k]);
                let (mut end, mut attempt) = (end[k], 1);
                let mut next = dropped_attempt(plan, &mut rng, attempt, end, rep);
                loop {
                    match next {
                        Fate::Retry(at) => {
                            let start =
                                xy.iter().fold(at, |t, &l| t.max(lanes.free[l as usize][k]));
                            attempt += 1;
                            end = start.saturating_add(dur);
                            lanes.reserve(xy, k, end);
                            makespan[k] = makespan[k].max(end);
                            next = fate(Some(plan), &mut rng, attempt, end, rep);
                        }
                        Fate::Lost => break,
                        Fate::Delivered { dup } => {
                            let arrival = &mut lanes.node_arrival[msg.dst][k];
                            *arrival = (*arrival).max(end);
                            if dup {
                                makespan[k] = makespan[k].max(lanes.duplicate(xy, k, end, dur));
                            }
                            break;
                        }
                    }
                }
                state[k] = rng.state();
            }
        }
        for ((rep, &m), &d) in reps.iter_mut().zip(&makespan).zip(&delivered) {
            rep.makespan = m;
            rep.delivered += d as usize;
        }
    }
}

/// The lanes whose bits are set in `mask`, lowest first.
#[inline(always)]
fn lanes_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            k
        })
    })
}

/// The committed clock after a phase whose step reported `makespan`,
/// from the committed clock `now` before it.
#[inline]
fn phase_end(release: Release, now: u64, makespan: u64) -> u64 {
    match release {
        Release::PerPhase => now.saturating_add(makespan),
        _ => now.max(makespan),
    }
}

/// What follows one transmission attempt (see [`fate`]).
enum Fate {
    /// Lost on the wire; retransmit at this time.
    Retry(u64),
    /// Lost for good (retries disabled).
    Lost,
    /// Delivered; `dup` when a duplicate follows back to back on the
    /// same route.
    Delivered { dup: bool },
}

/// The fault rule of one transmission attempt, the `attempt`-th of its
/// message, that ended at `end`: count it, draw whether it is dropped
/// (then [`dropped_attempt`]), and deliver it (then [`delivery`]). Both
/// the scalar step and the lane path use these rules, so they share the
/// RNG draw order. Without a plan every attempt delivers and nothing is
/// drawn.
#[inline]
fn fate(
    plan: Option<&FaultPlan>,
    rng: &mut XorShift64,
    attempt: u32,
    end: u64,
    rep: &mut FaultReport,
) -> Fate {
    rep.attempts += 1;
    match plan {
        Some(p) if rng.chance(p.drop_prob) => dropped_attempt(p, rng, attempt, end, rep),
        _ => delivery(plan, rng, rep),
    }
}

/// What follows a dropped attempt: retry after timeout × backoff, lose
/// the message with retries off, or escalate it at `max_attempts` (a
/// delivery).
#[inline]
fn dropped_attempt(
    p: &FaultPlan,
    rng: &mut XorShift64,
    attempt: u32,
    end: u64,
    rep: &mut FaultReport,
) -> Fate {
    if p.retry.enabled && attempt >= p.retry.max_attempts.max(1) {
        rep.escalations += 1;
        return delivery(Some(p), rng, rep);
    }
    if !p.retry.enabled {
        rep.lost += 1;
        return Fate::Lost;
    }
    rep.retries += 1;
    Fate::Retry(end.saturating_add(p.retry.backoff_delay(attempt)))
}

/// A delivery: count it and draw whether a duplicate follows.
#[inline]
fn delivery(plan: Option<&FaultPlan>, rng: &mut XorShift64, rep: &mut FaultReport) -> Fate {
    rep.delivered += 1;
    let dup = plan.is_some_and(|p| rng.chance(p.dup_prob));
    if dup {
        rep.duplicates += 1;
        rep.attempts += 1;
    }
    Fate::Delivered { dup }
}

/// Earliest return among the links of `links` that are inside an outage
/// window at `start`.
#[inline]
fn scan_outages(links: &[u32], start: u64, plan: &CompiledFaultPlan) -> Option<u64> {
    links
        .iter()
        .filter_map(|&l| plan.link_outage_until(l as usize, start))
        .min()
}

/// Fold one raw phase for the first `k` unique deaths and compile it,
/// returning the dropped (no-survivor) message count.
fn compile_folded(
    mesh: &Mesh2D,
    plan: &CompiledFaultPlan,
    raw: &[PMsg],
    k: usize,
) -> (CachedPhase, usize) {
    let mut folded = Vec::with_capacity(raw.len());
    for m in raw {
        if let (Some(src), Some(dst)) = (plan.fold_lookup(k, m.src), plan.fold_lookup(k, m.dst)) {
            folded.push(PMsg { src, dst, ..*m });
        }
    }
    let mut c = CachedPhase::default();
    c.compile(mesh, &folded, true);
    (c, raw.len() - folded.len())
}

/// When and how often a recovering run takes checkpoints, and how many
/// it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every `interval` phases (clamped to ≥ 1). Small
    /// intervals bound lost work; large ones bound overhead.
    pub interval: usize,
    /// Number of recent checkpoints retained (clamped to ≥ 1). The ring
    /// must reach back past the failure detector's latency, or a rollback
    /// falls back to the oldest surviving snapshot and loses more work.
    pub ring: usize,
    /// Simulated cost of writing one checkpoint, in ns. Accounted in
    /// [`crate::RecoveryReport::checkpoint_overhead_ns`], *not* in the
    /// makespan — zero-death runs stay bit-identical to the unfaulted
    /// scheduler.
    pub cost_ns: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            interval: 4,
            ring: 8,
            cost_ns: 25_000, // ≈ one message start-up per snapshot
        }
    }
}

/// A phase compiled for the transport step (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct CachedPhase {
    /// The scheduled (non-local) messages, in schedule order.
    msgs: Vec<PMsg>,
    /// Concatenated XY route links; message `i` owns
    /// `links[off[i]..off[i + 1]]`.
    links: Vec<u32>,
    off: Vec<u32>,
    /// YX detours, laid out like `links`; empty unless compiled for a
    /// fault plan.
    yx_links: Vec<u32>,
    yx_off: Vec<u32>,
}

impl CachedPhase {
    /// Compile `msgs` for `mesh`: filter self-messages, sort, and record
    /// every route once.
    pub fn new(mesh: &Mesh2D, msgs: &[PMsg]) -> Self {
        let mut c = CachedPhase::default();
        c.compile(mesh, msgs, false);
        c
    }

    /// Recompile in place, reusing the buffers; `detours` also records
    /// the YX routes.
    fn compile(&mut self, mesh: &Mesh2D, msgs: &[PMsg], detours: bool) {
        self.msgs.clear();
        self.msgs.reserve(msgs.len());
        self.msgs
            .extend(msgs.iter().copied().filter(|m| m.src != m.dst));
        // `PMsg` has a total order, so unstable sorting is observationally
        // identical to the oracle's stable sort.
        self.msgs.sort_unstable();
        self.links.clear();
        self.off.clear();
        self.off.reserve(self.msgs.len() + 1);
        self.off.push(0);
        self.yx_links.clear();
        self.yx_off.clear();
        if detours {
            self.yx_off.push(0);
        }
        for m in &self.msgs {
            mesh.extend_route(m.src, m.dst, false, &mut self.links);
            self.off.push(self.links.len() as u32);
            if detours {
                mesh.extend_route(m.src, m.dst, true, &mut self.yx_links);
                self.yx_off.push(self.yx_links.len() as u32);
            }
        }
    }

    /// Number of scheduled (non-local) messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when no message crosses a link.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    #[inline]
    fn xy(&self, i: usize) -> &[u32] {
        &self.links[self.off[i] as usize..self.off[i + 1] as usize]
    }

    #[inline]
    fn yx(&self, i: usize) -> &[u32] {
        &self.yx_links[self.yx_off[i] as usize..self.yx_off[i + 1] as usize]
    }
}

/// The compiled fault engine: one phase set, one fault plan, many seeds.
/// Compiles every phase (with YX detours when the plan has link
/// outages, the only faults that read them) and the plan once, then
/// replays the whole run per seed with no routing or sorting work. Every
/// replay equals [`crate::reference::simulate`] with the seed
/// substituted into the plan.
#[derive(Debug, Clone)]
pub struct FaultSim {
    sim: PhaseSim,
    plan: CompiledFaultPlan,
    phases: Vec<Vec<PMsg>>,
    cached: Vec<CachedPhase>,
    /// Whether `cached` records the YX detours.
    detours: bool,
    /// Survivor folds depend only on the plan's death order, never on
    /// the seed, so they are reused across replications.
    folds: Folds,
    /// Healthy overlapped clock after every phase — the adaptive
    /// policy's baseline. Plan-independent, so it survives
    /// [`FaultSim::set_plan`].
    healthy: Option<Vec<u64>>,
}

impl FaultSim {
    /// Compile `phases` and `plan` for `mesh`.
    pub fn new(mesh: &Mesh2D, phases: &[Vec<PMsg>], plan: &FaultPlan) -> Self {
        let plan = CompiledFaultPlan::new(plan, mesh);
        let detours = plan.has_link_outages();
        let cached = phases
            .iter()
            .map(|p| {
                let mut c = CachedPhase::default();
                c.compile(mesh, p, detours);
                c
            })
            .collect();
        FaultSim {
            sim: PhaseSim::new(mesh.clone()),
            plan,
            phases: phases.to_vec(),
            cached,
            detours,
            folds: Folds::new(),
            healthy: None,
        }
    }

    /// Swap the fault plan, keeping the compiled phases — the sweep fast
    /// path for evaluating one workload under many plans. The first plan
    /// with link outages on an engine compiled without YX detours
    /// recompiles the phases with them.
    pub fn set_plan(&mut self, plan: &FaultPlan) {
        self.plan = CompiledFaultPlan::new(plan, self.sim.mesh());
        self.folds.clear();
        if self.plan.has_link_outages() && !self.detours {
            for (c, p) in self.cached.iter_mut().zip(&self.phases) {
                c.compile(&self.sim.mesh, p, true);
            }
            self.detours = true;
        }
    }

    /// Replay one faulty run per seed under `sched`, each with its seed
    /// substituted for the plan's; traffic to or from a permanently dead
    /// node is black-holed. The compile cost is paid once, before the
    /// first seed; a single run is a one-seed slice.
    ///
    /// When every seed would visit the same messages in the same order,
    /// up to [`LANES`] seeds advance together through one pass (the lane
    /// path): the plan has no link or node outages and no deaths, and
    /// `sched` is [`SchedulePolicy::Fixed`] with [`ScheduleMode::Phased`]
    /// or [`OverlapOrder::Sorted`]. A group of one seed (a lone seed, or
    /// the last of a batch one past a multiple of [`LANES`]) takes the
    /// scalar step instead, which is faster for one seed, as does every
    /// seed of a plan or schedule the lanes cannot take. Either way
    /// report `k` equals [`crate::reference::simulate`] at `seeds[k]` bit
    /// for bit: each lane draws from its own seed's RNG streams through
    /// the same fault rule.
    pub fn replay_faulty(&mut self, seeds: &[u64], sched: SchedulePolicy) -> Vec<FaultReport> {
        let lanes = self.lane_mode(sched);
        seeds
            .chunks(LANES)
            .flat_map(|group| match lanes {
                Some(mode) if group.len() > 1 => {
                    self.sim
                        .drive_lanes(&self.cached, self.plan.plan(), group, mode)
                }
                _ => group.iter().map(|&s| self.run(s, sched, None)).collect(),
            })
            .collect()
    }

    /// The mode of the lane path of [`FaultSim::replay_faulty`], when
    /// the plan's only faults are drops and duplicates and `sched` fixes
    /// a seed-independent processing order.
    fn lane_mode(&self, sched: SchedulePolicy) -> Option<ScheduleMode> {
        let transport_only = !self.plan.has_link_outages() && !self.plan.check_nodes(true);
        match sched {
            SchedulePolicy::Fixed(ScheduleMode::Overlapped(OverlapOrder::LongestFirst))
            | SchedulePolicy::Adaptive { .. } => None,
            SchedulePolicy::Fixed(mode) => transport_only.then_some(mode),
        }
    }

    /// Replay one checkpoint/rollback run per seed under `sched`, each
    /// with its seed substituted for the plan's: a death detected at
    /// `t + detection_latency` rolls back to the newest checkpoint at or
    /// before it, folds the dead node's traffic onto its nearest survivor
    /// ([`crate::fold_target`]) and replays. A report describes the
    /// committed run; undone work and checkpoint costs land in
    /// [`crate::RecoveryReport`]. Folded phases are compiled on the first
    /// seed that needs them and reused by the rest.
    pub fn replay_recovering(
        &mut self,
        policy: &CheckpointPolicy,
        seeds: &[u64],
        sched: SchedulePolicy,
    ) -> Vec<FaultReport> {
        seeds
            .iter()
            .map(|&s| self.run(s, sched, Some(policy)))
            .collect()
    }

    fn run(
        &mut self,
        seed: u64,
        sched: SchedulePolicy,
        ckpt: Option<&CheckpointPolicy>,
    ) -> FaultReport {
        let (mode, threshold) = match sched {
            SchedulePolicy::Fixed(mode) => (mode, None),
            SchedulePolicy::Adaptive {
                inflation_threshold,
            } => (ScheduleMode::overlapped(), Some(inflation_threshold)),
        };
        if threshold.is_some() && self.healthy.is_none() {
            let mut clocks = Clocks(vec![0; self.cached.len()]);
            let healthy = Run::healthy(mode, 1);
            self.sim
                .drive(Phases::Compiled(&self.cached), healthy, &mut clocks);
            self.healthy = Some(clocks.0);
        }
        let phases = match ckpt {
            None => Phases::Compiled(&self.cached),
            Some(_) => Phases::Folding(&self.cached, &self.phases, &mut self.folds),
        };
        let run = Run {
            faults: Some(&self.plan),
            seed,
            mode,
            adapt: threshold.zip(self.healthy.as_deref()),
            ckpt,
            byte_scale: 1,
        };
        self.sim.drive(phases, run, &mut ())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use crate::reference;

    /// A phased faulty run on the engine, checked against the oracle.
    fn faulty_run(m: &Mesh2D, phases: &[Vec<PMsg>], plan: &FaultPlan) -> FaultReport {
        let sched = SchedulePolicy::default();
        let rep = FaultSim::new(m, phases, plan).replay_faulty(&[plan.seed], sched)[0];
        assert_eq!(rep, reference::simulate(m, phases, plan, sched, None));
        rep
    }

    /// One faulty phase.
    fn faulty(m: &Mesh2D, msgs: &[PMsg], plan: &FaultPlan) -> FaultReport {
        faulty_run(m, &[msgs.to_vec()], plan)
    }

    /// A phased recovering run on the engine, checked against the oracle.
    fn recovering(
        m: &Mesh2D,
        phases: &[Vec<PMsg>],
        plan: &FaultPlan,
        policy: &CheckpointPolicy,
    ) -> FaultReport {
        let sched = SchedulePolicy::default();
        let rep = FaultSim::new(m, phases, plan).replay_recovering(policy, &[plan.seed], sched)[0];
        assert_eq!(
            rep,
            reference::simulate(m, phases, plan, sched, Some(policy))
        );
        rep
    }

    fn mesh(px: usize, py: usize) -> Mesh2D {
        Mesh2D::new(px, py, CostModel::paragon())
    }

    fn pm(src: usize, dst: usize, bytes: u64) -> PMsg {
        PMsg { src, dst, bytes }
    }

    fn mixed_phase(mesh: &Mesh2D, n: usize, seed: u64) -> Vec<PMsg> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                PMsg {
                    src: (h % mesh.nodes() as u64) as usize,
                    dst: ((h >> 17) % mesh.nodes() as u64) as usize,
                    bytes: 1 + (h >> 40) % 1000,
                }
            })
            .collect()
    }

    #[test]
    fn saturating_clocks_still_match_the_oracles() {
        // Sizes whose transfer time alone passes `u64::MAX`: every clock
        // saturates instead of wrapping, the engine still equals both
        // oracles, and the makespan only grows with the size.
        let m = mesh(4, 4);
        let mut last = 0;
        for bytes in [1 << 20, u64::MAX / 6, u64::MAX / 2, u64::MAX] {
            let phases: Vec<Vec<PMsg>> = (0..3)
                .map(|k| {
                    let mut p = mixed_phase(&m, 12, k);
                    p.iter_mut().for_each(|msg| msg.bytes = bytes);
                    p
                })
                .collect();
            let healthy =
                PhaseSim::new(m.clone()).simulate_phases_mode(&phases, ScheduleMode::Phased);
            assert_eq!(healthy, m.simulate_phases(&phases), "{bytes}");
            assert!(healthy >= last, "{bytes}: {healthy} < {last}");
            last = healthy;
            let plan = FaultPlan {
                seed: 5,
                drop_prob: 0.3,
                dup_prob: 0.1,
                ..FaultPlan::none()
            };
            let rep = faulty_run(&m, &phases, &plan);
            let seeds = [plan.seed, 9, 11];
            let lanes =
                FaultSim::new(&m, &phases, &plan).replay_faulty(&seeds, SchedulePolicy::default());
            assert_eq!(lanes[0], rep, "{bytes}");
        }
        assert_eq!(last, u64::MAX);
    }

    #[test]
    fn matches_oracle_across_reuses() {
        let m = mesh(8, 4);
        let mut sim = PhaseSim::new(m.clone());
        for seed in 0..20 {
            let msgs = mixed_phase(&m, 3 * seed as usize, seed);
            assert_eq!(
                sim.simulate_phase(&msgs),
                m.simulate_phase(&msgs),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_degenerate_phases() {
        let m = mesh(4, 4);
        let mut sim = PhaseSim::new(m.clone());
        assert_eq!(sim.simulate_phase(&[]), 0);
        let local = [PMsg {
            src: 3,
            dst: 3,
            bytes: 999,
        }];
        assert_eq!(sim.simulate_phase(&local), 0);
        // A phase after an empty phase still schedules correctly.
        let msgs = mixed_phase(&m, 12, 7);
        assert_eq!(sim.simulate_phase(&msgs), m.simulate_phase(&msgs));
    }

    #[test]
    fn phases_sum_like_mesh() {
        let m = mesh(4, 2);
        let phases: Vec<Vec<PMsg>> = (0..5).map(|s| mixed_phase(&m, 6, s)).collect();
        let mut sim = PhaseSim::new(m.clone());
        assert_eq!(
            sim.simulate_phases_mode(&phases, ScheduleMode::Phased),
            m.simulate_phases(&phases)
        );
    }

    #[test]
    fn cached_phase_replays_identically() {
        let m = mesh(8, 4);
        let msgs = mixed_phase(&m, 40, 3);
        let cached = CachedPhase::new(&m, &msgs);
        let mut sim = PhaseSim::new(m.clone());
        let one = std::slice::from_ref(&cached);
        assert_eq!(
            sim.run_cached_phases(one, ScheduleMode::Phased, 1),
            m.simulate_phase(&msgs)
        );
        // Scaled replay equals simulating the scaled message set.
        let scaled: Vec<PMsg> = msgs
            .iter()
            .map(|x| PMsg {
                bytes: x.bytes * 16,
                ..*x
            })
            .collect();
        assert_eq!(
            sim.run_cached_phases(one, ScheduleMode::Phased, 16),
            m.simulate_phase(&scaled)
        );
        assert_eq!(
            cached.len(),
            scaled.iter().filter(|x| x.src != x.dst).count()
        );
    }

    #[test]
    fn batch_matches_serial() {
        let m = mesh(8, 4);
        let phases: Vec<Vec<PMsg>> = (0..9)
            .map(|s| mixed_phase(&m, 10 + s as usize, s))
            .collect();
        let serial: Vec<u64> = phases.iter().map(|p| m.simulate_phase(p)).collect();
        for threads in [1, 4] {
            let (batch, _) = crate::pool::sweep(
                &phases,
                threads,
                || PhaseSim::new(m.clone()),
                |sim, phase| sim.simulate_phase(phase),
            );
            assert_eq!(batch, serial);
        }
    }

    #[test]
    fn zero_fault_plan_matches_fast_path_bit_for_bit() {
        let m = mesh(8, 4);
        let plan = crate::FaultPlan::none();
        for seed in 0..10 {
            let msgs = mixed_phase(&m, 4 * seed as usize, seed);
            let rep = faulty(&m, &msgs, &plan);
            assert_eq!(rep.makespan, m.simulate_phase(&msgs), "seed {seed}");
            assert_eq!(rep.delivered, rep.messages);
            assert_eq!(rep.lost, 0);
            assert_eq!(
                rep.retries + rep.duplicates + rep.reroutes + rep.deferrals,
                0
            );
        }
    }

    #[test]
    fn total_drop_with_retry_still_delivers_everything() {
        let m = mesh(8, 4);
        let plan = crate::FaultPlan::with_drop(7, 1.0);
        let msgs = mixed_phase(&m, 20, 3);
        let rep = faulty(&m, &msgs, &plan);
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.escalations as usize, rep.messages);
        assert!(rep.retries > 0);
        assert!(rep.makespan >= m.simulate_phase(&msgs));
    }

    #[test]
    fn total_drop_without_retry_loses_everything() {
        let m = mesh(8, 4);
        let plan = crate::FaultPlan {
            retry: crate::RetryPolicy::disabled(),
            ..crate::FaultPlan::with_drop(7, 1.0)
        };
        let msgs = mixed_phase(&m, 20, 3);
        let rep = faulty(&m, &msgs, &plan);
        assert_eq!(rep.delivered, 0);
        assert_eq!(rep.lost, rep.messages);
        assert_eq!(rep.delivered_fraction(), 0.0);
        assert_eq!(rep.attempts as usize, rep.messages);
    }

    #[test]
    fn faulty_schedule_is_deterministic_per_seed() {
        let m = mesh(8, 4);
        let plan = crate::FaultPlan {
            dup_prob: 0.2,
            ..crate::FaultPlan::with_drop(99, 0.3)
        };
        let msgs = mixed_phase(&m, 30, 5);
        let a = faulty(&m, &msgs, &plan);
        let b = faulty(&m, &msgs, &plan);
        assert_eq!(a, b, "same plan must replay identically");
        let other = crate::FaultPlan {
            seed: 100,
            ..plan.clone()
        };
        let c = faulty(&m, &msgs, &other);
        assert!(
            a != c || a.attempts == a.messages as u64,
            "different seeds should draw different fault sequences"
        );
    }

    #[test]
    fn dead_link_triggers_yx_reroute() {
        let m = mesh(4, 4);
        let msg = [PMsg {
            src: m.node_id(0, 0),
            dst: m.node_id(3, 2),
            bytes: 64,
        }];
        // Kill the first XY link (rightward out of (0,0)) forever-ish.
        let mut plan = crate::FaultPlan::none();
        plan.link_outages.push(crate::LinkOutage {
            link: m.h_link(0, 0, true).index(),
            from: 0,
            until: u64::MAX / 2,
        });
        let rep = faulty(&m, &msg, &plan);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.reroutes, 1);
        assert_eq!(rep.deferrals, 0);
        // Same hop count on the YX route: same cost as the healthy run.
        assert_eq!(rep.makespan, m.simulate_phase(&msg));
    }

    #[test]
    fn dead_link_on_both_routes_defers_to_window_end() {
        let m = mesh(4, 1); // 1-D mesh: no YX escape route.
        let msg = [PMsg {
            src: 0,
            dst: 3,
            bytes: 64,
        }];
        let mut plan = crate::FaultPlan::none();
        plan.link_outages.push(crate::LinkOutage {
            link: m.h_link(1, 0, true).index(),
            from: 0,
            until: 5_000_000,
        });
        let rep = faulty(&m, &msg, &plan);
        assert_eq!(rep.delivered, 1);
        assert!(rep.deferrals > 0);
        assert_eq!(rep.makespan, 5_000_000 + m.simulate_phase(&msg));
    }

    #[test]
    fn dead_node_defers_the_send() {
        let m = mesh(4, 4);
        let msg = [PMsg {
            src: 0,
            dst: 5,
            bytes: 64,
        }];
        let mut plan = crate::FaultPlan::none();
        plan.node_outages.push(crate::NodeOutage {
            node: 0,
            from: 0,
            until: 1_000_000,
        });
        let rep = faulty(&m, &msg, &plan);
        assert_eq!(rep.delivered, 1);
        assert!(rep.deferrals > 0);
        assert_eq!(rep.makespan, 1_000_000 + m.simulate_phase(&msg));
    }

    #[test]
    fn certain_duplication_doubles_attempts_not_deliveries() {
        let m = mesh(8, 4);
        let plan = crate::FaultPlan {
            dup_prob: 1.0,
            ..crate::FaultPlan::none()
        };
        let msgs = mixed_phase(&m, 20, 11);
        let rep = faulty(&m, &msgs, &plan);
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.duplicates as usize, rep.messages);
        assert_eq!(rep.attempts as usize, 2 * rep.messages);
        assert!(rep.makespan >= m.simulate_phase(&msgs));
    }

    #[test]
    fn multi_phase_faulty_reports_sum_and_replay() {
        let m = mesh(8, 4);
        let phases: Vec<Vec<PMsg>> = (0..4).map(|s| mixed_phase(&m, 10, s)).collect();
        let plan = crate::FaultPlan::with_drop(5, 0.4);
        let a = faulty_run(&m, &phases, &plan);
        let b = faulty_run(&m, &phases, &plan);
        assert_eq!(a, b);
        assert_eq!(a.delivered, a.messages, "retry must deliver everything");
        // Zero-fault multi-phase equals the unfaulted total.
        let rep = faulty_run(&m, &phases, &crate::FaultPlan::none());
        assert_eq!(rep.makespan, m.simulate_phases(&phases));
    }

    #[test]
    fn dead_endpoint_black_holes_without_recovery() {
        let m = mesh(4, 4);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath { node: 5, t: 0 });
        let msgs = [
            PMsg {
                src: 0,
                dst: 5,
                bytes: 64,
            },
            PMsg {
                src: 2,
                dst: 3,
                bytes: 64,
            },
        ];
        let rep = faulty(&m, &msgs, &plan);
        assert_eq!(rep.messages, 2);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.lost, 1);
        assert_eq!(rep.black_holes, 1);
    }

    #[test]
    fn zero_death_recovery_bit_identical() {
        let m = mesh(8, 4);
        let phases: Vec<Vec<PMsg>> = (0..10).map(|s| mixed_phase(&m, 12, s)).collect();
        let policy = CheckpointPolicy::default();
        let rep = recovering(&m, &phases, &crate::FaultPlan::none(), &policy);
        assert_eq!(rep.makespan, m.simulate_phases(&phases));
        assert_eq!(rep.recovery.rollbacks, 0);
        assert_eq!(rep.recovery.lost_work_ns, 0);
        assert!(rep.recovery.checkpoints > 0);
        assert!(rep.wall_clock_ns() > rep.makespan, "overhead is accounted");
        // Transport faults without deaths: same as the faulty run.
        let plan = crate::FaultPlan::with_drop(3, 0.2);
        let a = recovering(&m, &phases, &plan, &policy);
        let b = faulty_run(&m, &phases, &plan);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn death_mid_run_is_recovered() {
        let m = mesh(4, 4);
        let phases: Vec<Vec<PMsg>> = (0..12).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 5,
            t: healthy / 2,
        });
        plan.detection_latency = 10_000;
        let rep = recovering(&m, &phases, &plan, &CheckpointPolicy::default());
        assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        assert_eq!(rep.recovery.deaths, 1);
        assert_eq!(rep.recovery.rollbacks, 1);
        assert_eq!(rep.recovery.folded_nodes, 1);
        assert!(rep.recovery.lost_work_ns > 0);
        assert!(rep.recovery.replayed_phases > 0);
        // Exactly-once on the committed run, with no black holes: every
        // message was folded onto a survivor before the replay.
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.black_holes, 0);
        // Determinism: the identical plan replays bit-for-bit.
        let again = recovering(&m, &phases, &plan, &CheckpointPolicy::default());
        assert_eq!(rep, again);
    }

    #[test]
    fn death_near_end_detected_by_final_sweep() {
        let m = mesh(4, 4);
        let phases: Vec<Vec<PMsg>> = (0..6).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        // Death just before the end, detection latency far past it: only
        // the end-of-run sweep can catch this one.
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 9,
            t: healthy.saturating_sub(1),
        });
        plan.detection_latency = u64::MAX / 2;
        let rep = recovering(&m, &phases, &plan, &CheckpointPolicy::default());
        assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        assert_eq!(rep.delivered, rep.messages);
    }

    #[test]
    fn tiny_ring_still_recovers_with_more_lost_work() {
        let m = mesh(4, 4);
        let phases: Vec<Vec<PMsg>> = (0..16).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 2,
            t: healthy / 4,
        });
        // Detection long after the death: a deep ring can roll back to
        // just before the death; a 1-deep ring must fall back to its only
        // (more recent... or evicted-to-oldest) snapshot.
        plan.detection_latency = healthy / 2;
        let deep = CheckpointPolicy {
            interval: 1,
            ring: 64,
            cost_ns: 0,
        };
        let shallow = CheckpointPolicy {
            interval: 1,
            ring: 1,
            cost_ns: 0,
        };
        let a = recovering(&m, &phases, &plan, &deep);
        let b = recovering(&m, &phases, &plan, &shallow);
        assert!(a.recovery.all_recovered());
        assert!(b.recovery.all_recovered());
        // With ring=1 the only snapshot is the most recent boundary,
        // which is *after* the death — the replay restarts there anyway
        // (best effort) and both runs still deliver everything.
        assert_eq!(a.delivered, a.messages);
        assert_eq!(b.delivered, b.messages);
    }

    #[test]
    fn checkpoint_interval_trades_overhead_for_lost_work() {
        let m = mesh(4, 4);
        let phases: Vec<Vec<PMsg>> = (0..24).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 6,
            t: healthy / 2,
        });
        let fine = CheckpointPolicy {
            interval: 1,
            ring: 64,
            cost_ns: 25_000,
        };
        let coarse = CheckpointPolicy {
            interval: 12,
            ring: 64,
            cost_ns: 25_000,
        };
        let a = recovering(&m, &phases, &plan, &fine);
        let b = recovering(&m, &phases, &plan, &coarse);
        assert!(a.recovery.checkpoints > b.recovery.checkpoints);
        assert!(a.recovery.checkpoint_overhead_ns > b.recovery.checkpoint_overhead_ns);
        assert!(
            a.recovery.lost_work_ns <= b.recovery.lost_work_ns,
            "finer checkpoints cannot lose more work: {} vs {}",
            a.recovery.lost_work_ns,
            b.recovery.lost_work_ns
        );
    }

    #[test]
    fn two_deaths_fold_onto_survivors() {
        let m = mesh(4, 4);
        let phases: Vec<Vec<PMsg>> = (0..12).map(|s| mixed_phase(&m, 12, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::none();
        plan.node_deaths.push(crate::NodeDeath {
            node: 5,
            t: healthy / 4,
        });
        plan.node_deaths.push(crate::NodeDeath {
            node: 10,
            t: healthy / 2,
        });
        let rep = recovering(&m, &phases, &plan, &CheckpointPolicy::default());
        assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        assert_eq!(rep.recovery.deaths, 2);
        assert_eq!(rep.recovery.folded_nodes, 2);
        assert!(rep.recovery.rollbacks >= 2);
        assert_eq!(rep.delivered, rep.messages);
        assert_eq!(rep.black_holes, 0);
    }

    #[test]
    fn duplicate_retransmit_reuses_scanned_route() {
        // dup_prob = 1: the duplicate goes out back to back on the same
        // route, so the makespan is exactly two transmissions. Pins the
        // fixed duplicate branch (no second route scan — the links were
        // just reserved to `end`, so the retransmission starts there).
        let m = mesh(4, 1);
        let msg = [PMsg {
            src: 0,
            dst: 3,
            bytes: 64,
        }];
        let plan = crate::FaultPlan {
            dup_prob: 1.0,
            ..crate::FaultPlan::none()
        };
        let rep = faulty(&m, &msg, &plan);
        assert_eq!(rep.makespan, 2 * m.cost.p2p(3, 64));
        assert_eq!(rep.duplicates, 1);
        assert_eq!(rep.attempts, 2);
    }

    #[test]
    fn compiled_faulty_replay_matches_oracle() {
        let m = mesh(8, 4);
        let phases: Vec<Vec<PMsg>> = (0..5).map(|s| mixed_phase(&m, 25, s)).collect();
        // Outages on both routes of some messages, a node window, a
        // death, drops and duplicates: every transport branch is live.
        let mut plan = crate::FaultPlan {
            dup_prob: 0.1,
            ..crate::FaultPlan::with_drop(21, 0.3)
        };
        plan.link_outages.push(crate::LinkOutage {
            link: m.h_link(2, 1, true).index(),
            from: 0,
            until: 300_000,
        });
        plan.link_outages.push(crate::LinkOutage {
            link: m.v_link(4, 0, false).index(),
            from: 50_000,
            until: 400_000,
        });
        plan.node_outages.push(crate::NodeOutage {
            node: 9,
            from: 0,
            until: 200_000,
        });
        plan.node_deaths.push(crate::NodeDeath {
            node: 17,
            t: 100_000,
        });
        let mut engine = FaultSim::new(&m, &phases, &plan);
        for seed in [plan.seed, 0, 7, 123_456] {
            let seeded = crate::FaultPlan {
                seed,
                ..plan.clone()
            };
            assert_eq!(
                engine.replay_faulty(&[seed], SchedulePolicy::default())[0],
                reference::simulate(&m, &phases, &seeded, SchedulePolicy::default(), None),
                "seed {seed}"
            );
        }
        let seeds = [3u64, 3, 99];
        let batch = engine.replay_faulty(&seeds, SchedulePolicy::default());
        assert_eq!(batch[0], batch[1], "same seed replays identically");
        // Phase `i` draws from stream `seed + i`: the phased run is the
        // sum of single-phase runs at those seeds.
        let mut summed = FaultReport::default();
        for (i, p) in phases.iter().enumerate() {
            let mut one = FaultSim::new(&m, std::slice::from_ref(p), &plan);
            let seed = plan.seed.wrapping_add(i as u64);
            summed.absorb(&one.replay_faulty(&[seed], SchedulePolicy::default())[0]);
        }
        assert_eq!(
            summed,
            engine.replay_faulty(&[plan.seed], SchedulePolicy::default())[0]
        );
    }

    #[test]
    fn compiled_recovering_replay_matches_oracle() {
        let m = mesh(4, 4);
        let phases: Vec<Vec<PMsg>> = (0..12).map(|s| mixed_phase(&m, 10, s)).collect();
        let healthy = m.simulate_phases(&phases);
        let mut plan = crate::FaultPlan::with_drop(5, 0.15);
        plan.node_deaths.push(crate::NodeDeath {
            node: 5,
            t: healthy / 4,
        });
        plan.node_deaths.push(crate::NodeDeath {
            node: 10,
            t: healthy / 2,
        });
        plan.detection_latency = 10_000;
        let policy = CheckpointPolicy {
            interval: 2,
            ring: 4,
            cost_ns: 25_000,
        };
        let mut engine = FaultSim::new(&m, &phases, &plan);
        for seed in [plan.seed, 0, 41] {
            let seeded = crate::FaultPlan {
                seed,
                ..plan.clone()
            };
            assert_eq!(
                engine.replay_recovering(&policy, &[seed], SchedulePolicy::default())[0],
                reference::simulate(
                    &m,
                    &phases,
                    &seeded,
                    SchedulePolicy::default(),
                    Some(&policy)
                ),
                "seed {seed}"
            );
        }
        // The batch API reuses folded-phase compilations across seeds.
        let seeds = [9u64, 9, 2];
        let batch = engine.replay_recovering(&policy, &seeds, SchedulePolicy::default());
        assert_eq!(batch[0], batch[1]);
        assert!(batch.iter().all(|r| r.recovery.all_recovered()));
        // Swapping the plan recompiles: a death-free plan through the
        // same engine matches the unfaulted scheduler.
        engine.set_plan(&crate::FaultPlan::none());
        let zero = engine.replay_recovering(
            &CheckpointPolicy::default(),
            &[0],
            SchedulePolicy::default(),
        )[0];
        assert_eq!(zero.makespan, healthy);
        assert_eq!(zero.recovery.rollbacks, 0);
    }

    #[test]
    fn set_plan_compiles_detours_when_link_outages_arrive() {
        let m = mesh(8, 4);
        let phases: Vec<Vec<PMsg>> = (0..4).map(|s| mixed_phase(&m, 20, s)).collect();
        let drop_only = crate::FaultPlan {
            dup_prob: 0.1,
            ..crate::FaultPlan::with_drop(3, 0.2)
        };
        let mut outages = drop_only.clone();
        for (x, y) in [(1, 0), (3, 2), (5, 1)] {
            outages.link_outages.push(crate::LinkOutage {
                link: m.h_link(x, y, true).index(),
                from: 0,
                until: 400_000,
            });
        }
        let mut engine = FaultSim::new(&m, &phases, &drop_only);
        assert!(!engine.detours);
        for plan in [&outages, &drop_only, &outages] {
            engine.set_plan(plan);
            for sched in [SchedulePolicy::default(), SchedulePolicy::adaptive()] {
                for seed in [0, 1, 17, 123_456] {
                    let seeded = crate::FaultPlan {
                        seed,
                        ..plan.clone()
                    };
                    assert_eq!(
                        engine.replay_faulty(&[seed], sched)[0],
                        reference::simulate(&m, &phases, &seeded, sched, None),
                        "seed {seed} under {sched:?}"
                    );
                }
            }
        }
        assert!(engine.detours);
        let rerouted = engine.replay_faulty(&[0], SchedulePolicy::default())[0];
        assert!(rerouted.reroutes + rerouted.deferrals > 0, "{rerouted:?}");
    }

    /// Replay `seeds` in lane groups through the portable build or
    /// through the dispatching [`PhaseSim::drive_lanes`].
    fn lane_groups(
        engine: &mut FaultSim,
        seeds: &[u64],
        mode: ScheduleMode,
        portable: bool,
    ) -> Vec<FaultReport> {
        let mut out = Vec::new();
        for group in seeds.chunks(LANES) {
            let (phases, plan) = (&engine.cached, engine.plan.plan());
            out.extend(match portable {
                true => engine.sim.drive_lanes_portable(phases, plan, group, mode),
                false => engine.sim.drive_lanes(phases, plan, group, mode),
            });
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Both builds of the lane path (on a host without AVX-512 both
        /// calls run the portable one) equal the reference oracle seed by
        /// seed, at every batch size from 1 to two lane groups plus one,
        /// so groups of 1, 2, 16 and 17 seeds and three groups (33) are
        /// all covered; one-seed groups are driven through the lanes here
        /// although `replay_faulty` sends them to the scalar step.
        #[test]
        fn lane_builds_match_the_oracle(
            sizes in (0usize..33, 0usize..33, 0usize..33),
            base in 0u64..1_000_000,
            drop_raw in 0u32..121,
            dup_pct in 0u32..101,
            retry_kind in 0u32..3,
        ) {
            let m = mesh(8, 4);
            let phases: Vec<Vec<PMsg>> = [sizes.0, sizes.1, sizes.2]
                .iter()
                .enumerate()
                .map(|(i, &n)| mixed_phase(&m, n, base + i as u64))
                .collect();
            // 101..=110 pins drop 0 % and 111..=120 drop 100 %.
            let drop_pct = match drop_raw {
                0..=100 => drop_raw,
                101..=110 => 0,
                _ => 100,
            };
            let retry = match retry_kind {
                0 => crate::RetryPolicy::default(),
                1 => crate::RetryPolicy::disabled(),
                _ => crate::RetryPolicy {
                    max_attempts: 1,
                    ..crate::RetryPolicy::default()
                },
            };
            let plan = crate::FaultPlan {
                dup_prob: f64::from(dup_pct) / 100.0,
                retry,
                ..crate::FaultPlan::with_drop(base, f64::from(drop_pct) / 100.0)
            };
            let seeds: Vec<u64> = (0..2 * LANES as u64 + 1)
                .map(|r| crate::replication_seed(base, r))
                .collect();
            let mut engine = FaultSim::new(&m, &phases, &plan);
            for mode in [ScheduleMode::Phased, ScheduleMode::overlapped()] {
                let sched = SchedulePolicy::Fixed(mode);
                proptest::prop_assert_eq!(engine.lane_mode(sched), Some(mode));
                let want: Vec<FaultReport> = seeds
                    .iter()
                    .map(|&seed| {
                        let seeded = crate::FaultPlan { seed, ..plan.clone() };
                        reference::simulate(&m, &phases, &seeded, sched, None)
                    })
                    .collect();
                for n in 1..=seeds.len() {
                    for portable in [true, false] {
                        proptest::prop_assert_eq!(
                            lane_groups(&mut engine, &seeds[..n], mode, portable),
                            &want[..n],
                            "{} seeds under {:?}, portable {}", n, mode, portable
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn phased_calls_ignore_an_earlier_overlapped_frontier() {
        // An overlapped run leaves node readiness behind; a later phased
        // call on the same engine must release every message at 0.
        let m = mesh(4, 1);
        let mut sim = PhaseSim::new(m.clone());
        let chain = vec![vec![pm(0, 3, 1 << 20)], vec![pm(3, 0, 8)]];
        sim.simulate_phases_mode(&chain, ScheduleMode::overlapped());
        let back = [pm(3, 0, 8)];
        assert_eq!(sim.simulate_phase(&back), m.simulate_phase(&back));
        let phases = vec![back.to_vec()];
        assert_eq!(
            sim.simulate_phases_mode(&phases, ScheduleMode::Phased),
            m.simulate_phases(&phases)
        );
    }

    #[test]
    fn a_lone_seed_takes_the_scalar_step() {
        // One seed of a drop-only plan is a lane-path plan, but the scalar
        // step runs it: the lane scratch stays unsized. Two seeds size it.
        let m = mesh(8, 4);
        let phases: Vec<Vec<PMsg>> = (0..3).map(|s| mixed_phase(&m, 20, s)).collect();
        let plan = crate::FaultPlan::with_drop(11, 0.3);
        let sched = SchedulePolicy::default();
        let mut engine = FaultSim::new(&m, &phases, &plan);
        assert_eq!(engine.lane_mode(sched), Some(ScheduleMode::Phased));
        let one = engine.replay_faulty(&[plan.seed], sched);
        assert!(engine.sim.lanes.free.is_empty());
        assert_eq!(one, [reference::simulate(&m, &phases, &plan, sched, None)]);
        let two = engine.replay_faulty(&[plan.seed, plan.seed], sched);
        assert!(!engine.sim.lanes.free.is_empty());
        assert_eq!(two, [one[0], one[0]]);
    }

    fn msgs(nodes: usize) -> impl proptest::strategy::Strategy<Value = Vec<PMsg>> {
        use proptest::strategy::Strategy;
        proptest::collection::vec((0..nodes, 0..nodes, 1u64..512), 0..24)
            .prop_map(|v| v.into_iter().map(|(s, d, b)| pm(s, d, b)).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// Dependency safety, both orders: no message starts before every
        /// inflow of its source node from all earlier phases has arrived,
        /// and the reported makespan is exactly the last arrival.
        #[test]
        fn overlapped_dependency_safety(
            a in msgs(32), b in msgs(32), c in msgs(32), longest in 0u32..2,
        ) {
            let m = mesh(8, 4);
            let order = if longest == 1 { OverlapOrder::LongestFirst } else { OverlapOrder::Sorted };
            let mut sim = PhaseSim::new(m);
            let mut events: Vec<OverlapEvent> = Vec::new();
            let phases = vec![a, b, c];
            let makespan = sim.simulate_traced(&phases, ScheduleMode::Overlapped(order), &mut events);
            proptest::prop_assert_eq!(makespan, events.iter().map(|e| e.end).max().unwrap_or(0));
            for e in &events {
                // Inflows of the source node across *all* earlier phases —
                // readiness accumulates, it is not reset per phase.
                let inflow = events
                    .iter()
                    .filter(|p| p.phase < e.phase && p.msg.dst == e.msg.src)
                    .map(|p| p.end)
                    .max()
                    .unwrap_or(0);
                proptest::prop_assert!(e.ready >= inflow, "released at {} before inflow {}", e.ready, inflow);
                proptest::prop_assert!(e.start >= e.ready);
                proptest::prop_assert!(e.end > e.start);
            }
        }
    }

    #[test]
    fn epoch_reset_isolates_phases() {
        // A heavy phase must not leak reservations into the next one.
        let m = mesh(4, 1);
        let mut sim = PhaseSim::new(m.clone());
        let heavy = [PMsg {
            src: 0,
            dst: 3,
            bytes: 1 << 20,
        }];
        let light = [PMsg {
            src: 0,
            dst: 1,
            bytes: 1,
        }];
        sim.simulate_phase(&heavy);
        assert_eq!(sim.simulate_phase(&light), m.simulate_phase(&light));
    }
}
