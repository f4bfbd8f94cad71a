//! The simulation engine: one transport step and one run driver behind
//! every mesh schedule the workspace simulates.
//!
//! * [`CachedPhase`] is a phase compiled for the step: self-messages
//!   filtered, the rest sorted in [`PMsg`] order, every XY route
//!   flattened into one link table. [`FaultSim::new`] also records the
//!   YX detour of every message for rerouting around dead links.
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
use crate::rng::XorShift64;
use crate::FaultPlan;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Reusable scratch state for simulating mesh communication phases.
#[derive(Debug, Clone)]
pub struct PhaseSim {
    mesh: Mesh2D,
    /// Per-link reservation clock; a link whose stamp is not the current
    /// epoch is free.
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

    /// Simulate dependent phases back to back (each starts after the
    /// previous completes); returns the total time.
    pub fn simulate_phases(&mut self, phases: &[Vec<PMsg>]) -> u64 {
        self.simulate_phases_mode(phases, ScheduleMode::Phased)
    }

    /// Simulate `phases` under `mode` (see [`crate::overlap`] for the
    /// overlapped readiness rule and its ≤-phased guarantee).
    pub fn simulate_phases_mode(&mut self, phases: &[Vec<PMsg>], mode: ScheduleMode) -> u64 {
        self.simulate_traced(phases, mode, &mut ())
    }

    /// Overlapped makespan of `phases` plus every scheduled transmission
    /// in processing order.
    pub fn simulate_phases_overlapped_traced(
        &mut self,
        phases: &[Vec<PMsg>],
        order: OverlapOrder,
    ) -> (u64, Vec<OverlapEvent>) {
        let mut events = Vec::new();
        let makespan = self.simulate_traced(phases, ScheduleMode::Overlapped(order), &mut events);
        (makespan, events)
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
                phase_end = match release {
                    Release::PerPhase => now + rep.makespan,
                    _ => now.max(rep.makespan),
                };
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
                total.recovery.lost_work_ns += phase_end - c.now;
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
            let dur = cost.p2p(xy.len(), msg.bytes * run.byte_scale);
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
                    if alive == u64::MAX {
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
                rep.attempts += 1;
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
                if let Some(p) = plan {
                    let lost = rng.chance(p.drop_prob);
                    let forced = p.retry.enabled && attempt >= p.retry.max_attempts.max(1);
                    if lost && !forced {
                        if !p.retry.enabled {
                            rep.lost += 1;
                            break;
                        }
                        rep.retries += 1;
                        next_send = end.saturating_add(p.retry.backoff_delay(attempt));
                        continue;
                    }
                    if lost {
                        rep.escalations += 1;
                    }
                }
                rep.delivered += 1;
                self.node_arrival[dst] = self.node_arrival[dst].max(end);
                if plan.is_some_and(|p| rng.chance(p.dup_prob)) {
                    // The links were just reserved to `end`, so the copy
                    // goes out back to back on the same route.
                    rep.duplicates += 1;
                    rep.attempts += 1;
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
                break;
            }
        }
        rep
    }
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
/// Compiles every phase (with YX detours) and the plan once, then
/// replays the whole run per seed with no routing or sorting work. Every
/// replay equals [`crate::reference::simulate`] with the seed
/// substituted into the plan.
#[derive(Debug, Clone)]
pub struct FaultSim {
    sim: PhaseSim,
    plan: CompiledFaultPlan,
    phases: Vec<Vec<PMsg>>,
    cached: Vec<CachedPhase>,
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
        let cached = phases
            .iter()
            .map(|p| {
                let mut c = CachedPhase::default();
                c.compile(mesh, p, true);
                c
            })
            .collect();
        FaultSim {
            sim: PhaseSim::new(mesh.clone()),
            plan: CompiledFaultPlan::new(plan, mesh),
            phases: phases.to_vec(),
            cached,
            folds: Folds::new(),
            healthy: None,
        }
    }

    /// The simulated machine.
    pub fn mesh(&self) -> &Mesh2D {
        self.sim.mesh()
    }

    /// The current fault plan.
    pub fn plan(&self) -> &FaultPlan {
        self.plan.plan()
    }

    /// Swap the fault plan, keeping the (plan-independent) compiled
    /// phases — the sweep fast path for evaluating one workload under
    /// many plans.
    pub fn set_plan(&mut self, plan: &FaultPlan) {
        self.plan = CompiledFaultPlan::new(plan, self.sim.mesh());
        self.folds.clear();
    }

    /// Replay the whole run once with `seed` substituted for the plan's;
    /// traffic to or from a permanently dead node is black-holed.
    pub fn run_faulty(&mut self, seed: u64, sched: SchedulePolicy) -> FaultReport {
        self.run(seed, sched, None)
    }

    /// Replay one faulty run per seed under `sched` — the Monte Carlo
    /// batch API. The compile cost is paid once, before the first seed.
    pub fn replay_faulty(&mut self, seeds: &[u64], sched: SchedulePolicy) -> Vec<FaultReport> {
        seeds.iter().map(|&s| self.run_faulty(s, sched)).collect()
    }

    /// Replay the checkpoint/rollback run once with `seed` substituted
    /// for the plan's: a death detected at `t + detection_latency` rolls
    /// back to the newest checkpoint at or before it, folds the dead
    /// node's traffic onto its nearest survivor ([`crate::fold_target`])
    /// and replays. The report describes the committed run; undone work
    /// and checkpoint costs land in [`crate::RecoveryReport`].
    pub fn run_recovering(
        &mut self,
        policy: &CheckpointPolicy,
        seed: u64,
        sched: SchedulePolicy,
    ) -> FaultReport {
        self.run(seed, sched, Some(policy))
    }

    /// Replay one recovering run per seed under `sched`. Folded phases
    /// are compiled on the first seed that needs them and reused by the
    /// rest.
    pub fn replay_recovering(
        &mut self,
        policy: &CheckpointPolicy,
        seeds: &[u64],
        sched: SchedulePolicy,
    ) -> Vec<FaultReport> {
        seeds
            .iter()
            .map(|&s| self.run_recovering(policy, s, sched))
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
        let rep = FaultSim::new(m, phases, plan).run_faulty(plan.seed, sched);
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
        let rep = FaultSim::new(m, phases, plan).run_recovering(policy, plan.seed, sched);
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
        assert_eq!(sim.simulate_phases(&phases), m.simulate_phases(&phases));
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
            let batch = crate::sweep::par_sweep_with(
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
                engine.run_faulty(seed, SchedulePolicy::default()),
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
            summed.absorb(&one.run_faulty(seed, SchedulePolicy::default()));
        }
        assert_eq!(
            summed,
            engine.run_faulty(plan.seed, SchedulePolicy::default())
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
                engine.run_recovering(&policy, seed, SchedulePolicy::default()),
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
        let zero =
            engine.run_recovering(&CheckpointPolicy::default(), 0, SchedulePolicy::default());
        assert_eq!(zero.makespan, healthy);
        assert_eq!(zero.recovery.rollbacks, 0);
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
        assert_eq!(sim.simulate_phases(&phases), m.simulate_phases(&phases));
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
