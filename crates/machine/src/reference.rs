//! The fault-semantics oracle: one plain restatement of every run the
//! simulation engine executes, kept as the correctness net the engine is
//! tested against.
//!
//! [`simulate`] covers phased, overlapped and adaptive schedules, each
//! with black-holed deaths (no checkpoint policy) or checkpoint/rollback
//! recovery. It is written directly on [`FaultPlan`] (linear outage
//! scans), [`RouteLinks`] (routes walked per attempt), [`fold_target`]
//! (survivor folding per message) and a full clone of the run state per
//! checkpoint. It shares no code with the engine
//! ([`crate::PhaseSim`], [`crate::FaultSim`]): no compiled phases, no
//! compiled plan, no epoch-stamped link table, no fold tables. A
//! fault-free healthy schedule has its own independent oracle,
//! [`Mesh2D::simulate_phase`].

use crate::fault::{fold_target, FaultPlan, FaultReport, RecoveryReport};
use crate::mesh::{Mesh2D, RouteLinks};
use crate::model::PMsg;
use crate::overlap::{OverlapOrder, ScheduleMode, SchedulePolicy};
use crate::phasesim::CheckpointPolicy;
use crate::rng::XorShift64;
use std::cmp::Reverse;

/// Everything a rollback restores: link clocks, node readiness, the
/// adaptive barrier flag, the committed report, clock and phase.
#[derive(Clone)]
struct State {
    link_free: Vec<u64>,
    ready: Vec<u64>,
    arrival: Vec<u64>,
    barrier: bool,
    report: FaultReport,
    now: u64,
    phase: usize,
}

/// Run `phases` on `mesh` under `plan` and `sched`.
///
/// * Phases draw from per-phase PRNG streams (`plan.seed + index`).
/// * [`ScheduleMode::Phased`] restarts the clock and the link table at
///   every phase (outage windows and deaths are read in phase time) and
///   sums the phase makespans.
/// * Overlapped modes share one absolute clock and link table; a message
///   releases once its source has received every delivered inflow of
///   earlier phases, and each phase's report carries its clock advance.
/// * [`SchedulePolicy::Adaptive`] runs overlapped and, once the
///   committed clock exceeds `inflation_threshold` × the healthy
///   overlapped clock of the same prefix, releases every later phase at
///   a barrier on the committed clock.
/// * `ckpt = None`: a message to or from a permanently dead node is
///   black-holed. `Some`: deaths are hidden from the transport, and
///   detection rolls back to the newest checkpoint at or before the
///   death and folds the dead node's traffic onto its nearest survivor.
pub fn simulate(
    mesh: &Mesh2D,
    phases: &[Vec<PMsg>],
    plan: &FaultPlan,
    sched: SchedulePolicy,
    ckpt: Option<&CheckpointPolicy>,
) -> FaultReport {
    match sched {
        SchedulePolicy::Fixed(mode) => run(mesh, phases, plan, mode, None, ckpt).0,
        SchedulePolicy::Adaptive {
            inflation_threshold,
        } => {
            let mode = ScheduleMode::overlapped();
            let (_, healthy) = run(mesh, phases, &FaultPlan::none(), mode, None, None);
            run(
                mesh,
                phases,
                plan,
                mode,
                Some((inflation_threshold, &healthy)),
                ckpt,
            )
            .0
        }
    }
}

/// The run loop; also returns the committed clock after each phase.
fn run(
    mesh: &Mesh2D,
    phases: &[Vec<PMsg>],
    plan: &FaultPlan,
    mode: ScheduleMode,
    adapt: Option<(f64, &[u64])>,
    ckpt: Option<&CheckpointPolicy>,
) -> (FaultReport, Vec<u64>) {
    let transport = match ckpt {
        Some(_) => FaultPlan {
            node_deaths: Vec::new(),
            ..plan.clone()
        },
        None => plan.clone(),
    };
    let deaths = if ckpt.is_some() {
        &plan.node_deaths[..]
    } else {
        &[]
    };
    let mut s = State {
        link_free: vec![0; mesh.link_count()],
        ready: vec![0; mesh.nodes()],
        arrival: vec![0; mesh.nodes()],
        barrier: false,
        report: FaultReport::default(),
        now: 0,
        phase: 0,
    };
    let mut clocks = vec![0u64; phases.len()];
    let mut recovery = RecoveryReport::default();
    let mut ring: Vec<State> = Vec::new();
    let mut handled = vec![false; deaths.len()];
    let mut dead: Vec<usize> = Vec::new();
    let mut frontier = 0usize;
    loop {
        let i = s.phase;
        let mut phase_end = s.now;
        let mut done = None;
        if i < phases.len() {
            if let Some(p) = ckpt {
                let fresh = ring.last().is_none_or(|c| c.phase != i || c.now != s.now);
                if i % p.interval.max(1) == 0 && fresh {
                    if ring.len() == p.ring.max(1) {
                        ring.remove(0);
                    }
                    ring.push(s.clone());
                    recovery.checkpoints += 1;
                    recovery.checkpoint_overhead_ns += p.cost_ns;
                }
            }
            let mut msgs = Vec::new();
            let mut dropped = 0usize;
            for m in &phases[i] {
                let fold = |n: usize| {
                    if dead.contains(&n) {
                        fold_target(mesh.px, mesh.py, n, &dead)
                    } else {
                        Some(n)
                    }
                };
                match (fold(m.src), fold(m.dst)) {
                    (Some(src), Some(dst)) => msgs.push(PMsg { src, dst, ..*m }),
                    _ => dropped += 1,
                }
            }
            let seed = plan.seed.wrapping_add(i as u64);
            let mut rep = transmit_phase(mesh, &mut s, &msgs, &transport, seed, mode);
            phase_end = match mode {
                ScheduleMode::Phased => s.now + rep.makespan,
                ScheduleMode::Overlapped(_) => s.now.max(rep.makespan),
            };
            rep.makespan = phase_end - s.now;
            rep.messages += dropped;
            rep.lost += dropped;
            rep.black_holes += dropped as u64;
            done = Some(rep);
        }
        // The earliest unhandled death the detector sees: inside the
        // span this phase would commit, or anywhere in the committed run
        // once every phase is done.
        let visible = (0..deaths.len())
            .filter(|&k| {
                !handled[k]
                    && match done {
                        Some(_) => plan.detection_time(deaths[k].t) <= phase_end,
                        None => deaths[k].t < s.now,
                    }
            })
            .min_by_key(|&k| (deaths[k].t, deaths[k].node));
        if let Some(k) = visible {
            let d = deaths[k];
            handled[k] = true;
            recovery.detected += 1;
            if !dead.contains(&d.node) {
                dead.push(d.node);
                recovery.folded_nodes += 1;
            }
            let pos = ring.iter().rposition(|c| c.now <= d.t).unwrap_or(0);
            ring.truncate(pos + 1);
            let c = ring.last().expect("phase 0 is always checkpointed");
            recovery.lost_work_ns += phase_end - c.now;
            recovery.rollbacks += 1;
            s = c.clone();
            continue;
        }
        let Some(rep) = done else { break };
        s.report.absorb(&rep);
        s.now = phase_end;
        clocks[i] = s.now;
        if let Some((threshold, healthy)) = adapt {
            if !s.barrier && s.now as f64 > threshold * healthy[i] as f64 {
                s.barrier = true;
                s.report.downgrades += 1;
            }
        }
        if i < frontier {
            recovery.replayed_phases += 1;
        } else {
            frontier = i + 1;
        }
        s.phase += 1;
    }
    recovery.deaths = handled.iter().filter(|&&h| h).count();
    s.report.recovery = recovery;
    (s.report, clocks)
}

/// One phase of the resilient transport. Returns the phase report with
/// `makespan` = the latest end time in the phase's clock frame.
fn transmit_phase(
    mesh: &Mesh2D,
    s: &mut State,
    msgs: &[PMsg],
    plan: &FaultPlan,
    seed: u64,
    mode: ScheduleMode,
) -> FaultReport {
    let phased = mode == ScheduleMode::Phased;
    if phased {
        s.link_free.fill(0);
    } else if s.phase > 0 {
        for n in 0..s.ready.len() {
            s.ready[n] = if s.barrier {
                s.now
            } else {
                s.ready[n].max(s.arrival[n])
            };
        }
    }
    let mut sorted: Vec<PMsg> = msgs.iter().copied().filter(|m| m.src != m.dst).collect();
    sorted.sort();
    if mode == ScheduleMode::Overlapped(OverlapOrder::LongestFirst) {
        // Stable: ties keep the sorted `PMsg` order.
        sorted.sort_by_key(|m| (s.ready[m.src], Reverse(mesh.hops(m.src, m.dst))));
    }
    let mut rng = XorShift64::new(seed);
    let mut rep = FaultReport {
        messages: sorted.len(),
        ..FaultReport::default()
    };
    let retry = plan.retry;
    for m in sorted {
        let dur = mesh.cost.p2p(mesh.hops(m.src, m.dst), m.bytes);
        let mut t = if phased { 0 } else { s.ready[m.src] };
        let mut attempts = 0u32;
        loop {
            let alive = plan
                .node_alive_after(m.src, t)
                .max(plan.node_alive_after(m.dst, t));
            if alive == u64::MAX {
                rep.lost += 1;
                rep.black_holes += 1;
                break;
            }
            if alive > t {
                rep.deferrals += 1;
                t = alive;
                continue;
            }
            // XY unless a link of it is dead at its start, then YX,
            // else wait for the first dead link to come back.
            let xy = mesh.route_links(m.src, m.dst);
            let yx = mesh.route_links_yx(m.src, m.dst);
            let (route, start) = match probe(s, plan, xy.clone(), t) {
                (start, None) => (xy, start),
                (_, Some(xy_back)) => match probe(s, plan, yx.clone(), t) {
                    (start, None) => {
                        rep.reroutes += 1;
                        (yx, start)
                    }
                    (_, Some(yx_back)) => {
                        rep.deferrals += 1;
                        t = xy_back.min(yx_back).max(t.saturating_add(1));
                        continue;
                    }
                },
            };
            attempts += 1;
            rep.attempts += 1;
            let end = start.saturating_add(dur);
            for l in route.clone() {
                s.link_free[l.index()] = end;
            }
            rep.makespan = rep.makespan.max(end);
            let lost = rng.chance(plan.drop_prob);
            let forced = retry.enabled && attempts >= retry.max_attempts.max(1);
            if lost && !forced {
                if !retry.enabled {
                    rep.lost += 1;
                    break;
                }
                rep.retries += 1;
                t = end.saturating_add(retry.backoff_delay(attempts));
                continue;
            }
            if lost {
                rep.escalations += 1;
            }
            rep.delivered += 1;
            s.arrival[m.dst] = s.arrival[m.dst].max(end);
            if rng.chance(plan.dup_prob) {
                // A lost acknowledgement: the sender repeats the message
                // on the same route, the receiver drops the copy.
                rep.duplicates += 1;
                rep.attempts += 1;
                let end2 = end.saturating_add(dur);
                for l in route {
                    s.link_free[l.index()] = end2;
                }
                rep.makespan = rep.makespan.max(end2);
            }
            break;
        }
    }
    rep
}

/// Earliest start ≥ `t` on `route`, and — when some link of the route is
/// dead at that start — the earliest time one of the dead links returns.
fn probe(s: &State, plan: &FaultPlan, route: RouteLinks, t: u64) -> (u64, Option<u64>) {
    let start = route
        .clone()
        .map(|l| s.link_free[l.index()])
        .fold(t, u64::max);
    let back = route
        .filter_map(|l| plan.link_outage_until(l.index(), start))
        .min();
    (start, back)
}
