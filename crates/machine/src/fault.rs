//! Fault injection: the failure model the resilient schedulers simulate.
//!
//! The paper's numbers come from real CM-5 / Paragon runs, where links
//! stall, messages get lost on the wire, and the CM-5's control network
//! can be unavailable to a partition. A [`FaultPlan`] describes such an
//! adversarial environment deterministically:
//!
//! * **link outages** — absolute-time windows during which a directed
//!   mesh link is dead (the router around it must be avoided or waited
//!   out);
//! * **node outages** — windows during which a node can neither send nor
//!   receive (messages defer to the end of the window);
//! * **message drop / duplication probabilities** — sampled from the
//!   in-workspace [`crate::rng::XorShift64`] seeded by the plan, so every
//!   run of the same plan observes the same fault sequence;
//! * **control-network outage** — the CM-5 degraded mode in which
//!   hardware collectives are unavailable and [`crate::FatTree`] falls
//!   back to software binomial trees over the data network;
//! * **permanent node deaths** — a [`NodeDeath`] kills a node for good at
//!   an absolute time; a failure detector with configurable
//!   [`FaultPlan::detection_latency`] notices the death and triggers the
//!   checkpoint/rollback recovery path
//!   ([`crate::FaultSim::run_recovering`]);
//! * a **retry policy** — timeout plus exponential backoff, with a hard
//!   attempt cap after which the transport escalates to a reliable
//!   channel (the attempt is forced through), so delivery is guaranteed
//!   whenever retries are enabled, whatever the drop probability.
//!
//! [`crate::FaultSim`] compiles the plan ([`CompiledFaultPlan`]) and
//! returns a [`FaultReport`] per run with full makespan accounting, so the cost
//! of degradation is measurable (see the `faultsweep` and `recoverysweep`
//! bench bins). Recovery outcomes (rollbacks, replayed phases, lost work)
//! land in the embedded [`RecoveryReport`].

use crate::mesh::Mesh2D;

/// A window `[from, until)` of simulated time during which a directed
/// link is dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// Dense link index (see [`crate::mesh::LinkId::index`]).
    pub link: usize,
    /// Start of the outage (inclusive), in ns.
    pub from: u64,
    /// End of the outage (exclusive), in ns.
    pub until: u64,
}

/// A window `[from, until)` during which a node can neither send nor
/// receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// Flattened node id.
    pub node: usize,
    /// Start of the outage (inclusive), in ns.
    pub from: u64,
    /// End of the outage (exclusive), in ns.
    pub until: u64,
}

/// A permanent node failure: from time `t` on, the node never sends or
/// receives again. Unlike a [`NodeOutage`] window, a death is only
/// survivable by rolling back to a checkpoint and folding the dead
/// node's work onto survivors ([`crate::FaultSim::run_recovering`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeDeath {
    /// Flattened node id.
    pub node: usize,
    /// Time of death (inclusive), in ns.
    pub t: u64,
}

/// Retransmission policy: timeout, exponential backoff, and a hard
/// attempt cap that guarantees progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Whether lost messages are retransmitted at all. With retries off,
    /// a dropped message is lost for good (delivered fraction < 1).
    pub enabled: bool,
    /// Base retransmission timeout added after a lost attempt, in ns.
    pub timeout: u64,
    /// Backoff multiplier applied per failed attempt (`timeout`,
    /// `timeout·b`, `timeout·b²`, …).
    pub backoff: u32,
    /// Hard cap on attempts per message. The final attempt is escalated
    /// to a reliable channel and always succeeds, so the delivery
    /// guarantee holds even at drop probability 1. Clamped to ≥ 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            enabled: true,
            timeout: 50_000, // ≈ one Paragon message start-up
            backoff: 2,
            max_attempts: 16,
        }
    }
}

impl RetryPolicy {
    /// No retransmission: one attempt, losses are final.
    pub fn disabled() -> Self {
        RetryPolicy {
            enabled: false,
            ..RetryPolicy::default()
        }
    }

    /// Delay inserted before attempt `attempt + 1` after `attempt`
    /// failed attempts (1-based), saturating.
    pub fn backoff_delay(&self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        self.timeout
            .saturating_mul((self.backoff.max(1) as u64).saturating_pow(exp))
    }
}

/// A deterministic fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed: the same plan always observes the same fault sequence.
    pub seed: u64,
    /// Probability that one transmission attempt is lost on the wire
    /// (the attempt still occupies its links — bandwidth is wasted).
    pub drop_prob: f64,
    /// Probability that a delivered message is retransmitted once more
    /// (a lost acknowledgement); the receiver deduplicates, so this
    /// wastes bandwidth without double-delivering.
    pub dup_prob: f64,
    /// Dead-link windows.
    pub link_outages: Vec<LinkOutage>,
    /// Dead-node windows.
    pub node_outages: Vec<NodeOutage>,
    /// Permanent node deaths (recoverable only via checkpoint/rollback).
    pub node_deaths: Vec<NodeDeath>,
    /// Failure-detector latency in ns: a death at `t` is *detected* at
    /// `t + detection_latency`; until then the scheduler keeps sending
    /// into the dead node and that work is lost on rollback.
    pub detection_latency: u64,
    /// CM-5 degraded mode: the control network is unavailable and
    /// hardware collectives fall back to software binomial trees.
    pub ctrl_outage: bool,
    /// Retransmission policy.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The fault-free plan: bit-identical schedules to the unfaulted
    /// simulator.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            link_outages: Vec::new(),
            node_outages: Vec::new(),
            node_deaths: Vec::new(),
            detection_latency: 0,
            ctrl_outage: false,
            retry: RetryPolicy::default(),
        }
    }

    /// A plan that only drops messages, with the default retry policy.
    pub fn with_drop(seed: u64, drop_prob: f64) -> Self {
        FaultPlan {
            seed,
            drop_prob,
            ..FaultPlan::none()
        }
    }

    /// `true` when the plan cannot perturb a schedule at all.
    pub fn is_zero_fault(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.link_outages.is_empty()
            && self.node_outages.is_empty()
            && self.node_deaths.is_empty()
    }

    /// If `link` is inside an outage window at time `t`, the earliest
    /// `until` among the active windows (the next time worth re-checking);
    /// `None` when the link is up at `t`.
    pub fn link_outage_until(&self, link: usize, t: u64) -> Option<u64> {
        self.link_outages
            .iter()
            .filter(|o| o.link == link && o.from <= t && t < o.until)
            .map(|o| o.until)
            .min()
    }

    /// Earliest time ≥ `t` at which `node` is alive (nested / overlapping
    /// windows are chased to a fixed point), so the node is down at `t`
    /// exactly when the result differs from `t`. A node past a permanent
    /// death never comes back: the result is `u64::MAX`.
    pub fn node_alive_after(&self, node: usize, mut t: u64) -> u64 {
        loop {
            if self.node_deaths.iter().any(|d| d.node == node && t >= d.t) {
                return u64::MAX;
            }
            let Some(o) = self
                .node_outages
                .iter()
                .find(|o| o.node == node && o.from <= t && t < o.until)
            else {
                return t;
            };
            t = o.until;
        }
    }

    /// Time of `node`'s permanent death, if the plan kills it (earliest,
    /// should the plan list several).
    pub fn death_time(&self, node: usize) -> Option<u64> {
        self.node_deaths
            .iter()
            .filter(|d| d.node == node)
            .map(|d| d.t)
            .min()
    }

    /// Time at which the failure detector notices a death at `t`
    /// (saturating).
    #[inline]
    pub fn detection_time(&self, t: u64) -> u64 {
        t.saturating_add(self.detection_latency)
    }
}

/// Deterministic fold target for a dead node on a `px × py` mesh: the
/// live node (not in `dead`) nearest in Manhattan distance, ties broken
/// by the smaller node id. This is the rule both the simulator's message
/// folding and the core remapper's degraded-grid placement share, so the
/// two sides agree on where a dead node's work lands. Returns `None`
/// only when every node is dead.
pub fn fold_target(px: usize, py: usize, node: usize, dead: &[usize]) -> Option<usize> {
    let (nx, ny) = ((node % px) as i64, (node / px) as i64);
    let mut best: Option<(i64, usize)> = None;
    for id in 0..px * py {
        if dead.contains(&id) {
            continue;
        }
        let (x, y) = ((id % px) as i64, (id / px) as i64);
        let d = (x - nx).abs() + (y - ny).abs();
        if best.is_none_or(|(bd, bid)| (d, id) < (bd, bid)) {
            best = Some((d, id));
        }
    }
    best.map(|(_, id)| id)
}

/// One disjoint segment of link-outage coverage: every `t` in
/// `[from, until)` lies inside at least one raw window, and `min_until`
/// is the smallest `until` among the windows covering the segment — the
/// exact value [`FaultPlan::link_outage_until`] reports there. Segments
/// are built over the breakpoints of the raw windows, so the min-until
/// function is constant on each one.
#[derive(Debug, Clone, Copy)]
struct OutageSeg {
    from: u64,
    until: u64,
    min_until: u64,
}

/// One [`NodeDeath`] in the order the recovery driver handles deaths
/// (sorted by `(t, node)`), with everything the compiled recovering loop
/// needs precomputed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SortedDeath {
    /// Flattened node id (may exceed the mesh — such a death still rolls
    /// the run back, it just folds no traffic). The replay loop consumes
    /// it only through the precomputed `first`/`k_after`; kept for tests
    /// and debugging.
    #[allow(dead_code)]
    pub(crate) node: usize,
    /// Time of death, in ns.
    pub(crate) t: u64,
    /// [`FaultPlan::detection_time`] of `t`.
    pub(crate) detect: u64,
    /// First death of this node in handling order (later duplicates are
    /// detected again but fold nothing new).
    pub(crate) first: bool,
    /// Unique dead-node count once this death is handled: index into the
    /// compiled fold tables.
    pub(crate) k_after: usize,
}

/// A [`FaultPlan`] compiled for one mesh: outage windows bucketed per
/// link / per node into sorted interval arrays answered by binary
/// search, death and detection times precomputed, and the per-call
/// [`fold_target`] chase replaced by prefix fold tables (one per unique
/// death, in handling order). Every query is **bit-identical** to the
/// corresponding [`FaultPlan`] method — compiling changes the cost,
/// never the answer (pinned by unit and property tests).
///
/// One documented corner: a [`NodeDeath`] scheduled at exactly
/// `u64::MAX` is treated as never striking (its detection time saturates
/// there too, so no real schedule can observe it).
#[derive(Debug, Clone)]
pub struct CompiledFaultPlan {
    plan: FaultPlan,
    /// Per-link outage segments, flattened; link `l` owns
    /// `link_segs[link_off[l]..link_off[l + 1]]`.
    link_segs: Vec<OutageSeg>,
    link_off: Vec<u32>,
    /// Per-node outage windows with touching/overlapping windows merged
    /// (so one lookup lands where the oracle's chase ends), flattened
    /// like `link_segs`.
    node_wins: Vec<(u64, u64)>,
    node_off: Vec<u32>,
    /// Earliest death time per node; `u64::MAX` = never dies.
    death: Vec<u64>,
    /// `true` when any in-mesh node has a death time.
    has_death_times: bool,
    /// Death entries in handling order.
    deaths_sorted: Vec<SortedDeath>,
    /// `fold[k][node]`: where `node`'s traffic lands once the first `k`
    /// unique deaths are folded; `u32::MAX` = no survivor left.
    fold: Vec<Vec<u32>>,
}

impl CompiledFaultPlan {
    /// Compile `plan` for `mesh`. Outage windows naming links or nodes
    /// outside the mesh are dropped from the buckets (no route link or
    /// message endpoint can ever match them); deaths of out-of-mesh
    /// nodes are kept in the handling order, because the recovery driver
    /// still detects them and rolls back.
    pub fn new(plan: &FaultPlan, mesh: &Mesh2D) -> Self {
        let links = mesh.link_count();
        let nodes = mesh.nodes();
        let (px, py) = (mesh.px, mesh.py);

        // Each outage list is sorted once by (link or node, from) and
        // cut into per-owner groups; `*_off[i + 1]` first counts owner
        // `i`'s entries, and one prefix sweep turns counts into offsets.
        let mut link_wins: Vec<(usize, u64, u64)> = plan
            .link_outages
            .iter()
            .filter(|o| o.link < links && o.from < o.until)
            .map(|o| (o.link, o.from, o.until))
            .collect();
        link_wins.sort_unstable();
        let mut link_segs = Vec::new();
        let mut link_off = vec![0u32; links + 1];
        let mut cuts: Vec<u64> = Vec::new();
        for group in link_wins.chunk_by(|a, b| a.0 == b.0) {
            cuts.clear();
            cuts.extend(group.iter().flat_map(|&(_, f, u)| [f, u]));
            cuts.sort_unstable();
            cuts.dedup();
            let before = link_segs.len();
            // A window covering any point of `[cut, next)` covers all of
            // it (its endpoints are themselves cuts), so the min-until on
            // the segment is the min over windows covering its start —
            // a prefix of the group, which is sorted by `from`.
            for c in cuts.windows(2) {
                let covering = group
                    .iter()
                    .take_while(|w| w.1 <= c[0])
                    .filter(|w| c[0] < w.2);
                if let Some(min_until) = covering.map(|w| w.2).min() {
                    link_segs.push(OutageSeg {
                        from: c[0],
                        until: c[1],
                        min_until,
                    });
                }
            }
            link_off[group[0].0 + 1] = (link_segs.len() - before) as u32;
        }

        let mut node_wins_raw: Vec<(usize, u64, u64)> = plan
            .node_outages
            .iter()
            .filter(|o| o.node < nodes && o.from < o.until)
            .map(|o| (o.node, o.from, o.until))
            .collect();
        node_wins_raw.sort_unstable();
        let mut node_wins: Vec<(u64, u64)> = Vec::new();
        let mut node_off = vec![0u32; nodes + 1];
        for group in node_wins_raw.chunk_by(|a, b| a.0 == b.0) {
            let before = node_wins.len();
            // Merge touching windows too ([a, b) + [b, c) = [a, c)): the
            // oracle's chase steps from one window's `until` straight
            // into the next.
            for &(_, f, u) in group {
                match node_wins[before..].last_mut() {
                    Some(last) if f <= last.1 => last.1 = last.1.max(u),
                    _ => node_wins.push((f, u)),
                }
            }
            node_off[group[0].0 + 1] = (node_wins.len() - before) as u32;
        }
        for off in [&mut link_off, &mut node_off] {
            for i in 1..off.len() {
                off[i] += off[i - 1];
            }
        }

        let mut death = vec![u64::MAX; nodes];
        for d in &plan.node_deaths {
            if d.node < nodes {
                death[d.node] = death[d.node].min(d.t);
            }
        }
        let has_death_times = death.iter().any(|&t| t != u64::MAX);

        let mut order: Vec<&NodeDeath> = plan.node_deaths.iter().collect();
        order.sort_by_key(|d| (d.t, d.node));
        let mut dead: Vec<usize> = Vec::new();
        let mut fold = vec![fold_table(px, py, &dead)];
        let mut deaths_sorted = Vec::with_capacity(order.len());
        for d in order {
            let first = !dead.contains(&d.node);
            if first {
                dead.push(d.node);
                fold.push(fold_table(px, py, &dead));
            }
            deaths_sorted.push(SortedDeath {
                node: d.node,
                t: d.t,
                detect: plan.detection_time(d.t),
                first,
                k_after: dead.len(),
            });
        }

        CompiledFaultPlan {
            plan: plan.clone(),
            link_segs,
            link_off,
            node_wins,
            node_off,
            death,
            has_death_times,
            deaths_sorted,
            fold,
        }
    }

    /// The source plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    #[inline]
    fn link_bucket(&self, link: usize) -> &[OutageSeg] {
        &self.link_segs[self.link_off[link] as usize..self.link_off[link + 1] as usize]
    }

    #[inline]
    fn node_bucket(&self, node: usize) -> &[(u64, u64)] {
        &self.node_wins[self.node_off[node] as usize..self.node_off[node + 1] as usize]
    }

    /// Compiled [`FaultPlan::link_outage_until`]: one binary search
    /// instead of an O(#outages) scan.
    #[inline]
    pub fn link_outage_until(&self, link: usize, t: u64) -> Option<u64> {
        let segs = self.link_bucket(link);
        match segs.partition_point(|s| s.from <= t) {
            0 => None,
            i => {
                let s = &segs[i - 1];
                (t < s.until).then_some(s.min_until)
            }
        }
    }

    /// Compiled [`FaultPlan::node_alive_after`]: the oracle's chase ends
    /// at the end of the merged window component containing `t` (or `t`
    /// itself outside every window), and reports `u64::MAX` exactly when
    /// the node's death time is at or before that point.
    #[inline]
    pub fn node_alive_after(&self, node: usize, t: u64) -> u64 {
        self.node_alive_after_mode(node, t, true)
    }

    /// The recovery driver strips deaths from the transport's view
    /// (`with_deaths = false`): deaths are survived by rollback, not
    /// black-holed.
    #[inline]
    pub(crate) fn node_alive_after_mode(&self, node: usize, t: u64, with_deaths: bool) -> u64 {
        let wins = self.node_bucket(node);
        let r = match wins.partition_point(|w| w.0 <= t) {
            0 => t,
            i => {
                let w = wins[i - 1];
                if t < w.1 {
                    w.1
                } else {
                    t
                }
            }
        };
        if with_deaths && self.death[node] != u64::MAX && self.death[node] <= r {
            return u64::MAX;
        }
        r
    }

    /// Any link-outage segment at all? Skipping the route outage scan
    /// when there is none is observationally identical.
    #[inline]
    pub fn has_link_outages(&self) -> bool {
        !self.link_segs.is_empty()
    }

    /// Must the transport check endpoint liveness? (`with_deaths` as in
    /// [`CompiledFaultPlan::node_alive_after_mode`].) When `false`, every
    /// liveness query would answer "alive now" and draw nothing, so the
    /// whole check is skipped.
    #[inline]
    pub(crate) fn check_nodes(&self, with_deaths: bool) -> bool {
        !self.node_wins.is_empty() || (with_deaths && self.has_death_times)
    }

    /// Death entries in the order the recovery driver handles them.
    pub(crate) fn sorted_deaths(&self) -> &[SortedDeath] {
        &self.deaths_sorted
    }

    /// Fold lookup after `k` unique deaths: compiled
    /// [`fold_target`] over the first `k` dead nodes (a live node maps
    /// to itself).
    #[inline]
    pub(crate) fn fold_lookup(&self, k: usize, node: usize) -> Option<usize> {
        let t = self.fold[k][node];
        (t != u32::MAX).then_some(t as usize)
    }
}

/// Dense [`fold_target`] table for one dead set (a live node is its own
/// target, the only one at distance 0, so only dead nodes search).
fn fold_table(px: usize, py: usize, dead: &[usize]) -> Vec<u32> {
    (0..px * py)
        .map(|n| {
            if dead.contains(&n) {
                fold_target(px, py, n, dead).map_or(u32::MAX, |t| t as u32)
            } else {
                n as u32
            }
        })
        .collect()
}

/// Accounting of the checkpoint/rollback recovery path
/// ([`crate::FaultSim::run_recovering`]). Absorbed into
/// [`FaultReport`] so one report covers both transport-level faults and
/// node-loss recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Permanent deaths that struck the run (a planned death scheduled
    /// past the committed end never happened to this run).
    pub deaths: usize,
    /// Deaths the failure detector noticed (every death inside the run).
    pub detected: usize,
    /// Rollbacks to a checkpoint.
    pub rollbacks: usize,
    /// Phases re-executed after a rollback.
    pub replayed_phases: usize,
    /// Committed-then-undone simulated time, in ns (work between the
    /// restored checkpoint and the detection point).
    pub lost_work_ns: u64,
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// Time spent writing checkpoints, in ns (kept out of `makespan` so
    /// zero-death runs stay bit-identical to the unfaulted scheduler).
    pub checkpoint_overhead_ns: u64,
    /// Dead nodes whose traffic was folded onto survivors.
    pub folded_nodes: usize,
}

impl RecoveryReport {
    /// `true` when every injected death was detected and survived via a
    /// rollback (vacuously true for a death-free run).
    pub fn all_recovered(&self) -> bool {
        self.detected == self.deaths && self.rollbacks >= self.detected
    }

    /// Sum another recovery report into this one.
    pub fn absorb(&mut self, other: &RecoveryReport) {
        self.deaths += other.deaths;
        self.detected += other.detected;
        self.rollbacks += other.rollbacks;
        self.replayed_phases += other.replayed_phases;
        self.lost_work_ns += other.lost_work_ns;
        self.checkpoints += other.checkpoints;
        self.checkpoint_overhead_ns += other.checkpoint_overhead_ns;
        self.folded_nodes += other.folded_nodes;
    }
}

/// Outcome accounting of one fault-injected phase (or a sequence of
/// phases, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Phase makespan in ns (including time wasted on lost attempts,
    /// retries, reroutes and duplicates).
    pub makespan: u64,
    /// Non-local messages the scheduler attempted to deliver.
    pub messages: usize,
    /// Messages delivered exactly once (receiver-side deduplication
    /// collapses duplicates).
    pub delivered: usize,
    /// Messages permanently lost (only possible with retries disabled).
    pub lost: usize,
    /// Total transmissions, including retries and duplicates.
    pub attempts: u64,
    /// Retransmissions after a loss.
    pub retries: u64,
    /// Duplicate transmissions suppressed at the receiver.
    pub duplicates: u64,
    /// Messages that abandoned the XY route for the YX route around a
    /// dead link.
    pub reroutes: u64,
    /// Waits for a link/node outage window to end.
    pub deferrals: u64,
    /// Attempts forced through the reliable channel at the attempt cap.
    pub escalations: u64,
    /// Messages sent into a permanently dead endpoint before the failure
    /// detector fired (black-holed: counted under `lost`).
    pub black_holes: u64,
    /// Times an adaptive schedule policy fell back from overlapped
    /// execution to phased barriers mid-run
    /// ([`crate::SchedulePolicy::Adaptive`]; all-zero under fixed
    /// policies).
    pub downgrades: u64,
    /// Checkpoint/rollback accounting (all-zero outside the recovery
    /// path).
    pub recovery: RecoveryReport,
}

impl FaultReport {
    /// Fraction of messages delivered (1.0 for an empty phase).
    pub fn delivered_fraction(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.delivered as f64 / self.messages as f64
        }
    }

    /// Committed makespan plus the recovery costs that don't show up in
    /// it: undone work and checkpoint writes. This is what a wall clock
    /// would measure across the whole run, rollbacks included.
    pub fn wall_clock_ns(&self) -> u64 {
        self.makespan + self.recovery.lost_work_ns + self.recovery.checkpoint_overhead_ns
    }

    /// Fold another phase's report into this one (makespans add —
    /// dependent phases run back to back).
    pub fn absorb(&mut self, other: &FaultReport) {
        self.makespan += other.makespan;
        self.messages += other.messages;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.duplicates += other.duplicates;
        self.reroutes += other.reroutes;
        self.deferrals += other.deferrals;
        self.escalations += other.escalations;
        self.black_holes += other.black_holes;
        self.downgrades += other.downgrades;
        self.recovery.absorb(&other.recovery);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_detection() {
        assert!(FaultPlan::none().is_zero_fault());
        assert!(!FaultPlan::with_drop(1, 0.1).is_zero_fault());
        let mut p = FaultPlan::none();
        p.link_outages.push(LinkOutage {
            link: 0,
            from: 0,
            until: 10,
        });
        assert!(!p.is_zero_fault());
    }

    #[test]
    fn outage_windows_are_half_open() {
        let mut p = FaultPlan::none();
        p.link_outages.push(LinkOutage {
            link: 3,
            from: 100,
            until: 200,
        });
        assert_eq!(p.link_outage_until(3, 99), None);
        assert_eq!(p.link_outage_until(3, 100), Some(200));
        assert_eq!(p.link_outage_until(3, 199), Some(200));
        assert_eq!(p.link_outage_until(3, 200), None);
        assert_eq!(p.link_outage_until(4, 150), None);
    }

    #[test]
    fn node_alive_after_chases_overlapping_windows() {
        let mut p = FaultPlan::none();
        p.node_outages.push(NodeOutage {
            node: 5,
            from: 0,
            until: 100,
        });
        p.node_outages.push(NodeOutage {
            node: 5,
            from: 80,
            until: 250,
        });
        assert_eq!(p.node_alive_after(5, 10), 250);
        assert_eq!(p.node_alive_after(5, 250), 250);
        assert_eq!(p.node_alive_after(6, 10), 10);
    }

    #[test]
    fn permanent_death_is_forever() {
        let mut p = FaultPlan::none();
        p.node_deaths.push(NodeDeath { node: 7, t: 1_000 });
        assert!(!p.is_zero_fault());
        assert_eq!(p.node_alive_after(7, 999), 999);
        assert_eq!(p.node_alive_after(7, 1_000), u64::MAX);
        assert_eq!(p.node_alive_after(7, u64::MAX - 1), u64::MAX);
        assert_eq!(p.node_alive_after(8, 1_000), 1_000);
        assert_eq!(p.death_time(7), Some(1_000));
        assert_eq!(p.death_time(8), None);
    }

    #[test]
    fn death_at_outage_window_boundary() {
        // A death exactly at `until` of an outage window: the window
        // chase lands on `until`, which is the instant the node dies —
        // it must never be reported alive again.
        let mut p = FaultPlan::none();
        p.node_outages.push(NodeOutage {
            node: 3,
            from: 100,
            until: 200,
        });
        p.node_deaths.push(NodeDeath { node: 3, t: 200 });
        assert_eq!(p.node_alive_after(3, 150), u64::MAX);
        assert_eq!(p.node_alive_after(3, 200), u64::MAX);
        // Death *inside* the window: same answer — the node stays down
        // across the `until` boundary where the window alone would end.
        let mut q = FaultPlan::none();
        q.node_outages.push(NodeOutage {
            node: 3,
            from: 100,
            until: 200,
        });
        q.node_deaths.push(NodeDeath { node: 3, t: 150 });
        assert_eq!(q.node_alive_after(3, 199), u64::MAX);
        assert_eq!(q.node_alive_after(3, 200), u64::MAX);
        assert_eq!(q.node_alive_after(3, 120), u64::MAX);
        assert_eq!(q.node_alive_after(3, 99), 99);
        // Death strictly after the window: the chase exits the window
        // first, then sees the node still alive until `t`.
        let mut r = FaultPlan::none();
        r.node_outages.push(NodeOutage {
            node: 3,
            from: 100,
            until: 200,
        });
        r.node_deaths.push(NodeDeath { node: 3, t: 300 });
        assert_eq!(r.node_alive_after(3, 150), 200);
        assert_eq!(r.node_alive_after(3, 250), 250);
        assert_eq!(r.node_alive_after(3, 300), u64::MAX);
    }

    #[test]
    fn detection_time_saturates() {
        let mut p = FaultPlan::none();
        p.detection_latency = 500;
        assert_eq!(p.detection_time(1_000), 1_500);
        assert_eq!(p.detection_time(u64::MAX - 10), u64::MAX);
    }

    #[test]
    fn fold_target_nearest_survivor() {
        // 4×4 mesh, node 5 = (1, 1) dies: nearest live neighbours are
        // 1, 4, 6, 9 at distance 1 — smallest id wins.
        assert_eq!(fold_target(4, 4, 5, &[5]), Some(1));
        // With 1 and 4 also dead, 6 is the nearest survivor.
        assert_eq!(fold_target(4, 4, 5, &[5, 1, 4]), Some(6));
        // A live node folds onto itself (distance 0).
        assert_eq!(fold_target(4, 4, 5, &[2]), Some(5));
        // Everyone dead → no target.
        let all: Vec<usize> = (0..4).collect();
        assert_eq!(fold_target(2, 2, 0, &all), None);
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let r = RetryPolicy {
            enabled: true,
            timeout: 100,
            backoff: 2,
            max_attempts: 8,
        };
        assert_eq!(r.backoff_delay(1), 100);
        assert_eq!(r.backoff_delay(2), 200);
        assert_eq!(r.backoff_delay(4), 800);
        // Deep attempt counts must not overflow.
        let big = RetryPolicy {
            timeout: u64::MAX / 2,
            ..r
        };
        assert_eq!(big.backoff_delay(40), u64::MAX);
    }

    #[test]
    fn report_absorb_sums_everything() {
        let mut a = FaultReport {
            makespan: 10,
            messages: 2,
            delivered: 2,
            ..FaultReport::default()
        };
        let b = FaultReport {
            makespan: 5,
            messages: 1,
            delivered: 0,
            lost: 1,
            attempts: 1,
            ..FaultReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.makespan, 15);
        assert_eq!(a.messages, 3);
        assert_eq!(a.delivered, 2);
        assert_eq!(a.lost, 1);
        assert!((a.delivered_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(FaultReport::default().delivered_fraction(), 1.0);
    }

    #[test]
    fn recovery_absorb_and_wall_clock() {
        let mut a = FaultReport {
            makespan: 100,
            recovery: RecoveryReport {
                deaths: 1,
                detected: 1,
                rollbacks: 1,
                replayed_phases: 2,
                lost_work_ns: 40,
                checkpoints: 3,
                checkpoint_overhead_ns: 9,
                folded_nodes: 1,
            },
            ..FaultReport::default()
        };
        assert!(a.recovery.all_recovered());
        assert_eq!(a.wall_clock_ns(), 149);
        let b = FaultReport {
            makespan: 50,
            recovery: RecoveryReport {
                deaths: 1,
                detected: 0,
                ..RecoveryReport::default()
            },
            ..FaultReport::default()
        };
        assert!(!b.recovery.all_recovered());
        a.absorb(&b);
        assert_eq!(a.makespan, 150);
        assert_eq!(a.recovery.deaths, 2);
        assert_eq!(a.recovery.detected, 1);
        assert_eq!(a.recovery.lost_work_ns, 40);
        assert!(RecoveryReport::default().all_recovered());
    }

    use crate::model::CostModel;

    fn mesh8x4() -> Mesh2D {
        Mesh2D::new(8, 4, CostModel::paragon())
    }

    #[test]
    fn compiled_link_lookup_keeps_exact_min_until() {
        // Overlapping windows: [0, 100) and [50, 200). At t = 60 both are
        // active and the oracle reports the *earlier* end (100), which a
        // naive merged-interval table would get wrong (200).
        let mut p = FaultPlan::none();
        p.link_outages.push(LinkOutage {
            link: 3,
            from: 0,
            until: 100,
        });
        p.link_outages.push(LinkOutage {
            link: 3,
            from: 50,
            until: 200,
        });
        let c = CompiledFaultPlan::new(&p, &mesh8x4());
        for t in [0u64, 49, 50, 60, 99, 100, 150, 199, 200, 500] {
            assert_eq!(
                c.link_outage_until(3, t),
                p.link_outage_until(3, t),
                "t = {t}"
            );
            assert_eq!(c.link_outage_until(4, t), p.link_outage_until(4, t));
        }
        assert_eq!(c.link_outage_until(3, 60), Some(100));
        assert!(c.has_link_outages());
        assert!(!CompiledFaultPlan::new(&FaultPlan::none(), &mesh8x4()).has_link_outages());
    }

    #[test]
    fn compiled_node_lookup_chases_like_oracle() {
        let mut p = FaultPlan::none();
        // Touching windows [0, 100) + [100, 250): the chase crosses the
        // boundary; an overlapping third [80, 120) changes nothing.
        for (from, until) in [(0, 100), (100, 250), (80, 120)] {
            p.node_outages.push(NodeOutage {
                node: 5,
                from,
                until,
            });
        }
        p.node_deaths.push(NodeDeath { node: 7, t: 1_000 });
        let c = CompiledFaultPlan::new(&p, &mesh8x4());
        for node in [5usize, 6, 7] {
            for t in [0u64, 10, 99, 100, 249, 250, 999, 1_000, 5_000] {
                assert_eq!(
                    c.node_alive_after(node, t),
                    p.node_alive_after(node, t),
                    "node {node} t {t}"
                );
            }
        }
        assert_eq!(c.node_alive_after(5, 10), 250);
        // Death inside a window component blacks the node out forever.
        let mut q = FaultPlan::none();
        q.node_outages.push(NodeOutage {
            node: 3,
            from: 100,
            until: 200,
        });
        q.node_deaths.push(NodeDeath { node: 3, t: 200 });
        let cq = CompiledFaultPlan::new(&q, &mesh8x4());
        assert_eq!(cq.node_alive_after(3, 150), u64::MAX);
        assert_eq!(cq.node_alive_after(3, 99), 99);
        // The recovery driver's view ignores deaths.
        assert_eq!(cq.node_alive_after_mode(3, 150, false), 200);
        assert!(cq.check_nodes(false) && cq.check_nodes(true));
        let bare = CompiledFaultPlan::new(&FaultPlan::none(), &mesh8x4());
        assert!(!bare.check_nodes(true));
    }

    #[test]
    fn compiled_death_order_and_fold_tables() {
        let m = mesh8x4();
        let mut p = FaultPlan::none();
        p.detection_latency = 500;
        // Out of handling order, one duplicate node, one out-of-mesh node.
        p.node_deaths.push(NodeDeath { node: 9, t: 300 });
        p.node_deaths.push(NodeDeath { node: 4, t: 100 });
        p.node_deaths.push(NodeDeath { node: 4, t: 200 });
        p.node_deaths.push(NodeDeath { node: 999, t: 250 });
        let c = CompiledFaultPlan::new(&p, &m);
        let d = c.sorted_deaths();
        let order: Vec<(usize, u64, u64, bool, usize)> = d
            .iter()
            .map(|e| (e.node, e.t, e.detect, e.first, e.k_after))
            .collect();
        assert_eq!(
            order,
            vec![
                (4, 100, 600, true, 1),
                (4, 200, 700, false, 1),
                (999, 250, 750, true, 2),
                (9, 300, 800, true, 3),
            ]
        );
        // Fold tables match the per-call chase at each prefix.
        let dead_prefixes: [&[usize]; 4] = [&[], &[4], &[4, 999], &[4, 999, 9]];
        for (k, dead) in dead_prefixes.iter().enumerate() {
            for node in 0..m.nodes() {
                assert_eq!(
                    c.fold_lookup(k, node),
                    fold_target(m.px, m.py, node, dead),
                    "k {k} node {node}"
                );
            }
        }
        // In-mesh deaths feed the transport's death times; the
        // out-of-mesh one does not.
        assert_eq!(c.node_alive_after(4, 100), u64::MAX);
        assert_eq!(c.node_alive_after(9, 299), 299);
        assert_eq!(c.node_alive_after(9, 300), u64::MAX);
    }

    #[test]
    fn compiled_lookup_ignores_out_of_range_outages() {
        let m = mesh8x4();
        let mut p = FaultPlan::none();
        p.link_outages.push(LinkOutage {
            link: m.link_count() + 7,
            from: 0,
            until: 100,
        });
        p.node_outages.push(NodeOutage {
            node: m.nodes() + 3,
            from: 0,
            until: 100,
        });
        // Empty windows are dropped too.
        p.link_outages.push(LinkOutage {
            link: 0,
            from: 50,
            until: 50,
        });
        let c = CompiledFaultPlan::new(&p, &m);
        assert!(!c.has_link_outages());
        assert!(!c.check_nodes(true));
        for l in 0..m.link_count() {
            assert_eq!(c.link_outage_until(l, 10), p.link_outage_until(l, 10));
        }
    }
}
