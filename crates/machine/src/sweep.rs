//! Parallel parameter sweeps on the shared work-stealing pool
//! ([`crate::pool`]), plus the deterministic fault-schedule generators
//! the sweeps share.
//!
//! The benchmark harness evaluates many (machine, distribution, k, size)
//! configurations; each simulation is independent, so we shard them over
//! the pool's per-worker deques — results land in pre-sized slots, in
//! input order, bit-identical for every worker count. [`par_sweep_with`]
//! gives every worker a private scratch state (e.g. a
//! [`crate::PhaseSim`]), so per-simulation allocations are paid once per
//! worker instead of once per configuration. The Monte Carlo driver
//! ([`par_fault_sweep`], faulty or recovering by its checkpoint policy)
//! shards at plan×seed granularity and refolds the per-replication
//! reports serially, so its Welford statistics stay bit-identical to a
//! serial run even though the replications of one plan may run on
//! different workers.

use crate::fault::{FaultPlan, FaultReport, NodeDeath};
use crate::mesh::Mesh2D;
use crate::model::PMsg;
use crate::overlap::SchedulePolicy;
use crate::phasesim::{CheckpointPolicy, FaultSim};
use crate::pool::{self, SweepReport};
use crate::rng::XorShift64;

/// A deterministic mean-time-to-failure death schedule: one death every
/// `mttf_ns` until `horizon_ns`, striking nodes in a seeded random
/// permutation (so repeated deaths never hit the same node), capped at
/// half the machine so a fold target always survives.
pub fn mttf_death_schedule(
    nodes: usize,
    mttf_ns: u64,
    horizon_ns: u64,
    seed: u64,
) -> Vec<NodeDeath> {
    let mut rng = XorShift64::new(seed);
    let mut order: Vec<usize> = (0..nodes).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mttf_ns = mttf_ns.max(1);
    let mut deaths = Vec::new();
    let mut t = mttf_ns;
    while t < horizon_ns && deaths.len() < nodes / 2 {
        deaths.push(NodeDeath {
            node: order[deaths.len()],
            t,
        });
        t = t.saturating_add(mttf_ns);
    }
    deaths
}

/// Run `f` over every config on the shared work-stealing pool, in input
/// order. Each worker first builds a private scratch state with `init`
/// and threads it through every task it claims or steals — the pattern used to amortize simulator allocations across a
/// sweep. Runs on the shared work-stealing pool; `threads` is clamped to
/// `[1, n]` (use [`par_sweep_with_report`] when the caller needs the
/// effective worker count back).
pub fn par_sweep_with<C, R, S, I, F>(configs: &[C], threads: usize, init: I, f: F) -> Vec<R>
where
    C: Sync,
    R: Send + Default + Clone,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &C) -> R + Sync,
{
    par_sweep_with_report(configs, threads, init, f).0
}

/// [`par_sweep_with`] plus the execution report: how many workers
/// actually ran (after clamping), the grain, and the steal count — so
/// benches compute efficiency against workers used, never requested.
pub fn par_sweep_with_report<C, R, S, I, F>(
    configs: &[C],
    threads: usize,
    init: I,
    f: F,
) -> (Vec<R>, SweepReport)
where
    C: Sync,
    R: Send + Default + Clone,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &C) -> R + Sync,
{
    pool::sweep(configs, threads, 0, init, f)
}

/// Seed of Monte Carlo replication `rep` for a plan whose own seed is
/// `base`. Replication 0 **is** the plan's seed, so the first
/// replication of any sweep reproduces the classic single-seed run bit
/// for bit; later replications are splitmix-scrambled so neighbouring
/// replications share no stream structure. Pure function of
/// `(base, rep)` — workers can derive any replication independently,
/// which is what makes parallel sweeps order-insensitive.
pub fn replication_seed(base: u64, rep: u64) -> u64 {
    if rep == 0 {
        return base;
    }
    let mut z = base.wrapping_add(rep.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Welford online accumulator: mean/variance plus min/max in O(1) space,
/// no sample storage. Pushing the same values in the same order always
/// produces bitwise-identical state, which is how parallel sweeps stay
/// bit-identical to serial ones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    lo: f64,
    hi: f64,
}

impl OnlineStats {
    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            self.lo = x;
            self.hi = x;
        } else {
            self.lo = self.lo.min(x);
            self.hi = self.hi.max(x);
        }
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Samples folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0.0 below two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.lo
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.hi
    }
}

/// Per-configuration result of a Monte Carlo fault sweep: online
/// statistics over the replications plus the summed raw accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSweepStats {
    /// Replications folded in.
    pub replications: usize,
    /// Committed makespan per replication, in ns.
    pub makespan: OnlineStats,
    /// [`FaultReport::wall_clock_ns`] per replication (differs from
    /// `makespan` only on the recovery path).
    pub wall_clock: OnlineStats,
    /// [`FaultReport::delivered_fraction`] per replication.
    pub delivered: OnlineStats,
    /// Every replication's report summed ([`FaultReport::absorb`]) —
    /// total attempts, retries, black holes, rollbacks, … across the
    /// whole sample.
    pub total: FaultReport,
}

impl FaultSweepStats {
    /// Fold one replication's report in.
    pub fn push(&mut self, rep: &FaultReport) {
        self.replications += 1;
        self.makespan.push(rep.makespan as f64);
        self.wall_clock.push(rep.wall_clock_ns() as f64);
        self.delivered.push(rep.delivered_fraction());
        self.total.absorb(rep);
    }

    /// Mean makespan inflation over a healthy baseline.
    pub fn inflation(&self, healthy_ns: u64) -> f64 {
        self.makespan.mean() / healthy_ns.max(1) as f64
    }
}

/// Monte Carlo sweep over fault plans: for every plan, replay the phase
/// set under `replications` derived seeds ([`replication_seed`]) on the
/// compiled engine ([`FaultSim`]) and fold the reports into
/// [`FaultSweepStats`]. With `ckpt = None` every replication is a faulty
/// run ([`FaultSim::run_faulty`]: deaths black-hole their traffic); with
/// `Some(policy)` it goes through checkpoint/rollback recovery
/// ([`FaultSim::run_recovering`]). Either way it is scheduled per
/// `sched`.
///
/// Work units are sharded at **plan×seed** granularity over the shared
/// work-stealing pool — each worker holds one engine that is recompiled
/// only when its claimed block crosses a plan boundary
/// ([`FaultSim::set_plan`]; the phase compilation is reused) — and the
/// per-replication reports are refolded serially in `(plan, rep)` order,
/// so [`OnlineStats`] sees the exact push order of a serial run and the
/// result is **bit-identical** whatever `threads` is. The pool's
/// [`SweepReport`] comes back alongside.
pub fn par_fault_sweep(
    mesh: &Mesh2D,
    phases: &[Vec<PMsg>],
    plans: &[FaultPlan],
    ckpt: Option<&CheckpointPolicy>,
    replications: usize,
    threads: usize,
    sched: SchedulePolicy,
) -> (Vec<FaultSweepStats>, SweepReport) {
    if plans.is_empty() || replications == 0 {
        let report = SweepReport {
            requested: threads,
            workers: threads.clamp(1, plans.len().max(1)),
            ..SweepReport::default()
        };
        return (vec![FaultSweepStats::default(); plans.len()], report);
    }
    let tasks: Vec<u32> = (0..(plans.len() * replications) as u32).collect();
    let (reports, exec) = pool::sweep(
        &tasks,
        threads,
        0,
        || None::<(FaultSim, usize)>,
        |state, &t| {
            let (plan_idx, rep) = (t as usize / replications, t as usize % replications);
            let plan = &plans[plan_idx];
            let (engine, current) =
                state.get_or_insert_with(|| (FaultSim::new(mesh, phases, plan), plan_idx));
            if *current != plan_idx {
                engine.set_plan(plan);
                *current = plan_idx;
            }
            let seed = replication_seed(plan.seed, rep as u64);
            match ckpt {
                None => engine.run_faulty(seed, sched),
                Some(policy) => engine.run_recovering(policy, seed, sched),
            }
        },
    );
    let mut stats = vec![FaultSweepStats::default(); plans.len()];
    for (t, report) in reports.iter().enumerate() {
        stats[t / replications].push(report);
    }
    (stats, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh2D;
    use crate::model::{CostModel, PMsg};
    use crate::phasesim::PhaseSim;

    #[test]
    fn preserves_order_and_values() {
        let configs: Vec<u64> = (0..100).collect();
        let got = par_sweep_with(&configs, 8, || (), |(), &c| c * 2);
        let want: Vec<u64> = configs.iter().map(|c| c * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let configs: Vec<usize> = (1..20).collect();
        let f = |&n: &usize| {
            let m = Mesh2D::new(4, 4, CostModel::paragon());
            let msgs: Vec<PMsg> = (0..n)
                .map(|i| PMsg {
                    src: i % 16,
                    dst: (i * 7 + 3) % 16,
                    bytes: 64,
                })
                .collect();
            m.simulate_phase(&msgs)
        };
        assert_eq!(
            par_sweep_with(&configs, 1, || (), |(), c| f(c)),
            par_sweep_with(&configs, 7, || (), |(), c| f(c))
        );
    }

    #[test]
    fn empty_input() {
        let got: Vec<u64> = par_sweep_with(&Vec::<u64>::new(), 4, || (), |(), &c| c);
        assert!(got.is_empty());
    }

    #[test]
    fn more_threads_than_work() {
        let configs = vec![1u64, 2];
        assert_eq!(
            par_sweep_with(&configs, 64, || (), |(), &c| c + 1),
            vec![2, 3]
        );
    }

    #[test]
    fn mttf_schedule_is_deterministic_and_bounded() {
        let a = mttf_death_schedule(32, 10_000, 200_000, 0xfeed);
        let b = mttf_death_schedule(32, 10_000, 200_000, 0xfeed);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty());
        assert!(a.len() <= 16, "never kills more than half the machine");
        // Distinct nodes, strictly increasing strike times.
        for w in a.windows(2) {
            assert!(w[0].t < w[1].t);
        }
        let mut nodes: Vec<usize> = a.iter().map(|d| d.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), a.len());
        // A horizon shorter than the MTTF schedules nothing.
        assert!(mttf_death_schedule(32, 300_000, 200_000, 1).is_empty());
        // A zero MTTF is clamped instead of looping forever.
        assert_eq!(mttf_death_schedule(4, 0, 10, 1).len(), 2);
    }

    #[test]
    fn sweep_with_scratch_state_matches_plain() {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases: Vec<Vec<PMsg>> = (0..12)
            .map(|k| {
                (0..k + 1)
                    .map(|i| PMsg {
                        src: i % 32,
                        dst: (i * 5 + k) % 32,
                        bytes: 64 + k as u64,
                    })
                    .collect()
            })
            .collect();
        let plain = par_sweep_with(&phases, 3, || (), |(), p| mesh.simulate_phase(p));
        let scratch = par_sweep_with(
            &phases,
            3,
            || PhaseSim::new(mesh.clone()),
            |sim, p| sim.simulate_phase(p),
        );
        assert_eq!(plain, scratch);
    }

    #[test]
    fn replication_seed_is_stable_and_spread() {
        assert_eq!(replication_seed(42, 0), 42, "replication 0 is the base");
        let a = replication_seed(42, 1);
        let b = replication_seed(42, 2);
        assert_ne!(a, b);
        assert_ne!(a, 42);
        assert_eq!(a, replication_seed(42, 1), "pure function");
        // Neighbouring bases at the same replication stay distinct.
        assert_ne!(replication_seed(42, 1), replication_seed(43, 1));
    }

    #[test]
    fn online_stats_match_two_pass() {
        let xs = [3.0f64, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::default();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        let empty = OnlineStats::default();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.variance(), 0.0);
        let mut one = OnlineStats::default();
        one.push(7.0);
        assert_eq!(one.variance(), 0.0);
        assert_eq!((one.min(), one.max()), (7.0, 7.0));
    }

    #[test]
    fn fault_sweep_parallel_is_bit_identical_to_serial() {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases: Vec<Vec<PMsg>> = (0..4)
            .map(|k| {
                (0..20)
                    .map(|i| PMsg {
                        src: (i * 3 + k) % 32,
                        dst: (i * 11 + 5) % 32,
                        bytes: 64 + i as u64,
                    })
                    .collect()
            })
            .collect();
        let plans: Vec<FaultPlan> = [0.0, 0.2, 0.8]
            .iter()
            .enumerate()
            .map(|(i, &p)| FaultPlan::with_drop(40 + i as u64, p))
            .collect();
        let sched = SchedulePolicy::default();
        let serial = par_fault_sweep(&mesh, &phases, &plans, None, 6, 1, sched).0;
        for threads in [2, 3, 8] {
            assert_eq!(
                serial,
                par_fault_sweep(&mesh, &phases, &plans, None, 6, threads, sched).0,
                "threads = {threads}"
            );
        }
        // Replication 0 of each config is the plan's own seed: the sweep
        // brackets the classic single-seed run.
        for (plan, stats) in plans.iter().zip(&serial) {
            assert_eq!(stats.replications, 6);
            let classic = crate::reference::simulate(&mesh, &phases, plan, sched, None);
            assert!(stats.makespan.min() <= classic.makespan as f64);
            assert!(stats.makespan.max() >= classic.makespan as f64);
            assert_eq!(stats.total.messages, 6 * classic.messages);
        }
        assert!(serial[0].inflation(serial[0].makespan.mean() as u64) > 0.9);
    }

    #[test]
    fn recovery_sweep_parallel_is_bit_identical_to_serial() {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases: Vec<Vec<PMsg>> = (0..8)
            .map(|k| {
                (0..12)
                    .map(|i| PMsg {
                        src: (i * 7 + k) % 32,
                        dst: (i * 5 + 1) % 32,
                        bytes: 100,
                    })
                    .collect()
            })
            .collect();
        let healthy = mesh.simulate_phases(&phases);
        let plans: Vec<FaultPlan> = (0..2)
            .map(|i| FaultPlan {
                seed: 9 + i,
                node_deaths: mttf_death_schedule(32, healthy / 3, healthy, 77 + i),
                detection_latency: 5_000,
                ..FaultPlan::none()
            })
            .collect();
        let policy = CheckpointPolicy::default();
        let sched = SchedulePolicy::default();
        let ckpt = Some(&policy);
        let serial = par_fault_sweep(&mesh, &phases, &plans, ckpt, 4, 1, sched).0;
        assert_eq!(
            serial,
            par_fault_sweep(&mesh, &phases, &plans, ckpt, 4, 4, sched).0
        );
        for stats in &serial {
            assert_eq!(stats.replications, 4);
            assert_eq!(stats.total.delivered, stats.total.messages);
            assert!(stats.total.recovery.all_recovered());
            assert!(stats.wall_clock.mean() >= stats.makespan.mean());
        }
    }
}
