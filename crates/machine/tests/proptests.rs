//! Property tests for the machine simulators: scheduling invariants that
//! must hold whatever the message set.

use proptest::prelude::*;
use rescomm_machine::{
    par_fault_sweep, reference, replication_seed, trace_phase, CachedPhase, CheckpointPolicy,
    CompiledFaultPlan, CostModel, FatTree, FaultPlan, FaultReport, FaultSim, LinkOutage, Mesh2D,
    NodeDeath, NodeOutage, OverlapOrder, PMsg, PhaseSim, RetryPolicy, ScheduleMode, SchedulePolicy,
    LANES,
};

const PHASED: SchedulePolicy = SchedulePolicy::Fixed(ScheduleMode::Phased);

/// Every schedule policy the fault engines dispatch over — indexed so
/// proptest can draw one without a float strategy.
fn policy(idx: u32) -> SchedulePolicy {
    match idx % 4 {
        0 => SchedulePolicy::Fixed(ScheduleMode::Phased),
        1 => SchedulePolicy::Fixed(ScheduleMode::overlapped()),
        2 => SchedulePolicy::Fixed(ScheduleMode::Overlapped(OverlapOrder::LongestFirst)),
        _ => SchedulePolicy::Adaptive {
            inflation_threshold: 1.2,
        },
    }
}

/// One engine run of `plan` at its own seed: faulty (`ckpt = None`) or
/// recovering.
fn engine_run(
    mesh: &Mesh2D,
    phases: &[Vec<PMsg>],
    plan: &FaultPlan,
    sched: SchedulePolicy,
    ckpt: Option<&CheckpointPolicy>,
) -> FaultReport {
    let mut engine = FaultSim::new(mesh, phases, plan);
    match ckpt {
        None => engine.run_faulty(plan.seed, sched),
        Some(c) => engine.run_recovering(c, plan.seed, sched),
    }
}

/// Busiest-link floor of a healthy schedule: the maximum over links of
/// the summed `p2p` time of the XY traffic crossing it.
fn link_floor(mesh: &Mesh2D, phases: &[Vec<PMsg>]) -> u64 {
    let mut load = vec![0u64; mesh.link_count()];
    for m in phases.iter().flatten().filter(|m| m.src != m.dst) {
        let dur = mesh.cost.p2p(mesh.hops(m.src, m.dst), m.bytes);
        for l in mesh.route_links(m.src, m.dst) {
            load[l.index()] += dur;
        }
    }
    load.into_iter().max().unwrap_or(0)
}

fn msgs(n_nodes: usize) -> impl Strategy<Value = Vec<PMsg>> {
    proptest::collection::vec((0..n_nodes, 0..n_nodes, 1u64..512), 0..24).prop_map(|v| {
        v.into_iter()
            .map(|(s, d, b)| PMsg {
                src: s,
                dst: d,
                bytes: b,
            })
            .collect()
    })
}

/// Arbitrary fault plans for an 8×4 mesh (104 directed links, 32 nodes).
/// The shim has no float strategies, so probabilities are drawn as
/// integer percentages.
fn plans() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..1_000_000, 0u32..101, 0u32..101),
        proptest::collection::vec((0usize..104, 0u64..200_000, 1u64..400_000), 0..4),
        proptest::collection::vec((0usize..32, 0u64..200_000, 1u64..400_000), 0..3),
        (1u64..100_000, 1u32..4, 1u32..8),
    )
        .prop_map(
            |((seed, drop, dup), links, nodes, (timeout, backoff, max_attempts))| FaultPlan {
                seed,
                drop_prob: f64::from(drop) / 100.0,
                dup_prob: f64::from(dup) / 100.0,
                link_outages: links
                    .into_iter()
                    .map(|(link, from, dur)| LinkOutage {
                        link,
                        from,
                        until: from + dur,
                    })
                    .collect(),
                node_outages: nodes
                    .into_iter()
                    .map(|(node, from, dur)| NodeOutage {
                        node,
                        from,
                        until: from + dur,
                    })
                    .collect(),
                retry: RetryPolicy {
                    enabled: true,
                    timeout,
                    backoff,
                    max_attempts,
                },
                ..FaultPlan::none()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Makespan ≥ the contention-free lower bound (the longest single
    /// message), and 0 only for empty/local-only phases.
    #[test]
    fn mesh_makespan_bounds(ms in msgs(32)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let t = mesh.simulate_phase(&ms);
        let lb = ms
            .iter()
            .filter(|m| m.src != m.dst)
            .map(|m| mesh.cost.p2p(mesh.hops(m.src, m.dst), m.bytes))
            .max()
            .unwrap_or(0);
        prop_assert!(t >= lb);
        // Upper bound: full serialization of everything.
        let ub: u64 = ms
            .iter()
            .filter(|m| m.src != m.dst)
            .map(|m| mesh.cost.p2p(mesh.hops(m.src, m.dst), m.bytes))
            .sum();
        prop_assert!(t <= ub, "makespan {t} above serialization bound {ub}");
    }

    /// Adding a message never shrinks the makespan.
    #[test]
    fn mesh_monotone_in_messages(ms in msgs(32), extra in (0usize..32, 0usize..32, 1u64..512)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let base = mesh.simulate_phase(&ms);
        let mut more = ms.clone();
        more.push(PMsg { src: extra.0, dst: extra.1, bytes: extra.2 });
        prop_assert!(mesh.simulate_phase(&more) >= base);
    }

    /// Growing every payload never shrinks the makespan.
    #[test]
    fn mesh_monotone_in_bytes(ms in msgs(32)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let base = mesh.simulate_phase(&ms);
        let bigger: Vec<PMsg> = ms.iter().map(|m| PMsg { bytes: m.bytes * 2, ..*m }).collect();
        prop_assert!(mesh.simulate_phase(&bigger) >= base);
    }

    /// The trace agrees with the simulation and its bottleneck bound.
    #[test]
    fn trace_consistent(ms in msgs(32)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let t = trace_phase(&mesh, &ms);
        prop_assert_eq!(t.makespan, mesh.simulate_phase(&ms));
        prop_assert!(t.makespan >= t.bottleneck_bound());
    }

    /// Fat-tree scheduling shares the same monotonicity.
    #[test]
    fn fattree_monotone(ms in msgs(32)) {
        let ft = FatTree::new(32, 4, CostModel::cm5());
        let base = ft.simulate_phase(&ms);
        let bigger: Vec<PMsg> = ms.iter().map(|m| PMsg { bytes: m.bytes + 64, ..*m }).collect();
        prop_assert!(ft.simulate_phase(&bigger) >= base);
    }

    /// Determinism: the same message set (any order) gives one makespan,
    /// because the scheduler sorts internally.
    #[test]
    fn order_independent(ms in msgs(32)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut rev = ms.clone();
        rev.reverse();
        prop_assert_eq!(mesh.simulate_phase(&ms), mesh.simulate_phase(&rev));
    }

    /// Permutation invariance under an arbitrary rotation (not just
    /// reversal): the scheduler's internal sort erases input order.
    #[test]
    fn mesh_permutation_invariant(ms in msgs(32), rot in 0usize..24) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut perm = ms.clone();
        if !perm.is_empty() {
            let mid = rot % perm.len();
            perm.rotate_left(mid);
        }
        prop_assert_eq!(mesh.simulate_phase(&ms), mesh.simulate_phase(&perm));
    }

    /// The zero-alloc scratch engine is bit-identical to the oracle, even
    /// when reused across phases (stale reservations must never leak).
    #[test]
    fn phasesim_matches_oracle(a in msgs(32), b in msgs(32), c in msgs(32)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut sim = PhaseSim::new(mesh.clone());
        for ms in [&a, &b, &c] {
            prop_assert_eq!(sim.simulate_phase(ms), mesh.simulate_phase(ms));
        }
        // And once more in reverse order over the same engine.
        for ms in [&c, &a, &b] {
            prop_assert_eq!(sim.simulate_phase(ms), mesh.simulate_phase(ms));
        }
    }

    /// A precompiled phase replays to the oracle makespan, and uniform
    /// payload scaling through the cache equals simulating scaled messages.
    #[test]
    fn cached_phase_matches_oracle(ms in msgs(32), scale in 1u64..64) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let cached = CachedPhase::new(&mesh, &ms);
        let mut sim = PhaseSim::new(mesh.clone());
        let one = std::slice::from_ref(&cached);
        prop_assert_eq!(
            sim.run_cached_phases(one, ScheduleMode::Phased, 1),
            mesh.simulate_phase(&ms)
        );
        let scaled: Vec<PMsg> = ms
            .iter()
            .map(|m| PMsg { bytes: m.bytes * scale, ..*m })
            .collect();
        prop_assert_eq!(
            sim.run_cached_phases(one, ScheduleMode::Phased, scale),
            mesh.simulate_phase(&scaled)
        );
    }

    /// Independent phases fanned out over workers, one engine per
    /// worker, agree with per-phase oracle simulation at any thread count.
    #[test]
    fn batch_matches_oracle(a in msgs(32), b in msgs(32), threads in 1usize..6) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases = vec![a, b];
        let want: Vec<u64> = phases.iter().map(|p| mesh.simulate_phase(p)).collect();
        let (got, _) = sweep(
            &phases,
            threads,
            || PhaseSim::new(mesh.clone()),
            |sim, phase| sim.simulate_phase(phase),
        );
        prop_assert_eq!(got, want);
    }

    /// With retries enabled, *any* fault plan delivers every message
    /// exactly once (the attempt cap escalates to a reliable channel), the
    /// schedule never beats the fault-free one, and the same plan replays
    /// bit-identically.
    #[test]
    fn faulty_delivery_guarantee(ms in msgs(32), plan in plans()) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases = vec![ms.clone()];
        let rep = engine_run(&mesh, &phases, &plan, PHASED, None);
        prop_assert_eq!(rep.delivered, rep.messages, "exactly-once delivery");
        prop_assert_eq!(rep.lost, 0);
        prop_assert!(rep.delivered_fraction() == 1.0);
        prop_assert!(rep.attempts >= rep.messages as u64);
        prop_assert!(rep.makespan >= mesh.simulate_phase(&ms), "faults cannot speed up a phase");
        // Determinism: replaying the identical plan reproduces the report.
        prop_assert_eq!(rep, engine_run(&mesh, &phases, &plan, PHASED, None));
    }

    /// A zero-fault plan is bit-identical in makespan to the unfaulted
    /// scheduler (and hence to the `Mesh2D` oracle) on random phase sets.
    #[test]
    fn zero_fault_plan_bit_identical(a in msgs(32), b in msgs(32), seed in 0u64..1000) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut sim = PhaseSim::new(mesh.clone());
        let plan = FaultPlan { seed, ..FaultPlan::none() };
        prop_assert!(plan.is_zero_fault());
        for ms in [&a, &b] {
            let rep = engine_run(&mesh, std::slice::from_ref(ms), &plan, PHASED, None);
            prop_assert_eq!(rep.makespan, sim.simulate_phase(ms));
            prop_assert_eq!(rep.makespan, mesh.simulate_phase(ms));
            prop_assert_eq!(rep.retries + rep.duplicates + rep.reroutes + rep.deferrals, 0);
        }
        // Multi-phase: sums match too.
        let phases = vec![a.clone(), b.clone()];
        let rep = engine_run(&mesh, &phases, &plan, PHASED, None);
        prop_assert_eq!(rep.makespan, mesh.simulate_phases(&phases));
    }

    /// Without retries, every message is either delivered or counted lost —
    /// nothing vanishes from the accounting.
    #[test]
    fn no_retry_accounting_is_total(ms in msgs(32), plan in plans()) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let plan = FaultPlan { retry: RetryPolicy::disabled(), ..plan };
        let rep = engine_run(&mesh, &[ms], &plan, PHASED, None);
        prop_assert_eq!(rep.delivered + rep.lost, rep.messages);
        prop_assert_eq!(rep.escalations, 0);
        prop_assert_eq!(rep.retries, 0);
    }

    /// Checkpoint/restart under random deaths, transport faults and
    /// checkpoint policies: every death is detected and recovered exactly
    /// once, every message delivered to a live endpoint, and the whole
    /// run replays bit-identically.
    #[test]
    fn recovery_is_deterministic_and_exactly_once(
        a in msgs(32), b in msgs(32), c in msgs(32),
        plan in plans(),
        deaths in proptest::collection::vec((0usize..32, 0u64..2_000_000), 1..3),
        latency in 0u64..50_000,
        policy_raw in (1usize..6, 1usize..6),
    ) {
        let (interval, ring) = policy_raw;
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut plan = FaultPlan { detection_latency: latency, ..plan };
        for (node, t) in deaths {
            if !plan.node_deaths.iter().any(|d| d.node == node) {
                plan.node_deaths.push(NodeDeath { node, t });
            }
        }
        let phases = vec![a, b, c];
        let policy = CheckpointPolicy { interval, ring, ..CheckpointPolicy::default() };
        let rep = engine_run(&mesh, &phases, &plan, PHASED, Some(&policy));
        prop_assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        prop_assert!(rep.recovery.deaths <= plan.node_deaths.len());
        prop_assert_eq!(rep.delivered, rep.messages, "exactly-once delivery");
        prop_assert_eq!(rep.black_holes, 0, "folding leaves no black holes");
        prop_assert!(rep.wall_clock_ns() >= rep.makespan);
        prop_assert_eq!(rep, engine_run(&mesh, &phases, &plan, PHASED, Some(&policy)));
    }

    /// With no deaths in the plan, the recovering driver is bit-identical
    /// to the plain faulty simulator — checkpointing costs nothing but
    /// the bookkeeping it reports.
    #[test]
    fn zero_death_recovery_bit_identity(
        a in msgs(32), b in msgs(32),
        plan in plans(),
        policy_raw in (1usize..6, 1usize..6),
    ) {
        let (interval, ring) = policy_raw;
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases = vec![a, b];
        let policy = CheckpointPolicy { interval, ring, ..CheckpointPolicy::default() };
        let rec = engine_run(&mesh, &phases, &plan, PHASED, Some(&policy));
        let base = engine_run(&mesh, &phases, &plan, PHASED, None);
        prop_assert_eq!(rec.makespan, base.makespan);
        prop_assert_eq!(rec.delivered, base.delivered);
        prop_assert_eq!(rec.lost, base.lost);
        prop_assert_eq!(rec.recovery.rollbacks, 0);
        prop_assert_eq!(rec.recovery.lost_work_ns, 0);
        prop_assert!(rec.recovery.checkpoints > 0);
    }

    /// The compiled plan answers every outage/liveness query exactly like
    /// the per-call scans it replaces, and both agree on the half-open
    /// windows and the death boundary: a link is down at `t` exactly when
    /// a raw window holds `t`, a node exactly when a window holds `t` or
    /// its death is at or before `t`.
    #[test]
    fn compiled_plan_lookups_match(
        plan in plans(),
        deaths in proptest::collection::vec((0usize..32, 0u64..500_000), 0..3),
        queries in proptest::collection::vec((0usize..104, 0usize..32, 0u64..600_000), 0..32),
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut plan = plan;
        for (node, t) in deaths {
            plan.node_deaths.push(NodeDeath { node, t });
        }
        let compiled = CompiledFaultPlan::new(&plan, &mesh);
        for (link, node, t) in queries {
            let link_down = plan
                .link_outages
                .iter()
                .any(|o| o.link == link && o.from <= t && t < o.until);
            let node_down = plan
                .node_outages
                .iter()
                .any(|o| o.node == node && o.from <= t && t < o.until)
                || plan.node_deaths.iter().any(|d| d.node == node && t >= d.t);
            let until = compiled.link_outage_until(link, t);
            prop_assert_eq!(until, plan.link_outage_until(link, t));
            prop_assert_eq!(until.is_some(), link_down);
            let alive = compiled.node_alive_after(node, t);
            prop_assert_eq!(alive, plan.node_alive_after(node, t));
            prop_assert_eq!(alive != t, node_down);
        }
    }

    /// The engine's faulty replay produces the full `FaultReport` the
    /// reference oracle produces, for every seed of a batch and under
    /// every schedule policy, over random plans that exercise drops,
    /// duplicates, reroutes, deferrals and black holes. Batches run past
    /// one lane group, so the per-seed path is checked at batch sizes
    /// the lane path would split.
    #[test]
    fn compiled_faulty_replay_bit_identical(
        a in msgs(32), b in msgs(32), c in msgs(32),
        plan in plans(),
        deaths in proptest::collection::vec((0usize..32, 0u64..2_000_000), 0..3),
        no_retry in 0u32..2,
        sched_idx in 0u32..4,
        seeds in proptest::collection::vec(0u64..1_000_000, 1..LANES + 4),
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut plan = plan;
        if no_retry == 1 {
            plan.retry = RetryPolicy::disabled();
        }
        for (node, t) in deaths {
            plan.node_deaths.push(NodeDeath { node, t });
        }
        let sched = policy(sched_idx);
        let phases = vec![a, b, c];
        let mut engine = FaultSim::new(&mesh, &phases, &plan);
        let batch = engine.replay_faulty(&seeds, sched);
        for (&seed, got) in seeds.iter().zip(&batch) {
            let seeded = FaultPlan { seed, ..plan.clone() };
            prop_assert_eq!(
                *got,
                reference::simulate(&mesh, &phases, &seeded, sched, None),
                "seed {} sched {:?}", seed, sched
            );
        }
    }

    /// The lane path of `replay_faulty` (a drop/dup-only plan under
    /// `Phased` or `Overlapped(Sorted)`) reproduces the reference oracle
    /// and the per-seed `run_faulty`, seed for seed, at every batch size
    /// from 1 to two lane groups plus one, so partial groups are
    /// covered. Drop rates include 0 % and 100 %; retries run with the
    /// drawn policy, disabled, or capped at one attempt.
    #[test]
    fn lane_replay_bit_identical(
        a in msgs(32), b in msgs(32), c in msgs(32),
        base in 0u64..1_000_000,
        drop_raw in 0u32..121,
        dup_pct in 0u32..101,
        retry_raw in (0u32..3, 1u64..100_000, 1u32..4, 1u32..8),
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        // 101..=110 pins drop 0 % and 111..=120 drop 100 %.
        let drop_pct = match drop_raw {
            0..=100 => drop_raw,
            101..=110 => 0,
            _ => 100,
        };
        let (retry_kind, timeout, backoff, max_attempts) = retry_raw;
        let retry = match retry_kind {
            0 => RetryPolicy { enabled: true, timeout, backoff, max_attempts },
            1 => RetryPolicy::disabled(),
            _ => RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        };
        let plan = FaultPlan {
            dup_prob: f64::from(dup_pct) / 100.0,
            retry,
            ..FaultPlan::with_drop(base, f64::from(drop_pct) / 100.0)
        };
        let phases = vec![a, b, c];
        let seeds: Vec<u64> = (0..2 * LANES as u64 + 1).map(|r| replication_seed(base, r)).collect();
        let mut engine = FaultSim::new(&mesh, &phases, &plan);
        for sched in [PHASED, SchedulePolicy::Fixed(ScheduleMode::overlapped())] {
            let want: Vec<FaultReport> = seeds
                .iter()
                .map(|&seed| {
                    let seeded = FaultPlan { seed, ..plan.clone() };
                    let rep = reference::simulate(&mesh, &phases, &seeded, sched, None);
                    assert_eq!(engine.run_faulty(seed, sched), rep, "run_faulty seed {seed}");
                    rep
                })
                .collect();
            for n in 1..=seeds.len() {
                prop_assert_eq!(
                    engine.replay_faulty(&seeds[..n], sched),
                    &want[..n],
                    "{} seeds under {:?}", n, sched
                );
            }
        }
    }

    /// The engine's recovering replay is bit-identical (full report,
    /// `RecoveryReport` included) to the reference oracle over random
    /// plans, deaths, detection latencies, retry settings, checkpoint
    /// policies, seeds and schedule policies.
    #[test]
    fn compiled_recovering_replay_bit_identical(
        a in msgs(32), b in msgs(32), c in msgs(32),
        plan in plans(),
        deaths in proptest::collection::vec((0usize..32, 0u64..2_000_000), 1..3),
        latency in 0u64..50_000,
        policy_raw in (1usize..6, 1usize..6),
        no_retry in 0u32..2,
        sched_idx in 0u32..4,
        seeds in proptest::collection::vec(0u64..1_000_000, 1..3),
    ) {
        let (interval, ring) = policy_raw;
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut plan = FaultPlan { detection_latency: latency, ..plan };
        if no_retry == 1 {
            plan.retry = RetryPolicy::disabled();
        }
        for (node, t) in deaths {
            plan.node_deaths.push(NodeDeath { node, t });
        }
        let sched = policy(sched_idx);
        let phases = vec![a, b, c];
        let policy = CheckpointPolicy { interval, ring, ..CheckpointPolicy::default() };
        let mut engine = FaultSim::new(&mesh, &phases, &plan);
        let batch = engine.replay_recovering(&policy, &seeds, sched);
        for (&seed, got) in seeds.iter().zip(&batch) {
            let seeded = FaultPlan { seed, ..plan.clone() };
            prop_assert_eq!(
                *got,
                reference::simulate(&mesh, &phases, &seeded, sched, Some(&policy)),
                "seed {} sched {:?}", seed, sched
            );
        }
    }

    /// Per-phase seed derivation (`seed + index`): a phased whole-run
    /// report is the `absorb` of single-phase runs at `seed + i`, so
    /// replacing one phase leaves every other phase's contribution
    /// bit-identical, and appending a phase never shifts the existing
    /// ones.
    #[test]
    fn batch_replay_per_phase_seed_stability(
        a in msgs(32), b in msgs(32), c in msgs(32),
        replacement in msgs(32),
        plan in plans(),
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let single = |i: usize, phase: &Vec<PMsg>| {
            let seed = plan.seed.wrapping_add(i as u64);
            FaultSim::new(&mesh, std::slice::from_ref(phase), &plan).run_faulty(seed, PHASED)
        };
        let absorbed = |reps: &[FaultReport]| {
            let mut total = FaultReport::default();
            for rep in reps {
                total.absorb(rep);
            }
            total
        };
        let whole = |phases: &[Vec<PMsg>]| engine_run(&mesh, phases, &plan, PHASED, None);
        let base: Vec<FaultReport> =
            [&a, &b, &c].into_iter().enumerate().map(|(i, p)| single(i, p)).collect();
        prop_assert_eq!(whole(&[a.clone(), b.clone(), c.clone()]), absorbed(&base));
        // Replace the middle phase: phases 0 and 2 contribute as before.
        let swapped = [base[0], single(1, &replacement), base[2]];
        prop_assert_eq!(
            whole(&[a.clone(), replacement.clone(), c.clone()]),
            absorbed(&swapped)
        );
        // Append a phase: the first three contribute as before.
        let extended = [base[0], base[1], base[2], single(3, &replacement)];
        prop_assert_eq!(whole(&[a, b, c, replacement]), absorbed(&extended));
    }

    /// Physical floor, in the lower-bound framing of Christ et al. (2013):
    /// no schedule beats its busiest link. Without link outages every
    /// transmission holds its XY route, so every schedule mode and every
    /// drop/dup-only faulty run takes at least the busiest-link floor of
    /// the whole plan, and phased runs at least the sum of the per-phase
    /// floors.
    #[test]
    fn makespan_respects_busiest_link_floor(
        a in msgs(32), b in msgs(32), c in msgs(32),
        seed in 0u64..1_000_000,
        drop_pct in 0u32..101,
        dup_pct in 0u32..101,
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases = vec![a, b, c];
        let whole = link_floor(&mesh, &phases);
        let phased: u64 = phases.iter().map(|p| link_floor(&mesh, std::slice::from_ref(p))).sum();
        let mut sim = PhaseSim::new(mesh.clone());
        for idx in 0..4u32 {
            let mode = policy(idx).healthy_mode();
            let t = sim.simulate_phases_mode(&phases, mode);
            prop_assert!(t >= whole, "{:?}: {} below link floor {}", mode, t, whole);
            if mode == ScheduleMode::Phased {
                prop_assert!(t >= phased, "phased {} below per-phase floors {}", t, phased);
            }
        }
        let plan = FaultPlan {
            dup_prob: f64::from(dup_pct) / 100.0,
            ..FaultPlan::with_drop(seed, f64::from(drop_pct) / 100.0)
        };
        let mut engine = FaultSim::new(&mesh, &phases, &plan);
        let seeds: Vec<u64> = (0..3).map(|r| replication_seed(seed, r)).collect();
        for idx in 0..4u32 {
            let sched = policy(idx);
            for rep in engine.replay_faulty(&seeds, sched) {
                prop_assert!(rep.makespan >= whole, "{:?}: {} below {}", sched, rep.makespan, whole);
                if sched == PHASED {
                    prop_assert!(rep.makespan >= phased);
                }
            }
        }
    }

    /// `par_fault_sweep` is bit-identical to serial evaluation order at
    /// any thread count, and replication 0 of every configuration is the
    /// plan's own single-seed run.
    #[test]
    fn par_fault_sweep_bit_identical_to_serial(
        a in msgs(32), b in msgs(32),
        plan_seeds in proptest::collection::vec(0u64..1_000_000, 1..4),
        drop_pct in 0u32..101,
        replications in 1usize..4,
        threads in 2usize..6,
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases = vec![a, b];
        let plans: Vec<FaultPlan> = plan_seeds
            .iter()
            .map(|&seed| FaultPlan::with_drop(seed, f64::from(drop_pct) / 100.0))
            .collect();
        let sched = SchedulePolicy::default();
        let serial = par_fault_sweep(&mesh, &phases, &plans, None, replications, 1, sched).0;
        let parallel = par_fault_sweep(&mesh, &phases, &plans, None, replications, threads, sched).0;
        prop_assert_eq!(&serial, &parallel);
        for (plan, stats) in plans.iter().zip(&serial) {
            prop_assert_eq!(stats.replications, replications);
            prop_assert_eq!(replication_seed(plan.seed, 0), plan.seed);
            let classic = engine_run(&mesh, &phases, plan, PHASED, None);
            prop_assert!(stats.makespan.min() <= classic.makespan as f64);
            prop_assert!(stats.makespan.max() >= classic.makespan as f64);
        }
    }

    /// The overlapped scheduler (default order) never exceeds the phased
    /// makespan, never beats the slowest standalone phase, is
    /// deterministic across engine reuse, and `Phased` mode stays
    /// bit-identical to `simulate_phases`.
    #[test]
    fn overlapped_bounded_by_phased(a in msgs(32), b in msgs(32), c in msgs(32)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut sim = PhaseSim::new(mesh.clone());
        let phases = vec![a, b, c];
        let phased = sim.simulate_phases(&phases);
        prop_assert_eq!(sim.simulate_phases_mode(&phases, ScheduleMode::Phased), phased);
        prop_assert_eq!(phased, mesh.simulate_phases(&phases));
        let over = sim.simulate_phases_mode(&phases, ScheduleMode::overlapped());
        prop_assert!(over <= phased, "overlapped {over} beats phased {phased} the wrong way");
        // Relaxing barriers cannot beat the slowest phase run alone.
        let slowest = phases.iter().map(|p| mesh.simulate_phase(p)).max().unwrap_or(0);
        prop_assert!(over >= slowest, "overlapped {over} below slowest phase {slowest}");
        // Determinism across scratch reuse.
        prop_assert_eq!(over, sim.simulate_phases_mode(&phases, ScheduleMode::overlapped()));
    }

    /// Dependency safety, both orders: no message starts before every
    /// inflow of its source node from all earlier phases has arrived,
    /// and the reported makespan is exactly the last arrival.
    #[test]
    fn overlapped_dependency_safety(a in msgs(32), b in msgs(32), c in msgs(32), longest in 0u32..2) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let order = if longest == 1 { OverlapOrder::LongestFirst } else { OverlapOrder::Sorted };
        let mut sim = PhaseSim::new(mesh.clone());
        let phases = vec![a, b, c];
        let (makespan, events) = sim.simulate_phases_overlapped_traced(&phases, order);
        prop_assert_eq!(makespan, events.iter().map(|e| e.end).max().unwrap_or(0));
        for e in &events {
            // Inflows of the source node across *all* earlier phases —
            // readiness accumulates, it is not reset per phase.
            let inflow = events
                .iter()
                .filter(|p| p.phase < e.phase && p.msg.dst == e.msg.src)
                .map(|p| p.end)
                .max()
                .unwrap_or(0);
            prop_assert!(e.ready >= inflow, "released at {} before inflow {}", e.ready, inflow);
            prop_assert!(e.start >= e.ready);
            prop_assert!(e.end > e.start);
        }
    }

    /// A single-phase plan schedules bit-identically under phased and
    /// (default) overlapped modes — with no previous phase, every node is
    /// ready at t=0 and the greedy order coincides.
    #[test]
    fn overlapped_single_phase_identical(ms in msgs(32)) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut sim = PhaseSim::new(mesh.clone());
        let phases = vec![ms];
        let phased = sim.simulate_phases(&phases);
        prop_assert_eq!(sim.simulate_phases_mode(&phases, ScheduleMode::overlapped()), phased);
    }

    /// Cached multi-phase replay under every mode equals direct
    /// simulation of the uniformly scaled plan.
    #[test]
    fn cached_schedule_replay_bit_identical(
        a in msgs(32), b in msgs(32),
        scale in 1u64..64,
        longest in 0u32..2,
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let phases = [a, b];
        let cached: Vec<CachedPhase> =
            phases.iter().map(|p| CachedPhase::new(&mesh, p)).collect();
        let scaled: Vec<Vec<PMsg>> = phases
            .iter()
            .map(|p| p.iter().map(|m| PMsg { bytes: m.bytes * scale, ..*m }).collect())
            .collect();
        let order = if longest == 1 { OverlapOrder::LongestFirst } else { OverlapOrder::Sorted };
        let mut sim = PhaseSim::new(mesh.clone());
        for mode in [ScheduleMode::Phased, ScheduleMode::Overlapped(order)] {
            prop_assert_eq!(
                sim.run_cached_phases(&cached, mode, scale),
                sim.simulate_phases_mode(&scaled, mode)
            );
        }
    }

    /// A zero-fault plan under the overlapped engines is bit-identical
    /// in makespan to the fault-free overlapped scheduler, under both
    /// orders and under every policy dispatch; the adaptive policy
    /// never degrades without fault inflation.
    #[test]
    fn zero_fault_overlapped_bit_identical(
        a in msgs(32), b in msgs(32), c in msgs(32),
        seed in 0u64..1000,
        longest in 0u32..2,
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut sim = PhaseSim::new(mesh.clone());
        let plan = FaultPlan { seed, ..FaultPlan::none() };
        prop_assert!(plan.is_zero_fault());
        let phases = vec![a, b, c];
        let order = if longest == 1 { OverlapOrder::LongestFirst } else { OverlapOrder::Sorted };
        let mode = ScheduleMode::Overlapped(order);
        let healthy = sim.simulate_phases_mode(&phases, mode);
        let rep = engine_run(&mesh, &phases, &plan, SchedulePolicy::Fixed(mode), None);
        prop_assert_eq!(rep.makespan, healthy);
        prop_assert_eq!(rep.delivered, rep.messages);
        prop_assert_eq!(rep.retries + rep.duplicates + rep.reroutes + rep.deferrals, 0);
        prop_assert_eq!(rep.downgrades, 0);
        // Every policy agrees with the mode it names.
        for idx in 0..4u32 {
            let sched = policy(idx);
            let got = engine_run(&mesh, &phases, &plan, sched, None);
            prop_assert_eq!(
                got.makespan,
                sim.simulate_phases_mode(&phases, sched.healthy_mode()),
                "sched {:?}", sched
            );
            prop_assert_eq!(got.downgrades, 0, "zero-fault run degraded: {:?}", sched);
        }
    }

    /// Recovery under overlap: every death detected and survived, every
    /// message delivered exactly once to a live survivor, the run
    /// replays bit-identically, and with no deaths the recovering
    /// driver is bit-identical to the overlapped faulty engine.
    #[test]
    fn overlapped_recovery_exactly_once_and_deterministic(
        a in msgs(32), b in msgs(32), c in msgs(32),
        plan in plans(),
        deaths in proptest::collection::vec((0usize..32, 0u64..2_000_000), 1..3),
        latency in 0u64..50_000,
        policy_raw in (1usize..6, 1usize..6),
        longest in 0u32..2,
    ) {
        let (interval, ring) = policy_raw;
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let order = if longest == 1 { OverlapOrder::LongestFirst } else { OverlapOrder::Sorted };
        let sched = SchedulePolicy::Fixed(ScheduleMode::Overlapped(order));
        let phases = vec![a, b, c];
        let ckpt = CheckpointPolicy { interval, ring, ..CheckpointPolicy::default() };
        // Zero-death: bit-identical to the overlapped faulty run.
        let rec = engine_run(&mesh, &phases, &plan, sched, Some(&ckpt));
        let base = engine_run(&mesh, &phases, &plan, sched, None);
        prop_assert_eq!(rec.makespan, base.makespan);
        prop_assert_eq!(rec.delivered, base.delivered);
        prop_assert_eq!(rec.recovery.rollbacks, 0);
        // With deaths: exactly-once, fully recovered, deterministic.
        let mut plan = FaultPlan { detection_latency: latency, ..plan };
        for (node, t) in deaths {
            if !plan.node_deaths.iter().any(|d| d.node == node) {
                plan.node_deaths.push(NodeDeath { node, t });
            }
        }
        let rep = engine_run(&mesh, &phases, &plan, sched, Some(&ckpt));
        prop_assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
        prop_assert_eq!(rep.delivered, rep.messages, "exactly-once delivery");
        prop_assert_eq!(rep.black_holes, 0, "folding leaves no black holes");
        prop_assert!(rep.wall_clock_ns() >= rep.makespan);
        prop_assert_eq!(rep, engine_run(&mesh, &phases, &plan, sched, Some(&ckpt)));
    }

    /// The Monte Carlo sweeps are bit-identical across thread counts
    /// under every schedule policy — overlapped and adaptive replication
    /// stays a pure function of `(plan, rep, sched)`.
    #[test]
    fn sweeps_thread_deterministic_under_every_policy(
        a in msgs(32), b in msgs(32), c in msgs(32),
        plan in plans(),
        deaths in proptest::collection::vec((0usize..32, 0u64..2_000_000), 0..2),
        sched_idx in 0u32..4,
        threads in 2usize..5,
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mut plan = plan;
        for (node, t) in deaths {
            plan.node_deaths.push(NodeDeath { node, t });
        }
        let sched = policy(sched_idx);
        let phases = vec![a, b, c];
        let plans = [plan.clone(), FaultPlan { seed: plan.seed ^ 0xbeef, ..plan.clone() }];
        let ckpt = CheckpointPolicy::default();
        let serial = par_fault_sweep(&mesh, &phases, &plans, None, 2, 1, sched).0;
        prop_assert_eq!(
            &serial,
            &par_fault_sweep(&mesh, &phases, &plans, None, 2, threads, sched).0
        );
        let serial_rec = par_fault_sweep(&mesh, &phases, &plans, Some(&ckpt), 2, 1, sched).0;
        prop_assert_eq!(
            &serial_rec,
            &par_fault_sweep(&mesh, &phases, &plans, Some(&ckpt), 2, threads, sched).0
        );
        // And the sweep's replication 0 is the engine's own run.
        let mut engine = FaultSim::new(&mesh, &phases, &plans[0]);
        let one = engine.run_faulty(replication_seed(plans[0].seed, 0), sched);
        prop_assert_eq!(serial[0].total.makespan >= one.makespan, true);
    }
}

// --- the parallel sweep (the determinism contract, end to end) -----------

use rescomm_machine::par_schedule_sweep;
use rescomm_machine::pool::{auto_grain, sweep};

/// A pure task of tunable cost: `w` multiply-add rounds over a seed.
fn spin(seed: u64, w: u64) -> u64 {
    let mut acc = seed ^ w;
    for i in 0..w {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

proptest! {
    /// The sweep itself: results land in input order and bit-identical
    /// to the serial map at any worker count and any task-cost skew — and
    /// the report tells the truth about the workers and grain actually
    /// used.
    #[test]
    fn pool_sweep_bit_identical_under_cost_skew(
        weights in proptest::collection::vec(0u64..3_000, 1..120),
        workers in 1usize..9,
    ) {
        let expect: Vec<u64> = weights.iter().map(|&w| spin(0x5eed, w)).collect();
        let (got, report) = sweep(
            &weights,
            workers,
            || 0u64,
            // The per-worker counter proves scratch-state reuse cannot
            // leak into results: the answer ignores it entirely.
            |calls, &w| {
                *calls += 1;
                spin(0x5eed, w)
            },
        );
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(report.requested, workers);
        prop_assert_eq!(report.workers, workers.clamp(1, weights.len()));
        prop_assert_eq!(report.tasks, weights.len());
        prop_assert_eq!(report.grain, auto_grain(weights.len(), report.workers));
    }

    /// The schedule sweep: bit-identical to its 1-worker run and to the
    /// per-scale oracle at any worker count.
    #[test]
    fn par_schedule_sweep_bit_identical_to_serial(
        a in msgs(32), b in msgs(32), c in msgs(32),
        scales in proptest::collection::vec(1u64..64, 1..12),
        workers in 2usize..7,
        mode_idx in 0u32..3,
    ) {
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let mode = match mode_idx {
            0 => ScheduleMode::Phased,
            1 => ScheduleMode::overlapped(),
            _ => ScheduleMode::Overlapped(OverlapOrder::LongestFirst),
        };
        let cached: Vec<CachedPhase> = [&a, &b, &c]
            .iter()
            .map(|p| CachedPhase::new(&mesh, p))
            .collect();
        let serial = par_schedule_sweep(&mesh, &cached, mode, &scales, 1);
        prop_assert_eq!(
            &serial,
            &par_schedule_sweep(&mesh, &cached, mode, &scales, workers)
        );
        let mut sim = PhaseSim::new(mesh.clone());
        for (&scale, &got) in scales.iter().zip(&serial) {
            prop_assert_eq!(sim.run_cached_phases(&cached, mode, scale), got);
        }
    }
}
