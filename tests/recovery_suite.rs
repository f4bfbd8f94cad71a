//! End-to-end recovery suite: the paper pipeline's communication plans
//! driven through the machine's checkpoint/restart engine, and the
//! degraded-grid remap validated across the kernel zoo.
//!
//! These are the integration gates of the robustness story: a permanent
//! node death in the middle of a *real* mapped nest's communication
//! schedule must be detected, rolled back, folded onto survivors and
//! replayed — with every message delivered exactly once — and the
//! remapped nest must still pass the functional execution check with the
//! dead nodes excluded.

use rescomm::{
    build_plan, map_nest, remap_for_survivors, run_distributed, run_distributed_on,
    verify_execution_on, DegradedGrid, IncidentKind, MappingOptions,
};
use rescomm_loopnest::examples;
use rescomm_machine::{
    CheckpointPolicy, CostModel, FaultPlan, FaultReport, FaultSim, Mesh2D, NodeDeath, PMsg,
    SchedulePolicy,
};

fn wrap(v: i64, n: usize) -> usize {
    v.rem_euclid(n as i64) as usize
}

/// The communication plan of a mapped nest, folded toroidally onto the
/// mesh as concrete physical message phases (empty phases dropped).
fn plan_phases(nest: &rescomm_loopnest::LoopNest, mesh: &Mesh2D) -> Vec<Vec<PMsg>> {
    let mapping = map_nest(nest, &MappingOptions::new(2)).unwrap();
    let plan = build_plan(nest, &mapping);
    plan.phases
        .iter()
        .filter_map(|ph| {
            let msgs: Vec<PMsg> = ph
                .pattern
                .explicit()
                .expect("build_plan emits explicit patterns")
                .iter()
                .map(|&(s, d)| PMsg {
                    src: mesh.node_id(wrap(s.0, mesh.px), wrap(s.1, mesh.py)),
                    dst: mesh.node_id(wrap(d.0, mesh.px), wrap(d.1, mesh.py)),
                    bytes: 256,
                })
                .filter(|m| m.src != m.dst)
                .collect();
            (!msgs.is_empty()).then_some(msgs)
        })
        .collect()
}

/// A phased checkpoint/rollback run of `phases` under `plan`.
fn recovering(
    mesh: &Mesh2D,
    phases: &[Vec<PMsg>],
    plan: &FaultPlan,
    policy: &CheckpointPolicy,
) -> FaultReport {
    FaultSim::new(mesh, phases, plan).run_recovering(policy, plan.seed, SchedulePolicy::default())
}

#[test]
fn paper_plan_survives_node_death_end_to_end() {
    let (nest, _) = examples::motivating_example(8, 4);
    let mesh = Mesh2D::new(8, 4, CostModel::paragon());
    let phases = plan_phases(&nest, &mesh);
    assert!(!phases.is_empty(), "the motivating example communicates");
    let healthy = mesh.simulate_phases(&phases);

    let plan = FaultPlan {
        seed: 7,
        node_deaths: vec![NodeDeath {
            node: 5,
            t: healthy / 3,
        }],
        detection_latency: 2_000,
        ..FaultPlan::none()
    };
    let policy = CheckpointPolicy::default();
    let rep = recovering(&mesh, &phases, &plan, &policy);
    assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
    assert_eq!(rep.delivered, rep.messages, "exactly-once delivery");
    assert_eq!(rep.black_holes, 0);
    assert_eq!(rep.recovery.folded_nodes, 1);
    assert!(rep.wall_clock_ns() >= rep.makespan);
    // Bit-exact determinism on the real schedule.
    assert_eq!(rep, recovering(&mesh, &phases, &plan, &policy));
}

#[test]
fn zero_death_recovering_driver_matches_plan_simulation() {
    let (nest, _) = examples::motivating_example(8, 4);
    let mesh = Mesh2D::new(8, 4, CostModel::paragon());
    let phases = plan_phases(&nest, &mesh);
    let healthy = mesh.simulate_phases(&phases);
    let rep = recovering(
        &mesh,
        &phases,
        &FaultPlan::none(),
        &CheckpointPolicy::default(),
    );
    assert_eq!(rep.makespan, healthy, "zero-death run is bit-identical");
    assert_eq!(rep.recovery.rollbacks, 0);
    assert_eq!(rep.recovery.lost_work_ns, 0);
}

#[test]
fn tiny_checkpoint_ring_still_recovers_the_paper_plan() {
    let (nest, _) = examples::motivating_example(8, 4);
    let mesh = Mesh2D::new(8, 4, CostModel::paragon());
    let phases = plan_phases(&nest, &mesh);
    let healthy = mesh.simulate_phases(&phases);
    let plan = FaultPlan {
        seed: 7,
        node_deaths: vec![NodeDeath {
            node: 9,
            t: healthy / 2,
        }],
        detection_latency: 0,
        ..FaultPlan::none()
    };
    let policy = CheckpointPolicy {
        interval: 1,
        ring: 1,
        ..CheckpointPolicy::default()
    };
    let rep = recovering(&mesh, &phases, &plan, &policy);
    assert!(rep.recovery.all_recovered(), "{:?}", rep.recovery);
    assert_eq!(rep.delivered, rep.messages);
}

#[test]
fn remap_survives_across_the_kernel_zoo() {
    let kernels = [
        examples::motivating_example(4, 2).0,
        examples::matmul(4),
        examples::transpose(5),
        examples::jacobi2d(6),
        examples::example4_reduction(5),
    ];
    let opts = MappingOptions::new(2);
    for nest in &kernels {
        let mapping = map_nest(nest, &opts).unwrap();
        for dead in [vec![0], vec![5], vec![3, 7]] {
            let remapped = remap_for_survivors(nest, &mapping, &opts, &dead, (4, 4))
                .unwrap_or_else(|e| panic!("{} dead={dead:?}: {e}", nest.name));
            assert!(
                remapped
                    .incidents
                    .iter()
                    .any(|i| i.kind == IncidentKind::NodeLoss),
                "{}: node loss must be recorded",
                nest.name
            );
            let grid = DegradedGrid::new(4, 4, &dead).unwrap();
            let stats = verify_execution_on(nest, &remapped, Some(&grid))
                .unwrap_or_else(|e| panic!("{} dead={dead:?}: {e}", nest.name));
            assert!(stats.instances > 0);
        }
    }
}

#[test]
fn remap_never_loses_zeroed_out_locality() {
    // The candidate search refuses any rotation that breaks a zeroed-out
    // edge, so the remapped nest keeps at least the original's local
    // accesses (identity is always a legal fallback).
    let (nest, _) = examples::motivating_example(4, 2);
    let opts = MappingOptions::new(2);
    let mapping = map_nest(&nest, &opts).unwrap();
    let before = mapping.report(&nest).n_local;
    for dead in [vec![1], vec![5, 6], vec![0, 4, 8]] {
        let remapped = remap_for_survivors(&nest, &mapping, &opts, &dead, (4, 4)).unwrap();
        assert!(
            remapped.report(&nest).n_local >= before,
            "dead={dead:?} lost locality"
        );
    }
}

#[test]
fn folding_onto_survivors_only_creates_locality() {
    // Physical colocation is coarser than virtual equality: two virtual
    // processors folded onto the same survivor turn remote traffic into
    // local traffic, never the reverse.
    let (nest, _) = examples::motivating_example(4, 2);
    let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
    let (_, virt) = run_distributed(&nest, &mapping);
    let grid = DegradedGrid::new(4, 4, &[5]).unwrap();
    let (_, phys) = run_distributed_on(&nest, &mapping, Some(&grid));
    assert!(phys.local_reads >= virt.local_reads);
    assert_eq!(
        phys.local_reads + phys.remote_reads,
        virt.local_reads + virt.remote_reads
    );
    assert!(phys.remapped_placements > 0, "node 5 had work to displace");
}
