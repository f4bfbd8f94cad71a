//! Workload generators shared by the experiments and the baseline bins:
//! communication patterns on the simulated machines, cost estimation for
//! a whole mapping, synthetic phase sets and fault schedules, and the
//! kernel zoo.

use rescomm::{build_plan_closed, map_nest, MappingOptions};
use rescomm::{CommOutcome, CommPhase, CommPlan, Mapping, PhaseKind, PhasePattern};
use rescomm_decompose::decompose_general;
use rescomm_distribution::{fold_general, Dist1D, Dist2D, Msg};
use rescomm_intlin::IMat;
use rescomm_loopnest::{examples, AccessId, LoopNest};
use rescomm_machine::{
    broadcast_rows_time, shift_time, CostModel, FaultPlan, LinkOutage, Mesh2D, NodeOutage, PMsg,
    PhaseSim, XorShift64,
};

/// Flatten aggregated distribution messages onto mesh node ids.
pub fn msgs_to_phase(msgs: &[Msg], mesh: &Mesh2D) -> Vec<PMsg> {
    msgs.iter()
        .map(|m| PMsg {
            src: mesh.node_id(m.src.0, m.src.1),
            dst: mesh.node_id(m.dst.0, m.dst.1),
            bytes: m.bytes,
        })
        .collect()
}

/// Generate the physical phase of a dataflow matrix closed-form and
/// schedule it on a reused [`PhaseSim`] — the zero-alloc hot path every
/// sweep in this crate goes through.
pub fn simulate_dataflow_with(
    sim: &mut PhaseSim,
    t: &IMat,
    dist: Dist2D,
    vshape: (usize, usize),
    bytes: u64,
) -> u64 {
    let mesh = sim.mesh();
    let folded = fold_general(t, dist, vshape, (mesh.px, mesh.py), bytes);
    let pms = msgs_to_phase(&folded.msgs, sim.mesh());
    sim.simulate_phase(&pms)
}

/// Number of hardware threads of the benchmarking host (0 when the OS
/// will not say). Every committed `BENCH_*.json` records this so a
/// parallel-speedup table can be read against the machine that produced
/// it — a "4 threads, 1.0x" row is expected, not a regression, when the
/// host only has one core.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The host's CPU model (the first `model name` of `/proc/cpuinfo`), or
/// `"unknown"` where that is unreadable: recorded beside timings, so a
/// committed time says which machine it was measured on.
pub fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .filter(|l| l.starts_with("model name"))
                .find_map(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The paper's default Paragon-like testbed: an 8×4 mesh (32 nodes).
pub fn paragon_mesh() -> Mesh2D {
    Mesh2D::new(8, 4, CostModel::paragon())
}

/// Deterministic synthetic phase set: `n_phases` phases of `per_phase`
/// seeded random messages between `nodes` processors, 1–2048 bytes
/// each.
pub fn synth_phases(nodes: usize, n_phases: usize, per_phase: usize, seed: u64) -> Vec<Vec<PMsg>> {
    let mut rng = XorShift64::new(seed);
    (0..n_phases)
        .map(|_| {
            (0..per_phase)
                .map(|_| PMsg {
                    src: rng.below(nodes as u64) as usize,
                    dst: rng.below(nodes as u64) as usize,
                    bytes: 1 + rng.below(2048),
                })
                .collect()
        })
        .collect()
}

/// One phase of `n` messages between the 32 nodes of [`paragon_mesh`],
/// spread by a multiplicative hash of the message index: the
/// large-phase scheduling workload.
pub fn hashed_phase(n: usize) -> Vec<PMsg> {
    (0..n as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            PMsg {
                src: (h % 32) as usize,
                dst: ((h >> 17) % 32) as usize,
                bytes: 1 + (h >> 40) % 4096,
            }
        })
        .collect()
}

/// The fixed outage windows of the fault sweeps: two dead links early in
/// each phase's clock and node 13 out for the first stretch.
pub fn fixed_outages(mesh: &Mesh2D) -> (Vec<LinkOutage>, Vec<NodeOutage>) {
    let links = vec![
        LinkOutage {
            link: mesh.h_link(2, 3, true).index(),
            from: 0,
            until: 400_000,
        },
        LinkOutage {
            link: mesh.v_link(5, 1, false).index(),
            from: 100_000,
            until: 600_000,
        },
    ];
    let nodes = vec![NodeOutage {
        node: 13,
        from: 0,
        until: 250_000,
    }];
    (links, nodes)
}

/// Seeded outage windows: `links` link outages (starting in the first
/// 600 µs, lasting 50–250 µs), then `nodes` node outages (starting in
/// the first 400 µs, lasting 30–130 µs), all drawn in that order from
/// one stream seeded with `0xfa17_babe ^ seed`.
pub fn seeded_outages(
    mesh: &Mesh2D,
    seed: u64,
    links: usize,
    nodes: usize,
) -> (Vec<LinkOutage>, Vec<NodeOutage>) {
    let mut rng = XorShift64::new(0xfa17_babe ^ seed);
    let link_outages = (0..links)
        .map(|_| {
            let from = rng.below(600_000);
            LinkOutage {
                link: rng.below(mesh.link_count() as u64) as usize,
                from,
                until: from + 50_000 + rng.below(200_000),
            }
        })
        .collect();
    let node_outages = (0..nodes)
        .map(|_| {
            let from = rng.below(400_000);
            NodeOutage {
                node: rng.below(mesh.nodes() as u64) as usize,
                from,
                until: from + 30_000 + rng.below(100_000),
            }
        })
        .collect();
    (link_outages, node_outages)
}

/// A lossy fault plan under `seed`: 20% drop and 2% duplication with the
/// default retry policy, on top of the given link and node outage
/// windows.
pub fn lossy_plan(seed: u64, outages: (Vec<LinkOutage>, Vec<NodeOutage>)) -> FaultPlan {
    FaultPlan {
        seed,
        drop_prob: 0.2,
        dup_prob: 0.02,
        link_outages: outages.0,
        node_outages: outages.1,
        ..FaultPlan::none()
    }
}

/// One kernel-zoo entry: a named unimodular dataflow matrix.
pub struct Kernel {
    pub name: &'static str,
    pub t: IMat,
    /// The old elementary-only fast path could not fold it in closed
    /// form: it hit the dense `O(V)` fold before the general segment
    /// algebra.
    pub previously_dense: bool,
}

/// The kernel zoo: shears, fully-coupled maps, a rotation and a swap.
pub fn kernel_zoo() -> Vec<Kernel> {
    [
        ("U(3)", [[1, 3], [0, 1]], false),
        ("L(2)", [[1, 0], [2, 1]], false),
        ("U(-2)", [[1, -2], [0, 1]], false),
        ("coupled[[1,3],[2,7]]", [[1, 3], [2, 7]], true),
        ("fib[[1,1],[1,2]]", [[1, 1], [1, 2]], true),
        ("rot90", [[0, -1], [1, 0]], true),
        ("swap", [[0, 1], [1, 0]], true),
    ]
    .into_iter()
    .map(|(name, [r0, r1], previously_dense)| Kernel {
        name,
        t: IMat::from_rows(&[&r0, &r1]),
        previously_dense,
    })
    .collect()
}

/// The distribution the kernel-zoo benches fold under: grouped(3) rows
/// by block columns.
pub fn zoo_dist() -> Dist2D {
    Dist2D {
        rows: Dist1D::Grouped(3),
        cols: Dist1D::Block,
    }
}

/// A named multi-phase workload, already folded to physical messages.
pub struct Workload {
    pub name: &'static str,
    /// Plan phase count: one per unirow factor for a zoo chain.
    pub factors: usize,
    /// A kernel-zoo chain with ≥ 2 factors, where phases can pipeline.
    pub multi_factor: bool,
    pub phases: Vec<Vec<PMsg>>,
}

/// Every [`kernel_zoo`] matrix as its unirow factor chain
/// ([`factor_chain_plan`]), then the paper's motivating-example plan in
/// closed form (`paper_plan`), each folded onto `mesh` from a `side`²
/// virtual grid under [`zoo_dist`] at `bytes` per element.
pub fn zoo_workloads(mesh: &Mesh2D, side: usize, bytes: u64) -> Vec<Workload> {
    let fold = |plan: &CommPlan| plan.phases_on_mesh(mesh, zoo_dist(), (side, side), bytes);
    let mut out: Vec<Workload> = kernel_zoo()
        .iter()
        .map(|k| {
            let chain = factor_chain_plan(&k.t);
            Workload {
                name: k.name,
                factors: chain.phases.len(),
                multi_factor: chain.phases.len() >= 2,
                phases: fold(&chain),
            }
        })
        .collect();
    let (nest, _) = examples::motivating_example(6, 2);
    let mapping = map_nest(&nest, &MappingOptions::new(2)).expect("motivating example maps");
    let plan = build_plan_closed(&nest, &mapping);
    out.push(Workload {
        name: "paper_plan",
        factors: plan.phases.len(),
        multi_factor: false,
        phases: fold(&plan),
    });
    out
}

/// Estimated communication time of a whole mapping on a mesh, pricing
/// each access by its outcome class (an end-to-end extension experiment;
/// the paper prices single communications only).
pub fn mapping_cost_on_mesh(
    nest: &LoopNest,
    mapping: &Mapping,
    mesh: &Mesh2D,
    vshape: (usize, usize),
    bytes: u64,
) -> u64 {
    let dist = Dist2D::uniform(Dist1D::Cyclic);
    // One scratch engine for every simulated outcome of the mapping, and
    // one memo so repeated general residuals solve their dataflow matrix
    // once instead of per access.
    let mut sim = PhaseSim::new(mesh.clone());
    let mut cache = rescomm::AnalysisCache::new();
    let mut total = 0u64;
    for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
        total += match out {
            CommOutcome::Local => 0,
            CommOutcome::Translation => shift_time(mesh, 1, 0, bytes),
            CommOutcome::Macro { .. } => broadcast_rows_time(mesh, bytes),
            CommOutcome::Decomposed { factors, .. } => factors
                .iter()
                .map(|f| simulate_dataflow_with(&mut sim, &f.to_mat(), dist, vshape, bytes))
                .sum(),
            CommOutcome::DecomposedGeneral { n_factors } => {
                // Price each unirow factor like one elementary sweep.
                let one = simulate_dataflow_with(
                    &mut sim,
                    &IMat::from_rows(&[&[1, 1], &[0, 1]]),
                    dist,
                    vshape,
                    bytes,
                );
                one * *n_factors as u64
            }
            CommOutcome::General => {
                let t = rescomm::pipeline::dataflow_matrix_cached(
                    &mut cache,
                    &mapping.alignment,
                    nest,
                    acc.id,
                )
                .filter(|t| t.shape() == (2, 2))
                .unwrap_or_else(|| IMat::from_rows(&[&[1, 3], &[2, 7]]));
                simulate_dataflow_with(&mut sim, &t, dist, vshape, bytes)
            }
        };
    }
    total
}

/// The plan of a unimodular dataflow matrix `t` decomposed into its
/// unirow factor chain: one grid-wide affine phase per factor, applied
/// right to left exactly as `build_plan_closed` orders a decomposition.
/// Lower it with [`CommPlan::phases_on_mesh`].
pub fn factor_chain_plan(t: &IMat) -> CommPlan {
    let factors = decompose_general(t).expect("factor chains need a unimodular matrix");
    CommPlan {
        phases: factors
            .iter()
            .rev()
            .map(|f| CommPhase {
                access: AccessId(0),
                kind: PhaseKind::UnirowFactor,
                pattern: PhasePattern::Affine {
                    t: f.to_mat(2),
                    shift: (0, 0),
                },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rewired hot path (closed-form generation + PhaseSim) gives the
    /// same times as the original enumeration + one-shot simulation.
    #[test]
    fn closed_form_path_matches_enumeration_path() {
        use rescomm_distribution::{general_pattern, physical_messages};
        let mesh = paragon_mesh();
        let vshape = (32, 16);
        let mut sim = PhaseSim::new(mesh.clone());
        for t in [
            IMat::from_rows(&[&[1, 3], &[0, 1]]),
            IMat::from_rows(&[&[1, 0], &[2, 1]]),
            IMat::from_rows(&[&[1, 3], &[2, 7]]),
        ] {
            for dist in [
                Dist2D::uniform(Dist1D::Cyclic),
                Dist2D {
                    rows: Dist1D::Grouped(3),
                    cols: Dist1D::Block,
                },
            ] {
                let pattern = general_pattern(&t, vshape);
                let msgs = physical_messages(&pattern, dist, vshape, (mesh.px, mesh.py), 256);
                let want = mesh.simulate_phase(&msgs_to_phase(&msgs, &mesh));
                assert_eq!(
                    simulate_dataflow_with(&mut sim, &t, dist, vshape, 256),
                    want,
                    "t={t:?} dist={dist:?}"
                );
            }
        }
    }

    #[test]
    fn dataflow_simulation_nonzero_for_nonlocal() {
        let mut sim = PhaseSim::new(paragon_mesh());
        let t = IMat::from_rows(&[&[1, 3], &[2, 7]]);
        let cyclic = Dist2D::uniform(Dist1D::Cyclic);
        let time = simulate_dataflow_with(&mut sim, &t, cyclic, (32, 16), 256);
        assert!(time > 0);
    }

    #[test]
    fn identity_dataflow_is_free() {
        let mut sim = PhaseSim::new(paragon_mesh());
        let cyclic = Dist2D::uniform(Dist1D::Cyclic);
        let time = simulate_dataflow_with(&mut sim, &IMat::identity(2), cyclic, (32, 16), 256);
        assert_eq!(time, 0);
    }

    /// The shared generators reproduce what the committed artifacts
    /// measure: `healthy_makespan_ns` of `BENCH_faults.json` and
    /// `BENCH_recovery.json`.
    #[test]
    fn synth_phases_pin_the_committed_healthy_makespans() {
        let mesh = paragon_mesh();
        assert_eq!(
            mesh.simulate_phases(&synth_phases(32, 8, 48, 0xfa17)),
            4_905_636
        );
        assert_eq!(
            mesh.simulate_phases(&synth_phases(32, 24, 48, 0x4ec0)),
            12_440_126
        );
    }

    /// `seeded_outages` keeps the draw order of the fault plans the
    /// committed artifacts were measured under: `fault_baseline`'s 46
    /// links + 5 nodes from the unmixed stream, and `scaling_baseline`'s
    /// 24 links + 4 nodes per plan seed.
    #[test]
    fn seeded_outages_reproduce_the_committed_fault_plans() {
        let mesh = paragon_mesh();
        let link = |link, from, until| LinkOutage { link, from, until };
        let node = |node, from, until| NodeOutage { node, from, until };
        let (links, nodes) = seeded_outages(&mesh, 0, 46, 5);
        assert_eq!((links.len(), nodes.len()), (46, 5));
        assert_eq!(links[0], link(1, 305_656, 454_000));
        assert_eq!(links[45], link(96, 92_145, 265_420));
        assert_eq!(nodes[4], node(24, 345_578, 439_291));
        let (links, nodes) = seeded_outages(&mesh, 42, 24, 4);
        assert_eq!(links[23], link(51, 159_169, 234_117));
        assert_eq!(nodes[3], node(26, 204_946, 242_882));
        // The link prefix does not depend on how many nodes follow.
        assert_eq!(seeded_outages(&mesh, 42, 24, 0).0, links);
    }

    #[test]
    fn zoo_workloads_cover_the_zoo_and_the_paper_plan() {
        let zoo = kernel_zoo();
        let names: Vec<&str> = zoo_workloads(&paragon_mesh(), 16, 64)
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names.len(), zoo.len() + 1);
        assert!(zoo.iter().zip(&names).all(|(k, n)| k.name == *n));
        assert_eq!(names.last(), Some(&"paper_plan"));
        assert_eq!(zoo.iter().filter(|k| k.previously_dense).count(), 4);
    }

    #[test]
    fn mapping_cost_orders_strategies() {
        use rescomm::{map_nest, MappingOptions};
        use rescomm_loopnest::examples;
        let (nest, _) = examples::motivating_example(8, 4);
        let mesh = paragon_mesh();
        let ours = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let base = rescomm::baselines::feautrier_map(&nest, 2).unwrap();
        let c_ours = mapping_cost_on_mesh(&nest, &ours, &mesh, (32, 16), 256);
        let c_base = mapping_cost_on_mesh(&nest, &base, &mesh, (32, 16), 256);
        assert!(
            c_ours <= c_base,
            "residual optimization must not cost more: {c_ours} vs {c_base}"
        );
    }
}
