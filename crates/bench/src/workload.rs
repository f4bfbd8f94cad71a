//! Workload generators shared by the experiments: communication patterns
//! on the simulated machines and cost estimation for a whole mapping.

use rescomm::{CommOutcome, CommPhase, CommPlan, Mapping, PhaseKind, PhasePattern};
use rescomm_decompose::decompose_general;
use rescomm_distribution::{fold_general, Dist1D, Dist2D, Msg};
use rescomm_intlin::IMat;
use rescomm_loopnest::{AccessId, Domain, LoopNest, NestBuilder};
use rescomm_machine::{broadcast_rows_time, shift_time, CostModel, Mesh2D, PMsg, PhaseSim};

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

/// Fold a dataflow matrix's virtual pattern onto a mesh and simulate it
/// (one-shot convenience over [`simulate_dataflow_with`]).
pub fn simulate_dataflow(
    t: &IMat,
    mesh: &Mesh2D,
    dist: Dist2D,
    vshape: (usize, usize),
    bytes: u64,
) -> u64 {
    simulate_dataflow_with(&mut PhaseSim::new(mesh.clone()), t, dist, vshape, bytes)
}

/// The paper's default Paragon-like testbed: an 8×4 mesh (32 nodes).
/// Number of hardware threads of the benchmarking host (0 when the OS
/// will not say). Every committed `BENCH_*.json` records this so a
/// parallel-speedup table can be read against the machine that produced
/// it — a "4 threads, 1.0x" row is expected, not a regression, when the
/// host only has one core.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

pub fn paragon_mesh() -> Mesh2D {
    Mesh2D::new(8, 4, CostModel::paragon())
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

/// Deterministic chained-stencil nest with `n_stmts` depth-2 statements:
/// statement `S_i` writes its own array `a_i` (identity), reads the
/// previous stage `a_{i-1}` through a unimodular transform, and reads a
/// shared coefficient array `g` through a second one — the repeating
/// producer/consumer chains of time-stepped stencil codes. Both
/// transforms cycle through a 3-element family by statement index, so the
/// analysis sees long chains of *repeated* `(F, M_S, M_x)` combinations,
/// exactly the shape real unrolled pipelines hand the compiler. The
/// family is signed permutations on purpose: relative alignment matrices
/// along an `n`-statement chain are *products* of the access matrices,
/// and a finite matrix group keeps those entries bounded at any depth
/// (skews like `U(1)·L(1)·…` blow up Fibonacci-fast instead).
pub fn chained_stencil_nest(n_stmts: usize, size: i64) -> LoopNest {
    assert!(n_stmts >= 1);
    let fam = [
        IMat::identity(2),
        IMat::from_rows(&[&[0, 1], &[1, 0]]),
        IMat::from_rows(&[&[0, -1], &[1, 0]]),
    ];
    let mut b = NestBuilder::new("chained-stencil");
    let g = b.array("g", 2);
    let stages: Vec<_> = (0..=n_stmts)
        .map(|i| b.array(&format!("a{i}"), 2))
        .collect();
    for i in 1..=n_stmts {
        let s = b.statement(&format!("S{i}"), 2, Domain::cube(2, size));
        b.write(s, stages[i], IMat::identity(2), &[0, 0]);
        b.read(s, stages[i - 1], fam[i % 3].clone(), &[0, 0]);
        b.read(s, g, fam[(i + 1) % 3].clone(), &[(i % 2) as i64, 0]);
    }
    b.build().expect("chained stencil nest valid")
}

/// Deterministic pipeline nest with `n_stmts` depth-3 statements mixing
/// both edge orientations: `S_i` writes its stage array `b_i` (3-D,
/// square unimodular), reads `b_{i-1}` through a cycling 3×3 permutation
/// (bounded chain products, see [`chained_stencil_nest`]), and reads a
/// shared 2-D table `c` through a cycling *flat* 2×3 access (array →
/// statement edges). Exercises the rank/orientation logic the chained
/// stencil family does not.
pub fn pipeline_nest(n_stmts: usize, size: i64) -> LoopNest {
    assert!(n_stmts >= 1);
    let perms = [
        IMat::identity(3),
        IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1], &[1, 0, 0]]),
        IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
    ];
    let flats = [
        IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]),
        IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1]]),
        IMat::from_rows(&[&[1, 1, 0], &[0, 1, 1]]),
    ];
    let mut b = NestBuilder::new("pipeline");
    let c = b.array("c", 2);
    let stages: Vec<_> = (0..=n_stmts)
        .map(|i| b.array(&format!("b{i}"), 3))
        .collect();
    for i in 1..=n_stmts {
        let s = b.statement(&format!("P{i}"), 3, Domain::cube(3, size));
        b.write(s, stages[i], IMat::identity(3), &[0, 0, 0]);
        b.read(s, stages[i - 1], perms[i % 3].clone(), &[0, 0, 0]);
        b.read(s, c, flats[(i + 1) % 3].clone(), &[0, 0]);
    }
    b.build().expect("pipeline nest valid")
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
        let mesh = paragon_mesh();
        let t = IMat::from_rows(&[&[1, 3], &[2, 7]]);
        let time = simulate_dataflow(&t, &mesh, Dist2D::uniform(Dist1D::Cyclic), (32, 16), 256);
        assert!(time > 0);
    }

    #[test]
    fn identity_dataflow_is_free() {
        let mesh = paragon_mesh();
        let time = simulate_dataflow(
            &IMat::identity(2),
            &mesh,
            Dist2D::uniform(Dist1D::Cyclic),
            (32, 16),
            256,
        );
        assert_eq!(time, 0);
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
