//! The experiment implementations, one per paper artifact.

use crate::workload::{mapping_cost_on_mesh, msgs_to_phase, paragon_mesh, simulate_dataflow_with};
use rescomm::baselines::{feautrier_map, platonoff_map};
use rescomm::{compile, map_nest, CancelToken, CommOutcome, CompileOptions, MappingOptions};
use rescomm_decompose::Elementary;
use rescomm_distribution::{fold_general, Dist1D, Dist2D};
use rescomm_intlin::IMat;
use rescomm_loopnest::examples;
use rescomm_machine::{CachedPhase, CostModel, FatTree, PMsg, PhaseSim, ScheduleMode};

/// One row of Table 1: simulated CM-5 times for the four data movements,
/// normalized to the reduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Message payload per processor (bytes).
    pub bytes: u64,
    /// Simulated times in ns: (reduction, broadcast, translation, general).
    pub times: [u64; 4],
    /// Ratios normalized to the reduction.
    pub ratios: [f64; 4],
}

/// Reproduce Table 1: compare reduction / broadcast / translation /
/// general affine communication on the 32-processor fat-tree (CM-5-like)
/// machine.
pub fn table1(bytes: u64) -> Table1Row {
    let t = FatTree::new(32, 4, CostModel::cm5());
    let reduction = t.hw_reduce(32, 8); // combine values: tiny payload
    let broadcast = t.hw_broadcast(32, bytes.min(512));
    let translation = t.translation(1, bytes);
    // General affine communication: an irregular permutation exercising
    // the top of the tree (same spirit as the paper's affine patterns).
    let msgs: Vec<PMsg> = (0..32)
        .map(|i| PMsg {
            src: i,
            dst: (i * 13 + 5) % 32,
            bytes,
        })
        .collect();
    let general = t.simulate_phase(&msgs);
    let times = [reduction, broadcast, translation, general];
    let r0 = reduction.max(1) as f64;
    Table1Row {
        bytes,
        times,
        ratios: times.map(|x| x as f64 / r0),
    }
}

/// One row of Table 2: Paragon times for `T = [[1,3],[2,7]] = L(2)·U(3)`
/// executed directly vs decomposed.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Payload bytes per virtual processor.
    pub bytes: u64,
    /// Direct execution of the general communication.
    pub not_decomposed: u64,
    /// The `L(2)` phase alone.
    pub l_phase: u64,
    /// The `U(3)` phase alone.
    pub u_phase: u64,
    /// Decomposed execution: `L` then `U` sequentially.
    pub lu_total: u64,
}

impl Table2Row {
    /// Ratios normalized to the `L` phase, the paper's presentation.
    pub fn ratios(&self) -> [f64; 4] {
        let base = self.l_phase.max(1) as f64;
        [
            self.not_decomposed as f64 / base,
            self.l_phase as f64 / base,
            self.u_phase as f64 / base,
            self.lu_total as f64 / base,
        ]
    }
}

/// Reproduce Table 2 on the 8×4 mesh with a CYCLIC distribution (the
/// paper's data distribution for this experiment).
pub fn table2(vshape: (usize, usize), bytes: u64) -> Table2Row {
    let mesh = paragon_mesh();
    let dist = Dist2D::uniform(Dist1D::Cyclic);
    let t = IMat::from_rows(&[&[1, 3], &[2, 7]]);
    let l = Elementary::L(2).to_mat();
    let u = Elementary::U(3).to_mat();
    let mut sim = PhaseSim::new(mesh);
    let not_decomposed = simulate_dataflow_with(&mut sim, &t, dist, vshape, bytes);
    let l_phase = simulate_dataflow_with(&mut sim, &l, dist, vshape, bytes);
    let u_phase = simulate_dataflow_with(&mut sim, &u, dist, vshape, bytes);
    Table2Row {
        bytes,
        not_decomposed,
        l_phase,
        u_phase,
        lu_total: l_phase + u_phase,
    }
}

/// One point of Figure 8: ratios of the standard HPF distributions over
/// the grouped partition for the `U(k)` elementary communication.
#[derive(Debug, Clone)]
pub struct Figure8Row {
    /// The elementary coefficient `k`.
    pub k: usize,
    /// Grouped-partition time (the denominator).
    pub grouped: u64,
    /// `CYCLIC` over grouped.
    pub cyclic_ratio: f64,
    /// full `BLOCK` over grouped.
    pub block_ratio: f64,
    /// `CYCLIC(B)` over grouped.
    pub cyclic_block_ratio: f64,
}

/// Reproduce one Figure 8 graph: sweep `k = 1..=kmax` for a given mesh
/// shape, comparing distributions on the `U(k)` pattern. The virtual row
/// count is chosen per `k` as the smallest multiple of `lcm(k, P)` that is
/// ≥ `base_rows`, so the toroidal wrap preserves the `i mod k` classes
/// (the paper's setting; ratios are per-`k`, so sizes need not match
/// across `k`).
pub fn figure8(
    mesh_shape: (usize, usize),
    base_rows: usize,
    vcols: usize,
    kmax: usize,
    block_b: usize,
    bytes: u64,
) -> Vec<Figure8Row> {
    let mesh = rescomm_machine::Mesh2D::new(mesh_shape.0, mesh_shape.1, CostModel::paragon());
    let mut sim = PhaseSim::new(mesh);
    (1..=kmax)
        .map(|k| {
            let l = lcm(k, mesh_shape.0);
            let vshape = (l * base_rows.div_ceil(l), vcols);
            let u = IMat::from_rows(&[&[1, k as i64], &[0, 1]]);
            let mut run = |rows: Dist1D| {
                let dist = Dist2D {
                    rows,
                    cols: Dist1D::Block,
                };
                simulate_dataflow_with(&mut sim, &u, dist, vshape, bytes)
            };
            let grouped = run(Dist1D::Grouped(k));
            // When k is a multiple of P the whole pattern is local under
            // both grouped and CYCLIC ("CYCLIC amounts to the grouped
            // partition with k = P"): report a ratio of 1 for 0/0.
            let ratio = |t: u64| {
                if grouped == 0 {
                    if t == 0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    t as f64 / grouped as f64
                }
            };
            Figure8Row {
                k,
                grouped,
                cyclic_ratio: ratio(run(Dist1D::Cyclic)),
                block_ratio: ratio(run(Dist1D::Block)),
                cyclic_block_ratio: ratio(run(Dist1D::CyclicBlock(block_b))),
            }
        })
        .collect()
}

/// Payload sweep around Table 2: how does the decomposition advantage
/// move with message size? Small messages are start-up dominated and the
/// irregular direct pattern pays many serialized start-ups, so
/// decomposition helps *most* there; at large payloads the advantage
/// shrinks toward the bandwidth ratio (decomposed data crosses the mesh
/// twice) — the asymptote the compiler writer must know.
#[derive(Debug, Clone)]
pub struct CrossoverRow {
    /// Payload per virtual processor (bytes).
    pub bytes: u64,
    /// Direct execution (ns).
    pub direct: u64,
    /// Decomposed execution (ns).
    pub decomposed: u64,
}

/// Sweep payload sizes for the Table 2 configuration.
///
/// The three message patterns do not depend on the payload, so each is
/// generated closed-form and route-compiled **once** and replayed per
/// size with a uniform byte scale — bit-identical to calling [`table2`]
/// at every size (the per-size test pins this), at a fraction of the
/// cost.
pub fn table2_crossover(vshape: (usize, usize), sizes: &[u64]) -> Vec<CrossoverRow> {
    let mesh = paragon_mesh();
    let dist = Dist2D::uniform(Dist1D::Cyclic);
    let compile = |t: &IMat| {
        let folded = fold_general(t, dist, vshape, (mesh.px, mesh.py), 1);
        CachedPhase::new(&mesh, &msgs_to_phase(&folded.msgs, &mesh))
    };
    let direct = [compile(&IMat::from_rows(&[&[1, 3], &[2, 7]]))];
    let decomposed = [
        compile(&Elementary::L(2).to_mat()),
        compile(&Elementary::U(3).to_mat()),
    ];
    let mut sim = PhaseSim::new(mesh);
    sizes
        .iter()
        .map(|&bytes| CrossoverRow {
            bytes,
            direct: sim.run_cached_phases(&direct, ScheduleMode::Phased, bytes),
            decomposed: sim.run_cached_phases(&decomposed, ScheduleMode::Phased, bytes),
        })
        .collect()
}

/// The §4 + §5 composition: decompose `T = L(2)·U(3)` AND fold each
/// elementary phase with the factor-derived grouped partition — the full
/// stack the paper proposes, against partial applications.
#[derive(Debug, Clone)]
pub struct CombinedRow {
    /// Direct execution, CYCLIC distribution.
    pub direct_cyclic: u64,
    /// Decomposed, CYCLIC distribution (Table 2's winner).
    pub decomposed_cyclic: u64,
    /// Decomposed, factor-derived grouped partition (§5's refinement).
    pub decomposed_grouped: u64,
}

/// Run the composition experiment on the 8×4 mesh.
pub fn combined(vshape: (usize, usize), bytes: u64) -> CombinedRow {
    use rescomm_decompose::product;
    let mesh = paragon_mesh();
    let l = Elementary::L(2);
    let u = Elementary::U(3);
    let t = product(&[l, u]);
    let cyclic = Dist2D::uniform(Dist1D::Cyclic);
    let grouped = rescomm_distribution::scheme_for_factors(&[l.to_mat(), u.to_mat()]);
    let mut sim = PhaseSim::new(mesh);
    let mut phase =
        |f: Elementary, d: Dist2D| simulate_dataflow_with(&mut sim, &f.to_mat(), d, vshape, bytes);
    let decomposed_cyclic = phase(l, cyclic) + phase(u, cyclic);
    let decomposed_grouped = phase(l, grouped) + phase(u, grouped);
    CombinedRow {
        direct_cyclic: simulate_dataflow_with(&mut sim, &t, cyclic, vshape, bytes),
        decomposed_cyclic,
        decomposed_grouped,
    }
}

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    a / gcd(a, b) * b
}

/// Figures 6/7: render the grouped-partition layout (which physical
/// processor owns each virtual index) as text.
pub fn figure7_layout(v: usize, k: usize, p: usize) -> String {
    let d = Dist1D::Grouped(k);
    let mut line1 = String::from("virtual :");
    let mut line2 = String::from("physical:");
    for i in 0..v {
        line1.push_str(&format!(" {i:>2}"));
        line2.push_str(&format!(" {:>2}", d.map(i as i64, v, p)));
    }
    format!("{line1}\n{line2}")
}

/// One row of the §7.2 comparison on Example 5.
#[derive(Debug, Clone)]
pub struct Example5Row {
    /// Problem size `n`.
    pub n: i64,
    /// Residual communications under the locality-first heuristic.
    pub ours_nonlocal: usize,
    /// Residual communications under Platonoff's macro-first strategy.
    pub platonoff_nonlocal: usize,
    /// `true` iff Platonoff's residual is (at least) an axis-parallel
    /// macro-communication, as his strategy guarantees.
    pub platonoff_macro: bool,
}

/// Reproduce the §7.2 discussion.
pub fn example5(n: i64) -> Example5Row {
    let (nest, _) = examples::example5_platonoff(n);
    let ours = map_nest(&nest, &MappingOptions::new(2)).expect("example 5 maps");
    let theirs = platonoff_map(&nest, 2);
    let nonlocal = |m: &rescomm::Mapping| {
        m.outcomes
            .iter()
            .filter(|o| !matches!(o, CommOutcome::Local))
            .count()
    };
    Example5Row {
        n,
        ours_nonlocal: nonlocal(&ours),
        platonoff_nonlocal: nonlocal(&theirs),
        platonoff_macro: theirs
            .outcomes
            .iter()
            .any(|o| matches!(o, CommOutcome::Macro { .. })),
    }
}

/// One row of the §3.5 message-vectorization experiment.
#[derive(Debug, Clone)]
pub struct VectorizationRow {
    /// Number of timesteps the communication repeats over.
    pub n_steps: usize,
    /// Payload per timestep and processor (bytes).
    pub bytes: u64,
    /// One message per timestep (start-up paid every time).
    pub unvectorized: u64,
    /// One regrouped message hoisted out of the loop.
    pub vectorized: u64,
}

/// §3.5: when `ker M_S ⊆ ker(M_a·F_a)` the data a processor needs is
/// time-invariant and the per-timestep messages regroup into one packet.
/// Simulate both schedules for a one-hop translation pattern on the mesh.
pub fn vectorization(n_steps: usize, bytes: u64) -> VectorizationRow {
    let mesh = paragon_mesh();
    let shift: Vec<PMsg> = (0..mesh.nodes())
        .map(|i| {
            let (x, y) = mesh.coords(i);
            PMsg {
                src: i,
                dst: mesh.node_id((x + 1) % mesh.px, y),
                bytes,
            }
        })
        .collect();
    // The regrouped schedule is the same pattern with n× payloads: compile
    // the routes once, replay at both scales.
    let cached = [CachedPhase::new(&mesh, &shift)];
    let mut sim = PhaseSim::new(mesh);
    VectorizationRow {
        n_steps,
        bytes,
        unvectorized: sim.run_cached_phases(&cached, ScheduleMode::Phased, 1) * n_steps as u64,
        vectorized: sim.run_cached_phases(&cached, ScheduleMode::Phased, n_steps as u64),
    }
}

/// One strategy's row of the §2 motivating example, end to end.
#[derive(Debug, Clone)]
pub struct MotivatingRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Locals / macros / decomposed / general counts.
    pub counts: [usize; 4],
    /// Estimated communication time on the 8×4 mesh.
    pub est_time: u64,
    /// Makespan of the mapping's compiled plan ([`rescomm::compile`]) on
    /// the estimate's own target: CYCLIC over the same virtual grid and
    /// payload, phased.
    pub compiled_time: u64,
}

/// Run the motivating example under the full heuristic, the step-1-only
/// baseline, Platonoff's strategy and the two step-2 ablations
/// (macro-communications without decomposition, decomposition without
/// macro-communications), with simulated mesh costs: the per-outcome
/// estimate ([`mapping_cost_on_mesh`]) and the compiled plan's makespan.
/// The two price a macro-communication differently: the estimate as a
/// binomial tree, the plan as one round of point-to-point transfers.
pub fn motivating(bytes: u64) -> Vec<MotivatingRow> {
    let (nest, _) = examples::motivating_example(8, 4);
    let mesh = paragon_mesh();
    let vshape = (32, 16);
    let target = CompileOptions {
        mesh: mesh.clone(),
        dist: Dist2D::uniform(Dist1D::Cyclic),
        vshape,
        bytes,
        mode: ScheduleMode::Phased,
        closed: false,
    };
    let mut rows = Vec::new();
    let mut push = |name: &'static str, mapping: rescomm::Mapping| {
        let mut counts = [0usize; 4];
        for o in &mapping.outcomes {
            match o {
                CommOutcome::Local | CommOutcome::Translation => counts[0] += 1,
                CommOutcome::Macro { .. } => counts[1] += 1,
                CommOutcome::Decomposed { .. } | CommOutcome::DecomposedGeneral { .. } => {
                    counts[2] += 1
                }
                CommOutcome::General => counts[3] += 1,
            }
        }
        let est_time = mapping_cost_on_mesh(&nest, &mapping, &mesh, vshape, bytes);
        let compiled = compile(&nest, &mapping, &target, &CancelToken::none());
        rows.push(MotivatingRow {
            strategy: name,
            counts,
            est_time,
            compiled_time: compiled.expect("motivating example compiles").makespan,
        });
    };
    push(
        "two-step heuristic",
        map_nest(&nest, &MappingOptions::new(2)).expect("motivating example maps"),
    );
    push(
        "step 1 only (greedy zeroing)",
        feautrier_map(&nest, 2).expect("motivating example maps"),
    );
    push("Platonoff (macro-first)", platonoff_map(&nest, 2));
    let mut macro_only = MappingOptions::new(2);
    macro_only.enable_decompose = false;
    push(
        "macro-only (no decomposition)",
        map_nest(&nest, &macro_only).expect("motivating example maps"),
    );
    let mut decompose_only = MappingOptions::new(2);
    decompose_only.enable_macro = false;
    push(
        "decompose-only (no macro)",
        map_nest(&nest, &decompose_only).expect("motivating example maps"),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1's qualitative content: reduction ≈ broadcast ≪ general,
    /// translation in between — and the broadcast/general gap is roughly
    /// an order of magnitude, as Platonoff measured.
    #[test]
    fn table1_shape() {
        let row = table1(1024);
        let [red, bc, tr, gen] = row.times;
        assert!(red <= bc);
        assert!(bc < tr, "broadcast {bc} vs translation {tr}");
        assert!(tr < gen, "translation {tr} vs general {gen}");
        assert!(
            gen as f64 / bc as f64 > 4.0,
            "general/broadcast ratio too small: {} / {}",
            gen,
            bc
        );
    }

    /// Table 2's content: L·U decomposition beats the direct execution;
    /// the U phase costs more than the L phase (larger grid dimension).
    #[test]
    fn table2_shape() {
        let row = table2((32, 16), 512);
        assert!(
            row.lu_total < row.not_decomposed,
            "decomposition must win: {} vs {}",
            row.lu_total,
            row.not_decomposed
        );
        assert!(
            row.u_phase >= row.l_phase,
            "U ({} ) should cost at least L ({})",
            row.u_phase,
            row.l_phase
        );
    }

    /// Figure 8's content: "the grouped partition is always more
    /// efficient than a standard BLOCK or CYCLIC(B) distribution" for the
    /// U(k) pattern with k ≥ 2, and "CYCLIC performs well" (close to
    /// grouped, equal when k is a multiple of P).
    #[test]
    fn figure8_shape() {
        for rows in [
            figure8((4, 4), 48, 8, 8, 2, 256),
            figure8((8, 4), 48, 8, 8, 2, 256),
        ] {
            for r in rows.iter().filter(|r| r.k >= 2) {
                assert!(
                    r.block_ratio >= 1.0,
                    "k={}: BLOCK ratio {} below 1",
                    r.k,
                    r.block_ratio
                );
                assert!(
                    r.cyclic_ratio >= 1.0,
                    "k={}: CYCLIC ratio {}",
                    r.k,
                    r.cyclic_ratio
                );
                assert!(
                    r.cyclic_block_ratio >= 1.0,
                    "k={}: CYCLIC(2) ratio {}",
                    r.k,
                    r.cyclic_block_ratio
                );
            }
            // The win over BLOCK is substantial somewhere in the sweep.
            assert!(rows.iter().any(|r| r.block_ratio > 3.0), "{rows:?}");
        }
    }

    #[test]
    fn example5_shape() {
        let row = example5(4);
        assert_eq!(row.ours_nonlocal, 0, "ours must be communication-free");
        assert!(row.platonoff_nonlocal >= 1);
        assert!(row.platonoff_macro);
    }

    #[test]
    fn motivating_rows_ordered() {
        let rows = motivating(256);
        assert_eq!(rows.len(), 5);
        let ours = rows[0].est_time;
        let step1 = rows[1].est_time;
        assert!(ours <= step1, "two-step {ours} vs step1 {step1}");
        // The two-step heuristic keeps no general residual.
        assert_eq!(rows[0].counts[3], 0);
        assert_eq!(rows[0].counts[0], 5);
    }

    /// The full stack (decompose + grouped partition) beats both the
    /// direct execution and the decomposition-with-CYCLIC of Table 2 —
    /// the composition the paper's §4 and §5 argue for. The virtual rows
    /// must be divisible by both class counts (2 and 3) for the grouped
    /// classes to survive the toroidal wrap.
    #[test]
    fn combined_stack_wins() {
        let row = combined((36, 18), 512);
        assert!(row.decomposed_cyclic < row.direct_cyclic, "{row:?}");
        assert!(
            row.decomposed_grouped < row.decomposed_cyclic,
            "grouped partition must refine the decomposition: {row:?}"
        );
    }

    /// The cached-replay sweep is bit-identical to re-running table2 at
    /// every payload size.
    #[test]
    fn crossover_matches_table2_per_size() {
        let sizes = [16u64, 256, 4096];
        let rows = table2_crossover((32, 16), &sizes);
        for (r, &bytes) in rows.iter().zip(&sizes) {
            let t2 = table2((32, 16), bytes);
            assert_eq!(r.direct, t2.not_decomposed, "bytes={bytes}");
            assert_eq!(r.decomposed, t2.lu_total, "bytes={bytes}");
        }
    }

    #[test]
    fn crossover_decomposition_always_wins_advantage_shrinks() {
        let rows = table2_crossover((32, 16), &[16, 64, 256, 1024, 4096]);
        // Decomposition wins at every size on this configuration…
        for r in &rows {
            assert!(
                r.decomposed < r.direct,
                "bytes={}: {} !< {}",
                r.bytes,
                r.decomposed,
                r.direct
            );
        }
        // …but the advantage declines toward large payloads, where the
        // twice-moved bytes of the decomposition eat into the win.
        let first_ratio = rows[0].direct as f64 / rows[0].decomposed as f64;
        let last_ratio =
            rows.last().unwrap().direct as f64 / rows.last().unwrap().decomposed as f64;
        assert!(
            last_ratio <= first_ratio,
            "advantage should shrink with payload: {first_ratio} vs {last_ratio}"
        );
        assert!(last_ratio > 1.0);
    }

    /// §3.5: "replace a set of small-size communications by a single large
    /// message so as to reduce overhead due to startup and latency" — the
    /// vectorized schedule must win, and the gain must grow with the
    /// number of timesteps.
    #[test]
    fn vectorization_shape() {
        let r8 = vectorization(8, 64);
        let r64 = vectorization(64, 64);
        assert!(r8.vectorized < r8.unvectorized);
        assert!(r64.vectorized < r64.unvectorized);
        let g8 = r8.unvectorized as f64 / r8.vectorized as f64;
        let g64 = r64.unvectorized as f64 / r64.vectorized as f64;
        assert!(g64 > g8, "gain must grow with steps: {g8} vs {g64}");
        // With tiny payloads the gain approaches n (start-up dominated).
        assert!(g64 > 10.0, "gain too small: {g64}");
    }

    #[test]
    fn figure7_layout_matches_paper() {
        let text = figure7_layout(12, 3, 4);
        // Virtual processors 0,3,6 on physical 0 (Fig. 6).
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("0  1  2  0"));
    }
}
