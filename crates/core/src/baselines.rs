//! Baseline strategies the paper compares against (§7).
//!
//! * [`platonoff_map`] — Platonoff's macro-first strategy: detect the
//!   broadcasts present in the *initial* code, constrain the mapping to
//!   preserve them (axis-parallel), and only then zero out the remaining
//!   communications. On Example 5 this keeps `n` broadcasts where the
//!   locality-first heuristic achieves a communication-free mapping.
//! * [`feautrier_map`] — a volume-first greedy zeroing with no residual
//!   optimization at all (the paper's step 1 alone): what you get from the
//!   classical alignment literature.

use crate::pipeline::{CommOutcome, Mapping, MappingOptions};
use rescomm_alignment::{Alignment, Alloc};
use rescomm_intlin::{kernel_intersection, solve_xf_eq_s_fullrank, IMat};
use rescomm_loopnest::{AccessKind, LoopNest, StmtId};
use rescomm_macrocomm::{detect, Extent, MacroInput};
use std::collections::HashMap;

/// Feautrier-style baseline: the paper's step 1 with no step 2. Residual
/// communications remain general.
pub fn feautrier_map(nest: &LoopNest, m: usize) -> Result<Mapping, crate::error::RescommError> {
    crate::pipeline::map_nest(nest, &MappingOptions::step1_only(m))
}

/// Platonoff's strategy (as summarized in §7.1):
///
/// 1. locate broadcasts in the initial code (`ker θ ∩ ker F ≠ 0` for a
///    read access);
/// 2. choose statement allocations that *preserve* them: `M_S` must not
///    kill the broadcast direction, and the broadcast must land parallel
///    to a grid axis — we pick canonical projection rows accordingly;
/// 3. zero out the remaining communications where possible
///    (owner-computes style: solve `M_x·F = M_S` per array, preferring
///    high-rank accesses).
pub fn platonoff_map(nest: &LoopNest, m: usize) -> Mapping {
    // Step 1-2: statement allocations preserving broadcast directions.
    let mut stmt_alloc: Vec<Alloc> = Vec::with_capacity(nest.statements.len());
    let by_stmt = nest.by_stmt();
    for (si, st) in nest.statements.iter().enumerate() {
        let d = st.depth;
        // Broadcast directions of this statement's reads.
        let mut dirs: Vec<Vec<i64>> = Vec::new();
        for acc in by_stmt.of(StmtId(si)) {
            if acc.kind != AccessKind::Read {
                continue;
            }
            if let Some(k) = kernel_intersection(&[st.schedule.theta(), &acc.f]) {
                for c in 0..k.cols() {
                    dirs.push(k.col(c));
                }
            }
        }
        // Choose m canonical projection rows; make sure at least one row
        // hits each (up to m−1) broadcast direction so the broadcast is
        // preserved *and* axis-parallel.
        let rows = m.min(d);
        let mut chosen: Vec<usize> = Vec::new();
        for v in dirs.iter().take(rows.saturating_sub(0)) {
            if let Some(j) = (0..d).find(|&j| v[j] != 0 && !chosen.contains(&j)) {
                chosen.push(j);
            }
            if chosen.len() == rows {
                break;
            }
        }
        for j in 0..d {
            if chosen.len() == rows {
                break;
            }
            if !chosen.contains(&j) {
                chosen.push(j);
            }
        }
        let mat = IMat::from_fn(rows, d, |i, j| i64::from(chosen[i] == j));
        stmt_alloc.push(Alloc {
            mat,
            rho: vec![0; rows],
        });
    }

    // Step 3: array allocations, owner-computes where solvable.
    let mut array_alloc: Vec<Option<Alloc>> = vec![None; nest.arrays.len()];
    // Prefer writes, then high-rank accesses.
    let mut order: Vec<usize> = (0..nest.accesses.len()).collect();
    order.sort_by_key(|&i| {
        let a = &nest.accesses[i];
        let write = matches!(a.kind, AccessKind::Write | AccessKind::Reduce);
        (
            std::cmp::Reverse(usize::from(write)),
            std::cmp::Reverse(a.f.rank()),
        )
    });
    for i in order {
        let a = &nest.accesses[i];
        if array_alloc[a.array.0].is_some() {
            continue;
        }
        let m_s = &stmt_alloc[a.stmt.0].mat;
        if let Ok(x) = solve_xf_eq_s_fullrank(m_s, &a.f, m.min(nest.array(a.array).dim)) {
            array_alloc[a.array.0] = Some(Alloc {
                rho: vec![0; x.rows()],
                mat: x,
            });
        }
    }
    let array_alloc: Vec<Alloc> = array_alloc
        .into_iter()
        .enumerate()
        .map(|(xi, a)| {
            a.unwrap_or_else(|| {
                let dim = nest.arrays[xi].dim;
                let rows = m.min(dim);
                Alloc {
                    mat: IMat::from_fn(rows, dim, |i, j| i64::from(i == j)),
                    rho: vec![0; rows],
                }
            })
        })
        .collect();

    let alignment = Alignment {
        m,
        stmt_alloc,
        array_alloc,
        comp_of_stmt: vec![None; nest.statements.len()],
        comp_of_array: vec![None; nest.arrays.len()],
        n_components: 0,
    };

    // Classify with the same vocabulary as the main pipeline (macro
    // detection on, decomposition off — Platonoff's algorithm does not
    // decompose).
    let reduces = nest.reduction_stmts();
    let outcomes: Vec<CommOutcome> = nest
        .accesses
        .iter()
        .map(|acc| {
            let st = nest.statement(acc.stmt);
            if alignment.is_local(nest, acc) {
                return CommOutcome::Local;
            }
            if alignment.is_linear_local(nest, acc) {
                return CommOutcome::Translation;
            }
            let mc = detect(MacroInput {
                theta: st.schedule.theta(),
                f: &acc.f,
                m_s: &alignment.stmt_alloc[acc.stmt.0].mat,
                m_x: &alignment.array_alloc[acc.array.0].mat,
                kind: acc.kind,
                stmt_is_reduction: reduces[acc.stmt.0],
            });
            match mc {
                Some(mc) => match mc.extent {
                    Extent::Total => CommOutcome::Macro {
                        kind: mc.kind,
                        total: true,
                        rotated: false,
                    },
                    Extent::Partial { .. } if mc.axis_parallel => CommOutcome::Macro {
                        kind: mc.kind,
                        total: false,
                        rotated: false,
                    },
                    _ => CommOutcome::General,
                },
                None => CommOutcome::General,
            }
        })
        .collect();

    Mapping {
        alignment,
        outcomes,
        rotations: HashMap::new(),
        incidents: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{map_nest, MappingOptions};
    use rescomm_loopnest::examples;
    use rescomm_macrocomm::MacroKind;

    /// §7.2: on Example 5, Platonoff's strategy keeps a broadcast per
    /// timestep while the locality-first heuristic is communication-free.
    #[test]
    fn example5_platonoff_vs_ours() {
        let (nest, ids) = examples::example5_platonoff(4);

        let ours = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert!(ours
            .outcomes
            .iter()
            .all(|o| matches!(o, CommOutcome::Local)));

        let theirs = platonoff_map(&nest, 2);
        // The b-read stays a (preserved, axis-parallel) broadcast.
        match &theirs.outcomes[ids.fb.0] {
            CommOutcome::Macro {
                kind: MacroKind::Broadcast,
                ..
            } => {}
            other => panic!("Platonoff must keep the broadcast, got {other:?}"),
        }
    }

    #[test]
    fn platonoff_preserves_broadcast_direction() {
        let (nest, ids) = examples::example5_platonoff(4);
        let theirs = platonoff_map(&nest, 2);
        // M_S must not kill e4 (the broadcast direction).
        let ms = &theirs.alignment.stmt_alloc[ids.s.0].mat;
        let img = ms.mul_vec(&[0, 0, 0, 1]);
        assert!(img.iter().any(|&x| x != 0), "broadcast direction killed");
    }

    #[test]
    fn feautrier_is_step1_only() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let base = feautrier_map(&nest, 2).unwrap();
        assert!(matches!(base.outcomes[ids.f6.0], CommOutcome::General));
        let ours = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert!(matches!(ours.outcomes[ids.f6.0], CommOutcome::Macro { .. }));
    }

    #[test]
    fn platonoff_runs_on_all_examples() {
        for nest in [
            examples::motivating_example(4, 2).0,
            examples::example2_broadcast(4),
            examples::matmul(4),
            examples::gauss_elim(4),
        ] {
            let m = platonoff_map(&nest, 2);
            assert_eq!(m.outcomes.len(), nest.accesses.len());
        }
    }
}
