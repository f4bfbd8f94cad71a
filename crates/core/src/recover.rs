//! Degraded-grid recovery: remap a mapped nest around permanently dead
//! nodes.
//!
//! The paper's allocation functions `alloc(I) = M·I + ρ` have one degree
//! of freedom the heuristic already exploits for macro-communications:
//! every allocation of a connected component can be left-multiplied by a
//! unimodular matrix without breaking any locality the branching
//! established (§4.2.2's Hermite rotations). Recovery reuses exactly that
//! freedom. When node(s) die:
//!
//! 1. the physical grid degrades — a [`DegradedGrid`] folds every virtual
//!    processor onto the **nearest survivor** (the same
//!    [`rescomm_machine::fold_target`] rule the simulator's rollback path
//!    uses, so compiler and machine agree on where dead work lands);
//! 2. every component whose placements touch a dead node is re-rotated:
//!    a small deterministic family of unimodular candidates (identity,
//!    axis swap, shears, and the Hermite axis-alignment rotation of the
//!    fold direction — `rescomm_macrocomm::axis_alignment_rotation` over
//!    `rescomm_intlin`'s Hermite machinery) is scored by remote traffic
//!    and load imbalance on the degraded grid, **rejecting any candidate
//!    that breaks an access the branching zeroed out** and any whose
//!    rotated allocations or sampled placements leave `i64` (identity
//!    breaks nothing, so the search fails only when the mapping's own
//!    sampled placements leave `i64`);
//! 3. residual communications are re-derived for the rotated alignment
//!    (the same classification pass [`crate::map_nest`] runs), a
//!    [`IncidentKind::NodeLoss`] incident is recorded on the mapping, and
//!    the remap is validated end-to-end through
//!    [`crate::exec::verify_execution_on`] — the distributed run must
//!    reproduce the sequential state *with every placement on a live
//!    node*.

use crate::error::{Incident, IncidentKind, RescommError};
use crate::exec::verify_execution_on;
use crate::pipeline::{reclassify, Mapping, MappingOptions};
use rescomm_accessgraph::Vertex;
use rescomm_alignment::{Alignment, Alloc};
use rescomm_intlin::{is_unimodular, IMat};
use rescomm_loopnest::{ArrayId, LoopNest, StmtId};
use rescomm_machine::{fold_target, PMsg};
use rescomm_macrocomm::axis_alignment_rotation;

/// Domain points sampled per statement when scoring candidate rotations
/// and locating affected components (full domains are checked again by
/// the final [`verify_execution_on`] validation).
const SAMPLE_CAP: usize = 64;

/// A physical `px × py` grid with a set of permanently dead nodes.
///
/// Virtual processor coordinates fold onto it toroidally (the same
/// `rem_euclid` wrap [`crate::plan`] uses) and then chase to the nearest
/// survivor when the wrapped node is dead — deterministically, by
/// (Manhattan distance, node id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedGrid {
    px: usize,
    py: usize,
    dead: Vec<usize>,
}

impl DegradedGrid {
    /// Build a degraded grid; errors when a dead id is out of range or no
    /// survivor remains.
    pub fn new(px: usize, py: usize, dead: &[usize]) -> Result<Self, RescommError> {
        if px == 0 || py == 0 {
            return Err(RescommError::Exec {
                detail: format!("degenerate grid {px}x{py}"),
            });
        }
        let nodes = px * py;
        let mut dead: Vec<usize> = dead.to_vec();
        dead.sort_unstable();
        dead.dedup();
        if let Some(&bad) = dead.iter().find(|&&d| d >= nodes) {
            return Err(RescommError::Exec {
                detail: format!("dead node {bad} outside the {px}x{py} grid ({nodes} nodes)"),
            });
        }
        if dead.len() == nodes {
            return Err(RescommError::Exec {
                detail: format!("all {nodes} nodes of the {px}x{py} grid are dead"),
            });
        }
        Ok(DegradedGrid { px, py, dead })
    }

    /// Grid shape `(px, py)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.px, self.py)
    }

    /// Dead node ids, sorted and deduplicated.
    pub fn dead(&self) -> &[usize] {
        &self.dead
    }

    /// Number of surviving nodes.
    pub fn survivors(&self) -> usize {
        self.px * self.py - self.dead.len()
    }

    /// Is `node` permanently dead?
    pub fn is_dead(&self, node: usize) -> bool {
        self.dead.binary_search(&node).is_ok()
    }

    /// Toroidal wrap of a virtual coordinate onto the grid, dead or not
    /// (missing dimensions live at coordinate 0, like the plan's fold).
    pub fn wrap(&self, v: &[i64]) -> usize {
        let x = v.first().copied().unwrap_or(0).rem_euclid(self.px as i64) as usize;
        let y = v.get(1).copied().unwrap_or(0).rem_euclid(self.py as i64) as usize;
        y * self.px + x
    }

    /// Physical home of a virtual coordinate: the toroidal wrap, chased
    /// to the nearest survivor when the wrapped node is dead. Never
    /// returns a dead node.
    pub fn place(&self, v: &[i64]) -> usize {
        let node = self.wrap(v);
        if !self.is_dead(node) {
            node
        } else {
            fold_target(self.px, self.py, node, &self.dead)
                .expect("a validated DegradedGrid has at least one survivor")
        }
    }

    /// `true` when the survivor chase moved this coordinate off its
    /// toroidal home (i.e. the wrap landed on a dead node).
    pub fn displaced(&self, v: &[i64]) -> bool {
        self.is_dead(self.wrap(v))
    }

    /// Fold already-lowered physical phases onto the survivor set: every
    /// endpoint on a dead node is chased to its [`fold_target`] survivor,
    /// and messages that collapse to self-sends are dropped. This is the
    /// compiler-side twin of the simulator's post-death folding — running
    /// the folded phases on a healthy mesh (any schedule mode) models
    /// steady-state traffic after recovery has committed. Returns the
    /// folded phases and the number of messages redirected or absorbed.
    pub fn fold_phases(&self, phases: &[Vec<PMsg>]) -> (Vec<Vec<PMsg>>, usize) {
        let mut touched = 0;
        let folded = phases
            .iter()
            .map(|phase| {
                phase
                    .iter()
                    .filter_map(|m| {
                        let mut msg = *m;
                        if self.is_dead(msg.src) {
                            msg.src = fold_target(self.px, self.py, msg.src, &self.dead)
                                .expect("a validated DegradedGrid has at least one survivor");
                        }
                        if self.is_dead(msg.dst) {
                            msg.dst = fold_target(self.px, self.py, msg.dst, &self.dead)
                                .expect("a validated DegradedGrid has at least one survivor");
                        }
                        if msg.src != m.src || msg.dst != m.dst {
                            touched += 1;
                        }
                        (msg.src != msg.dst).then_some(msg)
                    })
                    .collect()
            })
            .collect();
        (folded, touched)
    }
}

/// Sampled domain points of a statement (deterministic prefix).
fn sample(nest: &LoopNest, si: usize) -> impl Iterator<Item = Vec<i64>> + '_ {
    nest.statements[si].domain.points().take(SAMPLE_CAP)
}

/// Components whose sampled placements (statement instances or the array
/// elements they touch) wrap onto a dead node — the ones worth
/// re-rotating.
fn affected_components(nest: &LoopNest, alignment: &Alignment, grid: &DegradedGrid) -> Vec<usize> {
    let mut affected = Vec::new();
    let mark = |ci: Option<usize>, affected: &mut Vec<usize>| {
        if let Some(ci) = ci {
            if !affected.contains(&ci) {
                affected.push(ci);
            }
        }
    };
    let by_stmt = nest.by_stmt();
    for si in 0..nest.statements.len() {
        for p in sample(nest, si) {
            if grid.displaced(&alignment.stmt_alloc[si].apply(&p)) {
                mark(
                    alignment.component_of(Vertex::Stmt(StmtId(si))),
                    &mut affected,
                );
            }
            for acc in by_stmt.of(StmtId(si)) {
                let e = acc.subscript(&p);
                if grid.displaced(&alignment.array_alloc[acc.array.0].apply(&e)) {
                    mark(
                        alignment.component_of(Vertex::Array(acc.array)),
                        &mut affected,
                    );
                }
            }
        }
    }
    affected.sort_unstable();
    affected
}

/// The deterministic unimodular candidate family for an `m`-dimensional
/// grid: identity first (so the search can never regress), then the
/// axis swap, the four elementary shears on the first two axes, and the
/// Hermite axis-alignment rotation of each dead node's fold direction.
fn candidates(m: usize, grid: &DegradedGrid) -> Vec<IMat> {
    let mut out = vec![IMat::identity(m)];
    if m < 2 {
        return out;
    }
    let push = |mat: IMat, out: &mut Vec<IMat>| {
        if is_unimodular(&mat) && !out.contains(&mat) {
            out.push(mat);
        }
    };
    let mut swap = IMat::identity(m);
    swap[(0, 0)] = 0;
    swap[(1, 1)] = 0;
    swap[(0, 1)] = 1;
    swap[(1, 0)] = 1;
    push(swap, &mut out);
    for (i, j) in [(0, 1), (1, 0)] {
        for s in [1i64, -1] {
            let mut shear = IMat::identity(m);
            shear[(i, j)] = s;
            push(shear, &mut out);
        }
    }
    // Fold-direction rotations: align the displacement from each dead
    // node to its survivor with a grid axis (the macro-communication
    // rotation trick, §4.2.2).
    let (px, py) = grid.shape();
    for &d in grid.dead() {
        let Some(t) = fold_target(px, py, d, grid.dead()) else {
            continue;
        };
        let (dx, dy) = (
            (t % px) as i64 - (d % px) as i64,
            (t / px) as i64 - (d / px) as i64,
        );
        if dx == 0 && dy == 0 {
            continue;
        }
        let dir = IMat::from_fn(m, 1, |r, _| match r {
            0 => dx,
            1 => dy,
            _ => 0,
        });
        let (qinv, _) = axis_alignment_rotation(&dir);
        push(qinv, &mut out);
    }
    out
}

/// `mat·x + off` (a missing entry of `off` is 0), or `None` when a
/// component leaves `i64`.
fn checked_affine(mat: &IMat, x: &[i64], off: &[i64]) -> Option<Vec<i64>> {
    (0..mat.rows())
        .map(|r| {
            let start = i128::from(off.get(r).copied().unwrap_or(0));
            let acc = mat.row(r).iter().zip(x).try_fold(start, |acc, (&a, &v)| {
                acc.checked_add(i128::from(a) * i128::from(v))
            })?;
            i64::try_from(acc).ok()
        })
        .collect()
}

/// `alignment` with component `ci` rotated by `v`
/// ([`Alignment::rotate_component`]), or `None` when an entry of a
/// rotated allocation matrix or offset leaves `i64`.
fn rotated(alignment: &Alignment, ci: usize, v: &IMat) -> Option<Alignment> {
    let stmts = alignment.stmt_alloc.iter().enumerate();
    let arrays = alignment.array_alloc.iter().enumerate();
    let fits = stmts
        .map(|(s, a)| (Vertex::Stmt(StmtId(s)), a))
        .chain(arrays.map(|(x, a)| (Vertex::Array(ArrayId(x)), a)))
        .filter(|&(w, a)| alignment.component_of(w) == Some(ci) && a.mat.rows() == v.cols())
        .all(|(_, a)| {
            checked_affine(v, &a.rho, &[]).is_some()
                && (0..a.mat.cols()).all(|j| checked_affine(v, &a.mat.col(j), &[]).is_some())
        });
    fits.then(|| {
        let mut trial = alignment.clone();
        trial.rotate_component(ci, v);
        trial
    })
}

/// Score a trial alignment on the degraded grid over sampled instances:
/// `(remote access pairs, heaviest survivor load)` — lexicographic, lower
/// is better. `None` when a sampled placement leaves `i64`.
fn degraded_score(
    nest: &LoopNest,
    trial: &Alignment,
    grid: &DegradedGrid,
) -> Option<(usize, usize)> {
    let place = |alloc: &Alloc, x: &[i64]| {
        checked_affine(&alloc.mat, x, &alloc.rho).map(|v| grid.place(&v))
    };
    let mut remote = 0usize;
    let mut load = vec![0usize; grid.px * grid.py];
    let by_stmt = nest.by_stmt();
    for si in 0..nest.statements.len() {
        for p in sample(nest, si) {
            let here = place(&trial.stmt_alloc[si], &p)?;
            load[here] += 1;
            for acc in by_stmt.of(StmtId(si)) {
                let e = acc.subscript(&p);
                if place(&trial.array_alloc[acc.array.0], &e)? != here {
                    remote += 1;
                }
            }
        }
    }
    Some((remote, load.into_iter().max().unwrap_or(0)))
}

/// `true` when every access local under `before` is still local under
/// `after` — the property the fold rotation must never break (satellite
/// of §3.1: the branching's zeroed-out edges stay zeroed out).
fn preserves_locality(nest: &LoopNest, before: &Alignment, after: &Alignment) -> bool {
    nest.accesses
        .iter()
        .all(|acc| !before.is_local(nest, acc) || after.is_local(nest, acc))
}

/// Remap a mapping for the survivors of permanent node deaths on a
/// `grid`-shaped physical mesh.
///
/// Every connected component whose placements touch a dead node is
/// left-multiplied by the best unimodular fold from `candidates`
/// (identity when nothing better exists; a candidate whose rotated
/// allocations or sampled placements leave `i64` is skipped, and when
/// none is left the remap is an [`RescommError::Analysis`] error),
/// residual communications are re-derived for the rotated alignment,
/// an [`IncidentKind::NodeLoss`]
/// incident is recorded, and the result is validated through
/// [`verify_execution_on`] — the distributed execution must reproduce the
/// sequential state with the dead nodes excluded from every placement.
pub fn remap_for_survivors(
    nest: &LoopNest,
    mapping: &Mapping,
    opts: &MappingOptions,
    dead: &[usize],
    grid_shape: (usize, usize),
) -> Result<Mapping, RescommError> {
    let grid = DegradedGrid::new(grid_shape.0, grid_shape.1, dead)?;
    let mut out = mapping.clone();
    if dead.is_empty() {
        return Ok(out);
    }
    let m = out.alignment.m;
    for ci in affected_components(nest, &out.alignment, &grid) {
        let mut best: Option<((usize, usize), IMat)> = None;
        for cand in candidates(m, &grid) {
            // A candidate whose rotation or sampled placements leave
            // `i64` is skipped, as one that breaks locality is.
            let Some(trial) = rotated(&out.alignment, ci, &cand) else {
                continue;
            };
            if !preserves_locality(nest, &out.alignment, &trial) {
                continue;
            }
            let Some(score) = degraded_score(nest, &trial, &grid) else {
                continue;
            };
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((score, cand));
            }
        }
        let Some((_, fold)) = best else {
            return Err(RescommError::Analysis {
                stage: "remap_for_survivors",
                detail: "i64 overflow in the sampled placements of every candidate rotation"
                    .to_string(),
            });
        };
        if fold != IMat::identity(m) {
            out.alignment.rotate_component(ci, &fold);
            let composed = match out.rotations.remove(&ci) {
                Some(prev) => &fold * &prev,
                None => fold,
            };
            out.rotations.insert(ci, composed);
        }
    }
    // Re-derive the residual-communication outcomes for the degraded
    // alignment with the same classification pass map_nest runs.
    out.outcomes = reclassify(nest, &mut out.alignment, &mut out.rotations, opts);
    out.incidents.push(Incident::node_loss(grid.dead()));
    debug_assert!(out
        .incidents
        .iter()
        .any(|i| i.kind == IncidentKind::NodeLoss));
    // End-to-end functional validation on the degraded grid.
    verify_execution_on(nest, &out, Some(&grid))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_distributed_on;
    use crate::pipeline::map_nest;
    use rescomm_loopnest::examples;

    #[test]
    fn degraded_grid_validates_inputs() {
        assert!(DegradedGrid::new(0, 4, &[]).is_err());
        assert!(DegradedGrid::new(4, 4, &[16]).is_err());
        let all: Vec<usize> = (0..4).collect();
        assert!(DegradedGrid::new(2, 2, &all).is_err());
        let g = DegradedGrid::new(4, 4, &[5, 5, 1]).unwrap();
        assert_eq!(g.dead(), &[1, 5]);
        assert_eq!(g.survivors(), 14);
    }

    #[test]
    fn fold_phases_redirects_onto_survivors() {
        let g = DegradedGrid::new(4, 4, &[5]).unwrap();
        let phases = vec![
            vec![
                PMsg {
                    src: 0,
                    dst: 5,
                    bytes: 64,
                },
                PMsg {
                    src: 5,
                    dst: 9,
                    bytes: 32,
                },
                PMsg {
                    src: 1,
                    dst: 2,
                    bytes: 8,
                },
            ],
            // A message that collapses onto itself after folding is
            // absorbed rather than kept as a self-send.
            vec![PMsg {
                src: 5,
                dst: fold_target(4, 4, 5, &[5]).unwrap(),
                bytes: 16,
            }],
        ];
        let (folded, touched) = g.fold_phases(&phases);
        assert_eq!(touched, 3);
        assert_eq!(folded.len(), 2);
        assert!(folded[1].is_empty(), "self-send absorbed");
        for m in folded.iter().flatten() {
            assert!(!g.is_dead(m.src) && !g.is_dead(m.dst));
            assert_ne!(m.src, m.dst);
        }
        // Untouched messages pass through byte-identical.
        assert!(folded[0].contains(&phases[0][2]));
        // A healthy grid folds nothing.
        let whole = DegradedGrid::new(4, 4, &[]).unwrap();
        let (same, zero) = whole.fold_phases(&phases);
        assert_eq!((same, zero), (phases, 0));
    }

    #[test]
    fn place_never_lands_on_a_dead_node() {
        let g = DegradedGrid::new(4, 4, &[0, 5, 10]).unwrap();
        for x in -9..9i64 {
            for y in -9..9i64 {
                let n = g.place(&[x, y]);
                assert!(!g.is_dead(n), "({x},{y}) placed on dead {n}");
                assert!(n < 16);
            }
        }
        // A live wrap is left where it lands.
        assert_eq!(g.place(&[1, 0]), 1);
        // Virtual (1,1) wraps to node 5 (dead): nodes 1, 4, 6, 9 are all
        // at distance 1 and alive — smallest id wins the tie.
        assert_eq!(g.place(&[1, 1]), 1);
        assert!(g.displaced(&[1, 1]));
        assert!(!g.displaced(&[2, 1]));
    }

    #[test]
    fn degraded_grid_agrees_with_machine_fold_rule() {
        // The compiler-side chase and the simulator-side fold must send a
        // dead node's work to the same survivor.
        let dead = [5usize, 6];
        let g = DegradedGrid::new(4, 4, &dead).unwrap();
        for node in 0..16usize {
            let v = [(node % 4) as i64, (node / 4) as i64];
            let machine = rescomm_machine::fold_target(4, 4, node, &dead).unwrap();
            assert_eq!(g.place(&v), machine, "node {node}");
        }
    }

    #[test]
    fn candidates_are_unimodular_and_start_with_identity() {
        let g = DegradedGrid::new(4, 4, &[5]).unwrap();
        let cands = candidates(2, &g);
        assert_eq!(cands[0], IMat::identity(2));
        assert!(cands.len() > 4, "swap, shears and fold rotation expected");
        for c in &cands {
            assert!(is_unimodular(c), "{c:?}");
        }
        // 1-D grids only get the identity.
        assert_eq!(candidates(1, &g).len(), 1);
    }

    #[test]
    fn remap_motivating_example_survives_node_loss() {
        let (nest, _) = examples::motivating_example(4, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let dead = [5usize];
        let remapped =
            remap_for_survivors(&nest, &mapping, &MappingOptions::new(2), &dead, (4, 4)).unwrap();
        // The incident is on record.
        assert!(remapped
            .incidents
            .iter()
            .any(|i| i.kind == IncidentKind::NodeLoss));
        // And the degraded run puts nothing on the dead node.
        let grid = DegradedGrid::new(4, 4, &dead).unwrap();
        let (_, stats) = run_distributed_on(&nest, &remapped, Some(&grid));
        assert!(stats.instances > 0);
    }

    #[test]
    fn remap_preserves_zeroed_out_edges() {
        for (nest, opts) in [
            (examples::motivating_example(4, 2).0, MappingOptions::new(2)),
            (examples::jacobi2d(6), MappingOptions::new(2)),
            (examples::matmul(4), MappingOptions::new(2)),
        ] {
            let mapping = map_nest(&nest, &opts).unwrap();
            let remapped = remap_for_survivors(&nest, &mapping, &opts, &[3], (4, 4))
                .unwrap_or_else(|e| panic!("{}: {e}", nest.name));
            for (i, acc) in nest.accesses.iter().enumerate() {
                if mapping.alignment.is_local(&nest, acc) {
                    assert!(
                        remapped.alignment.is_local(&nest, acc),
                        "{}: access {i} lost locality in the remap",
                        nest.name
                    );
                }
            }
        }
    }

    #[test]
    fn remap_skips_candidates_that_leave_i64() {
        // S1's second loop next to `i64::MIN`: the shear `[[1, 1], [0, 1]]`
        // moves a sampled placement past `i64`, so the search skips it
        // (identity and the swap still score) and the remap verifies.
        let src = include_str!("../../../examples/nests/motivating.nest").replace(
            "stmt S1 depth 2 domain 0..7 0..7",
            "stmt S1 depth 2 domain 0..1 -9223372036854775807..-9223372036854775806",
        );
        let nest = rescomm_loopnest::parse_nest(&src).unwrap();
        let opts = MappingOptions::new(2);
        let mapping = map_nest(&nest, &opts).unwrap();
        let grid = DegradedGrid::new(4, 4, &[5]).unwrap();
        let mut shear = IMat::identity(2);
        shear[(0, 1)] = 1;
        let affected = affected_components(&nest, &mapping.alignment, &grid);
        let skipped = affected.iter().any(|&ci| {
            rotated(&mapping.alignment, ci, &shear)
                .is_none_or(|trial| degraded_score(&nest, &trial, &grid).is_none())
        });
        assert!(skipped, "the shear must leave i64 on an affected component");
        for &ci in &affected {
            let identity = rotated(&mapping.alignment, ci, &IMat::identity(2)).unwrap();
            assert!(degraded_score(&nest, &identity, &grid).is_some());
        }
        let remapped = remap_for_survivors(&nest, &mapping, &opts, &[5], (4, 4)).unwrap();
        let (_, stats) = run_distributed_on(&nest, &remapped, Some(&grid));
        assert_eq!(stats.instances, 1540);
    }

    #[test]
    fn remap_rejects_hopeless_inputs() {
        let (nest, _) = examples::motivating_example(4, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let all: Vec<usize> = (0..16).collect();
        assert!(
            remap_for_survivors(&nest, &mapping, &MappingOptions::new(2), &all, (4, 4)).is_err()
        );
        assert!(
            remap_for_survivors(&nest, &mapping, &MappingOptions::new(2), &[99], (4, 4)).is_err()
        );
    }
}
