//! The complete two-step mapping heuristic (§6 of the paper).
//!
//! 1. **Zero out non-local communications**: access graph → maximum
//!    branching → free/constrained edge re-addition → concrete allocation
//!    matrices.
//! 2. **Optimize residual communications**, per connected component:
//!    (a) detect macro-communications; when a partial collective is not
//!    axis-parallel, left-multiply the component's allocations by the
//!    Hermite rotation `Q⁻¹`; (b) decompose what remains into elementary
//!    axis-parallel factors — directly, after a unimodular similarity
//!    rotation, or with unirow factors when `det ≠ ±1`.

use crate::error::{guarded, CancelToken, Cancelled, Incident, RescommError};
use rescomm_accessgraph::{
    augment, component_structure, maximum_branching, merge_cross_components, reference,
    AccessGraph, GraphBuildCache, Vertex,
};
use rescomm_alignment::{compute_alignment, residual_communications, Alignment};
use rescomm_decompose::{
    decompose_direct, decompose_general, search_similarity, shear_decompose, Elementary, GenFactor,
};
use rescomm_intlin::{solve_xf_eq_s, IMat};
use rescomm_loopnest::{AccessId, AccessKind, LoopNest};
use rescomm_machine::sweep::par_sweep_with_report;
use rescomm_machine::SweepReport;
use rescomm_macrocomm::{
    axis_alignment_rotation, detect, Extent, MacroComm, MacroInput, MacroKind,
};
use std::collections::HashMap;

/// Options controlling the pipeline (the `false` settings are the
/// ablations benchmarked in `rescomm-bench`).
#[derive(Debug, Clone, Copy)]
pub struct MappingOptions {
    /// Target virtual grid dimension `m`.
    pub m: usize,
    /// Step 2(a): detect macro-communications and rotate them onto axes.
    pub enable_macro: bool,
    /// Step 2(b): decompose residual general communications.
    pub enable_decompose: bool,
    /// Allow unimodular similarity rotations during decomposition.
    pub enable_similarity: bool,
    /// Weight access-graph edges by `rank F` (the paper's volume
    /// prioritization); `false` uses unit weights (ablation).
    pub weight_by_rank: bool,
    /// Step 1(c) extension: merge compatible cross-component edges so
    /// their communications become local too.
    pub enable_merging: bool,
    /// Self-checking mode: after the fast path succeeds, replay the nest
    /// through [`map_nest_reference`] and compare outcomes. A disagreement
    /// makes the reference result win and is recorded as an
    /// [`Incident`] on the mapping.
    pub self_check: bool,
}

impl MappingOptions {
    /// Defaults: everything on.
    pub fn new(m: usize) -> Self {
        MappingOptions {
            m,
            enable_macro: true,
            enable_decompose: true,
            enable_similarity: true,
            weight_by_rank: true,
            enable_merging: true,
            self_check: false,
        }
    }

    /// Step 1 only (the Feautrier-style greedy baseline): residuals stay
    /// general.
    pub fn step1_only(m: usize) -> Self {
        MappingOptions {
            m,
            enable_macro: false,
            enable_decompose: false,
            enable_similarity: false,
            weight_by_rank: true,
            enable_merging: true,
            self_check: false,
        }
    }

    /// Builder-style toggle for the self-checking mode.
    pub fn with_self_check(mut self) -> Self {
        self.self_check = true;
        self
    }
}

/// Final classification of one access's communication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommOutcome {
    /// `M_S = M_x·F` and the offset term vanishes: no communication.
    Local,
    /// Linear part local, constant offset nonzero: a fixed translation.
    Translation,
    /// An axis-parallel (or total) macro-communication.
    Macro {
        /// Broadcast / scatter / gather / reduction.
        kind: MacroKind,
        /// Total or partial (hidden collectives are reported [`CommOutcome::Local`]).
        total: bool,
        /// `true` when a component rotation was needed to align it.
        rotated: bool,
    },
    /// Decomposed into elementary `L`/`U` factors (2-D grids).
    Decomposed {
        /// The factor sequence.
        factors: Vec<Elementary>,
        /// `true` when a similarity rotation was applied first.
        rotated: bool,
    },
    /// Decomposed into unirow factors (higher dims or `det ≠ ±1`).
    DecomposedGeneral {
        /// Number of unirow factors.
        n_factors: usize,
    },
    /// Still a general affine communication.
    General,
}

/// The result of mapping a nest.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// The allocation functions (after all rotations).
    pub alignment: Alignment,
    /// Outcome per access, indexed like `nest.accesses`.
    pub outcomes: Vec<CommOutcome>,
    /// Unimodular rotations applied per component (composed).
    pub rotations: HashMap<usize, IMat>,
    /// Recoverable fast-path failures: each entry records one guarded
    /// stage that died (or disagreed under self-check) and was replaced
    /// by the reference oracle. Empty on a clean run.
    pub incidents: Vec<Incident>,
}

impl Mapping {
    /// Summarize into a printable report.
    pub fn report(&self, nest: &LoopNest) -> crate::report::MappingReport {
        crate::report::MappingReport::from_mapping(self, nest)
    }
}

fn stmt_is_reduction(nest: &LoopNest, s: rescomm_loopnest::StmtId) -> bool {
    nest.accesses_of(s).any(|a| a.kind == AccessKind::Reduce)
}

/// Memo key for [`detect`]: `(θ, F, M_S, M_x, access kind, reduction?)`.
type DetectKey = (IMat, IMat, IMat, IMat, AccessKind, bool);

/// Memo for the kernel-heavy computations of the pipeline: the per-access
/// graph-build classification ([`GraphBuildCache`] — the integer
/// left-inverse search dominates build time on nests with store
/// accesses), [`detect`](fn@detect)'s collective classification, and the
/// dataflow-matrix solve, keyed by the exact matrices involved. Chained
/// stencil families repeat the same `(θ, F, M_S, M_x)` combinations
/// across hundreds of statements, so one cache entry replaces many
/// Hermite/kernel/adjugate computations.
///
/// The cache is **outcome-transparent**: every memoized function is pure,
/// so a cached run classifies exactly like an uncached one. Reuse a cache
/// across nests mapped with the same options ([`map_nest_batch`] gives
/// each worker thread its own), or keep one per call as [`map_nest`] does.
pub struct AnalysisCache {
    enabled: bool,
    detect: HashMap<DetectKey, Option<MacroComm>>,
    dataflow: HashMap<(IMat, IMat, IMat, usize), Option<IMat>>,
    graph: GraphBuildCache,
}

impl AnalysisCache {
    /// An empty, active cache.
    pub fn new() -> Self {
        AnalysisCache {
            enabled: true,
            detect: HashMap::new(),
            dataflow: HashMap::new(),
            graph: GraphBuildCache::new(),
        }
    }

    /// A cache that never stores or returns anything — the reference path
    /// uses it to time the seed behaviour honestly.
    pub fn disabled() -> Self {
        AnalysisCache {
            enabled: false,
            detect: HashMap::new(),
            dataflow: HashMap::new(),
            graph: GraphBuildCache::new(),
        }
    }

    /// Drop all memoized entries (the `enabled` flag is kept).
    pub fn clear(&mut self) {
        self.detect.clear();
        self.dataflow.clear();
        self.graph.clear();
    }

    /// Number of memoized entries across all tables.
    pub fn len(&self) -> usize {
        self.detect.len() + self.dataflow.len() + self.graph.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.detect.is_empty() && self.dataflow.is_empty() && self.graph.is_empty()
    }
}

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache::new()
    }
}

/// [`detect`] through the memo (pure, so cache hits are exact replays).
fn detect_cached(cache: &mut AnalysisCache, input: MacroInput<'_>) -> Option<MacroComm> {
    if !cache.enabled {
        return detect(input);
    }
    let key = (
        input.theta.clone(),
        input.f.clone(),
        input.m_s.clone(),
        input.m_x.clone(),
        input.kind,
        input.stmt_is_reduction,
    );
    if let Some(hit) = cache.detect.get(&key) {
        return hit.clone();
    }
    let out = detect(input);
    cache.detect.insert(key, out.clone());
    out
}

/// Run the complete heuristic on a nest.
///
/// The fast path is *guarded*: an internal panic (overflow in exact
/// arithmetic, a violated invariant) is caught, the nest is replayed
/// through the reference oracle, and the event is recorded as an
/// [`Incident`] on the returned mapping. `Err` is returned only when the
/// reference path fails on the instance too.
pub fn map_nest(nest: &LoopNest, opts: &MappingOptions) -> Result<Mapping, RescommError> {
    map_nest_with(nest, opts, &mut AnalysisCache::new())
}

/// [`map_nest`] with a caller-provided [`AnalysisCache`], so repeated
/// mappings (sweeps, experiment tables, batch serving) share kernel
/// computations across nests.
pub fn map_nest_with(
    nest: &LoopNest,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
) -> Result<Mapping, RescommError> {
    map_nest_cancellable(nest, opts, cache, &CancelToken::none())
}

/// [`map_nest_with`] under a [`CancelToken`]: the pipeline checks the
/// token between passes and returns [`RescommError::Cancelled`] from the
/// first checkpoint past the deadline — cooperative cancellation for
/// servers enforcing per-request deadlines. A fired token also suppresses
/// the reference-oracle fallback (falling back to a *slower* path after
/// the deadline would invert the point of having one). With the inert
/// token this is exactly [`map_nest_with`].
pub fn map_nest_cancellable(
    nest: &LoopNest,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
    cancel: &CancelToken,
) -> Result<Mapping, RescommError> {
    match guarded("map_nest_fast", || {
        map_nest_impl(nest, opts, cache, false, cancel)
    }) {
        Ok(Err(c)) => Err(c.into()),
        Ok(Ok(mut mapping)) => {
            if opts.self_check {
                match guarded("map_nest_reference", || {
                    map_nest_impl(nest, opts, &mut AnalysisCache::disabled(), true, cancel)
                }) {
                    Ok(Err(c)) => Err(c.into()),
                    Ok(Ok(reference)) if reference.outcomes != mapping.outcomes => {
                        // The oracle wins; keep the evidence.
                        let mut m = reference;
                        m.incidents.push(Incident::fallback(
                            "self_check",
                            format!(
                                "fast path disagreed with the reference oracle on {}: \
                                 fell back to the reference mapping",
                                nest.name
                            ),
                        ));
                        Ok(m)
                    }
                    Ok(Ok(_)) => Ok(mapping),
                    Err(inc) => {
                        // The fast result stands, but the failed check is
                        // on the record.
                        mapping.incidents.push(Incident::fallback(
                            "self_check",
                            format!("reference oracle failed: {}", inc.detail),
                        ));
                        Ok(mapping)
                    }
                }
            } else {
                Ok(mapping)
            }
        }
        Err(incident) => {
            // Past the deadline the fallback is pointless work; report
            // the cancellation, not the panic that raced with it.
            if let Err(c) = cancel.check("fallback") {
                return Err(c.into());
            }
            match guarded("map_nest_reference", || {
                map_nest_impl(nest, opts, &mut AnalysisCache::disabled(), true, cancel)
            }) {
                Ok(Err(c)) => Err(c.into()),
                Ok(Ok(mut m)) => {
                    m.incidents.push(incident);
                    Ok(m)
                }
                Err(ref_inc) => Err(RescommError::Analysis {
                    stage: "map_nest",
                    detail: format!(
                        "fast path: {}; reference fallback: {}",
                        incident.detail, ref_inc.detail
                    ),
                }),
            }
        }
    }
}

/// The seed implementation end to end: reference branching / augment /
/// merge (see [`rescomm_accessgraph::reference`]) and no memoization.
/// Kept as the proof-of-equivalence oracle, the fallback target of the
/// guarded [`map_nest`], and the `pipeline_baseline` "old" timing path.
/// Unlike [`map_nest`] it is unguarded — it panics where the seed did.
pub fn map_nest_reference(nest: &LoopNest, opts: &MappingOptions) -> Mapping {
    map_nest_impl(
        nest,
        opts,
        &mut AnalysisCache::disabled(),
        true,
        &CancelToken::none(),
    )
    .expect("the inert token never cancels")
}

/// Map every nest, fanning out over `threads` workers on the shared
/// work-stealing pool with one [`AnalysisCache`] per worker (the
/// `par_sweep_with` scratch pattern). Results are in input order and
/// identical to mapping each nest alone; the first failing nest's error
/// is returned.
pub fn map_nest_batch(
    nests: &[LoopNest],
    opts: &MappingOptions,
    threads: usize,
) -> Result<Vec<Mapping>, RescommError> {
    map_nest_batch_report(nests, opts, threads).0
}

/// [`map_nest_batch`] plus the pool's execution report (workers actually
/// used, grain, steal count) — the analysis-batch scaling bench computes
/// efficiency against [`SweepReport::workers`], never the request.
pub fn map_nest_batch_report(
    nests: &[LoopNest],
    opts: &MappingOptions,
    threads: usize,
) -> (Result<Vec<Mapping>, RescommError>, SweepReport) {
    let (results, report) =
        par_sweep_with_report(nests, threads, AnalysisCache::new, |cache, nest| {
            Some(map_nest_with(nest, opts, cache))
        });
    let mappings = results
        .into_iter()
        .map(|r| r.expect("map_nest_batch worker produced no mapping"))
        .collect();
    (mappings, report)
}

/// Alias for [`map_nest_batch`] with one worker per available core.
pub fn par_map_nests(
    nests: &[LoopNest],
    opts: &MappingOptions,
) -> Result<Vec<Mapping>, RescommError> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    map_nest_batch(nests, opts, threads)
}

fn map_nest_impl(
    nest: &LoopNest,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
    use_reference: bool,
    cancel: &CancelToken,
) -> Result<Mapping, Cancelled> {
    let m = opts.m;
    cancel.check("graph_build")?;
    // ---- Step 1: zero out what we can. ----
    let graph = if cache.enabled {
        AccessGraph::build_weighted_cached(nest, m, opts.weight_by_rank, &mut cache.graph)
    } else {
        AccessGraph::build_weighted(nest, m, opts.weight_by_rank)
    };
    cancel.check("branching")?;
    let branching = if use_reference {
        reference::maximum_branching_reference(&graph)
    } else {
        maximum_branching(&graph)
    };
    let mut comps = component_structure(&graph, &branching, nest);
    cancel.check("augment")?;
    let mut aug = if use_reference {
        reference::augment_reference(&graph, &branching.edges, &comps, m)
    } else {
        augment(&graph, &branching.edges, &comps, m)
    };
    if opts.enable_merging {
        cancel.check("merge")?;
        if use_reference {
            reference::merge_cross_components_reference(&graph, &mut comps, &mut aug, m);
        } else {
            merge_cross_components(&graph, &mut comps, &mut aug, m);
        }
    }
    cancel.check("alignment")?;
    let mut alignment = if use_reference {
        rescomm_alignment::reference::compute_alignment_reference(nest, &graph, &comps, &aug)
    } else {
        compute_alignment(nest, &graph, &comps, &aug)
    };
    let mut rotations: HashMap<usize, IMat> = HashMap::new();

    // ---- Step 2(a): macro-communications, rotating components. ----
    if opts.enable_macro {
        cancel.check("macro_scan")?;
        // Process residuals; rotate each component at most once, driven by
        // the first partial collective that needs it.
        let residuals = residual_communications(nest, &alignment);
        for r in &residuals {
            let acc = nest.access(r.access);
            let st = nest.statement(r.stmt);
            let mc = detect_cached(
                cache,
                MacroInput {
                    theta: st.schedule.theta(),
                    f: &acc.f,
                    m_s: &alignment.stmt_alloc[r.stmt.0].mat,
                    m_x: &alignment.array_alloc[r.array.0].mat,
                    kind: acc.kind,
                    stmt_is_reduction: stmt_is_reduction(nest, r.stmt),
                },
            );
            let Some(mc) = mc else { continue };
            if let Extent::Partial { .. } = mc.extent {
                if !mc.axis_parallel && r.same_component {
                    let ci = alignment
                        .component_of(Vertex::Stmt(r.stmt))
                        .expect("same-component residual has a component");
                    if rotations.contains_key(&ci) {
                        continue; // one rotation per component
                    }
                    let d = mc.directions.as_ref().expect("partial has directions");
                    let (qinv, _) = axis_alignment_rotation(d);
                    alignment.rotate_component(ci, &qinv);
                    rotations.insert(ci, qinv);
                }
            }
        }
    }

    // ---- Classify every access under the (possibly rotated) alignment,
    //      decomposing leftover general communications. ----
    cancel.check("classify")?;
    let outcomes = classify_outcomes(nest, &mut alignment, &mut rotations, opts, cache);

    Ok(Mapping {
        alignment,
        outcomes,
        rotations,
        incidents: Vec::new(),
    })
}

/// Classify every access under `alignment`, decomposing leftover general
/// communications (and possibly applying similarity rotations). Shared
/// between [`map_nest`] and the degraded-grid remapper
/// ([`crate::recover::remap_for_survivors`]), which re-derives outcomes
/// after a node-loss fold rotation.
pub(crate) fn classify_outcomes(
    nest: &LoopNest,
    alignment: &mut Alignment,
    rotations: &mut HashMap<usize, IMat>,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
) -> Vec<CommOutcome> {
    let mut outcomes: Vec<CommOutcome> = Vec::with_capacity(nest.accesses.len());
    for acc in &nest.accesses {
        let st = nest.statement(acc.stmt);
        if alignment.is_local(nest, acc) {
            outcomes.push(CommOutcome::Local);
            continue;
        }
        if alignment.is_linear_local(nest, acc) {
            outcomes.push(CommOutcome::Translation);
            continue;
        }
        // Macro-communication?
        if opts.enable_macro {
            let mc = detect_cached(
                cache,
                MacroInput {
                    theta: st.schedule.theta(),
                    f: &acc.f,
                    m_s: &alignment.stmt_alloc[acc.stmt.0].mat,
                    m_x: &alignment.array_alloc[acc.array.0].mat,
                    kind: acc.kind,
                    stmt_is_reduction: stmt_is_reduction(nest, acc.stmt),
                },
            );
            if let Some(mc) = mc {
                match mc.extent {
                    Extent::Total => {
                        outcomes.push(CommOutcome::Macro {
                            kind: mc.kind,
                            total: true,
                            rotated: false,
                        });
                        continue;
                    }
                    Extent::Partial { .. } if mc.axis_parallel => {
                        let ci = alignment.component_of(Vertex::Stmt(acc.stmt));
                        outcomes.push(CommOutcome::Macro {
                            kind: mc.kind,
                            total: false,
                            rotated: ci.is_some_and(|c| rotations.contains_key(&c)),
                        });
                        continue;
                    }
                    _ => { /* hidden or misaligned: fall through */ }
                }
            }
        }
        // Decomposition?
        if opts.enable_decompose {
            if let Some(outcome) = try_decompose(nest, alignment, rotations, acc, opts, cache) {
                outcomes.push(outcome);
                continue;
            }
        }
        outcomes.push(CommOutcome::General);
    }
    outcomes
}

/// Dataflow matrix of a residual communication: the `T` with
/// `T·(M_x·F) = M_S`, when it exists.
pub fn dataflow_matrix(alignment: &Alignment, nest: &LoopNest, access: AccessId) -> Option<IMat> {
    dataflow_matrix_cached(&mut AnalysisCache::disabled(), alignment, nest, access)
}

/// [`dataflow_matrix`] through the memo, keyed on the exact
/// `(M_S, M_x, F, m)` — the rank check and the linear solve both depend
/// only on those, so hits are exact replays.
pub fn dataflow_matrix_cached(
    cache: &mut AnalysisCache,
    alignment: &Alignment,
    nest: &LoopNest,
    access: AccessId,
) -> Option<IMat> {
    let acc = nest.access(access);
    let m_s = &alignment.stmt_alloc[acc.stmt.0].mat;
    let m_x = &alignment.array_alloc[acc.array.0].mat;
    if cache.enabled {
        let key = (m_s.clone(), m_x.clone(), acc.f.clone(), alignment.m);
        if let Some(hit) = cache.dataflow.get(&key) {
            return hit.clone();
        }
        let out = dataflow_solve(m_s, m_x, &acc.f, alignment.m);
        cache.dataflow.insert(key, out.clone());
        out
    } else {
        dataflow_solve(m_s, m_x, &acc.f, alignment.m)
    }
}

fn dataflow_solve(m_s: &IMat, m_x: &IMat, f: &IMat, m: usize) -> Option<IMat> {
    let mxf = m_x * f;
    if mxf.rank() < m.min(mxf.rows()) {
        return None;
    }
    solve_xf_eq_s(m_s, &mxf).ok().map(|fam| fam.particular)
}

fn try_decompose(
    nest: &LoopNest,
    alignment: &mut Alignment,
    rotations: &mut HashMap<usize, IMat>,
    acc: &rescomm_loopnest::Access,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
) -> Option<CommOutcome> {
    let t = dataflow_matrix_cached(cache, alignment, nest, acc.id)?;
    if !t.is_square() {
        return None;
    }
    // A dataflow matrix whose determinant overflows even i128-checked
    // arithmetic is not decomposable by any strategy here: report the
    // access as general instead of panicking.
    let det = t.try_det().ok()?;
    if t.rows() == 2 {
        if matches!(det, 1 | -1) {
            // det −1 is handled through the general (unirow) path below.
            if det == 1 {
                if let Some(factors) = decompose_direct(&t) {
                    if factors.len() <= 4 {
                        return Some(CommOutcome::Decomposed {
                            factors,
                            rotated: false,
                        });
                    }
                    // Long chain: try a similarity rotation first — only
                    // when statement and array share an unrotated
                    // component.
                    if opts.enable_similarity {
                        if let Some(ci) =
                            alignment
                                .component_of(Vertex::Stmt(acc.stmt))
                                .filter(|&ci| {
                                    alignment.component_of(Vertex::Array(acc.array)) == Some(ci)
                                        && !rotations.contains_key(&ci)
                                })
                        {
                            if let Some(sim) = search_similarity(&t, 200) {
                                alignment.rotate_component(ci, &sim.m);
                                rotations.insert(ci, sim.m.clone());
                                return Some(CommOutcome::Decomposed {
                                    factors: sim.factors,
                                    rotated: true,
                                });
                            }
                        }
                    }
                    return Some(CommOutcome::Decomposed {
                        factors,
                        rotated: false,
                    });
                }
            }
        }
        // det ≠ 1: unirow decomposition.
        if det != 0 {
            if let Ok(f) = decompose_general(&t) {
                return Some(CommOutcome::DecomposedGeneral { n_factors: f.len() });
            }
        }
        return None;
    }
    // Higher-dimensional grids: elementary shears for det = 1 (§4.1's
    // n-dimensional extension), unirow factors otherwise.
    if det == 1 {
        if let Some(f) = shear_decompose(&t) {
            return Some(CommOutcome::DecomposedGeneral { n_factors: f.len() });
        }
    }
    if det != 0 {
        if let Ok(f) = decompose_general(&t) {
            let n = f
                .iter()
                .filter(|g| {
                    let GenFactor::Unirow { coeffs, row } = g;
                    // Identity rows are free.
                    coeffs
                        .iter()
                        .enumerate()
                        .any(|(j, &c)| c != i64::from(j == *row))
                })
                .count();
            return Some(CommOutcome::DecomposedGeneral { n_factors: n });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescomm_loopnest::examples;

    #[test]
    fn motivating_example_full_narrative() {
        // The paper's §2 summary: "5 local communications, one broadcast
        // and one residual communication decomposed into two elementary
        // communications" (plus the footnoted F8 bonus broadcast).
        let (nest, ids) = examples::motivating_example(8, 4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let out = |id: rescomm_loopnest::AccessId| &mapping.outcomes[id.0];
        for fid in [ids.f1, ids.f2, ids.f4, ids.f5, ids.f7] {
            assert_eq!(*out(fid), CommOutcome::Local, "{fid:?} must be local");
        }
        // F6: partial broadcast, made axis-parallel by a rotation.
        match out(ids.f6) {
            CommOutcome::Macro {
                kind: MacroKind::Broadcast,
                total: false,
                rotated,
            } => assert!(*rotated, "F6 needs the V rotation"),
            other => panic!("F6 expected partial broadcast, got {other:?}"),
        }
        // F8: the lucky coincidence — axis-parallel after the same V.
        match out(ids.f8) {
            CommOutcome::Macro {
                kind: MacroKind::Broadcast,
                total: false,
                ..
            } => {}
            other => panic!("F8 expected partial broadcast, got {other:?}"),
        }
        // F3: decomposed into exactly two elementary factors.
        match out(ids.f3) {
            CommOutcome::Decomposed { factors, .. } => {
                assert_eq!(factors.len(), 2, "factors: {factors:?}");
            }
            other => panic!("F3 expected decomposition, got {other:?}"),
        }
    }

    #[test]
    fn motivating_example_dataflow_matrix_is_paper_t() {
        // After the broadcast rotation V, T = V·M_S1·(M_a·F3)⁻¹·V⁻¹ is in
        // the similarity class of the paper's [[1,1],[1,2]] = L(1)·U(1):
        // det 1, trace 3, and a direct 2-factor decomposition (the exact
        // entries depend on which axis the Hermite rotation picks).
        let (nest, ids) = examples::motivating_example(8, 4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let t = dataflow_matrix(&mapping.alignment, &nest, ids.f3).unwrap();
        assert_eq!(t.det(), 1);
        assert_eq!(t.trace(), 3);
        let f = rescomm_decompose::direct::decompose2(&t).expect("2-factor form");
        assert_eq!(f.len(), 2);
        // And without any rotation (identity-seeded alignment) the raw
        // dataflow matrix V·T₀·V⁻¹ with V = [[1,1],[0,1]] is exactly the
        // paper's [[1,1],[1,2]].
        let v = IMat::from_rows(&[&[1, 1], &[0, 1]]);
        let vinv = v.inverse_unimodular().unwrap();
        let base = map_nest(&nest, &MappingOptions::step1_only(2)).unwrap();
        let t0 = dataflow_matrix(&base.alignment, &nest, ids.f3).unwrap();
        assert_eq!(&(&v * &t0) * &vinv, IMat::from_rows(&[&[1, 1], &[1, 2]]));
    }

    #[test]
    fn rotation_preserves_step1_locality() {
        let (nest, _) = examples::motivating_example(8, 4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert_eq!(mapping.rotations.len(), 1, "exactly one component rotation");
        let n_local = mapping
            .outcomes
            .iter()
            .filter(|o| matches!(o, CommOutcome::Local))
            .count();
        assert_eq!(n_local, 5);
    }

    #[test]
    fn step1_only_leaves_generals() {
        let (nest, ids) = examples::motivating_example(8, 4);
        let mapping = map_nest(&nest, &MappingOptions::step1_only(2)).unwrap();
        assert!(matches!(mapping.outcomes[ids.f3.0], CommOutcome::General));
        assert!(matches!(mapping.outcomes[ids.f6.0], CommOutcome::General));
        assert!(mapping.rotations.is_empty());
    }

    #[test]
    fn example5_communication_free() {
        let (nest, _) = examples::example5_platonoff(4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert!(
            mapping
                .outcomes
                .iter()
                .all(|o| matches!(o, CommOutcome::Local)),
            "outcomes: {:?}",
            mapping.outcomes
        );
    }

    #[test]
    fn matmul_keeps_reduction_structure() {
        let nest = examples::matmul(6);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        // One access local; the others cross components → macro or general
        // (never panic); at least the C access should be recognized.
        assert!(mapping
            .outcomes
            .iter()
            .any(|o| matches!(o, CommOutcome::Local)));
        assert_eq!(mapping.outcomes.len(), 3);
    }

    #[test]
    fn example2_broadcast_detected_end_to_end() {
        let nest = examples::example2_broadcast(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert!(
            mapping.outcomes.iter().any(|o| matches!(
                o,
                CommOutcome::Macro {
                    kind: MacroKind::Broadcast,
                    ..
                }
            ) || matches!(o, CommOutcome::Local)),
            "outcomes: {:?}",
            mapping.outcomes
        );
    }

    #[test]
    fn gauss_maps_without_panic_and_mostly_local() {
        let nest = examples::gauss_elim(6);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let n_local = mapping
            .outcomes
            .iter()
            .filter(|o| matches!(o, CommOutcome::Local | CommOutcome::Translation))
            .count();
        assert!(n_local >= 2, "outcomes: {:?}", mapping.outcomes);
    }

    #[test]
    fn cross_component_merge_zeroes_compatible_reads_end_to_end() {
        use rescomm_loopnest::{Domain, NestBuilder};
        // Without merging only the square c-access aligns; with the step
        // 1(c) extension both flat reads become local too.
        let mut bld = NestBuilder::new("mergeable");
        let a = bld.array("a", 2);
        let b2 = bld.array("b", 2);
        let c = bld.array("c", 3);
        let s = bld.statement("S", 3, Domain::cube(3, 4));
        bld.write(s, c, IMat::identity(3), &[0, 0, 0]);
        bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]), &[0, 0]);
        bld.read(s, b2, IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0]]), &[0, 0]);
        let nest = bld.build().unwrap();

        let with = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let locals = with
            .outcomes
            .iter()
            .filter(|o| matches!(o, CommOutcome::Local))
            .count();
        assert_eq!(locals, 3, "all three accesses local: {:?}", with.outcomes);

        let mut opts = MappingOptions::new(2);
        opts.enable_merging = false;
        let without = map_nest(&nest, &opts).unwrap();
        let locals0 = without
            .outcomes
            .iter()
            .filter(|o| matches!(o, CommOutcome::Local))
            .count();
        assert!(
            locals0 < 3,
            "merging must be the difference: {:?}",
            without.outcomes
        );
    }

    #[test]
    fn independent_components_rotate_independently() {
        use rescomm_loopnest::{Domain, NestBuilder};
        // Two disjoint copies of the motivating example's broadcast
        // gadget, with different skews: each component needs its own
        // unimodular rotation.
        let mut b = NestBuilder::new("two-gadgets");
        let gadget = |b: &mut NestBuilder, tag: usize, f_skew: IMat| {
            let a = b.array(&format!("a{tag}"), 2);
            let w = b.array(&format!("w{tag}"), 3);
            let p = b.statement(&format!("P{tag}"), 2, Domain::cube(2, 4));
            let q = b.statement(&format!("Q{tag}"), 3, Domain::cube(3, 4));
            b.read(p, a, IMat::identity(2), &[0, 0]);
            b.write(
                p,
                w,
                IMat::from_rows(&[&[1, 0], &[0, 1], &[0, 0]]),
                &[0, 0, 0],
            );
            b.write(q, w, IMat::identity(3), &[0, 0, 1]);
            b.read(q, a, f_skew, &[0, 0]);
        };
        gadget(&mut b, 1, IMat::from_rows(&[&[1, 1, 0], &[0, 1, 1]])); // ker (1,−1,1)
        gadget(&mut b, 2, IMat::from_rows(&[&[1, 2, 0], &[0, 1, 1]])); // ker (2,−1,1)
        let nest = b.build().unwrap();
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert_eq!(mapping.rotations.len(), 2, "one rotation per gadget");
        let broadcasts = mapping
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    CommOutcome::Macro {
                        kind: MacroKind::Broadcast,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(broadcasts, 2, "outcomes: {:?}", mapping.outcomes);
        // All other accesses local.
        let locals = mapping
            .outcomes
            .iter()
            .filter(|o| matches!(o, CommOutcome::Local))
            .count();
        assert_eq!(locals, 6);
    }

    #[test]
    fn three_dimensional_target_grid() {
        // Map a depth-3 nest onto a 3-D virtual grid: the depth-3
        // statements keep full-rank 3×3 allocations and any residual
        // dataflow decomposes into n-dimensional shears.
        let (nest, _) = examples::motivating_example(6, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(3)).unwrap();
        assert_eq!(mapping.outcomes.len(), 8);
        // Depth-3 statements get rank-3 allocations.
        for (si, st) in nest.statements.iter().enumerate() {
            let mat = &mapping.alignment.stmt_alloc[si].mat;
            assert_eq!(mat.rank(), st.depth.min(3), "statement {}", st.name);
        }
        // Nothing may panic and the counts must cover all accesses.
        let r = mapping.report(&nest);
        assert_eq!(
            r.n_local + r.n_translation + r.n_macro() + r.n_decomposed + r.n_general,
            8
        );
    }

    #[test]
    fn one_dimensional_target_grid() {
        let nest = examples::matmul(4);
        let mapping = map_nest(&nest, &MappingOptions::new(1)).unwrap();
        assert_eq!(mapping.outcomes.len(), 3);
        for a in &mapping.alignment.stmt_alloc {
            assert_eq!(a.mat.rows(), 1);
        }
    }

    #[test]
    fn shear_decomposition_used_for_3d_unimodular_dataflow() {
        use rescomm_loopnest::{Domain, NestBuilder};
        // A depth-3 nest with a unimodular 3×3 twist between two reads of
        // the same array: one read aligns, the other's dataflow matrix is
        // an SL₃ element → shear decomposition.
        let mut b = NestBuilder::new("twist3");
        let x = b.array("x", 3);
        let st = b.statement("S", 3, Domain::cube(3, 4));
        b.read(st, x, IMat::identity(3), &[0, 0, 0]);
        let twist = IMat::from_rows(&[&[1, 1, 0], &[0, 1, 1], &[0, 0, 1]]);
        b.read(st, x, twist, &[0, 0, 0]);
        let nest = b.build().unwrap();
        let mapping = map_nest(&nest, &MappingOptions::new(3)).unwrap();
        assert!(
            mapping.outcomes.iter().any(
                |o| matches!(o, CommOutcome::DecomposedGeneral { n_factors } if *n_factors >= 1)
            ),
            "outcomes: {:?}",
            mapping.outcomes
        );
    }

    #[test]
    fn clean_runs_record_no_incidents() {
        let (nest, _) = examples::motivating_example(8, 4);
        let plain = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert!(plain.incidents.is_empty());
        // Self-checking mode replays through the oracle, agrees, and adds
        // nothing to the record.
        let checked = map_nest(&nest, &MappingOptions::new(2).with_self_check()).unwrap();
        assert_eq!(plain.outcomes, checked.outcomes);
        assert!(checked.incidents.is_empty());
    }

    #[test]
    fn huge_coefficients_error_instead_of_panicking() {
        use rescomm_loopnest::{Domain, NestBuilder};
        // Access coefficients near i64::MAX force the exact arithmetic
        // into its overflow paths. The guarded pipeline must return — a
        // mapping (possibly via the oracle fallback, with the incident on
        // record) or a typed error — never unwind.
        let big = i64::MAX / 2;
        let mut b = NestBuilder::new("huge");
        let x = b.array("x", 2);
        let s = b.statement("S", 2, Domain::cube(2, 4));
        b.write(s, x, IMat::identity(2), &[0, 0]);
        b.read(s, x, IMat::from_rows(&[&[big, big], &[1, big]]), &[0, 0]);
        let nest = b.build().unwrap();
        match map_nest(&nest, &MappingOptions::new(2)) {
            Ok(m) => {
                assert_eq!(m.outcomes.len(), 2);
                for inc in &m.incidents {
                    assert!(!inc.stage.is_empty());
                }
            }
            Err(e) => assert!(!format!("{e}").is_empty()),
        }
    }

    #[test]
    fn batch_results_match_singles_and_propagate_ok() {
        let nests = vec![
            examples::matmul(4),
            examples::gauss_elim(4),
            examples::adi_sweep(4),
        ];
        let opts = MappingOptions::new(2);
        let batch = map_nest_batch(&nests, &opts, 2).unwrap();
        assert_eq!(batch.len(), 3);
        for (nest, got) in nests.iter().zip(&batch) {
            let solo = map_nest(nest, &opts).unwrap();
            assert_eq!(solo.outcomes, got.outcomes);
            assert!(got.incidents.is_empty());
        }
    }

    #[test]
    fn adi_sweep_maps() {
        let nest = examples::adi_sweep(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        assert_eq!(mapping.outcomes.len(), 4);
        // The two statements want transposed layouts; at least two accesses
        // become local/translation.
        let ok = mapping
            .outcomes
            .iter()
            .filter(|o| matches!(o, CommOutcome::Local | CommOutcome::Translation))
            .count();
        assert!(ok >= 2, "outcomes: {:?}", mapping.outcomes);
    }
}
