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
    AccessGraph, EdgeClasses, Vertex,
};
use rescomm_alignment::{compute_alignment, residual_communications, Alignment, AllocIds};
use rescomm_decompose::{
    decompose_direct, decompose_general, search_similarity, shear_decompose, Elementary, GenFactor,
    SimilarDecomposition,
};
use rescomm_intlin::{solve_xf_eq_s_particular, FxMap, IMat, MatId, MatTable};
use rescomm_loopnest::{Access, AccessId, AccessKind, LoopNest};
use rescomm_machine::pool;
use rescomm_machine::SweepReport;
use rescomm_macrocomm::{
    axis_alignment_rotation, detect, Extent, MacroComm, MacroInput, MacroKind,
};
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
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
    /// Weight access-graph edges by `rank F` (the paper's volume
    /// prioritization); `false` uses unit weights (ablation).
    pub weight_by_rank: bool,
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
            weight_by_rank: true,
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
            weight_by_rank: true,
            self_check: false,
        }
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
    /// Recoverable events: a [`MappingOptions::self_check`] replay that
    /// disagreed with the fast path (the oracle's mapping then stands) or
    /// failed, and the node-loss remaps of
    /// [`crate::recover::remap_for_survivors`]. Empty on a clean run.
    pub incidents: Vec<Incident>,
}

impl Mapping {
    /// Summarize into a printable report.
    pub fn report(&self, nest: &LoopNest) -> crate::report::MappingReport {
        crate::report::MappingReport::from_mapping(self, nest)
    }
}

/// Memo key for [`detect`]: the ids of `(θ, F, M_S, M_x)`, the access kind
/// and whether the statement is a reduction.
type DetectKey = (MatId, MatId, MatId, MatId, AccessKind, bool);

/// Memo for the kernel-heavy computations of the pipeline, over one
/// [`MatTable`] that interns every matrix the pipeline reads or makes.
///
/// * The table gives each distinct matrix one [`MatId`] and memoizes
///   products by id pair: `R_v = R_u·W`, `M_w = seed·R_w` and the
///   residual test `M_x·F = M_S` are id products and id comparisons.
/// * [`EdgeClasses`] keeps the graph build's classification of each
///   distinct `(F, m)` by `F`'s id.
/// * [`detect`](fn@detect)'s collective classification is keyed on the
///   ids of `(θ, F, M_S, M_x)`, the dataflow solve on those of
///   `(M_S, M_x·F)`, and each dataflow matrix `T` keeps its determinant,
///   direct factors, similarity and unirow counts by id.
///
/// Chained stencil families repeat the same few matrices across hundreds
/// of statements, so one entry replaces many Hermite/kernel/adjugate
/// computations.
///
/// The cache is **outcome-transparent**: every memoized function is pure,
/// so a warm cache classifies exactly like a fresh one, and a
/// computation that panics stores nothing. Reuse a cache across nests
/// (mixed `m` included; [`map_nest_batch`] gives each worker thread its
/// own, and the server one per slot), or keep one per call as
/// [`map_nest`] does. [`AnalysisCache::len`] counts the table too, so a
/// caller bounds the whole cache by clearing it past a size.
pub struct AnalysisCache {
    mats: MatTable,
    classes: EdgeClasses,
    detect: FxMap<DetectKey, u32>,
    /// The detections, indexed by the values of `detect`.
    detected: Vec<Option<MacroComm>>,
    dataflow: FxMap<(MatId, MatId, u32), Option<MatId>>,
    facts: FxMap<MatId, TFacts>,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnalysisCache {
            mats: MatTable::new(),
            classes: EdgeClasses::new(),
            detect: FxMap::default(),
            detected: Vec::new(),
            dataflow: FxMap::default(),
            facts: FxMap::default(),
        }
    }

    /// Drop all memoized entries and interned matrices.
    pub fn clear(&mut self) {
        self.mats.clear();
        self.classes.clear();
        self.detect.clear();
        self.detected.clear();
        self.dataflow.clear();
        self.facts.clear();
    }

    /// Number of entries across all tables, the matrix table included.
    pub fn len(&self) -> usize {
        self.mats.len()
            + self.classes.len()
            + self.detected.len()
            + self.dataflow.len()
            + self.facts.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache::new()
    }
}

/// [`detect`] of one access under the allocations `ids`, through the memo
/// (pure, so cache hits are exact replays): the index of the detection in
/// `cache.detected`.
fn detect_cached(
    cache: &mut AnalysisCache,
    nest: &LoopNest,
    acc: &Access,
    f: MatId,
    ids: &AllocIds,
    reduces: &[bool],
) -> u32 {
    let theta = nest.statement(acc.stmt).schedule.theta();
    let (m_s, m_x) = (ids.stmt[acc.stmt.0], ids.array[acc.array.0]);
    let key = (
        cache.mats.intern(theta),
        f,
        m_s,
        m_x,
        acc.kind,
        reduces[acc.stmt.0],
    );
    if let Some(&hit) = cache.detect.get(&key) {
        return hit;
    }
    let out = detect(MacroInput {
        theta,
        f: &acc.f,
        m_s: &cache.mats[m_s],
        m_x: &cache.mats[m_x],
        kind: acc.kind,
        stmt_is_reduction: reduces[acc.stmt.0],
    });
    let i = cache.detected.len() as u32;
    cache.detected.push(out);
    cache.detect.insert(key, i);
    i
}

/// Run the complete heuristic on a nest.
///
/// The pipeline is *guarded*: an internal panic (an overflow in exact
/// arithmetic, a violated invariant) is caught and returned as
/// [`RescommError::Analysis`] at stage `"map_nest"`, with the panic
/// message as its detail.
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
/// servers enforcing per-request deadlines. With the inert token this is
/// exactly [`map_nest_with`].
///
/// Under [`MappingOptions::self_check`] a successful mapping is replayed
/// through [`map_nest_reference`], guarded and after one more checkpoint:
/// where the outcomes differ the oracle's mapping is returned, and a
/// disagreement or an oracle panic is recorded as an [`Incident`].
pub fn map_nest_cancellable(
    nest: &LoopNest,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
    cancel: &CancelToken,
) -> Result<Mapping, RescommError> {
    let mut mapping = guarded("map_nest", || map_nest_impl(nest, opts, cache, cancel)).map_err(
        |incident| RescommError::Analysis {
            stage: "map_nest",
            detail: incident.detail,
        },
    )??;
    if !opts.self_check {
        return Ok(mapping);
    }
    cancel.check("self_check")?;
    match guarded("map_nest_reference", || map_nest_reference(nest, opts)) {
        Ok(mut reference) if reference.outcomes != mapping.outcomes => {
            // The oracle wins; keep the evidence.
            reference.incidents.push(Incident::fallback(
                "self_check",
                format!(
                    "fast path disagreed with the reference oracle on {}: \
                     fell back to the reference mapping",
                    nest.name
                ),
            ));
            Ok(reference)
        }
        Ok(_) => Ok(mapping),
        Err(inc) => {
            // The fast result stands, but the failed check is on the
            // record.
            mapping.incidents.push(Incident::fallback(
                "self_check",
                format!("reference oracle failed: {}", inc.detail),
            ));
            Ok(mapping)
        }
    }
}

/// The seed implementation end to end: reference branching, augment and
/// merge (see [`rescomm_accessgraph::reference`]), then the reference
/// alignment, macro scan and classify, over a matrix table of its own
/// and with nothing memoized. Kept as the oracle of the differential
/// nets and of [`MappingOptions::self_check`], and as the
/// `pipeline_baseline` "old" timing path. Unlike [`map_nest`] it is
/// unguarded — it panics where the seed did.
pub fn map_nest_reference(nest: &LoopNest, opts: &MappingOptions) -> Mapping {
    let m = opts.m;
    let mut mats = MatTable::new();
    let graph = AccessGraph::build_in(
        nest,
        m,
        opts.weight_by_rank,
        &mut mats,
        &mut EdgeClasses::new(),
    );
    let branching = reference::maximum_branching_reference(&graph);
    let mut comps = component_structure(&graph, &branching, nest, &mut mats);
    let mut aug = reference::augment_reference(&graph, &branching.edges, &comps, m, &mats);
    reference::merge_cross_components_reference(&graph, &mut comps, &mut aug, m, &mut mats);
    let mut alignment = rescomm_alignment::reference::compute_alignment_reference(
        nest, &graph, &comps, &aug, &mats,
    );
    let mut rotations: HashMap<usize, IMat> = HashMap::new();
    if opts.enable_macro {
        macro_scan_reference(nest, &mut alignment, &mut rotations);
    }
    let outcomes = classify_outcomes_reference(nest, &mut alignment, &mut rotations, opts);
    Mapping {
        alignment,
        outcomes,
        rotations,
        incidents: Vec::new(),
    }
}

/// Map every nest, fanning out over `threads` workers on
/// [`pool::sweep`] with one [`AnalysisCache`] per worker (the sweep's
/// per-worker scratch state). Results are in input order and
/// identical to mapping each nest alone; the first failing nest's error
/// is returned. The sweep's execution report (workers actually used,
/// grain) rides along — scaling benches compute efficiency
/// against [`SweepReport::workers`], never the request.
pub fn map_nest_batch(
    nests: &[LoopNest],
    opts: &MappingOptions,
    threads: usize,
) -> (Result<Vec<Mapping>, RescommError>, SweepReport) {
    let (results, report) = pool::sweep(nests, threads, AnalysisCache::new, |cache, nest| {
        map_nest_with(nest, opts, cache)
    });
    (results.into_iter().collect(), report)
}

fn map_nest_impl(
    nest: &LoopNest,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
    cancel: &CancelToken,
) -> Result<Mapping, Cancelled> {
    let m = opts.m;
    cancel.check("graph_build")?;
    // ---- Step 1: zero out what we can. ----
    let graph = AccessGraph::build_in(
        nest,
        m,
        opts.weight_by_rank,
        &mut cache.mats,
        &mut cache.classes,
    );
    cancel.check("branching")?;
    let branching = maximum_branching(&graph);
    let mut comps = component_structure(&graph, &branching, nest, &mut cache.mats);
    cancel.check("augment")?;
    let mut aug = augment(&graph, &branching.edges, &comps, m, &mut cache.mats);
    // Step 1(c) extension: merge compatible cross-component edges so
    // their communications become local too.
    cancel.check("merge")?;
    merge_cross_components(&graph, &mut comps, &mut aug, m, &mut cache.mats);
    cancel.check("alignment")?;
    let mut rotations: HashMap<usize, IMat> = HashMap::new();
    let (mut alignment, mut ids) = compute_alignment(nest, &graph, &comps, &aug, &mut cache.mats);

    // ---- Step 2(a): macro-communications, rotating components. ----
    let reduces = nest.reduction_stmts();
    let f_ids = graph.f_ids();
    let mut scanned = None;
    if opts.enable_macro {
        cancel.check("macro_scan")?;
        scanned = Some(macro_scan(
            nest,
            f_ids,
            &mut alignment,
            &mut ids,
            &mut rotations,
            &reduces,
            cache,
        ));
    }

    // ---- Classify every access under the (possibly rotated) alignment,
    //      decomposing leftover general communications. ----
    cancel.check("classify")?;
    let outcomes = classify_outcomes(
        nest,
        f_ids,
        &mut alignment,
        &mut ids,
        &mut rotations,
        opts,
        cache,
        &reduces,
        scanned.as_deref(),
    );

    Ok(Mapping {
        alignment,
        outcomes,
        rotations,
        incidents: Vec::new(),
    })
}

/// What [`macro_scan`] learned about one access, under the allocations it
/// saw. Those hold until a component on either side of the access is
/// rotated, so classify reuses the entry while neither is.
#[derive(Clone, Copy)]
enum Scanned {
    /// `M_S = M_x·F`: only the offsets separate Local from Translation.
    LinearLocal,
    /// A residual communication, with what [`detect`](fn@detect) made of
    /// it (an index into the cache's detections).
    Residual(u32),
}

/// Step 2(a): detect the macro-communication of every residual, and rotate
/// each component at most once, driven by the first partial collective
/// that is not axis-parallel. The residual test (`M_x·F = M_S`, an id
/// product and an id comparison) runs on the alignment before any
/// rotation; `f_ids` holds each access's `F` id and `reduces` is
/// [`LoopNest::reduction_stmts`].
fn macro_scan(
    nest: &LoopNest,
    f_ids: &[MatId],
    alignment: &mut Alignment,
    ids: &mut AllocIds,
    rotations: &mut HashMap<usize, IMat>,
    reduces: &[bool],
    cache: &mut AnalysisCache,
) -> Vec<Scanned> {
    ids.check_table(&cache.mats);
    let mut scanned = vec![Scanned::LinearLocal; nest.accesses.len()];
    let mut residuals = Vec::new();
    for acc in &nest.accesses {
        let owner = cache.mats.mul(ids.array[acc.array.0], f_ids[acc.id.0]);
        if owner != ids.stmt[acc.stmt.0] {
            residuals.push(acc);
        }
    }
    for acc in residuals {
        let i = detect_cached(cache, nest, acc, f_ids[acc.id.0], ids, reduces);
        scanned[acc.id.0] = Scanned::Residual(i);
        let Some(mc) = &cache.detected[i as usize] else {
            continue;
        };
        let cs = alignment.comp_of_stmt[acc.stmt.0];
        let same_component = cs.is_some() && cs == alignment.comp_of_array[acc.array.0];
        if matches!(mc.extent, Extent::Partial { .. }) && !mc.axis_parallel && same_component {
            let ci = cs.expect("same-component residual has a component") as usize;
            if let Entry::Vacant(slot) = rotations.entry(ci) {
                let d = mc.directions.as_ref().expect("partial has directions");
                let (qinv, _) = axis_alignment_rotation(d);
                ids.rotate(alignment, ci, &qinv, &mut cache.mats);
                slot.insert(qinv);
            }
        }
    }
    scanned
}

/// Classify every access under `alignment` (whose allocation ids are
/// `ids`), decomposing leftover general communications (and possibly
/// applying similarity rotations). `f_ids` holds each access's `F` id in
/// the cache's table and `reduces` is [`LoopNest::reduction_stmts`].
///
/// The linear-locality test is `M_x·F = M_S` on ids, and the offset is
/// compared only when the linear parts match. Where `scanned` (from
/// [`macro_scan`] on this alignment) has an entry and neither the
/// statement's nor the array's component is in `rotations`, the entry
/// stands in for the residual test and the detection.
#[allow(clippy::too_many_arguments)]
fn classify_outcomes(
    nest: &LoopNest,
    f_ids: &[MatId],
    alignment: &mut Alignment,
    ids: &mut AllocIds,
    rotations: &mut HashMap<usize, IMat>,
    opts: &MappingOptions,
    cache: &mut AnalysisCache,
    reduces: &[bool],
    scanned: Option<&[Scanned]>,
) -> Vec<CommOutcome> {
    ids.check_table(&cache.mats);
    let mut outcomes: Vec<CommOutcome> = Vec::with_capacity(nest.accesses.len());
    // `rotations` as a dense per-component table, for the two lookups
    // every access makes.
    let mut rotated = vec![false; alignment.n_components];
    let mark = |rotated: &mut Vec<bool>, rotations: &HashMap<usize, IMat>| {
        for &c in rotations.keys() {
            if c >= rotated.len() {
                rotated.resize(c + 1, false);
            }
            rotated[c] = true;
        }
    };
    mark(&mut rotated, rotations);
    for acc in &nest.accesses {
        let unrotated =
            |c: Option<u32>| c.is_none_or(|c| !rotated.get(c as usize).is_some_and(|&r| r));
        let seen = scanned
            .filter(|_| {
                unrotated(alignment.comp_of_stmt[acc.stmt.0])
                    && unrotated(alignment.comp_of_array[acc.array.0])
            })
            .map(|s| &s[acc.id.0]);
        let f = f_ids[acc.id.0];
        let linear_local = match seen {
            Some(Scanned::LinearLocal) => true,
            Some(Scanned::Residual(_)) => false,
            None => cache.mats.mul(ids.array[acc.array.0], f) == ids.stmt[acc.stmt.0],
        };
        if linear_local {
            outcomes.push(if alignment.is_offset_local(acc) {
                CommOutcome::Local
            } else {
                CommOutcome::Translation
            });
            continue;
        }
        // Macro-communication?
        if opts.enable_macro {
            let i = match seen {
                Some(&Scanned::Residual(i)) => i,
                _ => detect_cached(cache, nest, acc, f, ids, reduces),
            };
            let mc = cache.detected[i as usize].as_ref();
            if let Some(outcome) = mc.and_then(|mc| macro_outcome(mc, alignment, rotations, acc)) {
                outcomes.push(outcome);
                continue;
            }
        }
        // Decomposition?
        if opts.enable_decompose {
            let before = rotations.len();
            if let Some(outcome) = try_decompose(f, alignment, ids, rotations, acc, cache) {
                if rotations.len() != before {
                    mark(&mut rotated, rotations);
                }
                outcomes.push(outcome);
                continue;
            }
        }
        outcomes.push(CommOutcome::General);
    }
    outcomes
}

/// The outcome of a detected collective: total, or partial and
/// axis-parallel. `None` for a hidden or misaligned one, which falls
/// through to decomposition.
fn macro_outcome(
    mc: &MacroComm,
    alignment: &Alignment,
    rotations: &HashMap<usize, IMat>,
    acc: &Access,
) -> Option<CommOutcome> {
    match mc.extent {
        Extent::Total => Some(CommOutcome::Macro {
            kind: mc.kind,
            total: true,
            rotated: false,
        }),
        Extent::Partial { .. } if mc.axis_parallel => {
            let ci = alignment.component_of(Vertex::Stmt(acc.stmt));
            Some(CommOutcome::Macro {
                kind: mc.kind,
                total: false,
                rotated: ci.is_some_and(|c| rotations.contains_key(&c)),
            })
        }
        _ => None,
    }
}

/// Re-derive every outcome of a mapping under its (possibly re-rotated)
/// alignment, through the same classification [`map_nest`] runs, for the
/// degraded-grid remapper ([`crate::recover::remap_for_survivors`]),
/// which has no scan to pass.
pub(crate) fn reclassify(
    nest: &LoopNest,
    alignment: &mut Alignment,
    rotations: &mut HashMap<usize, IMat>,
    opts: &MappingOptions,
) -> Vec<CommOutcome> {
    let mut cache = AnalysisCache::new();
    let f_ids: Vec<MatId> = nest
        .accesses
        .iter()
        .map(|a| cache.mats.intern(&a.f))
        .collect();
    let mut ids = AllocIds::intern(alignment, &mut cache.mats);
    classify_outcomes(
        nest,
        &f_ids,
        alignment,
        &mut ids,
        rotations,
        opts,
        &mut cache,
        &nest.reduction_stmts(),
        None,
    )
}

fn stmt_is_reduction(nest: &LoopNest, s: rescomm_loopnest::StmtId) -> bool {
    nest.accesses
        .iter()
        .any(|a| a.stmt == s && a.kind == AccessKind::Reduce)
}

/// The seed's [`detect`] input of one access under `alignment`: the
/// reduction test rescans every access.
fn macro_input_reference<'a>(
    nest: &'a LoopNest,
    alignment: &'a Alignment,
    acc: &'a Access,
) -> MacroInput<'a> {
    MacroInput {
        theta: nest.statement(acc.stmt).schedule.theta(),
        f: &acc.f,
        m_s: &alignment.stmt_alloc[acc.stmt.0].mat,
        m_x: &alignment.array_alloc[acc.array.0].mat,
        kind: acc.kind,
        stmt_is_reduction: stmt_is_reduction(nest, acc.stmt),
    }
}

/// The seed's step 2(a), kept as the oracle for [`macro_scan`]: matrices
/// throughout, no memo.
fn macro_scan_reference(
    nest: &LoopNest,
    alignment: &mut Alignment,
    rotations: &mut HashMap<usize, IMat>,
) {
    // Process residuals; rotate each component at most once, driven by
    // the first partial collective that needs it.
    let residuals = residual_communications(nest, alignment);
    for r in &residuals {
        let acc = nest.access(r.access);
        let mc = detect(macro_input_reference(nest, alignment, acc));
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

/// The seed's classify, kept as the oracle for [`classify_outcomes`]:
/// every access is tested with [`Alignment::is_local`] and then
/// [`Alignment::is_linear_local`], detected afresh and decomposed with
/// nothing memoized.
fn classify_outcomes_reference(
    nest: &LoopNest,
    alignment: &mut Alignment,
    rotations: &mut HashMap<usize, IMat>,
    opts: &MappingOptions,
) -> Vec<CommOutcome> {
    let mut outcomes: Vec<CommOutcome> = Vec::with_capacity(nest.accesses.len());
    for acc in &nest.accesses {
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
            let mc = detect(macro_input_reference(nest, alignment, acc));
            if let Some(outcome) = mc.and_then(|mc| macro_outcome(&mc, alignment, rotations, acc)) {
                outcomes.push(outcome);
                continue;
            }
        }
        // Decomposition?
        if opts.enable_decompose {
            let decomposed = dataflow_matrix(alignment, nest, acc.id).and_then(|t| {
                let ci = rotatable_component(alignment, rotations, acc);
                let (outcome, rotation) = decompose(&t, &mut TFacts::default(), ci.is_some())?;
                if let (Some(ci), Some(v)) = (ci, rotation) {
                    alignment.rotate_component(ci, &v);
                    rotations.insert(ci, v);
                }
                Some(outcome)
            });
            if let Some(outcome) = decomposed {
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
    let acc = nest.access(access);
    let m_s = &alignment.stmt_alloc[acc.stmt.0].mat;
    let mxf = &alignment.array_alloc[acc.array.0].mat * &acc.f;
    dataflow_solve(m_s, &mxf, alignment.m)
}

/// [`dataflow_matrix`] through the memo: the solve is keyed on the ids of
/// `(M_S, M_x·F)` and `m`, on which the rank check and the linear solve
/// alone depend, so hits are exact replays.
pub fn dataflow_matrix_cached(
    cache: &mut AnalysisCache,
    alignment: &Alignment,
    nest: &LoopNest,
    access: AccessId,
) -> Option<IMat> {
    let acc = nest.access(access);
    let m_s = cache.mats.intern(&alignment.stmt_alloc[acc.stmt.0].mat);
    let m_x = cache.mats.intern(&alignment.array_alloc[acc.array.0].mat);
    let f = cache.mats.intern(&acc.f);
    dataflow_id(cache, m_s, m_x, f, alignment.m).map(|t| cache.mats[t].clone())
}

/// The id of the dataflow matrix `T` with `T·(M_x·F) = M_S`, when it
/// exists, memoized on `(M_S, M_x·F, m)` ids (`M_x·F` is the table's
/// memoized product).
fn dataflow_id(
    cache: &mut AnalysisCache,
    m_s: MatId,
    m_x: MatId,
    f: MatId,
    m: usize,
) -> Option<MatId> {
    let mxf = cache.mats.mul(m_x, f);
    let key = (m_s, mxf, m as u32);
    if let Some(&hit) = cache.dataflow.get(&key) {
        return hit;
    }
    let out =
        dataflow_solve(&cache.mats[m_s], &cache.mats[mxf], m).map(|t| cache.mats.intern_owned(t));
    cache.dataflow.insert(key, out);
    out
}

fn dataflow_solve(m_s: &IMat, mxf: &IMat, m: usize) -> Option<IMat> {
    if mxf.rank() < m.min(mxf.rows()) {
        return None;
    }
    solve_xf_eq_s_particular(m_s, mxf).ok()
}

/// The component a similarity rotation for `acc` may rotate: the
/// statement's, when the array shares it and it is not rotated yet.
fn rotatable_component(
    alignment: &Alignment,
    rotations: &HashMap<usize, IMat>,
    acc: &Access,
) -> Option<usize> {
    alignment
        .component_of(Vertex::Stmt(acc.stmt))
        .filter(|&ci| {
            alignment.component_of(Vertex::Array(acc.array)) == Some(ci)
                && !rotations.contains_key(&ci)
        })
}

fn try_decompose(
    f: MatId,
    alignment: &mut Alignment,
    ids: &mut AllocIds,
    rotations: &mut HashMap<usize, IMat>,
    acc: &Access,
    cache: &mut AnalysisCache,
) -> Option<CommOutcome> {
    let t = dataflow_id(
        cache,
        ids.stmt[acc.stmt.0],
        ids.array[acc.array.0],
        f,
        alignment.m,
    )?;
    let ci = rotatable_component(alignment, rotations, acc);
    let facts = cache.facts.entry(t).or_default();
    let (outcome, rotation) = decompose(&cache.mats[t], facts, ci.is_some())?;
    if let (Some(ci), Some(v)) = (ci, rotation) {
        ids.rotate(alignment, ci, &v, &mut cache.mats);
        rotations.insert(ci, v);
    }
    Some(outcome)
}

/// What decomposition makes of a dataflow matrix, each part a pure
/// function of `T` computed on first need and kept by `T`'s id.
#[derive(Default)]
struct TFacts {
    /// `T`'s determinant; `None` when even `i128` overflows.
    det: OnceCell<Option<i64>>,
    /// [`decompose_direct`] (2-D, `det = 1`).
    direct: OnceCell<Option<Vec<Elementary>>>,
    /// [`search_similarity`] (2-D, `det = 1`, long direct chains).
    similar: OnceCell<Option<SimilarDecomposition>>,
    /// Factor count of [`shear_decompose`] (n-D, `det = 1`).
    shears: OnceCell<Option<usize>>,
    /// Factor counts of [`decompose_general`] (`det ≠ 0`).
    unirow: OnceCell<Option<UnirowCounts>>,
}

/// Decompose the dataflow matrix `t` (its facts so far in `facts`): the
/// outcome, and the similarity rotation it needs when `rotatable` (the
/// access's statement and array share an unrotated component).
fn decompose(t: &IMat, facts: &mut TFacts, rotatable: bool) -> Option<(CommOutcome, Option<IMat>)> {
    if !t.is_square() {
        return None;
    }
    // A dataflow matrix whose determinant overflows even i128-checked
    // arithmetic is not decomposable by any strategy here: report the
    // access as general instead of panicking.
    let det = (*facts.det.get_or_init(|| t.try_det().ok()))?;
    let unirow = |facts: &TFacts| {
        *facts.unirow.get_or_init(|| {
            decompose_general(t).ok().map(|f| UnirowCounts {
                all: f.len(),
                moving: f
                    .iter()
                    .filter(|g| {
                        let GenFactor::Unirow { coeffs, row } = g;
                        coeffs
                            .iter()
                            .enumerate()
                            .any(|(j, &c)| c != i64::from(j == *row))
                    })
                    .count(),
            })
        })
    };
    if t.rows() == 2 {
        // det −1 is handled through the general (unirow) path below.
        if det == 1 {
            if let Some(factors) = facts.direct.get_or_init(|| decompose_direct(t)) {
                let plain = || CommOutcome::Decomposed {
                    factors: factors.clone(),
                    rotated: false,
                };
                if factors.len() <= 4 {
                    return Some((plain(), None));
                }
                // Long chain: try a similarity rotation first — only when
                // statement and array share an unrotated component.
                if rotatable {
                    if let Some(sim) = facts.similar.get_or_init(|| search_similarity(t, 200)) {
                        let outcome = CommOutcome::Decomposed {
                            factors: sim.factors.clone(),
                            rotated: true,
                        };
                        return Some((outcome, Some(sim.m.clone())));
                    }
                }
                return Some((plain(), None));
            }
        }
        // det ≠ 1: unirow decomposition.
        if det != 0 {
            if let Some(counts) = unirow(facts) {
                let outcome = CommOutcome::DecomposedGeneral {
                    n_factors: counts.all,
                };
                return Some((outcome, None));
            }
        }
        return None;
    }
    // Higher-dimensional grids: elementary shears for det = 1 (§4.1's
    // n-dimensional extension), unirow factors otherwise.
    if det == 1 {
        if let Some(n_factors) = *facts
            .shears
            .get_or_init(|| shear_decompose(t).map(|f| f.len()))
        {
            return Some((CommOutcome::DecomposedGeneral { n_factors }, None));
        }
    }
    if det != 0 {
        if let Some(counts) = unirow(facts) {
            let outcome = CommOutcome::DecomposedGeneral {
                n_factors: counts.moving,
            };
            return Some((outcome, None));
        }
    }
    None
}

/// Factor counts of [`decompose_general`]'s unirow decomposition.
#[derive(Debug, Clone, Copy)]
struct UnirowCounts {
    /// Every factor.
    all: usize,
    /// The factors that are not the identity (identity rows are free).
    moving: usize,
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

        // Merging is the difference: the same stages without the merge
        // pass leave fewer edges local.
        let mut mats = MatTable::new();
        let graph = AccessGraph::build_in(&nest, 2, true, &mut mats, &mut EdgeClasses::new());
        let branching = maximum_branching(&graph);
        let mut comps = component_structure(&graph, &branching, &nest, &mut mats);
        let mut aug = augment(&graph, &branching.edges, &comps, 2, &mut mats);
        let before = aug.local_edges.len();
        merge_cross_components(&graph, &mut comps, &mut aug, 2, &mut mats);
        assert!(
            before < aug.local_edges.len(),
            "merging must be the difference: {before} local edges before, {:?} after",
            aug.local_edges
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
        let opts = MappingOptions {
            self_check: true,
            ..MappingOptions::new(2)
        };
        let checked = map_nest(&nest, &opts).unwrap();
        assert_eq!(plain.outcomes, checked.outcomes);
        assert!(checked.incidents.is_empty());
    }

    /// Access coefficients near `i64::MAX`, which force the exact
    /// arithmetic into its overflow paths (the graph build's determinant).
    fn huge_coefficient_nest() -> LoopNest {
        use rescomm_loopnest::{Domain, NestBuilder};
        let big = i64::MAX / 2;
        let mut b = NestBuilder::new("huge");
        let x = b.array("x", 2);
        let s = b.statement("S", 2, Domain::cube(2, 4));
        b.write(s, x, IMat::identity(2), &[0, 0]);
        b.read(s, x, IMat::from_rows(&[&[big, big], &[1, big]]), &[0, 0]);
        b.build().unwrap()
    }

    /// `a[I + (MIN, 0)] → S → b[I + (1, 0)]` are all local, so the
    /// alignment's offset chase forms `MIN − 1` (or `0 − MIN`, whichever
    /// vertex is the root).
    fn offset_edge_nest() -> LoopNest {
        use rescomm_loopnest::{Domain, NestBuilder};
        let mut b = NestBuilder::new("offset-edge");
        let a = b.array("a", 2);
        let out = b.array("b", 2);
        let s = b.statement("S", 2, Domain::cube(2, 2));
        b.read(s, a, IMat::identity(2), &[i64::MIN, 0]);
        b.write(s, out, IMat::identity(2), &[1, 0]);
        b.build().unwrap()
    }

    #[test]
    fn huge_coefficients_error_instead_of_panicking() {
        // The guarded pipeline must return the overflow as an analysis
        // error, never unwind. The reference oracle fails on this nest
        // with the same panic.
        let nest = huge_coefficient_nest();
        let opts = MappingOptions::new(2);
        match map_nest(&nest, &opts) {
            Err(RescommError::Analysis { stage, detail }) => {
                assert_eq!(stage, "map_nest");
                assert!(detail.starts_with("det: integer overflow"), "{detail}");
                let reference = guarded("reference", || map_nest_reference(&nest, &opts));
                assert_eq!(reference.unwrap_err().detail, detail);
            }
            other => panic!("expected an analysis error, got {other:?}"),
        }
    }

    #[test]
    fn offset_chase_overflow_is_an_analysis_error() {
        // The map must refuse the offset chase's overflow, in release as
        // in debug.
        let nest = offset_edge_nest();
        match map_nest(&nest, &MappingOptions::new(2)) {
            Err(RescommError::Analysis { stage, detail }) => {
                assert_eq!(stage, "map_nest");
                assert_eq!(detail, rescomm_alignment::OFFSET_OVERFLOW);
            }
            other => panic!("expected an analysis error, got {other:?}"),
        }
    }

    /// `map_nest` maps `nest` exactly when the unguarded reference does,
    /// and where both map, to the same outcomes and alignment.
    fn assert_maps_iff_reference(nest: &LoopNest) {
        let opts = MappingOptions::new(2);
        let fast = map_nest(nest, &opts);
        let reference = guarded("reference", || map_nest_reference(nest, &opts));
        match (fast, reference) {
            (Ok(fast), Ok(reference)) => {
                let (a, b) = (&fast.alignment, &reference.alignment);
                assert_eq!(fast.outcomes, reference.outcomes, "{}", nest.name);
                assert_eq!(fast.rotations, reference.rotations, "{}", nest.name);
                assert_eq!(a.stmt_alloc, b.stmt_alloc, "{}", nest.name);
                assert_eq!(a.array_alloc, b.array_alloc, "{}", nest.name);
                assert_eq!(a.comp_of_stmt, b.comp_of_stmt, "{}", nest.name);
                assert_eq!(a.comp_of_array, b.comp_of_array, "{}", nest.name);
            }
            (Err(RescommError::Analysis { .. }), Err(_)) => {}
            (fast, reference) => panic!(
                "{}: map_nest {:?}, reference {:?}",
                nest.name,
                fast.map(|m| m.outcomes),
                reference.map(|m| m.outcomes)
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        /// Edge differential net over the hostile-edge nests (bounds and
        /// offsets at the `i64` edges): the fast path fails exactly where
        /// the reference oracle does, so no replay through the oracle
        /// could rescue a nest.
        #[test]
        fn edge_nests_map_iff_the_reference_does(
            src in crate::plan::tests::edge_nest_source(),
        ) {
            let nest = rescomm_loopnest::parse_nest(&src).map_err(|e| format!("{src}: {e}"))?;
            assert_maps_iff_reference(&nest);
        }
    }

    #[test]
    fn overflowing_nests_fail_on_both_paths() {
        assert_maps_iff_reference(&offset_edge_nest());
        assert_maps_iff_reference(&huge_coefficient_nest());
    }

    #[test]
    fn batch_results_match_singles_and_propagate_ok() {
        let nests = vec![
            examples::matmul(4),
            examples::gauss_elim(4),
            examples::adi_sweep(4),
        ];
        let opts = MappingOptions::new(2);
        let batch = map_nest_batch(&nests, &opts, 2).0.unwrap();
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
