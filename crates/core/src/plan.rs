//! Communication plans: from a [`Mapping`] to concrete message phases.
//!
//! This is the artifact a runtime or code generator consumes: for every
//! access, the ordered list of *phases* (virtual-processor message
//! patterns) that realize its communication — none for a local access,
//! one shift for a translation, one placement phase for a collective,
//! one sweep per elementary factor (plus the paper's final "up to a
//! translation" shift) for a decomposition, a single irregular pattern
//! for a general residual.
//!
//! Patterns are generated **exactly** from the iteration domain and the
//! allocation functions and carry *raw* virtual coordinates;
//! [`CommPlan::phases_on_mesh`] folds them toroidally onto a physical
//! machine; [`compile`] is the one path from a mapping to a makespan
//! (build, lower once, simulate). [`CommPlan::verify_availability`]
//! proves the plan correct: chaining the phases of each access delivers
//! every element to exactly the processor that computes with it.

use crate::error::{CancelToken, RescommError};
use crate::pipeline::{dataflow_matrix, CommOutcome, Mapping};
use rescomm_alignment::Alignment;
use rescomm_decompose::Elementary;
use rescomm_distribution::{fold_affine, Dist2D, ExplicitFold};
use rescomm_intlin::IMat;
use rescomm_loopnest::{Access, AccessId, Domain, LoopNest};
use rescomm_machine::{Mesh2D, PMsg, PhaseSim, ScheduleMode};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

/// What a phase implements (for reporting; the pattern is authoritative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseKind {
    /// A constant-distance shift.
    Translation,
    /// The data-placement phase of a collective (the machine's tree rounds
    /// implement the fan-out/fan-in).
    CollectiveRound,
    /// One elementary factor of a decomposition.
    Elementary(Elementary),
    /// The final constant shift of a decomposition ("up to a
    /// translation", §4.2).
    DecompositionShift,
    /// One unirow factor of a general decomposition.
    UnirowFactor,
    /// An irregular affine pattern executed directly.
    GeneralAffine,
}

/// One virtual endpoint pair `(source, destination)`, raw coordinates.
pub type Endpoints = ((i64, i64), (i64, i64));

/// How a phase's virtual message pattern is represented.
///
/// Explicit patterns are exact endpoint lists read off the iteration
/// domain — `O(domain)` to build and to fold, once per distinct list:
/// [`build_plan`] hands every access whose transfers are fixed alike the
/// same shared slice, and [`CommPlan::phases_on_mesh`] folds each slice
/// once. Affine patterns are
/// *grid-wide* closed forms `v → T·v + shift`: `O(1)` to build and
/// folded through the residue-class segment algebra
/// ([`rescomm_distribution::fold_affine`]) at a cost flat in the
/// virtual-grid area, which is what lets one plan model a million-VP
/// machine. The two differ in which virtual processors participate
/// (an affine phase moves every VP of the grid, the SPMD execution
/// model; an explicit pattern only the data-carrying subset) — the
/// availability proof treats both exactly.
#[derive(Debug, Clone)]
pub enum PhasePattern {
    /// Exact `(source, destination)` endpoint pairs, raw coordinates.
    /// Shared: [`build_plan`] gives every access with the same composed
    /// rows, domain and phase recipe clones of one `Arc`, so a repeated
    /// phase costs a pointer.
    Explicit(Arc<[Endpoints]>),
    /// Every virtual processor `v` sends to `T·v + shift` (wrapped into
    /// `vshape` at fold time).
    Affine {
        /// The 2×2 linear part.
        t: IMat,
        /// The constant term.
        shift: (i64, i64),
    },
}

impl PhasePattern {
    /// Where this phase moves the data sitting at `pos` (raw
    /// coordinates; a position absent from an explicit pattern stays).
    pub fn apply(&self, pos: (i64, i64)) -> (i64, i64) {
        match self {
            PhasePattern::Explicit(v) => v
                .iter()
                .find(|&&(from, _)| from == pos)
                .map_or(pos, |&(_, to)| to),
            PhasePattern::Affine { t, shift } => (
                t[(0, 0)] * pos.0 + t[(0, 1)] * pos.1 + shift.0,
                t[(1, 0)] * pos.0 + t[(1, 1)] * pos.1 + shift.1,
            ),
        }
    }

    /// Whether this phase carries the transfer `src → dst`.
    pub fn routes(&self, src: (i64, i64), dst: (i64, i64)) -> bool {
        match self {
            PhasePattern::Explicit(v) => v.contains(&(src, dst)),
            PhasePattern::Affine { .. } => self.apply(src) == dst,
        }
    }

    /// The explicit endpoint list, when there is one.
    pub fn explicit(&self) -> Option<&[Endpoints]> {
        match self {
            PhasePattern::Explicit(v) => Some(&v[..]),
            PhasePattern::Affine { .. } => None,
        }
    }
}

/// One communication phase: a set of virtual-processor point-to-point
/// transfers that may all proceed concurrently. Coordinates are raw
/// (unwrapped) virtual grid positions.
#[derive(Debug, Clone)]
pub struct CommPhase {
    /// The access this phase belongs to.
    pub access: AccessId,
    /// Reporting tag.
    pub kind: PhaseKind,
    /// Virtual messages of the phase.
    pub pattern: PhasePattern,
}

/// The full plan of a mapping: phases in execution order.
#[derive(Debug, Clone, Default)]
pub struct CommPlan {
    /// Ordered phases.
    pub phases: Vec<CommPhase>,
}

/// The fold memo key of a phase: an affine phase's 2×2 linear part,
/// row-major, and shift; an explicit phase's shared slice, by address
/// (the plan owns every slice for the whole call, so one address is one
/// endpoint list).
#[derive(PartialEq, Eq, Hash)]
enum FoldKey {
    Affine([i64; 4], (i64, i64)),
    Explicit(*const [Endpoints]),
}

/// Pad a (possibly degenerate, e.g. 1-D array owner) virtual coordinate
/// to the 2-D grid: missing dimensions live at coordinate 0.
fn coord2(v: &[i64]) -> (i64, i64) {
    (
        v.first().copied().unwrap_or(0),
        v.get(1).copied().unwrap_or(0),
    )
}

/// Why a plan cannot price `acc`: `what` leaves `i64` over its domain box.
fn unpriceable(acc: &Access, what: &str) -> String {
    format!("access {:?}: {what} leaves i64 over its domain box", acc.id)
}

/// The owner's rows `(M_x·F)·I + (M_x·c + ρ_x)` and the computer's rows
/// `M_S·I + ρ_S` of one access (a missing row is zero, as `coord2` pads),
/// composed once for the exactness rule, `is_injective`, the walk and the
/// phase memo's key.
#[derive(Debug, Default)]
struct AccessRows {
    /// For loop depth `d`: axis `j`'s coefficient in each row (`j < d`),
    /// each row's constant (`d`), then `d` prefix sums of the walk.
    table: Vec<[i64; 4]>,
    /// The `[min, max]` of each source coordinate over the domain box.
    range: [[i64; 2]; 2],
    /// [`AccessRows::sweeps_fit`]'s sweeping position, kept across calls.
    pos: Vec<[i64; 2]>,
}

impl AccessRows {
    /// Compose `acc`'s rows over `dom` and bound them ([`AccessRows::compose`],
    /// then [`AccessRows::bound`]).
    fn set_up(&mut self, dom: &Domain, alignment: &Alignment, acc: &Access) -> Result<(), String> {
        self.compose(dom, alignment, acc)?;
        self.bound(dom, acc)
    }

    /// Compose `acc`'s rows over `dom`, or say that a value the plan
    /// stages derive from the access itself could leave `i64`: the shapes
    /// must fit the 2-row maps, each composed entry is summed in checked
    /// `i128` and must fit, and [`row_range`] bounds every term and prefix
    /// sum of the subscript `F·I + c` (which the staged evaluation of
    /// [`CommPlan::verify_availability`] computes) over the domain box.
    /// The composed rows are walked only once [`AccessRows::bound`] passed.
    fn compose(&mut self, dom: &Domain, alignment: &Alignment, acc: &Access) -> Result<(), String> {
        let array = &alignment.array_alloc[acc.array.0];
        let stmt = &alignment.stmt_alloc[acc.stmt.0];
        let refuse = || unpriceable(acc, "its subscript or an allocation");
        let d = dom.dim();
        let shapes_fit = acc.f.cols() == d
            && acc.c.len() == acc.f.rows()
            && array.mat.cols() == acc.f.rows()
            && stmt.mat.cols() == d
            && array.mat.rows() <= 2
            && stmt.mat.rows() <= 2
            && array.rho.len() == array.mat.rows()
            && stmt.rho.len() == stmt.mat.rows();
        if !shapes_fit {
            return Err(refuse());
        }
        let axis = |j: usize| [dom.lo(j), dom.hi(j)];
        // Row-major entries: `F` is `q×d`, `M_x` is `rows×q`, `M_S` `rows×d`.
        let (f, c) = (acc.f.as_slice(), &acc.c[..]);
        let q = c.len();
        for (k, &ck) in c.iter().enumerate() {
            row_range(ck, f[k * d..(k + 1) * d].iter().copied(), axis).ok_or_else(refuse)?;
        }
        self.table.clear();
        self.table.resize(2 * d + 1, [0; 4]);
        let mx = array.mat.as_slice();
        for (i, &rho) in array.rho.iter().enumerate() {
            let mrow = &mx[i * q..(i + 1) * q];
            for j in 0..=d {
                // `[F | c]`'s column `j`: axis `j`'s coefficients, then the
                // constant.
                let mut entry = i128::from(if j < d { 0 } else { rho });
                for (k, &m) in mrow.iter().enumerate() {
                    let x = if j < d { f[k * d + j] } else { c[k] };
                    entry = entry
                        .checked_add(i128::from(m) * i128::from(x))
                        .ok_or_else(refuse)?;
                }
                self.table[j][i] = i64::try_from(entry).map_err(|_| refuse())?;
            }
        }
        let ms = stmt.mat.as_slice();
        for (i, &rho) in stmt.rho.iter().enumerate() {
            for (col, &a) in self.table.iter_mut().zip(&ms[i * d..(i + 1) * d]) {
                col[2 + i] = a;
            }
            self.table[d][2 + i] = rho;
        }
        Ok(())
    }

    /// Bound every term and prefix sum of the walk, the four composed rows
    /// over `dom`'s box ([`row_range`]), and keep the sources' range, or
    /// say that `acc` cannot be priced. It reads only the composed table
    /// and the box.
    fn bound(&mut self, dom: &Domain, acc: &Access) -> Result<(), String> {
        let d = dom.dim();
        let axis = |j: usize| [dom.lo(j), dom.hi(j)];
        let mut ranges = [[0; 2]; 4];
        for (i, r) in ranges.iter_mut().enumerate() {
            let row = (0..d).map(|j| self.table[j][i]);
            *r = row_range(self.table[d][i], row, axis)
                .ok_or_else(|| unpriceable(acc, "its subscript or an allocation"))?;
        }
        self.range = [ranges[0], ranges[1]];
        Ok(())
    }

    /// Whether sweeping every source through `mats` in turn stays in
    /// `i64` (else `what` is unpriceable). The sweeping position stays an
    /// affine map of `I`, its coefficients composed checked in `i64`, so
    /// each coordinate's range over `dom`'s box is exact: each product
    /// `a·pos` of a `T·pos` spans the range of `pos`, and each sum is the
    /// [`row_range`] of its composed map. Ranges of the two coordinates
    /// taken apart would refuse sums whose terms cancel.
    fn sweeps_fit(
        &mut self,
        dom: &Domain,
        acc: &Access,
        what: &str,
        mats: impl IntoIterator<Item = [[i64; 2]; 2]>,
    ) -> Result<(), String> {
        let refuse = || unpriceable(acc, what);
        let axis = |j: usize| [dom.lo(j), dom.hi(j)];
        let d = dom.dim();
        // Column `j < d`: both coordinates' coefficients of axis `j`;
        // column `d`: their constants. It starts as the owner rows.
        let pos = &mut self.pos;
        pos.clear();
        pos.extend(self.table[..=d].iter().map(|c| [c[0], c[1]]));
        let mut range = self.range;
        for m in mats {
            let mut terms = m
                .iter()
                .flat_map(|&[a, b]| [span(a, range[0]), span(b, range[1])]);
            if !terms.all(|t| narrow(t).is_some()) {
                return Err(refuse());
            }
            for col in pos.iter_mut() {
                let [x, y] = *col;
                let row = |[a, b]: [i64; 2]| a.checked_mul(x)?.checked_add(b.checked_mul(y)?);
                *col = [row(m[0]).ok_or_else(refuse)?, row(m[1]).ok_or_else(refuse)?];
            }
            let row = |r: usize| {
                row_range(pos[d][r], pos[..d].iter().map(|c| c[r]), axis).ok_or_else(refuse)
            };
            range = [row(0)?, row(1)?];
        }
        Ok(())
    }

    /// Append to `key` what fixes the transfers of the access set up over
    /// `dom`: the depth, the composed columns `0..=d` and the domain's
    /// bounds and guards (the walk reads nothing else).
    fn push_key(&self, dom: &Domain, key: &mut Vec<i64>) {
        let d = dom.dim();
        key.push(d as i64);
        key.extend_from_slice(self.table[..=d].as_flattened());
        key.extend((0..d).flat_map(|j| [dom.lo(j), dom.hi(j)]));
        key.push(dom.guards().len() as i64);
        for (g, b) in dom.guards() {
            key.extend(g);
            key.push(*b);
        }
    }

    /// `f(src, dst)` (owner, computer) over the set-up's `dom` in points
    /// order until `f` breaks; a step of the allocation-free walk redoes
    /// the rows' prefix sums from the first axis it changed.
    fn for_each_transfer(
        &mut self,
        dom: &Domain,
        mut f: impl FnMut((i64, i64), (i64, i64)) -> ControlFlow<()>,
    ) {
        let d = self.table.len() / 2;
        let (cols, sums) = self.table.split_at_mut(d);
        let _ = dom.walk(|p, changed| {
            for j in changed..d {
                let (a, x) = (cols[j], p[j]);
                let prev = sums[j];
                sums[j + 1] = std::array::from_fn(|r| prev[r] + a[r] * x);
            }
            let [o0, o1, s0, s1] = sums[d];
            f((o0, o1), (s0, s1))
        });
    }

    /// Whether `I ↦ (src, dst)` is injective: the rows' linear parts have
    /// rank `d ≤ 4`, by fraction-free elimination (`false` on overflow).
    fn is_injective(&self) -> bool {
        let d = self.table.len() / 2;
        if d > 4 {
            return false;
        }
        let mut a: [[i64; 4]; 4] = std::array::from_fn(|r| {
            std::array::from_fn(|j| self.table[..d].get(j).map_or(0, |c| c[r]))
        });
        for col in 0..d {
            // A column without a pivot depends on the ones before it.
            let Some(p) = (col..4).find(|&i| a[i][col] != 0) else {
                return false;
            };
            a.swap(col, p);
            let pivot = a[col];
            for row in &mut a[col + 1..] {
                let f = row[col];
                if f == 0 {
                    continue;
                }
                for j in col..d {
                    match row[j]
                        .checked_mul(pivot[col])
                        .and_then(|x| x.checked_sub(pivot[j].checked_mul(f)?))
                    {
                        Some(v) => row[j] = v,
                        None => return false,
                    }
                }
            }
        }
        true
    }
}

/// At most this many endpoint pairs are reserved up front for one
/// access; a larger domain grows the buffer as it goes.
const RESERVE_CAP: usize = 1 << 16;

/// Points in `dom`'s bounding box, saturating at `usize::MAX`.
fn box_points(dom: &Domain) -> usize {
    (0..dom.dim())
        .try_fold(1usize, |n, k| {
            let side = usize::try_from(dom.hi(k).abs_diff(dom.lo(k))).ok()?;
            n.checked_mul(side.checked_add(1)?)
        })
        .unwrap_or(usize::MAX)
}

/// Fill `out` with the distinct `(src, dst)` pairs of the access set up
/// in `rows`, in first-seen order (pinned by `plan_bytes.rs`), the local
/// ones only when `keep_local`. An injective access needs no set: its
/// walk order already is first-seen order.
fn distinct_transfers(
    rows: &mut AccessRows,
    dom: &Domain,
    keep_local: bool,
    out: &mut Vec<Endpoints>,
) {
    out.clear();
    out.reserve(box_points(dom).min(RESERVE_CAP));
    let injective = rows.is_injective();
    let mut seen = BTreeSet::new();
    rows.for_each_transfer(dom, |src, dst| {
        if (keep_local || src != dst) && (injective || seen.insert((src, dst))) {
            out.push((src, dst));
        }
        ControlFlow::Continue(())
    });
}

/// A 2×2 [`IMat`], row-major.
fn mat2(t: &IMat) -> [[i64; 2]; 2] {
    [[t[(0, 0)], t[(0, 1)]], [t[(1, 0)], t[(1, 1)]]]
}

/// `dst − src`, or `None` where a component leaves `i64`.
fn offset(src: (i64, i64), dst: (i64, i64)) -> Option<(i64, i64)> {
    Some((dst.0.checked_sub(src.0)?, dst.1.checked_sub(src.1)?))
}

/// The range of `a·x` for `x` in `[lo, hi]`, exact in `i128`.
fn span(a: i64, [lo, hi]: [i64; 2]) -> [i128; 2] {
    let (p, q) = (
        i128::from(a) * i128::from(lo),
        i128::from(a) * i128::from(hi),
    );
    if a < 0 {
        [q, p]
    } else {
        [p, q]
    }
}

/// A range narrowed to `i64`, or `None` where it leaves `i64`.
fn narrow([lo, hi]: [i128; 2]) -> Option<[i64; 2]> {
    Some([i64::try_from(lo).ok()?, i64::try_from(hi).ok()?])
}

/// The range of `o + Σ_j a_j·x_j` over the box `x_j ∈ axis(j)`, summed in
/// that order as the walk and the sweeps do, or `None` where a term or a
/// partial sum can leave `i64`. Each prefix gets its own interval: a
/// partial sum can leave `i64` where the whole row does not. The one
/// interval evaluator of the plan stages: rows, sweeps and dataflow maps.
fn row_range(
    o: i64,
    a: impl IntoIterator<Item = i64>,
    axis: impl Fn(usize) -> [i64; 2],
) -> Option<[i64; 2]> {
    a.into_iter()
        .enumerate()
        .try_fold([o; 2], |[lo, hi], (j, a)| {
            let [a_lo, a_hi] = narrow(span(a, axis(j)))?;
            Some([lo.checked_add(a_lo)?, hi.checked_add(a_hi)?])
        })
}

/// `mat · pos`, on positions [`AccessRows::sweeps_fit`] proved.
fn mul2(mat: &[[i64; 2]; 2], pos: (i64, i64)) -> (i64, i64) {
    let row = |[a, b]: [i64; 2]| a * pos.0 + b * pos.1;
    (row(mat[0]), row(mat[1]))
}

impl CommPlan {
    /// Total number of explicitly enumerated virtual messages. Affine
    /// (grid-wide) phases count 0 here — their message volume is a
    /// function of the virtual-grid shape chosen at fold time.
    pub fn message_count(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.pattern.explicit().map_or(0, |v| v.len()))
            .sum()
    }

    /// Number of phases carried in closed (affine) form.
    pub fn affine_phase_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p.pattern, PhasePattern::Affine { .. }))
            .count()
    }

    /// Fold every phase onto physical mesh coordinates: toroidal wrap
    /// into `vshape`, distribution fold, node-id flattening. This is the
    /// single lowering step: [`compile`] runs it once per target, and the
    /// phases it returns feed [`PhaseSim`] and
    /// [`FaultSim`](rescomm_machine::FaultSim) directly.
    ///
    /// An explicit phase goes through the single explicit fold,
    /// [`ExplicitFold`] (the routine behind
    /// [`rescomm_distribution::fold_pattern`]), straight to node-id
    /// messages: its endpoints are wrapped only where they leave the grid,
    /// and one key buffer serves every explicit phase of the call. The
    /// result equals `fold_pattern` on the wrapped pattern, mapped through
    /// [`Mesh2D::node_id`], in the same order.
    ///
    /// Each distinct pattern is folded once per call, through one memo: a
    /// repeated affine `(T, shift)` (a factor chain reuses a handful of
    /// `L(k)`/`U(k)` matrices) or a repeated explicit slice (the same
    /// `Arc`, which [`build_plan`] shares among accesses whose transfers
    /// are fixed alike) clones the phase lowered first under that key.
    pub fn phases_on_mesh(
        &self,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
    ) -> Vec<Vec<PMsg>> {
        let pshape = (mesh.px, mesh.py);
        let mut explicit = ExplicitFold::new(dist, vshape, pshape);
        let mut first: HashMap<FoldKey, usize> = HashMap::new();
        let mut out: Vec<Vec<PMsg>> = Vec::with_capacity(self.phases.len());
        let node = |(p, q): (usize, usize)| mesh.node_id(p, q);
        for phase in &self.phases {
            let key = match &phase.pattern {
                PhasePattern::Explicit(pattern) => FoldKey::Explicit(Arc::as_ptr(pattern)),
                PhasePattern::Affine { t, shift } => {
                    FoldKey::Affine([t[(0, 0)], t[(0, 1)], t[(1, 0)], t[(1, 1)]], *shift)
                }
            };
            let lowered = match first.entry(key) {
                Entry::Occupied(seen) => out[*seen.get()].clone(),
                Entry::Vacant(slot) => {
                    slot.insert(out.len());
                    match &phase.pattern {
                        PhasePattern::Explicit(pattern) => {
                            explicit.fold(pattern);
                            explicit
                                .runs()
                                .map(|(src, dst, sends)| PMsg {
                                    src: node(src),
                                    dst: node(dst),
                                    bytes: sends.saturating_mul(bytes),
                                })
                                .collect()
                        }
                        // The closed path: no virtual-grid enumeration,
                        // cost flat in the grid area.
                        PhasePattern::Affine { t, shift } => {
                            fold_affine(t, *shift, dist, vshape, pshape, bytes)
                                .msgs
                                .iter()
                                .map(|m| PMsg {
                                    src: node(m.src),
                                    dst: node(m.dst),
                                    bytes: m.bytes,
                                })
                                .collect()
                        }
                    }
                }
            };
            out.push(lowered);
        }
        out
    }

    /// Verify the plan delivers data correctly: for every non-local access
    /// and every iteration point, following the access's phases from the
    /// element's owner must end at the computing processor.
    ///
    /// Returns `Err` with a witness description on the first violation.
    pub fn verify_availability(&self, nest: &LoopNest, mapping: &Mapping) -> Result<(), String> {
        for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
            if matches!(out, CommOutcome::Local) {
                continue;
            }
            let phases: Vec<&CommPhase> =
                self.phases.iter().filter(|p| p.access == acc.id).collect();
            // A phase is functional when it moves every position by a
            // well-defined map: affine phases always, explicit ones when
            // they belong to a factor chain.
            let chained = phases.iter().all(|ph| {
                matches!(ph.pattern, PhasePattern::Affine { .. })
                    || matches!(
                        ph.kind,
                        PhaseKind::Elementary(_) | PhaseKind::DecompositionShift
                    )
            });
            // The staged per-point evaluation, independent of the walk
            // `build_plan` uses: this is the proof of that walk.
            let dom = &nest.statement(acc.stmt).domain;
            for p in dom.points() {
                let e = acc.subscript(&p);
                let src = coord2(&mapping.alignment.array_alloc[acc.array.0].apply(&e));
                let dst = coord2(&mapping.alignment.stmt_alloc[acc.stmt.0].apply(&p));
                if src == dst {
                    continue;
                }
                if chained {
                    // Chain the phases (absent entry = stays in place).
                    let mut pos = src;
                    for phase in &phases {
                        pos = phase.pattern.apply(pos);
                    }
                    if pos != dst {
                        return Err(format!(
                            "access {:?} at {:?}: element owner {:?} routed to {:?}, \
                             but the computation runs on {:?}",
                            acc.id, p, src, pos, dst
                        ));
                    }
                } else {
                    // One-shot phases (translation / collective / general)
                    // may fan out: the endpoint pair must be present in
                    // some phase of this access.
                    let present = phases.iter().any(|ph| ph.pattern.routes(src, dst));
                    if !present {
                        return Err(format!(
                            "access {:?} at {:?}: transfer {:?} → {:?} missing \
                             from the plan",
                            acc.id, p, src, dst
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Build the communication plan of a mapping (2-D mappings only — the
/// simulators are 2-D). Coordinates are raw; wrapping happens at fold
/// time. Panics where [`compile`] reports an access it cannot price.
///
/// Accesses whose transfers are fixed alike (the same composed owner and
/// computer rows, domain, outcome kind and factor chain) share their
/// phases' endpoint slices: each distinct explicit phase is built once
/// per call.
pub fn build_plan(nest: &LoopNest, mapping: &Mapping) -> CommPlan {
    explicit_plan(nest, mapping).unwrap_or_else(|e| panic!("{e}"))
}

/// The explicit phases already built in one plan, keyed on what fixes an
/// access's transfers: its phase recipe ([`push_recipe`]), then its
/// composed rows and domain ([`AccessRows::push_key`]). The keys sit back
/// to back in one buffer with the key at hand at its end, so a hit
/// allocates nothing. Each key is indexed by its hash, with the keyed
/// default hasher since keys come from nest text.
#[derive(Default)]
struct PhaseMemo {
    keys: Vec<i64>,
    /// Each kept key's span in `keys` and the phases the first access
    /// with that key pushed onto the plan.
    kept: Vec<(Range<usize>, Range<usize>)>,
    hasher: RandomState,
    /// A kept key's hash → its index in `kept` (a hash collision keeps
    /// the first key's slot).
    index: HashMap<u64, usize>,
}

impl PhaseMemo {
    /// Push `acc`'s phases for `out` (its rows composed over `dom`):
    /// copies of those of the first access with the same key, sharing
    /// their slices, or else the ones `build` pushes, which the key then
    /// keeps. A hit hides no error: the rows' bound, the factor sweeps'
    /// bound and the shift check read only what the key holds, so they
    /// passed for the first access.
    fn push(
        &mut self,
        phases: &mut Vec<CommPhase>,
        acc: &Access,
        out: &CommOutcome,
        dom: &Domain,
        rows: &mut AccessRows,
        build: impl FnOnce(&mut AccessRows, &mut Vec<CommPhase>) -> Result<(), String>,
    ) -> Result<(), String> {
        let at = self.keys.len();
        push_recipe(out, &mut self.keys);
        rows.push_key(dom, &mut self.keys);
        let (keys, key) = self.keys.split_at(at);
        let hash = self.hasher.hash_one(key);
        let seen = self.index.get(&hash).copied();
        if let Some(i) = seen.filter(|&i| keys[self.kept[i].0.clone()] == *key) {
            self.keys.truncate(at);
            for p in self.kept[i].1.clone() {
                let (kind, pattern) = (phases[p].kind.clone(), phases[p].pattern.clone());
                phases.push(CommPhase {
                    access: acc.id,
                    kind,
                    pattern,
                });
            }
            return Ok(());
        }
        let start = phases.len();
        build(rows, phases)?;
        self.index.entry(hash).or_insert(self.kept.len());
        self.kept.push((at..self.keys.len(), start..phases.len()));
        Ok(())
    }
}

/// Append `out`'s phase recipe to `key`: the outcome kind, and for a
/// decomposition its factor chain.
fn push_recipe(out: &CommOutcome, key: &mut Vec<i64>) {
    match out {
        CommOutcome::Local => unreachable!("local accesses have no phases"),
        CommOutcome::Translation => key.push(1),
        CommOutcome::Macro { .. } => key.push(2),
        CommOutcome::DecomposedGeneral { .. } => key.push(3),
        CommOutcome::General => key.push(4),
        CommOutcome::Decomposed { factors, .. } => {
            key.extend([5, factors.len() as i64]);
            for f in factors {
                key.extend(match *f {
                    Elementary::L(l) => [0, l],
                    Elementary::U(k) => [1, k],
                });
            }
        }
    }
}

/// The state kept across the accesses of one plan build: the composed
/// rows, the endpoint pairs, the moves of one sweep and the phase memo.
#[derive(Default)]
struct PlanBuilder {
    rows: AccessRows,
    transfers: Vec<Endpoints>,
    moves: Vec<Endpoints>,
    memo: PhaseMemo,
}

impl PlanBuilder {
    /// Push the explicit phases of the non-local `acc` with outcome `out`,
    /// its rows composed over `dom`, through the memo; the rows are
    /// bounded only where the memo misses.
    fn explicit_phases(
        &mut self,
        phases: &mut Vec<CommPhase>,
        acc: &Access,
        out: &CommOutcome,
        dom: &Domain,
    ) -> Result<(), String> {
        let PlanBuilder {
            rows,
            transfers,
            moves,
            memo,
        } = self;
        memo.push(phases, acc, out, dom, rows, |rows, phases| {
            rows.bound(dom, acc)?;
            let mut push = |kind, pattern: &[Endpoints]| {
                phases.push(CommPhase {
                    access: acc.id,
                    kind,
                    pattern: PhasePattern::Explicit(pattern.into()),
                })
            };
            let kind = match out {
                CommOutcome::Local => unreachable!(),
                CommOutcome::Translation => PhaseKind::Translation,
                CommOutcome::Macro { .. } => PhaseKind::CollectiveRound,
                CommOutcome::DecomposedGeneral { .. } => PhaseKind::UnirowFactor,
                CommOutcome::General => PhaseKind::GeneralAffine,
                CommOutcome::Decomposed { factors, .. } => {
                    // precv = F₁·…·F_n·psend + t₀: one phase per factor
                    // (right to left), then the constant shift t₀ (§4.2:
                    // the dataflow equality holds "up to a translation").
                    let sweeps = factors.iter().rev().map(|f| mat2(&f.to_mat()));
                    rows.sweeps_fit(dom, acc, "a factor sweep", sweeps)?;
                    // (current position, final destination) pairs.
                    distinct_transfers(rows, dom, true, transfers);
                    for &f in factors.iter().rev() {
                        let mat = mat2(&f.to_mat());
                        moves.clear();
                        for (pos, _) in transfers.iter_mut() {
                            let q = mul2(&mat, *pos);
                            if q != *pos {
                                moves.push((*pos, q));
                            }
                            *pos = q;
                        }
                        moves.sort_unstable();
                        moves.dedup();
                        push(PhaseKind::Elementary(f), moves);
                    }
                    // Final constant shift to the true destination.
                    moves.clear();
                    moves.extend(transfers.iter().filter(|(pos, dst)| pos != dst));
                    moves.sort_unstable();
                    moves.dedup();
                    if let Some(&(s0, d0)) = moves.first() {
                        // All moves share one offset (affine constant term).
                        let off = offset(s0, d0)
                            .ok_or_else(|| unpriceable(acc, "the decomposition shift"))?;
                        debug_assert!(
                            moves.iter().all(|&(s, d)| offset(s, d) == Some(off)),
                            "decomposition residue is not a constant shift"
                        );
                        push(PhaseKind::DecompositionShift, moves);
                    }
                    return Ok(());
                }
            };
            distinct_transfers(rows, dom, false, transfers);
            push(kind, transfers);
            Ok(())
        })
    }
}

/// [`build_plan`], or the reason an access cannot be priced.
fn explicit_plan(nest: &LoopNest, mapping: &Mapping) -> Result<CommPlan, String> {
    assert_eq!(mapping.alignment.m, 2, "plans target 2-D grids");
    // At most one phase per factor plus the shift for a decomposition,
    // one for any other communicating access.
    let most = mapping.outcomes.iter().map(|out| match out {
        CommOutcome::Local => 0,
        CommOutcome::Decomposed { factors, .. } => factors.len() + 1,
        _ => 1,
    });
    let mut plan = CommPlan {
        phases: Vec::with_capacity(most.sum()),
    };
    let mut builder = PlanBuilder::default();
    for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
        if matches!(out, CommOutcome::Local) {
            continue;
        }
        let dom = &nest.statement(acc.stmt).domain;
        builder.rows.compose(dom, &mapping.alignment, acc)?;
        builder.explicit_phases(&mut plan.phases, acc, out, dom)?;
    }
    Ok(plan)
}

/// Build the plan of a mapping in **closed (affine) form**: every phase
/// whose transfer is an affine map of the sender's position is carried
/// as [`PhasePattern::Affine`] instead of an enumerated endpoint list.
///
/// Construction cost is `O(1)` per affine access — the linear part comes
/// from the dataflow matrix (or the decomposition's factor chain) and the
/// constant term is pinned by sampling a *single* iteration point, since
/// the mapping pipeline already proved `dst = T·src + t₀` holds
/// point-wise. Folding such a plan onto a mesh then goes through
/// [`rescomm_distribution::fold_affine`], flat in the virtual-grid area:
/// this is the entry point for simulating plans on huge grids (4096²,
/// 8192²) where [`build_plan`]'s per-point enumeration is intractable.
///
/// Collectives ([`CommOutcome::Macro`]) stay explicit (a data-dependent
/// placement), as does an access whose dataflow matrix the alignment
/// cannot express; both go through [`build_plan`]'s phase memo, and
/// [`CommPlan::verify_availability`] proves both forms against the same
/// oracle. Panics as [`build_plan`] does.
pub fn build_plan_closed(nest: &LoopNest, mapping: &Mapping) -> CommPlan {
    closed_plan(nest, mapping).unwrap_or_else(|e| panic!("{e}"))
}

/// [`build_plan_closed`], or the reason an access cannot be priced.
fn closed_plan(nest: &LoopNest, mapping: &Mapping) -> Result<CommPlan, String> {
    assert_eq!(mapping.alignment.m, 2, "plans target 2-D grids");
    let mut plan = CommPlan::default();
    let mut builder = PlanBuilder::default();
    for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
        if matches!(out, CommOutcome::Local) {
            continue;
        }
        let dom = &nest.statement(acc.stmt).domain;
        let rows = &mut builder.rows;
        rows.set_up(dom, &mapping.alignment, acc)?;
        // One sample pins the affine constant term.
        let mut sample = None;
        rows.for_each_transfer(dom, |src, dst| {
            sample = Some((src, dst));
            ControlFlow::Break(())
        });
        let Some((src0, dst0)) = sample else {
            continue;
        };
        let shift_of = |moved| offset(moved, dst0).ok_or_else(|| unpriceable(acc, "a shift"));
        let (kind, pattern) = match out {
            CommOutcome::Local => unreachable!(),
            CommOutcome::Translation => (
                PhaseKind::Translation,
                PhasePattern::Affine {
                    t: IMat::identity(2),
                    shift: shift_of(src0)?,
                },
            ),
            // The collective's placement phase is data-dependent (a
            // fan-out/fan-in set, not a position map): keep it explicit.
            CommOutcome::Macro { .. } => {
                builder.explicit_phases(&mut plan.phases, acc, out, dom)?;
                continue;
            }
            CommOutcome::Decomposed { factors, .. } => {
                // precv = F₁·…·F_n·psend + t₀: factors apply right to
                // left, each one a grid-wide linear sweep, then the
                // constant shift t₀ = dst₀ − (F₁·…·F_n)·src₀.
                let sweeps = factors.iter().rev().map(|f| mat2(&f.to_mat()));
                rows.sweeps_fit(dom, acc, "a factor sweep", sweeps)?;
                let mut moved = src0;
                for &f in factors.iter().rev() {
                    moved = mul2(&mat2(&f.to_mat()), moved);
                    plan.phases.push(CommPhase {
                        access: acc.id,
                        kind: PhaseKind::Elementary(f),
                        pattern: PhasePattern::Affine {
                            t: f.to_mat(),
                            shift: (0, 0),
                        },
                    });
                }
                let t0 = shift_of(moved)?;
                if t0 == (0, 0) {
                    continue;
                }
                (
                    PhaseKind::DecompositionShift,
                    PhasePattern::Affine {
                        t: IMat::identity(2),
                        shift: t0,
                    },
                )
            }
            CommOutcome::DecomposedGeneral { .. } | CommOutcome::General => {
                let kind = if matches!(out, CommOutcome::General) {
                    PhaseKind::GeneralAffine
                } else {
                    PhaseKind::UnirowFactor
                };
                let Some(t) = dataflow_matrix(&mapping.alignment, nest, acc.id) else {
                    // Rank-deficient alignment: no grid-wide map exists.
                    builder.explicit_phases(&mut plan.phases, acc, out, dom)?;
                    continue;
                };
                let mat = mat2(&t);
                rows.sweeps_fit(dom, acc, "its dataflow map", [mat])?;
                let shift = shift_of(mul2(&mat, src0))?;
                (kind, PhasePattern::Affine { t, shift })
            }
        };
        plan.phases.push(CommPhase {
            access: acc.id,
            kind,
            pattern,
        });
    }
    Ok(plan)
}

/// The target [`compile`] prices a plan on: mesh, distribution, the
/// virtual grid raw coordinates wrap into, bytes per element, schedule
/// mode, and [`build_plan_closed`] (`closed`) or [`build_plan`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    pub mesh: Mesh2D,
    pub dist: Dist2D,
    pub vshape: (usize, usize),
    pub bytes: u64,
    pub mode: ScheduleMode,
    pub closed: bool,
}

/// A plan lowered onto one target, with its makespan.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub plan: CommPlan,
    /// The plan lowered onto the target ([`CommPlan::phases_on_mesh`]);
    /// any further run there (another mode, a fault replay, a degraded
    /// fold) starts from these.
    pub phases: Vec<Vec<PMsg>>,
    /// The lowered phases simulated under the target's mode.
    pub makespan: u64,
}

/// Build the plan of a mapping, lower it once onto `opts`' target and
/// simulate it. A zero-fault [`FaultSim`](rescomm_machine::FaultSim)
/// over [`Compiled::phases`] gives [`Compiled::makespan`] exactly under
/// the schedule policy's healthy mode.
///
/// `cancel` is checked before the build (stage `"build_plan"`) and the
/// lowering (stage `"simulate"`). An access is priced only when every
/// value the plan stages derive from it over its domain box stays in
/// `i64` (rows, factor sweeps and dataflow maps bounded, constant shifts
/// checked); any other nest is a [`RescommError::Analysis`] at stage
/// `"build_plan"`, and nothing panics.
pub fn compile(
    nest: &LoopNest,
    mapping: &Mapping,
    opts: &CompileOptions,
    cancel: &CancelToken,
) -> Result<Compiled, RescommError> {
    cancel.check("build_plan")?;
    let build = [explicit_plan, closed_plan][usize::from(opts.closed)];
    let plan = build(nest, mapping).map_err(|detail| RescommError::Analysis {
        stage: "build_plan",
        detail,
    })?;
    cancel.check("simulate")?;
    let phases = plan.phases_on_mesh(&opts.mesh, opts.dist, opts.vshape, opts.bytes);
    let makespan = PhaseSim::new(opts.mesh.clone()).simulate_phases_mode(&phases, opts.mode);
    Ok(Compiled {
        plan,
        phases,
        makespan,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::{map_nest, MappingOptions};
    use rescomm_alignment::Alloc;
    use rescomm_distribution::{physical_messages, Dist1D};
    use rescomm_loopnest::examples::{self, chained_stencil_nest, pipeline_nest};
    use rescomm_machine::{
        replication_seed, CachedPhase, CheckpointPolicy, CostModel, FaultPlan, FaultSim,
        OverlapOrder, SchedulePolicy,
    };

    /// `mesh` under CYCLIC from a `vshape` virtual grid at 64 B, the
    /// target most tests price plans on.
    fn cyclic(
        mesh: &Mesh2D,
        vshape: (usize, usize),
        mode: ScheduleMode,
        closed: bool,
    ) -> CompileOptions {
        CompileOptions {
            mesh: mesh.clone(),
            dist: Dist2D::uniform(Dist1D::Cyclic),
            vshape,
            bytes: 64,
            mode,
            closed,
        }
    }

    /// [`compile`] without a deadline.
    fn compiled(nest: &LoopNest, mapping: &Mapping, opts: &CompileOptions) -> Compiled {
        compile(nest, mapping, opts, &CancelToken::none()).unwrap()
    }

    #[test]
    fn local_accesses_produce_no_phase() {
        let (nest, _) = examples::example5_platonoff(4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        assert!(plan.phases.is_empty(), "communication-free nest");
        assert_eq!(plan.message_count(), 0);
        plan.verify_availability(&nest, &mapping).unwrap();
    }

    #[test]
    fn motivating_example_plan_structure() {
        let (nest, ids) = examples::motivating_example(6, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        // The decomposed access contributes one phase per factor plus
        // (possibly) the final shift.
        let f3_phases: Vec<_> = plan.phases.iter().filter(|p| p.access == ids.f3).collect();
        assert!(f3_phases.len() >= 2, "{}", f3_phases.len());
        assert!(f3_phases
            .iter()
            .take(2)
            .all(|p| matches!(p.kind, PhaseKind::Elementary(_))));
        assert!(plan
            .phases
            .iter()
            .any(|p| p.access == ids.f6 && p.kind == PhaseKind::CollectiveRound));
        assert!(plan
            .phases
            .iter()
            .all(|p| p.kind != PhaseKind::GeneralAffine));
    }

    #[test]
    fn every_plan_delivers_its_data() {
        // The availability proof across kernels — the strongest
        // correctness statement about the whole pipeline.
        for nest in [
            examples::motivating_example(6, 2).0,
            examples::jacobi2d(6),
            examples::transpose(6),
            examples::matmul(4),
            examples::syrk(4),
            examples::example2_broadcast(6),
            examples::gauss_elim(4),
            examples::adi_sweep(6),
        ] {
            let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
            let plan = build_plan(&nest, &mapping);
            plan.verify_availability(&nest, &mapping)
                .unwrap_or_else(|e| panic!("{}: {e}", nest.name));
        }
    }

    #[test]
    fn jacobi_plan_is_pure_translations() {
        let nest = examples::jacobi2d(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        assert!(plan.phases.iter().all(|p| p.kind == PhaseKind::Translation));
        assert!(!plan.phases.is_empty());
    }

    #[test]
    fn plan_simulation_runs() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let phased = compiled(
            &nest,
            &full,
            &cyclic(&mesh, (24, 24), ScheduleMode::Phased, false),
        );
        let t = phased.makespan;
        assert!(t > 0);
        // Relaxing the phase barriers can only help, and the compiled
        // replay reproduces both modes exactly.
        let cached: Vec<CachedPhase> = phased
            .phases
            .iter()
            .map(|p| CachedPhase::new(&mesh, p))
            .collect();
        let mut sim = PhaseSim::new(mesh.clone());
        for mode in [ScheduleMode::Phased, ScheduleMode::overlapped()] {
            let direct = compiled(&nest, &full, &cyclic(&mesh, (24, 24), mode, false)).makespan;
            assert!(direct <= t);
            assert_eq!(sim.run_cached_phases(&cached, mode, 1), direct);
        }
    }

    #[test]
    fn recovering_plan_simulation_matches_plain_without_deaths() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let phased = compiled(
            &nest,
            &full,
            &cyclic(&mesh, (24, 24), ScheduleMode::Phased, false),
        );
        let t = phased.makespan;
        let none = FaultPlan::none();
        let mut engine = FaultSim::new(&mesh, &phased.phases, &none);
        let policy = CheckpointPolicy::default();
        let rep = engine.replay_recovering(&policy, &[none.seed], SchedulePolicy::default())[0];
        assert_eq!(rep.makespan, t, "zero-death recovery is bit-identical");
        assert_eq!(rep.recovery.rollbacks, 0);
        // Under an overlapped policy the zero-fault recovery matches the
        // fault-free overlapped schedule instead.
        let over_target = cyclic(&mesh, (24, 24), ScheduleMode::overlapped(), false);
        let over = compiled(&nest, &full, &over_target).makespan;
        let rep = engine.replay_recovering(
            &policy,
            &[none.seed],
            SchedulePolicy::Fixed(ScheduleMode::overlapped()),
        )[0];
        assert_eq!(rep.makespan, over, "zero-death overlapped recovery");
        assert_eq!(rep.downgrades, 0);

        // And with a mid-run death the plan still completes, exactly once.
        let faulty = FaultPlan {
            node_deaths: vec![rescomm_machine::NodeDeath { node: 6, t: t / 2 }],
            ..FaultPlan::none()
        };
        engine.set_plan(&faulty);
        for sched in [
            SchedulePolicy::default(),
            SchedulePolicy::Fixed(ScheduleMode::overlapped()),
            SchedulePolicy::Adaptive {
                inflation_threshold: 1.2,
            },
        ] {
            let rep = engine.replay_recovering(&policy, &[faulty.seed], sched)[0];
            assert!(
                rep.recovery.all_recovered(),
                "{sched:?}: {:?}",
                rep.recovery
            );
            assert_eq!(rep.delivered, rep.messages, "{sched:?}");
            assert_eq!(rep.black_holes, 0, "{sched:?}");
        }
    }

    #[test]
    fn replicated_faulty_rep0_matches_classic_run() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let phases = compiled(
            &nest,
            &full,
            &cyclic(&mesh, (24, 24), ScheduleMode::Phased, false),
        )
        .phases;
        let fplan = FaultPlan {
            seed: 42,
            drop_prob: 0.2,
            dup_prob: 0.02,
            ..FaultPlan::none()
        };
        let seeds: Vec<u64> = (0..5).map(|r| replication_seed(fplan.seed, r)).collect();
        let mut engine = FaultSim::new(&mesh, &phases, &fplan);
        let reps = engine.replay_faulty(&seeds, SchedulePolicy::default());
        assert_eq!(reps.len(), 5);

        // Replication 0 is the classic single-seed run, bit-identical to
        // the fault oracle over the same folded phases.
        let oracle = rescomm_machine::reference::simulate(
            &mesh,
            &phases,
            &fplan,
            SchedulePolicy::default(),
            None,
        );
        assert_eq!(reps[0], oracle);
        // Distinct seeds genuinely vary the runs.
        assert!(reps
            .iter()
            .any(|r| r.retries != reps[0].retries || r != &reps[0]));
        // The overlapped policy threads through to the batch engine and
        // agrees with a fresh engine's one-seed run on replication 0.
        let sched = SchedulePolicy::Fixed(ScheduleMode::overlapped());
        let over = engine.replay_faulty(&seeds[..3], sched);
        assert_eq!(
            over[0],
            FaultSim::new(&mesh, &phases, &fplan).replay_faulty(&[fplan.seed], sched)[0]
        );
    }

    #[test]
    fn replicated_recovering_rep0_matches_single_run() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let full = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let Compiled {
            phases,
            makespan: healthy,
            ..
        } = compiled(
            &nest,
            &full,
            &cyclic(&mesh, (24, 24), ScheduleMode::Phased, false),
        );
        let fplan = FaultPlan {
            seed: 7,
            drop_prob: 0.1,
            node_deaths: vec![rescomm_machine::NodeDeath {
                node: 6,
                t: healthy / 2,
            }],
            detection_latency: 5_000,
            ..FaultPlan::none()
        };
        let policy = CheckpointPolicy::default();
        let seeds: Vec<u64> = (0..3).map(|r| replication_seed(fplan.seed, r)).collect();
        let reps = FaultSim::new(&mesh, &phases, &fplan).replay_recovering(
            &policy,
            &seeds,
            SchedulePolicy::default(),
        );
        assert_eq!(reps.len(), 3);
        let single = FaultSim::new(&mesh, &phases, &fplan).replay_recovering(
            &policy,
            &[fplan.seed],
            SchedulePolicy::default(),
        )[0];
        assert_eq!(reps[0], single, "replication 0 is the classic run");
        for r in &reps {
            assert!(r.recovery.all_recovered(), "{:?}", r.recovery);
            assert_eq!(r.delivered, r.messages);
        }
    }

    #[test]
    fn patterns_are_deduplicated() {
        let nest = examples::example2_broadcast(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        for phase in &plan.phases {
            let mut sorted = phase
                .pattern
                .explicit()
                .expect("build_plan is explicit")
                .to_vec();
            sorted.sort();
            let before = sorted.len();
            sorted.dedup();
            assert_eq!(sorted.len(), before, "duplicate virtual messages");
        }
    }

    #[test]
    fn closed_plans_deliver_their_data() {
        // The availability proof holds for affine-form plans on the same
        // kernels as the explicit ones — same oracle, both forms exact.
        for nest in [
            examples::motivating_example(6, 2).0,
            examples::jacobi2d(6),
            examples::transpose(6),
            examples::matmul(4),
            examples::syrk(4),
            examples::example2_broadcast(6),
            examples::gauss_elim(4),
            examples::adi_sweep(6),
        ] {
            let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
            let plan = build_plan_closed(&nest, &mapping);
            plan.verify_availability(&nest, &mapping)
                .unwrap_or_else(|e| panic!("{}: {e}", nest.name));
        }
    }

    #[test]
    fn closed_plan_carries_affine_phases() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan_closed(&nest, &mapping);
        assert!(plan.affine_phase_count() > 0, "no closed phases emitted");
        // Explicit enumeration only survives in collective phases.
        for p in &plan.phases {
            if p.pattern.explicit().is_some() {
                assert_eq!(p.kind, PhaseKind::CollectiveRound, "{:?}", p.kind);
            }
        }
        // Translations are pure shifts: identity linear part.
        let nest = examples::jacobi2d(6);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan_closed(&nest, &mapping);
        assert!(!plan.phases.is_empty());
        for p in &plan.phases {
            match &p.pattern {
                PhasePattern::Affine { t, shift } => {
                    assert_eq!(*t, IMat::identity(2));
                    assert_ne!(*shift, (0, 0));
                }
                PhasePattern::Explicit(_) => panic!("jacobi plan should be fully affine"),
            }
        }
    }

    #[test]
    fn closed_plan_simulates_huge_grids() {
        // The point of the closed path: folding a plan at 4096² virtual
        // processors without enumerating 16.8M sends. The explicit plan
        // cannot even be built at this size; the closed one folds in
        // milliseconds and still produces a positive makespan.
        let (nest, _) = examples::motivating_example(6, 2);
        let mesh = Mesh2D::new(8, 8, CostModel::paragon());
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let at = |mode| compiled(&nest, &mapping, &cyclic(&mesh, (4096, 4096), mode, true));
        let t = at(ScheduleMode::Phased).makespan;
        assert!(t > 0);
        // Affine phases go through the same mode plumbing: overlapping
        // a closed (million-VP) plan never makes it slower.
        let over = at(ScheduleMode::overlapped()).makespan;
        assert!(over <= t);
    }

    /// The unmemoized lowering: every phase folded on its own, then
    /// flattened to node ids — what `phases_on_mesh` must reproduce.
    /// Explicit phases go through the `BTreeMap` enumeration oracle
    /// `physical_messages` on the wrapped pattern, not through
    /// `ExplicitFold`, so the comparison checks the fold's keys and
    /// owners independently.
    fn lower_each_phase(
        plan: &CommPlan,
        mesh: &Mesh2D,
        dist: Dist2D,
        vshape: (usize, usize),
        bytes: u64,
    ) -> Vec<Vec<PMsg>> {
        let pshape = (mesh.px, mesh.py);
        plan.phases
            .iter()
            .map(|phase| {
                let msgs = match &phase.pattern {
                    PhasePattern::Explicit(pattern) => {
                        let wrap = |(i, j): (i64, i64)| {
                            (i.rem_euclid(vshape.0 as i64), j.rem_euclid(vshape.1 as i64))
                        };
                        let wrapped: Vec<Endpoints> =
                            pattern.iter().map(|&(s, d)| (wrap(s), wrap(d))).collect();
                        physical_messages(&wrapped, dist, vshape, pshape, bytes)
                    }
                    PhasePattern::Affine { t, shift } => {
                        fold_affine(t, *shift, dist, vshape, pshape, bytes).msgs
                    }
                };
                msgs.iter()
                    .map(|m| PMsg {
                        src: mesh.node_id(m.src.0, m.src.1),
                        dst: mesh.node_id(m.dst.0, m.dst.1),
                        bytes: m.bytes,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn memoized_lowering_matches_per_phase_fold() {
        let mut nests = vec![
            examples::motivating_example(6, 4).0,
            examples::example2_broadcast(6),
            examples::example3_gather(6),
            examples::example4_reduction(6),
            examples::matmul(6),
            examples::gauss_elim(6),
            examples::jacobi2d(6),
            examples::syrk(6),
            examples::stencil1d(6, 4),
            examples::gauss_triangular(6),
            examples::adi_sweep(6),
        ];
        nests.extend([5, 9, 16].map(|n| chained_stencil_nest(n, 4)));
        nests.extend([5, 9, 16].map(|n| pipeline_nest(n, 3)));
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let (mut affine_repeats, mut shared_slices) = (0, 0);
        for nest in &nests {
            let mapping = map_nest(nest, &MappingOptions::new(2)).unwrap();
            let closed = build_plan_closed(nest, &mapping);
            assert!(!closed.phases.is_empty(), "{} communicates", nest.name);
            let mut keys = std::collections::HashSet::new();
            for p in &closed.phases {
                if let PhasePattern::Affine { t, shift } = &p.pattern {
                    affine_repeats += usize::from(!keys.insert((t.clone(), *shift)));
                }
            }
            // The explicit plan's shared slices, folded once each.
            let explicit = build_plan(nest, &mapping);
            shared_slices += explicit.phases.len() - distinct_slices(&explicit);
            // A clone holds a second reference to every slice, so each of
            // its explicit phases takes a memo entry.
            let held = explicit.clone();
            for (plan, vshapes) in [
                (&closed, [(4096, 4096), (1021, 67)]),
                (&explicit, [(32, 32), (7, 5)]),
                (&held, [(32, 32), (7, 5)]),
            ] {
                for vshape in vshapes {
                    for d in [Dist1D::Cyclic, Dist1D::Block] {
                        let dist = Dist2D::uniform(d);
                        assert_eq!(
                            plan.phases_on_mesh(&mesh, dist, vshape, 64),
                            lower_each_phase(plan, &mesh, dist, vshape, 64),
                            "{} at {vshape:?} under {d:?}",
                            nest.name
                        );
                    }
                }
            }
        }
        assert!(
            affine_repeats > 0,
            "the corpus must exercise the affine memo"
        );
        assert!(shared_slices > 0, "the corpus must share explicit slices");
    }

    #[test]
    fn memo_keys_on_every_entry_of_t_and_the_shift() {
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let affine = |rows: &[&[i64]], shift| CommPhase {
            access: AccessId(0),
            kind: PhaseKind::UnirowFactor,
            pattern: PhasePattern::Affine {
                t: IMat::from_rows(rows),
                shift,
            },
        };
        let explicit = |pairs: Vec<Endpoints>| CommPhase {
            access: AccessId(0),
            kind: PhaseKind::Translation,
            pattern: PhasePattern::Explicit(pairs.into()),
        };
        let u1: &[&[i64]] = &[&[1, 1], &[0, 1]];
        let mut phases = vec![
            affine(u1, (0, 0)),
            explicit(vec![((0, 0), (5, 3)), ((1, 2), (7, 7))]),
            affine(u1, (1, 0)),
            affine(u1, (0, 1)),
            explicit(vec![((3, 3), (0, 9))]),
            affine(u1, (0, 0)),
        ];
        // One entry of `T` changed at a time, same shift.
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut rows = [[1i64, 1], [0, 1]];
            rows[r][c] += 2;
            phases.push(affine(&[&rows[0], &rows[1]], (0, 0)));
        }
        phases.push(affine(u1, (1, 0)));
        let plan = CommPlan { phases };
        for vshape in [(24, 24), (23, 17)] {
            for d in [Dist1D::Cyclic, Dist1D::Block] {
                let dist = Dist2D::uniform(d);
                let memo = plan.phases_on_mesh(&mesh, dist, vshape, 8);
                assert_eq!(memo, lower_each_phase(&plan, &mesh, dist, vshape, 8));
                // The keys above really fold differently: a key that
                // dropped `shift` or an entry of `T` would copy a wrong
                // phase and break the equality.
                let distinct: BTreeSet<&Vec<PMsg>> =
                    [0, 2, 3, 6, 7, 8, 9].iter().map(|&i| &memo[i]).collect();
                assert_eq!(distinct.len(), 7, "{vshape:?} under {d:?}");
            }
        }
    }

    #[test]
    fn closed_plan_fold_matches_explicit_grid_wide_phases() {
        // On a grid the size of the iteration space, an all-affine access
        // folds to the same phase count through either plan form.
        let nest = examples::jacobi2d(8);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let explicit = build_plan(&nest, &mapping);
        let closed = build_plan_closed(&nest, &mapping);
        assert_eq!(explicit.phases.len(), closed.phases.len());
        for (e, c) in explicit.phases.iter().zip(&closed.phases) {
            assert_eq!(e.kind, c.kind);
            assert_eq!(e.access, c.access);
        }
    }

    /// One access `x[F·I + c]` of statement 0 over `dom`, with the array
    /// allocated by `M_x·e + ρ_x` and the statement by `M_S·I + ρ_S`.
    struct WalkCase {
        dom: Domain,
        acc: Access,
        alignment: Alignment,
    }

    impl WalkCase {
        /// `ents` supplies the matrix entries and offsets row-major, in
        /// the order `F`, `c`, `M_x`, `ρ_x`, `M_S`, `ρ_S`.
        fn new(dom: Domain, q: usize, rows_x: usize, rows_s: usize, ents: &[i64]) -> Self {
            let d = dom.dim();
            let mut it = ents.iter().copied().cycle();
            let mut take = |n: usize| -> Vec<i64> { (&mut it).take(n).collect() };
            let f = IMat::from_vec(q, d, take(q * d));
            let c = take(q);
            let mx = IMat::from_vec(rows_x, q, take(rows_x * q));
            let rx = take(rows_x);
            let ms = IMat::from_vec(rows_s, d, take(rows_s * d));
            let rs = take(rows_s);
            WalkCase {
                dom,
                acc: Access {
                    id: AccessId(0),
                    array: rescomm_loopnest::ArrayId(0),
                    stmt: rescomm_loopnest::StmtId(0),
                    f,
                    c,
                    kind: rescomm_loopnest::AccessKind::Read,
                },
                alignment: Alignment {
                    m: 2,
                    stmt_alloc: vec![Alloc { mat: ms, rho: rs }],
                    array_alloc: vec![Alloc { mat: mx, rho: rx }],
                    comp_of_stmt: vec![None],
                    comp_of_array: vec![None],
                    n_components: 0,
                },
            }
        }

        /// `points()` + `Access::subscript` + `Alloc::apply` + `coord2`.
        fn oracle(&self) -> Vec<Endpoints> {
            let (x, s) = (
                &self.alignment.array_alloc[0],
                &self.alignment.stmt_alloc[0],
            );
            self.dom
                .points()
                .map(|p| {
                    (
                        coord2(&x.apply(&self.acc.subscript(&p))),
                        coord2(&s.apply(&p)),
                    )
                })
                .collect()
        }

        /// The composed walk, or `None` when the set-up rejects the access.
        fn walk(&self) -> Option<Vec<Endpoints>> {
            let mut rows = AccessRows::default();
            rows.set_up(&self.dom, &self.alignment, &self.acc).ok()?;
            let mut v = Vec::new();
            rows.for_each_transfer(&self.dom, |src, dst| {
                v.push((src, dst));
                ControlFlow::Continue(())
            });
            Some(v)
        }
    }

    /// A box of depth 1..=4 at small coordinates, cut by random guards
    /// (possibly down to nothing) and, when `tri`, by Gauss's triangular
    /// `i, j > k` over the first three loops.
    fn guarded_box(
        los: &[i64],
        lens: &[i64],
        guards: &[i64],
        n_guards: usize,
        tri: bool,
    ) -> Domain {
        let bounds: Vec<(i64, i64)> = los.iter().zip(lens).map(|(&l, &n)| (l, l + n)).collect();
        let d = bounds.len();
        let mut dom = Domain::rect(&bounds);
        for g in guards.chunks(d + 1).take(n_guards) {
            dom = dom.with_guard(&g[..d], g[d]);
        }
        if tri && d >= 3 {
            let mut gi = vec![0; d];
            gi[0] = 1;
            gi[1] = -1;
            let mut gj = vec![0; d];
            gj[0] = 1;
            gj[2] = -1;
            dom = dom.with_guard(&gi, -1).with_guard(&gj, -1);
        }
        dom
    }

    proptest::proptest! {
        /// The composed-map walk yields exactly the staged evaluation's
        /// `(src, dst)` sequence, order included, over guarded boxes and
        /// random `F`, `c`, `M` and `ρ` (rank-deficient, degenerate and
        /// over-tall owner maps included).
        #[test]
        fn plan_walk_matches_the_staged_oracle(
            d in 1usize..=4,
            los in proptest::collection::vec(-4i64..=4, 4),
            lens in proptest::collection::vec(0i64..=3, 4),
            guards in proptest::collection::vec(-3i64..=3, 15),
            n_guards in 0usize..=3,
            tri in proptest::arbitrary::any::<bool>(),
            q in 0usize..=3,
            rows_x in 0usize..=3,
            rows_s in 0usize..=2,
            ents in proptest::collection::vec(-3i64..=3, 40),
        ) {
            let dom = guarded_box(&los[..d], &lens[..d], &guards, n_guards, tri);
            let case = WalkCase::new(dom, q, rows_x, rows_s, &ents);
            // Small inputs are always priceable unless the owner map is
            // taller than the 2-row plan form.
            match case.walk() {
                Some(walk) => {
                    proptest::prop_assert!(rows_x <= 2);
                    proptest::prop_assert_eq!(walk, case.oracle());
                }
                None => proptest::prop_assert!(rows_x > 2),
            }
        }

        /// Near `i64::MAX`/`MIN`, whenever the staged evaluation panics
        /// the set-up rejects the access; whenever it accepts, the walk
        /// gives the staged sequence.
        #[test]
        fn plan_walk_rejects_every_access_the_oracle_overflows_on(
            d in 1usize..=2,
            edge in proptest::prop_oneof![
                proptest::strategy::Just(i64::MAX),
                proptest::strategy::Just(i64::MIN),
                proptest::strategy::Just(i64::MAX / 2),
                proptest::strategy::Just(1i64 << 40),
                proptest::strategy::Just(0i64),
            ],
            back in 0i64..=4,
            len in 0i64..=2,
            big in proptest::prop_oneof![
                proptest::strategy::Just(1i64),
                proptest::strategy::Just(2i64),
                proptest::strategy::Just(1i64 << 31),
                proptest::strategy::Just(i64::MAX / 3),
            ],
            q in 1usize..=2,
            ents in proptest::collection::vec(-2i64..=2, 24),
        ) {
            let lo = if edge < 0 { edge + back } else { edge - back - len };
            let dom = Domain::rect(&vec![(lo, lo + len); d]);
            let ents: Vec<i64> = ents.iter().map(|&e| e * big).collect();
            let case = WalkCase::new(dom, q, 2, 2, &ents);
            let oracle = std::panic::catch_unwind(|| case.oracle());
            match (oracle, case.walk()) {
                (Ok(o), Some(w)) => proptest::prop_assert_eq!(w, o),
                (Err(_), walk) => proptest::prop_assert!(walk.is_none()),
                (Ok(_), None) => {}
            }
        }
    }

    #[test]
    fn plan_walk_stops_at_the_first_break() {
        let case = WalkCase::new(
            Domain::cube(2, 3),
            2,
            2,
            2,
            &[1, 0, 0, 1, 1, 0, 2, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0],
        );
        let mut seen = 0;
        let mut rows = AccessRows::default();
        rows.set_up(&case.dom, &case.alignment, &case.acc).unwrap();
        rows.for_each_transfer(&case.dom, |_, _| {
            seen += 1;
            if seen == 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 4);
        assert_eq!(case.walk().unwrap().len(), 9);
    }

    #[test]
    fn deep_plan_walks_match_the_oracle() {
        // Eight and ten loops; a guard skips points, so steps change
        // several axes between two visits.
        let ents: Vec<i64> = (0..97).map(|i| (i * 7 % 11) - 5).collect();
        for d in [8, 10] {
            let bounds: Vec<(i64, i64)> = (0..d as i64).map(|k| (k - 4, k - 3)).collect();
            // Keeps the points with at most `d / 2` coordinates at `hi`.
            let b = bounds.iter().map(|b| b.0).sum::<i64>() + d as i64 / 2;
            let dom = Domain::rect(&bounds).with_guard(&vec![1; d], b);
            let case = WalkCase::new(dom, 3, 2, 2, &ents);
            let walk = case.walk().unwrap();
            assert!(!walk.is_empty() && walk.len() < 1 << d, "depth {d}");
            assert_eq!(walk, case.oracle(), "depth {d}");
        }
    }

    /// The set-based `distinct_transfers` the plan builder used before the
    /// injectivity skip: every pair goes through a first-seen set.
    fn distinct_transfers_by_set(
        rows: &mut AccessRows,
        dom: &Domain,
        keep_local: bool,
    ) -> Vec<Endpoints> {
        let mut seen = BTreeSet::new();
        let mut v = Vec::new();
        rows.for_each_transfer(dom, |src, dst| {
            if (keep_local || src != dst) && seen.insert((src, dst)) {
                v.push((src, dst));
            }
            ControlFlow::Continue(())
        });
        v
    }

    /// The 13 nests of the kernel zoo at size `n`.
    fn kernel_zoo(n: i64) -> Vec<LoopNest> {
        vec![
            examples::motivating_example(n, 4).0,
            examples::example2_broadcast(n),
            examples::example3_gather(n),
            examples::example4_reduction(n),
            examples::example5_platonoff(n).0,
            examples::matmul(n),
            examples::gauss_elim(n),
            examples::jacobi2d(n),
            examples::transpose(n),
            examples::syrk(n),
            examples::stencil1d(n, 4),
            examples::gauss_triangular(n),
            examples::adi_sweep(n),
        ]
    }

    /// `compile` is the layered chain — `build_plan` or
    /// `build_plan_closed`, then `phases_on_mesh`, then
    /// `PhaseSim::simulate_phases_mode` — for both plan forms and every
    /// schedule mode, and a zero-fault `FaultSim` over its phases gives
    /// its makespan under each policy's healthy mode.
    #[test]
    fn compile_is_the_layered_chain() {
        let mut nests = kernel_zoo(6);
        nests.extend([3, 8, 17].map(|n| chained_stencil_nest(n, 4)));
        nests.extend([3, 8, 17].map(|n| pipeline_nest(n, 3)));
        let modes = [
            ScheduleMode::Phased,
            ScheduleMode::Overlapped(OverlapOrder::Sorted),
            ScheduleMode::Overlapped(OverlapOrder::LongestFirst),
        ];
        let policies = [
            SchedulePolicy::default(),
            SchedulePolicy::Fixed(modes[1]),
            SchedulePolicy::Fixed(modes[2]),
            SchedulePolicy::adaptive(),
        ];
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let targets = [
            (Dist2D::uniform(Dist1D::Cyclic), (24, 24)),
            (Dist2D::uniform(Dist1D::Block), (12, 8)),
        ];
        let none = FaultPlan::none();
        for nest in &nests {
            let mapping = map_nest(nest, &MappingOptions::new(2)).unwrap();
            for closed in [false, true] {
                let plan = if closed {
                    build_plan_closed(nest, &mapping)
                } else {
                    build_plan(nest, &mapping)
                };
                for (dist, vshape) in targets {
                    let opts = |mode| CompileOptions {
                        mesh: mesh.clone(),
                        dist,
                        vshape,
                        bytes: 64,
                        mode,
                        closed,
                    };
                    let tag = format!("{} closed={closed} {dist:?} {vshape:?}", nest.name);
                    let phases = plan.phases_on_mesh(&mesh, dist, vshape, 64);
                    let mut sim = PhaseSim::new(mesh.clone());
                    for mode in modes {
                        let c = compiled(nest, &mapping, &opts(mode));
                        assert_eq!(format!("{:?}", c.plan), format!("{plan:?}"), "{tag}");
                        assert_eq!(c.phases, phases, "{tag}");
                        let want = sim.simulate_phases_mode(&phases, mode);
                        assert_eq!(c.makespan, want, "{tag} {mode:?}");
                    }
                    let mut engine = FaultSim::new(&mesh, &phases, &none);
                    for policy in policies {
                        let c = compiled(nest, &mapping, &opts(policy.healthy_mode()));
                        let rep = engine.replay_faulty(&[none.seed], policy)[0];
                        assert_eq!(rep.makespan, c.makespan, "{tag} {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn compile_checks_its_token_before_building() {
        let (nest, _) = examples::motivating_example(6, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        let opts = cyclic(&mesh, (24, 24), ScheduleMode::Phased, false);
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = compile(&nest, &mapping, &opts, &expired).unwrap_err();
        assert!(
            matches!(
                err,
                RescommError::Cancelled {
                    stage: "build_plan"
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn dedup_skip_matches_the_set_oracle() {
        let mut nests: Vec<LoopNest> = (3..=9).flat_map(kernel_zoo).collect();
        for n in 1..=50 {
            nests.push(chained_stencil_nest(n, 4));
            nests.push(pipeline_nest(n, 3));
        }
        let (mut skipped, mut deduped) = (0, 0);
        let mut buf = Vec::new();
        for nest in &nests {
            let mapping = map_nest(nest, &MappingOptions::new(2)).unwrap();
            for acc in &nest.accesses {
                let dom = &nest.statement(acc.stmt).domain;
                let mut rows = AccessRows::default();
                rows.set_up(dom, &mapping.alignment, acc).unwrap();
                if rows.is_injective() {
                    skipped += 1;
                } else {
                    deduped += 1;
                }
                for keep_local in [false, true] {
                    distinct_transfers(&mut rows, dom, keep_local, &mut buf);
                    assert_eq!(
                        buf,
                        distinct_transfers_by_set(&mut rows, dom, keep_local),
                        "{} access {:?}, keep_local {keep_local}",
                        nest.name,
                        acc.id
                    );
                }
            }
        }
        // Both branches run: broadcasts and the flat 2×3 `c` reads repeat
        // pairs, most other accesses are injective.
        assert!(skipped > deduped && deduped > 0, "{skipped} / {deduped}");
    }

    /// A plan of explicit phases, one per raw endpoint list.
    fn explicit_plan(patterns: &[Vec<Endpoints>]) -> CommPlan {
        CommPlan {
            phases: patterns
                .iter()
                .map(|pattern| CommPhase {
                    access: AccessId(0),
                    kind: PhaseKind::GeneralAffine,
                    pattern: PhasePattern::Explicit(pattern[..].into()),
                })
                .collect(),
        }
    }

    fn any_dist() -> impl proptest::strategy::Strategy<Value = Dist1D> {
        use proptest::strategy::{Just, Strategy};
        proptest::prop_oneof![
            Just(Dist1D::Block),
            Just(Dist1D::Cyclic),
            (1usize..=4).prop_map(Dist1D::CyclicBlock),
            (1usize..=6).prop_map(Dist1D::Grouped),
        ]
    }

    #[test]
    fn an_all_local_explicit_phase_lowers_to_nothing() {
        // Raw pairs a whole grid period apart wrap onto one processor.
        let pattern: Vec<Endpoints> =
            vec![((0, 0), (0, 0)), ((-3, 2), (9, -14)), ((5, 7), (-7, 7))];
        let plan = explicit_plan(&[pattern]);
        for (px, py) in [(8, 4), (3, 5), (1, 7)] {
            let mesh = Mesh2D::new(px, py, CostModel::paragon());
            for d in [
                Dist1D::Block,
                Dist1D::Cyclic,
                Dist1D::CyclicBlock(2),
                Dist1D::Grouped(3),
            ] {
                let lowered = plan.phases_on_mesh(&mesh, Dist2D::uniform(d), (12, 8), 8);
                assert_eq!(lowered, vec![Vec::<PMsg>::new()], "{d:?} on {px}×{py}");
            }
        }
    }

    impl WalkCase {
        /// Break the shapes one way (`how` in 1..=4): `c` one short, an
        /// extra `ρ_x` entry, `M_S` one column too wide, or `F` one column
        /// too wide. Any other `how` keeps them.
        fn mismatch(mut self, how: usize) -> Self {
            let widen = |m: &IMat| {
                IMat::from_fn(m.rows(), m.cols() + 1, |i, j| {
                    if j < m.cols() {
                        m[(i, j)]
                    } else {
                        1
                    }
                })
            };
            match how {
                1 => {
                    self.acc.c.pop();
                }
                2 => self.alignment.array_alloc[0].rho.push(0),
                3 => {
                    let s = &mut self.alignment.stmt_alloc[0];
                    s.mat = widen(&s.mat);
                }
                4 => self.acc.f = widen(&self.acc.f),
                _ => {}
            }
            self
        }
    }

    /// A 2×2 access matrix from a small menu that reaches every outcome
    /// kind: identity, transpose, shear, a projection and a scaling.
    fn access_matrix() -> impl proptest::strategy::Strategy<Value = &'static str> {
        use proptest::strategy::Just;
        proptest::prop_oneof![
            Just("1 0; 0 1"),
            Just("0 1; 1 0"),
            Just("1 1; 0 1"),
            Just("1 0; 0 0"),
            Just("2 0; 0 1"),
        ]
    }

    /// The text of a hostile-edge nest: one depth-2 statement writing `a`
    /// and reading `b` and `a` through [`access_matrix`]es, its two loop
    /// bounds and six subscript offsets small, with up to two of them
    /// moved to the `i64` edges ([`edge_value`]).
    pub(crate) fn edge_nest_source() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy;
        (
            proptest::collection::vec(-4i64..=4, 8),
            proptest::collection::vec((0usize..8, edge_value()), 0..3),
            proptest::collection::vec(0i64..=2, 2),
            proptest::collection::vec(access_matrix(), 3),
        )
            .prop_map(|(small, edges, lens, mats)| {
                let mut vals = small;
                for (at, e) in edges {
                    vals[at] = e;
                }
                let (los, offs) = vals.split_at(2);
                let bounds: Vec<String> = los
                    .iter()
                    .zip(&lens)
                    .map(|(&lo, &len)| {
                        let lo = lo.min(i64::MAX - len);
                        format!("{lo}..{}", lo + len)
                    })
                    .collect();
                format!(
                    "nest edge\narray a 2\narray b 2\nstmt S depth 2 domain {}\n  \
                     write a [{}] + [{} {}]\n  read b [{}] + [{} {}]\n  read a [{}] + [{} {}]\n",
                    bounds.join(" "),
                    mats[0],
                    offs[0],
                    offs[1],
                    mats[1],
                    offs[2],
                    offs[3],
                    mats[2],
                    offs[4],
                    offs[5],
                )
            })
    }

    /// Entries and bounds at the `i64` edges: `i64::MIN`, `±2⁶²` and
    /// neighbours, plus small values.
    pub(crate) fn edge_value() -> impl proptest::strategy::Strategy<Value = i64> {
        use proptest::strategy::Just;
        proptest::prop_oneof![
            Just(i64::MIN),
            Just(i64::MIN + 1),
            Just(-(1i64 << 62)),
            Just((1i64 << 62) - 1),
            Just(1i64 << 62),
            Just(i64::MAX),
            Just(1i64 << 31),
            -3i64..=3,
        ]
    }

    #[test]
    fn an_access_past_the_bound_is_unpriceable() {
        // `x[2⁶²·i]` on `[1, 2]`: the subscript leaves `i64` at `i = 2`.
        let case = WalkCase::new(Domain::rect(&[(1, 2)]), 1, 1, 1, &[1 << 62, 0, 1, 0, 1, 0]);
        assert_eq!(case.walk(), None);
        assert!(std::panic::catch_unwind(|| case.oracle()).is_err());
    }

    /// The motivating example with `S1`'s domain replaced by `dom`.
    fn motivating_at(dom: &str) -> LoopNest {
        let src = include_str!("../../../examples/nests/motivating.nest").replace(
            "stmt S1 depth 2 domain 0..7 0..7",
            &format!("stmt S1 depth 2 domain {dom}"),
        );
        rescomm_loopnest::parser::parse_nest(&src).unwrap()
    }

    /// A read offset that leaves `i64` only once added to the subscript.
    pub(crate) const WRAP_NEST: &str = "nest wrap\narray b 2\n\
        stmt S1 depth 2 domain 0..1 9223372036854775800..9223372036854775802\n  \
        write b [1 0; 0 1] + [0 0]\n  read  b [1 0; 0 1] + [0 7]\n";

    #[test]
    fn unpriceable_nests_are_analysis_errors_and_build_panics_alike() {
        let wrap = rescomm_loopnest::parser::parse_nest(WRAP_NEST).unwrap();
        let edge = motivating_at("0..1 9223372036854775805..9223372036854775806");
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        for nest in [wrap, edge] {
            let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
            for closed in [false, true] {
                let opts = cyclic(&mesh, (24, 24), ScheduleMode::Phased, closed);
                let err = compile(&nest, &mapping, &opts, &CancelToken::none()).unwrap_err();
                let RescommError::Analysis {
                    stage: "build_plan",
                    detail,
                } = err
                else {
                    panic!("{}: {err:?}", nest.name);
                };
                assert!(detail.contains("leaves i64"), "{detail}");
                let build = [build_plan, build_plan_closed][usize::from(closed)];
                let payload = std::panic::catch_unwind(|| build(&nest, &mapping)).unwrap_err();
                assert_eq!(payload.downcast_ref::<String>(), Some(&detail));
            }
        }
    }

    #[test]
    fn factor_sweeps_are_bounded_by_their_ranges() {
        // Near `i64::MAX / 3` a bound on absolute values would refuse the
        // decomposed access; its ranges do not, and both forms still
        // deliver every element.
        let nest = motivating_at("0..1 3074457345618258602..3074457345618258603");
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        for plan in [
            build_plan(&nest, &mapping),
            build_plan_closed(&nest, &mapping),
        ] {
            plan.verify_availability(&nest, &mapping).unwrap();
        }
        // `(x, y)` at `2⁶²`: `L(1)` moves `y` to `x + y = 2⁶³`, `L(-1)`
        // to 0; a factor term alone can leave `i64` too.
        let case = WalkCase::new(
            Domain::rect(&[(1 << 62, 1 << 62)]),
            1,
            2,
            2,
            &[1, 0, 1, 1, 0, 0, 1, 0],
        );
        let mut rows = AccessRows::default();
        rows.set_up(&case.dom, &case.alignment, &case.acc).unwrap();
        assert_eq!(rows.range, [[1 << 62; 2]; 2]);
        let (dom, acc) = (&case.dom, &case.acc);
        assert!(rows
            .sweeps_fit(dom, acc, "L(1)", [[[1, 0], [1, 1]]])
            .is_err());
        assert!(rows
            .sweeps_fit(dom, acc, "L(-1)", [[[1, 0], [-1, 1]]])
            .is_ok());
        assert!(rows
            .sweeps_fit(
                dom,
                acc,
                "L(-1) then L(1)",
                [[[1, 0], [-1, 1]], [[1, 0], [1, 1]]]
            )
            .is_ok());
        assert!(rows
            .sweeps_fit(dom, acc, "U(2) after a term", [[[-1, 2], [0, 1]]])
            .is_err());
    }

    proptest::proptest! {
        /// Every explicit phase lowers to `physical_messages` (which
        /// `fold_pattern` equals) on its wrapped pattern mapped through
        /// `Mesh2D::node_id`, in the same order: raw coordinates far
        /// outside the grid on both sides, every distribution kind, the
        /// three mesh shapes, and several phases through one fold's key
        /// buffer.
        #[test]
        fn explicit_lowering_matches_physical_messages(
            dr in any_dist(),
            dc in any_dist(),
            vr in 1usize..=24,
            vc in 1usize..=24,
            mesh in 0usize..3,
            raw in proptest::collection::vec(
                proptest::collection::vec((-60i64..60, -60i64..60, -60i64..60, -60i64..60), 0..12),
                1..6,
            ),
            bytes in 1u64..=64,
        ) {
            let (px, py) = [(8, 4), (3, 5), (1, 7)][mesh];
            let mesh = Mesh2D::new(px, py, CostModel::paragon());
            let patterns: Vec<Vec<Endpoints>> = raw
                .iter()
                .map(|p| p.iter().map(|&(a, b, c, d)| ((a, b), (c, d))).collect())
                .collect();
            let plan = explicit_plan(&patterns);
            let dist = Dist2D { rows: dr, cols: dc };
            let vshape = (vr, vc);
            proptest::prop_assert_eq!(
                plan.phases_on_mesh(&mesh, dist, vshape, bytes),
                lower_each_phase(&plan, &mesh, dist, vshape, bytes)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Whenever the range rule accepts a chain of 2×2 maps, sweeping
        /// every source of the walk through it keeps every term and sum
        /// in `i64`, evaluated exactly in `i128`.
        #[test]
        fn accepted_sweeps_never_leave_i64(
            lo in proptest::prop_oneof![edge_value(), -8i64..=8, proptest::strategy::Just(1i64 << 61)],
            len in 0i64..=2,
            ents in proptest::collection::vec(-2i64..=2, 12),
            big in proptest::prop_oneof![
                proptest::strategy::Just(1i64),
                proptest::strategy::Just(1i64 << 31),
                proptest::strategy::Just(i64::MAX / 3),
            ],
            mats in proptest::collection::vec(proptest::collection::vec(-3i64..=3, 4), 1..4),
        ) {
            let lo = lo.min(i64::MAX - len);
            let ents: Vec<i64> = ents.iter().map(|&e| e * big).collect();
            let case = WalkCase::new(Domain::rect(&[(lo, lo + len); 2]), 2, 2, 2, &ents);
            let mut rows = AccessRows::default();
            if rows.set_up(&case.dom, &case.alignment, &case.acc).is_err() {
                return Ok(());
            }
            let mats: Vec<[[i64; 2]; 2]> =
                mats.iter().map(|m| [[m[0], m[1]], [m[2], m[3]]]).collect();
            if rows.sweeps_fit(&case.dom, &case.acc, "sweep", mats.iter().copied()).is_err() {
                return Ok(());
            }
            let fits = |v: i128| i64::try_from(v).is_ok();
            let mut srcs = Vec::new();
            rows.for_each_transfer(&case.dom, |src, _| {
                srcs.push(src);
                ControlFlow::Continue(())
            });
            for mut pos in srcs {
                for m in &mats {
                    let terms = m.map(|[a, b]| [i128::from(a) * i128::from(pos.0), i128::from(b) * i128::from(pos.1)]);
                    proptest::prop_assert!(terms.iter().flatten().all(|&t| fits(t)));
                    let [x, y] = terms.map(|[p, q]| p + q);
                    proptest::prop_assert!(fits(x) && fits(y));
                    pos = (x as i64, y as i64);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(1024))]

        /// Whenever the set-up accepts an access, every entry of its
        /// composed rows, and every term and prefix sum of those rows (in
        /// walk order: constant first) and of its subscript rows, stays in
        /// `i64` at every corner of the domain box, evaluated exactly in
        /// `i128` from `F`, `c`, `M` and `ρ`; each is affine in the point,
        /// so its extremes over the box sit at corners. The sources' range
        /// is the exact `[min, max]` over the box. Entries, offsets and
        /// domain bounds at the `i64` edges, loop depths up to 10 and
        /// broken shapes.
        #[test]
        fn accepted_walks_never_leave_i64(
            d in 0usize..=10,
            lo in proptest::prop_oneof![edge_value(), -4i64..=4],
            len in 0i64..=2,
            q in 0usize..=3,
            rows_x in 0usize..=3,
            rows_s in 0usize..=3,
            ents in proptest::collection::vec(-3i64..=3, 90),
            edges in proptest::collection::vec((0usize..90, edge_value()), 0..3),
            how in 0usize..=8,
        ) {
            let lo = lo.min(i64::MAX - len);
            let dom = Domain::rect(&vec![(lo, lo + len); d]);
            let mut ents = ents;
            for (at, e) in edges {
                ents[at] = e;
            }
            let case = WalkCase::new(dom, q, rows_x, rows_s, &ents).mismatch(how);
            let mut rows = AccessRows::default();
            if rows.set_up(&case.dom, &case.alignment, &case.acc).is_err() {
                return Ok(());
            }
            let (f, c) = (&case.acc.f, &case.acc.c);
            let (x, st) = (&case.alignment.array_alloc[0], &case.alignment.stmt_alloc[0]);
            let wide = |v: i64| i128::from(v);
            // `[F | c]`, then the owner and computer rows, zero-padded to
            // four, each as `d` coefficients and the constant.
            let mut exact: Vec<Vec<Option<i128>>> = (0..f.rows())
                .map(|k| (0..=d).map(|j| Some(wide(if j < d { f[(k, j)] } else { c[k] }))).collect())
                .collect();
            for i in 0..2 {
                exact.push((0..=d).map(|j| {
                    if i >= x.mat.rows() {
                        return Some(0);
                    }
                    let rho = if j < d { 0 } else { wide(x.rho[i]) };
                    (0..f.rows()).try_fold(rho, |sum, k| {
                        sum.checked_add(wide(x.mat[(i, k)]) * wide(if j < d { f[(k, j)] } else { c[k] }))
                    })
                }).collect());
            }
            for i in 0..2 {
                exact.push((0..=d).map(|j| Some(match (i < st.mat.rows(), j < d) {
                    (false, _) => 0,
                    (true, true) => wide(st.mat[(i, j)]),
                    (true, false) => wide(st.rho[i]),
                })).collect());
            }
            let fits = |v: i128| i64::try_from(v).is_ok();
            let mut range = [[i128::MAX, i128::MIN]; 2];
            for corner in 0..1usize << d {
                let p = |j: usize| wide(if corner >> j & 1 == 1 { lo + len } else { lo });
                for (r, row) in exact.iter().enumerate() {
                    proptest::prop_assert!(row.iter().all(|e| e.is_some_and(fits)), "row {r}: {row:?}");
                    let mut sum = row[d].unwrap();
                    for (j, a) in row[..d].iter().enumerate() {
                        let term = a.unwrap() * p(j);
                        proptest::prop_assert!(fits(term), "row {r}, axis {j}");
                        sum += term;
                        proptest::prop_assert!(fits(sum), "row {r}, prefix {j}");
                    }
                    if let Some(i) = r.checked_sub(f.rows()).filter(|&i| i < 2) {
                        range[i] = [range[i][0].min(sum), range[i][1].max(sum)];
                    }
                }
            }
            proptest::prop_assert_eq!(rows.range.map(|r| r.map(i128::from)), range);
        }
    }

    /// `build_plan` without sharing: every access built by a fresh
    /// [`PlanBuilder`], so each phase gets its own slice.
    fn plan_per_access(nest: &LoopNest, mapping: &Mapping) -> Result<CommPlan, String> {
        let mut plan = CommPlan::default();
        for (acc, out) in nest.accesses.iter().zip(&mapping.outcomes) {
            if matches!(out, CommOutcome::Local) {
                continue;
            }
            let dom = &nest.statement(acc.stmt).domain;
            let mut builder = PlanBuilder::default();
            builder.rows.set_up(dom, &mapping.alignment, acc)?;
            builder.explicit_phases(&mut plan.phases, acc, out, dom)?;
        }
        Ok(plan)
    }

    /// A plan's phases as (access, kind, endpoint list).
    fn phase_list(plan: &CommPlan) -> Vec<(AccessId, PhaseKind, Vec<Endpoints>)> {
        plan.phases
            .iter()
            .map(|p| {
                (
                    p.access,
                    p.kind.clone(),
                    p.pattern.explicit().unwrap().to_vec(),
                )
            })
            .collect()
    }

    /// The number of distinct explicit slices of a plan, by address.
    fn distinct_slices(plan: &CommPlan) -> usize {
        let slices = plan.phases.iter().filter_map(|p| match &p.pattern {
            PhasePattern::Explicit(v) => Some(Arc::as_ptr(v)),
            PhasePattern::Affine { .. } => None,
        });
        slices.collect::<std::collections::HashSet<_>>().len()
    }

    /// Whether some phase of `a` and some phase of `b` share a slice.
    fn share(plan: &CommPlan, a: AccessId, b: AccessId) -> bool {
        let slices = |id| {
            plan.phases
                .iter()
                .filter(move |p| p.access == id)
                .filter_map(|p| match &p.pattern {
                    PhasePattern::Explicit(v) => Some(v),
                    PhasePattern::Affine { .. } => None,
                })
        };
        slices(a).any(|x| slices(b).any(|y| Arc::ptr_eq(x, y)))
    }

    #[test]
    fn memoized_plan_matches_per_access_build() {
        let mut nests: Vec<LoopNest> = (3..=9).flat_map(kernel_zoo).collect();
        for n in 1..=50 {
            nests.push(chained_stencil_nest(n, 4));
            nests.push(pipeline_nest(n, 3));
        }
        let (mut phases, mut distinct) = (0, 0);
        for nest in &nests {
            let mapping = map_nest(nest, &MappingOptions::new(2)).unwrap();
            let plan = build_plan(nest, &mapping);
            let fresh = plan_per_access(nest, &mapping).unwrap();
            assert_eq!(phase_list(&plan), phase_list(&fresh), "{}", nest.name);
            assert_eq!(distinct_slices(&fresh), fresh.phases.len(), "{}", nest.name);
            phases += plan.phases.len();
            distinct += distinct_slices(&plan);
        }
        // The synthetic families repeat most phases.
        assert!(2 * distinct < phases, "{distinct} distinct of {phases}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        /// On the hostile-edge nests both builders, and the closed one,
        /// price the same accesses with the same phases, or refuse the
        /// same access for the same reason.
        #[test]
        fn memoized_plan_matches_per_access_build_at_the_edges(src in edge_nest_source()) {
            let nest = rescomm_loopnest::parser::parse_nest(&src).unwrap();
            let Ok(mapping) = map_nest(&nest, &MappingOptions::new(2)) else {
                return Ok(());
            };
            let memo = super::explicit_plan(&nest, &mapping);
            let fresh = plan_per_access(&nest, &mapping);
            match (memo, fresh) {
                (Ok(memo), Ok(fresh)) => {
                    proptest::prop_assert_eq!(phase_list(&memo), phase_list(&fresh), "{}", src);
                }
                (memo, fresh) => {
                    proptest::prop_assert_eq!(memo.err(), fresh.err(), "{}", src);
                }
            }
        }
    }

    /// Repeats share their slices (`Arc::ptr_eq`), for a decomposed and
    /// a one-phase access alike; a copy of the later access's statement
    /// with a wider domain or a guard that keeps every point, or of the
    /// mapping with another outcome kind or another factor chain of the
    /// same product and length, separates it from the first again, and the
    /// plan still equals the per-access build.
    #[test]
    fn accesses_fixed_differently_never_share_a_slice() {
        let nest = chained_stencil_nest(12, 4);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let plan = build_plan(&nest, &mapping);
        // Per outcome seen, a first access and a later one that shares its
        // slices from another statement.
        let mut pairs: Vec<(AccessId, AccessId)> = Vec::new();
        for a in &nest.accesses {
            for b in &nest.accesses[a.id.0 + 1..] {
                let out = &mapping.outcomes[a.id.0];
                let seen = pairs.iter().any(|(x, _)| mapping.outcomes[x.0] == *out);
                if !seen && a.stmt != b.stmt && share(&plan, a.id, b.id) {
                    pairs.push((a.id, b.id));
                }
            }
        }
        let decomposed =
            |id: &AccessId| matches!(mapping.outcomes[id.0], CommOutcome::Decomposed { .. });
        let (Some(dec), Some(one)) = (
            pairs.iter().find(|(a, _)| decomposed(a)),
            pairs.iter().find(|(a, _)| !decomposed(a)),
        ) else {
            panic!("the corpus must repeat a decomposed and a one-phase access: {pairs:?}");
        };
        let split =
            |nest: &LoopNest, mapping: &Mapping, (a, b): (AccessId, AccessId), what: &str| {
                let plan = build_plan(nest, mapping);
                assert!(!share(&plan, a, b), "{what}");
                assert_eq!(
                    phase_list(&plan),
                    phase_list(&plan_per_access(nest, mapping).unwrap()),
                    "{what}"
                );
            };
        for &(a, b) in [dec, one] {
            let stmt = nest.access(b).stmt.0;
            let mut wider = nest.clone();
            let dom = &wider.statements[stmt].domain;
            let bounds: Vec<(i64, i64)> = (0..dom.dim())
                .map(|k| (dom.lo(k), dom.hi(k) + usize::from(k == 0) as i64))
                .collect();
            wider.statements[stmt].domain = Domain::rect(&bounds);
            split(&wider, &mapping, (a, b), "a domain bound");
            // A guard that keeps every point still separates the keys.
            let mut guarded = nest.clone();
            let dom = &mut guarded.statements[stmt].domain;
            *dom = dom.clone().with_guard(&vec![1; dom.dim()], 1 << 20);
            split(&guarded, &mapping, (a, b), "a guard");
        }
        // A one-phase access read as another outcome kind: same endpoints.
        let mut other = mapping.clone();
        other.outcomes[one.1 .0] = match other.outcomes[one.1 .0] {
            CommOutcome::General => CommOutcome::Translation,
            _ => CommOutcome::General,
        };
        split(&nest, &other, *one, "an outcome kind");
        // Chains that end in `U(k)·U(-k)`, `k = 1` for the first access
        // and 2 for the repeat: the same product and length.
        let mut longer = mapping.clone();
        for (id, k) in [(dec.0, 1), (dec.1, 2)] {
            let CommOutcome::Decomposed { factors, .. } = &mut longer.outcomes[id.0] else {
                unreachable!()
            };
            factors.extend([Elementary::U(k), Elementary::U(-k)]);
        }
        split(&nest, &longer, *dec, "a factor chain");
    }

    #[test]
    fn a_nest_whose_values_all_fit_is_priced() {
        // `S1`'s subscript `3i + j + 1` near `-2⁶³`: a bound on the rows'
        // absolute values refused it, though every value fits.
        let nest = motivating_at("0..1 -9223372036854775807..-9223372036854775806");
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let mesh = Mesh2D::new(4, 4, CostModel::paragon());
        for closed in [false, true] {
            let opts = cyclic(&mesh, (24, 24), ScheduleMode::Phased, closed);
            let c = compile(&nest, &mapping, &opts, &CancelToken::none()).unwrap();
            c.plan.verify_availability(&nest, &mapping).unwrap();
            assert!(c.makespan > 0, "closed={closed}");
        }
    }
}
