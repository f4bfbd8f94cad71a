//! From virtual communication patterns to physical message sets.
//!
//! The benchmark harness reproduces the paper's Paragon experiments by
//! generating, for a dataflow matrix `T` and a distribution, the set of
//! physical messages (aggregated source→destination byte counts) and
//! feeding it to the mesh simulator.

use crate::Dist2D;
use rescomm_intlin::IMat;

/// One virtual send: `(source, destination)` virtual processor coords.
pub type VSend = ((i64, i64), (i64, i64));

/// An aggregated physical message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Source physical processor `(p, q)`.
    pub src: (usize, usize),
    /// Destination physical processor.
    pub dst: (usize, usize),
    /// Payload size in bytes.
    pub bytes: u64,
}

/// The virtual pattern of the affine map `v → T·v + shift mod vshape`:
/// every virtual processor sends one element, with per-axis toroidal
/// wrap. Enumeration oracle for [`crate::closed::fold_affine`].
pub fn affine_pattern(t: &IMat, shift: (i64, i64), vshape: (usize, usize)) -> Vec<VSend> {
    assert_eq!(t.shape(), (2, 2));
    let (vr, vc) = (vshape.0 as i64, vshape.1 as i64);
    let mut out = Vec::with_capacity(vshape.0 * vshape.1);
    for i in 0..vr {
        for j in 0..vc {
            let d = t.mul_vec(&[i, j]);
            out.push((
                (i, j),
                (
                    (d[0] + shift.0).rem_euclid(vr),
                    (d[1] + shift.1).rem_euclid(vc),
                ),
            ));
        }
    }
    out
}

/// The virtual pattern of a dataflow matrix `T`: every virtual processor
/// `v` sends one element to `T·v mod vshape` (toroidal wrap keeps the
/// pattern inside the grid, as the paper's row-length-12 example does).
pub fn general_pattern(t: &IMat, vshape: (usize, usize)) -> Vec<VSend> {
    affine_pattern(t, (0, 0), vshape)
}

/// The virtual pattern of the elementary `U(k)` communication:
/// `(i, j) → (i + k·j mod V, j)` — the paper's Figure 6 pattern.
pub fn elementary_pattern(k: i64, vshape: (usize, usize)) -> Vec<VSend> {
    let t = IMat::from_rows(&[&[1, k], &[0, 1]]);
    general_pattern(&t, vshape)
}

/// Fold a virtual pattern onto the physical grid and aggregate messages.
///
/// Each virtual send contributes `elem_bytes`; sends whose endpoints land
/// on the same physical processor are local and dropped. The result is
/// sorted and deterministic.
pub fn physical_messages(
    pattern: &[VSend],
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
    elem_bytes: u64,
) -> Vec<Msg> {
    use std::collections::BTreeMap;
    type PPair = ((usize, usize), (usize, usize));
    let mut agg: BTreeMap<PPair, u64> = BTreeMap::new();
    for &(src_v, dst_v) in pattern {
        let s = dist.map(src_v, vshape, pshape);
        let d = dist.map(dst_v, vshape, pshape);
        if s == d {
            continue;
        }
        *agg.entry((s, d)).or_insert(0) += elem_bytes;
    }
    agg.into_iter()
        .map(|((src, dst), bytes)| Msg { src, dst, bytes })
        .collect()
}

/// A virtual pattern folded onto the physical grid: the aggregated
/// message set **and** the locality statistics of the same fold, computed
/// together so no endpoint is mapped twice.
///
/// Equality compares the *fold data* (`msgs`, `local_sends`,
/// `total_sends`) only; `closed` and `factors` are path diagnostics and
/// never distinguish two patterns, so differential tests can assert
/// bit-identical output across fold implementations directly with `==`.
#[derive(Debug, Clone)]
pub struct FoldedPattern {
    /// Aggregated non-local messages, sorted by `(src, dst)`.
    pub msgs: Vec<Msg>,
    /// Number of virtual sends whose endpoints share a physical processor.
    pub local_sends: u64,
    /// Total number of virtual sends folded.
    pub total_sends: u64,
    /// Whether the closed residue-class path generated this fold (as
    /// opposed to a dense `O(V)` or enumerating fold).
    pub closed: bool,
}

impl PartialEq for FoldedPattern {
    fn eq(&self, other: &Self) -> bool {
        self.msgs == other.msgs
            && self.local_sends == other.local_sends
            && self.total_sends == other.total_sends
    }
}

impl Eq for FoldedPattern {}

impl FoldedPattern {
    /// Fraction of virtual sends that stay on their physical processor
    /// (1.0 for an empty pattern, matching [`locality_fraction`]).
    pub fn locality_fraction(&self) -> f64 {
        if self.total_sends == 0 {
            1.0
        } else {
            self.local_sends as f64 / self.total_sends as f64
        }
    }
}

/// The explicit fold: the one routine that lowers an enumerated virtual
/// pattern to aggregated processor pairs, behind both [`fold_pattern`]
/// and the plan lowering (`CommPlan::phases_on_mesh` in `rescomm-core`).
///
/// Each endpoint is wrapped toroidally into `vshape` (only a coordinate
/// outside `[0, v)` pays a `rem_euclid`) and mapped through
/// [`crate::Dist1D::map`] once. Each non-local send becomes one key that packs
/// `(src row, src col, dst row, dst col)` into bit fields. Ascending key
/// order is therefore `(src, dst)` order, and decoding a key takes shifts
/// and masks, not divisions. The keys are sorted and run-length counted,
/// so the cost follows the pattern's length, not the `P²` processor
/// pairs (an explicit phase carries a few dozen sends, the 8×4 mesh
/// 1,024 pairs). The key buffer is kept from one fold to the next.
#[derive(Debug)]
pub struct ExplicitFold {
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
    /// Bit widths of a processor row and of a processor column index.
    bits: (u32, u32),
    keys: Vec<u64>,
}

/// Bits that hold every index below `n`.
fn index_bits(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Toroidal wrap of one coordinate into `[0, v)`.
fn wrap(x: i64, v: usize) -> i64 {
    if (x as u64) < v as u64 {
        x
    } else {
        x.rem_euclid(v as i64)
    }
}

impl ExplicitFold {
    /// A fold of patterns on a `vshape` virtual grid onto a `pshape`
    /// physical grid under `dist`.
    ///
    /// # Panics
    /// Panics if a processor pair does not fit a 64-bit key (a grid of
    /// more than about 2³⁰ processors).
    pub fn new(dist: Dist2D, vshape: (usize, usize), pshape: (usize, usize)) -> Self {
        let bits = (index_bits(pshape.0), index_bits(pshape.1));
        assert!(
            2 * (bits.0 + bits.1) <= u64::BITS,
            "processor grid {pshape:?} too large for pair keys"
        );
        ExplicitFold {
            dist,
            vshape,
            pshape,
            bits,
            keys: Vec::new(),
        }
    }

    /// Fold `pattern` (raw virtual coordinates) and return the number of
    /// its sends that stay on one physical processor. The aggregated
    /// non-local sends are read back with [`ExplicitFold::runs`].
    pub fn fold(&mut self, pattern: &[VSend]) -> u64 {
        let ExplicitFold {
            dist,
            vshape: (vr, vc),
            pshape: (pr, pc),
            bits: (br, bc),
            ..
        } = *self;
        let place = |(i, j): (i64, i64)| {
            let row = dist.rows.map(wrap(i, vr), vr, pr) as u64;
            row << bc | dist.cols.map(wrap(j, vc), vc, pc) as u64
        };
        self.keys.clear();
        for &(src, dst) in pattern {
            let (s, d) = (place(src), place(dst));
            if s != d {
                self.keys.push(s << (br + bc) | d);
            }
        }
        self.keys.sort_unstable();
        (pattern.len() - self.keys.len()) as u64
    }

    /// The last fold's non-local sends aggregated per processor pair:
    /// `(src, dst, sends)` in ascending `(src, dst)` order, processors as
    /// `(row, col)` coordinates.
    pub fn runs(&self) -> impl Iterator<Item = ((usize, usize), (usize, usize), u64)> + '_ {
        let (br, bc) = self.bits;
        let field =
            |key: u64, shift: u32, width: u32| ((key >> shift) & ((1 << width) - 1)) as usize;
        self.keys.chunk_by(|a, b| a == b).map(move |run| {
            let k = run[0];
            (
                (field(k, br + 2 * bc, br), field(k, br + bc, bc)),
                (field(k, bc, br), field(k, 0, bc)),
                run.len() as u64,
            )
        })
    }
}

/// Fold a virtual pattern in **one fused pass** through
/// [`ExplicitFold`]: each endpoint is mapped exactly once, locality is
/// counted along the way, and the non-local sends are aggregated
/// sparsely.
///
/// The message set equals [`physical_messages`] exactly (same order,
/// same aggregation), which stays its oracle; the locality equals
/// [`locality_fraction`].
///
/// # Panics
/// Panics if a coordinate lies outside `vshape`, as [`crate::Dist1D::map`]
/// does: only the plan lowering, which drives [`ExplicitFold`] itself,
/// wraps raw coordinates toroidally.
pub fn fold_pattern(
    pattern: &[VSend],
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
    elem_bytes: u64,
) -> FoldedPattern {
    for &((a, b), (c, d)) in pattern {
        for (i, v) in [(a, vshape.0), (b, vshape.1), (c, vshape.0), (d, vshape.1)] {
            assert!(
                i >= 0 && (i as usize) < v,
                "virtual index {i} outside [0, {v})"
            );
        }
    }
    let mut fold = ExplicitFold::new(dist, vshape, pshape);
    let local_sends = fold.fold(pattern);
    FoldedPattern {
        msgs: fold
            .runs()
            .map(|(src, dst, sends)| Msg {
                src,
                dst,
                bytes: sends * elem_bytes,
            })
            .collect(),
        local_sends,
        total_sends: pattern.len() as u64,
        closed: false,
    }
}

/// Fraction of virtual sends that stay on their physical processor.
pub fn locality_fraction(
    pattern: &[VSend],
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
) -> f64 {
    fold_pattern(pattern, dist, vshape, pshape, 1).locality_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dist1D;

    #[test]
    fn elementary_pattern_stays_in_class() {
        // U(3) on a 12-wide row: source and destination always share
        // i mod 3 — the class invariant behind the grouped partition.
        let pat = elementary_pattern(3, (12, 6));
        for ((i, _j), (i2, _j2)) in pat {
            assert_eq!(i.rem_euclid(3), i2.rem_euclid(3));
        }
    }

    #[test]
    fn identity_pattern_is_all_local() {
        let t = rescomm_intlin::IMat::identity(2);
        let pat = general_pattern(&t, (8, 8));
        let d = Dist2D::uniform(Dist1D::Block);
        assert_eq!(locality_fraction(&pat, d, (8, 8), (4, 4)), 1.0);
        assert!(physical_messages(&pat, d, (8, 8), (4, 4), 8).is_empty());
    }

    #[test]
    fn grouped_beats_block_on_locality_for_uk() {
        // The headline structural claim behind Figure 8: for the U(k)
        // pattern the grouped partition keeps at least as many sends local
        // as BLOCK, and strictly more for k > 1.
        for k in 2..=6i64 {
            let v = (24usize, 8usize);
            let p = (4usize, 2usize);
            let pat = elementary_pattern(k, v);
            let grouped = Dist2D {
                rows: Dist1D::Grouped(k as usize),
                cols: Dist1D::Block,
            };
            let block = Dist2D::uniform(Dist1D::Block);
            let lg = locality_fraction(&pat, grouped, v, p);
            let lb = locality_fraction(&pat, block, v, p);
            assert!(lg > lb, "k={k}: grouped locality {lg} not above block {lb}");
        }
    }

    #[test]
    fn message_aggregation_sums_bytes() {
        // Two virtual sends over the same physical edge aggregate.
        let pat = vec![((0, 0), (7, 0)), ((1, 0), (6, 0))];
        let d = Dist2D::uniform(Dist1D::Block);
        let msgs = physical_messages(&pat, d, (8, 4), (2, 2), 16);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].bytes, 32);
        assert_eq!(msgs[0].src, (0, 0));
        assert_eq!(msgs[0].dst, (1, 0));
    }

    #[test]
    fn pattern_covers_whole_grid() {
        let pat = elementary_pattern(2, (8, 4));
        assert_eq!(pat.len(), 32);
        // Destinations stay inside the grid.
        for (_, (i, j)) in pat {
            assert!((0..8).contains(&i) && (0..4).contains(&j));
        }
    }

    #[test]
    fn general_pattern_wraps_toroidally() {
        let t = rescomm_intlin::IMat::from_rows(&[&[1, 3], &[2, 7]]);
        let pat = general_pattern(&t, (6, 6));
        for (_, (i, j)) in pat {
            assert!((0..6).contains(&i) && (0..6).contains(&j));
        }
    }
}
