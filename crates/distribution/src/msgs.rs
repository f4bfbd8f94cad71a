//! From virtual communication patterns to physical message sets.
//!
//! The benchmark harness reproduces the paper's Paragon experiments by
//! generating, for a dataflow matrix `T` and a distribution, the set of
//! physical messages (aggregated source→destination byte counts) and
//! feeding it to the mesh simulator.

use crate::{Dist1D, Dist2D};
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
        let bytes = agg.entry((s, d)).or_insert(0);
        *bytes = bytes.saturating_add(elem_bytes);
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

/// Unsigned division by a divisor `d ∈ [1, 2³¹]` fixed at set-up, exact
/// for every dividend below 2³² (Lemire, Kaser & Kurz, "Faster Remainder
/// by Direct Computation", 2019). With `m = ⌈2⁶³/d⌉ = (2⁶³ + e)/d`,
/// `0 ≤ e < d`, the quotient `m·n / 2⁶³` exceeds `n/d` by
/// `e·n / (d·2⁶³) < 1/d` (as `e·n < 2³¹·2³²`): too little to reach the
/// next multiple of `1/d`, so its floor is `⌊n/d⌋`.
#[derive(Debug, Clone, Copy)]
struct Recip {
    d: u64,
    m: u64,
}

/// Largest divisor a [`Recip`] covers.
const RECIP_MAX_DIVISOR: usize = 1 << 31;
/// Longest axis whose indices stay below 2³², the dividends a [`Recip`]
/// is exact for.
const RECIP_MAX_AXIS: usize = 1 << 32;

impl Recip {
    /// The reciprocal of `d`, if `d` is a divisor it covers.
    fn new(d: usize) -> Option<Self> {
        (1..=RECIP_MAX_DIVISOR).contains(&d).then(|| Recip {
            d: d as u64,
            m: (1u64 << 63).div_ceil(d as u64),
        })
    }

    /// `⌊n/d⌋` for `n < 2³²`.
    #[inline]
    fn div(self, n: u64) -> u64 {
        ((u128::from(self.m) * u128::from(n)) >> 63) as u64
    }

    /// `(⌊n/d⌋, n mod d)` for `n < 2³²`.
    #[inline]
    fn div_rem(self, n: u64) -> (u64, u64) {
        let q = self.div(n);
        (q, n - q * self.d)
    }
}

/// [`Dist1D::map`]'s rule for one axis with its divisors as reciprocals.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// `i / ⌈v/p⌉`.
    Block(Recip),
    /// `i mod p`.
    Cyclic(Recip),
    /// `⌊i/b⌋ mod p`.
    CyclicBlock(Recip, Recip),
    /// `π(i) / ⌈v/p⌉` with `π(i) = c·⌊v/k⌋ + min(c, v mod k) + ⌊i/k⌋`
    /// for the class `c = i mod k` ([`crate::grouped_rank`]).
    Grouped {
        k: Recip,
        class_len: u64,
        long_classes: u64,
        block: Recip,
    },
}

impl Rule {
    /// The rule of `dist` on a `v`-long axis over `p` processors, when the
    /// reciprocals cover it: `v ≤ 2³²` and every divisor in `[1, 2³¹]`.
    fn new(dist: Dist1D, v: usize, p: usize) -> Option<Self> {
        if p == 0 || v > RECIP_MAX_AXIS {
            return None;
        }
        let block = || Recip::new(v.div_ceil(p));
        Some(match dist {
            Dist1D::Block => Rule::Block(block()?),
            Dist1D::Cyclic => Rule::Cyclic(Recip::new(p)?),
            Dist1D::CyclicBlock(b) => Rule::CyclicBlock(Recip::new(b)?, Recip::new(p)?),
            Dist1D::Grouped(k) => Rule::Grouped {
                k: Recip::new(k)?,
                class_len: (v / k) as u64,
                long_classes: (v % k) as u64,
                block: block()?,
            },
        })
    }

    /// The processor of index `n < v`.
    #[inline]
    fn apply(self, n: u64) -> u64 {
        match self {
            Rule::Block(bs) => bs.div(n),
            Rule::Cyclic(p) => p.div_rem(n).1,
            Rule::CyclicBlock(b, p) => p.div_rem(b.div(n)).1,
            Rule::Grouped {
                k,
                class_len,
                long_classes,
                block,
            } => {
                let (q, c) = k.div_rem(n);
                block.div(c * class_len + c.min(long_classes) + q)
            }
        }
    }
}

/// One axis of a distribution, set up to place raw virtual coordinates:
/// toroidal wrap into `[0, v)`, then [`Dist1D::map`], without an integer
/// division on any axis of up to 2³² virtual processors.
///
/// Set-up computes one reciprocal per divisor of the axis' rule, so it
/// costs the same at every `v`; a placement then takes multiplies and
/// shifts. A longer axis, a divisor past 2³¹ and the inputs `map`
/// rejects (`p = 0`, `CYCLIC(0)`, `Grouped(0)`) go through `map` itself,
/// so every answer and every panic is `map`'s.
///
/// ```
/// use rescomm_distribution::{Dist1D, Placement};
/// let d = Dist1D::Grouped(3);
/// let axis = Placement::new(d, 12, 4);
/// for x in -30..30 {
///     assert_eq!(axis.place(x), d.map(x.rem_euclid(12), 12, 4));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    dist: Dist1D,
    v: usize,
    p: usize,
    rule: Option<Rule>,
}

impl Placement {
    /// The placement of `dist` on a `v`-long virtual axis over `p`
    /// physical processors. Never panics: an input [`Dist1D::map`]
    /// rejects panics in [`Placement::place`], as `map` does.
    pub fn new(dist: Dist1D, v: usize, p: usize) -> Self {
        Placement {
            dist,
            v,
            p,
            rule: Rule::new(dist, v, p),
        }
    }

    /// The physical processor of raw virtual coordinate `x`: `x` wrapped
    /// toroidally into `[0, v)`, then mapped as [`Dist1D::map`] maps it.
    ///
    /// A coordinate within one period of the grid is wrapped by adding or
    /// subtracting `v`; one farther out, like every coordinate on an axis
    /// without a rule, takes the remainder and `map` itself.
    ///
    /// # Panics
    /// Panics where the wrap (`v = 0`) or `map` panics.
    #[inline]
    pub fn place(&self, x: i64) -> usize {
        if let Some(rule) = self.rule {
            // `x + v` below the grid and `x − v` from its end on, as masks
            // rather than branches: plan coordinates fall on either side
            // of the grid's edges without a pattern a branch could learn.
            // `v ≤ 2³²` under a rule, so neither sum wraps.
            let n = self.v as i64;
            let i = x + (n & (x >> 63)) - (n & -i64::from(x >= n));
            if (i as u64) < self.v as u64 {
                return rule.apply(i as u64) as usize;
            }
        }
        self.map(x)
    }

    /// [`Dist1D::map`] on the toroidal wrap of `x`.
    #[cold]
    #[inline(never)]
    fn map(&self, x: i64) -> usize {
        let i = if (x as u64) < self.v as u64 {
            x
        } else {
            x.rem_euclid(self.v as i64)
        };
        self.dist.map(i, self.v, self.p)
    }
}

/// The explicit fold: the one routine that lowers an enumerated virtual
/// pattern to aggregated processor pairs, behind both [`fold_pattern`]
/// and the plan lowering (`CommPlan::phases_on_mesh` in `rescomm-core`).
///
/// Each endpoint is placed once per axis by a [`Placement`] (wrap, then
/// [`Dist1D::map`], with no division). Each non-local send becomes one
/// key that packs `(src row, src col, dst row, dst col)` into bit fields.
/// Ascending key order is therefore `(src, dst)` order, and decoding a
/// key takes shifts and masks, not divisions. The keys are sorted and
/// run-length counted, so the cost follows the pattern's length, not the
/// `P²` processor pairs (an explicit phase carries a few dozen sends, the
/// 8×4 mesh 1,024 pairs). The key and run buffers are kept from one fold
/// to the next.
#[derive(Debug)]
pub struct ExplicitFold {
    rows: Placement,
    cols: Placement,
    /// Bit widths of a processor row and of a processor column index.
    bits: (u32, u32),
    keys: Vec<u64>,
    /// The last fold's distinct keys with their send counts, ascending.
    runs: Vec<(u64, u64)>,
}

/// Bits that hold every index below `n`.
fn index_bits(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

impl ExplicitFold {
    /// A fold of patterns on a `vshape` virtual grid onto a `pshape`
    /// physical grid under `dist`. Costs the same at every `vshape`.
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
            rows: Placement::new(dist.rows, vshape.0, pshape.0),
            cols: Placement::new(dist.cols, vshape.1, pshape.1),
            bits,
            keys: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Fold `pattern` (raw virtual coordinates) and return the number of
    /// its sends that stay on one physical processor. The aggregated
    /// non-local sends are read back with [`ExplicitFold::runs`].
    pub fn fold(&mut self, pattern: &[VSend]) -> u64 {
        let ExplicitFold {
            rows,
            cols,
            bits: (br, bc),
            ..
        } = *self;
        let place = |(i, j): (i64, i64)| (rows.place(i) as u64) << bc | cols.place(j) as u64;
        self.keys.clear();
        for &(src, dst) in pattern {
            let (s, d) = (place(src), place(dst));
            if s != d {
                self.keys.push(s << (br + bc) | d);
            }
        }
        self.keys.sort_unstable();
        self.runs.clear();
        self.runs.extend(
            self.keys
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u64)),
        );
        (pattern.len() - self.keys.len()) as u64
    }

    /// The last fold's non-local sends aggregated per processor pair:
    /// `(src, dst, sends)` in ascending `(src, dst)` order, processors as
    /// `(row, col)` coordinates. Its length is exact, so collecting it
    /// allocates once.
    pub fn runs(
        &self,
    ) -> impl ExactSizeIterator<Item = ((usize, usize), (usize, usize), u64)> + '_ {
        let (br, bc) = self.bits;
        let field =
            |key: u64, shift: u32, width: u32| ((key >> shift) & ((1 << width) - 1)) as usize;
        self.runs.iter().map(move |&(k, sends)| {
            (
                (field(k, br + 2 * bc, br), field(k, br + bc, bc)),
                (field(k, bc, br), field(k, 0, bc)),
                sends,
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
                bytes: sends.saturating_mul(elem_bytes),
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
