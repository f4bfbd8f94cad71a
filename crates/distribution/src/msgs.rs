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

/// Fold a virtual pattern in **one fused pass**: each endpoint is mapped
/// exactly once, locality is counted along the way, and the non-local
/// sends are aggregated sparsely — their `src·P + dst` processor-pair
/// keys are sorted and run-length counted, so the cost follows the
/// pattern's length, not the `P²` processor pairs (an explicit phase
/// carries a few dozen sends, the 8×4 mesh 1,024 pairs).
///
/// Ascending key order is `(src, dst)` order, so the message set equals
/// [`physical_messages`] exactly (same order, same aggregation), which
/// stays its oracle; the locality equals [`locality_fraction`].
pub fn fold_pattern(
    pattern: &[VSend],
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
    elem_bytes: u64,
) -> FoldedPattern {
    let np = pshape.0 * pshape.1;
    let mut keys = Vec::with_capacity(pattern.len());
    for &(src_v, dst_v) in pattern {
        let (sp, sq) = dist.map(src_v, vshape, pshape);
        let (dp, dq) = dist.map(dst_v, vshape, pshape);
        let s = sp * pshape.1 + sq;
        let d = dp * pshape.1 + dq;
        if s != d {
            keys.push(s * np + d);
        }
    }
    keys.sort_unstable();
    let mut msgs = Vec::new();
    for run in keys.chunk_by(|a, b| a == b) {
        let (s, d) = (run[0] / np, run[0] % np);
        msgs.push(Msg {
            src: (s / pshape.1, s % pshape.1),
            dst: (d / pshape.1, d % pshape.1),
            bytes: run.len() as u64 * elem_bytes,
        });
    }
    FoldedPattern {
        msgs,
        local_sends: (pattern.len() - keys.len()) as u64,
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
