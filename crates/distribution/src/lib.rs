//! # rescomm-distribution — folding virtual processors onto physical grids
//!
//! Section 5 of the paper: after alignment, the virtual processor grid is
//! folded onto a (much smaller) physical grid. HPF offers `BLOCK`,
//! `CYCLIC` and `CYCLIC(B)` distributions; the paper introduces the
//! **grouped partition**, tailored to elementary communications: for a
//! dataflow matrix `U(k)`, virtual processor `(i, j)` sends to
//! `(i + k·j, j)`, so the row splits into `k` independent classes
//! (`class = i mod k`); the grouped partition makes each class contiguous
//! (permute `π(i) = (i mod k)·⌈V/k⌉ + ⌊i/k⌋`, then block), which turns the
//! communication into neighbour traffic inside each class.
//!
//! * [`Dist1D`] — the four one-dimensional schemes;
//! * [`Dist2D`] — per-axis composition (Fig. 7's two-dimensional grouped
//!   partition for `T = L·U`);
//! * [`msgs`] — turning a virtual communication pattern into an aggregated
//!   physical message set for the machine simulator; its [`Placement`]
//!   places raw coordinates on one axis without integer division.

#![forbid(unsafe_code)]

pub mod closed;
pub mod msgs;

pub use closed::{fold_affine, fold_affine_with, fold_general, FoldPath};
pub use msgs::{
    affine_pattern, elementary_pattern, fold_pattern, general_pattern, locality_fraction,
    physical_messages, ExplicitFold, FoldedPattern, Msg, Placement, VSend,
};

/// A one-dimensional virtual→physical folding scheme.
///
/// ```
/// use rescomm_distribution::Dist1D;
/// // Figure 6: 12 virtual processors, 3 classes, 4 physical processors.
/// let d = Dist1D::Grouped(3);
/// assert_eq!(d.map(0, 12, 4), 0);
/// assert_eq!(d.map(3, 12, 4), 0); // same class, same block
/// assert_eq!(d.map(1, 12, 4), 1); // next class starts a new block run
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist1D {
    /// Contiguous blocks of `⌈V/P⌉` virtual processors.
    Block,
    /// Round-robin: `p = i mod P`.
    Cyclic,
    /// Blocks of `b` dealt round-robin: `p = ⌊i/b⌋ mod P`.
    CyclicBlock(usize),
    /// The paper's grouped partition for class count `k`: permute
    /// `π(i) = start(i mod k) + ⌊i/k⌋` (classes contiguous), then block.
    Grouped(usize),
}

impl Dist1D {
    /// Physical processor for virtual index `i ∈ [0, v)` on `p` physical
    /// processors.
    ///
    /// # Panics
    /// Panics if `i` is out of range or `p == 0`.
    pub fn map(&self, i: i64, v: usize, p: usize) -> usize {
        assert!(p > 0, "no physical processors");
        assert!(
            i >= 0 && (i as usize) < v,
            "virtual index {i} outside [0, {v})"
        );
        let i = i as usize;
        match *self {
            Dist1D::Block => {
                let bs = v.div_ceil(p);
                i / bs
            }
            Dist1D::Cyclic => i % p,
            Dist1D::CyclicBlock(b) => {
                assert!(b > 0, "CYCLIC(0) is meaningless");
                (i / b) % p
            }
            Dist1D::Grouped(k) => {
                assert!(k > 0, "grouped partition needs k ≥ 1");
                let pi = grouped_rank(i, v, k);
                let bs = v.div_ceil(p);
                pi / bs
            }
        }
    }
}

/// Rank of virtual index `i` in the grouped-partition order: classes
/// (`i mod k`) are laid out one after the other, each in increasing
/// `⌊i/k⌋` order. A bijection on `[0, v)` for every `k ≥ 1`.
pub fn grouped_rank(i: usize, v: usize, k: usize) -> usize {
    let c = i % k;
    let class_base = c * (v / k) + c.min(v % k);
    class_base + i / k
}

impl Dist1D {
    /// The virtual indices owned by physical processor `p` (the inverse
    /// of [`Dist1D::map`]), in increasing virtual order.
    pub fn owned(&self, proc: usize, v: usize, nprocs: usize) -> Vec<usize> {
        (0..v)
            .filter(|&i| self.map(i as i64, v, nprocs) == proc)
            .collect()
    }

    /// Number of virtual indices owned by each processor (load balance).
    pub fn load(&self, v: usize, nprocs: usize) -> Vec<usize> {
        let mut l = vec![0usize; nprocs];
        for i in 0..v {
            l[self.map(i as i64, v, nprocs)] += 1;
        }
        l
    }
}

/// A two-dimensional folding: independent schemes per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dist2D {
    /// Scheme along the first (row-index) axis.
    pub rows: Dist1D,
    /// Scheme along the second (column-index) axis.
    pub cols: Dist1D,
}

impl Dist2D {
    /// Uniform scheme on both axes.
    pub fn uniform(d: Dist1D) -> Self {
        Dist2D { rows: d, cols: d }
    }

    /// Map virtual `(i, j)` on a `vshape` virtual grid to physical `(p, q)`
    /// on a `pshape` grid.
    pub fn map(
        &self,
        ij: (i64, i64),
        vshape: (usize, usize),
        pshape: (usize, usize),
    ) -> (usize, usize) {
        (
            self.rows.map(ij.0, vshape.0, pshape.0),
            self.cols.map(ij.1, vshape.1, pshape.1),
        )
    }
}

/// Derive the distribution best suited to a factor sequence (§5/Fig. 7):
/// for `T = L(l)·U(k)`, group rows by `|k|` (the `U` class count) and
/// columns by `|l|` (the `L` class count); coefficients 0/±1 need no
/// grouping and fall back to BLOCK.
pub fn scheme_for_factors(factors: &[rescomm_intlin::IMat]) -> Dist2D {
    let mut row_k = 1usize;
    let mut col_k = 1usize;
    for f in factors {
        assert_eq!(f.shape(), (2, 2), "factor schemes are 2-D");
        // U(k) = [[1,k],[0,1]] moves rows by k·j; L(l) moves columns.
        let k = f[(0, 1)].unsigned_abs() as usize;
        let l = f[(1, 0)].unsigned_abs() as usize;
        if k > 1 {
            row_k = row_k.max(k);
        }
        if l > 1 {
            col_k = col_k.max(l);
        }
    }
    Dist2D {
        rows: if row_k > 1 {
            Dist1D::Grouped(row_k)
        } else {
            Dist1D::Block
        },
        cols: if col_k > 1 {
            Dist1D::Grouped(col_k)
        } else {
            Dist1D::Block
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout() {
        let d = Dist1D::Block;
        // 12 virtuals on 4 procs: blocks of 3.
        let got: Vec<usize> = (0..12).map(|i| d.map(i, 12, 4)).collect();
        assert_eq!(got, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn cyclic_layout() {
        let d = Dist1D::Cyclic;
        let got: Vec<usize> = (0..8).map(|i| d.map(i, 8, 4)).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn cyclic_block_layout() {
        let d = Dist1D::CyclicBlock(2);
        let got: Vec<usize> = (0..12).map(|i| d.map(i, 12, 3)).collect();
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]);
    }

    /// Figure 6 of the paper: 12 virtual processors, k = 3, P = 4. The
    /// grouped order is 0,3,6,9 | 1,4,7,10 | 2,5,8,11 and blocks of 3 give
    /// processors {0,3,6}, {9,1,4}, {7,10,2}, {5,8,11}.
    #[test]
    fn figure6_grouped_layout() {
        let d = Dist1D::Grouped(3);
        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); 4];
        for i in 0..12 {
            owners[d.map(i, 12, 4)].push(i as usize);
        }
        assert_eq!(owners[0], vec![0, 3, 6]);
        assert_eq!(owners[1], vec![1, 4, 9]); // {9,1,4} as a set
        assert_eq!(owners[2], vec![2, 7, 10]);
        assert_eq!(owners[3], vec![5, 8, 11]);
    }

    #[test]
    fn grouped_rank_is_bijective() {
        for v in 1..40usize {
            for k in 1..=v {
                let mut seen = vec![false; v];
                for i in 0..v {
                    let r = grouped_rank(i, v, k);
                    assert!(r < v, "rank {r} out of range (v={v}, k={k})");
                    assert!(!seen[r], "collision at rank {r} (v={v}, k={k})");
                    seen[r] = true;
                }
            }
        }
    }

    #[test]
    fn grouped_k1_is_block() {
        let g = Dist1D::Grouped(1);
        let b = Dist1D::Block;
        for i in 0..24 {
            assert_eq!(g.map(i, 24, 4), b.map(i, 24, 4));
        }
    }

    #[test]
    fn cyclic_is_grouped_with_k_equal_p() {
        // The paper: "the CYCLIC distribution performs well because it
        // amounts to the grouped partition with k = P" (for V = P·c the
        // class of i is i mod P = its cyclic owner).
        let g = Dist1D::Grouped(4);
        let c = Dist1D::Cyclic;
        for i in 0..16 {
            assert_eq!(g.map(i, 16, 4), c.map(i, 16, 4));
        }
    }

    #[test]
    fn all_schemes_stay_in_range() {
        for d in [
            Dist1D::Block,
            Dist1D::Cyclic,
            Dist1D::CyclicBlock(3),
            Dist1D::Grouped(5),
        ] {
            for v in [7usize, 12, 30] {
                for p in [1usize, 2, 4] {
                    for i in 0..v as i64 {
                        assert!(d.map(i, v, p) < p, "{d:?} v={v} p={p} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_rejected() {
        Dist1D::Block.map(12, 12, 4);
    }

    #[test]
    fn owned_inverts_map() {
        for d in [Dist1D::Block, Dist1D::Cyclic, Dist1D::Grouped(3)] {
            let (v, p) = (24usize, 4usize);
            let mut all: Vec<usize> = Vec::new();
            for proc in 0..p {
                for i in d.owned(proc, v, p) {
                    assert_eq!(d.map(i as i64, v, p), proc);
                    all.push(i);
                }
            }
            all.sort();
            assert_eq!(all, (0..v).collect::<Vec<_>>(), "partition must cover");
        }
    }

    #[test]
    fn load_is_balanced_when_divisible() {
        for d in [
            Dist1D::Block,
            Dist1D::Cyclic,
            Dist1D::CyclicBlock(2),
            Dist1D::Grouped(4),
        ] {
            let l = d.load(16, 4);
            assert_eq!(l, vec![4, 4, 4, 4], "{d:?}");
        }
    }

    #[test]
    fn scheme_for_lu_factors_matches_figure7() {
        use rescomm_intlin::IMat;
        // T = L(2)·U(3): rows grouped by 3, columns by 2.
        let l = IMat::from_rows(&[&[1, 0], &[2, 1]]);
        let u = IMat::from_rows(&[&[1, 3], &[0, 1]]);
        let d = scheme_for_factors(&[l, u]);
        assert_eq!(d.rows, Dist1D::Grouped(3));
        assert_eq!(d.cols, Dist1D::Grouped(2));
        // Identity-ish factors need no grouping.
        let d2 = scheme_for_factors(&[IMat::identity(2)]);
        assert_eq!(d2.rows, Dist1D::Block);
        assert_eq!(d2.cols, Dist1D::Block);
    }

    #[test]
    fn dist2d_composes_axes() {
        let d = Dist2D {
            rows: Dist1D::Cyclic,
            cols: Dist1D::Block,
        };
        assert_eq!(d.map((5, 5), (8, 8), (4, 4)), (1, 2));
        let u = Dist2D::uniform(Dist1D::Cyclic);
        assert_eq!(u.map((5, 5), (8, 8), (4, 4)), (1, 1));
    }
}
