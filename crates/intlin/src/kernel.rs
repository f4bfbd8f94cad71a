//! Integer kernel (null-space) bases.
//!
//! The macro-communication conditions of the paper (§3) are all phrased as
//! kernel comparisons: a broadcast exists when
//! `ker θ_S ∩ ker F_a ⊄ ker M_S`, a reduction when
//! `ker θ_S ∩ ker M_S ⊄ ker(M_b F_b)`, and message vectorization requires
//! `ker M_S ⊆ ker(M_a F_a)`. This module computes integer bases of kernels
//! and of kernel intersections; because the bases come from a unimodular
//! column transform they generate the *full* integer kernel lattice (they
//! are saturated), so subset tests are exact.

use crate::hermite::left_hermite;
use crate::mat::IMat;

/// An integer basis of `ker A = {v ∈ ℤⁿ : A·v = 0}`, returned as the
/// columns of an `n×k` matrix (`k = n − rank A`; `k = 0` gives a matrix
/// with zero columns, represented as `None`).
pub fn kernel_basis(a: &IMat) -> Option<IMat> {
    let n = a.cols();
    let hf = left_hermite(a);
    let r = hf.rank;
    if r == n {
        return None;
    }
    // a = H·Q  ⟹  a·Q⁻¹ = H, whose columns r..n are zero; hence the last
    // n−r columns of Q⁻¹ are an integer basis of ker a (Q unimodular ⟹ the
    // basis spans the saturated kernel lattice).
    let qinv =
        hf.q.inverse_unimodular()
            .expect("left_hermite cofactor not unimodular");
    Some(qinv.submatrix(0, n, r, n))
}

/// An integer basis of the intersection `⋂ᵢ ker Aᵢ` (all matrices must have
/// the same column count). Implemented as the kernel of the vertical stack.
///
/// # Panics
/// Panics if `mats` is empty or the column counts disagree.
pub fn kernel_intersection(mats: &[&IMat]) -> Option<IMat> {
    assert!(!mats.is_empty(), "kernel_intersection of nothing");
    let mut stacked = mats[0].clone();
    for m in &mats[1..] {
        stacked = stacked.vstack(m);
    }
    kernel_basis(&stacked)
}

/// An integer basis of the *left* kernel `{y ∈ ℤᵐ : yᵗ·A = 0}`, returned as
/// the rows of a `k×m` matrix.
pub fn left_kernel_basis(a: &IMat) -> Option<IMat> {
    kernel_basis(&a.transpose()).map(|b| b.transpose())
}

/// `true` iff `ker A ⊆ ker B` (over ℚ — equivalently over ℤ since our
/// bases are saturated).
pub fn kernel_subset(a: &IMat, b: &IMat) -> bool {
    assert_eq!(a.cols(), b.cols(), "kernel_subset: column mismatch");
    match kernel_basis(a) {
        None => true,
        Some(ka) => {
            // Every basis vector of ker A must be killed by B.
            let prod = b * &ka;
            prod.is_zero()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[i64]]) -> IMat {
        IMat::from_rows(rows)
    }

    fn assert_kernel_ok(a: &IMat) {
        let k = kernel_basis(a);
        match k {
            None => assert_eq!(a.rank(), a.cols()),
            Some(kb) => {
                assert_eq!(kb.cols(), a.cols() - a.rank());
                assert!((a * &kb).is_zero(), "A·K != 0 for {a:?}");
                assert_eq!(kb.rank(), kb.cols(), "kernel basis not independent");
            }
        }
    }

    #[test]
    fn kernel_of_full_rank_square_is_trivial() {
        assert!(kernel_basis(&IMat::identity(3)).is_none());
    }

    #[test]
    fn kernel_of_example_f6() {
        // Reconstructed motivating example, access F6 = [[1,1,0],[0,1,1]]
        // (a read in S2): ker F6 is generated by v = (1,−1,1)ᵗ, the
        // broadcast direction of §2.3.
        let f6 = m(&[&[1, 1, 0], &[0, 1, 1]]);
        let k = kernel_basis(&f6).unwrap();
        assert_eq!(k.cols(), 1);
        let v = k.col(0);
        assert!((&f6 * &k).is_zero());
        assert_eq!(v[0].abs(), 1);
        assert_eq!(v[1], -v[0]);
        assert_eq!(v[2], v[0]);
    }

    #[test]
    fn kernel_of_rank_deficient_f8() {
        // F8 = [[1,1,1],[-1,-1,-1]] (rank 1, excluded from the access
        // graph) has a 2-dimensional kernel generated by (1,−1,0)ᵗ and
        // (0,1,−1)ᵗ — the footnoted "lucky coincidence" broadcast.
        let f8 = m(&[&[1, 1, 1], &[-1, -1, -1]]);
        let k = kernel_basis(&f8).unwrap();
        assert_eq!(k.cols(), 2);
        assert!((&f8 * &k).is_zero());
    }

    #[test]
    fn kernel_zero_matrix() {
        let z = IMat::zeros(2, 3);
        let k = kernel_basis(&z).unwrap();
        assert_eq!(k.cols(), 3);
        assert_eq!(k.rank(), 3);
    }

    #[test]
    fn kernel_intersection_basic() {
        // ker [1 0 0] ∩ ker [0 1 0] = span{e3}.
        let a = m(&[&[1, 0, 0]]);
        let b = m(&[&[0, 1, 0]]);
        let k = kernel_intersection(&[&a, &b]).unwrap();
        assert_eq!(k.cols(), 1);
        let v = k.col(0);
        assert_eq!(v[0], 0);
        assert_eq!(v[1], 0);
        assert_eq!(v[2].abs(), 1);
    }

    #[test]
    fn kernel_intersection_empty() {
        let a = m(&[&[1, 0], &[0, 1]]);
        let b = m(&[&[1, 1]]);
        assert!(kernel_intersection(&[&a, &b]).is_none());
    }

    #[test]
    fn left_kernel() {
        let a = m(&[&[1, 2], &[2, 4], &[0, 1]]);
        let lk = left_kernel_basis(&a).unwrap();
        assert_eq!(lk.rows(), 1);
        assert!((&lk * &a).is_zero());
        // y = (2, -1, 0) up to sign.
        let y = lk.row(0);
        assert_eq!(y[0], -2 * y[1]);
        assert_eq!(y[2], 0);
    }

    #[test]
    fn subset_and_escape() {
        let a = m(&[&[1, 0, 0]]); // ker = span{e2, e3}
        let b = m(&[&[1, 0, 0], &[0, 1, 0]]); // ker = span{e3}
        assert!(kernel_subset(&b, &a), "smaller kernel is subset");
        assert!(!kernel_subset(&a, &b), "larger kernel escapes");
        // Full-rank matrix has trivial kernel: subset of everything.
        assert!(kernel_subset(&IMat::identity(3), &a));
    }

    #[test]
    fn random_kernels_are_valid() {
        let mut seed = 0x12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
            ((seed >> 33) as i64 % 7) - 3
        };
        for rows in 1..4usize {
            for cols in 1..5usize {
                for _ in 0..30 {
                    let a = IMat::from_fn(rows, cols, |_, _| next());
                    assert_kernel_ok(&a);
                }
            }
        }
    }
}
