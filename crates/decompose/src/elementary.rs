//! Elementary (axis-parallel) communication matrices.
//!
//! For a 2-D grid the paper uses
//! `L(l) = [[1, 0], [l, 1]]` — a *horizontal* communication: the row
//! coordinate of the destination shifts by `l` times the column — and
//! `U(k) = [[1, k], [0, 1]]` — a *vertical* one. Implementing a dataflow
//! matrix as a short product of such factors turns one irregular
//! communication into a few conflict-light sweeps along the grid axes.

use rescomm_intlin::IMat;
use std::fmt;

/// An elementary 2×2 communication matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Elementary {
    /// `L(l) = [[1, 0], [l, 1]]`: horizontal communication.
    L(i64),
    /// `U(k) = [[1, k], [0, 1]]`: vertical communication.
    U(i64),
}

impl Elementary {
    /// The 2×2 matrix of this factor.
    pub fn to_mat(self) -> IMat {
        match self {
            Elementary::L(l) => IMat::from_rows(&[&[1, 0], &[l, 1]]),
            Elementary::U(k) => IMat::from_rows(&[&[1, k], &[0, 1]]),
        }
    }

    /// The inverse factor (`L(l)⁻¹ = L(−l)`).
    pub fn inverse(self) -> Elementary {
        match self {
            Elementary::L(l) => Elementary::L(-l),
            Elementary::U(k) => Elementary::U(-k),
        }
    }

    /// The shift amount.
    fn coeff(self) -> i64 {
        match self {
            Elementary::L(l) => l,
            Elementary::U(k) => k,
        }
    }

    /// `true` for identity factors (`L(0)`/`U(0)`).
    pub fn is_identity(self) -> bool {
        self.coeff() == 0
    }
}

impl fmt::Display for Elementary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Elementary::L(l) => write!(f, "L({l})"),
            Elementary::U(k) => write!(f, "U({k})"),
        }
    }
}

/// Product of a factor sequence, left to right: `f₁·f₂·…·f_n`.
pub fn product(factors: &[Elementary]) -> IMat {
    let mut acc = IMat::identity(2);
    for f in factors {
        acc = &acc * &f.to_mat();
    }
    acc
}

/// An `n×n` *unirow* matrix: the identity with row `row` replaced by
/// `coeffs` (used for axis-parallel communications on higher-dimensional
/// grids and for `det ≠ ±1` extensions, §4.1/§4.4).
pub fn unirow(n: usize, row: usize, coeffs: &[i64]) -> IMat {
    assert!(row < n && coeffs.len() == n, "unirow shape");
    IMat::from_fn(n, n, |i, j| {
        if i == row {
            coeffs[j]
        } else {
            i64::from(i == j)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_match_definition() {
        assert_eq!(
            Elementary::L(3).to_mat(),
            IMat::from_rows(&[&[1, 0], &[3, 1]])
        );
        assert_eq!(
            Elementary::U(-2).to_mat(),
            IMat::from_rows(&[&[1, -2], &[0, 1]])
        );
        assert!(Elementary::L(0).is_identity());
        assert!(!Elementary::U(1).is_identity());
    }

    #[test]
    fn inverse_cancels() {
        for f in [Elementary::L(5), Elementary::U(-3)] {
            let p = &f.to_mat() * &f.inverse().to_mat();
            assert!(p.is_identity());
        }
    }

    #[test]
    fn product_order_is_left_to_right() {
        // The paper's Table 2 example: T = L(2)·U(3) = [[1,3],[2,7]].
        let t = product(&[Elementary::L(2), Elementary::U(3)]);
        assert_eq!(t, IMat::from_rows(&[&[1, 3], &[2, 7]]));
        // And the motivating example: L(1)·U(1) = [[1,1],[1,2]].
        let t2 = product(&[Elementary::L(1), Elementary::U(1)]);
        assert_eq!(t2, IMat::from_rows(&[&[1, 1], &[1, 2]]));
    }

    #[test]
    fn elementary_products_have_det_one() {
        let t = product(&[
            Elementary::L(4),
            Elementary::U(-2),
            Elementary::L(1),
            Elementary::U(7),
        ]);
        assert_eq!(t.det(), 1);
    }

    #[test]
    fn unirow_unicolumn_shapes() {
        let r = unirow(3, 1, &[2, 5, -1]);
        assert_eq!(r, IMat::from_rows(&[&[1, 0, 0], &[2, 5, -1], &[0, 0, 1]]));
        assert_eq!(r.det(), 5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Elementary::L(2)), "L(2)");
        assert_eq!(format!("{}", Elementary::U(-1)), "U(-1)");
    }
}
