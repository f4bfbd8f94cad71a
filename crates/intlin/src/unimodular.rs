//! Unimodular matrices: tests, generators and completions.
//!
//! The paper exploits the degree of freedom that alignment matrices inside
//! a connected component of the branching are only determined *up to
//! left-multiplication by a unimodular matrix* (§2.3 remark). Rotating a
//! component by `V ∈ GL_m(ℤ)` preserves every local communication and is
//! used to (a) make partial broadcasts axis-parallel (§3.1) and (b) move a
//! dataflow matrix into a similarity class that decomposes into elementary
//! communications (§4.2.2).

use crate::hermite::row_reduce;
use crate::mat::{IMat, LinError};

/// `true` iff `a` is square with determinant ±1.
pub fn is_unimodular(a: &IMat) -> bool {
    a.is_square() && matches!(a.det(), 1 | -1)
}

/// Deterministic pseudo-random unimodular matrix of order `n`, built as a
/// product of `steps` random elementary row operations seeded by `seed`.
/// Entry growth is kept in check by bounding the shear coefficients.
pub fn random_unimodular(n: usize, steps: usize, seed: u64) -> IMat {
    let mut m = IMat::identity(n);
    if n < 2 {
        return m;
    }
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..steps {
        let i = next() % n;
        let mut j = next() % n;
        if i == j {
            j = (j + 1) % n;
        }
        match next() % 3 {
            0 => {
                let k = (next() % 3) as i64 - 1;
                if k != 0 {
                    m.add_row_multiple(i, j, k);
                }
            }
            1 => m.swap_rows(i, j),
            _ => m.negate_row(i),
        }
    }
    debug_assert!(is_unimodular(&m));
    m
}

/// Complete a primitive integer column vector `v` (gcd of entries = 1) to a
/// unimodular matrix whose **first column** is `v`.
///
/// Used in §4.2.2: the basis `(e₁', e₂')` with `f(e₁') = … ` is a
/// unimodular change of basis built from one prescribed vector. Returns
/// [`LinError::NotIntegral`] when `v` is not primitive (then no unimodular
/// completion exists) and [`LinError::Singular`] for `v = 0`.
pub fn complete_to_unimodular(v: &[i64]) -> Result<IMat, LinError> {
    let n = v.len();
    assert!(n > 0, "complete_to_unimodular: empty vector");
    if v.iter().all(|&x| x == 0) {
        return Err(LinError::Singular);
    }
    let col = IMat::col_vec(v);
    // U·v = (g, 0, …, 0)ᵗ with U unimodular; if g = ±1 then the first
    // column of U⁻¹ is ±v.
    let (u, h, _) = row_reduce(&col);
    let g = h[(0, 0)];
    if g != 1 && g != -1 {
        return Err(LinError::NotIntegral);
    }
    let mut uinv = u.inverse_unimodular().expect("row_reduce not unimodular");
    if g == -1 {
        uinv.negate_col(0);
    }
    debug_assert_eq!(uinv.col(0), v);
    debug_assert!(is_unimodular(&uinv));
    Ok(uinv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unimodularity_checks() {
        assert!(is_unimodular(&IMat::identity(3)));
        assert!(is_unimodular(&IMat::from_rows(&[&[1, 1], &[0, 1]])));
        assert!(is_unimodular(&IMat::from_rows(&[&[0, 1], &[1, 0]])));
        assert!(!is_unimodular(&IMat::from_rows(&[&[2, 0], &[0, 1]])));
        assert!(!is_unimodular(&IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]])));
    }

    #[test]
    fn random_unimodular_is_unimodular() {
        for seed in 0..50u64 {
            for n in 1..5usize {
                let u = random_unimodular(n, 30, seed);
                assert!(is_unimodular(&u), "seed {seed} n {n}: {u:?}");
            }
        }
    }

    #[test]
    fn random_unimodular_varies() {
        let a = random_unimodular(3, 30, 1);
        let b = random_unimodular(3, 30, 2);
        assert_ne!(a, b, "different seeds should give different matrices");
    }

    #[test]
    fn completion_basic() {
        let v = [2, 3];
        let u = complete_to_unimodular(&v).unwrap();
        assert_eq!(u.col(0), vec![2, 3]);
        assert!(is_unimodular(&u));
    }

    #[test]
    fn completion_3d() {
        let v = [6, 10, 15]; // pairwise non-coprime but globally primitive
        let u = complete_to_unimodular(&v).unwrap();
        assert_eq!(u.col(0), vec![6, 10, 15]);
        assert!(is_unimodular(&u));
    }

    #[test]
    fn completion_non_primitive_fails() {
        assert_eq!(complete_to_unimodular(&[2, 4]), Err(LinError::NotIntegral));
        assert_eq!(complete_to_unimodular(&[0, 0]), Err(LinError::Singular));
    }

    #[test]
    fn completion_negative_entries() {
        let v = [-1, 1];
        let u = complete_to_unimodular(&v).unwrap();
        assert_eq!(u.col(0), vec![-1, 1]);
        assert!(is_unimodular(&u));
    }

    #[test]
    fn bezout_2x2() {
        // A primitive pair completes to a 2×2 matrix of determinant ±1.
        let u = complete_to_unimodular(&[3, 5]).unwrap();
        assert_eq!(u.det().abs(), 1);
        assert_eq!(u[(0, 0)], 3);
        assert_eq!(u[(1, 0)], 5);
        assert!(complete_to_unimodular(&[2, 4]).is_err());
    }
}
