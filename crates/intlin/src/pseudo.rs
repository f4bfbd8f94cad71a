//! One-sided (pseudo-)inverses of full-rank rectangular matrices.
//!
//! Appendix §8.2 of the paper: a full-rank flat `X` (`u×v`, `u < v`) has a
//! *right* pseudo-inverse `X⁻ = Xᵗ(X·Xᵗ)⁻¹` with `X·X⁻ = Id_u`; a
//! full-rank narrow `X` (`u > v`) has a *left* pseudo-inverse
//! `X⁻ = (Xᵗ·X)⁻¹Xᵗ` with `X⁻·X = Id_v`. Those are rational in general.
//!
//! The access graph instead wants *integer* weight matrices, and the paper
//! remarks (end of §2.2.2) that any `G` with `G·F = Id` works, not just the
//! true pseudo-inverse. [`left_inverse_int`] / [`right_inverse_int`]
//! produce such integer one-sided inverses from the Smith form when they
//! exist (iff all invariant factors are ±1, i.e. the matrix is primitive),
//! and [`small_left_inverse`] searches the affine family
//! `G = G₀ + C·N` (`N` = left-kernel basis) for a small-coefficient
//! representative, mirroring the paper's choice of simple weight matrices.

use crate::kernel::left_kernel_basis;
use crate::mat::{IMat, LinError};
use crate::rat::RMat;
use crate::smith::smith_reduce;

/// Rational pseudo-inverse of a full-rank matrix (appendix §8.2).
///
/// * square nonsingular: the ordinary inverse;
/// * flat (`u < v`): `Xᵗ(X·Xᵗ)⁻¹`, satisfying `X·X⁻ = Id_u`;
/// * narrow (`u > v`): `(Xᵗ·X)⁻¹Xᵗ`, satisfying `X⁻·X = Id_v`.
///
/// Returns [`LinError::Singular`] if the matrix is not of full rank.
pub fn pseudo_inverse(x: &IMat) -> Result<RMat, LinError> {
    let (u, v) = x.shape();
    let xr = RMat::from_int(x);
    if u == v {
        return xr.inverse();
    }
    if u < v {
        // Flat: Xᵗ(X·Xᵗ)⁻¹.
        let xt = xr.transpose();
        let gram = xr.mul(&xt);
        let inv = gram.inverse().map_err(|_| LinError::Singular)?;
        Ok(xt.mul(&inv))
    } else {
        // Narrow: (Xᵗ·X)⁻¹Xᵗ.
        let xt = xr.transpose();
        let gram = xt.mul(&xr);
        let inv = gram.inverse().map_err(|_| LinError::Singular)?;
        Ok(inv.mul(&xt))
    }
}

/// An integer right inverse: `X` with `F·X = Id_u` for a full-rank flat (or
/// square unimodular) `F` (`u×v`, `u ≤ v`).
///
/// Exists iff every invariant factor of `F` is 1 (`F` primitive). Built
/// from the Smith form `F = U·D·V`: `X = V⁻¹·Y` with
/// `Y_i = (U⁻¹)_i / d_i` on the top `u` rows and zero below.
pub fn right_inverse_int(f: &IMat) -> Result<IMat, LinError> {
    let (u, v) = f.shape();
    if u > v {
        return Err(LinError::Incompatible);
    }
    // `ui·F·vi = D` holds `U⁻¹` and `V⁻¹` of the Smith form directly.
    let s = smith_reduce(f);
    let uinv = &s.ui;
    let mut y = IMat::zeros(v, u);
    for i in 0..u {
        let d = s.d[(i, i)];
        if d == 0 {
            return Err(LinError::RankDeficient);
        }
        for j in 0..u {
            let num = uinv[(i, j)];
            if num % d != 0 {
                return Err(LinError::NotIntegral);
            }
            y[(i, j)] = num / d;
        }
    }
    Ok(&s.vi * &y)
}

/// An integer left inverse: `G` with `G·F = Id_v` for a full-rank narrow
/// (or square unimodular) `F` (`u×v`, `u ≥ v`). See [`right_inverse_int`].
pub fn left_inverse_int(f: &IMat) -> Result<IMat, LinError> {
    right_inverse_int(&f.transpose()).map(|x| x.transpose())
}

/// Search the affine family of integer left inverses
/// `G = G₀ + C·N` (`N` a basis of the left kernel of `F`) for the
/// representative with the smallest maximum absolute coefficient, trying
/// integer combinations with `|C| ≤ bound`. Returns `G₀` unchanged when `F`
/// has a trivial left kernel or the search space is too large.
pub fn small_left_inverse(f: &IMat, bound: i64) -> Result<IMat, LinError> {
    let g0 = left_inverse_int(f)?;
    let Some(n) = left_kernel_basis(f) else {
        return Ok(g0);
    };
    // One row of G at a time: row_i(G) = row_i(G₀) + c·N with c ∈ ℤᵏ.
    let k = n.rows();
    if k > 2 {
        // Exhaustive search is only worthwhile for tiny kernels.
        return Ok(g0);
    }
    let mut best = g0.clone();
    let mut coeffs = vec![0i64; k];
    loop {
        // Enumerate c ∈ [-bound, bound]^k (odometer).
        let mut g = g0.clone();
        for i in 0..g.rows() {
            for (ki, &c) in coeffs.iter().enumerate() {
                if c != 0 {
                    for j in 0..g.cols() {
                        g[(i, j)] += c * n[(ki, j)];
                    }
                }
            }
            // Evaluate per-row independently: keep the better row.
            let row_max = |m: &IMat, r: usize| m.row(r).iter().map(|x| x.abs()).max().unwrap_or(0);
            if row_max(&g, i) < row_max(&best, i) {
                for j in 0..g.cols() {
                    best[(i, j)] = g[(i, j)];
                }
            }
        }
        // Advance odometer.
        let mut pos = 0;
        loop {
            if pos == k {
                debug_assert!((&best * f).is_identity());
                return Ok(best);
            }
            coeffs[pos] += 1;
            if coeffs[pos] > bound {
                coeffs[pos] = -bound;
                pos += 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat::Rational;

    fn m(rows: &[&[i64]]) -> IMat {
        IMat::from_rows(rows)
    }

    #[test]
    fn pseudo_square() {
        let a = m(&[&[2, 1], &[1, 1]]);
        let p = pseudo_inverse(&a).unwrap();
        assert!(RMat::from_int(&a).mul(&p).is_identity());
    }

    #[test]
    fn pseudo_flat_right_identity() {
        // F6 of the reconstructed example (flat 2×3, rank 2).
        let f = m(&[&[1, 1, 0], &[0, 1, 1]]);
        let p = pseudo_inverse(&f).unwrap();
        assert!(RMat::from_int(&f).mul(&p).is_identity());
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 2);
    }

    #[test]
    fn pseudo_narrow_left_identity() {
        // F1 of the reconstructed example (narrow 3×2, rank 2). Its true
        // pseudo-inverse is rational: [[1,0,0],[0,1/2,1/2]].
        let f = m(&[&[1, 0], &[0, 1], &[0, 1]]);
        let p = pseudo_inverse(&f).unwrap();
        assert!(p.mul(&RMat::from_int(&f)).is_identity());
        assert_eq!(p.get(1, 1), Rational::new(1, 2));
        assert_eq!(p.get(1, 2), Rational::new(1, 2));
    }

    #[test]
    fn pseudo_rank_deficient_fails() {
        let f = m(&[&[1, 1, 1], &[-1, -1, -1]]);
        assert!(pseudo_inverse(&f).is_err());
    }

    #[test]
    fn int_left_inverse_of_primitive() {
        let f = m(&[&[1, 0], &[0, 1], &[0, 1]]);
        let g = left_inverse_int(&f).unwrap();
        assert!((&g * &f).is_identity());
    }

    #[test]
    fn int_right_inverse_of_primitive_flat() {
        let f = m(&[&[1, 1, 0], &[0, 1, 1]]);
        let x = right_inverse_int(&f).unwrap();
        assert!((&f * &x).is_identity());
    }

    #[test]
    fn int_inverse_nonprimitive_fails() {
        // All invariant factors of [[2,0],[0,2],[0,0]]ᵗ-style matrices are
        // not 1: no integer one-sided inverse.
        let f = m(&[&[2, 0], &[0, 2], &[0, 0]]);
        assert_eq!(left_inverse_int(&f), Err(LinError::NotIntegral));
    }

    #[test]
    fn int_inverse_rank_deficient_fails() {
        let f = m(&[&[1, 1], &[2, 2], &[0, 0]]);
        assert!(matches!(
            left_inverse_int(&f),
            Err(LinError::RankDeficient) | Err(LinError::NotIntegral)
        ));
    }

    #[test]
    fn int_inverse_square_unimodular() {
        let f = m(&[&[1, 1], &[0, 1]]);
        let g = left_inverse_int(&f).unwrap();
        assert!((&g * &f).is_identity());
        assert!((&f * &g).is_identity());
    }

    #[test]
    fn small_left_inverse_shrinks_coefficients() {
        // The paper replaces the true (rational) pseudo-inverse of F1 by a
        // simple integer G; the searched G should have |entries| ≤ 1 here.
        let f = m(&[&[1, 0], &[0, 1], &[0, 1]]);
        let g = small_left_inverse(&f, 3).unwrap();
        assert!((&g * &f).is_identity());
        assert!(g.max_abs() <= 1, "G = {g:?}");
    }

    #[test]
    fn small_left_inverse_random_narrow() {
        let mut seed = 0xabcdefu64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((seed >> 33) as i64 % 5) - 2
        };
        let mut found = 0;
        for _ in 0..200 {
            let f = IMat::from_fn(3, 2, |_, _| next());
            if f.rank() < 2 {
                continue;
            }
            if let Ok(g) = small_left_inverse(&f, 2) {
                assert!((&g * &f).is_identity(), "G·F != Id for {f:?}");
                found += 1;
            }
        }
        assert!(found > 10, "too few primitive matrices in the sample");
    }
}
