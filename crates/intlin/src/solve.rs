//! Integer matrix equations `X·F = S`.
//!
//! Appendix Lemmas 2 and 3 of the paper: for `S` (`m×d`, rank `m`) and `F`
//! (`a×d`, rank `d`), `X·F = S` is solvable iff the compatibility condition
//! `S·F⁻·F = S` holds, and then all solutions are
//! `X = S·F⁻ + Y·(Id_a − F·F⁻)` for arbitrary `Y`. We solve over ℤ via the
//! Smith form instead of the rational pseudo-inverse so that allocation
//! matrices stay integral, and we expose the full solution family
//! (particular solution + a basis of the homogeneous solutions) so that
//! callers can hunt for a *full-rank* solution — the requirement the paper
//! imposes on all allocation matrices.

use crate::kernel::left_kernel_basis;
use crate::mat::{IMat, LinError};
use crate::smith::{smith_reduce, SmithReduction};

/// The complete integer solution set of `X·F = S`:
/// `X = particular + C·homogeneous` for any integer `C` (row-wise: each row
/// of `X` is the matching row of `particular` plus an integer combination
/// of the rows of `homogeneous`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionFamily {
    /// One integer solution.
    pub particular: IMat,
    /// Basis (as rows) of `{y : y·F = 0}`; `None` if the left kernel of `F`
    /// is trivial (the solution is then unique).
    pub homogeneous: Option<IMat>,
}

impl SolutionFamily {
    /// Materialize `particular + C·homogeneous` for a given coefficient
    /// matrix `C` (`m×k`).
    fn instantiate(&self, c: &IMat) -> IMat {
        match &self.homogeneous {
            None => self.particular.clone(),
            Some(h) => &self.particular + &(c * h),
        }
    }
}

/// Solve the single linear system `A·x = b` over ℤ.
///
/// Returns a particular solution; `Err(Incompatible)` if no rational
/// solution exists, `Err(NotIntegral)` if solutions exist over ℚ but not ℤ.
pub fn solve_axb_int(a: &IMat, b: &[i64]) -> Result<Vec<i64>, LinError> {
    solve_reduced(&smith_reduce(a), b)
}

/// [`solve_axb_int`] against an already computed Smith reduction
/// `ui·A·vi = D` of `A`: `A·x = b` becomes `D·z = ui·b` with `x = vi·z`.
fn solve_reduced(red: &SmithReduction, b: &[i64]) -> Result<Vec<i64>, LinError> {
    let (m, n) = red.d.shape();
    assert_eq!(b.len(), m, "solve_axb_int: rhs length mismatch");
    let rhs = red.ui.mul_vec(b);
    let mut z = vec![0i64; n];
    let k = m.min(n);
    for i in 0..k {
        let d = red.d[(i, i)];
        if d == 0 {
            if rhs[i] != 0 {
                return Err(LinError::Incompatible);
            }
        } else {
            if rhs[i] % d != 0 {
                return Err(LinError::NotIntegral);
            }
            z[i] = rhs[i] / d;
        }
    }
    for &r in rhs.iter().skip(k) {
        if r != 0 {
            return Err(LinError::Incompatible);
        }
    }
    Ok(red.vi.mul_vec(&z))
}

/// Solve `X·F = S` over ℤ, returning the full solution family.
///
/// `F` is `a×d`, `S` is `m×d`; the solution `X` is `m×a`.
pub fn solve_xf_eq_s(s: &IMat, f: &IMat) -> Result<SolutionFamily, LinError> {
    Ok(SolutionFamily {
        particular: solve_xf_eq_s_particular(s, f)?,
        homogeneous: left_kernel_basis(f),
    })
}

/// The particular solution of [`solve_xf_eq_s`] alone, for callers that
/// never read the homogeneous family: the same `X` and the same errors,
/// without the left-kernel basis of `F`.
///
/// `Fᵗ` is reduced once; row `i` of `X` then solves
/// `Fᵗ·xᵢᵗ = (row i of S)ᵗ` against that reduction.
pub fn solve_xf_eq_s_particular(s: &IMat, f: &IMat) -> Result<IMat, LinError> {
    assert_eq!(
        s.cols(),
        f.cols(),
        "solve_xf_eq_s: column mismatch (S m×d, F a×d)"
    );
    let red = smith_reduce(&f.transpose()); // Fᵗ is d×a
    let m = s.rows();
    let a = f.rows();
    let mut x = IMat::zeros(m, a);
    for i in 0..m {
        let xi = solve_reduced(&red, s.row(i))?;
        for j in 0..a {
            x[(i, j)] = xi[j];
        }
    }
    debug_assert_eq!(&x * f, *s);
    Ok(x)
}

/// Solve `X·F = S` over ℤ and insist on a solution of rank `want_rank`.
///
/// Tries the particular solution first, then searches small integer
/// coefficient matrices `C` over the homogeneous family (exhaustively for
/// tiny families, pseudo-randomly otherwise). Returns
/// [`LinError::RankDeficient`] when no full-rank representative is found —
/// this mirrors the paper's caveat that when `F_{p1} − F_{p2}` is
/// rank-deficient "it can or not be possible" to find a suitable matrix.
pub fn solve_xf_eq_s_fullrank(s: &IMat, f: &IMat, want_rank: usize) -> Result<IMat, LinError> {
    let fam = solve_xf_eq_s(s, f)?;
    if fam.particular.rank() >= want_rank {
        return Ok(fam.particular);
    }
    let Some(h) = &fam.homogeneous else {
        return Err(LinError::RankDeficient);
    };
    let m = fam.particular.rows();
    let k = h.rows();
    let cells = m * k;
    if cells <= 6 {
        // Exhaustive odometer over C entries in [-2, 2].
        let mut c = vec![0i64; cells];
        loop {
            let cm = IMat::from_vec(m, k, c.clone());
            let cand = fam.instantiate(&cm);
            if cand.rank() >= want_rank {
                return Ok(cand);
            }
            let mut pos = 0;
            loop {
                if pos == cells {
                    return Err(LinError::RankDeficient);
                }
                c[pos] += 1;
                if c[pos] > 2 {
                    c[pos] = -2;
                    pos += 1;
                } else {
                    break;
                }
            }
        }
    }
    // Pseudo-random search for larger families.
    let mut seed = 0x2545f4914f6cdd1du64;
    for _ in 0..20_000 {
        let cm = IMat::from_fn(m, k, |_, _| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as i64 % 7) - 3
        });
        let cand = fam.instantiate(&cm);
        if cand.rank() >= want_rank {
            return Ok(cand);
        }
    }
    Err(LinError::RankDeficient)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[i64]]) -> IMat {
        IMat::from_rows(rows)
    }

    #[test]
    fn axb_unique() {
        let a = m(&[&[2, 1], &[1, 1]]);
        let x = solve_axb_int(&a, &[3, 2]).unwrap();
        assert_eq!(a.mul_vec(&x), vec![3, 2]);
    }

    #[test]
    fn axb_incompatible() {
        let a = m(&[&[1, 1], &[2, 2]]);
        assert_eq!(solve_axb_int(&a, &[1, 3]), Err(LinError::Incompatible));
    }

    #[test]
    fn axb_not_integral() {
        let a = m(&[&[2, 0], &[0, 2]]);
        assert_eq!(solve_axb_int(&a, &[1, 2]), Err(LinError::NotIntegral));
    }

    #[test]
    fn axb_underdetermined() {
        let a = m(&[&[1, 2, 3]]);
        let x = solve_axb_int(&a, &[6]).unwrap();
        assert_eq!(a.mul_vec(&x), vec![6]);
    }

    #[test]
    fn xf_eq_s_narrow_f() {
        // Lemma 3 case: F narrow full rank, solution always exists.
        // F1 of the reconstructed example.
        let f = m(&[&[1, 0], &[0, 1], &[0, 1]]);
        let s = IMat::identity(2);
        let fam = solve_xf_eq_s(&s, &f).unwrap();
        assert_eq!(&fam.particular * &f, s);
        // Homogeneous: left kernel of F is 1-dimensional.
        let h = fam.homogeneous.clone().unwrap();
        assert_eq!(h.rows(), 1);
        assert!((&h * &f).is_zero());
        // Every instantiation solves the equation.
        let c = m(&[&[5], &[-3]]);
        let x2 = fam.instantiate(&c);
        assert_eq!(&x2 * &f, IMat::identity(2));
    }

    #[test]
    fn xf_eq_s_compatibility_violation() {
        // F flat: M_S = M_x·F is not always solvable for M_x — the paper's
        // reason to orient flat-access edges from array to statement.
        let f = m(&[&[1, 0, 0], &[0, 1, 0]]); // 2×3 flat (qx=2 < d=3)
        let s = m(&[&[0, 0, 1], &[1, 0, 0]]); // wants to see column 3
        assert_eq!(solve_xf_eq_s(&s, &f), Err(LinError::Incompatible));
    }

    #[test]
    fn particular_solve_keeps_every_outcome() {
        let cases = [
            // Flat F that cannot see column 3: incompatible.
            (m(&[&[0, 0, 1], &[1, 0, 0]]), m(&[&[1, 0, 0], &[0, 1, 0]])),
            // X = S·(2·Id)⁻¹ is fractional: not integral.
            (IMat::identity(2), m(&[&[2, 0], &[0, 2]])),
            // Row 0 solves, row 1 does not: the error still surfaces.
            (m(&[&[2, 4], &[1, 2]]), m(&[&[2, 0], &[0, 2]])),
            // Narrow F with a left kernel: solvable.
            (IMat::identity(2), m(&[&[1, 0], &[0, 1], &[0, 1]])),
        ];
        let want = [
            Err(LinError::Incompatible),
            Err(LinError::NotIntegral),
            Err(LinError::NotIntegral),
            Ok(m(&[&[1, 0, 0], &[0, 1, 0]])),
        ];
        for ((s, f), want) in cases.iter().zip(want) {
            let got = solve_xf_eq_s_particular(s, f);
            assert_eq!(got, want, "S={s:?} F={f:?}");
            assert_eq!(got, solve_xf_eq_s(s, f).map(|fam| fam.particular));
        }
    }

    #[test]
    fn xf_eq_s_fullrank_direct() {
        let f = m(&[&[1, 0], &[0, 1], &[1, 1]]);
        let s = m(&[&[2, 3], &[1, 1]]);
        let x = solve_xf_eq_s_fullrank(&s, &f, 2).unwrap();
        assert_eq!(&x * &f, s);
        assert_eq!(x.rank(), 2);
    }

    #[test]
    fn xf_eq_s_fullrank_needs_homogeneous_shift() {
        // S = 0 forces the particular solution to rank 0; a full-rank
        // solution must come from the homogeneous family (rows of the left
        // kernel). F with a 2-dimensional left kernel makes this feasible.
        let f = m(&[&[1, 0], &[0, 1], &[0, 0], &[0, 0]]);
        let s = IMat::zeros(2, 2);
        let x = solve_xf_eq_s_fullrank(&s, &f, 2).unwrap();
        assert!((&x * &f).is_zero());
        assert_eq!(x.rank(), 2);
    }

    #[test]
    fn xf_eq_s_fullrank_impossible() {
        // F square nonsingular: X = S·F⁻¹ unique; S rank 1 ⟹ no rank-2
        // solution can exist.
        let f = m(&[&[1, 0], &[0, 1]]);
        let s = m(&[&[1, 1], &[1, 1]]);
        assert_eq!(
            solve_xf_eq_s_fullrank(&s, &f, 2),
            Err(LinError::RankDeficient)
        );
    }

    #[test]
    fn xf_random_roundtrip() {
        let mut seed = 0x5555u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(11);
            ((seed >> 33) as i64 % 5) - 2
        };
        for _ in 0..100 {
            // Build S = X·F from random X, F; the solver must recover some
            // solution (not necessarily X).
            let f = IMat::from_fn(3, 2, |_, _| next());
            let x = IMat::from_fn(2, 3, |_, _| next());
            let s = &x * &f;
            match solve_xf_eq_s(&s, &f) {
                Ok(fam) => assert_eq!(&fam.particular * &f, s),
                Err(e) => panic!("constructed-solvable system failed: {e} F={f:?} S={s:?}"),
            }
        }
    }
}
