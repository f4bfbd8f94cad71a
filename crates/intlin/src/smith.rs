//! Smith normal form `A = U·D·V`.
//!
//! Used to decide solvability of integer matrix equations (`X·F = S` over
//! ℤ) and the existence of *integer* one-sided inverses `G·F = Id`, which
//! the access graph of the paper uses as edge weight matrices.

use crate::mat::IMat;

/// The Smith decomposition `A = U·D·V` with `U` (`m×m`) and `V` (`n×n`)
/// unimodular and `D` diagonal with `d_1 | d_2 | … | d_r`, `d_i ≥ 0`.
#[derive(Debug, Clone)]
pub struct SmithForm {
    /// Left unimodular factor (`m×m`).
    pub u: IMat,
    /// Diagonal middle factor (`m×n`).
    pub d: IMat,
    /// Right unimodular factor (`n×n`).
    pub v: IMat,
}

impl SmithForm {
    /// The diagonal entries `d_1, …, d_min(m,n)`.
    pub fn diagonal(&self) -> Vec<i64> {
        let k = self.d.rows().min(self.d.cols());
        (0..k).map(|i| self.d[(i, i)]).collect()
    }

    /// Rank = number of nonzero invariant factors.
    pub fn rank(&self) -> usize {
        self.diagonal().iter().filter(|&&x| x != 0).count()
    }
}

/// The transforms the Smith reduction accumulates: `ui·a·vi = d` with
/// `ui` (`m×m`) and `vi` (`n×n`) unimodular, so `a = ui⁻¹·d·vi⁻¹`.
///
/// Solving `a·x = b` needs only these (`d·z = ui·b`, `x = vi·z`), not the
/// inverses [`SmithForm`] carries.
#[derive(Debug, Clone)]
pub(crate) struct SmithReduction {
    /// Accumulated row transform, `U⁻¹` of the Smith form.
    pub ui: IMat,
    /// Diagonal middle factor (`m×n`).
    pub d: IMat,
    /// Accumulated column transform, `V⁻¹` of the Smith form.
    pub vi: IMat,
}

/// Compute the Smith normal form of `a`.
///
/// Returns [`SmithForm`] `{u, d, v}` with `a = u·d·v` exactly.
pub fn smith_normal_form(a: &IMat) -> SmithForm {
    let SmithReduction { ui, d, vi } = smith_reduce(a);
    let u = ui
        .inverse_unimodular()
        .expect("smith: row transform not unimodular");
    let v = vi
        .inverse_unimodular()
        .expect("smith: column transform not unimodular");
    SmithForm { u, d, v }
}

/// The Smith reduction of `a`, without inverting its transforms.
pub(crate) fn smith_reduce(a: &IMat) -> SmithReduction {
    let (m, n) = a.shape();
    let mut d = a.clone();
    let mut ui = IMat::identity(m);
    let mut vi = IMat::identity(n);

    let k = m.min(n);
    for t in 0..k {
        loop {
            // Find the nonzero entry of minimal absolute value in the
            // trailing submatrix and move it to (t, t).
            let mut best: Option<(usize, usize)> = None;
            for i in t..m {
                for j in t..n {
                    if d[(i, j)] != 0
                        && best.is_none_or(|(bi, bj)| d[(i, j)].abs() < d[(bi, bj)].abs())
                    {
                        best = Some((i, j));
                    }
                }
            }
            let Some((pi, pj)) = best else {
                // Trailing block is all zero; done.
                return SmithReduction { ui, d, vi };
            };
            if pi != t {
                d.swap_rows(pi, t);
                ui.swap_rows(pi, t);
            }
            if pj != t {
                d.swap_cols(pj, t);
                vi.swap_cols(pj, t);
            }
            if d[(t, t)] < 0 {
                d.negate_row(t);
                ui.negate_row(t);
            }
            // Eliminate the rest of row t and column t.
            let mut dirty = false;
            for i in t + 1..m {
                if d[(i, t)] != 0 {
                    let q = d[(i, t)].div_euclid(d[(t, t)]);
                    d.add_row_multiple(i, t, -q);
                    ui.add_row_multiple(i, t, -q);
                    if d[(i, t)] != 0 {
                        dirty = true;
                    }
                }
            }
            for j in t + 1..n {
                if d[(t, j)] != 0 {
                    let q = d[(t, j)].div_euclid(d[(t, t)]);
                    d.add_col_multiple(j, t, -q);
                    vi.add_col_multiple(j, t, -q);
                    if d[(t, j)] != 0 {
                        dirty = true;
                    }
                }
            }
            if dirty {
                continue;
            }
            // Divisibility: d[t][t] must divide every trailing entry.
            let mut fixed = true;
            'outer: for i in t + 1..m {
                for j in t + 1..n {
                    if d[(i, j)] % d[(t, t)] != 0 {
                        // Classic trick: add row i to row t, retry.
                        d.add_row_multiple(t, i, 1);
                        ui.add_row_multiple(t, i, 1);
                        fixed = false;
                        break 'outer;
                    }
                }
            }
            if fixed {
                break;
            }
        }
    }
    SmithReduction { ui, d, vi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unimodular::is_unimodular;

    fn m(rows: &[&[i64]]) -> IMat {
        IMat::from_rows(rows)
    }

    fn check(a: &IMat) {
        let s = smith_normal_form(a);
        assert!(is_unimodular(&s.u), "U not unimodular");
        assert!(is_unimodular(&s.v), "V not unimodular");
        assert_eq!(&(&s.u * &s.d) * &s.v, *a, "A != U·D·V for {a:?}");
        // D diagonal with divisibility chain.
        for i in 0..s.d.rows() {
            for j in 0..s.d.cols() {
                if i != j {
                    assert_eq!(s.d[(i, j)], 0, "D not diagonal");
                }
            }
        }
        let diag = s.diagonal();
        for w in diag.windows(2) {
            assert!(w[0] >= 0 && w[1] >= 0, "negative invariant factor");
            if w[0] != 0 {
                assert_eq!(w[1] % w[0].max(1), 0, "divisibility chain broken: {diag:?}");
            } else {
                assert_eq!(w[1], 0, "nonzero after zero in chain");
            }
        }
        assert_eq!(s.rank(), a.rank());
    }

    #[test]
    fn smith_classic() {
        check(&m(&[&[2, 4, 4], &[-6, 6, 12], &[10, 4, 16]]));
        let s = smith_normal_form(&m(&[&[2, 4, 4], &[-6, 6, 12], &[10, 4, 16]]));
        assert_eq!(s.diagonal(), vec![2, 2, 156]);
    }

    #[test]
    fn smith_identity_and_zero() {
        check(&IMat::identity(3));
        assert_eq!(
            smith_normal_form(&IMat::identity(3)).diagonal(),
            vec![1, 1, 1]
        );
        check(&IMat::zeros(2, 3));
        assert_eq!(smith_normal_form(&IMat::zeros(2, 3)).diagonal(), vec![0, 0]);
    }

    #[test]
    fn smith_rectangular() {
        check(&m(&[&[1, 2, 3], &[4, 5, 6]]));
        check(&m(&[&[1, 2], &[3, 4], &[5, 6]]));
        check(&m(&[&[6, 4], &[4, 8], &[2, 2]]));
    }

    #[test]
    fn smith_needs_divisibility_fix() {
        // [[2,0],[0,3]] must become [[1,0],[0,6]].
        let s = smith_normal_form(&m(&[&[2, 0], &[0, 3]]));
        assert_eq!(s.diagonal(), vec![1, 6]);
        check(&m(&[&[2, 0], &[0, 3]]));
    }

    #[test]
    fn smith_rank_deficient() {
        check(&m(&[&[1, 2], &[2, 4]]));
        let s = smith_normal_form(&m(&[&[1, 2], &[2, 4]]));
        assert_eq!(s.diagonal(), vec![1, 0]);
    }

    #[test]
    fn smith_unit_factors_iff_primitive() {
        // F2 from the paper (narrow 3×2 access matrix of statement S2 on b)
        // has all-unit invariant factors, so an integer left inverse exists.
        let f = m(&[&[1, 0], &[0, 1], &[0, 1]]);
        let s = smith_normal_form(&f);
        assert_eq!(s.diagonal(), vec![1, 1]);
    }

    #[test]
    fn smith_random_small() {
        let mut seed = 0xdeadbeefu64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as i64 % 9) - 4
        };
        for _ in 0..100 {
            let a = IMat::from_fn(3, 3, |_, _| next());
            check(&a);
        }
        for _ in 0..50 {
            let a = IMat::from_fn(2, 4, |_, _| next());
            check(&a);
        }
    }
}
