//! Unimodular matrices: the unimodularity test and a seeded generator.
//!
//! The paper exploits the degree of freedom that alignment matrices inside
//! a connected component of the branching are only determined *up to
//! left-multiplication by a unimodular matrix* (§2.3 remark). Rotating a
//! component by `V ∈ GL_m(ℤ)` preserves every local communication and is
//! used to (a) make partial broadcasts axis-parallel (§3.1) and (b) move a
//! dataflow matrix into a similarity class that decomposes into elementary
//! communications (§4.2.2).

use crate::mat::IMat;

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
}
