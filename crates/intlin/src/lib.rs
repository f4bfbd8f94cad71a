//! # rescomm-intlin — exact integer & rational linear algebra
//!
//! Substrate crate for the `rescomm` workspace (reproduction of Dion,
//! Randriamaro & Robert, *“How to optimize residual communications?”*,
//! IPPS 1996). All of the paper's compiler analysis is exact linear algebra
//! over ℤ and ℚ on small dense matrices: allocation matrices, access
//! matrices, their kernels, pseudo-inverses, Hermite/Smith normal forms and
//! unimodular transformations.
//!
//! The crate provides:
//!
//! * [`IMat`] — dense integer matrices (`i64` entries, `i128` intermediate
//!   arithmetic, overflow-checked);
//! * [`Rational`] / [`RMat`] — exact rationals over `i128` and dense
//!   rational matrices with Gauss–Jordan inversion;
//! * [`hermite`] — left/right Hermite normal forms with unimodular
//!   cofactors (Definition 1 of the paper's appendix);
//! * [`smith`] — Smith normal form `A = U·D·V`;
//! * [`kernel`] — integer bases of null spaces, left null spaces and kernel
//!   intersections (the paper's broadcast/scatter/gather conditions are all
//!   kernel-dimension comparisons);
//! * [`pseudo`] — left/right pseudo-inverses `F⁻` (appendix §8.2), both the
//!   rational Moore–Penrose-style ones and *integer* one-sided inverses
//!   `G·F = Id` obtained from the Hermite form (the access-graph weights);
//! * [`solve`] — the matrix equation `X·F = S` (appendix Lemmas 2 and 3,
//!   used to orient access-graph edges and to propagate allocations);
//! * [`unimodular`] — the unimodularity test and a seeded generator of
//!   unimodular matrices (the transforms that rotate mappings so partial
//!   broadcasts become axis-parallel, §3.1, and that search similarity
//!   classes for decomposability, §4.2.2).
//!
//! Everything is deterministic and allocation-light; matrices in this
//! domain are tiny (loop depths and array ranks are ≤ 6 in practice), so
//! the code favours clarity and exactness over asymptotics.

#![forbid(unsafe_code)]

pub mod hermite;
pub mod kernel;
pub mod mat;
pub mod pseudo;
pub mod rat;
pub mod smith;
pub mod solve;
pub mod table;
pub mod unimodular;

pub use hermite::{left_hermite, right_hermite, HermiteForm};
pub use kernel::{kernel_basis, kernel_intersection, kernel_subset, left_kernel_basis};
pub use mat::{IMat, LinError};
pub use pseudo::{left_inverse_int, pseudo_inverse, right_inverse_int, small_left_inverse};
pub use rat::{RMat, Rational};
pub use smith::{smith_normal_form, SmithForm};
pub use solve::{
    solve_axb_int, solve_xf_eq_s, solve_xf_eq_s_fullrank, solve_xf_eq_s_particular, SolutionFamily,
};
pub use table::{FxHasher, FxMap, MatId, MatTable};
pub use unimodular::{is_unimodular, random_unimodular};

/// Greatest common divisor of two integers (always non-negative;
/// `gcd(0, 0) = 0`).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i64
}

/// Least common multiple (non-negative; `lcm(0, x) = 0`).
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).checked_mul(b).expect("lcm overflow").abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(12, 18), 6);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(-3, 5), 15);
    }
}
