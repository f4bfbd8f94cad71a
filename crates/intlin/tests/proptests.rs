//! Property-based tests for the exact linear-algebra substrate.
//!
//! These check the algebraic identities the paper's analysis relies on
//! (appendix §8): Hermite/Smith factorizations, pseudo-inverse identities,
//! Lemma 1 (rank of products), Lemma 2/3 (the `X·F = S` solver), and
//! kernel-basis correctness.

use proptest::prelude::*;
use rescomm_intlin::{
    gcd, kernel_basis, kernel_subset, left_inverse_int, left_kernel_basis, pseudo_inverse,
    right_hermite, right_inverse_int, smith_normal_form, solve_xf_eq_s, solve_xf_eq_s_particular,
    IMat, LinError, MatId, MatTable, RMat,
};
use std::panic::catch_unwind;

/// Strategy: a rows×cols matrix with small entries.
fn small_mat(rows: usize, cols: usize) -> impl Strategy<Value = IMat> {
    proptest::collection::vec(-5i64..=5, rows * cols)
        .prop_map(move |v| IMat::from_vec(rows, cols, v))
}

fn any_shape_mat() -> impl Strategy<Value = IMat> {
    (1usize..=4, 1usize..=4).prop_flat_map(|(r, c)| small_mat(r, c))
}

/// Entries whose products straddle 2⁶⁴: an elimination that wrapped
/// instead of falling back would see false zeros among them.
const WRAP_TRAPS: [i64; 11] = [
    0,
    1,
    -1,
    1 << 31,
    -(1 << 31),
    1 << 32,
    -(1 << 32),
    1 << 33,
    -(1 << 33),
    (1 << 32) + 1,
    -(1 << 32) - 1,
];

/// An entry near zero, at either end of `i64`, or one of [`WRAP_TRAPS`].
fn edge_entry() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..=3,
        (i64::MAX - 3)..=i64::MAX,
        i64::MIN..=(i64::MIN + 3),
        (0usize..WRAP_TRAPS.len()).prop_map(|i| WRAP_TRAPS[i]),
    ]
}

/// Up to 4×4 (so stored inline) with entries from [`edge_entry`]; each
/// row after the first may repeat an earlier row or its negation, so
/// rank-deficient matrices with huge entries come up often.
fn edge_mat() -> impl Strategy<Value = IMat> {
    (1usize..=4, 1usize..=4).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec(edge_entry(), r * c),
            proptest::collection::vec(0usize..8, r),
        )
            .prop_map(move |(mut v, copy)| {
                for i in 1..r {
                    let (src, neg) = (copy[i] % 4, copy[i] >= 4);
                    if src < i {
                        for j in 0..c {
                            let x = v[src * c + j];
                            v[i * c + j] = if neg { x.checked_neg().unwrap_or(x) } else { x };
                        }
                    }
                }
                IMat::from_vec(r, c, v)
            })
    })
}

/// `(S, F)` with the same column count, as `X·F = S` needs.
fn same_cols_pair() -> impl Strategy<Value = (IMat, IMat)> {
    (1usize..=3, 1usize..=4, 1usize..=4)
        .prop_flat_map(|(m, a, d)| (small_mat(m, d), small_mat(a, d)))
}

/// The seed's `X·F = S` solve: one Smith form of `Fᵗ` and two unimodular
/// inverses per row of `S`, each row solved on its own.
fn seed_particular(s: &IMat, f: &IMat) -> Result<IMat, LinError> {
    let ft = f.transpose();
    let mut x = IMat::zeros(s.rows(), f.rows());
    for i in 0..s.rows() {
        let sf = smith_normal_form(&ft);
        let uinv = sf.u.inverse_unimodular().unwrap();
        let rhs = uinv.mul_vec(s.row(i));
        let (m, n) = ft.shape();
        let mut z = vec![0i64; n];
        for k in 0..m.min(n) {
            let d = sf.d[(k, k)];
            if d == 0 {
                if rhs[k] != 0 {
                    return Err(LinError::Incompatible);
                }
            } else {
                if rhs[k] % d != 0 {
                    return Err(LinError::NotIntegral);
                }
                z[k] = rhs[k] / d;
            }
        }
        if rhs.iter().skip(m.min(n)).any(|&r| r != 0) {
            return Err(LinError::Incompatible);
        }
        let xi = sf.v.inverse_unimodular().unwrap().mul_vec(&z);
        for (j, v) in xi.into_iter().enumerate() {
            x[(i, j)] = v;
        }
    }
    Ok(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The division-free `i64` rank of an inline matrix equals the `i128`
    /// elimination (which heap storage forces), entries at the edges of
    /// `i64` included; where the `i128` path overflows, both panic.
    #[test]
    fn rank_i64_matches_i128_path(a in edge_mat()) {
        prop_assert!(a.is_inline());
        let mut heap = a.clone();
        heap.force_heap();
        let fast = catch_unwind(|| a.rank());
        match catch_unwind(|| heap.rank()) {
            Ok(r) => prop_assert_eq!(fast.ok(), Some(r), "{:?}", a),
            Err(_) => prop_assert!(fast.is_err(), "i128 path panicked, i64 path did not: {:?}", a),
        }
    }

    /// Augment's feasibility test: the left-kernel dimension is the rank
    /// deficit of the rows, with no basis built.
    #[test]
    fn left_kernel_dimension_is_rank_deficit(a in any_shape_mat()) {
        let dim = left_kernel_basis(&a).map_or(0, |b| b.rows());
        prop_assert_eq!(a.rows() - a.rank(), dim);
    }

    /// The particular-only solve returns what `solve_xf_eq_s` returns as
    /// its particular solution, `Err` variant included, and both match the
    /// seed's per-row Smith solve.
    #[test]
    fn particular_solve_matches_family(pair in same_cols_pair()) {
        let (s, f) = pair;
        let got = solve_xf_eq_s_particular(&s, &f);
        prop_assert_eq!(&got, &solve_xf_eq_s(&s, &f).map(|fam| fam.particular));
        prop_assert_eq!(&got, &seed_particular(&s, &f));
        if let Ok(x) = &got {
            prop_assert_eq!(&(x * &f), &s);
        }
    }

    #[test]
    fn hermite_reconstructs(a in any_shape_mat()) {
        let hf = right_hermite(&a);
        prop_assert!(matches!(hf.q.det(), 1 | -1));
        prop_assert_eq!(&hf.q * &hf.h, a.clone());
        prop_assert_eq!(hf.rank, a.rank());
        for i in hf.rank..a.rows() {
            prop_assert!(hf.h.row(i).iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn smith_reconstructs_with_divisibility(a in any_shape_mat()) {
        let s = smith_normal_form(&a);
        prop_assert!(matches!(s.u.det(), 1 | -1));
        prop_assert!(matches!(s.v.det(), 1 | -1));
        prop_assert_eq!(&(&s.u * &s.d) * &s.v, a.clone());
        let diag = s.diagonal();
        for w in diag.windows(2) {
            prop_assert!(w[0] >= 0);
            if w[0] == 0 {
                prop_assert_eq!(w[1], 0);
            } else {
                prop_assert_eq!(w[1] % w[0], 0);
            }
        }
        prop_assert_eq!(s.rank(), a.rank());
    }

    #[test]
    fn kernel_vectors_are_killed(a in any_shape_mat()) {
        match kernel_basis(&a) {
            None => prop_assert_eq!(a.rank(), a.cols()),
            Some(k) => {
                prop_assert!((&a * &k).is_zero());
                prop_assert_eq!(k.cols(), a.cols() - a.rank());
                prop_assert_eq!(k.rank(), k.cols());
            }
        }
    }

    #[test]
    fn kernel_subset_reflexive(a in any_shape_mat()) {
        prop_assert!(kernel_subset(&a, &a));
    }

    #[test]
    fn pseudo_inverse_identities(a in any_shape_mat()) {
        let (u, v) = a.shape();
        if a.rank() == u.min(v) {
            let p = pseudo_inverse(&a).unwrap();
            let ar = RMat::from_int(&a);
            if u <= v {
                prop_assert!(ar.mul(&p).is_identity(), "F·F⁻ != Id");
            }
            if u >= v {
                prop_assert!(p.mul(&ar).is_identity(), "F⁻·F != Id");
            }
        } else {
            prop_assert!(pseudo_inverse(&a).is_err());
        }
    }

    #[test]
    fn int_one_sided_inverses_verify(a in any_shape_mat()) {
        let (u, v) = a.shape();
        if u <= v {
            if let Ok(x) = right_inverse_int(&a) {
                prop_assert!((&a * &x).is_identity());
            }
        }
        if u >= v {
            if let Ok(g) = left_inverse_int(&a) {
                prop_assert!((&g * &a).is_identity());
            }
        }
    }

    /// Lemma 1: A (m×a, rank m) times F (a×d, rank a) has rank m, m ≤ a ≤ d.
    #[test]
    fn lemma1_rank_of_product(a in small_mat(2, 3), f in small_mat(3, 4)) {
        if a.rank() == 2 && f.rank() == 3 {
            prop_assert_eq!((&a * &f).rank(), 2);
        }
    }

    /// Lemma 3: for F narrow full-rank, X·F = S is always solvable and the
    /// rank of the solution can match rank(S) (here via construction).
    #[test]
    fn lemma3_narrow_always_solvable_rationally(s in small_mat(2, 2), f in small_mat(4, 2)) {
        if f.rank() == 2 {
            // Over ℚ a solution always exists (Lemma 3). Over ℤ it may need
            // divisibility; accept NotIntegral but never Incompatible.
            match solve_xf_eq_s(&s, &f) {
                Ok(fam) => prop_assert_eq!(&fam.particular * &f, s.clone()),
                Err(e) => prop_assert!(
                    e == rescomm_intlin::LinError::NotIntegral,
                    "narrow full-rank must be rationally solvable, got {e}"
                ),
            }
        }
    }

    /// Constructed-solvable systems are always solved exactly.
    #[test]
    fn solver_recovers_constructed_solutions(x in small_mat(2, 3), f in small_mat(3, 3)) {
        let s = &x * &f;
        let fam = solve_xf_eq_s(&s, &f).expect("constructed system must solve");
        prop_assert_eq!(&fam.particular * &f, s);
    }

    #[test]
    fn det_is_multiplicative(a in small_mat(3, 3), b in small_mat(3, 3)) {
        let ab = &a * &b;
        prop_assert_eq!(ab.det() as i128, a.det() as i128 * b.det() as i128);
    }

    #[test]
    fn rank_of_product_bounded(a in small_mat(3, 3), b in small_mat(3, 3)) {
        let ab = &a * &b;
        prop_assert!(ab.rank() <= a.rank().min(b.rank()));
    }

    /// Storage is invisible: every operation on a heap-forced copy must
    /// agree exactly with the inline-stored original.
    #[test]
    fn heap_and_inline_storage_agree(a in any_shape_mat(), b in any_shape_mat()) {
        let (mut ah, mut bh) = (a.clone(), b.clone());
        ah.force_heap();
        bh.force_heap();
        prop_assert!(!ah.is_inline());
        prop_assert_eq!(&a, &ah);
        prop_assert_eq!(a.rank(), ah.rank());
        prop_assert_eq!(a.transpose(), ah.transpose());
        prop_assert_eq!(a.max_abs(), ah.max_abs());
        if a.is_square() {
            prop_assert_eq!(a.det(), ah.det());
        }
        if a.cols() == b.rows() {
            prop_assert_eq!(&a * &b, &ah * &bh);
        }
        if a.rows() == b.rows() {
            prop_assert_eq!(a.hstack(&b), ah.hstack(&bh));
        }
        if a.shape() == b.shape() {
            prop_assert_eq!(&a + &b, &ah + &bh);
            prop_assert_eq!(&a - &b, &ah - &bh);
        }
    }

    /// Scratch-based variants produce the same results as the allocating ones.
    #[test]
    fn scratch_variants_agree(a in any_shape_mat(), b in any_shape_mat()) {
        let mut scratch = Vec::new();
        prop_assert_eq!(a.rank_with(&mut scratch), a.rank());
        if a.cols() == b.rows() {
            let mut out = IMat::zeros(0, 0);
            a.mul_into(&b, &mut out);
            prop_assert_eq!(out, &a * &b);
        }
    }

    #[test]
    fn gcd_divides(a in -100i64..100, b in -100i64..100) {
        let g = gcd(a, b);
        if g != 0 {
            prop_assert_eq!(a % g, 0);
            prop_assert_eq!(b % g, 0);
        } else {
            prop_assert_eq!((a, b), (0, 0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interning: two matrices of a sequence get one id exactly when they
    /// are equal (shape included; entries in {−1, 0, 1} so repeats are
    /// common), each id reads back its matrix, a heap-stored copy finds
    /// the inline one's id, and `mul` is the product.
    #[test]
    fn mat_table_ids_match_equality(
        shapes in proptest::collection::vec((0usize..=3, 0usize..=3), 2..=12),
        entries in proptest::collection::vec(-1i64..=1, 9),
    ) {
        let mats: Vec<IMat> = shapes
            .iter()
            .enumerate()
            .map(|(k, &(r, c))| IMat::from_fn(r, c, |i, j| entries[(k + i * c + j) % 9]))
            .collect();
        let mut table = MatTable::new();
        let ids: Vec<MatId> = mats.iter().map(|m| table.intern(m)).collect();
        for (i, a) in mats.iter().enumerate() {
            prop_assert_eq!(table.get(ids[i]), a);
            let mut heap = a.clone();
            heap.force_heap();
            prop_assert_eq!(table.intern(&heap), ids[i]);
            for (j, b) in mats.iter().enumerate() {
                prop_assert_eq!(ids[i] == ids[j], a == b);
                if a.cols() == b.rows() {
                    let p = table.mul(ids[i], ids[j]);
                    prop_assert_eq!(table.get(p), &(a * b));
                }
            }
        }
    }
}
