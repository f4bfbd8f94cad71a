//! The paper's example nests and classic kernels.
//!
//! # Reconstruction note
//!
//! The available text of the paper (HAL scan, OCR) lost the literal matrix
//! entries of the motivating example of §2. [`motivating_example`] is a
//! *reconstruction*: a fully concrete instance that satisfies every
//! structural property the prose asserts —
//!
//! * a non-perfect nest: `S1` of depth 2, `S2`/`S3` of depth 3, arrays
//!   `a` (2-D), `b`, `c` (3-D), eight affine accesses `F1..F8`, all DOALL;
//! * `F8` is rank-deficient and therefore excluded from the access graph
//!   (7 edges remain);
//! * a maximum branching with 5 edges exists in which both edges of maximum
//!   integer weight 3 (the square accesses `F5`, `F7`) are made local;
//! * the residual access `F6` (read of `a` in `S2`) has a one-dimensional
//!   kernel, so it is a *partial broadcast*; its direction `M_{S2}·v` is
//!   not axis-parallel until the component is rotated by a unimodular `V`;
//! * after the same rotation the rank-deficient `F8` communication is
//!   *also* an axis-parallel broadcast (the paper's footnoted "lucky
//!   coincidence");
//! * the residual access `F3` (second read of `a` in `S1`) has dataflow
//!   matrix `T = V·M_{S1}·(M_a·F3)⁻¹·V⁻¹ = [[1,1],[1,2]]`, which decomposes
//!   into exactly two elementary communications `L(1)·U(1)`.

use crate::builder::NestBuilder;
use crate::domain::Domain;
use crate::ir::{AccessId, ArrayId, LoopNest, StmtId};
use crate::schedule::Schedule;
use rescomm_intlin::IMat;

/// Handles into the [`motivating_example`] nest, so tests and the
/// end-to-end pipeline can refer to the paper's names.
#[derive(Debug, Clone, Copy)]
pub struct MotivatingIds {
    /// Array `a` (2-D).
    pub a: ArrayId,
    /// Array `b` (3-D).
    pub b: ArrayId,
    /// Array `c` (3-D).
    pub c: ArrayId,
    /// Statement `S1` (depth 2).
    pub s1: StmtId,
    /// Statement `S2` (depth 3).
    pub s2: StmtId,
    /// Statement `S3` (depth 3).
    pub s3: StmtId,
    /// `b[F1·I+c1]` written in `S1` (narrow 3×2).
    pub f1: AccessId,
    /// `a[F2·I+c2]` read in `S1` (square, = Id).
    pub f2: AccessId,
    /// `a[F3·I+c3]` read in `S1` (square unimodular) — the residual that
    /// gets *decomposed*.
    pub f3: AccessId,
    /// `c[F4·I+c4]` read in `S1` (narrow 3×2).
    pub f4: AccessId,
    /// `b[F5·I+c5]` written in `S2` (square, = Id).
    pub f5: AccessId,
    /// `a[F6·I+c6]` read in `S2` (flat 2×3, 1-D kernel) — the residual that
    /// becomes a *partial broadcast*.
    pub f6: AccessId,
    /// `c[F7·I+c7]` written in `S3` (square unimodular).
    pub f7: AccessId,
    /// `a[F8·I+c8]` read in `S3` (flat, rank 1 — excluded from the graph;
    /// the "lucky coincidence" broadcast).
    pub f8: AccessId,
}

/// The reconstructed motivating example of §2 (see module docs), with
/// `i, j ∈ [0, n)` and `k ∈ [0, n+m)`:
///
/// ```text
/// for i, j:                                     (DOALL)
///   S1: b[F1(i,j)+c1] = g1(a[F2(i,j)+c2], a[F3(i,j)+c3], c[F4(i,j)+c4])
///   for k:                                      (DOALL)
///     S2: b[F5(i,j,k)+c5] = g2(a[F6(i,j,k)+c6])
///     S3: c[F7(i,j,k)+c7] = g3(a[F8(i,j,k)+c8])
/// ```
pub fn motivating_example(n: i64, m: i64) -> (LoopNest, MotivatingIds) {
    let mut bld = NestBuilder::new("motivating-example");
    let a = bld.array("a", 2);
    let b = bld.array("b", 3);
    let c = bld.array("c", 3);
    let dom2 = Domain::rect(&[(0, n - 1), (0, n - 1)]);
    let dom3 = Domain::rect(&[(0, n - 1), (0, n - 1), (0, n + m - 1)]);
    let s1 = bld.statement("S1", 2, dom2);
    let s2 = bld.statement("S2", 3, dom3.clone());
    let s3 = bld.statement("S3", 3, dom3);

    let f1 = bld.write(
        s1,
        b,
        IMat::from_rows(&[&[1, 0], &[0, 1], &[0, 0]]),
        &[0, 0, 0],
    );
    let f2 = bld.read(s1, a, IMat::identity(2), &[0, 1]);
    let f3 = bld.read(s1, a, IMat::from_rows(&[&[3, 1], &[-1, 0]]), &[1, 0]);
    let f4 = bld.read(
        s1,
        c,
        IMat::from_rows(&[&[1, 0], &[0, 1], &[1, 1]]),
        &[0, 0, 0],
    );
    let f5 = bld.write(s2, b, IMat::identity(3), &[0, 0, 1]);
    let f6 = bld.read(s2, a, IMat::from_rows(&[&[1, 1, 0], &[0, 1, 1]]), &[1, 1]);
    let f7 = bld.write(
        s3,
        c,
        IMat::from_rows(&[&[1, 0, -1], &[0, 1, 2], &[0, 0, 1]]),
        &[1, 0, 0],
    );
    let f8 = bld.read(
        s3,
        a,
        IMat::from_rows(&[&[1, 1, 1], &[-1, -1, -1]]),
        &[1, 2],
    );

    let nest = bld.build().expect("motivating example must validate");
    (
        nest,
        MotivatingIds {
            a,
            b,
            c,
            s1,
            s2,
            s3,
            f1,
            f2,
            f3,
            f4,
            f5,
            f6,
            f7,
            f8,
        },
    )
}

/// Example 2 of the paper (broadcast shape): `S(I): … = a[Fa·I + ca]`
/// with `Fa` flat so several processors read the same element at the same
/// timestep.
pub fn example2_broadcast(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("example2-broadcast");
    let a = bld.array("a", 1);
    let r = bld.array("r", 2);
    let s = bld.statement("S", 2, Domain::cube(2, n));
    // r[i,j] = f(a[i]): a-element broadcast along j.
    bld.write(s, r, IMat::identity(2), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[1, 0]]), &[0]);
    bld.build().expect("example2 must validate")
}

/// Example 3 of the paper (gather shape): `S(I): a[Fa·I + ca] = …` with
/// several sources contributing to elements owned by one processor.
pub fn example3_gather(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("example3-gather");
    let a = bld.array("a", 1);
    let src = bld.array("src", 2);
    let s = bld.statement("S", 2, Domain::cube(2, n));
    bld.write(s, a, IMat::from_rows(&[&[1, 0]]), &[0]);
    bld.read(s, src, IMat::identity(2), &[0, 0]);
    bld.build().expect("example3 must validate")
}

/// Example 4 of the paper (reduction shape): `S(I): s = s ⊕ b[Fb·I + cb]`.
/// The scalar is modelled as a 1-D array accessed through a zero access
/// matrix row.
pub fn example4_reduction(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("example4-reduction");
    let sarr = bld.array("s", 1);
    let b = bld.array("b", 2);
    let s = bld.statement("S", 2, Domain::cube(2, n));
    bld.reduce(s, sarr, IMat::zeros(1, 2), &[0]);
    bld.read(s, b, IMat::identity(2), &[0, 0]);
    bld.build().expect("example4 must validate")
}

/// Handles into [`example5_platonoff`].
#[derive(Debug, Clone, Copy)]
pub struct Example5Ids {
    /// Array `a` (4-D).
    pub a: ArrayId,
    /// Array `b` (3-D).
    pub b: ArrayId,
    /// The single statement.
    pub s: StmtId,
    /// Write `a[t,i,j,k]`.
    pub fa: AccessId,
    /// Read `b[t,i,j]` — the broadcast candidate (`ker θ ∩ ker Fb = ⟨e₄⟩`).
    pub fb: AccessId,
}

/// Example 5 of §7.2 — the nest on which the paper contrasts its
/// locality-first heuristic with Platonoff's macro-first strategy:
///
/// ```text
/// for t = 1..n (sequential):
///   for i, j, k = 1..n (parallel):
///     S: a[t,i,j,k] = b[t,i,j]
/// ```
pub fn example5_platonoff(n: i64) -> (LoopNest, Example5Ids) {
    let mut bld = NestBuilder::new("example5-platonoff");
    let a = bld.array("a", 4);
    let b = bld.array("b", 3);
    let s = bld.statement("S", 4, Domain::cube(4, n));
    bld.schedule(s, Schedule::sequential_outer(4, 1));
    let fa = bld.write(s, a, IMat::identity(4), &[0, 0, 0, 0]);
    let fb = bld.read(
        s,
        b,
        IMat::from_rows(&[&[1, 0, 0, 0], &[0, 1, 0, 0], &[0, 0, 1, 0]]),
        &[0, 0, 0],
    );
    let nest = bld.build().expect("example5 must validate");
    (nest, Example5Ids { a, b, s, fa, fb })
}

/// Matrix–matrix product `C[i,j] += A[i,k]·B[k,j]` — the paper's §1 poster
/// child for "no communication-free 2-D mapping exists".
pub fn matmul(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("matmul");
    let a = bld.array("A", 2);
    let b = bld.array("B", 2);
    let c = bld.array("C", 2);
    let s = bld.statement("S", 3, Domain::cube(3, n));
    // Iteration vector (i, j, k); the k loop carries the reduction.
    bld.schedule(s, Schedule::linear(&[0, 0, 1]));
    bld.reduce(s, c, IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[0, 0, 1]]), &[0, 0]);
    bld.read(s, b, IMat::from_rows(&[&[0, 0, 1], &[0, 1, 0]]), &[0, 0]);
    bld.build().expect("matmul must validate")
}

/// Gaussian-elimination update `A[r,c] -= A[r,k]·A[k,c] / A[k,k]` with
/// `r = k+1+i`, `c = k+1+j` (the triangular bounds of the classic kernel
/// encoded as shifted affine accesses over a box domain); the outer `k`
/// loop is sequential, the updates at a fixed `k` are parallel.
pub fn gauss_elim(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("gauss-elim");
    let a = bld.array("A", 2);
    // Iteration vector (k, i, j); updated entry is A[k+1+i, k+1+j].
    let s = bld.statement("S", 3, Domain::cube(3, n));
    bld.schedule(s, Schedule::sequential_outer(3, 1));
    bld.write(s, a, IMat::from_rows(&[&[1, 1, 0], &[1, 0, 1]]), &[1, 1]);
    bld.read(s, a, IMat::from_rows(&[&[1, 1, 0], &[1, 0, 1]]), &[1, 1]);
    bld.read(s, a, IMat::from_rows(&[&[1, 1, 0], &[1, 0, 0]]), &[1, 0]);
    bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[1, 0, 1]]), &[0, 1]);
    bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[1, 0, 0]]), &[0, 0]);
    bld.build().expect("gauss must validate")
}

/// Jacobi 2-D five-point stencil: `B[i,j] = f(A[i,j], A[i±1,j], A[i,j±1])`
/// — all five reads share the identity access matrix (different offsets),
/// so step 1 makes them all *translations*: the textbook all-local nest.
pub fn jacobi2d(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("jacobi2d");
    let a = bld.array("A", 2);
    let b = bld.array("B", 2);
    let s = bld.statement("S", 2, Domain::rect(&[(1, n - 2), (1, n - 2)]));
    bld.write(s, b, IMat::identity(2), &[0, 0]);
    for off in [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]] {
        bld.read(s, a, IMat::identity(2), &off);
    }
    bld.build().expect("jacobi must validate")
}

/// Out-of-place transpose `B[j,i] = A[i,j]`: a single access pair whose
/// matrices multiply to the swap — local for one array, a permutation for
/// the other.
pub fn transpose(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("transpose");
    let a = bld.array("A", 2);
    let b = bld.array("B", 2);
    let s = bld.statement("S", 2, Domain::cube(2, n));
    bld.read(s, a, IMat::identity(2), &[0, 0]);
    bld.write(s, b, IMat::from_rows(&[&[0, 1], &[1, 0]]), &[0, 0]);
    bld.build().expect("transpose must validate")
}

/// Symmetric rank-k update `C[i,j] += A[i,l]·A[j,l]`: the *same* array
/// read through two different access matrices — only one can be aligned,
/// and the broadcast structure of the other is the interesting residue.
pub fn syrk(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("syrk");
    let a = bld.array("A", 2);
    let c = bld.array("C", 2);
    // Iteration vector (i, j, l); the l loop carries the reduction.
    let s = bld.statement("S", 3, Domain::cube(3, n));
    bld.schedule(s, Schedule::linear(&[0, 0, 1]));
    bld.reduce(s, c, IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[0, 0, 1]]), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1]]), &[0, 0]);
    bld.build().expect("syrk must validate")
}

/// 1-D three-point stencil over a time loop:
/// `X[t+1, i] = f(X[t, i−1], X[t, i], X[t, i+1])`, `t` sequential — every
/// residual is a translation and vectorization is impossible (the data
/// moves every step).
pub fn stencil1d(n: i64, steps: i64) -> LoopNest {
    let mut bld = NestBuilder::new("stencil1d");
    let x = bld.array("X", 2); // indexed [t, i]
    let s = bld.statement("S", 2, Domain::rect(&[(0, steps - 1), (1, n - 2)]));
    bld.schedule(s, Schedule::sequential_outer(2, 1));
    bld.write(s, x, IMat::identity(2), &[1, 0]);
    for di in [-1i64, 0, 1] {
        bld.read(s, x, IMat::identity(2), &[0, di]);
    }
    bld.build().expect("stencil must validate")
}

/// Gaussian elimination with *true triangular bounds* (affine guards:
/// `i > k`, `j > k` over the bounding box) — the honest domain that the
/// shifted-access variant [`gauss_elim`] approximates.
pub fn gauss_triangular(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("gauss-triangular");
    let a = bld.array("A", 2);
    // Iteration vector (k, i, j) with k < i and k < j.
    let dom = Domain::cube(3, n)
        .with_guard(&[1, -1, 0], -1) // k − i ≤ −1
        .with_guard(&[1, 0, -1], -1); // k − j ≤ −1
    let s = bld.statement("S", 3, dom);
    bld.schedule(s, Schedule::sequential_outer(3, 1));
    bld.write(s, a, IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1]]), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1]]), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0]]), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[0, 0, 1]]), &[0, 0]);
    bld.read(s, a, IMat::from_rows(&[&[1, 0, 0], &[1, 0, 0]]), &[0, 0]);
    bld.build().expect("gauss-triangular must validate")
}

/// ADI-like sweep: two statements alternating row and column updates —
/// a nest whose two statements want *conflicting* alignments, exercising
/// the branching tie-break.
pub fn adi_sweep(n: i64) -> LoopNest {
    let mut bld = NestBuilder::new("adi-sweep");
    let x = bld.array("X", 2);
    let u = bld.array("U", 2);
    let s1 = bld.statement("Srow", 2, Domain::cube(2, n));
    let s2 = bld.statement("Scol", 2, Domain::cube(2, n));
    bld.write(s1, x, IMat::identity(2), &[0, 0]);
    bld.read(s1, u, IMat::identity(2), &[0, -1]);
    bld.write(s2, x, IMat::from_rows(&[&[0, 1], &[1, 0]]), &[0, 0]);
    bld.read(s2, u, IMat::from_rows(&[&[0, 1], &[1, 0]]), &[-1, 0]);
    bld.build().expect("adi must validate")
}

/// Deterministic chained-stencil nest with `n_stmts` depth-2 statements:
/// statement `S_i` writes its own array `a_i` (identity), reads the
/// previous stage `a_{i-1}` through a unimodular transform, and reads a
/// shared coefficient array `g` through a second one — the repeating
/// producer/consumer chains of time-stepped stencil codes. Both
/// transforms cycle through a 3-element family by statement index, so the
/// analysis sees long chains of *repeated* `(F, M_S, M_x)` combinations,
/// exactly the shape real unrolled pipelines hand the compiler. The
/// family is signed permutations on purpose: relative alignment matrices
/// along an `n`-statement chain are *products* of the access matrices,
/// and a finite matrix group keeps those entries bounded at any depth
/// (skews like `U(1)·L(1)·…` blow up Fibonacci-fast instead).
pub fn chained_stencil_nest(n_stmts: usize, size: i64) -> LoopNest {
    assert!(n_stmts >= 1);
    let fam = [
        IMat::identity(2),
        IMat::from_rows(&[&[0, 1], &[1, 0]]),
        IMat::from_rows(&[&[0, -1], &[1, 0]]),
    ];
    let mut b = NestBuilder::new("chained-stencil");
    let g = b.array("g", 2);
    let stages: Vec<_> = (0..=n_stmts)
        .map(|i| b.array(&format!("a{i}"), 2))
        .collect();
    for i in 1..=n_stmts {
        let s = b.statement(&format!("S{i}"), 2, Domain::cube(2, size));
        b.write(s, stages[i], IMat::identity(2), &[0, 0]);
        b.read(s, stages[i - 1], fam[i % 3].clone(), &[0, 0]);
        b.read(s, g, fam[(i + 1) % 3].clone(), &[(i % 2) as i64, 0]);
    }
    b.build().expect("chained stencil nest valid")
}

/// Deterministic pipeline nest with `n_stmts` depth-3 statements mixing
/// both edge orientations: `S_i` writes its stage array `b_i` (3-D,
/// square unimodular), reads `b_{i-1}` through a cycling 3×3 permutation
/// (bounded chain products, see [`chained_stencil_nest`]), and reads a
/// shared 2-D table `c` through a cycling *flat* 2×3 access (array →
/// statement edges). Exercises the rank/orientation logic the chained
/// stencil family does not.
pub fn pipeline_nest(n_stmts: usize, size: i64) -> LoopNest {
    assert!(n_stmts >= 1);
    let perms = [
        IMat::identity(3),
        IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1], &[1, 0, 0]]),
        IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
    ];
    let flats = [
        IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]),
        IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1]]),
        IMat::from_rows(&[&[1, 1, 0], &[0, 1, 1]]),
    ];
    let mut b = NestBuilder::new("pipeline");
    let c = b.array("c", 2);
    let stages: Vec<_> = (0..=n_stmts)
        .map(|i| b.array(&format!("b{i}"), 3))
        .collect();
    for i in 1..=n_stmts {
        let s = b.statement(&format!("P{i}"), 3, Domain::cube(3, size));
        b.write(s, stages[i], IMat::identity(3), &[0, 0, 0]);
        b.read(s, stages[i - 1], perms[i % 3].clone(), &[0, 0, 0]);
        b.read(s, c, flats[(i + 1) % 3].clone(), &[0, 0]);
    }
    b.build().expect("pipeline nest valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::AccessKind;
    use rescomm_intlin::kernel_basis;

    #[test]
    fn motivating_example_shapes() {
        let (nest, ids) = motivating_example(8, 4);
        assert_eq!(nest.arrays.len(), 3);
        assert_eq!(nest.statements.len(), 3);
        assert_eq!(nest.accesses.len(), 8);
        assert_eq!(nest.array(ids.a).dim, 2);
        assert_eq!(nest.array(ids.b).dim, 3);
        assert_eq!(nest.statement(ids.s1).depth, 2);
        assert_eq!(nest.statement(ids.s2).depth, 3);
    }

    #[test]
    fn motivating_example_rank_structure() {
        let (nest, ids) = motivating_example(8, 4);
        // F8 is the only rank-deficient access.
        for acc in &nest.accesses {
            let full = acc.f.rank() == acc.f.rows().min(acc.f.cols());
            if acc.id == ids.f8 {
                assert!(!full, "F8 must be rank-deficient");
                assert_eq!(acc.f.rank(), 1);
            } else {
                assert!(full, "access {:?} must be full rank", acc.id);
            }
        }
        // F3 is unimodular (needed for an integral dataflow matrix).
        let f3 = &nest.access(ids.f3).f;
        assert_eq!(f3.det().abs(), 1);
        // F6 has a 1-dimensional kernel — the broadcast direction.
        let k6 = kernel_basis(&nest.access(ids.f6).f).unwrap();
        assert_eq!(k6.cols(), 1);
    }

    #[test]
    fn motivating_example_is_doall() {
        let (nest, _) = motivating_example(4, 2);
        for st in &nest.statements {
            assert!(st.schedule.is_parallel());
        }
    }

    #[test]
    fn example5_kernel_condition() {
        // ker θ ∩ ker Fb = ⟨e₄⟩ — the broadcast the paper discusses.
        let (nest, ids) = example5_platonoff(4);
        let theta = nest.statement(ids.s).schedule.theta().clone();
        let fb = nest.access(ids.fb).f.clone();
        let inter = rescomm_intlin::kernel_intersection(&[&theta, &fb]).unwrap();
        assert_eq!(inter.cols(), 1);
        let v = inter.col(0);
        assert_eq!(&v[0..3], &[0, 0, 0]);
        assert_eq!(v[3].abs(), 1);
    }

    #[test]
    fn matmul_structure() {
        let nest = matmul(4);
        assert_eq!(nest.accesses.len(), 3);
        assert!(nest.accesses.iter().any(|a| a.kind == AccessKind::Reduce));
        // All access matrices are flat 2×3 of rank 2.
        for a in &nest.accesses {
            assert_eq!(a.f.shape(), (2, 3));
            assert_eq!(a.f.rank(), 2);
        }
    }

    #[test]
    fn gauss_triangular_schedule_valid() {
        // With the genuine triangular bounds the *unshifted* accesses are
        // safe: at fixed k nobody writes row k or column k.
        let nest = gauss_triangular(5);
        let deps = crate::deps::find_dependences(&nest).unwrap();
        assert!(!deps.is_empty(), "flow dependences across k must exist");
        let violations = crate::deps::schedules_valid(&nest).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn gauss_has_rank_deficient_pivot_access() {
        let nest = gauss_elim(4);
        let ranks: Vec<usize> = nest.accesses.iter().map(|a| a.f.rank()).collect();
        assert!(ranks.contains(&1), "A[k,k] access must have rank 1");
        assert_eq!(nest.accesses.len(), 5);
    }

    #[test]
    fn example_nests_validate() {
        for nest in [
            motivating_example(4, 2).0,
            example2_broadcast(4),
            example3_gather(4),
            example4_reduction(4),
            example5_platonoff(3).0,
            matmul(3),
            gauss_elim(3),
            adi_sweep(4),
            jacobi2d(6),
            transpose(4),
            syrk(3),
            stencil1d(8, 4),
        ] {
            nest.validate().expect("example nest must validate");
        }
    }

    #[test]
    fn jacobi_reads_are_uniform() {
        let nest = jacobi2d(8);
        assert_eq!(nest.accesses.len(), 6);
        // All accesses use the identity matrix: uniform dependences.
        for a in &nest.accesses {
            assert!(a.f.is_identity());
        }
    }

    #[test]
    fn stencil_schedule_is_valid() {
        let nest = stencil1d(10, 5);
        let violations = crate::deps::schedules_valid(&nest).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        // And it genuinely has dependences across t.
        assert!(!crate::deps::find_dependences(&nest).unwrap().is_empty());
    }

    #[test]
    fn syrk_two_reads_of_same_array_differ() {
        let nest = syrk(4);
        let fa: Vec<_> = nest
            .accesses
            .iter()
            .filter(|a| nest.array(a.array).name == "A")
            .collect();
        assert_eq!(fa.len(), 2);
        assert_ne!(fa[0].f, fa[1].f);
    }

    #[test]
    fn transpose_composition_is_swap() {
        let nest = transpose(4);
        let fa = &nest.accesses[0].f;
        let fb = &nest.accesses[1].f;
        let comp = &fb.transpose() * fa; // the alignment cycle product
        assert!(!comp.is_identity());
    }
}
