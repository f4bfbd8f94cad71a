//! Closed-form physical message generation for affine dataflow patterns.
//!
//! [`crate::physical_messages`] enumerates every virtual processor and
//! folds it through the distribution — `O(V log V)` with a tree map, which
//! dominates the benchmark harness once the virtual grid reaches
//! production sizes (1024² and up). But the patterns the paper studies are
//! affine (`v → T·v + s mod vshape`), and all four distributions are
//! unions of **arithmetic-progression segments** `{i ≡ r (mod q),
//! i ∈ [lo, hi)}` mapped to one processor each. That structure admits
//! analytic aggregation for *every* integer `T`, not just the paper's
//! `U(k)`/`L(k)` families:
//!
//! Fix a source segment pair `(A, C)` (rows × columns) and a destination
//! segment pair `(B, D)`. Parameterize the sources as `i = r_A + q_A·u`,
//! `j = r_C + q_C·w`; the destination row is `f₁ mod v_r` with
//! `f₁ = t₀₀·i + t₀₁·j + s₀`, so for each wrap count
//! `k_r = ⌊f₁ / v_r⌋` (a small range read off the segment bounding box)
//! membership of the destination in `B` becomes one *linear congruence*
//! `t₀₀q_A·u + t₀₁q_C·w ≡ r_B + k_r·v_r − c (mod q_B)` plus one *linear
//! strip* `lo_B + k_r·v_r ≤ f₁ < hi_B + k_r·v_r`; same for columns. The
//! solution set of the two congruences is an affine sublattice of `ℤ²`,
//! brought to Hermite form `u = p_u + α·x`, `w = p_w + β·x + γ·y`; the
//! box and strip constraints become rational linear bounds on `y` as a
//! function of `x`, and the point count is a sum of `⌈·⌉`-differences,
//! evaluated exactly with the Euclid-style `floor_sum` recursion after
//! splitting the `x`-range at the (few) bound crossings. Total cost is
//! `O(S_r²·S_c²·K·polylog)` where `S` counts segments (a function of the
//! *physical* grid and the grouping factors) and `K` the wrap pairs — flat
//! in the virtual-grid area.
//!
//! A dense fallback (`O(V)` flat-table fold, no tree map) is kept both as
//! a differential oracle and for the rare shapes where it is genuinely
//! cheaper (tiny grids with non-unimodular `T`); [`FoldPath`] selects the
//! path, and every fold records which path fired in
//! [`FoldedPattern::closed`].
//!
//! **Period tile.** Under CYCLIC and CYCLIC(b) the owner of `i` is a
//! function of `i mod period` alone (`P`, resp. `b·P`), independent of the
//! grid side. When `L = lcm(period_r, period_c)` divides both sides, `x mod
//! v ≡ x (mod L)` for every integer `x`, so source and destination owners
//! of `v` are those of `v mod L`: the whole-grid count table is the `L×L`
//! tile's table (the dense fold with the wrap taken modulo `L`) times the
//! tile count `(v_r/L)·(v_c/L)`, for every integer `T` and shift. The
//! [`FoldPath::Auto`] policy takes that tile whenever it is smaller than
//! the grid and cheaper than the closed estimate; the forced paths always
//! fold the whole grid, so each stays an independent oracle for it.
//!
//! Both paths return *exactly* the oracle's message set (same aggregation,
//! same sort order) plus the locality statistics of the same fold; the
//! property tests in `tests/proptests.rs` pin the equivalence against
//! [`crate::physical_messages`] over random matrices, random unimodular
//! factor chains, grids and all four distributions.

use crate::msgs::{FoldedPattern, Msg};
use crate::{Dist1D, Dist2D};
use rescomm_intlin::IMat;

/// One arithmetic-progression piece of a distribution's ownership map:
/// all `i ≡ r (mod q)` with `lo ≤ i < hi` belong to processor `proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seg {
    q: usize,
    r: usize,
    lo: usize,
    hi: usize,
    proc: usize,
}

/// Decompose a 1-D distribution of `v` virtuals over `p` processors into
/// disjoint segments covering `[0, v)`.
pub(crate) fn segments(d: Dist1D, v: usize, p: usize) -> Vec<Seg> {
    let mut segs = Vec::new();
    match d {
        Dist1D::Block => {
            let bs = v.div_ceil(p);
            for a in 0..p {
                let lo = (a * bs).min(v);
                let hi = ((a + 1) * bs).min(v);
                if lo < hi {
                    segs.push(Seg {
                        q: 1,
                        r: 0,
                        lo,
                        hi,
                        proc: a,
                    });
                }
            }
        }
        Dist1D::Cyclic => {
            for a in 0..p.min(v) {
                segs.push(Seg {
                    q: p,
                    r: a,
                    lo: 0,
                    hi: v,
                    proc: a,
                });
            }
        }
        Dist1D::CyclicBlock(b) => {
            assert!(b > 0, "CYCLIC(0) is meaningless");
            let q = b * p;
            for a in 0..p {
                for t in 0..b {
                    let r = a * b + t;
                    if r < v {
                        segs.push(Seg {
                            q,
                            r,
                            lo: 0,
                            hi: v,
                            proc: a,
                        });
                    }
                }
            }
        }
        Dist1D::Grouped(k) => {
            assert!(k > 0, "grouped partition needs k ≥ 1");
            let bs = v.div_ceil(p);
            for c in 0..k.min(v) {
                // Class c holds i = c, c+k, …; its ranks are contiguous.
                let n_c = (v - c).div_ceil(k);
                let base = c * (v / k) + c.min(v % k);
                let mut m0 = 0usize;
                while m0 < n_c {
                    let proc = (base + m0) / bs;
                    let run_end = ((proc + 1) * bs).saturating_sub(base).min(n_c);
                    segs.push(Seg {
                        q: k,
                        r: c,
                        lo: c + m0 * k,
                        hi: c + (run_end - 1) * k + 1,
                        proc,
                    });
                    m0 = run_end;
                }
            }
        }
    }
    segs
}

fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Floor division for `b > 0` (Rust's `div_euclid` floors exactly then).
fn floor_div(a: i128, b: i128) -> i128 {
    a.div_euclid(b)
}

/// Ceiling division for `b > 0`.
fn ceil_div(a: i128, b: i128) -> i128 {
    a.div_euclid(b) + i128::from(a.rem_euclid(b) != 0)
}

/// `Σ_{x=0}^{n−1} ⌊(a·x + b) / m⌋` for `m > 0` and any signs of `a`, `b`,
/// in `O(log max(a, m))` — the Euclid-style recursion (each round swaps
/// the roles of slope and modulus, like the continued-fraction expansion
/// of `a/m`).
fn floor_sum(n: i128, m: i128, a: i128, b: i128) -> i128 {
    debug_assert!(m > 0 && n >= 0);
    let (mut n, mut m, mut a, mut b) = (n, m, a, b);
    let mut ans: i128 = 0;
    if a < 0 {
        let a2 = a.rem_euclid(m);
        ans -= n * (n - 1) / 2 * ((a2 - a) / m);
        a = a2;
    }
    if b < 0 {
        let b2 = b.rem_euclid(m);
        ans -= n * ((b2 - b) / m);
        b = b2;
    }
    loop {
        if a >= m {
            ans += n * (n - 1) / 2 * (a / m);
            a %= m;
        }
        if b >= m {
            ans += n * (b / m);
            b %= m;
        }
        let y_max = a * n + b;
        if y_max < m {
            return ans;
        }
        n = y_max / m;
        b = y_max % m;
        std::mem::swap(&mut m, &mut a);
    }
}

/// The solution set of linear congruences in two unknowns `(u, w)`, kept
/// as an affine lattice `(u, w) = p + x·v1 + y·v2` with `x, y ∈ ℤ`.
#[derive(Debug, Clone, Copy)]
struct Coset {
    p: (i128, i128),
    v1: (i128, i128),
    v2: (i128, i128),
}

impl Coset {
    /// All of `ℤ²`.
    fn full() -> Self {
        Coset {
            p: (0, 0),
            v1: (1, 0),
            v2: (0, 1),
        }
    }

    /// Intersect with `a·u + b·w ≡ e (mod m)`; `None` when empty.
    ///
    /// In the `(x, y)` coordinates of the current basis the constraint
    /// reads `A·x + B·y ≡ E (mod m)`; with `d = gcd(A, B)` its solutions
    /// are one residue class of `x·(s, t)` along the Bézout direction
    /// (step `m / gcd(d, m)`) plus the full kernel line `(B/d, −A/d)`.
    fn impose(self, a: i128, b: i128, e: i128, m: i128) -> Option<Coset> {
        debug_assert!(m > 0);
        if m == 1 {
            return Some(self);
        }
        let fa = (a * self.v1.0 + b * self.v1.1).rem_euclid(m);
        let fb = (a * self.v2.0 + b * self.v2.1).rem_euclid(m);
        let fe = (e - a * self.p.0 - b * self.p.1).rem_euclid(m);
        if fa == 0 && fb == 0 {
            return (fe == 0).then_some(self);
        }
        let (d, s, t) = egcd(fa, fb);
        let (g, _, _) = egcd(d, m);
        if fe % g != 0 {
            return None;
        }
        let mg = m / g;
        let (_, inv, _) = egcd((d / g) % mg, mg);
        let x0 = ((fe / g) % mg * inv.rem_euclid(mg)).rem_euclid(mg);
        let dir = (s * self.v1.0 + t * self.v2.0, s * self.v1.1 + t * self.v2.1);
        let ker = (
            fb / d * self.v1.0 - fa / d * self.v2.0,
            fb / d * self.v1.1 - fa / d * self.v2.1,
        );
        Some(Coset {
            p: (self.p.0 + x0 * dir.0, self.p.1 + x0 * dir.1),
            v1: (mg * dir.0, mg * dir.1),
            v2: ker,
        })
    }

    /// Hermite form of the basis: `u = p_u + α·x`, `w = p_w + β·x + γ·y`
    /// with `α, γ > 0` and `0 ≤ β < γ` (a unimodular change of `(x, y)`,
    /// so it enumerates exactly the same points).
    fn hnf(&self) -> (i128, i128, i128, i128, i128) {
        let (au, bu) = (self.v1.0, self.v2.0);
        let (mut g, mut s, mut t) = egcd(au, bu);
        if g < 0 {
            (g, s, t) = (-g, -s, -t);
        }
        debug_assert!(g > 0, "congruence lattice lost full rank");
        let beta = s * self.v1.1 + t * self.v2.1;
        let mut gamma = (au / g) * self.v2.1 - (bu / g) * self.v1.1;
        if gamma < 0 {
            gamma = -gamma;
        }
        debug_assert!(gamma > 0, "congruence lattice lost full rank");
        (self.p.0, self.p.1, g, beta.rem_euclid(gamma), gamma)
    }
}

/// A bound on `y` of the form `⌈(m·x + n) / d⌉` with `d > 0` — either an
/// inclusive lower bound or an exclusive upper bound.
#[derive(Debug, Clone, Copy)]
struct Arm {
    m: i128,
    n: i128,
    d: i128,
}

impl Arm {
    /// The underlying rational `(m·x + n)/d` at `x`, compared exactly.
    fn le_at(&self, other: &Arm, x: i128) -> bool {
        (self.m * x + self.n) * other.d <= (other.m * x + other.n) * self.d
    }

    /// `Σ_{x=s}^{e−1} ⌈(m·x + n)/d⌉` via `⌈p/q⌉ = ⌊(p−1)/q⌋ + 1`.
    fn ceil_sum(&self, s: i128, e: i128) -> i128 {
        let cnt = e - s;
        floor_sum(cnt, self.d, self.m, self.m * s + self.n - 1) + cnt
    }
}

/// Count the points of the affine lattice `u = p_u + α·x`,
/// `w = p_w + β·x + γ·y` inside the box `[u_lo, u_hi) × [w_lo, w_hi)`
/// that also satisfy every strip `l ≤ c_u·u + c_w·w < h`.
///
/// Each constraint becomes `l ≤ C + D·x + E·y < h`; constraints with
/// `E ≠ 0` turn into rational bound arms on `y`, constraints with `E = 0`
/// clip the `x`-range. The `x`-range is split at every pairwise crossing
/// of the arms, so within a piece the active max-lower / min-upper arms
/// (and the sign of their gap) are fixed and the piece sums in `O(log)`.
fn count_coset_box(
    (pu, pw, alpha, beta, gamma): (i128, i128, i128, i128, i128),
    (ulo, uhi): (i128, i128),
    (wlo, whi): (i128, i128),
    strips: &[(i128, i128, i128, i128)],
) -> i128 {
    let mut xlo = ceil_div(ulo - pu, alpha);
    let mut xhi = ceil_div(uhi - pu, alpha);
    let mut lowers: Vec<Arm> = Vec::with_capacity(3);
    let mut uppers: Vec<Arm> = Vec::with_capacity(3);
    // The w-box is the strip `w_lo ≤ 0·u + 1·w < w_hi`.
    let all = [&[(0, 1, wlo, whi)], strips].concat();
    for &(cu, cw, l, h) in &all {
        let c = cu * pu + cw * pw;
        let dcoef = cu * alpha + cw * beta;
        let e = cw * gamma;
        if e > 0 {
            lowers.push(Arm {
                m: -dcoef,
                n: l - c,
                d: e,
            });
            uppers.push(Arm {
                m: -dcoef,
                n: h - c,
                d: e,
            });
        } else if e < 0 {
            let d = -e;
            lowers.push(Arm {
                m: dcoef,
                n: c - h + 1,
                d,
            });
            uppers.push(Arm {
                m: dcoef,
                n: c - l + 1,
                d,
            });
        } else if dcoef == 0 {
            if !(l <= c && c < h) {
                return 0;
            }
        } else if dcoef > 0 {
            xlo = xlo.max(ceil_div(l - c, dcoef));
            xhi = xhi.min(ceil_div(h - c, dcoef));
        } else {
            xlo = xlo.max(floor_div(c - h, -dcoef) + 1);
            xhi = xhi.min(floor_div(c - l, -dcoef) + 1);
        }
    }
    if xhi <= xlo {
        return 0;
    }
    // Split at every pairwise rational crossing: between breakpoints the
    // pointwise max of the lower arms and min of the upper arms keep the
    // same witness, and ⌈max·⌉ = max⌈·⌉ (ceil is monotone), so each piece
    // reduces to one pair of floor_sum calls.
    let arms: Vec<Arm> = lowers.iter().chain(uppers.iter()).copied().collect();
    let mut bps: Vec<i128> = vec![xlo];
    for (i, a) in arms.iter().enumerate() {
        for b in arms.iter().skip(i + 1) {
            let mut coef = a.m * b.d - b.m * a.d;
            if coef == 0 {
                continue;
            }
            let mut rhs = b.n * a.d - a.n * b.d;
            if coef < 0 {
                (coef, rhs) = (-coef, -rhs);
            }
            let bp = floor_div(rhs, coef) + 1;
            if bp > xlo && bp < xhi {
                bps.push(bp);
            }
        }
    }
    bps.sort_unstable();
    bps.dedup();
    let mut total: i128 = 0;
    for (idx, &s) in bps.iter().enumerate() {
        let e = bps.get(idx + 1).copied().unwrap_or(xhi);
        let low = lowers
            .iter()
            .copied()
            .reduce(|best, c| if best.le_at(&c, s) { c } else { best })
            .expect("w-box always contributes a lower arm");
        let up = uppers
            .iter()
            .copied()
            .reduce(|best, c| if c.le_at(&best, s) { c } else { best })
            .expect("w-box always contributes an upper arm");
        // Sign of (upper − lower) is constant inside the piece: if the
        // upper rational sits below the lower one, every x counts zero.
        if low.le_at(&up, s) {
            total += up.ceil_sum(s, e) - low.ceil_sum(s, e);
        }
    }
    total
}

/// Range of `coef·x` over `x ∈ [lo, hi]`.
fn axis_range(coef: i128, lo: i128, hi: i128) -> (i128, i128) {
    if coef >= 0 {
        (coef * lo, coef * hi)
    } else {
        (coef * hi, coef * lo)
    }
}

/// Closed-form fold of `v → T·v + s mod vshape`: the flat `(P²)²` count
/// table, produced without enumerating the virtual grid. Works for every
/// integer `T` (unimodular or not, even singular).
fn fold_closed(
    t: &IMat,
    shift: (i64, i64),
    dist: Dist2D,
    (vr, vc): (usize, usize),
    (pr, pc): (usize, usize),
) -> Vec<u64> {
    let np = pr * pc;
    let mut counts = vec![0u64; np * np];
    let segs_r = segments(dist.rows, vr, pr);
    let segs_c = segments(dist.cols, vc, pc);
    let (t00, t01) = (t[(0, 0)] as i128, t[(0, 1)] as i128);
    let (t10, t11) = (t[(1, 0)] as i128, t[(1, 1)] as i128);
    let (s0, s1) = (shift.0 as i128, shift.1 as i128);
    let (vri, vci) = (vr as i128, vc as i128);
    for a in &segs_r {
        let (qa, ra) = (a.q as i128, a.r as i128);
        let ulo = ceil_div(a.lo as i128 - ra, qa);
        let uhi = floor_div(a.hi as i128 - 1 - ra, qa) + 1;
        if uhi <= ulo {
            continue;
        }
        let (imin, imax) = (ra + qa * ulo, ra + qa * (uhi - 1));
        for c in &segs_c {
            let (qc, rc) = (c.q as i128, c.r as i128);
            let wlo = ceil_div(c.lo as i128 - rc, qc);
            let whi = floor_div(c.hi as i128 - 1 - rc, qc) + 1;
            if whi <= wlo {
                continue;
            }
            let (jmin, jmax) = (rc + qc * wlo, rc + qc * (whi - 1));
            // Bounding box of f₁ = t₀₀·i + t₀₁·j + s₀ (destination row
            // before wrap) over this source box, and same for f₂.
            let (r1, r2) = (axis_range(t00, imin, imax), axis_range(t01, jmin, jmax));
            let f1 = (r1.0 + r2.0 + s0, r1.1 + r2.1 + s0);
            let (r3, r4) = (axis_range(t10, imin, imax), axis_range(t11, jmin, jmax));
            let f2 = (r3.0 + r4.0 + s1, r3.1 + r4.1 + s1);
            // Constants of the linear forms in (u, w) coordinates.
            let c1 = t00 * ra + t01 * rc + s0;
            let c2 = t10 * ra + t11 * rc + s1;
            let src = (a.proc * pc + c.proc) * np;
            for kr in floor_div(f1.0, vri)..=floor_div(f1.1, vri) {
                for b in &segs_r {
                    let (blo, bhi) = (b.lo as i128 + kr * vri, b.hi as i128 + kr * vri);
                    if bhi <= f1.0 || blo > f1.1 {
                        continue;
                    }
                    let row = Coset::full().impose(
                        t00 * qa,
                        t01 * qc,
                        b.r as i128 + kr * vri - c1,
                        b.q as i128,
                    );
                    let Some(row) = row else { continue };
                    for kc in floor_div(f2.0, vci)..=floor_div(f2.1, vci) {
                        for d in &segs_c {
                            let (dlo, dhi) = (d.lo as i128 + kc * vci, d.hi as i128 + kc * vci);
                            if dhi <= f2.0 || dlo > f2.1 {
                                continue;
                            }
                            let both = row.impose(
                                t10 * qa,
                                t11 * qc,
                                d.r as i128 + kc * vci - c2,
                                d.q as i128,
                            );
                            let Some(both) = both else { continue };
                            let strips = [
                                (t00 * qa, t01 * qc, blo - c1, bhi - c1),
                                (t10 * qa, t11 * qc, dlo - c2, dhi - c2),
                            ];
                            let n = count_coset_box(both.hnf(), (ulo, uhi), (wlo, whi), &strips);
                            debug_assert!(n >= 0);
                            if n > 0 {
                                counts[src + b.proc * pc + d.proc] += n as u64;
                            }
                        }
                    }
                }
            }
        }
    }
    counts
}

/// Dense fallback for arbitrary `T` and shift: still `O(V)`, but with
/// both axis images and both ownership maps precomputed into flat tables,
/// and the aggregation done in a flat count array — no tree map, no
/// per-element matrix multiply. Kept as a differential oracle for the
/// closed path, for tiny grids where table setup beats the algebra, and
/// to count one period tile (`vshape = (L, L)`).
fn fold_dense(
    t: &IMat,
    shift: (i64, i64),
    dist: Dist2D,
    (vr, vc): (usize, usize),
    (pr, pc): (usize, usize),
) -> Vec<u64> {
    let np = pr * pc;
    let (t00, t01, t10, t11) = (t[(0, 0)], t[(0, 1)], t[(1, 0)], t[(1, 1)]);
    let (vri, vci) = (vr as i64, vc as i64);
    // `a·i + s mod v` in `i128`, exact for every `a`, `s` and grid side.
    let wrap = |a: i64, i: i64, s: i64, v: i64| {
        (i128::from(a) * i128::from(i) + i128::from(s)).rem_euclid(i128::from(v)) as usize
    };
    let rmap: Vec<usize> = (0..vr).map(|i| dist.rows.map(i as i64, vr, pr)).collect();
    let cmap: Vec<usize> = (0..vc).map(|j| dist.cols.map(j as i64, vc, pc)).collect();
    let row_i: Vec<usize> = (0..vri).map(|i| wrap(t00, i, shift.0, vri)).collect();
    let row_j: Vec<usize> = (0..vci).map(|j| wrap(t01, j, 0, vri)).collect();
    let col_i: Vec<usize> = (0..vri).map(|i| wrap(t10, i, shift.1, vci)).collect();
    let col_j: Vec<usize> = (0..vci).map(|j| wrap(t11, j, 0, vci)).collect();
    let mut counts = vec![0u64; np * np];
    for i in 0..vr {
        let (ri, ci) = (row_i[i], col_i[i]);
        let src_row = rmap[i] * pc;
        for j in 0..vc {
            let mut di = ri + row_j[j];
            if di >= vr {
                di -= vr;
            }
            let mut dj = ci + col_j[j];
            if dj >= vc {
                dj -= vc;
            }
            let src = src_row + cmap[j];
            let dst = rmap[di] * pc + cmap[dj];
            counts[src * np + dst] += 1;
        }
    }
    counts
}

/// Extract the sorted non-local message list from a flat count table
/// (the dense and period-tile affine folds; explicit patterns fold
/// sparsely in [`crate::msgs::fold_pattern`], in the same order).
fn msgs_from_counts(counts: &[u64], (pr, pc): (usize, usize), elem_bytes: u64) -> Vec<Msg> {
    let np = pr * pc;
    let mut msgs = Vec::new();
    for sp in 0..np {
        for dp in 0..np {
            let n = counts[sp * np + dp];
            if n > 0 && sp != dp {
                msgs.push(Msg {
                    src: (sp / pc, sp % pc),
                    dst: (dp / pc, dp % pc),
                    bytes: n.saturating_mul(elem_bytes),
                });
            }
        }
    }
    msgs
}

/// Which fold implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FoldPath {
    /// Cost-model choice. Under CYCLIC/CYCLIC(b) on both axes, when the
    /// lcm `L` of the two ownership periods divides both grid sides and
    /// `L² < v_r·v_c`, the dense fold of one `L×L` period tile, scaled by
    /// the tile count, is taken whenever it is cheaper than the closed
    /// estimate (reported as `closed == false`). Otherwise unimodular `T`
    /// always takes the closed path (its cost is flat in the virtual-grid
    /// area, which is the whole point of the simulator), and any other `T`
    /// takes it when its op estimate undercuts the dense `O(V)` fold.
    #[default]
    Auto,
    /// Force the closed residue-class path over the whole grid.
    Closed,
    /// Force the dense flat-table fold over the whole grid.
    Dense,
}

/// Rough per-call op weight of one segment-tuple count (lattice solve,
/// crossing analysis, a few `floor_sum`s).
const TUPLE_OPS: u128 = 320;
/// Per-element op weight of the dense fold's inner loop.
const DENSE_OPS: u128 = 6;

/// Upper bound on the closed path's work, in the same op units as
/// [`dense_cost`]. The old heuristic compared a shift count against
/// `V / 2` with truncating integer division, which underestimated the
/// dense side on small grids; this one prices both sides explicitly.
fn closed_cost(
    t: &IMat,
    shift: (i64, i64),
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
) -> u128 {
    let (vr, vc) = (vshape.0 as i128, vshape.1 as i128);
    let sr = segments(dist.rows, vshape.0, pshape.0).len() as u128;
    let sc = segments(dist.cols, vshape.1, pshape.1).len() as u128;
    let span = |a: i128, b: i128, s: i128, v: i128| -> u128 {
        let (r1, r2) = (axis_range(a, 0, vr - 1), axis_range(b, 0, vc - 1));
        let (lo, hi) = (r1.0 + r2.0 + s, r1.1 + r2.1 + s);
        (floor_div(hi, v) - floor_div(lo, v) + 1) as u128
    };
    let kr = span(t[(0, 0)] as i128, t[(0, 1)] as i128, shift.0 as i128, vr);
    let kc = span(t[(1, 0)] as i128, t[(1, 1)] as i128, shift.1 as i128, vc);
    (sr * sr)
        .saturating_mul(sc * sc)
        .saturating_mul(kr)
        .saturating_mul(kc)
        .saturating_mul(TUPLE_OPS)
}

/// Op estimate of the dense fold (inner loop plus table setup).
fn dense_cost(vshape: (usize, usize)) -> u128 {
    (vshape.0 as u128) * (vshape.1 as u128) * DENSE_OPS + (vshape.0 + vshape.1) as u128 * 8
}

/// Ownership period of a 1-D distribution whose owner of `i` is a
/// function of `i mod period` alone, whatever the grid side: `P` for
/// CYCLIC, `b·P` for CYCLIC(b). BLOCK and grouped owners depend on the
/// side, so they have none.
fn period(d: Dist1D, p: usize) -> Option<usize> {
    let q = match d {
        Dist1D::Cyclic => p,
        Dist1D::CyclicBlock(b) => b * p,
        Dist1D::Block | Dist1D::Grouped(_) => return None,
    };
    (q > 0).then_some(q)
}

/// Side `L` of the period tile of `dist` on a `vshape` grid: the lcm of
/// the two axis periods, when it divides both sides and the tile is
/// smaller than the grid.
fn period_tile(dist: Dist2D, (vr, vc): (usize, usize), (pr, pc): (usize, usize)) -> Option<usize> {
    let (qr, qc) = (period(dist.rows, pr)?, period(dist.cols, pc)?);
    let l = qr / egcd(qr as i128, qc as i128).0 as usize * qc;
    (vr % l == 0 && vc % l == 0 && l * l < vr * vc).then_some(l)
}

/// The counting routine [`fold_affine_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Closed lattice count over the whole grid.
    Closed,
    /// Dense fold over the whole grid.
    Dense,
    /// Dense fold over one `L×L` period tile, scaled by the tile count.
    Tile(usize),
}

/// The [`FoldPath::Auto`] policy.
fn auto_fold(
    t: &IMat,
    shift: (i64, i64),
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
) -> Fold {
    let closed = closed_cost(t, shift, dist, vshape, pshape);
    if let Some(l) = period_tile(dist, vshape, pshape) {
        if dense_cost((l, l)) < closed {
            return Fold::Tile(l);
        }
    }
    let det = t[(0, 0)] as i128 * t[(1, 1)] as i128 - t[(0, 1)] as i128 * t[(1, 0)] as i128;
    if det.abs() == 1 || closed < dense_cost(vshape) {
        Fold::Closed
    } else {
        Fold::Dense
    }
}

/// Generate the physical message set of the affine pattern
/// `v → T·v + shift mod vshape` under `dist` with an explicit path
/// choice. Identical to
/// `physical_messages(&affine_pattern(t, shift, vshape), dist, …)` —
/// same aggregation, same order — and also reports the locality of the
/// fold and which path produced it.
pub fn fold_affine_with(
    path: FoldPath,
    t: &IMat,
    shift: (i64, i64),
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
    elem_bytes: u64,
) -> FoldedPattern {
    assert_eq!(t.shape(), (2, 2));
    let fold = match path {
        FoldPath::Closed => Fold::Closed,
        FoldPath::Dense => Fold::Dense,
        FoldPath::Auto => auto_fold(t, shift, dist, vshape, pshape),
    };
    let counts = match fold {
        Fold::Closed => fold_closed(t, shift, dist, vshape, pshape),
        Fold::Dense => fold_dense(t, shift, dist, vshape, pshape),
        Fold::Tile(l) => {
            let tiles = ((vshape.0 / l) * (vshape.1 / l)) as u64;
            let mut counts = fold_dense(t, shift, dist, (l, l), pshape);
            counts.iter_mut().for_each(|n| *n *= tiles);
            counts
        }
    };
    let np = pshape.0 * pshape.1;
    let mut local = 0u64;
    for p in 0..np {
        local += counts[p * np + p];
    }
    FoldedPattern {
        msgs: msgs_from_counts(&counts, pshape, elem_bytes),
        local_sends: local,
        total_sends: (vshape.0 * vshape.1) as u64,
        closed: fold == Fold::Closed,
    }
}

/// [`fold_affine_with`] under the [`FoldPath::Auto`] cost model.
pub fn fold_affine(
    t: &IMat,
    shift: (i64, i64),
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
    elem_bytes: u64,
) -> FoldedPattern {
    fold_affine_with(FoldPath::Auto, t, shift, dist, vshape, pshape, elem_bytes)
}

/// Generate the physical message set of the linear pattern
/// `v → T·v mod vshape` under `dist` **without enumerating the virtual
/// grid** — one period tile under CYCLIC/CYCLIC(b) when the grid is a
/// multiple of it, otherwise the closed residue-class path for every
/// unimodular `T` (and for any `T` where the cost model favors it).
///
/// Identical to
/// `physical_messages(&general_pattern(t, vshape), dist, …)` — same
/// aggregation, same order — and also reports the locality of the fold.
pub fn fold_general(
    t: &IMat,
    dist: Dist2D,
    vshape: (usize, usize),
    pshape: (usize, usize),
    elem_bytes: u64,
) -> FoldedPattern {
    fold_affine_with(FoldPath::Auto, t, (0, 0), dist, vshape, pshape, elem_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::{affine_pattern, general_pattern, locality_fraction, physical_messages};

    const DISTS: [Dist1D; 4] = [
        Dist1D::Block,
        Dist1D::Cyclic,
        Dist1D::CyclicBlock(2),
        Dist1D::Grouped(3),
    ];

    fn oracle(
        t: &IMat,
        dist: Dist2D,
        vshape: (usize, usize),
        pshape: (usize, usize),
        elem_bytes: u64,
    ) -> (Vec<Msg>, f64) {
        let pat = general_pattern(t, vshape);
        (
            physical_messages(&pat, dist, vshape, pshape, elem_bytes),
            locality_fraction(&pat, dist, vshape, pshape),
        )
    }

    fn check(t: &IMat, dist: Dist2D, vshape: (usize, usize), pshape: (usize, usize)) {
        let (want, want_loc) = oracle(t, dist, vshape, pshape, 8);
        for path in [FoldPath::Auto, FoldPath::Closed, FoldPath::Dense] {
            let got = fold_affine_with(path, t, (0, 0), dist, vshape, pshape, 8);
            assert_eq!(
                got.msgs, want,
                "{path:?} T={t:?} dist={dist:?} v={vshape:?} p={pshape:?}"
            );
            assert!(
                (got.locality_fraction() - want_loc).abs() < 1e-12,
                "locality mismatch for {path:?} T={t:?} dist={dist:?}"
            );
            assert_eq!(got.total_sends, (vshape.0 * vshape.1) as u64);
        }
    }

    #[test]
    fn segments_partition_every_distribution() {
        for d in DISTS {
            for v in [1usize, 7, 12, 30] {
                for p in [1usize, 2, 4] {
                    let segs = segments(d, v, p);
                    let mut owner = vec![None; v];
                    for s in &segs {
                        let mut i = if s.lo % s.q == s.r {
                            s.lo
                        } else {
                            s.lo + (s.r + s.q - s.lo % s.q) % s.q
                        };
                        while i < s.hi {
                            assert!(owner[i].is_none(), "{d:?} v={v} p={p}: i={i} twice");
                            owner[i] = Some(s.proc);
                            i += s.q;
                        }
                    }
                    for (i, o) in owner.iter().enumerate() {
                        assert_eq!(*o, Some(d.map(i as i64, v, p)), "{d:?} v={v} p={p} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn floor_sum_matches_brute_force() {
        for n in 0..8i128 {
            for m in 1..7i128 {
                for a in -9..10i128 {
                    for b in -9..10i128 {
                        let want: i128 = (0..n).map(|x| (a * x + b).div_euclid(m)).sum();
                        assert_eq!(floor_sum(n, m, a, b), want, "n={n} m={m} a={a} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn coset_impose_matches_enumeration() {
        // Every (a, b, e, m) system over a window: the coset reproduces
        // exactly the brute-force solution set.
        for m1 in 1..5i128 {
            for m2 in 1..5i128 {
                for a1 in -2..3i128 {
                    for b1 in -2..3i128 {
                        for a2 in -2..3i128 {
                            let (e1, e2, b2) = (1i128, 2i128, 1i128);
                            let coset = Coset::full()
                                .impose(a1, b1, e1, m1)
                                .and_then(|c| c.impose(a2, b2, e2, m2));
                            let mut want = Vec::new();
                            for u in -12..12i128 {
                                for w in -12..12i128 {
                                    if (a1 * u + b1 * w - e1).rem_euclid(m1) == 0
                                        && (a2 * u + b2 * w - e2).rem_euclid(m2) == 0
                                    {
                                        want.push((u, w));
                                    }
                                }
                            }
                            match coset {
                                None => assert!(want.is_empty(), "{a1},{b1},{m1} {a2},{b2},{m2}"),
                                Some(c) => {
                                    let (pu, pw, al, be, ga) = c.hnf();
                                    let mut got = Vec::new();
                                    for x in -40..40i128 {
                                        for y in -40..40i128 {
                                            let (u, w) = (pu + al * x, pw + be * x + ga * y);
                                            if (-12..12).contains(&u) && (-12..12).contains(&w) {
                                                got.push((u, w));
                                            }
                                        }
                                    }
                                    got.sort_unstable();
                                    assert_eq!(got, want, "{a1},{b1},{m1} {a2},{b2},{m2}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uk_matches_oracle_across_distributions() {
        for dr in DISTS {
            for dc in DISTS {
                let dist = Dist2D { rows: dr, cols: dc };
                for k in [0i64, 1, 3, 5, -2] {
                    let t = IMat::from_rows(&[&[1, k], &[0, 1]]);
                    check(&t, dist, (24, 12), (4, 2));
                }
            }
        }
    }

    #[test]
    fn lk_transposed_case_matches_oracle() {
        for d in DISTS {
            let dist = Dist2D::uniform(d);
            for l in [2i64, 4, -3] {
                let t = IMat::from_rows(&[&[1, 0], &[l, 1]]);
                check(&t, dist, (12, 24), (2, 4));
            }
        }
    }

    #[test]
    fn reflections_match_oracle() {
        for d in DISTS {
            let dist = Dist2D::uniform(d);
            check(
                &IMat::from_rows(&[&[-1, 2], &[0, 1]]),
                dist,
                (18, 10),
                (3, 2),
            );
            check(
                &IMat::from_rows(&[&[1, 0], &[3, -1]]),
                dist,
                (10, 18),
                (2, 3),
            );
        }
    }

    #[test]
    fn fully_coupled_matrices_match_oracle() {
        let dist = Dist2D {
            rows: Dist1D::Grouped(3),
            cols: Dist1D::Cyclic,
        };
        // Neither axis pure: previously dense-only, now closed.
        check(
            &IMat::from_rows(&[&[1, 3], &[2, 7]]),
            dist,
            (18, 12),
            (3, 2),
        );
        check(
            &IMat::from_rows(&[&[2, 1], &[1, 2]]),
            dist,
            (16, 16),
            (4, 4),
        );
        // Rotation and coordinate swap.
        check(
            &IMat::from_rows(&[&[0, -1], &[1, 0]]),
            dist,
            (18, 12),
            (3, 2),
        );
        check(
            &IMat::from_rows(&[&[0, 1], &[1, 0]]),
            dist,
            (12, 12),
            (2, 2),
        );
        // Singular and scaling matrices exercise the same counting core.
        check(
            &IMat::from_rows(&[&[2, 4], &[1, 2]]),
            dist,
            (18, 12),
            (3, 2),
        );
        check(
            &IMat::from_rows(&[&[3, 0], &[0, 2]]),
            dist,
            (18, 12),
            (3, 2),
        );
    }

    #[test]
    fn affine_shift_matches_oracle() {
        let dist = Dist2D {
            rows: Dist1D::Grouped(5),
            cols: Dist1D::CyclicBlock(3),
        };
        for t in [
            IMat::identity(2),
            IMat::from_rows(&[&[1, 1], &[1, 2]]),
            IMat::from_rows(&[&[-1, 2], &[3, 1]]),
        ] {
            for shift in [(0i64, 0i64), (5, -3), (-17, 40)] {
                let pat = affine_pattern(&t, shift, (13, 9));
                let want = physical_messages(&pat, dist, (13, 9), (3, 2), 8);
                for path in [FoldPath::Closed, FoldPath::Dense] {
                    let got = fold_affine_with(path, &t, shift, dist, (13, 9), (3, 2), 8);
                    assert_eq!(got.msgs, want, "{path:?} T={t:?} shift={shift:?}");
                }
            }
        }
    }

    #[test]
    fn ragged_and_degenerate_shapes() {
        let dist = Dist2D {
            rows: Dist1D::Grouped(5),
            cols: Dist1D::CyclicBlock(3),
        };
        // v not divisible by p, k, or b; 1-wide axes; single processor.
        check(&IMat::from_rows(&[&[1, 2], &[0, 1]]), dist, (13, 7), (3, 2));
        check(&IMat::from_rows(&[&[1, 1], &[0, 1]]), dist, (1, 7), (1, 2));
        check(&IMat::from_rows(&[&[1, 4], &[0, 1]]), dist, (9, 1), (2, 1));
        check(
            &IMat::from_rows(&[&[1, 2], &[0, 1]]),
            Dist2D::uniform(Dist1D::Block),
            (8, 8),
            (1, 1),
        );
    }

    #[test]
    fn unimodular_always_takes_closed_path() {
        // Even on grids small enough that the dense fold would be cheap:
        // path choice must be a function of T alone so one simulated
        // scenario stands in for a million-VP machine.
        for t in [
            IMat::from_rows(&[&[1, 1], &[1, 2]]),
            IMat::from_rows(&[&[0, -1], &[1, 0]]),
            IMat::from_rows(&[&[0, 1], &[1, 0]]),
            IMat::from_rows(&[&[1, 3], &[2, 7]]),
        ] {
            let got = fold_general(&t, Dist2D::uniform(Dist1D::Block), (8, 8), (2, 2), 8);
            assert!(got.closed, "T={t:?} fell back to the dense fold");
        }
    }

    #[test]
    fn non_unimodular_tiny_grid_prefers_dense() {
        // det = 4 on an 8×8 grid: the dense fold is cheaper than the
        // segment algebra and Auto must say so.
        let t = IMat::from_rows(&[&[2, 0], &[0, 2]]);
        let got = fold_general(&t, Dist2D::uniform(Dist1D::Grouped(3)), (8, 8), (2, 2), 8);
        assert!(!got.closed);
        // …but forcing the closed path still yields identical data.
        let forced = fold_affine_with(
            FoldPath::Closed,
            &t,
            (0, 0),
            Dist2D::uniform(Dist1D::Grouped(3)),
            (8, 8),
            (2, 2),
            8,
        );
        assert!(forced.closed);
        assert_eq!(forced, got, "path metadata must not affect equality");
    }

    #[test]
    fn block_or_grouped_axis_has_no_period_tile() {
        let periodic = [Dist1D::Cyclic, Dist1D::CyclicBlock(2)];
        for other in [Dist1D::Block, Dist1D::Grouped(3)] {
            for p in periodic {
                for dist in [
                    Dist2D {
                        rows: other,
                        cols: p,
                    },
                    Dist2D {
                        rows: p,
                        cols: other,
                    },
                ] {
                    assert_eq!(period_tile(dist, (64, 64), (8, 4)), None, "{dist:?}");
                }
            }
        }
    }

    #[test]
    fn cyclic_by_cyclic_block_tiles_at_the_lcm() {
        // Periods 8 (CYCLIC on 8 rows) and 2·4 (CYCLIC(2) on 4 columns).
        let dist = Dist2D {
            rows: Dist1D::Cyclic,
            cols: Dist1D::CyclicBlock(2),
        };
        assert_eq!(period_tile(dist, (64, 32), (8, 4)), Some(8));
        assert_eq!(period_tile(dist, (4096, 4096), (8, 4)), Some(8));
        // lcm(8, 3·4) = 24.
        let dist = Dist2D {
            rows: Dist1D::Cyclic,
            cols: Dist1D::CyclicBlock(3),
        };
        assert_eq!(period_tile(dist, (48, 24), (8, 4)), Some(24));
    }

    #[test]
    fn no_tile_unless_the_period_divides_a_smaller_grid() {
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        // L = 8 misses a side.
        assert_eq!(period_tile(dist, (64, 36), (8, 4)), None);
        assert_eq!(period_tile(dist, (60, 64), (8, 4)), None);
        // The tile is the whole grid.
        assert_eq!(period_tile(dist, (8, 8), (8, 4)), None);
        assert_eq!(period_tile(dist, (16, 8), (8, 4)), Some(8));
    }

    #[test]
    fn tile_is_cheaper_than_the_closed_estimate() {
        // L ≤ S_r·S_c for the segment counts S, so the tile's dense cost
        // undercuts the closed estimate for every T the grid admits.
        for dr in [
            Dist1D::Cyclic,
            Dist1D::CyclicBlock(2),
            Dist1D::CyclicBlock(3),
        ] {
            for dc in [Dist1D::Cyclic, Dist1D::CyclicBlock(2)] {
                let dist = Dist2D { rows: dr, cols: dc };
                let (pshape, vshape) = ((8, 4), (4 * 48, 2 * 48));
                let l = period_tile(dist, vshape, pshape).expect("48·k grids tile");
                for t in [IMat::identity(2), IMat::from_rows(&[&[2, 4], &[1, 2]])] {
                    let closed = closed_cost(&t, (0, 0), dist, vshape, pshape);
                    assert!(dense_cost((l, l)) < closed, "{dist:?} L={l}");
                    assert_eq!(auto_fold(&t, (0, 0), dist, vshape, pshape), Fold::Tile(l));
                }
            }
        }
    }

    #[test]
    fn auto_tiles_cyclic_4096_and_equals_the_closed_path() {
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let (vshape, pshape) = ((4096, 4096), (8, 4));
        for t in [
            IMat::from_rows(&[&[1, 3], &[0, 1]]),
            IMat::from_rows(&[&[1, 0], &[2, 1]]),
            IMat::from_rows(&[&[1, 3], &[2, 7]]),
        ] {
            let auto = fold_affine_with(FoldPath::Auto, &t, (0, 0), dist, vshape, pshape, 8);
            let closed = fold_affine_with(FoldPath::Closed, &t, (0, 0), dist, vshape, pshape, 8);
            assert!(!auto.closed, "T={t:?} skipped the period tile");
            assert!(closed.closed);
            assert_eq!(auto, closed, "T={t:?}");
            assert_eq!(auto.total_sends, 4096 * 4096);
        }
    }

    #[test]
    fn identity_is_fully_local() {
        let got = fold_general(
            &IMat::identity(2),
            Dist2D::uniform(Dist1D::Block),
            (8, 8),
            (4, 4),
            8,
        );
        assert!(got.msgs.is_empty());
        assert_eq!(got.local_sends, 64);
        assert_eq!(got.locality_fraction(), 1.0);
    }

    #[test]
    fn elementary_identity_is_closed_and_fully_local() {
        // U(0) = identity, written as the elementary (i, j) → (i + 0·j, j):
        // it must take the closed path and move nothing.
        let u0 = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        let got = fold_general(&u0, Dist2D::uniform(Dist1D::Block), (8, 8), (4, 4), 8);
        assert!(got.msgs.is_empty());
        assert_eq!(got.local_sends, 64);
        assert_eq!(got.locality_fraction(), 1.0);
        assert!(got.closed);
    }
}
