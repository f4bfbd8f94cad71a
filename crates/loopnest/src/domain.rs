//! Rectangular iteration domains.
//!
//! The paper's analysis is symbolic (it only looks at the access matrices),
//! but the *workload generators* for the benchmark harness need concrete
//! iteration points to turn a mapping into an actual message set. A
//! [`Domain`] is a product of integer intervals `[lo_k, hi_k]` (inclusive),
//! one per loop of the statement.

use std::ops::ControlFlow;

/// Loop depth up to which [`Domain::walk`] keeps its point on the stack.
const WALK_STACK_DEPTH: usize = 8;

/// An iteration domain: a box `lo_k ≤ I_k ≤ hi_k` optionally cut by
/// affine guards `g·I ≤ b` (triangular loop bounds like Gaussian
/// elimination's `i, j > k` become guards over the bounding box).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Each guard `(g, b)` keeps the points with `g·I ≤ b`.
    guards: Vec<(Vec<i64>, i64)>,
}

impl Domain {
    /// Build from `(lo, hi)` inclusive bounds per dimension.
    ///
    /// # Panics
    /// Panics if any `lo > hi`.
    pub fn rect(bounds: &[(i64, i64)]) -> Self {
        for &(lo, hi) in bounds {
            assert!(lo <= hi, "empty interval [{lo}, {hi}] in domain");
        }
        Domain {
            lo: bounds.iter().map(|b| b.0).collect(),
            hi: bounds.iter().map(|b| b.1).collect(),
            guards: Vec::new(),
        }
    }

    /// Add an affine guard `g·I ≤ b` (builder style). The guard vector
    /// must have one coefficient per dimension.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn with_guard(mut self, g: &[i64], b: i64) -> Self {
        assert_eq!(g.len(), self.dim(), "guard arity mismatch");
        self.guards.push((g.to_vec(), b));
        self
    }

    /// The affine guards.
    pub fn guards(&self) -> &[(Vec<i64>, i64)] {
        &self.guards
    }

    /// The cube `[0, n-1]^dim`.
    ///
    /// # Panics
    /// Panics if `n < 1`.
    pub fn cube(dim: usize, n: i64) -> Self {
        assert!(n >= 1, "cube size must be at least 1");
        Domain {
            lo: vec![0; dim],
            hi: vec![n - 1; dim],
            guards: Vec::new(),
        }
    }

    /// Number of dimensions (loop depth).
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound of dimension `k`.
    pub fn lo(&self, k: usize) -> i64 {
        self.lo[k]
    }

    /// Upper bound (inclusive) of dimension `k`.
    pub fn hi(&self, k: usize) -> i64 {
        self.hi[k]
    }

    /// Number of points in the bounding box (an upper bound when guards
    /// are present; use [`Domain::exact_size`] for the guarded count).
    pub fn size(&self) -> u128 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| (h - l + 1) as u128)
            .product()
    }

    /// Exact point count, honouring the guards (enumerates; intended for
    /// test-sized domains).
    pub fn exact_size(&self) -> u128 {
        if self.guards.is_empty() {
            self.size()
        } else {
            self.points().count() as u128
        }
    }

    /// `true` iff the point lies in the domain (box and guards).
    pub fn contains(&self, p: &[i64]) -> bool {
        p.len() == self.dim()
            && p.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&x, (&l, &h))| l <= x && x <= h)
            && self.satisfies_guards(p)
    }

    fn satisfies_guards(&self, p: &[i64]) -> bool {
        self.guards
            .iter()
            .all(|(g, b)| g.iter().zip(p).map(|(&c, &x)| c * x).sum::<i64>() <= *b)
    }

    /// Visit every point in the same lexicographic order as
    /// [`Domain::points`] (guards applied) without allocating per point:
    /// an in-place odometer over a stack buffer (one heap buffer for the
    /// whole walk past eight loops). `f` sees each point as a slice, with
    /// the first axis whose coordinate changed since the point it saw
    /// before (0 at the first point), and may stop the walk with `Break`.
    /// A caller that evaluates affine maps can thus keep the partial sums
    /// over the axes before that one.
    ///
    /// [`Domain::points`] stays an independent iterator: it is the oracle
    /// this walk is tested against, and the iterator for callers that
    /// keep the points.
    pub fn walk(&self, mut f: impl FnMut(&[i64], usize) -> ControlFlow<()>) -> ControlFlow<()> {
        let dim = self.dim();
        let mut stack = [0i64; WALK_STACK_DEPTH];
        let mut heap = Vec::new();
        let cur: &mut [i64] = if dim <= WALK_STACK_DEPTH {
            &mut stack[..dim]
        } else {
            heap.resize(dim, 0);
            &mut heap
        };
        cur.copy_from_slice(&self.lo);
        let mut changed = 0;
        loop {
            if self.satisfies_guards(cur) {
                f(cur, changed)?;
                changed = dim;
            }
            // Successor: the odometer of `DomainIter`, from the last loop.
            let mut k = dim;
            loop {
                if k == 0 {
                    return ControlFlow::Continue(());
                }
                k -= 1;
                if cur[k] < self.hi[k] {
                    cur[k] += 1;
                    cur[k + 1..].copy_from_slice(&self.lo[k + 1..]);
                    changed = changed.min(k);
                    break;
                }
            }
        }
    }

    /// Iterate all points in lexicographic order (guards applied).
    pub fn points(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        DomainIter {
            dom: self.clone(),
            cur: Some(self.lo.clone()),
        }
        .filter(move |p| self.satisfies_guards(p))
    }
}

/// Lexicographic iterator over the points of a [`Domain`].
pub struct DomainIter {
    dom: Domain,
    cur: Option<Vec<i64>>,
}

impl Iterator for DomainIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        let cur = self.cur.take()?;
        // Compute the successor (odometer from the last dimension).
        let mut nxt = cur.clone();
        let mut k = nxt.len();
        loop {
            if k == 0 {
                self.cur = None;
                break;
            }
            k -= 1;
            if nxt[k] < self.dom.hi[k] {
                nxt[k] += 1;
                nxt[k + 1..].copy_from_slice(&self.dom.lo[k + 1..]);
                self.cur = Some(nxt);
                break;
            }
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_shape() {
        let d = Domain::cube(3, 4);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.size(), 64);
        assert!(d.contains(&[0, 3, 2]));
        assert!(!d.contains(&[0, 4, 2]));
        assert!(!d.contains(&[0, 3]));
    }

    #[test]
    fn rect_bounds() {
        let d = Domain::rect(&[(1, 3), (-2, 2)]);
        assert_eq!(d.size(), 15);
        assert_eq!(d.lo(1), -2);
        assert_eq!(d.hi(0), 3);
        assert!(d.contains(&[1, -2]));
        assert!(!d.contains(&[0, 0]));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn rect_rejects_empty() {
        Domain::rect(&[(3, 1)]);
    }

    #[test]
    fn points_lexicographic_and_complete() {
        let d = Domain::rect(&[(0, 1), (5, 6)]);
        let pts: Vec<_> = d.points().collect();
        assert_eq!(pts, vec![vec![0, 5], vec![0, 6], vec![1, 5], vec![1, 6]]);
    }

    #[test]
    fn points_count_matches_size() {
        let d = Domain::rect(&[(0, 2), (-1, 1), (4, 4)]);
        assert_eq!(d.points().count() as u128, d.size());
        for p in d.points() {
            assert!(d.contains(&p));
        }
    }

    #[test]
    fn single_point_domain() {
        let d = Domain::rect(&[(2, 2)]);
        assert_eq!(d.points().collect::<Vec<_>>(), vec![vec![2]]);
    }

    #[test]
    fn triangular_guard() {
        // i < j over a 4×4 box: guard i − j ≤ −1.
        let d = Domain::cube(2, 4).with_guard(&[1, -1], -1);
        let pts: Vec<_> = d.points().collect();
        assert_eq!(pts.len(), 6); // C(4,2)
        for p in &pts {
            assert!(p[0] < p[1]);
            assert!(d.contains(p));
        }
        assert!(!d.contains(&[2, 2]));
        assert_eq!(d.exact_size(), 6);
        assert_eq!(d.size(), 16, "box size is an upper bound");
    }

    #[test]
    fn multiple_guards_intersect() {
        // 0-weighted guard plus a strict one.
        let d = Domain::cube(2, 4)
            .with_guard(&[1, 0], 1) // i ≤ 1
            .with_guard(&[0, 1], 2); // j ≤ 2
        assert_eq!(d.exact_size(), 2 * 3);
    }

    /// The walk's points, each checked to come with the first axis at
    /// which it differs from the point before it (0 for the first).
    fn walked(d: &Domain) -> Vec<Vec<i64>> {
        let mut v: Vec<Vec<i64>> = Vec::new();
        let _ = d.walk(|p, changed| {
            let first = v
                .last()
                .map_or(0, |q| q.iter().zip(p).take_while(|(a, b)| a == b).count());
            assert_eq!(changed, first, "{p:?} after {:?}", v.last());
            v.push(p.to_vec());
            ControlFlow::Continue(())
        });
        v
    }

    #[test]
    fn walk_matches_points_on_and_off_the_stack() {
        let tri = Domain::cube(3, 4)
            .with_guard(&[1, -1, 0], -1)
            .with_guard(&[1, 0, -1], -1);
        let deep = Domain::cube(WALK_STACK_DEPTH + 1, 2).with_guard(&[1; 9], 4);
        let empty = Domain::cube(2, 3).with_guard(&[1, 1], -1);
        for d in [
            tri,
            deep,
            empty,
            Domain::rect(&[]),
            Domain::rect(&[(-2, 1), (3, 3)]),
        ] {
            assert_eq!(walked(&d), d.points().collect::<Vec<_>>(), "{d:?}");
        }
    }

    #[test]
    fn walk_stops_on_break() {
        let d = Domain::cube(2, 3);
        let mut n = 0;
        let flow = d.walk(|_, _| {
            n += 1;
            if n == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!((flow, n), (ControlFlow::Break(()), 2));
    }

    #[test]
    #[should_panic(expected = "guard arity")]
    fn guard_arity_checked() {
        let _ = Domain::cube(2, 4).with_guard(&[1], 0);
    }
}
