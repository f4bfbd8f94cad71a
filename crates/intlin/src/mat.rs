//! Dense integer matrices over `i64`.
//!
//! Entries are `i64`; all products are computed through `i128` and checked
//! on narrowing so that silent wrap-around is impossible. The matrices in
//! this problem domain (access matrices of affine loop nests, allocation
//! matrices for ≤ 4-dimensional processor grids) are tiny — almost always
//! 2×2 to 4×4 — so the storage is a small-matrix optimised enum: matrices
//! with at most [`IMat::INLINE_CAP`] entries live in a fixed inline buffer
//! (no heap allocation at all), larger ones fall back to a `Vec<i64>`.
//! Equality and hashing see only the logical contents, never the storage
//! variant, so an inline matrix and a heap-backed copy are interchangeable.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Errors produced by fallible exact linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinError {
    /// A square matrix was singular where an inverse was required.
    Singular,
    /// The equation has no solution (compatibility condition failed).
    Incompatible,
    /// A result that had to be integral turned out to be fractional.
    NotIntegral,
    /// Intermediate arithmetic exceeded the representable range.
    Overflow,
    /// A full-rank solution was required but none exists.
    RankDeficient,
}

impl fmt::Display for LinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinError::Singular => write!(f, "matrix is singular"),
            LinError::Incompatible => write!(f, "equation is incompatible"),
            LinError::NotIntegral => write!(f, "solution is not integral"),
            LinError::Overflow => write!(f, "integer overflow in exact arithmetic"),
            LinError::RankDeficient => write!(f, "no full-rank solution exists"),
        }
    }
}

impl std::error::Error for LinError {}

/// Backing storage: inline for small matrices, heap for the rest.
#[derive(Clone)]
enum Store {
    Inline([i64; IMat::INLINE_CAP]),
    Heap(Vec<i64>),
}

/// A dense integer matrix with `i64` entries, stored row-major.
///
/// ```
/// use rescomm_intlin::IMat;
/// let f = IMat::from_rows(&[&[1, 3], &[2, 7]]);
/// assert_eq!(f.det(), 1);
/// assert_eq!(f.rank(), 2);
/// let inv = f.inverse_unimodular().unwrap();
/// assert!((&f * &inv).is_identity());
/// ```
#[derive(Clone)]
pub struct IMat {
    rows: usize,
    cols: usize,
    store: Store,
}

#[inline]
fn try_narrow(v: i128) -> Result<i64, LinError> {
    i64::try_from(v).map_err(|_| LinError::Overflow)
}

#[inline]
fn narrow(v: i128) -> i64 {
    try_narrow(v).expect("i64 overflow in exact integer matrix arithmetic")
}

impl IMat {
    /// Matrices with at most this many entries are stored inline
    /// (no heap allocation).
    pub const INLINE_CAP: usize = 16;

    /// Zero-filled matrix of the given shape with canonical storage.
    #[inline]
    fn alloc(rows: usize, cols: usize) -> Self {
        let len = rows * cols;
        let store = if len <= Self::INLINE_CAP {
            Store::Inline([0; Self::INLINE_CAP])
        } else {
            Store::Heap(vec![0; len])
        };
        IMat { rows, cols, store }
    }

    /// Build with canonical storage from a row-major slice.
    #[inline]
    fn from_slice_raw(rows: usize, cols: usize, data: &[i64]) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        let mut m = Self::alloc(rows, cols);
        m.as_mut_slice().copy_from_slice(data);
        m
    }

    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::alloc(rows, cols)
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = IMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build from a closure over `(row, col)` positions.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> i64) -> Self {
        let mut m = Self::alloc(rows, cols);
        {
            let data = m.as_mut_slice();
            let mut k = 0;
            for i in 0..rows {
                for j in 0..cols {
                    data[k] = f(i, j);
                    k += 1;
                }
            }
        }
        m
    }

    /// Build from nested slices; every row must have the same length.
    ///
    /// # Panics
    /// Panics if the rows are ragged or empty.
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows");
        let cols = rows[0].len();
        assert!(cols > 0, "from_rows: empty rows");
        let mut m = Self::alloc(rows.len(), cols);
        {
            let data = m.as_mut_slice();
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.len(), cols, "from_rows: ragged rows");
                data[i * cols..(i + 1) * cols].copy_from_slice(r);
            }
        }
        m
    }

    /// Build from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: shape mismatch");
        if data.len() <= Self::INLINE_CAP {
            Self::from_slice_raw(rows, cols, &data)
        } else {
            IMat {
                rows,
                cols,
                store: Store::Heap(data),
            }
        }
    }

    /// Column vector from a slice.
    pub fn col_vec(v: &[i64]) -> Self {
        Self::from_slice_raw(v.len(), 1, v)
    }

    /// Row vector from a slice.
    pub fn row_vec(v: &[i64]) -> Self {
        Self::from_slice_raw(1, v.len(), v)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// `true` iff the entries live in the inline buffer (no heap block).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.store, Store::Inline(_))
    }

    /// Force the entries onto the heap, regardless of size.
    ///
    /// Exists so differential tests can exercise the heap code paths on
    /// small matrices; behaviour is identical either way.
    #[doc(hidden)]
    pub fn force_heap(&mut self) {
        if let Store::Inline(buf) = self.store {
            self.store = Store::Heap(buf[..self.rows * self.cols].to_vec());
        }
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        match &self.store {
            Store::Inline(buf) => &buf[..self.rows * self.cols],
            Store::Heap(v) => v,
        }
    }

    /// Raw row-major data, mutable.
    #[inline]
    fn as_mut_slice(&mut self) -> &mut [i64] {
        match &mut self.store {
            Store::Inline(buf) => &mut buf[..self.rows * self.cols],
            Store::Heap(v) => v,
        }
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[i64] {
        assert!(i < self.rows);
        &self.as_slice()[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<i64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> IMat {
        IMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        self.try_mul_vec(v)
            .expect("i64 overflow in exact integer matrix arithmetic")
    }

    /// The affine map `self · v + off`, each component accumulated in
    /// `i128` with its constant and narrowed once: [`IMat::mul_vec`] plus
    /// a constant term (a missing entry of `off` is 0, extra ones are
    /// ignored).
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()` or a component leaves `i64`.
    pub fn mul_vec_add(&self, v: &[i64], off: &[i64]) -> Vec<i64> {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows)
            .map(|i| self.row_affine(i, v, off.get(i).map_or(0, |&o| o)))
            .collect()
    }

    /// Component `i` of [`IMat::mul_vec_add`]: `row(i)·v + off`,
    /// accumulated in `i128` and narrowed once.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()` or the value leaves `i64`.
    #[inline]
    pub fn row_affine(&self, i: usize, v: &[i64], off: i64) -> i64 {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        let dot = self.row(i).iter().zip(v);
        let acc = dot.fold(0i128, |acc, (&a, &x)| acc + a as i128 * x as i128);
        narrow(acc + off as i128)
    }

    /// Fallible matrix–vector product: [`LinError::Overflow`] instead of a
    /// panic when a component leaves `i64` (products are accumulated in
    /// `i128`, so only the final narrowing can fail).
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    fn try_mul_vec(&self, v: &[i64]) -> Result<Vec<i64>, LinError> {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows).map(|i| self.row_dot(i, v)).collect()
    }

    /// Matrix–vector product into a caller-provided slice of
    /// `self.rows()` entries: [`IMat::mul_vec`] without the allocation.
    ///
    /// # Panics
    /// Panics on a length mismatch or `i64` overflow.
    pub fn mul_vec_into(&self, v: &[i64], out: &mut [i64]) {
        self.try_mul_vec_into(v, out)
            .expect("i64 overflow in exact integer matrix arithmetic")
    }

    /// Fallible [`IMat::mul_vec_into`]; on error `out` holds a partial
    /// result.
    fn try_mul_vec_into(&self, v: &[i64], out: &mut [i64]) -> Result<(), LinError> {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec: output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.row_dot(i, v)?;
        }
        Ok(())
    }

    /// Row `i` times `v`, accumulated in `i128` and narrowed once.
    #[inline]
    fn row_dot(&self, i: usize, v: &[i64]) -> Result<i64, LinError> {
        let row = self.row(i);
        let mut acc: i128 = 0;
        for j in 0..self.cols {
            acc += row[j] as i128 * v[j] as i128;
        }
        try_narrow(acc)
    }

    /// Multiply every entry by the scalar `s`.
    pub fn scale(&self, s: i64) -> IMat {
        IMat::from_fn(self.rows, self.cols, |i, j| {
            narrow(self[(i, j)] as i128 * s as i128)
        })
    }

    /// `true` iff this is exactly the identity matrix.
    pub fn is_identity(&self) -> bool {
        self.is_square()
            && (0..self.rows).all(|i| (0..self.cols).all(|j| self[(i, j)] == i64::from(i == j)))
    }

    /// `true` iff every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.as_slice().iter().all(|&x| x == 0)
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hstack(&self, other: &IMat) -> IMat {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        IMat::from_fn(self.rows, self.cols + other.cols, |i, j| {
            if j < self.cols {
                self[(i, j)]
            } else {
                other[(i, j - self.cols)]
            }
        })
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vstack(&self, other: &IMat) -> IMat {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        IMat::from_fn(self.rows + other.rows, self.cols, |i, j| {
            if i < self.rows {
                self[(i, j)]
            } else {
                other[(i - self.rows, j)]
            }
        })
    }

    /// Contiguous submatrix `rows r0..r1, cols c0..c1` (half-open).
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> IMat {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        IMat::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Matrix product into a caller-provided output matrix.
    ///
    /// `out` is reshaped to `self.rows × rhs.cols`; reusing one `out`
    /// across many products keeps larger-than-inline results from
    /// re-allocating. Results are identical to `&self * &rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch or `i64` overflow.
    pub fn mul_into(&self, rhs: &IMat, out: &mut IMat) {
        self.try_mul_into(rhs, out)
            .expect("i64 overflow in exact integer matrix arithmetic")
    }

    /// Fallible [`IMat::mul_into`]: [`LinError::Overflow`] instead of a
    /// panic when an entry of the product leaves `i64` (products are
    /// computed through `i128` and only narrowing can fail). On error,
    /// `out` holds a partial result and must not be read.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    fn try_mul_into(&self, rhs: &IMat, out: &mut IMat) -> Result<(), LinError> {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n, k) = (self.rows, rhs.cols, self.cols);
        out.reshape(m, n);
        let a = self.as_slice();
        let b = rhs.as_slice();
        let c = out.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                let mut acc: i128 = 0;
                for p in 0..k {
                    acc += a[i * k + p] as i128 * b[p * n + j] as i128;
                }
                c[i * n + j] = try_narrow(acc)?;
            }
        }
        Ok(())
    }

    /// Reshape in place to `rows × cols`, zero-filling the entries and
    /// keeping (or establishing) canonical storage for the new size.
    fn reshape(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        match &mut self.store {
            Store::Heap(v) if len > Self::INLINE_CAP => {
                v.clear();
                v.resize(len, 0);
            }
            store => {
                *store = if len <= Self::INLINE_CAP {
                    Store::Inline([0; Self::INLINE_CAP])
                } else {
                    Store::Heap(vec![0; len])
                };
            }
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Determinant via the fraction-free Bareiss algorithm (exact).
    ///
    /// All intermediates are `i128`; matrices with at most
    /// [`IMat::INLINE_CAP`] entries are eliminated in a stack buffer.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn det(&self) -> i64 {
        self.try_det().expect("det: integer overflow")
    }

    /// Fallible determinant: [`LinError::Overflow`] when a Bareiss
    /// intermediate leaves `i128` or the result leaves `i64`, instead of
    /// the panic [`IMat::det`] raises.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn try_det(&self) -> Result<i64, LinError> {
        assert!(self.is_square(), "det: non-square matrix");
        let n = self.rows;
        if n == 0 {
            return Ok(1);
        }
        let len = n * n;
        if len <= Self::INLINE_CAP {
            let mut buf = [0i128; Self::INLINE_CAP];
            for (d, &s) in buf[..len].iter_mut().zip(self.as_slice()) {
                *d = s as i128;
            }
            det_impl(&mut buf[..len], n)
        } else {
            let mut a: Vec<i128> = self.as_slice().iter().map(|&x| x as i128).collect();
            det_impl(&mut a, n)
        }
    }

    /// Rank over ℚ (fraction-free Gaussian elimination).
    ///
    /// An inline-stored matrix (every one of at most [`IMat::INLINE_CAP`]
    /// entries, unless [`IMat::force_heap`] moved it) is eliminated first
    /// in `i64` without any division. A heap-stored one, or an inline one
    /// with an entry of that elimination leaving `i64`, goes through the
    /// `i128` elimination, in a stack buffer up to `INLINE_CAP` entries.
    /// Both are exact, so the rank does not depend on the path; storage
    /// picks it only so differential tests can reach the `i128` path.
    /// Larger matrices can reuse a scratch buffer via [`IMat::rank_with`].
    pub fn rank(&self) -> usize {
        let len = self.rows * self.cols;
        if let Store::Inline(buf) = &self.store {
            let mut small = *buf;
            if let Some(r) = rank_i64(&mut small[..len], self.rows, self.cols) {
                return r;
            }
        }
        if len <= Self::INLINE_CAP {
            let mut buf = [0i128; Self::INLINE_CAP];
            for (d, &s) in buf[..len].iter_mut().zip(self.as_slice()) {
                *d = s as i128;
            }
            rank_impl(&mut buf[..len], self.rows, self.cols)
        } else {
            let mut a: Vec<i128> = self.as_slice().iter().map(|&x| x as i128).collect();
            rank_impl(&mut a, self.rows, self.cols)
        }
    }

    /// [`IMat::rank`] with a caller-provided scratch buffer, so repeated
    /// rank computations on larger-than-inline matrices do not allocate.
    pub fn rank_with(&self, scratch: &mut Vec<i128>) -> usize {
        let len = self.rows * self.cols;
        if len <= Self::INLINE_CAP {
            return self.rank();
        }
        scratch.clear();
        scratch.extend(self.as_slice().iter().map(|&x| x as i128));
        rank_impl(scratch, self.rows, self.cols)
    }

    /// Inverse of a square unimodular-or-not integer matrix when the
    /// inverse is itself integral (i.e. `det = ±1`).
    pub fn inverse_unimodular(&self) -> Result<IMat, LinError> {
        assert!(self.is_square(), "inverse: non-square matrix");
        let d = self.det();
        if d != 1 && d != -1 {
            return Err(LinError::NotIntegral);
        }
        // Adjugate method is fine at these sizes: inv = adj / det.
        let n = self.rows;
        let mut inv = IMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let minor = self.minor(j, i);
                let cof = minor.det();
                let sgn = if (i + j) % 2 == 0 { 1 } else { -1 };
                inv[(i, j)] = sgn * cof * d; // divide by det = multiply, d = ±1
            }
        }
        Ok(inv)
    }

    /// The `(i,j)` minor: the matrix with row `i` and column `j` removed.
    fn minor(&self, i: usize, j: usize) -> IMat {
        assert!(self.rows > 0 && self.cols > 0);
        IMat::from_fn(self.rows - 1, self.cols - 1, |r, c| {
            let rr = if r < i { r } else { r + 1 };
            let cc = if c < j { c } else { c + 1 };
            self[(rr, cc)]
        })
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> i64 {
        assert!(self.is_square());
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Swap two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let (x, y) = (self[(a, j)], self[(b, j)]);
            self[(a, j)] = y;
            self[(b, j)] = x;
        }
    }

    /// Swap two columns in place.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for i in 0..self.rows {
            let (x, y) = (self[(i, a)], self[(i, b)]);
            self[(i, a)] = y;
            self[(i, b)] = x;
        }
    }

    /// `row[a] += k · row[b]` in place.
    pub fn add_row_multiple(&mut self, a: usize, b: usize, k: i64) {
        assert_ne!(a, b);
        for j in 0..self.cols {
            self[(a, j)] = narrow(self[(a, j)] as i128 + k as i128 * self[(b, j)] as i128);
        }
    }

    /// `col[a] += k · col[b]` in place.
    pub fn add_col_multiple(&mut self, a: usize, b: usize, k: i64) {
        assert_ne!(a, b);
        for i in 0..self.rows {
            self[(i, a)] = narrow(self[(i, a)] as i128 + k as i128 * self[(i, b)] as i128);
        }
    }

    /// Negate a row in place.
    pub fn negate_row(&mut self, i: usize) {
        for j in 0..self.cols {
            self[(i, j)] = -self[(i, j)];
        }
    }

    /// Negate a column in place.
    pub fn negate_col(&mut self, j: usize) {
        for i in 0..self.rows {
            self[(i, j)] = -self[(i, j)];
        }
    }

    /// Maximum absolute value of any entry.
    pub fn max_abs(&self) -> i64 {
        self.as_slice().iter().map(|x| x.abs()).max().unwrap_or(0)
    }
}

/// Equality sees only the logical contents, never the storage variant.
impl PartialEq for IMat {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.as_slice() == other.as_slice()
    }
}

impl Eq for IMat {}

/// Hashing matches [`PartialEq`]: shape plus entries, storage-agnostic.
impl Hash for IMat {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rows.hash(state);
        self.cols.hash(state);
        self.as_slice().hash(state);
    }
}

/// Bareiss fraction-free determinant of the `n × n` matrix in `a`
/// (row-major, destroyed). Intermediates are checked `i128`; the paper's
/// matrices are tiny, so escalation to `i128` almost always suffices and
/// [`LinError::Overflow`] marks the genuinely pathological instances.
fn det_impl(a: &mut [i128], n: usize) -> Result<i64, LinError> {
    let mut sign: i128 = 1;
    let mut prev: i128 = 1;
    for k in 0..n - 1 {
        if a[k * n + k] == 0 {
            // Find a pivot row below and swap.
            match (k + 1..n).find(|&r| a[r * n + k] != 0) {
                Some(r) => {
                    for j in 0..n {
                        a.swap(k * n + j, r * n + j);
                    }
                    sign = -sign;
                }
                None => return Ok(0),
            }
        }
        for i in k + 1..n {
            for j in k + 1..n {
                let num = a[i * n + j]
                    .checked_mul(a[k * n + k])
                    .and_then(|x| x.checked_sub(a[i * n + k].checked_mul(a[k * n + j])?))
                    .ok_or(LinError::Overflow)?;
                a[i * n + j] = num / prev;
            }
            a[i * n + k] = 0;
        }
        prev = a[k * n + k];
    }
    try_narrow(sign * a[n * n - 1])
}

/// Division-free Gaussian rank of the `r × c` matrix in `a` (row-major,
/// destroyed): each row below the pivot row `p` becomes
/// `pivot·row − f·p` (`row − f·pivot·p` when the pivot is ±1, so unit
/// pivots never grow the entries), with checked `i64` arithmetic.
/// `None` when an entry leaves `i64`; [`rank_impl`] then decides.
fn rank_i64(a: &mut [i64], r: usize, c: usize) -> Option<usize> {
    let mut row = 0;
    for col in 0..c {
        if row == r {
            break;
        }
        let Some(p) = (row..r).find(|&i| a[i * c + col] != 0) else {
            continue;
        };
        if p != row {
            for j in col..c {
                a.swap(row * c + j, p * c + j);
            }
        }
        let pv = a[row * c + col];
        for i in row + 1..r {
            let f = a[i * c + col];
            if f == 0 {
                continue;
            }
            let (keep, take) = if pv == 1 || pv == -1 {
                (1, f.checked_mul(pv)?)
            } else {
                (pv, f)
            };
            // Columns left of `col` are zero in both rows; `col` itself
            // cancels.
            a[i * c + col] = 0;
            for j in col + 1..c {
                a[i * c + j] = a[i * c + j]
                    .checked_mul(keep)?
                    .checked_sub(a[row * c + j].checked_mul(take)?)?;
            }
        }
        row += 1;
    }
    Some(row)
}

/// Fraction-free Gaussian rank of the `r × c` matrix in `a`
/// (row-major, destroyed).
fn rank_impl(a: &mut [i128], r: usize, c: usize) -> usize {
    let mut rank = 0;
    let mut row = 0;
    for col in 0..c {
        // Find pivot.
        let piv = (row..r).find(|&i| a[i * c + col] != 0);
        let Some(p) = piv else { continue };
        if p != row {
            for j in 0..c {
                a.swap(row * c + j, p * c + j);
            }
        }
        let pv = a[row * c + col];
        for i in row + 1..r {
            let f = a[i * c + col];
            if f == 0 {
                continue;
            }
            let g = gcd128(pv, f);
            let (m1, m2) = (pv / g, f / g);
            for j in 0..c {
                a[i * c + j] = a[i * c + j]
                    .checked_mul(m1)
                    .and_then(|x| x.checked_sub(a[row * c + j].checked_mul(m2)?))
                    .expect("rank: i128 overflow");
            }
            // Keep entries small to avoid blow-up.
            let rg = row_gcd(&a[i * c..(i + 1) * c]);
            if rg > 1 {
                for j in 0..c {
                    a[i * c + j] /= rg;
                }
            }
        }
        row += 1;
        rank += 1;
        if row == r {
            break;
        }
    }
    rank
}

fn gcd128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

fn row_gcd(row: &[i128]) -> i128 {
    let mut g: i128 = 0;
    for &x in row {
        g = gcd128(g, x.abs());
        if g == 1 {
            return 1;
        }
    }
    g.max(1)
}

impl Index<(usize, usize)> for IMat {
    type Output = i64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let idx = i * self.cols + j;
        &self.as_slice()[idx]
    }
}

impl IndexMut<(usize, usize)> for IMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let idx = i * self.cols + j;
        &mut self.as_mut_slice()[idx]
    }
}

impl Mul for &IMat {
    type Output = IMat;
    fn mul(self, rhs: &IMat) -> IMat {
        let mut out = IMat::zeros(0, 0);
        self.mul_into(rhs, &mut out);
        out
    }
}

impl Mul for IMat {
    type Output = IMat;
    fn mul(self, rhs: IMat) -> IMat {
        &self * &rhs
    }
}

impl Add for &IMat {
    type Output = IMat;
    fn add(self, rhs: &IMat) -> IMat {
        assert_eq!(self.shape(), rhs.shape(), "matrix sum shape mismatch");
        IMat::from_fn(self.rows, self.cols, |i, j| {
            narrow(self[(i, j)] as i128 + rhs[(i, j)] as i128)
        })
    }
}

impl Sub for &IMat {
    type Output = IMat;
    fn sub(self, rhs: &IMat) -> IMat {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix difference shape mismatch"
        );
        IMat::from_fn(self.rows, self.cols, |i, j| {
            narrow(self[(i, j)] as i128 - rhs[(i, j)] as i128)
        })
    }
}

impl Neg for &IMat {
    type Output = IMat;
    fn neg(self) -> IMat {
        IMat::from_fn(self.rows, self.cols, |i, j| -self[(i, j)])
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths: Vec<usize> = (0..self.cols)
            .map(|j| {
                (0..self.rows)
                    .map(|i| format!("{}", self[(i, j)]).len())
                    .max()
                    .unwrap_or(1)
            })
            .collect();
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>w$}", self[(i, j)], w = widths[j])?;
            }
            write!(f, "]")?;
            if i + 1 < self.rows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[i64]]) -> IMat {
        IMat::from_rows(rows)
    }

    #[test]
    fn identity_and_zero() {
        let id = IMat::identity(3);
        assert!(id.is_identity());
        assert!(!id.is_zero());
        assert!(IMat::zeros(2, 5).is_zero());
        assert_eq!(id.det(), 1);
    }

    #[test]
    fn product_shapes_and_values() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[0, 1], &[1, 0]]);
        let ab = &a * &b;
        assert_eq!(ab, m(&[&[2, 1], &[4, 3]]));
        let id = IMat::identity(2);
        assert_eq!(&a * &id, a);
        assert_eq!(&id * &a, a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn product_shape_mismatch_panics() {
        let a = IMat::zeros(2, 3);
        let b = IMat::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn det_small() {
        assert_eq!(m(&[&[2]]).det(), 2);
        assert_eq!(m(&[&[1, 2], &[3, 4]]).det(), -2);
        assert_eq!(m(&[&[2, 0, 0], &[0, 3, 0], &[0, 0, 4]]).det(), 24);
        assert_eq!(m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]).det(), 0);
        // Needs a row swap (zero pivot).
        assert_eq!(m(&[&[0, 1], &[1, 0]]).det(), -1);
    }

    #[test]
    fn det_matches_cofactor_on_random() {
        fn cofactor_det(a: &IMat) -> i128 {
            let n = a.rows();
            if n == 1 {
                return a[(0, 0)] as i128;
            }
            let mut acc: i128 = 0;
            for j in 0..n {
                let sgn = if j % 2 == 0 { 1 } else { -1 };
                acc += sgn * a[(0, j)] as i128 * cofactor_det(&a.minor(0, j));
            }
            acc
        }
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as i64 % 7) - 3
        };
        for _ in 0..50 {
            let a = IMat::from_fn(4, 4, |_, _| next());
            assert_eq!(a.det() as i128, cofactor_det(&a));
        }
    }

    #[test]
    fn rank_cases() {
        assert_eq!(IMat::identity(4).rank(), 4);
        assert_eq!(IMat::zeros(3, 5).rank(), 0);
        assert_eq!(m(&[&[1, 2, 3], &[2, 4, 6]]).rank(), 1);
        assert_eq!(m(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]).rank(), 2);
        // The paper's F6 (deficient rank) from the motivating example:
        // F6 = [[1, 1, 1], [-1, -1, -1]] has rank 1.
        assert_eq!(m(&[&[1, 1, 1], &[-1, -1, -1]]).rank(), 1);
    }

    #[test]
    fn inverse_unimodular_roundtrip() {
        let u = m(&[&[1, 2], &[1, 1]]); // det = -1
        let inv = u.inverse_unimodular().unwrap();
        assert!((&u * &inv).is_identity());
        assert!((&inv * &u).is_identity());
        let v = m(&[&[2, 0], &[0, 2]]);
        assert_eq!(v.inverse_unimodular(), Err(LinError::NotIntegral));
    }

    #[test]
    fn transpose_involution() {
        let a = m(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
    }

    #[test]
    fn stack_and_sub() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[5], &[6]]);
        let h = a.hstack(&b);
        assert_eq!(h, m(&[&[1, 2, 5], &[3, 4, 6]]));
        assert_eq!(h.submatrix(0, 2, 0, 2), a);
        let v = a.vstack(&m(&[&[7, 8]]));
        assert_eq!(v.row(2), &[7, 8]);
        assert_eq!(v.col(1), vec![2, 4, 8]);
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let a = m(&[&[1, 2, 0], &[0, 1, -1]]);
        let v = [3, 4, 5];
        assert_eq!(a.mul_vec(&v), vec![11, -1]);
    }

    #[test]
    fn row_ops() {
        let mut a = m(&[&[1, 0], &[0, 1]]);
        a.add_row_multiple(0, 1, 3);
        assert_eq!(a, m(&[&[1, 3], &[0, 1]]));
        a.swap_rows(0, 1);
        assert_eq!(a, m(&[&[0, 1], &[1, 3]]));
        a.negate_row(0);
        assert_eq!(a, m(&[&[0, -1], &[1, 3]]));
        a.add_col_multiple(1, 0, 2);
        assert_eq!(a, m(&[&[0, -1], &[1, 5]]));
        a.swap_cols(0, 1);
        assert_eq!(a, m(&[&[-1, 0], &[5, 1]]));
        a.negate_col(0);
        assert_eq!(a, m(&[&[1, 0], &[-5, 1]]));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn product_overflow_panics_cleanly() {
        // Exact arithmetic must never wrap silently: a product that leaves
        // i64 panics with a clear message instead.
        let big = IMat::from_rows(&[&[i64::MAX / 2, i64::MAX / 2], &[1, 1]]);
        let _ = &big * &big;
    }

    #[test]
    fn mul_vec_add_adds_the_constant_inside_the_exact_sum() {
        let m = IMat::from_rows(&[&[1, 0], &[0, 2]]);
        assert_eq!(m.mul_vec_add(&[3, 4], &[1, -1]), vec![4, 7]);
        // `2·2⁶²` alone leaves `i64`; the constant brings it back.
        assert_eq!(m.mul_vec_add(&[0, 1 << 62], &[0, -1]), vec![0, i64::MAX]);
    }

    #[test]
    #[should_panic(expected = "i64 overflow in exact integer matrix arithmetic")]
    fn mul_vec_add_overflow_panics_instead_of_wrapping() {
        let m = IMat::identity(1);
        let _ = m.mul_vec_add(&[i64::MAX], &[1]);
    }

    #[test]
    fn try_paths_error_instead_of_panicking() {
        let big = IMat::from_rows(&[&[i64::MAX / 2, i64::MAX / 2], &[1, 1]]);
        let mut out = IMat::zeros(0, 0);
        assert_eq!(big.try_mul_into(&big, &mut out), Err(LinError::Overflow));
        assert_eq!(
            big.try_mul_vec(&[i64::MAX / 2, i64::MAX / 2]),
            Err(LinError::Overflow)
        );
        // A determinant that fits i128 intermediates but not i64.
        let d = IMat::from_rows(&[&[i64::MAX / 2, 0], &[0, 4]]);
        assert_eq!(d.try_det(), Err(LinError::Overflow));
        // And the happy path agrees with the panicking operators.
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[0, 1], &[1, 0]]);
        a.try_mul_into(&b, &mut out).unwrap();
        assert_eq!(out, &a * &b);
        assert_eq!(a.try_det().unwrap(), a.det());
        assert_eq!(a.try_mul_vec(&[1, 1]).unwrap(), a.mul_vec(&[1, 1]));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn det_overflow_panics_cleanly() {
        let d = IMat::from_rows(&[&[i64::MAX / 2, 0], &[0, 4]]);
        let _ = d.det();
    }

    #[test]
    fn trace_and_max_abs() {
        let a = m(&[&[1, -7], &[2, 3]]);
        assert_eq!(a.trace(), 4);
        assert_eq!(a.max_abs(), 7);
    }

    #[test]
    fn inline_threshold_and_force_heap() {
        // ≤ 16 entries stays inline through construction paths.
        assert!(IMat::identity(4).is_inline());
        assert!(IMat::zeros(2, 8).is_inline());
        assert!(IMat::from_vec(4, 4, vec![1; 16]).is_inline());
        assert!(!IMat::zeros(5, 5).is_inline());
        assert!(!IMat::from_vec(1, 17, vec![1; 17]).is_inline());
        // force_heap changes storage, not identity.
        let a = m(&[&[1, 2], &[3, 4]]);
        let mut b = a.clone();
        b.force_heap();
        assert!(!b.is_inline());
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let h = |x: &IMat| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn heap_and_inline_ops_agree() {
        let a = m(&[&[1, 2, -1], &[0, 3, 4], &[2, -2, 5]]);
        let b = m(&[&[2, 0, 1], &[1, 1, 0], &[-1, 2, 3]]);
        let (mut ah, mut bh) = (a.clone(), b.clone());
        ah.force_heap();
        bh.force_heap();
        assert_eq!(&a * &b, &ah * &bh);
        assert_eq!(a.det(), ah.det());
        assert_eq!(a.rank(), ah.rank());
        assert_eq!(a.transpose(), ah.transpose());
        assert_eq!(a.hstack(&b), ah.hstack(&bh));
        assert_eq!(&a + &b, &ah + &bh);
    }

    #[test]
    fn mul_into_reuses_output() {
        let a = m(&[&[1, 2], &[3, 4]]);
        let b = m(&[&[0, 1], &[1, 0]]);
        let mut out = IMat::zeros(0, 0);
        a.mul_into(&b, &mut out);
        assert_eq!(out, &a * &b);
        // Reuse with a different shape.
        let c = m(&[&[1], &[1]]);
        a.mul_into(&c, &mut out);
        assert_eq!(out, &a * &c);
        assert_eq!(out.shape(), (2, 1));
    }

    #[test]
    fn rank_with_scratch_matches_rank() {
        let big = IMat::from_fn(5, 5, |i, j| ((i * 5 + j) as i64 % 7) - 3);
        let mut scratch = Vec::new();
        assert_eq!(big.rank_with(&mut scratch), big.rank());
        let small = m(&[&[1, 2], &[2, 4]]);
        assert_eq!(small.rank_with(&mut scratch), 1);
    }
}
