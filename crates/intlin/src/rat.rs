//! Exact rational arithmetic over `i128` and dense rational matrices.
//!
//! Pseudo-inverses of integer access matrices are rational in general
//! (appendix §8.2 of the paper): `F⁻ = Fᵗ(F·Fᵗ)⁻¹` for flat `F` and
//! `F⁻ = (Fᵗ·F)⁻¹Fᵗ` for narrow `F`. We keep those exactly and fall back to
//! integers only when the result happens to be integral.

use crate::mat::{IMat, LinError};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num/den` with `den > 0`, always stored in
/// lowest terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational `num/den`, normalized.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert_ne!(den, 0, "rational with zero denominator");
        if num == 0 {
            return Rational { num: 0, den: 1 };
        }
        let g = gcd128(num, den);
        let s = if den < 0 { -1 } else { 1 };
        Rational {
            num: s * num / g,
            den: s * den / g,
        }
    }

    /// The integer `n` as a rational.
    pub fn from_int(n: i64) -> Self {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Numerator (sign-carrying).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// The value as an `i64` if it is an integer in range.
    pub fn to_int(&self) -> Result<i64, LinError> {
        if self.den != 1 {
            return Err(LinError::NotIntegral);
        }
        i64::try_from(self.num).map_err(|_| LinError::Overflow)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, r: Rational) -> Rational {
        Rational::new(
            self.num
                .checked_mul(r.den)
                .and_then(|x| x.checked_add(r.num.checked_mul(self.den)?))
                .expect("rational overflow"),
            self.den.checked_mul(r.den).expect("rational overflow"),
        )
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, r: Rational) -> Rational {
        self + (-r)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, r: Rational) -> Rational {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd128(self.num, r.den).max(1);
        let g2 = gcd128(r.num, self.den).max(1);
        Rational::new(
            (self.num / g1)
                .checked_mul(r.num / g2)
                .expect("rational overflow"),
            (self.den / g2)
                .checked_mul(r.den / g1)
                .expect("rational overflow"),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal is exact here
    fn div(self, r: Rational) -> Rational {
        self * r.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A dense rational matrix (row-major).
#[derive(Clone, PartialEq, Eq)]
pub struct RMat {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl RMat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMat {
            rows,
            cols,
            data: vec![Rational::ZERO; rows * cols],
        }
    }

    /// Identity of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = RMat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Rational::ONE);
        }
        m
    }

    /// Lift an integer matrix to rationals.
    pub fn from_int(m: &IMat) -> Self {
        RMat {
            rows: m.rows(),
            cols: m.cols(),
            data: m
                .as_slice()
                .iter()
                .map(|&x| Rational::from_int(x))
                .collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry accessor.
    pub fn get(&self, i: usize, j: usize) -> Rational {
        assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry mutator.
    pub fn set(&mut self, i: usize, j: usize, v: Rational) {
        assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Matrix product.
    pub fn mul(&self, rhs: &RMat) -> RMat {
        assert_eq!(self.cols, rhs.rows, "rational product shape mismatch");
        let mut out = RMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = Rational::ZERO;
                for k in 0..self.cols {
                    acc = acc + self.get(i, k) * rhs.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> RMat {
        let mut out = RMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Gauss–Jordan inverse of a square matrix.
    pub fn inverse(&self) -> Result<RMat, LinError> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = RMat::identity(n);
        for col in 0..n {
            let piv = (col..n).find(|&i| !a.get(i, col).is_zero());
            let Some(p) = piv else {
                return Err(LinError::Singular);
            };
            if p != col {
                for j in 0..n {
                    let (x, y) = (a.get(col, j), a.get(p, j));
                    a.set(col, j, y);
                    a.set(p, j, x);
                    let (x, y) = (inv.get(col, j), inv.get(p, j));
                    inv.set(col, j, y);
                    inv.set(p, j, x);
                }
            }
            let pv = a.get(col, col).recip();
            for j in 0..n {
                a.set(col, j, a.get(col, j) * pv);
                inv.set(col, j, inv.get(col, j) * pv);
            }
            for i in 0..n {
                if i == col {
                    continue;
                }
                let f = a.get(i, col);
                if f.is_zero() {
                    continue;
                }
                for j in 0..n {
                    a.set(i, j, a.get(i, j) - f * a.get(col, j));
                    inv.set(i, j, inv.get(i, j) - f * inv.get(col, j));
                }
            }
        }
        Ok(inv)
    }

    /// Convert to an integer matrix; fails if any entry is fractional.
    pub fn to_int(&self) -> Result<IMat, LinError> {
        let mut out = IMat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = self.get(i, j).to_int()?;
            }
        }
        Ok(out)
    }

    /// `true` iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.rows == self.cols
            && (0..self.rows).all(|i| {
                (0..self.cols).all(|j| {
                    self.get(i, j)
                        == if i == j {
                            Rational::ONE
                        } else {
                            Rational::ZERO
                        }
                })
            })
    }
}

impl fmt::Debug for RMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rational_normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(6, 2).to_int(), Ok(3));
        assert_eq!(Rational::new(3, 2).to_int(), Err(LinError::NotIntegral));
    }

    #[test]
    fn rational_field_ops() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
        assert_eq!(a.recip(), Rational::from_int(2));
        assert!(b < a);
        assert_eq!(Rational::new(-3, 4).abs(), Rational::new(3, 4));
    }

    #[test]
    fn rational_to_int() {
        assert_eq!(Rational::new(6, 2).to_int(), Ok(3));
        assert_eq!(Rational::new(1, 2).to_int(), Err(LinError::NotIntegral));
    }

    #[test]
    fn rmat_inverse_roundtrip() {
        let a = IMat::from_rows(&[&[2, 1], &[7, 4]]);
        let r = RMat::from_int(&a);
        let inv = r.inverse().unwrap();
        assert!(r.mul(&inv).is_identity());
        assert!(inv.mul(&r).is_identity());
    }

    #[test]
    fn rmat_inverse_fractional() {
        let a = IMat::from_rows(&[&[2, 0], &[0, 3]]);
        let inv = RMat::from_int(&a).inverse().unwrap();
        assert_eq!(inv.get(0, 0), Rational::new(1, 2));
        assert_eq!(inv.get(1, 1), Rational::new(1, 3));
        assert!(inv.to_int().is_err());
    }

    #[test]
    fn rmat_singular() {
        let a = IMat::from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(
            RMat::from_int(&a).inverse().unwrap_err(),
            LinError::Singular
        );
    }

    #[test]
    fn rmat_transpose_mul() {
        let a = RMat::from_int(&IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]));
        let at = a.transpose();
        let aat = a.mul(&at);
        assert_eq!(aat.get(0, 0), Rational::from_int(14));
        assert_eq!(aat.get(1, 1), Rational::from_int(77));
        assert_eq!(aat.get(0, 1), aat.get(1, 0));
    }
}
