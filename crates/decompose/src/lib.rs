//! # rescomm-decompose — decomposing affine dataflow matrices
//!
//! Section 4 of the paper: a residual affine communication with dataflow
//! matrix `T` (`p_recv = T·p_send + const`) executes much faster when split
//! into *elementary* communications parallel to one grid axis — Table 2
//! measures the gain on the Intel Paragon. This crate implements:
//!
//! * [`elementary`] — the elementary factors `L(l)` (horizontal) and
//!   `U(k)` (vertical), plus `n`-dimensional unirow matrices;
//! * [`direct`] — the paper's §4.2.1 constructive conditions for products
//!   of 2, 3 and 4 elementary matrices, and a Euclidean fallback that
//!   decomposes *any* `det = 1` matrix (SL₂(ℤ) is generated by `L`, `U`);
//! * [`similar`] — §4.2.2: conjugating `T` by a unimodular `M` (allowed
//!   because alignments are only fixed up to such a factor) to reach a
//!   2-factor similarity class, including the paper's explicit sufficient
//!   condition `c | a − 1`;
//! * [`general`] — §4.4: matrices with `det ≠ ±1` via unirow factors.

#![forbid(unsafe_code)]

pub mod direct;
pub mod elementary;
pub mod general;
pub mod ndim;
pub mod similar;

pub use direct::{decompose_direct, euclid_decompose};
pub use elementary::{product, Elementary};
pub use general::{decompose_general, GenFactor};
pub use ndim::{shear_decompose, shear_product, NShear};
pub use similar::{paper_similarity, search_similarity, SimilarDecomposition};
