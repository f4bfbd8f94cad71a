//! # rescomm-loopnest — affine loop-nest intermediate representation
//!
//! The computations the paper maps onto distributed-memory machines are
//! *affine loop nests*: possibly non-perfect nests of loops in which every
//! array reference is an affine function `x[F·I + c]` of the iteration
//! vector `I`. This crate provides the IR those analyses run on:
//!
//! * [`ir`] — arrays, statements, affine accesses and whole nests;
//! * [`domain`] — rectangular iteration domains with point iteration;
//! * [`schedule`] — multidimensional linear schedules `θ_S` (a DOALL nest
//!   is the all-zero one-row schedule: every iteration at timestep 0);
//! * [`builder`] — a fluent, validating construction API;
//! * [`parser`] — a small text format for nests (used by examples/CLI);
//! * [`deps`] — an exact (enumerative) dependence test used to validate
//!   that the paper's example nests are DOALL, as the paper does with Tiny;
//! * [`examples`] — the paper's Examples 1–5 plus classic kernels
//!   (matrix–matrix product, Gaussian elimination) used throughout the
//!   benchmarks. Example 1 is a *reconstruction*: the OCR of the paper lost
//!   the literal matrix entries, so we rebuilt an instance that satisfies
//!   every structural property the text asserts (see DESIGN.md).

#![forbid(unsafe_code)]

pub mod builder;
pub mod deps;
pub mod domain;
pub mod examples;
pub mod ir;
pub mod parser;
pub mod printer;
pub mod schedule;

pub use builder::NestBuilder;
pub use domain::Domain;
pub use ir::{
    Access, AccessId, AccessKind, Array, ArrayId, LoopNest, Statement, StmtAccesses, StmtId,
};
pub use parser::{parse_nest, ParseError};
pub use printer::to_text;
pub use schedule::Schedule;
