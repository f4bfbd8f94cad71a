//! # rescomm-macrocomm — detecting and shaping macro-communications
//!
//! Section 3 of the paper: residual communications that fit a *collective*
//! pattern — broadcast, scatter, gather, reduction — are an order of
//! magnitude cheaper than general affine communications on machines with
//! collective support (Table 1: CM-5 control network). This crate holds the
//! formal detection conditions, all phrased as kernel comparisons, plus the
//! Hermite-based rotation that makes a partial broadcast *axis-parallel*
//! (required for the efficient implementation, following Platonoff) and the
//! message-vectorization test of §3.5.
//!
//! The functions here are pure linear algebra over the allocation and
//! access matrices; wiring them to a concrete [`rescomm_loopnest`] nest is
//! done by the pipeline crate.

#![forbid(unsafe_code)]

pub mod detect;
pub mod rotate;
pub mod vectorize;

pub use detect::{detect, Extent, MacroComm, MacroInput, MacroKind};
pub use rotate::{axis_alignment_rotation, is_axis_confined};
pub use vectorize::vectorizable;
