//! # rescomm-accessgraph — the access graph and its maximum branching
//!
//! Step 1 of the paper's heuristic (§2.2, §6): build the *access graph*
//! `G(V, E, m)` of a loop nest — vertices are statements and arrays, one
//! edge per full-rank affine access of rank ≥ `m` — then extract a
//! **maximum branching** (Edmonds) so that as many communications as
//! possible, with priority to those moving the most data, can be zeroed
//! out, and finally try to re-add the left-over edges when their
//! path/cycle compatibility conditions hold.
//!
//! * [`graph`] — graph construction with the paper's orientation rules
//!   (flat access ⇒ array→statement with weight `F`; narrow ⇒
//!   statement→array with weight a `G` s.t. `G·F = Id`; square unimodular ⇒
//!   both directions), integer weights = `rank F`;
//! * [`branching`] — Chu–Liu/Edmonds maximum branching with cycle
//!   contraction, validated against brute force;
//! * [`paths`] — relative alignment matrices along branching paths;
//! * [`mod@augment`] — step 1(c): free re-additions (identity cycles /
//!   duplicate paths) and rank-deficient constraint additions
//!   (`M·(F_{p1} − F_{p2}) = 0` with full-rank `M`).

#![forbid(unsafe_code)]

pub mod augment;
pub mod branching;
pub mod dot;
pub mod graph;
pub mod paths;
pub mod reference;

pub use augment::{augment, merge_cross_components, AugmentOutcome, Augmented, RootConstraints};
pub use branching::{maximum_branching, Branching};
pub use dot::to_dot;
pub use graph::{AccessGraph, Edge, EdgeClasses, EdgeId, Exclusion, Vertex};
pub use paths::{component_structure, Component, Components};
