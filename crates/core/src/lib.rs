//! # rescomm — how to optimize residual communications
//!
//! A faithful reimplementation of Dion, Randriamaro & Robert,
//! *"How to optimize residual communications?"* (IPPS 1996 / LIP RR-95-27):
//! mapping affine loop nests onto distributed-memory parallel computers by
//! (1) zeroing out as many communications as possible — access graph,
//! maximum branching, multiple-path/cycle augmentation — and (2) turning
//! the residual communications into cheap ones: macro-communications
//! (broadcast / scatter / gather / reduction, rotated parallel to the grid
//! axes) or decompositions into elementary axis-parallel factors.
//!
//! ## Quickstart
//!
//! ```
//! use rescomm::{map_nest, MappingOptions};
//! use rescomm_loopnest::examples::motivating_example;
//!
//! let (nest, _) = motivating_example(8, 4);
//! let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
//! let report = mapping.report(&nest);
//! println!("{report}");
//! assert_eq!(report.n_local, 5);
//! assert_eq!(report.n_broadcast, 2); // F6 + the "lucky coincidence" F8
//! assert_eq!(report.n_decomposed, 1); // F3 = L(1)·U(1) after rotation
//! ```
//!
//! [`serve`] runs the same pipeline as a crash-safe JSON-lines service.
//! Its snapshots keep served answers, not plans: a restart recomputes
//! each entry through the miss path and keeps it only if the answer
//! comes out byte for byte (`DESIGN.md` §15).
//!
//! The crate re-exports the substrates (`rescomm_intlin`, …) under
//! [`substrate`] so downstream users need a single dependency.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod error;
pub mod exec;
pub mod pipeline;
pub mod plan;
pub mod recover;
pub mod report;
pub mod serve;

pub use error::{guarded, CancelToken, Cancelled, Incident, IncidentKind, RescommError};
pub use exec::{
    run_distributed, run_distributed_on, verify_execution, verify_execution_on, ExecStats,
};
pub use pipeline::{
    dataflow_matrix, map_nest, map_nest_batch, map_nest_cancellable, map_nest_reference,
    map_nest_with, AnalysisCache, CommOutcome, Mapping, MappingOptions,
};
pub use plan::{build_plan, build_plan_closed, compile, CompileOptions, Compiled};
pub use plan::{CommPhase, CommPlan, PhaseKind, PhasePattern};
pub use recover::{remap_for_survivors, DegradedGrid};
pub use report::MappingReport;
// The schedule-mode knob of `CompileOptions`, re-exported so plan
// consumers don't need a direct `rescomm_machine` dependency.
pub use rescomm_machine::{OverlapOrder, ScheduleMode, SchedulePolicy};

/// Re-exports of the substrate crates.
pub mod substrate {
    pub use rescomm_accessgraph as accessgraph;
    pub use rescomm_alignment as alignment;
    pub use rescomm_decompose as decompose;
    pub use rescomm_distribution as distribution;
    pub use rescomm_intlin as intlin;
    pub use rescomm_loopnest as loopnest;
    pub use rescomm_machine as machine;
    pub use rescomm_macrocomm as macrocomm;
}
