//! # rescomm-bench — regenerating every table and figure of the paper
//!
//! Each experiment is a pure function returning structured rows, consumed
//! by (a) the `src/bin/*` harness binaries that print the same rows the
//! paper reports — the one way to regenerate each artifact — and (b) the
//! integration tests that assert the paper's qualitative claims (who
//! wins, by what rough factor) hold on the simulated machines. The
//! baseline bins that write the committed `BENCH_*.json` artifacts share
//! [`harness`] (flags, timing loop, scaling rows) and the generators in
//! [`workload`].
//!
//! | paper artifact | function | regenerate |
//! |----------------|----------|------------|
//! | Table 1 (CM-5 data-movement ratios)            | [`table1`]   | `--bin table1` |
//! | Table 2 (decomposing `T = L·U` on the Paragon) | [`table2`], [`combined`] | `--bin table2` |
//! | Figure 6/7 (grouped-partition layouts)         | [`figure7_layout`] | `--bin figure7` |
//! | Figure 8 (grouped partition vs HPF schemes)    | [`figure8`]  | `--bin figure8` |
//! | §7.2 Example 5 (ours vs Platonoff)             | [`example5`] | `--bin example5` |
//! | §2 motivating example end-to-end, with the step-2 ablations | [`motivating`] | `--bin motivating` |
//! | §3.5 message vectorization                     | [`vectorization`] | `--bin vectorization` |
//! | decomposition advantage vs message size        | [`table2_crossover`] | `--bin crossover` |
//! | §5.4 grouped partition on an undecomposed `T`  | [`workload::simulate_dataflow_with`] | `--bin grouped_general` |
//!
//! Each `--bin NAME` runs as `cargo run -p rescomm-bench --bin NAME`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod workload;

pub use experiments::{
    combined, example5, figure7_layout, figure8, motivating, table1, table2, table2_crossover,
    vectorization, CombinedRow, CrossoverRow, Example5Row, Figure8Row, MotivatingRow, Table1Row,
    Table2Row, VectorizationRow,
};
