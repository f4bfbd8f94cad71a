//! Phased vs. overlapped execution of multi-phase communication plans,
//! written as a machine-readable baseline to `BENCH_schedule.json`.
//!
//! Workloads are the kernel-zoo decompositions (each unimodular dataflow
//! matrix decomposed into its unirow factor chain, one affine phase per
//! factor, folded through the closed segment algebra) and the paper's
//! motivating-example plan in closed form, at virtual grids 64² through
//! 8192² on the 8×4 mesh. For every row the bin reports the *simulated*
//! makespan under [`ScheduleMode::Phased`] (strict barriers, the
//! historical engine), the default overlapped mode, and the
//! longest-route-first heuristic — all deterministic quantities, so the
//! committed artifact is byte-stable across hosts.
//!
//! ```text
//! cargo run --release -p rescomm-bench --bin schedule_baseline [--smoke] [--out PATH | --check PATH]
//! ```
//!
//! `--smoke` runs the gates only (small grids, no artifact).
//!
//! Gates (checked in both modes, before anything is written):
//!
//! * (a) overlapped ≤ phased on **every** row — the default order keeps
//!   the phased processing order, so this is structural, and the gate
//!   proves the implementation didn't break the structure;
//! * (b) ≥15% makespan reduction on at least one multi-factor kernel-zoo
//!   decomposition — overlap must actually buy something where phases
//!   pipeline;
//! * (c) `Phased` bit-identity with the pre-change simulator
//!   ([`Mesh2D::simulate_phases`]) on every row;
//! * (d) cached replay ([`PhaseSim::run_cached_phases`]) bit-identical
//!   to direct simulation under every mode.

use rescomm_bench::harness::Args;
use rescomm_bench::workload::{host_threads, paragon_mesh, zoo_workloads, Workload};
use rescomm_json::{fixed, raw, JsonDoc, Val};
use rescomm_machine::{CachedPhase, Mesh2D, OverlapOrder, PhaseSim, ScheduleMode};

struct Row {
    workload: &'static str,
    side: usize,
    factors: usize,
    multi_factor: bool,
    messages: usize,
    phased_ns: u64,
    overlapped_ns: u64,
    longest_ns: u64,
}

impl Row {
    fn reduction_pct(&self) -> f64 {
        if self.phased_ns == 0 {
            return 0.0;
        }
        100.0 * (self.phased_ns - self.overlapped_ns) as f64 / self.phased_ns as f64
    }

    fn longest_reduction_pct(&self) -> f64 {
        if self.phased_ns == 0 {
            return 0.0;
        }
        100.0 * (self.phased_ns as f64 - self.longest_ns as f64) / self.phased_ns as f64
    }
}

/// Simulate one workload under all modes and run gates (a), (c), (d).
fn measure(mesh: &Mesh2D, sim: &mut PhaseSim, w: &Workload, side: usize) -> Row {
    // Gate (c): `Phased` is bit-identical to the pre-change simulator.
    let oracle = mesh.simulate_phases(&w.phases);
    let phased = sim.simulate_phases_mode(&w.phases, ScheduleMode::Phased);
    assert_eq!(
        phased, oracle,
        "{} at {side}²: Phased diverged from Mesh2D::simulate_phases",
        w.name
    );
    let overlapped = sim.simulate_phases_mode(&w.phases, ScheduleMode::overlapped());
    let longest = sim.simulate_phases_mode(
        &w.phases,
        ScheduleMode::Overlapped(OverlapOrder::LongestFirst),
    );
    // Gate (a): relaxing barriers in the default order never loses.
    assert!(
        overlapped <= phased,
        "{} at {side}²: overlapped {overlapped} > phased {phased}",
        w.name
    );
    // Gate (d): the cached-replay path reproduces every mode exactly.
    let cached: Vec<CachedPhase> = w.phases.iter().map(|p| CachedPhase::new(mesh, p)).collect();
    for (mode, want) in [
        (ScheduleMode::Phased, phased),
        (ScheduleMode::overlapped(), overlapped),
        (
            ScheduleMode::Overlapped(OverlapOrder::LongestFirst),
            longest,
        ),
    ] {
        assert_eq!(
            sim.run_cached_phases(&cached, mode, 1),
            want,
            "{} at {side}²: cached replay diverged under {mode:?}",
            w.name
        );
    }
    Row {
        workload: w.name,
        side,
        factors: w.factors,
        multi_factor: w.multi_factor,
        messages: w.phases.iter().map(Vec::len).sum(),
        phased_ns: phased,
        overlapped_ns: overlapped,
        longest_ns: longest,
    }
}

/// Gate (b): at least one multi-factor zoo decomposition must pipeline
/// ≥15% of its phased makespan away.
fn gate_multi_factor_win(rows: &[Row]) {
    let best = rows
        .iter()
        .filter(|r| r.multi_factor)
        .map(|r| (r.reduction_pct(), r.workload, r.side))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("no multi-factor rows");
    assert!(
        best.0 >= 15.0,
        "best multi-factor overlap win is {:.1}% ({} at {}²) — gate: ≥15%",
        best.0,
        best.1,
        best.2
    );
    eprintln!(
        "gates ok: overlapped ≤ phased everywhere; best multi-factor win {:.1}% ({} at {}²)",
        best.0, best.1, best.2
    );
}

fn main() {
    let args = Args::parse("BENCH_schedule.json");
    let smoke = args.smoke;
    let bytes = 64u64;
    let mesh = paragon_mesh();
    let mut sim = PhaseSim::new(mesh.clone());

    let sides: &[usize] = if smoke {
        &[48, 64]
    } else {
        &[64, 256, 1024, 4096, 8192]
    };

    let mut rows = Vec::new();
    eprintln!("schedule: phased vs overlapped, grouped(3)×block on 8×4");
    for &side in sides {
        for w in zoo_workloads(&mesh, side, bytes) {
            let row = measure(&mesh, &mut sim, &w, side);
            eprintln!(
                "  {:<22} {side:>4}²  {} phases  phased {:>12} ns   overlapped {:>12} ns (−{:.1}%)   longest-first {:>12} ns (−{:.1}%)",
                row.workload,
                row.factors,
                row.phased_ns,
                row.overlapped_ns,
                row.reduction_pct(),
                row.longest_ns,
                row.longest_reduction_pct(),
            );
            rows.push(row);
        }
    }
    gate_multi_factor_win(&rows);

    if smoke {
        eprintln!("smoke ok: {} rows gated, no artifact written", rows.len());
        return;
    }

    let mut doc = JsonDoc::new();
    doc.field("bench", "schedule")
        .field("mesh", raw("[8, 4]"))
        .field("dist", "grouped(3) x block")
        .field("elem_bytes", bytes)
        .field("host_threads", host_threads());
    doc.rows("schedule", &rows, |r| {
        vec![
            ("workload", Val::from(r.workload)),
            ("grid", Val::from(format!("{0}x{0}", r.side))),
            ("phases", Val::from(r.factors)),
            ("multi_factor", Val::from(r.multi_factor)),
            ("messages", Val::from(r.messages)),
            ("phased_makespan_ns", Val::from(r.phased_ns)),
            ("overlapped_makespan_ns", Val::from(r.overlapped_ns)),
            ("longest_first_makespan_ns", Val::from(r.longest_ns)),
            ("overlap_reduction_pct", fixed(r.reduction_pct(), 2)),
            (
                "longest_first_reduction_pct",
                fixed(r.longest_reduction_pct(), 2),
            ),
        ]
    });
    args.emit(&doc);
}
