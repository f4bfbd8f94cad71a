//! `rescomm-cli` — map an affine loop nest (textual format) and report
//! what happens to every communication.
//!
//! ```text
//! rescomm-cli <nest-file> [--m N] [--no-macro] [--no-decompose]
//!             [--unit-weights] [--dot] [--compare] [--self-check]
//!             [--recover N,N,...] [--grid WxH] [--replications N]
//!             [--drop P] [--closed-plan] [--vgrid WxH]
//!             [--schedule phased|overlapped|overlapped-longest|adaptive[:T]]
//! ```
//!
//! * `--m N`           target virtual-grid dimension (default 2)
//! * `--no-macro`      disable step 2(a) (macro-communication detection)
//! * `--no-decompose`  disable step 2(b) (decomposition)
//! * `--unit-weights`  unit edge weights instead of rank weights
//! * `--dot`           print the access graph (with the branching in
//!   bold) as Graphviz DOT instead of the report
//! * `--compare`       also run the Platonoff and step-1-only baselines
//! * `--self-check`    replay through the reference oracle and flag any
//!   disagreement as an incident in the report
//! * `--recover N,...` treat the listed physical nodes as permanently
//!   dead: remap the mapping onto the survivors and verify the degraded
//!   execution end-to-end
//! * `--grid WxH`      physical grid shape for `--recover` and
//!   `--replications` (default 4x4)
//! * `--replications N` Monte Carlo: build the communication plan,
//!   compile it into the batch fault engine, replay it under a lossy
//!   transport with `N` independent seeds and print makespan/delivery
//!   statistics (replication 0 is the classic single-seed run)
//! * `--drop P`        per-message drop probability for
//!   `--replications` (default 0.1)
//! * `--closed-plan`   build the communication plan in closed (affine)
//!   form, verify it, and fold/simulate it on the virtual grid given by
//!   `--vgrid` — construction and fold cost stay flat in the grid area,
//!   so grids like 4096x4096 are practical
//! * `--vgrid WxH`     virtual grid shape for `--closed-plan`
//!   (default 1024x1024)
//! * `--schedule M`    schedule policy for the `--closed-plan` and
//!   `--replications` simulations: `phased` (strict barriers between
//!   phases, the default), `overlapped` (a phase-k+1 message starts as
//!   soon as its source node has all phase-k inflows; never slower than
//!   phased on healthy runs), `overlapped-longest` (overlapped with a
//!   longest-route-first priority heuristic), or `adaptive[:T]` (run
//!   overlapped, fall back to phased barriers for the remaining phases
//!   once fault inflation over the healthy overlapped baseline exceeds
//!   `T`, default 1.5). Overlapped modes also print the phased makespan
//!   and the reduction achieved. The policy composes with `--drop`,
//!   `--recover` and `--replications`: the Monte Carlo healthy baseline
//!   and every faulty replication are scheduled under the same policy,
//!   and with `--recover` the closed plan is additionally folded onto
//!   the survivor set and re-simulated
//!
//! Malformed nests and arithmetic overflow exit with a diagnostic
//! (line/column for parse errors) instead of a panic. The exit code
//! tells scripts *which* stage failed: `0` success, `1` usage or I/O,
//! then one distinct code per [`rescomm::RescommError`] variant —
//! `2` parse, `3` linear algebra, `4` analysis, `5` execution,
//! `6` cancelled (see `RescommError::exit_code`). Incidents absorbed
//! during mapping (oracle fallbacks, failed self-checks, node-loss
//! remaps) are printed to stderr, one `incident:` line each.
//!
//! The nest format is documented in `rescomm_loopnest::parser`.

use rescomm::baselines::{feautrier_map, platonoff_map};
use rescomm::substrate::accessgraph::{maximum_branching, to_dot, AccessGraph};
use rescomm::{
    map_nest, remap_for_survivors, verify_execution_on, DegradedGrid, Mapping, MappingOptions,
    RescommError,
};
use rescomm_loopnest::parser::parse_nest;
use std::process::ExitCode;

/// Exit with the stage-specific code for a pipeline error.
fn fail(file: &str, e: RescommError) -> ExitCode {
    eprintln!("{file}: {e}");
    ExitCode::from(e.exit_code())
}

/// Surface every absorbed incident on stderr (the report only counts
/// them; scripts watching stderr get the details).
fn print_incidents(mapping: &Mapping) {
    for inc in &mapping.incidents {
        eprintln!("incident: {inc}");
    }
}

struct Args {
    file: String,
    m: usize,
    no_macro: bool,
    no_decompose: bool,
    unit_weights: bool,
    dot: bool,
    compare: bool,
    self_check: bool,
    recover: Vec<usize>,
    grid: (usize, usize),
    replications: usize,
    drop_prob: f64,
    closed_plan: bool,
    vgrid: (usize, usize),
    schedule: rescomm::SchedulePolicy,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        m: 2,
        no_macro: false,
        no_decompose: false,
        unit_weights: false,
        dot: false,
        compare: false,
        self_check: false,
        recover: Vec::new(),
        grid: (4, 4),
        replications: 0,
        drop_prob: 0.1,
        closed_plan: false,
        vgrid: (1024, 1024),
        schedule: rescomm::SchedulePolicy::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--m" => {
                args.m = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--m needs an integer")?;
            }
            "--no-macro" => args.no_macro = true,
            "--no-decompose" => args.no_decompose = true,
            "--unit-weights" => args.unit_weights = true,
            "--dot" => args.dot = true,
            "--compare" => args.compare = true,
            "--self-check" => args.self_check = true,
            "--recover" => {
                let list = it.next().ok_or("--recover needs a node list")?;
                for part in list.split(',') {
                    args.recover.push(
                        part.trim()
                            .parse()
                            .map_err(|_| format!("--recover: bad node id {part:?}"))?,
                    );
                }
            }
            "--grid" => {
                let spec = it.next().ok_or("--grid needs WxH")?;
                let (w, h) = spec.split_once('x').ok_or("--grid needs WxH, e.g. 4x4")?;
                args.grid = (
                    w.parse().map_err(|_| format!("--grid: bad width {w:?}"))?,
                    h.parse().map_err(|_| format!("--grid: bad height {h:?}"))?,
                );
            }
            "--replications" => {
                args.replications = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--replications needs an integer")?;
            }
            "--closed-plan" => args.closed_plan = true,
            "--schedule" => {
                let spec = it.next().ok_or("--schedule needs a mode")?;
                args.schedule = rescomm::SchedulePolicy::parse(&spec).ok_or(format!(
                    "--schedule: unknown policy {spec:?} \
                     (expected phased, overlapped, overlapped-longest or \
                     adaptive[:threshold], threshold >= 1)"
                ))?;
            }
            "--vgrid" => {
                let spec = it.next().ok_or("--vgrid needs WxH")?;
                let (w, h) = spec
                    .split_once('x')
                    .ok_or("--vgrid needs WxH, e.g. 4096x4096")?;
                args.vgrid = (
                    w.parse().map_err(|_| format!("--vgrid: bad width {w:?}"))?,
                    h.parse()
                        .map_err(|_| format!("--vgrid: bad height {h:?}"))?,
                );
            }
            "--drop" => {
                args.drop_prob = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or("--drop needs a probability in [0, 1]")?;
            }
            "--help" | "-h" => {
                return Err("usage: rescomm-cli <nest-file> [--m N] [--no-macro] \
                            [--no-decompose] [--unit-weights] [--dot] [--compare] \
                            [--self-check] [--recover N,N,...] [--grid WxH] \
                            [--replications N] [--drop P] [--closed-plan] \
                            [--vgrid WxH] \
                            [--schedule phased|overlapped|overlapped-longest|adaptive[:T]]"
                    .to_string())
            }
            f if !f.starts_with('-') && args.file.is_empty() => args.file = f.to_string(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.file.is_empty() {
        return Err("missing nest file (try --help)".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let src = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let nest = match parse_nest(&src) {
        Ok(n) => n,
        Err(e) => return fail(&args.file, RescommError::from(e)),
    };

    if args.dot {
        let g = AccessGraph::build_weighted(&nest, args.m, !args.unit_weights);
        let b = maximum_branching(&g);
        print!("{}", to_dot(&g, &nest, Some(&b)));
        return ExitCode::SUCCESS;
    }

    let mut opts = MappingOptions::new(args.m);
    opts.enable_macro = !args.no_macro;
    opts.enable_decompose = !args.no_decompose;
    opts.weight_by_rank = !args.unit_weights;
    opts.self_check = args.self_check;

    println!("{nest}");
    let mapping = match map_nest(&nest, &opts) {
        Ok(m) => m,
        Err(e) => return fail(&args.file, e),
    };
    print_incidents(&mapping);
    println!("{}", mapping.report(&nest));

    if !args.recover.is_empty() {
        let (w, h) = args.grid;
        println!(
            "--- recovery: remapping around dead node(s) {:?} on a {w}x{h} grid ---",
            args.recover
        );
        let remapped = match remap_for_survivors(&nest, &mapping, &opts, &args.recover, args.grid) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{}: recovery failed", args.file);
                return fail(&args.file, e);
            }
        };
        print_incidents(&remapped);
        println!("{}", remapped.report(&nest));
        let grid = match DegradedGrid::new(w, h, &args.recover) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{}: {e}", args.file);
                return ExitCode::FAILURE;
            }
        };
        match verify_execution_on(&nest, &remapped, Some(&grid)) {
            Ok(stats) => println!(
                "degraded run verified: {} instances on {} survivors, \
                 {} displaced, read locality {:.3}",
                stats.instances,
                grid.survivors(),
                stats.remapped_placements,
                stats.read_locality()
            ),
            Err(e) => {
                eprintln!("{}: degraded verification failed", args.file);
                return fail(&args.file, e);
            }
        }
    }

    if args.closed_plan {
        use rescomm::substrate::distribution::{Dist1D, Dist2D};
        use rescomm::substrate::machine::{CostModel, Mesh2D};
        use rescomm::{build_plan_closed, PhasePattern};
        let (w, h) = args.grid;
        let (vw, vh) = args.vgrid;
        let plan = build_plan_closed(&nest, &mapping);
        println!(
            "--- closed plan: {} phases ({} affine) on a {w}x{h} mesh, \
             virtual grid {vw}x{vh} ---",
            plan.phases.len(),
            plan.affine_phase_count()
        );
        for ph in &plan.phases {
            match &ph.pattern {
                PhasePattern::Affine { t, shift } => println!(
                    "  {:?} {:?}: affine T=[[{},{}],[{},{}]] shift=({},{})",
                    ph.access,
                    ph.kind,
                    t[(0, 0)],
                    t[(0, 1)],
                    t[(1, 0)],
                    t[(1, 1)],
                    shift.0,
                    shift.1
                ),
                PhasePattern::Explicit(v) => println!(
                    "  {:?} {:?}: explicit, {} endpoint pairs",
                    ph.access,
                    ph.kind,
                    v.len()
                ),
            }
        }
        if let Err(e) = plan.verify_availability(&nest, &mapping) {
            eprintln!("{}: closed plan availability failed: {e}", args.file);
            return ExitCode::FAILURE;
        }
        let mesh = Mesh2D::new(w, h, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let mode = args.schedule.healthy_mode();
        let t = plan.simulate_on_mesh(&mesh, dist, (vw, vh), 64, mode);
        println!(
            "closed-plan makespan at {vw}x{vh} ({}): {t} ns",
            mode.label()
        );
        if mode != rescomm::ScheduleMode::Phased {
            let phased =
                plan.simulate_on_mesh(&mesh, dist, (vw, vh), 64, rescomm::ScheduleMode::Phased);
            let pct = if phased > 0 {
                100.0 * (phased.saturating_sub(t)) as f64 / phased as f64
            } else {
                0.0
            };
            println!("phased makespan:  {phased} ns (overlap saves {pct:.1}%)");
        }
        if !args.recover.is_empty() {
            // Compose with --recover: fold the lowered phases onto the
            // survivor set (the compiler-side twin of the simulator's
            // post-death folding) and re-simulate under the same mode.
            use rescomm::substrate::machine::PhaseSim;
            match DegradedGrid::new(w, h, &args.recover) {
                Ok(grid) => {
                    let (folded, redirected) =
                        grid.fold_phases(&plan.phases_on_mesh(&mesh, dist, (vw, vh), 64));
                    let td = PhaseSim::new(mesh.clone()).simulate_phases_mode(&folded, mode);
                    println!(
                        "degraded makespan on {} survivors ({}): {td} ns \
                         ({redirected} endpoints folded)",
                        grid.survivors(),
                        mode.label()
                    );
                }
                Err(e) => {
                    eprintln!("{}: {e}", args.file);
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if args.replications > 0 {
        use rescomm::build_plan;
        use rescomm::substrate::distribution::{Dist1D, Dist2D};
        use rescomm::substrate::machine::{
            replication_seed, CostModel, FaultPlan, Mesh2D, OnlineStats,
        };
        let (w, h) = args.grid;
        let mesh = Mesh2D::new(w, h, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Cyclic);
        let plan = build_plan(&nest, &mapping);
        // The healthy reference for inflation runs under the same
        // policy's fault-free mode as the replications themselves.
        let healthy =
            plan.simulate_on_mesh(&mesh, dist, (24, 24), 64, args.schedule.healthy_mode());
        let fplan = FaultPlan {
            seed: 42,
            drop_prob: args.drop_prob,
            ..FaultPlan::none()
        };
        let seeds: Vec<u64> = (0..args.replications as u64)
            .map(|r| replication_seed(fplan.seed, r))
            .collect();
        let reports = plan
            .fault_engine(&mesh, dist, (24, 24), 64, &fplan)
            .replay_faulty(&seeds, args.schedule);
        let mut makespan = OnlineStats::default();
        let mut delivered = OnlineStats::default();
        let mut total_msgs = 0u64;
        let mut downgrades = 0u64;
        for r in &reports {
            makespan.push(r.makespan as f64);
            delivered.push(r.delivered as f64);
            total_msgs = r.messages as u64;
            downgrades += r.downgrades;
        }
        println!(
            "--- monte carlo: {} replications on a {w}x{h} mesh, drop {:.2}, schedule {} ---",
            args.replications,
            args.drop_prob,
            args.schedule.label()
        );
        println!("healthy makespan: {healthy} ns");
        println!(
            "faulty makespan:  mean {:.0} ns, std {:.0}, min {}, max {} (inflation {:.3}x)",
            makespan.mean(),
            makespan.std_dev(),
            makespan.min() as u64,
            makespan.max() as u64,
            if healthy > 0 {
                makespan.mean() / healthy as f64
            } else {
                1.0
            }
        );
        println!(
            "delivered:        mean {:.1} of {} messages (min {}, max {})",
            delivered.mean(),
            total_msgs,
            delivered.min() as u64,
            delivered.max() as u64
        );
        if let rescomm::SchedulePolicy::Adaptive { .. } = args.schedule {
            println!(
                "adaptive:         {downgrades} downgrade(s) to phased barriers \
                 across {} replications",
                args.replications
            );
        }
    }

    if args.compare {
        println!("--- baseline: step 1 only (greedy zeroing) ---");
        match feautrier_map(&nest, args.m) {
            Ok(m) => println!("{}", m.report(&nest)),
            Err(e) => eprintln!("{}: {e}", args.file),
        }
        println!("--- baseline: Platonoff (macro-first) ---");
        println!("{}", platonoff_map(&nest, args.m).report(&nest));
    }
    ExitCode::SUCCESS
}
