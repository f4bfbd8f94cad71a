//! Integration tests of the `rescomm-cli` binary (run end to end via
//! `CARGO_BIN_EXE_*`, the standard Cargo mechanism).

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rescomm-cli"))
}

fn write_nest(contents: &str) -> tempfile_path::TempPath {
    tempfile_path::write(contents)
}

/// Minimal self-cleaning temp-file helper (no external crates).
mod tempfile_path {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    /// Per-process file counter: tests run concurrently and many write
    /// the same contents, so neither the pid nor the contents can tell
    /// their files apart.
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    pub fn write(contents: &str) -> TempPath {
        let mut p = std::env::temp_dir();
        let unique = format!(
            "rescomm-cli-test-{}-{}.nest",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        p.push(unique);
        std::fs::write(&p, contents).unwrap();
        TempPath(p)
    }
}

const NEST: &str = "\
nest demo
array a 2
array r 2
stmt S depth 2 domain 0..7 0..7
  write r [1 0; 0 1]
  read  a [1 0; 0 1] + [1 0]
";

/// [`NEST`] plus a sheared read of `r`, which stays residual (a `U(-1)`
/// decomposition), so the Monte Carlo path has messages to replay.
const RESIDUAL_NEST: &str = "\
nest demo
array a 2
array r 2
stmt S depth 2 domain 0..7 0..7
  write r [1 0; 0 1]
  read  a [1 0; 0 1] + [1 0]
  read  r [1 1; 0 1]
";

/// The message count `N` of the Monte Carlo `delivered: … of N messages`
/// line.
fn replayed_messages(text: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| l.starts_with("delivered:"))
        .unwrap_or_else(|| panic!("no delivered line in {text}"));
    let (_, rest) = line.split_once(" of ").expect("delivered: … of N messages");
    rest.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn maps_a_nest_and_reports() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mapping report for `demo`"));
    assert!(text.contains("local"));
}

#[test]
fn dot_output_is_graphviz() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).arg("--dot").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("digraph"));
    assert!(text.contains("style=bold"), "branching edges in bold");
}

#[test]
fn compare_runs_baselines() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).arg("--compare").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Platonoff"));
    assert!(text.contains("step 1 only"));
}

#[test]
fn parse_error_is_reported_with_line() {
    let f = write_nest("nest x\narray a 2\nstmt S depth 2 domain 0..3\n");
    let out = cli().arg(f.as_str()).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 3"), "stderr: {err}");
}

#[test]
fn missing_file_fails_gracefully() {
    let out = cli().arg("/nonexistent/nest.file").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read"));
}

#[test]
fn unknown_flag_rejected() {
    let out = cli().arg("--bogus").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn m_flag_changes_target_dimension() {
    let f = write_nest(NEST);
    let out = cli().arg(f.as_str()).args(["--m", "1"]).output().unwrap();
    assert!(out.status.success());
}

#[test]
fn recover_remaps_and_verifies_on_survivors() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--recover", "5", "--grid", "4x4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("remapping around dead node(s) [5]"), "{text}");
    assert!(text.contains("node-loss remap(s) survived"), "{text}");
    assert!(text.contains("degraded run verified"), "{text}");
    assert!(text.contains("15 survivors"), "{text}");
}

#[test]
fn recover_rejects_killing_every_node() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--recover", "0,1,2,3", "--grid", "2x2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("recovery failed"), "stderr: {err}");
}

#[test]
fn replications_prints_monte_carlo_stats() {
    let f = write_nest(RESIDUAL_NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--replications", "4", "--grid", "4x4", "--drop", "0.2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("monte carlo: 4 replications on a 4x4 mesh, drop 0.20"),
        "{text}"
    );
    assert!(text.contains("healthy makespan:"), "{text}");
    assert!(text.contains("faulty makespan:"), "{text}");
    assert!(replayed_messages(&text) > 0, "{text}");
}

#[test]
fn replications_is_deterministic_across_runs() {
    let f = write_nest(RESIDUAL_NEST);
    let run = || {
        let out = cli()
            .arg(f.as_str())
            .args(["--replications", "3", "--drop", "0.3"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let first = run();
    assert!(replayed_messages(&first) > 0, "{first}");
    assert_eq!(first, run(), "seeded Monte Carlo must be reproducible");
}

/// The Monte Carlo stats of the motivating example at 64 replications
/// and a 5 % drop rate, pinned line for line. A drop-only plan takes the
/// lane path of `replay_faulty`, whose reports must equal the per-seed
/// runs that produced these lines.
#[test]
fn replications_stats_are_pinned() {
    let nest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/nests/motivating.nest"
    );
    let stats = |schedule: &[&str]| {
        let out = cli()
            .arg(nest)
            .args(["--replications", "64", "--drop", "0.05"])
            .args(schedule)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let at = text.find("--- monte carlo").expect("monte carlo section");
        text[at..].to_string()
    };
    let phased = "\
--- monte carlo: 64 replications on a 4x4 mesh, drop 0.05, schedule phased ---
healthy makespan: 1211112 ns
faulty makespan:  mean 1515843 ns, std 168276, min 1211112, max 2064872 (inflation 1.252x)
delivered:        mean 115.0 of 115 messages (min 115, max 115)
";
    assert_eq!(stats(&[]), phased);
    assert_eq!(stats(&["--schedule", "phased"]), phased);
    assert_eq!(
        stats(&["--schedule", "overlapped"]),
        "\
--- monte carlo: 64 replications on a 4x4 mesh, drop 0.05, schedule overlapped ---
healthy makespan: 1029696 ns
faulty makespan:  mean 1264186 ns, std 146273, min 1029696, max 1889416 (inflation 1.228x)
delivered:        mean 115.0 of 115 messages (min 115, max 115)
"
    );
}

#[test]
fn replications_rejects_bad_drop_probability() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--replications", "2", "--drop", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--drop"), "stderr: {err}");
}

#[test]
fn closed_plan_simulates_huge_virtual_grid() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--closed-plan", "--vgrid", "4096x4096", "--grid", "8x8"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("closed plan:"), "{text}");
    assert!(text.contains("affine"), "{text}");
    assert!(
        text.contains("closed-plan makespan at 4096x4096 (phased):"),
        "{text}"
    );
}

#[test]
fn closed_plan_overlapped_schedule_reports_both_makespans() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args([
            "--closed-plan",
            "--vgrid",
            "256x256",
            "--grid",
            "8x4",
            "--schedule",
            "overlapped",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("closed-plan makespan at 256x256 (overlapped):"),
        "{text}"
    );
    assert!(text.contains("phased makespan:"), "{text}");
}

/// The full `--closed-plan` stdout of both example nests at a 256²
/// virtual grid on an 8×8 mesh, pinned byte for byte against
/// `tests/golden/`: once phased, once overlapped with node 5 dead
/// (the phased comparison and the degraded makespan lines).
#[test]
fn closed_plan_stdout_is_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let nests = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/nests");
    for nest in ["motivating", "matmul"] {
        for (run, flags) in [
            ("phased", &["--schedule", "phased"][..]),
            (
                "overlapped_recover",
                &["--schedule", "overlapped", "--recover", "5"][..],
            ),
        ] {
            let out = cli()
                .arg(format!("{nests}/{nest}.nest"))
                .args(["--closed-plan", "--vgrid", "256x256", "--grid", "8x8"])
                .args(flags)
                .output()
                .unwrap();
            assert!(out.status.success(), "{nest} {run}: {out:?}");
            let want = std::fs::read_to_string(format!("{dir}/closed_plan.{nest}.{run}.stdout"));
            assert_eq!(
                String::from_utf8(out.stdout).unwrap(),
                want.unwrap(),
                "{nest} {run}"
            );
        }
    }
}

/// `--self-check` replays each example nest through the reference
/// oracle: it agrees, so stdout is byte-identical to the plain run and no
/// incident is printed.
#[test]
fn self_check_agrees_on_the_example_nests() {
    let nests = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/nests");
    for nest in ["motivating", "matmul"] {
        let path = format!("{nests}/{nest}.nest");
        let plain = cli().arg(&path).output().unwrap();
        let checked = cli().arg(&path).arg("--self-check").output().unwrap();
        assert_eq!(plain.status.code(), Some(0), "{nest}: {plain:?}");
        assert_eq!(checked.status.code(), Some(0), "{nest}: {checked:?}");
        assert_eq!(checked.stdout, plain.stdout, "{nest}");
        let err = String::from_utf8(checked.stderr).unwrap();
        assert!(!err.contains("incident:"), "{nest}: {err}");
    }
}

#[test]
fn schedule_rejects_unknown_mode() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--closed-plan", "--schedule", "chaotic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--schedule"), "stderr: {err}");
}

#[test]
fn closed_plan_rejects_malformed_vgrid_spec() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--closed-plan", "--vgrid", "huge"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--vgrid"), "stderr: {err}");
}

#[test]
fn recover_rejects_malformed_grid_spec() {
    let f = write_nest(NEST);
    let out = cli()
        .arg(f.as_str())
        .args(["--recover", "1", "--grid", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn unrunnable_flag_combinations_are_usage_errors_not_panics() {
    let f = write_nest(NEST);
    for (args, flag) in [
        (&["--closed-plan", "--vgrid", "0x4"][..], "--vgrid"),
        (&["--closed-plan", "--grid", "0x4"][..], "--grid"),
        (&["--replications", "2", "--grid", "0x4"][..], "--grid"),
        (&["--closed-plan", "--grid", "5000x5000"][..], "--grid"),
        (&["--m", "3", "--closed-plan"][..], "--closed-plan"),
        (&["--m", "1", "--replications", "2"][..], "--replications"),
        (&["--m", "0"][..], "--m"),
    ] {
        let out = cli().arg(f.as_str()).args(args).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} must name {flag}: {err}");
    }
}

/// The motivating example with `S1`'s second loop moved next to
/// `i64::MIN`: every value fits, so both plan flags price it, and the
/// recovery remap skips the candidate rotations whose sampled placements
/// would leave `i64` instead of failing on them.
#[test]
fn mirror_edge_nest_prices_under_plan_and_recover_flags() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/nests/motivating.nest"
    ))
    .unwrap()
    .replace(
        "stmt S1 depth 2 domain 0..7 0..7",
        "stmt S1 depth 2 domain 0..1 -9223372036854775807..-9223372036854775806",
    );
    assert!(src.contains("-9223372036854775807"));
    let f = write_nest(&src);
    for args in [
        &["--closed-plan"][..],
        &["--replications", "2"],
        &["--recover", "5"],
    ] {
        let out = cli().arg(f.as_str()).args(args).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        if args.contains(&"--recover") {
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                stdout.contains("degraded run verified: 1540 instances on 15 survivors"),
                "{stdout}"
            );
        }
    }
}

/// The motivating example with `S1`'s second loop moved next to
/// `i64::MAX`: mapping succeeds, but the plan stages' exact subscript
/// arithmetic overflows; and a nest whose read offset leaves `i64` only
/// once added to the subscript. Both plan flags and `--recover` must
/// report that as an analysis error (exit 4) through the CLI's error
/// path, never as a panic (exit 101) or a priced plan, in debug and
/// release builds alike. A nest whose alignment offset chase leaves
/// `i64`, and one whose access matrix has a determinant past `i64`, fail
/// the map itself (the latter also `--dot`'s access graph), with one
/// error line and no panic output.
#[test]
fn plan_stages_report_overflow_as_analysis_errors() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/nests/motivating.nest"
    ))
    .unwrap()
    .replace(
        "stmt S1 depth 2 domain 0..7 0..7",
        "stmt S1 depth 2 domain 0..1 9223372036854775805..9223372036854775806",
    );
    assert!(src.contains("9223372036854775805"));
    let wrap = "nest wrap\narray b 2\n\
                stmt S1 depth 2 domain 0..1 9223372036854775800..9223372036854775802\n  \
                write b [1 0; 0 1] + [0 0]\n  read  b [1 0; 0 1] + [0 7]\n";
    let motivating: &[&[&str]] = &[
        &["--closed-plan"],
        &["--replications", "2"],
        &["--recover", "5"],
        &["--closed-plan", "--recover", "5"],
    ];
    let offset = "nest offset\narray a 2\narray b 2\n\
                  stmt S depth 2 domain 0..1 0..1\n  \
                  read  a [1 0; 0 1] + [-9223372036854775808 0]\n  \
                  write b [1 0; 0 1] + [1 0]\n";
    let huge = "nest huge\narray x 2\nstmt S depth 2 domain 0..3 0..3\n  \
                write x [1 0; 0 1] + [0 0]\n  \
                read  x [4611686018427387903 4611686018427387903; 1 4611686018427387903] + [0 0]\n";
    let plan_error = "analysis error in build_plan";
    let cases: [(&str, &[&[&str]], &str); 5] = [
        (&src, motivating, plan_error),
        (
            wrap,
            &[&["--closed-plan"], &["--replications", "2"]],
            plan_error,
        ),
        (
            offset,
            &[&[]],
            "analysis error in map_nest: i64 overflow in the alignment offset chase",
        ),
        (
            huge,
            &[&[]],
            "analysis error in map_nest: det: integer overflow",
        ),
        (
            huge,
            &[&["--dot"]],
            "analysis error in access_graph: det: integer overflow",
        ),
    ];
    for (src, runs, want) in cases {
        let f = write_nest(src);
        for args in runs {
            let out = cli()
                .arg(f.as_str())
                .args(*args)
                .env("RUST_BACKTRACE", "1")
                .output()
                .unwrap();
            let err = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(4), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?}: {err}");
            assert!(err.contains("analysis error"), "{args:?}: {err}");
            if !args.contains(&"--recover") {
                assert!(err.contains(want), "{args:?}: {err}");
            }
        }
    }
}
