//! Property tests for the loop-nest IR: parser robustness, a differential
//! net against the previous parser on mutated nest text, print↔parse
//! round-trips, domain iteration invariants, and schedule algebra.

mod oracle;

use proptest::prelude::*;
use rescomm_intlin::IMat;
use rescomm_loopnest::examples as zoo;
use rescomm_loopnest::parser::{parse_nest, ParseError};
use rescomm_loopnest::{to_text, Access, Domain, LoopNest, NestBuilder, Schedule};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

fn random_nest() -> impl Strategy<Value = LoopNest> {
    (
        proptest::collection::vec(1usize..=3, 1..=3),
        proptest::collection::vec(1usize..=3, 1..=2),
        proptest::collection::vec(
            (
                0usize..100,
                0usize..100,
                proptest::collection::vec(-3i64..=3, 9),
                proptest::collection::vec(-2i64..=2, 3),
                0u8..3,
            ),
            0..=6,
        ),
        proptest::collection::vec(any::<bool>(), 2),
    )
        .prop_map(|(dims, depths, accs, seqs)| {
            let mut b = NestBuilder::new("fuzz");
            let arrays: Vec<_> = dims
                .iter()
                .enumerate()
                .map(|(i, &d)| b.array(&format!("x{i}"), d))
                .collect();
            let stmts: Vec<_> = depths
                .iter()
                .enumerate()
                .map(|(i, &d)| b.statement(&format!("S{i}"), d, Domain::cube(d, 3)))
                .collect();
            for (i, (&sid, &d)) in stmts.iter().zip(&depths).enumerate() {
                if seqs.get(i).copied().unwrap_or(false) && d >= 1 {
                    b.schedule(sid, Schedule::sequential_outer(d, 1));
                }
            }
            for (ai, si, coeffs, offs, kind) in accs {
                let x = arrays[ai % arrays.len()];
                let s = stmts[si % stmts.len()];
                let q = dims[ai % arrays.len()];
                let d = depths[si % stmts.len()];
                let f = IMat::from_fn(q, d, |i, j| coeffs[(i * d + j) % coeffs.len()]);
                let c: Vec<i64> = (0..q).map(|i| offs[i % offs.len()]).collect();
                match kind {
                    0 => b.read(s, x, f, &c),
                    1 => b.write(s, x, f, &c),
                    _ => b.reduce(s, x, f, &c),
                };
            }
            b.build().expect("generated nest is valid")
        })
}

/// Chained stencil of `n` depth-2 statements: `S_i` writes `a_i`, reads
/// `a_{i-1}` and a shared `g` through a transform picked by `pick`.
fn chained_stencil(n: usize, size: i64, pick: impl Fn(usize) -> usize) -> LoopNest {
    let fam = [
        IMat::identity(2),
        IMat::from_rows(&[&[0, 1], &[1, 0]]),
        IMat::from_rows(&[&[0, -1], &[1, 0]]),
    ];
    let mut b = NestBuilder::new("chained-stencil");
    let g = b.array("g", 2);
    let stages: Vec<_> = (0..=n).map(|i| b.array(&format!("a{i}"), 2)).collect();
    for i in 1..=n {
        let s = b.statement(&format!("S{i}"), 2, Domain::cube(2, size));
        b.write(s, stages[i], IMat::identity(2), &[0, 0]);
        b.read(s, stages[i - 1], fam[pick(2 * i) % 3].clone(), &[0, 0]);
        let off = (pick(2 * i + 1) % 2) as i64;
        b.read(s, g, fam[pick(2 * i + 1) % 3].clone(), &[off, 0]);
    }
    b.build().expect("chained stencil nest is valid")
}

/// Pipeline of `n` depth-3 statements: `P_i` writes `b_i`, reads `b_{i-1}`
/// through a 3×3 permutation and a shared 2-D `c` through a flat 2×3 map.
fn pipeline(n: usize, size: i64, pick: impl Fn(usize) -> usize) -> LoopNest {
    let perms = [
        IMat::identity(3),
        IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1], &[1, 0, 0]]),
        IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
    ];
    let flats = [
        IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]),
        IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1]]),
        IMat::from_rows(&[&[1, 1, 0], &[0, 1, 1]]),
    ];
    let mut b = NestBuilder::new("pipeline");
    let c = b.array("c", 2);
    let stages: Vec<_> = (0..=n).map(|i| b.array(&format!("b{i}"), 3)).collect();
    for i in 1..=n {
        let s = b.statement(&format!("P{i}"), 3, Domain::cube(3, size));
        b.write(s, stages[i], IMat::identity(3), &[0, 0, 0]);
        b.read(s, stages[i - 1], perms[pick(2 * i) % 3].clone(), &[0, 0, 0]);
        b.read(s, c, flats[pick(2 * i + 1) % 3].clone(), &[0, 0]);
    }
    b.build().expect("pipeline nest is valid")
}

/// The text of every kernel-zoo nest at two sizes, then chained-stencil
/// and pipeline nests of 1–6 statements.
fn corpus() -> Vec<String> {
    let mut nests = Vec::new();
    for n in [4, 7] {
        nests.extend([
            zoo::motivating_example(n, 4).0,
            zoo::example2_broadcast(n),
            zoo::example3_gather(n),
            zoo::example4_reduction(n),
            zoo::example5_platonoff(n).0,
            zoo::matmul(n),
            zoo::gauss_elim(n),
            zoo::jacobi2d(n),
            zoo::transpose(n),
            zoo::syrk(n),
            zoo::stencil1d(n, 4),
            zoo::gauss_triangular(n),
            zoo::adi_sweep(n),
        ]);
    }
    for k in 1..=6 {
        nests.push(chained_stencil(k, 4, |i| i * 7 + k));
        nests.push(pipeline(k, 3, |i| i * 5 + k));
    }
    nests.iter().map(to_text).collect()
}

thread_local! {
    /// Set while [`quietly`] runs: its expected panics print nothing.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `f`, catching a panic without printing it.
fn quietly<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    out
}

/// An access whose `F` or offset does not fit its array and statement:
/// the parser reports it on its own line, the oracle at line 0 (from
/// `LoopNest::validate`) or not at all if a later line fails first.
fn is_shape_error(e: &ParseError) -> bool {
    e.msg.starts_with("access to ")
}

/// The parser against the oracle on one source: the parser never panics;
/// where the oracle parses, both give equal nests; where the oracle
/// fails, both fail on the same line (or the parser earlier, on an
/// access-shape error); where the oracle panics, the parser fails.
fn agrees_with_oracle(src: &str) -> Result<(), String> {
    let new = quietly(|| parse_nest(src)).map_err(|_| format!("parser panicked on\n{src}"))?;
    let old = quietly(|| oracle::parse_nest(src));
    let ok = match (&old, &new) {
        (Ok(Ok(o)), Ok(n)) => o == n,
        (Ok(Err(o)), Err(n)) => {
            n.line == o.line || (is_shape_error(n) && (o.line == 0 || n.line < o.line))
        }
        (Err(_), Err(_)) => true,
        _ => false,
    };
    let show = |r: &Result<LoopNest, ParseError>| match r {
        Ok(n) => format!("Ok({} accesses)", n.accesses.len()),
        Err(e) => format!("Err({e})"),
    };
    let old = old.as_ref().map_or("panic".to_string(), show);
    ok.then_some(())
        .ok_or_else(|| format!("oracle {old}, parser {}, on\n{src}", show(&new)))
}

/// Numbers at and past the ends of `i64`, and spellings `str::parse`
/// accepts.
const EXTREMES: [&str; 8] = [
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999",
    "+1",
    "-0",
    "0000000000000000000001",
];

/// Lines that used to panic the parser, and other plausible intruders.
const INTRUDERS: [&str; 8] = [
    "array z 0",
    "stmt T depth 0 domain",
    "schedule linear 1 0 0",
    "schedule linear 1",
    "schedule seqouter 0",
    "guard 1 <= 2",
    "read z [1] + [0 0]",
    "# comment",
];

/// Apply one mutation, chosen and placed by `r`, to `src`.
fn mutate(src: &str, r: &mut u64) -> String {
    let mut next = |n: usize| {
        *r = r
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((*r >> 33) as usize) % n.max(1)
    };
    let bytes = src.as_bytes();
    let mut lines: Vec<&str> = src.split('\n').collect();
    match next(10) {
        0 => {
            let mut b = bytes.to_vec();
            let at = next(b.len());
            if let Some(x) = b.get_mut(at) {
                *x ^= 1 << next(8);
            }
            String::from_utf8_lossy(&b).into_owned()
        }
        1 => String::from_utf8_lossy(&bytes[..next(bytes.len() + 1)]).into_owned(),
        2 => {
            let (i, j) = (next(lines.len()), next(lines.len()));
            lines.swap(i, j);
            lines.join("\n")
        }
        3 => {
            let i = next(lines.len());
            lines.insert(i, lines[i]);
            lines.join("\n")
        }
        4 => {
            lines.remove(next(lines.len()));
            lines.join("\n")
        }
        5 => src.replace('\n', "\r\n"),
        6 => {
            let odd = next(2);
            let mut k = 0;
            src.chars()
                .map(|c| match c {
                    ' ' => {
                        k += 1;
                        if k % 2 == odd {
                            '\t'
                        } else {
                            ' '
                        }
                    }
                    c => c,
                })
                .collect()
        }
        7 => {
            // Replace one integer (with its sign) by an extreme.
            let starts: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit())
                .filter(|&i| i == 0 || !bytes[i - 1].is_ascii_digit())
                .collect();
            let Some(&at) = starts.get(next(starts.len())) else {
                return src.to_string();
            };
            let end = (at..bytes.len())
                .find(|&i| !bytes[i].is_ascii_digit())
                .unwrap_or(bytes.len());
            let at = if at > 0 && bytes[at - 1] == b'-' {
                at - 1
            } else {
                at
            };
            format!(
                "{}{}{}",
                &src[..at],
                EXTREMES[next(EXTREMES.len())],
                &src[end..]
            )
        }
        8 => {
            // A comment that cuts a line, perhaps mid-token.
            let at = (0..=next(bytes.len()))
                .rev()
                .find(|&i| src.is_char_boundary(i));
            let at = at.unwrap_or(0);
            format!("{}#{}", &src[..at], &src[at..])
        }
        _ => {
            let i = next(lines.len() + 1);
            lines.insert(i, INTRUDERS[next(INTRUDERS.len())]);
            lines.join("\n")
        }
    }
}

/// One space of `src`, picked by `r`, replaced by another char that
/// `char::is_whitespace` accepts (which separates tokens as a space
/// does), or by a zero-width space (which does not).
fn odd_space(src: &str, r: u64) -> String {
    const WIDE: [char; 7] = [
        '\u{b}', '\u{c}', '\u{85}', '\u{a0}', '\u{2028}', '\u{3000}', '\u{200b}',
    ];
    let spaces = src.matches(' ').count().max(1);
    let (pick, with) = ((r as usize) % spaces, WIDE[(r >> 32) as usize % WIDE.len()]);
    let mut k = 0;
    src.chars()
        .map(|c| {
            if c == ' ' {
                k += 1;
                if k - 1 == pick {
                    return with;
                }
            }
            c
        })
        .collect()
}

#[test]
fn parser_matches_oracle_on_every_kernel_text_and_line_edit() {
    for src in corpus() {
        agrees_with_oracle(&src).unwrap();
        agrees_with_oracle(&src.replace('\n', "\r\n")).unwrap();
        agrees_with_oracle(&src.replace(' ', "\t")).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        for i in 0..lines.len() {
            let mut cut = lines.clone();
            cut.remove(i);
            agrees_with_oracle(&cut.join("\n")).unwrap();
            let mut twice = lines.clone();
            twice.insert(i, lines[i]);
            agrees_with_oracle(&twice.join("\n")).unwrap();
            for intruder in INTRUDERS {
                let mut more = lines.clone();
                more.insert(i, intruder);
                agrees_with_oracle(&more.join("\n")).unwrap();
            }
        }
    }
}

#[test]
fn former_panics_are_parse_errors_with_line_and_column() {
    for (src, line, col) in [
        ("nest t\narray x 0\n", 2, 9),
        ("nest t\nstmt S depth 0 domain\n", 2, 14),
        (
            "nest t\nstmt S depth 2 domain 0..3 0..3\n  schedule linear 1 0 0\n",
            3,
            12,
        ),
    ] {
        assert!(
            quietly(|| oracle::parse_nest(src)).is_err(),
            "the oracle panics"
        );
        let e = parse_nest(src).unwrap_err();
        assert_eq!((e.line, e.col), (line, col), "{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mutated nest text: byte flips, truncation, swapped, duplicated,
    /// deleted and inserted lines, `\r\n`, tabs, comments, other
    /// whitespace and numbers at and past the ends of `i64`, up to four
    /// at a time.
    #[test]
    fn parser_matches_oracle_on_mutated_nests(
        pick in 0usize..1000,
        seed in any::<u64>(),
        edits in 1usize..=4,
        space in any::<u64>(),
    ) {
        let corpus = corpus();
        let mut src = corpus[pick % corpus.len()].clone();
        let mut r = seed;
        for _ in 0..edits {
            src = mutate(&src, &mut r);
        }
        if space.is_multiple_of(4) {
            src = odd_space(&src, space);
        }
        agrees_with_oracle(&src)?;
    }

    /// Generated nests, printed and mutated once.
    #[test]
    fn parser_matches_oracle_on_mutated_random_nests(nest in random_nest(), seed in any::<u64>()) {
        let src = to_text(&nest);
        agrees_with_oracle(&src)?;
        agrees_with_oracle(&mutate(&src, &mut seed.clone()))?;
    }

    /// The parser never panics, whatever the input.
    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let _ = parse_nest(&src);
    }

    /// …including inputs that look structurally plausible.
    #[test]
    fn parser_never_panics_on_plausible_lines(
        lines in proptest::collection::vec(
            prop_oneof![
                Just("nest t".to_string()),
                Just("array a 2".to_string()),
                Just("stmt S depth 2 domain 0..3 0..3".to_string()),
                Just("read a [1 0; 0 1]".to_string()),
                Just("guard 1 -1 <= 0".to_string()),
                Just("schedule linear 1 0".to_string()),
                Just("array z 0".to_string()),
                Just("stmt T depth 0 domain".to_string()),
                Just("stmt U depth 1 domain 0..3".to_string()),
                Just("schedule linear 1 0 0".to_string()),
                Just("schedule linear 1".to_string()),
                Just("schedule seqouter 3".to_string()),
                Just("read a [1 0] + [0 0 0]".to_string()),
                "[a-z ]{0,20}",
                "(read|write|stmt|guard) [0-9\\[\\]; .<=-]{0,30}",
            ],
            0..12,
        )
    ) {
        let src = lines.join("\n");
        let _ = parse_nest(&src);
    }

    /// print → parse is the identity on generated nests.
    #[test]
    fn print_parse_roundtrip(nest in random_nest()) {
        let text = to_text(&nest);
        let back = parse_nest(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{text}"));
        prop_assert_eq!(&back.arrays, &nest.arrays);
        prop_assert_eq!(back.statements.len(), nest.statements.len());
        for (a, b) in back.statements.iter().zip(&nest.statements) {
            prop_assert_eq!(&a.domain, &b.domain);
            prop_assert_eq!(&a.schedule, &b.schedule);
        }
        // The printer groups accesses by statement, in order within each.
        let mut want: Vec<&Access> = nest.accesses.iter().collect();
        want.sort_by_key(|a| a.stmt);
        prop_assert_eq!(back.accesses.len(), want.len());
        for (a, b) in back.accesses.iter().zip(want) {
            prop_assert_eq!(
                (a.array, a.stmt, &a.f, &a.c, a.kind),
                (b.array, b.stmt, &b.f, &b.c, b.kind)
            );
        }
    }

    /// Domain iteration: count matches exact_size, all points contained,
    /// lexicographic order.
    #[test]
    fn domain_iteration_invariants(
        bounds in proptest::collection::vec((-3i64..=3, 0i64..=3), 1..=3),
        guard in proptest::collection::vec(-2i64..=2, 1..=3),
        b in -4i64..=4,
    ) {
        let bounds: Vec<(i64, i64)> = bounds
            .into_iter()
            .map(|(lo, span)| (lo, lo + span))
            .collect();
        let mut dom = Domain::rect(&bounds);
        if guard.len() == dom.dim() {
            dom = dom.with_guard(&guard, b);
        }
        let pts: Vec<Vec<i64>> = dom.points().collect();
        prop_assert_eq!(pts.len() as u128, dom.exact_size());
        let mut prev: Option<&Vec<i64>> = None;
        for p in &pts {
            prop_assert!(dom.contains(p));
            if let Some(q) = prev {
                prop_assert!(q < p, "not lexicographic: {q:?} !< {p:?}");
            }
            prev = Some(p);
        }
    }

    /// Schedules: concurrency is an equivalence relation compatible with
    /// kernel membership.
    #[test]
    fn schedule_concurrency(pi in proptest::collection::vec(-3i64..=3, 2..=4)) {
        let s = Schedule::linear(&pi);
        let d = pi.len();
        let zero = vec![0i64; d];
        let mut e0 = vec![0i64; d];
        e0[0] = 1;
        prop_assert!(s.concurrent(&zero, &zero));
        let same = s.concurrent(&zero, &e0);
        prop_assert_eq!(same, pi[0] == 0);
    }
}
