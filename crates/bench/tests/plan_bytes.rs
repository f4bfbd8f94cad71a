//! Golden bytes of the explicit (and closed) communication plans.
//!
//! This pins the plan builders' exact output. A plan builder that
//! dedups or walks the domain differently can keep every message count
//! and makespan while reordering the endpoints of an explicit phase;
//! only rendered bytes show it. [`plan_to_json`] below renders a plan
//! phase by phase (each explicit endpoint list in its stored order, each
//! affine phase as its `(T, shift)`), and each digest is the FNV-1a hash
//! of `plan_to_json(&build_plan(..)).render()` (and of the closed
//! plan's), recorded before the plan builder walked composed access
//! maps.

use rescomm::pipeline::{map_nest, MappingOptions};
use rescomm::substrate::decompose::Elementary;
use rescomm::{build_plan, build_plan_closed, CommPlan, PhaseKind, PhasePattern};
use rescomm_json::JsonValue;
use rescomm_loopnest::examples::{self, chained_stencil_nest, pipeline_nest};
use rescomm_loopnest::LoopNest;

fn ints(xs: &[i64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|&x| JsonValue::Int(x)).collect())
}

fn kind_to_json(k: &PhaseKind) -> JsonValue {
    let (tag, arg) = match k {
        PhaseKind::Translation => ("translation", None),
        PhaseKind::CollectiveRound => ("collective_round", None),
        PhaseKind::Elementary(Elementary::L(l)) => ("elementary_l", Some(*l)),
        PhaseKind::Elementary(Elementary::U(u)) => ("elementary_u", Some(*u)),
        PhaseKind::DecompositionShift => ("decomposition_shift", None),
        PhaseKind::UnirowFactor => ("unirow_factor", None),
        PhaseKind::GeneralAffine => ("general_affine", None),
    };
    let mut fields = vec![("kind", JsonValue::Str(tag.to_string()))];
    if let Some(a) = arg {
        fields.push(("arg", JsonValue::Int(a)));
    }
    JsonValue::object(fields)
}

fn pattern_to_json(p: &PhasePattern) -> (JsonValue, Vec<(&'static str, JsonValue)>) {
    match p {
        PhasePattern::Explicit(pairs) => (
            JsonValue::Str("explicit".into()),
            vec![(
                "pairs",
                JsonValue::Array(
                    pairs
                        .iter()
                        .map(|&((sx, sy), (dx, dy))| ints(&[sx, sy, dx, dy]))
                        .collect(),
                ),
            )],
        ),
        PhasePattern::Affine { t, shift } => (
            JsonValue::Str("affine".into()),
            vec![
                ("t", ints(&[t[(0, 0)], t[(0, 1)], t[(1, 0)], t[(1, 1)]])),
                ("shift", ints(&[shift.0, shift.1])),
            ],
        ),
    }
}

/// Render a [`CommPlan`] phase by phase: access id, tagged kind, pattern.
fn plan_to_json(plan: &CommPlan) -> JsonValue {
    JsonValue::object([(
        "phases",
        JsonValue::Array(
            plan.phases
                .iter()
                .map(|ph| {
                    let (pattern_tag, rest) = pattern_to_json(&ph.pattern);
                    let mut fields = vec![
                        ("access", JsonValue::Int(ph.access.0 as i64)),
                        ("k", kind_to_json(&ph.kind)),
                        ("pattern", pattern_tag),
                    ];
                    fields.extend(rest);
                    JsonValue::object(fields)
                })
                .collect(),
        ),
    )])
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The kernel zoo, then the two synthetic families the cold-path
/// benchmark compiles, each at one fixed size. Nests whose plan is empty
/// are skipped, so the digest table names the communicating ones.
fn corpus() -> Vec<LoopNest> {
    vec![
        examples::motivating_example(6, 4).0,
        examples::example2_broadcast(6),
        examples::example3_gather(6),
        examples::example4_reduction(6),
        examples::example5_platonoff(6).0,
        examples::matmul(6),
        examples::gauss_elim(6),
        examples::jacobi2d(6),
        examples::transpose(6),
        examples::syrk(6),
        examples::stencil1d(6, 4),
        examples::gauss_triangular(6),
        examples::adi_sweep(6),
        chained_stencil_nest(12, 6),
        pipeline_nest(12, 4),
    ]
}

/// `(nest name, explicit plan digest, closed plan digest)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("motivating-example", 0xdd5aa4dd9d65a8bc, 0x2da627d226f3abd3),
    ("example2-broadcast", 0x60a18aaa0e916925, 0x60a18aaa0e916925),
    ("example3-gather", 0x10a3b336c61d32c5, 0x10a3b336c61d32c5),
    ("example4-reduction", 0xbf8903e9e5dae7f5, 0xbf8903e9e5dae7f5),
    ("matmul", 0xce928951adb06432, 0xce928951adb06432),
    ("gauss-elim", 0xbf463b340f321361, 0xbf463b340f321361),
    ("jacobi2d", 0xf0b73bdd11fa64a7, 0xb66382df9e66e2b1),
    ("syrk", 0x2f2a3f05e708f686, 0x2f2a3f05e708f686),
    ("stencil1d", 0xff1d797eade0d508, 0x228862048bb0e55c),
    ("gauss-triangular", 0x90703015592ec1ad, 0x90703015592ec1ad),
    ("adi-sweep", 0x4b4f1c499afe97dd, 0xd6c813928a861e22),
    ("chained-stencil", 0x49e02efe6b2c1df8, 0x4785139610cc5cd6),
    ("pipeline", 0x8fde8554e35cbb8e, 0xf6749b82ed25933e),
];

#[test]
fn plan_bytes_match_the_recorded_digests() {
    let mut got = Vec::new();
    for nest in corpus() {
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let explicit = build_plan(&nest, &mapping);
        if explicit.phases.is_empty() {
            continue;
        }
        let closed = build_plan_closed(&nest, &mapping);
        got.push((
            nest.name.clone(),
            fnv1a(plan_to_json(&explicit).render().as_bytes()),
            fnv1a(plan_to_json(&closed).render().as_bytes()),
        ));
    }
    let table: String = got
        .iter()
        .map(|(n, e, c)| format!("    (\"{n}\", 0x{e:016x}, 0x{c:016x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "digest table:\n{table}");
    for ((name, e, c), &(gname, ge, gc)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "corpus order");
        assert_eq!(*e, ge, "{name}: explicit plan bytes changed\n{table}");
        assert_eq!(*c, gc, "{name}: closed plan bytes changed\n{table}");
    }
}
