//! Snapshot/restore for [`CommPlan`] — the plan codec behind the
//! service's durability contract (the entry layout around it lives in
//! `rescomm::serve`; see `DESIGN.md` §15).
//!
//! A plan serializes phase by phase: the reporting kind as a tagged
//! string, the pattern either as its explicit endpoint list or as the
//! affine closed form `(T, shift)`. Restore validates structure (a 2×2
//! `T`, 4-tuple endpoint rows) and rebuilds a plan that simulates
//! bit-identically to the original on every mesh, distribution, and
//! schedule mode — the property-test suite pins this.
//!
//! Restore errors ([`SnapshotError`]) are structural ("missing phases
//! array"), not positional — positional errors belong to the JSON parser
//! itself, which reports line/col before this module ever runs.

use crate::plan::{CommPhase, CommPlan, Endpoints, PhaseKind, PhasePattern};
use rescomm_decompose::Elementary;
use rescomm_intlin::IMat;
use rescomm_json::JsonValue;
use rescomm_loopnest::AccessId;

/// Structural restore error: the JSON was well-formed but is not a valid
/// serialized plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// What was wrong, with the offending field path.
    pub msg: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot: {}", self.msg)
    }
}

impl std::error::Error for SnapshotError {}

type Restore<T> = Result<T, SnapshotError>;

fn err<T>(msg: impl Into<String>) -> Restore<T> {
    Err(SnapshotError { msg: msg.into() })
}

fn ints(xs: &[i64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|&x| JsonValue::Int(x)).collect())
}

fn int_row(v: &JsonValue, n: usize, what: &str) -> Restore<Vec<i64>> {
    let arr = match v.as_array() {
        Some(a) if a.len() == n => a,
        _ => return err(format!("{what}: expected array of {n} integers")),
    };
    arr.iter()
        .map(|e| {
            e.as_i64().ok_or_else(|| SnapshotError {
                msg: format!("{what}: expected integer"),
            })
        })
        .collect()
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

fn kind_from_json(v: &JsonValue) -> Restore<PhaseKind> {
    let tag = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| SnapshotError {
            msg: "phase: missing kind tag".into(),
        })?;
    let arg = || {
        v.get("arg")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| SnapshotError {
                msg: format!("phase kind {tag:?}: missing integer arg"),
            })
    };
    Ok(match tag {
        "translation" => PhaseKind::Translation,
        "collective_round" => PhaseKind::CollectiveRound,
        "elementary_l" => PhaseKind::Elementary(Elementary::L(arg()?)),
        "elementary_u" => PhaseKind::Elementary(Elementary::U(arg()?)),
        "decomposition_shift" => PhaseKind::DecompositionShift,
        "unirow_factor" => PhaseKind::UnirowFactor,
        "general_affine" => PhaseKind::GeneralAffine,
        other => return err(format!("phase: unknown kind {other:?}")),
    })
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

fn pattern_from_json(v: &JsonValue) -> Restore<PhasePattern> {
    let tag = v
        .get("pattern")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| SnapshotError {
            msg: "phase: missing pattern tag".into(),
        })?;
    match tag {
        "explicit" => {
            let rows = v
                .get("pairs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| SnapshotError {
                    msg: "explicit pattern: missing pairs array".into(),
                })?;
            let pairs = rows
                .iter()
                .map(|row| {
                    let f = int_row(row, 4, "explicit pair")?;
                    Ok::<Endpoints, SnapshotError>(((f[0], f[1]), (f[2], f[3])))
                })
                .collect::<Restore<Vec<_>>>()?;
            Ok(PhasePattern::Explicit(pairs))
        }
        "affine" => {
            let t = int_row(
                v.get("t").unwrap_or(&JsonValue::Null),
                4,
                "affine pattern t",
            )?;
            let s = int_row(
                v.get("shift").unwrap_or(&JsonValue::Null),
                2,
                "affine pattern shift",
            )?;
            Ok(PhasePattern::Affine {
                t: IMat::from_rows(&[&[t[0], t[1]], &[t[2], t[3]]]),
                shift: (s[0], s[1]),
            })
        }
        other => err(format!("phase: unknown pattern {other:?}")),
    }
}

/// Serialize a [`CommPlan`].
pub fn plan_to_json(plan: &CommPlan) -> JsonValue {
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

/// Restore a [`CommPlan`].
pub fn plan_from_json(v: &JsonValue) -> Restore<CommPlan> {
    let phases = v
        .get("phases")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| SnapshotError {
            msg: "plan: missing phases array".into(),
        })?
        .iter()
        .map(|ph| {
            let access = ph
                .get("access")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| SnapshotError {
                    msg: "phase: missing access id".into(),
                })?;
            Ok(CommPhase {
                access: AccessId(access as usize),
                kind: kind_from_json(ph.get("k").unwrap_or(&JsonValue::Null))?,
                pattern: pattern_from_json(ph)?,
            })
        })
        .collect::<Restore<Vec<_>>>()?;
    Ok(CommPlan { phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescomm_distribution::{Dist1D, Dist2D};
    use rescomm_json::parse;
    use rescomm_machine::{CostModel, Mesh2D, OverlapOrder, ScheduleMode};

    fn sample_plan() -> CommPlan {
        CommPlan {
            phases: vec![
                CommPhase {
                    access: AccessId(0),
                    kind: PhaseKind::Translation,
                    pattern: PhasePattern::Explicit(vec![((0, 0), (1, 0)), ((2, 3), (3, 3))]),
                },
                CommPhase {
                    access: AccessId(1),
                    kind: PhaseKind::Elementary(Elementary::L(2)),
                    pattern: PhasePattern::Affine {
                        t: IMat::from_rows(&[&[1, 0], &[2, 1]]),
                        shift: (0, 0),
                    },
                },
                CommPhase {
                    access: AccessId(1),
                    kind: PhaseKind::Elementary(Elementary::U(-1)),
                    pattern: PhasePattern::Affine {
                        t: IMat::from_rows(&[&[1, -1], &[0, 1]]),
                        shift: (3, -2),
                    },
                },
                CommPhase {
                    access: AccessId(2),
                    kind: PhaseKind::GeneralAffine,
                    pattern: PhasePattern::Explicit(vec![]),
                },
            ],
        }
    }

    #[test]
    fn plan_round_trips_and_simulates_identically() {
        let plan = sample_plan();
        let text = plan_to_json(&plan).render();
        let back = plan_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.phases.len(), plan.phases.len());
        let mesh = Mesh2D::new(8, 4, CostModel::paragon());
        let dist = Dist2D::uniform(Dist1D::Block);
        for mode in [
            ScheduleMode::Phased,
            ScheduleMode::Overlapped(OverlapOrder::default()),
        ] {
            assert_eq!(
                back.simulate_on_mesh(&mesh, dist, (8, 4), 512, mode),
                plan.simulate_on_mesh(&mesh, dist, (8, 4), 512, mode),
                "{mode:?}"
            );
        }
        // Kinds and access ids survive too (the report surface).
        for (a, b) in plan.phases.iter().zip(&back.phases) {
            assert_eq!(a.access, b.access);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn restore_rejects_malformed_plans() {
        for (src, needle) in [
            ("{}", "missing phases"),
            ("{\"phases\": [{}]}", "missing access"),
            (
                "{\"phases\": [{\"access\": 0, \"k\": {\"kind\": \"warp\"}, \
                 \"pattern\": \"explicit\", \"pairs\": []}]}",
                "unknown kind",
            ),
            (
                "{\"phases\": [{\"access\": 0, \"k\": {\"kind\": \"translation\"}, \
                 \"pattern\": \"affine\", \"t\": [1, 0], \"shift\": [0, 0]}]}",
                "expected array of 4",
            ),
            (
                "{\"phases\": [{\"access\": 0, \"k\": {\"kind\": \"elementary_l\"}, \
                 \"pattern\": \"explicit\", \"pairs\": []}]}",
                "missing integer arg",
            ),
        ] {
            let e = plan_from_json(&parse(src).unwrap()).unwrap_err();
            assert!(e.msg.contains(needle), "{src}: {e}");
        }
    }
}
