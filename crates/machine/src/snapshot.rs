//! Snapshot/restore for the machine layer's hot artifacts.
//!
//! The mapping service (`rescomm::serve`) keeps compiled plans warm in
//! memory and checkpoints them to disk so a `kill -9` loses nothing. The
//! serialized form is the shared strict JSON of `rescomm-json`; this
//! module is the machine half of that contract: [`FaultPlan`] (with its
//! retry policy and outage windows), the [`Mesh2D`] + [`CostModel`]
//! pair, and [`CompiledFaultPlan`]. Compiled phases are not stored: the
//! service snapshots its communication plans and re-simulates them.
//!
//! Two invariants drive the design:
//!
//! * **Bit-identical restore.** Every `from_json(to_json(x))` rebuilds a
//!   value whose simulated behavior is exactly `x`'s — same makespans
//!   phased and overlapped, same fault outcomes seed for seed. u64s
//!   that exceed `i64::MAX` (saturated sentinels like a disabled control
//!   network's `u64::MAX/4` start-up) are carried as decimal strings so
//!   no value is ever squeezed through an f64. Probabilities round-trip
//!   through Rust's shortest-exact float formatting.
//! * **Compiled state is derived, not stored.** [`CompiledFaultPlan`]'s
//!   interval buckets and fold tables are a deterministic function of
//!   `(plan, mesh)`, so its snapshot is just those two inputs and
//!   restore recompiles — the snapshot format stays stable while the
//!   compiled layout is free to change.
//!
//! Restore errors ([`SnapshotError`]) are structural ("expected field
//! `px`"), not positional — positional errors belong to the JSON parser
//! itself, which reports line/col before this module ever runs.

use crate::fault::{CompiledFaultPlan, FaultPlan, LinkOutage, NodeDeath, NodeOutage, RetryPolicy};
use crate::mesh::Mesh2D;
use crate::model::CostModel;
use rescomm_json::JsonValue;

/// Structural restore error: the JSON was well-formed but is not a valid
/// snapshot of the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// What was wrong, with the offending field path.
    pub msg: String,
}

impl SnapshotError {
    fn new(msg: impl Into<String>) -> Self {
        SnapshotError { msg: msg.into() }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot: {}", self.msg)
    }
}

impl std::error::Error for SnapshotError {}

type Restore<T> = Result<T, SnapshotError>;

// --- primitive helpers -----------------------------------------------------

/// A `u64` as JSON: a plain integer when it fits `i64`, otherwise a
/// decimal string (exactness over prettiness for saturated sentinels).
fn u64_json(x: u64) -> JsonValue {
    if x <= i64::MAX as u64 {
        JsonValue::Int(x as i64)
    } else {
        JsonValue::Str(x.to_string())
    }
}

fn u64_restore(v: &JsonValue, what: &str) -> Restore<u64> {
    match v {
        JsonValue::Int(i) if *i >= 0 => Ok(*i as u64),
        JsonValue::Str(s) => s
            .parse::<u64>()
            .map_err(|_| SnapshotError::new(format!("{what}: invalid u64 string {s:?}"))),
        other => Err(SnapshotError::new(format!(
            "{what}: expected unsigned integer, got {other:?}"
        ))),
    }
}

fn field<'a>(v: &'a JsonValue, key: &str, what: &str) -> Restore<&'a JsonValue> {
    v.get(key)
        .ok_or_else(|| SnapshotError::new(format!("{what}: missing field {key:?}")))
}

fn field_u64(v: &JsonValue, key: &str, what: &str) -> Restore<u64> {
    u64_restore(field(v, key, what)?, &format!("{what}.{key}"))
}

fn field_usize(v: &JsonValue, key: &str, what: &str) -> Restore<usize> {
    usize::try_from(field_u64(v, key, what)?)
        .map_err(|_| SnapshotError::new(format!("{what}.{key}: does not fit usize")))
}

fn field_u32(v: &JsonValue, key: &str, what: &str) -> Restore<u32> {
    u32::try_from(field_u64(v, key, what)?)
        .map_err(|_| SnapshotError::new(format!("{what}.{key}: does not fit u32")))
}

fn field_f64(v: &JsonValue, key: &str, what: &str) -> Restore<f64> {
    field(v, key, what)?
        .as_f64()
        .ok_or_else(|| SnapshotError::new(format!("{what}.{key}: expected number")))
}

fn field_bool(v: &JsonValue, key: &str, what: &str) -> Restore<bool> {
    field(v, key, what)?
        .as_bool()
        .ok_or_else(|| SnapshotError::new(format!("{what}.{key}: expected boolean")))
}

fn field_arr<'a>(v: &'a JsonValue, key: &str, what: &str) -> Restore<&'a [JsonValue]> {
    field(v, key, what)?
        .as_array()
        .ok_or_else(|| SnapshotError::new(format!("{what}.{key}: expected array")))
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// --- cost model / mesh -----------------------------------------------------

/// Serialize a [`CostModel`].
pub fn cost_model_to_json(c: &CostModel) -> JsonValue {
    obj(vec![
        ("startup", u64_json(c.startup)),
        ("per_hop", u64_json(c.per_hop)),
        ("per_byte", u64_json(c.per_byte)),
        ("ctrl_startup", u64_json(c.ctrl_startup)),
        ("ctrl_hop", u64_json(c.ctrl_hop)),
        ("ctrl_per_byte", u64_json(c.ctrl_per_byte)),
    ])
}

/// Restore a [`CostModel`].
pub fn cost_model_from_json(v: &JsonValue) -> Restore<CostModel> {
    let w = "cost_model";
    Ok(CostModel {
        startup: field_u64(v, "startup", w)?,
        per_hop: field_u64(v, "per_hop", w)?,
        per_byte: field_u64(v, "per_byte", w)?,
        ctrl_startup: field_u64(v, "ctrl_startup", w)?,
        ctrl_hop: field_u64(v, "ctrl_hop", w)?,
        ctrl_per_byte: field_u64(v, "ctrl_per_byte", w)?,
    })
}

/// Serialize a [`Mesh2D`] (shape + cost model).
pub fn mesh_to_json(m: &Mesh2D) -> JsonValue {
    obj(vec![
        ("px", u64_json(m.px as u64)),
        ("py", u64_json(m.py as u64)),
        ("cost", cost_model_to_json(&m.cost)),
    ])
}

/// Restore a [`Mesh2D`].
pub fn mesh_from_json(v: &JsonValue) -> Restore<Mesh2D> {
    let w = "mesh";
    let px = field_usize(v, "px", w)?;
    let py = field_usize(v, "py", w)?;
    if px == 0 || py == 0 {
        return Err(SnapshotError::new("mesh: px and py must be positive"));
    }
    let cost = cost_model_from_json(field(v, "cost", w)?)?;
    Ok(Mesh2D { px, py, cost })
}

// --- fault plan ------------------------------------------------------------

/// Serialize a [`RetryPolicy`].
pub fn retry_to_json(r: &RetryPolicy) -> JsonValue {
    obj(vec![
        ("enabled", JsonValue::Bool(r.enabled)),
        ("timeout", u64_json(r.timeout)),
        ("backoff", JsonValue::Int(i64::from(r.backoff))),
        ("max_attempts", JsonValue::Int(i64::from(r.max_attempts))),
    ])
}

/// Restore a [`RetryPolicy`].
pub fn retry_from_json(v: &JsonValue) -> Restore<RetryPolicy> {
    let w = "retry";
    Ok(RetryPolicy {
        enabled: field_bool(v, "enabled", w)?,
        timeout: field_u64(v, "timeout", w)?,
        backoff: field_u32(v, "backoff", w)?,
        max_attempts: field_u32(v, "max_attempts", w)?,
    })
}

/// Serialize a [`FaultPlan`] — every field, including the fault-free
/// defaults, so the format never depends on which knobs a plan touches.
pub fn fault_plan_to_json(p: &FaultPlan) -> JsonValue {
    obj(vec![
        ("seed", u64_json(p.seed)),
        ("drop_prob", JsonValue::Float(p.drop_prob)),
        ("dup_prob", JsonValue::Float(p.dup_prob)),
        (
            "link_outages",
            JsonValue::Array(
                p.link_outages
                    .iter()
                    .map(|o| {
                        obj(vec![
                            ("link", u64_json(o.link as u64)),
                            ("from", u64_json(o.from)),
                            ("until", u64_json(o.until)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "node_outages",
            JsonValue::Array(
                p.node_outages
                    .iter()
                    .map(|o| {
                        obj(vec![
                            ("node", u64_json(o.node as u64)),
                            ("from", u64_json(o.from)),
                            ("until", u64_json(o.until)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "node_deaths",
            JsonValue::Array(
                p.node_deaths
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("node", u64_json(d.node as u64)),
                            ("t", u64_json(d.t)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("detection_latency", u64_json(p.detection_latency)),
        ("ctrl_outage", JsonValue::Bool(p.ctrl_outage)),
        ("retry", retry_to_json(&p.retry)),
    ])
}

/// Restore a [`FaultPlan`].
pub fn fault_plan_from_json(v: &JsonValue) -> Restore<FaultPlan> {
    let w = "fault_plan";
    let link_outages = field_arr(v, "link_outages", w)?
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let w = format!("{w}.link_outages[{i}]");
            Ok(LinkOutage {
                link: field_usize(o, "link", &w)?,
                from: field_u64(o, "from", &w)?,
                until: field_u64(o, "until", &w)?,
            })
        })
        .collect::<Restore<Vec<_>>>()?;
    let node_outages = field_arr(v, "node_outages", w)?
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let w = format!("{w}.node_outages[{i}]");
            Ok(NodeOutage {
                node: field_usize(o, "node", &w)?,
                from: field_u64(o, "from", &w)?,
                until: field_u64(o, "until", &w)?,
            })
        })
        .collect::<Restore<Vec<_>>>()?;
    let node_deaths = field_arr(v, "node_deaths", w)?
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let w = format!("{w}.node_deaths[{i}]");
            Ok(NodeDeath {
                node: field_usize(d, "node", &w)?,
                t: field_u64(d, "t", &w)?,
            })
        })
        .collect::<Restore<Vec<_>>>()?;
    let drop_prob = field_f64(v, "drop_prob", w)?;
    let dup_prob = field_f64(v, "dup_prob", w)?;
    if !(0.0..=1.0).contains(&drop_prob) || !(0.0..=1.0).contains(&dup_prob) {
        return Err(SnapshotError::new(
            "fault_plan: probabilities must lie in [0, 1]",
        ));
    }
    Ok(FaultPlan {
        seed: field_u64(v, "seed", w)?,
        drop_prob,
        dup_prob,
        link_outages,
        node_outages,
        node_deaths,
        detection_latency: field_u64(v, "detection_latency", w)?,
        ctrl_outage: field_bool(v, "ctrl_outage", w)?,
        retry: retry_from_json(field(v, "retry", w)?)?,
    })
}

// --- compiled fault plan ---------------------------------------------------

/// Serialize a [`CompiledFaultPlan`] as its inputs: the source plan and
/// the mesh it was compiled for. The derived tables are not stored —
/// [`CompiledFaultPlan::new`] is deterministic, so restore recompiles and
/// is bit-identical by construction.
pub fn compiled_plan_to_json(c: &CompiledFaultPlan, mesh: &Mesh2D) -> JsonValue {
    obj(vec![
        ("plan", fault_plan_to_json(c.plan())),
        ("mesh", mesh_to_json(mesh)),
    ])
}

/// Restore a [`CompiledFaultPlan`] (and the mesh it belongs to) by
/// recompiling the stored inputs.
pub fn compiled_plan_from_json(v: &JsonValue) -> Restore<(CompiledFaultPlan, Mesh2D)> {
    let w = "compiled_plan";
    let plan = fault_plan_from_json(field(v, "plan", w)?)?;
    let mesh = mesh_from_json(field(v, "mesh", w)?)?;
    Ok((CompiledFaultPlan::new(&plan, &mesh), mesh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescomm_json::parse;

    fn hostile_plan() -> FaultPlan {
        FaultPlan {
            seed: 0xDEAD_BEEF_CAFE,
            drop_prob: 0.05,
            dup_prob: 0.02,
            link_outages: vec![
                LinkOutage {
                    link: 3,
                    from: 0,
                    until: 100,
                },
                LinkOutage {
                    link: 3,
                    from: 50,
                    until: 200,
                },
            ],
            node_outages: vec![NodeOutage {
                node: 5,
                from: 10,
                until: 90,
            }],
            node_deaths: vec![NodeDeath { node: 7, t: 1_000 }],
            detection_latency: 500,
            ctrl_outage: true,
            retry: RetryPolicy {
                enabled: true,
                timeout: 60_000,
                backoff: 3,
                max_attempts: 9,
            },
        }
    }

    #[test]
    fn fault_plan_round_trips_through_text() {
        for plan in [FaultPlan::none(), hostile_plan()] {
            let text = fault_plan_to_json(&plan).render();
            let back = fault_plan_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn mesh_and_saturated_cost_model_round_trip() {
        // Paragon's disabled control network is `u64::MAX/4` — past
        // i64::MAX? No, but force the true worst case explicitly.
        let mut cost = CostModel::paragon();
        cost.ctrl_startup = u64::MAX;
        let m = Mesh2D::new(8, 4, cost);
        let text = mesh_to_json(&m).render();
        let back = mesh_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back.px, 8);
        assert_eq!(back.py, 4);
        assert_eq!(back.cost, m.cost);
        // The saturated value traveled as a string, not a float.
        assert!(text.contains(&format!("\"{}\"", u64::MAX)));
    }

    #[test]
    fn compiled_plan_restores_bit_identical_queries() {
        let m = Mesh2D::new(8, 4, CostModel::paragon());
        let plan = hostile_plan();
        let c = CompiledFaultPlan::new(&plan, &m);
        let text = compiled_plan_to_json(&c, &m).render();
        let (back, back_mesh) = compiled_plan_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back_mesh.px, m.px);
        assert_eq!(back.plan(), &plan);
        for t in [0u64, 49, 60, 100, 199, 999, 1_000, 5_000] {
            assert_eq!(back.link_outage_until(3, t), c.link_outage_until(3, t));
            for node in [5usize, 6, 7] {
                assert_eq!(back.node_alive_after(node, t), c.node_alive_after(node, t));
                assert_eq!(back.node_dead_at(node, t), c.node_dead_at(node, t));
            }
        }
    }

    #[test]
    fn fault_plan_restore_rejects_bad_probability() {
        let mut bad = fault_plan_to_json(&FaultPlan::none()).render();
        bad = bad.replace("\"drop_prob\": 0.0", "\"drop_prob\": 1.5");
        let e = fault_plan_from_json(&parse(&bad).unwrap()).unwrap_err();
        assert!(e.msg.contains("probabilities"), "{e}");
    }
}
