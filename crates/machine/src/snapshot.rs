//! Snapshot/restore for the machine half of a served plan: the
//! [`Mesh2D`] + [`CostModel`] pair every `rescomm::serve` snapshot entry
//! was simulated on. The serialized form is the shared strict JSON of
//! `rescomm-json`; the plan half lives in `rescomm::snapshot`.
//!
//! Restore is **bit-identical**: `mesh_from_json(mesh_to_json(m))` has
//! `m`'s shape and every cost field exactly. u64s that exceed `i64::MAX`
//! (saturated sentinels such as a disabled control network's start-up)
//! travel as decimal strings, so no value is ever squeezed through an
//! f64. A snapshot file comes from outside the program, so restore also
//! bounds the mesh to [`MAX_MESH_NODES`] before anything allocates for it.
//!
//! Restore errors ([`SnapshotError`]) are structural ("expected field
//! `px`"), not positional — positional errors belong to the JSON parser
//! itself, which reports line/col before this module ever runs.

use crate::mesh::{Mesh2D, MAX_MESH_NODES};
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

fn cost_model_to_json(c: &CostModel) -> JsonValue {
    JsonValue::object([
        ("startup", JsonValue::exact_u64(c.startup)),
        ("per_hop", JsonValue::exact_u64(c.per_hop)),
        ("per_byte", JsonValue::exact_u64(c.per_byte)),
        ("ctrl_startup", JsonValue::exact_u64(c.ctrl_startup)),
        ("ctrl_hop", JsonValue::exact_u64(c.ctrl_hop)),
        ("ctrl_per_byte", JsonValue::exact_u64(c.ctrl_per_byte)),
    ])
}

fn cost_model_from_json(v: &JsonValue) -> Restore<CostModel> {
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
    JsonValue::object([
        ("px", JsonValue::exact_u64(m.px as u64)),
        ("py", JsonValue::exact_u64(m.py as u64)),
        ("cost", cost_model_to_json(&m.cost)),
    ])
}

/// Restore a [`Mesh2D`]; rejects an empty mesh and one with more than
/// [`MAX_MESH_NODES`] nodes.
pub fn mesh_from_json(v: &JsonValue) -> Restore<Mesh2D> {
    let w = "mesh";
    let px = field_usize(v, "px", w)?;
    let py = field_usize(v, "py", w)?;
    if px == 0 || py == 0 {
        return Err(SnapshotError::new("mesh: px and py must be positive"));
    }
    if px.checked_mul(py).is_none_or(|n| n > MAX_MESH_NODES) {
        return Err(SnapshotError::new(format!(
            "mesh: {px}x{py} exceeds {MAX_MESH_NODES} nodes"
        )));
    }
    let cost = cost_model_from_json(field(v, "cost", w)?)?;
    Ok(Mesh2D { px, py, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescomm_json::parse;

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
    fn mesh_restore_rejects_empty_and_oversized_shapes() {
        let ok = mesh_to_json(&Mesh2D::new(256, 256, CostModel::paragon())).render();
        assert!(mesh_from_json(&parse(&ok).unwrap()).is_ok());
        for (shape, needle) in [
            ("\"px\": 0, \"py\": 4", "positive"),
            ("\"px\": 1048576, \"py\": 1048576", "exceeds"),
            ("\"px\": 257, \"py\": 256", "exceeds"),
            ("\"px\": 9223372036854775807, \"py\": 2", "exceeds"),
        ] {
            let text = ok.replace("\"px\": 256, \"py\": 256", shape);
            let e = mesh_from_json(&parse(&text).unwrap()).unwrap_err();
            assert!(e.msg.contains(needle), "{shape}: {e}");
        }
    }
}
