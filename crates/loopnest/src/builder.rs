//! Fluent, validating construction of [`LoopNest`]s.

use crate::domain::Domain;
use crate::ir::{Access, AccessId, AccessKind, Array, ArrayId, LoopNest, Statement, StmtId};
use crate::schedule::Schedule;
use rescomm_intlin::IMat;

/// Builder for a [`LoopNest`]. Statements default to a fully parallel
/// schedule; use [`NestBuilder::schedule`] to override.
#[derive(Debug, Clone)]
pub struct NestBuilder {
    name: String,
    arrays: Vec<Array>,
    statements: Vec<Statement>,
    accesses: Vec<Access>,
}

impl NestBuilder {
    /// Start a new nest with a report name.
    pub fn new(name: &str) -> Self {
        NestBuilder {
            name: name.to_string(),
            arrays: Vec::new(),
            statements: Vec::new(),
            accesses: Vec::new(),
        }
    }

    /// Declare an array of dimension `dim`.
    pub fn array(&mut self, name: &str, dim: usize) -> ArrayId {
        assert!(dim > 0, "array {name} with dimension 0");
        self.arrays.push(Array {
            name: name.to_string(),
            dim,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Declare a statement of the given depth and domain (parallel
    /// schedule by default).
    pub fn statement(&mut self, name: &str, depth: usize, domain: Domain) -> StmtId {
        assert!(depth > 0, "statement {name} with depth 0");
        assert_eq!(
            domain.dim(),
            depth,
            "statement {name}: domain/depth mismatch"
        );
        self.statements.push(Statement {
            name: name.to_string(),
            depth,
            domain,
            schedule: Schedule::parallel(depth),
        });
        StmtId(self.statements.len() - 1)
    }

    /// Add an affine guard `g·I ≤ b` to a statement's domain.
    pub fn add_guard(&mut self, s: StmtId, g: &[i64], b: i64) -> &mut Self {
        let st = &mut self.statements[s.0];
        st.domain = st.domain.clone().with_guard(g, b);
        self
    }

    /// Override the schedule of a statement.
    pub fn schedule(&mut self, s: StmtId, sched: Schedule) -> &mut Self {
        assert_eq!(
            sched.depth(),
            self.statements[s.0].depth,
            "schedule depth mismatch for {}",
            self.statements[s.0].name
        );
        self.statements[s.0].schedule = sched;
        self
    }

    fn access(&mut self, s: StmtId, x: ArrayId, f: IMat, c: &[i64], kind: AccessKind) -> AccessId {
        let id = AccessId(self.accesses.len());
        self.accesses.push(Access {
            id,
            array: x,
            stmt: s,
            f,
            c: c.to_vec(),
            kind,
        });
        id
    }

    /// Add a read access `x[F·I + c]` to statement `s`.
    pub fn read(&mut self, s: StmtId, x: ArrayId, f: IMat, c: &[i64]) -> AccessId {
        self.access(s, x, f, c, AccessKind::Read)
    }

    /// Add a write access.
    pub fn write(&mut self, s: StmtId, x: ArrayId, f: IMat, c: &[i64]) -> AccessId {
        self.access(s, x, f, c, AccessKind::Write)
    }

    /// Add a reduction access (`x[F·I+c] ⊕= …`).
    pub fn reduce(&mut self, s: StmtId, x: ArrayId, f: IMat, c: &[i64]) -> AccessId {
        self.access(s, x, f, c, AccessKind::Reduce)
    }

    /// Finalize and validate.
    pub fn build(self) -> Result<LoopNest, String> {
        let nest = LoopNest {
            arrays: self.arrays,
            statements: self.statements,
            accesses: self.accesses,
            name: self.name,
        };
        nest.validate()?;
        Ok(nest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_nest() {
        let mut b = NestBuilder::new("t");
        let a = b.array("a", 2);
        let s = b.statement("S", 2, Domain::cube(2, 8));
        b.read(s, a, IMat::identity(2), &[0, 0]);
        b.write(s, a, IMat::from_rows(&[&[0, 1], &[1, 0]]), &[1, 0]);
        let nest = b.build().unwrap();
        assert_eq!(nest.arrays.len(), 1);
        assert_eq!(nest.accesses.len(), 2);
        assert_eq!(nest.by_stmt().of(s).count(), 2);
        assert_eq!(nest.accesses_to(a).count(), 2);
    }

    #[test]
    fn build_rejects_shape_mismatch() {
        let mut b = NestBuilder::new("t");
        let a = b.array("a", 2);
        let s = b.statement("S", 3, Domain::cube(3, 4));
        // F is 2×2 but the statement has depth 3.
        b.read(s, a, IMat::identity(2), &[0, 0]);
        assert!(b.build().is_err());
    }

    #[test]
    fn schedule_override() {
        let mut b = NestBuilder::new("t");
        let a = b.array("a", 1);
        let s = b.statement("S", 2, Domain::cube(2, 4));
        b.schedule(s, Schedule::sequential_outer(2, 1));
        b.write(s, a, IMat::from_rows(&[&[0, 1]]), &[0]);
        let nest = b.build().unwrap();
        assert!(!nest.statement(s).schedule.is_parallel());
    }

    #[test]
    #[should_panic(expected = "schedule depth mismatch")]
    fn schedule_depth_mismatch_panics() {
        let mut b = NestBuilder::new("t");
        let s = b.statement("S", 2, Domain::cube(2, 4));
        b.schedule(s, Schedule::parallel(3));
    }
}
