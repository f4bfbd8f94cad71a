//! Core IR types: arrays, statements, affine accesses, loop nests.

use crate::domain::Domain;
use crate::schedule::Schedule;
use rescomm_intlin::IMat;
use std::fmt;

/// Identifier of an array within a [`LoopNest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// Identifier of a statement within a [`LoopNest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub usize);

/// Identifier of an access within a [`LoopNest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessId(pub usize);

/// An array variable of dimension `dim`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Array {
    /// Source-level name.
    pub name: String,
    /// Dimensionality `q_x`.
    pub dim: usize,
}

/// Read/write direction of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The statement reads the element.
    Read,
    /// The statement writes the element.
    Write,
    /// The statement accumulates into the element with an
    /// associative-commutative operator (`s += …`): reduction candidate.
    Reduce,
}

/// An affine array access `x[F·I + c]` appearing in statement `stmt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Identifier (index into [`LoopNest::accesses`]).
    pub id: AccessId,
    /// The accessed array.
    pub array: ArrayId,
    /// The accessing statement.
    pub stmt: StmtId,
    /// Access matrix `F` (`q_x × d`).
    pub f: IMat,
    /// Constant offset `c` (`q_x` entries).
    pub c: Vec<i64>,
    /// Read, write or reduction.
    pub kind: AccessKind,
}

impl Access {
    /// The array subscript for iteration point `i`: `F·i + c`.
    pub fn subscript(&self, i: &[i64]) -> Vec<i64> {
        self.f.mul_vec_add(i, &self.c)
    }
}

/// A statement of depth `d` with its iteration domain and schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// Source-level name.
    pub name: String,
    /// Loop depth `d` (length of the iteration vector).
    pub depth: usize,
    /// Iteration domain.
    pub domain: Domain,
    /// Schedule `θ_S`.
    pub schedule: Schedule,
}

/// A whole affine loop nest: the unit of the mapping problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    /// Arrays, indexed by [`ArrayId`].
    pub arrays: Vec<Array>,
    /// Statements, indexed by [`StmtId`].
    pub statements: Vec<Statement>,
    /// Affine accesses, indexed by [`AccessId`].
    pub accesses: Vec<Access>,
    /// Human-readable name for reports.
    pub name: String,
}

impl LoopNest {
    /// The array of an id.
    pub fn array(&self, id: ArrayId) -> &Array {
        &self.arrays[id.0]
    }

    /// The statement of an id.
    pub fn statement(&self, id: StmtId) -> &Statement {
        &self.statements[id.0]
    }

    /// The access of an id.
    pub fn access(&self, id: AccessId) -> &Access {
        &self.accesses[id.0]
    }

    /// The accesses of every statement, grouped once (see
    /// [`StmtAccesses`]).
    pub fn by_stmt(&self) -> StmtAccesses<'_> {
        let order = (!self.accesses.is_sorted_by_key(|a| a.stmt)).then(|| {
            let mut order: Vec<usize> = (0..self.accesses.len()).collect();
            order.sort_by_key(|&i| self.accesses[i].stmt); // stable: keeps access order
            order
        });
        StmtAccesses { nest: self, order }
    }

    /// Per statement (indexed by [`StmtId`]): does it accumulate into an
    /// array (a [`AccessKind::Reduce`] access)? One pass over the accesses.
    pub fn reduction_stmts(&self) -> Vec<bool> {
        let mut reduces = vec![false; self.statements.len()];
        for a in self
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Reduce)
        {
            if let Some(r) = reduces.get_mut(a.stmt.0) {
                *r = true;
            }
        }
        reduces
    }

    /// All accesses touching an array.
    pub fn accesses_to(&self, x: ArrayId) -> impl Iterator<Item = &Access> {
        self.accesses.iter().filter(move |a| a.array == x)
    }

    /// Validate internal consistency (shapes of every access matrix and
    /// offset against the statement depth and array dimension).
    pub fn validate(&self) -> Result<(), String> {
        for a in &self.accesses {
            let st = self
                .statements
                .get(a.stmt.0)
                .ok_or_else(|| format!("access {:?}: bad statement id", a.id))?;
            let ar = self
                .arrays
                .get(a.array.0)
                .ok_or_else(|| format!("access {:?}: bad array id", a.id))?;
            if a.f.rows() != ar.dim {
                return Err(format!(
                    "access {:?} on {}: F has {} rows, array has dim {}",
                    a.id,
                    ar.name,
                    a.f.rows(),
                    ar.dim
                ));
            }
            if a.f.cols() != st.depth {
                return Err(format!(
                    "access {:?} on {}: F has {} cols, statement {} has depth {}",
                    a.id,
                    ar.name,
                    a.f.cols(),
                    st.name,
                    st.depth
                ));
            }
            if a.c.len() != ar.dim {
                return Err(format!(
                    "access {:?} on {}: offset has {} entries, array has dim {}",
                    a.id,
                    ar.name,
                    a.c.len(),
                    ar.dim
                ));
            }
        }
        for st in &self.statements {
            if st.domain.dim() != st.depth {
                return Err(format!(
                    "statement {}: domain dim {} != depth {}",
                    st.name,
                    st.domain.dim(),
                    st.depth
                ));
            }
            if st.schedule.depth() != st.depth {
                return Err(format!(
                    "statement {}: schedule depth {} != depth {}",
                    st.name,
                    st.schedule.depth(),
                    st.depth
                ));
            }
        }
        Ok(())
    }
}

/// The accesses of a nest grouped by statement ([`LoopNest::by_stmt`]),
/// in access order within each statement, so a loop over all statements
/// visits every access once instead of rescanning the whole list per
/// statement. Accesses already in statement order (as the parser and the
/// builder make them) are used in place; others through one stable sort
/// of their indices. Either way each statement's accesses are one run,
/// found by binary search. Accesses naming a statement the nest does not
/// have are left out.
#[derive(Debug, Clone)]
pub struct StmtAccesses<'a> {
    nest: &'a LoopNest,
    /// Access indices sorted by statement; `None` when the accesses are
    /// in statement order already.
    order: Option<Vec<usize>>,
}

impl<'a> StmtAccesses<'a> {
    /// The accesses of statement `s`, in access order.
    pub fn of(&self, s: StmtId) -> impl Iterator<Item = &'a Access> + '_ {
        let accesses = &self.nest.accesses;
        let run = match &self.order {
            None => {
                accesses.partition_point(|a| a.stmt < s)..accesses.partition_point(|a| a.stmt <= s)
            }
            Some(order) => {
                order.partition_point(|&i| accesses[i].stmt < s)
                    ..order.partition_point(|&i| accesses[i].stmt <= s)
            }
        };
        run.map(move |k| &accesses[self.order.as_ref().map_or(k, |order| order[k])])
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nest {}:", self.name)?;
        let by_stmt = self.by_stmt();
        for (si, st) in self.statements.iter().enumerate() {
            writeln!(f, "  {} (depth {}):", st.name, st.depth)?;
            for a in by_stmt.of(StmtId(si)) {
                let kind = match a.kind {
                    AccessKind::Read => "read ",
                    AccessKind::Write => "write",
                    AccessKind::Reduce => "reduce",
                };
                writeln!(
                    f,
                    "    {kind} {}[F{}·I + {:?}]",
                    self.array(a.array).name,
                    a.id.0,
                    a.c
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NestBuilder;

    #[test]
    fn subscript_applies_affine_map() {
        let f = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        let a = Access {
            id: AccessId(0),
            array: ArrayId(0),
            stmt: StmtId(0),
            f,
            c: vec![2, -1],
            kind: AccessKind::Read,
        };
        assert_eq!(a.subscript(&[3, 4]), vec![5, 6]);
    }

    #[test]
    fn validation_catches_shape_bugs() {
        let mut b = NestBuilder::new("bad");
        let x = b.array("x", 2);
        let s = b.statement("S", 2, Domain::cube(2, 4));
        b.read(s, x, IMat::identity(2), &[0, 0]);
        let mut nest = b.build().unwrap();
        // Corrupt: offset with wrong arity.
        nest.accesses[0].c = vec![0];
        assert!(nest.validate().is_err());
    }

    #[test]
    fn display_contains_names() {
        let mut b = NestBuilder::new("demo");
        let x = b.array("x", 1);
        let s = b.statement("S1", 1, Domain::cube(1, 3));
        b.write(s, x, IMat::identity(1), &[0]);
        let nest = b.build().unwrap();
        let text = format!("{nest}");
        assert!(text.contains("demo"));
        assert!(text.contains("S1"));
        assert!(text.contains("write"));
    }
}
