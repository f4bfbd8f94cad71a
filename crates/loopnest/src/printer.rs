//! Serializing a [`LoopNest`] back to the textual format of
//! [`crate::parser`] — `parse_nest(to_text(n)) == n` up to names.

use crate::ir::{AccessKind, LoopNest, StmtId};
use crate::schedule::Schedule;
use rescomm_intlin::IMat;
use std::fmt::Write;

fn matrix_text(m: &IMat) -> String {
    let mut s = String::from("[");
    for i in 0..m.rows() {
        if i > 0 {
            s.push_str("; ");
        }
        for j in 0..m.cols() {
            if j > 0 {
                s.push(' ');
            }
            write!(s, "{}", m[(i, j)]).unwrap();
        }
    }
    s.push(']');
    s
}

fn vector_text(v: &[i64]) -> String {
    let mut s = String::from("[");
    for (j, x) in v.iter().enumerate() {
        if j > 0 {
            s.push(' ');
        }
        write!(s, "{x}").unwrap();
    }
    s.push(']');
    s
}

fn schedule_text(sched: &Schedule) -> Option<String> {
    if sched.is_parallel() {
        return None; // the parser's default
    }
    let theta = sched.theta();
    if theta.rows() == 1 {
        let row: Vec<String> = theta.row(0).iter().map(|x| x.to_string()).collect();
        Some(format!("schedule linear {}", row.join(" ")))
    } else {
        // Multidimensional schedules have no surface syntax; emit the
        // first row as a linear approximation and mark it.
        let row: Vec<String> = theta.row(0).iter().map(|x| x.to_string()).collect();
        Some(format!(
            "schedule linear {} # (first row of a multidim schedule)",
            row.join(" ")
        ))
    }
}

/// Serialize the nest to the parser's textual format.
///
/// Round-trip guarantee: for nests whose schedules are `parallel` or
/// single-row linear, `parse_nest(to_text(n))` reproduces the nest
/// exactly (same arrays, statements, domains, schedules and accesses).
pub fn to_text(nest: &LoopNest) -> String {
    let mut out = String::new();
    writeln!(out, "nest {}", nest.name).unwrap();
    for a in &nest.arrays {
        writeln!(out, "array {} {}", a.name, a.dim).unwrap();
    }
    let by_stmt = nest.by_stmt();
    for (si, st) in nest.statements.iter().enumerate() {
        let ranges: Vec<String> = (0..st.depth)
            .map(|k| format!("{}..{}", st.domain.lo(k), st.domain.hi(k)))
            .collect();
        writeln!(
            out,
            "stmt {} depth {} domain {}",
            st.name,
            st.depth,
            ranges.join(" ")
        )
        .unwrap();
        if let Some(s) = schedule_text(&st.schedule) {
            writeln!(out, "  {s}").unwrap();
        }
        for (g, b) in st.domain.guards() {
            let coeffs: Vec<String> = g.iter().map(|x| x.to_string()).collect();
            writeln!(out, "  guard {} <= {b}", coeffs.join(" ")).unwrap();
        }
        for acc in by_stmt.of(StmtId(si)) {
            let kw = match acc.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
                AccessKind::Reduce => "reduce",
            };
            writeln!(
                out,
                "  {kw} {} {} + {}",
                nest.array(acc.array).name,
                matrix_text(&acc.f),
                vector_text(&acc.c)
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::parser::parse_nest;

    fn roundtrip_equal(nest: &LoopNest) {
        let text = to_text(nest);
        let back =
            parse_nest(&text).unwrap_or_else(|e| panic!("serialized text must parse: {e}\n{text}"));
        assert_eq!(back.name, nest.name);
        assert_eq!(back.arrays, nest.arrays);
        assert_eq!(back.statements.len(), nest.statements.len());
        for (a, b) in back.statements.iter().zip(&nest.statements) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.schedule, b.schedule);
        }
        // Accesses may be reordered by statement grouping; compare as
        // multisets keyed by (stmt, array, F, c, kind).
        let key = |n: &LoopNest| {
            let mut v: Vec<String> = n
                .accesses
                .iter()
                .map(|a| {
                    format!(
                        "{:?}|{:?}|{:?}|{:?}|{:?}",
                        a.stmt, a.array, a.f, a.c, a.kind
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&back), key(nest));
    }

    #[test]
    fn roundtrip_all_examples() {
        roundtrip_equal(&examples::motivating_example(8, 4).0);
        roundtrip_equal(&examples::matmul(6));
        roundtrip_equal(&examples::jacobi2d(6));
        roundtrip_equal(&examples::transpose(6));
        roundtrip_equal(&examples::syrk(4));
        roundtrip_equal(&examples::example2_broadcast(4));
        roundtrip_equal(&examples::example4_reduction(4));
    }

    #[test]
    fn guards_roundtrip() {
        let nest = examples::gauss_triangular(4);
        roundtrip_equal(&nest);
        assert!(to_text(&nest).contains("guard 1 -1 0 <= -1"));
    }

    #[test]
    fn sequential_outer_survives_as_linear() {
        // sequential_outer(3, 1) has a one-row θ: exact round-trip.
        let nest = examples::gauss_elim(4);
        roundtrip_equal(&nest);
    }

    #[test]
    fn serialized_text_is_stable() {
        let nest = examples::matmul(4);
        assert_eq!(to_text(&nest), to_text(&nest));
        assert!(to_text(&nest).contains("reduce C"));
        assert!(to_text(&nest).contains("schedule linear 0 0 1"));
    }
}
