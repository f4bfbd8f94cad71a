//! The nest parser as it stood before the one-pass rewrite, kept as the
//! test-only oracle of `proptests.rs`'s differential net: a line loop over
//! `str::lines`, `split_whitespace` tokens re-joined per access line and
//! `str::parse` per entry. It is known to panic on zero dimensions and
//! depths and on schedules of the wrong arity, and it reports
//! access-shape errors at line 0 (from `LoopNest::validate`); the net
//! accounts for both.

use rescomm_intlin::IMat;
use rescomm_loopnest::{ArrayId, Domain, LoopNest, NestBuilder, ParseError, Schedule, StmtId};
use std::collections::HashMap;

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        col: 0,
        msg: msg.into(),
    })
}

fn err_at<T>(line: usize, raw: &str, tok: &str, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        col: raw.find(tok).map_or(0, |i| i + 1),
        msg: msg.into(),
    })
}

/// Parse `[a b; c d; …]` starting at `text`; returns the matrix and the
/// rest of the line after the closing bracket.
fn parse_matrix(line_no: usize, text: &str) -> Result<(IMat, &str), ParseError> {
    let text = text.trim_start();
    let Some(inner_start) = text.strip_prefix('[') else {
        return err(
            line_no,
            format!("expected '[' to start a matrix, got {text:?}"),
        );
    };
    let Some(close) = inner_start.find(']') else {
        return err(line_no, "unterminated matrix: missing ']'");
    };
    let inner = &inner_start[..close];
    let rest = &inner_start[close + 1..];
    let mut rows: Vec<Vec<i64>> = Vec::new();
    for row_text in inner.split(';') {
        let row: Result<Vec<i64>, _> = row_text
            .split_whitespace()
            .map(|t| t.parse::<i64>())
            .collect();
        match row {
            Ok(r) if !r.is_empty() => rows.push(r),
            Ok(_) => return err(line_no, "empty matrix row"),
            Err(e) => return err(line_no, format!("bad matrix entry: {e}")),
        }
    }
    if rows.is_empty() {
        return err(line_no, "empty matrix");
    }
    let cols = rows[0].len();
    if rows.iter().any(|r| r.len() != cols) {
        return err(line_no, "ragged matrix rows");
    }
    let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
    Ok((IMat::from_rows(&refs), rest))
}

/// Parse a nest from its textual description.
pub fn parse_nest(src: &str) -> Result<LoopNest, ParseError> {
    let mut name = "anonymous".to_string();
    let mut builder: Option<NestBuilder> = None;
    let mut arrays: HashMap<String, ArrayId> = HashMap::new();
    let mut cur_stmt: Option<StmtId> = None;
    let mut cur_depth = 0usize;

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        // A trimmed non-empty line always has a first token.
        let Some(head) = words.next() else { continue };
        match head {
            "nest" => {
                let Some(n) = words.next() else {
                    return err(line_no, "nest needs a name");
                };
                name = n.to_string();
                if builder.is_some() {
                    return err(line_no, "'nest' must come first");
                }
            }
            "array" => {
                let Some(n) = words.next() else {
                    return err(line_no, "array needs a name");
                };
                let Some(d) = words.next().and_then(|t| t.parse::<usize>().ok()) else {
                    return err(line_no, "array needs a dimension");
                };
                if arrays.contains_key(n) {
                    return err_at(line_no, raw, n, format!("duplicate array {n}"));
                }
                let id = builder
                    .get_or_insert_with(|| NestBuilder::new(&name))
                    .array(n, d);
                arrays.insert(n.to_string(), id);
            }
            "stmt" => {
                let Some(n) = words.next() else {
                    return err(line_no, "stmt needs a name");
                };
                let depth = match (words.next(), words.next()) {
                    (Some("depth"), Some(t)) => t.parse::<usize>().map_err(|e| ParseError {
                        line: line_no,
                        col: 0,
                        msg: format!("bad depth: {e}"),
                    })?,
                    _ => return err(line_no, "expected 'depth <d>'"),
                };
                match words.next() {
                    Some("domain") => {}
                    _ => return err(line_no, "expected 'domain lo..hi …'"),
                }
                let mut bounds = Vec::new();
                for tok in words {
                    let Some((lo, hi)) = tok.split_once("..") else {
                        return err_at(
                            line_no,
                            raw,
                            tok,
                            format!("bad range {tok:?}, want lo..hi"),
                        );
                    };
                    let (lo, hi) = match (lo.parse::<i64>(), hi.parse::<i64>()) {
                        (Ok(l), Ok(h)) => (l, h),
                        _ => {
                            return err_at(
                                line_no,
                                raw,
                                tok,
                                format!("bad range bounds in {tok:?}"),
                            )
                        }
                    };
                    if lo > hi {
                        return err_at(line_no, raw, tok, format!("empty range {tok:?}"));
                    }
                    bounds.push((lo, hi));
                }
                if bounds.len() != depth {
                    return err(
                        line_no,
                        format!("stmt {n}: {} ranges for depth {depth}", bounds.len()),
                    );
                }
                let id = builder
                    .get_or_insert_with(|| NestBuilder::new(&name))
                    .statement(n, depth, Domain::rect(&bounds));
                cur_stmt = Some(id);
                cur_depth = depth;
            }
            "guard" => {
                let Some(s) = cur_stmt else {
                    return err(line_no, "guard outside a stmt");
                };
                let toks: Vec<&str> = words.collect();
                let Some(sep) = toks.iter().position(|&t| t == "<=") else {
                    return err(line_no, "guard needs '<=': guard g1 … <= b");
                };
                let g: Result<Vec<i64>, _> = toks[..sep].iter().map(|t| t.parse::<i64>()).collect();
                let b = toks.get(sep + 1).and_then(|t| t.parse::<i64>().ok());
                // A current stmt implies the builder exists; stay
                // defensive rather than unwrapping.
                let Some(bldr) = builder.as_mut() else {
                    return err(line_no, "guard before any stmt");
                };
                match (g, b, toks.len()) {
                    (Ok(g), Some(b), n) if n == sep + 2 && g.len() == cur_depth => {
                        bldr.add_guard(s, &g, b);
                    }
                    (Ok(g), _, _) if g.len() != cur_depth => {
                        return err(
                            line_no,
                            format!("guard has {} coefficients for depth {cur_depth}", g.len()),
                        )
                    }
                    _ => return err(line_no, "malformed guard"),
                }
            }
            "schedule" => {
                let Some(s) = cur_stmt else {
                    return err(line_no, "schedule outside a stmt");
                };
                let Some(b) = builder.as_mut() else {
                    return err(line_no, "schedule before any stmt");
                };
                match words.next() {
                    Some("parallel") => { /* default */ }
                    Some("linear") => {
                        let pi: Result<Vec<i64>, _> = words.map(|t| t.parse::<i64>()).collect();
                        match pi {
                            Ok(v) if !v.is_empty() => {
                                b.schedule(s, Schedule::linear(&v));
                            }
                            _ => return err(line_no, "linear schedule needs coefficients"),
                        }
                    }
                    Some("seqouter") => {
                        let Some(k) = words.next().and_then(|t| t.parse::<usize>().ok()) else {
                            return err(line_no, "seqouter needs a count");
                        };
                        if k == 0 || k > cur_depth {
                            return err(line_no, format!("seqouter {k} out of 1..={cur_depth}"));
                        }
                        b.schedule(s, Schedule::sequential_outer(cur_depth, k));
                    }
                    other => return err(line_no, format!("unknown schedule {other:?}")),
                }
            }
            "read" | "write" | "reduce" => {
                let Some(s) = cur_stmt else {
                    return err(line_no, format!("{head} outside a stmt"));
                };
                let Some(arr_name) = words.next() else {
                    return err(line_no, format!("{head} needs an array name"));
                };
                let Some(&arr) = arrays.get(arr_name) else {
                    return err_at(line_no, raw, arr_name, format!("unknown array {arr_name}"));
                };
                let rest: String = words.collect::<Vec<_>>().join(" ");
                let (f, after) = parse_matrix(line_no, &rest)?;
                let after = after.trim_start();
                let c: Vec<i64> = if let Some(off) = after.strip_prefix('+') {
                    let (cv, _) = parse_matrix(line_no, off)?;
                    if cv.rows() != 1 && cv.cols() != 1 {
                        return err(line_no, "offset must be a vector");
                    }
                    cv.as_slice().to_vec()
                } else if after.is_empty() {
                    vec![0; f.rows()]
                } else {
                    return err(line_no, format!("trailing junk after access: {after:?}"));
                };
                let Some(b) = builder.as_mut() else {
                    return err(line_no, format!("{head} before any stmt"));
                };
                match head {
                    "read" => b.read(s, arr, f, &c),
                    "write" => b.write(s, arr, f, &c),
                    _ => b.reduce(s, arr, f, &c),
                };
            }
            other => return err_at(line_no, raw, other, format!("unknown directive {other:?}")),
        }
    }

    let Some(b) = builder else {
        return err(0, "empty nest description");
    };
    b.build().map_err(|msg| ParseError {
        line: 0,
        col: 0,
        msg,
    })
}
