//! A small text format for affine loop nests.
//!
//! Lets examples and the CLI describe nests without writing Rust:
//!
//! ```text
//! # comment
//! nest demo
//! array a 2
//! array b 3
//! stmt S1 depth 2 domain 0..7 0..7
//!   schedule parallel
//!   write b [1 0; 0 1; 0 0] + [0 0 0]
//!   read  a [1 0; 0 1] + [0 1]
//! stmt S2 depth 3 domain 0..7 0..7 0..11
//!   schedule linear 1 0 0
//!   read  a [1 1 0; 0 1 1] + [1 1]
//! ```
//!
//! * `domain` takes one inclusive `lo..hi` range per loop;
//! * `guard g1 g2 … <= b` adds an affine constraint `g·I ≤ b` to the
//!   current statement's domain (triangular bounds);
//! * `schedule` is `parallel`, `linear c1 … cd`, or `seqouter k`
//!   (first `k` loops sequential); it defaults to `parallel`;
//! * access matrices are `[row; row; …]`, offsets `+ [v …]`;
//! * access kinds are `read`, `write`, `reduce`.
//!
//! The parser makes one forward pass over the source. A line cursor
//! hands out whitespace-separated tokens as slices of the source with
//! their byte offsets, so an error names the offending token's own
//! column. Integers are scanned by hand with checked arithmetic, and
//! each matrix is scanned straight into a stack buffer of
//! [`IMat::INLINE_CAP`] entries (the heap is used only beyond). An access
//! whose `F` or offset does not fit its array and statement is rejected
//! on its own line; [`NestBuilder::build`]'s validation stays as the
//! backstop.

use crate::builder::NestBuilder;
use crate::domain::Domain;
use crate::ir::{ArrayId, LoopNest, StmtId};
use crate::schedule::Schedule;
use rescomm_intlin::IMat;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Parse error with a 1-based line number and (when the offending token
/// is known) a 1-based column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error was detected on.
    pub line: usize,
    /// Column of the offending token (1-based; 0 when unknown).
    pub col: usize,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col > 0 {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

/// Byte classes of the scanner: [`SPACE`] for the ASCII chars that
/// `char::is_whitespace` accepts (but `\n`), [`WIDE`] for the bytes of
/// multi-byte chars (decoded on the slow path), [`DELIM`] for a matrix's
/// `;` and `]`, [`END`] for the `\n` or `#` that ends a line's text.
const CLASS: [u8; 256] = {
    let mut class = [0; 256];
    let mut b = 0x80;
    while b < 256 {
        class[b] = WIDE;
        b += 1;
    }
    class[b'\t' as usize] = SPACE;
    class[b'\n' as usize] = END;
    class[b'#' as usize] = END;
    class[0x0b] = SPACE;
    class[0x0c] = SPACE;
    class[b'\r' as usize] = SPACE;
    class[b' ' as usize] = SPACE;
    class[b';' as usize] = DELIM;
    class[b']' as usize] = DELIM;
    class
};
const SPACE: u8 = 1;
const WIDE: u8 = 2;
const DELIM: u8 = 3;
const END: u8 = 4;

/// The width of the multi-byte char at byte `i` of `text` if it is
/// whitespace.
fn wide_space(text: &str, i: usize) -> Option<usize> {
    let c = text.get(i..)?.chars().next()?;
    c.is_whitespace().then(|| c.len_utf8())
}

/// The first byte offset at or after `i` that is not whitespace.
#[inline]
fn skip_space(text: &str, mut i: usize) -> usize {
    while let Some(&b) = text.as_bytes().get(i) {
        match CLASS[usize::from(b)] {
            SPACE => i += 1,
            WIDE => match wide_space(text, i) {
                Some(width) => i += width,
                None => return i,
            },
            _ => return i,
        }
    }
    i
}

/// Where the token starting at `i` ends: at the first whitespace char,
/// line end, `;` or `]` when `in_matrix`, or at `text.len()`.
#[inline]
fn token_end(text: &str, mut i: usize, in_matrix: bool) -> usize {
    while let Some(&b) = text.as_bytes().get(i) {
        match CLASS[usize::from(b)] {
            SPACE | END => return i,
            DELIM if in_matrix => return i,
            WIDE if wide_space(text, i).is_some() => return i,
            _ => i += 1,
        }
    }
    i
}

/// The common matrix entry in one pass: a decimal of at most 18 digits
/// (so it cannot overflow), optionally negative, followed by a blank,
/// `;` or `]`. Its value and end, or `None` to leave the entry to the
/// checked [`int`] (signs, long numbers, junk, other whitespace).
#[inline]
fn short_int(bytes: &[u8], mut i: usize) -> Option<(i64, usize)> {
    let neg = bytes.get(i) == Some(&b'-');
    i += usize::from(neg);
    let start = i;
    let mut v: i64 = 0;
    while let Some(d) = bytes
        .get(i)
        .map(|c| c.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        if i - start == 18 {
            return None;
        }
        v = v * 10 + i64::from(d);
        i += 1;
    }
    let ends = matches!(bytes.get(i), Some(b' ' | b'\t' | b';' | b']'));
    (ends && i > start).then_some((if neg { -v } else { v }, i))
}

/// `str::parse::<i64>` by hand, with the same errors: an optional sign,
/// then at least one ASCII digit, accumulated with checked arithmetic
/// (downwards for a `-`, so `i64::MIN` fits).
#[inline]
fn int(tok: &str) -> Result<i64, &'static str> {
    const INVALID: &str = "invalid digit found in string";
    let (neg, digits) = match tok.as_bytes() {
        [] => return Err("cannot parse integer from empty string"),
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        all => (false, all),
    };
    if digits.is_empty() {
        return Err(INVALID);
    }
    let mut v: i64 = 0;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return Err(INVALID);
        }
        let d = i64::from(d);
        v = if neg {
            v.checked_mul(10).and_then(|v| v.checked_sub(d))
        } else {
            v.checked_mul(10).and_then(|v| v.checked_add(d))
        }
        .ok_or(if neg {
            "number too small to fit in target type"
        } else {
            "number too large to fit in target type"
        })?;
    }
    Ok(v)
}

/// A token and its 1-based column.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    col: usize,
}

/// Whether the byte at `i` ends a line's text: `\n`, the `#` of a
/// comment, or the end of the source.
fn at_line_end(src: &str, i: usize) -> bool {
    src.as_bytes()
        .get(i)
        .is_none_or(|&b| CLASS[usize::from(b)] == END)
}

/// A cursor over one line of the source. Positions are byte offsets into
/// the whole source; the line's text ends at its `\n` or at a `#`.
struct Line<'a> {
    src: &'a str,
    /// 1-based line number.
    no: usize,
    /// Offset of the line's first byte.
    start: usize,
    /// Offset of the cursor.
    pos: usize,
}

impl<'a> Line<'a> {
    /// The 1-based column of byte offset `at`.
    fn col(&self, at: usize) -> usize {
        at - self.start + 1
    }

    fn error(&self, col: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.no,
            col,
            msg: msg.into(),
        }
    }

    fn err<T>(&self, col: usize, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(self.error(col, msg))
    }

    /// The next whitespace-separated token.
    fn next(&mut self) -> Option<Tok<'a>> {
        let start = skip_space(self.src, self.pos);
        self.pos = start;
        if at_line_end(self.src, start) {
            return None;
        }
        self.pos = token_end(self.src, start, false);
        Some(Tok {
            text: &self.src[start..self.pos],
            col: self.col(start),
        })
    }

    /// The line's text from byte `at` to its end.
    fn text_from(&self, at: usize) -> &'a str {
        let text = &self.src[at..];
        text.find(['\n', '#']).map_or(text, |k| &text[..k])
    }

    /// Scan `[a b; c d; …]` from the cursor into `buf` and leave the
    /// cursor just past the `]`; returns the column of the `[`.
    fn matrix(&mut self, buf: &mut MatBuf) -> Result<usize, ParseError> {
        let text = self.src;
        let open = skip_space(text, self.pos);
        if text.as_bytes().get(open) != Some(&b'[') {
            let got = self.text_from(open).trim_end();
            return self.err(
                self.col(open),
                format!("expected '[' to start a matrix, got {got:?}"),
            );
        }
        buf.clear();
        let (mut n, mut ragged) = (0, false);
        let mut i = open + 1;
        loop {
            if at_line_end(text, i) {
                return self.err(self.col(open), UNTERMINATED);
            }
            let b = text.as_bytes()[i];
            match b {
                b' ' | b'\t' => i += 1,
                b';' | b']' => {
                    if n == 0 {
                        return Err(self.matrix_error(open, i, "empty matrix row"));
                    }
                    if buf.rows == 0 {
                        buf.cols = n;
                    }
                    ragged |= n != buf.cols;
                    buf.rows += 1;
                    n = 0;
                    i += 1;
                    if b == b']' {
                        break;
                    }
                }
                _ => {
                    let (v, stop) = match short_int(text.as_bytes(), i) {
                        Some(hit) => hit,
                        None if skip_space(text, i) > i => {
                            i = skip_space(text, i);
                            continue;
                        }
                        None => {
                            let stop = token_end(text, i, true);
                            let v = int(&text[i..stop]).map_err(|e| {
                                self.matrix_error(open, i, format!("bad matrix entry: {e}"))
                            })?;
                            (v, stop)
                        }
                    };
                    buf.push(v);
                    n += 1;
                    i = stop;
                }
            }
        }
        if ragged {
            return self.err(self.col(open), "ragged matrix rows");
        }
        self.pos = i;
        Ok(self.col(open))
    }

    /// An error at byte `at` inside the matrix opened at byte `open`. A
    /// matrix with no `]` on its line is reported as unterminated,
    /// whatever else is wrong.
    fn matrix_error(&self, open: usize, at: usize, msg: impl Into<String>) -> ParseError {
        if self.text_from(open).contains(']') {
            self.error(self.col(at), msg)
        } else {
            self.error(self.col(open), UNTERMINATED)
        }
    }
}

const UNTERMINATED: &str = "unterminated matrix: missing ']'";

/// The entries of one scanned matrix, row-major: on the stack up to
/// [`IMat::INLINE_CAP`] entries, in a reused heap buffer beyond.
struct MatBuf {
    stack: [i64; IMat::INLINE_CAP],
    heap: Vec<i64>,
    len: usize,
    rows: usize,
    cols: usize,
}

impl MatBuf {
    fn new() -> Self {
        MatBuf {
            stack: [0; IMat::INLINE_CAP],
            heap: Vec::new(),
            len: 0,
            rows: 0,
            cols: 0,
        }
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.len = 0;
        self.rows = 0;
        self.cols = 0;
    }

    fn push(&mut self, v: i64) {
        if let Some(slot) = self.stack.get_mut(self.len) {
            *slot = v;
        } else {
            if self.heap.is_empty() {
                self.heap.extend_from_slice(&self.stack);
            }
            self.heap.push(v);
        }
        self.len += 1;
    }

    /// The `n`-entry zero column.
    fn zeros(&mut self, n: usize) {
        self.clear();
        for _ in 0..n {
            self.push(0);
        }
        (self.rows, self.cols) = (n, 1);
    }

    fn entries(&self) -> &[i64] {
        self.stack.get(..self.len).unwrap_or(&self.heap)
    }

    fn matrix(&self) -> IMat {
        let (cols, e) = (self.cols, self.entries());
        IMat::from_fn(self.rows, cols, |i, j| e[i * cols + j])
    }
}

/// What one line leaves for the next.
struct Parser<'a> {
    name: &'a str,
    builder: Option<NestBuilder>,
    /// Declared arrays by source name: id and dimension.
    arrays: HashMap<&'a str, (ArrayId, usize)>,
    /// The current statement and its depth.
    stmt: Option<(StmtId, usize)>,
    mat: MatBuf,
    ints: Vec<i64>,
    bounds: Vec<(i64, i64)>,
}

impl<'a> Parser<'a> {
    fn line(&mut self, line: &mut Line<'a>, head: Tok<'a>) -> Result<(), ParseError> {
        match head.text {
            "nest" => {
                let Some(n) = line.next() else {
                    return line.err(0, "nest needs a name");
                };
                if self.builder.is_some() {
                    return line.err(head.col, "'nest' must come first");
                }
                self.name = n.text;
                Ok(())
            }
            "array" => self.array(line),
            "stmt" => self.stmt(line),
            "guard" => self.guard(line, head),
            "schedule" => self.schedule(line, head),
            "read" | "write" | "reduce" => self.access(line, head),
            other => line.err(head.col, format!("unknown directive {other:?}")),
        }
    }

    fn array(&mut self, line: &mut Line<'a>) -> Result<(), ParseError> {
        let Some(name) = line.next() else {
            return line.err(0, "array needs a name");
        };
        let dim_tok = line.next();
        let Some(dim) = dim_tok.and_then(|t| t.text.parse::<usize>().ok()) else {
            return line.err(dim_tok.map_or(0, |t| t.col), "array needs a dimension");
        };
        let Entry::Vacant(slot) = self.arrays.entry(name.text) else {
            return line.err(name.col, format!("duplicate array {}", name.text));
        };
        if dim == 0 {
            let col = dim_tok.map_or(0, |t| t.col);
            return line.err(col, format!("array {} with dimension 0", name.text));
        }
        let b = self
            .builder
            .get_or_insert_with(|| NestBuilder::new(self.name));
        slot.insert((b.array(name.text, dim), dim));
        Ok(())
    }

    fn stmt(&mut self, line: &mut Line<'a>) -> Result<(), ParseError> {
        let Some(name) = line.next() else {
            return line.err(0, "stmt needs a name");
        };
        let depth_tok = match (line.next(), line.next()) {
            (Some(kw), Some(t)) if kw.text == "depth" => t,
            _ => return line.err(0, "expected 'depth <d>'"),
        };
        let depth = depth_tok
            .text
            .parse::<usize>()
            .map_err(|e| line.error(depth_tok.col, format!("bad depth: {e}")))?;
        if depth == 0 {
            return line.err(depth_tok.col, format!("stmt {} with depth 0", name.text));
        }
        if !matches!(line.next(), Some(t) if t.text == "domain") {
            return line.err(0, "expected 'domain lo..hi …'");
        }
        self.bounds.clear();
        while let Some(tok) = line.next() {
            let dots = tok.text.as_bytes().windows(2).position(|w| w == b"..");
            let Some((lo, hi)) = dots.map(|k| (&tok.text[..k], &tok.text[k + 2..])) else {
                return line.err(tok.col, format!("bad range {:?}, want lo..hi", tok.text));
            };
            let (Ok(lo), Ok(hi)) = (int(lo), int(hi)) else {
                return line.err(tok.col, format!("bad range bounds in {:?}", tok.text));
            };
            if lo > hi {
                return line.err(tok.col, format!("empty range {:?}", tok.text));
            }
            self.bounds.push((lo, hi));
        }
        if self.bounds.len() != depth {
            let msg = format!(
                "stmt {}: {} ranges for depth {depth}",
                name.text,
                self.bounds.len()
            );
            return line.err(0, msg);
        }
        let b = self
            .builder
            .get_or_insert_with(|| NestBuilder::new(self.name));
        self.stmt = Some((
            b.statement(name.text, depth, Domain::rect(&self.bounds)),
            depth,
        ));
        Ok(())
    }

    fn guard(&mut self, line: &mut Line<'a>, head: Tok<'a>) -> Result<(), ParseError> {
        let (Some((s, depth)), Some(b)) = (self.stmt, self.builder.as_mut()) else {
            return line.err(head.col, "guard outside a stmt");
        };
        self.ints.clear();
        let mut bad = false;
        loop {
            let Some(t) = line.next() else {
                return line.err(0, "guard needs '<=': guard g1 … <= b");
            };
            if t.text == "<=" {
                break;
            }
            match int(t.text) {
                Ok(v) => self.ints.push(v),
                Err(_) => bad = true,
            }
        }
        let bound = line.next().map(|t| int(t.text));
        match (bad, bound, line.next()) {
            (false, Some(Ok(bound)), None) if self.ints.len() == depth => {
                b.add_guard(s, &self.ints, bound);
                Ok(())
            }
            (false, _, _) if self.ints.len() != depth => {
                let msg = format!(
                    "guard has {} coefficients for depth {depth}",
                    self.ints.len()
                );
                line.err(0, msg)
            }
            _ => line.err(0, "malformed guard"),
        }
    }

    fn schedule(&mut self, line: &mut Line<'a>, head: Tok<'a>) -> Result<(), ParseError> {
        let (Some((s, depth)), Some(b)) = (self.stmt, self.builder.as_mut()) else {
            return line.err(head.col, "schedule outside a stmt");
        };
        let kind = line.next();
        match kind.map(|t| t.text) {
            Some("parallel") => { /* default */ }
            Some("linear") => {
                self.ints.clear();
                while let Some(t) = line.next() {
                    let Ok(v) = int(t.text) else {
                        return line.err(t.col, "linear schedule needs coefficients");
                    };
                    self.ints.push(v);
                }
                if self.ints.is_empty() {
                    return line.err(0, "linear schedule needs coefficients");
                }
                if self.ints.len() != depth {
                    let col = kind.map_or(0, |t| t.col);
                    let msg = format!(
                        "linear schedule has {} coefficients for depth {depth}",
                        self.ints.len()
                    );
                    return line.err(col, msg);
                }
                b.schedule(s, Schedule::linear(&self.ints));
            }
            Some("seqouter") => {
                let count = line.next();
                let Some(k) = count.and_then(|t| t.text.parse::<usize>().ok()) else {
                    return line.err(count.map_or(0, |t| t.col), "seqouter needs a count");
                };
                if k == 0 || k > depth {
                    let col = count.map_or(0, |t| t.col);
                    return line.err(col, format!("seqouter {k} out of 1..={depth}"));
                }
                b.schedule(s, Schedule::sequential_outer(depth, k));
            }
            other => {
                let col = kind.map_or(0, |t| t.col);
                return line.err(col, format!("unknown schedule {other:?}"));
            }
        }
        Ok(())
    }

    /// `read|write|reduce x [F] (+ [c])?`, checked against the array's
    /// dimension and the statement's depth.
    fn access(&mut self, line: &mut Line<'a>, head: Tok<'a>) -> Result<(), ParseError> {
        let kind = head.text;
        let (Some((s, depth)), Some(b)) = (self.stmt, self.builder.as_mut()) else {
            return line.err(head.col, format!("{kind} outside a stmt"));
        };
        let Some(name) = line.next() else {
            return line.err(0, format!("{kind} needs an array name"));
        };
        let arr = name.text;
        let Some(&(x, dim)) = self.arrays.get(arr) else {
            return line.err(name.col, format!("unknown array {arr}"));
        };
        let f_col = line.matrix(&mut self.mat)?;
        let f = self.mat.matrix();
        let after = skip_space(line.src, line.pos);
        let c_col = match line.src.as_bytes().get(after) {
            Some(b'+') => {
                line.pos = after + 1;
                let col = line.matrix(&mut self.mat)?;
                if self.mat.rows != 1 && self.mat.cols != 1 {
                    return line.err(col, "offset must be a vector");
                }
                // Text after the offset is ignored: rejecting it would
                // change which sources parse.
                col
            }
            _ if at_line_end(line.src, after) => {
                self.mat.zeros(f.rows());
                f_col
            }
            _ => {
                let junk = line.text_from(after).trim_end();
                let msg = format!("trailing junk after access: {junk:?}");
                return line.err(line.col(after), msg);
            }
        };
        let c = self.mat.entries();
        if f.rows() != dim {
            let msg = format!(
                "access to {arr}: F has {} rows, array has dim {dim}",
                f.rows()
            );
            return line.err(f_col, msg);
        }
        if f.cols() != depth {
            let msg = format!(
                "access to {arr}: F has {} cols, statement has depth {depth}",
                f.cols()
            );
            return line.err(f_col, msg);
        }
        if c.len() != dim {
            let msg = format!(
                "access to {arr}: offset has {} entries, array has dim {dim}",
                c.len()
            );
            return line.err(c_col, msg);
        }
        match kind {
            "read" => b.read(s, x, f, c),
            "write" => b.write(s, x, f, c),
            _ => b.reduce(s, x, f, c),
        };
        Ok(())
    }
}

/// Parse a nest from its textual description.
pub fn parse_nest(src: &str) -> Result<LoopNest, ParseError> {
    let mut p = Parser {
        name: "anonymous",
        builder: None,
        arrays: HashMap::new(),
        stmt: None,
        mat: MatBuf::new(),
        ints: Vec::new(),
        bounds: Vec::new(),
    };
    let mut line = Line {
        src,
        no: 1,
        start: 0,
        pos: 0,
    };
    loop {
        if let Some(head) = line.next() {
            p.line(&mut line, head)?;
        }
        // On past the `\n`, skipping a comment or any ignored rest.
        let at = skip_space(src, line.pos);
        let newline = if src.as_bytes().get(at) == Some(&b'\n') {
            at
        } else {
            match src[at..].find('\n') {
                Some(k) => at + k,
                None => break,
            }
        };
        line = Line {
            src,
            no: line.no + 1,
            start: newline + 1,
            pos: newline + 1,
        };
    }
    let error = |msg: String| ParseError {
        line: 0,
        col: 0,
        msg,
    };
    let b = p
        .builder
        .ok_or_else(|| error("empty nest description".to_string()))?;
    b.build().map_err(error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::AccessKind;

    const DEMO: &str = r#"
# the reconstructed motivating example, S1/S2 fragment
nest demo
array a 2
array b 3
stmt S1 depth 2 domain 0..7 0..7
  write b [1 0; 0 1; 0 0] + [0 0 0]
  read  a [1 0; 0 1] + [0 1]
stmt S2 depth 3 domain 0..7 0..7 0..11
  schedule linear 1 0 0
  read  a [1 1 0; 0 1 1] + [1 1]
"#;

    #[test]
    fn parses_demo() {
        let nest = parse_nest(DEMO).unwrap();
        assert_eq!(nest.name, "demo");
        assert_eq!(nest.arrays.len(), 2);
        assert_eq!(nest.statements.len(), 2);
        assert_eq!(nest.accesses.len(), 3);
        assert_eq!(nest.accesses[0].kind, AccessKind::Write);
        assert_eq!(nest.accesses[0].c, vec![0, 0, 0]);
        assert_eq!(nest.accesses[2].f.shape(), (2, 3));
        assert!(!nest.statements[1].schedule.is_parallel());
        assert!(nest.statements[0].schedule.is_parallel());
    }

    #[test]
    fn default_offset_is_zero() {
        let src = "nest t\narray x 1\nstmt S depth 1 domain 0..3\n  read x [1]\n";
        let nest = parse_nest(src).unwrap();
        assert_eq!(nest.accesses[0].c, vec![0]);
    }

    #[test]
    fn reports_unknown_array() {
        let src = "nest t\nstmt S depth 1 domain 0..3\n  read x [1]\n";
        let e = parse_nest(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.col, 8, "column of the unknown array token");
        assert!(e.msg.contains("unknown array"));
        assert!(format!("{e}").contains("line 3, col 8"));
    }

    #[test]
    fn reports_column_of_bad_tokens() {
        let e = parse_nest("nest t\nstmt S depth 1 domain 0..x\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 23));
        let e = parse_nest("nest t\nfrobnicate\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 1));
        assert!(e.msg.contains("unknown directive"));
        // Errors without a token keep col = 0 and the short format.
        let e = parse_nest("").unwrap_err();
        assert_eq!(e.col, 0);
        assert!(!format!("{e}").contains("col"));
    }

    #[test]
    fn reports_bad_matrix() {
        let src = "nest t\narray x 1\nstmt S depth 1 domain 0..3\n  read x [1 q]\n";
        let e = parse_nest(src).unwrap_err();
        assert!(e.msg.contains("bad matrix entry"));
    }

    #[test]
    fn reports_ragged_matrix() {
        let src = "nest t\narray x 2\nstmt S depth 2 domain 0..3 0..3\n  read x [1 0; 1]\n";
        let e = parse_nest(src).unwrap_err();
        assert!(e.msg.contains("ragged"));
    }

    #[test]
    fn reports_domain_arity_mismatch() {
        let src = "nest t\narray x 1\nstmt S depth 2 domain 0..3\n";
        let e = parse_nest(src).unwrap_err();
        assert!(e.msg.contains("ranges for depth"));
    }

    #[test]
    fn shape_errors_are_reported_at_the_access_line() {
        let nest = "nest t\narray x 1\nstmt S depth 2 domain 0..3 0..3\n";
        // F is 1×1 but the statement has depth 2.
        let e = parse_nest(&format!("{nest}  read x [1]\n")).unwrap_err();
        assert_eq!((e.line, e.col), (4, 10), "{e}");
        assert!(e.msg.contains("F has 1 cols, statement has depth 2"), "{e}");
        // F has two rows for a one-dimensional array.
        let e = parse_nest(&format!("{nest}  read x [1 0; 0 1]\n")).unwrap_err();
        assert_eq!((e.line, e.col), (4, 10), "{e}");
        assert!(e.msg.contains("F has 2 rows, array has dim 1"), "{e}");
        // The offset has two entries for a one-dimensional array.
        let e = parse_nest(&format!("{nest}  read x [1 0] + [0 0]\n")).unwrap_err();
        assert_eq!((e.line, e.col), (4, 18), "{e}");
        assert!(
            e.msg.contains("offset has 2 entries, array has dim 1"),
            "{e}"
        );
    }

    #[test]
    fn zero_dimension_and_depth_are_parse_errors() {
        let e = parse_nest("nest t\narray x 0\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 9), "{e}");
        assert!(e.msg.contains("dimension 0"), "{e}");
        let e = parse_nest("nest t\nstmt S depth 0 domain\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 14), "{e}");
        assert!(e.msg.contains("depth 0"), "{e}");
    }

    #[test]
    fn linear_schedule_of_the_wrong_arity_is_a_parse_error() {
        let src = "nest t\nstmt S depth 2 domain 0..3 0..3\n  schedule linear 1 0 0\n";
        let e = parse_nest(src).unwrap_err();
        assert_eq!((e.line, e.col), (3, 12), "{e}");
        assert!(e.msg.contains("3 coefficients for depth 2"), "{e}");
        let src = "nest t\nstmt S depth 2 domain 0..3 0..3\n  schedule linear 1\n";
        assert_eq!(parse_nest(src).unwrap_err().line, 3);
    }

    #[test]
    fn columns_are_the_tokens_own() {
        // `raw.find(tok)` used to land on the `a` of `array` (col 1).
        let e = parse_nest("nest t\narray a 2\narray a 2\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 7), "{e}");
        assert!(e.msg.contains("duplicate array a"));
        // …and on the `r` of `read` (col 3).
        let e = parse_nest("nest t\nstmt S depth 1 domain 0..3\n  read r [1]\n").unwrap_err();
        assert_eq!((e.line, e.col), (3, 8), "{e}");
        assert!(e.msg.contains("unknown array r"));
        // A bad entry is reported at the entry.
        let e = parse_nest("nest t\narray x 1\nstmt S depth 1 domain 0..3\nread x [7 q]\n")
            .unwrap_err();
        assert_eq!((e.line, e.col), (4, 11), "{e}");
    }

    #[test]
    fn integers_match_str_parse() {
        for s in [
            "0",
            "-0",
            "+7",
            "-",
            "+",
            "",
            "--1",
            "+-1",
            "1x",
            "٣",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999x",
            "00000000000000000000000000042",
        ] {
            let want = s.parse::<i64>().map_err(|e| e.to_string());
            assert_eq!(int(s).map_err(str::to_string), want, "{s:?}");
        }
    }

    #[test]
    fn i64_extremes_parse_and_overflow_is_a_matrix_error() {
        let nest =
            "nest t\narray x 1\nstmt S depth 1 domain -9223372036854775808..9223372036854775807\n";
        let n = parse_nest(&format!(
            "{nest}read x [-9223372036854775808] + [9223372036854775807]\n"
        ))
        .unwrap();
        assert_eq!(n.accesses[0].f[(0, 0)], i64::MIN);
        assert_eq!(n.accesses[0].c, vec![i64::MAX]);
        assert_eq!(n.statements[0].domain.lo(0), i64::MIN);
        for bad in ["-9223372036854775809", "9223372036854775808"] {
            let e = parse_nest(&format!("{nest}read x [{bad}]\n")).unwrap_err();
            assert_eq!((e.line, e.col), (4, 9), "{e}");
            assert!(e.msg.contains("bad matrix entry: number too"), "{e}");
        }
    }

    #[test]
    fn large_matrices_spill_to_the_heap() {
        let row = |i: usize| {
            (0..5)
                .map(|j| i64::from(i == j).to_string())
                .collect::<Vec<_>>()
        };
        let f: Vec<String> = (0..5).map(|i| row(i).join(" ")).collect();
        let src = format!(
            "nest t\narray x 5\nstmt S depth 5 domain 0..1 0..1 0..1 0..1 0..1\nread x [{}]\n",
            f.join("; ")
        );
        let nest = parse_nest(&src).unwrap();
        assert_eq!(nest.accesses[0].f, IMat::identity(5));
        assert_eq!(nest.accesses[0].c, vec![0; 5]);
    }

    #[test]
    fn crlf_tabs_and_unicode_whitespace_separate_tokens() {
        let src = "nest t\r\narray\tx 1\r\nstmt S depth 1\u{a0}domain 0..3\r\n\u{3000}read x [1]\u{b}+ [2]\r\n";
        let nest = parse_nest(src).unwrap();
        assert_eq!(nest.accesses[0].c, vec![2]);
        assert_eq!(nest.statements[0].name, "S");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# top\n\nnest t # trailing\narray x 1\nstmt S depth 1 domain 0..3\nread x [1]\n";
        let nest = parse_nest(src).unwrap();
        assert_eq!(nest.accesses.len(), 1);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_nest("").is_err());
        assert!(parse_nest("# only comments\n").is_err());
    }
}
