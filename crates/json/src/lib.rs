//! # rescomm-json — stable JSON emission and strict parsing
//!
//! Two halves, one byte discipline:
//!
//! * [`JsonDoc`] — the field-order-stable emitter behind every committed
//!   `BENCH_*.json` artifact (top-level scalars first, then named row
//!   arrays of flat objects, fields in insertion order, floats at fixed
//!   precision). The bench bins write every artifact through it; the
//!   mapping service (`rescomm::serve`) does not use it: it renders
//!   answers as [`JsonValue`]s and splices them into its snapshots.
//! * [`parse`] — the matching strict parser. It accepts exactly the
//!   JSON the emitter produces (plus standard escapes, exponents and
//!   nested values), reports malformed input with a 1-based line and
//!   column in the same style as the nest parser's `err_at`, **rejects
//!   duplicate object keys** instead of silently last-wins, and rejects
//!   trailing garbage after the top-level value. Hostile inputs (deep
//!   nesting, unterminated tokens, stray bytes) produce a [`JsonError`],
//!   never a panic — the mapping service feeds it raw network bytes.
//!
//! ```
//! use rescomm_json::{parse, JsonValue};
//! let v = parse(r#"{"bench": "service", "rows": [1, 2, 3]}"#).unwrap();
//! assert_eq!(v.get("bench").and_then(JsonValue::as_str), Some("service"));
//! assert_eq!(v.get("rows").and_then(JsonValue::as_array).map(|a| a.len()), Some(3));
//! assert!(parse("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys rejected");
//! assert!(parse("{} junk").is_err(), "trailing garbage rejected");
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------------

/// A JSON value with explicit rendering. Floats carry their precision so
/// the artifact bytes do not depend on default float formatting.
#[derive(Debug, Clone)]
pub enum Val {
    /// An unsigned integer.
    U64(u64),
    /// A boolean.
    Bool(bool),
    /// A string (quoted and escaped on render).
    Str(String),
    /// A float rendered at a fixed number of decimal places.
    Fixed(f64, usize),
    /// Pre-rendered JSON spliced in verbatim (e.g. `[8, 4]`).
    Raw(String),
}

/// Fixed-precision float: `fixed(1.4128, 3)` renders as `1.413`.
pub fn fixed(x: f64, places: usize) -> Val {
    Val::Fixed(x, places)
}

/// Verbatim JSON fragment, e.g. a literal array or nested object.
pub fn raw(json: impl Into<String>) -> Val {
    Val::Raw(json.into())
}

impl From<u64> for Val {
    fn from(x: u64) -> Self {
        Val::U64(x)
    }
}
impl From<u32> for Val {
    fn from(x: u32) -> Self {
        Val::U64(u64::from(x))
    }
}
impl From<usize> for Val {
    fn from(x: usize) -> Self {
        Val::U64(x as u64)
    }
}
impl From<bool> for Val {
    fn from(x: bool) -> Self {
        Val::Bool(x)
    }
}
impl From<&str> for Val {
    fn from(x: &str) -> Self {
        Val::Str(x.to_string())
    }
}
impl From<String> for Val {
    fn from(x: String) -> Self {
        Val::Str(x)
    }
}

/// Escape `s` into `out` using the emitter's escape set.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_val(out: &mut String, v: &Val) {
    match v {
        Val::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Val::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Val::Str(s) => escape_into(out, s),
        Val::Fixed(x, p) => {
            let _ = write!(out, "{x:.p$}");
        }
        Val::Raw(s) => out.push_str(s),
    }
}

enum Entry {
    Scalar(Val),
    Array(Vec<Vec<(&'static str, Val)>>),
}

/// An in-order JSON document builder (see the module docs for the exact
/// layout). Keys render in insertion order; [`JsonDoc::finish`] produces
/// the final string including the trailing newline.
#[derive(Default)]
pub struct JsonDoc {
    items: Vec<(&'static str, Entry)>,
}

impl JsonDoc {
    /// Empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a top-level scalar field.
    pub fn field(&mut self, key: &'static str, val: impl Into<Val>) -> &mut Self {
        self.items.push((key, Entry::Scalar(val.into())));
        self
    }

    /// Append a named array of flat row objects; `row` maps each item to
    /// its `(key, value)` columns, rendered in the order returned.
    pub fn rows<T>(
        &mut self,
        key: &'static str,
        items: &[T],
        row: impl Fn(&T) -> Vec<(&'static str, Val)>,
    ) -> &mut Self {
        self.items
            .push((key, Entry::Array(items.iter().map(row).collect())));
        self
    }

    /// Render the document.
    pub fn finish(&self) -> String {
        let mut j = String::from("{\n");
        for (i, (key, entry)) in self.items.iter().enumerate() {
            let _ = write!(j, "  \"{key}\": ");
            match entry {
                Entry::Scalar(v) => render_val(&mut j, v),
                Entry::Array(rows) => {
                    j.push_str("[\n");
                    for (r, fields) in rows.iter().enumerate() {
                        j.push_str("    {");
                        for (f, (k, v)) in fields.iter().enumerate() {
                            if f > 0 {
                                j.push_str(", ");
                            }
                            let _ = write!(j, "\"{k}\": ");
                            render_val(&mut j, v);
                        }
                        j.push('}');
                        j.push_str(if r + 1 < rows.len() { ",\n" } else { "\n" });
                    }
                    j.push_str("  ]");
                }
            }
            j.push_str(if i + 1 < self.items.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        j.push_str("}\n");
        j
    }

    /// Render and write the document to `path`, panicking with a
    /// diagnostic on failure (harness binaries treat I/O errors as
    /// fatal).
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.finish()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/// Parse error with a 1-based line number and column, formatted like the
/// nest parser's errors (`rescomm_loopnest::parser::ParseError`):
/// `line L, col C: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Line the error was detected on (1-based).
    pub line: usize,
    /// Column of the offending character (1-based).
    pub col: usize,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value. Objects keep their fields in source order (the
/// emitter's order is part of the committed-artifact contract, so the
/// parser must not shuffle it).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in source order. Keys are unique ([`parse`]
    /// rejects duplicates).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integral value as `i64` (integers only — floats don't coerce).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// Integral value as `u64`, when non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(x) if *x >= 0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// An object with `fields` in the given order.
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A `u64`, exactly: a plain integer when it fits `i64`, otherwise a
    /// decimal string, so no value is ever squeezed through an `f64`.
    pub fn exact_u64(x: u64) -> JsonValue {
        match i64::try_from(x) {
            Ok(i) => JsonValue::Int(i),
            Err(_) => JsonValue::Str(x.to_string()),
        }
    }

    /// Render back to compact JSON (one line, no spaces after `,`/`:`
    /// beyond a single separator — the canonical wire form of the
    /// service protocol). Integers and floats render via Rust's shortest
    /// round-trip formatting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Int(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Float(x) => {
                if x.is_finite() {
                    // `{}` round-trips f64 exactly; keep whole floats
                    // distinguishable from integers on the wire.
                    let s = format!("{x}");
                    let is_whole = !s.contains(['.', 'e', 'E']);
                    out.push_str(&s);
                    if is_whole {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape_into(out, k);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Nesting depth cap: hostile inputs must exhaust the parser's patience,
/// not the thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// Remaining input.
    rest: std::str::Chars<'a>,
    /// One-character lookahead.
    peeked: Option<char>,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            rest: src.chars(),
            peeked: None,
            line: 1,
            col: 1,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        })
    }

    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.rest.next();
        }
        self.peeked
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.peeked = None;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), JsonError> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => self.err(format!("expected {want:?}, got {c:?}")),
            None => self.err(format!("expected {want:?}, got end of input")),
        }
    }

    fn keyword(&mut self, rest: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for want in rest.chars() {
            match self.bump() {
                Some(c) if c == want => {}
                Some(c) => {
                    return self.err(format!("invalid literal: expected {want:?}, got {c:?}"))
                }
                None => return self.err("invalid literal: unexpected end of input"),
            }
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        // Opening quote already consumed by the caller.
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('u') => {
                        let hi = self.hex4()?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            match (self.bump(), self.bump()) {
                                (Some('\\'), Some('u')) => {
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return self.err("invalid low surrogate");
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                }
                                _ => return self.err("lone high surrogate"),
                            }
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return self.err("lone low surrogate");
                        } else {
                            hi
                        };
                        match char::from_u32(cp) {
                            Some(c) => s.push(c),
                            None => return self.err("invalid \\u escape"),
                        }
                    }
                    Some(c) => return self.err(format!("unknown escape \\{c}")),
                    None => return self.err("unterminated escape"),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return self.err("raw control character in string (escape it)")
                }
                Some(c) => s.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            match self.bump().and_then(|c| c.to_digit(16)) {
                Some(d) => v = v * 16 + d,
                None => return self.err("expected 4 hex digits after \\u"),
            }
        }
        Ok(v)
    }

    fn number(&mut self, first: char) -> Result<JsonValue, JsonError> {
        let mut text = String::new();
        text.push(first);
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => {
                    text.push(c);
                    self.bump();
                }
                '.' | 'e' | 'E' | '+' | '-' => {
                    is_float = true;
                    text.push(c);
                    self.bump();
                }
                _ => break,
            }
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(JsonValue::Float(f)),
            _ => self.err(format!("invalid number {text:?}")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.bump() {
            None => self.err("unexpected end of input"),
            Some('{') => {
                let mut fields: Vec<(String, JsonValue)> = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let (kline, kcol) = (self.line, self.col);
                    self.expect('"').map_err(|e| JsonError {
                        msg: format!("expected object key: {}", e.msg),
                        ..e
                    })?;
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(JsonError {
                            line: kline,
                            col: kcol,
                            msg: format!("duplicate key {key:?}"),
                        });
                    }
                    self.skip_ws();
                    self.expect(':')?;
                    let v = self.value(depth + 1)?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => continue,
                        Some('}') => return Ok(JsonValue::Object(fields)),
                        Some(c) => return self.err(format!("expected ',' or '}}', got {c:?}")),
                        None => return self.err("unterminated object"),
                    }
                }
            }
            Some('[') => {
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.bump();
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => continue,
                        Some(']') => return Ok(JsonValue::Array(items)),
                        Some(c) => return self.err(format!("expected ',' or ']', got {c:?}")),
                        None => return self.err("unterminated array"),
                    }
                }
            }
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t') => self.keyword("rue", JsonValue::Bool(true)),
            Some('f') => self.keyword("alse", JsonValue::Bool(false)),
            Some('n') => self.keyword("ull", JsonValue::Null),
            Some(c @ ('-' | '0'..='9')) => self.number(c),
            Some(c) => self.err(format!("unexpected character {c:?}")),
        }
    }
}

/// Parse one JSON value from `src`, rejecting duplicate object keys and
/// any non-whitespace trailing garbage. Errors carry the 1-based line and
/// column where parsing stopped.
pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser::new(src);
    let v = p.value(0)?;
    p.skip_ws();
    if let Some(c) = p.peek() {
        return p.err(format!("trailing garbage after the value: {c:?}"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_committed_artifact_layout() {
        let mut doc = JsonDoc::new();
        doc.field("bench", "faults")
            .field("mesh", raw("[8, 4]"))
            .field("phases", 8u64)
            .field("dup_prob", fixed(0.02, 2));
        doc.rows("drop_sweep", &[(0u32, 1.0f64), (5, 1.4128)], |r| {
            vec![
                ("drop_pct", Val::from(r.0)),
                ("retry", Val::from(true)),
                ("inflation", fixed(r.1, 3)),
            ]
        });
        assert_eq!(
            doc.finish(),
            "{\n  \"bench\": \"faults\",\n  \"mesh\": [8, 4],\n  \"phases\": 8,\n  \
             \"dup_prob\": 0.02,\n  \"drop_sweep\": [\n    \
             {\"drop_pct\": 0, \"retry\": true, \"inflation\": 1.000},\n    \
             {\"drop_pct\": 5, \"retry\": true, \"inflation\": 1.413}\n  ]\n}\n"
        );
    }

    #[test]
    fn last_field_has_no_trailing_comma_and_strings_escape() {
        let mut doc = JsonDoc::new();
        doc.field("name", "a \"b\" \\ c");
        assert_eq!(doc.finish(), "{\n  \"name\": \"a \\\"b\\\" \\\\ c\"\n}\n");
    }

    #[test]
    fn empty_array_renders_flat() {
        let mut doc = JsonDoc::new();
        doc.field("n", 0u64);
        doc.rows("rows", &[] as &[u64], |_| vec![]);
        assert_eq!(doc.finish(), "{\n  \"n\": 0,\n  \"rows\": [\n  ]\n}\n");
    }

    #[test]
    fn parser_round_trips_the_emitter() {
        let mut doc = JsonDoc::new();
        doc.field("bench", "svc")
            .field("n", 3u64)
            .field("ratio", fixed(1.5, 3))
            .field("shape", raw("[8, 4]"));
        doc.rows("rows", &[(1u64, true), (2, false)], |r| {
            vec![("id", Val::from(r.0)), ("ok", Val::from(r.1))]
        });
        let v = parse(&doc.finish()).unwrap();
        assert_eq!(v.get("bench").and_then(JsonValue::as_str), Some("svc"));
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("ratio"), Some(&JsonValue::Float(1.5)));
        let shape = v.get("shape").and_then(JsonValue::as_array).unwrap();
        assert_eq!(shape[0].as_i64(), Some(8));
        let rows = v.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("ok").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn object_field_order_is_source_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let JsonValue::Object(fields) = &v else {
            panic!("expected an object: {v:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
        // The builder keeps insertion order too, and renders exact u64s.
        let built = JsonValue::object([
            ("z", JsonValue::exact_u64(7)),
            ("a", JsonValue::exact_u64(u64::MAX)),
        ]);
        assert_eq!(
            built.render(),
            format!("{{\"z\": 7, \"a\": \"{}\"}}", u64::MAX)
        );
    }

    #[test]
    fn duplicate_keys_rejected_with_position() {
        let e = parse("{\"a\": 1,\n \"a\": 2}").unwrap_err();
        assert_eq!((e.line, e.col), (2, 2));
        assert!(e.msg.contains("duplicate key"));
        assert!(format!("{e}").contains("line 2, col 2"));
        // Nested objects are checked too.
        assert!(parse(r#"{"x": {"k": 1, "k": 2}}"#).is_err());
        // Same key in *different* objects is fine.
        assert!(parse(r#"[{"k": 1}, {"k": 2}]"#).is_ok());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let e = parse("{\"a\": 1}\nxyz").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("trailing garbage"));
        assert!(parse("[1, 2] 3").is_err());
        assert!(parse("1 2").is_err());
        // Trailing whitespace/newline is not garbage.
        assert!(parse("{\"a\": 1}\n  \n").is_ok());
    }

    #[test]
    fn malformed_inputs_error_with_line_and_col() {
        for (src, needle) in [
            ("", "end of input"),
            ("{", "expected object key"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a\": }", "unexpected character"),
            ("[1, ", "end of input"),
            ("\"abc", "unterminated string"),
            ("tru", "invalid literal"),
            ("trua", "invalid literal"),
            ("{\"a\": 1,}", "expected object key"),
            ("01x", "trailing garbage"),
            ("-", "invalid number"),
            ("1.2.3", "invalid number"),
            ("\"\\q\"", "unknown escape"),
            ("\"\\ud800\"", "lone high surrogate"),
            ("nullx", "trailing garbage"),
        ] {
            let e = parse(src).unwrap_err();
            assert!(
                e.msg.contains(needle),
                "{src:?}: expected {needle:?} in {:?}",
                e.msg
            );
            assert!(e.line >= 1 && e.col >= 1, "{src:?}: {e:?}");
        }
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
        // i64 boundary stays exact; beyond it becomes a float.
        assert_eq!(
            parse("9223372036854775807").unwrap(),
            JsonValue::Int(i64::MAX)
        );
        assert!(matches!(
            parse("92233720368547758080").unwrap(),
            JsonValue::Float(_)
        ));
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\t\u0041\u00e9""#).unwrap(),
            JsonValue::Str("a\"b\\c\nd\tAé".into())
        );
        // Surrogate pair.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            JsonValue::Str("😀".into())
        );
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e:?}");
    }

    #[test]
    fn render_round_trips() {
        let src = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5}}"#;
        let v = parse(src).unwrap();
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
        // Rendering is canonical: parse(render(v)).render() == render(v).
        assert_eq!(parse(&rendered).unwrap().render(), rendered);
    }

    #[test]
    fn whole_floats_render_as_floats() {
        let v = JsonValue::Float(1000.0);
        let r = v.render();
        assert_eq!(parse(&r).unwrap(), v, "{r}");
    }
}
