//! A minimal, deterministic JSON document model.
//!
//! The workspace has no serialization dependency, so the
//! structured-results layer carries its own document model: a [`Json`]
//! tree with insertion-ordered objects, a
//! writer whose output is byte-deterministic for a given tree, and a
//! strict recursive-descent parser for reading committed golden files
//! back.
//!
//! Determinism rules the writer follows (and the golden-snapshot harness
//! relies on):
//!
//! * object members keep insertion order — no sorting, no hashing;
//! * numbers that are mathematically integral (and within `i64`) render
//!   without a fractional part; everything else uses Rust's shortest
//!   round-trip `f64` formatting;
//! * non-finite numbers cannot be constructed ([`Json::num`] maps them
//!   to strings), so the writer always emits valid JSON.
//!
//! # Examples
//!
//! ```
//! use hydra_stats::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::str("gcc")),
//!     ("ipc", Json::num(1.25)),
//!     ("committed", Json::num(60_000.0)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name":"gcc","ipc":1.25,"committed":60000}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

/// One JSON value: the document model for structured experiment results.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Construct via [`Json::num`], which guards
    /// against NaN/infinity.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with *insertion-ordered* members (order is part of the
    /// byte-deterministic output contract).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// A numeric value; non-finite inputs become their string form
    /// (`"NaN"`, `"inf"`) so the writer always emits valid JSON.
    pub fn num(v: f64) -> Self {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Str(v.to_string())
        }
    }

    /// An integer value (exact for any `u64` the simulator produces
    /// within `f64`'s 2^53 integer range — counters here are far below
    /// that).
    pub fn int(v: u64) -> Self {
        Json::Num(v as f64)
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up an object member by key (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline, the
    /// format golden files are committed in.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&INDENT.repeat(depth + 1));
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&INDENT.repeat(depth + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push('}');
            }
            other => write_compact(out, other),
        }
    }

    /// Parses a JSON document. Strict: one value, no trailing garbage.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset and message on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_compact(&mut out, self);
        f.write_str(&out)
    }
}

/// Formats a finite number: integral values (within `i64`) without a
/// fractional part, everything else with shortest round-trip formatting.
fn write_num(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates would need pairing; goldens never
                            // contain them, so reject instead of guessing.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            s.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one UTF-8 character. Decode only its own
                    // bytes: validating the whole remaining input here
                    // made parsing quadratic in document size.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    let c = chunk.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    s.push(c);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| self.err(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_canonical() {
        let doc = Json::obj([
            ("a", Json::int(1)),
            ("b", Json::num(2.5)),
            (
                "c",
                Json::arr([Json::Null, Json::Bool(true), Json::str("x")]),
            ),
        ]);
        assert_eq!(doc.to_string(), r#"{"a":1,"b":2.5,"c":[null,true,"x"]}"#);
    }

    #[test]
    fn integral_floats_render_without_fraction() {
        assert_eq!(Json::num(60000.0).to_string(), "60000");
        assert_eq!(Json::num(-3.0).to_string(), "-3");
        assert_eq!(Json::num(0.125).to_string(), "0.125");
    }

    #[test]
    fn non_finite_numbers_become_strings() {
        assert_eq!(Json::num(f64::NAN), Json::str("NaN"));
        assert_eq!(Json::num(f64::INFINITY), Json::str("inf"));
    }

    #[test]
    fn round_trips_through_parse() {
        let doc = Json::obj([
            ("title", Json::str("Table 4: \"quotes\" & a\nnewline")),
            (
                "rows",
                Json::arr([Json::arr([Json::num(97.12), Json::int(0)])]),
            ),
            ("empty_obj", Json::obj::<String>([])),
            ("empty_arr", Json::arr([])),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn pretty_output_is_indented_and_newline_terminated() {
        let doc = Json::obj([("k", Json::arr([Json::int(1)]))]);
        assert_eq!(doc.pretty(), "{\n  \"k\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let v = Json::parse(r#" { "x" : [ 1 , -2.5e1 , "aAb" ] , "y" : null } "#).unwrap();
        assert_eq!(v.get("y"), Some(&Json::Null));
        let xs = v.get("x").and_then(Json::as_arr).unwrap();
        assert_eq!(xs[1].as_num(), Some(-25.0));
        assert_eq!(xs[2].as_str(), Some("aAb"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"abc", "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("[1, %]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn parser_decodes_multibyte_strings() {
        let doc = Json::obj([("label", Json::str("gcc × tos+contents — π≈3"))]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert!(Json::parse("\"ab\u{1}cd\"").is_err(), "raw control byte");
    }

    #[test]
    fn parser_is_linear_in_string_volume() {
        // Regression: per-character UTF-8 validation used to re-scan the
        // whole remaining input, making string-heavy documents (like
        // exported traces) quadratic to parse. A megabyte of string
        // members must parse in well under a second even in debug mode.
        let body: String = (0..20_000)
            .map(|i| format!("{}\"k{i}\":\"value × {i}\"", if i > 0 { "," } else { "" }))
            .collect();
        let text = format!("{{{body}}}");
        let t0 = std::time::Instant::now();
        let doc = Json::parse(&text).unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "parse took {:?}",
            t0.elapsed()
        );
        assert_eq!(
            doc.get("k19999").and_then(Json::as_str),
            Some("value × 19999")
        );
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::obj([("a", Json::num(1.5))]);
        assert_eq!(doc.get("a").and_then(Json::as_num), Some(1.5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
        assert_eq!(Json::str("s").as_num(), None);
    }
}
