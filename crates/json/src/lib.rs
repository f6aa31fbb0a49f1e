#![warn(missing_docs)]

//! Tiny JSON tree, parser, and pretty-printer for the `gpa` workspace.
//!
//! The build environment cannot fetch `serde`/`serde_json`, and the only
//! serialization the workspace needs is caching measured throughput curves
//! on disk (`gpa_ubench::ThroughputCurves`). This crate supplies exactly
//! that: a [`Value`] tree, a strict recursive-descent [`Value::parse`], and
//! a [`Value::to_string_pretty`] writer whose `f64` formatting uses Rust's
//! shortest-round-trip `Display`, so `parse(write(v)) == v` exactly for
//! finite numbers.
//!
//! ```
//! use gpa_json::Value;
//!
//! let v = Value::Object(vec![
//!     ("name".into(), Value::String("gtx285".into())),
//!     ("xs".into(), Value::Array(vec![Value::from(1.5), Value::from(2.0)])),
//! ]);
//! let text = v.to_string_pretty();
//! assert_eq!(Value::parse(&text).unwrap(), v);
//! ```

use std::fmt::{self, Write as _};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Parse or access failure, with a human-readable message and, for parse
/// errors, the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: Option<usize>,
}

impl Error {
    /// An error with no position (schema/access errors).
    pub fn msg(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Error {
        Error {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {o}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for Error {}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Number(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(f64::from(n))
    }
}

impl Value {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::at("trailing characters after document", p.pos));
        }
        Ok(v)
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(x) => write_number(out, *x),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Object field lookup; `Err` if `self` is not an object or lacks `key`.
    pub fn get(&self, key: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::msg(format!("missing field `{key}`"))),
            _ => Err(Error::msg(format!("expected object with field `{key}`"))),
        }
    }

    /// The number value; `Err` for any other variant.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Number(x) => Ok(*x),
            other => Err(Error::msg(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// The number value as an exact `u32`; `Err` on loss or other variants.
    pub fn as_u32(&self) -> Result<u32, Error> {
        let x = self.as_f64()?;
        let n = x as u32;
        if f64::from(n) != x {
            return Err(Error::msg(format!("expected u32, found {x}")));
        }
        Ok(n)
    }

    /// The number value as an exact `u64`; `Err` on loss or other
    /// variants. Counters above 2⁵³ do not survive the `f64` wire
    /// representation, so writers must keep integral fields below that
    /// (every counter in this workspace is).
    pub fn as_u64(&self) -> Result<u64, Error> {
        let x = self.as_f64()?;
        if !(0.0..=9_007_199_254_740_992.0).contains(&x) {
            return Err(Error::msg(format!("expected u64 within 2^53, found {x}")));
        }
        let n = x as u64;
        if n as f64 != x {
            return Err(Error::msg(format!("expected u64, found {x}")));
        }
        Ok(n)
    }

    /// The boolean value; `Err` for any other variant.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, found {}", other.kind()))),
        }
    }

    /// The string value; `Err` for any other variant.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(Error::msg(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// The array items; `Err` for any other variant.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::msg(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// The array items parsed as `f64`s.
    pub fn as_f64_array(&self) -> Result<Vec<f64>, Error> {
        self.as_array()?.iter().map(Value::as_f64).collect()
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// The pretty-printed array of documents already written by
/// [`Value::to_string_pretty`], without parsing them back: byte-identical
/// to `Value::Array(parsed items).to_string_pretty()`.
///
/// Each item loses its trailing newline and moves one level in. The
/// writer escapes every newline inside a string, so each raw `\n` in an
/// item is structural and gets two more spaces of indentation.
///
/// ```
/// use gpa_json::{pretty_array, Value};
///
/// let items = [Value::from(1.5), Value::Object(vec![("k".into(), Value::from("a\nb"))])];
/// let texts: Vec<String> = items.iter().map(Value::to_string_pretty).collect();
/// assert_eq!(
///     pretty_array(texts.iter().map(String::as_str)),
///     Value::Array(items.to_vec()).to_string_pretty()
/// );
/// ```
pub fn pretty_array<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        let item = item.strip_suffix('\n').unwrap_or(item);
        for (k, line) in item.split('\n').enumerate() {
            if k > 0 {
                out.push_str("\n  ");
            }
            out.push_str(line);
        }
    }
    out.push_str(if out.len() == 1 { "]\n" } else { "\n]\n" });
    out
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest-round-trip Display: parses back to the same bits.
        write!(out, "{x}").expect("writing to a String cannot fail");
    } else {
        // JSON has no non-finite literals; null round-trips to an error on
        // read, which is the honest outcome for a corrupted measurement.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // start and end on char boundaries and copy over as slices.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum nesting depth before the parser bails out with an error rather
/// than risking a stack overflow on adversarial input (serde_json guards
/// the same way; its default is also 128).
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error::at("unexpected end of input", self.pos)),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::at(
                format!("unexpected byte `{}`", b as char),
                self.pos,
            )),
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::at(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(Error::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::at("truncated \\u escape", start))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::at("invalid \\u escape", start))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::at("invalid \\u escape", start))?;
                            // Lone surrogates are rejected; pairs unsupported
                            // (never produced by our writer).
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::at("invalid \\u code point", start))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(Error::at("invalid escape", start)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\`. Both
                    // are ASCII, so the run ends on a char boundary of the
                    // (valid UTF-8) input and only the run is validated.
                    let end = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| start + n);
                    let run = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::at("invalid UTF-8", start))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::at("invalid number", start))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::at(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-1.5", "\"hi\\nthere\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(v.to_string_pretty().trim()).unwrap(), v);
        }
    }

    #[test]
    fn f64_round_trip_is_exact() {
        let xs = [
            1.0 / 3.0,
            9.87e9,
            f64::MIN_POSITIVE,
            1.48e9 * 8.0 * 30.0 / 32.0,
            -0.1 + 0.3,
        ];
        let v = Value::Array(xs.iter().copied().map(Value::from).collect());
        let back = Value::parse(&v.to_string_pretty()).unwrap();
        let ys = back.as_f64_array().unwrap();
        assert_eq!(xs.len(), ys.len());
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y}");
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Value::Object(vec![
            ("name".into(), Value::from("gtx 285 \"quoted\"")),
            (
                "warps".into(),
                Value::Array(vec![Value::from(1.0), Value::from(32.0)]),
            ),
            ("empty_arr".into(), Value::Array(vec![])),
            ("empty_obj".into(), Value::Object(vec![])),
            ("flag".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
        ]);
        assert_eq!(Value::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn access_helpers() {
        let v = Value::parse(r#"{"a": 3, "s": "x", "xs": [1, 2]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u32().unwrap(), 3);
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "x");
        assert_eq!(v.get("xs").unwrap().as_f64_array().unwrap(), vec![1.0, 2.0]);
        assert!(v.get("missing").is_err());
        assert!(v.get("s").unwrap().as_u32().is_err());
        assert!(Value::parse("{\"a\": 1.5}")
            .unwrap()
            .get("a")
            .unwrap()
            .as_u32()
            .is_err());
    }

    #[test]
    fn u64_and_bool_helpers() {
        let v = Value::parse(r#"{"n": 9007199254740992, "b": true, "x": 1.5, "neg": -1}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64().unwrap(), 1 << 53);
        assert!(v.get("b").unwrap().as_bool().unwrap());
        assert!(v.get("x").unwrap().as_u64().is_err());
        assert!(v.get("neg").unwrap().as_u64().is_err());
        assert!(v.get("n").unwrap().as_bool().is_err());
        // Above 2^53 integers lose exactness in f64; the range check
        // rejects them even when the rounded value happens to be integral.
        assert!(Value::Number(1.8446744073709552e19).as_u64().is_err());
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7u32), Value::Number(7.0));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // At the limit boundary: 128 levels parse, 129 do not.
        let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(Value::parse(&ok).is_ok());
        let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(Value::parse(&too_deep).is_err());
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = Value::parse("[1, 2").unwrap_err();
        assert!(err.to_string().contains("byte"));
        assert!(Value::parse("[1] trailing").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
    }

    /// Wall-clock ceiling for each adversarial document below, generous
    /// for an unoptimized build. A string scan that re-validates the rest
    /// of the input per character took ~16 s on the first one, optimized.
    const BUDGET: Duration = Duration::from_secs(1);

    const MIB: usize = 1 << 20;

    fn parse_within_budget(text: &str) -> Result<Value, Error> {
        let start = Instant::now();
        let parsed = Value::parse(text);
        let took = start.elapsed();
        assert!(took <= BUDGET, "{} bytes took {took:?}", text.len());
        parsed
    }

    #[test]
    fn a_mebibyte_string_parses_within_budget() {
        let plain = "x".repeat(MIB);
        let v = parse_within_budget(&format!("\"{plain}\"")).unwrap();
        assert_eq!(v.as_str().unwrap(), plain);
        // Multi-byte runs broken up by escapes every few bytes.
        let mixed = "\u{e9}\u{20ac}\\n\u{1d11e}\\u00e9".repeat(MIB / 18);
        let v = parse_within_budget(&format!("\"{mixed}\"")).unwrap();
        assert_eq!(v.as_str().unwrap().chars().count(), 5 * (MIB / 18));
    }

    #[test]
    fn a_mebibyte_of_numbers_parses_within_budget() {
        let mut array = String::from("[");
        while array.len() < MIB {
            array.push_str("-12345.6789e-3, 7, ");
        }
        array.push_str("0]");
        let v = parse_within_budget(&array).unwrap();
        assert_eq!(v.as_array().unwrap()[0], Value::Number(-12.3456789));
        // One number with a mebibyte of digits.
        let long = format!("1{}", "0".repeat(MIB));
        assert_eq!(
            parse_within_budget(&long).unwrap(),
            Value::Number(f64::INFINITY)
        );
    }

    #[test]
    fn the_nesting_limit_holds_within_budget() {
        let at_limit = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(parse_within_budget(&at_limit).is_ok());
        let objects = format!("{}1{}", "{\"k\": ".repeat(128), "}".repeat(128));
        assert!(parse_within_budget(&objects).is_ok());
        let err = parse_within_budget(&"[".repeat(MIB)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "nesting deeper than 128 levels at byte 129"
        );
    }

    #[test]
    fn multi_byte_runs_next_to_escapes_decode() {
        let v = Value::parse(r#""\néé€𝄞\t漢字\"A""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\n\u{e9}é€𝄞\t漢字\"A");
        let v = Value::parse(r#"{"ключ": "знач\\ение"}"#).unwrap();
        assert_eq!(v.get("ключ").unwrap().as_str().unwrap(), "знач\\ение");
        // The writer copies the same runs back out.
        let text = Value::from("é\u{1}€\"𝄞\\").to_string_pretty();
        assert_eq!(text, "\"é\\u0001€\\\"𝄞\\\\\"\n");
        assert_eq!(
            Value::parse(text.trim()).unwrap(),
            Value::from("é\u{1}€\"𝄞\\")
        );
    }

    #[test]
    fn a_string_of_only_escapes_decodes() {
        let v = Value::parse(r#""\"\\\/\b\f\n\r\t\u0000ÿ""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\"\\/\u{8}\u{c}\n\r\t\u{0}\u{ff}");
        assert_eq!(Value::parse(r#""""#).unwrap(), Value::from(""));
    }

    #[test]
    fn raw_control_bytes_inside_strings_are_accepted() {
        let v = Value::parse("\"a\u{1}b\tc\nd\u{1f}\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "a\u{1}b\tc\nd\u{1f}");
    }

    #[test]
    fn string_errors_report_their_byte_offset() {
        let long = format!("\"{}", "é".repeat(5000));
        let err = Value::parse(&long).unwrap_err();
        assert_eq!(err.to_string(), "unterminated string at byte 10001");
        let err = Value::parse(&format!("{long}\\")).unwrap_err();
        assert_eq!(err.to_string(), "invalid escape at byte 10001");
        let err = Value::parse("[\"ab\\q\"]").unwrap_err();
        assert_eq!(err.to_string(), "invalid escape at byte 4");
        let err = Value::parse("\"ab\\u00zz\"").unwrap_err();
        assert_eq!(err.to_string(), "invalid \\u escape at byte 3");
        let err = Value::parse("\"ab\\ud800\"").unwrap_err();
        assert_eq!(err.to_string(), "invalid \\u code point at byte 3");
        let err = Value::parse("\"ab\\u0").unwrap_err();
        assert_eq!(err.to_string(), "truncated \\u escape at byte 3");
    }

    #[test]
    fn pretty_array_splices_like_the_value_writer() {
        let items = [
            Value::Null,
            Value::from("line\nbreak \"quoted\""),
            Value::Array(vec![]),
            Value::Object(vec![]),
            Value::Object(vec![(
                "nested".into(),
                Value::Array(vec![
                    Value::from(1.0),
                    Value::Object(vec![("a".into(), Value::Null)]),
                ]),
            )]),
        ];
        for n in 0..=items.len() {
            let texts: Vec<String> = items[..n].iter().map(Value::to_string_pretty).collect();
            assert_eq!(
                pretty_array(texts.iter().map(String::as_str)),
                Value::Array(items[..n].to_vec()).to_string_pretty(),
                "first {n} items"
            );
        }
    }
}
