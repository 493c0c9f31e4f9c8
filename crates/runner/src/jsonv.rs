//! The workspace's one JSON tree: reader and writer.
//!
//! The approved dependency set has no serialisation framework, so every
//! JSON artefact goes through this module: results journals, sweep
//! archives, the serve wire and its cache WAL, fuzz corpus files and
//! `osoffload inspect`. A small recursive-descent reader produces a
//! [`Value`] tree; [`Value::to_json`] and [`Value::to_json_pretty`]
//! write one back. Unsigned integers keep full `u64` fidelity (seeds
//! exceed 2^53, where `f64` starts dropping bits), and floats keep their
//! point through a round trip.
//!
//! The reader follows RFC 8259 and names the byte offset of every
//! error. It refuses documents nested deeper than [`MAX_DEPTH`]: the
//! serve daemon parses lines straight off the network on connection
//! threads, and without a bound one line of `[` overflows the thread's
//! stack and aborts the whole process. The workspace's own documents
//! nest fewer than 10 deep.

use osoffload_obs::json_escape;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (kept exact).
    UInt(u64),
    /// A negative integer that fits `i64` (kept exact).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (the writer keeps that order, which
    /// keeps corpus files byte-stable).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a `u32`, if it is a non-negative integer that fits.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The value as an `f64` (integers are converted).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value compactly: no whitespace, source key order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialises with two-space indentation and a trailing newline, for
    /// files people read and hand-edit.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => write_float(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                pad(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
        // `{}` renders integral floats without a point; keep the type
        // distinction through a round trip.
        if x.fract() == 0.0 {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Parses `text` as one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
        }
    }

    /// Steps over an opening bracket, refusing to nest past [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.open()?;
        let mut fields = Vec::new();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(Value::Obj(fields))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.open()?;
        let mut items = Vec::new();
        if self.peek() != Some(b']') {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(Value::Arr(items))
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// Steps over one or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // The grammar above admits only ASCII.
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("bad number"))
    }

    /// The value of the four hex digits starting at `at`.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)?
            .iter()
            .try_fold(0, |n, &b| Some(n * 16 + char::from(b).to_digit(16)?))
    }

    /// Decodes the `\u` escape whose `u` is at `self.pos`, leaving
    /// `self.pos` on its last hex digit. A UTF-16 surrogate pair spans
    /// two escapes; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let (mut code, mut len) = (self.hex4(at + 1), 4);
        if let Some(hi @ 0xD800..=0xDBFF) = code {
            code = match (self.bytes.get(at + 5..at + 7), self.hex4(at + 7)) {
                (Some(b"\\u"), Some(lo @ 0xDC00..=0xDFFF)) => {
                    Some(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                }
                _ => None,
            };
            len = 10;
        }
        let c = code
            .and_then(char::from_u32)
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += len;
        Ok(c)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go. Both are ASCII, so the run ends on a char boundary.
                    let bytes = self.bytes;
                    let run = bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(bytes.len() - self.pos);
                    let text = core::str::from_utf8(&bytes[self.pos..self.pos + run])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v = parse(r#"{"a":1,"b":-2,"c":1.5,"d":"x\ny","e":[true,false,null]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b"), Some(&Value::Int(-2)));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("e").unwrap().as_arr().unwrap()[1].as_bool(),
            Some(false)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        // 2^63 + 3 is not representable in f64; a float-only parser
        // corrupts it.
        for n in [0u64, 1, u64::MAX, (1 << 63) + 3, 0xD15C_0C0A] {
            let j = Value::UInt(n).to_json();
            assert_eq!(parse(&j).unwrap(), Value::UInt(n), "{n}");
        }
        let v = parse(&format!("{{\"seed\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn document_round_trips() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("we\"ird\\s\n\u{1}".into())),
            ("seed".into(), Value::UInt(u64::MAX)),
            ("neg".into(), Value::Int(-7)),
            ("x".into(), Value::Float(0.25)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "list".into(),
                Value::Arr(vec![Value::UInt(1), Value::UInt(2)]),
            ),
            ("empty".into(), Value::Arr(vec![])),
            ("nested".into(), Value::Obj(vec![])),
        ]);
        for text in [doc.to_json(), doc.to_json_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn floats_keep_their_point() {
        assert_eq!(Value::Float(2.0).to_json(), "2.0");
        assert_eq!(Value::Float(-0.0).to_json(), "-0.0");
        assert_eq!(Value::Float(0.5).to_json(), "0.5");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(parse("2.0").unwrap(), Value::Float(2.0));
        assert_eq!(parse("-3").unwrap(), Value::Int(-3));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("-0.5E-1").unwrap(), Value::Float(-0.05));
    }

    #[test]
    fn multibyte_runs_next_to_escapes() {
        let v = parse(r#"{"s":"é€\n😀\"ü\u00e9ñ","t":"日本"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("é€\n😀\"üéñ"));
        assert_eq!(v.get("t").unwrap().as_str(), Some("日本"));
        // A UTF-16 surrogate pair spans two escapes.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
    }

    #[test]
    fn errors_carry_offsets() {
        for (bad, at) in [
            ("", 0),
            ("{", 1),
            ("{\"a\"", 4),
            ("{\"a\":1", 6),
            ("{\"a\":1}garbage", 7),
            ("[1,", 3),
            ("\"x", 2),
            ("{\"a\" 1}", 5),
            ("nul", 0),
            ("01", 1),
            ("{} {}", 3),
            ("[1, ?]", 4),
            ("+1", 0),
            (".5", 0),
            ("1.", 2),
            ("1e", 2),
            ("-", 1),
            ("\"\\x\"", 2),
            ("\"\\u12\"", 2),
            ("\"\\u+123\"", 2),
            ("\"\\ud800\"", 2),
            ("\"\\udc00\"", 2),
            ("\"\\ud800\\u0041\"", 2),
        ] {
            let e = parse(bad).expect_err(bad);
            assert!(e.ends_with(&format!(" at byte {at}")), "{bad:?}: {e}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting deeper than 128"), "{e}");
        assert!(e.ends_with(&format!(" at byte {MAX_DEPTH}")), "{e}");
        // Objects count toward the same cap, and closing a level frees it.
        let objs = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objs).is_ok());
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
        // A huge unclosed run fails at the cap, not by stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }
}
