//! Minimal JSON document builder and parser.
//!
//! The workspace builds fully offline, so instead of `serde_json` the
//! observability layer emits reports through this small value model. It
//! supports exactly what machine-readable run reports need: ordered
//! objects, arrays, strings with escaping, booleans, and numbers that
//! round-trip `u64` counters exactly (floats print with enough digits to
//! reconstruct the `f64`). [`parse`] reads the same documents back —
//! report consumers (the pin tests, the timeline validator) work on
//! parsed [`Value`]s rather than regexes over report text.
//!
//! # Examples
//!
//! ```
//! use pudiannao_accel::json::Value;
//!
//! let doc = Value::object()
//!     .with("cycles", 1024u64)
//!     .with("label", "k-means")
//!     .with("stages", Value::array(vec![Value::from("Adder"), Value::from("Acc")]));
//! assert_eq!(
//!     doc.to_string(),
//!     r#"{"cycles":1024,"label":"k-means","stages":["Adder","Acc"]}"#
//! );
//! ```

use core::fmt;

/// A JSON value. Object fields keep insertion order so reports diff
/// cleanly across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer, printed exactly.
    UInt(u64),
    /// Signed integer, printed exactly.
    Int(i64),
    /// Floating point; non-finite values serialise as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with ordered fields.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    #[must_use]
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// An array of the given values.
    #[must_use]
    pub fn array(values: Vec<Value>) -> Value {
        Value::Array(values)
    }

    /// Appends a field to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Value {
        self.set(key, value);
        self
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        match self {
            Value::Object(fields) => fields.push((key.into(), value.into())),
            other => panic!("cannot set a field on non-object JSON value {other:?}"),
        }
    }

    /// Appends an element to an array.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an array.
    pub fn push(&mut self, value: impl Into<Value>) {
        match self {
            Value::Array(values) => values.push(value.into()),
            other => panic!("cannot push onto non-array JSON value {other:?}"),
        }
    }

    /// Looks up a field of an object (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any kind of number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(values) => Some(values),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Array(values) if !values.is_empty() => {
                out.push_str("[\n");
                for (i, v) in values.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    v.write_pretty(out, indent + 1);
                    if i + 1 < values.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            compact => {
                use fmt::Write;
                let _ = write!(out, "{compact}");
            }
        }
    }
}

/// Where and why [`parse`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of arrays and objects [`parse`] accepts. The deepest
/// report the workspace writes nests 7 levels; the limit keeps a hostile
/// document from overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`].
///
/// Integers without a fraction or exponent become [`Value::UInt`] /
/// [`Value::Int`] (so `u64` counters round-trip exactly); everything else
/// numeric becomes [`Value::Float`]. Trailing non-whitespace is an error,
/// and so are nesting arrays and objects more than 128 levels deep, a
/// number beyond `f64`'s range (it could not be written back), and a
/// decimal point with no digit after it.
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text: input, pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(values));
        }
        loop {
            self.skip_ws();
            values.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(values));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = code * 16 + nibble;
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u', "expected \\u for low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of plain characters in one go. It starts
                    // and ends next to ASCII bytes, so on char boundaries of
                    // the (valid UTF-8) input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(ParseError { offset: start, message: "no digit after decimal point" });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            // `f64` parsing saturates to infinity, which would serialise
            // back as `null`.
            Ok(_) => Err(ParseError { offset: start, message: "number overflows f64" }),
            Err(_) => Err(ParseError { offset: start, message: "invalid number" }),
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::UInt(n) => write!(f, "{n}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) if x.is_finite() => {
                // Shortest representation that round-trips f64.
                let s = format!("{x}");
                f.write_str(&s)?;
                if !s.contains(['.', 'e', 'E']) {
                    f.write_str(".0")?;
                }
                Ok(())
            }
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Value::Array(values) => {
                f.write_str("[")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    write_escaped(&mut buf, k);
                    write!(f, "{buf}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::UInt(u64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_serialisation() {
        let v = Value::object()
            .with("a", 1u64)
            .with("b", -2i64)
            .with("c", 0.5f64)
            .with("d", true)
            .with("e", Value::Null)
            .with("f", Value::array(vec![Value::from("x"), Value::from(3u64)]));
        assert_eq!(v.to_string(), r#"{"a":1,"b":-2,"c":0.5,"d":true,"e":null,"f":["x",3]}"#);
    }

    #[test]
    fn escaping() {
        let v = Value::from("line\n\"quote\"\\tab\t\u{1}");
        assert_eq!(v.to_string(), "\"line\\n\\\"quote\\\"\\\\tab\\t\\u0001\"");
    }

    #[test]
    fn floats_round_trip_and_non_finite_is_null() {
        assert_eq!(Value::from(2.0f64).to_string(), "2.0");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        let x = 0.1f64 + 0.2;
        let printed = Value::from(x).to_string();
        assert_eq!(printed.parse::<f64>().unwrap(), x);
    }

    #[test]
    fn pretty_printing_nests() {
        let v = Value::object()
            .with("empty", Value::object())
            .with("list", Value::array(vec![Value::from(1u64), Value::from(2u64)]));
        let s = v.to_string_pretty();
        assert!(s.starts_with("{\n"));
        assert!(s.contains("  \"empty\": {}"));
        assert!(s.contains("  \"list\": [\n    1,\n    2\n  ]"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn exact_u64_counters() {
        let big = u64::MAX;
        assert_eq!(Value::from(big).to_string(), big.to_string());
    }

    #[test]
    fn get_finds_fields() {
        let v = Value::object().with("k", 7u64);
        assert_eq!(v.get("k"), Some(&Value::UInt(7)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("k"), None);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("0.5").unwrap(), Value::Float(0.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse(&u64::MAX.to_string()).unwrap(), Value::UInt(u64::MAX));
        // Integer too big for u64/i64 falls back to float.
        assert!(matches!(parse("99999999999999999999999").unwrap(), Value::Float(_)));
    }

    #[test]
    fn parse_strings_and_escapes() {
        assert_eq!(parse(r#""hi""#).unwrap(), Value::from("hi"));
        assert_eq!(parse(r#""a\nb\t\"c\"\\""#).unwrap(), Value::from("a\nb\t\"c\"\\"));
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::from("Aé"));
        // Surrogate pair for U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Value::from("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse("\"raw\ncontrol\"").is_err());
    }

    #[test]
    fn parse_containers_preserve_order() {
        let v = parse(r#"{"b":1,"a":[2,-3,null],"c":{"nested":true}}"#).unwrap();
        let Value::Object(fields) = &v else { panic!("expected object") };
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("nested"), Some(&Value::Bool(true)));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{ }").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"k\":}", "tru", "1 2", "{\"k\" 1}", "[1 2]", "nul"] {
            assert!(parse(bad).is_err(), "expected parse failure for {bad:?}");
        }
        let err = parse("[1,]").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn parse_rejects_numbers_that_do_not_round_trip() {
        let at = |offset, message| Err(ParseError { offset, message });
        let overflow = "number overflows f64";
        assert_eq!(parse("1e999"), at(0, overflow));
        assert_eq!(parse("-1e999"), at(0, overflow));
        assert_eq!(parse(&"9".repeat(400)), at(0, overflow));
        assert_eq!(parse(&format!("[1, -{}]", "9".repeat(400))), at(4, overflow));
        let no_digit = "no digit after decimal point";
        assert_eq!(parse("1."), at(0, no_digit));
        assert_eq!(parse("[2.e5]"), at(1, no_digit));
        assert_eq!(parse("{\"k\": -3.}"), at(6, no_digit));
        // The largest finite values and underflow to zero still parse.
        assert_eq!(parse("1.7976931348623157e308"), Ok(Value::Float(f64::MAX)));
        assert_eq!(parse("-1e-999"), Ok(Value::Float(-0.0)));
        assert_eq!(parse("1.0"), Ok(Value::Float(1.0)));
    }

    #[test]
    fn parse_rejects_truncated_documents() {
        let at = |offset, message| Err(ParseError { offset, message });
        assert_eq!(parse("\"abc"), at(4, "unterminated string"));
        assert_eq!(parse("\"ab\\"), at(4, "truncated escape"));
        assert_eq!(parse("\"\\u12"), at(5, "truncated \\u escape"));
        assert_eq!(parse("[1, 2"), at(5, "expected ',' or ']' in array"));
        assert_eq!(parse("[1,"), at(3, "unexpected end of input"));
        assert_eq!(parse("{\"k\": 1"), at(7, "expected ',' or '}' in object"));
        assert_eq!(parse("{\"k\""), at(4, "expected ':' after object key"));
        assert_eq!(parse("{\"k"), at(3, "unterminated string"));
        assert_eq!(parse("-"), at(0, "invalid number"));
        assert_eq!(parse("1e"), at(0, "invalid number"));
        assert_eq!(parse("tr"), at(0, "invalid literal"));
    }

    #[test]
    fn committed_reports_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let text = match path.extension().and_then(|e| e.to_str()) {
                Some("json" | "jsonl") => std::fs::read_to_string(&path).unwrap(),
                _ => continue,
            };
            let docs: Vec<&str> = if path.extension().unwrap() == "jsonl" {
                text.lines().filter(|l| !l.trim().is_empty()).collect()
            } else {
                vec![&text]
            };
            for (i, doc) in docs.into_iter().enumerate() {
                if let Err(e) = parse(doc) {
                    panic!("{} document {i}: {e}", path.display());
                }
            }
            files += 1;
        }
        assert!(files >= 2, "found only {files} committed JSON files under {root}");
    }

    #[test]
    fn parse_copies_long_raw_strings_in_one_pass() {
        // Multi-byte characters next to escapes and the closing quote.
        assert_eq!(parse(r#""é😀\n€""#).unwrap(), Value::from("é😀\n€"));
        // A megabyte-long string: one pass over it, not one per character.
        let long = "ab€".repeat(1 << 18);
        let doc = Value::array(vec![Value::from(long.as_str()), Value::from(1u64)]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn parse_limits_nesting_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        // Deep enough to overflow the stack without the limit.
        let err = parse(&arrays(100_000)).unwrap_err();
        assert_eq!(err, ParseError { offset: MAX_DEPTH, message: "nesting too deep" });
        assert_eq!(parse(&arrays(MAX_DEPTH + 1)).unwrap_err(), err);
        // A document exactly at the limit parses, every level intact.
        let mut value = parse(&arrays(MAX_DEPTH)).unwrap();
        let mut levels = 1;
        while let Value::Array(mut inner) = value {
            match inner.pop() {
                Some(next) => (value, levels) = (next, levels + 1),
                None => break,
            }
        }
        assert_eq!(levels, MAX_DEPTH);
        // Objects count as levels too.
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&format!("[{}]", objects(MAX_DEPTH))).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Closed levels free their depth for later siblings.
        assert!(parse(&format!("[{0},{0}]", arrays(MAX_DEPTH - 1))).is_ok());
    }

    #[test]
    fn builder_output_round_trips_through_parse() {
        let doc = Value::object()
            .with("cycles", 123_456u64)
            .with("delta", -9i64)
            .with("ratio", 0.1 + 0.2)
            .with("label", "k-NN \"fast\"\npath")
            .with("flags", Value::array(vec![Value::Bool(true), Value::Null]))
            .with("nested", Value::object().with("hw", 42u64));
        let compact = doc.to_string();
        assert_eq!(parse(&compact).unwrap(), doc);
        let pretty = doc.to_string_pretty();
        assert_eq!(parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::UInt(3).as_u64(), Some(3));
        assert_eq!(Value::Int(3).as_u64(), Some(3));
        assert_eq!(Value::Int(-3).as_u64(), None);
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::UInt(2).as_f64(), Some(2.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from("s").as_u64(), None);
    }
}
