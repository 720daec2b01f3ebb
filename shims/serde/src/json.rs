//! In-memory JSON value tree plus a compact writer and a recursive
//! descent parser. Shared by the `serde` trait impls and the
//! `serde_json` facade shim.

use std::fmt;

/// A parsed JSON value. Integers are kept exact rather than coerced to
/// `f64` so that `u64` seeds and counters round-trip bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object (duplicate keys keep the first).
    Object(Vec<(String, Value)>),
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

impl Value {
    /// Short description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    pub fn as_u64(&self) -> Result<u64, Error> {
        match self {
            Value::UInt(n) => Ok(*n),
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            other => Err(Error::new(format!(
                "expected unsigned integer, got {}",
                other.kind()
            ))),
        }
    }

    pub fn as_i64(&self) -> Result<i64, Error> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::UInt(n) => {
                i64::try_from(*n).map_err(|_| Error::new(format!("integer {n} out of i64 range")))
            }
            other => Err(Error::new(format!(
                "expected integer, got {}",
                other.kind()
            ))),
        }
    }

    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(Error::new(format!("expected number, got {}", other.kind()))),
        }
    }

    pub fn as_object(&self, context: &str) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(pairs) => Ok(pairs),
            other => Err(Error::new(format!(
                "{context}: expected object, got {}",
                other.kind()
            ))),
        }
    }

    pub fn as_array(&self, context: &str) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::new(format!(
                "{context}: expected array, got {}",
                other.kind()
            ))),
        }
    }

    /// Look up `name` in an object's pairs.
    pub fn get<'a>(pairs: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
        pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Compact JSON text for this value.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => {
                if x.is_finite() {
                    // Shortest round-trip representation; force a ".0"
                    // suffix so the value re-parses as a float.
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; serde_json writes null.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`parse`] accepts, serde_json's
/// default recursion limit.  The parser recurses once per level, so
/// without a cap a hostile document could overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
///
/// Nesting deeper than 128 arrays and objects is an error.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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
            Err(Error::new(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => {
                self.literal("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected character {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(Error::new("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for this
                            // workspace's ASCII payloads; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (may be multi-byte).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("invalid utf-8 in string"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| Error::new("truncated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(mag) = stripped.parse::<u64>() {
                    if mag <= i64::MAX as u64 {
                        return Ok(Value::Int(-(mag as i64)));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number {text:?}")))
    }
}

/// Deserialize one object field, honoring `Option`'s absent-field rule.
pub fn field<T: crate::Deserialize>(pairs: &[(String, Value)], name: &str) -> Result<T, Error> {
    match Value::get(pairs, name) {
        Some(v) => T::from_json_value(v).map_err(|e| Error::new(format!("field {name:?}: {e}"))),
        None => T::if_absent().ok_or_else(|| Error::new(format!("missing field {name:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in [
            "null", "true", "false", "0", "12345", "-7", "3.25", "1.0e-3",
        ] {
            let v = parse(text).unwrap();
            let back = parse(&v.to_json_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn u64_is_exact() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v, Value::UInt(u64::MAX));
        assert_eq!(v.to_json_string(), u64::MAX.to_string());
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2,{"b":"x\ny","c":null}],"d":{"e":0.5}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Objects count toward the same limit as arrays.
        let mixed = format!("{}1{}", r#"{"a":["#.repeat(65), "]}".repeat(65));
        assert!(parse(&mixed).is_err());
        assert!(parse(&format!("{}1{}", r#"{"a":["#.repeat(64), "]}".repeat(64))).is_ok());
    }

    #[test]
    fn float_writer_reparses_as_float() {
        let v = Value::Float(2.0);
        assert_eq!(v.to_json_string(), "2.0");
        assert_eq!(parse("2.0").unwrap(), v);
    }
}
