//! Offline API-subset shim for `serde_json` (see `shims/README.md`).
//!
//! Renders any [`Serialize`] value through the streaming [`serde::Writer`]
//! (`to_string`, `to_string_pretty`), converts it to the [`serde::Value`]
//! model (`to_value`), parses text into that model (`from_str`), and
//! builds it with a `json!` macro for flat object / array literals (nested
//! literals must themselves be wrapped in `json!`).

pub use serde::Value;
use serde::{Serialize, Writer};
use std::fmt;

/// Parse / serialize error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of a parse error, when applicable.
    pub offset: usize,
}

impl Error {
    fn new(msg: impl Into<String>, offset: usize) -> Self {
        Error { msg: msg.into(), offset }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_json_value()
}

/// Compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    let mut w = Writer::compact();
    v.write_json(&mut w);
    Ok(w.into_string())
}

/// Two-space-indented JSON text (serde_json's pretty style).
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    let mut w = Writer::pretty();
    v.write_json(&mut w);
    Ok(w.into_string())
}

/// Parses JSON text into a [`Value`].
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters", p.pos));
    }
    Ok(v)
}

/// Builds a [`Value`] from a flat literal.
///
/// Supported: `json!(null)`, scalars, `json!([a, b, ...])`, and
/// `json!({"key": expr, ...})` where each `expr` implements
/// `serde::Serialize` (use a nested `json!` call for nested literals).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input", self.pos)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(format!("unexpected byte `{}`", b as char), self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value> {
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
                _ => return Err(Error::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(Error::new("unterminated string", self.pos)),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("bad \\u escape", start))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape", start))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape", start))?;
                            // Surrogate pairs unsupported (not produced by
                            // our writer); map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape", start)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash whole.
                    // Both are ASCII, so the run ends on a character
                    // boundary, and each byte is validated once.
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    let run = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|e| Error::new("invalid UTF-8", start + e.valid_up_to()))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
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
            .map_err(|_| Error::new("invalid number", start))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_round_trip() {
        let v = json!({
            "name": "line",
            "n": 8usize,
            "ratio": 0.5f64,
            "met": true,
            "none": Option::<u64>::None,
            "rows": vec![1u64, 2, 3]
        });
        for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&s).unwrap(), v, "text was: {s}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{0001}f".into());
        let s = to_string(&v).unwrap();
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err());
    }

    #[test]
    fn pretty_style_matches_serde_json() {
        let v = json!({ "a": 1u64 });
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        let v = json!({"a": json!([]), "b": json!([json!({}), 2u64])});
        assert_eq!(to_string(&v).unwrap(), r#"{"a":[],"b":[{},2]}"#);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [],\n  \"b\": [\n    {},\n    2\n  ]\n}"
        );
        assert_eq!(to_string_pretty(&json!([])).unwrap(), "[]");
    }

    #[test]
    fn control_characters_are_escaped() {
        let s = to_string(&"q\"b\\n\nr\rt\t\u{0}\u{1f}\u{7f}é").unwrap();
        // DEL and non-ASCII characters pass through unescaped.
        assert_eq!(s, "\"q\\\"b\\\\n\\nr\\rt\\t\\u0000\\u001f\u{7f}é\"");
    }

    #[test]
    fn multi_byte_utf8_round_trips() {
        let text = "é漢🦀 mixed with ascii, \"escapes\" and 🦀🦀 at the end🦀";
        for v in [Value::Str(text.into()), json!({ "k漢": text, "🦀": json!([text, ""]) })] {
            for s in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
                assert_eq!(from_str(&s).unwrap(), v, "text was: {s}");
            }
        }
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Quadratic scanning would take minutes on 4 MiB.
        let text = "ab漢🦀".repeat(1 << 19);
        let v = from_str(&to_string(&text).unwrap()).unwrap();
        assert_eq!(v.as_str(), Some(text.as_str()));
    }
}
