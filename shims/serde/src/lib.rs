//! Offline API-subset shim for `serde` (see `shims/README.md`).
//!
//! Instead of serde's visitor architecture, [`Serialize`] has two methods:
//! [`Serialize::write_json`] streams the value into a [`Writer`] (the one
//! JSON renderer, compact or pretty), and [`Serialize::to_json_value`]
//! converts it into an owned JSON [`Value`] tree for code that inspects
//! or edits it. `serde_json` renders through the former and parses into
//! the latter. `#[derive(Serialize)]` (from the sibling `serde_derive`
//! shim) works on non-generic structs with named fields and implements
//! both methods field by field.

// Let derive-generated `::serde::...` paths resolve inside this crate's
// own tests.
extern crate self as serde;

pub use serde_derive::Serialize;
use std::fmt::Write as _;

/// A JSON value tree.
///
/// Numbers keep their source flavor (`Int`/`UInt`/`Float`) but compare
/// numerically across flavors, so `to_value(x) == from_str(to_string(x))`
/// holds even though e.g. a `u64` field reparses as `Int`.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            // Numbers compare across flavors.
            (Int(a), Int(b)) => a == b,
            (UInt(a), UInt(b)) => a == b,
            (Int(a), UInt(b)) | (UInt(b), Int(a)) => {
                u64::try_from(*a).map(|a| a == *b).unwrap_or(false)
            }
            (Float(a), Float(b)) => a == b,
            (Float(f), Int(i)) | (Int(i), Float(f)) => *f == *i as f64,
            (Float(f), UInt(u)) | (UInt(u), Float(f)) => *f == *u as f64,
            _ => false,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(v) => v.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Conversion into JSON: streamed into a [`Writer`], or built as a
/// [`Value`] tree. Both must describe the same JSON.
pub trait Serialize {
    fn to_json_value(&self) -> Value;

    /// Streams the value into `w`. The default renders
    /// [`Serialize::to_json_value`], so impls that only build trees keep
    /// working; the impls below and the derive write directly.
    fn write_json(&self, w: &mut Writer) {
        self.to_json_value().write_json(w)
    }
}

/// The JSON renderer: compact text, or serde_json's pretty style (two-space
/// indent, `": "` after keys, empty containers as `[]`/`{}`), appended to
/// an owned `String`.
///
/// Arrays are written whole by [`Writer::seq`]; objects are opened and
/// closed explicitly, and [`Writer::field`] writes the separator,
/// indentation and key before each member, so callers never handle commas.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// Nothing has been written into the innermost open container yet.
    empty: bool,
}

impl Writer {
    /// A writer producing compact JSON.
    pub fn compact() -> Writer {
        Writer { out: String::new(), pretty: false, depth: 0, empty: true }
    }

    /// A writer producing two-space-indented JSON.
    pub fn pretty() -> Writer {
        Writer { pretty: true, ..Writer::compact() }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    pub fn int(&mut self, n: i64) {
        let _ = write!(self.out, "{n}");
    }

    pub fn uint(&mut self, n: u64) {
        let _ = write!(self.out, "{n}");
    }

    /// `{:?}` is the shortest round-trippable form and always carries a
    /// decimal point or exponent (`1.0`); non-finite values become `null`.
    pub fn float(&mut self, x: f64) {
        if x.is_finite() {
            let _ = write!(self.out, "{x:?}");
        } else {
            self.null();
        }
    }

    /// A quoted, escaped string. Runs of bytes that need no escape are
    /// copied whole; every byte that does is ASCII, so the runs split on
    /// character boundaries.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0..=0x1f => None,
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            match escape {
                Some(e) => self.out.push_str(e),
                None => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// A whole array of `items`.
    pub fn seq<I: IntoIterator>(&mut self, items: I)
    where
        I::Item: Serialize,
    {
        self.open('[');
        for item in items {
            self.separator();
            item.write_json(self);
        }
        self.close(']');
    }

    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Writes one object member.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.separator();
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        value.write_json(self);
    }

    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn separator(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// An empty container closes on the same line (`[]`, `{}`); either
    /// way, the enclosing container now holds a member.
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.empty = false;
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }
}

/// A JSON object of borrowed values, serialized on demand: a payload
/// assembled from existing structs without building a [`Value`] tree.
pub struct Object<'a>(pub Vec<(&'a str, &'a dyn Serialize)>);

impl Serialize for Object<'_> {
    fn to_json_value(&self) -> Value {
        Value::Object(self.0.iter().map(|(k, v)| (k.to_string(), v.to_json_value())).collect())
    }

    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in &self.0 {
            w.field(k, *v);
        }
        w.end_object();
    }
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(n) => w.int(*n),
            Value::UInt(n) => w.uint(*n),
            Value::Float(x) => w.float(*x),
            Value::Str(s) => w.str(s),
            Value::Array(items) => w.seq(items),
            Value::Object(fields) => {
                w.begin_object();
                for (k, v) in fields {
                    w.field(k, v);
                }
                w.end_object();
            }
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }

    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w)
    }
}

/// Shared ownership serializes transparently (`Arc<str>` interned labels,
/// `Arc<T>` shared rows) — same JSON as the inner value, like serde's `rc`
/// feature.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }

    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }

    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w)
    }
}

macro_rules! impl_serialize_signed {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(*self as i64)
            }

            fn write_json(&self, w: &mut Writer) {
                w.int(*self as i64)
            }
        }
    )*};
}

macro_rules! impl_serialize_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::UInt(*self as u64)
            }

            fn write_json(&self, w: &mut Writer) {
                w.uint(*self as u64)
            }
        }
    )*};
}

impl_serialize_signed!(i8, i16, i32, i64, isize);
impl_serialize_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }

    fn write_json(&self, w: &mut Writer) {
        w.float(*self)
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self as f64)
    }

    fn write_json(&self, w: &mut Writer) {
        w.float(*self as f64)
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, w: &mut Writer) {
        w.bool(*self)
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }

    fn write_json(&self, w: &mut Writer) {
        w.seq(self)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }

    fn write_json(&self, w: &mut Writer) {
        w.seq(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }

    fn write_json(&self, w: &mut Writer) {
        w.seq(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_compare_across_flavors() {
        assert_eq!(Value::Int(3), Value::UInt(3));
        assert_eq!(Value::Float(3.0), Value::Int(3));
        assert_ne!(Value::Int(-1), Value::UInt(u64::MAX));
        assert_ne!(Value::Float(3.5), Value::Int(3));
    }

    #[test]
    fn indexing_and_accessors() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::Int(1), Value::Str("x".into())])),
            ("b".into(), Value::Bool(true)),
        ]);
        assert_eq!(v["a"][0].as_i64(), Some(1));
        assert_eq!(v["a"][1].as_str(), Some("x"));
        assert_eq!(v["b"].as_bool(), Some(true));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn skip_serializing_if_omits_the_field_entirely() {
        #[derive(Serialize)]
        struct Row {
            a: u64,
            #[serde(skip_serializing_if = "Option::is_none")]
            b: Option<String>,
            c: bool,
        }
        let none = Row { a: 1, b: None, c: true }.to_json_value();
        let Value::Object(fields) = &none else { panic!("object expected") };
        assert_eq!(fields.len(), 2, "a skipped field must not appear, even as null");
        assert!(none.get("b").is_none());
        let some = Row { a: 1, b: Some("x".into()), c: true }.to_json_value();
        let Value::Object(fields) = &some else { panic!("object expected") };
        // Present values serialize in declaration order, between a and c.
        assert_eq!(fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(some["b"].as_str(), Some("x"));
    }

    #[test]
    fn derive_streams_the_object_its_tree_describes() {
        #[derive(Serialize)]
        struct Row {
            a: u64,
            #[serde(skip_serializing_if = "Option::is_none")]
            b: Option<String>,
            c: Vec<i32>,
        }
        let render = |v: &dyn Serialize| {
            let mut w = Writer::compact();
            v.write_json(&mut w);
            w.into_string()
        };
        for (row, text) in [
            (Row { a: 1, b: None, c: vec![] }, r#"{"a":1,"c":[]}"#),
            (Row { a: 2, b: Some("x".into()), c: vec![-1, 2] }, r#"{"a":2,"b":"x","c":[-1,2]}"#),
        ] {
            assert_eq!(render(&row), text);
            assert_eq!(render(&row.to_json_value()), text);
        }
    }

    #[test]
    fn derive_serializes_named_structs() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            n: usize,
            ratio: f64,
            met: bool,
            tags: Vec<String>,
        }
        let r = Row { name: "line".into(), n: 8, ratio: 0.5, met: true, tags: vec!["a".into()] };
        let v = r.to_json_value();
        assert_eq!(v["name"].as_str(), Some("line"));
        assert_eq!(v["n"].as_u64(), Some(8));
        assert_eq!(v["ratio"].as_f64(), Some(0.5));
        assert_eq!(v["met"].as_bool(), Some(true));
        assert_eq!(v["tags"][0].as_str(), Some("a"));
    }
}
