//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! a compact serialization framework with serde's *surface*:
//! `#[derive(Serialize, Deserialize)]`, `use serde::{Serialize,
//! Deserialize}`, and a `serde_json` companion. Internally it is much
//! simpler than upstream serde: serialization goes through a JSON-shaped
//! [`Value`] tree rather than a streaming `Serializer`, which is ample for
//! the workspace's traces, reports and wire messages.
//!
//! Representation choices mirror `serde_json` defaults so existing JSON
//! artifacts stay readable:
//! * named structs → objects with fields in declaration order;
//! * newtype structs (`Id(u64)`) → the inner value;
//! * unit enum variants → `"Variant"`;
//! * data-carrying variants → externally tagged `{"Variant": ...}`;
//! * `Option` → `null` / value, and a missing field deserializes to
//!   `None`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

// `Wire` derives `gridband_serve::wire::Wire`, the daemon's binary codec;
// it rides here so that no crate depends on the proc-macro directly.
pub use serde_derive::{Deserialize, Serialize, Wire};

/// A JSON number: unsigned, signed, or floating point.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Number {
    /// The value as `f64` (lossy above 2^53).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) if i >= 0 => Some(i as u64),
            Number::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(u) => i64::try_from(u).ok(),
            Number::I(i) => Some(i),
            Number::F(f)
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            _ => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => a == b,
            _ => match (self.as_u64(), other.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64() == other.as_f64(),
            },
        }
    }
}

/// A parsed or to-be-emitted JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` for other shapes or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn get_index(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Numeric payload as non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Numeric payload as signed integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object payload as ordered key/value pairs.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Short name of the JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
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

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.get_index(idx).unwrap_or(&NULL)
    }
}

/// (De)serialization failure: a message plus the JSON path where it arose.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error carrying `msg`.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// "expected X, found Y while reading Z".
    pub fn ty(expected: &str, found: &Value, context: &str) -> Self {
        Error::msg(format!(
            "expected {expected}, found {} while reading {context}",
            found.type_name()
        ))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::msg(format!("io error: {e}"))
    }
}

/// Serialization into the [`Value`] tree.
pub trait Serialize {
    /// This value as a JSON value tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a JSON value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Hook for absent object fields; overridden by `Option` to yield
    /// `None` (serde's behaviour for optional fields).
    fn from_missing_field(field: &str) -> Result<Self, Error> {
        Err(Error::msg(format!("missing field `{field}`")))
    }
}

/// Derive-macro helper: fetch and deserialize `key` from object entries.
pub fn de_field<T: Deserialize>(entries: &[(String, Value)], key: &str) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error::msg(format!("field `{key}`: {e}"))),
        None => T::from_missing_field(key),
    }
}

// ---------------------------------------------------------------------------
// Primitive and container impls
// ---------------------------------------------------------------------------

macro_rules! ser_de_uint {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::ty("unsigned integer", v, stringify!($t)))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )+};
}
ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 {
                    Value::Number(Number::U(i as u64))
                } else {
                    Value::Number(Number::I(i))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::ty("integer", v, stringify!($t)))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )+};
}
ser_de_int!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::F(*self as f64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                v.as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| Error::ty("number", v, stringify!($t)))
            }
        }
    )+};
}
ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::ty("bool", v, "bool"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(|s| s.to_string())
            .ok_or_else(|| Error::ty("string", v, "String"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_missing_field(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::ty("array", v, "Vec"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error::ty("array", v, "tuple"))?;
                let expected = [$($n),+].len();
                if items.len() != expected {
                    return Err(Error::msg(format!(
                        "expected a {expected}-element array, found {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )+};
}
ser_de_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
);

fn map_to_value<'a, K: fmt::Display, V: Serialize + 'a>(
    it: impl Iterator<Item = (K, &'a V)>,
) -> Value {
    Value::Object(it.map(|(k, v)| (k.to_string(), v.to_value())).collect())
}

impl<K: fmt::Display, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: fmt::Display, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort the (stringified) keys.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

fn map_from_value<K: std::str::FromStr + Ord, V: Deserialize>(
    v: &Value,
) -> Result<BTreeMap<K, V>, Error> {
    let entries = v.as_object().ok_or_else(|| Error::ty("object", v, "map"))?;
    let mut out = BTreeMap::new();
    for (k, val) in entries {
        let key = k
            .parse()
            .map_err(|_| Error::msg(format!("unparsable map key `{k}`")))?;
        out.insert(key, V::from_value(val)?);
    }
    Ok(out)
}

impl<K: std::str::FromStr + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        map_from_value(v)
    }
}

impl<K: std::str::FromStr + Ord + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value::<K, V>(v)?.into_iter().collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        let v = Value::Object(vec![
            ("a".into(), Value::Number(Number::U(3))),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v["b"][0].as_bool(), Some(true));
        assert!(v["b"][1].is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn numbers_compare_numerically() {
        assert_eq!(Value::Number(Number::U(3)), Value::Number(Number::F(3.0)));
        assert_eq!(Value::Number(Number::I(-2)), Value::Number(Number::F(-2.0)));
        assert_ne!(Value::Number(Number::U(3)), Value::Number(Number::F(3.5)));
    }

    #[test]
    fn option_fields_default_to_none() {
        let entries: Vec<(String, Value)> = vec![];
        let missing: Option<u32> = de_field(&entries, "absent").unwrap();
        assert_eq!(missing, None);
        let err = de_field::<u32>(&entries, "absent").unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<u8> = Deserialize::from_value(&vec![1u8, 2, 3].to_value()).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let t: (u32, f64) = Deserialize::from_value(&(4u32, 0.5f64).to_value()).unwrap();
        assert_eq!(t, (4, 0.5));
    }

    #[test]
    fn integer_via_float_is_accepted() {
        // Parsers may produce F(10.0) for "10" in float-heavy documents.
        assert_eq!(
            u64::from_value(&Value::Number(Number::F(10.0))).unwrap(),
            10
        );
        assert!(u64::from_value(&Value::Number(Number::F(10.5))).is_err());
        assert!(u32::from_value(&Value::Number(Number::I(-1))).is_err());
    }
}
