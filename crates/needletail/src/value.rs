//! Typed scalar values.

use std::fmt;

/// A scalar value stored in a [`crate::table::Table`] cell.
///
/// Group-by attributes are usually [`Value::Str`] or [`Value::Int`]; measure
/// attributes (the `Y` in `SELECT X, AVG(Y)`) are [`Value::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is rejected at ingest so `Value` ordering is total.
    Float(f64),
    /// UTF-8 string (dictionary-encoded in storage).
    Str(String),
}

impl Value {
    /// The float view of a numeric value; `None` for strings.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// Equality as the indexes key values: floats compare by bit pattern,
    /// so `-0.0` and `0.0` are distinct values (as they are distinct index
    /// entries and group-by labels), and a NaN equals no stored value.
    #[must_use]
    pub(crate) fn same_key(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// The string view; `None` for numerics.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The data type of this value.
    #[must_use]
    pub fn data_type(&self) -> crate::schema::DataType {
        match self {
            Value::Int(_) => crate::schema::DataType::Int,
            Value::Float(_) => crate::schema::DataType::Float,
            Value::Str(_) => crate::schema::DataType::Str,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from("UA"), Value::Str("UA".into()));
    }

    #[test]
    fn as_f64() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(1).data_type(), DataType::Int);
        assert_eq!(Value::Float(1.0).data_type(), DataType::Float);
        assert_eq!(Value::Str("a".into()).data_type(), DataType::Str);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Str("JB".into()).to_string(), "JB");
    }
}
