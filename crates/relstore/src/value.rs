//! Runtime values and SQL comparison semantics.

use sqlparse::ast::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// Shared text: copying a cell through the executor's row pipeline
    /// bumps a count instead of allocating.
    Text(Arc<str>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The declared type this value conforms to, if any.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// Numeric view (Int and Float are mutually coercible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic: `None` when either side is
    /// NULL, otherwise the comparison result. Int and Float compare
    /// numerically; mismatched non-numeric types are unequal.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            // Texts of different lengths differ without a byte read.
            (Value::Text(a), Value::Text(b)) => Some(a == b),
            _ => self.sql_cmp(other).map(|o| o == Ordering::Equal),
        }
    }

    /// SQL ordering under three-valued logic. `None` when either side is
    /// NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order used by ORDER BY and index keys: NULL sorts first, then
    /// bools, then numerics (cross-type), then text. NaN sorts after all
    /// other floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let x = a.as_f64().unwrap();
                let y = b.as_f64().unwrap();
                x.total_cmp(&y)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Grouping/join key with SQL equality semantics (Int 1 groups with
    /// Float 1.0). NULLs group together (SQL GROUP BY semantics).
    pub fn group_key(&self) -> Key {
        match self {
            Value::Null => Key::Null,
            Value::Bool(b) => Key::Bool(*b),
            Value::Int(i) => Key::Num((*i as f64).to_bits()),
            Value::Float(f) => {
                // Normalise -0.0 to 0.0 and all NaNs to one bit pattern so
                // equal-by-SQL values produce identical keys.
                let f = if *f == 0.0 { 0.0 } else { *f };
                let f = if f.is_nan() { f64::NAN } else { f };
                Key::Num(f.to_bits())
            }
            Value::Text(s) => Key::Text(s.clone()),
        }
    }

    /// Render as the engine's textual form (used by CSV export and the CQMS
    /// output summaries). NULL renders as the empty marker `NULL`.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Text(s) => s.to_string(),
        }
    }

    /// Does this value conform to (or is coercible into) the column type?
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), DataType::Int) => true,
            (Value::Int(_), DataType::Float) => true, // widening
            (Value::Float(_), DataType::Float) => true,
            (Value::Text(_), DataType::Text) => true,
            (Value::Bool(_), DataType::Bool) => true,
            _ => false,
        }
    }

    /// Coerce into the column type where lossless (Int → Float).
    pub fn coerce(self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            (v, _) => v,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
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
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Hashable key with SQL equality semantics, used for hash joins, GROUP BY
/// and DISTINCT.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    Null,
    Bool(bool),
    /// Bit pattern of the numeric value as f64 (Int coerced).
    Num(u64),
    Text(Arc<str>),
}

/// Hash a full row into a composite key.
pub fn row_key(values: &[Value]) -> Vec<Key> {
    values.iter().map(Value::group_key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(1).sql_eq(&Value::Float(1.0)), Some(true));
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn text_and_numbers_incomparable() {
        assert_eq!(Value::Text("1".into()).sql_eq(&Value::Int(1)), None);
    }

    #[test]
    fn group_keys_unify_int_float() {
        assert_eq!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Float(1.5).group_key());
        assert_eq!(
            Value::Float(0.0).group_key(),
            Value::Float(-0.0).group_key()
        );
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vals = [
            Value::Text("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(5));
        assert_eq!(vals[4], Value::Text("a".into()));
    }

    #[test]
    fn conformance_and_coercion() {
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Text));
        assert_eq!(Value::Int(2).coerce(DataType::Float), Value::Float(2.0));
    }

    #[test]
    fn render_forms() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Bool(false).render(), "FALSE");
        assert_eq!(Value::Float(2.5).render(), "2.5");
        assert_eq!(Value::Text("x".into()).render(), "x");
    }
}
