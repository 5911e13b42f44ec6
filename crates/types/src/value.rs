//! Logical data types and scalar values.
//!
//! The engine is a column store: values exist mostly as primitive arrays.
//! [`Value`] is the boxed scalar used at the edges — literals in queries,
//! query results, and test assertions. [`DataType`] describes a column's
//! logical type and defines the *order-preserving* 64-bit encoding that the
//! bitwise decomposition operates on: range predicates on encoded payloads
//! must be equivalent to range predicates on logical values, otherwise the
//! predicate relaxation of the A&R selection would be unsound.

use crate::date::Date;
use std::cmp::Ordering;
use std::fmt;

/// Logical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// Calendar date (days since epoch).
    Date,
    /// Fixed-point decimal with `scale` fractional digits, stored as a
    /// scaled `i64` (e.g. `decimal(8,5)` stores `lon * 10^5`).
    Decimal {
        /// Total significant digits (metadata only; not enforced on arithmetic).
        precision: u8,
        /// Fractional digits; defines the scaling factor `10^scale`.
        scale: u8,
    },
    /// Dictionary-encoded string; the stored payload is the code in an
    /// *ordered* dictionary so range predicates over codes correspond to
    /// lexicographic ranges (used for TPC-H Q14's `like 'PROMO%'`).
    Str,
    /// Boolean (stored as 0/1).
    Bool,
}

impl DataType {
    /// A plain decimal constructor (precision defaults to 18).
    pub const fn decimal(scale: u8) -> Self {
        DataType::Decimal {
            precision: 18,
            scale,
        }
    }

    /// The decimal scale of this type (0 for integers/dates).
    pub fn scale(&self) -> u8 {
        match self {
            DataType::Decimal { scale, .. } => *scale,
            _ => 0,
        }
    }

    /// Width in bytes of the *uncompressed* in-memory representation, used
    /// for data-volume accounting (classic MonetDB stores i32/date as 4
    /// bytes, i64 as 8, dictionary codes as 4). Decimals with at most 9
    /// digits fit a scaled 32-bit integer — the paper's spatial dataset
    /// stores `decimal(8,5)` coordinates as 4-byte values.
    pub fn plain_width(&self) -> u64 {
        match self {
            DataType::Int32 | DataType::Date | DataType::Str | DataType::Bool => 4,
            DataType::Int64 => 8,
            DataType::Decimal { precision, .. } => {
                if *precision <= 9 {
                    4
                } else {
                    8
                }
            }
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int32 => write!(f, "int"),
            DataType::Int64 => write!(f, "bigint"),
            DataType::Date => write!(f, "date"),
            DataType::Decimal { precision, scale } => {
                write!(f, "decimal({precision},{scale})")
            }
            DataType::Str => write!(f, "varchar"),
            DataType::Bool => write!(f, "boolean"),
        }
    }
}

/// A scalar value (literal, result cell, or test fixture).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer (also carries `Int32` columns, widened).
    Int(i64),
    /// Fixed-point decimal: `unscaled * 10^-scale`.
    Decimal {
        /// The scaled integer payload.
        unscaled: i64,
        /// Number of fractional digits.
        scale: u8,
    },
    /// Calendar date.
    Date(Date),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// 64-bit float — produced only by `avg` and explicit float math.
    Double(f64),
}

impl Value {
    /// Decimal constructor from an unscaled integer.
    pub fn decimal(unscaled: i64, scale: u8) -> Self {
        Value::Decimal { unscaled, scale }
    }

    /// The value as a raw `i64` payload if it has one (int, decimal
    /// unscaled, date days, bool, dictionary code is handled elsewhere).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Decimal { unscaled, .. } => Some(*unscaled),
            Value::Date(d) => Some(d.days() as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// The value as an `f64` for floating aggregates.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Decimal { unscaled, scale } => {
                Some(*unscaled as f64 / 10f64.powi(*scale as i32))
            }
            Value::Double(v) => Some(*v),
            Value::Date(d) => Some(d.days() as f64),
            Value::Bool(b) => Some(*b as i64 as f64),
            Value::Str(_) => None,
        }
    }

    /// Total order used by ORDER BY and test comparisons. Numeric values
    /// compare across int/decimal/double; mixed non-numeric comparisons
    /// order by type tag (stable, documented, arbitrary).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (
                Decimal {
                    unscaled: a,
                    scale: sa,
                },
                Decimal {
                    unscaled: b,
                    scale: sb,
                },
            ) if sa == sb => a.cmp(b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.total_cmp(&b),
                _ => type_rank(self).cmp(&type_rank(other)),
            },
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Bool(_) => 0,
        Value::Int(_) => 1,
        Value::Decimal { .. } => 2,
        Value::Double(_) => 3,
        Value::Date(_) => 4,
        Value::Str(_) => 5,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Decimal { unscaled, scale } => {
                if *scale == 0 {
                    return write!(f, "{unscaled}");
                }
                let pow = 10i64.pow(*scale as u32);
                let sign = if *unscaled < 0 { "-" } else { "" };
                let abs = unscaled.unsigned_abs();
                let pow = pow as u64;
                write!(
                    f,
                    "{sign}{}.{:0width$}",
                    abs / pow,
                    abs % pow,
                    width = *scale as usize
                )
            }
            Value::Date(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Double(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_display() {
        assert_eq!(Value::decimal(268_288, 5).to_string(), "2.68288");
        assert_eq!(Value::decimal(-1_262_427, 5).to_string(), "-12.62427");
    }

    #[test]
    fn decimal_display_pads_zeroes() {
        assert_eq!(Value::decimal(5, 2).to_string(), "0.05");
        assert_eq!(Value::decimal(-5, 2).to_string(), "-0.05");
        assert_eq!(Value::decimal(100, 2).to_string(), "1.00");
    }

    #[test]
    fn total_cmp_mixed_numerics() {
        assert_eq!(
            Value::Int(2).total_cmp(&Value::decimal(150, 2)),
            Ordering::Greater // 2 > 1.50
        );
        assert_eq!(Value::Double(0.5).total_cmp(&Value::Int(1)), Ordering::Less);
        assert_eq!(
            Value::decimal(100, 2).total_cmp(&Value::decimal(100, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::decimal(150, 2).as_f64(), Some(1.5));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn data_type_display() {
        assert_eq!(DataType::decimal(5).to_string(), "decimal(18,5)");
        assert_eq!(DataType::Int32.to_string(), "int");
        assert_eq!(DataType::Date.to_string(), "date");
    }
}
