//! Persistent columns and ordered string dictionaries.
//!
//! A [`Column`] is the full-resolution, host-resident representation every
//! classic (CPU-only) operator works on, and the source from which
//! decomposition derives the device partitions. Physical storage follows
//! MonetDB's static type expansion: 32-bit types live in `Vec<i32>`,
//! 64-bit types in `Vec<i64>`; strings are codes into an *ordered*
//! [`Dictionary`] so that prefix predicates become code-range predicates
//! (the rewrite the paper applied to TPC-H Q14's `like 'PROMO%'`).

use bwd_types::{BwdError, DataType, Date, Result, Value};
use std::sync::{Arc, OnceLock};

/// Physical payload storage of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 32-bit payloads (Int32, Date, dictionary codes, narrow decimals).
    I32(Vec<i32>),
    /// 64-bit payloads (Int64, wide decimals).
    I64(Vec<i64>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload of row `i`, widened to `i64`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match self {
            ColumnData::I32(v) => v[i] as i64,
            ColumnData::I64(v) => v[i],
        }
    }
}

/// A persistent, fully-decomposed (column-store) attribute.
#[derive(Debug, Clone)]
pub struct Column {
    dtype: DataType,
    data: ColumnData,
    /// Ordered dictionary for `Str` columns.
    dict: Option<Arc<Dictionary>>,
    /// Payload minimum/maximum, found by the first
    /// [`Column::payload_min_max`] call: the binder asks per predicate per
    /// `bind`, and a full pass each time was most of a short request.
    min_max: OnceLock<Option<(i64, i64)>>,
}

impl Column {
    /// Build an `Int32` column.
    pub fn from_i32(vals: Vec<i32>) -> Self {
        Column {
            dtype: DataType::Int32,
            data: ColumnData::I32(vals),
            dict: None,
            min_max: OnceLock::new(),
        }
    }

    /// Build an `Int64` column.
    pub fn from_i64(vals: Vec<i64>) -> Self {
        Column {
            dtype: DataType::Int64,
            data: ColumnData::I64(vals),
            dict: None,
            min_max: OnceLock::new(),
        }
    }

    /// Build a `Date` column from day counts.
    pub fn from_dates(vals: Vec<Date>) -> Self {
        Column {
            dtype: DataType::Date,
            data: ColumnData::I32(vals.into_iter().map(|d| d.days()).collect()),
            dict: None,
            min_max: OnceLock::new(),
        }
    }

    /// Build a decimal column from already-scaled integers.
    pub fn from_decimals(unscaled: Vec<i64>, precision: u8, scale: u8) -> Result<Self> {
        let dtype = DataType::Decimal { precision, scale };
        let data = if dtype.plain_width() == 4 {
            let mut narrow = Vec::with_capacity(unscaled.len());
            for v in &unscaled {
                let n = i32::try_from(*v).map_err(|_| {
                    BwdError::InvalidArgument(format!(
                        "decimal payload {v} exceeds precision {precision}"
                    ))
                })?;
                narrow.push(n);
            }
            ColumnData::I32(narrow)
        } else {
            ColumnData::I64(unscaled)
        };
        Ok(Column {
            dtype,
            data,
            dict: None,
            min_max: OnceLock::new(),
        })
    }

    /// Build a string column: constructs the ordered dictionary and encodes
    /// each row as its code.
    pub fn from_strings<S: AsRef<str>>(vals: &[S]) -> Self {
        let (dict, codes) = Dictionary::build(vals);
        Column {
            dtype: DataType::Str,
            data: ColumnData::I32(codes),
            dict: Some(Arc::new(dict)),
            min_max: OnceLock::new(),
        }
    }

    /// A column of raw payloads with an explicit type (generators use this).
    pub fn from_payloads(payloads: Vec<i64>, dtype: DataType) -> Result<Self> {
        match dtype {
            DataType::Int64 => Ok(Column::from_i64(payloads)),
            DataType::Decimal { precision, scale } => {
                Column::from_decimals(payloads, precision, scale)
            }
            DataType::Str => Err(BwdError::InvalidArgument(
                "string columns must be built via from_strings".into(),
            )),
            _ => {
                let mut narrow = Vec::with_capacity(payloads.len());
                for v in &payloads {
                    let n = i32::try_from(*v).map_err(|_| {
                        BwdError::InvalidArgument(format!("payload {v} exceeds 32-bit width"))
                    })?;
                    narrow.push(n);
                }
                Ok(Column {
                    dtype,
                    data: ColumnData::I32(narrow),
                    dict: None,
                    min_max: OnceLock::new(),
                })
            }
        }
    }

    /// Logical type.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw physical storage.
    #[inline]
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Payload of row `i`, widened to `i64`.
    #[inline]
    pub fn payload(&self, i: usize) -> i64 {
        self.data.get(i)
    }

    /// All payloads widened to `i64` (decomposition input).
    pub fn payloads(&self) -> Vec<i64> {
        match &self.data {
            ColumnData::I32(v) => v.iter().map(|&x| x as i64).collect(),
            ColumnData::I64(v) => v.clone(),
        }
    }

    /// The ordered dictionary, if this is a string column.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        self.dict.as_ref()
    }

    /// Logical value of row `i`.
    pub fn value(&self, i: usize) -> Value {
        let p = self.data.get(i);
        match self.dtype {
            DataType::Int32 | DataType::Int64 => Value::Int(p),
            DataType::Date => Value::Date(Date(p as i32)),
            DataType::Decimal { scale, .. } => Value::decimal(p, scale),
            DataType::Bool => Value::Bool(p != 0),
            DataType::Str => {
                let dict = self
                    .dict
                    .as_ref()
                    .expect("string column without dictionary");
                Value::Str(dict.value_of(p as u32).to_string())
            }
        }
    }

    /// Convert a literal [`Value`] into this column's payload domain
    /// (query constants against this column).
    pub fn payload_of_value(&self, v: &Value) -> Result<i64> {
        match (self.dtype, v) {
            (DataType::Int32 | DataType::Int64, Value::Int(x)) => Ok(*x),
            (DataType::Date, Value::Date(d)) => Ok(d.days() as i64),
            (DataType::Decimal { scale, .. }, Value::Decimal { unscaled, scale: s }) => {
                rescale(*unscaled, *s, scale)
            }
            (DataType::Decimal { scale, .. }, Value::Int(x)) => {
                x.checked_mul(10i64.pow(scale as u32)).ok_or_else(|| {
                    BwdError::InvalidArgument(format!("integer {x} overflows decimal({scale})"))
                })
            }
            (DataType::Str, Value::Str(s)) => {
                let dict = self
                    .dict
                    .as_ref()
                    .expect("string column without dictionary");
                dict.code_of(s).map(|c| c as i64).ok_or_else(|| {
                    BwdError::NotFound(format!("string literal {s:?} not in dictionary"))
                })
            }
            (DataType::Bool, Value::Bool(b)) => Ok(*b as i64),
            (dt, v) => Err(BwdError::TypeMismatch(format!(
                "cannot compare {dt} column with literal {v:?}"
            ))),
        }
    }

    /// Modeled in-memory size in bytes (what the paper's data-volume and
    /// streaming-baseline arithmetic charges for the full-resolution column).
    pub fn plain_bytes(&self) -> u64 {
        self.len() as u64 * self.dtype.plain_width()
    }

    /// Minimum and maximum payload, or `None` when empty — one pass over
    /// the column the first time it is asked, remembered afterwards.
    pub fn payload_min_max(&self) -> Option<(i64, i64)> {
        *self.min_max.get_or_init(|| {
            if self.is_empty() {
                return None;
            }
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            match &self.data {
                ColumnData::I32(v) => {
                    for &x in v {
                        lo = lo.min(x as i64);
                        hi = hi.max(x as i64);
                    }
                }
                ColumnData::I64(v) => {
                    for &x in v {
                        lo = lo.min(x);
                        hi = hi.max(x);
                    }
                }
            }
            Some((lo, hi))
        })
    }
}

/// An ordered string dictionary: codes are ranks in the sorted distinct
/// value sequence, so code order equals lexicographic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dictionary {
    values: Vec<String>,
}

impl Dictionary {
    /// Build from row values; returns the dictionary and per-row codes.
    pub fn build<S: AsRef<str>>(rows: &[S]) -> (Dictionary, Vec<i32>) {
        let mut distinct: Vec<&str> = rows.iter().map(|s| s.as_ref()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let values: Vec<String> = distinct.iter().map(|s| s.to_string()).collect();
        let codes = rows
            .iter()
            .map(|s| {
                values
                    .binary_search_by(|v| v.as_str().cmp(s.as_ref()))
                    .expect("value must be present") as i32
            })
            .collect();
        (Dictionary { values }, codes)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The string for a code.
    ///
    /// # Panics
    /// Panics if the code is out of range.
    pub fn value_of(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// The code for an exact string, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.values
            .binary_search_by(|v| v.as_str().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    /// The inclusive code range of all values starting with `prefix`
    /// (`like 'PROMO%'` → a range selection over codes, §VI-D1). `None`
    /// when no value matches.
    pub fn prefix_code_range(&self, prefix: &str) -> Option<(u32, u32)> {
        let lo = self.values.partition_point(|v| v.as_str() < prefix);
        let hi = self
            .values
            .partition_point(|v| v.as_bytes() <= prefix.as_bytes() || v.starts_with(prefix));
        if lo >= hi {
            None
        } else {
            Some((lo as u32, hi as u32 - 1))
        }
    }

    /// Iterate the ordered distinct values.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|s| s.as_str())
    }
}

fn rescale(unscaled: i64, from: u8, to: u8) -> Result<i64> {
    use std::cmp::Ordering;
    match from.cmp(&to) {
        Ordering::Equal => Ok(unscaled),
        Ordering::Less => unscaled
            .checked_mul(10i64.pow((to - from) as u32))
            .ok_or_else(|| BwdError::InvalidArgument("decimal rescale overflow".into())),
        Ordering::Greater => {
            let div = 10i64.pow((from - to) as u32);
            if unscaled % div != 0 {
                return Err(BwdError::InvalidArgument(format!(
                    "decimal literal loses precision rescaling from scale {from} to {to}"
                )));
            }
            Ok(unscaled / div)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip() {
        let c = Column::from_i32(vec![3, 1, 2]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.payload(0), 3);
        assert_eq!(c.value(1), Value::Int(1));
        assert_eq!(c.plain_bytes(), 12);
        assert_eq!(c.payload_min_max(), Some((1, 3)));
    }

    #[test]
    fn date_column() {
        let d = Date::parse("1994-01-01").unwrap();
        let c = Column::from_dates(vec![d, d.add_days(10)]);
        assert_eq!(c.dtype(), DataType::Date);
        assert_eq!(c.value(1), Value::Date(d.add_days(10)));
        assert_eq!(
            c.payload_of_value(&Value::Date(d)).unwrap(),
            d.days() as i64
        );
    }

    #[test]
    fn decimal_column_narrow_and_wide() {
        let c = Column::from_decimals(vec![268_288, -1_262_427], 8, 5).unwrap();
        assert_eq!(c.dtype().plain_width(), 4);
        assert_eq!(c.value(0), Value::decimal(268_288, 5));
        // Payload exceeding i32: rejected for precision<=9.
        assert!(Column::from_decimals(vec![i64::MAX], 8, 5).is_err());
        let wide = Column::from_decimals(vec![i64::MAX / 2], 15, 2).unwrap();
        assert_eq!(wide.dtype().plain_width(), 8);
    }

    #[test]
    fn decimal_literal_rescaling() {
        let c = Column::from_decimals(vec![100], 12, 2).unwrap();
        // 0.05 at scale 2 == literal "0.05" scale 2.
        assert_eq!(c.payload_of_value(&Value::decimal(5, 2)).unwrap(), 5);
        // Integer literal 3 -> 300 at scale 2.
        assert_eq!(c.payload_of_value(&Value::Int(3)).unwrap(), 300);
        // Finer literal that loses precision is rejected.
        assert!(c.payload_of_value(&Value::decimal(123, 3)).is_err());
        // Coarser literal rescales up.
        assert_eq!(c.payload_of_value(&Value::decimal(5, 1)).unwrap(), 50);
    }

    #[test]
    fn string_dictionary_is_ordered() {
        let c = Column::from_strings(&["PROMO BRUSHED", "ECONOMY", "PROMO POLISHED", "ECONOMY"]);
        let dict = c.dictionary().unwrap();
        assert_eq!(dict.len(), 3);
        // Codes ordered lexicographically.
        let codes: Vec<i64> = (0..c.len()).map(|i| c.payload(i)).collect();
        assert_eq!(c.value(1), Value::Str("ECONOMY".into()));
        assert!(codes[0] > codes[1], "PROMO* sorts after ECONOMY");
        assert_eq!(
            c.payload_of_value(&Value::Str("ECONOMY".into())).unwrap(),
            0
        );
    }

    #[test]
    fn dictionary_prefix_range() {
        let (dict, _) = Dictionary::build(&[
            "ECONOMY ANODIZED",
            "PROMO BRUSHED",
            "PROMO BURNISHED",
            "PROMO POLISHED",
            "STANDARD PLATED",
        ]);
        let (lo, hi) = dict.prefix_code_range("PROMO").unwrap();
        assert_eq!(dict.value_of(lo), "PROMO BRUSHED");
        assert_eq!(dict.value_of(hi), "PROMO POLISHED");
        assert_eq!(hi - lo + 1, 3);
        assert_eq!(dict.prefix_code_range("LUXURY"), None);
        // Prefix matching everything.
        let (lo, hi) = dict.prefix_code_range("").unwrap();
        assert_eq!((lo, hi), (0, 4));
    }

    #[test]
    fn payload_of_value_type_mismatch() {
        let c = Column::from_i32(vec![1]);
        assert!(c.payload_of_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn from_payloads_variants() {
        let c = Column::from_payloads(vec![1, 2], DataType::Date).unwrap();
        assert_eq!(c.dtype(), DataType::Date);
        assert!(Column::from_payloads(vec![i64::MAX], DataType::Int32).is_err());
        assert!(Column::from_payloads(vec![1], DataType::Str).is_err());
    }
}
