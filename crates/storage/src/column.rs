//! Persistent columns and ordered string dictionaries.
//!
//! A [`Column`] is the full-resolution, host-resident representation every
//! classic (CPU-only) operator works on, and the source from which
//! decomposition derives the device partitions. Physical storage follows
//! MonetDB's static type expansion: 32-bit types live in `Vec<i32>`,
//! 64-bit types in `Vec<i64>`; strings are codes into an *ordered*
//! [`Dictionary`] so that prefix predicates become code-range predicates
//! (the rewrite the paper applied to TPC-H Q14's `like 'PROMO%'`).

use bwd_types::{BwdError, DataType, Date, FxHashMap, Result, Value};
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
    fn new(dtype: DataType, data: ColumnData, dict: Option<Arc<Dictionary>>) -> Self {
        Column {
            dtype,
            data,
            dict,
            min_max: OnceLock::new(),
        }
    }

    /// Build an `Int32` column.
    pub fn from_i32(vals: Vec<i32>) -> Self {
        Column::new(DataType::Int32, ColumnData::I32(vals), None)
    }

    /// Build an `Int64` column.
    pub fn from_i64(vals: Vec<i64>) -> Self {
        Column::new(DataType::Int64, ColumnData::I64(vals), None)
    }

    /// Build a `Date` column from day counts.
    pub fn from_dates(vals: Vec<Date>) -> Self {
        let days = vals.into_iter().map(|d| d.days()).collect();
        Column::new(DataType::Date, ColumnData::I32(days), None)
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
        Ok(Column::new(dtype, data, None))
    }

    /// Build a string column: constructs the ordered dictionary and encodes
    /// each row as its code.
    pub fn from_strings<S: AsRef<str>>(vals: &[S]) -> Self {
        let (dict, codes) = Dictionary::build(vals);
        Column::new(DataType::Str, ColumnData::I32(codes), Some(Arc::new(dict)))
    }

    /// Build a string column from rows already coded against a known
    /// vocabulary (`codes[i]` indexes `vocab`) — a loader that knows its
    /// vocabulary need not hold one `&str` per row. The dictionary is the
    /// ordered set of entries some row uses, exactly what
    /// [`Column::from_strings`] builds from the spelled-out rows; `codes`
    /// is re-coded in place.
    ///
    /// # Errors
    /// Fails on a code outside `vocab`.
    pub fn from_codes<S: AsRef<str>>(vocab: &[S], mut codes: Vec<i32>) -> Result<Self> {
        let dict = Dictionary::from_vocabulary(vocab, &mut codes)?;
        let data = ColumnData::I32(codes);
        Ok(Column::new(DataType::Str, data, Some(Arc::new(dict))))
    }

    /// A non-string column over storage already in its physical width —
    /// nothing is copied, widened or narrowed.
    ///
    /// # Errors
    /// Fails when the storage width is not `dtype.plain_width()`, when a
    /// decimal payload has more digits than its precision, and for `Str`
    /// (whose codes mean nothing without a dictionary: use
    /// [`Column::from_strings`] or [`Column::from_codes`]).
    pub fn from_data(dtype: DataType, data: ColumnData) -> Result<Self> {
        let width = match data {
            ColumnData::I32(_) => 4,
            ColumnData::I64(_) => 8,
        };
        if dtype == DataType::Str || width != dtype.plain_width() {
            return Err(BwdError::InvalidArgument(format!(
                "{width}-byte payload storage cannot back a {dtype} column"
            )));
        }
        let col = Column::new(dtype, data, None);
        if let DataType::Decimal { precision, .. } = dtype {
            // The extrema decide it, and stay cached for decomposition.
            let fits = |v: i64| match 10u64.checked_pow(precision as u32) {
                Some(limit) => v.unsigned_abs() < limit,
                None => true,
            };
            let (lo, hi) = col.payload_min_max().unwrap_or((0, 0));
            if let Some(v) = [lo, hi].into_iter().find(|&v| !fits(v)) {
                return Err(BwdError::InvalidArgument(format!(
                    "decimal payload {v} exceeds precision {precision}"
                )));
            }
        }
        Ok(col)
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

    /// All payloads widened to `i64` — a full copy, for tests and
    /// measurement harnesses; the engine reads [`Column::data`] in place.
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
        *self.min_max.get_or_init(|| match &self.data {
            ColumnData::I32(v) => extrema(v),
            ColumnData::I64(v) => extrema(v),
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
    ///
    /// One hashing pass hands out ids in first-seen order; only the
    /// distinct values are then sorted, and the ids re-coded to ranks.
    pub fn build<S: AsRef<str>>(rows: &[S]) -> (Dictionary, Vec<i32>) {
        let mut ids: FxHashMap<&str, i32> = FxHashMap::default();
        let mut vocab: Vec<&str> = Vec::new();
        let mut codes: Vec<i32> = rows
            .iter()
            .map(|s| {
                *ids.entry(s.as_ref()).or_insert_with(|| {
                    vocab.push(s.as_ref());
                    vocab.len() as i32 - 1
                })
            })
            .collect();
        let dict = Dictionary::from_vocabulary(&vocab, &mut codes)
            .expect("first-seen ids index the vocabulary");
        (dict, codes)
    }

    /// The ordered dictionary of the `vocab` entries that `codes` uses;
    /// every code is rewritten from its index into `vocab` to its rank in
    /// the dictionary. `vocab` may be unordered and may repeat itself.
    fn from_vocabulary<S: AsRef<str>>(vocab: &[S], codes: &mut [i32]) -> Result<Dictionary> {
        let mut used = vec![false; vocab.len()];
        for &c in codes.iter() {
            let slot = usize::try_from(c).ok().and_then(|c| used.get_mut(c));
            *slot.ok_or_else(|| {
                BwdError::InvalidArgument(format!(
                    "string code {c} outside a vocabulary of {}",
                    vocab.len()
                ))
            })? = true;
        }
        let mut values: Vec<&str> = vocab
            .iter()
            .zip(&used)
            .filter_map(|(s, &used)| used.then_some(s.as_ref()))
            .collect();
        values.sort_unstable();
        values.dedup();
        let rank: Vec<i32> = vocab
            .iter()
            .map(|s| values.binary_search(&s.as_ref()).map_or(-1, |r| r as i32))
            .collect();
        for c in codes.iter_mut() {
            *c = rank[*c as usize];
        }
        Ok(Dictionary {
            values: values.into_iter().map(String::from).collect(),
        })
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

/// Minimum and maximum of `vals`, folded in their own width (32-bit lanes
/// for 32-bit storage) and widened at the end; `None` when empty.
pub(crate) fn extrema<T: Copy + Ord + Into<i64>>(vals: &[T]) -> Option<(i64, i64)> {
    let first = *vals.first()?;
    let (lo, hi) = vals
        .iter()
        .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    Some((lo.into(), hi.into()))
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
    fn from_data_checks_width_and_precision_and_copies_nothing() {
        let coord = DataType::Decimal {
            precision: 7,
            scale: 5,
        };
        let vals = vec![2_709_371, 7_013_643];
        let at = vals.as_ptr();
        let c = Column::from_data(coord, ColumnData::I32(vals)).unwrap();
        assert_eq!(c.value(1), Value::decimal(7_013_643, 5));
        let ColumnData::I32(stored) = c.data() else {
            panic!("a 7-digit decimal is 4 bytes wide")
        };
        assert_eq!(stored.as_ptr(), at, "the storage moved in, uncopied");
        for bad in [10_000_000, -10_000_000] {
            assert!(Column::from_data(coord, ColumnData::I32(vec![0, bad])).is_err());
        }
        assert!(Column::from_data(coord, ColumnData::I64(vec![1])).is_err());
        assert!(Column::from_data(DataType::Int64, ColumnData::I32(vec![1])).is_err());
        let wide = |v| Column::from_data(DataType::decimal(2), ColumnData::I64(vec![v]));
        assert!(wide(10i64.pow(18) - 1).is_ok() && wide(10i64.pow(18)).is_err());
        assert!(Column::from_data(DataType::Date, ColumnData::I32(vec![])).is_ok());
        assert!(Column::from_data(DataType::Str, ColumnData::I32(vec![0])).is_err());
    }

    /// The parent's `Dictionary::build` — sort every row reference, then
    /// binary-search every row — kept as the oracle.
    fn build_by_sorting_rows<S: AsRef<str>>(rows: &[S]) -> (Dictionary, Vec<i32>) {
        let mut distinct: Vec<&str> = rows.iter().map(|s| s.as_ref()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let values: Vec<String> = distinct.iter().map(|s| s.to_string()).collect();
        let codes = rows
            .iter()
            .map(|s| {
                values
                    .binary_search_by(|v| v.as_str().cmp(s.as_ref()))
                    .unwrap() as i32
            })
            .collect();
        (Dictionary { values }, codes)
    }

    #[test]
    fn build_equals_sorting_every_row() {
        let mut rng = bwd_types::SplitMix64::new(0xD1C7);
        let all_distinct: Vec<String> = (0..500).map(|i| format!("v{}", i * 7919 % 500)).collect();
        // Shared prefixes (one a prefix of another) and multi-byte UTF-8,
        // whose byte order is what `str` order means.
        let tricky = [
            "", "a", "ab", "abc", "ab ", "b", "PROMO", "PROMO ", "PROMO B", "Z", "zebra", "é", "ü",
            "ß", "日本", "日", "𝄞", "e\u{301}",
        ];
        let drawn: Vec<&str> = (0..3000)
            .map(|_| tricky[rng.below(tricky.len() as u64) as usize])
            .collect();
        let cases: [Vec<&str>; 5] = [
            vec![],
            vec!["only"; 40],
            all_distinct.iter().map(String::as_str).collect(),
            tricky.to_vec(),
            drawn,
        ];
        for rows in &cases {
            assert_eq!(Dictionary::build(rows), build_by_sorting_rows(rows));
        }
    }

    #[test]
    fn from_codes_equals_from_strings_of_the_spelled_out_rows() {
        // Unordered, with a repeat and an entry no row uses.
        let vocab = ["R", "A", "N", "A", "unused"];
        let codes = vec![2, 0, 0, 1, 3, 2, 0];
        let spelled: Vec<&str> = codes.iter().map(|&c| vocab[c as usize]).collect();
        let coded = Column::from_codes(&vocab, codes).unwrap();
        let strings = Column::from_strings(&spelled);
        assert_eq!(coded.data(), strings.data());
        assert_eq!(coded.dictionary(), strings.dictionary());
        assert_eq!(coded.dictionary().unwrap().len(), 3);
        assert!(Column::from_codes(&vocab, vec![0, 5]).is_err());
        assert!(Column::from_codes(&vocab, vec![-1]).is_err());
        let none = Column::from_codes(&vocab, vec![]).unwrap();
        assert!(none.dictionary().unwrap().is_empty());
    }
}
