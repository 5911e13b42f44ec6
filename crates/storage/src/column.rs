//! Persistent columns and ordered string dictionaries.
//!
//! A [`Column`] is the full-resolution representation every classic
//! (CPU-only) operator works on, and the source from which decomposition
//! derives the device partitions. Its payloads are held one way at a time
//! ([`Storage`]): plain, or — once decomposed — as the approximation ‖
//! residual pair, the plain payloads released. Two widths, kept apart:
//!
//! * the **modeled** width follows MonetDB's static type expansion —
//!   32-bit types 4 bytes, 64-bit types 8 ([`DataType::plain_width`]) —
//!   and is what every bill, every decomposition report and the load
//!   ledger charge ([`Column::plain_bytes`]);
//! * the **physical** width of a plain column is the fewest bytes — 1, 2,
//!   3, 4 or 8 — that hold the column's payload extrema
//!   ([`Column::physical_bytes`]). Nothing but the allocator reads it: it
//!   never reaches a bill.
//!
//! Strings are codes into an *ordered* [`Dictionary`] so that prefix
//! predicates become code-range predicates (the rewrite the paper applied
//! to TPC-H Q14's `like 'PROMO%'`).

use crate::decompose::{split, DecomposedColumn, DecompositionMeta, DecompositionSpec};
use crate::encoding::{decode, encode, physical_bits};
use crate::pieces::{chunk_count, cuts, in_pieces, Row};
use bwd_types::bits::low_mask;
use bwd_types::{BwdError, DataType, Date, FxHashMap, Result, Value};
use std::any::TypeId;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Physical payload storage of a column, in one of the six widths.
///
/// Read it through [`with_slice!`](crate::with_slice): one dispatch per
/// typed slice, never one per row.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 8-bit payloads.
    I8(Vec<i8>),
    /// 16-bit payloads.
    I16(Vec<i16>),
    /// Unsigned 16-bit payloads: `0..=65 535`.
    U16(Vec<u16>),
    /// 24-bit payloads, three bytes each.
    I24(Vec<I24>),
    /// 32-bit payloads.
    I32(Vec<i32>),
    /// 64-bit payloads.
    I64(Vec<i64>),
}

/// Evaluate `$body` with `$rows` bound to the typed payload slice (or
/// vector) behind `$data` — the one place a physical width is dispatched
/// on. `$body` is compiled once per width, so it may call anything generic
/// over `T: Copy + Into<i64>`.
#[macro_export]
macro_rules! with_slice {
    ($data:expr, $rows:ident => $body:expr) => {
        match $data {
            $crate::ColumnData::I8($rows) => $body,
            $crate::ColumnData::I16($rows) => $body,
            $crate::ColumnData::U16($rows) => $body,
            $crate::ColumnData::I24($rows) => $body,
            $crate::ColumnData::I32($rows) => $body,
            $crate::ColumnData::I64($rows) => $body,
        }
    };
}

/// A signed 24-bit payload in three little-endian bytes: `-2^23..2^23`.
/// A `Vec<I24>` holds three bytes a row (`size_of::<I24>() == 3`).
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct I24([u8; 3]);

impl I24 {
    /// The least value.
    pub const MIN: i64 = -(1 << 23);
    /// The greatest value.
    pub const MAX: i64 = (1 << 23) - 1;

    /// The value: the sign-extended top byte over the low two — a 2-byte
    /// and a 1-byte load, cheaper than assembling four bytes and shifting.
    #[inline]
    fn get(self) -> i32 {
        let [a, b, c] = self.0;
        (i32::from(c as i8) << 16) | i32::from(u16::from_le_bytes([a, b]))
    }
}

impl From<I24> for i64 {
    #[inline]
    fn from(v: I24) -> i64 {
        v.get().into()
    }
}

impl Ord for I24 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.get().cmp(&other.get())
    }
}

impl PartialOrd for I24 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for I24 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// An element type of [`ColumnData`]: `i8`, `i16`, `u16`, [`I24`], `i32`
/// or `i64`.
pub trait Payload: Copy + Ord + Into<i64> + Send + Sync + 'static {
    /// What the extrema fold compares: the payload itself for a native
    /// integer (so the fold runs in that width's lanes), the `i32` value
    /// of an [`I24`] (decoded once a row, not twice a comparison).
    type Lane: Copy + Ord + Into<i64>;
    /// `v` cut to this width, for values known to fit it.
    fn cut(v: i64) -> Self;
    /// `vals` as column storage, moved.
    fn store(vals: Vec<Self>) -> ColumnData;
    /// `self` as the extrema fold compares it.
    fn lane(self) -> Self::Lane;
}

macro_rules! payload_widths {
    ($($t:ty => $arm:ident),*) => {$(
        impl Payload for $t {
            type Lane = $t;
            #[inline]
            fn cut(v: i64) -> Self {
                v as $t
            }
            fn store(vals: Vec<Self>) -> ColumnData {
                ColumnData::$arm(vals)
            }
            #[inline]
            fn lane(self) -> $t {
                self
            }
        }
    )*};
}
payload_widths!(i8 => I8, i16 => I16, u16 => U16, i32 => I32, i64 => I64);

impl Payload for I24 {
    type Lane = i32;
    #[inline]
    fn cut(v: i64) -> Self {
        let [a, b, c, _] = (v as i32).to_le_bytes();
        I24([a, b, c])
    }
    fn store(vals: Vec<Self>) -> ColumnData {
        ColumnData::I24(vals)
    }
    #[inline]
    fn lane(self) -> i32 {
        self.get()
    }
}

impl<T: Payload> From<Vec<T>> for ColumnData {
    fn from(vals: Vec<T>) -> Self {
        T::store(vals)
    }
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        with_slice!(self, rows => rows.len())
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload of row `i`, widened to `i64` — for single rows; a loop
    /// takes the slice through [`with_slice!`](crate::with_slice).
    #[inline]
    #[allow(clippy::useless_conversion)] // the `i64` arm
    pub fn get(&self, i: usize) -> i64 {
        with_slice!(self, rows => rows[i].into())
    }

    /// Bytes per stored payload: 1, 2, 3, 4 or 8.
    pub fn width(&self) -> u64 {
        fn of<T>(_: &[T]) -> u64 {
            std::mem::size_of::<T>() as u64
        }
        with_slice!(self, rows => of(rows))
    }
}

/// `rows`, whose extrema are `min_max`, re-packed into the first of `i8`,
/// `i16`, `u16`, [`I24`] and `i32` that holds them — the fewest bytes,
/// signed first where two widths tie — by the pieces [`cuts`] cuts for
/// `chunks`, each into its part of the one new vector; `None` when `T` is
/// that type already or only `i64` holds them.
pub(crate) fn narrowed<T: Payload>(
    rows: &[T],
    min_max: Option<(i64, i64)>,
    chunks: usize,
) -> Option<ColumnData> {
    fn pack<T: Payload, U: Payload>(rows: &[T], chunks: usize) -> Option<ColumnData> {
        (TypeId::of::<U>() != TypeId::of::<T>()).then(|| {
            let pieces = cuts(rows.len(), chunks).map(|at| (at.len(), rows[at].iter()));
            let (out,) = <(U,)>::fill(rows.len(), pieces, |rows| {
                (U::cut((*rows.next().expect("a piece's rows")).into()),)
            });
            U::store(out)
        })
    }
    let (lo, hi) = min_max.unwrap_or((0, 0));
    let holds = |min, max| min <= lo && hi <= max;
    if holds(i8::MIN as i64, i8::MAX as i64) {
        pack::<T, i8>(rows, chunks)
    } else if holds(i16::MIN as i64, i16::MAX as i64) {
        pack::<T, i16>(rows, chunks)
    } else if holds(0, u16::MAX as i64) {
        pack::<T, u16>(rows, chunks)
    } else if holds(I24::MIN, I24::MAX) {
        pack::<T, I24>(rows, chunks)
    } else if holds(i32::MIN as i64, i32::MAX as i64) {
        pack::<T, i32>(rows, chunks)
    } else {
        None
    }
}

/// A column's logical type, with what only that type carries: a string
/// column cannot be without its dictionary. The one value ↔ payload
/// mapping: a stored column and the engine's slice slots both read it.
#[derive(Debug, Clone)]
pub enum Logical {
    /// Any type but `Str` ([`Column::from_data`] rejects it; a bare code
    /// renders as the integer it is).
    Plain(DataType),
    /// `Str`: payloads are codes into this ordered dictionary.
    Str(Arc<Dictionary>),
}

impl Logical {
    /// The logical type.
    #[inline]
    pub fn dtype(&self) -> DataType {
        match self {
            Logical::Plain(dtype) => *dtype,
            Logical::Str(_) => DataType::Str,
        }
    }

    /// The logical value of payload `p`.
    pub fn value(&self, p: i64) -> Value {
        match self {
            Logical::Str(dict) => Value::Str(dict.value_of(p as u32).to_string()),
            Logical::Plain(DataType::Int32 | DataType::Int64 | DataType::Str) => Value::Int(p),
            Logical::Plain(DataType::Date) => Value::Date(Date(p as i32)),
            Logical::Plain(DataType::Decimal { scale, .. }) => Value::decimal(p, *scale),
            Logical::Plain(DataType::Bool) => Value::Bool(p != 0),
        }
    }

    /// Convert a literal [`Value`] into this type's payload domain (query
    /// constants against a column of it).
    pub fn payload_of(&self, v: &Value) -> Result<i64> {
        match (self, v) {
            (Logical::Plain(DataType::Int32 | DataType::Int64), Value::Int(x)) => Ok(*x),
            (Logical::Plain(DataType::Date), Value::Date(d)) => Ok(d.days() as i64),
            (
                Logical::Plain(DataType::Decimal { scale, .. }),
                Value::Decimal { unscaled, scale: s },
            ) => rescale(*unscaled, *s, *scale),
            (Logical::Plain(DataType::Decimal { scale, .. }), Value::Int(x)) => {
                x.checked_mul(10i64.pow(*scale as u32)).ok_or_else(|| {
                    BwdError::InvalidArgument(format!("integer {x} overflows decimal({scale})"))
                })
            }
            (Logical::Str(dict), Value::Str(s)) => {
                dict.code_of(s).map(|c| c as i64).ok_or_else(|| {
                    BwdError::NotFound(format!("string literal {s:?} not in dictionary"))
                })
            }
            (Logical::Plain(DataType::Bool), Value::Bool(b)) => Ok(*b as i64),
            (_, v) => Err(BwdError::TypeMismatch(format!(
                "cannot compare {} column with literal {v:?}",
                self.dtype()
            ))),
        }
    }
}

/// How a column holds its payloads: every bit once.
#[derive(Debug)]
pub enum Storage {
    /// Plain payloads, in the narrowest width that holds the extrema.
    Plain(ColumnData),
    /// Bitwise-decomposed: approximation ‖ residual are the column, and
    /// no plain payload is kept beside them.
    Split(DecomposedColumn),
}

/// A persistent, fully-decomposed (column-store) attribute. A clone is a
/// reference: the payloads are shared, never copied.
#[derive(Debug, Clone)]
pub struct Column {
    logical: Logical,
    storage: Arc<Storage>,
    /// Payload minimum/maximum, `None` when empty: found once, on the way
    /// in — it decides the storage width, and decomposition and the binder
    /// (per predicate per `bind`) ask for it anyway.
    min_max: Option<(i64, i64)>,
}

impl Column {
    /// The one constructor: finds the extrema and stores `data` in the
    /// narrowest width that holds them — moved in when it already is,
    /// re-packed once (and the wider vector dropped) when it is not.
    fn new(logical: Logical, data: ColumnData) -> Self {
        Column::new_in(logical, chunk_count(data.len()), data)
    }

    /// [`Column::new`], both passes in the pieces [`cuts`] cuts for `chunks`.
    fn new_in(logical: Logical, chunks: usize, data: ColumnData) -> Self {
        let min_max = with_slice!(&data, rows => {
            let pieces = in_pieces(cuts(rows.len(), chunks), |at| extrema(&rows[at]));
            pieces.into_iter().flatten().reduce(|(lo, hi), (l, h)| (lo.min(l), hi.max(h)))
        });
        let data = with_slice!(&data, rows => narrowed(rows, min_max, chunks)).unwrap_or(data);
        Column {
            logical,
            storage: Arc::new(Storage::Plain(data)),
            min_max,
        }
    }

    /// This column split by `spec` — type, extrema and dictionary kept,
    /// the payloads held as approximation ‖ residual only. A plain column
    /// held nowhere else hands its pages back as they are packed, so the
    /// host never holds both forms whole; a shared or split one is read in place.
    ///
    /// # Errors
    /// Fails on a spec [`DecomposedColumn::validate_spec`] rejects.
    pub fn decompose(self, spec: &DecompositionSpec) -> Result<Column> {
        let chunks = chunk_count(self.len());
        self.decompose_in(spec, chunks)
    }

    /// [`Column::decompose`], packed in `chunks` pieces.
    pub(crate) fn decompose_in(mut self, spec: &DecompositionSpec, chunks: usize) -> Result<Self> {
        let (dtype, len) = (self.dtype(), self.len());
        DecomposedColumn::validate_spec(dtype, spec)?;
        let meta = DecompositionMeta::new(dtype, self.min_max, spec);
        let split = match Arc::get_mut(&mut self.storage) {
            // Held here alone: a piece's worker hands back what it has read.
            Some(Storage::Plain(data)) => with_slice!(data, rows => {
                let mut rest = &mut rows[..];
                split(meta, len, chunks, |piece| {
                    let (rows, tail) = std::mem::take(&mut rest).split_at_mut(piece.len());
                    rest = tail;
                    move |at: usize, out: &mut [u64]| {
                        let read = at - piece.start + out.len();
                        encode_rows(dtype, &rows[read - out.len()..read], out);
                        discard(&mut rows[..read], out.len());
                    }
                })
            }),
            _ => split(meta, len, chunks, |_| {
                |at, out: &mut [u64]| self.encoded_range(at, out)
            }),
        };
        Ok(Column {
            logical: self.logical,
            storage: Arc::new(Storage::Split(split)),
            min_max: self.min_max,
        })
    }

    /// `self`, unless a decimal payload has more digits than the precision
    /// the type names — the one digit check, for every fallible entry.
    fn within_precision(self) -> Result<Self> {
        if let DataType::Decimal { precision, .. } = self.dtype() {
            let fits = |v: i64| match 10u64.checked_pow(precision as u32) {
                Some(limit) => v.unsigned_abs() < limit,
                None => true,
            };
            let (lo, hi) = self.min_max.unwrap_or((0, 0));
            if let Some(v) = [lo, hi].into_iter().find(|&v| !fits(v)) {
                return Err(BwdError::InvalidArgument(format!(
                    "decimal payload {v} exceeds precision {precision}"
                )));
            }
        }
        Ok(self)
    }

    /// Build an `Int32` column.
    pub fn from_i32(vals: Vec<i32>) -> Self {
        Column::new(Logical::Plain(DataType::Int32), vals.into())
    }

    /// Build an `Int64` column.
    pub fn from_i64(vals: Vec<i64>) -> Self {
        Column::new(Logical::Plain(DataType::Int64), vals.into())
    }

    /// Build a `Date` column from day counts.
    pub fn from_dates(vals: Vec<Date>) -> Self {
        let days: Vec<i32> = vals.into_iter().map(|d| d.days()).collect();
        Column::new(Logical::Plain(DataType::Date), days.into())
    }

    /// Build a decimal column from already-scaled integers.
    ///
    /// # Errors
    /// Fails when a payload has more digits than `precision`.
    pub fn from_decimals(unscaled: Vec<i64>, precision: u8, scale: u8) -> Result<Self> {
        let dtype = DataType::Decimal { precision, scale };
        Column::new(Logical::Plain(dtype), unscaled.into()).within_precision()
    }

    /// Build a string column: constructs the ordered dictionary and encodes
    /// each row as its code.
    pub fn from_strings<S: AsRef<str>>(vals: &[S]) -> Self {
        let (dict, codes) = Dictionary::build(vals);
        Column::new(Logical::Str(Arc::new(dict)), codes.into())
    }

    /// Build a string column from rows already coded against a known
    /// vocabulary (`codes[i]` indexes `vocab`) — a loader that knows its
    /// vocabulary need not hold one `&str` per row, nor codes wider than
    /// the vocabulary needs. The dictionary is the ordered set of entries
    /// some row uses, exactly what [`Column::from_strings`] builds from the
    /// spelled-out rows; `codes` is re-coded in place.
    ///
    /// # Errors
    /// Fails on a code outside `vocab`.
    pub fn from_codes<S: AsRef<str>, C: Payload>(vocab: &[S], mut codes: Vec<C>) -> Result<Self> {
        let (lo, hi) = extrema(&codes).unwrap_or((0, 0));
        if let Some(c) = [lo, hi]
            .into_iter()
            .find(|&c| c < 0 || c >= vocab.len() as i64)
        {
            return Err(BwdError::InvalidArgument(format!(
                "string code {c} outside a vocabulary of {}",
                vocab.len()
            )));
        }
        let dict = Dictionary::from_vocabulary(vocab, &mut codes);
        Ok(Column::new(Logical::Str(Arc::new(dict)), codes.into()))
    }

    /// A non-string column of logical type `dtype` over `data`, which
    /// moves in uncopied when it is already in the narrowest width that
    /// holds its extrema.
    ///
    /// # Errors
    /// Fails when the storage is wider than `dtype.plain_width()`, when a
    /// decimal payload has more digits than its precision, and for `Str`
    /// (whose codes mean nothing without a dictionary: use
    /// [`Column::from_strings`] or [`Column::from_codes`]).
    pub fn from_data(dtype: DataType, data: ColumnData) -> Result<Self> {
        let width = data.width();
        if dtype == DataType::Str || width > dtype.plain_width() {
            return Err(BwdError::InvalidArgument(format!(
                "{width}-byte payload storage cannot back a {dtype} column"
            )));
        }
        Column::new(Logical::Plain(dtype), data).within_precision()
    }

    /// Logical type.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.logical.dtype()
    }

    /// Logical type with its dictionary: the value ↔ payload mapping.
    #[inline]
    pub fn logical(&self) -> &Logical {
        &self.logical
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match &*self.storage {
            Storage::Plain(data) => data.len(),
            Storage::Split(split) => split.len(),
        }
    }

    /// Whether the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How the payloads are held — what a loop reads in place.
    #[inline]
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// The payloads as plain storage in the narrowest width: borrowed from
    /// a plain column, rebuilt — a full copy — from a split one.
    pub fn plain(&self) -> Cow<'_, ColumnData> {
        match &*self.storage {
            Storage::Plain(data) => Cow::Borrowed(data),
            Storage::Split(_) => {
                let payloads = self.payloads();
                let narrow = narrowed(&payloads, self.min_max, chunk_count(payloads.len()));
                Cow::Owned(narrow.unwrap_or(ColumnData::I64(payloads)))
            }
        }
    }

    /// Encoded value ([`encode`]) of row `i` — for single rows.
    #[inline]
    pub fn encoded(&self, i: usize) -> u64 {
        match &*self.storage {
            Storage::Plain(data) => encode(data.get(i), self.dtype()),
            Storage::Split(split) => split.encoded(i),
        }
    }

    /// Encoded values ([`encode`]) of rows `start..start + out.len()`: a
    /// plain column's payloads, or a split column's two partitions decoded
    /// a block at a time and concatenated. The encoding preserves order,
    /// so a range test reads them as they are.
    pub fn encoded_range(&self, start: usize, out: &mut [u64]) {
        match &*self.storage {
            Storage::Plain(data) => with_slice!(data, rows => {
                encode_rows(self.dtype(), &rows[start..], out)
            }),
            Storage::Split(split) => split.encoded_range(start, out),
        }
    }

    /// The approximation ‖ residual a decomposed column is held as.
    pub fn split(&self) -> Option<&DecomposedColumn> {
        match &*self.storage {
            Storage::Split(split) => Some(split),
            Storage::Plain(_) => None,
        }
    }

    /// Payload of row `i`, widened to `i64`.
    #[inline]
    pub fn payload(&self, i: usize) -> i64 {
        decode(self.encoded(i), self.dtype())
    }

    /// All payloads widened to `i64` — a full copy, for tests and
    /// measurement harnesses; the engine reads encoded runs in place.
    pub fn payloads(&self) -> Vec<i64> {
        let mut encoded = vec![0; self.len()];
        self.encoded_range(0, &mut encoded);
        encoded
            .into_iter()
            .map(|e| decode(e, self.dtype()))
            .collect()
    }

    /// The ordered dictionary, if this is a string column.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        match &self.logical {
            Logical::Plain(_) => None,
            Logical::Str(dict) => Some(dict),
        }
    }

    /// Logical value of row `i`.
    pub fn value(&self, i: usize) -> Value {
        self.logical.value(self.payload(i))
    }

    /// Convert a literal [`Value`] into this column's payload domain
    /// (query constants against this column).
    pub fn payload_of_value(&self, v: &Value) -> Result<i64> {
        self.logical.payload_of(v)
    }

    /// Modeled in-memory size in bytes: rows × [`DataType::plain_width`],
    /// the paper's model of static type expansion. This — never
    /// [`Column::physical_bytes`] — is what the data-volume and
    /// streaming-baseline arithmetic, every bill and the load ledger
    /// charge for the full-resolution column.
    pub fn plain_bytes(&self) -> u64 {
        self.len() as u64 * self.dtype().plain_width()
    }

    /// Bytes the payloads occupy on this host: rows × the fewest of 1, 2,
    /// 3, 4 or 8 bytes that hold the extrema — or, split, both packed
    /// partitions. Only the allocator reads it; no simulated cost does.
    pub fn physical_bytes(&self) -> u64 {
        match &*self.storage {
            Storage::Plain(data) => self.len() as u64 * data.width(),
            Storage::Split(split) => split.device_bytes() + split.host_bytes(),
        }
    }

    /// Minimum and maximum payload, or `None` when empty.
    pub fn payload_min_max(&self) -> Option<(i64, i64)> {
        self.min_max
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
        // A first-seen id is the index `vocab` held it at.
        let dict = Dictionary::from_vocabulary(&vocab, &mut codes);
        (dict, codes)
    }

    /// The ordered dictionary of the `vocab` entries that `codes` uses;
    /// every code — an index into `vocab`, the caller has checked — is
    /// rewritten to its rank in the dictionary. `vocab` may be unordered
    /// and may repeat itself.
    fn from_vocabulary<S: AsRef<str>, C: Payload>(vocab: &[S], codes: &mut [C]) -> Dictionary {
        let index = |c: C| Into::<i64>::into(c) as usize;
        let mut used = vec![false; vocab.len()];
        for &c in codes.iter() {
            used[index(c)] = true;
        }
        let mut values: Vec<&str> = vocab
            .iter()
            .zip(&used)
            .filter_map(|(s, &used)| used.then_some(s.as_ref()))
            .collect();
        values.sort_unstable();
        values.dedup();
        // A used entry's rank is below the number of distinct codes, which
        // `C` holds; an unused entry's is never read.
        let rank: Vec<C> = vocab
            .iter()
            .map(|s| C::cut(values.binary_search(&s.as_ref()).map_or(-1, |r| r as i64)))
            .collect();
        for c in codes.iter_mut() {
            *c = rank[index(*c)];
        }
        Dictionary {
            values: values.into_iter().map(String::from).collect(),
        }
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

/// [`encode`] of the first `out.len()` of `rows`, a `dtype` column's
/// payloads, its branch on the width taken once.
fn encode_rows<T: Payload>(dtype: DataType, rows: &[T], out: &mut [u64]) {
    let bits = physical_bits(dtype);
    let (mask, flip) = (low_mask(bits), 1 << (bits - 1));
    for (e, &p) in out.iter_mut().zip(rows) {
        *e = (Into::<i64>::into(p) as u64 & mask) ^ flip;
    }
}

/// Bytes of the page runs [`discard`] hands back, and their alignment.
pub(crate) const GRANULE: usize = 1 << 20;

#[cfg(target_os = "linux")]
extern "C" {
    fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
}

/// Hand back to the OS the whole [`GRANULE`]s inside `rows` that its last
/// `fresh` rows complete: `rows` is read in order, for the last time, and
/// borrowed mutably, so nothing else reads it. Pages handed back read as
/// zeros until the storage is freed. Elsewhere than on Linux, a no-op.
#[cfg_attr(not(target_os = "linux"), allow(unused_variables))]
fn discard<T: Payload>(rows: &mut [T], fresh: usize) {
    let start = rows.as_mut_ptr() as usize;
    let end = start + size_of_val(rows);
    let done = (end - fresh * size_of::<T>()) / GRANULE * GRANULE;
    let lo = done.max(start.next_multiple_of(GRANULE));
    let hi = end / GRANULE * GRANULE;
    #[cfg(target_os = "linux")]
    if lo < hi {
        // SAFETY: `lo..hi` is whole pages inside `rows`, which this thread
        // borrows exclusively and never reads again; zeros are valid
        // payloads, and nothing outside `rows` is touched (4: MADV_DONTNEED).
        unsafe { madvise(lo as *mut _, hi - lo, 4) };
    }
}

/// Minimum and maximum of `vals`, folded in their [`Payload::Lane`]s
/// (32-bit lanes for 32-bit storage) and widened at the end; `None` when
/// empty.
pub(crate) fn extrema<T: Payload>(vals: &[T]) -> Option<(i64, i64)> {
    let first = vals.first()?.lane();
    let (lo, hi) = vals
        .iter()
        .map(|x| x.lane())
        .fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x)));
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

/// Test support, shared with `decompose.rs`: one logical column per draw
/// over every type × width class, built by two routes.
#[cfg(test)]
pub(crate) mod width_cases {
    use super::*;

    /// Every value a width boundary lies next to.
    pub(crate) const BOUNDARIES: [i64; 22] = [
        0,
        -1,
        -129,
        -128,
        127,
        128,
        -32_769,
        -32_768,
        32_767,
        32_768,
        65_535,
        65_536,
        I24::MIN - 1,
        I24::MIN,
        I24::MAX,
        I24::MAX + 1,
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
        -(1 << 62),
        i64::MAX,
    ];

    const DECIMAL_8_5: DataType = DataType::Decimal {
        precision: 8,
        scale: 5,
    };
    const DECIMAL_12_2: DataType = DataType::Decimal {
        precision: 12,
        scale: 2,
    };
    pub(crate) const TYPES: [DataType; 7] = [
        DataType::Int32,
        DataType::Int64,
        DataType::Date,
        DataType::Bool,
        DataType::Str,
        DECIMAL_8_5,
        DECIMAL_12_2,
    ];

    /// Whether `lo..=hi` fits `bits` signed bits, found the slow way.
    fn signed(lo: i64, hi: i64, bits: u32) -> bool {
        [lo, hi].iter().all(|&v| v >> (bits - 1) == v >> 63)
    }

    /// Whether `lo..=hi` fits `u16`.
    fn unsigned16(lo: i64, hi: i64) -> bool {
        lo >= 0 && hi >> 16 == 0
    }

    /// The fewest of 1, 2, 3, 4, 8 bytes holding `lo..=hi`.
    pub(crate) fn needs(lo: i64, hi: i64) -> u64 {
        match () {
            _ if signed(lo, hi, 8) => 1,
            _ if signed(lo, hi, 16) || unsigned16(lo, hi) => 2,
            _ if signed(lo, hi, 24) => 3,
            _ if signed(lo, hi, 32) => 4,
            _ => 8,
        }
    }

    /// `rows` in the narrowest storage that holds them — signed where a
    /// signed and an unsigned width tie —, packed by hand.
    pub(crate) fn narrowest(rows: &[i64]) -> ColumnData {
        let (lo, hi) = extrema(rows).unwrap_or((0, 0));
        match needs(lo, hi) {
            1 => ColumnData::I8(rows.iter().map(|&v| v as i8).collect()),
            2 if signed(lo, hi, 16) => ColumnData::I16(rows.iter().map(|&v| v as i16).collect()),
            2 => ColumnData::U16(rows.iter().map(|&v| v as u16).collect()),
            3 => ColumnData::I24(rows.iter().map(|&v| I24::cut(v)).collect()),
            4 => ColumnData::I32(rows.iter().map(|&v| v as i32).collect()),
            _ => ColumnData::I64(rows.to_vec()),
        }
    }

    /// A column equal to `c` whose storage nothing else holds: a plain
    /// one's payloads copied, a split one's partitions shared.
    pub(crate) fn unshared(c: &Column) -> Column {
        let storage = match &*c.storage {
            Storage::Plain(data) => Storage::Plain(data.clone()),
            Storage::Split(split) => Storage::Split(split.clone()),
        };
        Column {
            storage: Arc::new(storage),
            ..c.clone()
        }
    }

    /// One logical column, by two routes.
    pub(crate) struct Case {
        pub(crate) dtype: DataType,
        /// What every reader must see.
        pub(crate) payloads: Vec<i64>,
        /// Built from the widest input the type's constructor takes.
        pub(crate) wide: Column,
        /// Built from storage already in the narrowest width.
        pub(crate) narrow: Column,
    }

    /// The column of `TYPES[ty]` whose extrema are the boundaries `lo_at`
    /// and `hi_at` (clamped into the type's domain, in either order), of
    /// `len` rows: none, one, or both extrema and `len - 2` draws between.
    pub(crate) fn build(ty: usize, lo_at: usize, hi_at: usize, len: usize, seed: u64) -> Case {
        let dtype = TYPES[ty];
        let mut rng = bwd_types::SplitMix64::new(seed);
        let (min, max) = match dtype {
            DataType::Int64 => (i64::MIN, i64::MAX),
            DataType::Bool => (0, 1),
            // Codes: one dictionary entry per value up to the top one.
            DataType::Str => (0, 65_536),
            DECIMAL_8_5 => (1 - 10i64.pow(8), 10i64.pow(8) - 1),
            DECIMAL_12_2 => (1 - 10i64.pow(12), 10i64.pow(12) - 1),
            _ => (i32::MIN as i64, i32::MAX as i64),
        };
        let (a, b) = (
            BOUNDARIES[lo_at].clamp(min, max),
            BOUNDARIES[hi_at].clamp(min, max),
        );
        let (lo, hi) = (a.min(b), a.max(b));
        // `hi - lo` < 2^64 − 1: the boundaries stop short of `i64::MIN`.
        let mut draw = || lo.wrapping_add(rng.below(hi.wrapping_sub(lo) as u64 + 1) as i64);
        let payloads: Vec<i64> = match (dtype, len) {
            (_, 0) => vec![],
            // A dictionary holds what some row uses: use every code.
            (DataType::Str, _) => (0..=hi).rev().chain((1..len).map(|_| draw())).collect(),
            (_, 1) => vec![hi],
            _ => [lo, hi]
                .into_iter()
                .chain((2..len).map(|_| draw()))
                .collect(),
        };
        let i32s = || payloads.iter().map(|&v| v as i32).collect::<Vec<_>>();
        let narrow = narrowest(&payloads);
        let (wide, narrow) = match dtype {
            DataType::Str => {
                let vocab: Vec<String> = (0..=hi).map(|i| format!("{i:05}")).collect();
                let spelled: Vec<&str> = payloads.iter().map(|&c| &*vocab[c as usize]).collect();
                let coded = with_slice!(narrow, codes => Column::from_codes(&vocab, codes));
                (Column::from_strings(&spelled), coded.unwrap())
            }
            _ => {
                let wide = match dtype {
                    DataType::Int32 => Column::from_i32(i32s()),
                    DataType::Int64 => Column::from_i64(payloads.clone()),
                    DataType::Date => Column::from_dates(i32s().into_iter().map(Date).collect()),
                    DataType::Decimal { precision, scale } => {
                        Column::from_decimals(payloads.clone(), precision, scale).unwrap()
                    }
                    _ => Column::from_data(dtype, i32s().into()).unwrap(),
                };
                (wide, Column::from_data(dtype, narrow).unwrap())
            }
        };
        Case {
            dtype,
            payloads,
            wide,
            narrow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::width_cases::{needs, BOUNDARIES};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Width and split are invisible: whatever width a column's values
        /// arrived in, every reader sees the same column, stored the same
        /// way; and split at 0, 1, 8 or w − 1 residual bits, with a frame
        /// or without, it is still that column to every reader — type,
        /// extrema, dictionary, modeled bytes, payloads, values and the
        /// encoded runs — held in its two packed partitions only.
        #[test]
        fn width_is_invisible_to_every_reader(
            ty in 0usize..width_cases::TYPES.len(),
            lo_at in 0usize..BOUNDARIES.len(),
            hi_at in 0usize..BOUNDARIES.len(),
            len in 0usize..300,
            seed: u64,
        ) {
            let case = width_cases::build(ty, lo_at, hi_at, len, seed);
            let tag = format!("{} × {:?}", case.dtype, extrema(&case.payloads));
            let (lo, hi) = extrema(&case.payloads).unwrap_or((0, 0));
            for c in [&case.wide, &case.narrow] {
                prop_assert_eq!(c.dtype(), case.dtype, "{}", tag);
                prop_assert_eq!(c.payloads(), case.payloads.clone(), "{}", tag);
                prop_assert_eq!(c.payload_min_max(), extrema(&case.payloads), "{}", tag);
                prop_assert_eq!(c.plain().width(), needs(lo, hi), "{}", tag);
                let rows = case.payloads.len() as u64;
                prop_assert_eq!(c.physical_bytes(), rows * needs(lo, hi), "{}", tag);
                prop_assert_eq!(c.plain_bytes(), rows * case.dtype.plain_width(), "{}", tag);
            }
            prop_assert_eq!(case.wide.plain(), case.narrow.plain(), "{}", tag);
            // Stored in the width the rule picks: signed where widths tie.
            let picked = width_cases::narrowest(&case.payloads);
            prop_assert_eq!(&*case.wide.plain(), &picked, "{}", tag);
            prop_assert_eq!(case.wide.dictionary(), case.narrow.dictionary(), "{}", tag);
            for (i, &p) in case.payloads.iter().enumerate() {
                let value = match case.dtype {
                    DataType::Int32 | DataType::Int64 => Value::Int(p),
                    DataType::Date => Value::Date(Date(p as i32)),
                    DataType::Bool => Value::Bool(p == 1),
                    DataType::Str => Value::Str(format!("{p:05}")),
                    DataType::Decimal { scale, .. } => Value::decimal(p, scale),
                };
                prop_assert_eq!(case.wide.payload(i), p, "{} row {}", tag, i);
                prop_assert_eq!(case.wide.value(i), value.clone(), "{} row {}", tag, i);
                prop_assert_eq!(case.narrow.value(i), value, "{} row {}", tag, i);
            }

            let bits = crate::encoding::physical_bits(case.dtype);
            let mut encoded = vec![0; case.payloads.len()];
            case.narrow.encoded_range(0, &mut encoded);
            for (device_bits, frame_of_reference) in
                [bits, bits - 1, bits - 8, 1].into_iter().flat_map(|b| [(b, true), (b, false)])
            {
                let spec = DecompositionSpec {
                    frame_of_reference,
                    ..DecompositionSpec::with_device_bits(device_bits)
                };
                let c = case.narrow.clone().decompose(&spec).unwrap();
                let tag = format!("{tag} split {spec:?}");
                let Storage::Split(split) = c.storage() else {
                    panic!("{tag}: not split")
                };
                let held = split.device_bytes() + split.host_bytes();
                prop_assert_eq!(c.physical_bytes(), held, "{}", tag);
                prop_assert_eq!(c.dtype(), case.dtype, "{}", tag);
                prop_assert_eq!(c.len(), case.payloads.len(), "{}", tag);
                prop_assert_eq!(c.payload_min_max(), case.narrow.payload_min_max(), "{}", tag);
                prop_assert_eq!(c.plain_bytes(), case.narrow.plain_bytes(), "{}", tag);
                prop_assert_eq!(c.dictionary(), case.narrow.dictionary(), "{}", tag);
                prop_assert_eq!(c.payloads(), case.payloads.clone(), "{}", tag);
                prop_assert_eq!(&*c.plain(), &picked, "{}", tag);
                let mut got = vec![0; encoded.len()];
                c.encoded_range(0, &mut got);
                prop_assert_eq!(&got, &encoded, "{}", tag);
                for (i, &e) in encoded.iter().enumerate() {
                    prop_assert_eq!(c.encoded(i), e, "{} row {}", tag, i);
                    prop_assert_eq!(c.value(i), case.narrow.value(i), "{} row {}", tag, i);
                }
            }
        }
    }

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
        let later = Date(d.days() + 10);
        let c = Column::from_dates(vec![d, later]);
        assert_eq!(c.dtype(), DataType::Date);
        assert_eq!(c.value(1), Value::Date(later));
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
        // More digits than the precision names: rejected when wide, too.
        assert!(Column::from_decimals(vec![i64::MAX / 2], 15, 2).is_err());
        let wide = Column::from_decimals(vec![10i64.pow(15) - 1], 15, 2).unwrap();
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
        let vals = vec![I24::cut(2_709_371), I24::cut(7_013_643)];
        let at = vals.as_ptr();
        let c = Column::from_data(coord, ColumnData::I24(vals)).unwrap();
        assert_eq!(c.value(1), Value::decimal(7_013_643, 5));
        let plain = c.plain();
        let ColumnData::I24(stored) = &*plain else {
            panic!("seven digits below 2^23 need 3 bytes")
        };
        assert_eq!(stored.as_ptr(), at, "the storage moved in, uncopied");
        for bad in [10_000_000, -10_000_000] {
            assert!(Column::from_data(coord, ColumnData::I32(vec![0, bad])).is_err());
        }
        // Storage wider than the type is modeled at is refused — whatever
        // it holds —, narrower storage is what the rule would pick anyway.
        assert!(Column::from_data(coord, ColumnData::I64(vec![1])).is_err());
        assert!(Column::from_data(DataType::Int32, ColumnData::I64(vec![1])).is_err());
        let narrow = Column::from_data(DataType::Int64, ColumnData::I16(vec![1, 300])).unwrap();
        assert_eq!((narrow.plain_bytes(), narrow.physical_bytes()), (16, 4));
        let wide = |v| Column::from_data(DataType::decimal(2), ColumnData::I64(vec![v]));
        assert!(wide(10i64.pow(18) - 1).is_ok() && wide(10i64.pow(18)).is_err());
        assert!(Column::from_data(DataType::Date, ColumnData::I32(vec![])).is_ok());
        assert!(Column::from_data(DataType::Str, ColumnData::I32(vec![0])).is_err());
    }

    /// `from_decimals` enforces the precision it names — on the narrow
    /// path (the parent only asked whether the payload fits `i32`) and on
    /// the wide one (the parent asked nothing).
    #[test]
    fn from_decimals_enforces_its_precision() {
        for (v, precision, scale) in [(999_999_999, 8, 5), (10i64.pow(14), 12, 2)] {
            for v in [v, -v] {
                let err = Column::from_decimals(vec![0, v], precision, scale).unwrap_err();
                assert!(matches!(err, BwdError::InvalidArgument(_)), "{err}");
                assert!(err.to_string().contains("exceeds precision"), "{err}");
            }
        }
        assert!(Column::from_decimals(vec![99_999_999, -99_999_999], 8, 5).is_ok());
        assert!(Column::from_decimals(vec![10i64.pow(12) - 1], 12, 2).is_ok());
        assert!(Column::from_decimals(vec![], 1, 0).is_ok());
    }

    /// No state of a `Column` panics on its accessors: a string column
    /// cannot be built without its dictionary, and asking a plain column
    /// for a string is a typed error.
    #[test]
    fn a_string_column_is_its_dictionary() {
        let s = Column::from_codes(&["b", "a"], vec![0i8, 1, 0]).unwrap();
        assert_eq!(s.dtype(), DataType::Str);
        assert_eq!(s.value(0), Value::Str("b".into()));
        assert_eq!(s.payload_of_value(&Value::Str("a".into())).unwrap(), 0);
        assert!(matches!(
            s.payload_of_value(&Value::Str("c".into())),
            Err(BwdError::NotFound(_))
        ));
        assert!(matches!(
            s.payload_of_value(&Value::Int(0)),
            Err(BwdError::TypeMismatch(_))
        ));
        for plain in [
            Column::from_i32(vec![1]),
            Column::from_data(DataType::Bool, ColumnData::I8(vec![1])).unwrap(),
        ] {
            assert!(plain.dictionary().is_none());
            assert!(matches!(
                plain.payload_of_value(&Value::Str("a".into())),
                Err(BwdError::TypeMismatch(_))
            ));
        }
    }

    /// Where a column's payloads live.
    fn address(c: &Column) -> usize {
        with_slice!(&*c.plain(), rows => rows.as_ptr() as usize)
    }

    /// The extrema and the narrowed storage do not depend on the pieces
    /// they are found and written in: every pair of width boundaries as
    /// extrema, the least in the last piece and the greatest in the first,
    /// from `i64` and, where they fit, from `i32` input.
    #[test]
    fn the_constructor_is_the_same_in_any_pieces() {
        let mut rng = bwd_types::SplitMix64::new(41);
        for (i, &lo) in BOUNDARIES.iter().enumerate() {
            for &hi in BOUNDARIES.iter().filter(|&&hi| hi > lo) {
                let span = hi.wrapping_sub(lo) as u64;
                let mut rows: Vec<i64> = (0..5_000)
                    .map(|_| lo.wrapping_add(rng.below(span) as i64))
                    .collect();
                (rows[10], rows[4_990]) = (hi, lo);
                let i32s = i32::try_from(lo).and(i32::try_from(hi)).is_ok();
                let inputs = [
                    Some(ColumnData::I64(rows.clone())),
                    i32s.then(|| ColumnData::I32(rows.iter().map(|&v| v as i32).collect())),
                ];
                for data in inputs.into_iter().flatten() {
                    let build = |chunks| {
                        let logical = Logical::Plain(DataType::Int64);
                        Column::new_in(logical, chunks, data.clone())
                    };
                    let one = build(1);
                    assert_eq!(one.payload_min_max(), Some((lo, hi)), "case {i}");
                    for chunks in [2, 3, 7] {
                        let c = build(chunks);
                        assert_eq!(c.payload_min_max(), one.payload_min_max());
                        assert_eq!(c.plain(), one.plain(), "{lo}..={hi}, {chunks} pieces");
                    }
                }
            }
        }
    }

    /// After every public constructor the stored width is the narrowest
    /// that holds the extrema — whatever width the values arrived in.
    #[test]
    fn every_constructor_stores_the_narrowest_width() {
        let check = |c: Column, lo: i64, hi: i64, how: &str| {
            let tag = format!("{how} over {lo}..={hi}");
            assert_eq!(c.payload_min_max(), Some((lo, hi)), "{tag}");
            assert_eq!(c.plain().width(), needs(lo, hi), "{tag}");
            assert_eq!(c.physical_bytes(), 3 * needs(lo, hi), "{tag}");
            assert_eq!(c.plain_bytes(), 3 * c.dtype().plain_width(), "{tag}");
            assert_eq!(c.payloads(), [lo, hi, lo], "{tag}");
        };
        let decimal = DataType::Decimal {
            precision: 12,
            scale: 2,
        };
        for lo in BOUNDARIES {
            for hi in BOUNDARIES.into_iter().filter(|&hi| lo <= hi) {
                let rows = vec![lo, hi, lo];
                check(Column::from_i64(rows.clone()), lo, hi, "from_i64");
                let data = ColumnData::I64(rows.clone());
                check(
                    Column::from_data(DataType::Int64, data).unwrap(),
                    lo,
                    hi,
                    "from_data",
                );
                if hi < 10i64.pow(12) && lo > -(10i64.pow(12)) {
                    let c = Column::from_decimals(rows.clone(), 12, 2).unwrap();
                    assert_eq!(c.dtype(), decimal);
                    check(c, lo, hi, "from_decimals");
                }
                let (Ok(lo32), Ok(hi32)) = (i32::try_from(lo), i32::try_from(hi)) else {
                    continue;
                };
                let rows = vec![lo32, hi32, lo32];
                check(Column::from_i32(rows.clone()), lo, hi, "from_i32");
                let dates = rows.iter().map(|&d| Date(d)).collect();
                check(Column::from_dates(dates), lo, hi, "from_dates");
            }
        }
        // String codes: the width follows the dictionary, not the codes'.
        let strings = [
            (1, 1),
            (128, 1),
            (129, 2),
            (32_768, 2),
            (32_769, 2),
            (65_536, 2),
            (65_537, 3),
        ];
        for (distinct, width) in strings {
            let vocab: Vec<String> = (0..distinct).map(|i| format!("{i:05}")).collect();
            let spelled = Column::from_strings(&vocab);
            let coded = Column::from_codes(&vocab, (0..distinct).collect()).unwrap();
            for c in [spelled, coded] {
                assert_eq!(c.plain().width(), width, "{distinct} strings");
                assert_eq!(c.payload_min_max(), Some((0, distinct as i64 - 1)));
            }
        }
        for empty in [
            Column::from_i64(vec![]),
            Column::from_strings::<&str>(&[]),
            Column::from_decimals(vec![], 12, 2).unwrap(),
        ] {
            assert_eq!((empty.plain().width(), empty.payload_min_max()), (1, None));
        }
    }

    /// Storage that arrives in the narrowest width moves in uncopied, in
    /// all six widths and through every constructor that takes a vector.
    #[test]
    fn narrowest_storage_moves_in_uncopied() {
        fn moved<T: Payload>(rows: Vec<T>, build: impl FnOnce(Vec<T>) -> Column) {
            let at = rows.as_ptr() as usize;
            let c = build(rows);
            assert_eq!(c.plain().width() as usize, std::mem::size_of::<T>());
            assert_eq!(
                address(&c),
                at,
                "{}-byte storage was copied",
                c.plain().width()
            );
        }
        let date = |data: ColumnData| Column::from_data(DataType::Date, data).unwrap();
        moved(vec![-128i8, 127], |v| date(v.into()));
        moved(vec![-129i16, 0], |v| date(v.into()));
        moved(vec![0u16, 65_535], |v| date(v.into()));
        let i24s = vec![I24::cut(I24::MIN), I24::cut(32_768)];
        moved(i24s, |v| date(v.into()));
        moved(vec![0i32, I24::MAX as i32 + 1], |v| date(v.into()));
        moved(vec![0i32, I24::MAX as i32 + 1], Column::from_i32);
        moved(vec![i32::MIN as i64 - 1, 0], Column::from_i64);
        moved(vec![1i64 << 40], |v| {
            Column::from_decimals(v, 15, 2).unwrap()
        });
        moved(vec![1i64 << 40], |v| {
            Column::from_data(DataType::decimal(2), v.into()).unwrap()
        });
        moved(vec![1i8, 0, 1], |v| {
            Column::from_codes(&["x", "y"], v).unwrap()
        });
        // And what is not narrowest is re-packed: a new, smaller home.
        let wide = vec![5i64; 1000];
        let at = wide.as_ptr() as usize;
        let c = Column::from_i64(wide);
        assert_eq!((c.plain().width(), c.physical_bytes()), (1, 1000));
        assert_ne!(address(&c), at);
        // Where two widths tie, signed comes first: one column, one storage.
        let c = date(ColumnData::U16(vec![0, 32_767]));
        assert_eq!(*c.plain(), ColumnData::I16(vec![0, 32_767]));
    }

    /// An [`I24`] is its value in three bytes: every boundary survives the
    /// round trip, and the order is the values' order.
    #[test]
    fn an_i24_is_three_bytes_of_its_value() {
        assert_eq!(std::mem::size_of::<I24>(), 3);
        assert_eq!(
            std::mem::size_of::<Vec<I24>>(),
            std::mem::size_of::<Vec<i32>>()
        );
        let edges = [I24::MIN, I24::MIN + 1, -32_769, -1, 0, 1, 65_536, I24::MAX];
        for (i, &v) in edges.iter().enumerate() {
            assert_eq!(i64::from(I24::cut(v)), v);
            assert_eq!(format!("{:?}", I24::cut(v)), v.to_string());
            for &w in &edges[i..] {
                assert_eq!(I24::cut(v).cmp(&I24::cut(w)), v.cmp(&w), "{v} vs {w}");
            }
        }
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
        let strings = Column::from_strings(&spelled);
        // Codes of any width, against a vocabulary of any size, end as the
        // same bytes: three strings need one.
        let narrow: Vec<i8> = codes.iter().map(|&c| c as i8).collect();
        let wide: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
        for coded in [
            Column::from_codes(&vocab, codes).unwrap(),
            Column::from_codes(&vocab, narrow).unwrap(),
            Column::from_codes(&vocab, wide).unwrap(),
        ] {
            assert_eq!(coded.plain(), strings.plain());
            assert_eq!(*coded.plain(), ColumnData::I8(vec![1, 2, 2, 0, 0, 1, 2]));
            assert_eq!(coded.dictionary(), strings.dictionary());
            assert_eq!(coded.dictionary().unwrap().len(), 3);
        }
        assert!(Column::from_codes(&vocab, vec![0, 5]).is_err());
        assert!(Column::from_codes(&vocab, vec![-1]).is_err());
        assert!(Column::from_codes(&vocab, vec![0i64, 1 << 32]).is_err());
        let none = Column::from_codes(&vocab, Vec::<i32>::new()).unwrap();
        assert!(none.dictionary().unwrap().is_empty());
    }
}
