//! Persistent columns and ordered string dictionaries.
//!
//! A [`Column`] holds its payloads one way from its first row to its
//! teardown: bitwise-decomposed ([`DecomposedColumn`]), approximation ‖
//! packed residual. A column nobody has decomposed is its all-device split
//! — a frame of reference over its own extrema, every bit in one packed
//! run, residual width 0 —, so it holds the bits its domain needs and
//! binding it shares those words. Two widths, kept apart:
//!
//! * the **modeled** width follows MonetDB's static type expansion —
//!   32-bit types 4 bytes, 64-bit types 8 ([`DataType::plain_width`]) —
//!   and is what every bill, every decomposition report and the load
//!   ledger charge ([`Column::plain_bytes`]);
//! * the **physical** bits are the packed partitions'
//!   ([`Column::physical_bytes`]). Nothing but the allocator reads them:
//!   they never reach a bill.
//!
//! Strings are codes into an *ordered* [`Dictionary`] so that prefix
//! predicates become code-range predicates (the rewrite the paper applied
//! to TPC-H Q14's `like 'PROMO%'`).

use crate::bitpack::{BitPackedVec, PackCursor, DECODE_BLOCK};
use crate::decompose::{DecomposedColumn, DecompositionMeta, DecompositionSpec};
use crate::encoding::{decode, physical_bits};
use crate::pieces::{chunk_count, cuts, in_pieces};
use bwd_types::bits::low_mask;
use bwd_types::{BwdError, DataType, Date, FxHashMap, Result, Value};
use std::ops::Range;
use std::sync::Arc;

/// A column's logical type, with what only that type carries: a string
/// column cannot be without its dictionary. The one value ↔ payload
/// mapping: a stored column and the engine's slice slots both read it.
#[derive(Debug, Clone)]
pub enum Logical {
    /// Any type but `Str` ([`Column::from_payloads`] rejects it; a bare code
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

/// One output of [`Column::fill`].
pub enum Slot<'a> {
    /// Payloads of this type and dictionary, inside `lo..=hi`.
    Of(Logical, i64, i64),
    /// Codes into `vocab`, which may be unordered and repeat itself: the
    /// column's dictionary is the ordered set of the entries some row uses,
    /// and every code is re-coded to its rank there.
    Codes(&'a [&'a str]),
}

impl Slot<'_> {
    /// The stored type and the stated payload domain.
    fn domain(&self) -> (DataType, i64, i64) {
        match self {
            Slot::Of(logical, lo, hi) => (logical.dtype(), *lo, *hi),
            Slot::Codes(vocab) => (DataType::Str, 0, vocab.len() as i64 - 1),
        }
    }
}

/// A persistent, fully-decomposed (column-store) attribute. A clone is a
/// reference: the packed runs are shared, never copied.
#[derive(Debug, Clone)]
pub struct Column {
    logical: Logical,
    split: DecomposedColumn,
    /// Payload minimum/maximum, `None` when empty: found once, on the way
    /// in — it frames the storage, and decomposition and the binder (per
    /// predicate per `bind`) ask for it anyway.
    min_max: Option<(i64, i64)>,
}

impl Column {
    /// `K` columns of `len` rows, packed as they are made: each piece
    /// `cuts` cuts for `chunks` draws its rows by `row` from the state
    /// `piece(rows)` returns (asked front to back) and packs each payload
    /// into its part of its column's run, framed by the slot's domain.
    /// A column whose rows need fewer bits or another frame then re-packs
    /// in place: each is its all-device split.
    ///
    /// # Errors
    /// A domain outside its type's payloads or with more digits than a
    /// decimal's precision, or a payload outside its domain.
    pub fn fill<const K: usize, P: Send>(
        slots: [Slot<'_>; K],
        len: usize,
        chunks: usize,
        piece: impl FnMut(Range<usize>) -> P,
        row: impl Fn(&mut P) -> [i64; K] + Sync,
    ) -> Result<[Column; K]> {
        let all_device = DecompositionSpec::all_device();
        let mut metas = [DecompositionMeta::new(DataType::Int32, None, &all_device); K];
        let mut codes = [(0, 0, 0, 0); K];
        for ((meta, code), slot) in metas.iter_mut().zip(&mut codes).zip(&slots) {
            let (dtype, lo, hi) = slot.domain();
            let bits = physical_bits(dtype);
            if len > 0
                && !(i64::MIN >> (64 - bits) <= lo && lo <= hi && hi <= i64::MAX >> (64 - bits))
            {
                let msg = format!("{lo}..={hi} is no domain of {dtype} payloads");
                return Err(BwdError::InvalidArgument(msg));
            }
            // The one digit check: a decimal's payloads fit its precision.
            let digits = |v: i64| {
                match dtype {
                    DataType::Decimal { precision, .. } => 10u64.checked_pow(precision.into()),
                    _ => None,
                }
                .is_some_and(|limit| v.unsigned_abs() >= limit)
            };
            if let Some(v) = [lo, hi].into_iter().find(|&v| len > 0 && digits(v)) {
                let msg = format!("decimal payload {v} exceeds precision: {dtype}");
                return Err(BwdError::InvalidArgument(msg));
            }
            *meta = DecompositionMeta::new(dtype, (len > 0).then_some((lo, hi)), &all_device);
            // `encode`, its branch on the width taken once a column: the
            // sign bit flipped, less the frame, in the stored bits.
            *code = (
                low_mask(bits),
                1 << (bits - 1),
                meta.frame(),
                low_mask(meta.stored_width()),
            );
        }
        // A code slot marks the vocabulary entries its rows use.
        let vocabs = slots
            .each_ref()
            .map(|s| if let Slot::Codes(v) = s { v.len() } else { 0 });
        let unmarked = || vocabs.map(|v| vec![false; v]);
        let (mut found, mut used) = (None, unmarked());
        let widths = metas.map(|m| m.stored_width());
        let runs = BitPackedVec::write_once(widths, len, true, |mut runs| {
            let mut piece = piece;
            let pieces = cuts(len, chunks).map(|rows| {
                let cursors = runs.each_mut().map(|run| run.take_rows(rows.len()));
                (piece(rows.clone()), cursors, rows.len())
            });
            let pieces = in_pieces(pieces, |(mut state, mut cursors, n)| {
                // A block of rows drawn, then each column's packed in turn:
                // one cursor's state in registers at a time.
                let (mut block, mut extrema) = ([[0; DECODE_BLOCK]; K], [(i64::MAX, i64::MIN); K]);
                let mut used = unmarked();
                for at in (0..n).step_by(DECODE_BLOCK) {
                    let m = DECODE_BLOCK.min(n - at);
                    (0..m).for_each(|r| {
                        let payloads = row(&mut state);
                        (0..K).for_each(|k| block[k][r] = payloads[k]);
                    });
                    for (k, cursor) in cursors.iter_mut().enumerate() {
                        let (mask, flip, frame, stored) = codes[k];
                        for &p in &block[k][..m] {
                            extrema[k] = (extrema[k].0.min(p), extrema[k].1.max(p));
                            cursor.push((((p as u64 & mask) ^ flip).wrapping_sub(frame)) & stored);
                        }
                        // A slot without a vocabulary has no codes to mark.
                        let marks = &mut used[k];
                        for &c in &block[k][..m * usize::from(!marks.is_empty())] {
                            if let Some(mark) = marks.get_mut(c as usize) {
                                *mark = true;
                            }
                        }
                    }
                }
                cursors.into_iter().for_each(PackCursor::finish);
                ((n > 0).then_some(extrema), used)
            });
            let (extrema, marks): (Vec<_>, Vec<_>) = pieces.into_iter().unzip();
            found = (extrema.into_iter().flatten())
                .reduce(|a, b| std::array::from_fn(|k| (a[k].0.min(b[k].0), a[k].1.max(b[k].1))));
            for piece in marks {
                (used.iter_mut().flatten())
                    .zip(piece.iter().flatten())
                    .for_each(|(u, m)| *u |= m);
            }
            Ok::<_, BwdError>(())
        })?;
        let mut out = Vec::with_capacity(K);
        for (k, ((slot, run), marks)) in slots.into_iter().zip(runs).zip(used).enumerate() {
            let found = found.map(|f| f[k]);
            out.push(Column::framed(slot, run, metas[k], found, &marks)?);
        }
        Ok(out
            .try_into()
            .unwrap_or_else(|_| unreachable!("one column a slot")))
    }

    /// The column `slot` states, from `run`, packed by `meta` over the
    /// stated domain; its rows' extrema are `found`, and of a code slot's
    /// vocabulary its rows use the entries `used` marks.
    fn framed(
        slot: Slot<'_>,
        mut run: BitPackedVec,
        meta: DecompositionMeta,
        found: Option<(i64, i64)>,
        used: &[bool],
    ) -> Result<Column> {
        let (dtype, lo, hi) = slot.domain();
        if let Some(v) =
            found.and_then(|(l, h)| [l, h].into_iter().find(|v| !(lo..=hi).contains(v)))
        {
            let msg = format!("payload {v} outside the stated domain {lo}..={hi}");
            return Err(BwdError::InvalidArgument(msg));
        }
        let chunks = chunk_count(run.len());
        let (logical, found, rank) = match slot {
            Slot::Of(logical, ..) => (logical, found, None),
            Slot::Codes(vocab) => {
                let (dict, rank) = Dictionary::of_used(vocab, used);
                // Codes that are their ranks already need no re-pack.
                let moved = (rank.iter().enumerate()).any(|(c, &r)| used[c] && r != c as u64);
                let top = dict.values.len() as i64 - 1;
                let logical = Logical::Str(Arc::new(dict));
                (logical, found.map(|_| (0, top)), moved.then_some(rank))
            }
        };
        let want = DecompositionMeta::new(dtype, found, &DecompositionSpec::all_device());
        let shift = want.frame() - meta.frame();
        match rank {
            Some(rank) => run.repack(want.stored_width(), chunks, |c| rank[c as usize]),
            None if want == meta => {}
            None if want.stored_width() == meta.stored_width() => run.subtract(shift, chunks),
            None => run.repack(want.stored_width(), chunks, |v| v - shift),
        }
        let [residual] = BitPackedVec::write_once([0], run.len(), true, |_| Ok::<_, BwdError>(()))?;
        let split = DecomposedColumn::new(want, run, residual);
        Ok(Column {
            logical,
            split,
            min_max: found,
        })
    }

    /// `vals` as a `logical` column, packed in the pieces [`chunk_count`]
    /// cuts over the extrema a pass finds first.
    fn of_slice<T: Copy + Into<i64> + Sync>(logical: Logical, vals: &[T]) -> Result<Self> {
        let (chunks, into) = (chunk_count(vals.len()), |v: &T| -> i64 { (*v).into() });
        let (lo, hi) = (vals.iter().map(into).min(), vals.iter().map(into).max());
        let (lo, hi) = (lo.unwrap_or(0), hi.unwrap_or(0));
        let slot = [Slot::Of(logical, lo, hi)];
        let row = |rows: &mut std::slice::Iter<T>| [(*rows.next().expect("a piece's row")).into()];
        let [col] = Column::fill(slot, vals.len(), chunks, |rows| vals[rows].iter(), row)?;
        Ok(col)
    }

    /// This column split by `spec` — type, extrema and dictionary kept,
    /// the payloads held as approximation ‖ residual only. A split it
    /// already holds is kept as it is: no word is packed. Runs held here
    /// alone hand their pages back as they are re-packed, so the host never
    /// holds both forms whole; shared ones are read in place.
    ///
    /// # Errors
    /// Fails on a spec [`DecomposedColumn::validate_spec`] rejects.
    pub fn decompose(self, spec: &DecompositionSpec) -> Result<Column> {
        let chunks = chunk_count(self.len());
        self.decompose_in(spec, chunks)
    }

    /// [`Column::decompose`], packed in `chunks` pieces.
    pub(crate) fn decompose_in(self, spec: &DecompositionSpec, chunks: usize) -> Result<Self> {
        DecomposedColumn::validate_spec(self.dtype(), spec)?;
        let meta = DecompositionMeta::new(self.dtype(), self.min_max, spec);
        Ok(Column {
            split: self.split.resplit(meta, chunks),
            ..self
        })
    }

    /// Build an `Int32` column.
    pub fn from_i32(vals: Vec<i32>) -> Self {
        Column::from_payloads(DataType::Int32, &vals).expect("an i32 is an Int32 payload")
    }

    /// A non-string column of logical type `dtype` over `payloads` (days
    /// for a date, scaled integers for a decimal).
    ///
    /// # Errors
    /// Fails for `Str` (whose codes mean nothing without a dictionary: use
    /// [`Column::from_strings`]), on a payload past `dtype`'s physical
    /// width, and on a decimal payload with more digits than its precision.
    pub fn from_payloads<T: Copy + Into<i64> + Sync>(
        dtype: DataType,
        payloads: &[T],
    ) -> Result<Self> {
        if dtype == DataType::Str {
            let msg = "a Str column's codes need a dictionary".to_string();
            return Err(BwdError::InvalidArgument(msg));
        }
        Column::of_slice(Logical::Plain(dtype), payloads)
    }

    /// Build a string column: constructs the ordered dictionary and encodes
    /// each row as its code.
    pub fn from_strings<S: AsRef<str>>(vals: &[S]) -> Self {
        let (dict, codes) = Dictionary::build(vals);
        Column::of_slice(Logical::Str(Arc::new(dict)), &codes).expect("a rank is a code")
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
        self.split.len()
    }

    /// Whether the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The approximation ‖ residual the column is held as: every column
    /// has one, an undecomposed column its all-device split.
    #[inline]
    pub fn split(&self) -> Option<&DecomposedColumn> {
        Some(&self.split)
    }

    /// Encoded value ([`crate::encoding::encode`]) of row `i` — for single rows.
    #[inline]
    pub fn encoded(&self, i: usize) -> u64 {
        self.split.encoded(i)
    }

    /// Encoded values of rows `start..start + out.len()`: both partitions
    /// decoded a block at a time and concatenated. The encoding preserves
    /// order, so a range test reads them as they are.
    pub fn encoded_range(&self, start: usize, out: &mut [u64]) {
        self.split.encoded_range(start, out)
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

    /// Bytes the payloads occupy on this host: both packed partitions.
    /// Only the allocator reads it; no simulated cost does.
    pub fn physical_bytes(&self) -> u64 {
        self.split.device_bytes() + self.split.host_bytes()
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
        let (dict, rank) = Dictionary::of_used(&vocab, &vec![true; vocab.len()]);
        codes.iter_mut().for_each(|c| *c = rank[*c as usize] as i32);
        (dict, codes)
    }

    /// The ordered dictionary of the `vocab` entries `used` marks, and
    /// each entry's rank in it (an unused entry's is never read). `vocab`
    /// may be unordered and may repeat itself.
    fn of_used<S: AsRef<str>>(vocab: &[S], used: &[bool]) -> (Dictionary, Vec<u64>) {
        let mut values: Vec<&str> = vocab
            .iter()
            .zip(used)
            .filter_map(|(s, &used)| used.then_some(s.as_ref()))
            .collect();
        values.sort_unstable();
        values.dedup();
        let rank = vocab
            .iter()
            .map(|s| values.binary_search(&s.as_ref()).map_or(0, |r| r as u64))
            .collect();
        let values = values.into_iter().map(String::from).collect();
        (Dictionary { values }, rank)
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

/// Test support, shared with `decompose.rs`: one logical column per draw
/// over every type × domain class, built by two routes.
#[cfg(test)]
pub(crate) mod width_cases {
    use super::*;
    use crate::encoding::encode;

    /// Every value a byte-width boundary lies next to.
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
        -(1 << 23) - 1,
        -(1 << 23),
        (1 << 23) - 1,
        1 << 23,
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

    /// The bits a row of a `dtype` column over `lo..=hi` is stored in: its
    /// encoded span's, found the slow way.
    pub(crate) fn needs(dtype: DataType, lo: i64, hi: i64) -> u32 {
        let span = encode(hi, dtype) - encode(lo, dtype);
        (0..=64).find(|&b| b == 64 || span >> b == 0).unwrap()
    }

    /// A column equal to `c` whose runs nothing else holds.
    pub(crate) fn unshared(c: &Column) -> Column {
        let (meta, approx, residual) = c.split.clone().into_parts();
        let copy = |run: &BitPackedVec| BitPackedVec::from_slice(run.width(), &run.to_vec());
        let split = DecomposedColumn::new(meta, copy(&approx), copy(&residual));
        Column { split, ..c.clone() }
    }

    /// One logical column, by two routes.
    pub(crate) struct Case {
        pub(crate) dtype: DataType,
        /// What every reader must see.
        pub(crate) payloads: Vec<i64>,
        /// Built from the slice, its extrema found first.
        pub(crate) wide: Column,
        /// Packed as a generator packs, over a stated domain wider than its
        /// rows — the type's whole domain —, then re-packed to them.
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
        let rows = |r: &mut usize| {
            *r += 1;
            [payloads[*r - 1]]
        };
        let (wide, narrow) = match dtype {
            DataType::Str => {
                let vocab: Vec<String> = (0..=hi).map(|i| format!("{i:05}")).collect();
                let spelled: Vec<&str> = payloads.iter().map(|&c| &*vocab[c as usize]).collect();
                let vocab: Vec<&str> = vocab.iter().map(String::as_str).collect();
                let slot = [Slot::Codes(&vocab)];
                let [coded] = Column::fill(slot, payloads.len(), 1, |at| at.start, rows).unwrap();
                (Column::from_strings(&spelled), coded)
            }
            _ => {
                let slot = [Slot::Of(Logical::Plain(dtype), min, max)];
                let [narrow] = Column::fill(slot, payloads.len(), 1, |at| at.start, rows).unwrap();
                (Column::from_payloads(dtype, &payloads).unwrap(), narrow)
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

    /// The least and greatest of `vals`.
    fn extrema(vals: &[i64]) -> Option<(i64, i64)> {
        Some((*vals.iter().min()?, *vals.iter().max()?))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Route and split are invisible: packed from a slice or as a
        /// generator packs, over its own extrema or a wider stated domain,
        /// every reader sees the same column, held the same way — its
        /// all-device split, in the bits its domain needs —; and split at
        /// 0, 1, 8 or w − 1 residual bits, with a frame or without, it is
        /// still that column to every reader — type, extrema, dictionary,
        /// modeled bytes, payloads, values and the encoded runs.
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
            let all_device = DecompositionMeta::new(case.dtype, extrema(&case.payloads), &DecompositionSpec::all_device());
            for c in [&case.wide, &case.narrow] {
                prop_assert_eq!(c.dtype(), case.dtype, "{}", tag);
                prop_assert_eq!(c.payloads(), case.payloads.clone(), "{}", tag);
                prop_assert_eq!(c.payload_min_max(), extrema(&case.payloads), "{}", tag);
                prop_assert_eq!(c.split.meta(), &all_device, "{}", tag);
                let rows = case.payloads.len() as u64;
                let bits = rows * needs(case.dtype, lo, hi) as u64;
                prop_assert_eq!(c.physical_bytes(), bits.div_ceil(8), "{}", tag);
                prop_assert_eq!(c.plain_bytes(), rows * case.dtype.plain_width(), "{}", tag);
            }
            prop_assert_eq!(case.wide.split.approx(), case.narrow.split.approx(), "{}", tag);
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
                prop_assert_eq!(case.wide.logical().value(case.wide.payload(i)), value.clone(), "{} row {}", tag, i);
                prop_assert_eq!(case.narrow.logical().value(case.narrow.payload(i)), value, "{} row {}", tag, i);
            }

            let bits = physical_bits(case.dtype);
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
                let held = c.split.device_bytes() + c.split.host_bytes();
                prop_assert_eq!(c.physical_bytes(), held, "{}", tag);
                prop_assert_eq!(c.dtype(), case.dtype, "{}", tag);
                prop_assert_eq!(c.len(), case.payloads.len(), "{}", tag);
                prop_assert_eq!(c.payload_min_max(), case.narrow.payload_min_max(), "{}", tag);
                prop_assert_eq!(c.plain_bytes(), case.narrow.plain_bytes(), "{}", tag);
                prop_assert_eq!(c.dictionary(), case.narrow.dictionary(), "{}", tag);
                prop_assert_eq!(c.payloads(), case.payloads.clone(), "{}", tag);
                let mut got = vec![0; encoded.len()];
                c.encoded_range(0, &mut got);
                prop_assert_eq!(&got, &encoded, "{}", tag);
                for (i, &e) in encoded.iter().enumerate() {
                    prop_assert_eq!(c.encoded(i), e, "{} row {}", tag, i);
                    prop_assert_eq!(c.logical().value(c.payload(i)), case.narrow.logical().value(case.narrow.payload(i)), "{} row {}", tag, i);
                }
            }
        }
    }

    #[test]
    fn int_column_roundtrip() {
        let c = Column::from_i32(vec![3, 1, 2]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.payload(0), 3);
        assert_eq!(c.logical().value(c.payload(1)), Value::Int(1));
        assert_eq!(c.plain_bytes(), 12);
        assert_eq!(c.payload_min_max(), Some((1, 3)));
    }

    #[test]
    fn date_column() {
        let d = Date::parse("1994-01-01").unwrap();
        let later = d.days() + 10;
        let c = Column::from_payloads(DataType::Date, &[d.days(), later]).unwrap();
        assert_eq!(c.dtype(), DataType::Date);
        assert_eq!(c.logical().value(c.payload(1)), Value::Date(Date(later)));
        assert_eq!(
            c.payload_of_value(&Value::Date(d)).unwrap(),
            d.days() as i64
        );
    }

    #[test]
    fn decimal_column_narrow_and_wide() {
        let decimal = |precision, scale| DataType::Decimal { precision, scale };
        let c = Column::from_payloads(decimal(8, 5), &[268_288i64, -1_262_427]).unwrap();
        assert_eq!(c.dtype().plain_width(), 4);
        assert_eq!(c.logical().value(c.payload(0)), Value::decimal(268_288, 5));
        // Payload exceeding i32: rejected for precision<=9.
        assert!(Column::from_payloads(decimal(8, 5), &[i64::MAX]).is_err());
        // More digits than the precision names: rejected when wide, too.
        assert!(Column::from_payloads(decimal(15, 2), &[i64::MAX / 2]).is_err());
        let wide = Column::from_payloads(decimal(15, 2), &[10i64.pow(15) - 1]).unwrap();
        assert_eq!(wide.dtype().plain_width(), 8);
    }

    #[test]
    fn decimal_literal_rescaling() {
        let c = Column::from_payloads(DataType::decimal(2), &[100i64]).unwrap();
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
        assert_eq!(dict.values.len(), 3);
        // Codes ordered lexicographically.
        let codes: Vec<i64> = (0..c.len()).map(|i| c.payload(i)).collect();
        assert_eq!(
            c.logical().value(c.payload(1)),
            Value::Str("ECONOMY".into())
        );
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

    /// `from_payloads` refuses what its type cannot hold — a payload past
    /// the physical width, a decimal past its precision, a string without
    /// its dictionary — and the fill refuses a domain past the type's
    /// payloads and a row outside its stated domain.
    #[test]
    fn a_column_holds_only_what_its_type_and_domain_do() {
        let coord = DataType::Decimal {
            precision: 7,
            scale: 5,
        };
        let c = Column::from_payloads(coord, &[2_709_371i64, 7_013_643]).unwrap();
        assert_eq!(
            c.logical().value(c.payload(1)),
            Value::decimal(7_013_643, 5)
        );
        for bad in [10_000_000i64, -10_000_000] {
            assert!(Column::from_payloads(coord, &[0, bad]).is_err());
        }
        assert!(Column::from_payloads(DataType::Int32, &[1i64 << 31]).is_err());
        let narrow = Column::from_payloads(DataType::Int64, &[1i64, 300]).unwrap();
        assert_eq!((narrow.plain_bytes(), narrow.physical_bytes()), (16, 3));
        let wide = |v: i64| Column::from_payloads(DataType::decimal(2), &[v]);
        assert!(wide(10i64.pow(18) - 1).is_ok() && wide(10i64.pow(18)).is_err());
        assert!(Column::from_payloads::<i32>(DataType::Date, &[]).is_ok());
        assert!(Column::from_payloads(DataType::Str, &[0i32]).is_err());
        // The fill: a domain no Int32 holds, and a row past the stated one.
        let of = |lo, hi| [Slot::Of(Logical::Plain(DataType::Int32), lo, hi)];
        let rows = |r: &mut i64| {
            *r += 1;
            [*r]
        };
        let err = Column::fill(of(0, 1 << 31), 3, 1, |_| 0, rows).unwrap_err();
        assert!(err.to_string().contains("no domain"), "{err}");
        let err = Column::fill(of(1, 2), 3, 1, |_| 0, rows).unwrap_err();
        assert!(err.to_string().contains("payload 3 outside"), "{err}");
        let [c] = Column::fill(of(-5, 1000), 3, 1, |_| 0, rows).unwrap();
        assert_eq!((c.payloads(), c.physical_bytes()), (vec![1, 2, 3], 1));
    }

    /// A stated domain whose frame is below the rows' but whose width is
    /// theirs is fixed by one subtraction in place: the words are the ones
    /// a fill over the rows' own extrema packs, at widths 3 to 63 and in
    /// one piece or three.
    #[test]
    fn a_frame_shift_at_the_same_width_subtracts_in_place() {
        let mut rng = bwd_types::SplitMix64::new(7);
        for width in [3, 7, 21, 32, 33, 63] {
            let (lo, span) = (-(1i64 << 40), ((1u64 << width) - 4) as i64);
            let mut rows: Vec<i64> = (0..5_000)
                .map(|_| lo + rng.below(span as u64) as i64)
                .collect();
            (rows[0], rows[4_999]) = (lo, lo + span);
            let exact = Column::from_payloads(DataType::Int64, &rows).unwrap();
            for chunks in [1, 3] {
                let slot = [Slot::Of(Logical::Plain(DataType::Int64), lo - 3, lo + span)];
                let row = |r: &mut usize| {
                    *r += 1;
                    [rows[*r - 1]]
                };
                let [c] = Column::fill(slot, rows.len(), chunks, |at| at.start, row).unwrap();
                assert_eq!(c.split.meta(), exact.split.meta(), "{width} bits");
                assert_eq!(c.split.approx(), exact.split.approx(), "{width} bits");
                assert_eq!(c.payloads(), rows, "{width} bits");
            }
        }
    }

    /// `from_payloads` enforces the precision it names — on the narrow
    /// path and on the wide one.
    #[test]
    fn from_payloads_enforces_its_precision() {
        let decimal = |precision, scale| DataType::Decimal { precision, scale };
        for (v, precision, scale) in [(999_999_999, 8, 5), (10i64.pow(14), 12, 2)] {
            for v in [v, -v] {
                let err = Column::from_payloads(decimal(precision, scale), &[0, v]).unwrap_err();
                assert!(matches!(err, BwdError::InvalidArgument(_)), "{err}");
                assert!(err.to_string().contains("exceeds precision"), "{err}");
            }
        }
        assert!(Column::from_payloads(decimal(8, 5), &[99_999_999i64, -99_999_999]).is_ok());
        assert!(Column::from_payloads(decimal(12, 2), &[10i64.pow(12) - 1]).is_ok());
        assert!(Column::from_payloads::<i64>(decimal(1, 0), &[]).is_ok());
    }

    /// No state of a `Column` panics on its accessors: a string column
    /// cannot be built without its dictionary, and asking a plain column
    /// for a string is a typed error.
    #[test]
    fn a_string_column_is_its_dictionary() {
        let s = Column::from_strings(&["b", "a", "b"]);
        assert_eq!(s.dtype(), DataType::Str);
        assert_eq!(s.logical().value(s.payload(0)), Value::Str("b".into()));
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
            Column::from_payloads(DataType::Bool, &[1i8]).unwrap(),
        ] {
            assert!(plain.dictionary().is_none());
            assert!(matches!(
                plain.payload_of_value(&Value::Str("a".into())),
                Err(BwdError::TypeMismatch(_))
            ));
        }
    }

    /// The extrema, the re-pack and the words do not depend on the pieces
    /// a fill packs in: every pair of byte-width boundaries as extrema, the
    /// least in the last piece and the greatest in the first, stated as
    /// they are and stated as the type's whole domain.
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
                for stated in [(lo, hi), (i64::MIN + 1, i64::MAX)] {
                    let build = |chunks| {
                        let slot = [Slot::Of(
                            Logical::Plain(DataType::Int64),
                            stated.0,
                            stated.1,
                        )];
                        let row = |r: &mut usize| {
                            *r += 1;
                            [rows[*r - 1]]
                        };
                        let [c] =
                            Column::fill(slot, rows.len(), chunks, |at| at.start, row).unwrap();
                        c
                    };
                    let one = build(1);
                    assert_eq!(one.payload_min_max(), Some((lo, hi)), "case {i}");
                    assert_eq!(one.payloads(), rows, "case {i}");
                    for chunks in [2, 3, 7] {
                        let c = build(chunks);
                        assert_eq!(c.split.meta(), one.split.meta());
                        assert_eq!(
                            c.split.approx(),
                            one.split.approx(),
                            "{lo}..={hi}, {chunks} pieces"
                        );
                    }
                }
            }
        }
    }

    /// After every public constructor a column holds the bits its extrema
    /// need — whatever type the values arrived as —, and string codes the
    /// bits of their dictionary's size.
    #[test]
    fn every_constructor_stores_its_domains_bits() {
        let check = |c: Column, lo: i64, hi: i64, how: &str| {
            let tag = format!("{how} over {lo}..={hi}");
            assert_eq!(c.payload_min_max(), Some((lo, hi)), "{tag}");
            let bits = 3 * needs(c.dtype(), lo, hi) as u64;
            assert_eq!(c.physical_bytes(), bits.div_ceil(8), "{tag}");
            assert_eq!(c.plain_bytes(), 3 * c.dtype().plain_width(), "{tag}");
            assert_eq!(c.payloads(), [lo, hi, lo], "{tag}");
        };
        for lo in BOUNDARIES {
            for hi in BOUNDARIES.into_iter().filter(|&hi| lo <= hi) {
                let rows = [lo, hi, lo];
                check(
                    Column::from_payloads(DataType::Int64, &rows).unwrap(),
                    lo,
                    hi,
                    "i64",
                );
                if hi < 10i64.pow(12) && lo > -(10i64.pow(12)) {
                    let c = Column::from_payloads(DataType::decimal(2), &rows).unwrap();
                    check(c, lo, hi, "decimal");
                }
                let (Ok(lo32), Ok(hi32)) = (i32::try_from(lo), i32::try_from(hi)) else {
                    continue;
                };
                check(Column::from_i32(vec![lo32, hi32, lo32]), lo, hi, "from_i32");
                let dates = Column::from_payloads(DataType::Date, &[lo32, hi32, lo32]).unwrap();
                check(dates, lo, hi, "dates");
            }
        }
        // String codes: the bits follow the dictionary.
        for (distinct, bits) in [(1, 0), (2, 1), (128, 7), (129, 8), (65_537, 17)] {
            let vocab: Vec<String> = (0..distinct).map(|i| format!("{i:05}")).collect();
            let c = Column::from_strings(&vocab);
            assert_eq!(c.split.meta().stored_width(), bits, "{distinct} strings");
            assert_eq!(c.payload_min_max(), Some((0, distinct as i64 - 1)));
        }
        for empty in [
            Column::from_payloads::<i64>(DataType::Int64, &[]).unwrap(),
            Column::from_strings::<&str>(&[]),
        ] {
            assert_eq!((empty.physical_bytes(), empty.payload_min_max()), (0, None));
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

    /// A fill's codes slot is the column `from_strings` builds from the
    /// spelled-out rows: the dictionary holds the entries some row uses,
    /// and each code is re-coded to its rank there, in any pieces.
    #[test]
    fn a_codes_slot_equals_from_strings_of_the_spelled_out_rows() {
        // Unordered, with a repeat and an entry no row uses.
        let vocab = ["R", "A", "N", "A", "unused"];
        let codes: Vec<i64> = (0..3_000).map(|i| [2, 0, 0, 1, 3, 2, 0][i % 7]).collect();
        let spelled: Vec<&str> = codes.iter().map(|&c| vocab[c as usize]).collect();
        let strings = Column::from_strings(&spelled);
        for chunks in [1, 3] {
            let row = |r: &mut usize| {
                *r += 1;
                [codes[*r - 1]]
            };
            let [coded] = Column::fill(
                [Slot::Codes(&vocab)],
                codes.len(),
                chunks,
                |at| at.start,
                row,
            )
            .unwrap();
            assert_eq!(coded.split.meta(), strings.split.meta());
            assert_eq!(coded.split.approx(), strings.split.approx());
            assert_eq!(coded.payloads()[..7], [1, 2, 2, 0, 0, 1, 2]);
            assert_eq!(coded.dictionary(), strings.dictionary());
            assert_eq!(coded.dictionary().unwrap().values.len(), 3);
        }
        let codes = |vals: &'static [i64]| {
            let row = move |r: &mut usize| {
                *r += 1;
                [vals[*r - 1]]
            };
            Column::fill([Slot::Codes(&vocab)], vals.len(), 1, |at| at.start, row)
        };
        assert!(codes(&[0, 5]).is_err());
        assert!(codes(&[-1]).is_err());
        let [none] = codes(&[]).unwrap();
        assert!(none.dictionary().unwrap().values.is_empty());
    }
}
