//! Bitwise decomposition & distribution (BWD) of a column.
//!
//! This implements the storage model of §II-A / Figure 2: a column's
//! encoded values are split at bit granularity into a *major* partition
//! (the approximation, destined for fast device memory) and a *minor*
//! partition (the residual, staying in host memory). The approximation is
//! prefix-compressed: a per-column *frame* (the minimum encoded value — the
//! "base for the prefix compression" the paper stores in its BAT metadata)
//! is factored out, and remaining shared leading bits are removed via
//! [`PrefixBase`]. The approximation is bit-packed; the residual is
//! *modeled* as bit-packed on the host — [`DecomposedColumn::host_bytes`],
//! which every bill and report charges — and *read* from the plain column
//! the catalog keeps anyway ([`DecompositionMeta::residual_of_payload`]):
//! this host holds each bit once.
//!
//! The number of device-resident bits follows the paper's `bwdecompose(A,
//! 24)` convention: it counts major bits of the column's *physical* width,
//! so a 32-bit attribute decomposed with `device_bits = 24` keeps
//! `resbits = 8` minor bits on the host.
//!
//! The struct is split in two: [`DecompositionMeta`] carries the pure
//! translation logic (predicate relaxation targets, granule error bounds,
//! reconstruction), while [`DecomposedColumn`] couples it with the packed
//! approximation and the shared plain storage. Execution layers move the
//! approximation into device memory and keep the rest on the host — see
//! `DecomposedColumn::into_parts`.

use crate::bitpack::{BitPackedVec, PackCursor, DECODE_BLOCK};
use crate::column::{extrema, narrowed, Column, ColumnData};
use crate::encoding::{decode, encode, physical_bits};
use crate::prefix::{OutOfRange, PrefixBase, PrefixGranularity};
use crate::with_slice;
use bwd_types::bits::{low_mask, split_bits};
use bwd_types::{BwdError, DataType, Result};
use std::sync::Arc;

/// Rows from which a decomposition fans out over the host's cores; a
/// shorter column is split on the calling thread.
const PARALLEL_ROWS: usize = 1 << 20;

/// How a column is to be decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompositionSpec {
    /// Major bits kept on the device, counted against the physical width
    /// (`bwdecompose(col, device_bits)`). Values `>= physical_bits` keep
    /// the whole column device-resident (residual width 0).
    pub device_bits: u32,
    /// Subtract the column minimum before splitting (frame-of-reference).
    /// This is what lets cross-zero domains (e.g. longitudes) compress.
    pub frame_of_reference: bool,
    /// Granularity of the leading-bit compression on the approximation.
    pub granularity: PrefixGranularity,
}

impl DecompositionSpec {
    /// The common case: `device_bits` major bits, full compression.
    pub fn with_device_bits(device_bits: u32) -> Self {
        DecompositionSpec {
            device_bits,
            frame_of_reference: true,
            granularity: PrefixGranularity::Bit,
        }
    }

    /// Keep the entire column device-resident (no residual).
    pub fn all_device() -> Self {
        Self::with_device_bits(64)
    }

    /// Disable all compression (ablation baseline).
    pub fn uncompressed(device_bits: u32) -> Self {
        DecompositionSpec {
            device_bits,
            frame_of_reference: false,
            granularity: PrefixGranularity::None,
        }
    }
}

/// The translation metadata of a decomposed column: everything needed to
/// map between payloads, encoded values, stored approximations and
/// residuals — without owning the data partitions themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompositionMeta {
    dtype: DataType,
    physical_bits: u32,
    resbits: u32,
    /// Subtracted from every encoded value before splitting.
    frame: u64,
    /// Largest normalized (frame-subtracted) value present.
    max_norm: u64,
    /// Leading-bit compression of the major partition.
    prefix: PrefixBase,
}

impl DecompositionMeta {
    /// Logical type of the column.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Physical width in bits of the column's plain representation.
    #[inline]
    pub fn physical_bits(&self) -> u32 {
        self.physical_bits
    }

    /// Residual width in bits (0 means fully device-resident).
    #[inline]
    pub fn resbits(&self) -> u32 {
        self.resbits
    }

    /// Width in bits of a stored approximation element.
    #[inline]
    pub fn stored_width(&self) -> u32 {
        self.prefix.stored_width()
    }

    /// Whether every significant bit is on the device (no refinement
    /// needed to reconstruct exact values).
    #[inline]
    pub fn fully_device_resident(&self) -> bool {
        self.resbits == 0
    }

    /// `payload`, encoded and frame-subtracted: what is split at `resbits`.
    /// `encode(p, dtype) == (p as u64 & phys_mask) ^ sign_flip`.
    #[inline]
    fn normalized(&self, payload: i64) -> u64 {
        let encoded =
            (payload as u64 & low_mask(self.physical_bits)) ^ (1 << (self.physical_bits - 1));
        encoded - self.frame
    }

    /// The residual (minor) bits of a payload of this column — the host
    /// partition is this function of the plain column, never a second copy.
    #[inline]
    pub fn residual_of_payload(&self, payload: i64) -> u64 {
        self.normalized(payload) & low_mask(self.resbits)
    }

    /// Exact payload from a (stored approximation, residual) pair —
    /// Algorithm 2's bitwise concatenation `appr +bw res`.
    #[inline]
    pub fn payload_from_parts(&self, stored: u64, res: u64) -> i64 {
        let norm = (self.prefix.decompress(stored) << self.resbits) | res;
        decode(norm + self.frame, self.dtype)
    }

    /// The inclusive *encoded* interval a stored approximation covers
    /// (every row with this approximation has its encoded value inside).
    #[inline]
    pub fn granule_encoded(&self, stored: u64) -> (u64, u64) {
        let base_norm = self.prefix.decompress(stored) << self.resbits;
        // Clamp to the column's actual maximum: the granule may extend past
        // it, but no stored value does, and an unclamped bound could leave
        // the type's encoded domain (and wrap on decode).
        let hi_norm = (base_norm | low_mask(self.resbits)).min(self.max_norm);
        (base_norm + self.frame, hi_norm + self.frame)
    }

    /// The inclusive *payload* interval a stored approximation covers —
    /// the per-tuple error bound the A&R operators propagate (§IV-F/G).
    #[inline]
    pub fn granule_payload(&self, stored: u64) -> (i64, i64) {
        let (lo, hi) = self.granule_encoded(stored);
        (decode(lo, self.dtype), decode(hi, self.dtype))
    }

    /// Encode a payload constant into the column's encoded domain.
    #[inline]
    pub fn encode_payload(&self, payload: i64) -> u64 {
        encode(payload, self.dtype)
    }

    /// Translate an inclusive *encoded* range `[enc_lo, enc_hi]` into
    /// inclusive bounds over the stored approximation domain.
    ///
    /// Scanning the approximation with the returned bounds yields a
    /// provable superset of the rows whose exact encoded value falls in the
    /// range — this realizes the predicate relaxation `f(x)` of §IV-B.
    /// `None` means the range cannot contain any stored value (the
    /// approximate selection is empty without touching data).
    pub fn stored_bounds(&self, enc_lo: u64, enc_hi: u64) -> Option<(u64, u64)> {
        if enc_hi < enc_lo || enc_hi < self.frame {
            return None;
        }
        let norm_lo = enc_lo.saturating_sub(self.frame);
        if norm_lo > self.max_norm {
            return None;
        }
        let norm_hi = (enc_hi - self.frame).min(self.max_norm);
        let maj_lo = norm_lo >> self.resbits;
        let maj_hi = norm_hi >> self.resbits;
        let lo = match self.prefix.project(maj_lo) {
            Ok(a) => a,
            Err(OutOfRange::Below) => 0,
            Err(OutOfRange::Above) => return None,
        };
        let hi = match self.prefix.project(maj_hi) {
            Ok(a) => a,
            Err(OutOfRange::Above) => low_mask(self.stored_width()),
            Err(OutOfRange::Below) => return None,
        };
        Some((lo, hi))
    }

    /// Like [`DecompositionMeta::stored_bounds`] but over payloads.
    pub fn stored_bounds_payload(&self, lo: i64, hi: i64) -> Option<(u64, u64)> {
        self.stored_bounds(self.encode_payload(lo), self.encode_payload(hi))
    }

    /// Worst-case number of payload values that share one approximation
    /// granule (`2^resbits`): the resolution of the approximation, used by
    /// the optimizer's selectivity reasoning and reported in diagnostics.
    #[inline]
    pub fn granule_size(&self) -> u64 {
        1u64 << self.resbits.min(63)
    }
}

/// A bitwise-decomposed column: the device-destined approximation, and
/// the plain column it was split from standing in for the host-resident
/// residual, with the metadata to reconstruct exact values and to
/// translate predicates into the stored approximation domain.
#[derive(Debug, Clone)]
pub struct DecomposedColumn {
    meta: DecompositionMeta,
    /// Stored approximations, `meta.stored_width()` bits each.
    approx: BitPackedVec,
    /// The plain payloads, shared with the catalog's column: row `i`'s
    /// residual is `meta.residual_of_payload` of row `i` here.
    plain: Arc<ColumnData>,
}

/// Pack the stored approximations of `rows` into the word run their
/// elements occupy. `rows` starts on a [`DECODE_BLOCK`] boundary of the
/// column, so the run starts on a word boundary.
fn pack_approx<T: Copy + Into<i64>>(meta: &DecompositionMeta, rows: &[T], approx: &mut [u64]) {
    let mut approx = PackCursor::new(meta.stored_width(), approx);
    for &payload in rows {
        let (major, _) = split_bits(meta.normalized(payload.into()), meta.resbits);
        approx.push(meta.prefix.compress(major));
    }
    approx.finish();
}

/// How many contiguous chunks a column of `rows` rows is split in.
fn chunk_count(rows: usize) -> usize {
    if rows < PARALLEL_ROWS {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The metadata and packed approximation of `rows` (payloads in any
/// integer width) whose payload minimum and maximum are `extrema`, packed
/// in `chunks` contiguous pieces.
///
/// Frame and prefix need the extrema only: the encoding preserves order,
/// so the encoded extrema are the encoded payload extrema, and the high
/// bits a set shares are the high bits its extrema share. The rows
/// themselves are read once. Pieces are cut at multiples of
/// [`DECODE_BLOCK`] rows — word boundaries at every width — so each worker
/// fills its own range of the output buffer and the words do not depend on
/// `chunks`.
fn split<T: Copy + Into<i64> + Sync>(
    rows: &[T],
    extrema: Option<(i64, i64)>,
    dtype: DataType,
    spec: &DecompositionSpec,
    chunks: usize,
) -> (DecompositionMeta, BitPackedVec) {
    let w = physical_bits(dtype);
    let resbits = w - spec.device_bits.min(w);
    let (min_enc, max_enc) =
        extrema.map_or((0, 0), |(lo, hi)| (encode(lo, dtype), encode(hi, dtype)));
    let frame = if spec.frame_of_reference { min_enc } else { 0 };
    let max_norm = max_enc - frame;
    let extrema_majors = [
        split_bits(min_enc - frame, resbits).0,
        split_bits(max_norm, resbits).0,
    ];
    let prefix = PrefixBase::analyze(&extrema_majors, w - resbits, spec.granularity);
    let meta = DecompositionMeta {
        dtype,
        physical_bits: w,
        resbits,
        frame,
        max_norm,
        prefix,
    };

    let mut approx = BitPackedVec::zeroed(prefix.stored_width(), rows.len());
    let blocks = rows.len().div_ceil(chunks).div_ceil(DECODE_BLOCK);
    std::thread::scope(|scope| {
        let (mut rows, mut approx) = (rows, approx.words_mut());
        while rows.len() > blocks * DECODE_BLOCK {
            let (head, tail) = rows.split_at(blocks * DECODE_BLOCK);
            let (approx_head, approx_tail) =
                approx.split_at_mut(blocks * prefix.stored_width() as usize);
            scope.spawn(move || pack_approx(&meta, head, approx_head));
            (rows, approx) = (tail, approx_tail);
        }
        pack_approx(&meta, rows, approx);
    });
    (meta, approx)
}

impl DecomposedColumn {
    /// Decompose `payloads` of logical type `dtype` according to `spec`,
    /// over its own narrowest-width copy of them.
    pub fn decompose(payloads: &[i64], dtype: DataType, spec: &DecompositionSpec) -> Result<Self> {
        let min_max = extrema(payloads);
        let plain = narrowed(payloads, min_max).unwrap_or_else(|| payloads.to_vec().into());
        let (plain, chunks) = (Arc::new(plain), chunk_count(payloads.len()));
        Ok(Self::in_chunks(plain, min_max, dtype, spec, chunks))
    }

    /// Decompose a stored column according to `spec`, reading its physical
    /// storage in place — no widened copy, and shared from here on — and
    /// taking the extrema from [`Column::payload_min_max`], which the
    /// binder asks for anyway.
    pub fn decompose_column(col: &Column, spec: &DecompositionSpec) -> Result<Self> {
        Ok(Self::column_in_chunks(col, spec, chunk_count(col.len())))
    }

    fn column_in_chunks(col: &Column, spec: &DecompositionSpec, chunks: usize) -> Self {
        let plain = Arc::clone(col.shared_data());
        Self::in_chunks(plain, col.payload_min_max(), col.dtype(), spec, chunks)
    }

    fn in_chunks(
        plain: Arc<ColumnData>,
        extrema: Option<(i64, i64)>,
        dtype: DataType,
        spec: &DecompositionSpec,
        chunks: usize,
    ) -> Self {
        let (meta, approx) =
            with_slice!(&*plain, rows => split(rows, extrema, dtype, spec, chunks));
        DecomposedColumn {
            meta,
            approx,
            plain,
        }
    }

    /// The translation metadata.
    #[inline]
    pub fn meta(&self) -> &DecompositionMeta {
        &self.meta
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.plain.len()
    }

    /// Whether the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.plain.is_empty()
    }

    /// Logical type of the column.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.meta.dtype
    }

    /// Residual width in bits (0 means fully device-resident).
    #[inline]
    pub fn resbits(&self) -> u32 {
        self.meta.resbits
    }

    /// Physical width in bits of the column's plain representation.
    #[inline]
    pub fn physical_bits(&self) -> u32 {
        self.meta.physical_bits
    }

    /// Width in bits of a stored approximation element.
    #[inline]
    pub fn stored_width(&self) -> u32 {
        self.meta.stored_width()
    }

    /// Whether every significant bit is on the device.
    #[inline]
    pub fn fully_device_resident(&self) -> bool {
        self.meta.fully_device_resident()
    }

    /// The bit-packed approximation partition (device-destined).
    #[inline]
    pub fn approx(&self) -> &BitPackedVec {
        &self.approx
    }

    /// The plain payloads the residual is read from, as shared.
    #[inline]
    pub fn plain(&self) -> &Arc<ColumnData> {
        &self.plain
    }

    /// Bytes the approximation occupies on the device.
    #[inline]
    pub fn device_bytes(&self) -> u64 {
        self.approx.packed_bytes()
    }

    /// Bytes the residual occupies on the modeled host: bit-packed, as the
    /// paper stores it (here the bits are read from the plain column).
    #[inline]
    pub fn host_bytes(&self) -> u64 {
        (self.len() as u64 * self.meta.resbits as u64).div_ceil(8)
    }

    /// Stored approximation of row `i`.
    #[inline]
    pub fn stored_of_row(&self, i: usize) -> u64 {
        self.approx.get(i)
    }

    /// Residual payload of row `i`.
    #[inline]
    pub fn residual_of_row(&self, i: usize) -> u64 {
        self.meta.residual_of_payload(self.plain.get(i))
    }

    /// Exact payload of row `i`.
    #[inline]
    pub fn reconstruct_payload(&self, i: usize) -> i64 {
        self.meta
            .payload_from_parts(self.approx.get(i), self.residual_of_row(i))
    }

    /// Exact payload from a (stored approximation, residual) pair.
    #[inline]
    pub fn payload_from_parts(&self, stored: u64, res: u64) -> i64 {
        self.meta.payload_from_parts(stored, res)
    }

    /// See [`DecompositionMeta::granule_encoded`].
    #[inline]
    pub fn granule_encoded(&self, stored: u64) -> (u64, u64) {
        self.meta.granule_encoded(stored)
    }

    /// See [`DecompositionMeta::granule_payload`].
    #[inline]
    pub fn granule_payload(&self, stored: u64) -> (i64, i64) {
        self.meta.granule_payload(stored)
    }

    /// See [`DecompositionMeta::encode_payload`].
    #[inline]
    pub fn encode_payload(&self, payload: i64) -> u64 {
        self.meta.encode_payload(payload)
    }

    /// See [`DecompositionMeta::stored_bounds`].
    pub fn stored_bounds(&self, enc_lo: u64, enc_hi: u64) -> Option<(u64, u64)> {
        self.meta.stored_bounds(enc_lo, enc_hi)
    }

    /// See [`DecompositionMeta::stored_bounds_payload`].
    pub fn stored_bounds_payload(&self, lo: i64, hi: i64) -> Option<(u64, u64)> {
        self.meta.stored_bounds_payload(lo, hi)
    }

    /// See [`DecompositionMeta::granule_size`].
    #[inline]
    pub fn granule_size(&self) -> u64 {
        self.meta.granule_size()
    }

    /// Split into `(meta, approximation, plain payloads)` — the execution
    /// layer moves the approximation into device memory and keeps the rest.
    pub fn into_parts(self) -> (DecompositionMeta, BitPackedVec, Arc<ColumnData>) {
        (self.meta, self.approx, self.plain)
    }

    /// Validate a spec against a type without decomposing (catalog checks).
    pub fn validate_spec(dtype: DataType, spec: &DecompositionSpec) -> Result<()> {
        if spec.device_bits == 0 && physical_bits(dtype) > 0 {
            // All-residual columns are legal in the model but pointless:
            // the approximation would carry zero information, so every
            // operator would degenerate to a full CPU scan.
            return Err(BwdError::InvalidArgument(
                "device_bits = 0 stores no approximation; use at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::width_cases;
    use crate::ColumnData;
    use proptest::prelude::*;

    fn ints(vals: &[i64], device_bits: u32) -> DecomposedColumn {
        DecomposedColumn::decompose(
            vals,
            DataType::Int32,
            &DecompositionSpec::with_device_bits(device_bits),
        )
        .unwrap()
    }

    /// Both partitions, packed: what the two-cursor splitter this module
    /// had before the residual became a view produced.
    struct Partitions {
        meta: DecompositionMeta,
        approx: BitPackedVec,
        residual: BitPackedVec,
    }

    /// The two-pass, `push`-per-element decomposition this module had
    /// before the one-pass kernel — kept as the oracle.
    fn decompose_by_pushing(
        payloads: &[i64],
        dtype: DataType,
        spec: &DecompositionSpec,
    ) -> Partitions {
        let w = physical_bits(dtype);
        let resbits = w - spec.device_bits.min(w);
        let mut min_enc = u64::MAX;
        let mut max_enc = 0u64;
        for &p in payloads {
            let e = encode(p, dtype);
            min_enc = min_enc.min(e);
            max_enc = max_enc.max(e);
        }
        if payloads.is_empty() {
            min_enc = 0;
            max_enc = 0;
        }
        let frame = if spec.frame_of_reference { min_enc } else { 0 };
        let max_norm = max_enc - frame;
        let extrema_majors = [(min_enc - frame) >> resbits, max_norm >> resbits];
        let prefix = PrefixBase::analyze(&extrema_majors, w - resbits, spec.granularity);
        let mut approx = BitPackedVec::new(prefix.stored_width());
        let mut residual = BitPackedVec::new(resbits);
        for &p in payloads {
            let norm = encode(p, dtype) - frame;
            approx.push(prefix.compress(norm >> resbits));
            residual.push(norm & low_mask(resbits));
        }
        Partitions {
            meta: DecompositionMeta {
                dtype,
                physical_bits: w,
                resbits,
                frame,
                max_norm,
                prefix,
            },
            approx,
            residual,
        }
    }

    /// `got` is `want` with the residual a view: same metadata, same
    /// approximation words, same modeled bytes on both sides, and row by
    /// row the residual the oracle packed and the payload it came from.
    fn assert_is_the_partition(
        got: &DecomposedColumn,
        want: &Partitions,
        payloads: &[i64],
        case: &str,
    ) {
        assert_eq!(got.meta(), &want.meta, "{case}");
        assert_eq!(got.approx(), &want.approx, "{case}");
        assert_eq!(got.len(), payloads.len(), "{case}");
        assert_eq!(got.device_bytes(), want.approx.packed_bytes(), "{case}");
        assert_eq!(got.host_bytes(), want.residual.packed_bytes(), "{case}");
        for (i, &p) in payloads.iter().enumerate() {
            assert_eq!(
                got.residual_of_row(i),
                want.residual.get(i),
                "{case} row {i}"
            );
            assert_eq!(got.reconstruct_payload(i), p, "{case} row {i}");
        }
    }

    /// A column of `len` rows of `dtype` over a random sub-domain of it.
    fn random_column(dtype: DataType, len: usize, rng: &mut bwd_types::SplitMix64) -> Column {
        let (lo, span) = match dtype {
            DataType::Int64 => (-(1i64 << 40), 1u64 << (1 + rng.below(41))),
            DataType::Decimal { .. } => (-40_000_000, 1 << (1 + rng.below(26))),
            _ => (-(1i64 << 30), 1 << (1 + rng.below(31))),
        };
        let lo = lo + rng.below(1 << 20) as i64;
        let mut draw = |_| lo + rng.below(span) as i64;
        match dtype {
            DataType::Str => {
                let rows: Vec<String> = (0..len).map(|i| format!("s{}", draw(i) % 97)).collect();
                Column::from_strings(&rows)
            }
            _ if dtype.plain_width() == 8 => {
                Column::from_data(dtype, ColumnData::I64((0..len).map(draw).collect())).unwrap()
            }
            _ => {
                let narrow = (0..len).map(|i| draw(i) as i32).collect();
                Column::from_data(dtype, ColumnData::I32(narrow)).unwrap()
            }
        }
    }

    /// The column entry point, at every chunk count, and the slice entry
    /// point build what the push loop builds from the widened copy:
    /// metadata, every approximation word, and — as a view — every
    /// residual; and it is exact.
    #[test]
    fn column_entry_point_equals_the_slice_one_and_the_push_loop() {
        let mut rng = bwd_types::SplitMix64::new(0xDEC0);
        let dtypes = [
            DataType::Int32,
            DataType::Int64,
            DataType::Date,
            DataType::Str,
            DataType::Decimal {
                precision: 8,
                scale: 5,
            },
            DataType::Decimal {
                precision: 12,
                scale: 2,
            },
        ];
        for dtype in dtypes {
            for len in [0, 1, 64, 449, 450 + rng.below(400) as usize] {
                let col = random_column(dtype, len, &mut rng);
                let payloads = col.payloads();
                for device_bits in [1, 8, 24, 31, 32, 64] {
                    let specs = [
                        DecompositionSpec::with_device_bits(device_bits),
                        DecompositionSpec::uncompressed(device_bits),
                    ];
                    for spec in &specs {
                        let case = format!("{dtype} len={len} {spec:?}");
                        let oracle = decompose_by_pushing(&payloads, dtype, spec);
                        let sliced = DecomposedColumn::decompose(&payloads, dtype, spec).unwrap();
                        assert_is_the_partition(&sliced, &oracle, &payloads, &case);
                        for chunks in [1, 2, 3, 7] {
                            let got = DecomposedColumn::column_in_chunks(&col, spec, chunks);
                            let case = format!("{case} chunks={chunks}");
                            assert_is_the_partition(&got, &oracle, &payloads, &case);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The view *is* the partition, and width is invisible to it: a
        /// column of any type stored in 1, 2 (signed or not), 3, 4 or 8
        /// bytes (negative, empty, one row, extrema on the width
        /// boundaries — ±2^15, 2^16, ±2^23 among them), built from
        /// wide or from narrow input, decomposes under every kind of spec,
        /// in one piece and in three, into the metadata and approximation
        /// words of the widened payloads; and its residuals, read from the
        /// plain storage it shares, are the ones the two-cursor splitter
        /// packed.
        #[test]
        fn the_view_is_the_partition_at_every_width(
            ty in 0usize..width_cases::TYPES.len(),
            lo_at in 0usize..width_cases::BOUNDARIES.len(),
            hi_at in 0usize..width_cases::BOUNDARIES.len(),
            len in 0usize..1200,
            seed: u64,
        ) {
            let case = width_cases::build(ty, lo_at, hi_at, len, seed);
            let bits = physical_bits(case.dtype);
            for spec in [
                DecompositionSpec::with_device_bits(bits - 8),
                DecompositionSpec::with_device_bits(8),
                DecompositionSpec::all_device(),
                DecompositionSpec::uncompressed(bits - 8),
                DecompositionSpec {
                    frame_of_reference: false,
                    ..DecompositionSpec::with_device_bits(bits - 8)
                },
            ] {
                let want = decompose_by_pushing(&case.payloads, case.dtype, &spec);
                for col in [&case.wide, &case.narrow] {
                    for chunks in [1, 3] {
                        let got = DecomposedColumn::column_in_chunks(col, &spec, chunks);
                        let tag = format!("{} {}-byte {spec:?}", case.dtype, col.data().width());
                        assert_is_the_partition(&got, &want, &case.payloads, &tag);
                        prop_assert!(Arc::ptr_eq(got.plain(), col.shared_data()), "{}", tag);
                    }
                }
            }
        }
    }

    #[test]
    fn paper_convention_24_8() {
        // bwdecompose(A, 24) on a 32-bit attribute: 24 device bits, 8 residual.
        let vals: Vec<i64> = (0..100).collect();
        let d = ints(&vals, 24);
        assert_eq!(d.resbits(), 8);
        assert!(!d.fully_device_resident());
        // 0..99 normalized: max_norm = 99, majors all 0 -> stored width 0.
        assert_eq!(d.stored_width(), 0);
        assert_eq!(d.device_bytes(), 0);
        assert_eq!(d.host_bytes(), 100); // 8 bits * 100 rows
    }

    #[test]
    fn fully_device_resident_small_domain() {
        // TPC-H l_quantity: values 1..=50 need 6 bits; kept whole on device.
        let vals: Vec<i64> = (0..500).map(|i| 1 + (i % 50)).collect();
        let d = ints(&vals, 32);
        assert!(d.fully_device_resident());
        assert_eq!(d.stored_width(), 6);
        assert_eq!(d.host_bytes(), 0);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(d.reconstruct_payload(i), v);
        }
    }

    #[test]
    fn cross_zero_domain_compresses_via_frame() {
        // Longitudes scaled by 1e5: -12.62427 .. 29.64975 (paper §VI-C).
        let mut vals: Vec<i64> = vec![-1_262_427, 0, 1_500_000, 2_964_975];
        vals.extend((0..1000).map(|i| -1_262_427 + i * 4227));
        let dtype = DataType::Decimal {
            precision: 8,
            scale: 5,
        };
        let d = DecomposedColumn::decompose(&vals, dtype, &DecompositionSpec::with_device_bits(24))
            .unwrap();
        assert_eq!(d.resbits(), 8);
        // Range 4227402 needs 23 bits; major part 23-8 = 15 bits.
        assert_eq!(d.stored_width(), 15);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(d.reconstruct_payload(i), v);
        }
        // Device volume: 15 bits/row vs 32 plain -> >50% smaller.
        assert!(d.device_bytes() * 2 < vals.len() as u64 * 4);
    }

    #[test]
    fn without_frame_of_reference_cross_zero_does_not_compress() {
        let vals: Vec<i64> = vec![-1_262_427, 2_964_975];
        let d = DecomposedColumn::decompose(
            &vals,
            DataType::Int32,
            &DecompositionSpec {
                device_bits: 24,
                frame_of_reference: false,
                granularity: PrefixGranularity::Bit,
            },
        )
        .unwrap();
        // Sign-flipped values straddle 0x8000_0000: no shared prefix.
        assert_eq!(d.stored_width(), 24);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(d.reconstruct_payload(i), v);
        }
    }

    #[test]
    fn granule_bounds_contain_exact_value() {
        let vals: Vec<i64> = (0..2000).map(|i| i * 13 % 9999).collect();
        let d = ints(&vals, 24);
        for (i, &v) in vals.iter().enumerate() {
            let (lo, hi) = d.granule_payload(d.stored_of_row(i));
            assert!(lo <= v && v <= hi, "granule [{lo},{hi}] must contain {v}");
            assert!(hi - lo < d.granule_size() as i64);
        }
    }

    #[test]
    fn stored_bounds_yield_superset() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 31) % 50_000).collect();
        let d = ints(&vals, 22); // 10 residual bits -> granule 1024
        let (plo, phi) = (10_000i64, 20_000i64);
        let (slo, shi) = d.stored_bounds_payload(plo, phi).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            let s = d.stored_of_row(i);
            if v >= plo && v <= phi {
                assert!(
                    s >= slo && s <= shi,
                    "row {i} value {v} must be a candidate"
                );
            }
        }
    }

    #[test]
    fn stored_bounds_empty_outside_domain() {
        let vals: Vec<i64> = (100..200).collect();
        let d = ints(&vals, 28);
        assert_eq!(d.stored_bounds_payload(300, 400), None);
        assert_eq!(d.stored_bounds_payload(0, 50), None);
        assert_eq!(d.stored_bounds_payload(50, 20), None); // inverted
        assert!(d.stored_bounds_payload(150, 160).is_some());
    }

    #[test]
    fn stored_bounds_clamp_partial_overlap() {
        let vals: Vec<i64> = (100..200).collect();
        let d = ints(&vals, 28);
        // Range reaching below / above the domain clamps to full coverage.
        let full = d.stored_bounds_payload(0, 1000).unwrap();
        let all_stored: Vec<u64> = (0..d.len()).map(|i| d.stored_of_row(i)).collect();
        let max_stored = *all_stored.iter().max().unwrap();
        let min_stored = *all_stored.iter().min().unwrap();
        assert!(full.0 <= min_stored && full.1 >= max_stored);
    }

    #[test]
    fn empty_column() {
        let d = ints(&[], 24);
        assert!(d.is_empty());
        assert_eq!(d.device_bytes(), 0);
        assert_eq!(d.stored_bounds_payload(0, 10), None);
    }

    #[test]
    fn validate_spec_rejects_zero_device_bits() {
        assert!(DecomposedColumn::validate_spec(
            DataType::Int32,
            &DecompositionSpec::with_device_bits(0)
        )
        .is_err());
        assert!(DecomposedColumn::validate_spec(
            DataType::Int32,
            &DecompositionSpec::with_device_bits(24)
        )
        .is_ok());
    }

    #[test]
    fn into_parts_preserves_translation() {
        let vals: Vec<i64> = (0..100).map(|i| i * 37 % 1000).collect();
        let d = ints(&vals, 26);
        let expect: Vec<i64> = (0..100).map(|i| d.reconstruct_payload(i)).collect();
        let (meta, approx, plain) = d.into_parts();
        for (i, &want) in expect.iter().enumerate() {
            let res = meta.residual_of_payload(plain.get(i));
            assert_eq!(meta.payload_from_parts(approx.get(i), res), want);
        }
    }

    proptest! {
        #[test]
        fn prop_reconstruct_roundtrip(
            vals in proptest::collection::vec(-1_000_000i64..1_000_000, 1..300),
            device_bits in 1u32..=32,
        ) {
            let d = ints(&vals, device_bits);
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(d.reconstruct_payload(i), v);
            }
        }

        #[test]
        fn prop_stored_bounds_superset(
            vals in proptest::collection::vec(-10_000i64..10_000, 1..200),
            device_bits in 20u32..=32,
            lo in -12_000i64..12_000,
            len in 0i64..8_000,
        ) {
            let d = ints(&vals, device_bits);
            let hi = lo + len;
            let bounds = d.stored_bounds_payload(lo, hi);
            for (i, &v) in vals.iter().enumerate() {
                if v >= lo && v <= hi {
                    let (slo, shi) = bounds.expect("range with matches must have bounds");
                    let s = d.stored_of_row(i);
                    prop_assert!(s >= slo && s <= shi);
                }
            }
        }

        #[test]
        fn prop_granule_contains_value(
            vals in proptest::collection::vec(any::<i32>(), 1..200),
            device_bits in 1u32..=32,
        ) {
            let vals: Vec<i64> = vals.into_iter().map(|v| v as i64).collect();
            let d = ints(&vals, device_bits);
            for (i, &v) in vals.iter().enumerate() {
                let (lo, hi) = d.granule_payload(d.stored_of_row(i));
                prop_assert!(lo <= v && v <= hi);
            }
        }
    }
}
