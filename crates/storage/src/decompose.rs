//! Bitwise decomposition & distribution (BWD) of a column.
//!
//! This implements the storage model of §II-A / Figure 2: a column's
//! encoded values are split at bit granularity into a *major* partition
//! (the approximation, destined for fast device memory) and a *minor*
//! partition (the residual, staying in host memory). The approximation is
//! prefix-compressed: a per-column *frame* (the minimum encoded value — the
//! "base for the prefix compression" the paper stores in its BAT metadata)
//! is factored out, and remaining shared leading bits are removed via
//! [`PrefixBase`]. Both partitions are bit-packed, by one pass with two
//! cursors, and together they are the column: the catalog drops the plain
//! payloads once a column is split, so this host holds each bit once.
//!
//! The number of device-resident bits follows the paper's `bwdecompose(A,
//! 24)` convention: it counts major bits of the column's *physical* width,
//! so a 32-bit attribute decomposed with `device_bits = 24` keeps
//! `resbits = 8` minor bits on the host.
//!
//! The struct is split in two: [`DecompositionMeta`] carries the pure
//! translation logic (predicate relaxation targets, granule error bounds,
//! reconstruction), while [`DecomposedColumn`] couples it with the two
//! packed partitions, shared by the catalog's column and the binding that
//! moves the approximation into device memory — see
//! `DecomposedColumn::into_parts`.

use crate::bitpack::{unpack, words_for, BitPackedVec, DECODE_BLOCK};
use crate::encoding::{decode, encode, encoded_bounds, physical_bits};
use crate::pages::release;
use crate::pieces::{chunk_count, cuts, in_pieces};
use crate::prefix::{OutOfRange, PrefixBase, PrefixGranularity};
use bwd_types::bits::{low_mask, split_bits};
use bwd_types::{BwdError, DataType, Result};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

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
    /// How `spec` splits a `dtype` column of payload extrema `extrema`,
    /// known before a row is read: the encoding preserves order, so the
    /// high bits a set shares are the high bits its extrema share.
    pub fn new(dtype: DataType, extrema: Option<(i64, i64)>, spec: &DecompositionSpec) -> Self {
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
        DecompositionMeta {
            dtype,
            physical_bits: w,
            resbits,
            frame,
            max_norm,
            prefix: PrefixBase::analyze(&extrema_majors, w - resbits, spec.granularity),
        }
    }

    /// Logical type of the column.
    #[inline]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Subtracted from every encoded value before splitting.
    #[inline]
    pub(crate) fn frame(&self) -> u64 {
        self.frame
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

    /// The encoded value a (stored approximation, residual) pair
    /// concatenates to — Algorithm 2's `appr +bw res` — with the frame
    /// added back.
    #[inline]
    fn encoded_of_parts(&self, stored: u64, res: u64) -> u64 {
        ((self.prefix.decompress(stored) << self.resbits) | res) + self.frame
    }

    /// Exact payload from a (stored approximation, residual) pair.
    #[inline]
    pub fn payload_from_parts(&self, stored: u64, res: u64) -> i64 {
        decode(self.encoded_of_parts(stored, res), self.dtype)
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

    /// Translate an inclusive *payload* range into inclusive bounds over
    /// the stored approximation domain. The range is clamped to the type's
    /// payload domain first ([`encoded_bounds`]): a literal past it
    /// neither wraps nor matches.
    ///
    /// Scanning the approximation with the returned bounds yields a
    /// provable superset of the rows whose exact payload falls in the
    /// range — this realizes the predicate relaxation `f(x)` of §IV-B.
    /// `None` means the range cannot contain any stored value (the
    /// approximate selection is empty without touching data).
    pub fn stored_bounds_payload(&self, lo: i64, hi: i64) -> Option<(u64, u64)> {
        let (enc_lo, enc_hi) = encoded_bounds(lo, hi, self.dtype)?;
        let norm_lo = enc_lo.saturating_sub(self.frame);
        if enc_hi < self.frame || norm_lo > self.max_norm {
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
}

/// A bitwise-decomposed column: the device-destined approximation and the
/// host-resident residual, both bit-packed, with the metadata to
/// reconstruct exact values and to translate predicates into the stored
/// approximation domain. A clone shares both partitions.
#[derive(Debug, Clone)]
pub struct DecomposedColumn {
    meta: DecompositionMeta,
    /// Stored approximations, `meta.stored_width()` bits each.
    approx: Arc<BitPackedVec>,
    /// Residuals, `meta.resbits()` bits each.
    residual: Arc<BitPackedVec>,
}

/// Encoded values of rows `start..start + out.len()` of the split `meta`
/// describes, from its two runs' words and widths: both decoded a
/// [`DECODE_BLOCK`] at a time, word by word, and concatenated.
fn decode_parts(
    meta: &DecompositionMeta,
    approx: (&[u64], u32),
    residual: (&[u64], u32),
    start: usize,
    out: &mut [u64],
) {
    // `encoded_of_parts`, its prefix branch taken once: a stored value is
    // below `2^stored_width`, so or-ing the prefix restores it.
    let high = meta.prefix.decompress(0);
    let mut res = [0u64; DECODE_BLOCK];
    for (k, out) in out.chunks_mut(DECODE_BLOCK).enumerate() {
        let at = start + k * DECODE_BLOCK;
        unpack(approx.0, approx.1, at, out);
        unpack(residual.0, residual.1, at, &mut res[..out.len()]);
        for (e, &r) in out.iter_mut().zip(&res) {
            *e = (((*e | high) << meta.resbits) | r) + meta.frame;
        }
    }
}

/// The decomposition by `meta` of `len` rows, packed in the pieces [`cuts`]
/// cuts for `chunks`: `reader(rows)`, called once a piece, front to back,
/// hands the piece's worker what reads those rows' encoded values. Each
/// worker writes each word of its range of both runs once, whatever `chunks`.
pub(crate) fn split<F: FnMut(usize, &mut [u64]) + Send>(
    meta: DecompositionMeta,
    len: usize,
    chunks: usize,
    mut reader: impl FnMut(Range<usize>) -> F,
) -> DecomposedColumn {
    let (widths, meta_ref) = ([meta.stored_width(), meta.resbits], &meta);
    let Ok([approx, residual]) = BitPackedVec::write_once(widths, len, false, |[mut a, mut r]| {
        let pieces = cuts(len, chunks).map(|rows| {
            let (a, r) = (a.take_rows(rows.len()), r.take_rows(rows.len()));
            (reader(rows.clone()), rows, a, r)
        });
        // Each piece packs both partitions through one cursor each, reading
        // its rows' encoded values a block at a time: a piece starts on a
        // block boundary, so both cursors start on a word boundary.
        in_pieces(pieces, |(mut fill, rows, mut a, mut r)| {
            let (frame, resbits, prefix) = (meta_ref.frame, meta_ref.resbits, meta_ref.prefix);
            let mut block = [0u64; DECODE_BLOCK];
            for at in rows.clone().step_by(DECODE_BLOCK) {
                let block = &mut block[..DECODE_BLOCK.min(rows.end - at)];
                fill(at, block);
                for &e in block.iter() {
                    let (major, minor) = split_bits(e - frame, resbits);
                    a.push(prefix.compress(major));
                    r.push(minor);
                }
            }
            a.finish();
            r.finish();
        });
        Ok::<_, Infallible>(())
    });
    DecomposedColumn::new(meta, approx, residual)
}

impl DecomposedColumn {
    /// Decompose `payloads` of logical type `dtype` according to `spec`.
    pub fn decompose(payloads: &[i64], dtype: DataType, spec: &DecompositionSpec) -> Result<Self> {
        let fill = move |at: usize, out: &mut [u64]| {
            let rows = out.iter_mut().zip(&payloads[at..]);
            rows.for_each(|(e, &p)| *e = encode(p, dtype));
        };
        let extrema = payloads.iter().min().zip(payloads.iter().max());
        let meta = DecompositionMeta::new(dtype, extrema.map(|(&lo, &hi)| (lo, hi)), spec);
        let (n, chunks) = (payloads.len(), chunk_count(payloads.len()));
        Ok(split(meta, n, chunks, |_| fill))
    }

    /// The split `meta` describes, held in these two runs.
    pub(crate) fn new(meta: DecompositionMeta, approx: BitPackedVec, res: BitPackedVec) -> Self {
        let (approx, residual) = (Arc::new(approx), Arc::new(res));
        DecomposedColumn {
            meta,
            approx,
            residual,
        }
    }

    /// These rows split by `meta`, packed in `chunks` pieces: the split
    /// itself where it is that split already — no word packed —, else a new
    /// one, block by block from these runs. Runs held here alone hand back
    /// each granule their pieces have read; shared ones are read in place.
    pub(crate) fn resplit(mut self, meta: DecompositionMeta, chunks: usize) -> Self {
        if meta == self.meta {
            return self;
        }
        let (old, len) = (self.meta, self.len());
        let (a, r) = (self.approx.width(), self.residual.width());
        let (Some(approx), Some(residual)) = (
            Arc::get_mut(&mut self.approx),
            Arc::get_mut(&mut self.residual),
        ) else {
            return split(meta, len, chunks, |_| {
                |at, out: &mut [u64]| self.encoded_range(at, out)
            });
        };
        let mut rest = (&mut approx.words[..], &mut residual.words[..]);
        split(meta, len, chunks, |piece| {
            let (approx, a_rest) =
                std::mem::take(&mut rest.0).split_at_mut(words_for(a, piece.len()));
            let (residual, r_rest) =
                std::mem::take(&mut rest.1).split_at_mut(words_for(r, piece.len()));
            rest = (a_rest, r_rest);
            move |at: usize, out: &mut [u64]| {
                let (from, to) = (at - piece.start, at - piece.start + out.len());
                decode_parts(&old, (approx, a), (residual, r), from, out);
                for (words, width) in [(&mut *approx, a), (&mut *residual, r)] {
                    let read = words_for(width, to);
                    release(&mut words[..read], read - words_for(width, from));
                }
            }
        })
    }

    /// The translation metadata.
    #[inline]
    pub fn meta(&self) -> &DecompositionMeta {
        &self.meta
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.approx.len()
    }

    /// Whether the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.approx.is_empty()
    }

    /// The bit-packed approximation partition (device-destined).
    #[inline]
    pub fn approx(&self) -> &BitPackedVec {
        &self.approx
    }

    /// The bit-packed residual partition (host-resident).
    #[inline]
    pub fn residual(&self) -> &BitPackedVec {
        &self.residual
    }

    /// Bytes the approximation occupies on the device.
    #[inline]
    pub fn device_bytes(&self) -> u64 {
        self.approx.packed_bytes()
    }

    /// Bytes the residual occupies on the host.
    #[inline]
    pub fn host_bytes(&self) -> u64 {
        self.residual.packed_bytes()
    }

    /// Encoded value of row `i` — for single rows; a loop decodes a run
    /// through [`DecomposedColumn::encoded_range`].
    #[inline]
    pub fn encoded(&self, i: usize) -> u64 {
        (self.meta).encoded_of_parts(self.approx.get(i), self.residual.get(i))
    }

    /// Encoded values of rows `start..start + out.len()`: both partitions
    /// decoded a [`DECODE_BLOCK`] at a time, word by word, and
    /// concatenated.
    pub fn encoded_range(&self, start: usize, out: &mut [u64]) {
        assert!(start + out.len() <= self.len(), "rows past {}", self.len());
        let [a, r] = [&self.approx, &self.residual].map(|run| (run.words(), run.width()));
        decode_parts(&self.meta, a, r, start, out);
    }

    /// See [`DecompositionMeta::stored_bounds_payload`].
    pub fn stored_bounds_payload(&self, lo: i64, hi: i64) -> Option<(u64, u64)> {
        self.meta.stored_bounds_payload(lo, hi)
    }

    /// Split into `(meta, approximation, residual)` — the execution layer
    /// moves the approximation into device memory and keeps the rest; the
    /// partitions stay shared with every clone.
    pub fn into_parts(self) -> (DecompositionMeta, Arc<BitPackedVec>, Arc<BitPackedVec>) {
        (self.meta, self.approx, self.residual)
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
    use crate::bitpack::tests::Pushed;
    use crate::column::{width_cases, Column};
    use crate::pages::GRANULE;
    use crate::pieces::PARALLEL_ROWS;
    use proptest::prelude::*;

    /// Exact payload of row `i`.
    fn payload(d: &DecomposedColumn, i: usize) -> i64 {
        decode(d.encoded(i), d.meta().dtype())
    }

    fn ints(vals: &[i64], device_bits: u32) -> DecomposedColumn {
        DecomposedColumn::decompose(
            vals,
            DataType::Int32,
            &DecompositionSpec::with_device_bits(device_bits),
        )
        .unwrap()
    }

    /// Both partitions, packed by pushing element by element.
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
        let mut approx = Pushed::new(prefix.stored_width());
        let mut residual = Pushed::new(resbits);
        for &p in payloads {
            let norm = encode(p, dtype) - frame;
            approx.push(prefix.compress(norm >> resbits));
            residual.push(norm & low_mask(resbits));
        }
        let (approx, residual) = (approx.done(), residual.done());
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

    /// `got` is `want`: same metadata, the same words in both partitions
    /// and so the same bytes on both sides; and it reads back as the
    /// payloads it came from — row by row, whole, and through runs that
    /// start anywhere and cross block boundaries.
    fn assert_is_the_partition(
        got: &DecomposedColumn,
        want: &Partitions,
        payloads: &[i64],
        case: &str,
    ) {
        assert_eq!(got.meta(), &want.meta, "{case}");
        assert_eq!(got.approx(), &want.approx, "{case}");
        assert_eq!(got.residual(), &want.residual, "{case}");
        assert_eq!(got.len(), payloads.len(), "{case}");
        assert_eq!(got.device_bytes(), want.approx.packed_bytes(), "{case}");
        assert_eq!(got.host_bytes(), want.residual.packed_bytes(), "{case}");
        for (i, &p) in payloads.iter().enumerate() {
            assert_eq!(payload(got, i), p, "{case} row {i}");
        }
        let n = payloads.len();
        for start in [0, 1, 63, 64, 65, n / 3, n.saturating_sub(70)] {
            let start = start.min(n);
            let mut run = vec![0; (n - start).min(130)];
            got.encoded_range(start, &mut run);
            let run: Vec<i64> = run
                .into_iter()
                .map(|e| decode(e, got.meta().dtype()))
                .collect();
            assert_eq!(run, payloads[start..start + run.len()], "{case} at {start}");
        }
    }

    /// `col` split by `spec` in `chunks` pieces.
    fn split_in(col: Column, spec: &DecompositionSpec, chunks: usize) -> DecomposedColumn {
        let split = col.decompose_in(spec, chunks).unwrap();
        split.split().unwrap().clone()
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
                Column::from_payloads(dtype, &(0..len).map(draw).collect::<Vec<_>>()).unwrap()
            }
            _ => {
                let narrow: Vec<i32> = (0..len).map(|i| draw(i) as i32).collect();
                Column::from_payloads(dtype, &narrow).unwrap()
            }
        }
    }

    /// The column entry point, at every chunk count — over a plain column
    /// and re-splitting a split one block by block —, and the slice entry
    /// point build what the push loop builds from the widened copy:
    /// metadata and every word of both partitions; and it is exact.
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
                        let split = col
                            .clone()
                            .decompose(&DecompositionSpec::with_device_bits(20))
                            .unwrap();
                        for chunks in [1, 2, 3, 7] {
                            for col in [&col, &split] {
                                let case = format!("{case} chunks={chunks}");
                                // Read in place beside a clone that holds
                                // it, and consumed — its pages handed
                                // back as read — held nowhere else.
                                for col in [col.clone(), width_cases::unshared(col)] {
                                    let got = split_in(col, spec, chunks);
                                    assert_is_the_partition(&got, &oracle, &payloads, &case);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The split is the partition, and the route a column came by is
        /// invisible to it: a column of any type (a dictionary's codes
        /// among them; negative, empty, one row, extrema on the byte-width
        /// boundaries — ±2^15, 2^16, ±2^23 among them), packed from a slice
        /// or over a wider stated domain, splits at 0, 1, 8 and w − 1
        /// residual bits, with and without a frame, in one piece and in
        /// three, into the words of both partitions the push loop packs
        /// from the widened payloads — and so does the split form of it,
        /// re-split by the next spec, and so the type, extrema, dictionary
        /// and payloads of that form are the column's.
        #[test]
        fn the_split_is_the_partition_at_every_width(
            ty in 0usize..width_cases::TYPES.len(),
            lo_at in 0usize..width_cases::BOUNDARIES.len(),
            hi_at in 0usize..width_cases::BOUNDARIES.len(),
            len in 0usize..1200,
            seed: u64,
        ) {
            let case = width_cases::build(ty, lo_at, hi_at, len, seed);
            let bits = physical_bits(case.dtype);
            let specs: Vec<DecompositionSpec> = [bits, bits - 1, bits - 8, 1]
                .into_iter()
                .flat_map(|device_bits| [true, false].map(|frame_of_reference| DecompositionSpec {
                    frame_of_reference,
                    ..DecompositionSpec::with_device_bits(device_bits)
                }))
                .collect();
            for (k, spec) in specs.iter().enumerate() {
                let want = decompose_by_pushing(&case.payloads, case.dtype, spec);
                for col in [&case.wide, &case.narrow] {
                    let tag = format!("{} {} B {spec:?}", case.dtype, col.physical_bytes());
                    // In place beside a clone, and consumed alone.
                    for (chunks, col) in [(1, col.clone()), (3, width_cases::unshared(col))] {
                        let got = split_in(col, spec, chunks);
                        assert_is_the_partition(&got, &want, &case.payloads, &tag);
                    }
                    let split = col.clone().decompose(&specs[(k + 1) % specs.len()]).unwrap();
                    prop_assert_eq!(split.dtype(), col.dtype(), "{}", tag);
                    prop_assert_eq!(split.len(), col.len(), "{}", tag);
                    prop_assert_eq!(split.payload_min_max(), col.payload_min_max(), "{}", tag);
                    prop_assert_eq!(split.dictionary(), col.dictionary(), "{}", tag);
                    prop_assert_eq!(split.payloads(), case.payloads.clone(), "{}", tag);
                    let got = split_in(split, spec, 3);
                    assert_is_the_partition(&got, &want, &case.payloads, &format!("re-split {tag}"));
                }
            }
        }
    }

    /// Handing a column's pages back as they are re-packed changes no
    /// word, and touches no run another handle holds: at domains of 8, 16,
    /// 24, 32 and 41 bits, at lengths around a block, ending inside a
    /// granule past the first and fanned out over pieces, a column held
    /// nowhere else splits — meta and every word of both partitions — as
    /// one whose clone is held, and the held clone still reads back its
    /// input. A split the column holds already is the column itself.
    #[test]
    fn the_release_never_touches_shared_storage() {
        let mut rng = bwd_types::SplitMix64::new(0x5EED);
        let domains = [
            (-128, 127),
            (-32_768, 32_767),
            (0, 65_535),
            (-(1 << 23), (1 << 23) - 1),
            (i32::MIN as i64, i32::MAX as i64),
            (-(1 << 40), 1 << 40),
        ];
        let specs = [
            DecompositionSpec::all_device(),
            DecompositionSpec::with_device_bits(24),
            DecompositionSpec::with_device_bits(8),
        ];
        for (lo, hi) in domains {
            let bits = 64 - (hi - lo).leading_zeros() as usize;
            let mid_granule = (GRANULE + GRANULE / 2) * 8 / bits + 1;
            for len in [0, 1, 63, 64, 65, mid_granule, (1 << 20) + 4097] {
                let draws = (2..len).map(|_| lo + rng.below((hi - lo) as u64) as i64);
                let input: Vec<i64> = [lo, hi].into_iter().chain(draws).take(len).collect();
                let build = || Column::from_payloads(DataType::Int64, &input).unwrap();
                let held = build();
                let chunks = if len > PARALLEL_ROWS { 3 } else { 1 };
                for spec in &specs {
                    let tag = format!("{bits} bits × {len} rows {spec:?}");
                    let shared = held.clone().decompose_in(spec, chunks).unwrap();
                    let alone = build().decompose_in(spec, chunks).unwrap();
                    let (shared, alone) = (shared.split().unwrap(), alone.split().unwrap());
                    assert_eq!(alone.meta(), shared.meta(), "{tag}");
                    assert_eq!(alone.approx(), shared.approx(), "{tag}");
                    assert_eq!(alone.residual(), shared.residual(), "{tag}");
                    let same = *spec == DecompositionSpec::all_device();
                    let kept = std::ptr::eq(shared.approx(), held.split().unwrap().approx());
                    assert_eq!(kept, same, "{tag}: shared iff the split is held already");
                }
                assert!(held.split().unwrap().meta().fully_device_resident());
                assert_eq!(held.payloads(), input, "{bits} bits × {len} rows");
            }
        }
    }

    #[test]
    fn paper_convention_24_8() {
        // bwdecompose(A, 24) on a 32-bit attribute: 24 device bits, 8 residual.
        let vals: Vec<i64> = (0..100).collect();
        let d = ints(&vals, 24);
        assert_eq!(d.meta().resbits(), 8);
        assert!(!d.meta().fully_device_resident());
        // 0..99 normalized: max_norm = 99, majors all 0 -> stored width 0.
        assert_eq!(d.meta().stored_width(), 0);
        assert_eq!(d.device_bytes(), 0);
        assert_eq!(d.host_bytes(), 100); // 8 bits * 100 rows
    }

    #[test]
    fn fully_device_resident_small_domain() {
        // TPC-H l_quantity: values 1..=50 need 6 bits; kept whole on device.
        let vals: Vec<i64> = (0..500).map(|i| 1 + (i % 50)).collect();
        let d = ints(&vals, 32);
        assert!(d.meta().fully_device_resident());
        assert_eq!(d.meta().stored_width(), 6);
        assert_eq!(d.host_bytes(), 0);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(payload(&d, i), v);
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
        assert_eq!(d.meta().resbits(), 8);
        // Range 4227402 needs 23 bits; major part 23-8 = 15 bits.
        assert_eq!(d.meta().stored_width(), 15);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(payload(&d, i), v);
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
        assert_eq!(d.meta().stored_width(), 24);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(payload(&d, i), v);
        }
    }

    #[test]
    fn granule_bounds_contain_exact_value() {
        let vals: Vec<i64> = (0..2000).map(|i| i * 13 % 9999).collect();
        let d = ints(&vals, 24);
        for (i, &v) in vals.iter().enumerate() {
            let (lo, hi) = d.meta().granule_payload(d.approx().get(i));
            assert!(lo <= v && v <= hi, "granule [{lo},{hi}] must contain {v}");
            assert!(hi - lo < 1 << d.meta().resbits());
        }
    }

    #[test]
    fn stored_bounds_yield_superset() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 31) % 50_000).collect();
        let d = ints(&vals, 22); // 10 residual bits -> granule 1024
        let (plo, phi) = (10_000i64, 20_000i64);
        let (slo, shi) = d.stored_bounds_payload(plo, phi).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            let s = d.approx().get(i);
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
        let all_stored: Vec<u64> = (0..d.len()).map(|i| d.approx().get(i)).collect();
        let max_stored = *all_stored.iter().max().unwrap();
        let min_stored = *all_stored.iter().min().unwrap();
        assert!(full.0 <= min_stored && full.1 >= max_stored);
    }

    /// A literal past the type's payload domain is clamped to it, never
    /// wrapped: `a < 2^32` on a 32-bit column admits every row, `a >
    /// 2^31 − 1` and `a < −2^31` none.
    #[test]
    fn bounds_clamp_literals_to_the_payload_domain() {
        let vals: Vec<i64> = (0..100_000).map(|i| (i * 37 % 50_000) - 25_000).collect();
        let (min, max) = (i32::MIN as i64, i32::MAX as i64);
        for device_bits in [24, 32] {
            let meta = *ints(&vals, device_bits).meta();
            let all = meta.stored_bounds_payload(min, max);
            assert!(all.is_some());
            for hi in [max + 1, 1 << 32, i64::MAX] {
                assert_eq!(meta.stored_bounds_payload(min, hi), all, "< {hi}");
                assert_eq!(meta.stored_bounds_payload(-(1 << 32), hi), all, "< {hi}");
                assert_eq!(meta.stored_bounds_payload(max + 1, hi), None, "> {max}");
            }
            for lo in [min - 1, -(1 << 32), i64::MIN] {
                assert_eq!(meta.stored_bounds_payload(lo, min - 1), None, "< {min}");
            }
        }
        let bounds = |lo, hi, dtype| encoded_bounds(lo, hi, dtype);
        let int32 = |v| encode(v, DataType::Int32);
        assert_eq!(
            bounds(i64::MIN, i64::MAX, DataType::Int32),
            Some((0, u32::MAX as u64))
        );
        assert_eq!(
            bounds(-5, 1 << 32, DataType::Int32),
            Some((int32(-5), int32(max)))
        );
        assert_eq!(bounds(max + 1, i64::MAX, DataType::Int32), None);
        assert_eq!(
            bounds(i64::MIN, i64::MAX, DataType::Int64),
            Some((0, u64::MAX))
        );
        assert_eq!(bounds(3, 2, DataType::Int64), None);
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
        let expect: Vec<i64> = (0..100).map(|i| payload(&d, i)).collect();
        let (meta, approx, residual) = d.into_parts();
        for (i, &want) in expect.iter().enumerate() {
            let res = residual.get(i);
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
                prop_assert_eq!(payload(&d, i), v);
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
                    let s = d.approx().get(i);
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
                let (lo, hi) = d.meta().granule_payload(d.approx().get(i));
                prop_assert!(lo <= v && v <= hi);
            }
        }
    }
}
