//! The selection (scan) kernel.
//!
//! The approximate selection is the paper's flagship device operation:
//! selections are input-bandwidth hungry and output little, which fits a
//! platform with abundant internal bandwidth and a scarce output bus
//! (§IV-B). The kernel tests the bit-packed approximation against
//! *relaxed* inclusive bounds in the stored domain.
//!
//! # One kernel, one spec
//!
//! Every selection step is one [`ScanSpec`]: the column, an optional FK
//! link (`arr[link[row]]` — a dimension-side predicate), the bounds and
//! the input cardinality (all rows, or the survivors of an earlier step).
//! The spec offers exactly three operations:
//!
//! * [`ScanSpec::fill_mask`] — pure, word-aligned partition → positional
//!   match bitmap ([`crate::SelMask`] words), optionally AND-refining an input
//!   bitmap;
//! * [`ScanSpec::emit`] — pure partition → (oid, approximation) pairs, over
//!   a row span or an input oid list;
//! * [`ScanSpec::mark_undecided_mask`] / [`ScanSpec::mark_undecided`] — the
//!   kernel's second output, one **decided** bit per match: a match whose
//!   approximation lies in the spec's *inner* interval
//!   ([`ScanSpec::deciding`]) has its whole granule inside the exact
//!   predicate and needs no refinement; every other match is OR-ed into a
//!   positional *undecided* bitmap the chain accumulates;
//! * [`ScanSpec::charge`] — the simulated cost, the only place the four
//!   cost formulas (source × input) live. The bill is derived from the
//!   same value that produced the rows, so the two cannot disagree, and
//!   it is the same whichever output representation was produced: the
//!   simulated device always prices the paper's candidate-pair model.
//!
//! # Width dispatch
//!
//! A full direct scan evaluates the predicate **in the packed domain**
//! for SWAR-applicable widths ([`bwd_storage::swar_applicable`]): a
//! lane-batched banked compare yields one match word per 64 rows without
//! decoding, and decode happens only for 64-blocks that contain
//! survivors. Wider elements take the decode-and-compare loop, where only
//! two lanes would fit a word and the lift costs as much as the compares.
//! The choice is a function of the column's width alone; both arms emit
//! identical rows.
//!
//! # Output order
//!
//! A massively parallel selection partitions its input into thread blocks
//! whose outputs complete in arbitrary order; preserving input order would
//! cost an extra pass the paper explicitly avoids (§IV-A item 3). The
//! simulation reproduces this with a deterministic bit-reversed block
//! permutation ([`scan_block_ranges`]): candidates come out
//! block-scrambled (order is *stable across runs*, but not ascending),
//! while order *within* a block is preserved. Downstream operators that
//! gather positionally from these candidates inherit the same permutation
//! — precisely the precondition set the translucent join needs.

use crate::array::DeviceArray;
use crate::candidates::Candidates;
use bwd_device::units::{candidate_stream_bytes, element_access_bytes};
use bwd_device::{CostLedger, Env};
use bwd_obs::metrics::{Counter, Registry};
use bwd_storage::{swar_applicable, BitPackedVec, BlockDecoder, RangeMatcher, DECODE_BLOCK};
use bwd_types::{bits::low_mask, Oid};
use std::ops::Range;
use std::sync::OnceLock;

/// Process-wide scan counters (see `bwd_obs::metrics::Registry::global`),
/// bumped once per partition of a full direct scan whichever output it
/// produces: how many 64-element blocks went through the packed-domain
/// SWAR arm, how many of those held no match, and how many blocks took
/// the decode-and-compare arm.
struct ScanMetrics {
    swar_blocks: Counter,
    swar_zero_blocks: Counter,
    scalar_blocks: Counter,
}

fn scan_metrics() -> &'static ScanMetrics {
    static METRICS: OnceLock<ScanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        ScanMetrics {
            swar_blocks: r.counter("bwd_scan_swar_blocks_total"),
            swar_zero_blocks: r.counter("bwd_scan_swar_zero_blocks_total"),
            scalar_blocks: r.counter("bwd_scan_scalar_blocks_total"),
        }
    })
}

/// Record one full-direct-scan partition of `blocks` 64-element blocks
/// (`zero_blocks` of them without a match) on the arm `width` selects.
fn count_blocks(width: u32, blocks: u64, zero_blocks: u64) {
    if blocks == 0 {
        return;
    }
    let metrics = scan_metrics();
    if swar_applicable(width) {
        metrics.swar_blocks.add(blocks);
        metrics.swar_zero_blocks.add(zero_blocks);
    } else {
        metrics.scalar_blocks.add(blocks);
    }
}

/// Tuples per simulated thread block of a full scan.
pub(crate) const BLOCK_ROWS: usize = 1 << 16;

/// How the selection kernel emits its candidates.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOptions {
    /// Emit candidates in input order (costs an extra ordering pass on the
    /// device; ablation of the paper's design choice).
    pub preserve_order: bool,
}

/// Iterate block indices in bit-reversed order — the deterministic stand-in
/// for "blocks complete in arbitrary order".
fn block_order(nblocks: usize) -> impl Iterator<Item = usize> {
    let bits = usize::BITS - nblocks.next_power_of_two().leading_zeros() - 1;
    (0..nblocks.next_power_of_two())
        .map(move |i| {
            if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (usize::BITS - bits)
            }
        })
        .filter(move |&j| j < nblocks)
}

/// The simulated thread-block row ranges of a full scan over `n` rows, in
/// the serial emission order (bit-reversed for multi-block scans, a single
/// sequential range when order is preserved or one block suffices).
///
/// This is the unit a morsel-parallel executor distributes: handing
/// contiguous chunks of this sequence to real threads and concatenating
/// their outputs in chunk order reproduces [`select_range`]'s output
/// byte for byte.
pub fn scan_block_ranges(n: usize, preserve_order: bool) -> Vec<Range<usize>> {
    let nblocks = n.div_ceil(BLOCK_ROWS);
    if nblocks <= 1 || preserve_order {
        #[allow(clippy::single_range_in_vec_init)] // one range, not a collected sequence
        return vec![0..n];
    }
    block_order(nblocks)
        .map(|b| {
            let start = b * BLOCK_ROWS;
            start..(start + BLOCK_ROWS).min(n)
        })
        .collect()
}

/// Whether `accesses` random reads into an `len`-element packed array are
/// dense enough for the block-cached decoder to win (a cache miss decodes a
/// whole [`DECODE_BLOCK`]; below ~1/8 density the per-element path is
/// cheaper).
fn cache_worthwhile(accesses: usize, len: usize) -> bool {
    accesses.saturating_mul(8) >= len
}

/// The rows one [`ScanSpec::emit`] call tests.
#[derive(Debug, Clone)]
pub enum ScanRows<'a> {
    /// A contiguous row span — one simulated thread block of a full scan.
    Span(Range<usize>),
    /// A slice of an earlier step's candidate oids (order is preserved, so
    /// chained selections keep the shared permutation).
    Oids(&'a [Oid]),
}

/// One relaxed range selection `lo <= source[row] <= hi` (stored domain,
/// inclusive), where `source[row]` is `arr[row]` or — through an FK link —
/// `arr[link[row]]`, over all rows or over the `n_in` survivors of an
/// earlier step. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ScanSpec<'a> {
    arr: &'a DeviceArray,
    link: Option<&'a DeviceArray>,
    lo: u64,
    hi: u64,
    n_in: Option<usize>,
    /// The stored values whose whole granule satisfies the exact predicate
    /// (`None`: no match is decided; `[lo, hi]`: every match is).
    inner: Option<(u64, u64)>,
    /// Whether row lookups go through the block-cached bulk decoder:
    /// candidate rows ascend within scan blocks, so a dense input revisits
    /// the same 64-element decode block.
    cached: bool,
}

/// Random access to a spec's source value: the row-indexed array (the
/// link when there is one) optionally behind a block cache, then the hop
/// into the dimension. Dimension reads stay per-element — link values
/// land anywhere, a block cache would thrash.
struct RowReader<'a> {
    rows: &'a BitPackedVec,
    cache: Option<BlockDecoder<'a>>,
    dim: Option<&'a BitPackedVec>,
}

impl RowReader<'_> {
    #[inline]
    fn get(&mut self, row: usize) -> u64 {
        let x = match &mut self.cache {
            Some(dec) => dec.get(row),
            None => self.rows.get(row),
        };
        match self.dim {
            Some(dim) => dim.get(x as usize),
            None => x,
        }
    }
}

impl<'a> ScanSpec<'a> {
    /// Describe a selection over `arr` (through `link` when given).
    /// `n_in` is the input cardinality of a chained step (the survivors
    /// of the previous one, in either representation); `None` scans every
    /// row.
    pub fn new(
        arr: &'a DeviceArray,
        link: Option<&'a DeviceArray>,
        lo: u64,
        hi: u64,
        n_in: Option<usize>,
    ) -> Self {
        let rows = link.unwrap_or(arr).len();
        ScanSpec {
            arr,
            link,
            lo,
            hi,
            n_in,
            inner: Some((lo, hi)),
            cached: cache_worthwhile(n_in.unwrap_or(rows), rows),
        }
    }

    /// Decide only the matches inside `inner` — the granules wholly inside
    /// the exact predicate the bounds were relaxed from. Without this
    /// call every match counts as decided (the bounds *are* the predicate).
    pub fn deciding(mut self, inner: Option<(u64, u64)>) -> Self {
        self.inner = inner;
        self
    }

    /// Whether no match can stay undecided (the inner interval is the
    /// scanned one): the kernel then writes no decided bits at all.
    pub fn decides_all(&self) -> bool {
        self.inner == Some((self.lo, self.hi))
    }

    #[inline]
    fn undecided(&self, v: u64) -> bool {
        !self.inner.is_some_and(|(lo, hi)| v >= lo && v <= hi)
    }

    /// The array a row number indexes: the link when there is one.
    fn row_array(&self) -> &'a DeviceArray {
        self.link.unwrap_or(self.arr)
    }

    fn reader(&self) -> RowReader<'a> {
        let rows = self.row_array().data();
        RowReader {
            rows,
            cache: self.cached.then(|| BlockDecoder::new(rows)),
            dim: self.link.map(|_| self.arr.data()),
        }
    }

    #[inline]
    fn matches(&self, v: u64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Fill the match-mask words starting at word index `word_start` (row
    /// `word_start * 64`) for as many rows as `out` covers; words past the
    /// last row are zeroed. With `input_words` (the same word range of an
    /// earlier step's mask, `input_words.len() == out.len()`) the result
    /// is `input AND match`, evaluated only for words that still hold
    /// candidates. Because every partition boundary is a mask-word
    /// boundary, morsel workers write disjoint chunks of one shared
    /// buffer with no synchronization.
    pub fn fill_mask(&self, input_words: Option<&[u64]>, word_start: usize, out: &mut [u64]) {
        debug_assert!(input_words.is_none_or(|w| w.len() == out.len()));
        let base = word_start * 64;
        let n = (self.row_array().len().saturating_sub(base)).min(out.len() * 64);
        let (out, past_end) = out.split_at_mut(n.div_ceil(64));
        past_end.fill(0);
        if out.is_empty() {
            return;
        }
        if self.link.is_some() {
            let mut src = self.reader();
            for (i, slot) in out.iter_mut().enumerate() {
                let live = low_mask((n - i * 64).min(64) as u32);
                let mut bits = input_words.map_or(live, |w| w[i] & live);
                let mut keep = 0u64;
                while bits != 0 {
                    let k = bits.trailing_zeros() as usize;
                    keep |= u64::from(self.matches(src.get(base + i * 64 + k))) << k;
                    bits &= bits - 1;
                }
                *slot = keep;
            }
            return;
        }
        let m = RangeMatcher::new(self.arr.data(), self.lo, self.hi);
        match input_words {
            Some(w) => m.fill_and(word_start, n, &w[..out.len()], out),
            None if m.is_empty_range() => out.fill(0),
            None => {
                m.fill(base, n, out);
                let zero = out.iter().filter(|&&w| w == 0).count();
                count_blocks(self.arr.width(), out.len() as u64, zero as u64);
            }
        }
    }

    /// Append the matching (oid, approximation) pairs of `rows` to
    /// `oids`/`approx`, in row order — the pure partition form (no cost
    /// charge, no allocation beyond the output), so callers fan partitions
    /// out across real threads and charge the merged totals once.
    pub fn emit(&self, rows: ScanRows<'_>, oids: &mut Vec<Oid>, approx: &mut Vec<u64>) {
        if let (ScanRows::Span(r), None) = (&rows, self.link) {
            return self.emit_span(r.clone(), oids, approx);
        }
        let mut src = self.reader();
        let mut keep = |row: usize| {
            let v = src.get(row);
            if self.matches(v) {
                oids.push(row as Oid);
                approx.push(v);
            }
        };
        match rows {
            ScanRows::Span(r) => r.for_each(keep),
            ScanRows::Oids(input) => input.iter().for_each(|&oid| keep(oid as usize)),
        }
    }

    /// The full direct scan of rows `r`, on the arm the width selects.
    fn emit_span(&self, r: Range<usize>, oids: &mut Vec<Oid>, approx: &mut Vec<u64>) {
        /// Mask words lane-filled per chunk: big enough to amortize the
        /// dispatch, small enough to live on the stack and stay cache-hot
        /// against the emission pass that follows.
        const FILL_CHUNK: usize = 32;
        let data = self.arr.data();
        let m = RangeMatcher::new(data, self.lo, self.hi);
        if m.is_empty_range() {
            return;
        }
        let mut buf = [0u64; DECODE_BLOCK];
        let mut mask_buf = [0u64; FILL_CHUNK];
        let (mut blocks, mut zero_blocks) = (0u64, 0u64);
        let mut i = r.start;
        if swar_applicable(data.width()) {
            // Packed domain: a lone partial word first when the span
            // starts off a 64-row boundary, so every later fill is
            // lane-aligned; then batch-fill whole chunks of mask words and
            // decode only the 64-blocks that hold survivors.
            while i < r.end {
                let n = match i % 64 {
                    0 => (r.end - i).min(FILL_CHUNK * 64),
                    off => (r.end - i).min(64 - off),
                };
                let words = &mut mask_buf[..n.div_ceil(64)];
                m.fill(i, n, words);
                blocks += words.len() as u64;
                for (w, &bits) in words.iter().enumerate() {
                    if bits == 0 {
                        zero_blocks += 1;
                    } else {
                        let at = i + w * 64;
                        let len = (i + n - at).min(64);
                        emit_matches(data, at, len, bits, &mut buf, oids, approx);
                    }
                }
                i += n;
            }
        } else {
            // Wide elements: decode word-at-a-time into a stack scratch
            // block (the bulk decoder loads each packed word once) and
            // compare one value at a time.
            while i < r.end {
                blocks += 1;
                let n = (r.end - i).min(DECODE_BLOCK);
                data.unpack_range(i, &mut buf[..n]);
                for (k, &v) in buf[..n].iter().enumerate() {
                    if self.matches(v) {
                        oids.push((i + k) as Oid);
                        approx.push(v);
                    }
                }
                i += n;
            }
        }
        count_blocks(data.width(), blocks, zero_blocks);
    }

    /// OR into `undecided` — the words of a positional bitmap covering the
    /// same rows as `matches`, this step's output words from `word_start`
    /// on — every match whose approximation lies outside the inner
    /// interval. Word-aligned like [`ScanSpec::fill_mask`], so morsel
    /// workers mark disjoint chunks.
    pub fn mark_undecided_mask(&self, matches: &[u64], word_start: usize, undecided: &mut [u64]) {
        debug_assert_eq!(matches.len(), undecided.len());
        let base = word_start * 64;
        match (self.inner, self.link) {
            (None, _) => {
                for (u, &m) in undecided.iter_mut().zip(matches) {
                    *u |= m;
                }
            }
            (Some((lo, hi)), None) => {
                let n = (self.arr.len().saturating_sub(base)).min(matches.len() * 64);
                let words = n.div_ceil(64);
                if words == 0 {
                    return;
                }
                let mut decided = vec![0u64; words];
                let m = RangeMatcher::new(self.arr.data(), lo, hi);
                m.fill_and(word_start, n, &matches[..words], &mut decided);
                for ((u, &m), &d) in undecided.iter_mut().zip(matches).zip(&decided) {
                    *u |= m & !d;
                }
            }
            (Some(_), Some(_)) => {
                let mut src = self.reader();
                for (i, (u, &m)) in undecided.iter_mut().zip(matches).enumerate() {
                    let mut bits = m;
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        *u |= u64::from(self.undecided(src.get(base + i * 64 + k))) << k;
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// [`ScanSpec::mark_undecided_mask`] for index output: set the bit of
    /// every emitted pair whose approximation lies outside the inner
    /// interval in the whole-relation bitmap `undecided`.
    pub fn mark_undecided(&self, oids: &[Oid], approx: &[u64], undecided: &mut [u64]) {
        for (&oid, &v) in oids.iter().zip(approx) {
            if self.undecided(v) {
                undecided[oid as usize / 64] |= 1 << (oid % 64);
            }
        }
    }

    /// Charge the simulated cost of this selection having produced `n_out`
    /// candidates (`preserve_order` is the full scan's emission order; chained steps
    /// ignore it). Morsel-parallel callers run the partitions themselves
    /// and charge the merged total here once — exactly what the serial
    /// kernel charges, identically for bitmap and index output.
    ///
    /// * full scan: one launch, the sequential stream of the packed input,
    ///   one compare per tuple, the sequential write of the compacted
    ///   output — plus a second sweep over that output when order is
    ///   preserved across several blocks;
    /// * full scan through a link: the link stream plus one scattered
    ///   dimension element per row;
    /// * chained: one scattered element per input candidate plus the
    ///   compacted output write;
    /// * chained through a link: a scattered link element and a scattered
    ///   dimension element per input candidate.
    pub fn charge(&self, env: &Env, n_out: usize, preserve_order: bool, ledger: &mut CostLedger) {
        let arr = self.arr;
        // The compacted pairs, plus one decided bit each when any match
        // can stay undecided.
        let flag_bytes = match self.decides_all() {
            true => 0,
            false => (n_out as u64).div_ceil(8),
        };
        let out_bytes = candidate_stream_bytes(arr.width(), n_out as u64) + flag_bytes;
        match (self.link, self.n_in.map(|n| n as u64)) {
            (None, None) => {
                let n = arr.len();
                let bytes = arr.packed_bytes() + out_bytes;
                env.charge_kernel("select.approx.scan", bytes, n as u64, ledger);
                if preserve_order && n > BLOCK_ROWS {
                    env.charge_kernel("select.approx.order", 2 * out_bytes, n_out as u64, ledger);
                }
            }
            (Some(link), None) => {
                let n = link.len() as u64;
                let touched = link.packed_bytes() + n * element_access_bytes(arr.width());
                env.charge_kernel_scattered("select.approx.scan-indirect", touched, n, ledger);
            }
            (None, Some(n_in)) => {
                let touched = n_in * element_access_bytes(arr.width());
                let bytes = touched + out_bytes;
                env.charge_kernel_scattered("select.approx.gather-filter", bytes, n_in, ledger);
            }
            (Some(link), Some(n_in)) => {
                let touched =
                    n_in * (element_access_bytes(link.width()) + element_access_bytes(arr.width()));
                let label = "select.approx.gather-filter-indirect";
                env.charge_kernel_scattered(label, touched, 2 * n_in, ledger);
            }
        }
    }
}

/// Set bits in a 64-block below which survivor emission reads elements
/// one by one instead of bulk-decoding the whole block (mirrors the
/// 1-in-8 density heuristic of [`cache_worthwhile`]).
const DENSE_BLOCK_MIN: u32 = 8;

/// Emit the survivors of one matched 64-element group (`n` elements at
/// row `i`, match bits `bits != 0`): bulk-decode when every element or a
/// dense subset matches, per-element decode when sparse.
#[inline]
fn emit_matches(
    data: &BitPackedVec,
    i: usize,
    n: usize,
    mut bits: u64,
    buf: &mut [u64; DECODE_BLOCK],
    oids: &mut Vec<Oid>,
    approx: &mut Vec<u64>,
) {
    if bits == low_mask(n as u32) {
        // Every element matches: straight bulk decode + append.
        data.unpack_range(i, &mut buf[..n]);
        for (k, &v) in buf[..n].iter().enumerate() {
            oids.push((i + k) as Oid);
            approx.push(v);
        }
    } else if bits.count_ones() >= DENSE_BLOCK_MIN {
        // Dense block: decode once, then emit set bits.
        data.unpack_range(i, &mut buf[..n]);
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            oids.push((i + k) as Oid);
            approx.push(buf[k]);
            bits &= bits - 1;
        }
    } else {
        // Sparse block: decode only the survivors.
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            oids.push((i + k) as Oid);
            approx.push(data.get(i + k));
            bits &= bits - 1;
        }
    }
}

/// Scan the whole array for stored values in `[lo, hi]` (inclusive),
/// emitting candidates in the block-scrambled order of
/// [`scan_block_ranges`]. The candidate list stays device-resident; the
/// caller meters the download when refinement needs it on the host.
pub fn select_range(
    env: &Env,
    arr: &DeviceArray,
    lo: u64,
    hi: u64,
    opts: &ScanOptions,
    ledger: &mut CostLedger,
) -> Candidates {
    let spec = ScanSpec::new(arr, None, lo, hi, None);
    let (mut oids, mut approx) = (Vec::new(), Vec::new());
    for r in scan_block_ranges(arr.len(), opts.preserve_order) {
        spec.emit(ScanRows::Span(r), &mut oids, &mut approx);
    }
    spec.charge(env, oids.len(), opts.preserve_order, ledger);
    Candidates::from_pairs(oids, approx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selvec::SelMask;
    use bwd_storage::BitPackedVec;
    use bwd_types::SplitMix64;
    use proptest::prelude::*;

    fn device_array(env: &Env, width: u32, vals: &[u64]) -> DeviceArray {
        let mut ledger = CostLedger::new();
        DeviceArray::upload(
            &env.device,
            BitPackedVec::from_slice(width, vals),
            "test",
            &mut ledger,
        )
        .unwrap()
    }

    /// The naive reference: test `source[row]` through `get()` for every
    /// row of `rows`, in that order.
    fn oracle(
        arr: &DeviceArray,
        link: Option<&DeviceArray>,
        (lo, hi): (u64, u64),
        rows: impl Iterator<Item = usize>,
    ) -> (Vec<Oid>, Vec<u64>) {
        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        for row in rows {
            let v = match link {
                Some(l) => arr.get(l.get(row) as usize),
                None => arr.get(row),
            };
            if v >= lo && v <= hi {
                oids.push(row as Oid);
                approx.push(v);
            }
        }
        (oids, approx)
    }

    /// One selection step through both outputs of the same spec: the
    /// index output (`emit` per thread-block span, or over the input's
    /// oids) and the bitmap output (`fill_mask` in two partitions cut at
    /// word `cut`, refining the input's mask when chained), each billed
    /// onto its own tracing ledger.
    fn both_outputs(
        env: &Env,
        spec: &ScanSpec<'_>,
        input: Option<(&Candidates, &SelMask)>,
        rows: usize,
        preserve_order: bool,
        cut: usize,
    ) -> ((Candidates, CostLedger), (SelMask, CostLedger)) {
        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        match input {
            None => scan_block_ranges(rows, preserve_order)
                .into_iter()
                .for_each(|r| spec.emit(ScanRows::Span(r), &mut oids, &mut approx)),
            Some((c, _)) => spec.emit(ScanRows::Oids(&c.oids), &mut oids, &mut approx),
        }
        let mut l_idx = CostLedger::with_trace();
        spec.charge(env, oids.len(), preserve_order, &mut l_idx);

        let mut words = vec![u64::MAX; rows.div_ceil(64)];
        let cut = cut.min(words.len());
        let in_words = input.map(|(_, m)| m.words());
        let (head, tail) = words.split_at_mut(cut);
        spec.fill_mask(in_words.map(|w| &w[..cut]), 0, head);
        spec.fill_mask(in_words.map(|w| &w[cut..]), cut, tail);
        let mask = match input {
            Some((_, m)) => m.like(words),
            None => SelMask::from_words(words, rows, preserve_order),
        };
        let mut l_mask = CostLedger::with_trace();
        spec.charge(env, mask.count(), preserve_order, &mut l_mask);
        (
            (Candidates::from_pairs(oids, approx), l_idx),
            (mask, l_mask),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Every axis of the kernel against the `get()` oracle: width
        /// 1..=32 (both dispatch arms), unaligned lengths inside one
        /// thread block and across two or three, source direct or through a link, input all rows or an
        /// earlier step's survivors (as oids and as a mask), output
        /// indices or bitmap. For each step: rows equal the oracle's, the
        /// bitmap converted through the block-emission order equals the
        /// index output bit for bit, both outputs are billed the same
        /// events, and both mark exactly the oracle's matches outside the
        /// inner interval (the outer one trimmed at neither, either or
        /// both ends, or empty) as undecided. Then the selection laws:
        /// σ_p∘σ_q = σ_q∘σ_p (as sets) = σ_{p∧q}.
        #[test]
        fn prop_scan_spec_matches_oracle_and_selection_laws(
            width in 1u32..=32,
            rows in 0usize..700,
            blocks in 0usize..12,
            linked in any::<bool>(),
            seed in any::<u64>(),
            preserve_order in any::<bool>(),
            cut in 0usize..12,
            bounds in proptest::collection::vec(0u64..=1100, 4..5),
            trim in 0u64..5,
        ) {
            let env = Env::paper_default();
            let mut rng = SplitMix64::new(seed);
            // One case in six spans two or three thread blocks.
            let rows = if blocks < 2 { rows + (blocks + 1) * BLOCK_ROWS } else { rows };
            // p tests column `a` (through a 0..dim_rows link when linked),
            // q tests the direct 9-bit fact column `b`.
            let dim_rows = if linked { 1 + (rng.next_u64() % 90) as usize } else { rows };
            let a_vals: Vec<u64> = (0..dim_rows).map(|_| rng.next_u64() & low_mask(width)).collect();
            let a = device_array(&env, width, &a_vals);
            let link_vals: Vec<u64> = (0..rows).map(|_| rng.next_u64() % dim_rows as u64).collect();
            let link_arr = device_array(&env, 18, &link_vals);
            let link = linked.then_some(&link_arr);
            let b_vals: Vec<u64> = (0..rows).map(|_| rng.next_u64() & 511).collect();
            let b = device_array(&env, 9, &b_vals);
            // Bounds as per-mille of the domain; > 1000 runs past its edge.
            let bound = |frac: u64, w: u32| ((low_mask(w) as u128 + 1) * frac as u128 / 1000) as u64;
            let p = (bound(bounds[0], width), bound(bounds[0], width).saturating_add(bound(bounds[1], width)));
            let q = (bound(bounds[2], 9), bound(bounds[2], 9).saturating_add(bound(bounds[3], 9)));
            let emission = || scan_block_ranges(rows, preserve_order).into_iter().flatten();

            // The inner interval: the outer one trimmed per `trim`.
            let inner_of = |(lo, hi): (u64, u64)| match trim {
                4 => None,
                _ => Some((lo + (trim & 1), hi.saturating_sub(trim >> 1))).filter(|(l, h)| l <= h),
            };
            let check = |spec: &ScanSpec<'_>, arr: &DeviceArray, via: Option<&DeviceArray>,
                         pred: (u64, u64), input: Option<(&Candidates, &SelMask)>| {
                let ((cands, l_idx), (mask, l_mask)) =
                    both_outputs(&env, spec, input, rows, preserve_order, cut);
                let expect = match input {
                    None => oracle(arr, via, pred, emission()),
                    Some((c, _)) => oracle(arr, via, pred, c.oids.iter().map(|&o| o as usize)),
                };
                prop_assert_eq!((&cands.oids, &cands.approx), (&expect.0, &expect.1));
                let converted = match via {
                    Some(l) => mask.to_candidates_indirect(arr, l),
                    None => mask.to_candidates(arr),
                };
                prop_assert_eq!(&converted, &cands);
                prop_assert_eq!(l_idx.events(), l_mask.events());
                let inner = inner_of(pred);
                let mut want = vec![0u64; rows.div_ceil(64)];
                for (&oid, &v) in expect.0.iter().zip(&expect.1) {
                    if !inner.is_some_and(|(lo, hi)| v >= lo && v <= hi) {
                        want[oid as usize / 64] |= 1 << (oid % 64);
                    }
                }
                let mut by_index = vec![0u64; want.len()];
                spec.mark_undecided(&cands.oids, &cands.approx, &mut by_index);
                let mut by_mask = vec![0u64; want.len()];
                let at = cut.min(want.len());
                let (head, tail) = by_mask.split_at_mut(at);
                spec.mark_undecided_mask(&mask.words()[..at], 0, head);
                spec.mark_undecided_mask(&mask.words()[at..], at, tail);
                prop_assert_eq!(&by_index, &want);
                prop_assert_eq!(&by_mask, &want);
                prop_assert_eq!(spec.decides_all(), inner == Some(pred));
                (cands, mask)
            };

            let spec = |arr, via, (lo, hi): (u64, u64), n_in| {
                ScanSpec::new(arr, via, lo, hi, n_in).deciding(inner_of((lo, hi)))
            };
            let spec_p = spec(&a, link, p, None);
            let spec_q = spec(&b, None, q, None);
            let (cp, mp) = check(&spec_p, &a, link, p, None);
            let (cq, mq) = check(&spec_q, &b, None, q, None);
            let p_on_q = spec(&a, link, p, Some(cq.len()));
            let q_on_p = spec(&b, None, q, Some(cp.len()));
            let (cpq, mpq) = check(&p_on_q, &a, link, p, Some((&cq, &mq)));
            let (cqp, mqp) = check(&q_on_p, &b, None, q, Some((&cp, &mp)));

            let both: Vec<u64> = mp.words().iter().zip(mq.words()).map(|(x, y)| x & y).collect();
            prop_assert_eq!(mpq.words(), &both[..]);
            prop_assert_eq!(mqp.words(), &both[..]);
            let sorted = |c: &Candidates| { let mut o = c.oids.clone(); o.sort_unstable(); o };
            prop_assert_eq!(sorted(&cpq), sorted(&cqp));
            prop_assert_eq!(sorted(&cpq), mpq.sorted_oids());
        }
    }

    #[test]
    fn full_scan_finds_exactly_the_range() {
        let env = Env::paper_default();
        let vals: Vec<u64> = (0..100_000u64).map(|i| i % 1000).collect();
        let arr = device_array(&env, 10, &vals);
        let mut ledger = CostLedger::new();
        let c = select_range(&env, &arr, 100, 199, &ScanOptions::default(), &mut ledger);
        assert_eq!(c.len(), 10_000);
        for (&oid, &a) in c.oids.iter().zip(&c.approx) {
            assert_eq!(vals[oid as usize], a);
            assert!((100..=199).contains(&a));
        }
        assert!(ledger.breakdown().device > 0.0);
        assert_eq!(ledger.breakdown().pcie, 0.0, "no transfer until download");
    }

    #[test]
    fn multi_block_output_is_scrambled_but_complete() {
        let env = Env::paper_default();
        let vals: Vec<u64> = (0..300_000u64).map(|i| i % 2).collect();
        let arr = device_array(&env, 1, &vals);
        let mut ledger = CostLedger::new();
        let c = select_range(&env, &arr, 1, 1, &ScanOptions::default(), &mut ledger);
        assert_eq!(c.len(), 150_000);
        assert!(!c.sorted, "multi-block scan must not be order-preserving");
        // Complete: all odd oids present exactly once.
        let mut sorted = c.oids.clone();
        sorted.sort_unstable();
        let expect: Vec<Oid> = (0..300_000).filter(|i| i % 2 == 1).collect();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn preserve_order_option_keeps_input_order_and_costs_more() {
        let env = Env::paper_default();
        let vals: Vec<u64> = (0..100_000u64).map(|i| i % 3).collect();
        let arr = device_array(&env, 2, &vals);
        let opts = ScanOptions {
            preserve_order: true,
        };
        let mut l_ord = CostLedger::new();
        let c = select_range(&env, &arr, 0, 0, &opts, &mut l_ord);
        assert!(c.sorted);
        let mut l_scram = CostLedger::new();
        let _ = select_range(&env, &arr, 0, 0, &ScanOptions::default(), &mut l_scram);
        assert!(l_ord.breakdown().device > l_scram.breakdown().device);
    }

    #[test]
    fn chained_selection_preserves_candidate_order() {
        let env = Env::paper_default();
        let a_vals: Vec<u64> = (0..150_000u64).map(|i| i % 100).collect();
        let b_vals: Vec<u64> = (0..150_000u64).map(|i| (i / 7) % 50).collect();
        let a = device_array(&env, 7, &a_vals);
        let b = device_array(&env, 6, &b_vals);
        let mut ledger = CostLedger::new();
        let c1 = select_range(&env, &a, 10, 30, &ScanOptions::default(), &mut ledger);
        assert!(!c1.sorted, "three thread blocks scramble the list");
        // Chain a second selection onto c1's survivors.
        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        ScanSpec::new(&b, None, 5, 25, Some(c1.len())).emit(
            ScanRows::Oids(&c1.oids),
            &mut oids,
            &mut approx,
        );
        let c2 = Candidates::from_pairs(oids, approx);
        // c2 oids are a subsequence of c1 oids (same permutation).
        let mut it = c1.oids.iter();
        for oid in &c2.oids {
            assert!(it.any(|o| o == oid), "c2 must be a subsequence of c1");
        }
        // And the filter is correct.
        for (&oid, &apx) in c2.oids.iter().zip(&c2.approx) {
            assert_eq!(b_vals[oid as usize], apx);
            assert!((5..=25).contains(&apx));
            assert!((10..=30).contains(&a_vals[oid as usize]));
        }
    }

    #[test]
    fn empty_result_is_sorted_dense() {
        let env = Env::paper_default();
        let arr = device_array(&env, 8, &[1, 2, 3]);
        let mut ledger = CostLedger::new();
        let c = select_range(&env, &arr, 100, 200, &ScanOptions::default(), &mut ledger);
        assert!(c.is_empty());
        assert!(c.sorted && c.dense);
    }

    /// The four cost formulas, pinned with hand-computed bytes (10-bit
    /// column: 100 output pairs stream as ⌈100·42/8⌉ = 525 bytes, one
    /// scattered element access touches 4).
    #[test]
    fn charge_bills_each_source_and_input_its_own_formula() {
        let env = Env::paper_default();
        let fact = device_array(&env, 10, &vec![7; BLOCK_ROWS + 1]);
        let dim = device_array(&env, 10, &[7; 50]);
        let link = device_array(&env, 7, &vec![3; 1000]);
        let billed = |spec: ScanSpec<'_>| {
            let mut ledger = CostLedger::with_trace();
            spec.charge(&env, 100, true, &mut ledger);
            let events: Vec<(String, u64)> = ledger
                .events()
                .iter()
                .map(|e| (e.label.clone(), e.bytes))
                .collect();
            events
        };
        let label = |l: &str, bytes: u64| (l.to_string(), bytes);
        assert_eq!(
            billed(ScanSpec::new(&fact, None, 0, 9, None)),
            [
                label("select.approx.scan", fact.packed_bytes() + 525),
                label("select.approx.order", 1050),
            ]
        );
        assert_eq!(
            billed(ScanSpec::new(&dim, Some(&link), 0, 9, None)),
            [label(
                "select.approx.scan-indirect",
                link.packed_bytes() + 1000 * 4
            )]
        );
        assert_eq!(
            billed(ScanSpec::new(&fact, None, 0, 9, Some(300))),
            [label("select.approx.gather-filter", 300 * 4 + 525)]
        );
        assert_eq!(
            billed(ScanSpec::new(&dim, Some(&link), 0, 9, Some(300))),
            [label("select.approx.gather-filter-indirect", 300 * (4 + 4))]
        );
        // A spec that can leave matches undecided writes one decided bit
        // per pair; one that decides them all (the default) writes none.
        assert_eq!(
            billed(ScanSpec::new(&fact, None, 0, 9, Some(300)).deciding(Some((1, 8)))),
            [label("select.approx.gather-filter", 300 * 4 + 525 + 13)]
        );
        assert_eq!(
            billed(ScanSpec::new(&fact, None, 0, 9, Some(300)).deciding(Some((0, 9)))),
            [label("select.approx.gather-filter", 300 * 4 + 525)]
        );
    }

    #[test]
    fn block_order_covers_all_blocks() {
        for n in [1usize, 2, 3, 7, 8, 9, 64, 100] {
            let mut seen: Vec<usize> = block_order(n).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "nblocks={n}");
        }
        // And actually permutes for multi-block inputs.
        let order: Vec<usize> = block_order(8).collect();
        assert_ne!(order, (0..8).collect::<Vec<_>>());
    }
}
