//! Adaptive candidate representations: positional bitmaps vs index lists.
//!
//! A selection's output can be materialized two ways:
//!
//! * **Indices** — the classic [`Candidates`] list of (oid, approximation)
//!   pairs, 12 bytes per survivor, in the kernel's block-scrambled
//!   emission order. Cheap when few tuples survive; expensive when most
//!   do (a 90%-selective scan writes ~11x the mask's bytes).
//! * **Bitmap** — a [`SelMask`]: one bit per *input row*, in input-row
//!   position. An eighth of a byte per row regardless of selectivity,
//!   produced branch-free straight from the SWAR word-parallel compare,
//!   and chained predicates refine it by ANDing — skipping every 64-row
//!   group that already has no survivors.
//!
//! [`SelVec`] is the sum type the A&R executor threads through its
//! approximate-selection chain, choosing the representation per query and
//! converting **lazily** at the boundary where downstream operators need
//! positions and values (refinement download, projection gathers,
//! grouping).
//!
//! # Bit-identity with the index path
//!
//! A bitmap is positional, but the simulated parallel selection emits
//! candidates in bit-reversed block order (§IV-A item 3). A [`SelMask`]
//! therefore remembers the scan geometry that produced it
//! ([`ScanOptions`] block size and ordering flag); conversion walks the
//! same [`scan_block_ranges`] sequence and emits set bits block by block
//! via `trailing_zeros`, reproducing the index path's permutation byte
//! for byte — same oids, same order, same approximations. Chained
//! refinements AND masks positionally, which preserves exactly the
//! subsequence the chained index filter would keep.
//!
//! All of this is representation only: [`crate::scan::ScanSpec::charge`]
//! bills the paper's candidate-pair model in both representations
//! (wall-clock is what the bitmap improves), so costs and results are
//! bit-identical whichever representation the executor picks.

use crate::array::DeviceArray;
use crate::candidates::Candidates;
use crate::scan::{scan_block_ranges, ScanOptions};
use bwd_storage::DECODE_BLOCK;
use bwd_types::Oid;
use std::ops::Range;

/// Set bits in a 64-block below which survivor emission reads elements
/// one by one instead of bulk-decoding the whole block (mirrors the
/// 1-in-8 density heuristic of [`crate::scan::cache_worthwhile`]).
/// Shared by mask→index conversion here and the packed-domain arm of
/// [`crate::scan::ScanSpec::emit`], so the cutoff cannot drift between
/// the two emission paths.
pub(crate) const DENSE_BLOCK_MIN: u32 = 8;

/// A positional match bitmap over a scan's input rows, plus the scan
/// geometry needed to convert it into the equivalent block-scrambled
/// candidate list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelMask {
    words: Vec<u64>,
    rows: usize,
    count: usize,
    block_size: usize,
    preserve_order: bool,
}

impl SelMask {
    /// Wrap filled mask words (bit `r % 64` of `words[r / 64]` = row `r`
    /// matched) over `rows` input rows scanned with `opts`' geometry.
    ///
    /// # Panics
    /// Panics if the word count doesn't cover `rows` exactly.
    pub fn from_words(words: Vec<u64>, rows: usize, opts: &ScanOptions) -> Self {
        assert_eq!(words.len(), rows.div_ceil(64), "mask word count");
        let count = bwd_storage::mask_count(&words);
        SelMask {
            words,
            rows,
            count,
            block_size: opts.block_size,
            preserve_order: opts.preserve_order,
        }
    }

    /// An output mask with the same geometry as `self` (chained
    /// refinements keep the original scan's emission metadata).
    pub fn like(&self, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), self.words.len(), "mask word count");
        let count = bwd_storage::mask_count(&words);
        SelMask {
            words,
            rows: self.rows,
            count,
            block_size: self.block_size,
            preserve_order: self.preserve_order,
        }
    }

    /// Rows the mask covers (the scanned relation's length).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matching rows (the candidate count — what admission accounting
    /// and the scan charge bill, exactly as if the pairs were
    /// materialized).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The backing mask words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The scan geometry this mask was produced under.
    pub fn scan_options(&self) -> ScanOptions {
        ScanOptions {
            block_size: self.block_size,
            preserve_order: self.preserve_order,
        }
    }

    /// Materialize the candidate list this mask represents —
    /// bit-identical to what [`crate::scan::select_range`] (or the
    /// chained filters) would have produced directly: set bits are
    /// emitted per simulated thread block in the scan's emission order,
    /// ascending within each block, with approximations decoded from
    /// `arr`.
    pub fn to_candidates(&self, arr: &DeviceArray) -> Candidates {
        assert_eq!(arr.len(), self.rows, "mask/array length mismatch");
        let mut oids: Vec<Oid> = Vec::with_capacity(self.count);
        let mut approx: Vec<u64> = Vec::with_capacity(self.count);
        for r in scan_block_ranges(self.rows, &self.scan_options()) {
            self.append_block(arr, r, &mut oids, &mut approx);
        }
        Candidates::from_pairs(oids, approx)
    }

    /// Emit the candidates of row range `r` (one simulated thread block,
    /// or a morsel's chunk of blocks) in ascending row order, appending
    /// to `oids`/`approx` — the partition form morsel workers use before
    /// their outputs concatenate in block order.
    pub fn append_block(
        &self,
        arr: &DeviceArray,
        r: Range<usize>,
        oids: &mut Vec<Oid>,
        approx: &mut Vec<u64>,
    ) {
        let data = arr.data();
        let mut buf = [0u64; DECODE_BLOCK];
        let mut s = r.start;
        while s < r.end {
            let seg_start = (s / 64) * 64;
            let e = r.end.min(seg_start + 64);
            // This 64-row segment's bits, clipped to [s, e).
            let lo_clip = (s - seg_start) as u32;
            let hi_clip = (e - seg_start) as u32;
            let mut bits = self.words[s / 64] & clip_mask(lo_clip, hi_clip);
            if bits != 0 {
                let seg_len = (self.rows - seg_start).min(64);
                if bits.count_ones() >= DENSE_BLOCK_MIN {
                    // Dense segment: decode the whole 64-row block once.
                    data.unpack_range(seg_start, &mut buf[..seg_len]);
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        oids.push((seg_start + k) as Oid);
                        approx.push(buf[k]);
                        bits &= bits - 1;
                    }
                } else {
                    // Sparse segment: touch only the survivors.
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        oids.push((seg_start + k) as Oid);
                        approx.push(data.get(seg_start + k));
                        bits &= bits - 1;
                    }
                }
            }
            s = e;
        }
    }

    /// Materialize the candidate list of an *indirected* (dimension-side)
    /// mask: bit `i` covers fact row `i`, and the approximation decoded
    /// for it is `arr[link[i]]` — bit-identical to what a linked
    /// [`crate::scan::ScanSpec`] emits directly.
    pub fn to_candidates_indirect(&self, arr: &DeviceArray, link: &DeviceArray) -> Candidates {
        assert_eq!(link.len(), self.rows, "mask/link length mismatch");
        let mut oids: Vec<Oid> = Vec::with_capacity(self.count);
        let mut approx: Vec<u64> = Vec::with_capacity(self.count);
        for r in scan_block_ranges(self.rows, &self.scan_options()) {
            self.append_block_indirect(arr, link, r, &mut oids, &mut approx);
        }
        Candidates::from_pairs(oids, approx)
    }

    /// [`SelMask::append_block`] through a link array: emit the
    /// candidates of fact-row range `r` with approximations
    /// `arr[link[row]]`. Dense segments bulk-decode the *link* block (the
    /// dimension reads stay per-element — link values land anywhere).
    pub fn append_block_indirect(
        &self,
        arr: &DeviceArray,
        link: &DeviceArray,
        r: Range<usize>,
        oids: &mut Vec<Oid>,
        approx: &mut Vec<u64>,
    ) {
        let link_data = link.data();
        let mut buf = [0u64; DECODE_BLOCK];
        let mut s = r.start;
        while s < r.end {
            let seg_start = (s / 64) * 64;
            let e = r.end.min(seg_start + 64);
            let lo_clip = (s - seg_start) as u32;
            let hi_clip = (e - seg_start) as u32;
            let mut bits = self.words[s / 64] & clip_mask(lo_clip, hi_clip);
            if bits != 0 {
                let seg_len = (self.rows - seg_start).min(64);
                if bits.count_ones() >= DENSE_BLOCK_MIN {
                    link_data.unpack_range(seg_start, &mut buf[..seg_len]);
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        oids.push((seg_start + k) as Oid);
                        approx.push(arr.get(buf[k] as usize));
                        bits &= bits - 1;
                    }
                } else {
                    while bits != 0 {
                        let k = bits.trailing_zeros() as usize;
                        oids.push((seg_start + k) as Oid);
                        approx.push(arr.get(link.get(seg_start + k) as usize));
                        bits &= bits - 1;
                    }
                }
            }
            s = e;
        }
    }

    /// The candidate oids this mask represents, in the scan's emission
    /// order — [`SelMask::to_candidates`] without decoding a single
    /// approximation, for consumers that only need positions.
    pub fn oids(&self) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.count);
        for r in scan_block_ranges(self.rows, &self.scan_options()) {
            let mut s = r.start;
            while s < r.end {
                let seg_start = (s / 64) * 64;
                let e = r.end.min(seg_start + 64);
                let clip = clip_mask((s - seg_start) as u32, (e - seg_start) as u32);
                let mut bits = self.words[s / 64] & clip;
                while bits != 0 {
                    out.push((seg_start + bits.trailing_zeros() as usize) as Oid);
                    bits &= bits - 1;
                }
                s = e;
            }
        }
        out
    }

    /// The set rows in ascending order, without values (diagnostics and
    /// mask→index invariant tests).
    pub fn sorted_oids(&self) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.count);
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                out.push((wi * 64 + k) as Oid);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Rebuild a mask from a candidate list over the same scan geometry
    /// (the inverse of [`SelMask::to_candidates`], used by roundtrip
    /// tests).
    pub fn from_candidates(c: &Candidates, rows: usize, opts: &ScanOptions) -> Self {
        let mut words = vec![0u64; rows.div_ceil(64)];
        for &oid in &c.oids {
            words[oid as usize / 64] |= 1u64 << (oid as usize % 64);
        }
        Self::from_words(words, rows, opts)
    }
}

/// Bits `[lo, hi)` of a word set (`hi <= 64`).
#[inline]
fn clip_mask(lo: u32, hi: u32) -> u64 {
    let high = if hi >= 64 { u64::MAX } else { (1u64 << hi) - 1 };
    high & !((1u64 << lo) - 1)
}

/// The adaptive candidate representation the A&R executor threads through
/// its approximate-selection chain.
#[derive(Debug, Clone)]
pub enum SelVec {
    /// Materialized (oid, approximation) pairs in emission order.
    Indices(Candidates),
    /// Positional bitmap; converts lazily at the gather boundary.
    Bitmap(SelMask),
}

impl SelVec {
    /// Candidate count (identical in both representations; this is what
    /// transient budgets and admission estimates bill).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SelVec::Indices(c) => c.len(),
            SelVec::Bitmap(m) => m.count(),
        }
    }

    /// Whether no candidates survived.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is the bitmap representation.
    #[inline]
    pub fn is_bitmap(&self) -> bool {
        matches!(self, SelVec::Bitmap(_))
    }

    /// The candidate list without conversion, when already materialized.
    #[inline]
    pub fn as_indices(&self) -> Option<&Candidates> {
        match self {
            SelVec::Indices(c) => Some(c),
            SelVec::Bitmap(_) => None,
        }
    }

    /// Materialize the candidate list (clones when already indices;
    /// converts — decoding approximations from `arr` — when a bitmap).
    /// The result is bit-identical whichever representation was held.
    pub fn to_candidates(&self, arr: &DeviceArray) -> Candidates {
        match self {
            SelVec::Indices(c) => c.clone(),
            SelVec::Bitmap(m) => m.to_candidates(arr),
        }
    }

    /// [`SelVec::to_candidates`] for a dimension-side selection: bitmap
    /// approximations decode as `arr[link[row]]`.
    pub fn to_candidates_indirect(&self, arr: &DeviceArray, link: &DeviceArray) -> Candidates {
        match self {
            SelVec::Indices(c) => c.clone(),
            SelVec::Bitmap(m) => m.to_candidates_indirect(arr, link),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{select_range, select_range_on, ScanSpec};
    use bwd_device::{CostLedger, Env};
    use bwd_storage::BitPackedVec;

    /// The whole-relation bitmap of a direct selection (AND-refining
    /// `input` when given), billed through the spec like the index path.
    fn mask_scan(
        env: &Env,
        arr: &DeviceArray,
        input: Option<&SelMask>,
        (lo, hi): (u64, u64),
        opts: &ScanOptions,
        ledger: &mut CostLedger,
    ) -> SelMask {
        let spec = ScanSpec::new(arr, None, lo, hi, input.map(SelMask::count));
        let mut words = vec![0u64; arr.len().div_ceil(64)];
        spec.fill_mask(input.map(SelMask::words), 0, &mut words);
        let mask = match input {
            Some(m) => m.like(words),
            None => SelMask::from_words(words, arr.len(), opts),
        };
        spec.charge(env, mask.count(), opts, ledger);
        mask
    }

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

    /// The mask path is bit-identical to the index path: same oids, same
    /// order (bit-reversed blocks), same approximations, same simulated
    /// costs.
    #[test]
    fn mask_to_candidates_matches_select_range_bit_for_bit() {
        let env = Env::paper_default();
        let vals: Vec<u64> = (0..200_000u64).map(|i| (i * 37) % 1000).collect();
        let arr = device_array(&env, 10, &vals);
        for block_size in [1usize << 12, 1 << 16, 1000] {
            let opts = ScanOptions {
                block_size,
                preserve_order: false,
            };
            let mut l_idx = CostLedger::new();
            let mut l_mask = CostLedger::new();
            let c_idx = select_range(&env, &arr, 100, 499, &opts, &mut l_idx);
            let mask = mask_scan(&env, &arr, None, (100, 499), &opts, &mut l_mask);
            assert_eq!(mask.count(), c_idx.len());
            let c_mask = mask.to_candidates(&arr);
            assert_eq!(c_mask, c_idx, "block_size={block_size}");
            assert_eq!(mask.oids(), c_idx.oids, "oids-only expansion");
            assert_eq!(
                l_idx.breakdown(),
                l_mask.breakdown(),
                "identical simulated costs"
            );
        }
    }

    /// Chained refinement on the mask ANDs positionally and stays
    /// bit-identical to the chained index filter.
    #[test]
    fn refine_on_mask_matches_chained_index_filter() {
        let env = Env::paper_default();
        let a_vals: Vec<u64> = (0..120_000u64).map(|i| i % 512).collect();
        let b_vals: Vec<u64> = (0..120_000u64).map(|i| (i / 3) % 256).collect();
        let a = device_array(&env, 9, &a_vals);
        let b = device_array(&env, 8, &b_vals);
        let opts = ScanOptions {
            block_size: 1 << 12,
            preserve_order: false,
        };
        let mut l_idx = CostLedger::new();
        let c1 = select_range(&env, &a, 40, 400, &opts, &mut l_idx);
        let c2 = select_range_on(&env, &b, &c1, 10, 99, &mut l_idx);
        let mut l_mask = CostLedger::new();
        let m1 = mask_scan(&env, &a, None, (40, 400), &opts, &mut l_mask);
        let m2 = mask_scan(&env, &b, Some(&m1), (10, 99), &opts, &mut l_mask);
        assert_eq!(m1.count(), c1.len());
        assert_eq!(m2.count(), c2.len());
        assert_eq!(m2.to_candidates(&b), c2);
        assert_eq!(l_idx.breakdown(), l_mask.breakdown());
    }

    /// mask → indices → mask roundtrips to the identical mask, and the
    /// sorted oids agree with the candidate set.
    #[test]
    fn mask_index_roundtrip_invariants() {
        let env = Env::paper_default();
        let vals: Vec<u64> = (0..50_000u64).map(|i| (i * 7919) % 4096).collect();
        let arr = device_array(&env, 12, &vals);
        let opts = ScanOptions {
            block_size: 1 << 12,
            preserve_order: false,
        };
        let mut ledger = CostLedger::new();
        let mask = mask_scan(&env, &arr, None, (1000, 2999), &opts, &mut ledger);
        let cands = mask.to_candidates(&arr);
        let back = SelMask::from_candidates(&cands, arr.len(), &opts);
        assert_eq!(back, mask, "mask -> indices -> mask roundtrip");
        let mut sorted = cands.oids.clone();
        sorted.sort_unstable();
        assert_eq!(mask.sorted_oids(), sorted);
        // SelVec agrees on counts and conversion in both representations.
        let as_bitmap = SelVec::Bitmap(mask);
        let as_indices = SelVec::Indices(cands.clone());
        assert_eq!(as_bitmap.len(), as_indices.len());
        assert_eq!(as_bitmap.to_candidates(&arr), cands);
        assert_eq!(as_indices.to_candidates(&arr), cands);
    }

    /// Empty and all-match masks convert to the right extremes.
    #[test]
    fn mask_extremes() {
        let env = Env::paper_default();
        let vals: Vec<u64> = (0..5000u64).map(|i| i % 64).collect();
        let arr = device_array(&env, 6, &vals);
        let opts = ScanOptions::default();
        let mut ledger = CostLedger::new();
        let none = mask_scan(&env, &arr, None, (100, 200), &opts, &mut ledger);
        assert_eq!(none.count(), 0);
        let c = none.to_candidates(&arr);
        assert!(c.is_empty() && c.sorted && c.dense);
        let all = mask_scan(&env, &arr, None, (0, 63), &opts, &mut ledger);
        assert_eq!(all.count(), 5000);
        let c = all.to_candidates(&arr);
        assert_eq!(c.len(), 5000);
        assert!(c.dense, "single block, everything matches");
        assert_eq!(c.approx, vals);
    }
}
