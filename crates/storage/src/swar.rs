//! SWAR word-parallel predicates over packed words.
//!
//! The approximate selection is the hot loop of the whole system: it
//! streams the bit-packed approximation and keeps values inside a relaxed
//! `[lo, hi]` range. The scan kernels used to *decode* every element into
//! a `u64` scratch buffer and compare one value at a time; this module
//! evaluates the comparison **in the packed domain** instead
//! (BitWeaving-style), producing a one-bit-per-element match mask 64
//! elements at a time and touching no scratch memory at all.
//!
//! # How the word-parallel compare works
//!
//! For element width `w` (in bits), a group of `K = 64 / (w + 1)` packed
//! elements is lifted into `K` lanes of `L = w + 1` bits inside one
//! `u64` — the extra bit per lane is the classic SWAR *spare carry bit*.
//! With `H` the mask of every lane's top bit (bit `w` of each lane):
//!
//! * `((x | H) - rep(lo)) & H` has a lane's top bit set iff
//!   `x >= lo` — the subtraction borrows out of the spare bit exactly
//!   when the lane value is too small, and the spare bit stops the
//!   borrow from rippling into the next lane;
//! * `!((x | H) - rep(hi + 1)) & H` has the top bit set iff
//!   `x <= hi` (i.e. not `x >= hi + 1`; `hi + 1 <= 2^w` still fits the
//!   `w+1`-bit lane).
//!
//! ANDing the two and compacting the `K` strided top bits yields `K`
//! match bits per a handful of word ops, branch-free. Lane lifting reads
//! the packed stream directly through a two-word window, so each backing
//! word is loaded once — like [`BitPackedVec::unpack_range`] — but
//! nothing is ever written back to memory.
//!
//! Lanes stop paying once they get too wide: past
//! [`SWAR_MAX_WIDTH`] bits only two lanes fit a word and the lift/compact
//! bookkeeping costs as much as two scalar compares, so [`RangeMatcher`]
//! falls back to a decode-and-compare loop there (and for `width == 0`,
//! where no bits exist to compare). Every path is exhaustively checked
//! equivalent to [`BitPackedVec::get`]-based evaluation.

use crate::bitpack::{BitPackedVec, DECODE_BLOCK};
use crate::lanes::{self, LaneParams};
use bwd_types::bits::low_mask;

/// Widest element (bits) the SWAR lanes still pay for. At `w = 21` the
/// `w+1 = 22`-bit lanes fit two per word (one word op tests two values);
/// past that the lift overhead eats the win and the scalar fallback is
/// used.
pub const SWAR_MAX_WIDTH: u32 = 21;

/// Whether [`RangeMatcher`] takes the word-parallel path for
/// `width`-bit elements (widths outside `1..=`[`SWAR_MAX_WIDTH`] use the
/// scalar fallback — with identical results either way).
#[inline]
pub fn swar_applicable(width: u32) -> bool {
    (1..=SWAR_MAX_WIDTH).contains(&width)
}

/// A range predicate compiled against one packed vector: the bound
/// classification (empty / all-match / SWAR / scalar) and the SWAR lane
/// constants are computed once, then [`RangeMatcher::match_word`] tests
/// up to 64 elements per call. This is the unit the mask-producing scan
/// kernels build on — chained mask refinements call `match_word` only
/// for mask words that still have candidates.
pub struct RangeMatcher<'a> {
    v: &'a BitPackedVec,
    kind: MatchKind,
}

enum MatchKind {
    /// `lo > hi`, or `lo` beyond the width's maximum: nothing matches.
    Empty,
    /// `[lo, hi]` covers the whole stored domain: everything matches.
    All,
    /// Word-parallel banked compare (widths `1..=SWAR_MAX_WIDTH`). The
    /// bound constants live in a [`LaneParams`] so the 64-aligned bulk of
    /// a fill goes through the batch kernels in [`crate::lanes`].
    Swar {
        width: usize,
        lane: usize,
        k: usize,
        p: LaneParams,
    },
    /// Decode-and-compare fallback (wide elements).
    Scalar { lo: u64, hi: u64 },
}

impl<'a> RangeMatcher<'a> {
    /// Compile `lo <= x <= hi` against `v`'s width. An empty range
    /// (`lo > hi`) matches nothing; `hi` past the width's maximum value
    /// is clamped.
    pub fn new(v: &'a BitPackedVec, lo: u64, hi: u64) -> Self {
        let width = v.width();
        let max = low_mask(width);
        let kind = if lo > hi || lo > max {
            MatchKind::Empty
        } else {
            let hi = hi.min(max);
            if lo == 0 && hi == max {
                MatchKind::All
            } else if swar_applicable(width) {
                let width = width as usize;
                let lane = width + 1;
                let k = 64 / lane; // >= 2 for width <= 21
                                   // rep(1): bit j*lane set for every lane j. Multiplying a
                                   // lane-sized value by this replicates it into every lane
                                   // (terms cannot overlap, so nothing carries between
                                   // lanes).
                let mut ones = 0u64;
                for j in 0..k {
                    ones |= 1u64 << (j * lane);
                }
                MatchKind::Swar {
                    width,
                    lane,
                    k,
                    p: LaneParams {
                        elem_mask: low_mask(width as u32),
                        h: ones << width, // every lane's spare top bit
                        lo_rep: lo * ones,
                        hi1_rep: (hi + 1) * ones, // hi+1 <= 2^width fits a lane
                    },
                }
            } else {
                MatchKind::Scalar { lo, hi }
            }
        };
        RangeMatcher { v, kind }
    }

    /// Whether no value can match (callers may skip the scan entirely).
    #[inline]
    pub fn is_empty_range(&self) -> bool {
        matches!(self.kind, MatchKind::Empty)
    }

    /// Match bits for elements `start..start + n` (`n <= 64`): bit `k`
    /// set iff element `start + k` is inside the range; bits `n..` zero.
    ///
    /// # Panics
    /// Panics (debug) if `n > 64` or the range is out of bounds.
    #[inline]
    pub fn match_word(&self, start: usize, n: usize) -> u64 {
        debug_assert!(n <= 64 && start + n <= self.v.len());
        if n == 0 {
            return 0;
        }
        let full = low_mask(n as u32);
        match self.kind {
            MatchKind::Empty => 0,
            MatchKind::All => full,
            MatchKind::Swar { width, lane, k, p } => {
                let LaneParams {
                    elem_mask,
                    h,
                    lo_rep,
                    hi1_rep,
                } = p;
                let words = self.v.words();
                let mut bits = 0u64;
                let mut j = 0usize;
                while j < n {
                    let g = (n - j).min(k);
                    // A two-word window holds the whole g-element group:
                    // g * width <= k * width < 64 bits.
                    let bit = (start + j) as u64 * width as u64;
                    let wi = (bit / 64) as usize;
                    let sh = (bit % 64) as u32;
                    let win = if sh == 0 {
                        words[wi]
                    } else {
                        (words[wi] >> sh) | (words.get(wi + 1).copied().unwrap_or(0) << (64 - sh))
                    };
                    // Lift: lane t moves from bit t*width to t*lane (one
                    // spare bit inserted per element); unused high lanes
                    // stay zero.
                    let mut lanes = win & elem_mask;
                    for t in 1..g {
                        lanes |= (win & (elem_mask << (t * width))) << t;
                    }
                    // The banked compare described in the module docs.
                    let ge_lo = (lanes | h).wrapping_sub(lo_rep);
                    let le_hi = !(lanes | h).wrapping_sub(hi1_rep);
                    let tops = ge_lo & le_hi & h;
                    // Compact the strided top bits (bit t*lane + width)
                    // into g adjacent match bits.
                    let strided = tops >> width;
                    let mut group = 0u64;
                    for t in 0..g {
                        group |= ((strided >> (t * lane)) & 1) << t;
                    }
                    bits |= group << j;
                    j += g;
                }
                bits
            }
            MatchKind::Scalar { lo, hi } => {
                let mut buf = [0u64; DECODE_BLOCK];
                self.v.unpack_range(start, &mut buf[..n]);
                let mut bits = 0u64;
                for (kk, &x) in buf[..n].iter().enumerate() {
                    bits |= u64::from(x >= lo && x <= hi) << kk;
                }
                bits
            }
        }
    }

    /// Fill a whole mask slice: bit `k % 64` of `mask[k / 64]` set iff
    /// element `start + k` matches, for `k` in `0..n`.
    ///
    /// When `start` is 64-aligned (every mask-producing scan partition's
    /// case — partitions are word-aligned) the full blocks run through
    /// the monomorphized batch kernels in [`crate::lanes`]; only a
    /// partial tail word (and any unaligned call) uses the per-word
    /// [`RangeMatcher::match_word`] loop.
    ///
    /// # Panics
    /// Panics if `start + n > v.len()` or `mask.len() != n.div_ceil(64)`.
    pub fn fill(&self, start: usize, n: usize, mask: &mut [u64]) {
        self.check_fill(start, n, mask.len());
        if let MatchKind::Swar { width, p, .. } = self.kind {
            if start.is_multiple_of(64) {
                let full = n / 64;
                let words = self.v.words();
                lanes::fill_blocks(width as u32, p, words, start / 64, &mut mask[..full]);
                if !n.is_multiple_of(64) {
                    mask[full] = self.match_word(start + full * 64, n % 64);
                }
                return;
            }
        }
        let mut idx = 0usize;
        for m in mask.iter_mut() {
            let c = (n - idx).min(64);
            *m = self.match_word(start + idx, c);
            idx += c;
        }
    }

    /// Match-and-refine: `out[i] = match_word(..) & input[i]`, with
    /// all-zero input words skipped entirely (no packed-word loads) and
    /// contiguous runs of live full words batched through the lane
    /// kernels. `first_word` is the element-space index of the first mask
    /// word (so elements `first_word * 64 ..` are covered) and must
    /// address full blocks for all but the last of the `n` elements.
    ///
    /// This is the AND-refinement step of a chained mask selection: the
    /// candidate mask never round-trips through an index list.
    pub fn fill_and(&self, first_word: usize, n: usize, input: &[u64], out: &mut [u64]) {
        let start = first_word * 64;
        self.check_fill(start, n, out.len());
        assert_eq!(input.len(), out.len(), "input/output word counts differ");
        let full = n / 64;
        match self.kind {
            MatchKind::Empty => out.fill(0),
            MatchKind::All => {
                out.copy_from_slice(input);
                if !n.is_multiple_of(64) {
                    out[full] &= low_mask((n % 64) as u32);
                }
            }
            MatchKind::Swar { width, p, .. } => {
                let words = self.v.words();
                let mut i = 0usize;
                while i < full {
                    if input[i] == 0 {
                        out[i] = 0;
                        i += 1;
                        continue;
                    }
                    let mut j = i + 1;
                    while j < full && input[j] != 0 {
                        j += 1;
                    }
                    lanes::fill_blocks(width as u32, p, words, first_word + i, &mut out[i..j]);
                    for w in i..j {
                        out[w] &= input[w];
                    }
                    i = j;
                }
                if !n.is_multiple_of(64) {
                    out[full] = if input[full] == 0 {
                        0
                    } else {
                        self.match_word(start + full * 64, n % 64) & input[full]
                    };
                }
            }
            MatchKind::Scalar { .. } => {
                for (w, m) in out.iter_mut().enumerate() {
                    let c = (n - w * 64).min(64);
                    *m = if input[w] == 0 {
                        0
                    } else {
                        self.match_word(start + w * 64, c) & input[w]
                    };
                }
            }
        }
    }

    fn check_fill(&self, start: usize, n: usize, mask_words: usize) {
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.v.len()),
            "range {start}.. +{n} out of bounds (len {})",
            self.v.len()
        );
        assert_eq!(mask_words, n.div_ceil(64), "mask word count");
    }
}

/// Matches in a mask (the candidate count of a mask-producing selection).
#[inline]
pub fn mask_count(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_mask(v: &BitPackedVec, start: usize, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let mut mask = vec![0u64; n.div_ceil(64)];
        for kk in 0..n {
            let x = v.get(start + kk);
            if x >= lo && x <= hi {
                mask[kk / 64] |= 1u64 << (kk % 64);
            }
        }
        mask
    }

    /// [`RangeMatcher::fill`] into a fresh mask.
    fn filled(v: &BitPackedVec, start: usize, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let mut mask = vec![0u64; n.div_ceil(64)];
        RangeMatcher::new(v, lo, hi).fill(start, n, &mut mask);
        mask
    }

    /// The same mask from one [`RangeMatcher::match_word`] call per word —
    /// the loop the lane kernels must agree with.
    fn per_word(v: &BitPackedVec, start: usize, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let m = RangeMatcher::new(v, lo, hi);
        (0..n.div_ceil(64))
            .map(|w| m.match_word(start + w * 64, (n - w * 64).min(64)))
            .collect()
    }

    fn pseudo_vals(width: u32, n: usize, seed: u64) -> Vec<u64> {
        let mask = low_mask(width);
        (0..n as u64)
            .map(|i| (i.wrapping_add(seed)).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
            .collect()
    }

    /// Exhaustive equivalence against `get`-based evaluation: every width
    /// class (SWAR widths incl. the lane-boundary trio 20/21/22, the
    /// scalar fallback, width 0 and 64), start offsets that straddle
    /// words, and bound shapes from empty to all-match.
    #[test]
    fn matches_get_based_evaluation_everywhere() {
        for width in [
            0u32, 1, 2, 3, 5, 7, 8, 12, 13, 16, 20, 21, 22, 24, 31, 32, 33, 63, 64,
        ] {
            let vals = pseudo_vals(width, 331, width as u64);
            let v = BitPackedVec::from_slice(width, &vals);
            let max = low_mask(width);
            let mid = max / 2;
            let bounds = [
                (0, 0),
                (0, max),
                (max, max),
                (mid / 2, mid),
                (1, 0),                            // empty range (lo > hi)
                (max, 0),                          // empty range
                (mid, mid),                        // point
                (max.saturating_add(1), u64::MAX), // lo past the domain (or at its edge for width 64)
                (0, u64::MAX),                     // hi clamped
            ];
            for &(lo, hi) in &bounds {
                for &(start, n) in &[
                    (0usize, 331usize),
                    (1, 330),
                    (63, 130),
                    (64, 64),
                    (65, 63),
                    (330, 1),
                    (7, 0),
                ] {
                    let expect = reference_mask(&v, start, n, lo, hi);
                    let what = format!("width={width} lo={lo} hi={hi} start={start} n={n}");
                    assert_eq!(filled(&v, start, n, lo, hi), expect, "fill: {what}");
                    assert_eq!(per_word(&v, start, n, lo, hi), expect, "per word: {what}");
                }
            }
        }
    }

    #[test]
    fn width_zero_matches_iff_range_contains_zero() {
        let v = BitPackedVec::from_slice(0, &vec![0u64; 100]);
        let mask = filled(&v, 0, 100, 0, 0);
        assert_eq!(mask_count(&mask), 100);
        assert_eq!(mask[1], low_mask(36)); // tail bits clear
        assert_eq!(mask_count(&filled(&v, 0, 100, 1, 5)), 0);
    }

    #[test]
    fn all_and_none_match_fast_paths() {
        let vals = pseudo_vals(12, 1000, 7);
        let v = BitPackedVec::from_slice(12, &vals);
        assert_eq!(mask_count(&filled(&v, 0, 1000, 0, low_mask(12))), 1000);
        assert_eq!(mask_count(&filled(&v, 0, 1000, 5, 4)), 0);
    }

    /// The lane-batched fill agrees with the per-word `match_word` loop
    /// and the `get()` oracle at every SWAR width (plus two fallback
    /// widths), over aligned and unaligned spans. Full-block counts cover
    /// every drain of the batch kernel: 15 = 8 + 4 + 3×1, 10 = 8 + 2×1,
    /// 5 = 4 + 1, 1. `fill_and` against an all-ones input is the same
    /// mask.
    #[test]
    fn lane_fill_agrees_with_per_word_fill() {
        for width in (1u32..=21).chain([22, 32]) {
            let vals = pseudo_vals(width, 1000, u64::from(width));
            let v = BitPackedVec::from_slice(width, &vals);
            let max = low_mask(width);
            let (lo, hi) = (max / 8, max / 2);
            for &(start, n) in &[
                (0usize, 1000usize),
                (0, 993),
                (64, 640),
                (128, 65),
                (320, 323),
                (3, 900),
            ] {
                let what = format!("width={width} start={start} n={n}");
                let lane = filled(&v, start, n, lo, hi);
                assert_eq!(lane, per_word(&v, start, n, lo, hi), "{what}");
                assert_eq!(lane, reference_mask(&v, start, n, lo, hi), "{what}");
                if start.is_multiple_of(64) {
                    let mut anded = vec![0u64; lane.len()];
                    RangeMatcher::new(&v, lo, hi).fill_and(
                        start / 64,
                        n,
                        &vec![u64::MAX; lane.len()],
                        &mut anded,
                    );
                    assert_eq!(anded, lane, "fill_and {what}");
                }
            }
        }
    }

    /// `fill_and` refines an arbitrary input mask exactly like computing
    /// the full match mask and ANDing after the fact — including its
    /// zero-word skip path and the all/empty fast kinds.
    #[test]
    fn fill_and_equals_fill_then_and() {
        for width in [5u32, 13, 21, 24] {
            let vals = pseudo_vals(width, 777, 99 + u64::from(width));
            let v = BitPackedVec::from_slice(width, &vals);
            let max = low_mask(width);
            for (lo, hi) in [(max / 8, max / 2), (0, max), (3, 1), (0, 0)] {
                let n = 777usize;
                let words = n.div_ceil(64);
                // A patchy input: zero words, dense words, sparse words.
                let input: Vec<u64> = (0..words as u64)
                    .map(|i| match i % 4 {
                        0 => 0,
                        1 => u64::MAX,
                        _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    })
                    .collect();
                let plain = filled(&v, 0, n, lo, hi);
                let expect: Vec<u64> = plain.iter().zip(&input).map(|(a, b)| a & b).collect();
                let mut got = vec![0u64; words];
                RangeMatcher::new(&v, lo, hi).fill_and(0, n, &input, &mut got);
                assert_eq!(got, expect, "width={width} lo={lo} hi={hi}");
            }
        }
    }

    proptest! {
        /// fill == per-word == `get` for arbitrary widths (0..=64, so both
        /// dispatcher arms and the 20/21/22 lane boundary are hit),
        /// arbitrary sub-ranges (word straddles included) and arbitrary
        /// bounds, including empty and clamped ranges.
        #[test]
        fn prop_fill_equals_per_word_and_get(
            width in 0u32..=64,
            raw in proptest::collection::vec(any::<u64>(), 0..400),
            start_frac in 0u32..1000,
            len_frac in 0u32..=1000,
            lo_frac in 0u32..=1100,
            span_frac in 0u32..=1100,
        ) {
            let mask_w = low_mask(width);
            let vals: Vec<u64> = raw.iter().map(|v| v & mask_w).collect();
            let v = BitPackedVec::from_slice(width, &vals);
            let start = vals.len() * start_frac as usize / 1000;
            let n = (vals.len() - start) * len_frac as usize / 1000;
            // Bounds sweep past the domain edge on purpose (frac > 1000)
            // to exercise clamping and lo-past-max emptiness.
            let domain = mask_w as u128 + 1;
            let lo = ((domain * lo_frac as u128) / 1000).min(u64::MAX as u128) as u64;
            let hi = lo.saturating_add(((domain * span_frac as u128) / 1000) as u64);
            let got = filled(&v, start, n, lo, hi);
            prop_assert_eq!(&got, &reference_mask(&v, start, n, lo, hi),
                "width={} start={} n={} lo={} hi={}", width, start, n, lo, hi);
            prop_assert_eq!(&got, &per_word(&v, start, n, lo, hi));
        }

        /// Lane-boundary widths get a dedicated dense sweep: 20 (2 spare
        /// word bits), 21 (the last SWAR width) and 22 (first fallback).
        #[test]
        fn prop_lane_boundary_widths(
            width_idx in 0u32..3,
            seed in any::<u64>(),
            lo in any::<u64>(),
            hi in any::<u64>(),
        ) {
            let width = 20 + width_idx;
            let vals = pseudo_vals(width, 200, seed);
            let v = BitPackedVec::from_slice(width, &vals);
            let lo = lo & low_mask(width + 1);
            let hi = hi & low_mask(width + 1);
            prop_assert_eq!(filled(&v, 0, 200, lo, hi), reference_mask(&v, 0, 200, lo, hi));
        }
    }
}
