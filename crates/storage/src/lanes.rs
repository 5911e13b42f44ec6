//! Fixed-lane batch kernels for the SWAR packed-domain compare.
//!
//! [`crate::swar`]'s word-parallel compare is mathematically wide but its
//! PR 5 implementation was *structurally* narrow: one backing word per
//! iteration, with the group geometry (`bit / 64`, `bit % 64`, dynamic
//! lift/compact trip counts) recomputed per group. This module
//! restructures the hot loop around two facts:
//!
//! 1. **64-aligned element blocks are word-aligned.** A block of 64
//!    `w`-bit elements starting at element `64 * b` occupies exactly `w`
//!    backing words starting at word `w * b` — and the group geometry
//!    *within* a block (word offset, shift, group size, whether the group
//!    straddles two words) is a pure function of the group index,
//!    identical for every block. Monomorphizing the kernel per width
//!    ([`fill_blocks`] dispatches over `1..=`[`crate::SWAR_MAX_WIDTH`])
//!    turns all of that bookkeeping into compile-time constants and fully
//!    unrolls the lift/compact loops.
//! 2. **Blocks are independent**, so the kernel evaluates a fixed-size
//!    *batch* of them per iteration — [`U64x8`], draining remainders
//!    through [`U64x4`] and single blocks — plain
//!    `#[repr(C, align(64))]` wrappers over `[u64; N]` whose per-lane
//!    operations are written as trivially vectorizable element-wise loops
//!    (the layout `xiangxiecrypto/pico`-style bitwise value columns use).
//!    Within a batch every lane applies the *same* masks, shifts and
//!    bound representatives at a word stride of `w`, so the autovectorizer
//!    maps a batch op onto SIMD registers directly.
//!
//! The bound-classification constants ([`LaneParams`]) are computed once
//! per predicate by [`crate::RangeMatcher`] and threaded in by value;
//! nothing in the per-batch loop depends on runtime classification.

/// The per-predicate SWAR constants, hoisted out of every loop: the
/// element mask, the spare-bit mask `H`, and the replicated bound
/// representatives (see the [`crate::swar`] module docs for the algebra).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneParams {
    /// `low_mask(width)` — one element's bits.
    pub elem_mask: u64,
    /// Every `(width+1)`-bit lane's spare top bit.
    pub h: u64,
    /// `lo` replicated into every lane.
    pub lo_rep: u64,
    /// `hi + 1` replicated into every lane.
    pub hi1_rep: u64,
}

/// A fixed batch of `N` lanes of `u64`, cache-line aligned. One lane
/// holds one 64-element block's state; batch operations are element-wise
/// and uniform, which is exactly the shape the autovectorizer turns into
/// SIMD registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct U64xN<const N: usize>(pub [u64; N]);

/// Four-lane batch (the drain width).
pub type U64x4 = U64xN<4>;
/// Eight-lane batch (the production batch width: the wider straight-line
/// body wins on every width ≤ 16 even on SSE2 — better load/ALU overlap —
/// and AVX-class targets map it directly).
pub type U64x8 = U64xN<8>;

impl<const N: usize> U64xN<N> {
    /// All-zero batch.
    #[inline(always)]
    pub fn zero() -> Self {
        U64xN([0u64; N])
    }

    /// Load one two-word window per lane at a word stride of `stride`:
    /// lane `l` reads `words[idx0 + l * stride]`, shifted right by `sh`,
    /// topped up from the next word when `spans`. `sh`/`spans` are group
    /// constants in the monomorphized kernels, so the branch folds away.
    #[inline(always)]
    pub fn window(words: &[u64], idx0: usize, stride: usize, sh: u32, spans: bool) -> Self {
        let mut w = [0u64; N];
        if sh == 0 {
            for (l, slot) in w.iter_mut().enumerate() {
                *slot = words[idx0 + l * stride];
            }
        } else if spans {
            for (l, slot) in w.iter_mut().enumerate() {
                let wi = idx0 + l * stride;
                *slot = (words[wi] >> sh) | (words[wi + 1] << (64 - sh));
            }
        } else {
            for (l, slot) in w.iter_mut().enumerate() {
                *slot = words[idx0 + l * stride] >> sh;
            }
        }
        U64xN(w)
    }

    /// Copy the lanes into `out[..N]`.
    #[inline(always)]
    pub fn store(self, out: &mut [u64]) {
        out[..N].copy_from_slice(&self.0);
    }
}

impl<const N: usize> U64xN<N> {
    /// Lane-wise OR.
    #[inline(always)]
    pub fn or(self, o: Self) -> Self {
        let mut r = self.0;
        for (slot, x) in r.iter_mut().zip(o.0) {
            *slot |= x;
        }
        U64xN(r)
    }

    /// Lane-wise `self & !o`.
    #[inline(always)]
    pub fn andnot(self, o: Self) -> Self {
        let mut r = self.0;
        for (slot, x) in r.iter_mut().zip(o.0) {
            *slot &= !x;
        }
        U64xN(r)
    }

    /// Every lane ANDed with the scalar `m`.
    #[inline(always)]
    pub fn and1(self, m: u64) -> Self {
        let mut r = self.0;
        for slot in r.iter_mut() {
            *slot &= m;
        }
        U64xN(r)
    }

    /// Every lane ORed with the scalar `m`.
    #[inline(always)]
    pub fn or1(self, m: u64) -> Self {
        let mut r = self.0;
        for slot in r.iter_mut() {
            *slot |= m;
        }
        U64xN(r)
    }

    /// Every lane wrapping-subtracting the scalar `m`.
    #[inline(always)]
    pub fn sub1(self, m: u64) -> Self {
        let mut r = self.0;
        for slot in r.iter_mut() {
            *slot = slot.wrapping_sub(m);
        }
        U64xN(r)
    }

    /// Every lane shifted left by `k` (`k < 64`).
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn shl(self, k: u32) -> Self {
        let mut r = self.0;
        for slot in r.iter_mut() {
            *slot <<= k;
        }
        U64xN(r)
    }

    /// Every lane shifted right by `k` (`k < 64`).
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, k: u32) -> Self {
        let mut r = self.0;
        for slot in r.iter_mut() {
            *slot >>= k;
        }
        U64xN(r)
    }
}

/// A contiguous bit range `[start, end)` as a mask (`end <= 64`).
const fn bit_range(start: usize, end: usize) -> u64 {
    let hi = if end == 64 {
        u64::MAX
    } else {
        (1u64 << end) - 1
    };
    hi & !((1u64 << start) - 1)
}

/// The log-doubling pass constants for one element width: the lift
/// (spread) and compact (merge) stages both run in `ceil(log2 k)` passes
/// of three or four word ops instead of `k` per-element iterations —
/// that, plus batching, is where the lane path's win over the per-word
/// PR 5 loop comes from.
///
/// *Lift* moves element `t` from bit `t*W` to `t*(W+1)`; pass `j`
/// (applied high-to-low) shifts every element whose index has bit `j`
/// set up by `2^j`. With passes above `j` already applied, element `t`
/// sits at `t*W + 2^(j+1) * (t >> (j+1))`, so the moved elements form
/// contiguous bit ranges — `spread[j]` masks them.
///
/// *Compact* merges the strided match bits (stride `W+1`, after the
/// `>> W`): pass `j` (applied low-to-high) ORs odd chunks of `2^j` bits
/// down by `2^j * W` onto their even neighbor and `cmask[j]` keeps only
/// the merged chunk positions.
struct Passes {
    np: usize,
    spread: [u64; 5],
    cmask: [u64; 5],
}

const fn passes<const W: usize>() -> Passes {
    let lane = W + 1;
    let k = 64 / lane; // elements per group (>= 2 for W <= 21, <= 32)
    let np = (usize::BITS - (k - 1).leading_zeros()) as usize; // ceil(log2 k)
    let mut spread = [0u64; 5];
    let mut cmask = [0u64; 5];
    let mut j = 0;
    while j < np {
        let half = 1usize << j;
        let full = half * 2;
        let mut m = 0u64;
        let mut t0 = half; // first element of each odd half-chunk
        while t0 < k {
            let last = if t0 + half < k { t0 + half } else { k };
            let off = full * (t0 / full); // displacement applied by higher passes
            m |= bit_range(t0 * W + off, (last - 1) * W + off + W);
            t0 += full;
        }
        spread[j] = m;
        let mut c = 0u64;
        let mut t0 = 0;
        while t0 < k {
            c |= bit_range(t0 * lane, t0 * lane + if full < k { full } else { k });
            t0 += full;
        }
        cmask[j] = c;
        j += 1;
    }
    Passes { np, spread, cmask }
}

/// Match masks for `N` consecutive 64-element blocks, lane `l` covering
/// the block whose first backing word is `words[base_word + l * W]`.
///
/// `W` is the element width; the group table — first element `j`, size
/// `g`, word offset, shift, and the straddle flag — is a compile-time
/// function of `W`, as are the [`Passes`] constants, and the loops fully
/// unroll under monomorphization. Every batch op applies identical
/// constants across lanes, so the body vectorizes with no gathers: the
/// only per-lane state is the strided window load.
#[inline(always)]
fn match_blocks<const W: usize, const N: usize>(
    p: LaneParams,
    words: &[u64],
    base_word: usize,
) -> U64xN<N> {
    const { assert!(W >= 1 && W <= 21) };
    let pass: Passes = const { passes::<W>() };
    let k = 64 / (W + 1);
    let ng = 64usize.div_ceil(k); // groups per 64-element block
    let mut acc = U64xN::<N>::zero();
    for gi in 0..ng {
        let j0 = gi * k; // the group's first element within the block
        let g = k.min(64 - j0); // elements in this group
        let bit = j0 * W;
        let wo = bit / 64;
        let sh = (bit % 64) as u32;
        // A straddling group's second word is still inside the block:
        // its last bit is < 64 * W, i.e. at word <= W - 1.
        let spans = bit % 64 + g * W > 64;
        let win = U64xN::<N>::window(words, base_word + wo, W, sh, spans);
        // Lift via log-spread: element t moves from bit t*W to t*(W+1),
        // inserting the spare carry bit per lane. A short last group
        // (g < k) just spreads zeros in the missing element slots.
        let mut lanes = win.and1(bit_range(0, g * W));
        let mut pj = pass.np;
        while pj > 0 {
            pj -= 1;
            let moved = lanes.and1(pass.spread[pj]).shl(1 << pj);
            lanes = lanes.and1(!pass.spread[pj]).or(moved);
        }
        // The banked compare (see the swar module docs).
        let x = lanes.or1(p.h);
        let tops = x.sub1(p.lo_rep).andnot(x.sub1(p.hi1_rep)).and1(p.h);
        // Compact the strided top bits into g adjacent match bits via
        // log-merge.
        let mut grp = tops.shr(W as u32);
        for pj in 0..pass.np {
            grp = grp
                .or(grp.shr(((1usize << pj) * W) as u32))
                .and1(pass.cmask[pj]);
        }
        acc = acc.or(grp.shl(j0 as u32));
    }
    acc
}

#[inline(always)]
fn fill_blocks_w<const W: usize>(
    p: LaneParams,
    words: &[u64],
    first_block: usize,
    out: &mut [u64],
) {
    let n = out.len();
    let mut b = 0usize;
    while b + 8 <= n {
        match_blocks::<W, 8>(p, words, (first_block + b) * W).store(&mut out[b..b + 8]);
        b += 8;
    }
    while b + 4 <= n {
        match_blocks::<W, 4>(p, words, (first_block + b) * W).store(&mut out[b..b + 4]);
        b += 4;
    }
    while b < n {
        out[b] = match_blocks::<W, 1>(p, words, (first_block + b) * W).0[0];
        b += 1;
    }
}

/// Fill `out` with one match mask per 64-element block: `out[b]` covers
/// elements `(first_block + b) * 64 ..` of the packed stream `words`.
/// Every covered block must be *full* (the caller handles a partial tail
/// block) and `width` must be SWAR-applicable.
///
/// Dispatches to the width-monomorphized batch kernel — one instance per
/// SWAR width, indexed at `width - 1`, so the per-fill dispatch is one
/// predictable indirect call while every inner loop stays
/// width-specialized. Blocks run eight per iteration; remainders drain
/// through a four-block batch and single blocks, so any `out` length is
/// fine.
pub fn fill_blocks(width: u32, p: LaneParams, words: &[u64], first_block: usize, out: &mut [u64]) {
    type FillFn = fn(LaneParams, &[u64], usize, &mut [u64]);
    #[rustfmt::skip]
    const FILLS: [FillFn; 21] = [
        fill_blocks_w::<1>, fill_blocks_w::<2>, fill_blocks_w::<3>, fill_blocks_w::<4>,
        fill_blocks_w::<5>, fill_blocks_w::<6>, fill_blocks_w::<7>, fill_blocks_w::<8>,
        fill_blocks_w::<9>, fill_blocks_w::<10>, fill_blocks_w::<11>, fill_blocks_w::<12>,
        fill_blocks_w::<13>, fill_blocks_w::<14>, fill_blocks_w::<15>, fill_blocks_w::<16>,
        fill_blocks_w::<17>, fill_blocks_w::<18>, fill_blocks_w::<19>, fill_blocks_w::<20>,
        fill_blocks_w::<21>,
    ];
    assert!(
        (1..=21).contains(&width),
        "lane kernel width {width} outside 1..=21"
    );
    FILLS[width as usize - 1](p, words, first_block, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack::BitPackedVec;
    use bwd_types::bits::low_mask;
    use proptest::prelude::*;

    fn params(width: u32, lo: u64, hi: u64) -> LaneParams {
        let lane = width as usize + 1;
        let k = 64 / lane;
        let mut ones = 0u64;
        for j in 0..k {
            ones |= 1u64 << (j * lane);
        }
        LaneParams {
            elem_mask: low_mask(width),
            h: ones << width,
            lo_rep: lo * ones,
            hi1_rep: (hi + 1) * ones,
        }
    }

    fn reference_block(v: &BitPackedVec, block: usize, lo: u64, hi: u64) -> u64 {
        let mut bits = 0u64;
        for k in 0..64 {
            let x = v.get(block * 64 + k);
            if x >= lo && x <= hi {
                bits |= 1u64 << k;
            }
        }
        bits
    }

    fn pseudo_vals(width: u32, n: usize, seed: u64) -> Vec<u64> {
        let mask = low_mask(width);
        (0..n as u64)
            .map(|i| (i.wrapping_add(seed)).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
            .collect()
    }

    /// The batch kernel equals the `get()`-based reference for every SWAR
    /// width at a block count where every drain stage runs (13 = one
    /// eight-block batch + one four-block batch + one single block).
    #[test]
    fn fill_blocks_matches_reference_all_widths() {
        for width in 1u32..=21 {
            let nblocks = 13;
            let vals = pseudo_vals(width, nblocks * 64, u64::from(width) * 77);
            let v = BitPackedVec::from_slice(width, &vals);
            let max = low_mask(width);
            for (lo, hi) in [(0u64, max / 3), (max / 4, 3 * (max / 4).max(1)), (0, max)] {
                let hi = hi.min(max);
                let p = params(width, lo, hi);
                let expect: Vec<u64> = (0..nblocks)
                    .map(|b| reference_block(&v, b, lo, hi))
                    .collect();
                let mut got = vec![0u64; nblocks];
                fill_blocks(width, p, v.words(), 0, &mut got);
                assert_eq!(got, expect, "width={width} lo={lo} hi={hi}");
            }
        }
    }

    /// `first_block` offsets index the packed stream correctly (a morsel
    /// worker starts mid-relation).
    #[test]
    fn fill_blocks_honors_first_block_offset() {
        for width in [3u32, 7, 12, 21] {
            let vals = pseudo_vals(width, 20 * 64, 5);
            let v = BitPackedVec::from_slice(width, &vals);
            let max = low_mask(width);
            let p = params(width, max / 8, max / 2);
            let mut whole = vec![0u64; 20];
            fill_blocks(width, p, v.words(), 0, &mut whole);
            for first in [1usize, 5, 13, 19] {
                let mut part = vec![0u64; 20 - first];
                fill_blocks(width, p, v.words(), first, &mut part);
                assert_eq!(part, whole[first..], "width={width} first={first}");
            }
        }
    }

    proptest! {
        /// Arbitrary widths, bounds and block counts (so every mix of
        /// eight-, four- and one-block batches) agree with the reference.
        #[test]
        fn prop_fill_blocks_matches_reference(
            width in 1u32..=21,
            nblocks in 1usize..24,
            seed in any::<u64>(),
            lo_raw in any::<u64>(),
            span_raw in any::<u64>(),
        ) {
            let max = low_mask(width);
            let lo = lo_raw & max;
            let hi = (lo.saturating_add(span_raw & max)).min(max);
            let vals = pseudo_vals(width, nblocks * 64, seed);
            let v = BitPackedVec::from_slice(width, &vals);
            let expect: Vec<u64> = (0..nblocks)
                .map(|b| reference_block(&v, b, lo, hi))
                .collect();
            let mut got = vec![0u64; nblocks];
            fill_blocks(width, params(width, lo, hi), v.words(), 0, &mut got);
            prop_assert_eq!(&got, &expect);
        }
    }
}
