//! Fixed-width bit-packed integer vectors.
//!
//! The approximation and residual partitions of a decomposed column store
//! `width`-bit payloads back to back in a `u64` word array ("stored
//! bit-packed", §VI-D1 of the paper). This is what makes narrow TPC-H
//! attributes (4–12 bits) cheap enough to keep entirely device-resident.
//!
//! Elements may straddle word boundaries; accessors handle the two-word
//! case branchlessly enough for scan loops. Bulk consumers should prefer
//! [`BitPackedVec::unpack_range`] / [`BitPackedVec::unpack_block`]: the
//! word-at-a-time decoder loads every backing word exactly once and keeps
//! the bit cursor in registers, instead of re-deriving word index and
//! shift per element as [`BitPackedVec::get`] must. [`BlockDecoder`] is
//! built on top of it. [`BitPackedVec::try_pack_rows`]
//! is the same cursor in the other direction, and the one way a vector is
//! built: every backing word is written exactly once, into uninitialised
//! capacity, by the piece of rows it holds.

use crate::pieces::{cuts, in_pieces};
use bwd_types::bits::low_mask;
use std::convert::Infallible;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Elements per bulk-decode block ([`BitPackedVec::unpack_block`],
/// [`BlockDecoder`]). 64 elements guarantee the scratch fits in L1 and
/// that, at any width, a block touches at most 65 backing words.
pub const DECODE_BLOCK: usize = 64;

/// Backing words of `len` elements of `width` bits (`width` in `0..=64`).
fn words_for(width: u32, len: usize) -> usize {
    assert!(width <= 64, "element width {width} exceeds 64 bits");
    (len as u64 * width as u64).div_ceil(64) as usize
}

/// A vector of `width`-bit unsigned values, packed once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedVec {
    words: Vec<u64>,
    width: u32,
    len: usize,
}

impl BitPackedVec {
    /// `K` vectors of `len` elements, `widths` bits each, whose words
    /// `write` packs once each into uninitialised capacity (`vec![0; n]`
    /// would clear every page up front), through the [`PackCursor`] over
    /// each run or parts cut from it. An error drops the runs unread.
    ///
    /// # Panics
    /// Panics unless the cursors, finished, stored every word of every run.
    pub(crate) fn write_once<const K: usize, E>(
        widths: [u32; K],
        len: usize,
        write: impl FnOnce([PackCursor<'_>; K]) -> Result<(), E>,
    ) -> Result<[Self; K], E> {
        // `with_capacity(n)` allocates exactly `n` words (`Vec`'s guarantee).
        let mut out = widths.map(|width| {
            let words = Vec::with_capacity(words_for(width, len));
            BitPackedVec { words, width, len }
        });
        let sum = AtomicUsize::new(0);
        write(out.each_mut().map(|v| PackCursor::new(v, &sum)))?;
        let capacity: usize = out.iter().map(|v| v.words.capacity()).sum();
        assert_eq!(sum.into_inner(), capacity, "a word left unwritten");
        for v in &mut out {
            // SAFETY: only the cursors handed to `write` and the disjoint
            // parts cut from them store into the runs, each the words of
            // its part in order, counted on `finish`; the counts sum to
            // the capacities, so every word below each is stored.
            unsafe { v.words.set_len(v.words.capacity()) };
        }
        Ok(out)
    }

    /// Bulk-pack rows `0..len`, row `r` the already-narrow `value(r)`, in
    /// the pieces `cuts` cuts for `chunks` — the inverse of
    /// [`BitPackedVec::unpack_range`]: a register-resident bit cursor a
    /// piece writes each backing word once, and the words do not depend on
    /// `chunks`. A piece stops at its first error; the lowest row's is
    /// returned. Debug-panics if a value needs more than `width` bits.
    pub fn try_pack_rows<E: Send>(
        width: u32,
        len: usize,
        chunks: usize,
        value: impl Fn(usize) -> Result<u64, E> + Sync,
    ) -> Result<Self, E> {
        let [out] = Self::write_once([width], len, |[mut cursor]| {
            let pieces = cuts(len, chunks).map(|rows| (cursor.take_rows(rows.len()), rows));
            let packed = in_pieces(pieces, |(mut cursor, rows)| {
                for row in rows {
                    cursor.push(value(row)?);
                }
                cursor.finish();
                Ok(())
            });
            packed.into_iter().collect()
        })?;
        Ok(out)
    }

    /// A slice packed on the calling thread: equal, word for word, to
    /// pushing its values one by one.
    pub fn from_slice(width: u32, vals: &[u64]) -> Self {
        let Ok(out) = Self::try_pack_rows(width, vals.len(), 1, |r| Ok::<_, Infallible>(vals[r]));
        out
    }

    /// Bits per element.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact payload size in bytes (what decomposition accounting and the
    /// device allocator charge for this data).
    #[inline]
    pub fn packed_bytes(&self) -> u64 {
        (self.len as u64 * self.width as u64).div_ceil(8)
    }

    /// Read element `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if self.width == 0 {
            return 0;
        }
        let bit = i as u64 * self.width as u64;
        let word = (bit / 64) as usize;
        let shift = (bit % 64) as u32;
        // SAFETY-free fast path: `word` is in range because i < len.
        let lo = self.words[word] >> shift;
        let consumed = 64 - shift;
        let v = if consumed >= self.width {
            lo
        } else {
            lo | (self.words[word + 1] << consumed)
        };
        v & low_mask(self.width)
    }

    /// Bulk-decode elements `start..start + out.len()` into `out`.
    ///
    /// This is the word-at-a-time fast path every scan loop should use:
    /// the decoder walks the backing words with a register-resident cursor,
    /// loads each word exactly once, and amortizes the two-word straddle
    /// handling across the whole run — [`BitPackedVec::get`] re-derives the
    /// word index and shift (a multiply, a divide and a modulo) for every
    /// single element.
    ///
    /// # Panics
    /// Panics if `start + out.len() > len()`.
    pub fn unpack_range(&self, start: usize, out: &mut [u64]) {
        let n = out.len();
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.len),
            "range {start}.. +{n} out of bounds (len {})",
            self.len
        );
        if n == 0 {
            return;
        }
        if self.width == 0 {
            out.fill(0);
            return;
        }
        let width = self.width;
        let mask = low_mask(width);
        let first_bit = start as u64 * width as u64;
        let mut wi = (first_bit / 64) as usize;
        let mut shift = (first_bit % 64) as u32;
        let words = self.words.as_slice();
        let mut cur = words[wi];
        for slot in out.iter_mut() {
            let avail = 64 - shift;
            *slot = if width < avail {
                // Entirely inside the current word, more bits left after.
                let v = (cur >> shift) & mask;
                shift += width;
                v
            } else if width == avail {
                // Consumes the word exactly: the shifted value already has
                // the right width, no mask needed.
                let v = cur >> shift;
                wi += 1;
                // The run may end exactly at the array's last word.
                cur = words.get(wi).copied().unwrap_or(0);
                shift = 0;
                v
            } else {
                // Straddle: combine the tail of `cur` with the head of the
                // next word, which becomes the current word.
                let lo = cur >> shift;
                wi += 1;
                cur = words[wi];
                shift = width - avail;
                (lo | (cur << avail)) & mask
            };
        }
    }

    /// Bulk-decode the [`DECODE_BLOCK`]-aligned block `block` into `out`,
    /// returning how many elements were decoded (the last block may be
    /// short; a block past the end decodes nothing).
    pub fn unpack_block(&self, block: usize, out: &mut [u64; DECODE_BLOCK]) -> usize {
        let start = block.saturating_mul(DECODE_BLOCK).min(self.len);
        let n = (self.len - start).min(DECODE_BLOCK);
        self.unpack_range(start, &mut out[..n]);
        n
    }

    /// The raw backing words (element `i` occupies bits
    /// `[i*width, (i+1)*width)` of this little-endian bit stream; the
    /// last word's unused high bits are zero).
    ///
    /// This is the low-level surface the packed-domain SWAR predicates
    /// ([`crate::swar`]) evaluate on without decoding; ordinary consumers
    /// should use [`BitPackedVec::get`] / [`BitPackedVec::unpack_range`].
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A write cursor over an uninitialised run of backing words that starts
/// on an element boundary *and* a word boundary: the front of a vector, or
/// row `64 k` of it — 64 rows × `width` bits are exactly `width` words, so
/// every [`DECODE_BLOCK`] starts a word at every width. The accumulator
/// word and its fill level stay in registers; each backing word is stored
/// once, in order, when it is full ([`PackCursor::finish`] stores a partial
/// last one and counts them). Only [`BitPackedVec::write_once`] makes one.
pub(crate) struct PackCursor<'a> {
    words: &'a mut [MaybeUninit<u64>],
    stored: &'a AtomicUsize,
    width: u32,
    next: usize,
    acc: u64,
    fill: u32,
}

impl<'a> PackCursor<'a> {
    /// A cursor at bit 0 of `v`'s spare capacity, counting into `stored`.
    fn new(v: &'a mut BitPackedVec, stored: &'a AtomicUsize) -> Self {
        PackCursor {
            words: v.words.spare_capacity_mut(),
            stored,
            width: v.width,
            next: 0,
            acc: 0,
            fill: 0,
        }
    }

    /// A cursor over the words of this one's first `rows` rows, cut off
    /// before it packs — `rows` a multiple of [`DECODE_BLOCK`] unless they
    /// are the last.
    pub(crate) fn take_rows(&mut self, rows: usize) -> Self {
        assert_eq!((self.next, self.fill), (0, 0), "cut before packing");
        let words = words_for(self.width, rows);
        let (head, tail) = std::mem::take(&mut self.words).split_at_mut(words);
        self.words = tail;
        PackCursor {
            words: head,
            ..*self
        }
    }

    /// Append one value.
    ///
    /// # Panics
    /// Panics past the end of the words; debug-panics if `v` does not fit
    /// in `width` bits.
    #[inline]
    pub(crate) fn push(&mut self, v: u64) {
        debug_assert!(
            self.width == 64 || v <= low_mask(self.width),
            "value {v:#x} exceeds {} bits",
            self.width
        );
        self.acc |= v << self.fill;
        self.fill += self.width;
        if self.fill >= 64 {
            self.words[self.next].write(self.acc);
            self.next += 1;
            self.fill -= 64;
            // What did not fit, `v >> (width - fill)`, as two shifts: a
            // value that fit exactly (`fill == 0`) must shift out
            // entirely, at width 64 too.
            self.acc = (v >> 1) >> (self.width - 1 - self.fill);
        }
    }

    /// Store the partial last word, if any, and count the words stored.
    pub(crate) fn finish(self) {
        if self.fill > 0 {
            self.words[self.next].write(self.acc);
        }
        // Relaxed: `write_once` reads the sum once every writer is joined.
        (self.stored).fetch_add(self.next + (self.fill > 0) as usize, Relaxed);
    }
}

/// A cached one-block window over a [`BitPackedVec`] for *mostly ascending*
/// random access (refinement loops walk candidate oids that are ascending
/// within each scan block): `get` decodes the surrounding
/// [`DECODE_BLOCK`]-element block once via the bulk decoder and serves
/// neighbours from the cache. Only worth it when accesses are dense enough
/// that blocks are revisited — callers should fall back to
/// [`BitPackedVec::get`] for sparse access patterns.
pub struct BlockDecoder<'a> {
    vec: &'a BitPackedVec,
    buf: [u64; DECODE_BLOCK],
    block: usize,
}

impl<'a> BlockDecoder<'a> {
    /// A decoder with an empty cache.
    pub fn new(vec: &'a BitPackedVec) -> Self {
        BlockDecoder {
            vec,
            buf: [0; DECODE_BLOCK],
            block: usize::MAX,
        }
    }

    /// Read element `i`, refilling the cached block on a miss.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&mut self, i: usize) -> u64 {
        let b = i / DECODE_BLOCK;
        if b != self.block {
            self.vec.unpack_block(b, &mut self.buf);
            self.block = b;
        }
        assert!(
            i < self.vec.len(),
            "index {i} out of bounds (len {})",
            self.vec.len()
        );
        self.buf[i % DECODE_BLOCK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Incremental appends, one element at a time: the oracle the packers
    /// are held against; and the whole vector decoded.
    impl BitPackedVec {
        /// Decode everything into a `u64` vector (diagnostics, refinement
        /// pre-materialization, tests).
        pub(crate) fn to_vec(&self) -> Vec<u64> {
            let mut out = vec![0u64; self.len];
            self.unpack_range(0, &mut out);
            out
        }

        /// An empty vector of `width`-bit elements (`width` in `0..=64`).
        ///
        /// A width of 0 is legal and stores nothing: every element reads back
        /// as 0. This happens when a column's domain collapses to a single
        /// value after prefix compression.
        pub(crate) fn new(width: u32) -> Self {
            assert!(width <= 64, "element width {width} exceeds 64 bits");
            BitPackedVec {
                words: Vec::new(),
                width,
                len: 0,
            }
        }

        /// Append a value.
        ///
        /// # Panics
        /// Debug-panics if `v` does not fit in `width` bits (callers always
        /// produce masked payloads; a wide value indicates a logic error).
        #[inline]
        pub(crate) fn push(&mut self, v: u64) {
            debug_assert!(
                self.width == 64 || v <= low_mask(self.width),
                "value {v:#x} exceeds {} bits",
                self.width
            );
            if self.width == 0 {
                self.len += 1;
                return;
            }
            let bit = self.len as u64 * self.width as u64;
            let word = (bit / 64) as usize;
            let shift = (bit % 64) as u32;
            if word >= self.words.len() {
                self.words.push(0);
            }
            self.words[word] |= v << shift;
            let spill = shift as u64 + self.width as u64;
            if spill > 64 {
                self.words.push(v >> (64 - shift));
            }
            self.len += 1;
        }
    }

    /// The bulk packer equals the `push` loop — words, width and len — at
    /// every width, on the lengths around the 64-row block boundaries and
    /// on random ones, and both read back what went in.
    #[test]
    fn pack_equals_the_push_loop_at_every_width_and_block_boundary() {
        let mut rng = bwd_types::SplitMix64::new(0xB17);
        for width in 0..=64u32 {
            let random = rng.below(6000) as usize;
            for len in [0, 1, 63, 64, 65, 127, 128, 4097, random] {
                let vals: Vec<u64> = (0..len).map(|_| rng.next_u64() & low_mask(width)).collect();
                let mut pushed = BitPackedVec::new(width);
                for &v in &vals {
                    pushed.push(v);
                }
                let packed = BitPackedVec::from_slice(width, &vals);
                assert_eq!(packed, pushed, "width={width} len={len}");
                assert_eq!(packed.to_vec(), vals, "width={width} len={len}");
                for (i, &v) in vals.iter().enumerate().step_by(61) {
                    assert_eq!(packed.get(i), v, "width={width} i={i}");
                }
            }
        }
    }

    /// A fallible pack is the plain pack when every value computes, and the
    /// error of the lowest failing row otherwise, in any number of pieces.
    #[test]
    fn try_pack_rows_is_pack_or_the_first_error() {
        let vals: Vec<u64> = (0..5_000).map(|i| i * 37 % 1024).collect();
        for chunks in [1, 2, 3, 7] {
            let ok = BitPackedVec::try_pack_rows(10, vals.len(), chunks, |r| Ok::<_, u64>(vals[r]));
            assert_eq!(ok, Ok(BitPackedVec::from_slice(10, &vals)));
            let failing = |r: usize| if vals[r] > 1000 { Err(r) } else { Ok(vals[r]) };
            let first = vals.iter().position(|&v| v > 1000);
            let got = BitPackedVec::try_pack_rows(10, vals.len(), chunks, failing);
            assert_eq!(got.err(), first, "{chunks} pieces");
        }
    }

    #[test]
    fn zero_width_stores_nothing() {
        let mut v = BitPackedVec::new(0);
        for _ in 0..100 {
            v.push(0);
        }
        assert_eq!(v.len(), 100);
        assert_eq!(v.packed_bytes(), 0);
        assert_eq!(v.get(50), 0);
    }

    #[test]
    fn packed_bytes_is_exact() {
        let v = BitPackedVec::from_slice(13, &[1, 2, 3]); // 39 bits -> 5 bytes
        assert_eq!(v.packed_bytes(), 5);
        let v = BitPackedVec::from_slice(8, &vec![0xAB; 1000]);
        assert_eq!(v.packed_bytes(), 1000);
        let v = BitPackedVec::new(24);
        assert_eq!(v.packed_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v = BitPackedVec::from_slice(8, &[1]);
        v.get(1);
    }

    #[test]
    fn unpack_range_matches_get_across_straddles() {
        for width in [1u32, 5, 12, 17, 31, 33, 60, 63, 64] {
            let mask = low_mask(width);
            let vals: Vec<u64> = (0..300u64)
                .map(|i| i.wrapping_mul(0xA24B_AED4_963E_E407) & mask)
                .collect();
            let packed = BitPackedVec::from_slice(width, &vals);
            for (start, n) in [
                (0usize, 300usize),
                (1, 299),
                (63, 65),
                (64, 64),
                (299, 1),
                (7, 0),
            ] {
                let mut out = vec![0u64; n];
                packed.unpack_range(start, &mut out);
                assert_eq!(out, vals[start..start + n], "width={width} start={start}");
            }
        }
    }

    #[test]
    fn unpack_block_handles_short_tail_and_past_end() {
        let vals: Vec<u64> = (0..130).collect();
        let packed = BitPackedVec::from_slice(8, &vals);
        let mut buf = [0u64; DECODE_BLOCK];
        assert_eq!(packed.unpack_block(0, &mut buf), 64);
        assert_eq!(buf[..64], vals[..64]);
        assert_eq!(packed.unpack_block(2, &mut buf), 2);
        assert_eq!(buf[..2], vals[128..130]);
        assert_eq!(packed.unpack_block(3, &mut buf), 0);
    }

    #[test]
    fn block_decoder_matches_get_for_any_access_order() {
        let vals: Vec<u64> = (0..1000).map(|i| i * 7 % 512).collect();
        let packed = BitPackedVec::from_slice(9, &vals);
        let mut dec = BlockDecoder::new(&packed);
        for i in [0usize, 63, 64, 999, 1, 65, 128, 127, 500, 0] {
            assert_eq!(dec.get(i), vals[i], "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_range_out_of_bounds_panics() {
        let v = BitPackedVec::from_slice(8, &[1, 2, 3]);
        let mut out = [0u64; 4];
        v.unpack_range(0, &mut out);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(width in 0u32..=64, raw in proptest::collection::vec(any::<u64>(), 0..300)) {
            let mask = low_mask(width);
            let vals: Vec<u64> = raw.iter().map(|v| v & mask).collect();
            let packed = BitPackedVec::from_slice(width, &vals);
            prop_assert_eq!(packed.len(), vals.len());
            prop_assert_eq!(packed.to_vec(), vals);
        }

        #[test]
        fn prop_packed_bytes_formula(width in 0u32..=64, n in 0usize..200) {
            let vals = vec![0u64; n];
            let packed = BitPackedVec::from_slice(width, &vals);
            prop_assert_eq!(packed.packed_bytes(), (n as u64 * width as u64).div_ceil(8));
        }

        /// The bulk decoder is element-wise equal to `get` on arbitrary
        /// sub-ranges, for every width 0..=64 — word straddles, width-0 and
        /// whole-vector decodes included.
        #[test]
        fn prop_unpack_range_equals_get(
            width in 0u32..=64,
            raw in proptest::collection::vec(any::<u64>(), 0..400),
            start_frac in 0u32..1000,
            len_frac in 0u32..=1000,
        ) {
            let mask = low_mask(width);
            let vals: Vec<u64> = raw.iter().map(|v| v & mask).collect();
            let packed = BitPackedVec::from_slice(width, &vals);
            let start = vals.len() * start_frac as usize / 1000;
            let n = (vals.len() - start) * len_frac as usize / 1000;
            let mut out = vec![0u64; n];
            packed.unpack_range(start, &mut out);
            for (k, &v) in out.iter().enumerate() {
                prop_assert_eq!(v, packed.get(start + k), "width={} i={}", width, start + k);
            }
            prop_assert_eq!(&out[..], &vals[start..start + n]);
            // And the cached block decoder at every in-range position.
            let mut dec = BlockDecoder::new(&packed);
            for i in start..start + n {
                prop_assert_eq!(dec.get(i), packed.get(i));
            }
        }
    }
}
