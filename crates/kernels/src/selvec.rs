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
//! approximate-selection chain, choosing the representation per query —
//! and never converting: past the chain, downstream operators (undecided
//! list, pre-grouping, the tail's gathers) read the candidates'
//! [`Positions`] a window at a time through a [`Cursor`], whichever
//! representation holds them.
//!
//! # Bit-identity with the index path
//!
//! A bitmap is positional, but the simulated parallel selection emits
//! candidates in bit-reversed block order (§IV-A item 3). A [`SelMask`]
//! therefore remembers whether the scan that produced it preserved
//! order; its cursor walks the same [`scan_block_ranges`] sequence and
//! emits set bits block by block via `trailing_zeros`, reproducing the
//! index path's permutation byte for byte — same oids, same order. Chained refinements AND masks
//! positionally, which preserves exactly the subsequence the chained
//! index filter would keep.
//!
//! All of this is representation only: [`crate::scan::ScanSpec::charge`]
//! bills the paper's candidate-pair model in both representations
//! (wall-clock is what the bitmap improves), so costs and results are
//! bit-identical whichever representation the executor picks.

use crate::candidates::Candidates;
use crate::scan::scan_block_ranges;
use bwd_types::{bits::low_mask, Oid};
use std::ops::Range;

/// A positional match bitmap over a scan's input rows, plus the scan
/// order needed to convert it into the equivalent block-scrambled
/// candidate list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelMask {
    words: Vec<u64>,
    rows: usize,
    count: usize,
    preserve_order: bool,
}

impl SelMask {
    /// Wrap filled mask words (bit `r % 64` of `words[r / 64]` = row `r`
    /// matched) over `rows` input rows, scanned in input order when
    /// `preserve_order`, else in the block-scrambled order.
    ///
    /// # Panics
    /// Panics if the word count doesn't cover `rows` exactly.
    pub fn from_words(words: Vec<u64>, rows: usize, preserve_order: bool) -> Self {
        assert_eq!(words.len(), rows.div_ceil(64), "mask word count");
        let count = bwd_storage::mask_count(&words);
        SelMask {
            words,
            rows,
            count,
            preserve_order,
        }
    }

    /// An output mask with the same scan order as `self` (chained
    /// refinements keep the original scan's emission metadata).
    pub fn like(&self, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), self.words.len(), "mask word count");
        let count = bwd_storage::mask_count(&words);
        SelMask {
            words,
            rows: self.rows,
            count,
            preserve_order: self.preserve_order,
        }
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

    /// Clear rows in place: `f` rewrites the words, and the count follows.
    pub fn edit<R>(&mut self, f: impl FnOnce(&mut [u64]) -> R) -> R {
        let out = f(&mut self.words);
        self.count = bwd_storage::mask_count(&self.words);
        out
    }

    /// The simulated thread blocks of the scan that produced the mask, in
    /// its emission order.
    fn blocks(&self) -> Vec<Range<usize>> {
        scan_block_ranges(self.rows, self.preserve_order)
    }
}

/// Bits `[lo, hi)` of a word set (`hi <= 64`).
#[inline]
fn clip_mask(lo: u32, hi: u32) -> u64 {
    low_mask(hi) & !low_mask(lo)
}

/// The adaptive candidate representation the A&R executor threads through
/// its approximate-selection chain.
#[derive(Debug, Clone)]
pub enum SelVec {
    /// Materialized (oid, approximation) pairs in emission order.
    Indices(Candidates),
    /// Positional bitmap over the scanned rows.
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

    /// The candidate list without conversion, when already materialized.
    #[inline]
    pub fn as_indices(&self) -> Option<&Candidates> {
        match self {
            SelVec::Indices(c) => Some(c),
            SelVec::Bitmap(_) => None,
        }
    }
}

/// Where a selection chain's final candidates are — positions only, and
/// nothing expanded: what every operator past the gather boundary
/// (undecided list, pre-grouping, the tail's slice sources) reads, one
/// window of at most a slice at a time through a [`Cursor`]. The order is
/// the one the index path materializes: the kernel's list as emitted, a
/// mask's set bits per simulated thread block in [`scan_block_ranges`]
/// order and ascending inside a block, every row ascending.
#[derive(Debug, Clone, Copy)]
pub enum Positions<'a> {
    /// Every row `0..n` (a plan without selections).
    All(usize),
    /// The set bits of a positional bitmap.
    Mask(&'a SelMask),
    /// The kernel's own sparse index output.
    List(&'a Candidates),
}

impl<'a> Positions<'a> {
    /// The positions of a chain's last output over a `rows`-row relation
    /// (`None`: no selection ran, every row is a candidate).
    pub fn of(last: Option<&'a SelVec>, rows: usize) -> Self {
        match last {
            None => Positions::All(rows),
            Some(SelVec::Bitmap(m)) => Positions::Mask(m),
            Some(SelVec::Indices(c)) => Positions::List(c),
        }
    }

    /// Candidate count.
    pub fn len(&self) -> usize {
        match self {
            Positions::All(n) => *n,
            Positions::Mask(m) => m.count(),
            Positions::List(c) => c.len(),
        }
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the candidates are exactly rows `0..len()` in ascending
    /// order ([`Candidates::dense`] of the expanded list, derived without
    /// expanding): a mask must hold that prefix and nothing else, and the
    /// thread blocks the prefix reaches must be emitted in ascending order.
    pub fn dense(&self) -> bool {
        match self {
            Positions::All(_) => true,
            Positions::List(c) => c.dense,
            Positions::Mask(m) => {
                let (full, rest) = (m.count / 64, (m.count % 64) as u32);
                let prefix = m.words[..full].iter().all(|&w| w == u64::MAX)
                    && (rest == 0 || m.words[full] == low_mask(rest));
                let blocks = m.blocks();
                let reached = blocks.iter().map(|r| r.start).filter(|&s| s < m.count);
                prefix && reached.is_sorted()
            }
        }
    }

    /// Length of the emission sequence a cursor walks: the list's entries,
    /// or the rows a mask covers. Contiguous ranges of it are what morsel
    /// workers take; outputs concatenated in range order keep the order.
    pub fn span(&self) -> usize {
        match self {
            Positions::All(n) => *n,
            Positions::Mask(m) => m.rows,
            Positions::List(c) => c.len(),
        }
    }

    /// A cursor over the part `span` of the emission sequence
    /// (`0..self.span()` walks every candidate).
    pub fn cursor(&self, span: Range<usize>) -> Cursor<'a> {
        Cursor(match *self {
            Positions::All(_) => Walk::All(span),
            Positions::List(c) => Walk::List(&c.oids[span]),
            Positions::Mask(mask) => {
                // The thread blocks, clipped to `span` of their
                // concatenation; last to first, so the next one pops.
                let mut todo = Vec::new();
                let mut at = 0;
                for r in mask.blocks() {
                    let (lo, hi) = (span.start.max(at), span.end.min(at + r.len()));
                    if lo < hi {
                        todo.push(r.start + (lo - at)..r.start + (hi - at));
                    }
                    at += r.len();
                }
                todo.reverse();
                Walk::Mask { mask, todo }
            }
        })
    }
}

/// A resumable walk over (a part of) a [`Positions`]' emission sequence.
#[derive(Debug)]
pub struct Cursor<'a>(Walk<'a>);

/// What is left to emit.
#[derive(Debug)]
enum Walk<'a> {
    All(Range<usize>),
    List(&'a [Oid]),
    /// The row ranges still to test, the current one last; it shrinks from
    /// its start — to any bit of a word, so a window may end mid-word.
    Mask {
        mask: &'a SelMask,
        todo: Vec<Range<usize>>,
    },
}

impl Cursor<'_> {
    /// Replace `out` with the next at most `max` (> 0) candidate oids.
    /// Returns whether the walk has more to cover — a mask's remainder
    /// may still turn out to hold no set bit.
    pub fn next_window(&mut self, max: usize, out: &mut Vec<Oid>) -> bool {
        debug_assert!(max > 0, "an empty window never advances");
        out.clear();
        match &mut self.0 {
            Walk::All(rows) => {
                let end = rows.end.min(rows.start + max);
                out.extend(rows.start as Oid..end as Oid);
                rows.start = end;
                end < rows.end
            }
            Walk::List(rest) => {
                let (window, tail) = rest.split_at(max.min(rest.len()));
                out.extend_from_slice(window);
                *rest = tail;
                !rest.is_empty()
            }
            Walk::Mask { mask, todo } => {
                while let Some(r) = todo.last_mut() {
                    while r.start < r.end {
                        let room = max - out.len();
                        if room == 0 {
                            return true;
                        }
                        let seg_start = r.start / 64 * 64;
                        let e = r.end.min(seg_start + 64);
                        let clip = clip_mask((r.start - seg_start) as u32, (e - seg_start) as u32);
                        let mut bits = mask.words[r.start / 64] & clip;
                        r.start = e;
                        for _ in 0..room.min(bits.count_ones() as usize) {
                            out.push((seg_start + bits.trailing_zeros() as usize) as Oid);
                            bits &= bits - 1;
                        }
                        if bits != 0 {
                            // The window filled mid-word: resume at the next set bit.
                            r.start = seg_start + bits.trailing_zeros() as usize;
                            return true;
                        }
                    }
                    todo.pop();
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::DeviceArray;
    use crate::scan::{select_range, ScanOptions, ScanRows, ScanSpec, BLOCK_ROWS};
    use bwd_device::{CostLedger, Env};
    use bwd_storage::BitPackedVec;

    impl SelMask {
        /// Materialize the candidate list this mask represents —
        /// bit-identical to what [`crate::scan::select_range`] (or the
        /// chained filters) would have produced directly: set bits in the
        /// [`Cursor`]'s order, with approximations decoded from `arr`. The
        /// reference the bitmap path is tested against; the executor never
        /// expands a mask.
        pub(crate) fn to_candidates(&self, arr: &DeviceArray) -> Candidates {
            assert_eq!(arr.len(), self.rows, "mask/array length mismatch");
            let oids = self.expand();
            let approx = oids.iter().map(|&o| arr.get(o as usize)).collect();
            Candidates::from_pairs(oids, approx)
        }

        /// Materialize the candidate list of an *indirected* (dimension-side)
        /// mask: bit `i` covers fact row `i`, and the approximation decoded
        /// for it is `arr[link[i]]` — bit-identical to what a linked
        /// [`crate::scan::ScanSpec`] emits directly.
        pub(crate) fn to_candidates_indirect(
            &self,
            arr: &DeviceArray,
            link: &DeviceArray,
        ) -> Candidates {
            assert_eq!(link.len(), self.rows, "mask/link length mismatch");
            let oids = self.expand();
            let approx = oids
                .iter()
                .map(|&o| arr.get(link.get(o as usize) as usize))
                .collect();
            Candidates::from_pairs(oids, approx)
        }

        /// Every candidate oid, in one window.
        fn expand(&self) -> Vec<Oid> {
            let mut oids = Vec::with_capacity(self.count);
            Positions::Mask(self)
                .cursor(0..self.rows)
                .next_window(self.count.max(1), &mut oids);
            oids
        }

        /// The set rows in ascending order, without values (diagnostics and
        /// mask→index invariant tests).
        pub(crate) fn sorted_oids(&self) -> Vec<Oid> {
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

        /// Rebuild a mask from a candidate list over the same scan
        /// geometry (the inverse of [`SelMask::to_candidates`]).
        fn from_candidates(c: &Candidates, rows: usize, preserve_order: bool) -> Self {
            let mut words = vec![0u64; rows.div_ceil(64)];
            for &oid in &c.oids {
                words[oid as usize / 64] |= 1u64 << (oid as usize % 64);
            }
            Self::from_words(words, rows, preserve_order)
        }

        /// The candidate oids this mask represents, in the scan's emission
        /// order, expanded at once — the oracle the [`Cursor`] is tested
        /// against.
        fn oids(&self) -> Vec<Oid> {
            let mut out = Vec::with_capacity(self.count);
            for r in self.blocks() {
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
    }

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
            None => SelMask::from_words(words, arr.len(), opts.preserve_order),
        };
        spec.charge(env, mask.count(), opts.preserve_order, ledger);
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
        for preserve_order in [false, true] {
            let opts = ScanOptions { preserve_order };
            let mut l_idx = CostLedger::new();
            let mut l_mask = CostLedger::new();
            let c_idx = select_range(&env, &arr, 100, 499, &opts, &mut l_idx);
            let mask = mask_scan(&env, &arr, None, (100, 499), &opts, &mut l_mask);
            assert_eq!(mask.count(), c_idx.len());
            let c_mask = mask.to_candidates(&arr);
            assert_eq!(c_mask, c_idx, "preserve_order={preserve_order}");
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
        let opts = ScanOptions::default();
        let mut l_idx = CostLedger::new();
        let c1 = select_range(&env, &a, 40, 400, &opts, &mut l_idx);
        let spec = ScanSpec::new(&b, None, 10, 99, Some(c1.len()));
        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        spec.emit(ScanRows::Oids(&c1.oids), &mut oids, &mut approx);
        spec.charge(&env, oids.len(), false, &mut l_idx);
        let c2 = Candidates::from_pairs(oids, approx);
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
        let vals: Vec<u64> = (0..150_000u64).map(|i| (i * 7919) % 4096).collect();
        let arr = device_array(&env, 12, &vals);
        let opts = ScanOptions::default();
        let mut ledger = CostLedger::new();
        let mask = mask_scan(&env, &arr, None, (1000, 2999), &opts, &mut ledger);
        let cands = mask.to_candidates(&arr);
        let back = SelMask::from_candidates(&cands, arr.len(), false);
        assert_eq!(back, mask, "mask -> indices -> mask roundtrip");
        let mut sorted = cands.oids.clone();
        sorted.sort_unstable();
        assert_eq!(mask.sorted_oids(), sorted);
        // SelVec agrees on counts in both representations.
        let as_bitmap = SelVec::Bitmap(mask);
        let as_indices = SelVec::Indices(cands);
        assert_eq!(as_bitmap.len(), as_indices.len());
    }

    /// The cursor against the expansion it retires: at lengths inside one
    /// thread block and across three, at every density and window size — and cut into worker spans anywhere — the
    /// windows hold at most `max` oids and concatenate to the one-shot
    /// oid list, and `dense()` is the expanded list's flag, for the mask
    /// and for the list the kernel would have emitted in its place.
    #[test]
    fn cursor_windows_concatenate_to_the_expanded_list() {
        let mut rng = bwd_types::SplitMix64::new(0xc0750);
        let walk = |pos: Positions<'_>, cuts: &[usize], max: usize| {
            let (mut got, mut window) = (Vec::new(), Vec::new());
            for span in cuts.windows(2) {
                let mut cursor = pos.cursor(span[0]..span[1]);
                let mut more = true;
                while more {
                    more = cursor.next_window(max, &mut window);
                    assert!(window.len() <= max);
                    got.extend_from_slice(&window);
                }
                assert!(!cursor.next_window(max, &mut window) && window.is_empty());
            }
            got
        };
        let mut dense_masks = 0;
        {
            let lens = [0, 1, 63, 64, 65, BLOCK_ROWS - 1, BLOCK_ROWS + 1];
            for rows in lens.into_iter().chain([2 * BLOCK_ROWS + 7]) {
                // Densities: none, 1/64, 1/2, a prefix (twice), every row.
                for (preserve_order, density) in (0..12).map(|i| (i % 2 == 1, i / 2)) {
                    let prefix = rng.below(rows as u64 + 1) as usize;
                    let set = |row: usize, rng: &mut bwd_types::SplitMix64| match density {
                        0 => false,
                        1 => rng.below(64) == 0,
                        2 => rng.below(2) == 0,
                        3 | 4 => row < prefix,
                        _ => true,
                    };
                    let mut words = vec![0u64; rows.div_ceil(64)];
                    for row in 0..rows {
                        words[row / 64] |= u64::from(set(row, &mut rng)) << (row % 64);
                    }
                    let mask = SelMask::from_words(words, rows, preserve_order);
                    let list = Candidates::from_pairs(mask.oids(), Vec::new());
                    dense_masks += usize::from(list.dense && list.len() > BLOCK_ROWS);
                    for pos in [Positions::Mask(&mask), Positions::List(&list)] {
                        let tag = format!("{pos:?}"); // geometry, words and all
                        assert_eq!((pos.len(), pos.dense()), (list.len(), list.dense), "{tag}");
                        let mut cuts =
                            [0, rng.below(pos.span() as u64 + 1) as usize, 0, pos.span()];
                        cuts[2] = cuts[1] + rng.below((pos.span() - cuts[1]) as u64 + 1) as usize;
                        for max in [1, 63, 64, 1000, 32 * 1024] {
                            assert_eq!(walk(pos, &[0, pos.span()], max), list.oids, "{max}: {tag}");
                            assert_eq!(walk(pos, &cuts, max), list.oids, "{max} cut: {tag}");
                        }
                    }
                }
            }
        }
        assert!(
            dense_masks > 0,
            "a dense prefix past the first thread block"
        );
        let all = Positions::All(1000);
        assert!(all.dense() && all.len() == 1000);
        assert_eq!(
            walk(all, &[0, 7, 1000], 64),
            (0..1000).collect::<Vec<Oid>>()
        );
        assert!(walk(Positions::All(0), &[0, 0], 64).is_empty());
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
