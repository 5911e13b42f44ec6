//! Morsel-parallel execution helpers for the A&R host path.
//!
//! The classic pipe fans its selection chain out in `classic.rs`; this
//! module provides the same capability to the refinement side of the A&R
//! executor: contiguous candidate partitions run on real OS threads, and
//! partition outputs merge in deterministic partition order, so results
//! are **bit-identical** to the serial run at every morsel count and the
//! simulated component costs (charged once from merged totals by the
//! caller) are unchanged.
//!
//! Two building blocks:
//!
//! * [`partition_ranges`] / [`run_parts`] / [`run_parts_mut`] — contiguous
//!   range splitting and scoped-thread fan-out;
//! * [`refine_filter`] — the parallelized selection-refinement stage over
//!   the undecided candidates. (The query tail — projection refinement,
//!   grouping, aggregation — streams slice-at-a-time through
//!   [`crate::tail`].)

use bwd_core::{BoundColumn, RangePred};
use bwd_kernels::{DeviceArray, SelVec};
use bwd_storage::pieces::in_pieces;
use bwd_storage::{BitPackedVec, DecompositionMeta};
use bwd_types::Oid;
use std::ops::Range;

/// Don't bother spawning threads below this many work items: the stage
/// over a few thousand rows costs less than thread startup (mirrors
/// `classic.rs`).
pub(crate) const MIN_MORSEL_ROWS: usize = 4096;

/// Split `0..len` into at most `morsels` contiguous non-empty ranges
/// (a single range when `len` is below the morsel threshold).
pub(crate) fn partition_ranges(len: usize, morsels: usize) -> Vec<Range<usize>> {
    partition_ranges_min(len, morsels, MIN_MORSEL_ROWS)
}

/// Split a match-bitmap's `nwords` mask words into contiguous worker
/// ranges. Partitioning the *words* keeps every partition boundary on a
/// 64-row boundary, so bitmap-producing workers write disjoint words of
/// one shared buffer — the parallel mask path needs no synchronization
/// beyond the scoped join. The per-partition minimum matches
/// [`MIN_MORSEL_ROWS`] in row terms.
pub(crate) fn partition_mask_ranges(nwords: usize, morsels: usize) -> Vec<Range<usize>> {
    partition_ranges_min(nwords, morsels, MIN_MORSEL_ROWS.div_ceil(64))
}

/// [`partition_ranges`] with an explicit per-partition minimum size.
///
/// Partitions are *balanced*: sizes differ by at most one (the remainder
/// of `len / parts` is spread over the leading partitions), so no worker
/// systematically receives a short straggler range — ceil-stepped
/// chunking could hand the last worker as little as one item while every
/// other one got a full step.
pub(crate) fn partition_ranges_min(
    len: usize,
    morsels: usize,
    min_items: usize,
) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = morsels.clamp(1, len);
    if parts == 1 || len < min_items {
        #[allow(clippy::single_range_in_vec_init)] // one range, not a collected sequence
        return vec![0..len];
    }
    let base = len / parts;
    let rem = len % parts;
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let size = base + usize::from(p < rem);
            let r = start..start + size;
            start += size;
            r
        })
        .collect()
}

/// Run `f(worker_index, range)` for every (contiguous) range, on real OS
/// threads when there is more than one ([`in_pieces`]).
pub(crate) fn run_parts<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    in_pieces(ranges.iter().cloned().enumerate(), |(i, r)| f(i, r))
}

/// Like [`run_parts_mut`], but runs `ranges` in batches of at most `batch`
/// partitions with a [`bwd_device::YieldPoint`] check between batches —
/// the fan-out primitive behind cooperative cancellation. The calling
/// (orchestrating) thread is the one that polls the yield point, so a
/// cancellation observed at the boundary stops with every morsel worker
/// of the batch already joined. Outputs come back in partition order exactly as
/// [`run_parts_mut`] would return them; the worker index passed to `f` is
/// batch-local (restarts per batch) and must only be used for
/// load-placement, never for output addressing.
pub(crate) fn run_parts_mut_yielding<T, R, F>(
    out: &mut [T],
    ranges: &[Range<usize>],
    batch: usize,
    yield_point: &bwd_device::YieldPoint,
    f: F,
) -> bwd_types::Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, Range<usize>, &mut [T]) -> R + Sync,
{
    let mut outs = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for chunk in ranges.chunks(batch.max(1)) {
        let (head, tail) = rest.split_at_mut(chunk.iter().map(Range::len).sum());
        outs.extend(run_parts_mut(head, chunk, &f));
        rest = tail;
        yield_point.check()?;
    }
    Ok(outs)
}

/// [`run_parts`] that additionally hands each worker the disjoint chunk of
/// `out` matching its range, so positionally-aligned stages write
/// straight into one shared output buffer (no per-partition vectors, no
/// merge copy). `out` covers exactly the (contiguous) ranges. The calling
/// thread takes the last range itself, so `n` partitions cost `n - 1`
/// spawns. Results come back in partition order.
pub(crate) fn run_parts_mut<T, R, F>(out: &mut [T], ranges: &[Range<usize>], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, Range<usize>, &mut [T]) -> R + Sync,
{
    let covered = ranges.last().map_or(0, |r| r.end) - ranges.first().map_or(0, |r| r.start);
    debug_assert_eq!(out.len(), covered);
    let mut rest = out;
    let parts = ranges.iter().enumerate().map(|(i, r)| {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        rest = tail;
        (i, r.clone(), chunk)
    });
    in_pieces(parts, |(i, r, chunk)| f(i, r, chunk))
}

/// Where a refinement finds its tuples' residual bits — in the packed
/// residual, at the fact position or, for a dimension column, at the
/// position the packed FK link maps it to — and the approximations, at
/// the same position, that they complete.
#[derive(Clone, Copy)]
pub(crate) struct ResidualSrc<'a> {
    meta: &'a DecompositionMeta,
    approx: &'a DeviceArray,
    residual: &'a BitPackedVec,
    link: Option<&'a BitPackedVec>,
}

impl<'a> ResidualSrc<'a> {
    /// The source for `col`; `link` is the FK link a dimension column is
    /// reached through.
    pub(crate) fn for_column(col: &'a BoundColumn, link: Option<&'a BitPackedVec>) -> Self {
        let (meta, approx, residual) = (col.meta(), col.approx(), col.residual());
        ResidualSrc {
            meta,
            approx,
            residual,
            link,
        }
    }

    /// `f(i, exact payload of oids[i])` for every `i`, in order: the link
    /// decoded once per oid, approximation ‖ residual read at the position
    /// it gives.
    #[inline]
    pub(crate) fn exact(&self, oids: &[Oid], mut f: impl FnMut(usize, i64)) {
        let (meta, approx, residual, link) = (self.meta, self.approx, self.residual, self.link);
        for (i, &oid) in oids.iter().enumerate() {
            let pos = link.map_or(oid as usize, |l| l.get(oid as usize) as usize);
            f(
                i,
                meta.payload_from_parts(approx.get(pos), residual.get(pos)),
            );
        }
    }
}

/// Concatenate per-worker buffers in partition order; a single
/// partition's buffer is handed over as is (no second full-length copy).
pub(crate) fn concat_parts<T: Copy>(mut outs: Vec<Vec<T>>) -> Vec<T> {
    match outs.len() {
        1 => outs.swap_remove(0),
        _ => outs.concat(),
    }
}

/// Rows a refinement worker re-tests at a time.
const REFINE_WINDOW: usize = 4096;

/// What a refinement writes over a dropped member of a candidate list
/// before it closes the gaps: no row has this oid.
const DROPPED: Oid = Oid::MAX;

/// Whether `oid`'s bit is set in the positional bitmap `bits`.
pub(crate) fn marked(bits: &[u64], oid: Oid) -> bool {
    bits[oid as usize / 64] >> (oid % 64) & 1 == 1
}

/// Morsel-parallel selection refinement of the candidates `cands` whose
/// bit is set in the positional bitmap `undecided`: reconstruct each one's
/// exact payload (approximation ‖ residual, through the FK link for a
/// dimension column), drop it from `cands` where it fails the precise
/// `range` test — clear its bit, or take it out of the list — and return
/// how many undecided stay. Workers own contiguous ranges of the
/// candidates (word-aligned ones of a bitmap) and re-test a window of
/// [`REFINE_WINDOW`] rows at a time. The caller charges the simulated cost.
pub(crate) fn refine_filter(
    src: ResidualSrc<'_>,
    cands: &mut SelVec,
    undecided: &[u64],
    range: &RangePred,
    morsels: usize,
) -> u64 {
    // Re-test `window`, handing `fail` the index of each oid that fails.
    let retest = |window: &[Oid], fail: &mut dyn FnMut(usize)| {
        let mut kept = 0;
        src.exact(window, |i, exact| match range.test(exact) {
            true => kept += 1,
            false => fail(i),
        });
        kept
    };
    let kept = match cands {
        SelVec::Bitmap(mask) => mask.edit(|words| {
            let ranges = partition_mask_ranges(words.len(), morsels);
            run_parts_mut(words, &ranges, |_, r, words| {
                let (mut window, mut kept) = (Vec::with_capacity(REFINE_WINDOW), 0);
                for (c, chunk) in words.chunks_mut(REFINE_WINDOW / 64).enumerate() {
                    let first = r.start + c * REFINE_WINDOW / 64;
                    window.clear();
                    for (w, (word, marks)) in chunk.iter().zip(&undecided[first..]).enumerate() {
                        let mut bits = word & marks;
                        while bits != 0 {
                            window.push(((first + w) * 64 + bits.trailing_zeros() as usize) as Oid);
                            bits &= bits - 1;
                        }
                    }
                    kept += retest(&window, &mut |i| {
                        let row = window[i] as usize - first * 64;
                        chunk[row / 64] &= !(1 << (row % 64));
                    });
                }
                kept
            })
        }),
        SelVec::Indices(list) => {
            let ranges = partition_ranges(list.len(), morsels);
            let kept = run_parts_mut(&mut list.oids, &ranges, |_, _, part| {
                let mut kept = 0;
                for chunk in part.chunks_mut(REFINE_WINDOW) {
                    let at: Vec<usize> = (0..chunk.len())
                        .filter(|&i| marked(undecided, chunk[i]))
                        .collect();
                    let window: Vec<Oid> = at.iter().map(|&i| chunk[i]).collect();
                    kept += retest(&window, &mut |j| chunk[at[j]] = DROPPED);
                }
                kept
            });
            list.oids.retain(|&oid| oid != DROPPED);
            list.approx = Vec::new(); // no longer aligned, and no reader past the chain
            list.refresh_flags();
            kept
        }
    };
    kept.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parts_mut_yielding_matches_run_parts_mut_and_polls_between_batches() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let ranges = partition_ranges_min(1000, 10, 1);
        assert_eq!(ranges.len(), 10);
        // Each worker numbers its chunk's slots and reports their sum.
        let work = |_: usize, r: Range<usize>, chunk: &mut [usize]| {
            chunk.iter_mut().zip(r.clone()).for_each(|(c, i)| *c = i);
            r.into_iter().sum::<usize>()
        };
        let mut slots = vec![0; 1000];
        let plain = run_parts_mut(&mut slots, &ranges, work);
        assert_eq!(slots, (0..1000).collect::<Vec<_>>());
        let fired = Arc::new(AtomicUsize::new(0));
        let hook = {
            let fired = Arc::clone(&fired);
            bwd_device::YieldPoint::new(Arc::new(move || {
                fired.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }))
        };
        for batch in [1usize, 3, 10, 64] {
            fired.store(0, Ordering::Relaxed);
            let mut sliced_slots = vec![0; 1000];
            let sliced =
                run_parts_mut_yielding(&mut sliced_slots, &ranges, batch, &hook, work).unwrap();
            assert_eq!(
                (sliced, sliced_slots),
                (plain.clone(), slots.clone()),
                "batch={batch}"
            );
            assert_eq!(fired.load(Ordering::Relaxed), ranges.len().div_ceil(batch));
        }
        // Disabled hook: same outputs, zero overhead beyond the branch.
        let off = bwd_device::YieldPoint::disabled();
        let mut off_slots = vec![0; 1000];
        let outs = run_parts_mut_yielding(&mut off_slots, &ranges, 4, &off, work).unwrap();
        assert_eq!((outs, off_slots), (plain, slots));
    }

    #[test]
    fn run_parts_mut_yielding_stops_at_the_erroring_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let ranges = partition_ranges_min(1000, 10, 1);
        let work = |_: usize, r: Range<usize>, _: &mut [u8]| r.into_iter().sum::<usize>();
        let polls = Arc::new(AtomicUsize::new(0));
        let hook = {
            let polls = Arc::clone(&polls);
            bwd_device::YieldPoint::new(Arc::new(move || {
                if polls.fetch_add(1, Ordering::Relaxed) + 1 >= 2 {
                    Err(bwd_types::BwdError::Cancelled)
                } else {
                    Ok(())
                }
            }))
        };
        // Batch of 2: boundaries after ranges 2, 4, ...; the second poll
        // cancels, so exactly 2 polls happen and no result is returned.
        let out = run_parts_mut_yielding(&mut [0; 1000], &ranges, 2, &hook, work);
        assert!(matches!(out, Err(bwd_types::BwdError::Cancelled)));
        assert_eq!(polls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn partition_ranges_cover_exactly() {
        for (len, morsels) in [
            (0usize, 4usize),
            (10, 4),
            (8192, 3),
            (100_000, 8),
            (5000, 1),
        ] {
            let ranges = partition_ranges(len, morsels);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len, "len={len} morsels={morsels}");
            assert!(ranges.len() <= morsels.max(1));
        }
        assert_eq!(partition_ranges(100, 4).len(), 1, "below morsel threshold");
        assert_eq!(partition_ranges_min(100, 4, 1).len(), 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// For arbitrary (len, parts): ranges are non-empty, ordered,
        /// disjoint, cover `0..len` exactly, and sizes differ by ≤ 1.
        #[test]
        fn partition_ranges_partition_invariants(
            len in 0usize..50_000,
            parts in 0usize..70,
        ) {
            // min_items = 1 exercises the real splitting logic on every
            // input; the production threshold only short-circuits tiny
            // inputs into a single range (covered by the cases where
            // len < parts forces clamping anyway).
            let ranges = partition_ranges_min(len, parts, 1);
            if len == 0 {
                proptest::prop_assert!(ranges.is_empty());
            } else {
                proptest::prop_assert!(!ranges.is_empty());
                proptest::prop_assert!(ranges.len() <= parts.max(1));
                let mut covered = 0usize;
                for r in &ranges {
                    proptest::prop_assert_eq!(r.start, covered, "ordered+disjoint+contiguous");
                    proptest::prop_assert!(r.end > r.start, "non-empty");
                    covered = r.end;
                }
                proptest::prop_assert_eq!(covered, len, "covers 0..len");
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                proptest::prop_assert!(max - min <= 1, "balanced: {min}..{max}");
            }
            // The production entry point agrees with itself on the same
            // invariants (it may collapse to one range below the
            // threshold, which trivially satisfies all of them).
            let prod = partition_ranges(len, parts);
            let covered: usize = prod.iter().map(|r| r.len()).sum();
            proptest::prop_assert_eq!(covered, len);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A refinement that reads approximation ‖ packed residual keeps
        /// of the undecided candidates those the undecomposed twin's
        /// payloads pass, and every decided one — in a bitmap, and in a
        /// list, in order — and counts the undecided it kept:
        /// every type × physical width × kind of split, fact-positioned and
        /// through a packed FK link, on 1 and on 3 morsels.
        #[test]
        fn refine_filter_keeps_what_the_plain_twin_passes(
            ty in 0usize..5,
            span_bits in 0usize..6,
            split in 0usize..5,
            rows in 0usize..12_000,
            seed: u64,
        ) {
            use bwd_core::BoundColumn;
            use bwd_storage::encoding::physical_bits;
            use bwd_kernels::{Candidates, SelMask};
            use bwd_storage::{BitPackedVec, Column, DecompositionSpec};
            use bwd_types::DataType;

            let mut rng = bwd_types::SplitMix64::new(seed);
            // Payloads around zero that need 1, 2, 3, 4 or (64-bit types) 8
            // bytes — and from zero, the 2 of a `u16`.
            let log = [6, 14, 16, 22, 26, if ty < 3 { 26 } else { 40 }][span_bits];
            let span = 1u64 << log;
            let lo = if log == 16 { 0 } else { -((span / 2) as i64) };
            let vals: Vec<i64> = (0..rows).map(|_| lo + rng.below(span) as i64).collect();
            let i32s = || vals.iter().map(|&v| v as i32);
            let col = match ty {
                0 => Column::from_i32(i32s().collect()),
                1 => Column::from_payloads(DataType::Date, &i32s().collect::<Vec<_>>()).unwrap(),
                2 => Column::from_payloads(DataType::Decimal { precision: 8, scale: 5 }, &vals).unwrap(),
                3 => Column::from_payloads(DataType::Int64, &vals).unwrap(),
                _ => Column::from_payloads(DataType::decimal(2), &vals).unwrap(),
            };
            let bits = physical_bits(col.dtype());
            let spec = [
                DecompositionSpec::with_device_bits(bits - 8),
                DecompositionSpec::with_device_bits(8),
                DecompositionSpec::all_device(),
                DecompositionSpec::uncompressed(bits - 8),
                DecompositionSpec {
                    frame_of_reference: false,
                    ..DecompositionSpec::with_device_bits(bits - 8)
                },
            ][split];
            let env = bwd_device::Env::paper_default();
            let ledger = &mut bwd_device::CostLedger::new();
            let dtype = col.dtype();
            let dec = col.decompose(&spec).unwrap().split().unwrap().clone();
            let bound = BoundColumn::bind(dec, &env.device, "col", ledger).unwrap();

            let a = lo + rng.below(span) as i64;
            let range = RangePred {
                exclude: vals.first().copied().filter(|_| seed.is_multiple_of(2)),
                ..RangePred::between(a, a + rng.below(span) as i64)
            };
            // The fact rows: the column's own, or 9 000 reaching it by FK
            // through a link packed at the column's row width, as built.
            let width = bwd_types::bits::bits_for_width(rows as u64);
            let link: Vec<u64> = (0..9_000).map(|_| rng.below(rows.max(1) as u64)).collect();
            let link = BitPackedVec::from_slice(width, &link);
            for through_fk in [false, true].into_iter().take(1 + usize::from(rows > 0)) {
                let (fact_rows, link) = match through_fk {
                    false => (rows, None),
                    true => (link.len(), Some(&link)),
                };
                // Candidates and undecided marks, each a seeded subset of
                // the rows: a mark off the candidates is never re-tested.
                let mut subset = |keep: u64| -> Vec<u64> {
                    let mut bits = vec![0u64; fact_rows.div_ceil(64)];
                    for oid in (0..fact_rows).filter(|_| rng.below(8) < keep) {
                        bits[oid / 64] |= 1 << (oid % 64);
                    }
                    bits
                };
                let (cands, undecided) = (subset(6), subset(7));
                let at = |oid: Oid| link.map_or(oid as usize, |l| l.get(oid as usize) as usize);
                let stays = |&oid: &Oid| !marked(&undecided, oid) || range.test(vals[at(oid)]);
                let rows: Vec<Oid> = (0..fact_rows as Oid).filter(|&o| marked(&cands, o)).collect();
                let want: Vec<Oid> = rows.iter().copied().filter(stays).collect();
                let kept = want.iter().filter(|&&o| marked(&undecided, o)).count() as u64;
                // The same candidates as a list in a scrambled order.
                let mut list = rows.clone();
                list.rotate_left(rng.below(1 + rows.len() as u64) as usize);
                let src = ResidualSrc::for_column(&bound, link);
                for morsels in [1, 3] {
                    let mask = SelMask::from_words(cands.clone(), fact_rows, true);
                    let mut sel = SelVec::Bitmap(mask);
                    let n = refine_filter(src, &mut sel, &undecided, &range, morsels);
                    let SelVec::Bitmap(mask) = &sel else { unreachable!() };
                    let got: Vec<Oid> = (0..fact_rows as Oid).filter(|&o| marked(mask.words(), o)).collect();
                    proptest::prop_assert_eq!(
                        (n, mask.count(), &got), (kept, want.len(), &want),
                        "{} {:?} fk={} morsels={}", dtype, spec, through_fk, morsels
                    );
                    let mut sel = SelVec::Indices(Candidates::from_pairs(list.clone(), Vec::new()));
                    let n = refine_filter(src, &mut sel, &undecided, &range, morsels);
                    let want: Vec<Oid> = list.iter().copied().filter(stays).collect();
                    proptest::prop_assert_eq!(
                        (n, &sel.as_indices().unwrap().oids), (kept, &want),
                        "list: {} {:?} fk={} morsels={}", dtype, spec, through_fk, morsels
                    );
                }
            }
        }
    }
}
