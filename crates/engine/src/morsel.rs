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
//! Three building blocks:
//!
//! * [`partition_ranges`] / [`run_parts`] / [`run_parts_mut`] — contiguous
//!   range splitting and scoped-thread fan-out;
//! * [`ScratchPool`] — recycled per-query buffers, so the parallel path
//!   allocates zero intermediate vectors per morsel in steady state;
//! * [`refine_filter`] — the parallelized selection-refinement stage over
//!   the undecided candidates. (The query tail — projection refinement,
//!   grouping, aggregation — streams slice-at-a-time through
//!   [`crate::tail`].)

use bwd_core::RangePred;
use bwd_kernels::scan::cache_worthwhile;
use bwd_kernels::DeviceArray;
use bwd_storage::{BitPackedVec, BlockDecoder, DecompositionMeta};
use bwd_types::Oid;
use std::ops::Range;
use std::sync::Mutex;

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

/// Run `f(worker_index, range)` for every range, on real OS threads when
/// there is more than one. The calling thread takes the last range itself
/// (it would otherwise idle in the join), so `n` partitions cost `n - 1`
/// spawns. Results come back in partition order.
pub(crate) fn run_parts<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    if ranges.len() <= 1 {
        return ranges.iter().map(|r| f(0, r.clone())).collect();
    }
    let last = ranges.len() - 1;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges[..last]
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let f = &f;
                let r = r.clone();
                scope.spawn(move || f(i, r))
            })
            .collect();
        let tail = f(last, ranges[last].clone());
        let mut outs: Vec<T> = handles.into_iter().map(joined).collect();
        outs.push(tail);
        outs
    })
}

/// A worker's output — or its panic, resumed on the orchestrating thread
/// with the payload it was raised with.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Like [`run_parts_mut`], but runs `ranges` in batches of at most `batch`
/// partitions with a [`bwd_device::YieldPoint`] check between batches —
/// the fan-out primitive behind morsel-boundary preemption and
/// cooperative cancellation. The calling (orchestrating) thread is the
/// one that polls the yield point, so a hosted nested query runs with
/// every morsel worker of the paused batch already joined — and a
/// cancellation observed at the boundary stops with no worker in
/// flight. Outputs come back in partition order exactly as
/// [`run_parts_mut`] would return them; the worker index passed to `f` is
/// batch-local (restarts per batch) and must only be used for
/// load-placement, never for output addressing.
pub(crate) fn run_parts_mut_yielding<T, R, F>(
    out: &mut [T],
    ranges: &[Range<usize>],
    batch: usize,
    preempt: &bwd_device::YieldPoint,
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
        preempt.check()?;
    }
    Ok(outs)
}

/// Like [`run_parts`], but additionally hands each worker the disjoint
/// chunk of `out` matching its range, so positionally-aligned stages write
/// straight into one shared output buffer (no per-partition vectors, no
/// merge copy). `out` covers exactly the (contiguous) ranges.
pub(crate) fn run_parts_mut<T, R, F>(out: &mut [T], ranges: &[Range<usize>], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, Range<usize>, &mut [T]) -> R + Sync,
{
    let covered = ranges.last().map_or(0, |r| r.end) - ranges.first().map_or(0, |r| r.start);
    debug_assert_eq!(out.len(), covered);
    if ranges.len() <= 1 {
        return ranges.iter().map(|r| f(0, r.clone(), out)).collect();
    }
    let last = ranges.len() - 1;
    let mut chunks = Vec::with_capacity(last);
    let mut last_chunk = out;
    for r in &ranges[..last] {
        let (chunk, tail) = last_chunk.split_at_mut(r.len());
        chunks.push(chunk);
        last_chunk = tail;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges[..last]
            .iter()
            .enumerate()
            .zip(chunks)
            .map(|((i, r), chunk)| {
                let f = &f;
                let r = r.clone();
                scope.spawn(move || f(i, r, chunk))
            })
            .collect();
        let tail = f(last, ranges[last].clone(), last_chunk);
        let mut outs: Vec<R> = handles.into_iter().map(joined).collect();
        outs.push(tail);
        outs
    })
}

/// Recycled per-query scratch buffers. Workers `take` a buffer, fill it,
/// and the merger `put`s it back cleared (capacity kept) — so after the
/// first stage warms the pool the parallel path allocates no intermediate
/// vectors per morsel.
#[derive(Default)]
pub(crate) struct ScratchPool {
    u32s: Mutex<Vec<Vec<u32>>>,
    u64s: Mutex<Vec<Vec<u64>>>,
}

/// The pool behind `m`, poisoned or not: a stack of plain buffers is
/// valid wherever a panicking worker left it.
fn pool<T>(m: &Mutex<Vec<T>>) -> std::sync::MutexGuard<'_, Vec<T>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ScratchPool {
    pub(crate) fn take_u32(&self) -> Vec<u32> {
        pool(&self.u32s).pop().unwrap_or_default()
    }

    pub(crate) fn put_u32(&self, mut v: Vec<u32>) {
        v.clear();
        pool(&self.u32s).push(v);
    }

    pub(crate) fn take_u64(&self) -> Vec<u64> {
        pool(&self.u64s).pop().unwrap_or_default()
    }

    pub(crate) fn put_u64(&self, mut v: Vec<u64>) {
        v.clear();
        pool(&self.u64s).push(v);
    }
}

/// Where a refinement finds a tuple's residual bits.
#[derive(Clone, Copy)]
pub(crate) enum ResidualSrc<'a> {
    /// Fully device-resident column: no residual exists, every read is 0.
    None,
    /// Fact-positioned residual (`residual[oid]`). `cached` routes reads
    /// through the block-cached bulk decoder — worth it when the refined
    /// set is dense (candidate oids ascend within scan blocks).
    Fact {
        residual: &'a BitPackedVec,
        cached: bool,
    },
    /// Dimension-positioned residual through the host FK index
    /// (`residual[fk[oid]]`): arbitrary positions, never cached.
    Dim {
        residual: &'a BitPackedVec,
        fk: &'a [u32],
    },
}

impl<'a> ResidualSrc<'a> {
    /// The source for `col`, with the cache heuristic driven by how many
    /// of the column's rows the refinement will touch.
    /// `fk` is the host FK index a dimension column is reached through.
    pub(crate) fn for_column(
        col: &'a bwd_core::BoundColumn,
        fk: Option<&'a [u32]>,
        expected_accesses: usize,
    ) -> ResidualSrc<'a> {
        let residual = col.residual();
        match fk {
            _ if col.meta().resbits() == 0 => ResidualSrc::None,
            Some(fk) => ResidualSrc::Dim { residual, fk },
            None => ResidualSrc::Fact {
                residual,
                cached: cache_worthwhile(expected_accesses, col.len()),
            },
        }
    }

    /// A per-worker reader (each worker owns its decode cache).
    pub(crate) fn reader(&self) -> ResidualReader<'a> {
        match *self {
            ResidualSrc::None => ResidualReader::Zero,
            ResidualSrc::Fact {
                residual,
                cached: false,
            } => ResidualReader::Direct(residual),
            ResidualSrc::Fact {
                residual,
                cached: true,
            } => ResidualReader::Cached(Box::new(BlockDecoder::new(residual))),
            ResidualSrc::Dim { residual, fk } => ResidualReader::Dim(residual, fk),
        }
    }
}

pub(crate) enum ResidualReader<'a> {
    Zero,
    Direct(&'a BitPackedVec),
    Cached(Box<BlockDecoder<'a>>),
    Dim(&'a BitPackedVec, &'a [u32]),
}

impl ResidualReader<'_> {
    #[inline]
    pub(crate) fn get(&mut self, oid: Oid) -> u64 {
        match self {
            ResidualReader::Zero => 0,
            ResidualReader::Direct(res) => res.get(oid as usize),
            ResidualReader::Cached(dec) => dec.get(oid as usize),
            ResidualReader::Dim(res, fk) => res.get(fk[oid as usize] as usize),
        }
    }
}

/// Concatenate per-worker survivor lists in partition order, recycling
/// the buffers; a single partition's list is handed over as is (no
/// second full-length copy).
fn merge_oid_parts(mut outs: Vec<Vec<Oid>>, pool: &ScratchPool) -> Vec<Oid> {
    if outs.len() == 1 {
        return outs.swap_remove(0);
    }
    let mut merged = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    for out in outs {
        merged.extend_from_slice(&out);
        pool.put_u32(out);
    }
    merged
}

/// A pooled survivor buffer with room for `bound` oids up front, so
/// filling it never re-allocates (untouched capacity costs no memory).
fn take_oids(pool: &ScratchPool, bound: usize) -> Vec<Oid> {
    let mut out = pool.take_u32();
    out.reserve(bound);
    out
}

/// Morsel-parallel selection refinement over the candidates the
/// approximation left *undecided*: reconstruct each one's exact payload
/// (approximation ‖ residual) and keep the oids passing the precise
/// `range` test, in candidate order. Approximations decode from the
/// (replicated-on-host) device array — `arr[oid]` for fact-side
/// predicates, `arr[link[oid]]` through the FK link for dimension-side
/// ones — the values the device gathers for exactly these candidates, so
/// neither candidate representation is consulted. Pure computation — the
/// caller charges the simulated cost from the merged totals.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_filter(
    meta: &DecompositionMeta,
    residual: ResidualSrc<'_>,
    arr: &DeviceArray,
    link: Option<&DeviceArray>,
    undecided: &[Oid],
    range: &RangePred,
    morsels: usize,
    pool: &ScratchPool,
) -> Vec<Oid> {
    let ranges = partition_ranges(undecided.len(), morsels);
    let outs = run_parts(&ranges, |_, r| {
        let mut out = take_oids(pool, r.len());
        let mut res = residual.reader();
        for &oid in &undecided[r] {
            let stored = arr.get(link.map_or(oid, |l| l.get(oid as usize) as Oid) as usize);
            if range.test(meta.payload_from_parts(stored, res.get(oid))) {
                out.push(oid);
            }
        }
        out
    });
    merge_oid_parts(outs, pool)
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

    #[test]
    fn scratch_pool_recycles_buffers() {
        let pool = ScratchPool::default();
        let mut v = pool.take_u32();
        v.extend(0..4096);
        let cap = v.capacity();
        pool.put_u32(v);
        let back = pool.take_u32();
        assert!(back.is_empty() && back.capacity() >= cap, "cleared, warm");
        assert_eq!(pool.take_u32().capacity(), 0, "pool drained");
        let mut v = pool.take_u64();
        v.reserve(128);
        pool.put_u64(v);
        assert!(pool.take_u64().capacity() >= 128);
    }
}
