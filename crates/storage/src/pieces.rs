//! One way a long pass runs on every core: `cuts` cuts its rows into
//! pieces, [`in_pieces`] works them on scoped threads, the last on the
//! calling thread, and each piece writes its rows into its own part of
//! each output's one run ([`crate::Column::fill`]). One piece is the
//! serial pass: it spawns nothing.

use crate::bitpack::DECODE_BLOCK;
use std::ops::Range;

/// Rows from which a pass fans out over the host's cores.
pub(crate) const PARALLEL_ROWS: usize = 1 << 20;

/// How many pieces a pass over `rows` rows is cut in: one below 2²⁰
/// rows, else one per core.
pub fn chunk_count(rows: usize) -> usize {
    match rows < PARALLEL_ROWS {
        true => 1,
        false => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Rows `0..len` in at most `chunks` contiguous pieces, each but the last
/// a multiple of [`DECODE_BLOCK`] rows — 64 rows of `w` bits are `w`
/// words, so a piece of a bit-packed run starts on a word at every width.
/// No rows are one empty piece.
pub(crate) fn cuts(len: usize, chunks: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let piece = (len.div_ceil(chunks.max(1)).next_multiple_of(DECODE_BLOCK)).max(DECODE_BLOCK);
    (0..len.div_ceil(piece).max(1)).map(move |k| k * piece..len.min((k + 1) * piece))
}

/// `work` on every piece: each but the last on a scoped thread spawned as
/// soon as `pieces` yields it, the last on the calling thread. Results in
/// piece order; a worker's panic is resumed here.
pub fn in_pieces<P: Send, R: Send>(
    mut pieces: impl ExactSizeIterator<Item = P>,
    work: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let (spawned, work) = (pieces.len().saturating_sub(1), &work);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (pieces.by_ref().take(spawned))
            .map(|piece| scope.spawn(move || work(piece)))
            .collect();
        let last = pieces.next().map(work);
        let joined = workers
            .into_iter()
            .map(|worker| (worker.join()).unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        joined.chain(last).collect()
    })
}

/// The state each piece of `len` rows starts from, asked front to back
/// ([`crate::Column::fill`]'s `piece`): the calling thread walks `row` from
/// `state` over each piece but the last, dropping the rows.
pub fn checkpoints<S: Clone, R>(
    len: usize,
    mut state: S,
    row: impl Fn(&mut S) -> R,
) -> impl FnMut(Range<usize>) -> S {
    move |rows| {
        let start = state.clone();
        if rows.end < len {
            rows.for_each(|_| _ = row(&mut state));
        }
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_cover_the_rows_at_block_multiples() {
        for len in [0, 1, 63, 64, 65, 1_000, 10_000] {
            for chunks in [1, 2, 3, 7] {
                let cut: Vec<_> = cuts(len, chunks).collect();
                assert_eq!(cut.len(), cuts(len, chunks).len());
                assert!(cut.len() <= chunks.max(1), "{len} rows, {chunks}");
                assert_eq!((cut[0].start, cut[cut.len() - 1].end), (0, len));
                for pair in cut.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                    assert_eq!(pair[0].end % DECODE_BLOCK, 0);
                }
            }
        }
        // A long run is cut in as many pieces as asked.
        assert_eq!(cuts(10_000, 7).len(), 7);
    }

    #[test]
    fn pieces_run_in_order_from_their_checkpoints() {
        for chunks in [1, 2, 3, 7] {
            let results = in_pieces(cuts(10_000, chunks), |rows| rows.start);
            let starts: Vec<_> = cuts(10_000, chunks).map(|rows| rows.start).collect();
            assert_eq!(results, starts);
            let mut at = checkpoints(10_000, 0u64, |n| *n += 1);
            let states: Vec<_> = cuts(10_000, chunks).map(&mut at).collect();
            assert_eq!(states, starts.iter().map(|&s| s as u64).collect::<Vec<_>>());
        }
    }
}
