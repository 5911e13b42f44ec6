//! One way a long pass runs on every core: `cuts` cuts its rows into
//! pieces, [`in_pieces`] works them on scoped threads, the last on the
//! calling thread, and [`Row::fill`] writes each piece's rows into each
//! output's one buffer. One piece is the serial pass: it spawns nothing.

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
    let piece = len.div_ceil(chunks.max(1)).next_multiple_of(DECODE_BLOCK);
    let piece = piece.max(DECODE_BLOCK);
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

/// A row of outputs — a tuple, one value each — filled into one buffer an
/// output.
pub trait Row: Sized {
    /// The outputs.
    type Vecs;
    /// `len` rows in the pieces `pieces` yields, front to back — each its
    /// row count and the state `row` draws its rows from, in order —
    /// written once each into uninitialised capacity by the piece's thread
    /// ([`in_pieces`]), which touches those pages first. Panics unless the
    /// pieces' rows sum to `len`.
    fn fill<P: Send>(
        len: usize,
        pieces: impl ExactSizeIterator<Item = (usize, P)>,
        row: impl Fn(&mut P) -> Self + Sync,
    ) -> Self::Vecs;

    /// `len` rows drawn in turn by `row` from `state` on, checkpoint then
    /// fill: the calling thread walks `row` to each piece's end (`cuts`),
    /// dropping the rows, and [`Row::fill`] fills each from its start.
    fn checkpoint_fill<S: Clone + Send>(
        len: usize,
        chunks: usize,
        mut state: S,
        row: impl Fn(&mut S) -> Self + Sync,
    ) -> Self::Vecs {
        let pieces = cuts(len, chunks).map(|rows| {
            let start = state.clone();
            if rows.end < len {
                rows.clone().for_each(|_| _ = row(&mut state));
            }
            (rows.len(), start)
        });
        Self::fill(len, pieces, &row)
    }
}

macro_rules! rows {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Send),+> Row for ($($t,)+) {
            type Vecs = ($(Vec<$t>,)+);
            fn fill<P: Send>(
                len: usize,
                pieces: impl ExactSizeIterator<Item = (usize, P)>,
                row: impl Fn(&mut P) -> Self + Sync,
            ) -> Self::Vecs {
                let mut vecs = ($(Vec::<$t>::with_capacity(len),)+);
                let mut free = ($(&mut vecs.$i.spare_capacity_mut()[..len],)+);
                let mut cut = 0;
                let pieces = pieces.map(|(n, state)| {
                    cut += n;
                    let slots = ($({
                        let (slots, rest) = std::mem::take(&mut free.$i).split_at_mut(n);
                        free.$i = rest;
                        slots
                    },)+);
                    (n, slots, state)
                });
                in_pieces(pieces, |(n, slots, mut state)| {
                    let slots = ($(&mut slots.$i[..n],)+);
                    for k in 0..n {
                        let v = row(&mut state);
                        $(slots.$i[k].write(v.$i);)+
                    }
                });
                assert_eq!(cut, len, "pieces of {cut} rows fill {len}");
                // SAFETY: the pieces' slots are disjoint and cover the
                // first `len` slots of each vector (`cut == len`); every
                // piece wrote all `n` of its own and was joined, a panic
                // resumed before this point.
                unsafe { $(vecs.$i.set_len(len);)+ }
                vecs
            }
        }
    };
}
rows!(A 0);
rows!(A 0, B 1, C 2, D 3);
rows!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);

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
    fn pieces_fill_every_output_in_row_order() {
        for chunks in [1, 2, 3, 7] {
            let pieces = cuts(10_000, chunks).map(|rows| (rows.len(), rows));
            let (a, b, c, d) = <(u32, i8, u64, u8)>::fill(10_000, pieces, |rows| {
                let r = rows.next().unwrap();
                (r as u32 * 3, r as i8, r as u64, 1)
            });
            assert_eq!(a, (0..10_000).map(|r| r * 3).collect::<Vec<_>>());
            assert_eq!(b, (0..10_000).map(|r| r as i8).collect::<Vec<_>>());
            assert_eq!(c, (0..10_000).collect::<Vec<_>>(), "{chunks} pieces");
            assert_eq!(d, [1; 10_000]);
            let results = in_pieces(cuts(10_000, chunks), |rows| rows.start);
            let starts: Vec<_> = cuts(10_000, chunks).map(|rows| rows.start).collect();
            assert_eq!(results, starts);
        }
    }

    #[test]
    #[should_panic(expected = "pieces of 2 rows fill 3")]
    fn pieces_short_of_the_length_are_refused() {
        let pieces = [(2, 0u8)].into_iter();
        <(u8,)>::fill(3, pieces, |v| (*v,));
    }
}
