//! The classic (CPU-only) bulk executor — the "standard MonetDB" baseline
//! of the evaluation (§VI-A).
//!
//! Operators are tight loops over full-resolution columns: the selection
//! chain scans payloads into one positional bitmap — filled by the first
//! predicate, AND-refined by the rest — and the tail streams its set bits
//! slice-at-a-time through [`crate::tail`]: fetch by oid (invisible
//! joins), hash the key payloads, evaluate, aggregate. The run counts its
//! per-stage survivors and bills them once through
//! [`ClassicShape::bill`] — the *bulk* model, at the environment's thread
//! allocation (Figure 11 varies the threads).

use crate::arexec::Probe;
use crate::bill::{ClassicShape, Counts};
use crate::catalog::Catalog;
use crate::eval::RowBlock;
use crate::morsel::{partition_mask_ranges, partition_ranges, run_parts_mut_yielding};
use crate::result::QueryResult;
use crate::tail::{SliceSource, SLICE_ROWS};
use bwd_core::plan::{ArPlan, BoundSelection};
use bwd_core::RangePred;
use bwd_device::{CostLedger, Env};
use bwd_kernels::{Cursor, Positions, ScanOptions, SelMask};
use bwd_obs::{pack_chain_order, EventKind, GroupAggTables};
use bwd_storage::{with_slice, BitPackedVec, Column, DECODE_BLOCK};
use bwd_types::{bits::low_mask, Oid, Result};

/// Execute an A&R-bound plan classically (host only, exact data) and
/// return what the run counted. `plan` may be the plan [`bill::order`]
/// chose for a bound one; `chain` holds, per step, the selection's index
/// in the bound plan — what the `Classic` span reports. `link` is the
/// pre-built foreign-key index (fact row → dimension row, bit-packed) when
/// the plan contains a join — the paper's baseline uses pre-built indexes
/// for projective joins as well.
///
/// The selection chain runs morsel-parallel on `morsels` real OS threads
/// over contiguous row partitions, and results are **bit-identical** to
/// the serial run: each partition runs the full chain over its own words
/// of the one survivor bitmap (a CPU selection is positional, so chained
/// filters stay partition-local), and the tail walks the set bits in
/// ascending order — exactly the serial scan order. Simulated costs are
/// charged once from the merged per-stage tuple counts, so the cost model
/// is independent of the real parallelism; `env.host_threads` keeps
/// modelling the *simulated* thread allocation.
///
/// [`bill::order`]: crate::bill::order
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_classic_counted(
    catalog: &Catalog,
    plan: &ArPlan,
    chain: &[usize],
    link: Option<&BitPackedVec>,
    env: &Env,
    morsels: usize,
    slice_rows: usize,
    ledger: &mut CostLedger,
) -> Result<(QueryResult, Counts)> {
    let shape = ClassicShape::resolve(catalog, plan, link.is_some())?;
    let obs = env.trace.recorder.worker(&env.trace.lane);
    let order = pack_chain_order(chain);
    let run = Probe::begin(
        &obs,
        EventKind::Classic,
        env.trace.parent,
        ledger,
        order,
        morsels as u64,
    );
    let mut counts = Counts {
        rows: shape.rows,
        ..Counts::default()
    };
    let n = counts.rows as usize;

    // --- Selection chain (one survivor bitmap). No selection: every tuple
    // survives, and nothing is materialized.
    let mask = match plan.selections.is_empty() {
        true => None,
        false => {
            let (mask, stages) =
                selection_mask(&plan.selections, &shape.sels, link, n, morsels, env)?;
            counts.steps = stages;
            Some(mask)
        }
    };
    let survivors = mask.as_ref().map_or(Positions::All(n), Positions::Mask);
    let k = survivors.len();
    counts.survivors = k as u64;

    // Charge once from the merged per-stage counts — identical to the
    // serial charges because they depend only on totals.
    shape.select_and_fetch(&counts, env, ledger);

    // The real work behind all of the above, one slice at a time. A tail
    // that fetches nothing (a bare count) reads no position: any `k` do.
    env.yield_point.check()?;
    let positions = match shape.gathered.is_empty() {
        true => Positions::All(k),
        false => survivors,
    };
    let sources = partition_ranges(positions.span(), morsels)
        .into_iter()
        .map(|span| ClassicSource {
            cursor: positions.cursor(span),
            oids: Vec::new(),
            cols: &shape.gathered,
            link,
        })
        .collect();
    let tail = &shape.tail;
    let partials = tail.run(env, sources, slice_rows)?;
    let folded = tail.fold_trace();
    let agg = Probe::begin(
        &obs,
        EventKind::GroupAgg,
        run.span,
        ledger,
        k as u64,
        folded.pack(),
    );
    let out = tail.finish(partials);
    if !plan.fold.is_empty() {
        // The fold groups the roll-up reads.
        counts.groups = out.groups;
    }
    shape.aggregate(&counts, env, ledger);
    let host_grouping = GroupAggTables {
        grouping: u64::from(!plan.group_by.is_empty()),
        ..GroupAggTables::default()
    };
    let rendered = out.rows.len() as u64;
    agg.end(&obs, ledger, rendered, host_grouping.pack());
    run.end(&obs, ledger, rendered, 0);

    let result = QueryResult {
        columns: out.columns,
        rows: out.rows,
        breakdown: ledger.breakdown(),
        traffic: ledger.traffic(),
        survivors: k,
        approx: None,
    };
    Ok((result, counts))
}

/// The selection chain over rows `0..n` as one positional bitmap — filled
/// by the first selection's full scan, AND-refined in place by each later
/// one (which tests only the rows still set) — plus the survivor count
/// after every stage, which is what the bulk model's oid lists are billed
/// from. Workers take word-aligned partitions of the bitmap, so they
/// write disjoint words and every partition boundary is a row boundary of
/// the serial scan.
///
/// With a yield point installed the row space is cut finer than the
/// thread count, so a yield point comes up every ~[`SLICE_ROWS`] rows
/// instead of once per scan. Bits are positional and counts are sums, so
/// the result and every simulated charge are independent of the partition
/// count.
fn selection_mask(
    selections: &[BoundSelection],
    sel_cols: &[(&Column, bool)],
    link: Option<&BitPackedVec>,
    n: usize,
    morsels: usize,
    env: &Env,
) -> Result<(SelMask, Vec<u64>)> {
    // The whole chain over the mask words from `part.start` on.
    let chain = |_, part: std::ops::Range<usize>, words: &mut [u64]| -> Vec<u64> {
        let first_word = part.start;
        let mut counts = Vec::with_capacity(selections.len());
        for (stage, (sel, &(col, is_dim))) in selections.iter().zip(sel_cols).enumerate() {
            let (rows, link) = ((stage == 0).then_some(n), link.filter(|_| is_dim));
            // One loop per physical width: the per-row work is a load and
            // two compares, a dispatch inside it would double it.
            counts.push(with_slice!(col.data(), v => {
                select_words(words, first_word, rows, &sel.range, v, link)
            }));
        }
        counts
    };
    let mut words = vec![0u64; n.div_ceil(64)];
    let parts = match env.yield_point.is_enabled() {
        true => morsels.max(n.div_ceil(SLICE_ROWS)),
        false => morsels,
    };
    let ranges = partition_mask_ranges(words.len(), parts);
    let outputs = run_parts_mut_yielding(&mut words, &ranges, morsels, &env.yield_point, chain)?;
    let mut totals = vec![0u64; selections.len()];
    for part_counts in outputs {
        for (t, c) in totals.iter_mut().zip(part_counts) {
            *t += c;
        }
    }
    // Set bits are walked in ascending row order: the serial scan's.
    let ascending = ScanOptions {
        preserve_order: true,
        ..ScanOptions::default()
    };
    Ok((SelMask::from_words(words, n, &ascending), totals))
}

/// One selection over the mask words from `first_word` on, testing
/// `col[row]` (`col[link[row]]` for a dimension column): with `rows` (the
/// relation's length) a full scan that fills the words, without it the
/// AND-refinement of the rows still set. Returns the survivor count.
fn select_words<T: Copy + Into<i64>>(
    words: &mut [u64],
    first_word: usize,
    rows: Option<usize>,
    range: &RangePred,
    col: &[T],
    link: Option<&BitPackedVec>,
) -> u64 {
    let mut count = 0;
    if let (Some(n), None) = (rows, link) {
        // A full scan of a fact column reads its rows in order, as 64-row
        // slices: no bit to find and no index to check, which is what
        // keeps a 3-byte payload as cheap to test as a 4-byte one.
        let start = first_word * 64;
        let rows = &col[start..n.min(start + 64 * words.len())];
        for (word, rows) in words.iter_mut().zip(rows.chunks(64)) {
            let mut bits = 0;
            for (k, &payload) in rows.iter().enumerate() {
                bits |= u64::from(range.test(payload.into())) << k;
            }
            (*word, count) = (bits, count + u64::from(bits.count_ones()));
        }
        return count;
    }
    // A dimension column's positions: per word, the link entries from its
    // first to its last live row, decoded in one pass.
    let mut dims = [0u64; DECODE_BLOCK];
    for (w, word) in words.iter_mut().enumerate() {
        let at = (first_word + w) * 64;
        let mut live = match rows {
            Some(n) => low_mask((n - at).min(64) as u32),
            None => *word,
        };
        *word = 0;
        if let Some(link) = link.filter(|_| live != 0) {
            let (lo, hi) = (live.trailing_zeros(), 64 - live.leading_zeros());
            link.unpack_range(at + lo as usize, &mut dims[lo as usize..hi as usize]);
        }
        while live != 0 {
            let k = live.trailing_zeros() as usize;
            let row = link.map_or(at + k, |_| dims[k] as usize);
            *word |= u64::from(range.test(col[row].into())) << k;
            live &= live - 1;
        }
        count += u64::from(word.count_ones());
    }
    count
}

/// The classic slice source: projective fetches by oid (through the FK
/// link for dimension columns) over one worker's part of the survivors.
struct ClassicSource<'a> {
    cursor: Cursor<'a>,
    /// The current slice's survivors (reused).
    oids: Vec<Oid>,
    cols: &'a [(&'a Column, bool)],
    link: Option<&'a BitPackedVec>,
}

impl SliceSource for ClassicSource<'_> {
    fn fill(&mut self, slice_rows: usize, block: &mut RowBlock, _: &mut Vec<u32>) -> Result<bool> {
        let more = self.cursor.next_window(slice_rows, &mut self.oids);
        block.resize(self.oids.len());
        for (slot, &(col, is_dim)) in self.cols.iter().enumerate() {
            // `run_classic_sliced` rejects dimension columns without an index.
            let link = self.link.filter(|_| is_dim);
            let out = block.payloads_mut(slot);
            with_slice!(col.data(), v => fetch(v, link, &self.oids, out));
        }
        Ok(more)
    }
}

/// `out[i] = col[oids[i]]` (`col[link[oids[i]]]` for a dimension column),
/// widened: one loop per physical width, like [`select_words`]. `oids`
/// ascend (they are a mask's survivors), so a run of them inside one
/// 64-row word decodes the link from its first to its last oid in one
/// pass.
fn fetch<T: Copy + Into<i64>>(
    col: &[T],
    link: Option<&BitPackedVec>,
    oids: &[Oid],
    out: &mut [i64],
) {
    let Some(link) = link else {
        let rows = out.iter_mut().zip(oids);
        return rows.for_each(|(o, &oid)| *o = col[oid as usize].into());
    };
    let (mut out, mut dims) = (out.iter_mut(), [0u64; DECODE_BLOCK]);
    for run in oids.chunk_by(|a, b| a / 64 == b / 64) {
        let (lo, hi) = (run[0] as usize, run[run.len() - 1] as usize);
        link.unpack_range(lo, &mut dims[..=hi - lo]);
        for (&oid, o) in run.iter().zip(out.by_ref()) {
            *o = col[dims[oid as usize - lo] as usize].into();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::Table;
    use bwd_core::plan::{AggExpr, AggFunc, ArPlan, BoundSelection, ScalarExpr as E};
    use bwd_core::RangePred;
    use bwd_types::Value;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::new(
                "t",
                vec![
                    ("a".into(), Column::from_i32((0..100).collect())),
                    (
                        "b".into(),
                        Column::from_i32((0..100).map(|i| i % 5).collect()),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn count_plan(selections: Vec<BoundSelection>, group_by: Vec<String>) -> ArPlan {
        ArPlan {
            table: "t".into(),
            selections,
            fk_join: None,
            group_by,
            aggs: vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(E::col("a")),
                    alias: "s".into(),
                },
            ],
            project: vec![],
            fold: vec![],
        }
    }

    /// [`run_classic_counted`] over the plan as bound, with an explicit tail
    /// slice size and ledger (tests sweep the one and read the other's
    /// events; results and charges are independent of the slice size).
    pub(crate) fn run_classic_sliced(
        catalog: &Catalog,
        plan: &ArPlan,
        link: Option<&BitPackedVec>,
        env: &Env,
        morsels: usize,
        slice_rows: usize,
        ledger: &mut CostLedger,
    ) -> Result<QueryResult> {
        let chain: Vec<usize> = (0..plan.selections.len()).collect();
        let run = run_classic_counted(
            catalog, plan, &chain, link, env, morsels, slice_rows, ledger,
        );
        run.map(|r| r.0)
    }

    fn run(cat: &Catalog, plan: &ArPlan, env: &Env) -> QueryResult {
        let ledger = &mut CostLedger::new();
        run_classic_sliced(cat, plan, None, env, 1, SLICE_ROWS, ledger).unwrap()
    }

    #[test]
    fn select_count_sum() {
        let cat = setup();
        let env = Env::paper_default();
        let plan = count_plan(
            vec![BoundSelection {
                column: "a".into(),
                range: RangePred::between(10, 19),
                selectivity_hint: None,
            }],
            vec![],
        );
        let r = run(&cat, &plan, &env);
        assert_eq!(r.rows[0][0], Value::Int(10));
        assert_eq!(r.rows[0][1], Value::Int((10..20).sum::<i64>()));
        assert!(r.breakdown.host > 0.0);
        assert_eq!(r.breakdown.device, 0.0);
    }

    #[test]
    fn grouped_counts() {
        let cat = setup();
        let env = Env::paper_default();
        let plan = count_plan(vec![], vec!["b".into()]);
        let r = run(&cat, &plan, &env);
        assert_eq!(r.rows.len(), 5);
        // Each residue class has 20 members; keys sorted 0..5.
        for (i, row) in r.rows.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64));
            assert_eq!(row[1], Value::Int(20));
        }
    }

    /// The selection chain this module retired — an oid list per stage,
    /// filtered into the next — kept as the oracle: `(survivors, per-stage
    /// counts)` of the serial scan.
    fn list_chain(
        selections: &[BoundSelection],
        sel_cols: &[(&Column, bool)],
        fk: &BitPackedVec,
        n: usize,
    ) -> (Vec<Oid>, Vec<u64>) {
        let mut counts = Vec::new();
        let mut surv: Vec<Oid> = (0..n as Oid).collect();
        for (sel, &(col, is_dim)) in selections.iter().zip(sel_cols) {
            let fetch = |oid: Oid| match is_dim {
                true => col.payload(fk.get(oid as usize) as usize),
                false => col.payload(oid as usize),
            };
            surv.retain(|&oid| sel.range.test(fetch(oid)));
            counts.push(surv.len() as u64);
        }
        (surv, counts)
    }

    /// The mask chain against the list chain: for no to four selections —
    /// dense, sparse, through the FK index, an exclusion, one that keeps
    /// nothing — at every worker count, with and without the finer
    /// yield-grain partitioning, a projection returns the list
    /// chain's survivors in its order, and the bill reads its per-stage
    /// counts and is the serial run's to the bit.
    #[test]
    fn mask_chain_matches_the_list_chain() {
        const N: usize = 150_001;
        let i32s = |n: usize, f: &dyn Fn(i64) -> i64| {
            Column::from_i32((0..n as i64).map(|i| f(i) as i32).collect())
        };
        let fact = vec![
            ("id".into(), Column::from_i64((0..N as i64).collect())),
            ("a".into(), i32s(N, &|i| i * 7919 % 1000)),
            (
                "b".into(),
                Column::from_i64((0..N as i64).map(|i| i * 31 % 97).collect()),
            ),
            ("fk".into(), i32s(N, &|i| i * 13 % 50)),
        ];
        let dim = vec![("x".into(), i32s(50, &|i| i % 6))];
        let mut cat = Catalog::new();
        cat.add_table(Table::new("t", fact).unwrap()).unwrap();
        cat.add_table(Table::new("d", dim).unwrap()).unwrap();
        let fk = BitPackedVec::pack(6, (0..N).map(|i| i as u64 * 13 % 50));
        let sel = |column: &str, range| BoundSelection {
            column: column.into(),
            range,
            selectivity_hint: None,
        };
        let not_five = RangePred {
            exclude: Some(5),
            ..RangePred::all()
        };
        let chains = [
            vec![],
            vec![sel("a", RangePred::between(0, 979))],
            vec![sel("d.x", RangePred::between(2, 3)), sel("b", not_five)],
            vec![
                sel("a", RangePred::between(100, 104)),
                sel("b", RangePred::between(0, 60)),
                sel("d.x", RangePred::between(1, 5)),
            ],
            vec![
                sel("b", RangePred::between(10, 90)),
                sel("d.x", RangePred::between(0, 4)),
                sel("a", RangePred::between(2000, 3000)),
                sel("id", RangePred::between(0, 10)),
            ],
        ];
        let polls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let yielding = {
            let polls = std::sync::Arc::clone(&polls);
            bwd_device::YieldPoint::new(std::sync::Arc::new(move || {
                polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            }))
        };
        for selections in chains {
            let plan = ArPlan {
                table: "t".into(),
                selections,
                fk_join: Some(bwd_core::plan::FkJoinPlan {
                    fact_key: "fk".into(),
                    dim_table: "d".into(),
                }),
                group_by: vec![],
                aggs: vec![],
                project: vec![(E::col("id"), "id".into())],
                fold: vec![],
            };
            let column = |name: &str| match name.split_once('.') {
                Some((t, c)) => (cat.table(t).unwrap().column(c).unwrap(), true),
                None => (cat.table("t").unwrap().column(name).unwrap(), false),
            };
            let sel_cols: Vec<_> = plan.selections.iter().map(|s| column(&s.column)).collect();
            let (survivors, counts) = list_chain(&plan.selections, &sel_cols, &fk, N);
            let rows: Vec<Vec<Value>> = (survivors.iter())
                .map(|&oid| vec![Value::Int(oid as i64)])
                .collect();
            let mut serial = None;
            for (morsels, polled) in [1, 2, 3, 7]
                .into_iter()
                .flat_map(|m| [(m, false), (m, true)])
            {
                let mut env = Env::paper_default();
                if polled {
                    env.yield_point = yielding.clone();
                }
                let mut ledger = CostLedger::with_trace();
                let r =
                    run_classic_sliced(&cat, &plan, Some(&fk), &env, morsels, 1000, &mut ledger)
                        .unwrap();
                let tag = format!(
                    "{} selections, {morsels} morsels, polled {polled}",
                    counts.len()
                );
                assert_eq!(r.rows, rows, "{tag}");
                assert_eq!(r.survivors, survivors.len(), "{tag}");
                // The cost model is independent of the real parallelism.
                let bill = serial.get_or_insert((r.breakdown, r.traffic));
                assert_eq!((r.breakdown, r.traffic), *bill, "{tag}");
                // Every stage writes its oid list: 4 B per survivor on top
                // of what it reads — through a 4 B FK code per row tested
                // for a dimension column.
                let mut input = N as u64;
                let stages = ledger.events().iter().zip(&counts).zip(&sel_cols);
                for ((e, &out), &(col, is_dim)) in stages {
                    let read = match e.label.as_str() {
                        "classic.select.scan" => col.plain_bytes(),
                        "classic.select.fetch" => input * col.dtype().plain_width(),
                        other => panic!("{tag}: {other} inside the chain"),
                    };
                    let codes = if is_dim { input * 4 } else { 0 };
                    assert_eq!(e.bytes, read + codes + out * 4, "{tag}");
                    input = out;
                }
            }
        }
        assert!(polls.load(std::sync::atomic::Ordering::Relaxed) > 8 * N / SLICE_ROWS);
    }

    /// The first two links of a chain over typed slices: a full scan of
    /// `a` that fills the mask, then the refinement of its set rows by
    /// `b` through `fk` — the mask words and both survivor counts.
    fn two_links<A: Copy + Into<i64>, B: Copy + Into<i64>>(
        (a, a_range): (&[A], &RangePred),
        (b, b_range): (&[B], &RangePred),
        fk: &BitPackedVec,
    ) -> (Vec<u64>, [u64; 2]) {
        let mut words = vec![0u64; a.len().div_ceil(64)];
        let scanned = select_words(&mut words, 0, Some(a.len()), a_range, a, None);
        let refined = select_words(&mut words, 0, None, b_range, b, Some(fk));
        (words, [scanned, refined])
    }

    /// Every value a width boundary lies next to: the extremes of `i8`,
    /// `i16`, `u16`, the 3-byte `I24` and `i32`, one past each, and two
    /// deep in `i64`.
    const EDGES: [i64; 22] = [
        0,
        -1,
        -129,
        -128,
        127,
        128,
        -32_769,
        -32_768,
        32_767,
        32_768,
        65_535,
        65_536,
        -(1 << 23) - 1,
        -(1 << 23),
        (1 << 23) - 1,
        1 << 23,
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
        -(1 << 62),
        1 << 62,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Width is invisible to the classic pipe: over a fact column and a
        /// dimension column stored in any two of the six widths — their
        /// extrema on the width boundaries —, the selection chain fills the
        /// mask words and counts — and the tail fetches the payloads — it
        /// does over their widened copies.
        #[test]
        fn width_is_invisible_to_the_selection_chain_and_the_fetch(
            a_lo in 0usize..EDGES.len(),
            a_hi in 0usize..EDGES.len(),
            b_lo in 0usize..EDGES.len(),
            b_hi in 0usize..EDGES.len(),
            n in 0usize..700,
            dim_rows in 1usize..40,
            seed: u64,
        ) {
            let mut rng = bwd_types::SplitMix64::new(seed);
            let domain = |x: usize, y: usize| (EDGES[x].min(EDGES[y]), EDGES[x].max(EDGES[y]));
            let (a_dom, b_dom) = (domain(a_lo, a_hi), domain(b_lo, b_hi));
            // `hi - lo` < 2^64 − 1: the edges stop short of the `i64` extremes.
            let mut draw = |(lo, hi): (i64, i64)| {
                lo.wrapping_add(rng.below(hi.wrapping_sub(lo) as u64 + 1) as i64)
            };
            // Both extrema, then draws between them.
            let mut column = |rows: usize, dom: (i64, i64)| {
                let rest = (2..rows).map(|_| draw(dom));
                Column::from_i64([dom.0, dom.1].into_iter().chain(rest).take(rows).collect())
            };
            let (a, b) = (column(n, a_dom), column(dim_rows, b_dom));
            let width = bwd_types::bits::bits_for_width(dim_rows as u64);
            let fk = (0..n).map(|_| draw((0, dim_rows as i64 - 1)) as u64);
            let fk = BitPackedVec::pack(width, fk);
            let mut range = |dom: (i64, i64)| {
                let (x, y) = (draw(dom), draw(dom));
                RangePred {
                    exclude: Some(draw(dom)),
                    ..RangePred::between(x.min(y), x.max(y))
                }
            };
            let (a_range, b_range) = (range(a_dom), range(b_dom));
            let widened = two_links((&a.payloads(), &a_range), (&b.payloads(), &b_range), &fk);
            let stored = with_slice!(a.data(), a => with_slice!(b.data(), b => {
                two_links((a, &a_range), (b, &b_range), &fk)
            }));
            let tag = format!("{} and {} bytes", a.data().width(), b.data().width());
            proptest::prop_assert_eq!(stored, widened, "{}", tag);

            let oids: Vec<Oid> = (0..n as Oid).filter(|_| rng.below(3) > 0).collect();
            let mut out = vec![0i64; oids.len()];
            with_slice!(a.data(), a => fetch(a, None, &oids, &mut out));
            let direct: Vec<i64> = oids.iter().map(|&o| a.payload(o as usize)).collect();
            proptest::prop_assert_eq!(&out, &direct, "{}", tag);
            with_slice!(b.data(), b => fetch(b, Some(&fk), &oids, &mut out));
            let through_fk: Vec<i64> =
                oids.iter().map(|&o| b.payload(fk.get(o as usize) as usize)).collect();
            proptest::prop_assert_eq!(&out, &through_fk, "{}", tag);
        }
    }
}
