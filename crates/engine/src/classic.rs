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
use bwd_kernels::{Cursor, Positions, SelMask};
use bwd_obs::{pack_chain_order, EventKind, GroupAggTables};
use bwd_storage::encoding::{decode, encoded_bounds};
use bwd_storage::{BitPackedVec, Column, DECODE_BLOCK};
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
            counts.push(select_words(words, first_word, rows, &sel.range, col, link));
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
    Ok((SelMask::from_words(words, n, true), totals))
}

/// One selection over the mask words from `first_word` on, testing row
/// `row` (row `link[row]` for a dimension column): with `rows` (the
/// relation's length) a full scan that fills the words, without it the
/// AND-refinement of the rows still set. Per word, the rows from its first
/// to its last live one are decoded in one pass — the column's or, for a
/// dimension column, the link's, which then reaches each live row's
/// value. Returns the survivor count.
fn select_words(
    words: &mut [u64],
    first_word: usize,
    rows: Option<usize>,
    range: &RangePred,
    col: &Column,
    link: Option<&BitPackedVec>,
) -> u64 {
    // The range in the encoded domain every column is read in: order-
    // preserving, so a split column's concatenated partitions are tested
    // without a decode.
    let (dtype, mut count) = (col.dtype(), 0);
    let (lo, hi) = (range.lo.unwrap_or(i64::MIN), range.hi.unwrap_or(i64::MAX));
    let (lo, hi) = encoded_bounds(lo, hi, dtype).unwrap_or((1, 0));
    let exclude = range
        .exclude
        .and_then(|x| encoded_bounds(x, x, dtype))
        .map(|x| x.0);
    // `&`, not `&&`: three compares and no branch to mispredict.
    let test = |e: u64| (lo <= e) & (e <= hi) & (exclude != Some(e));
    let (mut dims, mut keys) = ([0u64; DECODE_BLOCK], [0u64; DECODE_BLOCK]);
    for (w, word) in words.iter_mut().enumerate() {
        let at = (first_word + w) * 64;
        let live = match rows {
            Some(n) => low_mask((n - at).min(64) as u32),
            None => *word,
        };
        let first = live.trailing_zeros() as usize;
        let last = 64 - live.leading_zeros() as usize;
        match link {
            _ if live == 0 => {}
            None => col.encoded_range(at + first, &mut keys[first..last]),
            Some(link) => {
                link.unpack_range(at + first, &mut dims[first..last]);
                for k in (first..last).filter(|k| live >> k & 1 == 1) {
                    keys[k] = col.encoded(dims[k] as usize);
                }
            }
        }
        let tested = (first..last).fold(0, |bits, k| bits | u64::from(test(keys[k])) << k);
        *word = tested & live;
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
            fetch(col, link, &self.oids, block.payloads_mut(slot));
        }
        Ok(more)
    }
}

/// `out[i]` = the payload of row `oids[i]` (of row `link[oids[i]]` for a
/// dimension column). `oids` ascend (they are a mask's survivors), so a
/// run of them inside one 64-row word decodes the rows — or the link —
/// from its first to its last oid in one pass.
fn fetch(col: &Column, link: Option<&BitPackedVec>, oids: &[Oid], out: &mut [i64]) {
    let (dtype, mut out, mut keys) = (col.dtype(), out.iter_mut(), [0u64; DECODE_BLOCK]);
    for run in oids.chunk_by(|a, b| a / 64 == b / 64) {
        let (lo, hi) = (run[0] as usize, run[run.len() - 1] as usize);
        let keys = &mut keys[..=hi - lo];
        match link {
            Some(link) => link.unpack_range(lo, keys),
            None => col.encoded_range(lo, keys),
        }
        for (&oid, o) in run.iter().zip(out.by_ref()) {
            let key = keys[oid as usize - lo];
            *o = match link {
                Some(_) => col.payload(key as usize),
                None => decode(key, dtype),
            };
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
        let fk: Vec<u64> = (0..N).map(|i| i as u64 * 13 % 50).collect();
        let fk = BitPackedVec::from_slice(6, &fk);
        let sel = |column: &str, range| BoundSelection {
            column: column.into(),
            range,
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

    /// A column of `rows` payloads drawn from `dom` — both extrema first —
    /// as type `ty` (0: `Int64`; 1: `Int32` where the domain fits, else
    /// `Int64`; 2: dictionary codes, one string per value of the domain cut
    /// to 300), held plain (`split` 0) or split at 0, 1, 8 and w − 1
    /// residual bits, with a frame or without (`split` 1..=8). The plain
    /// twin rides along.
    fn column(
        rows: usize,
        dom: (i64, i64),
        ty: usize,
        split: usize,
        draw: &mut impl FnMut((i64, i64)) -> i64,
    ) -> (Column, Column) {
        let rest: Vec<i64> = (2..rows).map(|_| draw(dom)).collect();
        let vals = [dom.0, dom.1].into_iter().chain(rest).take(rows);
        let fits = i32::try_from(dom.0).is_ok() && i32::try_from(dom.1).is_ok();
        let plain = match ty {
            1 if fits => Column::from_i32(vals.map(|v| v as i32).collect()),
            2 => {
                let vocab: Vec<String> = (0..300).map(|i| format!("{i:03}")).collect();
                let code = |v: i64| (v.wrapping_sub(dom.0) as u64 % 300) as i32;
                Column::from_codes(&vocab, vals.map(code).collect()).unwrap()
            }
            _ => Column::from_i64(vals.collect()),
        };
        let bits = bwd_storage::encoding::physical_bits(plain.dtype());
        let held = match split {
            0 => plain.clone(),
            _ => {
                let device_bits = [bits, bits - 1, bits - 8, 1][(split - 1) / 2];
                let spec = bwd_storage::DecompositionSpec {
                    frame_of_reference: split % 2 == 1,
                    ..bwd_storage::DecompositionSpec::with_device_bits(device_bits)
                };
                plain.clone().decompose(&spec).unwrap()
            }
        };
        (held, plain)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Width and split are invisible to the classic pipe: over a fact
        /// column and a dimension column of any type (dictionary codes
        /// among them) stored in any two of the six widths — their extrema
        /// on the width boundaries — or split at 0, 1, 8 or w − 1 residual
        /// bits, with a frame or without, the selection chain (a full scan,
        /// a refinement through the FK link, a fact-side refinement) fills
        /// the mask words and counts — and the tail fetches the payloads,
        /// fact-side and through the link — that the undecomposed twins
        /// give, row by row.
        #[test]
        fn width_and_split_are_invisible_to_the_selection_chain_and_the_fetch(
            a_lo in 0usize..EDGES.len(),
            a_hi in 0usize..EDGES.len(),
            b_lo in 0usize..EDGES.len(),
            b_hi in 0usize..EDGES.len(),
            a_ty in 0usize..3,
            b_ty in 0usize..3,
            a_split in 0usize..9,
            b_split in 0usize..9,
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
            let (a, a_plain) = column(n, a_dom, a_ty, a_split, &mut draw);
            let (b, b_plain) = column(dim_rows, b_dom, b_ty, b_split, &mut draw);
            let width = bwd_types::bits::bits_for_width(dim_rows as u64);
            let fk: Vec<u64> = (0..n).map(|_| draw((0, dim_rows as i64 - 1)) as u64).collect();
            let link = BitPackedVec::from_slice(width, &fk);
            // A range over the payloads, wider than the domain at times.
            let mut range = |col: &Column| {
                let (lo, hi) = col.payload_min_max().unwrap_or((0, 0));
                let wide = (lo.saturating_sub(5), hi.saturating_add(5));
                let (x, y) = (draw(wide), draw(wide));
                RangePred {
                    exclude: Some(draw((lo, hi))),
                    ..RangePred::between(x.min(y), x.max(y))
                }
            };
            let (a_range, b_range, a2_range) = (range(&a_plain), range(&b_plain), range(&a_plain));
            let tag = format!("{} {} × {} {}", a.dtype(), a.physical_bytes(), b.dtype(), b.physical_bytes());

            let mut words = vec![0u64; n.div_ceil(64)];
            let counts = [
                select_words(&mut words, 0, Some(n), &a_range, &a, None),
                select_words(&mut words, 0, None, &b_range, &b, Some(&link)),
                select_words(&mut words, 0, None, &a2_range, &a, None),
            ];
            let (mut want, mut want_counts) = (vec![0u64; words.len()], [0u64; 3]);
            for row in 0..n {
                let x = a_plain.payload(row);
                let passes = [
                    a_range.test(x),
                    b_range.test(b_plain.payload(fk[row] as usize)),
                    a2_range.test(x),
                ];
                for stage in 0..3 {
                    want_counts[stage] += u64::from(passes[..=stage].iter().all(|&p| p));
                }
                want[row / 64] |= u64::from(passes.iter().all(|&p| p)) << (row % 64);
            }
            proptest::prop_assert_eq!(counts, want_counts, "{}", tag);
            proptest::prop_assert_eq!(words, want, "{}", tag);

            let oids: Vec<Oid> = (0..n as Oid).filter(|_| rng.below(3) > 0).collect();
            let mut out = vec![0i64; oids.len()];
            fetch(&a, None, &oids, &mut out);
            let direct: Vec<i64> = oids.iter().map(|&o| a_plain.payload(o as usize)).collect();
            proptest::prop_assert_eq!(&out, &direct, "{}", tag);
            fetch(&b, Some(&link), &oids, &mut out);
            let through_fk: Vec<i64> =
                oids.iter().map(|&o| b_plain.payload(fk[o as usize] as usize)).collect();
            proptest::prop_assert_eq!(&out, &through_fk, "{}", tag);
        }
    }
}
