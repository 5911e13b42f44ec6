//! The classic (CPU-only) bulk executor — the "standard MonetDB" baseline
//! of the evaluation (§VI-A).
//!
//! Operators are tight loops over full-resolution columns: a selection
//! scans payloads and materializes an oid list; the tail then streams it
//! slice-at-a-time through [`crate::tail`] — fetch by oid (invisible
//! joins), hash the key payloads, evaluate, aggregate. Every step charges
//! the host cost model — the *bulk* model, one full pass per primitive —
//! once from the totals, at the environment's thread allocation
//! (Figure 11 varies the threads).

use crate::catalog::Catalog;
use crate::eval::{ColumnSlot, RowBlock};
use crate::morsel::{partition_ranges, run_parts_yielding};
use crate::result::QueryResult;
use crate::tail::{SliceSource, Tail, SLICE_ROWS};
use bwd_core::plan::ArPlan;
use bwd_device::{CostLedger, Env};
use bwd_storage::Column;
use bwd_types::{BwdError, Oid, Result};
use std::ops::Range;

/// Execute an A&R-bound plan classically (host only, exact data).
///
/// `fk_host` is the pre-built foreign-key index (fact row → dimension row)
/// when the plan contains a join — the paper's baseline uses pre-built
/// indexes for projective joins as well.
pub fn run_classic(
    catalog: &Catalog,
    plan: &ArPlan,
    fk_host: Option<&[u32]>,
    env: &Env,
) -> Result<QueryResult> {
    run_classic_morsel(catalog, plan, fk_host, env, 1)
}

/// [`run_classic`] with the selection chain executed morsel-parallel on
/// `morsels` real OS threads over contiguous row partitions.
///
/// Results are **bit-identical** to the serial run: each partition runs
/// the full selection chain locally (chained filters are partition-local
/// because a CPU selection preserves row order), and partition outputs are
/// concatenated in partition order — exactly the serial scan order.
/// Simulated costs are charged once from the merged per-stage tuple
/// counts, so the cost model is independent of the real parallelism;
/// `env.host_threads` keeps modelling the *simulated* thread allocation.
pub fn run_classic_morsel(
    catalog: &Catalog,
    plan: &ArPlan,
    fk_host: Option<&[u32]>,
    env: &Env,
    morsels: usize,
) -> Result<QueryResult> {
    let ledger = &mut CostLedger::new();
    run_classic_sliced(catalog, plan, fk_host, env, morsels, SLICE_ROWS, ledger)
}

/// [`run_classic_morsel`] with an explicit tail slice size and ledger
/// (tests sweep the one and read the other's events; results and charges
/// are independent of the slice size).
pub(crate) fn run_classic_sliced(
    catalog: &Catalog,
    plan: &ArPlan,
    fk_host: Option<&[u32]>,
    env: &Env,
    morsels: usize,
    slice_rows: usize,
    ledger: &mut CostLedger,
) -> Result<QueryResult> {
    let fact = catalog.table(&plan.table)?;
    let n = fact.len();

    // Column resolution: bare names hit the fact table, qualified names the
    // joined dimension.
    let resolve = |name: &str| -> Result<(&Column, bool)> {
        if let Some((t, c)) = name.split_once('.') {
            let dim = plan
                .fk_join
                .as_ref()
                .filter(|j| j.dim_table == t)
                .ok_or_else(|| BwdError::Bind(format!("table {t} not joined")))?;
            let _ = dim;
            Ok((catalog.table(t)?.column(c)?, true))
        } else {
            Ok((fact.column(name)?, false))
        }
    };
    let dim_row = |oid: Oid| -> usize { fk_host.map(|f| f[oid as usize] as usize).unwrap_or(0) };

    // --- Selection chain (materializing oid lists). ---
    // Pre-resolve once so worker threads share plain `&Column` refs.
    let sel_cols: Vec<(&Column, bool)> = plan
        .selections
        .iter()
        .map(|sel| resolve(&sel.column))
        .collect::<Result<_>>()?;
    if sel_cols.iter().any(|&(_, is_dim)| is_dim) && fk_host.is_none() {
        return Err(BwdError::Exec(
            "dimension predicate without a foreign-key index".into(),
        ));
    }

    // The whole chain for one contiguous row partition. A CPU selection
    // preserves order, so chained filters stay partition-local and the
    // concatenation of partition outputs equals the serial scan order.
    let chain = |start: Oid, end: Oid| -> (Vec<Oid>, Vec<u64>) {
        let mut counts = Vec::with_capacity(sel_cols.len());
        let mut surv: Option<Vec<Oid>> = None;
        for (sel, &(col, is_dim)) in plan.selections.iter().zip(&sel_cols) {
            let fetch = |oid: Oid| {
                if is_dim {
                    col.payload(dim_row(oid))
                } else {
                    col.payload(oid as usize)
                }
            };
            let next: Vec<Oid> = match &surv {
                None => (start..end)
                    .filter(|&oid| sel.range.test(fetch(oid)))
                    .collect(),
                Some(prev) => prev
                    .iter()
                    .copied()
                    .filter(|&oid| sel.range.test(fetch(oid)))
                    .collect(),
            };
            counts.push(next.len() as u64);
            surv = Some(next);
        }
        (surv.unwrap_or_default(), counts)
    };

    let (survivors, stage_counts): (Option<Vec<Oid>>, Vec<u64>) = if plan.selections.is_empty() {
        (None, Vec::new())
    } else {
        // With a preemption hook installed, cut the row space finer than
        // the thread count so a yield point comes up every ~SLICE_ROWS
        // rows instead of once per scan. Partition outputs concatenate in
        // partition order and costs are charged from merged totals, so the
        // result and every simulated charge are independent of the
        // partition count (pinned by `morsel_run_is_bit_identical_to_serial`).
        let parts = if env.preempt.is_enabled() {
            morsels.max(n.div_ceil(SLICE_ROWS))
        } else {
            morsels
        };
        let ranges = partition_ranges(n, parts);
        let outputs = run_parts_yielding(&ranges, morsels, &env.preempt, |_, r| {
            chain(r.start as Oid, r.end as Oid)
        })?;
        let mut merged = Vec::new();
        let mut totals = vec![0u64; plan.selections.len()];
        for (part_surv, part_counts) in outputs {
            merged.extend(part_surv);
            for (t, c) in totals.iter_mut().zip(part_counts) {
                *t += c;
            }
        }
        (Some(merged), totals)
    };

    // Charge the chain once from the merged per-stage counts — identical
    // to the serial charges because they depend only on totals.
    let mut prev_count = n as u64;
    for (i, (_, &(col, _))) in plan.selections.iter().zip(&sel_cols).enumerate() {
        let out = stage_counts[i];
        if i == 0 {
            env.charge_host_scan(
                "classic.select.scan",
                col.plain_bytes() + out * 4,
                n as u64,
                ledger,
            );
        } else {
            env.charge_host_scattered(
                "classic.select.fetch",
                prev_count * col.dtype().plain_width() + out * 4,
                prev_count,
                ledger,
            );
        }
        prev_count = out;
    }

    // No selection: every tuple survives, and no oid list is materialized.
    let k = survivors.as_ref().map_or(n, Vec::len);

    // --- Projective fetches: one slot per gathered column. ---
    let needed = plan.gathered_columns();
    let mut schema = RowBlock::new(0);
    let mut cols: Vec<(&Column, bool)> = Vec::with_capacity(needed.len());
    for name in needed {
        let (col, is_dim) = resolve(&name)?;
        if is_dim && fk_host.is_none() {
            return Err(BwdError::Exec(format!(
                "dimension column {name} without a foreign-key index"
            )));
        }
        let extra_hop = if is_dim { 4 } else { 0 };
        env.charge_host_scattered(
            "classic.project.fetch",
            k as u64 * (col.dtype().plain_width() + extra_hop),
            k as u64,
            ledger,
        );
        schema.push_slot(ColumnSlot {
            name,
            payloads: Vec::new(),
            dtype: col.dtype(),
            dict: col.dictionary().cloned(),
        });
        cols.push((col, is_dim));
    }

    // --- Grouping (hash over key payloads). ---
    if !plan.group_by.is_empty() {
        env.charge_host_scan("classic.group.hash", k as u64 * 8, 2 * k as u64, ledger);
    }

    // --- Aggregation / projection. ---
    let tail = Tail::new(plan, schema, None)?;
    if !plan.aggs.is_empty() {
        // Bulk processing materializes every distinct expression
        // primitive as a full intermediate column (read + write), then
        // runs one grouped accumulation pass per distinct accumulator
        // with scattered accumulator updates — this is what makes
        // expression-heavy Q1 expensive on the classic pipe.
        let expr_ops = tail.expr_ops();
        env.charge_host_scan(
            "classic.aggregate.expr",
            k as u64 * expr_ops * 8,
            k as u64 * expr_ops,
            ledger,
        );
        // One accumulation pass per accumulator; the accumulator table is
        // small (cache-resident), so the pass streams the expression
        // column rather than thrashing memory.
        for _ in 0..tail.accumulators() {
            env.charge_host_scan("classic.aggregate.accum", k as u64 * 8, k as u64, ledger);
        }
    } else {
        env.charge_host_scan(
            "classic.project.eval",
            0,
            k as u64 * plan.project.len() as u64,
            ledger,
        );
    }

    // The real work behind all of the above, one slice at a time.
    env.preempt.check()?;
    let sources = partition_ranges(k, morsels)
        .into_iter()
        .map(|rows| ClassicSource {
            survivors: survivors.as_deref(),
            rows,
            cols: &cols,
            fk_host,
        })
        .collect();
    let (columns, rows) = tail.finish(tail.run(env, sources, slice_rows)?);

    Ok(QueryResult {
        columns,
        rows,
        breakdown: ledger.breakdown(),
        traffic: ledger.traffic(),
        survivors: k,
        approx: None,
    })
}

/// The classic slice source: projective fetches by oid (through the
/// host FK index for dimension columns) over one worker's survivor run.
struct ClassicSource<'a> {
    /// `None`: no selection ran, row `i` is oid `i`.
    survivors: Option<&'a [Oid]>,
    rows: Range<usize>,
    cols: &'a [(&'a Column, bool)],
    fk_host: Option<&'a [u32]>,
}

impl SliceSource for ClassicSource<'_> {
    fn fill(&mut self, slice_rows: usize, block: &mut RowBlock, _: &mut Vec<u32>) -> Result<bool> {
        let run = self.rows.start..self.rows.end.min(self.rows.start + slice_rows);
        self.rows.start = run.end;
        block.resize(run.len());
        for (slot, &(col, is_dim)) in self.cols.iter().enumerate() {
            // `run_classic_sliced` rejects dimension columns without an index.
            let fetch = |oid: usize| match self.fk_host {
                Some(fk) if is_dim => col.payload(fk[oid] as usize),
                _ => col.payload(oid),
            };
            let out = block.payloads_mut(slot).iter_mut();
            match self.survivors {
                Some(s) => out
                    .zip(&s[run.clone()])
                    .for_each(|(o, &oid)| *o = fetch(oid as usize)),
                None => out.zip(run.clone()).for_each(|(o, oid)| *o = fetch(oid)),
            }
        }
        Ok(!self.rows.is_empty())
    }
}

#[cfg(test)]
mod tests {
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
            pushdown: true,
        }
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
        let r = run_classic(&cat, &plan, None, &env).unwrap();
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
        let r = run_classic(&cat, &plan, None, &env).unwrap();
        assert_eq!(r.rows.len(), 5);
        // Each residue class has 20 members; keys sorted 0..5.
        for (i, row) in r.rows.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64));
            assert_eq!(row[1], Value::Int(20));
        }
    }

    #[test]
    fn morsel_run_is_bit_identical_to_serial() {
        // Large enough to clear MIN_MORSEL_ROWS so threads really spawn.
        let mut cat = Catalog::new();
        let n = 50_000;
        cat.add_table(
            Table::new(
                "t",
                vec![
                    (
                        "a".into(),
                        Column::from_i32((0..n).map(|i| (i * 17) % 1000).collect()),
                    ),
                    (
                        "b".into(),
                        Column::from_i32((0..n).map(|i| i % 5).collect()),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let env = Env::paper_default();
        let plan = ArPlan {
            table: "t".into(),
            selections: vec![
                BoundSelection {
                    column: "a".into(),
                    range: RangePred::between(100, 700),
                    selectivity_hint: None,
                },
                BoundSelection {
                    column: "b".into(),
                    range: RangePred::between(1, 3),
                    selectivity_hint: None,
                },
            ],
            fk_join: None,
            group_by: vec!["b".into()],
            aggs: vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(E::col("a")),
                alias: "s".into(),
            }],
            project: vec![],
            pushdown: true,
        };
        let serial = run_classic(&cat, &plan, None, &env).unwrap();
        for morsels in [2, 3, 8, 64] {
            let parallel = run_classic_morsel(&cat, &plan, None, &env, morsels).unwrap();
            assert_eq!(serial.rows, parallel.rows, "morsels={morsels}");
            assert_eq!(serial.survivors, parallel.survivors);
            // The simulated cost model is independent of real parallelism.
            assert_eq!(serial.breakdown, parallel.breakdown);
            assert_eq!(serial.traffic, parallel.traffic);
        }
    }

    #[test]
    fn chained_selections() {
        let cat = setup();
        let env = Env::paper_default();
        let plan = count_plan(
            vec![
                BoundSelection {
                    column: "a".into(),
                    range: RangePred::between(0, 49),
                    selectivity_hint: None,
                },
                BoundSelection {
                    column: "b".into(),
                    range: RangePred::between(0, 0),
                    selectivity_hint: None,
                },
            ],
            vec![],
        );
        let r = run_classic(&cat, &plan, None, &env).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(10)); // multiples of 5 in 0..50
    }
}
