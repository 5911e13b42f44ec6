//! Per-job latency estimation for policy-ordered scheduling.
//!
//! [`crate::estimate::estimate_working_set`] answers "how much device
//! memory will this query hold"; this module answers "how long will it
//! run". The estimate drives [`crate::QueuePolicy::ShortestJobFirst`]
//! (and the SJF tie-break inside [`crate::QueuePolicy::Priority`]), so
//! what matters is *ranking* — a short A&R probe must score far below a
//! bulk classic scan — not absolute accuracy. The model therefore reuses
//! the exact ingredients the simulator charges with, at plan granularity:
//!
//! * data volumes come from the catalog's real column sizes
//!   (`Table::plain_bytes`-style accounting) and the binder's
//!   `selectivity_hint`s, cumulated along the selection chain exactly
//!   like the admission estimator;
//! * time per byte comes from the calibrated hardware specs
//!   ([`bwd_device::CpuSpec::scan_seconds`],
//!   [`bwd_device::DeviceSpec::stream_seconds`],
//!   [`bwd_device::PcieSpec::transfer_seconds`]) — the same constants the
//!   executors charge to the cost ledger;
//! * candidate-list and gather volumes use the shared byte units
//!   ([`bwd_core::plan::CANDIDATE_PAIR_BYTES`],
//!   [`bwd_core::plan::GATHER_VALUE_BYTES`]) so the latency and memory
//!   estimators can never drift apart on what a candidate costs.
//!
//! The scheduler records estimate-vs-actual per stream
//! ([`crate::StreamSnapshot::est_sim_seconds`] against the accumulated
//! simulated breakdown), so the model's calibration is observable, not
//! assumed.

use crate::estimate::EstimateConfig;
use bwd_core::plan::{split_column, ArPlan, CANDIDATE_PAIR_BYTES, GATHER_VALUE_BYTES};
use bwd_engine::{Database, ExecMode};

/// An estimated per-component latency for one job, in simulated seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyEstimate {
    /// Host (CPU) share.
    pub host: f64,
    /// Co-processor share.
    pub device: f64,
    /// Host↔device transfer share.
    pub pcie: f64,
}

impl LatencyEstimate {
    /// Total estimated latency in simulated seconds (the SJF sort key).
    pub fn seconds(&self) -> f64 {
        self.host + self.device + self.pcie
    }
}

/// Bytes and per-value width of one referenced column (possibly
/// dimension-qualified as `table.column`), with a safe fallback when the
/// lookup fails — an estimator must never error a submission.
fn column_bytes(db: &Database, fact_table: &str, name: &str, fallback_rows: u64) -> (u64, u64) {
    let (table, column) = split_column(name, fact_table);
    match db.catalog().table(table).and_then(|t| t.column(column)) {
        Ok(col) => {
            let rows = col.len().max(1) as u64;
            let bytes = col.plain_bytes();
            (bytes, (bytes / rows).max(1))
        }
        Err(_) => (fallback_rows * 8, 8),
    }
}

/// Cumulative selectivity of the selection chain after each step.
///
/// Mirrors the admission estimator: hints multiply along the chain
/// (candidate lists shrink monotonically), selections without a hint
/// contribute 1 (no reduction), and disabling hints in the config pins
/// everything at the worst case.
fn chain_selectivities(plan: &ArPlan, cfg: &EstimateConfig) -> Vec<f64> {
    let mut cum = 1.0f64;
    plan.selections
        .iter()
        .map(|sel| {
            if cfg.use_hints {
                if let Some(h) = sel.selectivity_hint {
                    cum *= h.clamp(0.0, 1.0);
                }
            }
            cum
        })
        .collect()
}

/// Expected share of the final candidates that some selection leaves
/// *undecided* — the only ones the A&R executor downloads and refines.
///
/// A selection on a column that keeps `resbits` on the host decides every
/// granule wholly inside its range; only the boundary granule of each
/// bounded end (`2^resbits` payloads wide) straddles it. Against the
/// hinted exact range that is `boundary / (range + boundary)` of the
/// step's candidates; a fully resident (or not yet decomposed) column
/// decides everything, an excluded point nothing. Shares combine as
/// independent: a candidate is decided when every selection decides it.
fn undecided_share(db: &Database, plan: &ArPlan) -> f64 {
    let decided: f64 = (plan.selections.iter())
        .map(|s| {
            if s.range.exclude.is_some() {
                return 0.0;
            }
            let (table, column) = split_column(&s.column, &plan.table);
            let Some(resbits) = db.resbits(table, column).filter(|&r| r > 0) else {
                return 1.0;
            };
            let domain = (db.catalog().table(table))
                .and_then(|t| t.column(column))
                .ok()
                .and_then(|c| c.payload_min_max())
                .map_or(1.0, |(lo, hi)| (hi - lo) as f64 + 1.0);
            let range = s.selectivity_hint.unwrap_or(1.0) * domain;
            let ends = u32::from(s.range.lo.is_some()) + u32::from(s.range.hi.is_some());
            let boundary = f64::from(ends) * (resbits.min(62) as f64).exp2();
            range / (range + boundary)
        })
        .product();
    1.0 - decided
}

/// Predicted final survivor count of one job: the table's rows scaled by
/// the selection chain's cumulative hinted selectivity — the same term
/// both estimators price candidate lists with. The calibrator compares
/// this prediction against [`bwd_engine::QueryResult::survivors`] to
/// learn a per-plan-shape candidate-count correction.
pub(crate) fn predicted_survivors(db: &Database, plan: &ArPlan, cfg: &EstimateConfig) -> u64 {
    let rows = db
        .catalog()
        .table(&plan.table)
        .map(|t| t.len() as u64)
        .unwrap_or(0);
    let cum = chain_selectivities(plan, cfg)
        .last()
        .copied()
        .unwrap_or(1.0);
    (rows as f64 * cum).ceil() as u64
}

/// Estimate one job's latency from the plan, its execution mode and the
/// simulated host-thread allocation.
///
/// Classic jobs are dominated by host bandwidth: the first selection
/// streams its column at the CPU's (thread-scaled, wall-limited)
/// bandwidth, later selections and the aggregation gathers run scattered
/// over the hinted survivor counts. A&R jobs are dominated by the
/// co-processor: the approximation chain streams bit-packed columns at
/// device bandwidth (a ~2 orders of magnitude faster roofline, which is
/// exactly why short probes must not queue behind classic scans), with
/// downloads over PCI-E and host-side refinement priced from the share
/// of the hinted candidates the approximation leaves undecided (the
/// boundary granules), not from all of them, and a host tail only where
/// the executor places one.
pub fn estimate_latency(
    db: &Database,
    plan: &ArPlan,
    mode: &ExecMode,
    host_threads: u32,
    cfg: &EstimateConfig,
) -> LatencyEstimate {
    let rows = db
        .catalog()
        .table(&plan.table)
        .map(|t| t.len() as u64)
        .unwrap_or(0);
    if rows == 0 {
        return LatencyEstimate::default();
    }
    let env = db.env();
    let cpu = &env.cpu;
    let dev = env.device.spec();
    let sel = chain_selectivities(plan, cfg);
    let survivors =
        |i: usize| -> u64 { (rows as f64 * sel.get(i).copied().unwrap_or(1.0)).ceil() as u64 };
    let final_rows = survivors(plan.selections.len().saturating_sub(1));
    let gathered = plan.gathered_columns();
    let gcols = gathered.len() as u64;
    let mut est = LatencyEstimate::default();

    match mode {
        ExecMode::Classic => {
            for (i, s) in plan.selections.iter().enumerate() {
                let (bytes, width) = column_bytes(db, &plan.table, &s.column, rows);
                if i == 0 {
                    // Full-column stream at the thread-scaled bandwidth
                    // (saturating at the memory wall, like the executor).
                    est.host += cpu.scan_seconds(bytes, rows, host_threads);
                } else {
                    let in_rows = survivors(i - 1);
                    est.host += cpu.scattered_seconds(in_rows * width, in_rows, host_threads);
                }
            }
            if plan.fk_join.is_some() {
                est.host += cpu.scattered_seconds(final_rows * 4, final_rows, host_threads);
            }
            // Materialize + aggregate the surviving tuples per output column.
            est.host += cpu.scattered_seconds(
                final_rows * gcols * GATHER_VALUE_BYTES,
                final_rows * gcols.max(1),
                host_threads,
            );
        }
        _ => {
            // Approximation chain on the device: first selection streams
            // the packed column (plain bytes as a safe upper proxy for
            // the packed size) and writes its candidate pairs, later ones
            // gather over candidates.
            for (i, s) in plan.selections.iter().enumerate() {
                est.device += dev.kernel_launch_overhead;
                if i == 0 {
                    let (bytes, _) = column_bytes(db, &plan.table, &s.column, rows);
                    est.device += dev.stream_seconds(bytes + survivors(0) * CANDIDATE_PAIR_BYTES);
                } else {
                    est.device += dev.scattered_seconds(survivors(i - 1) * CANDIDATE_PAIR_BYTES);
                }
            }
            // Only the undecided candidates cross PCI-E for host-side
            // refinement: scattered residual decode + exact re-test.
            let undecided = (final_rows as f64 * undecided_share(db, plan)).ceil() as u64;
            est.pcie += env.pcie.transfer_seconds(undecided * 4);
            est.host +=
                cpu.scattered_seconds(undecided * GATHER_VALUE_BYTES, undecided, host_threads);
            // Aggregation-input gathers over the final candidates.
            est.device += dev.kernel_launch_overhead * gcols as f64
                + dev.scattered_seconds(final_rows * gcols * GATHER_VALUE_BYTES);
            // The tail follows the executor's placement. Every gathered
            // column resident: the device finishes what the host refined
            // — one survivor bit per undecided candidate goes back up and
            // no host tail is left. A bare count gathers nothing and sends
            // nothing up: the host adds its undecided rows. Otherwise
            // (§IV-G) the host tail covers every row.
            let resident = gathered.iter().all(|name| {
                let (table, column) = split_column(name, &plan.table);
                db.resbits(table, column).is_none_or(|r| r == 0)
            });
            let host_rows = match (resident, gathered.is_empty()) {
                (true, false) => 0,
                (true, true) => undecided,
                (false, _) => final_rows,
            };
            if resident && !gathered.is_empty() && undecided > 0 {
                est.pcie += env.pcie.transfer_seconds(undecided.div_ceil(8));
            }
            est.host += cpu.scan_seconds(
                host_rows * gcols * GATHER_VALUE_BYTES,
                host_rows * gcols.max(1),
                host_threads,
            );
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate, ScalarExpr};
    use bwd_storage::Column;
    use bwd_types::Value;

    fn db_with(rows: i32) -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            vec![
                (
                    "a".into(),
                    Column::from_i32((0..rows).map(|i| i % 10_000).collect()),
                ),
                (
                    "b".into(),
                    Column::from_i32((0..rows).map(|i| i % 32).collect()),
                ),
            ],
        )
        .unwrap();
        db
    }

    fn aggregate(db: &Database, lo: i64, hi: i64, func: AggFunc, arg: Option<&str>) -> ArPlan {
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func,
                    arg: arg.map(ScalarExpr::col),
                    alias: "n".into(),
                }],
            );
        db.bind(&plan, &Default::default()).unwrap()
    }

    /// `select count(*) from t where a between lo and hi`.
    fn probe(db: &Database, lo: i64, hi: i64) -> ArPlan {
        aggregate(db, lo, hi, AggFunc::Count, None)
    }

    /// `select sum(b) from t where a between lo and hi`.
    fn summing_b(db: &Database, lo: i64, hi: i64) -> ArPlan {
        aggregate(db, lo, hi, AggFunc::Sum, Some("b"))
    }

    #[test]
    fn classic_scan_dwarfs_short_ar_probe() {
        let db = db_with(1_000_000);
        let plan = probe(&db, 0, 9_999);
        let cfg = EstimateConfig::default();
        let long = estimate_latency(&db, &plan, &ExecMode::Classic, 1, &cfg);
        let short_plan = probe(&db, 0, 99); // 1% hinted selectivity
        let short = estimate_latency(&db, &short_plan, &ExecMode::ApproxRefine, 1, &cfg);
        assert!(
            long.seconds() > 10.0 * short.seconds(),
            "{long:?} {short:?}"
        );
        assert!(long.host > 0.0 && short.device > 0.0);
    }

    #[test]
    fn estimates_scale_with_rows_and_threads() {
        let small = db_with(10_000);
        let big = db_with(1_000_000);
        let cfg = EstimateConfig::default();
        let e_small = estimate_latency(
            &small,
            &probe(&small, 0, 9_999),
            &ExecMode::Classic,
            1,
            &cfg,
        );
        let e_big = estimate_latency(&big, &probe(&big, 0, 9_999), &ExecMode::Classic, 1, &cfg);
        assert!(e_big.seconds() > 10.0 * e_small.seconds());
        // More simulated threads never slow the classic estimate.
        let e_mt = estimate_latency(&big, &probe(&big, 0, 9_999), &ExecMode::Classic, 8, &cfg);
        assert!(e_mt.seconds() < e_big.seconds());
    }

    #[test]
    fn hints_shrink_ar_estimates_monotonically() {
        let db = db_with(200_000);
        let cfg = EstimateConfig::default();
        let tight = estimate_latency(&db, &probe(&db, 0, 99), &ExecMode::ApproxRefine, 1, &cfg);
        let wide = estimate_latency(&db, &probe(&db, 0, 4_999), &ExecMode::ApproxRefine, 1, &cfg);
        assert!(tight.seconds() < wide.seconds(), "{tight:?} vs {wide:?}");
        // Disabling hints pins the estimate at the worst case.
        let no_hints = estimate_latency(
            &db,
            &probe(&db, 0, 99),
            &ExecMode::ApproxRefine,
            1,
            &EstimateConfig {
                use_hints: false,
                safety_factor: 4.0,
            },
        );
        assert!(no_hints.seconds() >= wide.seconds());
    }

    #[test]
    fn refinement_is_priced_from_the_boundary_granules() {
        let mut db = db_with(1_000_000);
        let wide = probe(&db, 0, 4_999); // half of the 0..10 000 domain
        assert_eq!(undecided_share(&db, &wide), 0.0, "not decomposed yet");
        db.bwdecompose("t", "a", 32).unwrap();
        assert_eq!(undecided_share(&db, &wide), 0.0, "fully resident");
        let cfg = EstimateConfig::default();
        let resident = estimate_latency(&db, &wide, &ExecMode::ApproxRefine, 1, &cfg);
        let wide_sum = summing_b(&db, 0, 4_999);
        let resident_sum = estimate_latency(&db, &wide_sum, &ExecMode::ApproxRefine, 1, &cfg);
        assert_eq!(resident_sum.host, 0.0);
        // 28/4: granules of 16 payloads, two bounded ends.
        db.bwdecompose("t", "a", 28).unwrap();
        let share = undecided_share(&db, &wide);
        assert!((share - 32.0 / 5_032.0).abs() < 1e-12, "{share}");
        let narrow = probe(&db, 0, 15);
        assert!((undecided_share(&db, &narrow) - 32.0 / 48.0).abs() < 1e-12);
        let split = estimate_latency(&db, &wide, &ExecMode::ApproxRefine, 1, &cfg);
        assert!(split.host > resident.host && split.pcie > resident.pcie);
        // A tail over a resident value column runs on the device either
        // way: the split costs the host its refinement term and nothing
        // else, and PCI-E the list down plus one bit per entry back up.
        let split_sum = estimate_latency(&db, &wide_sum, &ExecMode::ApproxRefine, 1, &cfg);
        let undecided = (500_000.0 * share).ceil() as u64;
        let (cpu, pcie) = (&db.env().cpu, &db.env().pcie);
        assert_eq!(
            split_sum.host - resident_sum.host,
            cpu.scattered_seconds(undecided * GATHER_VALUE_BYTES, undecided, 1)
        );
        assert_eq!(
            split_sum.pcie,
            pcie.transfer_seconds(undecided * 4) + pcie.transfer_seconds(undecided.div_ceil(8))
        );
        // Under 1 % of the candidates are refined: nowhere near the bill
        // for all of them.
        let rows = 500_000;
        let all = db
            .env()
            .cpu
            .scattered_seconds(rows * GATHER_VALUE_BYTES, rows, 1);
        assert!(split.host < all / 50.0, "{split:?} vs {all}");
    }

    #[test]
    fn empty_or_unknown_tables_estimate_zero_not_panic() {
        let db = Database::new();
        let plan = ArPlan {
            table: "missing".into(),
            selections: vec![],
            fk_join: None,
            group_by: vec![],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "n".into(),
            }],
            project: vec![],
            pushdown: true,
        };
        let est = estimate_latency(
            &db,
            &plan,
            &ExecMode::Classic,
            1,
            &EstimateConfig::default(),
        );
        assert_eq!(est.seconds(), 0.0);
    }
}
