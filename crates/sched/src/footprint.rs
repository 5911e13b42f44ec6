//! One walk of a bound plan, priced once at submission.
//!
//! Everything the scheduler wants to know about a plan before it runs —
//! how long it will take (the SJF queue key), how much device memory it
//! will hold (the admission reservation), how many rows it should leave
//! (what the calibrator checks the hints against) and which recurring
//! *shape* it is — derives from the same few facts: the fact table's row
//! count, the binder's `selectivity_hint`s cumulated along the selection
//! chain, the referenced columns' sizes and residency, and the columns
//! the tail gathers. [`PlanFootprint::of`] reads those facts from the
//! catalog once (a small summary answers many questions about the
//! relation, as the relational-coreset literature has it); every number
//! afterwards is arithmetic over the footprint the job carries:
//!
//! * [`PlanFootprint::latency`] — per-component simulated seconds from
//!   the same hardware specs the executors charge the ledger with
//!   ([`bwd_device::CpuSpec::scan_seconds`],
//!   [`bwd_device::DeviceSpec::stream_seconds`],
//!   [`bwd_device::PcieSpec::transfer_seconds`]). What matters is
//!   *ranking* — a short A&R probe must score far below a bulk classic
//!   scan — not absolute accuracy; the calibrator corrects the rest.
//! * [`PlanFootprint::worst_case_bytes`] — the selectivity-independent
//!   bound: one candidate pair per row and selection plus one gathered
//!   value per row and tail column. A query admitted at this size can
//!   never fail for device memory.
//! * [`PlanFootprint::reservation`] — the hinted footprint inflated by
//!   [`EstimateConfig::safety_factor`] (and the calibrator's learned
//!   candidate factor), clamped to the worst case: statistics only ever
//!   shrink a reservation. The scheduler enforces it as the query's
//!   device budget; an underestimated query OOMs early, releases its
//!   permit and re-enters its card's admission at the worst case.
//! * [`PlanFootprint::predicted_survivors`] — rows × the chain's
//!   cumulative hinted selectivity.
//!
//! Candidate lists and gathers are billed through the executor's own
//! units ([`CANDIDATE_PAIR_BYTES`], [`GATHER_VALUE_BYTES`]), so time and
//! memory can never disagree on what a candidate costs.

use crate::admission::KERNEL_SCRATCH_BYTES;
use crate::calibrate::ShapeKey;
use bwd_core::plan::{split_column, ArPlan, CANDIDATE_PAIR_BYTES, GATHER_VALUE_BYTES};
use bwd_device::Env;
use bwd_engine::{Database, ExecMode};

/// The admission knob a caller may turn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateConfig {
    /// Multiplier applied to the hinted footprint before reserving
    /// (clamped so the result never exceeds the worst case). Values above
    /// 1 buy headroom against non-uniform data and relaxation false
    /// positives; values below 1 deliberately under-reserve and lean on
    /// the OOM → re-queue path (useful in tests, rarely in production); a
    /// non-finite or non-positive factor reserves the worst case.
    pub safety_factor: f64,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig { safety_factor: 4.0 }
    }
}

impl EstimateConfig {
    /// The scale [`PlanFootprint::reservation`] takes: the safety factor
    /// times the calibrator's candidate factor
    /// ([`crate::Calibrator::cands_factor`]; a non-finite or non-positive
    /// one is ignored).
    pub fn scale(&self, cands_factor: f64) -> f64 {
        if cands_factor.is_finite() && cands_factor > 0.0 {
            self.safety_factor * cands_factor
        } else {
            self.safety_factor
        }
    }
}

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

/// The two admission sizes of one A&R query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSetEstimate {
    /// Selectivity-informed reservation (≤ `worst_case`; equals it when
    /// the plan carries no hints or the scale is degenerate).
    pub estimated: u64,
    /// The selectivity-independent upper bound
    /// ([`PlanFootprint::worst_case_bytes`]).
    pub worst_case: u64,
}

impl WorkingSetEstimate {
    /// Whether statistics actually shrank the reservation — only then is
    /// the in-flight budget enforced (a worst-case reservation can never
    /// be exceeded, so enforcing it would be dead weight).
    pub fn is_reduced(&self) -> bool {
        self.estimated < self.worst_case
    }

    /// The data share of the estimate — what the executor may spend on
    /// candidate lists and gathers after the fixed kernel scratch is set
    /// aside.
    pub fn data_budget(&self) -> u64 {
        self.estimated.saturating_sub(KERNEL_SCRATCH_BYTES)
    }
}

/// One selection of the chain, as the estimators see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionStep {
    /// Cumulative hinted selectivity after this step: hints multiply
    /// along the chain (candidate lists shrink monotonically), a
    /// selection without a hint contributes 1.
    pub selectivity: f64,
    /// Plain bytes of the selected column.
    pub column_bytes: u64,
    /// Bytes per value of that column.
    pub width: u64,
}

/// What the scheduler knows about one bound plan (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFootprint {
    /// The recurring shape this job calibrates under.
    pub shape: ShapeKey,
    /// Rows of the fact table (0 when it is unknown: every estimate is
    /// then zero — an estimator must never error a submission).
    pub rows: u64,
    /// The selection chain, in approximate-chain order.
    pub steps: Vec<SelectionStep>,
    /// Distinct columns the tail gathers per surviving tuple.
    pub gathered: u64,
    /// Whether every gathered column is fully device-resident (the
    /// tail-placement mirror, `tail_columns_resident`).
    pub gathered_resident: bool,
    /// Expected share of the final candidates that some selection leaves
    /// *undecided* — the only ones the A&R executor downloads and
    /// refines.
    pub undecided_share: f64,
    latency: LatencyEstimate,
}

/// Bytes and per-value width of one referenced column, with a safe
/// fallback when the lookup fails.
fn column_bytes(db: &Database, table: &str, column: &str, fallback_rows: u64) -> (u64, u64) {
    match db.catalog().table(table).and_then(|t| t.column(column)) {
        Ok(col) => {
            let rows = col.len().max(1) as u64;
            let bytes = col.plain_bytes();
            (bytes, (bytes / rows).max(1))
        }
        Err(_) => (fallback_rows * 8, 8),
    }
}

/// Share of one selection's candidates its approximation *decides*.
///
/// A selection on a column that keeps `resbits` on the host decides every
/// granule wholly inside its range; only the boundary granule of each
/// bounded end (`2^resbits` payloads wide) straddles it. Against the
/// hinted exact range that is `range / (range + boundary)` of the step's
/// candidates; a fully resident (or not yet decomposed) column decides
/// everything, an excluded point nothing.
fn decided_share(db: &Database, plan: &ArPlan, s: &bwd_core::plan::BoundSelection) -> f64 {
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
}

/// The scheduler's mirror of the executor's tail-placement rule
/// (`engine/arexec.rs`, "The one tail-placement rule"): the device runs
/// the tail when every column it gathers is fully device-resident.
///
/// Known drift, recorded and not closed here because closing it moves
/// reservations: under a device pre-grouping the executor gathers (and
/// budgets) only `plan.value_columns()`, the group ids standing in for
/// the keys; this mirror — and the gather term of every estimate — still
/// counts `plan.gathered_columns()`, a safe over-estimate (Q1: 6 columns
/// reserved where 4 are gathered). The follow-up changes `gathered` at
/// its one call site in [`PlanFootprint::of`].
fn tail_columns_resident(db: &Database, plan: &ArPlan, gathered: &[String]) -> bool {
    gathered.iter().all(|name| {
        let (table, column) = split_column(name, &plan.table);
        db.resbits(table, column).is_none_or(|r| r == 0)
    })
}

impl PlanFootprint {
    /// Walk `plan` once: the only place the scheduler reads the catalog,
    /// the hints, column residency or the gathered-column list.
    /// `host_threads` is the simulated allocation the job will run with
    /// ([`crate::SubmitOptions::effective_host_threads`]).
    pub fn of(db: &Database, plan: &ArPlan, mode: &ExecMode, host_threads: u32) -> PlanFootprint {
        let classic = matches!(mode, ExecMode::Classic);
        let rows = db
            .catalog()
            .table(&plan.table)
            .map(|t| t.len() as u64)
            .unwrap_or(0);
        let mut cum = 1.0f64;
        let mut decided = 1.0f64;
        let steps = (plan.selections.iter())
            .map(|sel| {
                if let Some(h) = sel.selectivity_hint {
                    cum *= h.clamp(0.0, 1.0);
                }
                // Shares combine as independent: a candidate is decided
                // when every selection decides it.
                decided *= decided_share(db, plan, sel);
                let (table, column) = split_column(&sel.column, &plan.table);
                let (column_bytes, width) = column_bytes(db, table, column, rows);
                SelectionStep {
                    selectivity: cum,
                    column_bytes,
                    width,
                }
            })
            .collect();
        let gathered = plan.gathered_columns();
        let mut fp = PlanFootprint {
            shape: ShapeKey {
                table: plan.table.clone(),
                classic,
                selections: plan.selections.len(),
                fk_join: plan.fk_join.is_some(),
                group_by: plan.group_by.len(),
                aggs: plan.aggs.len(),
            },
            rows,
            steps,
            gathered: gathered.len() as u64,
            gathered_resident: tail_columns_resident(db, plan, &gathered),
            undecided_share: 1.0 - decided,
            latency: LatencyEstimate::default(),
        };
        if rows > 0 {
            fp.latency = fp.price(db.env(), host_threads);
        }
        fp
    }

    /// Expected candidates after selection `i` (all rows past the chain's
    /// end, as for a plan without selections).
    fn survivors(&self, i: usize) -> u64 {
        let cum = self.steps.get(i).map_or(1.0, |s| s.selectivity);
        (self.rows as f64 * cum).ceil() as u64
    }

    /// Predicted final survivor count: the table's rows scaled by the
    /// chain's cumulative hinted selectivity — the term both estimates
    /// price candidate lists with. The calibrator compares it against
    /// [`bwd_engine::QueryResult::survivors`] to learn a per-shape
    /// candidate-count correction.
    pub fn predicted_survivors(&self) -> u64 {
        self.survivors(self.steps.len().saturating_sub(1))
    }

    /// The latency estimate for the mode and thread count this footprint
    /// was taken at.
    pub fn latency(&self) -> LatencyEstimate {
        self.latency
    }

    /// Classic jobs are dominated by host bandwidth: the first selection
    /// streams its column at the CPU's (thread-scaled, wall-limited)
    /// bandwidth, later selections and the aggregation gathers run
    /// scattered over the hinted survivor counts. A&R jobs are dominated
    /// by the co-processor: the approximation chain streams bit-packed
    /// columns at device bandwidth (a ~2 orders of magnitude faster
    /// roofline, which is exactly why short probes must not queue behind
    /// classic scans), with downloads over PCI-E and host-side refinement
    /// priced from the share of the hinted candidates the approximation
    /// leaves undecided (the boundary granules), not from all of them,
    /// and a host tail only where the executor places one.
    fn price(&self, env: &Env, host_threads: u32) -> LatencyEstimate {
        let cpu = &env.cpu;
        let dev = env.device.spec();
        let final_rows = self.predicted_survivors();
        let gcols = self.gathered;
        let mut est = LatencyEstimate::default();
        if self.shape.classic {
            for (i, s) in self.steps.iter().enumerate() {
                if i == 0 {
                    // Full-column stream at the thread-scaled bandwidth
                    // (saturating at the memory wall, like the executor).
                    est.host += cpu.scan_seconds(s.column_bytes, self.rows, host_threads);
                } else {
                    let in_rows = self.survivors(i - 1);
                    est.host += cpu.scattered_seconds(in_rows * s.width, in_rows, host_threads);
                }
            }
            if self.shape.fk_join {
                est.host += cpu.scattered_seconds(final_rows * 4, final_rows, host_threads);
            }
            // Materialize + aggregate the surviving tuples per output column.
            est.host += cpu.scattered_seconds(
                final_rows * gcols * GATHER_VALUE_BYTES,
                final_rows * gcols.max(1),
                host_threads,
            );
            return est;
        }
        // Approximation chain on the device: the first selection streams
        // the packed column (plain bytes as a safe upper proxy for the
        // packed size) and writes its candidate pairs, later ones gather
        // over candidates.
        for (i, s) in self.steps.iter().enumerate() {
            est.device += dev.kernel_launch_overhead;
            est.device += if i == 0 {
                dev.stream_seconds(s.column_bytes + self.survivors(0) * CANDIDATE_PAIR_BYTES)
            } else {
                dev.scattered_seconds(self.survivors(i - 1) * CANDIDATE_PAIR_BYTES)
            };
        }
        // Only the undecided candidates cross PCI-E for host-side
        // refinement: scattered residual decode + exact re-test.
        let undecided = (final_rows as f64 * self.undecided_share).ceil() as u64;
        est.pcie += env.pcie.transfer_seconds(undecided * 4);
        est.host += cpu.scattered_seconds(undecided * GATHER_VALUE_BYTES, undecided, host_threads);
        // Aggregation-input gathers over the final candidates.
        est.device += dev.kernel_launch_overhead * gcols as f64
            + dev.scattered_seconds(final_rows * gcols * GATHER_VALUE_BYTES);
        // The tail follows the executor's placement. Every gathered
        // column resident: the device finishes what the host refined —
        // one survivor bit per undecided candidate goes back up and no
        // host tail is left. A bare count gathers nothing and sends
        // nothing up: the host adds its undecided rows. Otherwise (§IV-G)
        // the host tail covers every row.
        let host_rows = match (self.gathered_resident, gcols == 0) {
            (true, false) => 0,
            (true, true) => undecided,
            (false, _) => final_rows,
        };
        if self.gathered_resident && gcols > 0 && undecided > 0 {
            est.pcie += env.pcie.transfer_seconds(undecided.div_ceil(8));
        }
        est.host += cpu.scan_seconds(
            host_rows * gcols * GATHER_VALUE_BYTES,
            host_rows * gcols.max(1),
            host_threads,
        );
        est
    }

    /// **Worst-case** device working set of one A&R query, in bytes.
    ///
    /// The approximation subplan materializes one candidate list per
    /// selection — at worst one `(oid: u32, approx: u64)` pair per input
    /// row — and the device fast path additionally gathers every
    /// aggregation input column over the candidates. Over-reserving only
    /// delays a query; it never breaks one.
    pub fn worst_case_bytes(&self) -> u64 {
        self.rows
            * (self.steps.len() as u64 * CANDIDATE_PAIR_BYTES + self.gathered * GATHER_VALUE_BYTES)
            + KERNEL_SCRATCH_BYTES
    }

    /// The admission sizes at `scale` ([`EstimateConfig::scale`]).
    ///
    /// The approximate selection chain filters candidates monotonically,
    /// so the `i`-th candidate list holds about `rows × Π selectivity(1..=i)`
    /// entries, and the aggregation gathers run over the final list. Each
    /// term is inflated by `scale`, capped at `rows`, and the sum is
    /// clamped to the worst case. Pure arithmetic: the calibrator's
    /// factor is applied at dequeue without a second walk, and an
    /// over-shrunk reservation is not a correctness risk — the
    /// budget-enforced execution OOMs early and re-enters admission at
    /// the worst case, the path a bad hint already takes.
    pub fn reservation(&self, scale: f64) -> WorkingSetEstimate {
        let worst_case = self.worst_case_bytes();
        if !scale.is_finite() || scale <= 0.0 {
            return WorkingSetEstimate {
                estimated: worst_case,
                worst_case,
            };
        }
        let cands = |cum: f64| (self.rows as f64 * (cum * scale).clamp(0.0, 1.0)).ceil() as u64;
        let lists: u64 = (self.steps.iter())
            .map(|s| cands(s.selectivity) * CANDIDATE_PAIR_BYTES)
            .sum();
        let last = self.steps.last().map_or(1.0, |s| s.selectivity);
        let bytes = KERNEL_SCRATCH_BYTES + lists + cands(last) * self.gathered * GATHER_VALUE_BYTES;
        WorkingSetEstimate {
            estimated: bytes.min(worst_case),
            worst_case,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate, RewriteOptions, ScalarExpr};
    use bwd_storage::Column;
    use bwd_types::Value;

    const AR: ExecMode = ExecMode::ApproxRefine;

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

    fn latency(db: &Database, plan: &ArPlan, mode: &ExecMode, threads: u32) -> LatencyEstimate {
        PlanFootprint::of(db, plan, mode, threads).latency()
    }

    fn reserve(
        db: &Database,
        plan: &ArPlan,
        safety_factor: f64,
        factor: f64,
    ) -> WorkingSetEstimate {
        PlanFootprint::of(db, plan, &AR, 1)
            .reservation(EstimateConfig { safety_factor }.scale(factor))
    }

    #[test]
    fn classic_scan_dwarfs_short_ar_probe() {
        let db = db_with(1_000_000);
        let long = latency(&db, &probe(&db, 0, 9_999), &ExecMode::Classic, 1);
        // 1% hinted selectivity.
        let short = latency(&db, &probe(&db, 0, 99), &AR, 1);
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
        let e_small = latency(&small, &probe(&small, 0, 9_999), &ExecMode::Classic, 1);
        let e_big = latency(&big, &probe(&big, 0, 9_999), &ExecMode::Classic, 1);
        assert!(e_big.seconds() > 10.0 * e_small.seconds());
        // More simulated threads never slow the classic estimate.
        let e_mt = latency(&big, &probe(&big, 0, 9_999), &ExecMode::Classic, 8);
        assert!(e_mt.seconds() < e_big.seconds());
    }

    #[test]
    fn hints_shrink_ar_estimates_monotonically() {
        let db = db_with(200_000);
        let tight = latency(&db, &probe(&db, 0, 99), &AR, 1);
        let wide = latency(&db, &probe(&db, 0, 4_999), &AR, 1);
        assert!(tight.seconds() < wide.seconds(), "{tight:?} vs {wide:?}");
    }

    #[test]
    fn refinement_is_priced_from_the_boundary_granules() {
        let undecided_share =
            |db: &Database, plan: &ArPlan| PlanFootprint::of(db, plan, &AR, 1).undecided_share;
        let mut db = db_with(1_000_000);
        let wide = probe(&db, 0, 4_999); // half of the 0..10 000 domain
        assert_eq!(undecided_share(&db, &wide), 0.0, "not decomposed yet");
        db.bwdecompose("t", "a", 32).unwrap();
        assert_eq!(undecided_share(&db, &wide), 0.0, "fully resident");
        let resident = latency(&db, &wide, &AR, 1);
        let wide_sum = summing_b(&db, 0, 4_999);
        let resident_sum = latency(&db, &wide_sum, &AR, 1);
        assert_eq!(resident_sum.host, 0.0);
        // 28/4: granules of 16 payloads, two bounded ends.
        db.bwdecompose("t", "a", 28).unwrap();
        let share = undecided_share(&db, &wide);
        assert!((share - 32.0 / 5_032.0).abs() < 1e-12, "{share}");
        let narrow = probe(&db, 0, 15);
        assert!((undecided_share(&db, &narrow) - 32.0 / 48.0).abs() < 1e-12);
        let split = latency(&db, &wide, &AR, 1);
        assert!(split.host > resident.host && split.pcie > resident.pcie);
        // A tail over a resident value column runs on the device either
        // way: the split costs the host its refinement term and nothing
        // else, and PCI-E the list down plus one bit per entry back up.
        let split_sum = latency(&db, &wide_sum, &AR, 1);
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
        let fp = PlanFootprint::of(&db, &plan, &ExecMode::Classic, 1);
        assert_eq!(fp.latency().seconds(), 0.0);
        assert_eq!(fp.predicted_survivors(), 0);
    }

    /// `select count(*) from t where a between 0 and 999` over
    /// `a = 0..10 000`: 10 % of the uniform domain.
    fn hinted_plan() -> (Database, ArPlan) {
        let mut db = Database::new();
        db.create_table(
            "t",
            vec![("a".into(), Column::from_i32((0..10_000).collect()))],
        )
        .unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(0),
                hi: Value::Int(999),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        assert!(ar.selections[0].selectivity_hint.is_some());
        (db, ar)
    }

    #[test]
    fn worst_case_counts_selections_and_gathers() {
        let mut db = Database::new();
        db.create_table(
            "t",
            vec![
                ("a".into(), Column::from_i32((0..1000).collect())),
                ("b".into(), Column::from_i32((0..1000).collect())),
            ],
        )
        .unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(1),
                hi: Value::Int(10),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col("b")),
                    alias: "s".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        let est = PlanFootprint::of(&db, &ar, &AR, 1).worst_case_bytes();
        // 1000 rows * (1 selection * 12 B + 1 gathered column * 8 B) + scratch.
        assert_eq!(est, 1000 * (12 + 8) + KERNEL_SCRATCH_BYTES);
    }

    #[test]
    fn hints_shrink_below_worst_case() {
        let (db, ar) = hinted_plan();
        let est = reserve(&db, &ar, 4.0, 1.0);
        assert!(est.is_reduced(), "{est:?}");
        // 10% selectivity × safety 4 = 40% of the worst-case list bytes.
        let expected = 10_000 * 2 * CANDIDATE_PAIR_BYTES / 5 + KERNEL_SCRATCH_BYTES;
        assert_eq!(est.estimated, expected);
        assert_eq!(
            est.worst_case,
            PlanFootprint::of(&db, &ar, &AR, 1).worst_case_bytes()
        );
        assert!(est.data_budget() < est.estimated);
    }

    #[test]
    fn degenerate_configs_fall_back_to_worst_case() {
        let (db, ar) = hinted_plan();
        // A huge factor saturates at the worst case, never beyond.
        for safety in [0.0, f64::NAN, f64::INFINITY, 1e12] {
            let est = reserve(&db, &ar, safety, 1.0);
            assert_eq!(est.estimated, est.worst_case, "safety {safety}");
            assert!(!est.is_reduced());
        }
    }

    #[test]
    fn low_safety_factor_underestimates_deliberately() {
        let (db, ar) = hinted_plan();
        let est = reserve(&db, &ar, 1e-6, 1.0);
        // Essentially only the fixed scratch survives: the re-queue test
        // relies on this to force the OOM path.
        assert!(est.estimated <= KERNEL_SCRATCH_BYTES + CANDIDATE_PAIR_BYTES);
        assert_eq!(est.data_budget(), est.estimated - KERNEL_SCRATCH_BYTES);
    }

    #[test]
    fn candidate_factor_scales_like_safety_and_stays_clamped() {
        let (db, ar) = hinted_plan();
        let base = reserve(&db, &ar, 4.0, 1.0);
        // factor 0.5 with safety 4 ≡ safety 2 with factor 1.
        let shrunk = reserve(&db, &ar, 4.0, 0.5);
        let halved = reserve(&db, &ar, 2.0, 1.0);
        assert_eq!(shrunk.estimated, halved.estimated);
        assert!(shrunk.estimated < base.estimated);
        // A huge factor saturates at the worst case; degenerate factors
        // are ignored.
        assert_eq!(reserve(&db, &ar, 4.0, 1e12).estimated, base.worst_case);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            assert_eq!(
                reserve(&db, &ar, 4.0, bad).estimated,
                base.estimated,
                "factor {bad}"
            );
        }
    }

    #[test]
    fn estimate_is_monotone_in_safety_factor() {
        let (db, ar) = hinted_plan();
        let mut last = 0;
        for f in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let est = reserve(&db, &ar, f, 1.0);
            assert!(est.estimated >= last);
            assert!(est.estimated <= est.worst_case);
            last = est.estimated;
        }
    }

    // --- The numbers that must not move -------------------------------

    const Q1: &str = "select l_returnflag, l_linestatus, \
         sum(l_quantity) as sum_qty, \
         sum(l_extendedprice) as sum_base_price, \
         sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
         sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
         avg(l_quantity) as avg_qty, \
         avg(l_extendedprice) as avg_price, \
         avg(l_discount) as avg_disc, \
         count(*) as count_order \
         from lineitem \
         where l_shipdate <= date '1998-12-01' - interval '90' day \
         group by l_returnflag, l_linestatus";
    const Q6: &str = "select sum(l_extendedprice * l_discount) as revenue \
         from lineitem \
         where l_shipdate >= date '1994-01-01' \
         and l_shipdate < date '1994-01-01' + interval '1' year \
         and l_discount between 0.05 and 0.07 \
         and l_quantity < 24";
    const Q14: &str = "select \
         sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) as promo_revenue, \
         sum(l_extendedprice * (1 - l_discount)) as total_revenue \
         from lineitem, part \
         where l_partkey = p_partkey \
         and l_shipdate >= date '1995-09-01' \
         and l_shipdate < date '1995-09-01' + interval '1' month";
    const BOX: &str = "select count(lon) from trips where lon between 2.68288 and 2.70228 \
         and lat between 50.42220 and 50.44850";
    const PROBE: &str = "select count(*) from small where a between 1000000 and 1655359";

    fn bind_sql(db: &Database, sql: &str) -> ArPlan {
        match bwd_sql::bind(&bwd_sql::parse(sql).unwrap(), db.catalog()).unwrap() {
            bwd_sql::BoundStatement::Query(q) => db.bind(&q, &RewriteOptions::default()).unwrap(),
            bwd_sql::BoundStatement::Decompose { .. } => panic!("not a query"),
        }
    }

    /// The benchmark's tables and query shapes at a small scale, fully
    /// device-resident or — `split` — with the selection columns at 24/8
    /// as `benchmark/src/setup.rs` decomposes them.
    fn bench_db(split: bool) -> (Database, Vec<(&'static str, ArPlan)>) {
        use bwd_data::{gen_lineitem, gen_part, gen_trips, SpatialConfig, TpchConfig};
        let tpch = TpchConfig::scale(0.01);
        let mut db = Database::new();
        let trips = gen_trips(&SpatialConfig::fixes(50_000));
        db.create_table("trips", trips.into_columns()).unwrap();
        db.create_table("lineitem", gen_lineitem(&tpch).into_columns())
            .unwrap();
        db.create_table("part", gen_part(&tpch).into_columns())
            .unwrap();
        let small = (0..16_000i64).map(|i| (i * 7919 % 16_000 * 4096 + i % 4096) as i32);
        db.create_table(
            "small",
            vec![("a".into(), Column::from_i32(small.collect()))],
        )
        .unwrap();
        db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
            .unwrap();
        let sqls = [
            ("probe", PROBE),
            ("box", BOX),
            ("q6", Q6),
            ("q14", Q14),
            ("q1", Q1),
        ];
        for (_, sql) in sqls {
            let plan = bind_sql(&db, sql);
            db.auto_bind(&plan).unwrap();
        }
        if split {
            db.bwdecompose("trips", "lon", 24).unwrap();
            db.bwdecompose("trips", "lat", 24).unwrap();
            db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
            db.bwdecompose("small", "a", 24).unwrap();
        }
        let plans = (sqls.iter())
            .map(|&(n, sql)| (n, bind_sql(&db, sql)))
            .collect();
        (db, plans)
    }

    /// One plan shape on one residency, as the parent commit's four plan
    /// walkers priced it.
    struct Pin {
        name: &'static str,
        split: bool,
        /// `ShapeKey::label`, Classic then A&R.
        labels: [&'static str; 2],
        /// `[host, device, pcie].to_bits()` of `estimate_latency` at
        /// Classic × threads {1, 4}, then A&R × threads {1, 4}.
        latency: [[u64; 3]; 4],
        predicted: u64,
        worst_case: u64,
        /// `estimate_working_set_scaled(..).estimated` at safety factor
        /// {1, 4, 1e-6, ∞} × candidate factor {1, 0.5, 2}.
        estimated: [[u64; 3]; 4],
    }

    /// Pinned to the parent's dump: `estimate_latency`,
    /// `estimate_working_set_scaled`, `working_set_estimate`,
    /// `predicted_survivors` and `ShapeKey::of(..).label()` printed at the
    /// commit before the footprint replaced them, on exactly `bench_db`.
    #[rustfmt::skip]
    fn pins() -> Vec<Pin> {
        vec![
        Pin {
            name: "probe",
            split: false,
            labels: ["small/classic/s1/fk0/g0/a1", "small/ar/s1/fk0/g0/a1"],
            latency: [
                [0x3f00f22f76a9ef42, 0x0, 0x0],
                [0x3ee0f22f76a9ef42, 0x0, 0x0],
                [0x0, 0x3ee17f227afd88d5, 0x3ee92a737110e454],
                [0x0, 0x3ee17f227afd88d5, 0x3ee92a737110e454],
            ],
            predicted: 161,
            worst_case: 257536,
            estimated: [[67468, 66508, 69388], [73228, 69388, 80908], [65548, 65548, 65548], [257536, 257536, 257536]],
        },
        Pin {
            name: "box",
            split: false,
            labels: ["trips/classic/s2/fk0/g0/a1", "trips/ar/s2/fk0/g0/a1"],
            latency: [
                [0x3f1a3f4dc3cd2635, 0x0, 0x0],
                [0x3efa3f4dc3cd2635, 0x0, 0x0],
                [0x0, 0x3ef1e08f253d165d, 0x3ee92a737110e454],
                [0x0, 0x3ef1e08f253d165d, 0x3ee92a737110e454],
            ],
            predicted: 1,
            worst_case: 1265536,
            estimated: [[65872, 65716, 66184], [66808, 66184, 68056], [65560, 65560, 65560], [1265536, 1265536, 1265536]],
        },
        Pin {
            name: "q6",
            split: false,
            labels: ["lineitem/classic/s3/fk0/g0/a1", "lineitem/ar/s3/fk0/g0/a1"],
            latency: [
                [0x3f2e24acfb0ca4f1, 0x0, 0x0],
                [0x3f0e24acfb0ca4f1, 0x0, 0x0],
                [0x0, 0x3f078b7947c49f8e, 0x3ee92a737110e454],
                [0x0, 0x3f078b7947c49f8e, 0x3ee92a737110e454],
            ],
            predicted: 1088,
            worst_case: 3185536,
            estimated: [[228420, 146984, 391304], [717032, 391304, 1256196], [65588, 65588, 65588], [3185536, 3185536, 3185536]],
        },
        Pin {
            name: "q14",
            split: false,
            labels: ["lineitem/classic/s1/fk1/g0/a2", "lineitem/ar/s1/fk1/g0/a2"],
            latency: [
                [0x3f22b81c1943d16f, 0x0, 0x0],
                [0x3f02b81c1943d16f, 0x0, 0x0],
                [0x0, 0x3f01a456abc4986a, 0x3ee92a737110e454],
                [0x0, 0x3f01a456abc4986a, 0x3ee92a737110e454],
            ],
            predicted: 713,
            worst_case: 2225536,
            estimated: [[91204, 78388, 116872], [168172, 116872, 270772], [65572, 65572, 65572], [2225536, 2225536, 2225536]],
        },
        Pin {
            name: "q1",
            split: false,
            labels: ["lineitem/classic/s1/fk0/g2/a8", "lineitem/ar/s1/fk0/g2/a8"],
            latency: [
                [0x3f6afc6f8b7451c5, 0x0, 0x0],
                [0x3f4afc6f8b7451c5, 0x0, 0x0],
                [0x0, 0x3f1f1b6ac921ec9f, 0x3ee92a737110e454],
                [0x0, 0x3f1f1b6ac921ec9f, 0x3ee92a737110e454],
            ],
            predicted: 57863,
            worst_case: 3665536,
            estimated: [[3537316, 1801456, 3665536], [3665536, 3665536, 3665536], [65596, 65596, 65596], [3665536, 3665536, 3665536]],
        },
        Pin {
            name: "probe",
            split: true,
            labels: ["small/classic/s1/fk0/g0/a1", "small/ar/s1/fk0/g0/a1"],
            latency: [
                [0x3f00f22f76a9ef42, 0x0, 0x0],
                [0x3ee0f22f76a9ef42, 0x0, 0x0],
                [0x3e47edd9ba361898, 0x3ee17f227afd88d5, 0x3ee92afe9ecf53bc],
                [0x3e27edd9ba361898, 0x3ee17f227afd88d5, 0x3ee92afe9ecf53bc],
            ],
            predicted: 161,
            worst_case: 257536,
            estimated: [[67468, 66508, 69388], [73228, 69388, 80908], [65548, 65548, 65548], [257536, 257536, 257536]],
        },
        Pin {
            name: "box",
            split: true,
            labels: ["trips/classic/s2/fk0/g0/a1", "trips/ar/s2/fk0/g0/a1"],
            latency: [
                [0x3f1a3f4dc3cd2635, 0x0, 0x0],
                [0x3efa3f4dc3cd2635, 0x0, 0x0],
                [0x3e47edd9ba361898, 0x3ef1e08f253d165d, 0x3ee92afe9ecf53bc],
                [0x3e27edd9ba361898, 0x3ef1e08f253d165d, 0x3ee92afe9ecf53bc],
            ],
            predicted: 1,
            worst_case: 1265536,
            estimated: [[65872, 65716, 66184], [66808, 66184, 68056], [65560, 65560, 65560], [1265536, 1265536, 1265536]],
        },
        Pin {
            name: "q6",
            split: true,
            labels: ["lineitem/classic/s3/fk0/g0/a1", "lineitem/ar/s3/fk0/g0/a1"],
            latency: [
                [0x3f2e24acfb0ca4f1, 0x0, 0x0],
                [0x3f0e24acfb0ca4f1, 0x0, 0x0],
                [0x3ed863a7c2b722ea, 0x3f078b7947c49f8e, 0x3ef9dcc60d0fa196],
                [0x3eb863a7c2b722ea, 0x3f078b7947c49f8e, 0x3ef9dcc60d0fa196],
            ],
            predicted: 1088,
            worst_case: 3185536,
            estimated: [[228420, 146984, 391304], [717032, 391304, 1256196], [65588, 65588, 65588], [3185536, 3185536, 3185536]],
        },
        Pin {
            name: "q14",
            split: true,
            labels: ["lineitem/classic/s1/fk1/g0/a2", "lineitem/ar/s1/fk1/g0/a2"],
            latency: [
                [0x3f22b81c1943d16f, 0x0, 0x0],
                [0x3f02b81c1943d16f, 0x0, 0x0],
                [0x3ed9d8b432fa6e42, 0x3f01a456abc4986a, 0x3ef9e7716ec8ebef],
                [0x3eb9d8b432fa6e42, 0x3f01a456abc4986a, 0x3ef9e7716ec8ebef],
            ],
            predicted: 713,
            worst_case: 2225536,
            estimated: [[91204, 78388, 116872], [168172, 116872, 270772], [65572, 65572, 65572], [2225536, 2225536, 2225536]],
        },
        Pin {
            name: "q1",
            split: true,
            labels: ["lineitem/classic/s1/fk0/g2/a8", "lineitem/ar/s1/fk0/g2/a8"],
            latency: [
                [0x3f6afc6f8b7451c5, 0x0, 0x0],
                [0x3f4afc6f8b7451c5, 0x0, 0x0],
                [0x3f0a60ea6ccfa230, 0x3f1f1b6ac921ec9f, 0x3eff311af758b7a0],
                [0x3eea60ea6ccfa230, 0x3f1f1b6ac921ec9f, 0x3eff311af758b7a0],
            ],
            predicted: 57863,
            worst_case: 3665536,
            estimated: [[3537316, 1801456, 3665536], [3665536, 3665536, 3665536], [65596, 65596, 65596], [3665536, 3665536, 3665536]],
        },
        ]
    }

    #[test]
    fn estimates_equal_the_four_walkers_they_replace_to_the_bit() {
        let pins = pins();
        for split in [false, true] {
            let (db, plans) = bench_db(split);
            for (name, plan) in &plans {
                let pin = (pins.iter())
                    .find(|p| p.name == *name && p.split == split)
                    .unwrap();
                let ctx = format!("{name} split={split}");
                let mut at = 0;
                for (mode, label) in [ExecMode::Classic, AR].iter().zip(pin.labels) {
                    for threads in [1u32, 4] {
                        let fp = PlanFootprint::of(&db, plan, mode, threads);
                        let got = fp.latency();
                        let bits = [got.host, got.device, got.pcie].map(f64::to_bits);
                        assert_eq!(bits, pin.latency[at], "{ctx} {mode:?} threads={threads}");
                        assert_eq!(fp.shape.label(), label, "{ctx}");
                        assert_eq!(fp.predicted_survivors(), pin.predicted, "{ctx}");
                        assert_eq!(fp.worst_case_bytes(), pin.worst_case, "{ctx}");
                        at += 1;
                    }
                }
                let safeties = [1.0, 4.0, 1e-6, f64::INFINITY];
                for (safety, want) in safeties.into_iter().zip(pin.estimated) {
                    for (factor, want) in [1.0, 0.5, 2.0].into_iter().zip(want) {
                        let est = reserve(&db, plan, safety, factor);
                        assert_eq!(est.estimated, want, "{ctx} safety={safety} factor={factor}");
                        assert_eq!(est.worst_case, pin.worst_case, "{ctx}");
                    }
                }
            }
        }
    }
}
