//! One walk of a bound plan, priced once at submission.
//!
//! Everything the scheduler wants to know about a plan before it runs —
//! how long it will take (the SJF queue key) and how much device memory
//! it will hold (the admission reservation) — is the executor's own bill
//! (`bwd_engine::bill`) over the counts the plan's statistics *predict*.
//! [`PlanFootprint::of`] takes the plan the run will execute — selection
//! order and fold, as the engine's chooser picks them — resolves it on the
//! primary card through the executors' resolver and has the engine predict
//! a [`Counts`] — a small summary that answers every question asked of the
//! relation, as the relational-coreset literature has it. This module does
//! no count arithmetic of its own; every number is the bill, or its
//! transient bytes, over counts, and a pure function of (plan, catalog,
//! thread allocation):
//!
//! * [`PlanFootprint::latency`] — the bill of the predicted counts. Priced
//!   over the counts a run *observed* it is that run's breakdown to the
//!   bit (the `footprint` tests).
//! * [`PlanFootprint::worst_case_bytes`] — the transient bytes of the
//!   all-rows counts: admitted at this size, a query cannot run out.
//! * [`PlanFootprint::reservation`] — the transient bytes of the predicted
//!   counts inflated by [`crate::SchedConfig::safety_factor`], clamped to
//!   the worst case. The scheduler enforces it as the query's device
//!   budget; an underestimated query — correlated predicates, which the
//!   independence assumption cannot see — OOMs early and re-enters
//!   admission at the worst case.

use crate::admission::KERNEL_SCRATCH_BYTES;
use bwd_core::plan::ArPlan;
use bwd_device::Breakdown;
use bwd_engine::bill::order;
use bwd_engine::{Counts, Database, ExecMode, Shape, Transient};

/// The two admission sizes of one A&R query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSetEstimate {
    /// Selectivity-informed reservation (≤ `worst_case`).
    pub estimated: u64,
    /// [`PlanFootprint::worst_case_bytes`].
    pub worst_case: u64,
}

impl WorkingSetEstimate {
    /// Whether statistics shrank the reservation — only then is the
    /// in-flight budget enforced (the worst case cannot be exceeded).
    pub fn is_reduced(&self) -> bool {
        self.estimated < self.worst_case
    }

    /// What the executor may hold once the fixed kernel scratch is set
    /// aside.
    pub fn data_budget(&self) -> u64 {
        self.estimated.saturating_sub(KERNEL_SCRATCH_BYTES)
    }
}

/// What the scheduler knows about one bound plan (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFootprint {
    /// What the plan's statistics predict a run will count (all zero,
    /// like every estimate, when the plan does not resolve).
    pub counts: Counts,
    transient: Transient,
    latency: Breakdown,
}

impl PlanFootprint {
    /// Walk `plan` once: take the plan the run will execute
    /// ([`bwd_engine::bill::order`]), resolve it as the executor of `mode`
    /// would on the primary card and bill the counts its statistics predict
    /// ([`Shape::predict`]). `host_threads` is the simulated allocation
    /// the job will run with
    /// ([`crate::SubmitOptions::effective_host_threads`]).
    pub fn of(db: &Database, plan: &ArPlan, mode: &ExecMode, host_threads: u32) -> PlanFootprint {
        Self::price(db, plan, mode, host_threads, None)
    }

    fn price(
        db: &Database,
        plan: &ArPlan,
        mode: &ExecMode,
        host_threads: u32,
        counts: Option<Counts>,
    ) -> PlanFootprint {
        let mut fp = PlanFootprint {
            counts: Counts::default(),
            transient: Transient::default(),
            latency: Breakdown::default(),
        };
        // An estimator never errors a submission: an A&R plan over a
        // column that is not bound yet is priced as Classic, a plan that
        // does not resolve at all as nothing.
        let env = db.env().clone().host_threads(host_threads);
        let mode = match Shape::resolve(db, plan, mode, &env) {
            Ok(_) => mode,
            Err(_) => &ExecMode::Classic,
        };
        let plan = order(db, plan, mode, &env);
        let Ok(shape) = Shape::resolve(db, &plan, mode, &env) else {
            return fp;
        };
        fp.counts = counts.unwrap_or_else(|| shape.predict());
        fp.transient = shape.transient(&env);
        fp.latency = shape.bill(&fp.counts, &env);
        fp
    }

    /// The latency estimate, in simulated seconds per component (its
    /// total is the SJF sort key): the bill of [`PlanFootprint::counts`]
    /// for the mode and thread count this footprint was taken at.
    pub fn latency(&self) -> Breakdown {
        self.latency
    }

    /// **Worst-case** device working set of one A&R query, in bytes: what
    /// the run holds when every selection keeps every row, nothing is
    /// decided and refinement drops nothing. Over-reserving only delays a
    /// query; it never breaks one.
    pub fn worst_case_bytes(&self) -> u64 {
        let all = Counts::all_rows(self.counts.rows, self.counts.steps.len());
        KERNEL_SCRATCH_BYTES + self.transient.bytes(&all)
    }

    /// The admission sizes at `safety_factor`
    /// ([`crate::SchedConfig::safety_factor`]): what a run holds whose
    /// every count is the predicted one inflated by the factor (capped at
    /// the row count), clamped to the worst case; a non-finite or
    /// non-positive factor reserves the worst case. Pure arithmetic over
    /// the carried counts, and an over-shrunk reservation is not a
    /// correctness risk — the budget-enforced execution OOMs early and
    /// re-enters admission at the worst case.
    pub fn reservation(&self, safety_factor: f64) -> WorkingSetEstimate {
        let worst_case = self.worst_case_bytes();
        let estimated = match safety_factor.is_finite() && safety_factor > 0.0 {
            true => KERNEL_SCRATCH_BYTES + self.transient.bytes(&self.counts.scaled(safety_factor)),
            false => worst_case,
        };
        WorkingSetEstimate {
            estimated: estimated.min(worst_case),
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

    /// `t(a, b)`, fully device-resident: `a` cycles `0..10 000`, `b` `0..32`.
    fn db_with(rows: i32) -> Database {
        let ints = |m: i32| Column::from_i32((0..rows).map(|i| i % m).collect());
        let mut db = Database::new();
        let cols = vec![("a".into(), ints(10_000)), ("b".into(), ints(32))];
        db.create_table("t", cols).unwrap();
        db.bwdecompose("t", "a", 32).unwrap();
        db.bwdecompose("t", "b", 32).unwrap();
        db
    }

    fn aggregate(db: &Database, lo: i64, hi: i64, func: AggFunc, arg: Option<&str>) -> ArPlan {
        let (column, lo, hi) = ("a".into(), Value::Int(lo), Value::Int(hi));
        let agg = AggExpr {
            func,
            arg: arg.map(ScalarExpr::col),
            alias: "n".into(),
        };
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between { column, lo, hi })
            .aggregate(vec![], vec![agg]);
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

    fn latency(db: &Database, plan: &ArPlan, mode: &ExecMode, threads: u32) -> Breakdown {
        PlanFootprint::of(db, plan, mode, threads).latency()
    }

    fn reserve(db: &Database, plan: &ArPlan, safety_factor: f64) -> WorkingSetEstimate {
        PlanFootprint::of(db, plan, &AR, 1).reservation(safety_factor)
    }

    #[test]
    fn classic_scan_dwarfs_short_ar_probe() {
        let db = db_with(1_000_000);
        let long = latency(&db, &probe(&db, 0, 9_999), &ExecMode::Classic, 1);
        // 1% predicted selectivity.
        let short = latency(&db, &probe(&db, 0, 99), &AR, 1);
        assert!(long.total() > 10.0 * short.total(), "{long:?} {short:?}");
        assert!(long.host > 0.0 && short.device > 0.0);
    }

    #[test]
    fn estimates_scale_with_rows_and_threads() {
        let small = db_with(10_000);
        let big = db_with(1_000_000);
        let e_small = latency(&small, &probe(&small, 0, 9_999), &ExecMode::Classic, 1);
        let e_big = latency(&big, &probe(&big, 0, 9_999), &ExecMode::Classic, 1);
        assert!(e_big.total() > 10.0 * e_small.total());
        // More simulated threads never slow the classic estimate.
        let e_mt = latency(&big, &probe(&big, 0, 9_999), &ExecMode::Classic, 8);
        assert!(e_mt.total() < e_big.total());
    }

    #[test]
    fn hints_shrink_ar_estimates_monotonically() {
        let db = db_with(200_000);
        let tight = latency(&db, &probe(&db, 0, 99), &AR, 1);
        let wide = latency(&db, &probe(&db, 0, 4_999), &AR, 1);
        assert!(tight.total() < wide.total(), "{tight:?} vs {wide:?}");
    }

    /// What a split leaves undecided is read off the relaxed intervals: a
    /// resident column decides everything; at 28/4 (granules of 16
    /// payloads) `a between 0 and 4 999` admits granules 0..=312 and
    /// decides 0..=311, so one granule's rows — 16 of 10 000 payloads —
    /// are predicted undecided, and the host is billed for refining them
    /// and nothing else when the tail's columns are resident.
    #[test]
    fn refinement_is_priced_from_the_boundary_granules() {
        let counts = |db: &Database, plan: &ArPlan| PlanFootprint::of(db, plan, &AR, 1).counts;
        let mut db = db_with(1_000_000);
        let wide = probe(&db, 0, 4_999); // half of the 0..10 000 domain
        assert_eq!(counts(&db, &wide).undecided, 0, "fully resident");
        let (resident, resident_sum) = (
            latency(&db, &wide, &AR, 1),
            latency(&db, &summing_b(&db, 0, 4_999), &AR, 1),
        );
        assert_eq!((resident.host, resident_sum.host), (0.0, 0.0));
        db.bwdecompose("t", "a", 28).unwrap();
        let (wide, wide_sum) = (probe(&db, 0, 4_999), summing_b(&db, 0, 4_999));
        let c = counts(&db, &wide);
        assert_eq!(
            (c.candidates(), c.undecided, c.survivors),
            (500_800, 1_600, 500_000)
        );
        assert_eq!(
            counts(&db, &probe(&db, 0, 15)).undecided,
            0,
            "granule-aligned"
        );
        assert_eq!(counts(&db, &probe(&db, 1, 16)).undecided, 3_200, "two ends");
        let (split, split_sum) = (latency(&db, &wide, &AR, 1), latency(&db, &wide_sum, &AR, 1));
        assert!(split.host > 0.0 && split.pcie > resident.pcie);
        // The list down plus one bit per entry back up.
        assert!(split_sum.host > 0.0 && split_sum.pcie > resident_sum.pcie);
        // Under 1 % of the candidates are refined: nowhere near the bill
        // for a host tail over all of them.
        let classic = latency(&db, &wide_sum, &ExecMode::Classic, 1);
        assert!(
            split_sum.host < classic.host / 50.0,
            "{split_sum:?} {classic:?}"
        );
    }

    /// An estimator never errors a submission: a plan over an unknown
    /// table prices as nothing, an A&R plan over a column that is not
    /// bound yet as Classic.
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
            fold: vec![],
        };
        let fp = PlanFootprint::of(&db, &plan, &ExecMode::Classic, 1);
        assert_eq!(fp.latency().total(), 0.0);
        assert_eq!(fp.counts.survivors, 0);

        let mut db = Database::new();
        let col = Column::from_i32((0..1000).collect());
        db.create_table("t", vec![("a".into(), col)]).unwrap();
        let plan = probe(&db, 0, 99);
        let unbound = PlanFootprint::of(&db, &plan, &AR, 1);
        let classic = PlanFootprint::of(&db, &plan, &ExecMode::Classic, 1);
        assert_eq!(unbound.latency(), classic.latency());
        assert!(unbound.latency().host > 0.0);
    }

    /// `select count(*) from t where a between 0 and 999` over
    /// `a = 0..10 000`: 10 % of the uniform domain.
    fn hinted_plan() -> (Database, ArPlan) {
        let mut db = Database::new();
        let col = Column::from_i32((0..10_000).collect());
        db.create_table("t", vec![("a".into(), col)]).unwrap();
        db.bwdecompose("t", "a", 32).unwrap();
        let ar = probe(&db, 0, 999);
        let predicted = PlanFootprint::of(&db, &ar, &AR, 1).counts;
        assert_eq!(predicted.survivors as f64 / predicted.rows as f64, 0.1);
        (db, ar)
    }

    #[test]
    fn worst_case_counts_selections_gathers_and_survivor_bits() {
        let db = db_with(1000);
        let est = PlanFootprint::of(&db, &summing_b(&db, 1, 10), &AR, 1).worst_case_bytes();
        // 1000 rows × (1 candidate pair of 12 B + 1 gathered value of 8 B)
        // + one survivor bit each + scratch.
        assert_eq!(est, 1000 * (12 + 8) + 1000 / 8 + KERNEL_SCRATCH_BYTES);
    }

    #[test]
    fn hints_shrink_below_worst_case() {
        let (db, ar) = hinted_plan();
        let est = reserve(&db, &ar, 4.0);
        assert!(est.is_reduced(), "{est:?}");
        // 10% selectivity × safety 4 = 40% of the rows, 12 B a pair.
        assert_eq!(est.estimated, 4_000 * 12 + KERNEL_SCRATCH_BYTES);
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
        for safety in [0.0, -3.0, f64::NAN, f64::INFINITY, 1e12] {
            let est = reserve(&db, &ar, safety);
            assert_eq!(est.estimated, est.worst_case, "safety {safety}");
            assert!(!est.is_reduced());
        }
    }

    #[test]
    fn low_safety_factor_underestimates_deliberately() {
        let (db, ar) = hinted_plan();
        let est = reserve(&db, &ar, 1e-6);
        // Essentially only the fixed scratch survives: the re-queue test
        // relies on this to force the OOM path.
        assert!(est.estimated <= KERNEL_SCRATCH_BYTES + 12);
        assert_eq!(est.data_budget(), est.estimated - KERNEL_SCRATCH_BYTES);
    }

    #[test]
    fn estimate_is_monotone_in_safety_factor() {
        let (db, ar) = hinted_plan();
        let mut last = 0;
        for f in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let est = reserve(&db, &ar, f);
            assert!(est.estimated >= last);
            assert!(est.estimated <= est.worst_case);
            last = est.estimated;
        }
    }

    // --- The benchmark's statements ------------------------------------

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
        let tpch = TpchConfig::scale(0.02);
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

    /// The bill has one author. Hand a footprint the counts a run
    /// observed and it is that run's ledger: the latency is its breakdown
    /// to the bit and the reservation at scale 1 the transient bytes its
    /// budget was charged — in both pipes, fully resident and split 24/8,
    /// at 1, 4 and 16 host threads, for every benchmark statement — Q6 at
    /// 24/8 in another chain order than it was bound in, which run and
    /// footprint both take — and under every refinement placement: split
    /// runs refine on the host, fetch the residuals of Q6's undecided
    /// candidates (SF 0.02, one thread) or stream the partition; and A&R
    /// Q1's fold is rolled up on the device, into the result groups the run
    /// counted. (This is what closed the `value_columns()` drift: the parent
    /// reserved Q1's two key columns although the executor, under a device
    /// pre-grouping, never gathers them.)
    #[test]
    fn observed_counts_in_the_runs_own_bits_out() {
        // Per placement, whether some split run refined that way.
        let (mut placements, mut rolled_up_on_device) = ([false; 3], false);
        for split in [false, true] {
            let (db, plans) = bench_db(split);
            for (name, plan) in &plans {
                for (mode, threads) in [(ExecMode::Classic, 1), (AR, 1), (AR, 4), (AR, 16)] {
                    let ctx = format!("{name} split={split} {mode:?}");
                    let env = db.env().clone().host_threads(threads);
                    // Q6 at 24/8 runs another order than it was bound in.
                    if *name == "q6" && split {
                        assert_ne!(*plan, *order(&db, plan, &mode, &env), "{ctx}");
                    }
                    let (run, counts, held) =
                        db.run_counted(plan, mode.clone(), &env, 1, None).unwrap();
                    let chosen = order(&db, plan, &mode, &env);
                    let shape = Shape::resolve(&db, &chosen, &mode, &env).unwrap();
                    if let Shape::Ar(ar) = &shape {
                        if counts.undecided > 0 {
                            placements[ar.refinement(counts.undecided, &env) as usize] = true;
                        }
                        if !chosen.fold.is_empty() {
                            assert_eq!(counts.result_groups, run.rows.len() as u64, "{ctx}");
                            rolled_up_on_device |= ar.rollup_on_device(&counts, &env);
                        }
                    }
                    let fp = PlanFootprint::price(&db, plan, &mode, threads, Some(counts));
                    let (got, want) = (fp.latency(), run.breakdown);
                    assert_eq!(
                        [got.host, got.device, got.pcie].map(f64::to_bits),
                        [want.host, want.device, want.pcie].map(f64::to_bits),
                        "{ctx}"
                    );
                    assert_eq!(fp.counts.survivors, run.survivors as u64, "{ctx}");
                    if !matches!(mode, ExecMode::Classic) {
                        let reserved = fp.reservation(1.0);
                        assert_eq!(reserved.data_budget(), held, "{ctx}");
                        assert!(reserved.is_reduced() || held == 0, "{ctx}");
                    }
                }
            }
        }
        assert_eq!(placements, [true; 3], "host, fetch and stream each refined");
        assert!(rolled_up_on_device, "a fold rolled up on the device");
    }
}
