//! The scheduler's estimate against the run it estimated, where the
//! benchmark cannot look (`sched.est_ratio` there is measured on probes
//! only): the five benchmark statements and three skewed spatial boxes in
//! both modes through a [`Session`], on the benchmark's decomposition at
//! micro scale.

use std::sync::Arc;

use bwd_bench::evaluation::{bind_sql, tpch_db, Q1, Q14, Q6, SPATIAL_QUERY};
use waste_not::data::{gen_trips, SpatialConfig};
use waste_not::engine::bill::{order, Refinement};
use waste_not::engine::{Counts, RefineCounts, Shape};
use waste_not::sched::{PlanFootprint, SubmitOptions, WorkingSetEstimate};
use waste_not::storage::Column;
use waste_not::{Database, ExecMode, SchedConfig, Scheduler};

const PROBE: &str = "select count(*) from small where a between 1000000 and 1655359";

/// A box over the densest corner of the Zipf-weighted fixes.
const DENSE_BOX: &str = "select count(lon) from trips \
     where lon between 2.26950 and 2.46950 and lat between 48.75660 and 48.95660";
/// A box where few fixes fall.
const SPARSE_BOX: &str = "select count(lon) from trips \
     where lon between 27.91000 and 28.11000 and lat between 40.92000 and 41.12000";
/// A box no fix falls in.
const EMPTY_BOX: &str = "select count(lon) from trips \
     where lon between -10.00000 and -9.80000 and lat between 60.00000 and 60.20000";

/// The benchmark's tables, decomposed as `benchmark/src/setup.rs` does:
/// `lon`/`lat` 24/8, every TPC-H column resident, then `l_shipdate` and
/// `small.a` 24/8.
fn bench_db() -> Database {
    let mut db = tpch_db(0.01).unwrap();
    let trips = gen_trips(&SpatialConfig::fixes(50_000));
    db.create_table("trips", trips.into_columns()).unwrap();
    let small = (0..16_000i64).map(|i| (i * 7919 % 16_000 * 4096 + i % 4096) as i32);
    let small = Column::from_i32(small.collect());
    db.create_table("small", vec![("a".into(), small)]).unwrap();
    db.bwdecompose("trips", "lon", 24).unwrap();
    db.bwdecompose("trips", "lat", 24).unwrap();
    for sql in [Q1, Q6, Q14] {
        let plan = bind_sql(&db, sql).unwrap();
        db.auto_bind(&plan).unwrap();
    }
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    db.bwdecompose("small", "a", 24).unwrap();
    db
}

/// `JobReport::est_seconds ÷ actual_sim_seconds` for every statement ×
/// {Classic, A&R}: every estimate within a factor of two of the bill it
/// predicts. (The parent's hand-written estimator read 0.18–0.87 on the
/// A&R side here and 0.12–0.40 at the benchmark's scale: it priced scans
/// at stream bandwidth and nothing of pre-grouping, `aggregate.eval` or
/// expression arithmetic.) Q1's A&R estimate read 0.84 while a hash
/// pre-grouping's contention was predicted at the key domains' 6 groups
/// where the data holds 3, and 0.96 once the packed key addressed the
/// slots. Its tail now folds the discount and the tax into the grouping:
/// a hash pre-grouping again, predicted at 594 fold groups where the data
/// holds 297 — fewer write conflicts, a larger download and roll-up than
/// the run's — and the estimate reads 1.04, held to 10 %.
///
/// The estimate is a pure function of (plan, catalog, thread allocation):
/// each statement is submitted twice, one after the other, and the second
/// report's estimate is the first's and the footprint's total to the bit —
/// no completion moves it.
///
/// The skewed boxes read (A&R / Classic) 0.782 / 0.669 dense, 0.826 /
/// 1.006 sparse and 1.000 / 1.000 empty. What the dense box's estimate
/// misses is correlation, not marginal skew: at 400 k fixes, exact 1-D
/// marginals multiplied as independent predict 3 344 of its 33 063 rows
/// (and 9 of the sparse box's 1 067), so no histogram would fix it. Its
/// reservation runs out instead, and the OOM-early → worst-case requeue
/// recovers: at most one requeue per A&R box submission, never an error.
#[test]
fn uncalibrated_estimates_are_within_2x_of_the_bill() {
    let db = Arc::new(bench_db());
    let config = SchedConfig {
        workers: 1,
        ..SchedConfig::default()
    };
    let sched = Scheduler::new(Arc::clone(&db), config);
    let session = sched.session();
    let statements = [
        ("probe", PROBE),
        ("box", SPATIAL_QUERY),
        ("dense box", DENSE_BOX),
        ("sparse box", SPARSE_BOX),
        ("empty box", EMPTY_BOX),
        ("q6", Q6),
        ("q14", Q14),
        ("q1", Q1),
    ];
    let threads = SubmitOptions::default().effective_host_threads(db.env());
    let mut ar_box_submissions = 0;
    for (name, sql) in statements {
        let plan = bind_sql(&db, sql).unwrap();
        let mut classic_rows = None;
        for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
            let footprint = PlanFootprint::of(&db, &plan, &mode, threads);
            let priced = footprint.latency().total();
            let mut rows = None;
            for round in 0..2 {
                let ticket = session.submit(plan.clone(), mode.clone());
                let (result, report) = ticket.wait_report().unwrap();
                assert_eq!(report.actual_sim_seconds, result.breakdown.total());
                assert_eq!(
                    report.est_seconds.to_bits(),
                    priced.to_bits(),
                    "{name} {mode:?} round {round}: {} is not the footprint's {priced}",
                    report.est_seconds
                );
                let ratio = report.est_seconds / report.actual_sim_seconds;
                if round == 0 {
                    println!("est_ratio {name} {mode:?}: {ratio:.3}");
                }
                let within = match (name, &mode) {
                    ("q1", ExecMode::ApproxRefine) => 0.9..=1.1,
                    _ => 0.5..=2.0,
                };
                assert!(
                    within.contains(&ratio),
                    "{name} {mode:?}: estimated {} for a bill of {}",
                    report.est_seconds,
                    report.actual_sim_seconds
                );
                assert_eq!(*rows.get_or_insert(result.rows.clone()), result.rows);
                if name.ends_with("box") && matches!(mode, ExecMode::ApproxRefine) {
                    ar_box_submissions += 1;
                }
            }
            let rows = rows.unwrap();
            assert_eq!(*classic_rows.get_or_insert(rows.clone()), rows, "{name}");
        }
    }
    let stats = sched.stats();
    assert!(
        stats.admission_requeues <= ar_box_submissions,
        "{} requeues over {ar_box_submissions} A&R box submissions",
        stats.admission_requeues
    );
    assert_eq!(stats.errors, 0);
}

/// A fetch-placed run is admitted once. At TPC-H SF 0.02, `l_shipdate`
/// 24/8 and one host thread, Q6 leaves about 3 000 candidates undecided,
/// between the two break-evens of the refinement rule: the host fetches
/// their residuals, and the device holds their oids and the residuals sent
/// up beside its candidate lists. The footprint reserves both, so the run
/// stays inside its reservation, never requeues and answers what the
/// classic pipe answers.
#[test]
fn a_fetch_placed_run_is_admitted_once() {
    let mut db = tpch_db(0.02).unwrap();
    let plan = bind_sql(&db, Q6).unwrap();
    db.auto_bind(&plan).unwrap();
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    let (mode, threads) = (ExecMode::ApproxRefine, 1);
    let env = db.env().clone().host_threads(threads);
    let (_, counts, held) = db.run_counted(&plan, mode.clone(), &env, 1, None).unwrap();
    let chosen = order(&db, &plan, &mode, &env);
    let place = Shape::resolve(&db, &chosen, &mode, &env)
        .unwrap()
        .transient(&env);
    assert_eq!(place.refinement(&counts), Refinement::Fetch);
    let config = SchedConfig {
        workers: 1,
        ..SchedConfig::default()
    };
    let footprint = PlanFootprint::of(&db, &plan, &mode, threads);
    let reserved = footprint.reservation(config.safety_factor);
    assert!(held <= reserved.data_budget(), "{held} B past {reserved:?}");
    let sched = Scheduler::new(Arc::new(db), config);
    let session = sched.session();
    let rows = |mode| session.submit(plan.clone(), mode).wait().unwrap().rows;
    assert_eq!(rows(mode), rows(ExecMode::Classic));
    let stats = sched.stats();
    assert_eq!((stats.admission_requeues, stats.errors), (0, 0));
}

/// What the footprint predicts, pinned: per statement × mode the
/// predicted counts — rows, steps, undecided, `(live, kept)` per
/// refinement, survivors, groups —, the bits of the latency's total and
/// the reservation at a safety factor of 4 (estimated, worst case). A
/// change to how a count is predicted moves one of them; a change to
/// where the prediction is computed must not. (Q1's groups were re-taken
/// when they became the occupied cells of its fold keys: 297, not the 594
/// the key domains multiply to. A&R's fold rolls up into the three flag ×
/// status groups; at this scale the host's roll-up stays the cheaper, so
/// no pin moved when the device could take it.)
#[test]
fn the_predictions_are_pinned() {
    type Predicted = (u64, &'static [u64], u64, &'static [(u64, u64)], u64, u64);
    type Pin<'a> = (&'a str, &'a ExecMode, Predicted, u64, (u64, u64));
    let (c, ar) = (ExecMode::Classic, ExecMode::ApproxRefine);
    #[rustfmt::skip]
    let pins: [Pin; 14] = [
        (Q1, &c, (60_000, &[57_863], 0, &[], 57_863, 297), 0x3f71966edb1c0a76, (785_536, 785_536)),
        (Q1, &ar, (60_000, &[60_000], 5_273, &[(5_273, 3_136)], 57_863, 297), 0x3f39c633ba9bcef8, (2_048_173, 2_053_036)),
        (Q6, &c, (60_000, &[8_670, 3_989, 1_088], 0, &[], 1_088, 0), 0x3f305c7f8517700e, (725_392, 2_225_536)),
        (Q6, &ar, (60_000, &[16_364, 7_528, 2_289], 1_526, &[(1_526, 325)], 1_088, 0), 0x3f1ba5b58fe7f7b2, (1_387_147, 3_253_036)),
        (Q14, &c, (60_000, &[713], 0, &[], 713, 0), 0x3f2462a562416f4a, (99_760, 785_536)),
        (Q14, &ar, (60_000, &[6_081], 6_081, &[(6_081, 713)], 713, 0), 0x3f1992dee21824d8, (488_913, 2_293_036)),
        (PROBE, &c, (16_000, &[161], 0, &[], 161, 0), 0x3f015143e6f5f300, (73_264, 257_536)),
        (PROBE, &ar, (16_000, &[161], 1, &[(1, 1)], 161, 0), 0x3ef8725d30b61a86, (73_264, 257_536)),
        (DENSE_BOX, &c, (50_000, &[269, 3], 0, &[], 3, 0), 0x3f1a8b9eb64b35ee, (78_592, 1_265_536)),
        (DENSE_BOX, &ar, (50_000, &[272, 3], 0, &[], 3, 0), 0x3f03f45c410400f4, (78_736, 1_265_536)),
        (SPARSE_BOX, &c, (50_000, &[188, 2], 0, &[], 2, 0), 0x3f1a7208c3a595b1, (74_656, 1_265_536)),
        (SPARSE_BOX, &ar, (50_000, &[190, 2], 0, &[], 2, 0), 0x3f03f214236f2bcb, (74_752, 1_265_536)),
        (EMPTY_BOX, &c, (50_000, &[0, 0], 0, &[], 0, 0), 0x3f1a36e2eb1c432d, (65_536, 1_265_536)),
        (EMPTY_BOX, &ar, (50_000, &[0, 0], 0, &[], 0, 0), 0x3ee92ca0280aa1f4, (65_536, 1_265_536)),
    ];
    let db = bench_db();
    let threads = SubmitOptions::default().effective_host_threads(db.env());
    for (sql, mode, predicted, total, (estimated, worst_case)) in pins {
        let (rows, steps, undecided, refines, survivors, groups) = predicted;
        let refines = refines
            .iter()
            .map(|&(live, kept)| RefineCounts { live, kept });
        let counts = Counts {
            rows,
            steps: steps.to_vec(),
            dense: false,
            undecided,
            refines: refines.collect(),
            survivors,
            groups,
            result_groups: 3 * u64::from(sql == Q1 && matches!(mode, ExecMode::ApproxRefine)),
        };
        let plan = bind_sql(&db, sql).unwrap();
        let footprint = PlanFootprint::of(&db, &plan, mode, threads);
        assert_eq!(footprint.counts, counts, "{sql} {mode:?}");
        let got = footprint.latency().total();
        assert_eq!(got.to_bits(), total, "{sql} {mode:?}: {got}");
        let reservation = WorkingSetEstimate {
            estimated,
            worst_case,
        };
        assert_eq!(footprint.reservation(4.0), reservation, "{sql} {mode:?}");
    }
}
