//! The scheduler's estimate against the run it estimated, where the
//! benchmark cannot look (`sched.est_ratio` there is measured on probes
//! only): the five benchmark statements in both modes through a
//! [`Session`], calibration off, on the benchmark's decomposition at
//! micro scale.

use std::sync::Arc;

use bwd_bench::evaluation::{bind_sql, tpch_db, Q1, Q14, Q6, SPATIAL_QUERY};
use waste_not::data::{gen_trips, SpatialConfig};
use waste_not::sched::CalibrateConfig;
use waste_not::storage::Column;
use waste_not::{Database, ExecMode, SchedConfig, Scheduler};

const PROBE: &str = "select count(*) from small where a between 1000000 and 1655359";

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

/// `JobReport::est_seconds ÷ actual_sim_seconds`, uncalibrated, for the
/// five statements × {Classic, A&R}: every estimate within a factor of
/// two of the bill it predicts. (The parent's hand-written estimator read
/// 0.18–0.87 on the A&R side here and 0.12–0.40 at the benchmark's scale:
/// it priced scans at stream bandwidth and nothing of pre-grouping,
/// `aggregate.eval` or expression arithmetic.) Q1's A&R estimate read 0.84
/// while a hash pre-grouping's contention was predicted at the key domains'
/// 6 groups where the data holds 3; its device tail now folds into slots
/// the key addresses, the operator does not run, and what is left of the
/// misprediction is the accumulator updates' share: 0.96, held to 10 %.
#[test]
fn uncalibrated_estimates_are_within_2x_of_the_bill() {
    let db = Arc::new(bench_db());
    let config = SchedConfig {
        workers: 1,
        calibrate: CalibrateConfig { enabled: false },
        ..SchedConfig::default()
    };
    let sched = Scheduler::new(Arc::clone(&db), config);
    let session = sched.session();
    let statements = [
        ("probe", PROBE),
        ("box", SPATIAL_QUERY),
        ("q6", Q6),
        ("q14", Q14),
        ("q1", Q1),
    ];
    for (name, sql) in statements {
        let plan = bind_sql(&db, sql).unwrap();
        for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
            let ticket = session.submit(plan.clone(), mode.clone());
            let (result, report) = ticket.wait_report().unwrap();
            assert_eq!(report.actual_sim_seconds, result.breakdown.total());
            let ratio = report.est_seconds / report.actual_sim_seconds;
            println!("est_ratio {name} {mode:?}: {ratio:.3}");
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
        }
    }
    assert_eq!(sched.stats().errors, 0);
}
