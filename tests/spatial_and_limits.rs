//! Spatial workload integration (Table I) and device-memory limit
//! behaviour: genuine OOM, buffer lifecycle, re-decomposition.

use waste_not::data::{gen_trips, SpatialConfig};
use waste_not::device::{DeviceSpec, Env};
use waste_not::engine::{Database, ExecMode};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::{Column, DecompositionSpec};
use waste_not::{BwdError, Value};

const QUERY: &str = "select count(lon) from trips \
     where lon between 2.68288 and 2.70228 and lat between 50.4222 and 50.4485";

fn spatial_db(fixes: usize, capacity: u64) -> Database {
    let env = Env::with_device(DeviceSpec::gtx680().with_capacity(capacity));
    let mut db = Database::with_env(env);
    db.create_table(
        "trips",
        gen_trips(&SpatialConfig::fixes(fixes)).into_columns(),
    )
    .unwrap();
    db
}

#[test]
fn table1_workload_equivalence() {
    let mut db = spatial_db(200_000, 1 << 30);
    db.bwdecompose("trips", "lon", 24).unwrap();
    db.bwdecompose("trips", "lat", 24).unwrap();
    let stmt = parse(QUERY).unwrap();
    let BoundStatement::Query(plan) = bind(&stmt, db.catalog()).unwrap() else {
        panic!()
    };
    let classic = db.run(&plan, ExecMode::Classic).unwrap();
    let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
    assert_eq!(classic.rows, ar.rows);
    // Reference count straight from the generated data.
    let trips = gen_trips(&SpatialConfig::fixes(200_000));
    // The paper's Table I box, as payloads.
    let ((lon_lo, lon_hi), (lat_lo, lat_hi)) = ((268_288, 270_228), (5_042_220, 5_044_850));
    let mut expect = 0i64;
    for i in 0..trips.lon.len() {
        let (x, y) = (trips.lon.payload(i), trips.lat.payload(i));
        if x >= lon_lo && x <= lon_hi && y >= lat_lo && y <= lat_hi {
            expect += 1;
        }
    }
    assert_eq!(ar.rows[0][0], Value::Int(expect));
}

#[test]
fn oversized_data_oom_then_decompose_fits() {
    // Device smaller than the full-resolution coordinate data.
    let fixes = 100_000;
    let mut db = spatial_db(fixes, (fixes as u64 * 8) * 10 / 11);
    // Full-resolution (uncompressed) residency must fail...
    let r = db
        .bwdecompose_spec("trips", "lon", &DecompositionSpec::uncompressed(32))
        .and_then(|_| db.bwdecompose_spec("trips", "lat", &DecompositionSpec::uncompressed(32)));
    assert!(
        matches!(r, Err(BwdError::DeviceOutOfMemory { .. })),
        "{r:?}"
    );
    // ...while bit-packed 24-bit approximations fit,
    db.bwdecompose("trips", "lon", 24).unwrap();
    db.bwdecompose("trips", "lat", 24).unwrap();
    // ...and the query runs exactly.
    let stmt = parse(QUERY).unwrap();
    let BoundStatement::Query(plan) = bind(&stmt, db.catalog()).unwrap() else {
        panic!()
    };
    let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
    let classic = db.run(&plan, ExecMode::Classic).unwrap();
    assert_eq!(ar.rows, classic.rows);
}

#[test]
fn redecomposition_releases_device_memory() {
    let mut db = spatial_db(50_000, 1 << 30);
    db.bwdecompose("trips", "lon", 24).unwrap();
    let after_first = db.env().device.memory().used();
    // Re-decomposing the same column replaces the old buffer.
    db.bwdecompose("trips", "lon", 16).unwrap();
    let after_second = db.env().device.memory().used();
    assert!(
        after_second < after_first,
        "16-bit approximation must be smaller: {after_second} vs {after_first}"
    );
}

#[test]
fn decomposition_volume_report_matches_allocator() {
    let mut db = spatial_db(50_000, 1 << 30);
    let lon = db.bwdecompose("trips", "lon", 24).unwrap();
    assert_eq!(db.env().device.memory().used(), lon.device_bytes);
    let lat = db.bwdecompose("trips", "lat", 24).unwrap();
    assert_eq!(
        db.env().device.memory().used(),
        lon.device_bytes + lat.device_bytes
    );
    // The paper's volume argument: decomposed coordinates are much
    // smaller than plain ones.
    assert!(lon.device_bytes + lon.host_bytes < lon.plain_bytes);
}

#[test]
fn unbound_column_fails_with_guidance() {
    let db = spatial_db(1_000, 1 << 30);
    let stmt = parse(QUERY).unwrap();
    let BoundStatement::Query(plan) = bind(&stmt, db.catalog()).unwrap() else {
        panic!()
    };
    let bound = db.bind(&plan, &Default::default()).unwrap();
    // Without auto_bind / bwdecompose, A&R execution refuses helpfully.
    let err = db.run_bound(&bound, ExecMode::ApproxRefine).unwrap_err();
    assert!(err.to_string().contains("bwdecompose"), "{err}");
    // The classic pipe does not need decomposition at all.
    assert!(db.run_bound(&bound, ExecMode::Classic).is_ok());
}

#[test]
fn throughput_runner_on_spatial_workload() {
    let mut db = spatial_db(100_000, 1 << 30);
    db.bwdecompose("trips", "lon", 24).unwrap();
    db.bwdecompose("trips", "lat", 24).unwrap();
    let stmt = parse(QUERY).unwrap();
    let BoundStatement::Query(plan) = bind(&stmt, db.catalog()).unwrap() else {
        panic!()
    };
    let plan = db.bind(&plan, &Default::default()).unwrap();
    let report =
        bwd_bench::throughput::run_throughput(std::sync::Arc::new(db), &plan, &[1, 4, 16]).unwrap();
    assert!(report.cpu_parallel[2].1 > report.cpu_parallel[0].1);
    assert!(report.cumulative > report.cpu_parallel[2].1);
}

#[test]
fn many_columns_share_one_device() {
    // Several small tables on one device: allocations coexist and free.
    let env = Env::with_device(DeviceSpec::gtx680().with_capacity(1 << 20));
    let mut db = Database::with_env(env);
    for t in 0..4 {
        db.create_table(
            format!("t{t}"),
            vec![("x".into(), Column::from_i32((0..10_000).collect()))],
        )
        .unwrap();
    }
    for t in 0..4 {
        db.bwdecompose(&format!("t{t}"), "x", 24).unwrap();
    }
    assert!(db.env().device.memory().used() > 0);
    assert_eq!(db.env().device.memory().live_buffers(), 4);
}
