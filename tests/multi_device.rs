//! Multi-device scheduling correctness:
//!
//! (a) queries scheduled across 2 devices return bit-identical rows and
//!     simulated costs vs serial single-device execution;
//! (b) neither device's memory is ever oversubscribed;
//! (c) the least-loaded policy actually spreads load, so the busiest
//!     card's simulated device-stream time (the batch's makespan) falls
//!     below what one card spends on the same batch;
//! (d) the statistics-underestimate re-queue path (OOM → release →
//!     inflate → re-queue) completes without a visible error.

use std::sync::Arc;

use waste_not::core::plan::ArPlan;
use waste_not::device::DeviceSpec;
use waste_not::engine::{Database, ExecMode};
use waste_not::sched::{SchedConfig, Scheduler, SchedulerStats};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::Column;
use waste_not::{Env, QueryResult};

const N: i32 = 200_000;

const QUERIES: [&str; 3] = [
    "select count(*) as n from t where a between 100 and 999",
    "select b, count(*) as n, sum(a) as s from t where a between 2000 and 4999 group by b",
    "select sum(a) as s from t where a < 500 and b < 16",
];

fn build_db(devices: usize) -> (Database, Vec<ArPlan>) {
    let env = Env::with_devices(vec![DeviceSpec::gtx680(); devices]);
    let mut db = Database::with_env(env);
    db.create_table(
        "t",
        vec![
            (
                "a".into(),
                Column::from_i32((0..N).map(|i| i % 10_000).collect()),
            ),
            (
                "b".into(),
                Column::from_i32((0..N).map(|i| (i * 7) % 32).collect()),
            ),
        ],
    )
    .unwrap();
    let plans: Vec<ArPlan> = QUERIES
        .iter()
        .map(|q| {
            let stmt = parse(q).unwrap();
            let BoundStatement::Query(logical) = bind(&stmt, db.catalog()).unwrap() else {
                panic!("not a query")
            };
            db.bind(&logical, &Default::default()).unwrap()
        })
        .collect();
    for p in &plans {
        db.auto_bind(p).unwrap();
    }
    (db, plans)
}

fn assert_identical(got: &QueryResult, want: &QueryResult, ctx: &str) {
    assert_eq!(got.rows, want.rows, "{ctx}: rows diverged");
    assert_eq!(
        got.breakdown, want.breakdown,
        "{ctx}: simulated costs diverged"
    );
    assert_eq!(got.survivors, want.survivors, "{ctx}: survivors diverged");
}

const ROUNDS: usize = 4;

/// Schedule one batch on a `devices`-card pool: `ROUNDS` A&R submissions
/// of every plan, mixed with one classic submission each so the CPU
/// stream runs alongside. Every ticket is checked against the serial
/// single-device `reference` — A&R bit-identically, classic by rows.
fn scheduled_batch(devices: usize, reference: &[QueryResult]) -> (Arc<Database>, SchedulerStats) {
    let (db, plans) = build_db(devices);
    let db = Arc::new(db);
    let sched = Scheduler::new(
        Arc::clone(&db),
        SchedConfig {
            workers: 4,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let ar_tickets: Vec<(usize, _)> = (0..ROUNDS)
        .flat_map(|_| {
            plans
                .iter()
                .enumerate()
                .map(|(pi, p)| (pi, session.submit(p.clone(), ExecMode::ApproxRefine)))
                .collect::<Vec<_>>()
        })
        .collect();
    let classic_tickets: Vec<(usize, _)> = plans
        .iter()
        .enumerate()
        .map(|(pi, p)| (pi, session.submit(p.clone(), ExecMode::Classic)))
        .collect();

    for (pi, t) in ar_tickets {
        let got = t.wait().unwrap();
        assert_identical(&got, &reference[pi], &format!("A&R plan {pi}"));
    }
    for (pi, t) in classic_tickets {
        let got = t.wait().unwrap();
        assert_eq!(got.rows, reference[pi].rows, "classic plan {pi}");
    }
    let stats = sched.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.devices.len(), devices);
    (db, stats)
}

/// The busiest card's simulated device-stream seconds: kernel time plus
/// the PCI-E transfers that fed it.
fn makespan(stats: &SchedulerStats) -> f64 {
    (stats.devices.iter())
        .map(|d| d.breakdown.device + d.breakdown.pcie)
        .fold(0.0, f64::max)
}

#[test]
fn two_devices_bit_identical_never_oversubscribed_and_spread() {
    // Serial single-device reference.
    let (ref_db, ref_plans) = build_db(1);
    let reference: Vec<QueryResult> = ref_plans
        .iter()
        .map(|p| ref_db.run_bound(p, ExecMode::ApproxRefine).unwrap())
        .collect();

    // (a) the same batch on one card and on two, bit-identical rows and
    // simulated costs vs the serial reference.
    let (_, one_card) = scheduled_batch(1, &reference);
    let (db, stats) = scheduled_batch(2, &reference);

    // (c) identical per-query costs, so the second card can only win by
    // taking a share of the batch: the device-stream makespan falls.
    let (one, two) = (makespan(&one_card), makespan(&stats));
    assert!(two < one, "2-card makespan {two} s vs 1-card {one} s");

    // (b) neither device was ever oversubscribed — checked on the real
    // memory systems, not just the snapshots.
    for (snap, dev) in stats.devices.iter().zip(db.env().pool.devices()) {
        assert!(
            snap.peak_bytes <= snap.capacity_bytes,
            "{}: peak {} > capacity {}",
            snap.name,
            snap.peak_bytes,
            snap.capacity_bytes
        );
        assert!(dev.memory().peak() <= dev.memory().capacity());
    }

    // The least-loaded policy spread the batch: both devices served at
    // least one query, and together exactly the A&R total.
    let per_dev: Vec<u64> = stats.devices.iter().map(|d| d.queries).collect();
    assert!(
        per_dev.iter().all(|&q| q > 0),
        "placement must use both devices: {per_dev:?}"
    );
    assert_eq!(
        per_dev.iter().sum::<u64>(),
        (ROUNDS * QUERIES.len()) as u64,
        "every A&R query ran on exactly one device"
    );
    // Per-device ledgers accumulated each card's share.
    for d in &stats.devices {
        assert!(d.breakdown.device > 0.0, "{d:?}");
    }
}

#[test]
fn underestimate_requeues_gracefully_and_stays_bit_identical() {
    let (ref_db, ref_plans) = build_db(1);
    let reference: Vec<QueryResult> = ref_plans
        .iter()
        .map(|p| ref_db.run_bound(p, ExecMode::ApproxRefine).unwrap())
        .collect();

    let (db, plans) = build_db(2);
    let db = Arc::new(db);
    // A deliberately tiny safety factor: the statistics-based reservation
    // collapses to (roughly) the fixed scratch, so every query's actual
    // candidate footprint exceeds its budget and must take the
    // OOM → release permit → inflate to worst case → re-queue path.
    let sched = Scheduler::new(
        Arc::clone(&db),
        SchedConfig {
            workers: 4,
            safety_factor: 1e-6,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let tickets: Vec<(usize, _)> = (0..3)
        .flat_map(|_| {
            plans
                .iter()
                .enumerate()
                .map(|(pi, p)| (pi, session.submit(p.clone(), ExecMode::ApproxRefine)))
                .collect::<Vec<_>>()
        })
        .collect();
    let total = tickets.len() as u64;

    // (d) every query completes without a visible error, bit-identically.
    for (pi, t) in tickets {
        let got = t.wait().unwrap();
        assert_identical(&got, &reference[pi], &format!("requeued plan {pi}"));
    }

    let stats = sched.stats();
    assert_eq!(stats.errors, 0, "re-queue must not surface errors");
    assert_eq!(
        stats.admission_requeues, total,
        "every query must have taken the underestimate path exactly once"
    );
    // The card was never oversubscribed despite the double admission.
    for d in &stats.devices {
        assert!(d.peak_bytes <= d.capacity_bytes, "{d:?}");
    }
    assert_eq!(stats.devices.iter().map(|d| d.queries).sum::<u64>(), total);
}

#[test]
fn single_device_pool_matches_run_bound_exactly() {
    // The degenerate pool: scheduling through placement + statistics
    // admission must not perturb the single-card path at all.
    let (db, plans) = build_db(1);
    let reference: Vec<QueryResult> = plans
        .iter()
        .map(|p| db.run_bound(p, ExecMode::ApproxRefine).unwrap())
        .collect();
    let sched = Scheduler::new(Arc::new(db), SchedConfig::default());
    let session = sched.session();
    for (pi, p) in plans.iter().enumerate() {
        let got = session.query(p, ExecMode::ApproxRefine).unwrap();
        assert_identical(&got, &reference[pi], &format!("plan {pi}"));
    }
    let stats = sched.stats();
    assert_eq!(stats.devices.len(), 1);
    assert_eq!(stats.admission_requeues, 0);
    assert_eq!(stats.errors, 0);
}
