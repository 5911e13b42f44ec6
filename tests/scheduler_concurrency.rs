//! Concurrency correctness of `bwd-sched`: the TPC-H subset through the
//! scheduler with many concurrent sessions in mixed execution modes must
//! be bit-identical to the serial run, and concurrent device reservations
//! must never exceed the card's capacity.

use std::sync::Arc;
use std::time::Duration;

use bwd_bench::workload::{WorkloadGen, WorkloadSpec};
use waste_not::core::plan::ArPlan;
use waste_not::data::{gen_lineitem, gen_part, TpchConfig};
use waste_not::device::DeviceSpec;
use waste_not::engine::{ArExecOptions, Database, ExecMode};
use waste_not::sched::{SchedConfig, Scheduler, SubmitOptions};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::Column;
use waste_not::{Env, Value};

#[path = "support/gate.rs"]
mod gate;
use gate::Gate;

const SF: f64 = 0.01;

const Q6: &str = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
     where l_shipdate >= date '1994-01-01' \
     and l_shipdate < date '1994-01-01' + interval '1' year \
     and l_discount between 0.05 and 0.07 and l_quantity < 24";

const Q1: &str = "select l_returnflag, l_linestatus, sum(l_quantity) as sq, \
     sum(l_extendedprice * (1 - l_discount)) as sd, \
     avg(l_discount) as ad, count(*) as n \
     from lineitem \
     where l_shipdate <= date '1998-12-01' - interval '90' day \
     group by l_returnflag, l_linestatus";

const Q14: &str = "select \
     sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) as promo, \
     sum(l_extendedprice * (1 - l_discount)) as total \
     from lineitem, part where l_partkey = p_partkey \
     and l_shipdate >= date '1995-09-01' \
     and l_shipdate < date '1995-09-01' + interval '1' month";

fn tpch() -> Database {
    let cfg = TpchConfig::scale(SF);
    let mut db = Database::new();
    db.create_table("lineitem", gen_lineitem(&cfg).into_columns())
        .unwrap();
    db.create_table("part", gen_part(&cfg).into_columns())
        .unwrap();
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
        .unwrap();
    db
}

fn bind_sql(db: &Database, sql: &str) -> ArPlan {
    let stmt = parse(sql).unwrap();
    let BoundStatement::Query(logical) = bind(&stmt, db.catalog()).unwrap() else {
        panic!("not a query")
    };
    db.bind(&logical, &Default::default()).unwrap()
}

#[test]
fn eight_plus_concurrent_sessions_mixed_modes_bit_identical() {
    let mut db = tpch();
    // Bind the workload; mix configurations: Q6's columns fully
    // device-resident, shipdate then re-decomposed space-constrained so
    // A&R refinement exercises shared host residuals concurrently.
    let plans: Vec<ArPlan> = [Q6, Q1, Q14].iter().map(|q| bind_sql(&db, q)).collect();
    for plan in &plans {
        db.auto_bind(plan).unwrap();
    }
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    db.bwdecompose("lineitem", "l_quantity", 28).unwrap();

    // Serial reference: every (plan, mode) combination once.
    let modes: Vec<ExecMode> = vec![
        ExecMode::Classic,
        ExecMode::ApproxRefine,
        ExecMode::ApproxRefineWith(ArExecOptions {
            approximate_answer: true,
        }),
    ];
    let reference: Vec<Vec<Vec<Vec<Value>>>> = plans
        .iter()
        .map(|p| {
            modes
                .iter()
                .map(|m| db.run_bound(p, m.clone()).unwrap().rows)
                .collect()
        })
        .collect();

    // Serve and hammer: 10 sessions on 8 workers, each session running
    // every (plan, mode) combination twice in its own thread.
    let sched = Scheduler::new(
        Arc::new(db),
        SchedConfig {
            workers: 8,
            ..SchedConfig::default()
        },
    );
    const SESSIONS: usize = 10;
    const ROUNDS: usize = 2;
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let session = sched.session();
            let plans = &plans;
            let modes = &modes;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for (pi, plan) in plans.iter().enumerate() {
                        // Stagger the starting mode per session and round.
                        for mi in 0..modes.len() {
                            let mode = modes[(mi + s + round) % modes.len()].clone();
                            let want = &reference[pi][(mi + s + round) % modes.len()];
                            let got = session.query(plan, mode).unwrap();
                            assert_eq!(&got.rows, want, "session {s} plan {pi}");
                        }
                    }
                }
            });
        }
    });

    let stats = sched.stats();
    let total = (SESSIONS * ROUNDS * plans.len() * modes.len()) as u64;
    assert_eq!(stats.classic.queries + stats.approx_refine.queries, total);
    assert_eq!(stats.errors, 0);
    // The 2 GB card was never oversubscribed, mode streams both ran, and
    // per-stream simulated accounting accumulated.
    assert!(stats.device_peak_bytes <= stats.device_capacity_bytes);
    assert!(stats.classic.queries > 0 && stats.approx_refine.queries > 0);
    assert!(stats.classic.breakdown.host > 0.0);
    assert!(stats.approx_refine.breakdown.device > 0.0);
}

#[test]
fn admission_queues_and_never_exceeds_capacity() {
    // A deliberately tiny card: persistent data plus ONE query's working
    // set fit, two concurrent working sets do not.
    let n: i32 = 200_000;
    let env = Env::with_device(DeviceSpec::gtx680().with_capacity(4 << 20));
    let mut db = Database::with_env(env);
    db.create_table(
        "t",
        vec![(
            "a".into(),
            Column::from_i32((0..n).map(|i| i % 10_000).collect()),
        )],
    )
    .unwrap();
    let plan = bind_sql(&db, "select count(*) from t where a between 100 and 999");
    db.auto_bind(&plan).unwrap();
    let expected = db
        .run_bound(&plan, ExecMode::ApproxRefine)
        .unwrap()
        .rows
        .clone();

    let estimate = waste_not::sched::PlanFootprint::of(&db, &plan, &ExecMode::ApproxRefine, 1)
        .worst_case_bytes();
    let mem = db.env().device.memory().clone();
    let capacity = mem.capacity();
    assert!(
        mem.used() + estimate <= capacity,
        "one query must fit: used {} + est {estimate} vs {capacity}",
        mem.used()
    );
    assert!(
        mem.used() + 2 * estimate > capacity,
        "two queries must NOT fit concurrently: est {estimate} vs {capacity}"
    );

    let sched = Scheduler::new(
        Arc::new(db),
        SchedConfig {
            workers: 4,
            admission_deadline: Some(Duration::from_secs(30)),
            ..SchedConfig::default()
        },
    );

    // Deterministic queueing, via the scheduler test harness: the gate
    // reserves every free byte of the card so the submitted query *must*
    // block inside admission (waiting on state, not on time), then
    // releases and the query finishes.
    let gate = Gate::block(sched.database(), 0).unwrap();
    let session = sched.session();
    let ticket = session.submit(plan.clone(), ExecMode::ApproxRefine);
    gate.wait_admission_blocked(1);
    assert!(
        ticket.poll_report().is_none(),
        "query must be queued, not failed"
    );
    gate.release();
    assert_eq!(ticket.wait().unwrap().rows, expected);

    // Stress: 12 more A&R queries race for a card that admits one at a
    // time. All must succeed, bit-identically, without ever exceeding
    // capacity.
    let tickets: Vec<_> = (0..12)
        .map(|_| {
            session.submit_with(
                plan.clone(),
                ExecMode::ApproxRefine,
                SubmitOptions::default(),
            )
        })
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().rows, expected);
    }

    let stats = sched.stats();
    assert_eq!(stats.errors, 0);
    assert!(stats.admission_waits >= 1, "queueing must have occurred");
    assert!(
        stats.device_peak_bytes <= capacity,
        "peak {} exceeded capacity {capacity}",
        stats.device_peak_bytes
    );
}

#[test]
fn serve_facade_end_to_end() {
    use waste_not::Db;

    let mut db = Db::new();
    db.create_table(
        "r",
        vec![("a".into(), Column::from_i32((0..5000).collect()))],
    )
    .unwrap();
    db.sql("select bwdecompose(a, 24) from r").unwrap();
    let server = db.serve();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = server.session();
            scope.spawn(move || {
                let classic = session
                    .submit_sql("select count(*) from r where a < 2500", ExecMode::Classic)
                    .and_then(|t| t.wait())
                    .unwrap();
                let ar = session
                    .submit_sql(
                        "select count(*) from r where a < 2500",
                        ExecMode::ApproxRefine,
                    )
                    .and_then(|t| t.wait())
                    .unwrap();
                assert_eq!(classic.rows, ar.rows);
                assert_eq!(classic.rows[0][0], Value::Int(2500));
            });
        }
    });
    assert_eq!(server.stats().errors, 0);
}

#[test]
fn gate_freezes_a_worker_on_a_multi_device_pool_when_pinned() {
    // Regression: on a 2-card pool the least-loaded policy would
    // route an unpinned gate job to the ungated card; the pinned
    // submit options keep the freeze pattern sound on any pool.
    let spec = WorkloadSpec {
        long_rows: 8_000,
        short_rows: 2_000,
        ..WorkloadSpec::default()
    };
    let mut gen = WorkloadGen::with_env(
        5,
        spec,
        Env::with_devices(vec![waste_not::device::DeviceSpec::gtx680(); 2]),
    )
    .unwrap();
    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let gate = Gate::block(gen.db(), 0).unwrap();
    let job = gen.short();
    let ticket = session.submit_with(job.plan, job.mode, gate.submit_options());
    gate.wait_admission_blocked(1); // provably frozen on device 0
    assert!(ticket.poll_report().is_none());
    gate.release();
    assert_eq!(ticket.wait().unwrap().rows.len(), 1);
}

#[test]
fn gate_blocks_and_releases() {
    let gen = WorkloadGen::new(
        9,
        WorkloadSpec {
            long_rows: 4_000,
            short_rows: 1_000,
            ..WorkloadSpec::default()
        },
    )
    .unwrap();
    let gate = Gate::block(gen.db(), 0).unwrap();
    let mem = gen.db().env().device.memory().clone();
    assert_eq!(mem.available(), 0);
    assert_eq!(mem.queued(), 0);
    gate.release();
    assert!(mem.available() > 0);
}
