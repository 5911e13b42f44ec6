//! Tracing is invisible to execution: in both queue orders, a query's rows, simulated cost breakdown and
//! per-component traffic are bit-identical whether the recorder is on
//! or off. Observability must never perturb the system it observes.

use std::sync::Arc;
use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate};
use waste_not::engine::{Database, ExecMode, QueryResult};
use waste_not::sched::{SchedConfig, Scheduler, SubmitOptions};
use waste_not::storage::Column;
use waste_not::Value;

#[path = "support/trace_check.rs"]
mod trace_check;

fn served_db() -> (Arc<Database>, waste_not::core::plan::ArPlan) {
    let mut db = Database::new();
    let n = 40_000;
    db.create_table(
        "t",
        vec![
            (
                "a".into(),
                Column::from_i32((0..n).map(|i| i % 10_000).collect()),
            ),
            (
                "g".into(),
                Column::from_i32((0..n).map(|i| (i * 3) % 8).collect()),
            ),
        ],
    )
    .unwrap();
    db.bwdecompose("t", "a", 24).unwrap();
    db.bwdecompose("t", "g", 24).unwrap();
    let plan = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(500),
            hi: Value::Int(2499),
        })
        .aggregate(
            vec!["g".into()],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "n".into(),
            }],
        );
    let ar = db.bind(&plan, &Default::default()).unwrap();
    db.auto_bind(&ar).unwrap();
    (Arc::new(db), ar)
}

fn run_one(
    db: &Arc<Database>,
    plan: &waste_not::core::plan::ArPlan,
    aging_threshold: u32,
    tracing: bool,
) -> QueryResult {
    let sched = Scheduler::new(
        Arc::clone(db),
        SchedConfig {
            workers: 1,
            aging_threshold,
            tracing,
            max_morsels: 2,
            ..SchedConfig::default()
        },
    );
    let (result, report) = sched
        .session()
        .submit_with(
            plan.clone(),
            ExecMode::ApproxRefine,
            SubmitOptions {
                host_threads: Some(2),
                ..SubmitOptions::default()
            },
        )
        .wait_report()
        .unwrap();
    assert_eq!(report.trace.is_some(), tracing);
    if let Some(trace) = &report.trace {
        trace_check::validate(trace).expect("trace validation");
    }
    result
}

#[test]
fn tracing_is_bit_identical_across_policies() {
    let (db, plan) = served_db();
    // The default order, and arrival order.
    for aging_threshold in [32, 0] {
        let off = run_one(&db, &plan, aging_threshold, false);
        let on = run_one(&db, &plan, aging_threshold, true);
        let tag = format!("aging {aging_threshold}");
        assert_eq!(on.rows, off.rows, "{tag}: rows diverged");
        assert_eq!(
            on.breakdown, off.breakdown,
            "{tag}: simulated cost diverged under tracing"
        );
        assert_eq!(
            on.traffic, off.traffic,
            "{tag}: traffic diverged under tracing"
        );
        assert_eq!(on.survivors, off.survivors);
    }
}

#[test]
fn classic_pipe_is_bit_identical_under_tracing() {
    let (db, plan) = served_db();
    let run = |tracing: bool| {
        let sched = Scheduler::new(
            Arc::clone(&db),
            SchedConfig {
                workers: 1,
                tracing,
                ..SchedConfig::default()
            },
        );
        sched
            .session()
            .submit(plan.clone(), ExecMode::Classic)
            .wait()
            .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(on.rows, off.rows);
    assert_eq!(on.breakdown, off.breakdown);
    assert_eq!(on.traffic, off.traffic);
}
