//! EXPLAIN ANALYZE live — trace one A&R query from submit to resolve.
//!
//! Builds a decomposed table, serves it through the scheduler with
//! tracing enabled, and prints the per-phase wall/simulated-time tree a
//! traced ticket carries, writes the same trace as Chrome `trace_event`
//! JSON (load it in `chrome://tracing` or Perfetto), and prints the
//! scheduler's Prometheus-style metrics snapshot.
//!
//! ```text
//! cargo run --release --example explain_analyze
//! ```

use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate};
use waste_not::engine::ExecMode;
use waste_not::obs::chrome::chrome_trace;
use waste_not::sched::{SchedConfig, SubmitOptions};
use waste_not::storage::Column;
use waste_not::{BwdError, Db, Result, Value};

fn main() -> Result<()> {
    let mut db = Db::new();
    let n = 2_000_000;
    db.create_table(
        "t",
        vec![
            (
                "a".into(),
                Column::from_i32((0..n).map(|i| i % 100_000).collect()),
            ),
            (
                "g".into(),
                Column::from_i32((0..n).map(|i| (i * 7) % 32).collect()),
            ),
        ],
    )?;
    db.sql("select bwdecompose(a, 24) from t")?;
    db.sql("select bwdecompose(g, 24) from t")?;

    let plan = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(10_000),
            hi: Value::Int(29_999),
        })
        .aggregate(
            vec!["g".into()],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "n".into(),
            }],
        );
    let ar = db.bind(&plan, &Default::default())?;
    db.auto_bind(&ar)?;

    let server = db.serve_with(SchedConfig {
        workers: 2,
        tracing: true,
        max_morsels: 4,
        ..SchedConfig::default()
    });
    let session = server.session();
    let (result, report, trace) = session
        .submit_with(
            ar,
            ExecMode::ApproxRefine,
            SubmitOptions {
                host_threads: Some(4),
                ..SubmitOptions::default()
            },
        )
        .wait_traced()?;

    println!(
        "rows = {}, simulated cost = {:.3} ms",
        result.rows.len(),
        result.breakdown.total() * 1e3
    );
    println!("exec wall = {:.3} ms\n", report.exec.as_secs_f64() * 1e3);
    println!("{}", trace.explain());
    let path = std::env::temp_dir().join("explain_analyze.trace.json");
    let json = chrome_trace(&[("explain_analyze".to_string(), trace)]);
    std::fs::write(&path, json).map_err(|e| BwdError::Exec(e.to_string()))?;
    println!("Chrome trace_event JSON: {}\n", path.display());
    println!("{}", server.metrics_snapshot());
    Ok(())
}
