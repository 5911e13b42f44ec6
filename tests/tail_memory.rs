//! The guard behind the streaming query tail: no query may hold anything
//! sized by its candidates or survivors again — not a survivors × columns
//! block, and not an oid list, id vector or survivor copy either.
//!
//! One test, alone in its binary (the high-water mark is per process):
//! a 2 M-row, 6-column grouped aggregate that keeps 98 % of the rows, in
//! both pipes, and the same aggregate without a selection; the rise of
//! `VmHWM` over the resident set just before each query stays under
//! 12 MiB. What legitimately remains per query is one bit per fact row
//! (candidates, undecided, 0.25 MB each), O(undecided) lists and O(slice)
//! buffers — about 4 MiB classic, 6 MiB A&R. The list-shaped seam this
//! replaced held a 4 B oid per candidate and per survivor and a 4 B group
//! id per candidate on top (+15 MiB classic, +25 MiB A&R at this size,
//! +15 MiB A&R for the unfiltered plan's `0..n` list and its ids); the
//! column-major tail before it six 16 MB payload columns. Linux-only, and
//! skipped where `/proc/self/clear_refs` cannot reset the high-water mark.

#![cfg(target_os = "linux")]

use waste_not::core::plan::{AggExpr, AggFunc, BinOp, LogicalPlan, Predicate, ScalarExpr as E};
use waste_not::engine::Database;
use waste_not::storage::Column;
use waste_not::{ExecMode, Value};

const ROWS: i32 = 2_000_000;
const LIMIT_MIB: f64 = 12.0;

/// A `/proc/self/status` field in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with(field)).unwrap();
    let kib: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib / 1024.0
}

#[test]
fn a_grouped_aggregate_holds_no_survivors_by_columns_block() {
    // "5" resets the peak RSS to the current RSS (Linux ≥ 4.0).
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("skipped: /proc/self/clear_refs is not writable");
        return;
    }
    let col = |f: fn(i32) -> i32| Column::from_i32((0..ROWS).map(f).collect());
    let mut db = Database::new();
    let columns = vec![
        ("k".into(), col(|i| (i as i64 * 7919 % ROWS as i64) as i32)),
        ("g".into(), col(|i| i % 3)),
        ("h".into(), col(|i| i % 2)),
        ("q".into(), col(|i| i % 50 + 1)),
        ("p".into(), col(|i| i % 90_000 + 900)),
        ("d".into(), col(|i| i % 11)),
        ("t".into(), col(|i| i % 9)),
    ];
    db.create_table("f", columns).unwrap();
    let net = E::col("p").binary(
        BinOp::Mul,
        E::Literal(Value::Int(100)).binary(BinOp::Sub, E::col("d")),
    );
    let gross = net.clone().binary(
        BinOp::Mul,
        E::Literal(Value::Int(100)).binary(BinOp::Add, E::col("t")),
    );
    let agg = |func, arg: Option<E>, alias: &str| AggExpr {
        func,
        arg,
        alias: alias.into(),
    };
    let aggs = vec![
        agg(AggFunc::Sum, Some(E::col("q")), "sum_q"),
        agg(AggFunc::Sum, Some(net), "net"),
        agg(AggFunc::Sum, Some(gross), "gross"),
        agg(AggFunc::Avg, Some(E::col("p")), "avg_p"),
        agg(AggFunc::Count, None, "n"),
    ];
    // Keeps 98 % of the rows (the Q1 shape); `k` keeps a residual on the
    // host, so A&R refines — the other six columns are device-resident.
    let group_by = || vec!["g".into(), "h".into()];
    let filtered = LogicalPlan::scan("f")
        .filter(Predicate::Between {
            column: "k".into(),
            lo: Value::Int(0),
            hi: Value::Int(ROWS as i64 * 98 / 100),
        })
        .aggregate(group_by(), aggs.clone());
    let unfiltered = LogicalPlan::scan("f").aggregate(group_by(), aggs);
    let filtered = db.bind(&filtered, &Default::default()).unwrap();
    let unfiltered = db.bind(&unfiltered, &Default::default()).unwrap();
    db.bwdecompose("f", "k", 24).unwrap();
    db.auto_bind(&filtered).unwrap();

    for (name, plan) in [("98 %", &filtered), ("every row", &unfiltered)] {
        let mut rows = Vec::new();
        for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
            std::fs::write("/proc/self/clear_refs", "5").unwrap();
            let before = status_mib("VmRSS:");
            let result = db.run_bound(plan, mode.clone()).unwrap();
            let rise = status_mib("VmHWM:") - before;
            eprintln!("{name}, {mode:?}: peak RSS +{rise:.1} MiB over {before:.1} MiB");
            assert_eq!(result.rows.len(), 6);
            assert!(
                rise < LIMIT_MIB,
                "{name}, {mode:?}: peak RSS rose {rise:.1} MiB over the pre-query {before:.1} MiB \
                 (limit {LIMIT_MIB} MiB) — is something sized by the candidates or survivors?"
            );
            rows.push(result.rows);
        }
        assert_eq!(rows[0], rows[1], "{name}: classic vs A&R");
    }
}
