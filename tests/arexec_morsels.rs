//! Morsel-parallel A&R execution is **bit-identical** to serial: for every
//! morsel count, A&R plans over the micro and TPC-H generators produce the
//! same rows, the same survivor counts, the same PCI-E traffic and the
//! same simulated component costs — real-thread fan-out buys wall-clock
//! only (mirrors `morsel_run_is_bit_identical_to_serial` on the classic
//! pipe).

use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate, ScalarExpr as E};
use waste_not::core::plan::{ArPlan, BinOp};
use waste_not::data::{gen_lineitem, gen_part, micro, TpchConfig};
use waste_not::engine::{Database, ExecMode};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::Column;
use waste_not::Value;

const MORSELS: [usize; 5] = [1, 2, 3, 8, 64];

fn assert_bit_identical(db: &Database, plan: &ArPlan, what: &str) {
    let serial = db
        .run_bound_in(plan, ExecMode::ApproxRefine, db.env(), 1, None)
        .unwrap();
    assert!(!serial.rows.is_empty(), "{what}: degenerate plan");
    for m in MORSELS {
        let parallel = db
            .run_bound_in(plan, ExecMode::ApproxRefine, db.env(), m, None)
            .unwrap();
        assert_eq!(serial.rows, parallel.rows, "{what}: rows @ morsels={m}");
        assert_eq!(
            serial.survivors, parallel.survivors,
            "{what}: survivors @ morsels={m}"
        );
        // The simulated cost model must be independent of real parallelism.
        assert_eq!(
            serial.breakdown, parallel.breakdown,
            "{what}: simulated costs @ morsels={m}"
        );
        assert_eq!(
            serial.traffic, parallel.traffic,
            "{what}: traffic @ morsels={m}"
        );
    }
    // And the classic pipe agrees on the answer itself.
    let classic = db.run_bound(plan, ExecMode::Classic).unwrap();
    assert_eq!(serial.rows, classic.rows, "{what}: A&R vs classic");
}

/// A column of `i32`s.
fn ints(vals: Vec<i64>) -> Column {
    Column::from_i32(vals.into_iter().map(|v| v as i32).collect())
}

/// Micro table large enough that every stage really partitions: shuffled
/// unique ints (selection), a low-cardinality group key, and a value
/// column, decomposed with 8 residual bits so the full host refinement
/// path (refine → project → group → aggregate) runs.
fn micro_db(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![
            ("a".into(), ints(micro::unique_shuffled(n, 0xA11CE))),
            ("g".into(), ints(micro::grouping_keys(n, 32, 0xBEEF))),
            (
                "v".into(),
                Column::from_i32((0..n as i32).map(|i| (i * 13) % 9973).collect()),
            ),
        ],
    )
    .unwrap();
    db.bwdecompose("t", "a", 24).unwrap();
    db.bwdecompose("t", "g", 24).unwrap();
    db.bwdecompose("t", "v", 24).unwrap();
    db
}

fn bind_plan(db: &Database, logical: &LogicalPlan) -> ArPlan {
    db.bind(logical, &Default::default()).unwrap()
}

#[test]
fn micro_selection_aggregation_identical_across_morsels() {
    let n = 60_000;
    let db = micro_db(n);
    let logical = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(1_000),
            hi: Value::Int(n as i64 / 5),
        })
        .aggregate(
            vec!["g".into()],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(E::col("v").binary(BinOp::Mul, E::Literal(Value::Int(3)))),
                    alias: "s".into(),
                },
            ],
        );
    assert_bit_identical(&db, &bind_plan(&db, &logical), "micro grouped agg");
}

#[test]
fn micro_chained_selections_identical_across_morsels() {
    let n = 60_000;
    let db = micro_db(n);
    let logical = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(0),
            hi: Value::Int(n as i64 / 2),
        })
        .filter(Predicate::Between {
            column: "v".into(),
            lo: Value::Int(100),
            hi: Value::Int(7_000),
        })
        .aggregate(
            vec![],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Min,
                    arg: Some(E::col("a")),
                    alias: "lo".into(),
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(E::col("a")),
                    alias: "hi".into(),
                },
            ],
        );
    assert_bit_identical(&db, &bind_plan(&db, &logical), "micro chained selections");
}

fn tpch_db() -> Database {
    let cfg = TpchConfig::scale(0.02);
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
        panic!("not a query");
    };
    db.bind(&logical, &Default::default()).unwrap()
}

#[test]
fn tpch_q6_identical_across_morsels_resident_and_distributed() {
    let mut db = tpch_db();
    let plan = bind_sql(
        &db,
        "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= date '1994-01-01' \
         and l_shipdate < date '1994-01-01' + interval '1' year \
         and l_discount between 0.05 and 0.07 and l_quantity < 24",
    );
    // All-GPU configuration (device fast path, no refinement at all).
    db.auto_bind(&plan).unwrap();
    assert_bit_identical(&db, &plan, "Q6 all-resident");
    // Space-constrained: 8 residual bits on the host for the selection
    // column, which forces the full host refinement pipeline.
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    assert_bit_identical(&db, &plan, "Q6 space-constrained");
}

#[test]
fn tpch_q14_fk_join_identical_across_morsels() {
    let mut db = tpch_db();
    let plan = bind_sql(
        &db,
        "select \
         sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) \
           as promo_revenue, \
         sum(l_extendedprice * (1 - l_discount)) as total_revenue \
         from lineitem, part where l_partkey = p_partkey \
         and l_shipdate >= date '1995-09-01' \
         and l_shipdate < date '1995-09-01' + interval '1' month",
    );
    db.auto_bind(&plan).unwrap();
    // Distribute both a fact and the dimension column so the FK-indirect
    // refinement (dimension residual through the FK link) runs too.
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    db.bwdecompose("part", "p_type", 4).unwrap();
    assert_bit_identical(&db, &plan, "Q14 fk join");
}
