//! The packed-domain selection paths are **bit-identical** to the classic
//! scalar/index paths through the whole A&R executor: for every candidate
//! representation ([`CandidateRep`] Auto / Indices / Bitmap) and every
//! morsel count in {1, 2, 8}, the same plans produce the same rows, the
//! same survivor counts, the same PCI-E traffic and the same simulated
//! component costs. The SWAR word-parallel compare and the bitmap
//! candidates buy wall-clock only (the benchmark's
//! `kernels.select_range_ns_per_row` and `storage.mask_fill_ns_per_row`
//! measure how much); this test proves they buy nothing else.

use waste_not::core::plan::ScalarExpr as E;
use waste_not::core::plan::{AggExpr, AggFunc, ArPlan, BinOp, LogicalPlan, Predicate};
use waste_not::data::{gen_lineitem, gen_part, micro, TpchConfig};
use waste_not::engine::{run_ar_in, ArExecOptions, CandidateRep, Database, ExecMode};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::Column;
use waste_not::Value;

const MORSELS: [usize; 3] = [1, 2, 8];
const REPS: [CandidateRep; 3] = [
    CandidateRep::Indices,
    CandidateRep::Bitmap,
    CandidateRep::Auto,
];

/// The A&R executor over `plan`'s chain in the order it is bound in (a
/// `Database::run*` entry point would run the order its bill prices
/// cheapest; the Q14-shaped test pins its own).
fn run(
    db: &Database,
    plan: &ArPlan,
    rep: CandidateRep,
    morsels: usize,
) -> waste_not::engine::QueryResult {
    let opts = ArExecOptions {
        candidates: rep,
        ..Default::default()
    };
    run_ar_in(db, plan, &opts, db.env(), morsels).unwrap()
}

/// Every (representation, morsels) cell against the serial index run.
fn assert_rep_bit_identical(db: &Database, plan: &ArPlan, what: &str) {
    let baseline = run(db, plan, CandidateRep::Indices, 1);
    assert!(!baseline.rows.is_empty(), "{what}: degenerate plan");
    for rep in REPS {
        for m in MORSELS {
            let r = run(db, plan, rep, m);
            assert_eq!(baseline.rows, r.rows, "{what}: rows @ {rep:?} morsels={m}");
            assert_eq!(
                baseline.survivors, r.survivors,
                "{what}: survivors @ {rep:?} morsels={m}"
            );
            assert_eq!(
                baseline.breakdown, r.breakdown,
                "{what}: simulated costs @ {rep:?} morsels={m}"
            );
            assert_eq!(
                baseline.traffic, r.traffic,
                "{what}: traffic @ {rep:?} morsels={m}"
            );
        }
    }
    // And the classic pipe agrees on the answer itself.
    let classic = db.run_bound(plan, ExecMode::Classic).unwrap();
    assert_eq!(baseline.rows, classic.rows, "{what}: A&R vs classic");
}

fn micro_db(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![
            ("a".into(), micro::unique_shuffled_column(n, 0x5E1EC7)),
            ("g".into(), micro::grouping_keys_column(n, 32, 0xB17)),
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

/// One dense selection (≈ 50%: Auto picks the bitmap, the chain refines
/// through the host residual pipeline) with grouped aggregation.
#[test]
fn dense_selection_identical_across_reps_and_morsels() {
    let n = 60_000;
    let db = micro_db(n);
    let logical = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(1_000),
            hi: Value::Int(n as i64 / 2),
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
                    arg: Some(E::col("v").binary(BinOp::Mul, E::lit(3i64))),
                    alias: "s".into(),
                },
            ],
        );
    assert_rep_bit_identical(&db, &bind_plan(&db, &logical), "dense grouped agg");
}

/// A chained pair of direct selections: the bitmap path AND-refines the
/// second predicate over the first's mask; the survivors and their
/// block-scrambled emission order must match the index chain exactly.
#[test]
fn chained_selections_identical_across_reps_and_morsels() {
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
    assert_rep_bit_identical(&db, &bind_plan(&db, &logical), "chained selections");
}

/// A sparse selection (≈ 0.7%: Auto stays on indices) — the adaptive
/// policy's other arm, plus the forced-bitmap path on a sparse mask.
#[test]
fn sparse_selection_identical_across_reps_and_morsels() {
    let n = 60_000;
    let db = micro_db(n);
    let logical = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(100),
            hi: Value::Int(500),
        })
        .aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(E::col("v")),
                alias: "s".into(),
            }],
        );
    assert_rep_bit_identical(&db, &bind_plan(&db, &logical), "sparse selection");
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

/// Q6: multi-predicate fact-only chain, both all-resident (device fast
/// path — intermediate bitmaps never materialize at all) and
/// space-constrained (full host refinement over the converted lists).
#[test]
fn tpch_q6_identical_across_reps_resident_and_distributed() {
    let mut db = tpch_db();
    let plan = bind_sql(
        &db,
        "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= date '1994-01-01' \
         and l_shipdate < date '1994-01-01' + interval '1' year \
         and l_discount between 0.05 and 0.07 and l_quantity < 24",
    );
    db.auto_bind(&plan).unwrap();
    assert_rep_bit_identical(&db, &plan, "Q6 all-resident");
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    assert_rep_bit_identical(&db, &plan, "Q6 space-constrained");
}

/// A Q14-shaped join where an FK-joined *dimension* predicate follows a
/// dense fact predicate in the approximate chain: the dimension step
/// AND-refines the running bitmap *in place* (testing `arr[link[row]]`
/// per live bit — no bitmap→indices round-trip at the indirect
/// boundary), and refinement consumes the dim selection's mask directly.
/// All of it must stay bit-identical to the index chain.
#[test]
fn tpch_q14_dim_predicate_identical_across_reps() {
    let mut db = tpch_db();
    let mut plan = bind_sql(
        &db,
        "select count(*) as promo, sum(l_extendedprice * (1 - l_discount)) as rev \
         from lineitem, part where l_partkey = p_partkey \
         and l_shipdate >= date '1995-01-01' \
         and l_shipdate < date '1995-01-01' + interval '1' year \
         and p_type like 'PROMO%'",
    );
    // Pin the chain order: the dense fact predicate first (a bitmap
    // under Auto/Bitmap policy), the dimension predicate second — the
    // order that exercises the indirect AND-refinement of a running
    // bitmap.
    plan.selections
        .sort_by_key(|s| usize::from(s.column.contains('.')));
    assert!(
        !plan.selections[0].column.contains('.')
            && plan.selections.last().unwrap().column.contains('.'),
        "plan shape: fact predicates then the dim predicate"
    );
    db.auto_bind(&plan).unwrap();
    assert_rep_bit_identical(&db, &plan, "Q14-shaped all-resident");
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    db.bwdecompose("part", "p_type", 4).unwrap();
    assert_rep_bit_identical(&db, &plan, "Q14-shaped space-constrained");
}
