//! The candidate representation is wall clock only. A full-scan step of
//! the approximate chain materializes the positional bitmap where its
//! relaxed range's estimated selectivity reaches
//! [`BITMAP_MIN_SELECTIVITY`] and an index list below it; a chained step
//! keeps its input's representation. Over predicates on either side of
//! the switch and one stored value either side of it, chained fact-side
//! and through the FK link, at morsels {1, 2, 8}: each run's
//! `ApproxSelect` spans carry the representation the rule picks (so both
//! occur), its rows, survivors, simulated costs and traffic equal the
//! 1-morsel run's, and its rows equal Classic's. The SWAR compare and the
//! bitmap buy wall clock only (the benchmark's
//! `kernels.select_range_ns_per_row` and `storage.mask_fill_ns_per_row`
//! measure how much); this test proves they buy nothing else.

use waste_not::core::plan::ScalarExpr as E;
use waste_not::core::plan::{AggExpr, AggFunc, ArPlan, BinOp, LogicalPlan, Predicate};
use waste_not::data::{gen_lineitem, gen_part, micro, TpchConfig};
use waste_not::engine::{Database, ExecMode, QueryResult, BITMAP_MIN_SELECTIVITY};
use waste_not::obs::{EventKind, Phase, QueryTrace, Recorder, TraceCtx, NO_SPAN};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::Column;
use waste_not::Value;

/// The representation an `ApproxSelect` span reports (its `End`'s last
/// payload word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    Indices = 0,
    Bitmap = 1,
}

/// The plan through the bill's pick on `morsels` workers, traced: the
/// result and the representation of every approximate selection step.
fn traced_run(db: &Database, plan: &ArPlan, morsels: usize) -> (QueryResult, Vec<u64>) {
    let recorder = Recorder::enabled();
    let mut env = db.env().clone();
    env.trace = TraceCtx::new(recorder.clone(), NO_SPAN, "query");
    let result = db
        .run_bound_in(plan, ExecMode::ApproxRefine, &env, morsels, None)
        .unwrap();
    let steps = QueryTrace::capture(&recorder).events.into_iter();
    let reps = steps.filter(|e| e.kind == EventKind::ApproxSelect && e.phase == Phase::End);
    (result, reps.map(|e| e.d).collect())
}

/// Every step of every morsel count runs in `rep`, and every run equals
/// the serial one; the serial rows are Classic's.
fn assert_reps_agree(db: &Database, plan: &ArPlan, rep: Rep, what: &str) {
    let (serial, _) = traced_run(db, plan, 1);
    assert!(!serial.rows.is_empty(), "{what}: degenerate plan");
    for m in [1, 2, 8] {
        let (r, reps) = traced_run(db, plan, m);
        let tag = format!("{what} @ morsels={m}");
        assert_eq!(reps.len(), plan.selections.len(), "{tag}: one span a step");
        assert!(
            reps.iter().all(|&d| d == rep as u64),
            "{tag}: {reps:?}, not {rep:?}"
        );
        assert_eq!(serial.rows, r.rows, "{tag}: rows");
        assert_eq!(serial.survivors, r.survivors, "{tag}: survivors");
        assert_eq!(serial.breakdown, r.breakdown, "{tag}: simulated costs");
        assert_eq!(serial.traffic, r.traffic, "{tag}: traffic");
    }
    let classic = db.run_bound(plan, ExecMode::Classic).unwrap();
    assert_eq!(serial.rows, classic.rows, "{what}: A&R vs classic");
}

/// Rows of [`micro_db`]: past three simulated thread blocks, so a full
/// scan's candidates come out block-scrambled.
const N: i64 = 200_000;

/// A column of `i32`s.
fn ints(vals: Vec<i64>) -> Column {
    Column::from_i32(vals.into_iter().map(|v| v as i32).collect())
}

/// `t(a, g, v)`: `a` a shuffled permutation of `0..N`, `g` 32 group keys,
/// `v` = 13i mod 9973; each split 24/8.
fn micro_db() -> Database {
    let n = N as usize;
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![
            ("a".into(), ints(micro::unique_shuffled(n, 0x5E1EC7))),
            ("g".into(), ints(micro::grouping_keys(n, 32, 0xB17))),
            (
                "v".into(),
                Column::from_i32((0..n as i32).map(|i| (i * 13) % 9973).collect()),
            ),
        ],
    )
    .unwrap();
    for c in ["a", "g", "v"] {
        db.bwdecompose("t", c, 24).unwrap();
    }
    db
}

fn between(column: &str, lo: i64, hi: i64) -> Predicate {
    let (column, lo, hi) = (column.into(), Value::Int(lo), Value::Int(hi));
    Predicate::Between { column, lo, hi }
}

fn agg(func: AggFunc, arg: Option<E>, alias: &str) -> AggExpr {
    let alias = alias.into();
    AggExpr { func, arg, alias }
}

fn bind_plan(db: &Database, logical: &LogicalPlan) -> ArPlan {
    db.bind(logical, &Default::default()).unwrap()
}

/// `select g, count(*), sum(3v) from t where <preds> group by g`.
fn grouped(db: &Database, preds: Vec<Predicate>) -> ArPlan {
    let three_v = E::col("v").binary(BinOp::Mul, E::Literal(Value::Int(3)));
    let logical = LogicalPlan::scan("t")
        .filter(Predicate::And(preds))
        .aggregate(
            vec!["g".into()],
            vec![
                agg(AggFunc::Count, None, "n"),
                agg(AggFunc::Sum, Some(three_v), "s"),
            ],
        );
    bind_plan(db, &logical)
}

/// One dense selection (≈ 50 %) with grouped aggregation: the bitmap.
#[test]
fn dense_selection_identical_across_reps_and_morsels() {
    let db = micro_db();
    let plan = grouped(&db, vec![between("a", 1_000, N / 2)]);
    assert_reps_agree(&db, &plan, Rep::Bitmap, "dense grouped agg");
}

/// A sparse selection (≈ 0.2 %): the index list.
#[test]
fn sparse_selection_identical_across_reps_and_morsels() {
    let db = micro_db();
    let logical = LogicalPlan::scan("t")
        .filter(between("a", 100, 500))
        .aggregate(vec![], vec![agg(AggFunc::Sum, Some(E::col("v")), "s")]);
    assert_reps_agree(&db, &bind_plan(&db, &logical), Rep::Indices, "sparse");
}

/// Chained fact-side selections: under a dense first step the bitmap
/// path AND-refines the second predicate over the first's mask, under a
/// sparse one the index list filters; the survivors and their
/// block-scrambled order are the same at every morsel count.
#[test]
fn chained_selections_identical_across_reps_and_morsels() {
    let db = micro_db();
    let logical = |a_hi: i64| {
        let preds = vec![between("a", 0, a_hi), between("v", 100, 7_000)];
        LogicalPlan::scan("t")
            .filter(Predicate::And(preds))
            .aggregate(
                vec![],
                vec![
                    agg(AggFunc::Count, None, "n"),
                    agg(AggFunc::Min, Some(E::col("a")), "lo"),
                    agg(AggFunc::Max, Some(E::col("a")), "hi"),
                ],
            )
    };
    let dense = bind_plan(&db, &logical(N / 2));
    assert_reps_agree(&db, &dense, Rep::Bitmap, "dense chain");
    let sparse = bind_plan(&db, &logical(2_000));
    assert_reps_agree(&db, &sparse, Rep::Indices, "sparse chain");
}

/// At the switch: a full scan whose relaxed range spans one stored value
/// short of [`BITMAP_MIN_SELECTIVITY`] of the stored domain materializes
/// indices, one at it and one past it the bitmap. The ranges are cut
/// inside their first and last granule, so refinement runs.
#[test]
fn the_switch_is_at_its_boundary() {
    let db = micro_db();
    let a = db.catalog().table("t").unwrap().column("a").unwrap();
    // Split 24/8: a stored value is a granule of 2^8 payloads.
    let (width, granule) = (a.split().unwrap().approx().width(), 1i64 << 8);
    let at = (BITMAP_MIN_SELECTIVITY * (width as f64).exp2()).ceil() as i64;
    for (span, rep) in [
        (at - 1, Rep::Indices),
        (at, Rep::Bitmap),
        (at + 1, Rep::Bitmap),
    ] {
        let (lo, hi) = (10 * granule, (10 + span) * granule - 1);
        let plan = grouped(&db, vec![between("a", lo + 5, hi - 5)]);
        let what = format!("{span} of 2^{width} stored values");
        assert_reps_agree(&db, &plan, rep, &what);
    }
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

/// Q6: a multi-predicate fact-only chain, all-resident (the device fast
/// path) and space-constrained (host refinement).
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
    assert_reps_agree(&db, &plan, Rep::Bitmap, "Q6 all-resident");
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    assert_reps_agree(&db, &plan, Rep::Bitmap, "Q6 space-constrained");
}

/// Q14-shaped joins, where a *dimension* predicate is tested through the
/// FK link: over a year and a type prefix the bitmap (the dimension step
/// AND-refines the running mask per live bit, or scans through the link
/// into one), over a month and one type the index list while both columns
/// are resident. Split 24/8 and 4/4, the month and the type each cover
/// whole granules of a 4-bit approximation: the bitmap.
#[test]
fn tpch_q14_dim_predicate_identical_across_reps() {
    let mut db = tpch_db();
    let q14 = |interval: &str, p_type: &str| {
        bind_sql(
            &db,
            &format!(
                "select count(*) as promo, sum(l_extendedprice * (1 - l_discount)) as rev \
                 from lineitem, part where l_partkey = p_partkey \
                 and l_shipdate >= date '1995-01-01' \
                 and l_shipdate < date '1995-01-01' + interval '1' {interval} \
                 and p_type {p_type}"
            ),
        )
    };
    let cases = [
        (q14("year", "like 'PROMO%'"), Rep::Bitmap, Rep::Bitmap),
        (
            q14("month", "= 'PROMO BURNISHED COPPER'"),
            Rep::Indices,
            Rep::Bitmap,
        ),
    ];
    for (plan, ..) in &cases {
        db.auto_bind(plan).unwrap();
    }
    for (plan, rep, _) in &cases {
        assert_reps_agree(&db, plan, *rep, &format!("Q14-shaped all-resident {rep:?}"));
    }
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    db.bwdecompose("part", "p_type", 4).unwrap();
    for (plan, _, rep) in &cases {
        let what = format!("Q14-shaped space-constrained {rep:?}");
        assert_reps_agree(&db, plan, *rep, &what);
    }
}
