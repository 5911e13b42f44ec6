//! Lane-scan invariants: the fixed-lane batch kernels and the candidate
//! representation the selection rule picks are **representation only**.
//! At every morsel count in {1, 2, 8}, the same plans produce the same
//! rows, survivor counts, PCI-E traffic and simulated component costs as
//! the serial run, and the rows Classic produces — including chains where
//! a dimension-side predicate AND-refines the running bitmap through the
//! FK link. A storage-level sweep additionally pins the lane-batched fill
//! to the per-word SWAR loop and a `get()` oracle at every packed width
//! and at straddling, unaligned spans. (That either representation is
//! invisible, one stored value either side of the switch, is
//! `tests/packed_selection.rs`.)

use waste_not::core::plan::ScalarExpr as E;
use waste_not::core::plan::{AggExpr, AggFunc, ArPlan, BinOp, LogicalPlan, Predicate};
use waste_not::data::{gen_lineitem, gen_part, micro, TpchConfig};
use waste_not::engine::{Database, ExecMode};
use waste_not::obs::{EventKind, Phase, QueryTrace, Recorder, TraceCtx, NO_SPAN};
use waste_not::storage::{BitPackedVec, Column, RangeMatcher};
use waste_not::Value;

const MORSELS: [usize; 3] = [1, 2, 8];

/// Every morsel count against the serial run: rows, survivors, simulated
/// costs and traffic must all be bit-identical, and the rows Classic's.
fn assert_sweep_bit_identical(db: &Database, plan: &ArPlan, what: &str) {
    let env = db.env().clone();
    let run = |m| {
        db.run_bound_in(plan, ExecMode::ApproxRefine, &env, m, None)
            .unwrap()
    };
    let baseline = run(1);
    assert!(!baseline.rows.is_empty(), "{what}: degenerate plan");
    for m in MORSELS {
        let r = run(m);
        let cell = format!("{what} @ morsels={m}");
        assert_eq!(baseline.rows, r.rows, "{cell}: rows");
        assert_eq!(baseline.survivors, r.survivors, "{cell}: survivors");
        assert_eq!(baseline.breakdown, r.breakdown, "{cell}: simulated costs");
        assert_eq!(baseline.traffic, r.traffic, "{cell}: traffic");
    }
    let classic = db.run_bound(plan, ExecMode::Classic).unwrap();
    assert_eq!(baseline.rows, classic.rows, "{what}: A&R vs classic");
}

fn ints(vals: Vec<i64>) -> Column {
    Column::from_i32(vals.into_iter().map(|v| v as i32).collect())
}

fn micro_db(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![
            ("a".into(), ints(micro::unique_shuffled(n, 0x1A9E))),
            ("g".into(), ints(micro::grouping_keys(n, 24, 0x50C))),
            (
                "v".into(),
                Column::from_i32((0..n as i32).map(|i| (i * 29) % 8191).collect()),
            ),
        ],
    )
    .unwrap();
    db.bwdecompose("t", "a", 24).unwrap();
    db.bwdecompose("t", "g", 24).unwrap();
    db.bwdecompose("t", "v", 24).unwrap();
    db
}

/// Chained fact-side predicates with grouped aggregation over more than
/// two scan blocks: the dense first predicate rides the lane-batch mask
/// kernel, the second AND-refines it, refinement consumes the mask
/// positionally — identical at every morsel count.
#[test]
fn chained_fact_selections_identical_across_the_grid() {
    let n = 140_000;
    let db = micro_db(n);
    let logical = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(500),
            hi: Value::Int(n as i64 * 2 / 3),
        })
        .filter(Predicate::Between {
            column: "v".into(),
            lo: Value::Int(50),
            hi: Value::Int(6_000),
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
                    arg: Some(E::col("v").binary(BinOp::Mul, E::Literal(Value::Int(7)))),
                    alias: "s".into(),
                },
            ],
        );
    let plan = db.bind(&logical, &Default::default()).unwrap();
    assert_sweep_bit_identical(&db, &plan, "chained fact selections");
}

/// A Q14-shaped fact + dimension chain with a second dimension predicate:
/// the bill's order runs a dimension step after a bitmap step, so it
/// AND-refines the running bitmap *through the FK link* (no index
/// round-trip), and the mask-consuming refinement reconstructs dim-side
/// payloads through the same link — at every morsel count.
#[test]
fn dim_chain_identical_across_the_grid() {
    let cfg = TpchConfig::scale(0.02);
    let mut db = Database::new();
    db.create_table("lineitem", gen_lineitem(&cfg).into_columns())
        .unwrap();
    db.create_table("part", gen_part(&cfg).into_columns())
        .unwrap();
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
        .unwrap();
    let stmt = waste_not::sql::parse(
        "select count(*) as promo, sum(l_extendedprice * (1 - l_discount)) as rev \
         from lineitem, part where l_partkey = p_partkey \
         and l_shipdate >= date '1995-01-01' \
         and l_shipdate < date '1995-01-01' + interval '1' year \
         and p_type like 'PROMO%' and p_retailprice < 2000",
    )
    .unwrap();
    let waste_not::sql::BoundStatement::Query(logical) =
        waste_not::sql::bind(&stmt, db.catalog()).unwrap()
    else {
        panic!("not a query");
    };
    let plan = db.bind(&logical, &Default::default()).unwrap();
    db.auto_bind(&plan).unwrap();
    assert_dim_step_refines_a_bitmap(&db, &plan, "Q14-shaped all-resident");
    assert_sweep_bit_identical(&db, &plan, "Q14-shaped all-resident");
    // Space-constrained: residuals exist, so the refinement pipeline
    // (mask-consuming, pooled scratch) actually runs.
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    db.bwdecompose("part", "p_type", 4).unwrap();
    assert_dim_step_refines_a_bitmap(&db, &plan, "Q14-shaped space-constrained");
    assert_sweep_bit_identical(&db, &plan, "Q14-shaped space-constrained");
}

/// The order the bill picks runs a dimension selection right after a step
/// that produced the bitmap, so the dimension step AND-refines the running
/// bitmap through the FK link. Read from the traced run's `ApproxSelect`
/// spans: the `Begin` carries the selection's index in the bound plan, the
/// `End` 1 for the bitmap.
fn assert_dim_step_refines_a_bitmap(db: &Database, plan: &ArPlan, what: &str) {
    let recorder = Recorder::enabled();
    let mut env = db.env().clone();
    env.trace = TraceCtx::new(recorder.clone(), NO_SPAN, "query");
    db.run_bound_in(plan, ExecMode::ApproxRefine, &env, 1, None)
        .unwrap();
    let events = QueryTrace::capture(&recorder).events;
    let selects = events.iter().filter(|e| e.kind == EventKind::ApproxSelect);
    let begins = selects.clone().filter(|e| e.phase == Phase::Begin);
    let steps: Vec<(&str, u64)> = (begins.map(|b| (b.span, b.b as usize)))
        .map(|(span, i)| {
            let end = selects
                .clone()
                .find(|e| e.span == span && e.phase == Phase::End);
            (plan.selections[i].column.as_str(), end.unwrap().d)
        })
        .collect();
    assert!(
        (steps.windows(2)).any(|w| w[0].1 == 1 && w[1].0.contains('.')),
        "{what}: no dimension step refines a bitmap in (column, bitmap) {steps:?}"
    );
}

/// Storage-level pin: the lane-batched `fill` agrees with the per-word
/// SWAR loop (`match_word`) and a `get()` oracle at every packable width
/// (1..=21, the 20/21 group boundaries included), over unaligned spans
/// whose first and last words are partially covered. The spans' full
/// block counts (200, 199, 13, 8) leave remainders of 7 and 5 after the
/// eight-block batches, so the four-block and single-block drains run.
#[test]
fn lane_fill_matches_per_word_swar_at_every_width() {
    let n = 64 * 200 + 17;
    for width in 1..=21u32 {
        let max = (1u64 << width) - 1;
        let vals: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) & max)
            .collect();
        let packed = BitPackedVec::from_slice(width, &vals);
        let (lo, hi) = (max / 5, max - max / 3);
        let m = RangeMatcher::new(&packed, lo, hi);
        let spans: [(usize, usize); 4] =
            [(0, n), (64, n - 64), (0, 64 * 13 + 3), (64 * 3, 64 * 8 + 1)];
        for (start, len) in spans {
            let words = len.div_ceil(64);
            let base: Vec<u64> = (0..words)
                .map(|w| m.match_word(start + w * 64, (len - w * 64).min(64)))
                .collect();
            let mut oracle = vec![0u64; words];
            for (k, &v) in vals[start..start + len].iter().enumerate() {
                oracle[k / 64] |= u64::from(v >= lo && v <= hi) << (k % 64);
            }
            let mut got = vec![0u64; words];
            m.fill(start, len, &mut got);
            assert_eq!(got, base, "width={width} start={start} len={len}");
            assert_eq!(got, oracle, "width={width} start={start} len={len}");
        }
    }
}
