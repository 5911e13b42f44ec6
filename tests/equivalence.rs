//! The system-level correctness property: for every supported query, the
//! A&R pipeline produces *bit-identical* results to the classic CPU
//! pipeline, for every decomposition.

use proptest::prelude::*;
use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate, RewriteOptions, ScalarExpr};
use waste_not::core::CmpOp;
use waste_not::engine::{Database, ExecMode};
use waste_not::storage::Column;
use waste_not::Value;

fn db_with(vals_a: Vec<i32>, vals_b: Vec<i32>) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![
            ("a".into(), Column::from_i32(vals_a)),
            ("b".into(), Column::from_i32(vals_b)),
        ],
    )
    .unwrap();
    db
}

fn count_sum_plan(pred: Predicate, group: bool) -> LogicalPlan {
    LogicalPlan::scan("t").filter(pred).aggregate(
        if group { vec!["b".into()] } else { vec![] },
        vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(ScalarExpr::col("a")),
                alias: "s".into(),
            },
            AggExpr {
                func: AggFunc::Min,
                arg: Some(ScalarExpr::col("a")),
                alias: "lo".into(),
            },
            AggExpr {
                func: AggFunc::Max,
                arg: Some(ScalarExpr::col("a")),
                alias: "hi".into(),
            },
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random data, random predicate, random decomposition width: classic
    /// and A&R agree exactly (grouped and global).
    #[test]
    fn prop_classic_equals_ar(
        vals in proptest::collection::vec(-50_000i32..50_000, 1..500),
        lo in -60_000i64..60_000,
        span in 0i64..50_000,
        bits in 18u32..=32,
        group in any::<bool>(),
    ) {
        let groups: Vec<i32> = vals.iter().map(|v| v.rem_euclid(7)).collect();
        let mut db = db_with(vals, groups);
        db.bwdecompose("t", "a", bits).unwrap();
        let plan = count_sum_plan(
            Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(lo + span),
            },
            group,
        );
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        prop_assert_eq!(&classic.rows, &ar.rows);
        prop_assert_eq!(classic.survivors, ar.survivors);
    }

    /// Conjunctions of predicates across decomposed columns, their
    /// approximate selections chained below the refinements (§III-A).
    #[test]
    fn prop_conjunction_and_pushdown(
        n in 50usize..400,
        seed in any::<u32>(),
        a_cut in 0i64..1000,
        b_cut in 0i64..1000,
        bits_a in 20u32..=32,
        bits_b in 20u32..=32,
    ) {
        let vals_a: Vec<i32> = (0..n).map(|i| ((i as u32).wrapping_mul(seed | 1) % 1000) as i32).collect();
        let vals_b: Vec<i32> = (0..n).map(|i| ((i as u32).wrapping_mul(seed | 3) % 1000) as i32).collect();
        let mut db = db_with(vals_a, vals_b);
        db.bwdecompose("t", "a", bits_a).unwrap();
        db.bwdecompose("t", "b", bits_b).unwrap();
        let pred = Predicate::And(vec![
            Predicate::Cmp { column: "a".into(), op: CmpOp::Lt, value: Value::Int(a_cut) },
            Predicate::Cmp { column: "b".into(), op: CmpOp::Ge, value: Value::Int(b_cut) },
        ]);
        let plan = count_sum_plan(pred, false);
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let bound = db.bind(&plan, &RewriteOptions::default()).unwrap();
        db.auto_bind(&bound).unwrap();
        let ar = db.run_bound(&bound, ExecMode::ApproxRefine).unwrap();
        prop_assert_eq!(&classic.rows, &ar.rows);
    }

    /// Every comparison operator matches the scalar model in both pipes,
    /// with literals inside the column's domain and past its physical
    /// width (i32::MIN − 1, i32::MAX + 1, ±2^32): those are clamped to the
    /// domain, never wrapped.
    #[test]
    fn prop_all_comparison_ops(
        vals in proptest::collection::vec(-1000i32..1000, 1..300),
        x in -1200i64..1200,
        x_at in 0usize..8,
        op_idx in 0usize..6,
        bits in 20u32..=32,
    ) {
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let op = ops[op_idx];
        let outside = [i32::MIN as i64 - 1, i32::MAX as i64 + 1, -(1i64 << 32), 1i64 << 32];
        let x = outside.get(x_at).copied().unwrap_or(x);
        let expected = vals.iter().filter(|&&v| {
            let v = v as i64;
            match op {
                CmpOp::Eq => v == x,
                CmpOp::Ne => v != x,
                CmpOp::Lt => v < x,
                CmpOp::Le => v <= x,
                CmpOp::Gt => v > x,
                CmpOp::Ge => v >= x,
            }
        }).count() as i64;
        let groups: Vec<i32> = vals.iter().map(|v| v.rem_euclid(3)).collect();
        let mut db = db_with(vals, groups);
        db.bwdecompose("t", "a", bits).unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Cmp { column: "a".into(), op, value: Value::Int(x) })
            .aggregate(vec![], vec![AggExpr { func: AggFunc::Count, arg: None, alias: "n".into() }]);
        for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
            let r = db.run(&plan, mode.clone()).unwrap();
            prop_assert_eq!(&r.rows[0][0], &Value::Int(expected), "{:?} {:?} {}", mode, op, x);
        }
    }
}

#[test]
fn figure4_worked_example() {
    // §IV / Figure 4: R(A, B) with A = [8,4,2,1], B = [5,7,1,3];
    // storage A: (31 bit GPU, 1 bit CPU), B: (32 bit GPU);
    // query: select count(*) from R where A < 5 group by B.
    let mut db = Database::new();
    db.create_table(
        "r",
        vec![
            ("a".into(), Column::from_i32(vec![8, 4, 2, 1])),
            ("b".into(), Column::from_i32(vec![5, 7, 1, 3])),
        ],
    )
    .unwrap();
    db.bwdecompose("r", "a", 31).unwrap();
    db.bwdecompose("r", "b", 32).unwrap();
    let plan = LogicalPlan::scan("r")
        .filter(Predicate::Cmp {
            column: "a".into(),
            op: CmpOp::Lt,
            value: Value::Int(5),
        })
        .aggregate(
            vec!["b".into()],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "count".into(),
            }],
        );
    let classic = db.run(&plan, ExecMode::Classic).unwrap();
    let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
    assert_eq!(ar.rows, classic.rows);
    // Rows with A < 5: (4,7), (2,1), (1,3) -> three groups of count 1,
    // sorted by B: 1, 3, 7.
    assert_eq!(
        ar.rows,
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1)],
            vec![Value::Int(7), Value::Int(1)],
        ]
    );
}

#[test]
fn empty_results_and_full_results() {
    let mut db = db_with((0..100).collect(), vec![0; 100]);
    db.bwdecompose("t", "a", 24).unwrap();
    for (lo, hi, expect) in [(1000, 2000, 0i64), (0, 99, 100), (-5, -1, 0)] {
        let plan = count_sum_plan(
            Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            },
            false,
        );
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        assert_eq!(classic.rows, ar.rows);
        assert_eq!(ar.rows[0][0], Value::Int(expect));
    }
}

#[test]
fn arithmetic_expressions_agree() {
    // sum(a * (1 - b)) exercises destructive distributivity handling.
    let mut db = db_with((1..200).collect(), (1..200).map(|i| i % 10).collect());
    db.bwdecompose("t", "a", 24).unwrap();
    let plan = LogicalPlan::scan("t")
        .filter(Predicate::Cmp {
            column: "a".into(),
            op: CmpOp::Le,
            value: Value::Int(150),
        })
        .aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(
                    ScalarExpr::col("a").binary(
                        waste_not::core::plan::BinOp::Mul,
                        ScalarExpr::Literal(Value::Int(1))
                            .binary(waste_not::core::plan::BinOp::Sub, ScalarExpr::col("b")),
                    ),
                ),
                alias: "s".into(),
            }],
        );
    let classic = db.run(&plan, ExecMode::Classic).unwrap();
    let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
    assert_eq!(classic.rows, ar.rows);
    let expect: i64 = (1..=150).map(|a| a * (1 - a % 10)).sum();
    assert_eq!(ar.rows[0][0], Value::Int(expect));
}

/// A column referenced twice in the tail (`group by b, a, b`) is gathered,
/// refined and billed exactly once in both pipes: the repeated key costs
/// nothing over `group by b, a` and only repeats an output column. (The
/// keys keep residuals, so the A&R host path refines and hashes them.)
#[test]
fn repeated_group_key_is_gathered_and_billed_once() {
    let n = 20_000;
    let mut db = db_with(
        (0..n).map(|i| i * 7 % 5000).collect(),
        (0..n).map(|i| i % 13 * 300).collect(),
    );
    db.bwdecompose("t", "a", 24).unwrap();
    db.bwdecompose("t", "b", 24).unwrap();
    let plan = |keys: &[&str]| {
        LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(100),
                hi: Value::Int(3_000),
            })
            .aggregate(
                keys.iter().map(|k| k.to_string()).collect(),
                vec![
                    AggExpr {
                        func: AggFunc::Count,
                        arg: None,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(ScalarExpr::col("a")),
                        alias: "s".into(),
                    },
                ],
            )
    };
    let (once, twice) = (plan(&["b", "a"]), plan(&["b", "a", "b"]));
    let mut rows = Vec::new();
    for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
        let r1 = db.run(&once, mode.clone()).unwrap();
        let r2 = db.run(&twice, mode.clone()).unwrap();
        assert!(r1.rows.len() > 1_000, "many groups: {}", r1.rows.len());
        assert_eq!(r2.breakdown, r1.breakdown, "{mode:?}: simulated cost");
        assert_eq!(r2.traffic, r1.traffic, "{mode:?}: traffic");
        assert_eq!(r2.survivors, r1.survivors);
        let repeated: Vec<Vec<Value>> = (r1.rows.iter())
            .map(|r| [&r[..2], &r[..1], &r[2..]].concat())
            .collect();
        assert_eq!(r2.rows, repeated, "{mode:?}: rows");
        rows.push(r2.rows);
    }
    assert_eq!(rows[0], rows[1], "classic vs A&R");
}

/// refine∘approximate = exact for every decomposition split, and the bill
/// is a function of the plan alone: over splits {8, 16, 24, 31, 32 device
/// bits} × selectivity {nothing, inside one granule, granule-aligned,
/// half, everything} × {global, grouped} × tail {device: resident
/// aggregates, host: aggregating the split column} × a second (resident)
/// conjunct × morsels {1, 3}, over three scan blocks, the A&R rows equal
/// Classic's, and rows, `breakdown`, `traffic` and `survivors` equal the
/// serial A&R run of the same plan.
mod split_sweep {
    use super::*;
    use std::sync::OnceLock;

    /// Past two scan blocks of 2^16 rows, so candidates come out
    /// block-scrambled.
    const ROWS: i64 = 140_000;
    /// `a` spreads a permutation of `0..ROWS` over most of the `i32`
    /// domain, so every split leaves many granules (or, at 16 bits and
    /// finer, about one value per granule).
    const STRIDE: i64 = 15_000;
    const SPLITS: [u32; 5] = [8, 16, 24, 31, 32];

    fn db(split: usize) -> &'static Database {
        static DBS: [OnceLock<Database>; 5] = [const { OnceLock::new() }; 5];
        DBS[split].get_or_init(|| {
            let col =
                |f: &dyn Fn(i64) -> i64| Column::from_i32((0..ROWS).map(|i| f(i) as i32).collect());
            let mut db = Database::new();
            let cols = [
                ("a", col(&|i| i * 7919 % ROWS * STRIDE)),
                ("g", col(&|i| i * 31 % 7)),
                ("v", col(&|i| i * 13 % 9973 - 4000)),
                ("w", col(&|i| i % 10)),
            ];
            let cols = cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect();
            db.create_table("t", cols).unwrap();
            db.bwdecompose("t", "a", SPLITS[split]).unwrap();
            for resident in ["g", "v", "w"] {
                db.bwdecompose("t", resident, 32).unwrap();
            }
            db
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_every_split_refines_to_the_exact_answer(
            split in 0usize..5,
            selectivity in 0usize..5,
            grouped: bool,
            host_tail: bool,
            second: bool,
            wide: bool,
        ) {
            let db = db(split);
            let granule = 1i64 << (32 - SPLITS[split]);
            let max = (ROWS - 1) * STRIDE;
            let (lo, hi) = match selectivity {
                0 => (STRIDE + 1, 2 * STRIDE - 1), // between two values
                1 => (5 * STRIDE, 5 * STRIDE + granule.min(STRIDE) / 2), // within one granule
                // Whole granules (the frame is 0): every candidate decided.
                2 => {
                    let g = granule.max(STRIDE);
                    (ROWS / 8 * STRIDE / g * g, ROWS / 2 * STRIDE / g * g - 1)
                }
                3 => (0, max / 2),
                _ => (0, max),
            };
            let mut preds = vec![Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            }];
            if second {
                preds.push(Predicate::Cmp { column: "w".into(), op: CmpOp::Lt, value: Value::Int(7) });
            }
            let sum = |c: &str| AggExpr { func: AggFunc::Sum, arg: Some(ScalarExpr::col(c)), alias: c.into() };
            let mut aggs = vec![AggExpr { func: AggFunc::Count, arg: None, alias: "n".into() }, sum("v")];
            if host_tail {
                aggs.push(sum("a"));
            }
            let logical = LogicalPlan::scan("t")
                .filter(Predicate::And(preds))
                .aggregate(if grouped { vec!["g".into()] } else { vec![] }, aggs);
            let plan = db.bind(&logical, &RewriteOptions::default()).unwrap();
            let run = |m| db.run_bound_in(&plan, ExecMode::ApproxRefine, db.env(), m, None).unwrap();
            let classic = db.run_bound(&plan, ExecMode::Classic).unwrap();
            let serial = run(1);
            let got = run(if wide { 3 } else { 1 });
            let tag = format!("{:?} wide={wide}", plan.selections);
            prop_assert_eq!(&serial.rows, &classic.rows, "{}", tag);
            prop_assert_eq!(serial.survivors, classic.survivors, "{}", tag);
            prop_assert_eq!(&got.rows, &serial.rows, "{}", tag);
            prop_assert_eq!(got.breakdown, serial.breakdown, "{}", tag);
            prop_assert_eq!(got.traffic, serial.traffic, "{}", tag);
            prop_assert_eq!(got.survivors, serial.survivors, "{}", tag);
            // The resident fast path is the case undecided = ∅, at any
            // split: nothing to refine, nothing for the host to aggregate.
            if selectivity == 2 && !host_tail {
                prop_assert!(serial.survivors > 1_000, "{}", tag);
                prop_assert_eq!(serial.breakdown.host, 0.0, "{}", tag);
            }
        }
    }
}
