//! The `bwd_pipe` micro-optimizer (§V-B): rewrite a classic logical plan
//! into an A&R plan, then apply the rule-based optimization of §III-A —
//! push approximate selections below refinements. Selections bind in query
//! order, one per column, and fold nothing; which order a run takes them
//! in and whether its tail folds co-factors is the engine's one priced
//! choice (`bwd_engine::bill::order`).
//!
//! Literal payloads are resolved through a [`PlanResolver`] so the core
//! stays catalog-agnostic: the engine's catalog knows dictionary codes,
//! decimal scales and date encodings.

use crate::plan::arplan::{split_column, ArPlan, BoundSelection, FkJoinPlan};
use crate::plan::logical::{LogicalPlan, Predicate};
use crate::relax::RangePred;
use bwd_types::{BwdError, Result, Value};

/// Catalog services the rewriter needs to bind literals to payloads.
pub trait PlanResolver {
    /// Translate a literal into the payload domain of `table.column`.
    fn payload_of(&self, table: &str, column: &str, v: &Value) -> Result<i64>;

    /// Inclusive payload (dictionary-code) range of values starting with
    /// `prefix`, or `None` when nothing matches — the ordered-dictionary
    /// rewrite of `like 'PROMO%'` (§VI-D1).
    fn prefix_payload_range(
        &self,
        table: &str,
        column: &str,
        prefix: &str,
    ) -> Result<Option<(i64, i64)>>;
}

/// Rewrite options: none. Every A&R plan chains its approximate
/// selections below the refinements (§III-A); there is no other plan
/// shape to choose. The struct stays only because the frozen benchmark
/// harness binds with `db.bind(&logical, &RewriteOptions::default())`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {}

/// Rewrite a logical plan into an A&R plan.
///
/// # Errors
/// Returns a plan error when the logical plan uses shapes outside the
/// supported subset (disjunctions, non-FK joins, nested aggregates).
pub fn rewrite(plan: &LogicalPlan, resolver: &dyn PlanResolver) -> Result<ArPlan> {
    let mut table: Option<String> = None;
    let mut selections: Vec<BoundSelection> = Vec::new();
    let mut fk_join: Option<FkJoinPlan> = None;
    let mut group_by = Vec::new();
    let mut aggs = Vec::new();
    let mut project = Vec::new();

    // Walk the linear plan spine bottom-up.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        node: &LogicalPlan,
        resolver: &dyn PlanResolver,
        table: &mut Option<String>,
        selections: &mut Vec<BoundSelection>,
        fk_join: &mut Option<FkJoinPlan>,
        group_by: &mut Vec<String>,
        aggs: &mut Vec<crate::plan::logical::AggExpr>,
        project: &mut Vec<(crate::plan::logical::ScalarExpr, String)>,
    ) -> Result<()> {
        match node {
            LogicalPlan::Scan { table: t } => {
                *table = Some(t.clone());
            }
            LogicalPlan::Filter { input, predicate } => {
                walk(
                    input, resolver, table, selections, fk_join, group_by, aggs, project,
                )?;
                let t = table
                    .as_deref()
                    .ok_or_else(|| BwdError::Plan("filter without a scanned table".into()))?;
                for conj in predicate.conjuncts() {
                    let bound = bind_selection(conj, t, fk_join.as_ref(), resolver)?;
                    merge_conjunct(selections, bound);
                }
            }
            LogicalPlan::FkJoin {
                input,
                fact_key,
                dim_table,
            } => {
                walk(
                    input, resolver, table, selections, fk_join, group_by, aggs, project,
                )?;
                if fk_join.is_some() {
                    return Err(BwdError::Unsupported(
                        "multiple foreign-key joins in one plan".into(),
                    ));
                }
                *fk_join = Some(FkJoinPlan {
                    fact_key: fact_key.clone(),
                    dim_table: dim_table.clone(),
                });
            }
            LogicalPlan::Aggregate {
                input,
                group_by: g,
                aggs: a,
            } => {
                walk(
                    input, resolver, table, selections, fk_join, group_by, aggs, project,
                )?;
                if !aggs.is_empty() {
                    return Err(BwdError::Unsupported("nested aggregation".into()));
                }
                *group_by = g.clone();
                *aggs = a.clone();
            }
            LogicalPlan::Project { input, exprs } => {
                walk(
                    input, resolver, table, selections, fk_join, group_by, aggs, project,
                )?;
                *project = exprs.clone();
            }
        }
        Ok(())
    }

    walk(
        plan,
        resolver,
        &mut table,
        &mut selections,
        &mut fk_join,
        &mut group_by,
        &mut aggs,
        &mut project,
    )?;

    let table = table.ok_or_else(|| BwdError::Plan("plan has no table scan".into()))?;

    let plan = ArPlan {
        table,
        selections,
        fk_join,
        group_by,
        aggs,
        project,
        fold: Vec::new(),
    };
    plan.validate().map_err(BwdError::Plan)?;
    Ok(plan)
}

/// Fold `bound` into an earlier selection on the same column —
/// σ_p∘σ_q = σ_{p∧q}: one scan, one candidate list and one refinement
/// instead of two. A contradiction becomes the unsatisfiable marker; two
/// distinct `<>` points fit no single [`RangePred`] and stay separate.
fn merge_conjunct(selections: &mut Vec<BoundSelection>, bound: BoundSelection) {
    let distinct_points = |a: &RangePred, b: &RangePred| matches!((a.exclude, b.exclude), (Some(x), Some(y)) if x != y);
    match selections
        .iter_mut()
        .find(|s| s.column == bound.column && !distinct_points(&s.range, &bound.range))
    {
        Some(earlier) => {
            earlier.range = earlier
                .range
                .intersect(&bound.range)
                .unwrap_or(UNSATISFIABLE);
        }
        None => selections.push(bound),
    }
}

/// The empty range a predicate no payload can satisfy binds to.
const UNSATISFIABLE: RangePred = RangePred {
    lo: Some(1),
    hi: Some(0),
    exclude: None,
};

/// Bind one conjunct to its payload range.
fn bind_selection(
    pred: &Predicate,
    fact_table: &str,
    fk: Option<&FkJoinPlan>,
    resolver: &dyn PlanResolver,
) -> Result<BoundSelection> {
    let (column, range) = match pred {
        Predicate::Cmp { column, op, value } => {
            let (t, c) = split_column(column, fact_table);
            ensure_known_table(t, fact_table, fk)?;
            let payload = resolver.payload_of(t, c, value)?;
            (
                column,
                RangePred::from_cmp(*op, payload).unwrap_or(UNSATISFIABLE),
            )
        }
        Predicate::Between { column, lo, hi } => {
            let (t, c) = split_column(column, fact_table);
            ensure_known_table(t, fact_table, fk)?;
            let lo = resolver.payload_of(t, c, lo)?;
            let hi = resolver.payload_of(t, c, hi)?;
            (column, RangePred::between(lo, hi))
        }
        Predicate::PrefixLike { column, prefix } => {
            let (t, c) = split_column(column, fact_table);
            ensure_known_table(t, fact_table, fk)?;
            let range = match resolver.prefix_payload_range(t, c, prefix)? {
                Some((lo, hi)) => RangePred::between(lo, hi),
                None => UNSATISFIABLE, // nothing matches
            };
            (column, range)
        }
        Predicate::And(_) => unreachable!("conjuncts() flattens And"),
    };
    Ok(BoundSelection {
        column: column.clone(),
        range,
    })
}

fn ensure_known_table(t: &str, fact: &str, fk: Option<&FkJoinPlan>) -> Result<()> {
    if t == fact || fk.is_some_and(|j| j.dim_table == t) {
        Ok(())
    } else {
        Err(BwdError::Bind(format!(
            "predicate references table {t} which is neither the fact table nor a joined dimension"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::logical::{AggExpr, AggFunc};
    use crate::relax::CmpOp;

    /// A resolver over integer payloads with a fixed dictionary.
    struct TestResolver;

    impl PlanResolver for TestResolver {
        fn payload_of(&self, _t: &str, _c: &str, v: &Value) -> Result<i64> {
            v.as_i64()
                .ok_or_else(|| BwdError::TypeMismatch("int expected".into()))
        }

        fn prefix_payload_range(
            &self,
            _t: &str,
            _c: &str,
            prefix: &str,
        ) -> Result<Option<(i64, i64)>> {
            match prefix {
                "PROMO" => Ok(Some((10, 19))),
                _ => Ok(None),
            }
        }
    }

    fn count_agg() -> Vec<AggExpr> {
        vec![AggExpr {
            func: AggFunc::Count,
            arg: None,
            alias: "n".into(),
        }]
    }

    #[test]
    fn rewrites_filter_aggregate() {
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::And(vec![
                Predicate::Cmp {
                    column: "a".into(),
                    op: CmpOp::Gt,
                    value: Value::Int(10),
                },
                Predicate::Between {
                    column: "b".into(),
                    lo: Value::Int(0),
                    hi: Value::Int(5),
                },
            ]))
            .aggregate(vec![], count_agg());
        let ar = rewrite(&plan, &TestResolver).unwrap();
        assert_eq!(ar.table, "t");
        // Bound in query order; the engine orders the chain (its
        // `bill.rs` tests hold the laws of that order).
        let bound: Vec<_> = (ar.selections.iter())
            .map(|s| (s.column.as_str(), s.range))
            .collect();
        assert_eq!(
            bound,
            [
                ("a", RangePred::at_least(11)),
                ("b", RangePred::between(0, 5)),
            ]
        );
    }

    fn cmp(column: &str, op: CmpOp, v: i64) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op,
            value: Value::Int(v),
        }
    }

    fn selections_of(conjuncts: Vec<Predicate>) -> Vec<BoundSelection> {
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::And(conjuncts))
            .aggregate(vec![], count_agg());
        rewrite(&plan, &TestResolver).unwrap().selections
    }

    #[test]
    fn same_column_conjuncts_merge_into_one_selection() {
        // Q6/Q14's shape: `c >= 10 and c < 20` around another column.
        let sels = selections_of(vec![
            cmp("c", CmpOp::Ge, 10),
            cmp("a", CmpOp::Lt, 5),
            cmp("c", CmpOp::Lt, 20),
        ]);
        assert_eq!(sels.len(), 2);
        assert_eq!(sels[0].column, "c", "merged at the first conjunct's place");
        assert_eq!(sels[0].range, RangePred::between(10, 19));
        assert_eq!(sels[1].range, RangePred::at_most(4));
        // `<>` folds into a range on the same column.
        let sels = selections_of(vec![cmp("c", CmpOp::Ne, 12), cmp("c", CmpOp::Le, 20)]);
        assert_eq!(sels.len(), 1);
        let want = RangePred {
            exclude: Some(12),
            ..RangePred::at_most(20)
        };
        assert_eq!(sels[0].range, want);
    }

    #[test]
    fn contradictory_conjuncts_bind_the_unsatisfiable_marker() {
        let sels = selections_of(vec![
            cmp("c", CmpOp::Lt, 10),
            cmp("c", CmpOp::Gt, 10),
            cmp("c", CmpOp::Eq, 3), // intersecting the marker keeps it
        ]);
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].range, RangePred::between(1, 0));
    }

    #[test]
    fn two_distinct_exclusions_stay_two_selections() {
        let sels = selections_of(vec![
            cmp("c", CmpOp::Ne, 5),
            cmp("c", CmpOp::Ne, 7),
            cmp("c", CmpOp::Ne, 5),
            cmp("c", CmpOp::Ge, 0),
        ]);
        assert_eq!(sels.len(), 2);
        let want = RangePred {
            exclude: Some(5),
            ..RangePred::at_least(0)
        };
        assert_eq!(sels[0].range, want);
        assert_eq!(sels[1].range, RangePred::from_cmp(CmpOp::Ne, 7).unwrap());
    }

    #[test]
    fn prefix_like_becomes_code_range() {
        let plan = LogicalPlan::scan("part")
            .filter(Predicate::PrefixLike {
                column: "p_type".into(),
                prefix: "PROMO".into(),
            })
            .aggregate(vec![], count_agg());
        let ar = rewrite(&plan, &TestResolver).unwrap();
        assert_eq!(ar.selections[0].range, RangePred::between(10, 19));
    }

    #[test]
    fn fk_join_and_dim_predicates() {
        let plan = LogicalPlan::scan("lineitem")
            .fk_join("l_partkey", "part")
            .filter(Predicate::Cmp {
                column: "part.p_size".into(),
                op: CmpOp::Eq,
                value: Value::Int(7),
            })
            .aggregate(vec![], count_agg());
        let ar = rewrite(&plan, &TestResolver).unwrap();
        assert_eq!(
            ar.fk_join,
            Some(FkJoinPlan {
                fact_key: "l_partkey".into(),
                dim_table: "part".into()
            })
        );
        assert_eq!(ar.selections[0].column, "part.p_size");
    }

    #[test]
    fn rejects_unknown_dimension() {
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Cmp {
                column: "other.x".into(),
                op: CmpOp::Eq,
                value: Value::Int(1),
            })
            .aggregate(vec![], count_agg());
        assert!(rewrite(&plan, &TestResolver).is_err());
    }

    #[test]
    fn rejects_double_join_and_nested_aggregate() {
        let plan = LogicalPlan::scan("t")
            .fk_join("k1", "d1")
            .fk_join("k2", "d2")
            .aggregate(vec![], count_agg());
        assert!(rewrite(&plan, &TestResolver).is_err());

        let plan = LogicalPlan::scan("t")
            .aggregate(vec![], count_agg())
            .aggregate(vec![], count_agg());
        assert!(rewrite(&plan, &TestResolver).is_err());
    }

    #[test]
    fn unsatisfiable_predicate_binds_to_empty_range() {
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::PrefixLike {
                column: "s".into(),
                prefix: "NOPE".into(),
            })
            .aggregate(vec![], count_agg());
        let ar = rewrite(&plan, &TestResolver).unwrap();
        let r = &ar.selections[0].range;
        assert!(r.lo.unwrap() > r.hi.unwrap(), "must be unsatisfiable");
    }
}
