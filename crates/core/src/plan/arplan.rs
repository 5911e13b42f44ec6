//! The A&R physical plan.
//!
//! An [`ArPlan`] is the engine-executable form of Figure 3 / Figure 7: a
//! chain of relaxed selections and device-side pre-operators (the
//! *approximation subplan*) paired with the refinement stages that turn
//! candidates into exact results. By construction no approximation step
//! depends on a refinement output, so the whole approximation subplan can
//! run — and deliver an approximate query answer — before the first
//! refinement starts (§III's "fast approximation at no additional cost").

use crate::plan::logical::{AggExpr, ScalarExpr};
use crate::relax::RangePred;

/// A selection bound to a column, with the predicate already translated to
/// the payload domain (dates resolved to day counts, decimals rescaled,
/// dictionary prefixes to code ranges).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSelection {
    /// Qualified column name (`table.column` for dimension columns).
    pub column: String,
    /// Inclusive payload range.
    pub range: RangePred,
}

/// `(table, column)` of a plan's column reference: dimension columns are
/// qualified as `table.column`, fact columns are bare.
pub fn split_column<'a>(column: &'a str, fact_table: &'a str) -> (&'a str, &'a str) {
    column.split_once('.').unwrap_or((fact_table, column))
}

/// A pre-indexed foreign-key join step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkJoinPlan {
    /// The fact table's foreign-key column.
    pub fact_key: String,
    /// The joined dimension table.
    pub dim_table: String,
}

/// The A&R physical plan for the supported query shape
/// (select – \[fk-join\] – \[group\] – aggregate/project).
#[derive(Debug, Clone, PartialEq)]
pub struct ArPlan {
    /// The fact table.
    pub table: String,
    /// Relaxed selections, in the order the chain runs them.
    pub selections: Vec<BoundSelection>,
    /// Optional foreign-key join.
    pub fk_join: Option<FkJoinPlan>,
    /// Grouping columns (empty = global aggregation).
    pub group_by: Vec<String>,
    /// Aggregates (empty when the query is a plain projection).
    pub aggs: Vec<AggExpr>,
    /// Non-aggregate output expressions.
    pub project: Vec<(ScalarExpr, String)>,
    /// Co-factor columns the tail folds into its grouping (empty: none).
    /// The binder never sets them; the engine's bill does, where it prices
    /// the folded tail cheaper. The tail then groups by `group_by` ∪
    /// `fold`, accumulates one sum per measure plus a count, and rolls
    /// the fold groups up into the `group_by` groups: every aggregate
    /// argument is affine in its measure over the keys, Σ (c·x + d) =
    /// c·Σx + d·N.
    pub fold: Vec<String>,
}

impl ArPlan {
    /// Every column the plan touches (diagnostics, residency planning).
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.selections {
            if !out.contains(&s.column) {
                out.push(s.column.clone());
            }
        }
        if let Some(j) = &self.fk_join {
            if !out.contains(&j.fact_key) {
                out.push(j.fact_key.clone());
            }
        }
        for c in self.gathered_columns() {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// The columns the query tail materializes per surviving tuple — group
    /// keys, aggregate arguments, projections — in first-reference order,
    /// each exactly once. Both executors gather (and bill) this list, so
    /// a column referenced twice (`group by a, b, a`) can never be fetched
    /// or charged twice in one place and once in another.
    pub fn gathered_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in self.group_keys().iter().chain(&self.value_columns()) {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        out
    }

    /// The keys the tail groups by: `group_by`, then the folded
    /// co-factors.
    pub fn group_keys(&self) -> Vec<String> {
        self.group_by.iter().chain(&self.fold).cloned().collect()
    }

    /// The columns some aggregate argument or projection reads, in
    /// first-reference order — all the tail gathers into its slice block
    /// when a device grouping's ids stand in for the group keys. Under a
    /// fold, the measures: the argument columns no group key covers.
    pub fn value_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        let args = self.aggs.iter().filter_map(|a| a.arg.as_ref());
        for e in args.chain(self.project.iter().map(|(e, _)| e)) {
            e.collect_columns(&mut out);
        }
        if !self.fold.is_empty() {
            let keys = self.group_keys();
            out.retain(|c| !keys.contains(c));
        }
        out
    }

    /// The invariant behind the translucent join (§IV-A): the approximate
    /// selection chain must not be interrupted by order-changing
    /// refinement steps (§III-A). The plan structure enforces
    /// this by construction; this check exists for tests and debugging.
    pub fn validate(&self) -> Result<(), String> {
        if self.aggs.is_empty() && self.project.is_empty() {
            return Err("plan produces no output".into());
        }
        if !self.group_by.is_empty() && self.aggs.is_empty() {
            return Err("grouping without aggregates".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::logical::{AggFunc, BinOp};

    fn minimal_plan() -> ArPlan {
        ArPlan {
            table: "t".into(),
            selections: vec![],
            fk_join: None,
            group_by: vec![],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                alias: "n".into(),
            }],
            project: vec![],
            fold: vec![],
        }
    }

    #[test]
    fn validate_catches_empty_output() {
        let mut p = minimal_plan();
        assert!(p.validate().is_ok());
        p.aggs.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn referenced_columns_dedup() {
        let mut p = minimal_plan();
        p.selections.push(BoundSelection {
            column: "a".into(),
            range: RangePred::all(),
        });
        p.group_by.push("a".into());
        p.aggs.push(AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::col("b")),
            alias: "s".into(),
        });
        assert_eq!(p.referenced_columns(), vec!["a", "b"]);
        // A repeated group key is gathered once, in first-reference order.
        p.group_by = vec!["c".into(), "b".into(), "c".into()];
        assert_eq!(p.gathered_columns(), vec!["c", "b"]);
        assert_eq!(p.referenced_columns(), vec!["a", "c", "b"]);
        // A folded co-factor is a key; the measures are what no key covers.
        p.group_by = vec!["c".into()];
        p.aggs.push(AggExpr {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::col("e").binary(BinOp::Mul, ScalarExpr::col("b"))),
            alias: "t".into(),
        });
        p.fold = vec!["b".into()];
        assert_eq!(p.group_keys(), ["c", "b"]);
        assert_eq!(p.value_columns(), ["e"]);
        assert_eq!(p.gathered_columns(), ["c", "b", "e"]);
    }
}
