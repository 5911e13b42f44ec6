//! Logical relational plans — the classic algebra the A&R rewriter
//! consumes (§V-B: plans are first generated conventionally, then a
//! micro-optimizer replaces classic operators with A&R pairs).
//!
//! The algebra covers the paper's evaluation workload: single-table
//! select/project/aggregate queries, grouped aggregation, and pre-indexed
//! foreign-key joins (star-schema OLAP). Literals stay as [`Value`]s here;
//! payload resolution (dates → days, decimals → scaled ints, strings →
//! dictionary codes) happens against the catalog when plans are bound.

use crate::relax::CmpOp;
use bwd_types::Value;

/// A scalar expression over column payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A column reference (possibly qualified, `table.column`).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary arithmetic.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// `CASE WHEN pred THEN a ELSE b END` (TPC-H Q14's conditional sum).
    Case {
        /// The condition.
        when: Box<Predicate>,
        /// Value when the condition holds.
        then: Box<ScalarExpr>,
        /// Value otherwise.
        otherwise: Box<ScalarExpr>,
    },
}

impl ScalarExpr {
    /// A column reference.
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Column(name.into())
    }

    /// `self op rhs`.
    pub fn binary(self, op: BinOp, rhs: ScalarExpr) -> Self {
        ScalarExpr::Binary {
            op,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// Collect every column referenced by the expression.
    pub fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            ScalarExpr::Column(c) => {
                if !out.contains(c) {
                    out.push(c.clone());
                }
            }
            ScalarExpr::Literal(_) => {}
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            ScalarExpr::Case {
                when,
                then,
                otherwise,
            } => {
                when.collect_columns(out);
                then.collect_columns(out);
                otherwise.collect_columns(out);
            }
        }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A filter predicate (conjunctive subset — the paper's workload has no
/// disjunctions over decomposed columns).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column op literal`.
    Cmp {
        /// The column.
        column: String,
        /// The comparison.
        op: CmpOp,
        /// The literal.
        value: Value,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// The column.
        column: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `column LIKE 'prefix%'` over an ordered dictionary.
    PrefixLike {
        /// The string column.
        column: String,
        /// The literal prefix.
        prefix: String,
    },
    /// Conjunction.
    And(Vec<Predicate>),
}

impl Predicate {
    /// Flatten nested conjunctions into a list of leaf predicates.
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
            match p {
                Predicate::And(ps) => ps.iter().for_each(|p| walk(p, out)),
                leaf => out.push(leaf),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Collect every column referenced.
    pub fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Predicate::Cmp { column, .. }
            | Predicate::Between { column, .. }
            | Predicate::PrefixLike { column, .. } => {
                if !out.contains(column) {
                    out.push(column.clone());
                }
            }
            Predicate::And(ps) => ps.iter().for_each(|p| p.collect_columns(out)),
        }
    }
}

/// Aggregate functions of the evaluation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)` (or `count(col)`; the workload has no NULLs, so they
    /// coincide).
    Count,
    /// `sum(expr)`.
    Sum,
    /// `avg(expr)`.
    Avg,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
}

/// One aggregate output.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The argument (`None` for `count(*)`).
    pub arg: Option<ScalarExpr>,
    /// Output column name.
    pub alias: String,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Filter rows.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The predicate.
        predicate: Predicate,
    },
    /// Pre-indexed foreign-key join: attach a dimension table through the
    /// fact table's key column. Dimension columns are referenced as
    /// `dim_table.column` downstream.
    FkJoin {
        /// Fact-side input.
        input: Box<LogicalPlan>,
        /// The fact table's foreign-key column.
        fact_key: String,
        /// The dimension table (its primary key is positional).
        dim_table: String,
    },
    /// Grouped (or global, when `group_by` is empty) aggregation.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Plain projection (non-aggregate output).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, alias)` outputs.
        exprs: Vec<(ScalarExpr, String)>,
    },
}

impl LogicalPlan {
    /// Scan constructor.
    pub fn scan(table: impl Into<String>) -> Self {
        LogicalPlan::Scan {
            table: table.into(),
        }
    }

    /// Append a filter.
    pub fn filter(self, predicate: Predicate) -> Self {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Append a foreign-key join.
    pub fn fk_join(self, fact_key: impl Into<String>, dim_table: impl Into<String>) -> Self {
        LogicalPlan::FkJoin {
            input: Box::new(self),
            fact_key: fact_key.into(),
            dim_table: dim_table.into(),
        }
    }

    /// Append an aggregation.
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggExpr>) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Append a projection.
    pub fn project(self, exprs: Vec<(ScalarExpr, String)>) -> Self {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten() {
        let p = Predicate::And(vec![
            Predicate::Cmp {
                column: "a".into(),
                op: CmpOp::Gt,
                value: Value::Int(1),
            },
            Predicate::And(vec![
                Predicate::Between {
                    column: "b".into(),
                    lo: Value::Int(0),
                    hi: Value::Int(9),
                },
                Predicate::PrefixLike {
                    column: "c".into(),
                    prefix: "PROMO".into(),
                },
            ]),
        ]);
        assert_eq!(p.conjuncts().len(), 3);
        let mut cols = Vec::new();
        p.collect_columns(&mut cols);
        assert_eq!(cols, vec!["a", "b", "c"]);
    }

    #[test]
    fn expr_columns() {
        // price * (1 - discount)
        let e = ScalarExpr::col("price").binary(
            BinOp::Mul,
            ScalarExpr::Literal(Value::Int(1)).binary(BinOp::Sub, ScalarExpr::col("discount")),
        );
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols, vec!["price", "discount"]);
    }

    #[test]
    fn builder_chain() {
        let plan = LogicalPlan::scan("lineitem")
            .filter(Predicate::Cmp {
                column: "l_shipdate".into(),
                op: CmpOp::Gt,
                value: Value::Int(100),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::col("l_extendedprice")),
                    alias: "revenue".into(),
                }],
            );
        match plan {
            LogicalPlan::Aggregate { input, .. } => match *input {
                LogicalPlan::Filter { input, .. } => {
                    assert_eq!(*input, LogicalPlan::scan("lineitem"));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
