//! Plans: classic logical algebra, the A&R physical plan, and the
//! `bwd_pipe` rewriter connecting them (§III, §V-B).

pub mod arplan;
pub mod logical;
pub mod rewrite;

pub use arplan::{split_column, ArPlan, BoundSelection, FkJoinPlan};
pub use logical::{AggExpr, AggFunc, BinOp, LogicalPlan, Predicate, ScalarExpr};
pub use rewrite::{rewrite, PlanResolver, RewriteOptions};
