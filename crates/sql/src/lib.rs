//! SQL front-end for the `waste-not` engine.
//!
//! Covers exactly the surface the paper's evaluation needs (Table I, the
//! TPC-H subset, the microbenchmarks, and the `bwdecompose` decomposition
//! statement of §V-A): single- and two-table SELECT with conjunctive range
//! and prefix-LIKE predicates, grouped aggregation, fixed-point arithmetic
//! including `CASE WHEN`, and date interval literals.
//!
//! ```
//! use bwd_sql::{parse, bind, BoundStatement};
//! use bwd_engine::{Catalog, Table};
//! use bwd_storage::Column;
//!
//! # fn main() -> bwd_types::Result<()> {
//! let mut catalog = Catalog::new();
//! catalog.add_table(Table::new("t", vec![("a".into(), Column::from_i32(vec![1, 2, 3]))])?)?;
//! // A malformed statement is a typed `BwdError::Parse`, an unknown table
//! // or column a `BwdError::Bind`: neither panics.
//! let stmt = parse("select count(*) from t where a >= 2")?;
//! let BoundStatement::Query(plan) = bind(&stmt, &catalog)? else { unreachable!() };
//! # let _ = plan;
//! # Ok(())
//! # }
//! ```

pub mod binder;
pub mod lexer;
pub mod parser;

pub use binder::{bind, BoundStatement};
pub use parser::{parse, Expr, Query, SelectItem, Statement};
