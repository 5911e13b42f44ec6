//! A MonetDB-like column engine with two execution pipelines.
//!
//! The engine hosts the paper's evaluation setup end to end:
//!
//! * [`catalog`] — tables of fully-decomposed columns (the logical schema);
//! * [`database`] — the facade: `bwdecompose()` (§V-A), pre-built
//!   foreign-key indexes, plan binding, and execution through either the
//!   **classic pipe** ([`classic`], CPU bulk processing — the baseline) or
//!   the **bwd pipe** ([`arexec`], Approximate & Refine co-processing);
//! * [`bill`] — the cost model, once: what a plan *shape* costs over a set
//!   of *counts*. The executors bill what they counted, the scheduler
//!   what it predicts, and [`bill::order`] picks the plan a run executes;
//! * [`eval`] / [`tail`] — the slice-at-a-time query tail (gather → group
//!   → evaluate → aggregate) with exact scaled-integer expression
//!   evaluation, shared by both pipes, guaranteeing bit-identical results.

pub mod arexec;
pub mod bill;
pub mod catalog;
pub mod classic;
pub mod database;
pub mod eval;
pub(crate) mod morsel;
pub mod result;
pub mod tail;

pub use arexec::{run_ar_in, ArExecOptions, CandidateRep, BITMAP_MIN_SELECTIVITY};
pub use bill::{Counts, RefineCounts, Shape, Transient};
pub use catalog::{Catalog, FkDecl, Occupancy, Table};
pub use database::{Database, DecompositionReport, ExecMode};
pub use result::{ApproxAnswer, QueryResult};
