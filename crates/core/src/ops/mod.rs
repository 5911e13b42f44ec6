//! The Approximate & Refine operator pairs.
//!
//! Every classic relational operator is modeled as one *approximation*
//! operator (device-side, over lossily compressed data, producing a
//! candidate result) and one or more *refinement* operators (host-side,
//! combining candidates with residual bits into the exact result) — §III.
//!
//! The shared-permutation contract: approximation operators preserve the
//! candidate order of their inputs (projections write positionally;
//! chained selections filter in place), refinement operators produce
//! survivor lists that are subsequences of their candidate input. No
//! order-changing operator is ever placed between an approximation and its
//! refinement, so every refinement can align its inputs with the
//! translucent join.

pub mod aggregate;
pub mod join;
pub mod project;
pub mod select;

/// Host operations per refined tuple: the fused refinement loop performs a
/// residual fetch, the bitwise concatenation, the precise re-evaluation
/// and the output write per candidate. Calibrated against Fig 8b, where
/// refining ~100 M candidates costs several hundred milliseconds.
pub const REFINE_OPS_PER_TUPLE: u64 = 3;

pub use aggregate::{extremum_approx, extremum_refine, Extremum};
pub use join::{charge_fk_project_refine, FkIndex};
pub use project::{charge_project_refine, project_approx, project_refine};
pub use select::{select_approx, select_refine, Refined};
