//! Query results.

use bwd_device::{Breakdown, TrafficBytes};
use bwd_types::Value;

/// The answer produced *before* any refinement ran: the approximation
/// subplan is self-contained (§III), so this is available early and "at no
/// additional cost".
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxAnswer {
    /// Number of candidate tuples after the approximate selection chain
    /// (an upper bound on the exact match count).
    pub candidate_count: usize,
    /// Simulated time spent when this answer became available.
    pub breakdown: Breakdown,
}

/// A fully-refined query result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows (sorted by the grouping key for determinism).
    pub rows: Vec<Vec<Value>>,
    /// Simulated per-component cost of the execution.
    pub breakdown: Breakdown,
    /// Bytes moved per component (the multi-stream scheduler uses the
    /// host traffic to account memory-bandwidth interference).
    pub traffic: TrafficBytes,
    /// Number of tuples that survived all predicates.
    pub survivors: usize,
    /// The early approximate answer (A&R executions only).
    pub approx: Option<ApproxAnswer>,
}
