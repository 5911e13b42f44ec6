//! Query results.

use bwd_device::{Breakdown, TrafficBytes};
use bwd_types::Value;
use std::fmt;

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

impl QueryResult {
    /// The single value of a one-row, one-column result (aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => self.rows.first().and_then(|r| r.first()),
            _ => None,
        }
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        write!(
            f,
            "-- {} rows, {} survivors, {}",
            self.rows.len(),
            self.survivors,
            self.breakdown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessor() {
        let r = QueryResult {
            columns: vec!["n".into()],
            rows: vec![vec![Value::Int(42)]],
            breakdown: Breakdown::default(),
            traffic: TrafficBytes::default(),
            survivors: 42,
            approx: None,
        };
        assert_eq!(r.scalar(), Some(&Value::Int(42)));
        let multi = QueryResult {
            columns: vec!["a".into(), "b".into()],
            rows: vec![],
            ..r.clone()
        };
        assert_eq!(multi.scalar(), None);
        let shown = r.to_string();
        assert!(shown.contains("42"));
    }
}
