//! The correctness gate: every wire response is compared with a serial
//! reference computed at set-up on the same `Database`.
//!
//! Rows must equal the Classic serial rows in either mode; the simulated
//! cost breakdown and the byte traffic must equal the serial run *of the
//! same mode* bit for bit (the repo's invariant 7). A `Busy`, an error
//! frame, a reconnect or an unexpected frame counts as a failed request.

use crate::gen::Plan;
use crate::setup::bind_sql;
use crate::Res;
use std::collections::BTreeMap;
use waste_not::net::WireMode;
use waste_not::{Database, ExecMode, QueryResult};

/// Serial results of one statement.
pub struct Reference {
    /// `run_bound(plan, Classic)`.
    pub classic: QueryResult,
    /// `run_bound(plan, ApproxRefine)`, when the workload runs A&R.
    pub ar: Option<QueryResult>,
}

/// References by statement index of a [`Plan`].
pub struct References {
    by_statement: Vec<Option<Reference>>,
}

impl References {
    /// Compute the references `needs` asks for: statement index → whether
    /// the A&R serial run is needed too (its rows must equal Classic's).
    pub fn compute(db: &Database, plan: &Plan, needs: &BTreeMap<usize, bool>) -> Res<References> {
        let mut by_statement: Vec<Option<Reference>> =
            plan.statements.iter().map(|_| None).collect();
        for (&idx, &with_ar) in needs {
            let sql = &plan.statements[idx].1;
            let bound = bind_sql(db, sql)?;
            let classic = db.run_bound(&bound, ExecMode::Classic)?;
            let ar = if with_ar {
                let ar = db.run_bound(&bound, ExecMode::ApproxRefine)?;
                if ar.rows != classic.rows {
                    return Err(format!("A&R and Classic serial rows differ for: {sql}").into());
                }
                Some(ar)
            } else {
                None
            };
            by_statement[idx] = Some(Reference { classic, ar });
        }
        Ok(References { by_statement })
    }

    /// The reference of `statement` for `mode`.
    ///
    /// # Panics
    /// If the workload sends a statement it computed no reference for —
    /// a harness bug, not a measurement outcome.
    pub fn get(&self, statement: usize, mode: WireMode) -> &QueryResult {
        let r = self.by_statement[statement]
            .as_ref()
            .expect("reference computed for every statement a workload sends");
        match mode {
            WireMode::Classic => &r.classic,
            WireMode::ApproxRefine => r.ar.as_ref().expect("A&R reference computed"),
        }
    }

    /// Classic serial rows of `statement`.
    pub fn rows(&self, statement: usize) -> &[Vec<waste_not::Value>] {
        &self.by_statement[statement]
            .as_ref()
            .expect("reference computed for every statement a workload sends")
            .classic
            .rows
    }
}

/// Does `got` equal the serial reference — rows against Classic, cost
/// and traffic bits against the same mode's serial run?
pub fn matches(got: &QueryResult, rows: &[Vec<waste_not::Value>], same_mode: &QueryResult) -> bool {
    let b = (&got.breakdown, &same_mode.breakdown);
    got.rows == rows
        && b.0.device.to_bits() == b.1.device.to_bits()
        && b.0.host.to_bits() == b.1.host.to_bits()
        && b.0.pcie.to_bits() == b.1.pcie.to_bits()
        && got.traffic == same_mode.traffic
}

/// Attempt/failure tally of one generator thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were shed, or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Record one response; returns it when it passed the gate.
    pub fn record<'r>(
        &mut self,
        refs: &References,
        statement: usize,
        mode: WireMode,
        response: &'r waste_not::Result<QueryResult>,
    ) -> Option<&'r QueryResult> {
        self.attempted += 1;
        match response {
            Ok(got) if matches(got, refs.rows(statement), refs.get(statement, mode)) => Some(got),
            Ok(_) => {
                self.failed += 1;
                eprintln!("MISMATCH: statement {statement} in {mode:?} differs from serial");
                None
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED: statement {statement} in {mode:?}: {e}");
                None
            }
        }
    }

    /// Sum of two tallies.
    pub fn plus(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waste_not::device::TrafficBytes;
    use waste_not::{Breakdown, Value};

    fn result(count: i64, host_seconds: f64, host_bytes: u64) -> QueryResult {
        QueryResult {
            columns: vec!["n".into()],
            rows: vec![vec![Value::Int(count)]],
            breakdown: Breakdown {
                host: host_seconds,
                ..Breakdown::default()
            },
            traffic: TrafficBytes {
                host: host_bytes,
                ..TrafficBytes::default()
            },
            survivors: count as usize,
            approx: None,
        }
    }

    #[test]
    fn gate_compares_rows_cost_bits_and_traffic() {
        let reference = result(42, 0.25, 1_000);
        assert!(matches(
            &result(42, 0.25, 1_000),
            &reference.rows,
            &reference
        ));
        assert!(!matches(
            &result(41, 0.25, 1_000),
            &reference.rows,
            &reference
        ));
        let one_ulp_off = f64::from_bits(0.25f64.to_bits() + 1);
        assert!(!matches(
            &result(42, one_ulp_off, 1_000),
            &reference.rows,
            &reference
        ));
        assert!(!matches(
            &result(42, 0.25, 1_001),
            &reference.rows,
            &reference
        ));
    }
}
