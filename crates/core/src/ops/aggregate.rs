//! The A&R aggregation operators (§IV-F, §IV-G).
//!
//! Aggregation handling depends on the function:
//!
//! * **count** — trivial: the refined survivor count.
//! * **sum / avg** — victims of *destructive distributivity* (§IV-G): a
//!   sum of products of decomposed values cannot be refined from
//!   per-device partial sums, so these are evaluated from **exact** values
//!   — on the device when every input column is fully device-resident
//!   (see [`bwd_kernels::reduce`]), on the host otherwise.
//! * **min / max** — the approximation must produce a *candidate set* that
//!   provably contains the true extremum even in the presence of selection
//!   false positives (Figure 6). The construction: among candidates whose
//!   selection granules are *certain* matches, take the best (smallest,
//!   for min) stored approximation `T`; every candidate with a stored
//!   approximation not worse than `T` might win and is kept. Refinement
//!   re-tests the selection precisely and minimizes exact values.

use crate::column::BoundColumn;
use bwd_device::{CostLedger, Env};
use bwd_kernels::gather::gather;
use bwd_kernels::reduce::{filter_ge, filter_le};
use bwd_kernels::Candidates;
use bwd_types::Oid;

/// Which extremum an extremum aggregation computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extremum {
    /// `min(...)`
    Min,
    /// `max(...)`
    Max,
}

/// The device-side approximate phase of an extremum aggregation: produce
/// the candidate set that provably contains the true extremum.
///
/// `is_certain(i)` must report whether candidate `i` (by position in
/// `cands`) is a *certain* selection match — its selection granule lies
/// entirely inside every precise predicate (see
/// [`crate::relax::classify_granule`]). With no selection at all, pass
/// `|_| true`.
pub fn extremum_approx(
    env: &Env,
    val_col: &BoundColumn,
    cands: &Candidates,
    is_certain: &dyn Fn(usize) -> bool,
    which: Extremum,
    ledger: &mut CostLedger,
) -> Candidates {
    if cands.is_empty() {
        return Candidates::empty();
    }
    // Device gather of the value approximations for all candidates.
    let stored = gather(env, val_col.approx(), cands, "agg.ext.gather", ledger);

    // Threshold: the best stored approximation among *certain* survivors.
    // A false positive may not survive refinement, so its (possibly
    // extreme) approximation cannot bound the candidate set — exactly the
    // failure Figure 6 illustrates.
    let mut threshold: Option<u64> = None;
    for (i, &s) in stored.iter().enumerate() {
        if is_certain(i) {
            threshold = Some(match (threshold, which) {
                (None, _) => s,
                (Some(t), Extremum::Min) => t.min(s),
                (Some(t), Extremum::Max) => t.max(s),
            });
        }
    }

    // Gathered values become the candidate payload for the filter kernels.
    let with_vals = Candidates {
        oids: cands.oids.clone(),
        approx: stored,
        sorted: cands.sorted,
        dense: cands.dense,
    };
    match (threshold, which) {
        // No certain survivor: every candidate may win.
        (None, _) => with_vals,
        (Some(t), Extremum::Min) => filter_le(
            env,
            val_col.approx(),
            &with_vals,
            t,
            "agg.min.filter",
            ledger,
        ),
        (Some(t), Extremum::Max) => filter_ge(
            env,
            val_col.approx(),
            &with_vals,
            t,
            "agg.max.filter",
            ledger,
        ),
    }
}

/// Refine an extremum: re-test the precise selection per candidate and
/// reduce over exact values. `survives(oid)` evaluates the precise
/// predicate (reconstructing whatever selection columns it needs — its
/// cost is charged by the caller's closure context).
pub fn extremum_refine(
    env: &Env,
    val_col: &BoundColumn,
    ext_cands: &Candidates,
    survives: &dyn Fn(Oid) -> bool,
    which: Extremum,
    ledger: &mut CostLedger,
) -> Option<i64> {
    ext_cands.download(
        env,
        val_col.meta().stored_width(),
        "agg.ext.download",
        ledger,
    );
    let mut best: Option<i64> = None;
    for (&oid, &stored) in ext_cands.oids.iter().zip(&ext_cands.approx) {
        if !survives(oid) {
            continue;
        }
        let v = val_col.reconstruct_with(oid, stored);
        best = Some(match (best, which) {
            (None, _) => v,
            (Some(b), Extremum::Min) => b.min(v),
            (Some(b), Extremum::Max) => b.max(v),
        });
    }
    env.charge_host_scattered(
        "agg.ext.refine",
        val_col.residual_access_bytes(ext_cands.len()),
        ext_cands.len() as u64,
        ledger,
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::select_approx;
    use crate::relax::{classify_granule, GranuleMatch, RangePred};
    use bwd_kernels::ScanOptions;
    use bwd_storage::{DecomposedColumn, DecompositionSpec};
    use bwd_types::DataType;

    fn bind(env: &Env, vals: &[i64], device_bits: u32) -> BoundColumn {
        let mut load = CostLedger::new();
        BoundColumn::bind(
            DecomposedColumn::decompose(
                vals,
                DataType::Int32,
                &DecompositionSpec::with_device_bits(device_bits),
            )
            .unwrap(),
            &env.device,
            "agg",
            &mut load,
        )
        .unwrap()
    }

    /// The Figure 6 scenario: the tuple with the minimal *approximate*
    /// value is a selection false positive; a naive "all tuples with the
    /// minimal approximation" candidate set would miss the true minimum.
    #[test]
    fn figure6_false_minimum_survives_ar() {
        // x: selection column; y: aggregated column. Granule = 4 payloads
        // (device_bits = 30 on 32-bit physical).
        // Precise query: select min(y) from r where x > 6.
        let x_vals: Vec<i64> = vec![4, 5, 7, 8, 9, 12];
        let y_vals: Vec<i64> = vec![90, 2, 50, 60, 70, 80];
        // Tuple 1 (x=5, y=2): false positive for "x > 6" after relaxation
        // (granule of 5 is [4,7] which overlaps x>6), with the smallest y.
        let env = Env::paper_default();
        let x = bind(&env, &x_vals, 30);
        let y = bind(&env, &y_vals, 30);
        assert_eq!(x.meta().resbits(), 2);

        let range = RangePred::from_cmp(crate::relax::CmpOp::Gt, 6).unwrap();
        let mut ledger = CostLedger::new();
        let cands = select_approx(&env, &x, &range, &ScanOptions::default(), &mut ledger);
        // The false positive is among the candidates.
        assert!(
            cands.oids.contains(&1),
            "x=5 must be a candidate of x>6 relaxed"
        );

        let x_meta = *x.meta();
        let cands_approx = cands.approx.clone();
        let is_certain = move |i: usize| {
            classify_granule(&x_meta, cands_approx[i], &range) == GranuleMatch::Certain
        };
        let min_cands = extremum_approx(&env, &y, &cands, &is_certain, Extremum::Min, &mut ledger);
        // The true minimum among exact matches is y=50 (oid 2).
        assert!(
            min_cands.oids.contains(&2),
            "candidate set {:?} must contain the true minimum's oid",
            min_cands.oids
        );

        let survives = |oid: Oid| range.test(x.reconstruct(oid));
        let m = extremum_refine(&env, &y, &min_cands, &survives, Extremum::Min, &mut ledger);
        assert_eq!(m, Some(50));
    }

    #[test]
    fn extremum_max_and_empty_cases() {
        let vals: Vec<i64> = vec![3, 17, 5, 17, 1];
        let env = Env::paper_default();
        let col = bind(&env, &vals, 30);
        let cands = Candidates {
            oids: (0..5).collect(),
            approx: vec![0; 5],
            sorted: true,
            dense: true,
        };
        let mut ledger = CostLedger::new();
        let max_cands = extremum_approx(&env, &col, &cands, &|_| true, Extremum::Max, &mut ledger);
        let m = extremum_refine(
            &env,
            &col,
            &max_cands,
            &|_| true,
            Extremum::Max,
            &mut ledger,
        );
        assert_eq!(m, Some(17));

        let empty = extremum_approx(
            &env,
            &col,
            &Candidates::empty(),
            &|_| true,
            Extremum::Min,
            &mut ledger,
        );
        assert!(empty.is_empty());
        assert_eq!(
            extremum_refine(&env, &col, &empty, &|_| true, Extremum::Min, &mut ledger),
            None
        );
    }

    #[test]
    fn no_certain_candidates_keeps_everything() {
        let vals: Vec<i64> = vec![10, 20, 30];
        let env = Env::paper_default();
        let col = bind(&env, &vals, 30);
        let cands = Candidates {
            oids: (0..3).collect(),
            approx: vec![0; 3],
            sorted: true,
            dense: true,
        };
        let mut ledger = CostLedger::new();
        let c = extremum_approx(&env, &col, &cands, &|_| false, Extremum::Min, &mut ledger);
        assert_eq!(
            c.len(),
            3,
            "without certainty the full candidate set is kept"
        );
    }
}
