//! The A&R selection operator pair (§IV-B).
//!
//! **Approximation** — relax the predicate to granule boundaries
//! ([`crate::relax`]) and scan the device-resident approximation; the
//! result is a candidate superset of the exact answer, block-scrambled as
//! a parallel selection's output is.
//!
//! **Refinement** (Algorithm 2) — join the candidates with the persistent
//! residual (an invisible join: residual position = oid), reconstruct the
//! exact value by bitwise concatenation, re-evaluate the precise predicate
//! and drop false positives. When the refinement runs after *other*
//! refinements, the surviving oid list is a subsequence of this operator's
//! candidate list with the same permutation — the translucent join
//! (Algorithm 1) aligns them in one merge pass. Reconstruction, the
//! precise test and the join are fused into a single loop, as the paper
//! prescribes ("the two operations can be performed in one loop").

use crate::column::BoundColumn;
use crate::relax::{relax_to_stored, RangePred};
use crate::translucent::translucent_join_with;
use bwd_device::{CostLedger, Env};
use bwd_kernels::scan::{select_range, ScanOptions};
use bwd_kernels::Candidates;
use bwd_types::{Oid, Result};

/// The output of a refined selection: exact surviving tuples, in candidate
/// order (the shared permutation downstream refinements rely on).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Refined {
    /// Surviving tuple ids.
    pub oids: Vec<Oid>,
    /// Exact payloads of the selection column, aligned with `oids`.
    pub payloads: Vec<i64>,
}

impl Refined {
    /// Number of surviving tuples.
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// Whether no tuple survived.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }
}

/// Approximate selection over a full column: scan the device-resident
/// approximation with relaxed bounds.
pub fn select_approx(
    env: &Env,
    col: &BoundColumn,
    range: &RangePred,
    opts: &ScanOptions,
    ledger: &mut CostLedger,
) -> Candidates {
    match relax_to_stored(col.meta(), range) {
        None => Candidates::empty(),
        Some(r) => select_range(env, col.approx(), r.outer.0, r.outer.1, opts, ledger),
    }
}

/// Refine a selection (Algorithm 2).
///
/// * `approx_out` — the candidate list this column's approximate selection
///   produced (carries the stored approximations).
/// * `survivors` — oids that survived *earlier* refinements; must be a
///   subsequence of `approx_out.oids` under the same permutation. `None`
///   refines the full candidate list.
/// * `charge_download` — meter the PCI-E transfer of the candidate list
///   (the executor sets this on the first refinement that pulls a
///   device-resident list to the host).
pub fn select_refine(
    env: &Env,
    col: &BoundColumn,
    approx_out: &Candidates,
    survivors: Option<&[Oid]>,
    range: &RangePred,
    charge_download: bool,
    ledger: &mut CostLedger,
) -> Result<Refined> {
    if charge_download {
        if col.meta().fully_device_resident() {
            // No refinement work exists: the exact oid list crosses the
            // bus (values reconstruct by decoding, no residual join).
            env.charge_download(
                "select.refine.download",
                approx_out.len() as u64 * 4,
                ledger,
            );
        } else {
            approx_out.download(
                env,
                col.meta().stored_width(),
                "select.refine.download",
                ledger,
            );
        }
    }

    let mut out = Refined::default();
    let dense_base = approx_out.dense.then_some(0);
    let refined_n;

    match survivors {
        None => {
            refined_n = approx_out.len();
            out.oids.reserve(approx_out.len());
            for (&oid, &stored) in approx_out.oids.iter().zip(&approx_out.approx) {
                // Fused: invisible residual join + reconstruction + precise test.
                let payload = col.reconstruct_with(oid, stored);
                if range.test(payload) {
                    out.oids.push(oid);
                    out.payloads.push(payload);
                }
            }
        }
        Some(subset) => {
            refined_n = subset.len();
            out.oids.reserve(subset.len());
            // Translucent join: align survivors with their approximations.
            translucent_join_with(
                &approx_out.oids,
                &approx_out.approx,
                dense_base,
                subset,
                |bi, stored| {
                    let oid = subset[bi];
                    let payload = col.reconstruct_with(oid, stored);
                    if range.test(payload) {
                        out.oids.push(oid);
                        out.payloads.push(payload);
                    }
                },
            )?;
        }
    }

    // Host cost: scattered residual fetches + one reconstruct/test per
    // refined tuple; the translucent merge additionally streams the
    // candidate list.
    let merge_bytes = if survivors.is_some() {
        approx_out.len() as u64 * 4
    } else {
        0
    };
    if col.meta().fully_device_resident() {
        // Exact by construction: a sequential materialization pass.
        env.charge_host_scan(
            "select.refine.materialize",
            refined_n as u64 * 4 + merge_bytes,
            refined_n as u64,
            ledger,
        );
    } else {
        env.charge_host_scattered(
            "select.refine",
            col.residual_access_bytes(refined_n) + merge_bytes,
            refined_n as u64 * crate::ops::REFINE_OPS_PER_TUPLE + merge_bytes / 4,
            ledger,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_kernels::scan::{ScanRows, ScanSpec};
    use bwd_storage::{DecomposedColumn, DecompositionSpec};
    use bwd_types::DataType;
    use proptest::prelude::*;

    fn bind(vals: &[i64], device_bits: u32) -> (Env, BoundColumn) {
        let env = Env::paper_default();
        let dec = DecomposedColumn::decompose(
            vals,
            DataType::Int32,
            &DecompositionSpec::with_device_bits(device_bits),
        )
        .unwrap();
        let mut load = CostLedger::new();
        let col = BoundColumn::bind(dec, &env.device, "c", &mut load).unwrap();
        (env, col)
    }

    /// Approximate selection and immediate refinement of one predicate:
    /// the single-operator microbenchmark shape (Fig 8a/8b).
    fn select_refined(
        env: &Env,
        col: &BoundColumn,
        range: &RangePred,
        opts: &ScanOptions,
        ledger: &mut CostLedger,
    ) -> Result<Refined> {
        let cands = select_approx(env, col, range, opts, ledger);
        select_refine(env, col, &cands, None, range, true, ledger)
    }

    fn exact_select(vals: &[i64], range: &RangePred) -> Vec<Oid> {
        (0..vals.len() as Oid)
            .filter(|&i| range.test(vals[i as usize]))
            .collect()
    }

    #[test]
    fn ar_selection_equals_exact_result() {
        let vals: Vec<i64> = (0..20_000).map(|i| (i * 17) % 10_000).collect();
        for device_bits in [20, 24, 28, 32] {
            let (env, col) = bind(&vals, device_bits);
            let range = RangePred::between(1000, 2000);
            let mut ledger = CostLedger::new();
            let refined =
                select_refined(&env, &col, &range, &ScanOptions::default(), &mut ledger).unwrap();
            let mut got = refined.oids.clone();
            got.sort_unstable();
            assert_eq!(
                got,
                exact_select(&vals, &range),
                "device_bits={device_bits}"
            );
            for (&oid, &p) in refined.oids.iter().zip(&refined.payloads) {
                assert_eq!(p, vals[oid as usize]);
            }
        }
    }

    #[test]
    fn approximation_is_superset_with_bounded_slack() {
        let vals: Vec<i64> = (0..8192).collect();
        let (env, col) = bind(&vals, 24); // granule 256
        let range = RangePred::between(1000, 1999);
        let mut ledger = CostLedger::new();
        let cands = select_approx(&env, &col, &range, &ScanOptions::default(), &mut ledger);
        let exact = exact_select(&vals, &range);
        assert!(cands.len() >= exact.len());
        // Slack bounded by one granule on each side.
        for &oid in &cands.oids {
            let v = vals[oid as usize];
            assert!((1000 - 255..=1999 + 255).contains(&v), "{v}");
        }
    }

    #[test]
    fn chained_refinement_via_translucent_join() {
        // Two columns, conjunctive predicate; refine column A against the
        // survivors of... the approximate chain, then column B.
        let a_vals: Vec<i64> = (0..150_000).map(|i| i % 1000).collect();
        let b_vals: Vec<i64> = (0..150_000).map(|i| (i / 3) % 500).collect();
        let env = Env::paper_default();
        let mut load = CostLedger::new();
        let col_a = BoundColumn::bind(
            DecomposedColumn::decompose(
                &a_vals,
                DataType::Int32,
                &DecompositionSpec::with_device_bits(26),
            )
            .unwrap(),
            &env.device,
            "a",
            &mut load,
        )
        .unwrap();
        let col_b = BoundColumn::bind(
            DecomposedColumn::decompose(
                &b_vals,
                DataType::Int32,
                &DecompositionSpec::with_device_bits(26),
            )
            .unwrap(),
            &env.device,
            "b",
            &mut load,
        )
        .unwrap();

        let ra = RangePred::between(100, 300);
        let rb = RangePred::between(50, 99);
        let mut ledger = CostLedger::new();
        let opts = ScanOptions::default();
        // Approximate subplan: chain the two relaxed selections.
        let ca = select_approx(&env, &col_a, &ra, &opts, &mut ledger);
        let (lo, hi) = relax_to_stored(col_b.meta(), &rb).unwrap().outer;
        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        ScanSpec::new(col_b.approx(), None, lo, hi, Some(ca.len())).emit(
            ScanRows::Oids(&ca.oids),
            &mut oids,
            &mut approx,
        );
        let cb = Candidates::from_pairs(oids, approx);
        // Refinement: refine A over the chained candidates, then B over
        // A's survivors.
        let refined_a =
            select_refine(&env, &col_a, &ca, Some(&cb.oids), &ra, true, &mut ledger).unwrap();
        let refined_b = select_refine(
            &env,
            &col_b,
            &cb,
            Some(&refined_a.oids),
            &rb,
            true,
            &mut ledger,
        )
        .unwrap();

        let mut got = refined_b.oids.clone();
        got.sort_unstable();
        let expect: Vec<Oid> = (0..a_vals.len() as Oid)
            .filter(|&i| ra.test(a_vals[i as usize]) && rb.test(b_vals[i as usize]))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_range_short_circuits() {
        let vals: Vec<i64> = (0..100).collect();
        let (env, col) = bind(&vals, 28);
        let mut ledger = CostLedger::new();
        let c = select_approx(
            &env,
            &col,
            &RangePred::between(5000, 6000),
            &ScanOptions::default(),
            &mut ledger,
        );
        assert!(c.is_empty());
        assert_eq!(
            ledger.breakdown().device,
            0.0,
            "provably-empty selection must not scan"
        );
    }

    #[test]
    fn fully_resident_column_has_no_false_positives() {
        let vals: Vec<i64> = (0..1000).map(|i| i % 50).collect();
        let (env, col) = bind(&vals, 32);
        assert!(col.meta().fully_device_resident());
        let range = RangePred::between(10, 20);
        let mut ledger = CostLedger::new();
        let cands = select_approx(&env, &col, &range, &ScanOptions::default(), &mut ledger);
        assert_eq!(cands.len(), exact_select(&vals, &range).len());
    }

    #[test]
    fn refine_charges_host_and_pcie() {
        let vals: Vec<i64> = (0..10_000).collect();
        let (env, col) = bind(&vals, 24);
        let mut ledger = CostLedger::new();
        let _ = select_refined(
            &env,
            &col,
            &RangePred::between(0, 5000),
            &ScanOptions::default(),
            &mut ledger,
        )
        .unwrap();
        let b = ledger.breakdown();
        assert!(b.device > 0.0 && b.host > 0.0 && b.pcie > 0.0, "{b}");
    }

    proptest! {
        #[test]
        fn prop_ar_select_matches_scalar_filter(
            vals in proptest::collection::vec(-3_000i64..3_000, 1..400),
            device_bits in 20u32..=32,
            lo in -4_000i64..4_000,
            span in 0i64..3_000,
        ) {
            let (env, col) = bind(&vals, device_bits);
            let range = RangePred::between(lo, lo + span);
            let mut ledger = CostLedger::new();
            let refined = select_refined(&env, &col, &range, &ScanOptions::default(), &mut ledger).unwrap();
            let mut got = refined.oids.clone();
            got.sort_unstable();
            prop_assert_eq!(got, exact_select(&vals, &range));
        }
    }
}
