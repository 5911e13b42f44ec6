//! The A&R projection operator pair (§IV-C).
//!
//! **Approximation** — an invisible join / positional lookup of the
//! (over-approximated) candidate positions into the projected column's
//! device-resident approximation. The output is positionally aligned with
//! the candidate list, so the shared permutation survives.
//!
//! **Refinement** — "essentially a selection refinement without a
//! predicate": translucently join the surviving oids with the approximate
//! projection, then concatenate the residual bits to reconstruct exact
//! values. When the projected column is fully device-resident, no
//! refinement is necessary (the approximate projection *is* exact) — the
//! paper's Figure 4 `B` column.

use crate::column::BoundColumn;
use crate::translucent::translucent_join_with;
use bwd_device::{CostLedger, Env};
use bwd_kernels::gather::gather;
use bwd_kernels::Candidates;
use bwd_types::{Oid, Result};

/// Approximate projection: fetch the stored approximation of the projected
/// column for every candidate (device-side positional lookup).
pub fn project_approx(
    env: &Env,
    col: &BoundColumn,
    cands: &Candidates,
    ledger: &mut CostLedger,
) -> Vec<u64> {
    gather(env, col.approx(), cands, "project.approx.gather", ledger)
}

/// Refine a projection: align `survivors` (a subsequence of `cand_oids`
/// under the same permutation) with the approximate values via the
/// translucent join, then reconstruct exact payloads with the residual.
///
/// `cand_dense` passes the dense base when the candidate list is dense
/// (the invisible fast path). `charge_download` meters the transfer of
/// the approximate projection to the host.
#[allow(clippy::too_many_arguments)]
pub fn project_refine(
    env: &Env,
    col: &BoundColumn,
    cand_oids: &[Oid],
    cand_dense: Option<Oid>,
    approx_vals: &[u64],
    survivors: &[Oid],
    charge_download: bool,
    ledger: &mut CostLedger,
) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(survivors.len());
    translucent_join_with(
        cand_oids,
        approx_vals,
        cand_dense,
        survivors,
        |bi, stored| {
            out.push(col.reconstruct_with(survivors[bi], stored));
        },
    )?;
    charge_project_refine(
        env,
        col,
        cand_oids.len(),
        survivors.len(),
        charge_download,
        ledger,
    );
    Ok(out)
}

/// The simulated cost of a projection refinement over `n_cands` candidates
/// and `n_survivors` survivors. Split out so a morsel-parallel executor
/// that runs the translucent merge itself charges exactly what
/// [`project_refine`] would.
pub fn charge_project_refine(
    env: &Env,
    col: &BoundColumn,
    n_cands: usize,
    n_survivors: usize,
    charge_download: bool,
    ledger: &mut CostLedger,
) {
    if charge_download {
        let bytes =
            bwd_device::units::packed_stream_bytes(col.meta().stored_width(), n_cands as u64);
        env.charge_download("project.refine.download", bytes, ledger);
    }
    let merge_bytes = n_cands as u64 * 4;
    if col.meta().fully_device_resident() {
        // No residual exists: the "refinement" is the translucent merge
        // plus a decode per survivor — a streaming pass.
        env.charge_host_scan(
            "project.refine.decode",
            merge_bytes,
            n_survivors as u64,
            ledger,
        );
    } else {
        env.charge_host_scattered(
            "project.refine",
            col.residual_access_bytes(n_survivors) + merge_bytes,
            n_survivors as u64 * crate::ops::REFINE_OPS_PER_TUPLE,
            ledger,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            "p",
            &mut load,
        )
        .unwrap()
    }

    /// Approximate gather, download and refinement of `survivors`: the
    /// plan tail of `select ... project` queries (Fig 8d/8e).
    fn project_survivors(
        env: &Env,
        col: &BoundColumn,
        cands: &Candidates,
        survivors: &[Oid],
        ledger: &mut CostLedger,
    ) -> Result<Vec<i64>> {
        let approx = project_approx(env, col, cands, ledger);
        let dense = cands.dense.then_some(0);
        project_refine(
            env,
            col,
            &cands.oids,
            dense,
            &approx,
            survivors,
            true,
            ledger,
        )
    }

    fn scrambled_cands(oids: Vec<Oid>) -> Candidates {
        let mut c = Candidates {
            approx: vec![0; oids.len()],
            oids,
            sorted: false,
            dense: false,
        };
        c.refresh_flags();
        c
    }

    #[test]
    fn ar_projection_reconstructs_exact_values() {
        let vals: Vec<i64> = (0..10_000).map(|i| i * 7 % 9999).collect();
        let env = Env::paper_default();
        let col = bind(&env, &vals, 24);
        // Scrambled candidates; survivors = every other candidate.
        let cands = scrambled_cands(vec![17, 5, 9000, 3, 42, 777]);
        let survivors = vec![17, 9000, 42];
        let mut ledger = CostLedger::new();
        let out = project_survivors(&env, &col, &cands, &survivors, &mut ledger).unwrap();
        assert_eq!(out, vec![vals[17], vals[9000], vals[42]]);
        let b = ledger.breakdown();
        assert!(b.device > 0.0 && b.pcie > 0.0 && b.host > 0.0);
    }

    #[test]
    fn dense_candidates_take_invisible_path() {
        let vals: Vec<i64> = (0..1000).collect();
        let env = Env::paper_default();
        let col = bind(&env, &vals, 28);
        let cands = scrambled_cands((0..1000).collect()); // dense after refresh
        assert!(cands.dense);
        let mut ledger = CostLedger::new();
        let out = project_survivors(&env, &col, &cands, &[500, 2, 999], &mut ledger).unwrap();
        assert_eq!(out, vec![500, 2, 999]);
    }

    #[test]
    fn fully_resident_projection_needs_no_refinement() {
        let vals: Vec<i64> = (0..100).map(|i| i % 32).collect();
        let env = Env::paper_default();
        let col = bind(&env, &vals, 32);
        let cands = scrambled_cands(vec![3, 99, 31]);
        let mut ledger = CostLedger::new();
        let stored = project_approx(&env, &col, &cands, &mut ledger);
        let payloads: Vec<i64> = stored
            .iter()
            .map(|&s| col.meta().payload_from_parts(s, 0))
            .collect();
        assert_eq!(payloads, vec![vals[3], vals[99], vals[31]]);
    }

    #[test]
    fn empty_survivors() {
        let vals: Vec<i64> = (0..100).collect();
        let env = Env::paper_default();
        let col = bind(&env, &vals, 28);
        let cands = scrambled_cands(vec![5, 2]);
        let mut ledger = CostLedger::new();
        let out = project_survivors(&env, &col, &cands, &[], &mut ledger).unwrap();
        assert!(out.is_empty());
    }
}
