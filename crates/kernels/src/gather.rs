//! Gather (positional lookup) kernels — the device side of projections and
//! foreign-key joins.
//!
//! A projection in a late-materializing column store is an *invisible
//! join*: the value's location follows from the tuple id (§IV-C). On the
//! device this is a scattered read of one packed element per candidate.
//! A pre-indexed foreign-key join (§IV-D) is the same operation with one
//! extra indirection through the device-resident key column — which is why
//! the paper's implementation shares code between the two.

use crate::array::DeviceArray;
use crate::candidates::Candidates;
use bwd_device::units::{element_access_bytes, packed_stream_bytes};
use bwd_device::{CostLedger, Env};

/// Fetch `arr[oid]` for every candidate. The result is positionally
/// aligned with the candidate list (the projection writes each value at
/// its input's position, which is what keeps the shared permutation —
/// §IV-A item 2).
pub fn gather(
    env: &Env,
    arr: &DeviceArray,
    cands: &Candidates,
    label: &str,
    ledger: &mut CostLedger,
) -> Vec<u64> {
    let mut out = vec![0u64; cands.len()];
    if cands.dense {
        // Dense candidates are `0..n`: the gather is a straight bulk
        // decode, no positional lookups at all.
        arr.data().unpack_range(0, &mut out);
    } else {
        for (slot, &o) in out.iter_mut().zip(&cands.oids) {
            *slot = arr.get(o as usize);
        }
    }
    charge_gather(env, arr, cands.dense, cands.len(), label, ledger);
    out
}

/// The simulated cost of a [`gather`] of `n` candidates (dense candidates
/// stream coalesced; scattered ones pay the random-access rate). Split out
/// so the engine's bill, which reads the arrays itself, charges exactly
/// what the kernel would. A gather over zero rows launches nothing.
pub fn charge_gather(
    env: &Env,
    arr: &DeviceArray,
    dense: bool,
    n: usize,
    label: &str,
    ledger: &mut CostLedger,
) {
    if n == 0 {
        return;
    }
    if dense {
        // Dense candidates read the array front to back: perfectly
        // coalesced, so charge the sequential stream rate.
        env.charge_kernel(
            label,
            arr.packed_bytes() + out_bytes(arr.width(), n),
            n as u64,
            ledger,
        );
    } else {
        let touched = n as u64 * element_access_bytes(arr.width()) + out_bytes(arr.width(), n);
        env.charge_kernel_scattered(label, touched, n as u64, ledger);
    }
}

/// The simulated cost of fetching `values[link[oid]]` for `n` candidates:
/// a foreign-key join through a device-resident key column, e.g.
/// `part[lineitem.partkey]`.
pub fn charge_gather_indirect(
    env: &Env,
    values: &DeviceArray,
    link: &DeviceArray,
    n: usize,
    label: &str,
    ledger: &mut CostLedger,
) {
    if n == 0 {
        return;
    }
    let touched = n as u64
        * (element_access_bytes(link.width()) + element_access_bytes(values.width()))
        + out_bytes(values.width(), n);
    env.charge_kernel_scattered(label, touched, 2 * n as u64, ledger);
}

fn out_bytes(width_bits: u32, n: usize) -> u64 {
    packed_stream_bytes(width_bits, n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_storage::BitPackedVec;

    fn arr(env: &Env, width: u32, vals: &[u64]) -> DeviceArray {
        let mut l = CostLedger::new();
        DeviceArray::upload(
            &env.device,
            BitPackedVec::from_slice(width, vals),
            "t",
            &mut l,
        )
        .unwrap()
    }

    fn cands(oids: Vec<u32>) -> Candidates {
        let n = oids.len();
        let mut c = Candidates {
            oids,
            approx: vec![0; n],
            sorted: false,
            dense: false,
        };
        c.refresh_flags();
        c
    }

    #[test]
    fn gather_aligns_with_candidates() {
        let env = Env::paper_default();
        let a = arr(&env, 16, &(0..1000u64).map(|i| i * 3).collect::<Vec<_>>());
        let c = cands(vec![5, 2, 999, 0]);
        let mut ledger = CostLedger::new();
        let out = gather(&env, &a, &c, "proj", &mut ledger);
        assert_eq!(out, vec![15, 6, 2997, 0]);
        assert!(ledger.breakdown().device > 0.0);
    }

    #[test]
    fn indirect_costs_more_than_direct() {
        let env = Env::paper_default();
        let vals = arr(&env, 32, &(0..10_000u64).collect::<Vec<_>>());
        let link = arr(
            &env,
            14,
            &(0..10_000u64).map(|i| i % 10_000).collect::<Vec<_>>(),
        );
        let c = cands((0..5000u32).collect());
        let mut l_direct = CostLedger::new();
        let mut l_indirect = CostLedger::new();
        let _ = gather(&env, &vals, &c, "d", &mut l_direct);
        charge_gather_indirect(&env, &vals, &link, c.len(), "i", &mut l_indirect);
        assert!(l_indirect.breakdown().device > l_direct.breakdown().device);
    }

    /// A gather over zero rows launches no kernel: no event, no launch
    /// overhead — dense, scattered or through a link.
    #[test]
    fn empty_candidates_launch_nothing() {
        let env = Env::paper_default();
        let a = arr(&env, 8, &[1, 2, 3]);
        let mut ledger = CostLedger::with_trace();
        assert!(gather(&env, &a, &Candidates::empty(), "p", &mut ledger).is_empty());
        charge_gather(&env, &a, true, 0, "p", &mut ledger);
        charge_gather_indirect(&env, &a, &a, 0, "p", &mut ledger);
        assert!(ledger.events().is_empty());
        assert_eq!(ledger.breakdown().total(), 0.0);
        charge_gather(&env, &a, false, 1, "p", &mut ledger);
        assert_eq!(ledger.events().len(), 1);
    }
}
