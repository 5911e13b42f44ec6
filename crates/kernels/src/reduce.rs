//! Reduction (aggregation) kernels.
//!
//! Device-side aggregation comes in two flavours (§IV-F):
//!
//! * **exact** reductions over fully device-resident columns — when every
//!   significant bit is on the device, sums and counts need no refinement
//!   at all, so the device computes the final partials. [`GroupedAgg`] is
//!   the grouped case: which accumulator tables the kernel folds into, and
//!   what that costs, from one value;
//! * **candidate-producing** reductions for `min`/`max` over decomposed
//!   columns — the approximation alone cannot decide the winner, so the
//!   kernel returns every tuple whose granule could contain the true
//!   extremum (Figure 6 semantics), and the host refines.

use crate::array::DeviceArray;
use crate::candidates::Candidates;
use crate::group::{conflicts, WARP};
use crate::scan::BLOCK_ROWS;
use bwd_device::units::element_access_bytes;
use bwd_device::{CostLedger, DeviceSpec, Env};

/// Bytes of one device accumulator (an `i128` sum or a count, padded).
pub const ACCUMULATOR_BYTES: u64 = 16;

/// Grouped device aggregation into a table of `slots × accumulators`
/// accumulators, as `engine/tail.rs` does it on the host: every thread
/// block folds its rows into tables private to it, replicated across warp
/// lanes as often as shared memory allows, and a log-depth pass merges the
/// `blocks × replicas` tables pairwise. Sums and counts are monoid
/// homomorphisms, so the merged table equals the single-table fold bit for
/// bit (asserted with the tail's own sinks). A table past the shared-memory
/// budget is the one contended table in device memory.
///
/// The table is *sized* by its slots and *contended* by its groups — the
/// slots some row folds into; an empty slot attracts no lane. A table
/// addressed by a hash pre-grouping's dense ids has a slot per group
/// ([`GroupedAgg::new`]); one addressed by the packed key itself
/// ([`GroupedAgg::direct_slots`]) has `2^key_bits`, however few of them
/// the data occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedAgg {
    /// Accumulator updates: one per tuple per accumulator.
    pub updates: u64,
    /// Occupied slots: the groups.
    pub groups: u64,
    /// Bytes of one accumulator table (every slot of it).
    pub table_bytes: u64,
    /// Copies of the table a warp's lanes spread over.
    pub replicas: u64,
    /// Thread blocks holding private tables (0 past the budget).
    pub blocks: u64,
}

impl GroupedAgg {
    /// The aggregation of `rows` tuples into `groups` groups of
    /// `accumulators` distinct accumulators each on `device` (`sum(x)` and
    /// `avg(x)` share one), the table one slot per group.
    pub fn new(device: &DeviceSpec, rows: usize, accumulators: usize, groups: usize) -> GroupedAgg {
        GroupedAgg::slotted(device, rows, accumulators, groups as u64, groups as u64)
    }

    /// [`GroupedAgg::new`] over a table of `slots` slots of which the rows
    /// occupy `groups`.
    pub fn slotted(
        device: &DeviceSpec,
        rows: usize,
        accumulators: usize,
        slots: u64,
        groups: u64,
    ) -> GroupedAgg {
        let (rows, accumulators) = (rows as u64, accumulators as u64);
        let table_bytes = slots * accumulators * ACCUMULATOR_BYTES;
        let fits = table_bytes <= device.shared_mem_per_block;
        GroupedAgg {
            updates: rows * accumulators,
            groups,
            table_bytes,
            replicas: (device.shared_mem_per_block / table_bytes.max(1)).clamp(1, WARP),
            blocks: if fits {
                rows.div_ceil(BLOCK_ROWS as u64)
            } else {
                0
            },
        }
    }

    /// The placement rule of slot-addressed aggregation: the slots of a
    /// table indexed by a packed key of `key_bits` bits
    /// ([`crate::group::packed_key_of`]), when a full warp of its replicas
    /// still fits shared memory — `2^key_bits × accumulators × 16 B × WARP
    /// ≤ shared_mem_per_block`. Keeping every replica is what makes the
    /// accumulator updates cost exactly what they cost behind a hash
    /// pre-grouping of the same groups, whose smaller table replicates no
    /// further than a warp either. (Slot ids are `u32`, like group ids.)
    pub fn direct_slots(device: &DeviceSpec, key_bits: u32, accumulators: usize) -> Option<u64> {
        let slots = (key_bits < 32).then(|| 1u64 << key_bits)?;
        let warp_of_tables =
            slots.checked_mul(accumulators.max(1) as u64 * ACCUMULATOR_BYTES * WARP)?;
        (warp_of_tables <= device.shared_mem_per_block).then_some(slots)
    }

    /// Simulated seconds of the accumulator updates: atomics contending
    /// over `replicas × groups` cells per accumulator.
    pub fn update_seconds(&self, device: &DeviceSpec) -> f64 {
        self.updates as f64 * conflicts(self.replicas * self.groups) * device.atomic_conflict_cost
    }

    /// Simulated seconds of merging the private tables: one more launch
    /// streaming every replica once.
    pub fn merge_seconds(&self, device: &DeviceSpec) -> f64 {
        match self.blocks {
            0 => 0.0,
            blocks => {
                device.kernel_launch_overhead
                    + device.stream_seconds(blocks * self.replicas * self.table_bytes)
            }
        }
    }
}

/// Collect every candidate whose stored value is `<= threshold` (for a
/// minimum; the caller computes the threshold from the approximate minimum
/// plus the propagated error bound so the true winner provably survives —
/// the Figure 6 construction). Preserves candidate order.
pub fn filter_le(
    env: &Env,
    arr: &DeviceArray,
    cands: &Candidates,
    threshold: u64,
    label: &str,
    ledger: &mut CostLedger,
) -> Candidates {
    filter_by(env, arr, cands, |v| v <= threshold, label, ledger)
}

/// Collect every candidate whose stored value is `>= threshold` (maximum
/// dual of [`filter_le`]).
pub fn filter_ge(
    env: &Env,
    arr: &DeviceArray,
    cands: &Candidates,
    threshold: u64,
    label: &str,
    ledger: &mut CostLedger,
) -> Candidates {
    filter_by(env, arr, cands, |v| v >= threshold, label, ledger)
}

fn filter_by<P: Fn(u64) -> bool>(
    env: &Env,
    arr: &DeviceArray,
    cands: &Candidates,
    pred: P,
    label: &str,
    ledger: &mut CostLedger,
) -> Candidates {
    let mut oids = Vec::new();
    let mut approx = Vec::new();
    for &oid in &cands.oids {
        let v = arr.get(oid as usize);
        if pred(v) {
            oids.push(oid);
            approx.push(v);
        }
    }
    let touched = cands.len() as u64 * element_access_bytes(arr.width());
    env.charge_kernel_scattered(label, touched, cands.len() as u64, ledger);
    let mut c = Candidates {
        oids,
        approx,
        sorted: false,
        dense: false,
    };
    c.refresh_flags();
    c
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
            "v",
            &mut l,
        )
        .unwrap()
    }

    fn all_cands(n: usize) -> Candidates {
        Candidates {
            oids: (0..n as u32).collect(),
            approx: vec![0; n],
            sorted: true,
            dense: true,
        }
    }

    /// The accumulator-update seconds of the parent commit's model: one
    /// table in device memory, `1 + 31/groups` conflicts per update.
    fn global_update_seconds(device: &DeviceSpec, agg: &GroupedAgg) -> f64 {
        agg.updates as f64 * conflicts(agg.groups) * device.atomic_conflict_cost
    }

    fn with_shared(bytes: u64) -> DeviceSpec {
        DeviceSpec {
            shared_mem_per_block: bytes,
            ..DeviceSpec::gtx680()
        }
    }

    /// TPC-H Q1 on the GTX 680, all 2 892 672 survivors of SF 0.5: 3
    /// groups × 6 accumulators are 288 B, so a full warp of replicas fits
    /// 170 times over and the conflicts per update fall from `1 + 31/3` to
    /// `1 + 31/96`; the merge reads 32 replicas per 65 536-row block.
    #[test]
    fn q1_folds_into_a_warp_of_replicas() {
        let (gtx, rows) = (DeviceSpec::gtx680(), 2_892_672usize);
        let agg = GroupedAgg::new(&gtx, rows, 6, 3);
        assert_eq!(
            (agg.table_bytes, agg.replicas, agg.blocks, agg.updates),
            (288, 32, 45, 6 * rows as u64)
        );
        let updates = (6 * rows) as f64 * (1.0 + 31.0 / 96.0) * 0.5e-9;
        assert_eq!(agg.update_seconds(&gtx), updates);
        assert_eq!(
            agg.merge_seconds(&gtx),
            8e-6 + (45 * 32 * 288) as f64 / 192.2e9
        );
        assert!(agg.update_seconds(&gtx) * 8.5 < global_update_seconds(&gtx, &agg));
    }

    /// The placement rule on the GTX 680: Q1's 3 key bits × 6 accumulators
    /// replicate across a full warp in half the 48 KiB (8 × 6 × 16 × 32 =
    /// 24 576); a fourth key bit at 6 accumulators, or a seventh at one,
    /// does not fit. The table is sized by its 8 slots and contended by
    /// the 3 the data occupies: the updates cost what they cost behind a
    /// pre-grouping that found 3 groups, the merge streams all 8.
    #[test]
    fn a_warp_of_slot_tables_fits_or_the_rule_declines() {
        let (gtx, rows) = (DeviceSpec::gtx680(), 2_892_672usize);
        assert_eq!(GroupedAgg::direct_slots(&gtx, 3, 6), Some(8));
        assert_eq!(GroupedAgg::direct_slots(&gtx, 4, 6), Some(16)); // 49 152: the edge
        assert_eq!(GroupedAgg::direct_slots(&gtx, 4, 7), None);
        assert_eq!(GroupedAgg::direct_slots(&gtx, 5, 6), None);
        assert_eq!(GroupedAgg::direct_slots(&gtx, 6, 1), Some(64));
        assert_eq!(GroupedAgg::direct_slots(&gtx, 7, 1), None);
        assert_eq!(GroupedAgg::direct_slots(&gtx, 0, 1), Some(1));
        assert_eq!(
            GroupedAgg::direct_slots(&with_shared(u64::MAX), 32, 1),
            None
        );
        assert_eq!(GroupedAgg::direct_slots(&gtx, u32::MAX, 1), None);

        let (direct, hashed) = (
            GroupedAgg::slotted(&gtx, rows, 6, 8, 3),
            GroupedAgg::new(&gtx, rows, 6, 3),
        );
        assert_eq!(
            (direct.table_bytes, direct.replicas, direct.groups),
            (768, 32, 3)
        );
        assert_eq!(direct.update_seconds(&gtx), hashed.update_seconds(&gtx));
        assert_eq!(
            direct.merge_seconds(&gtx) - hashed.merge_seconds(&gtx),
            gtx.stream_seconds(45 * 32 * 768) - gtx.stream_seconds(45 * 32 * 288)
        );
    }

    /// The budget edge only moves the merge: a table that just fits has
    /// one replica per block and contends exactly like the global table;
    /// one group more and there is nothing to merge — the parent commit's
    /// bill, to the bit.
    #[test]
    fn the_bill_is_continuous_at_the_budget_edge() {
        let (gtx, rows) = (DeviceSpec::gtx680(), 1_000_000);
        for accumulators in [1, 2, 3, 8] {
            let edge =
                (gtx.shared_mem_per_block / (accumulators as u64 * ACCUMULATOR_BYTES)) as usize;
            let fits = GroupedAgg::new(&gtx, rows, accumulators, edge);
            assert_eq!((fits.replicas, fits.blocks), (1, 16));
            assert_eq!(
                fits.update_seconds(&gtx),
                global_update_seconds(&gtx, &fits)
            );
            assert!(fits.merge_seconds(&gtx) > 0.0);
            let past = GroupedAgg::new(&gtx, rows, accumulators, edge + 1);
            assert_eq!((past.replicas, past.blocks), (1, 0));
            assert_eq!(
                past.update_seconds(&gtx),
                global_update_seconds(&gtx, &past)
            );
            assert_eq!(past.merge_seconds(&gtx), 0.0);
        }
    }

    proptest::proptest! {
        /// More shared memory never means more contention, no budget
        /// contends worse than the global table, and the merge never
        /// streams more than one budget per block.
        #[test]
        fn contention_never_rises_with_shared_memory(
            rows in 0usize..5_000_000,
            accumulators in 1usize..=8,
            groups in 1usize..=5000,
            budgets in proptest::collection::vec(0u64..(1 << 20), 2..3),
        ) {
            let (small, large) = (budgets[0].min(budgets[1]), budgets[0].max(budgets[1]));
            let [a, b] = [small, large].map(|s| {
                let device = with_shared(s);
                let agg = GroupedAgg::new(&device, rows, accumulators, groups);
                assert!(agg.update_seconds(&device) <= global_update_seconds(&device, &agg));
                assert!(agg.blocks * agg.replicas * agg.table_bytes <= agg.blocks * s);
                agg.update_seconds(&device)
            });
            assert!(b <= a, "{small} B: {a} s, {large} B: {b} s");
        }

        /// Wherever the rule picks slot addressing, on any budget, the
        /// table keeps a full warp of replicas — so its updates cost what
        /// a hash pre-grouping's (one slot per group) cost over the same
        /// groups, however sparsely the slots are occupied.
        #[test]
        fn the_rule_keeps_a_full_warp_of_replicas(
            rows in 0usize..5_000_000,
            accumulators in 1usize..=8,
            key_bits in 0u32..=12,
            occupied in 0u64..=4096,
            budget in 0u64..(1 << 22),
        ) {
            let device = with_shared(budget);
            if let Some(slots) = GroupedAgg::direct_slots(&device, key_bits, accumulators) {
                let groups = occupied.min(slots);
                let direct = GroupedAgg::slotted(&device, rows, accumulators, slots, groups);
                let hashed = GroupedAgg::new(&device, rows, accumulators, groups as usize);
                assert_eq!((slots, direct.replicas, hashed.replicas), (1 << key_bits, WARP, WARP));
                assert_eq!(direct.update_seconds(&device), hashed.update_seconds(&device));
                assert!(direct.blocks * direct.replicas * direct.table_bytes <= direct.blocks * budget);
            }
        }

        /// Fewer groups, more conflicts (fig 8f's shape): wherever every
        /// replica's table divides the budget — group counts 3·2^k on the
        /// GTX 680's 3·2^14 B — contention never rises with the group
        /// count, in shared memory, across the edge and past it. (Between
        /// such counts a replica lost to rounding makes a sawtooth, which
        /// the global table's bill bounds from above.)
        #[test]
        fn contention_never_rises_with_the_group_count(
            rows in 0usize..5_000_000,
            log_accumulators in 0u32..=3,
            k in 0u32..14,
        ) {
            let gtx = DeviceSpec::gtx680();
            let [few, many] = [3usize << k, 6 << k].map(|groups| {
                GroupedAgg::new(&gtx, rows, 1 << log_accumulators, groups).update_seconds(&gtx)
            });
            assert!(many <= few, "{} groups: {few} s, {} groups: {many} s", 3 << k, 6 << k);
        }
    }

    #[test]
    fn threshold_filters() {
        let env = Env::paper_default();
        let a = arr(&env, 8, &[9, 3, 7, 3, 12]);
        let cands = all_cands(5);
        let mut l = CostLedger::new();
        let c = filter_le(&env, &a, &cands, 3, "min-cands", &mut l);
        assert_eq!(c.oids, vec![1, 3]);
        assert_eq!(c.approx, vec![3, 3]);
        let c = filter_ge(&env, &a, &cands, 9, "max-cands", &mut l);
        assert_eq!(c.oids, vec![0, 4]);
    }
}
