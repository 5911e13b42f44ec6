//! Device placement: routing admitted A&R queries across the pool.
//!
//! Every device in the [`bwd_device::DevicePool`] gets its own
//! `DeviceSlot`: an [`AdmissionController`] over that card's real
//! [`bwd_device::DeviceMemory`] (whose FIFO wait queue *is* the
//! per-device admission queue) plus load accounting. `place` picks the
//! least-loaded slot per query; once placed, a query stays on its
//! device — including through the underestimate re-queue path, which
//! re-enters the same device's queue with an inflated reservation.
//!
//! Health is a three-state machine per card: *online* (serving) →
//! *offline* (after `OFFLINE_AFTER` consecutive faults; queued work
//! drains onto healthy cards because placement happens at dequeue time) →
//! *online* again once a recovery probe — a real allocation through the
//! card's fault-injected memory path — succeeds.

use crate::admission::AdmissionController;
use bwd_device::Device;
use bwd_obs::metrics::{Counter, Registry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Consecutive device faults (no intervening success) that take a card
/// offline.
pub(crate) const OFFLINE_AFTER: u64 = 3;

/// One device's scheduling state: its admission controller and the load
/// accounting the placement policy reads.
pub(crate) struct DeviceSlot {
    /// The card itself (spec, memory, per-device ledger).
    pub device: Arc<Device>,
    /// Admission over this card's memory.
    pub admission: AdmissionController,
    /// Estimated bytes of queries placed here but not yet admitted.
    pub pending_bytes: AtomicU64,
    /// A&R queries this device completed successfully.
    pub queries: Counter,
    /// Underestimated queries that re-entered this device's queue at the
    /// worst-case size.
    pub requeues: Counter,
    /// `true` while the card is marked offline after repeated faults.
    /// Offline cards take no new placements; recovery probes flip this
    /// back.
    offline: AtomicBool,
    /// Device faults since the last successful query on this card; a
    /// success resets it, crossing the configured threshold takes the
    /// card offline.
    pub consecutive_faults: AtomicU64,
    /// Times this card transitioned online → offline.
    pub offline_events: Counter,
    /// Placement passes observed while offline (drives the recovery-probe
    /// cadence).
    pub probe_clock: AtomicU64,
}

impl DeviceSlot {
    /// The slot of pool device `index`; its tallies are counters of
    /// `registry`, labelled with the index.
    pub fn new(
        device: Arc<Device>,
        deadline: Option<Duration>,
        index: usize,
        registry: &Registry,
    ) -> Self {
        let admission = AdmissionController::new(device.memory().clone(), deadline);
        let tally = |name: &str| {
            registry.counter(&format!("bwd_sched_device_{name}{{device=\"{index}\"}}"))
        };
        DeviceSlot {
            device,
            admission,
            pending_bytes: AtomicU64::new(0),
            queries: tally("queries_total"),
            requeues: tally("requeues_total"),
            offline: AtomicBool::new(false),
            consecutive_faults: AtomicU64::new(0),
            offline_events: tally("offline_events_total"),
            probe_clock: AtomicU64::new(0),
        }
    }

    /// Whether this card currently accepts new placements.
    pub fn is_online(&self) -> bool {
        !self.offline.load(Ordering::Acquire)
    }

    /// Account one device fault against this card. Crossing
    /// [`OFFLINE_AFTER`] consecutive faults takes the card offline;
    /// returns `true` exactly on that transition (so the caller
    /// counts/traces it once).
    pub fn record_fault(&self) -> bool {
        let faults = self.consecutive_faults.fetch_add(1, Ordering::AcqRel) + 1;
        if faults >= OFFLINE_AFTER && !self.offline.swap(true, Ordering::AcqRel) {
            self.offline_events.inc();
            return true;
        }
        false
    }

    /// Account a successfully completed query: the card is evidently
    /// serving, so the consecutive-fault streak resets.
    pub fn record_success(&self) {
        self.consecutive_faults.store(0, Ordering::Release);
    }

    /// Bring the card back online after a successful recovery probe,
    /// clearing its fault streak and probe clock.
    pub fn set_online(&self) {
        self.consecutive_faults.store(0, Ordering::Release);
        self.probe_clock.store(0, Ordering::Release);
        self.offline.store(false, Ordering::Release);
    }

    /// Current load: reserved bytes on the card plus estimated queued
    /// work. Replicated persistent data contributes the same offset on
    /// every device, so it cancels out of comparisons.
    pub fn load(&self) -> u64 {
        self.admission.memory().used() + self.pending_bytes.load(Ordering::Relaxed)
    }

    /// Account a query as queued on this device until the returned guard
    /// drops (i.e. until its reservation is admitted or abandoned).
    pub fn begin_pending(&self, bytes: u64) -> PendingWork<'_> {
        self.pending_bytes.fetch_add(bytes, Ordering::Relaxed);
        PendingWork { slot: self, bytes }
    }
}

/// RAII guard for a query's contribution to a device's queued load.
pub(crate) struct PendingWork<'a> {
    slot: &'a DeviceSlot,
    bytes: u64,
}

impl Drop for PendingWork<'_> {
    fn drop(&mut self) {
        self.slot
            .pending_bytes
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Pick the device for the next A&R query: the one with the least load,
/// where load = bytes currently reserved on the card (persistent columns
/// and admitted working sets) plus the estimated working sets of queries
/// already placed on it but not yet admitted. Ties break on fewest
/// queries served, then lowest index — so an idle pool still round-robins
/// instead of piling onto device 0.
///
/// Offline cards take no new work, and `avoid` (the device a retried
/// query just faulted on) is skipped as well. When that filtering leaves
/// nothing — every card offline, or `avoid` is the only card — the full
/// pool is used again: a recovery probe may revive a card before the job
/// reaches admission, and a query is never left unplaceable.
pub(crate) fn place(slots: &[DeviceSlot], avoid: Option<usize>) -> usize {
    debug_assert!(!slots.is_empty());
    let load = |&i: &usize| (slots[i].load(), slots[i].queries.get(), i);
    let healthy = (0..slots.len()).filter(|&i| slots[i].is_online() && avoid != Some(i));
    healthy
        .min_by_key(load)
        .or_else(|| (0..slots.len()).min_by_key(load))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_device::DeviceSpec;

    fn slots(n: usize) -> Vec<DeviceSlot> {
        let registry = Registry::new();
        (0..n)
            .map(|i| {
                let device = Arc::new(Device::new(DeviceSpec::gtx680()));
                DeviceSlot::new(device, None, i, &registry)
            })
            .collect()
    }

    #[test]
    fn least_loaded_prefers_empty_then_alternates_on_ties() {
        let s = slots(2);
        assert_eq!(place(&s, None), 0);
        let _pending = s[0].begin_pending(1000);
        assert_eq!(place(&s, None), 1);
        drop(_pending);
        // Equal load again: the served-query tie-break spreads work even
        // when queries complete before the next placement happens.
        s[0].queries.inc();
        assert_eq!(place(&s, None), 1);
    }

    #[test]
    fn least_loaded_counts_admitted_reservations() {
        let s = slots(2);
        let _permit = s[0].admission.admit_within(5000, None).unwrap();
        assert_eq!(place(&s, None), 1);
    }

    #[test]
    fn placement_skips_offline_and_avoided_devices() {
        let s = slots(3);
        // Device 0 would win on load; offline takes it out of the race.
        while !s[0].record_fault() {}
        assert!(!s[0].is_online());
        assert_eq!(place(&s, None), 1);
        // A retry avoiding device 1 lands on the remaining healthy card.
        assert_eq!(place(&s, Some(1)), 2);
        // Recovery clears the fault streak.
        s[0].set_online();
        assert!(s[0].is_online());
        assert_eq!(s[0].consecutive_faults.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn all_offline_still_places_rather_than_stranding_jobs() {
        let s = slots(2);
        for slot in &s {
            while !slot.record_fault() {}
        }
        let idx = place(&s, None);
        assert!(idx < 2);
        // Avoid-only-device degenerates the same way.
        let one = slots(1);
        assert_eq!(place(&one, Some(0)), 0);
    }

    #[test]
    fn health_machine_goes_offline_once_and_resets_on_success() {
        let s = slots(1);
        assert!(!s[0].record_fault());
        assert!(!s[0].record_fault());
        // A success between faults breaks the streak.
        s[0].record_success();
        assert!(!s[0].record_fault());
        assert!(!s[0].record_fault());
        assert!(s[0].record_fault(), "third consecutive fault trips");
        assert!(!s[0].record_fault(), "already offline: no second event");
        assert_eq!(s[0].offline_events.get(), 1);
        assert!(!s[0].is_online());
    }

    #[test]
    fn pending_guard_releases_on_drop() {
        let s = slots(1);
        {
            let _p = s[0].begin_pending(42);
            assert_eq!(s[0].load(), 42);
        }
        assert_eq!(s[0].load(), 0);
    }
}
