//! Device-memory admission control.
//!
//! The simulated card enforces a *real* 2 GB capacity; persistent
//! approximations already live there. Before an A&R query runs, the
//! scheduler reserves the query's transient working set
//! ([`crate::PlanFootprint::reservation`]) from the same
//! [`DeviceMemory`] — so concurrent co-processor queries are arbitrated
//! by actual byte accounting, not hope. A reservation that does not
//! currently fit *queues* (the blocking allocation wakes on every
//! release) instead of erroring; only a request larger than the whole
//! card fails fast, and a configurable deadline turns pathological waits
//! into [`bwd_types::BwdError::AdmissionTimeout`].

use bwd_device::{DeviceBuffer, DeviceMemory};
use bwd_types::Result;
use std::time::Duration;

/// Fixed per-query kernel scratch headroom (launch buffers, counters).
pub const KERNEL_SCRATCH_BYTES: u64 = 64 << 10;

/// Arbitrates the device between concurrent A&R queries.
///
/// Cloneable; all clones share the same underlying [`DeviceMemory`], so
/// reservations made anywhere count against the one card.
///
/// The reservation is a *throttle*, not a hard requirement of execution
/// (the simulated kernels perform no transient device allocations): each
/// request is clamped to the share of the card not already occupied when
/// the controller was built — i.e. everything that is not a persistent
/// column. A query the serial engine can execute is therefore never
/// rejected or indefinitely starved by admission, however pessimistic the
/// estimate; the clamp only reduces how much concurrency the reservation
/// blocks.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    memory: DeviceMemory,
    deadline: Option<Duration>,
    /// Largest reservation a single query may hold: the card minus the
    /// bytes resident at construction (persistent columns never release
    /// while serving, so waiting for more than this would deadlock).
    max_request: u64,
}

impl AdmissionController {
    /// A controller over `memory`, waiting at most `deadline` per
    /// reservation (`None` waits indefinitely).
    ///
    /// Build it *after* loading: the bytes resident right now are treated
    /// as permanent, and single-query reservations are capped at what
    /// remains.
    pub fn new(memory: DeviceMemory, deadline: Option<Duration>) -> Self {
        let max_request = memory.capacity().saturating_sub(memory.used());
        AdmissionController {
            memory,
            deadline,
            max_request,
        }
    }

    /// Reserve `bytes` (clamped to the card minus what was resident when
    /// the controller was built) of device memory, queueing FIFO until they
    /// fit or `deadline` passes (`None` waits indefinitely). The permit
    /// holds a real [`DeviceBuffer`]; dropping it releases the reservation
    /// and wakes queued requests. The scheduler uses this to clamp a deadlined
    /// query's admission wait to its remaining budget, so a query never
    /// sits in the reservation queue past its own expiry.
    pub fn admit_within(&self, bytes: u64, deadline: Option<Duration>) -> Result<AdmissionPermit> {
        let buffer = self
            .memory
            .alloc_blocking(bytes.min(self.max_request), deadline)?;
        Ok(AdmissionPermit { buffer })
    }

    /// The per-reservation deadline this controller was built with.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The device memory this controller arbitrates.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }
}

/// An admitted reservation; the query may run while this is alive.
#[derive(Debug)]
pub struct AdmissionPermit {
    buffer: DeviceBuffer,
}

impl AdmissionPermit {
    /// Reserved bytes.
    pub fn bytes(&self) -> u64 {
        self.buffer.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn permits_serialize_on_scarce_memory() {
        let mem = DeviceMemory::new(100);
        let ctrl = AdmissionController::new(mem.clone(), None);
        let first = ctrl.admit_within(70, ctrl.deadline).unwrap();
        assert_eq!(mem.used(), 70);
        let ctrl2 = ctrl.clone();
        let waiter = thread::spawn(move || ctrl2.admit_within(50, None).map(|p| p.bytes()));
        while mem.queued() == 0 {
            thread::yield_now();
        }
        drop(first);
        assert_eq!(waiter.join().unwrap().unwrap(), 50);
        assert!(mem.peak() <= 100);
    }

    #[test]
    fn admission_deadline_times_out_with_balanced_permits() {
        // Persistent data caps max_request at 60; a permit holding all 60
        // means a second 60-byte reservation can never fit until release.
        let mem = DeviceMemory::new(100);
        let _persistent = mem.alloc(40).unwrap();
        let ctrl = AdmissionController::new(mem.clone(), Some(Duration::from_millis(20)));
        let first = ctrl.admit_within(60, ctrl.deadline).unwrap();
        assert_eq!(first.bytes(), 60);
        match ctrl.admit_within(60, ctrl.deadline) {
            Err(bwd_types::BwdError::AdmissionTimeout { requested, .. }) => {
                assert_eq!(requested, 60)
            }
            other => panic!("expected AdmissionTimeout, got {other:?}"),
        }
        // The failed admission left the card's accounting untouched and
        // releasing the live permit restores full throughput.
        assert_eq!(mem.used(), 100);
        assert_eq!(mem.queued(), 0);
        drop(first);
        assert_eq!(mem.used(), 40);
        let again = ctrl.admit_within(60, ctrl.deadline).unwrap();
        assert_eq!(again.bytes(), 60);
    }

    #[test]
    fn oversized_estimates_clamp_to_the_non_persistent_share() {
        let mem = DeviceMemory::new(100);
        let _persistent = mem.alloc(40).unwrap();
        let ctrl = AdmissionController::new(mem.clone(), None);
        // An estimate far past the card still admits — clamped — instead
        // of failing a query the serial engine could run.
        let permit = ctrl.admit_within(1_000_000, ctrl.deadline).unwrap();
        assert_eq!(permit.bytes(), 60);
        assert_eq!(mem.used(), 100);
    }
}
