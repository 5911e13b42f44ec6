//! Per-stream accounting.
//!
//! Each [`bwd_engine::ExecMode`] stream accumulates its completed-query
//! count, simulated per-component cost (through the thread-safe
//! [`SharedLedger`]) and the wall-clock time its queries occupied worker
//! threads. The Figure 11 analysis reads these snapshots instead of
//! re-deriving costs from a model.

use bwd_device::{Breakdown, Component, SharedLedger, TrafficBytes};
use bwd_obs::metrics::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Point-in-time view of one query stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSnapshot {
    /// Queries completed successfully.
    pub queries: u64,
    /// Accumulated simulated component time.
    pub breakdown: Breakdown,
    /// Accumulated bytes moved per component.
    pub traffic: TrafficBytes,
    /// Wall-clock worker time spent executing this stream.
    pub busy: Duration,
    /// Wall-clock time this stream's queries spent waiting in the queue.
    pub queued: Duration,
    /// The longest any single query of this stream waited in the queue —
    /// the head-of-line-blocking tail the queue policy exists to shrink.
    pub max_queued: Duration,
    /// Sum of the per-job latency estimates
    /// ([`crate::PlanFootprint::latency`]) of this stream's completed
    /// queries, in simulated seconds; compare against
    /// `breakdown.total()` (the actual) via
    /// [`StreamSnapshot::estimate_ratio`].
    pub est_sim_seconds: f64,
}

impl StreamSnapshot {
    /// Mean per-query wall-clock queue wait (zero when idle).
    pub fn mean_queued(&self) -> Duration {
        if self.queries == 0 {
            return Duration::ZERO;
        }
        // `Duration / u32` would silently truncate the divisor past 2^32
        // queries (and panics at exactly 2^32, where the cast hits 0) —
        // long soaks would report wildly inflated means. Divide in u128
        // nanoseconds instead; the quotient of an achievable total by a
        // count ≥ 1 always fits back into u64 nanoseconds.
        Duration::from_nanos((self.queued.as_nanos() / u128::from(self.queries)) as u64)
    }

    /// Estimated over actual simulated seconds — `1.0` means the latency
    /// estimator predicted this stream's bill exactly, `>1`
    /// over-estimates, `<1` under-estimates. A truly idle stream (no
    /// estimate, no actual) reports `0`; a stream that was *estimated*
    /// to cost something but accumulated zero actual cost reports
    /// `+∞` rather than masquerading as idle.
    pub fn estimate_ratio(&self) -> f64 {
        let actual = self.breakdown.total();
        if actual > 0.0 {
            self.est_sim_seconds / actual
        } else if self.est_sim_seconds > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// Point-in-time view of one device in the pool.
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    /// The device's human-readable name (from its spec).
    pub name: String,
    /// A&R queries this device completed successfully.
    pub queries: u64,
    /// Underestimated queries that re-entered this device's admission
    /// queue at the worst-case reservation size.
    pub requeues: u64,
    /// Admission reservations on this device that had to queue.
    pub admission_waits: u64,
    /// Bytes currently reserved (persistent data + admitted working sets).
    pub used_bytes: u64,
    /// Estimated bytes of queries placed on this device but not yet
    /// admitted (the placement policy's queued-work term).
    pub pending_bytes: u64,
    /// High-water mark of reservations — provably ≤ `capacity_bytes`.
    pub peak_bytes: u64,
    /// The card's memory capacity.
    pub capacity_bytes: u64,
    /// This device's accumulated share of simulated query cost (kernel
    /// time + the PCI-E transfers that fed it), from the per-device
    /// [`SharedLedger`].
    pub breakdown: Breakdown,
    /// `true` while the card is marked offline (crossed its
    /// consecutive-fault threshold and no recovery probe has succeeded
    /// yet); offline cards take no new placements.
    pub offline: bool,
    /// Device faults since the last successful query on this card.
    pub consecutive_faults: u64,
    /// Times this card has transitioned online → offline.
    pub offline_events: u64,
}

/// Point-in-time view of the whole scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerStats {
    /// Jobs completed in total (success or error) — the source of
    /// [`crate::JobReport::completion_index`] stamps.
    pub completed: u64,
    /// The classic (CPU bulk) stream.
    pub classic: StreamSnapshot,
    /// The Approximate & Refine stream.
    pub approx_refine: StreamSnapshot,
    /// Queries that completed with an error.
    pub errors: u64,
    /// Admission reservations that had to queue at least once, summed
    /// over all devices.
    pub admission_waits: u64,
    /// Underestimated queries that re-entered a device queue at the
    /// worst-case size, summed over all devices.
    pub admission_requeues: u64,
    /// High-water mark of reservations on the *busiest* device (the
    /// maximum peak over the pool, as the Figure 11 runner's
    /// `ThroughputReport::device_peak_bytes` reports it); per-device
    /// values are in [`SchedulerStats::devices`].
    pub device_peak_bytes: u64,
    /// The capacity of that same busiest device, so the legacy
    /// `device_peak_bytes <= device_capacity_bytes` invariant keeps
    /// covering the card that actually hit the peak.
    pub device_capacity_bytes: u64,
    /// One snapshot per pool device, in pool order.
    pub devices: Vec<DeviceSnapshot>,
}

/// Thread-safe accumulator behind a [`StreamSnapshot`].
#[derive(Debug, Default)]
pub(crate) struct StreamAccum {
    /// The stream's `bwd_sched_queries_total{mode=…}` counter.
    queries: Counter,
    busy_nanos: AtomicU64,
    queued_nanos: AtomicU64,
    max_queued_nanos: AtomicU64,
    est_sim_nanos: AtomicU64,
    ledger: SharedLedger,
}

impl StreamAccum {
    pub fn new(queries: Counter) -> StreamAccum {
        StreamAccum {
            queries,
            ..StreamAccum::default()
        }
    }

    pub fn record(
        &self,
        breakdown: &Breakdown,
        traffic: &TrafficBytes,
        wall: Duration,
        queued: Duration,
        est_seconds: f64,
    ) {
        self.queries.inc();
        self.busy_nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.queued_nanos
            .fetch_add(queued.as_nanos() as u64, Ordering::Relaxed);
        self.max_queued_nanos
            .fetch_max(queued.as_nanos() as u64, Ordering::Relaxed);
        self.est_sim_nanos
            .fetch_add((est_seconds.max(0.0) * 1e9) as u64, Ordering::Relaxed);
        self.ledger.charge(
            Component::Device,
            "stream.query",
            breakdown.device,
            traffic.device,
        );
        self.ledger.charge(
            Component::Host,
            "stream.query",
            breakdown.host,
            traffic.host,
        );
        self.ledger.charge(
            Component::Pcie,
            "stream.query",
            breakdown.pcie,
            traffic.pcie,
        );
    }

    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            queries: self.queries.get(),
            breakdown: self.ledger.breakdown(),
            traffic: self.ledger.traffic(),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
            queued: Duration::from_nanos(self.queued_nanos.load(Ordering::Relaxed)),
            max_queued: Duration::from_nanos(self.max_queued_nanos.load(Ordering::Relaxed)),
            est_sim_seconds: self.est_sim_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with(queries: u64, queued: Duration) -> StreamSnapshot {
        StreamSnapshot {
            queries,
            breakdown: Breakdown::default(),
            traffic: TrafficBytes::default(),
            busy: Duration::ZERO,
            queued,
            max_queued: queued,
            est_sim_seconds: 0.0,
        }
    }

    #[test]
    fn mean_queued_handles_zero_and_small_counts() {
        assert_eq!(
            snapshot_with(0, Duration::ZERO).mean_queued(),
            Duration::ZERO
        );
        assert_eq!(
            snapshot_with(4, Duration::from_millis(10)).mean_queued(),
            Duration::from_micros(2500)
        );
    }

    #[test]
    fn mean_queued_survives_the_u32_boundary() {
        // `self.queued / self.queries as u32` truncated the divisor:
        // at exactly 2^32 queries the cast hit 0 (division panic), one
        // past it the mean was the raw total again. Both must divide
        // exactly now.
        let total = Duration::from_nanos(1) * u32::MAX * 3; // big, exact
        let at = snapshot_with(1u64 << 32, total).mean_queued();
        assert_eq!(at, Duration::from_nanos(total.as_nanos() as u64 >> 32));
        let past = snapshot_with((1u64 << 32) + 4, Duration::from_nanos((1u64 << 34) + 16));
        // (2^34 + 16) / (2^32 + 4) = 4 exactly.
        assert_eq!(past.mean_queued(), Duration::from_nanos(4));
    }
}
