//! Device memory management.
//!
//! The simulator enforces a *real* capacity limit: allocations beyond the
//! configured device memory fail with [`BwdError::DeviceOutOfMemory`],
//! which is what forces the space-constrained configurations of the
//! paper's evaluation (a 2 GB card cannot hold the 1.8 GB spatial
//! coordinate data plus working space, §VI-C2 — so the columns must be
//! decomposed). Buffers free their reservation on drop.
//!
//! [`DeviceMemory`] is `Send + Sync` (interior mutability behind a
//! `Mutex`) and cheap to clone, so concurrent query sessions share one
//! memory system. Two allocation disciplines coexist:
//!
//! * [`DeviceMemory::alloc`] — fail-fast, for loads and decompositions
//!   where overflow *should* surface as an OOM error;
//! * [`DeviceMemory::alloc_blocking`] — admission-controlled: a request
//!   that does not currently fit *queues* (FIFO by arrival of the wait)
//!   until running work releases its buffers, which is what lets a
//!   scheduler run more concurrent co-processor queries than the card
//!   could hold at once without ever exceeding capacity.

use bwd_obs::metrics::{Counter, Gauge, Registry};
use bwd_types::{BwdError, FaultPlan, FaultSite, Result};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Handles into the process-wide metrics registry, resolved once per
/// memory system (updates are single relaxed atomics on alloc/free).
#[derive(Debug)]
struct MemMetrics {
    alloc_total: Counter,
    alloc_bytes_total: Counter,
    free_bytes_total: Counter,
    wait_total: Counter,
    peak_bytes: Gauge,
}

impl MemMetrics {
    fn from_global() -> MemMetrics {
        let r = Registry::global();
        MemMetrics {
            alloc_total: r.counter("bwd_device_mem_alloc_total"),
            alloc_bytes_total: r.counter("bwd_device_mem_alloc_bytes_total"),
            free_bytes_total: r.counter("bwd_device_mem_free_bytes_total"),
            wait_total: r.counter("bwd_device_mem_wait_total"),
            peak_bytes: r.gauge("bwd_device_mem_peak_bytes"),
        }
    }
}

#[derive(Debug, Default)]
struct MemoryState {
    capacity: u64,
    allocated: u64,
    peak: u64,
    live_buffers: u64,
    /// Tickets of reservations queued in `alloc_blocking`, arrival order.
    /// Only the front ticket may be granted — strict FIFO, no starvation
    /// of large requests by later small ones.
    wait_queue: VecDeque<u64>,
    next_ticket: u64,
    /// Total reservations that had to wait at least once (admission stat).
    total_waits: u64,
}

#[derive(Debug)]
struct MemoryInner {
    state: Mutex<MemoryState>,
    freed: Condvar,
    metrics: MemMetrics,
    /// Armed fault plan; rolled once per allocation attempt (see
    /// [`DeviceMemory::arm_faults`]). Disabled by default.
    fault: Mutex<FaultPlan>,
}

/// The memory system of one simulated device. Cheap to clone (shared).
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    inner: Arc<MemoryInner>,
}

impl DeviceMemory {
    /// A memory system with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            inner: Arc::new(MemoryInner {
                state: Mutex::new(MemoryState {
                    capacity,
                    ..MemoryState::default()
                }),
                freed: Condvar::new(),
                metrics: MemMetrics::from_global(),
                fault: Mutex::new(FaultPlan::disabled()),
            }),
        }
    }

    /// Arm deterministic fault injection on this memory system: every
    /// subsequent allocation attempt first rolls the plan's
    /// [`FaultSite::DeviceAlloc`] stream and fails with
    /// [`BwdError::DeviceFault`] when it hits. Arming with
    /// [`FaultPlan::disabled`] disarms.
    pub fn arm_faults(&self, plan: FaultPlan) {
        *self.inner.fault.lock().unwrap() = plan;
    }

    /// One injection roll, taken before any real accounting so an
    /// injected fault never mutates state.
    fn fault_check(&self) -> Result<()> {
        // Clone out of the lock (an Arc bump) so the roll itself never
        // holds the plan lock while other allocators contend.
        let plan = self.inner.fault.lock().unwrap().clone();
        plan.check(FaultSite::DeviceAlloc)
    }

    /// Reserve `bytes`, failing when the capacity would be exceeded.
    ///
    /// Zero-byte allocations are legal (an empty approximation partition
    /// still yields a valid resident buffer).
    pub fn alloc(&self, bytes: u64) -> Result<DeviceBuffer> {
        self.fault_check()?;
        let mut m = self.inner.state.lock().unwrap();
        let available = m.capacity - m.allocated;
        if bytes > available {
            return Err(BwdError::DeviceOutOfMemory {
                requested: bytes,
                available,
            });
        }
        Ok(self.grant(&mut m, bytes))
    }

    /// Reserve `bytes`, queueing until enough capacity is released.
    ///
    /// Returns immediately when the request fits *and* no earlier
    /// reservation is queued; otherwise it joins a strict FIFO queue —
    /// only the front request is ever granted, so a large reservation
    /// cannot be starved by a stream of later small ones. A request
    /// larger than the *total* capacity can never be satisfied and fails
    /// with [`BwdError::DeviceOutOfMemory`] instead of deadlocking. With
    /// a `deadline`, a reservation still queued when it expires fails
    /// with [`BwdError::AdmissionTimeout`].
    pub fn alloc_blocking(&self, bytes: u64, deadline: Option<Duration>) -> Result<DeviceBuffer> {
        self.fault_check()?;
        let started = Instant::now();
        let mut m = self.inner.state.lock().unwrap();
        if bytes > m.capacity {
            return Err(BwdError::DeviceOutOfMemory {
                requested: bytes,
                available: m.capacity,
            });
        }
        // Fast path: nothing queued ahead and the request fits now.
        if m.wait_queue.is_empty() && bytes <= m.capacity - m.allocated {
            return Ok(self.grant(&mut m, bytes));
        }
        m.next_ticket += 1;
        let ticket = m.next_ticket;
        m.wait_queue.push_back(ticket);
        m.total_waits += 1;
        self.inner.metrics.wait_total.inc();
        loop {
            if m.wait_queue.front() == Some(&ticket) && bytes <= m.capacity - m.allocated {
                m.wait_queue.pop_front();
                let buf = self.grant(&mut m, bytes);
                drop(m);
                // The next queued reservation may fit as well.
                self.inner.freed.notify_all();
                return Ok(buf);
            }
            m = match deadline {
                Some(limit) => {
                    let left = limit.saturating_sub(started.elapsed());
                    if left.is_zero() {
                        m.wait_queue.retain(|&t| t != ticket);
                        drop(m);
                        // Our departure may unblock the next in line.
                        self.inner.freed.notify_all();
                        return Err(BwdError::AdmissionTimeout {
                            requested: bytes,
                            waited_ms: started.elapsed().as_millis() as u64,
                        });
                    }
                    self.inner.freed.wait_timeout(m, left).unwrap().0
                }
                None => self.inner.freed.wait(m).unwrap(),
            };
        }
    }

    fn grant(&self, m: &mut MemoryState, bytes: u64) -> DeviceBuffer {
        m.allocated += bytes;
        m.peak = m.peak.max(m.allocated);
        m.live_buffers += 1;
        let metrics = &self.inner.metrics;
        metrics.alloc_total.inc();
        metrics.alloc_bytes_total.add(bytes);
        metrics.peak_bytes.max(m.allocated as i64);
        DeviceBuffer {
            bytes,
            mem: Arc::clone(&self.inner),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.state.lock().unwrap().capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.inner.state.lock().unwrap().allocated
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        let m = self.inner.state.lock().unwrap();
        m.capacity - m.allocated
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.inner.state.lock().unwrap().peak
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> u64 {
        self.inner.state.lock().unwrap().live_buffers
    }

    /// Reservations currently queued in [`DeviceMemory::alloc_blocking`].
    pub fn queued(&self) -> u64 {
        self.inner.state.lock().unwrap().wait_queue.len() as u64
    }

    /// Total blocking reservations that ever had to queue.
    pub fn total_waits(&self) -> u64 {
        self.inner.state.lock().unwrap().total_waits
    }
}

/// A reservation of device memory. Dropping it releases the bytes.
#[derive(Debug)]
pub struct DeviceBuffer {
    bytes: u64,
    mem: Arc<MemoryInner>,
}

impl DeviceBuffer {
    /// Size of the reservation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        let mut m = self.mem.state.lock().unwrap();
        m.allocated -= self.bytes;
        m.live_buffers -= 1;
        drop(m);
        self.mem.metrics.free_bytes_total.add(self.bytes);
        // Wake every queued reservation: the largest waiter may not fit,
        // but a smaller one behind it might.
        self.mem.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn alloc_free_accounting() {
        let mem = DeviceMemory::new(1000);
        let a = mem.alloc(400).unwrap();
        let b = mem.alloc(500).unwrap();
        assert_eq!(mem.used(), 900);
        assert_eq!(mem.available(), 100);
        assert_eq!(mem.live_buffers(), 2);
        drop(a);
        assert_eq!(mem.used(), 500);
        drop(b);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.peak(), 900);
    }

    #[test]
    fn oom_reports_sizes() {
        let mem = DeviceMemory::new(100);
        let _keep = mem.alloc(80).unwrap();
        match mem.alloc(50) {
            Err(BwdError::DeviceOutOfMemory {
                requested,
                available,
            }) => {
                assert_eq!(requested, 50);
                assert_eq!(available, 20);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        // Exact fit succeeds.
        let _fit = mem.alloc(20).unwrap();
        assert_eq!(mem.available(), 0);
    }

    #[test]
    fn zero_byte_alloc_is_legal() {
        let mem = DeviceMemory::new(0);
        let b = mem.alloc(0).unwrap();
        assert_eq!(b.bytes(), 0);
        assert_eq!(mem.live_buffers(), 1);
    }

    #[test]
    fn blocking_alloc_queues_until_release() {
        let mem = DeviceMemory::new(100);
        let held = mem.alloc(80).unwrap();
        let mem2 = mem.clone();
        let waiter = thread::spawn(move || {
            let buf = mem2.alloc_blocking(50, None).unwrap();
            buf.bytes()
        });
        // Give the waiter time to queue, then release.
        while mem.queued() == 0 {
            thread::yield_now();
        }
        drop(held);
        assert_eq!(waiter.join().unwrap(), 50);
        assert_eq!(mem.total_waits(), 1);
        assert!(mem.peak() <= 100, "admission never exceeds capacity");
    }

    #[test]
    fn blocking_alloc_is_fifo_no_queue_jumping() {
        let mem = DeviceMemory::new(100);
        let held = mem.alloc(80).unwrap();
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));

        // A large reservation queues first...
        let (mem_a, order_a) = (mem.clone(), std::sync::Arc::clone(&order));
        let a = thread::spawn(move || {
            let buf = mem_a.alloc_blocking(60, None).unwrap();
            order_a.lock().unwrap().push('a');
            drop(buf);
        });
        while mem.queued() < 1 {
            thread::yield_now();
        }
        // ...then a small one that *would* fit the 20 free bytes right
        // now, but must wait its turn behind the large one.
        let (mem_b, order_b) = (mem.clone(), std::sync::Arc::clone(&order));
        let b = thread::spawn(move || {
            let buf = mem_b.alloc_blocking(50, None).unwrap();
            order_b.lock().unwrap().push('b');
            drop(buf);
        });
        while mem.queued() < 2 {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(30));
        assert!(
            order.lock().unwrap().is_empty(),
            "no reservation may jump the FIFO queue"
        );
        drop(held);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!['a', 'b']);
        assert!(mem.peak() <= 100);
    }

    #[test]
    fn armed_fault_plan_fails_allocations_without_touching_accounting() {
        use bwd_types::FaultSpec;
        let mem = DeviceMemory::new(100);
        mem.arm_faults(
            FaultPlan::seeded(11)
                .site(FaultSite::DeviceAlloc, FaultSpec::with_ppm(1_000_000))
                .build(),
        );
        assert!(matches!(mem.alloc(10), Err(BwdError::DeviceFault(_))));
        assert!(matches!(
            mem.alloc_blocking(10, None),
            Err(BwdError::DeviceFault(_))
        ));
        assert_eq!(mem.used(), 0, "injected faults reserve nothing");
        assert_eq!(mem.live_buffers(), 0);
        mem.arm_faults(FaultPlan::disabled());
        assert!(mem.alloc(10).is_ok(), "disarming restores service");
    }

    #[test]
    fn blocking_alloc_rejects_impossible_requests() {
        let mem = DeviceMemory::new(100);
        match mem.alloc_blocking(101, None) {
            Err(BwdError::DeviceOutOfMemory { requested, .. }) => assert_eq!(requested, 101),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn blocking_alloc_times_out() {
        let mem = DeviceMemory::new(100);
        let _held = mem.alloc(80).unwrap();
        match mem.alloc_blocking(50, Some(Duration::from_millis(20))) {
            Err(BwdError::AdmissionTimeout { requested, .. }) => assert_eq!(requested, 50),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(mem.queued(), 0, "timed-out waiter must deregister");
    }

    #[test]
    fn deadline_path_resolves_in_time_and_balances_accounting() {
        // A reservation that can never fit while the persistent holder
        // lives: it must resolve to AdmissionTimeout close to the
        // configured deadline and leave every counter exactly as before.
        let mem = DeviceMemory::new(100);
        let holder = mem.alloc(60).unwrap();
        let (used, peak, live, waits) = (
            mem.used(),
            mem.peak(),
            mem.live_buffers(),
            mem.total_waits(),
        );
        let deadline = Duration::from_millis(25);
        let started = Instant::now();
        match mem.alloc_blocking(80, Some(deadline)) {
            Err(BwdError::AdmissionTimeout {
                requested,
                waited_ms,
            }) => {
                assert_eq!(requested, 80);
                assert!(waited_ms >= deadline.as_millis() as u64, "{waited_ms}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // "Within the configured deadline": the wait expired at the
        // deadline, not at some multiple of it (generous slack for a
        // loaded CI machine, but far below 2x-with-margin).
        assert!(
            started.elapsed() < deadline + Duration::from_millis(500),
            "took {:?}",
            started.elapsed()
        );
        // Ledger balanced: nothing reserved, nothing leaked, nothing
        // still queued; exactly one wait was recorded.
        assert_eq!(mem.used(), used);
        assert_eq!(mem.peak(), peak);
        assert_eq!(mem.live_buffers(), live);
        assert_eq!(mem.queued(), 0);
        assert_eq!(mem.total_waits(), waits + 1);
        // The memory is fully usable afterwards: the departed waiter did
        // not wedge the queue.
        let rest = mem.alloc_blocking(40, None).unwrap();
        assert_eq!(rest.bytes(), 40);
        drop(rest);
        drop(holder);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.live_buffers(), 0);
    }
}
