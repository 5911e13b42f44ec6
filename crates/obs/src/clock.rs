//! The workspace's one wall-clock abstraction.
//!
//! Every wall-clock measurement in the workspace (trace timestamps, the
//! throughput harness, the front door's idle reaper) goes through a [`Clock`]
//! instead of ad-hoc `Instant::now()` calls, so tests can substitute a
//! [`MockClock`] and measurement code stops depending on real time.
//!
//! The monotonic clock reports nanoseconds since a single process-wide
//! epoch (latched on first use), so timestamps from *different* recorders
//! — e.g. the per-query recorders of a scheduler batch — share one
//! timeline and can be merged into one Chrome trace.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A source of monotone nanosecond timestamps.
pub trait ClockSource: Send + Sync + fmt::Debug {
    /// Nanoseconds since this source's epoch.
    fn now_ns(&self) -> u64;
}

#[derive(Debug)]
struct MonotonicSource;

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl ClockSource for MonotonicSource {
    fn now_ns(&self) -> u64 {
        process_epoch().elapsed().as_nanos() as u64
    }
}

/// A cloneable handle onto a [`ClockSource`].
#[derive(Debug, Clone)]
pub struct Clock {
    source: Arc<dyn ClockSource>,
}

impl Clock {
    /// The real monotonic clock, measured from the shared process epoch.
    pub fn monotonic() -> Clock {
        Clock {
            source: Arc::new(MonotonicSource),
        }
    }

    /// A manually-advanced clock for tests, plus its control handle.
    pub fn mock() -> (Clock, MockClock) {
        let ctl = MockClock {
            now_ns: Arc::new(AtomicU64::new(0)),
        };
        (
            Clock {
                source: Arc::new(ctl.clone()),
            },
            ctl,
        )
    }

    /// Current time in nanoseconds since the clock's epoch.
    pub fn now_ns(&self) -> u64 {
        self.source.now_ns()
    }

    /// Current time in seconds since the clock's epoch.
    pub fn now_seconds(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }
}

/// Control handle of a mocked [`Clock`] (see [`Clock::mock`]).
#[derive(Debug, Clone)]
pub struct MockClock {
    now_ns: Arc<AtomicU64>,
}

impl MockClock {
    /// Advance the mocked time by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::SeqCst);
    }
}

impl ClockSource for MockClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MockClock {
        /// Set the mocked time to an absolute `ns` value.
        pub(crate) fn set_ns(&self, ns: u64) {
            self.now_ns.store(ns, Ordering::SeqCst);
        }
    }

    #[test]
    fn monotonic_advances() {
        let c = Clock::monotonic();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn mock_is_fully_controlled() {
        let (clock, ctl) = Clock::mock();
        assert_eq!(clock.now_ns(), 0);
        ctl.advance_ns(1_500);
        assert_eq!(clock.now_ns(), 1_500);
        ctl.set_ns(42);
        assert_eq!(clock.now_ns(), 42);
    }

    #[test]
    fn clocks_share_one_process_epoch() {
        let a = Clock::monotonic().now_ns();
        let b = Clock::monotonic().now_ns();
        // Two independent handles still measure from the same epoch:
        // both are small offsets from process start, not wildly apart.
        assert!(b >= a);
    }
}
