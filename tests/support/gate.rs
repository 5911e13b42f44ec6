//! The admission gate the scheduler tests freeze workers with. Included by
//! path (`#[path = ...] mod gate;`) from each test target that uses it.

use bwd_device::{DeviceBuffer, DeviceMemory};
use bwd_engine::Database;
use bwd_sched::SubmitOptions;
use bwd_types::{BwdError, Result};

/// Deterministically freezes a scheduler's A&R stream by reserving every
/// free byte of one device: the next A&R job a worker picks up blocks
/// inside that device's admission queue until [`Gate::release`].
///
/// The canonical pattern — pin a one-worker scheduler, stack the queue,
/// observe the drain order:
///
/// 1. build the scheduler (admission controllers snapshot resident bytes);
/// 2. `Gate::block` the device and submit one A&R "gate job" **pinned to
///    the gated device** via [`Gate::submit_options`] — on a multi-card
///    pool an unpinned job would be placed on a *different* (less
///    loaded) card and sail straight through;
/// 3. [`Gate::wait_admission_blocked`] — the worker is now provably stuck;
/// 4. submit the batch under test (it all queues);
/// 5. [`Gate::release`] and assert on each ticket's
///    [`bwd_sched::JobReport::completion_index`].
pub struct Gate {
    mem: DeviceMemory,
    device: usize,
    blocker: Option<DeviceBuffer>,
}

impl Gate {
    /// Reserve all currently-free bytes of pool device `device` so A&R
    /// admissions on it block. Call *after* constructing the scheduler.
    pub fn block(db: &Database, device: usize) -> Result<Gate> {
        let mem = db
            .env()
            .pool
            .devices()
            .get(device)
            .ok_or_else(|| BwdError::InvalidArgument(format!("no pool device {device}")))?
            .memory()
            .clone();
        let blocker = mem.alloc(mem.available())?;
        Ok(Gate {
            mem,
            device,
            blocker: Some(blocker),
        })
    }

    /// Submission options that pin a job to the gated device — use these
    /// for the gate job, or the placement policy may route it to another
    /// card of a multi-device pool (where it would run instead of
    /// blocking, and [`Gate::wait_admission_blocked`] would spin forever).
    pub fn submit_options(&self) -> SubmitOptions {
        SubmitOptions {
            device: Some(self.device),
            ..SubmitOptions::default()
        }
    }

    /// Busy-wait (yielding) until at least `n` reservations are queued on
    /// the gated device — i.e. until `n` workers are provably frozen
    /// inside admission. This waits on *state*, not on time: it never
    /// sleeps and asserts nothing about durations.
    pub fn wait_admission_blocked(&self, n: u64) {
        while self.mem.queued() < n {
            std::thread::yield_now();
        }
    }

    /// Drop the reservation, letting the gated jobs through.
    pub fn release(mut self) {
        self.blocker.take();
    }
}
