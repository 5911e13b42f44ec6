//! Front-door configuration and the constants of its backpressure.

use bwd_obs::Clock;
use std::time::Duration;

/// Pause socket reads while the scheduler queue
/// ([`bwd_sched::Scheduler::queue_len`]) holds this many jobs. Demand
/// piles up in transport buffers (kernel receive queues, duplex pipes)
/// where it costs this process nothing, instead of inflating the
/// scheduler queue; reads resume as workers drain it.
///
/// The reactor re-probes before every socket read and before every
/// submission, so the queue depth stays within this watermark plus the
/// decoded-but-unsubmitted frames of each connection, which
/// [`MAX_INFLIGHT_PER_CONN`] caps.
pub const PAUSE_QUEUED_JOBS: usize = 256;

/// Answer a decoded request with a retryable [`crate::Frame::Busy`]
/// instead of submitting it once the scheduler queue is this deep:
/// frames arrive in bursts, and pausing cannot unread the ones already
/// decoded.
pub const SHED_QUEUED_JOBS: usize = 4096;

/// Requests one connection may have in flight (submitted, not yet
/// responded). Further frames wait in the decode buffer.
pub const MAX_INFLIGHT_PER_CONN: usize = 32;

/// Bytes read from one connection per reactor pass (one syscall's worth;
/// fairness across connections).
pub(crate) const READ_CHUNK: usize = 16 << 10;

/// Per-direction byte capacity of in-memory duplex connections
/// ([`crate::NetServer::connect`]).
pub(crate) const DUPLEX_CAPACITY: usize = 64 << 10;

/// [`crate::NetServer`] construction values. The frame cap is not one:
/// both ends use [`crate::DEFAULT_MAX_FRAME_LEN`], on encode and on
/// decode.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Close a connection that has been completely idle — no frames in
    /// either direction, no query in flight — for this long. `None` (the
    /// default) never reaps. Idleness is measured on [`NetConfig::clock`],
    /// so tests drive the reaper with a [`bwd_obs::Clock::mock`] instead
    /// of sleeping.
    pub idle_timeout: Option<Duration>,
    /// The clock idle-connection age is measured on (default: the real
    /// monotonic clock).
    pub clock: Clock,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            idle_timeout: None,
            clock: Clock::monotonic(),
        }
    }
}
