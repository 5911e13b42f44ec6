//! Front-door configuration: watermarks, buffer sizes, pacing.

use bwd_obs::Clock;
use std::time::Duration;

/// [`crate::NetServer`] construction knobs.
///
/// The two-level backpressure scheme:
///
/// * **Read-pause watermark** — when the scheduler queue
///   ([`bwd_sched::Scheduler::queue_len`]) holds `pause_queued_jobs`
///   jobs, the reactor stops *reading sockets*. Demand piles up in
///   transport buffers (kernel receive queues, duplex pipes) where it
///   costs this process nothing, instead of inflating the scheduler
///   queue. Reads resume automatically as workers drain.
/// * **Hard shed limit** — a request frame that was already decoded while
///   `shed_queued_jobs` is exceeded (frames arrive in bursts; pausing
///   cannot retroactively unread them) is answered with a retryable
///   [`crate::Frame::Busy`] instead of being submitted.
///
/// With one request frame per read chunk the queue depth is therefore
/// provably bounded by `pause_queued_jobs` (the reactor re-probes before
/// every socket read and before every submission); with batched frames
/// the bound widens by at most the decoded-but-unsubmitted frames per
/// connection, which `max_inflight_per_conn` caps.
///
/// The frame cap is not a knob: both ends use
/// [`crate::DEFAULT_MAX_FRAME_LEN`], on encode and on decode.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Pause socket reads when this many jobs sit in the scheduler
    /// queue.
    pub pause_queued_jobs: usize,
    /// Answer `Busy` instead of submitting once the scheduler queue is
    /// this deep (`usize::MAX` disables shedding).
    pub shed_queued_jobs: usize,
    /// Bytes read from one connection per reactor pass (one syscall's
    /// worth; fairness across connections).
    pub read_chunk: usize,
    /// Requests one connection may have in flight (submitted, not yet
    /// responded). Further frames wait in the decode buffer.
    pub max_inflight_per_conn: usize,
    /// Per-direction byte capacity of in-memory duplex connections
    /// ([`crate::NetServer::connect`]).
    pub duplex_capacity: usize,
    /// How long the [`crate::NetServer::spawn`]ed serve loop parks when a pass makes no
    /// progress and no completion wakes it (bounds accept/read latency;
    /// completions interrupt it early via the ticket waker).
    pub poll_interval: Duration,
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
            pause_queued_jobs: 256,
            shed_queued_jobs: 4096,
            read_chunk: 16 << 10,
            max_inflight_per_conn: 32,
            duplex_capacity: 64 << 10,
            poll_interval: Duration::from_millis(2),
            idle_timeout: None,
            clock: Clock::monotonic(),
        }
    }
}
