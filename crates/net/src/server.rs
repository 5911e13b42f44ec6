//! The poll-based reactor: one thread, many connections, zero pinned
//! workers.
//!
//! [`NetServer`] owns the [`Scheduler`] and a set of connections over
//! arbitrary [`Transport`]s (real TCP via [`NetServer::bind`],
//! deterministic in-memory pipes via [`NetServer::connect`]). A single
//! [`NetServer::poll`] pass accepts, reads, decodes, submits, resolves
//! and writes across every connection without blocking; the
//! [`NetServer::serve`] loop repeats passes, and when one makes no
//! progress it blocks in one poll(2) until something it can act on is
//! ready: the [`WakeFlag`] channel (a query resolved, a duplex peer moved
//! bytes, the queue watermark may have lifted, shutdown), the listener,
//! a socket it can read or write, or the next idle-reaper deadline.
//!
//! Crucially, *no connection ever occupies a scheduler worker while it
//! waits*: queries ride non-blocking [`bwd_sched::Ticket`]s, so a
//! thousand idle sessions cost a thousand small state machines, not a
//! thousand threads.

use crate::config::{NetConfig, DUPLEX_CAPACITY, READ_CHUNK};
use crate::conn::{reads_paused, Conn, ReactorCtx, WakeFlag};
use crate::transport::{duplex, Duplex, TcpTransport, Transport};
use bwd_core::plan::ArPlan;
use bwd_obs::metrics::{Counter, Gauge, Registry};
use bwd_sched::Scheduler;
use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// poll(2)'s `struct pollfd`: a descriptor, the events asked for and
/// the events returned.
#[repr(C)]
struct PollFd(c_int, c_short, c_short);

pub(crate) const POLLIN: c_short = 0x001;
pub(crate) const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Front-door metric handles, registered on the server's own
/// [`Registry`] so concurrent servers (and tests) don't observe each
/// other.
pub(crate) struct NetMetrics {
    registry: Arc<Registry>,
    /// Serve-loop passes that ended in the wait.
    waits: Counter,
    pub(crate) accepted: Counter,
    pub(crate) closed: Counter,
    pub(crate) frames_in: Counter,
    pub(crate) frames_out: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) queries: Counter,
    pub(crate) busy_shed: Counter,
    pub(crate) protocol_errors: Counter,
    pub(crate) read_pauses: Counter,
    pub(crate) reaped_idle: Counter,
    pub(crate) tickets_cancelled: Counter,
    pub(crate) connections: Gauge,
    pub(crate) inflight: Gauge,
    pub(crate) peak_queue_depth: Gauge,
}

impl NetMetrics {
    fn new() -> NetMetrics {
        let registry = Arc::new(Registry::new());
        NetMetrics {
            waits: registry.counter("bwd_net_waits_total"),
            accepted: registry.counter("bwd_net_accepted_total"),
            closed: registry.counter("bwd_net_closed_total"),
            frames_in: registry.counter("bwd_net_frames_total{dir=\"in\"}"),
            frames_out: registry.counter("bwd_net_frames_total{dir=\"out\"}"),
            bytes_in: registry.counter("bwd_net_bytes_total{dir=\"in\"}"),
            bytes_out: registry.counter("bwd_net_bytes_total{dir=\"out\"}"),
            queries: registry.counter("bwd_net_queries_total"),
            busy_shed: registry.counter("bwd_net_busy_shed_total"),
            protocol_errors: registry.counter("bwd_net_protocol_errors_total"),
            read_pauses: registry.counter("bwd_net_read_pauses_total"),
            reaped_idle: registry.counter("bwd_net_reaped_idle_total"),
            tickets_cancelled: registry.counter("bwd_net_tickets_cancelled_total"),
            connections: registry.gauge("bwd_net_connections"),
            inflight: registry.gauge("bwd_net_inflight"),
            peak_queue_depth: registry.gauge("bwd_net_peak_queue_depth"),
            registry,
        }
    }
}

/// The network front door: a poll-based connection multiplexer over the
/// scheduler (see the [crate docs](crate)).
pub struct NetServer {
    sched: Scheduler,
    cfg: NetConfig,
    conns: Vec<Conn>,
    listener: Option<TcpListener>,
    plans: Vec<ArPlan>,
    metrics: NetMetrics,
    wake: Arc<WakeFlag>,
    scratch: Vec<u8>,
}

impl NetServer {
    /// Wrap `sched` with explicit configuration.
    pub fn with_config(sched: Scheduler, cfg: NetConfig) -> NetServer {
        let scratch = vec![0u8; READ_CHUNK];
        NetServer {
            sched,
            cfg,
            conns: Vec::new(),
            listener: None,
            plans: Vec::new(),
            metrics: NetMetrics::new(),
            wake: Arc::new(WakeFlag::default()),
            scratch,
        }
    }

    /// The wrapped scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Dismantle the front door, returning the scheduler (e.g. for a
    /// clean [`Scheduler::shutdown`]). Open connections are dropped;
    /// their peers observe EOF / connection reset.
    pub fn into_scheduler(self) -> Scheduler {
        self.sched
    }

    /// Register a prepared plan; clients run it with
    /// [`crate::Frame::RunPlan`] carrying the returned id.
    pub fn register_plan(&mut self, plan: ArPlan) -> u64 {
        self.plans.push(plan);
        (self.plans.len() - 1) as u64
    }

    /// Start accepting real TCP connections on `addr` (use port 0 for an
    /// ephemeral port); returns the bound address.
    pub fn bind(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.listener = Some(listener);
        Ok(local)
    }

    /// Open an in-memory connection; the returned [`Duplex`] is the
    /// client end. Deterministic — no kernel, no ports, no timing.
    pub fn connect(&mut self) -> Duplex {
        let (server_end, client_end) = duplex(DUPLEX_CAPACITY);
        self.add_transport(Box::new(server_end));
        client_end
    }

    /// Adopt an established transport as a new connection.
    pub fn add_transport(&mut self, mut transport: Box<dyn Transport>) {
        let wake = Arc::clone(&self.wake);
        let fd = transport.readiness(&(Arc::new(move || wake.signal()) as _));
        let mut conn = Conn::new(transport, self.sched.session(), fd);
        conn.last_activity_ns = self.cfg.clock.now_ns();
        self.conns.push(conn);
        self.metrics.accepted.inc();
        self.metrics.connections.set(self.conns.len() as i64);
    }

    /// Accept pending TCP connections (non-blocking).
    fn accept(&mut self) -> bool {
        let Some(listener) = &self.listener else {
            return false;
        };
        let mut accepted = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        accepted.push(Box::new(TcpTransport::new(stream)) as Box<dyn Transport>);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let progressed = !accepted.is_empty();
        for t in accepted {
            self.add_transport(t);
        }
        progressed
    }

    /// One reactor pass over every connection; returns whether any state
    /// advanced anywhere (accept, read, decode, submit, resolve, write,
    /// close).
    pub fn poll(&mut self) -> bool {
        let mut progressed = self.accept();
        let ctx = ReactorCtx {
            sched: &self.sched,
            metrics: &self.metrics,
            plans: &self.plans,
            wake: &self.wake,
        };
        let mut inflight = 0usize;
        let mut closed_any = false;
        let now_ns = self.cfg.clock.now_ns();
        for conn in &mut self.conns {
            let advanced = conn.pump(&ctx, &mut self.scratch);
            progressed |= advanced;
            if advanced {
                conn.last_activity_ns = now_ns;
            } else if let Some(idle) = self.cfg.idle_timeout {
                // Reap only *completely* idle connections: nothing in
                // flight, nothing buffered in either direction. The close
                // then flows through the normal retirement path below.
                if conn.is_idle()
                    && now_ns.saturating_sub(conn.last_activity_ns) >= idle.as_nanos() as u64
                {
                    conn.begin_close();
                    self.metrics.reaped_idle.inc();
                    progressed = true;
                }
            }
            if conn.finished() {
                conn.on_close(&ctx);
                closed_any = true;
            } else {
                inflight += conn.inflight();
            }
        }
        if closed_any {
            self.conns.retain(|c| !c.finished());
            progressed = true;
        }
        self.metrics.connections.set(self.conns.len() as i64);
        self.metrics.inflight.set(inflight as i64);
        progressed
    }

    /// Poll until quiescent: no pass makes progress. With only duplex
    /// connections whose clients have already written their requests,
    /// this drains every response that can resolve *right now* — tests
    /// interleave `pump` with scheduler progress to step deterministically.
    pub fn pump(&mut self) {
        while self.poll() {}
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }

    /// Requests submitted or queued for response across all connections.
    pub fn inflight(&self) -> usize {
        self.conns.iter().map(Conn::inflight).sum()
    }

    /// Prometheus-style rendering of the `bwd_net_*` metrics.
    pub fn metrics_text(&self) -> String {
        self.metrics.registry.render()
    }

    /// Run the serve loop on this thread until `stop` turns true:
    /// repeat [`poll`](NetServer::poll) passes, and [`wait`](Self::wait)
    /// when one makes no progress. Returns the server for teardown.
    fn serve(mut self, stop: &AtomicBool, wake_fd: RawFd) -> NetServer {
        // Signals from before the channel opened raised the flag alone;
        // the first pass sees what they signaled.
        self.wake.clear();
        while !stop.load(Ordering::SeqCst) {
            if !self.poll() {
                self.wait(wake_fd);
            }
        }
        // Final drain so responses already resolved reach their sockets.
        self.pump();
        self
    }

    /// Block in poll(2) until something a pass can act on is ready: the
    /// wake channel, the listener, a connection's descriptor for the
    /// events [`Conn::interest`] names, or the earliest idle-reaper
    /// deadline (no timeout when nothing can be reaped).
    fn wait(&mut self, wake_fd: RawFd) {
        let mut paused = reads_paused(&self.sched);
        if paused {
            // Armed before the second probe, so a dequeue between the two
            // still wakes the loop.
            let wake = Arc::clone(&self.wake);
            self.sched.wake_on_dequeue(move || wake.signal());
            paused = reads_paused(&self.sched);
        }
        let mut fds = vec![PollFd(wake_fd, POLLIN, 0)];
        fds.extend(
            self.listener
                .as_ref()
                .map(|l| PollFd(l.as_raw_fd(), POLLIN, 0)),
        );
        for conn in &self.conns {
            let events = conn.interest(paused);
            if let (Some(fd), true) = (conn.fd, events != 0) {
                fds.push(PollFd(fd, events, 0));
            }
        }
        let now = self.cfg.clock.now_ns();
        let timeout_ms = (self.cfg.idle_timeout)
            .and_then(|idle| {
                let idle = u64::try_from(idle.as_nanos()).unwrap_or(u64::MAX);
                (self.conns.iter().filter(|c| c.is_idle()))
                    .map(|c| c.last_activity_ns.saturating_add(idle).saturating_sub(now))
                    .min()
            })
            .map_or(-1, |ns| {
                ns.div_ceil(1_000_000).min(i32::MAX as u64) as c_int
            });
        // SAFETY: `fds` is a live array of `fds.len()` pollfd structs that
        // poll(2) only writes the returned events of.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        self.metrics.waits.inc();
        if fds[0].2 != 0 {
            self.wake.clear();
        }
    }

    /// Spawn the serve loop on a background thread.
    pub fn spawn(self) -> NetServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let wake = Arc::clone(&self.wake);
        let stop2 = Arc::clone(&stop);
        // The one panic the crate keeps: the OS refused the loop its wake
        // channel or its thread, and the handle callers hold has no error
        // channel (`std::thread::spawn` panics the same way).
        let join = (wake.open())
            .and_then(|wake_fd| {
                std::thread::Builder::new()
                    .name("bwd-net".into())
                    .spawn(move || self.serve(&stop2, wake_fd))
            })
            .expect("start the bwd-net serve loop");
        NetServerHandle {
            stop,
            wake,
            join: Some(join),
        }
    }
}

/// Handle to a [`NetServer::spawn`]ed serve loop.
pub struct NetServerHandle {
    stop: Arc<AtomicBool>,
    wake: Arc<WakeFlag>,
    join: Option<JoinHandle<NetServer>>,
}

impl NetServerHandle {
    /// Stop the loop and get the server back (connections intact). A
    /// panic on the serve thread resumes here.
    pub fn shutdown(mut self) -> NetServer {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.signal();
        // `Some` here: `shutdown` consumes the handle, `drop` runs after.
        let join = self.join.take().expect("serve thread joined once");
        join.join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            self.wake.signal();
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A signaller hammers the wake channel while a loop clears it only
    /// when poll(2) finds it readable, as the serve loop does. A signal
    /// that lands between the drain and the lowering of the flag must not
    /// be lost: afterwards, one more signal still makes the pair readable.
    #[test]
    fn a_signal_racing_the_drain_is_never_lost() {
        let wake = Arc::new(WakeFlag::default());
        let fd = wake.open().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let signaller = {
            let (wake, done) = (Arc::clone(&wake), Arc::clone(&done));
            std::thread::spawn(move || {
                for _ in 0..200_000 {
                    wake.signal();
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        let readable = || {
            let mut fds = [PollFd(fd, POLLIN, 0)];
            // SAFETY: one live pollfd, and a zero timeout.
            unsafe { poll(fds.as_mut_ptr(), 1, 0) };
            fds[0].2 != 0
        };
        while !done.load(Ordering::SeqCst) {
            if readable() {
                wake.clear();
            }
        }
        signaller.join().unwrap();
        wake.signal();
        assert!(readable(), "the flag stayed up with no byte to wake on");
    }
}
