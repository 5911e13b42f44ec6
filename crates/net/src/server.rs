//! The poll-based reactor: one thread, many connections, zero pinned
//! workers.
//!
//! [`NetServer`] owns the [`Scheduler`] and a set of connections over
//! arbitrary [`Transport`]s (real TCP via [`NetServer::bind`],
//! deterministic in-memory pipes via [`NetServer::connect`]). A single
//! [`NetServer::poll`] pass accepts, reads, decodes, submits, resolves
//! and writes across every connection without blocking; the
//! [`NetServer::serve`] loop repeats passes, parking on the shared
//! [`WakeFlag`] between them so completed queries cut the latency short
//! of the poll interval.
//!
//! Crucially, *no connection ever occupies a scheduler worker while it
//! waits*: queries ride non-blocking [`bwd_sched::Ticket`]s, so a
//! thousand idle sessions cost a thousand small state machines, not a
//! thousand threads.

use crate::config::NetConfig;
use crate::conn::{Conn, ReactorCtx, WakeFlag};
use crate::transport::{duplex, Duplex, TcpTransport, Transport};
use bwd_core::plan::ArPlan;
use bwd_obs::metrics::{Counter, Gauge, Registry};
use bwd_sched::Scheduler;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Front-door metric handles, registered on the server's own
/// [`Registry`] so concurrent servers (and tests) don't observe each
/// other.
pub(crate) struct NetMetrics {
    registry: Arc<Registry>,
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
        let scratch = vec![0u8; cfg.read_chunk.max(1)];
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
        let (server_end, client_end) = duplex(self.cfg.duplex_capacity);
        self.add_transport(Box::new(server_end));
        client_end
    }

    /// Adopt an established transport as a new connection.
    pub fn add_transport(&mut self, transport: Box<dyn Transport>) {
        let mut conn = Conn::new(transport, self.sched.session());
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
                Ok((stream, _peer)) => match TcpTransport::new(stream) {
                    Ok(t) => accepted.push(Box::new(t) as Box<dyn Transport>),
                    Err(_) => continue,
                },
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
            cfg: &self.cfg,
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
    /// repeat [`poll`](NetServer::poll) passes, parking on the
    /// completion signal (bounded by [`NetConfig::poll_interval`]) when
    /// a pass makes no progress. Returns the server for teardown.
    fn serve(mut self, stop: &AtomicBool) -> NetServer {
        while !stop.load(Ordering::Relaxed) {
            if !self.poll() {
                self.wake.wait_timeout(self.cfg.poll_interval);
            }
        }
        // Final drain so responses already resolved reach their sockets.
        self.pump();
        self
    }

    /// Spawn the serve loop on a background thread.
    pub fn spawn(self) -> NetServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let wake = Arc::clone(&self.wake);
        let stop2 = Arc::clone(&stop);
        // The one panic the crate keeps: the OS refused a thread, and the
        // handle callers hold has no error channel (`std::thread::spawn`
        // panics the same way).
        let join = std::thread::Builder::new()
            .name("bwd-net".into())
            .spawn(move || self.serve(&stop2))
            .expect("spawn bwd-net thread");
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
        self.stop.store(true, Ordering::Relaxed);
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
            self.stop.store(true, Ordering::Relaxed);
            self.wake.signal();
            let _ = join.join();
        }
    }
}
