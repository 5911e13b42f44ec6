//! Per-connection state machine.
//!
//! Each connection owns a transport, an incremental [`FrameDecoder`], a
//! write buffer and a FIFO of pending responses. The invariant the FSM
//! maintains is *one response per request, in request order*: every
//! decoded request immediately appends exactly one [`Pending`] entry —
//! either a resolved frame (pong, busy, immediate error) or a scheduler
//! [`Ticket`] — and responses are emitted strictly from the queue's
//! front. A query that takes seconds therefore never lets a later ping
//! jump the line, and the deterministic soak can match responses to
//! requests positionally.
//!
//! Nothing here blocks: reads, writes and ticket polls are all
//! non-blocking, and a connection whose transport or peer stalls simply
//! makes no progress that pass.

use crate::config::NetConfig;
use crate::frame::{Frame, FrameDecoder, WireMode};
use crate::server::NetMetrics;
use crate::transport::{IoEvent, Transport};
use bwd_core::plan::ArPlan;
use bwd_sched::{Scheduler, Session, Ticket};
use bwd_types::BwdError;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Completion signal shared between the reactor and every in-flight
/// ticket's waker: jobs resolving anywhere wake the serve loop.
#[derive(Default)]
pub(crate) struct WakeFlag {
    flagged: Mutex<bool>,
    cv: Condvar,
}

impl WakeFlag {
    /// The flag, even if a waker panicked holding it: a lone `bool` has
    /// no invariant a panic could leave half-written.
    fn flagged(&self) -> MutexGuard<'_, bool> {
        self.flagged.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn signal(&self) {
        *self.flagged() = true;
        self.cv.notify_all();
    }

    /// Park until signaled or `timeout` elapses; clears the flag.
    pub(crate) fn wait_timeout(&self, timeout: std::time::Duration) {
        let mut flagged = self.flagged();
        if !*flagged {
            flagged = (self.cv.wait_timeout(flagged, timeout))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *flagged = false;
    }
}

/// Shared reactor context one pass hands to every connection.
pub(crate) struct ReactorCtx<'a> {
    pub sched: &'a Scheduler,
    pub cfg: &'a NetConfig,
    pub metrics: &'a NetMetrics,
    pub plans: &'a [ArPlan],
    pub wake: &'a Arc<WakeFlag>,
}

/// Probe the scheduler *now*: would the read-pause watermark skip a
/// socket read?
fn reads_paused(sched: &Scheduler, cfg: &NetConfig) -> bool {
    sched.queue_len() >= cfg.pause_queued_jobs
}

/// One slot in the ordered response queue.
enum Pending {
    /// A submitted query; resolves through its ticket.
    Job(Ticket),
    /// A response that needed no scheduler round-trip.
    Ready(Frame),
}

/// One multiplexed connection.
pub(crate) struct Conn {
    transport: Box<dyn Transport>,
    decoder: FrameDecoder,
    outbuf: Vec<u8>,
    out_pos: usize,
    pending: VecDeque<Pending>,
    session: Session,
    read_eof: bool,
    /// Transport failed hard (write error); drop without draining.
    io_dead: bool,
    /// Protocol error sent; close as soon as the write buffer drains.
    closing: bool,
    /// Last pass this connection made progress, on [`NetConfig::clock`]
    /// ([`crate::NetServer`]'s idle reaper reads and maintains this).
    pub(crate) last_activity_ns: u64,
}

impl Conn {
    pub(crate) fn new(transport: Box<dyn Transport>, session: Session) -> Conn {
        Conn {
            transport,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            session,
            read_eof: false,
            io_dead: false,
            closing: false,
            last_activity_ns: 0,
        }
    }

    /// Responses submitted but not yet emitted.
    pub(crate) fn inflight(&self) -> usize {
        self.pending.len()
    }

    /// The connection has nothing left to do and can be dropped.
    pub(crate) fn finished(&self) -> bool {
        if self.io_dead {
            return true;
        }
        let drained = self.pending.is_empty() && self.out_pos == self.outbuf.len();
        if self.closing {
            return drained;
        }
        self.read_eof && drained && self.decoder.buffered() == 0
    }

    /// Nothing buffered in either direction and no query in flight — the
    /// only state the idle reaper may retire a connection in.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.out_pos == self.outbuf.len() && self.decoder.buffered() == 0
    }

    /// Begin an orderly close (used by the idle reaper): stop reading and
    /// retire once the write buffer drains.
    pub(crate) fn begin_close(&mut self) {
        self.closing = true;
    }

    /// Close bookkeeping; called once by the reactor when it retires the
    /// connection.
    pub(crate) fn on_close(&mut self, ctx: &ReactorCtx<'_>) {
        // A dead transport strands its in-flight queries: nobody can ever
        // read their results. Cancel them so each releases its device
        // reservation at the next yield point instead of running to
        // waste; the tickets then resolve into the void.
        if self.io_dead {
            for p in &self.pending {
                if let Pending::Job(ticket) = p {
                    ticket.cancel();
                    ctx.metrics.tickets_cancelled.inc();
                }
            }
        }
        ctx.metrics.closed.inc();
    }

    /// One reactor pass over this connection:
    /// resolve → flush → read → dispatch. Returns whether any state
    /// advanced (the reactor's idle detection).
    pub(crate) fn pump(&mut self, ctx: &ReactorCtx<'_>, scratch: &mut [u8]) -> bool {
        let mut progressed = false;
        progressed |= self.pump_responses(ctx);
        progressed |= self.flush(ctx);
        progressed |= self.read(ctx, scratch);
        progressed |= self.dispatch(ctx);
        // Dispatching may have produced instantly-ready responses (pong,
        // shed, bind errors); emitting them in the same pass keeps
        // single-threaded tests single-pass per round-trip.
        progressed |= self.pump_responses(ctx);
        progressed |= self.flush(ctx);
        progressed
    }

    /// Move resolved responses, in request order, into the write buffer.
    fn pump_responses(&mut self, ctx: &ReactorCtx<'_>) -> bool {
        let mut progressed = false;
        while let Some(front) = self.pending.front_mut() {
            let frame = match front {
                // The placeholder is popped with its slot just below.
                Pending::Ready(frame) => std::mem::replace(frame, Frame::Pong),
                Pending::Job(ticket) => match ticket.poll_report() {
                    None => break,
                    Some(Ok((result, _report))) => Frame::Result(Box::new(result)),
                    Some(Err(error)) => {
                        // Admission timeouts and device faults are safe to
                        // replay: the query never produced a result and is
                        // idempotent (a surfaced DeviceFault means the
                        // scheduler's own bounded failover was exhausted —
                        // by the time the client retries, a recovery probe
                        // may have revived a card).
                        let retryable = matches!(
                            error,
                            BwdError::AdmissionTimeout { .. } | BwdError::DeviceFault(_)
                        );
                        Frame::Error { error, retryable }
                    }
                },
            };
            self.pending.pop_front();
            self.emit(ctx, &frame);
            progressed = true;
        }
        progressed
    }

    /// Encode one response frame into the write buffer. A response past
    /// the frame cap — the client's decoder would reject it and the
    /// connection could never resynchronize — is answered with a
    /// non-retryable error naming its size instead.
    fn emit(&mut self, ctx: &ReactorCtx<'_>, frame: &Frame) {
        if let Err(error) = frame.try_encode_into(&mut self.outbuf) {
            Frame::Error {
                error,
                retryable: false,
            }
            .encode_into(&mut self.outbuf);
        }
        ctx.metrics.frames_out.inc();
    }

    /// Push buffered bytes into the transport.
    fn flush(&mut self, ctx: &ReactorCtx<'_>) -> bool {
        let mut progressed = false;
        while self.out_pos < self.outbuf.len() && !self.io_dead {
            match self.transport.try_write(&self.outbuf[self.out_pos..]) {
                Ok(IoEvent::Bytes(n)) => {
                    self.out_pos += n;
                    ctx.metrics.bytes_out.add(n as u64);
                    progressed = true;
                }
                Ok(IoEvent::WouldBlock) | Ok(IoEvent::Eof) => break,
                Err(_) => {
                    self.io_dead = true;
                    progressed = true;
                }
            }
        }
        if self.out_pos == self.outbuf.len() && self.out_pos > 0 {
            self.outbuf.clear();
            self.out_pos = 0;
        }
        progressed
    }

    /// Read one chunk — unless backpressure says the scheduler is full.
    fn read(&mut self, ctx: &ReactorCtx<'_>, scratch: &mut [u8]) -> bool {
        if self.read_eof
            || self.io_dead
            || self.closing
            || self.pending.len() >= ctx.cfg.max_inflight_per_conn
        {
            return false;
        }
        // The watermark probe: sampled immediately before every read so
        // the bound holds pass-internally, not just pass-to-pass.
        if reads_paused(ctx.sched, ctx.cfg) {
            ctx.metrics.read_pauses.inc();
            return false;
        }
        let take = ctx.cfg.read_chunk.min(scratch.len());
        let chunk = &mut scratch[..take];
        match self.transport.try_read(chunk) {
            Ok(IoEvent::Bytes(n)) => {
                self.decoder.feed(&chunk[..n]);
                ctx.metrics.bytes_in.add(n as u64);
                true
            }
            Ok(IoEvent::WouldBlock) => false,
            Ok(IoEvent::Eof) => {
                self.read_eof = true;
                true
            }
            Err(_) => {
                self.io_dead = true;
                true
            }
        }
    }

    /// Turn decoded frames into pending responses.
    fn dispatch(&mut self, ctx: &ReactorCtx<'_>) -> bool {
        let mut progressed = false;
        while !self.closing && self.pending.len() < ctx.cfg.max_inflight_per_conn {
            match self.decoder.next() {
                Ok(Some(frame)) => {
                    progressed = true;
                    ctx.metrics.frames_in.inc();
                    self.handle_request(ctx, frame);
                }
                Ok(None) => {
                    if self.read_eof {
                        if let Err(e) = self.decoder.finish_eof() {
                            self.protocol_error(ctx, e.into());
                            progressed = true;
                        }
                    }
                    break;
                }
                Err(e) => {
                    self.protocol_error(ctx, e.into());
                    progressed = true;
                    break;
                }
            }
        }
        progressed
    }

    /// Queue a protocol-error response and begin closing: a peer that
    /// framed one message wrong cannot be resynchronized.
    fn protocol_error(&mut self, ctx: &ReactorCtx<'_>, error: BwdError) {
        ctx.metrics.protocol_errors.inc();
        self.pending.push_back(Pending::Ready(Frame::Error {
            error,
            retryable: false,
        }));
        self.closing = true;
    }

    /// One decoded request frame → exactly one pending response.
    fn handle_request(&mut self, ctx: &ReactorCtx<'_>, frame: Frame) {
        match frame {
            Frame::Ping => self.pending.push_back(Pending::Ready(Frame::Pong)),
            Frame::Query { mode, sql } => {
                self.submit(ctx, mode, |session, exec| session.submit_sql(&sql, exec));
            }
            Frame::RunPlan { mode, plan } => {
                let Some(bound) = ctx.plans.get(plan as usize).cloned() else {
                    self.pending.push_back(Pending::Ready(Frame::Error {
                        error: BwdError::NotFound(format!("no registered plan {plan}")),
                        retryable: false,
                    }));
                    return;
                };
                self.submit(ctx, mode, |session, exec| Ok(session.submit(bound, exec)));
            }
            // A client has no business sending response frames.
            Frame::Result(_) | Frame::Error { .. } | Frame::Busy { .. } | Frame::Pong => {
                self.protocol_error(
                    ctx,
                    BwdError::InvalidArgument(format!(
                        "unexpected response frame {:#04x} from client",
                        frame.type_byte()
                    )),
                );
            }
        }
    }

    /// Shed-or-submit: past the hard watermark the request is answered
    /// `Busy` without ever touching the queue; otherwise it is submitted
    /// and its ticket wakes the serve loop on resolution.
    fn submit<F>(&mut self, ctx: &ReactorCtx<'_>, mode: WireMode, submit: F)
    where
        F: FnOnce(&Session, bwd_engine::ExecMode) -> bwd_types::Result<Ticket>,
    {
        let queued = ctx.sched.queue_len();
        if queued >= ctx.cfg.shed_queued_jobs {
            ctx.metrics.busy_shed.inc();
            self.pending.push_back(Pending::Ready(Frame::Busy {
                queued: queued.min(u32::MAX as usize) as u32,
            }));
            return;
        }
        match submit(&self.session, mode.exec_mode()) {
            Ok(ticket) => {
                let wake = Arc::clone(ctx.wake);
                ticket.set_waker(move || wake.signal());
                self.pending.push_back(Pending::Job(ticket));
                ctx.metrics.queries.inc();
                // The reactor-observed high-water mark of the queue depth.
                ctx.metrics
                    .peak_queue_depth
                    .max(ctx.sched.queue_len() as i64);
            }
            Err(error) => {
                // Parse/bind failures resolve immediately — still in
                // request order, through the same pending queue.
                self.pending.push_back(Pending::Ready(Frame::Error {
                    error,
                    retryable: false,
                }));
            }
        }
    }
}
