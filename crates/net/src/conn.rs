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

use crate::config::{MAX_INFLIGHT_PER_CONN, PAUSE_QUEUED_JOBS, SHED_QUEUED_JOBS};
use crate::frame::{Frame, FrameDecoder, WireMode};
use crate::server::{NetMetrics, POLLIN, POLLOUT};
use crate::transport::{IoEvent, Transport};
use bwd_core::plan::ArPlan;
use bwd_sched::{Scheduler, Session, Ticket};
use bwd_types::BwdError;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The serve loop's wake channel: a socket pair it polls, written by
/// ticket wakers, duplex peers, the scheduler's dequeue hook and
/// shutdown. Only the signal that raises the flag writes a byte; the
/// loop drains the pipe *before* it lowers the flag, so a signal landing
/// between the two writes nothing and the next pass sees its cause
/// (lowered first, the drain could eat that signal's byte and leave the
/// flag up, silencing every later signal).
#[derive(Default)]
pub(crate) struct WakeFlag {
    raised: AtomicBool,
    /// Opened when a serve loop starts; until then signals only raise
    /// the flag.
    pair: OnceLock<(UnixStream, UnixStream)>,
}

impl WakeFlag {
    pub(crate) fn signal(&self) {
        if !self.raised.swap(true, Ordering::SeqCst) {
            if let Some((tx, _)) = self.pair.get() {
                let _ = (&*tx).write(&[1]);
            }
        }
    }

    /// Open the socket pair (once) and return its read end's descriptor.
    pub(crate) fn open(&self) -> io::Result<RawFd> {
        if self.pair.get().is_none() {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let _ = self.pair.set((tx, rx));
        }
        Ok(self.pair.get().map_or(-1, |(_, rx)| rx.as_raw_fd()))
    }

    /// Drain the pipe, then lower the flag. One read drains it: only a
    /// signal that raised the flag writes, so at most a few bytes wait.
    pub(crate) fn clear(&self) {
        if let Some((_, rx)) = self.pair.get() {
            let _ = (&*rx).read(&mut [0u8; 64]);
        }
        self.raised.store(false, Ordering::SeqCst);
    }
}

/// Shared reactor context one pass hands to every connection.
pub(crate) struct ReactorCtx<'a> {
    pub sched: &'a Scheduler,
    pub metrics: &'a NetMetrics,
    pub plans: &'a [ArPlan],
    pub wake: &'a Arc<WakeFlag>,
}

/// Probe the scheduler *now*: would the read-pause watermark skip a
/// socket read?
pub(crate) fn reads_paused(sched: &Scheduler) -> bool {
    sched.queue_len() >= PAUSE_QUEUED_JOBS
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
    /// Last pass this connection made progress, on
    /// [`crate::NetConfig::clock`] ([`crate::NetServer`]'s idle reaper
    /// reads and maintains this).
    pub(crate) last_activity_ns: u64,
    /// The descriptor the serve loop polls ([`Transport::readiness`]).
    pub(crate) fd: Option<RawFd>,
}

impl Conn {
    pub(crate) fn new(transport: Box<dyn Transport>, session: Session, fd: Option<RawFd>) -> Conn {
        Conn {
            fd,
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

    /// Not at EOF, dead or closing, and under the in-flight cap.
    fn would_read(&self) -> bool {
        !(self.read_eof || self.io_dead || self.closing)
            && self.pending.len() < MAX_INFLIGHT_PER_CONN
    }

    /// The poll(2) events this connection can act on now: input only
    /// while it would read (a paused or capped connection left readable
    /// would end every wait at once), output only while bytes wait.
    pub(crate) fn interest(&self, paused: bool) -> i16 {
        let read = self.would_read() && !paused;
        let write = !self.io_dead && self.out_pos < self.outbuf.len();
        (if read { POLLIN } else { 0 }) | (if write { POLLOUT } else { 0 })
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
        if !self.would_read() {
            return false;
        }
        // The watermark probe: sampled immediately before every read so
        // the bound holds pass-internally, not just pass-to-pass.
        if reads_paused(ctx.sched) {
            ctx.metrics.read_pauses.inc();
            return false;
        }
        match self.transport.try_read(scratch) {
            Ok(IoEvent::Bytes(n)) => {
                self.decoder.feed(&scratch[..n]);
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
        while !self.closing && self.pending.len() < MAX_INFLIGHT_PER_CONN {
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
        if queued >= SHED_QUEUED_JOBS {
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
