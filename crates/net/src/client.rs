//! A small blocking client over any [`Transport`].
//!
//! The server side is strictly non-blocking; clients usually aren't, so
//! [`NetClient`] wraps a transport with send-all / receive-one-frame
//! calls. Over TCP the socket stays blocking and the client sleeps in the
//! kernel; over a non-blocking transport (an in-memory duplex pipe) it
//! yields between attempts. Tests and the example use it against both;
//! it is a convenience, not part of the wire contract — any byte stream
//! speaking the frame format interoperates.
//!
//! Two robustness behaviors are built into [`NetClient::query`], with
//! fixed bounds:
//!
//! * **Busy backoff** — a [`Frame::Busy`] response (the server's hard
//!   shed limit) is retried automatically under capped exponential
//!   backoff, using the server's `queued`-depth hint to stretch the
//!   first delays when the queue is deep: at most 8 retries, 1 ms base,
//!   200 ms cap. Exhaustion surfaces the busy error.
//! * **Transparent reconnect** — a broken stream (an I/O error such as a
//!   reset, a close before the response, or EOF in the middle of a
//!   frame) tears the transport down and, when a reconnect factory is
//!   present ([`NetClient::connect_tcp`] installs one), dials again and
//!   replays the request once. The engine's queries are read-only, so
//!   replay is idempotent. A frame that arrives whole but does not decode
//!   is a protocol error and is not replayed.

use crate::frame::{Frame, FrameDecoder, WireMode};
use crate::transport::{IoEvent, TcpTransport, Transport};
use bwd_engine::QueryResult;
use bwd_types::{BwdError, Result};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

fn io_err(e: io::Error) -> BwdError {
    BwdError::Exec(format!("net i/o: {e}"))
}

/// Is this a transport-level failure (candidate for reconnect), as
/// opposed to a server-sent or protocol error?
fn is_io_error(e: &BwdError) -> bool {
    matches!(e, BwdError::Exec(m) if m.starts_with("net i/o:"))
}

/// Automatic retries after a [`Frame::Busy`] response before the busy
/// error surfaces.
const BUSY_RETRIES: u32 = 8;
/// Backoff slept before the first busy retry; doubles per retry.
const BUSY_BACKOFF: Duration = Duration::from_millis(1);
/// Ceiling on any single backoff sleep.
const BACKOFF_CAP: Duration = Duration::from_millis(200);
/// Reconnect-and-replay attempts per request after a broken stream
/// (only with a reconnect factory).
const RECONNECTS: u32 = 1;

/// Factory that re-establishes a broken connection.
type ReconnectFn = Box<dyn FnMut() -> io::Result<Box<dyn Transport>> + Send>;

/// A blocking request/response client (see the [crate docs](crate)).
pub struct NetClient {
    transport: Box<dyn Transport>,
    decoder: FrameDecoder,
    reconnect: Option<ReconnectFn>,
    busy_retries_used: u64,
    reconnects_used: u64,
}

impl NetClient {
    /// Wrap an established transport.
    pub fn new(transport: Box<dyn Transport>) -> NetClient {
        NetClient {
            transport,
            decoder: FrameDecoder::new(),
            reconnect: None,
            busy_retries_used: 0,
            reconnects_used: 0,
        }
    }

    /// Connect over TCP on a blocking socket. Installs a reconnect
    /// factory that redials the same address, so broken streams heal
    /// transparently.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let dial = move || -> io::Result<Box<dyn Transport>> {
            let stream = TcpStream::connect(&resolved[..])?;
            Ok(Box::new(TcpTransport::new(stream)))
        };
        let mut client = NetClient::new(dial()?);
        client.reconnect = Some(Box::new(dial));
        Ok(client)
    }

    /// Busy responses absorbed by automatic backoff so far.
    pub fn busy_retries_used(&self) -> u64 {
        self.busy_retries_used
    }

    /// Transparent reconnects performed so far.
    pub fn reconnects_used(&self) -> u64 {
        self.reconnects_used
    }

    /// Send one frame, blocking until it is fully written. A frame past
    /// [`crate::DEFAULT_MAX_FRAME_LEN`] is refused before a byte is written.
    pub fn send(&mut self, frame: &Frame) -> Result<()> {
        let mut buf = Vec::new();
        frame.try_encode_into(&mut buf)?;
        let mut pos = 0;
        while pos < buf.len() {
            match self.transport.try_write(&buf[pos..]).map_err(io_err)? {
                IoEvent::Bytes(n) => pos += n,
                IoEvent::WouldBlock => std::thread::yield_now(),
                IoEvent::Eof => {
                    return Err(BwdError::Exec("net i/o: peer closed".into()));
                }
            }
        }
        Ok(())
    }

    /// Receive one frame, blocking until a full frame arrives.
    pub fn recv(&mut self) -> Result<Frame> {
        loop {
            if let Some(frame) = self.decoder.next().map_err(BwdError::from)? {
                return Ok(frame);
            }
            let mut chunk = [0u8; 4096];
            match self.transport.try_read(&mut chunk).map_err(io_err)? {
                IoEvent::Bytes(n) => self.decoder.feed(&chunk[..n]),
                IoEvent::WouldBlock => std::thread::yield_now(),
                IoEvent::Eof => {
                    // A frame cut by EOF is a broken stream, not a protocol
                    // fault: it reconnects like any other transport failure.
                    let why = match self.decoder.finish_eof() {
                        Ok(()) => "peer closed".to_string(),
                        Err(cut) => cut.to_string(),
                    };
                    return Err(BwdError::Exec(format!("net i/o: {why}")));
                }
            }
        }
    }

    /// One round trip: send `frame`, return the next response frame.
    fn round_trip(&mut self, frame: &Frame) -> Result<Frame> {
        self.send(frame)?;
        self.recv()
    }

    /// One round trip with robustness: a broken stream dials the
    /// reconnect factory, swaps in the fresh transport with a clean
    /// decoder (bytes of a half-received frame are gone with the old
    /// stream) and replays, at most [`RECONNECTS`] times.
    fn resilient_round_trip(&mut self, frame: &Frame) -> Result<Frame> {
        let mut reconnects_left = RECONNECTS;
        loop {
            match self.round_trip(frame) {
                Ok(resp) => return Ok(resp),
                Err(e) if is_io_error(&e) && reconnects_left > 0 => {
                    let Some(factory) = self.reconnect.as_mut() else {
                        return Err(e);
                    };
                    reconnects_left -= 1;
                    self.transport = factory().map_err(io_err)?;
                    self.decoder = FrameDecoder::new();
                    self.reconnects_used += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Run a SQL query and unwrap the response: `Ok` on a result frame,
    /// the carried error on an error frame. `Busy` responses are retried
    /// up to 8 times under capped exponential backoff; exhaustion yields
    /// an `Unsupported` retry-later error.
    pub fn query(&mut self, sql: &str, mode: WireMode) -> Result<QueryResult> {
        let frame = Frame::Query {
            mode,
            sql: sql.to_string(),
        };
        let mut attempt = 0u32;
        loop {
            match self.resilient_round_trip(&frame)? {
                Frame::Result(result) => return Ok(*result),
                Frame::Error { error, .. } => return Err(error),
                Frame::Busy { queued } => {
                    if attempt == BUSY_RETRIES {
                        return Err(BwdError::Unsupported(format!(
                            "server busy ({queued} queued); retry later"
                        )));
                    }
                    self.busy_retries_used += 1;
                    std::thread::sleep(busy_delay(attempt, queued));
                    attempt += 1;
                }
                other => {
                    return Err(BwdError::Exec(format!(
                        "unexpected response frame {:#04x}",
                        other.type_byte()
                    )))
                }
            }
        }
    }

    /// Liveness check: send ping, expect pong.
    pub fn ping(&mut self) -> Result<()> {
        match self.round_trip(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(BwdError::Exec(format!(
                "expected pong, got frame {:#04x}",
                other.type_byte()
            ))),
        }
    }
}

/// Exponential backoff for busy retry `attempt`, stretched by the
/// server's queue-depth hint and capped.
fn busy_delay(attempt: u32, queued: u32) -> Duration {
    let exp = BUSY_BACKOFF.saturating_mul(1u32 << attempt.min(10));
    // Deeper queue → longer first waits: one extra base unit per 64
    // queued jobs, bounded so the hint can't outrun the cap.
    let hinted = exp.saturating_add(BUSY_BACKOFF.saturating_mul((queued / 64).min(32)));
    hinted.min(BACKOFF_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::os::fd::RawFd;
    use std::sync::Arc;

    /// A transport that answers each fully-written request with the next
    /// scripted response frame; optionally fails the first write with a
    /// connection reset (exercising the reconnect path).
    struct Scripted {
        responses: VecDeque<Vec<u8>>,
        readable: Vec<u8>,
        read_pos: usize,
        fail_first_write: bool,
        /// Reads past the scripted bytes return EOF, not `WouldBlock`.
        eof_when_drained: bool,
    }

    impl Scripted {
        fn new(responses: Vec<Frame>, fail_first_write: bool) -> Scripted {
            Scripted::of_bytes(
                responses.iter().map(Frame::encode).collect(),
                fail_first_write,
            )
        }

        fn of_bytes(responses: Vec<Vec<u8>>, fail_first_write: bool) -> Scripted {
            Scripted {
                responses: responses.into(),
                readable: Vec::new(),
                read_pos: 0,
                fail_first_write,
                eof_when_drained: false,
            }
        }
    }

    impl Transport for Scripted {
        fn try_read(&mut self, buf: &mut [u8]) -> io::Result<IoEvent> {
            let avail = &self.readable[self.read_pos..];
            if avail.is_empty() {
                return Ok(if self.eof_when_drained {
                    IoEvent::Eof
                } else {
                    IoEvent::WouldBlock
                });
            }
            let n = buf.len().min(avail.len());
            buf[..n].copy_from_slice(&avail[..n]);
            self.read_pos += n;
            Ok(IoEvent::Bytes(n))
        }

        fn try_write(&mut self, buf: &[u8]) -> io::Result<IoEvent> {
            if self.fail_first_write {
                self.fail_first_write = false;
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "scripted"));
            }
            if let Some(resp) = self.responses.pop_front() {
                self.readable.extend_from_slice(&resp);
            }
            Ok(IoEvent::Bytes(buf.len()))
        }

        fn readiness(&mut self, _wake: &Arc<dyn Fn() + Send + Sync>) -> Option<RawFd> {
            None
        }
    }

    #[test]
    fn busy_responses_retry_until_a_real_answer() {
        let script = Scripted::new(
            vec![
                Frame::Busy { queued: 512 },
                Frame::Busy { queued: 3 },
                Frame::Error {
                    error: BwdError::NotFound("no such table".into()),
                    retryable: false,
                },
            ],
            false,
        );
        let mut client = NetClient::new(Box::new(script));
        let err = client.query("select 1", WireMode::Classic).unwrap_err();
        assert!(matches!(err, BwdError::NotFound(_)), "got {err}");
        assert_eq!(client.busy_retries_used(), 2);
        assert_eq!(client.reconnects_used(), 0);
    }

    #[test]
    fn busy_retries_are_bounded() {
        let busy = vec![Frame::Busy { queued: 1 }; BUSY_RETRIES as usize + 1];
        let mut client = NetClient::new(Box::new(Scripted::new(busy, false)));
        let err = client.query("select 1", WireMode::Classic).unwrap_err();
        assert!(matches!(err, BwdError::Unsupported(_)), "got {err}");
        assert_eq!(client.busy_retries_used(), u64::from(BUSY_RETRIES));
    }

    #[test]
    fn broken_stream_reconnects_and_replays() {
        let broken = Scripted::new(vec![], true);
        let mut client = NetClient::new(Box::new(broken));
        client.reconnect = Some(Box::new(|| {
            Ok(Box::new(Scripted::new(
                vec![Frame::Error {
                    error: BwdError::NotFound("replayed".into()),
                    retryable: false,
                }],
                false,
            )) as Box<dyn Transport>)
        }));
        let err = client.query("select 1", WireMode::Classic).unwrap_err();
        assert!(matches!(err, BwdError::NotFound(_)), "got {err}");
        assert_eq!(client.reconnects_used(), 1);
    }

    #[test]
    fn a_stream_cut_mid_frame_reconnects_and_replays() {
        let mut cut = Frame::Busy { queued: 1 }.encode();
        cut.truncate(cut.len() - 2);
        let mut broken = Scripted::of_bytes(vec![cut], false);
        broken.eof_when_drained = true;
        let mut client = NetClient::new(Box::new(broken));
        client.reconnect = Some(Box::new(|| {
            Ok(Box::new(Scripted::new(
                vec![Frame::Error {
                    error: BwdError::NotFound("replayed".into()),
                    retryable: false,
                }],
                false,
            )) as Box<dyn Transport>)
        }));
        let err = client.query("select 1", WireMode::Classic).unwrap_err();
        assert!(
            matches!(&err, BwdError::NotFound(m) if m == "replayed"),
            "got {err}"
        );
        assert_eq!(client.reconnects_used(), 1);
    }

    #[test]
    fn io_failure_without_factory_surfaces() {
        let broken = Scripted::new(vec![], true);
        let mut client = NetClient::new(Box::new(broken));
        let err = client.query("select 1", WireMode::Classic).unwrap_err();
        assert!(is_io_error(&err), "got {err}");
    }

    #[test]
    fn busy_delay_scales_with_attempt_and_hint_then_caps() {
        let d0 = busy_delay(0, 0);
        let d1 = busy_delay(1, 0);
        let hinted = busy_delay(0, 640);
        let capped = busy_delay(30, u32::MAX);
        assert_eq!(d0, Duration::from_millis(1));
        assert_eq!(d1, Duration::from_millis(2));
        assert!(hinted > d0, "queue hint should stretch the first delay");
        assert_eq!(capped, BACKOFF_CAP);
    }
}
