//! A blocking connection speaking the frame format directly.
//!
//! `NetClient::recv` spins on `yield_now()` and cannot be given a
//! deadline. That is fine for a closed loop at depth 1 beside an idle
//! core, but on a 2-vCPU host a spinning generator next to a saturated
//! worker leaves no core for the reactor, and an open loop must stop
//! waiting when its next request falls due. Where either matters the
//! harness uses this connection instead: it sleeps in the kernel while it
//! waits. (`NetClient` documents itself as a convenience, not part of the
//! wire contract — any byte stream speaking the frame format interoperates.)

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use waste_not::net::{Frame, FrameDecoder, WireMode};
use waste_not::types::BwdError;
use waste_not::QueryResult;

/// How long a closed-loop request may take before the connection is
/// declared broken (a lost response must not hang the run).
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest sleep between two polls of [`WireConn::recv_until`].
pub const POLL_SLICE: Duration = Duration::from_micros(200);

/// A blocking frame connection over loopback TCP.
pub struct WireConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

fn io_err(e: impl std::fmt::Display) -> BwdError {
    BwdError::Exec(format!("net i/o: {e}"))
}

impl WireConn {
    /// Connect with Nagle disabled, as `TcpTransport` does.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireConn {
            stream,
            decoder: FrameDecoder::new(),
        })
    }

    /// Write one encoded frame completely.
    pub fn send(&mut self, encoded: &[u8]) -> waste_not::Result<()> {
        self.stream.write_all(encoded).map_err(io_err)
    }

    /// The next frame already buffered, without touching the socket.
    pub fn buffered(&mut self) -> waste_not::Result<Option<Frame>> {
        self.decoder.next().map_err(BwdError::from)
    }

    /// The next frame, waiting at most `timeout` for bytes; `Ok(None)`
    /// when the time is up.
    pub fn recv(&mut self, timeout: Duration) -> waste_not::Result<Option<Frame>> {
        let mut buf = [0u8; 16 << 10];
        loop {
            if let Some(frame) = self.buffered()? {
                return Ok(Some(frame));
            }
            // A zero timeout would mean "block forever" to the socket.
            self.stream
                .set_read_timeout(Some(timeout.max(Duration::from_micros(1))))
                .map_err(io_err)?;
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io_err("peer closed")),
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// The next frame, polling without blocking until `deadline`;
    /// `Ok(None)` when it passes. Socket timeouts (`SO_RCVTIMEO`) are
    /// rounded up to scheduler ticks — 4 ms and more — which an open-loop
    /// schedule cannot afford, so this sleeps in [`POLL_SLICE`]s instead.
    /// Leaves the socket non-blocking; use it on a connection of its own.
    pub fn recv_until(&mut self, deadline: Instant) -> waste_not::Result<Option<Frame>> {
        let mut buf = [0u8; 16 << 10];
        self.stream.set_nonblocking(true).map_err(io_err)?;
        loop {
            if let Some(frame) = self.buffered()? {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io_err("peer closed")),
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    std::thread::sleep(left.min(POLL_SLICE));
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// One closed-loop request: send, then block for the response.
    pub fn query(&mut self, sql: &str, mode: WireMode) -> waste_not::Result<QueryResult> {
        let request = Frame::Query {
            mode,
            sql: sql.to_string(),
        };
        self.send(&request.encode())?;
        match self.recv(RESPONSE_TIMEOUT)? {
            Some(frame) => response_of(frame),
            None => Err(io_err("no response in time")),
        }
    }
}

/// Unwrap a response frame; `Busy` and stray frames are errors here —
/// the benchmark counts them as failed requests.
pub fn response_of(frame: Frame) -> waste_not::Result<QueryResult> {
    match frame {
        Frame::Result(r) => Ok(*r),
        Frame::Error { error, .. } => Err(error),
        Frame::Busy { queued } => Err(BwdError::Unsupported(format!(
            "server busy ({queued} queued)"
        ))),
        other => Err(BwdError::Exec(format!(
            "unexpected response frame {:#04x}",
            other.type_byte()
        ))),
    }
}
