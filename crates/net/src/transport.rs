//! Byte transports the reactor multiplexes over.
//!
//! Two implementations share one [`Transport`] contract: [`TcpTransport`]
//! wraps a real socket, and [`Duplex`] is a deterministic in-memory pipe
//! pair for tests — same connection state machine, same backpressure
//! behavior, no kernel in the loop. A bounded `Duplex` also *models*
//! socket buffers: when the reactor pauses reads, bytes pile up in the
//! transport exactly as they would in a kernel receive queue.

use bwd_types::{FaultPlan, FaultSite};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// What a transport calls to wake the serve loop that adopted it.
type Wake = Arc<dyn Fn() + Send + Sync>;

/// Outcome of one non-blocking transport operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoEvent {
    /// `n > 0` bytes were transferred.
    Bytes(usize),
    /// Nothing can transfer right now; retry on the next reactor pass.
    WouldBlock,
    /// The peer closed its sending side (reads only).
    Eof,
}

/// A byte stream. A server's transports never block; a client's may.
pub trait Transport: Send {
    /// Read into `buf`.
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<IoEvent>;

    /// Write from `buf`; partial writes are normal.
    fn try_write(&mut self, buf: &[u8]) -> io::Result<IoEvent>;

    /// How a [`crate::NetServer`]'s serve loop learns that this transport
    /// may have become ready, asked once when the server adopts it: a
    /// descriptor it polls, or `None` once `wake` is arranged to run
    /// whenever the peer moves bytes or closes.
    fn readiness(&mut self, wake: &Arc<dyn Fn() + Send + Sync>) -> Option<RawFd>;
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// A [`Transport`] decorator that injects deterministic I/O faults from a
/// seeded [`FaultPlan`].
///
/// Reads draw from [`FaultSite::TransportRead`], writes from
/// [`FaultSite::TransportWrite`]. An injected fault surfaces as a
/// `ConnectionReset` I/O error — indistinguishable from a real dead
/// socket, so the reactor's close path (ticket cancellation included) and
/// the client's reconnect path exercise their production code under test.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`, drawing faults from `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyTransport<T> {
        FaultyTransport { inner, plan }
    }
}

fn injected_io_error(site: FaultSite) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("injected {} fault", site.as_str()),
    )
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<IoEvent> {
        if self.plan.check(FaultSite::TransportRead).is_err() {
            return Err(injected_io_error(FaultSite::TransportRead));
        }
        self.inner.try_read(buf)
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<IoEvent> {
        if self.plan.check(FaultSite::TransportWrite).is_err() {
            return Err(injected_io_error(FaultSite::TransportWrite));
        }
        self.inner.try_write(buf)
    }

    fn readiness(&mut self, wake: &Wake) -> Option<RawFd> {
        self.inner.readiness(wake)
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// A TCP stream: non-blocking where a server accepted it, blocking where
/// a client dialed it.
pub(crate) struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap `stream` in the blocking mode it has, disabling Nagle (the
    /// protocol is request/response; batching adds latency and nothing
    /// else).
    pub(crate) fn new(stream: TcpStream) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport { stream }
    }
}

impl Transport for TcpTransport {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<IoEvent> {
        match self.stream.read(buf) {
            Ok(0) => Ok(IoEvent::Eof),
            Ok(n) => Ok(IoEvent::Bytes(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(IoEvent::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(IoEvent::WouldBlock),
            Err(e) => Err(e),
        }
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<IoEvent> {
        match self.stream.write(buf) {
            Ok(0) => Ok(IoEvent::WouldBlock),
            Ok(n) => Ok(IoEvent::Bytes(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(IoEvent::WouldBlock),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(IoEvent::WouldBlock),
            Err(e) => Err(e),
        }
    }

    fn readiness(&mut self, _wake: &Wake) -> Option<RawFd> {
        Some(self.stream.as_raw_fd())
    }
}

// ---------------------------------------------------------------------
// In-memory duplex
// ---------------------------------------------------------------------

/// One direction of a duplex pipe: a bounded byte queue.
struct Pipe {
    state: Mutex<PipeState>,
}

struct PipeState {
    data: VecDeque<u8>,
    capacity: usize,
    closed: bool,
}

impl Pipe {
    fn new(capacity: usize) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                data: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
        })
    }

    /// The pipe's state, even if a peer panicked holding it: every
    /// critical section below leaves it a valid queue.
    fn state(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One end of an in-memory duplex connection (see [`duplex`]).
///
/// Dropping an end closes *both* directions: the peer's reads observe
/// EOF once the buffered bytes drain, and the peer's writes fail with
/// `BrokenPipe` — the same semantics a TCP socket close gives. An end a
/// server adopts has no descriptor to poll: its peer's writes, reads and
/// drop wake the serve loop instead.
pub struct Duplex {
    /// Peer → us.
    rx: Arc<Pipe>,
    /// Us → peer.
    tx: Arc<Pipe>,
    /// The serve loops that adopted this end and the peer.
    woken: Arc<OnceLock<Wake>>,
    peer: Arc<OnceLock<Wake>>,
}

/// A symmetric in-memory connection: bytes written to one end become
/// readable at the other, bounded by `capacity` per direction.
pub fn duplex(capacity: usize) -> (Duplex, Duplex) {
    let a_to_b = Pipe::new(capacity);
    let b_to_a = Pipe::new(capacity);
    let (a, b) = (Arc::default(), Arc::default());
    (
        Duplex {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
            woken: Arc::clone(&a),
            peer: Arc::clone(&b),
        },
        Duplex {
            rx: a_to_b,
            tx: b_to_a,
            woken: b,
            peer: a,
        },
    )
}

impl Duplex {
    /// Wake the serve loop that adopted the peer, if one did.
    fn wake_peer(&self) {
        if let Some(wake) = self.peer.get() {
            wake();
        }
    }
}

impl Transport for Duplex {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<IoEvent> {
        let mut s = self.rx.state();
        if s.data.is_empty() {
            return if s.closed {
                Ok(IoEvent::Eof)
            } else {
                Ok(IoEvent::WouldBlock)
            };
        }
        let n = buf.len().min(s.data.len());
        for (b, byte) in buf.iter_mut().zip(s.data.drain(..n)) {
            *b = byte;
        }
        self.wake_peer();
        Ok(IoEvent::Bytes(n))
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<IoEvent> {
        let mut s = self.tx.state();
        if s.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "duplex peer closed",
            ));
        }
        let room = s.capacity.saturating_sub(s.data.len());
        let n = buf.len().min(room);
        if n == 0 {
            return Ok(IoEvent::WouldBlock);
        }
        s.data.extend(buf[..n].iter().copied());
        self.wake_peer();
        Ok(IoEvent::Bytes(n))
    }

    fn readiness(&mut self, wake: &Wake) -> Option<RawFd> {
        let _ = self.woken.set(Arc::clone(wake));
        None
    }
}

impl Drop for Duplex {
    fn drop(&mut self) {
        for pipe in [&self.rx, &self.tx] {
            pipe.state().closed = true;
        }
        self.wake_peer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_moves_bytes_and_signals_eof() {
        let (mut a, mut b) = duplex(8);
        assert_eq!(a.try_write(b"hello!").unwrap(), IoEvent::Bytes(6));
        let mut buf = [0u8; 4];
        assert_eq!(b.try_read(&mut buf).unwrap(), IoEvent::Bytes(4));
        assert_eq!(&buf, b"hell");
        assert_eq!(b.try_read(&mut buf).unwrap(), IoEvent::Bytes(2));
        assert_eq!(b.try_read(&mut buf).unwrap(), IoEvent::WouldBlock);
        drop(a);
        assert_eq!(b.try_read(&mut buf).unwrap(), IoEvent::Eof);
        assert!(matches!(
            b.try_write(b"x"),
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe
        ));
    }

    #[test]
    fn faulty_transport_injects_deterministic_resets() {
        use bwd_types::FaultSpec;

        let plan = FaultPlan::seeded(7)
            .site(FaultSite::TransportRead, FaultSpec::with_ppm(1_000_000))
            .build();
        let (a, mut b) = duplex(8);
        let mut f = FaultyTransport::new(a, plan.clone());
        let mut buf = [0u8; 4];
        let err = f.try_read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(plan.injected(FaultSite::TransportRead), 1);
        // Writes draw from their own site: a read-only plan leaves them
        // untouched.
        assert_eq!(f.try_write(b"hi").unwrap(), IoEvent::Bytes(2));
        assert_eq!(b.try_read(&mut buf).unwrap(), IoEvent::Bytes(2));
    }

    #[test]
    fn duplex_capacity_backpressures_writers() {
        let (mut a, mut b) = duplex(4);
        assert_eq!(a.try_write(b"123456").unwrap(), IoEvent::Bytes(4));
        assert_eq!(a.try_write(b"56").unwrap(), IoEvent::WouldBlock);
        let mut buf = [0u8; 2];
        assert_eq!(b.try_read(&mut buf).unwrap(), IoEvent::Bytes(2));
        assert_eq!(a.try_write(b"56").unwrap(), IoEvent::Bytes(2));
    }
}
