//! `bwd-net` — the network front door: a dependency-free, poll-based
//! connection multiplexer over the `bwd-sched` scheduler.
//!
//! The paper's co-processing argument assumes a *server*: many sessions
//! concurrently submitting queries against shared device state, with
//! admission control deciding what reaches the GPU. This crate supplies
//! that front door without an async runtime:
//!
//! * [`Frame`] / [`FrameDecoder`] — a length-prefixed wire protocol
//!   (SQL or registered-plan requests in; columnar result, error, busy
//!   and pong frames out) with an incremental, poisoning decoder that
//!   never panics or over-reads on corrupt input. One frame cap,
//!   [`DEFAULT_MAX_FRAME_LEN`], holds on both ends: senders refuse to
//!   encode past it, decoders reject past it.
//! * [`Transport`] — the non-blocking byte-stream contract, implemented
//!   by real non-blocking sockets and by [`Duplex`] (bounded in-memory
//!   pipes that make multi-connection tests deterministic).
//! * [`NetServer`] — a mini-reactor: one thread polls every connection,
//!   submits decoded queries through non-blocking
//!   [`bwd_sched::Ticket`]s, and emits responses strictly in request
//!   order. No connection ever pins a scheduler worker.
//! * [`NetConfig`] — two-level backpressure: past the read-pause
//!   watermark on scheduler queue depth the reactor stops *reading
//!   sockets* (demand queues in transport buffers, keeping the scheduler
//!   queue provably bounded); past the hard shed limit already-decoded
//!   requests get a retryable [`Frame::Busy`].
//! * [`NetClient`] — a small blocking client for tests and examples,
//!   with fixed busy-backoff and reconnect bounds.
//!
//! Observability is metrics only: the `bwd_net_*` counters and gauges
//! via [`NetServer::metrics_text`].

#![deny(missing_docs)]

mod client;
mod config;
mod conn;
mod frame;
mod server;
mod transport;
mod wire;

pub use client::NetClient;
pub use config::NetConfig;
pub use frame::{Frame, FrameDecoder, FrameError, WireMode, DEFAULT_MAX_FRAME_LEN};
pub use server::{NetServer, NetServerHandle};
pub use transport::{duplex, Duplex, FaultyTransport, IoEvent, Transport};
