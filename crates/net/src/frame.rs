//! The length-prefixed wire protocol and its incremental decoder.
//!
//! A frame is a `Header` — `len: u32 LE` (the type byte plus the
//! payload) and the type byte — then the payload, so the smallest legal
//! frame is 5 bytes on the wire (`len = 1`, empty payload — [`Frame::Ping`]
//! and [`Frame::Pong`]). Requests flow client → server
//! ([`Frame::Query`], [`Frame::RunPlan`], [`Frame::Ping`]); responses flow
//! server → client ([`Frame::Result`], [`Frame::Error`], [`Frame::Busy`],
//! [`Frame::Pong`]), **one response per request, in request order**.
//!
//! The [`FrameDecoder`] is incremental (feed arbitrary byte chunks, pop
//! whole frames) and paranoid: an oversized length prefix, an unknown
//! type byte or a malformed payload is a clean [`FrameError`] — never a
//! panic, never a read past the frame — and poisons the decoder, because
//! a stream that lied about one length can never be resynchronized.

use crate::wire::{tag_of, wire, Coder, Fixed, Reader, Wire, Writer};
use bwd_engine::{ExecMode, QueryResult};
use bwd_types::BwdError;
use std::mem::{offset_of, size_of};
use std::sync::LazyLock;

/// A frame's header as it lies on the wire. The decoder's offsets come
/// from this layout; it is never built.
#[repr(C)]
struct Header {
    /// The type byte plus the payload, in bytes (`u32` LE).
    len: [u8; 4],
    /// The frame type: `0x0x` requests, `0x8x` responses.
    ty: u8,
}

/// Bytes of the length prefix.
const LEN_BYTES: usize = offset_of!(Header, ty);
/// Bytes before the payload.
const HEADER_BYTES: usize = size_of::<Header>();
/// The smallest legal `len`: a type byte and an empty payload.
const MIN_LEN: u32 = (HEADER_BYTES - LEN_BYTES) as u32;

/// Execution mode on the wire (a closed two-value enum, unlike
/// [`ExecMode`] which can carry engine options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Classic CPU-only execution.
    Classic,
    /// Approximate & Refine co-processing.
    ApproxRefine,
}

impl WireMode {
    /// The engine mode this wire mode requests.
    pub fn exec_mode(self) -> ExecMode {
        match self {
            WireMode::Classic => ExecMode::Classic,
            WireMode::ApproxRefine => ExecMode::ApproxRefine,
        }
    }
}

static MODES: [(u8, WireMode); 2] = [(0, WireMode::Classic), (1, WireMode::ApproxRefine)];

wire!(WireMode; |c, v| c.tag(v, &MODES));

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Execute one SQL statement in the given mode.
    Query {
        /// Execution mode.
        mode: WireMode,
        /// The SQL text.
        sql: String,
    },
    /// Execute a plan previously registered on the server
    /// ([`crate::NetServer::register_plan`]) by id.
    RunPlan {
        /// Execution mode.
        mode: WireMode,
        /// The server-assigned plan id.
        plan: u64,
    },
    /// Liveness probe; the server answers [`Frame::Pong`] in order with
    /// the query responses.
    Ping,
    /// A completed query's full [`QueryResult`].
    Result(Box<QueryResult>),
    /// A failed query's [`BwdError`]. `retryable` marks transient
    /// conditions (admission timeouts) a client may simply resubmit.
    Error {
        /// The error, variant-faithfully round-tripped.
        error: BwdError,
        /// Whether resubmitting the identical request may succeed.
        retryable: bool,
    },
    /// The server shed this request before queueing it (scheduler
    /// queue past the shed limit). Always retryable.
    Busy {
        /// Scheduler queue depth observed when shedding — a client-side
        /// backoff hint.
        queued: u32,
    },
    /// Liveness probe response.
    Pong,
}

/// A framing or payload decode failure. Any of these poisons the
/// decoder: the connection must be closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the decoder's configured maximum.
    Oversized {
        /// The declared frame length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// A frame declared length zero (even an empty payload carries its
    /// type byte).
    EmptyFrame,
    /// The type byte is not a known frame type.
    UnknownType(u8),
    /// The payload did not parse (truncated field, bad tag, trailing
    /// bytes, invalid UTF-8).
    Malformed(String),
    /// The peer disconnected mid-frame (EOF with a partial frame
    /// buffered).
    TruncatedByEof {
        /// Bytes of the partial frame left in the buffer.
        buffered: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            FrameError::EmptyFrame => write!(f, "zero-length frame (missing type byte)"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            FrameError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
            FrameError::TruncatedByEof { buffered } => {
                write!(f, "peer disconnected mid-frame ({buffered} bytes buffered)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for BwdError {
    fn from(e: FrameError) -> BwdError {
        BwdError::Exec(format!("wire protocol error: {e}"))
    }
}

/// Frame types, `0x0x` requests and `0x8x` responses: the one map between
/// a type byte and its variant.
#[rustfmt::skip]
static FRAMES: LazyLock<[(u8, Frame); 7]> = LazyLock::new(|| [
    (0x01, Frame::Query { mode: WireMode::Classic, sql: String::new() }),
    (0x02, Frame::RunPlan { mode: WireMode::Classic, plan: 0 }),
    (0x03, Frame::Ping),
    (0x81, Frame::Result(Box::default())),
    (0x82, Frame::Error { error: BwdError::Cancelled, retryable: false }),
    (0x83, Frame::Busy { queued: 0 }),
    (0x84, Frame::Pong),
]);

// The payload; the header before it is `encode_into`'s and the decoder's.
wire!(Frame; |c, v| {
    match v {
        Frame::Query { mode, sql } => {
            WireMode::code(c, mode)?;
            c.str(sql)
        }
        Frame::RunPlan { mode, plan } => {
            WireMode::code(c, mode)?;
            c.fixed(plan)
        }
        Frame::Ping | Frame::Pong => Ok(()),
        Frame::Result(r) => QueryResult::code(c, r),
        Frame::Error { error, retryable } => {
            c.fixed(retryable)?;
            BwdError::code(c, error)
        }
        Frame::Busy { queued } => c.fixed(queued),
    }
});

impl Frame {
    /// The frame's type byte.
    pub fn type_byte(&self) -> u8 {
        tag_of(&*FRAMES, self)
    }

    /// Append this frame's wire encoding (header included) to `buf`.
    /// Past 4 GiB the length prefix saturates at `u32::MAX`, which every
    /// decoder rejects as oversized; a sender that cannot bound its frame
    /// uses [`Frame::try_encode_into`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0; LEN_BYTES]); // `len`, patched below
        buf.push(self.type_byte());
        Frame::code(&mut Writer(buf), self).expect("only the reader fails");
        let len = u32::try_from(buf.len() - start - LEN_BYTES).unwrap_or(u32::MAX);
        buf[start..start + LEN_BYTES].copy_from_slice(&len.to_le_bytes());
    }

    /// [`Frame::encode_into`], unless the frame's length would pass
    /// [`DEFAULT_MAX_FRAME_LEN`], which no decoder accepts: then `buf` is
    /// left as it was and the error names the length and the cap.
    pub fn try_encode_into(&self, buf: &mut Vec<u8>) -> Result<(), BwdError> {
        let start = buf.len();
        self.encode_into(buf);
        let len = buf.len() - start - LEN_BYTES;
        if len > DEFAULT_MAX_FRAME_LEN as usize {
            buf.truncate(start);
            return Err(BwdError::InvalidArgument(format!(
                "frame {:#04x} of {len} bytes exceeds the {DEFAULT_MAX_FRAME_LEN}-byte frame cap",
                self.type_byte()
            )));
        }
        Ok(())
    }

    /// This frame's wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }
}

/// Cap on one frame's `len` field, 16 MiB: senders refuse to encode past
/// it and every decoder rejects past it.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 << 20;

/// Incremental frame decoder over a byte stream.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it outgrows the live
    /// suffix so long-lived connections don't accrete garbage.
    pos: usize,
    max_len: u32,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder enforcing [`DEFAULT_MAX_FRAME_LEN`].
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_len(DEFAULT_MAX_FRAME_LEN)
    }

    /// A decoder rejecting frames whose declared length exceeds
    /// `max_len`, itself clamped to `1..=`[`DEFAULT_MAX_FRAME_LEN`]: a
    /// decoder may be stricter than the protocol's cap, never looser.
    pub fn with_max_len(max_len: u32) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_len: max_len.clamp(1, DEFAULT_MAX_FRAME_LEN),
            poisoned: None,
        }
    }

    /// Append raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a previous error poisoned this decoder.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Pop the next complete frame: `Ok(None)` means "need more bytes".
    /// Any `Err` is sticky — a stream that framed one message wrong
    /// cannot be trusted about where the next one starts.
    ///
    /// Deliberately not `Iterator`: errors are sticky and callers must
    /// see them, which `Iterator::next`'s `Option` cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        self.sticky(FrameDecoder::try_next)
    }

    /// Run `step` unless a previous error poisoned the decoder; an error
    /// it returns poisons it.
    fn sticky<T>(
        &mut self,
        step: impl FnOnce(&mut Self) -> Result<T, FrameError>,
    ) -> Result<T, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        step(self).inspect_err(|e| self.poisoned = Some(e.clone()))
    }

    fn try_next(&mut self) -> Result<Option<Frame>, FrameError> {
        let Some(prefix) = self.buf.get(self.pos..self.pos + LEN_BYTES) else {
            return Ok(None);
        };
        let len = u32::get(&mut Reader::new(prefix))?;
        if len < MIN_LEN {
            return Err(FrameError::EmptyFrame);
        }
        if len > self.max_len {
            return Err(FrameError::Oversized {
                len,
                max: self.max_len,
            });
        }
        let total = LEN_BYTES + len as usize;
        if self.buffered() < total {
            return Ok(None);
        }
        let ty = self.buf[self.pos + LEN_BYTES];
        let Some((_, blank)) = FRAMES.iter().find(|(t, _)| *t == ty) else {
            return Err(FrameError::UnknownType(ty));
        };
        let mut frame = blank.clone();
        let mut r = Reader::new(&self.buf[self.pos + HEADER_BYTES..self.pos + total]);
        Frame::code(&mut r, &mut frame)?;
        r.finish()?;
        self.pos += total;
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(frame))
    }

    /// Signal end-of-stream: a partial frame still buffered means the
    /// peer disconnected mid-frame.
    pub fn finish_eof(&mut self) -> Result<(), FrameError> {
        self.sticky(|d| match d.buffered() {
            0 => Ok(()),
            buffered => Err(FrameError::TruncatedByEof { buffered }),
        })
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_past_the_cap_is_refused_on_encode_and_leaves_the_buffer() {
        let at_cap = Frame::Query {
            mode: WireMode::Classic,
            // type + mode + string length prefix: 6 B besides the SQL.
            sql: "x".repeat(DEFAULT_MAX_FRAME_LEN as usize - 6),
        };
        let mut buf = vec![7u8; 3];
        at_cap.try_encode_into(&mut buf).unwrap();
        assert_eq!(buf.len(), 3 + 4 + DEFAULT_MAX_FRAME_LEN as usize);

        let past_cap = Frame::Query {
            mode: WireMode::Classic,
            sql: "x".repeat(DEFAULT_MAX_FRAME_LEN as usize - 5),
        };
        let mut buf = vec![7u8; 3];
        let err = past_cap.try_encode_into(&mut buf).unwrap_err();
        assert!(
            matches!(&err, BwdError::InvalidArgument(m) if m.contains(&format!(
                "of {} bytes exceeds the {DEFAULT_MAX_FRAME_LEN}-byte frame cap",
                DEFAULT_MAX_FRAME_LEN + 1
            ))),
            "{err}"
        );
        assert_eq!(buf, [7, 7, 7], "a refused frame writes nothing");
    }

    #[test]
    fn a_decoder_is_never_looser_than_the_cap() {
        let mut dec = FrameDecoder::with_max_len(u32::MAX);
        dec.feed(&(DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            dec.next(),
            Err(FrameError::Oversized {
                len: DEFAULT_MAX_FRAME_LEN + 1,
                max: DEFAULT_MAX_FRAME_LEN,
            })
        );
    }
}
