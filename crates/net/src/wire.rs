//! Bounds-checked binary encoding primitives.
//!
//! Everything on the wire is little-endian and length-delimited. The
//! [`Reader`] is the safety boundary of the protocol: every accessor
//! checks the remaining payload before touching it and returns a
//! [`WireError`] instead of panicking or reading past the frame, so a
//! corrupt or adversarial peer can never crash the server — the worst it
//! can achieve is its own connection being closed.

use bwd_engine::{ApproxAnswer, QueryResult};
use bwd_types::{BwdError, Date, Value};

/// A decode failure (malformed payload, truncation, bad tag).
///
/// Carried inside [`crate::frame::FrameError::Malformed`]; the message is
/// descriptive only — decoding never partially succeeds.
pub type WireError = String;

/// Decode result.
pub type WireResult<T> = Result<T, WireError>;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i32`.
pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its exact bit pattern (round-trips NaN payloads;
/// simulated costs compare bit-identical after a network hop).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A cursor over one frame payload that can never over-read.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!(
                "payload truncated: need {n} bytes, {} remain",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> WireResult<i32> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    /// Read a `u32` count for a repeated field, rejecting counts that
    /// cannot possibly fit in the remaining payload (each element takes
    /// at least `min_elem_bytes`) — a 4-byte prefix must not induce a
    /// multi-gigabyte allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(format!(
                "implausible element count {n} for {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// Assert the payload was consumed exactly; trailing bytes mean the
    /// peer and this decoder disagree about the schema.
    pub fn finish(self) -> WireResult<()> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after payload", self.remaining()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------

const VALUE_INT: u8 = 0;
const VALUE_DECIMAL: u8 = 1;
const VALUE_DATE: u8 = 2;
const VALUE_STR: u8 = 3;
const VALUE_BOOL: u8 = 4;
const VALUE_DOUBLE: u8 = 5;

/// Encode one [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(buf, VALUE_INT);
            put_i64(buf, *i);
        }
        Value::Decimal { unscaled, scale } => {
            put_u8(buf, VALUE_DECIMAL);
            put_i64(buf, *unscaled);
            put_u8(buf, *scale);
        }
        Value::Date(d) => {
            put_u8(buf, VALUE_DATE);
            put_i32(buf, d.0);
        }
        Value::Str(s) => {
            put_u8(buf, VALUE_STR);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, VALUE_BOOL);
            put_u8(buf, u8::from(*b));
        }
        Value::Double(d) => {
            put_u8(buf, VALUE_DOUBLE);
            put_f64(buf, *d);
        }
    }
}

/// Decode one [`Value`].
pub fn read_value(r: &mut Reader<'_>) -> WireResult<Value> {
    match r.u8()? {
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_DECIMAL => Ok(Value::Decimal {
            unscaled: r.i64()?,
            scale: r.u8()?,
        }),
        VALUE_DATE => Ok(Value::Date(Date(r.i32()?))),
        VALUE_STR => Ok(Value::Str(r.str()?)),
        VALUE_BOOL => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(format!("invalid bool byte {other}")),
        },
        VALUE_DOUBLE => Ok(Value::Double(r.f64()?)),
        tag => Err(format!("unknown value tag {tag}")),
    }
}

/// Encode a full [`QueryResult`] — rows, simulated cost breakdown,
/// traffic, survivors and the early approximate answer all cross the
/// wire, so a networked client observes exactly what an embedded caller
/// observes (the soak test asserts bit-identity through this codec).
pub fn put_query_result(buf: &mut Vec<u8>, r: &QueryResult) {
    put_u32(buf, r.columns.len() as u32);
    for c in &r.columns {
        put_str(buf, c);
    }
    put_u32(buf, r.rows.len() as u32);
    for row in &r.rows {
        put_u32(buf, row.len() as u32);
        for v in row {
            put_value(buf, v);
        }
    }
    put_f64(buf, r.breakdown.device);
    put_f64(buf, r.breakdown.host);
    put_f64(buf, r.breakdown.pcie);
    put_u64(buf, r.traffic.device);
    put_u64(buf, r.traffic.host);
    put_u64(buf, r.traffic.pcie);
    put_u64(buf, r.survivors as u64);
    match &r.approx {
        None => put_u8(buf, 0),
        Some(a) => {
            put_u8(buf, 1);
            put_u64(buf, a.candidate_count as u64);
            put_f64(buf, a.breakdown.device);
            put_f64(buf, a.breakdown.host);
            put_f64(buf, a.breakdown.pcie);
        }
    }
}

fn read_breakdown(r: &mut Reader<'_>) -> WireResult<bwd_device::Breakdown> {
    Ok(bwd_device::Breakdown {
        device: r.f64()?,
        host: r.f64()?,
        pcie: r.f64()?,
    })
}

/// Decode a [`QueryResult`].
pub fn read_query_result(r: &mut Reader<'_>) -> WireResult<QueryResult> {
    let ncols = r.count(4)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(r.str()?);
    }
    let nrows = r.count(4)?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let nvals = r.count(1)?;
        let mut row = Vec::with_capacity(nvals);
        for _ in 0..nvals {
            row.push(read_value(r)?);
        }
        rows.push(row);
    }
    let breakdown = read_breakdown(r)?;
    let traffic = bwd_device::TrafficBytes {
        device: r.u64()?,
        host: r.u64()?,
        pcie: r.u64()?,
    };
    let survivors = r.u64()? as usize;
    let approx = match r.u8()? {
        0 => None,
        1 => Some(ApproxAnswer {
            candidate_count: r.u64()? as usize,
            breakdown: read_breakdown(r)?,
        }),
        other => Err(format!("invalid approx flag {other}"))?,
    };
    Ok(QueryResult {
        columns,
        rows,
        breakdown,
        traffic,
        survivors,
        approx,
    })
}

const ERR_DEVICE_OOM: u8 = 0;
const ERR_ADMISSION_TIMEOUT: u8 = 1;
const ERR_INVALID_BUFFER: u8 = 2;
const ERR_TYPE_MISMATCH: u8 = 3;
const ERR_PARSE: u8 = 4;
const ERR_BIND: u8 = 5;
const ERR_PLAN: u8 = 6;
const ERR_EXEC: u8 = 7;
const ERR_NOT_FOUND: u8 = 8;
const ERR_UNSUPPORTED: u8 = 9;
const ERR_INVALID_ARGUMENT: u8 = 10;
// 11 is retired: it decodes as an unknown code and is never reused, so
// an old peer's frame cannot decode as another error.
const ERR_CANCELLED: u8 = 12;
const ERR_DEADLINE_EXCEEDED: u8 = 13;
const ERR_DEVICE_FAULT: u8 = 14;

/// Encode a [`BwdError`] variant-faithfully (the structured variants keep
/// their numeric fields; the message-carrying ones keep their message).
pub fn put_bwd_error(buf: &mut Vec<u8>, e: &BwdError) {
    let (code, a, b, msg): (u8, u64, u64, &str) = match e {
        BwdError::DeviceOutOfMemory {
            requested,
            available,
        } => (ERR_DEVICE_OOM, *requested, *available, ""),
        BwdError::AdmissionTimeout {
            requested,
            waited_ms,
        } => (ERR_ADMISSION_TIMEOUT, *requested, *waited_ms, ""),
        BwdError::InvalidBuffer(m) => (ERR_INVALID_BUFFER, 0, 0, m),
        BwdError::TypeMismatch(m) => (ERR_TYPE_MISMATCH, 0, 0, m),
        BwdError::Parse(m) => (ERR_PARSE, 0, 0, m),
        BwdError::Bind(m) => (ERR_BIND, 0, 0, m),
        BwdError::Plan(m) => (ERR_PLAN, 0, 0, m),
        BwdError::Exec(m) => (ERR_EXEC, 0, 0, m),
        BwdError::NotFound(m) => (ERR_NOT_FOUND, 0, 0, m),
        BwdError::Unsupported(m) => (ERR_UNSUPPORTED, 0, 0, m),
        BwdError::InvalidArgument(m) => (ERR_INVALID_ARGUMENT, 0, 0, m),
        BwdError::Cancelled => (ERR_CANCELLED, 0, 0, ""),
        BwdError::DeadlineExceeded { deadline_ms } => (ERR_DEADLINE_EXCEEDED, *deadline_ms, 0, ""),
        BwdError::DeviceFault(m) => (ERR_DEVICE_FAULT, 0, 0, m),
    };
    put_u8(buf, code);
    put_u64(buf, a);
    put_u64(buf, b);
    put_str(buf, msg);
}

/// Decode a [`BwdError`].
pub fn read_bwd_error(r: &mut Reader<'_>) -> WireResult<BwdError> {
    let code = r.u8()?;
    let a = r.u64()?;
    let b = r.u64()?;
    let msg = r.str()?;
    Ok(match code {
        ERR_DEVICE_OOM => BwdError::DeviceOutOfMemory {
            requested: a,
            available: b,
        },
        ERR_ADMISSION_TIMEOUT => BwdError::AdmissionTimeout {
            requested: a,
            waited_ms: b,
        },
        ERR_INVALID_BUFFER => BwdError::InvalidBuffer(msg),
        ERR_TYPE_MISMATCH => BwdError::TypeMismatch(msg),
        ERR_PARSE => BwdError::Parse(msg),
        ERR_BIND => BwdError::Bind(msg),
        ERR_PLAN => BwdError::Plan(msg),
        ERR_EXEC => BwdError::Exec(msg),
        ERR_NOT_FOUND => BwdError::NotFound(msg),
        ERR_UNSUPPORTED => BwdError::Unsupported(msg),
        ERR_INVALID_ARGUMENT => BwdError::InvalidArgument(msg),
        ERR_CANCELLED => BwdError::Cancelled,
        ERR_DEADLINE_EXCEEDED => BwdError::DeadlineExceeded { deadline_ms: a },
        ERR_DEVICE_FAULT => BwdError::DeviceFault(msg),
        other => Err(format!("unknown error code {other}"))?,
    })
}
