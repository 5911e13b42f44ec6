//! The wire codec: one field walk per type, run by two coders.
//!
//! Everything on the wire is little-endian and length-delimited. Each wire
//! type declares its fields once, in its [`Wire::code`] walk (written with
//! [`wire!`]); the [`Writer`] runs the walk to append each field, the
//! [`Reader`] to fill each field, so a field's order, width and tag cannot
//! differ between encode and decode. An enum's tag ↔ variant map is one
//! table of `(tag, blank variant)` pairs that both coders read.
//!
//! The [`Reader`] is the safety boundary of the protocol: every field
//! checks the remaining payload before touching it and returns a
//! [`FrameError::Malformed`] instead of panicking or reading past the
//! frame, and a repeated field's count is checked against the bytes left
//! before anything is allocated, so a corrupt or adversarial peer can
//! never crash the server — the worst it can achieve is its own
//! connection being closed.

use crate::frame::FrameError;
use bwd_device::{Breakdown, TrafficBytes};
use bwd_engine::{ApproxAnswer, QueryResult};
use bwd_types::{BwdError, Date, Value};
use std::any::type_name;
use std::mem::discriminant;

/// Decode result: decoding never partially succeeds.
pub(crate) type WireResult<T> = Result<T, FrameError>;

fn malformed(msg: String) -> FrameError {
    FrameError::Malformed(msg)
}

/// A fixed-width field: an integer in little-endian order, a `usize` as a
/// `u64`, an `f64` as its exact bit pattern (NaN payloads and −0.0
/// survive, so simulated costs compare bit-identical after a network hop),
/// a `bool` as one byte that must be 0 or 1.
pub(crate) trait Fixed: Copy {
    /// Append the field.
    fn put(self, buf: &mut Vec<u8>);
    /// Read the field.
    fn get(r: &mut Reader<'_>) -> WireResult<Self>;
}

macro_rules! fixed {
    ($($t:ty),*) => {$(
        impl Fixed for $t {
            #[inline]
            fn put(self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> WireResult<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
fixed!(u8, u32, u64, i32, i64, f64);

impl Fixed for usize {
    fn put(self, buf: &mut Vec<u8>) {
        (self as u64).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(u64::get(r)? as usize)
    }
}

impl Fixed for bool {
    fn put(self, buf: &mut Vec<u8>) {
        u8::from(self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> WireResult<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("invalid flag byte {other}"))),
        }
    }
}

/// What a field walk asks of its coder. A walk holds each field as a
/// `Ref`: `&T` for the [`Writer`], which reads it, `&mut T` for the
/// [`Reader`], which overwrites it.
pub(crate) trait Coder: Sized {
    /// How this coder holds a field.
    type Ref<'a, T: 'a>;
    /// A fixed-width field.
    fn fixed<T: Fixed>(&mut self, v: Self::Ref<'_, T>) -> WireResult<()>;
    /// A `u32`-length-prefixed UTF-8 string.
    fn str(&mut self, v: Self::Ref<'_, String>) -> WireResult<()>;
    /// A `u32` count, then each element through `each`; the reader starts
    /// each element from `blank()`, after [`Reader::count`] has bounded the
    /// count by `min_elem_bytes` per element.
    fn vec<T>(
        &mut self,
        v: Self::Ref<'_, Vec<T>>,
        min_elem_bytes: usize,
        blank: impl Fn() -> T,
        each: impl FnMut(&mut Self, Self::Ref<'_, T>) -> WireResult<()>,
    ) -> WireResult<()>;
    /// An enum's tag byte from its `table`: the writer looks the variant
    /// up; the reader replaces `v` with the tag's blank variant, whose
    /// fields the walk then fills. An unknown tag is malformed.
    fn tag<T: Clone>(&mut self, v: Self::Ref<'_, T>, table: &[(u8, T)]) -> WireResult<()>;
}

/// The tag of `v`'s variant in `table`.
pub(crate) fn tag_of<T>(table: &[(u8, T)], v: &T) -> u8 {
    table
        .iter()
        .find(|(_, blank)| discriminant(blank) == discriminant(v))
        .expect("every variant is in its tag table")
        .0
}

/// The encoding coder: appends each field to the buffer. It never fails.
pub(crate) struct Writer<'b>(pub(crate) &'b mut Vec<u8>);

impl Coder for Writer<'_> {
    type Ref<'a, T: 'a> = &'a T;

    fn fixed<T: Fixed>(&mut self, v: &T) -> WireResult<()> {
        v.put(self.0);
        Ok(())
    }

    fn str(&mut self, v: &String) -> WireResult<()> {
        self.fixed(&(v.len() as u32))?;
        self.0.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn vec<T>(
        &mut self,
        v: &Vec<T>,
        _: usize,
        _: impl Fn() -> T,
        mut each: impl FnMut(&mut Self, &T) -> WireResult<()>,
    ) -> WireResult<()> {
        self.fixed(&(v.len() as u32))?;
        v.iter().try_for_each(|x| each(self, x))
    }

    fn tag<T: Clone>(&mut self, v: &T, table: &[(u8, T)]) -> WireResult<()> {
        self.fixed(&tag_of(table, v))
    }
}

/// The decoding coder: a cursor over one frame that can never over-read.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "payload truncated: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read a repeated field's `u32` count, rejecting counts that cannot
    /// fit in the remaining payload (each element takes at least
    /// `min_elem_bytes`): a 4-byte prefix must not induce a multi-gigabyte
    /// allocation.
    fn count(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let n = u32::get(self)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(malformed(format!(
                "implausible element count {n} for {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Assert the payload was consumed exactly; trailing bytes mean the
    /// peer and this decoder disagree about the schema.
    pub(crate) fn finish(self) -> WireResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(malformed(format!("{n} trailing bytes after payload"))),
        }
    }
}

impl Coder for Reader<'_> {
    type Ref<'a, T: 'a> = &'a mut T;

    fn fixed<T: Fixed>(&mut self, v: &mut T) -> WireResult<()> {
        *v = T::get(self)?;
        Ok(())
    }

    fn str(&mut self, v: &mut String) -> WireResult<()> {
        let len = u32::get(self)? as usize;
        let bytes = self.take(len)?.to_vec();
        *v = String::from_utf8(bytes)
            .map_err(|e| malformed(format!("invalid UTF-8 string: {e}")))?;
        Ok(())
    }

    fn vec<T>(
        &mut self,
        v: &mut Vec<T>,
        min_elem_bytes: usize,
        blank: impl Fn() -> T,
        mut each: impl FnMut(&mut Self, &mut T) -> WireResult<()>,
    ) -> WireResult<()> {
        let n = self.count(min_elem_bytes)?;
        v.clear();
        v.reserve_exact(n);
        for _ in 0..n {
            let mut x = blank();
            each(self, &mut x)?;
            v.push(x);
        }
        Ok(())
    }

    fn tag<T: Clone>(&mut self, v: &mut T, table: &[(u8, T)]) -> WireResult<()> {
        let tag = u8::get(self)?;
        let Some((_, blank)) = table.iter().find(|(t, _)| *t == tag) else {
            return Err(malformed(format!(
                "unknown code {tag} for {}",
                type_name::<T>()
            )));
        };
        v.clone_from(blank);
        Ok(())
    }
}

/// A wire type: `code` walks its fields, in wire order, through a coder.
pub(crate) trait Wire<C: Coder>: Sized {
    /// Write or read `v`, field by field.
    fn code(c: &mut C, v: C::Ref<'_, Self>) -> WireResult<()>;
}

/// Declares a wire type's one field walk (or one walk for several types
/// with the same fields). The body is compiled once per coder: with the
/// [`Writer`] `$v` is `&Self`, with the [`Reader`] it is `&mut Self`, and
/// the fields bound from it follow suit.
macro_rules! wire {
    ($($ty:ty),+; |$c:ident, $v:ident| $body:expr) => {$(
        impl $crate::wire::Wire<$crate::wire::Writer<'_>> for $ty {
            #[inline]
            fn code($c: &mut $crate::wire::Writer<'_>, $v: &Self) -> $crate::wire::WireResult<()> {
                $body
            }
        }
        impl $crate::wire::Wire<$crate::wire::Reader<'_>> for $ty {
            #[inline]
            fn code($c: &mut $crate::wire::Reader<'_>, $v: &mut Self) -> $crate::wire::WireResult<()> {
                $body
            }
        }
    )+};
}
pub(crate) use wire;

#[rustfmt::skip]
static VALUES: [(u8, Value); 6] = [
    (0, Value::Int(0)),
    (1, Value::Decimal { unscaled: 0, scale: 0 }),
    (2, Value::Date(Date(0))),
    (3, Value::Str(String::new())),
    (4, Value::Bool(false)),
    (5, Value::Double(0.0)),
];

wire!(Value; |c, v| {
    c.tag(v, &VALUES)?;
    match v {
        Value::Int(i) => c.fixed(i),
        Value::Decimal { unscaled, scale } => {
            c.fixed(unscaled)?;
            c.fixed(scale)
        }
        Value::Date(Date(d)) => c.fixed(d),
        Value::Str(s) => c.str(s),
        Value::Bool(b) => c.fixed(b),
        Value::Double(d) => c.fixed(d),
    }
});

#[rustfmt::skip]
static APPROX: [(u8, Option<ApproxAnswer>); 2] = [
    (0, None),
    (1, Some(ApproxAnswer { candidate_count: 0, breakdown: Breakdown { device: 0.0, host: 0.0, pcie: 0.0 } })),
];

// A full `QueryResult` crosses the wire — rows, simulated cost breakdown,
// traffic, survivors and the early approximate answer — so a networked
// client observes exactly what an embedded caller observes.
wire!(QueryResult; |c, v| {
    let QueryResult {
        columns,
        rows,
        breakdown,
        traffic,
        survivors,
        approx,
    } = v;
    c.vec(columns, 4, String::new, |c, s| c.str(s))?;
    c.vec(rows, 4, Vec::new, |c, row| {
        c.vec(row, 1, || Value::Int(0), |c, x| Value::code(c, x))
    })?;
    Breakdown::code(c, breakdown)?;
    TrafficBytes::code(c, traffic)?;
    c.fixed(survivors)?;
    c.tag(approx, &APPROX)?;
    match approx {
        None => Ok(()),
        Some(ApproxAnswer {
            candidate_count,
            breakdown,
        }) => {
            c.fixed(candidate_count)?;
            Breakdown::code(c, breakdown)
        }
    }
});

// Simulated seconds and bytes moved: device, host, PCI-E.
wire!(Breakdown, TrafficBytes; |c, v| {
    let Self { device, host, pcie } = v;
    c.fixed(device)?;
    c.fixed(host)?;
    c.fixed(pcie)
});

/// Error codes. 11 is retired: it decodes as an unknown code and is never
/// reused, so an old peer's frame cannot decode as another error.
#[rustfmt::skip]
static ERRORS: [(u8, BwdError); 14] = [
    (0, BwdError::DeviceOutOfMemory { requested: 0, available: 0 }),
    (1, BwdError::AdmissionTimeout { requested: 0, waited_ms: 0 }),
    (2, BwdError::InvalidBuffer(String::new())),
    (3, BwdError::TypeMismatch(String::new())),
    (4, BwdError::Parse(String::new())),
    (5, BwdError::Bind(String::new())),
    (6, BwdError::Plan(String::new())),
    (7, BwdError::Exec(String::new())),
    (8, BwdError::NotFound(String::new())),
    (9, BwdError::Unsupported(String::new())),
    (10, BwdError::InvalidArgument(String::new())),
    (12, BwdError::Cancelled),
    (13, BwdError::DeadlineExceeded { deadline_ms: 0 }),
    (14, BwdError::DeviceFault(String::new())),
];

// Variant-faithful and flat: after the code come `a: u64`, `b: u64` and a
// message, each variant filling the slots it has (zero or empty for the
// rest, ignored on read).
wire!(BwdError; |c, v| {
    c.tag(v, &ERRORS)?;
    let (no_a, no_b, no_msg) = (&mut 0, &mut 0, &mut String::new());
    let (a, b, msg) = match v {
        BwdError::DeviceOutOfMemory {
            requested: a,
            available: b,
        }
        | BwdError::AdmissionTimeout {
            requested: a,
            waited_ms: b,
        } => (Some(a), Some(b), None),
        BwdError::DeadlineExceeded { deadline_ms } => (Some(deadline_ms), None, None),
        BwdError::Cancelled => (None, None, None),
        BwdError::InvalidBuffer(m)
        | BwdError::TypeMismatch(m)
        | BwdError::Parse(m)
        | BwdError::Bind(m)
        | BwdError::Plan(m)
        | BwdError::Exec(m)
        | BwdError::NotFound(m)
        | BwdError::Unsupported(m)
        | BwdError::InvalidArgument(m)
        | BwdError::DeviceFault(m) => (None, None, Some(m)),
    };
    c.fixed(a.unwrap_or(no_a))?;
    c.fixed(b.unwrap_or(no_b))?;
    c.str(msg.unwrap_or(no_msg))
});
