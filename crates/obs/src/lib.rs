//! `bwd-obs` — low-overhead structured tracing and metrics for the
//! query lifecycle.
//!
//! The paper's whole argument is about *where time and bytes go* — queue
//! wait vs. admission wait vs. PCI-E transfer vs. refinement — and the
//! scheduling layers that build on this workspace (queue order,
//! admission, placement) need per-phase evidence rather than end-of-run
//! aggregates. This crate is that substrate:
//!
//! * [`Recorder`] — per-query event recording into per-worker lock-free
//!   ring buffers of [`Event`]s. Producers never block and never
//!   allocate on the hot path; a full ring drops the *oldest* events and
//!   counts the drops; [`Recorder::enabled`] gives every lane 1 024
//!   events. [`Recorder::disabled`] is a no-op recorder whose
//!   per-event cost is a single branch, so instrumented code needs no
//!   `cfg` gates.
//! * [`metrics`] — a process-wide (or per-subsystem) registry of named
//!   counters, gauges and log₂-bucketed histograms with a
//!   Prometheus-style text exposition ([`metrics::Registry::render`]).
//! * [`QueryTrace`] — the drained, time-ordered event set of one query,
//!   with a span tree and an `EXPLAIN ANALYZE`-style rendering
//!   ([`QueryTrace::explain`]); the tests' oracle checks its integrity
//!   (`tests/support/trace_check.rs`).
//! * [`chrome`] — Chrome `trace_event` JSON export of a batch of traces
//!   (one lane per recording worker); the dependency-free [`json`]
//!   parser reads such documents back (the benchmark harness and the
//!   tests' schema check).
//! * [`Clock`] — the one wall-clock abstraction the workspace's
//!   measurement paths share; mockable in tests ([`Clock::mock`]).
//!
//! # Event schema
//!
//! An [`Event`] is a fixed-size `Copy` record:
//!
//! ```text
//! Event { span, parent, kind, phase, worker, seq, t_ns, a, b, c, d }
//! ```
//!
//! `span`/`parent` link events into a tree; `kind` names the lifecycle
//! stage ([`EventKind`]); `phase` is begin/end/instant; `worker` + `seq`
//! identify the recording lane and its monotone per-lane sequence;
//! `t_ns` is nanoseconds since the shared process epoch; `a`–`d` are
//! kind-specific payload words (documented on [`EventKind`]).

#![deny(missing_docs)]

pub mod chrome;
mod clock;
mod event;
pub mod json;
pub mod metrics;
mod recorder;
mod ring;
mod trace;

pub use clock::{Clock, ClockSource, MockClock};
pub use event::{
    pack_chain_order, unpack_chain_order, EventKind, GroupAggTables, GroupAggTail, Phase, SpanId,
    NO_SPAN,
};
pub use recorder::{Recorder, WorkerHandle};
pub use ring::Event;
pub use trace::{QueryTrace, SpanNode};

/// Per-execution trace context carried through the engine environment.
///
/// The scheduler sets this on the per-query [`Env`]-clone it hands the
/// executor: the query's [`Recorder`], the span the engine's phase spans
/// should parent under (the scheduler's `exec` span), and a lane label
/// naming the worker thread. The default context is disabled tracing —
/// engine code records unconditionally and pays one branch per event.
///
/// [`Env`]: https://docs.rs/bwd-device
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    /// The query's recorder (disabled by default).
    pub recorder: Recorder,
    /// Span the executor's phase spans parent under ([`NO_SPAN`] for
    /// direct, unscheduled executions).
    pub parent: SpanId,
    /// Lane label for events recorded under this context (the worker
    /// thread's name, e.g. `"worker-0"`).
    pub lane: String,
}

impl TraceCtx {
    /// A context that records nothing (the default).
    pub fn disabled() -> TraceCtx {
        TraceCtx::default()
    }

    /// A recording context for one query execution.
    pub fn new(recorder: Recorder, parent: SpanId, lane: impl Into<String>) -> TraceCtx {
        TraceCtx {
            recorder,
            parent,
            lane: lane.into(),
        }
    }
}
