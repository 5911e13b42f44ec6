//! The [`Recorder`]: span allocation plus per-worker recording lanes.

use crate::clock::Clock;
use crate::event::{EventKind, Phase, SpanId, NO_SPAN};
use crate::ring::{Event, Ring};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Capacity (in events) of each worker lane's ring buffer.
const RING_CAPACITY: usize = 1024;

#[derive(Debug)]
pub(crate) struct RecorderCore {
    clock: Clock,
    capacity: usize,
    /// Next span id; `0` is reserved for [`NO_SPAN`].
    next_span: AtomicU32,
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("label", &self.label())
            .field("worker", &self.worker())
            .finish_non_exhaustive()
    }
}

/// A handle recording the events of one query.
///
/// Cloning is cheap (an `Arc` bump); all clones share span-id allocation
/// and the set of worker lanes. The default recorder is **disabled**: it
/// holds no buffers, every operation is a single branch, and
/// [`Recorder::worker`] returns a no-op lane without allocating.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    core: Option<Arc<RecorderCore>>,
}

impl Recorder {
    /// An enabled recorder: lanes of 1 024 events (a full lane drops its
    /// oldest and counts them), stamped by the monotonic clock.
    pub fn enabled() -> Recorder {
        Recorder::with(RING_CAPACITY, Clock::monotonic())
    }

    /// An enabled recorder with `capacity`-event lanes stamped by `clock`.
    pub(crate) fn with(capacity: usize, clock: Clock) -> Recorder {
        Recorder {
            core: Some(Arc::new(RecorderCore {
                clock,
                capacity,
                next_span: AtomicU32::new(1),
                rings: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op recorder (same as `Recorder::default()`).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Whether events recorded through this handle are kept.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Open a recording lane labelled `label` (a worker-thread name).
    ///
    /// This is the *cold* path — call it once per worker per query/stage,
    /// not per event. Lanes with the same label get distinct indices but
    /// are merged back onto one display lane by the Chrome export. On a
    /// disabled recorder this allocates nothing and returns a no-op
    /// handle.
    pub fn worker(&self, label: &str) -> WorkerHandle {
        let Some(core) = &self.core else {
            return WorkerHandle { inner: None };
        };
        let mut rings = core.rings.lock().unwrap();
        let idx = rings.len() as u16;
        let ring = Arc::new(Ring::new(label.to_string(), idx, core.capacity));
        rings.push(Arc::clone(&ring));
        drop(rings);
        WorkerHandle {
            inner: Some(WorkerInner {
                core: Arc::clone(core),
                ring,
            }),
        }
    }

    /// Drain every lane: `(label, events, dropped)` per lane, in lane
    /// order. Non-destructive; events within a lane are oldest-first.
    pub(crate) fn drain(&self) -> Vec<(String, Vec<Event>, u64)> {
        let Some(core) = &self.core else {
            return Vec::new();
        };
        let rings = core.rings.lock().unwrap();
        rings
            .iter()
            .map(|r| {
                let (events, dropped) = r.drain();
                (r.label().to_string(), events, dropped)
            })
            .collect()
    }
}

struct WorkerInner {
    core: Arc<RecorderCore>,
    ring: Arc<Ring>,
}

/// One worker's recording lane (single producer — deliberately `!Sync`).
///
/// All record methods are a single branch when the recorder is disabled;
/// `begin` then returns [`NO_SPAN`], which is safe to pass back as any
/// later `parent` or `end` argument.
pub struct WorkerHandle {
    inner: Option<WorkerInner>,
}

impl WorkerHandle {
    /// Whether this lane records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn push(&self, inner: &WorkerInner, ev: Event) {
        inner.ring.push(ev);
    }

    /// Open a span of `kind` under `parent`, returning its id
    /// ([`NO_SPAN`] when disabled).
    pub fn begin(&self, kind: EventKind, parent: SpanId, a: u64, b: u64) -> SpanId {
        let Some(inner) = &self.inner else {
            return NO_SPAN;
        };
        let span = inner.core.next_span.fetch_add(1, Ordering::Relaxed);
        self.push(
            inner,
            Event {
                span,
                parent,
                kind,
                phase: Phase::Begin,
                worker: 0,
                seq: 0,
                t_ns: inner.core.clock.now_ns(),
                a,
                b,
                c: 0,
                d: 0,
            },
        );
        span
    }

    /// Close `span` (a no-op when disabled or when `span` is
    /// [`NO_SPAN`]).
    pub fn end(&self, kind: EventKind, span: SpanId, a: u64, b: u64, c: u64, d: u64) {
        let Some(inner) = &self.inner else { return };
        if span == NO_SPAN {
            return;
        }
        self.push(
            inner,
            Event {
                span,
                parent: NO_SPAN,
                kind,
                phase: Phase::End,
                worker: 0,
                seq: 0,
                t_ns: inner.core.clock.now_ns(),
                a,
                b,
                c,
                d,
            },
        );
    }

    /// Record a point event attached to `parent`.
    pub fn instant(&self, kind: EventKind, parent: SpanId, a: u64, b: u64) {
        let Some(inner) = &self.inner else { return };
        self.push(
            inner,
            Event {
                span: NO_SPAN,
                parent,
                kind,
                phase: Phase::Instant,
                worker: 0,
                seq: 0,
                t_ns: inner.core.clock.now_ns(),
                a,
                b,
                c: 0,
                d: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let w = r.worker("w0");
        assert!(!w.enabled());
        let s = w.begin(EventKind::Query, NO_SPAN, 1, 2);
        assert_eq!(s, NO_SPAN);
        w.end(EventKind::Query, s, 0, 0, 0, 0);
        w.instant(EventKind::Resolve, s, 0, 0);
        assert!(r.drain().is_empty());
    }

    #[test]
    fn spans_record_across_lanes_with_shared_ids() {
        let r = Recorder::enabled();
        let w0 = r.worker("session");
        let w1 = r.worker("worker-0");
        let root = w0.begin(EventKind::Query, NO_SPAN, 7, 0);
        let exec = w1.begin(EventKind::Exec, root, 4, 1);
        w1.end(EventKind::Exec, exec, 0, 0, 10, 0);
        w0.end(EventKind::Query, root, 0, 0, 10, 0);
        assert_ne!(root, NO_SPAN);
        assert_ne!(exec, root, "span ids are unique across lanes");

        let lanes = r.drain();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].0, "session");
        assert_eq!(lanes[1].0, "worker-0");
        assert_eq!(lanes[0].1.len(), 2);
        assert_eq!(lanes[1].1.len(), 2);
        assert_eq!(lanes[0].2 + lanes[1].2, 0, "no drops");
        let begin = &lanes[1].1[0];
        assert_eq!(begin.kind, EventKind::Exec);
        assert_eq!(begin.parent, root);
        assert_eq!(begin.phase, Phase::Begin);
    }

    #[test]
    fn end_on_no_span_records_nothing() {
        let r = Recorder::enabled();
        let w = r.worker("w");
        w.end(EventKind::Exec, NO_SPAN, 0, 0, 0, 0);
        let lanes = r.drain();
        assert_eq!(lanes[0].1.len(), 0);
    }
}
