//! The job lifecycle: its states, the legal edges between them, and the
//! one place that accounts for a transition.
//!
//! The scheduler's control flow — the placement loop, the over-budget
//! requeue, failover retry, panic isolation, every RAII permit and
//! pending guard — is straight-line code in
//! [`crate::scheduler`] that *names* what just happened as a
//! `Transition` and hands it to `Run::step`. `step` is the only
//! function in this crate that records a trace event, bumps a
//! `bwd_sched_*` metric, feeds the stream accumulators, or touches a
//! device's health and tallies — so every fact is counted once, and in
//! debug builds every edge a job takes is checked against [`LEGAL`].

use crate::job::Job;
use crate::scheduler::Shared;
use bwd_device::Component;
use bwd_engine::{ExecMode, QueryResult};
use bwd_obs::metrics::{Counter, Histogram, Registry};
use bwd_obs::{EventKind, Recorder, SpanId, WorkerHandle, NO_SPAN};
use bwd_types::{BwdError, Result};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Where a job is between its submission and its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum State {
    /// In the policy queue (or just taken off it by a worker).
    Queued,
    /// Routed to a device, waiting for that card's admission.
    Placed,
    /// Holding its device-memory reservation.
    Admitted,
    /// Executing in the engine.
    Running,
    /// Over its hinted budget: sent back to the same card's admission,
    /// at the worst case.
    Requeued,
    /// Leaving a card that faulted, for another one.
    Retried,
    /// Replied with a result.
    Resolved,
    /// Replied with [`BwdError::Cancelled`] or
    /// [`BwdError::DeadlineExceeded`].
    Cancelled,
    /// Replied with any other error.
    Failed,
}

/// Every edge a job may take. Invariant 8 rides on the shape of this
/// table: a reservation is held in `Admitted` and `Running` only, and
/// every edge out of `Running` drops the permit before the next state is
/// entered.
pub const LEGAL: &[(State, State)] = {
    use State::*;
    &[
        // Off the queue: classic jobs need no card.
        (Queued, Running),
        (Queued, Placed),
        // Cancelled or expired while queued: never starts.
        (Queued, Cancelled),
        // Pinned to an offline or unknown card.
        (Queued, Failed),
        // The card's admission.
        (Placed, Admitted),
        // The reservation itself hit a device fault.
        (Placed, Retried),
        // A stop observed inside the admission wait.
        (Placed, Cancelled),
        // Admission timeout, or a fault with no retry left.
        (Placed, Failed),
        (Admitted, Running),
        // Execution.
        (Running, Resolved),
        // The hinted budget ran out: the permit is released first.
        (Running, Requeued),
        (Running, Retried),
        (Running, Cancelled),
        (Running, Failed),
        // The ways back: the same card at the worst case, another card.
        (Requeued, Placed),
        (Retried, Placed),
    ]
};

/// Scheduler-owned metric handles (resolved once at construction; hot
/// paths touch atomics only). Per-mode query counts live in the stream
/// accumulators, per-device tallies in the device slots — all counters of
/// the same `registry`.
pub(crate) struct SchedMetrics {
    pub registry: Registry,
    pub errors: Counter,
    queue_wait_us: Histogram,
    exec_wall_us: Histogram,
    /// Per-job `estimate/actual` latency ratio in thousandths (1000 =
    /// perfect), observed only for jobs with a non-zero actual cost.
    estimate_ratio_milli: Histogram,
    cancelled: Counter,
    /// Device-faulted queries re-placed on another card.
    retries: Counter,
    /// Online → offline transitions across the pool.
    device_offline: Counter,
    /// Offline → online transitions (successful recovery probes).
    device_recovered: Counter,
}

impl SchedMetrics {
    pub fn new() -> SchedMetrics {
        let registry = Registry::new();
        SchedMetrics {
            errors: registry.counter("bwd_sched_errors_total"),
            queue_wait_us: registry.histogram("bwd_sched_queue_wait_us"),
            exec_wall_us: registry.histogram("bwd_sched_exec_wall_us"),
            estimate_ratio_milli: registry.histogram("bwd_sched_estimate_ratio_milli"),
            cancelled: registry.counter("bwd_sched_cancelled_total"),
            retries: registry.counter("bwd_sched_retries_total"),
            device_offline: registry.counter("bwd_sched_device_offline_total"),
            device_recovered: registry.counter("bwd_sched_device_recovered_total"),
            registry,
        }
    }
}

/// What the control flow tells [`Run::step`] just happened.
pub(crate) enum Transition<'a> {
    /// A worker took the job off the queue after `queued`.
    Dequeued { job: &'a Job, queued: Duration },
    /// The exec span opens; a classic job runs from here.
    Started {
        morsels: usize,
        host_threads: u32,
        classic: bool,
    },
    /// A recovery probe brought card `device` back on its `tick`-th pass.
    DeviceUp { device: usize, tick: u64 },
    /// Routed to `device`, about to reserve `bytes` there.
    Placed { device: usize, bytes: u64 },
    /// The `attempt`-th reservation enters the card's admission.
    Reserving { bytes: u64, attempt: u64 },
    /// Granted `reserved` bytes: the engine runs.
    Admitted { reserved: u64, requeues: u64 },
    /// Refused: a stop, a timeout or a fault — the error the caller
    /// propagates decides where the job goes.
    Refused { requeues: u64 },
    /// The hinted budget ran out on `device`; the permit is already
    /// released and the job re-enters that card's admission at the worst
    /// case.
    OverBudget { device: usize },
    /// `device` finished the query.
    Served {
        device: usize,
        result: &'a QueryResult,
    },
    /// `device` faulted under the query, which — with a `retry` left —
    /// goes to another card.
    Faulted { device: usize, retry: bool },
    /// The exec span closes.
    Finished(&'a Result<QueryResult>),
    /// Accounted and stamped; the reply leaves next.
    Replied {
        job: &'a Job,
        result: &'a Result<QueryResult>,
        queued: Duration,
        wall: Duration,
        completion_index: u64,
    },
}

impl Transition<'_> {
    /// The states this transition passes through, in order (empty: the
    /// job stays where it is).
    fn walk(&self) -> &'static [State] {
        use State::*;
        match self {
            Transition::Started { classic: true, .. } => &[Running],
            Transition::Placed { .. } => &[Placed],
            Transition::Admitted { .. } => &[Admitted, Running],
            Transition::OverBudget { .. } => &[Requeued, Placed],
            Transition::Faulted { retry: true, .. } => &[Retried],
            Transition::Replied { result, .. } => match result {
                Ok(_) => &[Resolved],
                Err(e) if stop_kind(e).is_some() => &[Cancelled],
                Err(_) => &[Failed],
            },
            _ => &[],
        }
    }
}

/// `Some(1)` for a deadline expiry, `Some(0)` for an explicit cancel.
fn stop_kind(e: &BwdError) -> Option<u64> {
    match e {
        BwdError::Cancelled => Some(0),
        BwdError::DeadlineExceeded { .. } => Some(1),
        _ => None,
    }
}

/// Open a submitted job's root and queue spans on its `session` lane:
/// the job is [`State::Queued`].
pub(crate) fn submitted(
    recorder: &Recorder,
    session: u64,
    priority: i32,
    est_seconds: f64,
) -> (SpanId, SpanId) {
    let lane = recorder.worker("session");
    let root = lane.begin(EventKind::Query, NO_SPAN, session, priority as u64);
    let queue = lane.begin(EventKind::Queue, root, est_seconds.to_bits(), 0);
    (root, queue)
}

/// One job's passage through one worker: where its events go, and where
/// it stands.
pub(crate) struct Run<'a> {
    pub shared: &'a Arc<Shared>,
    /// The worker's lane label.
    pub lane: &'a str,
    /// This worker's lane on the job's recorder (a no-op handle when the
    /// job runs untraced).
    obs: WorkerHandle,
    root: SpanId,
    exec: Cell<SpanId>,
    /// The open admission span.
    open: Cell<SpanId>,
    state: Cell<State>,
}

impl<'a> Run<'a> {
    /// The run of a job a worker just dequeued: it records on a new
    /// lane of the job's `recorder`, under the job's `root` span.
    pub fn new(
        shared: &'a Arc<Shared>,
        recorder: &Recorder,
        root: SpanId,
        lane: &'a str,
    ) -> Run<'a> {
        Run {
            shared,
            lane,
            obs: recorder.worker(lane),
            root,
            exec: Cell::new(NO_SPAN),
            open: Cell::new(NO_SPAN),
            state: Cell::new(State::Queued),
        }
    }

    /// The exec span ([`NO_SPAN`] before [`Transition::Started`]).
    pub fn exec(&self) -> SpanId {
        self.exec.get()
    }

    /// Account for one transition: move the state along [`LEGAL`], then
    /// emit the transition's events and counts.
    pub fn step(&self, t: Transition<'_>) {
        for &next in t.walk() {
            debug_assert!(
                LEGAL.contains(&(self.state.get(), next)),
                "illegal lifecycle edge {:?} -> {next:?}",
                self.state.get()
            );
            self.state.set(next);
        }
        let (shared, obs, exec) = (self.shared, &self.obs, self.exec.get());
        let m = &shared.metrics;
        match t {
            Transition::Dequeued { job, queued } => obs.end(
                EventKind::Queue,
                job.queue_span,
                queued.as_secs_f64().to_bits(),
                0,
                0,
                0,
            ),
            Transition::Started {
                morsels,
                host_threads,
                ..
            } => self.exec.set(obs.begin(
                EventKind::Exec,
                self.root,
                morsels as u64,
                host_threads as u64,
            )),
            Transition::DeviceUp { device, tick } => {
                shared.devices[device].set_online();
                m.device_recovered.inc();
                obs.instant(EventKind::DeviceUp, exec, device as u64, tick);
            }
            Transition::Placed { device, bytes } => {
                obs.instant(EventKind::Placement, exec, device as u64, bytes)
            }
            Transition::Reserving { bytes, attempt } => {
                self.open
                    .set(obs.begin(EventKind::Admission, exec, bytes, attempt))
            }
            Transition::Admitted { reserved, requeues } => obs.end(
                EventKind::Admission,
                self.open.get(),
                0,
                reserved,
                requeues,
                0,
            ),
            Transition::Refused { requeues } => {
                obs.end(EventKind::Admission, self.open.get(), 0, 0, requeues, 1)
            }
            Transition::OverBudget { device } => shared.devices[device].requeues.inc(),
            Transition::Served { device, result: r } => {
                let slot = &shared.devices[device];
                slot.queries.inc();
                // Fold the co-processor share of this query into the
                // per-device ledger (host time belongs to the CPU stream,
                // not to a card).
                let ledger = slot.device.ledger();
                let (cost, bytes) = (&r.breakdown, &r.traffic);
                ledger.charge(Component::Device, "sched.query", cost.device, bytes.device);
                ledger.charge(Component::Pcie, "sched.query", cost.pcie, bytes.pcie);
                slot.record_success();
            }
            Transition::Faulted { device, retry } => {
                let slot = &shared.devices[device];
                if slot.record_fault() {
                    m.device_offline.inc();
                    let faults = slot.consecutive_faults.load(Ordering::Relaxed);
                    obs.instant(EventKind::DeviceDown, exec, device as u64, faults);
                }
                if retry {
                    m.retries.inc();
                }
            }
            Transition::Finished(Ok(r)) => obs.end(
                EventKind::Exec,
                exec,
                r.breakdown.total().to_bits(),
                r.traffic.total(),
                r.rows.len() as u64,
                0,
            ),
            Transition::Finished(Err(_)) => obs.end(EventKind::Exec, exec, 0, 0, 0, 1),
            Transition::Replied {
                job,
                result,
                queued,
                wall,
                completion_index,
            } => {
                let est = job.est_seconds();
                let actual_sim = result.as_ref().map_or(0.0, |r| r.breakdown.total());
                match result {
                    Ok(r) => {
                        let stream = match job.mode {
                            ExecMode::Classic => &shared.classic,
                            _ => &shared.approx_refine,
                        };
                        stream.record(&r.breakdown, &r.traffic, wall, queued, est);
                    }
                    Err(e) => {
                        if let Some(deadline) = stop_kind(e) {
                            m.cancelled.inc();
                            obs.instant(EventKind::Cancel, job.root, deadline, 0);
                        }
                        m.errors.inc();
                    }
                }
                m.queue_wait_us.observe(queued.as_micros() as u64);
                m.exec_wall_us.observe(wall.as_micros() as u64);
                if actual_sim > 0.0 {
                    let milli = (est / actual_sim * 1000.0).clamp(0.0, u64::MAX as f64);
                    m.estimate_ratio_milli.observe(milli as u64);
                }
                obs.instant(EventKind::Resolve, job.root, completion_index, 0);
                obs.end(
                    EventKind::Query,
                    job.root,
                    est.to_bits(),
                    actual_sim.to_bits(),
                    result.as_ref().map_or(0, |r| r.rows.len() as u64),
                    u64::from(result.is_err()),
                );
            }
        }
    }
}
