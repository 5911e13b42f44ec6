//! Queue entries, per-job reports and completion tickets.

use crate::footprint::PlanFootprint;
use bwd_core::plan::ArPlan;
use bwd_engine::{ExecMode, QueryResult};
use bwd_obs::{QueryTrace, Recorder, SpanId};
use bwd_types::{BwdError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-submission execution overrides.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Simulated host-thread allocation for this query (Figure 11 sweeps
    /// this); `None` uses the database environment's setting.
    pub host_threads: Option<u32>,
    /// Pin this A&R query to the device at this pool index instead of
    /// letting the placement policy choose. Out-of-range indices fail the
    /// query; classic queries ignore this.
    pub device: Option<usize>,
    /// Scheduling priority, the queue's first key: higher values dequeue
    /// sooner (ties break on the latency estimate, then arrival order).
    /// Aging still bounds how long a low-priority job can be bypassed,
    /// and `SchedConfig::aging_threshold: 0` ignores priorities for
    /// arrival order. Defaults to `0`.
    pub priority: i32,
    /// Wall-clock budget for the whole query, measured from submission.
    /// A job whose deadline elapses resolves with
    /// [`BwdError::DeadlineExceeded`] — observed before execution starts,
    /// at every morsel-boundary yield point while running, and by the
    /// blocking admission wait (which is clamped to the remaining
    /// budget). `None` (the default) never expires, nor does a deadline
    /// too far away to represent.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// The simulated host-thread count a job with these options executes
    /// with: the per-query override (or the environment's setting),
    /// clamped to the machine's hardware threads. The latency estimator
    /// and the executor both call this, so the estimate can never be
    /// computed for a different thread count than the job actually runs
    /// with.
    pub fn effective_host_threads(&self, env: &bwd_device::Env) -> u32 {
        self.host_threads
            .unwrap_or(env.host_threads)
            .clamp(1, env.cpu.hw_threads)
    }
}

/// Cancellation/deadline state shared between a [`Ticket`] and its job.
///
/// Cancellation is *cooperative*: setting the flag never interrupts a
/// running kernel. The job observes it at the next checkpoint — before
/// execution starts (a cancelled queued job never runs), at every
/// morsel-boundary [`bwd_device::YieldPoint`] poll while executing (so a
/// running query stops, and releases its admission permit, within one
/// yield-point interval), and when sizing the blocking admission wait.
#[derive(Debug)]
pub(crate) struct CancelState {
    cancelled: AtomicBool,
    /// Absolute expiry, fixed at submission time (`None` also when the
    /// budget lies past what an [`Instant`] can represent).
    deadline: Option<Instant>,
    /// The budget the caller submitted with (for the typed error).
    budget_ms: u64,
}

impl CancelState {
    pub(crate) fn new(budget: Option<Duration>) -> CancelState {
        CancelState {
            cancelled: AtomicBool::new(false),
            deadline: budget.and_then(|d| Instant::now().checked_add(d)),
            budget_ms: budget.map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        }
    }

    /// Request cooperative cancellation (idempotent).
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// `Ok` while the job may keep running; the typed cancellation or
    /// deadline error once it must stop. Explicit cancellation wins over
    /// an expired deadline.
    pub(crate) fn status(&self) -> Result<()> {
        if self.cancelled.load(Ordering::Acquire) {
            return Err(BwdError::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(BwdError::DeadlineExceeded {
                    deadline_ms: self.budget_ms,
                });
            }
        }
        Ok(())
    }

    /// Wall-clock budget left before the deadline (`None` = no deadline;
    /// zero once expired).
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Completion-notification state shared between a [`Job`] and its
/// [`Ticket`].
///
/// Poll-based consumers (the `bwd-net` reactor) must not busy-spin on
/// [`Ticket::poll_report`]; they register a waker instead and park until
/// some job resolves. The hook fires **after** the reply lands in the
/// ticket's channel — a woken poller always observes the result — and it
/// fires exactly once per ticket, whether the job completed normally or
/// was discarded at shutdown (dropping a queued [`Job`] completes the
/// hook, so no waiter can hang on a job that will never run).
#[derive(Default)]
pub(crate) struct CompletionHook {
    state: Mutex<HookState>,
}

#[derive(Default)]
struct HookState {
    completed: bool,
    waker: Option<Box<dyn FnOnce() + Send>>,
}

impl CompletionHook {
    /// A hook that is already completed (for pre-resolved tickets).
    pub(crate) fn completed() -> Arc<CompletionHook> {
        let hook = CompletionHook::default();
        hook.state.lock().unwrap().completed = true;
        Arc::new(hook)
    }

    /// Mark the job resolved and fire the registered waker, if any.
    /// Idempotent: only the first call can observe (and take) a waker.
    pub(crate) fn complete(&self) {
        let waker = {
            let mut s = self.state.lock().unwrap();
            s.completed = true;
            s.waker.take()
        };
        if let Some(wake) = waker {
            wake();
        }
    }
}

/// One queued query.
pub(crate) struct Job {
    pub plan: ArPlan,
    pub mode: ExecMode,
    pub opts: SubmitOptions,
    /// The one walk of the plan, taken at submission: the latency
    /// estimate ([`Job::est_seconds`]) and the reservation sizes.
    pub footprint: PlanFootprint,
    pub reply: mpsc::Sender<(Result<QueryResult>, JobReport)>,
    pub submitted: Instant,
    /// The per-query recorder (disabled unless the scheduler traces —
    /// every instrumentation site then costs one branch).
    pub recorder: Recorder,
    /// The root `query` span, opened at submission on the `session` lane.
    pub root: SpanId,
    /// The `queue` span: opened at submission, closed by the worker
    /// that dequeues the job.
    pub queue_span: SpanId,
    /// Completion notification shared with this job's [`Ticket`].
    pub hook: Arc<CompletionHook>,
    /// Cancellation/deadline state shared with this job's [`Ticket`].
    pub cancel: Arc<CancelState>,
}

impl Job {
    /// Estimated latency in simulated seconds: the SJF queue key and the
    /// estimate-vs-actual accounting input — the bill of the footprint's
    /// predicted counts.
    pub fn est_seconds(&self) -> f64 {
        self.footprint.latency().total()
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // Fires after the worker sent the reply (normal completion) or
        // when a queued job is discarded at shutdown (the reply sender
        // drops with the job, so the ticket observes the disconnect).
        self.hook.complete();
    }
}

/// Per-job scheduling telemetry, delivered alongside the query result.
///
/// The completion index makes ordering decisions *observable*: the
/// scheduler stamps every finished job with a global monotone counter, so
/// a test driving a one-worker scheduler can assert the exact execution
/// order the [`crate::PolicyQueue`] produced — no wall-clock sleeps, no
/// timestamp comparisons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobReport {
    /// Wall-clock time the job waited in the scheduler queue before a
    /// worker picked it up.
    pub queue_wait: Duration,
    /// Wall-clock time the job occupied its worker thread.
    pub exec: Duration,
    /// Global completion stamp (0 for the first job the scheduler
    /// finishes; on a one-worker scheduler this is the execution order).
    pub completion_index: u64,
    /// The latency estimate the queue ordered this job by, in simulated
    /// seconds: the total of [`crate::PlanFootprint::latency`], a pure
    /// function of the plan, the catalog and the thread allocation.
    pub est_seconds: f64,
    /// The simulated seconds the job actually cost (its result
    /// breakdown's total; `0` for failed jobs) — compare against
    /// [`JobReport::est_seconds`] to judge the estimator.
    pub actual_sim_seconds: f64,
    /// The priority the job was submitted with.
    pub priority: i32,
    /// The query's lifecycle trace, when the job ran with tracing
    /// enabled ([`crate::SchedConfig::tracing`]); render it with
    /// [`bwd_obs::QueryTrace::explain`].
    pub trace: Option<QueryTrace>,
}

/// The handle a submission returns; resolves to the query's result.
///
/// Dropping a ticket abandons the result (the query still runs — or is
/// discarded on shutdown).
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<(Result<QueryResult>, JobReport)>,
    pub(crate) hook: Arc<CompletionHook>,
    pub(crate) cancel: Arc<CancelState>,
}

impl Ticket {
    /// Request cooperative cancellation of this ticket's query.
    ///
    /// Idempotent and never blocking. A still-queued job resolves with
    /// [`BwdError::Cancelled`] when a worker dequeues it; a running job
    /// stops at its next morsel-boundary yield point — releasing its
    /// device reservation within one yield-point interval — and resolves
    /// with the same error. A job that already produced its result is
    /// unaffected: cancellation is advisory, the result stays valid and
    /// bit-identical.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the query completes.
    ///
    /// Errors with [`BwdError::Exec`] if the scheduler shut down before
    /// the query ran.
    pub fn wait(self) -> Result<QueryResult> {
        self.wait_outcome().0
    }

    /// Block until the query completes, returning the result together
    /// with its scheduling report (queue wait, completion index,
    /// estimate vs actual).
    pub fn wait_report(self) -> Result<(QueryResult, JobReport)> {
        let (result, report) = self.wait_outcome();
        Ok((result?, report.unwrap_or_default()))
    }

    /// Block until the query completes, returning its result — an error
    /// too — beside its scheduling report; the report is `None` when the
    /// scheduler shut down before the query ran.
    pub fn wait_outcome(self) -> (Result<QueryResult>, Option<JobReport>) {
        match self.rx.recv() {
            Ok((result, report)) => (result, Some(report)),
            Err(_) => (
                Err(BwdError::Exec(
                    "scheduler shut down before the query completed".into(),
                )),
                None,
            ),
        }
    }

    /// Block until the query completes, returning the result, the
    /// scheduling report, and the query's lifecycle trace.
    ///
    /// Errors with [`BwdError::InvalidArgument`] if the job ran without
    /// tracing (enable it via [`crate::SchedConfig::tracing`]); the trace
    /// is also left attached as [`JobReport::trace`] for callers that want
    /// result + report + trace in one move.
    pub fn wait_traced(self) -> Result<(QueryResult, JobReport, QueryTrace)> {
        let (result, report) = self.wait_report()?;
        match report.trace.clone() {
            Some(trace) => Ok((result, report, trace)),
            None => Err(BwdError::InvalidArgument(
                "query ran without tracing; enable SchedConfig::tracing".into(),
            )),
        }
    }

    /// Non-blocking poll keeping the scheduling report; `None` while the
    /// query is still in flight (the [`Ticket::wait_report`] counterpart,
    /// so poll-based callers don't lose the per-job telemetry).
    pub fn poll_report(&self) -> Option<Result<(QueryResult, JobReport)>> {
        match self.rx.try_recv() {
            Ok((Ok(r), rep)) => Some(Ok((r, rep))),
            Ok((Err(e), _)) => Some(Err(e)),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(BwdError::Exec(
                "scheduler shut down before the query completed".into(),
            ))),
        }
    }

    /// Register a completion waker: `wake` runs exactly once, as soon as
    /// this ticket's job has resolved (result already delivered — a
    /// subsequent [`Ticket::poll_report`] returns `Some`), or immediately
    /// if it already has. Jobs discarded at scheduler shutdown also fire
    /// their waker, so a poll-based caller never hangs on a query that
    /// will never run.
    ///
    /// One waker per ticket: registering a second waker before the first
    /// fired replaces it (the replaced closure is dropped unfired).
    pub fn set_waker<F: FnOnce() + Send + 'static>(&self, wake: F) {
        let mut s = self.hook.state.lock().unwrap();
        if s.completed {
            drop(s);
            wake();
        } else {
            s.waker = Some(Box::new(wake));
        }
    }

    /// A ticket that is already resolved (used for submissions rejected
    /// before reaching the queue, e.g. after shutdown).
    pub(crate) fn resolved(result: Result<QueryResult>) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send((result, JobReport::default()));
        Ticket {
            rx,
            hook: CompletionHook::completed(),
            cancel: Arc::new(CancelState::new(None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn completion_hook_notifies_exactly_once() {
        let hook = Arc::new(CompletionHook::default());
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        {
            let mut s = hook.state.lock().unwrap();
            s.waker = Some(Box::new(move || {
                f.fetch_add(1, Ordering::SeqCst);
            }));
        }
        hook.complete();
        hook.complete(); // idempotent: the waker was taken by the first call
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cancel_state_reports_typed_errors() {
        let free = CancelState::new(None);
        assert!(free.status().is_ok());
        assert_eq!(free.remaining(), None);
        free.cancel();
        assert!(matches!(free.status(), Err(BwdError::Cancelled)));

        let expired = CancelState::new(Some(Duration::ZERO));
        match expired.status() {
            Err(BwdError::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
        // Explicit cancellation wins over the expired deadline.
        expired.cancel();
        assert!(matches!(expired.status(), Err(BwdError::Cancelled)));

        let generous = CancelState::new(Some(Duration::from_secs(3600)));
        assert!(generous.status().is_ok());
        assert!(generous.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn waker_registered_after_resolution_fires_immediately() {
        let ticket = Ticket::resolved(Err(BwdError::Exec("x".into())));
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        ticket.set_waker(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(ticket.poll_report().is_some(), "result already delivered");
    }
}
