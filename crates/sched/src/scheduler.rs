//! The worker pool, device placement and shared scheduler state.

use crate::footprint::WorkingSetEstimate;
use crate::job::{Job, JobReport};
use crate::lifecycle::{Run, SchedMetrics, Transition};
use crate::placement::{place, DeviceSlot};
use crate::policy::PolicyQueue;
use crate::session::Session;
use crate::stats::{DeviceSnapshot, SchedulerStats, StreamAccum};
use bwd_device::{Env, YieldPoint};
use bwd_engine::{Database, ExecMode, QueryResult};
use bwd_obs::metrics::Registry;
use bwd_obs::{QueryTrace, TraceCtx};
use bwd_types::{BwdError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Scheduler construction knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads draining the query queue.
    pub workers: usize,
    /// Per-reservation admission deadline; `None` queues indefinitely.
    pub admission_deadline: Option<Duration>,
    /// Cap on a query's real morsel threads, in either pipe: a job runs
    /// its simulated `host_threads` allocation clamped to this many.
    /// `1` disables intra-query parallelism.
    pub max_morsels: usize,
    /// Multiplier on a plan's predicted counts before its admission
    /// reservation is sized ([`crate::PlanFootprint::reservation`]).
    /// Above 1 buys headroom against non-uniform data; below 1
    /// deliberately under-reserves and leans on the OOM → re-queue path
    /// (tests); a non-finite or non-positive factor reserves the worst
    /// case.
    pub safety_factor: f64,
    /// Anti-starvation bound: the maximum number of times a queued job
    /// may be bypassed by younger work before it becomes un-overtakable
    /// (see [`crate::policy`]). `0` forbids reordering entirely: jobs run
    /// in arrival order instead of the queue's one order (priority, then
    /// latency estimate, then arrival).
    pub aging_threshold: u32,
    /// Record a [`QueryTrace`] for every job (default `false`). Tracing
    /// never changes results or simulated costs — only the report gains
    /// a trace. Each lane's ring holds 1 024 events; overflow drops the
    /// oldest and is reported on the captured trace.
    pub tracing: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        let hw = thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        SchedConfig {
            workers: hw.min(8),
            admission_deadline: Some(Duration::from_secs(10)),
            max_morsels: hw,
            safety_factor: 4.0,
            aging_threshold: 32,
            tracing: false,
        }
    }
}

pub(crate) struct QueueState {
    pub jobs: PolicyQueue<Job>,
    pub closed: bool,
    /// Runs once, after the next dequeue ([`Scheduler::wake_on_dequeue`]).
    pub on_dequeue: Option<Box<dyn FnOnce() + Send>>,
}

/// State shared between the scheduler handle, sessions and workers.
pub(crate) struct Shared {
    pub db: Arc<Database>,
    pub queue: Mutex<QueueState>,
    pub work_ready: Condvar,
    /// One slot per pool device: admission controller + load accounting.
    pub devices: Vec<DeviceSlot>,
    /// The construction knobs (`workers` and `max_morsels` raised to
    /// their minimum).
    pub config: SchedConfig,
    pub classic: StreamAccum,
    pub approx_refine: StreamAccum,
    /// Global completion stamp source ([`JobReport::completion_index`]).
    pub completions: AtomicU64,
    pub next_session: AtomicU64,
    pub metrics: SchedMetrics,
}

/// A multi-session query scheduler over one shared [`Database`] and its
/// device pool.
///
/// Queries execute on real OS threads. A&R queries are first *placed* on
/// a device (the least loaded; every card holds a replica of the
/// persistent approximations) and then pass that device's memory
/// admission with a statistics-based reservation; an underestimated
/// query OOMs early, releases its permit and re-enters the same device's
/// queue at the worst-case size. Dropping the scheduler closes the
/// queue, discards not-yet-started jobs (their tickets resolve to an
/// error) and joins the workers.
///
/// # Examples
///
/// Load a table, decompose a column, then serve concurrent sessions:
///
/// ```
/// use bwd_engine::{Database, ExecMode};
/// use bwd_sched::{SchedConfig, Scheduler};
/// use bwd_storage::Column;
/// use bwd_types::Value;
/// use std::sync::Arc;
///
/// let mut db = Database::new();
/// db.create_table(
///     "t",
///     vec![("a".into(), Column::from_i32((0..1000).collect()))],
/// )
/// .unwrap();
/// db.bwdecompose("t", "a", 24).unwrap(); // load-time decomposition
///
/// let sched = Scheduler::new(Arc::new(db), SchedConfig::default());
/// let session = sched.session();
/// let out = session
///     .submit_sql("select count(*) from t where a < 10", ExecMode::ApproxRefine)
///     .unwrap()
///     .wait()
///     .unwrap();
/// assert_eq!(out.rows[0][0], Value::Int(10));
///
/// let stats = sched.stats();
/// assert_eq!(stats.errors, 0);
/// for dev in &stats.devices {
///     assert!(dev.peak_bytes <= dev.capacity_bytes);
/// }
/// ```
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// A scheduler with `config`. One admission controller is built per
    /// pool device — construct the scheduler *after* loading, so the
    /// bytes resident on each card (persistent columns and replicas)
    /// count as permanent.
    pub fn new(db: Arc<Database>, mut config: SchedConfig) -> Scheduler {
        config.workers = config.workers.max(1);
        config.max_morsels = config.max_morsels.max(1);
        let metrics = SchedMetrics::new();
        let registry = &metrics.registry;
        let devices = (db.env().pool.devices().iter().enumerate())
            .map(|(i, d)| DeviceSlot::new(Arc::clone(d), config.admission_deadline, i, registry))
            .collect();
        let stream = |mode: &str| {
            StreamAccum::new(
                registry.counter(&format!("bwd_sched_queries_total{{mode=\"{mode}\"}}")),
            )
        };
        let shared = Arc::new(Shared {
            db,
            queue: Mutex::new(QueueState {
                jobs: PolicyQueue::new(config.aging_threshold),
                closed: false,
                on_dequeue: None,
            }),
            work_ready: Condvar::new(),
            devices,
            classic: stream("classic"),
            approx_refine: stream("approx_refine"),
            completions: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            metrics,
            config,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("bwd-sched-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// The shared database.
    pub fn database(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// Open a new session.
    pub fn session(&self) -> Session {
        Session::new(
            Arc::clone(&self.shared),
            self.shared.next_session.fetch_add(1, Ordering::Relaxed),
        )
    }

    /// Jobs currently waiting in the queue (excludes running queries).
    /// The `bwd-net` reactor probes this before every socket read and
    /// every submission: its read-pause and shed watermarks.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }

    /// Current per-stream, per-device and admission statistics.
    pub fn stats(&self) -> SchedulerStats {
        let devices: Vec<DeviceSnapshot> = (self.shared.devices.iter())
            .map(|slot| {
                let mem = slot.admission.memory();
                DeviceSnapshot {
                    name: slot.device.spec().name.clone(),
                    queries: slot.queries.get(),
                    requeues: slot.requeues.get(),
                    admission_waits: mem.total_waits(),
                    used_bytes: mem.used(),
                    pending_bytes: slot.pending_bytes.load(Ordering::Relaxed),
                    peak_bytes: mem.peak(),
                    capacity_bytes: mem.capacity(),
                    breakdown: slot.device.ledger().breakdown(),
                    offline: !slot.is_online(),
                    consecutive_faults: slot.consecutive_faults.load(Ordering::Relaxed),
                    offline_events: slot.offline_events.get(),
                }
            })
            .collect();
        let busiest = devices.iter().max_by_key(|d| d.peak_bytes);
        SchedulerStats {
            completed: self.shared.completions.load(Ordering::Relaxed),
            classic: self.shared.classic.snapshot(),
            approx_refine: self.shared.approx_refine.snapshot(),
            errors: self.shared.metrics.errors.get(),
            admission_waits: devices.iter().map(|d| d.admission_waits).sum(),
            admission_requeues: devices.iter().map(|d| d.requeues).sum(),
            device_peak_bytes: busiest.map(|d| d.peak_bytes).unwrap_or(0),
            device_capacity_bytes: busiest.map(|d| d.capacity_bytes).unwrap_or(0),
            devices,
        }
    }

    /// Run `wake` once, after a worker next takes a job off the queue;
    /// it replaces an earlier `wake` that has not run yet. The front door
    /// sleeps on it while the queue's depth pauses its reads.
    pub fn wake_on_dequeue(&self, wake: impl FnOnce() + Send + 'static) {
        self.shared.queue.lock().unwrap().on_dequeue = Some(Box::new(wake));
    }

    /// A Prometheus-style text snapshot of every metric this scheduler
    /// owns (queue waits, exec walls, per-mode and per-device query
    /// counts, the estimate-ratio histogram), the per-device admission
    /// gauges derived from [`Scheduler::stats`], and the process-wide
    /// registry (device memory, kernel block counters).
    pub fn metrics_snapshot(&self) -> String {
        // Point-in-time values enter the registry as gauges right before
        // it renders; everything counted is in it already.
        let registry = &self.shared.metrics.registry;
        for (i, dev) in self.stats().devices.iter().enumerate() {
            for (name, value) in [
                ("admission_waits_total", dev.admission_waits),
                ("used_bytes", dev.used_bytes),
                ("peak_bytes", dev.peak_bytes),
                ("capacity_bytes", dev.capacity_bytes),
                ("offline", u64::from(dev.offline)),
            ] {
                let name = format!("bwd_sched_device_{name}{{device=\"{i}\"}}");
                registry.gauge(&name).set(value as i64);
            }
        }
        registry.render() + &Registry::global().render()
    }

    /// Close the queue and join the workers. Queued-but-unstarted jobs
    /// are discarded; their tickets resolve to a shutdown error.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.closed = true;
            // Dropping the jobs drops their reply senders: pending tickets
            // observe the disconnect and report the shutdown.
            q.jobs.clear();
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let lane = format!("worker-{index}");
    loop {
        let (job, woken) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop() {
                    break (job, q.on_dequeue.take());
                }
                if q.closed {
                    return;
                }
                q = shared.work_ready.wait(q).unwrap();
            }
        };
        if let Some(wake) = woken {
            wake();
        }
        execute_job(&shared, job, &lane);
    }
}

/// Run one dequeued job to completion on the current thread: execute
/// with panic isolation, account the completion and deliver the reply.
fn execute_job(shared: &Arc<Shared>, job: Job, lane: &str) {
    let queued = job.submitted.elapsed();
    let run = Run::new(shared, &job.recorder, job.root, lane);
    run.step(Transition::Dequeued { job: &job, queued });
    let started = Instant::now();
    // A cancelled or deadline-expired job never starts executing: it
    // resolves with its typed error straight out of the queue (there is
    // no reservation yet, so nothing to release). A panicking query must
    // not kill the worker either — the pool would silently shrink and
    // queued jobs would hang forever — so the unwind becomes a per-query
    // error (the inner guard in `run_job` already closed the exec span;
    // this outer one is the backstop for panics outside it).
    let result = match job.cancel.status() {
        Err(stop) => Err(stop),
        Ok(()) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(&run, &job)))
            .unwrap_or_else(|payload| Err(panic_error(payload))),
    };
    let wall = started.elapsed();
    let completion_index = shared.completions.fetch_add(1, Ordering::Relaxed);
    run.step(Transition::Replied {
        job: &job,
        result: &result,
        queued,
        wall,
        completion_index,
    });
    let trace = (job.recorder.is_enabled()).then(|| QueryTrace::capture(&job.recorder));
    let report = JobReport {
        queue_wait: queued,
        exec: wall,
        completion_index,
        est_seconds: job.est_seconds(),
        actual_sim_seconds: result.as_ref().map_or(0.0, |r| r.breakdown.total()),
        priority: job.opts.priority,
        trace,
    };
    // The submitter may have dropped its ticket; that's fine.
    let _ = job.reply.send((result, report));
}

/// Render a caught unwind payload as the per-query panic error.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> BwdError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    BwdError::Exec(format!("query panicked during execution: {msg}"))
}

fn run_job(run: &Run<'_>, job: &Job) -> Result<QueryResult> {
    let shared = run.shared;
    let db = &shared.db;
    let mut env = db.env().clone();
    // Same clamp the submission-time latency estimate used
    // (`SubmitOptions::effective_host_threads`), so the job executes with
    // exactly the thread count it was estimated and queued at.
    env.host_threads = job.opts.effective_host_threads(&env);
    // Real-thread fan-out for the query's hot loops: both pipes mirror
    // the simulated host-thread allocation up to the configured cap.
    let morsels = (env.host_threads as usize).min(shared.config.max_morsels);
    let classic = matches!(job.mode, ExecMode::Classic);
    run.step(Transition::Started {
        morsels,
        host_threads: env.host_threads,
        classic,
    });
    // Hand the per-query recorder to the engine: its phase spans
    // (approx-select, refine, gather, group/agg, morsels, classic) nest
    // under this worker's exec span on the same lane.
    env.trace = TraceCtx::new(job.recorder.clone(), run.exec(), run.lane);
    // Arm the yield point: the engine polls it between partitions, and
    // each poll observes cancellation and the deadline, so a running
    // query stops within one yield-point interval of being cancelled.
    let cancel = Arc::clone(&job.cancel);
    env.yield_point = YieldPoint::new(Arc::new(move || cancel.status()));
    // Panic isolation *inside* the exec span: a query that panics — a
    // real bug or an injected `FaultKind::Panic` — must still close this
    // span on its way out, so captured traces stay well-formed while the
    // RAII permits/buffers release on the unwind.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if classic {
            db.run_bound_in(&job.plan, ExecMode::Classic, &env, morsels, None)
        } else {
            run_ar_job(run, job, &env, morsels)
        }
    }))
    .unwrap_or_else(|payload| Err(panic_error(payload)));
    run.step(Transition::Finished(&result));
    result
}

/// An offline card is probed every this many placement passes (every A&R
/// placement advances each offline card's probe clock by one).
const PROBE_EVERY: u64 = 8;

/// Size of the recovery probe allocation in bytes; it goes through the
/// card's real allocation path and is released immediately.
const PROBE_BYTES: u64 = 64 << 10;

/// Advance every offline card's probe clock by one placement pass; on
/// cadence, attempt a real allocation through the card's (possibly
/// fault-injected) memory. A successful probe brings the card back
/// online with its fault streak cleared — queued work then flows to it
/// again through normal placement.
fn probe_offline_devices(run: &Run<'_>) {
    for (device, slot) in run.shared.devices.iter().enumerate() {
        if slot.is_online() {
            continue;
        }
        let tick = slot.probe_clock.fetch_add(1, Ordering::Relaxed) + 1;
        if tick % PROBE_EVERY != 0 {
            continue;
        }
        if let Ok(probe) = slot.admission.memory().alloc(PROBE_BYTES) {
            drop(probe);
            run.step(Transition::DeviceUp { device, tick });
        }
    }
}

/// Times one query may be re-placed on a different device after a
/// device fault (cancellations, deadlines, OOMs, panics and plan errors
/// are never retried).
const MAX_RETRIES: u32 = 1;

/// Place and execute one A&R query, handling device failover: a query
/// that dies with a [`BwdError::DeviceFault`] feeds the faulting card's
/// health machine (possibly taking it offline) and — with a retry left
/// ([`MAX_RETRIES`]), the job not pinned, and another card in the pool —
/// is retried on a different device. Results of a retried query are
/// bit-identical to a fault-free run: every card holds the same
/// replicated data, and the first attempt produced nothing.
fn run_ar_job(run: &Run<'_>, job: &Job, env: &Env, morsels: usize) -> Result<QueryResult> {
    let shared = run.shared;
    // A hint proven wrong stays wrong: once the query ran over its budget
    // `run_ar_on_device` inflates this to the worst case, which a
    // failover to another card then asks for straight away.
    let mut est = job.footprint.reservation(shared.config.safety_factor);
    let mut avoid: Option<usize> = None;
    let mut retries_left = MAX_RETRIES;
    loop {
        probe_offline_devices(run);
        // --- Placement: pin wins, otherwise the least-loaded online card
        // (skipping the one a retry just left). ---
        let device = match job.opts.device {
            Some(i) if i < shared.devices.len() => {
                if !shared.devices[i].is_online() {
                    return Err(BwdError::DeviceFault(format!(
                        "device {i} is offline (pinned query cannot migrate)"
                    )));
                }
                i
            }
            Some(i) => {
                return Err(BwdError::InvalidArgument(format!(
                    "device index {i} out of range (pool has {} devices)",
                    shared.devices.len()
                )))
            }
            None => place(&shared.devices, avoid),
        };
        let bytes = est.estimated;
        run.step(Transition::Placed { device, bytes });
        match run_ar_on_device(run, job, env, morsels, &mut est, device) {
            Err(BwdError::DeviceFault(msg)) => {
                // Device faults are the retryable class: the work is
                // valid and idempotent, only the card misbehaved. Retry
                // elsewhere, bounded, never for pinned jobs.
                let retry =
                    retries_left > 0 && job.opts.device.is_none() && shared.devices.len() > 1;
                run.step(Transition::Faulted { device, retry });
                if !retry {
                    return Err(BwdError::DeviceFault(msg));
                }
                retries_left -= 1;
                avoid = Some(device);
            }
            result => return result,
        }
    }
}

/// Admit and execute one A&R query on the chosen device, handling the
/// underestimate re-queue path: a run over its hinted budget inflates
/// `est` to the worst case and asks this card again.
///
/// The blocking admission wait is clamped to the job's remaining
/// deadline budget, so an expiring query reports
/// [`BwdError::DeadlineExceeded`] instead of camping in the reservation
/// queue.
fn run_ar_on_device(
    run: &Run<'_>,
    job: &Job,
    env: &Env,
    morsels: usize,
    est: &mut WorkingSetEstimate,
    device: usize,
) -> Result<QueryResult> {
    let slot = &run.shared.devices[device];
    let env = env.on_device(device)?;
    let mut requeues: u64 = 0;
    loop {
        // Reserve on the chosen device. The pending guard keeps the
        // not-yet-admitted estimate visible to placement and drops as
        // soon as the reservation resolves either way.
        let (bytes, attempt) = (est.estimated, requeues + 1);
        run.step(Transition::Reserving { bytes, attempt });
        let permit = {
            let _pending = slot.begin_pending(bytes);
            // Clamp the blocking wait to the job's remaining deadline
            // budget; an already-stopped job skips the wait entirely.
            let admitted = job.cancel.status().and_then(|()| {
                let wait = match (slot.admission.deadline(), job.cancel.remaining()) {
                    (Some(a), Some(r)) => Some(a.min(r)),
                    (a, r) => a.or(r),
                };
                slot.admission.admit_within(bytes, wait)
            });
            // A wait cut short by the job's own expiry is the job's
            // deadline, not a device admission timeout.
            let outcome = admitted.map_err(|e| match (e, job.cancel.status()) {
                (BwdError::AdmissionTimeout { .. }, Err(stop)) => stop,
                (e, _) => e,
            });
            match outcome {
                Ok(permit) => permit,
                Err(e) => {
                    run.step(Transition::Refused { requeues });
                    return Err(e);
                }
            }
        };
        let reserved = permit.bytes();
        run.step(Transition::Admitted { reserved, requeues });
        let budget = est.is_reduced().then(|| est.data_budget());
        let mode = job.mode.clone();
        let db = &run.shared.db;
        match db.run_bound_in(&job.plan, mode, &env, morsels, budget) {
            Err(BwdError::DeviceOutOfMemory { .. }) if budget.is_some() => {
                // The statistics underestimated this query. Release the
                // permit first (holding it while re-queueing could
                // deadlock a small card), inflate to the worst case —
                // which by construction always suffices — and re-enter
                // this device's admission queue. The session never sees
                // the transient failure.
                drop(permit);
                run.step(Transition::OverBudget { device });
                requeues += 1;
                est.estimated = est.worst_case;
            }
            result => {
                if let Ok(r) = &result {
                    run.step(Transition::Served { device, result: r });
                }
                drop(permit);
                return result;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate};
    use bwd_storage::Column;
    use bwd_types::Value;

    fn served_db() -> (Arc<Database>, bwd_core::plan::ArPlan) {
        let mut db = Database::new();
        db.create_table(
            "t",
            vec![("a".into(), Column::from_i32((0..10_000).collect()))],
        )
        .unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(100),
                hi: Value::Int(499),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        db.auto_bind(&ar).unwrap();
        (Arc::new(db), ar)
    }

    #[test]
    fn executes_both_modes_and_accounts_streams() {
        let (db, plan) = served_db();
        let sched = Scheduler::new(db, SchedConfig::default());
        let session = sched.session();
        let classic = session.query(&plan, ExecMode::Classic).unwrap();
        let ar = session.query(&plan, ExecMode::ApproxRefine).unwrap();
        assert_eq!(classic.rows, ar.rows);
        let stats = sched.stats();
        assert_eq!(stats.classic.queries, 1);
        assert_eq!(stats.approx_refine.queries, 1);
        assert!(stats.classic.breakdown.host > 0.0);
        assert!(stats.approx_refine.breakdown.device > 0.0);
        assert_eq!(stats.errors, 0);
        assert!(stats.device_peak_bytes <= stats.device_capacity_bytes);
        // Per-device accounting: one device, one A&R query on it.
        assert_eq!(stats.devices.len(), 1);
        assert_eq!(stats.devices[0].queries, 1);
        assert!(stats.devices[0].breakdown.device > 0.0);
        assert_eq!(stats.admission_requeues, 0);
    }

    #[test]
    fn traced_job_attaches_query_trace() {
        let (db, plan) = served_db();
        let sched = Scheduler::new(
            Arc::clone(&db),
            SchedConfig {
                workers: 1,
                tracing: true,
                ..SchedConfig::default()
            },
        );
        let session = sched.session();
        let (result, report, trace) = session
            .submit(plan.clone(), ExecMode::ApproxRefine)
            .wait_traced()
            .unwrap();
        assert_eq!(result.rows[0][0], Value::Int(400));
        let text = trace.explain();
        assert!(text.contains("query"), "{text}");
        assert!(text.contains("queue"), "{text}");
        assert!(text.contains("exec"), "{text}");
        assert!(text.contains("approx-select"), "{text}");
        assert!(text.contains("@placement"), "{text}");
        assert!(text.contains("admission"), "{text}");
        assert!(text.contains("@resolve"), "{text}");

        // The report carries the trace, and every job of a tracing
        // scheduler has its own.
        assert_eq!(report.trace.as_ref(), Some(&trace));
        let (classic, report) = (session.submit(plan.clone(), ExecMode::Classic)).wait_outcome();
        classic.unwrap();
        let classic_trace = report.and_then(|r| r.trace).expect("a traced job's report");
        assert!(classic_trace.explain().contains("@resolve"));
        assert_ne!(classic_trace, trace);

        // A scheduler without tracing attaches none.
        let untraced = Scheduler::new(db, SchedConfig::default());
        let err = (untraced.session())
            .submit(plan, ExecMode::Classic)
            .wait_traced()
            .unwrap_err();
        assert!(err.to_string().contains("without tracing"), "{err}");

        let metrics = sched.metrics_snapshot();
        assert!(
            metrics.contains("bwd_sched_queue_wait_us_count 2"),
            "{metrics}"
        );
        assert!(
            metrics.contains("bwd_sched_queries_total{mode=\"approx_refine\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("bwd_sched_queries_total{mode=\"classic\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("bwd_sched_estimate_ratio_milli_count"),
            "{metrics}"
        );
        assert!(
            metrics.contains("bwd_sched_device_peak_bytes{device=\"0\"}"),
            "{metrics}"
        );
    }

    #[test]
    fn ticket_waker_fires_exactly_once_after_resolution() {
        use std::sync::atomic::AtomicU64;

        let (db, plan) = served_db();
        let sched = Scheduler::new(
            db,
            SchedConfig {
                workers: 1,
                ..SchedConfig::default()
            },
        );
        let session = sched.session();
        let fired = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel();

        // Waker registered before completion: delivered exactly once,
        // and by the time it fires the result is observable by poll.
        let ticket = session.submit(plan.clone(), ExecMode::Classic);
        let f = Arc::clone(&fired);
        ticket.set_waker(move || {
            f.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(());
        });
        rx.recv().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let polled = ticket.poll_report().expect("woken ⇒ resolved").unwrap();
        assert_eq!(polled.0.rows[0][0], Value::Int(400));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "no second notification");

        // Submissions rejected at a closed queue resolve immediately, and
        // a waker registered on the already-resolved ticket still fires —
        // a poll-based front door never hangs.
        sched.shutdown();
        let orphan_fired = Arc::new(AtomicU64::new(0));
        let of = Arc::clone(&orphan_fired);
        let orphan = session.submit(plan, ExecMode::Classic);
        orphan.set_waker(move || {
            of.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(orphan_fired.load(Ordering::SeqCst), 1);
        assert!(orphan.wait().is_err());
    }

    #[test]
    fn sql_submission_and_load_time_rejection() {
        let (db, _) = served_db();
        let sched = Scheduler::new(db, SchedConfig::default());
        let session = sched.session();
        let out = session
            .submit_sql("select count(*) from t where a < 10", ExecMode::Classic)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(10));
        let sql = "select bwdecompose(a, 24) from t";
        let Err(err) = session.submit_sql(sql, ExecMode::Classic) else {
            panic!("a load-time statement is refused at submission");
        };
        assert!(err.to_string().contains("load-time"), "{err}");
    }

    #[test]
    fn shutdown_resolves_pending_submissions_with_error() {
        let (db, plan) = served_db();
        let sched = Scheduler::new(db, SchedConfig::default());
        let session = sched.session();
        sched.shutdown();
        let err = session.submit(plan, ExecMode::Classic).wait().unwrap_err();
        assert!(err.to_string().contains("shut down"), "{err}");
    }

    #[test]
    fn sessions_have_distinct_ids() {
        let (db, _) = served_db();
        let sched = Scheduler::new(db, SchedConfig::default());
        assert_ne!(sched.session().id(), sched.session().id());
    }

    #[test]
    fn device_pin_routes_and_rejects_out_of_range() {
        use crate::job::SubmitOptions;

        let mut db = Database::with_env(bwd_device::Env::with_devices(
            vec![bwd_device::DeviceSpec::gtx680(); 2],
        ));
        db.create_table(
            "t",
            vec![("a".into(), Column::from_i32((0..10_000).collect()))],
        )
        .unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(100),
                hi: Value::Int(499),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        db.auto_bind(&ar).unwrap();
        let sched = Scheduler::new(Arc::new(db), SchedConfig::default());
        let session = sched.session();
        for dev in [0usize, 1] {
            let r = session
                .submit_with(
                    ar.clone(),
                    ExecMode::ApproxRefine,
                    SubmitOptions {
                        device: Some(dev),
                        ..SubmitOptions::default()
                    },
                )
                .wait()
                .unwrap();
            assert_eq!(r.rows[0][0], Value::Int(400));
        }
        let stats = sched.stats();
        assert_eq!(stats.devices[0].queries, 1);
        assert_eq!(stats.devices[1].queries, 1);
        let err = session
            .submit_with(
                ar,
                ExecMode::ApproxRefine,
                SubmitOptions {
                    device: Some(9),
                    ..SubmitOptions::default()
                },
            )
            .wait()
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
