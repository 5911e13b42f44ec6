//! The session front door.

use crate::footprint::PlanFootprint;
use crate::job::{CancelState, CompletionHook, Job, SubmitOptions, Ticket};
use crate::lifecycle;
use crate::scheduler::Shared;
use bwd_core::plan::{ArPlan, RewriteOptions};
use bwd_engine::{ExecMode, QueryResult};
use bwd_sql::{bind, parse, BoundStatement};
use bwd_types::{BwdError, Result};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One client's handle onto the scheduler.
///
/// Sessions are cheap, `Send`, and independent: each `submit` enqueues
/// one query and returns a [`Ticket`]. A session does not serialize its
/// own queries — submit many, then wait on the tickets — and any number
/// of sessions can submit concurrently.
pub struct Session {
    shared: Arc<Shared>,
    id: u64,
}

impl Session {
    pub(crate) fn new(shared: Arc<Shared>, id: u64) -> Session {
        Session { shared, id }
    }

    /// This session's id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Enqueue a bound plan for execution in `mode`.
    pub fn submit(&self, plan: ArPlan, mode: ExecMode) -> Ticket {
        self.submit_with(plan, mode, SubmitOptions::default())
    }

    /// Enqueue with per-query overrides.
    ///
    /// The plan is walked once, here ([`PlanFootprint::of`]): the
    /// submission is stamped with a latency estimate from the bill's
    /// predicted counts and the platform cost model, and carries the
    /// footprint its admission reservation is later sized from. The
    /// scheduler's [`crate::PolicyQueue`] runs [`SubmitOptions::priority`]
    /// first, then that estimate, then arrival.
    pub fn submit_with(&self, plan: ArPlan, mode: ExecMode, opts: SubmitOptions) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let threads = opts.effective_host_threads(self.shared.db.env());
        let footprint = PlanFootprint::of(&self.shared.db, &plan, &mode, threads);
        let est_seconds = footprint.latency().total();
        let priority = opts.priority;
        // Per-query recorder: the whole lifecycle (queue wait included)
        // lands on one timeline because every recorder shares the
        // process-wide monotonic epoch.
        let recorder = if self.shared.config.tracing {
            bwd_obs::Recorder::enabled()
        } else {
            bwd_obs::Recorder::disabled()
        };
        let (root, queue_span) = lifecycle::submitted(&recorder, self.id, priority, est_seconds);
        let hook = Arc::new(CompletionHook::default());
        // The deadline clock starts at submission: queue wait spends the
        // same budget execution does.
        let cancel = Arc::new(CancelState::new(opts.deadline));
        let job = Job {
            plan,
            mode,
            opts,
            session: self.id,
            footprint,
            reply: tx,
            submitted: Instant::now(),
            recorder,
            root,
            queue_span,
            hook: Arc::clone(&hook),
            cancel: Arc::clone(&cancel),
        };
        let mut q = self.shared.queue.lock().unwrap();
        if q.closed {
            drop(q);
            return Ticket::resolved(Err(BwdError::Exec(
                "scheduler is shut down; no new queries accepted".into(),
            )));
        }
        q.jobs.push(priority, est_seconds, job);
        drop(q);
        self.shared.work_ready.notify_one();
        Ticket { rx, hook, cancel }
    }

    /// Parse, bind and enqueue one SQL query.
    ///
    /// Decomposition statements (`select bwdecompose(...)`) mutate the
    /// database and must run *before* serving starts — they are rejected
    /// here.
    pub fn submit_sql(&self, sql: &str, mode: ExecMode) -> Result<Ticket> {
        let stmt = parse(sql)?;
        match bind(&stmt, self.shared.db.catalog())? {
            BoundStatement::Decompose { .. } => Err(BwdError::Unsupported(
                "bwdecompose is a load-time operation; decompose before serving".into(),
            )),
            BoundStatement::Query(logical) => {
                let plan = self.shared.db.bind(&logical, &RewriteOptions::default())?;
                Ok(self.submit(plan, mode))
            }
        }
    }

    /// Convenience: submit a plan and wait for its result.
    pub fn query(&self, plan: &ArPlan, mode: ExecMode) -> Result<QueryResult> {
        self.submit(plan.clone(), mode).wait()
    }
}
