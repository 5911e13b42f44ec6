//! `bwd-sched` — a concurrent multi-session query scheduler with
//! device-memory admission control.
//!
//! The paper's headline observation (Figure 11, "A Gap in the Memory
//! Wall") is that a classic CPU query stream and an A&R co-processor
//! stream combine almost additively: the CPU stream saturates at the
//! host's memory wall while the device stream works out of its own
//! memory. This crate turns that observation into an executable
//! subsystem: many sessions submit queries concurrently, real OS threads
//! execute them, and the one genuinely scarce resource the simulator
//! enforces — the 2 GB card and the PCI-E link behind it — is arbitrated
//! by an admission controller instead of failing ad hoc.
//!
//! # Architecture
//!
//! ```text
//!  Session ─┐  submit(plan, mode, prio)      ┌─ worker 0 ── classic pipe
//!  Session ─┼─▶ PolicyQueue ───────▶ pool ───┼─ worker 1 ─┐
//!  Session ─┘   (priority, estimate,         └─ worker N ─┤  A&R: place (least loaded)
//!   │ one PlanFootprint  arrival; aging)                  ▼
//!   ▼ per submission                      ┌── device 0 admission queue ─▶ DeviceMemory 0
//!  Ticket (result + JobReport)            └── device 1 admission queue ─▶ DeviceMemory 1
//!                                             (per-card FIFO reservations, never exceeded;
//!                                              underestimates re-queue at worst case)
//! ```
//!
//! * [`Scheduler`] owns the worker pool and the shared [`Database`]
//!   (via `Arc`; execution is `&self`-re-entrant).
//! * [`Session`] is the front door: submit bound [`ArPlan`]s or SQL text
//!   with an [`ExecMode`]; each submission returns a [`Ticket`] that
//!   resolves to the query's [`QueryResult`] plus a [`JobReport`]
//!   (queue wait, completion order, estimate vs actual).
//! * **One walk per plan, one bill**: [`PlanFootprint::of`] resolves the
//!   plan through the executors' own resolver once, at submission, and
//!   predicts the counts a run will observe from the columns' extrema
//!   and the relaxed intervals of the decomposed columns. The
//!   latency estimate the queue sorts by is the executor's bill
//!   (`bwd_engine::bill`) over those counts, the admission reservation
//!   its transient device bytes; this crate prices nothing itself
//!   ([`footprint`]).
//! * **One queue order**: the central queue is a [`PolicyQueue`] that
//!   runs caller-assigned [`SubmitOptions::priority`] first (higher
//!   sooner), then the smaller [`PlanFootprint::latency`], then arrival —
//!   shortest-job-first whenever priorities are equal, as they are by
//!   default — with deterministic bypass-count aging so long or
//!   low-priority jobs are never starved (at most
//!   [`SchedConfig::aging_threshold`] younger pops may overtake a queued
//!   job; `0` is arrival order). Short A&R probes do not
//!   head-of-line-block behind bulk classic scans
//!   (`tests/priority_sched.rs` pins the drain orders; the benchmark's
//!   `sched.queue_wait_ms_p50` on `mixed_streams` measures the wait).
//! * **Multi-device placement**: the database's [`Env`] may carry a
//!   [`DevicePool`]; every card holds a replica of the persistent
//!   approximations, and each A&R query is routed to the least-loaded
//!   online card (load = reserved bytes + queued estimated work) — or
//!   pinned via [`SubmitOptions::device`]. A card that faults three
//!   times in a row goes offline until a recovery probe succeeds; a
//!   faulted query is retried once on another card.
//! * **Statistics-based admission**: [`PlanFootprint::reservation`] is
//!   what a run with the predicted counts, inflated by a configurable
//!   safety factor ([`SchedConfig::safety_factor`]), would hold —
//!   clamped to the all-rows worst case
//!   ([`PlanFootprint::worst_case_bytes`]). Each device's
//!   [`AdmissionController`] reserves from that card's real
//!   [`DeviceMemory`] *before* the query runs; a request that does not
//!   currently fit **queues** in strict per-device FIFO order rather than
//!   erroring, and requests are clamped to the card's non-persistent
//!   share. The executor holds a run to its reservation (the `budget`
//!   argument of `bwd_engine::Database::run_bound_in`): an
//!   *underestimated* query OOMs early there, releases its permit, inflates to the worst case and re-enters the
//!   same device's queue — the session never sees the transient failure.
//!   Concurrent reservations can never exceed any card's capacity —
//!   every [`DeviceSnapshot::peak_bytes`] proves it.
//! * **One declared lifecycle**: a job's [`lifecycle::State`]s and the
//!   [`lifecycle::LEGAL`] edges between them are a table, and one
//!   function accounts for every transition — trace events,
//!   `bwd_sched_*` metrics, per-stream and per-device tallies. It only
//!   reads a job's estimate, which is fixed at submission.
//! * **One source per execution setting**: both pipes run their hot loops
//!   **morsel-parallel** on real threads, bit-identical to serial, over
//!   the job's simulated host threads capped by
//!   [`SchedConfig::max_morsels`] — the one morsel count the engine sees
//!   and the `exec` span records. Tracing is scheduler-wide
//!   ([`SchedConfig::tracing`]): every job records a trace or none does.
//! * Per-stream and per-device accounting: simulated cost
//!   ([`bwd_device::SharedLedger`]) and wall clock per [`ExecMode`]
//!   stream, plus each device's share — [`Scheduler::stats`]. The
//!   Figure 11 runner that reads them (`bwd_bench::throughput`) and the
//!   seeded test workloads (`bwd_bench::workload`) live with the
//!   evaluation harness, not in the serving crate.
//!
//! [`ArPlan`]: bwd_core::plan::ArPlan
//! [`Database`]: bwd_engine::Database
//! [`Env`]: bwd_device::Env
//! [`DevicePool`]: bwd_device::DevicePool
//! [`ExecMode`]: bwd_engine::ExecMode
//! [`QueryResult`]: bwd_engine::QueryResult
//! [`DeviceMemory`]: bwd_device::DeviceMemory

#![deny(missing_docs)]

pub mod admission;
pub mod footprint;
pub mod job;
pub mod lifecycle;
pub mod placement;
pub mod policy;
pub mod scheduler;
pub mod session;
pub mod stats;

pub use admission::{AdmissionController, AdmissionPermit, KERNEL_SCRATCH_BYTES};
pub use footprint::{PlanFootprint, WorkingSetEstimate};
pub use job::{JobReport, SubmitOptions, Ticket};
pub use policy::PolicyQueue;
pub use scheduler::{SchedConfig, Scheduler, TraceRecord};
pub use session::Session;
pub use stats::{DeviceSnapshot, SchedulerStats, StreamSnapshot};
