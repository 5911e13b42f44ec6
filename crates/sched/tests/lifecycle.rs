//! Every trace is a walk of the lifecycle table, and every exit gives the
//! card back.
//!
//! One table, one row per way a job can end. Each row drives a fresh
//! one-worker scheduler over a two-card pool down that path and the
//! harness then checks, for *every* job the row completed:
//!
//! 1. the lifecycle events of its captured trace, read as states, form
//!    consecutive pairs that are all in [`LEGAL`] and end in a terminal
//!    state — and the job under test took exactly the row's walk;
//! 2. every card's memory is back at its persistent baseline with no
//!    reservation queued (invariant 8);
//! 3. each `bwd_sched_*` counter moved by exactly the number of matching
//!    transitions in those walks.
//!
//! Together the rows walk every edge of [`LEGAL`].
//!
//! No sleeps: workers are frozen behind a [`Gate`], faults come from a
//! seeded [`FaultPlan`], and a cancellation lands while its job waits
//! behind the gate.

use bwd_bench::workload::{QuerySpec, WorkloadGen, WorkloadSpec};
use bwd_device::Env;
use bwd_obs::{EventKind, Phase, QueryTrace};
use bwd_sched::lifecycle::{State, LEGAL};
use bwd_sched::{SchedConfig, Scheduler, Session, SubmitOptions, Ticket};
use bwd_types::{BwdError, FaultPlan, FaultSite, FaultSpec};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use State::*;

#[path = "../../../tests/support/gate.rs"]
mod gate;
use gate::Gate;

#[path = "../../../tests/support/trace_check.rs"]
mod trace_check;

/// Whether a job in `state` has been replied to.
fn is_terminal(state: State) -> bool {
    matches!(state, State::Resolved | State::Cancelled | State::Failed)
}

/// The states a captured trace passes through, and whether the job ran
/// the classic pipe. Two transitions leave no event of their own and are
/// read off the next one: a second admission attempt is the over-budget
/// requeue, a second placement the failover retry.
fn walk(trace: &QueryTrace) -> (Vec<State>, bool) {
    let mut walk = vec![Queued];
    let mut classic = false;
    for e in &trace.events {
        let at = *walk.last().unwrap();
        let next: &[State] = match (e.kind, e.phase) {
            (EventKind::Classic, Phase::Begin) => {
                classic = true;
                &[Running]
            }
            (EventKind::Placement, _) if at == Queued => &[Placed],
            (EventKind::Placement, _) => &[Retried, Placed],
            (EventKind::Admission, Phase::Begin) if e.b > 1 => &[Requeued, Placed],
            (EventKind::Admission, Phase::End) if e.d == 0 => &[Admitted, Running],
            (EventKind::Cancel, _) => &[Cancelled],
            (EventKind::Query, Phase::End) if !is_terminal(at) && e.d == 0 => &[Resolved],
            (EventKind::Query, Phase::End) if !is_terminal(at) => &[Failed],
            _ => &[],
        };
        walk.extend_from_slice(next);
    }
    (walk, classic)
}

/// Value of the metric line `name` (exact name, labels included).
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        long_rows: 2_000,
        short_rows: 800,
        domain: 400,
        groups: 4,
        ..WorkloadSpec::default()
    }
}

/// What a row drives: the workload, the scheduler, a session for helper
/// jobs and the session of the job under test.
struct Ctx {
    gen: WorkloadGen,
    sched: Option<Scheduler>,
    helper: Session,
    subject: Session,
}

impl Ctx {
    fn submit(&self, session: &Session, q: &QuerySpec, opts: SubmitOptions) -> Ticket {
        session.submit_with(q.plan.clone(), q.mode.clone(), opts)
    }

    fn pinned(device: usize) -> SubmitOptions {
        SubmitOptions {
            device: Some(device),
            ..SubmitOptions::default()
        }
    }

    /// Freeze the one worker: gate card 0 and block a helper probe pinned
    /// to it inside admission.
    fn freeze(&mut self) -> (Gate, Ticket) {
        let gate = Gate::block(self.gen.db(), 0).unwrap();
        let job = self.gen.short();
        let ticket = self.submit(&self.helper, &job, gate.submit_options());
        gate.wait_admission_blocked(1);
        (gate, ticket)
    }
}

fn exec_faults(max: u64, panic: bool) -> FaultPlan {
    let spec = FaultSpec {
        ppm: 1_000_000,
        skip: 0,
        max,
        panic,
    };
    FaultPlan::seeded(7).site(FaultSite::Exec, spec).build()
}

/// One terminal path.
struct Case {
    name: &'static str,
    /// The walk of the job under test (empty: it never reaches a worker).
    expect: &'static [State],
    /// The exec-site fault plan armed on the platform.
    faults: fn() -> FaultPlan,
    config: fn(&mut SchedConfig),
    /// Drives the path; every ticket it creates is resolved on return.
    drive: fn(&mut Ctx),
}

const NO_CONFIG: fn(&mut SchedConfig) = |_| {};

const CASES: &[Case] = &[
    Case {
        name: "ok classic",
        expect: &[Queued, Running, Resolved],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            let q = ctx.gen.long();
            let got = ctx.submit(&ctx.subject, &q, Default::default()).wait();
            assert_eq!(got.unwrap().rows, ctx.gen.reference(&q).unwrap().rows);
        },
    },
    Case {
        name: "ok A&R",
        expect: &[Queued, Placed, Admitted, Running, Resolved],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            let q = ctx.gen.short();
            let got = ctx.submit(&ctx.subject, &q, Default::default()).wait();
            assert_eq!(got.unwrap().rows, ctx.gen.reference(&q).unwrap().rows);
        },
    },
    Case {
        name: "cancelled while queued",
        expect: &[Queued, Cancelled],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            let (gate, frozen) = ctx.freeze();
            let q = ctx.gen.short();
            let victim = ctx.submit(&ctx.subject, &q, Default::default());
            victim.cancel();
            gate.release();
            frozen.wait().unwrap();
            assert!(matches!(victim.wait(), Err(BwdError::Cancelled)));
        },
    },
    Case {
        name: "cancelled while running",
        expect: &[Queued, Placed, Admitted, Running, Cancelled],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            // The cancel lands while the job waits inside admission,
            // which does not poll it; admitted, the job runs, and the
            // engine's first yield point stops it.
            let gate = Gate::block(ctx.gen.db(), 0).unwrap();
            let q = ctx.gen.short();
            let running = ctx.submit(&ctx.subject, &q, gate.submit_options());
            gate.wait_admission_blocked(1);
            running.cancel();
            gate.release();
            let stopped = running.wait();
            assert!(matches!(stopped, Err(BwdError::Cancelled)), "{stopped:?}");
        },
    },
    Case {
        name: "deadline inside the admission wait",
        expect: &[Queued, Placed, Cancelled],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            let gate = Gate::block(ctx.gen.db(), 0).unwrap();
            let q = ctx.gen.short();
            let opts = SubmitOptions {
                deadline: Some(Duration::from_millis(250)),
                ..gate.submit_options()
            };
            let expiring = ctx.submit(&ctx.subject, &q, opts);
            gate.wait_admission_blocked(1);
            let err = expiring.wait().unwrap_err();
            assert!(matches!(err, BwdError::DeadlineExceeded { .. }), "{err}");
            gate.release();
        },
    },
    Case {
        name: "OOM -> requeue -> ok",
        expect: &[
            Queued, Placed, Admitted, Running, Requeued, Placed, Admitted, Running, Resolved,
        ],
        faults: FaultPlan::disabled,
        config: |c| c.safety_factor = 1e-6,
        drive: |ctx| {
            let q = ctx.gen.short();
            let got = ctx.submit(&ctx.subject, &q, Default::default()).wait();
            assert_eq!(got.unwrap().rows, ctx.gen.reference(&q).unwrap().rows);
        },
    },
    Case {
        name: "device fault -> retry elsewhere -> ok",
        expect: &[
            Queued, Placed, Admitted, Running, Retried, Placed, Admitted, Running, Resolved,
        ],
        faults: || exec_faults(1, false),
        config: NO_CONFIG,
        drive: |ctx| {
            let q = ctx.gen.short();
            let got = ctx.submit(&ctx.subject, &q, Default::default()).wait();
            // The plan's one fault is spent: the reference runs clean.
            assert_eq!(got.unwrap().rows, ctx.gen.reference(&q).unwrap().rows);
        },
    },
    Case {
        name: "device fault with no retry left",
        expect: &[
            Queued, Placed, Admitted, Running, Retried, Placed, Admitted, Running, Failed,
        ],
        faults: || exec_faults(2, false),
        config: NO_CONFIG,
        drive: |ctx| {
            let q = ctx.gen.short();
            let err = ctx.submit(&ctx.subject, &q, Default::default()).wait();
            assert!(matches!(err, Err(BwdError::DeviceFault(_))), "{err:?}");
        },
    },
    Case {
        name: "pinned to an offline card",
        expect: &[Queued, Failed],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            // Card 0 fails every allocation: three probes fault on it in
            // a row (each failing over to card 1), which takes it offline.
            let dead = FaultPlan::seeded(11)
                .site(FaultSite::DeviceAlloc, FaultSpec::with_ppm(1_000_000))
                .build();
            ctx.gen.db().env().pool.devices()[0]
                .memory()
                .arm_faults(dead);
            for _ in 0..3 {
                let q = ctx.gen.short();
                let got = ctx.submit(&ctx.helper, &q, Default::default()).wait();
                assert_eq!(got.unwrap().rows, ctx.gen.reference(&q).unwrap().rows);
            }
            let q = ctx.gen.short();
            let err = ctx.submit(&ctx.subject, &q, Ctx::pinned(0)).wait();
            assert!(matches!(err, Err(BwdError::DeviceFault(_))), "{err:?}");
        },
    },
    Case {
        name: "pinned, the reservation faults",
        // A pinned job has no other card to retry on.
        expect: &[Queued, Placed, Failed],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            let once = FaultSpec {
                ppm: 1_000_000,
                skip: 0,
                max: 1,
                panic: false,
            };
            let fault = FaultPlan::seeded(3)
                .site(FaultSite::DeviceAlloc, once)
                .build();
            ctx.gen.db().env().pool.devices()[0]
                .memory()
                .arm_faults(fault);
            let q = ctx.gen.short();
            let err = ctx.submit(&ctx.subject, &q, Ctx::pinned(0)).wait();
            assert!(matches!(err, Err(BwdError::DeviceFault(_))), "{err:?}");
        },
    },
    Case {
        name: "injected panic",
        expect: &[Queued, Placed, Admitted, Running, Failed],
        faults: || exec_faults(1, true),
        config: NO_CONFIG,
        drive: |ctx| {
            let q = ctx.gen.short();
            let err = ctx.submit(&ctx.subject, &q, Default::default()).wait();
            let err = err.unwrap_err().to_string();
            assert!(err.contains("panicked"), "{err}");
        },
    },
    Case {
        name: "shutdown with jobs queued",
        expect: &[],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            let (gate, frozen) = ctx.freeze();
            let batch = [ctx.gen.short(), ctx.gen.long()];
            let discarded = batch.map(|q| ctx.submit(&ctx.subject, &q, Default::default()));
            // The drop blocks joining the gated worker, so it runs on
            // another thread; the queued tickets resolve from the drop
            // path before the gate ever releases.
            let sched = ctx.sched.take().unwrap();
            let nothing_counted = sched.metrics_snapshot();
            let dropper = std::thread::spawn(move || sched.shutdown());
            for ticket in discarded {
                let err = ticket.wait().unwrap_err().to_string();
                assert!(err.contains("shut down"), "{err}");
            }
            gate.release();
            // The job in flight still completes, along legal edges; no
            // counter had moved when the queue was discarded.
            let (_, _, trace) = frozen.wait_traced().unwrap();
            check_walk(&walk(&trace).0, "the frozen job");
            dropper.join().unwrap();
            check_counters(&[], &nothing_counted);
        },
    },
];

fn check_walk(walk: &[State], ctx: &str) {
    for pair in walk.windows(2) {
        assert!(
            LEGAL.contains(&(pair[0], pair[1])),
            "{ctx}: illegal edge {:?} -> {:?} in {walk:?}",
            pair[0],
            pair[1]
        );
    }
    assert!(is_terminal(*walk.last().unwrap()), "{ctx}: {walk:?}");
}

/// Each counter equals the number of matching transitions in `traces`.
fn check_counters(traces: &[QueryTrace], metrics: &str) {
    let walks: Vec<(Vec<State>, bool)> = traces.iter().map(walk).collect();
    let states = |s: State| -> u64 {
        (walks.iter())
            .map(|(w, _)| w.iter().filter(|&&x| x == s).count() as u64)
            .sum()
    };
    let edges = |edge: (State, State)| -> u64 {
        (walks.iter())
            .map(|(w, _)| w.windows(2).filter(|p| (p[0], p[1]) == edge).count() as u64)
            .sum()
    };
    let resolved = |classic: bool| -> u64 {
        (walks.iter())
            .filter(|(w, c)| *c == classic && w.last() == Some(&Resolved))
            .count() as u64
    };
    let events = |kind: EventKind| -> u64 {
        (traces.iter())
            .map(|t| t.events.iter().filter(|e| e.kind == kind).count() as u64)
            .sum()
    };
    let per_device = |name: &str| -> u64 {
        (0..2)
            .map(|i| {
                metric(
                    metrics,
                    &format!("bwd_sched_device_{name}{{device=\"{i}\"}}"),
                )
            })
            .sum()
    };
    for (name, want) in [
        ("queries_total{mode=\"classic\"}", resolved(true)),
        ("queries_total{mode=\"approx_refine\"}", resolved(false)),
        ("errors_total", states(Cancelled) + states(Failed)),
        ("cancelled_total", states(Cancelled)),
        ("retries_total", states(Retried)),
        ("device_offline_total", events(EventKind::DeviceDown)),
        ("device_recovered_total", events(EventKind::DeviceUp)),
        ("queue_wait_us_count", walks.len() as u64),
        ("exec_wall_us_count", walks.len() as u64),
    ] {
        assert_eq!(
            metric(metrics, &format!("bwd_sched_{name}")),
            want,
            "{name}"
        );
    }
    assert_eq!(per_device("queries_total"), resolved(false));
    assert_eq!(per_device("requeues_total"), edges((Requeued, Placed)));
    assert_eq!(
        per_device("offline_events_total"),
        events(EventKind::DeviceDown)
    );
}

#[test]
fn every_trace_walks_the_table_and_every_exit_gives_the_card_back() {
    let mut walked = HashSet::new();
    for case in CASES {
        let mut env = Env::with_devices(vec![bwd_device::DeviceSpec::gtx680(); 2]);
        env.fault = (case.faults)();
        let gen = WorkloadGen::with_env(0x11FE, small_spec(), env).unwrap();
        let cards: Vec<_> = (gen.db().env().pool.devices().iter())
            .map(|d| d.memory().clone())
            .collect();
        let baseline: Vec<u64> = cards.iter().map(|m| m.used()).collect();
        let mut config = SchedConfig {
            workers: 1,
            admission_deadline: None,
            tracing: true,
            ..SchedConfig::default()
        };
        (case.config)(&mut config);
        let sched = Scheduler::new(Arc::clone(gen.db()), config);
        let (helper, subject) = (sched.session(), sched.session());
        let mut ctx = Ctx {
            gen,
            sched: Some(sched),
            helper,
            subject,
        };
        (case.drive)(&mut ctx);

        for (i, card) in cards.iter().enumerate() {
            assert_eq!(card.used(), baseline[i], "{}: card {i} leaks", case.name);
            assert_eq!(card.queued(), 0, "{}: card {i} has a waiter", case.name);
        }
        let Some(sched) = ctx.sched else {
            continue; // the row shut the scheduler down (and checked itself)
        };
        let records = sched.drain_traces();
        let mut subject_walk: &[State] = &[];
        let walks: Vec<_> = records.iter().map(|r| walk(&r.trace).0).collect();
        for (record, walk) in records.iter().zip(&walks) {
            trace_check::validate(&record.trace).unwrap();
            check_walk(walk, case.name);
            if record.session == ctx.subject.id() {
                subject_walk = walk;
            }
            walked.extend(walk.windows(2).map(|p| (p[0], p[1])));
        }
        assert_eq!(subject_walk, case.expect, "{}", case.name);
        let traces: Vec<_> = records.into_iter().map(|r| r.trace).collect();
        check_counters(&traces, &sched.metrics_snapshot());
    }
    // Every walked edge is legal (`check_walk`), so this is the union of
    // the walks equalling the table.
    let unwalked: Vec<_> = LEGAL.iter().filter(|e| !walked.contains(e)).collect();
    assert!(unwalked.is_empty(), "no row walks {unwalked:?}");
}
