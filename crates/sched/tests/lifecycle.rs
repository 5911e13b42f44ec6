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
//! No sleeps: workers are frozen behind a [`Gate`], faults come from a
//! seeded [`FaultPlan`], and a cancellation lands through a ticket waker
//! on the worker's own thread.

use bwd_bench::workload::{Gate, QuerySpec, WorkloadGen, WorkloadSpec};
use bwd_device::Env;
use bwd_engine::{ArExecOptions, ExecMode};
use bwd_obs::{EventKind, Phase, QueryTrace};
use bwd_sched::lifecycle::{State, LEGAL};
use bwd_sched::{
    PlanFootprint, PreemptConfig, SchedConfig, Scheduler, Session, SubmitOptions, Ticket,
};
use bwd_types::{BwdError, FaultPlan, FaultSite, FaultSpec};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use State::*;

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
            (EventKind::Queue, Phase::Begin) if e.b == 1 => &[Requeued, Queued],
            (EventKind::Classic, Phase::Begin) => {
                classic = true;
                &[Running]
            }
            (EventKind::Placement, _) if at == Queued => &[Placed],
            (EventKind::Placement, _) => &[Retried, Placed],
            (EventKind::Admission, Phase::Begin) if e.b > 1 => &[Requeued, Placed],
            (EventKind::Admission, Phase::End) if e.d == 0 => &[Admitted, Running],
            (EventKind::Yield, Phase::Begin) => &[Yielded],
            (EventKind::Resume, _) => &[Running],
            (EventKind::Cancel, _) => &[Cancelled],
            (EventKind::Query, Phase::End) if !at.is_terminal() && e.d == 0 => &[Resolved],
            (EventKind::Query, Phase::End) if !at.is_terminal() => &[Failed],
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

    /// Card 0's memory and one probe's default (hinted) reservation.
    fn card0(&self, probe: &QuerySpec) -> (bwd_device::DeviceMemory, u64) {
        let mem = self.gen.db().env().pool.devices()[0].memory().clone();
        let est = PlanFootprint::of(self.gen.db(), &probe.plan, &probe.mode, 1)
            .reservation(SchedConfig::default().safety_factor);
        (mem, est.estimated)
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

/// Forced yields: every queued job is eligible for hosting at every
/// yield point.
fn forced(max_hosted: u32) -> PreemptConfig {
    PreemptConfig {
        enabled: true,
        ratio: f64::INFINITY,
        max_hosted,
    }
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
        expect: &[
            Queued, Placed, Admitted, Running, Yielded, Running, Cancelled,
        ],
        faults: FaultPlan::disabled,
        config: |c| {
            c.aging_threshold = 0;
            c.preempt = forced(64);
        },
        drive: |ctx| {
            // The job under test blocks inside admission; once through,
            // it hosts the queued scan at its first yield point, and the
            // scan's completion — on the worker's own thread, while the
            // host is paused holding its permit — cancels the host, which
            // stops at its next yield point.
            let gate = Gate::block(ctx.gen.db(), 0).unwrap();
            let (host, scan) = (ctx.gen.short(), ctx.gen.long());
            let host = ctx.submit(&ctx.subject, &host, gate.submit_options());
            gate.wait_admission_blocked(1);
            let host = Arc::new(Mutex::new(host));
            let hosted = ctx.submit(&ctx.helper, &scan, Default::default());
            let cancel = Arc::clone(&host);
            hosted.set_waker(move || cancel.lock().unwrap().cancel());
            gate.release();
            hosted.wait().unwrap();
            let stopped = loop {
                if let Some(result) = host.lock().unwrap().poll() {
                    break result;
                }
                std::thread::yield_now();
            };
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
        name: "over a caller-set budget",
        // Not the scheduler's budget to inflate: no requeue, the query's
        // own error.
        expect: &[Queued, Placed, Admitted, Running, Failed],
        faults: FaultPlan::disabled,
        config: NO_CONFIG,
        drive: |ctx| {
            let q = ctx.gen.short();
            let tight = ExecMode::ApproxRefineWith(ArExecOptions {
                device_budget: Some(1),
                ..ArExecOptions::default()
            });
            let err = ctx.subject.submit(q.plan, tight).wait().unwrap_err();
            assert!(matches!(err, BwdError::DeviceOutOfMemory { .. }), "{err}");
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
        name: "hosted would-block -> requeue -> ok",
        expect: &[
            Queued, Placed, Requeued, Queued, Placed, Admitted, Running, Resolved,
        ],
        faults: FaultPlan::disabled,
        config: |c| {
            c.aging_threshold = 0;
            c.preempt = forced(1);
        },
        drive: |ctx| {
            // Card 0 has room for two probes' reservations less one
            // byte: hosted inside the paused first probe, the second
            // one's non-blocking request cannot fit.
            let (host, q) = (ctx.gen.short(), ctx.gen.short());
            let (mem, bytes) = ctx.card0(&q);
            let hold = mem.alloc(mem.available() - (2 * bytes - 1)).unwrap();
            let gate = mem.alloc(2 * bytes - 1).unwrap();
            let host = ctx.submit(&ctx.helper, &host, Ctx::pinned(0));
            while mem.queued() < 1 {
                std::thread::yield_now();
            }
            let hosted = ctx.submit(&ctx.subject, &q, Ctx::pinned(0));
            drop(gate);
            host.wait().unwrap();
            assert_eq!(
                hosted.wait().unwrap().rows,
                ctx.gen.reference(&q).unwrap().rows
            );
            drop(hold);
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
    assert!(walk.last().unwrap().is_terminal(), "{ctx}: {walk:?}");
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
        ("preemptions_total", states(Yielded)),
        ("preempt_requeues_total", edges((Requeued, Queued))),
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
    for case in CASES {
        let mut env = Env::multi_gpu(2);
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
            record.trace.validate().unwrap();
            check_walk(walk, case.name);
            if record.session == ctx.subject.id() {
                subject_walk = walk;
            }
        }
        assert_eq!(subject_walk, case.expect, "{}", case.name);
        let traces: Vec<_> = records.into_iter().map(|r| r.trace).collect();
        check_counters(&traces, &sched.metrics_snapshot());
    }
}
