//! Fault domains, end to end and deterministically (PR 10).
//!
//! Five pillars:
//!
//! * **Seeded chaos soak** — a [`FaultPlan`] armed on one card of a
//!   two-card pool injects a burst of allocation faults: the card goes
//!   offline after `offline_after` consecutive faults, queued work drains
//!   onto the healthy card via bounded retries, recovery probes bring the
//!   card back, and *every* query still completes bit-identically to the
//!   fault-free serial reference. The same seed reproduces the same
//!   offline/retry/recovery transcript.
//! * **Forced failover** — one card permanently dead mid-workload: the
//!   batch completes entirely on the survivor with zero lost tickets; a
//!   job that ran over its hinted budget before its card faulted asks
//!   the next card for the worst case straight away.
//! * **Cancellation and deadlines** — a running query cancelled through
//!   its [`Ticket`] stops at the next morsel-boundary yield point and
//!   releases its device reservation; a zero-budget deadline resolves as
//!   a typed error without ever executing, and one past the clock's range
//!   never expires.
//!   Both are also observed *inside* the query tail, between two 32 k-row
//!   slices of the group/aggregate stage, and so is an injected exec
//!   fault; a hook that lets the query through is polled once per slice
//!   and changes nothing.
//! * **Panic isolation** — an injected executor panic becomes a per-query
//!   error with balanced device accounting; the scheduler keeps serving.
//! * **Net-level disconnect** — a peer whose transport dies mid-flight
//!   gets its pending tickets cancelled by the reactor close path, and an
//!   idle-timeout reaper (driven by a mock clock) retires quiet
//!   connections without touching busy ones.
//!
//! No sleeps: every wait is on *state*, with a wall-clock bail-out only
//! to turn a deadlock into a loud failure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bwd_bench::workload::{WorkloadGen, WorkloadSpec};
use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate};
use waste_not::device::YieldPoint;
use waste_not::engine::Database;
use waste_not::net::{
    duplex, FaultyTransport, Frame, FrameDecoder, IoEvent, NetConfig, NetServer, Transport,
    WireMode,
};
use waste_not::obs::Clock;
use waste_not::sched::{PlanFootprint, SchedConfig, Scheduler, SubmitOptions};
use waste_not::storage::Column;
use waste_not::{BwdError, Env, ExecMode, FaultPlan, FaultSite, FaultSpec, QueryResult, Value};

#[path = "support/gate.rs"]
mod gate;
use gate::Gate;

#[path = "support/trace_check.rs"]
mod trace_check;

const DEADLINE: Duration = Duration::from_secs(120);

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        long_rows: 2_000,
        short_rows: 800,
        domain: 400,
        groups: 4,
        ..WorkloadSpec::default()
    }
}

/// Bitwise comparison against the serial reference — stricter than
/// `PartialEq` for the simulated `f64` costs.
fn assert_bit_identical(got: &QueryResult, want: &QueryResult, ctx: &str) {
    assert_eq!(got.rows, want.rows, "{ctx}: rows");
    assert_eq!(got.survivors, want.survivors, "{ctx}: survivors");
    assert_eq!(got.traffic, want.traffic, "{ctx}: traffic bytes");
    for (g, w, label) in [
        (got.breakdown.device, want.breakdown.device, "device"),
        (got.breakdown.host, want.breakdown.host, "host"),
        (got.breakdown.pcie, want.breakdown.pcie, "pcie"),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {label} cost bits");
    }
}

/// Pull one named counter/gauge value out of a Prometheus-style dump.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

/// The chaos transcript one seeded soak run produces: health events,
/// retry counts, per-device completion tallies and the fault plan's own
/// draw/injection totals. Same seed ⇒ same transcript.
#[derive(Debug, PartialEq, Eq)]
struct SoakTranscript {
    offline_events: Vec<u64>,
    offline_at_end: Vec<bool>,
    retries: u64,
    device_offline: u64,
    device_recovered: u64,
    per_device_queries: Vec<u64>,
    alloc_draws: u64,
    alloc_injected: u64,
}

/// One full seeded chaos run on a two-card pool: 4 clean allocations,
/// then 3 injected faults (card 0 goes offline), then clean forever (the
/// recovery probe succeeds). Single worker ⇒ a deterministic draw
/// sequence.
fn run_soak(seed: u64) -> SoakTranscript {
    let mut gen = WorkloadGen::with_env(
        seed,
        small_spec(),
        Env::with_devices(vec![waste_not::device::DeviceSpec::gtx680(); 2]),
    )
    .unwrap();
    let batch = gen.mixed(24, 0);
    // References on the same (still fault-free) database, before arming.
    let refs: Vec<QueryResult> = batch.iter().map(|q| gen.reference(q).unwrap()).collect();

    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
    );
    let plan = FaultPlan::seeded(seed)
        .site(
            FaultSite::DeviceAlloc,
            FaultSpec {
                ppm: 1_000_000,
                skip: 4,
                max: 3,
                panic: false,
            },
        )
        .build();
    gen.db().env().pool.devices()[0]
        .memory()
        .arm_faults(plan.clone());

    let session = sched.session();
    let tickets: Vec<_> = batch
        .iter()
        .map(|q| session.submit(q.plan.clone(), q.mode.clone()))
        .collect();
    // Zero lost tickets: every single one resolves, and with a result
    // bit-identical to the fault-free serial reference.
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().unwrap_or_else(|e| panic!("query {i} lost to {e}"));
        assert_bit_identical(&got, &refs[i], &format!("soak query {i}"));
    }

    let stats = sched.stats();
    let m = sched.metrics_snapshot();
    SoakTranscript {
        offline_events: stats.devices.iter().map(|d| d.offline_events).collect(),
        offline_at_end: stats.devices.iter().map(|d| d.offline).collect(),
        retries: metric(&m, "bwd_sched_retries_total"),
        device_offline: metric(&m, "bwd_sched_device_offline_total"),
        device_recovered: metric(&m, "bwd_sched_device_recovered_total"),
        per_device_queries: stats.devices.iter().map(|d| d.queries).collect(),
        alloc_draws: plan.draws(FaultSite::DeviceAlloc),
        alloc_injected: plan.injected(FaultSite::DeviceAlloc),
    }
}

/// Seeded chaos: offline → drain → failover → recovery, bit-identical
/// results throughout, and the whole event transcript reproducible from
/// the seed.
#[test]
fn seeded_fault_soak_fails_over_recovers_and_reproduces() {
    let first = run_soak(0xFA417);

    // The injected burst: exactly 3 faults landed, 3 bounded retries
    // rescued those queries, card 0 went offline exactly once and a
    // probe brought it back.
    assert_eq!(first.alloc_injected, 3, "{first:?}");
    assert_eq!(first.retries, 3, "{first:?}");
    assert_eq!(first.offline_events, vec![1, 0], "{first:?}");
    assert_eq!(first.device_offline, 1, "{first:?}");
    assert_eq!(first.device_recovered, 1, "{first:?}");
    assert_eq!(first.offline_at_end, vec![false, false], "{first:?}");
    // Every query completed exactly once, across the two cards.
    assert_eq!(
        first.per_device_queries.iter().sum::<u64>(),
        24,
        "{first:?}"
    );
    assert!(
        first.per_device_queries.iter().all(|&q| q > 0),
        "failover must actually use both cards: {first:?}"
    );

    // Determinism: the same seed replays the same chaos, event for event.
    let second = run_soak(0xFA417);
    assert_eq!(
        first, second,
        "same seed must reproduce the same transcript"
    );
}

/// One of two cards permanently dead mid-workload: the batch completes on
/// the survivor, bit-identically, with zero lost tickets.
#[test]
fn dead_card_drains_batch_onto_survivor() {
    let mut gen = WorkloadGen::with_env(
        11,
        small_spec(),
        Env::with_devices(vec![waste_not::device::DeviceSpec::gtx680(); 2]),
    )
    .unwrap();
    let batch = gen.mixed(16, 0);
    let refs: Vec<QueryResult> = batch.iter().map(|q| gen.reference(q).unwrap()).collect();

    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 2,
            ..SchedConfig::default()
        },
    );
    // Card 0 fails every allocation, forever — probes included, so it
    // never recovers.
    gen.db().env().pool.devices()[0].memory().arm_faults(
        FaultPlan::seeded(11)
            .site(FaultSite::DeviceAlloc, FaultSpec::with_ppm(1_000_000))
            .build(),
    );

    let session = sched.session();
    let tickets: Vec<_> = batch
        .iter()
        .map(|q| session.submit(q.plan.clone(), q.mode.clone()))
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().unwrap_or_else(|e| panic!("query {i} lost to {e}"));
        assert_bit_identical(&got, &refs[i], &format!("failover query {i}"));
    }

    let stats = sched.stats();
    assert!(stats.devices[0].offline, "dead card must be offline");
    assert_eq!(stats.devices[0].offline_events, 1);
    assert_eq!(
        stats.devices[0].queries, 0,
        "no query ever completed on the dead card"
    );
    assert_eq!(
        stats.devices[1].queries, 16,
        "the survivor served the whole batch"
    );
    assert_eq!(stats.errors, 0, "failover must be invisible to sessions");
    let m = sched.metrics_snapshot();
    assert!(metric(&m, "bwd_sched_retries_total") >= 3);
}

/// A hint proven wrong stays wrong across a failover. With a safety
/// factor of 1e-6 a probe's hinted reservation is the kernel scratch plus
/// one candidate pair, so on card 0 it runs over its budget and asks
/// again at the worst case; that second reservation faults, and on card
/// 1 the job asks for the worst case on its first attempt instead of
/// re-running at the budget it already blew.
#[test]
fn an_over_budget_job_asks_the_next_card_for_the_worst_case() {
    let spec = WorkloadSpec {
        short_rows: 4_000,
        domain: 4_000,
        ..small_spec()
    };
    let mut gen = WorkloadGen::with_env(
        0x0B5E,
        spec,
        Env::with_devices(vec![waste_not::device::DeviceSpec::gtx680(); 2]),
    )
    .unwrap();
    let probe = gen.short();
    let safety_factor = 1e-6;
    let est = PlanFootprint::of(gen.db(), &probe.plan, &probe.mode, 1).reservation(safety_factor);
    assert!(est.estimated < est.worst_case);
    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            safety_factor,
            tracing: true,
            ..SchedConfig::default()
        },
    );
    // Card 0's first reservation (the hint) goes through, its second (the
    // worst case) faults.
    let second = FaultSpec {
        ppm: 1_000_000,
        skip: 1,
        max: 1,
        panic: false,
    };
    gen.db().env().pool.devices()[0].memory().arm_faults(
        FaultPlan::seeded(9)
            .site(FaultSite::DeviceAlloc, second)
            .build(),
    );

    let ticket = sched
        .session()
        .submit(probe.plan.clone(), probe.mode.clone());
    let (got, _, trace) = ticket.wait_traced().unwrap();
    assert_bit_identical(&got, &gen.reference(&probe).unwrap(), "failed over");

    // Placements `(device, bytes)` and admission attempts `(bytes,
    // attempt)`, in order.
    trace_check::validate(&trace).unwrap();
    let steps: Vec<(&str, u64, u64)> = (trace.events.iter())
        .filter_map(|e| match (e.kind, e.phase) {
            (waste_not::obs::EventKind::Placement, _) => Some(("placed", e.a, e.b)),
            (waste_not::obs::EventKind::Admission, waste_not::obs::Phase::Begin) => {
                Some(("asked", e.a, e.b))
            }
            _ => None,
        })
        .collect();
    let (hint, worst) = (est.estimated, est.worst_case);
    assert_eq!(
        steps,
        [
            ("placed", 0, hint),
            ("asked", hint, 1),
            ("asked", worst, 2),
            ("placed", 1, worst),
            ("asked", worst, 1),
        ]
    );
    let stats = sched.stats();
    assert_eq!(stats.admission_requeues, 1, "one run over budget, ever");
    assert_eq!(stats.devices[1].queries, 1);
    assert_eq!(
        metric(&sched.metrics_snapshot(), "bwd_sched_retries_total"),
        1
    );
}

/// A database with one big table and a prepared filtered-sum plan —
/// large enough that an A&R execution spans many yield-point intervals.
/// (A sum, not a count: a bare count reads no position, and its tail
/// finishes before a spinning observer is sure to catch it mid-flight.)
fn big_db(rows: i32) -> (Arc<Database>, waste_not::core::plan::ArPlan) {
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![(
            "a".into(),
            Column::from_i32((0..rows).map(|i| i % 10_000).collect()),
        )],
    )
    .unwrap();
    let plan = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(100),
            hi: Value::Int(7_999),
        })
        .aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(waste_not::core::plan::ScalarExpr::col("a")),
                alias: "s".into(),
            }],
        );
    let ar = db.bind(&plan, &Default::default()).unwrap();
    db.auto_bind(&ar).unwrap();
    (Arc::new(db), ar)
}

/// Cancelling a *running* query stops it at the next yield point and
/// releases its device reservation (acceptance: within one yield-point
/// interval — verified by the memory ledger returning to baseline the
/// moment the typed error resolves).
#[test]
fn cancel_stops_running_query_and_releases_reservation() {
    let (db, ar) = big_db(4_000_000);
    let mem = db.env().pool.devices()[0].memory().clone();
    let baseline = mem.used(); // resident approximations stay put
    let sched = Scheduler::new(
        Arc::clone(&db),
        SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let ticket = session.submit(ar, ExecMode::ApproxRefine);

    // Wait (on state, not time) until the job holds device memory beyond
    // the resident baseline — it is now provably mid-flight.
    let bail = Instant::now() + DEADLINE;
    while mem.used() <= baseline {
        assert!(Instant::now() < bail, "query never reserved device memory");
        std::thread::yield_now();
    }
    ticket.cancel();
    let err = ticket.wait().unwrap_err();
    assert!(matches!(err, BwdError::Cancelled), "got {err}");
    assert_eq!(
        mem.used(),
        baseline,
        "cancelled query must release its device reservation"
    );
    let m = sched.metrics_snapshot();
    assert_eq!(metric(&m, "bwd_sched_cancelled_total"), 1);
}

/// A selection-free grouped sum over six 32 k-row tail slices: its tail
/// *is* the query.
fn six_slice_table() -> (Database, waste_not::core::plan::ArPlan) {
    let rows = (5 * waste_not::engine::tail::SLICE_ROWS + 17) as i32;
    let mut db = Database::new();
    let g = Column::from_i32((0..rows).map(|i| i % 7).collect());
    let v = Column::from_i32((0..rows).map(|i| i * 13 % 1000).collect());
    db.create_table("t", vec![("g".into(), g), ("v".into(), v)])
        .unwrap();
    let sum = AggExpr {
        func: AggFunc::Sum,
        arg: Some(waste_not::core::plan::ScalarExpr::col("v")),
        alias: "s".into(),
    };
    let plan = LogicalPlan::scan("t").aggregate(vec!["g".into()], vec![sum]);
    let plan = db.bind(&plan, &Default::default()).unwrap();
    db.auto_bind(&plan).unwrap();
    (db, plan)
}

/// The query tail polls cancellation and the fault plan between slices:
/// a selection-free grouped aggregate — whose tail *is* the query — stops
/// with the typed error right at the slice boundary where the cancel (or
/// the injected card fault) lands, in both pipes, and a run the chaos
/// leaves alone is bit-identical to a plain one.
#[test]
fn cancel_and_exec_fault_stop_a_query_between_tail_slices() {
    let (db, plan) = six_slice_table();
    // `polls` / `draws`: yield-point polls / exec fault draws before the
    // first slice (A&R: the gather boundary, then entering the tail).
    for (mode, polls, draws) in [(ExecMode::Classic, 1, 0), (ExecMode::ApproxRefine, 2, 2)] {
        let plain = db.run_bound(&plan, mode.clone()).unwrap();

        // Cancel lands while the third slice is in flight.
        let seen = Arc::new(AtomicUsize::new(0));
        let mut env = db.env().clone();
        env.yield_point = YieldPoint::new(Arc::new({
            let seen = Arc::clone(&seen);
            move || match seen.fetch_add(1, Ordering::Relaxed) {
                k if k == polls + 2 => Err(BwdError::Cancelled),
                _ => Ok(()),
            }
        }));
        let err = db
            .run_bound_in(&plan, mode.clone(), &env, 1, None)
            .unwrap_err();
        assert!(matches!(err, BwdError::Cancelled), "{mode:?}: got {err}");
        assert_eq!(
            seen.load(Ordering::Relaxed),
            polls + 3,
            "{mode:?}: the cancel is seen after the third slice and nothing runs past it"
        );

        // The card dies at the same boundary.
        let spec = FaultSpec {
            ppm: 1_000_000,
            skip: draws + 2,
            max: 1,
            panic: false,
        };
        let mut env = db.env().clone();
        env.fault = FaultPlan::seeded(7).site(FaultSite::Exec, spec).build();
        let err = db
            .run_bound_in(&plan, mode.clone(), &env, 1, None)
            .unwrap_err();
        assert!(matches!(err, BwdError::DeviceFault(_)), "{mode:?}: {err}");
        assert_eq!(env.fault.draws(FaultSite::Exec), draws + 3, "{mode:?}");
        assert_eq!(env.fault.injected(FaultSite::Exec), 1);
        // Its one fault spent, the same plan lets the query through.
        let after = db.run_bound_in(&plan, mode.clone(), &env, 1, None).unwrap();
        assert_bit_identical(&after, &plain, &format!("{mode:?} after the fault"));
    }
}

/// A hook that lets the query through is polled once per tail slice,
/// after the polls ahead of the tail (`lead`: classic enters the tail;
/// A&R passes the gather boundary, then enters it), and changes nothing:
/// rows, survivors, simulated costs and traffic are the plain run's.
#[test]
fn the_tail_polls_once_per_slice_and_an_ok_hook_changes_nothing() {
    let (db, plan) = six_slice_table();
    for (mode, lead) in [(ExecMode::Classic, 1), (ExecMode::ApproxRefine, 2)] {
        let plain = db.run_bound(&plan, mode.clone()).unwrap();
        let polls = Arc::new(AtomicUsize::new(0));
        let mut env = db.env().clone();
        env.yield_point = YieldPoint::new(Arc::new({
            let polls = Arc::clone(&polls);
            move || {
                polls.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }));
        let got = db.run_bound_in(&plan, mode.clone(), &env, 1, None).unwrap();
        assert_eq!(
            polls.load(Ordering::Relaxed),
            lead + 6,
            "{mode:?}: one poll per slice"
        );
        assert_bit_identical(&got, &plain, &format!("{mode:?} polled"));
    }
}

/// A zero-budget deadline resolves as the typed error straight out of
/// the queue: the query never executes and never reserves anything.
#[test]
fn expired_deadline_resolves_typed_error_without_running() {
    let (db, ar) = big_db(100_000);
    let mem = db.env().pool.devices()[0].memory().clone();
    let baseline = mem.used();
    let sched = Scheduler::new(
        Arc::clone(&db),
        SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let err = session
        .submit_with(
            ar,
            ExecMode::ApproxRefine,
            SubmitOptions {
                deadline: Some(Duration::ZERO),
                ..SubmitOptions::default()
            },
        )
        .wait()
        .unwrap_err();
    assert!(
        matches!(err, BwdError::DeadlineExceeded { deadline_ms: 0 }),
        "got {err}"
    );
    assert_eq!(mem.used(), baseline);
    let stats = sched.stats();
    assert_eq!(stats.devices[0].queries, 0, "the query must never run");
    let m = sched.metrics_snapshot();
    assert_eq!(metric(&m, "bwd_sched_cancelled_total"), 1);
}

/// A deadline too far away for an `Instant` to represent never expires:
/// the submission neither panics nor times out, and the rows are the
/// unbounded run's.
#[test]
fn a_deadline_past_the_clock_never_expires() {
    let (db, ar) = big_db(100_000);
    let want = db.run_bound(&ar, ExecMode::ApproxRefine).unwrap();
    let sched = Scheduler::new(
        Arc::clone(&db),
        SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
    );
    let forever = SubmitOptions {
        deadline: Some(Duration::MAX),
        ..SubmitOptions::default()
    };
    let got = (sched.session())
        .submit_with(ar, ExecMode::ApproxRefine, forever)
        .wait()
        .unwrap();
    assert_bit_identical(&got, &want, "a Duration::MAX deadline");
}

/// An injected executor panic becomes a per-query error; the admission
/// permit and every device buffer release on the unwind (balanced
/// accounting), and the scheduler keeps serving bit-identical results.
#[test]
fn injected_panic_keeps_device_accounting_balanced() {
    let mut env = Env::paper_default();
    env.fault = FaultPlan::seeded(5)
        .site(
            FaultSite::Exec,
            FaultSpec {
                ppm: 1_000_000,
                skip: 0,
                max: 1,
                panic: true,
            },
        )
        .build();
    let mut db = Database::with_env(env);
    db.create_table(
        "t",
        vec![(
            "a".into(),
            Column::from_i32((0..100_000).map(|i| i % 1_000).collect()),
        )],
    )
    .unwrap();
    let plan = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(10),
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
    let db = Arc::new(db);
    let mem = db.env().pool.devices()[0].memory().clone();
    let baseline = mem.used();

    let sched = Scheduler::new(
        Arc::clone(&db),
        SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    // The armed plan's single panic fires inside this execution.
    let err = session
        .submit(ar.clone(), ExecMode::ApproxRefine)
        .wait()
        .unwrap_err();
    assert!(
        matches!(&err, BwdError::Exec(m) if m.contains("panicked")),
        "got {err}"
    );
    assert_eq!(
        mem.used(),
        baseline,
        "panic must release the permit and every buffer"
    );

    // The plan's budget (`max: 1`) is spent: reference and re-run are
    // clean, and the worker that caught the panic still serves.
    let want = db.run_bound(&ar, ExecMode::ApproxRefine).unwrap();
    let got = session.query(&ar, ExecMode::ApproxRefine).unwrap();
    assert_bit_identical(&got, &want, "post-panic query");
    let stats = sched.stats();
    assert_eq!(stats.errors, 1, "exactly the panicked query errored");
    assert_eq!(mem.used(), baseline);
}

/// A peer whose transport dies with queries in flight: the reactor's
/// close path cancels every stranded ticket, the cancelled jobs resolve
/// as typed errors without reserving device memory, and the ledger ends
/// balanced.
#[test]
fn dead_peer_cancels_inflight_tickets_and_frees_reservations() {
    let mut gen = WorkloadGen::new(13, small_spec()).unwrap();
    let mem = gen.db().env().pool.devices()[0].memory().clone();
    let baseline = mem.used();
    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            ..SchedConfig::default()
        },
    );
    let mut server = NetServer::with_config(
        sched,
        NetConfig {
            duplex_capacity: 1 << 20,
            ..NetConfig::default()
        },
    );

    // Freeze the single worker inside admission so the connection's
    // queries provably sit queued when the transport dies.
    let gate = Gate::block(gen.db().as_ref(), 0).unwrap();
    let session = server.scheduler().session();
    let gate_spec = gen.short();
    let gate_ticket = session.submit_with(gate_spec.plan, gate_spec.mode, gate.submit_options());
    gate.wait_admission_blocked(1);

    // A connection whose transport survives exactly one read: the first
    // read delivers all three requests, the second injects a reset.
    let specs = gen.mixed(3, 0);
    let frames: Vec<Frame> = specs
        .iter()
        .map(|q| Frame::RunPlan {
            mode: WireMode::ApproxRefine,
            plan: server.register_plan(q.plan.clone()),
        })
        .collect();
    let (server_end, mut client_end) = duplex(1 << 20);
    let reset_after_one_read = FaultPlan::seeded(17)
        .site(
            FaultSite::TransportRead,
            FaultSpec {
                ppm: 1_000_000,
                skip: 1,
                max: u64::MAX,
                panic: false,
            },
        )
        .build();
    server.add_transport(Box::new(FaultyTransport::new(
        server_end,
        reset_after_one_read,
    )));
    let mut buf = Vec::new();
    for f in &frames {
        f.encode_into(&mut buf);
    }
    let mut pos = 0;
    while pos < buf.len() {
        match client_end.try_write(&buf[pos..]).unwrap() {
            IoEvent::Bytes(n) => pos += n,
            other => panic!("request pipe refused bytes: {other:?}"),
        }
    }

    // Pass 1 reads + submits all three; pass 2 hits the injected reset,
    // declares the transport dead and cancels the stranded tickets.
    server.pump();
    assert_eq!(server.open_connections(), 0, "dead conn must be retired");
    let nm = server.metrics_text();
    assert_eq!(metric(&nm, "bwd_net_tickets_cancelled_total"), 3, "{nm}");
    assert_eq!(metric(&nm, "bwd_net_queries_total"), 3, "{nm}");

    // Unfreeze: the gate query completes; the three cancelled jobs
    // resolve as typed errors straight out of the queue.
    gate.release();
    gate_ticket.wait().unwrap();
    let bail = Instant::now() + DEADLINE;
    loop {
        let sm = server.scheduler().metrics_snapshot();
        if metric(&sm, "bwd_sched_cancelled_total") == 3 {
            break;
        }
        assert!(Instant::now() < bail, "cancelled jobs never drained:\n{sm}");
        std::thread::yield_now();
    }
    assert_eq!(
        mem.used(),
        baseline,
        "no cancelled job may leave a reservation behind"
    );
    server.into_scheduler().shutdown();
}

/// The idle reaper (mock clock): a connection that completed its round
/// trip and went quiet is reaped after the timeout; a connection with
/// half a frame buffered is not.
#[test]
fn idle_reaper_retires_quiet_connections_only() {
    let gen = WorkloadGen::new(19, small_spec()).unwrap();
    let sched = Scheduler::new(Arc::clone(gen.db()), SchedConfig::default());
    let (clock, mock) = Clock::mock();
    let mut server = NetServer::with_config(
        sched,
        NetConfig {
            idle_timeout: Some(Duration::from_secs(5)),
            clock,
            ..NetConfig::default()
        },
    );

    // Conn A: one ping round trip, then silence.
    let mut quiet = server.connect();
    let ping = Frame::Ping.encode();
    assert!(matches!(
        quiet.try_write(&ping).unwrap(),
        IoEvent::Bytes(n) if n == ping.len()
    ));
    // Conn B: half a frame — never idle, never reaped.
    let mut busy = server.connect();
    assert!(matches!(
        busy.try_write(&[0x01, 0x02]).unwrap(),
        IoEvent::Bytes(2)
    ));
    server.pump();
    assert_eq!(server.open_connections(), 2);

    // Under the timeout: nobody is reaped.
    mock.advance_ns(4_000_000_000);
    server.poll();
    assert_eq!(
        server.open_connections(),
        2,
        "4s idle is under the 5s limit"
    );

    // Past it: the quiet connection goes, the mid-frame one stays.
    mock.advance_ns(2_000_000_000);
    server.poll();
    assert_eq!(server.open_connections(), 1, "only the idle conn is reaped");
    let nm = server.metrics_text();
    assert_eq!(metric(&nm, "bwd_net_reaped_idle_total"), 1, "{nm}");

    // The reaped client observes a normal close: pong, then EOF.
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    loop {
        match quiet.try_read(&mut chunk).unwrap() {
            IoEvent::Bytes(n) => decoder.feed(&chunk[..n]),
            IoEvent::WouldBlock => break,
            IoEvent::Eof => {
                eof = true;
                break;
            }
        }
    }
    assert_eq!(decoder.next().unwrap(), Some(Frame::Pong));
    assert!(eof, "reaped connection must close cleanly");

    drop(busy);
    server.into_scheduler().shutdown();
}
