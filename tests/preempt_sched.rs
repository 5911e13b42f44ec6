//! Morsel-boundary preemption, end to end and deterministically.
//!
//! The tentpole invariant: yield points never change results or charges.
//! A preempting scheduler may interleave executions (a long job pauses at
//! a partition boundary, hosts queued short work inline, resumes), but
//! every query's rows, survivor count, simulated cost breakdown and
//! traffic bytes must be **bit-identical** with preemption on or off —
//! preemption buys latency, never answers. The sweep below pins that
//! in both queue orders (the default, and arrival order with
//! `aging_threshold: 0`) × [`CandidateRep`] × morsel count.
//!
//! Determinism follows the `priority_sched` playbook: a one-worker
//! scheduler frozen behind a [`Gate`] while the batch stacks up, forced
//! yields via `ratio: f64::INFINITY`, and ordering assertions on
//! [`JobReport::completion_index`] — no sleeps, no wall-clock.

use std::sync::Arc;

use bwd_bench::workload::{Gate, JobKind, WorkloadGen, WorkloadSpec};
use waste_not::engine::CandidateRep;
use waste_not::sched::{PlanFootprint, PreemptConfig, SchedConfig, Scheduler, SubmitOptions};
use waste_not::{ArExecOptions, ExecMode, QueryResult};

/// The two queue orders, as aging thresholds: the default, and arrival
/// order.
const ORDERS: [u32; 2] = [32, 0];
const REPS: [CandidateRep; 3] = [
    CandidateRep::Auto,
    CandidateRep::Indices,
    CandidateRep::Bitmap,
];
const MORSELS: [usize; 3] = [1, 2, 8];

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        long_rows: 30_000,
        short_rows: 4_000,
        domain: 4_000,
        ..WorkloadSpec::default()
    }
}

/// Forced-yield preemption knobs: every queued job is eligible for
/// hosting at every yield point, so any poll with a non-empty queue
/// preempts — maximum interleaving, worst case for the identity claim.
fn forced(enabled: bool) -> PreemptConfig {
    PreemptConfig {
        enabled,
        ratio: f64::INFINITY,
        max_hosted: 64,
    }
}

/// Read one counter back out of the Prometheus text snapshot.
fn metric(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} missing from snapshot:\n{snapshot}"))
}

/// What one batch run leaves behind: every query's full result (gate job
/// first, then batch order), each batch job's kind and completion index,
/// and the preemption count the run performed.
struct BatchRun {
    results: Vec<QueryResult>,
    completed: Vec<(JobKind, u64)>,
    preemptions: u64,
}

/// Run the seeded batch on a one-worker scheduler under one
/// order/representation/morsel/preemption configuration.
fn run_batch(
    aging_threshold: u32,
    rep: CandidateRep,
    morsels: usize,
    preempt: PreemptConfig,
) -> BatchRun {
    let mut gen = WorkloadGen::new(0xF1E1D, spec()).unwrap();
    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            aging_threshold,
            preempt,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let gate = Gate::block(gen.db(), 0).unwrap();
    let gate_job = gen.short();
    let gate_ticket = session.submit_with(gate_job.plan, gate_job.mode, gate.submit_options());
    gate.wait_admission_blocked(1);

    // The batch stacks up behind the frozen worker; shorts carry the
    // candidate representation under test, everything pins the morsel
    // count (bit-identity across all of it is the established engine
    // invariant this test extends to preemption).
    let batch = gen.mixed(5, 2);
    let tickets: Vec<_> = batch
        .iter()
        .map(|q| {
            let mode = match q.kind {
                JobKind::Short => ExecMode::ApproxRefineWith(ArExecOptions {
                    candidates: rep,
                    morsels,
                    ..ArExecOptions::default()
                }),
                JobKind::Long => q.mode.clone(),
            };
            let opts = SubmitOptions {
                morsels: Some(morsels),
                ..q.submit_options(1)
            };
            session.submit_with(q.plan.clone(), mode, opts)
        })
        .collect();
    gate.release();

    let mut results = vec![gate_ticket.wait().unwrap()];
    let mut completed = Vec::new();
    for (q, t) in batch.iter().zip(tickets) {
        let (result, report) = t.wait_report().unwrap();
        results.push(result);
        completed.push((q.kind, report.completion_index));
    }
    let preemptions = metric(&sched.metrics_snapshot(), "bwd_sched_preemptions_total");
    let stats = sched.stats();
    assert_eq!(
        stats.errors, 0,
        "aging {aging_threshold}/{rep:?}/m{morsels}"
    );
    assert!(stats.device_peak_bytes <= stats.device_capacity_bytes);
    BatchRun {
        results,
        completed,
        preemptions,
    }
}

fn assert_bit_identical(off: &[QueryResult], on: &[QueryResult], tag: &str) {
    assert_eq!(off.len(), on.len());
    for (i, (a, b)) in off.iter().zip(on).enumerate() {
        assert_eq!(a.rows, b.rows, "{tag} query {i}: rows");
        assert_eq!(a.survivors, b.survivors, "{tag} query {i}: survivors");
        assert_eq!(a.breakdown, b.breakdown, "{tag} query {i}: simulated cost");
        assert_eq!(a.traffic, b.traffic, "{tag} query {i}: traffic bytes");
    }
}

#[test]
fn results_and_charges_are_bit_identical_with_preemption_on_and_off() {
    for aging_threshold in ORDERS {
        for rep in REPS {
            for morsels in MORSELS {
                let tag = format!("aging {aging_threshold}/{rep:?}/morsels={morsels}");
                let off = run_batch(aging_threshold, rep, morsels, forced(false));
                let on = run_batch(aging_threshold, rep, morsels, forced(true));
                assert_eq!(
                    off.preemptions, 0,
                    "{tag}: disabled scheduler must never preempt"
                );
                assert!(
                    on.preemptions > 0,
                    "{tag}: forced yields with a stacked queue must preempt"
                );
                assert_bit_identical(&off.results, &on.results, &tag);
            }
        }
    }

    // The shipped knobs, merely enabled: in arrival order the long scan at
    // the head (`mixed` puts one first) hosts the shorts queued behind it
    // — the default `ratio` admits them — so every short queued ahead of
    // the second long completes before the head does, and nothing else
    // moves. Hosting offers the queue's head only, so it stops at the
    // second long; the shorts behind that one wait for it to start.
    let tag = "arrival order/default preemption";
    let off = run_batch(0, CandidateRep::Auto, 1, forced(false));
    let on = run_batch(
        0,
        CandidateRep::Auto,
        1,
        PreemptConfig {
            enabled: true,
            ..PreemptConfig::default()
        },
    );
    assert!(on.preemptions > 0, "{tag}: {:?}", on.completed);
    let (head_kind, head_done) = on.completed[0];
    assert_eq!(head_kind, JobKind::Long);
    let second_long = (on.completed.iter().skip(1))
        .position(|&(kind, _)| kind == JobKind::Long)
        .map_or(on.completed.len(), |i| i + 1);
    assert!(
        on.completed[..second_long]
            .iter()
            .all(|&(kind, done)| kind == JobKind::Long || done < head_done),
        "{tag}: a short waited for the long at the head: {:?}",
        on.completed
    );
    assert_bit_identical(&off.results, &on.results, tag);
}

#[test]
fn nested_admission_never_blocks_it_requeues_with_seq_and_bypass_preserved() {
    // Deterministic would-block: a held device allocation leaves exactly
    // 2·S − 1 bytes free, where S is one short probe's admission
    // reservation. The first short (s1) admits and holds S, so when the
    // long scan it hosts tries to host the second, identical short (s2)
    // one level deeper, s2's non-blocking reservation of S finds only
    // S − 1 bytes — it must re-queue, never freeze the paused stack.
    let mut gen = WorkloadGen::new(0xB10C, spec()).unwrap();
    let short = gen.short();
    let long = gen.long();
    let s_bytes = PlanFootprint::of(gen.db(), &short.plan, &short.mode, 1)
        .reservation(SchedConfig::default().safety_factor)
        .estimated;

    // Build the scheduler *before* carving up the card: its admission
    // controller snapshots resident bytes at construction and clamps
    // every request to what was free then — allocating first would clamp
    // the probes' reservations to zero and nothing would ever block.
    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            aging_threshold: 0,
            preempt: forced(true),
            ..SchedConfig::default()
        },
    );
    let mem = gen.db().env().pool.devices()[0].memory().clone();
    let hold = mem.alloc(mem.available() - (2 * s_bytes - 1)).unwrap();
    let gate = mem.alloc(2 * s_bytes - 1).unwrap(); // now zero bytes free
    let session = sched.session();
    // Everything pins to device 0 — on a multi-card pool the placement
    // policy would otherwise route around the full device and nothing
    // would ever block.
    let pinned = SubmitOptions {
        device: Some(0),
        ..SubmitOptions::default()
    };
    // s1 blocks inside depth-0 admission (blocking is allowed there),
    // provably freezing the worker while the rest of the batch queues.
    let t1 = session.submit_with(short.plan.clone(), short.mode.clone(), pinned);
    while mem.queued() < 1 {
        std::thread::yield_now();
    }
    let t_long = session.submit_with(long.plan.clone(), long.mode.clone(), pinned);
    let t2 = session.submit_with(short.plan.clone(), short.mode.clone(), pinned);
    drop(gate); // 2·S − 1 bytes free: s1 admits, s2 can never fit beside it

    let (r1, rep1) = t1.wait_report().unwrap();
    let (rl, rep_long) = t_long.wait_report().unwrap();
    let (r2, rep2) = t2.wait_report().unwrap();
    drop(hold);

    // s1 hosted the long inline (the arrival-order head at its first
    // yield point), so the long finishes first; s2 — repeatedly offered
    // and re-queued on its would-block — runs last, at depth 0, after s1
    // released S.
    assert!(
        rep_long.completion_index < rep1.completion_index,
        "the hosted long must complete inside s1: long {rep_long:?} vs s1 {rep1:?}"
    );
    assert!(
        rep1.completion_index < rep2.completion_index,
        "s2 must wait for s1's reservation: s1 {rep1:?} vs s2 {rep2:?}"
    );
    assert_eq!(r1.rows, r2.rows, "identical probes, identical answers");
    assert_eq!(r1.rows, gen.reference(&short).unwrap().rows);
    assert_eq!(rl.rows, gen.reference(&long).unwrap().rows);

    let snapshot = sched.metrics_snapshot();
    assert!(
        metric(&snapshot, "bwd_sched_preemptions_total") >= 2,
        "both the long and s2 were hosted at yield points:\n{snapshot}"
    );
    assert!(
        metric(&snapshot, "bwd_sched_preempt_requeues_total") >= 1,
        "s2's nested admission must have would-block re-queued:\n{snapshot}"
    );
    assert_eq!(sched.stats().errors, 0, "would-block is not a query error");
}

/// A hosted job whose hint was proven wrong remembers it. With a safety
/// factor of 1e-6 every probe's hinted reservation is the kernel scratch
/// plus one candidate pair, so it admits, runs over its budget and asks
/// again at the worst case. The card has room for the host's permit plus
/// a hinted request, one byte short of a worst-case one: hosted inside
/// the paused gate job, the probe's second, non-blocking request would
/// block and the probe goes back to the queue. From there it must ask
/// for the worst case straight away — at the host's next yield point
/// (would-block again, but no second execution) and, once the host has
/// finished, at depth 0 — instead of re-running at the budget it already
/// blew: one over-budget requeue in total, not one per dequeue.
#[test]
fn a_requeued_job_keeps_the_worst_case_it_was_inflated_to() {
    let mut gen = WorkloadGen::new(0x0B5E, spec()).unwrap();
    let (host, probe) = (gen.short(), gen.short());
    let safety_factor = 1e-6;
    let est = PlanFootprint::of(gen.db(), &probe.plan, &probe.mode, 1).reservation(safety_factor);
    assert!(est.estimated < est.worst_case);

    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            aging_threshold: 0,
            preempt: forced(true),
            safety_factor,
            ..SchedConfig::default()
        },
    );
    let mem = gen.db().env().pool.devices()[0].memory().clone();
    let room = est.estimated + est.worst_case - 1;
    let hold = mem.alloc(mem.available() - room).unwrap();
    let gate = mem.alloc(room).unwrap(); // now zero bytes free
    let session = sched.session();
    let pinned = SubmitOptions {
        device: Some(0),
        trace: Some(true),
        ..SubmitOptions::default()
    };
    // The host sets its own budget, so it runs within it: only the probe
    // is ever over budget. It blocks inside depth-0 admission, provably
    // freezing the worker while the probe queues behind it.
    let within_budget = ExecMode::ApproxRefineWith(ArExecOptions {
        device_budget: Some(u64::MAX),
        ..ArExecOptions::default()
    });
    let t_host = session.submit_with(host.plan.clone(), within_budget, pinned);
    while mem.queued() < 1 {
        std::thread::yield_now();
    }
    let t_probe = session.submit_with(probe.plan.clone(), probe.mode.clone(), pinned);
    drop(gate);

    let (r_host, rep_host) = t_host.wait_report().unwrap();
    let (r_probe, rep_probe, trace) = t_probe.wait_traced().unwrap();
    drop(hold);
    assert!(rep_host.completion_index < rep_probe.completion_index);
    assert_eq!(r_host.rows, gen.reference(&host).unwrap().rows);
    assert_eq!(r_probe.rows, gen.reference(&probe).unwrap().rows);

    // Every admission attempt of the probe, in order: `(requested bytes,
    // attempt)`. Hinted once; the worst case from then on, and on the
    // final dequeue as the *first* attempt.
    trace.validate().unwrap();
    let asked: Vec<(u64, u64)> = (trace.events.iter())
        .filter(|e| {
            e.kind == waste_not::obs::EventKind::Admission
                && e.phase == waste_not::obs::Phase::Begin
        })
        .map(|e| (e.a, e.b))
        .collect();
    assert_eq!(asked[..2], [(est.estimated, 1), (est.worst_case, 2)]);
    assert!(asked.len() >= 3, "{asked:?}");
    assert!(
        asked[2..].iter().all(|&a| a == (est.worst_case, 1)),
        "{asked:?}"
    );

    let stats = sched.stats();
    assert_eq!(stats.admission_requeues, 1, "one run over budget, ever");
    assert_eq!(stats.errors, 0, "would-block is not a query error");
    let snapshot = sched.metrics_snapshot();
    assert!(metric(&snapshot, "bwd_sched_preempt_requeues_total") >= 1);
}

/// The query tail — gather, group, evaluate, aggregate — polls the yield
/// point once per 32 k-row slice, so a short probe queued behind Q1-like
/// work waits about one slice even during the group/aggregate stage. The
/// long plan has no selection: its tail *is* the query. A hook standing
/// in for the scheduler hosts a nested probe once two slices are folded —
/// mid-aggregate — and neither execution can tell.
#[test]
fn tail_yields_between_slices_and_hosts_a_nested_probe_mid_aggregate() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate, ScalarExpr};
    use waste_not::engine::{tail::SLICE_ROWS, Database};
    use waste_not::storage::Column;

    let rows = (5 * SLICE_ROWS + 17) as i32; // six slices
    let mut db = Database::new();
    let g = Column::from_i32((0..rows).map(|i| i % 7).collect());
    let v = Column::from_i32((0..rows).map(|i| i * 13 % 1000).collect());
    db.create_table("t", vec![("g".into(), g), ("v".into(), v)])
        .unwrap();
    let agg = |func, arg: Option<&str>| AggExpr {
        func,
        arg: arg.map(ScalarExpr::col),
        alias: format!("{func:?}"),
    };
    let aggs = vec![agg(AggFunc::Count, None), agg(AggFunc::Sum, Some("v"))];
    let long = LogicalPlan::scan("t").aggregate(vec!["g".into()], aggs);
    let probe = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "v".into(),
            lo: waste_not::Value::Int(10),
            hi: waste_not::Value::Int(19),
        })
        .aggregate(vec![], vec![agg(AggFunc::Count, None)]);
    let long = db.bind(&long, &Default::default()).unwrap();
    let probe = db.bind(&probe, &Default::default()).unwrap();
    db.auto_bind(&long).unwrap();
    let db = Arc::new(db);
    let want_probe = db.run_bound(&probe, ExecMode::ApproxRefine).unwrap();

    // `lead`: polls before the first slice (classic: entering the tail;
    // A&R: the gather boundary, then entering the tail).
    for (mode, lead) in [(ExecMode::Classic, 1), (ExecMode::ApproxRefine, 2)] {
        let plain = db.run_bound(&long, mode.clone()).unwrap();
        let polls = Arc::new(AtomicUsize::new(0));
        let hosted = Arc::new(Mutex::new(Vec::new()));
        let mut env = db.env().clone();
        env.preempt = waste_not::device::YieldPoint::new(Arc::new({
            let (db, probe) = (Arc::clone(&db), probe.clone());
            let (polls, hosted) = (Arc::clone(&polls), Arc::clone(&hosted));
            move || {
                if polls.fetch_add(1, Ordering::Relaxed) == lead + 1 {
                    let nested = db.run_bound(&probe, ExecMode::ApproxRefine)?;
                    hosted.lock().unwrap().push(nested);
                }
                Ok(())
            }
        }));
        let got = db.run_bound_in(&long, mode.clone(), &env, 1).unwrap();
        assert_eq!(
            polls.load(Ordering::Relaxed),
            lead + 6,
            "{mode:?}: one poll per slice"
        );
        assert_eq!(*hosted.lock().unwrap(), vec![want_probe.clone()]);
        assert_eq!(got.rows, plain.rows, "{mode:?}: rows");
        assert_eq!(got.survivors, plain.survivors);
        assert_eq!(got.breakdown, plain.breakdown, "{mode:?}: simulated cost");
        assert_eq!(got.traffic, plain.traffic, "{mode:?}: traffic bytes");
    }
}
