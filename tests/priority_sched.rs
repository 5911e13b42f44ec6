//! Priority-aware scheduling, end to end and deterministically.
//!
//! Every ordering assertion here is exact, with no sleeps and no
//! wall-clock comparisons: a one-worker scheduler is frozen behind a
//! [`Gate`] (the worker blocks *inside* device admission) while the
//! batch under test stacks up in the queue, and the drain order is then
//! read back from each job's [`JobReport::completion_index`] — a global
//! counter the scheduler stamps at completion, which on one worker *is*
//! the execution order the queue chose. The queue has one order
//! (priority, then latency estimate, then arrival); `aging_threshold: 0`
//! is arrival order.

use std::sync::Arc;

use bwd_bench::workload::{JobKind, WorkloadGen, WorkloadSpec};
use waste_not::sched::{JobReport, SchedConfig, Scheduler, Session, SubmitOptions, Ticket};
use waste_not::Value;

#[path = "support/gate.rs"]
mod gate;
use gate::Gate;

/// The two queue orders, as aging thresholds: the default, and arrival
/// order.
const ORDERS: [u32; 2] = [32, 0];

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        long_rows: 60_000,
        short_rows: 8_000,
        // domain == short_rows: the probe table covers the whole domain,
        // so every equally-wide probe gets the *same* predicted keep share —
        // equal latency estimates, and SJF ties break by arrival order.
        // That makes short-vs-short ordering exactly predictable below.
        domain: 8_000,
        ..WorkloadSpec::default()
    }
}

fn one_worker(gen: &WorkloadGen, aging_threshold: u32) -> Scheduler {
    Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            aging_threshold,
            ..SchedConfig::default()
        },
    )
}

/// Freeze the single worker: submit one A&R job, pinned to the gated
/// device, that blocks inside its admission queue. Returns its ticket.
fn freeze(gen: &mut WorkloadGen, session: &Session, gate: &Gate) -> Ticket {
    let job = gen.short();
    let ticket = session.submit_with(job.plan, job.mode, gate.submit_options());
    gate.wait_admission_blocked(1);
    ticket
}

#[test]
fn sjf_drains_every_short_probe_before_the_long_scans() {
    let mut gen = WorkloadGen::new(11, small_spec()).unwrap();
    let sched = one_worker(&gen, 1000);
    let session = sched.session();
    let gate = Gate::block(gen.db(), 0).unwrap();
    let gate_ticket = freeze(&mut gen, &session, &gate);

    let batch = gen.mixed(6, 3); // interleaved; first element is a long
    let tickets: Vec<_> = batch
        .iter()
        .map(|q| session.submit(q.plan.clone(), q.mode.clone()))
        .collect();
    gate.release();

    let mut reports: Vec<(JobKind, JobReport)> = Vec::new();
    for (i, t) in tickets.into_iter().enumerate() {
        let (r, rep) = t.wait_report().unwrap();
        assert_eq!(r.rows, gen.reference(&batch[i]).unwrap().rows);
        reports.push((batch[i].kind, rep));
    }
    gate_ticket.wait().unwrap();

    // Gate job completed first (index 0); then every short, then every
    // long — the exact SJF decision, not a statistical tendency.
    let max_short = reports
        .iter()
        .filter(|(k, _)| *k == JobKind::Short)
        .map(|(_, r)| r.completion_index)
        .max()
        .unwrap();
    let min_long = reports
        .iter()
        .filter(|(k, _)| *k == JobKind::Long)
        .map(|(_, r)| r.completion_index)
        .min()
        .unwrap();
    assert!(
        max_short < min_long,
        "a long scan ran before a short probe: {reports:?}"
    );
    // Estimates that drove the decision are visible in the reports, and
    // they separate the two classes by a wide margin.
    for (kind, rep) in &reports {
        match kind {
            JobKind::Short => assert!(rep.est_seconds < 1e-4, "{rep:?}"),
            JobKind::Long => assert!(rep.est_seconds > 1e-4, "{rep:?}"),
        }
    }
    assert_eq!(sched.stats().completed, reports.len() as u64 + 1);
}

#[test]
fn priority_policy_overrides_the_latency_estimate() {
    let mut gen = WorkloadGen::new(13, small_spec()).unwrap();
    let sched = one_worker(&gen, 1000);
    let session = sched.session();
    let gate = Gate::block(gen.db(), 0).unwrap();
    let gate_ticket = freeze(&mut gen, &session, &gate);

    // Longs submitted at high priority, shorts at low: the *slower* jobs
    // must win, proving priority beats the estimate.
    let longs: Vec<_> = (0..2).map(|_| gen.long()).collect();
    let shorts: Vec<_> = (0..4).map(|_| gen.short()).collect();
    let short_tickets: Vec<_> = shorts
        .iter()
        .map(|q| {
            session.submit_with(
                q.plan.clone(),
                q.mode.clone(),
                SubmitOptions {
                    priority: -1,
                    ..SubmitOptions::default()
                },
            )
        })
        .collect();
    let long_tickets: Vec<_> = longs
        .iter()
        .map(|q| {
            session.submit_with(
                q.plan.clone(),
                q.mode.clone(),
                SubmitOptions {
                    priority: 7,
                    ..SubmitOptions::default()
                },
            )
        })
        .collect();
    gate.release();

    let long_idx: Vec<u64> = long_tickets
        .into_iter()
        .map(|t| t.wait_report().unwrap().1.completion_index)
        .collect();
    let short_idx: Vec<u64> = short_tickets
        .into_iter()
        .map(|t| t.wait_report().unwrap().1.completion_index)
        .collect();
    gate_ticket.wait().unwrap();
    // Gate = 0, longs = 1..=2 (within the priority level the two longs
    // order by their own estimates), shorts = 3..=6 in exact arrival
    // order (equal estimates tie-break by sequence).
    let mut sorted_longs = long_idx.clone();
    sorted_longs.sort_unstable();
    assert_eq!(sorted_longs, vec![1, 2], "{long_idx:?}");
    assert_eq!(short_idx, vec![3, 4, 5, 6]);
}

#[test]
fn aging_bounds_bypasses_exactly_no_starvation() {
    let mut gen = WorkloadGen::new(17, small_spec()).unwrap();
    // A long scan may be overtaken by at most 4 younger jobs.
    let sched = one_worker(&gen, 4);
    let session = sched.session();
    let gate = Gate::block(gen.db(), 0).unwrap();
    let gate_ticket = freeze(&mut gen, &session, &gate);

    let long = gen.long();
    let long_ticket = session.submit(long.plan.clone(), long.mode.clone());
    let short_tickets: Vec<_> = (0..12)
        .map(|_| {
            let q = gen.short();
            session.submit(q.plan, q.mode)
        })
        .collect();
    gate.release();

    let (_, long_rep) = long_ticket.wait_report().unwrap();
    let short_idx: Vec<u64> = short_tickets
        .into_iter()
        .map(|t| t.wait_report().unwrap().1.completion_index)
        .collect();
    gate_ticket.wait().unwrap();
    // Exactly 4 shorts bypass the long (its aging threshold), then the
    // aged long runs, then the remaining shorts: completion index 5
    // (gate=0, shorts=1..=4).
    assert_eq!(
        long_rep.completion_index, 5,
        "aging must cap bypasses at the threshold: shorts {short_idx:?}"
    );
    assert_eq!(
        short_idx,
        vec![1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13],
        "shorts keep arrival order around the aged long"
    );
}

#[test]
fn results_and_costs_are_bit_identical_across_policies() {
    // The order may only reorder work — answers, simulated costs and
    // traffic must not move. Run the identical seeded batch in both
    // orders on a concurrent (4-worker) scheduler and compare to serial.
    let reference: Vec<_> = {
        let mut gen = WorkloadGen::new(23, small_spec()).unwrap();
        let batch = gen.mixed(8, 3);
        batch.iter().map(|q| gen.reference(q).unwrap()).collect()
    };
    for aging_threshold in ORDERS {
        let mut gen = WorkloadGen::new(23, small_spec()).unwrap();
        let batch = gen.mixed(8, 3);
        let sched = Scheduler::new(
            Arc::clone(gen.db()),
            SchedConfig {
                workers: 4,
                aging_threshold,
                ..SchedConfig::default()
            },
        );
        let session = sched.session();
        let tickets: Vec<_> = batch
            .iter()
            .map(|q| session.submit_with(q.plan.clone(), q.mode.clone(), q.submit_options(1)))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t.wait().unwrap();
            assert_eq!(got.rows, reference[i].rows, "{aging_threshold} query {i}");
            assert_eq!(
                got.breakdown, reference[i].breakdown,
                "{aging_threshold} query {i}"
            );
            assert_eq!(
                got.traffic, reference[i].traffic,
                "{aging_threshold} query {i}"
            );
        }
        let stats = sched.stats();
        assert_eq!(stats.errors, 0, "{aging_threshold}");
        assert!(stats.device_peak_bytes <= stats.device_capacity_bytes);
        // Estimate-vs-actual accounting accumulated on both streams.
        assert!(stats.classic.est_sim_seconds > 0.0);
        assert!(stats.approx_refine.est_sim_seconds > 0.0);
        assert!(stats.classic.estimate_ratio() > 0.0);
    }
}

#[test]
fn fifo_policy_regression_drains_in_exact_arrival_order() {
    let mut gen = WorkloadGen::new(29, small_spec()).unwrap();
    let sched = one_worker(&gen, 0);
    let session = sched.session();
    let gate = Gate::block(gen.db(), 0).unwrap();
    let gate_ticket = freeze(&mut gen, &session, &gate);

    let batch = gen.mixed(5, 2);
    let tickets: Vec<_> = batch
        .iter()
        .map(|q| session.submit(q.plan.clone(), q.mode.clone()))
        .collect();
    gate.release();
    let idx: Vec<u64> = tickets
        .into_iter()
        .map(|t| t.wait_report().unwrap().1.completion_index)
        .collect();
    gate_ticket.wait().unwrap();
    assert_eq!(idx, (1..=7).collect::<Vec<u64>>(), "FIFO = arrival order");
}

#[test]
fn dropping_a_scheduler_with_queued_jobs_resolves_tickets_under_each_policy() {
    for aging_threshold in ORDERS {
        let mut gen = WorkloadGen::new(31, small_spec()).unwrap();
        let sched = one_worker(&gen, aging_threshold);
        let session = sched.session();
        let gate = Gate::block(gen.db(), 0).unwrap();
        let gate_ticket = freeze(&mut gen, &session, &gate);

        // Queue a mixed batch that can never start: the only worker is
        // frozen behind the gate.
        let batch = gen.mixed(3, 2);
        let tickets: Vec<_> = batch
            .iter()
            .map(|q| session.submit_with(q.plan.clone(), q.mode.clone(), q.submit_options(1)))
            .collect();
        assert_eq!(sched.queue_len(), batch.len(), "{aging_threshold}");

        // Drop the scheduler from another thread (it blocks joining the
        // gated worker); the queued tickets must resolve with a
        // closed-queue error *before* the gate ever releases — proving
        // the drop path, not the workers, resolved them.
        let dropper = std::thread::spawn(move || sched.shutdown());
        for t in tickets {
            let err = t.wait().unwrap_err();
            assert!(
                err.to_string().contains("shut down"),
                "{aging_threshold}: {err}"
            );
        }
        // New submissions are rejected immediately once the queue closed.
        let late = gen.short();
        let err = session.submit(late.plan, late.mode).wait().unwrap_err();
        assert!(
            err.to_string().contains("shut down"),
            "{aging_threshold}: {err}"
        );

        gate.release();
        // The in-flight gate job still completes normally.
        let gate_result = gate_ticket.wait().unwrap();
        assert_eq!(gate_result.rows.len(), 1);
        assert!(matches!(gate_result.rows[0][0], Value::Int(_)));
        dropper.join().unwrap();
    }
}

/// The estimate is the bill. TPC-H Q1 in A&R mode gathers six columns,
/// evaluates ten expression primitives and updates six accumulators over
/// 96 % of `lineitem` (and pre-grouped them too when this was written); a classic Q14 scans one column and fetches a month's worth
/// of rows. Queued together — Q1 first, so arrival order cannot help —
/// Q14 runs first. At this scale (SF 0.01, every column resident) the
/// parent's hand-written estimator put Q1 at 0.131 ms and Q14 at
/// 0.143 ms, against bills of 1.05 and 0.16 ms, and ran Q1 first: it
/// priced nothing of pre-grouping, `aggregate.eval` or expression
/// arithmetic.
#[test]
fn sjf_runs_a_classic_q14_before_an_ar_q1() {
    use bwd_bench::evaluation::{bind_sql, tpch_db, Q1, Q14};
    use waste_not::ExecMode;

    let mut db = tpch_db(0.01).unwrap();
    let mut plan = |sql: &str| {
        let plan = bind_sql(&db, sql).unwrap();
        db.auto_bind(&plan).unwrap();
        plan
    };
    let (q1, q14) = (plan(Q1), plan(Q14));
    let gate_plan = plan("select count(*) from lineitem where l_quantity < 24");

    let db = Arc::new(db);
    let sched = Scheduler::new(
        Arc::clone(&db),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let gate = Gate::block(&db, 0).unwrap();
    let gate_ticket = session.submit_with(gate_plan, ExecMode::ApproxRefine, gate.submit_options());
    gate.wait_admission_blocked(1);
    let q1_ticket = session.submit(q1, ExecMode::ApproxRefine);
    let q14_ticket = session.submit(q14, ExecMode::Classic);
    gate.release();

    let (_, q1_rep) = q1_ticket.wait_report().unwrap();
    let (_, q14_rep) = q14_ticket.wait_report().unwrap();
    gate_ticket.wait().unwrap();
    assert!(
        q14_rep.est_seconds < q1_rep.est_seconds,
        "{q14_rep:?} {q1_rep:?}"
    );
    assert!(q14_rep.actual_sim_seconds < q1_rep.actual_sim_seconds);
    assert_eq!(
        (q14_rep.completion_index, q1_rep.completion_index),
        (1, 2),
        "the cheaper Q14 must run first: {q14_rep:?} {q1_rep:?}"
    );
}
