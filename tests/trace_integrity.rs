//! Trace-integrity properties: for any morsel fan-out, a traced query's
//! event stream is structurally sound — every span that begins also
//! ends, parents begin before their children, per-worker sequence
//! numbers are strictly monotone, the exec span's phases account for its
//! wall — a two-worker batch exports as valid Chrome `trace_event` JSON,
//! and ring-buffer overflow is reported on the captured trace, never
//! silently swallowed.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use waste_not::core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate};
use waste_not::engine::{ArExecOptions, Database, ExecMode};
use waste_not::obs::chrome::{chrome_trace, validate_chrome_trace};
use waste_not::obs::{EventKind, Phase, QueryTrace, SpanNode};
use waste_not::sched::{SchedConfig, Scheduler, SubmitOptions};
use waste_not::storage::Column;
use waste_not::Value;

fn served_db(rows: i32, bits: u32) -> (Arc<Database>, waste_not::core::plan::ArPlan) {
    let mut db = Database::new();
    db.create_table(
        "t",
        vec![
            (
                "a".into(),
                Column::from_i32((0..rows).map(|i| i % 10_000).collect()),
            ),
            (
                "g".into(),
                Column::from_i32((0..rows).map(|i| i % 16).collect()),
            ),
        ],
    )
    .unwrap();
    db.bwdecompose("t", "a", bits).unwrap();
    db.bwdecompose("t", "g", bits).unwrap();
    let plan = LogicalPlan::scan("t")
        .filter(Predicate::Between {
            column: "a".into(),
            lo: Value::Int(100),
            hi: Value::Int(1499),
        })
        .aggregate(
            vec!["g".into()],
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

/// Structural checks spelled out event by event (on top of
/// `QueryTrace::validate`, which the scheduler test suite already
/// exercises): pairing, parent ordering, per-worker monotonicity.
fn assert_structurally_sound(trace: &QueryTrace) {
    trace.validate().expect("trace validation");
    assert_eq!(trace.dropped, 0, "no overflow expected at default capacity");

    let mut begin_t: BTreeMap<u32, u64> = BTreeMap::new();
    let mut ends: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last_seq: BTreeMap<u16, u32> = BTreeMap::new();
    for ev in &trace.events {
        // Per-worker sequence numbers are strictly monotone.
        if let Some(prev) = last_seq.insert(ev.worker, ev.seq) {
            assert!(
                ev.seq > prev,
                "worker {} sequence regressed: {} after {prev}",
                ev.worker,
                ev.seq
            );
        }
        match ev.phase {
            Phase::Begin => {
                assert!(
                    begin_t.insert(ev.span, ev.t_ns).is_none(),
                    "span {} begun twice",
                    ev.span
                );
            }
            Phase::End => {
                assert!(
                    ends.insert(ev.span, ev.t_ns).is_none(),
                    "span {} ended twice",
                    ev.span
                );
            }
            Phase::Instant => {}
        }
    }
    // Every span closes, and no end lacks a begin.
    for (span, t0) in &begin_t {
        let t1 = ends
            .get(span)
            .unwrap_or_else(|| panic!("span {span} never closed"));
        assert!(t1 >= t0, "span {span} ends before it begins");
    }
    for span in ends.keys() {
        assert!(
            begin_t.contains_key(span),
            "span {span} ended but never began"
        );
    }
    // Parents begin no later than their children.
    for ev in &trace.events {
        if ev.phase == Phase::Begin && ev.parent != 0 {
            let pt = begin_t
                .get(&ev.parent)
                .unwrap_or_else(|| panic!("span {} has unknown parent {}", ev.span, ev.parent));
            assert!(
                *pt <= ev.t_ns,
                "parent {} begins after child {}",
                ev.parent,
                ev.span
            );
        }
    }
}

fn find_exec(nodes: &[SpanNode]) -> Option<&SpanNode> {
    nodes.iter().find_map(|n| match n.kind {
        EventKind::Exec => Some(n),
        _ => find_exec(&n.children),
    })
}

/// The exec span's direct phases run one after another inside it, so
/// their walls sum to at most its wall; the exec span itself sits inside
/// the job's exec wall as the scheduler measured it (a second clock read:
/// 10 % + 5 ms of slack).
fn assert_phases_account_for_exec(trace: &QueryTrace, report_exec: Duration) {
    let roots = trace.roots();
    let exec = find_exec(&roots).expect("trace has an exec span");
    let mut at = exec.t_begin_ns;
    for phase in &exec.children {
        assert!(
            phase.t_begin_ns >= at && phase.t_end_ns <= exec.t_end_ns,
            "{:?} overlaps its predecessor or leaves the exec span",
            phase.kind
        );
        at = phase.t_end_ns;
    }
    let limit = report_exec.as_secs_f64() * 1.1 + 0.005;
    assert!(
        exec.wall_seconds() <= limit,
        "{} > {limit}",
        exec.wall_seconds()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Across morsel fan-outs (serial, 2-way, 8-way) and decomposition
    /// widths, every traced A&R query of a two-worker batch yields a
    /// structurally sound trace whose phases account for its exec wall,
    /// and the batch's Chrome export validates.
    #[test]
    fn prop_traces_are_structurally_sound(
        morsel_idx in 0usize..3,
        bits in 20u32..=28,
    ) {
        let morsels = [1usize, 2, 8][morsel_idx];
        let (db, plan) = served_db(30_000, bits);
        let sched = Scheduler::new(
            db,
            SchedConfig {
                workers: 2,
                tracing: true,
                ..SchedConfig::default()
            },
        );
        let session = sched.session();
        let tickets: Vec<_> = (0..2)
            .map(|_| {
                session.submit_with(
                    plan.clone(),
                    ExecMode::ApproxRefineWith(ArExecOptions {
                        morsels,
                        ..Default::default()
                    }),
                    SubmitOptions::default(),
                )
            })
            .collect();
        let mut labeled = Vec::new();
        for (i, t) in tickets.into_iter().enumerate() {
            let (_result, report, trace) = t.wait_traced().unwrap();
            assert_structurally_sound(&trace);
            assert_phases_account_for_exec(&trace, report.exec);
            // The morsel fan-out shows up as per-partition spans.
            let morsel_lanes = trace
                .lanes
                .iter()
                .filter(|l| l.contains("/m"))
                .count();
            prop_assert!(
                morsel_lanes >= morsels.min(2),
                "expected morsel lanes for {morsels} morsels, lanes = {:?}",
                trace.lanes
            );
            labeled.push((format!("q{i}"), trace));
        }
        let events = validate_chrome_trace(&chrome_trace(&labeled))
            .unwrap_or_else(|e| panic!("invalid Chrome export: {e}"));
        prop_assert!(events > 0, "the Chrome export holds no events");
    }
}

/// A deliberately tiny ring overflows on a real query — and the capture
/// reports the drop count instead of failing or silently truncating.
#[test]
fn ring_overflow_is_reported_not_silent() {
    let (db, plan) = served_db(30_000, 24);
    let sched = Scheduler::new(
        db,
        SchedConfig {
            workers: 1,
            tracing: true,
            trace_ring_capacity: 4,
            ..SchedConfig::default()
        },
    );
    let (result, _report, trace) = sched
        .session()
        .submit_with(
            plan,
            ExecMode::ApproxRefineWith(ArExecOptions {
                morsels: 8,
                ..Default::default()
            }),
            SubmitOptions::default(),
        )
        .wait_traced()
        .unwrap();
    assert!(!result.rows.is_empty());
    assert!(
        trace.dropped > 0,
        "a 4-slot ring must overflow on this query"
    );
    // Overflowed traces still validate (pairing checks are relaxed; the
    // loss is surfaced, not hidden) and still render.
    trace.validate().expect("overflowed trace validates");
    assert!(trace.explain().contains("WARNING"), "{}", trace.explain());
}
