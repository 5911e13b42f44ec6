//! Trace-integrity properties: for any morsel fan-out, a traced query's
//! event stream is structurally sound — every span that begins also
//! ends, parents begin before their children, per-worker sequence
//! numbers are strictly monotone, the exec span's phases account for its
//! wall — a two-worker batch exports as valid Chrome `trace_event` JSON,
//! the exec span records the morsel count that ran, a traced Q6 shows
//! the selection order each pipe ran and a traced Q1 the fold, and both
//! show where their refinement ran.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use waste_not::core::plan::{AggExpr, AggFunc, ArPlan, LogicalPlan, Predicate};
use waste_not::engine::{ArExecOptions, Database, ExecMode, Shape};
use waste_not::obs::chrome::chrome_trace;
use waste_not::obs::json::{self, JsonValue};
use waste_not::obs::{EventKind, Phase, QueryTrace, Recorder, SpanNode, NO_SPAN};
use waste_not::sched::{SchedConfig, Scheduler, SubmitOptions};
use waste_not::storage::Column;
use waste_not::Value;

fn served_db(rows: i32, bits: u32) -> (Arc<Database>, ArPlan) {
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

#[path = "support/trace_check.rs"]
mod trace_check;

/// Structural checks spelled out event by event (on top of
/// [`trace_check::validate`]): pairing, parent ordering, per-worker
/// monotonicity.
fn assert_structurally_sound(trace: &QueryTrace) {
    trace_check::validate(trace).expect("trace validation");
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
                max_morsels: morsels,
                ..SchedConfig::default()
            },
        );
        let session = sched.session();
        let tickets: Vec<_> = (0..2)
            .map(|_| {
                session.submit_with(
                    plan.clone(),
                    ExecMode::ApproxRefine,
                    SubmitOptions {
                        host_threads: Some(morsels as u32),
                        ..SubmitOptions::default()
                    },
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

/// Every `refine` line of a traced A&R run of `plan` shows where the run's
/// own bill placed refinement: the pick, for the plan [`order`] chooses on
/// the primary card, at the undecided count the run counts — `want`.
///
/// [`order`]: waste_not::engine::bill::order
fn assert_refined_where_billed(db: &Database, plan: &ArPlan, text: &str, want: &str) {
    let (mode, env) = (ExecMode::ApproxRefine, db.env());
    let (_, counts, _) = db.run_counted(plan, mode.clone(), env, 1, None).unwrap();
    let chosen = waste_not::engine::bill::order(db, plan, &mode, env);
    let Shape::Ar(shape) = Shape::resolve(db, &chosen, &mode, env).unwrap() else {
        unreachable!("an A&R shape")
    };
    let picked = format!("{:?}", shape.refinement(counts.undecided, env)).to_lowercase();
    assert_eq!(picked, want);
    let mut lines = text.lines().filter(|l| l.contains("refine [")).peekable();
    assert!(lines.peek().is_some(), "no refine line in\n{text}");
    lines.for_each(|l| assert!(l.ends_with(&format!("at={want}")), "{l}"));
}

fn spans_of(node: &SpanNode, kind: EventKind, out: &mut Vec<SpanNode>) {
    if node.kind == kind {
        out.push(node.clone());
    }
    node.children.iter().for_each(|c| spans_of(c, kind, out));
}

/// A traced Q6 shows the order its chain ran in, which is the one its
/// pipe's bill picks: each A&R `approx-select` names its selection's index
/// in the bound plan (`sel=`), the `classic` span the permutation
/// (`order=`). At `l_shipdate` 24/8 the two pipes disagree — A&R runs
/// the discount first (the granules of the date admit more than its
/// range), Classic the quantity before the discount (the 4 B int before
/// the 8 B decimal). A&R's refinement fetches the undecided candidates'
/// residuals, as its bill picks.
#[test]
fn a_traced_q6_shows_the_chain_order_each_pipe_ran() {
    use waste_not::data::{gen_lineitem, TpchConfig};
    use waste_not::engine::bill::order;
    use waste_not::sql::{bind, parse, BoundStatement};
    let mut db = Database::new();
    let lineitem = gen_lineitem(&TpchConfig::scale(0.02)).into_columns();
    db.create_table("lineitem", lineitem).unwrap();
    let q6 = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= date '1994-01-01' \
         and l_shipdate < date '1994-01-01' + interval '1' year \
         and l_discount between 0.05 and 0.07 and l_quantity < 24";
    let BoundStatement::Query(logical) = bind(&parse(q6).unwrap(), db.catalog()).unwrap() else {
        panic!("not a query");
    };
    let plan = db.bind(&logical, &Default::default()).unwrap();
    db.auto_bind(&plan).unwrap();
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    let sched = Scheduler::new(
        Arc::new(db),
        SchedConfig {
            workers: 1,
            tracing: true,
            ..SchedConfig::default()
        },
    );
    let db = sched.database();
    let bound: Vec<_> = plan.selections.iter().map(|s| s.column.as_str()).collect();
    assert_eq!(bound, ["l_shipdate", "l_discount", "l_quantity"]);
    let mut rows = Vec::new();
    for (mode, kind) in [
        (ExecMode::ApproxRefine, EventKind::ApproxSelect),
        (ExecMode::Classic, EventKind::Classic),
    ] {
        let ordered = order(db, &plan, &mode, db.env());
        let picked: Vec<usize> = (ordered.selections.iter())
            .map(|s| plan.selections.iter().position(|b| b == s).unwrap())
            .collect();
        match kind {
            EventKind::Classic => assert_eq!(picked, [0, 2, 1]),
            _ => assert_eq!(picked[0], 1, "the discount first: {picked:?}"),
        }
        let ticket = sched.session().submit(plan.clone(), mode.clone());
        let (result, _report, trace) = ticket.wait_traced().unwrap();
        rows.push(result.rows);
        assert_structurally_sound(&trace);
        let mut spans = Vec::new();
        trace
            .roots()
            .iter()
            .for_each(|r| spans_of(r, kind, &mut spans));
        let recorded: Vec<usize> = match kind {
            EventKind::Classic => waste_not::obs::unpack_chain_order(spans[0].begin.a),
            _ => spans.iter().map(|s| s.begin.b as usize).collect(),
        };
        assert_eq!(recorded, picked, "{mode:?}");
        let text = trace.explain();
        let shown = match kind {
            EventKind::Classic => vec!["order=0,2,1".to_string()],
            _ => picked.iter().map(|i| format!("sel={i}  ")).collect(),
        };
        for s in shown {
            assert!(text.contains(&s), "{mode:?}: {s} in\n{text}");
        }
        if kind == EventKind::ApproxSelect {
            assert_refined_where_billed(db, &plan, &text, "fetch");
        }
    }
    assert_eq!(rows[0], rows[1], "A&R rows = Classic rows");
}

/// A traced Q1 shows the fold each pipe ran and where it was rolled up:
/// the plan the bill picks groups A&R by the quantity, the discount and
/// the tax beside the two keys — three co-factor keys, the six
/// accumulators of the plain tail down to two (price, count), rolled up on
/// the device — and Classic by the discount and the tax — two, six down
/// to three (quantity, price, count), rolled up on the host, as Classic
/// always is —, and the `group-agg` line of either pipe's `explain()`
/// says so. A&R streams the residual partition, as its bill picks. Both
/// pipes return the same rows.
#[test]
fn a_traced_q1_shows_the_fold_in_both_pipes() {
    use bwd_bench::evaluation::{bind_sql, tpch_db, Q1};
    use waste_not::engine::bill::order;
    let mut db = tpch_db(0.02).unwrap();
    let plan = bind_sql(&db, Q1).unwrap();
    db.auto_bind(&plan).unwrap();
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    let sched = Scheduler::new(
        Arc::new(db),
        SchedConfig {
            workers: 1,
            tracing: true,
            ..SchedConfig::default()
        },
    );
    let db = sched.database();
    assert!(plan.fold.is_empty(), "the binder folds nothing");
    let mut rows = Vec::new();
    let (three, two) = (
        &["l_quantity", "l_discount", "l_tax"][..],
        &["l_discount", "l_tax"][..],
    );
    for (mode, fold, shown) in [
        (
            ExecMode::ApproxRefine,
            three,
            "  fold=3 accs=6→2  rollup=device",
        ),
        (ExecMode::Classic, two, "  fold=2 accs=6→3  rollup=host"),
    ] {
        let ordered = order(db, &plan, &mode, db.env());
        assert_eq!(ordered.fold, fold, "{mode:?}");
        let ticket = sched.session().submit(plan.clone(), mode.clone());
        let (result, _report, trace) = ticket.wait_traced().unwrap();
        rows.push(result.rows);
        assert_structurally_sound(&trace);
        let text = trace.explain();
        let mut lines = text.lines().filter(|l| l.contains("group-agg"));
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("{mode:?}: no group-agg in\n{text}"));
        assert!(line.contains(shown), "{mode:?}: {line}");
        assert!(lines.next().is_none(), "{mode:?}:\n{text}");
        if fold == three {
            assert_refined_where_billed(db, &plan, &text, "stream");
        }
    }
    assert_eq!(rows[0], rows[1], "A&R rows = Classic rows");
}

/// The `exec` span records the morsel count a job ran with, whatever its
/// mode's options: 4 host threads under a cap of 4 fan the approximate
/// selection out over 4 partitions, for plain A&R and for A&R that also
/// captures the approximate answer.
#[test]
fn the_exec_span_records_the_morsels_that_ran() {
    let (db, plan) = served_db(200_000, 24);
    let sched = Scheduler::new(
        db,
        SchedConfig {
            workers: 1,
            tracing: true,
            max_morsels: 4,
            ..SchedConfig::default()
        },
    );
    let four = SubmitOptions {
        host_threads: Some(4),
        ..SubmitOptions::default()
    };
    let with_answer = ExecMode::ApproxRefineWith(ArExecOptions {
        approximate_answer: true,
    });
    for mode in [ExecMode::ApproxRefine, with_answer] {
        let ticket = sched
            .session()
            .submit_with(plan.clone(), mode.clone(), four);
        let (_result, _report, trace) = ticket.wait_traced().unwrap();
        let begins = || (trace.events.iter()).filter(|e| e.phase == Phase::Begin);
        let exec = begins().find(|e| e.kind == EventKind::Exec).unwrap();
        let parts: std::collections::BTreeSet<u64> = begins()
            .filter(|e| e.kind == EventKind::Morsel)
            .map(|e| e.b)
            .collect();
        assert_eq!(exec.a, parts.len() as u64, "{mode:?}: parts {parts:?}");
        assert_eq!(exec.a, 4, "{mode:?}");
    }
}

/// Validate that `text` is well-formed Chrome `trace_event` JSON;
/// returns the number of trace events.
fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i} ({name}): missing ph"))?;
        if !matches!(ph, "X" | "i" | "M" | "B" | "E") {
            return Err(format!("event {i} ({name}): unknown phase {ph:?}"));
        }
        for field in ["ts", "pid", "tid"] {
            e.get(field)
                .and_then(JsonValue::as_num)
                .ok_or(format!("event {i} ({name}): missing numeric {field}"))?;
        }
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(JsonValue::as_num)
                .ok_or(format!("event {i} ({name}): X event missing dur"))?;
            if dur < 0.0 {
                return Err(format!("event {i} ({name}): negative dur"));
            }
        }
    }
    Ok(events.len())
}

/// The oracles reject what they exist to reject: a span never closed
/// (unless the trace dropped events: then only the relaxed checks run), a
/// Chrome document without its event array or an `X` event without
/// `dur`.
#[test]
fn the_trace_oracles_reject_broken_traces() {
    let r = Recorder::enabled();
    let _open = r.worker("w").begin(EventKind::Exec, NO_SPAN, 0, 0);
    let mut trace = QueryTrace::capture(&r);
    let err = trace_check::validate(&trace).unwrap_err();
    assert!(err.contains("never closed"), "{err}");
    // Its `End` may be among the events the ring dropped.
    trace.dropped = 1;
    trace_check::validate(&trace).expect("an overflowed trace passes the relaxed checks");

    assert!(validate_chrome_trace("{}").is_err());
    assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
    let no_dur = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
    assert!(validate_chrome_trace(no_dur).is_err(), "X without dur");
}
