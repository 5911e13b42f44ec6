//! Per-layer metrics, measured from outside by timing public entry
//! points (layer = crate). Only the traced run comes here; end-to-end
//! metrics are never taken from it.
//!
//! Two instruments:
//!
//! * **direct timings** of one layer's entry point on the benchmark's own
//!   data (`RangeMatcher::fill`, `select_range`, `Frame::encode`, …);
//! * the **replay chain**: a sampled request is run through serial
//!   engine ⊂ `Session` ⊂ duplex front door ⊂ loopback TCP, one span per
//!   level, and a level's cost is its self time (see [`crate::spans`]).

use crate::check::{References, Tally};
use crate::counts::Counts;
use crate::gen::{Class, Plan, TABLE1_BOX};
use crate::report::Metric;
use crate::setup::{sched_config, SetupTimes};
use crate::spans::{self_times, SpanRecorder};
use crate::stats::median;
use crate::workloads::{think, OPEN_LOOP_RATE};
use crate::Res;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waste_not::core::plan::RewriteOptions;
use waste_not::device::CostLedger;
use waste_not::kernels::gather::gather;
use waste_not::kernels::group::hash_group_multi;
use waste_not::kernels::scan::select_range;
use waste_not::kernels::{Candidates, DeviceArray, ScanOptions};
use waste_not::net::{Duplex, Frame, FrameDecoder, WireMode};
use waste_not::sched::JobReport;
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::swar::RangeMatcher;
use waste_not::storage::{Column, DecomposedColumn, DecompositionSpec};
use waste_not::{
    ArExecOptions, Database, DecompositionReport, Env, ExecMode, NetClient, NetConfig, NetServer,
    Scheduler,
};

/// Replay-chain samples per class at `--seconds 20`.
const CHAIN_SAMPLES: [(Class, usize); 2] = [(Class::Probe, 100), (Class::S, 8)];
/// Serial engine repetitions per (class, mode) at `--seconds 20`.
const ENGINE_REPS: [(Class, usize); 5] = [
    (Class::Probe, 100),
    (Class::S, 4),
    (Class::Q6, 4),
    (Class::Q14, 4),
    (Class::Q1, 2),
];

fn ns_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Median nanoseconds of `reps` calls.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| ns_of(&mut f).1 as f64).collect();
    median(&samples)
}

/// Median nanoseconds per call, timing `batch` calls at a time (for
/// calls too short to time singly).
fn median_ns_batched(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    median_ns(reps, || (0..batch).for_each(|_| f())) / batch as f64
}

fn scaled(reps: usize, scale: f64) -> usize {
    ((reps as f64 * scale).ceil() as usize).max(2)
}

/// One serial pass through the planning and engine layers.
struct Serial {
    parse_bind_ns: u64,
    rewrite_ns: u64,
    run_ns: u64,
}

/// Statement `stmt` through parse → bind → rewrite → `run_bound`. Like
/// every replay, whatever level produced it, the result must equal the
/// serial reference bit for bit (see [`crate::check`]).
fn serial(inp: &Inputs<'_>, stmt: usize, mode: WireMode, tally: &mut Tally) -> Res<Serial> {
    let (db, sql) = (inp.db, inp.plan.statements[stmt].1.as_str());
    let (logical, parse_bind_ns) = ns_of(|| -> Res<_> {
        match bind(&parse(sql)?, db.catalog())? {
            BoundStatement::Query(logical) => Ok(logical),
            BoundStatement::Decompose { .. } => Err("expected a query".into()),
        }
    });
    let logical = logical?;
    let (plan, rewrite_ns) = ns_of(|| db.bind(&logical, &RewriteOptions::default()));
    let plan = plan?;
    let (result, run_ns) = ns_of(|| db.run_bound(&plan, mode.exec_mode()));
    tally.record(inp.refs, stmt, mode, &result);
    Ok(Serial {
        parse_bind_ns,
        rewrite_ns,
        run_ns,
    })
}

/// Everything the layer measurements need.
pub struct Inputs<'a> {
    /// The loaded database.
    pub db: &'a Arc<Database>,
    /// The run's plan.
    pub plan: &'a Plan,
    /// References covering [`needs`].
    pub refs: &'a References,
    /// A connection to a spawned, untraced TCP server on `db`.
    pub tcp: &'a mut NetClient,
    /// Repetition scale: `--seconds / 20`.
    pub scale: f64,
}

/// Statement index → "A&R reference needed" for the layer replays.
pub fn needs(plan: &Plan) -> BTreeMap<usize, bool> {
    ENGINE_REPS
        .iter()
        .map(|&(class, _)| (plan.first_of(class), true))
        .collect()
}

/// What the layer measurements produced.
pub struct Layers {
    /// The per-layer metrics measured here.
    pub metrics: Vec<Metric>,
    /// The replay-chain spans.
    pub spans: SpanRecorder,
    /// Replays attempted / failed the correctness gate.
    pub tally: Tally,
}

fn upload(env: &Env, column: &Column, spec: &DecompositionSpec, label: &str) -> Res<DeviceArray> {
    let decomposed = DecomposedColumn::decompose(&column.payloads(), column.dtype(), spec)?;
    let (_, approx, _) = decomposed.into_parts();
    Ok(DeviceArray::upload(
        &env.device,
        approx,
        label,
        &mut CostLedger::new(),
    )?)
}

/// `storage.*` and `kernels.*`: the packed-word scan primitives on the
/// benchmark's own 24-bit longitude column at Table I selectivity, and
/// the Q1 grouping kernel on its two key columns.
fn storage_and_kernels(db: &Database, scale: f64) -> Res<Vec<Metric>> {
    let reps = scaled(5, scale);
    let trips = db.catalog().table("trips")?;
    let lineitem = db.catalog().table("lineitem")?;
    let split = DecompositionSpec::with_device_bits(24);
    let env = Env::paper_default();
    let mut ledger = CostLedger::new();

    let lon_payloads = trips.column("lon")?.payloads();
    let lon = DecomposedColumn::decompose(&lon_payloads, trips.column("lon")?.dtype(), &split)?;
    let n = lon.len();
    let ((lon_lo, lon_hi), _) = TABLE1_BOX;
    let (lo, hi) = lon
        .stored_bounds_payload(lon_lo, lon_hi)
        .ok_or("Table I box lies outside the longitude domain")?;
    let packed_bytes = lon.approx().packed_bytes() as f64;

    let matcher = RangeMatcher::new(lon.approx(), lo, hi);
    let mut mask = vec![0u64; n.div_ceil(64)];
    let fill_ns = median_ns(reps, || matcher.fill(0, n, black_box(&mut mask)));

    let mut out = vec![0u64; 1 << 16];
    let unpack_ns = median_ns(reps, || {
        for start in (0..n).step_by(out.len()) {
            let len = out.len().min(n - start);
            lon.approx().unpack_range(start, &mut out[..len]);
            black_box(&out);
        }
    });

    let (_, approx, _) = lon.into_parts();
    let lon_arr = DeviceArray::upload(&env.device, approx, "bench.lon", &mut ledger)?;
    let lat_arr = upload(&env, trips.column("lat")?, &split, "bench.lat")?;
    let opts = ScanOptions::default();
    // The ceiling is measured interleaved with the kernel, so a slow
    // phase of the host hits both sides of the ratio.
    let (mut stream_ns, mut select_ns) = (Vec::new(), Vec::new());
    let mut cands = Candidates::empty();
    for _ in 0..reps {
        let (sum, ns) = ns_of(|| lon_payloads.iter().fold(0i64, |a, &v| a.wrapping_add(v)));
        black_box(sum);
        stream_ns.push(ns as f64);
        let (c, ns) = ns_of(|| select_range(&env, &lon_arr, lo, hi, &opts, &mut ledger));
        select_ns.push(ns as f64);
        cands = c;
    }
    if cands.is_empty() {
        return Err("Table I box selects no longitude candidates".into());
    }
    let stream_gbps = (lon_payloads.len() * 8) as f64 / median(&stream_ns);
    let select_gbps = packed_bytes / median(&select_ns);
    drop(lon_payloads);

    let gather_ns = median_ns(reps, || {
        black_box(gather(&env, &lat_arr, &cands, "bench.gather", &mut ledger));
    });

    let all = DecompositionSpec::all_device();
    let flag = upload(&env, lineitem.column("l_returnflag")?, &all, "bench.rf")?;
    let status = upload(&env, lineitem.column("l_linestatus")?, &all, "bench.ls")?;
    let rows = Candidates::dense_all(flag.len());
    let group_ns = median_ns(scaled(3, scale), || {
        black_box(hash_group_multi(
            &env,
            &[&flag, &status],
            &rows,
            &mut ledger,
        ));
    });

    Ok(vec![
        Metric::new("storage.mask_fill_ns_per_row", fill_ns / n as f64, "ns"),
        Metric::new("storage.unpack_gbps", packed_bytes / unpack_ns, "GB/s"),
        Metric::new(
            "kernels.select_range_ns_per_row",
            median(&select_ns) / n as f64,
            "ns",
        ),
        Metric::new("kernels.select_range_gbps", select_gbps, "GB/s"),
        Metric::new("kernels.roofline_ratio", select_gbps / stream_gbps, "ratio"),
        Metric::new(
            "kernels.gather_ns_per_row",
            gather_ns / cands.len() as f64,
            "ns",
        ),
        Metric::new(
            "kernels.group_ns_per_row",
            group_ns / rows.len() as f64,
            "ns",
        ),
    ])
}

/// `net.encode_ns.*`, `net.decode_ns.*`, `net.result_bytes.*`.
fn codec(plan: &Plan, refs: &References, scale: f64) -> Vec<Metric> {
    let reps = scaled(20, scale);
    let mode = WireMode::ApproxRefine;
    let probe = plan.first_of(Class::Probe);
    let query = Frame::Query {
        mode,
        sql: plan.statements[probe].1.clone(),
    };
    let result_probe = Frame::Result(Box::new(refs.get(probe, mode).clone()));
    let result_q1 = Frame::Result(Box::new(refs.get(plan.first_of(Class::Q1), mode).clone()));
    let encode = |frame: &Frame| {
        median_ns_batched(reps, 200, || {
            black_box(black_box(frame).encode());
        })
    };
    let decode = |frame: &Frame| {
        let bytes = frame.encode();
        let mut decoder = FrameDecoder::new();
        median_ns_batched(reps, 200, || {
            decoder.feed(black_box(&bytes));
            black_box(decoder.next().expect("own encoding decodes"));
        })
    };
    vec![
        Metric::new("net.encode_ns.query", encode(&query), "ns"),
        Metric::new("net.decode_ns.query", decode(&query), "ns"),
        Metric::new("net.encode_ns.result_probe", encode(&result_probe), "ns"),
        Metric::new("net.decode_ns.result_q1", decode(&result_q1), "ns"),
        Metric::new(
            "net.result_bytes.probe",
            result_probe.encode().len() as f64,
            "B",
        ),
        Metric::new("net.result_bytes.q1", result_q1.encode().len() as f64, "B"),
    ]
}

/// One request through the harness-polled duplex front door.
fn duplex_round_trip(
    front: &mut NetServer,
    client: &mut NetClient,
    request: &Frame,
) -> waste_not::Result<waste_not::QueryResult> {
    client.send(request)?;
    front.poll();
    while front.inflight() > 0 {
        std::thread::yield_now();
        front.poll();
    }
    crate::wire::response_of(client.recv()?)
}

/// Per-level nanoseconds of one chain sample.
struct ChainSample {
    session_ns: u64,
    report: JobReport,
    duplex_ns: u64,
}

/// The harness-polled front door and what the replays record into.
struct Replayer {
    /// Its own one-worker scheduler on the same database; `poll()` is
    /// only ever called from the harness thread.
    front: NetServer,
    /// The one duplex connection to `front`.
    dx: NetClient,
    spans: SpanRecorder,
    tally: Tally,
}

impl Replayer {
    /// Replay `samples` requests of `class` through every level,
    /// innermost first, and record one span tree per request (op ids
    /// start at `first_op`). Returns the median self time (ns) of the
    /// TCP level and the samples.
    fn chain(
        &mut self,
        inp: &mut Inputs<'_>,
        class: Class,
        samples: usize,
        first_op: usize,
    ) -> Res<(f64, Vec<ChainSample>)> {
        let stmt = inp.plan.first_of(class);
        let sql = inp.plan.statements[stmt].1.as_str();
        let mode = WireMode::ApproxRefine;
        let request = Frame::Query {
            mode,
            sql: sql.to_string(),
        };
        let session = self.front.scheduler().session();
        let mut taken = Vec::with_capacity(samples);
        let mut roots = Vec::with_capacity(samples);
        for i in 0..samples {
            let s = serial(inp, stmt, mode, &mut self.tally)?;
            let (done, session_ns) = ns_of(|| {
                session
                    .submit_sql(sql, ExecMode::ApproxRefine)
                    .and_then(|ticket| ticket.wait_report())
            });
            let (result, report) = match done {
                Ok((r, report)) => (Ok(r), report),
                Err(e) => (Err(e), JobReport::default()),
            };
            self.tally.record(inp.refs, stmt, mode, &result);
            let (result, duplex_ns) =
                ns_of(|| duplex_round_trip(&mut self.front, &mut self.dx, &request));
            self.tally.record(inp.refs, stmt, mode, &result);
            // As in `probe_net` phase A the request must meet a reactor
            // that parked `PROBE_THINK` ago: a ping makes it park now.
            inp.tcp.ping()?;
            think();
            let start = self.spans.now_ns();
            let result = inp.tcp.query(sql, mode);
            let end = self.spans.now_ns();
            self.tally.record(inp.refs, stmt, mode, &result);

            let spans = &mut self.spans;
            let root = spans.record("net.tcp", first_op + i, None, start, end);
            let duplex = spans.record_replayed("net.duplex", root, 0, duplex_ns);
            let sess = spans.record_replayed("sched.session", duplex, 0, session_ns);
            let inner = s.parse_bind_ns + s.rewrite_ns + s.run_ns;
            let ser = spans.record_replayed("serial", sess, 0, inner);
            spans.record_replayed("sql.parse_bind", ser, 0, s.parse_bind_ns);
            spans.record_replayed("core.rewrite", ser, s.parse_bind_ns, s.rewrite_ns);
            spans.record_replayed(
                "engine.run_bound",
                ser,
                s.parse_bind_ns + s.rewrite_ns,
                s.run_ns,
            );
            roots.push(root);
            taken.push(ChainSample {
                session_ns,
                report,
                duplex_ns,
            });
        }

        let selfs = self_times(self.spans.spans());
        let tcp_self: Vec<f64> = roots.iter().map(|&r| selfs[r] as f64).collect();
        Ok((median(&tcp_self), taken))
    }
}

/// `sched.queue_wait_*`, `sched.est_ratio`: `mixed_streams` replayed at
/// `Session` level — one thread keeps a Classic Q6 running, this thread
/// submits probes open loop and reads each probe's `JobReport`.
fn queue_wait(inp: &Inputs<'_>, sched: &Scheduler, scale: f64) -> Res<Vec<Metric>> {
    let q6 = crate::setup::bind_sql(inp.db, &inp.plan.statements[inp.plan.first_of(Class::Q6)].1)?;
    let probe_sql = &inp.plan.statements[inp.plan.first_of(Class::Probe)].1;
    let probe = crate::setup::bind_sql(inp.db, probe_sql)?;
    let n = scaled(60, scale);
    let period = Duration::from_secs(1) / OPEN_LOOP_RATE;
    let stop = AtomicBool::new(false);
    let reports = std::thread::scope(|scope| -> Res<Vec<JobReport>> {
        let bulk = sched.session();
        let (stop, q6) = (&stop, &q6);
        let bulk = scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if bulk.query(q6, ExecMode::Classic).is_err() {
                    return false;
                }
            }
            true
        });
        let session = sched.session();
        let start = Instant::now();
        let tickets: Vec<_> = (0..n)
            .map(|i| {
                std::thread::sleep(
                    (start + period * i as u32).saturating_duration_since(Instant::now()),
                );
                session.submit(probe.clone(), ExecMode::ApproxRefine)
            })
            .collect();
        let reports = tickets
            .into_iter()
            .map(|t| t.wait_report().map(|(_, report)| report))
            .collect::<waste_not::Result<Vec<_>>>();
        stop.store(true, Ordering::Relaxed);
        if !bulk.join().expect("bulk replay thread panicked") {
            return Err("Session-level bulk stream failed".into());
        }
        Ok(reports?)
    })?;
    let waits: Vec<f64> = reports
        .iter()
        .map(|r| r.queue_wait.as_secs_f64() * 1e3)
        .collect();
    let ratios: Vec<f64> = reports
        .iter()
        .filter(|r| r.actual_sim_seconds > 0.0)
        .map(|r| r.est_seconds / r.actual_sim_seconds)
        .collect();
    Ok(vec![
        Metric::new("sched.queue_wait_ms_p50", median(&waits), "ms"),
        Metric::new(
            "sched.queue_wait_ms_mean",
            waits.iter().sum::<f64>() / waits.len() as f64,
            "ms",
        ),
        Metric::new("sched.est_ratio", median(&ratios), "ratio"),
    ])
}

/// Idle reactor pass cost with `conns` open duplex connections.
fn poll_pass_us(front: &mut NetServer, clients: &mut Vec<Duplex>, conns: usize, scale: f64) -> f64 {
    while front.open_connections() < conns {
        clients.push(front.connect());
    }
    front.pump();
    median_ns_batched(scaled(20, scale), 100, || {
        black_box(front.poll());
    }) / 1e3
}

/// Everything measured on the layers themselves (all but the figures
/// that come out of the workload's own blocks, see `main.rs`). The
/// counters of the harness-polled front door are added to `counts`.
pub fn measure(mut inp: Inputs<'_>, counts: &mut Counts) -> Res<Layers> {
    let scale = inp.scale;
    let mut metrics = storage_and_kernels(inp.db, scale)?;
    metrics.extend(codec(inp.plan, inp.refs, scale));

    let sched = Scheduler::new(Arc::clone(inp.db), sched_config(false));
    let mut front = NetServer::with_config(sched, NetConfig::default());
    let dx = NetClient::new(Box::new(front.connect()));
    let mut replay = Replayer {
        front,
        dx,
        spans: SpanRecorder::new(),
        tally: Tally::default(),
    };

    let mut chains = BTreeMap::new();
    let mut first_op = 0;
    for (class, samples) in CHAIN_SAMPLES {
        let samples = scaled(samples, scale);
        chains.insert(class, replay.chain(&mut inp, class, samples, first_op)?);
        first_op += samples;
    }
    // Serial engine time of every class in both modes, with the planning
    // layers timed on the way.
    let mut engine: BTreeMap<(Class, bool), Vec<Serial>> = BTreeMap::new();
    for (class, reps) in ENGINE_REPS {
        let stmt = inp.plan.first_of(class);
        for (is_ar, mode) in [(true, WireMode::ApproxRefine), (false, WireMode::Classic)] {
            let runs = (0..scaled(reps, scale))
                .map(|_| serial(&inp, stmt, mode, &mut replay.tally))
                .collect::<Res<Vec<_>>>()?;
            engine.insert((class, is_ar), runs);
        }
    }
    // Median of one stage over the runs of a class in the given modes.
    let stage_ns = |class: Class, modes: &[bool], stage: fn(&Serial) -> u64| {
        let ns: Vec<f64> = modes
            .iter()
            .flat_map(|&ar| &engine[&(class, ar)])
            .map(|s| stage(s) as f64)
            .collect();
        median(&ns)
    };
    for &(class, is_ar) in engine.keys() {
        let mode = if is_ar { "ar" } else { "classic" };
        metrics.push(Metric::new(
            format!("engine.{mode}_ms.{}", class.label()),
            stage_ns(class, &[is_ar], |s| s.run_ns) / 1e6,
            "ms",
        ));
    }
    // Planning does not depend on the mode: pool both.
    for class in [Class::Probe, Class::Q1] {
        metrics.push(Metric::new(
            format!("sql.parse_bind_us.{}", class.label()),
            stage_ns(class, &[true, false], |s| s.parse_bind_ns) / 1e3,
            "us",
        ));
    }
    for class in [Class::Probe, Class::S, Class::Q14] {
        metrics.push(Metric::new(
            format!("core.rewrite_us.{}", class.label()),
            stage_ns(class, &[true, false], |s| s.rewrite_ns) / 1e3,
            "us",
        ));
    }

    // Refine work wasted per useful row: candidates the approximation
    // let through per tuple that survived refinement.
    let s_sql = &inp.plan.statements[inp.plan.first_of(Class::S)].1;
    let with_answer = ExecMode::ApproxRefineWith(ArExecOptions {
        approximate_answer: true,
        ..ArExecOptions::default()
    });
    let s_run = inp
        .db
        .run_bound(&crate::setup::bind_sql(inp.db, s_sql)?, with_answer)?;
    let candidates = s_run
        .approx
        .as_ref()
        .ok_or("A&R run returned no approximate answer")?
        .candidate_count;
    metrics.push(Metric::new(
        "core.candidates_per_survivor.S",
        candidates as f64 / s_run.survivors.max(1) as f64,
        "ratio",
    ));

    // Scheduler fixed cost on an idle scheduler, from the probe chain's
    // Session level: round trip minus the worker's own exec time, and
    // exec time minus what the engine alone needs.
    let (probe_tcp_self, probe_samples) = &chains[&Class::Probe];
    let overhead: Vec<f64> = probe_samples
        .iter()
        .map(|s| s.session_ns as f64 - s.report.exec.as_nanos() as f64)
        .collect();
    let exec: Vec<f64> = probe_samples
        .iter()
        .map(|s| s.report.exec.as_nanos() as f64)
        .collect();
    let engine_probe = stage_ns(Class::Probe, &[true], |s| s.run_ns);
    metrics.push(Metric::new(
        "sched.fixed_overhead_us",
        median(&overhead) / 1e3,
        "us",
    ));
    metrics.push(Metric::new(
        "sched.exec_minus_engine_us",
        (median(&exec) - engine_probe) / 1e3,
        "us",
    ));
    // The polled front door's round trip beyond the worker's exec time.
    // (Beyond the whole Session replay it has nothing left: that one
    // blocks in `wait_report`, and the futex wake costs more than the
    // front door does.)
    let duplex: Vec<f64> = probe_samples
        .iter()
        .map(|s| s.duplex_ns as f64 - s.report.exec.as_nanos() as f64)
        .collect();
    metrics.push(Metric::new(
        "net.duplex_self_us",
        median(&duplex) / 1e3,
        "us",
    ));
    metrics.push(Metric::new("net.tcp_self_ms", probe_tcp_self / 1e6, "ms"));

    metrics.extend(queue_wait(&inp, replay.front.scheduler(), scale)?);

    let mut idle_clients = Vec::new();
    let c1 = poll_pass_us(&mut replay.front, &mut idle_clients, 1, scale);
    let c64 = poll_pass_us(&mut replay.front, &mut idle_clients, 64, scale);
    metrics.push(Metric::new("net.poll_pass_us.c1", c1, "us"));
    metrics.push(Metric::new("net.poll_pass_us.c64", c64, "us"));

    let pings: Vec<f64> = (0..scaled(100, scale))
        .map(|_| {
            think();
            let (pong, ns) = ns_of(|| inp.tcp.ping());
            pong.map(|()| ns as f64 / 1e6)
        })
        .collect::<waste_not::Result<_>>()?;
    metrics.push(Metric::new("net.tcp_rtt_floor_ms", median(&pings), "ms"));

    counts.add_server(&replay.front);
    Ok(Layers {
        metrics,
        spans: replay.spans,
        tally: replay.tally,
    })
}

/// `data.*`, `engine.load_s`, `storage.decompose_s`,
/// `storage.bytes_per_user_byte` — the set-up stages.
pub fn setup_metrics(times: &SetupTimes, reports: &[DecompositionReport]) -> Vec<Metric> {
    let stored: u64 = reports.iter().map(|r| r.device_bytes + r.host_bytes).sum();
    let plain: u64 = reports.iter().map(|r| r.plain_bytes).sum();
    vec![
        Metric::new("data.gen_s", times.gen_s, "s"),
        Metric::new("engine.load_s", times.load_s, "s"),
        Metric::new("storage.decompose_s", times.decompose_s, "s"),
        Metric::new(
            "storage.bytes_per_user_byte",
            stored as f64 / plain.max(1) as f64,
            "ratio",
        ),
    ]
}
