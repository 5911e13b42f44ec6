//! The network front door, end to end and deterministically.
//!
//! Three pillars:
//!
//! * **Soak** — a 10 000-request workload multiplexed over in-memory
//!   [`Duplex`] connections. Every response must be *bit-identical* to a
//!   serial reference run of the same plan (rows, traffic counters, and
//!   the simulated cost breakdown compared by `f64::to_bits`), with zero
//!   lost, duplicated or reordered frames, and the reactor-observed peak
//!   scheduler queue depth provably within the backpressure bound.
//! * **Backpressure** — a [`Gate`] freezes the single worker *inside*
//!   device admission while clients keep writing. The reactor must stop
//!   reading sockets once the pause watermark trips (demand stays in the
//!   transport, the queue stays bounded), then fully drain after release.
//! * **TCP smoke** — one real loopback socket, end to end: ping, a SQL
//!   query, and an error round trip.
//!
//! No sleeps anywhere: every loop waits on *state* (responses arrived,
//! admission blocked), with a generous wall-clock bail-out only to turn
//! a deadlock into a loud failure instead of a hung CI job.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bwd_bench::workload::{QuerySpec, WorkloadGen, WorkloadSpec};
use waste_not::net::{
    Duplex, Frame, FrameDecoder, IoEvent, NetClient, NetConfig, NetServer, Transport, WireMode,
};
use waste_not::sched::{SchedConfig, Scheduler};
use waste_not::storage::Column;
use waste_not::{BwdError, Db, ExecMode, QueryResult};

#[path = "support/gate.rs"]
mod gate;
use gate::Gate;

/// The value of the `bwd_net_*` metric `name` in the server's rendering.
fn metric(server: &NetServer, name: &str) -> usize {
    let text = server.metrics_text();
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
    line.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} in {text}"))
}

const DEADLINE: Duration = Duration::from_secs(120);

fn wire_mode(mode: &ExecMode) -> WireMode {
    match mode {
        ExecMode::Classic => WireMode::Classic,
        _ => WireMode::ApproxRefine,
    }
}

/// A test-side client: one duplex end, eager writes, non-blocking drain.
struct TestClient {
    transport: Duplex,
    decoder: FrameDecoder,
    responses: Vec<Frame>,
    eof: bool,
}

impl TestClient {
    fn new(transport: Duplex) -> TestClient {
        TestClient {
            transport,
            decoder: FrameDecoder::new(),
            responses: Vec::new(),
            eof: false,
        }
    }

    /// Write `frames` into the pipe (panics if the pipe fills — test
    /// configs size capacities so requests always fit).
    fn send_all(&mut self, frames: &[Frame]) {
        let mut buf = Vec::new();
        for f in frames {
            f.encode_into(&mut buf);
        }
        let mut pos = 0;
        while pos < buf.len() {
            match self.transport.try_write(&buf[pos..]).unwrap() {
                IoEvent::Bytes(n) => pos += n,
                other => panic!("request pipe refused bytes: {other:?}"),
            }
        }
    }

    /// Pull everything readable right now into decoded responses.
    fn drain(&mut self) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.transport.try_read(&mut chunk).unwrap() {
                IoEvent::Bytes(n) => self.decoder.feed(&chunk[..n]),
                IoEvent::WouldBlock => break,
                IoEvent::Eof => {
                    self.eof = true;
                    break;
                }
            }
        }
        while let Some(f) = self.decoder.next().unwrap() {
            self.responses.push(f);
        }
    }
}

fn unwrap_result(frame: &Frame) -> &QueryResult {
    match frame {
        Frame::Result(r) => r,
        other => panic!("expected result frame, got {other:?}"),
    }
}

/// Bitwise comparison of a response against the serial reference —
/// stricter than `PartialEq` for the simulated `f64` costs.
fn assert_bit_identical(got: &QueryResult, want: &QueryResult, ctx: &str) {
    assert_eq!(got.columns, want.columns, "{ctx}: columns");
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
    match (&got.approx, &want.approx) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            assert_eq!(g.candidate_count, w.candidate_count, "{ctx}: candidates");
            for (g, w, label) in [
                (g.breakdown.device, w.breakdown.device, "approx device"),
                (g.breakdown.host, w.breakdown.host, "approx host"),
                (g.breakdown.pcie, w.breakdown.pcie, "approx pcie"),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {label} cost bits");
            }
        }
        (g, w) => panic!("{ctx}: approx presence differs: {g:?} vs {w:?}"),
    }
}

/// 10 000 requests over 64 multiplexed duplex connections: bit-identical
/// responses, zero lost/duplicated frames, bounded peak queue depth.
#[test]
fn soak_10k_sessions_bit_identical_and_bounded() {
    const TOTAL: usize = 10_000;
    const CONNS: usize = 64;
    const PAUSE_QUEUED: usize = 64;
    const MAX_INFLIGHT: usize = 8;

    let mut gen = WorkloadGen::new(
        0xC0FFEE,
        WorkloadSpec {
            long_rows: 1_500,
            short_rows: 600,
            domain: 600,
            groups: 8,
            ..WorkloadSpec::default()
        },
    )
    .unwrap();
    // Mostly short probes with a stream of long scans mixed in,
    // deterministically shuffled by the seed.
    let batch: Vec<QuerySpec> = gen.mixed(TOTAL - TOTAL / 10, TOTAL / 10);
    assert_eq!(batch.len(), TOTAL);

    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 4,
            admission_deadline: None,
            ..SchedConfig::default()
        },
    );
    let mut server = NetServer::with_config(
        sched,
        NetConfig {
            pause_queued_jobs: PAUSE_QUEUED,
            shed_queued_jobs: usize::MAX, // soak never sheds: every response is a Result
            max_inflight_per_conn: MAX_INFLIGHT,
            duplex_capacity: 1 << 20, // each conn's ~157 requests fit eagerly
            ..NetConfig::default()
        },
    );

    // Register every plan; request k rides connection k % CONNS.
    let requests: Vec<Frame> = batch
        .iter()
        .map(|q| Frame::RunPlan {
            mode: wire_mode(&q.mode),
            plan: server.register_plan(q.plan.clone()),
        })
        .collect();
    let mut clients: Vec<TestClient> = (0..CONNS)
        .map(|_| TestClient::new(server.connect()))
        .collect();
    for (c, client) in clients.iter_mut().enumerate() {
        let mine: Vec<Frame> = requests.iter().skip(c).step_by(CONNS).cloned().collect();
        client.send_all(&mine);
    }

    // Drive the reactor until every response has landed client-side.
    let deadline = Instant::now() + DEADLINE;
    loop {
        let progressed = server.poll();
        for client in clients.iter_mut() {
            client.drain();
        }
        let done: usize = clients.iter().map(|c| c.responses.len()).sum();
        if done == TOTAL {
            break;
        }
        assert!(Instant::now() < deadline, "soak stalled at {done}/{TOTAL}");
        if !progressed {
            std::thread::yield_now(); // workers are busy; let them run
        }
    }

    // Zero lost or duplicated frames: exactly one response per request,
    // per connection, in request order — verified bit-for-bit against
    // the serial reference run of the same spec.
    for (c, client) in clients.iter().enumerate() {
        let expected = TOTAL / CONNS + usize::from(c < TOTAL % CONNS);
        assert_eq!(client.responses.len(), expected, "conn {c} frame count");
        for (i, frame) in client.responses.iter().enumerate() {
            let spec = &batch[i * CONNS + c];
            let want = gen.reference(spec).unwrap();
            assert_bit_identical(unwrap_result(frame), &want, &format!("conn {c} req {i}"));
        }
    }

    // The backpressure bound: the reactor re-probes pressure before
    // every socket read, so the queue can only overshoot the pause
    // watermark by frames already decoded but not yet submitted —
    // at most MAX_INFLIGHT per connection.
    let bound = PAUSE_QUEUED + CONNS * MAX_INFLIGHT;
    let peak = metric(&server, "bwd_net_peak_queue_depth");
    assert!(peak > 0, "soak must actually exercise the queue");
    assert!(
        peak <= bound,
        "peak queue depth {peak} exceeds bound {bound}"
    );

    // Metrics agree with the client-side tally.
    let metrics = server.metrics_text();
    assert!(
        metrics.contains(&format!("bwd_net_queries_total {TOTAL}")),
        "{metrics}"
    );
    assert!(metrics.contains("bwd_net_busy_shed_total 0"), "{metrics}");
    assert!(
        metrics.contains("bwd_net_protocol_errors_total 0"),
        "{metrics}"
    );

    drop(clients);
    server.into_scheduler().shutdown();
}

/// A gated worker freezes inside device admission; the reactor must stop
/// reading sockets at the watermark, keep the queue bounded, and drain
/// everything once the gate lifts.
#[test]
fn backpressure_pauses_reads_under_gate_and_drains_after_release() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 20;
    const PAUSE_QUEUED: usize = 8;
    const MAX_INFLIGHT: usize = 4;

    let mut gen = WorkloadGen::new(
        7,
        WorkloadSpec {
            long_rows: 1_000,
            short_rows: 400,
            domain: 400,
            groups: 4,
            ..WorkloadSpec::default()
        },
    )
    .unwrap();
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
            pause_queued_jobs: PAUSE_QUEUED,
            shed_queued_jobs: usize::MAX,
            max_inflight_per_conn: MAX_INFLIGHT,
            read_chunk: 64, // a few frames per read: pausing leaves bytes in the pipe
            ..NetConfig::default()
        },
    );

    // Freeze the single worker *inside* admission: the gate job must be
    // pinned to the gated device or placement would route it elsewhere.
    let gate = Gate::block(gen.db().as_ref(), 0).unwrap();
    let session = server.scheduler().session();
    let gate_spec = gen.short();
    let gate_ticket = session.submit_with(gate_spec.plan, gate_spec.mode, gate.submit_options());
    gate.wait_admission_blocked(1);

    // Pile up demand: far more requests than the bound admits.
    let batch: Vec<QuerySpec> = gen.mixed(CONNS * PER_CONN, 0);
    let plan_ids: Vec<u64> = batch
        .iter()
        .map(|q| server.register_plan(q.plan.clone()))
        .collect();
    let mut clients: Vec<TestClient> = (0..CONNS)
        .map(|_| TestClient::new(server.connect()))
        .collect();
    for (c, client) in clients.iter_mut().enumerate() {
        let mine: Vec<Frame> = plan_ids
            .iter()
            .skip(c)
            .step_by(CONNS)
            .map(|&plan| Frame::RunPlan {
                mode: WireMode::ApproxRefine,
                plan,
            })
            .collect();
        client.send_all(&mine);
    }

    // With the worker frozen, pump to quiescence: the reactor stops on
    // its own — watermark trips, reads pause, nothing else can happen.
    server.pump();

    let pauses = metric(&server, "bwd_net_read_pauses_total");
    assert!(pauses > 0, "pause watermark must have tripped");
    let queued = server.scheduler().queue_len();
    let bound = PAUSE_QUEUED + CONNS * MAX_INFLIGHT;
    assert!(
        queued <= bound,
        "queue depth {queued} exceeds watermark bound {bound}"
    );
    assert!(
        queued >= PAUSE_QUEUED,
        "queue depth {queued} never reached the watermark {PAUSE_QUEUED}"
    );
    // Sockets stopped being read: unconsumed request bytes remain in the
    // transports (where a kernel would hold them), not in the scheduler.
    let parked: usize = clients.iter().map(|c| c.transport.unflushed()).sum();
    assert!(parked > 0, "pausing must leave demand in transport buffers");

    // Lift the gate: everything drains, nothing is lost.
    gate.release();
    gate_ticket.wait().unwrap();
    let deadline = Instant::now() + DEADLINE;
    loop {
        let progressed = server.poll();
        for client in clients.iter_mut() {
            client.drain();
        }
        let done: usize = clients.iter().map(|c| c.responses.len()).sum();
        if done == CONNS * PER_CONN {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain stalled at {done}/{}",
            CONNS * PER_CONN
        );
        if !progressed {
            std::thread::yield_now();
        }
    }
    for (c, client) in clients.iter().enumerate() {
        assert_eq!(client.responses.len(), PER_CONN, "conn {c} fully drained");
        for (i, frame) in client.responses.iter().enumerate() {
            let want = gen.reference(&batch[i * CONNS + c]).unwrap();
            assert_bit_identical(unwrap_result(frame), &want, &format!("conn {c} req {i}"));
        }
    }

    drop(clients);
    server.into_scheduler().shutdown();
}

/// Past the hard shed limit, decoded requests get a retryable `Busy`
/// instead of a queue slot — while pings still answer.
#[test]
fn hard_shed_limit_answers_busy_without_submitting() {
    let gen = WorkloadGen::new(
        3,
        WorkloadSpec {
            long_rows: 800,
            short_rows: 300,
            domain: 300,
            groups: 4,
            ..WorkloadSpec::default()
        },
    )
    .unwrap();
    let sched = Scheduler::new(Arc::clone(gen.db()), SchedConfig::default());
    let mut server = NetServer::with_config(
        sched,
        NetConfig {
            shed_queued_jobs: 0, // shed everything: the pure shed path
            ..NetConfig::default()
        },
    );
    let mut client = TestClient::new(server.connect());
    client.send_all(&[
        Frame::Query {
            mode: WireMode::Classic,
            sql: "select count(*) from small".into(),
        },
        Frame::Ping,
    ]);
    server.pump();
    client.drain();
    assert_eq!(
        client.responses,
        vec![Frame::Busy { queued: 0 }, Frame::Pong],
        "shed responses stay in request order"
    );
    let metrics = server.metrics_text();
    assert!(metrics.contains("bwd_net_busy_shed_total 1"), "{metrics}");
    assert!(metrics.contains("bwd_net_queries_total 0"), "{metrics}");
    drop(client);
    server.into_scheduler().shutdown();
}

/// A peer that frames one message wrong gets a protocol-error frame and
/// a server-initiated close — never a panic, never a desynced decode.
#[test]
fn corrupt_stream_gets_error_frame_then_close() {
    let gen = WorkloadGen::new(
        5,
        WorkloadSpec {
            long_rows: 800,
            short_rows: 300,
            domain: 300,
            groups: 4,
            ..WorkloadSpec::default()
        },
    )
    .unwrap();
    let sched = Scheduler::new(Arc::clone(gen.db()), SchedConfig::default());
    let mut server = NetServer::with_config(sched, NetConfig::default());
    let mut client = TestClient::new(server.connect());

    // A valid ping, then an unknown frame type.
    let mut bytes = Frame::Ping.encode();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&[0x7F, 0x00]);
    let mut pos = 0;
    while pos < bytes.len() {
        match client.transport.try_write(&bytes[pos..]).unwrap() {
            IoEvent::Bytes(n) => pos += n,
            other => panic!("pipe refused bytes: {other:?}"),
        }
    }
    server.pump();
    client.drain();

    assert_eq!(client.responses.len(), 2, "pong, then the protocol error");
    assert_eq!(client.responses[0], Frame::Pong);
    match &client.responses[1] {
        Frame::Error { error, retryable } => {
            assert!(!retryable);
            assert!(matches!(error, BwdError::Exec(m) if m.contains("unknown frame type")));
        }
        other => panic!("expected error frame, got {other:?}"),
    }
    assert!(client.eof, "server closes a connection it cannot trust");
    assert_eq!(server.open_connections(), 0);
    server.into_scheduler().shutdown();
}

/// One real TCP connection, end to end: bind an ephemeral loopback port,
/// spawn the serve loop, ping, query, error round trip, clean shutdown.
#[test]
fn tcp_loopback_smoke() {
    let mut db = Db::new();
    db.create_table(
        "r",
        vec![("a".into(), Column::from_i32((0..1000).collect()))],
    )
    .unwrap();
    let mut server = db.serve_net(NetConfig::default());
    let addr = server.bind(("127.0.0.1", 0)).unwrap();
    let handle = server.spawn();

    let mut client = NetClient::connect_tcp(addr).unwrap();
    client.ping().unwrap();

    let result = client
        .query("select count(*) from r where a < 250", WireMode::Classic)
        .unwrap();
    assert_eq!(result.rows[0][0].to_string(), "250");

    let err = client
        .query("select nonsense syntax here", WireMode::Classic)
        .unwrap_err();
    assert!(matches!(err, BwdError::Parse(_)), "got {err:?}");

    // The connection survives the error (it was the query's, not the
    // protocol's) — it still answers.
    client.ping().unwrap();

    let server = handle.shutdown();
    let metrics = server.metrics_text();
    assert!(metrics.contains("bwd_net_accepted_total 1"), "{metrics}");
    // One *submitted* query: the parse failure errored before submission.
    assert!(metrics.contains("bwd_net_queries_total 1"), "{metrics}");
    assert!(
        metrics.contains("bwd_net_frames_total{dir=\"in\"} 4"),
        "{metrics}"
    );
    assert!(
        metrics.contains("bwd_net_frames_total{dir=\"out\"} 4"),
        "{metrics}"
    );
    server.into_scheduler().shutdown();
}
