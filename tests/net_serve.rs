//! The network front door, end to end and deterministically.
//!
//! Four pillars:
//!
//! * **Soak** — a 10 000-request workload multiplexed over in-memory
//!   [`Duplex`] connections. Every response must be *bit-identical* to a
//!   serial reference run of the same plan (rows, traffic counters, and
//!   the simulated cost breakdown compared by `f64::to_bits`), with zero
//!   lost, duplicated or reordered frames, and the reactor-observed peak
//!   scheduler queue depth provably within the backpressure bound.
//! * **Backpressure** — a [`Gate`] freezes the single worker *inside*
//!   device admission and a session fills the queue to the pause
//!   watermark. The reactor must read no request byte (demand stays in
//!   the transport), then fully drain after release; past the shed limit
//!   a decoded request is answered `Busy`.
//! * **TCP smoke** — one real loopback socket, end to end: ping, a SQL
//!   query, and an error round trip.
//! * **The serve loop's wait** — a spawned server sleeps in one poll(2)
//!   while idle and while reads are paused with input readable, and
//!   pipelined probes over TCP and over a duplex all resolve.
//!
//! The wait tests sleep 100 ms for a spinning loop to show in
//! `bwd_net_waits_total`, and 50 ms for a spawned loop to fall asleep
//! before probes reach it; every other loop waits on *state* (responses
//! arrived, admission blocked), with a generous wall-clock bail-out
//! only to turn a deadlock into a loud failure instead of a hung CI job.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bwd_bench::workload::{QuerySpec, WorkloadGen, WorkloadSpec};
use waste_not::device::DeviceSpec;
use waste_not::net::{
    Duplex, Frame, FrameDecoder, IoEvent, NetClient, NetConfig, NetServer, NetServerHandle,
    Transport, WireMode, MAX_INFLIGHT_PER_CONN, PAUSE_QUEUED_JOBS, SHED_QUEUED_JOBS,
};
use waste_not::sched::{SchedConfig, Scheduler};
use waste_not::storage::Column;
use waste_not::{BwdError, Db, Env, ExecMode, QueryResult};

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
    // The bound below stays under the shed limit: every response is a
    // Result. Each connection's ~157 requests fit its pipe eagerly.
    let mut server = NetServer::with_config(sched, NetConfig::default());

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
    // at most the in-flight cap per connection.
    let bound = PAUSE_QUEUED_JOBS + CONNS * MAX_INFLIGHT_PER_CONN;
    assert!(bound < SHED_QUEUED_JOBS);
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

/// A gated worker freezes inside device admission and a session fills
/// the queue to the pause watermark; the reactor must read no request
/// byte, keep the queue bounded, and drain everything once the gate
/// lifts.
#[test]
fn backpressure_pauses_reads_under_gate_and_drains_after_release() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 20;

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
    let mut server = NetServer::with_config(sched, NetConfig::default());

    // Freeze the single worker *inside* admission: the gate job must be
    // pinned to the gated device or placement would route it elsewhere.
    let gate = Gate::block(gen.db().as_ref(), 0).unwrap();
    let session = server.scheduler().session();
    let gate_spec = gen.short();
    let gate_ticket = session.submit_with(gate_spec.plan, gate_spec.mode, gate.submit_options());
    gate.wait_admission_blocked(1);
    // Fill the queue to the watermark behind it.
    let filler = gen.short();
    let filled: Vec<_> = (0..PAUSE_QUEUED_JOBS)
        .map(|_| session.submit(filler.plan.clone(), filler.mode.clone()))
        .collect();

    // Pile up demand on the wire.
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
    // its own — watermark tripped, reads paused, nothing else can happen.
    server.pump();

    let pauses = metric(&server, "bwd_net_read_pauses_total");
    assert!(pauses > 0, "pause watermark must have tripped");
    let queued = server.scheduler().queue_len();
    let bound = PAUSE_QUEUED_JOBS + CONNS * MAX_INFLIGHT_PER_CONN;
    assert!(
        queued <= bound,
        "queue depth {queued} exceeds watermark bound {bound}"
    );
    assert!(
        queued >= PAUSE_QUEUED_JOBS,
        "queue depth {queued} never reached the watermark {PAUSE_QUEUED_JOBS}"
    );
    // Sockets stopped being read: every request byte is still in the
    // transports (where a kernel would hold them), not in the scheduler.
    let read = metric(&server, "bwd_net_bytes_total{dir=\"in\"}");
    assert_eq!(read, 0, "pausing must leave demand in transport buffers");

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
    for ticket in filled {
        ticket.wait().unwrap();
    }

    drop(clients);
    server.into_scheduler().shutdown();
}

/// Past the hard shed limit, decoded requests get a retryable `Busy`
/// instead of a queue slot — while pings still answer.
#[test]
fn hard_shed_limit_answers_busy_without_submitting() {
    let spec = WorkloadSpec {
        long_rows: 800,
        short_rows: 300,
        domain: 300,
        groups: 4,
        ..WorkloadSpec::default()
    };
    let env = Env::with_devices(vec![DeviceSpec::gtx680(); 2]);
    let mut gen = WorkloadGen::with_env(3, spec, env).unwrap();
    let sched = Scheduler::new(
        Arc::clone(gen.db()),
        SchedConfig {
            workers: 1,
            admission_deadline: None,
            aging_threshold: 0, // arrival order
            ..SchedConfig::default()
        },
    );
    let mut server = NetServer::with_config(sched, NetConfig::default());

    // The one worker waits inside card 0's admission; card 1 stays gated
    // to the end.
    let gate = Gate::block(gen.db().as_ref(), 0).unwrap();
    let held = Gate::block(gen.db().as_ref(), 1).unwrap();
    let session = server.scheduler().session();
    let gate_spec = gen.short();
    let gate_ticket = session.submit_with(gate_spec.plan, gate_spec.mode, gate.submit_options());
    gate.wait_admission_blocked(1);

    // Classic scans (which need no card) fill the connection's in-flight
    // cap; the query and the ping behind them are read and decoded, and
    // wait for a slot.
    let scan = server.register_plan(gen.long().plan);
    let mut requests = vec![
        Frame::RunPlan {
            mode: WireMode::Classic,
            plan: scan,
        };
        MAX_INFLIGHT_PER_CONN
    ];
    requests.extend([
        Frame::Query {
            mode: WireMode::Classic,
            sql: "select count(*) from small".into(),
        },
        Frame::Ping,
    ]);
    let mut client = TestClient::new(server.connect());
    client.send_all(&requests);
    server.pump();
    assert_eq!(server.inflight(), MAX_INFLIGHT_PER_CONN);

    // Behind the scans, one more than the shed limit of probes pinned to
    // the gated card 1. Let go, the worker answers the scans in arrival
    // order, then blocks on the first probe: the queue holds the limit.
    let probe = gen.short();
    let fill: Vec<_> = (0..=SHED_QUEUED_JOBS)
        .map(|_| {
            session.submit_with(
                probe.plan.clone(),
                probe.mode.clone(),
                held.submit_options(),
            )
        })
        .collect();
    gate.release();
    gate_ticket.wait().unwrap();
    held.wait_admission_blocked(1);
    assert_eq!(server.scheduler().queue_len(), SHED_QUEUED_JOBS);

    server.pump();
    client.drain();
    assert_eq!(client.responses.len(), MAX_INFLIGHT_PER_CONN + 2);
    assert_eq!(
        client.responses[MAX_INFLIGHT_PER_CONN..],
        [
            Frame::Busy {
                queued: SHED_QUEUED_JOBS as u32
            },
            Frame::Pong
        ],
        "shed responses stay in request order"
    );
    let metrics = server.metrics_text();
    assert!(metrics.contains("bwd_net_busy_shed_total 1"), "{metrics}");
    assert!(
        metrics.contains(&format!("bwd_net_queries_total {MAX_INFLIGHT_PER_CONN}")),
        "{metrics}"
    );
    assert_eq!(server.scheduler().queue_len(), SHED_QUEUED_JOBS);
    drop(client);
    drop(fill);
    held.release();
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

/// How long a wait test's probes may take before the test fails instead
/// of hanging.
const PROBE_DEADLINE: Duration = Duration::from_secs(30);

/// A one-worker server over a 1 000-row table `r`.
fn probe_server() -> NetServer {
    let mut db = Db::new();
    db.create_table(
        "r",
        vec![("a".into(), Column::from_i32((0..1000).collect()))],
    )
    .unwrap();
    let sched = SchedConfig {
        workers: 1,
        ..SchedConfig::default()
    };
    db.serve_net_with(sched, NetConfig::default())
}

/// `n` probes pipelined `depth` deep over `client`; the count of correct
/// answers.
fn pipelined(mut client: NetClient, n: usize, depth: usize) -> Result<usize, BwdError> {
    let probe = Frame::Query {
        mode: WireMode::Classic,
        sql: "select count(*) from r where a < 250".into(),
    };
    let (mut sent, mut answered) = (0, 0);
    while answered < n {
        while sent < n && sent - answered < depth {
            client.send(&probe)?;
            sent += 1;
        }
        match client.recv()? {
            Frame::Result(r) if r.rows[0][0].to_string() == "250" => answered += 1,
            other => return Err(BwdError::Exec(format!("probe {answered}: {other:?}"))),
        }
    }
    Ok(answered)
}

/// Run 2 000 probes 64 deep over `client` against the spawned `handle`,
/// failing by [`PROBE_DEADLINE`] rather than hanging.
fn pipelined_probes_resolve(handle: NetServerHandle, client: NetClient) {
    const PROBES: usize = 2_000;
    // Give the loop time to fall asleep, so that the first requests must
    // wake it (a steady pipeline is carried by its completions alone).
    std::thread::sleep(Duration::from_millis(50));
    let (tx, rx) = mpsc::channel();
    let driver = std::thread::spawn(move || tx.send(pipelined(client, PROBES, 64)));
    match rx.recv_timeout(PROBE_DEADLINE) {
        Ok(answered) => assert_eq!(answered.unwrap(), PROBES),
        Err(e) => {
            // A loop that lost its wake-ups never returns from a join,
            // and neither does the client it starves.
            std::mem::forget(handle);
            panic!("pipelined probes stalled: {e}");
        }
    }
    driver.join().unwrap().unwrap();
    let server = handle.shutdown();
    let metrics = server.metrics_text();
    assert!(
        metrics.contains(&format!("bwd_net_queries_total {PROBES}")),
        "{metrics}"
    );
    server.into_scheduler().shutdown();
}

/// A spawned server left idle sleeps in one wait: no timer ends it.
#[test]
fn an_idle_spawned_server_sleeps_in_one_wait() {
    let mut server = probe_server();
    server.bind(("127.0.0.1", 0)).unwrap();
    let handle = server.spawn();
    std::thread::sleep(Duration::from_millis(100));
    let server = handle.shutdown();
    let waits = metric(&server, "bwd_net_waits_total");
    assert!(waits <= 2, "an idle loop woke {waits} times in 100 ms");
    server.into_scheduler().shutdown();
}

/// Reads paused with request bytes readable on a TCP connection: the
/// loop does not poll that input, so it sleeps instead of spinning; the
/// worker's next dequeue wakes it, and the request is answered.
#[test]
fn a_paused_connection_with_input_sleeps_until_the_queue_moves() {
    let mut gen = WorkloadGen::new(
        11,
        WorkloadSpec {
            long_rows: 800,
            short_rows: 300,
            domain: 300,
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
    let mut server = NetServer::with_config(sched, NetConfig::default());
    let addr = server.bind(("127.0.0.1", 0)).unwrap();
    let gate = Gate::block(gen.db().as_ref(), 0).unwrap();
    let session = server.scheduler().session();
    let gate_spec = gen.short();
    let gate_ticket = session.submit_with(gate_spec.plan, gate_spec.mode, gate.submit_options());
    gate.wait_admission_blocked(1);
    let filler = gen.short();
    let filled: Vec<_> = (0..PAUSE_QUEUED_JOBS)
        .map(|_| session.submit(filler.plan.clone(), filler.mode.clone()))
        .collect();

    let mut peer = TcpStream::connect(addr).unwrap();
    peer.set_read_timeout(Some(PROBE_DEADLINE)).unwrap();
    peer.write_all(&Frame::Ping.encode()).unwrap();
    let handle = server.spawn();
    std::thread::sleep(Duration::from_millis(100));
    let server = handle.shutdown();
    let waits = metric(&server, "bwd_net_waits_total");
    let frames_in = metric(&server, "bwd_net_frames_total{dir=\"in\"}");

    // Served again, with the gate lifted first: a failed assertion then
    // tears down instead of joining a frozen worker.
    let handle = server.spawn();
    gate.release();
    assert!(waits <= 2, "a paused loop woke {waits} times in 100 ms");
    assert_eq!(frames_in, 0, "a paused connection was read");
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 64];
    let pong = loop {
        if let Some(frame) = decoder.next().unwrap() {
            break frame;
        }
        match peer.read(&mut chunk) {
            Ok(n) if n > 0 => decoder.feed(&chunk[..n]),
            other => {
                std::mem::forget(handle);
                panic!("no pong once the queue moved: {other:?}");
            }
        }
    };
    assert_eq!(pong, Frame::Pong);
    gate_ticket.wait().unwrap();
    for ticket in filled {
        ticket.wait().unwrap();
    }
    handle.shutdown().into_scheduler().shutdown();
}

/// 2 000 probes pipelined 64 deep over loopback TCP to a spawned
/// one-worker server all resolve.
#[test]
fn pipelined_tcp_probes_all_resolve() {
    let mut server = probe_server();
    let addr = server.bind(("127.0.0.1", 0)).unwrap();
    let handle = server.spawn();
    pipelined_probes_resolve(handle, NetClient::connect_tcp(addr).unwrap());
}

/// The same over an in-memory duplex: the peer's writes wake the loop.
#[test]
fn pipelined_duplex_probes_all_resolve() {
    let mut server = probe_server();
    let client = NetClient::new(Box::new(server.connect()));
    pipelined_probes_resolve(server.spawn(), client);
}
