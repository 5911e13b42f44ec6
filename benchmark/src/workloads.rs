//! The four workloads and their load generators.
//!
//! One process, at most two generator threads (named `bench-gen-*` so
//! their CPU can be told apart, see [`crate::proc`]), at most two
//! connections. A measured phase is one discarded warm-up block plus as
//! many blocks of *identical work* as fit the time budget; every timing
//! metric is later taken as the median over the block values.

use crate::check::{References, Tally};
use crate::gen::{Class, Op, Plan};
use crate::openloop::{self, Link};
use crate::proc::{thread_cpu, CpuNs, GENERATOR_PREFIX};
use crate::wire::{response_of, WireConn, RESPONSE_TIMEOUT};
use crate::Res;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use waste_not::net::{Frame, WireMode};
use waste_not::{NetClient, QueryResult};

/// Serial round trips per `probe_net` block (phase A).
pub const PROBE_SERIAL: usize = 200;
/// Pause before each serial round trip. Without it the round trip is
/// bistable: when the client turns around faster than the reactor's
/// next idle pass (a race of a few microseconds) the reactor never
/// parks and the round trip is 0.1 ms; when it loses, the request waits
/// out `NetConfig::poll_interval` and the round trip is 2.2 ms. The
/// pause lets the reactor park every time, which is the regime phase A
/// is there to measure.
pub const PROBE_THINK: Duration = Duration::from_micros(200);
/// Pipelined requests per `probe_net` block (phase B).
pub const PROBE_PIPELINED: usize = 12_000;
/// Requests kept in flight in phase B: more than the worker can drain
/// while the generator is descheduled, so the queue never empties and
/// the reactor never falls into its drain-then-sleep convoy (16 in
/// flight flips between 5.5 k/s and 19 k/s from block to block).
pub const PIPELINE_DEPTH: usize = 64;
/// Open-loop probe rate of `mixed_streams`, requests per second.
pub const OPEN_LOOP_RATE: u32 = 40;
/// Probes per `mixed_streams` block (one second of schedule).
pub const MIXED_PROBES: usize = 40;
/// Bulk scans per `mixed_streams` bulk block.
pub const MIXED_SCANS: usize = 8;
/// Fewest measured blocks a run accepts, whatever the budget.
pub const MIN_BLOCKS: usize = 3;

/// A workload of the benchmark (names are fixed by BENCHMARK.json).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Probes: serial round trips, then a saturated pipeline.
    ProbeNet,
    /// The scan cycle in A&R mode.
    ScanAr,
    /// The identical scan cycle in Classic mode.
    ScanClassic,
    /// Classic Q6 closed loop beside open-loop probes.
    MixedStreams,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ProbeNet,
        Workload::ScanAr,
        Workload::ScanClassic,
        Workload::MixedStreams,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProbeNet => "probe_net",
            Workload::ScanAr => "scan_ar",
            Workload::ScanClassic => "scan_classic",
            Workload::MixedStreams => "mixed_streams",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Statement index → "A&R reference needed" for the correctness gate.
    pub fn reference_needs(self, plan: &Plan) -> BTreeMap<usize, bool> {
        let probes = plan.probes.iter().map(|op| (op.statement, true));
        let cycle = plan.scan_cycle.iter().map(|op| op.statement);
        match self {
            Workload::ProbeNet => probes.collect(),
            Workload::ScanAr => cycle.map(|s| (s, true)).collect(),
            Workload::ScanClassic => cycle.map(|s| (s, false)).collect(),
            Workload::MixedStreams => probes.chain([(plan.first_of(Class::Q6), false)]).collect(),
        }
    }
}

/// Simulated cost and traffic summed over one block of each stream —
/// identical work, so the sums repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimBlock {
    /// Requests summed.
    pub ops: u64,
    /// Simulated device seconds.
    pub device_s: f64,
    /// Simulated host seconds.
    pub host_s: f64,
    /// Simulated PCI-E seconds.
    pub pcie_s: f64,
    /// Bytes over PCI-E.
    pub pcie_bytes: u64,
    /// Bytes through host memory.
    pub host_bytes: u64,
}

impl SimBlock {
    fn add(&mut self, r: &QueryResult) {
        self.ops += 1;
        self.device_s += r.breakdown.device;
        self.host_s += r.breakdown.host;
        self.pcie_s += r.breakdown.pcie;
        self.pcie_bytes += r.traffic.pcie;
        self.host_bytes += r.traffic.host;
    }

    fn plus(mut self, o: SimBlock) -> SimBlock {
        self.ops += o.ops;
        self.device_s += o.device_s;
        self.host_s += o.host_s;
        self.pcie_s += o.pcie_s;
        self.pcie_bytes += o.pcie_bytes;
        self.host_bytes += o.host_bytes;
        self
    }

    /// Mean simulated milliseconds per request.
    pub fn total_ms_per_query(&self) -> f64 {
        (self.device_s + self.host_s + self.pcie_s) * 1e3 / self.ops.max(1) as f64
    }
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Requests attempted and failed, warm-up included.
    pub tally: Tally,
    /// Operations per second of each measured block.
    pub throughput: Vec<f64>,
    /// Latencies (ms) of the primary class, one vector per block.
    pub primary_lat_ms: Vec<Vec<f64>>,
    /// Latencies (ms) of every class over all measured blocks.
    pub class_lat_ms: BTreeMap<Class, Vec<f64>>,
    /// Wall seconds of each measured block.
    pub block_wall_s: Vec<f64>,
    /// CPU spent in the CPU-metered part of each measured block, with
    /// the operations completed there; `None` when per-thread
    /// accounting is unavailable.
    pub block_cpu: Vec<(Option<CpuNs>, u64)>,
    /// Simulated cost of one block of each stream.
    pub sim: SimBlock,
    /// How late the open-loop generator sent (ms), per probe.
    pub lateness_ms: Vec<f64>,
}

/// Wait out [`PROBE_THINK`] (spinning: `sleep` overshoots by a third).
pub fn think() {
    let pause = Instant::now();
    while pause.elapsed() < PROBE_THINK {
        std::hint::spin_loop();
    }
}

/// The probe requests of `plan`, encoded once, in send order.
fn encoded_probes(plan: &Plan) -> Vec<Vec<u8>> {
    plan.probes
        .iter()
        .map(|op| {
            Frame::Query {
                mode: WireMode::ApproxRefine,
                sql: plan.statements[op.statement].1.clone(),
            }
            .encode()
        })
        .collect()
}

/// A closed-loop connection: the spinning `NetClient` or the blocking
/// [`WireConn`].
trait Client {
    fn query(&mut self, sql: &str, mode: WireMode) -> waste_not::Result<QueryResult>;
    /// Busy retries and reconnects the client absorbed: failures too.
    fn absorbed_failures(&self) -> u64;
}

impl Client for NetClient {
    fn query(&mut self, sql: &str, mode: WireMode) -> waste_not::Result<QueryResult> {
        NetClient::query(self, sql, mode)
    }

    fn absorbed_failures(&self) -> u64 {
        self.busy_retries_used() + self.reconnects_used()
    }
}

impl Client for WireConn {
    fn query(&mut self, sql: &str, mode: WireMode) -> waste_not::Result<QueryResult> {
        WireConn::query(self, sql, mode)
    }

    fn absorbed_failures(&self) -> u64 {
        0
    }
}

/// One generator thread's connection, gate and tally.
struct Generator<'a, C> {
    client: C,
    plan: &'a Plan,
    refs: &'a References,
    tally: Tally,
}

impl<'a, C: Client> Generator<'a, C> {
    fn new(client: C, plan: &'a Plan, refs: &'a References) -> Self {
        Generator {
            client,
            plan,
            refs,
            tally: Tally::default(),
        }
    }

    /// One closed-loop request: its wall latency; its simulated cost is
    /// added to `sim` when the response passed the gate.
    fn closed(&mut self, op: &Op, mode: WireMode, sim: &mut SimBlock) -> f64 {
        let sql = &self.plan.statements[op.statement].1;
        let t = Instant::now();
        let response = self.client.query(sql, mode);
        let lat = t.elapsed().as_secs_f64() * 1e3;
        if let Some(got) = self.tally.record(self.refs, op.statement, mode, &response) {
            sim.add(got);
        }
        lat
    }

    fn finish(mut self) -> Tally {
        self.tally.failed += self.client.absorbed_failures();
        self.tally
    }
}

impl Generator<'_, WireConn> {
    /// `n` probe requests cycling through `requests`, [`PIPELINE_DEPTH`]
    /// in flight. A broken connection fails everything still owed.
    fn pipelined(&mut self, requests: &[Vec<u8>], n: usize, sim: &mut SimBlock) {
        let mode = WireMode::ApproxRefine;
        let probes = &self.plan.probes;
        let (mut sent, mut received) = (0usize, 0usize);
        while received < n {
            let response = (|| {
                while sent < n && sent - received < PIPELINE_DEPTH {
                    self.client.send(&requests[sent % requests.len()])?;
                    sent += 1;
                }
                match self.client.recv(RESPONSE_TIMEOUT)? {
                    Some(frame) => Ok(response_of(frame)),
                    None => Err(waste_not::BwdError::Exec("net i/o: no response".into())),
                }
            })();
            match response {
                Ok(response) => {
                    let op = &probes[received % probes.len()];
                    if let Some(got) = self.tally.record(self.refs, op.statement, mode, &response) {
                        sim.add(got);
                    }
                    received += 1;
                }
                Err(e) => {
                    eprintln!("FAILED: pipelined connection: {e}");
                    self.tally.attempted += (n - received) as u64;
                    self.tally.failed += (n - received) as u64;
                    return;
                }
            }
        }
    }
}

/// Run blocks until the budget is spent: one warm-up (its outcome is
/// dropped), then measured blocks while another one still fits, but at
/// least `min_blocks`. `block(index)` runs one block; index 0 is the
/// warm-up, index 1 the first measured block.
fn run_blocks<T>(seconds: f64, min_blocks: usize, mut block: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    drop(block(0));
    let mut last = start.elapsed().as_secs_f64();
    let mut out = Vec::new();
    while out.len() < min_blocks || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        out.push(block(out.len() + 1));
        last = t.elapsed().as_secs_f64();
    }
    out
}

fn spawn_generator<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    index: usize,
    body: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .name(format!("{GENERATOR_PREFIX}-{index}"))
        .spawn_scoped(scope, body)
        .expect("spawn generator thread")
}

fn in_generator<T: Send>(body: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        spawn_generator(scope, 0, body)
            .join()
            .expect("generator thread panicked")
    })
}

fn cpu_since(then: Option<CpuNs>) -> Option<CpuNs> {
    thread_cpu().zip(then).map(|(now, then)| now.since(&then))
}

/// How long a run measures and the fewest blocks it accepts.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds of measured phase, warm-up block included.
    pub seconds: f64,
    /// Fewest measured blocks, whatever the seconds say.
    pub min_blocks: usize,
}

struct ProbeNetBlock {
    serial_lat_ms: Vec<f64>,
    pipelined_wall_s: f64,
    cpu: Option<CpuNs>,
    sim: SimBlock,
}

/// `probe_net`: phase A measures the round trip against a parked
/// reactor (spinning `NetClient`, depth 1), phase B the saturated
/// pipeline (blocking connection, [`PIPELINE_DEPTH`] in flight).
pub fn probe_net(
    serial: NetClient,
    addr: SocketAddr,
    plan: &Plan,
    refs: &References,
    budget: Budget,
) -> Res<Measured> {
    let mode = WireMode::ApproxRefine;
    let requests = encoded_probes(plan);
    let pipeline = WireConn::connect(addr)?;
    let (blocks, tally) = in_generator(|| {
        let mut a = Generator::new(serial, plan, refs);
        let mut b = Generator::new(pipeline, plan, refs);
        let blocks = run_blocks(budget.seconds, budget.min_blocks, |_| {
            let mut sim = SimBlock::default();
            let serial_lat_ms = (0..PROBE_SERIAL)
                .map(|i| {
                    think();
                    a.closed(&plan.probes[i % plan.probes.len()], mode, &mut sim)
                })
                .collect();
            let cpu0 = thread_cpu();
            let t = Instant::now();
            b.pipelined(&requests, PROBE_PIPELINED, &mut sim);
            let pipelined_wall_s = t.elapsed().as_secs_f64();
            ProbeNetBlock {
                serial_lat_ms,
                pipelined_wall_s,
                cpu: cpu_since(cpu0),
                sim,
            }
        });
        (blocks, a.finish().plus(b.finish()))
    });

    let mut m = Measured {
        tally,
        sim: blocks[0].sim,
        ..Measured::default()
    };
    for b in blocks {
        m.throughput
            .push(PROBE_PIPELINED as f64 / b.pipelined_wall_s);
        m.block_wall_s.push(b.pipelined_wall_s);
        m.class_lat_ms
            .entry(Class::Probe)
            .or_default()
            .extend(&b.serial_lat_ms);
        m.primary_lat_ms.push(b.serial_lat_ms);
        m.block_cpu.push((b.cpu, PROBE_PIPELINED as u64));
    }
    Ok(m)
}

struct ScanBlock {
    wall_s: f64,
    lat_ms: Vec<(Class, f64)>,
    cpu: Option<CpuNs>,
    sim: SimBlock,
}

/// `scan_ar` / `scan_classic`: the 16-op cycle, closed loop, depth 1,
/// through `NetClient`.
pub fn scan(
    client: NetClient,
    plan: &Plan,
    refs: &References,
    mode: WireMode,
    budget: Budget,
) -> Measured {
    let (blocks, tally) = in_generator(|| {
        let mut g = Generator::new(client, plan, refs);
        let blocks = run_blocks(budget.seconds, budget.min_blocks, |_| {
            let mut sim = SimBlock::default();
            let cpu0 = thread_cpu();
            let t = Instant::now();
            let lat_ms = plan
                .scan_cycle
                .iter()
                .map(|op| (op.class, g.closed(op, mode, &mut sim)))
                .collect();
            ScanBlock {
                wall_s: t.elapsed().as_secs_f64(),
                lat_ms,
                cpu: cpu_since(cpu0),
                sim,
            }
        });
        (blocks, g.finish())
    });

    let mut m = Measured {
        tally,
        sim: blocks[0].sim,
        ..Measured::default()
    };
    for b in blocks {
        m.throughput.push(b.lat_ms.len() as f64 / b.wall_s);
        m.block_wall_s.push(b.wall_s);
        m.block_cpu.push((b.cpu, b.lat_ms.len() as u64));
        let mut primary = Vec::new();
        for (class, lat) in b.lat_ms {
            m.class_lat_ms.entry(class).or_default().push(lat);
            if class == Class::S {
                primary.push(lat);
            }
        }
        m.primary_lat_ms.push(primary);
    }
    m
}

/// The open-loop probe connection of `mixed_streams`.
struct ProbeLink<'a> {
    origin: Instant,
    conn: WireConn,
    /// Encoded probe requests, cycled.
    requests: &'a [Vec<u8>],
    plan: &'a Plan,
    refs: &'a References,
    tally: Tally,
    /// Requests sent / responses received so far, over all blocks.
    sent: usize,
    received: usize,
    /// Simulated cost of the responses since it was last taken.
    sim: SimBlock,
    broken: bool,
}

impl ProbeLink<'_> {
    fn fail(&mut self, why: &dyn std::fmt::Display) {
        if !self.broken {
            eprintln!("FAILED: open-loop connection: {why}");
        }
        self.broken = true;
    }

    /// Everything sent but unanswered on a broken link has failed.
    fn write_off(&mut self) -> usize {
        let owed = self.sent - self.received;
        self.tally.attempted += owed as u64;
        self.tally.failed += owed as u64;
        self.received = self.sent;
        owed
    }

    fn on_frame(&mut self, frame: Frame) {
        let op = &self.plan.probes[self.received % self.plan.probes.len()];
        let response = response_of(frame);
        if let Some(got) =
            self.tally
                .record(self.refs, op.statement, WireMode::ApproxRefine, &response)
        {
            self.sim.add(got);
        }
        self.received += 1;
    }
}

impl Link for ProbeLink<'_> {
    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn send(&mut self, _i: usize) {
        let request = &self.requests[self.sent % self.requests.len()];
        self.sent += 1;
        if !self.broken {
            if let Err(e) = self.conn.send(request) {
                self.fail(&e);
            }
        }
    }

    fn wait(&mut self, until_ns: Option<u64>) -> usize {
        let deadline = match until_ns {
            Some(until) if self.now_ns() >= until => return 0,
            Some(until) => self.origin + Duration::from_nanos(until),
            None => Instant::now() + RESPONSE_TIMEOUT,
        };
        if self.broken {
            let owed = self.write_off();
            if owed == 0 {
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            }
            return owed;
        }
        let before = self.received;
        match self.conn.recv_until(deadline) {
            Ok(Some(frame)) => {
                self.on_frame(frame);
                // Take what else already arrived, without waiting again.
                loop {
                    match self.conn.buffered() {
                        Ok(Some(frame)) => self.on_frame(frame),
                        Ok(None) => break,
                        Err(e) => {
                            self.fail(&e);
                            break;
                        }
                    }
                }
            }
            Ok(None) if until_ns.is_none() => self.fail(&"no response in time"),
            Ok(None) => {}
            Err(e) => self.fail(&e),
        }
        self.received - before
    }
}

/// One block of the open-loop probe stream.
struct ProbeBlock {
    window: (Instant, Instant),
    samples: Vec<openloop::Sample>,
    cpu: Option<CpuNs>,
    sim: SimBlock,
}

struct BulkBlock {
    start: Instant,
    /// Completion time and latency (ms) of each scan.
    scans: Vec<(Instant, f64)>,
    sim: SimBlock,
}

impl BulkBlock {
    fn end(&self) -> Instant {
        self.scans.last().map_or(self.start, |s| s.0)
    }
}

/// `mixed_streams`: connection 1 runs Classic Q6 closed loop, connection
/// 2 sends probes open loop at [`OPEN_LOOP_RATE`]/s. One worker serves
/// both, so a probe waits for the scan in progress. Both generators
/// block in the kernel while they wait (see [`crate::wire`]): with the
/// worker saturating one core, a spinning generator on the other would
/// make probe latency measure the kernel's handling of the spin.
pub fn mixed_streams(
    addr: SocketAddr,
    plan: &Plan,
    refs: &References,
    budget: Budget,
) -> Res<Measured> {
    let bulk_conn = WireConn::connect(addr)?;
    let probe_conn = WireConn::connect(addr)?;
    let requests = encoded_probes(plan);
    let stop = AtomicBool::new(false);
    let q6 = Op {
        class: Class::Q6,
        statement: plan.first_of(Class::Q6),
    };
    let block_s = MIXED_PROBES as f64 / f64::from(OPEN_LOOP_RATE);
    let measured_blocks = ((budget.seconds / block_s) as usize)
        .saturating_sub(1)
        .max(budget.min_blocks);

    let bulk = || {
        let mut g = Generator::new(bulk_conn, plan, refs);
        let mut blocks = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let mut sim = SimBlock::default();
            let start = Instant::now();
            let scans = (0..MIXED_SCANS)
                .map(|_| {
                    let lat = g.closed(&q6, WireMode::Classic, &mut sim);
                    (Instant::now(), lat)
                })
                .collect();
            blocks.push(BulkBlock { start, scans, sim });
        }
        (blocks, g.finish())
    };
    let probes = || {
        let mut link = ProbeLink {
            origin: Instant::now(),
            conn: probe_conn,
            requests: &requests,
            plan,
            refs,
            tally: Tally::default(),
            sent: 0,
            received: 0,
            sim: SimBlock::default(),
            broken: false,
        };
        let period_ns = 1_000_000_000 / u64::from(OPEN_LOOP_RATE);
        let block = |link: &mut ProbeLink<'_>| {
            let cpu0 = thread_cpu();
            let start = Instant::now();
            let samples = openloop::run(link, MIXED_PROBES, period_ns);
            ProbeBlock {
                window: (start, Instant::now()),
                samples,
                cpu: cpu_since(cpu0),
                sim: std::mem::take(&mut link.sim),
            }
        };
        drop(block(&mut link));
        let blocks: Vec<_> = (0..measured_blocks).map(|_| block(&mut link)).collect();
        stop.store(true, Ordering::Relaxed);
        (blocks, link.tally)
    };
    let ((bulk_blocks, bulk_tally), (probe_blocks, probe_tally)) = std::thread::scope(|scope| {
        let bulk = spawn_generator(scope, 0, bulk);
        let probes = spawn_generator(scope, 1, probes);
        (
            bulk.join().expect("bulk generator panicked"),
            probes.join().expect("probe generator panicked"),
        )
    });

    // Bulk blocks count when they ran entirely inside the probe stream's
    // measured window; the others overlap warm-up or wind-down.
    let window = (
        probe_blocks[0].window.0,
        probe_blocks[probe_blocks.len() - 1].window.1,
    );
    let bulk_inside: Vec<&BulkBlock> = bulk_blocks
        .iter()
        .filter(|b| b.start >= window.0 && b.end() <= window.1)
        .collect();
    let first_bulk = bulk_inside
        .first()
        .ok_or("mixed_streams: no bulk block completed inside the measured window")?;

    let mut m = Measured {
        tally: bulk_tally.plus(probe_tally),
        sim: probe_blocks[0].sim.plus(first_bulk.sim),
        ..Measured::default()
    };
    for b in &bulk_inside {
        let wall = (b.end() - b.start).as_secs_f64();
        m.throughput.push(MIXED_SCANS as f64 / wall);
        m.block_wall_s.push(wall);
        m.class_lat_ms
            .entry(Class::Q6)
            .or_default()
            .extend(b.scans.iter().map(|s| s.1));
    }
    for b in probe_blocks {
        // CPU is metered per probe block: its operations are its probes
        // plus every scan that completed inside its window.
        let scans = bulk_blocks
            .iter()
            .flat_map(|bulk| &bulk.scans)
            .filter(|s| s.0 >= b.window.0 && s.0 <= b.window.1)
            .count();
        m.block_cpu.push((b.cpu, (MIXED_PROBES + scans) as u64));
        let lat: Vec<f64> = b
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        m.lateness_ms
            .extend(b.samples.iter().map(|s| s.lateness_ns as f64 / 1e6));
        m.class_lat_ms.entry(Class::Probe).or_default().extend(&lat);
        m.primary_lat_ms.push(lat);
    }
    Ok(m)
}
