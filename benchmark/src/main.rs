//! The repo's one end-to-end benchmark (see `README.md`).
//!
//! ```text
//! benchmark run   --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//! benchmark all   [--seed <u64>] [--seconds <n>]
//! benchmark aa    [--sets 2] [--runs 5] [--seed <u64>] [--seconds <n>]
//! benchmark determinism [--seed <u64>]
//! ```
//!
//! `run` prints detail lines starting with `#`, then one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics` as the
//! last line of standard output; it exits non-zero when any request
//! failed the correctness gate. `--trace 0` measures the end-to-end
//! metrics, `--trace 1` is the traced run that gives the per-layer ones.

mod check;
mod counts;
mod gen;
mod layers;
mod openloop;
mod proc;
mod report;
mod setup;
mod spans;
mod stats;
mod tools;
mod wire;
mod workloads;

use check::References;
use counts::Counts;
use gen::Plan;
use report::Metric;
use setup::{sched_config, Served, Sizes};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use waste_not::net::WireMode;
use waste_not::{Database, NetConfig, NetServer, Scheduler};
use workloads::{Budget, Measured, Workload};

/// Harness result: every failure is fatal and only ever printed.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Why a run refuses to report CPU per query.
const NO_THREAD_CPU: &str = "per-thread CPU accounting (/proc/self/task/*/schedstat) unavailable; \
                             refusing to report process-wide CPU";
/// Complete set-ups per end-to-end run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Default measured seconds (BENCHMARK.json's `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed `--key value` arguments.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Res<Args> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got `{key}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("option --{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    /// The value of `--name`, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Res<T> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for --{name}").into()),
        }
    }

    fn workload(&self) -> Res<Workload> {
        let name = self.0.get("workload").ok_or("missing --workload <name>")?;
        Workload::parse(name).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}`; one of {}", names.join(", ")).into()
        })
    }
}

/// Serve `db` again (same data, fresh scheduler and front door).
fn serve_again(db: &Arc<Database>, tracing: bool) -> Res<Served> {
    let sched = Scheduler::new(Arc::clone(db), sched_config(tracing));
    setup::spawn_and_connect(NetServer::with_config(sched, NetConfig::default()))
}

/// Run the measured phase of `workload` against a served database;
/// returns the stopped server so its counters can be read.
fn measure(
    workload: Workload,
    served: Served,
    plan: &Plan,
    refs: &References,
    budget: Budget,
) -> Res<(Measured, NetServer)> {
    let Served {
        db: _,
        handle,
        addr,
        client,
    } = served;
    let measured = match workload {
        Workload::ProbeNet => workloads::probe_net(client, addr, plan, refs, budget)?,
        Workload::ScanAr => workloads::scan(client, plan, refs, WireMode::ApproxRefine, budget),
        Workload::ScanClassic => workloads::scan(client, plan, refs, WireMode::Classic, budget),
        Workload::MixedStreams => {
            drop(client);
            workloads::mixed_streams(addr, plan, refs, budget)?
        }
    };
    Ok((measured, handle.shutdown()))
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines printed (with a leading `#`) before the result line.
    details: Vec<String>,
}

impl Outcome {
    /// Print details and the result line; `true` when nothing failed.
    fn print(&self) -> bool {
        for line in &self.details {
            println!("# {line}");
        }
        let correct = self.failed == 0;
        println!(
            "{}",
            report::result_line(correct, self.attempted, self.failed, &self.metrics)
        );
        correct
    }
}

/// `run --trace 0`: the set-ups, the measured phase, the end-to-end
/// metrics (the bounded ones on the result line, the rest on a `#` line).
fn run_end_to_end(workload: Workload, seed: u64, seconds: f64, sizes: Sizes) -> Res<Outcome> {
    let plan = Plan::from_seed(seed);
    let mut setup_totals_s = Vec::new();
    let mut kept: Option<(Served, setup::SetupTimes)> = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down first: one database at a time.
        if let Some((served, _)) = kept.take() {
            drop(served.shutdown());
        }
        let (served, _reports, times) = setup::setup(&plan, sizes)?;
        setup_totals_s.push(times.total_s());
        kept = Some((served, times));
    }
    let (served, times) = kept.expect("SETUPS is at least one");

    let refs = References::compute(&served.db, &plan, &workload.reference_needs(&plan))?;
    let budget = Budget {
        seconds,
        min_blocks: workloads::MIN_BLOCKS,
    };
    let (m, server) = measure(workload, served, &plan, &refs, budget)?;
    let mut counts = Counts::default();
    counts.add_server(&server);
    drop(server);
    let failed = m.tally.failed + counts.failures();

    let rss = proc::peak_rss_mib().ok_or("VmHWM unavailable in /proc/self/status")?;
    let not_gated = report::not_gated(&m).ok_or(NO_THREAD_CPU)?;
    let mut details = vec![format!(
        "{} seed={seed} op_list_hash={:016x} last set-up: gen {:.3} load {:.3} decompose {:.3} serve {:.3} s",
        workload.name(),
        plan.op_list_hash(),
        times.gen_s,
        times.load_s,
        times.decompose_s,
        times.serve_s
    )];
    details.extend(report::detail_lines(workload, &m, &setup_totals_s));
    details.push(format!(
        "{}{}",
        report::NOT_GATED_PREFIX,
        report::metrics_object(&not_gated)
    ));
    Ok(Outcome {
        attempted: m.tally.attempted,
        failed,
        metrics: report::gated(&m, &setup_totals_s, rss),
        details,
    })
}

/// Where the span file of a traced run goes.
fn span_file(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}.json", workload.name()))
}

/// `run --trace 1`: one set-up; the workload's blocks untraced, then with
/// `SchedConfig::tracing` on; then the layer measurements and replays.
fn run_traced(workload: Workload, seed: u64, seconds: f64, sizes: Sizes) -> Res<Outcome> {
    let plan = Plan::from_seed(seed);
    let (served, reports, times) = setup::setup(&plan, sizes)?;
    let db = Arc::clone(&served.db);
    let mut needs = workload.reference_needs(&plan);
    for (stmt, ar) in layers::needs(&plan) {
        *needs.entry(stmt).or_default() |= ar;
    }
    let refs = References::compute(&db, &plan, &needs)?;
    let budget = Budget {
        seconds: seconds * 0.2,
        min_blocks: 2,
    };

    let mut counts = Counts::default();
    let (plain, server) = measure(workload, served, &plan, &refs, budget)?;
    counts.add_server(&server);
    let device_peak_bytes = server.scheduler().stats().device_peak_bytes;
    drop(server);

    let (traced, server) = measure(workload, serve_again(&db, true)?, &plan, &refs, budget)?;
    counts.add_server(&server);
    drop(server);

    let mut served = serve_again(&db, false)?;
    let layers = layers::measure(
        layers::Inputs {
            db: &db,
            plan: &plan,
            refs: &refs,
            tcp: &mut served.client,
            scale: seconds / DEFAULT_SECONDS,
        },
        &mut counts,
    )?;
    counts.add_server(&served.shutdown());

    let client_cpu_ms =
        report::cpu_ms_per_query(&plain, |cpu| cpu.generator).ok_or(NO_THREAD_CPU)?;
    let per_query = |total: f64| total / plain.sim.ops.max(1) as f64;
    let mut metrics = layers::setup_metrics(&times, &reports);
    metrics.extend(layers.metrics);
    // The wall-clock end-to-end metrics of the untraced blocks, so that
    // a record of traced runs carries them too.
    for m in report::not_gated(&plain).ok_or(NO_THREAD_CPU)? {
        metrics.push(Metric::new(format!("e2e.{}", m.name), m.value, m.unit));
    }
    metrics.extend([
        Metric::new(
            "device.sim_device_ms",
            per_query(plain.sim.device_s * 1e3),
            "ms",
        ),
        Metric::new(
            "device.sim_host_ms",
            per_query(plain.sim.host_s * 1e3),
            "ms",
        ),
        Metric::new(
            "device.sim_pcie_ms",
            per_query(plain.sim.pcie_s * 1e3),
            "ms",
        ),
        Metric::new(
            "device.pcie_bytes_per_query",
            per_query(plain.sim.pcie_bytes as f64),
            "B",
        ),
        Metric::new(
            "device.host_bytes_per_query",
            per_query(plain.sim.host_bytes as f64),
            "B",
        ),
        Metric::new(
            "device.peak_mb",
            device_peak_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        Metric::new(
            "device.admission_waits",
            counts.admission_waits as f64,
            "count",
        ),
        Metric::new("sched.preemptions", counts.preemptions as f64, "count"),
        Metric::new("sched.retries", counts.retries as f64, "count"),
        Metric::new("sched.errors", counts.sched_errors as f64, "count"),
        Metric::new("net.busy_shed", counts.busy_shed as f64, "count"),
        Metric::new("net.read_pauses", counts.read_pauses as f64, "count"),
        Metric::new(
            "net.protocol_errors",
            counts.protocol_errors as f64,
            "count",
        ),
        Metric::new("net.client_cpu_ms_per_query", client_cpu_ms, "ms"),
        Metric::new(
            "obs.trace_overhead_ratio",
            stats::median(&traced.block_wall_s) / stats::median(&plain.block_wall_s),
            "ratio",
        ),
    ]);
    metrics.sort_by(|a, b| a.name.cmp(&b.name));

    let path = span_file(workload);
    std::fs::create_dir_all(path.parent().expect("span file has a directory"))?;
    std::fs::write(&path, layers.spans.to_json(workload.name(), seed))?;
    let details = vec![format!(
        "{} seed={seed} traced run: {} spans written to {}",
        workload.name(),
        layers.spans.spans().len(),
        path.display()
    )];
    let tally = plain.tally.plus(traced.tally).plus(layers.tally);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed + counts.failures(),
        metrics,
        details,
    })
}

fn dispatch(argv: &[String]) -> Res<bool> {
    let (command, rest) = argv
        .split_first()
        .ok_or("usage: benchmark <run|all|aa|determinism> [--option value]...")?;
    let args = Args::parse(rest)?;
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, got {seconds}").into());
    }
    match command.as_str() {
        "run" => match args.get("trace", 0u8)? {
            0 => Ok(run_end_to_end(args.workload()?, seed, seconds, Sizes::FULL)?.print()),
            1 => Ok(run_traced(args.workload()?, seed, seconds, Sizes::FULL)?.print()),
            other => Err(format!("--trace takes 0 or 1, got {other}").into()),
        },
        "all" => tools::all(seed, seconds),
        "aa" => tools::aa(&args, seed, seconds),
        "determinism" => tools::determinism(seed),
        other => Err(format!("unknown command `{other}`").into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waste_not::obs::json::{self, JsonValue};

    /// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |m: &JsonValue, k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
        let mut out: Vec<_> = doc
            .get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        out.sort();
        out
    }

    fn printed(outcome: &Outcome) -> Vec<(String, String)> {
        let mut out: Vec<_> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn every_workload_reports_the_declared_end_to_end_metrics() {
        for workload in Workload::ALL {
            let outcome = run_end_to_end(workload, 11, 0.0, Sizes::TINY).unwrap();
            assert_eq!(outcome.failed, 0, "{}", workload.name());
            assert!(outcome.attempted > 0);
            assert_eq!(
                printed(&outcome),
                declared("end_to_end"),
                "{}",
                workload.name()
            );
            assert!(outcome
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0));
            // The wall-clock metrics are printed too, on their own line.
            let line = outcome
                .details
                .iter()
                .find_map(|l| l.strip_prefix(report::NOT_GATED_PREFIX))
                .expect("a not-gated line");
            let JsonValue::Obj(members) = json::parse(line).unwrap() else {
                panic!("the not-gated line holds no object");
            };
            let names: Vec<&str> = members.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(
                names,
                ["throughput_qps", "lat_p50_ms", "server_cpu_ms_per_query"]
            );
        }
    }

    #[test]
    fn simulated_cost_repeats_exactly_for_a_seed_and_moves_with_it() {
        let sim = |seed: u64| {
            let outcome = run_end_to_end(Workload::ScanAr, seed, 0.0, Sizes::TINY).unwrap();
            assert_eq!(outcome.failed, 0);
            let m = outcome
                .metrics
                .iter()
                .find(|m| m.name == "sim_ms_per_query");
            m.unwrap().value.to_bits()
        };
        assert_eq!(sim(5), sim(5));
        assert_ne!(sim(5), sim(6), "a second seed generates other data");
    }

    #[test]
    fn a_traced_run_reports_the_declared_per_layer_metrics() {
        let outcome = run_traced(Workload::ScanAr, 11, 2.0, Sizes::TINY).unwrap();
        assert_eq!(outcome.failed, 0);
        assert_eq!(printed(&outcome), declared("per_layer"));
        let written = std::fs::read_to_string(span_file(Workload::ScanAr)).unwrap();
        let spans = json::parse(&written).unwrap();
        assert!(!spans.get("spans").unwrap().as_arr().unwrap().is_empty());
    }
}
