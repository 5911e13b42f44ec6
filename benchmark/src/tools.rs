//! Commands built on whole runs: `all`, the A/A tool and the
//! determinism check. Every run is a child process of this same
//! executable — set-up time and peak memory are properties of a process.

use crate::report::NOT_GATED_PREFIX;
use crate::stats::{summarize, Summary};
use crate::workloads::Workload;
use crate::{Args, Res};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use waste_not::obs::json::{self, JsonValue};

/// The parsed output of one run.
pub struct RunResult {
    /// The run's `correct` flag.
    pub correct: bool,
    /// Metric name → value, from the result line.
    pub metrics: BTreeMap<String, f64>,
    /// Metric name → value, from the "not gated" detail line.
    pub not_gated: BTreeMap<String, f64>,
    /// Everything the run printed before its result line.
    pub details: String,
    /// The result line itself.
    pub line: String,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Res<&'a JsonValue> {
    v.get(key)
        .ok_or_else(|| format!("missing key `{key}`").into())
}

/// `{name: {"value": v, …}, …}` → name → v.
fn metric_values(object: &JsonValue) -> Res<BTreeMap<String, f64>> {
    let JsonValue::Obj(members) = object else {
        return Err("metrics are not an object".into());
    };
    members
        .iter()
        .map(|(name, m)| {
            let value = field(m, "value")?
                .as_num()
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// The JSON object on the "not gated" detail line of a run's output.
fn not_gated_object(details: &str) -> Option<&str> {
    details
        .lines()
        .find_map(|l| l.strip_prefix("# ")?.strip_prefix(NOT_GATED_PREFIX))
}

/// Run `benchmark run …` as a child and parse what it printed.
pub fn child_run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Res<RunResult> {
    let out = Command::new(std::env::current_exe()?)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8(out.stdout)?;
    let (details, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((details, line)) => (format!("{details}\n"), line.to_string()),
        None => (String::new(), stdout.trim_end().to_string()),
    };
    let parsed = json::parse(&line).map_err(|e| {
        format!(
            "run of {} (exit {:?}) printed no result line: {e}",
            workload.name(),
            out.status.code()
        )
    })?;
    let not_gated = match not_gated_object(&details) {
        Some(object) => metric_values(&json::parse(object)?)?,
        None => BTreeMap::new(),
    };
    Ok(RunResult {
        correct: matches!(field(&parsed, "correct")?, JsonValue::Bool(true)),
        metrics: metric_values(field(&parsed, "metrics")?)?,
        not_gated,
        details,
        line,
    })
}

/// `all`: every workload once; one JSON object keyed by workload, each
/// value a run's result object with the metrics no bound is set on
/// added under `not_gated` — all six end-to-end metrics, with units.
pub fn all(seed: u64, seconds: f64) -> Res<bool> {
    let mut ok = true;
    let mut members = Vec::new();
    for workload in Workload::ALL {
        let run = child_run(workload, seed, seconds, false)?;
        print!("{}", run.details);
        ok &= run.correct;
        let result = run.line.trim_end().strip_suffix('}');
        let not_gated = not_gated_object(&run.details);
        let (Some(result), Some(not_gated)) = (result, not_gated) else {
            return Err(format!("run of {} printed no metrics", workload.name()).into());
        };
        members.push(format!(
            "\"{}\": {result}, \"not_gated\": {not_gated}}}",
            workload.name()
        ));
    }
    println!("{{{}}}", members.join(", "));
    Ok(ok)
}

/// Name → bound of every end-to-end metric BENCHMARK.json declares.
fn declared_bounds() -> Res<BTreeMap<String, f64>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    field(&doc, "end_to_end")?
        .as_arr()
        .ok_or("`end_to_end` is not an array")?
        .iter()
        .map(|m| {
            let name = field(m, "name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let bound = field(m, "bound")?
                .as_num()
                .ok_or("metric bound is not a number")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// How far apart the medians of sets of runs of identical code are, as
/// a share of the smallest: at least as large as "B is worse than A"
/// and as "A is worse than B", whichever direction is better.
fn disagreement(sets: &[Summary]) -> f64 {
    let medians = sets.iter().map(|s| s.median.abs());
    let (lo, hi) = medians.fold((f64::INFINITY, 0.0f64), |(lo, hi), m| {
        (lo.min(m), hi.max(m))
    });
    if lo == 0.0 {
        f64::INFINITY
    } else {
        (hi - lo) / lo
    }
}

/// `aa`: `sets` interleaved sets of `runs` runs of identical code on one
/// seed, so that what differs is noise. Per workload × end-to-end metric
/// it prints every set's median, quartiles and spread, the disagreement
/// of the medians, and the bound. Fails when a bounded metric's medians
/// disagree, in either direction, by more than its bound; metrics
/// without a bound are tabulated, not judged.
pub fn aa(args: &Args, seed: u64, seconds: f64) -> Res<bool> {
    let sets: usize = args.get("sets", 2)?;
    let runs: usize = args.get("runs", 5)?;
    if sets < 2 || runs < 1 {
        return Err("aa needs --sets >= 2 and --runs >= 1".into());
    }
    let bounds = declared_bounds()?;
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![BTreeMap::<String, Vec<f64>>::new(); Workload::ALL.len()]; sets];
    let mut all_correct = true;
    for run in 0..runs {
        for (set, per_workload) in values.iter_mut().enumerate() {
            for (collected, workload) in per_workload.iter_mut().zip(Workload::ALL) {
                let result = child_run(workload, seed, seconds, false)?;
                eprintln!(
                    "aa: run {run} set {set} {}: {}",
                    workload.name(),
                    result.line
                );
                all_correct &= result.correct;
                for (name, value) in result.metrics.into_iter().chain(result.not_gated) {
                    collected.entry(name).or_default().push(value);
                }
            }
        }
    }

    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)?
        .as_secs();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!("# A/A results\n");
    println!(
        "`benchmark aa --sets {sets} --runs {runs} --seconds {seconds} --seed {seed}` at Unix time \
         {now} (nproc = {nproc}, kernel {}). Sets alternate run by run and every run uses seed \
         {seed}, so the sets differ by noise alone. `differ` is the distance between the largest \
         and the smallest set median as a share of the smallest; a metric without a bound is \
         printed, not judged.\n",
        kernel.trim()
    );
    println!("| workload | metric | set | median | q1 | q3 | spread | differ | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let mut names: Vec<&String> = values[0][w].keys().collect();
        // Bounded metrics first: they gate.
        names.sort_by_key(|n| !bounds.contains_key(*n));
        for name in names {
            let summaries: Vec<Summary> = values
                .iter()
                .map(|set| {
                    set[w]
                        .get(name)
                        .map(|v| summarize(v))
                        .ok_or_else(|| format!("a run printed no `{name}`"))
                })
                .collect::<Result<_, _>>()?;
            let differ = disagreement(&summaries);
            let bound = bounds.get(name);
            let ok = bound.is_none_or(|&b| differ <= b);
            within &= ok;
            for (set, s) in summaries.iter().enumerate() {
                let last = set == sets - 1;
                println!(
                    "| {} | {name} | {} | {:.6} | {:.6} | {:.6} | {:.2} % | {} | {} | {} |",
                    workload.name(),
                    (b'A' + set as u8) as char,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread() * 100.0,
                    if last {
                        format!("{:.2} %", differ * 100.0)
                    } else {
                        String::new()
                    },
                    bound.map_or("none".to_string(), |b| format!("{:.1} %", b * 100.0)),
                    match (last, bound, ok) {
                        (false, _, _) => "",
                        (true, None, _) => "not gated",
                        (true, Some(_), true) => "within",
                        (true, Some(_), false) => "**EXCEEDS**",
                    }
                );
            }
        }
    }
    println!(
        "\nEvery run passed the correctness gate: {all_correct}. \
         Every bounded difference within its bound: {within}."
    );
    Ok(all_correct && within)
}

/// Metrics that must repeat bit for bit for one seed.
const EXACT_END_TO_END: [&str; 1] = ["sim_ms_per_query"];
const EXACT_PER_LAYER: [&str; 7] = [
    "device.sim_device_ms",
    "device.sim_host_ms",
    "device.sim_pcie_ms",
    "device.pcie_bytes_per_query",
    "device.host_bytes_per_query",
    "net.result_bytes.probe",
    "net.result_bytes.q1",
];
/// Measured seconds of the determinism check's runs (short: only counts
/// are compared).
const CHECK_SECONDS: f64 = 3.0;

/// `determinism`: two runs of one seed must agree exactly on every
/// exact-repeat metric, and a second seed must pass the correctness gate.
pub fn determinism(seed: u64) -> Res<bool> {
    let mut ok = true;
    let mut compare = |workload: Workload, trace: bool, names: &[&str]| -> Res<()> {
        let a = child_run(workload, seed, CHECK_SECONDS, trace)?;
        let b = child_run(workload, seed, CHECK_SECONDS, trace)?;
        ok &= a.correct && b.correct;
        for name in names {
            let (x, y) = (a.metrics.get(*name), b.metrics.get(*name));
            let same = matches!((x, y), (Some(x), Some(y)) if x.to_bits() == y.to_bits());
            ok &= same;
            println!(
                "{} {name}: {x:?} vs {y:?} — {}",
                workload.name(),
                if same { "identical" } else { "DIFFERENT" }
            );
        }
        Ok(())
    };
    for workload in Workload::ALL {
        compare(workload, false, &EXACT_END_TO_END)?;
    }
    compare(Workload::ScanAr, true, &EXACT_PER_LAYER)?;
    for workload in Workload::ALL {
        let other = child_run(workload, seed + 1, CHECK_SECONDS, false)?;
        ok &= other.correct;
        println!(
            "{} seed {}: correctness gate {}",
            workload.name(),
            seed + 1,
            if other.correct { "passed" } else { "FAILED" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(median: f64) -> Summary {
        Summary {
            n: 5,
            q1: median,
            median,
            q3: median,
        }
    }

    #[test]
    fn disagreement_ignores_which_set_is_better() {
        // B 40 % better than A is as much noise as B 40 % worse.
        assert!((disagreement(&[set(140.0), set(100.0)]) - 0.40).abs() < 1e-12);
        assert!((disagreement(&[set(100.0), set(140.0)]) - 0.40).abs() < 1e-12);
        // It is at least the worsening in either direction (0.40 and 0.2857).
        assert!(disagreement(&[set(140.0), set(100.0)]) > 0.25);
        assert_eq!(disagreement(&[set(7.0), set(7.0), set(7.0)]), 0.0);
        assert!((disagreement(&[set(10.0), set(12.0), set(11.0)]) - 0.20).abs() < 1e-12);
    }
}
