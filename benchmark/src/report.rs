//! Metric values and the one-line JSON result.

use crate::proc::CpuNs;
use crate::stats::{median, summarize, supported_tail};
use crate::workloads::{Measured, Workload};
use waste_not::obs::json::escape;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in BENCHMARK.json.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// Shortest round-trip decimal of a finite value (JSON has no NaN/inf;
/// those become `null`, which a reader will reject loudly).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Median over the measured blocks of one side's CPU milliseconds per
/// operation; `None` when per-thread accounting was unavailable.
pub fn cpu_ms_per_query(m: &Measured, side: fn(&CpuNs) -> u64) -> Option<f64> {
    let per_block = m
        .block_cpu
        .iter()
        .map(|(cpu, ops)| Some(side(cpu.as_ref()?) as f64 / 1e6 / (*ops).max(1) as f64))
        .collect::<Option<Vec<f64>>>()?;
    Some(median(&per_block))
}

/// Prefix of the detail line that carries the end-to-end metrics no
/// bound is set on, as a JSON object of the same shape as `metrics`.
pub const NOT_GATED_PREFIX: &str = "not gated: ";

/// The end-to-end metrics of a measured phase that BENCHMARK.json bounds:
/// they repeat from run to run on this host (README.md, "End-to-end
/// metrics").
///
/// `setup_s` is the median of the complete set-ups.
pub fn gated(m: &Measured, setup_s: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mib, "MiB"),
        Metric::new("sim_ms_per_query", m.sim.total_ms_per_query(), "ms"),
    ]
}

/// The wall-clock end-to-end metrics: printed by every run, compared by
/// paired runs (README.md, "Citing a claim"), bounded by nothing — two
/// runs of identical code differ by more than any bound worth setting.
///
/// `None` when per-thread CPU accounting is unavailable: the caller must
/// fail the run rather than report process-wide CPU.
pub fn not_gated(m: &Measured) -> Option<Vec<Metric>> {
    let p50s: Vec<f64> = m.primary_lat_ms.iter().map(|b| median(b)).collect();
    let server_cpu_ms = cpu_ms_per_query(m, |cpu| cpu.server)?;
    Some(vec![
        Metric::new("throughput_qps", median(&m.throughput), "1/s"),
        Metric::new("lat_p50_ms", median(&p50s), "ms"),
        Metric::new("server_cpu_ms_per_query", server_cpu_ms, "ms"),
    ])
}

/// `{name: {"value": …, "unit": …}, …}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                json_number(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Human-readable detail lines (not gating): block quartiles, the
/// highest supported tail per class, generator lateness.
pub fn detail_lines(workload: Workload, m: &Measured, setup_s: &[f64]) -> Vec<String> {
    let mut out = Vec::new();
    let p50s: Vec<f64> = m.primary_lat_ms.iter().map(|b| median(b)).collect();
    for (label, values, unit) in [
        ("setup_s", setup_s, "s"),
        ("block throughput_qps", &m.throughput[..], "1/s"),
        ("block lat_p50_ms", &p50s[..], "ms"),
        ("block wall_s", &m.block_wall_s[..], "s"),
    ] {
        let s = summarize(values);
        let all: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        out.push(format!(
            "{}: {label}: n={} q1={:.4} median={:.4} q3={:.4} {unit} [{}]",
            workload.name(),
            s.n,
            s.q1,
            s.median,
            s.q3,
            all.join(" ")
        ));
    }
    for (class, lat) in &m.class_lat_ms {
        let tail = match supported_tail(lat) {
            Some((p, v)) => format!("p{p}={v:.3}"),
            None => "tail=n/a (<20 samples)".into(),
        };
        out.push(format!(
            "{}: class {}: samples={} p50={:.3} {tail} ms",
            workload.name(),
            class.label(),
            lat.len(),
            median(lat)
        ));
    }
    if !m.lateness_ms.is_empty() {
        let s = summarize(&m.lateness_ms);
        let max = m.lateness_ms.iter().copied().fold(0.0, f64::max);
        out.push(format!(
            "{}: open-loop lateness: median={:.3} q3={:.3} max={max:.3} ms over {} sends",
            workload.name(),
            s.median,
            s.q3,
            s.n
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("lat_p50_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"lat_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = waste_not::obs::json::parse(&line).unwrap();
        let v = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(v.get("value").unwrap().as_num(), Some(0.8127));
    }
}
