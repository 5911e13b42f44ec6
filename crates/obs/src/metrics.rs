//! Named counters, gauges and log₂-bucketed histograms with a
//! Prometheus-style text exposition.
//!
//! A [`Registry`] hands out cheap cloneable handles; updates are single
//! atomic operations. Metric names may carry `{label="value"}` suffixes —
//! the registry treats the full string as the key and the renderer
//! splices label sets into the exposition untouched.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: one for 0, one per power of two up to
/// `2^63`, and the implicit `+Inf` is the last bucket's upper edge.
const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (set, or ratchet a maximum).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Ratchet the gauge up to at least `v` (for peaks).
    pub fn max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucket `0` holds the value `0`; bucket `k` (k ≥ 1) holds values in
/// `[2^(k-1), 2^k)`, i.e. upper edge `2^k − 1`. Two atomic adds per
/// observation.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(upper_edge_inclusive, count)`; the final
    /// bucket's edge is `u64::MAX`.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|k| {
                let n = self.0.buckets[k].load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_edge(k), n))
            })
            .collect()
    }
}

fn bucket_edge(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named-metric registry.
///
/// [`Registry::global`] is the process-wide instance used by subsystems
/// with no natural owner (device memory, kernels); components with a
/// lifecycle of their own (a scheduler) hold their own registry so tests
/// don't observe each other.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// If `name` already names a metric of a different type.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.inner.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    /// If `name` already names a metric of a different type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.inner.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    /// If `name` already names a metric of a different type.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.inner.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Render every metric in Prometheus text-exposition style, sorted
    /// by name. Histograms emit cumulative `_bucket{le="…"}` lines plus
    /// `_sum` and `_count`.
    pub fn render(&self) -> String {
        let metrics: Vec<(String, Metric)> = {
            let m = self.inner.lock().unwrap();
            m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut out = String::new();
        for (name, metric) in metrics {
            let (base, labels) = split_labels(&name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{base}{labels} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{base}{labels} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (edge, n) in h.buckets() {
                        cum += n;
                        if edge == u64::MAX {
                            continue; // folded into the +Inf line below
                        }
                        out.push_str(&format!(
                            "{base}_bucket{} {cum}\n",
                            merge_labels(&labels, &format!("le=\"{edge}\""))
                        ));
                    }
                    out.push_str(&format!(
                        "{base}_bucket{} {cum}\n",
                        merge_labels(&labels, "le=\"+Inf\"")
                    ));
                    out.push_str(&format!("{base}_sum{labels} {}\n", h.sum()));
                    out.push_str(&format!("{base}_count{labels} {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// Split `name{l="v"}` into `("name", "{l=\"v\"}")`; no-label names
/// return an empty label part.
fn split_labels(name: &str) -> (&str, String) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i..].to_string()),
        None => (name, String::new()),
    }
}

/// Merge an extra `k="v"` pair into an existing `{...}` label set.
fn merge_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("bwd_test_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("bwd_test_total").get(), 5, "same handle by name");
        let g = r.gauge("bwd_test_bytes");
        g.set(10);
        g.max(5);
        assert_eq!(g.get(), 10);
        g.max(100);
        assert_eq!(g.get(), 100);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        h.observe(0); // bucket 0 (edge 0)
        h.observe(1); // bucket 1 (edge 1)
        h.observe(2); // bucket 2 (edge 3)
        h.observe(3); // bucket 2
        h.observe(1024); // bucket 11 (edge 2047)
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.buckets(), vec![(0, 1), (1, 1), (3, 2), (2047, 1)]);
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let r = Registry::new();
        r.counter("bwd_a_total").add(2);
        r.gauge("bwd_b{device=\"0\"}").set(7);
        let h = r.histogram("bwd_c_us");
        h.observe(3);
        h.observe(900);
        let text = r.render();
        assert!(text.contains("bwd_a_total 2\n"));
        assert!(text.contains("bwd_b{device=\"0\"} 7\n"));
        assert!(text.contains("bwd_c_us_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("bwd_c_us_bucket{le=\"1023\"} 2\n"));
        assert!(text.contains("bwd_c_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("bwd_c_us_sum 903\n"));
        assert!(text.contains("bwd_c_us_count 2\n"));
    }

    #[test]
    fn labelled_histogram_merges_le() {
        let r = Registry::new();
        r.histogram("bwd_h{q=\"x\"}").observe(1);
        let text = r.render();
        assert!(
            text.contains("bwd_h_bucket{q=\"x\",le=\"1\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("bwd_h_sum{q=\"x\"} 1\n"));
    }
}
