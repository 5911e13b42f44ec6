//! Simulated-time accounting.
//!
//! Every operator charges the simulated seconds it spends on each hardware
//! component to a [`CostLedger`]. The per-component [`Breakdown`] is what
//! the figures plot as stacked GPU/CPU/PCI bars (Fig 9 and 10), and the
//! event trace is what `EXPERIMENTS.md` cites when explaining where time
//! went.

use std::fmt;

/// A hardware component of the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The co-processor ("GPU" in the paper's charts).
    Device,
    /// The host CPU complex.
    Host,
    /// The host↔device interconnect ("PCI" in the paper's charts).
    Pcie,
}

/// Simulated seconds spent per component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Co-processor busy time.
    pub device: f64,
    /// Host busy time.
    pub host: f64,
    /// Interconnect busy time.
    pub pcie: f64,
}

impl Breakdown {
    /// Total time assuming fully serialized execution of the components
    /// (how the paper's stacked bars read for a single query).
    pub fn total(&self) -> f64 {
        self.device + self.host + self.pcie
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GPU {:.4}s + CPU {:.4}s + PCI {:.4}s = {:.4}s",
            self.device,
            self.host,
            self.pcie,
            self.total()
        )
    }
}

/// One charged cost event (operator-level trace).
#[derive(Debug, Clone, PartialEq)]
pub struct CostEvent {
    /// The component charged.
    pub component: Component,
    /// Operator / kernel label, e.g. `"select.approx.scan"`.
    pub label: String,
    /// Simulated seconds.
    pub seconds: f64,
    /// Bytes moved or touched, when meaningful (0 otherwise).
    pub bytes: u64,
}

/// Bytes moved/touched per component (always tracked; Figure 11's
/// bandwidth-interference model needs the host traffic of a query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficBytes {
    /// Device-memory traffic.
    pub device: u64,
    /// Host-memory traffic.
    pub host: u64,
    /// Interconnect traffic.
    pub pcie: u64,
}

impl TrafficBytes {
    /// Total bytes across all components.
    pub fn total(&self) -> u64 {
        self.device + self.host + self.pcie
    }
}

/// An accumulating record of simulated costs.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    breakdown: Breakdown,
    traffic: TrafficBytes,
    events: Vec<CostEvent>,
    trace_enabled: bool,
}

impl CostLedger {
    /// A ledger without event tracing (cheapest; figures use this).
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// A ledger that also records per-operator events.
    pub fn with_trace() -> Self {
        CostLedger {
            trace_enabled: true,
            ..CostLedger::default()
        }
    }

    /// Charge `seconds` to `component`.
    pub fn charge(&mut self, component: Component, label: &str, seconds: f64, bytes: u64) {
        debug_assert!(seconds >= 0.0, "negative charge for {label}");
        match component {
            Component::Device => {
                self.breakdown.device += seconds;
                self.traffic.device += bytes;
            }
            Component::Host => {
                self.breakdown.host += seconds;
                self.traffic.host += bytes;
            }
            Component::Pcie => {
                self.breakdown.pcie += seconds;
                self.traffic.pcie += bytes;
            }
        }
        if self.trace_enabled {
            self.events.push(CostEvent {
                component,
                label: label.to_string(),
                seconds,
                bytes,
            });
        }
    }

    /// The accumulated per-component totals.
    pub fn breakdown(&self) -> Breakdown {
        self.breakdown
    }

    /// The accumulated per-component traffic.
    pub fn traffic(&self) -> TrafficBytes {
        self.traffic
    }

    /// The event trace (empty unless built via [`CostLedger::with_trace`]).
    pub fn events(&self) -> &[CostEvent] {
        &self.events
    }
}

/// A thread-safe, cloneable cost ledger for concurrent query streams.
///
/// Worker threads keep charging their private [`CostLedger`] during a
/// query (no contention on the hot path) and fold the query's totals into
/// the stream's shared ledger once per query, by per-component
/// [`SharedLedger::charge`] calls (a [`crate::Breakdown`] +
/// [`TrafficBytes`] is what a query result carries).
#[derive(Debug, Clone, Default)]
pub struct SharedLedger {
    inner: std::sync::Arc<std::sync::Mutex<CostLedger>>,
}

impl SharedLedger {
    /// An empty shared ledger without event tracing.
    pub fn new() -> Self {
        SharedLedger::default()
    }

    /// Charge `seconds` to `component` (takes `&self`; safe from any thread).
    pub fn charge(&self, component: Component, label: &str, seconds: f64, bytes: u64) {
        self.inner
            .lock()
            .unwrap()
            .charge(component, label, seconds, bytes);
    }

    /// The accumulated per-component totals.
    pub fn breakdown(&self) -> Breakdown {
        self.inner.lock().unwrap().breakdown()
    }

    /// The accumulated per-component traffic.
    pub fn traffic(&self) -> TrafficBytes {
        self.inner.lock().unwrap().traffic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_ledger_clones_share_their_charges() {
        let shared = SharedLedger::new();
        shared.charge(Component::Host, "stream.query", 0.5, 10);
        let clone = shared.clone();
        clone.charge(Component::Pcie, "dl", 0.1, 1);
        assert_eq!(shared.breakdown().host, 0.5);
        assert_eq!(shared.breakdown().pcie, 0.1);
        assert_eq!(shared.traffic().host, 10);
        assert_eq!(shared.traffic().pcie, 1);
    }

    #[test]
    fn charges_accumulate_per_component() {
        let mut l = CostLedger::new();
        l.charge(Component::Device, "scan", 0.5, 100);
        l.charge(Component::Device, "scan", 0.25, 100);
        l.charge(Component::Host, "refine", 1.0, 0);
        l.charge(Component::Pcie, "candidates", 0.1, 42);
        let b = l.breakdown();
        assert_eq!(b.device, 0.75);
        assert_eq!(b.host, 1.0);
        assert_eq!(b.pcie, 0.1);
        assert!((b.total() - 1.85).abs() < 1e-12);
        assert!(l.events().is_empty(), "tracing off by default");
    }

    #[test]
    fn trace_records_events() {
        let mut l = CostLedger::with_trace();
        l.charge(Component::Device, "select.approx", 0.1, 800);
        assert_eq!(l.events().len(), 1);
        assert_eq!(l.events()[0].label, "select.approx");
        assert_eq!(l.events()[0].bytes, 800);
    }

    #[test]
    fn breakdown_display() {
        let b = Breakdown {
            device: 0.1,
            host: 0.2,
            pcie: 0.3,
        };
        let s = b.to_string();
        assert!(s.contains("GPU") && s.contains("CPU") && s.contains("PCI"));
    }
}
