//! Hardware specifications for the simulated execution environment.
//!
//! All constants default to the paper's evaluation platform (§VI-A):
//! two eight-core Xeon E5-2650 @ 2.0 GHz with four DDR3-1600 channels per
//! socket, GeForce GTX 680 cards with 2 GB of device memory, and a PCI-E
//! bus measured at 3.95 GB/s with AMD's `TransferOverlap` tool.
//!
//! The cost model is deliberately coarse — bandwidth terms plus per-tuple
//! compute terms plus contention terms — because the paper's experiments
//! are bandwidth-shape experiments: what matters for reproducing every
//! figure is *which component moves how many bytes*, not microarchitectural
//! detail.

/// Bytes per gibibyte.
pub const GIB: u64 = 1 << 30;

/// Specification of a co-processor ("the GPU").
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Device memory capacity in bytes (GTX 680: 2 GiB).
    pub memory_capacity: u64,
    /// On-chip shared (OpenCL "local") memory one thread block can
    /// address, in bytes (GTX 680: 48 KiB). Accumulator tables that fit
    /// are private to a block instead of contended in device memory.
    pub shared_mem_per_block: u64,
    /// Internal memory bandwidth in bytes/second (GTX 680: 192 GB/s).
    pub mem_bandwidth: f64,
    /// Fixed cost of launching one kernel, in seconds.
    pub kernel_launch_overhead: f64,
    /// Aggregate simple-operation throughput in ops/second for the
    /// *generic, portable* kernels the paper runs (§V-C explicitly forgoes
    /// hardware-specific tuning). The GTX 680's arithmetic peak is ~3e12
    /// ops/s, but the paper's JIT-compiled OpenCL scans process ~100 M
    /// tuples in 20–40 ms (Fig 8a, "Approximate" series), i.e. an
    /// *effective* 3–5e9 tuple-ops/s — that measured figure calibrates
    /// this constant.
    pub compute_throughput: f64,
    /// Effective bandwidth de-rating for scattered (random) access
    /// relative to sequential streams, as a fraction in (0, 1].
    pub random_access_efficiency: f64,
    /// Cost in seconds of one *conflicting* atomic update to shared
    /// memory. Models the serialization of hash-group insertions the
    /// paper observes ("performance improves with the number of groups
    /// due to fewer write conflicts", Fig 8f).
    pub atomic_conflict_cost: f64,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::gtx680()
    }
}

impl DeviceSpec {
    /// The paper's GeForce GTX 680 (2 GB, 192.2 GB/s, 1536 cores).
    pub fn gtx680() -> Self {
        DeviceSpec {
            name: "GeForce GTX 680 (simulated)".into(),
            memory_capacity: 2 * GIB,
            shared_mem_per_block: 48 << 10,
            mem_bandwidth: 192.2e9,
            kernel_launch_overhead: 8e-6,
            compute_throughput: 5.0e9,
            random_access_efficiency: 0.25,
            atomic_conflict_cost: 0.5e-9,
        }
    }

    /// A reduced-capacity variant (useful for forcing the space-constrained
    /// experiments at small data scales).
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.memory_capacity = bytes;
        self
    }

    /// Seconds for a sequential device-memory stream of `bytes`.
    #[inline]
    pub fn stream_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.mem_bandwidth
    }

    /// Seconds for `bytes` of scattered device-memory traffic.
    #[inline]
    pub fn scattered_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.mem_bandwidth * self.random_access_efficiency)
    }

    /// Seconds for `ops` simple parallel operations.
    #[inline]
    pub fn compute_seconds(&self, ops: u64) -> f64 {
        ops as f64 / self.compute_throughput
    }
}

/// Specification of the host CPU complex.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Human-readable name.
    pub name: String,
    /// Physical cores (2× 8 on the paper's machine).
    pub cores: u32,
    /// Hardware threads (with hyper-threading: 32).
    pub hw_threads: u32,
    /// Sequential scan bandwidth of a single thread, bytes/second.
    /// Calibrated to MonetDB-2012 bulk operators (full materialization
    /// between operators), not to raw `memcpy`: the paper's Fig 8a
    /// baseline selection over 100 M ints takes ~200 ms single-threaded.
    pub per_thread_bandwidth: f64,
    /// Aggregate memory bandwidth ceiling across all sockets, bytes/second
    /// (2 sockets × 4 × DDR3-1600 ≈ 102 GB/s theoretical; ~66% achievable).
    pub mem_bandwidth_max: f64,
    /// Per-tuple cost of a branchy scalar operation (selection compare,
    /// hash probe) on one thread, in seconds.
    pub per_tuple_cost: f64,
    /// Effective bandwidth de-rating for scattered access.
    pub random_access_efficiency: f64,
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self::dual_xeon_e5_2650()
    }
}

impl CpuSpec {
    /// The paper's dual Xeon E5-2650 box.
    pub fn dual_xeon_e5_2650() -> Self {
        CpuSpec {
            name: "2x Xeon E5-2650 (simulated)".into(),
            cores: 16,
            hw_threads: 32,
            per_thread_bandwidth: 2.5e9,
            mem_bandwidth_max: 28.0e9,
            per_tuple_cost: 2.0e-9,
            random_access_efficiency: 0.35,
        }
    }

    /// Aggregate sequential bandwidth available to `threads` threads
    /// (linear until the memory wall, flat afterwards — the saturation
    /// Figure 11 demonstrates).
    #[inline]
    pub fn bandwidth_at(&self, threads: u32) -> f64 {
        (threads as f64 * self.per_thread_bandwidth).min(self.mem_bandwidth_max)
    }

    /// Seconds for a sequential scan of `bytes` doing `tuples` cheap
    /// per-tuple operations on `threads` threads: the roofline maximum of
    /// the bandwidth term and the compute term.
    #[inline]
    pub fn scan_seconds(&self, bytes: u64, tuples: u64, threads: u32) -> f64 {
        let threads = threads.clamp(1, self.hw_threads);
        let bw_time = bytes as f64 / self.bandwidth_at(threads);
        let compute_time = tuples as f64 * self.per_tuple_cost / threads as f64;
        bw_time.max(compute_time)
    }

    /// Seconds for `bytes` of scattered access plus `tuples` per-tuple work
    /// on `threads` threads.
    #[inline]
    pub fn scattered_seconds(&self, bytes: u64, tuples: u64, threads: u32) -> f64 {
        let threads = threads.clamp(1, self.hw_threads);
        let bw = self.bandwidth_at(threads) * self.random_access_efficiency;
        let bw_time = bytes as f64 / bw;
        let compute_time = tuples as f64 * self.per_tuple_cost / threads as f64;
        bw_time.max(compute_time)
    }
}

/// Specification of the host↔device interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieSpec {
    /// Sustained DMA bandwidth, bytes/second (measured 3.95 GB/s, §VI-A).
    pub bandwidth: f64,
    /// Fixed per-transfer latency in seconds.
    pub latency: f64,
}

impl Default for PcieSpec {
    fn default() -> Self {
        PcieSpec {
            bandwidth: 3.95e9,
            latency: 12e-6,
        }
    }
}

impl PcieSpec {
    /// Seconds to move `bytes` across the bus in one transfer.
    #[inline]
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// The paper's `Stream (Hypothetical)` baseline: the minimal time any
    /// streaming GPU system needs just to move the input through PCI-E.
    #[inline]
    pub fn stream_hypothetical(&self, input_bytes: u64) -> f64 {
        input_bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx680_defaults() {
        let d = DeviceSpec::default();
        assert_eq!(d.memory_capacity, 2 * GIB);
        // Scanning 1 GB at 192 GB/s ≈ 5.6 ms.
        let t = d.stream_seconds(GIB);
        assert!(t > 0.004 && t < 0.007, "{t}");
        // Scattered access is slower than sequential.
        assert!(d.scattered_seconds(GIB) > t);
    }

    #[test]
    fn pcie_baseline_matches_paper_arithmetic() {
        let p = PcieSpec::default();
        // Paper Fig 10a: ~1080 MB input -> ~0.27 s hypothetical stream.
        let t = p.stream_hypothetical(1080 * 1024 * 1024);
        assert!((t - 0.286).abs() < 0.03, "{t}");
        // Fig 9: 1.8 GB -> ~0.45 s.
        let t = p.stream_hypothetical((1.8 * GIB as f64) as u64);
        assert!((t - 0.45).abs() < 0.05, "{t}");
    }

    #[test]
    fn cpu_bandwidth_saturates() {
        let c = CpuSpec::default();
        let one = c.bandwidth_at(1);
        let sixteen = c.bandwidth_at(16);
        let thirty_two = c.bandwidth_at(32);
        assert!(sixteen > one * 6.0, "near-linear early scaling");
        // Memory wall: going 16 -> 32 threads gains almost nothing.
        assert!(thirty_two <= sixteen * 1.1);
        assert_eq!(c.bandwidth_at(64), c.bandwidth_at(32), "clamped at ceiling");
    }

    #[test]
    fn scan_seconds_roofline() {
        let c = CpuSpec::default();
        // Pure bandwidth-bound: doubling threads below the wall halves time.
        let t1 = c.scan_seconds(GIB, 0, 1);
        let t2 = c.scan_seconds(GIB, 0, 2);
        assert!((t1 / t2 - 2.0).abs() < 0.01);
        // Compute-bound case: tuple term dominates for tiny bytes.
        let t = c.scan_seconds(1, 1_000_000_000, 1);
        assert!((t - 2.0).abs() < 0.01);
    }

    #[test]
    fn transfer_includes_latency() {
        let p = PcieSpec::default();
        assert!(p.transfer_seconds(0) > 0.0);
        let small = p.transfer_seconds(64);
        let big = p.transfer_seconds(1_000_000_000);
        assert!(big > small);
        assert!((big - (p.latency + 1e9 / 3.95e9)).abs() < 1e-9);
    }
}
