//! The simulated co-processors and the execution environment around them.
//!
//! A [`Device`] bundles a [`DeviceSpec`] with its [`DeviceMemory`] and a
//! per-device [`SharedLedger`]; a [`DevicePool`] is the ordered set of
//! co-processors installed in one host; an [`Env`] adds the host
//! [`CpuSpec`] and the [`PcieSpec`] link — the complete platform a query
//! executes on. Kernels and operators take an `Env` plus a
//! [`CostLedger`] and charge their simulated time against the
//! environment's *selected* device ([`Env::device`]); the scheduler picks
//! the selected device per query via [`Env::on_device`].

use crate::ledger::{Component, CostLedger, SharedLedger};
use crate::memory::{DeviceBuffer, DeviceMemory};
use crate::spec::{CpuSpec, DeviceSpec, PcieSpec};
use bwd_types::{BwdError, Result};
use std::fmt;
use std::sync::Arc;

/// One simulated co-processor.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    memory: DeviceMemory,
    ledger: SharedLedger,
}

impl Device {
    /// A device with the given spec, a fresh memory system and an empty
    /// accounting ledger.
    pub fn new(spec: DeviceSpec) -> Self {
        let memory = DeviceMemory::new(spec.memory_capacity);
        Device {
            spec,
            memory,
            ledger: SharedLedger::new(),
        }
    }

    /// The hardware description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device memory system.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// This device's accumulated accounting ledger.
    ///
    /// The scheduler folds the co-processor share of every query served
    /// by this device (kernel time plus the PCI-E transfers that fed it)
    /// in here, so per-device utilization survives scheduler shutdown —
    /// the multi-device throughput sweep reads these after the fact.
    pub fn ledger(&self) -> &SharedLedger {
        &self.ledger
    }

    /// Allocate device-resident storage *and* charge the PCI-E upload of
    /// `bytes` into it. This is how persistent approximations arrive on
    /// the device at decomposition time (a one-time cost the paper pays
    /// outside query execution — charge it to a separate ledger).
    pub fn upload(&self, bytes: u64, label: &str, ledger: &mut CostLedger) -> Result<DeviceBuffer> {
        let buf = self.memory.alloc(bytes)?;
        let link = PcieSpec::default();
        ledger.charge(Component::Pcie, label, link.transfer_seconds(bytes), bytes);
        Ok(buf)
    }
}

/// The ordered, non-empty set of co-processors installed in one host.
///
/// Each device is independent: its own [`DeviceMemory`] (so admission on
/// one card never blocks another), its own [`SharedLedger`], and its own
/// cost spec — the pool may be heterogeneous. Device `0` is the
/// *primary* device; a pool of one reproduces the paper's single-GTX-680
/// platform exactly.
#[derive(Debug, Clone)]
pub struct DevicePool {
    devices: Vec<Arc<Device>>,
}

impl DevicePool {
    /// A pool with one fresh device per spec. An empty spec list falls
    /// back to a single default device (a pool is never empty).
    pub fn new(specs: impl IntoIterator<Item = DeviceSpec>) -> Self {
        let mut devices: Vec<Arc<Device>> = specs
            .into_iter()
            .map(|s| Arc::new(Device::new(s)))
            .collect();
        if devices.is_empty() {
            devices.push(Arc::new(Device::new(DeviceSpec::default())));
        }
        DevicePool { devices }
    }

    /// All devices, in index order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// The primary device (index 0).
    pub fn primary(&self) -> &Arc<Device> {
        &self.devices[0]
    }

    /// The device at `idx`, if any.
    pub fn get(&self, idx: usize) -> Option<&Arc<Device>> {
        self.devices.get(idx)
    }
}

/// A scheduler-installed hook the executors poll between units of work
/// (morsel batches, pipeline stages, tail slices) so a running query
/// observes a cancellation or deadline at a safe boundary — and stops.
///
/// Exactly mirrors the [`bwd_obs::TraceCtx`] pattern: disabled costs one
/// branch per check and is the default everywhere, so executors call
/// [`YieldPoint::check`] unconditionally and propagate its error with
/// `?`. The hook runs *between* result-affecting steps and never mutates
/// executor state: when it returns `Ok(())` the results, traffic and
/// simulated costs are bit-identical whether it is installed or not;
/// when it returns an error (cancellation, deadline) the execution stops
/// at that boundary and produces no result at all.
#[derive(Clone, Default)]
pub struct YieldPoint {
    hook: Option<Arc<dyn Fn() -> Result<()> + Send + Sync>>,
}

impl YieldPoint {
    /// The no-op yield point (one branch per check).
    pub fn disabled() -> Self {
        YieldPoint { hook: None }
    }

    /// A yield point that runs `hook` at every check.
    pub fn new(hook: Arc<dyn Fn() -> Result<()> + Send + Sync>) -> Self {
        YieldPoint { hook: Some(hook) }
    }

    /// Whether a hook is installed — executors may use this to pick a
    /// finer work partitioning worth yielding between.
    pub fn is_enabled(&self) -> bool {
        self.hook.is_some()
    }

    /// Poll the yield point: runs the scheduler's hook if one is
    /// installed, otherwise a single branch. An `Err` means the current
    /// execution must stop at this boundary (the caller propagates it).
    #[inline]
    pub fn check(&self) -> Result<()> {
        match &self.hook {
            Some(hook) => hook(),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for YieldPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("YieldPoint")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// The complete simulated platform: host, co-processor pool, interconnect.
///
/// [`Env::device`] is the *selected* device — the one kernels charge
/// their costs against. Single-device code never has to know the pool
/// exists: `device` is the pool's primary by default, and every
/// pre-multi-device constructor builds a pool of one.
#[derive(Debug, Clone)]
pub struct Env {
    /// The selected co-processor (a member of [`Env::pool`]; queries run
    /// against this device's spec and memory).
    pub device: Arc<Device>,
    /// Every co-processor installed in the host, primary first.
    pub pool: DevicePool,
    /// Host CPU model.
    pub cpu: CpuSpec,
    /// Interconnect model.
    pub pcie: PcieSpec,
    /// Host threads the current execution may use (1 for the paper's
    /// single-query latency experiments; up to 32 in Figure 11).
    pub host_threads: u32,
    /// Trace context of the current execution. Disabled by default (one
    /// branch per recorded event); the scheduler swaps in the query's
    /// recorder on the per-query `Env` clone it hands the executor.
    pub trace: bwd_obs::TraceCtx,
    /// Cancellation and deadline hook of the current execution.
    /// Disabled by default (one branch per check); the scheduler installs
    /// its hook on the per-query `Env` clone, exactly like `trace`.
    pub yield_point: YieldPoint,
    /// Fault-injection plan of the current execution. Disabled by
    /// default (one branch per roll); the A&R executor polls its
    /// [`bwd_types::FaultSite::Exec`] stream between pipeline stages so
    /// chaos tests can kill a job mid-flight on its card.
    pub fault: bwd_types::FaultPlan,
}

impl Env {
    /// The paper's platform with default specs (one GTX 680).
    pub fn paper_default() -> Self {
        Env::with_devices(vec![DeviceSpec::default()])
    }

    /// Same platform with a custom (single) device spec.
    pub fn with_device(spec: DeviceSpec) -> Self {
        Env::with_devices(vec![spec])
    }

    /// A platform with one device per spec (heterogeneous pools are
    /// allowed). The first spec becomes the primary / selected device;
    /// an empty list falls back to one default device.
    pub fn with_devices(specs: Vec<DeviceSpec>) -> Self {
        let pool = DevicePool::new(specs);
        Env {
            device: Arc::clone(pool.primary()),
            pool,
            cpu: CpuSpec::default(),
            pcie: PcieSpec::default(),
            host_threads: 1,
            trace: bwd_obs::TraceCtx::disabled(),
            yield_point: YieldPoint::disabled(),
            fault: bwd_types::FaultPlan::disabled(),
        }
    }

    /// A copy of this environment with the device at `idx` selected —
    /// subsequent kernel charges and admission target that card. The
    /// scheduler's placement policy uses this per query.
    ///
    /// # Errors
    /// [`BwdError::InvalidArgument`] when `idx` is outside the pool.
    pub fn on_device(&self, idx: usize) -> Result<Env> {
        let device = self.pool.get(idx).cloned().ok_or_else(|| {
            BwdError::InvalidArgument(format!(
                "device index {idx} out of range (pool has {} devices)",
                self.pool.devices().len()
            ))
        })?;
        Ok(Env {
            device,
            pool: self.pool.clone(),
            cpu: self.cpu.clone(),
            pcie: self.pcie.clone(),
            host_threads: self.host_threads,
            trace: self.trace.clone(),
            yield_point: self.yield_point.clone(),
            fault: self.fault.clone(),
        })
    }

    /// Builder-style override of the host thread count.
    pub fn host_threads(mut self, threads: u32) -> Self {
        self.host_threads = threads.clamp(1, self.cpu.hw_threads);
        self
    }

    /// Charge a device kernel: launch overhead + sequential traffic +
    /// compute term (the roofline maximum of the latter two).
    pub fn charge_kernel(&self, label: &str, seq_bytes: u64, ops: u64, ledger: &mut CostLedger) {
        let spec = self.device.spec();
        let t = spec.kernel_launch_overhead
            + spec
                .stream_seconds(seq_bytes)
                .max(spec.compute_seconds(ops));
        ledger.charge(Component::Device, label, t, seq_bytes);
    }

    /// Charge a device kernel dominated by scattered memory access.
    pub fn charge_kernel_scattered(
        &self,
        label: &str,
        scattered_bytes: u64,
        ops: u64,
        ledger: &mut CostLedger,
    ) {
        let spec = self.device.spec();
        let t = spec.kernel_launch_overhead
            + spec
                .scattered_seconds(scattered_bytes)
                .max(spec.compute_seconds(ops));
        ledger.charge(Component::Device, label, t, scattered_bytes);
    }

    /// Charge a device→host result transfer.
    pub fn charge_download(&self, label: &str, bytes: u64, ledger: &mut CostLedger) {
        ledger.charge(
            Component::Pcie,
            label,
            self.pcie.transfer_seconds(bytes),
            bytes,
        );
    }

    /// Charge a host→device transfer (the bus is priced alike both ways).
    pub fn charge_upload(&self, label: &str, bytes: u64, ledger: &mut CostLedger) {
        self.charge_download(label, bytes, ledger);
    }

    /// Charge host work: sequential scan of `bytes` with `tuples`
    /// per-tuple operations on the environment's thread allocation.
    pub fn charge_host_scan(&self, label: &str, bytes: u64, tuples: u64, ledger: &mut CostLedger) {
        let t = self.cpu.scan_seconds(bytes, tuples, self.host_threads);
        ledger.charge(Component::Host, label, t, bytes);
    }

    /// Charge host work dominated by scattered access.
    pub fn charge_host_scattered(
        &self,
        label: &str,
        bytes: u64,
        tuples: u64,
        ledger: &mut CostLedger,
    ) {
        let t = self.cpu.scattered_seconds(bytes, tuples, self.host_threads);
        ledger.charge(Component::Host, label, t, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_charges_pcie_and_reserves_memory() {
        let env = Env::paper_default();
        let mut ledger = CostLedger::new();
        let buf = env
            .device
            .upload(1_000_000, "approx.lon", &mut ledger)
            .unwrap();
        assert_eq!(buf.bytes(), 1_000_000);
        assert_eq!(env.device.memory().used(), 1_000_000);
        assert!(ledger.breakdown().pcie > 0.0);
        assert_eq!(ledger.breakdown().device, 0.0);
    }

    #[test]
    fn kernel_charges_device_only() {
        let env = Env::paper_default();
        let mut ledger = CostLedger::new();
        env.charge_kernel("scan", 1 << 30, 1_000_000, &mut ledger);
        let b = ledger.breakdown();
        assert!(b.device > 0.0);
        assert_eq!(b.host, 0.0);
        assert_eq!(b.pcie, 0.0);
        // 1 GiB at 192 GB/s: in the five-millisecond range.
        assert!(b.device > 0.004 && b.device < 0.008, "{}", b.device);
    }

    #[test]
    fn scattered_kernel_costs_more_than_sequential() {
        let env = Env::paper_default();
        let mut seq = CostLedger::new();
        let mut scat = CostLedger::new();
        env.charge_kernel("a", 1 << 28, 0, &mut seq);
        env.charge_kernel_scattered("b", 1 << 28, 0, &mut scat);
        assert!(scat.breakdown().device > seq.breakdown().device);
    }

    #[test]
    fn host_charges_respect_thread_allocation() {
        let env1 = Env::paper_default();
        let env8 = Env::paper_default().host_threads(8);
        let mut l1 = CostLedger::new();
        let mut l8 = CostLedger::new();
        env1.charge_host_scan("scan", 1 << 30, 0, &mut l1);
        env8.charge_host_scan("scan", 1 << 30, 0, &mut l8);
        assert!(l1.breakdown().host > l8.breakdown().host * 4.0);
    }

    #[test]
    fn thread_override_clamps() {
        let env = Env::paper_default().host_threads(1000);
        assert_eq!(env.host_threads, env.cpu.hw_threads);
        let env = Env::paper_default().host_threads(0);
        assert_eq!(env.host_threads, 1);
    }

    #[test]
    fn device_oom_propagates() {
        let env = Env::with_device(DeviceSpec::default().with_capacity(10));
        let mut ledger = CostLedger::new();
        assert!(env.device.upload(100, "too-big", &mut ledger).is_err());
    }

    #[test]
    fn pool_is_never_empty_and_indexes() {
        let pool = DevicePool::new(Vec::new());
        assert_eq!(pool.devices().len(), 1);
        let pool = DevicePool::new(vec![
            DeviceSpec::gtx680(),
            DeviceSpec::gtx680().with_capacity(1 << 20),
        ]);
        assert_eq!(pool.devices().len(), 2);
        assert_eq!(pool.get(1).unwrap().spec().memory_capacity, 1 << 20);
        assert!(pool.get(2).is_none());
    }

    #[test]
    fn pool_devices_have_independent_memory_and_ledgers() {
        let env = Env::with_devices(vec![DeviceSpec::gtx680(); 2]);
        let d0 = &env.pool.devices()[0];
        let d1 = &env.pool.devices()[1];
        let mut ledger = CostLedger::new();
        let _buf = d0.upload(100, "only-dev0", &mut ledger).unwrap();
        assert_eq!(d0.memory().used(), 100);
        assert_eq!(d1.memory().used(), 0);
        d0.ledger().charge(Component::Device, "q", 1.0, 8);
        assert_eq!(d0.ledger().breakdown().device, 1.0);
        assert_eq!(d1.ledger().breakdown().device, 0.0);
    }

    #[test]
    fn on_device_selects_and_rejects_out_of_range() {
        let env = Env::with_devices(vec![DeviceSpec::gtx680(); 2]).host_threads(4);
        let env1 = env.on_device(1).unwrap();
        assert!(Arc::ptr_eq(&env1.device, &env.pool.devices()[1]));
        assert_eq!(env1.host_threads, 4);
        assert_eq!(env1.pool.devices().len(), 2);
        assert!(env.on_device(2).is_err());
        // The default selection is the primary.
        assert!(Arc::ptr_eq(&env.device, env.pool.primary()));
    }

    #[test]
    fn heterogeneous_pool_charges_by_selected_spec() {
        let slow = DeviceSpec {
            mem_bandwidth: 10.0e9,
            ..DeviceSpec::gtx680()
        };
        let env = Env::with_devices(vec![DeviceSpec::gtx680(), slow]);
        let mut fast_l = CostLedger::new();
        let mut slow_l = CostLedger::new();
        env.charge_kernel("scan", 1 << 30, 0, &mut fast_l);
        env.on_device(1)
            .unwrap()
            .charge_kernel("scan", 1 << 30, 0, &mut slow_l);
        assert!(slow_l.breakdown().device > fast_l.breakdown().device * 5.0);
    }
}
