//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded source of synthetic failures, driven by
//! the same [`SplitMix64`] stream discipline as the scheduler's workload
//! generator: each injection *site* (device allocations, transport
//! reads/writes, execution stage boundaries) owns an independent
//! sub-stream, so the k-th draw at a site is a pure function of
//! `(seed, site, k)`. Run the same workload in the same order against
//! the same seed and the exact same operations fail — chaos tests become
//! ordinary regression tests instead of flaky hope.
//!
//! The disabled plan ([`FaultPlan::disabled`], also `Default`) is a
//! single `Option` check on the hot path and allocates nothing, mirroring
//! the one-branch discipline of the disabled obs recorder.
//!
//! # Determinism caveat
//!
//! Draws at one site are ordered by whoever calls [`FaultPlan::roll`]
//! first. Under a single scheduler worker (how `tests/fault_domains.rs`
//! runs its seeded soak) that order is the execution order and the full
//! fault sequence is reproducible; with several workers the per-site
//! streams are still deterministic but their interleaving follows thread
//! timing: which caller gets draw k does, draw k's dice do not, so the
//! faults among a site's first n draws are the same set.

use crate::error::BwdError;
use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Device-memory allocation paths (`DeviceMemory::alloc*`): an
    /// injected fault here looks like the card failing an allocation.
    DeviceAlloc,
    /// Transport reads on the network front door.
    TransportRead,
    /// Transport writes on the network front door.
    TransportWrite,
    /// Execution stage boundaries inside the engine (the A&R pipeline
    /// polls this between steps): an injected fault here is a job dying
    /// mid-flight on its card.
    Exec,
}

impl FaultSite {
    /// Every site, in stream-index order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::DeviceAlloc,
        FaultSite::TransportRead,
        FaultSite::TransportWrite,
        FaultSite::Exec,
    ];

    fn idx(self) -> usize {
        match self {
            FaultSite::DeviceAlloc => 0,
            FaultSite::TransportRead => 1,
            FaultSite::TransportWrite => 2,
            FaultSite::Exec => 3,
        }
    }

    /// Stable lowercase name (metrics labels, injected-error messages).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::DeviceAlloc => "device-alloc",
            FaultSite::TransportRead => "transport-read",
            FaultSite::TransportWrite => "transport-write",
            FaultSite::Exec => "exec",
        }
    }
}

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Surface a typed [`BwdError::DeviceFault`] (or an `io::Error` at
    /// transport sites).
    Error,
    /// Panic, exercising the worker's `catch_unwind` accounting.
    Panic,
}

/// Per-site injection schedule.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Injection probability per draw, in parts per million
    /// (`0` = site disabled, `1_000_000` = every draw faults).
    pub ppm: u32,
    /// The first `skip` draws never fault (lets a workload warm up —
    /// e.g. data upload — before the chaos starts).
    pub skip: u64,
    /// Stop injecting after this many faults (`u64::MAX` = unbounded).
    pub max: u64,
    /// Inject [`FaultKind::Panic`] instead of [`FaultKind::Error`].
    pub panic: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            ppm: 0,
            skip: 0,
            max: u64::MAX,
            panic: false,
        }
    }
}

impl FaultSpec {
    /// A spec injecting errors with probability `ppm` / 1e6 per draw.
    pub fn with_ppm(ppm: u32) -> FaultSpec {
        FaultSpec {
            ppm,
            ..FaultSpec::default()
        }
    }
}

struct SiteState {
    spec: FaultSpec,
    rng: Mutex<SplitMix64>,
    draws: AtomicU64,
    injected: AtomicU64,
}

struct PlanInner {
    seed: u64,
    sites: [SiteState; 4],
}

/// A seeded, shareable fault-injection plan (see the [module docs](self)).
///
/// Cloning is cheap and every clone draws from the *same* underlying
/// streams — the scheduler, the device pool and the net front door can
/// all hold the one plan a test constructed.
///
/// # Examples
///
/// ```
/// use bwd_types::{FaultPlan, FaultSite, FaultSpec};
///
/// let plan = FaultPlan::seeded(42)
///     .site(FaultSite::DeviceAlloc, FaultSpec::with_ppm(250_000))
///     .build();
/// let faults = (0..100).filter(|_| plan.roll(FaultSite::DeviceAlloc).is_some()).count();
/// assert!(faults > 0); // ~25% of draws fault, deterministically
/// assert_eq!(plan.injected(FaultSite::DeviceAlloc), faults as u64);
/// ```
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FaultPlan(disabled)"),
            Some(inner) => f
                .debug_struct("FaultPlan")
                .field("seed", &inner.seed)
                .finish_non_exhaustive(),
        }
    }
}

/// Builder returned by [`FaultPlan::seeded`].
pub struct FaultPlanBuilder {
    seed: u64,
    specs: [FaultSpec; 4],
}

impl FaultPlanBuilder {
    /// Set the schedule for one site (sites not set stay disabled).
    pub fn site(mut self, site: FaultSite, spec: FaultSpec) -> FaultPlanBuilder {
        self.specs[site.idx()] = spec;
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        let mk = |i: usize| SiteState {
            spec: self.specs[i],
            // One independent sub-stream per site: seed each site's rng
            // from a distinct draw of a master stream so site streams
            // never correlate (and adding a site never shifts another).
            rng: Mutex::new(SplitMix64::new(
                SplitMix64::new(self.seed.wrapping_add(i as u64)).next_u64(),
            )),
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        };
        FaultPlan {
            inner: Some(Arc::new(PlanInner {
                seed: self.seed,
                sites: [mk(0), mk(1), mk(2), mk(3)],
            })),
        }
    }
}

impl FaultPlan {
    /// The no-fault plan: every roll is a single branch and never faults.
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// Start building a seeded plan.
    pub fn seeded(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            specs: [FaultSpec::default(); 4],
        }
    }

    /// Whether any site can inject (false for the disabled plan).
    pub fn is_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.sites.iter().any(|s| s.spec.ppm > 0))
    }

    /// One draw at `site`: `Some(kind)` means the caller must fail this
    /// operation, `None` means proceed.
    pub fn roll(&self, site: FaultSite) -> Option<FaultKind> {
        let st = &self.inner.as_ref()?.sites[site.idx()];
        if st.spec.ppm == 0 {
            return None;
        }
        // The rng must advance on every draw — skipped or capped draws
        // included — so draw k always sees the same dice regardless of
        // how many faults the schedule let through before it; and the
        // index is taken under the same lock, or two racing draws could
        // swap dice. The lock guards one rng step, which leaves the state
        // valid even if a holder panicked, so a poisoned lock is recovered.
        let (k, dice) = {
            let mut rng = st.rng.lock().unwrap_or_else(PoisonError::into_inner);
            (
                st.draws.fetch_add(1, Ordering::Relaxed),
                rng.below(1_000_000),
            )
        };
        if k < st.spec.skip || st.injected.load(Ordering::Relaxed) >= st.spec.max {
            return None;
        }
        if dice < u64::from(st.spec.ppm) {
            st.injected.fetch_add(1, Ordering::Relaxed);
            Some(if st.spec.panic {
                FaultKind::Panic
            } else {
                FaultKind::Error
            })
        } else {
            None
        }
    }

    /// Roll at `site` and surface the outcome: `Ok(())` to proceed, a
    /// typed [`BwdError::DeviceFault`] on an error injection, or a panic
    /// on a panic injection.
    pub fn check(&self, site: FaultSite) -> Result<(), BwdError> {
        match self.roll(site) {
            None => Ok(()),
            Some(FaultKind::Error) => Err(BwdError::DeviceFault(format!(
                "injected {} fault",
                site.as_str()
            ))),
            Some(FaultKind::Panic) => panic!("injected {} panic", site.as_str()),
        }
    }

    /// Draws made at `site` so far.
    pub fn draws(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.sites[site.idx()].draws.load(Ordering::Relaxed))
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.sites[site.idx()].injected.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes(plan: &FaultPlan, site: FaultSite, n: usize) -> Vec<bool> {
        (0..n).map(|_| plan.roll(site).is_some()).collect()
    }

    #[test]
    fn disabled_plan_never_faults_and_counts_nothing() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for site in FaultSite::ALL {
            assert!(plan.roll(site).is_none());
            assert!(plan.check(site).is_ok());
            assert_eq!(plan.draws(site), 0);
        }
    }

    #[test]
    fn same_seed_same_site_same_sequence() {
        let mk = || {
            FaultPlan::seeded(7)
                .site(FaultSite::DeviceAlloc, FaultSpec::with_ppm(300_000))
                .site(FaultSite::Exec, FaultSpec::with_ppm(300_000))
                .build()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(
            outcomes(&a, FaultSite::DeviceAlloc, 200),
            outcomes(&b, FaultSite::DeviceAlloc, 200)
        );
        // Sites are independent streams: draining one doesn't shift the
        // other (b drew DeviceAlloc first, a draws Exec fresh).
        assert_eq!(
            outcomes(&a, FaultSite::Exec, 200),
            outcomes(&b, FaultSite::Exec, 200)
        );
    }

    #[test]
    fn skip_and_max_bound_the_schedule() {
        let plan = FaultPlan::seeded(3)
            .site(
                FaultSite::DeviceAlloc,
                FaultSpec {
                    ppm: 1_000_000,
                    skip: 5,
                    max: 3,
                    panic: false,
                },
            )
            .build();
        let hits = outcomes(&plan, FaultSite::DeviceAlloc, 50);
        assert!(hits[..5].iter().all(|h| !h), "skip window must not fault");
        assert_eq!(hits.iter().filter(|&&h| h).count(), 3, "max caps faults");
        assert_eq!(plan.injected(FaultSite::DeviceAlloc), 3);
        assert_eq!(plan.draws(FaultSite::DeviceAlloc), 50);
    }

    #[test]
    fn check_surfaces_typed_error_and_panic_kind() {
        let plan = FaultPlan::seeded(1)
            .site(FaultSite::Exec, FaultSpec::with_ppm(1_000_000))
            .build();
        assert!(matches!(
            plan.check(FaultSite::Exec),
            Err(BwdError::DeviceFault(_))
        ));
        let panicky = FaultPlan::seeded(1)
            .site(
                FaultSite::Exec,
                FaultSpec {
                    ppm: 1_000_000,
                    panic: true,
                    ..FaultSpec::default()
                },
            )
            .build();
        let caught = std::panic::catch_unwind(|| panicky.check(FaultSite::Exec));
        assert!(caught.is_err(), "panic kind must unwind");
    }

    #[test]
    fn clones_share_one_stream() {
        let plan = FaultPlan::seeded(9)
            .site(FaultSite::TransportRead, FaultSpec::with_ppm(500_000))
            .build();
        let clone = plan.clone();
        let solo = FaultPlan::seeded(9)
            .site(FaultSite::TransportRead, FaultSpec::with_ppm(500_000))
            .build();
        // Interleaving plan and its clone walks the same single stream a
        // fresh plan walks alone.
        let mut interleaved = Vec::new();
        for i in 0..100 {
            let p = if i % 2 == 0 { &plan } else { &clone };
            interleaved.push(p.roll(FaultSite::TransportRead).is_some());
        }
        assert_eq!(interleaved, outcomes(&solo, FaultSite::TransportRead, 100));
        assert_eq!(plan.draws(FaultSite::TransportRead), 100);
    }

    /// Racing workers cannot swap dice: four threads rolling 5 000 times
    /// each at one site inject exactly the faults the serial plan injects
    /// over the same 20 000 draws.
    #[test]
    fn racing_draws_keep_their_dice() {
        const THREADS: usize = 4;
        const ROLLS: usize = 5_000;
        let spec = FaultSpec {
            ppm: 500_000,
            skip: 2_000,
            ..FaultSpec::default()
        };
        let mk = || FaultPlan::seeded(11).site(FaultSite::Exec, spec).build();
        let serial = outcomes(&mk(), FaultSite::Exec, THREADS * ROLLS);
        let want = serial.iter().filter(|&&hit| hit).count() as u64;
        for round in 0..20 {
            let (plan, start) = (mk(), std::sync::Barrier::new(THREADS));
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        // All four contend from the first draw, so the skip
                        // boundary is crossed in a race.
                        start.wait();
                        outcomes(&plan, FaultSite::Exec, ROLLS)
                    });
                }
            });
            assert_eq!(plan.draws(FaultSite::Exec), (THREADS * ROLLS) as u64);
            assert_eq!(plan.injected(FaultSite::Exec), want, "round {round}");
        }
    }
}
