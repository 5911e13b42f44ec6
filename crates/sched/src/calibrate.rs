//! Closed-loop estimate calibration.
//!
//! The latency and admission estimates ([`crate::PlanFootprint`]) are
//! built from static ingredients — catalog sizes, uniform-domain
//! selectivity hints, hardware specs. The scheduler *measures* how wrong
//! they are on every completed query ([`crate::StreamSnapshot::
//! estimate_ratio`], the `bwd_sched_estimate_ratio_milli` histogram); this
//! module closes the loop: per plan *shape*, an exponentially weighted
//! moving average of observed-over-predicted ratios corrects the next
//! estimate of the same shape.
//!
//! Two independent corrections are learned per [`ShapeKey`]:
//!
//! * **latency factor** — observed simulated seconds over the raw model
//!   estimate; multiplies the SJF sort key at submit time, so queue
//!   ordering (and the aging bound's notion of "short") sharpens as a
//!   session runs;
//! * **candidate factor** — observed final survivors over the hinted
//!   prediction ([`crate::PlanFootprint::predicted_survivors`]);
//!   multiplies the hinted fractions inside
//!   [`crate::PlanFootprint::reservation`], so admission reservations
//!   track real candidate list sizes instead of uniformity assumptions.
//!
//! Corrections are clamped to a symmetric range so one pathological
//! observation cannot wedge a shape, and an over-shrunk admission
//! reservation still has the OOM-early → requeue-at-worst-case backstop.
//! Determinism note: calibration state only depends on the *sequence of
//! completed queries*, never on wall-clock time, so single-worker runs
//! stay exactly reproducible.

use std::collections::HashMap;
use std::sync::Mutex;

/// Correction factors are clamped to `[1/FACTOR_CLAMP, FACTOR_CLAMP]`.
const FACTOR_CLAMP: f64 = 32.0;

/// EWMA smoothing weight of each new observation. The first observation
/// of a shape seeds the average directly (no bias toward the uncorrected
/// model).
const ALPHA: f64 = 0.3;

/// The plan-shape identity calibration is keyed on: coarse enough that a
/// seeded workload's recurring query templates collide into one bucket,
/// fine enough that a bulk grouped scan never shares a correction with a
/// selective probe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Fact table the plan scans.
    pub table: String,
    /// Classic (host bulk) execution, as opposed to approximate & refine
    /// (any candidate representation).
    pub classic: bool,
    /// Number of chained selections.
    pub selections: usize,
    /// Whether the plan joins through a foreign key.
    pub fk_join: bool,
    /// Number of group-by keys.
    pub group_by: usize,
    /// Number of aggregates.
    pub aggs: usize,
}

impl ShapeKey {
    /// Stable label for metrics output, e.g. `big/classic/s1/fk0/g1/a2`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/s{}/fk{}/g{}/a{}",
            self.table,
            if self.classic { "classic" } else { "ar" },
            self.selections,
            u8::from(self.fk_join),
            self.group_by,
            self.aggs
        )
    }
}

/// The calibration switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalibrateConfig {
    /// Learn and apply corrections at all. Disabled, every factor is 1
    /// and the estimates are the model's own.
    pub enabled: bool,
}

impl Default for CalibrateConfig {
    fn default() -> Self {
        CalibrateConfig { enabled: true }
    }
}

/// One shape's learned state.
#[derive(Debug, Clone, Copy)]
pub struct ShapeCalibration {
    /// EWMA of observed-over-estimated simulated latency.
    pub latency_ratio: f64,
    /// EWMA of observed-over-predicted final survivor counts.
    pub cands_ratio: f64,
    /// Completed queries folded into this shape.
    pub samples: u64,
}

/// Per-plan-shape EWMA calibrator shared by every session of a scheduler.
///
/// Thread-safe; one short mutex hold per completed query and per
/// submission.
#[derive(Debug)]
pub struct Calibrator {
    cfg: CalibrateConfig,
    shapes: Mutex<HashMap<ShapeKey, ShapeCalibration>>,
}

impl Calibrator {
    /// A calibrator with the given knobs (empty state).
    pub fn new(cfg: CalibrateConfig) -> Self {
        Calibrator {
            cfg,
            shapes: Mutex::new(HashMap::new()),
        }
    }

    /// Fold one completed query into its shape's averages.
    ///
    /// `raw_est`/`actual` are simulated seconds (the uncalibrated model
    /// output and the ledger's total); `predicted`/`survivors` are final
    /// candidate counts. Degenerate samples (non-positive estimates or
    /// actuals) are skipped — an estimator that predicted zero has
    /// nothing to calibrate multiplicatively.
    pub fn observe(
        &self,
        shape: &ShapeKey,
        raw_est: f64,
        actual: f64,
        predicted: u64,
        survivors: u64,
    ) {
        if !self.cfg.enabled || raw_est <= 0.0 || actual <= 0.0 {
            return;
        }
        let lat = (actual / raw_est).clamp(1.0 / FACTOR_CLAMP, FACTOR_CLAMP);
        let cands = if predicted > 0 {
            (survivors as f64 / predicted as f64).clamp(1.0 / FACTOR_CLAMP, FACTOR_CLAMP)
        } else {
            1.0
        };
        let mut shapes = self.shapes.lock().unwrap();
        let cal = shapes.entry(shape.clone()).or_insert(ShapeCalibration {
            latency_ratio: lat,
            cands_ratio: cands,
            samples: 0,
        });
        if cal.samples > 0 {
            cal.latency_ratio += ALPHA * (lat - cal.latency_ratio);
            cal.cands_ratio += ALPHA * (cands - cal.cands_ratio);
        }
        cal.samples += 1;
    }

    /// One learned ratio of `shape` (1 when disabled or unobserved).
    fn factor(&self, shape: &ShapeKey, ratio: fn(&ShapeCalibration) -> f64) -> f64 {
        if !self.cfg.enabled {
            return 1.0;
        }
        self.shapes.lock().unwrap().get(shape).map_or(1.0, ratio)
    }

    /// Multiplier for the raw latency estimate of `shape`.
    pub fn latency_factor(&self, shape: &ShapeKey) -> f64 {
        self.factor(shape, |c| c.latency_ratio)
    }

    /// Multiplier for the hinted candidate fractions of `shape`; feeds
    /// [`crate::EstimateConfig::scale`].
    pub fn cands_factor(&self, shape: &ShapeKey) -> f64 {
        self.factor(shape, |c| c.cands_ratio)
    }

    /// Every learned shape, sorted by label (stable metrics output).
    pub fn snapshot(&self) -> Vec<(ShapeKey, ShapeCalibration)> {
        let mut all: Vec<_> = self
            .shapes
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        all.sort_by_key(|(k, _)| k.label());
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ShapeKey {
        ShapeKey {
            table: "t".into(),
            classic: true,
            selections: 1,
            fk_join: false,
            group_by: 0,
            aggs: 1,
        }
    }

    #[test]
    fn first_sample_seeds_later_samples_smooth() {
        let c = Calibrator::new(CalibrateConfig::default());
        assert_eq!(c.latency_factor(&shape()), 1.0);
        c.observe(&shape(), 1.0, 2.0, 100, 50);
        assert_eq!(c.latency_factor(&shape()), 2.0); // seeded, not blended
        assert_eq!(c.cands_factor(&shape()), 0.5);
        c.observe(&shape(), 1.0, 4.0, 100, 150);
        assert_eq!(c.latency_factor(&shape()), 2.0 + 0.3 * (4.0 - 2.0));
        assert_eq!(c.cands_factor(&shape()), 0.5 + 0.3 * (1.5 - 0.5));
        assert_eq!(c.snapshot()[0].1.samples, 2);
    }

    #[test]
    fn disabled_calibrator_is_inert() {
        let c = Calibrator::new(CalibrateConfig { enabled: false });
        c.observe(&shape(), 1.0, 10.0, 10, 1000);
        assert_eq!(c.latency_factor(&shape()), 1.0);
        assert_eq!(c.cands_factor(&shape()), 1.0);
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn pathological_observations_are_clamped_or_skipped() {
        let c = Calibrator::new(CalibrateConfig::default());
        c.observe(&shape(), 0.0, 5.0, 0, 0); // zero estimate: skipped
        c.observe(&shape(), 5.0, 0.0, 0, 0); // zero actual: skipped
        assert!(c.snapshot().is_empty());
        c.observe(&shape(), 1e-12, 1e6, 1, u64::MAX);
        let (_, cal) = &c.snapshot()[0];
        assert_eq!(cal.latency_ratio, FACTOR_CLAMP);
        assert_eq!(cal.cands_ratio, FACTOR_CLAMP);
    }

    #[test]
    fn shapes_do_not_cross_talk_and_labels_are_stable() {
        let c = Calibrator::new(CalibrateConfig::default());
        let a = shape();
        let b = ShapeKey {
            classic: false,
            ..shape()
        };
        c.observe(&a, 1.0, 4.0, 10, 10);
        assert_eq!(c.latency_factor(&b), 1.0);
        assert_eq!(a.label(), "t/classic/s1/fk0/g0/a1");
        assert_eq!(b.label(), "t/ar/s1/fk0/g0/a1");
    }
}
