//! Statistics-based working-set estimation for A&R admission.
//!
//! [`crate::admission::working_set_estimate`] is deliberately worst-case:
//! it assumes every predicate matches every row. That is safe but
//! pessimistic — on a large table a single worst-case reservation can
//! occupy the whole non-persistent share of a card and serialize the A&R
//! stream even when the actual candidate lists are tiny. The binder
//! already computes a uniform-domain `selectivity_hint` for every range
//! selection (min/max statistics, the sketch-sized summary the relational
//! coreset literature shows goes a long way); this module turns those
//! hints into a smaller *initial* reservation.
//!
//! The estimate is intentionally not trusted blindly:
//!
//! * a configurable [`EstimateConfig::safety_factor`] inflates the hinted
//!   footprint (relaxed approximate selections match a superset of the
//!   exact predicate, and hints assume uniformity);
//! * the estimate is clamped to the worst case — statistics can only
//!   shrink a reservation, never grow it;
//! * the scheduler enforces the estimate as the query's device budget
//!   during execution, and an underestimated query OOMs early, releases
//!   its permit, inflates to the worst case and re-enters its device's
//!   admission queue (see `crates/sched/src/scheduler.rs`).

use crate::admission::{
    working_set_estimate, CANDIDATE_PAIR_BYTES, GATHER_VALUE_BYTES, KERNEL_SCRATCH_BYTES,
};
use bwd_core::plan::ArPlan;
use bwd_engine::Database;

/// Knobs for statistics-based admission estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateConfig {
    /// Use the binder's `selectivity_hint`s at all. `false` reproduces
    /// the original worst-case-only admission exactly.
    pub use_hints: bool,
    /// Multiplier applied to the hinted footprint before reserving
    /// (clamped so the result never exceeds the worst case). Values above
    /// 1 buy headroom against non-uniform data and relaxation false
    /// positives; values below 1 deliberately under-reserve and lean on
    /// the OOM → re-queue path (useful in tests, rarely in production).
    pub safety_factor: f64,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig {
            use_hints: true,
            safety_factor: 4.0,
        }
    }
}

/// The two admission sizes of one A&R query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSetEstimate {
    /// Selectivity-informed reservation (≤ `worst_case`; equals it when
    /// hints are disabled or absent).
    pub estimated: u64,
    /// The selectivity-independent upper bound
    /// ([`crate::admission::working_set_estimate`]).
    pub worst_case: u64,
}

impl WorkingSetEstimate {
    /// Whether statistics actually shrank the reservation — only then is
    /// the in-flight budget enforced (a worst-case reservation can never
    /// be exceeded, so enforcing it would be dead weight).
    pub fn is_reduced(&self) -> bool {
        self.estimated < self.worst_case
    }

    /// The data share of the estimate — what the executor may spend on
    /// candidate lists and gathers after the fixed kernel scratch is set
    /// aside.
    pub fn data_budget(&self) -> u64 {
        self.estimated.saturating_sub(KERNEL_SCRATCH_BYTES)
    }
}

/// Estimate one A&R query's device working set from the plan's
/// selectivity hints.
///
/// The approximate selection chain filters candidates monotonically, so
/// the `i`-th candidate list holds about `rows × Π selectivity(1..=i)`
/// entries, and the aggregation gathers run over the final list. Each
/// term is inflated by the safety factor, capped at `rows`, and the sum
/// is clamped to the worst case. Selections without a hint contribute
/// selectivity 1 (no reduction).
pub fn estimate_working_set(
    db: &Database,
    plan: &ArPlan,
    cfg: &EstimateConfig,
) -> WorkingSetEstimate {
    estimate_working_set_scaled(db, plan, cfg, 1.0)
}

/// [`estimate_working_set`] with an extra multiplicative candidate-count
/// factor — the calibrator's hook ([`crate::Calibrator::cands_factor`]).
///
/// `factor` scales the hinted candidate fractions exactly like the safety
/// factor does (composing with it), so a stream whose observed candidate
/// lists run consistently below the uniform-domain hints reserves less
/// and admits more concurrently. The result stays clamped to the worst
/// case, and an over-shrunk reservation is not a correctness risk: the
/// budget-enforced execution OOMs early and re-enters admission at the
/// worst case, the same graceful path a bad hint already takes. A
/// non-finite or non-positive factor is ignored (treated as 1).
pub fn estimate_working_set_scaled(
    db: &Database,
    plan: &ArPlan,
    cfg: &EstimateConfig,
    factor: f64,
) -> WorkingSetEstimate {
    let worst_case = working_set_estimate(db, plan);
    let safety = cfg.safety_factor;
    if !cfg.use_hints || !safety.is_finite() || safety <= 0.0 {
        return WorkingSetEstimate {
            estimated: worst_case,
            worst_case,
        };
    }
    let scale = if factor.is_finite() && factor > 0.0 {
        safety * factor
    } else {
        safety
    };
    let rows = db
        .catalog()
        .table(&plan.table)
        .map(|t| t.len() as u64)
        .unwrap_or(0);
    let mut cum = 1.0f64;
    let mut bytes = KERNEL_SCRATCH_BYTES;
    for sel in &plan.selections {
        if let Some(h) = sel.selectivity_hint {
            cum *= h.clamp(0.0, 1.0);
        }
        let frac = (cum * scale).clamp(0.0, 1.0);
        bytes += (rows as f64 * frac).ceil() as u64 * CANDIDATE_PAIR_BYTES;
    }
    let frac = (cum * scale).clamp(0.0, 1.0);
    bytes += (rows as f64 * frac).ceil() as u64
        * plan.gathered_columns().len() as u64
        * GATHER_VALUE_BYTES;
    WorkingSetEstimate {
        estimated: bytes.min(worst_case),
        worst_case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate};
    use bwd_storage::Column;
    use bwd_types::Value;

    fn hinted_plan() -> (Database, bwd_core::plan::ArPlan) {
        let mut db = Database::new();
        db.create_table(
            "t",
            vec![("a".into(), Column::from_i32((0..10_000).collect()))],
        )
        .unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(0),
                hi: Value::Int(999), // 10% of the uniform domain
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        assert!(ar.selections[0].selectivity_hint.is_some());
        (db, ar)
    }

    #[test]
    fn hints_shrink_below_worst_case() {
        let (db, ar) = hinted_plan();
        let est = estimate_working_set(&db, &ar, &EstimateConfig::default());
        assert!(est.is_reduced(), "{est:?}");
        // 10% selectivity × safety 4 = 40% of the worst-case list bytes.
        let expected = 10_000 * 2 * CANDIDATE_PAIR_BYTES / 5 + KERNEL_SCRATCH_BYTES;
        assert_eq!(est.estimated, expected);
        assert_eq!(est.worst_case, working_set_estimate(&db, &ar));
        assert!(est.data_budget() < est.estimated);
    }

    #[test]
    fn disabled_or_degenerate_configs_fall_back_to_worst_case() {
        let (db, ar) = hinted_plan();
        for cfg in [
            EstimateConfig {
                use_hints: false,
                safety_factor: 4.0,
            },
            EstimateConfig {
                use_hints: true,
                safety_factor: 0.0,
            },
            EstimateConfig {
                use_hints: true,
                safety_factor: f64::NAN,
            },
            // A huge factor saturates at the worst case, never beyond.
            EstimateConfig {
                use_hints: true,
                safety_factor: 1e12,
            },
        ] {
            let est = estimate_working_set(&db, &ar, &cfg);
            assert_eq!(est.estimated, est.worst_case, "{cfg:?}");
            assert!(!est.is_reduced());
        }
    }

    #[test]
    fn low_safety_factor_underestimates_deliberately() {
        let (db, ar) = hinted_plan();
        let est = estimate_working_set(
            &db,
            &ar,
            &EstimateConfig {
                use_hints: true,
                safety_factor: 1e-6,
            },
        );
        // Essentially only the fixed scratch survives: the re-queue test
        // relies on this to force the OOM path.
        assert!(est.estimated <= KERNEL_SCRATCH_BYTES + CANDIDATE_PAIR_BYTES);
        assert_eq!(est.data_budget(), est.estimated - KERNEL_SCRATCH_BYTES);
    }

    #[test]
    fn candidate_factor_scales_like_safety_and_stays_clamped() {
        let (db, ar) = hinted_plan();
        let cfg = EstimateConfig::default();
        let base = estimate_working_set(&db, &ar, &cfg);
        // factor 0.5 with safety 4 ≡ safety 2 with factor 1.
        let shrunk = estimate_working_set_scaled(&db, &ar, &cfg, 0.5);
        let halved = estimate_working_set_scaled(
            &db,
            &ar,
            &EstimateConfig {
                use_hints: true,
                safety_factor: 2.0,
            },
            1.0,
        );
        assert_eq!(shrunk.estimated, halved.estimated);
        assert!(shrunk.estimated < base.estimated);
        // A huge factor saturates at the worst case; degenerate factors
        // are ignored.
        assert_eq!(
            estimate_working_set_scaled(&db, &ar, &cfg, 1e12).estimated,
            base.worst_case
        );
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            assert_eq!(
                estimate_working_set_scaled(&db, &ar, &cfg, bad).estimated,
                base.estimated,
                "factor {bad}"
            );
        }
    }

    #[test]
    fn estimate_is_monotone_in_safety_factor() {
        let (db, ar) = hinted_plan();
        let mut last = 0;
        for f in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let est = estimate_working_set(
                &db,
                &ar,
                &EstimateConfig {
                    use_hints: true,
                    safety_factor: f,
                },
            );
            assert!(est.estimated >= last);
            assert!(est.estimated <= est.worst_case);
            last = est.estimated;
        }
    }
}
