//! What a plan's statistics predict a run of it counts: the [`Counts`] the
//! scheduler's footprint bills, and the chooser prices each candidate plan
//! by ([`super::order`]).

use super::{ColRef, Counts, Grouping, RefineCounts, Shape};
use bwd_core::plan::ArPlan;
use bwd_core::relax::relax_to_stored;
use bwd_core::RangePred;
use bwd_storage::Column;

impl ColRef<'_> {
    /// Distinct payloads between the column's extrema.
    fn domain(&self) -> f64 {
        let meta = self.bound.meta();
        relax_to_stored(meta, &RangePred::all()).map_or(1.0, |all| all.payloads(meta).0)
    }
}

/// Distinct payloads between a column's extrema (1 for an empty one).
pub(super) fn domain(col: &Column) -> f64 {
    col.payload_min_max()
        .map_or(1.0, |(lo, hi)| (hi as f64 - lo as f64) + 1.0)
}

impl<'a> Shape<'a> {
    /// Shares of the column's domain selection `i`'s relaxed interval
    /// *admits* and its inner interval *decides*, payloads uniform over
    /// the domain; `None` where the pipe tests exact values.
    pub fn shares(&self, i: usize) -> Option<(f64, f64)> {
        let Shape::Ar(s) = self else { return None };
        let (c, relaxed) = &s.sels[i];
        let (admitted, decided) = relaxed.map_or((0.0, 0.0), |r| r.payloads(c.bound.meta()));
        Some((admitted / c.domain(), decided / c.domain()))
    }

    /// How many refinements a run with counts `c` records.
    pub fn refinements(&self, c: &Counts) -> usize {
        match self {
            Shape::Classic(_) => 0,
            Shape::Ar(s) => s.refine_order(c).len(),
        }
    }

    /// Upper bound on the groups a device grouping or a fold's table can
    /// find: the product of its key columns' domains (0 without either). A
    /// slot-addressed table's slots are exact from the shape; how many of
    /// them the data occupies is still this prediction.
    pub fn key_domain(&self) -> f64 {
        match self {
            Shape::Ar(s) if s.grouping != Grouping::None || !s.plan.fold.is_empty() => {
                s.group_cols.iter().map(ColRef::domain).product()
            }
            Shape::Classic(s) if !s.plan.fold.is_empty() => {
                s.keys.iter().map(|c| domain(c)).product()
            }
            _ => 0.0,
        }
    }

    /// The plan this shape was resolved from, and its fact table's rows.
    fn plan_rows(&self) -> (&'a ArPlan, u64) {
        match self {
            Shape::Classic(s) => (s.plan, s.rows),
            Shape::Ar(s) => (s.plan, s.rows),
        }
    }

    /// The counts the plan's statistics predict. Per selection the relaxed
    /// interval's share of the column's domain is what the approximation
    /// *admits*, its inner interval's what it *decides*, and the binder's
    /// hint what the exact predicate keeps (no hint: whatever is admitted);
    /// shares multiply along the chain as independent. Groups are bounded by
    /// the key columns' domains (the slots of a table the packed key
    /// addresses are exact from the shape; only how many of them the data
    /// occupies is predicted here); a refinement chain shrinks evenly from
    /// the undecided candidates to the ones that survive.
    pub fn predict(&self) -> Counts {
        let (plan, rows) = self.plan_rows();
        let n = |share: f64| (rows as f64 * share).ceil() as u64;
        let (mut admitted, mut decided, mut exact) = (1.0f64, 1.0f64, 1.0f64);
        let mut c = Counts {
            rows,
            dense: plan.selections.is_empty(),
            ..Counts::default()
        };
        for (i, sel) in plan.selections.iter().enumerate() {
            let hint = sel.selectivity_hint.map(|h| h.clamp(0.0, 1.0));
            let exact_only = (hint.unwrap_or(1.0), hint.unwrap_or(1.0));
            let (admit, decide) = self.shares(i).unwrap_or(exact_only);
            let keep = hint.unwrap_or(admit).clamp(decide.min(admit), admit);
            (admitted, decided, exact) = (admitted * admit, decided * decide, exact * keep);
            c.steps.push(n(admitted));
        }
        (c.undecided, c.survivors) = (n(admitted) - n(decided), n(exact));
        c.groups = self.key_domain().min(c.candidates() as f64) as u64;
        let steps = self.refinements(&c) as u64;
        let dropped = c.undecided - c.refined().min(c.undecided);
        let live = |k: u64| c.undecided - dropped * k / steps;
        let shrink = |k| RefineCounts {
            live: live(k),
            kept: live(k + 1),
        };
        c.refines = (0..steps).map(shrink).collect();
        c
    }
}
