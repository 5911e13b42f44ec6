//! What a plan's columns predict a run of it counts: the [`Counts`] the
//! scheduler's footprint bills, and the chooser prices each candidate plan
//! by ([`super::order`]). The one place a count is predicted.

use super::{ColRef, Counts, Grouping, RefineCounts, Shape};
use bwd_core::plan::ArPlan;
use bwd_core::relax::relax_to_stored;
use bwd_core::RangePred;
use bwd_storage::Column;

impl ColRef<'_> {
    /// Distinct payloads between the column's extrema.
    pub(super) fn domain(&self) -> f64 {
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

    /// The share of the rows selection `i`'s exact predicate keeps,
    /// payloads uniform between its column's extrema: the range clamped to
    /// them, counted in `f64` (a domain spanning `i64` overflows no width),
    /// 0 where it misses them; `None` for an empty column.
    pub(crate) fn keep(&self, i: usize) -> Option<f64> {
        let col = match self {
            Shape::Classic(s) => s.sels[i].0,
            Shape::Ar(s) => s.sels[i].0.plain,
        };
        let (min, max) = col.payload_min_max()?;
        let range = &self.plan_rows().0.selections[i].range;
        let lo = range.lo.unwrap_or(min).max(min);
        let hi = range.hi.unwrap_or(max).min(max);
        if hi < lo {
            return Some(0.0);
        }
        Some((((hi as f64 - lo as f64) + 1.0) / domain(col)).clamp(0.0, 1.0))
    }

    /// The plan this shape was resolved from, and its fact table's rows.
    fn plan_rows(&self) -> (&'a ArPlan, u64) {
        match self {
            Shape::Classic(s) => (s.plan, s.rows),
            Shape::Ar(s) => (s.plan, s.rows),
        }
    }

    /// The groups the plan's first `keys` group keys form over the whole
    /// fact table: exact where its [`crate::Occupancy`] covers every one,
    /// else the product of their domains; 0 where neither a device
    /// grouping nor a fold counts them.
    fn key_groups(&self, keys: usize) -> f64 {
        let (plan, table) = match self {
            Shape::Ar(s) if s.grouping != Grouping::None || !s.plan.fold.is_empty() => {
                (s.plan, s.table)
            }
            Shape::Classic(s) if !s.plan.fold.is_empty() => (s.plan, s.table),
            _ => return 0.0,
        };
        if let Some(groups) = table.occupancy().groups(&plan.group_keys()[..keys]) {
            return groups as f64;
        }
        match self {
            Shape::Ar(s) => s.group_cols[..keys].iter().map(ColRef::domain).product(),
            Shape::Classic(s) => s.keys[..keys].iter().map(|c| domain(c)).product(),
        }
    }

    /// The counts the plan's columns predict. Per selection the relaxed
    /// interval's share of the column's domain is what the approximation
    /// *admits*, its inner interval's what it *decides*, and its range's
    /// keep share what the exact predicate keeps (an empty column: what is
    /// admitted); shares multiply along the chain as independent. The groups
    /// a device grouping or a fold's table finds are the keys' groups over
    /// the whole table (exact where its [`crate::Occupancy`] covers every
    /// key, else the product of the key domains), capped by the candidates
    /// — an A&R fold's result groups its plain keys' alike, capped by the
    /// fold groups; a refinement chain shrinks evenly from the undecided
    /// candidates to the ones that survive.
    pub fn predict(&self) -> Counts {
        let (plan, rows) = self.plan_rows();
        let n = |share: f64| (rows as f64 * share).ceil() as u64;
        let (mut admitted, mut decided, mut exact) = (1.0f64, 1.0f64, 1.0f64);
        let mut c = Counts {
            rows,
            dense: plan.selections.is_empty(),
            ..Counts::default()
        };
        for i in 0..plan.selections.len() {
            let share = self.keep(i);
            let exact_only = (share.unwrap_or(1.0), share.unwrap_or(1.0));
            let (admit, decide) = self.shares(i).unwrap_or(exact_only);
            let keep = share.unwrap_or(admit).clamp(decide.min(admit), admit);
            (admitted, decided, exact) = (admitted * admit, decided * decide, exact * keep);
            c.steps.push(n(admitted));
        }
        (c.undecided, c.survivors) = (n(admitted) - n(decided), n(exact));
        let (keys, plain) = (plan.group_keys().len(), plan.group_by.len());
        c.groups = self.key_groups(keys).min(c.candidates() as f64) as u64;
        if matches!(self, Shape::Ar(_)) && !plan.fold.is_empty() {
            c.result_groups = self.key_groups(plain).min(c.groups as f64) as u64;
        }
        let steps = match self {
            Shape::Classic(_) => 0,
            Shape::Ar(s) => s.refine_order(&c).len() as u64,
        };
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
