//! Error-bound propagation: interval arithmetic over payloads.
//!
//! Arithmetic approximation operators "yield the expected value and strict
//! error bounds of the result based on the approximate inputs" (§III). A
//! decomposed column gives each tuple a granule interval `[lo, hi]`; this
//! module propagates such intervals through the arithmetic the evaluation
//! queries use (+, −, ×, ÷, sqrt, integer pow), so later approximate
//! selections can relax their predicates against computed expressions.
//!
//! §IV-G's *destructive distributivity* is visible here: intervals stay
//! sound through any expression, but a `sum` over products cannot be
//! *refined* from per-part sums — [`Interval::width`] quantifies exactly
//! the information the refinement would be missing, which is why the A&R
//! rewriter routes such aggregations to exact (CPU or fully-resident)
//! evaluation.

use bwd_types::{BwdError, Result};

/// A closed integer interval `[lo, hi]` over payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The degenerate interval holding exactly `v`.
    #[inline]
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Construct, normalizing inverted bounds.
    #[inline]
    pub fn new(lo: i64, hi: i64) -> Self {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Whether the interval is a single point (no approximation error).
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// The error width `hi - lo` (saturating).
    #[inline]
    pub fn width(&self) -> u64 {
        self.hi.wrapping_sub(self.lo) as u64
    }

    /// Whether `v` lies inside.
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether this interval intersects `[lo, hi]` (candidate test for a
    /// selection over a computed expression).
    #[inline]
    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        self.lo <= hi && lo <= self.hi
    }

    /// Interval sum (saturating at the i64 edges; sound because saturation
    /// only widens).
    #[inline]
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    /// Interval difference.
    #[inline]
    pub fn sub(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(other.hi),
            hi: self.hi.saturating_sub(other.lo),
        }
    }

    /// Interval product: min/max over the four corner products.
    #[inline]
    pub fn mul(&self, other: &Interval) -> Interval {
        let c = [
            self.lo as i128 * other.lo as i128,
            self.lo as i128 * other.hi as i128,
            self.hi as i128 * other.lo as i128,
            self.hi as i128 * other.hi as i128,
        ];
        Interval {
            lo: clamp_i128(c.into_iter().fold(i128::MAX, i128::min)),
            hi: clamp_i128(c.into_iter().fold(i128::MIN, i128::max)),
        }
    }

    /// Interval quotient (truncating integer division; `i64::MIN / -1`
    /// saturates, which only widens).
    ///
    /// # Errors
    /// Fails when the divisor interval contains 0 — the result would be
    /// unbounded, and the rewriter must fall back to exact evaluation.
    pub fn div(&self, other: &Interval) -> Result<Interval> {
        if other.contains(0) {
            return Err(BwdError::InvalidArgument(
                "interval division by a range containing zero".into(),
            ));
        }
        let c = [
            self.lo.saturating_div(other.lo),
            self.lo.saturating_div(other.hi),
            self.hi.saturating_div(other.lo),
            self.hi.saturating_div(other.hi),
        ];
        Ok(Interval {
            lo: c.into_iter().fold(i64::MAX, i64::min),
            hi: c.into_iter().fold(i64::MIN, i64::max),
        })
    }

    /// Interval integer square root (`isqrt`, monotone, defined for
    /// non-negative inputs).
    ///
    /// # Errors
    /// Fails when the interval reaches below zero.
    pub fn sqrt(&self) -> Result<Interval> {
        if self.lo < 0 {
            return Err(BwdError::InvalidArgument(
                "interval sqrt of a range reaching below zero".into(),
            ));
        }
        Ok(Interval {
            lo: (self.lo as u64).isqrt() as i64,
            hi: (self.hi as u64).isqrt() as i64,
        })
    }

    /// Interval integer power for a small non-negative exponent.
    pub fn pow(&self, exp: u32) -> Interval {
        if exp == 0 {
            return Interval::point(1);
        }
        let lo = pow_clamped(self.lo, exp);
        let hi = pow_clamped(self.hi, exp);
        if exp.is_multiple_of(2) && self.contains(0) {
            // Even power of a sign-crossing interval bottoms out at 0.
            Interval {
                lo: 0,
                hi: lo.max(hi),
            }
        } else {
            Interval::new(lo, hi)
        }
    }
}

fn clamp_i128(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

fn pow_clamped(base: i64, exp: u32) -> i64 {
    let mut acc: i128 = 1;
    for _ in 0..exp {
        acc = acc.saturating_mul(base as i128);
        if acc > i64::MAX as i128 || acc < i64::MIN as i128 {
            return clamp_i128(acc);
        }
    }
    acc as i64
}

/// Demonstration of §IV-G: the product of two decomposed values cannot be
/// reconstructed from `a_ap·b_ap` plus residual-only terms — the cross
/// terms `a_ap·b_re` and `b_ap·a_re` need both parts on one device.
/// Returns the unavoidable reconstruction error of the "approximations
/// only" estimate, used by tests and ARCHITECTURE.md ("Decided and undecided
/// candidates": why aggregates need every gathered column resident).
pub fn destructive_distributivity_gap(a_ap: i64, a_re: i64, b_ap: i64, b_re: i64) -> i64 {
    let exact = (a_ap + a_re) * (b_ap + b_re);
    let approx_only = a_ap * b_ap + a_re * b_re; // terms computable per-device
    exact - approx_only // = a_ap*b_re + b_ap*a_re, the cross terms
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_intervals_are_exact() {
        let p = Interval::point(42);
        assert!(p.is_exact());
        assert_eq!(p.width(), 0);
        assert!(p.contains(42));
        assert!(!p.contains(41));
    }

    #[test]
    fn add_sub_mul() {
        let a = Interval::new(1, 3);
        let b = Interval::new(10, 20);
        assert_eq!(a.add(&b), Interval::new(11, 23));
        assert_eq!(b.sub(&a), Interval::new(7, 19));
        assert_eq!(a.mul(&b), Interval::new(10, 60));
        // Sign handling in products.
        let n = Interval::new(-2, 3);
        assert_eq!(n.mul(&b), Interval::new(-40, 60));
        assert_eq!(n.mul(&n), Interval::new(-6, 9));
    }

    #[test]
    fn div_rejects_zero_crossing() {
        let a = Interval::new(10, 20);
        assert!(a.div(&Interval::new(-1, 1)).is_err());
        assert_eq!(a.div(&Interval::new(2, 5)).unwrap(), Interval::new(2, 10));
        assert_eq!(
            a.div(&Interval::new(-5, -2)).unwrap(),
            Interval::new(-10, -2)
        );
        // The one overflowing quotient saturates (the parent panicked).
        let edge = Interval::new(i64::MIN, 0).div(&Interval::point(-1));
        assert_eq!(edge.unwrap(), Interval::new(0, i64::MAX));
    }

    #[test]
    fn sqrt_and_pow() {
        assert_eq!(Interval::new(4, 17).sqrt().unwrap(), Interval::new(2, 4));
        assert!(Interval::new(-1, 4).sqrt().is_err());
        assert_eq!(Interval::new(2, 3).pow(2), Interval::new(4, 9));
        assert_eq!(Interval::new(-3, 2).pow(2), Interval::new(0, 9));
        assert_eq!(Interval::new(-3, 2).pow(3), Interval::new(-27, 8));
        assert_eq!(Interval::new(5, 9).pow(0), Interval::point(1));
    }

    #[test]
    fn overlaps_detects_candidates() {
        let v = Interval::new(100, 131);
        assert!(v.overlaps(120, 500));
        assert!(v.overlaps(0, 100));
        assert!(!v.overlaps(132, 500));
        assert!(!v.overlaps(0, 99));
    }

    #[test]
    fn destructive_distributivity_cross_terms() {
        // 747979 split 13/7 bits: ap = v & !0x7F, re = v & 0x7F.
        let v = 747_979i64;
        let (a_ap, a_re) = (v & !0x7F, v & 0x7F);
        let w = 123_456i64;
        let (b_ap, b_re) = (w & !0x7F, w & 0x7F);
        let gap = destructive_distributivity_gap(a_ap, a_re, b_ap, b_re);
        assert_eq!(gap, a_ap * b_re + b_ap * a_re);
        assert_ne!(gap, 0, "cross terms are generally non-zero");
    }

    proptest! {
        #[test]
        fn prop_arith_soundness(
            a in -10_000i64..10_000, b in -10_000i64..10_000,
            c in -10_000i64..10_000, d in -10_000i64..10_000,
            ea in 0i64..64, eb in 0i64..64,
        ) {
            // Build intervals around the true values.
            let ia = Interval::new(a, a + ea);
            let ib = Interval::new(c, c + eb);
            // Any point inside the inputs produces results inside the
            // propagated interval.
            let (pa, pb) = (a + ea.min(b.rem_euclid(ea + 1)), c + eb.min(d.rem_euclid(eb + 1)));
            prop_assert!(ia.add(&ib).contains(pa + pb));
            prop_assert!(ia.sub(&ib).contains(pa - pb));
            prop_assert!(ia.mul(&ib).contains(pa * pb));
            if !ib.contains(0) {
                prop_assert!(ia.div(&ib).unwrap().contains(pa / pb));
            }
            if ia.lo >= 0 {
                prop_assert!(ia.sqrt().unwrap().contains((pa as u64).isqrt() as i64));
            }
        }
    }
}
