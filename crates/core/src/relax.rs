//! Predicate relaxation — the `f(x)` adaptation of §IV-B.
//!
//! A selection on approximate data must match *every* value whose
//! approximation equals that of some matching exact value. We normalize
//! each comparison into an inclusive payload range first and then translate
//! the range through `DecompositionMeta::stored_bounds_payload`, which
//! clamps it to the type's payload domain and relaxes both endpoints to
//! granule boundaries. This is equivalent to the paper's
//! per-operator adaptation function `f` (proved in the tests below), with
//! one deliberate deviation (ARCHITECTURE.md, "Decided and undecided
//! candidates"): for `< x` the paper's
//! formula `appr(x) + (1 << resbits) + 1` admits one granule more than
//! needed; we use the tight bound, which still yields a provable superset.

use bwd_storage::DecompositionMeta;

/// A comparison operator of a simple predicate `column op literal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` (not relaxable to one contiguous range; candidates = whole
    /// domain, eliminated precisely during refinement)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// An inclusive payload-domain range with an optional excluded point; the
/// normal form every relaxable predicate reduces to. `None` bounds are
/// unbounded ends; `exclude` carries `<>` predicates (which relax to the
/// whole domain but must still eliminate the excluded value during
/// refinement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePred {
    /// Inclusive lower bound.
    pub lo: Option<i64>,
    /// Inclusive upper bound.
    pub hi: Option<i64>,
    /// A single payload excluded from the range (`<> x`).
    pub exclude: Option<i64>,
}

impl RangePred {
    /// The unbounded range (matches everything).
    pub fn all() -> Self {
        RangePred {
            lo: None,
            hi: None,
            exclude: None,
        }
    }

    /// `[lo, hi]` inclusive (SQL `BETWEEN`).
    pub fn between(lo: i64, hi: i64) -> Self {
        RangePred {
            lo: Some(lo),
            hi: Some(hi),
            exclude: None,
        }
    }

    /// `<= hi`.
    pub fn at_most(hi: i64) -> Self {
        RangePred {
            lo: None,
            hi: Some(hi),
            exclude: None,
        }
    }

    /// `>= lo`.
    pub fn at_least(lo: i64) -> Self {
        RangePred {
            lo: Some(lo),
            hi: None,
            exclude: None,
        }
    }

    /// Normalize `column op x`. Returns `None` when the predicate is
    /// unsatisfiable on the payload domain (e.g. `< i64::MIN`).
    pub fn from_cmp(op: CmpOp, x: i64) -> Option<Self> {
        match op {
            CmpOp::Eq => Some(Self::between(x, x)),
            CmpOp::Ne => Some(RangePred {
                exclude: Some(x),
                ..Self::all()
            }),
            CmpOp::Lt => x.checked_sub(1).map(Self::at_most),
            CmpOp::Le => Some(Self::at_most(x)),
            CmpOp::Gt => x.checked_add(1).map(Self::at_least),
            CmpOp::Ge => Some(Self::at_least(x)),
        }
    }

    /// Intersect with another range (conjunction of predicates on the same
    /// column). `None` when the intersection is empty.
    pub fn intersect(&self, other: &RangePred) -> Option<RangePred> {
        let lo = match (self.lo, other.lo) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return None;
            }
        }
        let exclude = match (self.exclude, other.exclude) {
            (Some(a), Some(b)) if a != b => {
                // Two distinct exclusions cannot be represented in one
                // range; conjunctions of <> on the same column are split
                // into separate selections upstream.
                return None;
            }
            (a, b) => a.or(b),
        };
        Some(RangePred { lo, hi, exclude })
    }

    /// Precise test of a payload against the range — the re-evaluation of
    /// the condition during refinement (Algorithm 2).
    #[inline]
    pub fn test(&self, payload: i64) -> bool {
        self.lo.is_none_or(|l| payload >= l)
            && self.hi.is_none_or(|h| payload <= h)
            && self.exclude != Some(payload)
    }
}

/// A payload range translated into the stored-approximation domain of one
/// decomposed column: the relaxed interval the device scans by, and the
/// part of it whose granules cannot hold a false positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRange {
    /// Inclusive bounds admitting every stored value whose granule *may*
    /// hold a matching payload — the relaxation `f(x)` of §IV-B.
    pub outer: (u64, u64),
    /// Inclusive bounds of the stored values whose whole granule lies
    /// inside the exact range: a candidate in here is *decided* and needs
    /// no refinement. Equal to `outer` when the column keeps no residual
    /// (or the range ends on granule boundaries), one boundary granule
    /// short of it per straddled end otherwise, and `None` (empty) when no
    /// granule is wholly inside or the range excludes a point — `<>`
    /// relaxes to the whole domain and only the exact re-test eliminates
    /// the excluded value.
    pub inner: Option<(u64, u64)>,
}

impl StoredRange {
    /// How many payloads the outer and the inner interval's granules
    /// cover — against the whole domain's (`RangePred::all()` relaxed),
    /// the shares of uniformly spread rows a selection admits and decides.
    pub fn payloads(&self, meta: &DecompositionMeta) -> (f64, f64) {
        let width = |(lo, hi): (u64, u64)| {
            meta.granule_payload(hi).1 as f64 - meta.granule_payload(lo).0 as f64 + 1.0
        };
        (width(self.outer), self.inner.map_or(0.0, width))
    }
}

/// Relax a payload range into stored-approximation bounds for a decomposed
/// column. `None` means the approximate selection is provably empty.
pub fn relax_to_stored(meta: &DecompositionMeta, range: &RangePred) -> Option<StoredRange> {
    let lo = range.lo.unwrap_or(i64::MIN);
    let hi = range.hi.unwrap_or(i64::MAX);
    let outer = meta.stored_bounds_payload(lo, hi)?;
    // Only the two end granules can straddle the range; stored values are
    // monotone in the payload, so everything between them is inside.
    let inner_lo = outer.0 + u64::from(meta.granule_payload(outer.0).0 < lo);
    let inner_hi = match meta.granule_payload(outer.1).1 <= hi {
        true => Some(outer.1),
        false => outer.1.checked_sub(1),
    };
    let inner = inner_hi
        .filter(|&h| inner_lo <= h && range.exclude.is_none())
        .map(|h| (inner_lo, h));
    Some(StoredRange { outer, inner })
}

/// Classify how a candidate's granule relates to the precise range:
/// `Certain` granules lie entirely inside (the tuple satisfies the
/// predicate without looking at residuals), `Possible` granules straddle a
/// boundary (must be refined), and granules outside never become
/// candidates. Min/max candidate-set construction needs this distinction
/// (§IV-F, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GranuleMatch {
    /// Entire granule inside the range.
    Certain,
    /// Granule overlaps a range boundary.
    Possible,
}

/// Classify a stored approximation against a precise payload range.
pub fn classify_granule(meta: &DecompositionMeta, stored: u64, range: &RangePred) -> GranuleMatch {
    let (glo, ghi) = meta.granule_payload(stored);
    let inside_lo = range.lo.is_none_or(|l| glo >= l);
    let inside_hi = range.hi.is_none_or(|h| ghi <= h);
    let clear_of_exclusion = range.exclude.is_none_or(|x| x < glo || x > ghi);
    if inside_lo && inside_hi && clear_of_exclusion {
        GranuleMatch::Certain
    } else {
        GranuleMatch::Possible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_storage::{DecomposedColumn, DecompositionSpec};
    use bwd_types::bits::low_mask;
    use bwd_types::DataType;
    use proptest::prelude::*;

    /// The paper's literal adaptation function `f(x)` over *masked* encoded
    /// values, kept beside [`relax_to_stored`] to document how the two
    /// differ. Returns the relaxed comparison operand in the masked-value
    /// domain of §IV-B, given `resbits`.
    fn paper_f(op: CmpOp, appr_x: u64, resbits: u32) -> u64 {
        let granule = 1u64 << resbits.min(63);
        match op {
            CmpOp::Eq => appr_x,
            CmpOp::Gt => appr_x.wrapping_sub(1),
            CmpOp::Ge => appr_x,
            // Paper formula; one granule wider than necessary (ARCHITECTURE.md,
            // "Decided and undecided candidates").
            CmpOp::Lt => appr_x + granule + 1,
            CmpOp::Le => appr_x + granule,
            CmpOp::Ne => u64::MAX,
        }
    }

    /// Mask a value to its approximation as the paper defines it: zero the low
    /// `resbits` bits ("bitmasking the value with the bitwise complement of
    /// `(1 << resbits) - 1`").
    fn paper_appr(x: u64, resbits: u32) -> u64 {
        x & !low_mask(resbits)
    }

    fn column(vals: &[i64], device_bits: u32) -> DecomposedColumn {
        DecomposedColumn::decompose(
            vals,
            DataType::Int32,
            &DecompositionSpec::with_device_bits(device_bits),
        )
        .unwrap()
    }

    #[test]
    fn from_cmp_normalizes() {
        assert_eq!(
            RangePred::from_cmp(CmpOp::Eq, 5),
            Some(RangePred::between(5, 5))
        );
        assert_eq!(
            RangePred::from_cmp(CmpOp::Lt, 5),
            Some(RangePred::at_most(4))
        );
        assert_eq!(
            RangePred::from_cmp(CmpOp::Le, 5),
            Some(RangePred::at_most(5))
        );
        assert_eq!(
            RangePred::from_cmp(CmpOp::Gt, 5),
            Some(RangePred::at_least(6))
        );
        assert_eq!(
            RangePred::from_cmp(CmpOp::Ge, 5),
            Some(RangePred::at_least(5))
        );
        assert_eq!(RangePred::from_cmp(CmpOp::Lt, i64::MIN), None);
        assert_eq!(RangePred::from_cmp(CmpOp::Gt, i64::MAX), None);
        // `<>` keeps the excluded point for the refinement re-test.
        let ne = RangePred::from_cmp(CmpOp::Ne, 5).unwrap();
        assert!(ne.test(4) && ne.test(6) && !ne.test(5));
    }

    #[test]
    fn intersect_ranges() {
        let a = RangePred::between(0, 10);
        let b = RangePred::between(5, 20);
        assert_eq!(a.intersect(&b), Some(RangePred::between(5, 10)));
        let c = RangePred::between(11, 20);
        assert_eq!(a.intersect(&c), None);
        let half = RangePred::at_least(3);
        assert_eq!(a.intersect(&half), Some(RangePred::between(3, 10)));
        assert_eq!(RangePred::all().intersect(&a), Some(a));
    }

    #[test]
    fn test_evaluates_bounds() {
        let r = RangePred::between(2, 4);
        assert!(!r.test(1));
        assert!(r.test(2) && r.test(3) && r.test(4));
        assert!(!r.test(5));
        assert!(RangePred::all().test(i64::MIN));
    }

    #[test]
    fn relaxation_is_superset_and_tight() {
        // Values on a 16-granule lattice (resbits=4 when device_bits=28).
        let vals: Vec<i64> = (0..4096).collect();
        let col = column(&vals, 28);
        assert_eq!(col.meta().resbits(), 4);
        let range = RangePred::between(100, 200);
        let (slo, shi) = relax_to_stored(col.meta(), &range).unwrap().outer;
        for (i, &v) in vals.iter().enumerate() {
            let s = col.approx().get(i);
            let in_relaxed = s >= slo && s <= shi;
            if range.test(v) {
                assert!(in_relaxed, "exact match {v} must be candidate");
            }
            // Tightness: candidates lie within one granule of the range.
            if in_relaxed {
                assert!(
                    (100 - 15..=200 + 15).contains(&v),
                    "candidate {v} beyond one granule of slack"
                );
            }
        }
    }

    #[test]
    fn classify_granule_boundaries() {
        let vals: Vec<i64> = (0..256).collect();
        let col = column(&vals, 28); // granule 16
        let range = RangePred::between(16, 47); // exactly granules 1 and 2
                                                // Row 20 sits in granule [16,31] ⊆ [16,47]: certain.
        assert_eq!(
            classify_granule(col.meta(), col.approx().get(20), &range),
            GranuleMatch::Certain
        );
        // Range [20, 40] straddles granule boundaries.
        let range = RangePred::between(20, 40);
        assert_eq!(
            classify_granule(col.meta(), col.approx().get(20), &range),
            GranuleMatch::Possible
        );
    }

    #[test]
    fn classify_granule_straddling_upper_bound() {
        let vals: Vec<i64> = (0..256).collect();
        let col = column(&vals, 28); // granule 16
        let range = RangePred::between(20, 40);
        // Granule [32,47] straddles hi=40: possible, not certain.
        assert_eq!(
            classify_granule(col.meta(), col.approx().get(33), &range),
            GranuleMatch::Possible
        );
    }

    /// The paper's `f(x)` and our range translation accept the same
    /// candidate set for `>=`/`>`/`=` and a (1-granule) superset for
    /// `<`/`<=` — i.e. ours is never less sound, only tighter.
    #[test]
    fn paper_f_equivalence() {
        let resbits = 4u32;
        let granule = 1u64 << resbits;
        for x in [0u64, 5, 16, 17, 31, 32, 100] {
            let appr_x = paper_appr(x, resbits);
            // '>= x' -> masked values >= f(x) = appr(x).
            // Our rule: candidates have appr(v) >= appr(x) — identical.
            assert_eq!(paper_f(CmpOp::Ge, appr_x, resbits), appr_x);
            // '> x' -> masked values > appr(x) - 1 == >= appr(x): identical.
            assert_eq!(paper_f(CmpOp::Gt, appr_x, resbits).wrapping_add(1), appr_x);
            // '<= x' -> masked values < appr(x) + granule == <= appr(x) +
            // granule - 1; every masked value is a multiple of the granule,
            // so this admits exactly appr(v) <= appr(x): identical to ours.
            assert_eq!(paper_f(CmpOp::Le, appr_x, resbits), appr_x + granule);
            // '< x' -> paper: < appr(x) + granule + 1, which admits
            // appr(v) == appr(x) + granule as well — one granule wider
            // than ours. Both are supersets; ours is tight.
            assert_eq!(paper_f(CmpOp::Lt, appr_x, resbits), appr_x + granule + 1);
        }
    }

    proptest! {
        /// Refining the relaxed candidate set reproduces the exact result.
        #[test]
        fn prop_relax_then_refine_is_exact(
            vals in proptest::collection::vec(-5_000i64..5_000, 1..300),
            device_bits in 20u32..=32,
            a in -6_000i64..6_000,
            span in 0i64..4_000,
        ) {
            let col = column(&vals, device_bits);
            let range = RangePred::between(a, a + span);
            let exact: Vec<usize> = (0..vals.len())
                .filter(|&i| range.test(vals[i]))
                .collect();
            let refined: Vec<usize> = match relax_to_stored(col.meta(), &range) {
                None => vec![],
                Some(StoredRange { outer: (slo, shi), .. }) => (0..vals.len())
                    .filter(|&i| {
                        let (s, r) = (col.approx().get(i), col.residual().get(i));
                        s >= slo && s <= shi && range.test(col.meta().payload_from_parts(s, r))
                    })
                    .collect(),
            };
            prop_assert_eq!(exact, refined);
        }

        /// For every type width × split × range shape: inner ⊆ outer,
        /// every payload of an inner granule passes the exact test (a
        /// decided candidate is never a false positive), and every
        /// passing payload lies in an outer granule (none is missed).
        #[test]
        fn prop_inner_is_decided_and_outer_is_complete(
            vals in proptest::collection::vec(-5_000i64..5_000, 1..200),
            wide: bool,
            resbits in 0u32..=12,
            a in -6_000i64..6_000,
            span in 0i64..4_000,
            shape in 0usize..7,
        ) {
            let dtype = if wide { DataType::Int64 } else { DataType::Int32 };
            let bits = if wide { 64 } else { 32 } - resbits;
            let spec = DecompositionSpec::with_device_bits(bits);
            let col = DecomposedColumn::decompose(&vals, dtype, &spec).unwrap();
            let range = match shape {
                0 => RangePred::between(a, a + span),
                1 => RangePred::at_most(a),
                2 => RangePred::at_least(a),
                3 => RangePred::all(),
                4 => RangePred::from_cmp(CmpOp::Ne, a).unwrap(),
                5 => RangePred { exclude: Some(a + span / 2), ..RangePred::between(a, a + span) },
                _ => RangePred::between(a, a - 1 - span), // empty
            };
            let relaxed = relax_to_stored(col.meta(), &range);
            for (i, &v) in vals.iter().enumerate() {
                let s = col.approx().get(i);
                let within = |b: Option<(u64, u64)>| b.is_some_and(|(lo, hi)| lo <= s && s <= hi);
                if range.test(v) {
                    prop_assert!(within(relaxed.map(|r| r.outer)), "{v} passes {range:?}, missed");
                }
                let certain = classify_granule(col.meta(), s, &range) == GranuleMatch::Certain;
                if within(relaxed.and_then(|r| r.inner)) {
                    prop_assert!(within(relaxed.map(|r| r.outer)), "inner outside outer");
                    prop_assert!(certain, "inner granule {s} not certain for {range:?}");
                    let (glo, ghi) = col.meta().granule_payload(s);
                    for p in [glo, glo + (ghi - glo) / 2, ghi, v] {
                        prop_assert!(range.test(p), "{p} of inner granule {s} fails {range:?}");
                    }
                } else if range.exclude.is_none() {
                    prop_assert!(!certain, "wholly inside granule {s} left undecided");
                }
            }
            if col.meta().resbits() == 0 && range.exclude.is_none() {
                prop_assert_eq!(relaxed.and_then(|r| r.inner), relaxed.map(|r| r.outer));
            }
        }

        /// Certain granules never contain non-matching payloads.
        #[test]
        fn prop_certain_granules_are_certain(
            vals in proptest::collection::vec(0i64..10_000, 1..200),
            device_bits in 22u32..=32,
            lo in 0i64..10_000,
            span in 0i64..5_000,
        ) {
            let col = column(&vals, device_bits);
            let range = RangePred::between(lo, lo + span);
            for (i, &v) in vals.iter().enumerate() {
                let s = col.approx().get(i);
                if classify_granule(col.meta(), s, &range) == GranuleMatch::Certain {
                    prop_assert!(range.test(v), "certain granule held non-match {v}");
                }
            }
        }
    }
}
