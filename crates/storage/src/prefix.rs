//! Global prefix compression for approximation partitions.
//!
//! The paper stores approximations prefix-compressed: bits that every value
//! of a column shares ("leading zeros" in the simplest case, or a common
//! high byte as in the spatial dataset, §VI-C2) are factored out into a
//! single *base* stored once in the column's metadata. Compression runs at
//! bit granularity: every shared high bit is factored out, a superset of
//! what the paper's prototype did in whole bytes ("factoring out the
//! highest of the 4 value bytes").

use bwd_types::bits::{common_prefix_bits, low_mask};

/// Granularity at which shared high bits are factored out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefixGranularity {
    /// Factor out every shared high bit (maximal compression).
    #[default]
    Bit,
    /// Disable prefix compression (ablation baseline).
    None,
}

/// The result of prefix-compressing a set of `width`-bit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixBase {
    /// Shared high-bit pattern, right-aligned (i.e. already shifted down by
    /// `width - prefix_bits`).
    pub base: u64,
    /// Number of factored-out high bits.
    pub prefix_bits: u32,
    /// Original width in bits before compression.
    pub width: u32,
}

impl PrefixBase {
    /// Analyze `vals` (each at most `width` bits) and produce the base.
    /// Does not modify the values; apply [`PrefixBase::compress`] per value.
    pub fn analyze(vals: &[u64], width: u32, granularity: PrefixGranularity) -> Self {
        let prefix_bits = match granularity {
            PrefixGranularity::None => 0,
            PrefixGranularity::Bit => common_prefix_bits(vals, width),
        };
        let base = if prefix_bits == 0 || vals.is_empty() {
            0
        } else {
            vals[0] >> (width - prefix_bits)
        };
        PrefixBase {
            base,
            prefix_bits,
            width,
        }
    }

    /// Width of values after compression.
    #[inline]
    pub fn stored_width(&self) -> u32 {
        self.width - self.prefix_bits
    }

    /// Strip the shared prefix from `v`.
    ///
    /// # Panics
    /// Debug-panics if `v` does not actually carry the shared prefix.
    #[inline]
    pub fn compress(&self, v: u64) -> u64 {
        debug_assert_eq!(
            self.prefix_of(v),
            self.base,
            "value {v:#x} does not share the column prefix"
        );
        v & low_mask(self.stored_width())
    }

    /// Restore the shared prefix onto a stored value.
    #[inline]
    pub fn decompress(&self, stored: u64) -> u64 {
        if self.prefix_bits == 0 {
            stored
        } else {
            (self.base << self.stored_width()) | stored
        }
    }

    /// The prefix bits of an arbitrary `width`-bit value (for membership
    /// tests: a value with a different prefix lies outside the column's
    /// stored domain entirely).
    #[inline]
    pub fn prefix_of(&self, v: u64) -> u64 {
        if self.prefix_bits == 0 {
            0
        } else {
            v >> self.stored_width()
        }
    }

    /// Map an arbitrary `width`-bit domain value into the stored domain,
    /// saturating: values below the column's representable range map to
    /// `Err(Below)`, above to `Err(Above)`.
    ///
    /// Selection kernels use this to translate predicate constants: a
    /// constant outside the stored range makes the comparison trivially
    /// true or false for every stored value.
    #[inline]
    pub fn project(&self, v: u64) -> Result<u64, OutOfRange> {
        if self.prefix_bits == 0 {
            return Ok(v & low_mask(self.stored_width()));
        }
        match self.prefix_of(v).cmp(&self.base) {
            std::cmp::Ordering::Less => Err(OutOfRange::Below),
            std::cmp::Ordering::Greater => Err(OutOfRange::Above),
            std::cmp::Ordering::Equal => Ok(v & low_mask(self.stored_width())),
        }
    }
}

/// Result of projecting a constant outside the stored value domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutOfRange {
    /// The constant is smaller than every storable value.
    Below,
    /// The constant is larger than every storable value.
    Above,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn leading_zero_removal() {
        // Values 0..100M in a 32-bit domain: 5 shared leading zero bits.
        let vals = [0u64, 99_999_999, 50_000_000];
        let p = PrefixBase::analyze(&vals, 32, PrefixGranularity::Bit);
        assert_eq!(p.prefix_bits, 5);
        assert_eq!(p.base, 0);
        assert_eq!(p.stored_width(), 27);
        for &v in &vals {
            assert_eq!(p.decompress(p.compress(v)), v);
        }
    }

    #[test]
    fn nonzero_base() {
        // Sign-flipped non-negative i32 values share the 0x8000_00xx top bits.
        let vals = [0x8000_0001u64, 0x8000_00FF, 0x8000_0080];
        let p = PrefixBase::analyze(&vals, 32, PrefixGranularity::Bit);
        assert_eq!(p.stored_width(), 8);
        assert_eq!(p.base, 0x0080_0000);
        assert_eq!(p.compress(0x8000_0080), 0x80);
        assert_eq!(p.decompress(0x80), 0x8000_0080);
    }

    #[test]
    fn project_saturates() {
        let vals = [0x8000_0001u64, 0x8000_00FF];
        let p = PrefixBase::analyze(&vals, 32, PrefixGranularity::Bit);
        assert_eq!(p.project(0x8000_0080), Ok(0x80));
        assert_eq!(p.project(0x7FFF_FFFF), Err(OutOfRange::Below));
        assert_eq!(p.project(0x8000_0100), Err(OutOfRange::Above));
    }

    #[test]
    fn disabled_compression() {
        let vals = [0x1200u64, 0x12FF];
        let p = PrefixBase::analyze(&vals, 32, PrefixGranularity::None);
        assert_eq!(p.prefix_bits, 0);
        assert_eq!(p.stored_width(), 32);
        assert_eq!(p.compress(0x1200), 0x1200);
    }

    #[test]
    fn empty_input() {
        let p = PrefixBase::analyze(&[], 32, PrefixGranularity::Bit);
        assert_eq!(p.prefix_bits, 0);
        assert_eq!(p.stored_width(), 32);
    }

    #[test]
    fn single_value_collapses_entirely() {
        let p = PrefixBase::analyze(&[42], 32, PrefixGranularity::Bit);
        assert_eq!(p.prefix_bits, 32);
        assert_eq!(p.stored_width(), 0);
        assert_eq!(p.compress(42), 0);
        assert_eq!(p.decompress(0), 42);
    }

    proptest! {
        #[test]
        fn prop_compress_roundtrip(
            base_high in 0u64..0xFFFF,
            lows in proptest::collection::vec(0u64..0x1_0000, 1..50)
        ) {
            let vals: Vec<u64> = lows.iter().map(|l| (base_high << 16) | l).collect();
            let p = PrefixBase::analyze(&vals, 32, PrefixGranularity::Bit);
            for &v in &vals {
                prop_assert_eq!(p.decompress(p.compress(v)), v);
            }
            // Stored width never exceeds what the disagreement demands.
            prop_assert!(p.stored_width() <= 16 || lows.iter().all(|&l| l == lows[0]));
        }

        #[test]
        fn prop_project_order_preserving(
            vals in proptest::collection::vec(0u64..0xFFFF_FFFF, 2..50),
            probe_a in 0u64..0xFFFF_FFFF,
            probe_b in 0u64..0xFFFF_FFFF,
        ) {
            let p = PrefixBase::analyze(&vals, 32, PrefixGranularity::Bit);
            // Projection preserves order where both constants are in range.
            if let (Ok(a), Ok(b)) = (p.project(probe_a), p.project(probe_b)) {
                prop_assert_eq!(a.cmp(&b), probe_a.cmp(&probe_b));
            }
        }
    }
}
