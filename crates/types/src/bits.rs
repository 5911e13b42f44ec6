//! Bit-level helpers for the bitwise decomposition storage model.
//!
//! The decomposition in `bwd-storage` splits every value's significant bits
//! into a device-resident *approximation* (major bits) and a host-resident
//! *residual* (minor bits). These helpers compute significant widths and
//! masks; they are deliberately branch-light because several are used inside
//! packed-scan hot loops.

/// Number of bits required to represent `v` (0 needs 0 bits, 1 needs 1, ...).
///
/// This is the "leading zeros are removed" width of the paper's Figure 2:
/// a column whose maximum encoded value is `v` stores `bits_for_value(v)`
/// significant bits in total across all devices.
#[inline]
pub const fn bits_for_value(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Number of bits required to represent every value in `0..width` (i.e. a
/// domain of `width` distinct values). `bits_for_width(0) == 0`.
#[inline]
pub const fn bits_for_width(width: u64) -> u32 {
    if width <= 1 {
        0
    } else {
        bits_for_value(width - 1)
    }
}

/// A mask with the low `n` bits set. `n` may be 0..=64.
#[inline]
pub const fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Split `v` into `(major, minor)` where `minor` keeps the low `resbits`
/// bits and `major` the remaining high bits, shifted down.
///
/// This is the core of Figure 2: `major` is the approximation payload,
/// `minor` the residual payload.
#[inline]
pub const fn split_bits(v: u64, resbits: u32) -> (u64, u64) {
    if resbits >= 64 {
        (0, v)
    } else {
        (v >> resbits, v & low_mask(resbits))
    }
}

/// The number of shared high bits of all values in `vals` relative to a
/// `width`-bit domain, at single-bit granularity.
///
/// Used by prefix compression: if every value agrees on its top `k` bits,
/// those `k` bits can be factored out into a single base.
pub fn common_prefix_bits(vals: &[u64], width: u32) -> u32 {
    let Some((&first, rest)) = vals.split_first() else {
        return 0;
    };
    if width == 0 {
        return 0;
    }
    let mut disagree = 0u64; // bits where some value differs from `first`
    for &v in rest {
        disagree |= v ^ first;
    }
    let highest_disagreement = bits_for_value(disagree); // 0 if all equal
    width.saturating_sub(highest_disagreement)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`split_bits`]: bitwise concatenation `major +bw minor`
    /// (notation of the paper's Algorithm 2).
    fn join_bits(major: u64, minor: u64, resbits: u32) -> u64 {
        if resbits >= 64 {
            minor
        } else {
            (major << resbits) | (minor & low_mask(resbits))
        }
    }

    #[test]
    fn bits_for_value_edge_cases() {
        assert_eq!(bits_for_value(0), 0);
        assert_eq!(bits_for_value(1), 1);
        assert_eq!(bits_for_value(2), 2);
        assert_eq!(bits_for_value(3), 2);
        assert_eq!(bits_for_value(255), 8);
        assert_eq!(bits_for_value(256), 9);
        assert_eq!(bits_for_value(u64::MAX), 64);
    }

    #[test]
    fn bits_for_width_counts_domain() {
        assert_eq!(bits_for_width(0), 0);
        assert_eq!(bits_for_width(1), 0); // single value: no information
        assert_eq!(bits_for_width(2), 1);
        assert_eq!(bits_for_width(50), 6); // TPC-H l_quantity: 50 values / 6 bits
        assert_eq!(bits_for_width(10), 4); // l_discount: 10 values  / 4 bits  (paper's 11 -> 4 bits)
        assert_eq!(bits_for_width(2526), 12); // l_shipdate: 2526 values / 12 bits
    }

    #[test]
    fn low_mask_widths() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(1), 1);
        assert_eq!(low_mask(8), 0xFF);
        assert_eq!(low_mask(64), u64::MAX);
    }

    #[test]
    fn split_join_roundtrip() {
        let v = 747_979u64; // the paper's Figure 2 example value
        for resbits in 0..=64 {
            let (maj, min) = split_bits(v, resbits);
            assert_eq!(join_bits(maj, min, resbits), v, "resbits={resbits}");
        }
    }

    #[test]
    fn figure2_example_13_major_7_minor() {
        // 747979 = 0b1011_0110_1001_1100_1011 (20 significant bits);
        // the paper splits it 13 major / 7 minor.
        let v = 747_979u64;
        assert_eq!(bits_for_value(v), 20);
        let (major, minor) = split_bits(v, 7);
        assert_eq!(major, v >> 7);
        assert_eq!(minor, v & 0x7F);
        assert_eq!(bits_for_value(major), 13);
    }

    #[test]
    fn common_prefix_detects_shared_high_bits() {
        // All values share the top byte 0x12 of a 32-bit domain.
        let vals = [0x1200_0000u64, 0x12FF_FFFF, 0x1234_5678];
        assert_eq!(common_prefix_bits(&vals, 32), 8);
        // Disagreement in the top bit: no shared prefix.
        let vals = [0x8000_0000u64, 0x0000_0001];
        assert_eq!(common_prefix_bits(&vals, 32), 0);
        // Identical values share the whole width.
        let vals = [42u64, 42, 42];
        assert_eq!(common_prefix_bits(&vals, 32), 32);
        assert_eq!(common_prefix_bits(&[], 32), 0);
    }
}
