//! Shared byte-unit helpers of the simulated cost model.
//!
//! Every layer that prices data movement — the kernel `charge_*`
//! functions in `bwd-kernels` and the one bill in `bwd-engine`
//! (`engine/bill.rs`, which the scheduler's estimates go through too) —
//! must bill the *same* operation with the *same* byte count, or budgets
//! and reservations silently drift apart: the units live here, one layer
//! below every consumer.

/// Bytes one materialized candidate occupies in device memory: a `u32`
/// oid plus a worst-case 64-bit approximation value — the unit of the
/// transient working-set accounting (`engine/bill.rs:Transient`).
pub const CANDIDATE_PAIR_BYTES: u64 = 12;

/// Bytes per value the device fast path gathers per candidate when
/// staging aggregation inputs (worst-case 64-bit payload). Same
/// shared-unit contract as [`CANDIDATE_PAIR_BYTES`].
pub const GATHER_VALUE_BYTES: u64 = 8;

/// Bytes a single random access to one `width_bits`-wide packed element
/// touches: memory transactions are word-granular even for narrow packed
/// elements, so a scattered read always moves at least a 4-byte word.
#[inline]
pub const fn element_access_bytes(width_bits: u32) -> u64 {
    let b = (width_bits as u64).div_ceil(8);
    if b < 4 {
        4
    } else {
        b
    }
}

/// Bytes a sequential stream of `n` packed `width_bits`-wide values
/// occupies (bit-exact, rounded up to whole bytes once for the stream —
/// the compacted-output term of scans and gathers).
#[inline]
pub const fn packed_stream_bytes(width_bits: u32, n: u64) -> u64 {
    (n * width_bits as u64).div_ceil(8)
}

/// Bytes `n` candidate pairs occupy as a compacted stream: a 32-bit oid
/// plus the packed `width_bits`-wide approximation per candidate. This is
/// both the kernel-output write volume of a selection and the PCI-E
/// volume of a candidate-list download.
#[inline]
pub const fn candidate_stream_bytes(width_bits: u32, n: u64) -> u64 {
    (n * (32 + width_bits as u64)).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_access_is_word_granular() {
        assert_eq!(element_access_bytes(0), 4);
        assert_eq!(element_access_bytes(1), 4);
        assert_eq!(element_access_bytes(32), 4);
        assert_eq!(element_access_bytes(33), 5);
        assert_eq!(element_access_bytes(64), 8);
    }

    #[test]
    fn stream_bytes_round_up_once() {
        assert_eq!(packed_stream_bytes(12, 3), 5); // 36 bits -> 5 bytes
        assert_eq!(packed_stream_bytes(8, 1000), 1000);
        assert_eq!(packed_stream_bytes(7, 0), 0);
        // 3 * (32 + 12) bits = 132 bits -> 17 bytes.
        assert_eq!(candidate_stream_bytes(12, 3), 17);
        assert_eq!(candidate_stream_bytes(12, 0), 0);
    }
}
