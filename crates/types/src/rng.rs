//! A minimal deterministic PRNG shared across the workspace.
//!
//! SplitMix64 (Steele, Lea & Flood; the same generator Java's
//! `SplittableRandom` uses) is the workspace's canonical seed/stream
//! primitive: `bwd-data` seeds its xoshiro256** dataset generator from
//! this exact sequence, and the deterministic workload generator of
//! `bwd-bench` (`crates/bench/src/workload.rs`) draws from it directly. Keeping the one implementation here
//! prevents the constants from drifting between hand-rolled copies —
//! seeded workloads are only reproducible if every crate agrees on the
//! stream. (`crates/testkit` carries its own copy by design: the proptest
//! shim is deliberately dependency-free so it can stand in for the real
//! crate without touching the workspace graph.)

/// SplitMix64: a tiny, fast, deterministic 64-bit PRNG.
///
/// Not cryptographic; statistically solid for test workloads and seeding.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed` (every seed is valid, including 0).
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)` (Lemire's multiply-shift; `n > 0`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        for n in [1u64, 2, 7, 1 << 40] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn matches_reference_vector() {
        // First outputs for seed 1234567, per the published algorithm —
        // pins the constants so copies can't silently drift.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }
}
