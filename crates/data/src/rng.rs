//! A tiny deterministic PRNG (splitmix64 + xoshiro256**) so generated
//! datasets are bit-identical across platforms. It is the only one the
//! generators draw from — shuffles included ([`Xoshiro::shuffle`]): the
//! workspace depends on no registry crate.

/// xoshiro256** seeded via splitmix64.
#[derive(Debug, Clone)]
pub struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    /// Seed deterministically (via the workspace's shared
    /// [`bwd_types::SplitMix64`] stream, as the algorithm's authors
    /// recommend).
    pub fn seed(seed: u64) -> Self {
        let mut sm = bwd_types::SplitMix64::new(seed);
        Xoshiro {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, n)` (Lemire's multiply-shift; n > 0).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi]` inclusive.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Take `ahead`'s state where `take`, keep this one elsewhere: a
    /// select per state word, no branch.
    #[inline]
    pub(crate) fn take_if(&mut self, take: bool, ahead: &Xoshiro) {
        let mask = (take as u64).wrapping_neg();
        for (s, a) in self.s.iter_mut().zip(ahead.s) {
            *s ^= (*s ^ a) & mask;
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<u64> = {
            let mut r = Xoshiro::seed(42);
            (0..10).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro::seed(42);
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Xoshiro::seed(43);
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = Xoshiro::seed(1);
        for _ in 0..10_000 {
            let v = r.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut r = Xoshiro::seed(7);
        let mut seen = [false; 11];
        for _ in 0..1_000 {
            seen[(r.range_i64(0, 10)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro::seed(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
