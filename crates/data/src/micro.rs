//! Microbenchmark datasets (§VI-B).
//!
//! All of the paper's microbenchmarks run on "100 million unique, randomly
//! shuffled integers (value range 0 to 100 million)". The generators here
//! reproduce that shape at any size, plus the grouping-key dataset of
//! Fig 8f.

use crate::rng::Xoshiro;

/// `n` unique integers `0..n`, randomly shuffled (deterministic by seed).
pub fn unique_shuffled(n: usize, seed: u64) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    Xoshiro::seed(seed).shuffle(&mut v);
    v
}

/// Grouping keys: `n` values uniformly drawn from `groups` distinct keys
/// (Fig 8f sweeps `groups` from 10 to 1000).
pub fn grouping_keys(n: usize, groups: u64, seed: u64) -> Vec<i64> {
    let mut rng = Xoshiro::seed(seed);
    (0..n).map(|_| rng.below(groups) as i64).collect()
}

/// The selection bound that matches a fraction `selectivity` of
/// [`unique_shuffled`] data: values `< n * selectivity` qualify.
pub fn selectivity_bound(n: usize, selectivity: f64) -> i64 {
    ((n as f64) * selectivity).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_and_shuffled() {
        let v = unique_shuffled(10_000, 42);
        assert_ne!(v, (0..10_000).collect::<Vec<i64>>(), "must be shuffled");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..10_000).collect::<Vec<i64>>(),
            "must be unique 0..n"
        );
    }

    #[test]
    fn selectivity_bound_selects_the_fraction() {
        let n = 100_000;
        let v = unique_shuffled(n, 7);
        for sel in [0.01, 0.1, 0.5] {
            let bound = selectivity_bound(n, sel);
            let matches = v.iter().filter(|&&x| x < bound).count();
            assert_eq!(matches as i64, bound, "exactly `bound` values are < bound");
            let frac = matches as f64 / n as f64;
            assert!((frac - sel).abs() < 1e-9);
        }
    }

    #[test]
    fn grouping_keys_have_requested_cardinality() {
        for groups in [10u64, 100, 1000] {
            let keys = grouping_keys(100_000, groups, 3);
            let distinct: std::collections::HashSet<i64> = keys.iter().copied().collect();
            assert_eq!(distinct.len() as u64, groups);
        }
    }
}
