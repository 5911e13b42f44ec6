//! Order statistics for block values and latency samples.
//!
//! Every timing metric of the benchmark is a median of per-block values;
//! quartiles use the same rule as Python's `statistics.quantiles(v, n=4)`
//! (the "exclusive" method) so the A/A tool and an outside driver agree
//! on what a spread is.

/// Median, quartiles and count of a set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarised.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (the "spread").
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th of `n - 1` cut points of sorted data, exclusive method:
/// position `i * (len + 1) / n`, linearly interpolated, clamped to the
/// data range. One value is its own quantile.
fn cut_point(sorted: &[f64], i: usize, n: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

/// Median of `values` (mean of the middle two when the count is even).
///
/// # Panics
/// On an empty slice: a block summary without blocks is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    cut_point(&sorted(values), 1, 2)
}

/// Median and quartiles of `values`.
///
/// # Panics
/// On an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no values");
    let s = sorted(values);
    Summary {
        n: s.len(),
        q1: cut_point(&s, 1, 4),
        median: cut_point(&s, 1, 2),
        q3: cut_point(&s, 3, 4),
    }
}

/// The tail percentiles the harness may report, in per mille, lowest
/// first (integers: `100 * (1 - 0.9)` is not 10 in floating point).
const TAILS_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`TAILS_PER_MILLE`] that still has at least
/// ten samples beyond its nearest-rank value, as `(percentile, value)`;
/// `None` below twenty samples (even the median then has fewer than ten
/// beyond it).
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let rank = |per_mille: usize| (n * per_mille).div_ceil(1000);
    let per_mille = TAILS_PER_MILLE
        .into_iter()
        .rev()
        .find(|&p| n >= rank(p) + 10)?;
    Some((per_mille as f64 / 10.0, sorted(values)[rank(per_mille) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[2.0, 3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] clamps
        // nothing: the exclusive method extrapolates past two points.
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((summarize(&v).spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[5.0, 5.0, 5.0]).spread(), 0.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond_it() {
        let of = |n: usize| {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            supported_tail(&v).map(|(p, _)| p)
        };
        assert_eq!(of(19), None);
        assert_eq!(of(20), Some(50.0));
        assert_eq!(of(99), Some(50.0));
        assert_eq!(of(100), Some(90.0));
        assert_eq!(of(200), Some(95.0));
        assert_eq!(of(1000), Some(99.0));
        assert_eq!(of(10_000), Some(99.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.0, 990.0)));
    }
}
