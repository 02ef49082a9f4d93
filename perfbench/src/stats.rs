//! Order statistics the reports are built from.

/// `v` in ascending order.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of p50/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it, or `None` when even the median does not.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance check
/// of the benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// A value measured in several parts of one run: the reported value and
/// the lowest and highest part, which `compare` reads as the run's own
/// spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Measured {
    /// A value with no parts (a count, or a deterministic model output).
    pub fn exact(value: f64) -> Self {
        Measured {
            value,
            min: value,
            max: value,
        }
    }

    /// The median of the parts.
    pub fn median_of(parts: &[f64]) -> Self {
        Measured::around(median(parts), parts)
    }

    /// `value` with the spread of `parts`.
    pub fn around(value: f64, parts: &[f64]) -> Self {
        Measured {
            value,
            min: parts.iter().copied().fold(value, f64::min),
            max: parts.iter().copied().fold(value, f64::max),
        }
    }

    /// `(max - min) / value`.
    pub fn spread(&self) -> f64 {
        (self.max - self.min) / self.value.abs().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 99.0), 7);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(24_000), Some(99.9));
    }

    #[test]
    fn segment_median_and_spread() {
        let m = Measured::median_of(&[100.0, 90.0, 110.0, 95.0, 400.0]);
        assert_eq!(m.value, 100.0);
        assert_eq!((m.min, m.max), (90.0, 400.0));
        assert!((m.spread() - 3.1).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(Measured::exact(3.0).spread(), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
