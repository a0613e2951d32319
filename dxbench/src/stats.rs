//! Order statistics shared by every metric and by `compare`.

/// A reported tail percentile must leave at least this many samples
/// beyond it; otherwise the sample cannot support it.
pub const MIN_TAIL: usize = 10;

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` (in `0..=1`) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support percentile `p`: at least [`MIN_TAIL`]
/// samples lie beyond its nearest rank.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_TAIL
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of a non-empty slice (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Mean, median and the tail percentiles a sample supports.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        let tail = |p: f64| tail_supported(s.len(), p).then(|| percentile(&s, p));
        Some(Summary {
            n: s.len(),
            mean: s.iter().sum::<f64>() / s.len() as f64,
            p50: median(&s),
            p90: tail(0.90),
            p99: tail(0.99),
        })
    }
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// what a Python reader computes from the same values. Needs two or more
/// values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_samples_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(tail_supported(100, 0.90));
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), MIN_TAIL);
        assert!(!tail_supported(99, 0.90));
    }

    #[test]
    fn no_p99_under_a_thousand_samples() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }
}
