//! Percentiles with an honest tail.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, with the sample
//! count. Percentiles use the nearest-rank rule: the p-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 · n)`.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank index (0-based) of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // The epsilon keeps exact products (99.9 % of 10 000) from rounding up.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of ascending `sorted` samples (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn honest_tail(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A timing sample reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest honest tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            n,
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            tail: honest_tail(n).map(|p| (p, percentile(&sorted, p))),
        }
    }

    /// `p50 / pXX (n)` for the human-readable report.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((p, v)) => format!("p50 {:.1} / p{p} {:.1} (n={})", self.p50, v, self.n),
            None => format!("p50 {:.1} (n={}, no honest tail)", self.p50, self.n),
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn two_hundred_samples_have_no_honest_p99() {
        // The p99 of 200 samples leaves two samples beyond it (one under
        // the soak's index rule): far from ten.
        assert_eq!(beyond(200, 99.0), 2);
        assert_eq!(honest_tail(200), Some(95.0));
        assert_eq!(beyond(200, 95.0), 10);
    }

    #[test]
    fn honest_tail_climbs_with_the_sample_count() {
        assert_eq!(honest_tail(0), None);
        assert_eq!(honest_tail(15), None);
        assert_eq!(honest_tail(20), Some(50.0));
        assert_eq!(honest_tail(100), Some(90.0));
        assert_eq!(honest_tail(999), Some(95.0));
        assert_eq!(honest_tail(1000), Some(99.0));
        assert_eq!(honest_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.tail, Some((99.0, 989.0)));
        assert!(s.describe().contains("n=1000"));
    }
}
