//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile together with the number of samples
/// strictly above its rank, so a report can say how well the tail is
/// supported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest sample
/// with at least `p` percent of all samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> Tail {
    if xs.is_empty() {
        return Tail { value: 0.0, beyond: 0, samples: 0 };
    }
    let s = sorted(xs);
    let n = s.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Tail { value: s[rank - 1], beyond: n - rank, samples: n }
}

/// Fewest samples for which the nearest-rank `p`-th percentile has at
/// least `beyond` samples above it.
pub fn samples_for_tail(p: f64, beyond: usize) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).beyond >= beyond).unwrap_or(usize::MAX)
}

/// Geometric mean of positive values; 0 when any value is not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A histogram of positive durations in logarithmic buckets 1% wide:
/// constant memory for the millions of `step()` timings a traced run
/// takes, with percentiles accurate to the bucket width.
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist { buckets: vec![0; LogHist::BUCKETS], count: 0 }
    }
}

impl LogHist {
    /// Bucket `i` holds values in `[GROWTH^i, GROWTH^(i+1))`.
    const GROWTH: f64 = 1.01;
    /// Enough buckets for values up to about 10^13.
    const BUCKETS: usize = 3100;

    /// Records one value (values below 1 land in the first bucket).
    pub fn record(&mut self, v: f64) {
        let i = if v <= 1.0 { 0 } else { (v.ln() / Self::GROWTH.ln()) as usize };
        self.buckets[i.min(Self::BUCKETS - 1)] += 1;
        self.count += 1;
    }

    /// Values recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank `p`-th percentile, as the geometric middle of its
    /// bucket; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::GROWTH.powf(i as f64 + 0.5);
            }
        }
        unreachable!("rank is at most the count")
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert_eq!(percentile(&xs, 99.0).value, 99.0);
        assert_eq!(percentile(&xs, 100.0).beyond, 0);
        assert_eq!(percentile(&[7.0], 90.0).value, 7.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_for_tail(90.0, 10), 100);
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&xs, 90.0).beyond < 10);
    }

    #[test]
    fn log_histogram_percentiles_within_a_bucket() {
        let mut h = LogHist::default();
        assert_eq!(h.percentile(50.0), 0.0);
        for v in 1..=1000 {
            h.record(f64::from(v));
        }
        h.record(0.0);
        assert_eq!(h.count(), 1001);
        let p50 = h.percentile(50.0);
        assert!((p50 / 500.0 - 1.0).abs() < 0.011, "{p50}");
        let p99 = h.percentile(99.0);
        assert!((p99 / 990.0 - 1.0).abs() < 0.011, "{p99}");
        h.record(1e15);
        assert!(h.percentile(100.0) > 1e12);
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
