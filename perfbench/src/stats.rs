//! Order statistics with the benchmark's percentile rule.
//!
//! Every timing is reported as its median, the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it, and its sample
//! count. A p99 over 200 samples rests on two values; the rule refuses to
//! print it and falls back to a lower percentile instead.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Tail percentiles the rule chooses from, highest first.
const LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// arithmetic so `99.9 %` of 1000 is exactly rank 999.
fn rank(p: f64, n: usize) -> usize {
    let per_10k = (p * 100.0).round() as usize;
    (per_10k * n).div_ceil(10_000)
}

/// The highest ladder percentile with at least [`MIN_TAIL`] of `n`
/// samples strictly beyond its rank, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_TAIL)
}

/// Median, rule-chosen tail and count of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (nearest rank).
    pub median: f64,
    /// `(percentile, value)` chosen by [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            median: percentile(&v, 50.0),
            tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
        })
    }

    /// `median 1.23, p99.9 4.56 (n=1000)`, with `unit` after each value.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "median {:.4} {unit}, p{p} {v:.4} {unit} (n={})",
                self.median, self.n
            ),
            None => format!(
                "median {:.4} {unit} (n={}, too few samples for a tail)",
                self.median, self.n
            ),
        }
    }
}

/// Percentile `p` of `samples` (any order); 0 when empty.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

/// `num / den`, or 0 when the base is 0 — every ratio is printed with its
/// base, so a zero base stays visible.
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
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: even p90 leaves only one beyond it.
        assert_eq!(tail_percentile(19), None);
        // p90 of 100 is rank 90: exactly ten beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // p99 of 1000 is rank 990: ten beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 499.0);
        assert_eq!(s.tail, Some((99.0, 989.0)));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().tail, None);
    }

    #[test]
    fn ratio_of_zero_base_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
