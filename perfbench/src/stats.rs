//! The benchmark's own arithmetic: percentiles with their sample rule,
//! ratios that carry their base, and failure shares.

use std::time::Duration;

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of one timing, in seconds.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` into a sample.
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// A sample of durations, in seconds.
    pub fn of(durations: impl IntoIterator<Item = Duration>) -> Sample {
        Sample::new(durations.into_iter().map(|d| d.as_secs_f64()).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the value at rank `ceil(p/100 * n)`
    /// (1-based), the convention of the program's own metrics registry.
    /// `None` on an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0).then(|| self.sorted[rank(n, p) - 1])
    }

    /// Samples strictly above the `p` percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.sorted.len();
        if n == 0 {
            0
        } else {
            n - rank(n, p)
        }
    }

    /// The highest percentile that leaves at least [`MIN_BEYOND`]
    /// samples beyond it, or `None` when the sample is too small for any.
    pub fn highest_supported(&self) -> Option<f64> {
        let n = self.sorted.len();
        (n > MIN_BEYOND).then(|| 100.0 * (n - MIN_BEYOND) as f64 / n as f64)
    }

    /// Whether the `p` percentile has at least [`MIN_BEYOND`] samples
    /// beyond it.
    pub fn supports(&self, p: f64) -> bool {
        self.beyond(p) >= MIN_BEYOND
    }
}

fn rank(n: usize, p: f64) -> usize {
    // Round away float noise before the ceiling so that e.g. 99% of 1000
    // lands on rank 990, not 991.
    let exact = p / 100.0 * n as f64;
    let r = ((exact * 1e9).round() / 1e9).ceil() as usize;
    r.clamp(1, n)
}

/// A ratio that keeps its base, so a report can always say what it was
/// divided by — and never divides by zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub base: f64,
}

impl Ratio {
    /// `num / base`.
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// The quotient, or `None` for a zero base.
    pub fn value(&self) -> Option<f64> {
        (self.base != 0.0).then(|| self.num / self.base)
    }

    /// The quotient, or 0 for a zero base (a per-layer count that did
    /// not occur on this workload).
    pub fn or_zero(&self) -> f64 {
        self.value().unwrap_or(0.0)
    }

    /// The quotient in percent, or `None` for a zero base.
    pub fn pct(&self) -> Option<f64> {
        self.value().map(|v| 100.0 * v)
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{v:.4} ({} / {})", self.num, self.base),
            None => write!(f, "n/a ({} / 0)", self.num),
        }
    }
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    assert!(
        failed <= attempted,
        "{failed} failures out of {attempted} attempts"
    );
    Ratio::new(failed as f64, attempted as f64).or_zero()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(n: usize) -> Sample {
        Sample::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_matches_the_registry_convention() {
        let s = ints(4);
        assert_eq!(s.percentile(50.0), Some(2.0));
        assert_eq!(s.percentile(100.0), Some(4.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(Sample::default().percentile(50.0), None);
        let d = [3u64, 1, 2].map(Duration::from_secs);
        assert_eq!(Sample::of(d).percentile(50.0), Some(2.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(ints(1000).percentile(99.0), Some(990.0));
        assert_eq!(ints(1000).beyond(99.0), 10);
        assert!(ints(1000).supports(99.0));
        assert_eq!(ints(999).beyond(99.0), 9);
        assert!(!ints(999).supports(99.0));
    }

    #[test]
    fn highest_supported_percentile_leaves_exactly_ten_beyond() {
        for n in [11usize, 50, 768, 1000, 4108] {
            let s = ints(n);
            let p = s.highest_supported().expect("n > 10");
            assert_eq!(s.beyond(p), MIN_BEYOND, "n = {n}, p = {p}");
            // Any higher percentile leaves fewer than ten.
            assert!(s.beyond(p + 1e-6) < MIN_BEYOND, "n = {n}");
        }
        assert_eq!(ints(1000).highest_supported(), Some(99.0));
        assert_eq!(ints(10).highest_supported(), None);
        assert_eq!(Sample::default().highest_supported(), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), Some(0.75));
        assert_eq!(r.to_string(), "0.7500 (3 / 4)");
        assert_eq!(Ratio::new(6.0, 5.0).pct(), Some(120.0));
        let zero = Ratio::new(5.0, 0.0);
        assert_eq!(zero.value(), None);
        assert_eq!(zero.pct(), None);
        assert_eq!(zero.or_zero(), 0.0);
        assert_eq!(zero.to_string(), "n/a (5 / 0)");
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 10), 0.0);
        assert_eq!(failed_share(8, 800), 0.01);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "failures out of")]
    fn failed_share_rejects_more_failures_than_attempts() {
        failed_share(2, 1);
    }
}
