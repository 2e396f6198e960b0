//! Order statistics used by every workload.

/// Percentile levels tried, highest first, when reporting a tail.
const TAIL_LEVELS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest rank (1-based) of percentile `pct` in `n` samples; the epsilon
/// keeps e.g. 99.9% of 10 000 at rank 9 990 despite float rounding.
fn rank(pct: f64, n: usize) -> usize {
    (pct / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// Value at percentile `pct` (0–100) of an ascending slice, nearest rank.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = rank(pct, sorted.len());
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice (mean of the middle pair for even lengths).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values))
}

/// A sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail a sample supports: the highest of [`TAIL_LEVELS`] with at least
/// ten samples strictly beyond its rank, or the median when none has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level reported (e.g. 99.0).
    pub level: f64,
    /// Value at that level.
    pub value: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The tail of an ascending sample; see [`Tail`].
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let level = TAIL_LEVELS
        .iter()
        .copied()
        .find(|&l| n.saturating_sub(rank(l, n).max(1)) >= 10)
        .unwrap_or(50.0);
    Tail {
        level,
        value: percentile(sorted, level),
        samples: n,
    }
}

/// Median and tail of latency samples given in microseconds.
pub fn summarize(samples: &[f64]) -> (f64, Tail) {
    let s = sorted(samples);
    (median(&s), tail(&s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.level, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 rank 990 leaves 9 beyond, so fall back to p95.
        let t = tail(&ramp(999));
        assert_eq!(t.level, 95.0);
        assert_eq!(t.value, 950.0);
        // 10 000 samples: p99.9 rank 9990 leaves 10 beyond.
        assert_eq!(tail(&ramp(10_000)).level, 99.9);
        // 40 samples: p75 rank 30 leaves 10 beyond.
        assert_eq!(tail(&ramp(40)).level, 75.0);
        // Too few samples for any tail: the median.
        let t = tail(&ramp(12));
        assert_eq!((t.level, t.value, t.samples), (50.0, 6.0, 12));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
