//! The benchmark's own arithmetic: percentiles, the tail-percentile rule,
//! the tenths ratio behind `uptime_slowdown`, and medians.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 9] = [99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// epsilon keeps `99.9 / 100 * 10_000` (9990.000000000002 in floating
/// point) at rank 9990.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// A timing distribution reduced to the two figures the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile [`tail_percentile`] picked for `n` (the maximum when
    /// no percentile qualifies).
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

impl Summary {
    /// Summarises `values` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len()).unwrap_or(100.0);
        Summary {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 50.0),
            tail_p,
            tail: percentile_sorted(&sorted, tail_p),
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of the last tenth of `in_order` divided by the median of the
/// first tenth (each tenth holds `len / 10` values, at least one). 1.0
/// means the cost per item stayed flat over the run. Medians, not means: a
/// single scheduler stall inside a tenth would otherwise move the ratio by
/// more than the benchmark's bound.
///
/// # Panics
///
/// Panics when fewer than 10 values are given or the first tenth's median
/// is not positive.
pub fn tenths_ratio(in_order: &[f64]) -> f64 {
    let (first, last) = first_and_last_tenth(in_order);
    let first = median(first);
    assert!(first > 0.0, "first tenth has no cost");
    median(last) / first
}

/// The first and the last tenth of `in_order` (`len / 10` values each).
///
/// # Panics
///
/// Panics when fewer than 10 values are given.
pub fn first_and_last_tenth(in_order: &[f64]) -> (&[f64], &[f64]) {
    assert!(in_order.len() >= 10, "tenths of fewer than 10 values");
    let tenth = in_order.len() / 10;
    (&in_order[..tenth], &in_order[in_order.len() - tenth..])
}

/// Medians of each of the ten consecutive tenths of `in_order` (the last
/// one absorbs the remainder).
pub fn tenth_medians(in_order: &[f64]) -> Vec<f64> {
    let tenth = (in_order.len() / 10).max(1);
    (0..10)
        .filter_map(|i| {
            let start = (i * tenth).min(in_order.len());
            let end = if i == 9 {
                in_order.len()
            } else {
                ((i + 1) * tenth).min(in_order.len())
            };
            (start < end).then(|| median(&in_order[start..end]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_has_at_least_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.5), 5);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 leaves 9, so the rule falls back to p98.
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 57, 100, 999, 1000, 4321, 65_536] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 989.0);
        // Too few samples for any percentile: the tail is the maximum.
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.tail_p, s.tail), (100.0, 3.0));
    }

    #[test]
    fn tenths_ratio_compares_last_to_first_tenth() {
        let flat = vec![5.0; 100];
        assert_eq!(tenths_ratio(&flat), 1.0);
        // Linear growth 1..=100: first tenth median 5.5, last 95.5.
        let growing: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((tenths_ratio(&growing) - 95.5 / 5.5).abs() < 1e-12);
        // 25 values: tenths of 2, the middle is ignored.
        let mut v = vec![1.0; 25];
        v[23] = 3.0;
        v[24] = 5.0;
        assert_eq!(tenths_ratio(&v), 4.0);
        // One stall in a tenth does not move it.
        let mut stalled = vec![5.0; 100];
        stalled[95] = 5_000.0;
        assert_eq!(tenths_ratio(&stalled), 1.0);
        let medians = tenth_medians(&growing);
        assert_eq!(medians.len(), 10);
        assert_eq!(medians[0], 5.5);
        assert_eq!(medians[9], 95.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
