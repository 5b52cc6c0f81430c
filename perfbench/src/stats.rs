//! Summary statistics the benchmark reports: medians, nearest-rank
//! percentiles, and the tail rule every latency in the output follows.

/// Percentiles the tail rule considers, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`
/// samples: the smallest sample with at least `p`% of the samples at or
/// below it, by the scheduler's own [`rpr_sched::quantile`].
///
/// # Panics
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    rpr_sched::quantile(sorted, p / 100.0)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p` (by rank, so ties with the percentile count as beyond
/// only when they sit above its rank).
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    // The percentile of the ranks 1..=n is the 1-based rank itself.
    let ranks: Vec<f64> = (1..=n).map(|r| r as f64).collect();
    n - nearest_rank(&ranks, p) as usize
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 99.0.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

/// The tail rule: the highest percentile of the ladder (p50, p90, p95,
/// p99, p99.9, p99.99) that has at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, with the sample count. `None` when even the median lacks
/// ten samples beyond it (fewer than 21 samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .find(|&&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
        .map(|&p| Tail {
            percentile: p,
            value: nearest_rank(sorted, p),
            samples: n,
        })
}

/// True when percentile `p` is reportable from `n` samples under the
/// tail rule.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND
}

/// Sort a copy of `xs` ascending (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Sum over a pass's entries of each entry's fastest wall in the run:
/// the wall of one pass that `ops_per_s` divides by. On a shared host
/// the neighbours' load only ever adds time to an op, so each entry's
/// fastest wall is its steadiest estimate. 0 when an entry has no walls.
pub fn fastest_pass(walls: &[Vec<f64>]) -> f64 {
    walls
        .iter()
        .map(|w| w.iter().copied().reduce(f64::min).unwrap_or(0.0))
        .sum()
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v = ramp(100);
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&ramp(1000), 99.0), 990.0);
        assert_eq!(nearest_rank(&ramp(1000), 99.9), 999.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(20, 50.0), 10);
        assert_eq!(beyond(19, 50.0), 9);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9, so the rule falls back to p95.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.samples, 999);
        // 10 000 samples reach p99.9; 100 000 reach p99.99.
        assert_eq!(tail(&ramp(10_000)).unwrap().percentile, 99.9);
        assert_eq!(tail(&ramp(100_000)).unwrap().percentile, 99.99);
        // 200 samples: p95 leaves 10 beyond.
        assert_eq!(tail(&ramp(200)).unwrap().percentile, 95.0);
        // 20 samples: only the median qualifies; 19 samples: nothing.
        assert_eq!(tail(&ramp(20)).unwrap().percentile, 50.0);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn supports_agrees_with_the_tail_rule() {
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn fastest_pass_sums_each_entrys_fastest_wall() {
        assert_eq!(fastest_pass(&[vec![3.0, 1.0, 2.0], vec![0.5, 0.25]]), 1.25);
        assert_eq!(fastest_pass(&[vec![], vec![2.0]]), 2.0);
        assert_eq!(fastest_pass(&[]), 0.0);
    }
}
