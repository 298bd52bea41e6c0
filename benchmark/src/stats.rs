//! The statistics the benchmark reports: nearest-rank percentiles over
//! pooled samples and medians over rounds.

/// The percentiles a latency metric may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Sorts samples for the percentile functions.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    samples
}

/// The nearest rank of percentile `p` among `count` samples: the number
/// of samples at or below the percentile. Percentiles are resolved to a
/// tenth of a percent and the rank is computed in integers, so that 90% of
/// 100 is rank 90 and not the 91 a rounded-up float product would give.
fn rank(count: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (count * per_mille).div_ceil(1000).clamp(1, count.max(1))
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `p` percent of the samples at or below it. `0.0` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile of the ladder that still has at least ten of
/// `count` samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| count >= rank(count, *p) + 10)
}

/// Median of per-round figures; an even count averages the middle pair.
/// `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The best of per-round figures: the lowest when lower is better, the
/// highest otherwise. `0.0` for no values.
pub fn best(values: &[f64], better: &str) -> f64 {
    let pick = if better == "lower" {
        f64::min
    } else {
        f64::max
    };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(320), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(3000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_over_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
    }

    #[test]
    fn best_over_rounds_follows_the_direction() {
        assert_eq!(best(&[3.0, 1.0, 2.0], "lower"), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], "higher"), 3.0);
        assert_eq!(best(&[], "lower"), 0.0);
    }
}
