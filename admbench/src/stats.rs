//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank: the `q`-percentile of `n` samples is
//! the sample of 1-based rank `⌈q·n⌉` in sorted order, always a value
//! that was measured. A percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie strictly beyond its rank; otherwise it
//! would describe a handful of outliers, not a tail.

/// Samples that must lie beyond a percentile's rank for it to count.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps q·n = 90.000…01 (binary rounding) at rank 90.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples needed before the `q`-percentile may be reported.
pub fn samples_needed(q: f64) -> usize {
    // Smallest n with n - ⌈q·n⌉ >= MIN_BEYOND.
    (1..)
        .find(|&n| n - rank(n, q) >= MIN_BEYOND)
        .expect("a finite sample count always suffices for q < 1")
}

/// Nearest-rank `q`-percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (which includes the empty case).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "percentile {q} out of [0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    if n - r < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[r - 1])
}

/// Median by the same nearest-rank rule, without the tail requirement
/// (a median of a few repeated set-up timings is still a median).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), 0.5) - 1])
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        // n = 100: p50 has rank 50, p90 rank 90 (10 beyond it).
        let s = one_to(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        // Order of the input does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
        // Ranks round up: n = 21, p50 → rank 11.
        assert_eq!(percentile(&one_to(21), 0.5), Some(11.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples has rank 90 and only 9 beyond it.
        assert_eq!(percentile(&one_to(99), 0.9), None);
        assert_eq!(percentile(&one_to(100), 0.9), Some(90.0));
        // p50 needs 20 samples: rank 10, ten beyond.
        assert_eq!(percentile(&one_to(19), 0.5), None);
        assert_eq!(percentile(&one_to(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
