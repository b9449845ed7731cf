//! Order statistics over exact samples.
//!
//! Every percentile the benchmark reports comes from here: the samples
//! are sorted and indexed by the nearest-rank rule, so a reported p95 is
//! always one of the measured values, never a histogram bucket edge.

/// The `p`-th percentile (`0 < p ≤ 100`) of `samples` by the
/// nearest-rank rule: the smallest sample with at least `p`% of all
/// samples at or below it, i.e. the sample at 1-based rank
/// `⌈p/100 · n⌉`. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile rank {p} outside (0, 100]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median (the lower middle sample for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// `num / den`, or `0` when the denominator is zero (a ratio over an
/// empty population).
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

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn empty_has_no_percentiles() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [1.0, 25.0, 50.0, 95.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn nineteen_samples_use_ceiling_rank() {
        let xs = one_to(19);
        assert_eq!(percentile(&xs, 25.0), Some(5.0)); // ⌈4.75⌉ = 5
        assert_eq!(percentile(&xs, 50.0), Some(10.0)); // ⌈9.5⌉ = 10
        assert_eq!(percentile(&xs, 75.0), Some(15.0)); // ⌈14.25⌉ = 15
        assert_eq!(percentile(&xs, 95.0), Some(19.0)); // ⌈18.05⌉ = 19
        assert_eq!(percentile(&xs, 100.0), Some(19.0));
    }

    #[test]
    fn two_hundred_samples_hit_exact_ranks() {
        let xs = one_to(200);
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        assert_eq!(percentile(&xs, 99.0), Some(198.0));
        assert_eq!(median(&xs), Some(100.0));
    }

    #[test]
    fn ratio_of_empty_population_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
