//! Sample statistics: the median, and the percentile rule "report the
//! highest percentile that has at least ten samples beyond it".

/// Samples a p90 needs before it is reported: ten beyond the 90th
/// percentile.
pub const P90_MIN_SAMPLES: usize = 100;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of a non-empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The 90th percentile, withheld below [`P90_MIN_SAMPLES`] samples.
pub fn p90(samples: &[f64]) -> Option<f64> {
    (samples.len() >= P90_MIN_SAMPLES).then(|| percentile(samples, 90.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_withheld_below_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&ninety_nine), None);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // Nearest rank: ceil(0.9 * 100) = 90th smallest, ten samples beyond.
        assert_eq!(p90(&hundred), Some(90.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_median_splits_even_counts() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
