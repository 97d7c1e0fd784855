//! Exact order statistics over raw samples (no histogram buckets, so no
//! quantization error).

/// The `q`-quantile of `samples` by the nearest-rank rule: the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of `samples` (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(500.0));
        assert_eq!(quantile(&samples, 0.99), Some(990.0));
        assert_eq!(quantile(&samples, 1.0), Some(1000.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
