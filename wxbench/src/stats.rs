//! Order statistics with the reporting rule the benchmark follows: a
//! percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it, so a tail figure is never a single request's time.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL`] samples rank above it.
///
/// The rank is `ceil(q · n)` (1-based); the samples beyond it number
/// `n − rank`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle samples for even counts), or `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The arithmetic mean, `0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_is_refused_with_fewer_than_ten_samples_beyond_it() {
        // 99 samples: rank ceil(89.1) = 90, 9 beyond — refused.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // 100 samples: rank 90, exactly 10 beyond — reported.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // A short run never yields a tail figure.
        assert_eq!(percentile(&ramp(3), 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p50_needs_twenty_samples_and_is_order_free() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        let mut shuffled = ramp(21);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), Some(11.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
