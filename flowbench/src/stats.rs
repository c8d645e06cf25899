//! Order statistics over timing samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "tail" is a handful of single samples and
/// moves run to run.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when
/// there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) and the number of samples
/// that lie beyond it. `None` for no samples.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((v[rank - 1], n - rank))
}

/// The `p` percentile when at least [`TAIL_MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    nearest_rank(samples, p)
        .filter(|&(_, beyond)| beyond >= TAIL_MIN_BEYOND)
        .map(|(value, _)| value)
}

/// [`tail`], falling back to the median when too few samples lie beyond
/// the percentile (flows that run one job per pass).
pub fn tail_or_median(samples: &[f64], p: f64) -> f64 {
    tail(samples, p).unwrap_or_else(|| median(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 200 samples: the p95 rank is 190, leaving exactly 10 beyond it.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.95), Some((190.0, 10)));
        assert_eq!(tail(&samples, 0.95), Some(190.0));
        // 199 samples: rank ceil(189.05) = 190 leaves only 9 beyond.
        assert_eq!(tail(&samples[..199], 0.95), None);
        assert_eq!(tail_or_median(&samples[..199], 0.95), 100.0);
        // One job per pass never has a tail: the median stands in.
        assert_eq!(tail_or_median(&[7.0, 6.0, 8.0], 0.95), 7.0);
        assert_eq!(tail(&[], 0.5), None);
    }
}
