//! Order statistics over measured samples. Percentiles are given in
//! tenths of a percent (`995` is p99.5) so ranks are exact integers.

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: u64, n: usize) -> usize {
    ((p * n as u64).div_ceil(1000) as usize).clamp(1, n.max(1))
}

/// The percentile `p` (tenths of a percent) by nearest rank; 0 for no
/// samples.
pub fn percentile(samples: &[f64], p: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 500)
}

/// The percentiles a tail is reported at.
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// How many of `n` samples lie beyond percentile `p`.
pub fn beyond(p: u64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it (the median when no percentile has).
pub fn tail_percentile(n: usize) -> u64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(p, n) >= 10)
        .unwrap_or(500)
}

/// `num / den`, or 0 when there is nothing to divide by.
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

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 900), 9.0);
        assert_eq!(percentile(&v, 1000), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 500);
        assert_eq!(tail_percentile(40), 750);
        assert_eq!(tail_percentile(100), 900);
        assert_eq!(tail_percentile(1000), 990);
        assert_eq!(tail_percentile(10_000), 999);
    }
}
