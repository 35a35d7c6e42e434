//! Order statistics over timing samples.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `xs`, or `None` unless at
/// least [`MIN_BEYOND`] samples lie strictly above its rank: a p90 of
/// 20 samples would rest on two values and is refused.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile wants 0..=100, got {p}");
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v.len() - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// The highest of `candidates` (ascending) that [`percentile`] will
/// report for `xs`, with its value.
pub fn highest_supported(xs: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates.iter().rev().find_map(|&p| percentile(xs, p).map(|v| (p, v)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is rank 90: 9 beyond it — refused.
        assert_eq!(percentile(&xs, 90.0), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly 10 beyond it.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // A median of 19 samples leaves 9 beyond it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_supported_steps_down() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_supported(&xs, &[50.0, 75.0, 90.0, 99.0]), Some((75.0, 30.0)));
        assert_eq!(highest_supported(&xs[..5], &[50.0, 90.0]), None);
    }
}
