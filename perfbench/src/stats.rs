//! Order statistics for timing samples: median, quartiles, nearest-rank
//! percentiles, and the highest percentile a sample can support.
//!
//! Every helper takes unsorted samples and answers correctly for small
//! samples: an empty sample has no median, and a percentile with fewer
//! than [`TAIL_MIN_BEYOND`] samples beyond it is not reported at all,
//! rather than read out of range.

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles considered when choosing the highest supported tail.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the middle pair for an even count.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample with at
/// least `p` % of the sample at or below it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples above its rank, with its value; `None` when
/// even the median lacks that support (fewer than 20 samples).
pub fn supported_tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64)?;
    Some((p, percentile(xs, p)?))
}

/// Quartiles `(q1, q2, q3)` by the exclusive method, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median: the spread measure run
/// steadiness is judged by.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_uses_nearest_rank_without_underflow() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        // Below 100 samples a `len * 99 / 100 - 1` index underflows; the
        // nearest rank is still defined.
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[2.0, 1.0], 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&small), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&twenty), Some((50.0, 10.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&thousand), Some((99.0, 990.0)));
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(supported_tail(&big), Some((99.99, 99_990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 3.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
