//! Order statistics: medians and quartiles of repeated measurements, and
//! nearest-rank percentiles of latency samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count), as Python's
/// `statistics.median` gives it. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method). A single
/// value is its own quartiles. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len == 0 {
        return None;
    }
    if len == 1 {
        return Some((v[0], v[0]));
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// A nearest-rank percentile with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at rank `⌈p·n⌉` (clamped to `[1, n]`).
    pub value: f64,
    /// That rank, 1-based.
    pub rank: usize,
    /// Number of samples.
    pub count: usize,
}

impl Percentile {
    /// Samples strictly beyond the percentile's rank.
    pub fn beyond(&self) -> usize {
        self.count - self.rank
    }
}

/// The nearest-rank `p`-th percentile (`p` in `0..=1`). `None` when
/// `values` is empty or `p` is out of range.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let v = sorted(values);
    let count = v.len();
    let rank = ((p * count as f64).ceil() as usize).clamp(1, count);
    Some(Percentile {
        value: v[rank - 1],
        rank,
        count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    }

    #[test]
    fn nearest_rank_percentiles_report_their_sample_counts() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.rank, p99.count, p99.beyond()), (990, 1000, 10));
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond()), (500.0, 500));
        // p = 0 is the minimum (rank clamps to 1), p = 1 the maximum.
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&v, 1.0).unwrap().beyond(), 0);
        // A single sample is every percentile, with nothing beyond it.
        let one = percentile(&[4.5], 0.99).unwrap();
        assert_eq!((one.value, one.rank, one.count), (4.5, 1, 1));
        assert!(percentile(&[], 0.5).is_none());
        assert!(percentile(&v, 1.5).is_none());
    }
}
