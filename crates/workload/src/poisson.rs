//! Poisson arrival processes.

use rand::Rng;
use vod_types::{Instant, Seconds};

/// Samples one exponential interarrival gap for rate `lambda` (arrivals
/// per second). Returns `None` for non-positive rates (no arrivals).
pub fn exponential_gap<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> Option<Seconds> {
    if lambda <= 0.0 || !lambda.is_finite() {
        return None;
    }
    // Inverse-CDF sampling; 1 − U avoids ln(0).
    let u: f64 = rng.gen();
    Some(Seconds::from_secs(-(1.0 - u).ln() / lambda))
}

/// Generates the arrival times of a homogeneous Poisson process with rate
/// `lambda` (arrivals/second) on the interval `[start, end)`.
pub fn homogeneous<R: Rng + ?Sized>(
    rng: &mut R,
    lambda: f64,
    start: Instant,
    end: Instant,
) -> Vec<Instant> {
    let mut out = Vec::new();
    push_homogeneous(rng, lambda, start, end, &mut out);
    out
}

/// Appends the arrival times of [`homogeneous`] to `out`, drawing the
/// same gaps in the same order.
fn push_homogeneous<R: Rng + ?Sized>(
    rng: &mut R,
    lambda: f64,
    start: Instant,
    end: Instant,
    out: &mut Vec<Instant>,
) {
    let mut t = start;
    while let Some(gap) = exponential_gap(rng, lambda) {
        t += gap;
        if t >= end {
            return;
        }
        out.push(t);
    }
}

/// Generates a piecewise-homogeneous Poisson process: `slots[i]` gives the
/// rate (arrivals/second) over `[start + i·slot_len, start + (i+1)·slot_len)`.
/// This is exactly the paper's "λ changes every 30 minutes" model.
///
/// Every slot appends to one vector, reserved once for the expected count
/// `μ` plus `5√μ`, so it grows again only when a trace runs more than five
/// standard deviations long.
pub fn piecewise<R: Rng + ?Sized>(
    rng: &mut R,
    slot_rates: &[f64],
    slot_len: Seconds,
    start: Instant,
) -> Vec<Instant> {
    let expected: f64 = slot_rates
        .iter()
        .filter(|&&lambda| lambda > 0.0 && lambda.is_finite())
        .map(|&lambda| lambda * slot_len.as_secs_f64())
        .sum();
    // `as` saturates, and a NaN expectation reserves nothing.
    let mut out = Vec::with_capacity((expected + 5.0 * expected.sqrt()).ceil() as usize);
    for (i, &lambda) in slot_rates.iter().enumerate() {
        let s = start + slot_len * i as f64;
        let e = start + slot_len * (i + 1) as f64;
        push_homogeneous(rng, lambda, s, e, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gap_mean_is_inverse_rate() {
        let mut rng = StdRng::seed_from_u64(11);
        let lambda = 0.5; // one arrival every 2 s on average
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| {
                exponential_gap(&mut rng, lambda)
                    .expect("positive rate")
                    .as_secs_f64()
            })
            .sum();
        let mean = total / f64::from(n);
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(exponential_gap(&mut rng, 0.0).is_none());
        assert!(exponential_gap(&mut rng, -1.0).is_none());
        assert!(homogeneous(&mut rng, 0.0, Instant::ZERO, Instant::from_secs(100.0)).is_empty());
    }

    #[test]
    fn homogeneous_count_matches_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let lambda = 0.1;
        let horizon = 100_000.0;
        let arrivals = homogeneous(&mut rng, lambda, Instant::ZERO, Instant::from_secs(horizon));
        let expected = lambda * horizon;
        let got = arrivals.len() as f64;
        // ±4σ of a Poisson(10 000).
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt(),
            "count {got}"
        );
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let arrivals = homogeneous(
            &mut rng,
            1.0,
            Instant::from_secs(50.0),
            Instant::from_secs(150.0),
        );
        assert!(!arrivals.is_empty());
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arrivals[0] >= Instant::from_secs(50.0));
        assert!(*arrivals.last().expect("non-empty") < Instant::from_secs(150.0));
    }

    #[test]
    fn piecewise_respects_slot_rates() {
        let mut rng = StdRng::seed_from_u64(21);
        // Busy slot then silent slot, repeated.
        let rates = [0.5, 0.0, 0.5, 0.0];
        let slot = Seconds::from_secs(10_000.0);
        let arrivals = piecewise(&mut rng, &rates, slot, Instant::ZERO);
        let in_silent = arrivals
            .iter()
            .filter(|t| {
                let s = t.as_secs_f64();
                (10_000.0..20_000.0).contains(&s) || s >= 30_000.0
            })
            .count();
        assert_eq!(in_silent, 0);
        let expected = 2.0 * 0.5 * 10_000.0;
        let got = arrivals.len() as f64;
        assert!((got - expected).abs() < 4.0 * expected.sqrt());
    }

    #[test]
    fn same_seed_reproduces_trace() {
        let a = homogeneous(
            &mut StdRng::seed_from_u64(42),
            0.3,
            Instant::ZERO,
            Instant::from_secs(1000.0),
        );
        let b = homogeneous(
            &mut StdRng::seed_from_u64(42),
            0.3,
            Instant::ZERO,
            Instant::from_secs(1000.0),
        );
        assert_eq!(a, b);
    }
}
