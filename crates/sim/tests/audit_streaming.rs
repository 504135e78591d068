//! Property test of the streaming estimator audit: for any interleaving
//! of allocation windows, arrivals (in any order, below the declared
//! floor too) and floor advances, [`AuditScorer`] scores exactly what a
//! naive count over the complete arrival list scores, each arrival
//! counted where it lands: at `max(t, floor, newest arrival)`.

use proptest::prelude::*;
use vod_sim::{AuditOutcome, AuditScorer};
use vod_types::{Instant, Seconds};

/// Instants live on a quarter-second grid, so window ends and arrivals
/// coincide often and every sum is exact in `f64`.
const TICK: f64 = 0.25;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Move the allocation clock forward this many ticks.
    Advance(u32),
    /// Open a window of this many ticks at the clock, estimating `k`.
    Window(u32, usize),
    /// An arrival this many ticks above the floor (often below the
    /// newest arrival, so it counts at the newest).
    Arrival(u32),
    /// An arrival this many ticks below the floor (a retry's old
    /// instant, which counts at the floor or the newest arrival).
    Late(u32),
    /// Raise the floor by this many ticks.
    Settle(u32),
    /// Open this many windows of `len` ticks at the clock, one tick
    /// apart, with no floor advance in between: the first half estimate
    /// `k`, the rest `k + 1`, so the shape changes mid-queue. A zero
    /// `len` alternates `0.0` and `-0.0`, which compare equal but differ
    /// in their bits.
    Burst(u32, u32, usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..6).prop_map(Op::Advance),
            ((0u32..12), (0usize..4)).prop_map(|(len, k)| Op::Window(len, k)),
            (0u32..16).prop_map(Op::Arrival),
            (1u32..16).prop_map(Op::Late),
            (0u32..8).prop_map(Op::Settle),
            ((1u32..40), (0u32..3), (0usize..3)).prop_map(|(n, len, k)| Op::Burst(n, len, k)),
        ],
        0..120,
    )
}

fn ticks(n: u32) -> f64 {
    f64::from(n) * TICK
}

/// The definition: every window against every arrival, as counted,
/// float sums in window order.
fn naive(windows: &[(f64, f64, usize)], arrivals: &[f64]) -> AuditOutcome {
    if windows.is_empty() {
        return AuditOutcome::default();
    }
    let (mut est, mut act, mut successes) = (0.0, 0.0, 0);
    for &(at, window, k) in windows {
        let end = (Instant::from_secs(at) + Seconds::from_secs(window)).as_secs_f64();
        let actual = arrivals.iter().filter(|&&t| t > at && t <= end).count();
        est += k as f64;
        act += actual as f64;
        successes += usize::from(k >= actual);
    }
    let n = windows.len() as f64;
    AuditOutcome {
        samples: windows.len(),
        mean_estimated: est / n,
        mean_actual: act / n,
        success_probability: successes as f64 / n,
        violations: windows.len() - successes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_matches_the_naive_count(ops in ops()) {
        let mut scorer = AuditScorer::default();
        let (mut now, mut floor) = (0.0f64, 0.0f64);
        let mut windows = Vec::new();
        let mut arrivals: Vec<f64> = Vec::new();
        // Where an arrival offered at `t` lands.
        let lands = |t: f64, floor: f64, arrivals: &[f64]| {
            arrivals.last().map_or(t, |&newest| t.max(newest)).max(floor)
        };
        for op in ops {
            match op {
                Op::Advance(n) => now += ticks(n),
                Op::Window(len, k) => {
                    scorer.open(Instant::from_secs(now), Seconds::from_secs(ticks(len)), k);
                    windows.push((now, ticks(len), k));
                }
                Op::Arrival(n) => {
                    let t = floor + ticks(n);
                    scorer.note_arrival(Instant::from_secs(t));
                    arrivals.push(lands(t, floor, &arrivals));
                }
                Op::Late(n) => {
                    let t = floor - ticks(n);
                    scorer.note_arrival(Instant::from_secs(t));
                    arrivals.push(lands(t, floor, &arrivals));
                }
                Op::Settle(n) => {
                    floor += ticks(n);
                    scorer.settle_before(Instant::from_secs(floor));
                }
                Op::Burst(count, len, k) => {
                    for i in 0..count {
                        let window = if len == 0 && i % 2 == 1 { -0.0 } else { ticks(len) };
                        let k = if i < count / 2 { k } else { k + 1 };
                        scorer.open(Instant::from_secs(now), Seconds::from_secs(window), k);
                        windows.push((now, window, k));
                        now += TICK;
                    }
                }
            }
            prop_assert!(scorer.open_windows() <= windows.len());
        }
        prop_assert_eq!(scorer.finish(), naive(&windows, &arrivals));
    }
}

#[test]
fn a_floor_at_infinity_scores_every_window_on_arrival() {
    let mut scorer = AuditScorer::default();
    scorer.note_arrival(Instant::from_secs(1.0));
    scorer.settle_before(Instant::from_secs(f64::INFINITY));
    for i in 0..1000 {
        let at = Instant::from_secs(1.0 + f64::from(i));
        scorer.open(at, Seconds::from_secs(2.0), 0);
        assert_eq!(scorer.open_windows(), 0);
    }
    let out = scorer.finish();
    assert_eq!(out.samples, 1000);
    assert_eq!(out.violations, 0);
}
