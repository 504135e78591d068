//! Scoring the `k` estimator against reality (Figs. 7 and 8).
//!
//! Every buffer allocation by an estimating scheme opens an audit window
//! `(at, at + window]` over the usage period the estimate `k_c` covers.
//! The estimation was **successful** when `k_c ≥` the number of arrivals
//! (admitted or not) inside the window — the paper's definition in §3.1.
//!
//! [`AuditScorer`] scores windows as a stream rather than keeping a log.
//! It holds the instants at which arrivals count, sorted, and the open
//! windows in allocation order. The caller declares an arrival *floor*
//! ([`AuditScorer::settle_before`]): an arrival offered later counts at
//! no instant below it. Once the floor passes a window's end, no arrival
//! still to come can land inside it, so the window is scored and dropped.
//! Memory is O(open windows + arrivals since the oldest open window), not
//! O(allocations).
//!
//! An arrival counts where it reaches the node: at its instant, clamped
//! up to the floor and to the newest arrival noted. A request a cluster
//! retries from its overflow queue carries an older instant; it counts
//! in the windows open when it is offered, which is when the node's
//! estimator records it too.
//!
//! The engine declares each `advance_to` horizon, the instant of its
//! driver's next offer, as the floor, so every driver scores the audit
//! the same way and a window waits at most one offer interval past its
//! end. An open window costs 8 bytes, its start. Its length and `k` are
//! kept run-length encoded, since consecutive allocations mostly share
//! one shape, and its end is recomputed as `at + window`, the same `f64`
//! sum an unencoded window would store.

use std::collections::VecDeque;

use vod_types::{Instant, Seconds};

/// Aggregated estimator quality over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AuditOutcome {
    /// Number of allocations scored.
    pub samples: usize,
    /// Mean `k_c` across allocations — Fig. 7a / 8a's y-axis.
    pub mean_estimated: f64,
    /// Mean *actual* additional requests per allocation window.
    pub mean_actual: f64,
    /// Fraction of allocations with `k_estimated ≥ actual` — Fig. 7b /
    /// 8b's y-axis.
    pub success_probability: f64,
    /// Allocations whose estimate fell short (`samples` minus the
    /// successes) — the absolute count behind `1 - success_probability`,
    /// written per node into the cluster bench documents.
    pub violations: usize,
}

impl AuditOutcome {
    /// Pools several runs' outcomes, weighting each run's means by its
    /// sample count (the multi-seed aggregate of Figs. 7 and 8).
    #[must_use]
    pub fn pooled<'a>(runs: impl IntoIterator<Item = &'a AuditOutcome>) -> AuditOutcome {
        let (mut est, mut act, mut succ) = (0.0, 0.0, 0.0);
        let (mut samples, mut violations) = (0usize, 0usize);
        for run in runs {
            est += run.mean_estimated * run.samples as f64;
            act += run.mean_actual * run.samples as f64;
            succ += run.success_probability * run.samples as f64;
            samples += run.samples;
            violations += run.violations;
        }
        if samples == 0 {
            return AuditOutcome::default();
        }
        AuditOutcome {
            samples,
            mean_estimated: est / samples as f64,
            mean_actual: act / samples as f64,
            success_probability: succ / samples as f64,
            violations,
        }
    }
}

/// A run of consecutive open windows with one length (bit for bit) and
/// one `k`.
#[derive(Clone, Copy, Debug)]
struct Shape {
    window: Seconds,
    k: usize,
    count: usize,
}

impl Shape {
    fn fits(&self, window: Seconds, k: usize) -> bool {
        self.k == k && self.window.as_secs_f64().to_bits() == window.as_secs_f64().to_bits()
    }
}

/// Streaming scorer of audit windows against arrival instants.
///
/// Windows must open in non-decreasing `at` order (allocation order on a
/// monotone clock). Arrivals may come in any order; each counts at
/// `max(at, floor, newest arrival noted)`.
#[derive(Clone, Debug, Default)]
pub struct AuditScorer {
    /// Arrival instants as counted, ascending. Instants at or below the
    /// oldest open window's start are dropped once no window can count
    /// them.
    arrivals: VecDeque<Instant>,
    /// Open windows' starts, in allocation order.
    starts: VecDeque<Instant>,
    /// Open windows' lengths and `k`, run-length encoded in the same
    /// order: the counts sum to `starts.len()`.
    shapes: VecDeque<Shape>,
    /// Arrivals still to come count at no instant below this (the clock
    /// starts at zero).
    floor: Instant,
    samples: usize,
    /// Integer totals: exact, and equal to the float sums of the same
    /// terms while they stay below 2⁵³.
    estimated: u64,
    actual: u64,
    successes: usize,
}

impl AuditScorer {
    /// Records one arrival where it reaches the node: at `at`, clamped
    /// up to the declared floor and to the newest arrival noted. An old
    /// instant (a retry from a cluster's overflow queue) therefore counts
    /// in the windows open when the request is offered, never in windows
    /// already scored, and the arrivals stay sorted.
    pub fn note_arrival(&mut self, at: Instant) {
        let newest = self.arrivals.back().copied().unwrap_or(self.floor);
        self.arrivals.push_back(at.max(newest).max(self.floor));
    }

    /// Opens the window `(at, at + window]` for an allocation that
    /// estimated `k` further arrivals. A window already below the floor
    /// is scored at once and never queued.
    pub fn open(&mut self, at: Instant, window: Seconds, k: usize) {
        debug_assert!(
            self.starts.back().copied() <= Some(at),
            "audit windows must open in allocation order"
        );
        let end = at + window;
        if end < self.floor {
            if self.starts.is_empty() {
                self.prune_through(at);
            }
            // Only arrivals after `at` can count; on a monotone clock
            // there are none or few, so walk in from the newest.
            let actual = self
                .arrivals
                .iter()
                .rev()
                .take_while(|&&x| x > at)
                .filter(|&&x| x <= end)
                .count();
            self.score(k, actual);
        } else {
            self.starts.push_back(at);
            match self.shapes.back_mut() {
                Some(run) if run.fits(window, k) => run.count += 1,
                _ => self.shapes.push_back(Shape {
                    window,
                    k,
                    count: 1,
                }),
            }
        }
    }

    /// Declares that no later arrival counts below `floor`, and scores
    /// every window at the head of the queue that ends below it. A floor
    /// below the current one is ignored.
    pub fn settle_before(&mut self, floor: Instant) {
        if floor <= self.floor {
            return;
        }
        self.floor = floor;
        while let Some(&Shape { window, k, count }) = self.shapes.front() {
            let mut closed = 0;
            while closed < count {
                let at = self.starts[0];
                let end = at + window;
                if end >= floor {
                    break;
                }
                self.starts.pop_front();
                closed += 1;
                // Windows close in start order, so arrivals up to this
                // start count for no open or future window.
                self.prune_through(at);
                let actual = self.arrivals.iter().take_while(|&&x| x <= end).count();
                self.score(k, actual);
            }
            if closed < count {
                self.shapes[0].count -= closed;
                return;
            }
            self.shapes.pop_front();
        }
    }

    /// Windows still waiting for the floor to pass their end.
    #[must_use]
    pub fn open_windows(&self) -> usize {
        self.starts.len()
    }

    /// Scores every window still open — no further arrivals come — and
    /// returns the run's outcome.
    #[must_use]
    pub fn finish(mut self) -> AuditOutcome {
        self.settle_before(Instant::from_secs(f64::INFINITY));
        if self.samples == 0 {
            return AuditOutcome::default();
        }
        let n = self.samples as f64;
        AuditOutcome {
            samples: self.samples,
            mean_estimated: self.estimated as f64 / n,
            mean_actual: self.actual as f64 / n,
            success_probability: self.successes as f64 / n,
            violations: self.samples - self.successes,
        }
    }

    /// Drops arrivals at or before `at`.
    fn prune_through(&mut self, at: Instant) {
        while self.arrivals.front().is_some_and(|&x| x <= at) {
            self.arrivals.pop_front();
        }
    }

    fn score(&mut self, k: usize, actual: usize) {
        self.samples += 1;
        self.estimated += k as u64;
        self.actual += actual as u64;
        self.successes += usize::from(k >= actual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds every arrival, then every `(at, window, k)` window, with no
    /// floor declared, and scores at the end.
    fn score(windows: &[(f64, f64, usize)], arrivals: &[f64]) -> AuditOutcome {
        let mut s = AuditScorer::default();
        for &t in arrivals {
            s.note_arrival(Instant::from_secs(t));
        }
        for &(at, window, k) in windows {
            s.open(Instant::from_secs(at), Seconds::from_secs(window), k);
        }
        s.finish()
    }

    #[test]
    fn empty_audits_give_defaults() {
        assert_eq!(score(&[], &[1.0, 2.0]), AuditOutcome::default());
    }

    #[test]
    fn counts_arrivals_inside_window() {
        // Window (10, 20]: arrivals at 12, 15, 20 count; 10 and 21 do not.
        let out = score(&[(10.0, 10.0, 3)], &[5.0, 10.0, 12.0, 15.0, 20.0, 21.0]);
        assert_eq!(out.samples, 1);
        assert!((out.mean_actual - 3.0).abs() < 1e-12);
        assert!((out.success_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn underestimates_are_failures() {
        let out = score(&[(10.0, 5.0, 2)], &[11.0, 12.0, 13.0]);
        assert_eq!(out.success_probability, 0.0);
        assert!((out.mean_estimated - 2.0).abs() < 1e-12);
        assert!((out.mean_actual - 3.0).abs() < 1e-12);
        assert_eq!(out.violations, 1);
    }

    #[test]
    fn mixed_outcomes_average() {
        let windows = [
            (10.0, 5.0, 2), // actual 2: success
            (30.0, 5.0, 0), // actual 1: failure
        ];
        let out = score(&windows, &[11.0, 12.0, 31.0]);
        assert!((out.success_probability - 0.5).abs() < 1e-12);
        assert!((out.mean_estimated - 1.0).abs() < 1e-12);
        assert!((out.mean_actual - 1.5).abs() < 1e-12);
        assert_eq!(out.violations, 1);
    }

    #[test]
    fn arrival_exactly_at_allocation_instant_is_excluded() {
        // The window is (at, at + window]: the arrival that *triggered*
        // the allocation (t == at) must not count against its own
        // estimate — only strictly-later arrivals do.
        let out = score(&[(10.0, 5.0, 0)], &[10.0]);
        assert_eq!(out.mean_actual, 0.0);
        assert_eq!(out.success_probability, 1.0);
    }

    #[test]
    fn arrival_exactly_at_window_end_is_included() {
        // The window end is inclusive: t == at + window still counts.
        let out = score(&[(10.0, 5.0, 0)], &[15.0]);
        assert!((out.mean_actual - 1.0).abs() < 1e-12);
        assert_eq!(out.success_probability, 0.0);
        // Just past the end does not.
        let out = score(&[(10.0, 5.0, 0)], &[15.000001]);
        assert_eq!(out.mean_actual, 0.0);
        assert_eq!(out.success_probability, 1.0);
    }

    #[test]
    fn no_arrivals_means_every_estimate_succeeds() {
        let out = score(&[(0.0, 100.0, 0), (5.0, 100.0, 3)], &[]);
        assert_eq!(out.success_probability, 1.0);
        assert_eq!(out.mean_actual, 0.0);
    }

    #[test]
    fn a_passing_floor_closes_windows_and_late_arrivals_still_count() {
        let mut s = AuditScorer::default();
        s.note_arrival(Instant::from_secs(1.0));
        s.open(Instant::from_secs(1.0), Seconds::from_secs(4.0), 0); // (1, 5]
        s.open(Instant::from_secs(2.0), Seconds::from_secs(1.0), 1); // (2, 3]
        s.settle_before(Instant::from_secs(3.0));
        assert_eq!(s.open_windows(), 2, "the floor has not passed (1, 5]");
        // A retry offers an old instant, below the newest arrival: it
        // counts where it lands, at 4, so inside (1, 5] but not (2, 3].
        s.note_arrival(Instant::from_secs(4.0));
        s.note_arrival(Instant::from_secs(2.5));
        s.settle_before(Instant::from_secs(7.0));
        assert_eq!(s.open_windows(), 0);
        // A window wholly below the floor scores without queueing.
        s.open(Instant::from_secs(6.0), Seconds::from_secs(0.5), 0);
        assert_eq!(s.open_windows(), 0);
        let out = s.finish();
        assert_eq!(out.samples, 3);
        assert_eq!(out.violations, 1, "(1, 5] saw two arrivals against k = 0");
        assert_eq!(out.mean_actual, 2.0 / 3.0);
    }

    #[test]
    fn same_shape_windows_behind_a_held_floor_share_one_run() {
        let mut s = AuditScorer::default();
        s.settle_before(Instant::from_secs(1.0));
        for i in 0..100_000 {
            let at = Instant::from_secs(1.0 + f64::from(i) * 0.01);
            s.open(at, Seconds::from_secs(2.0), 3);
        }
        assert_eq!(s.open_windows(), 100_000);
        assert_eq!(s.shapes.len(), 1);
        // A new length or a new `k` starts a run; so does `-0.0` after
        // `0.0`, which compares equal but has other bits.
        let at = Instant::from_secs(1_001.0);
        for (window, k) in [(2.5, 3), (2.5, 4), (0.0, 4), (-0.0, 4), (-0.0, 4)] {
            s.open(at, Seconds::from_secs(window), k);
        }
        assert_eq!(s.shapes.len(), 5);
        let out = s.finish();
        assert_eq!(out.samples, 100_005);
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn a_lower_floor_is_ignored() {
        let mut s = AuditScorer::default();
        s.settle_before(Instant::from_secs(5.0));
        s.settle_before(Instant::from_secs(2.0));
        s.note_arrival(Instant::from_secs(5.0));
        assert_eq!(s.finish(), AuditOutcome::default());
    }

    #[test]
    fn an_arrival_below_the_floor_counts_at_the_floor() {
        let mut s = AuditScorer::default();
        s.open(Instant::from_secs(1.0), Seconds::from_secs(1.0), 0); // (1, 2]
        s.open(Instant::from_secs(1.0), Seconds::from_secs(3.0), 0); // (1, 4]
        s.settle_before(Instant::from_secs(3.0));
        assert_eq!(s.open_windows(), 1, "(1, 2] is already scored");
        // Offered at 3, the floor: inside (1, 4] only.
        s.note_arrival(Instant::from_secs(1.5));
        let out = s.finish();
        assert_eq!(out.samples, 2);
        assert_eq!(out.violations, 1);
        assert_eq!(out.mean_actual, 0.5);
    }

    #[test]
    fn pooling_weights_means_by_samples() {
        let a = score(&[(0.0, 1.0, 2)], &[0.5]);
        let b = score(&[(0.0, 1.0, 0), (0.0, 1.0, 0), (0.0, 1.0, 0)], &[0.5]);
        let p = AuditOutcome::pooled([&a, &b]);
        assert_eq!(p.samples, 4);
        assert_eq!(p.violations, 3);
        assert_eq!(p.mean_estimated, 0.5);
        assert_eq!(p.mean_actual, 1.0);
        assert_eq!(p.success_probability, 0.25);
        assert_eq!(AuditOutcome::pooled([]), AuditOutcome::default());
    }
}
