//! Estimating the number of additional requests (`k_log`, Fig. 5 / Table 1).
//!
//! *Additional requests* at a buffer-allocation time are the user requests
//! that arrive within one service period from that time (Fig. 2). The
//! dynamic scheme estimates how many to expect from recent history:
//! `k_log` is the **maximum** number of arrivals observed in any
//! service-period-long window during the last `T_log` (Table 1), and the
//! estimate used for sizing is `k_log + α` (clamped by Assumption 2 at the
//! admission controller).
//!
//! §5.1 studies the choice of `T_log` (Fig. 7): the paper settles on
//! 40 minutes for Round-Robin and 20 minutes for Sweep\*/GSS\*.
//!
//! # How `k_log` is answered
//!
//! Let `t[0] ≤ … ≤ t[len−1]` be the retained arrivals and
//! `D_m = min_i (t[i+m−1] − t[i])` the narrowest span of `m` consecutive
//! ones, so `D_1 = 0`. `D_m` never decreases as `m` grows, hence
//! `k_log(P) = max{m : D_m < P}`. That is the same `f64` subtraction and
//! the same `<` as a sweep over the windows anchored at each arrival, so
//! the answer is the sweep's bit for bit.
//!
//! [`ArrivalLog`] keeps each `D_m` a query has needed, together with the
//! latest anchor `i` that attains it, and keeps them exact as the log
//! changes. The cached spans sit in one dense list, so the work below
//! scales with `c`, the number of cached widths, and not with the widest
//! `m` ever asked for (the cached widths are sparse: about 5 of 17 on
//! the Fig. 14 traces):
//!
//! * `record` is O(c): the one new window of each cached width ends at
//!   the new arrival, one subtraction each.
//! * A prune that pops `p` arrivals is O(p + c): it drops the `D_m` whose
//!   anchor it popped, and the widths the shorter log no longer holds.
//!   No later anchor attains those, so they must be recomputed; every
//!   other `D_m` still stands.
//! * `k_log` walks from the previous answer to the new one, O(1) per
//!   step. A `D_m` the walk needs but has not cached costs one O(len)
//!   pass. A query whose period is bit-equal to the previous query's,
//!   with nothing recorded and nothing popped since, returns the previous
//!   answer without walking: the engine asks once per service, almost
//!   always of an unchanged log.

use vod_types::{Instant, Seconds};

/// A sliding log of request arrival times, answering "what is the largest
/// number of arrivals in any window of length `period` within the last
/// `T_log`?".
///
/// Invariant: every cached span of `m` arrivals is `D_m` over the retained
/// arrivals, and its anchor is retained (see the module docs).
#[derive(Clone, Debug)]
pub struct ArrivalLog {
    t_log: Seconds,
    /// The retained arrivals are `times[start..]`; prunes advance `start`
    /// and drop the popped prefix once it is half the vector.
    times: Vec<Instant>,
    start: usize,
    /// Sequence number of `times[start]`: how many arrivals prunes popped.
    head: u64,
    /// `cached[slots[m − 1] − 1]` is `D_m`; a slot of 0 means `D_m` is not
    /// cached until a query needs it.
    slots: Vec<u32>,
    /// The cached spans, in no order.
    cached: Vec<Span>,
    /// The previous answer, where the next query's walk starts.
    last_k: usize,
    /// The previous query's period (as bits) and answer, while the
    /// retained arrivals are unchanged; `record` and a prune that pops
    /// clear it.
    answered: Option<(u64, usize)>,
}

/// The narrowest span of `m` consecutive retained arrivals.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// How many consecutive arrivals the span covers.
    m: usize,
    width: Seconds,
    /// Sequence number of the first arrival of the latest window that
    /// is this narrow.
    anchor: u64,
}

impl ArrivalLog {
    /// Creates a log with retention horizon `t_log`.
    #[must_use]
    pub fn new(t_log: Seconds) -> Self {
        ArrivalLog {
            t_log,
            times: Vec::new(),
            start: 0,
            head: 0,
            slots: Vec::new(),
            cached: Vec::new(),
            last_k: 0,
            answered: None,
        }
    }

    /// The retention horizon `T_log`.
    #[must_use]
    pub fn t_log(&self) -> Seconds {
        self.t_log
    }

    /// Records an arrival. Arrivals must be recorded in nondecreasing
    /// time order (they come from a single clock); out-of-order records
    /// are clamped up to maintain the invariant.
    pub fn record(&mut self, at: Instant) {
        let at = match self.times.last() {
            Some(&last) if at < last => last,
            _ => at,
        };
        self.times.push(at);
        self.answered = None;
        let retained = &self.times[self.start..];
        let len = retained.len();
        for span in &mut self.cached {
            // The one new window of `m` arrivals ends at `at`; `<=`
            // keeps the latest anchor on a tie.
            let i = len - span.m;
            let width = at - retained[i];
            if width <= span.width {
                span.width = width;
                span.anchor = self.head + i as u64;
            }
        }
    }

    /// `k_log`: the maximum number of arrivals in any window of length
    /// `period` that starts within the retained horizon `[now − T_log,
    /// now]`. Also prunes entries older than the horizon.
    ///
    /// Windows are anchored at arrivals and half-open `[aᵢ, aᵢ + T)`, so
    /// the anchoring arrival counts itself: the estimate is one higher
    /// than a strict reading of the paper's `(t, t + T]` definition of
    /// additional requests. This is deliberate — it errs conservative
    /// (slightly larger buffers, never smaller), and the workload
    /// calibration in EXPERIMENTS.md is done with this convention.
    ///
    /// Returns 0 when no arrivals are retained or `period` is
    /// non-positive or NaN.
    pub fn k_log(&mut self, now: Instant, period: Seconds) -> usize {
        self.prune(now);
        let bits = period.as_secs_f64().to_bits();
        if let Some((_, k)) = self.answered.filter(|&(asked, _)| asked == bits) {
            return k;
        }
        let k = self.walk(period);
        self.answered = Some((bits, k));
        k
    }

    /// `max{m : D_m < period}` over the retained arrivals, walked to from
    /// the last answer.
    fn walk(&mut self, period: Seconds) -> usize {
        let len = self.len();
        if len == 0 || period <= Seconds::ZERO {
            return 0;
        }
        let mut k = self.last_k.clamp(1, len);
        if self.fits(k, period) {
            while k < len && self.fits(k + 1, period) {
                k += 1;
            }
        } else {
            k -= 1;
            while k > 0 && !self.fits(k, period) {
                k -= 1;
            }
        }
        self.last_k = k;
        k
    }

    /// Number of retained arrivals (after the last prune).
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len() - self.start
    }

    /// True when no arrivals are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether some `m` consecutive retained arrivals span less than
    /// `period`: `D_m < period`.
    fn fits(&mut self, m: usize, period: Seconds) -> bool {
        self.span(m) < period
    }

    /// `D_m` for `1 ≤ m ≤ len`, from the cache or by one pass over the
    /// `len − m + 1` windows of `m` arrivals.
    fn span(&mut self, m: usize) -> Seconds {
        if let Some(&slot) = self.slots.get(m - 1) {
            if slot != 0 {
                return self.cached[slot as usize - 1].width;
            }
        }
        let times = &self.times[self.start..];
        let mut best = Span {
            m,
            width: times[m - 1] - times[0],
            anchor: 0,
        };
        for (i, (&first, &last)) in times.iter().zip(&times[m - 1..]).enumerate().skip(1) {
            let width = last - first;
            if width <= best.width {
                best.width = width;
                best.anchor = i as u64;
            }
        }
        best.anchor += self.head;
        if self.slots.len() < m {
            self.slots.resize(m, 0);
        }
        self.cached.push(best);
        self.slots[m - 1] = self.cached.len() as u32;
        best.width
    }

    fn prune(&mut self, now: Instant) {
        let horizon = now - self.t_log;
        let popped_from = self.start;
        while self
            .times
            .get(self.start)
            .is_some_and(|&front| front < horizon)
        {
            self.start += 1;
        }
        if self.start != popped_from {
            self.answered = None;
            self.head += (self.start - popped_from) as u64;
            if 2 * self.start >= self.times.len() {
                self.times.drain(..self.start);
                self.start = 0;
            }
            // A popped anchor was the latest window that narrow, so no
            // retained window attains its width any more. Widths longer
            // than the log have no window left at all.
            let (len, head) = (self.len(), self.head);
            let mut kept = 0;
            for p in 0..self.cached.len() {
                let span = self.cached[p];
                if span.m <= len && span.anchor >= head {
                    self.cached[kept] = span;
                    kept += 1;
                    self.slots[span.m - 1] = kept as u32;
                } else {
                    self.slots[span.m - 1] = 0;
                }
            }
            self.cached.truncate(kept);
            self.slots.truncate(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> Instant {
        Instant::from_secs(secs)
    }

    fn log_with(arrivals: &[f64], t_log_min: f64) -> ArrivalLog {
        let mut log = ArrivalLog::new(Seconds::from_minutes(t_log_min));
        for &a in arrivals {
            log.record(t(a));
        }
        log
    }

    #[test]
    fn empty_log_estimates_zero() {
        let mut log = ArrivalLog::new(Seconds::from_minutes(40.0));
        assert_eq!(log.k_log(t(100.0), Seconds::from_secs(10.0)), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn counts_burst_within_one_period() {
        // 3 arrivals within 5 s, then a lone one much later.
        let mut log = log_with(&[10.0, 12.0, 14.0, 200.0], 40.0);
        assert_eq!(log.k_log(t(210.0), Seconds::from_secs(10.0)), 3);
    }

    #[test]
    fn window_is_half_open() {
        // Arrivals exactly `period` apart are in different windows.
        let mut log = log_with(&[0.0, 10.0, 20.0], 40.0);
        assert_eq!(log.k_log(t(25.0), Seconds::from_secs(10.0)), 1);
        assert_eq!(log.k_log(t(25.0), Seconds::from_secs(10.1)), 2);
    }

    #[test]
    fn prunes_beyond_t_log() {
        let mut log = log_with(&[0.0, 1.0, 2.0], 1.0); // T_log = 1 min
                                                       // At t = 100 s, everything is older than 60 s and pruned.
        assert_eq!(log.k_log(t(100.0), Seconds::from_secs(10.0)), 0);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn longer_t_log_retains_bigger_bursts() {
        // A big burst 30 min ago: visible with T_log = 40 min, invisible
        // with T_log = 10 min. This is the Fig. 7 trade-off.
        let burst = [0.0, 1.0, 2.0, 3.0, 4.0];
        let now = t(30.0 * 60.0);
        let period = Seconds::from_secs(30.0);

        let mut long = log_with(&burst, 40.0);
        long.record(now - Seconds::from_secs(1.0));
        assert_eq!(long.k_log(now, period), 5);

        let mut short = log_with(&burst, 10.0);
        short.record(now - Seconds::from_secs(1.0));
        assert_eq!(short.k_log(now, period), 1);
    }

    #[test]
    fn longer_period_never_decreases_k_log() {
        let mut log = log_with(&[3.0, 9.0, 14.0, 15.0, 33.0, 50.0], 40.0);
        let now = t(60.0);
        let mut prev = 0;
        for p in 1..=60 {
            let k = log.k_log(now, Seconds::from_secs(f64::from(p)));
            assert!(k >= prev, "k_log not monotone in period at {p}s");
            prev = k;
        }
        assert_eq!(prev, 6);
    }

    #[test]
    fn out_of_order_records_are_clamped() {
        let mut log = ArrivalLog::new(Seconds::from_minutes(40.0));
        log.record(t(10.0));
        log.record(t(5.0)); // clamped to 10.0
        assert_eq!(log.k_log(t(11.0), Seconds::from_secs(1.0)), 2);
    }
}
