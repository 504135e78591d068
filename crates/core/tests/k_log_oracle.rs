//! Oracle test for the `k_log` estimator: `ArrivalLog` keeps span minima
//! up to date as arrivals are recorded and pruned, and every answer must
//! equal a naive O(len²) count over the same retained arrivals.
//!
//! Arrivals step by a few fixed gaps, so exact duplicates and exact ties
//! between window widths are common; negative gaps exercise the clamp of
//! out-of-order records. Queries advance `now` past a short `T_log`, so
//! prunes pop the anchors of cached minima. Periods come from a small set
//! that includes exact window widths, `0`, a negative value, NaN and very
//! large values. Successive queries often repeat a period, so an answer
//! the log reuses must be dropped by every record and every prune that
//! pops an arrival.

use proptest::prelude::*;
use vod_core::ArrivalLog;
use vod_types::{Instant, Seconds};

const T_LOGS: [f64; 3] = [3.0, 8.0, 30.0];
const GAPS: [f64; 8] = [0.0, 0.0, 0.1, 0.5, 1.0, 1.0, 2.5, -1.0];
const ADVANCES: [f64; 5] = [0.0, 0.0, 1.0, 4.0, 15.0];
const PERIODS: [f64; 12] = [
    0.0,
    -1.0,
    0.1,
    0.5,
    1.0,
    1.5,
    2.0,
    3.0,
    5.0,
    1e12,
    f64::INFINITY,
    f64::NAN,
];

/// The reference model: the retained arrivals, pruned and counted the
/// obvious way.
struct Naive {
    t_log: Seconds,
    times: Vec<Instant>,
}

impl Naive {
    fn record(&mut self, at: Instant) {
        let at = self.times.last().map_or(at, |&last| at.max(last));
        self.times.push(at);
    }

    /// Most arrivals `t[j]` with `t[j] − t[i] < period` over any anchor
    /// `t[i]`, after dropping arrivals before `now − T_log`.
    fn k_log(&mut self, now: Instant, period: Seconds) -> usize {
        let horizon = now - self.t_log;
        self.times.retain(|&t| t >= horizon);
        (0..self.times.len())
            .map(|i| {
                self.times[i..]
                    .iter()
                    .filter(|&&t| t - self.times[i] < period)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Record an arrival `GAPS[g]` after the latest one.
    Record(usize),
    /// Query at `ADVANCES[a]` after the latest arrival with `PERIODS[p]`.
    Query(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..GAPS.len()).prop_map(Op::Record),
        (0..ADVANCES.len(), 0..PERIODS.len()).prop_map(|(a, p)| Op::Query(a, p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn k_log_matches_naive_count(
        t_log in 0..T_LOGS.len(),
        ops in prop::collection::vec(op(), 1..300),
    ) {
        let t_log = Seconds::from_secs(T_LOGS[t_log]);
        let mut log = ArrivalLog::new(t_log);
        let mut naive = Naive { t_log, times: Vec::new() };
        let mut clock = 0.0f64;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Record(g) => {
                    clock += GAPS[g];
                    log.record(Instant::from_secs(clock));
                    naive.record(Instant::from_secs(clock));
                }
                Op::Query(a, p) => {
                    let now = Instant::from_secs(clock + ADVANCES[a]);
                    let period = Seconds::from_secs(PERIODS[p]);
                    let want = naive.k_log(now, period);
                    prop_assert_eq!(log.k_log(now, period), want, "step {} period {:?}", step, period);
                    prop_assert_eq!(log.len(), naive.times.len(), "step {}", step);
                }
            }
        }
    }
}
