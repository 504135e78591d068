//! Measurement containers produced by the simulators.

use vod_types::{Bits, Instant, Seconds};

use crate::audit::AuditOutcome;

/// One admitted request's measured initial latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IlSample {
    /// Arrival time.
    pub arrived: Instant,
    /// Number of streams in service when the request arrived — the x-axis
    /// of Fig. 11.
    pub n_at_arrival: usize,
    /// Initial latency: arrival → first data in memory (includes any
    /// deferral by admission control, footnote 10 of the paper).
    pub latency: Seconds,
}

/// Everything one buffer-level run measures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiskRunStats {
    /// Per-admitted-request latency samples.
    pub il_samples: Vec<IlSample>,
    /// The estimator audit: every allocation's `k_c` scored against the
    /// arrivals in its usage window (default for non-estimating schemes).
    pub audit: AuditOutcome,
    /// Concurrency over time: `(t, n)` at every change, in time order.
    pub concurrency: Vec<(Instant, usize)>,
    /// Requests admitted into service.
    pub admitted: u64,
    /// Requests rejected (disk at `N`, or memory reservation failed).
    pub rejected: u64,
    /// Admission attempts deferred by the inertia assumptions.
    pub deferrals: u64,
    /// Buffer services performed (disk reads).
    pub services: u64,
    /// Service cycles (periods) completed.
    pub cycles: u64,
    /// Underflow events (must be 0 for the static and dynamic schemes).
    pub underflows: u64,
    /// Total data deficit across underflows.
    pub underflow_deficit: Bits,
    /// Peak pool occupancy.
    pub peak_memory: Bits,
    /// Wall-clock end of the run (last event processed).
    pub finished_at: Instant,
}

impl DiskRunStats {
    /// Maximum concurrency reached.
    #[must_use]
    pub fn max_concurrent(&self) -> usize {
        self.concurrency.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    /// Concurrency at time `t` (step function; 0 before the first event).
    #[must_use]
    pub fn concurrency_at(&self, t: Instant) -> usize {
        match self
            .concurrency
            .partition_point(|&(at, _)| at <= t)
            .checked_sub(1)
        {
            Some(idx) => self.concurrency[idx].1,
            None => 0,
        }
    }

    /// Mean initial latency over all samples.
    #[must_use]
    pub fn mean_latency(&self) -> Option<Seconds> {
        if self.il_samples.is_empty() {
            return None;
        }
        let total: f64 = self
            .il_samples
            .iter()
            .map(|s| s.latency.as_secs_f64())
            .sum();
        Some(Seconds::from_secs(total / self.il_samples.len() as f64))
    }

    /// Mean initial latency bucketed by the number of streams in service
    /// at arrival: index `n` holds `(count, mean)` — the Fig. 11 series.
    #[must_use]
    pub fn latency_by_load(&self, max_n: usize) -> Vec<(usize, Option<Seconds>)> {
        let mut sums = vec![(0usize, 0.0f64); max_n + 1];
        for s in &self.il_samples {
            let n = s.n_at_arrival.min(max_n);
            sums[n].0 += 1;
            sums[n].1 += s.latency.as_secs_f64();
        }
        sums.iter()
            .map(|&(count, total)| {
                if count == 0 {
                    (count, None)
                } else {
                    (count, Some(Seconds::from_secs(total / count as f64)))
                }
            })
            .collect()
    }

    /// The `p`-th latency percentile (`0.0 ..= 1.0`), nearest-rank.
    ///
    /// Nearest-rank uses `⌈p·len⌉` clamped to `[1, len]`; the lower clamp
    /// means `p = 0.0` returns the *minimum* sample (rank 1), not nothing.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<Seconds> {
        if self.il_samples.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let mut latencies: Vec<f64> = self
            .il_samples
            .iter()
            .map(|s| s.latency.as_secs_f64())
            .collect();
        // `total_cmp` gives a total order (NaN sorts high) — a comparator
        // falling back to `Ordering::Equal` is not transitive and can
        // leave the vector unsorted.
        latencies.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        Some(Seconds::from_secs(latencies[rank - 1]))
    }

    /// Merges another run's samples into this one (multi-seed averaging).
    /// `audit` is left alone: per-run audits pool over all runs at once
    /// ([`AuditOutcome::pooled`]), which a pairwise merge cannot repeat
    /// bit for bit.
    pub fn absorb(&mut self, other: DiskRunStats) {
        self.il_samples.extend(other.il_samples);
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.deferrals += other.deferrals;
        self.services += other.services;
        self.cycles += other.cycles;
        self.underflows += other.underflows;
        self.underflow_deficit += other.underflow_deficit;
        self.peak_memory = self.peak_memory.max(other.peak_memory);
        self.finished_at = self.finished_at.max(other.finished_at);
        // Concurrency traces from different seeds are not mergeable
        // point-wise; keep the first run's trace.
        if self.concurrency.is_empty() {
            self.concurrency = other.concurrency;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, secs: f64) -> IlSample {
        IlSample {
            arrived: Instant::ZERO,
            n_at_arrival: n,
            latency: Seconds::from_secs(secs),
        }
    }

    #[test]
    fn mean_latency_averages() {
        let stats = DiskRunStats {
            il_samples: vec![sample(1, 1.0), sample(2, 3.0)],
            ..Default::default()
        };
        assert_eq!(stats.mean_latency(), Some(Seconds::from_secs(2.0)));
        assert_eq!(DiskRunStats::default().mean_latency(), None);
    }

    #[test]
    fn latency_by_load_buckets_correctly() {
        let stats = DiskRunStats {
            il_samples: vec![
                sample(1, 1.0),
                sample(1, 3.0),
                sample(3, 5.0),
                sample(99, 7.0),
            ],
            ..Default::default()
        };
        let by_load = stats.latency_by_load(4);
        assert_eq!(by_load[1], (2, Some(Seconds::from_secs(2.0))));
        assert_eq!(by_load[2], (0, None));
        assert_eq!(by_load[3], (1, Some(Seconds::from_secs(5.0))));
        // Out-of-range buckets clamp to max_n.
        assert_eq!(by_load[4], (1, Some(Seconds::from_secs(7.0))));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let stats = DiskRunStats {
            il_samples: (1..=10).map(|i| sample(1, f64::from(i))).collect(),
            ..Default::default()
        };
        assert_eq!(stats.latency_percentile(0.5), Some(Seconds::from_secs(5.0)));
        assert_eq!(stats.latency_percentile(0.9), Some(Seconds::from_secs(9.0)));
        assert_eq!(
            stats.latency_percentile(1.0),
            Some(Seconds::from_secs(10.0))
        );
        // Tiny p clamps to the first sample; out-of-range is None.
        assert_eq!(stats.latency_percentile(0.0), Some(Seconds::from_secs(1.0)));
        assert_eq!(stats.latency_percentile(1.5), None);
        assert_eq!(DiskRunStats::default().latency_percentile(0.5), None);
    }

    #[test]
    fn concurrency_lookup_is_a_step_function() {
        let stats = DiskRunStats {
            concurrency: vec![
                (Instant::from_secs(10.0), 1),
                (Instant::from_secs(20.0), 2),
                (Instant::from_secs(30.0), 1),
            ],
            ..Default::default()
        };
        assert_eq!(stats.concurrency_at(Instant::from_secs(5.0)), 0);
        assert_eq!(stats.concurrency_at(Instant::from_secs(10.0)), 1);
        assert_eq!(stats.concurrency_at(Instant::from_secs(25.0)), 2);
        assert_eq!(stats.concurrency_at(Instant::from_secs(99.0)), 1);
        assert_eq!(stats.max_concurrent(), 2);
    }

    #[test]
    fn absorb_accumulates_counters() {
        let mut a = DiskRunStats {
            admitted: 2,
            rejected: 1,
            peak_memory: Bits::new(100.0),
            il_samples: vec![sample(1, 1.0)],
            ..Default::default()
        };
        let b = DiskRunStats {
            admitted: 3,
            underflows: 2,
            peak_memory: Bits::new(300.0),
            il_samples: vec![sample(2, 2.0)],
            concurrency: vec![(Instant::ZERO, 1)],
            ..Default::default()
        };
        a.absorb(b);
        assert_eq!(a.admitted, 5);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.underflows, 2);
        assert_eq!(a.peak_memory, Bits::new(300.0));
        assert_eq!(a.il_samples.len(), 2);
        assert_eq!(a.concurrency.len(), 1);
    }
}
