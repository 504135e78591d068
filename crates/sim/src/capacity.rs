//! The admission-level, multi-disk capacity simulator (Fig. 14, Table 5).
//!
//! In the capacity experiments the only cross-disk interaction is the
//! **shared memory pool**: a request for disk `d` is admitted when `d`
//! still has stream slots (`n_d < N`) *and* the whole server's minimum
//! memory requirement — Theorems 2–4 summed over disks, with disk `d` at
//! `n_d + 1` — fits in the configured memory. This is exactly the
//! reservation the Fig. 13 analysis evaluates; running it against a
//! Poisson/Zipf trace adds the stochastic load imbalance the paper's
//! Fig. 14 measures.
//!
//! # What a replay computes
//!
//! Every arrival and every departure re-prices one disk at some load
//! `(n, k)`. The reservation (Theorems 2–4) and the usage period
//! `(n + k)·(DL(n) + BS_k(n)/TR)` that `k_log` counts over are pure
//! functions of `(n, k)`, so [`CapacitySim::run`] keeps each in a table
//! with a cell per `n ≤ N` and `k ≤ N + 1`, filled on first use and
//! dropped with the run: a cell holds the function's own result, bit for
//! bit. The static schemes size every buffer for `N` and never estimate
//! `k`, so their replay records no arrivals. Pending departures sit in a
//! min-heap keyed by the departure instant's order-preserving bit
//! pattern, which orders them, ties included, exactly as comparing the
//! instants does.

use std::collections::BinaryHeap;

use vod_core::scheme::Sizer;
use vod_core::{memory, ArrivalLog, SchemeKind, SystemParams};
use vod_obs::{Event, EventKind, Obs, RejectReason, TraceId};
use vod_types::{Bits, ConfigError, DiskId, Instant, Seconds};
use vod_workload::Workload;

/// Configuration of one capacity run.
#[derive(Clone, Debug)]
pub struct CapacityConfig {
    /// Per-disk parameters (all disks identical).
    pub params: SystemParams,
    /// The allocation scheme under test.
    pub scheme: SchemeKind,
    /// Number of disks (10 in the paper's Figs. 13–14).
    pub disks: usize,
    /// Total buffer memory shared by all disks.
    pub total_memory: Bits,
    /// `T_log` of the estimating schemes.
    pub t_log: Seconds,
}

/// What one capacity run measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CapacityResult {
    /// Peak number of concurrently serviced streams — Fig. 14's y-axis.
    pub max_concurrent: usize,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected (no stream slot or no memory).
    pub rejected: u64,
    /// Peak total memory reservation.
    pub peak_reserved: Bits,
    /// Per-disk peak stream counts.
    pub per_disk_peak: Vec<usize>,
}

/// A pending departure, ordered for a min-heap on its instant.
///
/// `key` is the instant's [`order_key`], so the heap compares integers in
/// exactly the order the instants compare. Equality compares what the
/// order compares: two departures at one instant are equal whatever
/// their disks, and the heap pops them in its own fixed order.
#[derive(Clone, Copy, Debug)]
struct Departure {
    key: u64,
    disk: DiskId,
}

impl PartialEq for Departure {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Departure {}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on time.
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An instant's order-preserving bit pattern: `order_key(a) < order_key(b)`
/// exactly when `a < b`, and the keys are equal exactly when `a == b`, for
/// every instant that is not NaN. Adding `+0.0` turns `-0.0` into `+0.0`,
/// which `==` already treats as equal, and leaves every other value as it
/// is; the rest is [`f64::total_cmp`]'s transform, moved to unsigned.
fn order_key(at: Instant) -> u64 {
    let bits = (at.as_secs_f64() + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The instant whose [`order_key`] is `key`.
fn key_instant(key: u64) -> Instant {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    Instant::from_secs(f64::from_bits(bits))
}

/// A lazily filled table of one pure function of `(n, k)`, local to a
/// run, for `n ≤ N`. Every `k` the simulator passes is at most `N`,
/// except the `α` that seeds each disk's `k_prev`; when `α > N` it is the
/// only such value, so the spare last column holds it.
struct Memo<T> {
    cols: usize,
    cells: Vec<Option<T>>,
}

impl<T: Copy> Memo<T> {
    fn new(big_n: usize) -> Self {
        Memo {
            cols: big_n + 2,
            cells: vec![None; (big_n + 1) * (big_n + 2)],
        }
    }

    /// The value at `(n, k)`, computed by `f` on first use.
    fn get(&mut self, n: usize, k: usize, f: impl FnOnce() -> T) -> T {
        let cell = n * self.cols + k.min(self.cols - 1);
        *self.cells[cell].get_or_insert_with(f)
    }
}

/// The capacity simulator.
pub struct CapacitySim {
    cfg: CapacityConfig,
    sizer: Sizer,
    /// `N`, the per-disk stream bound.
    big_n: usize,
    obs: Obs,
}

impl CapacitySim {
    /// Builds the simulator. The dynamic scheme's size table comes from
    /// the process-wide [`vod_core::SizeTable::shared`] cache.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters.
    pub fn new(cfg: CapacityConfig) -> Result<Self, ConfigError> {
        Self::with_observer(cfg, Obs::null())
    }

    /// Like [`CapacitySim::new`], with an event sink attached. Admission
    /// decisions and reservation high-water marks are reported; request
    /// ids are synthesized from the arrival's index in the workload
    /// (the capacity trace has no per-request identifiers of its own).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters, or for more
    /// disks than a [`DiskId`] can name.
    pub fn with_observer(cfg: CapacityConfig, obs: Obs) -> Result<Self, ConfigError> {
        cfg.params.validate()?;
        if cfg.disks == 0 {
            return Err(ConfigError::new("disks", "must be at least 1"));
        }
        DiskId::try_from_index(cfg.disks - 1, "disks")?;
        if !cfg.total_memory.is_valid_size() || cfg.total_memory.is_zero() {
            return Err(ConfigError::new("total_memory", "must be positive"));
        }
        let sizer = Sizer::new(cfg.scheme, &cfg.params)?;
        Ok(CapacitySim {
            big_n: cfg.params.max_requests(),
            cfg,
            sizer,
            obs,
        })
    }

    /// Replays a workload (arrivals across all disks) and measures the
    /// achievable concurrency under the memory constraint.
    ///
    /// Arrival and departure instants must not be NaN.
    #[must_use]
    pub fn run(&self, workload: &Workload) -> CapacityResult {
        let d = self.cfg.disks;
        let alpha = self.cfg.params.alpha as usize;
        let dynamic = self.cfg.scheme.is_dynamic();
        let mut n = vec![0usize; d];
        let mut k_last = vec![alpha; d];
        let mut reserved: Vec<Bits> = vec![Bits::ZERO; d];
        let mut logs: Vec<ArrivalLog> = (0..d).map(|_| ArrivalLog::new(self.cfg.t_log)).collect();
        let mut departures: BinaryHeap<Departure> = BinaryHeap::new();
        let mut reservations = Memo::new(self.big_n);
        let mut periods = Memo::new(self.big_n);
        let mut result = CapacityResult {
            per_disk_peak: vec![0; d],
            ..Default::default()
        };
        let mut total_reserved = Bits::ZERO;
        let mut concurrent = 0usize;

        for (idx, a) in workload.arrivals.iter().enumerate() {
            // The request's trace for observability, derived from its
            // workload index as the engine's `ingest` derives one.
            let trace = || TraceId::derive(0, idx as u64);
            // Release departures up to this arrival.
            let limit = order_key(a.at);
            while let Some(&dep) = departures.peek() {
                if dep.key > limit {
                    break;
                }
                departures.pop();
                let disk = dep.disk.index();
                n[disk] -= 1;
                concurrent -= 1;
                let at = key_instant(dep.key);
                let k = self.estimate_k(&mut logs[disk], &mut periods, at, n[disk], k_last[disk]);
                k_last[disk] = k;
                let new_res = reservations.get(n[disk], k, || self.reservation(n[disk], k));
                total_reserved = total_reserved - reserved[disk] + new_res;
                reserved[disk] = new_res;
            }

            let disk = a.disk.index();
            if disk >= d {
                // A request for a disk this server does not have cannot
                // be serviced; count it so admitted + rejected always
                // equals the workload size.
                result.rejected += 1;
                self.obs
                    .emit_with(EventKind::RequestRejected, || Event::RequestRejected {
                        at: a.at,
                        trace: trace(),
                        n: concurrent,
                        reason: RejectReason::DiskFull,
                    });
                continue;
            }
            if dynamic {
                logs[disk].record(a.at);
            }
            if n[disk] >= self.big_n {
                result.rejected += 1;
                self.obs
                    .emit_with(EventKind::RequestRejected, || Event::RequestRejected {
                        at: a.at,
                        trace: trace(),
                        n: concurrent,
                        reason: RejectReason::DiskFull,
                    });
                continue;
            }
            let k = self.estimate_k(
                &mut logs[disk],
                &mut periods,
                a.at,
                n[disk] + 1,
                k_last[disk],
            );
            let needed = reservations.get(n[disk] + 1, k, || self.reservation(n[disk] + 1, k));
            let prospective = total_reserved - reserved[disk] + needed;
            if prospective > self.cfg.total_memory {
                result.rejected += 1;
                self.obs
                    .emit_with(EventKind::RequestRejected, || Event::RequestRejected {
                        at: a.at,
                        trace: trace(),
                        n: concurrent,
                        reason: RejectReason::MemoryFull,
                    });
                continue;
            }
            // Admit.
            n[disk] += 1;
            k_last[disk] = k;
            total_reserved = prospective;
            reserved[disk] = needed;
            concurrent += 1;
            result.admitted += 1;
            result.max_concurrent = result.max_concurrent.max(concurrent);
            result.per_disk_peak[disk] = result.per_disk_peak[disk].max(n[disk]);
            self.obs
                .emit_with(EventKind::RequestAdmitted, || Event::RequestAdmitted {
                    at: a.at,
                    trace: trace(),
                    n: concurrent,
                    waited: Seconds::ZERO,
                });
            if total_reserved > result.peak_reserved {
                result.peak_reserved = total_reserved;
                self.obs
                    .emit_with(EventKind::PoolOccupancy, || Event::PoolOccupancy {
                        at: a.at,
                        used: total_reserved,
                        streams: concurrent,
                    });
            }
            departures.push(Departure {
                key: order_key(a.at + a.viewing),
                disk: a.disk,
            });
        }
        result
    }

    /// Minimum memory a disk must reserve to run `n` streams under the
    /// configured scheme (Theorems 2–4; static uses the `BS(N)`, `k=N−n`
    /// instantiation — see `vod_core::memory`).
    fn reservation(&self, n: usize, k: usize) -> Bits {
        if n == 0 {
            return Bits::ZERO;
        }
        match self.cfg.scheme {
            SchemeKind::Static | SchemeKind::StaticMaxUse => {
                // `memory::min_memory_static` with `BS(N)` read from the sizer.
                let n = n.min(self.big_n);
                memory::min_memory_with(&self.cfg.params, self.sizer.max_size(), n, self.big_n - n)
            }
            SchemeKind::NaiveDynamic => {
                let bs = self.sizer.size(n, k);
                memory::min_memory_with(&self.cfg.params, bs, n, k)
            }
            SchemeKind::Dynamic => memory::min_memory_dynamic(
                &self.cfg.params,
                self.sizer.table().expect("the dynamic sizer holds a table"),
                n,
                k,
            ),
        }
    }

    /// Per-disk `k` estimate: `k_log + α` over a usage-period window
    /// (admission-level approximation of Fig. 5's Step 4). The static
    /// schemes size for `N` and need no estimate: 0, with the log unread.
    fn estimate_k(
        &self,
        log: &mut ArrivalLog,
        periods: &mut Memo<Seconds>,
        now: Instant,
        n: usize,
        k_prev: usize,
    ) -> usize {
        if !self.cfg.scheme.is_dynamic() {
            return 0;
        }
        let n_eff = n.max(1);
        let period = periods.get(n_eff, k_prev, || self.usage_period(n_eff, k_prev));
        let alpha = self.cfg.params.alpha as usize;
        (log.k_log(now, period) + alpha).min(self.big_n)
    }

    /// The usage period `(n + k)·(DL(n) + BS_k(n)/TR)` that `k_log`
    /// counts arrivals over, for `n ≥ 1`.
    fn usage_period(&self, n: usize, k: usize) -> Seconds {
        let dl = self
            .cfg
            .params
            .method
            .worst_disk_latency(&self.cfg.params.disk, n);
        let slot = dl + self.sizer.size(n, k) / self.cfg.params.tr();
        slot * (n + k) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_sched::SchedulingMethod;
    use vod_workload::{generate, WorkloadConfig};

    fn cfg(scheme: SchemeKind, memory_gb: f64) -> CapacityConfig {
        CapacityConfig {
            params: SystemParams::paper_defaults(SchedulingMethod::RoundRobin),
            scheme,
            disks: 10,
            total_memory: Bits::from_gigabytes(memory_gb),
            t_log: Seconds::from_minutes(40.0),
        }
    }

    fn heavy_workload(disk_theta: f64) -> Workload {
        // Enough offered load to saturate 10 disks.
        generate(&WorkloadConfig::paper_ten_disk(disk_theta, 20_000.0), 17).expect("valid")
    }

    #[test]
    fn dynamic_beats_static_under_tight_memory() {
        let w = heavy_workload(0.0);
        let st = CapacitySim::new(cfg(SchemeKind::Static, 2.0))
            .expect("valid")
            .run(&w);
        let dy = CapacitySim::new(cfg(SchemeKind::Dynamic, 2.0))
            .expect("valid")
            .run(&w);
        assert!(
            dy.max_concurrent as f64 > 1.5 * st.max_concurrent as f64,
            "dynamic {} vs static {}",
            dy.max_concurrent,
            st.max_concurrent
        );
    }

    #[test]
    fn ample_memory_equalizes_schemes_at_disk_limit() {
        let w = heavy_workload(0.0);
        let st = CapacitySim::new(cfg(SchemeKind::Static, 30.0))
            .expect("valid")
            .run(&w);
        let dy = CapacitySim::new(cfg(SchemeKind::Dynamic, 30.0))
            .expect("valid")
            .run(&w);
        // With enough memory only the disks limit capacity (§5.3).
        assert_eq!(st.max_concurrent, dy.max_concurrent);
    }

    #[test]
    fn capacity_grows_with_memory() {
        let w = heavy_workload(0.5);
        let mut prev = 0;
        for gb in [1.0, 2.0, 4.0, 8.0] {
            let r = CapacitySim::new(cfg(SchemeKind::Static, gb))
                .expect("valid")
                .run(&w);
            assert!(
                r.max_concurrent >= prev,
                "capacity dipped at {gb} GB: {} < {prev}",
                r.max_concurrent
            );
            prev = r.max_concurrent;
        }
        assert!(prev > 0);
    }

    #[test]
    fn per_disk_counts_respect_n() {
        let w = heavy_workload(0.0);
        let r = CapacitySim::new(cfg(SchemeKind::Dynamic, 30.0))
            .expect("valid")
            .run(&w);
        for (d, &peak) in r.per_disk_peak.iter().enumerate() {
            assert!(peak <= 79, "disk {d} exceeded N: {peak}");
        }
        // θ=0 skew: disk 0 is the hottest.
        assert!(r.per_disk_peak[0] >= r.per_disk_peak[9]);
        assert_eq!(r.admitted + r.rejected, w.len() as u64);
    }

    #[test]
    fn reservation_never_exceeds_budget() {
        let w = heavy_workload(0.5);
        let budget = 3.0;
        let r = CapacitySim::new(cfg(SchemeKind::Dynamic, budget))
            .expect("valid")
            .run(&w);
        assert!(r.peak_reserved <= Bits::from_gigabytes(budget));
        assert!(r.peak_reserved > Bits::ZERO);
    }

    #[test]
    fn recorder_counters_match_capacity_result() {
        use std::sync::Arc;
        use vod_obs::RecorderSink;

        let w = heavy_workload(0.5);
        let plain = CapacitySim::new(cfg(SchemeKind::Dynamic, 2.0))
            .expect("valid")
            .run(&w);
        let sink = Arc::new(RecorderSink::new());
        let observed =
            CapacitySim::with_observer(cfg(SchemeKind::Dynamic, 2.0), Obs::new(sink.clone()))
                .expect("valid")
                .run(&w);
        // Attaching a sink must not perturb the simulation.
        assert_eq!(plain, observed);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(EventKind::RequestAdmitted), observed.admitted);
        assert_eq!(snap.counter(EventKind::RequestRejected), observed.rejected);
        assert!(snap.counter(EventKind::PoolOccupancy) > 0);
    }

    #[test]
    fn departure_equality_is_its_order() {
        let dep = |secs: f64, disk: u32| Departure {
            key: order_key(Instant::from_secs(secs)),
            disk: DiskId::new(disk),
        };
        let all = [
            dep(5.0, 0),
            dep(5.0, 3),
            dep(-0.0, 1),
            dep(0.0, 2),
            dep(7.5, 0),
            dep(-2.0, 0),
        ];
        for a in &all {
            for b in &all {
                assert_eq!(
                    a == b,
                    a.cmp(b) == std::cmp::Ordering::Equal,
                    "{a:?} vs {b:?}"
                );
                assert_eq!(a.partial_cmp(b), Some(a.cmp(b)));
            }
        }
        // One instant on two disks: equal, as the order says.
        assert_eq!(dep(5.0, 0), dep(5.0, 3));
        assert_eq!(dep(-0.0, 1), dep(0.0, 2));
        // Reversed for the min-heap: the earlier departure is greater.
        assert!(dep(-2.0, 0) > dep(5.0, 0));
    }

    #[test]
    fn order_key_orders_like_instants() {
        let secs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for &a in &secs {
            let (ia, ka) = (Instant::from_secs(a), order_key(Instant::from_secs(a)));
            for &b in &secs {
                let ib = Instant::from_secs(b);
                assert_eq!(
                    Some(ka.cmp(&order_key(ib))),
                    ia.partial_cmp(&ib),
                    "{a} vs {b}"
                );
            }
            // The key gives back the instant; `-0.0` comes back as `+0.0`.
            assert_eq!(key_instant(ka).as_secs_f64().to_bits(), (a + 0.0).to_bits());
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(CapacitySim::new(CapacityConfig {
            disks: 0,
            ..cfg(SchemeKind::Static, 1.0)
        })
        .is_err());
        assert!(CapacitySim::new(CapacityConfig {
            total_memory: Bits::ZERO,
            ..cfg(SchemeKind::Static, 1.0)
        })
        .is_err());
    }
}
