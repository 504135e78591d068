//! Lock-free wall-clock phase histograms.
//!
//! The [`MetricsRegistry`] holds what no report computes: how long each
//! phase of a run took on the host. Every simulated count and peak has
//! one source, the run's report (`DiskRunStats`, `ClusterReport`,
//! `ChaosSummary`); the registry keeps no copy of them. Hot-path updates
//! are relaxed atomic operations on `AtomicU64` (floats are bit-cast
//! with `f64::to_bits`), so a single registry is safe to share across
//! the per-seed and per-disk threads of the multi-seed runner.
//!
//! Instrument code through the detachable [`Histo`] handle, a base-2
//! log-bucketed `f64` distribution. A handle obtained from a detached
//! [`Metrics`] is a no-op whose update methods compile down to a branch
//! on `None`: instrumented code pays nothing when metrics are off.
//! Registration (name lookup) takes a mutex, so resolve handles once,
//! outside loops.
//!
//! Like the event sinks, the registry must never perturb a run: its
//! samples are host wall-clock only, and simulation control flow never
//! reads them back.

use core::fmt;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json;

/// Phase histogram: `BS_k(n)` size-table precompute (seconds).
pub const PHASE_TABLE_BUILD: &str = "vod_phase_table_build_seconds";
/// Phase histogram: one cycle boundary of the engine (departures,
/// boundary admissions, order rebuild and cycle plan).
pub const PHASE_CYCLE_PLAN: &str = "vod_phase_cycle_plan_seconds";
/// Phase histogram: per-service cost of one engine cycle — the cycle's
/// wall time from the end of its planning to its close, divided by the
/// services it performed (one sample per cycle).
pub const PHASE_SERVICE: &str = "vod_phase_service_seconds";
/// Phase histogram: one admission-control pass over the pending queue.
pub const PHASE_ADMISSION: &str = "vod_phase_admission_seconds";
/// Phase histogram: synthetic workload generation (per seed).
pub const PHASE_WORKLOAD_GEN: &str = "vod_phase_workload_gen_seconds";

/// Exponent of the smallest finite histogram bound (`2^-26` ≈ 15 ns).
const LOG_MIN_EXP: i32 = -26;
/// Number of buckets: 41 finite power-of-two bounds (`2^-26 ..= 2^14`,
/// i.e. ~15 ns up to 16384) plus one `+Inf` overflow bucket.
const BUCKETS: usize = 42;

/// Upper bound of bucket `i` (`f64::INFINITY` for the last bucket).
fn bucket_bound(i: usize) -> f64 {
    if i + 1 >= BUCKETS {
        f64::INFINITY
    } else {
        let exp = LOG_MIN_EXP + i as i32;
        (f64::from(exp)).exp2()
    }
}

/// Index of the first bucket whose upper bound is `>= x`.
///
/// Values below the smallest bound (including zero and negatives)
/// land in bucket 0; values above the largest finite bound land in
/// the `+Inf` bucket. Callers must filter non-finite input.
fn bucket_index(x: f64) -> usize {
    let min_bound = bucket_bound(0);
    if x <= min_bound {
        return 0;
    }
    let bits = x.to_bits();
    // x > 2^LOG_MIN_EXP here, so it is normal and positive: the raw
    // exponent field gives floor(log2 x) directly.
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let exact_power = bits & ((1u64 << 52) - 1) == 0;
    let idx = exp - LOG_MIN_EXP + i32::from(!exact_power);
    usize::try_from(idx.max(0)).unwrap_or(0).min(BUCKETS - 1)
}

/// Atomically `fetch_update`s an `AtomicU64` holding `f64` bits.
fn update_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// A base-2 log-bucketed histogram with atomic counts.
///
/// Buckets span `2^-26 ..= 2^14` plus an overflow bucket: as seconds,
/// about 15 ns (a per-service cost) to 4.5 h; as MiB, pool occupancy up
/// to 16 GiB. Values at or below the first bound (zero and negatives
/// included) land in the first bucket. `sum`/`min`/`max` are tracked
/// exactly (as bit-cast `f64`s), so `max` in snapshots is precise even
/// though quantiles are bucket-resolution approximations.
pub struct LogHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.counts[bucket_index(x)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        update_f64(&self.sum_bits, |s| s + x);
        update_f64(&self.min_bits, |m| m.min(x));
        update_f64(&self.max_bits, |m| m.max(x));
    }

    /// Snapshots the current state.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> HistoSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistoSnapshot {
            name: name.to_owned(),
            bounds: (0..BUCKETS).map(bucket_bound).collect(),
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of one [`LogHistogram`].
#[derive(Clone, Debug)]
pub struct HistoSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Upper bucket bounds (ascending; last is `+Inf`).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (same length as `bounds`).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`+Inf` when empty).
    pub min: f64,
    /// Largest observation (`-Inf` when empty).
    pub max: f64,
}

impl HistoSnapshot {
    /// Nearest-rank quantile (`0.0 ..= 1.0`), approximated at bucket
    /// resolution and clamped to the exact `[min, max]` extrema.
    /// `None` when the histogram is empty or `q` is out of range.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let est = self.bounds[i];
                return Some(est.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Mean observation, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Renders this histogram as a JSON object string with `count`,
    /// `sum`, exact `min`/`max`, bucket-resolution `p50`/`p95`
    /// (`null` when empty), and the raw `bounds`/`counts` arrays.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut bounds = json::Array::new();
        for &b in &self.bounds {
            bounds.num(b);
        }
        let mut counts = json::Array::new();
        for &c in &self.counts {
            counts.raw(&c.to_string());
        }
        let mut obj = json::Object::new();
        obj.uint("count", self.count);
        obj.num("sum", self.sum);
        if self.count == 0 {
            obj.null("min");
            obj.null("max");
            obj.null("p50");
            obj.null("p95");
        } else {
            obj.num("min", self.min);
            obj.num("max", self.max);
            obj.num("p50", self.quantile(0.5).unwrap_or(self.max));
            obj.num("p95", self.quantile(0.95).unwrap_or(self.max));
        }
        obj.raw("bounds", &bounds.finish());
        obj.raw("counts", &counts.finish());
        obj.finish()
    }
}

/// Shared registry of named histograms.
///
/// Registration ([`Metrics::histogram`]) takes a mutex and may
/// allocate; the returned handles then update with relaxed atomics
/// only. `BTreeMap` keeps snapshot/exposition order deterministic.
#[derive(Default)]
pub struct MetricsRegistry {
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn histogram_cell(&self, name: &str) -> Arc<LogHistogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(LogHistogram::new())),
        )
    }

    /// Snapshots every registered histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        MetricsSnapshot { histograms }
    }
}

/// Detachable handle to an optional [`MetricsRegistry`].
///
/// Mirrors [`crate::Obs`]: a detached handle (`Metrics::null()`)
/// hands out no-op [`Histo`] handles, so instrumented code needs no
/// branching of its own.
#[derive(Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<MetricsRegistry>>,
}

impl Metrics {
    /// A detached handle; every histogram it hands out is a no-op.
    #[must_use]
    pub fn null() -> Self {
        Self { registry: None }
    }

    /// A handle attached to `registry`.
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry: Some(registry),
        }
    }

    /// Whether a registry is attached.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolves (registering on first use) the histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histo {
        Histo {
            hist: self.registry.as_ref().map(|r| r.histogram_cell(name)),
        }
    }
}

/// Handle to a [`LogHistogram`] (no-op when detached).
#[derive(Clone, Default)]
pub struct Histo {
    hist: Option<Arc<LogHistogram>>,
}

impl Histo {
    /// Whether this handle reaches a real histogram.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.hist.is_some()
    }

    /// Records one observation (non-finite ignored; no-op when
    /// detached).
    pub fn record(&self, x: f64) {
        if let Some(hist) = &self.hist {
            hist.record(x);
        }
    }

    /// Runs `f`, recording its wall time in seconds here. Detached
    /// handles run `f` without reading the clock. Meant for coarse
    /// phases (a table build, a workload generation); hot loops read
    /// the clock themselves, once per batch.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(hist) = &self.hist else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        hist.record(start.elapsed().as_secs_f64());
        out
    }
}

/// The handles hold atomics, so derived `Debug` is unavailable;
/// report attachment instead.
impl fmt::Debug for Histo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histo")
            .field("attached", &self.is_attached())
            .finish()
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("attached", &self.is_attached())
            .finish()
    }
}

/// Point-in-time copy of every histogram in a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Every histogram, name-ordered.
    pub histograms: Vec<HistoSnapshot>,
}

impl MetricsSnapshot {
    /// Snapshot of histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistoSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_ascending_powers_of_two() {
        for i in 0..BUCKETS - 1 {
            assert!(bucket_bound(i) < bucket_bound(i + 1));
        }
        assert_eq!(bucket_bound(0), (-26.0f64).exp2());
        assert_eq!(bucket_bound(BUCKETS - 2), 16384.0);
        assert!(bucket_bound(BUCKETS - 1).is_infinite());
    }

    #[test]
    fn bucket_index_respects_le_semantics() {
        // A value equal to a bound lands in that bound's bucket.
        assert_eq!(bucket_index(bucket_bound(0)), 0);
        assert_eq!(bucket_index(bucket_bound(5)), 5);
        // Just above a bound goes to the next bucket.
        assert_eq!(bucket_index(bucket_bound(5) * 1.0001), 6);
        // Below range (including zero and negatives) clamps to 0.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(1e-12), 0);
        // Above the largest finite bound goes to the +Inf bucket.
        assert_eq!(bucket_index(1e30), BUCKETS - 1);
        assert_eq!(bucket_index(16384.0), BUCKETS - 2);
        assert_eq!(bucket_index(16384.5), BUCKETS - 1);
    }

    #[test]
    fn nanosecond_timings_land_in_distinct_buckets() {
        let h = LogHistogram::new();
        h.record(20e-9);
        h.record(200e-9);
        let snap = h.snapshot("t");
        let (fast, slow) = (bucket_index(20e-9), bucket_index(200e-9));
        assert!(fast > 0, "20 ns must leave the first bucket");
        assert!(slow > fast);
        assert_eq!((snap.counts[fast], snap.counts[slow]), (1, 1));
        assert!(snap.quantile(0.5).unwrap() < 50e-9);
        assert!(snap.quantile(1.0).unwrap() > 150e-9);
    }

    #[test]
    fn negative_and_negative_zero_inputs_land_in_the_first_bucket() {
        let h = LogHistogram::new();
        h.record(-3.0);
        h.record(-0.0);
        h.record(0.5);
        let snap = h.snapshot("t");
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.min, -3.0);
        assert_eq!(snap.max, 0.5);
        assert_eq!(snap.sum, -2.5);
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let snap = LogHistogram::new().snapshot("e");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean(), None);
        let json = snap.to_json();
        assert!(json.contains("\"min\":null"), "{json}");
        assert!(json.contains("\"max\":null"), "{json}");
        assert!(json.contains("\"p50\":null"), "{json}");
    }

    #[test]
    fn overflow_above_the_top_bound_keeps_the_exact_max() {
        let h = LogHistogram::new();
        h.record(1e6);
        let snap = h.snapshot("t");
        assert_eq!(snap.counts[BUCKETS - 1], 1);
        assert_eq!(snap.max, 1e6);
        // The +Inf bucket's quantile clamps to the exact max.
        assert_eq!(snap.quantile(0.5), Some(1e6));
    }

    #[test]
    fn time_records_one_sample_when_attached_and_none_when_detached() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = Metrics::new(Arc::clone(&reg)).histogram("phase_seconds");
        assert_eq!(h.time(|| 7), 7);
        assert_eq!(h.time(|| "twice"), "twice");
        let snap = reg.snapshot();
        let hist = snap.histogram("phase_seconds").unwrap();
        assert_eq!(hist.count, 2);
        assert!(hist.min >= 0.0);
        assert_eq!(Metrics::null().histogram("phase_seconds").time(|| 3), 3);
    }

    #[test]
    fn histogram_tracks_sum_min_max_exactly() {
        let h = LogHistogram::new();
        for &x in &[0.25, 1.0, 4.0] {
            h.record(x);
        }
        h.record(f64::NAN); // ignored
        h.record(f64::INFINITY); // ignored
        h.record(f64::NEG_INFINITY); // ignored
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 5.25);
        assert_eq!(snap.min, 0.25);
        assert_eq!(snap.max, 4.0);
        assert_eq!(snap.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn quantiles_clamp_to_exact_extrema() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(0.001);
        }
        h.record(3.0);
        let snap = h.snapshot("t");
        let p50 = snap.quantile(0.5).unwrap();
        assert!(p50 >= snap.min && p50 <= snap.max);
        // p100 must be the exact max, not a bucket bound.
        assert_eq!(snap.quantile(1.0), Some(3.0));
        assert_eq!(snap.quantile(1.5), None);
        assert_eq!(LogHistogram::new().snapshot("e").quantile(0.5), None);
    }

    #[test]
    fn detached_handles_are_no_ops() {
        let m = Metrics::null();
        assert!(!m.is_attached());
        let h = m.histogram(PHASE_SERVICE);
        h.record(1.0);
        assert!(!h.is_attached());
    }

    #[test]
    fn registry_shares_histograms_by_name() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = Metrics::new(Arc::clone(&reg));
        m.histogram("h_seconds").record(0.5);
        m.histogram("h_seconds").record(0.25);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("h_seconds").unwrap().count, 2);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn registry_is_safe_to_share_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = Metrics::new(Arc::clone(&reg));
                scope.spawn(move || {
                    let h = m.histogram("shared_seconds");
                    for i in 0..1000 {
                        h.record(f64::from(i) * 1e-4);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let h = snap.histogram("shared_seconds").unwrap();
        assert_eq!(h.count, 4000);
        assert_eq!(h.counts.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn histogram_json_is_shaped_as_expected() {
        let h = LogHistogram::new();
        h.record(0.25);
        let json = h.snapshot("h_seconds").to_json();
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"max\":0.25"), "{json}");
    }
}
