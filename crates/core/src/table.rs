//! The `O(N²)` precomputed buffer-size table (§3.3).
//!
//! Evaluating Theorem 1 on every allocation costs CPU on the service hot
//! path, so the paper prescribes precomputing `BS_k(n)` for all feasible
//! `(n, k)` at system-initialization time. Both `n` and `k` are bounded by
//! `N` (at most `N` streams are ever in service, and at most `N` more
//! could be admitted), so the table is `(N+1) × (N+1)` — 6 400 entries for
//! the Barracuda 9LP, negligible memory.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use vod_obs::metrics::{Metrics, PHASE_TABLE_BUILD};
use vod_types::{Bits, ConfigError};

use crate::closed_form::buffer_size_closed_form;
use crate::params::SystemParams;

/// Process-wide memo of built tables, keyed by an FNV-1a fingerprint of
/// the full parameter set. A bench matrix builds the same `(N+1)²` table
/// once per cell × per seed × per cluster node without this; every input
/// that reaches Theorem 1 is covered by the fingerprint, so a hit is
/// exactly the table a fresh build would produce.
static TABLE_CACHE: OnceLock<Mutex<HashMap<u64, Arc<SizeTable>>>> = OnceLock::new();

/// Safety valve: a proptest sweeping random parameter sets must not grow
/// the process-wide cache without bound. Past this many distinct
/// parameter sets the cache is cleared and rebuilt from scratch.
const TABLE_CACHE_CAP: usize = 128;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// FNV-1a fingerprint of every [`SystemParams`] field that the table
/// build reads (disk geometry and seek model, `CR`, method, `α`). Bit
/// patterns of the floats are hashed, so two parameter sets collide only
/// if Theorem 1 sees identical inputs.
#[must_use]
pub fn params_fingerprint(params: &SystemParams) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(params.disk.name.as_bytes());
    h.f64(params.disk.capacity.as_f64());
    h.f64(params.disk.transfer_rate.as_f64());
    h.u64(u64::from(params.disk.rpm));
    h.u64(u64::from(params.disk.cylinders));
    h.f64(params.disk.seek.mu1.as_secs_f64());
    h.f64(params.disk.seek.nu1.as_secs_f64());
    h.f64(params.disk.seek.mu2.as_secs_f64());
    h.f64(params.disk.seek.nu2.as_secs_f64());
    h.u64(u64::from(params.disk.seek.breakpoint));
    h.f64(params.disk.seek.max_rotational_delay.as_secs_f64());
    h.f64(params.consumption_rate.as_f64());
    match params.method {
        vod_sched::SchedulingMethod::RoundRobin => h.u64(1),
        vod_sched::SchedulingMethod::Sweep => h.u64(2),
        vod_sched::SchedulingMethod::Gss { group_size } => {
            h.u64(3);
            h.u64(group_size as u64);
        }
    }
    h.u64(u64::from(params.alpha));
    h.0
}

/// Precomputed `BS_k(n)` for `0 ≤ n, k ≤ N`.
#[derive(Clone, Debug)]
pub struct SizeTable {
    big_n: usize,
    /// Row-major: `sizes[n * (N+1) + k]`.
    sizes: Vec<Bits>,
}

impl SizeTable {
    /// Builds the table by evaluating Theorem 1's closed form at every
    /// cell. Panics never; infeasible parameter sets must be caught by
    /// [`SystemParams::validate`] first (see [`SizeTable::try_build`]).
    #[must_use]
    pub fn build(params: &SystemParams) -> Self {
        let big_n = params.max_requests();
        let width = big_n + 1;
        let mut sizes = Vec::with_capacity(width * width);
        for n in 0..=big_n {
            for k in 0..=big_n {
                sizes.push(buffer_size_closed_form(params, n, k));
            }
        }
        SizeTable { big_n, sizes }
    }

    /// Builds like [`SizeTable::build`], timing the precompute into
    /// the [`PHASE_TABLE_BUILD`] histogram. With a detached [`Metrics`]
    /// this is exactly `build` (no clock read).
    #[must_use]
    pub fn build_instrumented(params: &SystemParams, metrics: &Metrics) -> Self {
        metrics
            .histogram(PHASE_TABLE_BUILD)
            .time(|| Self::build(params))
    }

    /// Validates the parameters, then builds.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `params` is infeasible.
    pub fn try_build(params: &SystemParams) -> Result<Self, ConfigError> {
        params.validate()?;
        Ok(Self::build(params))
    }

    /// The memoized constructor: returns the process-wide shared table
    /// for `params`, building it on first use. Subsequent callers with
    /// bit-identical parameters (same FNV-1a fingerprint — see
    /// [`params_fingerprint`]) get a clone of the same `Arc`, so a
    /// 45-cell cluster bench with 16 nodes per cell builds the O(N²)
    /// table once, not 16 × 45 times.
    #[must_use]
    pub fn shared(params: &SystemParams) -> Arc<Self> {
        let key = params_fingerprint(params);
        let cache = TABLE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = map.get(&key) {
            return Arc::clone(hit);
        }
        if map.len() >= TABLE_CACHE_CAP {
            map.clear();
        }
        let built = Arc::new(Self::build(params));
        map.insert(key, Arc::clone(&built));
        built
    }

    /// Like [`SizeTable::shared`], but times the call into the
    /// [`PHASE_TABLE_BUILD`] histogram: exactly one sample per call,
    /// hit or miss, preserving the phase-count contract of
    /// [`SizeTable::build_instrumented`] (a hit simply records the
    /// cache-lookup latency instead of a rebuild).
    #[must_use]
    pub fn shared_instrumented(params: &SystemParams, metrics: &Metrics) -> Arc<Self> {
        metrics
            .histogram(PHASE_TABLE_BUILD)
            .time(|| Self::shared(params))
    }

    /// `BS_k(n)`, clamping `n` and `k` to `N` (the paper caps both: more
    /// than `N` streams can never be serviced, so larger arguments are
    /// equivalent to `N`).
    #[must_use]
    pub fn size(&self, n: usize, k: usize) -> Bits {
        let n = n.min(self.big_n);
        let k = k.min(self.big_n);
        self.sizes[n * (self.big_n + 1) + k]
    }

    /// The maximum supported stream count `N`.
    #[must_use]
    pub fn max_requests(&self) -> usize {
        self.big_n
    }

    /// The largest entry — the full-load static size `BS(N)`, useful for
    /// chunk-size validation ([`vod_disk::layout::validate_chunk_size`]).
    #[must_use]
    pub fn max_size(&self) -> Bits {
        self.size(self.big_n, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::buffer_size_closed_form;
    use crate::static_scheme::static_buffer_size;
    use vod_sched::SchedulingMethod;

    fn table() -> (SystemParams, SizeTable) {
        let p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let t = SizeTable::build(&p);
        (p, t)
    }

    #[test]
    fn lookup_agrees_with_direct_evaluation() {
        let (p, t) = table();
        for n in (0..=79).step_by(7) {
            for k in (0..=79).step_by(11) {
                assert_eq!(t.size(n, k), buffer_size_closed_form(&p, n, k));
            }
        }
    }

    #[test]
    fn out_of_range_arguments_clamp_to_n() {
        let (_, t) = table();
        assert_eq!(t.size(500, 0), t.size(79, 0));
        assert_eq!(t.size(10, 500), t.size(10, 79));
    }

    #[test]
    fn max_size_is_full_load_static_size() {
        let (p, t) = table();
        assert_eq!(t.max_size(), t.size(79, 0));
        let st = static_buffer_size(&p, 79);
        assert!((t.max_size().as_f64() - st.as_f64()).abs() / st.as_f64() < 1e-12);
    }

    #[test]
    fn try_build_rejects_invalid_params() {
        let mut p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        p.alpha = 0;
        assert!(SizeTable::try_build(&p).is_err());
    }

    #[test]
    fn table_is_monotone_in_both_arguments() {
        let (_, t) = table();
        for n in 0..=79usize {
            for k in 1..=79usize {
                assert!(t.size(n, k) >= t.size(n, k - 1), "k-monotone at ({n},{k})");
            }
        }
        for k in 0..=79usize {
            for n in 1..=79usize {
                assert!(t.size(n, k) >= t.size(n - 1, k), "n-monotone at ({n},{k})");
            }
        }
    }

    #[test]
    fn reports_big_n() {
        let (_, t) = table();
        assert_eq!(t.max_requests(), 79);
    }

    #[test]
    fn shared_tables_are_memoized_per_fingerprint() {
        let p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let a = SizeTable::shared(&p);
        let b = SizeTable::shared(&p);
        // Same fingerprint → literally the same allocation.
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(a.size(40, 7), SizeTable::build(&p).size(40, 7));

        // Any fingerprinted field change misses the cache.
        let mut q = p.clone();
        q.alpha = 2;
        let c = SizeTable::shared(&q);
        assert!(!std::sync::Arc::ptr_eq(&a, &c));

        let r = SystemParams::paper_defaults(SchedulingMethod::Sweep);
        let d = SizeTable::shared(&r);
        assert!(!std::sync::Arc::ptr_eq(&a, &d));
        assert_eq!(d.size(40, 7), SizeTable::build(&r).size(40, 7));
    }

    #[test]
    fn fingerprint_separates_gss_group_sizes() {
        let g8 = SystemParams::paper_defaults(SchedulingMethod::Gss { group_size: 8 });
        let g4 = SystemParams::paper_defaults(SchedulingMethod::Gss { group_size: 4 });
        assert_ne!(params_fingerprint(&g8), params_fingerprint(&g4));
        assert_eq!(params_fingerprint(&g8), params_fingerprint(&g8.clone()));
    }

    #[test]
    fn shared_instrumented_records_a_phase_sample_on_hits_too() {
        use std::sync::Arc;
        use vod_obs::metrics::MetricsRegistry;

        let p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let reg = Arc::new(MetricsRegistry::new());
        let m = Metrics::new(Arc::clone(&reg));
        let first = SizeTable::shared_instrumented(&p, &m);
        let second = SizeTable::shared_instrumented(&p, &m);
        assert!(Arc::ptr_eq(&first, &second));
        let snap = reg.snapshot();
        // One sample per call — hit or miss — so harness tests pinning
        // PHASE_TABLE_BUILD counts are unaffected by cache state.
        assert_eq!(snap.histogram(PHASE_TABLE_BUILD).unwrap().count, 2);
    }

    #[test]
    fn instrumented_build_matches_and_records_a_phase_sample() {
        use std::sync::Arc;
        use vod_obs::metrics::MetricsRegistry;

        let p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        let plain = SizeTable::build(&p);

        // Detached metrics: plain build, no panic.
        let t = SizeTable::build_instrumented(&p, &Metrics::null());
        assert_eq!(t.size(40, 7), plain.size(40, 7));

        let reg = Arc::new(MetricsRegistry::new());
        let t = SizeTable::build_instrumented(&p, &Metrics::new(Arc::clone(&reg)));
        assert_eq!(t.size(79, 0), plain.size(79, 0));
        let snap = reg.snapshot();
        let hist = snap.histogram(PHASE_TABLE_BUILD).unwrap();
        assert_eq!(hist.count, 1);
    }
}
