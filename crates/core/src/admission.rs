//! The predict-and-enforce admission controller and buffer allocator
//! (the algorithm of Fig. 5).
//!
//! The dynamic scheme sizes a buffer for the *predicted* worst case; the
//! prediction only stays safe if reality is held to it. Enforcement is
//! runtime admission control:
//!
//! * **Assumption 1** — when a buffer was allocated at load `(n_i, k_i)`,
//!   at most `n_i + k_i` streams may be serviced while it lives. So a new
//!   request is admitted only if `(n + 1) ≤ min_i (n_i + k_i)` over every
//!   in-service stream `i`; otherwise it waits in the queue (*deferred
//!   service*).
//! * **Assumption 2** — the estimate may grow by at most `α` per usage
//!   period: `k_c = min( k_log + α, min_i (k_i + α) )`.
//!
//! [`AdmissionController`] owns the per-stream allocation records
//! `(n_i, k_i)`, the [`ArrivalLog`] behind `k_log`, and the precomputed
//! [`SizeTable`]; the server (or simulator) calls it at every arrival,
//! allocation, and departure.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use vod_obs::{Event, EventKind, Obs};
use vod_types::{Bits, ConfigError, Instant, RequestId, Seconds, VodError};

use crate::aggregate::MinMultiset;
use crate::estimator::ArrivalLog;
use crate::params::SystemParams;
use crate::table::SizeTable;

/// The outcome of one buffer allocation (Step 4–5 of Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// `n_c`: streams in service at allocation time (including this one).
    pub n: usize,
    /// `k_c`: estimated additional requests, after Assumption-2 clamping.
    pub k: usize,
    /// `k_log` before clamping — kept for the estimation audit (Fig. 7/8).
    pub k_log: usize,
}

/// The limit that currently binds admission (see
/// [`AdmissionController::binding_constraint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionConstraint {
    /// Assumption 1 binds: some in-service buffer was sized for at most
    /// `bound = min_i(n_i + k_i)` concurrent streams.
    Assumption1 {
        /// The binding `min_i(n_i + k_i)`.
        bound: usize,
    },
    /// The disk service bound `N` binds (Assumption 1 is slack or no
    /// allocation constrains yet).
    DiskBound {
        /// `N`, the disk's stream capacity.
        bound: usize,
    },
}

impl AdmissionConstraint {
    /// The binding stream-count limit.
    #[must_use]
    pub fn bound(self) -> usize {
        match self {
            AdmissionConstraint::Assumption1 { bound }
            | AdmissionConstraint::DiskBound { bound } => bound,
        }
    }

    /// Stable snake_case label (used in span annotations).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AdmissionConstraint::Assumption1 { .. } => "assumption1",
            AdmissionConstraint::DiskBound { .. } => "disk_bound",
        }
    }
}

/// Hasher for the record table's [`RequestId`] keys: the ids are plain
/// integers the server or simulator mints itself, never keys chosen
/// outside the program, so SipHash's collision-flooding defence buys
/// nothing. One odd multiply mixes an id, and a rotate moves the
/// well-mixed high product bits down to the low bits the table indexes
/// by. Deterministic, unlike `RandomState`.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[derive(Clone, Copy, Debug)]
struct Record {
    /// `(n_i, k_i)` from the stream's most recent buffer allocation;
    /// `None` between admission and first allocation.
    last_allocation: Option<(usize, usize)>,
}

/// Runtime state of the dynamic buffer allocation scheme for one disk.
///
/// The two admission-time minima — Assumption 1's `min_i(n_i + k_i)` and
/// Assumption 2's `min_i(k_i)` — are maintained incrementally in
/// [`MinMultiset`]s updated on every allocation and departure, so both
/// queries are O(1) instead of a scan over the record table (the paper's
/// Fig. 5 runs `Admission_Control` on *every* arrival).
#[derive(Clone, Debug)]
pub struct AdmissionController {
    params: SystemParams,
    /// `N`, the disk's stream bound, read on every admission check.
    big_n: usize,
    table: Arc<SizeTable>,
    log: ArrivalLog,
    records: HashMap<RequestId, Record, BuildHasherDefault<IdHasher>>,
    /// Multiset of `n_i + k_i` over records with an allocation.
    bound_agg: MinMultiset,
    /// Multiset of `k_i` over records with an allocation.
    k_agg: MinMultiset,
    deferrals: u64,
    obs: Obs,
}

impl AdmissionController {
    /// Creates a controller; precomputes the size table (§3.3).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters or a
    /// non-positive `t_log`.
    pub fn new(params: SystemParams, t_log: Seconds) -> Result<Self, ConfigError> {
        Self::new_instrumented(params, t_log, &vod_obs::Metrics::null())
    }

    /// Like [`AdmissionController::new`], but the size-table
    /// precompute is timed into the metrics phase histogram
    /// ([`vod_obs::metrics::PHASE_TABLE_BUILD`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters or a
    /// non-positive `t_log`.
    pub fn new_instrumented(
        params: SystemParams,
        t_log: Seconds,
        metrics: &vod_obs::Metrics,
    ) -> Result<Self, ConfigError> {
        params.validate()?;
        if !t_log.is_valid_duration() || t_log <= Seconds::ZERO {
            return Err(ConfigError::new("t_log", "must be positive"));
        }
        let table = SizeTable::shared_instrumented(&params, metrics);
        Ok(AdmissionController {
            big_n: params.max_requests(),
            params,
            table,
            log: ArrivalLog::new(t_log),
            records: HashMap::default(),
            bound_agg: MinMultiset::new(),
            k_agg: MinMultiset::new(),
            deferrals: 0,
            obs: Obs::null(),
        })
    }

    /// Attaches an observability handle; [`Event::EstimatorClamped`] is
    /// emitted whenever Assumption 2 (or the disk bound) caps the `k`
    /// estimate below `k_log + α`. Emission never alters the estimate.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The parameter set.
    #[must_use]
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The precomputed size table.
    #[must_use]
    pub fn table(&self) -> &SizeTable {
        &self.table
    }

    /// Records a request arrival (admitted or not) for the `k_log`
    /// estimator. Call exactly once per arriving request.
    pub fn note_arrival(&mut self, at: Instant) {
        self.log.record(at);
    }

    /// Number of streams currently in service.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.records.len()
    }

    /// Procedure `Admission_Control` of Fig. 5: may one more stream be
    /// admitted *now* without violating Assumption 1 for any in-service
    /// buffer (and without exceeding the disk bound `N`)? (`&mut` only to
    /// advance the min-aggregate cursor; the decision reads no clock.)
    #[must_use]
    pub fn can_admit(&mut self) -> bool {
        let n = self.records.len();
        if n >= self.big_n {
            return false;
        }
        let bound = self.assumption1_bound();
        n < bound
    }

    /// Admits a stream. Call only after [`Self::can_admit`]; admitting
    /// past the bound is reported as deferral.
    ///
    /// # Errors
    ///
    /// * [`VodError::AdmissionDeferred`] — Assumption 1 (or the `N` bound)
    ///   would be violated; the stream stays queued and the deferral is
    ///   counted.
    /// * [`VodError::Config`] — the stream is already admitted.
    pub fn admit(&mut self, id: RequestId) -> Result<(), VodError> {
        if self.records.contains_key(&id) {
            return Err(ConfigError::new("request", format!("{id} already admitted")).into());
        }
        if !self.can_admit() {
            self.deferrals += 1;
            return Err(VodError::AdmissionDeferred { request: id });
        }
        self.records.insert(
            id,
            Record {
                last_allocation: None,
            },
        );
        Ok(())
    }

    /// Steps 4–5 of Fig. 5: computes `(n_c, k_c)` for the stream about to
    /// be serviced and records them as its new `(n_i, k_i)`.
    ///
    /// `now` is the current time and `period` the current service-period
    /// length, both needed by the `k_log` estimator. The buffer size is
    /// `self.table().size(alloc.n, alloc.k)`.
    ///
    /// # Errors
    ///
    /// Returns [`VodError::UnknownRequest`] when the stream was never
    /// admitted (or already departed).
    pub fn allocate(
        &mut self,
        id: RequestId,
        now: Instant,
        period: Seconds,
    ) -> Result<Allocation, VodError> {
        let n_c = self.records.len();
        let k_cap = self.k_cap();
        let Some(record) = self.records.get_mut(&id) else {
            return Err(VodError::UnknownRequest(id));
        };
        let (k_c, k_log) =
            Self::clamp_k(&mut self.log, &self.params, &self.obs, k_cap, now, period);
        let old = record.last_allocation.replace((n_c, k_c));
        // An unchanged allocation leaves both aggregates as they are:
        // removing and re-inserting the same value is a no-op on a
        // counting multiset, whose cursor already sits at or below it.
        if old != Some((n_c, k_c)) {
            if let Some((n_old, k_old)) = old {
                self.bound_agg.remove(n_old + k_old);
                self.k_agg.remove(k_old);
            }
            self.bound_agg.insert(n_c + k_c);
            self.k_agg.insert(k_c);
        }
        Ok(Allocation {
            n: n_c,
            k: k_c,
            k_log,
        })
    }

    /// The `(k_c, k_log)` the controller *would* use for an allocation at
    /// `now` — Steps 4 of Fig. 5 without recording anything. Used by
    /// memory-reservation admission checks. (Prunes the arrival log,
    /// hence `&mut`.)
    pub fn estimate_k(&mut self, now: Instant, period: Seconds) -> (usize, usize) {
        let k_cap = self.k_cap();
        Self::clamp_k(&mut self.log, &self.params, &self.obs, k_cap, now, period)
    }

    /// The cap on `k_c`: Assumption 2's `k_c ≤ k_i + α` for every
    /// in-service stream, and the disk bound `N`, so
    /// `min(min_i(k_i) + α, N)`. The minimum over `k_i` is maintained
    /// incrementally (O(1) here).
    fn k_cap(&mut self) -> usize {
        let alpha = self.params.alpha as usize;
        let k_cap = self.k_agg.min().map_or(usize::MAX, |k| k + alpha);
        debug_assert_eq!(
            k_cap,
            self.records
                .values()
                .filter_map(|r| r.last_allocation)
                .map(|(_, k_i)| k_i + alpha)
                .min()
                .unwrap_or(usize::MAX),
            "incremental Assumption-2 clamp diverged from the record scan"
        );
        k_cap.min(self.big_n)
    }

    /// Step 4 of Fig. 5 given the cap: `k_c = min(k_log + α, k_cap)`.
    /// Takes the fields it reads rather than `self`, so `allocate` can
    /// hold its one record lookup across the call.
    fn clamp_k(
        log: &mut ArrivalLog,
        params: &SystemParams,
        obs: &Obs,
        k_cap: usize,
        now: Instant,
        period: Seconds,
    ) -> (usize, usize) {
        let k_log = log.k_log(now, period);
        let alpha = params.alpha as usize;
        let k_c = (k_log + alpha).min(k_cap);
        if k_c < k_log + alpha {
            obs.emit_with(EventKind::EstimatorClamped, || Event::EstimatorClamped {
                at: now,
                k_log,
                k_clamped: k_c,
                cap: k_cap,
            });
        }
        (k_c, k_log)
    }

    /// The buffer size for an allocation, from the precomputed table.
    #[must_use]
    pub fn size_of(&self, alloc: Allocation) -> Bits {
        self.table.size(alloc.n, alloc.k)
    }

    /// Step 1 of Fig. 5: removes a completed stream.
    ///
    /// # Errors
    ///
    /// Returns [`VodError::UnknownRequest`] when the stream is not in
    /// service.
    pub fn depart(&mut self, id: RequestId) -> Result<(), VodError> {
        let record = self
            .records
            .remove(&id)
            .ok_or(VodError::UnknownRequest(id))?;
        if let Some((n_i, k_i)) = record.last_allocation {
            self.bound_agg.remove(n_i + k_i);
            self.k_agg.remove(k_i);
        }
        Ok(())
    }

    /// Number of admission attempts deferred so far.
    #[must_use]
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// The largest stream count Assumption 1 currently allows:
    /// `min(min_i(n_i + k_i), N)`. The server may admit up to
    /// `admission_bound() − active_count()` more streams before any
    /// in-service buffer's sizing assumptions could be violated. (`&mut`
    /// only to advance the min-aggregate cursor.)
    #[must_use]
    pub fn admission_bound(&mut self) -> usize {
        self.assumption1_bound().min(self.big_n)
    }

    /// Which limit currently binds admission, with its value — the
    /// payload span annotations attach to admit/defer decisions so a
    /// trace answers "*which* bound decided this?". (`&mut` only to
    /// advance the min-aggregate cursor.)
    #[must_use]
    pub fn binding_constraint(&mut self) -> AdmissionConstraint {
        let a1 = self.assumption1_bound();
        if a1 < self.big_n {
            AdmissionConstraint::Assumption1 { bound: a1 }
        } else {
            AdmissionConstraint::DiskBound { bound: self.big_n }
        }
    }

    /// `min_i (n_i + k_i)` over in-service streams with an allocation;
    /// `usize::MAX` when none constrain (Assumption 1 then only leaves the
    /// disk bound `N`). O(1): the minimum is maintained incrementally on
    /// allocate/depart instead of scanning the record table per arrival.
    fn assumption1_bound(&mut self) -> usize {
        let bound = self.bound_agg.min().unwrap_or(usize::MAX);
        debug_assert_eq!(
            bound,
            self.records
                .values()
                .filter_map(|r| r.last_allocation)
                .map(|(n_i, k_i)| n_i + k_i)
                .min()
                .unwrap_or(usize::MAX),
            "incremental Assumption-1 bound diverged from the record scan"
        );
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_sched::SchedulingMethod;

    fn controller() -> AdmissionController {
        AdmissionController::new(
            SystemParams::paper_defaults(SchedulingMethod::RoundRobin),
            Seconds::from_minutes(40.0),
        )
        .expect("valid config")
    }

    fn r(i: u64) -> RequestId {
        RequestId::new(i)
    }

    const PERIOD: Seconds = Seconds::from_secs(2.0);

    #[test]
    fn first_request_into_idle_system() {
        let mut c = controller();
        let t0 = Instant::ZERO;
        c.note_arrival(t0);
        assert!(c.can_admit());
        c.admit(r(0)).expect("idle system admits");
        let alloc = c.allocate(r(0), t0, PERIOD).expect("admitted");
        // n_c = 1; k_log counts the request itself (it arrived within the
        // window), so k_c = k_log + α = 2.
        assert_eq!(alloc.n, 1);
        assert_eq!(alloc.k_log, 1);
        assert_eq!(alloc.k, 2);
        assert!(c.size_of(alloc).as_f64() > 0.0);
    }

    #[test]
    fn binding_constraint_names_the_deciding_bound() {
        let mut c = controller();
        let n = c.params().max_requests();
        // No allocation constrains yet: only the disk bound applies.
        assert_eq!(
            c.binding_constraint(),
            AdmissionConstraint::DiskBound { bound: n }
        );
        assert_eq!(c.binding_constraint().label(), "disk_bound");

        // One stream allocated at (n=1, k=2): Assumption 1 binds at 3.
        let t0 = Instant::ZERO;
        c.note_arrival(t0);
        c.admit(r(0)).expect("idle");
        c.allocate(r(0), t0, PERIOD).expect("admitted");
        let bc = c.binding_constraint();
        assert_eq!(bc, AdmissionConstraint::Assumption1 { bound: 3 });
        assert_eq!(bc.bound(), 3);
        assert_eq!(bc.label(), "assumption1");
        // The constraint agrees with the admission bound.
        assert_eq!(bc.bound(), c.admission_bound());
    }

    #[test]
    fn admission_respects_assumption_one() {
        let mut c = controller();
        let t0 = Instant::ZERO;
        // One stream allocated at (n=1, k=2): bound is n_1 + k_1 = 3.
        c.note_arrival(t0);
        c.admit(r(0)).expect("idle");
        c.allocate(r(0), t0, PERIOD).expect("admitted");

        // Admit two more (2nd and 3rd): 2 ≤ 3 and 3 ≤ 3 pass.
        c.note_arrival(t0);
        c.admit(r(1)).expect("within bound");
        c.note_arrival(t0);
        c.admit(r(2)).expect("at bound");

        // A 4th would make n+1 = 4 > 3: deferred.
        c.note_arrival(t0);
        assert!(!c.can_admit());
        let err = c.admit(r(3)).expect_err("assumption 1 violated");
        assert_eq!(err, VodError::AdmissionDeferred { request: r(3) });
        assert_eq!(c.deferrals(), 1);
        assert_eq!(c.active_count(), 3);
    }

    #[test]
    fn deferral_clears_after_reallocation() {
        let mut c = controller();
        let t0 = Instant::ZERO;
        c.note_arrival(t0);
        c.admit(r(0)).expect("idle");
        c.allocate(r(0), t0, PERIOD).expect("admitted");
        c.note_arrival(t0);
        c.admit(r(1)).expect("bound 3");
        c.note_arrival(t0);
        c.admit(r(2)).expect("bound 3");
        c.note_arrival(t0);
        assert!(c.admit(r(3)).is_err());

        // Next service period: R0 reallocated at n=3 with a fresh k.
        let t1 = t0 + PERIOD;
        let alloc = c.allocate(r(0), t1, PERIOD).expect("in service");
        assert_eq!(alloc.n, 3);
        assert!(
            alloc.n + alloc.k >= 4,
            "bound rises with the new allocation"
        );
        // R1, R2 still hold (1+2)=3-bounds... wait: R1/R2 have no
        // allocation yet, so only R0's new record binds.
        assert!(c.can_admit());
        c.admit(r(3)).expect("bound has risen");
    }

    #[test]
    fn assumption_two_clamps_k() {
        let mut c = controller();
        let t0 = Instant::ZERO;
        // R0 allocated with k_c = 2 (k_log = 1 + α).
        c.note_arrival(t0);
        c.admit(r(0)).expect("idle");
        c.allocate(r(0), t0, PERIOD).expect("admitted");

        // A burst of 10 arrivals pushes k_log up, but Assumption 2 caps
        // k_c at k_0 + α = 3.
        for i in 1..=10 {
            c.note_arrival(t0 + Seconds::from_millis(f64::from(i)));
        }
        c.admit(r(1)).expect("bound 3 admits n=2");
        let alloc = c
            .allocate(r(1), t0 + Seconds::from_secs(1.0), PERIOD)
            .expect("admitted");
        assert!(alloc.k_log >= 10, "burst visible to the estimator");
        assert_eq!(alloc.k, 3, "clamped to k_0 + α");
    }

    #[test]
    fn clamping_emits_estimator_event() {
        let rec = std::sync::Arc::new(vod_obs::RecorderSink::new());
        let mut c = controller();
        c.set_observer(Obs::new(rec.clone()));
        let t0 = Instant::ZERO;
        // R0 allocated with k_c = 2; a burst then pushes k_log above the
        // Assumption-2 cap k_0 + α = 3, forcing a clamp.
        c.note_arrival(t0);
        c.admit(r(0)).expect("idle");
        c.allocate(r(0), t0, PERIOD).expect("admitted");
        assert_eq!(
            rec.snapshot().counter(EventKind::EstimatorClamped),
            0,
            "unclamped estimate must not emit"
        );
        for i in 1..=10 {
            c.note_arrival(t0 + Seconds::from_millis(f64::from(i)));
        }
        c.admit(r(1)).expect("bound 3 admits n=2");
        let alloc = c
            .allocate(r(1), t0 + Seconds::from_secs(1.0), PERIOD)
            .expect("admitted");
        assert_eq!(alloc.k, 3);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(EventKind::EstimatorClamped), 1);
        assert!(matches!(
            snap.events()[0],
            Event::EstimatorClamped { k_clamped: 3, cap: 3, k_log, .. } if k_log >= 10
        ));
    }

    #[test]
    fn k_is_capped_at_big_n() {
        let mut c = controller();
        let t0 = Instant::ZERO;
        for i in 0..100 {
            c.note_arrival(t0 + Seconds::from_millis(f64::from(i)));
        }
        c.admit(r(0)).expect("idle");
        let alloc = c
            .allocate(r(0), t0 + Seconds::from_secs(1.0), PERIOD)
            .expect("admitted");
        assert!(alloc.k <= 79);
    }

    #[test]
    fn never_admits_past_disk_bound() {
        let mut c = controller();
        let t0 = Instant::ZERO;
        let mut admitted = 0usize;
        for i in 0..200u64 {
            c.note_arrival(t0);
            if c.admit(r(i)).is_ok() {
                admitted += 1;
                // Immediately allocate so the Assumption-1 bound keeps
                // pace (records with big k admit freely up to N).
                c.allocate(r(i), t0, PERIOD).expect("admitted");
            }
        }
        assert!(admitted <= 79);
        assert_eq!(c.active_count(), admitted);
        assert!(!c.can_admit() || c.active_count() < 79);
    }

    #[test]
    fn departures_free_capacity() {
        let mut c = controller();
        let t0 = Instant::ZERO;
        c.note_arrival(t0);
        c.admit(r(0)).expect("idle");
        c.allocate(r(0), t0, PERIOD).expect("admitted");
        assert_eq!(c.active_count(), 1);
        c.depart(r(0)).expect("in service");
        assert_eq!(c.active_count(), 0);
        assert!(c.depart(r(0)).is_err(), "double departure rejected");
        assert!(c.can_admit());
    }

    #[test]
    fn duplicate_admission_is_an_error() {
        let mut c = controller();
        c.note_arrival(Instant::ZERO);
        c.admit(r(0)).expect("idle");
        assert!(matches!(c.admit(r(0)), Err(VodError::Config(_))));
    }

    #[test]
    fn allocate_unknown_stream_fails() {
        let mut c = controller();
        assert_eq!(
            c.allocate(r(9), Instant::ZERO, PERIOD),
            Err(VodError::UnknownRequest(r(9)))
        );
    }

    #[test]
    fn rejects_bad_t_log() {
        let p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
        assert!(AdmissionController::new(p, Seconds::ZERO).is_err());
    }
}
