//! The buffer-level, single-disk VOD server engine.
//!
//! See the crate docs for the service model. The engine is deterministic:
//! it consumes a pre-generated arrival trace and charges worst-case disk
//! latencies (the paper's own modelling assumption), so two runs of the
//! same trace are bit-identical.
//!
//! # Observability
//!
//! The engine emits typed [`vod_obs::Event`]s — cycle plans, services,
//! admissions/deferrals/rejections, buffer allocations, underflows, and
//! occupancy high-water marks — into the [`Obs`] handle passed to
//! [`DiskEngine::with_observer`]. Events carry only simulated time and
//! values the engine already computed, so an attached sink never perturbs
//! the run (asserted by `recorder_sink_does_not_perturb_the_run`).
//!
//! [`DiskEngine::new`] builds a detached engine, whose instrumentation
//! costs a single branch per site.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant as WallInstant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vod_core::scheme::Sizer;
use vod_core::AdmissionConstraint;
use vod_core::{memory, AdmissionController, ArrivalLog, SchemeKind, SystemParams};
use vod_disk::{Disk, LatencyModel};
use vod_obs::metrics::{
    Metrics, CTR_ADMITTED, CTR_CYCLES, CTR_DEFERRED, CTR_REJECTED, CTR_SERVICES, CTR_UNDERFLOWS,
    PHASE_ADMISSION, PHASE_CYCLE_PLAN, PHASE_SERVICE,
};
use vod_obs::span::{self, AnnoValue, SpanId, SpanKind, SpanStatus, TraceId};
use vod_obs::timeseries::{engine_series, Series, SeriesRecorder};
use vod_obs::{Event, EventKind, Histo, Obs, RejectReason};
use vod_sched::{AdmissionTiming, SchedulingMethod};
use vod_types::{Bits, ConfigError, Instant, RequestId, Seconds, VideoId};
use vod_workload::Arrival;

use crate::audit::AuditScorer;
use crate::metrics::{DiskRunStats, IlSample};
use crate::slab::{Slab, SlotId};
use crate::stream::Stream;

/// Configuration of one engine run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Disk, consumption rate, scheduling method, α.
    pub params: SystemParams,
    /// The buffer allocation scheme under test.
    pub scheme: SchemeKind,
    /// Retention horizon of the `k_log` estimator (`T_log`). The paper
    /// uses 40 min for Round-Robin and 20 min for Sweep\*/GSS\*.
    pub t_log: Seconds,
    /// Total memory available for buffers; `None` = unbounded (the
    /// latency experiments measure memory instead of limiting it).
    ///
    /// The reservation check runs at *arrival* time; a request deferred
    /// by Assumption 1 is not re-checked when it is finally admitted, so
    /// occupancy can transiently exceed the reservation model until the
    /// next departure. The multi-disk capacity experiments use
    /// [`crate::CapacitySim`], which reserves at admission, instead.
    pub memory_budget: Option<Bits>,
    /// Length of every video (for play-position ordering and end-of-video
    /// read capping).
    pub video_length: Seconds,
    /// How disk latency is charged per service: the worst case the sizing
    /// formulas assume (the paper's model), or sampled from actual head
    /// movement over the on-disk layout (a realism ablation — buffers are
    /// still *sized* for the worst case, so services complete early).
    pub latency_model: LatencyModel,
    /// Seed for the sampled-latency rotation draw (ignored under
    /// [`LatencyModel::WorstCase`]).
    pub latency_seed: u64,
    /// Number of physical disks the node's capacity is striped over
    /// (≥ 1). Purely an admission-side partition: each disk carries an
    /// equal share of the stream bound `N`, and a chaos `DiskDegrade`
    /// fault throttles one share without downing the node. `1` (the
    /// paper's single-disk model) is the default and the healthy path.
    pub disks: usize,
}

impl EngineConfig {
    /// The paper's configuration for a given method and scheme:
    /// `T_log` = 40 min (Round-Robin) / 20 min (Sweep\*, GSS\*),
    /// unbounded memory, 120-minute videos.
    #[must_use]
    pub fn paper(method: SchedulingMethod, scheme: SchemeKind) -> Self {
        let t_log = match method {
            SchedulingMethod::RoundRobin => Seconds::from_minutes(40.0),
            _ => Seconds::from_minutes(20.0),
        };
        EngineConfig {
            params: SystemParams::paper_defaults(method),
            scheme,
            t_log,
            memory_budget: None,
            video_length: Seconds::from_minutes(120.0),
            latency_model: LatencyModel::WorstCase,
            latency_seed: 0x5eed,
            disks: 1,
        }
    }
}

/// Scheme-specific runtime state.
enum SchemeState {
    /// Static and StaticMaxUse: no estimator, admission is `n < N`.
    Static,
    /// The naive Fig. 3 scheme: estimates `k` but does not enforce.
    Naive(ArrivalLog),
    /// The paper's scheme: full predict-and-enforce.
    Dynamic(Box<AdmissionController>),
}

/// A request waiting in the admission queue `Q`.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: RequestId,
    video: VideoId,
    arrived: Instant,
    viewing: Seconds,
    n_at_arrival: usize,
    /// The next virtual slot/period/group boundary after arrival — the
    /// earliest instant the scheduling method will first service this
    /// request (Fixed-Stretch slot semantics behind Eqs. 2–4).
    eligible_at: Instant,
    deferred_counted: bool,
    /// The lifecycle trace (observability only — pure data-flow).
    trace: TraceId,
}

/// §2.1's shared pool (the crate docs' memory model): `used(t) = levels −
/// CR·(draining·t − Σ tᵢ)` over all viewing streams, updated in O(1).
#[derive(Debug, Default, Clone, Copy)]
struct MemTracker {
    levels: f64,
    draining: f64,
    time_sum: f64,
    peak: f64,
}

impl MemTracker {
    fn used_at(&self, t: Instant, cr: f64) -> f64 {
        (self.levels - cr * (self.draining * t.as_secs_f64() - self.time_sum)).max(0.0)
    }
    fn on_first_fill(&mut self, t: Instant) {
        self.draining += 1.0;
        self.time_sum += t.as_secs_f64();
    }
    fn on_materialize(&mut self, old_time: Instant, new_time: Instant, consumed: Bits) {
        self.levels -= consumed.as_f64();
        self.time_sum += new_time.as_secs_f64() - old_time.as_secs_f64();
    }
    fn on_fill(&mut self, read: Bits) {
        self.levels += read.as_f64();
    }
    fn on_depart(&mut self, level: Bits, at: Instant) {
        self.levels -= level.as_f64();
        self.draining -= 1.0;
        self.time_sum -= at.as_secs_f64();
    }
    /// Updates the high-water mark; returns the new peak when one was set
    /// (so the caller can emit a [`Event::PoolOccupancy`] for it).
    fn observe(&mut self, t: Instant, cr: f64) -> Option<f64> {
        let u = self.used_at(t, cr);
        if u > self.peak {
            self.peak = u;
            Some(u)
        } else {
            None
        }
    }
}

/// Phase histograms, resolved once at construction (registration takes
/// a lock). The wall clock is read only when a registry is attached, and
/// then only at cycle boundaries (twice each) and around admission
/// passes that have an eligible request: never per service. The run
/// totals reach the registry once, from [`DiskRunStats`], when the run
/// ends (see [`DiskEngine::finalize`]). Nothing here is read back, so an
/// attached registry cannot perturb a run.
struct EngineMetrics {
    cycle_plan: Histo,
    service: Histo,
    admission: Histo,
    /// When the current cycle's planning ended. `None` when detached, and
    /// cleared on entry to the steppable API: a cycle planned in an
    /// earlier call would time the caller's work too, so it goes
    /// unsampled.
    planned_at: Option<WallInstant>,
}

impl EngineMetrics {
    fn resolve(m: &Metrics) -> Self {
        EngineMetrics {
            cycle_plan: m.histogram(PHASE_CYCLE_PLAN),
            service: m.histogram(PHASE_SERVICE),
            admission: m.histogram(PHASE_ADMISSION),
            planned_at: None,
        }
    }

    /// The wall clock, read only when a registry is attached.
    fn clock(&self) -> Option<WallInstant> {
        self.cycle_plan.is_attached().then(WallInstant::now)
    }

    /// Closes a cycle at `now` that performed `services` reads: one
    /// [`PHASE_SERVICE`] sample of its average per-service cost.
    fn close_cycle(&mut self, now: Option<WallInstant>, services: u64) {
        if let (Some(start), Some(end)) = (self.planned_at.take(), now) {
            if services > 0 {
                let secs = end.duration_since(start).as_secs_f64();
                self.service.record(secs / services as f64);
            }
        }
    }

    /// Ends the planning of a boundary pass that began at `boundary`:
    /// one [`PHASE_CYCLE_PLAN`] sample.
    fn plan_done(&mut self, boundary: Option<WallInstant>) {
        if let Some(start) = boundary {
            let now = WallInstant::now();
            self.cycle_plan
                .record(now.duration_since(start).as_secs_f64());
            self.planned_at = Some(now);
        }
    }
}

/// Time-series handles resolved once when a [`SeriesRecorder`] is
/// attached (see [`DiskEngine::set_series_recorder`]). Sampling is
/// emission-gated exactly like spans: with no recorder attached the
/// cycle boundary skips the sampling block entirely, and the sampled
/// values are ones the engine already maintains — an attached recorder
/// never perturbs the run (pinned by the non-perturbation tests).
struct EngineSeries {
    pool_used: std::sync::Arc<Series>,
    active_streams: std::sync::Arc<Series>,
    admission_headroom: std::sync::Arc<Series>,
    deferral_queue: std::sync::Arc<Series>,
    cycle_service: std::sync::Arc<Series>,
}

impl EngineSeries {
    fn resolve(rec: &SeriesRecorder) -> Self {
        EngineSeries {
            pool_used: rec.series(engine_series::POOL_USED_BITS),
            active_streams: rec.series(engine_series::ACTIVE_STREAMS),
            admission_headroom: rec.series(engine_series::ADMISSION_HEADROOM),
            deferral_queue: rec.series(engine_series::DEFERRAL_QUEUE_DEPTH),
            cycle_service: rec.series(engine_series::CYCLE_SERVICE_S),
        }
    }
}

/// The single-disk server engine.
pub struct DiskEngine {
    cfg: EngineConfig,
    /// `N`, the disk's stream bound (`SystemParams::max_requests`),
    /// fixed by the parameters and read on every admission and plan.
    big_n: usize,
    /// `CR × video_length`, a whole video's size in bits: the
    /// denominator of every [`position_key`].
    video_size: Bits,
    sizer: Sizer,
    scheme: SchemeState,
    t: Instant,
    streams: Slab<Stream>,
    /// Membership order of active streams: the Round-Robin ring, or the
    /// GSS\* order whose consecutive chunks are the groups. Unused by
    /// Sweep\*, whose roster is `order` itself (see
    /// [`Self::rebuild_order`]).
    base_order: Vec<SlotId>,
    /// The current cycle's service order and position. The cycle is
    /// over once `cursor == order.len()`.
    order: Vec<SlotId>,
    cursor: usize,
    cycle_start: Instant,
    cycle_active: bool,
    /// Reads performed in the current cycle (progress detection).
    cycle_services: u64,
    /// Mid-cycle insertions the current cycle can still absorb without
    /// pushing tail refills past their dues.
    cycle_insertions_left: usize,
    last_period: Option<Seconds>,
    pending: VecDeque<Pending>,
    /// Departure times of viewing streams, keyed for eager processing.
    /// Ordered by `(at, raw id)` exactly as before the slab refactor — the
    /// slot only rides along; raw ids are unique, so it never decides.
    departures: BinaryHeap<Reverse<(Instant, u64, SlotId)>>,
    /// Reused scratch for [`Self::sort_by_position`]: avoids a key-map
    /// allocation per cycle.
    sort_scratch: Vec<(f64, RequestId, SlotId)>,
    /// Single-entry memo of `worst_disk_latency(n)` — a pure function of
    /// the (fixed) disk profile and `n`, recomputed only when the active
    /// stream count changes. Exact: a hit returns the identical bits.
    dl_memo: Option<(usize, Seconds)>,
    /// Single-entry memo of [`Self::period_estimate`], pure in
    /// `(n, last_k)` for fixed parameters. Exact for the same reason.
    period_memo: Option<(usize, usize, Seconds)>,
    mem: MemTracker,
    conc_events: Vec<(Instant, i32)>,
    /// Scores each allocation's `k` estimate against the arrivals that
    /// land in its usage window (estimating schemes only).
    audit: AuditScorer,
    stats: DiskRunStats,
    last_k: usize,
    /// Physical drive model; present only under sampled latency.
    sampled_disk: Option<Box<Disk>>,
    rng: SmallRng,
    obs: Obs,
    m: EngineMetrics,
    /// Monotone id source for ingested requests (engine-owned so the
    /// steppable API and `run` mint identical id sequences).
    next_request_id: u64,
    /// Lifetime progress-step counter backing the no-progress guard.
    iters: u64,
    /// Scope seed for deterministic trace derivation (defaults to the
    /// latency seed; see [`Self::set_trace_scope`]).
    trace_seed: u64,
    /// The open cycle span, when tracing (trace + span id).
    cycle_span: Option<(TraceId, SpanId)>,
    /// Monotone cycle-span sequence (advances whether or not tracing is
    /// on, so span ids never depend on when a sink was attached).
    cycle_seq: u64,
    /// Whether per-cycle spans — cycle spans and steady-state service
    /// spans — are emitted when tracing (first-fill service spans always
    /// are). Long traced runs — the cluster bench — turn this off:
    /// per-cycle spans dominate the event volume without feeding the
    /// lifecycle audit. Emission-only; span sequence numbers advance
    /// regardless.
    trace_per_cycle: bool,
    /// Cycle-boundary time-series handles; `None` (the default) skips
    /// sampling entirely.
    series: Option<EngineSeries>,
    /// Chaos throttle on the effective stream bound: admission treats the
    /// disk bound as `max(1, ⌊capacity_factor·N⌋)`. `1.0` (the default)
    /// is the healthy path — every throttle site is gated on `< 1.0`, so
    /// an unthrottled run takes bit-identical branches to a build without
    /// the hook. A slower disk is exactly a smaller service capacity `N`,
    /// so tightening admission models `NodeSlow` without ever risking an
    /// Assumption-1 underflow.
    capacity_factor: f64,
    /// Chaos throttle on the memory budget: admission's reservation check
    /// compares against `memory_factor × budget`. `1.0` = healthy (same
    /// gating discipline as `capacity_factor`); no-op when the config has
    /// no budget.
    memory_factor: f64,
    /// Per-disk chaos throttles: the fraction of each disk's capacity
    /// share still available (`1.0` = healthy). One entry per configured
    /// disk. A degraded disk shrinks the node's effective stream bound
    /// by its share — partial capacity loss without downing the node.
    disk_factors: Vec<f64>,
    /// Chaos error-rate throttle in `[0, 1]`: the fraction of requests
    /// the node's disks fail and retry. Deterministic by the paper's
    /// equivalence — an error rate `r` is a capacity multiplier `1 − r`
    /// on the admission bound, never a random per-request coin flip.
    error_rate: f64,
    /// Cached product of every capacity-side throttle
    /// (`capacity_factor × (1 − error_rate) × mean(disk_factors)`),
    /// recomputed on each setter call so the admission path pays one
    /// comparison. Exactly `1.0` when healthy.
    capacity_combined: f64,
}

/// One stream (active or queued) evicted from a crashed engine — what a
/// cluster failover policy needs to re-dispatch it elsewhere.
#[derive(Clone, Copy, Debug)]
pub struct EvictedStream {
    /// The video the stream was playing.
    pub video: VideoId,
    /// Viewing time left at the crash instant (full `viewing` for
    /// requests that never started; may be zero for streams evicted at
    /// their departure boundary).
    pub viewing_left: Seconds,
    /// The lifecycle trace the stream rode (its root span was closed
    /// `Refused` at eviction; a migration mints a fresh trace).
    pub trace: TraceId,
    /// True for in-service streams, false for queued requests.
    pub was_active: bool,
}

/// Scope salt separating the engine's cycle-span trace from request
/// traces derived under the same seed.
const ENGINE_TRACE_SCOPE: u64 = 0x0063_7963_6c65; // "cycle"

/// The largest consumption deficit, in bits, that is float dust rather
/// than starvation. Levels are `f64` bit counts built from fills and
/// `CR·Δt` drains, and fills are capped to land exactly at zero at
/// departure, so a rounding residue of a few bits is expected; a real
/// shortfall is at least a slot's worth of playback, kilobits or more.
const UNDERFLOW_SLACK_BITS: f64 = 64.0;

/// Outcome of one engine progress step (see [`DiskEngine::step_body`]).
enum Step {
    /// Serviced a stream, planned a cycle, or advanced the clock.
    Progressed,
    /// No internal work left and no external event to wait for.
    Drained,
}

impl DiskEngine {
    /// Builds a detached engine: `with_observer(cfg, Obs::null())`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters.
    pub fn new(cfg: EngineConfig) -> Result<Self, ConfigError> {
        Self::with_observer(cfg, Obs::null())
    }

    /// Builds an engine emitting lifecycle events into `obs`. The handle
    /// is shared with the scheme's [`AdmissionController`] (estimator
    /// clamps). Any sink is observation-only: the run is bit-identical to
    /// one with [`Obs::null`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters.
    pub fn with_observer(cfg: EngineConfig, obs: Obs) -> Result<Self, ConfigError> {
        cfg.params.validate()?;
        if !cfg.video_length.is_valid_duration() || cfg.video_length <= Seconds::ZERO {
            return Err(ConfigError::new("video_length", "must be positive"));
        }
        if cfg.disks == 0 {
            return Err(ConfigError::new("disks", "must be at least 1"));
        }
        let rng = SmallRng::seed_from_u64(cfg.latency_seed);
        let sampled_disk = match cfg.latency_model {
            LatencyModel::WorstCase => None,
            LatencyModel::Sampled => Some(Box::new(Disk::new(cfg.params.disk.clone())?)),
        };
        let m = EngineMetrics::resolve(obs.metrics());
        let sizer = Sizer::new_instrumented(cfg.scheme, &cfg.params, obs.metrics())?;
        let scheme = match cfg.scheme {
            SchemeKind::Static | SchemeKind::StaticMaxUse => SchemeState::Static,
            SchemeKind::NaiveDynamic => SchemeState::Naive(ArrivalLog::new(cfg.t_log)),
            SchemeKind::Dynamic => {
                let mut ctl = AdmissionController::new_instrumented(
                    cfg.params.clone(),
                    cfg.t_log,
                    obs.metrics(),
                )?;
                ctl.set_observer(obs.clone());
                SchemeState::Dynamic(Box::new(ctl))
            }
        };
        let disk_factors = vec![1.0; cfg.disks];
        Ok(DiskEngine {
            big_n: cfg.params.max_requests(),
            video_size: cfg.params.cr() * cfg.video_length,
            cfg,
            sizer,
            scheme,
            t: Instant::ZERO,
            streams: Slab::new(),
            base_order: Vec::new(),
            order: Vec::new(),
            cursor: 0,
            cycle_start: Instant::ZERO,
            cycle_active: false,
            cycle_services: 0,
            cycle_insertions_left: usize::MAX,
            last_period: None,
            pending: VecDeque::new(),
            departures: BinaryHeap::new(),
            sort_scratch: Vec::new(),
            dl_memo: None,
            period_memo: None,
            mem: MemTracker::default(),
            conc_events: Vec::new(),
            audit: AuditScorer::default(),
            stats: DiskRunStats::default(),
            last_k: 0,
            sampled_disk,
            rng,
            obs,
            m,
            next_request_id: 0,
            iters: 0,
            trace_seed: 0,
            cycle_span: None,
            cycle_seq: 0,
            trace_per_cycle: true,
            series: None,
            capacity_factor: 1.0,
            memory_factor: 1.0,
            disk_factors,
            error_rate: 0.0,
            capacity_combined: 1.0,
        }
        .with_default_trace_scope())
    }

    fn with_default_trace_scope(mut self) -> Self {
        self.trace_seed = self.cfg.latency_seed;
        self
    }

    /// Re-scopes trace-id derivation (default: the latency seed).
    /// Cluster nodes and multi-seed runners give each engine a distinct
    /// scope so traces from concurrently running engines never collide
    /// in a shared JSONL stream. Observability only — no admission or
    /// service decision reads it.
    pub fn set_trace_scope(&mut self, seed: u64) {
        self.trace_seed = seed;
    }

    /// Toggles per-cycle spans — cycle spans and steady-state service
    /// spans (default on). With `false`, only each stream's *first-fill*
    /// service span is emitted — the one that closes the
    /// time-to-first-service window. Affects emission only: span
    /// sequencing and every scheduling decision are identical either way.
    pub fn set_per_cycle_tracing(&mut self, on: bool) {
        self.trace_per_cycle = on;
    }

    /// Attaches a [`SeriesRecorder`]: at every completed service cycle
    /// the engine samples pool occupancy, active streams, Assumption-1
    /// admission headroom, deferral-queue depth, and the cycle's service
    /// time into the recorder's series (see
    /// [`vod_obs::timeseries::engine_series`]). Observation-only — the
    /// sampled values are state the engine already maintains, so runs
    /// with and without a recorder are bit-identical.
    pub fn set_series_recorder(&mut self, rec: &SeriesRecorder) {
        self.series = Some(EngineSeries::resolve(rec));
    }

    /// Samples the cycle-boundary series, if a recorder is attached.
    /// `admission_headroom` takes `&mut self` (it advances the
    /// controller's min-aggregate cursor, a semantics-preserving lazy
    /// evaluation), so values are computed before the handles borrow.
    fn sample_series(&mut self) {
        if self.series.is_none() {
            return;
        }
        let t = self.t;
        let pool_used = self.mem.used_at(t, self.cfg.params.cr().as_f64());
        let active = self.streams.len() as f64;
        let headroom = self.admission_headroom() as f64;
        let queue = self.pending.len() as f64;
        let period = self.last_period.map(Seconds::as_secs_f64);
        let series = self.series.as_ref().expect("checked above");
        let ts = t.as_secs_f64();
        series.pool_used.push(ts, pool_used);
        series.active_streams.push(ts, active);
        series.admission_headroom.push(ts, headroom);
        series.deferral_queue.push(ts, queue);
        if let Some(p) = period {
            series.cycle_service.push(ts, p);
        }
    }

    /// The engine-scoped trace carrying cycle spans.
    fn engine_trace(&self) -> TraceId {
        TraceId::derive(self.trace_seed ^ ENGINE_TRACE_SCOPE, 0)
    }

    /// Runs the engine over a time-sorted arrival trace (all targeting
    /// this disk) and returns the measurements. The run continues until
    /// every admitted stream has departed.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not time-sorted, or if the engine fails to
    /// make progress (a bug, guarded by an iteration bound).
    #[must_use]
    pub fn run(mut self, arrivals: &[Arrival]) -> DiskRunStats {
        assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival trace must be time-sorted"
        );
        let mut ai = 0usize;
        // The trace is sorted, so the next unread arrival is the floor of
        // every instant still to come; past the last one nothing comes.
        let floor = |ai: usize| {
            arrivals
                .get(ai)
                .map_or(Instant::from_secs(f64::INFINITY), |a| a.at)
        };
        self.settle_arrivals_before(floor(0));

        loop {
            // Retire departures and ingest arrivals up to the current
            // time. Departures first: a request arriving "now" must see
            // the true number of streams in service, not corpses holding
            // slots until the cycle boundary.
            self.process_due_departures();
            while ai < arrivals.len() && arrivals[ai].at <= self.t {
                self.ingest(&arrivals[ai], TraceId::NONE);
                ai += 1;
                self.settle_arrivals_before(floor(ai));
            }
            match self.step_body(arrivals.get(ai).map(|a| a.at)) {
                Step::Progressed => {}
                Step::Drained => break,
            }
        }

        self.finalize()
    }

    /// One progress step of the service loop: plan/start a cycle, service
    /// the stream at the cursor, or jump the clock to the next event.
    /// `next_arrival` is the earliest *external* arrival the caller still
    /// holds — `run` passes the trace head, the steppable API passes its
    /// advance horizon — so idle jumps never skip over an ingestion point.
    ///
    /// The caller owns departure processing and arrival ingestion; this is
    /// the exact loop body `run` has always executed, factored out so a
    /// cluster front end can drive a node arrival-by-arrival with
    /// bit-identical results.
    fn step_body(&mut self, next_arrival: Option<Instant>) -> Step {
        // Generous progress bound: every step either services a buffer
        // or advances to the next event.
        self.iters += 1;
        assert!(
            self.iters < 200_000_000,
            "engine failed to make progress at {}",
            self.t
        );

        {
            if self.cursor >= self.order.len() {
                // ---- Cycle boundary ----
                let boundary = self.m.clock();
                let mut idle_cycle = false;
                if self.cycle_active {
                    self.last_period = Some(self.t - self.cycle_start);
                    self.stats.cycles += 1;
                    self.m.close_cycle(boundary, self.cycle_services);
                    self.cycle_active = false;
                    idle_cycle = self.cycle_services == 0;
                    if let Some((tr, sp)) = self.cycle_span.take() {
                        self.obs.span_end(self.t, tr, sp, SpanStatus::Ok);
                    }
                    self.sample_series();
                }
                self.process_due_departures();
                self.try_admissions();
                self.rebuild_order();

                if self.order.is_empty() {
                    self.m.plan_done(boundary);
                    // Idle: jump to the next external event (arrival,
                    // departure, or a queued request's slot boundary).
                    match self.next_event_horizon(next_arrival) {
                        Some(target) => self.t = target.max(self.t),
                        None => {
                            if self.pending.is_empty() {
                                return Step::Drained;
                            }
                            // Unreachable in practice: an empty roster
                            // admits freely; surviving queue entries were
                            // memory-rejected — drop them.
                            while let Some(p) = self.pending.pop_front() {
                                self.stats.rejected += 1;
                                let n = self.streams.len() + self.pending.len();
                                self.obs.emit_with(EventKind::RequestRejected, || {
                                    Event::RequestRejected {
                                        at: self.t,
                                        n,
                                        reason: RejectReason::QueueDropped,
                                    }
                                });
                                if self.obs.tracing() && !p.trace.is_none() {
                                    let root = SpanId::derive(p.trace, span::SEQ_REQUEST);
                                    let adm = SpanId::derive(p.trace, span::SEQ_ADMISSION);
                                    self.obs.span_annotate(
                                        self.t,
                                        p.trace,
                                        adm,
                                        "reject_reason",
                                        AnnoValue::Str(RejectReason::QueueDropped.label()),
                                    );
                                    self.obs.span_end(self.t, p.trace, adm, SpanStatus::Refused);
                                    self.obs
                                        .span_end(self.t, p.trace, root, SpanStatus::Refused);
                                }
                            }
                        }
                    }
                    return Step::Progressed;
                }

                let plan = self.plan_cycle_start(idle_cycle);
                self.m.plan_done(boundary);
                if idle_cycle && plan.is_some_and(|p| p.start <= self.t) {
                    // The last cycle read nothing and we would re-run it at
                    // the same instant: every stream is over-provisioned
                    // relative to its current allocation. Idle until just
                    // before the first buffer drains (or the next external
                    // event), where a refill is guaranteed to be non-empty
                    // and still completes in time.
                    let mut target = plan
                        .and_then(|p| p.fallback)
                        .expect("an idle cycle's plan carries its fallback");
                    if let Some(a) = next_arrival {
                        target = target.min(a);
                    }
                    if let Some(d) = self.earliest_departure() {
                        target = target.min(d);
                    }
                    if target > self.t {
                        self.t = target;
                        return Step::Progressed;
                    }
                }
                let Some(plan) = plan else {
                    // Nothing needs service: everyone is provisioned to
                    // departure. Jump to the earliest departure.
                    if let Some(d) = self.earliest_departure() {
                        self.t = match next_arrival {
                            Some(a) => a.min(d).max(self.t),
                            None => d.max(self.t),
                        };
                    }
                    return Step::Progressed;
                };
                let mut start = plan.start;
                if start < self.t {
                    start = self.t;
                }
                // Arrivals (and queued requests reaching their slot
                // boundary) before the planned start are handled first so
                // admission (and BubbleUp) can react.
                let next_external = [
                    next_arrival,
                    self.pending
                        .front()
                        .map(|p| p.eligible_at)
                        .filter(|&e| e > self.t),
                ]
                .iter()
                .flatten()
                .copied()
                .min();
                if let Some(e) = next_external {
                    if e < start {
                        self.t = e.max(self.t);
                        return Step::Progressed;
                    }
                }
                self.obs
                    .emit_with(EventKind::CyclePlanned, || Event::CyclePlanned {
                        at: self.t,
                        start,
                        planned: plan.start,
                        n: self.streams.len(),
                        due_min: plan.due_min,
                        insertion_budget: plan.insertion_budget,
                    });
                self.t = start;
                self.cycle_start = start;
                self.cursor = 0;
                self.cycle_active = true;
                let cseq = self.cycle_seq;
                self.cycle_seq += 1;
                if self.obs.tracing() && self.trace_per_cycle {
                    let tr = self.engine_trace();
                    let sp = SpanId::derive(tr, cseq);
                    self.obs.span_start(start, tr, sp, None, SpanKind::Cycle);
                    self.obs.span_annotate(
                        start,
                        tr,
                        sp,
                        "n",
                        AnnoValue::U64(self.streams.len() as u64),
                    );
                    self.cycle_span = Some((tr, sp));
                }
                self.cycle_services = 0;
                self.cycle_insertions_left = plan.insertion_budget;
                if let Some(peak) = self.mem.observe(self.t, self.cfg.params.cr().as_f64()) {
                    let streams = self.streams.len();
                    self.obs
                        .emit_with(EventKind::PoolOccupancy, || Event::PoolOccupancy {
                            at: self.t,
                            used: Bits::new(peak),
                            peak: Bits::new(peak),
                            streams,
                        });
                }
                return Step::Progressed;
            }

            // ---- Mid-cycle: service the stream at the cursor ----
            // BubbleUp admits after every service; GSS* at group
            // boundaries; Sweep* only at period boundaries (handled at
            // the cycle boundary above).
            let timing = self.cfg.params.method.admission_timing();
            if timing == AdmissionTiming::AfterCurrentService
                || (timing == AdmissionTiming::NextGroup && self.at_group_boundary())
            {
                self.try_admissions();
            }

            let slot = self.order[self.cursor];
            self.cursor += 1;
            let Some(s) = self.streams.get(slot) else {
                return Step::Progressed; // departed earlier in the cycle
            };
            if let Some(d) = s.departs_at() {
                if d <= self.t {
                    self.retire(slot, d, false);
                    return Step::Progressed;
                }
            }
            self.service(slot);
        }
        Step::Progressed
    }

    // ---------- steppable node API ----------

    /// The engine's simulated clock.
    #[must_use]
    pub fn now(&self) -> Instant {
        self.t
    }

    /// Streams currently in service.
    #[must_use]
    pub fn in_service(&self) -> usize {
        self.streams.len()
    }

    /// Requests waiting in the node-local admission queue `Q`.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Total load offered to this node: in-service plus queued streams.
    /// This is the count load-balancing dispatch policies compare.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.streams.len() + self.pending.len()
    }

    /// Requests deferred by Assumption-1 enforcement so far.
    #[must_use]
    pub fn deferrals(&self) -> u64 {
        self.stats.deferrals
    }

    /// How many more requests this node could take *right now* without
    /// an Assumption-1 deferral: `min(min_i(n_i + k_i), N)` minus
    /// everything already offered (in service or queued). Static/naive
    /// schemes only enforce the disk bound `N`. (`&mut` only to advance
    /// the controller's min-aggregate cursor; nothing is perturbed.)
    pub fn admission_headroom(&mut self) -> usize {
        let offered = self.streams.len() + self.pending.len();
        let eff = self.effective_max_requests();
        let bound = match &mut self.scheme {
            SchemeState::Dynamic(ctl) => ctl.admission_bound().min(eff),
            SchemeState::Static | SchemeState::Naive(_) => eff,
        };
        bound.saturating_sub(offered)
    }

    /// The disk-stream bound admission enforces: `N`, throttled to
    /// `max(1, ⌊combined·N⌋)` while any capacity-side fault is active,
    /// where `combined = capacity_factor × (1 − error_rate) ×
    /// mean(disk_factors)`. Scheduling (cycle planning, buffer sizing)
    /// keeps using the true `N` — only *admission* tightens, which can
    /// never cause an underflow.
    fn effective_max_requests(&self) -> usize {
        let n = self.big_n;
        if self.capacity_combined < 1.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let throttled = (n as f64 * self.capacity_combined).floor() as usize;
            throttled.max(1)
        } else {
            n
        }
    }

    /// Refreshes the cached capacity throttle product after any setter.
    /// The product of all-1.0 factors is exactly `1.0`, so a healthy
    /// engine keeps taking the unthrottled branch bit for bit.
    fn recompute_capacity_combined(&mut self) {
        let mean_disk = self.disk_factors.iter().sum::<f64>() / self.disk_factors.len() as f64;
        self.capacity_combined = self.capacity_factor * (1.0 - self.error_rate) * mean_disk;
    }

    /// Chaos hook: throttles this node's effective stream bound to
    /// `factor × N` (clamped to `[0, 1]`; `1.0` restores full capacity).
    /// Deterministic and admission-only: cycle planning and buffer sizing
    /// keep the true `N`.
    pub fn set_capacity_factor(&mut self, factor: f64) {
        self.capacity_factor = factor.clamp(0.0, 1.0);
        self.recompute_capacity_combined();
    }

    /// Chaos hook for a *partial* disk fault: disk `disk` keeps only
    /// `fraction` of its capacity share (clamped to `[0, 1]`; `1.0`
    /// heals it). With `d` configured disks each owns `N/d` of the
    /// stream bound, so degrading one disk multiplies the node's
    /// admission capacity by `(d − 1 + fraction) / d` — a fraction of
    /// the node throttles, the node stays up.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is outside the configured disk count.
    pub fn set_disk_factor(&mut self, disk: usize, fraction: f64) {
        assert!(
            disk < self.disk_factors.len(),
            "disk {disk} outside the {}-disk engine",
            self.disk_factors.len()
        );
        self.disk_factors[disk] = fraction.clamp(0.0, 1.0);
        self.recompute_capacity_combined();
    }

    /// Chaos hook: a deterministic error-rate fault. A disk failing a
    /// fraction `rate` of requests serves `(1 − rate) × N` streams, so
    /// under the paper's "slower disk ≡ smaller N" equivalence the rate
    /// maps to a capacity multiplier on the admission bound — no random
    /// per-request failures, runs stay replayable. Clamped to `[0, 1]`;
    /// `0.0` heals.
    pub fn set_error_rate(&mut self, rate: f64) {
        self.error_rate = rate.clamp(0.0, 1.0);
        self.recompute_capacity_combined();
    }

    /// Chaos hook: clears every throttle — capacity, memory, per-disk
    /// factors, and error rate — restoring the healthy path (a node
    /// rejoin heals partial faults along with whole-node ones).
    pub fn clear_throttles(&mut self) {
        self.capacity_factor = 1.0;
        self.memory_factor = 1.0;
        self.disk_factors.fill(1.0);
        self.error_rate = 0.0;
        self.capacity_combined = 1.0;
    }

    /// Chaos hook: scales the memory budget seen by admission's
    /// reservation check to `factor × budget` (clamped to `[0, 1]`;
    /// `1.0` restores the full budget). No-op when the engine has no
    /// memory budget configured. Existing streams keep their buffers —
    /// pressure only refuses *new* reservations, exactly like a shrunk
    /// budget at arrival time.
    pub fn set_memory_factor(&mut self, factor: f64) {
        self.memory_factor = factor.clamp(0.0, 1.0);
    }

    /// Memory headroom left under this node's budget if one more stream
    /// were admitted at `now`. Unbounded-memory nodes report the negated
    /// projected need, so "most headroom" still ranks by marginal cost.
    pub fn memory_headroom(&mut self, now: Instant) -> f64 {
        let offered = self.streams.len() + self.pending.len();
        let needed = self.reservation_memory(offered + 1, now).as_f64();
        match self.cfg.memory_budget {
            Some(budget) => self.throttled_budget(budget).as_f64() - needed,
            None => -needed,
        }
    }

    /// Pre-flight check for cluster dispatch: would an arrival offered at
    /// `now` pass this node's rejection rules *and* join service without
    /// an Assumption-1 deferral? A `false` verdict is what triggers
    /// overflow redirection to a sibling replica.
    pub fn would_accept(&mut self, now: Instant) -> bool {
        let offered = self.streams.len() + self.pending.len();
        offered < self.effective_max_requests()
            && self.admission_headroom() > 0
            && self.memory_admits(offered + 1, now)
    }

    /// Hands one arrival to the engine, exactly as [`Self::run`] would at
    /// the same instant: departures due by now retire first, then the
    /// request feeds the estimator and enters the admission queue (or is
    /// rejected). The caller must have advanced the engine to at least
    /// `a.at` (see [`Self::advance_to`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.at` is in the engine's future — offering early would
    /// leak estimator knowledge backwards in time.
    pub fn offer(&mut self, a: &Arrival) {
        self.offer_traced(a, TraceId::NONE);
    }

    /// [`Self::offer`], but continuing an externally minted trace (a
    /// cluster front end dispatching a request threads the dispatch
    /// trace through the node engine; [`TraceId::NONE`] derives one as
    /// [`Self::offer`] does). Observability only: the engine's admission
    /// and scheduling behave exactly as [`Self::offer`].
    pub fn offer_traced(&mut self, a: &Arrival, trace: TraceId) {
        assert!(
            a.at <= self.t,
            "arrival at {} offered before the engine reached it (now {})",
            a.at,
            self.t
        );
        self.process_due_departures();
        self.ingest(a, trace);
    }

    /// Runs all internal work — services, departures, node-local
    /// admissions — until the clock reaches `horizon`. `horizon` plays
    /// the role of the next trace arrival in [`Self::run`]'s loop, so a
    /// subsequent [`Self::offer`] at `horizon` lands exactly where `run`
    /// would have ingested it.
    pub fn advance_to(&mut self, horizon: Instant) {
        self.m.planned_at = None;
        while self.t < horizon {
            self.process_due_departures();
            match self.step_body(Some(horizon)) {
                Step::Progressed => {}
                Step::Drained => {
                    self.t = horizon;
                    break;
                }
            }
        }
    }

    /// Declares that no later offer carries an arrival instant below `t`
    /// (pass `Instant::from_secs(f64::INFINITY)` when no offers follow).
    /// Audit windows ending before `t` can then be scored and dropped;
    /// without a floor they stay open until [`Self::finish`]. Any
    /// arrival order at or above the floor scores exactly — a cluster's
    /// overflow retries offer old instants, so a cluster declares the
    /// oldest instant it may still retry. A floor below an earlier one is
    /// ignored.
    ///
    /// Offering an instant below the floor afterwards is a caller bug
    /// that would mis-score the audit; under an estimating scheme, debug
    /// builds panic on it.
    pub fn settle_arrivals_before(&mut self, t: Instant) {
        self.audit.settle_before(t);
    }

    /// Drains the engine — no further arrivals will be offered — and
    /// returns the run measurements, exactly as [`Self::run`] does after
    /// its trace is exhausted.
    #[must_use]
    pub fn finish(mut self) -> DiskRunStats {
        // The drain's allocations score as they open.
        self.settle_arrivals_before(Instant::from_secs(f64::INFINITY));
        self.m.planned_at = None;
        loop {
            self.process_due_departures();
            match self.step_body(None) {
                Step::Progressed => {}
                Step::Drained => break,
            }
        }
        self.finalize()
    }

    /// Chaos hook: a node crash. Evicts every active stream (in the
    /// deterministic admission-ring order) and every queued request
    /// (FIFO), closing their lifecycle spans `Refused` with an
    /// `"evicted"` annotation, and returns descriptors a failover policy
    /// can re-dispatch. An evicted stream leaves through the same retire
    /// path as a departure — memory released, concurrency decremented,
    /// the controller notified — so the run stays internally consistent; the
    /// evictions are *not* counted as departures-with-service or as
    /// rejections (chaos accounting owns those outcomes). The engine
    /// survives empty: it can be advanced, rejoined, and offered new
    /// arrivals, with its estimator log and cumulative stats intact.
    pub fn evict_all(&mut self) -> Vec<EvictedStream> {
        let at = self.t;
        // The in-flight cycle dies with the node.
        if let Some((tr, sp)) = self.cycle_span.take() {
            self.obs.span_end(at, tr, sp, SpanStatus::Ok);
        }
        self.cycle_active = false;
        self.cycle_services = 0;
        self.cycle_insertions_left = usize::MAX;
        let ring = match self.cfg.params.method {
            // Sweep*'s roster is in sweep order; its admission order is
            // request-id order (see `rebuild_order`).
            SchedulingMethod::Sweep => {
                let mut roster = std::mem::take(&mut self.order);
                roster.sort_unstable_by_key(|&s| self.streams.get(s).map(|st| st.id));
                roster
            }
            SchedulingMethod::RoundRobin | SchedulingMethod::Gss { .. } => {
                self.order.clear();
                std::mem::take(&mut self.base_order)
            }
        };
        self.cursor = 0;
        let mut out = Vec::with_capacity(self.streams.len() + self.pending.len());
        for slot in ring {
            let Some(s) = self.retire(slot, at, true) else {
                continue; // stale ring entry (stream already departed)
            };
            let viewing_left = match s.first_data_at {
                Some(first) => {
                    let watched = at - first;
                    if watched >= s.viewing {
                        Seconds::ZERO
                    } else {
                        s.viewing - watched
                    }
                }
                None => s.viewing,
            };
            out.push(EvictedStream {
                video: s.video,
                viewing_left,
                trace: s.trace,
                was_active: true,
            });
        }
        while let Some(p) = self.pending.pop_front() {
            if self.obs.tracing() && !p.trace.is_none() {
                let root = SpanId::derive(p.trace, span::SEQ_REQUEST);
                let adm = SpanId::derive(p.trace, span::SEQ_ADMISSION);
                self.obs.span_end(at, p.trace, adm, SpanStatus::Refused);
                self.obs
                    .span_annotate(at, p.trace, root, "evicted", AnnoValue::Str("node_crash"));
                self.obs.span_end(at, p.trace, root, SpanStatus::Refused);
            }
            out.push(EvictedStream {
                video: p.video,
                viewing_left: p.viewing,
                trace: p.trace,
                was_active: false,
            });
        }
        // Every heap entry is now stale; drop them instead of letting
        // lazy deletion sweep thousands of corpses one by one.
        self.departures.clear();
        self.dl_memo = None;
        self.period_memo = None;
        out
    }

    /// Lazily places a video on the sampled drive the first time any
    /// stream plays it (contiguous placement in id order, §2.1's layout).
    fn ensure_placed(disk: &mut Disk, video: VideoId, cr: vod_types::BitRate, length: Seconds) {
        if disk.layout().extent(video).is_none() {
            let _ = disk.place_video(video, cr * length);
        }
    }

    /// Records a consumption deficit larger than [`UNDERFLOW_SLACK_BITS`]
    /// as an underflow.
    fn note_deficit(&mut self, id: RequestId, at: Instant, deficit: Bits) {
        if deficit.as_f64() > UNDERFLOW_SLACK_BITS {
            self.stats.underflows += 1;
            self.stats.underflow_deficit += deficit;
            let n = self.streams.len();
            self.obs
                .emit_with(EventKind::Underflow, || Event::Underflow {
                    at,
                    id,
                    n,
                    deficit,
                });
        }
    }

    // ---------- arrival / admission ----------

    fn ingest(&mut self, a: &Arrival, trace: TraceId) {
        let id = RequestId::new(self.next_request_id);
        self.next_request_id += 1;
        // The request's lifecycle trace: continue the caller's (cluster
        // dispatch) or, given `NONE`, derive one from the scope seed and
        // the request id. Derivation is unconditional and pure, so
        // attaching a sink can never change the id sequence.
        let trace = match trace {
            TraceId::NONE => TraceId::derive(self.trace_seed, id.raw()),
            t => t,
        };
        let root = SpanId::derive(trace, span::SEQ_REQUEST);
        if self.obs.tracing() {
            self.obs
                .span_start(a.at, trace, root, None, SpanKind::Request);
            self.obs
                .span_annotate(a.at, trace, root, "video", AnnoValue::U64(a.video.raw()));
        }
        // Every arrival feeds the estimator and its audit, admitted or
        // not.
        match &mut self.scheme {
            SchemeState::Dynamic(ctl) => ctl.note_arrival(a.at),
            SchemeState::Naive(log) => log.record(a.at),
            SchemeState::Static => {}
        }
        if !matches!(self.scheme, SchemeState::Static) {
            self.audit.note_arrival(a.at);
        }
        let n = self.streams.len() + self.pending.len();
        // Immediate rejection rules (the paper's admission control at N,
        // plus the memory reservation when a budget is set). Queued
        // requests count: a request the disk can never absorb is rejected
        // now, not parked for an hour.
        if n >= self.effective_max_requests() {
            self.stats.rejected += 1;
            self.obs
                .emit_with(EventKind::RequestRejected, || Event::RequestRejected {
                    at: a.at,
                    n,
                    reason: RejectReason::DiskFull,
                });
            self.end_refused(a.at, trace, root, RejectReason::DiskFull);
            return;
        }
        if !self.memory_admits(n + 1, a.at) {
            self.stats.rejected += 1;
            self.obs
                .emit_with(EventKind::RequestRejected, || Event::RequestRejected {
                    at: a.at,
                    n,
                    reason: RejectReason::MemoryFull,
                });
            self.end_refused(a.at, trace, root, RejectReason::MemoryFull);
            return;
        }
        if self.obs.tracing() {
            let adm = SpanId::derive(trace, span::SEQ_ADMISSION);
            self.obs
                .span_start(a.at, trace, adm, Some(root), SpanKind::Admission);
        }
        let grid = self.admission_grid().as_secs_f64().max(1e-9);
        let next = (a.at.as_secs_f64() / grid).floor() + 1.0;
        self.pending.push_back(Pending {
            id,
            video: a.video,
            arrived: a.at,
            viewing: a.viewing,
            n_at_arrival: self.streams.len(),
            eligible_at: Instant::from_secs(next * grid),
            deferred_counted: false,
            trace,
        });
    }

    /// Closes a request's root span as refused with the reason that
    /// rejected it (immediate disk/memory rejection — no admission span
    /// was ever opened).
    fn end_refused(&self, at: Instant, trace: TraceId, root: SpanId, reason: RejectReason) {
        if self.obs.tracing() {
            self.obs.span_annotate(
                at,
                trace,
                root,
                "reject_reason",
                AnnoValue::Str(reason.label()),
            );
            self.obs.span_end(at, trace, root, SpanStatus::Refused);
        }
    }

    fn memory_admits(&mut self, prospective_n: usize, now: Instant) -> bool {
        let Some(budget) = self.cfg.memory_budget else {
            return true;
        };
        let budget = self.throttled_budget(budget);
        self.reservation_memory(prospective_n, now) <= budget
    }

    /// The memory budget after any active `MemoryPressure` throttle.
    fn throttled_budget(&self, budget: Bits) -> Bits {
        if self.memory_factor < 1.0 {
            budget * self.memory_factor
        } else {
            budget
        }
    }

    /// The per-scheme reservation-model memory need at `prospective_n`
    /// streams (the quantity [`Self::memory_admits`] compares against the
    /// budget). Factored out so cluster dispatch can rank replicas by it.
    fn reservation_memory(&mut self, prospective_n: usize, now: Instant) -> Bits {
        let period = self.period_estimate();
        match &mut self.scheme {
            SchemeState::Static => memory::min_memory_static(&self.cfg.params, prospective_n),
            SchemeState::Naive(log) => {
                let k = log.k_log(now, period) + self.cfg.params.alpha as usize;
                let bs = self.sizer.size(prospective_n, k);
                memory::min_memory_with(&self.cfg.params, bs, prospective_n, k)
            }
            SchemeState::Dynamic(ctl) => {
                let (k, _) = ctl.estimate_k(now, period);
                memory::min_memory_dynamic(&self.cfg.params, ctl.table(), prospective_n, k)
            }
        }
    }

    fn try_admissions(&mut self) {
        // Nothing to do on the overwhelmingly common empty/ineligible
        // queue: bail before reading the clock, so the admission phase
        // times actual admission work only.
        match self.pending.front() {
            None => return,
            Some(head) if head.eligible_at > self.t => return,
            Some(_) => {}
        }
        let start = self.m.clock();
        self.admit_eligible();
        if let Some(start) = start {
            self.m.admission.record(start.elapsed().as_secs_f64());
        }
    }

    /// Admits queued requests in FIFO order until the head is not yet
    /// eligible, cannot be inserted into the running cycle, or is
    /// deferred.
    fn admit_eligible(&mut self) {
        loop {
            let Some(head) = self.pending.front().copied() else {
                return;
            };
            if head.eligible_at > self.t {
                return; // its slot boundary has not arrived yet (FIFO)
            }
            let mid_cycle = self.cycle_active && self.cursor < self.order.len();
            if mid_cycle && self.cycle_insertions_left == 0 {
                // The running cycle budgeted its start for a bounded
                // number of insertions; more would starve tail refills.
                // The request joins at the next cycle boundary.
                return;
            }
            let n = self.streams.len();
            if n >= self.effective_max_requests() {
                return; // wait for departures (deferred, not rejected)
            }
            let admitted = match &mut self.scheme {
                SchemeState::Static | SchemeState::Naive(_) => true,
                SchemeState::Dynamic(ctl) => {
                    if ctl.can_admit() {
                        ctl.admit(head.id).is_ok()
                    } else {
                        false
                    }
                }
            };
            if !admitted {
                // Deferred by Assumption 1: count once per request, keep
                // FIFO order.
                let mut newly_deferred = false;
                if let Some(front) = self.pending.front_mut() {
                    if !front.deferred_counted {
                        front.deferred_counted = true;
                        self.stats.deferrals += 1;
                        newly_deferred = true;
                    }
                }
                if newly_deferred {
                    self.obs
                        .emit_with(EventKind::RequestDeferred, || Event::RequestDeferred {
                            at: self.t,
                            id: head.id,
                            n,
                        });
                    if self.obs.tracing() && !head.trace.is_none() {
                        // Name the BS_k(n) constraint that deferred it.
                        self.annotate_constraint(head.trace);
                    }
                }
                return;
            }
            self.pending.pop_front();
            self.admit_stream(head);
        }
    }

    /// Annotates `trace`'s admission span, now, with the bound that
    /// decides its request: the controller's binding `BS_k(n)`
    /// constraint, or the disk bound `N` for the schemes that admit on
    /// `n < N` alone. Returns the admission span.
    fn annotate_constraint(&mut self, trace: TraceId) -> SpanId {
        let c = match &mut self.scheme {
            SchemeState::Dynamic(ctl) => ctl.binding_constraint(),
            SchemeState::Static | SchemeState::Naive(_) => {
                AdmissionConstraint::DiskBound { bound: self.big_n }
            }
        };
        let adm = SpanId::derive(trace, span::SEQ_ADMISSION);
        self.obs
            .span_annotate(self.t, trace, adm, "constraint", AnnoValue::Str(c.label()));
        self.obs.span_annotate(
            self.t,
            trace,
            adm,
            "bound",
            AnnoValue::U64(c.bound() as u64),
        );
        adm
    }

    /// The virtual service-grid granularity the admitted request must
    /// align to: one stretched slot `Δ = DL + BS/TR` for Round-Robin
    /// (BubbleUp services the newcomer after the slot in execution), a
    /// full period `n·Δ` for Sweep\*, and a group `g·Δ` for GSS\*. This
    /// is the Fixed-Stretch slot structure the paper's Eqs. 2–4 assume;
    /// without it an idle server would admit every newcomer with bare-DL
    /// latency regardless of the buffer size, flattening Fig. 11.
    fn admission_grid(&self) -> Seconds {
        let n = self.streams.len().max(1);
        let dl = self
            .cfg
            .params
            .method
            .worst_disk_latency(&self.cfg.params.disk, n);
        let size = self
            .sizer
            .size(n, self.last_k.max(self.cfg.params.alpha as usize));
        let delta = dl + size / self.cfg.params.tr();
        match self.cfg.params.method.admission_timing() {
            AdmissionTiming::AfterCurrentService => delta,
            AdmissionTiming::NextPeriod => delta * n as f64,
            AdmissionTiming::NextGroup => {
                delta * self.cfg.params.method.effective_group_size(n) as f64
            }
        }
    }

    fn admit_stream(&mut self, p: Pending) {
        let mut stream = Stream::new(p.id, p.video, p.arrived, p.viewing);
        stream.n_at_arrival = p.n_at_arrival;
        stream.eligible_at = p.eligible_at.max(self.t);
        stream.trace = p.trace;
        let slot = self.streams.insert(stream);
        self.stats.admitted += 1;
        self.conc_events.push((self.t, 1));
        let n_now = self.streams.len();
        self.obs
            .emit_with(EventKind::RequestAdmitted, || Event::RequestAdmitted {
                at: self.t,
                id: p.id,
                n: n_now,
                waited: self.t - p.arrived,
            });
        if self.obs.tracing() && !p.trace.is_none() {
            // The bound that *allowed* the admission (mirrors the
            // deferral annotation so traces always name the decider).
            let adm = self.annotate_constraint(p.trace);
            self.obs
                .span_end(self.t, p.trace, adm, SpanStatus::Admitted);
        }
        // BubbleUp: service the newcomer right after the current service
        // AND keep it at that ring position (base_order is the ring).
        // GSS*: join at the next group boundary, persistently.
        // Sweep*: next cycle. Admission runs only at a cycle boundary,
        // where `cursor == order.len()`, so the newcomer appended to the
        // roster waits for the position sort in `rebuild_order`.
        match self.cfg.params.method.admission_timing() {
            AdmissionTiming::AfterCurrentService => {
                if self.cursor < self.order.len() {
                    self.cycle_insertions_left = self.cycle_insertions_left.saturating_sub(1);
                    // The ring slot just before the stream serviced next.
                    let anchor = self.order[self.cursor];
                    let ring_pos = self
                        .base_order
                        .iter()
                        .position(|&x| x == anchor)
                        .unwrap_or(self.base_order.len());
                    self.base_order.insert(ring_pos, slot);
                    self.order.insert(self.cursor, slot);
                } else {
                    self.base_order.push(slot);
                }
            }
            AdmissionTiming::NextGroup => {
                if self.cursor < self.order.len() {
                    self.cycle_insertions_left = self.cycle_insertions_left.saturating_sub(1);
                    let g = self
                        .cfg
                        .params
                        .method
                        .effective_group_size(self.streams.len());
                    let boundary = (self.cursor).div_ceil(g) * g;
                    let at = boundary.min(self.order.len());
                    // Membership order mirrors the cycle's chunk layout,
                    // so the same index keeps groups consistent.
                    let base_at = at.min(self.base_order.len());
                    self.base_order.insert(base_at, slot);
                    self.order.insert(at, slot);
                } else {
                    self.base_order.push(slot);
                }
            }
            AdmissionTiming::NextPeriod => {
                debug_assert!(!self.cycle_active, "Sweep* admits between cycles only");
                self.order.push(slot);
            }
        }
    }

    // ---------- service ----------

    fn service(&mut self, slot: SlotId) {
        let cr = self.cfg.params.cr();
        let crf = cr.as_f64();
        let n_active = self.streams.len();
        let now = self.t;
        let id = self.streams[slot].id;

        // Allocation: compute (n_c, k_c) per scheme. The static scheme
        // never reads the period estimate, so it skips the computation
        // outright (the estimate only ever fed the estimating arms).
        let (n_c, k_c, audit) = match &self.scheme {
            SchemeState::Static => (self.big_n, 0, false),
            _ => {
                let period = self.period_estimate();
                match &mut self.scheme {
                    SchemeState::Static => unreachable!("matched above"),
                    SchemeState::Naive(log) => {
                        let k = log.k_log(now, period) + self.cfg.params.alpha as usize;
                        (n_active, k, true)
                    }
                    SchemeState::Dynamic(ctl) => {
                        let alloc = ctl
                            .allocate(id, now, period)
                            .expect("serviced streams are admitted");
                        (alloc.n, alloc.k, true)
                    }
                }
            }
        };
        self.last_k = k_c;

        let mut size = self.sizer.size(n_c, k_c);
        // StaticMaxUse: spread unused budget over in-service streams.
        if self.cfg.scheme == SchemeKind::StaticMaxUse {
            if let Some(budget) = self.cfg.memory_budget {
                let reserved = memory::min_memory_static(&self.cfg.params, n_active);
                let spare = (budget - reserved).clamp_non_negative();
                let extra = (spare / n_active.max(1) as f64).min(self.sizer.max_size());
                size += extra;
            }
        }

        // Data starts flowing once the seek completes; from then on the
        // transfer feeds the stream at TR ≫ CR, so the buffer only has to
        // cover consumption up to the end of the seek (the same seek-phase
        // accounting behind Theorem 2's `+ n·CR·DL` term and the `2·DL`
        // of Eq. 2). We model the fill as landing at the seek's end.
        //
        // Worst-case mode charges the per-method DL the sizing assumes;
        // sampled mode moves the real head over the on-disk layout and
        // draws the rotational delay, so services usually complete early
        // (the buffers stay sized for the worst case).
        let dl = match self.sampled_disk.is_some() {
            false => self.dl_for(n_active),
            true => {
                let disk = self
                    .sampled_disk
                    .as_deref_mut()
                    .expect("checked is_some above");
                let stream = &self.streams[slot];
                Self::ensure_placed(
                    disk,
                    stream.video,
                    self.cfg.params.cr(),
                    self.cfg.video_length,
                );
                let rotation: f64 = self.rng.gen();
                disk.read(stream.video, stream.consumed, Bits::ZERO, rotation)
                    .map(|o| o.latency())
                    .unwrap_or_else(|_| {
                        self.cfg
                            .params
                            .method
                            .worst_disk_latency(&self.cfg.params.disk, n_active)
                    })
            }
        };
        let t_data = now + dl;

        let stream = self.streams.get_mut(slot).expect("caller checked presence");
        let started = stream.viewing_started();
        let old_time = stream.level_at_time();
        let upd = stream.advance_to(t_data, cr);
        if started {
            self.mem.on_materialize(old_time, t_data, upd.consumed);
        }
        self.note_deficit(id, t_data, upd.deficit);

        let stream = &mut self.streams[slot];
        let mut read = (size - stream.level()).clamp_non_negative();
        let demand_cap = match stream.remaining_demand(t_data, cr) {
            Some(rem) => (rem - stream.level()).clamp_non_negative(),
            // First fill: the stream will watch `viewing` long.
            None => cr * stream.viewing,
        };
        read = read.min(demand_cap);
        if !started {
            // Even a vanishingly short viewing gets a (tiny) first fill,
            // so every admitted stream starts and eventually departs.
            read = read.max(Bits::new(8.0));
        }

        if read.as_f64() <= 0.0 {
            // Over-provisioned (the allocation shrank below the current
            // level): genuinely nothing to read. Every other stream is
            // refilled every cycle, as the paper's service model requires —
            // the usage-period budgets are equality-tight, so a deferred
            // top-up would push later refills past their dues.
            return;
        }

        let t_done = t_data + read / self.cfg.params.tr();

        // Track the allocation size for buffer-lifecycle events. The
        // update is unconditional (sink or no sink) so instrumented runs
        // stay bit-identical — as is the span-sequence advance, so span
        // ids never depend on when (or whether) a sink was attached.
        let prev_alloc = stream.last_alloc;
        stream.last_alloc = size;
        let trace = stream.trace;
        let svc_seq = stream.span_seq;
        stream.span_seq += 1;
        stream.fill(t_data, read);
        if !started {
            self.obs
                .emit_with(EventKind::BufferAllocated, || Event::BufferAllocated {
                    at: t_data,
                    id,
                    size,
                });
            self.departures
                .push(Reverse((t_data + stream.viewing, id.raw(), slot)));
            self.mem.on_first_fill(t_data);
            // Initial latency ends when the first data reaches memory —
            // the end of the seek, as in Eq. 2's derivation.
            let latency = t_data - stream.arrived;
            self.stats.il_samples.push(IlSample {
                arrived: stream.arrived,
                n_at_arrival: stream.n_at_arrival,
                latency,
            });
        } else if prev_alloc != size {
            self.obs
                .emit_with(EventKind::BufferResized, || Event::BufferResized {
                    at: t_data,
                    id,
                    old_size: prev_alloc,
                    new_size: size,
                });
        }
        self.mem.on_fill(read);
        // Consumption during the transfer cannot underflow (TR > CR and
        // the data is already booked); just materialize it.
        let upd = stream.advance_to(t_done, cr);
        self.mem.on_materialize(t_data, t_done, upd.consumed);
        if let Some(peak) = self.mem.observe(t_done, crf) {
            self.obs
                .emit_with(EventKind::PoolOccupancy, || Event::PoolOccupancy {
                    at: t_done,
                    used: Bits::new(peak),
                    peak: Bits::new(peak),
                    streams: n_active,
                });
        }

        if audit {
            let slot = dl + size / self.cfg.params.tr();
            self.audit.open(now, slot * (n_c + k_c) as f64, k_c);
        }

        self.obs
            .emit_with(EventKind::StreamServiced, || Event::StreamServiced {
                at: t_done,
                id,
                n: n_c,
                k: k_c,
                read,
                size,
                duration: t_done - now,
                first_fill: !started,
            });
        self.stats.services += 1;
        self.cycle_services += 1;
        if self.obs.tracing() && !trace.is_none() && (self.trace_per_cycle || !started) {
            let root = SpanId::derive(trace, span::SEQ_REQUEST);
            let sp = SpanId::derive(trace, svc_seq);
            self.obs
                .span_start(now, trace, sp, Some(root), SpanKind::Service);
            self.obs
                .span_annotate(t_done, trace, sp, "n", AnnoValue::U64(n_c as u64));
            self.obs
                .span_annotate(t_done, trace, sp, "k", AnnoValue::U64(k_c as u64));
            self.obs.span_annotate(
                t_done,
                trace,
                sp,
                "read_bits",
                AnnoValue::F64(read.as_f64()),
            );
            self.obs.span_annotate(
                t_done,
                trace,
                sp,
                "size_bits",
                AnnoValue::F64(size.as_f64()),
            );
            if !started {
                self.obs
                    .span_annotate(t_done, trace, sp, "first_fill", AnnoValue::U64(1));
            }
            self.obs.span_end(t_done, trace, sp, SpanStatus::Ok);
        }
        self.t = t_done;
    }

    /// The next *interesting* time for an idle engine (no stream needs
    /// service right now): the minimum over the caller's next workload
    /// arrival, the earliest departure on the heap, and the deferral
    /// queue's next slot boundary. The clock crosses the whole idle
    /// stretch in one jump to it.
    fn next_event_horizon(&self, next_arrival: Option<Instant>) -> Option<Instant> {
        [
            next_arrival,
            self.earliest_departure(),
            self.pending.front().map(|p| p.eligible_at),
        ]
        .iter()
        .flatten()
        .copied()
        .min()
    }

    // ---------- cycle planning ----------

    /// Rebuilds the next cycle's service order.
    ///
    /// Round-Robin keeps a **persistent ring**: a newcomer bubbled in at
    /// the cursor stays at that ring position forever, so the gap between
    /// its consecutive services is exactly one ring pass — the usage
    /// period its buffer was sized for. (Rebuilding from admission order
    /// would let a bubbled-up stream fall back ~a full extra period and
    /// underflow.)
    ///
    /// Sweep\*/GSS\* sort by play position **ascending only** (a
    /// C-SCAN-style one-directional sweep): since all streams advance at
    /// the same `CR`, ranks are stable across periods, keeping each
    /// stream's inter-service gap at one period. An alternating elevator
    /// would flip ranks every pass (first → last), doubling the gap and
    /// violating the sizing budget.
    ///
    /// Sweep\* keeps its roster in `order`, in the last cycle's sorted
    /// order: departed streams drop out, newcomers were appended by
    /// `admit_stream`, and the sort mostly finds the roster still in
    /// order. Its ties break by request id. That reproduces a stable sort
    /// of the roster in admission order, because Sweep\*'s admission
    /// order *is* id order: it admits only at period boundaries, from the
    /// FIFO queue, and `ingest` mints ids in arrival order.
    ///
    /// GSS\* has no such invariant — it inserts newcomers at group
    /// boundaries, so its membership order is not id order — and ties in
    /// play position do occur (same video, same instant). Each chunk is
    /// therefore re-sorted from membership order every cycle, stably,
    /// with no id tie-break.
    fn rebuild_order(&mut self) {
        let streams = &self.streams;
        match self.cfg.params.method {
            SchedulingMethod::RoundRobin => {
                // `base_order` is the ring itself.
                self.base_order.retain(|&s| streams.contains(s));
                self.order.clear();
                self.order.extend(self.base_order.iter().copied());
            }
            SchedulingMethod::Sweep => {
                self.order.retain(|&s| streams.contains(s));
                self.sort_by_position(0, self.order.len(), true);
            }
            SchedulingMethod::Gss { .. } => {
                // Groups are consecutive chunks of the membership order;
                // each chunk is swept internally.
                self.base_order.retain(|&s| streams.contains(s));
                self.order.clear();
                self.order.extend(self.base_order.iter().copied());
                let g = self
                    .cfg
                    .params
                    .method
                    .effective_group_size(self.order.len());
                let len = self.order.len();
                let mut i = 0;
                while i < len {
                    let end = (i + g).min(len);
                    self.sort_by_position(i, end, false);
                    i = end;
                }
            }
        }
        self.cursor = self.order.len(); // caller sets 0 when the cycle starts
    }

    /// Sorts `order[from..to]` by play position without allocating: keys
    /// are computed once into a reused scratch vector, and an O(n)
    /// already-sorted check skips the sort when the range is in order.
    /// `by_id` breaks key ties by request id (Sweep\*'s persistent
    /// roster, whose previous order the check mostly confirms); without
    /// it the sort is *stable*, so equal keys keep their membership order
    /// (GSS\*, whose chunks are rebuilt from membership order each
    /// cycle). Keys are never NaN or `-0.0` (clamped fractions of
    /// non-negative values added to a non-negative video id), so
    /// `total_cmp` is the numeric order.
    fn sort_by_position(&mut self, from: usize, to: usize, by_id: bool) {
        let cmp = |a: &(f64, RequestId, SlotId), b: &(f64, RequestId, SlotId)| {
            let by_key = a.0.total_cmp(&b.0);
            if by_id {
                by_key.then(a.1.cmp(&b.1))
            } else {
                by_key
            }
        };
        let mut scratch = std::mem::take(&mut self.sort_scratch);
        scratch.clear();
        scratch.extend(self.order[from..to].iter().map(|&slot| {
            let s = &self.streams[slot];
            (position_key(s, self.video_size), s.id, slot)
        }));
        if !scratch.windows(2).all(|w| cmp(&w[0], &w[1]).is_le()) {
            scratch.sort_by(cmp);
            for (dst, &(_, _, slot)) in self.order[from..to].iter_mut().zip(scratch.iter()) {
                *dst = slot;
            }
        }
        self.sort_scratch = scratch;
    }
}

/// A monotone proxy for the on-disk cylinder of a stream's play point:
/// videos are laid out contiguously in id order, and the play point
/// advances with consumption. `video_size` is `CR × video_length`.
fn position_key(s: &Stream, video_size: Bits) -> f64 {
    let frac = (s.consumed / video_size).clamp(0.0, 1.0);
    s.video.raw() as f64 + frac
}

/// The planner's verdict for the next service cycle.
#[derive(Clone, Copy, Debug)]
struct CyclePlan {
    /// Latest provably safe start: every stream (plus the admissible
    /// insertions) completes before any buffer drains.
    start: Instant,
    /// Idle target after a no-op cycle: one slot before the earliest due.
    /// Planned only when the previous cycle read nothing (the one case
    /// that reads it); `None` otherwise.
    fallback: Option<Instant>,
    /// How many mid-cycle (BubbleUp / next-group) insertions the start
    /// time budgeted for. Admitting more would push tail refills past
    /// their dues, so `try_admissions` defers the excess to the next
    /// cycle.
    insertion_budget: usize,
    /// The earliest instant any live stream's buffer drains to zero;
    /// `None` when no stream has a due. Observation only.
    due_min: Option<Instant>,
}

impl DiskEngine {
    /// When must the next cycle start so every stream's refill completes
    /// before its buffer drains — *even if* the admission-control bound's
    /// worth of new requests bubbles into the cycle? `None` when nobody
    /// needs service.
    ///
    /// The latest provably safe start is `due_min − (n + h)·slot`,
    /// where `h` is the admissible-insertion headroom and `slot` bounds
    /// every service in the cycle (next-generation buffer sizes — this is
    /// exactly the budget Theorem 1's sizing guarantees). The static
    /// scheme's headroom is `N − n` (its buffers are sized for the
    /// full-load period, i.e. the Fixed-Stretch cadence); the naive
    /// scheme's is only its own estimate, which is precisely the Fig. 3
    /// flaw — when the load grows faster, its streams underflow.
    ///
    /// `after_idle` asks for the idle fallback too: the previous cycle
    /// read nothing, so the caller may idle instead of re-running it.
    fn plan_cycle_start(&mut self, after_idle: bool) -> Option<CyclePlan> {
        let cr = self.cfg.params.cr();
        let tr = self.cfg.params.tr();
        let n = self.streams.len();
        let big_n = self.big_n;
        let alpha = self.cfg.params.alpha as usize;
        let dl = self.dl_for(n);

        // Everything cycle-invariant is hoisted ahead of the stream
        // sweep: the insertion headroom, the slot bound, and the
        // allocation size the fallback computation shares (only its
        // `remaining_demand` clamp is per-stream). All of it is pure
        // state queries, so computing it before the sweep instead of
        // between two sweeps changes no bits -- and the plan now runs in
        // one allocation-free pass where it used to fill a fresh `dues`
        // vector and re-look up the size table once per stream. The
        // fallback fold runs only `after_idle`, in the same order, so
        // skipping it elsewhere changes no bits either.
        let (headroom, size_bound) = match (&mut self.scheme, self.cfg.scheme) {
            (SchemeState::Dynamic(ctl), _) => {
                let h = ctl.admission_bound().saturating_sub(n);
                let k_next = (self.last_k + alpha).min(big_n);
                (
                    (n + h).min(big_n),
                    self.sizer.size((n + h).min(big_n), k_next),
                )
            }
            (SchemeState::Naive(_), _) => {
                let k = self.last_k.max(alpha);
                ((n + k).min(big_n), self.sizer.size(n, k))
            }
            // StaticMaxUse may inflate buffers up to 2×BS(N) (see
            // `service`), so its slot bound doubles.
            (SchemeState::Static, SchemeKind::StaticMaxUse) => (big_n, self.sizer.max_size() * 2.0),
            (SchemeState::Static, _) => (big_n, self.sizer.max_size()),
        };
        let h = headroom.saturating_sub(n);
        let slot = dl + size_bound / tr;
        let fallback_sz = after_idle.then(|| self.sizer.size(n, self.last_k.max(alpha)));

        // The stream at service position p completes no later than
        // `start + (p + inserted)·slot` with `inserted ≤ h`; it must be
        // refilled by its own due. Take the tightest constraint.
        let mut start: Option<Instant> = None;
        let mut fallback: Option<Instant> = None;
        let mut eligible: Option<Instant> = None;
        // `order` holds every live stream right after `rebuild_order`, so
        // this sweep sees every due there is.
        let mut due_min: Option<Instant> = None;
        for (idx, &slot_id) in self.order.iter().enumerate() {
            let s = &self.streams[slot_id];
            if !s.viewing_started() {
                // An admitted newcomer (its boundary already passed):
                // service it right away.
                eligible = Some(match eligible {
                    Some(c) => c.min(self.t),
                    None => self.t,
                });
                continue;
            }
            let Some(due) = s.due_at(cr) else { continue };
            due_min = Some(due_min.map_or(due, |m| m.min(due)));
            let latest = due - slot * (idx + 1 + h) as f64;
            start = Some(match start {
                Some(c) => c.min(latest),
                None => latest,
            });
            // A top-up only becomes non-empty once the level falls below
            // the (possibly shrunken) current allocation — that is
            // `due − size/CR` — and should start no later than one slot
            // before the due. The max of the two is this stream's
            // earliest *useful* service time.
            if let Some(base_sz) = fallback_sz {
                let sz = base_sz.min(
                    s.remaining_demand(self.t, cr)
                        .unwrap_or(self.sizer.max_size()),
                );
                let useful = (due - sz / cr + Seconds::from_millis(1.0)).max(due - slot);
                fallback = Some(match fallback {
                    Some(c) => c.min(useful),
                    None => useful,
                });
            }
        }
        let Some(mut start) = start else {
            // No refills pending; a waiting newcomer still forces a cycle
            // at its boundary. With no dues to protect, insertions are
            // unconstrained.
            return eligible.map(|e| CyclePlan {
                start: e,
                fallback: after_idle.then_some(e),
                insertion_budget: usize::MAX,
                due_min,
            });
        };
        if let Some(e) = eligible {
            start = start.min(e);
            fallback = fallback.map(|f| f.min(e));
        }
        Some(CyclePlan {
            start,
            fallback,
            insertion_budget: h,
            due_min,
        })
    }

    fn at_group_boundary(&self) -> bool {
        let g = self
            .cfg
            .params
            .method
            .effective_group_size(self.streams.len());
        g > 0 && self.cursor.is_multiple_of(g)
    }

    /// The *model* service period at the current load: the usage period
    /// `(n + k)·(DL + BS_k(n)/TR)` that the paper's `k_log` window refers
    /// to. (Using the measured cycle duration instead creates a feedback
    /// loop: catch-up cycles run long, which widens the window, which
    /// raises `k_log`, which grows the buffers, which lengthens cycles.)
    fn period_estimate(&mut self) -> Seconds {
        let n = self.streams.len().max(1);
        let k = self.last_k.max(self.cfg.params.alpha as usize);
        if let Some((mn, mk, v)) = self.period_memo {
            if mn == n && mk == k {
                return v;
            }
        }
        let slot = self.dl_for(n) + self.sizer.size(n, k) / self.cfg.params.tr();
        let v = slot * (n + k) as f64;
        self.period_memo = Some((n, k, v));
        v
    }

    /// `worst_disk_latency` at `n` active streams, via the single-entry
    /// memo — the model is a pure function of the fixed disk profile and
    /// `n`, so a hit returns the identical bits a recompute would.
    fn dl_for(&mut self, n: usize) -> Seconds {
        if let Some((mn, v)) = self.dl_memo {
            if mn == n {
                return v;
            }
        }
        let v = self
            .cfg
            .params
            .method
            .worst_disk_latency(&self.cfg.params.disk, n);
        self.dl_memo = Some((n, v));
        v
    }

    // ---------- departures ----------

    fn earliest_departure(&self) -> Option<Instant> {
        self.departures.peek().map(|Reverse((at, _, _))| *at)
    }

    fn process_due_departures(&mut self) {
        while let Some(&Reverse((at, _, slot))) = self.departures.peek() {
            if at > self.t {
                break;
            }
            self.departures.pop();
            // Entries outlive their stream only if it already departed
            // through another path; `retire` is a no-op then (the slab
            // generation check makes a stale slot miss).
            self.retire(slot, at, false);
        }
    }

    /// The one exit path of a stream, departing at `at` or, `evicted`, cut
    /// off by a node crash: consumption up to `at` is materialized (an
    /// underflow noted), the buffer released to the pool, the
    /// concurrency slot freed and the controller told. The root span
    /// closes `Ok`, or `Refused` with an `"evicted"` annotation. Returns
    /// the retired stream; `None` when `slot` is already gone.
    fn retire(&mut self, slot: SlotId, at: Instant, evicted: bool) -> Option<Stream> {
        let mut s = self.streams.remove(slot)?;
        let id = s.id;
        let started = s.viewing_started();
        let old_time = s.level_at_time();
        let upd = s.advance_to(at, self.cfg.params.cr());
        if started {
            self.mem
                .on_materialize(old_time, s.level_at_time(), upd.consumed);
        }
        self.note_deficit(id, at, upd.deficit);
        if started {
            self.mem.on_depart(s.level(), s.level_at_time());
        }
        self.obs
            .emit_with(EventKind::BufferFreed, || Event::BufferFreed {
                at,
                id,
                released: s.level(),
            });
        if self.obs.tracing() && !s.trace.is_none() {
            let root = SpanId::derive(s.trace, span::SEQ_REQUEST);
            if evicted {
                self.obs
                    .span_annotate(at, s.trace, root, "evicted", AnnoValue::Str("node_crash"));
                self.obs.span_end(at, s.trace, root, SpanStatus::Refused);
            } else {
                self.obs.span_end(at, s.trace, root, SpanStatus::Ok);
            }
        }
        self.conc_events.push((at, -1));
        if let SchemeState::Dynamic(ctl) = &mut self.scheme {
            let _ = ctl.depart(id);
        }
        Some(s)
    }

    // ---------- finish ----------

    /// Ends the run, whether [`Self::run`] or [`Self::finish`] drove it,
    /// and adds its totals to the attached registry. These are the
    /// engine's only counter writes. Adding rather than setting lets
    /// engines that share a registry, such as the multi-seed runner's,
    /// sum.
    fn finalize(mut self) -> DiskRunStats {
        // A run that ends mid-cycle (drained while a cycle was open)
        // still closes its cycle span.
        if let Some((tr, sp)) = self.cycle_span.take() {
            self.obs.span_end(self.t, tr, sp, SpanStatus::Ok);
        }
        let m = self.obs.metrics();
        for (name, total) in [
            (CTR_CYCLES, self.stats.cycles),
            (CTR_SERVICES, self.stats.services),
            (CTR_ADMITTED, self.stats.admitted),
            (CTR_DEFERRED, self.stats.deferrals),
            (CTR_REJECTED, self.stats.rejected),
            (CTR_UNDERFLOWS, self.stats.underflows),
        ] {
            m.counter(name).add(total);
        }
        self.conc_events.sort_by_key(|a| a.0);
        let mut n = 0i64;
        let mut series = Vec::with_capacity(self.conc_events.len());
        for (t, delta) in self.conc_events.drain(..) {
            n += i64::from(delta);
            series.push((t, n.max(0) as usize));
        }
        self.stats.concurrency = series;
        self.stats.audit = self.audit.finish();
        self.stats.peak_memory = Bits::new(self.mem.peak);
        self.stats.finished_at = self.t;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditOutcome;
    use vod_types::DiskId;

    fn arrival(at_secs: f64, viewing_secs: f64) -> Arrival {
        Arrival {
            at: Instant::from_secs(at_secs),
            disk: DiskId::new(0),
            video: VideoId::new(0),
            viewing: Seconds::from_secs(viewing_secs),
        }
    }

    fn run(scheme: SchemeKind, method: SchedulingMethod, arrivals: &[Arrival]) -> DiskRunStats {
        let cfg = EngineConfig::paper(method, scheme);
        let engine = DiskEngine::new(cfg).expect("valid config");
        engine.run(arrivals)
    }

    #[test]
    fn single_request_is_serviced_and_departs() {
        let stats = run(
            SchemeKind::Dynamic,
            SchedulingMethod::RoundRobin,
            &[arrival(10.0, 60.0)],
        );
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.underflows, 0);
        assert_eq!(stats.il_samples.len(), 1);
        let il = stats.il_samples[0].latency;
        assert!(il > Seconds::ZERO);
        assert!(
            il < Seconds::from_secs(1.0),
            "IL {il} too large for an idle disk"
        );
        assert!(stats.services >= 1);
        assert_eq!(stats.max_concurrent(), 1);
        // Viewing 60 s from first data: the run ends a bit after t = 70 s.
        assert!(stats.finished_at.as_secs_f64() >= 69.9);
    }

    #[test]
    fn static_scheme_has_larger_first_fill_latency() {
        let trace = [arrival(5.0, 120.0)];
        let dynamic = run(SchemeKind::Dynamic, SchedulingMethod::RoundRobin, &trace);
        let static_ = run(SchemeKind::Static, SchedulingMethod::RoundRobin, &trace);
        let il_d = dynamic.il_samples[0].latency;
        let il_s = static_.il_samples[0].latency;
        assert!(
            il_s > il_d * 2.0,
            "static {il_s} should dwarf dynamic {il_d}"
        );
    }

    #[test]
    fn no_underflow_for_dynamic_and_static_under_burst() {
        // A burst of 30 arrivals in 10 s, all watching 5 minutes.
        let trace: Vec<Arrival> = (0..30)
            .map(|i| arrival(10.0 + f64::from(i) * 0.33, 300.0))
            .collect();
        for method in SchedulingMethod::paper_methods() {
            for scheme in [SchemeKind::Dynamic, SchemeKind::Static] {
                let stats = run(scheme, method, &trace);
                assert_eq!(stats.underflows, 0, "{scheme} under {method}: underflows");
                assert_eq!(stats.admitted + stats.rejected, 30, "{scheme} {method}");
                assert!(stats.admitted > 0);
            }
        }
    }

    #[test]
    fn dynamic_uses_less_memory_than_static() {
        let trace: Vec<Arrival> = (0..10)
            .map(|i| arrival(f64::from(i) * 5.0, 600.0))
            .collect();
        let dynamic = run(SchemeKind::Dynamic, SchedulingMethod::RoundRobin, &trace);
        let static_ = run(SchemeKind::Static, SchedulingMethod::RoundRobin, &trace);
        assert!(
            dynamic.peak_memory.as_f64() < 0.5 * static_.peak_memory.as_f64(),
            "dynamic {} vs static {}",
            dynamic.peak_memory,
            static_.peak_memory
        );
    }

    #[test]
    fn rejects_past_disk_capacity() {
        // 100 simultaneous eternal viewers on a 79-stream disk.
        let trace: Vec<Arrival> = (0..100)
            .map(|i| arrival(1.0 + f64::from(i) * 1e-3, 3000.0))
            .collect();
        let stats = run(SchemeKind::Static, SchedulingMethod::RoundRobin, &trace);
        assert!(stats.admitted <= 79);
        assert!(stats.rejected >= 21);
        assert!(stats.max_concurrent() <= 79);
        assert_eq!(stats.underflows, 0);
    }

    #[test]
    fn dynamic_defers_bursts_instead_of_underflowing() {
        // 40 arrivals in half a second: Assumption 1 must defer most.
        let trace: Vec<Arrival> = (0..40)
            .map(|i| arrival(1.0 + f64::from(i) * 0.01, 120.0))
            .collect();
        let stats = run(SchemeKind::Dynamic, SchedulingMethod::RoundRobin, &trace);
        assert_eq!(stats.underflows, 0);
        assert!(stats.deferrals > 0, "burst must trigger deferrals");
        assert_eq!(
            stats.admitted, 40,
            "deferred requests are eventually admitted"
        );

        // 100 arrivals 50 ms apart overrun the paper's N = 79 disk: the
        // tail defers (or rejects) and drains as the 60 s viewings end.
        let trace: Vec<Arrival> = (0..100)
            .map(|i| arrival(f64::from(i) * 0.05, 60.0))
            .collect();
        for method in [SchedulingMethod::RoundRobin, SchedulingMethod::Sweep] {
            for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
                let stats = run(scheme, method, &trace);
                assert!(
                    stats.deferrals > 0 || stats.rejected > 0,
                    "burst must overrun admission for {method:?}/{scheme:?}"
                );
                assert_eq!(stats.underflows, 0, "{method:?}/{scheme:?}");
            }
        }
    }

    #[test]
    fn memory_budget_rejects_when_exhausted() {
        let cfg = EngineConfig {
            memory_budget: Some(Bits::from_mebibytes(40.0)),
            ..EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Static)
        };
        // Static needs ~27 MiB per stream at the margin: 40 MiB admits 1.
        let trace: Vec<Arrival> = (0..5).map(|i| arrival(1.0 + f64::from(i), 300.0)).collect();
        let stats = DiskEngine::new(cfg).expect("valid").run(&trace);
        assert!(stats.admitted <= 2, "admitted {}", stats.admitted);
        assert!(stats.rejected >= 3);
    }

    #[test]
    fn dynamic_fits_more_streams_in_the_same_budget() {
        let budget = Bits::from_mebibytes(60.0);
        let trace: Vec<Arrival> = (0..20)
            .map(|i| arrival(1.0 + f64::from(i) * 2.0, 600.0))
            .collect();
        let mk = |scheme| {
            let cfg = EngineConfig {
                memory_budget: Some(budget),
                ..EngineConfig::paper(SchedulingMethod::RoundRobin, scheme)
            };
            DiskEngine::new(cfg).expect("valid").run(&trace)
        };
        let dynamic = mk(SchemeKind::Dynamic);
        let static_ = mk(SchemeKind::Static);
        assert!(
            dynamic.max_concurrent() > static_.max_concurrent(),
            "dynamic {} vs static {}",
            dynamic.max_concurrent(),
            static_.max_concurrent()
        );
    }

    #[test]
    fn audits_are_recorded_for_estimating_schemes() {
        let trace: Vec<Arrival> = (0..5)
            .map(|i| arrival(1.0 + f64::from(i) * 3.0, 60.0))
            .collect();
        let dynamic = run(SchemeKind::Dynamic, SchedulingMethod::RoundRobin, &trace);
        assert_eq!(dynamic.audit.samples as u64, dynamic.services);
        let static_ = run(SchemeKind::Static, SchedulingMethod::RoundRobin, &trace);
        assert_eq!(static_.audit, AuditOutcome::default());
    }

    #[test]
    fn empty_trace_is_a_clean_noop() {
        for method in SchedulingMethod::paper_methods() {
            for scheme in SchemeKind::ALL {
                let stats = run(scheme, method, &[]);
                assert_eq!(stats.admitted, 0, "{method:?}/{scheme:?}");
                assert_eq!(stats.services, 0, "{method:?}/{scheme:?}");
                assert_eq!(stats.cycles, 0, "{method:?}/{scheme:?}");
                assert_eq!(stats.max_concurrent(), 0, "{method:?}/{scheme:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_trace_panics() {
        let trace = [arrival(10.0, 5.0), arrival(1.0, 5.0)];
        let _ = run(SchemeKind::Static, SchedulingMethod::RoundRobin, &trace);
    }

    #[test]
    fn all_methods_service_a_small_town() {
        let trace: Vec<Arrival> = (0..12)
            .map(|i| arrival(f64::from(i) * 7.0, 200.0 + f64::from(i % 5) * 40.0))
            .collect();
        for method in SchedulingMethod::paper_methods() {
            let stats = run(SchemeKind::Dynamic, method, &trace);
            assert_eq!(stats.admitted, 12, "{method}");
            assert_eq!(stats.underflows, 0, "{method}");
            assert_eq!(stats.il_samples.len(), 12, "{method}");
        }
    }

    #[test]
    fn steppable_api_is_bit_identical_to_run() {
        // Bursty enough to exercise deferrals, mid-cycle insertions, and
        // idle jumps; the steppable drive must reproduce `run` bit-exactly
        // (this is the contract the cluster front end builds on).
        let trace: Vec<Arrival> = (0..25)
            .map(|i| arrival(f64::from(i) * 0.35, 120.0 + f64::from(i % 7) * 11.0))
            .collect();
        for method in SchedulingMethod::paper_methods() {
            for scheme in [
                SchemeKind::Dynamic,
                SchemeKind::Static,
                SchemeKind::NaiveDynamic,
            ] {
                let cfg = EngineConfig::paper(method, scheme);
                let by_run = DiskEngine::new(cfg.clone())
                    .expect("paper config is valid")
                    .run(&trace);
                let mut eng = DiskEngine::new(cfg.clone()).expect("paper config is valid");
                for a in &trace {
                    eng.advance_to(a.at);
                    eng.offer(a);
                }
                let by_step = eng.finish();
                assert_eq!(by_run, by_step, "{method}/{scheme:?}");
                // Declaring floors as it goes scores the audit early but
                // identically, and keeps few windows open.
                let mut eng = DiskEngine::new(cfg).expect("paper config is valid");
                let mut most_open = 0;
                for (i, a) in trace.iter().enumerate() {
                    eng.advance_to(a.at);
                    most_open = most_open.max(eng.audit.open_windows());
                    eng.offer(a);
                    let next = trace
                        .get(i + 1)
                        .map_or(Instant::from_secs(f64::INFINITY), |b| b.at);
                    eng.settle_arrivals_before(next);
                }
                assert_eq!(eng.audit.open_windows(), 0);
                let with_floors = eng.finish();
                assert_eq!(by_run, with_floors, "{method}/{scheme:?} with floors");
                assert!(
                    most_open < 100,
                    "{method}/{scheme:?}: {most_open} windows open"
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the declared floor")]
    fn an_offer_below_the_declared_floor_is_caught() {
        let cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
        let mut eng = DiskEngine::new(cfg).expect("paper config is valid");
        eng.advance_to(Instant::from_secs(10.0));
        eng.settle_arrivals_before(Instant::from_secs(10.0));
        eng.offer(&arrival(9.0, 60.0));
    }

    #[test]
    fn sampled_latency_mode_is_faster_and_still_clean() {
        let trace: Vec<Arrival> = (0..20)
            .map(|i| arrival(f64::from(i) * 5.0, 400.0))
            .collect();
        let worst = run(SchemeKind::Dynamic, SchedulingMethod::Sweep, &trace);
        let mut cfg = EngineConfig::paper(SchedulingMethod::Sweep, SchemeKind::Dynamic);
        cfg.latency_model = vod_disk::LatencyModel::Sampled;
        let sampled = DiskEngine::new(cfg).expect("valid").run(&trace);
        assert_eq!(sampled.underflows, 0, "early completions cannot starve");
        assert_eq!(sampled.admitted, worst.admitted);
        // Actual seeks are far below the worst case, so the sampled run
        // spends less simulated time per service; latencies shrink.
        let w = worst.mean_latency().expect("samples").as_secs_f64();
        let s = sampled.mean_latency().expect("samples").as_secs_f64();
        assert!(s <= w * 1.05, "sampled {s} vs worst-case {w}");
    }

    #[test]
    fn sampled_latency_is_deterministic_per_seed() {
        let trace: Vec<Arrival> = (0..8).map(|i| arrival(f64::from(i) * 4.0, 120.0)).collect();
        let mk = |seed| {
            let mut cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
            cfg.latency_model = vod_disk::LatencyModel::Sampled;
            cfg.latency_seed = seed;
            DiskEngine::new(cfg).expect("valid").run(&trace)
        };
        let a = mk(7);
        let b = mk(7);
        let c = mk(8);
        assert_eq!(a.il_samples, b.il_samples);
        // A different rotation draw perturbs the timings.
        assert_ne!(
            a.il_samples, c.il_samples,
            "different seeds should differ (rotation draws)"
        );
    }

    #[test]
    fn recorder_sink_does_not_perturb_the_run() {
        use vod_obs::{EventKind as K, Obs, RecorderSink};
        let trace: Vec<Arrival> = (0..25)
            .map(|i| arrival(1.0 + f64::from(i) * 0.8, 200.0))
            .collect();
        let cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
        let plain = DiskEngine::with_observer(cfg.clone(), Obs::null())
            .expect("valid")
            .run(&trace);
        let rec = std::sync::Arc::new(RecorderSink::new());
        let observed = DiskEngine::with_observer(cfg, Obs::new(rec.clone()))
            .expect("valid")
            .run(&trace);
        // Bit-identical measurements, field by field.
        assert_eq!(plain.il_samples, observed.il_samples);
        assert_eq!(plain.audit, observed.audit);
        assert_eq!(plain.concurrency, observed.concurrency);
        assert_eq!(plain.admitted, observed.admitted);
        assert_eq!(plain.rejected, observed.rejected);
        assert_eq!(plain.deferrals, observed.deferrals);
        assert_eq!(plain.services, observed.services);
        assert_eq!(plain.cycles, observed.cycles);
        assert_eq!(plain.underflows, observed.underflows);
        assert_eq!(plain.underflow_deficit, observed.underflow_deficit);
        assert_eq!(plain.peak_memory, observed.peak_memory);
        assert_eq!(plain.finished_at, observed.finished_at);
        // The recorder saw the whole lifecycle, consistently with the
        // aggregate counters.
        let snap = rec.snapshot();
        assert_eq!(snap.counter(K::RequestAdmitted), observed.admitted);
        assert_eq!(snap.counter(K::StreamServiced), observed.services);
        assert_eq!(snap.counter(K::BufferAllocated), observed.admitted);
        assert_eq!(snap.counter(K::BufferFreed), observed.admitted);
        assert_eq!(snap.counter(K::Underflow), observed.underflows);
        assert_eq!(snap.counter(K::RequestDeferred), observed.deferrals);
        assert!(snap.counter(K::CyclePlanned) >= observed.cycles);
        assert!(snap.counter(K::PoolOccupancy) > 0);
        // Every retained event renders as a JSON object line.
        for line in snap.export_jsonl().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    /// Captures the `due_min` of every `CyclePlanned` event.
    #[derive(Default)]
    struct DueMinSink(std::sync::Mutex<Vec<Option<Instant>>>);

    impl vod_obs::Sink for DueMinSink {
        fn enabled(&self, kind: EventKind) -> bool {
            kind == EventKind::CyclePlanned
        }

        fn record(&self, event: &Event) {
            if let Event::CyclePlanned { due_min, .. } = event {
                self.0.lock().expect("unpoisoned").push(*due_min);
            }
        }
    }

    #[test]
    fn cycle_planned_due_min_is_the_min_live_due() {
        // The step that plans a cycle returns right after emitting
        // `CyclePlanned` without touching a stream, so a full scan after
        // that step sees the state the planner saw.
        let trace: Vec<Arrival> = (0..60)
            .map(|i| arrival(f64::from(i) * 0.35, 40.0 + f64::from(i % 7) * 11.0))
            .collect();
        let evict_at = Instant::from_secs(9.0);
        for method in SchedulingMethod::paper_methods() {
            let sink = std::sync::Arc::new(DueMinSink::default());
            let cfg = EngineConfig::paper(method, SchemeKind::Dynamic);
            let mut eng =
                DiskEngine::with_observer(cfg, vod_obs::Obs::new(sink.clone())).expect("valid");
            let cr = eng.cfg.params.cr();
            let (mut ai, mut evicted) = (0, false);
            let (mut checked, mut with_due, mut after_evict) = (0, 0, 0);
            loop {
                eng.process_due_departures();
                if !evicted && eng.t >= evict_at {
                    assert!(!eng.evict_all().is_empty(), "{method}: evicted nothing");
                    evicted = true;
                }
                while ai < trace.len() && trace[ai].at <= eng.t {
                    eng.ingest(&trace[ai], TraceId::NONE);
                    ai += 1;
                }
                let step = eng.step_body(trace.get(ai).map(|a| a.at));
                let scan = eng.streams.values().filter_map(|s| s.due_at(cr)).min();
                for due_min in sink.0.lock().expect("unpoisoned").drain(..) {
                    assert_eq!(due_min, scan, "{method} at {}", eng.t);
                    checked += 1;
                    with_due += usize::from(due_min.is_some());
                    after_evict += usize::from(evicted);
                }
                if matches!(step, Step::Drained) {
                    break;
                }
            }
            assert!(evicted, "{method}: the run ended before the eviction");
            assert!(with_due > 0 && after_evict > 0, "{method}: {checked} plans");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let trace: Vec<Arrival> = (0..8).map(|i| arrival(f64::from(i) * 4.0, 100.0)).collect();
        let a = run(SchemeKind::Dynamic, SchedulingMethod::GSS_PAPER, &trace);
        let b = run(SchemeKind::Dynamic, SchedulingMethod::GSS_PAPER, &trace);
        assert_eq!(a.services, b.services);
        assert_eq!(a.il_samples, b.il_samples);
        assert_eq!(a.peak_memory, b.peak_memory);
    }

    #[test]
    fn metrics_registry_does_not_perturb_the_run() {
        use std::sync::Arc;
        use vod_obs::metrics::{
            Metrics, MetricsRegistry, CTR_ADMITTED, CTR_CYCLES, CTR_DEFERRED, CTR_REJECTED,
            CTR_SERVICES, CTR_UNDERFLOWS, PHASE_ADMISSION, PHASE_CYCLE_PLAN, PHASE_SERVICE,
            PHASE_TABLE_BUILD,
        };
        use vod_obs::Obs;

        // A bursty trace exercising admission deferral, rejection, and
        // departures — the paths the instrumentation touches.
        let mut trace: Vec<Arrival> = (0..50)
            .map(|i| arrival(1.0 + f64::from(i) * 0.05, 150.0))
            .collect();
        trace.extend((0..40).map(|i| arrival(60.0 + f64::from(i) * 0.4, 120.0)));
        let cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
        let plain = DiskEngine::with_observer(cfg.clone(), Obs::null())
            .expect("valid")
            .run(&trace);
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&reg)));
        let observed = DiskEngine::with_observer(cfg, obs)
            .expect("valid")
            .run(&trace);

        // Bit-identical measurements, field by field (the acceptance
        // criterion: an attached registry must not perturb the run).
        assert_eq!(plain.il_samples, observed.il_samples);
        assert_eq!(plain.audit, observed.audit);
        assert_eq!(plain.concurrency, observed.concurrency);
        assert_eq!(plain.admitted, observed.admitted);
        assert_eq!(plain.rejected, observed.rejected);
        assert_eq!(plain.deferrals, observed.deferrals);
        assert_eq!(plain.services, observed.services);
        assert_eq!(plain.cycles, observed.cycles);
        assert_eq!(plain.underflows, observed.underflows);
        assert_eq!(plain.underflow_deficit, observed.underflow_deficit);
        assert_eq!(plain.peak_memory, observed.peak_memory);
        assert_eq!(plain.finished_at, observed.finished_at);

        // The registry's counters equal the stats exactly, and every
        // engine phase histogram recorded samples.
        let snap = reg.snapshot();
        assert_eq!(snap.counter(CTR_ADMITTED), Some(observed.admitted));
        assert_eq!(snap.counter(CTR_REJECTED), Some(observed.rejected));
        assert_eq!(snap.counter(CTR_DEFERRED), Some(observed.deferrals));
        assert_eq!(snap.counter(CTR_SERVICES), Some(observed.services));
        assert_eq!(snap.counter(CTR_CYCLES), Some(observed.cycles));
        assert_eq!(snap.counter(CTR_UNDERFLOWS), Some(observed.underflows));
        // One service sample per cycle that read something: never more
        // than the cycles, and at least one.
        let service = snap.histogram(PHASE_SERVICE).expect("registered").count;
        assert!(0 < service && service <= observed.cycles, "{service}");
        assert_eq!(
            snap.histogram(PHASE_TABLE_BUILD).expect("registered").count,
            2,
            "sizer + admission controller each precompute a table"
        );
        assert!(snap.histogram(PHASE_CYCLE_PLAN).expect("registered").count >= observed.cycles);
        assert!(snap.histogram(PHASE_ADMISSION).expect("registered").count > 0);
    }

    /// Bursts of seven same-video arrivals at one instant, alternating
    /// videos 0 and 1 every 12.5 s, each viewing 70 s: equal play
    /// positions at every burst.
    fn tie_heavy_trace() -> Vec<Arrival> {
        (0..8u32)
            .flat_map(|burst| {
                (0..7).map(move |_| Arrival {
                    at: Instant::from_secs(f64::from(burst) * 12.5),
                    disk: DiskId::new(0),
                    video: VideoId::new(u64::from(burst % 2)),
                    viewing: Seconds::from_secs(70.0),
                })
            })
            .collect()
    }

    /// Drives `trace` through `eng` step by step and calls `check` right
    /// after each cycle starts, when `order` is exactly what
    /// `rebuild_order` left. Returns how many cycle starts it checked.
    fn check_each_cycle_start(
        eng: &mut DiskEngine,
        trace: &[Arrival],
        mut check: impl FnMut(&DiskEngine),
    ) -> usize {
        let (mut ai, mut checked) = (0, 0);
        loop {
            eng.process_due_departures();
            while ai < trace.len() && trace[ai].at <= eng.t {
                eng.ingest(&trace[ai], TraceId::NONE);
                ai += 1;
            }
            let step = eng.step_body(trace.get(ai).map(|a| a.at));
            if eng.cycle_active && eng.cursor == 0 {
                check(eng);
                checked += 1;
            }
            if matches!(step, Step::Drained) {
                return checked;
            }
        }
    }

    /// `(position_key, id, slot)` of `slots`, in the order given.
    fn keyed(eng: &DiskEngine, slots: &[SlotId]) -> Vec<(f64, RequestId, SlotId)> {
        slots
            .iter()
            .map(|&slot| {
                let s = &eng.streams[slot];
                (position_key(s, eng.video_size), s.id, slot)
            })
            .collect()
    }

    #[test]
    fn sweep_roster_equals_a_fresh_stable_sort_through_ties() {
        // A 30 s video: streams run off its end (`frac` clamped to 1.0)
        // while the next video's newcomers sit at its start (0.0), so
        // keys also meet across a video boundary.
        let mut cfg = EngineConfig::paper(SchedulingMethod::Sweep, SchemeKind::Dynamic);
        cfg.video_length = Seconds::from_secs(30.0);
        let trace = tie_heavy_trace();
        let mut eng = DiskEngine::new(cfg.clone()).expect("valid");
        let (mut ties, mut boundary_ties) = (0, 0);
        let checked = check_each_cycle_start(&mut eng, &trace, |eng| {
            // The live streams in id order — Sweep*'s admission order —
            // stably sorted by position alone, as every cycle once did.
            let mut live: Vec<SlotId> = eng.streams.iter().map(|(slot, _)| slot).collect();
            live.sort_by_key(|&slot| eng.streams[slot].id);
            let mut fresh = keyed(eng, &live);
            fresh.sort_by(|a, b| a.0.total_cmp(&b.0));
            let expected: Vec<SlotId> = fresh.iter().map(|&(_, _, slot)| slot).collect();
            assert_eq!(eng.order, expected, "at {}", eng.t);
            for w in fresh.windows(2).filter(|w| w[0].0 == w[1].0) {
                ties += 1;
                let video = |slot| eng.streams[slot].video;
                boundary_ties += usize::from(video(w[0].2) != video(w[1].2));
            }
        });
        assert!(
            checked > 50 && ties > 0 && boundary_ties > 0,
            "{checked} cycles, {ties} ties, {boundary_ties} across a video boundary"
        );

        // A crash evicts Sweep*'s streams in admission (id) order, not in
        // the roster's sweep order.
        let mut eng = DiskEngine::new(cfg).expect("valid");
        for a in &trace {
            eng.advance_to(a.at);
            eng.offer(a);
        }
        eng.advance_to(Instant::from_secs(64.0));
        let mut live: Vec<(RequestId, TraceId)> =
            eng.streams.values().map(|s| (s.id, s.trace)).collect();
        live.sort_by_key(|&(id, _)| id);
        let evicted: Vec<TraceId> = eng
            .evict_all()
            .into_iter()
            .filter(|e| e.was_active)
            .map(|e| e.trace)
            .collect();
        assert!(live.len() > 1);
        assert_eq!(evicted, live.iter().map(|&(_, t)| t).collect::<Vec<_>>());
    }

    #[test]
    fn gss_chunks_keep_membership_order_ties() {
        // GSS* admits at group boundaries: newcomers admitted together
        // all go in at one index, so its membership order is not id
        // order, and their equal start-of-video keys must keep it.
        let cfg = EngineConfig::paper(SchedulingMethod::GSS_PAPER, SchemeKind::Dynamic);
        let mut eng = DiskEngine::new(cfg).expect("valid");
        let mut against_id = 0;
        let checked = check_each_cycle_start(&mut eng, &tie_heavy_trace(), |eng| {
            assert_eq!(eng.order.len(), eng.base_order.len(), "at {}", eng.t);
            let g = eng
                .cfg
                .params
                .method
                .effective_group_size(eng.base_order.len());
            for (members, chunk) in eng.base_order.chunks(g).zip(eng.order.chunks(g)) {
                let mut fresh = keyed(eng, members);
                fresh.sort_by(|a, b| a.0.total_cmp(&b.0));
                let expected: Vec<SlotId> = fresh.iter().map(|&(_, _, slot)| slot).collect();
                assert_eq!(chunk, expected, "at {}", eng.t);
                against_id += fresh
                    .windows(2)
                    .filter(|w| w[0].0 == w[1].0 && w[0].1 > w[1].1)
                    .count();
            }
        });
        assert!(
            checked > 50 && against_id > 0,
            "{checked} cycles, {against_id} ties kept against id order"
        );
    }
}
