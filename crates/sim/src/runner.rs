//! Multi-seed experiment runners.
//!
//! The paper runs each simulation five times with different seeds to tame
//! noise (§5.2). [`run_latency_experiment`] reproduces that: it generates
//! one workload per seed, replays each against the configured engine on
//! its own thread, and merges the measurements.

use vod_core::SchemeKind;
use vod_obs::Obs;
use vod_sched::SchedulingMethod;
use vod_types::{Bits, ConfigError};
use vod_workload::{generate, WorkloadConfig};

use crate::audit::AuditOutcome;
use crate::engine::{DiskEngine, EngineConfig};
use crate::metrics::DiskRunStats;

/// One latency experiment: a scheme × method × workload-skew cell of
/// Fig. 11 (and the source of Figs. 6–8).
#[derive(Clone, Debug)]
pub struct LatencyExperiment {
    /// Engine configuration (method, scheme, `T_log`, memory).
    pub engine: EngineConfig,
    /// Workload configuration (single-disk).
    pub workload: WorkloadConfig,
    /// Seeds; the paper uses five.
    pub seeds: Vec<u64>,
}

impl LatencyExperiment {
    /// The paper's standard cell: single disk, 24-hour Zipf(θ) profile,
    /// five seeds.
    #[must_use]
    pub fn paper(
        method: SchedulingMethod,
        scheme: SchemeKind,
        theta: f64,
        expected_arrivals: f64,
    ) -> Self {
        LatencyExperiment {
            engine: EngineConfig::paper(method, scheme),
            workload: WorkloadConfig::paper_single_disk(theta, expected_arrivals),
            seeds: vec![1, 2, 3, 4, 5],
        }
    }
}

/// Merged results of a latency experiment.
#[derive(Clone, Debug)]
pub struct LatencyResult {
    /// All seeds' measurements merged (latency samples concatenated, the
    /// estimator audit pooled by sample count).
    pub stats: DiskRunStats,
    /// Number of seeds run.
    pub seeds: usize,
}

/// Per-seed summary captured *before* the multi-seed merge.
///
/// Wall-clock time here is the **host** clock (how long the simulation
/// took to execute) — the only place the observability layer touches wall
/// time; every event timestamp is simulated time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunReport {
    /// The workload seed this report describes.
    pub seed: u64,
    /// Host wall-clock seconds spent generating and replaying the seed.
    pub wall_clock_secs: f64,
    /// Requests admitted into service.
    pub admitted: u64,
    /// Admission attempts deferred by the inertia assumptions.
    pub deferred: u64,
    /// Requests rejected outright.
    pub rejected: u64,
    /// Underflow events.
    pub underflows: u64,
    /// Buffer services performed.
    pub services: u64,
    /// Service cycles completed.
    pub cycles: u64,
    /// Peak pool occupancy.
    pub peak_memory: Bits,
}

impl RunReport {
    fn from_stats(seed: u64, wall_clock_secs: f64, stats: &DiskRunStats) -> Self {
        RunReport {
            seed,
            wall_clock_secs,
            admitted: stats.admitted,
            deferred: stats.deferrals,
            rejected: stats.rejected,
            underflows: stats.underflows,
            services: stats.services,
            cycles: stats.cycles,
            peak_memory: stats.peak_memory,
        }
    }
}

/// A [`LatencyResult`] plus the per-seed reports the merge would erase.
#[derive(Clone, Debug)]
pub struct ObservedLatencyResult {
    /// The merged measurements (what [`run_latency_experiment`] returns).
    pub result: LatencyResult,
    /// One report per seed, in the experiment's seed order.
    pub reports: Vec<RunReport>,
}

/// Runs the experiment, one thread per seed.
///
/// # Errors
///
/// Returns [`ConfigError`] when the engine or workload configuration is
/// invalid (checked before any thread spawns).
pub fn run_latency_experiment(exp: &LatencyExperiment) -> Result<LatencyResult, ConfigError> {
    // `Obs::from_env` preserves the engine's historical default: stderr
    // tracing when a `VOD_DEBUG_*` variable is set, detached otherwise.
    run_latency_experiment_observed(exp, &|_| Obs::from_env()).map(|o| o.result)
}

/// Runs the experiment with an observer per seed: `observer(seed)` is
/// called once per seed (on the caller's thread) and the returned handle
/// receives that seed's engine events. Pass a shared
/// [`vod_obs::RecorderSink`] behind each handle to aggregate across
/// seeds — its sink is thread-safe.
///
/// # Errors
///
/// Returns [`ConfigError`] when the engine or workload configuration is
/// invalid (checked before any thread spawns).
pub fn run_latency_experiment_observed(
    exp: &LatencyExperiment,
    observer: &(dyn Fn(u64) -> Obs + Sync),
) -> Result<ObservedLatencyResult, ConfigError> {
    exp.workload.validate()?;
    // Engine::with_observer validates; build one up-front to fail fast.
    drop(DiskEngine::with_observer(exp.engine.clone(), Obs::null())?);

    let results: Vec<(DiskRunStats, RunReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = exp
            .seeds
            .iter()
            .map(|&seed| {
                let engine_cfg = exp.engine.clone();
                let wl_cfg = exp.workload.clone();
                let obs = observer(seed);
                scope.spawn(move || {
                    let started = std::time::Instant::now();
                    let workload = obs
                        .metrics()
                        .histogram(vod_obs::metrics::PHASE_WORKLOAD_GEN)
                        .time(|| generate(&wl_cfg, seed))
                        .expect("workload config validated above");
                    let audit_counter = obs
                        .metrics()
                        .counter(vod_obs::metrics::CTR_AUDIT_VIOLATIONS);
                    let trace_scope = engine_cfg.latency_seed ^ vod_obs::span::mix64(seed);
                    let mut engine = DiskEngine::with_observer(engine_cfg, obs)
                        .expect("engine config validated above");
                    // Each seed thread traces under its own scope, so a
                    // shared sink sees collision-free trace ids.
                    engine.set_trace_scope(trace_scope);
                    let stats = engine.run(&workload.arrivals);
                    audit_counter.add(stats.audit.violations as u64);
                    let report =
                        RunReport::from_stats(seed, started.elapsed().as_secs_f64(), &stats);
                    (stats, report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed thread panicked"))
            .collect()
    });

    let seeds = results.len();
    let audit = AuditOutcome::pooled(results.iter().map(|(stats, _)| &stats.audit));
    let mut merged = DiskRunStats::default();
    let mut reports = Vec::with_capacity(seeds);
    for (stats, report) in results {
        reports.push(report);
        merged.absorb(stats);
    }
    merged.audit = audit;
    Ok(ObservedLatencyResult {
        result: LatencyResult {
            stats: merged,
            seeds,
        },
        reports,
    })
}

/// Runs the buffer-level engine on every disk of a multi-disk workload —
/// one engine (and thread) per disk, since disks only interact through
/// memory, which the unbounded latency experiments do not constrain.
/// Returns per-disk stats indexed by disk id.
///
/// # Errors
///
/// Returns [`ConfigError`] when the engine configuration is invalid.
pub fn run_multi_disk(
    engine_cfg: &EngineConfig,
    workload: &vod_workload::Workload,
    disks: usize,
) -> Result<Vec<DiskRunStats>, ConfigError> {
    drop(DiskEngine::new(engine_cfg.clone())?);
    let results: Vec<DiskRunStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..disks)
            .map(|d| {
                let cfg = engine_cfg.clone();
                let arrivals = workload.for_disk(vod_types::DiskId::new(d as u64));
                scope.spawn(move || {
                    DiskEngine::new(cfg)
                        .expect("validated above")
                        .run(&arrivals)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("disk thread panicked"))
            .collect()
    });
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_types::Seconds;

    /// A small-but-real experiment: 2 seeds, 2 simulated hours, and a
    /// partial load (n ≈ 20 of 79) — the regime where the dynamic scheme's
    /// advantage lives.
    fn small_experiment(scheme: SchemeKind) -> LatencyExperiment {
        let mut exp = LatencyExperiment::paper(SchedulingMethod::RoundRobin, scheme, 1.0, 40.0);
        exp.workload.duration = Seconds::from_hours(2.0);
        exp.workload.peak = Seconds::from_hours(1.0);
        exp.seeds = vec![1, 2];
        exp
    }

    #[test]
    fn runs_multi_seed_and_merges() {
        let res = run_latency_experiment(&small_experiment(SchemeKind::Dynamic))
            .expect("valid experiment");
        assert_eq!(res.seeds, 2);
        assert!(res.stats.admitted > 0);
        assert_eq!(res.stats.underflows, 0);
        assert!(res.stats.audit.samples > 0);
        assert!(res.stats.audit.success_probability > 0.5);
        assert!(!res.stats.il_samples.is_empty());
    }

    #[test]
    fn dynamic_latency_is_below_static_on_average() {
        let dy = run_latency_experiment(&small_experiment(SchemeKind::Dynamic))
            .expect("valid experiment");
        let st = run_latency_experiment(&small_experiment(SchemeKind::Static))
            .expect("valid experiment");
        let dyl = dy.stats.mean_latency().expect("samples").as_secs_f64();
        let stl = st.stats.mean_latency().expect("samples").as_secs_f64();
        assert!(dyl < stl, "dynamic {dyl} >= static {stl}");
    }

    #[test]
    fn multi_disk_runner_covers_every_disk() {
        let mut cfg = vod_workload::WorkloadConfig::paper_ten_disk(0.5, 600.0);
        cfg.duration = Seconds::from_hours(2.0);
        cfg.peak = Seconds::from_minutes(45.0);
        let workload = vod_workload::generate(&cfg, 3).expect("valid workload");
        let engine_cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
        let stats = run_multi_disk(&engine_cfg, &workload, 10).expect("valid");
        assert_eq!(stats.len(), 10);
        let handled: u64 = stats.iter().map(|s| s.admitted + s.rejected).sum();
        assert_eq!(handled, workload.len() as u64);
        for (d, s) in stats.iter().enumerate() {
            assert_eq!(s.underflows, 0, "disk {d}");
        }
        // The Zipf skew puts more work on disk 0 than disk 9.
        assert!(stats[0].admitted > stats[9].admitted);
    }

    #[test]
    fn invalid_experiment_is_rejected_up_front() {
        let mut exp = small_experiment(SchemeKind::Dynamic);
        exp.workload.theta = 9.0;
        assert!(run_latency_experiment(&exp).is_err());
    }

    /// Everything in a [`RunReport`] except the host wall-clock, which
    /// is the one legitimately non-deterministic field.
    fn deterministic_part(r: &RunReport) -> (u64, u64, u64, u64, u64, u64, u64, Bits) {
        (
            r.seed,
            r.admitted,
            r.deferred,
            r.rejected,
            r.underflows,
            r.services,
            r.cycles,
            r.peak_memory,
        )
    }

    fn observed_with_seeds(seeds: Vec<u64>) -> ObservedLatencyResult {
        let mut exp = small_experiment(SchemeKind::Dynamic);
        exp.seeds = seeds;
        run_latency_experiment_observed(&exp, &|_| Obs::null()).expect("valid experiment")
    }

    #[test]
    fn per_seed_reports_are_seed_deterministic() {
        let a = observed_with_seeds(vec![1, 2]);
        let b = observed_with_seeds(vec![1, 2]);
        assert_eq!(a.reports.len(), 2);
        assert_eq!(a.reports[0].seed, 1, "reports follow experiment seed order");
        assert_eq!(a.reports[1].seed, 2);
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(deterministic_part(ra), deterministic_part(rb));
        }
        // Different seeds genuinely differ (the workloads do).
        let s1 = deterministic_part(&a.reports[0]);
        let s2 = deterministic_part(&a.reports[1]);
        assert_ne!(
            (s1.1, s1.5, s1.6),
            (s2.1, s2.5, s2.6),
            "seeds 1 and 2 produced identical runs"
        );
    }

    #[test]
    fn merge_is_seed_order_independent() {
        let fwd = observed_with_seeds(vec![1, 2]);
        let rev = observed_with_seeds(vec![2, 1]);

        // Per-seed reports match up after aligning on seed.
        let find = |o: &ObservedLatencyResult, seed: u64| {
            deterministic_part(o.reports.iter().find(|r| r.seed == seed).expect("seed ran"))
        };
        assert_eq!(find(&fwd, 1), find(&rev, 1));
        assert_eq!(find(&fwd, 2), find(&rev, 2));

        // Merged counters and order-insensitive statistics agree
        // exactly; the mean only up to float-summation order.
        let (f, r) = (&fwd.result.stats, &rev.result.stats);
        assert_eq!(f.admitted, r.admitted);
        assert_eq!(f.rejected, r.rejected);
        assert_eq!(f.deferrals, r.deferrals);
        assert_eq!(f.services, r.services);
        assert_eq!(f.cycles, r.cycles);
        assert_eq!(f.underflows, r.underflows);
        assert_eq!(f.peak_memory, r.peak_memory);
        assert_eq!(f.il_samples.len(), r.il_samples.len());
        assert_eq!(f.latency_percentile(0.5), r.latency_percentile(0.5));
        assert_eq!(f.latency_percentile(0.95), r.latency_percentile(0.95));
        let (mf, mr) = (
            f.mean_latency().expect("samples").as_secs_f64(),
            r.mean_latency().expect("samples").as_secs_f64(),
        );
        assert!((mf - mr).abs() < 1e-9, "means diverged: {mf} vs {mr}");
        assert_eq!(f.audit.samples, r.audit.samples);
    }

    #[test]
    fn shared_metrics_registry_aggregates_across_seed_threads() {
        use std::sync::Arc;
        use vod_obs::metrics::{
            Metrics, MetricsRegistry, CTR_ADMITTED, CTR_CYCLES, CTR_SERVICES, PHASE_ADMISSION,
            PHASE_CYCLE_PLAN, PHASE_SERVICE, PHASE_TABLE_BUILD, PHASE_WORKLOAD_GEN,
        };

        let exp = small_experiment(SchemeKind::Dynamic);
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&reg)));
        let res =
            run_latency_experiment_observed(&exp, &|_| obs.clone()).expect("valid experiment");
        let snap = reg.snapshot();

        // Counters agree with the merged stats exactly.
        let stats = &res.result.stats;
        assert_eq!(snap.counter(CTR_ADMITTED), Some(stats.admitted));
        assert_eq!(snap.counter(CTR_SERVICES), Some(stats.services));
        assert_eq!(snap.counter(CTR_CYCLES), Some(stats.cycles));

        // Every instrumented phase recorded samples: workload gen once
        // per seed, table build twice per engine (sizer + admission
        // controller), service at most once per cycle.
        assert_eq!(
            snap.histogram(PHASE_WORKLOAD_GEN)
                .expect("registered")
                .count,
            2
        );
        assert_eq!(
            snap.histogram(PHASE_TABLE_BUILD).expect("registered").count,
            4
        );
        let service = snap.histogram(PHASE_SERVICE).expect("registered").count;
        assert!(0 < service && service <= stats.cycles, "{service}");
        assert!(snap.histogram(PHASE_CYCLE_PLAN).expect("registered").count > 0);
        assert!(snap.histogram(PHASE_ADMISSION).expect("registered").count > 0);
    }
}
