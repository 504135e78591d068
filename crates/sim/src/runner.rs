//! Multi-seed experiment runners.
//!
//! The paper runs each simulation five times with different seeds to tame
//! noise (§5.2). [`run_latency_experiment`] reproduces that: it generates
//! one workload per seed, replays each against the configured engine on
//! its own thread (in seed order on the calling thread when a sink is
//! attached), and merges the measurements.

use vod_core::SchemeKind;
use vod_obs::Obs;
use vod_sched::SchedulingMethod;
use vod_types::ConfigError;
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

/// Runs the experiment, one thread per seed. Every seed's engine reports
/// to a clone of `obs`; a shared [`vod_obs::RecorderSink`] or metrics
/// registry behind it aggregates across seeds (both are thread-safe).
///
/// With a sink attached ([`Obs::is_attached`]) the seeds run one after
/// another on the calling thread, in seed order, so the sink sees the
/// same event sequence on every run: a bounded recorder keeps the same
/// records and drops the same count. A metrics registry alone does not
/// serialize the run. The merged stats are the same either way.
///
/// # Errors
///
/// Returns [`ConfigError`] when the engine or workload configuration is
/// invalid (checked before any thread spawns).
pub fn run_latency_experiment(
    exp: &LatencyExperiment,
    obs: &Obs,
) -> Result<LatencyResult, ConfigError> {
    exp.workload.validate()?;
    // Engine::with_observer validates; build one up-front to fail fast.
    drop(DiskEngine::with_observer(exp.engine.clone(), Obs::null())?);

    let run_seed = |seed: u64| {
        let workload = obs
            .metrics()
            .histogram(vod_obs::metrics::PHASE_WORKLOAD_GEN)
            .time(|| generate(&exp.workload, seed))
            .expect("workload config validated above");
        let trace_scope = exp.engine.latency_seed ^ vod_obs::span::mix64(seed);
        let mut engine = DiskEngine::with_observer(exp.engine.clone(), obs.clone())
            .expect("engine config validated above");
        // Each seed traces under its own scope, so a shared sink sees
        // collision-free trace ids.
        engine.set_trace_scope(trace_scope);
        engine.run(&workload.arrivals)
    };
    let results: Vec<DiskRunStats> = if obs.is_attached() {
        // A sink sees the seeds' events in seed order, so a bounded
        // recorder keeps the same records on every run.
        exp.seeds.iter().map(|&seed| run_seed(seed)).collect()
    } else {
        let run_seed = &run_seed;
        std::thread::scope(|scope| {
            let handles: Vec<_> = exp
                .seeds
                .iter()
                .map(|&seed| scope.spawn(move || run_seed(seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("seed thread panicked"))
                .collect()
        })
    };

    let seeds = results.len();
    let audit = AuditOutcome::pooled(results.iter().map(|stats| &stats.audit));
    let mut merged = DiskRunStats::default();
    for stats in results {
        merged.absorb(stats);
    }
    merged.audit = audit;
    Ok(LatencyResult {
        stats: merged,
        seeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_types::{Bits, Seconds};

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

    fn run(exp: &LatencyExperiment) -> LatencyResult {
        run_latency_experiment(exp, &Obs::null()).expect("valid experiment")
    }

    fn with_seeds(seeds: Vec<u64>) -> LatencyResult {
        let mut exp = small_experiment(SchemeKind::Dynamic);
        exp.seeds = seeds;
        run(&exp)
    }

    /// The merged counters a rerun must reproduce exactly.
    fn counters(r: &LatencyResult) -> (u64, u64, u64, u64, u64, u64, Bits) {
        let s = &r.stats;
        (
            s.admitted,
            s.deferrals,
            s.rejected,
            s.underflows,
            s.services,
            s.cycles,
            s.peak_memory,
        )
    }

    #[test]
    fn runs_multi_seed_and_merges() {
        let res = run(&small_experiment(SchemeKind::Dynamic));
        assert_eq!(res.seeds, 2);
        assert!(res.stats.admitted > 0);
        assert_eq!(res.stats.underflows, 0);
        assert!(res.stats.audit.samples > 0);
        assert!(res.stats.audit.success_probability > 0.5);
        assert!(!res.stats.il_samples.is_empty());
    }

    #[test]
    fn dynamic_latency_is_below_static_on_average() {
        let dy = run(&small_experiment(SchemeKind::Dynamic));
        let st = run(&small_experiment(SchemeKind::Static));
        let dyl = dy.stats.mean_latency().expect("samples").as_secs_f64();
        let stl = st.stats.mean_latency().expect("samples").as_secs_f64();
        assert!(dyl < stl, "dynamic {dyl} >= static {stl}");
    }

    #[test]
    fn invalid_experiment_is_rejected_up_front() {
        let mut exp = small_experiment(SchemeKind::Dynamic);
        exp.workload.theta = 9.0;
        assert!(run_latency_experiment(&exp, &Obs::null()).is_err());
    }

    #[test]
    fn results_are_seed_deterministic() {
        let a = with_seeds(vec![1]);
        assert_eq!(counters(&a), counters(&with_seeds(vec![1])));
        assert_eq!(a.stats.il_samples, with_seeds(vec![1]).stats.il_samples);
        // Different seeds genuinely differ (the workloads do).
        let b = with_seeds(vec![2]);
        let (ca, cb) = (counters(&a), counters(&b));
        assert_ne!(
            (ca.0, ca.4, ca.5),
            (cb.0, cb.4, cb.5),
            "seeds 1 and 2 produced identical runs"
        );
    }

    #[test]
    fn merge_is_seed_order_independent() {
        let fwd = with_seeds(vec![1, 2]);
        let rev = with_seeds(vec![2, 1]);

        // Merged counters and order-insensitive statistics agree
        // exactly; the mean only up to float-summation order.
        assert_eq!(counters(&fwd), counters(&rev));
        let (f, r) = (&fwd.stats, &rev.stats);
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

    /// A traced run is reproducible: with a sink attached the seeds run
    /// in seed order, so a recorder too small for the whole run keeps
    /// the same records and drops the same counts on every run.
    #[test]
    fn traced_runs_record_identical_events() {
        use std::sync::Arc;
        use vod_obs::RecorderSink;

        let mut exp = small_experiment(SchemeKind::Dynamic);
        exp.seeds = vec![1, 2, 3, 4];
        let traced = || {
            let recorder = Arc::new(RecorderSink::with_capacity(20_000));
            let obs = Obs::new(Arc::clone(&recorder) as Arc<dyn vod_obs::Sink>);
            let res = run_latency_experiment(&exp, &obs).expect("valid experiment");
            (res, recorder.snapshot())
        };
        let (res, a) = traced();
        let (_, b) = traced();
        assert!(a.events_dropped() > 0, "the bound must bite");
        assert_eq!(a.events(), b.events());
        assert_eq!(
            (a.events_dropped(), a.spans_dropped()),
            (b.events_dropped(), b.spans_dropped())
        );
        // Running in order changes no merged counter.
        assert_eq!(counters(&res), counters(&run(&exp)));
    }

    #[test]
    fn shared_metrics_registry_aggregates_across_seed_threads() {
        use std::sync::Arc;
        use vod_obs::metrics::{
            Metrics, MetricsRegistry, PHASE_ADMISSION, PHASE_CYCLE_PLAN, PHASE_SERVICE,
            PHASE_TABLE_BUILD, PHASE_WORKLOAD_GEN,
        };

        let exp = small_experiment(SchemeKind::Dynamic);
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&reg)));
        let res = run_latency_experiment(&exp, &obs).expect("valid experiment");
        let snap = reg.snapshot();

        // The registry does not perturb the merged result, and holds
        // only the phase histograms.
        let stats = &res.stats;
        let plain = run(&exp);
        assert_eq!(counters(&res), counters(&plain));
        assert_eq!(stats.il_samples, plain.stats.il_samples);
        let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(
            names,
            [
                PHASE_ADMISSION,
                PHASE_CYCLE_PLAN,
                PHASE_SERVICE,
                PHASE_TABLE_BUILD,
                PHASE_WORKLOAD_GEN
            ]
        );

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
