//! Acceptance bar for the time-series telemetry layer, mirroring the
//! tracing one in `trace_nonperturbation.rs`:
//!
//! 1. Across the full 18-cell bench matrix (compressed scale), a run
//!    with series sampling attached produces `DiskRunStats`
//!    bit-identical to a detached run — sampling reads state the engine
//!    already maintains and is emission-gated exactly like spans.
//! 2. The sampled series themselves are deterministic: a cluster run
//!    exports byte-identical series JSONL whatever the `--jobs` count.

use std::sync::Arc;

use vod_bench::cluster::cluster_engine_config;
use vod_bench::{BenchMode, Matrix};
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_obs::timeseries::{engine_series, SeriesRecorder};
use vod_sim::DiskEngine;
use vod_types::Seconds;
use vod_workload::{generate, multi_movie, MultiMovieConfig, WorkloadConfig};

#[test]
fn full_matrix_stats_are_bit_identical_with_series_sampling() {
    let cells = BenchMode::Full.cells();
    assert_eq!(cells.len(), 18, "the paper matrix is 18 cells");

    let mut sampled_points_total = 0usize;
    for (scheme, method, theta) in cells {
        let mut wl_cfg = WorkloadConfig::paper_single_disk(theta, 60.0);
        wl_cfg.duration = Seconds::from_minutes(30.0);
        wl_cfg.peak = Seconds::from_minutes(15.0);
        wl_cfg.max_viewing = Seconds::from_minutes(10.0);
        let wl = generate(&wl_cfg, 1).expect("valid workload config");

        let cfg = vod_sim::EngineConfig::paper(method, scheme);
        let bare = DiskEngine::new(cfg.clone())
            .expect("paper config is valid")
            .run(&wl.arrivals);

        let recorder = SeriesRecorder::new("engine");
        let mut engine = DiskEngine::new(cfg).expect("paper config is valid");
        engine.set_series_recorder(&recorder);
        let sampled = engine.run(&wl.arrivals);

        assert_eq!(
            bare,
            sampled,
            "({scheme:?} / {} / θ = {theta}): series sampling perturbed the run",
            method.label()
        );
        assert_eq!(
            bare.peak_memory.as_f64().to_bits(),
            sampled.peak_memory.as_f64().to_bits(),
            "({scheme:?} / {} / θ = {theta}): peak memory drifted",
            method.label()
        );

        let series = recorder.snapshot();
        let names: Vec<&str> = series.iter().map(|s| s.name()).collect();
        for expected in [
            engine_series::POOL_USED_BITS,
            engine_series::ACTIVE_STREAMS,
            engine_series::ADMISSION_HEADROOM,
            engine_series::DEFERRAL_QUEUE_DEPTH,
            engine_series::CYCLE_SERVICE_S,
        ] {
            assert!(
                names.contains(&expected),
                "({scheme:?} / {} / θ = {theta}): series `{expected}` missing, have {names:?}",
                method.label()
            );
        }
        sampled_points_total += series.iter().map(|s| s.points().len()).sum::<usize>();
    }
    assert!(
        sampled_points_total > 0,
        "the sampled runs must actually have recorded points"
    );
}

/// Runs one small cluster cell with series recorders attached and
/// returns the full series JSONL export (cluster scope, then nodes).
fn cluster_series_jsonl(jobs: usize) -> String {
    let movies = 8;
    let cfg = ClusterConfig {
        nodes: 2,
        engine: cluster_engine_config(),
        movies,
        movie_theta: 0.271,
        placement: PlacementPolicy::ReplicatedHot {
            replicas: 2,
            hot_movies: 2,
        },
        dispatch: DispatchPolicy::MostHeadroom,
        seed: 1,
    };
    let mut wl_cfg = MultiMovieConfig::paper_cluster(movies, 0.271, 300.0);
    wl_cfg.duration = Seconds::from_hours(1.0);
    wl_cfg.peak = Seconds::from_hours(0.5);
    wl_cfg.profile_theta = 0.4;
    let wl = multi_movie(&wl_cfg, 1).expect("valid workload config");

    let cluster_rec = SeriesRecorder::new("cluster");
    let node_recs: Vec<Arc<SeriesRecorder>> = (0..2)
        .map(|i| Arc::new(SeriesRecorder::new(&format!("node{i}"))))
        .collect();
    let mut cluster =
        Cluster::with_observer(cfg, vod_obs::Obs::null()).expect("valid cluster config");
    cluster.set_series_recorders(&cluster_rec, &node_recs);
    let report = cluster.run_with_jobs(&wl.arrivals, jobs);
    assert!(report.dispatched > 0);

    let mut out = cluster_rec.export_jsonl();
    for rec in &node_recs {
        out.push_str(&rec.export_jsonl());
    }
    out
}

#[test]
fn cluster_series_export_is_byte_identical_across_job_counts() {
    let seq = cluster_series_jsonl(1);
    let par = cluster_series_jsonl(2);
    assert!(!seq.is_empty(), "the run must record series");
    assert!(
        seq.contains("\"scope\":\"cluster\"") && seq.contains("imbalance_ratio"),
        "cluster-scope series expected: {}",
        &seq[..seq.len().min(400)]
    );
    assert!(
        seq.contains("\"scope\":\"node1\""),
        "per-node series expected"
    );
    assert_eq!(
        seq, par,
        "series export must not depend on the worker count"
    );
}
