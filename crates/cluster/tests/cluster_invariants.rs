//! Cluster invariants: pass-through transparency, Assumption-1 safety
//! under arbitrary redirection interleavings, and job-count determinism.

use proptest::prelude::*;
use std::sync::Arc;
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::SchemeKind;

use vod_obs::metrics::{Metrics, MetricsRegistry};
use vod_obs::{prom, Obs};
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, EngineConfig};
use vod_workload::{multi_movie, MultiMovieConfig};

fn cluster_cfg(
    nodes: usize,
    movies: usize,
    placement: PlacementPolicy,
    dispatch: DispatchPolicy,
) -> ClusterConfig {
    ClusterConfig {
        nodes,
        engine: EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic),
        movies,
        movie_theta: 0.271,
        placement,
        dispatch,
        seed: 0xc1u64,
    }
}

fn workload(movies: usize, expected: f64, seed: u64) -> vod_workload::Workload {
    let mut cfg = MultiMovieConfig::paper_cluster(movies, 0.271, expected);
    // Compress the day so cluster tests stay fast: 2 h horizon.
    cfg.duration = vod_types::Seconds::from_hours(2.0);
    cfg.peak = vod_types::Seconds::from_hours(1.0);
    multi_movie(&cfg, seed).expect("valid multi-movie config")
}

/// (a) An N=1 pass-through cluster is a transparent wrapper: its single
/// node's `DiskRunStats` equal a bare `DiskEngine::run` over the same
/// trace, bit for bit.
#[test]
fn n1_pass_through_is_bit_identical_to_bare_engine() {
    let wl = workload(12, 150.0, 7);
    let engine_cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);

    let bare = DiskEngine::new(engine_cfg.clone())
        .expect("paper config is valid")
        .run(&wl.arrivals);

    let cfg = cluster_cfg(
        1,
        12,
        PlacementPolicy::PassThrough,
        DispatchPolicy::LeastLoaded,
    );
    let report = Cluster::new(cfg)
        .expect("valid cluster config")
        .run(&wl.arrivals);

    assert_eq!(report.nodes.len(), 1);
    assert_eq!(report.nodes[0].stats, bare);
    assert_eq!(report.redirected, 0);
    assert_eq!(report.overflow_queued, 0);
}

/// (c) The parallel drain merges by node index: jobs = 1 and jobs = 2
/// produce byte-identical reports.
#[test]
fn job_count_does_not_change_the_report() {
    let wl = workload(24, 400.0, 11);
    let placement = PlacementPolicy::ReplicatedHot {
        replicas: 2,
        hot_movies: 6,
    };
    let mk = || {
        Cluster::new(cluster_cfg(4, 24, placement, DispatchPolicy::LeastLoaded))
            .expect("valid cluster config")
    };
    let sequential = mk().run_with_jobs(&wl.arrivals, 1);
    let parallel = mk().run_with_jobs(&wl.arrivals, 2);
    assert_eq!(sequential, parallel);
}

/// A 16-node scaling smoke: completes, replays deterministically with a
/// metrics registry attached, and the registry holds only the engines'
/// phase histograms (the counts live once, in the report).
#[test]
fn sixteen_node_smoke_is_deterministic_with_a_registry_attached() {
    let wl = workload(64, 600.0, 3);
    let placement = PlacementPolicy::ReplicatedHot {
        replicas: 3,
        hot_movies: 16,
    };
    let mk = |obs: Obs| {
        Cluster::with_observer(
            cluster_cfg(16, 64, placement, DispatchPolicy::MostHeadroom),
            obs,
        )
        .expect("valid cluster config")
    };
    let registry = Arc::new(MetricsRegistry::new());
    let a = mk(Obs::null().with_metrics(Metrics::new(Arc::clone(&registry)))).run(&wl.arrivals);
    let b = mk(Obs::null()).run(&wl.arrivals);
    assert_eq!(a, b, "16-node run must replay bit-identically");
    assert_eq!(a.nodes.len(), 16);
    assert_eq!(
        a.dispatched,
        wl.arrivals.len() as u64,
        "every arrival lands exactly once"
    );

    let text = prom::render(&registry.snapshot());
    let families: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    assert_eq!(
        families,
        [
            "# TYPE vod_phase_admission_seconds histogram",
            "# TYPE vod_phase_cycle_plan_seconds histogram",
            "# TYPE vod_phase_service_seconds histogram",
            "# TYPE vod_phase_table_build_seconds histogram",
        ],
        "{text}"
    );
}

/// Every placement × dispatch pair conserves arrivals: dispatched =
/// trace length, and per-node admissions + rejections + still-queued
/// account for everything offered.
#[test]
fn all_policy_pairs_conserve_arrivals() {
    let wl = workload(16, 250.0, 5);
    let placements = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::ZipfStripe,
        PlacementPolicy::ReplicatedHot {
            replicas: 2,
            hot_movies: 4,
        },
    ];
    let dispatches = [
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::MostHeadroom,
        DispatchPolicy::RandomOfK { k: 2 },
    ];
    for placement in placements {
        for dispatch in dispatches {
            let report = Cluster::new(cluster_cfg(4, 16, placement, dispatch))
                .expect("valid cluster config")
                .run(&wl.arrivals);
            assert_eq!(
                report.dispatched,
                wl.arrivals.len() as u64,
                "{placement:?}/{dispatch:?}"
            );
            let per_node: u64 = report.nodes.iter().map(|n| n.dispatched).sum();
            assert_eq!(per_node, report.dispatched, "{placement:?}/{dispatch:?}");
            assert_eq!(
                report.admitted() + report.rejected(),
                report.dispatched,
                "{placement:?}/{dispatch:?}: a drained cluster leaves nothing in limbo"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (b) Assumption 1 is enforced *per node* no matter how redirection
    /// interleaves arrivals across replicas: under the dynamic scheme no
    /// node ever underflows, for arbitrary seeds, node counts,
    /// replication factors, and dispatch policies. (Debug builds also
    /// cross-check the admission controller's min-aggregates on every
    /// query inside the run.)
    #[test]
    fn no_node_violates_assumption_1_under_redirection(
        seed in 0u64..1_000,
        nodes in 2usize..5,
        replicas in 2usize..3,
        hot in 1usize..8,
        dispatch_idx in 0usize..3,
    ) {
        let dispatch = match dispatch_idx {
            0 => DispatchPolicy::LeastLoaded,
            1 => DispatchPolicy::MostHeadroom,
            _ => DispatchPolicy::RandomOfK { k: 2 },
        };
        let movies = 12usize;
        let wl = workload(movies, 140.0, seed);
        let placement = PlacementPolicy::ReplicatedHot {
            replicas: replicas.min(nodes),
            hot_movies: hot,
        };
        let mut cfg = cluster_cfg(nodes, movies, placement, dispatch);
        cfg.seed = seed;
        let report = Cluster::new(cfg)
            .expect("valid cluster config")
            .run(&wl.arrivals);
        for node in &report.nodes {
            prop_assert_eq!(
                node.stats.underflows,
                0,
                "node {} underflowed: redirection must never bypass its controller",
                node.node
            );
        }
    }
}

/// A catalog with more movies than a 32-bit `VideoId` can name is a
/// config error, refused before the popularity table is allocated.
#[test]
fn a_catalog_past_32_bit_video_ids_is_rejected() {
    let movies = usize::try_from(u64::from(u32::MAX) + 2).expect("64-bit usize");
    let cfg = cluster_cfg(
        2,
        movies,
        PlacementPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
    );
    let err = Cluster::new(cfg).err().expect("too many movies");
    assert_eq!(err.parameter, "cluster_movies");
}
