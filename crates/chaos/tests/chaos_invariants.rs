//! Chaos invariants: the empty schedule is the identity, failover never
//! breaks the zero-underflow guarantee (property-tested over arbitrary
//! schedules × placement × dispatch), accounting is exact, and runs are
//! byte-identical at any job count.

use proptest::prelude::*;
use vod_chaos::{
    run_chaos, run_chaos_on, ChaosConfig, FailoverPolicy, Fault, FaultEvent, FaultSchedule,
    RecoveryPolicy,
};
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::SchemeKind;
use vod_obs::Obs;
use vod_sched::SchedulingMethod;
use vod_sim::EngineConfig;
use vod_types::{Instant, Seconds};
use vod_workload::{multi_movie, MultiMovieConfig};

fn cluster_cfg(nodes: usize, movies: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        engine: EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic),
        movies,
        movie_theta: 0.271,
        placement: PlacementPolicy::ReplicatedHot {
            replicas: 2,
            hot_movies: movies / 4,
        },
        dispatch: DispatchPolicy::LeastLoaded,
        seed: 0xc8a05,
    }
}

fn workload(movies: usize, expected: f64, seed: u64) -> vod_workload::Workload {
    let mut cfg = MultiMovieConfig::paper_cluster(movies, 0.271, expected);
    cfg.duration = Seconds::from_hours(2.0);
    cfg.peak = Seconds::from_hours(1.0);
    multi_movie(&cfg, seed).expect("valid multi-movie config")
}

fn chaos_cfg(nodes: usize, movies: usize, schedule: FaultSchedule) -> ChaosConfig {
    ChaosConfig {
        cluster: cluster_cfg(nodes, movies),
        schedule,
        failover: FailoverPolicy::Migrate,
        recovery: RecoveryPolicy::Warm,
        reseed_after: None,
    }
}

/// The tentpole identity: with an empty schedule, the chaos runner *is*
/// `Cluster::run` — the cluster report matches bit for bit (stats,
/// audits, peak memory), and the summary shows an untouched cluster.
#[test]
fn empty_schedule_is_bit_identical_to_plain_run() {
    let wl = workload(16, 300.0, 5);
    let plain = Cluster::new(cluster_cfg(4, 16))
        .expect("valid cluster config")
        .run(&wl.arrivals);

    let cfg = chaos_cfg(4, 16, FaultSchedule::empty());
    let chaos = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid chaos config");

    assert_eq!(chaos.cluster, plain);
    assert_eq!(chaos.summary.faults_injected, 0);
    assert_eq!(chaos.summary.interrupted, 0);
    assert_eq!(chaos.summary.dropped, 0);
    assert_eq!(chaos.summary.unplaceable, 0);
    assert!((chaos.summary.availability - 1.0).abs() < f64::EPSILON);
    assert_eq!(chaos.summary.mean_time_to_recover_s, None);
}

/// A crash + rejoin script: zero underflows survive the failover, every
/// interrupted stream is accounted exactly once, availability dips below
/// one, and the recovery time is measured.
#[test]
fn crash_migrate_rejoin_accounts_and_stays_underflow_free() {
    let wl = workload(16, 400.0, 9);
    let schedule = FaultSchedule::from_script(
        "1800 0 crash\n\
         4300 0 rejoin:cold\n",
    )
    .expect("valid script");
    let cfg = ChaosConfig {
        recovery: RecoveryPolicy::Cold,
        ..chaos_cfg(4, 16, schedule)
    };
    let report = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid chaos config");

    assert_eq!(report.cluster.underflows(), 0, "Assumption 1 must hold");
    assert_eq!(report.summary.crashes, 1);
    assert_eq!(report.summary.recoveries, 1);
    assert_eq!(report.summary.cold_rebuilds, 1);
    assert!(
        report.summary.interrupted > 0,
        "a mid-peak crash must interrupt streams"
    );
    assert_eq!(
        report.summary.interrupted,
        report.summary.migrated + report.summary.parked + report.summary.dropped,
        "every interrupted stream lands in exactly one bucket"
    );
    assert!(report.summary.availability < 1.0);
    let ttr = report
        .summary
        .mean_time_to_recover_s
        .expect("the node rejoined");
    assert!((ttr - 2500.0).abs() < 1e-6);
}

/// The Drop policy is the lower bound: every interrupted stream is
/// dropped, none migrate or park.
#[test]
fn drop_policy_drops_every_interrupted_stream() {
    let wl = workload(16, 400.0, 9);
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        at: Instant::from_secs(1800.0),
        node: 0,
        fault: Fault::NodeCrash,
    }]);
    let cfg = ChaosConfig {
        failover: FailoverPolicy::Drop,
        ..chaos_cfg(4, 16, schedule)
    };
    let report = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid chaos config");
    assert!(report.summary.interrupted > 0);
    assert_eq!(report.summary.dropped, report.summary.interrupted);
    assert_eq!(report.summary.migrated, 0);
    assert_eq!(report.summary.parked, 0);
}

/// Chaos runs are byte-identical at any job count, like plain runs.
#[test]
fn chaos_report_is_job_count_invariant() {
    let wl = workload(16, 350.0, 13);
    let schedule = FaultSchedule::from_seed(21, 4, Seconds::from_hours(2.0));
    let cfg = chaos_cfg(4, 16, schedule);
    let a = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid chaos config");
    let b = run_chaos(&cfg, &wl.arrivals, 2, Obs::null()).expect("valid chaos config");
    assert_eq!(a, b);
}

/// A schedule referencing a node outside the cluster is a config error,
/// not a panic.
#[test]
fn out_of_range_schedule_is_rejected() {
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        at: Instant::from_secs(10.0),
        node: 7,
        fault: Fault::NodeCrash,
    }]);
    let err = run_chaos(&chaos_cfg(2, 8, schedule), &[], 1, Obs::null()).unwrap_err();
    assert!(err.to_string().contains("node 7"));
}

/// A catalog with more movies than a 32-bit `VideoId` can name is a
/// config error, refused before the cluster allocates its popularity
/// table, so the re-replication pass never meets an id it cannot form.
#[test]
fn a_catalog_past_32_bit_video_ids_is_rejected() {
    let movies = usize::try_from(u64::from(u32::MAX) + 2).expect("64-bit usize");
    let cfg = chaos_cfg(2, movies, FaultSchedule::empty());
    let err = run_chaos(&cfg, &[], 1, Obs::null()).unwrap_err();
    assert_eq!(err.parameter, "cluster_movies");
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::NodeCrash),
        (1.0f64..8.0).prop_map(|factor| Fault::NodeSlow { factor }),
        (0.0f64..=1.0).prop_map(|fraction| Fault::MemoryPressure { fraction }),
        Just(Fault::NodeRejoin { mode: None }),
    ]
}

fn arb_schedule(nodes: usize, horizon_s: f64) -> impl Strategy<Value = FaultSchedule> {
    proptest::collection::vec(
        (0.0..horizon_s, 0..nodes, arb_fault()).prop_map(|(t, node, fault)| FaultEvent {
            at: Instant::from_secs(t),
            node,
            fault,
        }),
        0..8,
    )
    .prop_map(FaultSchedule::from_events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline safety property: across arbitrary fault schedules,
    /// placement, dispatch, and failover policy, no run ever underflows
    /// a buffer — failover goes through admission, and admission
    /// enforces Assumption 1. Accounting stays exact and the run
    /// replays bit-identically.
    #[test]
    fn arbitrary_chaos_never_underflows(
        schedule in arb_schedule(3, 7200.0),
        replicas in 1usize..=3,
        dispatch_least in any::<bool>(),
        failover_idx in 0usize..3,
        seed in 0u64..4,
    ) {
        let wl = workload(12, 250.0, seed);
        let mut cluster = cluster_cfg(3, 12);
        cluster.placement = PlacementPolicy::ReplicatedHot { replicas, hot_movies: 3 };
        cluster.dispatch = if dispatch_least {
            DispatchPolicy::LeastLoaded
        } else {
            DispatchPolicy::MostHeadroom
        };
        let cfg = ChaosConfig {
            cluster,
            schedule,
            failover: FailoverPolicy::ALL[failover_idx],
            recovery: RecoveryPolicy::Warm,
            reseed_after: None,
        };
        let a = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid chaos config");
        prop_assert_eq!(a.cluster.underflows(), 0, "buffer underflow under chaos");
        prop_assert_eq!(
            a.summary.interrupted,
            a.summary.migrated + a.summary.parked + a.summary.dropped
        );
        prop_assert!(a.summary.availability >= 0.0 && a.summary.availability <= 1.0);
        let b = run_chaos(&cfg, &wl.arrivals, 2, Obs::null()).expect("valid chaos config");
        prop_assert_eq!(a, b);
    }
}

/// A failover span names the request it continues by trace id. Ids are
/// splitmix hashes, mostly above 2^53, where a JSON number would round
/// them; written in the 16-hex-digit form every id uses, each one reads
/// back from the trace exactly, and names a request the run started.
#[test]
fn failover_spans_read_back_the_original_trace_id() {
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use vod_obs::trace::parse_file;
    use vod_obs::{AnnoValue, Event, EventKind, RecorderSink, SpanKind, TraceId, TraceLine};

    let wl = workload(16, 400.0, 9);
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        at: Instant::from_secs(1800.0),
        node: 0,
        fault: Fault::NodeCrash,
    }]);
    let recorder = Arc::new(RecorderSink::new().with_kinds(&[
        EventKind::SpanStart,
        EventKind::SpanAnnotate,
        EventKind::SpanEnd,
    ]));
    let obs = Obs::new(Arc::clone(&recorder) as Arc<dyn vod_obs::Sink>);
    let cfg = chaos_cfg(4, 16, schedule);
    // Lifecycle spans only (a stream's one service span is its first
    // fill), so the recorder holds the whole run.
    let cluster = Cluster::with_observer(cfg.cluster.clone(), obs).expect("valid cluster");
    let report = run_chaos_on(cluster, &cfg, &wl.arrivals, 1);
    assert!(report.summary.migrated >= 1, "{:?}", report.summary);

    let snap = recorder.snapshot();
    assert_eq!(snap.dropped(), 0);
    let orig = |e: &Event<'_>| match *e {
        Event::SpanAnnotate {
            key: "orig_trace",
            value,
            ..
        } => match value {
            AnnoValue::Trace(t) => Some(t),
            other => panic!("orig_trace must be a trace id, not {other:?}"),
        },
        _ => None,
    };
    let written: Vec<TraceId> = snap.events().iter().filter_map(orig).collect();
    let jsonl = snap.export_jsonl();
    let lines = parse_file(&jsonl).expect("the trace parses");
    let events: Vec<&Event<'_>> = lines
        .iter()
        .filter_map(|(_, l)| match l {
            TraceLine::Event(e) => Some(e),
            _ => None,
        })
        .collect();
    let read: Vec<TraceId> = events.iter().copied().filter_map(orig).collect();
    assert_eq!(read, written);
    assert!(read.len() as u64 >= report.summary.migrated);
    assert!(read.iter().any(|t| t.raw() > 1 << 53), "{read:?}");
    let requests: BTreeSet<TraceId> = events
        .iter()
        .filter_map(|e| match **e {
            Event::SpanStart {
                trace,
                span_kind: SpanKind::Request,
                ..
            } => Some(trace),
            _ => None,
        })
        .collect();
    assert!(read.iter().all(|t| requests.contains(t)));
}
