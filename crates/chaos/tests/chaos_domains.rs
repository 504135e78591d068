//! Correlated-failure invariants: domain schedules are bit-identical to
//! their flat expansions, partial disk faults are admission-equivalent
//! to whole-node throttles at one disk, re-replication re-admits parked
//! streams only through admission, and conservation + zero-underflow
//! hold property-tested over domain schedules × placement × failover ×
//! re-replication.

use proptest::prelude::*;
use vod_chaos::{
    run_chaos, run_chaos_on, ChaosConfig, ChaosSummary, DomainEvent, DomainFault, DomainMap,
    FailoverPolicy, Fault, FaultEvent, FaultSchedule, RecoveryPolicy,
};
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::memory::min_memory_static;
use vod_core::SchemeKind;
use vod_obs::Obs;
use vod_sched::SchedulingMethod;
use vod_sim::EngineConfig;
use vod_types::{Instant, Seconds};
use vod_workload::{multi_movie, MultiMovieConfig};

fn cluster_cfg(nodes: usize, movies: usize, disks: usize) -> ClusterConfig {
    let mut engine = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
    engine.disks = disks;
    ClusterConfig {
        nodes,
        engine,
        movies,
        movie_theta: 0.271,
        placement: PlacementPolicy::ReplicatedHot {
            replicas: 2,
            hot_movies: movies / 4,
        },
        dispatch: DispatchPolicy::LeastLoaded,
        seed: 0xd0a1,
    }
}

fn workload(movies: usize, expected: f64, seed: u64) -> vod_workload::Workload {
    let mut cfg = MultiMovieConfig::paper_cluster(movies, 0.271, expected);
    cfg.duration = Seconds::from_hours(2.0);
    cfg.peak = Seconds::from_hours(1.0);
    multi_movie(&cfg, seed).expect("valid multi-movie config")
}

fn chaos_cfg(cluster: ClusterConfig, schedule: FaultSchedule) -> ChaosConfig {
    ChaosConfig {
        cluster,
        schedule,
        failover: FailoverPolicy::Migrate,
        recovery: RecoveryPolicy::Warm,
        reseed_after: None,
    }
}

/// A domain schedule over singleton racks is *the same schedule* as the
/// hand-written flat one: the cluster report matches bit for bit and
/// the summary differs only in the domain-event count.
#[test]
fn singleton_domain_schedule_is_bit_identical_to_flat() {
    let wl = workload(16, 400.0, 9);
    let map = DomainMap::racks(4, 4); // rack_i = {node i}
    let domain_events = vec![
        DomainEvent {
            at: Instant::from_secs(1800.0),
            domain: "rack0".to_string(),
            fault: DomainFault::Crash,
        },
        DomainEvent {
            at: Instant::from_secs(4300.0),
            domain: "rack0".to_string(),
            fault: DomainFault::Rejoin { mode: None },
        },
    ];
    let domain_schedule =
        FaultSchedule::with_domains(&map, &domain_events, Vec::new()).expect("known domain");
    let flat_schedule = FaultSchedule::from_script("1800 0 crash\n4300 0 rejoin\n").expect("valid");

    let a = run_chaos(
        &chaos_cfg(cluster_cfg(4, 16, 1), domain_schedule),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");
    let b = run_chaos(
        &chaos_cfg(cluster_cfg(4, 16, 1), flat_schedule),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");

    assert_eq!(a.cluster, b.cluster);
    assert_eq!(a.summary.domain_faults, 2);
    assert_eq!(
        a.summary,
        ChaosSummary {
            domain_faults: 2,
            ..b.summary.clone()
        }
    );
}

/// An empty domain map with no domain events *is* `from_events`: the
/// whole run — report and summary — matches the flat run bit for bit.
#[test]
fn empty_domain_map_is_bit_identical_to_flat_schedule() {
    let wl = workload(12, 300.0, 3);
    let events = vec![FaultEvent {
        at: Instant::from_secs(2000.0),
        node: 1,
        fault: Fault::NodeSlow { factor: 3.0 },
    }];
    let with = FaultSchedule::with_domains(&DomainMap::empty(), &[], events.clone())
        .expect("no domains referenced");
    let flat = FaultSchedule::from_events(events);
    let a = run_chaos(
        &chaos_cfg(cluster_cfg(3, 12, 1), with),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");
    let b = run_chaos(
        &chaos_cfg(cluster_cfg(3, 12, 1), flat),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");
    assert_eq!(a, b);
}

/// A zone crash interrupts streams on every member node; each lands in
/// exactly one failover bucket and the run stays underflow-free.
#[test]
fn zone_crash_conserves_streams_across_members() {
    let wl = workload(16, 400.0, 11);
    let map = DomainMap::racks(4, 2); // rack0 = {0, 2}, rack1 = {1, 3}
    let domain_events = vec![
        DomainEvent {
            at: Instant::from_secs(1800.0),
            domain: "rack0".to_string(),
            fault: DomainFault::Crash,
        },
        DomainEvent {
            at: Instant::from_secs(4300.0),
            domain: "rack0".to_string(),
            fault: DomainFault::Rejoin { mode: None },
        },
    ];
    let schedule =
        FaultSchedule::with_domains(&map, &domain_events, Vec::new()).expect("known domain");
    let report = run_chaos(
        &chaos_cfg(cluster_cfg(4, 16, 1), schedule),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");

    assert_eq!(report.cluster.underflows(), 0);
    assert_eq!(report.summary.crashes, 2, "both rack members crash");
    assert_eq!(report.summary.recoveries, 2);
    assert_eq!(report.summary.domain_faults, 2);
    assert!(report.summary.interrupted > 0);
    assert_eq!(
        report.summary.interrupted,
        report.summary.migrated + report.summary.parked + report.summary.dropped
    );
}

/// The sub-budget equivalence, pinned: on a single-disk engine,
/// `degrade:0:f` and `slow:f` throttle the same admission bound, so the
/// cluster reports are bit-identical — only the fault taxonomy differs.
#[test]
fn disk_degrade_on_single_disk_equals_node_slow() {
    let wl = workload(16, 400.0, 7);
    let degrade = FaultSchedule::from_script("1800 0 degrade:0:4\n4300 0 rejoin\n").expect("valid");
    let slow = FaultSchedule::from_script("1800 0 slow:4\n4300 0 rejoin\n").expect("valid");
    let a = run_chaos(
        &chaos_cfg(cluster_cfg(4, 16, 1), degrade),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");
    let b = run_chaos(
        &chaos_cfg(cluster_cfg(4, 16, 1), slow),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");
    assert_eq!(a.cluster, b.cluster);
    assert_eq!(a.summary.disk_degradations, 1);
    assert_eq!(b.summary.slowdowns, 1);
}

/// Partial faults never down the node: a degraded or error-prone disk
/// shrinks admission capacity, availability stays 1.0, and no stream is
/// interrupted.
#[test]
fn partial_faults_keep_the_node_up() {
    let wl = workload(16, 400.0, 5);
    let schedule =
        FaultSchedule::from_script("1800 0 degrade:1:4\n2000 1 error:0.3\n5000 0 rejoin\n")
            .expect("valid");
    let report = run_chaos(
        &chaos_cfg(cluster_cfg(4, 16, 2), schedule),
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");
    assert_eq!(report.cluster.underflows(), 0);
    assert_eq!(report.summary.disk_degradations, 1);
    assert_eq!(report.summary.disk_errors, 1);
    assert_eq!(report.summary.interrupted, 0, "no node went down");
    assert!((report.summary.availability - 1.0).abs() < f64::EPSILON);
}

/// A degrade targeting a disk the engine does not have is a config
/// error, not a panic.
#[test]
fn out_of_range_disk_is_rejected() {
    let schedule = FaultSchedule::from_script("10 0 degrade:3:2\n").expect("parses fine");
    let err = run_chaos(
        &chaos_cfg(cluster_cfg(2, 8, 2), schedule),
        &[],
        1,
        Obs::null(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("disk 3"), "{err}");
}

/// `run_chaos_on` takes an already-built cluster, so it cannot return
/// the refusal `run_chaos` gives; its panic still names the disk.
#[test]
#[should_panic(expected = "disk 3")]
fn out_of_range_disk_panics_naming_the_disk_on_a_built_cluster() {
    let schedule = FaultSchedule::from_script("10 0 degrade:3:2\n").expect("parses fine");
    let cfg = chaos_cfg(cluster_cfg(2, 8, 2), schedule);
    let cluster = Cluster::with_observer(cfg.cluster.clone(), Obs::null()).expect("valid config");
    let _ = run_chaos_on(cluster, &cfg, &[], 1);
}

/// Each fault sets only its own factor: appending an identity fault
/// (`slow:1` or `pressure:0`) to a throttled schedule leaves the run
/// unchanged, so a slowdown never lifts memory pressure and pressure
/// never lifts a slowdown.
#[test]
fn identity_fault_keeps_the_other_throttle() {
    let wl = workload(16, 600.0, 11);
    let mut cluster = cluster_cfg(2, 16, 2);
    let n = cluster.engine.params.max_requests();
    cluster.engine.memory_budget = Some(min_memory_static(&cluster.engine.params, n));
    let run = |script: &str| {
        let schedule = FaultSchedule::from_script(script).expect("valid");
        run_chaos(
            &chaos_cfg(cluster.clone(), schedule),
            &wl.arrivals,
            1,
            Obs::null(),
        )
        .expect("valid config")
    };
    let healthy = run("");
    let cases = [
        ("pressure:0.9", "slow:1"),
        ("slow:8", "pressure:0"),
        ("degrade:1:8", "pressure:0"),
        ("error:0.8", "slow:1"),
    ];
    for (fault, identity) in cases {
        let base = run(&format!("600 0 {fault}\n600 1 {fault}\n"));
        assert!(
            base.cluster.admitted() < healthy.cluster.admitted(),
            "{fault} throttles admission"
        );
        let with = run(&format!(
            "600 0 {fault}\n600 1 {fault}\n1200 0 {identity}\n1200 1 {identity}\n"
        ));
        assert_eq!(with.cluster, base.cluster, "{identity} after {fault}");
        let mut expected = base.summary.clone();
        expected.faults_injected += 2;
        if identity.starts_with("slow") {
            expected.slowdowns += 2;
        } else {
            expected.pressures += 2;
        }
        assert_eq!(with.summary, expected, "{identity} after {fault}");
    }
}

/// Fault-triggered re-replication: a node down past `reseed_after` gets
/// its movies re-placed onto survivors, parked streams re-enter through
/// the new replicas' own admission, and accounting stays conservative
/// (`rereplicated ≤ parked`, still zero underflows).
#[test]
fn rereplication_rebuilds_the_lost_hot_set() {
    let wl = workload(16, 500.0, 9);
    let schedule = FaultSchedule::from_script("1800 0 crash\n").expect("valid");
    let mut cfg = chaos_cfg(cluster_cfg(4, 16, 1), schedule);
    cfg.failover = FailoverPolicy::Park;
    cfg.reseed_after = Some(Seconds::from_secs(600.0));
    let report = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid config");

    assert_eq!(report.cluster.underflows(), 0);
    assert!(
        report.summary.rereplications > 0,
        "node 0's movies must be re-placed: {:?}",
        report.summary
    );
    assert!(report.summary.rereplicated <= report.summary.parked);
    assert_eq!(
        report.summary.interrupted,
        report.summary.migrated + report.summary.parked + report.summary.dropped
    );

    // Without the horizon, nothing is rebuilt — the schedule alone does
    // not trigger re-replication.
    let mut off = run_chaos(
        &ChaosConfig {
            reseed_after: None,
            ..cfg.clone()
        },
        &wl.arrivals,
        1,
        Obs::null(),
    )
    .expect("valid config");
    assert_eq!(off.summary.rereplications, 0);
    assert_eq!(off.summary.rereplicated, 0);
    // And the reseeding run re-admits at least as many interrupted
    // streams as the non-reseeding one drops or leaves unplaceable.
    off.summary.rereplications = report.summary.rereplications;
    off.summary.rereplicated = report.summary.rereplicated;
    assert!(
        report.summary.unplaceable <= off.summary.unplaceable,
        "re-replication must not strand more streams: {} > {}",
        report.summary.unplaceable,
        off.summary.unplaceable
    );
}

fn arb_domain_fault() -> impl Strategy<Value = DomainFault> {
    prop_oneof![
        Just(DomainFault::Crash),
        (1.0f64..6.0).prop_map(|factor| DomainFault::Slow { factor }),
        Just(DomainFault::Rejoin { mode: None }),
    ]
}

fn arb_node_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::NodeCrash),
        (1.0f64..6.0).prop_map(|factor| Fault::NodeSlow { factor }),
        (0usize..2, 1.0f64..6.0).prop_map(|(disk, factor)| Fault::DiskDegrade { disk, factor }),
        (0.0f64..0.9).prop_map(|rate| Fault::DiskError { rate }),
        Just(Fault::NodeRejoin { mode: None }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole safety property under correlation: for arbitrary
    /// rack layouts, domain events, partial faults, failover policies,
    /// and re-replication horizons, no run ever underflows a buffer,
    /// every interrupted stream lands in exactly one bucket,
    /// re-admissions via rebuilt replicas stay within the parked count,
    /// and the run replays bit-identically at any job count.
    #[test]
    fn correlated_chaos_conserves_and_never_underflows(
        racks in 1usize..=3,
        domain_faults in proptest::collection::vec(
            (0.0f64..7200.0, 0usize..3, arb_domain_fault()),
            0..4,
        ),
        node_faults in proptest::collection::vec(
            (0.0f64..7200.0, 0usize..4, arb_node_fault()),
            0..4,
        ),
        failover_idx in 0usize..3,
        reseed in prop_oneof![Just(None), (300.0f64..3600.0).prop_map(Some)],
        seed in 0u64..3,
    ) {
        let map = DomainMap::racks(4, racks);
        let domain_events: Vec<DomainEvent> = domain_faults
            .into_iter()
            .map(|(t, r, fault)| DomainEvent {
                at: Instant::from_secs(t),
                domain: format!("rack{}", r % map.len()),
                fault,
            })
            .collect();
        let node_events: Vec<FaultEvent> = node_faults
            .into_iter()
            .map(|(t, node, fault)| FaultEvent {
                at: Instant::from_secs(t),
                node,
                fault,
            })
            .collect();
        let schedule = FaultSchedule::with_domains(&map, &domain_events, node_events)
            .expect("all domains exist");
        let wl = workload(12, 250.0, seed);
        let cfg = ChaosConfig {
            cluster: cluster_cfg(4, 12, 2),
            schedule,
            failover: FailoverPolicy::ALL[failover_idx],
            recovery: RecoveryPolicy::Warm,
            reseed_after: reseed.map(Seconds::from_secs),
        };
        let a = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid chaos config");
        prop_assert_eq!(a.cluster.underflows(), 0, "buffer underflow under correlated chaos");
        prop_assert_eq!(
            a.summary.interrupted,
            a.summary.migrated + a.summary.parked + a.summary.dropped,
            "every interrupted stream lands in exactly one bucket"
        );
        prop_assert!(a.summary.rereplicated <= a.summary.parked);
        prop_assert!(a.summary.availability >= 0.0 && a.summary.availability <= 1.0);
        let b = run_chaos(&cfg, &wl.arrivals, 2, Obs::null()).expect("valid chaos config");
        prop_assert_eq!(a, b);
    }
}
