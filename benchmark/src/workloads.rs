//! The four workloads: their inputs, the simulators they build, and one
//! untraced repetition of each.
//!
//! Every workload replays pre-generated arrival traces. In simulated time
//! that is an open loop (arrivals never wait for the server; deferred
//! requests queue inside the simulator); on the host it is a closed,
//! single-threaded batch. Inputs are a pure function of the seed.

use std::sync::Arc;
use std::time::Instant as WallInstant;

use vod_chaos::{
    run_chaos_on, ChaosConfig, ChaosReport, DomainEvent, DomainFault, DomainMap, FailoverPolicy,
    FaultSchedule, RecoveryPolicy,
};
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::memory::min_memory_static;
use vod_core::{SchemeKind, SystemParams};
use vod_obs::{Metrics, MetricsRegistry, Obs};
use vod_sched::SchedulingMethod;
use vod_sim::{
    CapacityConfig, CapacityResult, CapacitySim, DiskEngine, DiskRunStats, EngineConfig,
};
use vod_types::{Bits, Instant, Seconds};
use vod_workload::{generate, multi_movie, MultiMovieConfig, Workload, WorkloadConfig};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One dynamic-scheme Sweep\* engine pinned at `N` through the θ=0 peak.
    DiskSweepPeak,
    /// Dynamic Round-Robin at θ=0.5 with a metrics registry attached.
    DiskRrProbed,
    /// An 8-node cluster losing a rack mid-run.
    ClusterZoneFailover,
    /// The admission-level Fig. 14 grid, which bypasses `DiskEngine`.
    CapacityFig14,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::DiskSweepPeak,
        Kind::DiskRrProbed,
        Kind::ClusterZoneFailover,
        Kind::CapacityFig14,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DiskSweepPeak => "disk_sweep_peak",
            Kind::DiskRrProbed => "disk_rr_probed",
            Kind::ClusterZoneFailover => "cluster_zone_failover",
            Kind::CapacityFig14 => "capacity_fig14",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Trace seeds one repetition replays, counted from `--seed`.
    fn seed_count(self) -> u64 {
        match self {
            Kind::DiskSweepPeak | Kind::DiskRrProbed => 3,
            Kind::ClusterZoneFailover => 1,
            Kind::CapacityFig14 => 5,
        }
    }
}

/// Input size: the full 24 h benchmark, or the 2 h one-seed smoke variant
/// the test suite runs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Simulated horizon in hours.
    pub hours: f64,
    /// Whether this is the smoke variant (one seed, one repetition).
    pub smoke: bool,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        hours: 24.0,
        smoke: false,
    };
    /// One seed, one repetition, 2 h traces.
    pub const SMOKE: Scale = Scale {
        hours: 2.0,
        smoke: true,
    };

    /// The trace seeds of one repetition of `kind`.
    pub fn seeds(self, kind: Kind, seed: u64) -> Vec<u64> {
        let n = if self.smoke { 1 } else { kind.seed_count() };
        (0..n).map(|i| seed.wrapping_add(i)).collect()
    }

    /// Expected arrivals, scaled from a 24 h day to the horizon.
    fn arrivals(self, per_day: f64) -> f64 {
        per_day * self.hours / 24.0
    }

    fn horizon(self) -> Seconds {
        Seconds::from_hours(self.hours)
    }
}

/// The engine configuration of a disk workload.
pub fn disk_engine_config(kind: Kind) -> EngineConfig {
    let method = match kind {
        Kind::DiskSweepPeak => SchedulingMethod::Sweep,
        _ => SchedulingMethod::RoundRobin,
    };
    EngineConfig::paper(method, SchemeKind::Dynamic)
}

/// A single-disk paper-day trace: θ=0 (peaked) for the Sweep\* workload,
/// θ=0.5 for the Round-Robin one; 1440 expected arrivals per day.
pub fn disk_trace(kind: Kind, scale: Scale, seed: u64) -> Workload {
    let theta = if kind == Kind::DiskSweepPeak {
        0.0
    } else {
        0.5
    };
    let mut cfg = WorkloadConfig::paper_single_disk(theta, scale.arrivals(1440.0));
    cfg.duration = scale.horizon();
    cfg.peak = Seconds::from_hours(scale.hours * 9.0 / 24.0);
    generate(&cfg, seed).expect("the disk workload config is pinned and valid")
}

const CLUSTER_NODES: usize = 8;
const CLUSTER_MOVIES: usize = 64;

/// The cluster under chaos: 8 nodes × 2 disks, 64 movies, 2-way
/// replicated-hot placement of the top 16, least-loaded dispatch, the
/// static worst-case memory budget. `rack0` (4 nodes) crashes at 25 % of
/// the horizon, re-replication runs after 10 %, and the rack rejoins cold
/// at 60 %.
pub fn chaos_config(scale: Scale, seed: u64) -> ChaosConfig {
    let mut engine = EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic);
    engine.memory_budget = Some(min_memory_static(
        &engine.params,
        engine.params.max_requests(),
    ));
    engine.disks = 2;
    let h = scale.horizon().as_secs_f64();
    let rack = |at: f64, fault| DomainEvent {
        at: Instant::from_secs(h * at),
        domain: "rack0".to_owned(),
        fault,
    };
    let schedule = FaultSchedule::with_domains(
        &DomainMap::racks(CLUSTER_NODES, 2),
        &[
            rack(0.25, DomainFault::Crash),
            rack(0.60, DomainFault::Rejoin { mode: None }),
        ],
        Vec::new(),
    )
    .expect("rack0 exists in a 2-rack map");
    ChaosConfig {
        cluster: ClusterConfig {
            nodes: CLUSTER_NODES,
            engine,
            movies: CLUSTER_MOVIES,
            movie_theta: 0.271,
            placement: PlacementPolicy::ReplicatedHot {
                replicas: 2,
                hot_movies: CLUSTER_MOVIES / 4,
            },
            dispatch: DispatchPolicy::LeastLoaded,
            seed,
        },
        schedule,
        failover: FailoverPolicy::Migrate,
        recovery: RecoveryPolicy::Cold,
        reseed_after: Some(Seconds::from_secs(h * 0.10)),
    }
}

/// The cluster trace: a peaked (profile θ=0.4) multi-movie day with 960
/// expected arrivals per node.
pub fn cluster_trace(scale: Scale, seed: u64) -> Workload {
    let mut cfg = MultiMovieConfig::paper_cluster(
        CLUSTER_MOVIES,
        0.271,
        scale.arrivals(960.0 * CLUSTER_NODES as f64),
    );
    cfg.duration = scale.horizon();
    cfg.peak = Seconds::from_hours(scale.hours / 2.0);
    cfg.profile_theta = 0.4;
    multi_movie(&cfg, seed).expect("the cluster workload config is pinned and valid")
}

/// The Fig. 14 grid: 1–11 GB × {static, dynamic} over 10 Round-Robin
/// disks.
pub fn capacity_configs() -> Vec<CapacityConfig> {
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let mut out = Vec::new();
    for gb in 1..=11u32 {
        for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
            out.push(CapacityConfig {
                params: params.clone(),
                scheme,
                disks: 10,
                total_memory: Bits::from_gigabytes(f64::from(gb)),
                t_log: Seconds::from_minutes(40.0),
            });
        }
    }
    out
}

/// The Fig. 14 trace: 20 k arrivals per day over 10 disks, uniform disk
/// load (θ=0).
pub fn capacity_trace(scale: Scale, seed: u64) -> Workload {
    let mut cfg = WorkloadConfig::paper_ten_disk(0.0, scale.arrivals(20_000.0));
    cfg.duration = scale.horizon();
    cfg.peak = Seconds::from_hours(scale.hours * 9.0 / 24.0);
    generate(&cfg, seed).expect("the capacity workload config is pinned and valid")
}

/// The parameters whose `SizeTable` a workload builds.
pub fn table_params(kind: Kind) -> SystemParams {
    match kind {
        Kind::DiskSweepPeak => disk_engine_config(kind).params,
        _ => SystemParams::paper_defaults(SchedulingMethod::RoundRobin),
    }
}

/// The observer a disk workload's engines get: probes off, except on
/// `disk_rr_probed`, which attaches a registry the way `repro bench` does.
pub fn disk_observer(kind: Kind) -> (Obs, Option<Arc<MetricsRegistry>>) {
    if kind == Kind::DiskRrProbed {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&registry)));
        (obs, Some(registry))
    } else {
        (Obs::null(), None)
    }
}

/// Built simulators and their traces, ready for one repetition. One value
/// exists at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Built {
    Disk {
        engines: Vec<DiskEngine>,
        traces: Vec<Workload>,
    },
    Chaos {
        cluster: Cluster,
        cfg: ChaosConfig,
        trace: Workload,
    },
    Capacity {
        sims: Vec<CapacitySim>,
        traces: Vec<Workload>,
    },
}

/// What one repetition's simulators returned.
pub enum Raw {
    /// Per-engine stats with the number of arrivals each was offered.
    Disk(Vec<(DiskRunStats, u64)>),
    /// The chaos run's report.
    Chaos(Box<ChaosReport>),
    /// Per-sim results with the number of arrivals each replayed.
    Capacity(Vec<(CapacityResult, u64)>),
}

/// One timed repetition.
pub struct Rep {
    /// Host seconds each of the [`SETUP_SAMPLES`] set-ups took: trace
    /// generation plus construction of every simulator.
    pub setup_s: Vec<f64>,
    /// Host seconds each simulator took, in a fixed order.
    pub run_s: Vec<f64>,
    /// What the simulators returned.
    pub raw: Raw,
}

fn build(kind: Kind, scale: Scale, seed: u64) -> Built {
    let seeds = scale.seeds(kind, seed);
    match kind {
        Kind::DiskSweepPeak | Kind::DiskRrProbed => {
            let traces: Vec<Workload> = seeds.iter().map(|&s| disk_trace(kind, scale, s)).collect();
            let (obs, _) = disk_observer(kind);
            let engines = traces
                .iter()
                .map(|_| {
                    DiskEngine::with_observer(disk_engine_config(kind), obs.clone())
                        .expect("the paper engine config is valid")
                })
                .collect();
            Built::Disk { engines, traces }
        }
        Kind::ClusterZoneFailover => {
            let trace = cluster_trace(scale, seed);
            let cfg = chaos_config(scale, seed);
            let cluster = Cluster::with_observer(cfg.cluster.clone(), Obs::null())
                .expect("the cluster config is pinned and valid");
            Built::Chaos {
                cluster,
                cfg,
                trace,
            }
        }
        Kind::CapacityFig14 => {
            let traces: Vec<Workload> = seeds.iter().map(|&s| capacity_trace(scale, s)).collect();
            let cfgs = capacity_configs();
            let sims = traces
                .iter()
                .flat_map(|_| cfgs.iter())
                .map(|cfg| {
                    CapacitySim::with_observer(cfg.clone(), Obs::null())
                        .expect("the Fig. 14 grid is valid")
                })
                .collect();
            Built::Capacity { sims, traces }
        }
    }
}

fn timed<R>(times: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t0 = WallInstant::now();
    let out = f();
    times.push(t0.elapsed().as_secs_f64());
    out
}

/// Runs every simulator, timing each one: an engine, the chaos run, or a
/// capacity sim.
fn simulate(built: Built) -> (Raw, Vec<f64>) {
    let mut times = Vec::new();
    let raw = match built {
        Built::Disk { engines, traces } => Raw::Disk(
            engines
                .into_iter()
                .zip(&traces)
                .map(|(e, w)| (timed(&mut times, || e.run(&w.arrivals)), w.len() as u64))
                .collect(),
        ),
        Built::Chaos {
            cluster,
            cfg,
            trace,
        } => Raw::Chaos(Box::new(timed(&mut times, || {
            run_chaos_on(cluster, &cfg, &trace.arrivals, 1)
        }))),
        Built::Capacity { sims, traces } => {
            let per_trace = sims.len() / traces.len();
            Raw::Capacity(
                sims.iter()
                    .enumerate()
                    .map(|(i, sim)| {
                        let w = &traces[i / per_trace];
                        (timed(&mut times, || sim.run(w)), w.len() as u64)
                    })
                    .collect(),
            )
        }
    };
    (raw, times)
}

/// Set-ups per repetition. Set-up takes well under 1 % of a repetition on
/// the engine workloads, so one sample per repetition would leave its
/// median at the mercy of a few noisy microseconds.
pub const SETUP_SAMPLES: usize = 5;

/// Runs one untraced repetition: set-up (repeated, keeping the last), then
/// simulation, each timed.
pub fn rep(kind: Kind, scale: Scale, seed: u64) -> Rep {
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        drop(built.take());
        let t0 = WallInstant::now();
        built = Some(std::hint::black_box(build(kind, scale, seed)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (raw, run_s) = simulate(built.expect("at least one set-up"));
    Rep {
        setup_s,
        run_s,
        raw: std::hint::black_box(raw),
    }
}
