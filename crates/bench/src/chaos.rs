//! `repro chaos`: the fault-injection / failover matrix.
//!
//! Sweeps fault scenario × failover policy × node count over the same
//! pinned multi-movie workloads as the cluster matrix, injecting a
//! pinned fault episode (strike at 25% of the horizon, rejoin at 60%)
//! into every cell and measuring the degradation: interrupted /
//! migrated / parked / dropped streams, recovery time, availability —
//! on top of the cluster's own deterministic counters. Single-node
//! scenarios strike node 0; zone scenarios strike the `rack0` failure
//! domain (correlated crash of every even node); disk scenarios
//! throttle a fraction of node 0's capacity without downing it, and
//! the reseed scenario adds fault-triggered re-replication.
//!
//! Every cell pins the same cluster shape (ReplicatedHot placement,
//! LeastLoaded dispatch) so the only things that vary are the fault and
//! the policy answering it. Nodes run with a finite memory budget (the
//! static worst-case reservation) so [`vod_chaos::Fault::MemoryPressure`]
//! actually bites. Recovery mode follows the scenario: a crash is a
//! cold restart (tables rebuild), a slowdown or pressure episode never
//! lost its process, so its rejoin is warm.
//!
//! Determinism matches the cluster matrix: each cell is a pure function
//! of `(mode, cell spec)`, results collect by matrix index, and the
//! document is byte-identical at any `--jobs`.

use std::time::Instant as WallInstant;

use vod_chaos::{
    run_chaos_on, ChaosConfig, DomainEvent, DomainFault, DomainMap, FailoverPolicy, Fault,
    FaultEvent, FaultSchedule, RecoveryPolicy,
};
use vod_cluster::{map_indexed, Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::memory::min_memory_static;
use vod_obs::json::{Array, Object};
use vod_obs::Obs;
use vod_types::{Instant, Seconds};
use vod_workload::Workload;

use crate::cluster::{cluster_engine_config, make_workload};

/// Node counts of the full chaos sweep.
pub const CHAOS_NODE_COUNTS: [usize; 3] = [2, 4, 8];

/// The fault scenario a cell injects: one pinned episode striking at
/// 25% of the horizon and rejoining at 60%. Single-node scenarios hit
/// node 0; zone scenarios hit the `rack0` failure domain of a 2-rack
/// [`DomainMap`] (every even-indexed node); disk scenarios hit one disk
/// (or the error path) of node 0 without downing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Node 0 crashes (streams evicted, failover engaged), cold rejoin.
    Crash,
    /// Node 0's disk slows 4× (admission capacity drops to N/4), warm
    /// rejoin.
    Slow,
    /// 60% of node 0's memory budget is withheld, warm rejoin.
    Pressure,
    /// Every node in `rack0` crashes at once (correlated failure), cold
    /// rejoin of the whole rack.
    ZoneCrash,
    /// [`ChaosScenario::ZoneCrash`] with fault-triggered re-replication:
    /// nodes down past 10% of the horizon get their movies re-placed
    /// onto survivors and parked streams re-admitted there.
    ZoneCrashReseed,
    /// Disk 1 of node 0 degrades 4× (that disk's share of the admission
    /// bound shrinks to a quarter; the node stays up), warm rejoin.
    DiskDegrade,
    /// Node 0 develops a 30% request error rate (capacity multiplier
    /// drops to 0.7; the node stays up), warm rejoin.
    DiskError,
}

impl ChaosScenario {
    /// All scenarios, in bench-matrix order.
    pub const ALL: [ChaosScenario; 7] = [
        ChaosScenario::Crash,
        ChaosScenario::Slow,
        ChaosScenario::Pressure,
        ChaosScenario::ZoneCrash,
        ChaosScenario::ZoneCrashReseed,
        ChaosScenario::DiskDegrade,
        ChaosScenario::DiskError,
    ];

    /// The original single-node scenarios, swept at every node count.
    pub const SINGLE_NODE: [ChaosScenario; 3] = [
        ChaosScenario::Crash,
        ChaosScenario::Slow,
        ChaosScenario::Pressure,
    ];

    /// The correlated / partial-fault scenarios, swept where the
    /// cluster is big enough for a rack to be a strict subset (4+
    /// nodes).
    pub const CORRELATED: [ChaosScenario; 4] = [
        ChaosScenario::ZoneCrash,
        ChaosScenario::ZoneCrashReseed,
        ChaosScenario::DiskDegrade,
        ChaosScenario::DiskError,
    ];

    /// Stable label used in the JSON document and cell labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChaosScenario::Crash => "crash",
            ChaosScenario::Slow => "slow",
            ChaosScenario::Pressure => "pressure",
            ChaosScenario::ZoneCrash => "zone_crash",
            ChaosScenario::ZoneCrashReseed => "zone_crash_reseed",
            ChaosScenario::DiskDegrade => "disk_degrade",
            ChaosScenario::DiskError => "disk_error",
        }
    }

    /// The scenario's strike fault (single-node scenarios only).
    #[must_use]
    fn strike(self) -> Fault {
        match self {
            ChaosScenario::Crash => Fault::NodeCrash,
            ChaosScenario::Slow => Fault::NodeSlow { factor: 4.0 },
            ChaosScenario::Pressure => Fault::MemoryPressure { fraction: 0.6 },
            ChaosScenario::DiskDegrade => Fault::DiskDegrade {
                disk: 1,
                factor: 4.0,
            },
            ChaosScenario::DiskError => Fault::DiskError { rate: 0.3 },
            ChaosScenario::ZoneCrash | ChaosScenario::ZoneCrashReseed => {
                unreachable!("zone scenarios build a domain schedule")
            }
        }
    }

    /// Crash episodes are cold restarts; throttle episodes rejoin warm.
    #[must_use]
    fn recovery(self) -> RecoveryPolicy {
        match self {
            ChaosScenario::Crash | ChaosScenario::ZoneCrash | ChaosScenario::ZoneCrashReseed => {
                RecoveryPolicy::Cold
            }
            ChaosScenario::Slow
            | ChaosScenario::Pressure
            | ChaosScenario::DiskDegrade
            | ChaosScenario::DiskError => RecoveryPolicy::Warm,
        }
    }

    /// The re-replication horizon: only [`ChaosScenario::ZoneCrashReseed`]
    /// reseeds, after a node has been down 10% of the horizon.
    #[must_use]
    fn reseed_after(self, horizon: Seconds) -> Option<Seconds> {
        match self {
            ChaosScenario::ZoneCrashReseed => {
                Some(Seconds::from_secs(horizon.as_secs_f64() * 0.10))
            }
            _ => None,
        }
    }

    /// The pinned schedule: strike at 25% of the horizon, rejoin at
    /// 60%. Zone scenarios expand over `rack0` of a 2-rack domain map
    /// (deterministic per-node expansion in `(t, node)` order); the
    /// rest target node 0.
    #[must_use]
    pub fn schedule(self, nodes: usize, horizon: Seconds) -> FaultSchedule {
        let h = horizon.as_secs_f64();
        let strike_at = Instant::from_secs(h * 0.25);
        let rejoin_at = Instant::from_secs(h * 0.60);
        match self {
            ChaosScenario::ZoneCrash | ChaosScenario::ZoneCrashReseed => {
                let map = DomainMap::racks(nodes, 2);
                let events = vec![
                    DomainEvent {
                        at: strike_at,
                        domain: "rack0".to_string(),
                        fault: DomainFault::Crash,
                    },
                    DomainEvent {
                        at: rejoin_at,
                        domain: "rack0".to_string(),
                        fault: DomainFault::Rejoin { mode: None },
                    },
                ];
                FaultSchedule::with_domains(&map, &events, Vec::new())
                    .expect("rack0 exists in every 2-rack map")
            }
            _ => FaultSchedule::from_events(vec![
                FaultEvent {
                    at: strike_at,
                    node: 0,
                    fault: self.strike(),
                },
                FaultEvent {
                    at: rejoin_at,
                    node: 0,
                    fault: Fault::NodeRejoin { mode: None },
                },
            ]),
        }
    }
}

/// Which slice of the chaos matrix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosBenchMode {
    /// The full sweep over a 6-hour trace: the 3 single-node scenarios
    /// × 3 failover policies × nodes ∈ {2, 4, 8} (27 cells), plus the
    /// 4 correlated/partial scenarios × 3 failover policies × nodes ∈
    /// {4, 8} (24 cells) — 51 cells total.
    Full,
    /// A CI-sized 4-cell subset over a 2-hour trace: crash/migrate
    /// (the headline failover path) and slow/drop (the throttle path)
    /// at 2 nodes, plus zone_crash_reseed/migrate (correlated failure
    /// with re-replication) and disk_degrade/park (partial fault) at
    /// 4 nodes.
    Smoke,
}

/// One cell of the chaos matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosCellSpec {
    /// Node count.
    pub nodes: usize,
    /// The injected fault episode.
    pub scenario: ChaosScenario,
    /// What happens to a crashed node's streams.
    pub failover: FailoverPolicy,
}

impl ChaosBenchMode {
    /// Mode tag used in the JSON document. The `cluster_` prefix keeps
    /// `repro compare` using the cluster comparer (same exact-counter
    /// rules) for chaos documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChaosBenchMode::Full => "cluster_chaos_full",
            ChaosBenchMode::Smoke => "cluster_chaos_smoke",
        }
    }

    /// The pinned workload/policy seed every cell uses (the cluster
    /// matrix's seed, so traces match at equal shape).
    #[must_use]
    pub fn seed(self) -> u64 {
        1
    }

    /// Catalog size.
    #[must_use]
    pub fn movies(self) -> usize {
        match self {
            ChaosBenchMode::Full => 64,
            ChaosBenchMode::Smoke => 16,
        }
    }

    /// Expected arrivals per node (total scales with the cell's node
    /// count, as in the cluster matrix).
    #[must_use]
    pub fn arrivals_per_node(self) -> f64 {
        match self {
            ChaosBenchMode::Full => 240.0,
            ChaosBenchMode::Smoke => 200.0,
        }
    }

    /// Simulated horizon in hours (peak at the midpoint; the strike
    /// lands before the peak, the rejoin after it).
    #[must_use]
    pub fn horizon_hours(self) -> f64 {
        match self {
            ChaosBenchMode::Full => 6.0,
            ChaosBenchMode::Smoke => 2.0,
        }
    }

    /// The cells of this mode, in run order.
    #[must_use]
    pub fn cells(self) -> Vec<ChaosCellSpec> {
        match self {
            ChaosBenchMode::Full => {
                let mut out = Vec::new();
                for nodes in CHAOS_NODE_COUNTS {
                    for scenario in ChaosScenario::SINGLE_NODE {
                        for failover in FailoverPolicy::ALL {
                            out.push(ChaosCellSpec {
                                nodes,
                                scenario,
                                failover,
                            });
                        }
                    }
                }
                // Correlated and partial-fault scenarios need a rack to
                // be a strict subset of the cluster, so they start at 4
                // nodes.
                for nodes in CHAOS_NODE_COUNTS {
                    if nodes < 4 {
                        continue;
                    }
                    for scenario in ChaosScenario::CORRELATED {
                        for failover in FailoverPolicy::ALL {
                            out.push(ChaosCellSpec {
                                nodes,
                                scenario,
                                failover,
                            });
                        }
                    }
                }
                out
            }
            ChaosBenchMode::Smoke => vec![
                ChaosCellSpec {
                    nodes: 2,
                    scenario: ChaosScenario::Crash,
                    failover: FailoverPolicy::Migrate,
                },
                ChaosCellSpec {
                    nodes: 2,
                    scenario: ChaosScenario::Slow,
                    failover: FailoverPolicy::Drop,
                },
                ChaosCellSpec {
                    nodes: 4,
                    scenario: ChaosScenario::ZoneCrashReseed,
                    failover: FailoverPolicy::Migrate,
                },
                ChaosCellSpec {
                    nodes: 4,
                    scenario: ChaosScenario::DiskDegrade,
                    failover: FailoverPolicy::Park,
                },
            ],
        }
    }

    /// Fingerprint over everything that pins this mode's matrix.
    #[must_use]
    pub fn config_fingerprint(self) -> String {
        let mut parts = vec![
            "chaos".to_owned(),
            self.label().to_owned(),
            format!("seed={}", self.seed()),
            format!("movies={}", self.movies()),
            format!("arrivals_per_node={}", self.arrivals_per_node()),
            format!("horizon_hours={}", self.horizon_hours()),
            "strike=0.25/rejoin=0.60/node=0".to_owned(),
            "disks=2/zone=rack0-of-2/reseed_after=0.10".to_owned(),
        ];
        for spec in self.cells() {
            parts.push(format!(
                "{}/{}/{}",
                spec.nodes,
                spec.scenario.label(),
                spec.failover.label()
            ));
        }
        crate::compare::fingerprint(parts)
    }
}

/// Measurements from one `(nodes, scenario, failover)` cell: the
/// cluster counters (same keys as a cluster cell, so the comparer's
/// exact rules apply unchanged) plus the chaos degradation accounting.
#[derive(Clone, Debug)]
pub struct ChaosCellResult {
    /// Node count.
    pub nodes: usize,
    /// Scenario label.
    pub scenario: &'static str,
    /// Failover-policy label.
    pub failover: &'static str,
    /// Wall-clock seconds spent running the cell.
    pub wall_clock_s: f64,
    /// Arrivals dispatched (the trace length).
    pub dispatched: u64,
    /// Streams admitted across the cluster.
    pub admitted: u64,
    /// Requests deferred across the cluster.
    pub deferred: u64,
    /// Requests rejected across the cluster.
    pub rejected: u64,
    /// Arrivals accepted by a non-primary replica.
    pub redirected: u64,
    /// Arrivals that overflowed every replica into the cluster queue.
    pub overflow_queued: u64,
    /// Buffer underflows across the cluster (must stay 0 under chaos).
    pub underflows: u64,
    /// Aggregate peak buffer memory across nodes, in mebibytes.
    pub peak_memory_mib: f64,
    /// Faults applied in the cell.
    pub faults_injected: u64,
    /// Streams interrupted by the strike (0 for throttle scenarios).
    pub interrupted: u64,
    /// Interrupted streams re-admitted on a sibling.
    pub migrated: u64,
    /// Interrupted streams parked in the overflow FIFO.
    pub parked_failover: u64,
    /// Interrupted streams dropped at failover time.
    pub dropped: u64,
    /// Parked entries unplaceable at end of run (every candidate down).
    pub unplaceable: u64,
    /// Rejoin faults applied.
    pub recoveries: u64,
    /// Rejoins that rebuilt tables cold.
    pub cold_rebuilds: u64,
    /// Domain-level events the schedule expanded from (0 for flat
    /// schedules).
    pub domain_faults: u64,
    /// Disk-degrade faults applied.
    pub disk_degradations: u64,
    /// Disk-error faults applied.
    pub disk_errors: u64,
    /// Movies re-replicated onto survivors by fault-triggered reseeds.
    pub rereplications: u64,
    /// Parked streams re-admitted through a rebuilt replica.
    pub rereplicated_streams: u64,
    /// Mean seconds from down to rejoin (None if nothing went down).
    pub mean_time_to_recover_s: Option<f64>,
    /// Fraction of node-time available over the run.
    pub availability: f64,
    /// Per-node `(node, redirected_in, redirected_out)` counters — the
    /// traced summary lists them so `trace-analyze` can reconcile hop
    /// spans per node, exactly as in a cluster cell.
    pub per_node_redirects: Vec<(usize, u64, u64)>,
}

impl ChaosCellResult {
    fn to_json(&self) -> String {
        let mut o = Object::new();
        o.uint("nodes", self.nodes as u64);
        o.str("scenario", self.scenario);
        o.str("failover", self.failover);
        // Pinned shape, spelled out so the comparer's cluster cell
        // labels stay unambiguous.
        o.str("placement", "replicated_hot");
        o.str("dispatch", "least_loaded");
        o.num("wall_clock_s", self.wall_clock_s);
        o.uint("dispatched", self.dispatched);
        o.uint("admitted", self.admitted);
        o.uint("deferred", self.deferred);
        o.uint("rejected", self.rejected);
        o.uint("redirected", self.redirected);
        o.uint("overflow_queued", self.overflow_queued);
        o.uint("underflows", self.underflows);
        o.num("peak_memory_mib", self.peak_memory_mib);
        o.uint("faults_injected", self.faults_injected);
        o.uint("interrupted", self.interrupted);
        o.uint("migrated", self.migrated);
        o.uint("parked_failover", self.parked_failover);
        o.uint("dropped", self.dropped);
        o.uint("unplaceable", self.unplaceable);
        o.uint("recoveries", self.recoveries);
        o.uint("cold_rebuilds", self.cold_rebuilds);
        o.uint("domain_faults", self.domain_faults);
        o.uint("disk_degradations", self.disk_degradations);
        o.uint("disk_errors", self.disk_errors);
        o.uint("rereplications", self.rereplications);
        o.uint("rereplicated_streams", self.rereplicated_streams);
        match self.mean_time_to_recover_s {
            Some(x) => o.num("mean_time_to_recover_s", x),
            None => o.null("mean_time_to_recover_s"),
        }
        o.num("availability", self.availability);
        o.finish()
    }
}

/// A full chaos bench run: every cell of the mode, plus totals.
#[derive(Clone, Debug)]
pub struct ChaosBenchReport {
    /// The mode that was run.
    pub mode: ChaosBenchMode,
    /// The pinned seed every cell used.
    pub seed: u64,
    /// Per-cell measurements, in matrix order.
    pub cells: Vec<ChaosCellResult>,
    /// Wall-clock seconds for the whole matrix.
    pub total_wall_clock_s: f64,
}

impl ChaosBenchReport {
    /// Renders the `BENCH_chaos.json` document (schema-versioned, same
    /// envelope as the cluster document so `repro compare` accepts it).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.uint("version", crate::compare::BENCH_SCHEMA_VERSION);
        o.str("mode", self.mode.label());
        o.uint("seed", self.seed);
        o.uint("movies", self.mode.movies() as u64);
        o.num("arrivals_per_node", self.mode.arrivals_per_node());
        o.str("config_fingerprint", &self.mode.config_fingerprint());
        let mut matrix = Object::new();
        matrix.uint("cells", self.cells.len() as u64);
        let mut node_counts = Array::new();
        for c in &self.cells {
            node_counts.raw(&c.nodes.to_string());
        }
        matrix.raw("nodes", &node_counts.finish());
        o.raw("matrix", &matrix.finish());
        let mut cells = Array::new();
        for c in &self.cells {
            cells.raw(&c.to_json());
        }
        o.raw("cells", &cells.finish());
        o.num("total_wall_clock_s", self.total_wall_clock_s);
        o.finish()
    }
}

/// The pinned cluster shape every chaos cell runs: the cluster matrix's
/// engine (dynamic scheme under Round-Robin) with a finite memory
/// budget — the static worst-case reservation — so memory-pressure
/// faults constrain a real quantity, behind 2-way replicated-hot
/// placement and least-loaded dispatch (the shape failover needs:
/// without a sibling replica there is nowhere to migrate).
fn chaos_cluster_config(mode: ChaosBenchMode, nodes: usize) -> ClusterConfig {
    let mut engine = cluster_engine_config();
    engine.memory_budget = Some(min_memory_static(
        &engine.params,
        engine.params.max_requests(),
    ));
    // Two disks per node so partial faults have a sub-budget to hit;
    // with both disks healthy the combined multiplier is exactly 1.0,
    // so non-disk cells are bit-identical to the single-disk shape.
    engine.disks = 2;
    ClusterConfig {
        nodes,
        engine,
        movies: mode.movies(),
        movie_theta: 0.271,
        placement: PlacementPolicy::ReplicatedHot {
            replicas: 2.min(nodes),
            hot_movies: (mode.movies() / 4).max(1),
        },
        dispatch: DispatchPolicy::LeastLoaded,
        seed: mode.seed(),
    }
}

fn cell_chaos_config(mode: ChaosBenchMode, spec: ChaosCellSpec) -> ChaosConfig {
    let horizon = Seconds::from_hours(mode.horizon_hours());
    ChaosConfig {
        cluster: chaos_cluster_config(mode, spec.nodes),
        schedule: spec.scenario.schedule(spec.nodes, horizon),
        failover: spec.failover,
        recovery: spec.scenario.recovery(),
        reseed_after: spec.scenario.reseed_after(horizon),
    }
}

/// Workloads shared across cells with the same node count (the trace is
/// independent of scenario and failover policy).
struct SharedTraces {
    by_nodes: Vec<(usize, Workload)>,
}

impl SharedTraces {
    fn generate(mode: ChaosBenchMode, specs: &[ChaosCellSpec]) -> Self {
        let mut node_counts: Vec<usize> = specs.iter().map(|s| s.nodes).collect();
        node_counts.sort_unstable();
        node_counts.dedup();
        SharedTraces {
            by_nodes: node_counts
                .into_iter()
                .map(|n| {
                    (
                        n,
                        make_workload(
                            mode.movies(),
                            mode.arrivals_per_node() * n as f64,
                            mode.horizon_hours(),
                            mode.seed(),
                        ),
                    )
                })
                .collect(),
        }
    }

    fn for_nodes(&self, nodes: usize) -> &Workload {
        self.by_nodes
            .iter()
            .find(|(n, _)| *n == nodes)
            .map(|(_, wl)| wl)
            .expect("every cell's node count was generated up front")
    }
}

/// Runs one chaos cell over the hoisted trace.
fn run_chaos_cell(
    mode: ChaosBenchMode,
    spec: ChaosCellSpec,
    wl: &Workload,
    obs: &Obs,
    lifecycle_trace_only: bool,
) -> ChaosCellResult {
    let cfg = cell_chaos_config(mode, spec);
    let t0 = WallInstant::now();
    let mut cluster =
        Cluster::with_observer(cfg.cluster.clone(), obs.clone()).unwrap_or_else(|e| {
            panic!(
                "chaos bench cell ({} nodes, {}/{}) must validate: {e}",
                spec.nodes,
                spec.scenario.label(),
                spec.failover.label()
            )
        });
    if lifecycle_trace_only {
        cluster.set_per_cycle_tracing(false);
    }
    let report = run_chaos_on(cluster, &cfg, &wl.arrivals, 1);
    let wall_clock_s = t0.elapsed().as_secs_f64();

    ChaosCellResult {
        nodes: spec.nodes,
        scenario: spec.scenario.label(),
        failover: spec.failover.label(),
        wall_clock_s,
        dispatched: report.cluster.dispatched,
        admitted: report.cluster.admitted(),
        deferred: report.cluster.deferrals(),
        rejected: report.cluster.rejected(),
        redirected: report.cluster.redirected,
        overflow_queued: report.cluster.overflow_queued,
        underflows: report.cluster.underflows(),
        peak_memory_mib: report.cluster.peak_memory_bits() / (8.0 * 1024.0 * 1024.0),
        faults_injected: report.summary.faults_injected,
        interrupted: report.summary.interrupted,
        migrated: report.summary.migrated,
        parked_failover: report.summary.parked,
        dropped: report.summary.dropped,
        unplaceable: report.summary.unplaceable,
        recoveries: report.summary.recoveries,
        cold_rebuilds: report.summary.cold_rebuilds,
        domain_faults: report.summary.domain_faults,
        disk_degradations: report.summary.disk_degradations,
        disk_errors: report.summary.disk_errors,
        rereplications: report.summary.rereplications,
        rereplicated_streams: report.summary.rereplicated,
        mean_time_to_recover_s: report.summary.mean_time_to_recover_s,
        availability: report.summary.availability,
        per_node_redirects: report
            .cluster
            .nodes
            .iter()
            .map(|n| (n.node, n.redirected_in, n.redirected_out))
            .collect(),
    }
}

/// Runs one ad-hoc chaos episode — the `repro chaos --script`/`--seed`
/// path: the pinned smoke shape at `nodes` nodes with a caller-supplied
/// schedule, returning the full [`vod_chaos::ChaosReport`].
///
/// # Errors
///
/// Returns [`vod_types::ConfigError`] for infeasible parameters or a
/// schedule referencing a node outside the cluster.
pub fn run_chaos_adhoc(
    nodes: usize,
    schedule: FaultSchedule,
    failover: FailoverPolicy,
    recovery: RecoveryPolicy,
    reseed_after: Option<Seconds>,
    obs: &Obs,
) -> Result<vod_chaos::ChaosReport, vod_types::ConfigError> {
    let mode = ChaosBenchMode::Smoke;
    let wl = make_workload(
        mode.movies(),
        mode.arrivals_per_node() * nodes as f64,
        mode.horizon_hours(),
        mode.seed(),
    );
    let cfg = ChaosConfig {
        cluster: chaos_cluster_config(mode, nodes),
        schedule,
        failover,
        recovery,
        reseed_after,
    };
    vod_chaos::run_chaos(&cfg, &wl.arrivals, 1, obs.clone())
}

/// Runs the chaos matrix for `mode` on up to `jobs` worker threads.
/// Cells collect by matrix index, so every deterministic field is
/// byte-identical whatever the job count; each cell's inner run is
/// single-threaded (the chaos runner interleaves faults with arrivals,
/// which is inherently sequential — only the end-of-run drain
/// parallelizes, and at bench-cell node counts it is not worth a pool).
#[must_use]
pub fn run_chaos_bench(
    mode: ChaosBenchMode,
    jobs: usize,
    obs: &Obs,
    progress: &(dyn Fn(&str) + Sync),
) -> ChaosBenchReport {
    let specs = mode.cells();
    let total = specs.len();
    let t0 = WallInstant::now();
    let traces = SharedTraces::generate(mode, &specs);

    let announce = |i: usize, spec: ChaosCellSpec| {
        progress(&format!(
            "chaos [{}/{}] {} nodes / {} / {}",
            i + 1,
            total,
            spec.nodes,
            spec.scenario.label(),
            spec.failover.label(),
        ));
    };

    let cells = map_indexed(total, jobs, |i| {
        let spec = specs[i];
        announce(i, spec);
        run_chaos_cell(mode, spec, traces.for_nodes(spec.nodes), obs, false)
    });

    ChaosBenchReport {
        mode,
        seed: mode.seed(),
        cells,
        total_wall_clock_s: t0.elapsed().as_secs_f64(),
    }
}

/// Runs the chaos matrix with span tracing on, appending one traced
/// section per cell to `trace_out` as JSONL. The section markers reuse
/// the cluster kinds (`cluster_cell` / `cluster_summary`) with the
/// chaos fields added, so `repro trace-analyze` and `repro report`
/// consume chaos traces unchanged; fault and recovery events appear as
/// generic timestamped events inside the section.
#[must_use]
pub fn run_chaos_bench_traced(
    mode: ChaosBenchMode,
    base_obs: &Obs,
    trace_out: &mut String,
    progress: &(dyn Fn(&str) + Sync),
) -> ChaosBenchReport {
    let specs = mode.cells();
    let total = specs.len();
    let t0 = WallInstant::now();
    let traces = SharedTraces::generate(mode, &specs);

    let mut cells = Vec::with_capacity(total);
    for (i, &spec) in specs.iter().enumerate() {
        progress(&format!(
            "chaos [{}/{}] {} nodes / {} / {} (traced)",
            i + 1,
            total,
            spec.nodes,
            spec.scenario.label(),
            spec.failover.label(),
        ));
        let recorder = std::sync::Arc::new(vod_obs::RecorderSink::new().with_kinds(&[
            vod_obs::EventKind::SpanStart,
            vod_obs::EventKind::SpanAnnotate,
            vod_obs::EventKind::SpanEnd,
            vod_obs::EventKind::RequestAdmitted,
            vod_obs::EventKind::RequestDeferred,
            vod_obs::EventKind::RequestRejected,
            vod_obs::EventKind::Underflow,
            vod_obs::EventKind::FaultInjected,
            vod_obs::EventKind::NodeRecovered,
        ]));
        let cell_sink: std::sync::Arc<dyn vod_obs::Sink> = match base_obs.sink() {
            Some(base) => std::sync::Arc::new(vod_obs::TeeSink::new(
                std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn vod_obs::Sink>,
                base,
            )),
            None => std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn vod_obs::Sink>,
        };
        let obs = Obs::new(cell_sink).with_metrics(base_obs.metrics().clone());
        let cell = run_chaos_cell(mode, spec, traces.for_nodes(spec.nodes), &obs, true);
        let snap = recorder.snapshot();

        let mut header = Object::new();
        header.str("kind", "cluster_cell");
        header.uint("nodes", spec.nodes as u64);
        header.str("placement", "replicated_hot");
        header.str("dispatch", "least_loaded");
        header.str("scenario", spec.scenario.label());
        header.str("failover", spec.failover.label());
        trace_out.push_str(&header.finish());
        trace_out.push('\n');
        trace_out.push_str(&snap.export_jsonl());

        let mut summary = Object::new();
        summary.str("kind", "cluster_summary");
        summary.uint("redirected", cell.redirected);
        summary.uint("events", snap.events().len() as u64);
        summary.uint("events_dropped", snap.events_dropped());
        summary.uint("spans_dropped", snap.spans_dropped());
        summary.uint("faults_injected", cell.faults_injected);
        summary.uint("interrupted", cell.interrupted);
        summary.uint("migrated", cell.migrated);
        summary.uint("dropped", cell.dropped);
        let mut nodes = Array::new();
        for &(node, rin, rout) in &cell.per_node_redirects {
            let mut no = Object::new();
            no.uint("node", node as u64);
            no.uint("redirected_in", rin);
            no.uint("redirected_out", rout);
            nodes.raw(&no.finish());
        }
        summary.raw("per_node", &nodes.finish());
        trace_out.push_str(&summary.finish());
        trace_out.push('\n');

        cells.push(cell);
    }

    ChaosBenchReport {
        mode,
        seed: mode.seed(),
        cells,
        total_wall_clock_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_chaos::run_chaos;

    #[test]
    fn full_matrix_sweeps_every_shape_once() {
        let cells = ChaosBenchMode::Full.cells();
        // 3 single-node scenarios at {2,4,8} nodes + 4 correlated
        // scenarios at {4,8} nodes, each × 3 failover policies.
        assert_eq!(cells.len(), 3 * 3 * 3 + 4 * 2 * 3);
        let dedup: std::collections::HashSet<String> = cells
            .iter()
            .map(|c| format!("{}/{}/{}", c.nodes, c.scenario.label(), c.failover.label()))
            .collect();
        assert_eq!(dedup.len(), cells.len(), "no duplicate cells");
        assert!(
            cells
                .iter()
                .all(|c| c.nodes >= 4 || ChaosScenario::SINGLE_NODE.contains(&c.scenario)),
            "correlated scenarios need a rack to be a strict subset"
        );
    }

    #[test]
    fn smoke_matrix_runs_serializes_and_degrades_gracefully() {
        let report = run_chaos_bench(ChaosBenchMode::Smoke, 1, &Obs::null(), &|_| {});
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert!(cell.dispatched > 0);
            assert_eq!(cell.underflows, 0, "chaos must never underflow");
            assert!(cell.availability <= 1.0);
        }
        // The crash/migrate cell interrupts streams and recovers them.
        let crash = &report.cells[0];
        assert_eq!(crash.scenario, "crash");
        assert_eq!(crash.nodes, 2);
        assert_eq!(crash.faults_injected, 2, "strike + rejoin");
        assert_eq!(crash.recoveries, 1);
        assert!(crash.interrupted > 0);
        assert_eq!(
            crash.interrupted,
            crash.migrated + crash.parked_failover + crash.dropped
        );
        assert_eq!(crash.cold_rebuilds, 1);
        assert!(crash.availability < 1.0);
        assert!(crash.mean_time_to_recover_s.is_some());
        // The slow/drop cell throttles without evicting anything.
        let slow = &report.cells[1];
        assert_eq!(slow.scenario, "slow");
        assert_eq!(slow.interrupted, 0);
        assert_eq!(slow.cold_rebuilds, 0);
        // The zone_crash_reseed/migrate cell downs rack0 = {0, 2} of 4
        // nodes (2 domain events → 4 per-node faults) and rebuilds the
        // lost replicas onto the survivors before the rack rejoins.
        let zone = &report.cells[2];
        assert_eq!(zone.scenario, "zone_crash_reseed");
        assert_eq!(zone.nodes, 4);
        assert_eq!(zone.domain_faults, 2);
        assert_eq!(zone.faults_injected, 4);
        assert_eq!(zone.recoveries, 2);
        assert!(zone.interrupted > 0);
        assert!(
            zone.rereplications > 0,
            "the reseed horizon elapses while rack0 is down"
        );
        assert!(zone.rereplicated_streams <= zone.parked_failover);
        assert!(zone.availability < 1.0);
        // The disk_degrade/park cell throttles one disk's sub-budget
        // without downing the node.
        let disk = &report.cells[3];
        assert_eq!(disk.scenario, "disk_degrade");
        assert_eq!(disk.nodes, 4);
        assert_eq!(disk.disk_degradations, 1);
        assert_eq!(disk.interrupted, 0, "partial faults keep the node up");
        assert!((disk.availability - 1.0).abs() < f64::EPSILON);

        let json = report.to_json();
        assert!(json.contains("\"mode\":\"cluster_chaos_smoke\""));
        assert!(json.contains("\"scenario\":\"crash\""));
        assert!(json.contains("\"scenario\":\"zone_crash_reseed\""));
        assert!(json.contains("\"rereplications\""));
        assert!(json.contains("\"availability\""));
    }

    /// The acceptance bar: `repro chaos` output is byte-identical at
    /// any `--jobs`.
    #[test]
    fn parallel_chaos_bench_is_byte_identical_to_sequential() {
        let seq = run_chaos_bench(ChaosBenchMode::Smoke, 1, &Obs::null(), &|_| {});
        let par = run_chaos_bench(ChaosBenchMode::Smoke, 2, &Obs::null(), &|_| {});
        let strip = |mut r: ChaosBenchReport| {
            for c in &mut r.cells {
                c.wall_clock_s = 0.0;
            }
            r.total_wall_clock_s = 0.0;
            r.to_json()
        };
        assert_eq!(strip(seq), strip(par));
    }

    /// The traced chaos matrix produces identical deterministic
    /// counters, and its trace passes the schema check and the
    /// `trace-analyze` invariant audit.
    #[test]
    fn traced_smoke_matrix_is_identical_and_audits_clean() {
        let plain = run_chaos_bench(ChaosBenchMode::Smoke, 1, &Obs::null(), &|_| {});
        let mut trace = String::new();
        let traced =
            run_chaos_bench_traced(ChaosBenchMode::Smoke, &Obs::null(), &mut trace, &|_| {});
        for (a, b) in plain.cells.iter().zip(&traced.cells) {
            assert_eq!(a.dispatched, b.dispatched);
            assert_eq!(a.admitted, b.admitted);
            assert_eq!(a.interrupted, b.interrupted);
            assert_eq!(a.migrated, b.migrated);
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.peak_memory_mib.to_bits(), b.peak_memory_mib.to_bits());
        }
        assert!(
            trace.contains("\"kind\":\"fault_injected\""),
            "fault events must appear in the trace"
        );
        assert!(trace.contains("\"kind\":\"node_recovered\""));
        assert!(
            trace.contains("\"kind\":\"span_start\"") && trace.contains("\"failover\""),
            "failover spans must appear in the crash cell's section"
        );
        crate::traceview::check_schema(&trace).expect("trace schema must hold");
        let report = crate::traceview::analyze(&trace, 5).expect("trace must parse");
        assert_eq!(report.sections.len(), 4, "one section per smoke cell");
        assert!(
            report.audit_passed(),
            "invariant audit: {:?}",
            report
                .sections
                .iter()
                .flat_map(|s| &s.violations)
                .collect::<Vec<_>>()
        );
    }

    /// The empty-schedule identity over the full pinned 45-cell cluster
    /// matrix: every cell's plain `Cluster::run` equals the chaos
    /// runner with no faults, bit for bit (`DiskRunStats` and `to_bits`
    /// peak memory included via `ClusterReport`'s `PartialEq`).
    /// `#[ignore]`d out of tier-1 (runs the full matrix twice); CI runs
    /// it with `--ignored` in the release chaos job.
    #[test]
    #[ignore = "full 45-cell matrix twice; run in release with --ignored"]
    fn empty_schedule_is_identity_across_full_cluster_matrix() {
        use crate::cluster::{cell_config, ClusterBenchMode};
        let mode = ClusterBenchMode::Full;
        let specs = mode.cells();
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let failures: Vec<String> = map_indexed(specs.len(), jobs, |i| {
            let spec = specs[i];
            let cfg = cell_config(mode, spec);
            let wl = make_workload(
                mode.movies(),
                mode.arrivals_per_node() * spec.nodes as f64,
                mode.horizon_hours(),
                mode.seed(),
            );
            let plain = Cluster::new(cfg.clone())
                .expect("valid config")
                .run(&wl.arrivals);
            let chaos_cfg = ChaosConfig {
                cluster: cfg,
                schedule: FaultSchedule::empty(),
                failover: FailoverPolicy::Migrate,
                recovery: RecoveryPolicy::Warm,
                reseed_after: None,
            };
            let chaos = run_chaos(&chaos_cfg, &wl.arrivals, 1, Obs::null()).expect("valid config");
            (chaos.cluster != plain).then(|| {
                format!(
                    "{} nodes / {} / {}",
                    spec.nodes,
                    spec.placement.label(),
                    spec.dispatch.label()
                )
            })
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(failures.is_empty(), "identity broke in cells: {failures:?}");
    }

    /// The empty-schedule identity at bench shape: running the chaos
    /// engine with no faults over a chaos-configured cluster equals
    /// `Cluster::run` bit for bit (`DiskRunStats` + peak memory).
    #[test]
    fn empty_schedule_matches_plain_cluster_at_bench_shape() {
        let mode = ChaosBenchMode::Smoke;
        let wl = make_workload(
            mode.movies(),
            mode.arrivals_per_node() * 2.0,
            mode.horizon_hours(),
            mode.seed(),
        );
        let cluster_cfg = chaos_cluster_config(mode, 2);
        let plain = Cluster::new(cluster_cfg.clone())
            .expect("valid config")
            .run(&wl.arrivals);
        let cfg = ChaosConfig {
            cluster: cluster_cfg,
            schedule: FaultSchedule::empty(),
            failover: FailoverPolicy::Migrate,
            recovery: RecoveryPolicy::Warm,
            reseed_after: None,
        };
        let chaos = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid config");
        assert_eq!(chaos.cluster, plain);
        for (a, b) in plain.nodes.iter().zip(&chaos.cluster.nodes) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(
                a.stats.peak_memory.as_f64().to_bits(),
                b.stats.peak_memory.as_f64().to_bits()
            );
        }
    }

    /// Golden per-node estimator audits of the zone-crash cell (rack0
    /// down, Migrate, re-replication, cold rejoin), recorded before the
    /// audit was scored as a stream. Parked migrants and overflowed
    /// arrivals are retried with their original, older instants, so the
    /// streaming scorer's floor must hold back for them to match.
    #[test]
    fn zone_crash_cell_audits_match_the_golden_counts() {
        let mode = ChaosBenchMode::Smoke;
        let spec = ChaosCellSpec {
            nodes: 4,
            scenario: ChaosScenario::ZoneCrashReseed,
            failover: FailoverPolicy::Migrate,
        };
        assert_eq!(spec.scenario.recovery(), RecoveryPolicy::Cold);
        let traces = SharedTraces::generate(mode, &[spec]);
        let cfg = cell_chaos_config(mode, spec);
        let report =
            run_chaos(&cfg, &traces.for_nodes(4).arrivals, 1, Obs::null()).expect("valid cell");
        assert_eq!(report.summary.parked, 28);
        assert_eq!(report.cluster.overflow_queued, 466);
        let audits: Vec<(usize, usize)> = report
            .cluster
            .nodes
            .iter()
            .map(|n| (n.stats.audit.samples, n.stats.audit.violations))
            .collect();
        assert_eq!(
            audits,
            [(218_131, 0), (267_644, 282), (243_621, 0), (289_940, 256)]
        );
    }
}
