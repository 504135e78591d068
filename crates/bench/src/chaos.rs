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
//! of `(mode, cell spec)`, and [`ChaosBenchMode`] is a [`Matrix`], so the
//! shared runner ([`crate::matrix::run_matrix`]) collects cells by matrix
//! index and the document is byte-identical at any `--jobs`. The workload (seed, catalog,
//! arrivals per node, horizon) is the cluster matrix's
//! ([`ChaosBenchMode::cluster`]).

use vod_chaos::{
    run_chaos_on, ChaosConfig, ChaosReport, DomainEvent, DomainFault, DomainMap, FailoverPolicy,
    Fault, FaultEvent, FaultSchedule, RecoveryPolicy,
};
use vod_cluster::{Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::memory::min_memory_static;
use vod_obs::json::Object;
use vod_obs::{CellHeader, CellSummary, ChaosCounters, ChaosHeader, EventKind, Obs};
use vod_types::{Instant, Seconds};

use crate::cluster::{
    cluster_engine_config, redirect_summary, stamp_cluster_doc, write_front_end, ClusterBenchMode,
};
use crate::matrix::{Matrix, SharedTraces};

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
    /// The cluster mode whose pinned workload (seed, catalog, arrivals
    /// per node, horizon) every chaos cell replays, so a chaos cell's
    /// arrivals match the cluster cell's at the same shape.
    #[must_use]
    pub fn cluster(self) -> ClusterBenchMode {
        match self {
            ChaosBenchMode::Full => ClusterBenchMode::Full,
            ChaosBenchMode::Smoke => ClusterBenchMode::Smoke,
        }
    }
}

impl Matrix for ChaosBenchMode {
    type Spec = ChaosCellSpec;
    type Cell = ChaosCellResult;
    const KIND: &'static str = "chaos";
    /// The cluster matrix's kinds plus the fault and recovery events,
    /// which appear as generic timestamped events inside the section.
    const TRACE_KINDS: &'static [EventKind] = &[
        EventKind::SpanStart,
        EventKind::SpanAnnotate,
        EventKind::SpanEnd,
        EventKind::RequestAdmitted,
        EventKind::RequestDeferred,
        EventKind::RequestRejected,
        EventKind::Underflow,
        EventKind::FaultInjected,
        EventKind::NodeRecovered,
    ];

    /// The `cluster_` prefix is historical: it keeps these labels, and
    /// with them the committed `BENCH_chaos.json`, comparable.
    fn label(self) -> &'static str {
        match self {
            ChaosBenchMode::Full => "cluster_chaos_full",
            ChaosBenchMode::Smoke => "cluster_chaos_smoke",
        }
    }

    fn pin(self) -> &'static str {
        match self {
            ChaosBenchMode::Full => "BENCH_chaos_full.json",
            ChaosBenchMode::Smoke => "BENCH_chaos.json",
        }
    }

    fn cells(self) -> Vec<ChaosCellSpec> {
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

    fn fingerprint_parts(self) -> Vec<String> {
        let workload = self.cluster();
        let mut parts = vec![
            "chaos".to_owned(),
            self.label().to_owned(),
            format!("seed={}", workload.seed()),
            format!("movies={}", workload.movies()),
            format!("arrivals_per_node={}", workload.arrivals_per_node()),
            format!("horizon_hours={}", workload.horizon_hours()),
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
        parts
    }

    fn stamp(self, doc: &mut Object) {
        let nodes: Vec<usize> = self.cells().iter().map(|c| c.nodes).collect();
        stamp_cluster_doc(self.cluster(), &self.config_fingerprint(), &nodes, doc);
    }

    fn describe(spec: &ChaosCellSpec) -> String {
        format!(
            "{} nodes / {} / {}",
            spec.nodes,
            spec.scenario.label(),
            spec.failover.label()
        )
    }

    fn traces(self) -> SharedTraces {
        let workload = self.cluster();
        SharedTraces::generate(self.cells().iter().map(|c| c.nodes), |n| {
            workload.workload(n)
        })
    }

    /// Runs one chaos episode over the shared trace. The inner run is
    /// single-threaded: the chaos runner interleaves faults with
    /// arrivals, which is inherently sequential, and only the end-of-run
    /// drain parallelizes, which at bench-cell node counts is not worth
    /// a pool. A traced cell writes no trailer.
    fn run_cell(
        self,
        spec: &ChaosCellSpec,
        traces: &SharedTraces,
        obs: &Obs,
        _trailer: Option<&mut String>,
    ) -> ChaosCellResult {
        let cfg = cell_chaos_config(self, *spec);
        let cluster =
            Cluster::with_observer(cfg.cluster.clone(), obs.clone()).unwrap_or_else(|e| {
                panic!(
                    "chaos bench cell ({} nodes, {}/{}) must validate: {e}",
                    spec.nodes,
                    spec.scenario.label(),
                    spec.failover.label()
                )
            });
        ChaosCellResult {
            spec: *spec,
            report: run_chaos_on(cluster, &cfg, &traces.for_nodes(spec.nodes).arrivals, 1),
        }
    }

    /// The cell's shape, the front end's counters (the same keys as a
    /// cluster cell), then the degradation accounting.
    fn cell_json(c: &ChaosCellResult) -> String {
        let s = &c.report.summary;
        let mut o = Object::new();
        o.uint("nodes", c.spec.nodes as u64);
        o.str("scenario", c.spec.scenario.label());
        o.str("failover", c.spec.failover.label());
        // The pinned shape, spelled out like a cluster cell's.
        o.str("placement", "replicated_hot");
        o.str("dispatch", "least_loaded");
        write_front_end(&c.report.cluster, &mut o);
        o.uint("faults_injected", s.faults_injected);
        o.uint("interrupted", s.interrupted);
        o.uint("migrated", s.migrated);
        o.uint("parked_failover", s.parked);
        o.uint("dropped", s.dropped);
        o.uint("unplaceable", s.unplaceable);
        o.uint("recoveries", s.recoveries);
        o.uint("cold_rebuilds", s.cold_rebuilds);
        o.uint("domain_faults", s.domain_faults);
        o.uint("disk_degradations", s.disk_degradations);
        o.uint("disk_errors", s.disk_errors);
        o.uint("rereplications", s.rereplications);
        o.uint("rereplicated_streams", s.rereplicated);
        match s.mean_time_to_recover_s {
            Some(x) => o.num("mean_time_to_recover_s", x),
            None => o.null("mean_time_to_recover_s"),
        }
        o.num("availability", s.availability);
        o.finish()
    }

    fn trace_header(spec: &ChaosCellSpec) -> CellHeader<'static> {
        CellHeader {
            nodes: spec.nodes,
            placement: "replicated_hot",
            dispatch: "least_loaded",
            chaos: Some(ChaosHeader {
                scenario: spec.scenario.label(),
                failover: spec.failover.label(),
            }),
        }
    }

    fn summary_fields(c: &ChaosCellResult) -> CellSummary {
        let s = &c.report.summary;
        CellSummary {
            chaos: Some(ChaosCounters {
                faults_injected: s.faults_injected,
                interrupted: s.interrupted,
                migrated: s.migrated,
                dropped: s.dropped,
            }),
            ..redirect_summary(&c.report.cluster)
        }
    }
}

/// One `(nodes, scenario, failover)` cell: its spec and the chaos run's
/// report (the cluster's own report plus the degradation accounting).
#[derive(Clone, Debug)]
pub struct ChaosCellResult {
    /// The cell's shape, fault and failover policy.
    pub spec: ChaosCellSpec,
    /// The run's report.
    pub report: ChaosReport,
}

/// The pinned cluster shape every chaos cell runs: the cluster matrix's
/// engine (dynamic scheme under Round-Robin) with a finite memory
/// budget — the static worst-case reservation — so memory-pressure
/// faults constrain a real quantity, behind 2-way replicated-hot
/// placement and least-loaded dispatch (the shape failover needs:
/// without a sibling replica there is nowhere to migrate).
fn chaos_cluster_config(mode: ChaosBenchMode, nodes: usize) -> ClusterConfig {
    let workload = mode.cluster();
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
        movies: workload.movies(),
        movie_theta: 0.271,
        placement: PlacementPolicy::ReplicatedHot {
            replicas: 2.min(nodes),
            hot_movies: (workload.movies() / 4).max(1),
        },
        dispatch: DispatchPolicy::LeastLoaded,
        seed: workload.seed(),
    }
}

fn cell_chaos_config(mode: ChaosBenchMode, spec: ChaosCellSpec) -> ChaosConfig {
    let horizon = Seconds::from_hours(mode.cluster().horizon_hours());
    ChaosConfig {
        cluster: chaos_cluster_config(mode, spec.nodes),
        schedule: spec.scenario.schedule(spec.nodes, horizon),
        failover: spec.failover,
        recovery: spec.scenario.recovery(),
        reseed_after: spec.scenario.reseed_after(horizon),
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
    let wl = mode.cluster().workload(nodes);
    let cfg = ChaosConfig {
        cluster: chaos_cluster_config(mode, nodes),
        schedule,
        failover,
        recovery,
        reseed_after,
    };
    vod_chaos::run_chaos(&cfg, &wl.arrivals, 1, obs.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::run_matrix;
    use vod_chaos::run_chaos;
    use vod_cluster::map_indexed;

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
        let report = run_matrix(ChaosBenchMode::Smoke, 1, &Obs::null(), None, &|_| {});
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert!(cell.report.cluster.dispatched > 0);
            assert_eq!(
                cell.report.cluster.underflows(),
                0,
                "chaos must never underflow"
            );
            assert!(cell.report.summary.availability <= 1.0);
        }
        // The crash/migrate cell interrupts streams and recovers them.
        let crash = &report.cells[0];
        assert_eq!(crash.spec.scenario, ChaosScenario::Crash);
        assert_eq!(crash.spec.nodes, 2);
        let s = &crash.report.summary;
        assert_eq!(s.faults_injected, 2, "strike + rejoin");
        assert_eq!(s.recoveries, 1);
        assert!(s.interrupted > 0);
        assert_eq!(s.interrupted, s.migrated + s.parked + s.dropped);
        assert_eq!(s.cold_rebuilds, 1);
        assert!(s.availability < 1.0);
        assert!(s.mean_time_to_recover_s.is_some());
        // The slow/drop cell throttles without evicting anything.
        let slow = &report.cells[1];
        assert_eq!(slow.spec.scenario, ChaosScenario::Slow);
        assert_eq!(slow.report.summary.interrupted, 0);
        assert_eq!(slow.report.summary.cold_rebuilds, 0);
        // The zone_crash_reseed/migrate cell downs rack0 = {0, 2} of 4
        // nodes (2 domain events → 4 per-node faults) and rebuilds the
        // lost replicas onto the survivors before the rack rejoins.
        let zone = &report.cells[2];
        assert_eq!(zone.spec.scenario, ChaosScenario::ZoneCrashReseed);
        assert_eq!(zone.spec.nodes, 4);
        let s = &zone.report.summary;
        assert_eq!(s.domain_faults, 2);
        assert_eq!(s.faults_injected, 4);
        assert_eq!(s.recoveries, 2);
        assert!(s.interrupted > 0);
        assert!(
            s.rereplications > 0,
            "the reseed horizon elapses while rack0 is down"
        );
        assert!(s.rereplicated <= s.parked);
        assert!(s.availability < 1.0);
        // The disk_degrade/park cell throttles one disk's sub-budget
        // without downing the node.
        let disk = &report.cells[3];
        assert_eq!(disk.spec.scenario, ChaosScenario::DiskDegrade);
        assert_eq!(disk.spec.nodes, 4);
        let s = &disk.report.summary;
        assert_eq!(s.disk_degradations, 1);
        assert_eq!(s.interrupted, 0, "partial faults keep the node up");
        assert!((s.availability - 1.0).abs() < f64::EPSILON);

        let json = report.to_json();
        assert!(json.contains("\"mode\":\"cluster_chaos_smoke\""));
        assert!(json.contains("\"scenario\":\"crash\""));
        assert!(json.contains("\"scenario\":\"zone_crash_reseed\""));
        assert!(json.contains("\"rereplications\""));
        assert!(json.contains("\"availability\""));
        // The committed chaos document is this run's, byte for byte.
        let committed = include_str!("../../../BENCH_chaos.json");
        assert_eq!(json + "\n", committed);
    }

    /// The traced chaos matrix writes the same document as the untraced
    /// run, and its trace passes the schema check and the
    /// `trace-analyze` invariant audit.
    #[test]
    fn traced_smoke_matrix_is_identical_and_audits_clean() {
        let plain = run_matrix(ChaosBenchMode::Smoke, 1, &Obs::null(), None, &|_| {});
        let mut trace = String::new();
        let traced = run_matrix(
            ChaosBenchMode::Smoke,
            1,
            &Obs::null(),
            Some(&mut trace),
            &|_| {},
        );
        assert_eq!(plain.to_json(), traced.to_json());
        assert!(
            trace.contains("\"kind\":\"fault_injected\""),
            "fault events must appear in the trace"
        );
        assert!(trace.contains("\"kind\":\"node_recovered\""));
        assert!(
            trace.contains("\"kind\":\"span_start\"") && trace.contains("\"failover\""),
            "failover spans must appear in the crash cell's section"
        );
        let lines = vod_obs::trace::parse_file(&trace).expect("trace schema must hold");
        let report = crate::traceview::analyze(&lines, 5);
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
    /// `#[ignore]`d out of tier-1 (runs the full matrix twice); CI's
    /// release chaos job runs it with `--include-ignored`.
    #[test]
    #[ignore = "full 45-cell matrix twice; run in release with --include-ignored"]
    fn empty_schedule_is_identity_across_full_cluster_matrix() {
        use crate::cluster::cell_config;
        let mode = ClusterBenchMode::Full;
        let specs = mode.cells();
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let failures: Vec<String> = map_indexed(specs.len(), jobs, |i| {
            let spec = specs[i];
            let cfg = cell_config(mode, spec);
            let wl = mode.workload(spec.nodes);
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
        let wl = mode.cluster().workload(2);
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
    /// down, Migrate, re-replication, cold rejoin). Parked migrants and
    /// overflowed arrivals are retried with their original, older
    /// instants; each node's audit counts a retry where it reaches the
    /// node, so node 0, down while requests parked, still scores the
    /// retries it serves after it rejoins.
    #[test]
    fn zone_crash_cell_audits_match_the_golden_counts() {
        let mode = ChaosBenchMode::Smoke;
        let spec = ChaosCellSpec {
            nodes: 4,
            scenario: ChaosScenario::ZoneCrashReseed,
            failover: FailoverPolicy::Migrate,
        };
        assert_eq!(spec.scenario.recovery(), RecoveryPolicy::Cold);
        let cfg = cell_chaos_config(mode, spec);
        let wl = mode.cluster().workload(4);
        let report = run_chaos(&cfg, &wl.arrivals, 1, Obs::null()).expect("valid cell");
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
            [
                (218_131, 1_394),
                (267_644, 1_472),
                (243_621, 0),
                (289_940, 109)
            ]
        );
    }
}
