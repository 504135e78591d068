//! `repro cluster`: the `cluster_scaling` performance matrix.
//!
//! Sweeps node count × placement policy × dispatch policy over a shared
//! multi-movie workload (one Poisson process per movie, Zipf catalog —
//! [`vod_workload::multi_movie`]), scaling total expected arrivals with
//! the node count so per-node load stays constant across the sweep. Each
//! cell reports the front end's deterministic counters (dispatched /
//! admitted / deferred / rejected / redirected / overflow-queued /
//! underflows), merged initial-latency percentiles, the load-imbalance
//! ratio, and each node's memory saving versus a static worst-case
//! reservation.
//!
//! The document is deterministic for a given mode: the
//! trace is a pure function of `(config, seed)` and a cluster run is a
//! pure function of `(config, trace)`. [`ClusterBenchMode`] is a
//! [`Matrix`], so the shared runner ([`crate::matrix::run_matrix`])
//! collects its cells by index whatever `--jobs` says and, under
//! `--trace`, writes one `cluster_cell` section per cell followed by the
//! cell's time series and per-node estimator audits.

use std::sync::Arc;

use vod_cluster::{Cluster, ClusterConfig, ClusterReport, DispatchPolicy, PlacementPolicy};
use vod_core::SchemeKind;
use vod_obs::json::{Array, Object};
use vod_obs::timeseries::SeriesRecorder;
use vod_obs::{CellHeader, CellSummary, EventKind, NodeRedirects, Obs, TraceLine};
use vod_sched::SchedulingMethod;
use vod_sim::EngineConfig;
use vod_types::Seconds;
use vod_workload::{multi_movie, MultiMovieConfig, Workload};

use crate::matrix::{Matrix, SharedTraces};

/// Node counts of the full scaling sweep.
pub const FULL_NODE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Which slice of the cluster matrix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterBenchMode {
    /// The full sweep: nodes ∈ {1, 2, 4, 8, 16} × 3 placements × 3
    /// dispatch policies (45 cells) over a 6-hour trace.
    Full,
    /// A CI-sized 2-cell subset at 2 nodes over a 2-hour trace.
    Smoke,
}

/// One cell of the matrix: a cluster shape to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterCellSpec {
    /// Node count.
    pub nodes: usize,
    /// Catalog placement policy.
    pub placement: PlacementPolicy,
    /// Replica-selection policy.
    pub dispatch: DispatchPolicy,
}

impl ClusterBenchMode {
    /// The pinned workload/policy seed every cell uses.
    #[must_use]
    pub fn seed(self) -> u64 {
        1
    }

    /// Catalog size.
    #[must_use]
    pub fn movies(self) -> usize {
        match self {
            ClusterBenchMode::Full => 64,
            ClusterBenchMode::Smoke => 16,
        }
    }

    /// Expected arrivals per node: total trace volume is this times the
    /// cell's node count, so per-node load is constant across the sweep.
    #[must_use]
    pub fn arrivals_per_node(self) -> f64 {
        match self {
            ClusterBenchMode::Full => 240.0,
            ClusterBenchMode::Smoke => 200.0,
        }
    }

    /// Simulated horizon in hours (peak sits at the midpoint).
    #[must_use]
    pub fn horizon_hours(self) -> f64 {
        match self {
            ClusterBenchMode::Full => 6.0,
            ClusterBenchMode::Smoke => 2.0,
        }
    }

    /// The pinned trace a `nodes`-node cell replays, a pure function of
    /// `(mode, nodes)`: total expected arrivals scale with the node
    /// count, everything else is pinned by the mode. The chaos matrix
    /// ([`crate::chaos`]) replays the same traces, so a chaos cell's
    /// arrivals match the cluster cell's at the same shape.
    #[must_use]
    pub fn workload(self, nodes: usize) -> Workload {
        let movies = self.movies();
        let mut wl_cfg =
            MultiMovieConfig::paper_cluster(movies, 0.271, self.arrivals_per_node() * nodes as f64);
        wl_cfg.duration = Seconds::from_hours(self.horizon_hours());
        wl_cfg.peak = Seconds::from_hours(self.horizon_hours() / 2.0);
        // A peaked (non-uniform) day: bursts at the peak are what push a
        // node's Assumption-1 bound below its hard N cap, exercising
        // deferral and overflow redirection rather than only rejection.
        wl_cfg.profile_theta = 0.4;
        multi_movie(&wl_cfg, self.seed())
            .unwrap_or_else(|e| panic!("bench workload ({movies} movies) must validate: {e}"))
    }
}

impl Matrix for ClusterBenchMode {
    type Spec = ClusterCellSpec;
    type Cell = ClusterCellResult;
    const KIND: &'static str = "cluster";
    /// Span lifecycles plus the admission-outcome events the audit
    /// reconciles against. This kind filter is the trace's only volume
    /// control: per-cycle telemetry (services, buffer events, pool
    /// occupancy) stays off so a multi-hour cell fits the recorder's
    /// capacity bound with nothing dropped.
    const TRACE_KINDS: &'static [EventKind] = &[
        EventKind::SpanStart,
        EventKind::SpanAnnotate,
        EventKind::SpanEnd,
        EventKind::RequestAdmitted,
        EventKind::RequestDeferred,
        EventKind::RequestRejected,
        EventKind::Underflow,
    ];

    fn label(self) -> &'static str {
        match self {
            ClusterBenchMode::Full => "cluster_full",
            ClusterBenchMode::Smoke => "cluster_smoke",
        }
    }

    fn pin(self) -> &'static str {
        match self {
            ClusterBenchMode::Full => "BENCH_cluster_full.json",
            ClusterBenchMode::Smoke => "BENCH_cluster_smoke.json",
        }
    }

    fn cells(self) -> Vec<ClusterCellSpec> {
        let hot = (self.movies() / 4).max(1);
        match self {
            ClusterBenchMode::Full => {
                let mut out = Vec::new();
                for nodes in FULL_NODE_COUNTS {
                    let placements = [
                        PlacementPolicy::RoundRobin,
                        PlacementPolicy::ZipfStripe,
                        PlacementPolicy::ReplicatedHot {
                            replicas: 2.min(nodes),
                            hot_movies: hot,
                        },
                    ];
                    let dispatches = [
                        DispatchPolicy::LeastLoaded,
                        DispatchPolicy::MostHeadroom,
                        DispatchPolicy::RandomOfK { k: 2 },
                    ];
                    for placement in placements {
                        for dispatch in dispatches {
                            out.push(ClusterCellSpec {
                                nodes,
                                placement,
                                dispatch,
                            });
                        }
                    }
                }
                out
            }
            ClusterBenchMode::Smoke => vec![
                ClusterCellSpec {
                    nodes: 2,
                    placement: PlacementPolicy::RoundRobin,
                    dispatch: DispatchPolicy::LeastLoaded,
                },
                ClusterCellSpec {
                    nodes: 2,
                    placement: PlacementPolicy::ReplicatedHot {
                        replicas: 2,
                        hot_movies: hot,
                    },
                    dispatch: DispatchPolicy::MostHeadroom,
                },
            ],
        }
    }

    fn fingerprint_parts(self) -> Vec<String> {
        let mut parts = vec![
            "cluster".to_owned(),
            self.label().to_owned(),
            format!("seed={}", self.seed()),
            format!("movies={}", self.movies()),
            format!("arrivals_per_node={}", self.arrivals_per_node()),
            format!("horizon_hours={}", self.horizon_hours()),
        ];
        for spec in self.cells() {
            parts.push(format!(
                "{}/{}/{}",
                spec.nodes,
                spec.placement.label(),
                spec.dispatch.label()
            ));
        }
        parts
    }

    fn stamp(self, doc: &mut Object) {
        let nodes: Vec<usize> = self.cells().iter().map(|c| c.nodes).collect();
        stamp_cluster_doc(self, &self.config_fingerprint(), &nodes, doc);
    }

    fn describe(spec: &ClusterCellSpec) -> String {
        format!(
            "{} nodes / {} / {}",
            spec.nodes,
            spec.placement.label(),
            spec.dispatch.label()
        )
    }

    fn traces(self) -> SharedTraces {
        SharedTraces::generate(self.cells().iter().map(|c| c.nodes), |n| self.workload(n))
    }

    /// Drives a fresh cluster over the shared trace. A traced cell
    /// samples time series (one cluster-wide scope plus one per node)
    /// into its trailer, followed by one estimator-audit marker per node.
    /// Like span emission, sampling reads state the cluster already
    /// maintains, so it never perturbs the deterministic counters.
    fn run_cell(
        self,
        spec: &ClusterCellSpec,
        traces: &SharedTraces,
        obs: &Obs,
        trailer: Option<&mut String>,
    ) -> ClusterCellResult {
        let cfg = cell_config(self, *spec);
        let mut cluster = Cluster::with_observer(cfg.clone(), obs.clone()).unwrap_or_else(|e| {
            panic!(
                "cluster bench cell ({} nodes, {}/{}) must validate: {e}",
                spec.nodes,
                spec.placement.label(),
                spec.dispatch.label()
            )
        });
        let series = trailer.is_some().then(|| CellSeries::new(spec.nodes));
        if let Some(s) = &series {
            cluster.set_series_recorders(&s.cluster, &s.nodes);
        }
        let report = cluster.run(&traces.for_nodes(spec.nodes).arrivals);
        if let (Some(out), Some(series)) = (trailer, &series) {
            // Cycle-indexed time series sampled during the cell, then one
            // audit marker per node: both marker kinds `repro report`
            // renders and `trace-analyze` skips.
            series.append_jsonl(out);
            for n in &report.nodes {
                let audit = TraceLine::Audit {
                    scope: &format!("node{}", n.node),
                    samples: n.stats.audit.samples as u64,
                    violations: n.stats.audit.violations as u64,
                };
                out.push_str(&audit.to_json());
                out.push('\n');
            }
        }
        ClusterCellResult {
            spec: *spec,
            report,
        }
    }

    /// The cell's shape, the front end's counters, merged initial-latency
    /// percentiles, the load-imbalance ratio, and per node its counters,
    /// peak memory, saving versus a static worst-case reservation
    /// (`1 − peak / min_memory_static(N_cap)`) and estimator audit.
    fn cell_json(c: &ClusterCellResult) -> String {
        let r = &c.report;
        let params = &cluster_engine_config().params;
        let mut o = Object::new();
        o.uint("nodes", c.spec.nodes as u64);
        o.str("placement", c.spec.placement.label());
        o.str("dispatch", c.spec.dispatch.label());
        write_front_end(r, &mut o);
        for (key, p) in [("il_p50_s", 0.50), ("il_p95_s", 0.95)] {
            match r.latency_percentile(p) {
                Some(x) => o.num(key, x.as_secs_f64()),
                None => o.null(key),
            }
        }
        o.num("deferral_rate", r.deferral_rate());
        o.num("imbalance_ratio", r.imbalance_ratio());
        // Averaged over the nodes that served at least one stream.
        let served: Vec<f64> = r
            .nodes
            .iter()
            .filter(|n| n.stats.admitted > 0)
            .map(|n| n.memory_saving_vs_static(params))
            .collect();
        let mean_saving = if served.is_empty() {
            0.0
        } else {
            served.iter().sum::<f64>() / served.len() as f64
        };
        o.num("mean_memory_saving_vs_static", mean_saving);
        let mut nodes = Array::new();
        for n in &r.nodes {
            let mut no = Object::new();
            no.uint("node", n.node as u64);
            no.uint("dispatched", n.dispatched);
            no.uint("admitted", n.stats.admitted);
            no.uint("deferred", n.stats.deferrals);
            no.uint("redirected_in", n.redirected_in);
            no.uint("redirected_out", n.redirected_out);
            no.num("peak_memory_mib", n.stats.peak_memory.as_mebibytes());
            no.num("memory_saving_vs_static", n.memory_saving_vs_static(params));
            no.uint("audit_samples", n.stats.audit.samples as u64);
            no.uint("audit_violations", n.stats.audit.violations as u64);
            nodes.raw(&no.finish());
        }
        o.raw("per_node", &nodes.finish());
        o.finish()
    }

    fn trace_header(spec: &ClusterCellSpec) -> CellHeader<'static> {
        CellHeader {
            nodes: spec.nodes,
            placement: spec.placement.label(),
            dispatch: spec.dispatch.label(),
            chaos: None,
        }
    }

    fn summary_fields(c: &ClusterCellResult) -> CellSummary {
        redirect_summary(&c.report)
    }
}

/// The stamp the cluster and chaos documents share: the pinned
/// `workload` (`seed`, `movies`, `arrivals_per_node`), the fingerprint,
/// and a `matrix` object with the cell count and each cell's node count.
pub(crate) fn stamp_cluster_doc(
    workload: ClusterBenchMode,
    fingerprint: &str,
    cell_nodes: &[usize],
    doc: &mut Object,
) {
    doc.uint("seed", workload.seed());
    doc.uint("movies", workload.movies() as u64);
    doc.num("arrivals_per_node", workload.arrivals_per_node());
    doc.str("config_fingerprint", fingerprint);
    let mut matrix = Object::new();
    matrix.uint("cells", cell_nodes.len() as u64);
    let mut node_counts = Array::new();
    for n in cell_nodes {
        node_counts.raw(&n.to_string());
    }
    matrix.raw("nodes", &node_counts.finish());
    doc.raw("matrix", &matrix.finish());
}

/// Writes the front end's cluster-wide counters, the same keys in the
/// same order in a cluster cell and a chaos cell.
pub(crate) fn write_front_end(r: &ClusterReport, o: &mut Object) {
    o.uint("dispatched", r.dispatched);
    o.uint("admitted", r.admitted());
    o.uint("deferred", r.deferrals());
    o.uint("rejected", r.rejected());
    o.uint("redirected", r.redirected);
    o.uint("overflow_queued", r.overflow_queued);
    o.uint("underflows", r.underflows());
    o.num(
        "peak_memory_mib",
        r.peak_memory_bits() / (8.0 * 1024.0 * 1024.0),
    );
}

/// The redirection counters a traced section's summary repeats: the
/// cluster total and each node's.
pub(crate) fn redirect_summary(r: &ClusterReport) -> CellSummary {
    CellSummary {
        redirected: r.redirected,
        per_node: r
            .nodes
            .iter()
            .map(|n| NodeRedirects {
                node: n.node,
                redirected_in: n.redirected_in,
                redirected_out: n.redirected_out,
            })
            .collect(),
        ..CellSummary::default()
    }
}

/// One `(nodes, placement, dispatch)` cell: its spec and the cluster
/// run's report, which the document writer reads its fields from.
#[derive(Clone, Debug)]
pub struct ClusterCellResult {
    /// The cell's shape.
    pub spec: ClusterCellSpec,
    /// The run's report: front-end counters and every node's stats.
    pub report: ClusterReport,
}

/// Time-series recorders for one traced cell: one cluster-wide scope
/// (imbalance ratio) plus one per node (engine series and front-end
/// load/redirection series).
struct CellSeries {
    cluster: SeriesRecorder,
    nodes: Vec<Arc<SeriesRecorder>>,
}

impl CellSeries {
    fn new(nodes: usize) -> Self {
        CellSeries {
            cluster: SeriesRecorder::new("cluster"),
            nodes: (0..nodes)
                .map(|i| Arc::new(SeriesRecorder::new(&format!("node{i}"))))
                .collect(),
        }
    }

    /// Appends every recorded series as `{"kind":"series",..}` JSONL
    /// lines: cluster scope first, then nodes in index order.
    fn append_jsonl(&self, out: &mut String) {
        out.push_str(&self.cluster.export_jsonl());
        for rec in &self.nodes {
            out.push_str(&rec.export_jsonl());
        }
    }
}

/// The per-node engine configuration every cell runs: the paper's
/// dynamic scheme under Round-Robin — the configuration whose admission
/// controller actually enforces Assumption 1, which is what redirection
/// exists to route around.
#[must_use]
pub fn cluster_engine_config() -> EngineConfig {
    EngineConfig::paper(SchedulingMethod::RoundRobin, SchemeKind::Dynamic)
}

pub(crate) fn cell_config(mode: ClusterBenchMode, spec: ClusterCellSpec) -> ClusterConfig {
    ClusterConfig {
        nodes: spec.nodes,
        engine: cluster_engine_config(),
        movies: mode.movies(),
        movie_theta: 0.271,
        placement: spec.placement,
        dispatch: spec.dispatch,
        seed: mode.seed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::run_matrix;
    use vod_obs::{prom, Metrics, MetricsRegistry};

    #[test]
    fn full_matrix_sweeps_every_shape_once() {
        let cells = ClusterBenchMode::Full.cells();
        assert_eq!(cells.len(), FULL_NODE_COUNTS.len() * 3 * 3);
        let dedup: std::collections::HashSet<String> = cells
            .iter()
            .map(|c| format!("{}/{}/{}", c.nodes, c.placement.label(), c.dispatch.label()))
            .collect();
        assert_eq!(dedup.len(), cells.len(), "no duplicate cells");
        // Single-node cells must clamp the replication factor.
        for c in &cells {
            if let PlacementPolicy::ReplicatedHot { replicas, .. } = c.placement {
                assert!(replicas <= c.nodes, "cell {c:?}");
            }
        }
    }

    #[test]
    fn smoke_matrix_runs_and_serializes() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&registry)));
        let report = run_matrix(ClusterBenchMode::Smoke, 1, &obs, None, &|_| {});
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            let r = &cell.report;
            assert_eq!(cell.spec.nodes, 2);
            assert!(r.dispatched > 0);
            assert!(r.admitted() > 0);
            assert_eq!(r.underflows(), 0, "dynamic scheme must never underflow");
            assert_eq!(r.nodes.len(), 2);
            let per_node: u64 = r.nodes.iter().map(|n| n.dispatched).sum();
            assert_eq!(per_node, r.dispatched);
        }
        let json = report.to_json();
        assert!(json.contains("\"mode\":\"cluster_smoke\""));
        assert!(json.contains("\"imbalance_ratio\""));
        assert!(json.contains("\"per_node\""));
        // The committed smoke document is this run's, byte for byte.
        let committed = include_str!("../../../BENCH_cluster_smoke.json");
        assert_eq!(json + "\n", committed);
        // The shared registry holds only wall-clock histograms: the
        // document above is the run's one record of every count.
        let text = prom::render(&registry.snapshot());
        assert!(text.contains("vod_phase_service_seconds_count"));
        assert!(text
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .all(|l| l.ends_with(" histogram")));
    }

    /// Acceptance: the traced cluster matrix writes the same document as
    /// the untraced run, and its trace passes the `trace-analyze`
    /// invariant audit (hop spans reconcile with the redirection
    /// counters, span lifecycles balance).
    #[test]
    fn traced_smoke_matrix_is_identical_and_audits_clean() {
        let obs = Obs::null();
        let plain = run_matrix(ClusterBenchMode::Smoke, 1, &obs, None, &|_| {});
        let mut trace = String::new();
        let traced = run_matrix(ClusterBenchMode::Smoke, 1, &obs, Some(&mut trace), &|_| {});
        // The smoke matrix exercises redirection, so hops must appear.
        assert!(traced.cells.iter().any(|c| c.report.redirected > 0));
        assert_eq!(plain.to_json(), traced.to_json());
        let lines = vod_obs::trace::parse_file(&trace).expect("trace schema must hold");
        let report = crate::traceview::analyze(&lines, 3);
        assert_eq!(report.sections.len(), 2, "one section per smoke cell");
        assert!(
            report.audit_passed(),
            "invariant audit: {:?}",
            report
                .sections
                .iter()
                .flat_map(|s| &s.violations)
                .collect::<Vec<_>>()
        );

        // Acceptance bar for `repro report`: the trace carries at least
        // five distinct engine series per node plus the front-end and
        // cluster-scope series, and the markdown report renders them.
        let inventory = crate::report::series_inventory(&lines);
        assert!(
            inventory["cluster"].contains(&"imbalance_ratio".to_owned()),
            "{inventory:?}"
        );
        for node in ["node0", "node1"] {
            let names = &inventory[node];
            assert!(
                names.len() >= 5 + 2,
                "{node} must carry the 5 engine series plus load/redirections: {names:?}"
            );
            for expected in [
                "pool_used_bits",
                "active_streams",
                "admission_headroom",
                "deferral_queue_depth",
                "cycle_service_s",
                "load",
                "redirections",
            ] {
                assert!(names.contains(&expected.to_owned()), "{node}: {names:?}");
            }
        }
        let md = crate::report::render_run_report(&lines);
        assert!(md.contains("## Time series"));
        assert!(md.contains("scope `node1`"));
        assert!(md.contains("## Estimator audits"));
    }

    /// Golden per-node estimator audits of the saturated replicated-hot
    /// smoke cell, recorded before the audit was scored as a stream. Its
    /// overflow retries offer parked arrivals' older instants.
    #[test]
    fn replicated_hot_cell_audits_match_the_golden_counts() {
        let mode = ClusterBenchMode::Smoke;
        let spec = mode.cells()[1];
        assert!(matches!(
            spec.placement,
            PlacementPolicy::ReplicatedHot { .. }
        ));
        let wl = mode.workload(spec.nodes);
        let report = Cluster::with_observer(cell_config(mode, spec), Obs::null())
            .expect("valid cell")
            .run(&wl.arrivals);
        assert_eq!(report.overflow_queued, 87);
        let audits: Vec<(usize, usize)> = report
            .nodes
            .iter()
            .map(|n| (n.stats.audit.samples, n.stats.audit.violations))
            .collect();
        assert_eq!(audits, [(244_766, 0), (262_542, 5)]);
    }
}
