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
//! Everything except wall-clock is deterministic for a given mode: the
//! trace is a pure function of `(config, seed)`, a cluster run is a pure
//! function of `(config, trace)`, and matrix results are collected by
//! cell index whatever `--jobs` says — the same contract as the engine
//! matrix in [`crate::perf`].

use std::sync::Arc;
use std::time::Instant as WallInstant;

use vod_cluster::{map_indexed, Cluster, ClusterConfig, DispatchPolicy, PlacementPolicy};
use vod_core::SchemeKind;
use vod_obs::json::{Array, Object};
use vod_obs::timeseries::SeriesRecorder;
use vod_obs::Obs;
use vod_sched::SchedulingMethod;
use vod_sim::EngineConfig;
use vod_types::Seconds;
use vod_workload::{multi_movie, MultiMovieConfig, Workload};

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
    /// Mode tag used in the JSON document and baseline check.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ClusterBenchMode::Full => "cluster_full",
            ClusterBenchMode::Smoke => "cluster_smoke",
        }
    }

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

    /// The cells of this mode, in run order.
    #[must_use]
    pub fn cells(self) -> Vec<ClusterCellSpec> {
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

    /// Fingerprint over everything that pins this mode's matrix — the
    /// cluster analogue of [`crate::perf::BenchMode::config_fingerprint`].
    #[must_use]
    pub fn config_fingerprint(self) -> String {
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
        crate::compare::fingerprint(parts)
    }
}

/// One node's share of a cluster cell.
#[derive(Clone, Debug)]
pub struct ClusterNodeCell {
    /// Node index.
    pub node: usize,
    /// Arrivals the front end offered to this node.
    pub dispatched: u64,
    /// Streams admitted here.
    pub admitted: u64,
    /// Requests deferred here (per-node Assumption-1 enforcement).
    pub deferred: u64,
    /// Arrivals accepted here after the primary replica refused.
    pub redirected_in: u64,
    /// Arrivals this node handed off as primary.
    pub redirected_out: u64,
    /// Peak buffer-pool usage, in mebibytes.
    pub peak_memory_mib: f64,
    /// `1 − peak / min_memory_static(N_cap)` for this node: the share
    /// of a static worst-case reservation the dynamic sizing avoided.
    pub memory_saving_vs_static: f64,
    /// Estimator-audit windows scored on this node.
    pub audit_samples: u64,
    /// Audit windows whose estimate fell short of the actual count.
    pub audit_violations: u64,
}

/// Measurements from one `(nodes, placement, dispatch)` cell.
#[derive(Clone, Debug)]
pub struct ClusterCellResult {
    /// Node count.
    pub nodes: usize,
    /// Placement-policy label.
    pub placement: &'static str,
    /// Dispatch-policy label.
    pub dispatch: &'static str,
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
    /// Buffer underflows across the cluster (0 for the enforcing scheme).
    pub underflows: u64,
    /// Aggregate peak buffer memory across nodes, in mebibytes.
    pub peak_memory_mib: f64,
    /// Median initial latency over merged samples, seconds.
    pub il_p50_s: Option<f64>,
    /// 95th-percentile initial latency over merged samples, seconds.
    pub il_p95_s: Option<f64>,
    /// Deferrals per dispatched arrival.
    pub deferral_rate: f64,
    /// Busiest node's admissions over the mean (1.0 = balanced).
    pub imbalance_ratio: f64,
    /// Mean per-node memory saving vs a static reservation (over nodes
    /// that served at least one stream).
    pub mean_memory_saving_vs_static: f64,
    /// Per-node detail, indexed by node.
    pub per_node: Vec<ClusterNodeCell>,
}

impl ClusterCellResult {
    fn to_json(&self) -> String {
        let mut o = Object::new();
        o.uint("nodes", self.nodes as u64);
        o.str("placement", self.placement);
        o.str("dispatch", self.dispatch);
        o.num("wall_clock_s", self.wall_clock_s);
        o.uint("dispatched", self.dispatched);
        o.uint("admitted", self.admitted);
        o.uint("deferred", self.deferred);
        o.uint("rejected", self.rejected);
        o.uint("redirected", self.redirected);
        o.uint("overflow_queued", self.overflow_queued);
        o.uint("underflows", self.underflows);
        o.num("peak_memory_mib", self.peak_memory_mib);
        match self.il_p50_s {
            Some(x) => o.num("il_p50_s", x),
            None => o.null("il_p50_s"),
        }
        match self.il_p95_s {
            Some(x) => o.num("il_p95_s", x),
            None => o.null("il_p95_s"),
        }
        o.num("deferral_rate", self.deferral_rate);
        o.num("imbalance_ratio", self.imbalance_ratio);
        o.num(
            "mean_memory_saving_vs_static",
            self.mean_memory_saving_vs_static,
        );
        let mut nodes = Array::new();
        for n in &self.per_node {
            let mut no = Object::new();
            no.uint("node", n.node as u64);
            no.uint("dispatched", n.dispatched);
            no.uint("admitted", n.admitted);
            no.uint("deferred", n.deferred);
            no.uint("redirected_in", n.redirected_in);
            no.uint("redirected_out", n.redirected_out);
            no.num("peak_memory_mib", n.peak_memory_mib);
            no.num("memory_saving_vs_static", n.memory_saving_vs_static);
            no.uint("audit_samples", n.audit_samples);
            no.uint("audit_violations", n.audit_violations);
            nodes.raw(&no.finish());
        }
        o.raw("per_node", &nodes.finish());
        o.finish()
    }
}

/// A full cluster bench run: every cell of the mode, plus totals.
#[derive(Clone, Debug)]
pub struct ClusterBenchReport {
    /// The mode that was run.
    pub mode: ClusterBenchMode,
    /// The pinned seed every cell used.
    pub seed: u64,
    /// Per-cell measurements, in matrix order.
    pub cells: Vec<ClusterCellResult>,
    /// Wall-clock seconds for the whole matrix.
    pub total_wall_clock_s: f64,
}

impl ClusterBenchReport {
    /// Renders the `BENCH_cluster.json` document (`BENCH_cluster_smoke.json`
    /// is the committed smoke run), the shape `repro compare` gates.
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

/// Generates a pinned bench trace — a pure function of the arguments.
/// Shared by the cluster matrix and the chaos matrix
/// ([`crate::chaos`]), so a chaos cell's arrivals match the cluster
/// cell's at the same shape.
pub(crate) fn make_workload(
    movies: usize,
    expected_total: f64,
    horizon_hours: f64,
    seed: u64,
) -> Workload {
    let mut wl_cfg = MultiMovieConfig::paper_cluster(movies, 0.271, expected_total);
    wl_cfg.duration = Seconds::from_hours(horizon_hours);
    wl_cfg.peak = Seconds::from_hours(horizon_hours / 2.0);
    // A peaked (non-uniform) day: bursts at the peak are what push a
    // node's Assumption-1 bound below its hard N cap, exercising
    // deferral and overflow redirection rather than only rejection.
    wl_cfg.profile_theta = 0.4;
    multi_movie(&wl_cfg, seed)
        .unwrap_or_else(|e| panic!("bench workload ({movies} movies) must validate: {e}"))
}

/// Generates the trace for a cell — a pure function of `(mode, nodes)`:
/// total expected arrivals scale with the node count, everything else is
/// pinned by the mode.
fn cell_workload(mode: ClusterBenchMode, nodes: usize) -> Workload {
    make_workload(
        mode.movies(),
        mode.arrivals_per_node() * nodes as f64,
        mode.horizon_hours(),
        mode.seed(),
    )
}

/// The matrix's seed-invariant build products, generated once per run
/// instead of once per cell: the trace depends only on the node count
/// (9 full-matrix cells share each one), and the `BS_k(n)` table behind
/// every node's sizer is shared process-wide by the
/// [`vod_core::SizeTable::shared`] memo anyway — this hoists the other
/// per-cell rebuild, the multi-movie trace.
struct SharedTraces {
    by_nodes: Vec<(usize, Workload)>,
}

impl SharedTraces {
    fn generate(mode: ClusterBenchMode, specs: &[ClusterCellSpec]) -> Self {
        let mut node_counts: Vec<usize> = specs.iter().map(|s| s.nodes).collect();
        node_counts.sort_unstable();
        node_counts.dedup();
        SharedTraces {
            by_nodes: node_counts
                .into_iter()
                .map(|n| (n, cell_workload(mode, n)))
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

/// Runs one cell: drives a fresh cluster over the hoisted trace `wl`
/// (generated once per node count by [`SharedTraces`]).
///
/// `lifecycle_trace_only` is the traced runner's knob: keep first-fill
/// service spans but skip steady-state per-cycle ones (emission-only —
/// see [`Cluster::set_per_cycle_tracing`]).
///
/// `series` optionally attaches time-series recorders (one cluster-wide
/// scope plus one per node) before the run; like span emission, sampling
/// reads state the cluster already maintains, so attaching it never
/// perturbs the deterministic counters.
fn run_cluster_cell(
    mode: ClusterBenchMode,
    spec: ClusterCellSpec,
    wl: &Workload,
    obs: &Obs,
    lifecycle_trace_only: bool,
    series: Option<&CellSeries>,
) -> ClusterCellResult {
    let cfg = cell_config(mode, spec);
    let t0 = WallInstant::now();
    let mut cluster = Cluster::with_observer(cfg.clone(), obs.clone()).unwrap_or_else(|e| {
        panic!(
            "cluster bench cell ({} nodes, {}/{}) must validate: {e}",
            spec.nodes,
            spec.placement.label(),
            spec.dispatch.label()
        )
    });
    if lifecycle_trace_only {
        cluster.set_per_cycle_tracing(false);
    }
    if let Some(s) = series {
        cluster.set_series_recorders(&s.cluster, &s.nodes);
    }
    let report = cluster.run(&wl.arrivals);
    let wall_clock_s = t0.elapsed().as_secs_f64();

    let params = &cfg.engine.params;
    let per_node: Vec<ClusterNodeCell> = report
        .nodes
        .iter()
        .map(|n| ClusterNodeCell {
            node: n.node,
            dispatched: n.dispatched,
            admitted: n.stats.admitted,
            deferred: n.stats.deferrals,
            redirected_in: n.redirected_in,
            redirected_out: n.redirected_out,
            peak_memory_mib: n.stats.peak_memory.as_mebibytes(),
            memory_saving_vs_static: n.memory_saving_vs_static(params),
            audit_samples: n.stats.audit.samples as u64,
            audit_violations: n.stats.audit.violations as u64,
        })
        .collect();
    let served: Vec<f64> = per_node
        .iter()
        .filter(|n| n.admitted > 0)
        .map(|n| n.memory_saving_vs_static)
        .collect();
    let mean_saving = if served.is_empty() {
        0.0
    } else {
        served.iter().sum::<f64>() / served.len() as f64
    };

    ClusterCellResult {
        nodes: spec.nodes,
        placement: spec.placement.label(),
        dispatch: spec.dispatch.label(),
        wall_clock_s,
        dispatched: report.dispatched,
        admitted: report.admitted(),
        deferred: report.deferrals(),
        rejected: report.rejected(),
        redirected: report.redirected,
        overflow_queued: report.overflow_queued,
        underflows: report.underflows(),
        peak_memory_mib: report.peak_memory_bits() / (8.0 * 1024.0 * 1024.0),
        il_p50_s: report.latency_percentile(0.50).map(Seconds::as_secs_f64),
        il_p95_s: report.latency_percentile(0.95).map(Seconds::as_secs_f64),
        deferral_rate: report.deferral_rate(),
        imbalance_ratio: report.imbalance_ratio(),
        mean_memory_saving_vs_static: mean_saving,
        per_node,
    }
}

/// Runs the cluster matrix for `mode` on up to `jobs` worker threads.
///
/// `obs` is shared by every cell (pass a metrics-carrying observer to
/// accumulate the cluster's Prometheus counters across the matrix, or
/// `Obs::null()` for none); counter updates commute, so the shared
/// registry's final state is job-count independent. Results are
/// collected by matrix index, so every deterministic field of the
/// report is byte-identical whatever the job count — only wall-clock
/// varies. `progress` is called with a one-line description before each
/// cell runs.
#[must_use]
pub fn run_cluster_bench(
    mode: ClusterBenchMode,
    jobs: usize,
    obs: &Obs,
    progress: &(dyn Fn(&str) + Sync),
) -> ClusterBenchReport {
    let specs = mode.cells();
    let total = specs.len();
    let t0 = WallInstant::now();
    let traces = SharedTraces::generate(mode, &specs);

    let announce = |i: usize, spec: ClusterCellSpec| {
        progress(&format!(
            "cluster [{}/{}] {} nodes / {} / {}",
            i + 1,
            total,
            spec.nodes,
            spec.placement.label(),
            spec.dispatch.label(),
        ));
    };

    let cells = map_indexed(total, jobs, |i| {
        let spec = specs[i];
        announce(i, spec);
        run_cluster_cell(mode, spec, traces.for_nodes(spec.nodes), obs, false, None)
    });

    ClusterBenchReport {
        mode,
        seed: mode.seed(),
        cells,
        total_wall_clock_s: t0.elapsed().as_secs_f64(),
    }
}

/// Runs the cluster matrix with span tracing on, appending one traced
/// section per cell to `trace_out` as JSONL:
///
/// ```text
/// {"kind":"cluster_cell","nodes":..,"placement":..,"dispatch":..}
/// <event lines of the cell>
/// {"kind":"cluster_summary","redirected":..,"per_node":[..],..}
/// ```
///
/// The `cluster_summary` marker repeats the front end's deterministic
/// redirection counters so `repro trace-analyze` can reconcile them
/// against the hop spans in the section. Cells run sequentially (each
/// gets a private recorder, so there is no cross-cell interleaving);
/// metrics from `base_obs` are shared across cells as in
/// [`run_cluster_bench`].
#[must_use]
pub fn run_cluster_bench_traced(
    mode: ClusterBenchMode,
    base_obs: &Obs,
    trace_out: &mut String,
    progress: &(dyn Fn(&str) + Sync),
) -> ClusterBenchReport {
    let specs = mode.cells();
    let total = specs.len();
    let t0 = WallInstant::now();
    let traces = SharedTraces::generate(mode, &specs);

    let mut cells = Vec::with_capacity(total);
    for (i, &spec) in specs.iter().enumerate() {
        progress(&format!(
            "cluster [{}/{}] {} nodes / {} / {} (traced)",
            i + 1,
            total,
            spec.nodes,
            spec.placement.label(),
            spec.dispatch.label(),
        ));
        // Span lifecycles plus the admission-outcome events the audit
        // reconciles against; per-cycle telemetry (services, buffer
        // events, pool occupancy) stays off so a multi-hour cell fits
        // the recorder's capacity bound with nothing dropped.
        let recorder = std::sync::Arc::new(vod_obs::RecorderSink::new().with_kinds(&[
            vod_obs::EventKind::SpanStart,
            vod_obs::EventKind::SpanAnnotate,
            vod_obs::EventKind::SpanEnd,
            vod_obs::EventKind::RequestAdmitted,
            vod_obs::EventKind::RequestDeferred,
            vod_obs::EventKind::RequestRejected,
            vod_obs::EventKind::Underflow,
        ]));
        let cell_sink: std::sync::Arc<dyn vod_obs::Sink> = match base_obs.sink() {
            // Keep the caller's sink (a flight recorder, say) listening
            // alongside the per-cell recorder.
            Some(base) => std::sync::Arc::new(vod_obs::TeeSink::new(
                std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn vod_obs::Sink>,
                base,
            )),
            None => std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn vod_obs::Sink>,
        };
        let obs = Obs::new(cell_sink).with_metrics(base_obs.metrics().clone());
        let series = CellSeries::new(spec.nodes);
        let cell = run_cluster_cell(
            mode,
            spec,
            traces.for_nodes(spec.nodes),
            &obs,
            true,
            Some(&series),
        );
        let snap = recorder.snapshot();

        let mut header = Object::new();
        header.str("kind", "cluster_cell");
        header.uint("nodes", spec.nodes as u64);
        header.str("placement", spec.placement.label());
        header.str("dispatch", spec.dispatch.label());
        trace_out.push_str(&header.finish());
        trace_out.push('\n');
        trace_out.push_str(&snap.export_jsonl());

        let mut summary = Object::new();
        summary.str("kind", "cluster_summary");
        summary.uint("redirected", cell.redirected);
        summary.uint("events", snap.events().len() as u64);
        summary.uint("events_dropped", snap.events_dropped());
        summary.uint("spans_dropped", snap.spans_dropped());
        let mut nodes = Array::new();
        for n in &cell.per_node {
            let mut no = Object::new();
            no.uint("node", n.node as u64);
            no.uint("redirected_in", n.redirected_in);
            no.uint("redirected_out", n.redirected_out);
            nodes.raw(&no.finish());
        }
        summary.raw("per_node", &nodes.finish());
        trace_out.push_str(&summary.finish());
        trace_out.push('\n');

        // Cycle-indexed time series sampled during the cell, then one
        // audit marker per node — both marker kinds `repro report`
        // renders and `trace-analyze` skips.
        series.append_jsonl(trace_out);
        for n in &cell.per_node {
            let mut audit = Object::new();
            audit.str("kind", "audit");
            audit.str("scope", &format!("node{}", n.node));
            audit.uint("samples", n.audit_samples);
            audit.uint("violations", n.audit_violations);
            trace_out.push_str(&audit.finish());
            trace_out.push('\n');
        }

        cells.push(cell);
    }

    ClusterBenchReport {
        mode,
        seed: mode.seed(),
        cells,
        total_wall_clock_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
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
        let report = run_cluster_bench(ClusterBenchMode::Smoke, 1, &obs, &|_| {});
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.nodes, 2);
            assert!(cell.dispatched > 0);
            assert!(cell.admitted > 0);
            assert_eq!(cell.underflows, 0, "dynamic scheme must never underflow");
            assert_eq!(cell.per_node.len(), 2);
            let per_node: u64 = cell.per_node.iter().map(|n| n.dispatched).sum();
            assert_eq!(per_node, cell.dispatched);
        }
        let json = report.to_json();
        assert!(json.contains("\"mode\":\"cluster_smoke\""));
        assert!(json.contains("\"imbalance_ratio\""));
        assert!(json.contains("\"per_node\""));
        // The shared registry surfaces per-node counters for scraping.
        let text = prom::render(&registry.snapshot());
        assert!(text.contains("vod_cluster_node0_deferred_total"));
        assert!(text.contains("vod_cluster_dispatched_total"));
    }

    /// Acceptance: the traced cluster matrix produces the identical
    /// deterministic counters as the untraced run, and its trace passes
    /// the `trace-analyze` invariant audit (hop spans reconcile with
    /// the redirection counters, span lifecycles balance).
    #[test]
    fn traced_smoke_matrix_is_identical_and_audits_clean() {
        let obs = Obs::null();
        let plain = run_cluster_bench(ClusterBenchMode::Smoke, 1, &obs, &|_| {});
        let mut trace = String::new();
        let traced = run_cluster_bench_traced(ClusterBenchMode::Smoke, &obs, &mut trace, &|_| {});
        for (a, b) in plain.cells.iter().zip(&traced.cells) {
            assert_eq!(a.dispatched, b.dispatched);
            assert_eq!(a.admitted, b.admitted);
            assert_eq!(a.deferred, b.deferred);
            assert_eq!(a.rejected, b.rejected);
            assert_eq!(a.redirected, b.redirected);
            assert_eq!(a.overflow_queued, b.overflow_queued);
            assert_eq!(a.underflows, b.underflows);
            assert_eq!(a.peak_memory_mib.to_bits(), b.peak_memory_mib.to_bits());
        }
        crate::traceview::check_schema(&trace).expect("trace schema must hold");
        let report = crate::traceview::analyze(&trace, 3).expect("trace must parse");
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
        // The smoke matrix exercises redirection, so hops must appear.
        assert!(traced.cells.iter().any(|c| c.redirected > 0));

        // Acceptance bar for `repro report`: the trace carries at least
        // five distinct engine series per node plus the front-end and
        // cluster-scope series, and the markdown report renders them.
        let inventory = crate::report::series_inventory(&trace);
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
        let md = crate::report::render_run_report(&trace).expect("report renders");
        assert!(md.contains("## Time series"));
        assert!(md.contains("scope `node1`"));
        assert!(md.contains("## Estimator audits"));
    }

    /// The `--jobs` acceptance bar, cluster edition: any worker count
    /// yields the identical deterministic fields.
    #[test]
    fn parallel_cluster_bench_matches_sequential_bit_for_bit() {
        let obs = Obs::null();
        let seq = run_cluster_bench(ClusterBenchMode::Smoke, 1, &obs, &|_| {});
        let par = run_cluster_bench(ClusterBenchMode::Smoke, 2, &obs, &|_| {});
        assert_eq!(seq.cells.len(), par.cells.len());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.dispatch, b.dispatch);
            assert_eq!(a.dispatched, b.dispatched);
            assert_eq!(a.admitted, b.admitted);
            assert_eq!(a.deferred, b.deferred);
            assert_eq!(a.rejected, b.rejected);
            assert_eq!(a.redirected, b.redirected);
            assert_eq!(a.overflow_queued, b.overflow_queued);
            assert_eq!(a.underflows, b.underflows);
            assert_eq!(a.peak_memory_mib.to_bits(), b.peak_memory_mib.to_bits());
            assert_eq!(
                a.imbalance_ratio.to_bits(),
                b.imbalance_ratio.to_bits(),
                "imbalance must be bit-identical across job counts"
            );
        }
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
        let wl = cell_workload(mode, spec.nodes);
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
