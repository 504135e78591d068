//! One runner for the three bench matrices: the engine matrix
//! ([`crate::perf`]), the cluster matrix ([`crate::cluster`]) and the
//! chaos matrix ([`crate::chaos`]).
//!
//! A matrix mode implements [`Matrix`] and supplies only what differs
//! between the three: its cells, its fingerprint and document stamp, how
//! one cell runs, the cell's JSON writer, and for `--trace` the recorder
//! kinds and the cell's section fields. [`run_matrix`] owns the rest:
//! the worker pool, progress lines, the shared trace cache, the traced
//! section writer and the document's outer fields.
//!
//! Every cell is a pure function of `(mode, cell spec)` and results are
//! collected by matrix index. A document holds only what the simulation
//! computes, no host clock, so it is byte-identical whatever the job
//! count and whether or not the run was traced. Wall time is the
//! caller's to measure (`repro` prints it on its stderr status line).

use std::sync::Arc;

use vod_cluster::map_indexed;
use vod_obs::json::{Array, Object};
use vod_obs::{CellHeader, CellSummary, EventKind, Obs, RecorderSink, Sink, TeeSink, TraceLine};
use vod_workload::Workload;

use crate::compare::{fingerprint, BENCH_SCHEMA_VERSION};

/// One bench matrix: a mode that names a pinned set of cells and knows
/// how to run and render one of them.
pub trait Matrix: Copy + Send + Sync {
    /// What pins one cell (its shape and policies).
    type Spec: Copy + Send + Sync;
    /// One cell's deterministic measurements.
    type Cell: Send;

    /// Prefix of the progress lines and the `repro` status lines
    /// (`bench`, `cluster`, `chaos`).
    const KIND: &'static str;

    /// Event kinds a traced cell's recorder keeps. The engine matrix is
    /// never traced and keeps none.
    const TRACE_KINDS: &'static [EventKind] = &[];

    /// Mode tag written as the document's `mode`.
    fn label(self) -> &'static str;

    /// The committed document this mode's run is gated against, and
    /// where `repro` writes the run when no `--out` is given.
    fn pin(self) -> &'static str;

    /// The cells of this mode, in run order.
    fn cells(self) -> Vec<Self::Spec>;

    /// Everything that pins this mode's matrix, in a stable order.
    fn fingerprint_parts(self) -> Vec<String>;

    /// Fingerprint over [`Matrix::fingerprint_parts`]. Two documents with
    /// different fingerprints came from different experiments and
    /// `repro compare` refuses to diff them.
    #[must_use]
    fn config_fingerprint(self) -> String {
        fingerprint(self.fingerprint_parts())
    }

    /// Writes the document fields between `mode` and `cells`: the
    /// header fields, `config_fingerprint` and the `matrix` object.
    fn stamp(self, doc: &mut Object);

    /// One-line description of a cell for the progress line.
    fn describe(spec: &Self::Spec) -> String;

    /// The workloads the cells share, generated once per run.
    fn traces(self) -> SharedTraces {
        SharedTraces::default()
    }

    /// Runs one cell against `obs`. `trailer` is set for a traced run:
    /// the cell may then append lines (time series, audit markers) to
    /// follow its section summary.
    fn run_cell(
        self,
        spec: &Self::Spec,
        traces: &SharedTraces,
        obs: &Obs,
        trailer: Option<&mut String>,
    ) -> Self::Cell;

    /// Renders one cell of the document.
    fn cell_json(cell: &Self::Cell) -> String;

    /// A traced section's `cluster_cell` header. Only the cluster and
    /// chaos matrices are traced: the engine matrix keeps no
    /// [`Matrix::TRACE_KINDS`] and `repro bench` takes no `--trace`.
    fn trace_header(_spec: &Self::Spec) -> CellHeader<'static> {
        unreachable!("{} cells are never traced", Self::KIND)
    }

    /// A traced section's `cluster_summary`, less what the recorder kept
    /// and dropped (the runner fills that in): the redirection counters
    /// `repro trace-analyze` reconciles with the hop spans, and a chaos
    /// cell's counters.
    fn summary_fields(_cell: &Self::Cell) -> CellSummary {
        CellSummary::default()
    }
}

/// The workloads a matrix's cells replay, generated once per run instead
/// of once per cell. A trace depends only on the node count (nine
/// full-matrix cluster cells share each one).
#[derive(Default)]
pub struct SharedTraces {
    by_nodes: Vec<(usize, Workload)>,
}

impl SharedTraces {
    /// Generates one workload per distinct node count with `make`.
    pub fn generate(
        node_counts: impl IntoIterator<Item = usize>,
        make: impl Fn(usize) -> Workload,
    ) -> Self {
        let mut counts: Vec<usize> = node_counts.into_iter().collect();
        counts.sort_unstable();
        counts.dedup();
        SharedTraces {
            by_nodes: counts.into_iter().map(|n| (n, make(n))).collect(),
        }
    }

    /// The workload generated for `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if no workload was generated for `nodes`.
    #[must_use]
    pub fn for_nodes(&self, nodes: usize) -> &Workload {
        self.by_nodes
            .iter()
            .find(|(n, _)| *n == nodes)
            .map(|(_, wl)| wl)
            .expect("every cell's node count was generated up front")
    }
}

/// A matrix run: every cell of the mode.
pub struct Report<M: Matrix> {
    /// The mode that was run.
    pub mode: M,
    /// Per-cell measurements, in matrix order.
    pub cells: Vec<M::Cell>,
}

impl<M: Matrix> Report<M> {
    /// Renders the bench document (the file [`Matrix::pin`] names), the
    /// shape `repro compare` gates.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.uint("version", BENCH_SCHEMA_VERSION);
        o.str("mode", self.mode.label());
        self.mode.stamp(&mut o);
        let mut cells = Array::new();
        for cell in &self.cells {
            cells.raw(&M::cell_json(cell));
        }
        o.raw("cells", &cells.finish());
        o.finish()
    }
}

/// Runs the matrix for `mode` on up to `jobs` worker threads.
///
/// `obs` is shared by every cell. A shared metrics registry holds only
/// wall-clock histograms, whose sample counts do not depend on the job
/// count. `progress` is called with a one-line description before each cell
/// runs; with `jobs > 1` the lines interleave in claim order.
///
/// With `trace` set, the cells run in order on the calling thread and
/// each appends one section to it as JSONL:
///
/// ```text
/// {"kind":"cluster_cell",<Matrix::trace_header>}
/// <event lines of the cell>
/// {"kind":"cluster_summary","redirected":..,<drop counts>,..,"per_node":[..]}
/// <the cell's trailer lines>
/// ```
///
/// Each cell records into a private recorder keeping
/// [`Matrix::TRACE_KINDS`], teed with `obs`'s own sink (a flight
/// recorder, say) when it has one.
pub fn run_matrix<M: Matrix>(
    mode: M,
    jobs: usize,
    obs: &Obs,
    trace: Option<&mut String>,
    progress: &(dyn Fn(&str) + Sync),
) -> Report<M> {
    let specs = mode.cells();
    let total = specs.len();
    let traces = mode.traces();
    let announce = |i: usize, suffix: &str| {
        progress(&format!(
            "{} [{}/{total}] {}{suffix}",
            M::KIND,
            i + 1,
            M::describe(&specs[i])
        ));
    };

    let cells = match trace {
        None => map_indexed(total, jobs, |i| {
            announce(i, "");
            mode.run_cell(&specs[i], &traces, obs, None)
        }),
        Some(out) => (0..total)
            .map(|i| {
                announce(i, " (traced)");
                traced_cell(mode, &specs[i], &traces, obs, out)
            })
            .collect(),
    };
    Report { mode, cells }
}

/// Runs one cell under a private recorder and appends its section.
fn traced_cell<M: Matrix>(
    mode: M,
    spec: &M::Spec,
    traces: &SharedTraces,
    base_obs: &Obs,
    out: &mut String,
) -> M::Cell {
    let recorder = Arc::new(RecorderSink::new().with_kinds(M::TRACE_KINDS));
    let recorder_sink = Arc::clone(&recorder) as Arc<dyn Sink>;
    let sink: Arc<dyn Sink> = match base_obs.sink() {
        Some(base) => Arc::new(TeeSink::new(recorder_sink, base)),
        None => recorder_sink,
    };
    let obs = Obs::new(sink).with_metrics(base_obs.metrics().clone());
    let mut trailer = String::new();
    let cell = mode.run_cell(spec, traces, &obs, Some(&mut trailer));
    let snap = recorder.snapshot();

    let summary = CellSummary {
        events: snap.events().len() as u64,
        events_dropped: snap.events_dropped(),
        spans_dropped: snap.spans_dropped(),
        ..M::summary_fields(&cell)
    };
    out.push_str(&TraceLine::ClusterCell(M::trace_header(spec)).to_json());
    out.push('\n');
    out.push_str(&snap.export_jsonl());
    out.push_str(&TraceLine::ClusterSummary(summary).to_json());
    out.push('\n');
    out.push_str(&trailer);
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosBenchMode;
    use crate::cluster::ClusterBenchMode;
    use crate::perf::BenchMode;

    /// The document of a `jobs`-worker smoke run.
    fn doc<M: Matrix>(mode: M, jobs: usize) -> String {
        run_matrix(mode, jobs, &Obs::null(), None, &|_| {}).to_json()
    }

    /// The acceptance bar for `--jobs`: in all three matrices, the
    /// document is byte-identical at one and two workers.
    #[test]
    fn every_matrix_document_is_byte_identical_across_job_counts() {
        assert_eq!(doc(BenchMode::Smoke, 1), doc(BenchMode::Smoke, 2));
        assert_eq!(
            doc(ClusterBenchMode::Smoke, 1),
            doc(ClusterBenchMode::Smoke, 2)
        );
        assert_eq!(doc(ChaosBenchMode::Smoke, 1), doc(ChaosBenchMode::Smoke, 2));
    }

    /// `repro`'s default `--out` for each mode is its own committed
    /// document, not another mode's.
    #[test]
    fn each_mode_pins_its_own_committed_document() {
        fn mode_of<M: Matrix>(mode: M) -> (&'static str, &'static str, String) {
            let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), mode.pin());
            let text = std::fs::read_to_string(&path).expect("the pin is committed");
            let doc = vod_obs::json::parse(&text).expect("the pin parses");
            let written = doc.get("mode").and_then(|m| m.as_str()).expect("a mode");
            (mode.pin(), mode.label(), written.to_owned())
        }
        let table = [
            mode_of(BenchMode::Full),
            mode_of(BenchMode::Smoke),
            mode_of(ClusterBenchMode::Full),
            mode_of(ClusterBenchMode::Smoke),
            mode_of(ChaosBenchMode::Full),
            mode_of(ChaosBenchMode::Smoke),
        ];
        let pins: Vec<_> = table.iter().map(|(pin, _, _)| *pin).collect();
        assert_eq!(
            pins,
            [
                "BENCH_perf.json",
                "BENCH_baseline.json",
                "BENCH_cluster_full.json",
                "BENCH_cluster_smoke.json",
                "BENCH_chaos_full.json",
                "BENCH_chaos.json",
            ]
        );
        for (pin, label, written) in &table {
            assert_eq!(label, written, "{pin} holds another mode's run");
        }
    }
}
