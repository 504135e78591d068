//! `repro bench`: a fixed-matrix performance harness.
//!
//! Runs a pinned set of paper cells (buffer scheme × scheduling method × θ)
//! with pinned seeds. Every cell gets a fresh [`MetricsRegistry`], so the
//! phase histograms recorded by the engine ([`PHASE_CYCLE_PLAN`],
//! [`PHASE_SERVICE`], …) describe exactly that cell. The result renders as
//! the `BENCH_perf.json` document CI archives: per-cell wall-clock,
//! cycles/second, admission counters, peak pool memory, and p50/p95/max
//! per instrumented phase.
//!
//! The engine phases are sampled per cycle, not per service:
//! [`PHASE_CYCLE_PLAN`] holds one sample per cycle boundary (departures,
//! boundary admissions, order rebuild and cycle plan), and
//! [`PHASE_SERVICE`] one sample per cycle that read anything, the rest of
//! the cycle's wall time divided by its services. A service p95 is
//! therefore the p95 over cycles of the average per-service cost, not of
//! single services.
//!
//! The wall-clock fields, `cycles_per_sec` and the phase histograms are
//! host-dependent; the counters and peak memory are deterministic for a
//! given seed list. [`BenchMode`] is a [`Matrix`]: the shared runner
//! ([`crate::matrix::run_matrix`]) runs its cells on a scoped thread pool
//! (`repro bench --jobs N`) and collects them by matrix index, so every
//! deterministic field is byte-identical whatever the job count (under
//! `--jobs > 1` the per-cell wall-clocks include scheduling noise from
//! neighbours).

use std::sync::Arc;

use vod_core::SchemeKind;
use vod_obs::json::{Array, Object};
use vod_obs::metrics::{
    PHASE_ADMISSION, PHASE_CYCLE_PLAN, PHASE_SERVICE, PHASE_TABLE_BUILD, PHASE_WORKLOAD_GEN,
};
use vod_obs::{Metrics, MetricsRegistry, MetricsSnapshot, Obs};
use vod_sched::SchedulingMethod;
use vod_sim::{run_latency_experiment_observed, DiskRunStats};

use crate::experiments::experiment;
use crate::matrix::{Matrix, SharedTraces};
use crate::scale::Scale;

/// Every phase histogram the engine and runner feed, in report order.
pub const PHASES: [&str; 5] = [
    PHASE_TABLE_BUILD,
    PHASE_WORKLOAD_GEN,
    PHASE_ADMISSION,
    PHASE_CYCLE_PLAN,
    PHASE_SERVICE,
];

/// Which slice of the matrix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchMode {
    /// The full 18-cell matrix (2 schemes × 3 methods × 3 θ) at paper
    /// scale with seeds 1–3.
    Full,
    /// A 2-cell CI-sized subset (both schemes, Round-Robin, θ = 0.5) at
    /// quick scale with seed 1.
    Smoke,
}

impl BenchMode {
    /// Workload scale backing the cells.
    #[must_use]
    pub fn scale(self) -> Scale {
        match self {
            BenchMode::Full => Scale::Full,
            BenchMode::Smoke => Scale::Quick,
        }
    }

    /// Pinned seeds shared by every cell.
    #[must_use]
    pub fn seeds(self) -> Vec<u64> {
        match self {
            BenchMode::Full => vec![1, 2, 3],
            BenchMode::Smoke => vec![1],
        }
    }
}

/// One cell of the matrix: `(scheme, method, θ)`.
pub type CellSpec = (SchemeKind, SchedulingMethod, f64);

impl Matrix for BenchMode {
    type Spec = CellSpec;
    type Cell = CellResult;
    const KIND: &'static str = "bench";

    fn label(self) -> &'static str {
        match self {
            BenchMode::Full => "full",
            BenchMode::Smoke => "smoke",
        }
    }

    fn cells(self) -> Vec<CellSpec> {
        match self {
            BenchMode::Full => {
                let mut out = Vec::new();
                for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
                    for method in SchedulingMethod::paper_methods() {
                        for theta in [0.0, 0.5, 1.0] {
                            out.push((scheme, method, theta));
                        }
                    }
                }
                out
            }
            BenchMode::Smoke => vec![
                (SchemeKind::Static, SchedulingMethod::RoundRobin, 0.5),
                (SchemeKind::Dynamic, SchedulingMethod::RoundRobin, 0.5),
            ],
        }
    }

    /// The mode itself, the workload scale, the seeds, and every cell.
    fn fingerprint_parts(self) -> Vec<String> {
        let mut parts = vec![
            "engine".to_owned(),
            self.label().to_owned(),
            format!("{:?}", self.scale()),
        ];
        for s in self.seeds() {
            parts.push(format!("seed={s}"));
        }
        for (scheme, method, theta) in self.cells() {
            parts.push(format!(
                "{}/{}/{theta}",
                scheme_label(scheme),
                method.label()
            ));
        }
        parts
    }

    fn stamp(self, doc: &mut Object) {
        doc.str(
            "scale",
            match self.scale() {
                Scale::Full => "full",
                Scale::Quick => "quick",
            },
        );
        doc.str("config_fingerprint", &self.config_fingerprint());
        let mut matrix = Object::new();
        matrix.uint("cells", self.cells().len() as u64);
        matrix.uint("seeds", self.seeds().len() as u64);
        doc.raw("matrix", &matrix.finish());
        let mut seeds = Array::new();
        for s in self.seeds() {
            seeds.raw(&s.to_string());
        }
        doc.raw("seeds", &seeds.finish());
    }

    fn describe(&(scheme, method, theta): &CellSpec) -> String {
        format!(
            "{} / {} / θ = {theta}",
            scheme_label(scheme),
            method.label()
        )
    }

    /// Runs one cell against a fresh registry of its own, so its phase
    /// histograms describe exactly that cell; `obs` is not used.
    fn run_cell(
        self,
        &(scheme, method, theta): &CellSpec,
        _traces: &SharedTraces,
        _obs: &Obs,
        _trailer: Option<&mut String>,
    ) -> CellResult {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&registry)));
        let mut exp = experiment(self.scale(), method, scheme, theta);
        exp.seeds = self.seeds();
        let out = run_latency_experiment_observed(&exp, &|_| obs.clone()).unwrap_or_else(|e| {
            panic!(
                "bench cell ({scheme:?} / {} / θ = {theta}) has a pinned config; it must validate: {e}",
                method.label()
            )
        });
        CellResult {
            scheme,
            method,
            theta,
            stats: out.result.stats,
            metrics: registry.snapshot(),
        }
    }

    fn cell_json(c: &CellResult, wall_clock_s: f64) -> String {
        let mut o = Object::new();
        o.str("scheme", scheme_label(c.scheme));
        o.str("method", c.method.label());
        o.num("theta", c.theta);
        o.num("wall_clock_s", wall_clock_s);
        let stats = &c.stats;
        o.uint("cycles", stats.cycles);
        o.num("cycles_per_sec", c.cycles_per_sec(wall_clock_s));
        o.uint("services", stats.services);
        o.uint("admitted", stats.admitted);
        o.uint("deferred", stats.deferrals);
        o.uint("rejected", stats.rejected);
        o.uint("underflows", stats.underflows);
        o.num("peak_memory_mib", stats.peak_memory.as_mebibytes());
        let mut phases = Object::new();
        for name in PHASES {
            if let Some(h) = c.metrics.histogram(name) {
                phases.raw(name, &h.to_json());
            }
        }
        o.raw("phases", &phases.finish());
        o.finish()
    }
}

/// Measurements from one `(scheme, method, θ)` cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Buffer allocation scheme simulated.
    pub scheme: SchemeKind,
    /// Disk scheduling method simulated.
    pub method: SchedulingMethod,
    /// Access-profile skew θ.
    pub theta: f64,
    /// The engine's counters and peak memory, merged over seeds (counts
    /// summed, peak memory the maximum).
    pub stats: DiskRunStats,
    /// The cell's private metrics registry, frozen after the run.
    pub metrics: MetricsSnapshot,
}

impl CellResult {
    /// Simulated cycles per wall-clock second over `wall_clock_s` (0 when
    /// the cell ran too fast to time).
    #[must_use]
    pub fn cycles_per_sec(&self, wall_clock_s: f64) -> f64 {
        if wall_clock_s > 0.0 {
            self.stats.cycles as f64 / wall_clock_s
        } else {
            0.0
        }
    }
}

fn scheme_label(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Static => "static",
        SchemeKind::StaticMaxUse => "static_max_use",
        SchemeKind::NaiveDynamic => "naive_dynamic",
        SchemeKind::Dynamic => "dynamic",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::run_matrix;

    #[test]
    fn full_matrix_covers_all_paper_cells() {
        let cells = BenchMode::Full.cells();
        assert_eq!(cells.len(), 18);
        let dedup: std::collections::HashSet<String> = cells
            .iter()
            .map(|(s, m, t)| format!("{s:?}/{m:?}/{t}"))
            .collect();
        assert_eq!(dedup.len(), 18);
        assert_eq!(BenchMode::Full.seeds(), vec![1, 2, 3]);
    }

    #[test]
    fn smoke_bench_reports_every_instrumented_phase() {
        let report = run_matrix(BenchMode::Smoke, 1, &Obs::null(), None, &|_| {});
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.stats.cycles > 0);
            assert!(cell.stats.services > 0);
            assert!(cell.stats.admitted > 0);
            assert!(cell.stats.peak_memory.as_mebibytes() > 0.0);
            // Static cells never build a BS_k(n) table; every other phase
            // must have samples in every cell.
            for name in PHASES {
                let h = cell.metrics.histogram(name);
                if name == PHASE_TABLE_BUILD && cell.scheme == SchemeKind::Static {
                    continue;
                }
                let h = h.unwrap_or_else(|| panic!("missing phase {name}"));
                assert!(h.count > 0, "phase {name} recorded no samples");
            }
        }
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"mode\":\"smoke\""));
        assert!(json.contains("\"cycles_per_sec\""));
        assert!(json.contains(PHASE_CYCLE_PLAN));
        // The committed baseline still describes this run: every
        // deterministic field matches exactly (an infinite tolerance
        // keeps debug-build wall clocks out of it).
        let committed = include_str!("../../../BENCH_baseline.json");
        let r = crate::compare::compare_documents(committed, &json, f64::INFINITY);
        assert_eq!(
            r.verdict,
            crate::compare::CompareVerdict::Matches,
            "{:?}",
            r.problems
        );
    }
}
