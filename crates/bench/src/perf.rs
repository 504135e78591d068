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
//! The numbers in the document are host-dependent (wall-clock); the
//! counters and peak memory are deterministic for a given seed list.
//! Cells are independent — each gets a private registry and a pinned
//! seed list — so the matrix can run on a scoped thread pool
//! (`repro bench --jobs N`). Results are collected by matrix index, so
//! every counter in the report is byte-identical whatever the job count;
//! only the wall-clock fields vary (and under `--jobs > 1` the per-cell
//! wall-clocks include scheduling noise from neighbours).

use std::sync::Arc;
use std::time::Instant as WallInstant;

use vod_cluster::map_indexed;
use vod_core::SchemeKind;
use vod_obs::json::{Array, Object};
use vod_obs::metrics::{
    PHASE_ADMISSION, PHASE_CYCLE_PLAN, PHASE_SERVICE, PHASE_TABLE_BUILD, PHASE_WORKLOAD_GEN,
};
use vod_obs::{Metrics, MetricsRegistry, MetricsSnapshot, Obs};
use vod_sched::SchedulingMethod;
use vod_sim::run_latency_experiment_observed;

use crate::experiments::experiment;
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
    /// Mode tag used in the JSON document.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BenchMode::Full => "full",
            BenchMode::Smoke => "smoke",
        }
    }

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

    /// The `(scheme, method, θ)` cells of this mode, in run order.
    #[must_use]
    pub fn cells(self) -> Vec<(SchemeKind, SchedulingMethod, f64)> {
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

    /// Fingerprint over everything that pins this mode's matrix: the
    /// mode itself, the workload scale, the seeds, and every cell spec.
    /// Two documents with different fingerprints came from different
    /// experiments and `repro compare` refuses to diff them.
    #[must_use]
    pub fn config_fingerprint(self) -> String {
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
        crate::compare::fingerprint(parts)
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
    /// Wall-clock seconds spent running the cell (all seeds).
    pub wall_clock_s: f64,
    /// Scheduler cycles simulated, summed over seeds.
    pub cycles: u64,
    /// Stream services completed, summed over seeds.
    pub services: u64,
    /// Requests admitted, summed over seeds.
    pub admitted: u64,
    /// Requests deferred at least once, summed over seeds.
    pub deferred: u64,
    /// Requests rejected, summed over seeds.
    pub rejected: u64,
    /// Buffer underflows, summed over seeds.
    pub underflows: u64,
    /// Peak buffer-pool usage across seeds, in mebibytes.
    pub peak_memory_mib: f64,
    /// The cell's private metrics registry, frozen after the run.
    pub metrics: MetricsSnapshot,
}

impl CellResult {
    /// Simulated cycles per wall-clock second (0 when the cell ran too
    /// fast to time).
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_clock_s > 0.0 {
            self.cycles as f64 / self.wall_clock_s
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        let mut o = Object::new();
        o.str("scheme", scheme_label(self.scheme));
        o.str("method", self.method.label());
        o.num("theta", self.theta);
        o.num("wall_clock_s", self.wall_clock_s);
        o.uint("cycles", self.cycles);
        o.num("cycles_per_sec", self.cycles_per_sec());
        o.uint("services", self.services);
        o.uint("admitted", self.admitted);
        o.uint("deferred", self.deferred);
        o.uint("rejected", self.rejected);
        o.uint("underflows", self.underflows);
        o.num("peak_memory_mib", self.peak_memory_mib);
        let mut phases = Object::new();
        for name in PHASES {
            if let Some(h) = self.metrics.histogram(name) {
                phases.raw(name, &h.to_json());
            }
        }
        o.raw("phases", &phases.finish());
        o.finish()
    }
}

/// A full bench run: every cell of the mode, plus totals.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// The mode that was run.
    pub mode: BenchMode,
    /// Seeds every cell used.
    pub seeds: Vec<u64>,
    /// Per-cell measurements, in matrix order.
    pub cells: Vec<CellResult>,
    /// Wall-clock seconds for the whole matrix.
    pub total_wall_clock_s: f64,
}

impl BenchReport {
    /// Renders the `BENCH_perf.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.uint("version", crate::compare::BENCH_SCHEMA_VERSION);
        o.str("mode", self.mode.label());
        o.str(
            "scale",
            match self.mode.scale() {
                Scale::Full => "full",
                Scale::Quick => "quick",
            },
        );
        o.str("config_fingerprint", &self.mode.config_fingerprint());
        let mut matrix = Object::new();
        matrix.uint("cells", self.cells.len() as u64);
        matrix.uint("seeds", self.seeds.len() as u64);
        o.raw("matrix", &matrix.finish());
        let mut seeds = Array::new();
        for &s in &self.seeds {
            seeds.raw(&s.to_string());
        }
        o.raw("seeds", &seeds.finish());
        let mut cells = Array::new();
        for c in &self.cells {
            cells.raw(&c.to_json());
        }
        o.raw("cells", &cells.finish());
        o.num("total_wall_clock_s", self.total_wall_clock_s);
        o.finish()
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

/// Runs one cell against a fresh registry.
fn run_cell(
    mode: BenchMode,
    scheme: SchemeKind,
    method: SchedulingMethod,
    theta: f64,
) -> CellResult {
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&registry)));
    let mut exp = experiment(mode.scale(), method, scheme, theta);
    exp.seeds = mode.seeds();
    let t0 = WallInstant::now();
    let out = run_latency_experiment_observed(&exp, &|_| obs.clone()).unwrap_or_else(|e| {
        panic!(
            "bench cell ({scheme:?} / {} / θ = {theta}) has a pinned config; it must validate: {e}",
            method.label()
        )
    });
    let wall_clock_s = t0.elapsed().as_secs_f64();
    let stats = &out.result.stats;
    CellResult {
        scheme,
        method,
        theta,
        wall_clock_s,
        cycles: stats.cycles,
        services: stats.services,
        admitted: stats.admitted,
        deferred: stats.deferrals,
        rejected: stats.rejected,
        underflows: stats.underflows,
        peak_memory_mib: stats.peak_memory.as_mebibytes(),
        metrics: registry.snapshot(),
    }
}

/// Runs the matrix for `mode` on up to `jobs` worker threads and
/// collects the report.
///
/// Workers claim cells from a shared index, but every result lands at
/// its matrix position, so the report's cell order — and every
/// deterministic field in it — is independent of `jobs`. `jobs = 1`
/// runs the matrix inline on the calling thread.
///
/// `progress` is called with a one-line description before each cell
/// runs (the `repro` binary points it at stderr; tests pass a no-op).
/// With `jobs > 1` the lines interleave in claim order.
#[must_use]
pub fn run_bench(mode: BenchMode, jobs: usize, progress: &(dyn Fn(&str) + Sync)) -> BenchReport {
    let cells_spec = mode.cells();
    let total = cells_spec.len();
    let t0 = WallInstant::now();

    let announce = |i: usize, scheme: SchemeKind, method: SchedulingMethod, theta: f64| {
        progress(&format!(
            "bench [{}/{}] {} / {} / θ = {theta}",
            i + 1,
            total,
            scheme_label(scheme),
            method.label(),
        ));
    };

    let cells = map_indexed(total, jobs, |i| {
        let (scheme, method, theta) = cells_spec[i];
        announce(i, scheme, method, theta);
        run_cell(mode, scheme, method, theta)
    });

    BenchReport {
        mode,
        seeds: mode.seeds(),
        cells,
        total_wall_clock_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let report = run_bench(BenchMode::Smoke, 1, &|_| {});
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.cycles > 0);
            assert!(cell.services > 0);
            assert!(cell.admitted > 0);
            assert!(cell.peak_memory_mib > 0.0);
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
    }

    /// The acceptance bar for `--jobs`: every deterministic field of the
    /// report is identical whatever the worker count — only wall-clock
    /// (and derived cycles/sec) may differ.
    #[test]
    fn parallel_bench_matches_sequential_bit_for_bit() {
        let seq = run_bench(BenchMode::Smoke, 1, &|_| {});
        let par = run_bench(BenchMode::Smoke, 2, &|_| {});
        assert_eq!(seq.cells.len(), par.cells.len());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.method, b.method);
            assert_eq!(a.theta.to_bits(), b.theta.to_bits());
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.services, b.services);
            assert_eq!(a.admitted, b.admitted);
            assert_eq!(a.deferred, b.deferred);
            assert_eq!(a.rejected, b.rejected);
            assert_eq!(a.underflows, b.underflows);
            assert_eq!(
                a.peak_memory_mib.to_bits(),
                b.peak_memory_mib.to_bits(),
                "peak memory must be bit-identical across job counts"
            );
        }
    }
}
