//! `repro bench`: a fixed-matrix engine harness.
//!
//! Runs a pinned set of paper cells (buffer scheme × scheduling method × θ)
//! with pinned seeds. The result renders as the `BENCH_perf.json`
//! document: per cell the engine's cycle, service and admission counters,
//! underflows and peak buffer memory, merged over the seeds. Every field
//! is a pure function of the pinned configuration, so `repro compare`
//! diffs documents exactly. [`BenchMode`] is a [`Matrix`]: the shared
//! runner ([`crate::matrix::run_matrix`]) runs its cells on a scoped
//! thread pool (`repro bench --jobs N`) and collects them by matrix index,
//! so the document is byte-identical whatever the job count.
//!
//! The document times nothing. Engine speed is measured by the `vodbench`
//! benchmark crate (one engine, one core, probes off), and the engine's
//! per-phase timers are covered by the `vod-sim` tests.

use vod_core::SchemeKind;
use vod_obs::json::{Array, Object};
use vod_obs::Obs;
use vod_sched::SchedulingMethod;
use vod_sim::{run_latency_experiment, DiskRunStats};

use crate::experiments::experiment;
use crate::matrix::{Matrix, SharedTraces};
use crate::scale::Scale;

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

    fn run_cell(
        self,
        &(scheme, method, theta): &CellSpec,
        _traces: &SharedTraces,
        obs: &Obs,
        _trailer: Option<&mut String>,
    ) -> CellResult {
        let mut exp = experiment(self.scale(), method, scheme, theta);
        exp.seeds = self.seeds();
        let out = run_latency_experiment(&exp, obs).unwrap_or_else(|e| {
            panic!(
                "bench cell ({scheme:?} / {} / θ = {theta}) has a pinned config; it must validate: {e}",
                method.label()
            )
        });
        CellResult {
            scheme,
            method,
            theta,
            stats: out.stats,
        }
    }

    fn cell_json(c: &CellResult) -> String {
        let mut o = Object::new();
        o.str("scheme", scheme_label(c.scheme));
        o.str("method", c.method.label());
        o.num("theta", c.theta);
        let stats = &c.stats;
        o.uint("cycles", stats.cycles);
        o.uint("services", stats.services);
        o.uint("admitted", stats.admitted);
        o.uint("deferred", stats.deferrals);
        o.uint("rejected", stats.rejected);
        o.uint("underflows", stats.underflows);
        o.num("peak_memory_mib", stats.peak_memory.as_mebibytes());
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
    fn smoke_bench_writes_the_committed_baseline() {
        let report = run_matrix(BenchMode::Smoke, 1, &Obs::null(), None, &|_| {});
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.stats.cycles > 0);
            assert!(cell.stats.services > 0);
            assert!(cell.stats.admitted > 0);
            assert!(cell.stats.peak_memory.as_mebibytes() > 0.0);
        }
        // The committed baseline is this run's document, byte for byte
        // (`repro` ends the file with a newline).
        let committed = include_str!("../../../BENCH_baseline.json");
        assert_eq!(report.to_json() + "\n", committed);
    }
}
