//! Experiment implementations behind the `repro` binary and the Criterion
//! benches: one function per table/figure of the paper, each returning the
//! rendered [`Table`](vod_analysis::Table)s so callers can print them and mirror them to CSV.
//!
//! See `EXPERIMENTS.md` at the repository root for the experiment index
//! and the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod compare;
pub mod experiments;
pub mod matrix;
pub mod perf;
pub mod report;
pub mod scale;
pub mod traceview;

pub use chaos::{ChaosBenchMode, ChaosCellResult};
pub use cluster::{ClusterBenchMode, ClusterCellResult};
pub use compare::{compare_documents, CompareReport, CompareVerdict};
pub use experiments::{
    fig10, fig11, fig12, fig13, fig14, fig6, fig7, fig8, fig9, gss_g, tab3, tab4, tab5, vcr,
};
pub use matrix::{run_matrix, Matrix, Report};
pub use perf::{BenchMode, CellResult};
pub use report::render_run_report;
pub use scale::Scale;
