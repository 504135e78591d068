//! # vod — dynamic buffer allocation for video-on-demand systems
//!
//! A full reproduction of *Lee, Whang, Moon, Han, Song — "Dynamic Buffer
//! Allocation in Video-on-Demand Systems"* (SIGMOD 2001 / IEEE TKDE
//! 15(6), 2003) as a reusable Rust library.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! one roof. Start with [`core`] (the paper's contribution — the
//! predict-and-enforce dynamic buffer allocation scheme), then [`sim`]
//! (the discrete-event server simulator used for the paper's evaluation).
//!
//! ```
//! use vod::prelude::*;
//!
//! // A Barracuda 9LP serving 1.5 Mbps MPEG-1 streams (the paper's
//! // environment), scheduled round-robin with BubbleUp:
//! let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
//! assert_eq!(params.max_requests(), 79);
//!
//! // The precomputed Theorem-1 size table:
//! let table = SizeTable::build(&params);
//! let lightly_loaded = table.size(5, 2);
//! let fully_loaded = table.size(79, 0);
//! assert!(lightly_loaded.as_f64() < 0.02 * fully_loaded.as_f64());
//! ```
//!
//! The `repro` binary (`cargo run -p vod-bench --release --bin repro --
//! all`) regenerates every table and figure; see `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vod_analysis as analysis;
pub use vod_core as core;
pub use vod_disk as disk;
pub use vod_obs as obs;
pub use vod_sched as sched;
pub use vod_sim as sim;
pub use vod_types as types;
pub use vod_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use vod_core::{
        AdmissionController, ArrivalLog, MultiRateSystem, RateAdaptation, SchemeKind, SizeTable,
        SystemParams,
    };
    pub use vod_disk::{Disk, DiskProfile, LatencyModel};
    pub use vod_obs::{Metrics, MetricsRegistry, Obs, RecorderSink, Sink};
    pub use vod_sched::SchedulingMethod;
    pub use vod_sim::{CapacityConfig, CapacitySim, DiskEngine, EngineConfig};
    pub use vod_types::{BitRate, Bits, Instant, RequestId, Seconds, VideoId};
    pub use vod_workload::{generate, with_vcr_actions, VcrConfig, Workload, WorkloadConfig};
}
