//! Discrete-event VOD server simulation.
//!
//! Two simulators reproduce the paper's evaluation (§5):
//!
//! * [`engine::DiskEngine`] — a **buffer-level, single-disk** simulator:
//!   it runs the actual service loop (cycle planning, per-method service
//!   order, BubbleUp insertion, admission control, buffer fills and
//!   use-it-and-toss-it consumption) and measures initial latency,
//!   estimation success, memory occupancy, deferrals, and — crucially —
//!   **buffer underflows**, the invariant the predict-and-enforce
//!   strategy must never violate. Pool occupancy comes from the engine's
//!   own running sum over buffer levels (see [the memory
//!   model](#the-memory-model)). Figures 6, 7, 8, and 11 come from this
//!   engine.
//! * [`capacity::CapacitySim`] — an **admission-level, multi-disk**
//!   simulator for the capacity experiments (Fig. 14, Table 5): requests
//!   arrive per the Zipf disk-load model and are admitted against a
//!   shared memory budget using the minimum-memory theorems as the
//!   reservation rule, exactly the quantity the paper's Fig. 13 analysis
//!   uses. (Cross-disk coupling is *only* through memory, so the
//!   buffer-level engine is not needed here; see DESIGN.md.)
//!
//! Both are deterministic given a [`vod_workload::Workload`] trace, so
//! every scheme/method combination replays identical arrivals. Attaching
//! a [`vod_obs`] sink (see [`engine::DiskEngine::with_observer`] and
//! [`capacity::CapacitySim::with_observer`]) never changes a result:
//! events carry already-computed values stamped with simulated time.
//!
//! # The service model
//!
//! The engine services streams in *cycles* (the paper's service periods).
//! Within a cycle the server fills each roster buffer back-to-back; across
//! cycles it idles just long enough that every stream's refill completes
//! by the time its buffer drains (just-in-time scheduling, the behaviour
//! the Fixed-Stretch/Sweep\*/GSS\* family approximates). Fills *top up* to
//! the allocated size, so a stream's occupancy never exceeds its
//! allocation and released memory is immediately reusable — the
//! use-it-and-toss-it policy of §2.1.
//!
//! # Admission limits
//!
//! Disk speed enters the paper's model in one place, the admission bound
//! `min(min_i(n_i + k_i), N)`: a slower disk is a smaller `N`. Memory
//! enters through the budget that reservations are checked against. A
//! cluster tightens exactly these two numbers through
//! [`engine::DiskEngine::set_admission_limits`]: the fraction of `N`
//! admission may fill and the fraction of the budget it may reserve.
//! Scheduling keeps the true `N`, so a limit only refuses new streams and
//! never causes an underflow. `vod-chaos` composes each fault kind it
//! defines into this pair.
//!
//! # The memory model
//!
//! §2.1 of the paper fixes the memory model, and the engine keeps exactly
//! one account of it:
//!
//! * every active stream owns one logical buffer, filled once per service
//!   period by the server;
//! * streams consume at their consumption rate `CR` and release memory the
//!   moment data is consumed (*use-it-and-toss-it*), so buffers share one
//!   physical pool;
//! * memory is handed out by the **page**, but pages need not be physically
//!   contiguous (a buffer is a logically contiguous chain of pages), so
//!   sharing causes no fragmentation. The paper's analysis then idealizes
//!   pages to **variable-length** (bit-granular) allocation, noting the
//!   difference is negligible because pages are much smaller than buffers.
//!
//! The engine keeps the idealized pool as one O(1) running sum over the
//! viewing streams' levels; its high-water mark is
//! [`DiskRunStats::peak_memory`], behind every peak-memory figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod capacity;
pub mod engine;
pub mod metrics;
pub mod runner;
pub mod slab;
pub mod stream;

pub use audit::{AuditOutcome, AuditScorer};
pub use capacity::{CapacityConfig, CapacityResult, CapacitySim};
pub use engine::{DiskEngine, EngineConfig, EvictedStream};
pub use metrics::{DiskRunStats, IlSample};
pub use runner::{run_latency_experiment, LatencyExperiment, LatencyResult};
pub use slab::{Slab, SlotId};
