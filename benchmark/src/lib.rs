//! `vodbench`: a single-threaded benchmark of the VOD simulator over four
//! workloads, with a separate traced run for per-layer numbers. See
//! `README.md` for the workloads, the metrics and how to read them.

pub mod compare;
pub mod json;
pub mod spans;
pub mod stats;
pub mod summary;
pub mod traced;
pub mod workloads;
