//! Workload generation for VOD simulations.
//!
//! §5.1 of the paper fixes the workload model this crate reproduces:
//!
//! * user requests arrive in a **Poisson process** whose rate `λ` changes
//!   every 30 minutes;
//! * the per-slot rates follow a **Zipf distribution** (parameter `θ`)
//!   ranked by distance from a peak at **hour 9** of the day — `θ = 0` is
//!   a sharply peaked evening-rush profile, `θ = 1` a uniform one;
//! * viewing times are **uniform on (0, 120 min)** — VCR operations are
//!   modelled as departures plus new requests;
//! * for multi-disk experiments, each request's target disk follows a
//!   Zipf distribution of disk load (Wolf et al. report `θ = 0.271` for
//!   real video popularity).
//!
//! [`trace::generate`] turns a [`trace::WorkloadConfig`] plus a seed into
//! a reproducible [`trace::Workload`] — a time-sorted arrival list the
//! simulator replays. Keeping generation separate from simulation means
//! the *same trace* can be replayed against every scheme/method
//! combination, which is how the paper compares them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod multi;
pub mod poisson;
pub mod profile;
pub mod trace;
pub mod vcr;
pub mod zipf;

pub use catalog::Catalog;
pub use multi::{multi_movie, MultiMovieConfig};
pub use profile::RateProfile;
pub use trace::{generate, Arrival, Workload, WorkloadConfig};
pub use vcr::{with_vcr_actions, VcrConfig};
pub use zipf::Zipf;
