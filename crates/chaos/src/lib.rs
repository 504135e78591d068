//! Deterministic fault injection and failover for the VOD cluster.
//!
//! The paper's buffer-allocation machinery (BS_k tables, Assumption 1
//! admission, minimum-memory reservation) is exactly the state a video
//! server must rebuild or protect when hardware fails. This crate makes
//! that story testable: a seed- or script-driven [`FaultSchedule`]
//! injects typed faults — [`Fault::NodeCrash`], [`Fault::NodeSlow`],
//! [`Fault::MemoryPressure`], [`Fault::NodeRejoin`] — into a
//! [`vod_cluster::Cluster`] run, a [`FailoverPolicy`] decides what
//! happens to a crashed node's streams, and a [`RecoveryPolicy`] decides
//! how a rejoining node rebuilds its tables (warm shared-cache hit vs
//! cold rebuild — bit-identical tables, very different cost, which is
//! the paper's argument for precomputing BS_k offline).
//!
//! # Invariants
//!
//! * **Empty schedule = identity.** [`run_chaos`] drives the cluster
//!   through the same three steppable calls `Cluster::run` makes, so an
//!   empty schedule is the plain run by construction — byte-identical
//!   reports, not approximately equal ones.
//! * **Failover never bypasses admission.** Migrated and parked streams
//!   re-enter through the surviving nodes' own admission controllers
//!   (Assumption 1 included), so chaos runs keep the zero-underflow
//!   guarantee under arbitrary schedules (property-tested in `tests/`).
//! * **Deterministic degradation.** Every count in [`ChaosSummary`] is a
//!   pure function of `(config, trace, schedule)`; runs are
//!   byte-identical at any `--jobs`.
//!
//! Fault semantics lean on the paper's model: a disk that is `f`×
//! slower serves `N/f` streams (disk speed enters only through the
//! admission bound), so [`Fault::NodeSlow`] tightens admission capacity
//! rather than perturbing the service loop — strictly safe, never
//! underflow-inducing. [`Fault::MemoryPressure`] shrinks the memory
//! budget the reservation check admits against, for the same reason.
//! Partial faults extend the same equivalence below the node: a
//! [`Fault::DiskDegrade`] throttles one disk's share of the admission
//! bound and a [`Fault::DiskError`] maps an error rate `r` to a `1 − r`
//! capacity multiplier — deterministic, admission-only, underflow-free.
//! The runner keeps each node's factors, each fault setting only its
//! own and a rejoin resetting all of them, and hands the engine their
//! composition as its two admission limits
//! ([`vod_sim::DiskEngine::set_admission_limits`]).
//!
//! Correlated failures are modelled by a [`DomainMap`] (racks/zones
//! layered over placement) whose [`DomainEvent`]s expand into flat
//! per-node schedules before the run starts, and recovery is
//! placement-aware: a node down past [`ChaosConfig::reseed_after`]
//! triggers re-replication of its movies onto the least-loaded
//! survivors, with parked streams re-admitted through the new replicas'
//! own admission controllers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod policy;
pub mod runner;
pub mod schedule;

pub use domain::{DomainEvent, DomainFault, DomainMap};
pub use policy::{FailoverPolicy, RecoveryPolicy};
pub use runner::{run_chaos, run_chaos_on, ChaosConfig, ChaosReport, ChaosSummary};
pub use schedule::{Fault, FaultEvent, FaultSchedule, RejoinMode};
