//! A sharded multi-node VOD cluster over per-node dynamic buffer
//! allocation.
//!
//! The paper sizes buffers and admits streams for a *single* server;
//! this crate composes N of those servers — each a full
//! [`vod_sim::DiskEngine`] with its own admission controller, `k_log`
//! estimator, and memory budget — behind a front end that owns three
//! concerns the paper leaves to "the system":
//!
//! 1. **Catalog placement** ([`placement`]): which nodes hold each
//!    movie — round-robin, Zipf-aware serpentine striping, or a
//!    replicated hot set with a configurable replication factor.
//! 2. **Replica selection** ([`dispatch`]): which holding node an
//!    arrival is routed to — least-loaded, most-memory-headroom (priced
//!    by the node's own `BS_k(n)` table), or random-of-k.
//! 3. **Overflow redirection** ([`cluster`]): when the chosen node's
//!    admission controller would defer (Assumption-1 enforcement), the
//!    dispatcher retries sibling replicas before parking the request in
//!    a cluster-wide FIFO, and accounts redirections per node.
//!
//! Runs are deterministic: nodes step in fixed index order, policy
//! randomness comes from one seeded RNG, and the parallel drain merges
//! by node index — byte-identical at any job count. A 1-node
//! pass-through cluster is bit-identical to a bare engine `run`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod dispatch;
pub mod placement;
pub mod pool;
pub mod report;

pub use cluster::{Cluster, ClusterConfig};
pub use dispatch::DispatchPolicy;
pub use placement::{Placement, PlacementPolicy};
pub use pool::map_indexed;
pub use report::{ClusterReport, NodeReport};
