//! Cluster run measurements: per-node stats plus front-end accounting.

use vod_core::{memory, SystemParams};
use vod_sim::DiskRunStats;
use vod_types::Seconds;

/// One node's share of a cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Node index (fixed round order).
    pub node: usize,
    /// Arrivals the front end offered to this node.
    pub dispatched: u64,
    /// Arrivals accepted here after their primary replica refused.
    pub redirected_in: u64,
    /// Arrivals this node was primary for but had to hand off.
    pub redirected_out: u64,
    /// The node engine's full run measurements. Its `audit` scores the
    /// node's estimator against the arrivals this node actually saw
    /// (post-redirection).
    pub stats: DiskRunStats,
}

impl NodeReport {
    /// Fraction of the static worst-case reservation this node's peak
    /// buffer memory avoided: `1 − peak / min_memory_static(N_cap)`,
    /// where `N_cap` is the node's admission cap
    /// ([`SystemParams::max_requests`]). The static scheme must reserve
    /// for its cap up front; a dynamically sized node only ever holds
    /// `BS_k(n)` buffers for the streams actually present, so the
    /// saving approaches 1 on idle nodes and 0 as the node saturates.
    /// Zero when the node never served anyone.
    #[must_use]
    pub fn memory_saving_vs_static(&self, params: &SystemParams) -> f64 {
        if self.stats.max_concurrent() == 0 {
            return 0.0;
        }
        let static_need = memory::min_memory_static(params, params.max_requests()).as_f64();
        if static_need <= 0.0 {
            return 0.0;
        }
        1.0 - self.stats.peak_memory.as_f64() / static_need
    }
}

/// The cluster front end's view of a whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReport {
    /// Per-node results, indexed by node (fixed round order).
    pub nodes: Vec<NodeReport>,
    /// Arrivals dispatched (every trace entry lands exactly once).
    pub dispatched: u64,
    /// Arrivals accepted by a non-primary replica.
    pub redirected: u64,
    /// Arrivals that overflowed every replica and were parked in the
    /// cluster-wide queue before eventually landing on a node.
    pub overflow_queued: u64,
}

impl ClusterReport {
    fn sum(&self, f: impl Fn(&DiskRunStats) -> u64) -> u64 {
        self.nodes.iter().map(|n| f(&n.stats)).sum()
    }

    /// Streams admitted across the cluster.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.sum(|s| s.admitted)
    }

    /// Requests deferred by per-node Assumption-1 enforcement.
    #[must_use]
    pub fn deferrals(&self) -> u64 {
        self.sum(|s| s.deferrals)
    }

    /// Requests rejected across the cluster.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.sum(|s| s.rejected)
    }

    /// Buffer underflow events across the cluster (must stay 0 for the
    /// enforcing scheme — Assumption 1 is per node, and redirection
    /// never bypasses a node's own controller).
    #[must_use]
    pub fn underflows(&self) -> u64 {
        self.sum(|s| s.underflows)
    }

    /// Stream services across the cluster.
    #[must_use]
    pub fn services(&self) -> u64 {
        self.sum(|s| s.services)
    }

    /// Service cycles across the cluster.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.sum(|s| s.cycles)
    }

    /// Deferral rate: deferrals per dispatched arrival.
    #[must_use]
    pub fn deferral_rate(&self) -> f64 {
        if self.dispatched == 0 {
            return 0.0;
        }
        self.deferrals() as f64 / self.dispatched as f64
    }

    /// Load imbalance: the busiest node's admissions over the mean.
    /// 1.0 is perfectly balanced; ≥ N means one node took everything.
    #[must_use]
    pub fn imbalance_ratio(&self) -> f64 {
        let total = self.admitted();
        if total == 0 || self.nodes.is_empty() {
            return 1.0;
        }
        let max = self
            .nodes
            .iter()
            .map(|n| n.stats.admitted)
            .max()
            .unwrap_or(0);
        let mean = total as f64 / self.nodes.len() as f64;
        max as f64 / mean
    }

    /// Initial-latency percentile (`p ∈ 0.0..=1.0`) over all nodes'
    /// merged samples — nearest-rank, the same convention as
    /// [`DiskRunStats::latency_percentile`].
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<Seconds> {
        if !(0.0..=1.0).contains(&p) {
            return None;
        }
        let mut lat: Vec<f64> = self
            .nodes
            .iter()
            .flat_map(|n| n.stats.il_samples.iter().map(|s| s.latency.as_secs_f64()))
            .collect();
        if lat.is_empty() {
            return None;
        }
        lat.sort_by(f64::total_cmp);
        let rank = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        Some(Seconds::from_secs(lat[rank - 1]))
    }

    /// Aggregate peak buffer memory across nodes, in bits.
    #[must_use]
    pub fn peak_memory_bits(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.stats.peak_memory.as_f64())
            .sum()
    }
}
