//! Catalog placement: which nodes hold a replica of each movie.
//!
//! Placement is computed once, up front, from the catalog's popularity
//! distribution — the cluster analogue of laying videos out on disks
//! before opening the doors. Every policy is a pure function of
//! `(policy, popularity, nodes)`, so placement never perturbs run
//! determinism.

use vod_types::{ConfigError, VideoId};

/// How movies are assigned to nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Every movie on node 0 only. With one node this makes the cluster
    /// a transparent wrapper around a single [`vod_sim::DiskEngine`]
    /// (the bit-identity baseline); with more it deliberately degrades.
    PassThrough,
    /// Movie rank `r` on node `r mod N`: popularity-oblivious striping.
    RoundRobin,
    /// Zipf-aware popularity striping: ranks are dealt in serpentine
    /// (boustrophedon) order — `0,1,…,N−1, N−1,…,1,0, …` — so every node
    /// receives one movie from each popularity band and expected load
    /// balances even under a skewed catalog.
    ZipfStripe,
    /// The `hot_movies` most popular ranks get `replicas` copies on
    /// consecutive nodes (rotating start), enabling overflow
    /// redirection for exactly the titles that saturate a node; the
    /// cold tail falls back to serpentine striping.
    ReplicatedHot {
        /// Copies of each hot movie (≥ 2 to enable redirection).
        replicas: usize,
        /// How many top ranks count as hot.
        hot_movies: usize,
    },
}

impl PlacementPolicy {
    /// Stable label used in bench cells and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::PassThrough => "pass_through",
            PlacementPolicy::RoundRobin => "round_robin",
            PlacementPolicy::ZipfStripe => "zipf_stripe",
            PlacementPolicy::ReplicatedHot { .. } => "replicated_hot",
        }
    }
}

/// The materialized movie → replica-set map.
#[derive(Clone, Debug)]
pub struct Placement {
    /// `replicas[movie]` lists the holding nodes, preference order first.
    replicas: Vec<Vec<usize>>,
}

/// The node holding serpentine-striped rank `rank` among `nodes`.
fn serpentine(rank: usize, nodes: usize) -> usize {
    let pass = rank / nodes;
    let off = rank % nodes;
    if pass.is_multiple_of(2) {
        off
    } else {
        nodes - 1 - off
    }
}

impl Placement {
    /// Builds the placement for `movies` ranks over `nodes` nodes.
    /// `popularity[i]` is the arrival probability of `VideoId(i)`; ranks
    /// are popularity order (descending, index-stable on ties), so the
    /// map is independent of the caller's catalog ordering.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `nodes` or `movies` is zero, or a
    /// replication factor exceeds the node count.
    pub fn build(
        policy: PlacementPolicy,
        popularity: &[f64],
        nodes: usize,
    ) -> Result<Self, ConfigError> {
        if nodes == 0 {
            return Err(ConfigError::new("cluster_nodes", "must be at least 1"));
        }
        if popularity.is_empty() {
            return Err(ConfigError::new(
                "cluster_movies",
                "catalog must be non-empty",
            ));
        }
        if let PlacementPolicy::ReplicatedHot { replicas, .. } = policy {
            if replicas == 0 {
                return Err(ConfigError::new("replication_factor", "must be at least 1"));
            }
            if replicas > nodes {
                return Err(ConfigError::new(
                    "replication_factor",
                    format!("{replicas} replicas exceed {nodes} nodes"),
                ));
            }
        }
        // Popularity rank of each movie: 0 = most popular.
        let mut by_pop: Vec<usize> = (0..popularity.len()).collect();
        by_pop.sort_by(|&a, &b| popularity[b].total_cmp(&popularity[a]).then(a.cmp(&b)));

        let mut replicas = vec![Vec::new(); popularity.len()];
        for (rank, &movie) in by_pop.iter().enumerate() {
            replicas[movie] = match policy {
                PlacementPolicy::PassThrough => vec![0],
                PlacementPolicy::RoundRobin => vec![rank % nodes],
                PlacementPolicy::ZipfStripe => vec![serpentine(rank, nodes)],
                PlacementPolicy::ReplicatedHot {
                    replicas: factor,
                    hot_movies,
                } => {
                    if rank < hot_movies {
                        // Consecutive nodes from a rotating start, so hot
                        // replica sets overlap instead of piling up.
                        (0..factor).map(|j| (rank + j) % nodes).collect()
                    } else {
                        vec![serpentine(rank, nodes)]
                    }
                }
            };
        }
        Ok(Placement { replicas })
    }

    /// The nodes holding `video`, primary first. Unknown videos map to
    /// the empty slice (the dispatcher rejects them).
    #[must_use]
    pub fn replicas_of(&self, video: VideoId) -> &[usize] {
        self.replicas.get(video.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of movies placed.
    #[must_use]
    pub fn movies(&self) -> usize {
        self.replicas.len()
    }

    /// Grows `video`'s replica set by `node` (appended last, so existing
    /// preference order is undisturbed). Returns `false` — and leaves the
    /// map untouched — when the video is unknown or the node already
    /// holds a replica. This is the re-replication hook: fault recovery
    /// re-places a downed node's movies onto survivors.
    pub fn add_replica(&mut self, video: VideoId, node: usize) -> bool {
        let Some(set) = self.replicas.get_mut(video.index()) else {
            return false;
        };
        if set.contains(&node) {
            return false;
        }
        set.push(node);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(m: usize) -> Vec<f64> {
        vec![1.0 / m as f64; m]
    }

    fn zipfish(m: usize) -> Vec<f64> {
        (1..=m).map(|r| 1.0 / r as f64).collect()
    }

    #[test]
    fn pass_through_pins_everything_to_node_zero() {
        let p = Placement::build(PlacementPolicy::PassThrough, &uniform(7), 4).expect("valid");
        for m in 0..7 {
            assert_eq!(p.replicas_of(VideoId::new(m)), &[0]);
        }
    }

    #[test]
    fn round_robin_covers_all_nodes() {
        let p = Placement::build(PlacementPolicy::RoundRobin, &zipfish(8), 4).expect("valid");
        let mut seen = [false; 4];
        for m in 0..8 {
            let r = p.replicas_of(VideoId::new(m));
            assert_eq!(r.len(), 1);
            seen[r[0]] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_stripe_serpentine_balances_adjacent_ranks() {
        // Ranks 0..4 forward, 4..8 backward over 4 nodes: node 3 gets
        // ranks 3 and 4, not 3 and 7.
        let p = Placement::build(PlacementPolicy::ZipfStripe, &zipfish(8), 4).expect("valid");
        assert_eq!(p.replicas_of(VideoId::new(3)), &[3]);
        assert_eq!(p.replicas_of(VideoId::new(4)), &[3]);
        assert_eq!(p.replicas_of(VideoId::new(7)), &[0]);
    }

    #[test]
    fn replicated_hot_gives_head_multiple_distinct_replicas() {
        let policy = PlacementPolicy::ReplicatedHot {
            replicas: 3,
            hot_movies: 2,
        };
        let p = Placement::build(policy, &zipfish(10), 4).expect("valid");
        for m in 0..2 {
            let r = p.replicas_of(VideoId::new(m));
            assert_eq!(r.len(), 3, "hot movie {m}");
            let mut uniq = r.to_vec();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct nodes");
        }
        assert_eq!(p.replicas_of(VideoId::new(9)).len(), 1, "cold tail");
    }

    #[test]
    fn add_replica_appends_without_disturbing_preference_order() {
        let policy = PlacementPolicy::ReplicatedHot {
            replicas: 2,
            hot_movies: 2,
        };
        let mut p = Placement::build(policy, &zipfish(6), 4).expect("valid");
        let before = p.replicas_of(VideoId::new(0)).to_vec();
        assert!(p.add_replica(VideoId::new(0), 3));
        let after = p.replicas_of(VideoId::new(0));
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(*after.last().expect("non-empty"), 3);
        // Idempotent: a node already holding a replica is refused.
        assert!(!p.add_replica(VideoId::new(0), 3));
        // Unknown videos are refused, not panicked on.
        assert!(!p.add_replica(VideoId::new(99), 1));
    }

    #[test]
    fn replication_factor_cannot_exceed_nodes() {
        let policy = PlacementPolicy::ReplicatedHot {
            replicas: 5,
            hot_movies: 1,
        };
        assert!(Placement::build(policy, &uniform(3), 4).is_err());
    }
}
