//! The cluster front end: N independent node engines behind placement,
//! replica selection, and overflow redirection.
//!
//! # Determinism contract
//!
//! A run is a pure function of `(config, trace)`:
//!
//! * nodes are stepped in **fixed index order** before every dispatch,
//!   so inter-node event interleaving is not a source of nondeterminism;
//! * all policy decisions read node state that is itself deterministic,
//!   and `RandomOfK` draws from one seeded RNG in dispatch order;
//! * the parallel drain (`jobs > 1`, [`crate::map_indexed`]) claims nodes
//!   from an atomic counter but merges results **by node index**, so any
//!   job count produces the byte-identical report.
//!
//! With one node and [`PlacementPolicy::PassThrough`], the front end
//! reduces to `advance_to` + `offer` + `finish` on a single engine —
//! bit-identical to [`DiskEngine::run`] (pinned by a test).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vod_obs::metrics::{
    per_node, CTR_AUDIT_VIOLATIONS, CTR_CLUSTER_DISPATCHED, CTR_CLUSTER_QUEUED,
    CTR_CLUSTER_REDIRECTED, GAUGE_CLUSTER_IMBALANCE, GAUGE_CLUSTER_MEM_PEAK, GAUGE_CLUSTER_NODES,
};
use vod_obs::span::{
    mix64, AnnoValue, SpanId, SpanKind, SpanStatus, TraceId, SEQ_DISPATCH, SEQ_HOP_DISPATCH,
    SEQ_HOP_RETRY, SEQ_RETRY,
};
use vod_obs::timeseries::{cluster_series, Series, SeriesRecorder};
use vod_obs::Obs;
use vod_sim::{DiskEngine, EngineConfig, EvictedStream};
use vod_types::{ConfigError, Instant};
use vod_workload::{Arrival, Zipf};

use crate::dispatch::DispatchPolicy;
use crate::placement::{Placement, PlacementPolicy};
use crate::pool::map_indexed;
use crate::report::{ClusterReport, NodeReport};

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes. Each runs an independent [`DiskEngine`] built
    /// from `engine` (own admission controller, estimator, budget).
    pub nodes: usize,
    /// The per-node engine configuration.
    pub engine: EngineConfig,
    /// Catalog size: movies are `VideoId(0..movies)`.
    pub movies: usize,
    /// Zipf skew of catalog popularity (drives placement ranking).
    pub movie_theta: f64,
    /// Movie → replica-set policy.
    pub placement: PlacementPolicy,
    /// Replica-selection policy.
    pub dispatch: DispatchPolicy,
    /// Seed for `RandomOfK` draws (unused by deterministic policies,
    /// but part of the config so every run is seed-addressable).
    pub seed: u64,
}

/// One node: its engine plus front-end accounting.
struct Node {
    engine: DiskEngine,
    dispatched: u64,
    redirected_in: u64,
    redirected_out: u64,
    /// Front-end series handles (load, redirections), when attached.
    series: Option<NodeFrontSeries>,
    /// Chaos flag: a crashed node is excluded from every routing
    /// decision (dispatch scan, overflow retry, flush) until it
    /// rejoins. Always `false` without an active fault schedule, so the
    /// healthy path takes bit-identical branches.
    down: bool,
}

/// Per-node front-end time-series handles (the node engine's own cycle
/// series attach separately via [`DiskEngine::set_series_recorder`]).
struct NodeFrontSeries {
    load: Arc<Series>,
    redirections: Arc<Series>,
}

/// An arrival that overflowed every replica, parked cluster-wide.
struct Parked {
    arrival: Arrival,
    /// Preference order captured at dispatch time (primary first).
    candidates: Vec<usize>,
    /// The lifecycle trace minted at dispatch (observability only).
    trace: TraceId,
    /// True for failover-parked migrants (streams interrupted by a
    /// crash), false for fresh arrivals that overflowed. Re-replication
    /// accounting only counts migrants re-admitted via a rebuilt
    /// replica.
    migrant: bool,
}

/// Scope salt separating front-end-minted request traces from the
/// per-node engine scopes derived under the same cluster seed.
const CLUSTER_TRACE_SCOPE: u64 = 0x0063_6c75_7374; // "clust"

/// The cluster front end. Build with [`Cluster::new`] /
/// [`Cluster::with_observer`], then consume with [`Cluster::run`].
pub struct Cluster {
    cfg: ClusterConfig,
    placement: Placement,
    nodes: Vec<Node>,
    queue: VecDeque<Parked>,
    rng: SmallRng,
    obs: Obs,
    dispatched: u64,
    redirected: u64,
    overflow_queued: u64,
    /// Cluster-scope imbalance-ratio series, when attached.
    imbalance_series: Option<Arc<Series>>,
    /// `(video, node)` pairs added by fault-triggered re-replication
    /// ([`Self::rereplicate`]). Empty on the healthy path, so the
    /// overflow retry pays one `is_empty` check and nothing else.
    fresh_replicas: Vec<(vod_types::VideoId, usize)>,
    /// Failover-parked migrants re-admitted through a rebuilt replica's
    /// own admission controller.
    rereplicated: u64,
}

impl Cluster {
    /// Builds a detached cluster: `with_observer(cfg, Obs::null())`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters.
    pub fn new(cfg: ClusterConfig) -> Result<Self, ConfigError> {
        Self::with_observer(cfg, Obs::null())
    }

    /// Builds a cluster whose nodes all emit into `obs` (shared event
    /// sink and metrics registry; per-node counters are written under
    /// `vod_cluster_node<i>_*` names at the end of the run).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for infeasible parameters.
    pub fn with_observer(cfg: ClusterConfig, obs: Obs) -> Result<Self, ConfigError> {
        if cfg.nodes == 0 {
            return Err(ConfigError::new("cluster_nodes", "must be at least 1"));
        }
        let popularity = Zipf::new(cfg.movies, cfg.movie_theta)?;
        let placement = Placement::build(cfg.placement, popularity.probabilities(), cfg.nodes)?;
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let mut engine = DiskEngine::with_observer(cfg.engine.clone(), obs.clone())?;
            // Distinct trace scope per node: engine-scoped spans (cycle
            // spans) from different nodes never collide in the shared
            // sink. Observability only.
            engine.set_trace_scope(cfg.seed ^ mix64(i as u64));
            nodes.push(Node {
                engine,
                dispatched: 0,
                redirected_in: 0,
                redirected_out: 0,
                series: None,
                down: false,
            });
        }
        let rng = SmallRng::seed_from_u64(cfg.seed);
        Ok(Cluster {
            cfg,
            placement,
            nodes,
            queue: VecDeque::new(),
            rng,
            obs,
            dispatched: 0,
            redirected: 0,
            overflow_queued: 0,
            imbalance_series: None,
            fresh_replicas: Vec::new(),
            rereplicated: 0,
        })
    }

    /// Forwards [`vod_sim::DiskEngine::set_per_cycle_tracing`] to every
    /// node: with `false`, traced runs keep first-fill service spans but
    /// skip steady-state per-cycle ones (the cluster bench's trace mode —
    /// full per-cycle detail would swamp a bounded recorder on long
    /// horizons). Emission-only; results are identical either way.
    pub fn set_per_cycle_tracing(&mut self, on: bool) {
        for node in &mut self.nodes {
            node.engine.set_per_cycle_tracing(on);
        }
    }

    /// Attaches time-series recorders: `cluster` receives the
    /// cluster-scope imbalance-ratio series (one sample per dispatched
    /// arrival) and `nodes[i]` receives node `i`'s front-end series
    /// (offered load and cumulative redirections, one sample per offer)
    /// *plus* the node engine's five cycle-boundary series
    /// ([`vod_sim::DiskEngine::set_series_recorder`]). Observation-only,
    /// like every other recorder: results are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one recorder per node is supplied.
    pub fn set_series_recorders(
        &mut self,
        cluster: &SeriesRecorder,
        nodes: &[Arc<SeriesRecorder>],
    ) {
        assert_eq!(
            nodes.len(),
            self.nodes.len(),
            "one series recorder per node"
        );
        self.imbalance_series = Some(cluster.series(cluster_series::IMBALANCE_RATIO));
        for (node, rec) in self.nodes.iter_mut().zip(nodes) {
            node.engine.set_series_recorder(rec);
            node.series = Some(NodeFrontSeries {
                load: rec.series(cluster_series::NODE_LOAD),
                redirections: rec.series(cluster_series::NODE_REDIRECTIONS),
            });
        }
    }

    /// Books one offer to node `ni`: front-end accounting, the engine
    /// hand-off, and (when attached) the node's front-end series sample.
    fn offer_to(&mut self, ni: usize, a: &Arrival, trace: TraceId) {
        let node = &mut self.nodes[ni];
        node.dispatched += 1;
        node.engine.offer_traced(a, trace);
        if let Some(s) = &node.series {
            let t = a.at.as_secs_f64();
            s.load.push(t, node.engine.offered() as f64);
            s.redirections
                .push(t, (node.redirected_in + node.redirected_out) as f64);
        }
    }

    /// Samples the cluster-scope imbalance series (busiest node's
    /// dispatched count over the mean), if attached. One sample per
    /// front-end dispatch, indexed by dispatch count.
    fn sample_imbalance(&self, at: Instant) {
        let Some(series) = &self.imbalance_series else {
            return;
        };
        let total: u64 = self.nodes.iter().map(|n| n.dispatched).sum();
        let value = if total == 0 {
            1.0
        } else {
            let max = self.nodes.iter().map(|n| n.dispatched).max().unwrap_or(0);
            max as f64 / (total as f64 / self.nodes.len() as f64)
        };
        series.push(at.as_secs_f64(), value);
    }

    /// Runs the cluster over a time-sorted trace, draining nodes
    /// sequentially. Equivalent to `run_with_jobs(arrivals, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not time-sorted.
    #[must_use]
    pub fn run(self, arrivals: &[Arrival]) -> ClusterReport {
        self.run_with_jobs(arrivals, 1)
    }

    /// Runs the cluster over a time-sorted trace. `jobs > 1` drains the
    /// node engines on a scoped thread pool after the last arrival;
    /// results merge by node index, so the report is byte-identical at
    /// any job count.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not time-sorted.
    #[must_use]
    pub fn run_with_jobs(mut self, arrivals: &[Arrival], jobs: usize) -> ClusterReport {
        assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival trace must be time-sorted"
        );
        for a in arrivals {
            self.advance_nodes_to(a.at);
            self.step_arrival(a);
        }
        self.finish_run(jobs)
    }

    // ---------- steppable front-end API ----------
    //
    // `run_with_jobs` is literally these three calls in a loop, so an
    // external driver (the chaos runner) interleaving fault injections
    // between them reduces *exactly* to the plain run when its schedule
    // is empty — the empty-schedule identity is structural, not tested
    // into existence.

    /// Advances every node engine to `at` in fixed index order, so every
    /// routing decision reads caught-up state. Crashed nodes advance too
    /// (their empty engines just move the clock), keeping the round
    /// order identical with and without faults.
    ///
    /// Also settles each node's arrival floor: later offers carry `at` or
    /// a parked arrival's instant, and the overflow FIFO is in arrival
    /// order, so its head is the oldest instant a retry or flush can
    /// still offer. Every node gets the same floor, because
    /// re-replication can add any node to an old entry's candidates.
    pub fn advance_nodes_to(&mut self, at: Instant) {
        let floor = self.queue.front().map_or(at, |p| p.arrival.at.min(at));
        for node in &mut self.nodes {
            node.engine.advance_to(at);
            node.engine.settle_arrivals_before(floor);
        }
    }

    /// The per-arrival front-end step: overflow retry (strict FIFO),
    /// dispatch, and the imbalance sample. The caller must have advanced
    /// the nodes to `a.at` first (see [`Self::advance_nodes_to`]).
    pub fn step_arrival(&mut self, a: &Arrival) {
        self.retry_overflow_queue(a.at);
        self.dispatch(a);
        self.sample_imbalance(a.at);
    }

    /// End of trace: park nothing forever — hand stragglers to their
    /// least-loaded candidate and let that node's own admission queue
    /// own the wait — then drain every node and assemble the report.
    #[must_use]
    pub fn finish_run(mut self, jobs: usize) -> ClusterReport {
        self.flush_overflow_queue();
        self.finish(jobs)
    }

    /// Routes one arrival: straight to the owner when it has a single
    /// replica (exactly a single-node `run` would); otherwise pre-flight
    /// the policy's preference order and redirect overflow to siblings,
    /// parking cluster-wide when every replica is saturated.
    fn dispatch(&mut self, a: &Arrival) {
        self.dispatched += 1;
        // The request's cluster-wide trace: purely derived from (seed,
        // dispatch index), so the id sequence never depends on whether a
        // sink is attached. The same trace follows the request through
        // hops, parking, and the node engine's own spans.
        let trace = TraceId::derive(self.cfg.seed ^ CLUSTER_TRACE_SCOPE, self.dispatched - 1);
        let replicas = self.placement.replicas_of(a.video).to_vec();
        assert!(
            !replicas.is_empty(),
            "arrival references video {} outside the placed catalog of {} movies",
            a.video,
            self.placement.movies()
        );
        if replicas.len() == 1 {
            let ni = replicas[0];
            if self.nodes[ni].down {
                // The only replica is crashed: park until it rejoins
                // (or the end-of-trace flush / chaos drop sweep).
                self.park(a, vec![ni], trace, false);
                return;
            }
            self.trace_dispatch(a.at, trace, ni);
            self.offer_to(ni, a, trace);
            return;
        }
        let order = self.preference_order(&replicas, a.at);
        let primary = order[0];
        for (rank, &ni) in order.iter().enumerate() {
            if !self.nodes[ni].down && self.nodes[ni].engine.would_accept(a.at) {
                self.trace_dispatch(a.at, trace, ni);
                if rank > 0 {
                    self.redirected += 1;
                    self.nodes[primary].redirected_out += 1;
                    self.nodes[ni].redirected_in += 1;
                    self.trace_hop(a.at, trace, SEQ_HOP_DISPATCH, SEQ_DISPATCH, primary, ni);
                }
                self.offer_to(ni, a, trace);
                return;
            }
        }
        // Every replica would defer or reject: queue cluster-wide and
        // retry at the next dispatch instant.
        self.park(a, order, trace, false);
    }

    /// Parks one arrival cluster-wide with its candidate preference
    /// order, emitting the `Parked` dispatch span (an anomaly trigger
    /// for the flight recorder).
    fn park(&mut self, a: &Arrival, candidates: Vec<usize>, trace: TraceId, migrant: bool) {
        self.overflow_queued += 1;
        if self.obs.tracing() {
            let sp = SpanId::derive(trace, SEQ_DISPATCH);
            self.obs
                .span_start(a.at, trace, sp, None, SpanKind::Dispatch);
            self.obs.span_annotate(
                a.at,
                trace,
                sp,
                "candidates",
                AnnoValue::U64(candidates.len() as u64),
            );
            self.obs.span_end(a.at, trace, sp, SpanStatus::Parked);
        }
        self.queue.push_back(Parked {
            arrival: *a,
            candidates,
            trace,
            migrant,
        });
    }

    /// Emits the (instantaneous) dispatch span: the routing decision
    /// that sent the arrival to `node`.
    fn trace_dispatch(&self, at: Instant, trace: TraceId, node: usize) {
        if self.obs.tracing() {
            let sp = SpanId::derive(trace, SEQ_DISPATCH);
            self.obs.span_start(at, trace, sp, None, SpanKind::Dispatch);
            self.obs
                .span_annotate(at, trace, sp, "node", AnnoValue::U64(node as u64));
            self.obs.span_end(at, trace, sp, SpanStatus::Ok);
        }
    }

    /// Emits one redirection-hop span (exactly one per counted redirect,
    /// so the analyzer can reconcile hop spans against the
    /// `redirected_in`/`redirected_out` counters).
    fn trace_hop(
        &self,
        at: Instant,
        trace: TraceId,
        seq: u64,
        parent_seq: u64,
        from: usize,
        to: usize,
    ) {
        if self.obs.tracing() {
            let sp = SpanId::derive(trace, seq);
            let parent = SpanId::derive(trace, parent_seq);
            self.obs
                .span_start(at, trace, sp, Some(parent), SpanKind::Hop);
            self.obs
                .span_annotate(at, trace, sp, "from_node", AnnoValue::U64(from as u64));
            self.obs
                .span_annotate(at, trace, sp, "to_node", AnnoValue::U64(to as u64));
            self.obs.span_end(at, trace, sp, SpanStatus::Ok);
        }
    }

    /// The policy's preference order over the replica set (primary
    /// first). Pure given node state + the seeded RNG cursor.
    fn preference_order(&mut self, replicas: &[usize], now: Instant) -> Vec<usize> {
        let mut order = replicas.to_vec();
        match self.cfg.dispatch {
            DispatchPolicy::LeastLoaded => {
                order.sort_by_key(|&ni| (self.nodes[ni].engine.offered(), ni));
            }
            DispatchPolicy::MostHeadroom => {
                let mut keyed: Vec<(f64, usize)> = order
                    .iter()
                    .map(|&ni| (self.nodes[ni].engine.memory_headroom(now), ni))
                    .collect();
                keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                order.clear();
                order.extend(keyed.iter().map(|&(_, ni)| ni));
            }
            DispatchPolicy::RandomOfK { k } => {
                // Partial Fisher–Yates: the first k entries become the
                // sample, ordered least-loaded; the unsampled tail keeps
                // replica order as overflow fallbacks.
                let k = k.clamp(1, order.len());
                for i in 0..k {
                    let j = i + self.rng.gen_range(0..order.len() - i);
                    order.swap(i, j);
                }
                let (sample, _) = order.split_at_mut(k);
                sample.sort_by_key(|&ni| (self.nodes[ni].engine.offered(), ni));
            }
        }
        order
    }

    /// Retries parked arrivals at a dispatch instant, strictly FIFO: the
    /// head unblocks first or nothing does (so redirection interleavings
    /// cannot starve an older request behind a younger one).
    fn retry_overflow_queue(&mut self, now: Instant) {
        while let Some(head) = self.queue.front() {
            let Some(target) = head
                .candidates
                .iter()
                .copied()
                .find(|&ni| !self.nodes[ni].down && self.nodes[ni].engine.would_accept(now))
            else {
                return;
            };
            let head = self.queue.pop_front().expect("front exists");
            if head.migrant
                && !self.fresh_replicas.is_empty()
                && self.fresh_replicas.contains(&(head.arrival.video, target))
            {
                self.rereplicated += 1;
            }
            if self.obs.tracing() {
                let sp = SpanId::derive(head.trace, SEQ_RETRY);
                self.obs
                    .span_start(now, head.trace, sp, None, SpanKind::Dispatch);
                self.obs
                    .span_annotate(now, head.trace, sp, "node", AnnoValue::U64(target as u64));
                self.obs.span_end(now, head.trace, sp, SpanStatus::Ok);
            }
            if target != head.candidates[0] {
                self.redirected += 1;
                self.nodes[head.candidates[0]].redirected_out += 1;
                self.nodes[target].redirected_in += 1;
                self.trace_hop(
                    now,
                    head.trace,
                    SEQ_HOP_RETRY,
                    SEQ_RETRY,
                    head.candidates[0],
                    target,
                );
            }
            self.offer_to(target, &head.arrival, head.trace);
        }
    }

    /// Hands every still-parked arrival to its least-loaded candidate
    /// unconditionally (end of trace: no further retry instants exist).
    fn flush_overflow_queue(&mut self) {
        while let Some(parked) = self.queue.pop_front() {
            // Crashed candidates are skipped; the chaos runner sweeps
            // all-candidates-down entries out before finishing, and with
            // no faults the filter keeps every candidate, so the healthy
            // path is unchanged. The unfiltered fallback only guards an
            // external driver that forgot the sweep.
            let target = parked
                .candidates
                .iter()
                .copied()
                .filter(|&ni| !self.nodes[ni].down)
                .min_by_key(|&ni| (self.nodes[ni].engine.offered(), ni))
                .or_else(|| {
                    parked
                        .candidates
                        .iter()
                        .copied()
                        .min_by_key(|&ni| (self.nodes[ni].engine.offered(), ni))
                })
                .expect("replica candidates are non-empty");
            if self.obs.tracing() {
                // A flush is not a counted redirect (no hop span): the
                // cluster stops routing and hands the wait to the node's
                // own admission queue.
                let at = parked.arrival.at;
                let sp = SpanId::derive(parked.trace, SEQ_RETRY);
                self.obs
                    .span_start(at, parked.trace, sp, None, SpanKind::Dispatch);
                self.obs
                    .span_annotate(at, parked.trace, sp, "node", AnnoValue::U64(target as u64));
                self.obs
                    .span_annotate(at, parked.trace, sp, "flush", AnnoValue::U64(1));
                self.obs.span_end(at, parked.trace, sp, SpanStatus::Ok);
            }
            self.offer_to(target, &parked.arrival, parked.trace);
        }
    }

    // ---------- chaos hooks ----------
    //
    // Everything below is driven by `vod-chaos`; none of it runs (and
    // `down` never flips) without an active fault schedule.

    /// Number of nodes in the cluster.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A handle to the observer every node emits into — the chaos runner
    /// emits its fault/failover events and spans through the same sink.
    #[must_use]
    pub fn observer(&self) -> Obs {
        self.obs.clone()
    }

    /// The configured run seed (trace ids for chaos-minted failover
    /// traces derive from it under their own scope salt).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// True while node `ni` is crashed (excluded from routing).
    #[must_use]
    pub fn is_down(&self, ni: usize) -> bool {
        self.nodes[ni].down
    }

    /// The replica set placement assigned to `video` (primary first).
    #[must_use]
    pub fn replicas_of(&self, video: vod_types::VideoId) -> &[usize] {
        self.placement.replicas_of(video)
    }

    /// Total load (in-service + queued) offered to node `ni` — what a
    /// failover policy ranks siblings by.
    #[must_use]
    pub fn node_offered(&self, ni: usize) -> usize {
        self.nodes[ni].engine.offered()
    }

    /// Pre-flight for failover routing: is `ni` up *and* would it accept
    /// an arrival at `now` under its admission rules (Assumption 1
    /// included)?
    pub fn node_would_accept(&mut self, ni: usize, now: Instant) -> bool {
        !self.nodes[ni].down && self.nodes[ni].engine.would_accept(now)
    }

    /// Crashes node `ni`: evicts every active stream and queued request
    /// from its engine (see [`DiskEngine::evict_all`]) and marks it
    /// down. The caller owns what happens to the evicted streams.
    pub fn crash_node(&mut self, ni: usize) -> Vec<EvictedStream> {
        self.nodes[ni].down = true;
        self.nodes[ni].engine.evict_all()
    }

    /// Throttles node `ni`'s admission capacity and memory budget (both
    /// factors in `[0, 1]`; `1.0` = healthy). See
    /// [`DiskEngine::set_capacity_factor`] / [`DiskEngine::set_memory_factor`].
    pub fn throttle_node(&mut self, ni: usize, capacity: f64, memory: f64) {
        self.nodes[ni].engine.set_capacity_factor(capacity);
        self.nodes[ni].engine.set_memory_factor(memory);
    }

    /// Degrades one disk of node `ni` to `fraction` of its capacity
    /// share (see [`DiskEngine::set_disk_factor`]) — a partial fault:
    /// the node stays up and routable, only its admission bound shrinks
    /// by the degraded share.
    pub fn degrade_disk(&mut self, ni: usize, disk: usize, fraction: f64) {
        self.nodes[ni].engine.set_disk_factor(disk, fraction);
    }

    /// Sets node `ni`'s deterministic disk error rate (see
    /// [`DiskEngine::set_error_rate`]): a rate `r` multiplies the
    /// admission bound by `1 − r`.
    pub fn set_disk_error(&mut self, ni: usize, rate: f64) {
        self.nodes[ni].engine.set_error_rate(rate);
    }

    /// Rejoins node `ni`: marks it up and clears every throttle —
    /// whole-node and per-disk. The caller re-admits parked streams via
    /// [`Self::retry_parked`].
    pub fn rejoin_node(&mut self, ni: usize) {
        self.nodes[ni].down = false;
        self.nodes[ni].engine.clear_throttles();
    }

    /// Retries the overflow queue at `now` outside an arrival step — the
    /// re-admission pass a rejoin triggers. Strict FIFO, like every
    /// retry.
    pub fn retry_parked(&mut self, now: Instant) {
        self.retry_overflow_queue(now);
    }

    /// Offers one migrated stream to node `ni`, with the same per-node
    /// accounting as a dispatched arrival (node dispatch count, series).
    /// Does *not* advance the cluster-wide `dispatched` counter —
    /// migrants are re-placements, not new front-end arrivals.
    pub fn offer_migrant(&mut self, ni: usize, a: &Arrival, trace: TraceId) {
        self.offer_to(ni, a, trace);
    }

    /// Parks one migrated stream cluster-wide with an explicit candidate
    /// order (sibling replicas of the crashed node). It re-enters
    /// service through the normal overflow retry path.
    pub fn park_migrant(&mut self, a: &Arrival, candidates: Vec<usize>, trace: TraceId) {
        self.park(a, candidates, trace, true);
    }

    /// Re-replication hook: adds `ni` to `video`'s replica set and
    /// extends matching parked entries' candidate lists, so the rebuilt
    /// replica is reachable by the normal strict-FIFO retry — parked
    /// streams re-enter through the new replica's *own* admission
    /// controller, never around it. Returns `false` when `ni` already
    /// holds a replica (nothing to rebuild).
    pub fn rereplicate(&mut self, video: vod_types::VideoId, ni: usize) -> bool {
        if !self.placement.add_replica(video, ni) {
            return false;
        }
        self.fresh_replicas.push((video, ni));
        for p in &mut self.queue {
            if p.arrival.video == video && !p.candidates.contains(&ni) {
                p.candidates.push(ni);
            }
        }
        true
    }

    /// Failover-parked migrants re-admitted through a rebuilt replica
    /// (see [`Self::rereplicate`]); zero without re-replication.
    #[must_use]
    pub fn rereplicated_streams(&self) -> u64 {
        self.rereplicated
    }

    /// Sweeps parked entries whose every candidate is down (they cannot
    /// be flushed anywhere at end of run) and returns how many were
    /// dropped. The chaos runner calls this before [`Self::finish_run`]
    /// and accounts the drops; with no faults it is a no-op.
    pub fn drop_unplaceable_parked(&mut self) -> u64 {
        let before = self.queue.len();
        let nodes = &self.nodes;
        self.queue
            .retain(|p| p.candidates.iter().any(|&ni| !nodes[ni].down));
        (before - self.queue.len()) as u64
    }

    /// Drains every node engine and assembles the report, then writes
    /// the cluster-wide and per-node metrics into the shared registry.
    fn finish(self, jobs: usize) -> ClusterReport {
        let Cluster {
            cfg,
            nodes,
            obs,
            dispatched,
            redirected,
            overflow_queued,
            ..
        } = self;

        let mut accounted = Vec::with_capacity(nodes.len());
        let mut engines = Vec::with_capacity(nodes.len());
        for n in nodes {
            accounted.push((n.dispatched, n.redirected_in, n.redirected_out));
            engines.push(n.engine);
        }
        let stats = drain_engines(engines, jobs);

        let node_reports: Vec<NodeReport> = stats
            .into_iter()
            .zip(accounted)
            .enumerate()
            .map(
                |(i, (stats, (dispatched, redirected_in, redirected_out)))| NodeReport {
                    node: i,
                    dispatched,
                    redirected_in,
                    redirected_out,
                    stats,
                },
            )
            .collect();
        let report = ClusterReport {
            nodes: node_reports,
            dispatched,
            redirected,
            overflow_queued,
        };

        let m = obs.metrics();
        m.counter(CTR_CLUSTER_DISPATCHED).add(report.dispatched);
        m.counter(CTR_CLUSTER_REDIRECTED).add(report.redirected);
        m.counter(CTR_CLUSTER_QUEUED).add(report.overflow_queued);
        m.gauge(GAUGE_CLUSTER_NODES).set(cfg.nodes as f64);
        m.gauge(GAUGE_CLUSTER_IMBALANCE)
            .set(report.imbalance_ratio());
        m.gauge(GAUGE_CLUSTER_MEM_PEAK)
            .set(report.peak_memory_bits());
        for n in &report.nodes {
            m.counter(&per_node(n.node, "dispatched_total"))
                .add(n.dispatched);
            m.counter(&per_node(n.node, "admitted_total"))
                .add(n.stats.admitted);
            m.counter(&per_node(n.node, "deferred_total"))
                .add(n.stats.deferrals);
            m.counter(&per_node(n.node, "rejected_total"))
                .add(n.stats.rejected);
            m.counter(&per_node(n.node, "redirected_in_total"))
                .add(n.redirected_in);
            m.counter(&per_node(n.node, "redirected_out_total"))
                .add(n.redirected_out);
            m.gauge(&per_node(n.node, "mem_peak_bits"))
                .set(n.stats.peak_memory.as_f64());
        }
        m.counter(CTR_AUDIT_VIOLATIONS)
            .add(report.audit_violations());
        report
    }
}

/// Drains engines to completion, in index order on the calling thread
/// when `jobs <= 1`, otherwise on the [`map_indexed`] pool. Results are
/// collected by node index, so the output is identical at any job count.
fn drain_engines(engines: Vec<DiskEngine>, jobs: usize) -> Vec<vod_sim::DiskRunStats> {
    let work: Vec<Mutex<Option<DiskEngine>>> =
        engines.into_iter().map(|e| Mutex::new(Some(e))).collect();
    map_indexed(work.len(), jobs, |i| {
        work[i]
            .lock()
            .expect("engine slot mutex poisoned: a drain worker panicked")
            .take()
            .expect("each node index is claimed exactly once")
            .finish()
    })
}
