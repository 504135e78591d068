//! The chaos runner: interleaves a [`FaultSchedule`] with an arrival
//! trace over a live [`Cluster`], applying failover and recovery
//! policies, and accounts the degradation.
//!
//! # Determinism contract
//!
//! The runner drives the cluster through its public steppable API
//! ([`Cluster::advance_nodes_to`] / [`Cluster::step_arrival`] /
//! [`Cluster::finish_run`]) — the same three calls `Cluster::run` makes.
//! With an empty schedule the fault loop never fires, so the run *is*
//! `Cluster::run`, bit for bit, by construction. With faults, every
//! decision (eviction order, migration targets, parking) is a pure
//! function of `(config, trace, schedule)`: candidate ranking breaks
//! ties by node index and nothing consults wall-clock time or RNG state
//! beyond the cluster's own seeded draws.

use vod_cluster::{Cluster, ClusterConfig, ClusterReport};
use vod_core::SizeTable;
use vod_obs::event::{Event, EventKind};
use vod_obs::span::{AnnoValue, SpanId, SpanKind, SpanStatus, TraceId, SEQ_FAILOVER};
use vod_obs::Obs;
use vod_sim::EvictedStream;
use vod_types::{ConfigError, DiskId, Instant, Seconds, VideoId};
use vod_workload::Arrival;

use crate::policy::{FailoverPolicy, RecoveryPolicy};
use crate::schedule::{Fault, FaultSchedule, RejoinMode};

/// Scope salt separating chaos-minted failover traces from the cluster
/// front end's request traces derived under the same seed.
const CHAOS_TRACE_SCOPE: u64 = 0x0063_6861_6f73; // "chaos"

/// A full chaos run specification: the cluster under test plus the
/// schedule and policies applied to it.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The cluster under test.
    pub cluster: ClusterConfig,
    /// The faults to inject (empty = identity).
    pub schedule: FaultSchedule,
    /// What happens to a crashed node's streams.
    pub failover: FailoverPolicy,
    /// How unspecified rejoins rebuild tables.
    pub recovery: RecoveryPolicy,
    /// Re-replication horizon: when a node stays down this long, its
    /// movies are re-placed onto the least-loaded survivors (weighted by
    /// *observed* load) and parked streams get a re-admission pass
    /// through the new replicas' own admission controllers. `None`
    /// disables fault-triggered re-replication.
    pub reseed_after: Option<Seconds>,
}

/// Degradation accounting for one chaos run. All counts are exact (not
/// sampled) and deterministic.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ChaosSummary {
    /// Faults applied (crashes + slowdowns + pressures + rejoins).
    pub faults_injected: u64,
    /// Crash faults applied.
    pub crashes: u64,
    /// Slowdown faults applied.
    pub slowdowns: u64,
    /// Memory-pressure faults applied.
    pub pressures: u64,
    /// Domain-level fault events (rack/zone) the schedule was expanded
    /// from; each expanded into one per-node fault per member.
    pub domain_faults: u64,
    /// Partial per-disk degradation faults applied.
    pub disk_degradations: u64,
    /// Partial error-rate faults applied.
    pub disk_errors: u64,
    /// Streams interrupted by crashes (evicted mid-viewing or while
    /// queued; streams that had already finished viewing are excluded).
    pub interrupted: u64,
    /// Interrupted streams re-admitted on a sibling replica.
    pub migrated: u64,
    /// Interrupted streams parked in the overflow FIFO.
    pub parked: u64,
    /// Interrupted streams dropped at failover time (no live replica,
    /// or [`FailoverPolicy::Drop`]).
    pub dropped: u64,
    /// Parked entries — interrupted streams *or* fresh arrivals that
    /// parked against a fully-down candidate set — still unplaceable at
    /// end of run and swept instead of flushed to a dead node.
    pub unplaceable: u64,
    /// Rejoin faults applied.
    pub recoveries: u64,
    /// Rejoins that rebuilt tables from scratch (cold).
    pub cold_rebuilds: u64,
    /// Movies re-placed onto surviving nodes by fault-triggered
    /// re-replication (nodes down past `reseed_after`).
    pub rereplications: u64,
    /// Failover-parked streams re-admitted through a rebuilt replica's
    /// own admission controller (a subset of `parked`).
    pub rereplicated: u64,
    /// Mean seconds from a node going down to its rejoin; `None` when no
    /// downed node rejoined.
    pub mean_time_to_recover_s: Option<f64>,
    /// Node-seconds lost to downtime, summed over nodes.
    pub downtime_node_s: f64,
    /// `1 − downtime / (nodes × horizon)`: the fraction of node-time the
    /// cluster had available. `1.0` for an empty schedule.
    pub availability: f64,
}

/// Result of a chaos run: the cluster's own report (identical shape to
/// a fault-free run, so every existing comparer works) plus the chaos
/// accounting layered on top.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosReport {
    /// The underlying cluster report.
    pub cluster: ClusterReport,
    /// Fault/failover accounting.
    pub summary: ChaosSummary,
}

/// Builds the cluster from `cfg` and runs the schedule over `arrivals`.
///
/// # Errors
///
/// Returns [`ConfigError`] for infeasible cluster parameters or a
/// schedule referencing a node or disk the cluster does not have.
pub fn run_chaos(
    cfg: &ChaosConfig,
    arrivals: &[Arrival],
    jobs: usize,
    obs: Obs,
) -> Result<ChaosReport, ConfigError> {
    if let Some(max) = cfg.schedule.max_node() {
        if max >= cfg.cluster.nodes {
            return Err(ConfigError::new(
                "chaos_schedule",
                format!(
                    "schedule targets node {max} but the cluster has {} nodes",
                    cfg.cluster.nodes
                ),
            ));
        }
    }
    if let Some(max) = cfg.schedule.max_disk() {
        if max >= cfg.cluster.engine.disks {
            return Err(ConfigError::new(
                "chaos_schedule",
                format!(
                    "schedule degrades disk {max} but each node has {} disk(s)",
                    cfg.cluster.engine.disks
                ),
            ));
        }
    }
    let cluster = Cluster::with_observer(cfg.cluster.clone(), obs)?;
    Ok(run_chaos_on(cluster, cfg, arrivals, jobs))
}

/// Runs the schedule over an already-built cluster (the bench layer
/// builds its own to attach tracing and series recorders first).
///
/// # Panics
///
/// Panics if the arrival trace is not time-sorted (same contract as
/// [`Cluster::run`]), if the schedule targets a node outside the
/// cluster or a disk outside `cfg.cluster.engine.disks`, or if a
/// re-replication pass meets more `cfg.cluster.movies` than a `VideoId`
/// can name ([`run_chaos`] refuses all three with an error instead).
#[must_use]
pub fn run_chaos_on(
    mut cluster: Cluster,
    cfg: &ChaosConfig,
    arrivals: &[Arrival],
    jobs: usize,
) -> ChaosReport {
    assert!(
        arrivals.windows(2).all(|w| w[0].at <= w[1].at),
        "arrival trace must be time-sorted"
    );
    let mut st = ChaosState::new(&mut cluster, cfg);
    let mut faults = cfg.schedule.events().iter().peekable();
    for a in arrivals {
        // Faults due at or before this arrival fire first, each at its
        // own instant, so eviction and failover happen on caught-up
        // engines before the arrival is dispatched. The re-replication
        // check runs at every event instant (fault or arrival) — time
        // only advances at events, so that is the finest deterministic
        // granularity the horizon can be observed at.
        while let Some(&&f) = faults.peek() {
            if f.at > a.at {
                break;
            }
            cluster.advance_nodes_to(f.at);
            st.maybe_reseed(&mut cluster, f.at);
            st.apply(&mut cluster, f);
            faults.next();
        }
        cluster.advance_nodes_to(a.at);
        st.maybe_reseed(&mut cluster, a.at);
        cluster.step_arrival(a);
        st.horizon = a.at;
    }
    // Trailing faults (after the last arrival) still apply: a late
    // rejoin must get its re-admission pass before the overflow flush.
    for f in faults {
        cluster.advance_nodes_to(f.at);
        st.maybe_reseed(&mut cluster, f.at);
        st.apply(&mut cluster, *f);
    }
    // Parked entries whose every candidate is still down cannot flush
    // anywhere; account them as dropped rather than letting the flush
    // fall back to a dead node.
    st.dropped_sweep(&mut cluster);
    let summary = st.finish(&cluster);
    let cluster_report = cluster.finish_run(jobs);
    ChaosReport {
        cluster: cluster_report,
        summary,
    }
}

/// Mutable accounting threaded through one run.
struct ChaosState<'a> {
    cfg: &'a ChaosConfig,
    obs: Obs,
    seed: u64,
    summary: ChaosSummary,
    /// When each currently-down node went down.
    down_since: Vec<Option<Instant>>,
    /// Closed down-intervals' durations (seconds).
    ttr: Vec<f64>,
    /// Latest simulated instant seen (arrival or fault).
    horizon: Instant,
    /// Migration counter — the index salt for failover trace ids.
    migrations: u64,
    /// Nodes whose hot set was already re-replicated this down-interval
    /// (reset on rejoin, so a later crash can trigger a fresh rebuild).
    reseeded: Vec<bool>,
    /// Each node's active fault factors.
    factors: Vec<NodeFactors>,
}

/// One node's fault factors. Each fault sets only its own
/// factor; a rejoin resets them all. The engine sees their composition
/// as two admission limits (see [`NodeFactors::capacity`]).
#[derive(Clone, Debug)]
struct NodeFactors {
    /// [`Fault::NodeSlow`]: the fraction `1/factor` of the disk bound
    /// the node keeps (`1.0` = healthy).
    slow: f64,
    /// [`Fault::MemoryPressure`]: the fraction `1 − fraction` of the
    /// memory budget the node keeps (`1.0` = healthy).
    memory: f64,
    /// [`Fault::DiskDegrade`]: per disk, the fraction of its `1/d` share
    /// of the disk bound it keeps (`1.0` = healthy).
    disks: Vec<f64>,
    /// [`Fault::DiskError`]: the fraction of service the node's disks
    /// waste on failed requests (`0.0` = healthy).
    error: f64,
}

impl NodeFactors {
    fn healthy(disks: usize) -> Self {
        Self {
            slow: 1.0,
            memory: 1.0,
            disks: vec![1.0; disks],
            error: 0.0,
        }
    }

    /// The capacity limit `slow × (1 − error) × (Σ disks / d)`: a slower
    /// disk is a smaller `N`, and an error rate `r` wastes `r` of the
    /// service budget. Healthy factors give exactly `1.0`.
    fn capacity(&self) -> f64 {
        let mean_disk = self.disks.iter().sum::<f64>() / self.disks.len() as f64;
        self.slow * (1.0 - self.error) * mean_disk
    }
}

impl<'a> ChaosState<'a> {
    fn new(cluster: &mut Cluster, cfg: &'a ChaosConfig) -> Self {
        Self {
            cfg,
            obs: cluster.observer(),
            seed: cluster.seed(),
            summary: ChaosSummary {
                availability: 1.0,
                domain_faults: cfg.schedule.domain_event_count(),
                ..ChaosSummary::default()
            },
            down_since: vec![None; cluster.node_count()],
            ttr: Vec::new(),
            horizon: Instant::ZERO,
            migrations: 0,
            reseeded: vec![false; cluster.node_count()],
            factors: vec![NodeFactors::healthy(cfg.cluster.engine.disks); cluster.node_count()],
        }
    }

    fn apply(&mut self, cluster: &mut Cluster, f: crate::schedule::FaultEvent) {
        assert!(
            f.node < cluster.node_count(),
            "fault targets node {} outside the {}-node cluster",
            f.node,
            cluster.node_count()
        );
        self.horizon = self.horizon.max(f.at);
        self.summary.faults_injected += 1;
        self.obs
            .emit_with(EventKind::FaultInjected, || Event::FaultInjected {
                at: f.at,
                node: f.node,
                fault: f.fault.label(),
            });
        match f.fault {
            Fault::NodeCrash => {
                self.summary.crashes += 1;
                if self.down_since[f.node].is_none() {
                    self.down_since[f.node] = Some(f.at);
                }
                let evicted = cluster.crash_node(f.node);
                self.fail_over(cluster, f.at, f.node, evicted);
            }
            Fault::NodeSlow { factor } => {
                self.summary.slowdowns += 1;
                self.factors[f.node].slow = 1.0 / factor.max(1.0);
                self.limit(cluster, f.node);
            }
            Fault::MemoryPressure { fraction } => {
                self.summary.pressures += 1;
                self.factors[f.node].memory = 1.0 - fraction.clamp(0.0, 1.0);
                self.limit(cluster, f.node);
            }
            Fault::NodeRejoin { mode } => {
                self.rejoin(cluster, f.at, f.node, mode);
            }
            Fault::DiskDegrade { disk, factor } => {
                self.summary.disk_degradations += 1;
                let disks = &mut self.factors[f.node].disks;
                assert!(
                    disk < disks.len(),
                    "fault degrades disk {disk} but each node has {} disk(s)",
                    disks.len()
                );
                // A disk `factor`× slower keeps `1/factor` of its share
                // — the same equivalence NodeSlow uses, scoped to one
                // disk.
                disks[disk] = 1.0 / factor.max(1.0);
                self.limit(cluster, f.node);
            }
            Fault::DiskError { rate } => {
                self.summary.disk_errors += 1;
                self.factors[f.node].error = rate.clamp(0.0, 1.0);
                self.limit(cluster, f.node);
            }
        }
    }

    /// Hands node `node`'s composed factors to its engine as the two
    /// admission limits.
    fn limit(&self, cluster: &mut Cluster, node: usize) {
        let f = &self.factors[node];
        cluster.throttle_node(node, f.capacity(), f.memory);
    }

    /// Fault-triggered re-replication: any node down for at least
    /// `reseed_after` gets its movies re-placed onto surviving nodes,
    /// once per down-interval. Target choice ranks survivors by
    /// *observed* load (offered streams plus replicas assigned earlier
    /// in this same pass, so one idle node does not absorb the whole hot
    /// set), node index as the tie-break — pure given cluster state.
    /// Parked streams are then re-admitted through the normal
    /// strict-FIFO retry, i.e. through the new replicas' own admission
    /// controllers — Assumption 1 is never bypassed.
    fn maybe_reseed(&mut self, cluster: &mut Cluster, now: Instant) {
        let Some(after) = self.cfg.reseed_after else {
            return;
        };
        for node in 0..cluster.node_count() {
            if self.reseeded[node] {
                continue;
            }
            let Some(since) = self.down_since[node] else {
                continue;
            };
            if (now - since).as_secs_f64() < after.as_secs_f64() {
                continue;
            }
            self.reseed(cluster, now, node);
        }
    }

    /// Rebuilds the replica map for one downed node's movie set.
    fn reseed(&mut self, cluster: &mut Cluster, at: Instant, node: usize) {
        self.reseeded[node] = true;
        let nodes = cluster.node_count();
        let mut assigned = vec![0usize; nodes];
        let mut moved = 0usize;
        for m in 0..self.cfg.cluster.movies {
            let video = VideoId::try_from_index(m, "cluster_movies")
                .expect("Cluster::with_observer refuses movies a VideoId cannot name");
            if !cluster.replicas_of(video).contains(&node) {
                continue;
            }
            let target = (0..nodes)
                .filter(|&ni| !cluster.is_down(ni))
                .filter(|&ni| !cluster.replicas_of(video).contains(&ni))
                .min_by_key(|&ni| (cluster.node_offered(ni) + assigned[ni], ni));
            let Some(target) = target else {
                // Every survivor already holds a replica (or none
                // survive) — nothing to rebuild for this movie.
                continue;
            };
            if cluster.rereplicate(video, target) {
                assigned[target] += 1;
                moved += 1;
            }
        }
        if moved == 0 {
            return;
        }
        self.summary.rereplications += moved as u64;
        self.obs
            .emit_with(EventKind::ReplicaRebuilt, || Event::ReplicaRebuilt {
                at,
                node,
                movies: moved,
            });
        // Re-admission pass: parked streams whose candidate lists just
        // grew a rebuilt replica get their strict-FIFO retry now.
        cluster.retry_parked(at);
    }

    /// Applies the failover policy to one crash's evicted streams.
    fn fail_over(
        &mut self,
        cluster: &mut Cluster,
        at: Instant,
        from: usize,
        evicted: Vec<EvictedStream>,
    ) {
        for ev in evicted {
            // A stream that had finished viewing was only waiting for
            // its departure bookkeeping — nothing to fail over.
            if ev.viewing_left.as_secs_f64() <= 1e-9 {
                continue;
            }
            self.summary.interrupted += 1;
            // Mint a fresh trace for the re-placement: the original
            // trace's root span already ended `Refused` at eviction, and
            // span ids are (trace, seq)-derived, so reusing it would
            // collide. The failover span links back via `orig_trace`.
            let trace = TraceId::derive(self.seed ^ CHAOS_TRACE_SCOPE, self.migrations);
            self.migrations += 1;
            let arrival = Arrival {
                at,
                disk: DiskId::new(0),
                video: ev.video,
                viewing: ev.viewing_left,
            };
            // Sibling replicas, crashed node excluded, least-loaded
            // first with node index as the tie-break — pure given node
            // state.
            let mut candidates: Vec<usize> = cluster
                .replicas_of(ev.video)
                .iter()
                .copied()
                .filter(|&ni| ni != from)
                .collect();
            candidates.sort_by_key(|&ni| (cluster.node_offered(ni), ni));
            let outcome = match self.cfg.failover {
                FailoverPolicy::Drop => Outcome::Dropped("policy_drop"),
                _ if candidates.is_empty() => Outcome::Dropped("no_replica"),
                FailoverPolicy::Park => Outcome::Parked,
                FailoverPolicy::Migrate => candidates
                    .iter()
                    .copied()
                    .find(|&ni| cluster.node_would_accept(ni, at))
                    .map_or(Outcome::Parked, Outcome::Migrated),
            };
            self.trace_failover(at, trace, ev.trace, from, outcome);
            match outcome {
                Outcome::Migrated(to) => {
                    self.summary.migrated += 1;
                    cluster.offer_migrant(to, &arrival, trace);
                }
                Outcome::Parked => {
                    self.summary.parked += 1;
                    cluster.park_migrant(&arrival, candidates, trace);
                }
                Outcome::Dropped(_) => {
                    self.summary.dropped += 1;
                }
            }
        }
    }

    /// Emits the failover span: one per interrupted stream, annotated
    /// with where it came from, where it went, and why.
    fn trace_failover(
        &self,
        at: Instant,
        trace: TraceId,
        orig: TraceId,
        from: usize,
        outcome: Outcome,
    ) {
        if !self.obs.tracing() {
            return;
        }
        let sp = SpanId::derive(trace, SEQ_FAILOVER);
        self.obs.span_start(at, trace, sp, None, SpanKind::Failover);
        self.obs
            .span_annotate(at, trace, sp, "from_node", AnnoValue::U64(from as u64));
        self.obs
            .span_annotate(at, trace, sp, "orig_trace", AnnoValue::Trace(orig));
        let status = match outcome {
            Outcome::Migrated(to) => {
                self.obs
                    .span_annotate(at, trace, sp, "to_node", AnnoValue::U64(to as u64));
                self.obs
                    .span_annotate(at, trace, sp, "reason", AnnoValue::Str("migrated"));
                SpanStatus::Ok
            }
            Outcome::Parked => {
                self.obs
                    .span_annotate(at, trace, sp, "reason", AnnoValue::Str("parked"));
                SpanStatus::Parked
            }
            Outcome::Dropped(why) => {
                self.obs
                    .span_annotate(at, trace, sp, "reason", AnnoValue::Str(why));
                SpanStatus::Refused
            }
        };
        self.obs.span_end(at, trace, sp, status);
    }

    fn rejoin(
        &mut self,
        cluster: &mut Cluster,
        at: Instant,
        node: usize,
        mode: Option<RejoinMode>,
    ) {
        let mode = mode.unwrap_or_else(|| self.cfg.recovery.rejoin_mode());
        // The table work is real (timed under `PHASE_TABLE_BUILD`), but
        // the rebuilt table is not swapped into the engine: `SizeTable`
        // is a pure function of the system parameters, so warm and cold
        // rejoins produce bit-identical tables — only the recovery cost
        // differs, which is the paper's argument for precomputing BS_k.
        match mode {
            RejoinMode::Warm => {
                let _ = SizeTable::shared_instrumented(
                    &self.cfg.cluster.engine.params,
                    self.obs.metrics(),
                );
            }
            RejoinMode::Cold => {
                self.summary.cold_rebuilds += 1;
                let _ = SizeTable::build_instrumented(
                    &self.cfg.cluster.engine.params,
                    self.obs.metrics(),
                );
            }
        }
        if let Some(since) = self.down_since[node].take() {
            self.ttr.push((at - since).as_secs_f64());
        }
        self.reseeded[node] = false;
        self.factors[node] = NodeFactors::healthy(self.cfg.cluster.engine.disks);
        self.limit(cluster, node);
        cluster.rejoin_node(node);
        // Re-admission pass: parked requests whose candidates include
        // this node get their strict-FIFO retry now.
        cluster.retry_parked(at);
        self.summary.recoveries += 1;
        self.obs
            .emit_with(EventKind::NodeRecovered, || Event::NodeRecovered {
                at,
                node,
                warm: mode == RejoinMode::Warm,
            });
    }

    fn dropped_sweep(&mut self, cluster: &mut Cluster) {
        let swept = cluster.drop_unplaceable_parked();
        if swept > 0 {
            self.summary.unplaceable += swept;
        }
    }

    fn finish(mut self, cluster: &Cluster) -> ChaosSummary {
        self.summary.rereplicated = cluster.rereplicated_streams();
        let end = self.horizon;
        // Close never-rejoined down-intervals at the horizon.
        let mut downtime: f64 = self.ttr.iter().sum();
        for since in self.down_since.iter().flatten() {
            downtime += (end.max(*since) - *since).as_secs_f64();
        }
        self.summary.downtime_node_s = downtime;
        let span = end.as_secs_f64() * cluster.node_count() as f64;
        self.summary.availability = if span > 0.0 {
            (1.0 - downtime / span).clamp(0.0, 1.0)
        } else {
            1.0
        };
        self.summary.mean_time_to_recover_s = if self.ttr.is_empty() {
            None
        } else {
            Some(self.ttr.iter().sum::<f64>() / self.ttr.len() as f64)
        };
        self.summary
    }
}

/// Where one interrupted stream ended up.
#[derive(Clone, Copy)]
enum Outcome {
    Migrated(usize),
    Parked,
    Dropped(&'static str),
}
