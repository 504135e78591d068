//! The traced run: the same calls as an untraced repetition, each wrapped
//! in a benchmark-side span, reduced to per-layer metrics.
//!
//! Layers the benchmark cannot time from outside — the worst-case latency
//! memo in vod-disk, vod-sched and the engine's admission calls (all
//! inside `advance_to`), and vod-buffer (on no workload's path) — stay
//! inside `sim.advance_s` until spans inside the program exist.

use std::time::Instant as WallInstant;

use vod_chaos::{run_chaos_on, ChaosReport};
use vod_cluster::{Cluster, ClusterReport};
use vod_core::SizeTable;
use vod_obs::Obs;
use vod_sim::{CapacitySim, DiskEngine, DiskRunStats};
use vod_workload::Workload;

use crate::json::Metric;
use crate::spans::{layers, residual_frac, Layer, Span, Tracer};
use crate::stats::{median, percentile};
use crate::summary::{check_chaos, check_engine, digest_stats, Digest};
use crate::workloads::{
    capacity_configs, capacity_trace, chaos_config, cluster_trace, disk_engine_config,
    disk_observer, disk_trace, table_params, Kind, Scale,
};

/// Every per-layer metric, with its unit, in print order. A layer that a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workload.generate_s", "s"),
    ("workload.arrivals", "count"),
    ("core.table_build_s", "s"),
    ("sim.advance_s", "s"),
    ("sim.advance_us_p50", "us"),
    ("sim.advance_us_p99", "us"),
    ("sim.offer_s", "s"),
    ("sim.offer_us_p50", "us"),
    ("sim.offer_us_p99", "us"),
    ("sim.finish_s", "s"),
    ("sim.ns_per_service", "ns"),
    ("sim.services", "count"),
    ("sim.cycles", "count"),
    ("sim.services_per_cycle", "ratio"),
    ("sim.admitted_frac", "ratio"),
    ("sim.deferrals", "count"),
    ("sim.il_p50_s", "sim_s"),
    ("sim.il_p99_s", "sim_s"),
    ("sim.capacity_run_s", "s"),
    ("sim.capacity_us_per_request", "us"),
    ("obs.probe_overhead_frac", "ratio"),
    ("obs.probe_samples", "count"),
    ("obs.ns_per_probe", "ns"),
    ("cluster.dispatch_s", "s"),
    ("cluster.dispatch_us_p50", "us"),
    ("cluster.dispatch_us_p99", "us"),
    ("cluster.advance_s", "s"),
    ("cluster.finish_s", "s"),
    ("cluster.redirected_frac", "ratio"),
    ("cluster.overflow_queued", "count"),
    ("chaos.run_s", "s"),
    ("chaos.interrupted", "count"),
    ("chaos.migrated", "count"),
    ("chaos.parked", "count"),
    ("chaos.dropped", "count"),
    ("chaos.rereplications", "count"),
    ("chaos.rescued_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.residual_frac", "ratio"),
];

/// Cold `SizeTable::build` calls timed for `core.table_build_s`.
const TABLE_BUILDS: usize = 5;

/// Alternating probed / probe-free `run()` pairs behind the `obs.*`
/// metrics.
const PROBE_PAIRS: usize = 3;

/// What a traced run measured.
pub struct TraceReport {
    /// Every [`PER_LAYER`] metric, in order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts behind each percentile.
    pub notes: Vec<String>,
    /// Requests offered in the traced pass.
    pub attempted: u64,
    /// Failed output checks.
    pub violations: Vec<String>,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

/// Values keyed by [`PER_LAYER`] name; unset ones print as 0.
struct Values {
    values: Vec<f64>,
    notes: Vec<String>,
}

impl Values {
    fn new() -> Self {
        Values {
            values: vec![0.0; PER_LAYER.len()],
            notes: Vec::new(),
        }
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    fn set(&mut self, name: &str, v: f64) {
        self.values[Self::index(name)] = v;
    }

    fn get(&self, name: &str) -> f64 {
        self.values[Self::index(name)]
    }

    /// Sets `<prefix>_s` to the layer's self time and, when `pct`,
    /// `<prefix>_us_p50`/`_p99` to nearest-rank call percentiles.
    fn layer(&mut self, prefix: &str, layer: Option<&Layer>, pct: bool) {
        let Some(l) = layer else { return };
        self.set(&format!("{prefix}_s"), l.self_ns as f64 * 1e-9);
        if !pct {
            return;
        }
        let us: Vec<f64> = l.durations_ns.iter().map(|&d| d as f64 * 1e-3).collect();
        for (p, tag) in [(0.5, "p50"), (0.99, "p99")] {
            if let Some(q) = percentile(&us, p) {
                self.set(&format!("{prefix}_us_{tag}"), q.value);
                self.notes.push(format!(
                    "{prefix}_us_{tag} {} us over {} calls, {} beyond",
                    q.value,
                    q.count,
                    q.beyond()
                ));
            }
        }
    }

    fn engine_totals(&mut self, runs: &[&DiskRunStats], offered: u64) {
        let sum = |f: fn(&DiskRunStats) -> u64| runs.iter().map(|s| f(s)).sum::<u64>();
        let (services, cycles, admitted) =
            (sum(|s| s.services), sum(|s| s.cycles), sum(|s| s.admitted));
        self.set("sim.services", services as f64);
        self.set("sim.cycles", cycles as f64);
        self.set("sim.services_per_cycle", ratio(services, cycles));
        self.set("sim.admitted_frac", ratio(admitted, offered));
        self.set("sim.deferrals", sum(|s| s.deferrals) as f64);
        let il: Vec<f64> = runs
            .iter()
            .flat_map(|s| s.il_samples.iter().map(|x| x.latency.as_secs_f64()))
            .collect();
        for (p, name) in [(0.5, "sim.il_p50_s"), (0.99, "sim.il_p99_s")] {
            if let Some(q) = percentile(&il, p) {
                self.set(name, q.value);
                self.notes.push(format!(
                    "{name} {} sim_s over {} admitted requests, {} beyond",
                    q.value,
                    q.count,
                    q.beyond()
                ));
            }
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn secs(t0: WallInstant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Spans of one disk-workload pass through the steppable engine API.
fn drive_disk(kind: Kind, scale: Scale, seed: u64, tr: &mut Tracer) -> Vec<(DiskRunStats, u64)> {
    let root = tr.open(0, 0, "bench.rep");
    let mut out = Vec::new();
    let (obs, _) = disk_observer(kind);
    for (si, s) in scale.seeds(kind, seed).into_iter().enumerate() {
        let wl = tr.time(0, root.id, "workload.generate", || {
            disk_trace(kind, scale, s)
        });
        let mut engine = tr.time(0, root.id, "sim.new", || {
            DiskEngine::with_observer(disk_engine_config(kind), obs.clone())
                .expect("the paper engine config is valid")
        });
        for (i, a) in wl.arrivals.iter().enumerate() {
            // One trace per arrival.
            let trace = ((si as u64) << 32) | (i as u64 + 1);
            tr.time(trace, root.id, "sim.advance", || engine.advance_to(a.at));
            tr.time(trace, root.id, "sim.offer", || engine.offer(a));
        }
        let stats = tr.time(0, root.id, "sim.finish", || engine.finish());
        out.push((stats, wl.len() as u64));
    }
    tr.close(root);
    out
}

/// The chaos run, then a fault-free pass over the same trace through the
/// steppable cluster API.
fn drive_cluster(scale: Scale, seed: u64, tr: &mut Tracer) -> (ChaosReport, ClusterReport) {
    let root = tr.open(0, 0, "bench.rep");
    let wl = tr.time(0, root.id, "workload.generate", || {
        cluster_trace(scale, seed)
    });
    let cfg = chaos_config(scale, seed);
    let new_cluster = || {
        Cluster::with_observer(cfg.cluster.clone(), Obs::null())
            .expect("the cluster config is pinned and valid")
    };
    let cluster = tr.time(0, root.id, "cluster.new", new_cluster);
    let chaos = tr.time(0, root.id, "chaos.run", || {
        run_chaos_on(cluster, &cfg, &wl.arrivals, 1)
    });
    let mut clean = tr.time(0, root.id, "cluster.new", new_cluster);
    for (i, a) in wl.arrivals.iter().enumerate() {
        let trace = i as u64 + 1;
        tr.time(trace, root.id, "cluster.advance", || {
            clean.advance_nodes_to(a.at)
        });
        tr.time(trace, root.id, "cluster.dispatch", || clean.step_arrival(a));
    }
    let report = tr.time(0, root.id, "cluster.finish", || clean.finish_run(1));
    tr.close(root);
    (chaos, report)
}

/// Every capacity sim of the grid, built and run under spans.
fn drive_capacity(scale: Scale, seed: u64, tr: &mut Tracer) -> (u64, Vec<String>) {
    let root = tr.open(0, 0, "bench.rep");
    let cfgs = capacity_configs();
    let mut offered = 0;
    let mut violations = Vec::new();
    for s in scale.seeds(Kind::CapacityFig14, seed) {
        let wl = tr.time(0, root.id, "workload.generate", || capacity_trace(scale, s));
        for cfg in &cfgs {
            let sim = tr.time(0, root.id, "sim.capacity_new", || {
                CapacitySim::with_observer(cfg.clone(), Obs::null())
                    .expect("the Fig. 14 grid is valid")
            });
            let r = tr.time(0, root.id, "sim.capacity_run", || sim.run(&wl));
            let n = wl.len() as u64;
            if r.admitted + r.rejected != n {
                violations.push(format!(
                    "capacity seed {s}: admitted {} + rejected {} != offered {n}",
                    r.admitted, r.rejected
                ));
            }
            offered += n;
        }
    }
    tr.close(root);
    (offered, violations)
}

fn disk_digest(runs: &[(DiskRunStats, u64)]) -> u64 {
    let mut d = Digest::default();
    for (s, _) in runs {
        digest_stats(s, &mut d);
    }
    d.finish()
}

/// Runs `drive` untraced, then traced into `tr`; returns the traced
/// result and the tracing overhead.
fn twice<R>(tr: &mut Tracer, mut drive: impl FnMut(&mut Tracer) -> R) -> (R, f64) {
    let t0 = WallInstant::now();
    drop(std::hint::black_box(drive(&mut Tracer::new(false))));
    let off = secs(t0);
    let t0 = WallInstant::now();
    let out = std::hint::black_box(drive(tr));
    (out, secs(t0) / off - 1.0)
}

/// Replays the traces through `run()` and checks each replay reproduces
/// the steppable drive's digest. On `disk_rr_probed` the replays alternate
/// probed and probe-free, which prices the probes.
fn replay_disk(
    kind: Kind,
    traces: &[Workload],
    step: u64,
    v: &mut Values,
    violations: &mut Vec<String>,
) {
    let mut replay = |obs: &Obs, what: &str| {
        let t0 = WallInstant::now();
        let runs: Vec<(DiskRunStats, u64)> = traces
            .iter()
            .map(|w| {
                let e = DiskEngine::with_observer(disk_engine_config(kind), obs.clone())
                    .expect("the paper engine config is valid");
                (e.run(&w.arrivals), w.len() as u64)
            })
            .collect();
        let t = secs(t0);
        if disk_digest(&runs) != step {
            violations.push(format!("{what} run() differs from offer/advance_to/finish"));
        }
        t
    };
    if kind != Kind::DiskRrProbed {
        replay(&Obs::null(), "the");
        return;
    }
    let (mut probed, mut free, mut samples) = (Vec::new(), Vec::new(), 0);
    for _ in 0..PROBE_PAIRS {
        let (obs, registry) = disk_observer(kind);
        probed.push(replay(&obs, "the probed"));
        free.push(replay(&Obs::null(), "the probe-free"));
        if let Some(r) = registry {
            samples = r.snapshot().histograms.iter().map(|h| h.count).sum();
        }
    }
    let (p, f) = (median(&probed).unwrap_or(0.0), median(&free).unwrap_or(0.0));
    v.set("obs.probe_overhead_frac", p / f - 1.0);
    v.set("obs.probe_samples", samples as f64);
    if samples > 0 {
        v.set("obs.ns_per_probe", (p - f) * 1e9 / samples as f64);
    }
}

/// Runs the traced pass of `kind` and reduces it to per-layer metrics.
pub fn trace(kind: Kind, scale: Scale, seed: u64) -> TraceReport {
    let mut v = Values::new();
    let mut violations = Vec::new();
    let mut tr = Tracer::new(true);

    // Cold builds of the table this workload's simulators use.
    let params = table_params(kind);
    let root = tr.open(0, 0, "bench.table_builds");
    for _ in 0..TABLE_BUILDS {
        tr.time(0, root.id, "core.table_build", || {
            std::hint::black_box(SizeTable::build(&params))
        });
    }
    tr.close(root);

    let (attempted, overhead) = match kind {
        Kind::DiskSweepPeak | Kind::DiskRrProbed => {
            let (runs, overhead) = twice(&mut tr, |tr| drive_disk(kind, scale, seed, tr));
            let offered = runs.iter().map(|(_, n)| n).sum();
            let l = layers(tr.spans());
            v.layer("sim.advance", l.get("sim.advance"), true);
            v.layer("sim.offer", l.get("sim.offer"), true);
            v.layer("sim.finish", l.get("sim.finish"), false);
            let stats: Vec<&DiskRunStats> = runs.iter().map(|(s, _)| s).collect();
            v.engine_totals(&stats, offered);
            let loop_ns: u64 = ["sim.advance", "sim.offer", "sim.finish"]
                .iter()
                .filter_map(|n| l.get(n))
                .map(|x| x.self_ns)
                .sum();
            v.set("sim.ns_per_service", loop_ns as f64 / v.get("sim.services"));
            for (i, (s, n)) in runs.iter().enumerate() {
                check_engine(&format!("engine {i}"), s, *n, &mut violations);
            }
            let traces: Vec<Workload> = scale
                .seeds(kind, seed)
                .into_iter()
                .map(|s| disk_trace(kind, scale, s))
                .collect();
            replay_disk(kind, &traces, disk_digest(&runs), &mut v, &mut violations);
            (offered, overhead)
        }
        Kind::ClusterZoneFailover => {
            let ((chaos, clean), overhead) = twice(&mut tr, |tr| drive_cluster(scale, seed, tr));
            let l = layers(tr.spans());
            v.layer("cluster.dispatch", l.get("cluster.dispatch"), true);
            v.layer("cluster.advance", l.get("cluster.advance"), false);
            v.layer("cluster.finish", l.get("cluster.finish"), false);
            // The engines' advance and drain happen inside these two calls.
            v.layer("sim.advance", l.get("cluster.advance"), true);
            v.layer("sim.finish", l.get("cluster.finish"), false);
            let stats: Vec<&DiskRunStats> = clean.nodes.iter().map(|n| &n.stats).collect();
            v.engine_totals(&stats, clean.dispatched);
            let loop_ns: u64 = ["cluster.advance", "cluster.finish"]
                .iter()
                .filter_map(|n| l.get(n))
                .map(|x| x.self_ns)
                .sum();
            v.set("sim.ns_per_service", loop_ns as f64 / v.get("sim.services"));
            v.set(
                "cluster.redirected_frac",
                ratio(clean.redirected, clean.dispatched),
            );
            v.set("cluster.overflow_queued", clean.overflow_queued as f64);
            v.layer("chaos.run", l.get("chaos.run"), false);
            let s = &chaos.summary;
            v.set("chaos.interrupted", s.interrupted as f64);
            v.set("chaos.migrated", s.migrated as f64);
            v.set("chaos.parked", s.parked as f64);
            v.set("chaos.dropped", s.dropped as f64);
            v.set("chaos.rereplications", s.rereplications as f64);
            v.set(
                "chaos.rescued_frac",
                ratio(s.migrated + s.rereplicated, s.interrupted),
            );
            check_chaos(&chaos, &mut violations);
            // Without faults every node admits or rejects what it is offered.
            for n in &clean.nodes {
                check_engine(
                    &format!("node {}", n.node),
                    &n.stats,
                    n.dispatched,
                    &mut violations,
                );
            }
            (clean.dispatched, overhead)
        }
        Kind::CapacityFig14 => {
            let ((offered, bad), overhead) = twice(&mut tr, |tr| drive_capacity(scale, seed, tr));
            violations.extend(bad);
            let l = layers(tr.spans());
            v.layer("sim.capacity_run", l.get("sim.capacity_run"), false);
            v.set(
                "sim.capacity_us_per_request",
                v.get("sim.capacity_run_s") * 1e6 / offered.max(1) as f64,
            );
            (offered, overhead)
        }
    };

    let spans = tr.spans().to_vec();
    let l = layers(&spans);
    v.layer("workload.generate", l.get("workload.generate"), false);
    // Every capacity sim of a seed replays that seed's one trace.
    let arrivals = if kind == Kind::CapacityFig14 {
        attempted / capacity_configs().len() as u64
    } else {
        attempted
    };
    v.set("workload.arrivals", arrivals as f64);
    let builds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.table_build")
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    v.set("core.table_build_s", median(&builds).unwrap_or(0.0));
    v.set("bench.trace_overhead_frac", overhead);
    v.set("bench.residual_frac", residual_frac(&spans));

    TraceReport {
        metrics: PER_LAYER
            .iter()
            .zip(&v.values)
            .map(|(&(name, unit), &value)| Metric {
                name: name.to_owned(),
                value,
                unit: unit.to_owned(),
            })
            .collect(),
        notes: v.notes,
        attempted,
        violations,
        spans,
    }
}
