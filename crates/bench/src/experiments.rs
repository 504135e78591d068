//! One function per reproduced table/figure.
//!
//! Analytic experiments (Figs. 9, 10, 12, 13 and Table 3) evaluate the
//! closed forms; simulated ones (Figs. 6, 7, 8, 11, 14 and Tables 4, 5)
//! replay generated workloads through `vod-sim`. Every function returns
//! rendered [`Table`]s; the `repro` binary prints them and mirrors them to
//! CSV under `results/`.
//!
//! Simulated experiments take an [`Obs`] handle and attach it to every
//! engine/capacity run they perform (all seeds and schemes of that
//! experiment share the handle, so a `RecorderSink` behind it aggregates
//! the whole experiment). Pass [`Obs::null`] when no instrumentation is
//! wanted — attaching a sink never changes the tables.

use vod_analysis::table::fmt_f64;
use vod_analysis::{
    fig10_worst_latency, fig12_min_memory, fig13_capacity, fig9_buffer_sizes, Table,
};
use vod_core::{SchemeKind, SystemParams};
use vod_obs::Obs;
use vod_sched::SchedulingMethod;
use vod_sim::engine::EngineConfig;
use vod_sim::{
    run_latency_experiment_observed, CapacityConfig, CapacitySim, DiskRunStats, LatencyExperiment,
};
use vod_types::{Bits, Instant, Seconds};
use vod_workload::{generate, WorkloadConfig};

use crate::scale::Scale;

const THETAS: [f64; 3] = [0.0, 0.5, 1.0];

/// Table 3: the disk profile and the derived `N`.
#[must_use]
pub fn tab3() -> Vec<Table> {
    let p = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let d = &p.disk;
    let mut t = Table::new(
        "Table 3 — Seagate Barracuda 9LP specification (paper values)",
        &["parameter", "value"],
    );
    t.row(&[
        "Disk capacity".into(),
        format!("{:.2} GB", d.capacity.as_gigabytes()),
    ]);
    t.row(&[
        "Min transfer rate TR".into(),
        format!("{}", d.transfer_rate),
    ]);
    t.row(&["RPM".into(), d.rpm.to_string()]);
    t.row(&[
        "Max rotational latency".into(),
        format!("{:.2} ms", d.seek.max_rotational_delay.as_millis()),
    ]);
    t.row(&["mu1".into(), format!("{:.2} ms", d.seek.mu1.as_millis())]);
    t.row(&["nu1".into(), format!("{:.2} ms", d.seek.nu1.as_millis())]);
    t.row(&["mu2".into(), format!("{:.2} ms", d.seek.mu2.as_millis())]);
    t.row(&["nu2".into(), format!("{:.4} ms", d.seek.nu2.as_millis())]);
    t.row(&["Cylinders (substituted)".into(), d.cylinders.to_string()]);
    t.row(&["N (derived, Eq. 1)".into(), p.max_requests().to_string()]);
    vec![t]
}

fn series_table(
    title: String,
    unit: &str,
    series: &vod_analysis::SchemeSeries,
    scale_by: f64,
) -> Table {
    let mut t = Table::new(
        title,
        &["n", &format!("static_{unit}"), &format!("dynamic_{unit}")],
    );
    for &(n, st, dy) in &series.points {
        t.row(&[
            n.to_string(),
            fmt_f64(st * scale_by),
            fmt_f64(dy * scale_by),
        ]);
    }
    t
}

/// Fig. 9: buffer size vs. streams in service (analysis).
#[must_use]
pub fn fig9() -> Vec<Table> {
    SchedulingMethod::paper_methods()
        .iter()
        .map(|&m| {
            let s = fig9_buffer_sizes(m);
            series_table(
                format!("Fig. 9 ({}) — buffer size [Mbit] vs n (k = {})", m, s.k),
                "mbit",
                &s,
                1.0e-6,
            )
        })
        .collect()
}

/// Fig. 10: worst-case initial latency vs. streams in service (analysis).
#[must_use]
pub fn fig10() -> Vec<Table> {
    SchedulingMethod::paper_methods()
        .iter()
        .map(|&m| {
            let s = fig10_worst_latency(m);
            series_table(
                format!(
                    "Fig. 10 ({m}) — worst initial latency [s] vs n (k = {})",
                    s.k
                ),
                "seconds",
                &s,
                1.0,
            )
        })
        .collect()
}

/// Fig. 12: minimum memory requirement vs. streams in service (analysis).
#[must_use]
pub fn fig12() -> Vec<Table> {
    SchedulingMethod::paper_methods()
        .iter()
        .map(|&m| {
            let s = fig12_min_memory(m);
            series_table(
                format!("Fig. 12 ({m}) — min memory [MB] vs n (k = {})", s.k),
                "mbyte",
                &s,
                1.0 / 8.0e6,
            )
        })
        .collect()
}

/// Fig. 13: concurrent streams vs. total memory, 10 disks (analysis).
#[must_use]
pub fn fig13() -> Vec<Table> {
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let memories: Vec<Bits> = (1..=11)
        .map(|g| Bits::from_gigabytes(f64::from(g)))
        .collect();
    THETAS
        .iter()
        .map(|&theta| {
            let st = fig13_capacity(&params, SchemeKind::Static, 10, theta, &memories);
            let dy = fig13_capacity(&params, SchemeKind::Dynamic, 10, theta, &memories);
            let mut t = Table::new(
                format!(
                    "Fig. 13 (θ = {theta}) — concurrent streams vs memory, 10 disks (analysis)"
                ),
                &["memory_gb", "static", "dynamic"],
            );
            for (s, d) in st.iter().zip(&dy) {
                t.row(&[
                    format!("{:.0}", s.memory.as_gigabytes()),
                    s.concurrent.to_string(),
                    d.concurrent.to_string(),
                ]);
            }
            t
        })
        .collect()
}

fn engine_cfg(method: SchedulingMethod, scheme: SchemeKind) -> EngineConfig {
    EngineConfig::paper(method, scheme)
}

fn workload_cfg(scale: Scale, theta: f64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::paper_single_disk(theta, scale.expected_arrivals());
    cfg.duration = scale.duration();
    cfg.peak = scale.peak();
    cfg
}

pub(crate) fn experiment(
    scale: Scale,
    method: SchedulingMethod,
    scheme: SchemeKind,
    theta: f64,
) -> LatencyExperiment {
    LatencyExperiment {
        engine: engine_cfg(method, scheme),
        workload: workload_cfg(scale, theta),
        seeds: scale.seeds(),
    }
}

/// Fig. 6: concurrent streams over the simulated day, per profile skew θ
/// (dynamic scheme, Round-Robin; the admitted-load trace is
/// scheme-insensitive away from saturation).
#[must_use]
pub fn fig6(scale: Scale, obs: &Obs) -> Vec<Table> {
    let slot = Seconds::from_minutes(30.0);
    let slots = (scale.duration() / slot).ceil() as usize;
    let mut t = Table::new(
        "Fig. 6 — concurrent streams vs time of day (simulation, dynamic scheme)",
        &["hour", "theta_0.0", "theta_0.5", "theta_1.0"],
    );
    let mut columns: Vec<Vec<usize>> = Vec::new();
    for &theta in &THETAS {
        let workload = generate(&workload_cfg(scale, theta), 1)
            .unwrap_or_else(|e| panic!("fig6 workload (θ = {theta}) must validate: {e}"));
        let engine = vod_sim::DiskEngine::with_observer(
            engine_cfg(SchedulingMethod::RoundRobin, SchemeKind::Dynamic),
            obs.clone(),
        )
        .expect("valid engine");
        let stats = engine.run(&workload.arrivals);
        let column = (0..slots)
            .map(|i| stats.concurrency_at(Instant::ZERO + slot * (i as f64 + 1.0)))
            .collect();
        columns.push(column);
    }
    for i in 0..slots {
        let cells: Vec<String> = std::iter::once(format!("{:.1}", (i + 1) as f64 * 0.5))
            .chain(columns.iter().map(|c| c[i].to_string()))
            .collect();
        t.row(&cells);
    }
    vec![t]
}

/// Runs `exp` with every seed's engine reporting into `obs`.
fn run_observed(exp: &LatencyExperiment, obs: &Obs) -> vod_sim::LatencyResult {
    run_latency_experiment_observed(exp, &|_| obs.clone())
        .unwrap_or_else(|e| {
            panic!(
                "latency experiment ({:?} / {}) has a pinned config; it must validate: {e}",
                exp.engine.scheme,
                exp.engine.params.method.label()
            )
        })
        .result
}

fn estimator_row(
    scale: Scale,
    method: SchedulingMethod,
    t_log: Seconds,
    alpha: u32,
    obs: &Obs,
) -> (f64, f64) {
    let mut exp = experiment(scale, method, SchemeKind::Dynamic, 0.5);
    exp.engine.t_log = t_log;
    exp.engine.params.alpha = alpha;
    let res = run_observed(&exp, obs);
    (
        res.stats.audit.mean_estimated,
        res.stats.audit.success_probability,
    )
}

/// Fig. 7: mean estimated additional requests and successful-estimation
/// probability vs. `T_log` (α = 1), per scheduling method.
#[must_use]
pub fn fig7(scale: Scale, obs: &Obs) -> Vec<Table> {
    let mut mean_t = Table::new(
        "Fig. 7a — mean estimated additional requests vs T_log [min] (α = 1)",
        &["t_log_min", "round_robin", "sweep", "gss"],
    );
    let mut prob_t = Table::new(
        "Fig. 7b — successful estimation probability vs T_log [min] (α = 1)",
        &["t_log_min", "round_robin", "sweep", "gss"],
    );
    for t_log_min in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
        let mut means = Vec::new();
        let mut probs = Vec::new();
        for m in SchedulingMethod::paper_methods() {
            let (mean, prob) = estimator_row(scale, m, Seconds::from_minutes(t_log_min), 1, obs);
            means.push(fmt_f64(mean));
            probs.push(fmt_f64(prob));
        }
        mean_t.row(&[
            format!("{t_log_min:.0}"),
            means[0].clone(),
            means[1].clone(),
            means[2].clone(),
        ]);
        prob_t.row(&[
            format!("{t_log_min:.0}"),
            probs[0].clone(),
            probs[1].clone(),
            probs[2].clone(),
        ]);
    }
    vec![mean_t, prob_t]
}

/// Fig. 8: the same quantities vs. α (T_log at the paper's choices:
/// 40 min for Round-Robin, 20 min for Sweep\*/GSS\*).
#[must_use]
pub fn fig8(scale: Scale, obs: &Obs) -> Vec<Table> {
    let mut mean_t = Table::new(
        "Fig. 8a — mean estimated additional requests vs α (paper T_log)",
        &["alpha", "round_robin", "sweep", "gss"],
    );
    let mut prob_t = Table::new(
        "Fig. 8b — successful estimation probability vs α (paper T_log)",
        &["alpha", "round_robin", "sweep", "gss"],
    );
    for alpha in 1..=5u32 {
        let mut means = Vec::new();
        let mut probs = Vec::new();
        for m in SchedulingMethod::paper_methods() {
            let t_log = match m {
                SchedulingMethod::RoundRobin => Seconds::from_minutes(40.0),
                _ => Seconds::from_minutes(20.0),
            };
            let (mean, prob) = estimator_row(scale, m, t_log, alpha, obs);
            means.push(fmt_f64(mean));
            probs.push(fmt_f64(prob));
        }
        mean_t.row(&[
            alpha.to_string(),
            means[0].clone(),
            means[1].clone(),
            means[2].clone(),
        ]);
        prob_t.row(&[
            alpha.to_string(),
            probs[0].clone(),
            probs[1].clone(),
            probs[2].clone(),
        ]);
    }
    vec![mean_t, prob_t]
}

/// Buckets per-n latency means into groups of `width` for readable tables.
fn bucketed_latency(stats: &DiskRunStats, max_n: usize, width: usize) -> Vec<(usize, f64, usize)> {
    let by_load = stats.latency_by_load(max_n);
    let mut out = Vec::new();
    let mut lo = 0usize;
    while lo <= max_n {
        let hi = (lo + width - 1).min(max_n);
        let mut count = 0usize;
        let mut total = 0.0;
        for (count_i, mean_i) in by_load[lo..=hi].iter() {
            if let Some(m) = mean_i {
                total += m.as_secs_f64() * *count_i as f64;
                count += count_i;
            }
        }
        if count > 0 {
            out.push((lo, total / count as f64, count));
        }
        lo = hi + 1;
    }
    out
}

/// Fig. 11: average initial latency vs. streams in service (simulation,
/// θ = 0 for full load coverage, 5 seeds), per method.
#[must_use]
pub fn fig11(scale: Scale, obs: &Obs) -> Vec<Table> {
    SchedulingMethod::paper_methods()
        .iter()
        .map(|&m| {
            let st = run_observed(&experiment(scale, m, SchemeKind::Static, 0.0), obs);
            let dy = run_observed(&experiment(scale, m, SchemeKind::Dynamic, 0.0), obs);
            let st_b = bucketed_latency(&st.stats, 79, 5);
            let dy_b = bucketed_latency(&dy.stats, 79, 5);
            let mut t = Table::new(
                format!("Fig. 11 ({m}) — average initial latency [s] vs n (simulation, θ = 0)"),
                &[
                    "n_bucket",
                    "static_s",
                    "static_samples",
                    "dynamic_s",
                    "dynamic_samples",
                ],
            );
            // Buckets may be sparse on either side; pair by bucket start.
            let dyn_by_lo: std::collections::HashMap<usize, (f64, usize)> = dy_b
                .iter()
                .map(|&(lo, mean, count)| (lo, (mean, count)))
                .collect();
            for (lo, st_mean, st_count) in st_b {
                let (dmean, dcount) = match dyn_by_lo.get(&lo) {
                    Some(&(mean, count)) => (fmt_f64(mean), count.to_string()),
                    None => ("-".into(), "0".into()),
                };
                t.row(&[
                    format!("{lo}-{}", (lo + 4).min(79)),
                    fmt_f64(st_mean),
                    st_count.to_string(),
                    dmean,
                    dcount,
                ]);
            }
            t
        })
        .collect()
}

/// Fig. 14: concurrent streams vs. total memory, 10 disks (simulation).
#[must_use]
pub fn fig14(scale: Scale, obs: &Obs) -> Vec<Table> {
    THETAS
        .iter()
        .map(|&theta| fig14_for_theta(scale, theta, obs).0)
        .collect()
}

/// Runs Fig. 14 for one θ; returns the table and the per-memory
/// `(static, dynamic)` means used by Table 5.
fn fig14_for_theta(scale: Scale, theta: f64, obs: &Obs) -> (Table, Vec<(f64, f64)>) {
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let mut t = Table::new(
        format!("Fig. 14 (θ = {theta}) — concurrent streams vs memory, 10 disks (simulation)"),
        &["memory_gb", "static", "dynamic"],
    );
    let mut pairs = Vec::new();
    for gb in 1..=11u32 {
        let mut means = [0.0f64; 2];
        for (i, scheme) in [SchemeKind::Static, SchemeKind::Dynamic].iter().enumerate() {
            let mut total = 0.0;
            for &seed in &scale.seeds() {
                let mut wl_cfg = WorkloadConfig::paper_ten_disk(theta, scale.capacity_arrivals());
                wl_cfg.duration = scale.duration();
                wl_cfg.peak = scale.peak();
                let workload = generate(&wl_cfg, seed).unwrap_or_else(|e| {
                    panic!("fig14 workload (θ = {theta}, seed {seed}) must validate: {e}")
                });
                let sim = CapacitySim::with_observer(
                    CapacityConfig {
                        params: params.clone(),
                        scheme: *scheme,
                        disks: 10,
                        total_memory: Bits::from_gigabytes(f64::from(gb)),
                        t_log: Seconds::from_minutes(40.0),
                    },
                    obs.clone(),
                )
                .unwrap_or_else(|e| {
                    panic!("fig14 capacity sim ({scheme:?}, {gb} GB) must validate: {e}")
                });
                total += sim.run(&workload).max_concurrent as f64;
            }
            means[i] = total / scale.seeds().len() as f64;
        }
        t.row(&[
            gb.to_string(),
            format!("{:.0}", means[0]),
            format!("{:.0}", means[1]),
        ]);
        pairs.push((means[0], means[1]));
    }
    (t, pairs)
}

/// Table 4: average reduction ratio of the initial latency, dynamic vs.
/// static, per θ × scheduling method (ratios averaged over the per-n
/// buckets of Fig. 11, as the paper averages over load levels).
#[must_use]
pub fn tab4(scale: Scale, obs: &Obs) -> Vec<Table> {
    let mut t = Table::new(
        "Table 4 — average reduction ratio of initial latency (static/dynamic)",
        &["theta", "round_robin", "sweep", "gss"],
    );
    for &theta in &THETAS {
        let mut cells = Vec::new();
        for m in SchedulingMethod::paper_methods() {
            let st = run_observed(&experiment(scale, m, SchemeKind::Static, theta), obs);
            let dy = run_observed(&experiment(scale, m, SchemeKind::Dynamic, theta), obs);
            let st_b = bucketed_latency(&st.stats, 79, 5);
            let dy_b = bucketed_latency(&dy.stats, 79, 5);
            let mut ratios = Vec::new();
            for (lo, st_mean, _) in &st_b {
                if let Some((_, dy_mean, _)) = dy_b.iter().find(|(dlo, _, _)| dlo == lo) {
                    if *dy_mean > 0.0 {
                        ratios.push(st_mean / dy_mean);
                    }
                }
            }
            let avg = if ratios.is_empty() {
                f64::NAN
            } else {
                ratios.iter().sum::<f64>() / ratios.len() as f64
            };
            cells.push(format!("1/{avg:.2}"));
        }
        t.row(&[
            format!("{theta:.1}"),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    vec![t]
}

/// Table 5: average improvement ratio of concurrent streams, dynamic vs.
/// static, per θ (averaged over the Fig. 14 memory sizes).
#[must_use]
pub fn tab5(scale: Scale, obs: &Obs) -> Vec<Table> {
    let mut t = Table::new(
        "Table 5 — average improvement ratio of concurrent streams (dynamic/static)",
        &["theta", "improvement"],
    );
    for &theta in &THETAS {
        let (_, pairs) = fig14_for_theta(scale, theta, obs);
        let ratios: Vec<f64> = pairs
            .iter()
            .filter(|(s, _)| *s > 0.0)
            .map(|(s, d)| d / s)
            .collect();
        let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        t.row(&[format!("{theta:.1}"), format!("{avg:.2}")]);
    }
    vec![t]
}

/// Extension experiment `gss_g` (§5.1): full-load memory requirement as a
/// function of the GSS group size `g`, reproducing the choice `g = 8`.
#[must_use]
pub fn gss_g() -> Vec<Table> {
    use vod_core::memory::{min_memory_with, optimal_gss_group_size};
    use vod_core::static_scheme::static_buffer_size;

    let base = SystemParams::paper_defaults(SchedulingMethod::GSS_PAPER);
    let big_n = base.max_requests();
    let mut t = Table::new(
        "Extension (§5.1) — full-load memory vs GSS group size g",
        &["g", "memory_mb"],
    );
    for g in 1..=32usize {
        let mut p = base.clone();
        p.method = SchedulingMethod::Gss { group_size: g };
        let bs = static_buffer_size(&p, big_n);
        let mem = min_memory_with(&p, bs, big_n, 0);
        t.row(&[g.to_string(), fmt_f64(mem.as_bytes() / 1.0e6)]);
    }
    let best = optimal_gss_group_size(&base);
    t.row(&["optimal".into(), format!("g = {best}")]);
    vec![t]
}

/// Extension experiment `vcr`: initial latency under a VCR-happy audience
/// (every skip is a new request — §1's motivation for minimizing IL).
#[must_use]
pub fn vcr(scale: Scale, obs: &Obs) -> Vec<Table> {
    use vod_workload::{with_vcr_actions, VcrConfig};
    let mut t = Table::new(
        "Extension — VCR responsiveness (mean / p95 initial latency, s)",
        &["scheme", "requests", "mean_s", "p95_s", "underflows"],
    );
    let base = generate(&workload_cfg(scale, 1.0), 21)
        .unwrap_or_else(|e| panic!("vcr base workload must validate: {e}"));
    let fidgety = with_vcr_actions(&base, VcrConfig::fidgety(), 9)
        .unwrap_or_else(|e| panic!("fidgety VCR overlay must validate: {e}"));
    for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
        let stats = vod_sim::DiskEngine::with_observer(
            engine_cfg(SchedulingMethod::RoundRobin, scheme),
            obs.clone(),
        )
        .expect("valid engine")
        .run(&fidgety.arrivals);
        t.row(&[
            scheme.label().into(),
            stats.admitted.to_string(),
            fmt_f64(stats.mean_latency().map_or(f64::NAN, |s| s.as_secs_f64())),
            fmt_f64(
                stats
                    .latency_percentile(0.95)
                    .map_or(f64::NAN, |s| s.as_secs_f64()),
            ),
            stats.underflows.to_string(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab3_lists_all_constants() {
        let t = &tab3()[0];
        assert_eq!(t.len(), 10);
        let rendered = t.render();
        assert!(rendered.contains("120.00 Mbps"));
        assert!(rendered.contains("79"));
    }

    #[test]
    fn analytic_figures_have_full_series() {
        for tables in [fig9(), fig10(), fig12()] {
            assert_eq!(tables.len(), 3);
            for t in tables {
                assert_eq!(t.len(), 79);
            }
        }
        let f13 = fig13();
        assert_eq!(f13.len(), 3);
        for t in f13 {
            assert_eq!(t.len(), 11);
        }
    }

    #[test]
    fn fig6_quick_produces_the_time_series() {
        let tables = fig6(Scale::Quick, &Obs::null());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 12); // 6 h / 30 min
    }

    #[test]
    fn fig6_recorder_sees_cycle_service_and_admission_events() {
        use std::sync::Arc;
        use vod_obs::{EventKind, RecorderSink};

        let plain = fig6(Scale::Quick, &Obs::null());
        let sink = Arc::new(RecorderSink::new());
        let observed = fig6(Scale::Quick, &Obs::new(sink.clone()));
        // Instrumentation must not change the rendered table.
        assert_eq!(plain[0].render(), observed[0].render());
        let snap = sink.snapshot();
        assert!(snap.counter(EventKind::CyclePlanned) > 0);
        assert!(snap.counter(EventKind::StreamServiced) > 0);
        assert!(snap.counter(EventKind::RequestAdmitted) > 0);
    }

    #[test]
    fn gss_g_has_a_clear_interior_minimum() {
        let t = &gss_g()[0];
        assert_eq!(t.len(), 33);
        let rendered = t.render();
        assert!(rendered.contains("optimal"));
    }

    #[test]
    fn vcr_extension_runs_clean_at_quick_scale() {
        let t = &vcr(Scale::Quick, &Obs::null())[0];
        assert_eq!(t.len(), 2);
        let rendered = t.render();
        // Both schemes must report zero underflows in the last column.
        for line in rendered.lines().skip(3) {
            assert!(line.trim_end().ends_with('0'), "underflows in: {line}");
        }
    }

    #[test]
    fn fig14_quick_shows_dynamic_advantage_under_tight_memory() {
        let (_, pairs) = fig14_for_theta(Scale::Quick, 0.0, &Obs::null());
        // At 2 GB (index 1) dynamic must beat static clearly.
        let (st, dy) = pairs[1];
        assert!(dy > st * 1.3, "static {st}, dynamic {dy}");
    }

    /// Golden Fig. 7 audit (Round-Robin, `T_log` = 40 min, α = 1, quick
    /// scale), recorded before the audit was scored as a stream: the
    /// pooled outcome must match to the bit.
    #[test]
    fn fig7_quick_audit_matches_the_golden_outcome() {
        let mut exp = experiment(
            Scale::Quick,
            SchedulingMethod::RoundRobin,
            SchemeKind::Dynamic,
            0.5,
        );
        exp.engine.t_log = Seconds::from_minutes(40.0);
        exp.engine.params.alpha = 1;
        let audit = run_observed(&exp, &Obs::null()).stats.audit;
        assert_eq!(audit.samples, 984_331);
        assert_eq!(audit.violations, 336);
        assert_eq!(audit.mean_estimated.to_bits(), 0x4007_816f_59d4_aa6f);
        assert_eq!(audit.mean_actual.to_bits(), 0x3fd5_32b4_e2c9_5ad7);
        assert_eq!(audit.success_probability.to_bits(), 0x3fef_fd34_23de_dfac);
    }
}
