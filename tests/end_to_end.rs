//! End-to-end runs of the full stack: workload generation → buffer-level
//! simulation → measurements, across every scheme × scheduling method.

use vod::core::SchemeKind;
use vod::prelude::*;
use vod::types::Seconds as S;

fn two_hour_workload(theta: f64, arrivals: f64, seed: u64) -> Workload {
    let mut cfg = WorkloadConfig::paper_single_disk(theta, arrivals);
    cfg.duration = S::from_hours(2.0);
    cfg.peak = S::from_hours(0.75);
    generate(&cfg, seed).expect("valid workload config")
}

#[test]
fn every_scheme_and_method_runs_clean_at_partial_load() {
    let workload = two_hour_workload(1.0, 60.0, 3);
    for method in SchedulingMethod::paper_methods() {
        for scheme in [
            SchemeKind::Static,
            SchemeKind::StaticMaxUse,
            SchemeKind::Dynamic,
        ] {
            let engine = DiskEngine::new(EngineConfig::paper(method, scheme))
                .expect("paper parameters are feasible");
            let stats = engine.run(&workload.arrivals);
            assert_eq!(
                stats.underflows, 0,
                "{scheme} under {method} must never starve a stream"
            );
            assert!(stats.admitted > 0, "{scheme} under {method}");
            assert_eq!(
                stats.admitted + stats.rejected,
                workload.len() as u64,
                "{scheme} under {method}: every request accounted for"
            );
            assert!(stats.max_concurrent() <= 79);
            assert!(!stats.il_samples.is_empty());
        }
    }
}

#[test]
fn identical_traces_give_identical_measurements() {
    let workload = two_hour_workload(0.5, 80.0, 9);
    let run = || {
        DiskEngine::new(EngineConfig::paper(
            SchedulingMethod::GSS_PAPER,
            SchemeKind::Dynamic,
        ))
        .expect("valid")
        .run(&workload.arrivals)
    };
    let a = run();
    let b = run();
    assert_eq!(a.il_samples, b.il_samples);
    assert_eq!(a.services, b.services);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.peak_memory, b.peak_memory);
    assert_eq!(a.deferrals, b.deferrals);
}

#[test]
fn dynamic_scheme_wins_on_latency_at_partial_load() {
    let workload = two_hour_workload(1.0, 40.0, 5);
    for method in SchedulingMethod::paper_methods() {
        let mut means = Vec::new();
        for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
            let stats = DiskEngine::new(EngineConfig::paper(method, scheme))
                .expect("valid")
                .run(&workload.arrivals);
            means.push(stats.mean_latency().expect("samples").as_secs_f64());
        }
        assert!(
            means[1] < means[0] / 2.0,
            "{method}: dynamic {} not well below static {}",
            means[1],
            means[0]
        );
    }
}

#[test]
fn dynamic_scheme_wins_on_memory_at_partial_load() {
    let workload = two_hour_workload(1.0, 40.0, 6);
    for method in SchedulingMethod::paper_methods() {
        let static_peak = DiskEngine::new(EngineConfig::paper(method, SchemeKind::Static))
            .expect("valid")
            .run(&workload.arrivals)
            .peak_memory;
        let dynamic_peak = DiskEngine::new(EngineConfig::paper(method, SchemeKind::Dynamic))
            .expect("valid")
            .run(&workload.arrivals)
            .peak_memory;
        assert!(
            dynamic_peak.as_f64() < 0.5 * static_peak.as_f64(),
            "{method}: dynamic {dynamic_peak} vs static {static_peak}"
        );
    }
}

#[test]
fn ten_disk_capacity_ordering_holds_in_simulation() {
    let mut cfg = WorkloadConfig::paper_ten_disk(0.5, 6_000.0);
    cfg.duration = S::from_hours(6.0);
    cfg.peak = S::from_hours(2.0);
    let workload = generate(&cfg, 11).expect("valid workload config");
    let run = |scheme| {
        CapacitySim::new(CapacityConfig {
            params: SystemParams::paper_defaults(SchedulingMethod::RoundRobin),
            scheme,
            disks: 10,
            total_memory: Bits::from_gigabytes(3.0),
            t_log: S::from_minutes(40.0),
        })
        .expect("valid")
        .run(&workload)
    };
    let st = run(SchemeKind::Static);
    let dy = run(SchemeKind::Dynamic);
    assert!(
        dy.max_concurrent > st.max_concurrent,
        "dynamic {} vs static {}",
        dy.max_concurrent,
        st.max_concurrent
    );
    assert!(st.peak_reserved <= Bits::from_gigabytes(3.0));
    assert!(dy.peak_reserved <= Bits::from_gigabytes(3.0));
}

#[test]
fn saturated_disk_rejects_and_recovers() {
    // Saturate then let the wave pass: late arrivals must be admitted
    // again after departures.
    let mut arrivals = Vec::new();
    for i in 0..100u32 {
        arrivals.push(vod::workload::Arrival {
            at: Instant::from_secs(1.0 + f64::from(i) * 0.05),
            disk: vod::types::DiskId::new(0),
            video: VideoId::new(i % 6),
            viewing: S::from_secs(120.0),
        });
    }
    // A latecomer after the wave departs.
    arrivals.push(vod::workload::Arrival {
        at: Instant::from_secs(400.0),
        disk: vod::types::DiskId::new(0),
        video: VideoId::new(0),
        viewing: S::from_secs(60.0),
    });
    let stats = DiskEngine::new(EngineConfig::paper(
        SchedulingMethod::RoundRobin,
        SchemeKind::Static,
    ))
    .expect("valid")
    .run(&arrivals);
    assert!(stats.rejected >= 21, "wave overflows N=79");
    assert_eq!(stats.admitted + stats.rejected, 101);
    // The latecomer is among the admitted (system drained by t=400).
    let late = stats
        .il_samples
        .iter()
        .find(|s| s.arrived >= Instant::from_secs(399.0));
    assert!(late.is_some(), "latecomer serviced after recovery");
}

#[test]
fn vcr_heavy_audience_never_starves_a_buffer() {
    // VCR actions create rapid departure+arrival churn — the admission
    // path's hardest case (this once exposed an insertion-budget bug).
    let base = {
        let mut cfg = WorkloadConfig::paper_single_disk(1.0, 200.0);
        cfg.duration = S::from_hours(6.0);
        cfg.peak = S::from_hours(2.0);
        generate(&cfg, 21).expect("valid workload config")
    };
    let fidgety = vod::workload::with_vcr_actions(&base, vod::workload::VcrConfig::fidgety(), 9)
        .expect("valid VCR config");
    assert!(fidgety.len() > 2 * base.len(), "VCR must multiply requests");
    for method in SchedulingMethod::paper_methods() {
        for scheme in [SchemeKind::Static, SchemeKind::Dynamic] {
            let stats = DiskEngine::new(EngineConfig::paper(method, scheme))
                .expect("valid")
                .run(&fidgety.arrivals);
            assert_eq!(stats.underflows, 0, "{scheme} under {method}");
            assert_eq!(
                stats.admitted + stats.rejected,
                fidgety.len() as u64,
                "{scheme} under {method}"
            );
        }
    }
}

#[test]
fn sampled_seek_mode_matches_worst_case_admissions() {
    let workload = two_hour_workload(1.0, 60.0, 13);
    for method in SchedulingMethod::paper_methods() {
        let mut cfg = EngineConfig::paper(method, SchemeKind::Dynamic);
        cfg.latency_model = vod::disk::LatencyModel::Sampled;
        let sampled = DiskEngine::new(cfg).expect("valid").run(&workload.arrivals);
        let worst = DiskEngine::new(EngineConfig::paper(method, SchemeKind::Dynamic))
            .expect("valid")
            .run(&workload.arrivals);
        assert_eq!(sampled.underflows, 0, "{method}");
        assert_eq!(sampled.admitted, worst.admitted, "{method}");
        // Real seeks are shorter than the worst case the buffers assume.
        let s = sampled.mean_latency().expect("samples");
        let w = worst.mean_latency().expect("samples");
        assert!(
            s.as_secs_f64() <= w.as_secs_f64() * 1.1,
            "{method}: sampled {s} vs worst {w}"
        );
    }
}
