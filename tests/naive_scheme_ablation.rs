//! The Fig. 3 ablation: the *naive* dynamic scheme (`BS(n + k)` by
//! Eq. 5, no recurrence, no enforcement) under-sizes buffers whenever the
//! load is about to grow — the very flaw that motivates Theorem 1.

use vod::core::scheme::Sizer;
use vod::core::{SchemeKind, SystemParams};
use vod::prelude::*;
use vod::types::Seconds as S;

/// A steadily climbing load: arrivals every few seconds for an hour, each
/// watching long enough that the roster only grows. This is exactly the
/// Fig. 3 scenario — every buffer allocated now will be outlived by
/// bigger future buffers.
fn rising_load() -> Vec<vod::workload::Arrival> {
    (0..70u32)
        .map(|i| vod::workload::Arrival {
            at: Instant::from_secs(1.0 + f64::from(i) * 40.0),
            disk: vod::types::DiskId::new(0),
            video: VideoId::new(i % 6),
            viewing: S::from_hours(1.5),
        })
        .collect()
}

#[test]
fn naive_sizes_are_strictly_below_theorem1_sizes_at_partial_load() {
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let naive = Sizer::new(SchemeKind::NaiveDynamic, &params).expect("valid");
    let dynamic = Sizer::new(SchemeKind::Dynamic, &params).expect("valid");
    for n in 1..=70usize {
        let k = 3;
        assert!(
            naive.size(n, k) < dynamic.size(n, k),
            "n={n}: naive {} not below Theorem 1's {}",
            naive.size(n, k),
            dynamic.size(n, k)
        );
    }
}

#[test]
fn naive_scheme_underflows_under_rising_load_where_dynamic_does_not() {
    let arrivals = rising_load();

    let run = |scheme| {
        DiskEngine::new(EngineConfig::paper(SchedulingMethod::RoundRobin, scheme))
            .expect("valid")
            .run(&arrivals)
    };

    let dynamic = run(SchemeKind::Dynamic);
    assert_eq!(
        dynamic.underflows, 0,
        "predict-and-enforce must keep every buffer fed"
    );

    let naive = run(SchemeKind::NaiveDynamic);
    assert!(
        naive.underflows > 0,
        "the Fig. 3 scheme must starve buffers as the load grows \
         (deficit {})",
        naive.underflow_deficit
    );
}

#[test]
fn naive_deficit_is_material_not_float_noise() {
    let arrivals = rising_load();
    let naive = DiskEngine::new(EngineConfig::paper(
        SchedulingMethod::RoundRobin,
        SchemeKind::NaiveDynamic,
    ))
    .expect("valid")
    .run(&arrivals);
    // The paper's point: the gap is the data consumed during (T1 − T1')
    // of Fig. 3 — whole kilobits per event, not rounding dust.
    if naive.underflows > 0 {
        let mean_deficit = naive.underflow_deficit.as_f64() / naive.underflows as f64;
        assert!(
            mean_deficit > 1_000.0,
            "mean deficit {mean_deficit} bits is suspiciously small"
        );
    }
}
