//! The paper's headline quantities, checked end-to-end through the
//! public facade: Table 3's derived constants, the Fig. 9/10/12 scales,
//! and the Table 5 improvement band.

use vod::analysis::{fig13_capacity, fig9_buffer_sizes};
use vod::core::{static_scheme, SchemeKind};
use vod::prelude::*;
use vod::types::DiskId;
use vod::workload::Arrival;

#[test]
fn table3_constants() {
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    assert_eq!(params.max_requests(), 79, "Eq. 1 with TR=120, CR=1.5 Mbps");
    assert_eq!(params.disk.rpm, 7200);
    assert!((params.disk.seek.max_rotational_delay.as_millis() - 8.33).abs() < 1e-9);
}

#[test]
fn full_load_buffer_is_about_28_megabytes() {
    // Fig. 9a's static plateau.
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let bs = static_scheme::static_allocated_size(&params);
    let mb = bs.as_bytes() / 1.0e6;
    assert!((mb - 28.2).abs() < 0.5, "BS(79) = {mb} MB");
}

#[test]
fn dynamic_buffers_are_tiny_at_light_load() {
    // Fig. 9: at n = 10 the dynamic buffer is under 1% of the static one.
    let series = fig9_buffer_sizes(SchedulingMethod::RoundRobin);
    let (n, st, dy) = series.points[9];
    assert_eq!(n, 10);
    assert!(dy / st < 0.01, "ratio {}", dy / st);
}

#[test]
fn fig13_crossover_is_near_eleven_gigabytes() {
    // §5.3: with ~11 GB both schemes hit the 790-stream disk limit.
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let at = |gb: f64, scheme| {
        fig13_capacity(&params, scheme, 10, 1.0, &[Bits::from_gigabytes(gb)])[0].concurrent
    };
    assert!(at(6.0, SchemeKind::Static) < 700);
    assert_eq!(at(12.0, SchemeKind::Static), 790);
    assert_eq!(at(12.0, SchemeKind::Dynamic), 790);
}

#[test]
fn table5_improvement_band() {
    // Averaged over 1–11 GB, the dynamic scheme serves 2.36–3.25× the
    // static scheme's streams. Allow a band around the paper's numbers
    // (our substituted cylinder count and integer rounding shift it).
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let memories: Vec<Bits> = (1..=11)
        .map(|g| Bits::from_gigabytes(f64::from(g)))
        .collect();
    for (theta, expect) in [(0.0, 2.36), (0.5, 2.78), (1.0, 3.25)] {
        let st = fig13_capacity(&params, SchemeKind::Static, 10, theta, &memories);
        let dy = fig13_capacity(&params, SchemeKind::Dynamic, 10, theta, &memories);
        let ratios: Vec<f64> = st
            .iter()
            .zip(&dy)
            .filter(|(s, _)| s.concurrent > 0)
            .map(|(s, d)| d.concurrent as f64 / s.concurrent as f64)
            .collect();
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (avg - expect).abs() / expect < 0.45,
            "θ={theta}: measured {avg:.2} vs paper {expect}"
        );
    }
}

#[test]
fn one_viewer_round_trips_a_service_period() {
    // §2.1's memory model on the engine: a lone 10-minute viewer is
    // admitted, fills and drains without underflow, and departs. Its
    // peak occupancy is at most BS(N), and under Theorem 1 a sliver of
    // the static peak.
    let params = SystemParams::paper_defaults(SchedulingMethod::RoundRobin);
    let bs_n = static_scheme::static_allocated_size(&params);
    let viewer = Arrival {
        at: Instant::from_secs(1.0),
        disk: DiskId::new(0),
        video: VideoId::new(0),
        viewing: Seconds::from_minutes(10.0),
    };
    let peaks = SchemeKind::ALL.map(|scheme| {
        let cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, scheme);
        let stats = DiskEngine::new(cfg).expect("valid").run(&[viewer]);
        assert_eq!((stats.admitted, stats.underflows), (1, 0), "{scheme}");
        assert_eq!(stats.concurrency.last().map(|c| c.1), Some(0), "{scheme}");
        let peak = stats.peak_memory;
        assert!(
            peak > Bits::ZERO && peak <= bs_n,
            "{scheme}: {peak} vs {bs_n}"
        );
        (scheme, peak)
    });
    let of = |kind| peaks.iter().find(|p| p.0 == kind).expect("ran").1;
    let ratio = of(SchemeKind::Dynamic) / of(SchemeKind::Static);
    assert!(ratio < 1e-3, "dynamic/static peak = {ratio}");
}
