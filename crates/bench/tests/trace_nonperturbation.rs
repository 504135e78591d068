//! Acceptance bar for the tracing layer: across the full 18-cell bench
//! matrix (2 schemes × 3 methods × 3 θ, here at a compressed scale so
//! the suite stays fast), a fully traced run produces `DiskRunStats`
//! bit-identical to a detached run. Span assignment is data flow the
//! engine computes unconditionally; only *emission* is gated on the
//! sink, so attaching a recorder must not move a single bit.

use std::sync::Arc;

use vod_bench::{BenchMode, Matrix};
use vod_obs::{EventKind, Obs, RecorderSink, Sink};
use vod_sim::{DiskEngine, EngineConfig};
use vod_workload::{generate, WorkloadConfig};

#[test]
fn full_matrix_stats_are_bit_identical_with_tracing() {
    let cells = BenchMode::Full.cells();
    assert_eq!(cells.len(), 18, "the paper matrix is 18 cells");

    let mut span_starts_total = 0u64;
    for (scheme, method, theta) in cells {
        // Half a simulated hour of short viewings: enough load for
        // admissions, deferrals, and thousands of services, while the
        // full event stream (spans included) fits the recorder ring.
        let mut wl_cfg = WorkloadConfig::paper_single_disk(theta, 60.0);
        wl_cfg.duration = vod_types::Seconds::from_minutes(30.0);
        wl_cfg.peak = vod_types::Seconds::from_minutes(15.0);
        wl_cfg.max_viewing = vod_types::Seconds::from_minutes(10.0);
        let wl = generate(&wl_cfg, 1).expect("valid workload config");

        let cfg = EngineConfig::paper(method, scheme);
        let bare = DiskEngine::new(cfg.clone())
            .expect("paper config is valid")
            .run(&wl.arrivals);

        let recorder = Arc::new(RecorderSink::new());
        let traced =
            DiskEngine::with_observer(cfg, Obs::new(Arc::clone(&recorder) as Arc<dyn Sink>))
                .expect("paper config is valid")
                .run(&wl.arrivals);

        assert_eq!(
            bare,
            traced,
            "({scheme:?} / {} / θ = {theta}): tracing perturbed the run",
            method.label()
        );
        assert_eq!(
            bare.peak_memory.as_f64().to_bits(),
            traced.peak_memory.as_f64().to_bits(),
            "({scheme:?} / {} / θ = {theta}): peak memory drifted",
            method.label()
        );

        let snap = recorder.snapshot();
        assert_eq!(snap.spans_dropped(), 0, "ring must hold the whole run");
        span_starts_total += snap.counter(EventKind::SpanStart);
    }
    assert!(
        span_starts_total > 0,
        "the traced runs must actually have emitted spans"
    );
}
