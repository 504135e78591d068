//! Property tests for the engine's incremental hot-path structures.
//!
//! The engine maintains incrementally-updated views of its stream set:
//! the generational slab, the lazy-deletion departure heap, and the
//! scratch-based position sort. In debug builds the admission
//! controller's min-aggregates are cross-checked against its record
//! table on **every** query (`debug_assert_eq!` inside the controller),
//! so driving arbitrary traces through a debug engine *is* the
//! incremental ≡ naive equivalence test for them. On top of that, runs
//! must stay bit-deterministic: replaying a trace reproduces every stat
//! to the bit, which would catch any order-dependence smuggled in by the
//! slab or the heap.

use proptest::prelude::*;
use vod_core::SchemeKind;
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, EngineConfig};
use vod_types::{DiskId, Instant, Seconds, VideoId};
use vod_workload::Arrival;

fn trace_strategy() -> impl Strategy<Value = Vec<Arrival>> {
    prop::collection::vec(
        // (arrival offset ms, video, viewing seconds)
        (0u32..600_000, 0u8..12, 1u16..900),
        1..24,
    )
    .prop_map(|raw| {
        let mut arrivals: Vec<Arrival> = raw
            .into_iter()
            .map(|(at_ms, video, viewing_s)| Arrival {
                at: Instant::from_secs(f64::from(at_ms) / 1000.0),
                disk: DiskId::new(0),
                video: VideoId::new(u32::from(video)),
                viewing: Seconds::from_secs(f64::from(viewing_s)),
            })
            .collect();
        arrivals.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));
        arrivals
    })
}

fn method_strategy() -> impl Strategy<Value = SchedulingMethod> {
    prop_oneof![
        Just(SchedulingMethod::RoundRobin),
        Just(SchedulingMethod::Sweep),
        Just(SchedulingMethod::Gss { group_size: 4 }),
    ]
}

fn run(method: SchedulingMethod, scheme: SchemeKind, trace: &[Arrival]) -> vod_sim::DiskRunStats {
    let cfg = EngineConfig::paper(method, scheme);
    DiskEngine::new(cfg)
        .expect("paper config is valid")
        .run(trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Arbitrary traces drain fully and replay bit-identically under the
    /// dynamic scheme for every scheduling method. Each run also executes
    /// the admission controller's incremental ≡ record-scan debug
    /// assertions at every arrival and allocation.
    #[test]
    fn dynamic_runs_are_deterministic_and_heap_consistent(
        trace in trace_strategy(),
        method in method_strategy(),
    ) {
        let a = run(method, SchemeKind::Dynamic, &trace);
        let b = run(method, SchemeKind::Dynamic, &trace);
        // Every admitted stream eventually departed (the run loop only
        // terminates once the roster and queue are empty).
        prop_assert!(a.admitted <= trace.len() as u64);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.services, b.services);
        prop_assert_eq!(a.admitted, b.admitted);
        prop_assert_eq!(a.deferrals, b.deferrals);
        prop_assert_eq!(a.rejected, b.rejected);
        prop_assert_eq!(a.underflows, b.underflows);
        prop_assert_eq!(
            a.peak_memory.as_f64().to_bits(),
            b.peak_memory.as_f64().to_bits(),
            "peak memory must replay bit-identically"
        );
        prop_assert_eq!(
            a.finished_at.as_secs_f64().to_bits(),
            b.finished_at.as_secs_f64().to_bits(),
            "finish time must replay bit-identically"
        );
        prop_assert_eq!(a.il_samples.len(), b.il_samples.len());
    }

    /// The static scheme exercises the same slab/heap/sort machinery with
    /// a different admission path; keep it honest too.
    #[test]
    fn static_runs_are_deterministic_and_heap_consistent(
        trace in trace_strategy(),
        method in method_strategy(),
    ) {
        let a = run(method, SchemeKind::Static, &trace);
        let b = run(method, SchemeKind::Static, &trace);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.services, b.services);
        prop_assert_eq!(a.admitted, b.admitted);
        prop_assert_eq!(a.underflows, b.underflows);
        prop_assert_eq!(
            a.peak_memory.as_f64().to_bits(),
            b.peak_memory.as_f64().to_bits()
        );
        prop_assert_eq!(
            a.finished_at.as_secs_f64().to_bits(),
            b.finished_at.as_secs_f64().to_bits()
        );
    }
}
