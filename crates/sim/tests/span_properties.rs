//! Property tests for the engine's span lifecycles.
//!
//! Tracing rides the same `Sink` pipeline as the counter events, so two
//! things must hold under arbitrary traces, for every scheduling method
//! × buffer scheme: (1) span lifecycles balance — every `span_start`
//! the engine emits is closed by exactly one `span_end` on the same
//! `(trace, span)` id, annotations never reference an id that was never
//! opened, and admission spans ending `admitted` agree with the run's
//! admitted count; (2) observation is non-perturbing — the
//! `DiskRunStats` of a fully traced run equal those of a detached run
//! bit for bit. (3) Events and spans join on the trace id: every
//! per-request event names a request whose root span is in the run, and
//! a request's one service span is its first fill, ending when its first
//! `StreamServiced` does. No annotation repeats a number an event
//! carries.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use vod_core::SchemeKind;
use vod_obs::span::SEQ_FIRST_SERVICE;
use vod_obs::{Event, Obs, RecorderSink, SpanId, SpanKind, SpanStatus, TraceId};
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, DiskRunStats, EngineConfig};
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

/// The request a per-request event names, `None` for the other kinds.
fn request_trace(e: &Event<'_>) -> Option<TraceId> {
    match *e {
        Event::StreamServiced { trace, .. }
        | Event::RequestAdmitted { trace, .. }
        | Event::RequestDeferred { trace, .. }
        | Event::RequestRejected { trace, .. }
        | Event::BufferAllocated { trace, .. }
        | Event::BufferResized { trace, .. }
        | Event::BufferFreed { trace, .. }
        | Event::Underflow { trace, .. } => Some(trace),
        _ => None,
    }
}

/// Annotation keys that would copy a number an event already carries.
const EVENT_FIELD_KEYS: &[&str] = &[
    "n",
    "k",
    "read_bits",
    "size_bits",
    "first_fill",
    "reject_reason",
];

const METHODS: [SchedulingMethod; 3] = [
    SchedulingMethod::RoundRobin,
    SchedulingMethod::Sweep,
    SchedulingMethod::Gss { group_size: 4 },
];

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Static,
    SchemeKind::StaticMaxUse,
    SchemeKind::NaiveDynamic,
    SchemeKind::Dynamic,
];

/// The join property for one method × scheme run over `arrivals`;
/// returns the run's stats.
fn check_join(arrivals: &[Arrival], method: SchedulingMethod, scheme: SchemeKind) -> DiskRunStats {
    let recorder = Arc::new(RecorderSink::new());
    let cfg = EngineConfig::paper(method, scheme);
    let stats = DiskEngine::with_observer(
        cfg,
        Obs::new(Arc::clone(&recorder) as Arc<dyn vod_obs::Sink>),
    )
    .expect("paper config is valid")
    .run(arrivals);
    let snap = recorder.snapshot();
    assert_eq!(
        snap.dropped() + snap.spans_dropped(),
        0,
        "ring must hold the whole run"
    );

    let roots: HashSet<TraceId> = snap
        .events()
        .iter()
        .filter_map(|e| match *e {
            Event::SpanStart {
                trace,
                span_kind: SpanKind::Request,
                ..
            } => Some(trace),
            _ => None,
        })
        .collect();
    let mut services = 0u64;
    let mut first_service: HashMap<TraceId, f64> = HashMap::new();
    let mut admitted: Vec<TraceId> = Vec::new();
    let mut open_services: HashSet<(TraceId, SpanId)> = HashSet::new();
    // Each trace's service spans, with their end times.
    let mut service_spans: HashMap<TraceId, Vec<(SpanId, f64)>> = HashMap::new();
    for e in snap.events() {
        if let Some(t) = request_trace(e) {
            assert!(t != TraceId::NONE, "{:?} names no trace", e.kind());
            assert!(
                roots.contains(&t),
                "{:?} names trace {} with no root span",
                e.kind(),
                t
            );
        }
        match *e {
            Event::StreamServiced { at, trace, .. } => {
                services += 1;
                first_service.entry(trace).or_insert(at.as_secs_f64());
            }
            Event::RequestAdmitted { trace, .. } => admitted.push(trace),
            Event::SpanStart {
                trace,
                span,
                span_kind,
                ..
            } => {
                assert!(
                    matches!(
                        span_kind,
                        SpanKind::Request | SpanKind::Admission | SpanKind::Service
                    ),
                    "an engine run opens only lifecycle spans, not {}",
                    span_kind
                );
                assert!(
                    roots.contains(&trace),
                    "span of trace {} with no root",
                    trace
                );
                if span_kind == SpanKind::Service {
                    open_services.insert((trace, span));
                }
            }
            Event::SpanEnd {
                at, trace, span, ..
            } if open_services.remove(&(trace, span)) => {
                service_spans
                    .entry(trace)
                    .or_default()
                    .push((span, at.as_secs_f64()));
            }
            Event::SpanAnnotate { key, .. } => {
                assert!(
                    !EVENT_FIELD_KEYS.contains(&key),
                    "annotation `{}` copies an event field",
                    key
                );
            }
            _ => {}
        }
    }
    assert_eq!(services, stats.services, "one StreamServiced per service");
    assert_eq!(admitted.len() as u64, stats.admitted);
    assert_eq!(
        service_spans.len(),
        admitted.len(),
        "service spans only for admitted requests"
    );
    for t in &admitted {
        let spans = service_spans.get(t).map_or(&[][..], Vec::as_slice);
        assert_eq!(
            spans.len(),
            1,
            "trace {} has {} service spans",
            t,
            spans.len()
        );
        let (span, end) = spans[0];
        assert_eq!(span, SpanId::derive(*t, SEQ_FIRST_SERVICE));
        assert_eq!(
            Some(&end),
            first_service.get(t),
            "trace {}: first fill ends at its first service",
            t
        );
    }
    stats
}

/// The join holds when the disk refuses requests too: a burst past the
/// stream bound `N` makes `request_rejected` events, which name their
/// trace like every other per-request event.
#[test]
fn events_join_spans_when_the_disk_rejects() {
    let burst: Vec<Arrival> = (0u32..120)
        .map(|i| Arrival {
            at: Instant::from_secs(f64::from(i) * 0.05),
            disk: DiskId::new(0),
            video: VideoId::new(i % 12),
            viewing: Seconds::from_secs(600.0),
        })
        .collect();
    for method in METHODS {
        for scheme in SCHEMES {
            let stats = check_join(&burst, method, scheme);
            assert!(stats.rejected > 0, "{method:?}/{scheme:?} rejected nothing");
        }
    }
}

fn method_strategy() -> impl Strategy<Value = SchedulingMethod> {
    prop_oneof![
        Just(SchedulingMethod::RoundRobin),
        Just(SchedulingMethod::Sweep),
        Just(SchedulingMethod::Gss { group_size: 4 }),
    ]
}

fn scheme_strategy() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Static),
        Just(SchemeKind::StaticMaxUse),
        Just(SchemeKind::NaiveDynamic),
        Just(SchemeKind::Dynamic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every `Span::start` has exactly one matching `end` (and no end or
    /// annotation orphans), across methods × schemes, and the admission
    /// spans reconcile with the admitted count.
    #[test]
    fn span_lifecycles_balance_across_methods_and_schemes(
        trace in trace_strategy(),
        method in method_strategy(),
        scheme in scheme_strategy(),
    ) {
        let recorder = Arc::new(RecorderSink::new());
        let cfg = EngineConfig::paper(method, scheme);
        let stats = DiskEngine::with_observer(cfg, Obs::new(Arc::clone(&recorder) as Arc<dyn vod_obs::Sink>))
            .expect("paper config is valid")
            .run(&trace);

        let snap = recorder.snapshot();
        prop_assert_eq!(snap.spans_dropped(), 0, "ring must hold the whole run");

        // (trace, span) -> (starts, ends); annotations checked against
        // the open set as we replay the event order.
        let mut balance: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
        let mut admitted_spans = 0u64;
        for e in snap.events() {
            match *e {
                Event::SpanStart { trace, span, .. } => {
                    balance.entry((trace.raw(), span.raw())).or_insert((0, 0)).0 += 1;
                }
                Event::SpanAnnotate { trace, span, .. } => {
                    let seen = balance.get(&(trace.raw(), span.raw()));
                    prop_assert!(
                        seen.is_some_and(|&(s, _)| s > 0),
                        "annotation on a span that never started"
                    );
                }
                Event::SpanEnd { trace, span, status, .. } => {
                    let slot = balance.entry((trace.raw(), span.raw())).or_insert((0, 0));
                    slot.1 += 1;
                    if status == SpanStatus::Admitted {
                        admitted_spans += 1;
                    }
                }
                _ => {}
            }
        }
        for (&(t, s), &(starts, ends)) in &balance {
            prop_assert_eq!(
                starts, ends,
                "span {:016x}/{:016x}: {} starts vs {} ends", t, s, starts, ends
            );
            prop_assert_eq!(starts, 1, "span ids are minted once");
        }
        prop_assert_eq!(
            admitted_spans, stats.admitted,
            "exactly one admission span per admitted stream"
        );
    }

    /// Events join spans by trace, for every method × scheme: each
    /// per-request event names a traced request, each admitted request
    /// has exactly one service span — its first fill, ending at its first
    /// `StreamServiced` — and spans hold only the request lifecycle, with
    /// no annotation copying an event field.
    #[test]
    fn events_join_spans_by_trace_across_methods_and_schemes(trace in trace_strategy()) {
        for method in METHODS {
            for scheme in SCHEMES {
                check_join(&trace, method, scheme);
            }
        }
    }

    /// Tracing is non-perturbing: a fully recorded run and a detached run
    /// produce bit-identical `DiskRunStats`.
    #[test]
    fn tracing_does_not_perturb_the_run(
        trace in trace_strategy(),
        method in method_strategy(),
        scheme in scheme_strategy(),
    ) {
        let cfg = EngineConfig::paper(method, scheme);
        let bare = DiskEngine::new(cfg.clone())
            .expect("paper config is valid")
            .run(&trace);
        let recorder = Arc::new(RecorderSink::new());
        let traced = DiskEngine::with_observer(cfg, Obs::new(recorder as Arc<dyn vod_obs::Sink>))
            .expect("paper config is valid")
            .run(&trace);
        prop_assert_eq!(bare, traced);
    }
}
