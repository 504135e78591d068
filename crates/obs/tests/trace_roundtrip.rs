//! Round trip of every trace-line kind: whatever a writer emits,
//! [`TraceLine::parse`] reads back to the value it was written from.
//!
//! Each case builds one line from raw material (a variant index, finite
//! floats drawn from every bit pattern, integers up to 2^53, ids over the
//! whole `u64` range, labels) and checks `from_json(to_json(x)) == x`.
//! Equality alone would let `-0.0` pass for `0.0`, so each case also
//! compares the `{:?}` text: `Debug` prints every `f64` in shortest
//! round-trip form, so equal text means equal bits.

use proptest::prelude::*;
use vod_obs::json::MAX_SAFE_INTEGER;
use vod_obs::{
    AnnoValue, CellHeader, CellSummary, ChaosCounters, ChaosHeader, Event, EventKind,
    NodeRedirects, Point, RejectReason, SeriesLine, SpanId, SpanKind, SpanStatus, TraceId,
    TraceLine,
};
use vod_types::{Bits, Instant, Seconds};

/// Identifiers a label may be: any text the writer does not escape,
/// other than 16 hex digits (which reads back as a trace id).
const LABELS: &[&str] = &[
    "",
    "x",
    "migrated",
    "node_crash",
    "disk_bound",
    "with space",
    "é漢",
    "0123456789abcde",
    "crash",
];

/// A finite float from any bit pattern (non-finite ones fold to `-0.0`,
/// itself a case worth having).
fn finite() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(|b| {
        let x = f64::from_bits(b);
        if x.is_finite() {
            x
        } else {
            -0.0
        }
    })
}

fn safe() -> impl Strategy<Value = u64> {
    0u64..=MAX_SAFE_INTEGER
}

/// Raw material for one line: floats, safe integers, raw ids, and
/// label indexes with a spare flag.
type Raw = (
    (f64, f64, f64),
    (u64, u64, u64),
    (u64, u64),
    (usize, usize, bool),
);

fn raw() -> impl Strategy<Value = Raw> {
    (
        (finite(), finite(), finite()),
        (safe(), safe(), safe()),
        (0u64..=u64::MAX, 0u64..=u64::MAX),
        (0..LABELS.len(), 0..LABELS.len(), any::<bool>()),
    )
}

#[allow(clippy::cast_possible_truncation)]
fn event(kind: EventKind, r: Raw) -> Event<'static> {
    let ((x, y, z), (i, j, k), (a, b), (l, m, flag)) = r;
    let at = Instant::from_secs(x);
    let (us, vs, ws) = (i as usize, j as usize, k as usize);
    let (trace, span) = (TraceId::from_raw(a), SpanId::from_raw(b));
    match kind {
        EventKind::CyclePlanned => Event::CyclePlanned {
            at,
            start: Instant::from_secs(y),
            planned: Instant::from_secs(z),
            n: us,
            due_min: flag.then(|| Instant::from_secs(z)),
            insertion_budget: if l % 2 == 0 { vs } else { usize::MAX },
        },
        EventKind::StreamServiced => Event::StreamServiced {
            at,
            trace,
            n: vs,
            k: ws,
            read: Bits::new(y),
            size: Bits::new(z),
            duration: Seconds::from_secs(x),
            first_fill: flag,
        },
        EventKind::RequestAdmitted => Event::RequestAdmitted {
            at,
            trace,
            n: vs,
            waited: Seconds::from_secs(y),
        },
        EventKind::RequestDeferred => Event::RequestDeferred { at, trace, n: vs },
        EventKind::RequestRejected => Event::RequestRejected {
            at,
            trace,
            n: us,
            reason: [
                RejectReason::DiskFull,
                RejectReason::MemoryFull,
                RejectReason::QueueDropped,
            ][l % 3],
        },
        EventKind::BufferAllocated => Event::BufferAllocated {
            at,
            trace,
            size: Bits::new(y),
        },
        EventKind::BufferResized => Event::BufferResized {
            at,
            trace,
            old_size: Bits::new(y),
            new_size: Bits::new(z),
        },
        EventKind::BufferFreed => Event::BufferFreed {
            at,
            trace,
            released: Bits::new(y),
        },
        EventKind::EstimatorClamped => Event::EstimatorClamped {
            at,
            k_log: us,
            k_clamped: vs,
            cap: ws,
        },
        EventKind::Underflow => Event::Underflow {
            at,
            trace,
            n: vs,
            deficit: Bits::new(y),
        },
        EventKind::PoolOccupancy => Event::PoolOccupancy {
            at,
            used: Bits::new(y),
            streams: us,
        },
        EventKind::SpanStart => Event::SpanStart {
            at,
            trace,
            span,
            parent: flag.then(|| SpanId::from_raw(a ^ b)),
            span_kind: SpanKind::ALL[l % SpanKind::ALL.len()],
        },
        EventKind::SpanAnnotate => Event::SpanAnnotate {
            at,
            trace,
            span,
            key: LABELS[l],
            value: match m % 4 {
                0 => AnnoValue::U64(j),
                1 => AnnoValue::F64(y),
                2 => AnnoValue::Str(LABELS[m]),
                _ => AnnoValue::Trace(TraceId::from_raw(a ^ b)),
            },
        },
        EventKind::SpanEnd => Event::SpanEnd {
            at,
            trace,
            span,
            status: SpanStatus::ALL[l % SpanStatus::ALL.len()],
        },
        EventKind::FaultInjected => Event::FaultInjected {
            at,
            node: us,
            fault: LABELS[l],
        },
        EventKind::NodeRecovered => Event::NodeRecovered {
            at,
            node: us,
            warm: flag,
        },
        EventKind::ReplicaRebuilt => Event::ReplicaRebuilt {
            at,
            node: us,
            movies: vs,
        },
    }
}

/// One line of kind `variant`: the six non-event kinds, then every event
/// kind.
#[allow(clippy::cast_possible_truncation)]
fn line(variant: usize, r: Raw, points: &[(u64, f64, f64)]) -> TraceLine<'static> {
    let (_, (i, j, k), _, (l, m, flag)) = r;
    match variant {
        0 => TraceLine::Experiment {
            name: LABELS[l],
            events: i,
            events_dropped: j,
            spans_dropped: k,
        },
        1 => TraceLine::ClusterCell(CellHeader {
            nodes: i as usize,
            placement: LABELS[l],
            dispatch: LABELS[m],
            chaos: flag.then_some(ChaosHeader {
                scenario: LABELS[m],
                failover: LABELS[l],
            }),
        }),
        2 => TraceLine::ClusterSummary(CellSummary {
            redirected: i,
            events: j,
            events_dropped: k,
            spans_dropped: i.min(j),
            chaos: flag.then_some(ChaosCounters {
                faults_injected: k,
                interrupted: j,
                migrated: i,
                dropped: j & k,
            }),
            per_node: points
                .iter()
                .map(|&(n, _, _)| NodeRedirects {
                    node: n as usize,
                    redirected_in: n / 2,
                    redirected_out: n / 3,
                })
                .collect(),
        }),
        3 => TraceLine::FlightDump {
            reason: LABELS[l],
            seq: i,
            events: j,
            dropped: k,
        },
        4 => TraceLine::Series(SeriesLine {
            scope: LABELS[l],
            name: LABELS[m],
            stride: i,
            count: j,
            points: points
                .iter()
                .map(|&(index, t, value)| Point { index, t, value })
                .collect::<Vec<_>>()
                .into(),
        }),
        5 => TraceLine::Audit {
            scope: LABELS[l],
            samples: i,
            violations: j,
        },
        v => TraceLine::Event(event(EventKind::ALL[v - 6], r)),
    }
}

fn assert_round_trips(x: &TraceLine<'_>) {
    let text = x.to_json();
    let back = TraceLine::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(&back, x, "{text}");
    assert_eq!(format!("{back:?}"), format!("{x:?}"), "{text}");
    if let TraceLine::Event(e) = x {
        let json = vod_obs::json::parse(&text).expect("JSON");
        assert_eq!(Event::from_json(&json).as_ref(), Ok(e));
    }
}

#[test]
fn every_kind_round_trips_at_its_edges() {
    let zero = (
        (0.0, -0.0, 5e-324),
        (0, MAX_SAFE_INTEGER, 1),
        (0, u64::MAX),
        (0, 1, true),
    );
    for variant in 0..6 + EventKind::COUNT {
        assert_round_trips(&line(variant, zero, &[(MAX_SAFE_INTEGER, f64::MAX, -0.0)]));
    }
}

#[test]
fn integers_past_two_to_the_53_are_refused_not_rounded() {
    let line = |n: u64| {
        format!(r#"{{"kind":"request_deferred","t":1.0,"trace":"0000000000000001","n":{n}}}"#)
    };
    let text = line(MAX_SAFE_INTEGER);
    let at_bound = TraceLine::parse(&text).expect("2^53 is exact");
    assert!(matches!(
        at_bound,
        TraceLine::Event(Event::RequestDeferred { n, .. }) if n as u64 == MAX_SAFE_INTEGER
    ));
    for n in [MAX_SAFE_INTEGER + 1, 4_175_401_687_802_144_684, u64::MAX] {
        let err = TraceLine::parse(&line(n)).expect_err("too large for an f64");
        assert!(err.contains("`n`"), "{err}");
    }
    // An annotation value too: a u64 past 2^53 names no exact number.
    let anno = r#"{"kind":"span_annotate","t":0.0,"trace":"0000000000000001","span":"0000000000000002","key":"orig_trace","value":4175401687802144684}"#;
    assert!(TraceLine::parse(anno).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_trace_line_round_trips_bit_for_bit(
        variant in 0..6 + EventKind::COUNT,
        r in raw(),
        points in prop::collection::vec((safe(), finite(), finite()), 0..4),
    ) {
        assert_round_trips(&line(variant, r, &points));
    }
}
