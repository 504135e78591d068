//! Deterministic trace/span identifiers and the span lifecycle API.
//!
//! Spans ride the existing [`Sink`](crate::Sink) pipeline as three extra
//! [`Event`] variants (`SpanStart` / `SpanAnnotate` / `SpanEnd`), so
//! every sink — recorder or flight recorder — sees them with no new
//! plumbing. Identifiers are **derived**, never drawn
//! from a clock or a global counter: a [`TraceId`] hashes a scope seed
//! with the arrival index (splitmix64), and every [`SpanId`] hashes its
//! trace with a small per-trace sequence number. Two runs of the same
//! workload therefore produce byte-identical trace output, and a span
//! can be reconstructed (or predicted) from `(seed, arrival, seq)`
//! without any shared mutable state.
//!
//! ## Sequence-number convention
//!
//! Within one trace the span salts are partitioned so the engine and the
//! cluster never collide:
//!
//! | salt                 | span                                    |
//! |----------------------|-----------------------------------------|
//! | `0`                  | request root (arrival → departure)      |
//! | `1`                  | admission (queue wait, defer/admit)     |
//! | `2 + i`              | i-th per-cycle service of the stream    |
//! | `SEQ_DISPATCH`       | cluster dispatch attempt                |
//! | `SEQ_RETRY`          | overflow-queue retry / final flush      |
//! | `SEQ_HOP_DISPATCH`   | redirection hop taken at dispatch       |
//! | `SEQ_HOP_RETRY`      | redirection hop taken at retry          |
//! | `SEQ_FAILOVER`       | failover migration of an evicted stream |
//!
//! The cluster salts live above `1 << 62`, far beyond any realistic
//! service count, so the two spaces cannot overlap.

use core::fmt;

use vod_types::Instant;

use crate::event::{Event, EventKind};
use crate::sink::Obs;

/// splitmix64 finalizer: a fast, well-mixed 64-bit permutation.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Salt for the request root span (arrival → departure).
pub const SEQ_REQUEST: u64 = 0;
/// Salt for the admission span (queue entry → admit/refuse).
pub const SEQ_ADMISSION: u64 = 1;
/// Salt of a stream's first per-cycle service span; the i-th service
/// uses `SEQ_FIRST_SERVICE + i`.
pub const SEQ_FIRST_SERVICE: u64 = 2;
/// Salt for the cluster dispatch span.
pub const SEQ_DISPATCH: u64 = 1 << 62;
/// Salt for the overflow-queue retry (or end-of-run flush) span.
pub const SEQ_RETRY: u64 = (1 << 62) | 1;
/// Salt for a redirection hop taken during initial dispatch.
pub const SEQ_HOP_DISPATCH: u64 = (1 << 62) | 2;
/// Salt for a redirection hop taken when an overflow retry lands.
pub const SEQ_HOP_RETRY: u64 = (1 << 62) | 3;
/// Salt for a failover span (a stream migrated off a crashed node).
pub const SEQ_FAILOVER: u64 = (1 << 62) | 4;

/// Identifies one request's journey end to end (across cluster hops).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The "no trace" sentinel carried by untraced streams.
    pub const NONE: TraceId = TraceId(0);

    /// Derives the trace for the `index`-th arrival under `seed`.
    ///
    /// Purely a hash — no clock, no counter — so the same `(seed,
    /// index)` always names the same trace. The result is never
    /// [`TraceId::NONE`].
    #[must_use]
    pub fn derive(seed: u64, index: u64) -> Self {
        let id = mix64(seed ^ mix64(index));
        TraceId(if id == 0 { 1 } else { id })
    }

    /// Wraps a raw id (for parsers reconstructing traces from JSONL).
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The raw 64-bit id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True when this is the [`TraceId::NONE`] sentinel.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The 16-hex-digit form used in JSONL (exact — u64 does not
    /// survive a round-trip through f64 JSON numbers).
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifies one span within (and derived from) a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// Derives the span with sequence `seq` inside `trace` (see the
    /// module docs for the salt convention).
    #[must_use]
    pub fn derive(trace: TraceId, seq: u64) -> Self {
        SpanId(mix64(trace.raw() ^ mix64(seq)))
    }

    /// Wraps a raw id (for parsers reconstructing traces from JSONL).
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        SpanId(raw)
    }

    /// The raw 64-bit id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The 16-hex-digit form used in JSONL.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What stage of the request path a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The request root: arrival to departure (or refusal).
    Request,
    /// Queue wait at the admission controller.
    Admission,
    /// One per-cycle buffer refill.
    Service,
    /// One engine service cycle (engine-scoped, not per-request).
    Cycle,
    /// A cluster dispatch attempt for one arrival.
    Dispatch,
    /// One redirection hop between cluster nodes.
    Hop,
    /// A failover migration of one stream off a crashed node.
    Failover,
}

impl SpanKind {
    /// Every kind, in a stable order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Request,
        SpanKind::Admission,
        SpanKind::Service,
        SpanKind::Cycle,
        SpanKind::Dispatch,
        SpanKind::Hop,
        SpanKind::Failover,
    ];

    /// Stable snake_case label (the `span_kind` field in JSONL).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Admission => "admission",
            SpanKind::Service => "service",
            SpanKind::Cycle => "cycle",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Hop => "hop",
            SpanKind::Failover => "failover",
        }
    }

    /// Parses a label back (for the trace analyzer).
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        SpanKind::ALL.iter().copied().find(|k| k.label() == s)
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanStatus {
    /// Normal completion.
    Ok,
    /// Admission span: the request entered service.
    Admitted,
    /// Admission or request span: rejected outright.
    Refused,
    /// Cluster dispatch span: no node would accept; parked on the
    /// overflow queue. An anomaly trigger for the flight recorder.
    Parked,
}

impl SpanStatus {
    /// Every status, in a stable order.
    pub const ALL: [SpanStatus; 4] = [
        SpanStatus::Ok,
        SpanStatus::Admitted,
        SpanStatus::Refused,
        SpanStatus::Parked,
    ];

    /// Stable snake_case label (the `status` field in JSONL).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Admitted => "admitted",
            SpanStatus::Refused => "refused",
            SpanStatus::Parked => "parked",
        }
    }

    /// Parses a label back (for the trace analyzer).
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        SpanStatus::ALL.iter().copied().find(|k| k.label() == s)
    }
}

impl fmt::Display for SpanStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A span-annotation value. Keys are `&'static str` and values are
/// `Copy` so annotation events allocate nothing on the emit path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AnnoValue {
    /// An unsigned integer (counts, ids, node indexes).
    U64(u64),
    /// A float (durations, sizes).
    F64(f64),
    /// A static label (reasons, constraint names).
    Str(&'static str),
}

impl fmt::Display for AnnoValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AnnoValue::U64(v) => write!(f, "{v}"),
            AnnoValue::F64(v) => write!(f, "{v}"),
            AnnoValue::Str(v) => f.write_str(v),
        }
    }
}

impl Obs {
    /// True when span events would be recorded. Emitters check this once
    /// and skip all id derivation when tracing is off, so a detached
    /// handle pays one `Option` check per site and allocates nothing.
    #[inline]
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.enabled(EventKind::SpanStart)
    }

    /// Emits a span-start event.
    #[inline]
    pub fn span_start(
        &self,
        at: Instant,
        trace: TraceId,
        span: SpanId,
        parent: Option<SpanId>,
        kind: SpanKind,
    ) {
        self.emit(&Event::SpanStart {
            at,
            trace,
            span,
            parent,
            span_kind: kind,
        });
    }

    /// Emits a key/value annotation on an open span.
    #[inline]
    pub fn span_annotate(
        &self,
        at: Instant,
        trace: TraceId,
        span: SpanId,
        key: &'static str,
        value: AnnoValue,
    ) {
        self.emit(&Event::SpanAnnotate {
            at,
            trace,
            span,
            key,
            value,
        });
    }

    /// Emits a span-end event.
    #[inline]
    pub fn span_end(&self, at: Instant, trace: TraceId, span: SpanId, status: SpanStatus) {
        self.emit(&Event::SpanEnd {
            at,
            trace,
            span,
            status,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderSink;
    use std::sync::Arc;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        assert_eq!(TraceId::derive(7, 0), TraceId::derive(7, 0));
        assert_ne!(TraceId::derive(7, 0), TraceId::derive(7, 1));
        assert_ne!(TraceId::derive(7, 0), TraceId::derive(8, 0));
        assert!(!TraceId::derive(0, 0).is_none());
    }

    #[test]
    fn span_ids_partition_by_seq() {
        let t = TraceId::derive(1, 2);
        let mut ids: Vec<u64> = [
            SEQ_REQUEST,
            SEQ_ADMISSION,
            SEQ_FIRST_SERVICE,
            SEQ_FIRST_SERVICE + 1,
            SEQ_DISPATCH,
            SEQ_RETRY,
            SEQ_HOP_DISPATCH,
            SEQ_HOP_RETRY,
            SEQ_FAILOVER,
        ]
        .iter()
        .map(|&s| SpanId::derive(t, s).raw())
        .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 9, "seq salts must not collide");
    }

    #[test]
    fn hex_round_trips() {
        let t = TraceId::derive(42, 9);
        let parsed = u64::from_str_radix(&t.hex(), 16).unwrap();
        assert_eq!(TraceId::from_raw(parsed), t);
        assert_eq!(t.hex().len(), 16);
    }

    #[test]
    fn labels_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_label(k.label()), Some(k));
        }
        for s in SpanStatus::ALL {
            assert_eq!(SpanStatus::from_label(s.label()), Some(s));
        }
        assert_eq!(SpanKind::from_label("nope"), None);
        assert_eq!(SpanStatus::from_label("nope"), None);
    }

    #[test]
    fn span_emitters_record_start_annotate_end() {
        let rec = Arc::new(RecorderSink::with_capacity(16));
        let obs = Obs::new(rec.clone());
        let t = TraceId::derive(1, 0);
        let id = SpanId::derive(t, SEQ_REQUEST);
        obs.span_start(Instant::ZERO, t, id, None, SpanKind::Request);
        obs.span_annotate(Instant::from_secs(1.0), t, id, "video", AnnoValue::U64(3));
        obs.span_end(Instant::from_secs(2.0), t, id, SpanStatus::Ok);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(EventKind::SpanStart), 1);
        assert_eq!(snap.counter(EventKind::SpanAnnotate), 1);
        assert_eq!(snap.counter(EventKind::SpanEnd), 1);
    }

    #[test]
    fn detached_obs_reports_tracing_off() {
        assert!(!Obs::null().tracing());
        let rec = Arc::new(RecorderSink::with_capacity(4));
        assert!(Obs::new(rec).tracing());
    }
}
