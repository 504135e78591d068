//! Typed engine-lifecycle events, and their trace-line form.
//!
//! [`Event::to_json`] writes an event as one JSONL object and
//! [`Event::from_json`] reads it back, next to each other: the two
//! together are the schema of every event line of a trace file (the
//! non-event lines are [`crate::trace::TraceLine`]'s).

use core::fmt;

use vod_types::{Bits, Instant, Seconds};

use crate::json::{Json, Object};
use crate::span::{AnnoValue, SpanId, SpanKind, SpanStatus, TraceId};
use crate::trace::{field, Field};

/// Why a request was rejected outright (as opposed to deferred).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The disk is at its stream bound `N` (queued requests included).
    DiskFull,
    /// The memory reservation for one more stream does not fit the budget.
    MemoryFull,
    /// The admission queue was drained at end of run (unreachable load).
    QueueDropped,
}

impl RejectReason {
    /// Stable snake_case label (used in JSON and stderr output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::DiskFull => "disk_full",
            RejectReason::MemoryFull => "memory_full",
            RejectReason::QueueDropped => "queue_dropped",
        }
    }

    /// Parses a [`RejectReason::label`] back.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        [
            RejectReason::DiskFull,
            RejectReason::MemoryFull,
            RejectReason::QueueDropped,
        ]
        .into_iter()
        .find(|r| r.label() == s)
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The discriminant of an [`Event`], used for filtering and counting.
/// Declared in index order, the order of the `event_lines!` table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A service cycle was planned and is about to start.
    CyclePlanned,
    /// One stream's buffer was refilled.
    StreamServiced,
    /// A queued request entered service.
    RequestAdmitted,
    /// Admission of the queue head was deferred (inertia assumptions).
    RequestDeferred,
    /// An arriving request was rejected outright.
    RequestRejected,
    /// A stream's first buffer was allocated.
    BufferAllocated,
    /// A live stream's allocation changed size.
    BufferResized,
    /// A departing stream's buffer was released.
    BufferFreed,
    /// The `k` estimate was clamped by Assumption 2 or the disk bound.
    EstimatorClamped,
    /// A stream consumed past its buffered data.
    Underflow,
    /// The buffer pool reached a new occupancy high-water mark.
    PoolOccupancy,
    /// A lifecycle span opened (see [`crate::span`]).
    SpanStart,
    /// A key/value annotation on an open span.
    SpanAnnotate,
    /// A lifecycle span closed.
    SpanEnd,
    /// A chaos fault was injected into a cluster node.
    FaultInjected,
    /// A cluster node recovered (rejoined) after a fault.
    NodeRecovered,
    /// A downed node's replica set was rebuilt onto surviving nodes.
    ReplicaRebuilt,
}

impl EventKind {
    /// True for the three span-lifecycle kinds.
    #[must_use]
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::SpanStart | EventKind::SpanAnnotate | EventKind::SpanEnd
        )
    }

    /// Parses an [`EventKind::label`] back.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        EventKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One engine-lifecycle event.
///
/// Every timestamp is **simulated** time — the event path never reads the
/// wall clock, so instrumented runs stay deterministic and replayable.
/// Emitters build `Event<'static>` from static labels; an event read back
/// from a trace line borrows its labels from that line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event<'a> {
    /// A service cycle is about to start.
    CyclePlanned {
        /// Current simulated time when the plan was made.
        at: Instant,
        /// When the cycle actually starts (≥ `at`).
        start: Instant,
        /// The planner's latest provably safe start (may precede `at`).
        planned: Instant,
        /// Streams in service.
        n: usize,
        /// Earliest buffer-drain deadline among live streams.
        due_min: Option<Instant>,
        /// Mid-cycle insertions the start time budgeted for.
        insertion_budget: usize,
    },
    /// One stream's buffer was refilled.
    StreamServiced {
        /// Completion time of the service (seek + transfer).
        at: Instant,
        /// The serviced stream's request trace.
        trace: TraceId,
        /// `n_c` used for the allocation.
        n: usize,
        /// `k_c` used for the allocation.
        k: usize,
        /// Data read from disk.
        read: Bits,
        /// Allocated buffer size.
        size: Bits,
        /// Duration of the service (disk latency + transfer).
        duration: Seconds,
        /// True when this was the stream's first fill.
        first_fill: bool,
    },
    /// A queued request entered service.
    RequestAdmitted {
        /// Admission time.
        at: Instant,
        /// The admitted request's trace.
        trace: TraceId,
        /// Streams in service after admission.
        n: usize,
        /// Queue wait: admission − arrival.
        waited: Seconds,
    },
    /// Admission of the queue head was deferred.
    RequestDeferred {
        /// Time of the failed attempt.
        at: Instant,
        /// The deferred request's trace.
        trace: TraceId,
        /// Streams in service at the attempt.
        n: usize,
    },
    /// An arriving request was rejected outright.
    RequestRejected {
        /// Rejection time.
        at: Instant,
        /// The rejected request's trace.
        trace: TraceId,
        /// Streams in service (queued included, as admission counts them).
        n: usize,
        /// Why the request could not be taken.
        reason: RejectReason,
    },
    /// A stream's first buffer was allocated.
    BufferAllocated {
        /// Allocation time.
        at: Instant,
        /// The owning stream's request trace.
        trace: TraceId,
        /// Allocated size.
        size: Bits,
    },
    /// A live stream's allocation changed size.
    BufferResized {
        /// Reallocation time.
        at: Instant,
        /// The owning stream's request trace.
        trace: TraceId,
        /// Previous allocation.
        old_size: Bits,
        /// New allocation.
        new_size: Bits,
    },
    /// A departing stream's buffer was released.
    BufferFreed {
        /// Departure time.
        at: Instant,
        /// The departing stream's request trace.
        trace: TraceId,
        /// Data still held at departure (released to the pool).
        released: Bits,
    },
    /// The `k` estimate was clamped below `k_log + α`.
    EstimatorClamped {
        /// Estimation time.
        at: Instant,
        /// Raw `k_log` from the arrival log.
        k_log: usize,
        /// `k_c` after clamping.
        k_clamped: usize,
        /// The binding cap (`min_i (k_i + α)` or the disk bound `N`).
        cap: usize,
    },
    /// A stream consumed past its buffered data.
    Underflow {
        /// Time the deficit was observed.
        at: Instant,
        /// The starved stream's request trace.
        trace: TraceId,
        /// Streams in service.
        n: usize,
        /// Unserved consumption.
        deficit: Bits,
    },
    /// The pool reached a new occupancy high-water mark.
    PoolOccupancy {
        /// Observation time.
        at: Instant,
        /// Occupancy at the observation: the new high-water mark.
        used: Bits,
        /// Streams holding buffers.
        streams: usize,
    },
    /// A lifecycle span opened.
    SpanStart {
        /// Open time.
        at: Instant,
        /// The owning trace.
        trace: TraceId,
        /// This span's id.
        span: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// What stage of the request path the span covers.
        span_kind: SpanKind,
    },
    /// A key/value annotation on an open span.
    SpanAnnotate {
        /// Annotation time.
        at: Instant,
        /// The owning trace.
        trace: TraceId,
        /// The annotated span.
        span: SpanId,
        /// Annotation key.
        key: &'a str,
        /// Annotation value.
        value: AnnoValue<'a>,
    },
    /// A lifecycle span closed.
    SpanEnd {
        /// Close time.
        at: Instant,
        /// The owning trace.
        trace: TraceId,
        /// The closing span.
        span: SpanId,
        /// How the span ended.
        status: SpanStatus,
    },
    /// A chaos fault was injected into a cluster node.
    FaultInjected {
        /// Injection time (simulated).
        at: Instant,
        /// The faulted node's index.
        node: usize,
        /// Stable fault label (`crash`, `slow`, `pressure`, `rejoin`).
        fault: &'a str,
    },
    /// A cluster node recovered (rejoined) after a fault.
    NodeRecovered {
        /// Recovery time (simulated).
        at: Instant,
        /// The recovered node's index.
        node: usize,
        /// True when the rejoin reused the shared `BS_k` table (warm);
        /// false when it paid a cold rebuild.
        warm: bool,
    },
    /// A node stayed down past the re-replication horizon and its movies
    /// were re-placed onto surviving nodes.
    ReplicaRebuilt {
        /// Rebuild time (simulated).
        at: Instant,
        /// The downed node whose hot set was re-placed.
        node: usize,
        /// Movies that gained a replacement replica.
        movies: usize,
    },
}

/// A cycle's insertion budget as a trace-line field: `usize::MAX`
/// (unconstrained) is written `null`.
struct Budget(usize);

impl Field<'_> for Budget {
    const WANT: &'static str = "an integer of at most 2^53, or null";

    fn write(self, o: &mut Object, key: &str) {
        (self.0 != usize::MAX).then_some(self.0).write(o, key);
    }

    fn read(v: &Json<'_>) -> Option<Self> {
        Option::<usize>::read(v).map(|b| Budget(b.unwrap_or(usize::MAX)))
    }
}

/// Reads field `$key` of `$line` as its [`Field`] type, or through the
/// wrapper `$codec`.
macro_rules! read_field {
    ($line:ident, $key:literal) => {
        field($line, $key)?
    };
    ($line:ident, $key:literal, $codec:ident) => {
        field::<$codec>($line, $key)?.0
    };
}

/// Every kind, from one list in declaration order: its label, then its
/// fields after `at` (written `t`) in write order, under their keys. A
/// field's [`Field`] type writes and reads it, or the wrapper named after
/// `as`.
macro_rules! event_lines {
    ($($kind:ident $label:literal { $($field:ident: $key:literal $(as $codec:ident)?),+ })+) => {
        impl EventKind {
            /// Number of distinct kinds.
            pub const COUNT: usize = [$($label),+].len();

            /// Every kind, in index order.
            pub const ALL: [EventKind; EventKind::COUNT] = [$(EventKind::$kind),+];

            /// Dense index (0-based, stable within a release).
            #[must_use]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case label (the `kind` field of the JSONL
            /// output).
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $label,)+
                }
            }
        }

        impl<'a> Event<'a> {
            /// The event's kind.
            #[must_use]
            pub fn kind(&self) -> EventKind {
                match self {
                    $(Event::$kind { .. } => EventKind::$kind,)+
                }
            }

            /// Simulated time of the event.
            #[must_use]
            pub fn at(&self) -> Instant {
                match *self {
                    $(Event::$kind { at, .. })|+ => at,
                }
            }

            /// One-line JSON object (no trailing newline) for JSONL
            /// export: `kind`, then `t`, then the kind's fields.
            ///
            /// Instants and durations are seconds, data sizes are bits.
            /// Every number is finite and every integer at most 2^53;
            /// `null` stands only for an absent `due_min`, an unbounded
            /// `insertion_budget` and a root span's `parent`. Ids are 16
            /// hex digits.
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut o = Object::new();
                o.str("kind", self.kind().label());
                self.at().write(&mut o, "t");
                match *self {
                    $(Event::$kind { $($field,)+ .. } => {
                        $($($codec)?($field).write(&mut o, $key);)+
                    })+
                }
                o.finish()
            }

            /// The fields of a line whose `kind` names `kind`.
            pub(crate) fn read(kind: EventKind, line: &Json<'a>) -> Result<Self, String> {
                let at = field(line, "t")?;
                Ok(match kind {
                    $(EventKind::$kind => Event::$kind {
                        at,
                        $($field: read_field!(line, $key $(, $codec)?),)+
                    },)+
                })
            }
        }
    };
}

event_lines! {
    CyclePlanned "cycle_planned" {
        start: "start", planned: "planned", n: "n", due_min: "due_min",
        insertion_budget: "insertion_budget" as Budget
    }
    StreamServiced "stream_serviced" {
        trace: "trace", n: "n", k: "k", read: "read_bits", size: "size_bits",
        duration: "duration_s", first_fill: "first_fill"
    }
    RequestAdmitted "request_admitted" { trace: "trace", n: "n", waited: "waited_s" }
    RequestDeferred "request_deferred" { trace: "trace", n: "n" }
    RequestRejected "request_rejected" { trace: "trace", n: "n", reason: "reason" }
    BufferAllocated "buffer_allocated" { trace: "trace", size: "size_bits" }
    BufferResized "buffer_resized" {
        trace: "trace", old_size: "old_size_bits", new_size: "new_size_bits"
    }
    BufferFreed "buffer_freed" { trace: "trace", released: "released_bits" }
    EstimatorClamped "estimator_clamped" { k_log: "k_log", k_clamped: "k_clamped", cap: "cap" }
    Underflow "underflow" { trace: "trace", n: "n", deficit: "deficit_bits" }
    PoolOccupancy "pool_occupancy" { used: "used_bits", streams: "streams" }
    SpanStart "span_start" {
        trace: "trace", span: "span", parent: "parent", span_kind: "span_kind"
    }
    SpanAnnotate "span_annotate" { trace: "trace", span: "span", key: "key", value: "value" }
    SpanEnd "span_end" { trace: "trace", span: "span", status: "status" }
    FaultInjected "fault_injected" { node: "node", fault: "fault" }
    NodeRecovered "node_recovered" { node: "node", warm: "warm" }
    ReplicaRebuilt "replica_rebuilt" { node: "node", movies: "movies" }
}

impl<'a> Event<'a> {
    /// Parses a line [`Event::to_json`] wrote, borrowing its labels from
    /// `line`.
    ///
    /// # Errors
    ///
    /// Names the kind and the problem when the kind is unknown or a field
    /// is missing, mistyped, `null` where the writer never writes `null`,
    /// or an unknown label. Extra fields are ignored.
    pub fn from_json(line: &Json<'a>) -> Result<Self, String> {
        let label: &str = field(line, "kind")?;
        EventKind::from_label(label)
            .ok_or_else(|| "unknown kind".to_owned())
            .and_then(|kind| Event::read(kind, line))
            .map_err(|e| format!("{label}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_densely() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::COUNT);
    }

    #[test]
    fn json_has_kind_and_time() {
        let trace = TraceId::derive(1, 7);
        let e = Event::Underflow {
            at: Instant::from_secs(12.5),
            trace,
            n: 3,
            deficit: Bits::new(64.0),
        };
        let j = e.to_json();
        assert!(j.starts_with("{\"kind\":\"underflow\""), "{j}");
        assert!(j.contains("\"t\":12.5"), "{j}");
        assert!(j.contains(&format!("\"trace\":\"{trace}\"")), "{j}");
        assert!(j.contains("\"deficit_bits\":64"), "{j}");
        assert!(j.ends_with('}'), "{j}");
    }

    #[test]
    fn span_json_uses_hex_ids() {
        let trace = TraceId::derive(5, 1);
        let span = SpanId::derive(trace, 0);
        let e = Event::SpanStart {
            at: Instant::from_secs(2.0),
            trace,
            span,
            parent: None,
            span_kind: SpanKind::Request,
        };
        let j = e.to_json();
        assert!(j.starts_with("{\"kind\":\"span_start\""), "{j}");
        assert!(j.contains(&format!("\"trace\":\"{trace}\"")), "{j}");
        assert!(j.contains(&format!("\"span\":\"{span}\"")), "{j}");
        assert!(j.contains("\"parent\":null"), "{j}");
        assert!(j.contains("\"span_kind\":\"request\""), "{j}");

        let end = Event::SpanEnd {
            at: Instant::from_secs(3.0),
            trace,
            span,
            status: SpanStatus::Admitted,
        };
        assert!(end.to_json().contains("\"status\":\"admitted\""));

        let anno = Event::SpanAnnotate {
            at: Instant::from_secs(2.5),
            trace,
            span,
            key: "hops",
            value: AnnoValue::U64(2),
        };
        let aj = anno.to_json();
        assert!(aj.contains("\"key\":\"hops\""), "{aj}");
        assert!(aj.contains("\"value\":2"), "{aj}");
    }

    #[test]
    fn unbounded_insertion_budget_is_null() {
        let e = Event::CyclePlanned {
            at: Instant::ZERO,
            start: Instant::ZERO,
            planned: Instant::ZERO,
            n: 0,
            due_min: None,
            insertion_budget: usize::MAX,
        };
        let j = e.to_json();
        assert!(j.contains("\"insertion_budget\":null"), "{j}");
        assert!(j.contains("\"due_min\":null"), "{j}");
    }
}
