//! Structured observability for the VOD engine.
//!
//! The simulators and the admission controller emit typed [`Event`]s
//! describing the engine lifecycle — cycles planned, streams serviced,
//! requests admitted/deferred/rejected, buffers allocated/resized/freed,
//! estimator clamps, underflows, and pool-occupancy high-water marks —
//! into a [`Sink`]. With no sink attached, the [`Obs`] handle's
//! `enabled()` fast path makes instrumentation near-free (a single
//! `Option` check, no event construction). The crate ships these sinks:
//!
//! * [`RecorderSink`] — an in-memory recorder with bounded event
//!   capacity, per-kind counters, [`LogHistogram`]s (service latency,
//!   cycle slack, pool occupancy), and JSONL export.
//! * [`FlightRecorder`] — keeps only a bounded ring of the most recent
//!   records and dumps them as JSONL when an anomaly fires (underflow,
//!   overflow rejection, cluster queue park, or a manual trigger).
//! * [`TeeSink`] — fans one event stream out to two sinks, so the
//!   flight recorder can ride alongside a full recorder.
//!
//! Library constructors never read the environment: a simulator built
//! without an observer is detached. To see engine events, attach a sink
//! (`repro --trace` writes them as JSONL).
//!
//! # Spans
//!
//! [`span`] layers request-lifecycle tracing over the same event
//! stream: deterministic [`TraceId`]/[`SpanId`]s derived from seed +
//! arrival index (never a clock), emitted as `SpanStart` /
//! `SpanAnnotate` / `SpanEnd` [`Event`] variants so every sink sees
//! them unchanged. Spans carry a request's lifecycle and events its
//! numbers; each per-request event names its request's [`TraceId`], so
//! the two join on it.
//!
//! # Determinism
//!
//! Events carry only simulated time ([`vod_types::Instant`]) and values
//! the engine already computed; emission never feeds back into the
//! simulation. A run with any sink attached is bit-identical to a run
//! with none — `vod-sim` asserts this in its test suite.
//!
//! # Aggregate metrics and profiling
//!
//! Orthogonal to the event stream, [`metrics`] provides a lock-free
//! [`MetricsRegistry`] of log-bucketed wall-clock phase histograms that
//! never drops and never allocates on the hot path. It holds no run
//! count: those live once, in each run's report. Phase timings read the
//! clock only when a registry is attached: coarse phases through
//! [`Histo::time`], the engine once or twice per cycle. [`prom`]
//! renders a registry snapshot in the Prometheus text format. An [`Obs`] handle
//! can carry a [`Metrics`] handle alongside its sink
//! ([`Obs::with_metrics`]), so one handle threads both through the
//! engine.
//!
//! # Trace files
//!
//! [`trace`] is the format of every `--trace` and flight-dump file:
//! [`TraceLine`] and [`Event`] write each line kind and parse it back,
//! so the schema is these types.
//!
//! # No external dependencies
//!
//! JSON is hand-rolled ([`json`]: the writer and the parser of bench
//! documents and trace lines); the recorder uses `std::sync::Mutex`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod recorder;
pub mod sink;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use event::{Event, EventKind, RejectReason};
pub use flight::FlightRecorder;
pub use metrics::{Histo, HistoSnapshot, LogHistogram, Metrics, MetricsRegistry, MetricsSnapshot};
pub use recorder::{
    RecorderSink, RecorderSnapshot, HIST_CYCLE_SLACK, HIST_POOL_OCCUPANCY, HIST_SERVICE_LATENCY,
};
pub use sink::{Obs, Sink, TeeSink};
pub use span::{AnnoValue, SpanId, SpanKind, SpanStatus, TraceId};
pub use timeseries::{Point, Series, SeriesRecorder, TimeSeries};
pub use trace::{
    CellHeader, CellSummary, ChaosCounters, ChaosHeader, NodeRedirects, SeriesLine, TraceLine,
};
