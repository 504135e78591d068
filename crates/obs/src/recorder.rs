//! The in-memory [`RecorderSink`]: bounded event capture, per-kind
//! counters, and log-bucketed histograms, with JSON/JSONL export.

use std::sync::Mutex;

use crate::event::{Event, EventKind};
use crate::json;
use crate::metrics::{HistoSnapshot, LogHistogram};
use crate::sink::Sink;

/// Name of the recorder's service-latency histogram (seconds).
pub const HIST_SERVICE_LATENCY: &str = "service_latency_s";
/// Name of the recorder's cycle-slack histogram (seconds).
pub const HIST_CYCLE_SLACK: &str = "cycle_slack_s";
/// Name of the recorder's pool-occupancy histogram (MiB).
pub const HIST_POOL_OCCUPANCY: &str = "pool_occupancy_mib";

struct RecorderState {
    counters: [u64; EventKind::COUNT],
    events: Vec<Event<'static>>,
    events_dropped: u64,
    spans_dropped: u64,
    service_latency: LogHistogram,
    cycle_slack: LogHistogram,
    pool_occupancy: LogHistogram,
}

/// An in-memory sink: counts every event, histograms the interesting
/// distributions, and keeps up to `capacity` raw events for JSONL export
/// (overflow is counted, not silently discarded).
///
/// Thread-safe via an internal `std::sync::Mutex` — safe to share across
/// the multi-seed runner's worker threads.
pub struct RecorderSink {
    state: Mutex<RecorderState>,
    capacity: usize,
    enabled: [bool; EventKind::COUNT],
}

/// Default bounded event capacity (events beyond this are counted as
/// dropped but still feed counters and histograms).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

impl RecorderSink {
    /// A recorder holding up to [`DEFAULT_CAPACITY`] raw events.
    #[must_use]
    pub fn new() -> Self {
        RecorderSink::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding up to `capacity` raw events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        RecorderSink {
            state: Mutex::new(RecorderState {
                counters: [0; EventKind::COUNT],
                events: Vec::with_capacity(capacity.min(4096)),
                events_dropped: 0,
                spans_dropped: 0,
                service_latency: LogHistogram::new(),
                cycle_slack: LogHistogram::new(),
                pool_occupancy: LogHistogram::new(),
            }),
            capacity,
            enabled: [true; EventKind::COUNT],
        }
    }

    /// Restricts the recorder to `kinds`: other kinds are reported as
    /// disabled (so `emit_with` callers skip building them entirely) and
    /// ignored if recorded anyway. Use for long traced runs where only a
    /// subset of the stream is wanted — e.g. the cluster trace keeps span
    /// lifecycles plus admission outcomes and drops per-cycle telemetry
    /// that would otherwise overflow the capacity bound.
    #[must_use]
    pub fn with_kinds(mut self, kinds: &[EventKind]) -> Self {
        self.enabled = [false; EventKind::COUNT];
        for &k in kinds {
            self.enabled[k.index()] = true;
        }
        self
    }

    /// An immutable copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> RecorderSnapshot {
        let st = self.state.lock().expect("recorder mutex poisoned");
        RecorderSnapshot {
            counters: st.counters,
            events: st.events.clone(),
            events_dropped: st.events_dropped,
            spans_dropped: st.spans_dropped,
            histograms: vec![
                st.service_latency.snapshot(HIST_SERVICE_LATENCY),
                st.cycle_slack.snapshot(HIST_CYCLE_SLACK),
                st.pool_occupancy.snapshot(HIST_POOL_OCCUPANCY),
            ],
        }
    }
}

impl Default for RecorderSink {
    fn default() -> Self {
        RecorderSink::new()
    }
}

impl Sink for RecorderSink {
    fn enabled(&self, kind: EventKind) -> bool {
        self.enabled[kind.index()]
    }

    fn record(&self, event: &Event<'static>) {
        if !self.enabled[event.kind().index()] {
            return;
        }
        let mut st = self.state.lock().expect("recorder mutex poisoned");
        st.counters[event.kind().index()] += 1;
        match *event {
            Event::StreamServiced { duration, .. } => {
                st.service_latency.record(duration.as_secs_f64());
            }
            Event::CyclePlanned {
                start,
                due_min: Some(due),
                ..
            } => {
                st.cycle_slack.record((due - start).as_secs_f64());
            }
            Event::PoolOccupancy { used, .. } => {
                st.pool_occupancy.record(used.as_mebibytes());
            }
            _ => {}
        }
        if st.events.len() < self.capacity {
            st.events.push(*event);
        } else if event.kind().is_span() {
            st.spans_dropped += 1;
        } else {
            st.events_dropped += 1;
        }
    }
}

/// An immutable view of a [`RecorderSink`] at snapshot time.
#[derive(Clone, Debug)]
pub struct RecorderSnapshot {
    counters: [u64; EventKind::COUNT],
    events: Vec<Event<'static>>,
    events_dropped: u64,
    spans_dropped: u64,
    histograms: Vec<HistoSnapshot>,
}

impl RecorderSnapshot {
    /// Number of events of `kind` recorded (dropped events included).
    #[must_use]
    pub fn counter(&self, kind: EventKind) -> u64 {
        self.counters[kind.index()]
    }

    /// Raw events retained (at most the recorder's capacity).
    #[must_use]
    pub fn events(&self) -> &[Event<'static>] {
        &self.events
    }

    /// Total records that exceeded capacity (events plus spans; each is
    /// still counted and histogrammed, just not kept).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.events_dropped + self.spans_dropped
    }

    /// Non-span events that exceeded capacity.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Span records (`span_start`/`span_annotate`/`span_end`) that
    /// exceeded capacity.
    #[must_use]
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// The three built-in histograms: service latency, cycle slack, and
    /// pool occupancy.
    #[must_use]
    pub fn histograms(&self) -> &[HistoSnapshot] {
        &self.histograms
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistoSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders counters and histograms (not raw events) as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = json::Object::new();
        for k in EventKind::ALL {
            counters.uint(k.label(), self.counter(k));
        }
        let mut hists = json::Object::new();
        for h in &self.histograms {
            hists.raw(&h.name, &h.to_json());
        }
        let mut o = json::Object::new();
        o.raw("counters", &counters.finish());
        o.uint("events_recorded", self.events.len() as u64);
        o.uint("events_dropped", self.events_dropped);
        o.uint("spans_dropped", self.spans_dropped);
        o.raw("histograms", &hists.finish());
        o.finish()
    }

    /// Renders the retained events as JSONL (one event per line, trailing
    /// newline included when non-empty).
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceId;
    use vod_types::{Bits, Instant, Seconds};

    fn underflow(t: f64) -> Event<'static> {
        Event::Underflow {
            at: Instant::from_secs(t),
            trace: TraceId::derive(0, 1),
            n: 1,
            deficit: Bits::new(8.0),
        }
    }

    #[test]
    fn recorder_counts_and_bounds_events() {
        let rec = RecorderSink::with_capacity(2);
        for t in 0..4 {
            rec.record(&underflow(f64::from(t)));
        }
        let s = rec.snapshot();
        assert_eq!(s.counter(EventKind::Underflow), 4);
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.dropped(), 2);
        let jsonl = s.export_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with("{\"kind\":\"underflow\"")));
    }

    #[test]
    fn recorder_splits_event_and_span_drops() {
        use crate::span::{SpanId, SpanKind, SpanStatus, TraceId};
        let rec = RecorderSink::with_capacity(1);
        rec.record(&underflow(0.0)); // retained
        rec.record(&underflow(1.0)); // dropped event
        let trace = TraceId::derive(1, 0);
        let span = SpanId::derive(trace, 0);
        rec.record(&Event::SpanStart {
            at: Instant::from_secs(2.0),
            trace,
            span,
            parent: None,
            span_kind: SpanKind::Request,
        }); // dropped span
        rec.record(&Event::SpanEnd {
            at: Instant::from_secs(3.0),
            trace,
            span,
            status: SpanStatus::Ok,
        }); // dropped span
        let s = rec.snapshot();
        assert_eq!(s.events_dropped(), 1);
        assert_eq!(s.spans_dropped(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.counter(EventKind::SpanStart), 1, "dropped still counted");
        let j = s.to_json();
        assert!(j.contains("\"events_dropped\":1"), "{j}");
        assert!(j.contains("\"spans_dropped\":2"), "{j}");
    }

    #[test]
    fn kind_filter_disables_and_ignores_other_kinds() {
        use crate::span::{SpanId, SpanKind, TraceId};
        let rec = RecorderSink::new().with_kinds(&[EventKind::SpanStart]);
        assert!(rec.enabled(EventKind::SpanStart));
        assert!(!rec.enabled(EventKind::Underflow));
        rec.record(&underflow(0.0)); // filtered out entirely
        let trace = TraceId::derive(1, 0);
        rec.record(&Event::SpanStart {
            at: Instant::ZERO,
            trace,
            span: SpanId::derive(trace, 0),
            parent: None,
            span_kind: SpanKind::Request,
        });
        let s = rec.snapshot();
        assert_eq!(s.counter(EventKind::Underflow), 0, "not even counted");
        assert_eq!(s.counter(EventKind::SpanStart), 1);
        assert_eq!(s.events().len(), 1);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn recorder_feeds_histograms() {
        let rec = RecorderSink::new();
        rec.record(&Event::StreamServiced {
            at: Instant::from_secs(1.0),
            trace: TraceId::derive(0, 1),
            n: 2,
            k: 1,
            read: Bits::new(100.0),
            size: Bits::new(200.0),
            duration: Seconds::from_secs(0.15),
            first_fill: true,
        });
        rec.record(&Event::CyclePlanned {
            at: Instant::ZERO,
            start: Instant::from_secs(1.0),
            planned: Instant::ZERO,
            n: 2,
            due_min: Some(Instant::from_secs(1.4)),
            insertion_budget: 3,
        });
        rec.record(&Event::CyclePlanned {
            at: Instant::ZERO,
            start: Instant::from_secs(1.0),
            planned: Instant::ZERO,
            n: 2,
            due_min: None,
            insertion_budget: usize::MAX,
        });
        let s = rec.snapshot();
        assert_eq!(s.histogram(HIST_SERVICE_LATENCY).unwrap().count, 1);
        // Only the cycle with a known deadline contributes slack.
        assert_eq!(s.histogram(HIST_CYCLE_SLACK).unwrap().count, 1);
        let slack = s.histogram(HIST_CYCLE_SLACK).unwrap();
        assert!((slack.sum - 0.4).abs() < 1e-9);
    }

    #[test]
    fn summary_json_lists_all_counters() {
        let s = RecorderSink::new().snapshot();
        let j = s.to_json();
        for k in EventKind::ALL {
            assert!(j.contains(&format!("\"{}\":0", k.label())), "{j}");
        }
        assert!(j.contains("\"events_recorded\":0"), "{j}");
        assert!(j.contains("\"histograms\":{"), "{j}");
    }
}
