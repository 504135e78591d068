//! The on-anomaly [`FlightRecorder`]: a bounded ring of the most recent
//! events and spans, dumped as JSONL when something goes wrong.
//!
//! The recorder is a [`Sink`] like any other, so it can tee alongside a
//! [`RecorderSink`](crate::RecorderSink) or run alone. Writers never
//! block: each record claims a slot index from an atomic cursor and
//! `try_lock`s just that slot — if another thread happens to hold the
//! same slot (only possible once the cursor laps the ring), the write is
//! counted as dropped instead of waiting. The ring therefore always
//! holds (approximately) the last `capacity` records, which is exactly
//! the context you want attached to an anomaly.
//!
//! ## Anomaly triggers
//!
//! A dump fires automatically when the recorder sees:
//!
//! * an [`Underflow`](crate::Event::Underflow) — a stream starved;
//! * a [`RequestRejected`](crate::Event::RequestRejected) — admission
//!   overflow (disk or memory bound hit);
//! * a [`SpanEnd`](crate::Event::SpanEnd) with status
//!   [`Parked`](crate::span::SpanStatus::Parked) — a cluster arrival no
//!   node would take;
//!
//! and manually via [`FlightRecorder::trigger`], for a caller that
//! detects a failure of its own. Dumps are capped (default
//! [`DEFAULT_MAX_DUMPS`]) so an anomaly storm cannot fill the disk; the
//! anomaly *count* keeps incrementing past the cap.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::{Event, EventKind};
use crate::json;
use crate::sink::Sink;
use crate::span::SpanStatus;

/// Default ring capacity (records retained at dump time).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Default cap on dumps written per recorder instance.
pub const DEFAULT_MAX_DUMPS: u64 = 8;

/// A bounded, non-blocking ring of recent events with on-anomaly JSONL
/// dumps. See the module docs for the design and trigger list.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Event>>>,
    cursor: AtomicU64,
    dropped: AtomicU64,
    anomalies: AtomicU64,
    dumps_written: AtomicU64,
    max_dumps: u64,
    path: Option<PathBuf>,
    dump_log: Mutex<Vec<String>>,
}

impl FlightRecorder {
    /// A recorder retaining the last [`DEFAULT_FLIGHT_CAPACITY`] records.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` records (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            anomalies: AtomicU64::new(0),
            dumps_written: AtomicU64::new(0),
            max_dumps: DEFAULT_MAX_DUMPS,
            path: None,
            dump_log: Mutex::new(Vec::new()),
        }
    }

    /// Appends every dump to `path` (JSONL; the file is created on the
    /// first dump). Without a path, dumps are only retained in memory —
    /// see [`FlightRecorder::last_dump`].
    #[must_use]
    pub fn with_path(mut self, path: impl AsRef<Path>) -> Self {
        self.path = Some(path.as_ref().to_path_buf());
        self
    }

    /// Records seen so far (dropped ones included).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Writes lost to slot contention (ring laps under concurrency).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Anomalies observed (automatic triggers plus manual
    /// [`FlightRecorder::trigger`] calls), including ones past the dump
    /// cap.
    #[must_use]
    pub fn anomalies(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    /// Dumps actually written (≤ the configured cap).
    #[must_use]
    pub fn dumps_written(&self) -> u64 {
        self.dumps_written.load(Ordering::Relaxed)
    }

    /// The most recent dump's JSONL text, if any dump has fired.
    #[must_use]
    pub fn last_dump(&self) -> Option<String> {
        self.dump_log
            .lock()
            .expect("flight dump log poisoned")
            .last()
            .cloned()
    }

    /// Fires a dump manually (e.g. on a caller-detected failure). Counted
    /// as an anomaly; writes nothing once the dump cap is reached.
    pub fn trigger(&self, reason: &str) {
        self.anomalies.fetch_add(1, Ordering::Relaxed);
        // Claim a dump ticket; tickets at or past the cap are no-ops.
        let ticket = self.dumps_written.fetch_add(1, Ordering::Relaxed);
        if ticket >= self.max_dumps {
            self.dumps_written.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let dump = self.render_dump(reason);
        if let Some(path) = &self.path {
            if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
                let _ = f.write_all(dump.as_bytes());
            }
        }
        self.dump_log
            .lock()
            .expect("flight dump log poisoned")
            .push(dump);
    }

    /// Renders the ring (oldest → newest) behind a `flight_dump` marker
    /// line carrying the trigger reason and cursor position.
    fn render_dump(&self, reason: &str) -> String {
        let seq = self.cursor.load(Ordering::Acquire);
        let len = self.slots.len() as u64;
        let start = seq.saturating_sub(len);
        let mut events = Vec::with_capacity(self.slots.len());
        for s in start..seq {
            let slot = &self.slots[(s % len) as usize];
            if let Some(e) = *slot.lock().expect("flight slot poisoned") {
                events.push(e);
            }
        }
        let mut marker = json::Object::new();
        marker.str("kind", "flight_dump");
        marker.str("reason", reason);
        marker.uint("seq", seq);
        marker.uint("events", events.len() as u64);
        marker.uint("dropped", self.dropped());
        let mut out = marker.finish();
        out.push('\n');
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// The automatic trigger table (see the module docs).
    fn anomaly_reason(event: &Event) -> Option<&'static str> {
        match event {
            Event::Underflow { .. } => Some("underflow"),
            Event::RequestRejected { .. } => Some("overflow_rejection"),
            Event::SpanEnd {
                status: SpanStatus::Parked,
                ..
            } => Some("cluster_queue_park"),
            _ => None,
        }
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl Sink for FlightRecorder {
    fn enabled(&self, _kind: EventKind) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        let seq = self.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut s) => *s = Some(*event),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(reason) = FlightRecorder::anomaly_reason(event) {
            self.trigger(reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, TraceId};
    use vod_types::{Bits, Instant, RequestId};

    fn cycle(t: f64) -> Event {
        Event::CyclePlanned {
            at: Instant::from_secs(t),
            start: Instant::from_secs(t),
            planned: Instant::from_secs(t),
            n: 1,
            due_min: None,
            insertion_budget: 0,
        }
    }

    fn underflow(t: f64) -> Event {
        Event::Underflow {
            at: Instant::from_secs(t),
            id: RequestId::new(1),
            n: 1,
            deficit: Bits::new(8.0),
        }
    }

    #[test]
    fn ring_keeps_only_the_most_recent_records() {
        let fr = FlightRecorder::with_capacity(3);
        for t in 0..10 {
            fr.record(&cycle(f64::from(t)));
        }
        fr.trigger("manual");
        let dump = fr.last_dump().expect("dump fired");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4, "marker + 3 retained records: {dump}");
        assert!(lines[0].contains("\"kind\":\"flight_dump\""));
        assert!(lines[0].contains("\"reason\":\"manual\""));
        assert!(lines[1].contains("\"t\":7"), "oldest retained is t=7");
        assert!(lines[3].contains("\"t\":9"), "newest retained is t=9");
    }

    #[test]
    fn underflow_and_rejection_auto_trigger() {
        let fr = FlightRecorder::with_capacity(8);
        fr.record(&cycle(0.0));
        assert_eq!(fr.anomalies(), 0);
        fr.record(&underflow(1.0));
        assert_eq!(fr.anomalies(), 1);
        assert!(fr.last_dump().unwrap().contains("\"reason\":\"underflow\""));
        fr.record(&Event::RequestRejected {
            at: Instant::from_secs(2.0),
            n: 3,
            reason: crate::RejectReason::DiskFull,
        });
        assert_eq!(fr.anomalies(), 2);
        assert!(fr
            .last_dump()
            .unwrap()
            .contains("\"reason\":\"overflow_rejection\""));
    }

    #[test]
    fn parked_span_end_auto_triggers() {
        let fr = FlightRecorder::with_capacity(8);
        let trace = TraceId::derive(1, 0);
        fr.record(&Event::SpanEnd {
            at: Instant::from_secs(1.0),
            trace,
            span: SpanId::derive(trace, crate::span::SEQ_DISPATCH),
            status: SpanStatus::Parked,
        });
        assert_eq!(fr.anomalies(), 1);
        assert!(fr
            .last_dump()
            .unwrap()
            .contains("\"reason\":\"cluster_queue_park\""));
        // A normally ended span is not an anomaly.
        fr.record(&Event::SpanEnd {
            at: Instant::from_secs(2.0),
            trace,
            span: SpanId::derive(trace, crate::span::SEQ_DISPATCH),
            status: SpanStatus::Ok,
        });
        assert_eq!(fr.anomalies(), 1);
    }

    #[test]
    fn dump_cap_bounds_output_but_not_the_anomaly_count() {
        let fr = FlightRecorder::with_capacity(4);
        let storm = DEFAULT_MAX_DUMPS + 3;
        for t in 0..storm {
            fr.record(&underflow(t as f64));
        }
        assert_eq!(fr.anomalies(), storm);
        assert_eq!(fr.dumps_written(), DEFAULT_MAX_DUMPS);
        assert_eq!(
            fr.dump_log.lock().unwrap().len() as u64,
            DEFAULT_MAX_DUMPS,
            "no dumps past the cap"
        );
    }

    #[test]
    fn dumps_append_to_the_configured_file() {
        let path =
            std::env::temp_dir().join(format!("vod-flight-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fr = FlightRecorder::with_capacity(4).with_path(&path);
        fr.record(&cycle(0.0));
        fr.record(&underflow(1.0));
        let text = std::fs::read_to_string(&path).expect("dump file written");
        assert!(text.starts_with("{\"kind\":\"flight_dump\""), "{text}");
        assert!(text.contains("\"kind\":\"underflow\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
