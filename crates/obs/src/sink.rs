//! Event sinks and the [`Obs`] handle threaded through the engine.

use core::fmt;
use std::sync::Arc;

use crate::event::{Event, EventKind};
use crate::metrics::Metrics;

/// A destination for engine events.
///
/// `enabled` is the fast path: emitters check it before constructing an
/// event, so a sink that returns `false` costs one virtual call and no
/// allocation. `record` must tolerate concurrent callers (the multi-seed
/// runner emits from several threads into per-seed or shared sinks).
pub trait Sink: Send + Sync {
    /// Should events of `kind` be constructed and recorded?
    fn enabled(&self, kind: EventKind) -> bool;

    /// Records one event. Only called for kinds where `enabled` is true.
    fn record(&self, event: &Event);
}

/// Fans one event stream out to two sinks.
///
/// `enabled` is the union of the children's interests; `record` hands
/// the event to each child that wants its kind. Nest tees to fan out
/// wider (e.g. recorder + flight recorder + a third sink).
pub struct TeeSink {
    a: Arc<dyn Sink>,
    b: Arc<dyn Sink>,
}

impl TeeSink {
    /// A tee feeding both `a` and `b`.
    #[must_use]
    pub fn new(a: Arc<dyn Sink>, b: Arc<dyn Sink>) -> Self {
        TeeSink { a, b }
    }
}

impl Sink for TeeSink {
    fn enabled(&self, kind: EventKind) -> bool {
        self.a.enabled(kind) || self.b.enabled(kind)
    }

    fn record(&self, event: &Event) {
        let kind = event.kind();
        if self.a.enabled(kind) {
            self.a.record(event);
        }
        if self.b.enabled(kind) {
            self.b.record(event);
        }
    }
}

/// The handle emitters hold: either detached (free) or an attached sink.
///
/// Cloning is cheap (an `Arc` clone). The `#[inline]` fast paths mean a
/// detached handle costs a single `Option` discriminant check per
/// instrumentation site — the "provably near-zero overhead" the
/// simulators rely on to keep the hot loop unperturbed.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn Sink>>,
    metrics: Metrics,
}

impl Obs {
    /// A detached handle: nothing is constructed, nothing recorded.
    #[must_use]
    pub fn null() -> Self {
        Obs {
            sink: None,
            metrics: Metrics::null(),
        }
    }

    /// Attaches a sink.
    #[must_use]
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Obs {
            sink: Some(sink),
            metrics: Metrics::null(),
        }
    }

    /// Attaches a metrics handle, keeping any sink. The handle rides
    /// along wherever the `Obs` is threaded, so instrumented code can
    /// resolve counters and phase histograms from the observer it
    /// already holds.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The metrics handle carried by this observer (detached unless
    /// [`Obs::with_metrics`] attached one).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The attached sink, if any. Harnesses that swap in a temporary
    /// sink (a per-cell recorder, say) use this to tee the caller's
    /// sink alongside rather than silently dropping it.
    #[must_use]
    pub fn sink(&self) -> Option<Arc<dyn Sink>> {
        self.sink.clone()
    }

    /// True when a sink is attached.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.sink.is_some()
    }

    /// True when events of `kind` would be recorded. Check this before
    /// doing any work to *construct* an event.
    #[inline]
    #[must_use]
    pub fn enabled(&self, kind: EventKind) -> bool {
        match &self.sink {
            None => false,
            Some(s) => s.enabled(kind),
        }
    }

    /// Records `event` if its kind is enabled.
    #[inline]
    pub fn emit(&self, event: &Event) {
        if let Some(s) = &self.sink {
            if s.enabled(event.kind()) {
                s.record(event);
            }
        }
    }

    /// Constructs (via `build`) and records an event only when `kind` is
    /// enabled — the zero-cost path for events whose payload takes any
    /// work to assemble.
    #[inline]
    pub fn emit_with(&self, kind: EventKind, build: impl FnOnce() -> Event) {
        if let Some(s) = &self.sink {
            if s.enabled(kind) {
                s.record(&build());
            }
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderSink;
    use vod_types::{Bits, Instant, RequestId};

    #[test]
    fn null_obs_never_builds_events() {
        let obs = Obs::null();
        assert!(!obs.is_attached());
        assert!(!obs.enabled(EventKind::Underflow));
        let mut built = false;
        obs.emit_with(EventKind::Underflow, || {
            built = true;
            Event::Underflow {
                at: Instant::ZERO,
                id: RequestId::new(0),
                n: 0,
                deficit: Bits::ZERO,
            }
        });
        assert!(!built, "closure must not run with no sink attached");
    }

    #[test]
    fn attached_obs_records() {
        let rec = Arc::new(RecorderSink::with_capacity(16));
        let obs = Obs::new(rec.clone());
        assert!(obs.is_attached());
        obs.emit(&Event::Underflow {
            at: Instant::from_secs(1.0),
            id: RequestId::new(3),
            n: 2,
            deficit: Bits::new(10.0),
        });
        assert_eq!(rec.snapshot().counter(EventKind::Underflow), 1);
    }

    #[test]
    fn obs_carries_a_metrics_handle() {
        use crate::metrics::MetricsRegistry;
        let reg = Arc::new(MetricsRegistry::new());
        let obs = Obs::null().with_metrics(Metrics::new(Arc::clone(&reg)));
        assert!(!obs.is_attached(), "metrics do not imply a sink");
        assert!(obs.metrics().is_attached());
        obs.metrics().counter("x_total").inc();
        obs.clone().metrics().counter("x_total").inc();
        assert_eq!(reg.snapshot().counter("x_total"), Some(2));
        assert!(!Obs::null().metrics().is_attached());
    }

    #[test]
    fn tee_feeds_both_children_and_unions_interest() {
        let a = Arc::new(RecorderSink::with_capacity(4));
        let b = Arc::new(RecorderSink::with_capacity(4));
        let tee = TeeSink::new(a.clone(), b.clone());
        assert!(tee.enabled(EventKind::Underflow));
        let obs = Obs::new(Arc::new(tee));
        obs.emit(&Event::Underflow {
            at: Instant::from_secs(1.0),
            id: RequestId::new(1),
            n: 1,
            deficit: Bits::new(8.0),
        });
        assert_eq!(a.snapshot().counter(EventKind::Underflow), 1);
        assert_eq!(b.snapshot().counter(EventKind::Underflow), 1);
    }
}
