//! Event sinks and the [`Obs`] handle threaded through the engine.

use core::fmt;
use std::sync::Arc;

use crate::event::{Event, EventKind};
use crate::metrics::Metrics;

/// A set of [`EventKind`]s, packed into a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventMask(u32);

// One bit per kind: a kind past bit 31 would overflow the shift.
const _: () = assert!(EventKind::COUNT <= 32);

impl EventMask {
    /// The empty set.
    pub const NONE: EventMask = EventMask(0);

    /// Every kind.
    #[must_use]
    pub fn all() -> Self {
        let mut m = EventMask::NONE;
        for k in EventKind::ALL {
            m = m.with(k);
        }
        m
    }

    /// This set plus `kind`.
    #[must_use]
    pub fn with(self, kind: EventKind) -> Self {
        EventMask(self.0 | (1 << kind.index()))
    }

    /// True when `kind` is in the set.
    #[must_use]
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind.index()) != 0
    }

    /// True when the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

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

/// A sink that records nothing; `enabled` is always `false`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn enabled(&self, _kind: EventKind) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// Human-readable events on stderr, filtered by an [`EventMask`].
///
/// The line formats for cycles, services, and underflows match the
/// historical `VOD_DEBUG_*` `eprintln!` hooks they replaced.
#[derive(Clone, Copy, Debug)]
pub struct StderrSink {
    mask: EventMask,
}

impl StderrSink {
    /// A sink printing every event kind.
    #[must_use]
    pub fn all() -> Self {
        StderrSink {
            mask: EventMask::all(),
        }
    }

    /// A sink printing only the kinds in `mask`.
    #[must_use]
    pub fn with_mask(mask: EventMask) -> Self {
        StderrSink { mask }
    }

    /// Builds the sink from the historical debug environment variables —
    /// `VOD_DEBUG_CYCLE` (cycle plans), `VOD_DEBUG_SVC` (services), and
    /// `VOD_DEBUG_UNDERFLOW` (underflows) — returning `None` when none is
    /// set. Each variable enables one event kind, preserving the old
    /// opt-in filtering semantics.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let mut mask = EventMask::NONE;
        if std::env::var_os("VOD_DEBUG_CYCLE").is_some() {
            mask = mask.with(EventKind::CyclePlanned);
        }
        if std::env::var_os("VOD_DEBUG_SVC").is_some() {
            mask = mask.with(EventKind::StreamServiced);
        }
        if std::env::var_os("VOD_DEBUG_UNDERFLOW").is_some() {
            mask = mask.with(EventKind::Underflow);
        }
        if mask.is_empty() {
            None
        } else {
            Some(StderrSink { mask })
        }
    }
}

impl Sink for StderrSink {
    fn enabled(&self, kind: EventKind) -> bool {
        self.mask.contains(kind)
    }

    fn record(&self, event: &Event) {
        match *event {
            Event::CyclePlanned {
                at,
                start,
                planned,
                n,
                due_min,
                insertion_budget,
            } => {
                let budget = if insertion_budget == usize::MAX {
                    "unbounded".to_owned()
                } else {
                    insertion_budget.to_string()
                };
                eprintln!(
                    "CYCLE t={at} start={start} planned={planned} n={n} due_min={due_min:?} \
                     budget={budget}"
                );
            }
            Event::StreamServiced {
                at,
                id,
                n,
                k,
                read,
                size,
                ..
            } => {
                eprintln!("SVC t={at} id={id} n={n} k={k} read={read} size={size}");
            }
            Event::Underflow { at, id, n, deficit } => {
                eprintln!("UF t={at} id={id} n={n} deficit={deficit}");
            }
            ref other => {
                eprintln!("{}", other.to_json());
            }
        }
    }
}

/// Fans one event stream out to two sinks.
///
/// `enabled` is the union of the children's interests; `record` hands
/// the event to each child that wants its kind. Nest tees to fan out
/// wider (e.g. recorder + flight recorder + stderr).
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

    /// The historical default: a [`StderrSink`] when any `VOD_DEBUG_*`
    /// variable is set, otherwise detached. Read once at construction —
    /// not per event, unlike the `eprintln!` hooks this replaced.
    #[must_use]
    pub fn from_env() -> Self {
        match StderrSink::from_env() {
            Some(s) => Obs::new(Arc::new(s)),
            None => Obs::null(),
        }
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
    fn mask_set_operations() {
        let m = EventMask::NONE
            .with(EventKind::Underflow)
            .with(EventKind::CyclePlanned);
        assert!(m.contains(EventKind::Underflow));
        assert!(m.contains(EventKind::CyclePlanned));
        assert!(!m.contains(EventKind::StreamServiced));
        // The highest-index kind must not alias bit 0.
        let last = EventKind::ALL[EventKind::COUNT - 1];
        assert!(!m.contains(last));
        assert!(!EventMask::NONE.with(last).contains(EventKind::ALL[0]));
        assert!(EventMask::NONE.is_empty());
        for k in EventKind::ALL {
            assert!(EventMask::all().contains(k));
        }
    }

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
    fn null_sink_disables_everything() {
        for k in EventKind::ALL {
            assert!(!NullSink.enabled(k));
        }
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
