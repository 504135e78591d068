//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{trace, span, parent, name, start_ns, end_ns}`. Spans are
//! kept in memory and written out as JSONL when the run ends. A span's
//! self time is its duration minus the part of it that its child spans
//! cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub trace: u64,
    pub span: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: its id, for children to name as parent.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    trace: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Collects spans. A disabled tracer reads no clock and records nothing,
/// so the same drive code gives the untraced baseline.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span in `trace` under `parent` (0 for a root).
    pub fn open(&mut self, trace: u64, parent: u64, name: &'static str) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                trace,
                parent,
                name,
                start_ns: 0,
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            trace,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            trace: open.trace,
            span: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(trace, parent, name);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time, in the order of `spans`: its duration minus the
/// union of its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.span) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals of a run's spans.
#[derive(Debug, Default)]
pub struct Layer {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Every span's duration, ns.
    pub durations_ns: Vec<u64>,
}

/// Groups spans by name.
pub fn layers(spans: &[Span]) -> HashMap<&'static str, Layer> {
    let mut out: HashMap<&'static str, Layer> = HashMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.self_ns += own;
        l.durations_ns.push(s.duration_ns());
    }
    out
}

/// The share of root-span time no child span covers: time the layer spans
/// do not explain.
pub fn residual_frac(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.parent == 0 {
            total += s.duration_ns();
            uncovered += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        uncovered as f64 / total as f64
    }
}

/// Renders spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace: 1,
            span: id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0, 100): children [10, 30) and [20, 50) overlap, so they
        // cover [10, 50) = 40; a grandchild inside child 2 must not count
        // against the root; a child poking past the root's end is clipped.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),
            span(4, 3, "c", 25, 45),
            span(5, 1, "d", 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 20, 20, 30]);
        let root_share = 50.0 / 100.0;
        assert!((residual_frac(&spans) - root_share).abs() < 1e-12);
        let by_name = layers(&spans);
        assert_eq!(by_name["b"].self_ns, 10);
        assert_eq!(by_name["b"].durations_ns, vec![30]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        let v = off.time(1, 0, "x", || 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        let root = on.open(0, 0, "root");
        on.time(9, root.id, "child", || ());
        on.close(root);
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].trace), ("child", root.id, 9));
        assert!(s[1].start_ns <= s[0].start_ns && s[0].end_ns <= s[1].end_ns);
        assert_eq!(to_jsonl(s).lines().count(), 2);
    }
}
