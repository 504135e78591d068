//! `repro trace-analyze`: offline analysis of `--trace` JSONL output.
//!
//! The input is a trace file already parsed line by line
//! ([`vod_obs::trace::parse_file`]): the trace format and its schema are
//! the `vod_obs` types, [`TraceLine`] and [`Event`], so a file that
//! parses is a file that meets the schema (`--schema-only` checks just
//! that). The file is a sequence of sections, each opened by a header
//! line: `experiment` (from `repro --trace`), `cluster_cell` (from
//! `repro cluster|chaos --trace`, its counters in the cell's
//! `cluster_summary`), or `flight_dump` (a flight-recorder ring
//! snapshot, not audited: a bounded ring legitimately truncates span
//! lifecycles). `series` and `audit` lines are `repro report`'s.
//!
//! Two layers of output:
//!
//! 1. **Invariant audit** — span starts and ends balance, span ends
//!    refer to started spans, every `request_admitted` event has exactly
//!    one admission span ended `admitted`, and (when a
//!    `cluster_summary` is present) hop spans reconcile one-for-one
//!    with the redirection counters, per node and in total.
//! 2. **Latency breakdowns** — per-trace deferral wait (admission span
//!    duration), hop count, and time-to-first-service (the end of the
//!    trace's first-fill service span, `SpanId::derive(trace,
//!    SEQ_FIRST_SERVICE)`, minus request start), plus the top-k slowest
//!    traces rendered as span trees.
//!
//! Time to first service ends when the first service *completes* (seek
//! plus transfer). Fig. 11's initial latency ends earlier, when the
//! first fill's seek does and data starts to flow (`IlSample` in
//! `vod-sim`), so the two differ by the first transfer time.
//!
//! Trace ids may repeat across sections (each cell derives them from
//! the same pinned seed) and across sub-runs inside one experiment
//! section (multi-seed runs share a recorder), so the audit works on
//! *event counts per span id* — starts equal ends, kinds consistent —
//! rather than global uniqueness.

use std::collections::{BTreeMap, BTreeSet};

use vod_obs::span::SEQ_FIRST_SERVICE;
use vod_obs::{AnnoValue, CellSummary, Event, SpanId, SpanKind, SpanStatus, TraceId, TraceLine};

/// Everything known about one span id within a section.
#[derive(Clone, Debug, Default)]
struct SpanRec<'a> {
    starts: u64,
    ends: u64,
    kind: Option<SpanKind>,
    kind_conflict: bool,
    parent: Option<SpanId>,
    status: Option<SpanStatus>,
    first_start_t: Option<f64>,
    last_end_t: Option<f64>,
    annos: Vec<(&'a str, AnnoValue<'a>)>,
}

impl SpanRec<'_> {
    fn anno_u64(&self, key: &str) -> Option<u64> {
        self.annos.iter().find_map(|&(k, v)| match v {
            AnnoValue::U64(x) if k == key => Some(x),
            _ => None,
        })
    }
}

/// One audited section of the trace file.
#[derive(Clone, Debug)]
pub struct SectionReport {
    /// Header-derived section name.
    pub name: String,
    /// False for flight-recorder dumps (schema-checked only).
    pub audited: bool,
    /// Event lines in the section.
    pub events: usize,
    /// Distinct span ids seen.
    pub spans: usize,
    /// Distinct trace ids seen.
    pub traces: usize,
    /// Invariant violations (empty = audit passed).
    pub violations: Vec<String>,
    /// Per-trace latency breakdowns (admitted requests only).
    pub breakdowns: Vec<TraceBreakdown>,
    /// Rendered span trees of the slowest traces.
    pub slowest: Vec<String>,
}

/// Latency decomposition of one request trace.
#[derive(Clone, Debug)]
pub struct TraceBreakdown {
    /// The trace.
    pub trace: TraceId,
    /// Admission span duration: how long the request waited in the
    /// queue (deferral wait), seconds.
    pub deferral_wait_s: Option<f64>,
    /// Redirection hops the request took before landing on a node.
    pub hops: usize,
    /// First-fill service-span end minus request start: the traced
    /// time-to-first-service, seconds. It includes the first transfer,
    /// which Fig. 11's initial latency does not.
    pub time_to_first_service_s: Option<f64>,
}

/// The full analysis of a trace file.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Total lines read.
    pub lines: usize,
    /// Sections in file order.
    pub sections: Vec<SectionReport>,
}

impl TraceReport {
    /// True when every audited section passed its invariant audit.
    #[must_use]
    pub fn audit_passed(&self) -> bool {
        self.sections.iter().all(|s| s.violations.is_empty())
    }
}

/// Line tallies of a parsed trace file (`repro trace-analyze` prints
/// them once every line has parsed).
#[derive(Clone, Copy, Debug, Default)]
pub struct SchemaSummary {
    /// Non-empty lines.
    pub lines: usize,
    /// Marker lines (every kind but an event).
    pub markers: usize,
    /// Event lines.
    pub events: usize,
    /// Span-lifecycle event lines.
    pub span_events: usize,
}

impl SchemaSummary {
    /// Tallies `lines`.
    #[must_use]
    pub fn of(lines: &[(usize, TraceLine<'_>)]) -> Self {
        let mut s = SchemaSummary {
            lines: lines.len(),
            ..SchemaSummary::default()
        };
        for (_, line) in lines {
            match line {
                TraceLine::Event(e) => {
                    s.events += 1;
                    s.span_events += usize::from(e.kind().is_span());
                }
                _ => s.markers += 1,
            }
        }
        s
    }
}

/// In-flight state of the section being accumulated.
struct SectionState<'l, 'a> {
    name: String,
    audited: bool,
    events: usize,
    spans: BTreeMap<(TraceId, SpanId), SpanRec<'a>>,
    admitted_events: u64,
    expect: Option<&'l CellSummary>,
}

impl<'a> SectionState<'_, 'a> {
    fn new(name: String, audited: bool) -> Self {
        SectionState {
            name,
            audited,
            events: 0,
            spans: BTreeMap::new(),
            admitted_events: 0,
            expect: None,
        }
    }

    fn ingest(&mut self, event: &Event<'a>) {
        let (trace, span) = match *event {
            Event::RequestAdmitted { .. } => {
                self.admitted_events += 1;
                return;
            }
            Event::SpanStart { trace, span, .. }
            | Event::SpanAnnotate { trace, span, .. }
            | Event::SpanEnd { trace, span, .. } => (trace, span),
            _ => return,
        };
        let rec = self.spans.entry((trace, span)).or_default();
        let t = event.at().as_secs_f64();
        match *event {
            Event::SpanStart {
                parent, span_kind, ..
            } => {
                rec.starts += 1;
                match rec.kind {
                    Some(prev) if prev != span_kind => rec.kind_conflict = true,
                    Some(_) => {}
                    None => rec.kind = Some(span_kind),
                }
                rec.parent = parent;
                rec.first_start_t.get_or_insert(t);
            }
            Event::SpanAnnotate { key, value, .. } => rec.annos.push((key, value)),
            Event::SpanEnd { status, .. } => {
                rec.ends += 1;
                rec.status = Some(status);
                rec.last_end_t = Some(t);
            }
            _ => unreachable!("only span events reach here"),
        }
    }

    /// The spans of `trace`, in span-id order.
    fn trace_spans(&self, trace: TraceId) -> impl Iterator<Item = (SpanId, &SpanRec<'a>)> + '_ {
        self.spans
            .range((trace, SpanId::from_raw(0))..=(trace, SpanId::from_raw(u64::MAX)))
            .map(|(&(_, span), rec)| (span, rec))
    }
}

/// Audits a parsed trace file. `top_k` bounds the slowest-trace span
/// trees rendered per section.
#[must_use]
pub fn analyze(lines: &[(usize, TraceLine<'_>)], top_k: usize) -> TraceReport {
    let mut sections: Vec<SectionReport> = Vec::new();
    let mut current: Option<SectionState<'_, '_>> = None;
    for (_, line) in lines {
        let opened = match line {
            TraceLine::Experiment {
                name,
                spans_dropped,
                ..
            } => {
                // A header that declares dropped span records announces
                // its own truncation: lifecycles are torn by the ring,
                // not by a bug, so the audit would only report noise.
                let mut name = (*name).to_owned();
                if *spans_dropped > 0 {
                    name.push_str(&format!(
                        " [truncated: {spans_dropped} span records dropped]"
                    ));
                }
                Some(SectionState::new(name, *spans_dropped == 0))
            }
            TraceLine::ClusterCell(header) => Some(SectionState::new(header.label(), true)),
            TraceLine::FlightDump { reason, .. } => {
                Some(SectionState::new(format!("flight dump ({reason})"), false))
            }
            TraceLine::ClusterSummary(summary) => {
                if let Some(state) = current.as_mut() {
                    state.expect = Some(summary);
                }
                None
            }
            TraceLine::Series(_) | TraceLine::Audit { .. } => None,
            TraceLine::Event(event) => {
                // Headerless files (a raw export) audit as one anonymous
                // section.
                let state =
                    current.get_or_insert_with(|| SectionState::new("(unnamed)".to_owned(), true));
                state.events += 1;
                state.ingest(event);
                None
            }
        };
        if let Some(done) = opened.and_then(|state| current.replace(state)) {
            sections.push(finish_section(done, top_k));
        }
    }
    if let Some(s) = current {
        sections.push(finish_section(s, top_k));
    }
    TraceReport {
        lines: lines.len(),
        sections,
    }
}

#[allow(clippy::too_many_lines)]
fn finish_section(state: SectionState<'_, '_>, top_k: usize) -> SectionReport {
    let mut violations = Vec::new();
    let traces: BTreeSet<TraceId> = state.spans.keys().map(|&(trace, _)| trace).collect();

    if state.audited {
        // 1. Lifecycle balance: every started span ends (same number of
        //    times — sections may replay identical sub-runs), ends never
        //    outnumber starts, kinds are consistent, ends have a start,
        //    parents refer to known spans.
        let mut admitted_ends = 0u64;
        let mut hop_total = 0u64;
        let mut hops_from: BTreeMap<u64, u64> = BTreeMap::new();
        let mut hops_to: BTreeMap<u64, u64> = BTreeMap::new();
        for (&(trace, span), rec) in &state.spans {
            let label = format!("trace {trace} span {span}");
            if rec.starts == 0 {
                violations.push(format!("{label}: ended/annotated but never started"));
                continue;
            }
            if rec.starts != rec.ends {
                violations.push(format!(
                    "{label} ({}): {} starts vs {} ends",
                    rec.kind.map_or("?", SpanKind::label),
                    rec.starts,
                    rec.ends
                ));
            }
            if rec.kind_conflict {
                violations.push(format!("{label}: restarted with a different span_kind"));
            }
            if let Some(parent) = rec.parent {
                if !state.spans.contains_key(&(trace, parent)) {
                    violations.push(format!("{label}: parent {parent} never started"));
                }
            }
            match rec.kind {
                Some(SpanKind::Admission) if rec.status == Some(SpanStatus::Admitted) => {
                    admitted_ends += rec.ends;
                }
                Some(SpanKind::Hop) => {
                    hop_total += rec.starts;
                    if let Some(f) = rec.anno_u64("from_node") {
                        *hops_from.entry(f).or_insert(0) += rec.starts;
                    }
                    if let Some(t) = rec.anno_u64("to_node") {
                        *hops_to.entry(t).or_insert(0) += rec.starts;
                    }
                }
                _ => {}
            }
        }

        // 2. Every admitted stream has exactly one admission span ended
        //    `admitted` — so admitted-end events match the engine's own
        //    `request_admitted` events one for one.
        if admitted_ends != state.admitted_events {
            violations.push(format!(
                "{} admission spans ended `admitted` vs {} request_admitted events",
                admitted_ends, state.admitted_events
            ));
        }

        // 3. Hop spans reconcile with the redirection counters.
        if let Some(expect) = state.expect {
            if expect.spans_dropped > 0 {
                violations.push(format!(
                    "recorder dropped {} span records — the section is truncated",
                    expect.spans_dropped
                ));
            }
            if hop_total != expect.redirected {
                violations.push(format!(
                    "{} hop spans vs cluster redirected counter {}",
                    hop_total, expect.redirected
                ));
            }
            let per_node: BTreeMap<u64, (u64, u64)> = expect
                .per_node
                .iter()
                .map(|n| (n.node as u64, (n.redirected_in, n.redirected_out)))
                .collect();
            for (&node, &(rin, rout)) in &per_node {
                let seen_in = hops_to.get(&node).copied().unwrap_or(0);
                let seen_out = hops_from.get(&node).copied().unwrap_or(0);
                if seen_in != rin {
                    violations.push(format!(
                        "node {node}: {seen_in} hop spans in vs redirected_in {rin}"
                    ));
                }
                if seen_out != rout {
                    violations.push(format!(
                        "node {node}: {seen_out} hop spans out vs redirected_out {rout}"
                    ));
                }
            }
            for (&node, &count) in &hops_from {
                if !per_node.contains_key(&node) {
                    violations.push(format!(
                        "{count} hop spans leave node {node}, which the summary does not list"
                    ));
                }
            }
        }
    }

    // Latency breakdowns per trace (admitted traces only).
    let mut breakdowns: Vec<TraceBreakdown> = Vec::new();
    for &trace in &traces {
        let mut root_start: Option<f64> = None;
        let mut deferral: Option<f64> = None;
        let mut hops = 0usize;
        let mut first_service_end: Option<f64> = None;
        let mut admitted = false;
        let first_fill = SpanId::derive(trace, SEQ_FIRST_SERVICE);
        for (span, rec) in state.trace_spans(trace) {
            match rec.kind {
                Some(SpanKind::Request) => root_start = rec.first_start_t,
                Some(SpanKind::Admission) => {
                    admitted = rec.status == Some(SpanStatus::Admitted);
                    if let (Some(s), Some(e)) = (rec.first_start_t, rec.last_end_t) {
                        deferral = Some(e - s);
                    }
                }
                Some(SpanKind::Hop) => hops += usize::try_from(rec.starts).unwrap_or(usize::MAX),
                Some(SpanKind::Service) if span == first_fill => first_service_end = rec.last_end_t,
                _ => {}
            }
        }
        if !admitted {
            continue;
        }
        breakdowns.push(TraceBreakdown {
            trace,
            deferral_wait_s: deferral,
            hops,
            time_to_first_service_s: match (root_start, first_service_end) {
                (Some(s), Some(e)) => Some(e - s),
                _ => None,
            },
        });
    }

    // Top-k slowest by time-to-first-service, rendered as span trees.
    let mut ranked: Vec<&TraceBreakdown> = breakdowns
        .iter()
        .filter(|b| b.time_to_first_service_s.is_some())
        .collect();
    ranked.sort_by(|a, b| {
        b.time_to_first_service_s
            .partial_cmp(&a.time_to_first_service_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let slowest: Vec<String> = ranked
        .iter()
        .take(top_k)
        .map(|b| render_trace_tree(&state, b))
        .collect();

    SectionReport {
        name: state.name,
        audited: state.audited,
        events: state.events,
        spans: state.spans.len(),
        traces: traces.len(),
        violations,
        breakdowns,
        slowest,
    }
}

/// Renders one trace as an indented span tree (roots first, children
/// by start time).
fn render_trace_tree(state: &SectionState<'_, '_>, b: &TraceBreakdown) -> String {
    let spans: Vec<(SpanId, &SpanRec<'_>)> = state.trace_spans(b.trace).collect();
    let mut out = format!(
        "trace {} — ttfs {:.3}s, deferral {}, {} hop(s)\n",
        b.trace,
        b.time_to_first_service_s.unwrap_or(f64::NAN),
        b.deferral_wait_s
            .map_or_else(|| "n/a".to_owned(), |d| format!("{d:.3}s")),
        b.hops,
    );
    let mut children: BTreeMap<Option<SpanId>, Vec<(SpanId, &SpanRec<'_>)>> = BTreeMap::new();
    for &(span, rec) in &spans {
        let parent = rec.parent.filter(|p| spans.iter().any(|&(s, _)| s == *p));
        children.entry(parent).or_default().push((span, rec));
    }
    for list in children.values_mut() {
        list.sort_by(|(a, ra), (b, rb)| {
            let ta = ra.first_start_t.unwrap_or(f64::MAX);
            let tb = rb.first_start_t.unwrap_or(f64::MAX);
            ta.partial_cmp(&tb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
    }
    for &(root, rec) in children.get(&None).map_or(&[][..], Vec::as_slice) {
        render_span(root, rec, &children, 1, &mut out);
    }
    out
}

fn render_span(
    span: SpanId,
    rec: &SpanRec<'_>,
    children: &BTreeMap<Option<SpanId>, Vec<(SpanId, &SpanRec<'_>)>>,
    depth: usize,
    out: &mut String,
) {
    let start = rec.first_start_t.unwrap_or(f64::NAN);
    let dur = match (rec.first_start_t, rec.last_end_t) {
        (Some(s), Some(e)) => format!("{:.3}s", e - s),
        _ => "open".to_owned(),
    };
    let annos = rec
        .annos
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    out.push_str(&format!(
        "{:indent$}{} [{}] t={start:.3} dur={dur}{}{}\n",
        "",
        rec.kind.map_or("?", SpanKind::label),
        rec.status.map_or("open", SpanStatus::label),
        if annos.is_empty() { "" } else { " " },
        annos,
        indent = depth * 2,
    ));
    if let Some(kids) = children.get(&Some(span)) {
        for &(kid, kid_rec) in kids {
            render_span(kid, kid_rec, children, depth + 1, out);
        }
    }
}

/// Renders the human-readable analysis report.
#[must_use]
pub fn render(report: &TraceReport) -> String {
    let mut out = String::new();
    for s in &report.sections {
        out.push_str(&format!(
            "== {} — {} events, {} spans, {} traces{} ==\n",
            s.name,
            s.events,
            s.spans,
            s.traces,
            if s.audited { "" } else { " (schema only)" },
        ));
        // An unaudited section gets no verdict, but its breakdowns and
        // trees were computed all the same.
        if s.audited {
            if s.violations.is_empty() {
                out.push_str("  invariant audit: OK\n");
            } else {
                for v in &s.violations {
                    out.push_str(&format!("  VIOLATION: {v}\n"));
                }
            }
        }
        let waited: Vec<f64> = s
            .breakdowns
            .iter()
            .filter_map(|b| b.deferral_wait_s)
            .collect();
        let ttfs: Vec<f64> = s
            .breakdowns
            .iter()
            .filter_map(|b| b.time_to_first_service_s)
            .collect();
        let hops: usize = s.breakdowns.iter().map(|b| b.hops).sum();
        out.push_str(&format!(
            "  {} admitted traces: mean deferral {}, mean ttfs {}, {} total hop(s)\n",
            s.breakdowns.len(),
            mean_label(&waited),
            mean_label(&ttfs),
            hops,
        ));
        for tree in &s.slowest {
            for line in tree.lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }
    let verdict = if report.audit_passed() {
        "OK"
    } else {
        "FAILED"
    };
    out.push_str(&format!(
        "[trace-analyze: {} lines, {} sections, invariant audit {verdict}]\n",
        report.lines,
        report.sections.len(),
    ));
    out
}

fn mean_label(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "n/a".to_owned();
    }
    format!("{:.3}s", xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vod_obs::span::{SEQ_ADMISSION, SEQ_HOP_DISPATCH, SEQ_REQUEST};
    use vod_obs::trace::parse_file;
    use vod_obs::{CellHeader, NodeRedirects, Obs, RecorderSink};
    use vod_types::Instant;

    /// A recorder and an observer feeding it.
    fn recorder() -> (Arc<RecorderSink>, Obs) {
        let rec = Arc::new(RecorderSink::new());
        let obs = Obs::new(Arc::clone(&rec) as Arc<dyn vod_obs::Sink>);
        (rec, obs)
    }

    fn experiment(name: &str) -> String {
        TraceLine::Experiment {
            name,
            events: 0,
            events_dropped: 0,
            spans_dropped: 0,
        }
        .to_json()
            + "\n"
    }

    fn parsed(src: &str) -> Vec<(usize, TraceLine<'_>)> {
        parse_file(src).expect("every line parses")
    }

    /// Emits one complete admitted-request lifecycle into a recorder
    /// and returns its JSONL.
    fn lifecycle_jsonl() -> String {
        let (rec, obs) = recorder();
        let trace = TraceId::derive(9, 0);
        let root = SpanId::derive(trace, SEQ_REQUEST);
        let adm = SpanId::derive(trace, SEQ_ADMISSION);
        let svc = SpanId::derive(trace, SEQ_FIRST_SERVICE);
        let t = Instant::from_secs;
        obs.span_start(t(0.0), trace, root, None, SpanKind::Request);
        obs.span_start(t(0.0), trace, adm, Some(root), SpanKind::Admission);
        obs.span_end(t(1.5), trace, adm, SpanStatus::Admitted);
        obs.emit(&Event::RequestAdmitted {
            at: t(1.5),
            trace,
            n: 1,
            waited: vod_types::Seconds::from_secs(1.5),
        });
        obs.span_start(t(1.5), trace, svc, Some(root), SpanKind::Service);
        obs.span_end(t(2.0), trace, svc, SpanStatus::Ok);
        obs.span_end(t(5.0), trace, root, SpanStatus::Ok);
        rec.snapshot().export_jsonl()
    }

    #[test]
    fn clean_lifecycle_passes_schema_and_audit() {
        let src = experiment("t") + &lifecycle_jsonl();
        let lines = parsed(&src);
        let summary = SchemaSummary::of(&lines);
        assert_eq!(summary.markers, 1);
        assert_eq!(summary.span_events, 6);
        let report = analyze(&lines, 3);
        assert!(report.audit_passed(), "{:?}", report.sections[0].violations);
        let s = &report.sections[0];
        assert_eq!(s.traces, 1);
        assert_eq!(s.breakdowns.len(), 1);
        let b = &s.breakdowns[0];
        assert_eq!(b.hops, 0);
        assert!((b.deferral_wait_s.unwrap() - 1.5).abs() < 1e-9);
        assert!((b.time_to_first_service_s.unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(s.slowest.len(), 1);
        assert!(s.slowest[0].contains("request"));
        assert!(s.slowest[0].contains("admission"));
    }

    #[test]
    fn unbalanced_span_is_a_violation() {
        let (rec, obs) = recorder();
        let trace = TraceId::derive(3, 1);
        let root = SpanId::derive(trace, SEQ_REQUEST);
        obs.span_start(Instant::ZERO, trace, root, None, SpanKind::Request);
        // Never ended.
        let report = analyze(&parsed(&rec.snapshot().export_jsonl()), 3);
        assert!(!report.audit_passed());
        assert!(report.sections[0].violations[0].contains("1 starts vs 0 ends"));
    }

    #[test]
    fn end_without_start_is_a_violation() {
        let (rec, obs) = recorder();
        let trace = TraceId::derive(3, 2);
        let root = SpanId::derive(trace, SEQ_REQUEST);
        obs.span_end(Instant::ZERO, trace, root, SpanStatus::Ok);
        let report = analyze(&parsed(&rec.snapshot().export_jsonl()), 3);
        assert!(!report.audit_passed());
        assert!(report.sections[0].violations[0].contains("never started"));
    }

    #[test]
    fn hop_spans_reconcile_against_cluster_summary() {
        let (rec, obs) = recorder();
        let trace = TraceId::derive(5, 0);
        let hop = SpanId::derive(trace, SEQ_HOP_DISPATCH);
        obs.span_start(Instant::ZERO, trace, hop, None, SpanKind::Hop);
        obs.span_annotate(Instant::ZERO, trace, hop, "from_node", AnnoValue::U64(0));
        obs.span_annotate(Instant::ZERO, trace, hop, "to_node", AnnoValue::U64(1));
        obs.span_end(Instant::ZERO, trace, hop, SpanStatus::Ok);
        let cell = |redirected| {
            let header = TraceLine::ClusterCell(CellHeader {
                nodes: 2,
                placement: "rr",
                dispatch: "ll",
                chaos: None,
            });
            let summary = TraceLine::ClusterSummary(CellSummary {
                redirected,
                per_node: vec![
                    NodeRedirects {
                        node: 0,
                        redirected_in: 0,
                        redirected_out: 1,
                    },
                    NodeRedirects {
                        node: 1,
                        redirected_in: 1,
                        redirected_out: 0,
                    },
                ],
                ..CellSummary::default()
            });
            format!(
                "{}\n{}{}\n",
                header.to_json(),
                rec.snapshot().export_jsonl(),
                summary.to_json()
            )
        };
        let good = cell(1);
        let report = analyze(&parsed(&good), 3);
        assert!(report.audit_passed());
        assert_eq!(report.sections[0].name, "cluster 2 nodes / rr / ll");

        let bad = cell(2);
        let report = analyze(&parsed(&bad), 3);
        assert!(!report.audit_passed());
        assert!(report.sections[0]
            .violations
            .iter()
            .any(|v| v.contains("hop spans vs cluster redirected")));
    }

    #[test]
    fn flight_dump_sections_skip_the_audit() {
        // A ring snapshot legitimately holds an end without its start.
        let (rec, obs) = recorder();
        let trace = TraceId::derive(3, 2);
        let root = SpanId::derive(trace, SEQ_REQUEST);
        obs.span_end(Instant::ZERO, trace, root, SpanStatus::Ok);
        let dump = TraceLine::FlightDump {
            reason: "underflow",
            seq: 1,
            events: 1,
            dropped: 0,
        };
        let src = format!("{}\n{}", dump.to_json(), rec.snapshot().export_jsonl());
        let report = analyze(&parsed(&src), 3);
        assert!(report.audit_passed());
        assert!(!report.sections[0].audited);
        assert_eq!(report.sections[0].name, "flight dump (underflow)");
    }

    #[test]
    fn truncated_experiment_renders_its_breakdowns_without_a_verdict() {
        let header = TraceLine::Experiment {
            name: "t",
            events: 7,
            events_dropped: 0,
            spans_dropped: 4,
        };
        let src = format!("{}\n{}", header.to_json(), lifecycle_jsonl());
        let report = analyze(&parsed(&src), 1);
        assert!(!report.sections[0].audited);
        let text = render(&report);
        assert!(
            text.starts_with("== t [truncated: 4 span records dropped] — 7 events, 3 spans, 1 traces (schema only) ==\n"),
            "{text}"
        );
        assert!(!text.contains("invariant audit:"), "{text}");
        assert!(
            text.contains(
                "  1 admitted traces: mean deferral 1.500s, mean ttfs 2.000s, 0 total hop(s)\n"
            ),
            "{text}"
        );
        assert!(text.contains("  request [ok]"), "{text}");
    }

    #[test]
    fn render_mentions_audit_verdict() {
        let src = experiment("t") + &lifecycle_jsonl();
        let text = render(&analyze(&parsed(&src), 1));
        assert!(text.contains("invariant audit: OK"));
        assert!(text.contains("invariant audit OK"));
    }
}
