//! `repro trace-analyze`: offline analysis of `--trace` JSONL output.
//!
//! A trace file is a sequence of sections, each introduced by a marker
//! line (`{"kind":"experiment",...}` from `repro --trace`,
//! `{"kind":"cluster_cell",...}` from `repro cluster --trace`) and
//! followed by the section's event lines. `{"kind":"cluster_summary",...}`
//! carries the front end's deterministic counters for the preceding
//! cell, and `{"kind":"flight_dump",...}` introduces a flight-recorder
//! ring snapshot (analyzed for schema only — a bounded ring legitimately
//! truncates span lifecycles).
//!
//! Three layers of output:
//!
//! 1. **Schema check** — every line parses, has a known `kind`, and
//!    carries that kind's required fields ([`check_schema`], the
//!    CI gate behind `--schema-only`).
//! 2. **Invariant audit** — span starts and ends balance, span ends
//!    refer to started spans, every `request_admitted` event has exactly
//!    one admission span ended `admitted`, and (when a
//!    `cluster_summary` is present) hop spans reconcile one-for-one
//!    with the redirection counters, per node and in total.
//! 3. **Latency breakdowns** — per-trace deferral wait (admission span
//!    duration), hop count, and time-to-first-service (first
//!    `first_fill` service span end minus request start), plus the
//!    top-k slowest traces rendered as span trees.
//!
//! Trace ids may repeat across sections (each cell derives them from
//! the same pinned seed) and across sub-runs inside one experiment
//! section (multi-seed runs share a recorder), so the audit works on
//! *event counts per span id* — starts equal ends, kinds consistent —
//! rather than global uniqueness.

use std::collections::BTreeMap;

use vod_obs::json::{parse, Json};

/// Everything known about one span id within a section.
#[derive(Clone, Debug, Default)]
struct SpanRec {
    starts: u64,
    ends: u64,
    kind: Option<String>,
    kind_conflict: bool,
    parent: Option<u64>,
    status: Option<String>,
    first_start_t: Option<f64>,
    last_end_t: Option<f64>,
    annos: Vec<(String, Json)>,
}

/// Expected counters from a `cluster_summary` marker.
#[derive(Clone, Debug, Default)]
struct ClusterExpect {
    redirected: u64,
    /// Span records the recorder had to drop — any truncation voids the
    /// lifecycle audit, so it is reported as a violation of its own.
    spans_dropped: u64,
    /// `node -> (redirected_in, redirected_out)`.
    per_node: BTreeMap<u64, (u64, u64)>,
}

/// One audited section of the trace file.
#[derive(Clone, Debug)]
pub struct SectionReport {
    /// Marker-derived section name.
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
    /// The trace id (16 hex digits).
    pub trace: String,
    /// Admission span duration: how long the request waited in the
    /// queue (deferral wait), seconds.
    pub deferral_wait_s: Option<f64>,
    /// Redirection hops the request took before landing on a node.
    pub hops: usize,
    /// First `first_fill` service-span end minus request start: the
    /// traced time-to-first-service, seconds.
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

const MARKER_KINDS: [&str; 6] = [
    "experiment",
    "cluster_cell",
    "cluster_summary",
    "flight_dump",
    "series",
    "audit",
];

fn is_span_kind(kind: &str) -> bool {
    matches!(kind, "span_start" | "span_annotate" | "span_end")
}

fn hex_id(v: &Json) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

/// Returns true when the trace body has no non-empty lines — a
/// zero-byte or fully truncated file. `repro trace-analyze` and
/// `repro report` refuse such inputs with a diagnostic instead of
/// reporting success over nothing ("schema OK: 0 lines" used to pass).
#[must_use]
pub fn is_empty_trace(src: &str) -> bool {
    src.lines().all(|line| line.trim().is_empty())
}

/// Validates every line of a trace file against the event/marker
/// schema without building any per-span state.
///
/// # Errors
///
/// Returns every malformed line as `"line N: why"`.
pub fn check_schema(src: &str) -> Result<SchemaSummary, Vec<String>> {
    let mut errors = Vec::new();
    let mut summary = SchemaSummary::default();
    for (i, line) in src.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        summary.lines += 1;
        let v = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {n}: not JSON: {e}"));
                continue;
            }
        };
        let Some(kind) = v.get("kind").and_then(Json::as_str) else {
            errors.push(format!("line {n}: missing string field `kind`"));
            continue;
        };
        if MARKER_KINDS.contains(&kind) {
            summary.markers += 1;
            continue;
        }
        summary.events += 1;
        if v.get("t").and_then(Json::as_f64).is_none() {
            errors.push(format!("line {n}: event `{kind}` missing numeric `t`"));
        }
        if !is_span_kind(kind) {
            continue;
        }
        summary.span_events += 1;
        for field in ["trace", "span"] {
            match v.get(field) {
                Some(val) if hex_id(val).is_some() => {}
                _ => errors.push(format!("line {n}: `{kind}` needs 16-hex `{field}`")),
            }
        }
        match kind {
            "span_start" => {
                if v.get("span_kind").and_then(Json::as_str).is_none() {
                    errors.push(format!("line {n}: span_start missing `span_kind`"));
                }
                match v.get("parent") {
                    Some(Json::Null) => {}
                    Some(p) if hex_id(p).is_some() => {}
                    _ => errors.push(format!("line {n}: span_start needs `parent` (hex or null)")),
                }
            }
            "span_annotate" => {
                if v.get("key").and_then(Json::as_str).is_none() {
                    errors.push(format!("line {n}: span_annotate missing `key`"));
                }
                if v.get("value").is_none() {
                    errors.push(format!("line {n}: span_annotate missing `value`"));
                }
            }
            "span_end" => {
                if v.get("status").and_then(Json::as_str).is_none() {
                    errors.push(format!("line {n}: span_end missing `status`"));
                }
            }
            _ => unreachable!("is_span_kind gated"),
        }
    }
    if errors.is_empty() {
        Ok(summary)
    } else {
        Err(errors)
    }
}

/// Line/marker/event tallies from a clean schema pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchemaSummary {
    /// Non-empty lines.
    pub lines: usize,
    /// Marker lines.
    pub markers: usize,
    /// Event lines.
    pub events: usize,
    /// Span-lifecycle event lines.
    pub span_events: usize,
}

/// In-flight state of the section being accumulated.
struct SectionState {
    name: String,
    audited: bool,
    events: usize,
    /// `(trace, span) -> record`.
    spans: BTreeMap<(u64, u64), SpanRec>,
    /// Non-span event counts by kind label.
    event_counts: BTreeMap<String, u64>,
    expect: Option<ClusterExpect>,
}

impl SectionState {
    fn new(name: String, audited: bool) -> Self {
        SectionState {
            name,
            audited,
            events: 0,
            spans: BTreeMap::new(),
            event_counts: BTreeMap::new(),
            expect: None,
        }
    }
}

/// Parses and audits a trace file. `top_k` bounds the slowest-trace
/// span trees rendered per section.
///
/// # Errors
///
/// Returns the first malformed line (run [`check_schema`] for the
/// exhaustive list).
pub fn analyze(src: &str, top_k: usize) -> Result<TraceReport, String> {
    let mut sections: Vec<SectionReport> = Vec::new();
    let mut current: Option<SectionState> = None;
    let mut lines = 0usize;

    let flush = |state: Option<SectionState>, out: &mut Vec<SectionReport>| {
        if let Some(s) = state {
            out.push(finish_section(s, top_k));
        }
    };

    for (i, line) in src.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let v = parse(line).map_err(|e| format!("line {n}: not JSON: {e}"))?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: missing `kind`"))?
            .to_owned();
        match kind.as_str() {
            "experiment" => {
                flush(current.take(), &mut sections);
                let mut name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("experiment")
                    .to_owned();
                // A marker that declares dropped span records announces
                // its own truncation: lifecycles are torn by the ring,
                // not by a bug, so the audit would only report noise.
                let dropped = v.get("spans_dropped").and_then(Json::as_u64).unwrap_or(0);
                if dropped > 0 {
                    name.push_str(&format!(" [truncated: {dropped} span records dropped]"));
                }
                current = Some(SectionState::new(name, dropped == 0));
            }
            "cluster_cell" => {
                flush(current.take(), &mut sections);
                let mut name = format!(
                    "cluster {} nodes / {} / {}",
                    v.get("nodes").and_then(Json::as_u64).unwrap_or(0),
                    v.get("placement").and_then(Json::as_str).unwrap_or("?"),
                    v.get("dispatch").and_then(Json::as_str).unwrap_or("?"),
                );
                // Chaos cells also name their scenario and failover
                // policy; include them so matrix sections stay unique.
                if let (Some(s), Some(f)) = (
                    v.get("scenario").and_then(Json::as_str),
                    v.get("failover").and_then(Json::as_str),
                ) {
                    name.push_str(&format!(" / {s}/{f}"));
                }
                current = Some(SectionState::new(name, true));
            }
            "cluster_summary" => {
                if let Some(state) = current.as_mut() {
                    state.expect = Some(parse_expect(&v));
                }
            }
            // Time-series and audit marker lines ride inside a section
            // (appended after its summary) but are `repro report`'s
            // input, not span events — the audit ignores them.
            "series" | "audit" => {}
            "flight_dump" => {
                flush(current.take(), &mut sections);
                let reason = v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned();
                current = Some(SectionState::new(format!("flight dump ({reason})"), false));
            }
            _ => {
                let state = current.get_or_insert_with(|| {
                    // Headerless files (a raw export) audit as one
                    // anonymous section.
                    SectionState::new("(unnamed)".to_owned(), true)
                });
                state.events += 1;
                ingest_event(state, &kind, &v).map_err(|e| format!("line {n}: {e}"))?;
            }
        }
    }
    flush(current.take(), &mut sections);
    Ok(TraceReport { lines, sections })
}

fn parse_expect(v: &Json) -> ClusterExpect {
    let mut expect = ClusterExpect {
        redirected: v.get("redirected").and_then(Json::as_u64).unwrap_or(0),
        spans_dropped: v.get("spans_dropped").and_then(Json::as_u64).unwrap_or(0),
        per_node: BTreeMap::new(),
    };
    if let Some(nodes) = v.get("per_node").and_then(Json::as_arr) {
        for nv in nodes {
            let Some(node) = nv.get("node").and_then(Json::as_u64) else {
                continue;
            };
            let rin = nv.get("redirected_in").and_then(Json::as_u64).unwrap_or(0);
            let rout = nv.get("redirected_out").and_then(Json::as_u64).unwrap_or(0);
            expect.per_node.insert(node, (rin, rout));
        }
    }
    expect
}

fn ingest_event(state: &mut SectionState, kind: &str, v: &Json) -> Result<(), String> {
    if !is_span_kind(kind) {
        *state.event_counts.entry(kind.to_owned()).or_insert(0) += 1;
        return Ok(());
    }
    let trace = v
        .get("trace")
        .and_then(hex_id)
        .ok_or("span event missing hex `trace`")?;
    let span = v
        .get("span")
        .and_then(hex_id)
        .ok_or("span event missing hex `span`")?;
    let t = v.get("t").and_then(Json::as_f64).ok_or("missing `t`")?;
    let rec = state.spans.entry((trace, span)).or_default();
    match kind {
        "span_start" => {
            rec.starts += 1;
            let sk = v
                .get("span_kind")
                .and_then(Json::as_str)
                .ok_or("span_start missing `span_kind`")?;
            match &rec.kind {
                Some(prev) if prev != sk => rec.kind_conflict = true,
                Some(_) => {}
                None => rec.kind = Some(sk.to_owned()),
            }
            rec.parent = v.get("parent").and_then(hex_id);
            if rec.first_start_t.is_none() {
                rec.first_start_t = Some(t);
            }
        }
        "span_annotate" => {
            let key = v
                .get("key")
                .and_then(Json::as_str)
                .ok_or("span_annotate missing `key`")?;
            if let Some(value) = v.get("value") {
                rec.annos.push((key.to_owned(), value.clone()));
            }
        }
        "span_end" => {
            rec.ends += 1;
            rec.status = v.get("status").and_then(Json::as_str).map(str::to_owned);
            rec.last_end_t = Some(t);
        }
        _ => unreachable!("is_span_kind gated"),
    }
    Ok(())
}

fn anno_u64(rec: &SpanRec, key: &str) -> Option<u64> {
    rec.annos
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_u64())
}

#[allow(clippy::too_many_lines)]
fn finish_section(state: SectionState, top_k: usize) -> SectionReport {
    let mut violations = Vec::new();
    let traces: std::collections::BTreeSet<u64> =
        state.spans.keys().map(|&(trace, _)| trace).collect();

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
            let label = format!("trace {trace:016x} span {span:016x}");
            if rec.starts == 0 {
                violations.push(format!("{label}: ended/annotated but never started"));
                continue;
            }
            if rec.starts != rec.ends {
                violations.push(format!(
                    "{label} ({}): {} starts vs {} ends",
                    rec.kind.as_deref().unwrap_or("?"),
                    rec.starts,
                    rec.ends
                ));
            }
            if rec.kind_conflict {
                violations.push(format!("{label}: restarted with a different span_kind"));
            }
            if let Some(parent) = rec.parent {
                if !state.spans.contains_key(&(trace, parent)) {
                    violations.push(format!("{label}: parent {parent:016x} never started"));
                }
            }
            match rec.kind.as_deref() {
                Some("admission") if rec.status.as_deref() == Some("admitted") => {
                    admitted_ends += rec.ends;
                }
                Some("hop") => {
                    hop_total += rec.starts;
                    if let Some(f) = anno_u64(rec, "from_node") {
                        *hops_from.entry(f).or_insert(0) += rec.starts;
                    }
                    if let Some(t) = anno_u64(rec, "to_node") {
                        *hops_to.entry(t).or_insert(0) += rec.starts;
                    }
                }
                _ => {}
            }
        }

        // 2. Every admitted stream has exactly one admission span ended
        //    `admitted` — so admitted-end events match the engine's own
        //    `request_admitted` events one for one.
        let admitted_events = state
            .event_counts
            .get("request_admitted")
            .copied()
            .unwrap_or(0);
        if admitted_ends != admitted_events {
            violations.push(format!(
                "{} admission spans ended `admitted` vs {} request_admitted events",
                admitted_ends, admitted_events
            ));
        }

        // 3. Hop spans reconcile with the redirection counters.
        if let Some(expect) = &state.expect {
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
            for (&node, &(rin, rout)) in &expect.per_node {
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
                if !expect.per_node.contains_key(&node) {
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
        for (&(tr, _), rec) in state.spans.range((trace, 0)..=(trace, u64::MAX)) {
            debug_assert_eq!(tr, trace);
            match rec.kind.as_deref() {
                Some("request") => root_start = rec.first_start_t,
                Some("admission") => {
                    admitted = rec.status.as_deref() == Some("admitted");
                    if let (Some(s), Some(e)) = (rec.first_start_t, rec.last_end_t) {
                        deferral = Some(e - s);
                    }
                }
                Some("hop") => hops += usize::try_from(rec.starts).unwrap_or(usize::MAX),
                Some("service") if anno_u64(rec, "first_fill") == Some(1) => {
                    let end = rec.last_end_t;
                    if first_service_end.is_none() || (end.is_some() && end < first_service_end) {
                        first_service_end = end;
                    }
                }
                _ => {}
            }
        }
        if !admitted {
            continue;
        }
        breakdowns.push(TraceBreakdown {
            trace: format!("{trace:016x}"),
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
        .map(|b| {
            let trace = u64::from_str_radix(&b.trace, 16).unwrap_or(0);
            render_trace_tree(&state, trace, b)
        })
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
fn render_trace_tree(state: &SectionState, trace: u64, b: &TraceBreakdown) -> String {
    let spans: Vec<(u64, &SpanRec)> = state
        .spans
        .range((trace, 0)..=(trace, u64::MAX))
        .map(|(&(_, span), rec)| (span, rec))
        .collect();
    let mut out = format!(
        "trace {} — ttfs {:.3}s, deferral {}, {} hop(s)\n",
        b.trace,
        b.time_to_first_service_s.unwrap_or(f64::NAN),
        b.deferral_wait_s
            .map_or_else(|| "n/a".to_owned(), |d| format!("{d:.3}s")),
        b.hops,
    );
    let mut children: BTreeMap<Option<u64>, Vec<u64>> = BTreeMap::new();
    for &(span, rec) in &spans {
        let parent = rec.parent.filter(|p| spans.iter().any(|&(s, _)| s == *p));
        children.entry(parent).or_default().push(span);
    }
    for list in children.values_mut() {
        list.sort_by(|a, b| {
            let ta = state.spans[&(trace, *a)].first_start_t.unwrap_or(f64::MAX);
            let tb = state.spans[&(trace, *b)].first_start_t.unwrap_or(f64::MAX);
            ta.partial_cmp(&tb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
    }
    let roots = children.get(&None).cloned().unwrap_or_default();
    for root in roots {
        render_span(state, trace, root, &children, 1, &mut out);
    }
    out
}

fn render_span(
    state: &SectionState,
    trace: u64,
    span: u64,
    children: &BTreeMap<Option<u64>, Vec<u64>>,
    depth: usize,
    out: &mut String,
) {
    let rec = &state.spans[&(trace, span)];
    let start = rec.first_start_t.unwrap_or(f64::NAN);
    let dur = match (rec.first_start_t, rec.last_end_t) {
        (Some(s), Some(e)) => format!("{:.3}s", e - s),
        _ => "open".to_owned(),
    };
    let annos = rec
        .annos
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k}={s}"),
            Json::Num(x) => format!("{k}={x}"),
            other => format!("{k}={other:?}"),
        })
        .collect::<Vec<_>>()
        .join(" ");
    out.push_str(&format!(
        "{:indent$}{} [{}] t={start:.3} dur={dur}{}{}\n",
        "",
        rec.kind.as_deref().unwrap_or("?"),
        rec.status.as_deref().unwrap_or("open"),
        if annos.is_empty() { "" } else { " " },
        annos,
        indent = depth * 2,
    ));
    if let Some(kids) = children.get(&Some(span)) {
        for &kid in kids {
            render_span(state, trace, kid, children, depth + 1, out);
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
        if s.audited {
            if s.violations.is_empty() {
                out.push_str("  invariant audit: OK\n");
            } else {
                for v in &s.violations {
                    out.push_str(&format!("  VIOLATION: {v}\n"));
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
    use vod_obs::span::{
        AnnoValue, SpanId, SpanKind, SpanStatus, TraceId, SEQ_ADMISSION, SEQ_FIRST_SERVICE,
        SEQ_REQUEST,
    };
    use vod_obs::{Obs, RecorderSink};
    use vod_types::Instant;

    /// Emits one complete admitted-request lifecycle into a recorder
    /// and returns its JSONL.
    fn lifecycle_jsonl() -> String {
        let rec = Arc::new(RecorderSink::new());
        let obs = Obs::new(Arc::clone(&rec) as Arc<dyn vod_obs::Sink>);
        let trace = TraceId::derive(9, 0);
        let root = SpanId::derive(trace, SEQ_REQUEST);
        let adm = SpanId::derive(trace, SEQ_ADMISSION);
        let svc = SpanId::derive(trace, SEQ_FIRST_SERVICE);
        let t = Instant::from_secs;
        obs.span_start(t(0.0), trace, root, None, SpanKind::Request);
        obs.span_start(t(0.0), trace, adm, Some(root), SpanKind::Admission);
        obs.span_end(t(1.5), trace, adm, SpanStatus::Admitted);
        obs.emit(&vod_obs::Event::RequestAdmitted {
            at: t(1.5),
            id: vod_types::RequestId::new(0),
            n: 1,
            waited: vod_types::Seconds::from_secs(1.5),
        });
        obs.span_start(t(1.5), trace, svc, Some(root), SpanKind::Service);
        obs.span_annotate(t(2.0), trace, svc, "first_fill", AnnoValue::U64(1));
        obs.span_end(t(2.0), trace, svc, SpanStatus::Ok);
        obs.span_end(t(5.0), trace, root, SpanStatus::Ok);
        rec.snapshot().export_jsonl()
    }

    #[test]
    fn clean_lifecycle_passes_schema_and_audit() {
        let src = format!(
            "{{\"kind\":\"experiment\",\"name\":\"t\"}}\n{}",
            lifecycle_jsonl()
        );
        let summary = check_schema(&src).expect("schema must pass");
        assert_eq!(summary.markers, 1);
        assert!(summary.span_events >= 7);
        let report = analyze(&src, 3).expect("analyze");
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
        let rec = Arc::new(RecorderSink::new());
        let obs = Obs::new(Arc::clone(&rec) as Arc<dyn vod_obs::Sink>);
        let trace = TraceId::derive(3, 1);
        let root = SpanId::derive(trace, SEQ_REQUEST);
        obs.span_start(Instant::ZERO, trace, root, None, SpanKind::Request);
        // Never ended.
        let report = analyze(&rec.snapshot().export_jsonl(), 3).expect("analyze");
        assert!(!report.audit_passed());
        assert!(report.sections[0].violations[0].contains("1 starts vs 0 ends"));
    }

    #[test]
    fn end_without_start_is_a_violation() {
        let rec = Arc::new(RecorderSink::new());
        let obs = Obs::new(Arc::clone(&rec) as Arc<dyn vod_obs::Sink>);
        let trace = TraceId::derive(3, 2);
        obs.span_end(
            Instant::ZERO,
            trace,
            SpanId::derive(trace, SEQ_REQUEST),
            SpanStatus::Ok,
        );
        let report = analyze(&rec.snapshot().export_jsonl(), 3).expect("analyze");
        assert!(!report.audit_passed());
        assert!(report.sections[0].violations[0].contains("never started"));
    }

    #[test]
    fn hop_spans_reconcile_against_cluster_summary() {
        let rec = Arc::new(RecorderSink::new());
        let obs = Obs::new(Arc::clone(&rec) as Arc<dyn vod_obs::Sink>);
        let trace = TraceId::derive(5, 0);
        let hop = SpanId::derive(trace, vod_obs::span::SEQ_HOP_DISPATCH);
        obs.span_start(Instant::ZERO, trace, hop, None, SpanKind::Hop);
        obs.span_annotate(Instant::ZERO, trace, hop, "from_node", AnnoValue::U64(0));
        obs.span_annotate(Instant::ZERO, trace, hop, "to_node", AnnoValue::U64(1));
        obs.span_end(Instant::ZERO, trace, hop, SpanStatus::Ok);
        let events = rec.snapshot().export_jsonl();

        let good = format!(
            "{{\"kind\":\"cluster_cell\",\"nodes\":2,\"placement\":\"rr\",\"dispatch\":\"ll\"}}\n\
             {events}{{\"kind\":\"cluster_summary\",\"redirected\":1,\"per_node\":[\
             {{\"node\":0,\"redirected_in\":0,\"redirected_out\":1}},\
             {{\"node\":1,\"redirected_in\":1,\"redirected_out\":0}}]}}\n"
        );
        assert!(analyze(&good, 3).expect("analyze").audit_passed());

        let bad = good.replace("\"redirected\":1", "\"redirected\":2");
        let report = analyze(&bad, 3).expect("analyze");
        assert!(!report.audit_passed());
        assert!(report.sections[0]
            .violations
            .iter()
            .any(|v| v.contains("hop spans vs cluster redirected")));
    }

    #[test]
    fn flight_dump_sections_skip_the_audit() {
        // A ring snapshot legitimately holds an end without its start.
        let rec = Arc::new(RecorderSink::new());
        let obs = Obs::new(Arc::clone(&rec) as Arc<dyn vod_obs::Sink>);
        let trace = TraceId::derive(3, 2);
        obs.span_end(
            Instant::ZERO,
            trace,
            SpanId::derive(trace, SEQ_REQUEST),
            SpanStatus::Ok,
        );
        let src = format!(
            "{{\"kind\":\"flight_dump\",\"reason\":\"underflow\"}}\n{}",
            rec.snapshot().export_jsonl()
        );
        let report = analyze(&src, 3).expect("analyze");
        assert!(report.audit_passed());
        assert!(!report.sections[0].audited);
    }

    #[test]
    fn schema_checker_rejects_malformed_lines() {
        let errs =
            check_schema("{\"kind\":\"span_start\",\"t\":1.0}\nnot json\n").expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("16-hex")));
        assert!(errs.iter().any(|e| e.contains("not JSON")));
    }

    #[test]
    fn empty_trace_detection_ignores_blank_lines_only() {
        assert!(is_empty_trace(""));
        assert!(is_empty_trace("\n\n  \n\t\n"));
        assert!(!is_empty_trace(
            "{\"kind\":\"experiment\",\"name\":\"t\"}\n"
        ));
        assert!(!is_empty_trace("\n\ngarbage\n"));
    }

    #[test]
    fn render_mentions_audit_verdict() {
        let src = format!(
            "{{\"kind\":\"experiment\",\"name\":\"t\"}}\n{}",
            lifecycle_jsonl()
        );
        let report = analyze(&src, 1).expect("analyze");
        let text = render(&report);
        assert!(text.contains("invariant audit: OK"));
        assert!(text.contains("invariant audit OK"));
    }
}
