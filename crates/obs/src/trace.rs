//! The trace-file format: JSON Lines, one [`TraceLine`] per line.
//!
//! A trace file (`repro --trace`, `repro cluster|chaos --trace`, a
//! flight-recorder dump file) is a sequence of sections, each opened by a
//! header line and carrying engine [`Event`] lines:
//!
//! * `experiment` opens one `repro --trace` experiment;
//! * `cluster_cell` opens one traced matrix cell, whose events end with
//!   its `cluster_summary`, followed by the cell's `series` and `audit`
//!   lines;
//! * `flight_dump` opens one flight-recorder ring snapshot.
//!
//! The schema is these types. [`TraceLine::to_json`] writes every line
//! kind (an event through [`Event::to_json`]) and [`TraceLine::from_json`]
//! reads each one back, each field through its `Field` type, with these
//! rules:
//!
//! * an unknown kind or label, and a missing or mistyped field, is an
//!   error; an extra field is ignored;
//! * every number is finite, and `null` stands only where the writer puts
//!   it on purpose: an event's `due_min`, `insertion_budget` and `parent`;
//! * an integer is at most 2^53: a larger one is refused, not rounded;
//! * ids are 16 hex digits, and every string is an identifier written
//!   without escapes, which the parsed line borrows from the source text.

use std::borrow::Cow;

use vod_types::{Bits, Instant, Seconds};

use crate::event::{Event, EventKind, RejectReason};
use crate::json::{self, Array, Json, Object};
use crate::span::{AnnoValue, SpanId, SpanKind, SpanStatus, TraceId};
use crate::timeseries::Point;

/// One line of a trace file.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceLine<'a> {
    /// Opens the section of one `repro --trace` experiment.
    Experiment {
        /// The experiment (`fig11`, …).
        name: &'a str,
        /// Event lines the recorder kept for the section.
        events: u64,
        /// Non-span events the recorder dropped at its capacity.
        events_dropped: u64,
        /// Span records the recorder dropped at its capacity.
        spans_dropped: u64,
    },
    /// Opens the section of one traced matrix cell.
    ClusterCell(CellHeader<'a>),
    /// A traced cell's counters, after its events.
    ClusterSummary(CellSummary),
    /// Opens one flight-recorder dump: the ring's events follow.
    FlightDump {
        /// What fired the dump (`underflow`, `overflow_rejection`, …).
        reason: &'a str,
        /// Records the recorder had seen when it fired.
        seq: u64,
        /// Event lines in the dump.
        events: u64,
        /// Writes the ring lost to slot contention.
        dropped: u64,
    },
    /// One time series of a traced cell.
    Series(SeriesLine<'a>),
    /// One node's estimator audit in a traced cell.
    Audit {
        /// The node (`node0`, …).
        scope: &'a str,
        /// Windows audited.
        samples: u64,
        /// Windows in which the estimate was violated.
        violations: u64,
    },
    /// An engine event.
    Event(Event<'a>),
}

/// The header of a traced matrix cell: its shape, and for a chaos cell
/// the injected scenario and failover policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellHeader<'a> {
    /// Cluster nodes.
    pub nodes: usize,
    /// Placement policy label.
    pub placement: &'a str,
    /// Dispatch policy label.
    pub dispatch: &'a str,
    /// The chaos scenario and failover policy, for a chaos cell.
    pub chaos: Option<ChaosHeader<'a>>,
}

impl CellHeader<'_> {
    /// The section's name in `repro trace-analyze` and `repro report`:
    /// `cluster N nodes / placement / dispatch[ / scenario/failover]`.
    #[must_use]
    pub fn label(&self) -> String {
        let mut name = format!(
            "cluster {} nodes / {} / {}",
            self.nodes, self.placement, self.dispatch
        );
        if let Some(c) = self.chaos {
            name.push_str(&format!(" / {}/{}", c.scenario, c.failover));
        }
        name
    }
}

/// What a chaos cell's header adds to a cluster cell's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosHeader<'a> {
    /// The fault scenario label.
    pub scenario: &'a str,
    /// The failover policy label.
    pub failover: &'a str,
}

/// A traced cell's `cluster_summary`: the front end's redirection
/// counters, which `repro trace-analyze` reconciles with the hop spans,
/// and what the cell's recorder kept and dropped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellSummary {
    /// Redirections across the cluster.
    pub redirected: u64,
    /// Event lines the recorder kept for the section.
    pub events: u64,
    /// Non-span events the recorder dropped at its capacity.
    pub events_dropped: u64,
    /// Span records the recorder dropped at its capacity.
    pub spans_dropped: u64,
    /// The degradation counters of a chaos cell.
    pub chaos: Option<ChaosCounters>,
    /// Redirections in and out of each node.
    pub per_node: Vec<NodeRedirects>,
}

/// What a chaos cell's summary adds to a cluster cell's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Faults injected.
    pub faults_injected: u64,
    /// Streams a fault interrupted.
    pub interrupted: u64,
    /// Interrupted streams migrated to a sibling replica.
    pub migrated: u64,
    /// Interrupted streams dropped.
    pub dropped: u64,
}

/// One node's redirection counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeRedirects {
    /// The node's index.
    pub node: usize,
    /// Arrivals redirected to this node.
    pub redirected_in: u64,
    /// Arrivals redirected away from this node.
    pub redirected_out: u64,
}

/// One `series` line: a [`crate::TimeSeries`] under its scope.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesLine<'a> {
    /// The recorder's scope (`cluster`, `node0`, …).
    pub scope: &'a str,
    /// The series name.
    pub name: &'a str,
    /// The sampling stride when the series was written.
    pub stride: u64,
    /// Samples offered, kept or decimated away.
    pub count: u64,
    /// The retained points, in index order, each written
    /// `[index, t, value]`.
    pub points: Cow<'a, [Point]>,
}

impl SeriesLine<'_> {
    /// Appends `scope,name,index,t,value` CSV rows (no header).
    pub fn append_csv(&self, out: &mut String) {
        for p in self.points.iter() {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                self.scope,
                self.name,
                p.index,
                json::number(p.t),
                json::number(p.value),
            ));
        }
    }
}

/// Builds `$t` from the fields of `$line` named like its fields, and
/// any fields given after `;`.
macro_rules! read_fields {
    ($line:ident: $($t:ident)::+ { $($f:ident),+ $(; $($g:ident: $e:expr),+)? }) => {
        $($t)::+ {
            $($f: field($line, stringify!($f))?,)+
            $($($g: $e,)+)?
        }
    };
}

impl<'a> TraceLine<'a> {
    /// One-line JSON object (no trailing newline); the first field is
    /// always `"kind"`, and every other key is the name of the field it
    /// holds.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        match self {
            TraceLine::Event(e) => return e.to_json(),
            TraceLine::Experiment {
                name,
                events,
                events_dropped,
                spans_dropped,
            } => {
                o.str("kind", "experiment");
                o.str("name", name);
                o.uint("events", *events);
                o.uint("events_dropped", *events_dropped);
                o.uint("spans_dropped", *spans_dropped);
            }
            TraceLine::ClusterCell(h) => {
                o.str("kind", "cluster_cell");
                h.nodes.write(&mut o, "nodes");
                o.str("placement", h.placement);
                o.str("dispatch", h.dispatch);
                if let Some(c) = h.chaos {
                    o.str("scenario", c.scenario);
                    o.str("failover", c.failover);
                }
            }
            TraceLine::ClusterSummary(s) => {
                o.str("kind", "cluster_summary");
                o.uint("redirected", s.redirected);
                o.uint("events", s.events);
                o.uint("events_dropped", s.events_dropped);
                o.uint("spans_dropped", s.spans_dropped);
                if let Some(c) = s.chaos {
                    o.uint("faults_injected", c.faults_injected);
                    o.uint("interrupted", c.interrupted);
                    o.uint("migrated", c.migrated);
                    o.uint("dropped", c.dropped);
                }
                let mut nodes = Array::new();
                for n in &s.per_node {
                    let mut no = Object::new();
                    n.node.write(&mut no, "node");
                    no.uint("redirected_in", n.redirected_in);
                    no.uint("redirected_out", n.redirected_out);
                    nodes.raw(&no.finish());
                }
                o.raw("per_node", &nodes.finish());
            }
            TraceLine::FlightDump {
                reason,
                seq,
                events,
                dropped,
            } => {
                o.str("kind", "flight_dump");
                o.str("reason", reason);
                o.uint("seq", *seq);
                o.uint("events", *events);
                o.uint("dropped", *dropped);
            }
            TraceLine::Series(s) => {
                o.str("kind", "series");
                o.str("scope", s.scope);
                o.str("name", s.name);
                o.uint("stride", s.stride);
                o.uint("count", s.count);
                let mut points = Array::new();
                for p in s.points.iter() {
                    let mut triple = Array::new();
                    triple.raw(&p.index.to_string());
                    triple.num(p.t);
                    triple.num(p.value);
                    points.raw(&triple.finish());
                }
                o.raw("points", &points.finish());
            }
            TraceLine::Audit {
                scope,
                samples,
                violations,
            } => {
                o.str("kind", "audit");
                o.str("scope", scope);
                o.uint("samples", *samples);
                o.uint("violations", *violations);
            }
        }
        o.finish()
    }

    /// Parses a line [`TraceLine::to_json`] wrote, borrowing its strings
    /// from `line`.
    ///
    /// # Errors
    ///
    /// Names the kind and the problem when a line breaks the rules in the
    /// module docs.
    pub fn from_json(line: &Json<'a>) -> Result<Self, String> {
        let kind: &str = field(line, "kind")?;
        TraceLine::read(kind, line).map_err(|e| format!("{kind}: {e}"))
    }

    /// Parses one line of text.
    ///
    /// # Errors
    ///
    /// As [`TraceLine::from_json`], or when the line is not JSON.
    pub fn parse(line: &'a str) -> Result<Self, String> {
        let v = json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
        TraceLine::from_json(&v)
    }

    fn read(kind: &str, line: &Json<'a>) -> Result<Self, String> {
        let has = |key| line.get(key).is_some();
        Ok(match kind {
            "experiment" => read_fields!(line: TraceLine::Experiment {
                name, events, events_dropped, spans_dropped
            }),
            "cluster_cell" => TraceLine::ClusterCell(read_fields!(line: CellHeader {
                nodes, placement, dispatch;
                chaos: if has("scenario") || has("failover") {
                    Some(read_fields!(line: ChaosHeader { scenario, failover }))
                } else {
                    None
                }
            })),
            "cluster_summary" => TraceLine::ClusterSummary(read_fields!(line: CellSummary {
                redirected, events, events_dropped, spans_dropped;
                chaos: if has("faults_injected") {
                    Some(read_fields!(line: ChaosCounters {
                        faults_injected, interrupted, migrated, dropped
                    }))
                } else {
                    None
                },
                per_node: array(line, "per_node")?
                    .iter()
                    .map(|n| {
                        Ok(read_fields!(n: NodeRedirects { node, redirected_in, redirected_out }))
                    })
                    .collect::<Result<_, String>>()
                    .map_err(|e| format!("per_node: {e}"))?
            })),
            "flight_dump" => {
                read_fields!(line: TraceLine::FlightDump { reason, seq, events, dropped })
            }
            "series" => TraceLine::Series(read_fields!(line: SeriesLine {
                scope, name, stride, count;
                points: array(line, "points")?
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        read_point(p).ok_or_else(|| {
                            format!("point {i} is not an [integer, number, number] triple")
                        })
                    })
                    .collect::<Result<_, String>>()?
            })),
            "audit" => read_fields!(line: TraceLine::Audit { scope, samples, violations }),
            _ => {
                let kind = EventKind::from_label(kind).ok_or("unknown kind")?;
                TraceLine::Event(Event::read(kind, line)?)
            }
        })
    }
}

/// A series point, written `[index, t, value]`.
fn read_point(p: &Json<'_>) -> Option<Point> {
    match p.as_arr()? {
        [index, t, value] => Some(Point {
            index: index.as_u64()?,
            t: finite(t)?,
            value: finite(value)?,
        }),
        _ => None,
    }
}

/// Parses every non-blank line of a trace file into its line number
/// (from 1, blank lines counted) and its [`TraceLine`].
///
/// # Errors
///
/// One `line N: why` message per line that does not parse.
pub fn parse_file(src: &str) -> Result<Vec<(usize, TraceLine<'_>)>, Vec<String>> {
    let mut lines = Vec::new();
    let mut errors = Vec::new();
    for (i, text) in src.lines().enumerate() {
        if text.trim().is_empty() {
            continue;
        }
        match TraceLine::parse(text) {
            Ok(line) => lines.push((i + 1, line)),
            Err(e) => errors.push(format!("line {}: {e}", i + 1)),
        }
    }
    if errors.is_empty() {
        Ok(lines)
    } else {
        Err(errors)
    }
}

/// A value written as one field of a trace line, and read back from it.
pub(crate) trait Field<'a>: Sized {
    /// What a well-formed field holds, for the error on one that is not.
    const WANT: &'static str;
    /// Writes the value as field `key` of `o`.
    fn write(self, o: &mut Object, key: &str);
    /// The value `v` holds, if it holds one.
    fn read(v: &Json<'a>) -> Option<Self>;
}

/// Reads field `key` of the object `line` as a `T`.
pub(crate) fn field<'a, T: Field<'a>>(line: &Json<'a>, key: &str) -> Result<T, String> {
    let Json::Obj(fields) = line else {
        return Err("not a JSON object".to_owned());
    };
    let v = fields
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    T::read(v).ok_or_else(|| format!("field `{key}` is not {}", T::WANT))
}

/// Reads field `key` of the object `line` as an array.
fn array<'j, 'a>(line: &'j Json<'a>, key: &str) -> Result<&'j [Json<'a>], String> {
    line.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .as_arr()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

fn finite(v: &Json<'_>) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite())
}

fn hex(v: &Json<'_>) -> Option<u64> {
    let s = v.as_str()?;
    let hex = s.len() == 16 && s.bytes().all(|c| c.is_ascii_hexdigit());
    hex.then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

/// Implements [`Field`] for each type: what it must be, how `x` is
/// written as field `k` of `o`, and how it is read from the value `v`.
macro_rules! fields {
    ($($t:ty: $want:literal, |$o:ident, $k:ident, $x:ident| $write:expr, |$v:ident| $read:expr;)+) => {$(
        impl<'a> Field<'a> for $t {
            const WANT: &'static str = $want;
            fn write(self, $o: &mut Object, $k: &str) {
                let $x = self;
                $write;
            }
            fn read($v: &Json<'a>) -> Option<Self> {
                $read
            }
        }
    )+};
}

fields! {
    Instant: "a finite number", |o, k, x| o.num(k, x.as_secs_f64()),
        |v| finite(v).map(Instant::from_secs);
    Seconds: "a finite number", |o, k, x| o.num(k, x.as_secs_f64()),
        |v| finite(v).map(Seconds::from_secs);
    Bits: "a finite number", |o, k, x| o.num(k, x.as_f64()), |v| finite(v).map(Bits::new);
    u64: "an integer of at most 2^53", |o, k, x| o.uint(k, x), |v| v.as_u64();
    usize: "an integer of at most 2^53", |o, k, x| o.uint(k, x as u64),
        |v| v.as_u64().and_then(|x| usize::try_from(x).ok());
    bool: "a boolean", |o, k, x| o.bool(k, x), |v| match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    };
    &'a str: "a string written without escapes", |o, k, x| o.str(k, x), |v| v.as_source_str();
    // The closed vocabularies, each read through its own `from_label`.
    SpanKind: "a span kind", |o, k, x| o.str(k, x.label()),
        |v| v.as_str().and_then(SpanKind::from_label);
    SpanStatus: "a span status", |o, k, x| o.str(k, x.label()),
        |v| v.as_str().and_then(SpanStatus::from_label);
    RejectReason: "a reject reason", |o, k, x| o.str(k, x.label()),
        |v| v.as_str().and_then(RejectReason::from_label);
    // Ids in their 16-hex-digit `Display` form: a `u64` id does not
    // survive a round trip through an `f64` JSON number.
    TraceId: "16 hex digits", |o, k, x| o.str(k, &x.to_string()), |v| hex(v).map(TraceId::from_raw);
    SpanId: "16 hex digits", |o, k, x| o.str(k, &x.to_string()), |v| hex(v).map(SpanId::from_raw);
}

/// `null` for `None`: an event's `due_min` and `parent`.
impl<'a, T: Field<'a>> Field<'a> for Option<T> {
    const WANT: &'static str = T::WANT;
    fn write(self, o: &mut Object, key: &str) {
        match self {
            Some(x) => x.write(o, key),
            None => o.null(key),
        }
    }
    fn read(v: &Json<'a>) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            v => T::read(v).map(Some),
        }
    }
}

/// See [`AnnoValue`] for how a value's JSON type names its variant.
impl<'a> Field<'a> for AnnoValue<'a> {
    const WANT: &'static str = "a number or a string";
    fn write(self, o: &mut Object, key: &str) {
        match self {
            AnnoValue::U64(v) => v.write(o, key),
            AnnoValue::F64(v) => o.num(key, v),
            AnnoValue::Str(v) => v.write(o, key),
            AnnoValue::Trace(t) => t.write(o, key),
        }
    }
    fn read(v: &Json<'a>) -> Option<Self> {
        match v {
            Json::Int(_) => u64::read(v).map(AnnoValue::U64),
            Json::Num(_) => finite(v).map(AnnoValue::F64),
            _ => TraceId::read(v)
                .map(AnnoValue::Trace)
                .or_else(|| <&str>::read(v).map(AnnoValue::Str)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, SpanKind, SpanStatus, TraceId};
    use vod_types::Instant;

    fn span_line(kind: SpanKind) -> String {
        let trace = TraceId::derive(1, 0);
        Event::SpanStart {
            at: Instant::ZERO,
            trace,
            span: SpanId::derive(trace, 0),
            parent: None,
            span_kind: kind,
        }
        .to_json()
    }

    fn refusal(line: &str) -> String {
        TraceLine::parse(line).expect_err(line)
    }

    #[test]
    fn lax_lines_are_refused_with_what_is_wrong() {
        assert_eq!(
            refusal(r#"{"kind":"bogus","t":1.0}"#),
            "bogus: unknown kind"
        );
        let nonsense = span_line(SpanKind::Request).replace("request", "nonsense");
        assert_eq!(
            refusal(&nonsense),
            "span_start: field `span_kind` is not a span kind"
        );
        let trace = TraceId::derive(1, 0);
        let weird = Event::SpanEnd {
            at: Instant::ZERO,
            trace,
            span: SpanId::derive(trace, 0),
            status: SpanStatus::Ok,
        }
        .to_json()
        .replace("\"ok\"", "\"weird\"");
        assert_eq!(
            refusal(&weird),
            "span_end: field `status` is not a span status"
        );
        assert_eq!(
            refusal(r#"{"kind":"stream_serviced","t":1.0}"#),
            "stream_serviced: missing field `trace`"
        );
        assert_eq!(
            refusal(
                r#"{"kind":"series","scope":"a","name":"x","stride":1,"count":1,"points":[[0,1]]}"#
            ),
            "series: point 0 is not an [integer, number, number] triple"
        );
    }

    #[test]
    fn null_and_escapes_stand_only_where_the_writer_puts_them() {
        let root = span_line(SpanKind::Request);
        assert!(root.contains("\"parent\":null"));
        TraceLine::parse(&root).expect("a root span's parent is null");
        assert_eq!(
            refusal(&root.replace("\"t\":0.0", "\"t\":null")),
            "span_start: field `t` is not a finite number"
        );
        assert_eq!(
            refusal(&root.replace("\"t\":0.0", "\"t\":1e400")),
            "span_start: field `t` is not a finite number"
        );
        assert_eq!(
            refusal(r#"{"kind":"audit","scope":"node\u0030","samples":1,"violations":0}"#),
            "audit: field `scope` is not a string written without escapes"
        );
        assert_eq!(
            refusal(r#"{"kind":"audit","scope":"node0","samples":1.0,"violations":0}"#),
            "audit: field `samples` is not an integer of at most 2^53"
        );
    }

    #[test]
    fn a_file_reports_every_bad_line_by_number() {
        let good = span_line(SpanKind::Hop);
        let src = format!("{good}\n\n{{\"kind\":\"bogus\"}}\nnot json\n  \n{good}\n");
        let errors = parse_file(&src).expect_err("two bad lines");
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].starts_with("line 3: "), "{errors:?}");
        assert!(errors[1].starts_with("line 4: not JSON"), "{errors:?}");
        let src = format!("\n{good}\n");
        let lines = parse_file(&src).expect("parses");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].0, 2, "blank lines keep their numbers");
        assert!(parse_file(" \n\t\n").expect("blank").is_empty());
    }

    #[test]
    fn one_cell_label_for_both_tools() {
        let mut header = CellHeader {
            nodes: 4,
            placement: "replicated_hot",
            dispatch: "least_loaded",
            chaos: None,
        };
        assert_eq!(
            header.label(),
            "cluster 4 nodes / replicated_hot / least_loaded"
        );
        header.chaos = Some(ChaosHeader {
            scenario: "zone_crash",
            failover: "migrate",
        });
        assert_eq!(
            header.label(),
            "cluster 4 nodes / replicated_hot / least_loaded / zone_crash/migrate"
        );
    }
}
