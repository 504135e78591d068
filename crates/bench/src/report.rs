//! `repro report`: a self-contained markdown run report rendered from a
//! parsed trace file.
//!
//! The input is the combined stream `repro cluster --trace` (or
//! `repro --trace`) writes, parsed into [`TraceLine`]s: section headers,
//! span/request events, `series` cycle-indexed time series, `audit`
//! estimator audits, and `flight_dump` anomaly snapshots. The report
//! stitches all of them into one document:
//!
//! - per-section span statistics and latency breakdowns (reusing
//!   [`crate::traceview::analyze`]),
//! - every recorded series as a sparkline table row (n, stride, min /
//!   mean / max / last, and a fixed-width unicode sparkline),
//! - per-node estimator audits,
//! - flight-recorder dumps cross-referenced to the cycle index at which
//!   they fired (the last series sample at or before the dump's first
//!   event time).
//!
//! Everything here is a pure function of the trace, so the report is as
//! deterministic as the trace itself (wall-clock never appears).

use std::collections::BTreeMap;

use crate::traceview;
use vod_obs::{SeriesLine, TraceLine};

/// One `audit` line under the section it belongs to.
struct AuditRow<'a> {
    section: String,
    scope: &'a str,
    samples: u64,
    violations: u64,
}

/// One flight dump with the time of its first captured event.
struct DumpRow<'a> {
    reason: &'a str,
    seq: u64,
    dropped: u64,
    first_event_t: Option<f64>,
}

/// Glyph ramp used for sparklines, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Sparkline column width: series longer than this are resampled by
/// position bucketing so every row lines up.
const SPARK_WIDTH: usize = 40;

fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let width = values.len().min(SPARK_WIDTH);
    let mut out = String::with_capacity(width * 3);
    for b in 0..width {
        // Position bucket [lo, hi) of the samples this glyph covers.
        let lo = b * values.len() / width;
        let hi = (((b + 1) * values.len()) / width).max(lo + 1);
        let bucket = &values[lo..hi];
        let v = bucket.iter().sum::<f64>() / bucket.len() as f64;
        let level = if max > min {
            (((v - min) / (max - min)) * (SPARKS.len() - 1) as f64).round() as usize
        } else {
            SPARKS.len() / 2
        };
        out.push(SPARKS[level.min(SPARKS.len() - 1)]);
    }
    out
}

fn num(x: f64) -> String {
    if x == 0.0 {
        return "0".to_owned();
    }
    let a = x.abs();
    if (1e-3..1e7).contains(&a) && x.fract() == 0.0 {
        format!("{x}")
    } else if (1e-3..1e7).contains(&a) {
        format!("{x:.3}")
    } else {
        format!("{x:.3e}")
    }
}

/// Renders the markdown run report for a parsed trace file.
#[must_use]
pub fn render_run_report(lines: &[(usize, TraceLine<'_>)]) -> String {
    let analysis = traceview::analyze(lines, 3);

    // Series lines are grouped per section in file order; the section
    // labels mirror analyze's, so the tables can be cross-read.
    let mut section = String::from("(unnamed)");
    let mut series: Vec<(String, &SeriesLine<'_>)> = Vec::new();
    let mut audits: Vec<AuditRow<'_>> = Vec::new();
    let mut dumps: Vec<DumpRow<'_>> = Vec::new();
    for (_, line) in lines {
        match line {
            TraceLine::Experiment { name, .. } => section = (*name).to_owned(),
            TraceLine::ClusterCell(header) => section = header.label(),
            TraceLine::Series(s) => series.push((section.clone(), s)),
            TraceLine::Audit {
                scope,
                samples,
                violations,
            } => audits.push(AuditRow {
                section: section.clone(),
                scope,
                samples: *samples,
                violations: *violations,
            }),
            TraceLine::FlightDump {
                reason,
                seq,
                dropped,
                ..
            } => dumps.push(DumpRow {
                reason,
                seq: *seq,
                dropped: *dropped,
                first_event_t: None,
            }),
            TraceLine::Event(e) => {
                // The first event after a dump marker timestamps it.
                if let Some(d) = dumps.last_mut() {
                    d.first_event_t.get_or_insert(e.at().as_secs_f64());
                }
            }
            TraceLine::ClusterSummary(_) => {}
        }
    }

    let mut out = String::from("# Run report\n");

    // Section overview from the invariant audit.
    out.push_str("\n## Sections\n\n");
    out.push_str("| section | events | spans | traces | audit | mean deferral | mean ttfs |\n");
    out.push_str("|---|---:|---:|---:|---|---:|---:|\n");
    for s in &analysis.sections {
        let verdict = if !s.audited {
            "schema only".to_owned()
        } else if s.violations.is_empty() {
            "OK".to_owned()
        } else {
            format!("{} violation(s)", s.violations.len())
        };
        let mean = |xs: Vec<f64>| {
            if xs.is_empty() {
                "n/a".to_owned()
            } else {
                format!("{:.3}s", xs.iter().sum::<f64>() / xs.len() as f64)
            }
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            s.name,
            s.events,
            s.spans,
            s.traces,
            verdict,
            mean(
                s.breakdowns
                    .iter()
                    .filter_map(|b| b.deferral_wait_s)
                    .collect()
            ),
            mean(
                s.breakdowns
                    .iter()
                    .filter_map(|b| b.time_to_first_service_s)
                    .collect()
            ),
        ));
    }
    for s in &analysis.sections {
        for viol in &s.violations {
            out.push_str(&format!("\n- **violation** ({}): {viol}\n", s.name));
        }
    }

    // Time-series timelines, grouped section → scope.
    out.push_str("\n## Time series\n");
    if series.is_empty() {
        out.push_str("\n_No series lines in this trace (run with series recording on)._\n");
    }
    let mut last_group = String::new();
    for (sec, s) in &series {
        let group = format!("{sec} — scope `{}`", s.scope);
        if group != last_group {
            out.push_str(&format!("\n### {group}\n\n"));
            out.push_str("| series | n | stride | min | mean | max | last | timeline |\n");
            out.push_str("|---|---:|---:|---:|---:|---:|---:|---|\n");
            last_group = group;
        }
        let values: Vec<f64> = s.points.iter().map(|p| p.value).collect();
        let (min, max, mean, last) = if values.is_empty() {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            (
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                values.iter().sum::<f64>() / values.len() as f64,
                *values.last().expect("non-empty"),
            )
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            s.name,
            s.count,
            s.stride,
            num(min),
            num(mean),
            num(max),
            num(last),
            sparkline(&values),
        ));
    }

    // Estimator audits.
    if !audits.is_empty() {
        out.push_str("\n## Estimator audits\n\n");
        out.push_str("| section | scope | windows | violations | success |\n");
        out.push_str("|---|---|---:|---:|---:|\n");
        for a in &audits {
            let success = if a.samples == 0 {
                "n/a".to_owned()
            } else {
                format!(
                    "{:.1}%",
                    100.0 * a.samples.saturating_sub(a.violations) as f64 / a.samples as f64
                )
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {success} |\n",
                a.section, a.scope, a.samples, a.violations
            ));
        }
    }

    // Flight-recorder dumps, cross-referenced to the cycle index: the
    // engine samples every series once per cycle, so the last sample at
    // or before the dump's first event time names the cycle in which
    // the anomaly fired.
    if !dumps.is_empty() {
        out.push_str("\n## Flight-recorder dumps\n\n");
        for d in &dumps {
            let at = match d.first_event_t {
                Some(t) => {
                    let cycle = series
                        .iter()
                        .flat_map(|(_, s)| s.points.iter())
                        .filter(|p| p.t <= t)
                        .map(|p| p.index)
                        .max();
                    match cycle {
                        Some(c) => format!("t={t:.3}s, around cycle index {c}"),
                        None => format!("t={t:.3}s (before the first series sample)"),
                    }
                }
                None => "no events captured".to_owned(),
            };
            out.push_str(&format!(
                "- dump #{} (`{}`): {at}{}\n",
                d.seq,
                d.reason,
                if d.dropped > 0 {
                    format!(", ring dropped {} earlier events", d.dropped)
                } else {
                    String::new()
                }
            ));
        }
    }

    // Slowest traces, verbatim from the analyzer.
    let trees: Vec<&String> = analysis
        .sections
        .iter()
        .flat_map(|s| s.slowest.iter())
        .collect();
    if !trees.is_empty() {
        out.push_str("\n## Slowest traces\n\n```text\n");
        for tree in trees {
            out.push_str(tree);
        }
        out.push_str("```\n");
    }

    out
}

/// Re-renders every `series` line of a trace as the flat CSV exchange
/// format (`scope,name,index,t,value` — the same shape
/// [`vod_obs::timeseries::SeriesRecorder::export_csv`] writes), in file
/// order.
#[must_use]
pub fn series_csv(lines: &[(usize, TraceLine<'_>)]) -> String {
    let mut out = String::from(vod_obs::timeseries::SERIES_CSV_HEADER);
    for (_, line) in lines {
        if let TraceLine::Series(s) = line {
            s.append_csv(&mut out);
        }
    }
    out
}

/// The distinct series names of each scope, in first-seen order —
/// used by tests and the CLI to sanity-check coverage.
#[must_use]
pub fn series_inventory(lines: &[(usize, TraceLine<'_>)]) -> BTreeMap<String, Vec<String>> {
    let mut inv: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (_, line) in lines {
        if let TraceLine::Series(s) = line {
            let names = inv.entry(s.scope.to_owned()).or_default();
            if !names.iter().any(|n| n == s.name) {
                names.push(s.name.to_owned());
            }
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_obs::trace::parse_file;
    use vod_obs::{CellHeader, CellSummary, Event, Point};
    use vod_types::{Bits, Instant, RequestId};

    #[test]
    fn sparkline_maps_range_to_glyphs() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        // Constant series renders mid-glyphs, not a divide-by-zero.
        assert!(sparkline(&[5.0; 10]).chars().all(|c| c == SPARKS[4]));
        // Long series resample to the fixed width.
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(sparkline(&long).chars().count(), SPARK_WIDTH);
    }

    /// A `series` line of scope `s` named `name` with these points.
    fn series(s: &str, name: &str, points: &[(u64, f64, f64)]) -> String {
        let points: Vec<Point> = points
            .iter()
            .map(|&(index, t, value)| Point { index, t, value })
            .collect();
        TraceLine::Series(SeriesLine {
            scope: s,
            name,
            stride: 1,
            count: points.len() as u64,
            points: points.into(),
        })
        .to_json()
            + "\n"
    }

    #[test]
    fn report_renders_series_audits_and_dump_cross_reference() {
        let header = TraceLine::ClusterCell(CellHeader {
            nodes: 1,
            placement: "rr",
            dispatch: "ll",
            chaos: None,
        });
        let lines = [
            header,
            TraceLine::ClusterSummary(CellSummary::default()),
            TraceLine::Audit {
                scope: "node0",
                samples: 4,
                violations: 1,
            },
            TraceLine::FlightDump {
                reason: "underflow",
                seq: 1,
                events: 1,
                dropped: 0,
            },
            TraceLine::Event(Event::Underflow {
                at: Instant::from_secs(1.75),
                id: RequestId::new(3),
                n: 7,
                deficit: Bits::new(64.0),
            }),
        ]
        .map(|l| l.to_json() + "\n");
        let src = lines[..2].concat()
            + &series(
                "node0",
                "active_streams",
                &[(0, 0.5, 1.0), (1, 1.5, 2.0), (2, 2.5, 3.0)],
            )
            + &lines[2..].concat();
        let trace = parse_file(&src).expect("every line parses");
        let md = render_run_report(&trace);
        assert!(md.contains("# Run report"));
        assert!(md.contains("active_streams"));
        assert!(md.contains('▁'), "sparkline glyphs expected:\n{md}");
        assert!(md.contains("75.0%"), "audit success rate:\n{md}");
        // The dump at t=1.75 lands after sample index 1 (t=1.5) and
        // before index 2 (t=2.5).
        assert!(md.contains("around cycle index 1"), "{md}");

        let csv = series_csv(&trace);
        assert!(csv.starts_with("scope,name,index,t,value\n"));
        assert!(csv.contains("node0,active_streams,1,1.5,2.0\n"), "{csv}");
    }

    #[test]
    fn inventory_counts_distinct_names_per_scope() {
        let src = [
            series("a", "x", &[]),
            series("a", "y", &[]),
            series("a", "x", &[]),
        ]
        .concat();
        let inv = series_inventory(&parse_file(&src).expect("every line parses"));
        assert_eq!(inv["a"], vec!["x".to_owned(), "y".to_owned()]);
    }

    /// A hand-edited audit line can claim more violations than windows;
    /// the success rate floors at zero instead of overflowing.
    #[test]
    fn audit_with_more_violations_than_windows_renders() {
        let audit = TraceLine::Audit {
            scope: "node0",
            samples: 1,
            violations: 2,
        };
        let md = render_run_report(&[(1, audit)]);
        assert!(md.contains("| node0 | 1 | 2 | 0.0% |"), "{md}");
    }

    #[test]
    fn empty_trace_still_renders() {
        let md = render_run_report(&[]);
        assert!(md.contains("No series lines"));
    }
}
