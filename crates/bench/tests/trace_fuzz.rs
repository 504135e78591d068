//! Fuzzing the trace tools: whatever the input, parsing it returns typed
//! lines or one `line N: ...` diagnostic per bad line, and `analyze`,
//! `render_run_report` and `series_csv` never panic on what parses.
//!
//! Three input families, each with a fixed case budget:
//!
//! * arbitrary bytes;
//! * line-level mutations (drop, duplicate, swap) of one valid trace
//!   built here: a small engine run's recorder export behind an
//!   `experiment` header, then a cluster section (header, events,
//!   summary, a series and an audit line) and a flight-dump section;
//! * single-character edits of that trace, so that lines reach the typed
//!   parser with a broken field.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use vod_bench::{render_run_report, report, traceview};
use vod_obs::trace::parse_file;
use vod_obs::{
    CellHeader, CellSummary, NodeRedirects, Obs, RecorderSink, Sink, TimeSeries, TraceLine,
};
use vod_sim::{DiskEngine, EngineConfig};
use vod_workload::{generate, WorkloadConfig};

/// Event lines of the engine run kept in the trace.
const EVENT_LINES: usize = 60;

/// The valid trace every mutation starts from.
fn valid_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut wl_cfg = WorkloadConfig::paper_single_disk(0.271, 60.0);
        wl_cfg.duration = vod_types::Seconds::from_minutes(30.0);
        wl_cfg.peak = vod_types::Seconds::from_minutes(15.0);
        wl_cfg.max_viewing = vod_types::Seconds::from_minutes(5.0);
        let wl = generate(&wl_cfg, 1).expect("valid workload config");
        let recorder = Arc::new(RecorderSink::new());
        let cfg = EngineConfig::paper(
            vod_sched::SchedulingMethod::RoundRobin,
            vod_core::SchemeKind::Dynamic,
        );
        let _ = DiskEngine::with_observer(cfg, Obs::new(Arc::clone(&recorder) as Arc<dyn Sink>))
            .expect("paper config is valid")
            .run(&wl.arrivals);
        let events: Vec<String> = recorder
            .snapshot()
            .export_jsonl()
            .lines()
            .take(EVENT_LINES)
            .map(str::to_owned)
            .collect();
        let (first, second) = events.split_at(EVENT_LINES / 2);
        let mut series = TimeSeries::new("active_streams", 4);
        for i in 0..6 {
            series.push(f64::from(i), f64::from(i % 3));
        }
        let mut lines = vec![TraceLine::Experiment {
            name: "fig11",
            events: first.len() as u64,
            events_dropped: 0,
            spans_dropped: 0,
        }
        .to_json()];
        lines.extend_from_slice(first);
        lines.push(
            TraceLine::ClusterCell(CellHeader {
                nodes: 1,
                placement: "round_robin",
                dispatch: "least_loaded",
                chaos: None,
            })
            .to_json(),
        );
        lines.extend_from_slice(second);
        lines.push(
            TraceLine::ClusterSummary(CellSummary {
                per_node: vec![NodeRedirects::default()],
                ..CellSummary::default()
            })
            .to_json(),
        );
        lines.push(series.to_json("node0"));
        lines.push(
            TraceLine::Audit {
                scope: "node0",
                samples: 2,
                violations: 1,
            }
            .to_json(),
        );
        lines.push(
            TraceLine::FlightDump {
                reason: "underflow",
                seq: 9,
                events: 2,
                dropped: 0,
            }
            .to_json(),
        );
        lines.extend_from_slice(&events[..2]);
        lines.join("\n") + "\n"
    })
}

/// The property every family checks: no panic (the harness turns one
/// into a failure), and every refusal names its line.
fn parses_or_names_its_lines(src: &str) {
    match parse_file(src) {
        Ok(lines) => {
            let analysis = traceview::analyze(&lines, 3);
            let _ = traceview::render(&analysis);
            let _ = render_run_report(&lines);
            let _ = report::series_csv(&lines);
        }
        Err(errors) => {
            assert!(!errors.is_empty());
            for e in errors {
                let number = e
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split_once(": "))
                    .map(|(n, _)| n);
                assert!(
                    number.is_some_and(|n| n.parse::<usize>().is_ok()),
                    "{src:?} -> {e}"
                );
            }
        }
    }
}

/// Applies `(op, i, j)` mutations in order: op 0 drops line `i`, op 1
/// duplicates it, op 2 swaps lines `i` and `j` (indices wrap).
fn mutate(src: &str, muts: &[(u8, usize, usize)]) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    for &(op, i, j) in muts {
        if lines.is_empty() {
            break;
        }
        let (i, j) = (i % lines.len(), j % lines.len());
        match op {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i]),
            _ => lines.swap(i, j),
        }
    }
    lines.join("\n")
}

/// Replaces the character at each position (wrapping) with one from a
/// JSON-ish alphabet.
fn edit(src: &str, edits: &[(usize, usize)]) -> String {
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', '"', ',', ':', '\\', '0', '9', '-', '.', 'e', 'n', 'x', ' ', '\n',
    ];
    let mut chars: Vec<char> = src.chars().collect();
    for &(at, c) in edits {
        let at = at % chars.len();
        chars[at] = ALPHABET[c % ALPHABET.len()];
    }
    chars.into_iter().collect()
}

#[test]
fn the_unmutated_trace_is_valid_and_audits_every_section() {
    let lines = parse_file(valid_trace()).expect("valid trace");
    assert_eq!(lines.len(), EVENT_LINES + 8);
    let analysis = traceview::analyze(&lines, 3);
    let names: Vec<&str> = analysis.sections.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "fig11",
            "cluster 1 nodes / round_robin / least_loaded",
            "flight dump (underflow)"
        ]
    );
    assert!(render_run_report(&lines).contains("active_streams"));
    assert_eq!(mutate(valid_trace(), &[]) + "\n", valid_trace());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_name_their_lines(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        parses_or_names_its_lines(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_valid_trace_parses_or_names_its_lines(
        muts in prop::collection::vec((0u8..3, 0usize..256, 0usize..256), 1..6),
    ) {
        parses_or_names_its_lines(&mutate(valid_trace(), &muts));
    }

    #[test]
    fn edited_valid_trace_parses_or_names_its_lines(
        edits in prop::collection::vec((0usize..1 << 20, 0usize..64), 1..4),
    ) {
        parses_or_names_its_lines(&edit(valid_trace(), &edits));
    }
}
