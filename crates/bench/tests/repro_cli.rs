//! The `repro` command line: which flags each subcommand accepts, and how
//! it refuses the rest. Every case but three stops while the arguments (or
//! the fault script or trace file they name) are read, so no experiment or
//! matrix runs; one runs a single two-node chaos episode, one the
//! two-cell engine smoke matrix, and one the two-cell cluster smoke matrix
//! at two job counts.

use std::process::Command;

use vod_obs::{Event, SpanId, SpanKind, SpanStatus, TimeSeries, TraceId, TraceLine};
use vod_types::Instant;

/// Runs `repro` with the whitespace-separated `args`; returns its exit
/// code and stderr.
fn repro(args: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args.split_whitespace())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro starts");
    let code = out.status.code().expect("repro exits with a code");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Asserts `repro args` exits 1 and says `message` on stderr.
fn refuses(args: &str, message: &str) {
    let (code, stderr) = repro(args);
    assert_eq!(code, 1, "repro {args} exited {code}; stderr:\n{stderr}");
    assert!(
        stderr.contains(message),
        "repro {args}: expected `{message}` on stderr, got:\n{stderr}"
    );
}

/// Every flag of every subcommand, with a valid value where it takes
/// one, then a bogus option: the reader must get past all of them and
/// stop at the bogus one.
#[test]
fn every_subcommand_accepts_its_flags_and_names_an_unknown_option() {
    for (args, message) in [
        (
            "--quick --trace t.jsonl --flight f.jsonl --summary-json s.json --metrics m.prom \
             tab3 --bogus",
            "unknown option `--bogus`",
        ),
        (
            "bench --smoke --jobs 1 --out b.json --bogus",
            "unknown bench option `--bogus`",
        ),
        (
            "cluster --smoke --jobs 1 --out c.json --metrics m.prom --trace t.jsonl \
             --flight f.jsonl --bogus",
            "unknown cluster option `--bogus`",
        ),
        (
            "chaos --smoke --jobs 1 --out c.json --trace t.jsonl --flight f.jsonl --bogus",
            "unknown chaos option `--bogus`",
        ),
        (
            "chaos --seed 7 --nodes 3 --reseed-after 60 --flight f.jsonl --bogus",
            "unknown chaos option `--bogus`",
        ),
        (
            "trace-analyze t.jsonl --schema-only --top 2 --bogus",
            "unknown trace-analyze option `--bogus`",
        ),
        (
            "report t.jsonl --out r.md --series-csv s.csv --bogus",
            "unknown report option `--bogus`",
        ),
        (
            "compare a.json b.json --bogus",
            "unknown compare option `--bogus`",
        ),
    ] {
        refuses(args, message);
    }
}

#[test]
fn a_value_flag_without_its_value_is_refused() {
    for (args, message) in [
        ("--trace", "--trace requires a file argument"),
        ("--flight", "--flight requires a file argument"),
        ("--summary-json", "--summary-json requires a file argument"),
        ("--metrics", "--metrics requires a file argument"),
        ("bench --out", "--out requires a file argument"),
        ("bench --jobs", "--jobs requires a positive integer"),
        ("bench --jobs 0", "--jobs requires a positive integer"),
        ("cluster --out", "--out requires a file argument"),
        ("cluster --metrics", "--metrics requires a file argument"),
        ("cluster --trace", "--trace requires a file argument"),
        ("cluster --jobs x", "--jobs requires a positive integer"),
        ("chaos --seed -1", "--seed requires an unsigned integer"),
        ("chaos --script", "--script requires a file argument"),
        ("chaos --nodes 0", "--nodes requires a positive integer"),
        (
            "chaos --reseed-after -5",
            "--reseed-after requires a non-negative number of seconds",
        ),
        ("chaos --flight", "--flight requires a file argument"),
        (
            "trace-analyze --top",
            "--top requires a non-negative integer",
        ),
        ("report --out", "--out requires a file argument"),
        (
            "report --series-csv",
            "--series-csv requires a file argument",
        ),
    ] {
        refuses(args, message);
    }
}

#[test]
fn the_removed_idle_path_switch_is_an_unknown_option() {
    refuses(
        "bench --no-fast-forward",
        "unknown bench option `--no-fast-forward`",
    );
    refuses(
        "cluster --no-fast-forward",
        "unknown cluster option `--no-fast-forward`",
    );
}

/// `compare` has one exact rule and `report` reads traces only: the
/// tolerance factor and the chaos-envelope table are gone.
#[test]
fn the_removed_gate_options_are_unknown_options() {
    refuses(
        "compare a.json b.json --tolerance 4",
        "unknown compare option `--tolerance`",
    );
    refuses(
        "report --chaos-delta a.json b.json",
        "unknown report option `--chaos-delta`",
    );
}

/// An ad-hoc episode (`--seed` / `--script`) reads none of the matrix
/// flags, and the matrix reads none of the episode's.
#[test]
fn chaos_refuses_flags_of_the_other_mode() {
    refuses(
        "chaos --seed 1 --script s.txt",
        "--seed and --script are mutually exclusive",
    );
    for (flag, value) in [("--smoke", ""), ("--out", "c.json"), ("--trace", "t.jsonl")] {
        refuses(
            &format!("chaos --seed 1 {flag} {value}"),
            &format!("--seed and {flag} are mutually exclusive"),
        );
    }
    refuses(
        "chaos --jobs 2 --script s.txt",
        "--script and --jobs are mutually exclusive",
    );
    for flag in ["--nodes 3", "--reseed-after 60"] {
        let name = flag.split_whitespace().next().expect("a flag");
        refuses(
            &format!("chaos --smoke {flag}"),
            &format!("{name} applies only to an ad-hoc episode: add --seed or --script"),
        );
    }
}

/// A malformed fault script is refused with the offending line, not a
/// panic (which would exit 101).
#[test]
fn a_bare_domain_line_in_a_fault_script_is_refused() {
    let script = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bare_domain.txt");
    std::fs::write(&script, "domain\n").expect("script is writable");
    refuses(
        "chaos --script bare_domain.txt --nodes 2",
        "line 1: domain needs a name and at least one member node",
    );
}

/// An ad-hoc episode prints what the cluster did, not only the fault
/// splits: a throttle that admits less shows in this line.
#[test]
fn a_chaos_episode_prints_the_cluster_admission_counts() {
    let script = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("one_slowdown.txt");
    std::fs::write(&script, "600 0 slow:8\n").expect("script is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["chaos", "--script", "one_slowdown.txt"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    let counts = stdout
        .lines()
        .find(|l| l.starts_with("dispatched "))
        .unwrap_or_else(|| panic!("no admission line in:\n{stdout}"));
    let words: Vec<&str> = counts.split_whitespace().collect();
    let keys: Vec<&str> = words.iter().step_by(2).copied().collect();
    assert_eq!(
        keys,
        ["dispatched", "admitted", "deferred", "rejected", "services"]
    );
    let value = |i: usize| -> u64 { words[2 * i + 1].parse().expect("a count") };
    assert!(value(0) > 0 && value(4) > 0, "{counts}");
    assert!(value(1) + value(3) <= value(0), "{counts}");
}

/// Lines a hand-kept schema once let through, each made from a written
/// line by one edit: an unknown kind, an unknown span kind, an unknown
/// span status, an event with only its time, and a series point with two
/// of its three numbers.
fn lax_lines() -> [String; 5] {
    let trace = TraceId::derive(1, 0);
    let span = SpanId::derive(trace, 0);
    let start = Event::SpanStart {
        at: Instant::ZERO,
        trace,
        span,
        parent: None,
        span_kind: SpanKind::Request,
    };
    let end = Event::SpanEnd {
        at: Instant::ZERO,
        trace,
        span,
        status: SpanStatus::Ok,
    };
    let mut series = TimeSeries::new("active_streams", 2);
    series.push(0.0, 1.0);
    [
        r#"{"kind":"bogus","t":1.0}"#.to_owned(),
        start.to_json().replace("\"request\"", "\"nonsense\""),
        end.to_json().replace("\"ok\"", "\"weird\""),
        r#"{"kind":"stream_serviced","t":1.0}"#.to_owned(),
        series.to_json("node0").replace("[[0,0.0,1.0]]", "[[0,1]]"),
    ]
}

/// `trace-analyze --schema-only` and `report` refuse every lax line with
/// its number, after one valid header line.
#[test]
fn the_trace_tools_refuse_each_lax_line_by_number() {
    let header = TraceLine::Experiment {
        name: "probe",
        events: 4,
        events_dropped: 0,
        spans_dropped: 0,
    };
    let lines = lax_lines();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        dir.join("lax_lines.jsonl"),
        format!("{}\n{}\n", header.to_json(), lines.join("\n")),
    )
    .expect("trace is writable");
    for cmd in [
        "trace-analyze lax_lines.jsonl --schema-only",
        "report lax_lines.jsonl",
    ] {
        let (code, stderr) = repro(cmd);
        assert_eq!(code, 1, "repro {cmd} exited {code}; stderr:\n{stderr}");
        for n in 2..=6 {
            assert!(
                stderr.contains(&format!("schema: line {n}: ")),
                "repro {cmd}: no diagnostic for line {n}:\n{stderr}"
            );
        }
        assert!(!stderr.contains("line 1:"), "{stderr}");
    }
    for (i, line) in lines.iter().enumerate() {
        let file = format!("lax_line_{i}.jsonl");
        std::fs::write(dir.join(&file), format!("{line}\n")).expect("trace is writable");
        refuses(
            &format!("trace-analyze {file} --schema-only"),
            "schema: line 1: ",
        );
    }
}

#[test]
fn missing_arguments_are_refused() {
    refuses("", "usage: repro");
    refuses("nosuch", "unknown experiment `nosuch`");
    refuses(
        "trace-analyze",
        "trace-analyze requires a trace file argument",
    );
    refuses("report", "report requires a trace file argument");
    refuses(
        "compare a.json",
        "compare requires exactly two document arguments",
    );
}

/// A matrix run given no `--out` writes its mode's committed pin in the
/// working directory, equal byte for byte to the committed file.
#[test]
fn a_smoke_run_writes_its_committed_pin_by_default() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("default_out");
    _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a fresh directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--smoke", "--jobs", "1"])
        .current_dir(&dir)
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("the directory lists")
        .map(|e| e.expect("an entry").file_name())
        .collect();
    assert_eq!(written, ["BENCH_baseline.json"]);
    assert_eq!(
        std::fs::read_to_string(dir.join("BENCH_baseline.json")).expect("the run's document"),
        include_str!("../../../BENCH_baseline.json")
    );
}

/// `--metrics` writes only the wall-clock phase histograms, and the
/// number of samples in each does not depend on the job count.
#[test]
fn cluster_metrics_are_histograms_whose_counts_ignore_the_job_count() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cluster_metrics");
    _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("a fresh directory");
    let counts = |jobs: &str| {
        let prom = dir.join(format!("jobs{jobs}.prom"));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["cluster", "--smoke", "--jobs", jobs, "--out"])
            .arg(dir.join(format!("jobs{jobs}.json")))
            .arg("--metrics")
            .arg(&prom)
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "stderr:\n{stderr}");
        let text = std::fs::read_to_string(&prom).expect("the metrics file");
        let families: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        assert!(!families.is_empty(), "{text}");
        for family in families {
            assert!(family.ends_with(" histogram"), "{family}");
        }
        text.lines()
            .filter(|l| l.contains("_count "))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let one = counts("1");
    assert!(!one.is_empty());
    assert_eq!(one, counts("2"));
}

#[test]
fn list_prints_the_usage_and_succeeds() {
    let (code, stderr) = repro("--list");
    assert_eq!(code, 0, "stderr:\n{stderr}");
    assert!(stderr.starts_with("usage: repro"), "stderr:\n{stderr}");
    assert!(stderr.contains("  gss_g "), "stderr:\n{stderr}");
    assert!(!stderr.contains("fast-forward"), "stderr:\n{stderr}");
}
