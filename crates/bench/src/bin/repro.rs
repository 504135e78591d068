//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--trace <file.jsonl>] [--flight <file.jsonl>]
//!       [--summary-json <file>] [--metrics <file.prom>] <experiment>...
//! repro [--quick] all
//! repro bench [--smoke] [--jobs <n>] [--out <file>]
//! repro cluster [--smoke] [--jobs <n>] [--out <file>] [--metrics <file.prom>]
//!       [--trace <file.jsonl>] [--flight <file.jsonl>]
//! repro chaos [--smoke] [--jobs <n>] [--out <file>] [--trace <file.jsonl>] [--flight <file.jsonl>]
//! repro chaos (--seed <n> | --script <file>) [--nodes <n>] [--reseed-after <secs>]
//!       [--flight <file.jsonl>]
//! repro trace-analyze <file.jsonl> [--schema-only] [--top <k>]
//! repro report <trace.jsonl> [--out <file.md>] [--series-csv <file.csv>]
//! repro compare <old.json> <new.json>
//! repro --list
//! ```
//!
//! Each experiment prints aligned tables to stdout and mirrors them as CSV
//! under `results/`. `--quick` runs the simulated experiments at a reduced
//! scale (6 simulated hours, 2 seeds) — shapes hold, noise is higher.
//!
//! Observability (simulated experiments only; analytic ones emit nothing):
//!
//! * `--trace <file.jsonl>` — records every engine event, spans
//!   included, and writes them as JSON Lines. Each experiment
//!   contributes an `experiment` header line followed by its events.
//!   Feed the file to `repro trace-analyze`.
//! * `--flight <file.jsonl>` — arms a bounded flight recorder teed
//!   behind the trace recorder; anomalies (underflow, rejection, parked
//!   span) dump the ring to the file as sections opened by a
//!   `flight_dump` line. Also accepted by `repro cluster` and
//!   `repro chaos`.
//! * `--summary-json <file>` — writes one JSON document with, per
//!   experiment, the host wall-clock time, the events and span records
//!   the recorder dropped (`events_dropped` / `spans_dropped`), per-kind
//!   event counters (admitted / deferred / rejected / underflow, …), and
//!   the recorder's histograms. The same drop totals feed the shared
//!   metrics registry as `vod_events_dropped_total` /
//!   `vod_spans_dropped_total` when `--metrics` is active.
//! * `--metrics <file.prom>` — attaches one shared metrics registry to
//!   every simulated experiment and writes its final state in Prometheus
//!   text exposition format.
//!
//! `repro bench` skips the tables entirely and runs the pinned
//! performance matrix instead, writing `BENCH_perf.json` (see
//! `EXPERIMENTS.md`, “Benchmark methodology”). `--smoke` is the CI-sized
//! subset; `--out` overrides the output path. Runs are gated by diffing
//! the written document against a committed one with `repro compare`.
//!
//! `repro cluster --trace <file.jsonl>` runs the matrix sequentially with
//! a per-cell span recorder and writes sections opened by a
//! `cluster_cell` line (lifecycle spans + admission outcomes; per-cycle
//! detail gated off so nothing is dropped), each closed by a
//! `cluster_summary` line and followed by its `series` and `audit` lines.
//! The schema of every line is the `vod_obs` types: `vod_obs::TraceLine`
//! and `vod_obs::Event` write each kind and parse it back. `repro
//! trace-analyze` and `repro report` parse the file once, refusing it
//! with a `line N:` diagnostic per line that does not parse; then
//! `trace-analyze` prints span trees, per-stream latency breakdowns,
//! top-k slowest traces, and the invariant audit (admission spans vs
//! admitted counts, hop chains vs redirection counters). It exits
//! non-zero on schema errors or audit violations.
//!
//! Every subcommand reads its flags through one [`Args`] reader: an
//! unknown option, or a value flag with a missing or malformed value,
//! prints a one-line message and exits 1.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use vod_analysis::{write_csv, Table};
use vod_bench::{
    compare, fig10, fig11, fig12, fig13, fig14, fig6, fig7, fig8, fig9, gss_g, report, run_matrix,
    tab3, tab4, tab5, traceview, vcr, BenchMode, ChaosBenchMode, ClusterBenchMode, Matrix, Scale,
};
use vod_obs::metrics::{CTR_EVENTS_DROPPED, CTR_SPANS_DROPPED};
use vod_obs::{
    json, prom, trace, FlightRecorder, Metrics, MetricsRegistry, Obs, RecorderSink, Sink, TeeSink,
    TraceLine,
};

const EXPERIMENTS: [(&str, &str); 14] = [
    ("tab3", "disk profile constants and derived N (analysis)"),
    ("fig6", "concurrent streams vs time of day (simulation)"),
    ("fig7", "estimator quality vs T_log (simulation)"),
    ("fig8", "estimator quality vs alpha (simulation)"),
    ("fig9", "buffer size vs n (analysis)"),
    ("fig10", "worst-case initial latency vs n (analysis)"),
    ("fig11", "average initial latency vs n (simulation)"),
    ("fig12", "minimum memory requirement vs n (analysis)"),
    ("fig13", "capacity vs memory, 10 disks (analysis)"),
    ("fig14", "capacity vs memory, 10 disks (simulation)"),
    (
        "tab4",
        "average initial-latency reduction ratios (simulation)",
    ),
    ("tab5", "average capacity improvement ratios (simulation)"),
    ("gss_g", "extension: memory vs GSS group size (analysis)"),
    ("vcr", "extension: VCR responsiveness (simulation)"),
];

fn is_simulated(name: &str) -> bool {
    matches!(
        name,
        "fig6" | "fig7" | "fig8" | "fig11" | "fig14" | "tab4" | "tab5" | "vcr"
    )
}

fn run_experiment(name: &str, scale: Scale, obs: &Obs) -> Option<Vec<Table>> {
    match name {
        "tab3" => Some(tab3()),
        "fig6" => Some(fig6(scale, obs)),
        "fig7" => Some(fig7(scale, obs)),
        "fig8" => Some(fig8(scale, obs)),
        "fig9" => Some(fig9()),
        "fig10" => Some(fig10()),
        "fig11" => Some(fig11(scale, obs)),
        "fig12" => Some(fig12()),
        "fig13" => Some(fig13()),
        "fig14" => Some(fig14(scale, obs)),
        "tab4" => Some(tab4(scale, obs)),
        "tab5" => Some(tab5(scale, obs)),
        "gss_g" => Some(gss_g()),
        "vcr" => Some(vcr(scale, obs)),
        _ => None,
    }
}

fn print_usage() {
    eprintln!(
        "usage: repro [--quick] [--trace <file.jsonl>] [--flight <file.jsonl>] \
         [--summary-json <file>] [--metrics <file.prom>] <experiment>... | all | --list"
    );
    eprintln!("       repro bench [--smoke] [--jobs <n>] [--out <file>]");
    eprintln!(
        "       repro cluster [--smoke] [--jobs <n>] [--out <file>] \
         [--metrics <file.prom>] [--trace <file.jsonl>] [--flight <file.jsonl>]"
    );
    eprintln!(
        "       repro chaos [--smoke] [--jobs <n>] [--out <file>] [--trace <file.jsonl>] \
         [--flight <file.jsonl>]"
    );
    eprintln!(
        "       repro chaos (--seed <n> | --script <file>) [--nodes <n>] \
         [--reseed-after <secs>] [--flight <file.jsonl>]"
    );
    eprintln!("       repro trace-analyze <file.jsonl> [--schema-only] [--top <k>]");
    eprintln!("       repro report <trace.jsonl> [--out <file.md>] [--series-csv <file.csv>]");
    eprintln!("       repro compare <old.json> <new.json>");
    eprintln!("experiments:");
    for (name, desc) in EXPERIMENTS {
        eprintln!("  {name:<6} {desc}");
    }
    eprintln!("  bench    pinned performance matrix -> BENCH_perf.json");
    eprintln!(
        "  cluster  cluster_scaling matrix (nodes x placement x dispatch) -> BENCH_cluster.json"
    );
    eprintln!(
        "  chaos    fault-injection matrix (scenario x failover x nodes) -> BENCH_chaos.json; \
         --seed/--script run one ad-hoc episode"
    );
    eprintln!("  trace-analyze  span trees, latency breakdowns, invariant audit of a trace");
    eprintln!("  report   markdown run report (series timelines, latencies, audits) from a trace");
    eprintln!(
        "  compare  the regression gate: diff two BENCH_*.json documents; \
         exit 1 on regression, 2 if incomparable"
    );
}

/// What a subcommand returns. `Err` is an early stop — a bad argument, an
/// unreadable or unwritable file — whose message is already printed;
/// `Ok` carries a finished run's own exit code.
type Run = Result<ExitCode, ExitCode>;

/// Reads one subcommand's arguments in order. A value flag takes the
/// argument after it; a missing or unacceptable value prints
/// `<flag> requires <what>` and stops the run with exit 1.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The argument `next` returned last: the flag a value belongs to.
    flag: &'a str,
    /// Start of the message for an argument nobody accepts, e.g.
    /// `unknown bench option`.
    unknown: &'static str,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String], unknown: &'static str) -> Self {
        Args {
            rest: args.iter(),
            flag: "",
            unknown,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value, parsed as `T` and accepted by `ok`.
    fn value<T: FromStr>(&mut self, what: &str, ok: impl Fn(&T) -> bool) -> Result<T, ExitCode> {
        let parsed = self.rest.next().and_then(|v| v.parse::<T>().ok());
        parsed.filter(|v| ok(v)).ok_or_else(|| {
            eprintln!("{} requires {what}", self.flag);
            ExitCode::FAILURE
        })
    }

    fn path(&mut self) -> Result<PathBuf, ExitCode> {
        self.value("a file argument", |_| true)
    }

    fn positive(&mut self) -> Result<usize, ExitCode> {
        self.value("a positive integer", |&n| n > 0)
    }

    /// Rejects `arg`: prints the message and the usage, exit 1.
    fn unknown<T>(&self, arg: &str) -> Result<T, ExitCode> {
        eprintln!("{} `{arg}`", self.unknown);
        print_usage();
        Err(ExitCode::FAILURE)
    }
}

/// The default `--jobs`: one worker per available core.
fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_file(path: &Path) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: could not read {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// Writes `body` to `path`. `what` (`"trace "`, `"metrics "`, … or `""`)
/// names the file in the error message.
fn write_file(what: &str, path: &Path, body: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    std::fs::write(path, body).map_err(|e| {
        eprintln!("error: could not write {what}{}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// Reads the trace file `cmd` was given; an absent or unreadable file
/// stops the run.
fn read_trace(cmd: &str, file: Option<PathBuf>) -> Result<(PathBuf, String), ExitCode> {
    let Some(path) = file else {
        eprintln!("{cmd} requires a trace file argument");
        print_usage();
        return Err(ExitCode::FAILURE);
    };
    let src = read_file(&path)?;
    Ok((path, src))
}

/// Parses every line of the trace file `path` holds. A line that does
/// not parse stops the run with a `line N:` diagnostic per bad line (the
/// first 20 are printed), and so does a file with no lines at all.
fn parse_trace<'a>(
    cmd: &str,
    path: &Path,
    src: &'a str,
) -> Result<Vec<(usize, TraceLine<'a>)>, ExitCode> {
    let lines = trace::parse_file(src).map_err(|errors| {
        for e in errors.iter().take(20) {
            eprintln!("schema: {e}");
        }
        if errors.len() > 20 {
            eprintln!("schema: ... and {} more", errors.len() - 20);
        }
        eprintln!("[{cmd}: schema check FAILED on {}]", path.display());
        ExitCode::FAILURE
    })?;
    if lines.is_empty() {
        eprintln!(
            "error: {} contains no trace lines (empty or truncated file)",
            path.display()
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(lines)
}

/// Arms a flight recorder that appends anomaly dumps to `path`. Shared
/// by every subcommand that accepts `--flight`.
fn arm_flight(path: &Path) -> Arc<FlightRecorder> {
    eprintln!("flight: armed, dumps append to {}", path.display());
    Arc::new(FlightRecorder::new().with_path(path))
}

/// Reports what the flight recorder saw once a run is over.
fn flight_report(flight: &FlightRecorder) {
    eprintln!(
        "flight: {} events seen, {} anomalies, {} dump(s) written",
        flight.seen(),
        flight.anomalies(),
        flight.dumps_written(),
    );
}

/// `repro trace-analyze <file.jsonl> [--schema-only] [--top <k>]`: the
/// offline half of the tracing pipeline. Always validates the JSONL
/// schema; unless `--schema-only`, also reconstructs span trees, prints
/// per-stream latency breakdowns and the top-k slowest traces, and runs
/// the invariant audit. Non-zero exit on schema errors or violations.
fn trace_analyze_main(args: &[String]) -> Run {
    let mut file: Option<PathBuf> = None;
    let mut schema_only = false;
    let mut top_k = 3usize;
    let mut args = Args::new(args, "unknown trace-analyze option");
    while let Some(a) = args.next() {
        match a {
            "--schema-only" => schema_only = true,
            "--top" => top_k = args.value("a non-negative integer", |_| true)?,
            other if !other.starts_with("--") && file.is_none() => {
                file = Some(PathBuf::from(other));
            }
            other => return args.unknown(other),
        }
    }
    let (path, src) = read_trace("trace-analyze", file)?;
    let lines = parse_trace("trace-analyze", &path, &src)?;
    let schema = traceview::SchemaSummary::of(&lines);
    eprintln!(
        "schema OK: {} lines ({} markers, {} events, {} span records)",
        schema.lines, schema.markers, schema.events, schema.span_events
    );
    if schema_only {
        return Ok(ExitCode::SUCCESS);
    }
    let report = traceview::analyze(&lines, top_k);
    println!("{}", traceview::render(&report));
    Ok(if report.audit_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `repro report <trace.jsonl> [--out <file.md>] [--series-csv <file.csv>]`:
/// renders the self-contained markdown run report (series timelines,
/// latency breakdowns, estimator audits, flight-dump cross-references)
/// from a trace file. `--series-csv` additionally re-exports every
/// embedded series as flat CSV.
fn report_main(args: &[String]) -> Run {
    let mut file: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut args = Args::new(args, "unknown report option");
    while let Some(a) = args.next() {
        match a {
            "--out" => out = Some(args.path()?),
            "--series-csv" => csv = Some(args.path()?),
            other if !other.starts_with("--") && file.is_none() => {
                file = Some(PathBuf::from(other));
            }
            other => return args.unknown(other),
        }
    }
    let (path, src) = read_trace("report", file)?;
    let lines = parse_trace("report", &path, &src)?;
    let md = report::render_run_report(&lines);
    for (scope, names) in &report::series_inventory(&lines) {
        eprintln!("series: scope `{scope}`: {}", names.join(", "));
    }
    if let Some(csv_path) = &csv {
        write_file("", csv_path, report::series_csv(&lines))?;
        eprintln!("[series CSV -> {}]", csv_path.display());
    }
    match &out {
        Some(out_path) => {
            write_file("", out_path, md)?;
            eprintln!("[report -> {}]", out_path.display());
        }
        None => print!("{md}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro compare <old.json> <new.json>`: the regression gate over two
/// saved bench documents. Exit 0 when every field of every cell matches,
/// 1 when one differs, 2 when the documents are not comparable
/// (different schema, fingerprint, or matrix shape).
fn compare_main(args: &[String]) -> Run {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = Args::new(args, "unknown compare option");
    while let Some(a) = args.next() {
        match a {
            other if !other.starts_with("--") && files.len() < 2 => {
                files.push(PathBuf::from(other));
            }
            other => return args.unknown(other),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!("compare requires exactly two document arguments: <old.json> <new.json>");
        print_usage();
        return Err(ExitCode::FAILURE);
    };
    let result = compare::compare_documents(&read_file(old_path)?, &read_file(new_path)?);
    for problem in &result.problems {
        eprintln!("compare PROBLEM: {problem}");
    }
    let (old, new) = (old_path.display(), new_path.display());
    Ok(match result.verdict {
        compare::CompareVerdict::Matches => {
            eprintln!("[compare OK: {new} matches {old}]");
            ExitCode::SUCCESS
        }
        compare::CompareVerdict::Regression => {
            eprintln!("[compare FAILED: {new} regressed against {old}]");
            ExitCode::FAILURE
        }
        compare::CompareVerdict::Incompatible => {
            eprintln!("[compare REFUSED: {old} and {new} do not describe the same experiment]");
            ExitCode::from(2)
        }
    })
}

/// Runs `mode`'s matrix (sequentially and traced into `trace`, if
/// given), prints `line` for each cell, and writes the document to
/// `out`. Stdout carries counters only; the wall time goes to the
/// stderr status line.
fn run_matrix_main<M: Matrix>(
    mode: M,
    jobs: usize,
    obs: &Obs,
    trace: Option<&Path>,
    out: &Path,
    line: impl Fn(&M::Cell) -> String,
) -> Result<(), ExitCode> {
    let progress = |line: &str| eprintln!("{line}");
    let started = Instant::now();
    let report = match trace {
        Some(path) => {
            if jobs > 1 {
                eprintln!("note: --trace runs the matrix sequentially; --jobs ignored");
            }
            let mut trace_out = String::new();
            let report = run_matrix(mode, jobs, obs, Some(&mut trace_out), &progress);
            write_file("trace ", path, trace_out)?;
            eprintln!("[{} trace -> {}]", M::KIND, path.display());
            report
        }
        None => run_matrix(mode, jobs, obs, None, &progress),
    };
    let elapsed = started.elapsed();
    for cell in &report.cells {
        println!("{}", line(cell));
    }
    write_file("", out, report.to_json() + "\n")?;
    eprintln!(
        "[{} {} done in {elapsed:.1?} -> {}]",
        M::KIND,
        mode.label(),
        out.display()
    );
    Ok(())
}

/// `repro bench [--smoke] [--jobs <n>] [--out <file>]`: the pinned
/// performance matrix.
fn bench_main(args: &[String]) -> Run {
    let mut mode = BenchMode::Full;
    let mut out = PathBuf::from("BENCH_perf.json");
    let mut jobs = all_cores();
    let mut args = Args::new(args, "unknown bench option");
    while let Some(a) = args.next() {
        match a {
            "--smoke" => mode = BenchMode::Smoke,
            "--out" => out = args.path()?,
            "--jobs" => jobs = args.positive()?,
            other => return args.unknown(other),
        }
    }
    run_matrix_main(mode, jobs, &Obs::null(), None, &out, |c| {
        format!(
            "{:<14} {:<12} θ={:<4} {:>9} cycles  {:>10} services  {:>5} admitted  \
             {:>8.2} MiB peak",
            format!("{:?}", c.scheme),
            c.method.label(),
            c.theta,
            c.stats.cycles,
            c.stats.services,
            c.stats.admitted,
            c.stats.peak_memory.as_mebibytes(),
        )
    })?;
    Ok(ExitCode::SUCCESS)
}

/// `repro cluster [--smoke] [--jobs <n>] [--out <file>]
/// [--metrics <file.prom>] [--trace <file.jsonl>] [--flight <file.jsonl>]`:
/// the `cluster_scaling` matrix (node count × placement × dispatch).
///
/// `--metrics` dumps the accumulated registry (per-node counters across
/// every cell) in Prometheus text. The committed smoke run is
/// `BENCH_cluster_smoke.json`; CI diffs a fresh one against it with
/// `repro compare`.
fn cluster_main(args: &[String]) -> Run {
    let mut mode = ClusterBenchMode::Full;
    let mut out = PathBuf::from("BENCH_cluster.json");
    let mut metrics_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut flight_path: Option<PathBuf> = None;
    let mut jobs = all_cores();
    let mut args = Args::new(args, "unknown cluster option");
    while let Some(a) = args.next() {
        match a {
            "--smoke" => mode = ClusterBenchMode::Smoke,
            "--trace" => trace_path = Some(args.path()?),
            "--flight" => flight_path = Some(args.path()?),
            "--out" => out = args.path()?,
            "--metrics" => metrics_path = Some(args.path()?),
            "--jobs" => jobs = args.positive()?,
            other => return args.unknown(other),
        }
    }

    let registry = Arc::new(MetricsRegistry::new());
    let flight = flight_path.as_deref().map(arm_flight);
    let obs = match &flight {
        Some(f) => Obs::new(Arc::clone(f) as Arc<dyn Sink>),
        None => Obs::null(),
    }
    .with_metrics(Metrics::new(Arc::clone(&registry)));
    run_matrix_main(mode, jobs, &obs, trace_path.as_deref(), &out, |c| {
        format!(
            "{:>2} nodes  {:<14} {:<13} {:>6} arrivals  {:>5} deferred  {:>5} redirected  \
             imbalance {:>5.2}  {:>8.2} MiB peak",
            c.spec.nodes,
            c.spec.placement.label(),
            c.spec.dispatch.label(),
            c.report.dispatched,
            c.report.deferrals(),
            c.report.redirected,
            c.report.imbalance_ratio(),
            c.report.peak_memory_bits() / (8.0 * 1024.0 * 1024.0),
        )
    })?;
    if let Some(path) = &metrics_path {
        write_file("metrics ", path, prom::render(&registry.snapshot()))?;
    }
    if let Some(f) = &flight {
        flight_report(f);
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro chaos [--smoke] [--jobs <n>] [--out <file>] [--trace <file.jsonl>]
/// [--flight <file.jsonl>]`:
/// the fault-injection matrix (scenario × failover policy × nodes) over
/// the pinned replicated cluster shape, writing `BENCH_chaos.json`.
/// `repro compare` gates it exactly, like every bench document.
///
/// `repro chaos (--seed <n> | --script <file>) [--nodes <n>]
/// [--reseed-after <secs>] [--flight <file.jsonl>]` instead runs a
/// single ad-hoc episode (`--nodes`, default 2): the schedule comes from
/// [`vod_chaos::FaultSchedule::from_seed`] or a fault-script file
/// (`domain <name> <node>...` declarations, then
/// `<t_secs> <node|@domain> crash|slow:<f>|pressure:<f>|degrade:<d>:<f>|`
/// `error:<r>|rejoin[:warm|:cold]` per line), `--reseed-after <secs>`
/// arms fault-triggered re-replication, and the degradation summary
/// prints to stdout. A flag of one mode given in the other is an error.
fn chaos_main(args: &[String]) -> Run {
    let mut mode = ChaosBenchMode::Full;
    let mut out = PathBuf::from("BENCH_chaos.json");
    let mut trace_path: Option<PathBuf> = None;
    let mut flight_path: Option<PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut script: Option<PathBuf> = None;
    let mut reseed_after: Option<f64> = None;
    let mut adhoc_nodes = 2usize;
    let mut jobs = all_cores();
    // The first flag seen that only the matrix, or only an ad-hoc
    // episode, reads.
    let mut matrix_flag: Option<&str> = None;
    let mut adhoc_flag: Option<&str> = None;
    let mut args = Args::new(args, "unknown chaos option");
    while let Some(a) = args.next() {
        match a {
            "--smoke" => mode = ChaosBenchMode::Smoke,
            "--reseed-after" => {
                let what = "a non-negative number of seconds";
                reseed_after = Some(args.value(what, |s| *s >= 0.0)?);
            }
            "--seed" => seed = Some(args.value("an unsigned integer", |_| true)?),
            "--nodes" => adhoc_nodes = args.positive()?,
            "--script" => script = Some(args.path()?),
            "--out" => out = args.path()?,
            "--trace" => trace_path = Some(args.path()?),
            "--flight" => flight_path = Some(args.path()?),
            "--jobs" => jobs = args.positive()?,
            other => return args.unknown(other),
        }
        match a {
            "--smoke" | "--out" | "--trace" | "--jobs" => _ = matrix_flag.get_or_insert(a),
            "--nodes" | "--reseed-after" => _ = adhoc_flag.get_or_insert(a),
            _ => {}
        }
    }
    let episode = match (seed, &script) {
        (Some(_), Some(_)) => {
            eprintln!("--seed and --script are mutually exclusive");
            return Err(ExitCode::FAILURE);
        }
        (Some(_), None) => Some("--seed"),
        (None, Some(_)) => Some("--script"),
        (None, None) => None,
    };
    match (episode, matrix_flag, adhoc_flag) {
        (Some(e), Some(m), _) => {
            eprintln!("{e} and {m} are mutually exclusive");
            return Err(ExitCode::FAILURE);
        }
        (None, _, Some(f)) => {
            eprintln!("{f} applies only to an ad-hoc episode: add --seed or --script");
            return Err(ExitCode::FAILURE);
        }
        _ => {}
    }

    let flight = flight_path.as_deref().map(arm_flight);
    let obs = match &flight {
        Some(f) => Obs::new(Arc::clone(f) as Arc<dyn Sink>),
        None => Obs::null(),
    };

    if episode.is_some() {
        let nodes = adhoc_nodes;
        let horizon =
            vod_types::Seconds::from_hours(ChaosBenchMode::Smoke.cluster().horizon_hours());
        let schedule = if let Some(path) = &script {
            vod_chaos::FaultSchedule::from_script(&read_file(path)?).map_err(|e| {
                eprintln!("error: bad fault script {}: {e}", path.display());
                ExitCode::FAILURE
            })?
        } else {
            vod_chaos::FaultSchedule::from_seed(seed.unwrap_or(0), nodes, horizon)
        };
        eprintln!(
            "chaos: ad-hoc episode, {nodes} nodes, {} fault(s)",
            schedule.len()
        );
        let report = vod_bench::chaos::run_chaos_adhoc(
            nodes,
            schedule,
            vod_chaos::FailoverPolicy::Migrate,
            vod_chaos::RecoveryPolicy::Warm,
            reseed_after.map(vod_types::Seconds::from_secs),
            &obs,
        )
        .map_err(|e| {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        })?;
        let s = &report.summary;
        println!(
            "faults {} ({} domain)  interrupted {}  migrated {}  parked {}  dropped {}  unplaceable {}",
            s.faults_injected,
            s.domain_faults,
            s.interrupted,
            s.migrated,
            s.parked,
            s.dropped,
            s.unplaceable
        );
        println!(
            "recoveries {}  cold_rebuilds {}  rereplications {}  rereplicated {}  ttr {}  \
             availability {:.4}  underflows {}",
            s.recoveries,
            s.cold_rebuilds,
            s.rereplications,
            s.rereplicated,
            s.mean_time_to_recover_s
                .map_or_else(|| "-".to_owned(), |t| format!("{t:.1}s")),
            s.availability,
            report.cluster.underflows(),
        );
        if let Some(f) = &flight {
            flight_report(f);
        }
        return Ok(ExitCode::SUCCESS);
    }

    run_matrix_main(mode, jobs, &obs, trace_path.as_deref(), &out, |c| {
        let s = &c.report.summary;
        format!(
            "{:>2} nodes  {:<9} {:<8} {:>6} arrivals  {:>4} interrupted  {:>4} migrated  \
             {:>4} dropped  avail {:>6.4}  {:>2} underflows",
            c.spec.nodes,
            c.spec.scenario.label(),
            c.spec.failover.label(),
            c.report.cluster.dispatched,
            s.interrupted,
            s.migrated,
            s.dropped,
            s.availability,
            c.report.cluster.underflows(),
        )
    })?;
    if let Some(f) = &flight {
        flight_report(f);
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro [--quick] [--trace …] [--flight …] [--summary-json …]
/// [--metrics …] <experiment>... | all | --list`: the paper's tables.
fn experiments_main(args: &[String]) -> Run {
    let mut scale = Scale::Full;
    let mut names: Vec<String> = Vec::new();
    let mut trace_path: Option<PathBuf> = None;
    let mut flight_path: Option<PathBuf> = None;
    let mut summary_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut args = Args::new(args, "unknown option");
    while let Some(a) = args.next() {
        match a {
            "--quick" => scale = Scale::Quick,
            "--list" => {
                print_usage();
                return Ok(ExitCode::SUCCESS);
            }
            "--trace" => trace_path = Some(args.path()?),
            "--flight" => flight_path = Some(args.path()?),
            "--summary-json" => summary_path = Some(args.path()?),
            "--metrics" => metrics_path = Some(args.path()?),
            "all" => names.extend(EXPERIMENTS.iter().map(|(n, _)| (*n).to_owned())),
            other if other.starts_with("--") => return args.unknown(other),
            other => names.push(other.to_owned()),
        }
    }
    if names.is_empty() {
        print_usage();
        return Err(ExitCode::FAILURE);
    }

    // One registry shared by every simulated experiment of the run: the
    // .prom file describes the whole invocation.
    let registry = metrics_path
        .is_some()
        .then(|| Arc::new(MetricsRegistry::new()));
    let metrics = registry
        .as_ref()
        .map(|r| Metrics::new(Arc::clone(r)))
        .unwrap_or_default();

    let flight = flight_path.as_deref().map(arm_flight);
    let observing = trace_path.is_some() || summary_path.is_some();
    let mut trace_out = String::new();
    let mut summary_entries = json::Array::new();

    let results_dir = Path::new("results");
    for name in names {
        let started = Instant::now();
        // A fresh recorder per experiment keeps counters and the trace
        // attributable. With --summary-json alone the recorder keeps no
        // raw events (capacity 0): counters and histograms still fill.
        let sink = if observing && is_simulated(&name) {
            Some(Arc::new(if trace_path.is_some() {
                RecorderSink::new()
            } else {
                RecorderSink::with_capacity(0)
            }))
        } else {
            None
        };
        let obs = match (&sink, &flight) {
            (Some(s), Some(f)) => Obs::new(Arc::new(TeeSink::new(
                Arc::clone(s) as Arc<dyn Sink>,
                Arc::clone(f) as Arc<dyn Sink>,
            ))),
            (Some(s), None) => Obs::new(Arc::clone(s) as Arc<dyn Sink>),
            (None, Some(f)) if is_simulated(&name) => Obs::new(Arc::clone(f) as Arc<dyn Sink>),
            _ => Obs::null(),
        };
        let obs = if is_simulated(&name) {
            obs.with_metrics(metrics.clone())
        } else {
            obs
        };
        let Some(tables) = run_experiment(&name, scale, &obs) else {
            eprintln!("unknown experiment `{name}`");
            print_usage();
            return Err(ExitCode::FAILURE);
        };
        let elapsed = started.elapsed();
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.render());
            let csv_name = if tables.len() == 1 {
                name.clone()
            } else {
                format!("{name}_{i}")
            };
            if let Err(e) = write_csv(table, results_dir, &csv_name) {
                eprintln!("warning: could not write results/{csv_name}.csv: {e}");
            }
        }
        if let Some(sink) = sink {
            let snap = sink.snapshot();
            if trace_path.is_some() {
                // Only a bounded-capacity recorder that was asked for raw
                // events can lose trace lines; with --summary-json alone
                // the capacity-0 recorder "drops" everything by design
                // while its counters stay complete.
                if snap.dropped() > 0 {
                    eprintln!(
                        "warning: {name}: recorder dropped {} events; trace is incomplete",
                        snap.dropped()
                    );
                }
                let header = TraceLine::Experiment {
                    name: &name,
                    events: snap.events().len() as u64,
                    events_dropped: snap.events_dropped(),
                    spans_dropped: snap.spans_dropped(),
                };
                trace_out.push_str(&header.to_json());
                trace_out.push('\n');
                trace_out.push_str(&snap.export_jsonl());
            }
            // The drop totals are first-class series in the attached
            // registry's file dump.
            metrics
                .counter(CTR_EVENTS_DROPPED)
                .add(snap.events_dropped());
            metrics.counter(CTR_SPANS_DROPPED).add(snap.spans_dropped());
            let mut entry = json::Object::new();
            entry.str("name", &name);
            entry.num("wall_clock_s", elapsed.as_secs_f64());
            entry.uint("events_dropped", snap.events_dropped());
            entry.uint("spans_dropped", snap.spans_dropped());
            entry.raw("observed", &snap.to_json());
            summary_entries.raw(&entry.finish());
        } else if summary_path.is_some() {
            let mut entry = json::Object::new();
            entry.str("name", &name);
            entry.num("wall_clock_s", elapsed.as_secs_f64());
            entry.uint("events_dropped", 0);
            entry.uint("spans_dropped", 0);
            entry.null("observed"); // analytic: no engine runs, no events
            summary_entries.raw(&entry.finish());
        }
        eprintln!("[{name} done in {elapsed:.1?}]");
    }

    if let (Some(path), Some(reg)) = (&metrics_path, &registry) {
        write_file("metrics ", path, prom::render(&reg.snapshot()))?;
    }
    if let Some(path) = &trace_path {
        write_file("trace ", path, trace_out)?;
    }
    if let Some(path) = &summary_path {
        let mut doc = json::Object::new();
        doc.str(
            "scale",
            match scale {
                Scale::Full => "full",
                Scale::Quick => "quick",
            },
        );
        doc.raw("experiments", &summary_entries.finish());
        write_file("summary ", path, doc.finish() + "\n")?;
    }
    if let Some(f) = &flight {
        flight_report(f);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let run = match first.as_str() {
        "bench" => bench_main(rest),
        "cluster" => cluster_main(rest),
        "chaos" => chaos_main(rest),
        "trace-analyze" => trace_analyze_main(rest),
        "report" => report_main(rest),
        "compare" => compare_main(rest),
        _ => experiments_main(&args),
    };
    run.unwrap_or_else(|code| code)
}
