//! Command line of the benchmark. Run `vodbench --help` for usage.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vodbench::compare;
use vodbench::json::{Metric, ResultLine};
use vodbench::spans::to_jsonl;
use vodbench::stats::{median, percentile, quartiles};
use vodbench::summary::Outcome;
use vodbench::traced;
use vodbench::workloads::{rep, Kind, Rep, Scale};

const USAGE: &str = "usage:
  vodbench run <workload> [--seed S] [--seconds T] [--smoke]
  vodbench trace <workload> [--seed S] [--smoke]
  vodbench --workload <workload> [--seed S] [--seconds T] [--trace 0|1] [--smoke]
  vodbench compare <base_dir> <change_dir> [--bench-json PATH]

workloads: disk_sweep_peak disk_rr_probed cluster_zone_failover capacity_fig14
--seed     first trace seed (default 1)
--seconds  how long `run` keeps repeating after its warm-up (default 15)
--smoke    one seed, one repetition, 2 h traces
The last line of `run` and `trace` is one JSON result object.";

/// A run stops repeating no earlier than this many measured repetitions.
const MIN_REPS: usize = 5;

struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut trace = None;
    let mut seed = 1;
    let mut seconds = 15.0;
    let mut scale = Scale::FULL;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "run" if trace.is_none() => trace = Some(false),
            "trace" if trace.is_none() => trace = Some(true),
            "--workload" => kind = Some(value(a)?.clone()),
            "--seed" => {
                seed = value(a)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                seconds = value(a)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                trace = Some(match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--smoke" => scale = Scale::SMOKE,
            w if kind.is_none() && !w.starts_with('-') => kind = Some(w.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let name = kind.ok_or("no workload given")?;
    Ok(Options {
        kind: Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        scale,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit: unit.to_owned(),
    }
}

/// Measured repetitions of one run.
#[derive(Default)]
struct Measured {
    /// Every set-up sample.
    setup: Vec<f64>,
    /// Per-repetition rates, for the noise band printed beside the result.
    requests: Vec<f64>,
    /// Fastest time of each simulator over the repetitions.
    best: Vec<f64>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Measured {
    /// Books one repetition, checking it against rep 0.
    fn record(&mut self, r: &Rep, out: &Outcome, reference: &Outcome) {
        let n = self.requests.len() + 1;
        let mut bad = !out.violations.is_empty();
        self.violations
            .extend(out.violations.iter().map(|v| format!("rep {n}: {v}")));
        if out.digest != reference.digest {
            bad = true;
            self.violations
                .push(format!("rep {n}: simulated outputs differ from rep 0"));
        }
        self.attempted += out.offered;
        if bad {
            self.failed += out.offered;
        }
        self.setup.extend(&r.setup_s);
        self.requests
            .push(out.offered as f64 / r.run_s.iter().sum::<f64>());
        if self.best.is_empty() {
            self.best.clone_from(&r.run_s);
        }
        for (b, t) in self.best.iter_mut().zip(&r.run_s) {
            *b = b.min(*t);
        }
    }
}

/// Runs one warm-up repetition, then measured repetitions until
/// `seconds` have passed (and at least [`MIN_REPS`] ran), checking every
/// repetition against the warm-up.
fn run(o: &Options) -> Result<(ResultLine, Vec<String>), String> {
    let first = rep(o.kind, o.scale, o.seed);
    let reference = Outcome::of(&first.raw);
    let mut notes = vec![format!(
        "setup_cold_s {} s (rep 0, table cache cold)",
        first.setup_s[0]
    )];
    let mut m = Measured {
        violations: reference
            .violations
            .iter()
            .map(|v| format!("rep 0: {v}"))
            .collect(),
        ..Measured::default()
    };
    if o.scale.smoke {
        m.record(&first, &reference, &reference);
    } else {
        drop(first);
        let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
        while m.requests.len() < MIN_REPS || Instant::now() < deadline {
            let r = rep(o.kind, o.scale, o.seed);
            m.record(&r, &Outcome::of(&r.raw), &reference);
        }
    }

    // A shared host can run 1.5x slower than its best for seconds at a
    // time, so a median over one run's samples wanders with the host. Like
    // throughput, set-up reports its fastest sample.
    let best: f64 = m.best.iter().sum();
    let setup = m.setup.iter().copied().fold(f64::INFINITY, f64::min);
    for (name, v) in [("setup_s", &m.setup), ("requests_per_s", &m.requests)] {
        if let (Some(med), Some((q1, q3))) = (median(v), quartiles(v)) {
            notes.push(format!(
                "{name} per sample: median {med} [q1 {q1}, q3 {q3}] over {} samples",
                v.len()
            ));
        }
    }
    let il = |p: f64| percentile(&reference.latencies, p);
    for (name, q) in [("il_p50_s", il(0.5)), ("il_p99_s", il(0.99))] {
        if let Some(q) = q {
            notes.push(format!(
                "{name} {} sim_s over {} admitted requests, {} beyond",
                q.value,
                q.count,
                q.beyond()
            ));
        }
    }
    let metrics = vec![
        metric("setup_s", setup, "s"),
        metric("requests_per_s", reference.offered as f64 / best, "1/s"),
        metric("services_per_s", reference.services as f64 / best, "1/s"),
        metric("host_rss_mib", peak_rss_mib()?, "MiB"),
        metric("peak_buffer_mib", reference.peak_buffer_mib, "MiB"),
        metric(
            "served_frac",
            1.0 - reference.failed as f64 / reference.offered.max(1) as f64,
            "ratio",
        ),
    ];
    for v in &m.violations {
        eprintln!("check failed: {v}");
    }
    notes.push(format!("checks_failed {}", m.violations.len()));
    Ok((
        ResultLine {
            correct: m.violations.is_empty(),
            attempted: m.attempted,
            failed: m.failed,
            metrics,
        },
        notes,
    ))
}

fn trace(o: &Options) -> Result<(ResultLine, Vec<String>), String> {
    let report = traced::trace(o.kind, o.scale, o.seed);
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", o.kind.name(), o.seed));
    std::fs::write(&path, to_jsonl(&report.spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut notes = report.notes;
    notes.push(format!("spans written to {}", path.display()));
    for v in &report.violations {
        eprintln!("check failed: {v}");
    }
    notes.push(format!("checks_failed {}", report.violations.len()));
    let failed = if report.violations.is_empty() {
        0
    } else {
        report.attempted
    };
    Ok((
        ResultLine {
            correct: report.violations.is_empty(),
            attempted: report.attempted,
            failed,
            metrics: report.metrics,
        },
        notes,
    ))
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut bench_json = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench-json" => bench_json = it.next().ok_or("--bench-json needs a path")?.clone(),
            d => dirs.push(d),
        }
    }
    let [base, change] = dirs[..] else {
        return Err("compare takes <base_dir> <change_dir>".to_owned());
    };
    let doc = std::fs::read_to_string(&bench_json).map_err(|e| format!("{bench_json}: {e}"))?;
    let spec = compare::Spec::parse(&doc)?;
    let (table, worse) = compare::report(
        &spec.bounds,
        &compare::read_runs(Path::new(base), &spec.workloads)?,
        &compare::read_runs(Path::new(change), &spec.workloads)?,
    );
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare_cmd(&args[1..])
    } else {
        parse_options(&args).and_then(|o| {
            let (line, notes) = if o.trace { trace(&o)? } else { run(&o)? };
            for m in &line.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            for n in &notes {
                println!("{n}");
            }
            println!("{}", line.to_json());
            Ok(if line.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        })
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("vodbench: {e} (see vodbench --help)");
        ExitCode::from(2)
    })
}
