//! `vodbench compare`: per workload and end-to-end metric, each side's
//! median and quartiles over repeated runs, and a verdict.
//!
//! The verdict rule: *better* takes at least nine tenths of the pairs won
//! (ties count for neither side) and a median gap wider than the base
//! side's interquartile range; *worse* is a change median worse than the
//! base median by more than the metric's bound; *unresolved* is a spread
//! wider than the bound on either side, unless every change run beats
//! every base run; anything else is *same*.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{parse, ResultLine, Value};
use crate::stats::{median, quartiles};

/// An end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// What `compare` needs from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub bounds: Vec<Bound>,
}

impl Spec {
    /// Reads the workload names and the `end_to_end` list.
    ///
    /// # Errors
    ///
    /// Returns a message when the document or an entry is malformed.
    pub fn parse(doc: &str) -> Result<Spec, String> {
        let v = parse(doc)?;
        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json has no {key} list"))
        };
        let text = |m: &Value, k: &str| {
            m.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or(format!("an entry has no string \"{k}\""))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        let bounds = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Bound {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    higher_is_better: match text(m, "better")?.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("unknown direction \"{other}\"")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .filter(|b| *b >= 0.0)
                        .ok_or("an end_to_end \"bound\" is not a non-negative number")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec { workloads, bounds })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric on one workload. `base[i]` and `change[i]` form pair
/// `i`; runs beyond the shorter side join the medians but no pair.
pub fn verdict(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(mb), Some(mc)) = (median(base), median(change)) else {
        return Verdict::Unresolved;
    };
    // Positive when `c` reads better than `b`.
    let gain = |b: f64, c: f64| if higher_is_better { c - b } else { b - c };
    if gain(mb, mc) < -bound * mb.abs() {
        return Verdict::Worse;
    }
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(&b, &c)| gain(b, c) > 0.0)
        .count();
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1);
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(mb, mc) > iqr(base) {
        return Verdict::Better;
    }
    let spread = |v: &[f64], m: f64| if m == 0.0 { 0.0 } else { iqr(v) / m.abs() };
    let all_better = change
        .iter()
        .all(|&c| base.iter().all(|&b| gain(b, c) > 0.0));
    if spread(base, mb).max(spread(change, mc)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// Reads every run in `dir`: a file named `<workload>.<anything>`, for a
/// workload in `workloads`, holding a run's standard output, whose last
/// non-empty line is the result. Other files, and empty ones such as
/// captured stderr, are skipped. Runs come back grouped by workload, in
/// file-name order.
///
/// # Errors
///
/// Returns a message naming the file that cannot be read or parsed.
pub fn read_runs(
    dir: &Path,
    workloads: &[String],
) -> Result<BTreeMap<String, Vec<ResultLine>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut out: BTreeMap<String, Vec<ResultLine>> = BTreeMap::new();
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let Some(workload) = name
            .split_once('.')
            .map(|(w, _)| w)
            .filter(|w| workloads.iter().any(|k| k == w))
        else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
            continue;
        };
        let line = ResultLine::parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
        out.entry(workload.to_owned()).or_default().push(line);
    }
    Ok(out)
}

fn values(runs: &[ResultLine], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
        .map(|m| m.value)
        .filter(|v| v.is_finite())
        .collect()
}

/// Renders the comparison table; the flag is set when any verdict is
/// *worse*.
pub fn report(
    bounds: &[Bound],
    base: &BTreeMap<String, Vec<ResultLine>>,
    change: &BTreeMap<String, Vec<ResultLine>>,
) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<22} {:<16} {:>36} {:>36} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (workload, base_runs) in base {
        let Some(change_runs) = change.get(workload) else {
            let _ = writeln!(out, "{workload:<22} (no change runs)");
            continue;
        };
        for b in bounds {
            let (bv, cv) = (values(base_runs, &b.name), values(change_runs, &b.name));
            let v = verdict(&bv, &cv, b.higher_is_better, b.bound);
            any_worse |= v == Verdict::Worse;
            let side = |v: &[f64]| match (median(v), quartiles(v)) {
                (Some(m), Some((q1, q3))) => format!("{m:.6e} [{q1:.4e}, {q3:.4e}]"),
                _ => "-".to_owned(),
            };
            let gain = |x: f64, y: f64| if b.higher_is_better { y > x } else { y < x };
            let wins = bv.iter().zip(&cv).filter(|(&x, &y)| gain(x, y)).count();
            let _ = writeln!(
                out,
                "{workload:<22} {:<16} {:>36} {:>36} {:>3}/{:<2}  {} (bound {}, {})",
                b.name,
                side(&bv),
                side(&cv),
                wins,
                bv.len().min(cv.len()),
                v.label(),
                b.bound,
                b.unit,
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Metric;

    #[test]
    fn clear_gains_are_better_and_identical_runs_are_the_same() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
        ];
        let faster: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), Verdict::Better);
        // The same runs read as a loss for a lower-is-better metric.
        assert_eq!(verdict(&base, &faster, false, 0.1), Verdict::Worse);
        // Ties count for neither side: identical runs are the same.
        assert_eq!(verdict(&base, &base, true, 0.1), Verdict::Same);
        assert_eq!(verdict(&[5.0; 10], &[5.0; 10], false, 0.0), Verdict::Same);
    }

    #[test]
    fn eight_of_ten_wins_or_a_gap_inside_the_base_spread_is_not_a_gain() {
        let base = [10.0; 10];
        let mut change = [11.0; 10];
        change[0] = 9.0;
        change[1] = 10.0;
        assert_eq!(verdict(&base, &change, true, 0.2), Verdict::Same);
        // Nine wins, but the gap (0.1) sits inside the base IQR.
        let base: Vec<f64> = (0..10).map(|i| 9.0 + 0.2 * f64::from(i)).collect();
        let change: Vec<f64> = base.iter().map(|x| x + 0.1).collect();
        assert_eq!(verdict(&base, &change, true, 0.5), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        let change = [
            118.0, 82.0, 108.0, 92.0, 101.0, 112.0, 88.0, 104.0, 96.0, 100.0,
        ];
        assert_eq!(verdict(&base, &change, true, 0.05), Verdict::Unresolved);
        // With a bound wider than the spread, the same runs are the same.
        assert_eq!(verdict(&base, &change, true, 0.5), Verdict::Same);
        // Unless every change run beats every base run.
        let higher: Vec<f64> = base.iter().map(|x| x + 41.0).collect();
        assert_eq!(verdict(&base, &higher, true, 0.5), Verdict::Better);
        assert_eq!(verdict(&[], &change, true, 0.5), Verdict::Unresolved);
    }

    #[test]
    fn bounds_and_runs_drive_the_report() {
        let doc = r#"{"workloads": [{"name": "w", "why": "-"}], "end_to_end": [
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let spec = Spec::parse(doc).unwrap();
        assert_eq!(spec.workloads, ["w"]);
        let bounds = spec.bounds;
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].higher_is_better && !bounds[1].higher_is_better);
        let no_bound = r#"{"workloads": [], "end_to_end": [{"name": "x"}]}"#;
        assert!(Spec::parse(no_bound).is_err());

        let run = |rate: f64| ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "rate".to_owned(),
                    value: rate,
                    unit: "1/s".to_owned(),
                },
                Metric {
                    name: "setup_s".to_owned(),
                    value: 1.0,
                    unit: "s".to_owned(),
                },
            ],
        };
        let mk = |scale: f64| {
            let mut m = BTreeMap::new();
            m.insert(
                "w".to_owned(),
                (0..10)
                    .map(|i| run(scale * (100.0 + f64::from(i) * 0.01)))
                    .collect(),
            );
            m
        };
        let (table, worse) = report(&bounds, &mk(1.0), &mk(0.5));
        assert!(worse, "{table}");
        assert!(table.contains("worse") && table.contains("same"));
        let (_, worse) = report(&bounds, &mk(1.0), &mk(1.0));
        assert!(!worse);
    }

    #[test]
    fn run_directories_skip_files_that_are_not_runs() {
        let dir = std::env::temp_dir().join(format!("vodbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = ResultLine {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        let run = format!("rate 1 1/s\n{}\n\n", line.to_json());
        std::fs::write(dir.join("w.2.txt"), &run).unwrap();
        std::fs::write(dir.join("w.1.txt"), &run).unwrap();
        std::fs::write(dir.join("w.1.err"), "").unwrap();
        std::fs::write(dir.join("log.txt"), "w seed 1 rc 0\n").unwrap();
        let runs = read_runs(&dir, &["w".to_owned()]);
        std::fs::write(dir.join("w.3.txt"), "not a result\n").unwrap();
        let broken = read_runs(&dir, &["w".to_owned()]);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(runs.unwrap()["w"], vec![line.clone(), line]);
        assert!(broken.unwrap_err().contains("w.3.txt"));
    }
}
