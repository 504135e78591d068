//! Runs every workload at smoke scale (one seed, one repetition, 2 h
//! traces), untraced and traced, and checks that each run prints every
//! metric `BENCHMARK.json` names, passes its output checks, and ends with
//! a parseable result line.

use std::path::Path;
use std::process::Command;

use vodbench::json::{parse, ResultLine, Value};
use vodbench::workloads::Kind;

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_in_benchmark_json() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(&spec).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);

    for name in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_vodbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = ResultLine::parse(stdout.lines().last().unwrap_or_default())
                .unwrap_or_else(|e| panic!("{name} --trace {trace}: bad result line: {e}"));
            assert!(line.correct && line.failed == 0 && line.attempted > 0);
            assert!(stdout.contains("checks_failed 0"));
            for metric in names(&doc, key) {
                let m = line
                    .metrics
                    .iter()
                    .find(|m| m.name == metric)
                    .unwrap_or_else(|| panic!("{name} --trace {trace} does not print {metric}"));
                assert!(m.value.is_finite(), "{name}: {metric} = {}", m.value);
                if key == "end_to_end" {
                    assert!(m.value > 0.0, "{name}: end-to-end {metric} reads 0");
                }
            }
        }
    }
}
