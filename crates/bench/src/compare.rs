//! `repro compare`: the harness's one regression gate, over two bench
//! documents.
//!
//! `compare` diffs any two saved engine (`BENCH_perf.json`), cluster
//! (`BENCH_cluster_full.json`) or chaos (`BENCH_chaos_full.json`)
//! documents, most often a committed one against a fresh run. A
//! document holds only what the simulation computes, so one rule covers
//! every kind: each key of each cell must match exactly, numbers by
//! their `f64` bits, nested `per_node` arrays included. A key present in
//! one document only is a mismatch too. Non-zero exit on any mismatch
//! makes it the CI gate.
//!
//! ## Compatibility refusal
//!
//! Two documents are only comparable when they describe the same
//! experiment. Both must carry the metadata stamp — `version`
//! (schema), `config_fingerprint` (an FNV-1a hash over the pinned
//! matrix configuration), and `matrix` (the shape) — and the stamps
//! must agree; otherwise the diff would be apples-to-oranges garbage
//! and [`compare_documents`] refuses with [`CompareVerdict::Incompatible`]
//! instead of reporting deltas.

use vod_obs::json::{parse, Json};

/// Schema version stamped into bench documents by this revision of the
/// writer ([`crate::matrix::Report::to_json`]). Version 3 dropped the
/// host clocks (`wall_clock_s`, `total_wall_clock_s`, `cycles_per_sec`
/// and the engine's `phases`).
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// FNV-1a 64-bit over `parts`, with a separator byte folded in between
/// parts so `["ab","c"]` and `["a","bc"]` hash differently. Pure and
/// dependency-free — the fingerprint must be reproducible anywhere.
#[must_use]
pub fn fingerprint<I, S>(parts: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in part.as_ref().as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0x1f; // unit separator
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

/// Outcome class of a document comparison (maps to the process exit
/// code: 0 / 1 / 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareVerdict {
    /// Every field of every cell matches.
    Matches,
    /// At least one field of one cell differs.
    Regression,
    /// The documents do not describe the same experiment (or do not
    /// parse); no deltas were computed.
    Incompatible,
}

/// The rendered result of [`compare_documents`].
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// The verdict class.
    pub verdict: CompareVerdict,
    /// Problems found (one per differing field, or the incompatibility
    /// reasons). Empty when `verdict` is `Matches`.
    pub problems: Vec<String>,
}

/// Checks the metadata stamps agree; returns refusal reasons otherwise.
fn compatibility_problems(old: &Json, new: &Json) -> Vec<String> {
    let mut problems = Vec::new();

    match (
        old.get("mode").and_then(Json::as_str),
        new.get("mode").and_then(Json::as_str),
    ) {
        (Some(a), Some(b)) if a != b => {
            problems.push(format!("mode mismatch: old `{a}`, new `{b}`"));
        }
        (None, _) | (_, None) => {
            problems.push("a document carries no `mode` — not a bench report".into());
        }
        _ => {}
    }

    for (key, kind) in [
        ("version", "schema version"),
        ("config_fingerprint", "config fingerprint"),
    ] {
        let o = old.get(key);
        let n = new.get(key);
        match (o, n) {
            (Some(a), Some(b)) if a != b => problems.push(format!(
                "{kind} mismatch ({key}): old {}, new {} — these runs used different {}; regenerate the older document",
                render_short(a),
                render_short(b),
                if key == "version" { "report schemas" } else { "pinned configurations" },
            )),
            (None, _) => problems.push(format!(
                "old document carries no `{key}` (written before the metadata stamp); regenerate it with this binary"
            )),
            (_, None) => problems.push(format!(
                "new document carries no `{key}` (written before the metadata stamp); regenerate it with this binary"
            )),
            _ => {}
        }
    }

    let (o, n) = (old.get("matrix"), new.get("matrix"));
    match (o, n) {
        (Some(a), Some(b)) if a != b => problems.push(format!(
            "matrix shape mismatch: old {}, new {}",
            render_short(a),
            render_short(b)
        )),
        (None, _) | (_, None) => {
            problems.push(
                "a document carries no `matrix` stamp; regenerate it with this binary".into(),
            );
        }
        _ => {}
    }

    problems
}

fn render_short(v: &Json) -> String {
    match v {
        Json::Str(s) => s.to_string(),
        Json::Int(u) => u.to_string(),
        Json::Num(x) if x.fract() == 0.0 => format!("{}", *x as i64),
        Json::Num(x) => format!("{x}"),
        Json::Obj(m) => {
            let parts: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{k}={}", render_short(v)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
        Json::Arr(a) => {
            let parts: Vec<String> = a.iter().map(render_short).collect();
            format!("[{}]", parts.join(","))
        }
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".into(),
    }
}

/// Labels a cell by its matrix position and its string-valued fields, in
/// key order (scheme and method, placement and dispatch, scenario and
/// failover).
fn cell_label(index: usize, cell: &Json) -> String {
    let names: Vec<&str> = match cell {
        Json::Obj(fields) => fields.values().filter_map(Json::as_str).collect(),
        _ => Vec::new(),
    };
    format!("cell {} ({})", index + 1, names.join("/"))
}

/// Pushes one problem per leaf at which `old` and `new` differ: numbers
/// by their `f64` bits, objects key by key, arrays element by element.
/// `path` names the value in the messages.
fn diff_exact(
    label: &str,
    path: &str,
    old: Option<&Json>,
    new: Option<&Json>,
    problems: &mut Vec<String>,
) {
    match (old, new) {
        (Some(Json::Obj(o)), Some(Json::Obj(n))) => {
            let added = n.keys().filter(|k| !o.contains_key(*k));
            for key in o.keys().chain(added) {
                let sub = if path.is_empty() {
                    key.to_string()
                } else {
                    format!("{path}.{key}")
                };
                diff_exact(label, &sub, o.get(key), n.get(key), problems);
            }
        }
        (Some(Json::Arr(o)), Some(Json::Arr(n))) if o.len() == n.len() => {
            for (i, (a, b)) in o.iter().zip(n).enumerate() {
                diff_exact(label, &format!("{path}[{i}]"), Some(a), Some(b), problems);
            }
        }
        (Some(Json::Num(a)), Some(Json::Num(b))) if a.to_bits() == b.to_bits() => {}
        (Some(a @ (Json::Null | Json::Bool(_) | Json::Int(_) | Json::Str(_))), Some(b))
            if a == b => {}
        _ => {
            let show = |v: Option<&Json>| v.map_or_else(|| "(absent)".into(), render_short);
            problems.push(format!(
                "{label}: {path} old {} != new {} (must match exactly)",
                show(old),
                show(new)
            ));
        }
    }
}

/// A document's `cells` array (empty when absent).
fn cells<'d, 'a>(doc: &'d Json<'a>) -> &'d [Json<'a>] {
    doc.get("cells").and_then(Json::as_arr).unwrap_or(&[])
}

/// Diffs two bench documents of the same kind. See the module docs for
/// the rules.
#[must_use]
pub fn compare_documents(old_src: &str, new_src: &str) -> CompareReport {
    let incompatible = |problems: Vec<String>| CompareReport {
        verdict: CompareVerdict::Incompatible,
        problems,
    };

    let old = match parse(old_src) {
        Ok(v) => v,
        Err(e) => return incompatible(vec![format!("old document does not parse: {e}")]),
    };
    let new = match parse(new_src) {
        Ok(v) => v,
        Err(e) => return incompatible(vec![format!("new document does not parse: {e}")]),
    };

    let problems = compatibility_problems(&old, &new);
    if !problems.is_empty() {
        return incompatible(problems);
    }

    let (old_cells, new_cells) = (cells(&old), cells(&new));
    if old_cells.len() != new_cells.len() {
        return incompatible(vec![format!(
            "cell count mismatch despite matching matrix stamp: old {}, new {}",
            old_cells.len(),
            new_cells.len()
        )]);
    }

    let mut problems = Vec::new();
    for (i, (o, n)) in old_cells.iter().zip(new_cells).enumerate() {
        diff_exact(&cell_label(i, n), "", Some(o), Some(n), &mut problems);
    }
    CompareReport {
        verdict: if problems.is_empty() {
            CompareVerdict::Matches
        } else {
            CompareVerdict::Regression
        },
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(fingerprint(["ab", "c"]), fingerprint(["a", "bc"]));
        assert_eq!(fingerprint(["a", "b"]), fingerprint(["a", "b"]));
        assert_eq!(fingerprint(["x"]).len(), 16);
    }

    fn smoke_json() -> String {
        let mode = crate::perf::BenchMode::Smoke;
        crate::matrix::run_matrix(mode, 1, &vod_obs::Obs::null(), None, &|_| {}).to_json()
    }

    #[test]
    fn self_compare_matches() {
        let doc = smoke_json();
        let r = compare_documents(&doc, &doc);
        assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
    }

    const BASELINE: &str = include_str!("../../../BENCH_baseline.json");
    const CLUSTER: &str = include_str!("../../../BENCH_cluster_smoke.json");
    const CHAOS: &str = include_str!("../../../BENCH_chaos.json");

    /// Rewrites the first `"key":<number>` after `anchor` to another
    /// number: an integer plus one, any other number 9.0.
    fn perturb(doc: &str, anchor: &str, key: &str) -> String {
        let from = doc.find(anchor).expect("anchor present");
        let needle = format!("\"{key}\":");
        let start = from + doc[from..].find(&needle).expect("key present") + needle.len();
        let end = start + doc[start..].find([',', '}']).expect("value ends");
        let value = &doc[start..end];
        let other = value
            .parse::<u64>()
            .map_or_else(|_| "9.0".to_owned(), |n| (n + 1).to_string());
        assert_ne!(value, other, "perturbation must change the value");
        format!("{}{other}{}", &doc[..start], &doc[end..])
    }

    /// The exact rule covers every field of every document kind, the
    /// ones no counter list named included: chaos `cold_rebuilds`,
    /// cluster `imbalance_ratio` and the nested `per_node` counters.
    #[test]
    fn any_deterministic_field_drift_is_a_regression() {
        for (doc, anchor, key, path) in [
            (BASELINE, "\"cells\"", "cycles", "cycles"),
            (CLUSTER, "\"cells\"", "admitted", "admitted"),
            (CLUSTER, "\"cells\"", "imbalance_ratio", "imbalance_ratio"),
            (CLUSTER, "\"per_node\"", "admitted", "per_node[0].admitted"),
            (CHAOS, "\"cells\"", "cold_rebuilds", "cold_rebuilds"),
        ] {
            let r = compare_documents(doc, doc);
            assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
            let r = compare_documents(doc, &perturb(doc, anchor, key));
            assert_eq!(r.verdict, CompareVerdict::Regression, "{path}");
            assert!(
                r.problems
                    .iter()
                    .any(|p| p.contains(&format!(": {path} old"))),
                "{:?}",
                r.problems
            );
        }
    }

    /// A key one document has and the other lacks fails the gate, so a
    /// host clock written back into a cell cannot pass unnoticed.
    #[test]
    fn a_key_in_one_document_only_is_a_regression() {
        let extra = BASELINE.replacen("\"cycles\":", "\"wall_clock_s\":1.5,\"cycles\":", 1);
        let r = compare_documents(BASELINE, &extra);
        assert_eq!(r.verdict, CompareVerdict::Regression);
        assert!(
            r.problems
                .iter()
                .any(|p| p.contains("wall_clock_s old (absent) != new 1.5")),
            "{:?}",
            r.problems
        );
    }

    #[test]
    fn fingerprint_mismatch_is_refused_not_diffed() {
        let doc = smoke_json();
        let parsed = parse(&doc).expect("parses");
        let fp = parsed
            .get("config_fingerprint")
            .and_then(Json::as_str)
            .expect("stamped")
            .to_owned();
        let other = doc.replacen(&fp, &fingerprint(["something-else"]), 1);
        assert_ne!(doc, other);
        let r = compare_documents(&doc, &other);
        assert_eq!(r.verdict, CompareVerdict::Incompatible);
        assert!(
            r.problems.iter().any(|p| p.contains("config_fingerprint")),
            "{:?}",
            r.problems
        );
    }

    #[test]
    fn unstamped_document_is_refused_with_a_clear_error() {
        let doc = smoke_json();
        let old = r#"{"version":1,"mode":"smoke","seeds":[1],"cells":[]}"#;
        let r = compare_documents(old, &doc);
        assert_eq!(r.verdict, CompareVerdict::Incompatible);
        assert!(
            r.problems
                .iter()
                .any(|p| p.contains("config_fingerprint") && p.contains("regenerate")),
            "{:?}",
            r.problems
        );
    }

    #[test]
    fn engine_vs_cluster_documents_are_incompatible() {
        let engine = smoke_json();
        let cluster = r#"{"version":3,"mode":"cluster_smoke","config_fingerprint":"00","matrix":{"cells":2}}"#;
        let r = compare_documents(&engine, cluster);
        assert_eq!(r.verdict, CompareVerdict::Incompatible);
    }
}
