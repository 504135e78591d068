//! `repro compare`: the harness's one regression gate, over two bench
//! documents.
//!
//! `compare` diffs any two saved engine (`BENCH_perf.json`), cluster
//! (`BENCH_cluster.json`) or chaos (`BENCH_chaos.json`) documents, most
//! often a committed one against a fresh run. One rule covers every
//! kind: each key of each cell must match exactly — numbers by their
//! `f64` bits, nested `per_node` arrays included — except the three
//! host-dependent keys [`HOST_KEYS`] (`wall_clock_s`, `cycles_per_sec`,
//! `phases`). Those get tolerance-gated deltas instead (wall-clock,
//! cycles/second, per-phase p95), and chaos documents also get the
//! degradation envelope ([`envelope_delta`]). Non-zero exit on
//! regression makes it the CI gate.
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
/// writer ([`crate::matrix::Report::to_json`]).
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Default wall-clock / throughput slowdown factor tolerated before a
/// delta counts as a regression: loose enough for cross-host CI noise,
/// tight enough for order-of-magnitude slips.
pub const DEFAULT_TOLERANCE: f64 = 10.0;

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
    /// Every deterministic field matches and every gated delta is
    /// within tolerance.
    Matches,
    /// At least one exact counter drifted or a gated delta exceeded
    /// the tolerance.
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
    /// Problems found (exact drift, out-of-tolerance deltas, or the
    /// incompatibility reasons). Empty when `verdict` is `Matches`.
    pub problems: Vec<String>,
    /// Informational delta lines (speed ratios, in-tolerance drift),
    /// one per cell.
    pub info: Vec<String>,
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

/// The cell keys whose values time the host rather than the
/// simulation. Every other key is diffed exactly.
pub const HOST_KEYS: [&str; 3] = ["wall_clock_s", "cycles_per_sec", "phases"];

/// Labels a cell by its matrix position and its string-valued fields
/// (scheme and method, placement and dispatch, scenario and failover).
fn cell_label(index: usize, cell: &Json) -> String {
    format!("cell {} ({})", index + 1, cell_identity(cell))
}

/// The cell's string-valued fields, in key order, joined by `/`.
fn cell_identity(cell: &Json) -> String {
    let Json::Obj(fields) = cell else {
        return String::new();
    };
    let names: Vec<&str> = fields.values().filter_map(Json::as_str).collect();
    names.join("/")
}

/// Pushes one problem per leaf at which `old` and `new` differ: numbers
/// by their `f64` bits, objects key by key (skipping `skip`), arrays
/// element by element. `path` names the value in the messages.
fn diff_exact(
    label: &str,
    path: &str,
    old: Option<&Json>,
    new: Option<&Json>,
    skip: &[&str],
    problems: &mut Vec<String>,
) {
    match (old, new) {
        (Some(Json::Obj(o)), Some(Json::Obj(n))) => {
            let added = n.keys().filter(|k| !o.contains_key(*k));
            for key in o.keys().chain(added) {
                if skip.contains(&key.as_ref()) {
                    continue;
                }
                let sub = if path.is_empty() {
                    key.to_string()
                } else {
                    format!("{path}.{key}")
                };
                diff_exact(label, &sub, o.get(key), n.get(key), &[], problems);
            }
        }
        (Some(Json::Arr(o)), Some(Json::Arr(n))) if o.len() == n.len() => {
            for (i, (a, b)) in o.iter().zip(n).enumerate() {
                diff_exact(
                    label,
                    &format!("{path}[{i}]"),
                    Some(a),
                    Some(b),
                    &[],
                    problems,
                );
            }
        }
        (Some(Json::Num(a)), Some(Json::Num(b))) if a.to_bits() == b.to_bits() => {}
        (Some(a @ (Json::Null | Json::Bool(_) | Json::Int(_) | Json::Str(_))), Some(b))
            if a == b => {}
        _ => {
            let show = |v: Option<&Json>| v.map_or_else(|| "(absent)".into(), render_short);
            problems.push(format!(
                "{label}: {path} old {} != new {} (deterministic; must match exactly)",
                show(old),
                show(new)
            ));
        }
    }
}

/// Diffs one pair of cells; pushes problems/info in place.
fn compare_cell(
    label: &str,
    old: &Json,
    new: &Json,
    tolerance: f64,
    problems: &mut Vec<String>,
    info: &mut Vec<String>,
) {
    diff_exact(label, "", Some(old), Some(new), &HOST_KEYS, problems);

    let o_wall = old
        .get("wall_clock_s")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let n_wall = new
        .get("wall_clock_s")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if o_wall > 0.0 && n_wall > o_wall * tolerance {
        problems.push(format!(
            "{label}: wall-clock {n_wall:.2}s is more than {tolerance}x the old {o_wall:.2}s"
        ));
    }
    if o_wall > 0.0 && n_wall > 0.0 {
        info.push(format!(
            "{label}: {:.2}x old speed ({n_wall:.2}s vs {o_wall:.2}s)",
            o_wall / n_wall
        ));
    }
    let o_cps = old
        .get("cycles_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let n_cps = new
        .get("cycles_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if o_cps > 0.0 && n_cps > 0.0 && n_cps < o_cps / tolerance {
        problems.push(format!(
            "{label}: throughput fell to {n_cps:.0} cycles/s from {o_cps:.0} (more than {tolerance}x)"
        ));
    } else if o_cps > 0.0 && n_cps > 0.0 {
        info.push(format!(
            "{label}: throughput {:.2}x old ({n_cps:.0} vs {o_cps:.0} cycles/s)",
            n_cps / o_cps
        ));
    }

    // Per-phase p95 drift: phase timings are host wall-clock, so drift
    // is tolerance-gated like the cell wall-clock — but only when both
    // histograms have enough samples for a stable p95. A 3-sample
    // histogram's p95 IS its max, and a single scheduling hiccup (smoke
    // cells time some phases a handful of times) swings it by orders of
    // magnitude; below the floor it is info-only. Engine phases are
    // sampled per cycle: the service p95 is that of a cycle's average
    // per-service cost (see `perf`).
    const PHASE_P95_MIN_COUNT: u64 = 16;
    if let (Some(Json::Obj(op)), Some(Json::Obj(np))) = (old.get("phases"), new.get("phases")) {
        for (phase, o_hist) in op {
            let Some(n_hist) = np.get(phase) else {
                continue;
            };
            let o95 = o_hist.get("p95").and_then(Json::as_f64).unwrap_or(0.0);
            let n95 = n_hist.get("p95").and_then(Json::as_f64).unwrap_or(0.0);
            let samples = o_hist
                .get("count")
                .and_then(Json::as_u64)
                .unwrap_or(0)
                .min(n_hist.get("count").and_then(Json::as_u64).unwrap_or(0));
            if o95 > 0.0 && n95 > o95 * tolerance && samples >= PHASE_P95_MIN_COUNT {
                problems.push(format!(
                    "{label}: phase {phase} p95 {n95:.3e}s is more than {tolerance}x the old {o95:.3e}s"
                ));
            } else if o95 > 0.0 && n95 > 0.0 {
                info.push(format!("{label}: phase {phase} p95 {:.2}x old", n95 / o95));
            }
        }
    }
}

/// Absolute availability drift tolerated by the degradation-envelope
/// gate (the matrix is deterministic; the slack absorbs intentional
/// small behavior changes without letting availability collapse).
pub const ENVELOPE_AVAILABILITY_TOL: f64 = 0.02;
/// Absolute drift tolerated on each failover-split fraction
/// (migrated / parked / dropped / re-replicated, as fractions of the
/// interrupted streams).
pub const ENVELOPE_FRACTION_TOL: f64 = 0.05;
/// Relative time-to-recover drift tolerated by the envelope gate.
pub const ENVELOPE_TTR_REL_TOL: f64 = 0.10;
/// Absolute time-to-recover drift floor: below this many seconds, TTR
/// drift never fails the gate.
pub const ENVELOPE_TTR_MIN_S: f64 = 1.0;

/// One gated metric of a chaos cell's degradation envelope.
#[derive(Clone, Debug)]
pub struct EnvelopeMetric {
    /// Metric name (`availability`, `migrated_frac`, …).
    pub name: &'static str,
    /// Baseline value (`None` when the cell never measured it, e.g.
    /// TTR with nothing down).
    pub old: Option<f64>,
    /// Candidate value.
    pub new: Option<f64>,
    /// Absolute tolerance applied to `|new - old|`.
    pub tolerance: f64,
    /// Whether the drift is within tolerance.
    pub ok: bool,
}

/// Envelope deltas for one chaos cell.
#[derive(Clone, Debug)]
pub struct EnvelopeCellDelta {
    /// Cell label (`cell 3 (least_loaded/migrate/replicated_hot/zone_crash)`).
    pub label: String,
    /// The gated metrics, in stable order.
    pub metrics: Vec<EnvelopeMetric>,
}

/// The result of diffing two chaos documents' degradation envelopes.
#[derive(Clone, Debug)]
pub struct EnvelopeReport {
    /// Per-cell metric deltas, in matrix order.
    pub cells: Vec<EnvelopeCellDelta>,
    /// Out-of-tolerance drift, one line per violation.
    pub problems: Vec<String>,
}

impl EnvelopeReport {
    /// True when every metric of every cell stayed inside its envelope.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }
}

/// True when the document describes the chaos matrix (either mode).
fn is_chaos_doc(doc: &Json) -> bool {
    doc.get("mode")
        .and_then(Json::as_str)
        .is_some_and(|m| m.starts_with("cluster_chaos"))
}

/// The degradation envelope of one chaos cell: availability, the
/// failover split as fractions of interrupted streams, and the mean
/// time to recover.
fn cell_envelope(cell: &Json) -> Vec<(&'static str, Option<f64>, f64)> {
    let interrupted = cell
        .get("interrupted")
        .and_then(Json::as_u64)
        .unwrap_or(0)
        .max(1) as f64;
    let frac = |key: &str| {
        cell.get(key)
            .and_then(Json::as_u64)
            .map(|v| v as f64 / interrupted)
    };
    vec![
        (
            "availability",
            cell.get("availability").and_then(Json::as_f64),
            ENVELOPE_AVAILABILITY_TOL,
        ),
        ("migrated_frac", frac("migrated"), ENVELOPE_FRACTION_TOL),
        (
            "parked_frac",
            frac("parked_failover"),
            ENVELOPE_FRACTION_TOL,
        ),
        ("dropped_frac", frac("dropped"), ENVELOPE_FRACTION_TOL),
        (
            "rereplicated_frac",
            frac("rereplicated_streams"),
            ENVELOPE_FRACTION_TOL,
        ),
        (
            "ttr_s",
            cell.get("mean_time_to_recover_s").and_then(Json::as_f64),
            // Placeholder; the TTR tolerance is relative and resolved
            // against the baseline value in `envelope_delta`.
            ENVELOPE_TTR_MIN_S,
        ),
    ]
}

/// Diffs two chaos documents' degradation envelopes (availability,
/// drop/migrate/park/re-replicate split, time-to-recover) under the
/// `ENVELOPE_*` tolerances. Returns `Err` with the refusal reasons when
/// the documents are not comparable or not chaos documents.
///
/// # Errors
///
/// Returns the incompatibility reasons (parse failure, non-chaos mode,
/// metadata stamp mismatch, cell mismatch).
pub fn envelope_delta(old_src: &str, new_src: &str) -> Result<EnvelopeReport, Vec<String>> {
    let old = parse(old_src).map_err(|e| vec![format!("old document does not parse: {e}")])?;
    let new = parse(new_src).map_err(|e| vec![format!("new document does not parse: {e}")])?;
    envelope_of(&old, &new)
}

/// [`envelope_delta`] over documents already parsed.
///
/// # Errors
///
/// As [`envelope_delta`], less the parse failures.
pub fn envelope_of(old: &Json, new: &Json) -> Result<EnvelopeReport, Vec<String>> {
    if !is_chaos_doc(old) || !is_chaos_doc(new) {
        return Err(vec![
            "degradation envelopes exist only for chaos documents (mode `cluster_chaos_*`)".into(),
        ]);
    }
    let problems = compatibility_problems(old, new);
    if !problems.is_empty() {
        return Err(problems);
    }

    let (old_cells, new_cells) = (cells(old), cells(new));
    if old_cells.len() != new_cells.len() {
        return Err(vec![format!(
            "cell count mismatch: old {}, new {}",
            old_cells.len(),
            new_cells.len()
        )]);
    }

    let mut cells = Vec::with_capacity(old_cells.len());
    let mut problems = Vec::new();
    for (i, (o, n)) in old_cells.iter().zip(new_cells).enumerate() {
        if cell_identity(o) != cell_identity(n) {
            return Err(vec![format!(
                "cell order mismatch: old {} vs new {}",
                cell_label(i, o),
                cell_label(i, n)
            )]);
        }
        let label = cell_label(i, n);
        let mut metrics = Vec::new();
        for ((name, old_v, tol), (_, new_v, _)) in
            cell_envelope(o).into_iter().zip(cell_envelope(n))
        {
            let tolerance = if name == "ttr_s" {
                old_v.map_or(ENVELOPE_TTR_MIN_S, |x| {
                    (x.abs() * ENVELOPE_TTR_REL_TOL).max(ENVELOPE_TTR_MIN_S)
                })
            } else {
                tol
            };
            let ok = match (old_v, new_v) {
                (None, None) => true,
                (Some(a), Some(b)) => (b - a).abs() <= tolerance,
                _ => false,
            };
            if !ok {
                problems.push(format!(
                    "{label}: {name} drifted outside the envelope: old {}, new {} (tolerance ±{tolerance})",
                    old_v.map_or_else(|| "-".into(), |x| format!("{x:.4}")),
                    new_v.map_or_else(|| "-".into(), |x| format!("{x:.4}")),
                ));
            }
            metrics.push(EnvelopeMetric {
                name,
                old: old_v,
                new: new_v,
                tolerance,
                ok,
            });
        }
        cells.push(EnvelopeCellDelta { label, metrics });
    }
    Ok(EnvelopeReport { cells, problems })
}

/// A document's `cells` array (empty when absent).
fn cells<'d, 'a>(doc: &'d Json<'a>) -> &'d [Json<'a>] {
    doc.get("cells").and_then(Json::as_arr).unwrap_or(&[])
}

/// Diffs two bench documents of the same kind. See the module docs for
/// the rules.
#[must_use]
pub fn compare_documents(old_src: &str, new_src: &str, tolerance: f64) -> CompareReport {
    let incompatible = |problems: Vec<String>| CompareReport {
        verdict: CompareVerdict::Incompatible,
        problems,
        info: Vec::new(),
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
    let mut info = Vec::new();
    for (i, (o, n)) in old_cells.iter().zip(new_cells).enumerate() {
        let label = cell_label(i, n);
        compare_cell(&label, o, n, tolerance, &mut problems, &mut info);
    }

    // Chaos documents additionally get the degradation-envelope view:
    // one info line per cell summarizing the envelope drift, and any
    // out-of-tolerance envelope metric counts as a regression (on top
    // of the exact rule above).
    if is_chaos_doc(&old) && is_chaos_doc(&new) {
        if let Ok(env) = envelope_of(&old, &new) {
            for cell in &env.cells {
                let deltas: Vec<String> = cell
                    .metrics
                    .iter()
                    .map(|m| match (m.old, m.new) {
                        (Some(a), Some(b)) => format!("{} {:+.4}", m.name, b - a),
                        _ => format!("{} -", m.name),
                    })
                    .collect();
                info.push(format!("{}: envelope {}", cell.label, deltas.join(", ")));
            }
            problems.extend(env.problems);
        }
    }

    CompareReport {
        verdict: if problems.is_empty() {
            CompareVerdict::Matches
        } else {
            CompareVerdict::Regression
        },
        problems,
        info,
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
        let r = compare_documents(&doc, &doc, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
        assert!(!r.info.is_empty(), "per-cell speed lines expected");
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

    /// The exact rule covers every deterministic field of every document
    /// kind, the ones no counter list named included: chaos
    /// `cold_rebuilds`, cluster `imbalance_ratio` and the nested
    /// `per_node` counters.
    #[test]
    fn any_deterministic_field_drift_is_a_regression() {
        for (doc, anchor, key, path) in [
            (BASELINE, "\"cells\"", "cycles", "cycles"),
            (CLUSTER, "\"cells\"", "admitted", "admitted"),
            (CLUSTER, "\"cells\"", "imbalance_ratio", "imbalance_ratio"),
            (CLUSTER, "\"per_node\"", "admitted", "per_node[0].admitted"),
            (CHAOS, "\"cells\"", "cold_rebuilds", "cold_rebuilds"),
        ] {
            let r = compare_documents(doc, doc, DEFAULT_TOLERANCE);
            assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
            let r = compare_documents(doc, &perturb(doc, anchor, key), DEFAULT_TOLERANCE);
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
        let r = compare_documents(&doc, &other, DEFAULT_TOLERANCE);
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
        let old = r#"{"version":1,"mode":"smoke","seeds":[1],"cells":[],"total_wall_clock_s":1.0}"#;
        let r = compare_documents(old, &doc, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Incompatible);
        assert!(
            r.problems
                .iter()
                .any(|p| p.contains("config_fingerprint") && p.contains("regenerate")),
            "{:?}",
            r.problems
        );
    }

    /// A minimal stamped engine document with one cell, parameterized on
    /// the bits the noise-robustness tests vary: one phase histogram's
    /// sample count and p95, and the cell throughput.
    fn one_cell_doc(count: u64, p95: f64, cps: f64) -> String {
        format!(
            concat!(
                r#"{{"version":2,"mode":"smoke","config_fingerprint":"feed","#,
                r#""matrix":{{"cells":1}},"seeds":[1],"total_wall_clock_s":1.0,"cells":[{{"#,
                r#""scheme":"static","method":"Round-Robin","theta":0.0,"#,
                r#""wall_clock_s":1.0,"cycles":10,"cycles_per_sec":{cps},"services":1,"#,
                r#""admitted":1,"deferred":0,"rejected":0,"underflows":0,"#,
                r#""peak_memory_mib":1.0,"#,
                r#""phases":{{"vod_phase_service_seconds":{{"count":{count},"p95":{p95}}}}}}}]}}"#
            ),
            count = count,
            p95 = p95,
            cps = cps,
        )
    }

    #[test]
    fn phase_p95_spike_on_a_tiny_histogram_is_info_only() {
        // 3 samples: p95 == max, one scheduling hiccup away from a 100x
        // swing. Below the count floor the spike must not fail the gate.
        let old = one_cell_doc(3, 1.0e-5, 100.0);
        let new = one_cell_doc(3, 1.0e-3, 100.0);
        let r = compare_documents(&old, &new, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
        assert!(
            r.info.iter().any(|i| i.contains("p95")),
            "spike still reported as info: {:?}",
            r.info
        );
        // The same spike over a well-sampled histogram IS a regression.
        let old = one_cell_doc(1000, 1.0e-5, 100.0);
        let new = one_cell_doc(1000, 1.0e-3, 100.0);
        let r = compare_documents(&old, &new, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Regression);
        assert!(
            r.problems.iter().any(|p| p.contains("p95")),
            "{:?}",
            r.problems
        );
    }

    #[test]
    fn throughput_change_is_reported_as_info() {
        let old = one_cell_doc(3, 1.0e-5, 100.0);
        let new = one_cell_doc(3, 1.0e-5, 250.0);
        let r = compare_documents(&old, &new, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
        assert!(
            r.info.iter().any(|i| i.contains("throughput 2.50x old")),
            "{:?}",
            r.info
        );
    }

    /// A minimal stamped one-cell chaos document, parameterized on the
    /// envelope inputs the tests vary.
    fn chaos_doc(avail: f64, migrated: u64, dropped: u64, ttr: f64) -> String {
        format!(
            concat!(
                r#"{{"version":2,"mode":"cluster_chaos_smoke","config_fingerprint":"feed","#,
                r#""matrix":{{"cells":1}},"total_wall_clock_s":1.0,"cells":[{{"#,
                r#""nodes":4,"placement":"replicated_hot","dispatch":"least_loaded","#,
                r#""scenario":"zone_crash","failover":"migrate","wall_clock_s":1.0,"#,
                r#""dispatched":100,"admitted":90,"deferred":0,"rejected":0,"redirected":0,"#,
                r#""overflow_queued":0,"underflows":0,"peak_memory_mib":1.0,"#,
                r#""faults_injected":4,"interrupted":20,"migrated":{migrated},"#,
                r#""parked_failover":0,"dropped":{dropped},"unplaceable":0,"#,
                r#""recoveries":2,"cold_rebuilds":2,"domain_faults":2,"#,
                r#""disk_degradations":0,"disk_errors":0,"rereplications":0,"#,
                r#""rereplicated_streams":0,"mean_time_to_recover_s":{ttr},"#,
                r#""availability":{avail}}}]}}"#
            ),
            avail = avail,
            migrated = migrated,
            dropped = dropped,
            ttr = ttr,
        )
    }

    #[test]
    fn envelope_self_delta_passes_and_compare_reports_it() {
        let doc = chaos_doc(0.98, 20, 0, 2500.0);
        let env = envelope_delta(&doc, &doc).expect("comparable");
        assert!(env.passed(), "{:?}", env.problems);
        assert_eq!(env.cells.len(), 1);
        assert_eq!(env.cells[0].metrics.len(), 6);
        // `repro compare` surfaces the envelope as info lines for
        // chaos documents.
        let r = compare_documents(&doc, &doc, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
        assert!(
            r.info.iter().any(|i| i.contains("envelope")),
            "{:?}",
            r.info
        );
    }

    #[test]
    fn envelope_catches_availability_and_split_drift() {
        let old = chaos_doc(0.98, 20, 0, 2500.0);
        let new = chaos_doc(0.90, 10, 10, 2500.0);
        let env = envelope_delta(&old, &new).expect("comparable");
        assert!(!env.passed());
        for name in ["availability", "migrated_frac", "dropped_frac"] {
            assert!(
                env.problems.iter().any(|p| p.contains(name)),
                "missing {name}: {:?}",
                env.problems
            );
        }
        // The envelope drift also fails `repro compare` (on top of the
        // exact-counter mismatches).
        let r = compare_documents(&old, &new, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Regression);
    }

    #[test]
    fn envelope_ttr_tolerance_is_relative_with_a_floor() {
        let old = chaos_doc(0.98, 20, 0, 2500.0);
        // 4% TTR drift: inside the 10% relative band.
        let env = envelope_delta(&old, &chaos_doc(0.98, 20, 0, 2600.0)).expect("comparable");
        assert!(env.passed(), "{:?}", env.problems);
        // 20% TTR drift: outside.
        let env = envelope_delta(&old, &chaos_doc(0.98, 20, 0, 3000.0)).expect("comparable");
        assert!(env.problems.iter().any(|p| p.contains("ttr_s")));
    }

    #[test]
    fn envelope_refuses_non_chaos_documents() {
        let engine = smoke_json();
        let err = envelope_delta(&engine, &engine).expect_err("engine docs have no envelope");
        assert!(err.iter().any(|p| p.contains("chaos")), "{err:?}");
    }

    #[test]
    fn engine_vs_cluster_documents_are_incompatible() {
        let engine = smoke_json();
        let cluster = r#"{"version":2,"mode":"cluster_smoke","config_fingerprint":"00","matrix":{"cells":2}}"#;
        let r = compare_documents(&engine, cluster, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Incompatible);
    }
}
