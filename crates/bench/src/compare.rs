//! `repro compare`: the harness's one regression gate, over two bench
//! documents.
//!
//! `compare` diffs any two saved engine (`BENCH_perf.json`), cluster
//! (`BENCH_cluster.json`) or chaos (`BENCH_chaos.json`) documents, most
//! often a committed one against a fresh run: exact equality on every
//! deterministic counter and bitwise equality on `peak_memory_mib`,
//! tolerance-gated deltas on the host-dependent ones (wall-clock,
//! cycles/second, per-phase p95), and for chaos documents the
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
/// writers ([`crate::perf::BenchReport::to_json`],
/// [`crate::cluster::ClusterBenchReport::to_json`]).
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

/// Which matrix a bench document describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DocKind {
    Engine,
    Cluster,
}

fn doc_kind(doc: &Json) -> Option<DocKind> {
    let mode = doc.get("mode").and_then(Json::as_str)?;
    if mode.starts_with("cluster_") {
        Some(DocKind::Cluster)
    } else {
        Some(DocKind::Engine)
    }
}

/// Checks the metadata stamps agree; returns refusal reasons otherwise.
fn compatibility_problems(old: &Json, new: &Json) -> Vec<String> {
    let mut problems = Vec::new();

    let (old_kind, new_kind) = (doc_kind(old), doc_kind(new));
    match (old_kind, new_kind) {
        (Some(a), Some(b)) if a != b => {
            problems.push(format!("document kinds differ: old is {a:?}, new is {b:?}"))
        }
        (None, _) | (_, None) => {
            problems.push("a document carries no `mode` — not a bench report".into());
        }
        _ => {}
    }
    let old_mode = old.get("mode").and_then(Json::as_str).unwrap_or("?");
    let new_mode = new.get("mode").and_then(Json::as_str).unwrap_or("?");
    if old_mode != new_mode {
        problems.push(format!("mode mismatch: old `{old_mode}`, new `{new_mode}`"));
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
        Json::Str(s) => s.clone(),
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

/// The deterministic per-cell counters diffed exactly, per kind.
fn exact_counters(kind: DocKind) -> &'static [&'static str] {
    match kind {
        DocKind::Engine => &[
            "cycles",
            "services",
            "admitted",
            "deferred",
            "rejected",
            "underflows",
        ],
        DocKind::Cluster => &[
            "dispatched",
            "admitted",
            "deferred",
            "rejected",
            "redirected",
            "overflow_queued",
            "underflows",
            // Chaos-cell degradation counters (`BENCH_chaos.json`); plain
            // cluster cells lack the keys, and `None == None` passes.
            "faults_injected",
            "interrupted",
            "migrated",
            "parked_failover",
            "dropped",
            "unplaceable",
            "recoveries",
            "domain_faults",
            "disk_degradations",
            "disk_errors",
            "rereplications",
            "rereplicated_streams",
        ],
    }
}

fn cell_label(kind: DocKind, cell: &Json) -> String {
    match kind {
        DocKind::Engine => format!(
            "{}/{}/θ={}",
            cell.get("scheme").and_then(Json::as_str).unwrap_or("?"),
            cell.get("method").and_then(Json::as_str).unwrap_or("?"),
            cell.get("theta").and_then(Json::as_f64).unwrap_or(f64::NAN),
        ),
        DocKind::Cluster => {
            let mut label = format!(
                "{}n/{}/{}",
                cell.get("nodes")
                    .and_then(Json::as_u64)
                    .map_or_else(|| "?".into(), |n| n.to_string()),
                cell.get("placement").and_then(Json::as_str).unwrap_or("?"),
                cell.get("dispatch").and_then(Json::as_str).unwrap_or("?"),
            );
            // Chaos cells vary by scenario/failover at fixed shape.
            if let Some(s) = cell.get("scenario").and_then(Json::as_str) {
                label.push('/');
                label.push_str(s);
            }
            if let Some(f) = cell.get("failover").and_then(Json::as_str) {
                label.push('/');
                label.push_str(f);
            }
            label
        }
    }
}

/// Diffs one pair of cells; pushes problems/info in place.
fn compare_cell(
    kind: DocKind,
    label: &str,
    old: &Json,
    new: &Json,
    tolerance: f64,
    problems: &mut Vec<String>,
    info: &mut Vec<String>,
) {
    for key in exact_counters(kind) {
        let o = old.get(key).and_then(Json::as_u64);
        let n = new.get(key).and_then(Json::as_u64);
        if o != n {
            problems.push(format!("{label}: {key} old {o:?} != new {n:?}"));
        }
    }
    let o_peak = old.get("peak_memory_mib").and_then(Json::as_f64);
    let n_peak = new.get("peak_memory_mib").and_then(Json::as_f64);
    if o_peak.map(f64::to_bits) != n_peak.map(f64::to_bits) {
        problems.push(format!(
            "{label}: peak_memory_mib old {o_peak:?} != new {n_peak:?} (deterministic; must be bit-identical)"
        ));
    }

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
    if kind == DocKind::Engine {
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

        // Per-phase p95 drift: phase timings are host wall-clock, so
        // drift is tolerance-gated like the cell wall-clock — but only
        // when both histograms have enough samples for a stable p95. A
        // 3-sample histogram's p95 IS its max, and a single scheduling
        // hiccup (smoke cells time some phases a handful of times) swings
        // it by orders of magnitude; below the floor it is info-only.
        // Engine phases are sampled per cycle: the service p95 is that
        // of a cycle's average per-service cost (see `perf`).
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
    /// Cell label (`4n/replicated_hot/least_loaded/zone_crash/migrate`).
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
    if !is_chaos_doc(&old) || !is_chaos_doc(&new) {
        return Err(vec![
            "degradation envelopes exist only for chaos documents (mode `cluster_chaos_*`)".into(),
        ]);
    }
    let problems = compatibility_problems(&old, &new);
    if !problems.is_empty() {
        return Err(problems);
    }

    let empty: Vec<Json> = Vec::new();
    let old_cells = old.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
    let new_cells = new.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
    if old_cells.len() != new_cells.len() {
        return Err(vec![format!(
            "cell count mismatch: old {}, new {}",
            old_cells.len(),
            new_cells.len()
        )]);
    }

    let mut cells = Vec::with_capacity(old_cells.len());
    let mut problems = Vec::new();
    for (o, n) in old_cells.iter().zip(new_cells) {
        let label = cell_label(DocKind::Cluster, n);
        if cell_label(DocKind::Cluster, o) != label {
            return Err(vec![format!(
                "cell order mismatch: old {} vs new {label}",
                cell_label(DocKind::Cluster, o)
            )]);
        }
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

/// Diffs two bench documents (both `BENCH_perf.json`-shaped or both
/// `BENCH_cluster.json`-shaped). See the module docs for the rules.
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
    let kind = doc_kind(&old).expect("compatibility check verified the mode");

    let empty: Vec<Json> = Vec::new();
    let old_cells = old.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
    let new_cells = new.get("cells").and_then(Json::as_arr).unwrap_or(&empty);
    if old_cells.len() != new_cells.len() {
        return incompatible(vec![format!(
            "cell count mismatch despite matching matrix stamp: old {}, new {}",
            old_cells.len(),
            new_cells.len()
        )]);
    }

    let mut problems = Vec::new();
    let mut info = Vec::new();
    for (o, n) in old_cells.iter().zip(new_cells) {
        let label = cell_label(kind, n);
        if cell_label(kind, o) != label {
            problems.push(format!(
                "cell order mismatch: old {} vs new {label}",
                cell_label(kind, o)
            ));
            continue;
        }
        compare_cell(kind, &label, o, n, tolerance, &mut problems, &mut info);
    }

    // Chaos documents additionally get the degradation-envelope view:
    // one info line per cell summarizing the envelope drift, and any
    // out-of-tolerance envelope metric counts as a regression (on top
    // of the exact-counter rules above).
    if is_chaos_doc(&old) && is_chaos_doc(&new) {
        if let Ok(env) = envelope_delta(old_src, new_src) {
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
        crate::perf::run_bench(crate::perf::BenchMode::Smoke, 1, &|_| {}).to_json()
    }

    #[test]
    fn self_compare_matches() {
        let doc = smoke_json();
        let r = compare_documents(&doc, &doc, DEFAULT_TOLERANCE);
        assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
        assert!(!r.info.is_empty(), "per-cell speed lines expected");
    }

    /// Bumps the first `"key":<n>` counter of `doc` by one.
    fn bump_first(doc: &str, key: &str) -> String {
        let parsed = parse(doc).expect("parses");
        let n = parsed.get("cells").and_then(Json::as_arr).unwrap()[0]
            .get(key)
            .and_then(Json::as_u64)
            .expect("counter present");
        let broken = doc.replacen(
            &format!("\"{key}\":{n}"),
            &format!("\"{key}\":{}", n + 1),
            1,
        );
        assert_ne!(doc, broken, "perturbation must hit");
        broken
    }

    #[test]
    fn injected_counter_mismatch_is_a_regression() {
        let engine = smoke_json();
        let cluster = crate::cluster::run_cluster_bench(
            crate::cluster::ClusterBenchMode::Smoke,
            1,
            &vod_obs::Obs::null(),
            &|_| {},
        )
        .to_json();
        for (doc, key) in [(engine, "cycles"), (cluster, "admitted")] {
            let r = compare_documents(&doc, &doc, DEFAULT_TOLERANCE);
            assert_eq!(r.verdict, CompareVerdict::Matches, "{:?}", r.problems);
            let r = compare_documents(&doc, &bump_first(&doc, key), DEFAULT_TOLERANCE);
            assert_eq!(r.verdict, CompareVerdict::Regression);
            assert!(
                r.problems.iter().any(|p| p.contains(key)),
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
