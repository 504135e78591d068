//! Prometheus text-format (version 0.0.4) exposition for
//! [`crate::metrics::MetricsSnapshot`].
//!
//! Hand-rolled like [`crate::json`]: the registry holds only
//! histograms, so the renderer emits, per histogram, a `# TYPE` comment
//! line, cumulative `_bucket{le="..."}` series and `_sum`/`_count`,
//! which is everything a scraper needs. Metric names are
//! sanitized to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset Prometheus
//! requires.

use crate::metrics::{HistoSnapshot, MetricsSnapshot};

/// Rewrites `name` into a valid Prometheus metric name.
///
/// Invalid characters become `_`; a leading digit gets a `_` prefix;
/// an empty name becomes `_`.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let valid = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            // A digit may not lead a name; keep it after a `_` prefix.
            out.push('_');
        }
        out.push(if valid { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats a sample value the way Prometheus expects.
fn value(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_owned()
    } else if x == f64::INFINITY {
        "+Inf".to_owned()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{x:?}")
    }
}

fn render_histogram(out: &mut String, h: &HistoSnapshot) {
    let name = sanitize_name(&h.name);
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds.iter().zip(&h.counts) {
        cumulative += count;
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            value(*bound)
        ));
    }
    out.push_str(&format!("{name}_sum {}\n", value(h.sum)));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Renders a snapshot in the Prometheus text exposition format.
#[must_use]
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for h in &snapshot.histograms {
        render_histogram(&mut out, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, MetricsRegistry};
    use std::sync::Arc;

    fn snapshot_with_data() -> MetricsSnapshot {
        let reg = Arc::new(MetricsRegistry::new());
        let m = Metrics::new(Arc::clone(&reg));
        let h = m.histogram("vod_phase_service_seconds");
        h.record(0.001);
        h.record(0.002);
        reg.snapshot()
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_name("bad name-1"), "bad_name_1");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn renders_histograms() {
        let text = render(&snapshot_with_data());
        assert!(text.starts_with("# TYPE vod_phase_service_seconds histogram\n"));
        assert!(text.contains("vod_phase_service_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("vod_phase_service_seconds_count 2\n"));
        assert!(text.contains("vod_phase_service_seconds_sum 0.003"));
    }

    /// Every scrape line must be `# ...`, blank, or
    /// `name[{labels}] value` with a parseable value — the shape a
    /// Prometheus scraper accepts.
    #[test]
    fn output_is_scrape_parseable() {
        let text = render(&snapshot_with_data());
        assert!(!text.is_empty());
        let mut cumulative_ok = true;
        let mut last_bucket = 0u64;
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name_part, value_part) = line.rsplit_once(' ').expect("sample line has a value");
            let bare = name_part.split('{').next().unwrap();
            assert!(
                bare.chars().enumerate().all(|(i, c)| {
                    c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
                }),
                "invalid metric name in line: {line}"
            );
            let parsed = match value_part {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                other => other.parse::<f64>().expect("numeric sample value"),
            };
            if name_part.contains("_bucket{") {
                let c = parsed as u64;
                cumulative_ok &= c >= last_bucket || name_part.contains("le=\"+Inf\"");
                last_bucket = c;
            }
            if let Some(rest) = name_part.strip_prefix(bare) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'));
                }
            }
        }
        assert!(cumulative_ok, "bucket counts must be cumulative");
    }
}
