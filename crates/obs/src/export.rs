//! Exporters: Chrome `trace_event` JSON and the pinned-schema metrics JSON.
//!
//! Both documents are hand-formatted (this workspace deliberately carries
//! no serde); layout is part of the contract and pinned by tests.

use crate::json::escape as esc;
use crate::{raw_state, snapshot, Snapshot, METRICS_SCHEMA_VERSION};
use std::fmt::Write as _;
use std::path::Path;

/// The span category shown in trace viewers: the dotted-name prefix
/// (`"pm.phase1"` → `"pm"`).
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders everything recorded so far as Chrome `trace_event` JSON —
/// complete (`"ph": "X"`) events plus thread-name metadata — loadable in
/// `chrome://tracing` or Perfetto. Timestamps are microseconds since the
/// recorder's epoch.
pub fn chrome_trace_json() -> String {
    let (mut spans, labels) = raw_state();
    // Stable order: viewers sort anyway; files diff cleanly this way.
    spans.sort_by(|a, b| {
        (a.start_ns, a.tid, a.name)
            .cmp(&(b.start_ns, b.tid, b.name))
            .then(b.dur_ns.cmp(&a.dur_ns))
    });
    let mut out = String::new();
    out.push_str("{\n\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&body);
    };
    push_event(
        &mut out,
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"pm\"}}"
            .to_string(),
    );
    for (tid, label) in &labels {
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                esc(label)
            ),
        );
    }
    for s in &spans {
        let args = match &s.label {
            Some(l) => format!("{{\"label\": \"{}\"}}", esc(l)),
            None => "{}".to_string(),
        };
        push_event(
            &mut out,
            format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {args}}}",
                esc(s.name),
                esc(category(s.name)),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.tid
            ),
        );
    }
    out.push_str("\n],\n\"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// Renders the recorder's aggregates as the machine-readable metrics JSON:
///
/// ```json
/// {
///   "schema_version": 1,
///   "counters": {"milp.branch.nodes": 12},
///   "histograms": {"milp.node_lp_ns": {"count": 1, "sum": 5, "min": 5,
///                  "max": 5, "buckets": [{"le": 7, "count": 1}]}},
///   "spans": {"pm.recover": {"count": 2, "total_ns": 90, "max_ns": 50}}
/// }
/// ```
///
/// Keys are sorted; the layout is pinned by the integration tests.
pub fn metrics_json() -> String {
    let snap = snapshot();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {METRICS_SCHEMA_VERSION},");

    out.push_str("  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "    \"{}\": {value}", esc(name));
    }
    out.push_str(if snap.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"histograms\": {");
    for (i, (name, hist)) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
            esc(name),
            hist.count(),
            hist.sum(),
            hist.min(),
            hist.max()
        );
        for (j, (le, count)) in hist.nonzero_buckets().iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"le\": {le}, \"count\": {count}}}");
        }
        out.push_str("]}");
    }
    out.push_str(if snap.histograms.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"spans\": {");
    for (i, agg) in snap.spans.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
            esc(agg.name),
            agg.count,
            agg.total_ns,
            agg.max_ns
        );
    }
    out.push_str(if snap.spans.is_empty() { "}" } else { "\n  }" });
    out.push('\n');
    out.push_str("}\n");
    out
}

/// Renders the recorder's aggregates in the Prometheus text exposition
/// format (`text/plain; version=0.0.4`), ready to be served from a
/// `/metrics` endpoint or dropped where the node-exporter textfile
/// collector picks files up.
///
/// Naming convention (pinned by a unit test and documented in DESIGN.md):
///
/// * every family is prefixed `pm_` and dots become underscores
///   (`sweep.cases` → `pm_sweep_cases_total`);
/// * counters gain the conventional `_total` suffix;
/// * histograms keep their unit suffix (`..._ns`) and expose **cumulative**
///   `_bucket{le="..."}` series ending in `le="+Inf"`, plus `_sum` and
///   `_count`;
/// * span aggregates become three labelled gauge families:
///   `pm_span_count{span="..."}`, `pm_span_total_ns{span="..."}` and
///   `pm_span_max_ns{span="..."}`.
pub fn prometheus_text() -> String {
    prometheus_from_snapshot(&snapshot())
}

/// [`prometheus_text`] over an explicit [`Snapshot`] (testable without the
/// process-global recorder).
pub fn prometheus_from_snapshot(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let fam = format!("{}_total", prom_name(name));
        let _ = writeln!(out, "# HELP {fam} recorder counter \"{}\"", help_esc(name));
        let _ = writeln!(out, "# TYPE {fam} counter");
        let _ = writeln!(out, "{fam} {value}");
    }
    for (name, hist) in &snap.histograms {
        let fam = prom_name(name);
        let _ = writeln!(
            out,
            "# HELP {fam} recorder histogram \"{}\" (log2 buckets)",
            help_esc(name)
        );
        let _ = writeln!(out, "# TYPE {fam} histogram");
        let mut cumulative = 0u64;
        for (le, count) in hist.nonzero_buckets() {
            cumulative += count;
            let _ = writeln!(out, "{fam}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{fam}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{fam}_sum {}", hist.sum());
        let _ = writeln!(out, "{fam}_count {}", hist.count());
    }
    if !snap.spans.is_empty() {
        type SpanField<'a> = &'a dyn Fn(&crate::SpanAgg) -> u64;
        let families: [(&str, SpanField<'_>); 3] = [
            ("pm_span_count", &|s| s.count),
            ("pm_span_total_ns", &|s| s.total_ns),
            ("pm_span_max_ns", &|s| s.max_ns),
        ];
        for (fam, get) in families {
            let _ = writeln!(out, "# HELP {fam} per-name span aggregate");
            let _ = writeln!(out, "# TYPE {fam} gauge");
            for s in &snap.spans {
                let _ = writeln!(
                    out,
                    "{fam}{{span=\"{}\"}} {}",
                    escape_label_value(s.name),
                    get(s)
                );
            }
        }
    }
    out
}

/// Maps a recorder metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixed `pm_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("pm_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a HELP text per the exposition format (`\\` and `\n`).
fn help_esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus 0.0.4 text exposition rules:
/// `\\` → `\\\\`, `"` → `\\"`, newline → `\\n` — backslash first, so
/// already-present backslashes cannot combine with a following `n` or
/// quote into a spurious escape. Public because sweep `label` strings
/// originate from user-supplied topology names; anything emitting labelled
/// families must route values through here.
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats the one error message every telemetry export path reports: the
/// artifact kind, the offending path, and the underlying I/O error.
pub fn artifact_error(kind: &str, path: &Path, err: &std::io::Error) -> String {
    format!("cannot write {kind} {}: {err}", path.display())
}

/// Writes `contents` to `path`, reporting failures through
/// [`artifact_error`]. Every exit-time telemetry artifact (the four files
/// of `--telemetry DIR`), the flight dump and the gate report funnel
/// their file I/O through this helper, so an unwritable path always
/// surfaces the path itself — never a silent success or a panic.
///
/// # Errors
///
/// Returns the formatted [`artifact_error`] message.
pub fn write_artifact(kind: &str, path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| artifact_error(kind, path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::{count, enable, observe, reset, set_thread_label, span, span_labeled};

    #[test]
    fn chrome_trace_is_valid_json_with_nested_spans() {
        let _g = crate::tests::guard();
        enable();
        reset();
        set_thread_label("test-main");
        {
            let _outer = span("exp.outer");
            let _inner = span_labeled("exp.inner", "with \"quotes\" and \\slashes\\");
        }
        let trace = chrome_trace_json();
        validate(&trace).expect("trace must parse as JSON");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"name\": \"exp.outer\""));
        assert!(trace.contains("\"cat\": \"exp\""));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("with \\\"quotes\\\" and \\\\slashes\\\\"));
    }

    #[test]
    fn metrics_json_layout_is_pinned() {
        let _g = crate::tests::guard();
        enable();
        reset();
        count("exp.counter", 7);
        observe("exp.hist", 5);
        {
            let _s = span("exp.span");
        }
        let doc = metrics_json();
        validate(&doc).expect("metrics must parse as JSON");
        assert!(doc.starts_with("{\n  \"schema_version\": 1,\n"));
        assert!(doc.contains("  \"counters\": {\n    \"exp.counter\": 7\n  },\n"));
        assert!(doc.contains(
            "    \"exp.hist\": {\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5, \
             \"buckets\": [{\"le\": 7, \"count\": 1}]}"
        ));
        assert!(doc.contains("\"exp.span\": {\"count\": 1, \"total_ns\": "));
        assert!(doc.trim_end().ends_with('}'));
    }

    /// Checks `text` against the Prometheus text-exposition rules this
    /// workspace relies on: line grammar, metric-name grammar, one TYPE
    /// line per family before its samples, cumulative histogram buckets
    /// ending in an `le="+Inf"` bucket equal to `_count`.
    fn assert_prometheus_format(text: &str) {
        assert!(text.is_empty() || text.ends_with('\n'), "ends with newline");
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .next()
                    .map(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                    == Some(true)
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut typed: Vec<String> = Vec::new();
        let mut bucket_state: std::collections::BTreeMap<String, u64> = Default::default();
        let mut counts: std::collections::BTreeMap<String, u64> = Default::default();
        let mut infs: std::collections::BTreeMap<String, u64> = Default::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                let mut parts = rest.splitn(3, ' ');
                let kw = parts.next().unwrap();
                let fam = parts.next().expect("family name after keyword");
                assert!(matches!(kw, "HELP" | "TYPE"), "bad comment keyword: {line}");
                assert!(name_ok(fam), "bad family name: {line}");
                if kw == "TYPE" {
                    let ty = parts.next().expect("a type");
                    assert!(
                        matches!(ty, "counter" | "gauge" | "histogram"),
                        "bad type: {line}"
                    );
                    assert!(!typed.contains(&fam.to_string()), "duplicate TYPE: {line}");
                    typed.push(fam.to_string());
                }
                continue;
            }
            // Sample line: name[{labels}] value. Label values may contain
            // spaces (and escaped quotes), so the name/labels part ends at
            // the closing brace when one exists, not at the first space.
            let (name_part, tail) = match line.rfind('}') {
                Some(close) => line.split_at(close + 1),
                None => line.split_once(' ').expect("sample has a value"),
            };
            let mut tail_parts = tail.trim_start().split(' ');
            let value = tail_parts.next().expect("sample has a value");
            let name = name_part.split('{').next().unwrap();
            assert!(name_ok(name), "bad metric name: {line}");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value: {line}"));
            assert!(tail_parts.next().is_none(), "trailing tokens: {line}");
            if let Some(labels) = name_part
                .strip_prefix(name)
                .and_then(|l| l.strip_prefix('{').and_then(|l| l.strip_suffix('}')))
            {
                // Split on `",` boundaries so escaped or spaced label
                // values survive; each pair must be k="v" with v using
                // only valid escapes (\\, \", \n).
                for pair in labels.split("\",") {
                    let (k, v) = pair.split_once('=').expect("label k=v");
                    assert!(name_ok(k), "bad label name: {line}");
                    let v = v.strip_suffix('"').unwrap_or(v);
                    let v = v
                        .strip_prefix('"')
                        .unwrap_or_else(|| panic!("unquoted label value: {line}"));
                    let mut chars = v.chars();
                    while let Some(c) = chars.next() {
                        assert_ne!(c, '"', "unescaped quote in label value: {line}");
                        assert_ne!(c, '\n', "raw newline in label value: {line}");
                        if c == '\\' {
                            let e = chars.next().expect("dangling backslash");
                            assert!(matches!(e, '\\' | '"' | 'n'), "bad escape \\{e}: {line}");
                        }
                    }
                }
            }
            // The family a sample belongs to must have a TYPE line already.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| {
                    name.strip_suffix(suf)
                        .filter(|f| typed.contains(&f.to_string()))
                })
                .unwrap_or(name);
            assert!(
                typed.contains(&family.to_string()),
                "sample before TYPE: {line}"
            );
            if let Some(fam) = name.strip_suffix("_bucket") {
                let v: u64 = value.parse().expect("bucket counts are integers");
                if name_part.contains("le=\"+Inf\"") {
                    infs.insert(fam.to_string(), v);
                } else {
                    let prev = bucket_state.entry(fam.to_string()).or_insert(0);
                    assert!(v >= *prev, "buckets must be cumulative: {line}");
                    *prev = v;
                }
            }
            if let Some(fam) = name.strip_suffix("_count") {
                if typed.contains(&fam.to_string()) {
                    counts.insert(fam.to_string(), value.parse().expect("integer count"));
                }
            }
        }
        for (fam, inf) in &infs {
            assert_eq!(
                Some(inf),
                counts.get(fam),
                "{fam}: +Inf bucket must equal _count"
            );
            if let Some(last) = bucket_state.get(fam) {
                assert!(last <= inf, "{fam}: finite buckets exceed +Inf");
            }
        }
    }

    #[test]
    fn prometheus_export_obeys_text_format_rules() {
        let _g = crate::tests::guard();
        enable();
        reset();
        count("exp.prom_counter", 41);
        observe("exp.prom_hist_ns", 0);
        observe("exp.prom_hist_ns", 5);
        observe("exp.prom_hist_ns", 1_000_000);
        {
            let _s = span("exp.prom-span");
        }
        let text = prometheus_text();
        assert_prometheus_format(&text);
        assert!(text.contains("# TYPE pm_exp_prom_counter_total counter"));
        assert!(text.contains("pm_exp_prom_counter_total 41"));
        assert!(text.contains("# TYPE pm_exp_prom_hist_ns histogram"));
        // Cumulative buckets: 0 → 1, 4..7 → 2, 2^19..2^20-1 → 3, +Inf = 3.
        assert!(text.contains("pm_exp_prom_hist_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("pm_exp_prom_hist_ns_bucket{le=\"7\"} 2"));
        assert!(text.contains("pm_exp_prom_hist_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("pm_exp_prom_hist_ns_sum 1000005"));
        assert!(text.contains("pm_exp_prom_hist_ns_count 3"));
        // The dash in the span name survives only in the label, not the
        // family name.
        assert!(text.contains("pm_span_count{span=\"exp.prom-span\"} 1"));
        assert!(text.contains("pm_span_total_ns{span=\"exp.prom-span\"}"));
    }

    #[test]
    fn prometheus_empty_snapshot_is_empty() {
        let snap = Snapshot::default();
        assert_eq!(prometheus_from_snapshot(&snap), "");
        assert_prometheus_format("");
    }

    #[test]
    fn hostile_label_values_are_escaped_per_exposition_rules() {
        // Sweep labels come from user-supplied topology names: quotes,
        // backslashes and newlines must all survive as valid exposition
        // escapes, in an order where a pre-existing backslash can never
        // merge with a following character into a spurious escape.
        let hostile: &'static str = "evil\"topology\\name\nline2";
        let snap = Snapshot {
            spans: vec![crate::SpanAgg {
                name: hostile,
                count: 1,
                total_ns: 10,
                max_ns: 10,
            }],
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        let text = prometheus_from_snapshot(&snap);
        assert_prometheus_format(&text);
        assert!(
            text.contains("pm_span_count{span=\"evil\\\"topology\\\\name\\nline2\"} 1"),
            "{text}"
        );
        // One physical line per sample: the newline was escaped away, so
        // three span families render exactly HELP + TYPE + 1 sample each.
        assert_eq!(text.lines().count(), 9, "{text}");
        // The escape order is pinned: backslash first, then quote, then
        // newline.
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn write_artifact_reports_the_offending_path() {
        let dir = std::env::temp_dir().join("pm_obs_artifact_test");
        let _ = std::fs::create_dir_all(&dir);
        let ok = dir.join("ok.txt");
        write_artifact("metrics", &ok, "x").expect("plain write succeeds");
        // A path whose parent is a regular file is unwritable for any
        // user (ENOTDIR) — unlike a chmod-0 directory, which root would
        // happily write into.
        let bad = ok.join("child.json");
        let err = write_artifact("trace", &bad, "x").expect_err("unwritable");
        assert!(err.contains("cannot write trace"), "{err}");
        assert!(err.contains(&bad.display().to_string()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_recorder_exports_are_valid() {
        let _g = crate::tests::guard();
        enable();
        reset();
        validate(&chrome_trace_json()).expect("empty trace parses");
        let doc = metrics_json();
        validate(&doc).expect("empty metrics parses");
        assert!(doc.contains("\"counters\": {}"));
        assert!(doc.contains("\"spans\": {}"));
    }
}
