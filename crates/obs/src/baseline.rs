//! Reading exported metrics JSON back into an analyzable form.
//!
//! [`metrics_json`](crate::metrics_json) documents (schema version 1) are
//! the workspace's telemetry interchange format: every `pmctl` command
//! writes one into its `--telemetry` directory, CI commits one per
//! tracked workload under `results/baselines/`, and this module parses
//! them back — via the in-tree [`crate::json`] parser, no external
//! dependency — so [`crate::diff`] can compare a fresh run against a
//! committed baseline.

use crate::json::{self, Value};
use crate::{percentile_from_buckets, METRICS_SCHEMA_VERSION};
use std::collections::BTreeMap;

/// One parsed metrics document: the analyzable mirror of
/// [`crate::metrics_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDoc {
    /// The document's `schema_version` field.
    pub schema_version: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Per-name span aggregates.
    pub spans: BTreeMap<String, SpanTotals>,
}

/// A histogram as exported: summary statistics plus the non-empty log2
/// buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `(inclusive upper bound, count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSummary {
    /// Nearest-rank percentile estimate over the stored buckets (see
    /// [`percentile_from_buckets`]).
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_from_buckets(&self.buckets, q)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// Aggregates of all completed spans sharing one name, as exported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// How many intervals completed under this name.
    pub count: u64,
    /// Total recorded time, in nanoseconds.
    pub total_ns: u64,
    /// Longest single interval, in nanoseconds.
    pub max_ns: u64,
}

/// Parses a [`crate::metrics_json`] document.
///
/// Unknown top-level keys are ignored (forward compatibility); a missing
/// or unsupported `schema_version`, or a malformed section, is an error.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
///
/// # Example
///
/// ```
/// let doc = pm_obs::baseline::parse_metrics(
///     "{\"schema_version\": 1, \"counters\": {\"a\": 2}, \
///       \"histograms\": {}, \"spans\": {}}",
/// ).unwrap();
/// assert_eq!(doc.counters.get("a"), Some(&2));
/// ```
pub fn parse_metrics(input: &str) -> Result<MetricsDoc, String> {
    let root = json::parse(input)?;
    let members = root
        .members()
        .ok_or_else(|| "metrics document is not a JSON object".to_string())?;
    let schema_version = root
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing numeric schema_version".to_string())?;
    if schema_version != u64::from(METRICS_SCHEMA_VERSION) {
        return Err(format!(
            "unsupported schema_version {schema_version} (this tool reads version {METRICS_SCHEMA_VERSION})"
        ));
    }
    let mut doc = MetricsDoc {
        schema_version,
        ..MetricsDoc::default()
    };
    for (key, value) in members {
        match key.as_str() {
            "counters" => {
                for (name, v) in section(value, "counters")? {
                    let total = v
                        .as_u64()
                        .ok_or_else(|| format!("counter {name} is not a non-negative number"))?;
                    doc.counters.insert(name.clone(), total);
                }
            }
            "histograms" => {
                for (name, v) in section(value, "histograms")? {
                    doc.histograms.insert(name.clone(), histogram(name, v)?);
                }
            }
            "spans" => {
                for (name, v) in section(value, "spans")? {
                    doc.spans.insert(
                        name.clone(),
                        SpanTotals {
                            count: field(v, name, "count")?,
                            total_ns: field(v, name, "total_ns")?,
                            max_ns: field(v, name, "max_ns")?,
                        },
                    );
                }
            }
            _ => {} // schema_version handled above; unknown keys skipped
        }
    }
    Ok(doc)
}

fn section<'v>(value: &'v Value, what: &str) -> Result<&'v [(String, Value)], String> {
    value
        .members()
        .ok_or_else(|| format!("{what} section is not an object"))
}

fn field(value: &Value, name: &str, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{name}: missing numeric {key}"))
}

fn histogram(name: &str, value: &Value) -> Result<HistSummary, String> {
    let mut buckets = Vec::new();
    let raw = value
        .get("buckets")
        .and_then(Value::items)
        .ok_or_else(|| format!("{name}: missing buckets array"))?;
    for b in raw {
        let le = field(b, name, "le")?;
        let count = field(b, name, "count")?;
        if let Some(&(prev, _)) = buckets.last() {
            if le <= prev {
                return Err(format!("{name}: bucket bounds not ascending"));
            }
        }
        buckets.push((le, count));
    }
    Ok(HistSummary {
        count: field(value, name, "count")?,
        sum: field(value, name, "sum")?,
        min: field(value, name, "min")?,
        max: field(value, name, "max")?,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_exported_document_round_trip() {
        let _g = crate::tests::guard();
        crate::enable();
        crate::reset();
        crate::count("base.counter", 7);
        crate::observe("base.hist_ns", 5);
        crate::observe("base.hist_ns", 900);
        {
            let _s = crate::span("base.span");
        }
        let doc = parse_metrics(&crate::metrics_json()).expect("own export parses");
        assert_eq!(doc.schema_version, 1);
        assert_eq!(doc.counters.get("base.counter"), Some(&7));
        let h = &doc.histograms["base.hist_ns"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 905);
        assert_eq!((h.min, h.max), (5, 900));
        assert_eq!(h.buckets, vec![(7, 1), (1023, 1)]);
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p99(), 1023);
        let s = &doc.spans["base.span"];
        assert_eq!(s.count, 1);
        assert!(s.total_ns >= s.max_ns);
    }

    #[test]
    fn rejects_malformed_documents() {
        for (doc, needle) in [
            ("[]", "not a JSON object"),
            ("{}", "schema_version"),
            ("{\"schema_version\": 99}", "unsupported schema_version 99"),
            (
                "{\"schema_version\": 1, \"counters\": {\"a\": -3}}",
                "non-negative",
            ),
            ("{\"schema_version\": 1, \"counters\": []}", "not an object"),
            (
                "{\"schema_version\": 1, \"histograms\": {\"h\": {\"count\": 1}}}",
                "missing buckets",
            ),
            (
                "{\"schema_version\": 1, \"histograms\": {\"h\": {\"count\": 1, \"sum\": 1, \
                 \"min\": 1, \"max\": 1, \"buckets\": [{\"le\": 7, \"count\": 1}, \
                 {\"le\": 3, \"count\": 1}]}}}",
                "not ascending",
            ),
            (
                "{\"schema_version\": 1, \"spans\": {\"s\": {\"count\": 1}}}",
                "missing numeric total_ns",
            ),
            ("{\"schema_version\": 1, \"spans\": oops}", "expected"),
        ] {
            let err = parse_metrics(doc).expect_err(doc);
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn unknown_top_level_keys_are_ignored() {
        let doc =
            parse_metrics("{\"schema_version\": 1, \"counters\": {}, \"future_section\": [1, 2]}")
                .unwrap();
        assert!(doc.counters.is_empty());
    }
}
