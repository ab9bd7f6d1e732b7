//! Comparing two metrics documents: deltas, regression thresholds, and
//! deterministic reports.
//!
//! [`diff`] walks two [`MetricsDoc`]s (typically a committed baseline from
//! `results/baselines/` and a fresh instrumented run) and produces one
//! [`Delta`] per compared quantity: each counter's total, each histogram's
//! sample count and p50/p95/p99/max estimates, and each span's
//! count/total/max. Deltas on **time-valued** quantities (names ending in
//! a time unit, span durations) are informational by default — wall-clock
//! numbers vary run to run — and so are one worker's share of a pool
//! (`<pool>.worker.<n>.*`), which depends on scheduling. Structural
//! quantities (solver pivots, node counts, case counts, mode picks, pool
//! totals…) are *gated*: a gated delta
//! beyond the configured thresholds is a breach, and `pmctl obs gate`
//! turns breaches into a non-zero exit for CI.
//!
//! Reports ([`DiffReport::text`], [`DiffReport::markdown`]) render in a
//! deterministic order (sections, then names, then fields) so they diff
//! cleanly and can be pinned by golden tests.

use crate::baseline::MetricsDoc;
use std::fmt::Write as _;

/// Thresholds and gating policy for [`diff`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Maximum tolerated relative deviation of a gated quantity, in
    /// percent of the baseline value (default 10.0). Deviation in either
    /// direction counts: deterministic counters should not move at all,
    /// and a large *drop* in, say, solver pivots is as much a behavioral
    /// change as a rise.
    pub max_regress_pct: f64,
    /// Absolute slack added on top of the relative threshold (default 0).
    /// A gated delta breaches only if it exceeds **both** tolerances.
    pub abs_tolerance: u64,
    /// Gate time-valued quantities too (default `false`: they are
    /// reported but never breach).
    pub gate_time_metrics: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            max_regress_pct: 10.0,
            abs_tolerance: 0,
            gate_time_metrics: false,
        }
    }
}

/// Is `name` a wall-clock quantity by naming convention? The recorder's
/// duration metrics all carry their unit as a suffix (`..._ns`, `..._us`,
/// `..._ms`) — see DESIGN.md.
pub fn is_time_metric(name: &str) -> bool {
    name.ends_with("_ns") || name.ends_with("_us") || name.ends_with("_ms")
}

/// Is `name` one worker's share of a pool (`<pool>.worker.<n>.*`)? How a
/// pool splits its items across workers depends on scheduling, so only
/// the pool's totals are structural.
pub fn is_worker_metric(name: &str) -> bool {
    let parts: Vec<&str> = name.split('.').collect();
    parts[1..]
        .windows(3)
        .any(|w| w[0] == "worker" && !w[1].is_empty() && w[1].bytes().all(|b| b.is_ascii_digit()))
}

/// The metric families a [`Delta`] can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A counter total.
    Counter,
    /// A histogram-derived quantity.
    Histogram,
    /// A span aggregate.
    Span,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Histogram => "hist",
            Kind::Span => "span",
        }
    }
}

/// One compared quantity.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Which family the metric belongs to.
    pub kind: Kind,
    /// Metric name (`"milp.simplex.pivots"`).
    pub name: String,
    /// Which quantity of the metric (`"total"`, `"count"`, `"p95"`, …).
    pub field: &'static str,
    /// Baseline value.
    pub base: u64,
    /// Current value.
    pub current: u64,
    /// Whether this quantity is gated (can breach) under the options used.
    pub gated: bool,
    /// Whether it deviates beyond the thresholds *and* is gated.
    pub breach: bool,
}

impl Delta {
    /// Signed relative change in percent; `None` when the baseline is 0
    /// and the current value is not.
    pub fn rel_pct(&self) -> Option<f64> {
        if self.base == 0 {
            (self.current == 0).then_some(0.0)
        } else {
            Some((self.current as f64 - self.base as f64) / self.base as f64 * 100.0)
        }
    }

    /// Has the value moved at all?
    pub fn changed(&self) -> bool {
        self.base != self.current
    }

    fn delta_cell(&self) -> String {
        match self.rel_pct() {
            Some(0.0) => "=".to_string(),
            Some(p) => format!("{p:+.1}%"),
            None => "new".to_string(),
        }
    }

    fn status_cell(&self) -> &'static str {
        if self.breach {
            "BREACH"
        } else if self.gated {
            "ok"
        } else {
            "info"
        }
    }
}

/// The outcome of [`diff`]: every compared quantity plus the metrics only
/// one side has.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Compared quantities, in report order (counters, histograms, spans;
    /// names ascending; fields in a fixed order per kind).
    pub deltas: Vec<Delta>,
    /// Qualified names (`"counter x"`, `"hist y"`, `"span z"`) present
    /// only in the current document.
    pub added: Vec<String>,
    /// Qualified names present only in the baseline.
    pub removed: Vec<String>,
    /// The options the diff ran under.
    pub options: DiffOptions,
}

impl DiffReport {
    /// Number of gated quantities beyond thresholds.
    pub fn breach_count(&self) -> usize {
        self.deltas.iter().filter(|d| d.breach).count()
    }

    /// Did any gated quantity breach?
    pub fn breached(&self) -> bool {
        self.deltas.iter().any(|d| d.breach)
    }

    /// One-word verdict.
    pub fn verdict(&self) -> &'static str {
        if self.breached() {
            "BREACH"
        } else {
            "PASS"
        }
    }

    fn threshold_line(&self) -> String {
        format!(
            "thresholds: ±{:.1}% rel, {} abs; time metrics {}",
            self.options.max_regress_pct,
            self.options.abs_tolerance,
            if self.options.gate_time_metrics {
                "gated"
            } else {
                "informational"
            }
        )
    }

    /// Changed or breaching deltas — the rows worth printing.
    fn display_rows(&self) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.changed() || d.breach)
            .collect()
    }

    /// Renders the deterministic plain-text report.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry diff ({})", self.threshold_line());
        let rows = self.display_rows();
        let _ = writeln!(
            out,
            "compared {} quantities: {} changed, {} breach(es), {} added, {} removed",
            self.deltas.len(),
            rows.iter().filter(|d| d.changed()).count(),
            self.breach_count(),
            self.added.len(),
            self.removed.len()
        );
        if !rows.is_empty() {
            let mut w = [4usize, 6, 5, 4, 7, 5, 6];
            let cells: Vec<[String; 7]> = rows
                .iter()
                .map(|d| {
                    [
                        d.kind.label().to_string(),
                        d.name.clone(),
                        d.field.to_string(),
                        d.base.to_string(),
                        d.current.to_string(),
                        d.delta_cell(),
                        d.status_cell().to_string(),
                    ]
                })
                .collect();
            for row in &cells {
                for (i, c) in row.iter().enumerate() {
                    w[i] = w[i].max(c.len());
                }
            }
            out.push('\n');
            let header = [
                "kind", "metric", "field", "base", "current", "delta", "status",
            ];
            for (i, h) in header.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", h, width = w[i]);
            }
            out.push('\n');
            for row in &cells {
                for (i, c) in row.iter().enumerate() {
                    let _ = write!(out, "{:<width$}  ", c, width = w[i]);
                }
                out.push('\n');
            }
        }
        for name in &self.added {
            let _ = writeln!(out, "added:   {name}");
        }
        for name in &self.removed {
            let _ = writeln!(out, "removed: {name}");
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} breach(es))",
            self.verdict(),
            self.breach_count()
        );
        out
    }

    /// Renders the report as GitHub-flavored markdown (for CI artifacts
    /// and `$GITHUB_STEP_SUMMARY`).
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Telemetry baseline diff\n");
        let _ = writeln!(
            out,
            "**Verdict: {}** — {} breach(es) in {} compared quantities ({}).\n",
            self.verdict(),
            self.breach_count(),
            self.deltas.len(),
            self.threshold_line()
        );
        let rows = self.display_rows();
        if rows.is_empty() {
            let _ = writeln!(out, "No changes in compared metrics.");
        } else {
            let _ = writeln!(
                out,
                "| kind | metric | field | base | current | delta | status |"
            );
            let _ = writeln!(out, "|---|---|---|---:|---:|---:|---|");
            for d in rows {
                let _ = writeln!(
                    out,
                    "| {} | `{}` | {} | {} | {} | {} | {} |",
                    d.kind.label(),
                    d.name,
                    d.field,
                    d.base,
                    d.current,
                    d.delta_cell(),
                    d.status_cell()
                );
            }
        }
        if !self.added.is_empty() {
            let _ = writeln!(out, "\nOnly in current: {}", self.added.join(", "));
        }
        if !self.removed.is_empty() {
            let _ = writeln!(out, "\nOnly in baseline: {}", self.removed.join(", "));
        }
        out
    }
}

/// Compares `current` against `base` under `options`.
pub fn diff(base: &MetricsDoc, current: &MetricsDoc, options: &DiffOptions) -> DiffReport {
    let mut report = DiffReport {
        deltas: Vec::new(),
        added: Vec::new(),
        removed: Vec::new(),
        options: options.clone(),
    };
    let breaches = |d: &mut Delta| {
        if d.gated {
            let spread = d.base.abs_diff(d.current);
            let rel_limit = d.base as f64 * options.max_regress_pct / 100.0;
            d.breach = spread as f64 > rel_limit && spread > options.abs_tolerance;
        }
    };
    let mut push = |kind: Kind, name: &str, field: &'static str, b: u64, c: u64, time: bool| {
        let mut d = Delta {
            kind,
            name: name.to_string(),
            field,
            base: b,
            current: c,
            gated: if time {
                options.gate_time_metrics
            } else {
                !is_worker_metric(name)
            },
            breach: false,
        };
        breaches(&mut d);
        report.deltas.push(d);
    };

    for (name, &b) in &base.counters {
        match current.counters.get(name) {
            Some(&c) => push(Kind::Counter, name, "total", b, c, is_time_metric(name)),
            None => report.removed.push(format!("counter {name}")),
        }
    }
    for name in current.counters.keys() {
        if !base.counters.contains_key(name) {
            report.added.push(format!("counter {name}"));
        }
    }

    for (name, b) in &base.histograms {
        match current.histograms.get(name) {
            Some(c) => {
                let time = is_time_metric(name);
                // The sample count is structural (how many observations
                // happened) even when the observed values are durations.
                push(Kind::Histogram, name, "count", b.count, c.count, false);
                push(Kind::Histogram, name, "p50", b.p50(), c.p50(), time);
                push(Kind::Histogram, name, "p95", b.p95(), c.p95(), time);
                push(Kind::Histogram, name, "p99", b.p99(), c.p99(), time);
                push(Kind::Histogram, name, "max", b.max, c.max, time);
            }
            None => report.removed.push(format!("hist {name}")),
        }
    }
    for name in current.histograms.keys() {
        if !base.histograms.contains_key(name) {
            report.added.push(format!("hist {name}"));
        }
    }

    for (name, b) in &base.spans {
        match current.spans.get(name) {
            Some(c) => {
                push(Kind::Span, name, "count", b.count, c.count, false);
                push(Kind::Span, name, "total_ns", b.total_ns, c.total_ns, true);
                push(Kind::Span, name, "max_ns", b.max_ns, c.max_ns, true);
            }
            None => report.removed.push(format!("span {name}")),
        }
    }
    for name in current.spans.keys() {
        if !base.spans.contains_key(name) {
            report.added.push(format!("span {name}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::parse_metrics;

    fn doc(counters: &[(&str, u64)]) -> MetricsDoc {
        MetricsDoc {
            schema_version: 1,
            counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ..MetricsDoc::default()
        }
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(&[("a", 10), ("b.busy_ns", 500)]);
        let r = diff(&d, &d.clone(), &DiffOptions::default());
        assert!(!r.breached());
        assert_eq!(r.verdict(), "PASS");
        assert!(r.display_rows().is_empty());
        assert!(r.text().contains("0 breach(es)"));
    }

    #[test]
    fn counter_past_threshold_breaches_in_both_directions() {
        let base = doc(&[("pivots", 100)]);
        let opts = DiffOptions::default(); // 10 %
        let up = diff(&base, &doc(&[("pivots", 111)]), &opts);
        assert!(up.breached(), "{}", up.text());
        let down = diff(&base, &doc(&[("pivots", 89)]), &opts);
        assert!(down.breached());
        let within = diff(&base, &doc(&[("pivots", 110)]), &opts);
        assert!(!within.breached(), "10% exactly is within threshold");
    }

    #[test]
    fn abs_tolerance_is_extra_slack() {
        let base = doc(&[("tiny", 2)]);
        let cur = doc(&[("tiny", 3)]); // +50 % but only +1
        assert!(diff(&base, &cur, &DiffOptions::default()).breached());
        let slack = DiffOptions {
            abs_tolerance: 1,
            ..DiffOptions::default()
        };
        assert!(!diff(&base, &cur, &slack).breached());
    }

    #[test]
    fn time_metrics_inform_but_do_not_gate() {
        let base = doc(&[("sweep.worker.0.busy_ns", 1_000_000)]);
        let cur = doc(&[("sweep.worker.0.busy_ns", 9_000_000)]);
        let r = diff(&base, &cur, &DiffOptions::default());
        assert!(!r.breached());
        assert!(r.text().contains("info"), "{}", r.text());
        let strict = DiffOptions {
            gate_time_metrics: true,
            ..DiffOptions::default()
        };
        assert!(diff(&base, &cur, &strict).breached());
        assert!(is_time_metric("x_ns") && is_time_metric("y_ms") && !is_time_metric("cases"));
    }

    #[test]
    fn worker_shares_inform_but_pool_totals_gate() {
        let base = doc(&[
            ("sim.sweep.worker.0.items", 32),
            ("sim.sweep.worker.1.items", 28),
            ("sim.timeline.replays", 60),
        ]);
        let swapped = doc(&[
            ("sim.sweep.worker.0.items", 28),
            ("sim.sweep.worker.1.items", 32),
            ("sim.timeline.replays", 60),
        ]);
        let r = diff(&base, &swapped, &DiffOptions::default());
        assert!(!r.breached(), "{}", r.text());
        assert!(r
            .deltas
            .iter()
            .all(|d| d.name.contains("worker") != d.gated));
        let more = doc(&[
            ("sim.sweep.worker.0.items", 28),
            ("sim.sweep.worker.1.items", 42),
            ("sim.timeline.replays", 70),
        ]);
        let r = diff(&base, &more, &DiffOptions::default());
        assert_eq!(r.breach_count(), 1, "{}", r.text());
        assert!(is_worker_metric("sweep.worker.12.cases"));
        assert!(!is_worker_metric("worker.0.items") && !is_worker_metric("sweep.worker.x.items"));
        assert!(!is_worker_metric("sweep.worker.0"));
    }

    #[test]
    fn zero_baseline_counter_needs_abs_tolerance() {
        let base = doc(&[("fresh", 0)]);
        let cur = doc(&[("fresh", 3)]);
        assert!(diff(&base, &cur, &DiffOptions::default()).breached());
        let slack = DiffOptions {
            abs_tolerance: 5,
            ..DiffOptions::default()
        };
        let r = diff(&base, &cur, &slack);
        assert!(!r.breached());
        assert_eq!(r.deltas[0].rel_pct(), None);
        assert!(r.text().contains("new"), "{}", r.text());
    }

    #[test]
    fn added_and_removed_metrics_are_listed_not_breached() {
        let base = doc(&[("old", 1)]);
        let cur = doc(&[("new", 1)]);
        let r = diff(&base, &cur, &DiffOptions::default());
        assert!(!r.breached());
        assert_eq!(r.added, vec!["counter new"]);
        assert_eq!(r.removed, vec!["counter old"]);
        assert!(r.text().contains("added:   counter new"));
        assert!(r.markdown().contains("Only in baseline: counter old"));
    }

    #[test]
    fn histogram_percentile_and_span_deltas_flow_through() {
        let mk = |hist_buckets: Vec<(u64, u64)>, span_count: u64| {
            parse_metrics(&format!(
                "{{\"schema_version\": 1, \"counters\": {{}}, \"histograms\": {{\
                 \"h.lat_ns\": {{\"count\": {n}, \"sum\": 10, \"min\": 1, \"max\": {max}, \
                 \"buckets\": [{buckets}]}}}}, \"spans\": {{\
                 \"s.phase\": {{\"count\": {span_count}, \"total_ns\": 50, \"max_ns\": 20}}}}}}",
                n = hist_buckets.iter().map(|&(_, c)| c).sum::<u64>(),
                max = hist_buckets.last().map(|&(le, _)| le).unwrap_or(0),
                buckets = hist_buckets
                    .iter()
                    .map(|&(le, c)| format!("{{\"le\": {le}, \"count\": {c}}}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            ))
            .unwrap()
        };
        let base = mk(vec![(7, 10)], 4);
        let cur = mk(vec![(7, 9), (1023, 1)], 4);
        let r = diff(&base, &cur, &DiffOptions::default());
        // Counts unchanged; p99 moved a bucket (informational: _ns).
        let p99 = r
            .deltas
            .iter()
            .find(|d| d.field == "p99")
            .expect("p99 delta");
        assert_eq!((p99.base, p99.current), (7, 1023));
        assert!(!p99.gated && !r.breached());
        // A span-count change is structural and gated.
        let cur2 = mk(vec![(7, 10)], 6);
        let r2 = diff(&base, &cur2, &DiffOptions::default());
        assert!(r2.breached());
        let b = r2.deltas.iter().find(|d| d.breach).unwrap();
        assert_eq!((b.kind, b.field), (Kind::Span, "count"));
    }

    #[test]
    fn markdown_report_shape() {
        let base = doc(&[("a", 10)]);
        let cur = doc(&[("a", 20)]);
        let md = diff(&base, &cur, &DiffOptions::default()).markdown();
        assert!(md.starts_with("## Telemetry baseline diff"));
        assert!(md.contains("**Verdict: BREACH**"));
        assert!(md.contains("| counter | `a` | total | 10 | 20 | +100.0% | BREACH |"));
    }
}
