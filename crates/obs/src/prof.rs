//! Span-tree analysis over the recorder's completed spans: exact
//! folded-stack profiles, exclusive self-time and the critical path.
//!
//! Every function here reads completed spans, either from the live
//! recorder ([`recorded_spans`]) or re-parsed from a Chrome trace
//! artifact ([`spans_from_trace`]). Span nesting is rebuilt per thread
//! from interval containment: a span's parent is its innermost enclosing
//! span on the same thread. On that tree:
//!
//! * [`folded`] writes one Brendan Gregg folded-stack line per distinct
//!   name path, weighted by the summed self time in nanoseconds:
//!
//!   ```text
//!   sweep.case;pm.recover;pm.phase1 4200
//!   ```
//!
//!   `inferno-flamegraph`, `flamegraph.pl` and speedscope all consume it
//!   directly. [`folded_text`] renders the live recorder's spans;
//!   `--telemetry DIR` writes it to `DIR/profile.folded` at exit and
//!   [`crate::serve`] serves it at `GET /profile.folded`.
//! * [`self_times`] aggregates exclusive time per span name (inclusive
//!   total minus direct children). For every name, the weights of the
//!   folded lines ending in it sum to its `self_ns`.
//! * [`critical_path`] follows the longest root span, then repeatedly its
//!   longest direct child, with per-worker attribution from the recorded
//!   thread ids. `pmctl obs critical` runs it on a `trace.json`.
//!
//! Nothing here writes to the recorder, so a profiled run produces
//! byte-identical results to an unprofiled one (pinned by
//! `tests-integration/tests/profiler.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One completed span, the unit the analyzers work on. Obtained from the
/// live recorder via [`recorded_spans`] or from a Chrome trace artifact
/// via [`spans_from_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    /// Span name (the recorder's dotted name).
    pub name: String,
    /// Free-form label, when one was attached.
    pub label: Option<String>,
    /// Recording thread id.
    pub tid: u64,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

impl SpanInfo {
    fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Copies every span the live recorder holds.
pub fn recorded_spans() -> Vec<SpanInfo> {
    let (spans, _labels) = crate::raw_state();
    spans
        .into_iter()
        .map(|s| SpanInfo {
            name: s.name.to_string(),
            label: s.label,
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        })
        .collect()
}

/// Reconstructs span nesting per thread by interval containment: each
/// span's parent is its innermost enclosing span on the same thread
/// (`None` for roots). Spans sort by start time with longer spans first
/// on ties, so a parent always precedes its children.
fn assign_parents(spans: &[SpanInfo]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        (spans[a].tid, spans[a].start_ns)
            .cmp(&(spans[b].tid, spans[b].start_ns))
            .then(spans[b].dur_ns.cmp(&spans[a].dur_ns))
            .then(a.cmp(&b))
    });
    let mut parents = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut cur_tid = None;
    for &i in &order {
        let s = &spans[i];
        if cur_tid != Some(s.tid) {
            open.clear();
            cur_tid = Some(s.tid);
        }
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if s.start_ns >= t.start_ns && s.end_ns() <= t.end_ns() {
                break;
            }
            open.pop();
        }
        parents[i] = open.last().copied();
        open.push(i);
    }
    parents
}

/// Each span's exclusive time under `parents`: its duration minus the
/// summed durations of its direct children.
fn exclusive_ns(spans: &[SpanInfo], parents: &[Option<usize>]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            child_ns[*p] = child_ns[*p].saturating_add(spans[i].dur_ns);
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Renders `spans` as exact folded stacks: one `frame;frame;… WEIGHT`
/// line per distinct name path from a root span down, sorted by stack,
/// where `WEIGHT` is the summed self time in nanoseconds of the spans at
/// the end of that path. Paths whose weight is 0 are left out, so the
/// weights sum to the root spans' total duration.
pub fn folded(spans: &[SpanInfo]) -> String {
    let parents = assign_parents(spans);
    let self_ns = exclusive_ns(spans, &parents);
    let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
    let mut frames: Vec<&str> = Vec::new();
    for (i, &weight) in self_ns.iter().enumerate() {
        if weight == 0 {
            continue;
        }
        frames.clear();
        let mut cur = Some(i);
        while let Some(j) = cur {
            frames.push(&spans[j].name);
            cur = parents[j];
        }
        frames.reverse();
        *by_stack.entry(frames.join(";")).or_insert(0) += weight;
    }
    let mut out = String::new();
    for (stack, weight) in &by_stack {
        let _ = writeln!(out, "{stack} {weight}");
    }
    out
}

/// [`folded`] over every span the live recorder holds: the
/// `profile.folded` artifact and the `GET /profile.folded` body. Empty while nothing has
/// been recorded.
pub fn folded_text() -> String {
    folded(&recorded_spans())
}

/// Per-name exclusive-time aggregate, from [`self_times`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Completed intervals under this name.
    pub count: u64,
    /// Inclusive total, nanoseconds — matches the `total_ns` the metrics
    /// JSON reports for the same spans.
    pub total_ns: u64,
    /// Exclusive total: inclusive minus time covered by direct children.
    pub self_ns: u64,
}

/// Aggregates exclusive (self) time per span name: each span's duration
/// minus the summed durations of its direct children, summed per name and
/// sorted by name. `total_ns` sums the plain durations, so it reconciles
/// exactly with the span totals in [`crate::metrics_json`].
pub fn self_times(spans: &[SpanInfo]) -> Vec<SelfTime> {
    let self_ns = exclusive_ns(spans, &assign_parents(spans));
    let mut by_name: BTreeMap<&str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let agg = by_name.entry(s.name.as_str()).or_insert_with(|| SelfTime {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(s.dur_ns);
        agg.self_ns = agg.self_ns.saturating_add(self_ns[i]);
    }
    by_name.into_values().collect()
}

/// One step of the [`critical_path`] chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalStep {
    /// Span name.
    pub name: String,
    /// Free-form label, when one was attached.
    pub label: Option<String>,
    /// Recording thread id (per-worker attribution).
    pub tid: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth along the chain (0 = the chosen root).
    pub depth: usize,
}

/// The critical path of a run: the longest root span overall, then
/// repeatedly its longest direct child, down to a leaf. Ties break
/// toward the earlier start (then lower input index), so the chain is
/// deterministic. Empty input gives an empty chain.
pub fn critical_path(spans: &[SpanInfo]) -> Vec<CriticalStep> {
    let parents = assign_parents(spans);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, parent) in parents.iter().enumerate() {
        match parent {
            Some(p) => children[*p].push(i),
            None => roots.push(i),
        }
    }
    let longest = |cands: &[usize]| -> Option<usize> {
        cands.iter().copied().max_by(|&a, &b| {
            spans[a]
                .dur_ns
                .cmp(&spans[b].dur_ns)
                .then(spans[b].start_ns.cmp(&spans[a].start_ns))
                .then(b.cmp(&a))
        })
    };
    let mut path = Vec::new();
    let mut cur = longest(&roots);
    let mut depth = 0usize;
    while let Some(i) = cur {
        let s = &spans[i];
        path.push(CriticalStep {
            name: s.name.clone(),
            label: s.label.clone(),
            tid: s.tid,
            dur_ns: s.dur_ns,
            depth,
        });
        depth += 1;
        cur = longest(&children[i]);
    }
    path
}

/// Re-parses spans and thread labels out of a Chrome trace document (the
/// `trace.json` artifact): complete (`"ph": "X"`) events become [`SpanInfo`]s
/// (µs timestamps scaled back to ns), `thread_name` metadata becomes the
/// label map. This is how `pmctl obs critical` analyzes a finished run.
///
/// # Errors
///
/// Reports the first malformed event (missing `traceEvents`, a complete
/// event without a name, or non-numeric/negative `ts`/`dur`/`tid`).
pub fn spans_from_trace(
    doc: &crate::json::Value,
) -> Result<(Vec<SpanInfo>, BTreeMap<u64, String>), String> {
    use crate::json::Value;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.items())
        .ok_or_else(|| "trace document has no \"traceEvents\" array".to_string())?;
    let us_field = |ev: &Value, key: &str| -> Result<u64, String> {
        match ev.get(key) {
            Some(Value::Num(n)) if *n >= 0.0 && n.is_finite() => Ok((n * 1e3).round() as u64),
            _ => Err(format!("trace event missing numeric \"{key}\"")),
        }
    };
    let mut spans = Vec::new();
    let mut labels = BTreeMap::new();
    for ev in events {
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            _ => continue,
        };
        match ph {
            "M" => {
                if !matches!(ev.get("name"), Some(Value::Str(n)) if n == "thread_name") {
                    continue;
                }
                let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);
                if let Some(Value::Str(name)) = ev.get("args").and_then(|a| a.get("name")) {
                    labels.insert(tid, name.clone());
                }
            }
            "X" => {
                let name = match ev.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return Err("complete event without a name".to_string()),
                };
                let tid = ev
                    .get("tid")
                    .and_then(|t| t.as_u64())
                    .ok_or_else(|| format!("event \"{name}\" missing numeric \"tid\""))?;
                let label = match ev.get("args").and_then(|a| a.get("label")) {
                    Some(Value::Str(l)) => Some(l.clone()),
                    _ => None,
                };
                spans.push(SpanInfo {
                    start_ns: us_field(ev, "ts")?,
                    dur_ns: us_field(ev, "dur")?,
                    name,
                    label,
                    tid,
                });
            }
            _ => {}
        }
    }
    Ok((spans, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enable, reset, span, span_labeled};

    fn s(name: &str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanInfo {
        SpanInfo {
            name: name.to_string(),
            label: None,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn folded_weights_paths_by_exact_self_time() {
        let spans = vec![
            // Thread 1: `a` recurses into itself, which holds `b`; `c`
            // sits directly under the outer `a`.
            s("a", 1, 0, 100),
            s("a", 1, 10, 50),
            s("b", 1, 20, 20),
            s("c", 1, 70, 10),
            // Thread 2: `w` is covered by its children (self 0), then a
            // root `b` that must not nest under thread 1's spans.
            s("w", 2, 0, 30),
            s("c", 2, 0, 10),
            s("d", 2, 10, 10),
            s("c", 2, 20, 10),
            s("b", 2, 40, 20),
        ];
        let text = folded(&spans);
        assert_eq!(
            text, "a 40\na;a 30\na;a;b 20\na;c 10\nb 20\nw;c 20\nw;d 10\n",
            "recursion, two threads, zero-self `w` left out"
        );
        let weights: Vec<(&str, u64)> = text
            .lines()
            .map(|l| {
                let (stack, w) = l.rsplit_once(' ').unwrap();
                (stack, w.parse().unwrap())
            })
            .collect();
        let total: u64 = weights.iter().map(|&(_, w)| w).sum();
        assert_eq!(total, 100 + 30 + 20, "weights sum to the root durations");
        for st in self_times(&spans).iter().filter(|t| t.self_ns > 0) {
            let ending: u64 = weights
                .iter()
                .filter(|(stack, _)| stack.rsplit(';').next() == Some(st.name.as_str()))
                .map(|&(_, w)| w)
                .sum();
            assert_eq!(ending, st.self_ns, "{}", st.name);
        }
        assert_eq!(folded(&[]), "");
    }

    #[test]
    fn self_time_is_inclusive_minus_direct_children() {
        // root [0, 100); two children [10,30) and [40,90); grandchild
        // [50,70) — the grandchild subtracts from its parent, not root.
        let spans = vec![
            s("root", 1, 0, 100),
            s("child", 1, 10, 20),
            s("child", 1, 40, 50),
            s("grand", 1, 50, 20),
        ];
        let st = self_times(&spans);
        let by_name: BTreeMap<&str, &SelfTime> = st.iter().map(|t| (t.name.as_str(), t)).collect();
        assert_eq!(by_name["root"].total_ns, 100);
        assert_eq!(by_name["root"].self_ns, 30, "100 - 20 - 50");
        assert_eq!(by_name["child"].count, 2);
        assert_eq!(by_name["child"].total_ns, 70);
        assert_eq!(by_name["child"].self_ns, 50, "70 - grandchild 20");
        assert_eq!(by_name["grand"].self_ns, 20);
        // Names sort: output order is deterministic.
        let names: Vec<&str> = st.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["child", "grand", "root"]);
    }

    #[test]
    fn nesting_is_per_thread() {
        // Identical intervals on different threads must not nest.
        let spans = vec![s("a", 1, 0, 100), s("b", 2, 10, 20)];
        let st = self_times(&spans);
        assert_eq!(st[0].self_ns, 100, "b is on another thread");
        assert_eq!(st[1].self_ns, 20);
    }

    #[test]
    fn critical_path_follows_the_longest_children() {
        let spans = vec![
            s("short_root", 1, 0, 10),
            s("run", 1, 20, 100),
            s("fast", 1, 25, 10),
            s("slow", 2, 0, 50), // other thread: a root, but shorter
            s("inner", 1, 40, 60),
            s("leaf", 1, 45, 30),
        ];
        let path = critical_path(&spans);
        let names: Vec<&str> = path.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["run", "inner", "leaf"]);
        assert_eq!(path[0].depth, 0);
        assert_eq!(path[2].depth, 2);
        assert_eq!(path[2].dur_ns, 30);
        assert!(critical_path(&[]).is_empty());
    }

    #[test]
    fn trace_round_trip_preserves_spans_and_labels() {
        let _g = crate::tests::guard();
        enable();
        reset();
        crate::set_thread_label("prof-test");
        {
            let _outer = span("prof.rt_outer");
            let _inner = span_labeled("prof.rt_inner", "case (1,2)");
        }
        let expected = {
            let mut spans = recorded_spans();
            spans.sort_by(|a, b| a.name.cmp(&b.name));
            spans
        };
        let doc = crate::json::parse(&crate::chrome_trace_json()).expect("trace parses");
        let (mut spans, labels) = spans_from_trace(&doc).expect("spans re-parse");
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(spans.len(), 2);
        assert!(labels.values().any(|l| l == "prof-test"));
        for (got, want) in spans.iter().zip(&expected) {
            assert_eq!(got.name, want.name);
            assert_eq!(got.label, want.label);
            assert_eq!(got.tid, want.tid);
            // µs round trip: ns precision is quantized to the trace's
            // three decimals, so allow the 1000 ns rounding step.
            assert!(got.start_ns.abs_diff(want.start_ns) <= 1000);
            assert!(got.dur_ns.abs_diff(want.dur_ns) <= 1000);
        }
    }

    #[test]
    fn malformed_traces_are_reported() {
        let doc = crate::json::parse("{\"other\": 1}").unwrap();
        assert!(spans_from_trace(&doc).unwrap_err().contains("traceEvents"));
        let doc = crate::json::parse(
            "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\", \"ts\": \"bad\", \
             \"dur\": 1, \"tid\": 1}]}",
        )
        .unwrap();
        assert!(spans_from_trace(&doc).unwrap_err().contains("\"ts\""));
    }
}
