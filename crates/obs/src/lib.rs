//! `pm_obs` — a zero-external-dependency tracing and metrics layer.
//!
//! Everything funnels into one process-global [`Recorder`] that is **off by
//! default**: until [`enable`] is called, every instrumentation entry point
//! reduces to a single relaxed atomic load and returns immediately, so
//! instrumented hot paths cost (close to) nothing in default runs and can
//! never perturb recorded results. No wall-clock value ever flows from the
//! recorder into result CSV/JSON files — telemetry is exported only through
//! the dedicated [`chrome_trace_json`] / [`metrics_json`] artifacts.
//!
//! Three primitives cover the workloads in this repository:
//!
//! * **Spans** — hierarchical wall-time intervals on a monotonic clock
//!   ([`std::time::Instant`]), tagged with the recording thread so nesting
//!   reconstructs per worker. Created with [`span`] / [`span_labeled`] and
//!   closed by RAII drop.
//! * **Counters** — monotonically increasing `u64` totals ([`count`]), for
//!   things like simplex pivots, branch-and-bound nodes or SDN mode picks.
//! * **Histograms** — fixed power-of-two bucket distributions
//!   ([`observe`]), e.g. per-node LP solve time in nanoseconds.
//!
//! Exports:
//!
//! * [`chrome_trace_json`] — a Chrome `trace_event` JSON file, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! * [`metrics_json`] — a machine-readable metrics document whose layout is
//!   pinned by tests (see `schema_version`).
//!
//! # Example
//!
//! ```
//! pm_obs::enable();
//! {
//!     let _outer = pm_obs::span("doc.outer");
//!     let _inner = pm_obs::span_labeled("doc.inner", "case (13,20)");
//!     pm_obs::count("doc.widgets", 3);
//!     pm_obs::observe("doc.latency_ns", 1500);
//! }
//! let trace = pm_obs::chrome_trace_json();
//! assert!(trace.contains("\"doc.outer\""));
//! let metrics = pm_obs::metrics_json();
//! assert!(metrics.contains("\"doc.widgets\": 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod diff;
pub mod flight;
pub mod json;
pub mod prof;
pub mod serve;

mod export;

pub use export::{
    artifact_error, chrome_trace_json, escape_label_value, metrics_json, prometheus_from_snapshot,
    prometheus_text, write_artifact,
};
pub use serve::{MetricsServer, Request, Response, Router, ServeConfig};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Schema version stamped into [`metrics_json`] documents.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense per-thread id for trace attribution (not the OS tid, so
    /// exports are stable in shape across platforms).
    static THREAD_ID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Is the global recorder currently recording?
///
/// This is the fast path every instrumentation call takes first: a single
/// relaxed atomic load. Callers wrapping bigger bookkeeping (building label
/// strings, reading clocks) should gate it on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on, process-wide. Idempotent.
pub fn enable() {
    recorder(); // establish the epoch before the first event
    ENABLED.store(true, Ordering::SeqCst);
}

/// The single process-wide recorder (created lazily).
fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(Recorder::new)
}

/// One completed span interval.
#[derive(Debug, Clone)]
pub(crate) struct SpanRecord {
    pub(crate) name: &'static str,
    pub(crate) label: Option<String>,
    pub(crate) tid: u64,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
}

/// A fixed-layout histogram: 65 power-of-two buckets over `u64` values
/// (bucket `b` holds values whose bit length is `b`, i.e. `v == 0` lands in
/// bucket 0 and bucket `b >= 1` spans `[2^(b-1), 2^b - 1]`).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, value: u64) {
        let b = (64 - value.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| {
                let le = if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b).wrapping_sub(1)
                };
                (le, c)
            })
            .collect()
    }

    /// Nearest-rank percentile estimate (see [`percentile_from_buckets`]).
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_from_buckets(&self.nonzero_buckets(), q)
    }

    /// Median estimate (the 50th-percentile bucket's upper bound).
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

/// Nearest-rank percentile estimate over log2 bucket data.
///
/// `buckets` are `(inclusive upper bound, count)` pairs in ascending bound
/// order — the shape of [`Histogram::nonzero_buckets`] and of the
/// `buckets` array in exported metrics JSON. `q` is the percentile in
/// percent (`50.0`, `95.0`, `99.0`).
///
/// The estimate is the *upper bound of the bucket holding the
/// nearest-rank sample* (rank `ceil(q/100 · n)`, clamped to `[1, n]`), so
/// it is conservative by at most one power of two — the resolution the
/// 65-bucket layout offers. An empty histogram estimates 0. The rank
/// clamp pins the boundaries: `q = 0.0` selects rank 1 (the minimum's
/// bucket) and any `q ≥ 100.0` selects rank `n` (the maximum's bucket).
///
/// # Panics
///
/// Panics if `q` is not finite. A NaN percentile is always a caller bug,
/// and letting it fall through nearest-rank selection would silently
/// report the minimum bucket (`NaN` comparisons pick rank 1).
pub fn percentile_from_buckets(buckets: &[(u64, u64)], q: f64) -> u64 {
    assert!(q.is_finite(), "percentile q must be finite, got {q}");
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q / 100.0).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(le, c) in buckets {
        seen += c;
        if seen >= rank {
            return le;
        }
    }
    buckets.last().map(|&(le, _)| le).unwrap_or(0)
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    thread_labels: BTreeMap<u64, String>,
}

/// The global event sink. Not constructible by callers — use the free
/// functions ([`span`], [`count`], [`observe`], …) which all route here.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking instrumentation holder must not wedge telemetry.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// RAII guard returned by [`span`]; records the interval when dropped.
/// Inert (and free) while the recorder is disabled.
#[derive(Debug)]
#[must_use = "a span measures the scope it is held in"]
pub struct SpanGuard {
    data: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    name: &'static str,
    label: Option<String>,
    tid: u64,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            let rec = recorder();
            let dur_ns = rec.now_ns().saturating_sub(data.start_ns);
            rec.lock().spans.push(SpanRecord {
                name: data.name,
                label: data.label,
                tid: data.tid,
                start_ns: data.start_ns,
                dur_ns,
            });
        }
    }
}

/// Opens a span named `name`; the interval closes when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    span_slow(name, None)
}

/// Like [`span`], with a free-form label (e.g. a case name) attached as a
/// trace-event argument.
#[inline]
pub fn span_labeled(name: &'static str, label: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    span_slow(name, Some(label.into()))
}

fn span_slow(name: &'static str, label: Option<String>) -> SpanGuard {
    SpanGuard {
        data: Some(SpanData {
            name,
            label,
            tid: thread_id(),
            start_ns: recorder().now_ns(),
        }),
    }
}

/// Adds `delta` to the counter `name`. No-op while disabled.
#[inline]
pub fn count(name: impl Into<String>, delta: u64) {
    if !enabled() {
        return;
    }
    let rec = recorder();
    let name = name.into();
    let total = {
        let mut inner = rec.lock();
        let slot = inner.counters.entry(name.clone()).or_insert(0);
        *slot += delta;
        *slot
    };
    if flight::armed() {
        flight::record_count(rec.now_ns(), thread_id(), &name, delta, total);
    }
}

/// Raises the counter `name` to `value` if it is currently lower — a
/// high-water mark with counter storage and export (the sweep engine uses
/// it for peak live-scenario accounting). No-op while disabled.
#[inline]
pub fn count_max(name: impl Into<String>, value: u64) {
    if !enabled() {
        return;
    }
    let mut inner = recorder().lock();
    let slot = inner.counters.entry(name.into()).or_insert(0);
    *slot = (*slot).max(value);
}

/// Records `value` into the fixed-bucket histogram `name`. No-op while
/// disabled.
#[inline]
pub fn observe(name: impl Into<String>, value: u64) {
    if !enabled() {
        return;
    }
    let mut inner = recorder().lock();
    inner
        .histograms
        .entry(name.into())
        .or_insert_with(Histogram::new)
        .record(value);
}

/// Names the calling thread in trace exports (e.g. `"sweep-worker-3"`).
/// No-op while disabled.
pub fn set_thread_label(label: impl Into<String>) {
    if !enabled() {
        return;
    }
    let tid = thread_id();
    recorder().lock().thread_labels.insert(tid, label.into());
}

/// Clears every recorded span, counter, histogram and thread label (the
/// enabled flag is left as-is). Meant for tests that need a clean slate.
pub fn reset() {
    let mut inner = recorder().lock();
    *inner = Inner::default();
}

/// Aggregate view of all completed spans sharing one name.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span name.
    pub name: &'static str,
    /// How many intervals completed under this name.
    pub count: u64,
    /// Total recorded time, in nanoseconds.
    pub total_ns: u64,
    /// Longest single interval, in nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time copy of everything the recorder holds, with spans
/// aggregated per name. Counter/histogram/span lists are sorted by name, so
/// two snapshots of the same state render identically.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-name span aggregates, sorted by name.
    pub spans: Vec<SpanAgg>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Takes a [`Snapshot`] of the recorder's current aggregates.
pub fn snapshot() -> Snapshot {
    let inner = recorder().lock();
    let mut by_name: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for s in &inner.spans {
        let agg = by_name.entry(s.name).or_insert(SpanAgg {
            name: s.name,
            count: 0,
            total_ns: 0,
            max_ns: 0,
        });
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(s.dur_ns);
        agg.max_ns = agg.max_ns.max(s.dur_ns);
    }
    Snapshot {
        spans: by_name.into_values().collect(),
        counters: inner
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
        histograms: inner
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    }
}

/// Internal: copies the raw state needed by the exporters.
pub(crate) fn raw_state() -> (Vec<SpanRecord>, BTreeMap<u64, String>) {
    let inner = recorder().lock();
    (inner.spans.clone(), inner.thread_labels.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All recorder tests share the process-global sink; serialize them.
    pub(crate) fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = guard();
        // Not enabled yet in this test ordering? `enable` may have run via
        // another test — reset and check the primitives are harmless either
        // way, then verify the disabled guard is inert.
        let inert = SpanGuard { data: None };
        drop(inert);
        assert!(span("x").data.is_none() || enabled());
    }

    #[test]
    fn spans_counters_histograms_round_trip() {
        let _g = guard();
        enable();
        reset();
        {
            let _outer = span("test.outer");
            let _inner = span_labeled("test.inner", "case A");
            count("test.counter", 2);
            count("test.counter", 3);
            observe("test.hist", 0);
            observe("test.hist", 5);
            observe("test.hist", 1_000_000);
        }
        let snap = snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["test.inner", "test.outer"]);
        assert_eq!(snap.counters, vec![("test.counter".to_string(), 5)]);
        let (hname, hist) = &snap.histograms[0];
        assert_eq!(hname, "test.hist");
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.sum(), 1_000_005);
        assert_eq!(hist.min(), 0);
        assert_eq!(hist.max(), 1_000_000);
        assert_eq!(hist.nonzero_buckets().len(), 3);
    }

    #[test]
    fn count_max_keeps_the_high_water_mark() {
        let _g = guard();
        enable();
        reset();
        count_max("test.peak", 4);
        count_max("test.peak", 9);
        count_max("test.peak", 6);
        let snap = snapshot();
        assert_eq!(snap.counters, vec![("test.peak".to_string(), 9)]);
    }

    #[test]
    fn histogram_bucket_bounds_are_powers_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (3, 2), (7, 1)],
            "0 | 1 | 2..3 | 4..7"
        );
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.nonzero_buckets(), vec![(u64::MAX, 1)]);
    }

    #[test]
    fn percentiles_on_exact_powers_of_two() {
        // 1, 2, 4, 8 land in buckets with upper bounds 1, 3, 7, 15: an
        // exact power of two 2^k sits at the *bottom* of bucket k+1, so
        // the estimate reports that bucket's bound 2^(k+1)-1.
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8] {
            h.record(v);
        }
        assert_eq!(h.percentile(25.0), 1);
        assert_eq!(h.p50(), 3);
        assert_eq!(h.percentile(75.0), 7);
        assert_eq!(h.p95(), 15);
        assert_eq!(h.p99(), 15);
        assert_eq!(h.percentile(100.0), 15);
    }

    #[test]
    fn percentiles_on_empty_and_single_sample() {
        let empty = Histogram::new();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p95(), 0);
        assert_eq!(empty.p99(), 0);

        // A single sample is every percentile; 5 lives in the 4..7 bucket.
        let mut one = Histogram::new();
        one.record(5);
        assert_eq!(one.p50(), 7);
        assert_eq!(one.p95(), 7);
        assert_eq!(one.p99(), 7);
        // Zero has its own bucket with bound 0 — exact, not an estimate.
        let mut zero = Histogram::new();
        zero.record(0);
        assert_eq!(zero.p50(), 0);
        assert_eq!(zero.p99(), 0);
    }

    #[test]
    fn percentile_ranks_are_nearest_rank() {
        // 100 samples: 95 small (bucket bound 1), 5 large (bucket bound
        // 1023). Nearest-rank p95 is the 95th smallest — still small;
        // p96 and up cross into the large bucket.
        let mut h = Histogram::new();
        for _ in 0..95 {
            h.record(1);
        }
        for _ in 0..5 {
            h.record(1000);
        }
        assert_eq!(h.p95(), 1);
        assert_eq!(h.percentile(96.0), 1023);
        assert_eq!(h.p99(), 1023);
        // The helper works on raw bucket data too (the metrics-JSON path).
        assert_eq!(percentile_from_buckets(&[(1, 95), (1023, 5)], 95.0), 1);
        assert_eq!(percentile_from_buckets(&[(1, 95), (1023, 5)], 99.0), 1023);
        assert_eq!(percentile_from_buckets(&[], 50.0), 0);
        // The top bucket's bound saturates at u64::MAX.
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.p50(), u64::MAX);
    }

    #[test]
    fn percentile_boundaries_are_pinned() {
        // 1, 2, 4, 8 → bucket bounds 1, 3, 7, 15. q = 0.0 clamps to rank
        // 1 (the minimum's bucket); q = 1.0 — the 1st percentile of four
        // samples — is also rank 1; q = 100.0 is rank n (the maximum's
        // bucket), as is any larger q.
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(1.0), 1);
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.percentile(250.0), 15);
        assert_eq!(percentile_from_buckets(&[(9, 3)], 0.0), 9);
        assert_eq!(percentile_from_buckets(&[(9, 3)], 1.0), 9);
        assert_eq!(percentile_from_buckets(&[(9, 3)], 100.0), 9);
        // Empty data stays 0 at the boundaries too.
        assert_eq!(percentile_from_buckets(&[], 0.0), 0);
        assert_eq!(percentile_from_buckets(&[], 100.0), 0);
    }

    #[test]
    #[should_panic(expected = "percentile q must be finite")]
    fn percentile_rejects_nan() {
        let mut h = Histogram::new();
        h.record(5);
        let _ = h.percentile(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "percentile q must be finite")]
    fn percentile_rejects_infinity() {
        let _ = percentile_from_buckets(&[(1, 1)], f64::INFINITY);
    }

    #[test]
    fn spans_carry_thread_identity() {
        let _g = guard();
        enable();
        reset();
        set_thread_label("main-thread");
        let main_tid = thread_id();
        {
            let _s = span("test.main_side");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                set_thread_label("worker");
                let _s = span("test.worker_side");
            });
        });
        let (spans, labels) = raw_state();
        let main_span = spans.iter().find(|s| s.name == "test.main_side").unwrap();
        let worker_span = spans.iter().find(|s| s.name == "test.worker_side").unwrap();
        assert_eq!(main_span.tid, main_tid);
        assert_ne!(worker_span.tid, main_tid);
        assert_eq!(
            labels.get(&main_span.tid).map(String::as_str),
            Some("main-thread")
        );
        assert_eq!(
            labels.get(&worker_span.tid).map(String::as_str),
            Some("worker")
        );
    }

    #[test]
    fn nested_spans_are_ordered_and_contained() {
        let _g = guard();
        enable();
        reset();
        {
            let _outer = span("test.nest_outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = span("test.nest_inner");
        }
        let (spans, _) = raw_state();
        let outer = spans.iter().find(|s| s.name == "test.nest_outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.nest_inner").unwrap();
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }
}
