//! Interval time-series snapshots of the recorder: the live half of the
//! telemetry plane.
//!
//! A [`Sampler`] is a background thread that snapshots the process-global
//! recorder every `interval` (default 250 ms), turns the difference
//! against the previous snapshot into one [`Interval`] — per-counter
//! deltas and per-second rates, per-histogram count rates, per-worker
//! busy% derived from the `*.worker.N.busy_ns` counters the sweep engine
//! maintains — and keeps a bounded ring of the most recent intervals.
//!
//! The ring is exported three ways, all additive over the existing
//! telemetry artifacts:
//!
//! * [`timeseries_json`] — a standalone document (the `/timeseries.json`
//!   endpoint of [`crate::serve`]);
//! * an extra `timeseries` member appended to [`crate::metrics_json`]
//!   (readers of schema v1 that ignore unknown members keep working —
//!   the version is not bumped);
//! * timestamped gauge samples appended to [`crate::prometheus_text`]
//!   (the exposition format's optional `<timestamp_ms>` field).
//!
//! Like everything in `pm_obs`, sampling is strictly observational: the
//! sampler only ever calls [`crate::snapshot`], so a run with a sampler
//! attached produces byte-identical results to a run without one (proven
//! by `tests-integration/tests/telemetry_plane.rs`).

use crate::{snapshot, Snapshot};
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Configuration for [`Sampler::start`].
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Gap between snapshots. The default, 250 ms, matches the
    /// `--sample-interval` default pmctl uses with `--serve`.
    pub interval: Duration,
    /// Ring capacity in intervals. At the default interval the default
    /// capacity (240) holds one minute of history.
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(250),
            capacity: 240,
        }
    }
}

/// One counter's movement over one interval.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Counter name (the recorder's dotted name).
    pub name: String,
    /// Running total at the end of the interval.
    pub total: u64,
    /// Increase over the interval.
    pub delta: u64,
    /// `delta` scaled to events per second.
    pub rate_per_sec: f64,
}

/// One histogram's count movement over one interval.
#[derive(Debug, Clone)]
pub struct HistSample {
    /// Histogram name.
    pub name: String,
    /// Total observations at the end of the interval.
    pub count_total: u64,
    /// New observations over the interval.
    pub count_delta: u64,
    /// `count_delta` scaled to observations per second.
    pub rate_per_sec: f64,
}

/// One worker thread's utilization over one interval, derived from the
/// `<prefix>.worker.<N>.busy_ns` / `.cases` / `.items` counters the sweep
/// dispatchers maintain.
#[derive(Debug, Clone)]
pub struct WorkerSample {
    /// Worker key: the counter name up to (not including) `.busy_ns`,
    /// e.g. `sweep.worker.3`.
    pub name: String,
    /// Fraction of the interval spent in the per-item closure, in percent
    /// (clamped to 100).
    pub busy_pct: f64,
    /// Items (cases) the worker completed during the interval.
    pub items_delta: u64,
}

/// One sampling interval: everything that moved between two snapshots.
#[derive(Debug, Clone)]
pub struct Interval {
    /// Monotonically increasing interval number (0-based, counted from
    /// sampler start — indices keep growing after the ring wraps).
    pub index: u64,
    /// Milliseconds from sampler start to the end of this interval.
    pub end_ms: u64,
    /// Measured interval length in milliseconds (the sampler thread is
    /// not a hard-real-time clock; this is the actual gap).
    pub dur_ms: u64,
    /// Wall clock at the end of the interval (Unix epoch, ms) — the
    /// timestamp stamped onto Prometheus samples. Telemetry-only; no
    /// wall-clock value ever flows into result files.
    pub unix_ms: u64,
    /// Counters that moved during the interval, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Histograms whose count moved during the interval, sorted by name.
    pub histograms: Vec<HistSample>,
    /// Per-worker utilization, sorted by name.
    pub workers: Vec<WorkerSample>,
}

/// State shared between the sampler thread and the exporters.
#[derive(Debug)]
pub(crate) struct TsShared {
    interval_ms: u64,
    capacity: usize,
    start_unix_ms: u64,
    ring: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    intervals: std::collections::VecDeque<Interval>,
    /// Current totals of *all* counters at the latest sample — the
    /// consistent world view a live reader (`pmctl obs top`) needs even
    /// for counters that stopped moving (e.g. `sweep.scenario.selected`).
    last_totals: Vec<(String, u64)>,
    next_index: u64,
}

/// The registry the exporters read: the most recently started sampler.
fn active() -> &'static Mutex<Option<Arc<TsShared>>> {
    static ACTIVE: OnceLock<Mutex<Option<Arc<TsShared>>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn active_shared() -> Option<Arc<TsShared>> {
    active()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// A running background sampler. Stops (and takes one final sample) when
/// dropped; the captured ring stays readable by the exporters until a new
/// sampler starts.
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<TsShared>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Enables the recorder and spawns the sampling thread. The new
    /// sampler becomes the one [`timeseries_json`] (and the `/metrics`
    /// endpoints) read.
    pub fn start(config: SamplerConfig) -> Sampler {
        crate::enable();
        let interval = config.interval.max(Duration::from_millis(1));
        let shared = Arc::new(TsShared {
            interval_ms: interval.as_millis() as u64,
            capacity: config.capacity.max(2),
            start_unix_ms: unix_ms_now(),
            ring: Mutex::new(Ring::default()),
        });
        *active()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&shared));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        // The baseline is taken before `start` returns: counts recorded
        // right after it must show up as interval movement, not be folded
        // into a baseline the thread happens to snapshot later.
        let t0 = Instant::now();
        let baseline = snapshot();
        let handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("pm-obs-sampler".into())
                .spawn(move || sampler_loop(&shared, &stop, interval, t0, baseline))
                .expect("sampler thread spawns")
        };
        Sampler {
            shared,
            stop,
            handle: Some(handle),
        }
    }

    /// Number of intervals currently held in the ring.
    pub fn len(&self) -> usize {
        self.shared.lock_ring().intervals.len()
    }

    /// Whether the ring is still empty (no interval has elapsed yet).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cvar.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // The ring stays registered so post-run exports (`--metrics`,
        // `--prom`) still carry the history.
    }
}

impl TsShared {
    fn lock_ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn sampler_loop(
    shared: &TsShared,
    stop: &(Mutex<bool>, Condvar),
    interval: Duration,
    t0: Instant,
    baseline: Snapshot,
) {
    let mut prev = baseline;
    let mut prev_t = t0;
    let (lock, cvar) = stop;
    loop {
        let stopped = {
            let guard = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (guard, _timeout) = cvar
                .wait_timeout_while(guard, interval, |s| !*s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *guard
        };
        let now = Instant::now();
        // Take one final interval on shutdown so even runs shorter than
        // the interval leave a sample behind.
        if now > prev_t {
            let cur = snapshot();
            let iv = build_interval(&prev, &cur, t0, prev_t, now);
            push_interval(shared, iv, &cur);
            prev = cur;
            prev_t = now;
        }
        if stopped {
            return;
        }
    }
}

fn push_interval(shared: &TsShared, iv: Interval, cur: &Snapshot) {
    let mut ring = shared.lock_ring();
    ring.last_totals = cur.counters.clone();
    let mut iv = iv;
    iv.index = ring.next_index;
    ring.next_index += 1;
    ring.intervals.push_back(iv);
    while ring.intervals.len() > shared.capacity {
        ring.intervals.pop_front();
    }
}

/// Computes one interval's deltas between two snapshots. Snapshot vectors
/// are sorted by name, so a merge walk finds every pair.
fn build_interval(
    prev: &Snapshot,
    cur: &Snapshot,
    t0: Instant,
    from: Instant,
    to: Instant,
) -> Interval {
    let dur = to.duration_since(from);
    let dur_secs = dur.as_secs_f64().max(1e-9);
    let dur_ns = dur.as_nanos().max(1) as f64;

    let mut counters = Vec::new();
    let mut workers: Vec<WorkerSample> = Vec::new();
    let mut worker_items: Vec<(String, u64)> = Vec::new();
    for (name, &total) in cur.counters.iter().map(|(n, v)| (n, v)) {
        let before = lookup(&prev.counters, name);
        let delta = total.saturating_sub(before);
        if let Some(key) = name.strip_suffix(".busy_ns") {
            workers.push(WorkerSample {
                name: key.to_string(),
                busy_pct: (delta as f64 / dur_ns * 100.0).min(100.0),
                items_delta: 0,
            });
        } else if let Some(key) = name
            .strip_suffix(".cases")
            .or_else(|| name.strip_suffix(".items"))
        {
            if key.contains(".worker.") {
                worker_items.push((key.to_string(), delta));
            }
        }
        if delta > 0 {
            counters.push(CounterSample {
                name: name.clone(),
                total,
                delta,
                rate_per_sec: delta as f64 / dur_secs,
            });
        }
    }
    for (key, items) in worker_items {
        if let Some(w) = workers.iter_mut().find(|w| w.name == key) {
            w.items_delta = items;
        }
    }

    let mut histograms = Vec::new();
    for (name, hist) in &cur.histograms {
        let before = prev
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.count())
            .unwrap_or(0);
        let delta = hist.count().saturating_sub(before);
        if delta > 0 {
            histograms.push(HistSample {
                name: name.clone(),
                count_total: hist.count(),
                count_delta: delta,
                rate_per_sec: delta as f64 / dur_secs,
            });
        }
    }

    Interval {
        index: 0, // assigned under the ring lock
        end_ms: to.duration_since(t0).as_millis() as u64,
        dur_ms: dur.as_millis().max(1) as u64,
        unix_ms: unix_ms_now(),
        counters,
        histograms,
        workers,
    }
}

fn lookup(sorted: &[(String, u64)], name: &str) -> u64 {
    sorted
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .map(|i| sorted[i].1)
        .unwrap_or(0)
}

/// Renders the active sampler's ring as a standalone JSON document:
///
/// ```json
/// {
///   "schema_version": 1,
///   "interval_ms": 250,
///   "start_unix_ms": 0,
///   "totals": {"sweep.cases": 41},
///   "intervals": [
///     {"index": 0, "end_ms": 250, "dur_ms": 250, "unix_ms": 0,
///      "counters": {"sweep.cases": {"total": 41, "delta": 41, "rate_per_sec": 164.0}},
///      "histograms": {"sweep.case_ns": {"count": 41, "delta": 41, "rate_per_sec": 164.0}},
///      "workers": {"sweep.worker.0": {"busy_pct": 97.2, "items": 41}}}
///   ]
/// }
/// ```
///
/// With no sampler ever started, the document is valid with an empty
/// `intervals` array. Served live at `GET /timeseries.json` by
/// [`crate::serve`].
pub fn timeseries_json() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"schema_version\": {},",
        crate::METRICS_SCHEMA_VERSION
    );
    match active_shared() {
        None => {
            out.push_str("  \"interval_ms\": 0,\n  \"start_unix_ms\": 0,\n");
            out.push_str("  \"totals\": {},\n  \"intervals\": []\n");
        }
        Some(shared) => {
            let ring = shared.lock_ring();
            let _ = writeln!(out, "  \"interval_ms\": {},", shared.interval_ms);
            let _ = writeln!(out, "  \"start_unix_ms\": {},", shared.start_unix_ms);
            out.push_str("  \"totals\": {");
            for (i, (name, v)) in ring.last_totals.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                let _ = write!(out, "    \"{}\": {v}", crate::json::escape(name));
            }
            out.push_str(if ring.last_totals.is_empty() {
                "},\n"
            } else {
                "\n  },\n"
            });
            out.push_str("  \"intervals\": [");
            for (i, iv) in ring.intervals.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                write_interval(&mut out, iv, "    ");
            }
            out.push_str(if ring.intervals.is_empty() {
                "]\n"
            } else {
                "\n  ]\n"
            });
        }
    }
    out.push_str("}\n");
    out
}

fn write_interval(out: &mut String, iv: &Interval, pad: &str) {
    let _ = write!(
        out,
        "{pad}{{\"index\": {}, \"end_ms\": {}, \"dur_ms\": {}, \"unix_ms\": {}, ",
        iv.index, iv.end_ms, iv.dur_ms, iv.unix_ms
    );
    out.push_str("\"counters\": {");
    for (i, c) in iv.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"total\": {}, \"delta\": {}, \"rate_per_sec\": {}}}",
            crate::json::escape(&c.name),
            c.total,
            c.delta,
            fmt_rate(c.rate_per_sec)
        );
    }
    out.push_str("}, \"histograms\": {");
    for (i, h) in iv.histograms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"count\": {}, \"delta\": {}, \"rate_per_sec\": {}}}",
            crate::json::escape(&h.name),
            h.count_total,
            h.count_delta,
            fmt_rate(h.rate_per_sec)
        );
    }
    out.push_str("}, \"workers\": {");
    for (i, w) in iv.workers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"busy_pct\": {}, \"items\": {}}}",
            crate::json::escape(&w.name),
            fmt_rate(w.busy_pct),
            w.items_delta
        );
    }
    out.push_str("}}");
}

/// Formats a rate with bounded precision and no JSON-hostile values
/// (`NaN`/`inf` render as 0).
fn fmt_rate(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// The additive `timeseries` member for [`crate::metrics_json`]: rendered
/// only when a sampler has captured at least one interval, so documents
/// from sampler-less runs are byte-identical to earlier schema-v1 output.
pub(crate) fn metrics_json_member() -> Option<String> {
    let shared = active_shared()?;
    let ring = shared.lock_ring();
    if ring.intervals.is_empty() {
        return None;
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "  \"timeseries\": {{\"interval_ms\": {}, \"start_unix_ms\": {}, \"intervals\": [",
        shared.interval_ms, shared.start_unix_ms
    );
    for (i, iv) in ring.intervals.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        write_interval(&mut out, iv, "    ");
    }
    out.push_str("\n  ]}");
    Some(out)
}

/// The timestamped gauge families appended to [`crate::prometheus_text`]
/// while a sampler is active: the most recent interval *with movement* —
/// counter rates, histogram count rates and worker busy% — each sample
/// carrying that interval's end wall clock in the exposition format's
/// optional `<timestamp_ms>` position. (A scrape landing in a quiet
/// moment still reports the last observed rates, with their honest older
/// timestamp, rather than dropping the families entirely.)
pub(crate) fn prometheus_member() -> Option<String> {
    let shared = active_shared()?;
    let ring = shared.lock_ring();
    // Idle workers render as busy 0 in every interval, so their mere
    // presence is not movement — require counter/histogram deltas or a
    // worker that actually did something.
    let iv = ring.intervals.iter().rev().find(|iv| {
        !iv.counters.is_empty()
            || !iv.histograms.is_empty()
            || iv
                .workers
                .iter()
                .any(|w| w.busy_pct > 0.0 || w.items_delta > 0)
    })?;
    let ts = iv.unix_ms;
    let mut out = String::new();
    if !iv.counters.is_empty() {
        let _ = writeln!(
            out,
            "# HELP pm_ts_counter_rate latest-interval counter rate (events/s)"
        );
        let _ = writeln!(out, "# TYPE pm_ts_counter_rate gauge");
        for c in &iv.counters {
            let _ = writeln!(
                out,
                "pm_ts_counter_rate{{counter=\"{}\"}} {} {ts}",
                crate::export::escape_label_value(&c.name),
                fmt_rate(c.rate_per_sec)
            );
        }
    }
    if !iv.histograms.is_empty() {
        let _ = writeln!(
            out,
            "# HELP pm_ts_histogram_rate latest-interval histogram observation rate (events/s)"
        );
        let _ = writeln!(out, "# TYPE pm_ts_histogram_rate gauge");
        for h in &iv.histograms {
            let _ = writeln!(
                out,
                "pm_ts_histogram_rate{{histogram=\"{}\"}} {} {ts}",
                crate::export::escape_label_value(&h.name),
                fmt_rate(h.rate_per_sec)
            );
        }
    }
    if !iv.workers.is_empty() {
        let _ = writeln!(
            out,
            "# HELP pm_ts_worker_busy_pct latest-interval worker busy%"
        );
        let _ = writeln!(out, "# TYPE pm_ts_worker_busy_pct gauge");
        for w in &iv.workers {
            let _ = writeln!(
                out,
                "pm_ts_worker_busy_pct{{worker=\"{}\"}} {} {ts}",
                crate::export::escape_label_value(&w.name),
                fmt_rate(w.busy_pct)
            );
        }
    }
    (!out.is_empty()).then_some(out)
}

/// The [`ring_snapshot`] payload: `(interval_ms, intervals, last_totals)`.
pub type RingSnapshot = (u64, Vec<Interval>, Vec<(String, u64)>);

/// A snapshot view of the active ring, for in-process consumers (tests,
/// the CLI).
pub fn ring_snapshot() -> Option<RingSnapshot> {
    let shared = active_shared()?;
    let ring = shared.lock_ring();
    Some((
        shared.interval_ms,
        ring.intervals.iter().cloned().collect(),
        ring.last_totals.clone(),
    ))
}

/// Unregisters the active ring (test isolation: unit tests share the
/// process-global registry with the export tests).
#[cfg(test)]
pub(crate) fn clear_active() {
    *active()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, enable, observe, reset};

    fn snap(counters: &[(&str, u64)], hists: &[(&str, u64)]) -> Snapshot {
        let mut s = Snapshot::default();
        for &(n, v) in counters {
            s.counters.push((n.to_string(), v));
        }
        for &(n, c) in hists {
            let mut h = crate::Histogram::new();
            for _ in 0..c {
                h.record(7);
            }
            s.histograms.push((n.to_string(), h));
        }
        s
    }

    #[test]
    fn interval_deltas_rates_and_busy_are_computed() {
        let t0 = Instant::now();
        let from = t0;
        let to = t0 + Duration::from_millis(500);
        let prev = snap(
            &[("sweep.cases", 10), ("sweep.worker.0.busy_ns", 0)],
            &[("sweep.case_ns", 10)],
        );
        let cur = snap(
            &[
                ("sweep.cases", 30),
                ("sweep.worker.0.busy_ns", 250_000_000),
                ("sweep.worker.0.cases", 20),
            ],
            &[("sweep.case_ns", 30)],
        );
        let iv = build_interval(&prev, &cur, t0, from, to);
        let c = iv
            .counters
            .iter()
            .find(|c| c.name == "sweep.cases")
            .unwrap();
        assert_eq!(c.delta, 20);
        assert!((c.rate_per_sec - 40.0).abs() < 1.0, "{}", c.rate_per_sec);
        let w = &iv.workers[0];
        assert_eq!(w.name, "sweep.worker.0");
        assert!((w.busy_pct - 50.0).abs() < 2.0, "{}", w.busy_pct);
        assert_eq!(w.items_delta, 20);
        let h = &iv.histograms[0];
        assert_eq!(h.count_delta, 20);
        assert_eq!(iv.dur_ms, 500);
    }

    #[test]
    fn quiet_intervals_record_nothing_noisy() {
        let t0 = Instant::now();
        let prev = snap(&[("a", 5)], &[("h", 2)]);
        let iv = build_interval(
            &prev,
            &prev.clone(),
            t0,
            t0,
            t0 + Duration::from_millis(100),
        );
        assert!(iv.counters.is_empty());
        assert!(iv.histograms.is_empty());
    }

    #[test]
    fn sampler_rings_are_bounded_and_indices_advance() {
        let _g = crate::tests::guard();
        enable();
        reset();
        let sampler = Sampler::start(SamplerConfig {
            interval: Duration::from_millis(5),
            capacity: 3,
        });
        for i in 0..20u64 {
            count("ts.test.work", i + 1);
            observe("ts.test.lat_ns", 100 * (i + 1));
            std::thread::sleep(Duration::from_millis(3));
        }
        drop(sampler);
        let (interval_ms, intervals, totals) = ring_snapshot().expect("sampler registered");
        assert_eq!(interval_ms, 5);
        assert!(!intervals.is_empty());
        assert!(intervals.len() <= 3, "ring bounded: {}", intervals.len());
        // Indices keep counting past the ring capacity and end_ms advances.
        for pair in intervals.windows(2) {
            assert_eq!(pair[1].index, pair[0].index + 1);
            assert!(pair[1].end_ms >= pair[0].end_ms);
        }
        assert!(
            totals.iter().any(|(n, v)| n == "ts.test.work" && *v > 0),
            "latest totals captured"
        );
        clear_active();
    }

    #[test]
    fn timeseries_json_is_valid_with_and_without_data() {
        let _g = crate::tests::guard();
        enable();
        reset();
        let doc = timeseries_json();
        crate::json::validate(&doc).expect("empty-ish doc parses");
        let sampler = Sampler::start(SamplerConfig {
            interval: Duration::from_millis(2),
            capacity: 8,
        });
        count("ts.json.counter", 3);
        observe("ts.json.hist_ns", 9);
        std::thread::sleep(Duration::from_millis(8));
        drop(sampler);
        let doc = timeseries_json();
        let v = crate::json::parse(&doc).expect("doc parses");
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_u64()),
            Some(crate::METRICS_SCHEMA_VERSION as u64)
        );
        let intervals = v.get("intervals").and_then(|i| i.items()).unwrap();
        assert!(!intervals.is_empty());
        assert!(doc.contains("\"ts.json.counter\""), "{doc}");
        // The metrics-JSON member is additive and itself valid JSON.
        let member = metrics_json_member().expect("ring non-empty");
        let wrapped = format!("{{\n{member}\n}}");
        crate::json::validate(&wrapped).expect("member parses in object position");
        // Prometheus member carries timestamps.
        let prom = prometheus_member().expect("latest interval renders");
        assert!(prom.contains("pm_ts_counter_rate{counter=\"ts.json.counter\"}"));
        clear_active();
    }

    #[test]
    fn counts_right_after_start_land_in_a_moving_interval() {
        let _g = crate::tests::guard();
        enable();
        reset();
        // A long interval: the only sample is the final one taken on drop,
        // so the count must be a delta against the baseline `start` took.
        let sampler = Sampler::start(SamplerConfig {
            interval: Duration::from_secs(60),
            capacity: 4,
        });
        count("ts.race.counter", 5);
        drop(sampler);
        let shared = active_shared().expect("sampler registered");
        let ring = shared.lock_ring();
        let moved: u64 = ring
            .intervals
            .iter()
            .flat_map(|iv| &iv.counters)
            .filter(|c| c.name == "ts.race.counter")
            .map(|c| c.delta)
            .sum();
        assert_eq!(moved, 5, "{:?}", ring.intervals);
        drop(ring);
        clear_active();
    }

    #[test]
    fn rates_render_without_json_hostile_values() {
        assert_eq!(fmt_rate(f64::NAN), "0");
        assert_eq!(fmt_rate(f64::INFINITY), "0");
        assert_eq!(fmt_rate(12.5), "12.5");
        assert_eq!(fmt_rate(40.0), "40");
    }
}
