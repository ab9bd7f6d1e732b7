//! In-process span-stack profiler: folded-stack sampling plus offline
//! self-time / critical-path analysis over completed span trees.
//!
//! The sampling half keeps a live per-thread stack of the *active* spans:
//! [`crate::SpanGuard`] pushes its name on creation and pops it on drop,
//! but only while a [`Profiler`] is running — when none is, the span path
//! pays exactly one relaxed atomic load ([`profiling`]), mirroring the
//! recorder's own off-by-default contract. A pacer thread snapshots every
//! thread's stack on a fixed interval and accumulates each non-empty
//! stack as one folded-stack sample:
//!
//! ```text
//! sweep.case;pm.recover;pm.select 42
//! ```
//!
//! i.e. Brendan Gregg's folded format — `;`-joined frames, a space, and a
//! sample count — which `inferno-flamegraph`, `flamegraph.pl` and
//! speedscope all consume directly. The accumulated profile is rendered
//! by [`folded_text`], which the `--profile FILE` flag writes at exit and
//! [`crate::serve`] serves live at `GET /profile.folded`.
//!
//! The analysis half works on *completed* spans instead of samples: span
//! nesting is reconstructed per thread from interval containment, giving
//! exclusive **self-time** per span name ([`self_times`]: inclusive total
//! minus direct children) and the **critical path** of a run
//! ([`critical_path`]: the longest root span, then repeatedly its longest
//! direct child, with per-worker attribution from the recorded thread
//! ids). Both accept spans from the live recorder ([`recorded_spans`]) or
//! re-parsed from a Chrome trace artifact ([`spans_from_trace`]), which
//! is how `pmctl obs critical` analyzes a finished run.
//!
//! Sampling is strictly observational — the pacer only ever *reads* the
//! stacks — so a profiled run produces byte-identical results to an
//! unprofiled one (pinned by `tests-integration/tests/profiler.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Duration;

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Is a [`Profiler`] currently running? One relaxed load — the only cost
/// the span instrumentation path pays while no profiler is attached.
#[inline]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// One thread's live stack of active span names. The owning thread pushes
/// and pops; the pacer thread reads under the same lock, so every sample
/// sees a consistent stack (never a torn mid-push state).
#[derive(Debug, Default)]
struct ThreadStack {
    frames: Mutex<Vec<&'static str>>,
}

impl ThreadStack {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<&'static str>> {
        self.frames
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Every thread that ever pushed a frame, as weak refs so finished
/// threads unregister themselves (the pacer prunes dead entries).
fn registry() -> &'static Mutex<Vec<Weak<ThreadStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<ThreadStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, Vec<Weak<ThreadStack>>> {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static MY_STACK: Arc<ThreadStack> = {
        let stack = Arc::new(ThreadStack::default());
        let mut reg = lock_registry();
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(&stack));
        stack
    };
}

/// Pushes `name` onto the calling thread's live stack. Returns whether
/// the push happened — `false` only during thread teardown, when the
/// thread-local is already destroyed; the caller must then skip the
/// matching pop.
pub(crate) fn push_frame(name: &'static str) -> bool {
    MY_STACK.try_with(|s| s.lock().push(name)).is_ok()
}

/// Pops `name` from the calling thread's live stack. Guards usually drop
/// in LIFO order so the top matches; a guard dropped out of order removes
/// the deepest occurrence of its name instead, keeping the rest of the
/// stack intact.
pub(crate) fn pop_frame(name: &'static str) {
    let _ = MY_STACK.try_with(|s| {
        let mut frames = s.lock();
        if frames.last() == Some(&name) {
            frames.pop();
        } else if let Some(i) = frames.iter().rposition(|&n| n == name) {
            frames.remove(i);
        }
    });
}

/// Configuration for [`Profiler::start`].
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Gap between stack snapshots. The default (1 ms, i.e. 1 kHz) still
    /// catches a handful of stacks on the sub-second paper sweeps while
    /// keeping the pacer's share of any core well under a percent — a
    /// snapshot is a few mutex locks and string joins.
    pub interval: Duration,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            interval: Duration::from_millis(1),
        }
    }
}

/// The accumulated profile shared between the pacer thread and the
/// exporters: folded stack → sample count.
#[derive(Debug)]
struct ProfShared {
    samples: Mutex<BTreeMap<String, u64>>,
}

impl ProfShared {
    fn lock_samples(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, u64>> {
        self.samples
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The registry the exporters read: the most recently started profiler's
/// sample map (it stays registered after the profiler drops, so post-run
/// exports still see the profile).
fn active() -> &'static Mutex<Option<Arc<ProfShared>>> {
    static ACTIVE: OnceLock<Mutex<Option<Arc<ProfShared>>>> = OnceLock::new();
    ACTIVE.get_or_init(|| Mutex::new(None))
}

fn active_shared() -> Option<Arc<ProfShared>> {
    active()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// A running sampling profiler. Dropping it takes one final snapshot,
/// stops the pacer and disarms the span push/pop hooks; the accumulated
/// profile stays readable ([`folded_text`]) until a new profiler starts.
#[derive(Debug)]
pub struct Profiler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Profiler {
    /// Enables the recorder, arms the span-stack hooks and spawns the
    /// pacer thread. The new profiler becomes the one [`folded_text`]
    /// (and `GET /profile.folded`) reads.
    pub fn start(config: ProfilerConfig) -> Profiler {
        crate::enable();
        let interval = config.interval.max(Duration::from_millis(1));
        let shared = Arc::new(ProfShared {
            samples: Mutex::new(BTreeMap::new()),
        });
        *active()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&shared));
        PROFILING.store(true, Ordering::SeqCst);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("pm-obs-profiler".into())
                .spawn(move || profiler_loop(&shared, &stop, interval))
                .expect("profiler thread spawns")
        };
        Profiler {
            stop,
            handle: Some(handle),
        }
    }

    /// Number of distinct folded stacks accumulated so far.
    pub fn len(&self) -> usize {
        active_shared().map_or(0, |s| s.lock_samples().len())
    }

    /// Whether no sample has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cvar.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // Spans opened while profiling still carry their "pushed" flag and
        // pop themselves on drop, so the stacks drain even after disarm.
        PROFILING.store(false, Ordering::SeqCst);
        // The sample map stays registered for post-run exports.
    }
}

fn profiler_loop(shared: &ProfShared, stop: &(Mutex<bool>, Condvar), interval: Duration) {
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
        // One final snapshot on shutdown, so even a run shorter than the
        // interval leaves whatever was on the stacks behind.
        sample_pass(shared);
        if stopped {
            return;
        }
    }
}

/// One sampling pass: snapshot every live thread's non-empty stack into
/// the sample map. Lock order is registry → one thread stack at a time →
/// samples; the instrumented threads only ever take their own stack lock.
fn sample_pass(shared: &ProfShared) {
    let mut stacks: Vec<String> = Vec::new();
    {
        let mut reg = lock_registry();
        reg.retain(|w| w.strong_count() > 0);
        for weak in reg.iter() {
            if let Some(stack) = weak.upgrade() {
                let frames = stack.lock();
                if !frames.is_empty() {
                    stacks.push(frames.join(";"));
                }
            }
        }
    }
    if stacks.is_empty() {
        return;
    }
    let mut samples = shared.lock_samples();
    for s in stacks {
        *samples.entry(s).or_insert(0) += 1;
    }
}

/// Takes one sampling pass right now, against the active profiler's
/// sample map. A no-op when no profiler was ever started. Tests (and
/// anything needing a deterministic sample) call this instead of racing
/// the pacer's clock.
pub fn sample_now() {
    if let Some(shared) = active_shared() {
        sample_pass(&shared);
    }
}

/// Renders the accumulated profile in Brendan Gregg's folded format: one
/// `frame;frame;frame COUNT` line per distinct stack, sorted by stack
/// (deterministic for a given sample map). Empty when no profiler has
/// ever run or nothing was sampled.
pub fn folded_text() -> String {
    let Some(shared) = active_shared() else {
        return String::new();
    };
    let samples = shared.lock_samples();
    let mut out = String::new();
    for (stack, count) in samples.iter() {
        let _ = writeln!(out, "{stack} {count}");
    }
    out
}

/// Unregisters the active sample map (test isolation).
#[cfg(test)]
pub(crate) fn clear_active() {
    *active()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

// ---------------------------------------------------------------------------
// Offline analysis over completed span trees.
// ---------------------------------------------------------------------------

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
    let parents = assign_parents(spans);
    let mut child_ns = vec![0u64; spans.len()];
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            child_ns[*p] = child_ns[*p].saturating_add(spans[i].dur_ns);
        }
    }
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
        agg.self_ns = agg
            .self_ns
            .saturating_add(s.dur_ns.saturating_sub(child_ns[i]));
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
/// `--trace` artifact): complete (`"ph": "X"`) events become [`SpanInfo`]s
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
    fn sampling_captures_nested_stacks_deterministically() {
        let _g = crate::tests::guard();
        enable();
        reset();
        assert!(!profiling());
        // Interval far beyond the test: the only samples are the explicit
        // sample_now calls plus the final one on drop (empty stack there).
        let profiler = Profiler::start(ProfilerConfig {
            interval: Duration::from_secs(3600),
        });
        assert!(profiling());
        assert!(profiler.is_empty());
        {
            let _outer = span("prof.outer");
            sample_now();
            {
                let _inner = span_labeled("prof.inner", "case");
                sample_now();
                sample_now();
            }
            sample_now();
        }
        sample_now(); // empty stack: not a sample
        drop(profiler);
        assert!(!profiling());
        let folded = folded_text();
        assert_eq!(folded, "prof.outer 2\nprof.outer;prof.inner 2\n");
        clear_active();
    }

    #[test]
    fn spans_outside_a_profiler_never_touch_the_stack() {
        let _g = crate::tests::guard();
        enable();
        reset();
        // A span opened before the profiler starts was never pushed; it
        // must not appear in samples, and its drop must not unbalance a
        // stack it is absent from.
        let stale = span("prof.stale");
        let profiler = Profiler::start(ProfilerConfig {
            interval: Duration::from_secs(3600),
        });
        let live = span("prof.live");
        drop(stale);
        sample_now();
        drop(profiler); // final snapshot on drop sees the open span too
        drop(live); // popped even after disarm: the guard remembers
        assert_eq!(folded_text(), "prof.live 2\n");
        assert!(MY_STACK.with(|s| s.lock().is_empty()));
        clear_active();
    }

    #[test]
    fn out_of_order_drops_keep_the_stack_consistent() {
        let _g = crate::tests::guard();
        enable();
        reset();
        let profiler = Profiler::start(ProfilerConfig {
            interval: Duration::from_secs(3600),
        });
        let a = span("prof.a");
        let b = span("prof.b");
        drop(a); // dropped before b: removes the deep a, not the top b
        sample_now();
        drop(b);
        drop(profiler);
        assert_eq!(folded_text(), "prof.b 1\n");
        assert!(MY_STACK.with(|s| s.lock().is_empty()));
        clear_active();
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
