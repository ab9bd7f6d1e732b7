//! Flight recorder: the most recent completed spans of each thread and
//! the last counter events, dumped to a named artifact when the process
//! panics ([`arm_panic_hook`], the module's one entry point).
//!
//! The full Chrome trace answers "what happened"; the flight dump answers
//! "what happened *just before the crash*" in a bounded artifact: the
//! last K spans per thread and the last N counter deltas process-wide.
//! The spans are read at dump time from the recorder's own span store,
//! which arming turns on, so an armed run costs what the recorder costs
//! and its memory grows with the spans recorded. The counter events are
//! the one thing this module keeps itself (the recorder holds only
//! counter totals), in a ring of fixed size. Unarmed, the counter paths
//! pay one relaxed atomic load.
//!
//! The dump is a deterministic plain-text artifact (stable ordering, no
//! wall-clock except the recorder-epoch offsets already in the events):
//!
//! ```text
//! pm flight recorder dump (schema 1)
//! spans_per_thread=64 counter_events=256
//! == thread 3 (sweep-worker-2): 2 spans ==
//! span sweep.case t=1203400ns dur=88000ns label=case (13,20)
//! span sweep.case t=1291400ns dur=91000ns
//! == counter events: 1 ==
//! count t=1200000ns tid=3 sweep.cases +1 = 17
//! ```

use crate::SpanRecord;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static ARMED: AtomicBool = AtomicBool::new(false);

/// Sizing for [`arm`].
#[derive(Debug, Clone)]
pub(crate) struct FlightConfig {
    /// Most recent completed spans dumped per recording thread.
    pub(crate) spans_per_thread: usize,
    /// Counter events retained process-wide.
    pub(crate) counter_events: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            spans_per_thread: 64,
            counter_events: 256,
        }
    }
}

/// One retained counter movement.
#[derive(Debug, Clone)]
struct CountEvent {
    t_ns: u64,
    tid: u64,
    name: String,
    delta: u64,
    total: u64,
}

#[derive(Debug, Default)]
struct FlightState {
    config: Option<FlightConfig>,
    counts: VecDeque<CountEvent>,
}

fn state() -> &'static Mutex<FlightState> {
    static STATE: OnceLock<Mutex<FlightState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(FlightState::default()))
}

fn lock() -> std::sync::MutexGuard<'static, FlightState> {
    state()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Is the flight recorder armed? One relaxed load — the gate the counter
/// paths take first.
#[inline]
pub(crate) fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the flight recorder (and [`crate::enable`]s the recorder, whose
/// spans the dump reads). Re-arming replaces the configuration and
/// clears the counter ring.
pub(crate) fn arm(config: FlightConfig) {
    crate::enable();
    {
        let mut st = lock();
        st.counts.clear();
        st.config = Some(FlightConfig {
            spans_per_thread: config.spans_per_thread.max(1),
            counter_events: config.counter_events.max(1),
        });
    }
    ARMED.store(true, Ordering::SeqCst);
}

/// Called from [`crate::count`] when armed.
pub(crate) fn record_count(t_ns: u64, tid: u64, name: &str, delta: u64, total: u64) {
    let mut st = lock();
    let cap = match &st.config {
        Some(c) => c.counter_events,
        None => return,
    };
    st.counts.push_back(CountEvent {
        t_ns,
        tid,
        name: name.to_string(),
        delta,
        total,
    });
    while st.counts.len() > cap {
        st.counts.pop_front();
    }
}

/// Renders the dump artifact: the recorder's last spans per thread and
/// the counter ring. Valid (and mostly empty) even when never armed.
pub(crate) fn dump() -> String {
    let st = lock();
    let mut out = String::new();
    out.push_str("pm flight recorder dump (schema 1)\n");
    match &st.config {
        Some(c) => {
            let _ = writeln!(
                out,
                "spans_per_thread={} counter_events={}",
                c.spans_per_thread, c.counter_events
            );
            push_recent_spans(&mut out, c.spans_per_thread);
        }
        None => out.push_str("unarmed\n"),
    }
    let _ = writeln!(out, "== counter events: {} ==", st.counts.len());
    for c in &st.counts {
        let _ = writeln!(
            out,
            "count t={}ns tid={} {} +{} = {}",
            c.t_ns, c.tid, c.name, c.delta, c.total
        );
    }
    out
}

/// One section per thread, in thread-id order, holding the last
/// `per_thread` spans the recorder closed on that thread, oldest first.
fn push_recent_spans(out: &mut String, per_thread: usize) {
    let inner = crate::recorder().lock();
    let mut newest_first: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in inner.spans.iter().rev() {
        let recent = newest_first.entry(s.tid).or_default();
        if recent.len() < per_thread {
            recent.push(s);
        }
    }
    for (tid, recent) in &newest_first {
        let who = inner
            .thread_labels
            .get(tid)
            .map(|l| format!("thread {tid} ({l})"))
            .unwrap_or_else(|| format!("thread {tid}"));
        let _ = writeln!(out, "== {who}: {} spans ==", recent.len());
        for s in recent.iter().rev() {
            let _ = write!(out, "span {} t={}ns dur={}ns", s.name, s.start_ns, s.dur_ns);
            match &s.label {
                Some(l) => {
                    let _ = writeln!(out, " label={}", l.replace('\n', "\\n"));
                }
                None => out.push('\n'),
            }
        }
    }
}

/// Writes [`dump`] to `path` through the shared artifact helper.
///
/// # Errors
///
/// Returns the formatted [`crate::artifact_error`] message.
pub(crate) fn write_dump(path: &Path) -> Result<(), String> {
    crate::write_artifact("flight dump", path, &dump())
}

/// Arms the recorder (default config) and installs a panic hook that
/// writes the flight dump to `path` before the previous hook runs — the
/// post-mortem path for crashes at scale. Installing twice chains hooks
/// harmlessly (each write is a full overwrite of the same artifact).
pub fn arm_panic_hook(path: impl Into<std::path::PathBuf>) {
    arm(FlightConfig::default());
    let path = path.into();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Err(e) = write_dump(&path) {
            eprintln!("{e}");
        } else {
            eprintln!("flight recorder dump written to {}", path.display());
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, enable, observe, reset, span_labeled};

    #[test]
    fn rings_are_bounded_and_dump_is_stable() {
        let _g = crate::tests::guard();
        enable();
        reset();
        arm(FlightConfig {
            spans_per_thread: 3,
            counter_events: 4,
        });
        for i in 0..10u64 {
            let _s = span_labeled("flight.case", format!("case {i}"));
            count("flight.work", 1);
        }
        observe("flight.lat_ns", 99);
        let text = dump();
        assert!(text.starts_with("pm flight recorder dump (schema 1)\n"));
        assert!(text.contains("spans_per_thread=3 counter_events=4"));
        // Only the last 3 spans of this thread survive...
        assert!(!text.contains("label=case 6"), "{text}");
        assert!(text.contains("label=case 7"), "{text}");
        assert!(text.contains("label=case 9"), "{text}");
        // ...and only the last 4 counter events (the observe is a
        // histogram, not a counter event; `flight.work` total reached 10).
        assert!(text.contains("== counter events: 4 =="), "{text}");
        assert!(text.contains("flight.work +1 = 10"), "{text}");
        disarm_for_tests();
    }

    #[test]
    fn default_rings_wrap_to_exactly_the_last_events_in_order() {
        let _g = crate::tests::guard();
        enable();
        reset();
        arm(FlightConfig::default()); // 64 spans/thread, 256 counter events
        for i in 0..300u64 {
            let _s = span_labeled("flight.wrap", format!("case {i}"));
            count("flight.wrap_work", 1);
        }
        let text = dump();
        // Exactly the last 64 spans of this thread survive, in push order:
        // cases 236..=299.
        let span_labels: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("span flight.wrap "))
            .map(|l| {
                l.rsplit_once("label=case ")
                    .and_then(|(_, n)| n.parse().ok())
                    .unwrap_or_else(|| panic!("unparsable span line: {l}"))
            })
            .collect();
        assert_eq!(span_labels, (236..300).collect::<Vec<u64>>(), "{text}");
        // Exactly the last 256 counter deltas survive, in order: the
        // running totals 45..=300.
        assert!(text.contains("== counter events: 256 =="), "{text}");
        let totals: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("count ") && l.contains(" flight.wrap_work "))
            .map(|l| {
                l.rsplit_once("= ")
                    .and_then(|(_, n)| n.parse().ok())
                    .unwrap_or_else(|| panic!("unparsable count line: {l}"))
            })
            .collect();
        assert_eq!(totals, (45..=300).collect::<Vec<u64>>(), "{text}");
        disarm_for_tests();
    }

    #[test]
    fn unarmed_recorder_stays_out_of_the_way() {
        let _g = crate::tests::guard();
        enable();
        reset();
        disarm_for_tests();
        count("flight.unarmed", 5);
        let text = dump();
        assert!(text.contains("unarmed"), "{text}");
        assert!(!text.contains("flight.unarmed"), "{text}");
    }

    #[test]
    fn write_dump_produces_the_artifact() {
        let _g = crate::tests::guard();
        enable();
        reset();
        arm(FlightConfig::default());
        count("flight.artifact", 2);
        let dir = std::env::temp_dir().join("pm_obs_flight_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("flight.txt");
        write_dump(&path).expect("dump writes");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        assert!(text.contains("flight.artifact +2 = 2"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
        disarm_for_tests();
    }

    /// Test isolation: other obs tests must not pay the recording cost.
    fn disarm_for_tests() {
        ARMED.store(false, Ordering::SeqCst);
        let mut st = lock();
        st.config = None;
        st.counts.clear();
    }
}
