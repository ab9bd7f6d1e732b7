//! The traced runs at toy size: every per-layer metric reported, the
//! traced prefix reproducing the untraced one, and the artifacts written.
//! Kept apart from the untraced tests because the recorder is
//! process-global and cannot be switched off once on.

use pm_benchmark::layers::PER_LAYER;
use pm_benchmark::{trace, Sizes, Workload};
use std::sync::Mutex;

/// Traces share the recorder; run them one at a time.
static RECORDER: Mutex<()> = Mutex::new(());

fn traced(w: Workload, out: Option<&std::path::Path>) -> pm_benchmark::Outcome {
    let _one_at_a_time = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    trace(w, &Sizes::toy(), 42, out)
}

#[test]
fn every_workload_traces_its_prefix_faithfully() {
    for w in Workload::ALL {
        let out = traced(w, None);
        assert!(
            out.correct(),
            "{}: {} of {} failed",
            w.name(),
            out.failed,
            out.attempted
        );
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed);
        let share = out.metric("unaccounted_share").expect("reported");
        assert!((0.0..1.0).contains(&share), "{}: {share}", w.name());
        assert!(out.metric("trace_overhead").expect("reported") > 0.0);
        assert!(
            out.metric("pm.pm.p50_us").expect("reported") > 0.0,
            "{}",
            w.name()
        );
    }
}

#[test]
fn layers_reach_only_their_workloads() {
    let sweep = traced(Workload::Sweep1k, None);
    assert!(sweep.metric("pm.pg.p50_us").unwrap() > 0.0);
    assert!(sweep.metric("sdwan.apply_delta.p50_us").unwrap() > 0.0);
    assert_eq!(sweep.metric("pm.optimal.p50_ms").unwrap(), 0.0);
    assert_eq!(sweep.metric("http.plan.p50_us").unwrap(), 0.0);
    let serve = traced(Workload::Serve1k, None);
    assert!(serve.metric("store.lookup.p50_ns").unwrap() > 0.0);
    assert_eq!(serve.metric("pm.pg.p50_us").unwrap(), 0.0);
    let optimal = traced(Workload::Optimal14, None);
    assert!(optimal.metric("milp.bb_nodes").unwrap() > 0.0);
    assert_eq!(optimal.metric("http.plan.p50_us").unwrap(), 0.0);
}

#[test]
fn serve_trace_writes_chrome_trace_and_layer_table() {
    let dir = std::env::temp_dir().join(format!("pm-benchmark-trace-{}", std::process::id()));
    let out = traced(Workload::Serve1k, Some(&dir));
    assert!(out.correct());
    for key in [
        "store.lookup.p50_ns",
        "http.plan.p50_us",
        "pmd.fallback.p50_us",
    ] {
        assert!(out.metric(key).unwrap() > 0.0, "{key}");
    }
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
    let layers = std::fs::read_to_string(dir.join("layers.json")).expect("layers.json");
    std::fs::remove_dir_all(&dir).expect("clean up");
    let trace = pm_obs::json::parse(&trace).expect("trace.json is JSON");
    assert!(trace.get("traceEvents").is_some());
    let layers = pm_obs::json::parse(&layers).expect("layers.json is JSON");
    assert!(layers
        .get("metrics")
        .and_then(|m| m.get("http.share"))
        .is_some());
    assert!(layers
        .get("spans")
        .and_then(|s| s.items())
        .is_some_and(|s| !s.is_empty()));
}
