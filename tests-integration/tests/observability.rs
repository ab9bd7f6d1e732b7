//! The observability layer's core guarantee: recording never perturbs
//! results.
//!
//! Enabling the [`pm_obs`] recorder is process-global and one-way, so the
//! whole disabled-then-enabled comparison lives in a single test function —
//! the disabled half must run before any `enable()` in this binary.

use pm_bench::figures::{bench_sweep_json, metrics_report};
use pm_bench::{CaseResult, EvalOptions, SweepEngine};
use pm_sdwan::{SdWan, SdWanBuilder};
use pm_topo::{builders, NodeId};

fn small_net() -> SdWan {
    SdWanBuilder::new(builders::grid(3, 4))
        .controller(NodeId(0), 200)
        .controller(NodeId(3), 200)
        .controller(NodeId(8), 200)
        .controller(NodeId(11), 200)
        .all_pairs_flows()
        .build()
        .expect("grid network builds")
}

fn options(jobs: usize) -> EvalOptions {
    EvalOptions {
        jobs,
        skip_optimal: true,
        ..EvalOptions::default()
    }
}

/// Metric tables plus the sweep-JSON skeleton for k = 1..=3 at `jobs`.
fn recorded_outputs(net: &SdWan, jobs: usize) -> String {
    let opts = options(jobs);
    let engine = SweepEngine::new(net, opts.clone());
    let mut out = String::new();
    let sweeps: Vec<(usize, Vec<CaseResult>)> = (1..=3).map(|k| (k, engine.sweep(k))).collect();
    for (k, cases) in &sweeps {
        out.push_str(&metrics_report(cases, *k, "obs", true, &opts));
    }
    // The pure JSON builder: its body is part of the
    // recorded output and must not move when the recorder is on.
    let refs: Vec<(usize, &[CaseResult])> =
        sweeps.iter().map(|(k, c)| (*k, c.as_slice())).collect();
    let json = bench_sweep_json("obs", jobs, &refs);
    // Blank the wall-clock numbers and the worker count itself;
    // scheduling noise is not under test.
    for line in json.lines() {
        if !line.contains("\"mean_ms\"") && !line.trim_start().starts_with("\"jobs\":") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn metrics_enabled_runs_are_byte_identical_to_disabled_runs() {
    let net = small_net();

    // Phase 1: recorder off (nothing in this binary has enabled it yet).
    assert!(!pm_obs::enabled(), "recorder must start disabled");
    let off_serial = recorded_outputs(&net, 1);
    let off_parallel = recorded_outputs(&net, 8);
    assert_eq!(off_serial, off_parallel);

    // Phase 2: recorder on — results must not move by a byte.
    pm_obs::enable();
    let on_serial = recorded_outputs(&net, 1);
    let on_parallel = recorded_outputs(&net, 8);
    assert_eq!(off_serial, on_serial, "jobs=1: recording changed results");
    assert_eq!(
        off_parallel, on_parallel,
        "jobs=8: recording changed results"
    );

    // Phase 3: the run actually recorded something useful.
    let snap = pm_obs::snapshot();
    assert!(
        snap.spans.iter().any(|s| s.name == "pm.recover"),
        "PM spans recorded"
    );
    assert!(
        snap.spans.iter().any(|s| s.name == "sweep.case"),
        "sweep spans recorded"
    );
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert!(counter("sweep.cases").is_some(), "case counter recorded");
    assert!(
        counter("pm.sdn_mode_picks").is_some(),
        "PM mode-pick counter recorded"
    );
    assert!(
        snap.histograms
            .iter()
            .any(|(n, _)| n == "sweep.queue_wait_ns"),
        "queue-wait histogram recorded"
    );
    assert!(
        counter("sweep.scenario.delta_cases").is_some(),
        "incremental sweep path records its delta counters"
    );

    // Phase 3b: the incremental-solver counters are optional metrics — no
    // schema bump — that appear once the exact solver runs with the
    // recorder on.
    assert!(
        counter("milp.simplex.refactorizations").is_none(),
        "no MILP ran yet, so no simplex counters"
    );
    {
        use pm_core::{FmssmInstance, Optimal};
        use pm_sdwan::{ControllerId, Programmability};
        let prog = Programmability::compute(&net);
        let scenario = net.fail(&[ControllerId(0)]).expect("valid case");
        let inst = FmssmInstance::new(&scenario, &prog);
        Optimal::new()
            .time_limit(std::time::Duration::from_secs(5))
            .solve_detailed(&inst)
            .expect("small instance solves");
    }
    let snap = pm_obs::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert!(
        counter("milp.simplex.refactorizations").is_some(),
        "revised simplex reports refactorization work"
    );
    assert!(
        counter("milp.basis.reuse_hits").is_some(),
        "basis reuse across B&B nodes is observable"
    );
    assert_eq!(
        pm_obs::METRICS_SCHEMA_VERSION,
        1,
        "optional counters must not bump the metrics schema"
    );

    // Phase 4: exported metrics JSON is valid and its layout is pinned.
    let metrics = pm_obs::metrics_json();
    pm_obs::json::validate(&metrics).expect("metrics JSON parses");
    assert!(
        metrics.starts_with(&format!(
            "{{\n  \"schema_version\": {},\n  \"counters\": {{",
            pm_obs::METRICS_SCHEMA_VERSION
        )),
        "metrics layout is pinned:\n{}",
        &metrics[..metrics.len().min(200)]
    );
    assert!(metrics.contains("\"histograms\""));
    assert!(metrics.contains("\"spans\""));

    // The trace export is valid Chrome trace_event JSON with thread names.
    let trace = pm_obs::chrome_trace_json();
    pm_obs::json::validate(&trace).expect("trace JSON parses");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\": \"M\""));
    assert!(trace.contains("sweep-worker-0"));
    assert!(trace.contains("\"ph\": \"X\""));
}
