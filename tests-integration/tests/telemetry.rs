//! A sweep's metric tables do not depend on the worker count, and the
//! recorder's Prometheus export covers a real sweep.
//!
//! The rendered tables of the [`SweepEngine`]'s one streaming case path
//! are byte-identical at `--jobs 1` and `--jobs 8`; with the recorder on,
//! the exposition carries the sweep's case counter, the cases it planned,
//! the queue-wait histogram and the labelled `sweep.case` spans.

use pm_bench::figures::metrics_report;
use pm_bench::{EvalOptions, SweepEngine};
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

/// Rendered metric tables for k = 1..=3 at `jobs`.
fn recorded_outputs(net: &SdWan, jobs: usize) -> String {
    let opts = EvalOptions {
        jobs,
        skip_optimal: true,
        ..EvalOptions::default()
    };
    let engine = SweepEngine::new(net, opts.clone());
    let mut out = String::new();
    for k in 1..=3 {
        out.push_str(&metrics_report(
            &engine.sweep(k),
            k,
            "telemetry",
            true,
            &opts,
        ));
    }
    out
}

#[test]
fn sweep_reports_match_across_jobs_and_export_to_prometheus() {
    let net = small_net();

    // 3×4 grid, 4 controllers: C(4,1)+C(4,2)+C(4,3) = 14 failure cases.
    let serial = recorded_outputs(&net, 1);
    let parallel = recorded_outputs(&net, 8);
    assert_eq!(serial, parallel);

    // Prometheus coverage of a real sweep, in the same test because the
    // recorder (like the counters it feeds) is process-global: enable it
    // only after the comparison above is done.
    pm_obs::enable();
    pm_obs::reset();
    recorded_outputs(&net, 2);
    let prom = pm_obs::prometheus_text();
    assert!(
        prom.contains("# TYPE pm_sweep_cases_total counter"),
        "{prom}"
    );
    assert!(prom.contains("pm_sweep_cases_total 14"), "{prom}");
    assert!(
        prom.contains("pm_sweep_scenario_planned_total 14"),
        "{prom}"
    );
    assert!(prom.contains("# TYPE pm_sweep_queue_wait_ns histogram"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains("pm_span_count{span=\"sweep.case\"} 14"));
}
