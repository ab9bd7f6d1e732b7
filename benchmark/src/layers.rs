//! Per-layer measurement: one `pm_obs` span around each call the traced
//! prefix makes into a layer's public function, reduced to the
//! `per_layer` metrics of `BENCHMARK.json`.
//!
//! Spans are opened from benchmark code only, named `layer.<layer>.<call>`
//! so they never collide with the spans the program records itself. A
//! layer the workload does not reach reports 0.

use crate::{json_number, Metric, Outcome};
use pm_bench::WanSpec;
use pm_core::{FmssmInstance, Pg, Pm, PmWorkspace, RecoveryAlgorithm, RetroFlow};
use pm_obs::prof::{self, SpanInfo};
use pm_sdwan::{
    nearest_controller_partition, spread_controllers, ControllerId, FailureScenario, NetCache,
    PlanMetrics, RecoveryPlan, SdWan, SdWanBuilder,
};
use pm_topo::builders::{waxman, WaxmanParams};
use pm_topo::rng::DetRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const PREFIX: &str = "layer.";

/// [`pm_bench::build_wan`] step by step, each step in its layer span:
/// `topo.waxman`, `sdwan.placement` (farthest-point sites and
/// nearest-controller domains) and `sdwan.build` (flow sample, routing,
/// capacities). Produces the same network.
pub fn build_wan(spec: &WanSpec) -> SdWan {
    let g = layer("layer.topo.waxman", || {
        waxman(&WaxmanParams {
            nodes: spec.nodes,
            beta: pm_bench::wan::scale_beta(spec.nodes),
            seed: spec.seed,
            ..Default::default()
        })
        .expect("waxman parameters are valid")
    });
    let (sites, domains) = layer("layer.sdwan.placement", || {
        let sites = spread_controllers(&g, spec.controllers).expect("connected by construction");
        let domains = nearest_controller_partition(&g, &sites).expect("sites are valid");
        (sites, domains)
    });
    layer("layer.sdwan.build", || {
        // The flow stream's seed, as `build_wan` derives it.
        let mut rng = DetRng::seed_from_u64(spec.seed ^ 0x5ca1e5eed);
        let flows = pm_bench::wan::sample_flows(&mut rng, spec.nodes, spec.flows);
        let mut b = SdWanBuilder::new(g);
        for &s in &sites {
            b = b.controller(s, 0);
        }
        b.domains(domains)
            .explicit_flows(flows)
            .auto_capacity(spec.headroom)
            .build()
            .expect("generated network is valid")
    })
}

/// A heuristic the case runner runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The RetroFlow baseline.
    RetroFlow,
    /// ProgrammabilityMedic, on a carried workspace.
    Pm,
    /// The PG baseline.
    Pg,
}

/// One heuristic's validated plan for a case.
#[derive(Debug)]
pub struct Solved {
    /// The plan.
    pub plan: RecoveryPlan,
    /// The plan's metrics.
    pub metrics: PlanMetrics,
    /// Total control propagation delay of the plan.
    pub total_delay: f64,
}

/// Re-drives failure cases through the layers in the order a sweep
/// worker runs them: the first case builds its scenario with
/// `SdWan::fail_cached`, later ones patch the previous scenario with
/// `FailureScenario::apply_delta_cached` swaps; then the cached FMSSM
/// instance, each heuristic, `RecoveryPlan::validate` and
/// `PlanMetrics::compute` — one span per call.
#[derive(Debug)]
pub struct CaseRunner<'net, 'c> {
    net: &'net SdWan,
    cache: &'c NetCache,
    scenario: Option<FailureScenario<'net>>,
    ws: PmWorkspace,
    /// Controller swaps applied so far.
    pub swaps: u64,
}

impl<'net, 'c> CaseRunner<'net, 'c> {
    /// A runner with no scenario yet.
    pub fn new(net: &'net SdWan, cache: &'c NetCache) -> Self {
        CaseRunner {
            net,
            cache,
            scenario: None,
            ws: PmWorkspace::default(),
            swaps: 0,
        }
    }

    /// Solves `failed` with `algos`, in that order.
    ///
    /// # Panics
    ///
    /// Panics on an invalid case or an invalid plan, as the engine does.
    pub fn solve(&mut self, failed: &[ControllerId], algos: &[Algo]) -> Vec<Solved> {
        let CaseRunner {
            net,
            cache,
            scenario,
            ws,
            swaps,
        } = self;
        match scenario {
            Some(prev) if prev.failed_controllers().len() == failed.len() => {
                let outs: Vec<ControllerId> = prev
                    .failed_controllers()
                    .iter()
                    .copied()
                    .filter(|c| !failed.contains(c))
                    .collect();
                let ins: Vec<ControllerId> = failed
                    .iter()
                    .copied()
                    .filter(|c| !prev.failed_controllers().contains(c))
                    .collect();
                for (remove, add) in outs.into_iter().zip(ins) {
                    layer("layer.sdwan.apply_delta", || {
                        prev.apply_delta_cached(remove, add, cache)
                    })
                    .expect("symmetric-difference swaps are valid");
                    *swaps += 1;
                }
            }
            _ => {
                *scenario = Some(
                    layer("layer.sdwan.fail_cached", || net.fail_cached(failed, cache))
                        .expect("valid failure case"),
                );
            }
        }
        let sc = scenario.as_ref().expect("scenario just advanced");
        let prog = cache.programmability();
        let inst = layer("layer.pm.instance", || {
            FmssmInstance::with_cache(sc, prog, cache)
        });
        algos
            .iter()
            .map(|&algo| {
                let (plan, flow_level, middle_ms) = match algo {
                    Algo::RetroFlow => {
                        let a = RetroFlow::new();
                        let plan = layer("layer.pm.retroflow", || a.recover(&inst));
                        (plan, a.is_flow_level(), a.middle_layer_ms())
                    }
                    Algo::Pm => {
                        let a = Pm::new();
                        let plan = layer("layer.pm.pm", || a.recover_in(&inst, ws));
                        (plan, a.is_flow_level(), a.middle_layer_ms())
                    }
                    Algo::Pg => {
                        let a = Pg::new();
                        let plan = layer("layer.pm.pg", || a.recover(&inst));
                        (plan, a.is_flow_level(), a.middle_layer_ms())
                    }
                };
                let plan = plan.expect("heuristics always produce a plan");
                layer("layer.sdwan.validate", || {
                    plan.validate(sc, prog, flow_level)
                })
                .expect("plan must be valid");
                let metrics = layer("layer.sdwan.metrics", || {
                    PlanMetrics::compute(sc, prog, &plan, middle_ms)
                });
                let total_delay = plan.total_control_delay(sc);
                Solved {
                    plan,
                    metrics,
                    total_delay,
                }
            })
            .collect()
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("topo.waxman_s", "s"),
    ("sdwan.placement_s", "s"),
    ("sdwan.build_s", "s"),
    ("sdwan.netcache_s", "s"),
    ("sdwan.fail_cached.p50_us", "us"),
    ("sdwan.fail_cached.p99_us", "us"),
    ("sdwan.apply_delta.p50_us", "us"),
    ("sdwan.apply_delta.p99_us", "us"),
    ("sdwan.swaps_per_case", "count"),
    ("sdwan.validate.p50_us", "us"),
    ("sdwan.metrics.p50_us", "us"),
    ("pm.instance.p50_us", "us"),
    ("pm.pm.p50_us", "us"),
    ("pm.pm.p99_us", "us"),
    ("pm.retroflow.p50_us", "us"),
    ("pm.retroflow.p99_us", "us"),
    ("pm.pg.p50_us", "us"),
    ("pm.pg.p99_us", "us"),
    ("pm.optimal.p50_ms", "ms"),
    ("milp.bb_nodes", "count"),
    ("milp.node_us", "us"),
    ("milp.pivots_per_node", "count"),
    ("milp.basis_reuse_share", "share"),
    ("par.busy_share", "share"),
    ("store.build_s", "s"),
    ("store.plan_bytes", "B"),
    ("store.lookup.p50_ns", "ns"),
    ("store.lookup.p99_ns", "ns"),
    ("pmd.fallback.p50_us", "us"),
    ("pmd.fallback.p99_us", "us"),
    ("pmd.generation_s", "s"),
    ("http.healthz.p50_us", "us"),
    ("http.healthz.p99_us", "us"),
    ("http.plan.p50_us", "us"),
    ("http.plan.p99_us", "us"),
    ("http.resp_bytes", "B"),
    ("http.share", "share"),
    ("unaccounted_share", "share"),
    ("trace_overhead", "ratio"),
];

/// Runs `f` inside the span `name` (a `layer.`-prefixed name).
pub fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = pm_obs::span(name);
    f()
}

/// The value of counter `name` in `snap` (0 when never counted).
pub fn counter(snap: &pm_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// Summed busy nanoseconds of the dispatch workers whose counters are
/// named `{prefix}.worker.{w}.busy_ns`.
pub fn worker_busy_ns(snap: &pm_obs::Snapshot, prefix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(n, _)| {
            n.strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix(".worker."))
                .is_some_and(|rest| rest.ends_with(".busy_ns"))
        })
        .map(|&(_, v)| v)
        .sum()
}

/// The traced phase of one workload: turns the recorder on with a clean
/// slate and times the phase from there.
#[derive(Debug)]
pub struct Recording {
    start: Instant,
}

impl Recording {
    /// Enables the recorder and clears anything recorded before.
    pub fn start() -> Recording {
        pm_obs::enable();
        pm_obs::reset();
        Recording {
            start: Instant::now(),
        }
    }

    /// Ends the phase: `extra` holds the metrics the workload computed
    /// itself; spans supply the rest.
    pub fn finish(self, prefix: PrefixTiming, extra: BTreeMap<&'static str, f64>) -> Traced {
        let wall_s = crate::stats::secs(self.start);
        Traced {
            wall_s,
            spans: prof::recorded_spans(),
            prefix,
            extra,
            attempted: 0,
            failed: 0,
        }
    }
}

/// The same prefix timed with the recorder off and on.
#[derive(Debug, Clone, Copy)]
pub struct PrefixTiming {
    /// Untraced wall, seconds.
    pub untraced_s: f64,
    /// Traced wall, seconds.
    pub traced_s: f64,
}

/// A finished traced phase.
#[derive(Debug)]
pub struct Traced {
    wall_s: f64,
    spans: Vec<SpanInfo>,
    prefix: PrefixTiming,
    extra: BTreeMap<&'static str, f64>,
    /// Operations and output checks the trace made.
    pub attempted: u64,
    /// Checks that failed, e.g. traced rows that differ from untraced.
    pub failed: u64,
}

/// Per-call durations of one layer span name, ascending, nanoseconds.
fn durations(spans: &[SpanInfo]) -> BTreeMap<&str, Vec<f64>> {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        if let Some(name) = s.name.strip_prefix(PREFIX) {
            by.entry(name).or_default().push(s.dur_ns as f64);
        }
    }
    for v in by.values_mut() {
        crate::stats::sort(v);
    }
    by
}

/// Summed duration of the outermost layer spans: time some layer call
/// covers, counting nested calls once.
fn top_level_ns(spans: &[SpanInfo]) -> u64 {
    let mut layer_spans: Vec<&SpanInfo> = spans
        .iter()
        .filter(|s| s.name.starts_with(PREFIX))
        .collect();
    layer_spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns)));
    let mut total = 0u64;
    let mut cover: Option<(u64, u64)> = None; // (tid, end) of the open top-level span
    for s in layer_spans {
        let end = s.start_ns.saturating_add(s.dur_ns);
        if matches!(cover, Some((tid, until)) if tid == s.tid && end <= until) {
            continue;
        }
        total += s.dur_ns;
        cover = Some((s.tid, end));
    }
    total
}

impl Traced {
    /// Reduces the recording to the per-layer metrics, in
    /// [`PER_LAYER`] order, and writes `trace.json` / `layers.json` into
    /// `out` when given.
    pub fn finish(self, out: Option<&Path>) -> Outcome {
        let d = durations(&self.spans);
        let pct = |name: &str, q: f64| d.get(name).map_or(0.0, |v| crate::stats::percentile(v, q));
        let total = |name: &str| d.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (metric, layer) in [
            ("topo.waxman_s", "topo.waxman"),
            ("sdwan.placement_s", "sdwan.placement"),
            ("sdwan.build_s", "sdwan.build"),
            ("sdwan.netcache_s", "sdwan.netcache"),
            ("store.build_s", "store.build"),
            ("pmd.generation_s", "pmd.generation"),
        ] {
            values.insert(metric, total(layer) / 1e9);
        }
        for (p50, p99, layer) in [
            (
                "sdwan.fail_cached.p50_us",
                "sdwan.fail_cached.p99_us",
                "sdwan.fail_cached",
            ),
            (
                "sdwan.apply_delta.p50_us",
                "sdwan.apply_delta.p99_us",
                "sdwan.apply_delta",
            ),
            ("pm.pm.p50_us", "pm.pm.p99_us", "pm.pm"),
            ("pm.retroflow.p50_us", "pm.retroflow.p99_us", "pm.retroflow"),
            ("pm.pg.p50_us", "pm.pg.p99_us", "pm.pg"),
            ("pmd.fallback.p50_us", "pmd.fallback.p99_us", "pmd.fallback"),
            ("http.healthz.p50_us", "http.healthz.p99_us", "http.healthz"),
            ("http.plan.p50_us", "http.plan.p99_us", "http.plan"),
        ] {
            values.insert(p50, pct(layer, 50.0) / 1e3);
            values.insert(p99, pct(layer, 99.0) / 1e3);
        }
        for (metric, layer) in [
            ("sdwan.validate.p50_us", "sdwan.validate"),
            ("sdwan.metrics.p50_us", "sdwan.metrics"),
            ("pm.instance.p50_us", "pm.instance"),
        ] {
            values.insert(metric, pct(layer, 50.0) / 1e3);
        }
        values.insert("pm.optimal.p50_ms", pct("pm.optimal", 50.0) / 1e6);
        for (k, v) in &self.extra {
            values.insert(k, *v);
        }
        let plan_p50 = values["http.plan.p50_us"];
        if plan_p50 > 0.0 {
            let lookup_us = values.get("store.lookup.p50_ns").copied().unwrap_or(0.0) / 1e3;
            values.insert("http.share", (plan_p50 - lookup_us) / plan_p50);
        }
        let top_s = top_level_ns(&self.spans) as f64 / 1e9;
        values.insert("unaccounted_share", (self.wall_s - top_s) / self.wall_s);
        if self.prefix.untraced_s > 0.0 {
            values.insert(
                "trace_overhead",
                self.prefix.traced_s / self.prefix.untraced_s,
            );
        }

        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        let mut notes = vec![
            ("traced_wall_s".to_string(), format!("{:.3}", self.wall_s)),
            ("layer_covered_s".to_string(), format!("{top_s:.3}")),
        ];
        if let Some(dir) = out {
            match self.write_artifacts(dir, &metrics) {
                Ok(()) => notes.push(("artifacts".into(), dir.display().to_string())),
                Err(e) => notes.push(("artifact_error".into(), e)),
            }
        }
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes,
        }
    }

    fn write_artifacts(&self, dir: &Path, metrics: &[Metric]) -> Result<(), String> {
        let mut layers = String::from("{\n  \"schema_version\": 1,\n");
        let _ = writeln!(layers, "  \"traced_wall_s\": {},", json_number(self.wall_s));
        layers.push_str("  \"metrics\": {\n");
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i + 1 < metrics.len() { "," } else { "" };
            let _ = writeln!(
                layers,
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{sep}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        layers.push_str("  },\n  \"spans\": [\n");
        let selfs = prof::self_times(&self.spans);
        for (i, s) in selfs.iter().enumerate() {
            let sep = if i + 1 < selfs.len() { "," } else { "" };
            let _ = writeln!(
                layers,
                "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                pm_obs::json::escape(&s.name),
                s.count,
                s.total_ns,
                s.self_ns
            );
        }
        layers.push_str("  ]\n}\n");
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        pm_obs::write_artifact(
            "trace",
            &dir.join("trace.json"),
            &pm_obs::chrome_trace_json(),
        )
        .and_then(|()| pm_obs::write_artifact("layers", &dir.join("layers.json"), &layers))
        .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanInfo {
        SpanInfo {
            name: name.into(),
            label: None,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn nested_layer_spans_count_once_toward_coverage() {
        let spans = [
            span("layer.a", 1, 0, 100),
            span("layer.b", 1, 10, 20),
            span("program.inner", 1, 40, 10),
            span("layer.c", 1, 150, 50),
        ];
        assert_eq!(top_level_ns(&spans), 150);
        let d = durations(&spans);
        assert_eq!(d["a"], vec![100.0]);
        assert!(!d.contains_key("program.inner"));
    }

    #[test]
    fn step_by_step_wan_equals_the_program_constructor() {
        let spec = crate::WanShape {
            nodes: 150,
            controllers: 9,
            flows: 80,
        }
        .spec(7);
        let ours = build_wan(&spec);
        let theirs = pm_bench::build_wan(&spec).net;
        assert_eq!(ours.controllers(), theirs.controllers());
        assert_eq!(ours.flows(), theirs.flows());
        assert_eq!(ours.topology().edge_count(), theirs.topology().edge_count());
        assert!(ours
            .switches()
            .all(|s| ours.domain_of(s) == theirs.domain_of(s)));
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (n, u) in PER_LAYER {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(!u.is_empty() && u.len() <= 16);
        }
    }
}
