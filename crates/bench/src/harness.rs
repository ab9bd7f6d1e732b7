//! Runs the four algorithms on failure cases and collects metrics.

use pm_core::{FmssmInstance, Optimal, Pg, Pm, PmError, PmWorkspace, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{ControllerId, PlanMetrics, RecoveryPlan, SdWan};
use std::time::{Duration, Instant};

/// Evaluation options shared by the sweeps and figures, parsed from the
/// command line by [`EvalOptions::take`].
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Wall-clock budget per Optimal solve (`--opt-secs N`, default 20).
    pub optimal_time_limit: Duration,
    /// Skip the Optimal baseline entirely (`--skip-optimal`) — useful for
    /// quick looks; PM/PG/RetroFlow run in milliseconds.
    pub skip_optimal: bool,
    /// Directory to write per-figure CSV files into (`--csv DIR`).
    pub csv_dir: Option<std::path::PathBuf>,
    /// Worker threads for the failure sweep (`--jobs N`, default: all
    /// cores). Metric output is identical for every value; per-case
    /// wall-clock measurements contend for cores at higher counts.
    pub jobs: usize,
    /// Run only shard `i` of `m` of each sweep's scenario sequence
    /// (`--shard i/m`, 1-based). Shards partition the rank space
    /// contiguously, so the m shard outputs concatenated in shard order
    /// are byte-identical to the unsharded run.
    pub shard: Option<(usize, usize)>,
    /// Cap each sweep at this many scenarios (`--max-scenarios N`). When
    /// the space is larger, ranks are drawn without replacement from a
    /// [`pm_topo::rng::DetRng`] seeded with [`EvalOptions::seed`]; when it
    /// already fits the budget, the sweep stays exhaustive.
    pub max_scenarios: Option<u64>,
    /// Seed for scenario subsampling (`--seed N`, default 42). Unused
    /// unless `--max-scenarios` actually forces a sample.
    pub seed: u64,
    /// Scenarios a worker claims and materializes per dispatch round
    /// (`--batch N`, default 32). Live scenario storage during a
    /// streaming sweep is bounded by `jobs × batch` entries.
    pub batch: usize,
    /// Has no effect (default `false`): the engine keeps no topology
    /// state to warm. Kept only because the benchmark harness still sets
    /// it; it goes with the next change to the benchmark.
    pub eager_warm: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            optimal_time_limit: Duration::from_secs(20),
            skip_optimal: false,
            csv_dir: None,
            jobs: crate::par::default_jobs(),
            shard: None,
            max_scenarios: None,
            seed: 42,
            batch: 32,
            eager_warm: false,
        }
    }
}

/// One algorithm's outcome on one failure case.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// Algorithm display name.
    pub name: &'static str,
    /// All evaluation metrics.
    pub metrics: PlanMetrics,
    /// Wall-clock time of the recovery computation.
    pub elapsed: Duration,
    /// `Some(true)` when this is the exact solver and it proved optimality
    /// within its budget; `Some(false)` when it returned a best-effort
    /// incumbent; `None` for heuristics.
    pub proved_optimal: Option<bool>,
    /// Total control propagation delay of the plan (left side of Eq. (5)).
    pub total_delay: f64,
}

/// All algorithm runs for one failure case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The failed controllers.
    pub failed: Vec<ControllerId>,
    /// Human-readable label using the controllers' node ids, e.g.
    /// "(13,20)" — the paper labels cases this way.
    pub label: String,
    /// Per-algorithm outcomes, in a fixed order: RetroFlow, PM, PG
    /// [, Optimal].
    pub runs: Vec<AlgoRun>,
}

impl CaseResult {
    /// The run for `name`, if present.
    pub fn run(&self, name: &str) -> Option<&AlgoRun> {
        self.runs.iter().find(|r| r.name == name)
    }
}

/// Labels a failure case by the node ids of the failed controllers, the
/// way the paper writes "(13, 20)".
pub fn case_label(net: &SdWan, failed: &[ControllerId]) -> String {
    let nodes: Vec<String> = failed
        .iter()
        .map(|&c| net.controllers()[c.index()].node.index().to_string())
        .collect();
    format!("({})", nodes.join(","))
}

/// Runs RetroFlow, PM, PG and (optionally) Optimal on an already-built
/// instance, timing and validating each — the body of every
/// [`crate::SweepEngine`] case. PM runs in the worker's carried `ws`;
/// plans are byte-identical whether it is fresh or carried over, since
/// only buffers survive, never decisions.
pub(crate) fn run_algorithms(
    inst: &FmssmInstance<'_, '_>,
    opts: &EvalOptions,
    ws: &mut PmWorkspace,
) -> Vec<AlgoRun> {
    // One measured, checked heuristic run. `recover` is a closure rather
    // than the trait method so PM can run inside the shared workspace; the
    // name/span/metrics handling stays common to all three.
    fn heuristic_run(
        algo: &dyn RecoveryAlgorithm,
        inst: &FmssmInstance<'_, '_>,
        recover: impl FnOnce() -> Result<RecoveryPlan, PmError>,
    ) -> AlgoRun {
        let algo_span = pm_obs::span_labeled("bench.algo", algo.name());
        let start = Instant::now();
        let plan = recover().expect("heuristics always produce a plan");
        let elapsed = start.elapsed();
        drop(algo_span);
        let (metrics, total_delay) = inst
            .evaluate(&plan, algo.is_flow_level(), algo.middle_layer_ms())
            .expect("plan must be valid");
        AlgoRun {
            name: algo.name(),
            metrics,
            elapsed,
            proved_optimal: None,
            total_delay,
        }
    }

    let mut runs = Vec::new();
    let retroflow = RetroFlow::new();
    runs.push(heuristic_run(&retroflow, inst, || retroflow.recover(inst)));
    let pm = Pm::new();
    runs.push(heuristic_run(&pm, inst, || pm.recover_in(inst, ws)));
    let pg = Pg::new();
    runs.push(heuristic_run(&pg, inst, || pg.recover(inst)));

    if !opts.skip_optimal {
        let _algo_span = pm_obs::span_labeled("bench.algo", "Optimal");
        let solver = Optimal::new().time_limit(opts.optimal_time_limit);
        let out = solver
            .solve_detailed(inst)
            .expect("warm start guarantees an incumbent");
        let (metrics, total_delay) = inst
            .evaluate(&out.plan, false, 0.0)
            .expect("optimal plan must be valid");
        runs.push(AlgoRun {
            name: "Optimal",
            metrics,
            elapsed: out.elapsed,
            proved_optimal: Some(out.proved_optimal()),
            total_delay,
        });
    }

    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepEngine;
    use pm_sdwan::SdWanBuilder;

    #[test]
    fn runs_all_algorithms_on_a_case() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            optimal_time_limit: Duration::from_secs(2),
            ..Default::default()
        };
        let case = SweepEngine::new(&net, opts).run_case(&[ControllerId(4)]);
        assert_eq!(case.runs.len(), 4);
        assert!(case.run("PM").is_some());
        assert!(case.run("Optimal").is_some());
        assert_eq!(case.label, "(20)");
    }

    #[test]
    fn skip_optimal_runs_three() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            ..Default::default()
        };
        let case = SweepEngine::new(&net, opts).run_case(&[ControllerId(0)]);
        assert_eq!(case.runs.len(), 3);
        assert!(case.run("Optimal").is_none());
    }

    #[test]
    fn label_uses_node_ids() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        assert_eq!(
            case_label(&net, &[ControllerId(3), ControllerId(4)]),
            "(13,20)"
        );
    }
}
