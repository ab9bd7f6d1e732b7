//! The two-stage FMSSM formulation — the paper's *first* option in
//! Section IV-D.
//!
//! Stage 1 maximizes the least programmability `r` alone (the essential of
//! SDN, per the paper). Stage 2 maximizes the total programmability subject
//! to `r ≥ r₁*`, the stage-1 result. The paper instead picks the combined
//! weighted objective because one solve is cheaper and a right λ (chosen
//! following its reference \[17\]) yields the same optimum — a claim the test
//! `agrees_with_combined_on_small_instances` below verifies on instances
//! both solvers can finish.

use crate::heuristic::Pm;
use crate::instance::FmssmInstance;
use crate::optimal::{build_model, DelayBound, LinkingStyle, ModelObjective};
use crate::{PmError, RecoveryAlgorithm};
use pm_milp::{MilpSolver, MilpStatus};
use pm_sdwan::RecoveryPlan;
use std::time::Duration;

/// Outcome of a two-stage solve.
#[derive(Debug, Clone)]
pub struct TwoStageOutcome {
    /// The plan from stage 2 (or stage 1 if stage 2 found nothing better).
    pub plan: RecoveryPlan,
    /// Stage-1 optimum: the best achievable least programmability.
    pub stage1_r: f64,
    /// Stage-2 optimum: the best total programmability with `r ≥ stage1_r`.
    pub stage2_total: f64,
    /// Whether both stages proved optimality within their budgets.
    pub proved_optimal: bool,
    /// Total wall-clock time across both stages.
    pub elapsed: Duration,
}

/// The two-stage exact solver.
#[derive(Debug, Clone)]
pub struct TwoStage {
    time_limit_per_stage: Duration,
    linking: LinkingStyle,
    delay_bound: DelayBound,
}

impl Default for TwoStage {
    fn default() -> Self {
        TwoStage {
            time_limit_per_stage: Duration::from_secs(15),
            linking: LinkingStyle::default(),
            delay_bound: DelayBound::Scaled(3.0),
        }
    }
}

impl TwoStage {
    /// Two-stage solver with 15 s per stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the per-stage time limit.
    pub fn time_limit_per_stage(mut self, limit: Duration) -> Self {
        self.time_limit_per_stage = limit;
        self
    }

    /// Selects how Eq. (14)'s delay budget is applied.
    pub fn delay_bound(mut self, bound: DelayBound) -> Self {
        self.delay_bound = bound;
        self
    }

    /// Runs both stages.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::NoSolution`] if stage 1 ends with no incumbent
    /// (cannot happen: the PM warm start always provides one).
    pub fn solve_detailed(&self, inst: &FmssmInstance<'_, '_>) -> Result<TwoStageOutcome, PmError> {
        let budget = self.delay_bound.budget(inst.ideal_delay_g());
        let pm_plan = Pm::new().recover(inst)?;

        // --- Stage 1: maximize r. ---
        let built1 = build_model(inst, self.linking, budget, ModelObjective::MinOnly);
        let mut solver1 = MilpSolver::new().time_limit(self.time_limit_per_stage);
        if let Some(ws) = built1.warm_start_values(inst, &pm_plan, budget) {
            solver1 = solver1.warm_start(ws);
        }
        let r1 = solver1.solve(&built1.model);
        let sol1 = r1.solution.as_ref().ok_or_else(|| PmError::NoSolution {
            reason: format!("stage 1 stopped with status {:?}", r1.status),
        })?;
        let stage1_r = sol1.objective;
        let stage1_plan = built1.extract_plan(inst, &sol1.values);

        // --- Stage 2: maximize total programmability with r ≥ r₁*. ---
        let built2 = build_model(
            inst,
            self.linking,
            budget,
            ModelObjective::TotalWithFloor(stage1_r),
        );
        let mut solver2 = MilpSolver::new().time_limit(self.time_limit_per_stage);
        // Stage 1's solution satisfies the floor by construction.
        if let Some(ws) = built2.warm_start_values(inst, &stage1_plan, budget) {
            solver2 = solver2.warm_start(ws);
        }
        let r2 = solver2.solve(&built2.model);
        let (plan, stage2_total, proved2) = match &r2.solution {
            Some(sol2) => (
                built2.extract_plan(inst, &sol2.values),
                sol2.objective,
                r2.status == MilpStatus::Optimal,
            ),
            None => {
                // Fall back to the stage-1 plan.
                let total = stage1_plan
                    .sdn_selections()
                    .map(|(s, l, _)| inst.programmability().pbar(l, s) as f64)
                    .sum();
                (stage1_plan, total, false)
            }
        };
        Ok(TwoStageOutcome {
            plan,
            stage1_r,
            stage2_total,
            proved_optimal: r1.status == MilpStatus::Optimal && proved2,
            elapsed: r1.elapsed + r2.elapsed,
        })
    }
}

impl RecoveryAlgorithm for TwoStage {
    fn name(&self) -> &'static str {
        "TwoStage"
    }

    fn recover(&self, inst: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError> {
        Ok(self.solve_detailed(inst)?.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Optimal;
    use pm_sdwan::{ControllerId, PlanMetrics, Programmability, SdWanBuilder};
    use pm_topo::{builders, NodeId};

    fn small() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
        let net = SdWanBuilder::new(builders::grid(3, 3))
            .controller(NodeId(0), 200)
            .controller(NodeId(8), 200)
            .build()
            .unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    #[test]
    fn produces_valid_plans() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let out = TwoStage::new().solve_detailed(&inst).unwrap();
        out.plan.validate(&sc, &prog, false).unwrap();
        assert!(out.stage1_r >= 0.0);
        assert!(out.stage2_total >= 0.0);
    }

    #[test]
    fn stage2_keeps_stage1_min() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(1)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let out = TwoStage::new().solve_detailed(&inst).unwrap();
        let m = PlanMetrics::compute(&sc, &prog, &out.plan, 0.0);
        assert!(
            m.min_programmability_recoverable() as f64 >= out.stage1_r - 1e-6,
            "stage 2 lost balance: min {} < r₁* {}",
            m.min_programmability_recoverable(),
            out.stage1_r
        );
    }

    #[test]
    fn agrees_with_combined_on_small_instances() {
        // The paper's claim (following its reference [17]): with the right
        // λ, the combined objective matches the two-stage optimum.
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let two = TwoStage::new()
            .delay_bound(DelayBound::Unbounded)
            .time_limit_per_stage(Duration::from_secs(20))
            .solve_detailed(&inst)
            .unwrap();
        let combined = Optimal::new()
            .delay_bound(DelayBound::Unbounded)
            .time_limit(Duration::from_secs(20))
            .solve_detailed(&inst)
            .unwrap();
        if !(two.proved_optimal && combined.proved_optimal()) {
            return; // can't compare unproven results
        }
        let m_two = PlanMetrics::compute(&sc, &prog, &two.plan, 0.0);
        let m_comb = PlanMetrics::compute(&sc, &prog, &combined.plan, 0.0);
        assert_eq!(
            m_two.min_programmability_recoverable(),
            m_comb.min_programmability_recoverable(),
            "stage-1 r must agree"
        );
        assert_eq!(
            m_two.total_programmability, m_comb.total_programmability,
            "stage-2 total must agree"
        );
    }

    #[test]
    fn never_below_pm_on_balance() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let pm = Pm::new().recover(&inst).unwrap();
        let m_pm = PlanMetrics::compute(&sc, &prog, &pm, 0.0);
        let out = TwoStage::new()
            .delay_bound(DelayBound::Unbounded)
            .solve_detailed(&inst)
            .unwrap();
        assert!(out.stage1_r as u64 >= m_pm.min_programmability_recoverable());
    }
}
