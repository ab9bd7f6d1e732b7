//! Evaluation metrics — every quantity plotted in the paper's Figures 4–6.

use crate::network::ControllerId;
use crate::plan::RecoveryPlan;
use crate::programmability::Programmability;
use crate::scenario::FailureScenario;

/// Five-number summary plus mean, for the paper's box plots (Figs. 5(a),
/// 6(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest value.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl BoxStats {
    /// Computes the summary of `values`. Returns `None` for an empty slice.
    pub fn from_values(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let quantile = |q: f64| -> f64 {
            // Linear interpolation between order statistics (R type 7).
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
            }
        };
        Some(BoxStats {
            min: v[0],
            q1: quantile(0.25),
            median: quantile(0.5),
            q3: quantile(0.75),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
        })
    }
}

/// Per-controller capacity accounting after a recovery plan is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerUsage {
    /// The controller.
    pub controller: ControllerId,
    /// Residual capacity before recovery (`A_j^rest`).
    pub available: u32,
    /// Capacity consumed by the plan.
    pub used: u32,
}

impl ControllerUsage {
    /// Fraction of the residual capacity the plan consumed.
    pub fn utilization(&self) -> f64 {
        if self.available == 0 {
            if self.used == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.used as f64 / self.available as f64
        }
    }
}

/// Everything the paper's evaluation plots, computed from a scenario and a
/// recovery plan.
#[derive(Debug, Clone)]
pub struct PlanMetrics {
    /// Per offline flow (aligned with
    /// [`FailureScenario::offline_flows`]): the programmability it is
    /// recovered with (0 = not recovered).
    pub per_flow_programmability: Vec<u64>,
    /// Sum of per-flow programmability — the paper's `obj₂` (Fig. 5(b)).
    pub total_programmability: u64,
    /// Least per-flow programmability — the paper's `obj₁ = r`.
    pub min_programmability: u64,
    /// Per offline flow: `true` if the flow is *recoverable at all* — it
    /// has at least one offline switch with `β = 1` on its path. Flows
    /// outside this mask can never regain programmability, by any
    /// algorithm.
    pub recoverable_mask: Vec<bool>,
    /// Number of offline flows recovered with programmability > 0.
    pub recovered_flows: usize,
    /// Number of offline flows in the scenario.
    pub offline_flows: usize,
    /// Number of offline flows that are recoverable at all.
    pub recoverable_flows: usize,
    /// Number of offline switches remapped to an active controller.
    pub recovered_switches: usize,
    /// Number of offline switches in the scenario.
    pub offline_switches: usize,
    /// Per-active-controller capacity accounting (Fig. 5(e)).
    pub controller_usage: Vec<ControllerUsage>,
    /// Total control-plane communication overhead in flow·ms.
    pub total_overhead_ms: f64,
    /// The ideal-recovery delay bound `G` of Eq. (6).
    pub ideal_delay_g: f64,
}

impl PlanMetrics {
    /// Computes all metrics.
    ///
    /// `middle_layer_ms` is the extra per-control-interaction processing
    /// delay of a middle layer between controllers and switches; 0 for PM,
    /// RetroFlow and Optimal, and the FlowVisor figure (0.48 ms \[10\]) for
    /// PG-style flow-level solutions.
    pub fn compute(
        scenario: &FailureScenario<'_>,
        prog: &Programmability,
        plan: &RecoveryPlan,
        middle_layer_ms: f64,
    ) -> PlanMetrics {
        let net = scenario.network();
        // One pass over the plan's SDN selections into a dense per-flow
        // accumulator (p̄ reads are O(1) on the flat programmability table),
        // instead of re-scanning the selection map once per offline flow.
        // `pbar` is 0 exactly for β = 0 pairs, and selections are unique, so
        // this matches `RecoveryPlan::flow_programmability` per flow.
        let mut gained = vec![0u64; net.flows().len()];
        for (s, l, _c) in plan.sdn_selections() {
            if l.index() < gained.len() {
                gained[l.index()] += prog.pbar(l, s) as u64;
            }
        }
        let per_flow: Vec<u64> = scenario
            .offline_flows()
            .iter()
            .map(|&l| gained[l.index()])
            .collect();
        let recoverable_mask: Vec<bool> = scenario
            .offline_flows()
            .iter()
            .map(|&l| {
                prog.flow_entries(l)
                    .iter()
                    .any(|&(s, _)| scenario.is_offline(s))
            })
            .collect();
        let total: u64 = per_flow.iter().sum();
        let min = per_flow.iter().copied().min().unwrap_or(0);
        let recovered = per_flow.iter().filter(|&&p| p > 0).count();
        let recoverable = recoverable_mask.iter().filter(|&&b| b).count();

        let (used, _) = plan.usage_tables(scenario);
        let controller_usage: Vec<ControllerUsage> = scenario
            .active_controllers()
            .iter()
            .map(|&c| ControllerUsage {
                controller: c,
                available: scenario.residual_capacity(c),
                used: used[c.index()],
            })
            .collect();

        // One control interaction per capacity unit consumed: γ_i of them
        // for a whole-switch SDN switch, one per flow-level selection.
        let mut total_overhead = 0.0;
        for (s, c) in plan.full_sdn_mappings() {
            total_overhead += net.gamma(s) as f64 * (net.ctrl_delay(s, c) + middle_layer_ms);
        }
        for (s, _, c, _, _) in plan.annotated_selections().filter(|&(.., full)| !full) {
            total_overhead += net.ctrl_delay(s, c) + middle_layer_ms;
        }

        PlanMetrics {
            per_flow_programmability: per_flow,
            recoverable_mask,
            total_programmability: total,
            min_programmability: min,
            recovered_flows: recovered,
            recoverable_flows: recoverable,
            offline_flows: scenario.offline_flows().len(),
            recovered_switches: plan.recovered_switch_count(),
            offline_switches: scenario.offline_switches().len(),
            controller_usage,
            total_overhead_ms: total_overhead,
            ideal_delay_g: scenario.ideal_delay_g(),
        }
    }

    /// Fraction of offline flows recovered (Figs. 4(c), 5(c), 6(c)).
    pub fn recovered_flow_fraction(&self) -> f64 {
        if self.offline_flows == 0 {
            1.0
        } else {
            self.recovered_flows as f64 / self.offline_flows as f64
        }
    }

    /// Fraction of offline switches recovered (Figs. 5(d), 6(d)).
    pub fn recovered_switch_fraction(&self) -> f64 {
        if self.offline_switches == 0 {
            1.0
        } else {
            self.recovered_switches as f64 / self.offline_switches as f64
        }
    }

    /// Per-flow communication overhead in ms (Figs. 4(d), 5(f), 6(f)):
    /// total overhead divided by the number of recovered flows.
    pub fn per_flow_overhead_ms(&self) -> f64 {
        if self.recovered_flows == 0 {
            0.0
        } else {
            self.total_overhead_ms / self.recovered_flows as f64
        }
    }

    /// Fraction of *recoverable* offline flows actually recovered. This is
    /// the fair version of panel (c): flows with no `β = 1` offline switch
    /// are impossible for every algorithm and excluded from the base. (In
    /// the paper's setup every offline flow appears to be recoverable, so
    /// its 100 % results correspond to this quantity.)
    pub fn recovered_fraction_of_recoverable(&self) -> f64 {
        if self.recoverable_flows == 0 {
            1.0
        } else {
            self.recovered_flows as f64 / self.recoverable_flows as f64
        }
    }

    /// Box-plot summary of the per-flow programmability (Figs. 4(a), 5(a),
    /// 6(a)) over *recoverable* flows only — unrecovered ones still
    /// contribute zeros (that is RetroFlow's signature in the paper's
    /// Figs. 5(a)/6(a)), but structurally hopeless flows do not. `None`
    /// when there are none.
    pub fn programmability_box_recoverable(&self) -> Option<BoxStats> {
        let values: Vec<f64> = self
            .per_flow_programmability
            .iter()
            .zip(&self.recoverable_mask)
            .filter(|&(_, &m)| m)
            .map(|(&p, _)| p as f64)
            .collect();
        BoxStats::from_values(&values)
    }

    /// Least programmability over recoverable flows (the `r` that the
    /// objective `obj₁` actually optimizes once hopeless flows are set
    /// aside).
    pub fn min_programmability_recoverable(&self) -> u64 {
        self.per_flow_programmability
            .iter()
            .zip(&self.recoverable_mask)
            .filter(|&(_, &m)| m)
            .map(|(&p, _)| p)
            .min()
            .unwrap_or(0)
    }

    /// Total capacity the plan consumed across all active controllers.
    pub fn total_capacity_used(&self) -> u32 {
        self.controller_usage.iter().map(|u| u.used).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SwitchId;
    use crate::plan::PlanBuilder;
    use crate::scenario::SdWanBuilder;

    #[test]
    fn box_stats_known_values() {
        let s = BoxStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn box_stats_interpolates() {
        let s = BoxStats::from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn box_stats_empty_is_none() {
        assert!(BoxStats::from_values(&[]).is_none());
    }

    #[test]
    fn box_stats_single_value() {
        let s = BoxStats::from_values(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn empty_plan_metrics() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let m = PlanMetrics::compute(&sc, &prog, &RecoveryPlan::new(), 0.0);
        assert_eq!(m.total_programmability, 0);
        assert_eq!(m.recovered_flows, 0);
        assert_eq!(m.recovered_flow_fraction(), 0.0);
        assert_eq!(m.per_flow_overhead_ms(), 0.0);
        assert_eq!(m.offline_flows, sc.offline_flows().len());
    }

    #[test]
    fn single_selection_metrics() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        // Recover one flow at one switch.
        let (l, s, p) = sc
            .offline_flows()
            .iter()
            .find_map(|&l| {
                prog.flow_entries(l)
                    .iter()
                    .find(|&&(s, _)| sc.is_offline(s))
                    .map(|&(s, p)| (l, s, p))
            })
            .expect("recoverable flow");
        let c = *sc.active_controllers().first().unwrap();
        let mut plan = PlanBuilder::default();
        plan.map_switch(s, c);
        plan.set_sdn(s, l);
        let plan = plan.build();
        plan.validate(&sc, &prog, false).unwrap();

        let m = PlanMetrics::compute(&sc, &prog, &plan, 0.0);
        assert_eq!(m.recovered_flows, 1);
        assert_eq!(m.total_programmability, p as u64);
        assert_eq!(m.recovered_switches, 1);
        assert_eq!(m.total_capacity_used(), 1);
        let d = net.ctrl_delay(s, c);
        assert!((m.total_overhead_ms - d).abs() < 1e-12);
        assert!((m.per_flow_overhead_ms() - d).abs() < 1e-12);

        // A middle layer adds its delay per interaction.
        let m2 = PlanMetrics::compute(&sc, &prog, &plan, 0.48);
        assert!((m2.total_overhead_ms - (d + 0.48)).abs() < 1e-12);
    }

    #[test]
    fn recoverable_accounting() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let prog = Programmability::compute(&net);
        let m = PlanMetrics::compute(&sc, &prog, &RecoveryPlan::new(), 0.0);
        assert_eq!(m.recoverable_mask.len(), m.per_flow_programmability.len());
        assert!(m.recoverable_flows > 0 && m.recoverable_flows < m.offline_flows);
        assert_eq!(m.recovered_fraction_of_recoverable(), 0.0);
        // The recoverable box exists and is all zeros for the empty plan.
        let b = m.programmability_box_recoverable().unwrap();
        assert_eq!((b.min, b.max), (0.0, 0.0));
        assert_eq!(m.min_programmability_recoverable(), 0);
    }

    #[test]
    fn recoverable_min_ignores_hopeless_flows() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let prog = Programmability::compute(&net);
        // Recover EVERY recoverable flow with one entry.
        let mut plan = PlanBuilder::default();
        let c = *sc
            .active_controllers()
            .iter()
            .max_by_key(|&&c| sc.residual_capacity(c))
            .unwrap();
        let mut used = 0;
        for &l in sc.offline_flows() {
            if let Some(&(s, _)) = prog
                .flow_entries(l)
                .iter()
                .find(|&&(s, _)| sc.is_offline(s))
            {
                if used >= sc.residual_capacity(c) {
                    break;
                }
                plan.map_switch(s, c);
                plan.set_sdn(s, l);
                used += 1;
            }
        }
        let m = PlanMetrics::compute(&sc, &prog, &plan.build(), 0.0);
        // Hopeless flows keep min_programmability at 0 …
        assert_eq!(m.min_programmability, 0);
        // … but the recoverable-only view can exceed it once some flows are
        // recovered.
        assert!(m.recovered_flows > 0);
    }

    #[test]
    fn utilization_math() {
        let u = ControllerUsage {
            controller: ControllerId(0),
            available: 100,
            used: 25,
        };
        assert!((u.utilization() - 0.25).abs() < 1e-12);
        let z = ControllerUsage {
            controller: ControllerId(0),
            available: 0,
            used: 0,
        };
        assert_eq!(z.utilization(), 0.0);
    }

    #[test]
    fn min_programmability_zero_when_any_flow_unrecovered() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let mut plan = PlanBuilder::default();
        // Recover exactly one flow: the minimum across all offline flows
        // stays 0 because other flows are unrecovered.
        let (l, s) = sc
            .offline_flows()
            .iter()
            .find_map(|&l| {
                prog.flow_entries(l)
                    .iter()
                    .find(|&&(s, _)| sc.is_offline(s))
                    .map(|&(s, _)| (l, s))
            })
            .unwrap();
        plan.map_switch(s, *sc.active_controllers().first().unwrap());
        plan.set_sdn(s, l);
        let m = PlanMetrics::compute(&sc, &prog, &plan.build(), 0.0);
        assert_eq!(m.min_programmability, 0);
        assert!(sc.offline_flows().len() > 1);
        let _ = SwitchId(0);
    }
}
