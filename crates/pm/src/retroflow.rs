//! RetroFlow — the switch-level hybrid baseline (reference \[6\] of the
//! paper).
//!
//! RetroFlow recovers offline switches *whole*: a recovered switch routes
//! every flow with OpenFlow and therefore costs its full flow count `γ_i`
//! at the adopting controller; switches that fit no controller stay in
//! legacy mode and their exclusive flows remain offline. The paper's
//! Section VI analyses exactly this coarseness: under the (13, 20) failure
//! switch 13's cost (213 flows there, 254 here) exceeds every controller's
//! spare capacity, so RetroFlow cannot recover it at all.
//!
//! The selection order is greedy by descending `γ` (recover the most
//! impactful switches first), and each switch goes to the nearest active
//! controller that can absorb it — the same delay-aware spirit as \[6\].

use crate::instance::FmssmInstance;
use crate::{PmError, RecoveryAlgorithm};
use pm_sdwan::RecoveryPlan;

/// The RetroFlow baseline algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetroFlow;

impl RetroFlow {
    /// Creates the baseline.
    pub fn new() -> Self {
        RetroFlow
    }
}

impl RecoveryAlgorithm for RetroFlow {
    fn name(&self) -> &'static str {
        "RetroFlow"
    }

    fn recover(&self, inst: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError> {
        let _span = pm_obs::span("retroflow.recover");
        let n = inst.switches().len();
        let mut a: Vec<i64> = inst.residuals().iter().map(|&r| r as i64).collect();

        // Most impactful switches first; ties by lower id for determinism.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&ip| (std::cmp::Reverse(inst.gamma(ip)), ip));

        let mut recovered = 0u64;
        let mut legacy = 0u64;
        let mut flows_touched = 0u64;
        // The controller position each recovered switch is adopted by.
        let mut adopted: Vec<Option<usize>> = vec![None; n];
        for ip in order {
            let cost = inst.gamma(ip) as i64;
            // Nearest active controller that can absorb the whole switch.
            let Some(j) = inst.controllers_by_delay(ip).find(|&j| a[j] >= cost) else {
                legacy += 1;
                continue; // stays in legacy mode, not recovered
            };
            a[j] -= cost;
            recovered += 1;
            adopted[ip] = Some(j);
            flows_touched += inst.switch_entries(ip).len() as u64;
        }

        // Emit in switch order, the plan's own order, so `from_parts` keeps
        // the lists as they are. Every β = 1 flow at a recovered switch
        // becomes programmable there.
        let mut mappings = Vec::with_capacity(recovered as usize);
        let mut full_sdn = Vec::with_capacity(recovered as usize);
        let mut sdn = Vec::with_capacity(flows_touched as usize);
        for (ip, j) in adopted.into_iter().enumerate() {
            let Some(j) = j else { continue };
            let (s, c) = (inst.switches()[ip], inst.controllers()[j]);
            mappings.push((s, c));
            full_sdn.push(s);
            sdn.extend(
                inst.switch_entries(ip)
                    .iter()
                    .map(|&(lp, _)| (s, inst.flows()[lp], c)),
            );
        }
        if pm_obs::enabled() {
            pm_obs::count("retroflow.switches_recovered", recovered);
            pm_obs::count("retroflow.switches_legacy", legacy);
            pm_obs::count("retroflow.flows_touched", flows_touched);
            pm_obs::count(
                "retroflow.capacity_residual_left",
                a.iter().map(|&v| v.max(0) as u64).sum(),
            );
        }
        Ok(RecoveryPlan::from_parts(mappings, full_sdn, sdn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::{ControllerId, PlanMetrics, Programmability, SdWanBuilder, SwitchId};

    fn setup() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    #[test]
    fn valid_plans_for_all_single_failures() {
        let (net, prog) = setup();
        for c in 0..6 {
            let sc = net.fail(&[ControllerId(c)]).unwrap();
            let inst = FmssmInstance::new(&sc, &prog);
            let plan = RetroFlow::new().recover(&inst).unwrap();
            plan.validate(&sc, &prog, false).unwrap();
        }
    }

    #[test]
    fn cannot_recover_hub_under_headline_failure() {
        // (C13, C20): γ(s13) exceeds every residual capacity, so the
        // whole-switch remap fails — the paper's key observation.
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = RetroFlow::new().recover(&inst).unwrap();
        assert_eq!(plan.controller_of(SwitchId(13)), None);
        let metrics = PlanMetrics::compute(&sc, &prog, &plan, 0.0);
        assert!(metrics.recovered_switch_fraction() < 1.0);
        // Some flows stay at zero programmability (Fig. 5(a): RetroFlow's
        // least path programmability is 0).
        assert_eq!(metrics.min_programmability, 0);
        assert!(metrics.recovered_flow_fraction() < 1.0);
    }

    #[test]
    fn recovered_switch_serves_all_its_beta_flows() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(2)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = RetroFlow::new().recover(&inst).unwrap();
        for (ip, &s) in inst.switches().iter().enumerate() {
            if plan.controller_of(s).is_some() {
                assert!(plan.is_full_sdn(s));
                for &(lp, _) in inst.switch_entries(ip) {
                    assert!(plan.is_sdn(s, inst.flows()[lp]));
                }
            }
        }
    }

    #[test]
    fn capacity_accounting_uses_gamma() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(2)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = RetroFlow::new().recover(&inst).unwrap();
        let usage = plan.controller_usage(&sc);
        let expect: u32 = plan.mappings().map(|(s, _)| net.gamma(s)).sum();
        let got: u32 = usage.values().sum();
        assert_eq!(got, expect);
    }

    #[test]
    fn deterministic() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(0), ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        assert_eq!(
            RetroFlow::new().recover(&inst).unwrap(),
            RetroFlow::new().recover(&inst).unwrap()
        );
    }
}
