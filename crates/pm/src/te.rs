//! Traffic engineering on top of recovery: iterative hotspot relief.
//!
//! This is the control loop the paper's introduction describes SD-WANs
//! running ("flexible flow control enabled by SDN can significantly improve
//! utilization"): find the most-utilized link, steer one of its flows onto
//! a loop-free alternate with a single `FlowMod` ([`crate::Rerouter`]),
//! repeat. How far the loop can drive utilization down depends directly on
//! how much programmability the recovery algorithm restored — which is the
//! whole point of recovering it.

use crate::reroute::{RerouteAction, Rerouter};
use crate::PmError;
use pm_sdwan::{
    FailureScenario, FlowId, LinkLoads, Programmability, RecoveryPlan, SwitchId, TrafficMatrix,
};
use std::collections::HashMap;

/// Outcome of a hotspot-relief run.
#[derive(Debug, Clone)]
pub struct ReliefReport {
    /// Max link utilization before any move.
    pub initial_utilization: f64,
    /// Max link utilization after the accepted moves.
    pub final_utilization: f64,
    /// The accepted reroutes, in order.
    pub moves: Vec<RerouteAction>,
    /// The path overrides in force after the run (feed to
    /// [`LinkLoads::compute`]).
    pub overrides: HashMap<FlowId, Vec<SwitchId>>,
}

impl ReliefReport {
    /// Relative utilization reduction, in `[0, 1]`.
    pub fn relief(&self) -> f64 {
        if self.initial_utilization <= 0.0 {
            0.0
        } else {
            1.0 - self.final_utilization / self.initial_utilization
        }
    }
}

/// Iterative hotspot relief under a recovery plan.
///
/// # Example
///
/// ```
/// use pm_core::{relieve_hotspots, FmssmInstance, Pm, RecoveryAlgorithm};
/// use pm_sdwan::{ControllerId, Programmability, SdWanBuilder, TrafficMatrix};
///
/// let net = SdWanBuilder::att_paper_setup().build()?;
/// let prog = Programmability::compute(&net);
/// let scenario = net.fail(&[ControllerId(3), ControllerId(4)])?;
/// let plan = Pm::new().recover(&FmssmInstance::new(&scenario, &prog))?;
/// let tm = TrafficMatrix::gravity(&net, 10_000.0);
/// let report = relieve_hotspots(&scenario, &prog, &plan, &tm, 1_000.0, 8)?;
/// assert!(report.final_utilization <= report.initial_utilization);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Each iteration finds the most-loaded link and tries to move one crossing
/// flow (largest demand first) onto a reroute the plan's programmability
/// allows; a move is accepted only if it lowers the maximum utilization.
/// Each flow moves at most once (reroutes deviate from the flow's original
/// path). Stops after `max_moves` accepted moves or when no move helps.
///
/// # Errors
///
/// Returns [`PmError::Degenerate`] if the network carries no traffic.
pub fn relieve_hotspots(
    scenario: &FailureScenario<'_>,
    prog: &Programmability,
    plan: &RecoveryPlan,
    tm: &TrafficMatrix,
    link_capacity: f64,
    max_moves: usize,
) -> Result<ReliefReport, PmError> {
    let net = scenario.network();
    let mut rerouter = Rerouter::new(scenario, prog, plan);
    let mut overrides: HashMap<FlowId, Vec<SwitchId>> = HashMap::new();

    let initial = LinkLoads::compute(net, tm, &overrides);
    let Some((_, initial_load)) = initial.max_link() else {
        return Err(PmError::Degenerate("no traffic to engineer".into()));
    };
    let initial_utilization = initial_load / link_capacity;
    let mut current_utilization = initial_utilization;
    let mut moves = Vec::new();

    'outer: while moves.len() < max_moves {
        let loads = LinkLoads::compute(net, tm, &overrides);
        let Some((hot, _)) = loads.max_link() else {
            break;
        };

        // Crossing flows, largest demand first, not yet moved.
        let mut crossing: Vec<FlowId> = net
            .flows()
            .iter()
            .enumerate()
            .filter(|&(l, f)| {
                let l = FlowId(l);
                !overrides.contains_key(&l)
                    && f.path
                        .windows(2)
                        .any(|w| LinkOn(w[0], w[1]) == LinkOn(hot.0, hot.1))
                    && tm.demand(l) > 0.0
            })
            .map(|(l, _)| FlowId(l))
            .collect();
        crossing.sort_by(|&a, &b| {
            tm.demand(b)
                .partial_cmp(&tm.demand(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });

        for l in crossing {
            let Ok(action) = rerouter.reroute_around_link(l, hot.0, hot.1) else {
                continue;
            };
            let mut candidate = overrides.clone();
            candidate.insert(l, action.path.clone());
            let new_loads = LinkLoads::compute(net, tm, &candidate);
            let new_util = new_loads.max_utilization(link_capacity);
            if new_util < current_utilization - 1e-12 {
                overrides = candidate;
                current_utilization = new_util;
                moves.push(action);
                continue 'outer;
            }
        }
        break; // no crossing flow improves the hotspot
    }

    Ok(ReliefReport {
        initial_utilization,
        final_utilization: current_utilization,
        moves,
        overrides,
    })
}

/// Order-insensitive link equality helper.
#[derive(PartialEq)]
struct LinkOn(SwitchId, SwitchId);

impl LinkOn {
    fn canon(&self) -> (SwitchId, SwitchId) {
        if self.0 <= self.1 {
            (self.0, self.1)
        } else {
            (self.1, self.0)
        }
    }
}

impl std::cmp::Eq for LinkOn {}

impl std::cmp::PartialOrd for LinkOn {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.canon().cmp(&other.canon()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FmssmInstance, Pm, RecoveryAlgorithm, RetroFlow};
    use pm_sdwan::{ControllerId, SdWanBuilder};

    fn world() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    #[test]
    fn relief_never_increases_utilization() {
        let (net, prog) = world();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&scenario, &prog);
        let plan = Pm::new().recover(&inst).unwrap();
        let tm = TrafficMatrix::gravity(&net, 10_000.0);
        let report = relieve_hotspots(&scenario, &prog, &plan, &tm, 1_000.0, 16).unwrap();
        assert!(report.final_utilization <= report.initial_utilization + 1e-12);
        assert!(report.relief() >= 0.0);
        assert_eq!(report.moves.len(), report.overrides.len());
    }

    #[test]
    fn pm_relieves_more_than_retroflow_on_headline_case() {
        let (net, prog) = world();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&scenario, &prog);
        let tm = TrafficMatrix::gravity(&net, 10_000.0);
        let pm_plan = Pm::new().recover(&inst).unwrap();
        let rf_plan = RetroFlow::new().recover(&inst).unwrap();
        let pm = relieve_hotspots(&scenario, &prog, &pm_plan, &tm, 1_000.0, 32).unwrap();
        let rf = relieve_hotspots(&scenario, &prog, &rf_plan, &tm, 1_000.0, 32).unwrap();
        assert!(pm.relief() > 0.0, "PM must relieve something");
        assert!(
            pm.final_utilization <= rf.final_utilization + 1e-9,
            "PM relief {} must be at least RetroFlow's {}",
            pm.final_utilization,
            rf.final_utilization
        );
    }

    #[test]
    fn moves_are_bounded_and_use_programmable_switches() {
        let (net, prog) = world();
        let scenario = net.fail(&[ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&scenario, &prog);
        let plan = Pm::new().recover(&inst).unwrap();
        let tm = TrafficMatrix::uniform(&net, 10.0);
        let report = relieve_hotspots(&scenario, &prog, &plan, &tm, 1_000.0, 3).unwrap();
        assert!(report.moves.len() <= 3);
        let rr = Rerouter::new(&scenario, &prog, &plan);
        for m in &report.moves {
            assert!(rr.is_programmable_at(m.flow, m.at));
        }
    }

    #[test]
    fn zero_traffic_is_degenerate() {
        let (net, prog) = world();
        let scenario = net.fail(&[ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&scenario, &prog);
        let plan = Pm::new().recover(&inst).unwrap();
        let tm = TrafficMatrix::uniform(&net, 0.0);
        assert!(matches!(
            relieve_hotspots(&scenario, &prog, &plan, &tm, 1_000.0, 4),
            Err(PmError::Degenerate(_))
        ));
    }
}
