//! Traffic engineering on recovered programmability.
//!
//! Path programmability is not an end in itself: the paper motivates it as
//! the ability to "dynamically reroute flows under network variation"
//! (Section II-A). This module closes that loop: given a recovery plan, it
//! answers *where* each flow can still be steered and computes concrete
//! single-deviation reroutes around a congested or failed link —
//! exactly the operation an SD-WAN traffic engineering loop performs.
//!
//! A reroute deviates at one programmable switch `s` onto a loop-free
//! alternate next hop `v` (strictly closer to the destination, so the move
//! is guaranteed loop-free); from `v` on, the packet follows the legacy
//! shortest-path forwarding — in hybrid switches that is one `FlowMod` at
//! `s` and nothing else.

use crate::PmError;
use pm_sdwan::{FailureScenario, FlowId, Programmability, RecoveryPlan, SdWan, SwitchId};
use pm_topo::paths::{self, PathCounts};
use std::collections::HashMap;

/// Rerouting engine over a network, a failure scenario and the recovery
/// plan in force.
pub struct Rerouter<'a, 'net> {
    net: &'net SdWan,
    scenario: &'a FailureScenario<'net>,
    prog: &'a Programmability,
    plan: &'a RecoveryPlan,
    /// Cached destination-rooted path counts.
    counts: HashMap<SwitchId, PathCounts>,
    /// Cached legacy (shortest-path) trees per destination.
    legacy: HashMap<SwitchId, paths::ShortestPathTree>,
}

impl<'a, 'net> Rerouter<'a, 'net> {
    /// Builds a rerouter for the given plan.
    pub fn new(
        scenario: &'a FailureScenario<'net>,
        prog: &'a Programmability,
        plan: &'a RecoveryPlan,
    ) -> Self {
        Rerouter {
            net: scenario.network(),
            scenario,
            prog,
            plan,
            counts: HashMap::new(),
            legacy: HashMap::new(),
        }
    }

    /// `true` if flow `l` can be steered at switch `s` right now:
    /// `s` is on the path with `β = 1` and either online (its own
    /// controller is alive) or recovered in SDN mode for this flow.
    pub fn is_programmable_at(&self, l: FlowId, s: SwitchId) -> bool {
        if !self.prog.beta(l, s) {
            return false;
        }
        if self.scenario.is_offline(s) {
            self.plan.is_sdn(s, l)
        } else {
            true // its domain controller survived
        }
    }

    /// The switches where flow `l` can currently be steered, in path order.
    pub fn programmable_switches(&self, l: FlowId) -> Vec<SwitchId> {
        self.net
            .flow(l)
            .path
            .clone()
            .into_iter()
            .filter(|&s| self.is_programmable_at(l, s))
            .collect()
    }

    /// Current programmability of flow `l` under the plan, counting both
    /// recovered offline switches and still-online switches on its path.
    pub fn effective_programmability(&self, l: FlowId) -> u64 {
        self.net
            .flow(l)
            .path
            .iter()
            .filter(|&&s| self.is_programmable_at(l, s))
            .map(|&s| self.prog.pbar(l, s) as u64)
            .sum()
    }

    /// Computes a reroute of flow `l` that avoids the undirected link
    /// `(a, b)`: the deviation happens at one programmable switch, the new
    /// next hop is a loop-free alternate, and the tail follows legacy
    /// shortest-path forwarding. Returns the full new path, or an error if
    /// the flow cannot avoid the link with a single programmable deviation.
    ///
    /// # Errors
    ///
    /// [`PmError::Degenerate`] when the flow does not use the link (nothing
    /// to do) or no programmable deviation avoids it.
    pub fn reroute_around_link(
        &mut self,
        l: FlowId,
        a: SwitchId,
        b: SwitchId,
    ) -> Result<RerouteAction, PmError> {
        let flow = self.net.flow(l);
        let uses_link = flow
            .path
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a));
        if !uses_link {
            return Err(PmError::Degenerate(format!(
                "{l} does not traverse {a}–{b}"
            )));
        }
        let dst = flow.dst;
        // Cache per-destination structures.
        if !self.counts.contains_key(&dst) {
            self.counts
                .insert(dst, PathCounts::toward(self.net.topology(), dst.node()));
            self.legacy
                .insert(dst, paths::dijkstra(self.net.topology(), dst.node()));
        }

        // Try deviations at programmable switches, preferring the one
        // closest to the congested link (smallest path change).
        let link_pos = flow
            .path
            .windows(2)
            .position(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
            .expect("checked above");
        let mut candidates: Vec<usize> = (0..=link_pos)
            .filter(|&i| self.is_programmable_at(l, flow.path[i]))
            .collect();
        candidates.reverse(); // nearest to the link first

        for i in candidates {
            let s = flow.path[i];
            let current_next = flow.path[i + 1];
            let counts = &self.counts[&dst];
            let hops: Vec<SwitchId> = counts
                .next_hops(self.net.topology(), s.node())
                .map(|v| SwitchId(v.index()))
                .filter(|&v| v != current_next)
                .collect();
            for v in hops {
                if let Some(path) = self.compose_path(&flow.path[..=i], s, v, dst) {
                    let avoids = !path
                        .windows(2)
                        .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a));
                    if avoids {
                        return Ok(RerouteAction {
                            flow: l,
                            at: s,
                            new_next_hop: v,
                            path,
                        });
                    }
                }
            }
        }
        Err(PmError::Degenerate(format!(
            "{l} has no programmable deviation avoiding {a}–{b}"
        )))
    }

    /// Prefix + deviation + legacy tail; `None` if the tail revisits the
    /// prefix (would loop).
    fn compose_path(
        &self,
        prefix: &[SwitchId],
        _s: SwitchId,
        v: SwitchId,
        dst: SwitchId,
    ) -> Option<Vec<SwitchId>> {
        let legacy = &self.legacy[&dst];
        // Legacy tail: the shortest path from v to dst (what OSPF
        // forwarding does hop by hop). The tree is rooted at dst and the
        // graph is undirected, so reverse the dst→v path.
        let mut tail: Vec<SwitchId> = legacy
            .path_to(v.node())?
            .into_iter()
            .map(|n| SwitchId(n.index()))
            .collect();
        tail.reverse(); // now v … dst
        let mut path = prefix.to_vec();
        for &hop in &tail {
            if path[..prefix.len()].contains(&hop) && hop != dst {
                return None; // would revisit the prefix: loop risk
            }
            path.push(hop);
        }
        Some(path)
    }
}

/// A computed reroute: one `FlowMod` at `at` steering `flow` to
/// `new_next_hop`, yielding `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RerouteAction {
    /// The rerouted flow.
    pub flow: FlowId,
    /// The switch where the deviation is installed.
    pub at: SwitchId,
    /// The new next hop (a loop-free alternate).
    pub new_next_hop: SwitchId,
    /// The complete new forwarding path.
    pub path: Vec<SwitchId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FmssmInstance, Pm, RecoveryAlgorithm};
    use pm_sdwan::{ControllerId, SdWanBuilder};

    fn recovered_world() -> (
        pm_sdwan::SdWan,
        std::sync::Arc<Programmability>,
        RecoveryPlan,
    ) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&scenario, &prog);
        let plan = Pm::new().recover(&inst).unwrap();
        (net, prog, plan)
    }

    #[test]
    fn programmable_switches_subset_of_path() {
        let (net, prog, plan) = recovered_world();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let rr = Rerouter::new(&scenario, &prog, &plan);
        for l in 0..net.flows().len() {
            let l = FlowId(l);
            for s in rr.programmable_switches(l) {
                assert!(net.flow(l).traverses(s));
            }
        }
    }

    #[test]
    fn recovered_flows_can_reroute_somewhere() {
        let (net, prog, plan) = recovered_world();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let mut rr = Rerouter::new(&scenario, &prog, &plan);
        // Find a flow with an SDN-mode switch and a link after it.
        let mut rerouted = 0;
        let mut attempts = 0;
        for (s, l, _) in plan.sdn_selections() {
            let flow = net.flow(l);
            let Some(pos) = flow.path.iter().position(|&x| x == s) else {
                continue;
            };
            if pos + 2 >= flow.path.len() {
                continue;
            }
            let (a, b) = (flow.path[pos], flow.path[pos + 1]);
            attempts += 1;
            if let Ok(action) = rr.reroute_around_link(l, a, b) {
                rerouted += 1;
                // The new path must be valid: starts at src, ends at dst,
                // simple, avoids the link, and deviates at a programmable
                // switch.
                assert_eq!(*action.path.first().unwrap(), flow.src);
                assert_eq!(*action.path.last().unwrap(), flow.dst);
                let mut seen = std::collections::HashSet::new();
                assert!(
                    action.path.iter().all(|&x| seen.insert(x)),
                    "loop in {action:?}"
                );
                assert!(!action
                    .path
                    .windows(2)
                    .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a)));
                assert!(rr.is_programmable_at(l, action.at));
                // Consecutive hops are actual links.
                for w in action.path.windows(2) {
                    assert!(net.topology().find_edge(w[0].node(), w[1].node()).is_some());
                }
            }
            if attempts >= 100 {
                break;
            }
        }
        assert!(
            rerouted > 0,
            "no flow could be rerouted out of {attempts} attempts"
        );
    }

    #[test]
    fn unrecovered_flows_cannot_deviate_at_offline_switches() {
        let (net, prog, plan) = recovered_world();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let rr = Rerouter::new(&scenario, &prog, &plan);
        for &l in scenario.offline_flows() {
            for &s in &net.flow(l).path {
                if scenario.is_offline(s) && !plan.is_sdn(s, l) {
                    assert!(!rr.is_programmable_at(l, s));
                }
            }
        }
    }

    #[test]
    fn flow_not_on_link_is_degenerate() {
        let (net, prog, plan) = recovered_world();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let mut rr = Rerouter::new(&scenario, &prog, &plan);
        // Flow 0 runs Seattle->Portland (0 -> 1); link 19-23 is far away.
        let f0 = net.flow(FlowId(0));
        assert!(!f0.traverses(SwitchId(19)) || !f0.traverses(SwitchId(23)));
        assert!(matches!(
            rr.reroute_around_link(FlowId(0), SwitchId(19), SwitchId(23)),
            Err(PmError::Degenerate(_))
        ));
    }

    #[test]
    fn effective_programmability_counts_online_and_recovered() {
        let (net, prog, plan) = recovered_world();
        let scenario = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let rr = Rerouter::new(&scenario, &prog, &plan);
        for &l in scenario.offline_flows() {
            let recovered_part = plan.flow_programmability(&prog, l);
            assert!(
                rr.effective_programmability(l) >= recovered_part,
                "effective must include at least the recovered part"
            );
        }
    }
}
