//! ProgrammabilityGuardian (PG) — the flow-level middle-layer baseline
//! (reference \[9\] of the paper).
//!
//! PG inserts a FlowVisor-style slicing layer between controllers and
//! switches, which lets it map each offline flow to *any* active controller
//! independently of which controller other flows at the same switch use.
//! That makes recovery maximally fine-grained — PG recovers 100 % of flows
//! whenever aggregate capacity allows — at two costs the paper highlights:
//! the middle layer adds processing delay to every control interaction
//! (0.48 ms per FlowVisor request \[10\]), and PG balances controller load
//! rather than propagation delay, so its per-flow communication overhead is
//! the worst of the four solutions (Figs. 4(d), 5(f), 6(f)).
//!
//! The exact algorithm of \[9\] is not restated in this paper; we implement
//! the flow-level balanced recovery it attributes to PG: rounds of
//! least-programmable-flow-first assignment, each selection going to the
//! active controller with the most remaining capacity, followed by a
//! leftover-capacity fill.

use crate::instance::FmssmInstance;
use crate::{PmError, RecoveryAlgorithm};
use pm_sdwan::RecoveryPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// FlowVisor's average per-request processing time, from reference \[10\] of
/// the paper.
pub const FLOWVISOR_DELAY_MS: f64 = 0.48;

/// FlowVisor requests per flow-recovery control interaction: re-homing one
/// flow at one switch costs several middle-layer round trips (port-status
/// pulls for path computation, the flow-mod, the barrier and its reply),
/// each paying [`FLOWVISOR_DELAY_MS`]. Ten is the calibration that
/// reproduces the paper's "PG is about three to four times higher than PM"
/// per-flow overhead (Fig. 5(f)); see DESIGN.md substitution #4.
pub const FLOWVISOR_MSGS_PER_RECOVERY: f64 = 10.0;

/// The PG baseline algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Pg {
    middle_layer_ms: f64,
}

impl Default for Pg {
    fn default() -> Self {
        Pg {
            middle_layer_ms: FLOWVISOR_DELAY_MS * FLOWVISOR_MSGS_PER_RECOVERY,
        }
    }
}

impl Pg {
    /// PG with the default FlowVisor delay.
    pub fn new() -> Self {
        Self::default()
    }

    /// PG with a custom middle-layer processing delay (per control
    /// interaction, in milliseconds).
    pub fn with_middle_layer_ms(middle_layer_ms: f64) -> Self {
        Pg { middle_layer_ms }
    }
}

impl RecoveryAlgorithm for Pg {
    fn name(&self) -> &'static str {
        "PG"
    }

    fn middle_layer_ms(&self) -> f64 {
        self.middle_layer_ms
    }

    fn is_flow_level(&self) -> bool {
        true
    }

    fn recover(&self, inst: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError> {
        let _span = pm_obs::span("pg.recover");
        let l_count = inst.flows().len();
        let mut capacity = Capacity::new(inst.residuals());
        let mut h: Vec<u64> = vec![0; l_count];
        // Next unused entry index per flow.
        let mut cursor: Vec<usize> = vec![0; l_count];
        // The controller position picked for each flow entry, flat in flow
        // order: entry `k` of flow `lp` is `picked[row_start[lp] + k]`.
        let mut row_start = Vec::with_capacity(l_count);
        let mut entries = 0;
        for lp in 0..l_count {
            row_start.push(entries);
            entries += inst.flow_entries(lp).len();
        }
        let mut picked: Vec<Option<usize>> = vec![None; entries];
        let mut rounds = 0u64;
        let mut picks = 0u64;

        // Phase 1: balanced rounds. In each round, every flow currently at
        // the least programmability (among flows that still have unused
        // entries) receives one more SDN-mode switch, assigned to the
        // controller with the most remaining capacity. The flows with
        // unused entries wait in a min-heap keyed `(h, position)`, so a
        // round pops exactly its σ-flows, in ascending position, and pushes
        // back the ones with entries left: O(picks · (log L + log M)) over
        // all rounds instead of a rescan of every flow per round.
        let phase1_span = pm_obs::span("pg.phase1");
        let mut waiting: BinaryHeap<Reverse<u128>> = (0..l_count)
            .filter(|&lp| !inst.flow_entries(lp).is_empty())
            .map(|lp| Reverse(flow_key(0, lp)))
            .collect();
        let mut at_sigma: Vec<usize> = Vec::new();
        loop {
            rounds += 1;
            let Some(&Reverse(first)) = waiting.peek() else {
                break;
            };
            if capacity.exhausted() {
                break;
            }
            let sigma = first >> 64;
            at_sigma.clear();
            while let Some(&Reverse(key)) = waiting.peek() {
                if key >> 64 != sigma {
                    break;
                }
                waiting.pop();
                at_sigma.push(key as u64 as usize);
            }
            let mut progressed = false;
            for &lp in &at_sigma {
                let k = cursor[lp];
                let (_, pbar) = inst.flow_entries(lp)[k];
                cursor[lp] += 1;
                let Some(j) = capacity.take_most() else {
                    continue;
                };
                h[lp] += pbar as u64;
                picked[row_start[lp] + k] = Some(j);
                picks += 1;
                progressed = true;
            }
            waiting.extend(
                at_sigma
                    .iter()
                    .filter(|&&lp| cursor[lp] < inst.flow_entries(lp).len())
                    .map(|&lp| Reverse(flow_key(h[lp], lp))),
            );
            if !progressed {
                break;
            }
        }
        drop(phase1_span);

        // Phase 2: spend leftovers on any remaining entries.
        let phase2_span = pm_obs::span("pg.phase2");
        'outer: for lp in 0..l_count {
            while cursor[lp] < inst.flow_entries(lp).len() {
                let Some(j) = capacity.take_most() else {
                    break 'outer;
                };
                picked[row_start[lp] + cursor[lp]] = Some(j);
                cursor[lp] += 1;
                picks += 1;
            }
        }
        drop(phase2_span);

        // Emit the picks switch by switch, flows ascending within each:
        // the plan's own order, so `from_parts` keeps the list as it is.
        let mut sdn = Vec::with_capacity(picks as usize);
        for (ip, &s) in inst.switches().iter().enumerate() {
            for &(lp, _) in inst.switch_entries(ip) {
                let k = inst
                    .flow_entries(lp)
                    .iter()
                    .position(|&(i, _)| i == ip)
                    .expect("a switch entry is on its flow's row");
                if let Some(j) = picked[row_start[lp] + k] {
                    sdn.push((s, inst.flows()[lp], inst.controllers()[j]));
                }
            }
        }
        if pm_obs::enabled() {
            pm_obs::count("pg.rounds", rounds);
            pm_obs::count("pg.sdn_mode_picks", picks);
            pm_obs::count(
                "pg.flows_touched",
                h.iter().filter(|&&v| v > 0).count() as u64,
            );
            pm_obs::count("pg.capacity_residual_left", capacity.left());
        }
        Ok(RecoveryPlan::from_parts(Vec::new(), Vec::new(), sdn))
    }
}

/// A waiting flow's heap key: `(h, position)` packed into one integer, so
/// the heap orders it with a single compare.
fn flow_key(h: u64, lp: usize) -> u128 {
    (h as u128) << 64 | lp as u128
}

/// Remaining capacity per active controller, as a max-heap of
/// `(capacity, Reverse(position))` packed into one integer: the top is the
/// controller with the most capacity, ties to the lower position (and so
/// the lower controller id). Taking a unit is O(log M) instead of a scan.
struct Capacity(BinaryHeap<u64>);

impl Capacity {
    fn new(residuals: &[u32]) -> Self {
        Capacity(
            residuals
                .iter()
                .enumerate()
                .map(|(j, &r)| (r as u64) << 32 | (u32::MAX - j as u32) as u64)
                .collect(),
        )
    }

    /// `true` when no controller has capacity left.
    fn exhausted(&self) -> bool {
        self.0.peek().map_or(true, |&key| key >> 32 == 0)
    }

    /// Takes one unit from the controller with the most capacity and
    /// returns its position; `None`, taking nothing, when even that one is
    /// spent.
    ///
    /// # Panics
    ///
    /// Panics when there is no controller at all.
    fn take_most(&mut self) -> Option<usize> {
        let mut top = self.0.peek_mut().expect("m > 0");
        if *top >> 32 == 0 {
            return None;
        }
        *top -= 1 << 32;
        Some((u32::MAX - *top as u32) as usize)
    }

    /// Capacity left over all controllers.
    fn left(&self) -> u64 {
        self.0.iter().map(|&key| key >> 32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::{ControllerId, PlanMetrics, Programmability, SdWanBuilder};

    fn setup() -> (pm_sdwan::SdWan, Programmability) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    #[test]
    fn valid_flow_level_plans() {
        let (net, prog) = setup();
        for c in 0..6 {
            let sc = net.fail(&[ControllerId(c)]).unwrap();
            let inst = FmssmInstance::new(&sc, &prog);
            let plan = Pg::new().recover(&inst).unwrap();
            plan.validate(&sc, &prog, true).unwrap();
        }
    }

    #[test]
    fn recovers_all_recoverable_flows_under_headline_failure() {
        // Flow-level granularity: even when γ(s13) fits no controller, PG
        // splits the hub's flows across controllers.
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = Pg::new().recover(&inst).unwrap();
        plan.validate(&sc, &prog, true).unwrap();
        let metrics = PlanMetrics::compute(&sc, &prog, &plan, 0.0);
        // PG recovers at least one flow per recoverable flow or runs the
        // controllers dry trying.
        let capacity: u32 = sc
            .active_controllers()
            .iter()
            .map(|&c| sc.residual_capacity(c))
            .sum();
        assert!(
            metrics.recovered_flows == inst.recoverable_flow_count()
                || metrics.total_capacity_used() == capacity,
            "PG must recover everything or exhaust capacity"
        );
    }

    #[test]
    fn hub_flows_split_across_controllers() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = Pg::new().recover(&inst).unwrap();
        let hub = pm_sdwan::SwitchId(13);
        let ctrls: std::collections::BTreeSet<_> = plan
            .sdn_selections()
            .filter(|&(s, _, _)| s == hub)
            .map(|(_, _, c)| c)
            .collect();
        assert!(
            ctrls.len() >= 2,
            "hub flows must be split across ≥ 2 controllers: {ctrls:?}"
        );
    }

    #[test]
    fn middle_layer_delay_reported() {
        assert_eq!(
            Pg::new().middle_layer_ms(),
            FLOWVISOR_DELAY_MS * FLOWVISOR_MSGS_PER_RECOVERY
        );
        assert_eq!(Pg::with_middle_layer_ms(1.0).middle_layer_ms(), 1.0);
        assert!(Pg::new().is_flow_level());
    }

    #[test]
    fn balanced_least_programmability() {
        // PG's min programmability over recoverable flows should match PM's
        // (both balance before maximizing).
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = Pg::new().recover(&inst).unwrap();
        let metrics = PlanMetrics::compute(&sc, &prog, &plan, 0.0);
        // Every recoverable flow got at least its first entry (capacity
        // permitting): min over recovered flows ≥ 2.
        let recovered_min = metrics
            .per_flow_programmability
            .iter()
            .filter(|&&p| p > 0)
            .min()
            .copied()
            .unwrap_or(0);
        assert!(recovered_min >= 2);
    }

    #[test]
    fn capacity_takes_from_the_fullest_lowest_position() {
        let mut capacity = Capacity::new(&[2, 3, 3, 0]);
        let taken: Vec<Option<usize>> = (0..9).map(|_| capacity.take_most()).collect();
        assert_eq!(
            taken,
            [
                Some(1),
                Some(2),
                Some(0),
                Some(1),
                Some(2),
                Some(0),
                Some(1),
                Some(2),
                None
            ]
        );
        assert!(capacity.exhausted());
        assert_eq!(capacity.left(), 0);
        let capacity = Capacity::new(&[0, 5, 7]);
        assert!(!capacity.exhausted());
        assert_eq!(capacity.left(), 12);
    }

    #[test]
    fn deterministic() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(5)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        assert_eq!(
            Pg::new().recover(&inst).unwrap(),
            Pg::new().recover(&inst).unwrap()
        );
    }
}
