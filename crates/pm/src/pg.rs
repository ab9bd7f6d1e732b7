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
//! active controller with the most remaining capacity, until the entries or
//! the capacity run out.
//!
//! A round at level σ gives every flow whose programmability `h` is σ its
//! next entry, in ascending flow position. Every entry has `p̄ ≥ 1` (β is
//! `p̄ ≠ 0`), so that flow's `h` then exceeds σ and the next round is at a
//! higher level: the rounds are a k-way merge of the flow rows. Entry `k`
//! of flow `lp` is therefore taken in the round at its `h_before`, the sum
//! of `p̄` over the entries before it on its row, and the rounds take all
//! entries in ascending `(h_before, lp)` order. PG builds that key per
//! entry and sorts once; the first entry of every row has `h_before = 0`
//! and those keys come in flow order, so only the others are sorted. The
//! `t`-th key gets the `t`-th controller the capacity heap hands out, and
//! the walk stops when capacity is spent, which cuts a round short exactly
//! where the rounds would.
//!
//! No leftover-capacity pass follows. The rounds end when every row is
//! used up or when capacity is spent (a round without a pick happens only
//! once it is), and a fill after either picks nothing.

use crate::instance::FmssmInstance;
use crate::{PmError, RecoveryAlgorithm};
use pm_sdwan::RecoveryPlan;
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
        // The controller position picked for each entry, by switch-major
        // number.
        let mut picked: Vec<Option<usize>> = vec![None; inst.entry_count()];
        // One more than the levels picked at: the rounds' count, whose last
        // round finds nothing left to pick.
        let mut rounds = 1u64;
        let mut picks = 0u64;

        // Phase 1: the balanced rounds, as one walk of the entries in
        // ascending `(h_before, lp)` order (see the module doc). The keys
        // of the rows' first entries come first, already in flow order.
        let phase1_span = pm_obs::span("pg.phase1");
        let mut keys: Vec<u128> = Vec::with_capacity(inst.entry_count());
        keys.extend((0..l_count).filter_map(|lp| {
            let &e = inst.flow_entry_numbers(lp).first()?;
            Some(entry_key(0, lp, e))
        }));
        let first_entries = keys.len();
        for lp in 0..l_count {
            let row = inst
                .flow_entries(lp)
                .iter()
                .zip(inst.flow_entry_numbers(lp));
            let mut h = 0;
            for (k, (&(_, pbar), &e)) in row.enumerate() {
                if k > 0 {
                    keys.push(entry_key(h, lp, e));
                }
                h += u64::from(pbar);
            }
        }
        keys[first_entries..].sort_unstable();
        let mut level = None;
        for &key in &keys {
            let Some(j) = capacity.take_most() else {
                break;
            };
            picked[key as u32 as usize] = Some(j);
            picks += 1;
            let h = (key >> 64) as u64;
            if level != Some(h) {
                level = Some(h);
                rounds += 1;
            }
        }
        drop(phase1_span);

        // Emit the picks switch by switch, flows ascending within each:
        // the plan's own order, so `from_parts` keeps the list as it is.
        let mut sdn = Vec::with_capacity(picks as usize);
        for (ip, &s) in inst.switches().iter().enumerate() {
            let row = (inst.switch_row_start(ip)..).zip(inst.switch_entries(ip));
            sdn.extend(row.filter_map(|(e, &(lp, _))| {
                picked[e].map(|j| (s, inst.flows()[lp], inst.controllers()[j]))
            }));
        }
        if pm_obs::enabled() {
            pm_obs::count("pg.rounds", rounds);
            pm_obs::count("pg.sdn_mode_picks", picks);
            // A flow is touched once its first entry is picked, and the
            // first entries are picked first.
            pm_obs::count("pg.flows_touched", picks.min(first_entries as u64));
            pm_obs::count("pg.capacity_residual_left", capacity.left());
        }
        Ok(RecoveryPlan::from_parts(Vec::new(), Vec::new(), sdn))
    }
}

/// An entry's sort key: `(h_before, flow position, switch-major number)`
/// packed into one integer, so the sort orders it with a single compare.
/// `(h_before, lp)` is unique per entry, since `h_before` grows along a
/// row; the entry number rides along in the low bits.
fn entry_key(h_before: u64, lp: usize, e: u32) -> u128 {
    (h_before as u128) << 64 | (lp as u128) << 32 | e as u128
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

    /// Takes one unit from the controller with the most capacity and
    /// returns its position; `None`, taking nothing, when even that one is
    /// spent or there is no controller.
    fn take_most(&mut self) -> Option<usize> {
        let mut top = self.0.peek_mut()?;
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

    fn setup() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
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
        assert_eq!(capacity.left(), 0);
        let capacity = Capacity::new(&[0, 5, 7]);
        assert_eq!(capacity.left(), 12);
        assert_eq!(Capacity::new(&[]).take_most(), None);
    }

    #[test]
    fn tied_flows_take_their_entries_in_ascending_position() {
        // The (C13, C20) failure with every controller's capacity swept
        // across the survivors' loads (436–468): capacity runs out in the
        // first round on some sweeps and in later ones on others.
        let mut cut_levels = std::collections::BTreeSet::new();
        for capacity in 440..=500 {
            let net = SdWanBuilder::att_paper_setup_with_capacity(capacity)
                .allow_overload()
                .build()
                .unwrap();
            let prog = Programmability::compute(&net);
            let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
            let inst = FmssmInstance::new(&sc, &prog);
            let plan = Pg::new().recover(&inst).unwrap();
            let picked: std::collections::BTreeSet<(usize, usize)> = plan
                .sdn_selections()
                .map(|(s, l, _)| {
                    let lp = inst.flow_position(l).unwrap();
                    (lp, inst.switch_position(s).unwrap())
                })
                .collect();
            // Every entry by `(h_before, flow position)`, with whether PG
            // picked it.
            let mut entries = Vec::new();
            for lp in 0..inst.flows().len() {
                let mut h = 0;
                for &(ip, pbar) in inst.flow_entries(lp) {
                    entries.push((h, lp, picked.contains(&(lp, ip))));
                    h += pbar as u64;
                }
            }
            entries.sort_unstable();
            let picks = picked.len();
            assert!(
                entries.iter().take(picks).all(|&(_, _, hit)| hit),
                "capacity {capacity}: PG's picks are the first {picks} entries"
            );
            let residual: u32 = inst.residuals().iter().sum();
            assert_eq!(picks, inst.entry_count().min(residual as usize));
            if let (Some(&(last, ..)), Some(&(next, ..))) =
                (entries[..picks].last(), entries.get(picks))
            {
                if last == next {
                    cut_levels.insert(last);
                }
            }
        }
        assert!(cut_levels.contains(&0), "{cut_levels:?}");
        assert!(cut_levels.iter().any(|&h| h > 0), "{cut_levels:?}");
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
