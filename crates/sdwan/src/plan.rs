//! Recovery plans: the decision variables `X` (switch → controller) and `Y`
//! (flow is SDN-routed at switch) of the FMSSM problem, plus validation.
//!
//! One plan type covers all four solution families the paper compares:
//!
//! * **Switch-level hybrid plans** (PM, Optimal): switches are mapped to one
//!   controller each ([`RecoveryPlan::map_switch`]) and individual flows are
//!   put in SDN mode at mapped switches ([`RecoveryPlan::set_sdn`]); each
//!   SDN-mode flow costs one capacity unit at the switch's controller.
//! * **Whole-switch plans** (RetroFlow, plain OpenFlow remapping): a mapped
//!   switch marked [`RecoveryPlan::set_full_sdn`] routes *every* flow with
//!   OpenFlow, so it costs its full `γ_i` at the controller.
//! * **Flow-level plans** (PG): `(switch, flow)` pairs may be assigned to
//!   *different* controllers via [`RecoveryPlan::set_sdn_via`], bypassing
//!   the switch-level mapping constraint (that is exactly the relaxation a
//!   middle layer buys).

use crate::network::{ControllerId, FlowId, SwitchId};
use crate::programmability::Programmability;
use crate::scenario::FailureScenario;
use crate::SdwanError;
use std::collections::{BTreeMap, BTreeSet};

/// A complete recovery decision. See the module docs for the three plan
/// families it can express.
///
/// # Example
///
/// ```
/// use pm_sdwan::{RecoveryPlan, SwitchId, FlowId, ControllerId};
/// let mut plan = RecoveryPlan::new();
/// plan.map_switch(SwitchId(13), ControllerId(1));
/// plan.set_sdn(SwitchId(13), FlowId(42));
/// assert!(plan.is_sdn(SwitchId(13), FlowId(42)));
/// // Plans serialize to an auditable text format and back.
/// let restored = RecoveryPlan::from_text(&plan.to_text())?;
/// assert_eq!(restored, plan);
/// # Ok::<(), pm_sdwan::SdwanError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The paper's `X`: switch → controller mapping.
    mapping: BTreeMap<SwitchId, ControllerId>,
    /// The paper's `Y`, annotated with the controlling controller of each
    /// SDN-mode `(switch, flow)` pair.
    sdn: BTreeMap<(SwitchId, FlowId), ControllerId>,
    /// Switches running their *entire* flow population under OpenFlow
    /// (switch-level solutions); they cost `γ_i` capacity units.
    full_sdn: BTreeSet<SwitchId>,
}

impl RecoveryPlan {
    /// An empty plan (nothing recovered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a plan from its three decision lists in one pass per map:
    /// switch mappings, whole-switch SDN switches and `(switch, flow,
    /// controller)` selections, each in any order. Each list is sorted and
    /// its map bulk-built from the sorted run, which is how the heuristics
    /// emit a plan without one keyed insert per decision.
    ///
    /// The result equals the plan built by [`RecoveryPlan::map_switch`],
    /// [`RecoveryPlan::set_full_sdn`] and [`RecoveryPlan::set_sdn_via`]
    /// calls over the same lists.
    ///
    /// # Panics
    ///
    /// Panics on a switch mapped twice, a switch listed twice as full-SDN,
    /// a `(switch, flow)` pair selected twice, or a full-SDN switch that is
    /// not mapped: each is a bug in the algorithm emitting the plan.
    pub fn from_parts(
        mut mappings: Vec<(SwitchId, ControllerId)>,
        mut full_sdn: Vec<SwitchId>,
        mut sdn: Vec<(SwitchId, FlowId, ControllerId)>,
    ) -> Self {
        mappings.sort_unstable_by_key(|&(s, _)| s);
        full_sdn.sort_unstable();
        sdn.sort_unstable_by_key(|&(s, l, _)| (s, l));
        if let Some(w) = mappings.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("switch {} mapped twice", w[0].0);
        }
        if let Some(w) = full_sdn.windows(2).find(|w| w[0] == w[1]) {
            panic!("full-SDN switch {} listed twice", w[0]);
        }
        if let Some(w) = sdn
            .windows(2)
            .find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            panic!("pair ({}, {}) selected twice", w[0].0, w[0].1);
        }
        // Both lists are sorted, so one merge walk finds every full-SDN
        // switch among the mapped ones.
        let mut mapped = mappings.iter().map(|&(s, _)| s).peekable();
        for &s in &full_sdn {
            while mapped.next_if(|&m| m < s).is_some() {}
            assert!(
                mapped.next_if_eq(&s).is_some(),
                "full-SDN switch {s} is unmapped"
            );
        }
        // Sorted, duplicate-free input: `collect` bulk-builds each map
        // from the run instead of inserting key by key.
        RecoveryPlan {
            mapping: mappings.into_iter().collect(),
            sdn: sdn.into_iter().map(|(s, l, c)| ((s, l), c)).collect(),
            full_sdn: full_sdn.into_iter().collect(),
        }
    }

    /// Maps switch `s` to controller `c`, replacing any previous mapping.
    pub fn map_switch(&mut self, s: SwitchId, c: ControllerId) {
        self.mapping.insert(s, c);
    }

    /// The controller switch `s` is mapped to, if any.
    pub fn controller_of(&self, s: SwitchId) -> Option<ControllerId> {
        self.mapping.get(&s).copied()
    }

    /// Marks flow `l` as SDN-routed at switch `s`, controlled by the
    /// controller `s` is mapped to.
    ///
    /// Returns `false` if the pair was already selected.
    ///
    /// # Panics
    ///
    /// Panics if `s` has not been mapped (use [`RecoveryPlan::map_switch`]
    /// first, or [`RecoveryPlan::set_sdn_via`] for flow-level plans).
    pub fn set_sdn(&mut self, s: SwitchId, l: FlowId) -> bool {
        let c = self
            .mapping
            .get(&s)
            .copied()
            .expect("switch must be mapped before set_sdn");
        self.sdn.insert((s, l), c).is_none()
    }

    /// Marks flow `l` as SDN-routed at switch `s` under an explicit
    /// controller `c` — the flow-level (PG-style) assignment that bypasses
    /// the switch mapping. Returns `false` if the pair was already selected.
    pub fn set_sdn_via(&mut self, s: SwitchId, l: FlowId, c: ControllerId) -> bool {
        self.sdn.insert((s, l), c).is_none()
    }

    /// Puts switch `s` in whole-switch SDN mode (RetroFlow-style): every
    /// flow at `s` is OpenFlow-routed and the switch costs its full `γ_i`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has not been mapped.
    pub fn set_full_sdn(&mut self, s: SwitchId) {
        assert!(
            self.mapping.contains_key(&s),
            "switch must be mapped before set_full_sdn"
        );
        self.full_sdn.insert(s);
    }

    /// `true` if switch `s` is in whole-switch SDN mode.
    pub fn is_full_sdn(&self, s: SwitchId) -> bool {
        self.full_sdn.contains(&s)
    }

    /// `true` if flow `l` is SDN-routed at switch `s`.
    pub fn is_sdn(&self, s: SwitchId, l: FlowId) -> bool {
        self.sdn.contains_key(&(s, l))
    }

    /// Iterator over switch mappings, ordered by switch id.
    pub fn mappings(&self) -> impl Iterator<Item = (SwitchId, ControllerId)> + '_ {
        self.mapping.iter().map(|(&s, &c)| (s, c))
    }

    /// Iterator over `(switch, flow, controller)` SDN selections, in order.
    pub fn sdn_selections(&self) -> impl Iterator<Item = (SwitchId, FlowId, ControllerId)> + '_ {
        self.sdn.iter().map(|(&(s, l), &c)| (s, l, c))
    }

    /// Number of SDN-mode `(switch, flow)` selections.
    pub fn sdn_count(&self) -> usize {
        self.sdn.len()
    }

    /// Switches this plan recovers: every mapped switch plus any switch with
    /// a flow-level selection.
    pub fn recovered_switches(&self) -> BTreeSet<SwitchId> {
        let mut set: BTreeSet<SwitchId> = self.mapping.keys().copied().collect();
        set.extend(self.sdn.keys().map(|&(s, _)| s));
        set
    }

    /// `recovered_switches().len()` without building the set: one merge
    /// count over the sorted mapping keys and the sorted selection keys.
    pub fn recovered_switch_count(&self) -> usize {
        let mut mapped = self.mapping.keys().peekable();
        let mut count = 0;
        let mut last = None;
        for &(s, _) in self.sdn.keys() {
            if last == Some(s) {
                continue;
            }
            last = Some(s);
            while mapped.next_if(|&&m| m < s).is_some() {
                count += 1;
            }
            mapped.next_if(|&&m| m == s);
            count += 1;
        }
        count + mapped.count()
    }

    /// Dense per-controller accumulation backing both
    /// [`RecoveryPlan::controller_usage`] and validation: `used[j]` is the
    /// load added to controller `j`, `touched[j]` is whether the plan
    /// references controller `j` at all (a referenced controller can have
    /// zero added load when a full-SDN switch has `γ_i = 0`). Out-of-range
    /// controller ids in hand-written plans grow the tables on demand.
    fn usage_tables(&self, scenario: &FailureScenario<'_>) -> (Vec<u32>, Vec<bool>) {
        fn bump(used: &mut Vec<u32>, touched: &mut Vec<bool>, c: ControllerId, amount: u32) {
            if c.index() >= used.len() {
                used.resize(c.index() + 1, 0);
                touched.resize(c.index() + 1, false);
            }
            used[c.index()] += amount;
            touched[c.index()] = true;
        }
        let net = scenario.network();
        let mut used = vec![0u32; net.controllers().len()];
        let mut touched = vec![false; net.controllers().len()];
        for &s in &self.full_sdn {
            if let Some(&c) = self.mapping.get(&s) {
                bump(&mut used, &mut touched, c, net.gamma(s));
            }
        }
        for (&(s, _), &c) in &self.sdn {
            if !self.full_sdn.contains(&s) {
                bump(&mut used, &mut touched, c, 1);
            }
        }
        (used, touched)
    }

    /// Dense per-controller load added by this plan, indexed by
    /// `ControllerId` (length ≥ the network's controller count). The
    /// allocation-light view [`PlanMetrics`](crate::PlanMetrics) reads.
    pub(crate) fn controller_usage_dense(&self, scenario: &FailureScenario<'_>) -> Vec<u32> {
        self.usage_tables(scenario).0
    }

    /// Control load this plan adds to each controller: `γ_i` for
    /// whole-switch SDN switches, one unit per flow-level selection
    /// elsewhere.
    pub fn controller_usage(&self, scenario: &FailureScenario<'_>) -> BTreeMap<ControllerId, u32> {
        let (used, touched) = self.usage_tables(scenario);
        used.into_iter()
            .zip(touched)
            .enumerate()
            .filter(|&(_, (_, t))| t)
            .map(|(j, (u, _))| (ControllerId(j), u))
            .collect()
    }

    /// Programmability flow `l` is recovered with under this plan
    /// (`pro^l = Σ_i p̄_i^l` over its SDN-mode switches).
    pub fn flow_programmability(&self, prog: &Programmability, l: FlowId) -> u64 {
        prog.flow_entries(l)
            .iter()
            .filter(|&&(s, _)| self.sdn.contains_key(&(s, l)))
            .map(|&(_, p)| p as u64)
            .sum()
    }

    /// Checks every hard constraint of the FMSSM problem:
    ///
    /// 1. mapped switches are offline, target controllers are active
    ///    (Eq. (2) is implicit: the map holds one controller per switch);
    /// 2. every SDN selection `(s, l)` is at an offline switch on the path
    ///    of an offline flow with `β_i^l = 1` (Eq. (1)); when `s` is mapped,
    ///    the selection's controller must agree with the mapping — a
    ///    selection at an *unmapped* switch is only legal for flow-level
    ///    (PG-style) plans, which `flow_level` enables;
    /// 3. no active controller's added load exceeds its residual capacity
    ///    (Eq. (3)).
    ///
    /// The propagation-delay bound (Eq. (5)) is intentionally *not* checked:
    /// the paper treats it as a formulation constraint but evaluates
    /// heuristics whose delay may differ from `G` (Fig. 5(f) discussion);
    /// use [`RecoveryPlan::total_control_delay`] to inspect it.
    ///
    /// # Errors
    ///
    /// Returns [`SdwanError::InvalidPlan`] describing the first violation.
    pub fn validate(
        &self,
        scenario: &FailureScenario<'_>,
        prog: &Programmability,
        flow_level: bool,
    ) -> Result<(), SdwanError> {
        for (&s, &c) in &self.mapping {
            if !scenario.is_offline(s) {
                return Err(SdwanError::InvalidPlan(format!("{s} is not offline")));
            }
            if !scenario.is_active(c) {
                return Err(SdwanError::InvalidPlan(format!("{c} is not active")));
            }
        }
        for (&(s, l), &c) in &self.sdn {
            if !scenario.is_offline(s) {
                return Err(SdwanError::InvalidPlan(format!(
                    "SDN pair at online switch {s}"
                )));
            }
            if !scenario.is_active(c) {
                return Err(SdwanError::InvalidPlan(format!(
                    "SDN pair ({s}, {l}) assigned to failed controller {c}"
                )));
            }
            if !scenario.is_offline_flow(l) {
                return Err(SdwanError::InvalidPlan(format!(
                    "{l} is not an offline flow"
                )));
            }
            if !prog.beta(l, s) {
                return Err(SdwanError::InvalidPlan(format!(
                    "β = 0 for {l} at {s}: SDN mode has no effect (Eq. (1))"
                )));
            }
            match self.mapping.get(&s) {
                Some(&mc) if mc != c => {
                    return Err(SdwanError::InvalidPlan(format!(
                        "pair ({s}, {l}) uses {c} but {s} is mapped to {mc}"
                    )));
                }
                None if !flow_level => {
                    return Err(SdwanError::InvalidPlan(format!(
                        "SDN mode for {l} at unmapped switch {s} (switch-level plan)"
                    )));
                }
                _ => {}
            }
        }
        for &s in &self.full_sdn {
            if !self.mapping.contains_key(&s) {
                return Err(SdwanError::InvalidPlan(format!(
                    "full-SDN switch {s} is unmapped"
                )));
            }
        }
        let (used, touched) = self.usage_tables(scenario);
        for (j, (&used, &touched)) in used.iter().zip(&touched).enumerate() {
            if !touched {
                continue;
            }
            let c = ControllerId(j);
            let avail = scenario.residual_capacity(c);
            if used > avail {
                return Err(SdwanError::InvalidPlan(format!(
                    "{c} assigned {used} flows but has capacity {avail}"
                )));
            }
        }
        Ok(())
    }

    /// Serializes the plan to a stable line-based text format (one decision
    /// per line), suitable for saving to disk and auditing:
    ///
    /// ```text
    /// map s13 C1
    /// full s10
    /// sdn s13 f42 C1
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.to_text_into(&mut out);
        out
    }

    /// Appends the [`RecoveryPlan::to_text`] serialization to `out` —
    /// the allocation-reusing variant bulk writers (the `pmd` plan-store
    /// build) call in a loop with one carried buffer.
    pub fn to_text_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (&s, &c) in &self.mapping {
            let _ = writeln!(out, "map s{} C{}", s.index(), c.index());
        }
        for &s in &self.full_sdn {
            let _ = writeln!(out, "full s{}", s.index());
        }
        for (&(s, l), &c) in &self.sdn {
            let _ = writeln!(out, "sdn s{} f{} C{}", s.index(), l.index(), c.index());
        }
    }

    /// Parses the format produced by [`RecoveryPlan::to_text`]. Blank lines
    /// and `#` comments are ignored.
    ///
    /// Each decision may appear once: a second `map` line for a switch, a
    /// second `full` line for a switch or a second `sdn` line for a
    /// `(switch, flow)` pair is rejected, even when it repeats the first,
    /// so the parsed plan is never a silent merge of conflicting lines.
    ///
    /// # Errors
    ///
    /// Returns [`SdwanError::InvalidPlan`] describing the first malformed
    /// or repeated line.
    pub fn from_text(text: &str) -> Result<RecoveryPlan, SdwanError> {
        fn id(token: &str, prefix: char, line_no: usize) -> Result<usize, SdwanError> {
            token
                .strip_prefix(prefix)
                .and_then(|rest| rest.parse().ok())
                .ok_or_else(|| {
                    SdwanError::InvalidPlan(format!(
                        "line {line_no}: expected {prefix}<number>, got {token}"
                    ))
                })
        }
        fn repeated(line_no: usize, what: String) -> SdwanError {
            SdwanError::InvalidPlan(format!("line {line_no}: repeated {what}"))
        }
        let mut plan = RecoveryPlan::new();
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["map", s, c] => {
                    let s = SwitchId(id(s, 's', line_no)?);
                    let c = ControllerId(id(c, 'C', line_no)?);
                    if plan.mapping.insert(s, c).is_some() {
                        return Err(repeated(line_no, format!("mapping of {s}")));
                    }
                }
                ["full", s] => {
                    let s = SwitchId(id(s, 's', line_no)?);
                    if !plan.mapping.contains_key(&s) {
                        return Err(SdwanError::InvalidPlan(format!(
                            "line {line_no}: full-SDN switch {s} not mapped (map lines must come first)"
                        )));
                    }
                    if !plan.full_sdn.insert(s) {
                        return Err(repeated(line_no, format!("full-SDN switch {s}")));
                    }
                }
                ["sdn", s, l, c] => {
                    let s = SwitchId(id(s, 's', line_no)?);
                    let l = FlowId(id(l, 'f', line_no)?);
                    let c = ControllerId(id(c, 'C', line_no)?);
                    if plan.sdn.insert((s, l), c).is_some() {
                        return Err(repeated(line_no, format!("selection ({s}, {l})")));
                    }
                }
                _ => {
                    return Err(SdwanError::InvalidPlan(format!(
                        "line {line_no}: unrecognized directive: {line}"
                    )));
                }
            }
        }
        Ok(plan)
    }

    /// The incremental plan: mappings and selections present in `self` but
    /// not in `base`. Useful with successive failures — only the delta
    /// needs new control messages (role handshakes for newly mapped or
    /// remapped switches, `FlowMod`s for new selections).
    pub fn difference(&self, base: &RecoveryPlan) -> RecoveryPlan {
        let mut delta = RecoveryPlan::new();
        for (&s, &c) in &self.mapping {
            if base.mapping.get(&s) != Some(&c) {
                delta.mapping.insert(s, c);
            }
        }
        for (&(s, l), &c) in &self.sdn {
            if base.sdn.get(&(s, l)) != Some(&c) {
                delta.sdn.insert((s, l), c);
            }
        }
        for &s in &self.full_sdn {
            if !base.full_sdn.contains(&s) && delta.mapping.contains_key(&s) {
                delta.full_sdn.insert(s);
            }
        }
        delta
    }

    /// Total switch-to-controller propagation delay of the plan
    /// (`Σ_{(i,l) ∈ Y} D_{i, X(i)}` — the left side of Eq. (5)), in flow·ms.
    pub fn total_control_delay(&self, scenario: &FailureScenario<'_>) -> f64 {
        self.sdn
            .iter()
            .map(|(&(s, _), &c)| scenario.network().ctrl_delay(s, c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SdWanBuilder;

    fn paper_net() -> crate::SdWan {
        SdWanBuilder::att_paper_setup().build().unwrap()
    }

    #[test]
    fn empty_plan_is_valid() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        RecoveryPlan::new().validate(&sc, &prog, false).unwrap();
    }

    #[test]
    fn rejects_mapping_online_switch() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let mut plan = RecoveryPlan::new();
        plan.map_switch(SwitchId(0), ControllerId(0)); // s0 is in C6's domain, online
        assert!(plan.validate(&sc, &prog, false).is_err());
    }

    #[test]
    fn rejects_mapping_to_failed_controller() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let mut plan = RecoveryPlan::new();
        plan.map_switch(SwitchId(13), ControllerId(3));
        assert!(plan.validate(&sc, &prog, false).is_err());
    }

    /// Finds some offline flow with a β = 1 offline switch.
    fn recoverable_pair(
        sc: &FailureScenario<'_>,
        prog: &Programmability,
    ) -> (FlowId, SwitchId, u32) {
        sc.offline_flows()
            .iter()
            .find_map(|&l| {
                prog.flow_entries(l)
                    .iter()
                    .find(|&&(s, _)| sc.is_offline(s))
                    .map(|&(s, p)| (l, s, p))
            })
            .expect("some recoverable flow exists")
    }

    #[test]
    fn rejects_switch_level_sdn_without_mapping() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let (l, s, _) = recoverable_pair(&sc, &prog);
        let mut plan = RecoveryPlan::new();
        plan.set_sdn_via(s, l, *sc.active_controllers().first().unwrap());
        assert!(plan.validate(&sc, &prog, false).is_err());
        // The same plan is legal at flow level.
        plan.validate(&sc, &prog, true).unwrap();
    }

    #[test]
    fn rejects_pair_controller_conflicting_with_mapping() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let (l, s, _) = recoverable_pair(&sc, &prog);
        let c0 = sc.active_controllers()[0];
        let c1 = sc.active_controllers()[1];
        let mut plan = RecoveryPlan::new();
        plan.map_switch(s, c0);
        plan.set_sdn_via(s, l, c1);
        assert!(plan.validate(&sc, &prog, true).is_err());
    }

    #[test]
    fn rejects_beta_zero_selection() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        // An offline flow ending at an offline switch: β = 0 at the
        // destination.
        let (l, s) = sc
            .offline_flows()
            .iter()
            .find_map(|&l| {
                let f = net.flow(l);
                sc.is_offline(f.dst).then_some((l, f.dst))
            })
            .expect("some offline flow ends at an offline switch");
        let mut plan = RecoveryPlan::new();
        plan.map_switch(s, *sc.active_controllers().first().unwrap());
        plan.set_sdn(s, l);
        let err = plan.validate(&sc, &prog, false).unwrap_err();
        assert!(matches!(err, SdwanError::InvalidPlan(m) if m.contains("β = 0")));
    }

    #[test]
    fn full_sdn_costs_gamma() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let c = *sc.active_controllers().first().unwrap();
        let s = SwitchId(10);
        assert!(sc.is_offline(s));
        let mut plan = RecoveryPlan::new();
        plan.map_switch(s, c);
        plan.set_full_sdn(s);
        let usage = plan.controller_usage(&sc);
        assert_eq!(usage.get(&c), Some(&net.gamma(s)));
    }

    #[test]
    fn full_sdn_capacity_check() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let prog = Programmability::compute(&net);
        // Hub switch 13's γ exceeds every active controller's residual
        // capacity in the (C13, C20) failure — the paper's headline case.
        let mut plan = RecoveryPlan::new();
        for &c in sc.active_controllers() {
            assert!(
                net.gamma(SwitchId(13)) > sc.residual_capacity(c),
                "topology must make s13 unrecoverable at switch level ({c})"
            );
            plan.map_switch(SwitchId(13), c);
            plan.set_full_sdn(SwitchId(13));
            assert!(plan.validate(&sc, &prog, false).is_err());
        }
    }

    #[test]
    fn rejects_capacity_overflow() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let worst = *sc
            .active_controllers()
            .iter()
            .min_by_key(|&&c| sc.residual_capacity(c))
            .unwrap();
        let avail = sc.residual_capacity(worst);
        let mut plan = RecoveryPlan::new();
        plan.map_switch(SwitchId(13), worst);
        let mut count = 0;
        for &l in sc.offline_flows() {
            if prog.beta(l, SwitchId(13)) {
                plan.set_sdn(SwitchId(13), l);
                count += 1;
            }
        }
        assert!(
            count > avail,
            "hub must overflow the weakest controller for this test"
        );
        assert!(plan.validate(&sc, &prog, false).is_err());
    }

    #[test]
    fn programmability_sums_selected_entries() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let &l = sc
            .offline_flows()
            .iter()
            .find(|&&l| {
                prog.flow_entries(l)
                    .iter()
                    .filter(|&&(s, _)| sc.is_offline(s))
                    .count()
                    >= 2
            })
            .expect("flow with two recoverable offline switches");
        let entries: Vec<_> = prog
            .flow_entries(l)
            .iter()
            .filter(|&&(s, _)| sc.is_offline(s))
            .take(2)
            .copied()
            .collect();
        let c = *sc.active_controllers().first().unwrap();
        let mut plan = RecoveryPlan::new();
        for &(s, _) in &entries {
            plan.map_switch(s, c);
            plan.set_sdn(s, l);
        }
        let expected: u64 = entries.iter().map(|&(_, p)| p as u64).sum();
        assert_eq!(plan.flow_programmability(&prog, l), expected);
    }

    #[test]
    fn usage_counts_per_controller() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let c = *sc.active_controllers().first().unwrap();
        let mut plan = RecoveryPlan::new();
        for &s in sc.offline_switches() {
            plan.map_switch(s, c);
        }
        let mut expected = 0;
        'outer: for &l in sc.offline_flows() {
            for &(s, _) in prog.flow_entries(l) {
                if sc.is_offline(s) {
                    plan.set_sdn(s, l);
                    expected += 1;
                    if expected == 10 {
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(plan.controller_usage(&sc).get(&c), Some(&expected));
    }

    #[test]
    fn text_roundtrip() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let c = *sc.active_controllers().first().unwrap();
        let mut plan = RecoveryPlan::new();
        let (l, s, _) = recoverable_pair(&sc, &prog);
        plan.map_switch(s, c);
        plan.set_full_sdn(s);
        plan.set_sdn(s, l);
        let other = *sc.offline_switches().iter().find(|&&x| x != s).unwrap();
        plan.map_switch(other, c);
        let text = plan.to_text();
        let parsed = RecoveryPlan::from_text(&text).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn from_text_tolerates_comments_and_blanks() {
        let plan = RecoveryPlan::from_text("# a comment\n\nmap s3 C1\nsdn s3 f7 C1\n").unwrap();
        assert_eq!(plan.controller_of(SwitchId(3)), Some(ControllerId(1)));
        assert!(plan.is_sdn(SwitchId(3), crate::FlowId(7)));
    }

    #[test]
    fn from_text_rejects_malformed() {
        assert!(RecoveryPlan::from_text("map s3").is_err());
        assert!(RecoveryPlan::from_text("map x3 C1").is_err());
        assert!(RecoveryPlan::from_text("bogus s1 C1").is_err());
        assert!(
            RecoveryPlan::from_text("full s9").is_err(),
            "full before map"
        );
        assert!(RecoveryPlan::from_text("sdn s1 f2").is_err());
        // A repeated decision is rejected, naming the second line, whether
        // it conflicts with the first or repeats it.
        for (text, line) in [
            ("map s13 C1\nmap s13 C2\n", "line 2"),
            ("map s13 C1\n# again\nmap s13 C1\n", "line 3"),
            ("map s9 C1\nfull s9\nfull s9\n", "line 3"),
            ("sdn s1 f2 C1\nsdn s1 f2 C3\n", "line 2"),
            ("map s1 C1\nsdn s1 f2 C1\nsdn s1 f2 C1\n", "line 3"),
        ] {
            let err = RecoveryPlan::from_text(text).unwrap_err();
            assert!(
                matches!(&err, SdwanError::InvalidPlan(m) if m.starts_with(line) && m.contains("repeated")),
                "{text:?}: {err}"
            );
        }
        // Distinct flows at one switch are distinct decisions.
        RecoveryPlan::from_text("sdn s1 f2 C1\nsdn s1 f3 C1\n").unwrap();
    }

    /// A small mixed plan as decision lists: two mapped switches (one of
    /// them whole-switch SDN), selections at both, and flow-level
    /// selections at an unmapped switch.
    #[allow(clippy::type_complexity)]
    fn mixed_parts() -> (
        Vec<(SwitchId, ControllerId)>,
        Vec<SwitchId>,
        Vec<(SwitchId, FlowId, ControllerId)>,
    ) {
        let mappings = vec![
            (SwitchId(7), ControllerId(2)),
            (SwitchId(3), ControllerId(0)),
        ];
        let full = vec![SwitchId(7)];
        let sdn = vec![
            (SwitchId(7), FlowId(9), ControllerId(2)),
            (SwitchId(3), FlowId(4), ControllerId(0)),
            (SwitchId(5), FlowId(1), ControllerId(1)),
            (SwitchId(7), FlowId(2), ControllerId(2)),
            (SwitchId(5), FlowId(0), ControllerId(3)),
            (SwitchId(3), FlowId(1), ControllerId(0)),
        ];
        (mappings, full, sdn)
    }

    #[test]
    fn from_parts_matches_insert_built_plan() {
        let (mappings, full, sdn) = mixed_parts();
        let mut inserted = RecoveryPlan::new();
        for &(s, c) in &mappings {
            inserted.map_switch(s, c);
        }
        for &s in &full {
            inserted.set_full_sdn(s);
        }
        for &(s, l, c) in &sdn {
            inserted.set_sdn_via(s, l, c);
        }
        // Every rotation and the reversal of every list builds the same
        // plan: the input order is irrelevant.
        for shift in 0..sdn.len() {
            let mut m = mappings.clone();
            m.rotate_left(shift % mappings.len());
            let mut y = sdn.clone();
            y.rotate_left(shift);
            assert_eq!(
                RecoveryPlan::from_parts(m, full.clone(), y.clone()),
                inserted
            );
            y.reverse();
            assert_eq!(
                RecoveryPlan::from_parts(mappings.clone(), full.clone(), y),
                inserted
            );
        }
        assert_eq!(
            RecoveryPlan::from_parts(vec![], vec![], vec![]),
            RecoveryPlan::new()
        );
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn from_parts_panics_on_repeated_pair() {
        let (mappings, full, mut sdn) = mixed_parts();
        sdn.push((SwitchId(5), FlowId(1), ControllerId(2)));
        RecoveryPlan::from_parts(mappings, full, sdn);
    }

    #[test]
    #[should_panic(expected = "mapped twice")]
    fn from_parts_panics_on_repeated_switch() {
        let (mut mappings, full, sdn) = mixed_parts();
        mappings.push((SwitchId(3), ControllerId(0)));
        RecoveryPlan::from_parts(mappings, full, sdn);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn from_parts_panics_on_repeated_full_sdn_switch() {
        let (mappings, mut full, sdn) = mixed_parts();
        full.push(SwitchId(7));
        RecoveryPlan::from_parts(mappings, full, sdn);
    }

    #[test]
    #[should_panic(expected = "full-SDN switch s5 is unmapped")]
    fn from_parts_panics_on_unmapped_full_sdn_switch() {
        let (mappings, mut full, sdn) = mixed_parts();
        full.push(SwitchId(5));
        RecoveryPlan::from_parts(mappings, full, sdn);
    }

    #[test]
    fn recovered_switches_union() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let (l, s, _) = recoverable_pair(&sc, &prog);
        let c = *sc.active_controllers().first().unwrap();
        let mut plan = RecoveryPlan::new();
        // One mapped switch without selections, one flow-level selection.
        let other = *sc.offline_switches().iter().find(|&&x| x != s).unwrap();
        plan.map_switch(other, c);
        plan.set_sdn_via(s, l, c);
        let rec = plan.recovered_switches();
        assert!(rec.contains(&s) && rec.contains(&other));
        assert_eq!(rec.len(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn recovered_switch_count_matches_set(
            mapped in proptest::collection::vec((0usize..12, 0usize..3), 0..=8),
            selected in proptest::collection::vec((0usize..12, 0usize..6, 0usize..3), 0..=16),
        ) {
            let mut plan = RecoveryPlan::new();
            for (s, c) in mapped {
                plan.map_switch(SwitchId(s), ControllerId(c));
            }
            for (s, l, c) in selected {
                plan.set_sdn_via(SwitchId(s), FlowId(l), ControllerId(c));
            }
            proptest::prop_assert_eq!(
                plan.recovered_switch_count(),
                plan.recovered_switches().len()
            );
        }
    }
}
