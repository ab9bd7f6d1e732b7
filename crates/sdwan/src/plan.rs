//! Recovery plans: the decision variables `X` (switch → controller) and `Y`
//! (flow is SDN-routed at switch) of the FMSSM problem, plus validation.
//!
//! One plan type covers all four solution families the paper compares:
//!
//! * **Switch-level hybrid plans** (PM, Optimal): switches are mapped to one
//!   controller each ([`PlanBuilder::map_switch`]) and individual flows are
//!   put in SDN mode at mapped switches ([`PlanBuilder::set_sdn`]); each
//!   SDN-mode flow costs one capacity unit at the switch's controller.
//! * **Whole-switch plans** (RetroFlow, plain OpenFlow remapping): a mapped
//!   switch marked [`PlanBuilder::set_full_sdn`] routes *every* flow with
//!   OpenFlow, so it costs its full `γ_i` at the controller.
//! * **Flow-level plans** (PG): `(switch, flow)` pairs may be assigned to
//!   *different* controllers via [`PlanBuilder::set_sdn_via`], bypassing
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
/// The plan is three lists sorted switch-major, without repeats: lookups
/// are binary searches, whole-plan passes are merge walks. Algorithms emit
/// through [`RecoveryPlan::from_parts`], hand-written plans [`PlanBuilder`].
///
/// # Example
///
/// ```
/// use pm_sdwan::{PlanBuilder, RecoveryPlan, SwitchId, FlowId, ControllerId};
/// let mut builder = PlanBuilder::default();
/// builder.map_switch(SwitchId(13), ControllerId(1));
/// builder.set_sdn(SwitchId(13), FlowId(42));
/// let plan = builder.build();
/// assert!(plan.is_sdn(SwitchId(13), FlowId(42)));
/// // Plans serialize to an auditable text format and back.
/// let restored = RecoveryPlan::from_text(&plan.to_text())?;
/// assert_eq!(restored, plan);
/// # Ok::<(), pm_sdwan::SdwanError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The paper's `X`: switch → controller mapping, ascending by switch.
    mapping: Vec<(SwitchId, ControllerId)>,
    /// The paper's `Y`, annotated with the controlling controller of each
    /// SDN-mode `(switch, flow)` pair, ascending by `(switch, flow)`.
    sdn: Vec<(SwitchId, FlowId, ControllerId)>,
    /// Switches running their *entire* flow population under OpenFlow
    /// (switch-level solutions), ascending; they cost `γ_i` capacity units.
    /// Every one of them is mapped.
    full_sdn: Vec<SwitchId>,
}

impl RecoveryPlan {
    /// An empty plan (nothing recovered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a plan from its three decision lists — switch mappings,
    /// whole-switch SDN switches, `(switch, flow, controller)` selections —
    /// in any order. A list already in switch-major order (as the
    /// heuristics emit it) is checked and kept; any other is sorted.
    ///
    /// # Panics
    ///
    /// On a repeated switch, full-SDN switch or `(switch, flow)` pair, or an
    /// unmapped full-SDN switch: each is a bug in the emitting algorithm.
    pub fn from_parts(
        mut mapping: Vec<(SwitchId, ControllerId)>,
        mut full_sdn: Vec<SwitchId>,
        mut sdn: Vec<(SwitchId, FlowId, ControllerId)>,
    ) -> Self {
        if let Some(&(s, _)) = sort_unique(&mut mapping, |&(s, _)| s) {
            panic!("switch {s} mapped twice");
        }
        if let Some(s) = sort_unique(&mut full_sdn, |&s| s) {
            panic!("full-SDN switch {s} listed twice");
        }
        if let Some(&(s, l, _)) = sort_unique(&mut sdn, |&(s, l, _)| (s, l)) {
            panic!("pair ({s}, {l}) selected twice");
        }
        let plan = RecoveryPlan {
            mapping,
            sdn,
            full_sdn,
        };
        let mut mapped = plan.mapping.iter();
        if let Some(s) = plan.full_sdn.iter().find(|&&s| !mapped.any(|m| m.0 == s)) {
            panic!("full-SDN switch {s} is unmapped");
        }
        plan
    }

    /// The controller switch `s` is mapped to, if any.
    pub fn controller_of(&self, s: SwitchId) -> Option<ControllerId> {
        let i = self.mapping.binary_search_by_key(&s, |&(m, _)| m).ok()?;
        Some(self.mapping[i].1)
    }

    /// `true` if switch `s` is in whole-switch SDN mode.
    pub fn is_full_sdn(&self, s: SwitchId) -> bool {
        self.full_sdn.binary_search(&s).is_ok()
    }

    /// `true` if flow `l` is SDN-routed at switch `s`.
    pub fn is_sdn(&self, s: SwitchId, l: FlowId) -> bool {
        self.sdn
            .binary_search_by_key(&(s, l), |&(s, l, _)| (s, l))
            .is_ok()
    }

    /// Iterator over switch mappings, ordered by switch id.
    pub fn mappings(&self) -> impl Iterator<Item = (SwitchId, ControllerId)> + '_ {
        self.mapping.iter().copied()
    }

    /// Iterator over `(switch, flow, controller)` SDN selections, in order.
    pub fn sdn_selections(&self) -> impl Iterator<Item = (SwitchId, FlowId, ControllerId)> + '_ {
        self.sdn.iter().copied()
    }

    /// Iterator over whole-switch SDN switches, ascending; each is mapped.
    pub fn full_sdn_switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.full_sdn.iter().copied()
    }

    /// Number of SDN-mode `(switch, flow)` selections.
    pub fn sdn_count(&self) -> usize {
        self.sdn.len()
    }

    /// Switches this plan recovers — every mapped switch plus any switch
    /// with a flow-level selection — counted by one merge walk.
    pub fn recovered_switch_count(&self) -> usize {
        // An unmapped switch's selections are adjacent: count each run once.
        let mut last = None;
        let unmapped = self
            .annotated_selections()
            .filter(|&(s, _, _, mapped, _)| mapped.is_none() && last.replace(s) != Some(s));
        self.mapping.len() + unmapped.count()
    }

    /// The mappings of whole-switch SDN switches, ascending: one merge walk
    /// (every full-SDN switch is mapped).
    pub(crate) fn full_sdn_mappings(&self) -> impl Iterator<Item = (SwitchId, ControllerId)> + '_ {
        let mut mapped = self.mapping.iter().copied();
        self.full_sdn
            .iter()
            .filter_map(move |&s| mapped.find(|m| m.0 == s))
    }

    /// Each selection `(s, l, c)` with the controller `s` is mapped to and
    /// whether `s` is whole-switch SDN, in selection order: one merge walk
    /// over the three lists instead of a lookup per selection.
    pub(crate) fn annotated_selections(
        &self,
    ) -> impl Iterator<Item = (SwitchId, FlowId, ControllerId, Option<ControllerId>, bool)> + '_
    {
        let mut mapped = self.mapping.iter().peekable();
        let mut full = self.full_sdn.iter().peekable();
        self.sdn.iter().map(move |&(s, l, c)| {
            while mapped.next_if(|&&(m, _)| m < s).is_some() {}
            while full.next_if(|&&f| f < s).is_some() {}
            let mc = mapped.peek().filter(|&&&(m, _)| m == s).map(|&&(_, mc)| mc);
            (s, l, c, mc, full.peek() == Some(&&s))
        })
    }

    /// Dense per-controller accumulation backing both
    /// [`RecoveryPlan::controller_usage`] and validation: `used[j]` is the
    /// load added to controller `j`, `touched[j]` is whether the plan
    /// references controller `j` at all (a referenced controller can have
    /// zero added load when a full-SDN switch has `γ_i = 0`). Out-of-range
    /// controller ids in hand-written plans grow the tables on demand.
    pub(crate) fn usage_tables(&self, scenario: &FailureScenario<'_>) -> (Vec<u32>, Vec<bool>) {
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
        for (s, c) in self.full_sdn_mappings() {
            bump(&mut used, &mut touched, c, net.gamma(s));
        }
        for (_, _, c, _, _) in self.annotated_selections().filter(|&(.., full)| !full) {
            bump(&mut used, &mut touched, c, 1);
        }
        (used, touched)
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
            .filter(|&&(s, _)| self.is_sdn(s, l))
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
        for &(s, c) in &self.mapping {
            if !scenario.is_offline(s) {
                return Err(SdwanError::InvalidPlan(format!("{s} is not offline")));
            }
            if !scenario.is_active(c) {
                return Err(SdwanError::InvalidPlan(format!("{c} is not active")));
            }
        }
        for (s, l, c, mapped, _) in self.annotated_selections() {
            let violation = if !scenario.is_offline(s) {
                format!("SDN pair at online switch {s}")
            } else if !scenario.is_active(c) {
                format!("SDN pair ({s}, {l}) assigned to failed controller {c}")
            } else if !scenario.is_offline_flow(l) {
                format!("{l} is not an offline flow")
            } else if !prog.beta(l, s) {
                format!("β = 0 for {l} at {s}: SDN mode has no effect (Eq. (1))")
            } else if let Some(mc) = mapped.filter(|&mc| mc != c) {
                format!("pair ({s}, {l}) uses {c} but {s} is mapped to {mc}")
            } else if mapped.is_none() && !flow_level {
                format!("SDN mode for {l} at unmapped switch {s} (switch-level plan)")
            } else {
                continue;
            };
            return Err(SdwanError::InvalidPlan(violation));
        }
        // Every loaded controller is active: the loops above checked it.
        let (used, _) = self.usage_tables(scenario);
        for (j, &used) in used.iter().enumerate().filter(|&(_, &u)| u > 0) {
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

    /// Appends the [`RecoveryPlan::to_text`] serialization to `out`, for
    /// callers that render many plans into one carried buffer.
    pub fn to_text_into(&self, out: &mut String) {
        for &(s, c) in &self.mapping {
            push_line(out, &[("map s", s.index()), (" C", c.index())]);
        }
        for &s in &self.full_sdn {
            push_line(out, &[("full s", s.index())]);
        }
        for &(s, l, c) in &self.sdn {
            let fields = [("sdn s", s.index()), (" f", l.index()), (" C", c.index())];
            push_line(out, &fields);
        }
    }

    /// Parses the format produced by [`RecoveryPlan::to_text`]. Blank lines
    /// and `#` comments are ignored.
    ///
    /// Each decision may appear once: a second `map` line for a switch, a
    /// second `full` line for a switch or a second `sdn` line for a
    /// `(switch, flow)` pair is rejected, even when it repeats the first,
    /// so the parsed plan is never a silent merge of conflicting lines.
    /// Parsing sorts the lines' decisions: any line order is `O(n log n)`.
    ///
    /// # Errors
    ///
    /// Returns [`SdwanError::InvalidPlan`] describing the first malformed
    /// or repeated line in file order.
    pub fn from_text(text: &str) -> Result<RecoveryPlan, SdwanError> {
        fn id(token: &str, prefix: char) -> Result<usize, String> {
            let n = token.strip_prefix(prefix).and_then(|n| n.parse().ok());
            n.ok_or_else(|| format!("expected {prefix}<number>, got {token}"))
        }
        // Decisions sort by key, then line: a key's later lines repeat it.
        let (mut maps, mut full, mut sdn) = (Vec::new(), Vec::new(), Vec::new());
        let mut error: Option<(usize, String)> = None;
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mut parse = || {
                match fields.as_slice() {
                    ["map", s, c] => {
                        maps.push((SwitchId(id(s, 's')?), line_no, ControllerId(id(c, 'C')?)))
                    }
                    ["full", s] => full.push((SwitchId(id(s, 's')?), line_no)),
                    ["sdn", s, l, c] => sdn.push((
                        (SwitchId(id(s, 's')?), FlowId(id(l, 'f')?)),
                        line_no,
                        ControllerId(id(c, 'C')?),
                    )),
                    _ => return Err(format!("unrecognized directive: {line}")),
                }
                Ok(())
            };
            if let Err(what) = parse() {
                // No later line can hold the first error.
                error = Some((line_no, what));
                break;
            }
        }
        maps.sort_unstable();
        full.sort_unstable();
        sdn.sort_unstable();
        // A line-by-line parse stops at the earliest line that fails
        // against all the lines before it.
        let mut fail = |line_no: usize, what: String| {
            if !error.as_ref().is_some_and(|&(first, _)| first < line_no) {
                error = Some((line_no, what));
            }
        };
        for w in maps.windows(2).filter(|w| w[0].0 == w[1].0) {
            fail(w[1].1, format!("repeated mapping of {}", w[1].0));
        }
        let mut mapped = maps.iter().peekable();
        for (k, &(s, line_no)) in full.iter().enumerate() {
            while mapped.next_if(|m| m.0 < s).is_some() {}
            if !mapped.peek().is_some_and(|m| m.0 == s && m.1 < line_no) {
                let what = format!("full-SDN switch {s} not mapped (map lines must come first)");
                fail(line_no, what);
            } else if k > 0 && full[k - 1].0 == s {
                fail(line_no, format!("repeated full-SDN switch {s}"));
            }
        }
        for w in sdn.windows(2).filter(|w| w[0].0 == w[1].0) {
            let ((s, l), line_no, _) = w[1];
            fail(line_no, format!("repeated selection ({s}, {l})"));
        }
        if let Some((line_no, what)) = error {
            return Err(SdwanError::InvalidPlan(format!("line {line_no}: {what}")));
        }
        Ok(RecoveryPlan {
            mapping: maps.into_iter().map(|(s, _, c)| (s, c)).collect(),
            sdn: sdn.into_iter().map(|((s, l), _, c)| (s, l, c)).collect(),
            full_sdn: full.into_iter().map(|(s, _)| s).collect(),
        })
    }

    /// The incremental plan: mappings and selections present in `self` but
    /// not in `base`. Useful with successive failures — only the delta
    /// needs new control messages (role handshakes for newly mapped or
    /// remapped switches, `FlowMod`s for new selections).
    pub fn difference(&self, base: &RecoveryPlan) -> RecoveryPlan {
        let mapping = sorted_minus(&self.mapping, &base.mapping, |&(s, _)| s);
        let sdn = sorted_minus(&self.sdn, &base.sdn, |&(s, l, _)| (s, l));
        let mut mapped = mapping.iter().peekable();
        let full_sdn = sorted_minus(&self.full_sdn, &base.full_sdn, |&s| s)
            .into_iter()
            .filter(|&s| {
                while mapped.next_if(|&&(m, _)| m < s).is_some() {}
                mapped.peek().is_some_and(|&&(m, _)| m == s)
            })
            .collect();
        RecoveryPlan {
            mapping,
            sdn,
            full_sdn,
        }
    }

    /// Total switch-to-controller propagation delay of the plan
    /// (`Σ_{(i,l) ∈ Y} D_{i, X(i)}` — the left side of Eq. (5)), in flow·ms.
    pub fn total_control_delay(&self, scenario: &FailureScenario<'_>) -> f64 {
        let net = scenario.network();
        self.sdn.iter().map(|&(s, _, c)| net.ctrl_delay(s, c)).sum()
    }
}

/// Appends one line of [`RecoveryPlan::to_text`], each field a literal
/// then a decimal id, assembled on the stack without `fmt` and pushed once.
fn push_line(out: &mut String, fields: &[(&str, usize)]) {
    // Room for the longest line, `sdn s<id> f<id> C<id>\n` with three
    // 20-digit ids.
    let mut buf = [0u8; 72];
    let mut len = 0;
    for &(literal, id) in fields {
        let end = len + literal.len();
        buf[len..end].copy_from_slice(literal.as_bytes());
        let digits = id.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut rest = id;
        for b in buf[end..end + digits].iter_mut().rev() {
            *b = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        len = end + digits;
    }
    buf[len] = b'\n';
    out.push_str(std::str::from_utf8(&buf[..=len]).expect("ASCII line"));
}

/// Sorts `v` by `key` unless its keys already ascend strictly; returns an
/// element whose key repeats, if any.
fn sort_unique<T, K: Ord>(v: &mut [T], key: impl Fn(&T) -> K) -> Option<&T> {
    if v.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        return None;
    }
    v.sort_unstable_by_key(&key);
    let repeat = v.windows(2).find(|w| key(&w[0]) == key(&w[1]));
    repeat.map(|w| &w[0])
}

/// The entries of sorted `a` that sorted `b` lacks — no entry under the
/// same key, or a different one — by one merge walk.
fn sorted_minus<T: Copy + PartialEq, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut b = b.iter().peekable();
    a.iter()
        .copied()
        .filter(|x| {
            while b.next_if(|y| key(y) < key(x)).is_some() {}
            b.peek() != Some(&x)
        })
        .collect()
}

/// Decision-by-decision construction of a [`RecoveryPlan`], for
/// hand-written plans and tests; [`PlanBuilder::build`] is
/// [`RecoveryPlan::from_parts`] over the decisions made.
#[derive(Debug, Clone, Default)]
pub struct PlanBuilder {
    mapping: BTreeMap<SwitchId, ControllerId>,
    sdn: BTreeMap<(SwitchId, FlowId), ControllerId>,
    full_sdn: BTreeSet<SwitchId>,
}

impl PlanBuilder {
    /// Maps switch `s` to controller `c`, replacing any previous mapping.
    pub fn map_switch(&mut self, s: SwitchId, c: ControllerId) {
        self.mapping.insert(s, c);
    }

    /// Marks flow `l` as SDN-routed at mapped switch `s`, under its
    /// controller; `false` if the pair was already selected. Panics if `s`
    /// is unmapped (see [`PlanBuilder::set_sdn_via`]).
    pub fn set_sdn(&mut self, s: SwitchId, l: FlowId) -> bool {
        let c = self.mapping.get(&s).copied();
        self.set_sdn_via(s, l, c.expect("switch must be mapped before set_sdn"))
    }

    /// Marks flow `l` as SDN-routed at switch `s` under controller `c`,
    /// bypassing the switch mapping (flow-level, PG-style plans); `false`
    /// if the pair was already selected.
    pub fn set_sdn_via(&mut self, s: SwitchId, l: FlowId, c: ControllerId) -> bool {
        self.sdn.insert((s, l), c).is_none()
    }

    /// Puts switch `s` in whole-switch SDN mode (RetroFlow-style): it costs
    /// its full `γ_i`. Panics if `s` has not been mapped.
    pub fn set_full_sdn(&mut self, s: SwitchId) {
        assert!(self.mapping.contains_key(&s), "{s} is unmapped");
        self.full_sdn.insert(s);
    }

    /// The plan of every decision made so far.
    pub fn build(&self) -> RecoveryPlan {
        RecoveryPlan::from_parts(
            self.mapping.iter().map(|(&s, &c)| (s, c)).collect(),
            self.full_sdn.iter().copied().collect(),
            self.sdn.iter().map(|(&(s, l), &c)| (s, l, c)).collect(),
        )
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
        let mut plan = PlanBuilder::default();
        plan.map_switch(SwitchId(0), ControllerId(0)); // s0 is in C6's domain, online
        assert!(plan.build().validate(&sc, &prog, false).is_err());
    }

    #[test]
    fn rejects_mapping_to_failed_controller() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let mut plan = PlanBuilder::default();
        plan.map_switch(SwitchId(13), ControllerId(3));
        assert!(plan.build().validate(&sc, &prog, false).is_err());
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
        let mut plan = PlanBuilder::default();
        plan.set_sdn_via(s, l, *sc.active_controllers().first().unwrap());
        assert!(plan.build().validate(&sc, &prog, false).is_err());
        // The same plan is legal at flow level.
        plan.build().validate(&sc, &prog, true).unwrap();
    }

    #[test]
    fn rejects_pair_controller_conflicting_with_mapping() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let (l, s, _) = recoverable_pair(&sc, &prog);
        let c0 = sc.active_controllers()[0];
        let c1 = sc.active_controllers()[1];
        let mut plan = PlanBuilder::default();
        plan.map_switch(s, c0);
        plan.set_sdn_via(s, l, c1);
        assert!(plan.build().validate(&sc, &prog, true).is_err());
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
        let mut plan = PlanBuilder::default();
        plan.map_switch(s, *sc.active_controllers().first().unwrap());
        plan.set_sdn(s, l);
        let err = plan.build().validate(&sc, &prog, false).unwrap_err();
        assert!(matches!(err, SdwanError::InvalidPlan(m) if m.contains("β = 0")));
    }

    #[test]
    fn full_sdn_costs_gamma() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let c = *sc.active_controllers().first().unwrap();
        let s = SwitchId(10);
        assert!(sc.is_offline(s));
        let mut plan = PlanBuilder::default();
        plan.map_switch(s, c);
        plan.set_full_sdn(s);
        let usage = plan.build().controller_usage(&sc);
        assert_eq!(usage.get(&c), Some(&net.gamma(s)));
    }

    #[test]
    fn full_sdn_capacity_check() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let prog = Programmability::compute(&net);
        // Hub switch 13's γ exceeds every active controller's residual
        // capacity in the (C13, C20) failure — the paper's headline case.
        let mut plan = PlanBuilder::default();
        for &c in sc.active_controllers() {
            assert!(
                net.gamma(SwitchId(13)) > sc.residual_capacity(c),
                "topology must make s13 unrecoverable at switch level ({c})"
            );
            plan.map_switch(SwitchId(13), c);
            plan.set_full_sdn(SwitchId(13));
            assert!(plan.build().validate(&sc, &prog, false).is_err());
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
        let mut plan = PlanBuilder::default();
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
        assert!(plan.build().validate(&sc, &prog, false).is_err());
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
        let mut plan = PlanBuilder::default();
        for &(s, _) in &entries {
            plan.map_switch(s, c);
            plan.set_sdn(s, l);
        }
        let expected: u64 = entries.iter().map(|&(_, p)| p as u64).sum();
        assert_eq!(plan.build().flow_programmability(&prog, l), expected);
    }

    #[test]
    fn usage_counts_per_controller() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let c = *sc.active_controllers().first().unwrap();
        let mut plan = PlanBuilder::default();
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
        assert_eq!(plan.build().controller_usage(&sc).get(&c), Some(&expected));
    }

    #[test]
    fn text_roundtrip() {
        let net = paper_net();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let prog = Programmability::compute(&net);
        let c = *sc.active_controllers().first().unwrap();
        let mut plan = PlanBuilder::default();
        let (l, s, _) = recoverable_pair(&sc, &prog);
        plan.map_switch(s, c);
        plan.set_full_sdn(s);
        plan.set_sdn(s, l);
        let other = *sc.offline_switches().iter().find(|&&x| x != s).unwrap();
        plan.map_switch(other, c);
        let plan = plan.build();
        let parsed = RecoveryPlan::from_text(&plan.to_text()).unwrap();
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
        let mut inserted = PlanBuilder::default();
        for &(s, c) in &mappings {
            inserted.map_switch(s, c);
        }
        for &s in &full {
            inserted.set_full_sdn(s);
        }
        for &(s, l, c) in &sdn {
            inserted.set_sdn_via(s, l, c);
        }
        let inserted = inserted.build();
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
        let mut plan = PlanBuilder::default();
        // One mapped switch without selections, one flow-level selection.
        let other = *sc.offline_switches().iter().find(|&&x| x != s).unwrap();
        plan.map_switch(other, c);
        plan.set_sdn_via(s, l, c);
        assert_eq!(plan.build().recovered_switch_count(), 2);
    }

    /// A deterministic Fisher–Yates shuffle (xorshift64).
    fn shuffle<T>(items: &mut [T], mut seed: u64) {
        for i in (1..items.len()).rev() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            items.swap(i, (seed % (i as u64 + 1)) as usize);
        }
    }

    /// 50k decisions: 1,000 mapped switches with 49 selections each, plus
    /// every tenth switch whole-switch SDN.
    fn large_plan() -> RecoveryPlan {
        let mapping = (0..1000).map(|s| (SwitchId(s), ControllerId(s % 7)));
        let sdn = (0..1000).flat_map(|s| (0..49).map(move |l| (s, l)));
        RecoveryPlan::from_parts(
            mapping.collect(),
            (0..1000).step_by(10).map(SwitchId).collect(),
            sdn.map(|(s, l)| (SwitchId(s), FlowId(l * 3), ControllerId(s % 7)))
                .collect(),
        )
    }

    /// `map` and `sdn` lines in any order, then the `full` lines (which
    /// must follow their `map` lines) in any order.
    fn reordered_text(plan: &RecoveryPlan, order: impl Fn(&mut Vec<&str>)) -> String {
        let text = plan.to_text();
        let (mut full, mut rest): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| l.starts_with("full"));
        order(&mut rest);
        order(&mut full);
        rest.extend(full);
        rest.join("\n")
    }

    #[test]
    fn from_text_parses_any_line_order() {
        let plan = large_plan();
        assert_eq!(plan.sdn_count() + plan.mappings().count(), 50_000);
        assert_eq!(RecoveryPlan::from_text(&plan.to_text()).unwrap(), plan);
        let reversed = reordered_text(&plan, |lines| lines.reverse());
        assert_eq!(RecoveryPlan::from_text(&reversed).unwrap(), plan);
        for seed in [1, 0x9e37_79b9_7f4a_7c15] {
            let shuffled = reordered_text(&plan, |lines| shuffle(lines, seed));
            assert_eq!(RecoveryPlan::from_text(&shuffled).unwrap(), plan);
        }
    }

    #[test]
    fn shuffled_text_names_the_earlier_repeat() {
        let plan = large_plan();
        let text = reordered_text(&plan, |lines| shuffle(lines, 7));
        let mut lines: Vec<&str> = text.lines().collect();
        let n = lines.len();
        let (last, tenth) = (lines[n - 1], lines[10]);
        // A copy of the last line early on is that decision's *first*
        // occurrence: its repeat is the original, now the last line. A copy
        // of the tenth line near the end is the earlier repeat.
        lines.insert(n / 2, last);
        lines.insert(n - 5, tenth);
        let repeat_line = n - 5 + 1;
        let mut seen = BTreeSet::new();
        let first_repeat = lines.iter().position(|l| !seen.insert(*l)).unwrap() + 1;
        assert_eq!(first_repeat, repeat_line);
        let err = RecoveryPlan::from_text(&lines.join("\n")).unwrap_err();
        let want = format!("line {repeat_line}: repeated");
        assert!(
            matches!(&err, SdwanError::InvalidPlan(m) if m.starts_with(&want)),
            "{err}"
        );
    }

    #[test]
    fn from_text_reports_the_first_failing_line() {
        for (text, want) in [
            ("map s1 C1\nmap s1 C2\nbogus\n", "line 2: repeated mapping"),
            ("bogus\nmap s1 C1\nmap s1 C1\n", "line 1: unrecognized"),
            (
                "full s3\nmap s3 C1\nfull s3\n",
                "line 1: full-SDN switch s3 not mapped",
            ),
            (
                "map s3 C1\nfull s3\nmap s3 C2\nfull s3\n",
                "line 3: repeated mapping",
            ),
            (
                "map s9 C1\nfull s9\nsdn s1 f1 C2\nfull s9\nsdn s1 f1 C2\n",
                "line 4: repeated full",
            ),
            (
                "sdn s1 f1 C2\nmap s3 C1\nsdn s1 f1 C2\nmap sX C1\n",
                "line 3: repeated selection",
            ),
        ] {
            let err = RecoveryPlan::from_text(text).unwrap_err();
            assert!(
                matches!(&err, SdwanError::InvalidPlan(m) if m.starts_with(want)),
                "{text:?}: {err}"
            );
        }
    }

    #[test]
    fn builder_replaces_mappings_and_reports_repeated_pairs() {
        let mut plan = PlanBuilder::default();
        plan.map_switch(SwitchId(4), ControllerId(1));
        plan.map_switch(SwitchId(4), ControllerId(2));
        assert!(plan.set_sdn(SwitchId(4), FlowId(9)));
        assert!(!plan.set_sdn_via(SwitchId(4), FlowId(9), ControllerId(3)));
        let plan = plan.build();
        assert_eq!(plan.controller_of(SwitchId(4)), Some(ControllerId(2)));
        let selections: Vec<_> = plan.sdn_selections().collect();
        assert_eq!(selections, [(SwitchId(4), FlowId(9), ControllerId(3))]);
    }

    #[test]
    #[should_panic(expected = "s5 is unmapped")]
    fn builder_rejects_full_sdn_at_unmapped_switch() {
        PlanBuilder::default().set_full_sdn(SwitchId(5));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn recovered_switch_count_matches_set(
            mapped in proptest::collection::vec((0usize..12, 0usize..3), 0..=8),
            selected in proptest::collection::vec((0usize..12, 0usize..6, 0usize..3), 0..=16),
        ) {
            let mut plan = PlanBuilder::default();
            let mut switches = BTreeSet::new();
            for (s, c) in mapped {
                plan.map_switch(SwitchId(s), ControllerId(c));
                switches.insert(s);
            }
            for (s, l, c) in selected {
                plan.set_sdn_via(SwitchId(s), FlowId(l), ControllerId(c));
                switches.insert(s);
            }
            proptest::prop_assert_eq!(plan.build().recovered_switch_count(), switches.len());
        }
    }
}
