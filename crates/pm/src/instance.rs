//! The FMSSM problem instance (paper Section IV).
//!
//! [`FmssmInstance`] flattens a [`FailureScenario`] plus the precomputed
//! [`Programmability`] table into dense index spaces — offline switches
//! `0..N`, active controllers `0..M`, offline flows `0..L` — exactly the
//! index sets of the formulation, so algorithms work on compact vectors.
//! Building one costs what the case contains: its `E` offline `β = 1`
//! entries, read once from the table's switch rows. Delays and delay
//! orders are read from the network, so no per-case `N × M` table exists.

use pm_sdwan::metrics::ControllerUsage;
use pm_sdwan::{
    ControllerId, FailureScenario, FlowId, IndexSpace, NetCache, PlanMetrics, Programmability,
    RecoveryPlan, SdwanError, SwitchId,
};

/// A dense view of one recovery problem.
///
/// Id-to-position resolution is a direct array read: the network's
/// [`IndexSpace`] sizes per-id tables (`switch_pos`, `flow_pos`,
/// `ctrl_pos`) holding each id's dense position, `None` when the id is not
/// part of this instance. No keyed map is consulted anywhere in
/// construction or lookup.
#[derive(Debug, Clone)]
pub struct FmssmInstance<'a, 'net> {
    scenario: &'a FailureScenario<'net>,
    prog: &'a Programmability,
    /// Offline switches (the paper's `S`), sorted by id.
    switches: Vec<SwitchId>,
    /// Per switch id: its dense position, `None` when online.
    switch_pos: Vec<Option<usize>>,
    /// Active controllers (the paper's `C`), sorted by id.
    controllers: Vec<ControllerId>,
    /// Per controller id: its dense position, `None` when failed. Delay
    /// orders are the network's per-switch order filtered through it.
    ctrl_pos: Vec<Option<usize>>,
    /// Residual capacity per active controller (aligned with
    /// `controllers`) — the paper's `A_j^rest`.
    residual: Vec<u32>,
    /// Offline flows (the paper's `F`), sorted by id.
    flows: Vec<FlowId>,
    /// Per flow id: its dense position, `None` when online.
    flow_pos: Vec<Option<usize>>,
    /// Per offline flow: its `(switch position, p̄)` entries at offline
    /// switches with `β = 1`, in path order — row `lp` is
    /// `entries_by_flow[flow_offsets[lp]..flow_offsets[lp + 1]]`. The
    /// transpose of the switch rows, put back in path order.
    entries_by_flow: Vec<(usize, u32)>,
    /// `L + 1` row starts into `entries_by_flow`.
    flow_offsets: Vec<usize>,
    /// Per flow-row entry, aligned with `entries_by_flow`: the same
    /// entry's switch-major number, its index into `entries_by_switch`.
    /// Filled by the counting transpose and permuted with the path-order
    /// sort, so entry `k` of flow `lp` is switch-major entry
    /// `switch_major[flow_offsets[lp] + k]`.
    switch_major: Vec<u32>,
    /// Per offline switch: its `(flow position, p̄)` entries, ascending by
    /// flow — row `ip` is
    /// `entries_by_switch[switch_offsets[ip]..switch_offsets[ip + 1]]`.
    /// Every entry of an offline switch's row in the table, in its order:
    /// a flow through an offline switch is offline.
    entries_by_switch: Vec<(usize, u32)>,
    /// `N + 1` row starts into `entries_by_switch`.
    switch_offsets: Vec<usize>,
    /// `γ_i` per offline switch.
    gamma: Vec<u32>,
    /// The most entries on any flow row, taken from the counting pass.
    longest_flow_row: usize,
}

impl<'a, 'net> FmssmInstance<'a, 'net> {
    /// Builds the dense instance for a scenario.
    pub fn new(scenario: &'a FailureScenario<'net>, prog: &'a Programmability) -> Self {
        let net = scenario.network();
        let space = IndexSpace::of(net);
        let switches: Vec<SwitchId> = scenario.offline_switches().to_vec();
        let mut switch_pos = space.switch_table(None);
        for (i, &s) in switches.iter().enumerate() {
            switch_pos[s.index()] = Some(i);
        }
        let controllers: Vec<ControllerId> = scenario.active_controllers().to_vec();
        let mut ctrl_pos = space.controller_table(None);
        for (j, &c) in controllers.iter().enumerate() {
            ctrl_pos[c.index()] = Some(j);
        }
        let residual: Vec<u32> = controllers
            .iter()
            .map(|&c| scenario.residual_capacity(c))
            .collect();
        let flows: Vec<FlowId> = scenario.offline_flows().to_vec();
        let mut flow_pos = space.flow_table(None);
        for (i, &l) in flows.iter().enumerate() {
            flow_pos[l.index()] = Some(i);
        }

        // The switch rows are the table's rows of the offline switches,
        // with flow ids mapped to positions (which keeps them ascending).
        // Each entry's index in its flow's table row is kept in `path_at`
        // for the flow rows below, and the flow rows are counted.
        let entries: usize = switches.iter().map(|&s| prog.switch_entries(s).len()).sum();
        let mut entries_by_switch = Vec::with_capacity(entries);
        let mut path_at = Vec::with_capacity(entries);
        let mut switch_offsets = Vec::with_capacity(switches.len() + 1);
        switch_offsets.push(0);
        let mut flow_offsets = vec![0usize; flows.len() + 1];
        for &s in &switches {
            for &(l, p, k) in prog.switch_entries(s) {
                let lp = flow_pos[l.index()].expect("a flow through an offline switch is offline");
                entries_by_switch.push((lp, p));
                path_at.push(k);
                flow_offsets[lp + 1] += 1;
            }
            switch_offsets.push(entries_by_switch.len());
        }

        // The flow rows: a counting transpose of the switch rows, which
        // leaves each row in switch order; sorting it by the table index
        // restores path order. Rows are a flow's offline β = 1 switches,
        // a handful, so an insertion sort. Each entry carries its
        // switch-major number along.
        let mut longest_flow_row = 0;
        for lp in 0..flows.len() {
            longest_flow_row = longest_flow_row.max(flow_offsets[lp + 1]);
            flow_offsets[lp + 1] += flow_offsets[lp];
        }
        let mut fill = flow_offsets[..flows.len()].to_vec();
        let mut entries_by_flow = vec![(0, 0); entries];
        assert!(u32::try_from(entries).is_ok(), "entry numbers fit in u32");
        let mut order = vec![0u32; entries];
        let mut switch_major = vec![0u32; entries];
        for (ip, row) in switch_offsets.windows(2).enumerate() {
            for e in row[0]..row[1] {
                let (lp, p) = entries_by_switch[e];
                entries_by_flow[fill[lp]] = (ip, p);
                order[fill[lp]] = path_at[e];
                switch_major[fill[lp]] = e as u32;
                fill[lp] += 1;
            }
        }
        for row in flow_offsets.windows(2) {
            for i in row[0] + 1..row[1] {
                let mut j = i;
                while j > row[0] && order[j - 1] > order[j] {
                    order.swap(j - 1, j);
                    entries_by_flow.swap(j - 1, j);
                    switch_major.swap(j - 1, j);
                    j -= 1;
                }
            }
        }

        let gamma: Vec<u32> = switches.iter().map(|&s| net.gamma(s)).collect();
        FmssmInstance {
            scenario,
            prog,
            switches,
            switch_pos,
            controllers,
            ctrl_pos,
            residual,
            flows,
            flow_pos,
            entries_by_flow,
            flow_offsets,
            switch_major,
            entries_by_switch,
            switch_offsets,
            gamma,
            longest_flow_row,
        }
    }

    /// [`FmssmInstance::new`]; `cache` is not read, since every input the
    /// instance needs comes from the scenario, its network and `prog`.
    pub fn with_cache(
        scenario: &'a FailureScenario<'net>,
        prog: &'a Programmability,
        _cache: &NetCache,
    ) -> Self {
        Self::new(scenario, prog)
    }

    /// The underlying scenario.
    pub fn scenario(&self) -> &'a FailureScenario<'net> {
        self.scenario
    }

    /// The programmability table.
    pub fn programmability(&self) -> &'a Programmability {
        self.prog
    }

    /// Offline switches, sorted by id (`N = switches().len()`).
    pub fn switches(&self) -> &[SwitchId] {
        &self.switches
    }

    /// Active controllers, sorted by id (`M = controllers().len()`).
    pub fn controllers(&self) -> &[ControllerId] {
        &self.controllers
    }

    /// Offline flows, sorted by id (`L = flows().len()`).
    pub fn flows(&self) -> &[FlowId] {
        &self.flows
    }

    /// Residual capacities aligned with [`FmssmInstance::controllers`].
    pub fn residuals(&self) -> &[u32] {
        &self.residual
    }

    /// Dense position of an offline switch, if it is offline.
    pub fn switch_position(&self, s: SwitchId) -> Option<usize> {
        self.switch_pos.get(s.index()).copied().flatten()
    }

    /// Dense position of an offline flow, if it is offline.
    pub fn flow_position(&self, l: FlowId) -> Option<usize> {
        self.flow_pos.get(l.index()).copied().flatten()
    }

    /// Dense position of an active controller, if it is active.
    pub fn controller_position(&self, c: ControllerId) -> Option<usize> {
        self.ctrl_pos.get(c.index()).copied().flatten()
    }

    /// `(switch position, p̄)` entries of flow position `lp`, in path order.
    pub fn flow_entries(&self, lp: usize) -> &[(usize, u32)] {
        &self.entries_by_flow[self.flow_offsets[lp]..self.flow_offsets[lp + 1]]
    }

    /// Switch-major numbers of flow position `lp`'s entries, aligned with
    /// [`FmssmInstance::flow_entries`]`(lp)`: entry `k` of that row is
    /// entry `flow_entry_numbers(lp)[k]` in the numbering of
    /// [`FmssmInstance::switch_row_start`].
    pub fn flow_entry_numbers(&self, lp: usize) -> &[u32] {
        &self.switch_major[self.flow_offsets[lp]..self.flow_offsets[lp + 1]]
    }

    /// `(flow position, p̄)` entries of switch position `ip`.
    pub fn switch_entries(&self, ip: usize) -> &[(usize, u32)] {
        &self.entries_by_switch[self.switch_offsets[ip]..self.switch_offsets[ip + 1]]
    }

    /// The number `E` of entries (offline `β = 1` pairs).
    pub fn entry_count(&self) -> usize {
        self.entries_by_switch.len()
    }

    /// The number of switch `ip`'s first entry when all entries are
    /// numbered `0..E` switch-major: entry `k` of
    /// [`FmssmInstance::switch_entries`]`(ip)` is `switch_row_start(ip) + k`.
    pub fn switch_row_start(&self, ip: usize) -> usize {
        self.switch_offsets[ip]
    }

    /// `γ` of switch position `ip`.
    pub fn gamma(&self, ip: usize) -> u32 {
        self.gamma[ip]
    }

    /// `D_ij` for dense positions, read from the network.
    pub fn delay(&self, ip: usize, jp: usize) -> f64 {
        let net = self.scenario.network();
        net.ctrl_delay(self.switches[ip], self.controllers[jp])
    }

    /// Controller positions by ascending delay from switch `ip`, ties
    /// toward the lower position (the paper's `C(i)`): the network's
    /// order of all controllers with the failed ones skipped.
    pub fn controllers_by_delay(&self, ip: usize) -> impl Iterator<Item = usize> + '_ {
        let order = self
            .scenario
            .network()
            .controllers_by_delay(self.switches[ip]);
        order.iter().filter_map(|c| self.ctrl_pos[c.index()])
    }

    /// The ideal-recovery delay bound `G` (Eq. (6)).
    pub fn ideal_delay_g(&self) -> f64 {
        self.scenario.ideal_delay_g()
    }

    /// The paper's `TOTAL_ITERATIONS`: the maximum number of (recoverable)
    /// offline switches on any offline flow's original path.
    pub fn total_iterations(&self) -> usize {
        self.longest_flow_row
    }

    /// Upper bound on the total programmability `Σ_l pro^l`: every `β = 1`
    /// entry selected.
    pub fn total_programmability_ub(&self) -> u64 {
        self.entries_by_flow.iter().map(|&(_, p)| p as u64).sum()
    }

    /// The objective weight λ. Following the paper's reference \[17\], λ is
    /// chosen small enough that the combined objective `r + λ·Σ pro` is
    /// lexicographic: any increase of the least programmability `r` (which
    /// moves in integer steps) outweighs the largest possible change of the
    /// total, i.e. `λ < 1 / (1 + UB(Σ pro))`.
    pub fn lambda(&self) -> f64 {
        1.0 / (1.0 + self.total_programmability_ub() as f64)
    }

    /// Per offline flow, aligned with [`FmssmInstance::flows`]: whether
    /// it has at least one recoverable entry.
    pub fn recoverable_flows(&self) -> impl Iterator<Item = bool> + '_ {
        let ends = &self.flow_offsets[1..];
        ends.iter()
            .zip(&self.flow_offsets)
            .map(|(end, start)| end > start)
    }

    /// Number of offline flows that have at least one recoverable entry.
    pub fn recoverable_flow_count(&self) -> usize {
        self.recoverable_flows().filter(|&r| r).count()
    }

    /// Evaluates the FMSSM objective `r + λ·Σ pro` for a per-flow
    /// programmability vector (aligned with [`FmssmInstance::flows`]),
    /// where `r` is taken over *recoverable* flows only if
    /// `recoverable_only` (flows with no `β = 1` offline switch can never
    /// have positive programmability, so including them pins `r` at 0).
    pub fn objective(&self, per_flow: &[u64], recoverable_only: bool) -> f64 {
        assert_eq!(per_flow.len(), self.flows.len());
        let r = per_flow
            .iter()
            .enumerate()
            .filter(|&(lp, _)| !recoverable_only || !self.flow_entries(lp).is_empty())
            .map(|(_, &p)| p)
            .min()
            .unwrap_or(0);
        let total: u64 = per_flow.iter().sum();
        r as f64 + self.lambda() * total as f64
    }

    /// Checks `plan` against this instance's scenario and scores it: the
    /// result of [`RecoveryPlan::validate`] (same checks in the same
    /// order, same error text), then [`PlanMetrics::compute`] and
    /// [`RecoveryPlan::total_control_delay`] bit for bit, which stay the
    /// reference. One merge walk of the plan's selections against the
    /// instance's switch rows replaces their reads of the network-wide
    /// tables: p̄ and `β` come from the row entry and the recoverable mask
    /// from the flow rows.
    ///
    /// # Errors
    ///
    /// [`SdwanError::InvalidPlan`] describing the first violation.
    pub fn evaluate(
        &self,
        plan: &RecoveryPlan,
        flow_level: bool,
        middle_layer_ms: f64,
    ) -> Result<(PlanMetrics, f64), SdwanError> {
        let invalid = |what: String| Err(SdwanError::InvalidPlan(what));
        let net = self.scenario.network();
        let m = self.controllers.len();
        let mut used = vec![0u32; m];
        // The overhead sums the whole-switch terms first, then the
        // selections, as `PlanMetrics::compute` does.
        let mut overhead = 0.0;
        let mut full = plan.full_sdn_switches().peekable();
        let mut recovered_switches = 0;
        for (s, c) in plan.mappings() {
            recovered_switches += 1;
            let Some(ip) = self.switch_position(s) else {
                return invalid(format!("{s} is not offline"));
            };
            let Some(jp) = self.controller_position(c) else {
                return invalid(format!("{c} is not active"));
            };
            // Every full-SDN switch is mapped, so the two lists walk
            // together.
            if full.next_if_eq(&s).is_some() {
                used[jp] += self.gamma[ip];
                overhead += self.gamma[ip] as f64 * (net.ctrl_delay(s, c) + middle_layer_ms);
            }
        }

        let mut per_flow = vec![0u64; self.flows.len()];
        // `f64`'s `Sum` starts at -0.0, and `total_control_delay` sums.
        let mut total_delay = -0.0;
        let mut mapped = plan.mappings().peekable();
        let mut full = plan.full_sdn_switches().peekable();
        // The switch of the current run of selections: its position, its
        // row's entries not yet passed, its mapping and whether it is
        // whole-switch SDN.
        let mut at = None;
        let (mut ip, mut row, mut mc, mut is_full) = (None, &[][..], None, false);
        for (s, l, c) in plan.sdn_selections() {
            if at != Some(s) {
                at = Some(s);
                ip = self.switch_position(s);
                row = ip.map_or(&[][..], |ip| self.switch_entries(ip));
                while mapped.next_if(|&(t, _)| t < s).is_some() {}
                mc = mapped.peek().filter(|&&(t, _)| t == s).map(|&(_, c)| c);
                while full.next_if(|&f| f < s).is_some() {}
                is_full = full.peek() == Some(&s);
                recovered_switches += usize::from(mc.is_none());
            }
            if ip.is_none() {
                return invalid(format!("SDN pair at online switch {s}"));
            }
            let Some(jp) = self.controller_position(c) else {
                return invalid(format!(
                    "SDN pair ({s}, {l}) assigned to failed controller {c}"
                ));
            };
            let Some(lp) = self.flow_position(l) else {
                return invalid(format!("{l} is not an offline flow"));
            };
            // The row and the run both ascend by flow.
            while row.first().is_some_and(|&(f, _)| f < lp) {
                row = &row[1..];
            }
            let pbar = match row.first() {
                Some(&(f, p)) if f == lp => p,
                _ => {
                    return invalid(format!(
                        "β = 0 for {l} at {s}: SDN mode has no effect (Eq. (1))"
                    ))
                }
            };
            match mc {
                Some(mc) if mc != c => {
                    return invalid(format!(
                        "pair ({s}, {l}) uses {c} but {s} is mapped to {mc}"
                    ))
                }
                None if !flow_level => {
                    return invalid(format!(
                        "SDN mode for {l} at unmapped switch {s} (switch-level plan)"
                    ))
                }
                _ => {}
            }
            per_flow[lp] += pbar as u64;
            let delay = net.ctrl_delay(s, c);
            total_delay += delay;
            if !is_full {
                used[jp] += 1;
                overhead += delay + middle_layer_ms;
            }
        }
        for (jp, &u) in used.iter().enumerate().filter(|&(_, &u)| u > 0) {
            let avail = self.residual[jp];
            if u > avail {
                let c = self.controllers[jp];
                return invalid(format!("{c} assigned {u} flows but has capacity {avail}"));
            }
        }

        let recoverable_mask: Vec<bool> = self.recoverable_flows().collect();
        let metrics = PlanMetrics {
            total_programmability: per_flow.iter().sum(),
            min_programmability: per_flow.iter().copied().min().unwrap_or(0),
            recovered_flows: per_flow.iter().filter(|&&p| p > 0).count(),
            recoverable_flows: recoverable_mask.iter().filter(|&&b| b).count(),
            per_flow_programmability: per_flow,
            recoverable_mask,
            offline_flows: self.flows.len(),
            recovered_switches,
            offline_switches: self.switches.len(),
            controller_usage: (self.controllers.iter().zip(&self.residual).zip(used))
                .map(|((&controller, &available), used)| ControllerUsage {
                    controller,
                    available,
                    used,
                })
                .collect(),
            total_overhead_ms: overhead,
            ideal_delay_g: self.ideal_delay_g(),
        };
        Ok((metrics, total_delay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;

    fn instance_data() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    /// The row-per-vector layout the flat instance replaced, built the
    /// straightforward way: one `Vec` per flow, switch and delay row.
    struct NestedReference {
        entries_by_flow: Vec<Vec<(usize, u32)>>,
        entries_by_switch: Vec<Vec<(usize, u32)>>,
        delay: Vec<Vec<f64>>,
        ctrl_by_delay: Vec<Vec<usize>>,
    }

    fn nested_reference(sc: &FailureScenario<'_>, prog: &Programmability) -> NestedReference {
        let net = sc.network();
        let switches = sc.offline_switches();
        let controllers = sc.active_controllers();
        let pos = |s: SwitchId| switches.iter().position(|&x| x == s);
        let mut entries_by_flow = Vec::new();
        let mut entries_by_switch = vec![Vec::new(); switches.len()];
        for (lp, &l) in sc.offline_flows().iter().enumerate() {
            let mut row = Vec::new();
            for &(s, p) in prog.flow_entries(l) {
                if let Some(ip) = pos(s) {
                    row.push((ip, p));
                    entries_by_switch[ip].push((lp, p));
                }
            }
            entries_by_flow.push(row);
        }
        let delay: Vec<Vec<f64>> = switches
            .iter()
            .map(|&s| controllers.iter().map(|&c| net.ctrl_delay(s, c)).collect())
            .collect();
        let ctrl_by_delay = delay
            .iter()
            .map(|row| {
                let mut order: Vec<usize> = (0..controllers.len()).collect();
                order.sort_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap());
                order
            })
            .collect();
        NestedReference {
            entries_by_flow,
            entries_by_switch,
            delay,
            ctrl_by_delay,
        }
    }

    /// Every row accessor of `inst` returns exactly the reference row.
    fn assert_rows_match(inst: &FmssmInstance<'_, '_>, reference: &NestedReference) {
        assert_eq!(inst.flows().len(), reference.entries_by_flow.len());
        for (lp, row) in reference.entries_by_flow.iter().enumerate() {
            assert_eq!(inst.flow_entries(lp), row.as_slice(), "flow row {lp}");
        }
        assert_eq!(inst.switches().len(), reference.entries_by_switch.len());
        for (ip, row) in reference.entries_by_switch.iter().enumerate() {
            assert_eq!(inst.switch_entries(ip), row.as_slice(), "switch row {ip}");
            assert!(
                inst.controllers_by_delay(ip)
                    .eq(reference.ctrl_by_delay[ip].iter().copied()),
                "delay order of switch row {ip}"
            );
            for (jp, &d) in reference.delay[ip].iter().enumerate() {
                assert_eq!(inst.delay(ip, jp).to_bits(), d.to_bits());
            }
        }
        let rows = &reference.entries_by_flow;
        assert_eq!(
            inst.total_iterations(),
            rows.iter().map(Vec::len).max().unwrap_or(0)
        );
        assert_eq!(
            inst.total_programmability_ub(),
            rows.iter().flatten().map(|&(_, p)| p as u64).sum::<u64>()
        );
        assert_eq!(
            inst.recoverable_flow_count(),
            rows.iter().filter(|row| !row.is_empty()).count()
        );
    }

    #[test]
    fn with_cache_matches_uncached() {
        let (net, prog) = instance_data();
        let cache = NetCache::build(&net);
        for failed in [
            vec![ControllerId(0)],
            vec![ControllerId(3), ControllerId(4)],
            vec![ControllerId(1), ControllerId(2), ControllerId(5)],
        ] {
            let sc = net.fail(&failed).unwrap();
            let sc_cached = net.fail_cached(&failed, &cache).unwrap();
            let plain = FmssmInstance::new(&sc, &prog);
            let cached = FmssmInstance::with_cache(&sc_cached, cache.programmability(), &cache);
            assert_eq!(plain.switches(), cached.switches());
            assert_eq!(plain.controllers(), cached.controllers());
            assert_eq!(plain.flows(), cached.flows());
            assert_eq!(plain.residuals(), cached.residuals());
            assert_eq!(plain.switch_pos, cached.switch_pos);
            assert_eq!(plain.flow_pos, cached.flow_pos);
            assert_eq!(plain.ctrl_pos, cached.ctrl_pos);
            assert_eq!(plain.entries_by_flow, cached.entries_by_flow);
            assert_eq!(plain.entries_by_switch, cached.entries_by_switch);
            assert_eq!(plain.gamma, cached.gamma);
            assert_eq!(plain.flow_offsets, cached.flow_offsets);
            assert_eq!(plain.switch_major, cached.switch_major);
            assert_eq!(plain.switch_offsets, cached.switch_offsets);
            let reference = nested_reference(&sc, &prog);
            assert_rows_match(&plain, &reference);
            assert_rows_match(&cached, &reference);
        }
    }

    #[test]
    fn dense_index_roundtrip() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        for (i, &s) in inst.switches().iter().enumerate() {
            assert_eq!(inst.switch_position(s), Some(i));
        }
        for (i, &l) in inst.flows().iter().enumerate() {
            assert_eq!(inst.flow_position(l), Some(i));
        }
        for (j, &c) in inst.controllers().iter().enumerate() {
            assert_eq!(inst.controller_position(c), Some(j));
        }
        for &c in sc.failed_controllers() {
            assert_eq!(inst.controller_position(c), None);
        }
        // Out-of-range ids resolve to None instead of panicking.
        assert_eq!(inst.switch_position(SwitchId(10_000)), None);
        assert_eq!(inst.flow_position(FlowId(10_000)), None);
        assert_eq!(inst.controller_position(ControllerId(10_000)), None);
        assert_eq!(inst.switches().len(), sc.offline_switches().len());
        assert_eq!(inst.controllers().len(), 4);
    }

    #[test]
    fn entries_agree_between_views() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let mut from_flows = 0usize;
        for lp in 0..inst.flows().len() {
            from_flows += inst.flow_entries(lp).len();
        }
        let mut from_switches = 0usize;
        for ip in 0..inst.switches().len() {
            from_switches += inst.switch_entries(ip).len();
        }
        assert_eq!(from_flows, from_switches);
        assert!(from_flows > 0);
    }

    #[test]
    fn entries_only_offline_beta_one() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        for (lp, &l) in inst.flows().iter().enumerate() {
            for &(ip, p) in inst.flow_entries(lp) {
                let s = inst.switches()[ip];
                assert!(sc.is_offline(s));
                assert!(prog.beta(l, s));
                assert_eq!(prog.pbar(l, s), p);
            }
        }
    }

    #[test]
    fn delays_sorted() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        for ip in 0..inst.switches().len() {
            let order: Vec<usize> = inst.controllers_by_delay(ip).collect();
            assert_eq!(order.len(), inst.controllers().len());
            for w in order.windows(2) {
                assert!(inst.delay(ip, w[0]) <= inst.delay(ip, w[1]) + 1e-12);
            }
        }
    }

    #[test]
    fn lambda_preserves_lexicographic_priority() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let ub = inst.total_programmability_ub();
        assert!(inst.lambda() * (ub as f64) < 1.0);
    }

    #[test]
    fn total_iterations_positive() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        assert!(inst.total_iterations() >= 1);
    }

    #[test]
    fn objective_prefers_balanced_min() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(4)]).unwrap(); // small domain {19, 20}
        let inst = FmssmInstance::new(&sc, &prog);
        let l = inst.flows().len();
        // All-zero versus min 1 with smaller total: the min dominates.
        let zeros = vec![0u64; l];
        let ones = vec![1u64; l];
        assert!(inst.objective(&ones, false) > inst.objective(&zeros, false) + 0.5);
    }

    #[test]
    fn recoverable_only_min_skips_hopeless_flows() {
        let (net, prog) = instance_data();
        let sc = net.fail(&[ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        if inst.recoverable_flow_count() == inst.flows().len() {
            return; // nothing hopeless in this scenario
        }
        let mut per_flow = vec![0u64; inst.flows().len()];
        for (lp, pf) in per_flow.iter_mut().enumerate() {
            if !inst.flow_entries(lp).is_empty() {
                *pf = 3;
            }
        }
        // Over all flows the min is 0; over recoverable ones it is 3.
        let all = inst.objective(&per_flow, false);
        let rec = inst.objective(&per_flow, true);
        assert!(rec > all + 2.0);
    }
}
