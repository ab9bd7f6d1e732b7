//! The FMSSM problem instance (paper Section IV).
//!
//! [`FmssmInstance`] flattens a [`FailureScenario`] plus the precomputed
//! [`Programmability`] table into dense index spaces — offline switches
//! `0..N`, active controllers `0..M`, offline flows `0..L` — exactly the
//! index sets of the formulation, so algorithms work on compact vectors.

use pm_sdwan::{
    ControllerId, FailureScenario, FlowId, IndexSpace, NetCache, Programmability, SwitchId,
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
    /// Per controller id: its dense position, `None` when failed.
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
    /// `entries_by_flow[flow_offsets[lp]..flow_offsets[lp + 1]]`.
    entries_by_flow: Vec<(usize, u32)>,
    /// `L + 1` row starts into `entries_by_flow`.
    flow_offsets: Vec<usize>,
    /// Per offline switch: its `(flow position, p̄)` entries, ascending by
    /// flow — row `ip` is
    /// `entries_by_switch[switch_offsets[ip]..switch_offsets[ip + 1]]`.
    entries_by_switch: Vec<(usize, u32)>,
    /// `N + 1` row starts into `entries_by_switch`.
    switch_offsets: Vec<usize>,
    /// `γ_i` per offline switch.
    gamma: Vec<u32>,
    /// `delay[i * M + j]` = `D_ij` between offline switch `i` and active
    /// controller `j` (dense positions), row-major.
    delay: Vec<f64>,
    /// Controllers sorted by ascending delay per switch (the paper's
    /// `C(i)`), one row of `M` positions per switch, row-major.
    ctrl_by_delay: Vec<usize>,
}

impl<'a, 'net> FmssmInstance<'a, 'net> {
    /// Builds the dense instance for a scenario.
    pub fn new(scenario: &'a FailureScenario<'net>, prog: &'a Programmability) -> Self {
        Self::build(scenario, prog, None)
    }

    /// Like [`FmssmInstance::new`], reusing the per-network sorted
    /// controller orders of `cache` instead of re-sorting per scenario.
    /// The instance is identical to the uncached construction: the cached
    /// global order is a stable sort by delay with ties toward the lower
    /// controller id, so filtering it to the scenario's active set gives
    /// exactly the per-scenario stable sort.
    pub fn with_cache(
        scenario: &'a FailureScenario<'net>,
        prog: &'a Programmability,
        cache: &NetCache,
    ) -> Self {
        Self::build(scenario, prog, Some(cache))
    }

    fn build(
        scenario: &'a FailureScenario<'net>,
        prog: &'a Programmability,
        cache: Option<&NetCache>,
    ) -> Self {
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

        // Compressed rows: the flow rows are filled in flow order, then a
        // counting pass sizes the switch rows and a second walk over the
        // flow rows scatters into them, so each switch row lists its flows
        // in ascending position.
        let mut entries_by_flow = Vec::new();
        let mut flow_offsets = Vec::with_capacity(flows.len() + 1);
        flow_offsets.push(0);
        let mut switch_offsets = vec![0usize; switches.len() + 1];
        for &l in &flows {
            for &(s, p) in prog.flow_entries(l) {
                if let Some(ip) = switch_pos[s.index()] {
                    entries_by_flow.push((ip, p));
                    switch_offsets[ip + 1] += 1;
                }
            }
            flow_offsets.push(entries_by_flow.len());
        }
        for ip in 0..switches.len() {
            switch_offsets[ip + 1] += switch_offsets[ip];
        }
        let mut fill = switch_offsets.clone();
        let mut entries_by_switch = vec![(0, 0); entries_by_flow.len()];
        for (lp, row) in flow_offsets.windows(2).enumerate() {
            for &(ip, p) in &entries_by_flow[row[0]..row[1]] {
                entries_by_switch[fill[ip]] = (lp, p);
                fill[ip] += 1;
            }
        }

        let m = controllers.len();
        let gamma: Vec<u32> = switches.iter().map(|&s| net.gamma(s)).collect();
        let mut delay = Vec::with_capacity(switches.len() * m);
        for &s in &switches {
            delay.extend(controllers.iter().map(|&c| net.ctrl_delay(s, c)));
        }
        let mut ctrl_by_delay = Vec::with_capacity(switches.len() * m);
        match cache {
            // Dense positions ascend with controller id, so mapping the
            // cached id-ordered-by-delay list through `ctrl_pos` preserves
            // both the delay order and the lower-id tie-break of the sort
            // in the uncached arm below.
            Some(cache) => {
                for &s in &switches {
                    ctrl_by_delay.extend(
                        cache
                            .controllers_by_delay(s)
                            .iter()
                            .filter_map(|c| ctrl_pos[c.index()]),
                    );
                }
            }
            None => {
                for row in delay.chunks_exact(m.max(1)) {
                    let start = ctrl_by_delay.len();
                    ctrl_by_delay.extend(0..m);
                    ctrl_by_delay[start..].sort_by(|&a, &b| {
                        row[a]
                            .partial_cmp(&row[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                }
            }
        }
        debug_assert_eq!(ctrl_by_delay.len(), switches.len() * m);

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
            entries_by_switch,
            switch_offsets,
            gamma,
            delay,
            ctrl_by_delay,
        }
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

    /// `(flow position, p̄)` entries of switch position `ip`.
    pub fn switch_entries(&self, ip: usize) -> &[(usize, u32)] {
        &self.entries_by_switch[self.switch_offsets[ip]..self.switch_offsets[ip + 1]]
    }

    /// `γ` of switch position `ip`.
    pub fn gamma(&self, ip: usize) -> u32 {
        self.gamma[ip]
    }

    /// `D_ij` for dense positions.
    pub fn delay(&self, ip: usize, jp: usize) -> f64 {
        let m = self.controllers.len();
        assert!(jp < m, "controller position {jp} out of range");
        self.delay[ip * m + jp]
    }

    /// Controller positions sorted by ascending delay from switch `ip`
    /// (the paper's `C(i)`).
    pub fn controllers_by_delay(&self, ip: usize) -> &[usize] {
        let m = self.controllers.len();
        &self.ctrl_by_delay[ip * m..(ip + 1) * m]
    }

    /// The ideal-recovery delay bound `G` (Eq. (6)).
    pub fn ideal_delay_g(&self) -> f64 {
        self.scenario.ideal_delay_g()
    }

    /// The paper's `TOTAL_ITERATIONS`: the maximum number of (recoverable)
    /// offline switches on any offline flow's original path.
    pub fn total_iterations(&self) -> usize {
        self.flow_offsets
            .windows(2)
            .map(|row| row[1] - row[0])
            .max()
            .unwrap_or(0)
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

    /// Number of offline flows that have at least one recoverable entry.
    pub fn recoverable_flow_count(&self) -> usize {
        self.flow_offsets
            .windows(2)
            .filter(|row| row[1] > row[0])
            .count()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;

    fn instance_data() -> (pm_sdwan::SdWan, Programmability) {
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
            assert_eq!(
                inst.controllers_by_delay(ip),
                reference.ctrl_by_delay[ip].as_slice(),
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
            assert_eq!(plain.ctrl_by_delay, cached.ctrl_by_delay);
            assert_eq!(plain.entries_by_flow, cached.entries_by_flow);
            assert_eq!(plain.entries_by_switch, cached.entries_by_switch);
            assert_eq!(plain.gamma, cached.gamma);
            assert_eq!(plain.delay, cached.delay);
            assert_eq!(plain.flow_offsets, cached.flow_offsets);
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
            let order = inst.controllers_by_delay(ip);
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
