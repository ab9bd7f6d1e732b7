//! Network construction and controller-failure scenarios.
//!
//! [`SdWanBuilder::build`] routes the flows, settles the delay and
//! programmability tables, and stores every controller's domain as a CSR
//! row of ascending switch ids (one counting pass over the switches). A
//! [`FailureScenario`] is built cold by [`SdWan::fail`] /
//! [`SdWan::fail_cached`], or patched by
//! [`FailureScenario::apply_delta_cached`], which walks only the revived
//! and the newly failed controller's rows and the flows at their switches.
//! Both rebuild the offline switch and flow lists from their masks by the
//! same branch-free compaction (write every index, advance the cursor by
//! the index's mask bit), so the lists come out ascending and a delta
//! equals the cold build field for field.

use crate::cache::NetCache;
use crate::network::{Controller, ControllerId, Flow, FlowId, SdWan, SwitchId};
use crate::programmability::Programmability;
use crate::SdwanError;
use pm_topo::{att, paths, Graph, NodeId, PathCounts, SettledDistances};
use std::sync::Arc;

/// Builder for an [`SdWan`].
///
/// # Example
///
/// ```
/// use pm_sdwan::SdWanBuilder;
/// use pm_topo::builders;
///
/// let net = SdWanBuilder::new(builders::ring(6))
///     .controller(pm_topo::NodeId(0), 100)
///     .controller(pm_topo::NodeId(3), 100)
///     .all_pairs_flows()
///     .build()?;
/// assert_eq!(net.flows().len(), 30);
/// # Ok::<(), pm_sdwan::SdwanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SdWanBuilder {
    topology: Graph,
    controllers: Vec<Controller>,
    /// Explicit domains: `domains[c]` = switch indices owned by controller
    /// `c`. When `None`, every switch joins its nearest controller.
    domains: Option<Vec<Vec<usize>>>,
    flow_pairs: FlowSpec,
    allow_overload: bool,
    /// When set, replace every controller capacity with a uniform value of
    /// `max_normal_load * headroom + 1` after routing.
    auto_capacity: Option<f64>,
}

#[derive(Debug, Clone)]
enum FlowSpec {
    AllPairs,
    Explicit(Vec<(SwitchId, SwitchId)>),
}

impl SdWanBuilder {
    /// Starts a builder over `topology`.
    pub fn new(topology: Graph) -> Self {
        SdWanBuilder {
            topology,
            controllers: Vec::new(),
            domains: None,
            flow_pairs: FlowSpec::AllPairs,
            allow_overload: false,
            auto_capacity: None,
        }
    }

    /// The paper's evaluation setup: embedded ATT-like backbone, six
    /// controllers at nodes {2, 5, 6, 13, 20, 22} with capacity 500, the
    /// Table III domain partition, and one flow per ordered node pair.
    pub fn att_paper_setup() -> Self {
        Self::att_paper_setup_with_capacity(att::DEFAULT_CONTROLLER_CAPACITY)
    }

    /// The paper's setup with a different uniform controller capacity —
    /// for sensitivity studies around the paper's value of 500. Capacities
    /// below the heaviest domain load fail the builder's overload check;
    /// chain [`SdWanBuilder::allow_overload`] to study that regime (the
    /// affected controller then has zero residual capacity).
    pub fn att_paper_setup_with_capacity(capacity: u32) -> Self {
        let mut b = SdWanBuilder::new(att::att_backbone());
        let mut domains = Vec::new();
        for (ctrl_node, switches) in att::DEFAULT_DOMAINS {
            b = b.controller(NodeId(ctrl_node), capacity);
            domains.push(switches.to_vec());
        }
        b.domains = Some(domains);
        b
    }

    /// Adds a controller at `node` with the given capacity.
    pub fn controller(mut self, node: NodeId, capacity: u32) -> Self {
        self.controllers.push(Controller { node, capacity });
        self
    }

    /// Sets explicit domains: `domains[c]` lists the switch indices owned by
    /// controller `c`. Without this, switches join their nearest controller.
    pub fn domains(mut self, domains: Vec<Vec<usize>>) -> Self {
        self.domains = Some(domains);
        self
    }

    /// Routes one flow per ordered node pair on the shortest path (the
    /// paper's traffic model). This is the default.
    pub fn all_pairs_flows(mut self) -> Self {
        self.flow_pairs = FlowSpec::AllPairs;
        self
    }

    /// Routes exactly the given `(src, dst)` flows instead of all pairs.
    pub fn explicit_flows(mut self, pairs: Vec<(SwitchId, SwitchId)>) -> Self {
        self.flow_pairs = FlowSpec::Explicit(pairs);
        self
    }

    /// Permits controller domains whose normal-operation load exceeds the
    /// controller capacity (rejected by default).
    pub fn allow_overload(mut self) -> Self {
        self.allow_overload = true;
        self
    }

    /// Sizes every controller uniformly from the realized load: after
    /// routing, each capacity becomes `max_normal_load * headroom + 1`
    /// (truncated), overriding the per-controller values. With
    /// `headroom >= 1.0` the overload check then passes by construction —
    /// the single-pass replacement for the probe-build-then-rebuild idiom
    /// on generated topologies whose loads are unknown up front.
    pub fn auto_capacity(mut self, headroom: f64) -> Self {
        self.auto_capacity = Some(headroom);
        self
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`SdwanError::InvalidNetwork`] if there are no controllers, a
    /// controller node is out of range, the topology is disconnected (with
    /// all-pairs flows), the explicit domains do not partition the switch
    /// set, a flow endpoint is invalid, an [`auto_capacity`] headroom is
    /// below 1 or not finite, or (unless [`allow_overload`]) a controller's
    /// normal load exceeds its capacity.
    ///
    /// [`allow_overload`]: SdWanBuilder::allow_overload
    /// [`auto_capacity`]: SdWanBuilder::auto_capacity
    pub fn build(self) -> Result<SdWan, SdwanError> {
        let n = self.topology.node_count();
        if self.controllers.is_empty() {
            return Err(SdwanError::InvalidNetwork("no controllers".into()));
        }
        for c in &self.controllers {
            self.topology.check_node(c.node)?;
        }

        if let Some(headroom) = self.auto_capacity {
            if !headroom.is_finite() || headroom < 1.0 {
                return Err(SdwanError::InvalidNetwork(format!(
                    "auto_capacity headroom {headroom} must be a finite value >= 1"
                )));
            }
        }

        if !self.topology.is_connected() {
            return Err(SdwanError::InvalidNetwork(
                "topology must be connected".into(),
            ));
        }
        // One Dijkstra per controller covers domains and control delays;
        // one per flow endpoint routes the flows and counts the loop-free
        // paths behind the programmability table (below).
        let ctrl_spts: Vec<paths::ShortestPathTree> = self
            .controllers
            .iter()
            .map(|c| paths::dijkstra(&self.topology, c.node))
            .collect();

        // Domains.
        let domain: Vec<ControllerId> = match &self.domains {
            Some(domains) => {
                if domains.len() != self.controllers.len() {
                    return Err(SdwanError::InvalidNetwork(format!(
                        "{} domain lists for {} controllers",
                        domains.len(),
                        self.controllers.len()
                    )));
                }
                let mut owner: Vec<Option<ControllerId>> = vec![None; n];
                for (c, switches) in domains.iter().enumerate() {
                    for &s in switches {
                        if s >= n {
                            return Err(SdwanError::UnknownSwitch(SwitchId(s)));
                        }
                        if owner[s].replace(ControllerId(c)).is_some() {
                            return Err(SdwanError::InvalidNetwork(format!(
                                "switch s{s} appears in two domains"
                            )));
                        }
                    }
                }
                owner
                    .into_iter()
                    .enumerate()
                    .map(|(s, o)| {
                        o.ok_or_else(|| {
                            SdwanError::InvalidNetwork(format!("switch s{s} has no domain"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => {
                // Nearest controller by shortest-path delay; ties to the
                // lower controller id.
                (0..n)
                    .map(|s| {
                        let mut best = ControllerId(0);
                        let mut best_d = f64::INFINITY;
                        for (c, _) in self.controllers.iter().enumerate() {
                            let d = ctrl_spts[c].distances()[s];
                            if d < best_d {
                                best_d = d;
                                best = ControllerId(c);
                            }
                        }
                        best
                    })
                    .collect()
            }
        };

        // Flows.
        let pairs: Vec<(SwitchId, SwitchId)> = match &self.flow_pairs {
            FlowSpec::AllPairs => {
                let mut v = Vec::with_capacity(n * (n - 1));
                for s in 0..n {
                    for t in 0..n {
                        if s != t {
                            v.push((SwitchId(s), SwitchId(t)));
                        }
                    }
                }
                v
            }
            FlowSpec::Explicit(p) => p.clone(),
        };
        let mut from_src = vec![Vec::new(); n];
        let mut is_dst = vec![false; n];
        for (l, &(src, dst)) in pairs.iter().enumerate() {
            if src.0 >= n {
                return Err(SdwanError::UnknownSwitch(src));
            }
            if dst.0 >= n {
                return Err(SdwanError::UnknownSwitch(dst));
            }
            if src == dst {
                return Err(SdwanError::InvalidNetwork(format!(
                    "flow {src}->{dst} is a loop"
                )));
            }
            from_src[src.0].push(l);
            is_dst[dst.0] = true;
        }
        // One tree per endpoint: a source's flows are routed from it, in
        // pair order, and then its predecessor links go; a destination
        // keeps its distances and settle order until its path counts are
        // taken (the graph is undirected, so the tree rooted at a
        // destination is its tree of distances to it).
        let mut routed: Vec<Option<Flow>> = vec![None; pairs.len()];
        let mut dst_trees: Vec<Option<SettledDistances>> = vec![None; n];
        for v in 0..n {
            if from_src[v].is_empty() && !is_dst[v] {
                continue;
            }
            let tree = paths::dijkstra(&self.topology, NodeId(v));
            for &l in &from_src[v] {
                let (src, dst) = pairs[l];
                let path = tree.path_to(dst.node()).ok_or_else(|| {
                    SdwanError::InvalidNetwork(format!("{src} cannot reach {dst}"))
                })?;
                routed[l] = Some(Flow {
                    src,
                    dst,
                    path: path.into_iter().map(|v| SwitchId(v.0)).collect(),
                });
            }
            if is_dst[v] {
                dst_trees[v] = Some(tree.into_settled());
            }
        }
        let flows: Vec<Flow> = routed
            .into_iter()
            .map(|f| f.expect("every pair's source was settled"))
            .collect();
        let prog = Programmability::from_path_counts(&flows, n, |dst| {
            let tree = dst_trees[dst.0]
                .take()
                .expect("every destination was settled once");
            PathCounts::from_settled(&self.topology, tree)
        });

        // Per-switch flow lists.
        let mut flows_at: Vec<Vec<FlowId>> = vec![Vec::new(); n];
        for (l, f) in flows.iter().enumerate() {
            for &s in &f.path {
                flows_at[s.0].push(FlowId(l));
            }
        }

        // Switch-to-controller delays, and each switch's controllers by
        // ascending delay: a stable sort, so ties keep the lower id first.
        let k = ctrl_spts.len();
        let mut ctrl_delay = Vec::with_capacity(n * k);
        let mut ctrl_order = Vec::with_capacity(n * k);
        for s in 0..n {
            let row = ctrl_delay.len();
            ctrl_delay.extend(ctrl_spts.iter().map(|spt| spt.distances()[s]));
            let delays = &ctrl_delay[row..];
            ctrl_order.extend((0..k).map(ControllerId));
            ctrl_order[row..].sort_by(|a, b| {
                delays[a.0]
                    .partial_cmp(&delays[b.0])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        // Each controller's domain as a CSR row of ascending switch ids:
        // count the rows' lengths, then place the switches in id order.
        let m = self.controllers.len();
        let mut domain_start = vec![0; m + 1];
        for c in &domain {
            domain_start[c.0 + 1] += 1;
        }
        for j in 0..m {
            domain_start[j + 1] += domain_start[j];
        }
        let mut row_end = domain_start[..m].to_vec();
        let mut domain_rows = vec![SwitchId(0); n];
        for (s, c) in domain.iter().enumerate() {
            domain_rows[row_end[c.0]] = SwitchId(s);
            row_end[c.0] += 1;
        }

        let mut net = SdWan {
            topology: self.topology,
            controllers: self.controllers,
            domain,
            domain_start,
            domain_rows,
            flows,
            flows_at,
            ctrl_delay,
            ctrl_order,
            prog: Arc::new(prog),
        };

        if let Some(headroom) = self.auto_capacity {
            let max_load = (0..net.controllers.len())
                .map(|c| net.controller_load(ControllerId(c)))
                .max()
                .unwrap_or(0);
            // The cast saturates at u32::MAX; so must the + 1.
            let capacity = ((max_load as f64 * headroom) as u32).saturating_add(1);
            for c in &mut net.controllers {
                c.capacity = capacity;
            }
        }

        if !self.allow_overload {
            for c in 0..net.controllers.len() {
                let load = net.controller_load(ControllerId(c));
                let cap = net.controllers[c].capacity;
                if load > cap {
                    return Err(SdwanError::InvalidNetwork(format!(
                        "controller C{c} load {load} exceeds capacity {cap}"
                    )));
                }
            }
        }
        Ok(net)
    }
}

/// A controller-failure scenario: which controllers failed and everything
/// the FMSSM problem derives from that (Section IV-A of the paper).
#[derive(Debug, Clone)]
pub struct FailureScenario<'net> {
    net: &'net SdWan,
    failed: Vec<ControllerId>,
    active: Vec<ControllerId>,
    offline_switches: Vec<SwitchId>,
    offline_flows: Vec<FlowId>,
    /// Dense per-switch offline mask, indexed by `SwitchId` — the O(1)
    /// backing of [`FailureScenario::is_offline`].
    offline_switch_mask: Vec<bool>,
    /// Dense per-flow offline mask, indexed by `FlowId`.
    offline_flow_mask: Vec<bool>,
    /// Per-flow count of offline switches on the flow's path, indexed by
    /// `FlowId`. A flow is offline iff its count is positive; the count (not
    /// the boolean) is what makes [`FailureScenario::apply_delta_cached`] exact —
    /// reviving one controller only clears a flow when no other failed
    /// controller still touches its path.
    offline_path_hits: Vec<u32>,
    /// Residual capacity per controller id (`None` for failed controllers).
    residual: Vec<Option<u32>>,
    /// Nearest active controller per offline switch (the `α_ij` of Eq. (6)).
    nearest_active: Vec<(SwitchId, ControllerId)>,
    /// Ideal-recovery total propagation delay `G` of Eq. (6).
    ideal_delay_g: f64,
}

impl SdWan {
    /// Fails the given controllers and derives the recovery problem inputs.
    ///
    /// # Errors
    ///
    /// Returns [`SdwanError::InvalidScenario`] if no controller fails, every
    /// controller fails, a controller id repeats, or an id is unknown.
    pub fn fail(&self, failed: &[ControllerId]) -> Result<FailureScenario<'_>, SdwanError> {
        self.fail_impl(failed, |c| self.residual_capacity(c))
    }

    /// Like [`SdWan::fail`], reading residual controller capacities from a
    /// precomputed [`NetCache`] instead of recomputing the per-controller
    /// load. The result is identical to the uncached scenario.
    ///
    /// # Errors
    ///
    /// As for [`SdWan::fail`].
    pub fn fail_cached(
        &self,
        failed: &[ControllerId],
        cache: &NetCache,
    ) -> Result<FailureScenario<'_>, SdwanError> {
        self.fail_impl(failed, |c| cache.residual_capacity(c))
    }

    fn fail_impl(
        &self,
        failed: &[ControllerId],
        residual_of: impl Fn(ControllerId) -> u32,
    ) -> Result<FailureScenario<'_>, SdwanError> {
        if failed.is_empty() {
            return Err(SdwanError::InvalidScenario("no failed controllers".into()));
        }
        let mut is_failed = vec![false; self.controllers.len()];
        for &c in failed {
            self.check_controller(c)?;
            if is_failed[c.0] {
                return Err(SdwanError::InvalidScenario(format!(
                    "controller {c} listed twice"
                )));
            }
            is_failed[c.0] = true;
        }
        if is_failed.iter().all(|&b| b) {
            return Err(SdwanError::InvalidScenario("all controllers failed".into()));
        }

        let mut failed: Vec<ControllerId> = failed.to_vec();
        failed.sort();
        let active: Vec<ControllerId> = (0..self.controllers.len())
            .filter(|&c| !is_failed[c])
            .map(ControllerId)
            .collect();

        let offline_switch_mask: Vec<bool> = (0..self.switch_count())
            .map(|s| is_failed[self.domain[s].0])
            .collect();
        let mut offline_switches = Vec::new();
        compact_set_indices(&offline_switch_mask, &mut offline_switches, SwitchId);

        let mut offline_path_hits = vec![0u32; self.flows.len()];
        for &s in &offline_switches {
            for &l in &self.flows_at[s.0] {
                offline_path_hits[l.0] += 1;
            }
        }
        let offline_flow_mask: Vec<bool> = offline_path_hits.iter().map(|&h| h != 0).collect();
        let mut offline_flows = Vec::new();
        compact_set_indices(&offline_flow_mask, &mut offline_flows, FlowId);

        let residual: Vec<Option<u32>> = (0..self.controllers.len())
            .map(|c| (!is_failed[c]).then(|| residual_of(ControllerId(c))))
            .collect();

        let mut nearest_active = Vec::with_capacity(offline_switches.len());
        let mut ideal_delay_g = 0.0;
        for &s in &offline_switches {
            let nearest = self.nearest_surviving(s, |c| is_failed[c.0]);
            nearest_active.push((s, nearest));
            ideal_delay_g += self.gamma(s) as f64 * self.ctrl_delay(s, nearest);
        }

        Ok(FailureScenario {
            net: self,
            failed,
            active,
            offline_switches,
            offline_flows,
            offline_switch_mask,
            offline_flow_mask,
            offline_path_hits,
            residual,
            nearest_active,
            ideal_delay_g,
        })
    }

    /// The first controller in `s`'s delay order that has not failed: the
    /// nearest survivor, ties toward the lower id.
    fn nearest_surviving(
        &self,
        s: SwitchId,
        failed: impl Fn(ControllerId) -> bool,
    ) -> ControllerId {
        self.controllers_by_delay(s)
            .iter()
            .copied()
            .find(|&c| !failed(c))
            .expect("at least one active controller")
    }
}

impl<'net> FailureScenario<'net> {
    /// The network this scenario applies to.
    pub fn network(&self) -> &'net SdWan {
        self.net
    }

    /// Failed controllers, sorted by id.
    pub fn failed_controllers(&self) -> &[ControllerId] {
        &self.failed
    }

    /// Surviving controllers, sorted by id.
    pub fn active_controllers(&self) -> &[ControllerId] {
        &self.active
    }

    /// Switches that lost their controller, sorted by id (the paper's `S`).
    pub fn offline_switches(&self) -> &[SwitchId] {
        &self.offline_switches
    }

    /// Flows traversing at least one offline switch (the paper's `F`).
    pub fn offline_flows(&self) -> &[FlowId] {
        &self.offline_flows
    }

    /// `true` if switch `s` is offline in this scenario. O(1): a dense mask
    /// lookup, indexed by switch id.
    pub fn is_offline(&self, s: SwitchId) -> bool {
        s.0 < self.offline_switch_mask.len() && self.offline_switch_mask[s.0]
    }

    /// `true` if flow `l` traverses at least one offline switch. O(1): a
    /// dense mask lookup, indexed by flow id.
    pub fn is_offline_flow(&self, l: FlowId) -> bool {
        l.0 < self.offline_flow_mask.len() && self.offline_flow_mask[l.0]
    }

    /// `true` if controller `c` survived.
    pub fn is_active(&self, c: ControllerId) -> bool {
        c.0 < self.residual.len() && self.residual[c.0].is_some()
    }

    /// Residual capacity `A_j^rest` of an active controller.
    ///
    /// # Panics
    ///
    /// Panics if `c` is failed or unknown.
    pub fn residual_capacity(&self, c: ControllerId) -> u32 {
        self.residual[c.0].expect("controller is active")
    }

    /// The nearest active controller of each offline switch (`α_ij = 1`).
    pub fn nearest_active(&self) -> &[(SwitchId, ControllerId)] {
        &self.nearest_active
    }

    /// The ideal-recovery delay bound `G` of Eq. (6), in flow·ms.
    pub fn ideal_delay_g(&self) -> f64 {
        self.ideal_delay_g
    }

    /// Patches this scenario in place so its failed set has `remove`
    /// revived and `add` newly failed, reading the revived controller's
    /// residual capacity from `cache`. Colex-adjacent scenario ranks share
    /// f−1 failed controllers, so sweeping in rank order makes every
    /// transition a short chain of such swaps; the result is field-for-field
    /// identical (including the bit pattern of
    /// [`FailureScenario::ideal_delay_g`]) to `net.fail_cached(&new_failed,
    /// cache)`.
    ///
    /// # Errors
    ///
    /// Returns [`SdwanError::InvalidScenario`] if `remove` is not currently
    /// failed or `add` already is (this also rejects `remove == add`), and
    /// [`SdwanError::UnknownController`] for out-of-range ids. The scenario
    /// is left untouched on error.
    pub fn apply_delta_cached(
        &mut self,
        remove: ControllerId,
        add: ControllerId,
        cache: &NetCache,
    ) -> Result<(), SdwanError> {
        let net = self.net;
        net.check_controller(remove)?;
        net.check_controller(add)?;
        if !self.failed.contains(&remove) {
            return Err(SdwanError::InvalidScenario(format!(
                "controller {remove} is not failed"
            )));
        }
        if self.failed.contains(&add) {
            return Err(SdwanError::InvalidScenario(format!(
                "controller {add} is already failed"
            )));
        }

        self.failed.retain(|&c| c != remove);
        let pos = self.failed.binary_search(&add).unwrap_err();
        self.failed.insert(pos, add);
        self.active.retain(|&c| c != add);
        let pos = self.active.binary_search(&remove).unwrap_err();
        self.active.insert(pos, remove);

        self.residual[remove.0] = Some(cache.residual_capacity(remove));
        self.residual[add.0] = None;

        // Patch the switch mask and the per-flow path-hit counts along the
        // two swapped domains' rows only. A touched flow's mask bit is read
        // from its count after each step, so whichever row touches it last
        // leaves the bit of the final count.
        for &s in net.domain_switches(remove) {
            self.offline_switch_mask[s.0] = false;
            for &l in &net.flows_at[s.0] {
                self.offline_path_hits[l.0] -= 1;
                self.offline_flow_mask[l.0] = self.offline_path_hits[l.0] != 0;
            }
        }
        for &s in net.domain_switches(add) {
            self.offline_switch_mask[s.0] = true;
            for &l in &net.flows_at[s.0] {
                self.offline_path_hits[l.0] += 1;
                self.offline_flow_mask[l.0] = self.offline_path_hits[l.0] != 0;
            }
        }

        compact_set_indices(
            &self.offline_switch_mask,
            &mut self.offline_switches,
            SwitchId,
        );
        compact_set_indices(&self.offline_flow_mask, &mut self.offline_flows, FlowId);

        // Nearest-active assignments survive the swap except where the
        // swapped controllers can influence them: a previous winner that was
        // `add` is gone, and a revived `remove` that is at least as near as
        // the previous winner forces a re-pick under the fresh build's exact
        // tie behavior. `G` is re-summed in ascending offline order so the
        // float accumulation order (and hence the bit pattern) matches a
        // fresh build.
        let old = std::mem::take(&mut self.nearest_active);
        let mut old_iter = old.iter().peekable();
        self.nearest_active.reserve(self.offline_switches.len());
        let mut ideal_delay_g = 0.0;
        for &s in &self.offline_switches {
            while old_iter.peek().is_some_and(|&&(os, _)| os < s) {
                old_iter.next();
            }
            let kept = match old_iter.peek() {
                Some(&&(os, c)) if os == s => Some(c),
                _ => None,
            };
            let nearest = match kept {
                Some(c) if c != add && net.ctrl_delay(s, remove) > net.ctrl_delay(s, c) => c,
                _ => net.nearest_surviving(s, |c| self.residual[c.0].is_none()),
            };
            self.nearest_active.push((s, nearest));
            ideal_delay_g += net.gamma(s) as f64 * net.ctrl_delay(s, nearest);
        }
        self.ideal_delay_g = ideal_delay_g;
        Ok(())
    }
}

/// Rebuilds `out` as the indices whose `mask` bit is set, ascending. Every
/// index is written at the cursor and the cursor advances by the index's
/// bit, so the walk has no branch on the mask; an unset index is
/// overwritten by the next one, and the list ends at the last set index.
fn compact_set_indices<T: Copy + Default>(
    mask: &[bool],
    out: &mut Vec<T>,
    id: impl Fn(usize) -> T,
) {
    out.clear();
    out.resize(mask.len(), T::default());
    let mut len = 0;
    for (i, &bit) in mask.iter().enumerate() {
        out[len] = id(i);
        len += usize::from(bit);
    }
    out.truncate(len);
}

/// Two scenarios are equal when they describe the same failed set over the
/// same network object and every derived field — including the exact bit
/// pattern of `ideal_delay_g` — matches. This is the byte-identity contract
/// of the incremental delta path: `apply_delta_cached` results compare
/// equal to fresh `fail` builds.
impl PartialEq for FailureScenario<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.net, other.net)
            && self.failed == other.failed
            && self.active == other.active
            && self.offline_switches == other.offline_switches
            && self.offline_flows == other.offline_flows
            && self.offline_switch_mask == other.offline_switch_mask
            && self.offline_flow_mask == other.offline_flow_mask
            && self.offline_path_hits == other.offline_path_hits
            && self.residual == other.residual
            && self.nearest_active == other.nearest_active
            && self.ideal_delay_g.to_bits() == other.ideal_delay_g.to_bits()
    }
}

impl Eq for FailureScenario<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_topo::builders;
    use pm_topo::rng::DetRng;

    fn small_net() -> SdWan {
        // A 6-ring with two controllers.
        SdWanBuilder::new(builders::ring(6))
            .controller(NodeId(0), 100)
            .controller(NodeId(3), 100)
            .build()
            .unwrap()
    }

    #[test]
    fn all_pairs_flow_count() {
        let net = small_net();
        assert_eq!(net.flows().len(), 30);
        for f in net.flows() {
            assert_eq!(*f.path.first().unwrap(), f.src);
            assert_eq!(*f.path.last().unwrap(), f.dst);
        }
    }

    #[test]
    fn nearest_domains_on_ring() {
        let net = small_net();
        // Nodes 0, 1, 5 are nearer controller at node 0; 2, 3, 4 nearer 3.
        assert_eq!(net.domain_of(SwitchId(0)), ControllerId(0));
        assert_eq!(net.domain_of(SwitchId(3)), ControllerId(1));
        let d0 = net.domain_switches(ControllerId(0));
        let d1 = net.domain_switches(ControllerId(1));
        assert_eq!(d0.len() + d1.len(), 6);
    }

    #[test]
    fn gamma_counts_traversals() {
        let net = small_net();
        let total: u32 = net.switches().map(|s| net.gamma(s)).sum();
        let path_nodes: usize = net.flows().iter().map(|f| f.path.len()).sum();
        assert_eq!(total as usize, path_nodes);
    }

    #[test]
    fn paper_setup_capacity_variants() {
        // 700 is roomy; 400 under-provisions C5/C13/C22 and needs the
        // overload waiver.
        assert!(SdWanBuilder::att_paper_setup_with_capacity(700)
            .build()
            .is_ok());
        assert!(SdWanBuilder::att_paper_setup_with_capacity(400)
            .build()
            .is_err());
        let squeezed = SdWanBuilder::att_paper_setup_with_capacity(400)
            .allow_overload()
            .build()
            .unwrap();
        assert_eq!(squeezed.residual_capacity(ControllerId(3)), 0);
    }

    #[test]
    fn paper_setup_builds() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        assert_eq!(net.switch_count(), 25);
        assert_eq!(net.flows().len(), 600);
        assert_eq!(net.controllers().len(), 6);
        // Every controller fits its domain load within capacity 500.
        for c in 0..6 {
            assert!(
                net.controller_load(ControllerId(c)) <= 500,
                "C{c} overloaded"
            );
        }
    }

    #[test]
    fn paper_setup_domains_match_table3() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        assert_eq!(
            net.domain_switches(ControllerId(3)),
            vec![
                SwitchId(10),
                SwitchId(11),
                SwitchId(12),
                SwitchId(13),
                SwitchId(15)
            ]
        );
    }

    #[test]
    fn fail_derives_offline_sets() {
        let net = small_net();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        assert_eq!(sc.failed_controllers(), &[ControllerId(0)]);
        assert_eq!(sc.active_controllers(), &[ControllerId(1)]);
        assert!(!sc.offline_switches().is_empty());
        // Every offline flow traverses an offline switch.
        for &l in sc.offline_flows() {
            assert!(net.flow(l).path.iter().any(|&s| sc.is_offline(s)));
        }
        // Every flow traversing an offline switch is offline.
        for (l, f) in net.flows().iter().enumerate() {
            if f.path.iter().any(|&s| sc.is_offline(s)) {
                assert!(sc.offline_flows().contains(&FlowId(l)));
            }
        }
    }

    #[test]
    fn fail_rejects_bad_inputs() {
        let net = small_net();
        assert!(net.fail(&[]).is_err());
        assert!(
            net.fail(&[ControllerId(0), ControllerId(1)]).is_err(),
            "all failed"
        );
        assert!(net.fail(&[ControllerId(7)]).is_err());
        assert!(net.fail(&[ControllerId(0), ControllerId(0)]).is_err());
    }

    #[test]
    fn ideal_delay_uses_nearest_controller() {
        let net = small_net();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let mut expect = 0.0;
        for &s in sc.offline_switches() {
            expect += net.gamma(s) as f64 * net.ctrl_delay(s, ControllerId(1));
        }
        assert!((sc.ideal_delay_g() - expect).abs() < 1e-9);
    }

    #[test]
    fn residual_capacity_subtracts_own_load() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        for &c in sc.active_controllers() {
            assert_eq!(
                sc.residual_capacity(c),
                net.controllers()[c.0].capacity - net.controller_load(c)
            );
        }
    }

    #[test]
    fn explicit_flows() {
        let net = SdWanBuilder::new(builders::ring(5))
            .controller(NodeId(0), 50)
            .explicit_flows(vec![(SwitchId(1), SwitchId(3))])
            .build()
            .unwrap();
        assert_eq!(net.flows().len(), 1);
        assert_eq!(net.flows()[0].src, SwitchId(1));
    }

    #[test]
    fn rejects_overload() {
        // One controller with capacity 1 cannot control a ring's flows.
        let err = SdWanBuilder::new(builders::ring(4))
            .controller(NodeId(0), 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, SdwanError::InvalidNetwork(_)));
        // allow_overload() waives the check.
        assert!(SdWanBuilder::new(builders::ring(4))
            .controller(NodeId(0), 1)
            .allow_overload()
            .build()
            .is_ok());
    }

    #[test]
    fn auto_capacity_sizes_controllers_from_the_realized_load() {
        // Capacity 0 would fail the overload check; auto_capacity must
        // override it with a uniform value that fits the heaviest domain.
        let net = SdWanBuilder::new(builders::ring(6))
            .controller(NodeId(0), 0)
            .controller(NodeId(3), 0)
            .auto_capacity(1.1)
            .build()
            .unwrap();
        let max_load = (0..2)
            .map(|c| net.controller_load(ControllerId(c)))
            .max()
            .unwrap();
        let expect = (max_load as f64 * 1.1) as u32 + 1;
        for c in net.controllers() {
            assert_eq!(c.capacity, expect);
        }
        assert!(net.controllers()[0].capacity > max_load);
    }

    #[test]
    fn auto_capacity_saturates_a_huge_headroom() {
        // max_load * 1e308 casts to u32::MAX; the + 1 must not wrap to 0.
        let net = SdWanBuilder::new(builders::ring(6))
            .controller(NodeId(0), 0)
            .auto_capacity(1e308)
            .build()
            .unwrap();
        assert_eq!(net.controllers()[0].capacity, u32::MAX);
    }

    #[test]
    fn auto_capacity_rejects_bad_headroom() {
        for headroom in [0.5, f64::NAN, f64::INFINITY] {
            let err = SdWanBuilder::new(builders::ring(6))
                .controller(NodeId(0), 0)
                .auto_capacity(headroom)
                .build();
            assert!(err.is_err(), "headroom {headroom} should be rejected");
        }
    }

    /// `cur` equals both fresh builds of `failed`, with and without the
    /// cache.
    fn assert_fresh(cur: &FailureScenario<'_>, failed: &[ControllerId], cache: &NetCache) {
        let net = cur.network();
        assert_eq!(cur, &net.fail(failed).unwrap(), "fail({failed:?})");
        assert_eq!(
            cur,
            &net.fail_cached(failed, cache).unwrap(),
            "fail_cached({failed:?})"
        );
    }

    #[test]
    fn delta_matches_fresh_over_all_single_swaps() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        let m = net.controllers().len();
        for a in 0..m {
            for b in 0..m {
                if a == b {
                    continue;
                }
                let mut cur = net.fail_cached(&[ControllerId(a)], &cache).unwrap();
                cur.apply_delta_cached(ControllerId(a), ControllerId(b), &cache)
                    .unwrap();
                assert_fresh(&cur, &[ControllerId(b)], &cache);
            }
        }
    }

    #[test]
    fn delta_chain_matches_fresh_at_f2() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        let m = net.controllers().len();
        // Walk every 2-subset in colex order via single swaps, checking the
        // running scenario against fresh builds at each step.
        let mut cur = net
            .fail_cached(&[ControllerId(0), ControllerId(1)], &cache)
            .unwrap();
        let mut prev_set = [0usize, 1];
        for hi in 1..m {
            for lo in 0..hi {
                if [lo, hi] == prev_set {
                    continue;
                }
                // Swap out elements of prev_set not in {lo, hi}, one at a time.
                let target = [lo, hi];
                let outs: Vec<usize> = prev_set
                    .iter()
                    .copied()
                    .filter(|c| !target.contains(c))
                    .collect();
                let ins: Vec<usize> = target
                    .iter()
                    .copied()
                    .filter(|c| !prev_set.contains(c))
                    .collect();
                assert_eq!(outs.len(), ins.len());
                for (&out, &into) in outs.iter().zip(&ins) {
                    cur.apply_delta_cached(ControllerId(out), ControllerId(into), &cache)
                        .unwrap();
                }
                prev_set = target;
                assert_fresh(&cur, &[ControllerId(lo), ControllerId(hi)], &cache);
            }
        }
    }

    #[test]
    fn delta_cached_matches_fail_cached() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        let mut cur = net
            .fail_cached(&[ControllerId(0), ControllerId(2)], &cache)
            .unwrap();
        cur.apply_delta_cached(ControllerId(0), ControllerId(4), &cache)
            .unwrap();
        assert_fresh(&cur, &[ControllerId(2), ControllerId(4)], &cache);
    }

    /// The scenario build before the domain rows and the compaction: every
    /// switch's owner against the failed set, then `filter` rebuilds of the
    /// offline lists. Kept as the oracle of `fail_impl`.
    fn filter_built<'net>(
        net: &'net SdWan,
        failed: &[ControllerId],
        cache: &NetCache,
    ) -> FailureScenario<'net> {
        let mut is_failed = vec![false; net.controllers.len()];
        for &c in failed {
            is_failed[c.0] = true;
        }
        let mut failed = failed.to_vec();
        failed.sort();
        let active: Vec<ControllerId> = (0..net.controllers.len())
            .filter(|&c| !is_failed[c])
            .map(ControllerId)
            .collect();
        let offline_switch_mask: Vec<bool> = (0..net.switch_count())
            .map(|s| is_failed[net.domain[s].0])
            .collect();
        let offline_switches: Vec<SwitchId> = (0..net.switch_count())
            .filter(|&s| offline_switch_mask[s])
            .map(SwitchId)
            .collect();
        let mut offline_path_hits = vec![0u32; net.flows.len()];
        for &s in &offline_switches {
            for &l in &net.flows_at[s.0] {
                offline_path_hits[l.0] += 1;
            }
        }
        let offline_flow_mask: Vec<bool> = offline_path_hits.iter().map(|&h| h > 0).collect();
        let offline_flows: Vec<FlowId> = (0..net.flows.len())
            .filter(|&l| offline_flow_mask[l])
            .map(FlowId)
            .collect();
        let residual: Vec<Option<u32>> = (0..net.controllers.len())
            .map(|c| (!is_failed[c]).then(|| cache.residual_capacity(ControllerId(c))))
            .collect();
        let mut nearest_active = Vec::with_capacity(offline_switches.len());
        let mut ideal_delay_g = 0.0;
        for &s in &offline_switches {
            let nearest = net.nearest_surviving(s, |c| is_failed[c.0]);
            nearest_active.push((s, nearest));
            ideal_delay_g += net.gamma(s) as f64 * net.ctrl_delay(s, nearest);
        }
        FailureScenario {
            net,
            failed,
            active,
            offline_switches,
            offline_flows,
            offline_switch_mask,
            offline_flow_mask,
            offline_path_hits,
            residual,
            nearest_active,
            ideal_delay_g,
        }
    }

    /// `f` distinct controllers of `0..m`, ascending.
    fn random_set(rng: &mut DetRng, m: usize, f: usize) -> Vec<ControllerId> {
        let mut all: Vec<usize> = (0..m).collect();
        for i in 0..f {
            let j = i + (rng.next_u64() as usize) % (m - i);
            all.swap(i, j);
        }
        let mut set: Vec<ControllerId> = all[..f].iter().map(|&c| ControllerId(c)).collect();
        set.sort();
        set
    }

    /// Checks the domain rows against `domain_of`, then walks `jumps`
    /// random failure sets of one random size by chains of single swaps
    /// (a jump between sets that differ in k controllers is k swaps). After
    /// every swap the running scenario must equal the cold build, and the
    /// cold build the filter-built oracle.
    fn check_swap_chains(net: &SdWan, seed: u64, jumps: usize) {
        let mut listed = 0;
        for c in 0..net.controllers().len() {
            let row = net.domain_switches(ControllerId(c));
            assert!(row.windows(2).all(|w| w[0] < w[1]), "C{c}'s row ascends");
            assert!(row.iter().all(|&s| net.domain_of(s) == ControllerId(c)));
            listed += row.len();
        }
        assert_eq!(
            listed,
            net.switch_count(),
            "the rows partition the switches"
        );

        let cache = NetCache::build(net);
        let m = net.controllers().len();
        let mut rng = DetRng::seed_from_u64(seed);
        let f = 1 + (rng.next_u64() as usize) % (m - 1);
        let start = random_set(&mut rng, m, f);
        let mut cur = net.fail_cached(&start, &cache).unwrap();
        assert_eq!(cur, filter_built(net, &start, &cache), "cold {start:?}");
        for _ in 0..jumps {
            let next = random_set(&mut rng, m, f);
            let failed = cur.failed_controllers().to_vec();
            let outs = failed.iter().filter(|c| !next.contains(c));
            let ins = next.iter().filter(|c| !failed.contains(c));
            for (&out, &into) in outs.zip(ins) {
                cur.apply_delta_cached(out, into, &cache).unwrap();
                let cold = net.fail_cached(cur.failed_controllers(), &cache).unwrap();
                assert_eq!(cur, cold, "delta C{out}->C{into} to {next:?}");
                assert_eq!(cold, filter_built(net, cold.failed_controllers(), &cache));
            }
            assert_eq!(cur.failed_controllers(), &next[..]);
        }
    }

    #[test]
    fn swap_chains_match_cold_builds_on_att() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        for seed in 0..24 {
            check_swap_chains(&net, seed, 12);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random Waxman WANs, with nearest-controller domains or random
        /// explicit ones (which may leave a controller an empty row).
        #[test]
        fn swap_chains_match_cold_builds_on_waxman(
            nodes in 8usize..=48,
            m in 2usize..=8,
            graph_seed in 0u64..1_000,
            explicit in 0u8..=1,
            chain_seed in 0u64..1_000_000,
        ) {
            let graph = pm_topo::builders::waxman(&pm_topo::builders::WaxmanParams {
                nodes,
                seed: graph_seed,
                ..Default::default()
            })
            .unwrap();
            let mut b = SdWanBuilder::new(graph).allow_overload();
            for c in 0..m {
                b = b.controller(NodeId(c * nodes / m), 1_000);
            }
            if explicit == 1 {
                let mut rng = DetRng::seed_from_u64(chain_seed ^ 0x5eed);
                let mut domains = vec![Vec::new(); m];
                for s in 0..nodes {
                    domains[(rng.next_u64() as usize) % m].push(s);
                }
                b = b.domains(domains);
            }
            let net = b.build().unwrap();
            check_swap_chains(&net, chain_seed, 8);
        }
    }

    #[test]
    fn delta_rejects_bad_swaps() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        let prev = net.fail(&[ControllerId(0)]).unwrap();
        let mut cur = prev.clone();
        for (remove, add) in [
            // `remove` not failed.
            (1, 2),
            // `add` already failed (also covers remove == add).
            (0, 0),
            // Unknown ids.
            (0, 9),
            (9, 1),
        ] {
            assert!(cur
                .apply_delta_cached(ControllerId(remove), ControllerId(add), &cache)
                .is_err());
            // Errors leave the scenario untouched.
            assert_eq!(cur, prev, "swap C{remove}->C{add}");
        }
    }

    #[test]
    fn controller_order_sorted_with_id_tiebreak() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        for s in net.switches() {
            let order = net.controllers_by_delay(s);
            assert_eq!(order.len(), net.controllers().len());
            for w in order.windows(2) {
                let (da, db) = (net.ctrl_delay(s, w[0]), net.ctrl_delay(s, w[1]));
                assert!(da < db || (da == db && w[0] < w[1]));
            }
        }
    }

    #[test]
    fn rejects_incomplete_domains() {
        let err = SdWanBuilder::new(builders::ring(4))
            .controller(NodeId(0), 100)
            .domains(vec![vec![0, 1, 2]])
            .build()
            .unwrap_err();
        assert!(matches!(err, SdwanError::InvalidNetwork(_)));
    }

    #[test]
    fn rejects_overlapping_domains() {
        let err = SdWanBuilder::new(builders::ring(4))
            .controller(NodeId(0), 100)
            .controller(NodeId(2), 100)
            .domains(vec![vec![0, 1, 2], vec![2, 3]])
            .build()
            .unwrap_err();
        assert!(matches!(err, SdwanError::InvalidNetwork(_)));
    }
}
