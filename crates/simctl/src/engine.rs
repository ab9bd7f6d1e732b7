//! The simulation engine: failures, recovery message exchanges, and
//! data-plane walks.

use crate::event::{ControlMessage, Event, EventQueue};
use crate::report::SimReport;
use crate::time::SimTime;
use crate::SimError;
use pm_sdwan::hybrid::{HybridTable, RoutingMode};
use pm_sdwan::{ControllerId, FailureScenario, FlowId, RecoveryPlan, SdWan, SwitchId};
use pm_topo::Graph;
use std::collections::{BTreeMap, BTreeSet};

/// Timing model of the recovery control plane.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryTiming {
    /// Controller service time per outbound message, in milliseconds
    /// (serialization at the controller models its finite processing rate;
    /// bursts queue FIFO).
    pub msg_service_ms: f64,
    /// Extra one-way latency per message through a middle layer (0 for
    /// direct OpenFlow; the FlowVisor figure for PG-style solutions).
    pub middle_layer_ms: f64,
}

impl Default for RecoveryTiming {
    fn default() -> Self {
        RecoveryTiming {
            msg_service_ms: 0.05,
            middle_layer_ms: 0.0,
        }
    }
}

/// Cascading-failure model (the paper's motivation cites Yao et al. \[8\]:
/// overloading an active controller during recovery can fail it too).
/// When enabled, a controller whose total control load (its own domain
/// plus adopted flows) exceeds its capacity fails after `delay`.
#[derive(Debug, Clone, Copy)]
pub struct CascadeConfig {
    /// How long an overloaded controller survives before failing.
    pub delay: SimTime,
}

/// A stored recovery action (plan + timing), referenced by
/// [`Event::StartRecovery`].
struct PendingRecovery {
    /// Switch → adopting controller.
    mapping: Vec<(SwitchId, ControllerId)>,
    /// Per switch: flows to install entries for (SDN-mode selections).
    flow_mods: BTreeMap<SwitchId, Vec<FlowId>>,
    /// Switches whose FlowMods have already been dispatched — a later
    /// re-handshake (e.g. after a successive failure re-homes the switch)
    /// transfers control only; the hardware entries persist.
    dispatched: BTreeSet<SwitchId>,
    timing: RecoveryTiming,
}

/// The discrete-event simulation over one [`SdWan`].
pub struct Simulation<'net> {
    net: &'net SdWan,
    queue: EventQueue,
    now: SimTime,
    /// Per switch: forwarding state.
    tables: Vec<HybridTable>,
    /// Per switch: controlling controller (None = offline).
    master: Vec<Option<ControllerId>>,
    /// Per controller: alive flag.
    alive: Vec<bool>,
    /// Per controller: when its FIFO send queue drains.
    next_free: Vec<SimTime>,
    plans: Vec<PendingRecovery>,
    // --- statistics ---
    failure_time: Option<SimTime>,
    switch_recovered_at: BTreeMap<SwitchId, SimTime>,
    flow_first_entry_at: BTreeMap<FlowId, SimTime>,
    flow_last_entry_at: BTreeMap<FlowId, SimTime>,
    flow_mods_expected: BTreeMap<FlowId, usize>,
    flow_mods_seen: BTreeMap<FlowId, usize>,
    role_requests_sent: usize,
    flow_mods_sent: usize,
    cascade: Option<CascadeConfig>,
    /// Extra control load adopted by each controller during recovery.
    extra_load: Vec<u32>,
    cascaded: Vec<ControllerId>,
    cascade_scheduled: Vec<bool>,
    // --- flow-expiry / PacketIn workload ---
    packet_ins_sent: usize,
    flow_setups_sent: usize,
    resetup_pending: BTreeMap<FlowId, usize>,
    resetup_started: BTreeMap<FlowId, SimTime>,
    resetup_done: BTreeMap<FlowId, SimTime>,
    /// Per-flow: on-path switches that fell back to legacy at expiry
    /// because they had no master.
    legacy_fallback_switches: BTreeMap<FlowId, usize>,
    /// Links failed so far (canonical endpoint order).
    failed_links: Vec<(SwitchId, SwitchId)>,
    /// The surviving topology after link failures (None = pristine).
    surviving: Option<Graph>,
    /// How long OSPF takes to reconverge after a link failure.
    ospf_convergence: SimTime,
}

impl<'net> Simulation<'net> {
    /// Builds the simulation in normal operation: every switch controlled
    /// by its domain controller, hybrid tables primed with legacy (OSPF)
    /// routes and one flow entry per flow per on-path switch.
    pub fn new(net: &'net SdWan) -> Self {
        let mut tables: Vec<HybridTable> = net
            .switches()
            .map(|s| {
                HybridTable::from_legacy_spf(net.topology(), s, RoutingMode::Hybrid)
                    .expect("switch ids are topology nodes")
            })
            .collect();
        for (l, flow) in net.flows().iter().enumerate() {
            for w in flow.path.windows(2) {
                tables[w[0].index()].install_flow_entry(FlowId(l), w[1]);
            }
        }
        let master = net.switches().map(|s| Some(net.domain_of(s))).collect();
        Simulation {
            net,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            tables,
            master,
            alive: vec![true; net.controllers().len()],
            next_free: vec![SimTime::ZERO; net.controllers().len()],
            plans: Vec::new(),
            failure_time: None,
            switch_recovered_at: BTreeMap::new(),
            flow_first_entry_at: BTreeMap::new(),
            flow_last_entry_at: BTreeMap::new(),
            flow_mods_expected: BTreeMap::new(),
            flow_mods_seen: BTreeMap::new(),
            role_requests_sent: 0,
            flow_mods_sent: 0,
            cascade: None,
            extra_load: vec![0; net.controllers().len()],
            cascaded: vec![],
            cascade_scheduled: vec![false; net.controllers().len()],
            packet_ins_sent: 0,
            flow_setups_sent: 0,
            resetup_pending: BTreeMap::new(),
            resetup_started: BTreeMap::new(),
            resetup_done: BTreeMap::new(),
            legacy_fallback_switches: BTreeMap::new(),
            failed_links: Vec::new(),
            surviving: None,
            ospf_convergence: SimTime::from_ms(50.0),
        }
    }

    /// Overrides the OSPF reconvergence delay after link failures (default
    /// 50 ms — sub-second IGP convergence with tuned timers).
    pub fn set_ospf_convergence(&mut self, delay: SimTime) {
        self.ospf_convergence = delay;
    }

    /// Schedules a bidirectional link failure between switches `a` and `b`.
    /// Until OSPF reconverges, flow entries forwarding over the link are
    /// black holes; afterwards every legacy table reflects the surviving
    /// topology and the dead entries are flushed.
    pub fn schedule_link_failure(&mut self, at: SimTime, a: SwitchId, b: SwitchId) {
        self.queue.push(at, Event::LinkFailure { a, b });
    }

    /// Links failed so far.
    pub fn failed_links(&self) -> &[(SwitchId, SwitchId)] {
        &self.failed_links
    }

    /// Schedules a hard expiry of `flow`'s entries at every switch on its
    /// path. Switches with a live master answer with a `PacketIn` →
    /// `FlowSetup` exchange; masterless switches silently fall back to
    /// their legacy table (the hybrid pipeline keeps delivering).
    pub fn schedule_flow_expiry(&mut self, at: SimTime, flow: FlowId) {
        self.queue.push(at, Event::FlowExpiry { flow });
    }

    /// Enables the cascading-failure model: an active controller whose own
    /// load plus adopted recovery load exceeds its capacity fails after
    /// `config.delay`. Plans that pass
    /// [`pm_sdwan::RecoveryPlan::validate`] never trigger this (Eq. (3)
    /// keeps every controller within capacity) — the model exists to show
    /// what *invalid* remappings cost, the paper's cascading-failure
    /// motivation.
    pub fn enable_cascade(&mut self, config: CascadeConfig) {
        self.cascade = Some(config);
    }

    /// Controllers that failed by cascade so far.
    pub fn cascaded_controllers(&self) -> &[ControllerId] {
        &self.cascaded
    }

    /// Checks controller `c` against its capacity and schedules a cascade
    /// failure if overloaded.
    fn check_cascade(&mut self, c: ControllerId) {
        let Some(config) = self.cascade else { return };
        if !self.alive[c.index()] || self.cascade_scheduled[c.index()] {
            return;
        }
        let own = self.net.controller_load(c);
        let total = own + self.extra_load[c.index()];
        if total > self.net.controllers()[c.index()].capacity {
            self.cascade_scheduled[c.index()] = true;
            self.cascaded.push(c);
            self.queue.push(
                self.now + config.delay,
                Event::ControllerFailure {
                    controllers: vec![c],
                },
            );
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The controller currently controlling switch `s`, if any.
    pub fn master_of(&self, s: SwitchId) -> Option<ControllerId> {
        self.master[s.index()]
    }

    /// Read access to a switch's forwarding table.
    pub fn table(&self, s: SwitchId) -> &HybridTable {
        &self.tables[s.index()]
    }

    /// Schedules a controller failure.
    pub fn schedule_failure(&mut self, at: SimTime, controllers: &[ControllerId]) {
        self.queue.push(
            at,
            Event::ControllerFailure {
                controllers: controllers.to_vec(),
            },
        );
    }

    /// Schedules the hand-over of a recovery plan to the active
    /// controllers (typically failure time + detection + computation).
    pub fn schedule_recovery(
        &mut self,
        at: SimTime,
        scenario: &FailureScenario<'_>,
        plan: &RecoveryPlan,
        timing: RecoveryTiming,
    ) {
        let _ = scenario; // shape-checked at validation time by callers
        let mapping: Vec<(SwitchId, ControllerId)> = plan.mappings().collect();
        let mut flow_mods: BTreeMap<SwitchId, Vec<FlowId>> = BTreeMap::new();
        for (s, l, c) in plan.sdn_selections() {
            // Flow-level plans may address unmapped switches; the adopting
            // controller is then the pair's own controller and the switch
            // still needs a role handshake — synthesize one mapping per
            // switch from the first selection.
            flow_mods.entry(s).or_default().push(l);
            let _ = c;
        }
        let mut mapping_full = mapping;
        let mapped: BTreeSet<SwitchId> = mapping_full.iter().map(|&(s, _)| s).collect();
        for (s, l, c) in plan.sdn_selections() {
            if !mapped.contains(&s) && !mapping_full.iter().any(|&(ms, _)| ms == s) {
                mapping_full.push((s, c));
            }
            let _ = l;
        }
        for flows in flow_mods.values_mut() {
            flows.sort();
            flows.dedup();
        }
        for flows in flow_mods.values() {
            for &l in flows {
                *self.flow_mods_expected.entry(l).or_insert(0) += 1;
            }
        }
        let plan_index = self.plans.len();
        self.plans.push(PendingRecovery {
            mapping: mapping_full,
            flow_mods,
            dispatched: BTreeSet::new(),
            timing,
        });
        self.queue.push(at, Event::StartRecovery { plan_index });
    }

    /// Runs until the event queue drains or `until` is reached, then walks
    /// every flow through the data plane.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimeTravel`] if an event was scheduled before an
    /// already-processed one in a way that violates causality (a bug).
    pub fn run(&mut self, until: SimTime) -> Result<SimReport, SimError> {
        while let Some((at, event)) = self.queue.pop() {
            if at < self.now {
                return Err(SimError::TimeTravel { at });
            }
            if at > until {
                // Push back and stop: simulation horizon reached.
                self.queue.push(at, event);
                break;
            }
            self.now = at;
            self.handle(event);
        }
        Ok(self.report())
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::ControllerFailure { controllers } => {
                self.failure_time.get_or_insert(self.now);
                for c in controllers {
                    self.alive[c.index()] = false;
                    for s in self.net.switches() {
                        if self.master[s.index()] == Some(c) {
                            self.master[s.index()] = None;
                        }
                    }
                }
                // Offline switches flush their OpenFlow entries (hybrid
                // fail-standalone: the legacy table takes over) — flushed
                // here for every currently-masterless switch.
                for s in self.net.switches() {
                    if self.master[s.index()].is_none() {
                        self.tables[s.index()].clear_flow_entries();
                    }
                }
            }
            Event::StartRecovery { plan_index } => {
                let (mapping, timing) = {
                    let p = &self.plans[plan_index];
                    (p.mapping.clone(), p.timing)
                };
                for (s, c) in mapping {
                    if !self.alive[c.index()] {
                        continue; // plan targeted a controller that died since
                    }
                    let depart = self.controller_send(c, timing.msg_service_ms);
                    let arrive = depart
                        + SimTime::from_ms(self.net.ctrl_delay(s, c) + timing.middle_layer_ms);
                    self.role_requests_sent += 1;
                    self.queue.push(
                        arrive,
                        Event::Deliver {
                            message: ControlMessage::RoleRequest { from: c, to: s },
                        },
                    );
                    // Remember which plan this handshake belongs to via the
                    // switch's flow-mod list (looked up on RoleReply).
                }
            }
            Event::Deliver { message } => self.deliver(message),
            Event::FlowExpiry { flow } => {
                let path = self.net.flow(flow).path.clone();
                self.resetup_started.insert(flow, self.now);
                let mut pending = 0usize;
                let mut fallback = 0usize;
                for w in path.windows(2) {
                    let s = w[0];
                    self.tables[s.index()].remove_flow_entry(flow);
                    match self.master[s.index()] {
                        Some(c) if self.alive[c.index()] => {
                            pending += 1;
                            self.packet_ins_sent += 1;
                            let timing = self.timing_for_switch(s);
                            let arrive = self.now
                                + SimTime::from_ms(
                                    self.net.ctrl_delay(s, c) + timing.middle_layer_ms,
                                );
                            self.queue.push(
                                arrive,
                                Event::Deliver {
                                    message: ControlMessage::PacketIn {
                                        from: s,
                                        to: c,
                                        flow,
                                    },
                                },
                            );
                        }
                        _ => fallback += 1,
                    }
                }
                self.legacy_fallback_switches.insert(flow, fallback);
                if pending == 0 {
                    self.resetup_done.insert(flow, self.now);
                } else {
                    self.resetup_pending.insert(flow, pending);
                }
            }
            Event::LinkFailure { a, b } => {
                let base = self
                    .surviving
                    .as_ref()
                    .unwrap_or_else(|| self.net.topology());
                let Some(cut) = base.without_edge(a.node(), b.node()) else {
                    return; // already failed or never existed
                };
                let key = if a <= b { (a, b) } else { (b, a) };
                self.surviving = Some(cut);
                self.failed_links.push(key);
                self.failure_time.get_or_insert(self.now);
                self.queue.push(
                    self.now + self.ospf_convergence,
                    Event::OspfReconverged { a, b },
                );
            }
            Event::OspfReconverged { a, b } => {
                let graph = self
                    .surviving
                    .clone()
                    .expect("link failure precedes reconvergence");
                // Rebuild every switch's legacy table on the surviving
                // topology and flush flow entries over any dead link.
                for s in self.net.switches() {
                    let fresh = HybridTable::from_legacy_spf(&graph, s, RoutingMode::Hybrid)
                        .expect("switch ids are topology nodes");
                    let old = std::mem::replace(&mut self.tables[s.index()], fresh);
                    // Carry over surviving flow entries.
                    for l in 0..self.net.flows().len() {
                        let flow = FlowId(l);
                        let dst = self.net.flow(flow).dst;
                        if let Some(fwd) = old.lookup(flow, dst) {
                            if fwd.hit == pm_sdwan::hybrid::TableHit::FlowTable {
                                let dead = self.failed_links.iter().any(|&(x, y)| {
                                    (x == s && y == fwd.next_hop) || (y == s && x == fwd.next_hop)
                                });
                                if !dead {
                                    self.tables[s.index()].install_flow_entry(flow, fwd.next_hop);
                                }
                            }
                        }
                    }
                }
                let _ = (a, b);
            }
        }
    }

    /// Serializes an outbound message at controller `c`: returns the
    /// departure time and advances the controller's queue.
    fn controller_send(&mut self, c: ControllerId, service_ms: f64) -> SimTime {
        let start = self.next_free[c.index()].max(self.now);
        let depart = start + SimTime::from_ms(service_ms);
        self.next_free[c.index()] = depart;
        depart
    }

    fn deliver(&mut self, message: ControlMessage) {
        match message {
            ControlMessage::RoleRequest { from, to } => {
                // The switch accepts the new master immediately and replies.
                self.master[to.index()] = Some(from);
                // Reply flies back with the same propagation delay (the
                // middle layer sits on the controller side of the path, so
                // it is traversed in both directions).
                let timing = self.timing_for_switch(to);
                let arrive = self.now
                    + SimTime::from_ms(self.net.ctrl_delay(to, from) + timing.middle_layer_ms);
                self.queue.push(
                    arrive,
                    Event::Deliver {
                        message: ControlMessage::RoleReply { from: to, to: from },
                    },
                );
            }
            ControlMessage::RoleReply { from: s, to: c } => {
                self.switch_recovered_at.entry(s).or_insert(self.now);
                // The controller now pushes this switch's FlowMods — once
                // per plan: re-handshakes after later failures transfer
                // control only, the hardware entries persist.
                let (flows, timing) = {
                    let mut flows = Vec::new();
                    let mut timing = RecoveryTiming::default();
                    for p in self.plans.iter_mut() {
                        if let Some(fl) = p.flow_mods.get(&s) {
                            if p.dispatched.insert(s) {
                                flows.extend(fl.iter().copied());
                            }
                            timing = p.timing;
                        }
                    }
                    (flows, timing)
                };
                for l in flows {
                    let depart = self.controller_send(c, timing.msg_service_ms);
                    let arrive = depart
                        + SimTime::from_ms(self.net.ctrl_delay(s, c) + timing.middle_layer_ms);
                    self.flow_mods_sent += 1;
                    self.extra_load[c.index()] += 1;
                    self.queue.push(
                        arrive,
                        Event::Deliver {
                            message: ControlMessage::FlowMod {
                                from: c,
                                to: s,
                                flow: l,
                            },
                        },
                    );
                }
                self.check_cascade(c);
            }
            ControlMessage::PacketIn {
                from: s,
                to: c,
                flow,
            } => {
                // The controller re-installs the entry.
                let timing = self.timing_for_switch(s);
                let depart = self.controller_send(c, timing.msg_service_ms);
                let arrive =
                    depart + SimTime::from_ms(self.net.ctrl_delay(s, c) + timing.middle_layer_ms);
                self.flow_setups_sent += 1;
                self.queue.push(
                    arrive,
                    Event::Deliver {
                        message: ControlMessage::FlowSetup {
                            from: c,
                            to: s,
                            flow,
                        },
                    },
                );
            }
            ControlMessage::FlowSetup {
                from: _,
                to: s,
                flow,
            } => {
                let f = self.net.flow(flow);
                if let Some(pos) = f.path.iter().position(|&x| x == s) {
                    if pos + 1 < f.path.len() {
                        self.tables[s.index()].install_flow_entry(flow, f.path[pos + 1]);
                    }
                }
                if let Some(p) = self.resetup_pending.get_mut(&flow) {
                    *p -= 1;
                    if *p == 0 {
                        self.resetup_pending.remove(&flow);
                        self.resetup_done.insert(flow, self.now);
                    }
                }
            }
            ControlMessage::FlowMod {
                from: _,
                to: s,
                flow,
            } => {
                // Install the entry: forward along the flow's original path.
                let f = self.net.flow(flow);
                if let Some(pos) = f.path.iter().position(|&x| x == s) {
                    if pos + 1 < f.path.len() {
                        self.tables[s.index()].install_flow_entry(flow, f.path[pos + 1]);
                    }
                }
                self.flow_first_entry_at.entry(flow).or_insert(self.now);
                let seen = {
                    let counter = self.flow_mods_seen.entry(flow).or_insert(0);
                    *counter += 1;
                    *counter
                };
                if self.flow_mods_expected.get(&flow) == Some(&seen) {
                    self.flow_last_entry_at.insert(flow, self.now);
                }
            }
        }
    }

    fn timing_for_switch(&self, s: SwitchId) -> RecoveryTiming {
        self.plans
            .iter()
            .find(|p| p.mapping.iter().any(|&(ms, _)| ms == s))
            .map(|p| p.timing)
            .unwrap_or_default()
    }

    /// Walks flow `l` hop by hop through the switch tables.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Undeliverable`] when no table matches or a
    /// forwarding loop is detected.
    pub fn walk_flow(&self, l: FlowId) -> Result<Vec<SwitchId>, SimError> {
        let flow = self.net.flow(l);
        let mut cur = flow.src;
        let mut visited = vec![flow.src];
        let limit = 2 * self.net.switch_count();
        while cur != flow.dst {
            if visited.len() > limit {
                return Err(SimError::Undeliverable {
                    flow: l,
                    stuck_at: cur,
                });
            }
            let Some(fwd) = self.tables[cur.index()].lookup(l, flow.dst) else {
                return Err(SimError::Undeliverable {
                    flow: l,
                    stuck_at: cur,
                });
            };
            // A forwarding decision over a failed link is a black hole
            // (packets are dropped at the dead interface).
            let over_dead_link = self
                .failed_links
                .iter()
                .any(|&(x, y)| (x == cur && y == fwd.next_hop) || (y == cur && x == fwd.next_hop));
            if over_dead_link {
                return Err(SimError::Undeliverable {
                    flow: l,
                    stuck_at: cur,
                });
            }
            cur = fwd.next_hop;
            visited.push(cur);
        }
        Ok(visited)
    }

    fn report(&self) -> SimReport {
        let fail = self.failure_time.unwrap_or(SimTime::ZERO);
        let rel = |t: SimTime| t.saturating_sub(fail).as_ms();
        let mut undeliverable = Vec::new();
        for l in 0..self.net.flows().len() {
            if self.walk_flow(FlowId(l)).is_err() {
                undeliverable.push(FlowId(l));
            }
        }
        SimReport {
            finished_at: self.now,
            failure_at: self.failure_time,
            switch_recovery_ms: self
                .switch_recovered_at
                .iter()
                .map(|(&s, &t)| (s, rel(t)))
                .collect(),
            flow_first_program_ms: self
                .flow_first_entry_at
                .iter()
                .map(|(&l, &t)| (l, rel(t)))
                .collect(),
            flow_fully_program_ms: self
                .flow_last_entry_at
                .iter()
                .map(|(&l, &t)| (l, rel(t)))
                .collect(),
            role_requests_sent: self.role_requests_sent,
            flow_mods_sent: self.flow_mods_sent,
            all_flows_deliverable: undeliverable.is_empty(),
            undeliverable,
            cascaded_controllers: self.cascaded.clone(),
            packet_ins_sent: self.packet_ins_sent,
            flow_setups_sent: self.flow_setups_sent,
            flow_resetup_ms: self
                .resetup_done
                .iter()
                .map(|(&l, &done)| {
                    let start = self.resetup_started.get(&l).copied().unwrap_or(done);
                    (l, (done.saturating_sub(start)).as_ms())
                })
                .collect(),
            legacy_fallback_switches: self
                .legacy_fallback_switches
                .iter()
                .map(|(&l, &n)| (l, n))
                .collect(),
        }
    }
}
