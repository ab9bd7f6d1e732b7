//! The hybrid SDN/legacy forwarding model of high-end commercial switches
//! (paper Fig. 2).
//!
//! A hybrid switch holds two tables: a high-priority OpenFlow flow table
//! matched first, and a low-priority legacy (OSPF) routing table holding
//! destination-based entries. A default low-priority flow-table entry sends
//! unmatched packets to the legacy table. [`HybridTable::lookup`] reproduces
//! that pipeline; [`HybridTable::from_legacy_spf`] fills the legacy table
//! from shortest-path-first routing, exactly what OSPF converges to.

use crate::network::{FlowId, SwitchId};
use crate::SdwanError;
use pm_topo::{paths, Graph};
use std::collections::HashMap;

/// Which routing planes a switch has enabled (paper Fig. 2(a)–(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// OpenFlow only — unmatched packets are dropped (sent to the
    /// controller in a real deployment).
    SdnOnly,
    /// Legacy (OSPF) only.
    LegacyOnly,
    /// Both tables, flow table first. This is the mode PM exploits.
    #[default]
    Hybrid,
}

/// Which table produced a forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableHit {
    /// The high-priority OpenFlow flow table.
    FlowTable,
    /// The low-priority legacy routing table.
    LegacyTable,
}

/// A forwarding decision: the next hop and the table that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forwarding {
    /// Next-hop switch.
    pub next_hop: SwitchId,
    /// Which table matched.
    pub hit: TableHit,
}

/// The two-table forwarding state of one hybrid switch.
#[derive(Debug, Clone, Default)]
pub struct HybridTable {
    switch: SwitchId,
    mode: RoutingMode,
    /// Exact-match flow entries: flow → next hop.
    flow_entries: HashMap<FlowId, SwitchId>,
    /// Destination-based legacy entries: destination → next hop.
    legacy_entries: HashMap<SwitchId, SwitchId>,
}

impl HybridTable {
    /// An empty table for `switch` in the given mode.
    pub fn new(switch: SwitchId, mode: RoutingMode) -> Self {
        HybridTable {
            switch,
            mode,
            ..Default::default()
        }
    }

    /// Builds the table with the legacy side filled from shortest-path-first
    /// routing on `g` (what OSPF computes): for every destination, the next
    /// hop along the shortest path from `switch`.
    ///
    /// # Errors
    ///
    /// Returns an error if `switch` is not a node of `g`.
    pub fn from_legacy_spf(
        g: &Graph,
        switch: SwitchId,
        mode: RoutingMode,
    ) -> Result<Self, SdwanError> {
        g.check_node(switch.node())?;
        let spt = paths::dijkstra(g, switch.node());
        let mut legacy_entries = HashMap::new();
        for dst in g.nodes() {
            if dst == switch.node() {
                continue;
            }
            if let Some(path) = spt.path_to(dst) {
                legacy_entries.insert(SwitchId(dst.index()), SwitchId(path[1].index()));
            }
        }
        Ok(HybridTable {
            switch,
            mode,
            flow_entries: HashMap::new(),
            legacy_entries,
        })
    }

    /// The switch this table belongs to.
    pub fn switch(&self) -> SwitchId {
        self.switch
    }

    /// The configured routing mode.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Reconfigures the routing mode (controllers do this when recovering a
    /// switch).
    pub fn set_mode(&mut self, mode: RoutingMode) {
        self.mode = mode;
    }

    /// Installs (or overwrites) a flow-table entry. This is what a `FlowMod`
    /// from the controller does.
    pub fn install_flow_entry(&mut self, flow: FlowId, next_hop: SwitchId) {
        self.flow_entries.insert(flow, next_hop);
    }

    /// Removes a flow-table entry; returns `true` if one existed.
    pub fn remove_flow_entry(&mut self, flow: FlowId) -> bool {
        self.flow_entries.remove(&flow).is_some()
    }

    /// Flushes every flow-table entry (what a fail-standalone switch does
    /// when its hard timeouts expire after losing the controller); legacy
    /// entries survive — OSPF keeps running.
    pub fn clear_flow_entries(&mut self) {
        self.flow_entries.clear();
    }

    /// Forwards a packet of `flow` addressed to `dst` through the two-table
    /// pipeline. Returns `None` if no table matches (packet punted/dropped).
    pub fn lookup(&self, flow: FlowId, dst: SwitchId) -> Option<Forwarding> {
        let flow_hit = || {
            self.flow_entries.get(&flow).map(|&nh| Forwarding {
                next_hop: nh,
                hit: TableHit::FlowTable,
            })
        };
        let legacy_hit = || {
            self.legacy_entries.get(&dst).map(|&nh| Forwarding {
                next_hop: nh,
                hit: TableHit::LegacyTable,
            })
        };
        match self.mode {
            RoutingMode::SdnOnly => flow_hit(),
            RoutingMode::LegacyOnly => legacy_hit(),
            RoutingMode::Hybrid => flow_hit().or_else(legacy_hit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_topo::builders;

    fn table() -> HybridTable {
        // 3x3 grid; switch 0 routes legacy by SPF.
        let g = builders::grid(3, 3);
        HybridTable::from_legacy_spf(&g, SwitchId(0), RoutingMode::Hybrid).unwrap()
    }

    #[test]
    fn legacy_spf_fills_all_destinations() {
        let t = table();
        for d in 1..9 {
            assert!(
                t.lookup(FlowId(999), SwitchId(d)).is_some(),
                "no route to {d}"
            );
        }
    }

    #[test]
    fn flow_table_takes_priority_in_hybrid() {
        let mut t = table();
        let legacy = t.lookup(FlowId(7), SwitchId(8)).unwrap();
        assert_eq!(legacy.hit, TableHit::LegacyTable);
        // Install a flow entry steering flow 7 differently.
        t.install_flow_entry(FlowId(7), SwitchId(3));
        let hit = t.lookup(FlowId(7), SwitchId(8)).unwrap();
        assert_eq!(hit.hit, TableHit::FlowTable);
        assert_eq!(hit.next_hop, SwitchId(3));
        // Other flows still fall through to legacy.
        assert_eq!(
            t.lookup(FlowId(8), SwitchId(8)).unwrap().hit,
            TableHit::LegacyTable
        );
    }

    #[test]
    fn sdn_only_drops_unmatched() {
        let mut t = table();
        t.set_mode(RoutingMode::SdnOnly);
        assert!(t.lookup(FlowId(1), SwitchId(8)).is_none());
        t.install_flow_entry(FlowId(1), SwitchId(1));
        assert_eq!(
            t.lookup(FlowId(1), SwitchId(8)).unwrap().hit,
            TableHit::FlowTable
        );
    }

    #[test]
    fn legacy_only_ignores_flow_entries() {
        let mut t = table();
        t.install_flow_entry(FlowId(1), SwitchId(3));
        t.set_mode(RoutingMode::LegacyOnly);
        let hit = t.lookup(FlowId(1), SwitchId(8)).unwrap();
        assert_eq!(hit.hit, TableHit::LegacyTable);
        assert_ne!(hit.next_hop, SwitchId(3));
    }

    #[test]
    fn remove_flow_entry_restores_legacy() {
        let mut t = table();
        t.install_flow_entry(FlowId(2), SwitchId(3));
        assert!(t.remove_flow_entry(FlowId(2)));
        assert!(!t.remove_flow_entry(FlowId(2)));
        assert_eq!(
            t.lookup(FlowId(2), SwitchId(8)).unwrap().hit,
            TableHit::LegacyTable
        );
    }

    #[test]
    fn legacy_next_hop_is_on_shortest_path() {
        let g = builders::grid(3, 3);
        let t = HybridTable::from_legacy_spf(&g, SwitchId(0), RoutingMode::LegacyOnly).unwrap();
        let spt = paths::dijkstra(&g, pm_topo::NodeId(0));
        for d in 1..9 {
            let nh = t.lookup(FlowId(0), SwitchId(d)).unwrap().next_hop;
            let path = spt.path_to(pm_topo::NodeId(d)).unwrap();
            assert_eq!(nh.node(), path[1]);
        }
    }

    #[test]
    fn no_self_route() {
        let t = table();
        assert!(t.lookup(FlowId(0), SwitchId(0)).is_none());
    }
}
