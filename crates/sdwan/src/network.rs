//! The SD-WAN network: switches, controllers, domains and flows.
//!
//! A domain is kept two ways: per switch, its owner
//! ([`SdWan::domain_of`]), and per controller, its switches as one CSR row
//! in id order ([`SdWan::domain_switches`], a slice). The rows let
//! [`SdWan::controller_load`] sum one domain and a scenario swap touch
//! only the two swapped domains instead of scanning every switch.

use crate::programmability::Programmability;
use crate::SdwanError;
use pm_topo::{Graph, NodeId};
use std::fmt;
use std::sync::Arc;

/// Identifier of an SDN switch. Switches correspond one-to-one with
/// topology nodes: switch `i` sits at [`NodeId`] `i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub usize);

/// Identifier of a controller (dense index into [`SdWan::controllers`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ControllerId(pub usize);

/// Identifier of a flow (dense index into [`SdWan::flows`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub usize);

impl SwitchId {
    /// The topology node this switch sits at.
    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }

    /// Dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl ControllerId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl FlowId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ControllerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An SDN controller: placed at a topology node, with a finite processing
/// capacity measured in "flows it can control without extra delay" (the
/// paper's definition in Section IV-B2).
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    /// The node this controller is co-located with.
    pub node: NodeId,
    /// Processing capacity (number of controllable flows).
    pub capacity: u32,
}

/// A unidirectional traffic flow routed on a fixed forwarding path.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Ingress switch.
    pub src: SwitchId,
    /// Egress switch.
    pub dst: SwitchId,
    /// Forwarding path, inclusive of `src` and `dst`.
    pub path: Vec<SwitchId>,
}

impl Flow {
    /// `true` if the flow's path traverses `s`.
    pub fn traverses(&self, s: SwitchId) -> bool {
        self.path.contains(&s)
    }

    /// Number of links on the path.
    pub fn hop_count(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// The complete SD-WAN: topology, control plane and flow population.
///
/// Build with [`crate::SdWanBuilder`]; the struct itself is immutable — a
/// controller failure produces a [`crate::FailureScenario`] view rather than
/// mutating the network.
#[derive(Debug, Clone)]
pub struct SdWan {
    pub(crate) topology: Graph,
    pub(crate) controllers: Vec<Controller>,
    /// Per switch: the controller whose domain it belongs to.
    pub(crate) domain: Vec<ControllerId>,
    /// Every controller's domain as one CSR row of ascending switch ids:
    /// controller `j`'s switches are
    /// `domain_rows[domain_start[j]..domain_start[j + 1]]`. A scenario
    /// delta walks only the two swapped controllers' rows.
    pub(crate) domain_start: Vec<usize>,
    pub(crate) domain_rows: Vec<SwitchId>,
    pub(crate) flows: Vec<Flow>,
    /// Per switch: flows traversing it (defines `γ_i`).
    pub(crate) flows_at: Vec<Vec<FlowId>>,
    /// Row-major switch × controller delays: `ctrl_delay[i * K + j]` is the
    /// shortest-path propagation delay (ms) between switch `i` and
    /// controller `j`'s node, the paper's `D_ij`, for `K` controllers.
    pub(crate) ctrl_delay: Vec<f64>,
    /// Row-major switch × controller order: row `i` lists every controller
    /// by ascending delay from switch `i`, ties toward the lower id.
    pub(crate) ctrl_order: Vec<ControllerId>,
    /// The `β`/`p̄` table of the flows, built with the network and shared
    /// by [`Programmability::compute`] and [`crate::NetCache`].
    pub(crate) prog: Arc<Programmability>,
}

impl SdWan {
    /// The underlying topology.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// All controllers.
    pub fn controllers(&self) -> &[Controller] {
        &self.controllers
    }

    /// All flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// A flow by id.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn flow(&self, l: FlowId) -> &Flow {
        &self.flows[l.0]
    }

    /// Number of switches (== topology nodes).
    pub fn switch_count(&self) -> usize {
        self.topology.node_count()
    }

    /// Iterator over all switch ids.
    pub fn switches(&self) -> impl ExactSizeIterator<Item = SwitchId> {
        (0..self.switch_count()).map(SwitchId)
    }

    /// The controller owning switch `s`'s domain.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn domain_of(&self, s: SwitchId) -> ControllerId {
        self.domain[s.0]
    }

    /// The switches in controller `c`'s domain, in id order.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn domain_switches(&self, c: ControllerId) -> &[SwitchId] {
        &self.domain_rows[self.domain_start[c.0]..self.domain_start[c.0 + 1]]
    }

    /// Flows traversing switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn flows_at(&self, s: SwitchId) -> &[FlowId] {
        &self.flows_at[s.0]
    }

    /// The paper's `γ_i`: number of flows traversing switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn gamma(&self, s: SwitchId) -> u32 {
        self.flows_at[s.0].len() as u32
    }

    /// Control load of controller `c` in normal operation: the total number
    /// of flow-at-switch control points in its domain (`Σ_{i ∈ domain(c)}
    /// γ_i`). Matches the paper's Table III accounting.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn controller_load(&self, c: ControllerId) -> u32 {
        self.domain_switches(c).iter().map(|&s| self.gamma(s)).sum()
    }

    /// Residual capacity of controller `c` in normal operation
    /// (`capacity − load`); this is the paper's `A_j^rest`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn residual_capacity(&self, c: ControllerId) -> u32 {
        let cap = self.controllers[c.0].capacity;
        cap.saturating_sub(self.controller_load(c))
    }

    /// The paper's `D_ij`: shortest-path propagation delay between switch
    /// `s` and controller `c`'s node, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn ctrl_delay(&self, s: SwitchId, c: ControllerId) -> f64 {
        self.ctrl_delay_row(s)[c.0]
    }

    /// Switch `s`'s [`SdWan::ctrl_delay`] row: entry `j` is the delay to
    /// controller `j`, so a walk over one switch's controllers reads the
    /// row once.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn ctrl_delay_row(&self, s: SwitchId) -> &[f64] {
        let k = self.controllers.len();
        &self.ctrl_delay[s.0 * k..(s.0 + 1) * k]
    }

    /// Every controller by ascending [`SdWan::ctrl_delay`] from switch
    /// `s`, ties toward the lower id (the paper's `C(i)` over all
    /// controllers). Filtering this row to a scenario's active set gives
    /// that scenario's order, so it is sorted once, at build time.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn controllers_by_delay(&self, s: SwitchId) -> &[ControllerId] {
        let k = self.controllers.len();
        &self.ctrl_order[s.0 * k..(s.0 + 1) * k]
    }

    /// Validates that `c` exists.
    ///
    /// # Errors
    ///
    /// Returns [`SdwanError::UnknownController`] otherwise.
    pub fn check_controller(&self, c: ControllerId) -> Result<(), SdwanError> {
        if c.0 < self.controllers.len() {
            Ok(())
        } else {
            Err(SdwanError::UnknownController(c))
        }
    }
}
