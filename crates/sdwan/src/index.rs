//! The dense index space: contiguous `usize` indices for switches, flows
//! and controllers, plus flat tables addressed by them.
//!
//! [`SwitchId`](crate::SwitchId), [`FlowId`](crate::FlowId) and
//! [`ControllerId`](crate::ControllerId) are interned at network
//! build time: switch `i` sits at node `i`, and flows and controllers are
//! numbered densely in creation order. [`IndexSpace`] records the three
//! universe sizes of one network so every layer can allocate exact-size
//! dense tables instead of keyed maps.

use crate::network::SdWan;

/// The sizes of one network's three id universes.
///
/// IDs are already dense creation-order indices, so the "interner" is the
/// record of how many of each exist; dense tables are then addressed by
/// `id.index()` directly, with out-of-range ids simply absent.
///
/// # Example
///
/// ```
/// use pm_sdwan::{IndexSpace, SdWanBuilder};
/// let net = SdWanBuilder::att_paper_setup().build()?;
/// let space = IndexSpace::of(&net);
/// assert_eq!(space.switch_count(), 25);
/// let mut gamma = space.switch_table(0u32);
/// for s in net.switches() {
///     gamma[s.index()] = net.gamma(s);
/// }
/// # Ok::<(), pm_sdwan::SdwanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSpace {
    switches: usize,
    flows: usize,
    controllers: usize,
}

impl IndexSpace {
    /// Captures the index space of `net`.
    pub fn of(net: &SdWan) -> Self {
        IndexSpace {
            switches: net.switch_count(),
            flows: net.flows().len(),
            controllers: net.controllers().len(),
        }
    }

    /// Number of switch indices (== topology nodes).
    pub fn switch_count(&self) -> usize {
        self.switches
    }

    /// Number of flow indices.
    pub fn flow_count(&self) -> usize {
        self.flows
    }

    /// Number of controller indices.
    pub fn controller_count(&self) -> usize {
        self.controllers
    }

    /// A dense per-switch table filled with `fill`, addressed by
    /// `SwitchId::index`.
    pub fn switch_table<T: Clone>(&self, fill: T) -> Vec<T> {
        vec![fill; self.switches]
    }

    /// A dense per-flow table filled with `fill`, addressed by
    /// `FlowId::index`.
    pub fn flow_table<T: Clone>(&self, fill: T) -> Vec<T> {
        vec![fill; self.flows]
    }

    /// A dense per-controller table filled with `fill`, addressed by
    /// `ControllerId::index`.
    pub fn controller_table<T: Clone>(&self, fill: T) -> Vec<T> {
        vec![fill; self.controllers]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SdWanBuilder;
    use pm_topo::{builders, NodeId};

    fn net() -> SdWan {
        SdWanBuilder::new(builders::grid(3, 3))
            .controller(NodeId(0), 500)
            .build()
            .unwrap()
    }

    #[test]
    fn space_matches_network_sizes() {
        let net = net();
        let space = IndexSpace::of(&net);
        assert_eq!(space.switch_count(), net.switch_count());
        assert_eq!(space.flow_count(), net.flows().len());
        assert_eq!(space.controller_count(), net.controllers().len());
    }

    #[test]
    fn tables_have_exact_sizes() {
        let space = IndexSpace::of(&net());
        assert_eq!(space.switch_table(0u8).len(), space.switch_count());
        assert_eq!(space.flow_table(false).len(), space.flow_count());
        assert_eq!(space.controller_table(0u32).len(), space.controller_count());
    }
}
