//! Per-network derived state, computed once and shared across scenarios.
//!
//! A failure sweep evaluates every k-subset of controllers against the same
//! [`SdWan`]. Part of the per-scenario setup cost is state that does not
//! depend on *which* controllers failed: the programmability table and each
//! controller's normal load. The table is built with the network
//! ([`SdWanBuilder::build`] derives it from the shortest-path trees it
//! settles per flow endpoint), and [`NetCache`] shares it and computes the
//! loads once; [`SdWan::fail_cached`] then builds per-scenario views from
//! cached parts without repeating the work — with results identical to the
//! uncached paths. Each switch's controllers-by-delay order is not cached
//! here: the network itself sorts it once ([`SdWan::controllers_by_delay`]).
//!
//! [`SdWanBuilder::build`]: crate::SdWanBuilder::build

use crate::network::{ControllerId, SdWan};
use crate::programmability::Programmability;
use std::sync::Arc;

/// Read-only derived state of one [`SdWan`], shareable across threads.
///
/// # Example
///
/// ```
/// use pm_sdwan::{NetCache, SdWanBuilder, ControllerId};
///
/// let net = SdWanBuilder::att_paper_setup().build()?;
/// let cache = NetCache::build(&net);
/// assert_eq!(
///     cache.residual_capacity(ControllerId(0)),
///     net.residual_capacity(ControllerId(0)),
/// );
/// # Ok::<(), pm_sdwan::SdwanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetCache {
    prog: Arc<Programmability>,
    /// Normal-operation control load per controller.
    loads: Vec<u32>,
    /// Normal-operation residual capacity per controller (`A_j^rest`).
    residuals: Vec<u32>,
}

impl NetCache {
    /// Shares `net`'s programmability table and computes its loads.
    pub fn build(net: &SdWan) -> Self {
        let _span = pm_obs::span("sdwan.netcache.build");
        let prog = Programmability::compute(net);
        let loads: Vec<u32> = (0..net.controllers().len())
            .map(|c| net.controller_load(ControllerId(c)))
            .collect();
        let residuals: Vec<u32> = net
            .controllers()
            .iter()
            .zip(&loads)
            .map(|(ctrl, &load)| ctrl.capacity.saturating_sub(load))
            .collect();
        NetCache {
            prog,
            loads,
            residuals,
        }
    }

    /// The programmability table, shared with
    /// [`Programmability::compute`] on the same network.
    pub fn programmability(&self) -> &Arc<Programmability> {
        &self.prog
    }

    /// Cached [`SdWan::controller_load`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn controller_load(&self, c: ControllerId) -> u32 {
        self.loads[c.0]
    }

    /// Cached [`SdWan::residual_capacity`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn residual_capacity(&self, c: ControllerId) -> u32 {
        self.residuals[c.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SdWanBuilder;

    #[test]
    fn cached_loads_and_residuals_match_network() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        for c in 0..net.controllers().len() {
            let c = ControllerId(c);
            assert_eq!(cache.controller_load(c), net.controller_load(c));
            assert_eq!(cache.residual_capacity(c), net.residual_capacity(c));
        }
    }
}
