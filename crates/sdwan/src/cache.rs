//! Per-network derived state, computed once and shared across scenarios.
//!
//! A failure sweep evaluates every k-subset of controllers against the same
//! [`SdWan`]. Most of the per-scenario setup cost is state that does not
//! depend on *which* controllers failed: the programmability table, each
//! controller's normal load, and each switch's controllers-sorted-by-delay
//! order. [`NetCache`] computes all of it once (the path counts behind the
//! table are dropped as soon as it is built); [`SdWan::fail_cached`] and
//! `FmssmInstance::with_cache` (in `pm-core`) then build per-scenario views
//! from cached parts without repeating the work — with results identical to
//! the uncached paths.

use crate::network::{ControllerId, SdWan, SwitchId};
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
    /// Per switch: *all* controllers sorted by ascending delay, ties broken
    /// toward the lower id. Filtering this to the active set of a scenario
    /// reproduces the per-scenario sort exactly (stable sort + id-ordered
    /// dense positions).
    ctrl_order: Vec<Vec<ControllerId>>,
}

impl NetCache {
    /// Computes every cacheable quantity of `net`.
    pub fn build(net: &SdWan) -> Self {
        let _span = pm_obs::span("sdwan.netcache.build");
        let prog = Arc::new(Programmability::compute(net));
        let loads: Vec<u32> = (0..net.controllers().len())
            .map(|c| net.controller_load(ControllerId(c)))
            .collect();
        let residuals: Vec<u32> = net
            .controllers()
            .iter()
            .zip(&loads)
            .map(|(ctrl, &load)| ctrl.capacity.saturating_sub(load))
            .collect();
        let ctrl_order: Vec<Vec<ControllerId>> = net
            .switches()
            .map(|s| {
                let mut order: Vec<ControllerId> =
                    (0..net.controllers().len()).map(ControllerId).collect();
                order.sort_by(|&a, &b| {
                    net.ctrl_delay(s, a)
                        .partial_cmp(&net.ctrl_delay(s, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                order
            })
            .collect();
        NetCache {
            prog,
            loads,
            residuals,
            ctrl_order,
        }
    }

    /// The programmability table, identical to
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

    /// All controllers sorted by ascending delay from switch `s` (ties to
    /// the lower id).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn controllers_by_delay(&self, s: SwitchId) -> &[ControllerId] {
        &self.ctrl_order[s.0]
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

    #[test]
    fn cached_programmability_matches_fresh() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        let fresh = Programmability::compute(&net);
        for l in 0..net.flows().len() {
            let l = crate::network::FlowId(l);
            assert_eq!(
                cache.programmability().flow_entries(l),
                fresh.flow_entries(l)
            );
        }
    }

    #[test]
    fn controller_order_sorted_with_id_tiebreak() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        for s in net.switches() {
            let order = cache.controllers_by_delay(s);
            assert_eq!(order.len(), net.controllers().len());
            for w in order.windows(2) {
                let (da, db) = (net.ctrl_delay(s, w[0]), net.ctrl_delay(s, w[1]));
                assert!(da < db || (da == db && w[0] < w[1]));
            }
        }
    }
}
