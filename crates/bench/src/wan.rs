//! Shared construction of the large Waxman WAN the scale drills sweep.
//!
//! `pmctl sweep --nodes N` and `pmctl simulate --timelines T --nodes N`
//! (and the benchmark) exercise the engine on the same topology family:
//! a connected Waxman graph whose β shrinks with the node count so the
//! average degree stays in the high single digits, farthest-point
//! controller placement, the builder's nearest-controller domains, and a
//! bounded random flow population over a small endpoint pool. Only the
//! Waxman draw visits every node pair; the builder settles one
//! shortest-path tree per controller and per flow endpoint, so routing and
//! the programmability table scale with the controller count and the
//! pool, not the switch count squared.

use pm_sdwan::{spread_controllers, SdWan, SdWanBuilder, SwitchId};
use pm_topo::builders::{waxman, WaxmanParams};
use pm_topo::rng::DetRng;
use std::collections::HashSet;

/// What to generate: switch count, controllers, flow budget, capacity
/// headroom and the seed everything derives from.
#[derive(Debug, Clone)]
pub struct WanSpec {
    /// Waxman switch count.
    pub nodes: usize,
    /// Controllers to place by farthest-point traversal.
    pub controllers: usize,
    /// Flows to route over bounded endpoint pools.
    pub flows: usize,
    /// Uniform auto-capacity factor over the realized peak load.
    pub headroom: f64,
    /// Seed for the topology and the flow sample.
    pub seed: u64,
}

/// A generated WAN. Its shape facts (edges, routed flows, which can fall
/// short of the budget on tiny pools) are read off the network itself.
#[derive(Debug)]
pub struct BuiltWan {
    /// The assembled network.
    pub net: SdWan,
}

/// The β that keeps the expected Waxman degree in the high single digits
/// as the node count grows.
pub fn scale_beta(nodes: usize) -> f64 {
    (0.2 * (29.0 / (nodes.max(2) as f64 - 1.0)).sqrt()).min(0.35)
}

/// `size` distinct node indices, chosen by a partial Fisher–Yates shuffle.
fn sample_pool(rng: &mut DetRng, n: usize, size: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    let size = size.min(n);
    for i in 0..size {
        let j = i + (rng.next_u64() as usize) % (n - i);
        all.swap(i, j);
    }
    all.truncate(size);
    all
}

/// Up to `want` distinct `(src, dst)` pairs over one bounded endpoint
/// pool, so the builder settles at most one shortest-path tree per pool
/// node no matter how large the topology is. The pool of `p = min(n, 192)`
/// endpoints holds `p·(p−1)` distinct pairs, so sampling stops there
/// however large `want` is.
pub fn sample_flows(rng: &mut DetRng, n: usize, want: usize) -> Vec<(SwitchId, SwitchId)> {
    let pool = sample_pool(rng, n, 192.min(n));
    let want_pairs = want.min(pool.len() * pool.len().saturating_sub(1));
    let max_misses = want.saturating_mul(20).saturating_add(100);
    let mut pairs = Vec::with_capacity(want_pairs);
    let mut seen = HashSet::new();
    let mut misses = 0usize;
    while pairs.len() < want_pairs && misses < max_misses {
        let src = pool[(rng.next_u64() as usize) % pool.len()];
        let dst = pool[(rng.next_u64() as usize) % pool.len()];
        if src == dst || !seen.insert((src, dst)) {
            misses += 1;
            continue;
        }
        pairs.push((SwitchId(src), SwitchId(dst)));
    }
    pairs
}

/// Generates the WAN of `spec`: topology, placement, domains, flows,
/// capacities. Deterministic in `spec.seed`; the phases record under the
/// `scale.topology` / `scale.placement` / `scale.build` spans when the
/// [`pm_obs`] recorder is on.
///
/// # Panics
///
/// Panics if the spec is out of range (`controllers` must be in
/// `2..=nodes`, `headroom` finite and at least 1); [`WanSpec::take`]
/// validates the flags before pmctl calls this.
pub fn build_wan(spec: &WanSpec) -> BuiltWan {
    let params = WaxmanParams {
        nodes: spec.nodes,
        beta: scale_beta(spec.nodes),
        seed: spec.seed,
        ..Default::default()
    };
    let g = {
        let _span = pm_obs::span("scale.topology");
        waxman(&params).expect("waxman parameters are valid")
    };
    let (sites, flows) = {
        let _span = pm_obs::span("scale.placement");
        let sites = spread_controllers(&g, spec.controllers).expect("connected by construction");
        let mut rng = DetRng::seed_from_u64(spec.seed ^ 0x5ca1e5eed);
        let flows = sample_flows(&mut rng, spec.nodes, spec.flows);
        (sites, flows)
    };
    let net = {
        let _span = pm_obs::span("scale.build");
        let mut b = SdWanBuilder::new(g);
        for &s in &sites {
            b = b.controller(s, 0);
        }
        b.explicit_flows(flows)
            .auto_capacity(spec.headroom)
            .build()
            .expect("generated network is valid")
    };
    BuiltWan { net }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_in_the_seed() {
        let spec = WanSpec {
            nodes: 60,
            controllers: 5,
            flows: 40,
            headroom: 1.5,
            seed: 11,
        };
        let (a, b) = (build_wan(&spec).net, build_wan(&spec).net);
        let edges = |net: &SdWan| net.topology().edge_count();
        assert_eq!(edges(&a), edges(&b));
        assert_eq!(a.switch_count(), 60);
        assert_eq!(a.controllers().len(), 5);
        assert_eq!(a.flows(), b.flows(), "same seed, same flows");
        let c = build_wan(&WanSpec { seed: 12, ..spec }).net;
        assert_ne!(edges(&a), 0);
        assert!(
            edges(&a) != edges(&c) || a.flows() != c.flows(),
            "different seed must change the WAN"
        );
    }

    #[test]
    fn a_flow_budget_beyond_the_pool_stops_at_every_distinct_pair() {
        let start = std::time::Instant::now();
        let pairs = sample_flows(&mut DetRng::seed_from_u64(3), 40, usize::MAX);
        assert_eq!(pairs.len(), 40 * 39, "every distinct pair of the pool");
        assert!(start.elapsed().as_secs() < 5, "{:?}", start.elapsed());
        // A budget the pool covers draws the same pairs as before the cap.
        let capped = sample_flows(&mut DetRng::seed_from_u64(3), 400, 1000);
        let mut rng = DetRng::seed_from_u64(3);
        let pool = sample_pool(&mut rng, 400, 192);
        let mut expected = Vec::new();
        let mut seen = HashSet::new();
        while expected.len() < 1000 {
            let src = pool[(rng.next_u64() as usize) % pool.len()];
            let dst = pool[(rng.next_u64() as usize) % pool.len()];
            if src != dst && seen.insert((src, dst)) {
                expected.push((SwitchId(src), SwitchId(dst)));
            }
        }
        assert_eq!(capped, expected);
    }

    #[test]
    fn beta_shrinks_with_scale() {
        assert!(scale_beta(30) >= scale_beta(1000));
        assert!(scale_beta(1000) >= scale_beta(10_000));
        assert!(scale_beta(2) <= 0.35);
    }
}
