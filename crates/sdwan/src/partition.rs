//! Scalable controller placement and domain partitioning.
//!
//! [`place_controllers`](crate::place_controllers) computes all-pairs
//! shortest paths, which is fine on paper-scale graphs (tens of nodes) but
//! prohibitive on the 1k–10k switch Waxman networks `pmctl sweep --nodes`
//! generates. This module provides large-topology counterparts
//! that run exactly one Dijkstra per controller:
//!
//! * [`spread_controllers`] — farthest-point traversal (the classic greedy
//!   k-center heuristic, seeded at the highest-degree node instead of the
//!   minimum-eccentricity node), `k` Dijkstras total.
//! * [`nearest_controller_partition`] — the nearest-controller domain rule
//!   [`SdWanBuilder::build`](crate::SdWanBuilder::build) applies (ties to
//!   the lower controller index), materialized as an explicit partition,
//!   one Dijkstra per controller. A network built without explicit domains
//!   already has this partition, so it is for code that needs the domains
//!   apart from a build: the benchmark's placement layer times it on its
//!   own, and the tests below check it against the builder's default.

use crate::SdwanError;
use pm_topo::{paths, Graph, NodeId};

/// Picks `k` controller sites by farthest-point traversal.
///
/// The first site is the highest-degree node (ties to the lower node id);
/// each following site is the node farthest from the chosen set (ties to
/// the lower node id). Runs `k` Dijkstras, so it scales to graphs where
/// [`place_controllers`](crate::place_controllers) — which needs all-pairs
/// distances — does not. The result is sorted by node id.
///
/// # Errors
///
/// Returns [`SdwanError::InvalidNetwork`] if `k` is zero, exceeds the node
/// count, or the graph is disconnected.
pub fn spread_controllers(g: &Graph, k: usize) -> Result<Vec<NodeId>, SdwanError> {
    let n = g.node_count();
    if k == 0 || k > n {
        return Err(SdwanError::InvalidNetwork(format!(
            "cannot place {k} controllers on {n} nodes"
        )));
    }
    let seed = g
        .nodes()
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .expect("k >= 1 implies a non-empty graph");
    let mut best_dist = paths::dijkstra(g, seed).distances().to_vec();
    if best_dist.iter().any(|d| !d.is_finite()) {
        return Err(SdwanError::InvalidNetwork(
            "placement needs a connected graph".into(),
        ));
    }
    let mut sites = vec![seed];
    while sites.len() < k {
        let far = (0..n)
            .max_by(|&a, &b| {
                best_dist[a]
                    .partial_cmp(&best_dist[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Ties to the lower node id (max_by keeps the later
                    // maximum, so invert the id ordering).
                    .then_with(|| b.cmp(&a))
            })
            .expect("non-empty graph");
        let far = NodeId(far);
        sites.push(far);
        for (v, d) in paths::dijkstra(g, far).distances().iter().enumerate() {
            if *d < best_dist[v] {
                best_dist[v] = *d;
            }
        }
    }
    sites.sort();
    Ok(sites)
}

/// Assigns every node to its nearest controller, ties to the lower
/// controller index — the same rule [`SdWanBuilder::build`] uses when no
/// explicit domains are given, so feeding the result to
/// [`SdWanBuilder::domains`] reproduces the default partition (and
/// building without domains gives it for free).
///
/// Returns `domains[c]` = the ascending switch indices owned by controller
/// `c` (the `controllers[c]` site). Runs one Dijkstra per controller.
///
/// # Errors
///
/// Returns [`SdwanError::InvalidNetwork`] if `controllers` is empty or some
/// node cannot reach any controller (disconnected topology), and a node
/// range error if a controller site is out of range.
///
/// [`SdWanBuilder::build`]: crate::SdWanBuilder::build
/// [`SdWanBuilder::domains`]: crate::SdWanBuilder::domains
pub fn nearest_controller_partition(
    g: &Graph,
    controllers: &[NodeId],
) -> Result<Vec<Vec<usize>>, SdwanError> {
    if controllers.is_empty() {
        return Err(SdwanError::InvalidNetwork("no controllers".into()));
    }
    for &c in controllers {
        g.check_node(c)?;
    }
    let n = g.node_count();
    let mut best: Vec<(f64, usize)> = vec![(f64::INFINITY, 0); n];
    for (c, &site) in controllers.iter().enumerate() {
        let spt = paths::dijkstra(g, site);
        for (v, &d) in spt.distances().iter().enumerate() {
            if d < best[v].0 {
                best[v] = (d, c);
            }
        }
    }
    let mut domains: Vec<Vec<usize>> = vec![Vec::new(); controllers.len()];
    for (v, &(d, c)) in best.iter().enumerate() {
        if !d.is_finite() {
            return Err(SdwanError::InvalidNetwork(format!(
                "switch s{v} cannot reach any controller"
            )));
        }
        domains[c].push(v);
    }
    Ok(domains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SdWan, SdWanBuilder};
    use pm_topo::builders::{self, WaxmanParams};

    fn build_default(g: Graph, sites: &[NodeId]) -> SdWan {
        let mut b = SdWanBuilder::new(g);
        for &s in sites {
            b = b.controller(s, u32::MAX / 4);
        }
        b.build().unwrap()
    }

    #[test]
    fn spread_rejects_bad_k_and_disconnected() {
        let g = builders::ring(5);
        assert!(spread_controllers(&g, 0).is_err());
        assert!(spread_controllers(&g, 6).is_err());
        let mut island = builders::ring(4);
        island.add_node("island", None);
        assert!(spread_controllers(&island, 2).is_err());
    }

    #[test]
    fn spread_sites_are_distinct_sorted_and_deterministic() {
        let g = builders::waxman(&WaxmanParams::default()).unwrap();
        let sites = spread_controllers(&g, 5).unwrap();
        assert_eq!(sites.len(), 5);
        assert!(sites.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sites, spread_controllers(&g, 5).unwrap());
    }

    #[test]
    fn spread_seeds_at_the_hub_of_a_star() {
        let g = builders::star(7);
        let sites = spread_controllers(&g, 1).unwrap();
        assert_eq!(sites, vec![NodeId(0)]);
    }

    #[test]
    fn spread_on_a_ring_picks_far_apart_sites() {
        // On an 8-ring all degrees tie, so the seed is node 0; the farthest
        // node is the antipode 4.
        let g = builders::ring(8);
        let sites = spread_controllers(&g, 2).unwrap();
        assert_eq!(sites, vec![NodeId(0), NodeId(4)]);
    }

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let g = builders::waxman(&WaxmanParams {
            nodes: 40,
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        let sites = spread_controllers(&g, 4).unwrap();
        let domains = nearest_controller_partition(&g, &sites).unwrap();
        let mut all: Vec<usize> = domains.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..g.node_count()).collect::<Vec<_>>());
        for d in &domains {
            assert!(d.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn partition_matches_builder_default_domains() {
        // The explicit partition must reproduce the nearest-controller rule
        // the builder applies on its own, ties included.
        for seed in [3u64, 11, 42] {
            let g = builders::waxman(&WaxmanParams {
                nodes: 30,
                seed,
                ..Default::default()
            })
            .unwrap();
            let sites = spread_controllers(&g, 3).unwrap();
            let domains = nearest_controller_partition(&g, &sites).unwrap();
            let implicit = build_default(g.clone(), &sites);
            let mut b = SdWanBuilder::new(g);
            for &s in &sites {
                b = b.controller(s, u32::MAX / 4);
            }
            let explicit = b.domains(domains).build().unwrap();
            for s in 0..implicit.switch_count() {
                assert_eq!(
                    implicit.domain_of(crate::SwitchId(s)),
                    explicit.domain_of(crate::SwitchId(s)),
                    "seed {seed} switch s{s}"
                );
            }
        }
    }

    #[test]
    fn partition_rejects_bad_inputs() {
        let g = builders::ring(5);
        assert!(nearest_controller_partition(&g, &[]).is_err());
        assert!(nearest_controller_partition(&g, &[NodeId(9)]).is_err());
        let mut island = builders::ring(4);
        island.add_node("island", None);
        assert!(nearest_controller_partition(&island, &[NodeId(0)]).is_err());
    }
}
