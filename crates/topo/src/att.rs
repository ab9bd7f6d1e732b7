//! The embedded 25-node ATT-like United States backbone.
//!
//! The paper evaluates on the ATT topology from the Internet Topology Zoo
//! (25 nodes, 112 directed links), with six controllers at nodes
//! {2, 5, 6, 13, 20, 22}. The original GraphML file is not redistributable
//! here, so this module embeds an ATT-*like* backbone with the same node and
//! directed-link counts, real US city coordinates, and a hub structure that
//! concentrates shortest paths on the central node 13 (St. Louis) — matching
//! the paper's Table III, where switch 13 carries by far the most flows and
//! its control cost exceeds any single controller's spare capacity under the
//! failure cases that produce the headline results. Users who have the real
//! `AttMpls.graphml` can load it through [`crate::zoo`] instead.
//!
//! Edge weights are one-way propagation delays in milliseconds (Haversine
//! distance at 2×10⁸ m/s), exactly as the paper computes them.

use crate::geo::GeoPoint;
use crate::graph::{Graph, NodeId};

/// City name, latitude, longitude for each of the 25 nodes, indexed by node
/// id.
pub const CITIES: [(&str, f64, f64); 25] = [
    ("Seattle", 47.6062, -122.3321),
    ("Portland", 45.5152, -122.6784),
    ("Chicago", 41.8781, -87.6298),
    ("Minneapolis", 44.9778, -93.2650),
    ("Salt Lake City", 40.7608, -111.8910),
    ("Denver", 39.7392, -104.9903),
    ("San Francisco", 37.7749, -122.4194),
    ("Los Angeles", 34.0522, -118.2437),
    ("Phoenix", 33.4484, -112.0740),
    ("Detroit", 42.3314, -83.0458),
    ("Kansas City", 39.0997, -94.5786),
    ("Oklahoma City", 35.4676, -97.5164),
    ("Houston", 29.7604, -95.3698),
    ("St. Louis", 38.6270, -90.1994),
    ("Albuquerque", 35.0844, -106.6504),
    ("Memphis", 35.1495, -90.0490),
    ("Indianapolis", 39.7684, -86.1581),
    ("New York", 40.7128, -74.0060),
    ("Pittsburgh", 40.4406, -79.9959),
    ("Orlando", 28.5384, -81.3789),
    ("Atlanta", 33.7490, -84.3880),
    ("Philadelphia", 39.9526, -75.1652),
    ("Washington DC", 38.9072, -77.0369),
    ("Charlotte", 35.2271, -80.8431),
    ("Nashville", 36.1627, -86.7816),
];

/// The 56 undirected links (112 directed) of the embedded backbone.
///
/// The link set is tuned so that, with one flow per ordered node pair on
/// shortest paths and the Table III domains, every controller's normal load
/// fits within the paper's capacity of 500 *and* hub switch 13's control
/// cost exceeds every other controller's spare capacity — the condition
/// behind the paper's (13, 20) and three-failure headline cases.
pub const LINKS: [(usize, usize); 56] = [
    // West coast and mountain region.
    (0, 1),
    (0, 3),
    (0, 6),
    (1, 6),
    (6, 7),
    (6, 4),
    (6, 8),
    (7, 8),
    (7, 14),
    (8, 14),
    (4, 5),
    (4, 14),
    (3, 4),
    // Mountain to central.
    (5, 14),
    (5, 10),
    (5, 13),
    (8, 12),
    (5, 3),
    // Central core (St. Louis carries the inter-region transit).
    (10, 11),
    (10, 13),
    (11, 13),
    (11, 12),
    (12, 13),
    (13, 15),
    (13, 2),
    (13, 16),
    // St. Louis long-haul spokes (node 13 is the hub).
    (13, 24),
    (13, 20),
    (13, 22),
    // Midwest.
    (2, 3),
    (2, 9),
    (2, 16),
    (2, 18),
    (3, 16),
    (9, 16),
    (9, 18),
    (9, 17),
    // South.
    (15, 20),
    (15, 24),
    (12, 19),
    (20, 19),
    (20, 23),
    (20, 24),
    // East.
    (16, 24),
    (16, 18),
    (17, 2),
    (17, 18),
    (17, 21),
    (18, 21),
    (18, 22),
    (21, 22),
    (22, 20),
    (22, 23),
    (23, 19),
    (23, 21),
    (23, 24),
];

/// Default controller placement of the paper's evaluation: controllers sit
/// at nodes 2, 5, 6, 13, 20 and 22.
pub const DEFAULT_CONTROLLER_NODES: [usize; 6] = [2, 5, 6, 13, 20, 22];

/// Default switch domains, straight from the paper's Table III:
/// `(controller node, switches in its domain)`.
pub const DEFAULT_DOMAINS: [(usize, &[usize]); 6] = [
    (2, &[2, 3, 9, 16]),
    (5, &[4, 5, 8, 14]),
    (6, &[0, 1, 6, 7]),
    (13, &[10, 11, 12, 13, 15]),
    (20, &[19, 20]),
    (22, &[17, 18, 21, 22, 23, 24]),
];

/// Per-switch flow counts the paper reports in Table III (for comparison
/// against the counts this reproduction derives; see EXPERIMENTS.md).
pub const PAPER_FLOW_COUNTS: [u32; 25] = [
    81, 49, 143, 71, 49, 143, 89, 97, 53, 107, 63, 59, 71, 213, 61, 67, 55, 125, 49, 49, 63, 81,
    111, 49, 57,
];

/// Default per-controller processing capacity used throughout the paper's
/// evaluation ("the processing ability of each controller is 500").
pub const DEFAULT_CONTROLLER_CAPACITY: u32 = 500;

/// Builds the embedded backbone with propagation-delay edge weights.
///
/// # Example
///
/// ```
/// let g = pm_topo::att::att_backbone();
/// assert_eq!(g.node_count(), 25);
/// assert_eq!(g.directed_edge_count(), 112);
/// assert!(g.is_connected());
/// ```
pub fn att_backbone() -> Graph {
    let mut g = Graph::with_capacity(CITIES.len());
    for (name, lat, lon) in CITIES {
        g.add_node(name, Some(GeoPoint::new(lat, lon)));
    }
    for (a, b) in LINKS {
        g.add_geo_edge(NodeId(a), NodeId(b))
            .expect("embedded links are valid");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{dijkstra, PathCounts};

    #[test]
    fn sizes_match_paper() {
        let g = att_backbone();
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 56);
        assert_eq!(g.directed_edge_count(), 112);
    }

    #[test]
    fn connected() {
        assert!(att_backbone().is_connected());
    }

    #[test]
    fn node_13_is_the_hub() {
        let g = att_backbone();
        let deg13 = g.degree(NodeId(13));
        assert!(g.nodes().all(|v| v == NodeId(13) || g.degree(v) < deg13));
    }

    #[test]
    fn domains_partition_all_switches() {
        let mut seen = [false; 25];
        for (ctrl, switches) in DEFAULT_DOMAINS {
            assert!(
                switches.contains(&ctrl),
                "controller node {ctrl} must be in its own domain"
            );
            for &s in switches {
                assert!(!seen[s], "switch {s} in two domains");
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every switch must be in a domain");
    }

    #[test]
    fn controller_nodes_match_domains() {
        let from_domains: Vec<usize> = DEFAULT_DOMAINS.iter().map(|&(c, _)| c).collect();
        assert_eq!(from_domains, DEFAULT_CONTROLLER_NODES.to_vec());
    }

    #[test]
    fn weights_are_geo_delays() {
        let g = att_backbone();
        for e in g.edges() {
            let pa = g.node(e.a).position.unwrap();
            let pb = g.node(e.b).position.unwrap();
            assert!((e.weight - pa.propagation_delay_ms(&pb)).abs() < 1e-12);
            // Continental-US delays: between ~0.5 ms and ~15 ms one-way.
            assert!(
                e.weight > 0.3 && e.weight < 16.0,
                "implausible delay {}",
                e.weight
            );
        }
    }

    #[test]
    fn hub_attracts_many_shortest_paths() {
        // Count how many of the 600 ordered-pair shortest paths traverse
        // each node (this is what Table III tabulates); node 13 must lead.
        let g = att_backbone();
        let mut through = [0u32; 25];
        for s in g.nodes() {
            let spt = dijkstra(&g, s);
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                for v in spt.path_to(t).expect("connected") {
                    through[v.0] += 1;
                }
            }
        }
        let max = *through.iter().max().unwrap();
        assert_eq!(
            through[13], max,
            "node 13 must carry the most flows: {through:?}"
        );
        // Every node carries at least its own 48 endpoint flows.
        assert!(through.iter().all(|&c| c >= 48));
    }

    #[test]
    fn paper_flow_counts_has_expected_total() {
        // The paper's Table III flow counts sum to 2055 — i.e. the average
        // all-pairs shortest path visits ~3.4 nodes. Keep the constant
        // honest.
        let total: u32 = PAPER_FLOW_COUNTS.iter().sum();
        assert_eq!(total, 2055);
    }

    #[test]
    fn rerouting_diversity_exists() {
        // Most nodes should have at least one destination they can reroute
        // toward (β = 1 somewhere), otherwise the FMSSM problem degenerates.
        let g = att_backbone();
        let mut reroutable = 0;
        for dest in g.nodes() {
            let pc = PathCounts::toward(&g, dest);
            if g.nodes().any(|v| v != dest && pc.count_from(v) >= 2) {
                reroutable += 1;
            }
        }
        assert!(
            reroutable >= 20,
            "only {reroutable} destinations admit rerouting"
        );
    }
}
