//! Deterministic topology generators.
//!
//! These are used by tests, property tests, benches and examples to exercise
//! the recovery algorithms on shapes other than the embedded ATT backbone:
//! rings (sparse, long paths), grids (moderate path diversity), stars
//! (central hub, the pathological case for switch-level recovery) and Waxman
//! random geometric graphs (the standard synthetic WAN model).

use crate::geo::{GeoPoint, EARTH_RADIUS_KM, PROPAGATION_KM_PER_MS};
use crate::graph::{Edge, Graph, NodeId, NodeMeta};
use crate::rng::DetRng;
use crate::TopoError;

/// A ring of `n` nodes with unit edge weights.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Graph::with_capacity(n);
    for i in 0..n {
        g.add_node(format!("r{i}"), None);
    }
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0)
            .expect("ring edges are valid");
    }
    g
}

/// A `rows × cols` grid with unit edge weights.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut g = Graph::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            g.add_node(format!("g{r}_{c}"), None);
        }
    }
    let id = |r: usize, c: usize| NodeId(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1), 1.0)
                    .expect("grid edges are valid");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c), 1.0)
                    .expect("grid edges are valid");
            }
        }
    }
    g
}

/// A star: node 0 is the hub, nodes `1..n` are leaves, unit weights.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least 2 nodes");
    let mut g = Graph::with_capacity(n);
    for i in 0..n {
        g.add_node(format!("s{i}"), None);
    }
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i), 1.0)
            .expect("star edges are valid");
    }
    g
}

/// A complete graph on `n` nodes with unit weights.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "a complete graph needs at least 2 nodes");
    let mut g = Graph::with_capacity(n);
    for i in 0..n {
        g.add_node(format!("k{i}"), None);
    }
    for i in 0..n {
        for j in i + 1..n {
            g.add_edge(NodeId(i), NodeId(j), 1.0)
                .expect("complete edges are valid");
        }
    }
    g
}

/// Parameters for [`waxman`] random geometric graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaxmanParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Waxman α: overall edge density (0, 1].
    pub alpha: f64,
    /// Waxman β: how strongly distance suppresses edges (0, 1].
    pub beta: f64,
    /// Side of the square region (degrees of lat/lon) the nodes are placed in.
    pub region_degrees: f64,
    /// PRNG seed; the same seed always produces the same graph.
    pub seed: u64,
}

impl Default for WaxmanParams {
    fn default() -> Self {
        WaxmanParams {
            nodes: 30,
            alpha: 0.6,
            beta: 0.35,
            region_degrees: 20.0,
            seed: 42,
        }
    }
}

/// Generates a connected Waxman random geometric graph.
///
/// Nodes are placed uniformly in a square region around (38° N, 96° W) —
/// roughly the continental US — edges are sampled with probability
/// `α · exp(−d / (β · L))` where `L` is the maximum node distance, and edge
/// weights are geographic propagation delays. A spanning-tree pass guarantees
/// connectivity regardless of the sampling outcome.
///
/// Every node pair, in order, takes one uniform draw `r` and becomes an
/// edge iff `r < p`. Most draws are decided without the pair's haversine
/// distance: `r ≥ α ≥ p` rejects at once, and otherwise a lower bound on
/// the distance, from the chord through the Earth and per-node cosines,
/// bounds `p` from above; only draws below that bound compute `d` and `p`
/// exactly. The graph is the one the exact test on every pair gives.
///
/// # Errors
///
/// Returns an error if `params.nodes < 2` or a parameter is out of range.
pub fn waxman(params: &WaxmanParams) -> Result<Graph, TopoError> {
    if params.nodes < 2 {
        return Err(TopoError::Parse {
            line: 0,
            message: "waxman: need at least 2 nodes".into(),
        });
    }
    if !(0.0..=1.0).contains(&params.alpha)
        || !(0.0..=1.0).contains(&params.beta)
        || params.alpha == 0.0
        || params.beta == 0.0
        || params.region_degrees.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err(TopoError::Parse {
            line: 0,
            message: "waxman: parameters out of range".into(),
        });
    }
    let n = params.nodes;
    let mut rng = DetRng::seed_from_u64(params.seed);
    let half = params.region_degrees / 2.0;
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let lat = 38.0 + rng.gen_range(-half, half) * 0.5; // squash latitude a bit
        let lon = -96.0 + rng.gen_range(-half, half);
        positions.push(GeoPoint::new(lat, lon));
    }
    let bounds = ChordBounds::new(&positions);

    // Maximum pairwise distance for the Waxman probability scale. Only a
    // pair whose upper bound reaches some pair's lower bound can hold it;
    // the pairs with an extreme node (farthest in one of eight compass
    // directions) give a lower bound close to the maximum in O(n).
    let extremes = bounds.extreme_nodes();
    let mut max_lo: f64 = 0.0;
    for &e in &extremes {
        for v in 0..n {
            if v != e {
                max_lo = max_lo.max(bounds.a_range(e, v).0);
            }
        }
    }
    let floor = max_lo * (1.0 - BOUND_MARGIN);
    let mut max_d: f64 = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            if bounds.a_range(i, j).1 >= floor {
                max_d = max_d.max(positions[i].haversine_km(&positions[j]));
            }
        }
    }

    // p ≤ α·exp(−x) where x = d / (β·L) ≥ x_lo, the same with the chord
    // lower bound in place of d: `cap[k]` bounds p over x_lo ∈ [k/16,
    // (k+1)/16), and the last entry every x_lo beyond (where p is far
    // below the draws' 2⁻⁵³ resolution).
    let x_per_chord = 2.0 * EARTH_RADIUS_KM / (params.beta * max_d);
    let cap: Vec<f64> = (0..=CAP_BANDS)
        .map(|k| params.alpha * (-(k as f64) / CAP_BANDS_PER_UNIT).exp() * (1.0 + BOUND_MARGIN))
        .collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let r = rng.unit_f64();
            if r >= params.alpha {
                continue;
            }
            let x_lo = bounds.a_range(i, j).0.sqrt() * x_per_chord;
            // `as` saturates: NaN (L = 0) goes to band 0, +∞ to the last.
            let band = ((x_lo * CAP_BANDS_PER_UNIT) as usize).min(CAP_BANDS);
            if r >= cap[band] {
                continue;
            }
            let d = positions[i].haversine_km(&positions[j]);
            let p = params.alpha * (-d / (params.beta * max_d)).exp();
            if r < p.clamp(0.0, 1.0) {
                edges.push(geo_edge(&positions, i, j, d));
            }
        }
    }

    // Guarantee connectivity: link each component to the node before its
    // lowest-numbered node. Node `i` is the lowest of its component exactly
    // when nothing in `0..i` reaches it, so each link merges it into node
    // 0's component.
    let mut uf = UnionFind::new(n);
    for e in &edges {
        uf.union(e.a.0, e.b.0);
    }
    for i in 1..n {
        if uf.find(i) == i {
            let d = positions[i].haversine_km(&positions[i - 1]);
            edges.push(geo_edge(&positions, i, i - 1, d));
        }
    }
    let nodes = positions
        .into_iter()
        .enumerate()
        .map(|(i, p)| NodeMeta {
            name: format!("w{i}"),
            position: Some(p),
        })
        .collect();
    let g = Graph::from_valid_edges(nodes, edges);
    debug_assert!(g.is_connected());
    Ok(g)
}

/// Relative slack on every bound the Waxman draw decides by, far above the
/// rounding of the bound arithmetic and of the exact haversine path.
const BOUND_MARGIN: f64 = 1e-6;
/// Probability-cap bands per unit of `d / (β·L)`.
const CAP_BANDS_PER_UNIT: f64 = 16.0;
/// Last band: `x = 40`, where `exp(−x) < 5e-18`.
const CAP_BANDS: usize = 40 * 16;

/// The edge `a – b` of length `d` km, weighted as [`Graph::add_geo_edge`]
/// weighs it.
fn geo_edge(positions: &[GeoPoint], a: usize, b: usize, d: f64) -> Edge {
    debug_assert_eq!(
        d.to_bits(),
        positions[a].haversine_km(&positions[b]).to_bits()
    );
    Edge {
        a: NodeId(a),
        b: NodeId(b),
        weight: d / PROPAGATION_KM_PER_MS,
    }
}

/// Bounds on the haversine term `a = sin²(Δφ/2) + cos φᵢ cos φⱼ sin²(Δλ/2)`
/// of a node pair (the distance is `2R·asin(√a)`, and `2R·√a` is the
/// chord), from per-node cosines and the same coordinate differences the
/// exact formula takes, with no trigonometry per pair: `x − x³/6 ≤ sin x ≤
/// x` for `x ≥ 0`.
struct ChordBounds {
    lat: Vec<f64>,
    lon: Vec<f64>,
    cos_lat: Vec<f64>,
}

impl ChordBounds {
    fn new(positions: &[GeoPoint]) -> Self {
        ChordBounds {
            lat: positions.iter().map(|p| p.latitude).collect(),
            lon: positions.iter().map(|p| p.longitude).collect(),
            cos_lat: positions
                .iter()
                .map(|p| p.latitude.to_radians().cos())
                .collect(),
        }
    }

    /// The nodes that maximize `±lat`, `±lon` and `±lat ± lon`.
    fn extreme_nodes(&self) -> Vec<usize> {
        let mut nodes = Vec::with_capacity(8);
        for (a, b) in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)] {
            for sign in [1.0, -1.0] {
                let key = |v: usize| sign * (a * self.lat[v] + b * self.lon[v]);
                let best = (0..self.lat.len())
                    .max_by(|&u, &v| key(u).total_cmp(&key(v)))
                    .expect("at least two nodes");
                nodes.push(best);
            }
        }
        nodes
    }

    /// `(lower, upper)` bounds on the pair's `a` before the margin. A pair
    /// with a negative cosine product (a latitude beyond ±90°) gets the
    /// trivial `(0, 1)`.
    fn a_range(&self, i: usize, j: usize) -> (f64, f64) {
        let c = self.cos_lat[i] * self.cos_lat[j];
        if c < 0.0 {
            return (0.0, 1.0);
        }
        let (lat_lo, lat_hi) = sin2_range((self.lat[j] - self.lat[i]).to_radians() / 2.0);
        let (lon_lo, lon_hi) = sin2_range((self.lon[j] - self.lon[i]).to_radians() / 2.0);
        (
            (lat_lo + c * lon_lo) * (1.0 - BOUND_MARGIN),
            ((lat_hi + c * lon_hi) * (1.0 + BOUND_MARGIN)).min(1.0),
        )
    }
}

/// `(lower, upper)` bounds on `sin² x`.
fn sin2_range(x: f64) -> (f64, f64) {
    let x = x.abs();
    let lo = (x * (1.0 - x * x / 6.0)).max(0.0);
    (lo * lo, (x * x).min(1.0))
}

/// Disjoint sets over `0..n` with path halving, each rooted at its lowest
/// member.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra.max(rb)] = ra.min(rb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as it was before the draw was decided from bounds:
    /// two haversines and an `exp` per pair, one `insert_arc` per edge and
    /// a flood per component. [`waxman`] must return the identical graph.
    fn waxman_reference(params: &WaxmanParams) -> Result<Graph, TopoError> {
        if params.nodes < 2 {
            return Err(TopoError::Parse {
                line: 0,
                message: "waxman: need at least 2 nodes".into(),
            });
        }
        if !(0.0..=1.0).contains(&params.alpha)
            || !(0.0..=1.0).contains(&params.beta)
            || params.alpha == 0.0
            || params.beta == 0.0
            || params.region_degrees.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            return Err(TopoError::Parse {
                line: 0,
                message: "waxman: parameters out of range".into(),
            });
        }
        let mut rng = DetRng::seed_from_u64(params.seed);
        let mut g = Graph::with_capacity(params.nodes);
        let half = params.region_degrees / 2.0;
        let mut positions = Vec::with_capacity(params.nodes);
        for i in 0..params.nodes {
            let lat = 38.0 + rng.gen_range(-half, half) * 0.5; // squash latitude a bit
            let lon = -96.0 + rng.gen_range(-half, half);
            let p = GeoPoint::new(lat, lon);
            positions.push(p);
            g.add_node(format!("w{i}"), Some(p));
        }
        // Maximum pairwise distance for the Waxman probability scale.
        let mut max_d: f64 = 0.0;
        for i in 0..params.nodes {
            for j in i + 1..params.nodes {
                max_d = max_d.max(positions[i].haversine_km(&positions[j]));
            }
        }
        for i in 0..params.nodes {
            for j in i + 1..params.nodes {
                let d = positions[i].haversine_km(&positions[j]);
                let p = params.alpha * (-d / (params.beta * max_d)).exp();
                if rng.gen_bool(p) {
                    g.add_geo_edge(NodeId(i), NodeId(j))?;
                }
            }
        }
        // Guarantee connectivity: link each unreached component to the previous
        // node. Once node `i` has been processed it reaches node 0, so linking a
        // later component to `i` always merges it into node 0's component; the
        // incremental flood keeps the whole pass O(n + m).
        let mut reached = vec![false; params.nodes];
        flood_from(&g, NodeId(0), &mut reached);
        for i in 1..params.nodes {
            if !reached[i] {
                g.add_geo_edge(NodeId(i), NodeId(i - 1))?;
                flood_from(&g, NodeId(i), &mut reached);
            }
        }
        debug_assert!(g.is_connected());
        Ok(g)
    }

    fn flood_from(g: &Graph, from: NodeId, reached: &mut [bool]) {
        let mut stack = vec![from];
        reached[from.0] = true;
        while let Some(v) = stack.pop() {
            for u in g.neighbors(v) {
                if !reached[u.0] {
                    reached[u.0] = true;
                    stack.push(u);
                }
            }
        }
    }

    /// The β `pm_bench::wan::scale_beta` gives the generated WANs.
    fn scale_beta(nodes: usize) -> f64 {
        (0.2 * (29.0 / (nodes.max(2) as f64 - 1.0)).sqrt()).min(0.35)
    }

    /// Identical graphs: the same nodes, the same edge list with the same
    /// weight bits, and the same adjacency rows in the same order.
    fn assert_identical(got: &Graph, want: &Graph, what: &str) {
        assert_eq!(got.node_count(), want.node_count(), "{what}");
        assert_eq!(got.edge_count(), want.edge_count(), "{what}");
        for (a, b) in got.edges().zip(want.edges()) {
            assert_eq!((a.a, a.b), (b.a, b.b), "{what}");
            assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{what}");
        }
        for v in want.nodes() {
            assert_eq!(got.adjacency(v), want.adjacency(v), "{what} at {v}");
        }
        assert_eq!(got, want, "{what}");
    }

    #[test]
    fn waxman_matches_the_per_pair_reference() {
        let mut graphs = 0;
        for &nodes in &[2usize, 3, 5, 14, 30, 120, 400, 1000] {
            let mut variants = vec![
                (0.6, scale_beta(nodes), 20.0),
                (1.0, scale_beta(nodes), 20.0),
                (0.6, scale_beta(nodes), 1e-7),
                (0.6, scale_beta(nodes), 180.0),
                // Sparse enough to leave many components to link.
                (0.2, 0.05, 20.0),
            ];
            // β = 1 keeps about half of all pairs, and the reference pays
            // O(V + E) per edge, so the dense variant stops at 120 nodes.
            if nodes <= 120 {
                variants.push((1.0, 1.0, 20.0));
            }
            for (alpha, beta, region_degrees) in variants {
                for seed in 0..20u64 {
                    let p = WaxmanParams {
                        nodes,
                        alpha,
                        beta,
                        region_degrees,
                        seed,
                    };
                    let what = format!("{p:?}");
                    assert_identical(&waxman(&p).unwrap(), &waxman_reference(&p).unwrap(), &what);
                    graphs += 1;
                }
            }
        }
        assert_eq!(graphs, 920);
    }

    #[test]
    fn ring_shape() {
        let g = ring(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small() {
        let _ = ring(2);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
        assert_eq!(g.edge_count(), 17);
        assert!(g.is_connected());
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert!((1..5).all(|i| g.degree(NodeId(i)) == 1));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn waxman_deterministic_and_connected() {
        let p = WaxmanParams {
            nodes: 25,
            seed: 7,
            ..Default::default()
        };
        let g1 = waxman(&p).unwrap();
        let g2 = waxman(&p).unwrap();
        assert_eq!(g1, g2, "same seed must reproduce the same graph");
        assert!(g1.is_connected());
        assert_eq!(g1.node_count(), 25);
    }

    #[test]
    fn waxman_seed_changes_graph() {
        let a = waxman(&WaxmanParams {
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let b = waxman(&WaxmanParams {
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn waxman_rejects_bad_params() {
        assert!(waxman(&WaxmanParams {
            nodes: 1,
            ..Default::default()
        })
        .is_err());
        assert!(waxman(&WaxmanParams {
            alpha: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(waxman(&WaxmanParams {
            beta: 2.0,
            ..Default::default()
        })
        .is_err());
    }

    /// Seed determinism at the storage level: two builds must produce the
    /// same dense adjacency arcs node by node, not merely compare equal as
    /// graphs.
    #[test]
    fn generators_reproduce_identical_adjacency_arcs() {
        let same_arcs = |a: &Graph, b: &Graph| {
            assert_eq!(a.node_count(), b.node_count());
            for v in a.nodes() {
                assert_eq!(a.adjacency(v), b.adjacency(v), "arcs differ at {v:?}");
            }
        };
        for &(nodes, seed) in &[(10usize, 0u64), (10, 3), (40, 9), (64, 1234)] {
            let p = WaxmanParams {
                nodes,
                seed,
                ..Default::default()
            };
            same_arcs(&waxman(&p).unwrap(), &waxman(&p).unwrap());
        }
        same_arcs(&ring(12), &ring(12));
        same_arcs(&grid(4, 5), &grid(4, 5));
    }

    /// Connectivity post-condition: the spanning pass must repair even
    /// regimes where sampling alone leaves many components (tiny β) and
    /// degenerate sizes.
    #[test]
    fn waxman_stays_connected_across_sparse_regimes() {
        for &nodes in &[2usize, 5, 30, 120] {
            for seed in 0..8u64 {
                let g = waxman(&WaxmanParams {
                    nodes,
                    alpha: 0.2,
                    beta: 0.05,
                    seed,
                    ..Default::default()
                })
                .unwrap();
                assert_eq!(g.node_count(), nodes);
                assert!(g.is_connected(), "nodes={nodes} seed={seed}");
            }
        }
    }

    #[test]
    fn waxman_rejects_each_bad_parameter() {
        let bad = [
            WaxmanParams {
                nodes: 0,
                ..Default::default()
            },
            WaxmanParams {
                alpha: 1.5,
                ..Default::default()
            },
            WaxmanParams {
                beta: 0.0,
                ..Default::default()
            },
            WaxmanParams {
                region_degrees: 0.0,
                ..Default::default()
            },
            WaxmanParams {
                region_degrees: f64::NAN,
                ..Default::default()
            },
        ];
        for p in &bad {
            assert!(waxman(p).is_err(), "accepted {p:?}");
        }
        // The inclusive upper bounds are legal.
        assert!(waxman(&WaxmanParams {
            alpha: 1.0,
            beta: 1.0,
            nodes: 6,
            ..Default::default()
        })
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn grid_rejects_zero_dimension() {
        let _ = grid(0, 3);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn star_rejects_single_node() {
        let _ = star(1);
    }

    #[test]
    fn degenerate_grid_is_a_path() {
        let g = grid(1, 5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn waxman_edges_have_geo_weights() {
        let g = waxman(&WaxmanParams::default()).unwrap();
        for e in g.edges() {
            let pa = g.node(e.a).position.unwrap();
            let pb = g.node(e.b).position.unwrap();
            assert!((e.weight - pa.propagation_delay_ms(&pb)).abs() < 1e-9);
        }
    }
}
