//! Shortest paths, shortest-path trees and loop-free path counting.
//!
//! The quantity the paper calls `p_i^l` — "the number of paths from switch
//! `s_i`'s next hops to flow `f^l`'s destination" — is computed here by
//! [`PathCounts`]: we build the destination-rooted *loop-free alternate DAG*
//! (an edge `u → v` exists iff `dist(v, dest) < dist(u, dest)`) and count the
//! DAG paths from each node to the destination by dynamic programming. Every
//! such path is loop-free by construction, every node's count equals the sum
//! of its next hops' counts, and hub nodes naturally obtain larger counts —
//! matching the paper's examples where switches have 2 or 3 usable paths.
//!
//! For small graphs (and for testing the DAG counting against ground truth)
//! [`count_simple_paths`] enumerates *all* simple paths exhaustively.

use crate::graph::{Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tolerance used when comparing path lengths for equality.
pub const EPS: f64 = 1e-9;

/// Distances from one source and the order Dijkstra settled the reachable
/// nodes in (nondecreasing in distance): a [`ShortestPathTree`] without its
/// predecessor links, which is all [`PathCounts::from_settled`] needs.
#[derive(Debug, Clone, PartialEq)]
pub struct SettledDistances {
    source: NodeId,
    dist: Vec<f64>,
    order: Vec<u32>,
}

/// Result of a single-source Dijkstra run: distances, settle order and
/// predecessor links.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPathTree {
    settled: SettledDistances,
    parent: Vec<Option<NodeId>>,
}

impl ShortestPathTree {
    /// The source node of this tree.
    pub fn source(&self) -> NodeId {
        self.settled.source
    }

    /// Shortest distance from the source to `n`, or `None` if unreachable.
    pub fn dist_to(&self, n: NodeId) -> Option<f64> {
        let d = self.settled.dist[n.0];
        d.is_finite().then_some(d)
    }

    /// All distances, `f64::INFINITY` for unreachable nodes.
    pub fn distances(&self) -> &[f64] {
        &self.settled.dist
    }

    /// Drops the predecessor links, keeping distances and settle order.
    pub fn into_settled(self) -> SettledDistances {
        self.settled
    }

    /// Shortest path from the source to `t` (inclusive of both endpoints),
    /// or `None` if `t` is unreachable.
    pub fn path_to(&self, t: NodeId) -> Option<Vec<NodeId>> {
        if !self.settled.dist[t.0].is_finite() {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t;
        while let Some(p) = self.parent[cur.0] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.settled.source);
        path.reverse();
        Some(path)
    }
}

/// Max-heap entry ordered so the smallest (distance, node) pops first.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) yields the minimum first; ties
        // broken by the lower node index for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths by Dijkstra's algorithm over edge weights.
///
/// Ties are broken deterministically: among equal-length paths, the one
/// discovered through the earliest-relaxed edge wins, and the heap prefers
/// lower node indices.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use pm_topo::{Graph, NodeId, paths};
/// # fn main() -> Result<(), pm_topo::TopoError> {
/// let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])?;
/// let spt = paths::dijkstra(&g, NodeId(0));
/// assert_eq!(spt.path_to(NodeId(2)), Some(vec![NodeId(0), NodeId(1), NodeId(2)]));
/// # Ok(())
/// # }
/// ```
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPathTree {
    g.check_node(source).expect("source node out of range");
    let n = g.node_count();
    assert!(u32::try_from(n).is_ok(), "settle order holds u32 node ids");
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![None; n];
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut heap = BinaryHeap::new();
    dist[source.0] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if done[v.0] {
            continue;
        }
        done[v.0] = true;
        order.push(v.0 as u32);
        for (&(u, _), &w) in g.adjacency(v).iter().zip(g.arc_weights(v)) {
            let nd = d + w;
            if nd + EPS < dist[u.0] {
                dist[u.0] = nd;
                parent[u.0] = Some(v);
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    ShortestPathTree {
        settled: SettledDistances {
            source,
            dist,
            order,
        },
        parent,
    }
}

/// All-pairs shortest path trees, one Dijkstra per node.
pub fn all_pairs(g: &Graph) -> Vec<ShortestPathTree> {
    g.nodes().map(|v| dijkstra(g, v)).collect()
}

/// Hop-count distances from `source` (breadth-first search).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_hops(g: &Graph, source: NodeId) -> Vec<usize> {
    g.check_node(source).expect("source node out of range");
    let mut hops = vec![usize::MAX; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    hops[source.0] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &(u, _) in g.adjacency(v) {
            if hops[u.0] == usize::MAX {
                hops[u.0] = hops[v.0] + 1;
                queue.push_back(u);
            }
        }
    }
    hops
}

/// Destination-rooted loop-free path counts (the paper's `p_i^l`).
///
/// For a destination `d`, the loop-free alternate DAG contains the directed
/// edge `u → v` iff `dist(v, d) < dist(u, d)` (strictly closer by shortest
/// path distance). [`PathCounts::count_from`] returns the number of DAG paths
/// from a node to the destination; [`PathCounts::next_hops`] lists the
/// neighbors a node may forward to without ever looping.
#[derive(Debug, Clone)]
pub struct PathCounts {
    dest: NodeId,
    dist: Vec<f64>,
    counts: Vec<u64>,
}

impl PathCounts {
    /// Builds the loop-free path counts toward `dest`.
    ///
    /// Counts saturate at `u64::MAX` on pathological graphs.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range.
    pub fn toward(g: &Graph, dest: NodeId) -> Self {
        // Undirected: the distances from `dest` are the distances to it.
        Self::from_settled(g, dijkstra(g, dest).into_settled())
    }

    /// The loop-free path counts toward `tree`'s source, from a Dijkstra
    /// run already made on `g` (equal to [`PathCounts::toward`] on that
    /// source).
    ///
    /// # Panics
    ///
    /// Panics if `tree` was not settled on a graph with `g`'s node count.
    pub fn from_settled(g: &Graph, tree: SettledDistances) -> Self {
        let SettledDistances {
            source: dest,
            dist,
            order,
        } = tree;
        assert_eq!(dist.len(), g.node_count(), "tree of another graph");
        // The settle order is nondecreasing in distance, so every next hop
        // (strictly closer) is final before it is consumed.
        let mut counts = vec![0u64; dist.len()];
        counts[dest.0] = 1;
        for &v in &order[1..] {
            let v = NodeId(v as usize);
            let mut total: u64 = 0;
            for &(u, _) in g.adjacency(v) {
                if dist[u.0] + EPS < dist[v.0] {
                    total = total.saturating_add(counts[u.0]);
                }
            }
            counts[v.0] = total;
        }
        PathCounts { dest, dist, counts }
    }

    /// The destination these counts are rooted at.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Number of loop-free paths from `v` to the destination (1 for the
    /// destination itself, 0 if unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn count_from(&self, v: NodeId) -> u64 {
        self.counts[v.0]
    }

    /// Shortest-path distance from `v` to the destination.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn dist_from(&self, v: NodeId) -> f64 {
        self.dist[v.0]
    }

    /// The loop-free next hops of `v`: neighbors strictly closer to the
    /// destination.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn next_hops<'g>(&'g self, g: &'g Graph, v: NodeId) -> impl Iterator<Item = NodeId> + 'g {
        let dv = self.dist[v.0];
        g.adjacency(v)
            .iter()
            .map(|&(u, _)| u)
            .filter(move |u| self.dist[u.0] + EPS < dv)
    }
}

/// Exhaustively counts simple paths from `s` to `t` with at most `max_hops`
/// edges. Exponential; intended for tests and very small graphs.
///
/// # Panics
///
/// Panics if either node is out of range.
pub fn count_simple_paths(g: &Graph, s: NodeId, t: NodeId, max_hops: usize) -> u64 {
    g.check_node(s).expect("source out of range");
    g.check_node(t).expect("target out of range");
    if s == t {
        return 1;
    }
    let mut visited = vec![false; g.node_count()];
    visited[s.0] = true;
    fn rec(g: &Graph, v: NodeId, t: NodeId, left: usize, visited: &mut [bool]) -> u64 {
        if v == t {
            return 1;
        }
        if left == 0 {
            return 0;
        }
        let mut total = 0;
        for &(u, _) in g.adjacency(v) {
            if !visited[u.0] {
                visited[u.0] = true;
                total += rec(g, u, t, left - 1, visited);
                visited[u.0] = false;
            }
        }
        total
    }
    rec(g, s, t, max_hops, &mut visited)
}

/// Total weight of a node path, or `None` if any consecutive pair is not an
/// edge of the graph.
pub fn path_weight(g: &Graph, path: &[NodeId]) -> Option<f64> {
    let mut total = 0.0;
    for w in path.windows(2) {
        total += g.edge_weight(w[0], w[1])?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// The 5-node domain of the paper's Fig. 1: s20..s24 mapped to 0..4.
    /// Edges: 20-21, 20-22, 21-22, 21-23, 22-24, 23-24 (unit weight).
    fn fig1_domain() -> Graph {
        Graph::from_edges(
            5,
            [
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 4, 1.0),
                (3, 4, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dijkstra_simple_line() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let spt = dijkstra(&g, NodeId(0));
        assert_eq!(spt.dist_to(NodeId(3)), Some(3.0));
        assert_eq!(
            spt.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn dijkstra_prefers_lighter_path() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.5)]).unwrap();
        let spt = dijkstra(&g, NodeId(0));
        assert_eq!(spt.dist_to(NodeId(2)), Some(2.0));
        assert_eq!(spt.path_to(NodeId(2)).unwrap().len(), 3);
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut g = Graph::from_edges(2, [(0, 1, 1.0)]).unwrap();
        let lonely = g.add_node("x", None);
        let spt = dijkstra(&g, NodeId(0));
        assert_eq!(spt.dist_to(lonely), None);
        assert_eq!(spt.path_to(lonely), None);
    }

    #[test]
    fn dijkstra_source_path_is_self() {
        let g = fig1_domain();
        let spt = dijkstra(&g, NodeId(2));
        assert_eq!(spt.path_to(NodeId(2)), Some(vec![NodeId(2)]));
        assert_eq!(spt.dist_to(NodeId(2)), Some(0.0));
    }

    #[test]
    fn bfs_hops_counts_edges() {
        let g = fig1_domain();
        let hops = bfs_hops(&g, NodeId(0));
        assert_eq!(hops[0], 0);
        assert_eq!(hops[1], 1);
        assert_eq!(hops[4], 2);
    }

    #[test]
    fn path_counts_line_graph_single_path() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let pc = PathCounts::toward(&g, NodeId(3));
        assert_eq!(pc.count_from(NodeId(0)), 1);
        assert_eq!(pc.count_from(NodeId(3)), 1);
    }

    #[test]
    fn path_counts_diamond() {
        // 0-1, 0-2, 1-3, 2-3: two loop-free paths from 0 to 3.
        let g = Graph::from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)]).unwrap();
        let pc = PathCounts::toward(&g, NodeId(3));
        assert_eq!(pc.count_from(NodeId(0)), 2);
        assert_eq!(pc.count_from(NodeId(1)), 1);
    }

    #[test]
    fn path_counts_fig1_domain() {
        let g = fig1_domain();
        // Toward s24 (= node 4): s21 (= node 1) forwards via s23 (dist 1)
        // or s22 (dist 1); both strictly closer than s21 (dist 2).
        let pc = PathCounts::toward(&g, NodeId(4));
        assert_eq!(
            pc.count_from(NodeId(1)),
            2,
            "s21 has two loop-free paths to s24"
        );
        // Toward s21: s24's loop-free next hops are s22 and s23.
        let pc = PathCounts::toward(&g, NodeId(1));
        let hops: Vec<_> = pc.next_hops(&g, NodeId(4)).collect();
        assert_eq!(hops.len(), 2);
        assert_eq!(pc.count_from(NodeId(4)), 2);
    }

    #[test]
    fn path_counts_unreachable_zero() {
        let mut g = Graph::from_edges(2, [(0, 1, 1.0)]).unwrap();
        let lonely = g.add_node("x", None);
        let pc = PathCounts::toward(&g, NodeId(0));
        assert_eq!(pc.count_from(lonely), 0);
    }

    #[test]
    fn dag_counts_bounded_by_simple_paths() {
        // Every loop-free-alternate path is a simple path, so the DAG count
        // can never exceed the exhaustive simple-path count.
        let g = fig1_domain();
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let pc = PathCounts::toward(&g, t);
                let exhaustive = count_simple_paths(&g, s, t, g.node_count());
                assert!(
                    pc.count_from(s) <= exhaustive,
                    "DAG count {} > simple path count {} for {s}->{t}",
                    pc.count_from(s),
                    exhaustive
                );
            }
        }
    }

    #[test]
    fn count_simple_paths_triangle() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        // 0->2 directly, or 0->1->2.
        assert_eq!(count_simple_paths(&g, NodeId(0), NodeId(2), 5), 2);
        // Hop budget of 1 only allows the direct edge.
        assert_eq!(count_simple_paths(&g, NodeId(0), NodeId(2), 1), 1);
    }

    #[test]
    fn path_weight_checks_edges() {
        let g = fig1_domain();
        assert_eq!(
            path_weight(&g, &[NodeId(1), NodeId(3), NodeId(4)]),
            Some(2.0)
        );
        assert_eq!(path_weight(&g, &[NodeId(0), NodeId(4)]), None);
        assert_eq!(path_weight(&g, &[NodeId(0)]), Some(0.0));
    }

    /// The loop-free path counts as they were computed before the settle
    /// order existed: a separate Dijkstra, then a stable sort of the
    /// reachable nodes by distance. The reference `from_settled` must match.
    fn sorted_counts_reference(g: &Graph, dest: NodeId) -> Vec<u64> {
        let dist = dijkstra(g, dest).distances().to_vec();
        let mut order: Vec<usize> = (0..g.node_count())
            .filter(|&v| dist[v].is_finite())
            .collect();
        order.sort_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap_or(Ordering::Equal));
        let mut counts = vec![0u64; g.node_count()];
        for v in order {
            if v == dest.0 {
                counts[v] = 1;
                continue;
            }
            let mut total: u64 = 0;
            for &(u, _) in g.adjacency(NodeId(v)) {
                if dist[u.0] + EPS < dist[v] {
                    total = total.saturating_add(counts[u.0]);
                }
            }
            counts[v] = total;
        }
        counts
    }

    /// Random graphs whose weights come from a small set including 0, so
    /// distances tie often and zero-weight edges settle equal-distance
    /// nodes out of index order; some graphs are disconnected.
    #[test]
    fn settle_order_is_nondecreasing_and_counts_match_the_sorted_reference() {
        let mut rng = crate::rng::DetRng::seed_from_u64(5);
        for round in 0..200 {
            let n = 2 + round % 23;
            let mut g = Graph::new();
            for i in 0..n {
                g.add_node(format!("n{i}"), None);
            }
            for _ in 0..(rng.next_u64() as usize % (3 * n)) {
                let a = NodeId(rng.next_u64() as usize % n);
                let b = NodeId(rng.next_u64() as usize % n);
                let w = [0.0, 1.0, 1.0, 2.0, 0.5][rng.next_u64() as usize % 5];
                let _ = g.add_edge(a, b, w);
            }
            for dest in g.nodes() {
                let spt = dijkstra(&g, dest);
                let (order, dist) = (&spt.settled.order, &spt.settled.dist);
                assert_eq!(order[0] as usize, dest.0);
                assert!(order
                    .windows(2)
                    .all(|w| dist[w[0] as usize] <= dist[w[1] as usize]));
                let reachable = dist.iter().filter(|d| d.is_finite()).count();
                assert_eq!(order.len(), reachable, "round {round}");
                let pc = PathCounts::toward(&g, dest);
                let want = sorted_counts_reference(&g, dest);
                for v in g.nodes() {
                    assert_eq!(pc.count_from(v), want[v.0], "round {round} {v}->{dest}");
                    assert_eq!(pc.dist_from(v).to_bits(), dist[v.0].to_bits());
                }
            }
        }
    }

    #[test]
    fn all_pairs_consistent_with_single_source() {
        let g = fig1_domain();
        let all = all_pairs(&g);
        for v in g.nodes() {
            let single = dijkstra(&g, v);
            assert_eq!(all[v.0].distances(), single.distances());
        }
    }
}
