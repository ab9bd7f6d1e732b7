//! The core undirected weighted graph type.

use crate::geo::GeoPoint;
use crate::TopoError;
use std::fmt;

/// Identifier of a node inside a [`Graph`].
///
/// Node ids are dense indices: the `k`-th added node has id `NodeId(k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of an undirected edge inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

impl NodeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl EdgeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-node metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMeta {
    /// Human-readable label (city name in backbone topologies).
    pub name: String,
    /// Geographic position, if known.
    pub position: Option<GeoPoint>,
}

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Non-negative finite weight. The SD-WAN layers use propagation delay
    /// in milliseconds, but the graph itself is unit-agnostic.
    pub weight: f64,
}

impl Edge {
    /// Given one endpoint of the edge, returns the other one.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!(
                "node {n} is not an endpoint of edge ({}, {})",
                self.a, self.b
            )
        }
    }
}

/// A compact undirected weighted graph with geographic node metadata.
///
/// The graph disallows self-loops and parallel edges, which matches
/// backbone topologies (Topology Zoo datasets are simple graphs once
/// duplicate links are collapsed).
///
/// # Example
///
/// ```
/// use pm_topo::{Graph, NodeId};
///
/// # fn main() -> Result<(), pm_topo::TopoError> {
/// let mut g = Graph::new();
/// let a = g.add_node("a", None);
/// let b = g.add_node("b", None);
/// g.add_edge(a, b, 1.5)?;
/// assert_eq!(g.neighbors(a).next(), Some(b));
/// # Ok(())
/// # }
/// ```
/// Adjacency is stored in compressed-sparse-row (CSR) form: one flat
/// `(neighbor, edge id)` array plus per-node offsets, so traversals iterate
/// a contiguous slice per node instead of chasing a `Vec` per node. The CSR
/// arrays are kept up to date on every mutation; reads never rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: Vec<NodeMeta>,
    edges: Vec<Edge>,
    /// CSR row starts: node `v`'s arcs live at `arcs[offsets[v]..offsets[v+1]]`.
    /// Always has `nodes.len() + 1` entries; the last one is `arcs.len()`.
    offsets: Vec<usize>,
    /// CSR payload: `(neighbor, edge id)` pairs, per-node in edge insertion
    /// order.
    arcs: Vec<(NodeId, EdgeId)>,
    /// `arc_weights[k]` is the weight of `arcs[k]`'s edge, so a traversal
    /// reads a row's weights as one slice instead of looking each edge up.
    arc_weights: Vec<f64>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            offsets: vec![0],
            arcs: Vec::new(),
            arc_weights: Vec::new(),
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::new(),
            offsets,
            arcs: Vec::new(),
            arc_weights: Vec::new(),
        }
    }

    /// Builds a graph from an explicit edge list over `node_count` anonymous
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range, any edge is a
    /// self-loop or duplicate, or any weight is invalid.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, TopoError> {
        let mut g = Graph::with_capacity(node_count);
        for i in 0..node_count {
            g.add_node(format!("n{i}"), None);
        }
        for (a, b, w) in edges {
            g.add_edge(NodeId(a), NodeId(b), w)?;
        }
        Ok(g)
    }

    /// A graph over `nodes` whose CSR rows are laid out in one counting
    /// pass over `edges`, equal (edge ids, row order, weights) to adding
    /// the edges one by one with [`Graph::add_edge`]. The caller guarantees
    /// what `add_edge` would check: endpoints in range, no self-loops, no
    /// duplicates, finite non-negative weights.
    pub(crate) fn from_valid_edges(nodes: Vec<NodeMeta>, edges: Vec<Edge>) -> Graph {
        let n = nodes.len();
        let mut offsets = vec![0usize; n + 1];
        for e in &edges {
            debug_assert!(e.a.0 < n && e.b.0 < n && e.a != e.b);
            debug_assert!(e.weight.is_finite() && e.weight >= 0.0);
            offsets[e.a.0 + 1] += 1;
            offsets[e.b.0 + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Scattering in edge-id order appends each edge to the end of both
        // endpoint rows, as `add_edge` does.
        let mut fill = offsets[..n].to_vec();
        let mut arcs = vec![(NodeId(0), EdgeId(0)); 2 * edges.len()];
        let mut arc_weights = vec![0.0; 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            for (from, to) in [(e.a, e.b), (e.b, e.a)] {
                let k = fill[from.0];
                arcs[k] = (to, EdgeId(i));
                arc_weights[k] = e.weight;
                fill[from.0] += 1;
            }
        }
        Graph {
            nodes,
            edges,
            offsets,
            arcs,
            arc_weights,
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, position: Option<GeoPoint>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeMeta {
            name: name.into(),
            position,
        });
        self.offsets.push(self.arcs.len());
        id
    }

    /// Inserts `(to, e)` at the end of `from`'s CSR row, shifting the rows of
    /// every later node. `O(V + E)` per call — graph construction is a
    /// once-per-network cost, traded for contiguous hot-path traversal.
    fn insert_arc(&mut self, from: NodeId, to: NodeId, e: EdgeId) {
        let pos = self.offsets[from.0 + 1];
        self.arcs.insert(pos, (to, e));
        self.arc_weights.insert(pos, self.edges[e.0].weight);
        for off in &mut self.offsets[from.0 + 1..] {
            *off += 1;
        }
    }

    /// Adds an undirected edge between `a` and `b` with the given weight.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, `a == b`, the edge
    /// already exists, or the weight is negative/not finite.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: f64) -> Result<EdgeId, TopoError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopoError::InvalidEdge {
                a: a.0,
                b: b.0,
                reason: "self-loop",
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(TopoError::InvalidWeight { weight });
        }
        if self.find_edge(a, b).is_some() {
            return Err(TopoError::InvalidEdge {
                a: a.0,
                b: b.0,
                reason: "duplicate edge",
            });
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { a, b, weight });
        self.insert_arc(a, b, id);
        self.insert_arc(b, a, id);
        Ok(id)
    }

    /// Adds an undirected edge whose weight is the propagation delay (in
    /// milliseconds) between the two endpoints' geographic positions.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as [`Graph::add_edge`], or
    /// if either endpoint has no position.
    pub fn add_geo_edge(&mut self, a: NodeId, b: NodeId) -> Result<EdgeId, TopoError> {
        self.check_node(a)?;
        self.check_node(b)?;
        let pa = self.nodes[a.0].position.ok_or(TopoError::InvalidEdge {
            a: a.0,
            b: b.0,
            reason: "endpoint has no geographic position",
        })?;
        let pb = self.nodes[b.0].position.ok_or(TopoError::InvalidEdge {
            a: a.0,
            b: b.0,
            reason: "endpoint has no geographic position",
        })?;
        self.add_edge(a, b, pa.propagation_delay_ms(&pb))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed links (twice the undirected edge count). Topology
    /// datasets such as the paper's "25 nodes and 112 links" ATT topology
    /// count each direction separately.
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len() * 2
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterator over all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Metadata of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node(&self, n: NodeId) -> &NodeMeta {
        &self.nodes[n.0]
    }

    /// The edge with id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0]
    }

    /// The CSR adjacency row of `n`: `(neighbor, edge id)` pairs in edge
    /// insertion order, as one contiguous slice. This is the hot-path
    /// traversal primitive; [`Graph::neighbors`] and [`Graph::incident`] are
    /// iterator views over the same row.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn adjacency(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.arcs[self.offsets[n.0]..self.offsets[n.0 + 1]]
    }

    /// The weights of [`Graph::adjacency`]`(n)`'s arcs, in the same order:
    /// `arc_weights(n)[k]` is the weight of `adjacency(n)[k]`'s edge.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub(crate) fn arc_weights(&self, n: NodeId) -> &[f64] {
        &self.arc_weights[self.offsets[n.0]..self.offsets[n.0 + 1]]
    }

    /// Iterator over the neighbors of `n`, in edge insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.adjacency(n).iter().map(|&(v, _)| v)
    }

    /// Iterator over `(neighbor, edge id)` pairs incident to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn incident(&self, n: NodeId) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + '_ {
        self.adjacency(n).iter().copied()
    }

    /// Degree of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn degree(&self, n: NodeId) -> usize {
        self.offsets[n.0 + 1] - self.offsets[n.0]
    }

    /// Looks up the edge between `a` and `b`, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a.0 >= self.nodes.len() || b.0 >= self.nodes.len() {
            return None;
        }
        // Search from the lower-degree endpoint.
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency(from)
            .iter()
            .find(|&&(v, _)| v == to)
            .map(|&(_, e)| e)
    }

    /// Weight of the edge between `a` and `b`, if any.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.find_edge(a, b).map(|e| self.edges[e.0].weight)
    }

    /// Returns `true` if every node is reachable from node 0 (or the graph is
    /// empty).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in self.adjacency(v) {
                if !seen[u.0] {
                    seen[u.0] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Validates that `n` is a node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, n: NodeId) -> Result<(), TopoError> {
        if n.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(TopoError::NodeOutOfRange {
                node: n.0,
                node_count: self.nodes.len(),
            })
        }
    }

    /// A copy of the graph with the edge between `a` and `b` removed
    /// (either endpoint order), or `None` if no such edge exists. Node ids
    /// are preserved; edge ids are re-assigned densely.
    pub fn without_edge(&self, a: NodeId, b: NodeId) -> Option<Graph> {
        let victim = self.find_edge(a, b)?;
        let mut g = Graph::with_capacity(self.node_count());
        for v in self.nodes() {
            let meta = self.node(v);
            g.add_node(meta.name.clone(), meta.position);
        }
        for (i, e) in self.edges.iter().enumerate() {
            if EdgeId(i) != victim {
                g.add_edge(e.a, e.b, e.weight)
                    .expect("copying a valid graph");
            }
        }
        Some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)]).unwrap()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.directed_edge_count(), 6);
    }

    #[test]
    fn neighbors_in_insertion_order() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(NodeId(0)).collect();
        assert_eq!(n, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new();
        let a = g.add_node("a", None);
        assert!(matches!(
            g.add_edge(a, a, 1.0),
            Err(TopoError::InvalidEdge {
                reason: "self-loop",
                ..
            })
        ));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = triangle();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), 9.0),
            Err(TopoError::InvalidEdge {
                reason: "duplicate edge",
                ..
            })
        ));
        // Also in reverse direction.
        assert!(g.add_edge(NodeId(1), NodeId(0), 9.0).is_err());
    }

    #[test]
    fn rejects_bad_weight() {
        let mut g = Graph::new();
        let a = g.add_node("a", None);
        let b = g.add_node("b", None);
        assert!(matches!(
            g.add_edge(a, b, -1.0),
            Err(TopoError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(a, b, f64::NAN),
            Err(TopoError::InvalidWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(a, b, f64::INFINITY),
            Err(TopoError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = triangle();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(7), 1.0),
            Err(TopoError::NodeOutOfRange {
                node: 7,
                node_count: 3
            })
        ));
    }

    #[test]
    fn edge_lookup_both_directions() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(2)), Some(4.0));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(0)), Some(4.0));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(1)), None);
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let mut g2 = triangle();
        g2.add_node("lonely", None);
        assert!(!g2.is_connected());
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let g = triangle();
        let _ = g.edge(EdgeId(0)).other(NodeId(2));
    }

    /// Checks the CSR invariants: monotone offsets bracketing `arcs`, row
    /// lengths matching degrees, every arc mirroring a real edge, and each
    /// arc weight equal to its edge's weight, bit for bit.
    fn assert_csr_consistent(g: &Graph) {
        assert_eq!(g.offsets.len(), g.node_count() + 1);
        assert_eq!(g.offsets[0], 0);
        assert_eq!(*g.offsets.last().unwrap(), g.arcs.len());
        assert!(g.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(g.arcs.len(), 2 * g.edge_count());
        assert_eq!(g.arc_weights.len(), g.arcs.len());
        for v in g.nodes() {
            assert_eq!(g.arc_weights(v).len(), g.degree(v));
            for (&(u, e), &w) in g.adjacency(v).iter().zip(g.arc_weights(v)) {
                let edge = g.edge(e);
                assert_eq!(edge.other(v), u);
                assert_eq!(w.to_bits(), edge.weight.to_bits(), "arc {v}->{u}");
            }
        }
        for (i, e) in g.edges().enumerate() {
            let id = EdgeId(i);
            assert!(g.adjacency(e.a).contains(&(e.b, id)));
            assert!(g.adjacency(e.b).contains(&(e.a, id)));
        }
    }

    #[test]
    fn csr_invariants_hold_during_construction() {
        let mut g = Graph::new();
        assert_csr_consistent(&g);
        for i in 0..6 {
            g.add_node(format!("n{i}"), None);
            assert_csr_consistent(&g);
        }
        // Interleave edges touching early and late nodes so arcs must be
        // inserted mid-array, not just appended.
        for (a, b) in [(0, 5), (2, 3), (0, 1), (4, 1), (5, 2), (3, 0)] {
            g.add_edge(NodeId(a), NodeId(b), (a + b) as f64).unwrap();
            assert_csr_consistent(&g);
        }
        // Rows keep edge insertion order.
        let row0: Vec<NodeId> = g.neighbors(NodeId(0)).collect();
        assert_eq!(row0, vec![NodeId(5), NodeId(1), NodeId(3)]);
    }

    /// Random `add_edge` sequences (rejected duplicates and self-loops
    /// included) keep every invariant after each call, and laying the same
    /// edges out in one pass gives the identical graph.
    #[test]
    fn arc_weights_track_every_add_edge_sequence() {
        let mut rng = crate::rng::DetRng::seed_from_u64(17);
        for round in 0..40 {
            let n = 2 + round % 9;
            let mut g = Graph::new();
            for i in 0..n {
                g.add_node(format!("n{i}"), None);
            }
            for _ in 0..3 * n {
                let a = NodeId((rng.next_u64() % n as u64) as usize);
                let b = NodeId((rng.next_u64() % n as u64) as usize);
                // Few distinct weights, so equal weights sit side by side.
                let w = (rng.next_u64() % 4) as f64 * 0.5;
                let _ = g.add_edge(a, b, w);
                assert_csr_consistent(&g);
            }
            let bulk = Graph::from_valid_edges(g.nodes.clone(), g.edges.clone());
            assert_csr_consistent(&bulk);
            assert_eq!(bulk, g, "round {round}");
        }
    }

    #[test]
    fn adjacency_slice_matches_incident_iterator() {
        let g = triangle();
        for v in g.nodes() {
            let slice: Vec<_> = g.adjacency(v).to_vec();
            let iter: Vec<_> = g.incident(v).collect();
            assert_eq!(slice, iter);
            assert_eq!(g.degree(v), slice.len());
        }
    }

    #[test]
    fn without_edge_removes_one_edge() {
        let g = triangle();
        let cut = g.without_edge(NodeId(1), NodeId(0)).expect("edge exists");
        assert_eq!(cut.node_count(), 3);
        assert_eq!(cut.edge_count(), 2);
        assert_eq!(cut.find_edge(NodeId(0), NodeId(1)), None);
        assert!(cut.find_edge(NodeId(1), NodeId(2)).is_some());
        assert!(cut.is_connected());
        // Absent edges give None; the original is untouched.
        assert!(cut.without_edge(NodeId(0), NodeId(1)).is_none());
        assert_eq!(g.edge_count(), 3);
    }
}
