//! Property-based tests for the graph substrate.

use pm_topo::paths::{self, PathCounts};
use pm_topo::{Graph, NodeId};
use proptest::prelude::*;

/// Strategy: a random simple graph with `3..=14` nodes and random positive
/// edge weights. Not necessarily connected.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..=14).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0usize..n, 0usize..n, 0.1f64..10.0), 0..=max_edges).prop_map(
            move |edges| {
                let mut g = Graph::with_capacity(n);
                for i in 0..n {
                    g.add_node(format!("n{i}"), None);
                }
                for (a, b, w) in edges {
                    if a != b {
                        // Ignore duplicates; add_edge rejects them.
                        let _ = g.add_edge(NodeId(a), NodeId(b), w);
                    }
                }
                g
            },
        )
    })
}

proptest! {
    /// Dijkstra distances satisfy the edge relaxation inequality everywhere.
    #[test]
    fn dijkstra_distances_are_tight(g in arb_graph()) {
        for s in g.nodes() {
            let spt = paths::dijkstra(&g, s);
            for e in g.edges() {
                let da = spt.distances()[e.a.index()];
                let db = spt.distances()[e.b.index()];
                if da.is_finite() {
                    prop_assert!(db <= da + e.weight + 1e-6,
                        "relaxable edge {}-{} from source {s}", e.a, e.b);
                }
                if db.is_finite() {
                    prop_assert!(da <= db + e.weight + 1e-6);
                }
            }
        }
    }

    /// The reconstructed path's total weight equals the reported distance.
    #[test]
    fn dijkstra_paths_match_distances(g in arb_graph()) {
        let s = NodeId(0);
        let spt = paths::dijkstra(&g, s);
        for t in g.nodes() {
            if let Some(p) = spt.path_to(t) {
                prop_assert_eq!(*p.first().unwrap(), s);
                prop_assert_eq!(*p.last().unwrap(), t);
                let w = paths::path_weight(&g, &p).expect("consecutive nodes are edges");
                let d = spt.dist_to(t).unwrap();
                prop_assert!((w - d).abs() < 1e-6, "path weight {w} != dist {d}");
            }
        }
    }

    /// Dijkstra distance is symmetric on undirected graphs.
    #[test]
    fn dijkstra_symmetric(g in arb_graph()) {
        let from0 = paths::dijkstra(&g, NodeId(0));
        for t in g.nodes() {
            let back = paths::dijkstra(&g, t);
            let d1 = from0.dist_to(t);
            let d2 = back.dist_to(NodeId(0));
            match (d1, d2) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6),
                (None, None) => {}
                _ => prop_assert!(false, "asymmetric reachability"),
            }
        }
    }

    /// Loop-free path counts: every node's count equals the sum of its
    /// loop-free next hops' counts (the defining DP invariant).
    #[test]
    fn path_counts_dp_invariant(g in arb_graph()) {
        for dest in g.nodes() {
            let pc = PathCounts::toward(&g, dest);
            for v in g.nodes() {
                if v == dest || !pc.dist_from(v).is_finite() {
                    continue;
                }
                let sum: u64 = pc.next_hops(&g, v).map(|u| pc.count_from(u)).sum();
                prop_assert_eq!(pc.count_from(v), sum);
            }
        }
    }

    /// DAG path counts never exceed the exhaustive simple-path count.
    #[test]
    fn path_counts_bounded_by_exhaustive(g in arb_graph()) {
        let dest = NodeId(0);
        let pc = PathCounts::toward(&g, dest);
        for v in g.nodes() {
            if v == dest { continue; }
            let exhaustive = paths::count_simple_paths(&g, v, dest, g.node_count());
            prop_assert!(pc.count_from(v) <= exhaustive);
        }
    }

    /// BFS hop counts agree with Dijkstra on a unit-weight copy of the graph.
    #[test]
    fn bfs_matches_unit_dijkstra(g in arb_graph()) {
        let mut unit = Graph::with_capacity(g.node_count());
        for v in g.nodes() {
            unit.add_node(g.node(v).name.clone(), None);
        }
        for e in g.edges() {
            unit.add_edge(e.a, e.b, 1.0).unwrap();
        }
        let hops = paths::bfs_hops(&g, NodeId(0));
        let spt = paths::dijkstra(&unit, NodeId(0));
        for v in g.nodes() {
            match spt.dist_to(v) {
                Some(d) => prop_assert_eq!(hops[v.index()], d.round() as usize),
                None => prop_assert_eq!(hops[v.index()], usize::MAX),
            }
        }
    }
}

/// Strategy: like [`arb_graph`] but capped at 10 nodes so exhaustive path
/// enumeration stays cheap.
fn small_graph() -> impl Strategy<Value = Graph> {
    (3usize..=10).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0usize..n, 0usize..n, 0.1f64..10.0), 0..=max_edges).prop_map(
            move |edges| {
                let mut g = Graph::with_capacity(n);
                for i in 0..n {
                    g.add_node(format!("n{i}"), None);
                }
                for (a, b, w) in edges {
                    if a != b {
                        let _ = g.add_edge(NodeId(a), NodeId(b), w);
                    }
                }
                g
            },
        )
    })
}

/// Exhaustively counts the paths from `v` to `dest` in the loop-free
/// alternate DAG (every hop strictly closer to `dest`). Independent of the
/// DP in `PathCounts::toward` — a plain recursion over DAG edges.
fn exhaustive_dag_count(g: &Graph, dist: &[f64], v: NodeId, dest: NodeId) -> u64 {
    if v == dest {
        return 1;
    }
    g.neighbors(v)
        .filter(|u| dist[u.index()] + 1e-9 < dist[v.index()])
        .map(|u| exhaustive_dag_count(g, dist, u, dest))
        .sum()
}

proptest! {
    /// On small graphs the DP path counts equal an independent exhaustive
    /// enumeration of the DAG, and never exceed the count of *all* simple
    /// paths.
    #[test]
    fn path_counts_match_exhaustive_dag(g in small_graph()) {
        for dest in g.nodes() {
            let pc = PathCounts::toward(&g, dest);
            let spt = paths::dijkstra(&g, dest);
            for v in g.nodes() {
                if spt.dist_to(v).is_none() {
                    prop_assert_eq!(pc.count_from(v), 0u64);
                    continue;
                }
                let dag = exhaustive_dag_count(&g, spt.distances(), v, dest);
                prop_assert_eq!(pc.count_from(v), dag, "DP vs DAG recursion at {v}");
                let all = paths::count_simple_paths(&g, v, dest, g.node_count());
                prop_assert!(dag <= all, "DAG paths must be simple paths");
            }
        }
    }
}
