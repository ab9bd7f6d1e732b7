//! Graph and geometry substrate for the ProgrammabilityMedic SD-WAN
//! reproduction.
//!
//! This crate provides everything the higher layers need to model a wide-area
//! network topology:
//!
//! * [`Graph`] — a compact undirected multigraph with geographic node
//!   metadata and weighted edges.
//! * [`geo`] — great-circle ([Haversine]) distances and speed-of-light
//!   propagation delays.
//! * [`paths`] — Dijkstra shortest paths, all-pairs shortest paths,
//!   destination-rooted shortest-path DAGs and loop-free path counting (the
//!   `p_i^l` quantity of the paper).
//! * [`builders`] — deterministic topology generators (ring, grid, star,
//!   Waxman random geometric graphs).
//! * [`att`] — the embedded 25-node / 112-directed-link ATT-like United
//!   States backbone used by the paper's evaluation.
//! * [`zoo`] — a reader for Topology Zoo GraphML files so real datasets can
//!   be substituted for the embedded topology.
//!
//! [Haversine]: https://en.wikipedia.org/wiki/Haversine_formula
//!
//! # Example
//!
//! ```
//! use pm_topo::{att, paths};
//!
//! let g = att::att_backbone();
//! assert_eq!(g.node_count(), 25);
//! assert_eq!(g.directed_edge_count(), 112);
//!
//! // Shortest path (by propagation delay) from node 0 to node 24.
//! let spt = paths::dijkstra(&g, pm_topo::NodeId(0));
//! let path = spt.path_to(pm_topo::NodeId(24)).expect("connected");
//! assert!(path.len() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod att;
pub mod builders;
pub mod geo;
pub mod graph;
pub mod metrics;
pub mod paths;
pub mod rng;
pub mod zoo;

mod error;

pub use error::TopoError;
pub use geo::GeoPoint;
pub use graph::{EdgeId, Graph, NodeId};
pub use paths::{PathCounts, SettledDistances, ShortestPathTree};
