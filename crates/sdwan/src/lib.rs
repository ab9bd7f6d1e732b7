//! SD-WAN domain model for the ProgrammabilityMedic reproduction.
//!
//! This crate models everything the paper's Section IV formalizes:
//!
//! * [`SdWan`] — the network: a [`pm_topo::Graph`] of switches, a set of
//!   [`Controller`]s each owning a domain of switches, and the all-pairs
//!   flow population routed on shortest paths.
//! * [`FailureScenario`] — which controllers failed, derived offline
//!   switches/flows, residual controller capacities `A_j^rest`,
//!   switch-to-controller delays `D_ij` and the ideal-recovery delay bound
//!   `G` of Eq. (6).
//! * [`Programmability`] — the per-flow per-switch quantities `β_i^l`
//!   (can the switch reroute the flow?) and `p̄_i^l` (how many loop-free
//!   paths open up), computed once per scenario.
//! * [`RecoveryPlan`] — a switch→controller mapping `X` plus per-(switch,
//!   flow) SDN-mode selections `Y`, with full feasibility validation.
//! * [`PlanMetrics`] — every quantity the paper's figures plot: per-flow
//!   programmability distribution, total programmability, recovered flow and
//!   switch percentages, controller utilization and per-flow communication
//!   overhead.
//! * [`hybrid`] — the two-table (OpenFlow + legacy/OSPF) forwarding model of
//!   the high-end switches PM relies on (paper Fig. 2).
//!
//! # Example
//!
//! ```
//! use pm_sdwan::{SdWanBuilder, ControllerId};
//!
//! // The paper's evaluation network: ATT backbone, six controllers.
//! let net = SdWanBuilder::att_paper_setup().build()?;
//! assert_eq!(net.controllers().len(), 6);
//! assert_eq!(net.flows().len(), 600); // one flow per ordered node pair
//!
//! // Fail controller C13 (the one owning the hub).
//! let scenario = net.fail(&[ControllerId(3)])?;
//! assert!(!scenario.offline_switches().is_empty());
//! # Ok::<(), pm_sdwan::SdwanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hybrid;
pub mod index;
pub mod metrics;
pub mod network;
pub mod partition;
pub mod placement;
pub mod plan;
pub mod programmability;
pub mod scenario;
pub mod traffic;

mod dest_counts;
mod error;

pub use cache::NetCache;
pub use error::SdwanError;
pub use index::{FlowSwitchTable, IndexSpace};
pub use metrics::{BoxStats, PlanMetrics};
pub use network::{Controller, ControllerId, Flow, FlowId, SdWan, SwitchId};
pub use partition::{nearest_controller_partition, spread_controllers};
pub use placement::{place_controllers, PlacementStrategy};
pub use plan::{PlanBuilder, RecoveryPlan};
pub use programmability::{Programmability, ScenarioProgrammability};
pub use scenario::{FailureScenario, SdWanBuilder};
pub use traffic::{LinkKey, LinkLoads, TrafficMatrix};
