//! ProgrammabilityMedic: predictable path-programmability recovery under
//! multiple controller failures in SD-WANs.
//!
//! This crate is the paper's primary contribution, built on the
//! [`pm_sdwan`] domain model and the [`pm_milp`] solver substrate:
//!
//! * [`FmssmInstance`] — the Flow Mode Selection and Switch Mapping problem
//!   derived from a [`pm_sdwan::FailureScenario`] (Section IV).
//! * [`Pm`] — the paper's heuristic, Algorithm 1 (Section V).
//! * [`RetroFlow`] — the switch-level hybrid baseline \[6\].
//! * [`Pg`] — the flow-level middle-layer baseline, ProgrammabilityGuardian
//!   \[9\].
//! * [`Optimal`] — the ILP formulation P′ solved exactly (with a warm start
//!   from PM and a configurable time limit, mirroring GUROBI's role in the
//!   paper).
//! * [`RecoveryAlgorithm`] — the common interface, so evaluation harnesses
//!   can sweep all four.
//!
//! # Example
//!
//! ```
//! use pm_sdwan::{SdWanBuilder, ControllerId, Programmability};
//! use pm_core::{FmssmInstance, Pm, RecoveryAlgorithm};
//!
//! let net = SdWanBuilder::att_paper_setup().build()?;
//! let prog = Programmability::compute(&net);
//! let scenario = net.fail(&[ControllerId(3), ControllerId(4)])?;
//! let instance = FmssmInstance::new(&scenario, &prog);
//!
//! let plan = Pm::default().recover(&instance)?;
//! // Check the plan against the instance and score it in one walk.
//! let (metrics, total_delay) = instance.evaluate(&plan, false, 0.0)?;
//! assert!(metrics.total_programmability > 0);
//! assert!(total_delay > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heuristic;
pub mod instance;
pub mod optimal;
pub mod pg;
pub mod reroute;
pub mod retroflow;
pub mod successive;
pub mod te;
pub mod twostage;

mod error;

pub use error::PmError;
pub use heuristic::{Pm, PmConfig, PmWorkspace};
pub use instance::FmssmInstance;
pub use optimal::{DelayBound, LinkingStyle, Optimal, OptimalOutcome};
pub use pg::Pg;
pub use reroute::{RerouteAction, Rerouter};
pub use retroflow::RetroFlow;
pub use successive::SuccessiveRecovery;
pub use te::{relieve_hotspots, ReliefReport};
pub use twostage::{TwoStage, TwoStageOutcome};

use pm_sdwan::RecoveryPlan;

/// Common interface of all recovery algorithms the paper compares.
pub trait RecoveryAlgorithm {
    /// Short display name ("PM", "RetroFlow", "PG", "Optimal").
    fn name(&self) -> &'static str;

    /// Extra per-control-interaction processing delay this solution incurs
    /// (only PG's middle layer has one).
    fn middle_layer_ms(&self) -> f64 {
        0.0
    }

    /// Whether the produced plans are flow-level (bypass the switch-mapping
    /// constraint); affects plan validation.
    fn is_flow_level(&self) -> bool {
        false
    }

    /// Computes a recovery plan for the instance.
    ///
    /// # Errors
    ///
    /// Returns an algorithm-specific [`PmError`] — e.g. the exact solver may
    /// time out without a feasible solution.
    fn recover(&self, instance: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError>;
}
