//! Evaluation harness for the ProgrammabilityMedic reproduction.
//!
//! `pmctl repro NAME` (crate `pm-cli`) regenerates every table and figure
//! of the paper's evaluation (Section VI) through this harness:
//!
//! | NAME     | Paper artifact | Content |
//! |----------|----------------|---------|
//! | `table3` | Table III      | controller domains and per-switch flow counts |
//! | `fig4`   | Fig. 4(a–d)    | one controller failure, 6 cases |
//! | `fig5`   | Fig. 5(a–f)    | two controller failures, 15 cases |
//! | `fig6`   | Fig. 6(a–f)    | three controller failures, 20 cases |
//! | `fig7`   | Fig. 7         | PM computation time as % of Optimal |
//!
//! This library holds the shared harness: enumerate failure cases, run the
//! four algorithms, collect [`pm_sdwan::PlanMetrics`], and render aligned
//! text tables (plus optional CSV files for plotting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod flags;
pub mod harness;
pub mod par;
pub mod plan_store;
pub mod pmd;
pub mod report;
pub mod scenario_space;
pub mod sweep;
pub mod timelines;
pub mod wan;

pub use harness::{AlgoRun, CaseResult, EvalOptions};
pub use par::{
    stream_indexed, timing_stats, PoolNames, SolvedPlan, SweepEngine, TimingStats, SWEEP_POOL,
};
pub use plan_store::{PlanStore, StoredPlan};
pub use pmd::{Generation, PmdConfig, PmdService};
pub use scenario_space::{binomial, IndexSelection, ScenarioSelection, ScenarioSpace};
pub use sweep::combinations;
pub use timelines::{timeline_rows, TimelineRunInfo, TimelineSelection, TIMELINE_CASE_HEADERS};
pub use wan::{build_wan, BuiltWan, WanSpec};
