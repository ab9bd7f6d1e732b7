//! A self-contained linear and mixed-integer linear programming solver.
//!
//! The ProgrammabilityMedic paper solves its linearized FMSSM problem (P′)
//! with GUROBI. GUROBI is proprietary and unavailable here, so this crate
//! provides the substrate: a bounded-variable two-phase primal [simplex]
//! solver for linear relaxations and a [branch-and-bound][branch] driver for
//! binary/integer programs, with warm starts, node limits, and wall-clock
//! time limits (the paper itself reports that the optimal solver does not
//! always finish — our time limit reproduces that behaviour predictably).
//!
//! [simplex]: crate::simplex
//! [branch]: crate::branch
//!
//! # Example: a tiny knapsack
//!
//! ```
//! use pm_milp::{Model, Sense, VarKind, MilpSolver};
//!
//! let mut m = Model::new();
//! let x = m.add_var("x", VarKind::Binary);
//! let y = m.add_var("y", VarKind::Binary);
//! let z = m.add_var("z", VarKind::Binary);
//! // weights 3, 4, 5; capacity 7; values 4, 5, 6
//! m.add_constraint([(x, 3.0), (y, 4.0), (z, 5.0)], Sense::Le, 7.0);
//! m.maximize([(x, 4.0), (y, 5.0), (z, 6.0)]);
//!
//! let result = MilpSolver::new().solve(&m);
//! let sol = result.solution.expect("feasible");
//! assert!((sol.objective - 9.0).abs() < 1e-6); // take x and y
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod lp_format;
pub mod model;
pub mod simplex;

pub use branch::{MilpResult, MilpSolver, MilpStatus, Polisher};
pub use lp_format::to_lp_string;
pub use model::{Model, ModelError, Sense, Solution, Var, VarKind};
pub use simplex::{LpContext, LpOutcome, LpSolution, SimplexOptions};
