//! Branch and bound for mixed-integer linear programs.
//!
//! Best-bound-first search over LP relaxations from [`crate::simplex`], with
//! most-fractional branching, an LP-rounding incumbent heuristic, optional
//! warm starts (the FMSSM "Optimal" baseline is warm-started with the PM
//! heuristic's solution so its reported objective never falls below PM), and
//! wall-clock/node limits.

use crate::model::{Model, Solution, Var};
use crate::simplex::{LpContext, LpOutcome, SimplexOptions};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Termination status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// The incumbent is optimal (within the configured gap).
    Optimal,
    /// A feasible incumbent exists but optimality was not proven before a
    /// limit was hit.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// A limit was hit before any feasible solution was found. Mirrors the
    /// paper's observation that the optimal solver "may not always generate
    /// a feasible solution" on hard instances.
    NoSolutionFound,
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpResult {
    /// Termination status.
    pub status: MilpStatus,
    /// Best feasible solution found, if any.
    pub solution: Option<Solution>,
    /// Best proven upper bound on the objective (maximization orientation).
    pub best_bound: f64,
    /// Number of branch-and-bound nodes whose LP was solved.
    pub nodes_explored: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl MilpResult {
    /// Relative optimality gap `(bound − incumbent) / max(1, |incumbent|)`,
    /// or `f64::INFINITY` when no incumbent exists.
    pub fn gap(&self) -> f64 {
        match &self.solution {
            Some(s) => ((self.best_bound - s.objective) / s.objective.abs().max(1.0)).max(0.0),
            None => f64::INFINITY,
        }
    }
}

/// A primal heuristic invoked on every node's (fractional) LP solution: it
/// may return a candidate integral assignment, which the solver validates
/// and adopts if it beats the incumbent. Lets callers plug in
/// problem-specific rounding (the FMSSM solver rounds the switch-mapping
/// variables and greedily re-packs the rest).
pub type Polisher = std::sync::Arc<dyn Fn(&[f64]) -> Option<Vec<f64>> + Send + Sync>;

/// Configurable branch-and-bound solver.
///
/// # Example
///
/// ```
/// use pm_milp::{Model, Sense, MilpSolver, MilpStatus};
///
/// let mut m = Model::new();
/// let x = m.add_binary("x");
/// let y = m.add_binary("y");
/// m.add_constraint([(x, 2.0), (y, 2.0)], Sense::Le, 3.0);
/// m.maximize([(x, 1.0), (y, 1.0)]);
/// let r = MilpSolver::new().solve(&m);
/// assert_eq!(r.status, MilpStatus::Optimal);
/// assert!((r.solution.unwrap().objective - 1.0).abs() < 1e-6);
/// ```
#[derive(Clone)]
pub struct MilpSolver {
    time_limit: Option<Duration>,
    node_limit: usize,
    gap: f64,
    int_tol: f64,
    warm_start: Option<Vec<f64>>,
    simplex: SimplexOptions,
    branch_priority_cutoff: Option<usize>,
    polisher: Option<Polisher>,
    use_presolve: bool,
}

impl std::fmt::Debug for MilpSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MilpSolver")
            .field("time_limit", &self.time_limit)
            .field("node_limit", &self.node_limit)
            .field("gap", &self.gap)
            .field("int_tol", &self.int_tol)
            .field("warm_start", &self.warm_start.as_ref().map(Vec::len))
            .field("branch_priority_cutoff", &self.branch_priority_cutoff)
            .field("polisher", &self.polisher.is_some())
            .finish()
    }
}

impl Default for MilpSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl MilpSolver {
    /// Creates a solver with no limits and a 10⁻⁶ integrality tolerance.
    pub fn new() -> Self {
        MilpSolver {
            time_limit: None,
            node_limit: 0,
            gap: 1e-9,
            int_tol: 1e-6,
            warm_start: None,
            simplex: SimplexOptions::default(),
            branch_priority_cutoff: None,
            polisher: None,
            use_presolve: false,
        }
    }

    /// Runs [`crate::presolve::presolve`] before branch and bound: fixed variables are
    /// substituted out and singleton rows become bounds; the returned
    /// solution is lifted back to the original variable space (objectives
    /// are always reported in original space). The polisher and warm start,
    /// if any, still operate on the *original* space and are translated
    /// automatically.
    pub fn with_presolve(mut self) -> Self {
        self.use_presolve = true;
        self
    }

    /// Prefers branching on fractional integer variables with index below
    /// `cutoff`; only when all of those are integral does the solver branch
    /// on later variables. Use for "structural first" branching (e.g. the
    /// FMSSM switch-mapping variables before the per-flow mode variables).
    pub fn branch_priority_below(mut self, cutoff: usize) -> Self {
        self.branch_priority_cutoff = Some(cutoff);
        self
    }

    /// Installs a primal heuristic; see [`Polisher`].
    pub fn polisher(mut self, polisher: Polisher) -> Self {
        self.polisher = Some(polisher);
        self
    }

    /// Stops the search after `limit` of wall-clock time, returning the best
    /// incumbent (status [`MilpStatus::Feasible`]) if one exists.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Stops the search after exploring `nodes` nodes (0 = unlimited).
    pub fn node_limit(mut self, nodes: usize) -> Self {
        self.node_limit = nodes;
        self
    }

    /// Accepts incumbents within this relative gap of the best bound as
    /// optimal.
    pub fn gap(mut self, gap: f64) -> Self {
        self.gap = gap.max(0.0);
        self
    }

    /// Provides an initial feasible solution (checked before use). The
    /// search starts with this incumbent, so the result is never worse.
    pub fn warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm_start = Some(values);
        self
    }

    /// Overrides the LP sub-solver options.
    pub fn simplex_options(mut self, opts: SimplexOptions) -> Self {
        self.simplex = opts;
        self
    }

    /// Solves `model` to optimality or until a limit is reached.
    ///
    /// # Panics
    ///
    /// Panics if the model has no objective.
    pub fn solve(&self, model: &Model) -> MilpResult {
        if self.use_presolve {
            return self.solve_with_presolve(model);
        }
        self.solve_direct(model)
    }

    fn solve_with_presolve(&self, model: &Model) -> MilpResult {
        let start = Instant::now();
        let presolved = {
            let _span = pm_obs::span("milp.presolve");
            crate::presolve::presolve(model)
        };
        if pm_obs::enabled() {
            if let crate::presolve::Presolved::Reduced(r) = &presolved {
                pm_obs::count("milp.presolve.eliminated_vars", r.eliminated_vars() as u64);
                pm_obs::count(
                    "milp.presolve.eliminated_rows",
                    (model.constraint_count() - r.model.constraint_count()) as u64,
                );
            }
        }
        match presolved {
            crate::presolve::Presolved::Infeasible => MilpResult {
                status: MilpStatus::Infeasible,
                solution: None,
                best_bound: f64::NEG_INFINITY,
                nodes_explored: 0,
                elapsed: start.elapsed(),
            },
            crate::presolve::Presolved::Reduced(r) => {
                // Translate the warm start into the reduced space (drop it
                // if it disagrees with a presolve fixing).
                let mut inner = self.clone();
                inner.use_presolve = false;
                if let Some(ws) = &self.warm_start {
                    let mut reduced_ws = vec![0.0; r.model.var_count()];
                    let lifted_template = r.lift(&reduced_ws);
                    let mut ok = ws.len() == lifted_template.len();
                    if ok {
                        for (i, &v) in ws.iter().enumerate() {
                            match r.variable_mapping(i) {
                                Ok(j) => reduced_ws[j] = v,
                                Err(fixed) => ok &= (v - fixed).abs() < 1e-6,
                            }
                        }
                    }
                    inner.warm_start = ok.then_some(reduced_ws);
                }
                // The polisher works in original space; wrap it.
                if let Some(polish) = &self.polisher {
                    let polish = polish.clone();
                    let lifter = r.clone();
                    inner.polisher = Some(std::sync::Arc::new(move |reduced_vals: &[f64]| {
                        let original = lifter.lift(reduced_vals);
                        let candidate = polish(&original)?;
                        lifter.project(&candidate)
                    }));
                }
                let mut result = inner.solve_direct(&r.model);
                if let Some(sol) = result.solution.take() {
                    let values = r.lift(&sol.values);
                    let objective = model.objective_value(&values);
                    // Shift the bound by the same fixed-variable offset.
                    let offset = objective - r.model.objective_value(&sol.values);
                    result.best_bound += offset;
                    result.solution = Some(Solution { objective, values });
                }
                result.elapsed = start.elapsed();
                result
            }
        }
    }

    fn solve_direct(&self, model: &Model) -> MilpResult {
        let _bnb_span = pm_obs::span("milp.bnb");
        let start = Instant::now();
        let n = model.var_count();
        let mut base_lb = Vec::with_capacity(n);
        let mut base_ub = Vec::with_capacity(n);
        for i in 0..n {
            let (l, u) = model.bounds(Var(i));
            base_lb.push(l);
            base_ub.push(u);
        }
        let int_vars: Vec<usize> = model.integral_vars().map(|v| v.index()).collect();
        // One LP context for the whole node tree: its sparse columns and
        // solver buffers are built once. It offers each solve the previous
        // node's final basis, but that basis rarely survives: the branched
        // variable is basic at a fractional value in the parent's optimum,
        // so the child's new bound leaves the parent basis primal-infeasible
        // (`milp.basis.reuse_hits` stays 0 on the `optimal-14` benchmark
        // pool). The context screens such bases out in O(m²) instead of
        // refactorizing them.
        let mut lp_ctx = LpContext::new(model);
        let mut lb = base_lb.clone();
        let mut ub = base_ub.clone();

        let mut incumbent: Option<Solution> = None;
        let mut incumbents_found = 0u64;
        if let Some(ws) = &self.warm_start {
            if model.is_feasible(ws, self.int_tol * 10.0) {
                incumbent = Some(Solution {
                    objective: model.objective_value(ws),
                    values: ws.clone(),
                });
                incumbents_found += 1;
            }
        }

        // Root node.
        let root = Node {
            fixes: Vec::new(),
            bound: f64::INFINITY,
            id: 0,
        };
        let mut heap: BinaryHeap<Node> = BinaryHeap::new();
        heap.push(root);
        let mut next_id = 1u64;
        let mut nodes_explored = 0usize;
        let mut root_unbounded = false;
        let mut limit_hit = false;
        // Highest bound among pruned-by-limit subtrees, to keep best_bound
        // honest when we stop early.
        let mut open_bound_floor = f64::NEG_INFINITY;

        while let Some(node) = heap.pop() {
            if let Some(inc) = &incumbent {
                // Global bound test: heap is ordered by bound, so if the top
                // node cannot improve the incumbent we are done.
                if node.bound <= inc.objective + gap_slack(self.gap, inc.objective) {
                    break;
                }
            }
            if self.limits_exceeded(start, nodes_explored) {
                limit_hit = true;
                open_bound_floor = open_bound_floor.max(node.bound);
                for rest in heap.iter() {
                    open_bound_floor = open_bound_floor.max(rest.bound);
                }
                break;
            }

            // Apply this node's bound fixes.
            lb.copy_from_slice(&base_lb);
            ub.copy_from_slice(&base_ub);
            for &(v, l, u) in &node.fixes {
                lb[v] = lb[v].max(l);
                ub[v] = ub[v].min(u);
            }

            nodes_explored += 1;
            let lp_start = pm_obs::enabled().then(Instant::now);
            let outcome = lp_ctx.solve_with_bounds(&lb, &ub, &self.simplex);
            if let Some(t0) = lp_start {
                pm_obs::observe(
                    "milp.node_lp_ns",
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
            let lp = match outcome {
                LpOutcome::Optimal(s) => s,
                LpOutcome::Infeasible => continue,
                LpOutcome::Unbounded => {
                    if node.fixes.is_empty() {
                        root_unbounded = true;
                        break;
                    }
                    continue;
                }
                LpOutcome::IterationLimit => continue, // drop node: cannot certify
            };

            if let Some(inc) = &incumbent {
                if lp.objective <= inc.objective + gap_slack(self.gap, inc.objective) {
                    continue; // pruned by bound
                }
            }

            // Find the most fractional integer variable, restricted to the
            // priority class when one is configured and has candidates.
            let cutoff = self.branch_priority_cutoff.unwrap_or(usize::MAX);
            let mut branch_var: Option<(usize, f64)> = None; // (var, dist to .5)
            let mut in_priority = false;
            for &v in &int_vars {
                let x = lp.values[v];
                let frac = (x - x.round()).abs();
                if frac > self.int_tol {
                    let priority = v < cutoff;
                    if in_priority && !priority {
                        continue;
                    }
                    let dist_to_half = (x - x.floor() - 0.5).abs();
                    let better = (priority && !in_priority)
                        || branch_var.map_or(true, |(_, d)| dist_to_half < d);
                    if better {
                        branch_var = Some((v, dist_to_half));
                        in_priority = priority;
                    }
                }
            }

            match branch_var {
                None => {
                    // Integral: candidate incumbent (snap to exact integers).
                    let mut values = lp.values.clone();
                    for &v in &int_vars {
                        values[v] = values[v].round();
                    }
                    let obj = model.objective_value(&values);
                    if model.is_feasible(&values, self.int_tol * 10.0)
                        && incumbent.as_ref().map_or(true, |inc| obj > inc.objective)
                    {
                        incumbent = Some(Solution {
                            objective: obj,
                            values,
                        });
                        incumbents_found += 1;
                    }
                }
                Some((v, _)) => {
                    // Primal heuristics on the fractional LP point: the
                    // caller's polisher first, then naive rounding.
                    if let Some(polish) = &self.polisher {
                        if let Some(candidate) = polish(&lp.values) {
                            if candidate.len() == model.var_count()
                                && model.is_feasible(&candidate, self.int_tol * 10.0)
                            {
                                let obj = model.objective_value(&candidate);
                                if incumbent.as_ref().map_or(true, |inc| obj > inc.objective) {
                                    incumbent = Some(Solution {
                                        objective: obj,
                                        values: candidate,
                                    });
                                    incumbents_found += 1;
                                }
                            }
                        }
                    }
                    if incumbent.is_none() {
                        let mut rounded = lp.values.clone();
                        for &iv in &int_vars {
                            rounded[iv] = rounded[iv].round();
                        }
                        if model.is_feasible(&rounded, self.int_tol * 10.0) {
                            let obj = model.objective_value(&rounded);
                            incumbent = Some(Solution {
                                objective: obj,
                                values: rounded,
                            });
                            incumbents_found += 1;
                        }
                    }
                    let x = lp.values[v];
                    let mut down = node.fixes.clone();
                    down.push((v, f64::NEG_INFINITY, x.floor()));
                    let mut up = node.fixes.clone();
                    up.push((v, x.ceil(), f64::INFINITY));
                    heap.push(Node {
                        fixes: down,
                        bound: lp.objective,
                        id: next_id,
                    });
                    heap.push(Node {
                        fixes: up,
                        bound: lp.objective,
                        id: next_id + 1,
                    });
                    next_id += 2;
                }
            }
        }

        let elapsed = start.elapsed();
        if pm_obs::enabled() {
            pm_obs::count("milp.bnb.solves", 1);
            pm_obs::count("milp.bnb.nodes", nodes_explored as u64);
            pm_obs::count("milp.bnb.incumbents", incumbents_found);
        }
        if root_unbounded {
            return MilpResult {
                status: MilpStatus::Unbounded,
                solution: None,
                best_bound: f64::INFINITY,
                nodes_explored,
                elapsed,
            };
        }
        let (status, best_bound) = match (&incumbent, limit_hit) {
            (Some(inc), false) => (MilpStatus::Optimal, inc.objective),
            (Some(inc), true) => (MilpStatus::Feasible, open_bound_floor.max(inc.objective)),
            (None, false) => (MilpStatus::Infeasible, f64::NEG_INFINITY),
            (None, true) => (MilpStatus::NoSolutionFound, open_bound_floor),
        };
        MilpResult {
            status,
            solution: incumbent,
            best_bound,
            nodes_explored,
            elapsed,
        }
    }

    fn limits_exceeded(&self, start: Instant, nodes: usize) -> bool {
        if self.node_limit > 0 && nodes >= self.node_limit {
            return true;
        }
        if let Some(tl) = self.time_limit {
            if start.elapsed() >= tl {
                return true;
            }
        }
        false
    }
}

fn gap_slack(gap: f64, incumbent_obj: f64) -> f64 {
    gap * incumbent_obj.abs().max(1.0)
}

/// A branch-and-bound node: sparse bound fixes plus the parent LP bound.
#[derive(Debug, Clone)]
struct Node {
    /// `(var index, extra lb, extra ub)` accumulated from the root.
    fixes: Vec<(usize, f64, f64)>,
    /// Parent's LP objective — an upper bound for this subtree.
    bound: f64,
    /// Creation sequence number for deterministic tie-breaking.
    id: u64,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.id == other.id
    }
}
impl Eq for Node {}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Best bound first; older nodes first among ties.
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sense, VarKind};

    #[test]
    fn knapsack_known_optimum() {
        // values (60, 100, 120), weights (10, 20, 30), capacity 50 => 220.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint([(a, 10.0), (b, 20.0), (c, 30.0)], Sense::Le, 50.0);
        m.maximize([(a, 60.0), (b, 100.0), (c, 120.0)]);
        let r = MilpSolver::new().solve(&m);
        assert_eq!(r.status, MilpStatus::Optimal);
        let s = r.solution.unwrap();
        assert!((s.objective - 220.0).abs() < 1e-6);
        assert!(s.value(a) < 0.5 && s.value(b) > 0.5 && s.value(c) > 0.5);
    }

    #[test]
    fn integer_rounding_is_not_lp_rounding() {
        // LP relaxation gives x = 3.75; IP optimum is x = 3 with y picking up
        // slack. Checks that branching actually happens.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Integer { lb: 0.0, ub: 10.0 });
        let y = m.add_var("y", VarKind::non_negative());
        m.add_constraint([(x, 4.0), (y, 1.0)], Sense::Le, 15.0);
        m.maximize([(x, 2.0), (y, 0.4)]);
        let r = MilpSolver::new().solve(&m);
        let s = r.solution.unwrap();
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
        assert!((s.objective - 7.2).abs() < 1e-6);
    }

    #[test]
    fn infeasible_ip() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        m.maximize([(x, 1.0)]);
        let r = MilpSolver::new().solve(&m);
        assert_eq!(r.status, MilpStatus::Infeasible);
        assert!(r.solution.is_none());
    }

    #[test]
    fn unbounded_ip() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::non_negative());
        m.maximize([(x, 1.0)]);
        let r = MilpSolver::new().solve(&m);
        assert_eq!(r.status, MilpStatus::Unbounded);
    }

    #[test]
    fn warm_start_survives_node_limit_zero_exploration() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        m.maximize([(x, 3.0), (y, 2.0)]);
        // Warm start with the suboptimal y=1.
        let r = MilpSolver::new()
            .node_limit(1)
            .warm_start(vec![0.0, 1.0])
            .solve(&m);
        let s = r.solution.expect("warm start must be kept");
        assert!(s.objective >= 2.0 - 1e-9);
    }

    #[test]
    fn infeasible_warm_start_is_rejected() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.add_constraint([(x, 1.0)], Sense::Le, 0.0);
        m.maximize([(x, 1.0)]);
        let r = MilpSolver::new().warm_start(vec![1.0]).solve(&m);
        let s = r.solution.unwrap();
        assert!(
            (s.objective - 0.0).abs() < 1e-9,
            "must not keep infeasible warm start"
        );
    }

    #[test]
    fn time_limit_returns_quickly() {
        // A 20-item knapsack with correlated weights is slow enough to hit a
        // zero time limit but must still return (Feasible or NoSolutionFound).
        let mut m = Model::new();
        let vars: Vec<_> = (0..20).map(|i| m.add_binary(format!("x{i}"))).collect();
        let weights: Vec<f64> = (0..20).map(|i| 7.0 + ((i * 13) % 11) as f64).collect();
        let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
        m.add_constraint(terms.clone(), Sense::Le, 80.0);
        let obj: Vec<_> = vars
            .iter()
            .zip(&weights)
            .map(|(&v, &w)| (v, w + 0.1))
            .collect();
        m.maximize(obj);
        let r = MilpSolver::new()
            .time_limit(Duration::from_millis(0))
            .solve(&m);
        assert!(matches!(
            r.status,
            MilpStatus::Feasible | MilpStatus::NoSolutionFound
        ));
    }

    #[test]
    fn pure_lp_model_passes_through() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 2.5 });
        m.maximize([(x, 2.0)]);
        let r = MilpSolver::new().solve(&m);
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.solution.unwrap().objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn assignment_problem_is_integral() {
        // 3×3 assignment: LP relaxation is already integral (totally
        // unimodular), so this should solve in one node.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut m = Model::new();
        let mut x = Vec::new();
        for i in 0..3 {
            let mut row = Vec::new();
            for j in 0..3 {
                row.push(m.add_binary(format!("x{i}{j}")));
            }
            x.push(row);
        }
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            m.add_constraint((0..3).map(|j| (x[i][j], 1.0)), Sense::Eq, 1.0);
            m.add_constraint((0..3).map(|j| (x[j][i], 1.0)), Sense::Eq, 1.0);
        }
        let mut obj = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                obj.push((x[i][j], -cost[i][j]));
            }
        }
        m.maximize(obj); // minimize cost
        let r = MilpSolver::new().solve(&m);
        assert_eq!(r.status, MilpStatus::Optimal);
        // Optimal assignment cost is 1 + 2 + 2 = 5 (x01, x10, x22).
        assert!((r.solution.unwrap().objective + 5.0).abs() < 1e-6);
    }

    #[test]
    fn gap_reported() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.maximize([(x, 1.0)]);
        let r = MilpSolver::new().solve(&m);
        assert!(r.gap() < 1e-6);
    }

    #[test]
    fn equality_constrained_ip() {
        // x + y + z = 2 over binaries, maximize x + 2y + 3z => y = z = 1.
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Eq, 2.0);
        m.maximize([(x, 1.0), (y, 2.0), (z, 3.0)]);
        let r = MilpSolver::new().solve(&m);
        let s = r.solution.unwrap();
        assert!((s.objective - 5.0).abs() < 1e-6);
    }
}
