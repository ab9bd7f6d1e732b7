//! The exact FMSSM solver — the paper's "Optimal" baseline.
//!
//! Builds the linearized integer program P′ (Section IV-E) and solves it
//! with [`pm_milp`]'s branch and bound, warm-started with the PM heuristic's
//! solution so the reported objective never falls below PM (the role GUROBI
//! plays in the paper). Like the paper's solver runs, the search is bounded
//! by a wall-clock limit; [`OptimalOutcome::proved_optimal`] distinguishes
//! proven optima from best-effort incumbents — the paper's Fig. 6 likewise
//! reports Optimal in only 12 of 20 three-failure cases.
//!
//! Instead of materializing the paper's `y_i^l` variables, we substitute
//! `y_i^l = Σ_j ω_ij^l` (valid because Eq. (2) allows at most one controller
//! per switch), which shrinks the program without changing its optimum. The
//! `ω ≤ x` linking (Eqs. (9)–(11)) comes in two selectable flavours:
//! per-pair rows ([`LinkingStyle::Exact`], tighter LP relaxation) or
//! aggregated big-M rows ([`LinkingStyle::Aggregated`], `N·M` rows instead
//! of `E·M`, much faster node solves — the default).

// Dense-tableau code indexes parallel arrays; iterator-chains obscure it.
#![allow(clippy::needless_range_loop)]

use crate::heuristic::Pm;
use crate::instance::FmssmInstance;
use crate::{PmError, RecoveryAlgorithm};
use pm_milp::{MilpResult, MilpSolver, MilpStatus, Model, Sense, Var, VarKind};
use pm_sdwan::RecoveryPlan;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// How the `ω_ij^l ≤ x_ij` linking constraints are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkingStyle {
    /// One row per `(entry, controller)` pair — the literal Eqs. (9)–(11).
    /// Tighter LP bound, much larger tableau.
    Exact,
    /// One aggregated row per `(switch, controller)`:
    /// `Σ_l ω_ij^l ≤ |entries(i)| · x_ij`. Equivalent for integral `x`,
    /// weaker LP bound, dramatically smaller tableau.
    #[default]
    Aggregated,
}

/// How Eq. (14)'s propagation-delay budget is applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayBound {
    /// The literal Eq. (14): total delay ≤ `G` (Eq. (6)).
    IdealG,
    /// Total delay ≤ `κ·G`. In the paper's instance the bound is slack
    /// enough that Optimal still recovers 100 % of flows (Fig. 5(c)); in
    /// our ATT-like instance the surviving spare capacity sits farther
    /// from the failed domains, so the literal bound is severely binding
    /// and would make "Optimal" recover *fewer* flows than PM — inverting
    /// the paper's shape. κ = 3 restores the paper's regime (present but
    /// non-strangling); see EXPERIMENTS.md.
    Scaled(f64),
    /// Drop Eq. (14) entirely (ablation).
    Unbounded,
}

impl DelayBound {
    /// The right-hand side this bound allows, given the instance's `G`.
    pub fn budget(&self, g: f64) -> f64 {
        match *self {
            DelayBound::IdealG => g,
            DelayBound::Scaled(k) => k * g,
            DelayBound::Unbounded => f64::INFINITY,
        }
    }
}

/// Configuration of the exact solver.
#[derive(Debug, Clone)]
pub struct Optimal {
    time_limit: Duration,
    linking: LinkingStyle,
    delay_bound: DelayBound,
    lambda_override: Option<f64>,
}

impl Default for Optimal {
    fn default() -> Self {
        Optimal {
            time_limit: Duration::from_secs(30),
            linking: LinkingStyle::default(),
            delay_bound: DelayBound::Scaled(3.0),
            lambda_override: None,
        }
    }
}

/// Full result of an exact solve, including proof status and search
/// statistics (used by the Fig. 7 computation-time benchmark).
#[derive(Debug, Clone)]
pub struct OptimalOutcome {
    /// The best plan found.
    pub plan: RecoveryPlan,
    /// Solver status.
    pub status: MilpStatus,
    /// Objective value of the plan (`r + λ·Σ pro`).
    pub objective: f64,
    /// Best proven upper bound.
    pub best_bound: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Wall-clock solve time.
    pub elapsed: Duration,
}

impl OptimalOutcome {
    /// `true` if the solver proved optimality within the time limit — the
    /// cases the paper would plot an "Optimal" bar for.
    pub fn proved_optimal(&self) -> bool {
        self.status == MilpStatus::Optimal
    }
}

impl Optimal {
    /// Exact solver with the default 30 s time limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the wall-clock time limit.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Selects the linking-constraint encoding.
    pub fn linking(mut self, style: LinkingStyle) -> Self {
        self.linking = style;
        self
    }

    /// Selects how Eq. (14)'s delay budget is applied.
    pub fn delay_bound(mut self, bound: DelayBound) -> Self {
        self.delay_bound = bound;
        self
    }

    /// Overrides the objective weight λ (default: the lexicographic value
    /// from [`FmssmInstance::lambda`]). For the λ-sensitivity ablation:
    /// large λ makes the combined objective favour total programmability
    /// over balance, losing the two-stage equivalence the paper relies on.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda_override = Some(lambda);
        self
    }

    /// Renders the FMSSM program P′ for this instance in CPLEX LP format,
    /// for cross-checking with an external solver (GUROBI/CPLEX/HiGHS/SCIP
    /// — the role GUROBI plays in the paper).
    pub fn export_lp(&self, inst: &FmssmInstance<'_, '_>) -> String {
        let budget = self.delay_bound.budget(inst.ideal_delay_g());
        let objective =
            ModelObjective::Combined(self.lambda_override.unwrap_or_else(|| inst.lambda()));
        let built = build_model(inst, self.linking, budget, objective);
        pm_milp::to_lp_string(&built.model)
    }

    /// Builds and solves P′, returning the full outcome.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::NoSolution`] if the solver stops with no feasible
    /// incumbent (cannot happen: PM's plan seeds the search, mirroring the
    /// fact that PM "always has a result").
    pub fn solve_detailed(&self, inst: &FmssmInstance<'_, '_>) -> Result<OptimalOutcome, PmError> {
        self.solve_detailed_with_hint(inst, None)
    }

    /// Like [`Optimal::solve_detailed`], additionally offering `hint` — a
    /// plan from a neighboring case of an incremental sweep — as a warm
    /// start. The hint competes with the PM warm start: each candidate plan
    /// is re-encoded against *this* instance (entries referencing
    /// now-online switches or failed controllers are re-packed greedily)
    /// and the one with the better model objective seeds branch-and-bound.
    /// A useless hint therefore never degrades the incumbent below the
    /// PM-seeded baseline.
    ///
    /// # Errors
    ///
    /// As for [`Optimal::solve_detailed`].
    pub fn solve_detailed_with_hint(
        &self,
        inst: &FmssmInstance<'_, '_>,
        hint: Option<&RecoveryPlan>,
    ) -> Result<OptimalOutcome, PmError> {
        let _recover_span = pm_obs::span("optimal.solve_detailed");
        let budget = self.delay_bound.budget(inst.ideal_delay_g());
        let objective =
            ModelObjective::Combined(self.lambda_override.unwrap_or_else(|| inst.lambda()));
        let build_span = pm_obs::span("optimal.build_model");
        let built = build_model(inst, self.linking, budget, objective);
        drop(build_span);
        if pm_obs::enabled() {
            pm_obs::count("optimal.model.vars", built.model.var_count() as u64);
            pm_obs::count(
                "optimal.model.constraints",
                built.model.constraint_count() as u64,
            );
        }
        let n = inst.switches().len();
        let m = inst.controllers().len();
        let mut solver = MilpSolver::new()
            .time_limit(self.time_limit)
            // Decide the switch-mapping variables before per-flow modes.
            .branch_priority_below(n * m);
        {
            let warm_span = pm_obs::span("optimal.warm_start");
            let mut best: Option<Vec<f64>> = None;
            let mut best_obj = f64::NEG_INFINITY;
            let mut offer = |values: Option<Vec<f64>>| {
                if let Some(values) = values {
                    let obj = built.model.objective_value(&values);
                    if best.is_none() || obj > best_obj {
                        best_obj = obj;
                        best = Some(values);
                    }
                }
            };
            let pm_plan = Pm::new().recover(inst)?;
            offer(built.warm_start_values(inst, &pm_plan, budget));
            if let Some(hint) = hint {
                offer(built.warm_start_values(inst, hint, budget));
            }
            if let Some(values) = best {
                solver = solver.warm_start(values);
            }
            drop(warm_span);
        }
        // Primal heuristic: derive candidate switch mappings (LP rounding
        // and nearest-controller), improve the best by one pass of local
        // search over single-switch remaps, and greedily re-pack flow modes
        // (balanced, capacity- and delay-feasible) under each.
        {
            let built_for_polish = build_model(inst, self.linking, budget, objective);
            let inst_data = PolishData::capture(inst, budget);
            solver = solver.polisher(std::sync::Arc::new(move |lp_values: &[f64]| {
                let lp_map = inst_data.mapping_from_lp(lp_values, &built_for_polish);
                Some(built_for_polish.best_greedy(&inst_data, lp_map))
            }));
        }
        let _solve_span = pm_obs::span("optimal.solve");
        let result: MilpResult = solver.solve(&built.model);
        let solution = result
            .solution
            .as_ref()
            .ok_or_else(|| PmError::NoSolution {
                reason: format!("solver stopped with status {:?}", result.status),
            })?;
        let plan = built.extract_plan(inst, &solution.values);
        Ok(OptimalOutcome {
            plan,
            status: result.status,
            objective: solution.objective,
            best_bound: result.best_bound,
            nodes: result.nodes_explored,
            elapsed: result.elapsed,
        })
    }
}

impl RecoveryAlgorithm for Optimal {
    fn name(&self) -> &'static str {
        "Optimal"
    }

    fn recover(&self, inst: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError> {
        Ok(self.solve_detailed(inst)?.plan)
    }
}

/// Dense `(switch position, flow position) → entry index` lookup: a flat
/// row-major table over the instance's position space, with `usize::MAX`
/// marking absent pairs.
pub(crate) struct EntryIndex {
    flows: usize,
    cells: Vec<usize>,
}

impl EntryIndex {
    fn new(switches: usize, flows: usize) -> Self {
        EntryIndex {
            flows,
            cells: vec![usize::MAX; switches * flows],
        }
    }

    fn insert(&mut self, ip: usize, lp: usize, k: usize) {
        self.cells[ip * self.flows + lp] = k;
    }

    fn get(&self, ip: usize, lp: usize) -> Option<usize> {
        match self.cells.get(ip * self.flows + lp) {
            Some(&k) if k != usize::MAX => Some(k),
            _ => None,
        }
    }

    /// Entry index of a pair known to exist (instance entries only).
    fn at(&self, ip: usize, lp: usize) -> usize {
        self.cells[ip * self.flows + lp]
    }
}

/// The assembled model plus the variable layout needed to map solutions
/// back to plans.
pub(crate) struct BuiltModel {
    pub(crate) model: Model,
    /// `x[ip][jp]` variables.
    x: Vec<Vec<Var>>,
    /// One `(ip, lp, pbar)` record per entry, in flow-major order.
    entries: Vec<(usize, usize, u32)>,
    /// `ω[k][jp]` variables, aligned with `entries`.
    omega: Vec<Vec<Var>>,
    /// Dense lookup from `(ip, lp)` to entry index.
    entry_index: EntryIndex,
    /// The `r` variable.
    r: Var,
}

/// Which objective the model optimizes (the paper's two formulation
/// options: combined weighted objective, or the two-stage split).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ModelObjective {
    /// `max r + λ·Σ pro` (problem P′, the paper's chosen option).
    Combined(f64),
    /// `max r` (stage 1 of the two-stage option).
    MinOnly,
    /// `max Σ pro` subject to `r ≥ floor` (stage 2).
    TotalWithFloor(f64),
}

pub(crate) fn build_model(
    inst: &FmssmInstance<'_, '_>,
    linking: LinkingStyle,
    delay_budget: f64,
    objective: ModelObjective,
) -> BuiltModel {
    let n = inst.switches().len();
    let m = inst.controllers().len();
    let mut model = Model::new();

    let x: Vec<Vec<Var>> = (0..n)
        .map(|ip| {
            (0..m)
                .map(|jp| model.add_binary(format!("x_{ip}_{jp}")))
                .collect()
        })
        .collect();

    let mut entries = Vec::new();
    let mut entry_index = EntryIndex::new(n, inst.flows().len());
    for lp in 0..inst.flows().len() {
        for &(ip, pbar) in inst.flow_entries(lp) {
            entry_index.insert(ip, lp, entries.len());
            entries.push((ip, lp, pbar));
        }
    }
    let omega: Vec<Vec<Var>> = entries
        .iter()
        .enumerate()
        .map(|(k, _)| {
            (0..m)
                .map(|jp| model.add_binary(format!("w_{k}_{jp}")))
                .collect()
        })
        .collect();

    // r's ceiling: no flow can exceed the sum of its entries, so the
    // minimum cannot exceed the smallest such sum over recoverable flows.
    let r_ub = (0..inst.flows().len())
        .filter(|&lp| !inst.flow_entries(lp).is_empty())
        .map(|lp| {
            inst.flow_entries(lp)
                .iter()
                .map(|&(_, p)| p as f64)
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min);
    let r_ub = if r_ub.is_finite() { r_ub } else { 0.0 };
    let r = model.add_var("r", VarKind::Continuous { lb: 0.0, ub: r_ub });

    // Eq. (2): each switch maps to at most one controller.
    for row in x.iter().take(n) {
        model.add_constraint((0..m).map(|jp| (row[jp], 1.0)), Sense::Le, 1.0);
    }

    // Eqs. (9)–(11) with y eliminated: ω may be 1 only where x is.
    match linking {
        LinkingStyle::Exact => {
            for (k, &(ip, _, _)) in entries.iter().enumerate() {
                for jp in 0..m {
                    model.add_constraint([(omega[k][jp], 1.0), (x[ip][jp], -1.0)], Sense::Le, 0.0);
                }
            }
        }
        LinkingStyle::Aggregated => {
            let mut per_switch: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (k, &(ip, _, _)) in entries.iter().enumerate() {
                per_switch[ip].push(k);
            }
            for ip in 0..n {
                if per_switch[ip].is_empty() {
                    continue;
                }
                let big_m = per_switch[ip].len() as f64;
                for jp in 0..m {
                    let mut terms: Vec<(Var, f64)> = per_switch[ip]
                        .iter()
                        .map(|&k| (omega[k][jp], 1.0))
                        .collect();
                    terms.push((x[ip][jp], -big_m));
                    model.add_constraint(terms, Sense::Le, 0.0);
                }
            }
        }
    }

    // Eq. (12): controller capacity.
    for jp in 0..m {
        model.add_constraint(
            (0..entries.len()).map(|k| (omega[k][jp], 1.0)),
            Sense::Le,
            inst.residuals()[jp] as f64,
        );
    }

    // Eq. (13): per recoverable flow, Σ p̄·ω ≥ r. (Unrecoverable flows are
    // excluded — including them would pin r at 0; see the σ discussion in
    // the heuristic module.)
    for lp in 0..inst.flows().len() {
        if inst.flow_entries(lp).is_empty() {
            continue;
        }
        let mut terms: Vec<(Var, f64)> = inst
            .flow_entries(lp)
            .iter()
            .flat_map(|&(ip, pbar)| {
                let k = entry_index.at(ip, lp);
                (0..m).map(move |jp| (k, jp, pbar))
            })
            .map(|(k, jp, pbar)| (omega[k][jp], pbar as f64))
            .collect();
        terms.push((r, -1.0));
        model.add_constraint(terms, Sense::Ge, 0.0);
    }

    // Eq. (14): total propagation delay within the configured budget
    // (skipped entirely for an unbounded budget — the Model requires
    // finite right-hand sides).
    if delay_budget.is_finite() {
        let mut delay_terms: Vec<(Var, f64)> = Vec::with_capacity(entries.len() * m);
        for (k, &(ip, _, _)) in entries.iter().enumerate() {
            for jp in 0..m {
                delay_terms.push((omega[k][jp], inst.delay(ip, jp)));
            }
        }
        model.add_constraint(delay_terms, Sense::Le, delay_budget);
    }

    // Objective (and, for stage 2, the r floor).
    let mut obj: Vec<(Var, f64)> = Vec::new();
    match objective {
        ModelObjective::Combined(lambda) => {
            obj.push((r, 1.0));
            for (k, &(_, _, pbar)) in entries.iter().enumerate() {
                for jp in 0..m {
                    obj.push((omega[k][jp], lambda * pbar as f64));
                }
            }
        }
        ModelObjective::MinOnly => obj.push((r, 1.0)),
        ModelObjective::TotalWithFloor(floor) => {
            model.add_constraint([(r, 1.0)], Sense::Ge, floor.min(r_ub));
            for (k, &(_, _, pbar)) in entries.iter().enumerate() {
                for jp in 0..m {
                    obj.push((omega[k][jp], pbar as f64));
                }
            }
        }
    }
    model.maximize(obj);

    BuiltModel {
        model,
        x,
        entries,
        omega,
        entry_index,
        r,
    }
}

/// An owned snapshot of the instance data the primal heuristic needs (the
/// polisher closure must be `'static`, so it cannot borrow the instance).
pub(crate) struct PolishData {
    n: usize,
    m: usize,
    residuals: Vec<u32>,
    /// `delay[ip][jp]`.
    delay: Vec<Vec<f64>>,
    /// Nearest controller position per switch.
    nearest: Vec<usize>,
    /// Every flow's `(ip, pbar)` entries, flow after flow; flow `lp`'s are
    /// `entries[flow_start[lp]..flow_start[lp + 1]]`.
    entries: Vec<(usize, u32)>,
    flow_start: Vec<usize>,
    g: f64,
}

impl PolishData {
    fn capture(inst: &FmssmInstance<'_, '_>, delay_budget: f64) -> Self {
        let n = inst.switches().len();
        let m = inst.controllers().len();
        let mut entries = Vec::new();
        let mut flow_start = vec![0];
        for lp in 0..inst.flows().len() {
            entries.extend_from_slice(inst.flow_entries(lp));
            flow_start.push(entries.len());
        }
        PolishData {
            n,
            m,
            residuals: inst.residuals().to_vec(),
            delay: (0..n)
                .map(|ip| (0..m).map(|jp| inst.delay(ip, jp)).collect())
                .collect(),
            nearest: (0..n)
                .map(|ip| inst.controllers_by_delay(ip).next().expect("m > 0"))
                .collect(),
            entries,
            flow_start,
            g: delay_budget,
        }
    }

    /// Rounds the LP's `x` block to a full switch → controller mapping:
    /// the controller with the largest LP weight, or the nearest one when
    /// the LP left the switch unmapped.
    fn mapping_from_lp(&self, lp_values: &[f64], built: &BuiltModel) -> Vec<usize> {
        (0..self.n)
            .map(|ip| {
                let mut best = self.nearest[ip];
                let mut best_w = 1e-6;
                for jp in 0..self.m {
                    let w = lp_values[built.x[ip][jp].index()];
                    if w > best_w {
                        best_w = w;
                        best = jp;
                    }
                }
                best
            })
            .collect()
    }
}

impl BuiltModel {
    /// Encodes a switch-level plan as a variable assignment by reusing the
    /// plan's mapping and greedily re-packing flow modes under the delay
    /// bound (PM itself ignores Eq. (14), so its raw selections may not be
    /// feasible here). Returns `None` if the plan references ids outside
    /// the instance.
    pub(crate) fn warm_start_values(
        &self,
        inst: &FmssmInstance<'_, '_>,
        plan: &RecoveryPlan,
        delay_budget: f64,
    ) -> Option<Vec<f64>> {
        // First choice: PM's own selections verbatim — feasible whenever
        // PM's total delay fits the budget, and then the solver provably
        // never returns worse than PM.
        if let Some(values) = self.encode_plan(inst, plan) {
            if self.model.is_feasible(&values, 1e-6) {
                return Some(values);
            }
        }
        // Fallback (PM overshot the delay budget): keep PM's mapping but
        // re-pack flow modes greedily within the budget.
        let data = PolishData::capture(inst, delay_budget);
        let mut mapping = data.nearest.clone();
        for (s, c) in plan.mappings() {
            let ip = inst.switch_position(s)?;
            let jp = inst.controller_position(c)?;
            mapping[ip] = jp;
        }
        let values = self.greedy_values(&data, &mapping);
        debug_assert!(
            self.model.is_feasible(&values, 1e-6),
            "{:?}",
            self.model.violation(&values, 1e-6)
        );
        self.model.is_feasible(&values, 1e-6).then_some(values)
    }

    /// Encodes a plan's mapping and selections verbatim (r set to the
    /// plan's achieved minimum over recoverable flows). Returns `None` if
    /// the plan references ids outside the instance.
    fn encode_plan(&self, inst: &FmssmInstance<'_, '_>, plan: &RecoveryPlan) -> Option<Vec<f64>> {
        let mut values = vec![0.0; self.model.var_count()];
        for (s, c) in plan.mappings() {
            let ip = inst.switch_position(s)?;
            let jp = inst.controller_position(c)?;
            values[self.x[ip][jp].index()] = 1.0;
        }
        let mut per_flow = vec![0u64; inst.flows().len()];
        for (s, l, c) in plan.sdn_selections() {
            let ip = inst.switch_position(s)?;
            let lp = inst.flow_position(l)?;
            let jp = inst.controller_position(c)?;
            let k = self.entry_index.get(ip, lp)?;
            values[self.omega[k][jp].index()] = 1.0;
            per_flow[lp] += self.entries[k].2 as u64;
        }
        let r = (0..inst.flows().len())
            .filter(|&lp| !inst.flow_entries(lp).is_empty())
            .map(|lp| per_flow[lp])
            .min()
            .unwrap_or(0);
        values[self.r.index()] = r as f64;
        Some(values)
    }

    /// Runs the greedy under several candidate mappings — the given one,
    /// the all-nearest mapping — then improves the winner with one pass of
    /// single-switch remapping local search. Returns the best assignment
    /// found (by model objective).
    fn best_greedy(&self, d: &PolishData, seed: Vec<usize>) -> Vec<f64> {
        let score = |values: &Vec<f64>| self.model.objective_value(values);
        let mut best_map = seed;
        let mut best_vals = self.greedy_values(d, &best_map);
        let nearest_vals = self.greedy_values(d, &d.nearest);
        if score(&nearest_vals) > score(&best_vals) {
            best_vals = nearest_vals;
            best_map = d.nearest.clone();
        }
        // Local search over single-switch remaps, to a fixed point (at most
        // a few passes; each pass is N·M cheap greedy evaluations).
        for _pass in 0..4 {
            let mut improved = false;
            for ip in 0..d.n {
                let mut kept = best_map[ip];
                for jp in 0..d.m {
                    if jp == kept {
                        continue;
                    }
                    best_map[ip] = jp;
                    let vals = self.greedy_values(d, &best_map);
                    if score(&vals) > score(&best_vals) + 1e-12 {
                        best_vals = vals;
                        kept = jp;
                        improved = true;
                    }
                }
                best_map[ip] = kept;
            }
            if !improved {
                break;
            }
        }
        best_vals
    }

    /// Balanced, capacity- and delay-feasible greedy selection under a
    /// fixed switch → controller mapping, encoded as a full variable
    /// assignment. In balanced rounds, every flow at the least
    /// programmability σ takes its cheapest-delay remaining entry that
    /// still fits the capacity and delay budgets; an entry that does not
    /// fit is skipped for good. The rounds end only when every flow has
    /// tried all of its entries, so no leftover pass follows them.
    fn greedy_values(&self, d: &PolishData, mapping: &[usize]) -> Vec<f64> {
        let mut values = vec![0.0; self.model.var_count()];
        for ip in 0..d.n {
            values[self.x[ip][mapping[ip]].index()] = 1.0;
        }
        let l_count = d.flow_start.len() - 1;
        let mut a: Vec<i64> = d.residuals.iter().map(|&r| r as i64).collect();
        let mut delay_left = d.g;
        let mut h = vec![0u64; l_count];
        // Per flow: entries sorted by their delay under this mapping (a
        // stable sort, so ties keep the flow's own entry order).
        let mut sorted: Vec<(f64, usize, u32)> = d
            .entries
            .iter()
            .map(|&(ip, pbar)| (d.delay[ip][mapping[ip]], ip, pbar))
            .collect();
        for span in d.flow_start.windows(2) {
            sorted[span[0]..span[1]]
                .sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
        }
        let mut cursor = d.flow_start[..l_count].to_vec();
        let select = |ip: usize,
                      lp: usize,
                      pbar: u32,
                      a: &mut [i64],
                      delay_left: &mut f64,
                      h: &mut [u64],
                      values: &mut [f64]|
         -> bool {
            let jp = mapping[ip];
            let cost = d.delay[ip][jp];
            if a[jp] <= 0 || cost > *delay_left + 1e-9 {
                return false;
            }
            a[jp] -= 1;
            *delay_left -= cost;
            h[lp] += pbar as u64;
            let k = self.entry_index.at(ip, lp);
            values[self.omega[k][jp].index()] = 1.0;
            true
        };

        // Balanced rounds over the flows with entries left, keyed by
        // `(h, flow)`: a round takes every flow at the least programmability
        // σ, in flow order, and each flow re-enters under its new `h` while
        // it has entries left.
        let mut waiting: BinaryHeap<Reverse<(u64, usize)>> = (0..l_count)
            .filter(|&lp| cursor[lp] < d.flow_start[lp + 1])
            .map(|lp| Reverse((0, lp)))
            .collect();
        let mut round = Vec::new();
        while let Some(&Reverse((sigma, _))) = waiting.peek() {
            round.clear();
            while let Some(&Reverse((hl, lp))) = waiting.peek() {
                if hl != sigma {
                    break;
                }
                waiting.pop();
                round.push(lp);
            }
            for &lp in &round {
                let end = d.flow_start[lp + 1];
                while cursor[lp] < end {
                    let (_, ip, pbar) = sorted[cursor[lp]];
                    cursor[lp] += 1;
                    if select(ip, lp, pbar, &mut a, &mut delay_left, &mut h, &mut values) {
                        break;
                    }
                }
                if cursor[lp] < end {
                    waiting.push(Reverse((h[lp], lp)));
                }
            }
        }
        let r = (0..l_count)
            .filter(|&lp| d.flow_start[lp] < d.flow_start[lp + 1])
            .map(|lp| h[lp])
            .min()
            .unwrap_or(0);
        values[self.r.index()] = r as f64;
        values
    }

    /// Decodes a solver assignment into a recovery plan. Both lists are
    /// built switch-major (a selection's entry found through
    /// `entry_index`), the plan's own order. Should an assignment set two
    /// variables of one switch or entry, the last controller wins.
    pub(crate) fn extract_plan(
        &self,
        inst: &FmssmInstance<'_, '_>,
        values: &[f64],
    ) -> RecoveryPlan {
        let m = inst.controllers().len();
        let last_set = |vars: &[Var]| (0..m).rev().find(|&jp| values[vars[jp].index()] > 0.5);
        let mut mapping = Vec::new();
        let mut sdn = Vec::new();
        for (ip, &s) in inst.switches().iter().enumerate() {
            if let Some(jp) = last_set(&self.x[ip]) {
                mapping.push((s, inst.controllers()[jp]));
            }
            for &(lp, _) in inst.switch_entries(ip) {
                if let Some(jp) = last_set(&self.omega[self.entry_index.at(ip, lp)]) {
                    sdn.push((s, inst.flows()[lp], inst.controllers()[jp]));
                }
            }
        }
        RecoveryPlan::from_parts(mapping, Vec::new(), sdn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::{ControllerId, PlanMetrics, Programmability, SdWanBuilder, SwitchId};
    use pm_topo::{builders, NodeId};

    /// A small network where the exact solver finishes quickly.
    fn small() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
        let net = SdWanBuilder::new(builders::grid(3, 3))
            .controller(NodeId(0), 200)
            .controller(NodeId(8), 200)
            .build()
            .unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    #[test]
    fn warm_hint_from_adjacent_case_keeps_optimality() {
        // Hint the C0 solve with the plan of the colex-adjacent C1 case;
        // the hint is re-encoded against the C0 instance and must never
        // change a proved-optimal objective.
        let (net, prog) = small();
        let sc_prev = net.fail(&[ControllerId(1)]).unwrap();
        let inst_prev = FmssmInstance::new(&sc_prev, &prog);
        let hint = Pm::new().recover(&inst_prev).unwrap();

        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let solver = Optimal::new().time_limit(Duration::from_secs(20));
        let cold = solver.solve_detailed(&inst).unwrap();
        let hinted = solver.solve_detailed_with_hint(&inst, Some(&hint)).unwrap();
        assert!(cold.proved_optimal() && hinted.proved_optimal());
        assert!((cold.objective - hinted.objective).abs() < 1e-6);
        hinted.plan.validate(&sc, &prog, false).unwrap();
    }

    #[test]
    fn solves_small_instance_to_optimality() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let out = Optimal::new()
            .time_limit(Duration::from_secs(20))
            .solve_detailed(&inst)
            .unwrap();
        assert!(out.proved_optimal(), "status {:?}", out.status);
        out.plan.validate(&sc, &prog, false).unwrap();
        // The λ-sensitivity ablation's inputs: no delay bound, λ from
        // r-only to a flat sum.
        for lambda in [0.0, 0.01, 1.0] {
            let out = Optimal::new()
                .lambda(lambda)
                .delay_bound(DelayBound::Unbounded)
                .time_limit(Duration::from_secs(20))
                .solve_detailed(&inst)
                .unwrap();
            assert!(out.proved_optimal(), "λ = {lambda}: {:?}", out.status);
            out.plan.validate(&sc, &prog, false).unwrap();
        }
    }

    #[test]
    fn optimal_at_least_as_good_as_pm() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(1)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let pm_plan = Pm::new().recover(&inst).unwrap();
        let pm_metrics = PlanMetrics::compute(&sc, &prog, &pm_plan, 0.0);
        let out = Optimal::new().solve_detailed(&inst).unwrap();
        let opt_metrics = PlanMetrics::compute(&sc, &prog, &out.plan, 0.0);
        let pm_obj = inst.objective(&pm_metrics.per_flow_programmability, true);
        let opt_obj = inst.objective(&opt_metrics.per_flow_programmability, true);
        assert!(
            opt_obj >= pm_obj - 1e-9,
            "optimal {opt_obj} must be at least PM {pm_obj} (warm start)"
        );
    }

    #[test]
    fn exact_and_aggregated_linking_agree() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let agg = Optimal::new()
            .linking(LinkingStyle::Aggregated)
            .time_limit(Duration::from_secs(30))
            .solve_detailed(&inst)
            .unwrap();
        let exact = Optimal::new()
            .linking(LinkingStyle::Exact)
            .time_limit(Duration::from_secs(30))
            .solve_detailed(&inst)
            .unwrap();
        assert!(agg.proved_optimal() && exact.proved_optimal());
        assert!(
            (agg.objective - exact.objective).abs() < 1e-6,
            "agg {} vs exact {}",
            agg.objective,
            exact.objective
        );
    }

    #[test]
    fn respects_delay_bound() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let out = Optimal::new()
            .delay_bound(DelayBound::IdealG)
            .solve_detailed(&inst)
            .unwrap();
        assert!(out.plan.total_control_delay(&sc) <= sc.ideal_delay_g() + 1e-6);
        // The scaled default keeps within its own (larger) budget.
        let out3 = Optimal::new().solve_detailed(&inst).unwrap();
        assert!(out3.plan.total_control_delay(&sc) <= 3.0 * sc.ideal_delay_g() + 1e-6);
    }

    #[test]
    fn lp_export_contains_fmssm_structure() {
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let lp = Optimal::new().export_lp(&inst);
        assert!(lp.contains("Maximize"));
        assert!(lp.contains("General"), "binaries must be declared");
        // One x variable per (offline switch, active controller).
        let n = inst.switches().len() * inst.controllers().len();
        for i in 0..n {
            assert!(lp.contains(&format!("x{i} ")) || lp.contains(&format!("x{i}\n")));
        }
    }

    #[test]
    fn warm_start_keeps_result_with_zero_budget() {
        // With a zero time limit, the returned plan is exactly PM's warm
        // start (possibly unimproved) — never an error.
        let (net, prog) = small();
        let sc = net.fail(&[ControllerId(0)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let out = Optimal::new()
            .time_limit(Duration::from_millis(0))
            .solve_detailed(&inst);
        match out {
            Ok(o) => {
                o.plan.validate(&sc, &prog, false).unwrap();
            }
            Err(PmError::NoSolution { .. }) => {
                panic!("warm start must guarantee an incumbent")
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn paper_headline_case_with_time_limit() {
        // The full ATT two-failure headline case, 10 s budget: must return
        // a feasible plan at least as good as PM.
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let out = Optimal::new()
            .time_limit(Duration::from_secs(10))
            .solve_detailed(&inst)
            .unwrap();
        out.plan.validate(&sc, &prog, false).unwrap();
        // Optimal obeys its delay budget (κ·G by default) — unlike PM,
        // whose unconstrained delay can exceed G (the paper's Fig. 5(f)
        // discussion), so PM's objective is not a lower bound here. What
        // must hold: a usable incumbent with substantial recovery.
        assert!(out.plan.total_control_delay(&sc) <= 3.0 * sc.ideal_delay_g() + 1e-6);
        let opt_m = PlanMetrics::compute(&sc, &prog, &out.plan, 0.0);
        let pm_m = PlanMetrics::compute(&sc, &prog, &Pm::new().recover(&inst).unwrap(), 0.0);
        assert!(opt_m.total_programmability > 0);
        // The hub must be handled per-flow by the exact solution too.
        assert!(opt_m.total_programmability >= pm_m.total_programmability / 4);
        let _ = SwitchId(13);
    }

    /// The greedy as it was before the waiting heap: every round rebuilds
    /// the flows with entries left and rescans them for σ, and every call
    /// clones each flow's row.
    fn greedy_by_rescan(built: &BuiltModel, d: &PolishData, mapping: &[usize]) -> Vec<f64> {
        let mut values = vec![0.0; built.model.var_count()];
        for ip in 0..d.n {
            values[built.x[ip][mapping[ip]].index()] = 1.0;
        }
        let flow_entries: Vec<&[(usize, u32)]> = d
            .flow_start
            .windows(2)
            .map(|w| &d.entries[w[0]..w[1]])
            .collect();
        let l_count = flow_entries.len();
        let mut a: Vec<i64> = d.residuals.iter().map(|&r| r as i64).collect();
        let mut delay_left = d.g;
        let mut h = vec![0u64; l_count];
        let sorted: Vec<Vec<(usize, u32)>> = flow_entries
            .iter()
            .map(|row| {
                let mut row = row.to_vec();
                row.sort_by(|&(ia, _), &(ib, _)| {
                    d.delay[ia][mapping[ia]]
                        .partial_cmp(&d.delay[ib][mapping[ib]])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                row
            })
            .collect();
        let mut cursor = vec![0usize; l_count];
        loop {
            let active: Vec<usize> = (0..l_count)
                .filter(|&lp| cursor[lp] < sorted[lp].len())
                .collect();
            let Some(sigma) = active.iter().map(|&lp| h[lp]).min() else {
                break;
            };
            for &lp in &active {
                if h[lp] != sigma {
                    continue;
                }
                while cursor[lp] < sorted[lp].len() {
                    let (ip, pbar) = sorted[lp][cursor[lp]];
                    cursor[lp] += 1;
                    let jp = mapping[ip];
                    let cost = d.delay[ip][jp];
                    if a[jp] <= 0 || cost > delay_left + 1e-9 {
                        continue;
                    }
                    a[jp] -= 1;
                    delay_left -= cost;
                    h[lp] += pbar as u64;
                    values[built.omega[built.entry_index.at(ip, lp)][jp].index()] = 1.0;
                    break;
                }
            }
        }
        let r = (0..l_count)
            .filter(|&lp| !flow_entries[lp].is_empty())
            .map(|lp| h[lp])
            .min()
            .unwrap_or(0);
        values[built.r.index()] = r as f64;
        values
    }

    #[test]
    fn greedy_matches_the_per_round_rescan() {
        // Every ATT controller pair, at the paper's capacity and at one so
        // small that capacity runs out mid-round, under delay budgets from
        // tight to loose, with the nearest mapping and seeded random ones.
        let mut rng = pm_topo::rng::DetRng::seed_from_u64(0x67_7265_6564);
        let mut compared = 0;
        for net in [
            SdWanBuilder::att_paper_setup().build().unwrap(),
            SdWanBuilder::att_paper_setup()
                .auto_capacity(1.0)
                .build()
                .unwrap(),
        ] {
            let prog = Programmability::compute(&net);
            let ctrls = net.controllers().len();
            for a in 0..ctrls {
                for b in a + 1..ctrls {
                    let sc = net.fail(&[ControllerId(a), ControllerId(b)]).unwrap();
                    let inst = FmssmInstance::new(&sc, &prog);
                    for scale in [0.2, 1.0, 3.0] {
                        let budget = scale * inst.ideal_delay_g();
                        let objective = ModelObjective::Combined(inst.lambda());
                        let built = build_model(&inst, LinkingStyle::default(), budget, objective);
                        let d = PolishData::capture(&inst, budget);
                        let mut mappings = vec![d.nearest.clone()];
                        for _ in 0..3 {
                            mappings.push(
                                (0..d.n)
                                    .map(|_| (rng.gen_range(0.0, d.m as f64) as usize).min(d.m - 1))
                                    .collect(),
                            );
                        }
                        for mapping in &mappings {
                            let got = built.greedy_values(&d, mapping);
                            let want = greedy_by_rescan(&built, &d, mapping);
                            assert_eq!(got, want, "failed ({a},{b}), budget ×{scale}");
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 2 * 15 * 3 * 4);
    }
}
