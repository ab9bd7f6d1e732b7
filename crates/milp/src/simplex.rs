//! Bounded-variable two-phase revised primal simplex.
//!
//! Solves `max c·x  s.t.  A x {≤,=,≥} b,  l ≤ x ≤ u`. The constraint matrix
//! is stored once as sparse columns ([`LpContext`]); each solve maintains a
//! dense basis inverse `B⁻¹` updated per pivot (product form) and rebuilt
//! from the basis columns every `REFACTOR_PERIOD` pivots for numerical
//! hygiene. Pricing works on reduced costs `c_j − y·A_j` with `y = c_B·B⁻¹`,
//! so an iteration costs `O(m² + nnz)` instead of the dense tableau's
//! `O(m · ncols)` — the win grows with the column count, which dominates in
//! FMSSM models (one binary per switch×controller pair plus one per entry).
//!
//! Variables are shifted so every lower bound is zero; every row carries an
//! artificial column whose sign tracks the shifted right-hand side, giving
//! the phase-1 starting basis without cloning the matrix per solve (rows are
//! never sign-flipped, so one [`LpContext`] serves every bound combination a
//! branch-and-bound search asks about). Nonbasic variables rest at either
//! bound; the ratio test supports bound flips. Dantzig pricing with a
//! Bland's-rule fallback guards against cycling.
//!
//! **Layout.** `B⁻¹` is row-major, and every kernel walks it one contiguous
//! row slice at a time: BTRAN accumulates `c_B[i]·row_i`, FTRAN dots each
//! row with the entering column, the product-form update subtracts a
//! multiple of a scratch copy of the pivot row. Each output element still
//! receives the same products in the same order as a textbook loop nest,
//! so the pivot sequence is reproducible bit for bit; the row layout only
//! removes aliasing and bounds checks from the inner loops.
//!
//! **Workspace.** All per-solve buffers (`B⁻¹`, basic values, basis, bound
//! rests, shifted ranges and right-hand sides, FTRAN/BTRAN vectors, the
//! refactorization matrix) live in the context and are reused by every
//! solve, so a branch-and-bound tree allocates them once.
//!
//! **Warm start.** After an optimal solve the workspace still holds the
//! final basis *and* its inverse. The next solve first prices the new
//! bounds through that retained inverse (`O(m²)`); a basis whose basic
//! values break their bounds by more than `WARM_SCREEN` is rejected
//! without refactorizing. A basis that passes is refactorized and checked
//! exactly; when it stays primal-feasible phase 1 is skipped
//! (`milp.basis.reuse_hits`). `milp.simplex.refactorizations` counts only
//! the bases that reached that rebuild. In branch and bound the hit rate
//! is usually zero: the child's new bound cuts off the branched variable,
//! which is basic at a fractional value in the parent's optimum, so the
//! parent basis is primal-infeasible by construction (0.0 reuse share on
//! the `optimal-14` benchmark pool). The screen makes that miss cheap.

use crate::model::{Model, Sense, Var};

/// Full basis-inverse rebuilds happen every this many pivots.
const REFACTOR_PERIOD: u64 = 100;

/// Bound violation (in the retained inverse's basic values) beyond which a
/// warm basis is rejected without refactorizing — far wider than the
/// exact check's acceptance slack, so roundoff in the retained inverse
/// never rejects a basis the exact check would take.
const WARM_SCREEN: f64 = 1e-3;

/// Options for the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Feasibility/optimality tolerance.
    pub tol: f64,
    /// Hard cap on pivot iterations per phase (scaled guard against
    /// cycling). `0` means "choose automatically from the problem size".
    pub max_iters: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            tol: 1e-7,
            max_iters: 0,
        }
    }
}

/// A solution to the LP relaxation. Values cover structural variables only.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value.
    pub objective: f64,
    /// One value per structural (model) variable.
    pub values: Vec<f64>,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// The iteration cap was reached before convergence (treat as a failed
    /// solve; callers may retry with looser tolerances).
    IterationLimit,
}

impl LpOutcome {
    /// The solution if optimal.
    pub fn solution(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Solves the LP relaxation of `model` (integrality dropped).
///
/// # Panics
///
/// Panics if the model has no objective.
pub fn solve_relaxation(model: &Model, opts: &SimplexOptions) -> LpOutcome {
    let n = model.var_count();
    let mut lb = Vec::with_capacity(n);
    let mut ub = Vec::with_capacity(n);
    for i in 0..n {
        let (l, u) = model.bounds(Var(i));
        lb.push(l);
        ub.push(u);
    }
    solve_with_bounds(model, &lb, &ub, opts)
}

/// Solves the LP relaxation with overridden variable bounds (used by branch
/// and bound to tighten integer variables per node). One-shot: builds a
/// fresh [`LpContext`]; repeated solves over the same model should build
/// the context once and call [`LpContext::solve_with_bounds`].
///
/// # Panics
///
/// Panics if the model has no objective or the bound slices have the wrong
/// length.
pub fn solve_with_bounds(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    opts: &SimplexOptions,
) -> LpOutcome {
    LpContext::new(model).solve_with_bounds(lb, ub, opts)
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtBound {
    Lower,
    Upper,
}

/// The bounds-independent part of an LP: sparse columns of the constraint
/// matrix (structural variables, then one slack/surplus per inequality
/// row, then one artificial per row) and the phase costs.
#[derive(Debug)]
struct Lp {
    /// Structural variable count.
    n_struct: usize,
    /// Row count.
    m: usize,
    /// Columns stored in the CSC arrays: structural + slack/surplus.
    n_fixed: usize,
    /// Total column count (`n_fixed + m` artificials).
    ncols: usize,
    /// CSC storage for columns `0..n_fixed`.
    col_ptr: Vec<usize>,
    col_rows: Vec<usize>,
    col_vals: Vec<f64>,
    /// Slack/surplus column of each row, if the row is an inequality.
    slack_col: Vec<Option<usize>>,
    /// Original (unshifted) right-hand sides.
    rhs0: Vec<f64>,
    /// Row senses.
    senses: Vec<Sense>,
    /// Phase-2 objective per column (structural costs; 0 elsewhere).
    obj: Vec<f64>,
    /// Phase-1 objective per column (−1 on artificials; 0 elsewhere).
    phase1: Vec<f64>,
    /// Whether the model declared an objective (asserted at solve time).
    has_objective: bool,
}

/// Per-solve buffers, allocated once per [`LpContext`]. After an optimal
/// solve they hold its final basis, inverse and bound rests, which the
/// next solve screens as a warm start.
#[derive(Debug)]
struct Workspace {
    /// Basis inverse, row-major `m × m`.
    binv: Vec<f64>,
    /// Basic variable values (length m).
    bvals: Vec<f64>,
    /// Column index of the basic variable in each row.
    basis: Vec<usize>,
    /// `in_basis[j]` = `Some(row)` if column j is basic.
    in_basis: Vec<Option<usize>>,
    /// For nonbasic columns, which bound they rest at.
    at: Vec<AtBound>,
    /// Shifted bounds: all lower bounds are 0; `range[j]` = ub − lb.
    range: Vec<f64>,
    /// Shifted right-hand sides.
    rhs: Vec<f64>,
    /// Artificial-column signs per row (so starting values are ≥ 0).
    art_sign: Vec<f64>,
    /// FTRAN result.
    w: Vec<f64>,
    /// BTRAN result.
    y: Vec<f64>,
    /// Right-hand side net of upper-resting nonbasics.
    b_eff: Vec<f64>,
    /// Pivot-row copies for the update and the refactorization.
    pivot_row: Vec<f64>,
    pivot_row_b: Vec<f64>,
    /// Basis matrix being inverted by the refactorization (allocated by
    /// the first one, since short solves never refactorize).
    mat: Vec<f64>,
}

impl Workspace {
    fn new(m: usize, ncols: usize) -> Self {
        Workspace {
            binv: vec![0.0; m * m],
            bvals: vec![0.0; m],
            basis: vec![0; m],
            in_basis: vec![None; ncols],
            at: vec![AtBound::Lower; ncols],
            range: vec![0.0; ncols],
            rhs: vec![0.0; m],
            art_sign: vec![0.0; m],
            w: vec![0.0; m],
            y: vec![0.0; m],
            b_eff: vec![0.0; m],
            pivot_row: vec![0.0; m],
            pivot_row_b: vec![0.0; m],
            mat: Vec::new(),
        }
    }
}

/// The row slices of a row-major `m × m` matrix (none when `m = 0`).
fn rows(mat: &[f64], m: usize) -> std::slice::ChunksExact<'_, f64> {
    mat.chunks_exact(m.max(1))
}

/// Mutable [`rows`].
fn rows_mut(mat: &mut [f64], m: usize) -> std::slice::ChunksExactMut<'_, f64> {
    mat.chunks_exact_mut(m.max(1))
}

/// What one solve did, reported to `pm_obs` when recording is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SolveStats {
    pivots: u64,
    bound_flips: u64,
    /// Basis-inverse rebuilds, including a warm basis that passed the
    /// screen; a screened-out basis costs none.
    refactorizations: u64,
    reuse_hit: bool,
}

/// An LP held for repeated solves under changing variable bounds: its
/// sparse columns, one set of solver buffers, and the last optimal
/// solve's basis for warm-starting. Build once per model, then call
/// [`LpContext::solve_with_bounds`] for each bound combination — the
/// branch-and-bound driver holds one context for its whole node tree.
#[derive(Debug)]
pub struct LpContext {
    lp: Lp,
    ws: Workspace,
    /// Whether `ws` holds the final basis of the previous solve, which was
    /// optimal.
    warm: bool,
    /// The last solve's statistics.
    last: SolveStats,
}

impl LpContext {
    /// Extracts the sparse column structure of `model`. The context is
    /// bounds-free: per-node variable bounds arrive at solve time.
    pub fn new(model: &Model) -> Self {
        let n = model.var_count();
        let m = model.constraint_count();

        // Column-count pass, then fill (structural columns first).
        let mut col_entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut rhs0 = Vec::with_capacity(m);
        let mut senses = Vec::with_capacity(m);
        for (i, con) in model.constraints.iter().enumerate() {
            for &(v, c) in &con.terms {
                col_entries[v.0].push((i, c));
            }
            rhs0.push(con.rhs);
            senses.push(con.sense);
        }
        // Duplicate terms on one variable within a row must coalesce, the
        // way the dense row assembly summed them.
        for entries in &mut col_entries {
            entries.sort_by_key(|&(i, _)| i);
            entries.dedup_by(|later, first| {
                if later.0 == first.0 {
                    first.1 += later.1;
                    true
                } else {
                    false
                }
            });
        }

        let mut slack_col = vec![None; m];
        let mut n_fixed = n;
        for (slot, sense) in slack_col.iter_mut().zip(&senses) {
            match sense {
                Sense::Le | Sense::Ge => {
                    *slot = Some(n_fixed);
                    n_fixed += 1;
                }
                Sense::Eq => {}
            }
        }
        let ncols = n_fixed + m;

        let mut col_ptr = Vec::with_capacity(n_fixed + 1);
        let mut col_rows = Vec::new();
        let mut col_vals = Vec::new();
        col_ptr.push(0);
        for entries in &col_entries {
            for &(i, c) in entries {
                if c != 0.0 {
                    col_rows.push(i);
                    col_vals.push(c);
                }
            }
            col_ptr.push(col_rows.len());
        }
        for (i, sense) in senses.iter().enumerate() {
            let v = match sense {
                Sense::Le => 1.0,
                Sense::Ge => -1.0,
                Sense::Eq => continue,
            };
            col_rows.push(i);
            col_vals.push(v);
            col_ptr.push(col_rows.len());
        }

        let mut obj = vec![0.0; ncols];
        for &(v, c) in &model.objective {
            obj[v.0] += c;
        }
        let mut phase1 = vec![0.0; ncols];
        phase1[n_fixed..].fill(-1.0);

        LpContext {
            lp: Lp {
                n_struct: n,
                m,
                n_fixed,
                ncols,
                col_ptr,
                col_rows,
                col_vals,
                slack_col,
                rhs0,
                senses,
                obj,
                phase1,
                has_objective: model.has_objective(),
            },
            ws: Workspace::new(m, ncols),
            warm: false,
            last: SolveStats::default(),
        }
    }

    /// Forgets the retained warm basis; the next solve starts cold.
    pub fn reset_warm(&mut self) {
        self.warm = false;
    }

    /// Solves under the given variable bounds, warm-starting from the
    /// previous solve's basis when it remains primal-feasible (phase 1 is
    /// then skipped and `milp.basis.reuse_hits` counts the hit).
    ///
    /// # Panics
    ///
    /// Panics if the model had no objective or the bound slices have the
    /// wrong length.
    pub fn solve_with_bounds(
        &mut self,
        lb: &[f64],
        ub: &[f64],
        opts: &SimplexOptions,
    ) -> LpOutcome {
        assert!(self.lp.has_objective, "model has no objective");
        assert_eq!(lb.len(), self.lp.n_struct);
        assert_eq!(ub.len(), self.lp.n_struct);
        for i in 0..lb.len() {
            if lb[i] > ub[i] + opts.tol {
                return LpOutcome::Infeasible;
            }
        }
        let warm = std::mem::take(&mut self.warm);
        let mut solver = Solver::new(&self.lp, &mut self.ws, lb, ub, opts);
        let out = solver.solve_phases(warm);
        let stats = solver.stats;
        if pm_obs::enabled() {
            pm_obs::count("milp.simplex.solves", 1);
            pm_obs::count("milp.simplex.pivots", stats.pivots);
            pm_obs::count("milp.simplex.bound_flips", stats.bound_flips);
            pm_obs::count("milp.simplex.refactorizations", stats.refactorizations);
            pm_obs::count("milp.basis.reuse_hits", u64::from(stats.reuse_hit));
        }
        self.warm = matches!(out, LpOutcome::Optimal(_));
        self.last = stats;
        out
    }
}

/// One solve's state over a borrowed [`Lp`] and [`Workspace`].
struct Solver<'a> {
    lp: &'a Lp,
    ws: &'a mut Workspace,
    /// Structural lower bounds (for un-shifting the solution).
    shift: &'a [f64],
    /// Constant objective offset from the shift.
    obj_offset: f64,
    tol: f64,
    max_iters: usize,
    stats: SolveStats,
}

enum PhaseEnd {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl<'a> Solver<'a> {
    /// Loads the bounds into the workspace: shifted ranges, right-hand
    /// sides and artificial signs. The basis, its inverse and the bound
    /// rests are left as the previous solve ended them.
    fn new(
        lp: &'a Lp,
        ws: &'a mut Workspace,
        lb: &'a [f64],
        ub: &[f64],
        opts: &SimplexOptions,
    ) -> Self {
        let shift = lb;
        for (r, (&u, &l)) in ws.range.iter_mut().zip(ub.iter().zip(lb)) {
            *r = u - l;
        }
        ws.range[lp.n_struct..lp.n_fixed].fill(f64::INFINITY);
        // Artificial ranges start at 0 and are opened only for the rows
        // phase 1 must repair.
        ws.range[lp.n_fixed..].fill(0.0);

        // Shifted rhs: b − A·shift, column-wise over the sparse storage.
        ws.rhs.copy_from_slice(&lp.rhs0);
        for (j, &s) in shift.iter().enumerate() {
            if s != 0.0 {
                for k in lp.col_ptr[j]..lp.col_ptr[j + 1] {
                    ws.rhs[lp.col_rows[k]] -= lp.col_vals[k] * s;
                }
            }
        }
        for (sign, &b) in ws.art_sign.iter_mut().zip(&ws.rhs) {
            *sign = if b < 0.0 { -1.0 } else { 1.0 };
        }

        let obj_offset: f64 = (0..lp.n_struct).map(|j| lp.obj[j] * shift[j]).sum();
        let max_iters = if opts.max_iters == 0 {
            (200 * (lp.m + lp.ncols)).max(20_000)
        } else {
            opts.max_iters
        };

        Solver {
            lp,
            ws,
            shift,
            obj_offset,
            tol: opts.tol,
            max_iters,
            stats: SolveStats::default(),
        }
    }

    /// Value a nonbasic column currently rests at (in shifted space).
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.ws.at[j] {
            AtBound::Lower => 0.0,
            AtBound::Upper => self.ws.range[j],
        }
    }

    /// FTRAN: `w = B⁻¹ · A_j` into the scratch vector, one `B⁻¹` row at a
    /// time; each `w[i]` sums the column's entries in CSC order from 0.
    fn ftran(&mut self, j: usize) {
        let (lp, ws) = (self.lp, &mut *self.ws);
        if j >= lp.n_fixed {
            let r = j - lp.n_fixed;
            let s = ws.art_sign[r];
            for (wi, brow) in ws.w.iter_mut().zip(rows(&ws.binv, lp.m)) {
                *wi = s * brow[r];
            }
        } else {
            let span = lp.col_ptr[j]..lp.col_ptr[j + 1];
            let (col_rows, col_vals) = (&lp.col_rows[span.clone()], &lp.col_vals[span]);
            for (wi, brow) in ws.w.iter_mut().zip(rows(&ws.binv, lp.m)) {
                let mut acc = 0.0;
                for (&row, &v) in col_rows.iter().zip(col_vals) {
                    acc += v * brow[row];
                }
                *wi = acc;
            }
        }
    }

    /// BTRAN: `y = c_B · B⁻¹` into the scratch vector, adding one scaled
    /// `B⁻¹` row per basic column with a nonzero cost.
    fn btran(&mut self, c: &[f64]) {
        let ws = &mut *self.ws;
        ws.y.fill(0.0);
        for (&col, brow) in ws.basis.iter().zip(rows(&ws.binv, self.lp.m)) {
            let cb = c[col];
            if cb != 0.0 {
                for (yk, &b) in ws.y.iter_mut().zip(brow) {
                    *yk += cb * b;
                }
            }
        }
    }

    /// Product-form update of `B⁻¹` on pivot element `w[r]`: scale the
    /// pivot row, then subtract `w[i]` times it from every other row.
    fn update_inverse(&mut self, r: usize) {
        let m = self.lp.m;
        let ws = &mut *self.ws;
        let p = ws.w[r];
        debug_assert!(p.abs() > 1e-12, "pivot too small");
        let inv = 1.0 / p;
        let prow = &mut ws.binv[r * m..(r + 1) * m];
        for v in prow.iter_mut() {
            *v *= inv;
        }
        ws.pivot_row.copy_from_slice(prow);
        for (i, (brow, &f)) in rows_mut(&mut ws.binv, m).zip(&ws.w).enumerate() {
            if i != r && f != 0.0 {
                for (b, &v) in brow.iter_mut().zip(&ws.pivot_row) {
                    *b -= f * v;
                }
            }
        }
    }

    /// Rebuilds `B⁻¹` from the current basis columns by Gauss–Jordan
    /// elimination with partial pivoting and recomputes the basic values.
    /// Returns `false` when the basis matrix is numerically singular.
    fn refactor(&mut self) -> bool {
        let lp = self.lp;
        let m = lp.m;
        self.stats.refactorizations += 1;
        if m == 0 {
            return true;
        }
        let ws = &mut *self.ws;
        // Assemble B column-by-column into the scratch matrix.
        let b = &mut ws.mat;
        b.clear();
        b.resize(m * m, 0.0);
        for (i, &col) in ws.basis.iter().enumerate() {
            if col >= lp.n_fixed {
                let r = col - lp.n_fixed;
                b[r * m + i] = ws.art_sign[r];
            } else {
                for k in lp.col_ptr[col]..lp.col_ptr[col + 1] {
                    b[lp.col_rows[k] * m + i] = lp.col_vals[k];
                }
            }
        }
        // Invert against an identity. Once column `col` is eliminated no
        // later step reads columns `..=col` of `b`, so only `col + 1..` of
        // its rows is kept up to date.
        let inv = &mut ws.binv;
        inv.fill(0.0);
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let mut piv = col;
            let mut best = b[col * m + col].abs();
            for r in col + 1..m {
                let v = b[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best <= 1e-12 {
                return false;
            }
            if piv != col {
                for k in 0..m {
                    b.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let s = 1.0 / b[col * m + col];
            let live = col + 1..m;
            let brow = &mut ws.pivot_row_b[live.clone()];
            for (dst, v) in brow
                .iter_mut()
                .zip(&mut b[col * m + col + 1..(col + 1) * m])
            {
                *v *= s;
                *dst = *v;
            }
            for (dst, v) in ws
                .pivot_row
                .iter_mut()
                .zip(&mut inv[col * m..(col + 1) * m])
            {
                *v *= s;
                *dst = *v;
            }
            for (r, (brow_r, irow_r)) in rows_mut(b, m).zip(rows_mut(inv, m)).enumerate() {
                let f = brow_r[col];
                if r == col || f == 0.0 {
                    continue;
                }
                for (x, &v) in brow_r[live.clone()].iter_mut().zip(&*brow) {
                    *x -= f * v;
                }
                for (x, &v) in irow_r.iter_mut().zip(&ws.pivot_row) {
                    *x -= f * v;
                }
            }
        }
        self.recompute_bvals();
        true
    }

    /// `x_B = B⁻¹ (b − Σ_{j at upper} A_j · range_j)`.
    fn recompute_bvals(&mut self) {
        let lp = self.lp;
        let ws = &mut *self.ws;
        ws.b_eff.copy_from_slice(&ws.rhs);
        for j in 0..lp.ncols {
            if ws.in_basis[j].is_none() && ws.at[j] == AtBound::Upper {
                let v = ws.range[j];
                if v != 0.0 {
                    if j >= lp.n_fixed {
                        let r = j - lp.n_fixed;
                        ws.b_eff[r] -= ws.art_sign[r] * v;
                    } else {
                        for k in lp.col_ptr[j]..lp.col_ptr[j + 1] {
                            ws.b_eff[lp.col_rows[k]] -= lp.col_vals[k] * v;
                        }
                    }
                }
            }
        }
        for (x, brow) in ws.bvals.iter_mut().zip(rows(&ws.binv, lp.m)) {
            let mut acc = 0.0;
            for (&b, &e) in brow.iter().zip(&ws.b_eff) {
                acc += b * e;
            }
            *x = acc;
        }
    }

    /// Whether every basic value lies within its bounds widened by `slack`.
    fn basis_within(&self, slack: f64) -> bool {
        let ws = &*self.ws;
        ws.bvals
            .iter()
            .zip(&ws.basis)
            .all(|(&x, &col)| !(x < -slack || x > ws.range[col] + slack))
    }

    /// Re-checks the retained basis under the current bounds and keeps it
    /// if it stays primal-feasible. On success phase 1 can be skipped
    /// outright.
    fn try_warm(&mut self) -> bool {
        // Bound changes may have invalidated upper rests (range now
        // infinite or the variable is newly fixed).
        let ws = &mut *self.ws;
        for ((at, slot), range) in ws.at.iter_mut().zip(&ws.in_basis).zip(&ws.range) {
            if slot.is_none() && *at == AtBound::Upper && !range.is_finite() {
                *at = AtBound::Lower;
            }
        }
        // Screen through the retained inverse before paying for a rebuild.
        self.recompute_bvals();
        if !self.basis_within(WARM_SCREEN) {
            return false;
        }
        if !self.refactor() || !self.basis_within(self.tol.max(1e-7) * 10.0) {
            return false;
        }
        // Clamp roundoff the way pivoting does.
        for x in &mut self.ws.bvals {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        true
    }

    fn solve_phases(&mut self, warm: bool) -> LpOutcome {
        let lp = self.lp;
        let m = lp.m;

        if warm && self.try_warm() {
            self.stats.reuse_hit = true;
            return self.finish(&lp.obj);
        }

        // Cold start: slack/surplus basis where the shifted rhs allows it,
        // artificial basis elsewhere; phase 1 drives the artificials out.
        let mut need_phase1 = false;
        let ws = &mut *self.ws;
        ws.in_basis.fill(None);
        ws.at.fill(AtBound::Lower);
        for (i, brow) in rows_mut(&mut ws.binv, m).enumerate() {
            let feasible_slack = match (lp.senses[i], ws.rhs[i] >= 0.0) {
                (Sense::Le, true) | (Sense::Ge, false) => lp.slack_col[i],
                _ => None,
            };
            // Diagonal B⁻¹: the basic column's single entry is ±1.
            let (col, diag) = match feasible_slack {
                Some(col) => (col, if lp.senses[i] == Sense::Le { 1.0 } else { -1.0 }),
                None => {
                    // Open this row's artificial for phase 1.
                    let col = lp.n_fixed + i;
                    ws.range[col] = f64::INFINITY;
                    if ws.rhs[i] != 0.0 {
                        need_phase1 = true;
                    }
                    (col, ws.art_sign[i])
                }
            };
            ws.basis[i] = col;
            ws.in_basis[col] = Some(i);
            ws.bvals[i] = ws.rhs[i].abs();
            brow.fill(0.0);
            brow[i] = diag;
        }

        // Phase 1: drive artificials to zero.
        if need_phase1 {
            match self.optimize(&lp.phase1) {
                PhaseEnd::Optimal => {}
                PhaseEnd::Unbounded => unreachable!("phase-1 objective is bounded above by 0"),
                PhaseEnd::IterationLimit => return LpOutcome::IterationLimit,
            }
            let infeas: f64 = (lp.n_fixed..lp.ncols)
                .map(|a| match self.ws.in_basis[a] {
                    Some(row) => self.ws.bvals[row],
                    None => self.nonbasic_value(a),
                })
                .sum();
            if infeas > self.tol.max(1e-7) * 10.0 {
                return LpOutcome::Infeasible;
            }
        }
        // Fix artificials at zero for phase 2.
        let ws = &mut *self.ws;
        for a in lp.n_fixed..lp.ncols {
            ws.range[a] = 0.0;
            if ws.in_basis[a].is_none() {
                ws.at[a] = AtBound::Lower;
            }
        }
        self.finish(&lp.obj)
    }

    /// Phase 2 from the current feasible basis.
    fn finish(&mut self, obj: &[f64]) -> LpOutcome {
        match self.optimize(obj) {
            PhaseEnd::Optimal => self.assemble(),
            PhaseEnd::Unbounded => LpOutcome::Unbounded,
            PhaseEnd::IterationLimit => LpOutcome::IterationLimit,
        }
    }

    /// Assembles structural values, un-shifting.
    fn assemble(&self) -> LpOutcome {
        let n = self.lp.n_struct;
        let value = |j: usize| match self.ws.in_basis[j] {
            Some(row) => self.ws.bvals[row],
            None => self.nonbasic_value(j),
        };
        let values = (0..n).map(|j| value(j) + self.shift[j]).collect();
        let objective: f64 =
            (0..n).map(|j| self.lp.obj[j] * value(j)).sum::<f64>() + self.obj_offset;
        LpOutcome::Optimal(LpSolution { objective, values })
    }

    /// Dantzig pricing: the eligible column with the largest reduced cost
    /// `|c_j − y·A_j|` (first such on ties), or the first eligible one
    /// under Bland's rule. CSC and artificial columns are priced in two
    /// passes, in column order. Returns `(column, increase)`.
    fn price(&self, c: &[f64], bland: bool) -> Option<(usize, bool)> {
        let (lp, ws, tol) = (self.lp, &*self.ws, self.tol);
        let mut best = -1.0; // below every eligible score
        let mut entering = None;
        // Offers column j with reduced cost d; `true` ends the scan.
        let mut offer = |j: usize, d: f64| {
            let increase = ws.at[j] == AtBound::Lower;
            let improving = if increase { d > tol } else { d < -tol };
            if improving && d.abs() > best {
                best = d.abs();
                entering = Some((j, increase));
                return bland;
            }
            false
        };
        let skipped = |j: usize| ws.in_basis[j].is_some() || ws.range[j] <= tol;
        for (j, (&cj, span)) in c.iter().zip(lp.col_ptr.windows(2)).enumerate() {
            if skipped(j) {
                continue;
            }
            let mut d = cj;
            for k in span[0]..span[1] {
                d -= lp.col_vals[k] * ws.y[lp.col_rows[k]];
            }
            if offer(j, d) {
                return entering;
            }
        }
        for (r, j) in (lp.n_fixed..lp.ncols).enumerate() {
            if !skipped(j) && offer(j, c[j] - ws.art_sign[r] * ws.y[r]) {
                return entering;
            }
        }
        entering
    }

    /// Runs revised primal simplex iterations for the given column costs.
    fn optimize(&mut self, c: &[f64]) -> PhaseEnd {
        let m = self.lp.m;
        let bland_after = self.max_iters / 2;
        for iter in 0..self.max_iters {
            // Price: y = c_B·B⁻¹, d_j = c_j − y·A_j.
            self.btran(c);
            let Some((j, increase)) = self.price(c, iter >= bland_after) else {
                return PhaseEnd::Optimal;
            };
            let delta = if increase { 1.0 } else { -1.0 };

            // Ratio test on w = B⁻¹A_j: x_B(t) = bvals − t·delta·w; the
            // entering column moves t·delta from its bound, with its own
            // range as a flip limit.
            self.ftran(j);
            let ws = &mut *self.ws;
            let mut t_limit = ws.range[j]; // bound flip distance
            let mut leaving: Option<(usize, AtBound)> = None; // (row, bound hit)
            for i in 0..m {
                let a_eff = ws.w[i] * delta;
                if a_eff > self.tol {
                    // Basic value decreases toward 0 (its shifted lb).
                    let room = ws.bvals[i];
                    let t = (room / a_eff).max(0.0);
                    if t < t_limit {
                        t_limit = t;
                        leaving = Some((i, AtBound::Lower));
                    }
                } else if a_eff < -self.tol {
                    // Basic value increases toward its range (shifted ub).
                    let ub = ws.range[ws.basis[i]];
                    if ub.is_finite() {
                        let room = ub - ws.bvals[i];
                        let t = (room / -a_eff).max(0.0);
                        if t < t_limit {
                            t_limit = t;
                            leaving = Some((i, AtBound::Upper));
                        }
                    }
                }
            }

            if t_limit.is_infinite() {
                return PhaseEnd::Unbounded;
            }

            // Move all basic values.
            let t = t_limit;
            for (x, &wi) in ws.bvals.iter_mut().zip(&ws.w) {
                *x -= t * wi * delta;
            }
            let Some((r, hit)) = leaving else {
                // Bound flip: entering travels its whole range.
                self.stats.bound_flips += 1;
                ws.at[j] = match ws.at[j] {
                    AtBound::Lower => AtBound::Upper,
                    AtBound::Upper => AtBound::Lower,
                };
                continue;
            };
            self.stats.pivots += 1;
            // Entering variable's new value (shifted space).
            let enter_val = self.nonbasic_value(j) + delta * t;
            self.update_inverse(r);
            let ws = &mut *self.ws;
            let leaving_col = ws.basis[r];
            ws.basis[r] = j;
            ws.in_basis[j] = Some(r);
            ws.in_basis[leaving_col] = None;
            ws.at[leaving_col] = hit;
            ws.bvals[r] = enter_val;
            // Clamp tiny negatives from roundoff.
            let floor = -self.tol * 10.0;
            for x in &mut ws.bvals {
                if *x < 0.0 && *x > floor {
                    *x = 0.0;
                }
            }
            // Periodic refactorization bounds inverse drift.
            if self.stats.pivots % REFACTOR_PERIOD == 0 && !self.refactor() {
                // A singular rebuild means accumulated drift broke the
                // basis; treat like the iteration cap so the caller can
                // retry instead of looping on garbage.
                return PhaseEnd::IterationLimit;
            }
        }
        PhaseEnd::IterationLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
    }

    fn solve(m: &Model) -> LpSolution {
        match solve_relaxation(m, &opts()) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_two_var() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2  => 10 at (2, 2).
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::non_negative());
        let y = m.add_var("y", VarKind::non_negative());
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        m.add_constraint([(x, 1.0)], Sense::Le, 2.0);
        m.maximize([(x, 3.0), (y, 2.0)]);
        let s = solve(&m);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.value_of(x) - 2.0).abs() < 1e-6);
        assert!((s.value_of(y) - 2.0).abs() < 1e-6);
    }

    impl LpSolution {
        fn value_of(&self, v: crate::Var) -> f64 {
            self.values[v.index()]
        }
    }

    #[test]
    fn upper_bounds_without_rows() {
        // max x + y with x ∈ [0, 1.5], y ∈ [0, 2.5], x + y <= 3 => 3.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 1.5 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 2.5 });
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
        m.maximize([(x, 1.0), (y, 1.0)]);
        let s = solve(&m);
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y s.t. x + y >= 3, x >= 1, y >= 0.5 => objective 3.
        let mut m = Model::new();
        let x = m.add_var(
            "x",
            VarKind::Continuous {
                lb: 1.0,
                ub: f64::INFINITY,
            },
        );
        let y = m.add_var(
            "y",
            VarKind::Continuous {
                lb: 0.5,
                ub: f64::INFINITY,
            },
        );
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        m.minimize([(x, 1.0), (y, 1.0)]);
        let s = solve(&m);
        assert!(
            (s.objective + 3.0).abs() < 1e-6,
            "max of negated = -3, got {}",
            s.objective
        );
        assert!(s.value_of(x) >= 1.0 - 1e-9);
        assert!(s.value_of(y) >= 0.5 - 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // max 2x + y s.t. x + y = 5, x <= 3 => x=3, y=2, obj=8.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        let y = m.add_var("y", VarKind::non_negative());
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        m.maximize([(x, 2.0), (y, 1.0)]);
        let s = solve(&m);
        assert!((s.objective - 8.0).abs() < 1e-6);
        assert!((s.value_of(x) + s.value_of(y) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 1.0 });
        m.add_constraint([(x, 1.0)], Sense::Ge, 2.0);
        m.maximize([(x, 1.0)]);
        assert_eq!(solve_relaxation(&m, &opts()), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::non_negative());
        let y = m.add_var("y", VarKind::non_negative());
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        m.maximize([(x, 1.0)]);
        assert_eq!(solve_relaxation(&m, &opts()), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -1 with x, y in [0, 5]; max x => x = 4 when y = 5.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 5.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 5.0 });
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Le, -1.0);
        m.maximize([(x, 1.0)]);
        let s = solve(&m);
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classic degenerate LP; just require termination at the optimum.
        let mut m = Model::new();
        let x1 = m.add_var("x1", VarKind::non_negative());
        let x2 = m.add_var("x2", VarKind::non_negative());
        let x3 = m.add_var("x3", VarKind::non_negative());
        let x4 = m.add_var("x4", VarKind::non_negative());
        m.add_constraint(
            [(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint(
            [(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Sense::Le,
            0.0,
        );
        m.add_constraint([(x1, 1.0)], Sense::Le, 1.0);
        m.maximize([(x1, 10.0), (x2, -57.0), (x3, -9.0), (x4, -24.0)]);
        let s = solve(&m);
        assert!(
            (s.objective - 1.0).abs() < 1e-5,
            "known optimum is 1, got {}",
            s.objective
        );
    }

    #[test]
    fn zero_constraint_model() {
        // Pure bounds: max x + 2y with x ∈ [0,1], y ∈ [0,2].
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 1.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 2.0 });
        m.maximize([(x, 1.0), (y, 2.0)]);
        let s = solve(&m);
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.5, ub: 4.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        m.add_constraint([(x, 2.0), (y, 1.0)], Sense::Le, 6.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], Sense::Ge, 2.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Eq, 1.0);
        m.maximize([(x, 1.0), (y, 1.0)]);
        let s = solve(&m);
        assert!(
            m.is_feasible(&s.values, 1e-6),
            "{:?}",
            m.violation(&s.values, 1e-6)
        );
    }

    #[test]
    fn tightened_bounds_override() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 10.0 });
        m.maximize([(x, 1.0)]);
        let out = solve_with_bounds(&m, &[0.0], &[2.0], &opts());
        let s = out.solution().expect("optimal");
        assert!((s.objective - 2.0).abs() < 1e-9);
        // Contradictory bounds are infeasible.
        assert_eq!(
            solve_with_bounds(&m, &[3.0], &[2.0], &opts()),
            LpOutcome::Infeasible
        );
    }

    #[test]
    fn context_reuse_matches_one_shot_solves() {
        // The same context solved under a sequence of branch-style bound
        // tightenings must agree with fresh one-shot solves each time.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        let z = m.add_var("z", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        m.add_constraint([(x, 1.0), (y, 2.0), (z, 1.0)], Sense::Le, 8.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Ge, -1.0);
        m.add_constraint([(y, 1.0), (z, 1.0)], Sense::Le, 5.0);
        m.maximize([(x, 2.0), (y, 3.0), (z, 1.0)]);
        let mut ctx = LpContext::new(&m);
        let cases: [([f64; 3], [f64; 3]); 4] = [
            ([0.0, 0.0, 0.0], [4.0, 4.0, 4.0]),
            ([0.0, 0.0, 0.0], [4.0, 2.0, 4.0]),
            ([0.0, 3.0, 0.0], [4.0, 4.0, 4.0]),
            ([1.0, 0.0, 2.0], [2.0, 4.0, 4.0]),
        ];
        for (lb, ub) in cases {
            let warm = ctx.solve_with_bounds(&lb, &ub, &opts());
            let cold = solve_with_bounds(&m, &lb, &ub, &opts());
            let (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) = (&warm, &cold) else {
                panic!("expected optimal pairs, got {warm:?} / {cold:?}");
            };
            assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "bounds {lb:?}/{ub:?}: warm {} vs cold {}",
                a.objective,
                b.objective
            );
            assert!(m.is_feasible(&a.values, 1e-6));
        }
    }

    #[test]
    fn warm_start_survives_infeasible_tightening() {
        // An infeasible node between two feasible ones must not poison the
        // retained basis.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 4.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 1.0);
        m.maximize([(x, 1.0), (y, 2.0)]);
        let mut ctx = LpContext::new(&m);
        let o1 = ctx.solve_with_bounds(&[0.0, 0.0], &[3.0, 3.0], &opts());
        assert!(o1.solution().is_some());
        let o2 = ctx.solve_with_bounds(&[3.0, 3.0], &[3.0, 3.0], &opts());
        assert_eq!(o2, LpOutcome::Infeasible);
        let o3 = ctx.solve_with_bounds(&[0.0, 1.0], &[3.0, 3.0], &opts());
        let s = o3.solution().expect("feasible again");
        assert!((s.objective - 7.0).abs() < 1e-6, "got {}", s.objective);
    }

    /// SplitMix64: a seeded stream for the generated LPs below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A multiple of 0.5 in `[-lim, lim]`.
        fn half_steps(&mut self, lim: u64) -> f64 {
            (self.below(4 * lim + 1) as f64 - 2.0 * lim as f64) / 2.0
        }
    }

    /// A small LP with mixed row senses, feasible at its root bounds by
    /// construction (every row holds at a random interior point).
    fn random_lp(rng: &mut Rng) -> Model {
        let n = 3 + rng.below(6) as usize;
        let rows = 2 + rng.below(5) as usize;
        let mut m = Model::new();
        let vars: Vec<_> = (0..n)
            .map(|i| {
                let ub = 1.0 + rng.below(5) as f64;
                m.add_var(format!("x{i}"), VarKind::Continuous { lb: 0.0, ub })
            })
            .collect();
        let point: Vec<f64> = vars
            .iter()
            .map(|&v| m.bounds(v).1 * rng.below(101) as f64 / 100.0)
            .collect();
        for _ in 0..rows {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.below(3) > 0 {
                    terms.push((v, rng.half_steps(3)));
                }
            }
            let lhs: f64 = terms.iter().map(|&(v, c)| c * point[v.index()]).sum();
            let (sense, rhs) = match rng.below(5) {
                0 => (Sense::Eq, lhs),
                1 | 2 => (Sense::Le, lhs + rng.below(4) as f64),
                _ => (Sense::Ge, lhs - rng.below(4) as f64),
            };
            m.add_constraint(terms, sense, rhs);
        }
        m.maximize(vars.iter().map(|&v| (v, rng.half_steps(4))));
        m
    }

    #[test]
    fn warm_and_cold_contexts_agree_on_bound_sequences() {
        let mut rng = Rng(0x5eed);
        let (mut hits, mut infeasible, mut solves) = (0, 0, 0);
        for _ in 0..200 {
            let model = random_lp(&mut rng);
            let n = model.var_count();
            let (root_lb, root_ub): (Vec<f64>, Vec<f64>) =
                (0..n).map(|i| model.bounds(Var(i))).unzip();
            let (mut lb, mut ub) = (root_lb.clone(), root_ub.clone());
            let mut warm = LpContext::new(&model);
            let mut cold = LpContext::new(&model);
            for _ in 0..12 {
                let a = warm.solve_with_bounds(&lb, &ub, &opts());
                hits += u64::from(warm.last.reuse_hit);
                cold.reset_warm();
                let b = cold.solve_with_bounds(&lb, &ub, &opts());
                assert!(!cold.last.reuse_hit);
                solves += 1;
                match (&a, &b) {
                    (LpOutcome::Optimal(x), LpOutcome::Optimal(y)) => {
                        assert!(
                            (x.objective - y.objective).abs() <= 1e-9,
                            "warm {} vs cold {} under {lb:?}/{ub:?}",
                            x.objective,
                            y.objective
                        );
                        for s in [x, y] {
                            assert!(model.is_feasible(&s.values, 1e-6));
                            for (i, &v) in s.values.iter().enumerate() {
                                assert!(v >= lb[i] - 1e-6 && v <= ub[i] + 1e-6);
                            }
                        }
                    }
                    _ => assert_eq!(a, b, "under {lb:?}/{ub:?}"),
                }
                infeasible += u64::from(a == LpOutcome::Infeasible);
                // Next step: branch on a variable, loosen one back to its
                // root bounds, or jump back to the root.
                let v = rng.below(n as u64) as usize;
                match (rng.below(6), a.solution()) {
                    (0..=2, Some(s)) => {
                        let x = s.values[v];
                        if rng.below(2) == 0 {
                            ub[v] = x.floor().max(lb[v]);
                        } else {
                            lb[v] = x.ceil().min(ub[v]);
                        }
                    }
                    (0..=2, None) | (3, _) => {
                        (lb[v], ub[v]) = (root_lb[v], root_ub[v]);
                    }
                    (4, _) => {
                        // Pin a variable at its upper bound: often
                        // infeasible together with earlier pins.
                        lb[v] = ub[v];
                    }
                    _ => (lb, ub) = (root_lb.clone(), root_ub.clone()),
                }
            }
        }
        assert!(hits > 0, "no warm start ever hit in {solves} solves");
        assert!(infeasible > 0, "no infeasible step in {solves} solves");
    }

    #[test]
    fn loosening_a_nonbasic_bound_reuses_the_basis() {
        // z has a negative cost and rests at its lower bound; raising its
        // upper bound leaves every basic value where it was.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 2.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 2.0 });
        let z = m.add_var("z", VarKind::Continuous { lb: 0.0, ub: 1.0 });
        m.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Le, 3.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Sense::Ge, -1.0);
        m.maximize([(x, 1.0), (y, 2.0), (z, -1.0)]);
        let mut ctx = LpContext::new(&m);
        let first = ctx.solve_with_bounds(&[0.0; 3], &[2.0, 2.0, 1.0], &opts());
        assert!(!ctx.last.reuse_hit);
        for zub in [2.0, 4.0, 8.0] {
            let out = ctx.solve_with_bounds(&[0.0; 3], &[2.0, 2.0, zub], &opts());
            assert!(ctx.last.reuse_hit, "z ub {zub}: the screen rejected it");
            assert_eq!(ctx.last.pivots, 0);
            assert_eq!(out, first);
        }
    }

    #[test]
    fn branching_on_a_basic_variable_is_screened_without_refactorizing() {
        // The LP optimum has x = 1.5 basic; the branch x ≤ 1 makes the
        // parent basis infeasible, and the screen says so without a
        // rebuild (the cold start then needs none either).
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 4.0 });
        m.add_constraint([(x, 2.0), (y, 1.0)], Sense::Le, 4.0);
        m.add_constraint([(y, 1.0)], Sense::Le, 1.0);
        m.maximize([(x, 1.0), (y, 1.0)]);
        let mut ctx = LpContext::new(&m);
        let root = ctx.solve_with_bounds(&[0.0; 2], &[4.0; 2], &opts());
        assert!((root.solution().unwrap().values[0] - 1.5).abs() < 1e-9);
        let child = ctx.solve_with_bounds(&[0.0; 2], &[1.0, 4.0], &opts());
        assert!(!ctx.last.reuse_hit);
        assert_eq!(ctx.last.refactorizations, 0);
        assert!((child.solution().unwrap().objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_shapes_run_through_every_kernel() {
        let check = |m: &Model, lb: &[f64], ub: &[f64]| {
            // Cold, then warm (screen + refactorization), then loosened.
            let mut ctx = LpContext::new(m);
            let cold = ctx.solve_with_bounds(lb, ub, &opts());
            let warm = ctx.solve_with_bounds(lb, ub, &opts());
            assert_eq!(cold, warm);
            assert!(ctx.last.reuse_hit);
            let looser: Vec<f64> = ub.iter().map(|u| u + 1.0).collect();
            let out = ctx.solve_with_bounds(lb, &looser, &opts());
            assert!(out.solution().is_some(), "{out:?}");
            cold
        };
        // Zero rows: pricing, FTRAN and bound flips over an empty basis.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 1.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: -1.0, ub: 2.0 });
        m.maximize([(x, 1.0), (y, -2.0)]);
        let s = check(&m, &[0.0, -1.0], &[1.0, 2.0]);
        assert!((s.solution().unwrap().objective - 3.0).abs() < 1e-9);
        // One row (an equality, so phase 1 runs and pivots).
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        let y = m.add_var("y", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        m.add_constraint([(x, 1.0), (y, 2.0)], Sense::Eq, 4.0);
        m.maximize([(x, 1.0), (y, 1.0)]);
        let s = check(&m, &[0.0; 2], &[3.0; 2]);
        assert!((s.solution().unwrap().objective - 3.5).abs() < 1e-9);
        // An empty column: z appears in no row but has a cost.
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous { lb: 0.0, ub: 3.0 });
        let z = m.add_var("z", VarKind::Continuous { lb: 0.0, ub: 2.0 });
        m.add_constraint([(x, 1.0)], Sense::Ge, 1.0);
        m.add_constraint([(x, 1.0)], Sense::Le, 2.0);
        m.maximize([(x, 1.0), (z, 1.0)]);
        let s = check(&m, &[0.0; 2], &[3.0, 2.0]);
        assert!((s.solution().unwrap().objective - 4.0).abs() < 1e-9);
        // Zero rows and zero columns.
        let mut m = Model::new();
        m.maximize([]);
        let mut ctx = LpContext::new(&m);
        assert_eq!(
            ctx.solve_with_bounds(&[], &[], &opts())
                .solution()
                .unwrap()
                .objective,
            0.0
        );
    }
}
