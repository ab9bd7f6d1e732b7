//! Bounded-variable two-phase revised primal simplex.
//!
//! Solves `max c·x  s.t.  A x {≤,=,≥} b,  l ≤ x ≤ u`. The constraint matrix
//! is stored once as sparse columns and sparse rows ([`LpContext`]); each
//! solve maintains a dense basis inverse `B⁻¹` updated per pivot (product
//! form) and rebuilt from the basis columns every `REFACTOR_PERIOD` pivots
//! for numerical hygiene. Pricing works on reduced costs `c_j − y·A_j` with
//! `y = c_B·B⁻¹`, so an iteration never forms the dense tableau's
//! `O(m · ncols)` rows.
//!
//! Variables are shifted so every lower bound is zero; every row carries an
//! artificial column whose sign tracks the shifted right-hand side, giving
//! the phase-1 starting basis without cloning the matrix per solve (rows are
//! never sign-flipped, so one [`LpContext`] serves every bound combination a
//! branch-and-bound search asks about). Nonbasic variables rest at either
//! bound; the ratio test supports bound flips. Dantzig pricing with a
//! Bland's-rule fallback guards against cycling.
//!
//! **Layout.** `B⁻¹` is row-major and dense, but in FMSSM models it is
//! mostly exact zeros (12 % nonzero on the `optimal-14` pool, about a
//! quarter on ATT), and so are most pivot rows and much of `y`. Three
//! kernels therefore touch only the entries that can change a result:
//!
//! - *Pricing* is row-wise: `d = c` over the structural and slack columns,
//!   then for every row `i` with `y_i ≠ 0`, in ascending `i`, `d_j −= a_ij·y_i`
//!   along the row's entries (a CSR copy of the columns). One pass then
//!   picks the entering column from a per-column direction kept in step
//!   with the basis, the bound rests and the ranges.
//! - The *product-form update* scales the pivot row, gathers its nonzeros
//!   once as index and value, and subtracts `w_i` times them from every
//!   row with `w_i ≠ 0`, at those positions only.
//! - *Gauss–Jordan refactorization* gathers both pivot rows (the live part
//!   of the basis-matrix row and the inverse row) the same way and skips
//!   rows whose factor is zero.
//!
//! BTRAN (`y` accumulates `c_B[i]·row_i` over the basic columns with a
//! nonzero cost) and FTRAN (each row of `B⁻¹` dotted with the entering
//! column) stay dense row walks.
//!
//! **Zero-skipping rule.** A skipped term is always a product with an
//! exact zero factor, and every output element receives the remaining
//! products in the same order as the dense loop nest. Subtracting `±0`
//! leaves a value unchanged except for the sign of a zero (`−0 − (−0) =
//! +0`), and no decision reads a zero's sign: each compares against `tol`
//! or `0.0` or takes `abs`. Pivots, bound flips, node counts and
//! objective bits are therefore those of the dense kernels; the test
//! module keeps those kernels as an oracle and replays random LPs through
//! both.
//!
//! **Cost per iteration.** BTRAN costs `m` per basic column with a
//! nonzero cost, FTRAN `m` per entry of the entering column (at most
//! `O(m²)` each). Pricing costs `O(ncols)` plus the entries of the rows
//! with `y_i ≠ 0`; the update costs `m` plus (rows with `w_i ≠ 0`) ×
//! (pivot-row nonzeros), and a refactorization, every `REFACTOR_PERIOD`
//! pivots, the same per elimination step. The recorder counts the pricing
//! and update terms (`milp.simplex.priced_rows`,
//! `milp.simplex.update_nnz`).
//!
//! **Workspace.** All per-solve buffers (`B⁻¹`, basic values, basis, bound
//! rests, pricing directions, shifted ranges and right-hand sides,
//! FTRAN/BTRAN vectors, reduced costs, gathered pivot rows, the
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
use std::marker::PhantomData;

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

/// Solves the LP relaxation of `model` (integrality dropped) under the
/// model's own bounds. Repeated solves over one model should build an
/// [`LpContext`] once instead.
///
/// # Panics
///
/// Panics if the model has no objective.
pub fn solve_relaxation(model: &Model, opts: &SimplexOptions) -> LpOutcome {
    let (lb, ub): (Vec<f64>, Vec<f64>) =
        (0..model.var_count()).map(|i| model.bounds(Var(i))).unzip();
    LpContext::new(model).solve_with_bounds(&lb, &ub, opts)
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtBound {
    Lower,
    Upper,
}

/// The bounds-independent part of an LP: sparse columns of the constraint
/// matrix (structural variables, then one slack/surplus per inequality
/// row, then one artificial per row), the same entries row by row, and
/// the phase costs.
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
    /// CSC storage for columns `0..n_fixed`, rows ascending per column.
    col_ptr: Vec<usize>,
    col_rows: Vec<usize>,
    col_vals: Vec<f64>,
    /// CSR storage of the same entries, for row-wise pricing.
    row_ptr: Vec<usize>,
    row_cols: Vec<u32>,
    row_vals: Vec<f64>,
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

/// A row's nonzeros gathered as `(index, value)` pairs.
#[derive(Debug, Default)]
struct Gathered {
    nonzeros: Vec<(usize, f64)>,
}

impl Gathered {
    /// Scales `row` by `s` in place and gathers the nonzero results;
    /// `offset` is the column of `row[0]`.
    fn scale_from(&mut self, row: &mut [f64], s: f64, offset: usize) {
        self.nonzeros.clear();
        for (k, v) in row.iter_mut().enumerate() {
            *v *= s;
            if *v != 0.0 {
                self.nonzeros.push((offset + k, *v));
            }
        }
    }

    /// `row[k] −= f·v` at every gathered `(k, v)`. Every `k` is in range
    /// by construction; `get_mut` only keeps a panic path out of the loop,
    /// which measurably speeds it up.
    fn subtract_from(&self, row: &mut [f64], f: f64) {
        for &(k, v) in &self.nonzeros {
            if let Some(x) = row.get_mut(k) {
                *x -= f * v;
            }
        }
    }
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
    /// Pricing direction per column: `1.0` for a nonbasic column at its
    /// lower bound that may increase, `-1.0` for one at its upper bound
    /// that may decrease, `0.0` for a basic column or one whose range is
    /// at most `tol`. Derived from `in_basis`, `at` and `range` at the
    /// start of each phase and kept in step by every pivot and flip.
    dir: Vec<f64>,
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
    /// Reduced costs of columns `0..n_fixed`.
    d: Vec<f64>,
    /// Right-hand side net of upper-resting nonbasics.
    b_eff: Vec<f64>,
    /// Gathered pivot rows: of `B⁻¹` (the update and the refactorization)
    /// and of the basis matrix (the refactorization).
    pivot_row: Gathered,
    pivot_row_b: Gathered,
    /// Basis matrix being inverted by the refactorization (allocated by
    /// the first one, since short solves never refactorize).
    mat: Vec<f64>,
}

impl Workspace {
    fn new(m: usize, n_fixed: usize, ncols: usize) -> Self {
        Workspace {
            binv: vec![0.0; m * m],
            bvals: vec![0.0; m],
            basis: vec![0; m],
            in_basis: vec![None; ncols],
            at: vec![AtBound::Lower; ncols],
            dir: vec![0.0; ncols],
            range: vec![0.0; ncols],
            rhs: vec![0.0; m],
            art_sign: vec![0.0; m],
            w: vec![0.0; m],
            y: vec![0.0; m],
            d: vec![0.0; n_fixed],
            b_eff: vec![0.0; m],
            pivot_row: Gathered::default(),
            pivot_row_b: Gathered::default(),
            mat: Vec::new(),
        }
    }
}

/// A column's pricing direction (see [`Workspace::dir`]).
fn direction(basic: bool, at: AtBound, range: f64, tol: f64) -> f64 {
    match at {
        _ if basic || range <= tol => 0.0,
        AtBound::Lower => 1.0,
        AtBound::Upper => -1.0,
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
    /// Rows pricing scattered (those with `y_i ≠ 0`), summed over
    /// iterations.
    priced_rows: u64,
    /// `B⁻¹` entries the product-form updates wrote outside the pivot row.
    update_nnz: u64,
}

/// An LP held for repeated solves under changing variable bounds: its
/// sparse columns and rows, one set of solver buffers, and the last
/// optimal solve's basis for warm-starting. Build once per model, then
/// call [`LpContext::solve_with_bounds`] for each bound combination — the
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
    /// Extracts the sparse column and row structure of `model`. The
    /// context is bounds-free: per-node variable bounds arrive at solve
    /// time.
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

        // The same entries row by row: a count pass, then a scatter in
        // column order.
        let mut row_ptr = vec![0; m + 1];
        for &i in &col_rows {
            row_ptr[i + 1] += 1;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr[..m].to_vec();
        let mut row_cols = vec![0; col_rows.len()];
        let mut row_vals = vec![0.0; col_rows.len()];
        for (j, span) in col_ptr.windows(2).enumerate() {
            let j = u32::try_from(j).expect("column count fits in u32");
            for k in span[0]..span[1] {
                let slot = &mut next[col_rows[k]];
                row_cols[*slot] = j;
                row_vals[*slot] = col_vals[k];
                *slot += 1;
            }
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
                row_ptr,
                row_cols,
                row_vals,
                slack_col,
                rhs0,
                senses,
                obj,
                phase1,
                has_objective: model.has_objective(),
            },
            ws: Workspace::new(m, n_fixed, ncols),
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
        self.solve_using::<SkipZeros>(lb, ub, opts)
    }

    /// [`LpContext::solve_with_bounds`] on the kernels `K`.
    fn solve_using<K: Kernels>(
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
        let mut solver = Solver::<K>::new(&self.lp, &mut self.ws, lb, ub, opts);
        let out = solver.solve_phases(warm);
        let stats = solver.stats;
        if pm_obs::enabled() {
            pm_obs::count("milp.simplex.solves", 1);
            pm_obs::count("milp.simplex.pivots", stats.pivots);
            pm_obs::count("milp.simplex.bound_flips", stats.bound_flips);
            pm_obs::count("milp.simplex.refactorizations", stats.refactorizations);
            pm_obs::count("milp.simplex.priced_rows", stats.priced_rows);
            pm_obs::count("milp.simplex.update_nnz", stats.update_nnz);
            pm_obs::count("milp.basis.reuse_hits", u64::from(stats.reuse_hit));
        }
        self.warm = matches!(out, LpOutcome::Optimal(_));
        self.last = stats;
        out
    }
}

/// The per-iteration kernels that walk `B⁻¹` and the constraint rows:
/// pricing, the product-form update and the Gauss–Jordan elimination of a
/// refactorization. [`SkipZeros`] is the solver's one implementation; the
/// test module implements the dense loops it replaced and replays whole
/// solves through both.
trait Kernels: Sized {
    /// The entering column and whether it increases, or `None` when no
    /// eligible column improves `c`.
    fn price(s: &mut Solver<'_, Self>, c: &[f64], bland: bool) -> Option<(usize, bool)>;

    /// Product-form update of `B⁻¹` on pivot element `w[r]`: scale the
    /// pivot row, then subtract `w[i]` times it from every other row.
    fn update_inverse(s: &mut Solver<'_, Self>, r: usize);

    /// Inverts the assembled basis matrix `mat` into `binv` (which holds
    /// the identity) by Gauss–Jordan elimination with partial pivoting.
    /// Returns `false` when the matrix is numerically singular.
    fn invert(s: &mut Solver<'_, Self>) -> bool;
}

/// Kernels that skip every product with an exact zero factor (see the
/// module's zero-skipping rule).
struct SkipZeros;

impl Kernels for SkipZeros {
    /// Dantzig pricing: the eligible column with the largest reduced cost
    /// `|c_j − y·A_j|` (first such on ties), or the first eligible one
    /// under Bland's rule. The CSR rows scatter `y` into the reduced costs
    /// of the structural and slack columns; artificials are priced after
    /// them, in column order.
    fn price(s: &mut Solver<'_, Self>, c: &[f64], bland: bool) -> Option<(usize, bool)> {
        let (lp, ws, tol) = (s.lp, &mut *s.ws, s.tol);
        let d = &mut ws.d;
        d.copy_from_slice(&c[..lp.n_fixed]);
        for (&yi, span) in ws.y.iter().zip(lp.row_ptr.windows(2)) {
            if yi != 0.0 {
                s.stats.priced_rows += 1;
                let span = span[0]..span[1];
                for (&j, &a) in lp.row_cols[span.clone()].iter().zip(&lp.row_vals[span]) {
                    d[j as usize] -= a * yi;
                }
            }
        }
        // Offers column j with reduced cost dj; `true` ends the scan.
        // `dir·dj > tol` is the improving test and `|dir·dj| = |dj|`
        // exactly, since `dir` is ±1.
        let mut best = -1.0; // below every eligible score
        let mut entering = None;
        let mut offer = |j: usize, dir: f64, dj: f64| {
            let v = dir * dj;
            if v > tol && v.abs() > best {
                best = v.abs();
                entering = Some((j, dir > 0.0));
                return bland;
            }
            false
        };
        for (j, (&dir, &dj)) in ws.dir.iter().zip(&*d).enumerate() {
            if dir != 0.0 && offer(j, dir, dj) {
                return entering;
            }
        }
        let artificials = ws.dir[lp.n_fixed..].iter().zip(&ws.art_sign).zip(&ws.y);
        for (r, ((&dir, &sign), &yr)) in artificials.enumerate() {
            let j = lp.n_fixed + r;
            if dir != 0.0 && offer(j, dir, c[j] - sign * yr) {
                return entering;
            }
        }
        entering
    }

    fn update_inverse(s: &mut Solver<'_, Self>, r: usize) {
        let m = s.lp.m;
        let ws = &mut *s.ws;
        let p = ws.w[r];
        debug_assert!(p.abs() > 1e-12, "pivot too small");
        let pivot = &mut ws.pivot_row;
        pivot.scale_from(&mut ws.binv[r * m..(r + 1) * m], 1.0 / p, 0);
        for (i, (brow, &f)) in rows_mut(&mut ws.binv, m).zip(&ws.w).enumerate() {
            if i != r && f != 0.0 {
                pivot.subtract_from(brow, f);
                s.stats.update_nnz += pivot.nonzeros.len() as u64;
            }
        }
    }

    /// Once column `col` is eliminated no later step reads columns
    /// `..=col` of `mat`, so only `col + 1..` of its rows is kept up to
    /// date (and swapped).
    fn invert(s: &mut Solver<'_, Self>) -> bool {
        let m = s.lp.m;
        let ws = &mut *s.ws;
        let (b, inv) = (&mut ws.mat, &mut ws.binv);
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
                let (top, bottom) = b.split_at_mut(piv * m);
                top[col * m + col..(col + 1) * m].swap_with_slice(&mut bottom[col..m]);
                let (top, bottom) = inv.split_at_mut(piv * m);
                top[col * m..(col + 1) * m].swap_with_slice(&mut bottom[..m]);
            }
            let scale = 1.0 / b[col * m + col];
            let live = col * m + col + 1..(col + 1) * m;
            ws.pivot_row_b.scale_from(&mut b[live], scale, col + 1);
            ws.pivot_row
                .scale_from(&mut inv[col * m..(col + 1) * m], scale, 0);
            for (r, (brow_r, irow_r)) in rows_mut(b, m).zip(rows_mut(inv, m)).enumerate() {
                let f = brow_r[col];
                if r != col && f != 0.0 {
                    ws.pivot_row_b.subtract_from(brow_r, f);
                    ws.pivot_row.subtract_from(irow_r, f);
                }
            }
        }
        true
    }
}

/// One solve's state over a borrowed [`Lp`] and [`Workspace`], on the
/// kernels `K`.
struct Solver<'a, K> {
    lp: &'a Lp,
    ws: &'a mut Workspace,
    /// Structural lower bounds (for un-shifting the solution).
    shift: &'a [f64],
    /// Constant objective offset from the shift.
    obj_offset: f64,
    tol: f64,
    max_iters: usize,
    stats: SolveStats,
    kernels: PhantomData<K>,
}

enum PhaseEnd {
    Optimal,
    Unbounded,
    IterationLimit,
}

impl<'a, K: Kernels> Solver<'a, K> {
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
            kernels: PhantomData,
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
        let inv = &mut ws.binv;
        inv.fill(0.0);
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        if !K::invert(self) {
            return false;
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

    /// Derives every column's pricing direction from the basis, the bound
    /// rests and the ranges (see [`Workspace::dir`]).
    fn refresh_dir(&mut self) {
        let (ws, tol) = (&mut *self.ws, self.tol);
        let state = ws.in_basis.iter().zip(&ws.at).zip(&ws.range);
        for (dir, ((slot, &at), &range)) in ws.dir.iter_mut().zip(state) {
            *dir = direction(slot.is_some(), at, range, tol);
        }
    }

    /// Runs revised primal simplex iterations for the given column costs.
    fn optimize(&mut self, c: &[f64]) -> PhaseEnd {
        let m = self.lp.m;
        let bland_after = self.max_iters / 2;
        self.refresh_dir();
        for iter in 0..self.max_iters {
            // Price: y = c_B·B⁻¹, d_j = c_j − y·A_j.
            self.btran(c);
            let Some((j, increase)) = K::price(self, c, iter >= bland_after) else {
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
                ws.dir[j] = -ws.dir[j];
                continue;
            };
            self.stats.pivots += 1;
            // Entering variable's new value (shifted space).
            let enter_val = self.nonbasic_value(j) + delta * t;
            K::update_inverse(self, r);
            let ws = &mut *self.ws;
            let leaving_col = ws.basis[r];
            ws.basis[r] = j;
            ws.in_basis[j] = Some(r);
            ws.in_basis[leaving_col] = None;
            ws.at[leaving_col] = hit;
            ws.dir[j] = 0.0;
            ws.dir[leaving_col] = direction(false, hit, ws.range[leaving_col], self.tol);
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
        let mut ctx = LpContext::new(&m);
        let out = ctx.solve_with_bounds(&[0.0], &[2.0], &opts());
        let s = out.solution().expect("optimal");
        assert!((s.objective - 2.0).abs() < 1e-9);
        // Contradictory bounds are infeasible.
        assert_eq!(
            ctx.solve_with_bounds(&[3.0], &[2.0], &opts()),
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
            let cold = LpContext::new(&m).solve_with_bounds(&lb, &ub, &opts());
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

    /// The dense kernels the [`SkipZeros`] loops replaced, kept as their
    /// oracle: pricing walks every column's CSC entries (and keeps every
    /// reduced cost, not only the eligible ones), the update and the
    /// elimination walk whole rows. Under Bland's rule the scan still stops
    /// at the first improving column.
    struct Dense;

    impl Kernels for Dense {
        fn price(s: &mut Solver<'_, Self>, c: &[f64], bland: bool) -> Option<(usize, bool)> {
            let (lp, ws, tol) = (s.lp, &mut *s.ws, s.tol);
            let (at, in_basis, range) = (&ws.at, &ws.in_basis, &ws.range);
            let mut best = -1.0;
            let mut entering = None;
            let mut offer = |j: usize, d: f64| {
                let increase = at[j] == AtBound::Lower;
                let improving = if increase { d > tol } else { d < -tol };
                if improving && d.abs() > best {
                    best = d.abs();
                    entering = Some((j, increase));
                    return bland;
                }
                false
            };
            let skipped = |j: usize| in_basis[j].is_some() || range[j] <= tol;
            // Every column's reduced cost lands in `d`, which the replay
            // compares bit for bit; only eligible columns are offered.
            let mut found = false;
            for (j, (&cj, span)) in c.iter().zip(lp.col_ptr.windows(2)).enumerate() {
                let mut d = cj;
                for k in span[0]..span[1] {
                    d -= lp.col_vals[k] * ws.y[lp.col_rows[k]];
                }
                ws.d[j] = d;
                found = found || (!skipped(j) && offer(j, d));
            }
            if found {
                return entering;
            }
            for (r, j) in (lp.n_fixed..lp.ncols).enumerate() {
                if !skipped(j) && offer(j, c[j] - ws.art_sign[r] * ws.y[r]) {
                    return entering;
                }
            }
            entering
        }

        fn update_inverse(s: &mut Solver<'_, Self>, r: usize) {
            let m = s.lp.m;
            let ws = &mut *s.ws;
            let inv = 1.0 / ws.w[r];
            let prow = &mut ws.binv[r * m..(r + 1) * m];
            for v in prow.iter_mut() {
                *v *= inv;
            }
            let prow = prow.to_vec();
            for (i, (brow, &f)) in rows_mut(&mut ws.binv, m).zip(&ws.w).enumerate() {
                if i != r && f != 0.0 {
                    for (b, &v) in brow.iter_mut().zip(&prow) {
                        *b -= f * v;
                    }
                }
            }
        }

        fn invert(s: &mut Solver<'_, Self>) -> bool {
            let m = s.lp.m;
            let ws = &mut *s.ws;
            let (b, inv) = (&mut ws.mat, &mut ws.binv);
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
                let scale = 1.0 / b[col * m + col];
                for v in &mut b[col * m + col + 1..(col + 1) * m] {
                    *v *= scale;
                }
                for v in &mut inv[col * m..(col + 1) * m] {
                    *v *= scale;
                }
                let brow = b[col * m..(col + 1) * m].to_vec();
                let irow = inv[col * m..(col + 1) * m].to_vec();
                for r in 0..m {
                    let f = b[r * m + col];
                    if r == col || f == 0.0 {
                        continue;
                    }
                    for k in col + 1..m {
                        b[r * m + k] -= f * brow[k];
                    }
                    for k in 0..m {
                        inv[r * m + k] -= f * irow[k];
                    }
                }
            }
            true
        }
    }

    /// A uniform draw in `[-lim, lim)` with a full 53-bit mantissa, so
    /// the kernels' roundoff is not trivially exact.
    fn real(rng: &mut Rng, lim: f64) -> f64 {
        ((rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * lim
    }

    /// A random sparse LP for the kernel oracle. Variables are bounded,
    /// fixed or unbounded above; rows are `≤`, `≥` or `=` with right-hand
    /// sides of either sign, and coefficients are half-steps or full-width
    /// reals. By shape, rows hold at a random point with slack, hold it
    /// with equality (degenerate, with duplicated rows), or get an
    /// arbitrary right-hand side (often infeasible); unbounded-above
    /// variables with a positive cost make some models unbounded.
    fn oracle_lp(rng: &mut Rng) -> Model {
        let big = rng.below(6) == 0;
        let n = 1 + rng.below(if big { 90 } else { 30 }) as usize;
        let rows = rng.below(if big { 70 } else { 24 }) as usize;
        let fill = 1 + rng.below(5);
        let shape = rng.below(3);
        let mut m = Model::new();
        let mut point = Vec::with_capacity(n);
        let vars: Vec<_> = (0..n)
            .map(|i| {
                let lb = [0.0, 0.0, -2.0, 1.5][rng.below(4) as usize];
                let (kind, x) = match rng.below(6) {
                    0 => (VarKind::Continuous { lb, ub: lb }, lb),
                    1 => {
                        let ub = f64::INFINITY;
                        (VarKind::Continuous { lb, ub }, lb + rng.below(4) as f64)
                    }
                    _ => {
                        let ub = lb + 1.0 + rng.below(5) as f64;
                        let x = lb + (ub - lb) * rng.below(101) as f64 / 100.0;
                        (VarKind::Continuous { lb, ub }, x)
                    }
                };
                point.push(x);
                m.add_var(format!("x{i}"), kind)
            })
            .collect();
        // The last row drawn, which a degenerate model repeats.
        let mut previous: Option<(Vec<_>, Sense, f64)> = None;
        for _ in 0..rows {
            if let (Some((terms, sense, rhs)), 0) = (&previous, rng.below(8)) {
                m.add_constraint(terms.clone(), *sense, *rhs);
                continue;
            }
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.below(8) < fill {
                    let c = if rng.below(2) == 0 {
                        rng.half_steps(3)
                    } else {
                        real(rng, 3.0)
                    };
                    terms.push((v, c));
                }
            }
            let lhs: f64 = terms.iter().map(|&(v, c)| c * point[v.index()]).sum();
            let sense = [Sense::Le, Sense::Ge, Sense::Eq][rng.below(3) as usize];
            let rhs = match (shape, sense) {
                (1, _) | (_, Sense::Eq) => lhs,
                (0, Sense::Le) => lhs + rng.below(4) as f64,
                (0, _) => lhs - rng.below(4) as f64,
                _ => real(rng, 10.0),
            };
            m.add_constraint(terms.clone(), sense, rhs);
            previous = Some((terms, sense, rhs));
        }
        let mut costs = Vec::new();
        for &v in &vars {
            match rng.below(5) {
                0 => {}
                1 | 2 => costs.push((v, rng.half_steps(4))),
                _ => costs.push((v, real(rng, 4.0))),
            }
        }
        m.maximize(costs);
        m
    }

    /// An outcome with every float as its bits.
    fn outcome_bits(out: &LpOutcome) -> (u8, u64, Vec<u64>) {
        match out {
            LpOutcome::Optimal(s) => (
                0,
                s.objective.to_bits(),
                s.values.iter().map(|v| v.to_bits()).collect(),
            ),
            LpOutcome::Infeasible => (1, 0, Vec::new()),
            LpOutcome::Unbounded => (2, 0, Vec::new()),
            LpOutcome::IterationLimit => (3, 0, Vec::new()),
        }
    }

    /// What a replay reached, so a test can check the oracle saw every
    /// path.
    #[derive(Debug, Default)]
    struct Reached {
        outcomes: [u64; 4],
        reuse_hits: u64,
        max_pivots: u64,
        flips: u64,
    }

    /// Solves the LP of `seed` under a branch-and-bound-like sequence of
    /// bound changes on one [`SkipZeros`] context and one [`Dense`]
    /// context and asserts that both end every solve identically: the
    /// outcome with its value bits, the pivot, flip and refactorization
    /// counts, the warm-start verdict, the final basis, the last pricing's
    /// reduced costs (bit for bit) and `B⁻¹` (compared with `==`, so the
    /// two may differ in the sign of a zero).
    fn replay_against_dense(seed: u64, reached: &mut Reached) {
        let mut rng = Rng(seed);
        let model = oracle_lp(&mut rng);
        let n = model.var_count();
        let (root_lb, root_ub): (Vec<f64>, Vec<f64>) = (0..n).map(|i| model.bounds(Var(i))).unzip();
        let (mut lb, mut ub) = (root_lb.clone(), root_ub.clone());
        let mut fast = LpContext::new(&model);
        let mut dense = LpContext::new(&model);
        for step in 0..10 {
            let a = fast.solve_with_bounds(&lb, &ub, &opts());
            let b = dense.solve_using::<Dense>(&lb, &ub, &opts());
            let at = format!("seed {seed:#x} step {step} under {lb:?}/{ub:?}");
            assert_eq!(outcome_bits(&a), outcome_bits(&b), "{at}: {a:?} vs {b:?}");
            let (x, y) = (fast.last, dense.last);
            assert_eq!(
                (x.pivots, x.bound_flips, x.refactorizations, x.reuse_hit),
                (y.pivots, y.bound_flips, y.refactorizations, y.reuse_hit),
                "{at}"
            );
            assert_eq!(fast.warm, dense.warm, "{at}");
            assert_eq!(fast.ws.basis, dense.ws.basis, "{at}");
            assert!(fast.ws.binv == dense.ws.binv, "{at}: B⁻¹ differs");
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast.ws.d), bits(&dense.ws.d), "{at}: reduced costs");
            let kind = outcome_bits(&a).0;
            reached.outcomes[kind as usize] += 1;
            reached.reuse_hits += u64::from(x.reuse_hit);
            reached.max_pivots = reached.max_pivots.max(x.pivots);
            reached.flips += x.bound_flips;
            // Next bounds: branch on a value, loosen a bound (a warm-start
            // candidate), pin a variable, or jump back to the root.
            let Some(v) = (n > 0).then(|| rng.below(n as u64) as usize) else {
                break;
            };
            match (rng.below(6), a.solution()) {
                (0..=2, Some(s)) => {
                    let x = s.values[v];
                    if rng.below(2) == 0 {
                        ub[v] = x.floor().max(lb[v]);
                    } else {
                        lb[v] = x.ceil().min(ub[v]);
                    }
                }
                (3, _) => ub[v] = root_ub[v].max(ub[v] + 1.0),
                (4, _) => lb[v] = ub[v].min(lb[v] + 2.0),
                _ => (lb, ub) = (root_lb.clone(), root_ub.clone()),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(384))]

        #[test]
        fn kernels_match_the_dense_oracle(seed in 0u64..u64::MAX) {
            replay_against_dense(seed, &mut Reached::default());
        }
    }

    #[test]
    fn dense_oracle_replays_reach_every_path() {
        let mut reached = Reached::default();
        for seed in 0..256 {
            replay_against_dense(seed, &mut reached);
        }
        let [optimal, infeasible, unbounded, _] = reached.outcomes;
        assert!(
            optimal > 0 && infeasible > 0 && unbounded > 0,
            "{reached:?}"
        );
        assert!(reached.reuse_hits > 0 && reached.flips > 0, "{reached:?}");
        // A periodic refactorization inside a phase.
        assert!(reached.max_pivots > REFACTOR_PERIOD, "{reached:?}");
    }
}
