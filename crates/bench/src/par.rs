//! Deterministic parallel failure sweeps.
//!
//! [`stream_indexed`] is the crate's one worker pool: scoped threads
//! claim contiguous position batches through an atomic counter, carry a
//! per-worker state from position to position, and hand results back in
//! position order regardless of which worker finishes first.
//!
//! [`SweepEngine`] runs the failure cases of a sweep through it
//! (`--jobs N`, default: all cores) in the scenario sequence's order —
//! ascending colexicographic rank (see [`crate::ScenarioSpace`]).
//! Scenarios are **streamed**: each worker materializes a failure set on
//! demand with [`crate::ScenarioSpace::unrank`], so live scenario storage
//! never exceeds `jobs × batch` entries however large `C(n, f)` grows
//! ([`SweepEngine::live_peak`] reports the observed high-water mark).
//! `--shard i/m` restricts a run to one contiguous slice of the sequence
//! and `--max-scenarios` subsamples it; both compose with any job count
//! without changing a single result byte.
//!
//! Each case reuses the engine's [`NetCache`] (shortest-path trees,
//! path counts, programmability, controller loads, delay orders), so a
//! case costs only the algorithms themselves. Metric output is therefore
//! byte-identical between `--jobs 1` and any other thread count; only the
//! wall-clock statistics vary run to run.

use crate::harness::{case_label, run_algorithms, CaseResult, EvalOptions};
use crate::scenario_space::{ScenarioSelection, ScenarioSpace};
use pm_core::{FmssmInstance, Pm, PmWorkspace, RecoveryAlgorithm};
use pm_sdwan::{
    ControllerId, FailureScenario, NetCache, PlanMetrics, Programmability, RecoveryPlan, SdWan,
    SdwanError,
};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The telemetry names a [`stream_indexed`] pool reports under when the
/// [`pm_obs`] recorder is on: thread labels `{prefix}-worker-{w}`,
/// per-worker counters `{prefix}.worker.{w}.busy_ns` and
/// `{prefix}.worker.{w}.{item}`, the `{prefix}.queue_wait_ns` histogram
/// and the in-flight high-water mark `live_peak`.
#[derive(Debug, Clone, Copy)]
pub struct PoolNames {
    /// Namespace of the thread labels, worker counters and queue wait.
    pub prefix: &'static str,
    /// Suffix of the per-worker item counter.
    pub item: &'static str,
    /// Counter holding the most positions ever in flight at once.
    pub live_peak: &'static str,
}

/// The names of the failure-case pool: the sweep engine, the store build
/// and `pmctl repro`'s independent work items.
pub const SWEEP_POOL: PoolNames = PoolNames {
    prefix: "sweep",
    item: "cases",
    live_peak: "sweep.scenario.live_peak",
};

/// Streams the integer positions of `range` through a batch-claiming
/// worker pool and returns `f(state, position)` results in **position
/// order**, whatever the completion order, with the most positions that
/// were in flight at once during this call. This is the crate's one work
/// pool: workers claim contiguous batches of `batch` positions through an
/// atomic counter, so at most `jobs × batch` positions are in flight at
/// once and output is independent of the job count. With the recorder
/// on, the peak is also raised into the `names.live_peak` counter.
///
/// Each worker builds its own `state` with `init` and threads it through
/// every position it runs, in ascending order within a batch and across
/// the batches it claims. With `jobs <= 1` (or at most one position) the
/// whole range runs on the calling thread against one state.
///
/// # Panics
///
/// Panics if `f` panics on any position (propagated when the worker
/// scope joins).
pub fn stream_indexed<S, R>(
    range: Range<u64>,
    jobs: usize,
    batch: usize,
    names: PoolNames,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, u64) -> R + Sync,
) -> (Vec<R>, u64)
where
    R: Send,
{
    let total = usize::try_from(range.end.saturating_sub(range.start))
        .expect("streamed result set fits memory");
    let obs = pm_obs::enabled();
    let jobs = jobs.clamp(1, total.max(1));
    let batch = batch.max(1);
    if jobs <= 1 {
        let peak = u64::from(total > 0);
        if obs && total > 0 {
            pm_obs::count_max(names.live_peak, peak);
        }
        let mut state = init();
        return (range.map(|pos| f(&mut state, pos)).collect(), peak);
    }
    let next = AtomicU64::new(0);
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (next, live, peak, slots, init, f) = (&next, &live, &peak, &slots, &init, &f);
            let range = range.clone();
            scope.spawn(move || {
                // Names are formatted once per worker, never per item.
                let (busy_name, item_name, wait_name) = if obs {
                    let p = names.prefix;
                    pm_obs::set_thread_label(format!("{p}-worker-{w}"));
                    (
                        format!("{p}.worker.{w}.busy_ns"),
                        format!("{p}.worker.{w}.{}", names.item),
                        format!("{p}.queue_wait_ns"),
                    )
                } else {
                    Default::default()
                };
                let mut state = init();
                // "Queue wait" is the gap between claimed batches on this
                // worker: dispatch plus the result-slot locks of the
                // previous batch. It bounds the merge/dispatch overhead
                // the pool adds on top of the work itself.
                let mut idle_since = obs.then(Instant::now);
                let mut worker_peak = 0;
                loop {
                    let claim = next.fetch_add(1, Ordering::Relaxed);
                    let start = range.start + claim * batch as u64;
                    if start >= range.end {
                        break;
                    }
                    let end = (start + batch as u64).min(range.end);
                    let claimed = (end - start) as usize;
                    let now = live.fetch_add(claimed, Ordering::Relaxed) + claimed;
                    worker_peak = worker_peak.max(now);
                    if obs {
                        pm_obs::count_max(names.live_peak, now as u64);
                    }
                    if let Some(t0) = idle_since {
                        pm_obs::observe(&wait_name, elapsed_ns(t0));
                    }
                    for pos in start..end {
                        let busy_t0 = obs.then(Instant::now);
                        let r = f(&mut state, pos);
                        if let Some(t0) = busy_t0 {
                            pm_obs::count(&busy_name, elapsed_ns(t0));
                            pm_obs::count(&item_name, 1);
                        }
                        let slot = (pos - range.start) as usize;
                        slots.lock().expect("no poisoned worker")[slot] = Some(r);
                    }
                    live.fetch_sub(claimed, Ordering::Relaxed);
                    idle_since = obs.then(Instant::now);
                }
                peak.fetch_max(worker_peak, Ordering::Relaxed);
            });
        }
    });
    let results = slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect();
    (results, peak.into_inner() as u64)
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs failure sweeps against one network, in parallel, with every
/// per-network quantity precomputed once.
///
/// # Example
///
/// ```
/// use pm_bench::{EvalOptions, SweepEngine};
/// use pm_sdwan::SdWanBuilder;
///
/// let net = SdWanBuilder::att_paper_setup().build()?;
/// let opts = EvalOptions { skip_optimal: true, ..Default::default() };
/// let engine = SweepEngine::new(&net, opts);
/// let cases = engine.sweep(1); // all 6 single-failure cases, in order
/// assert_eq!(cases.len(), 6);
/// assert_eq!(cases[0].label, "(2)");
/// # Ok::<(), pm_sdwan::SdwanError>(())
/// ```
#[derive(Debug)]
pub struct SweepEngine<'net> {
    net: &'net SdWan,
    cache: NetCache,
    opts: EvalOptions,
    /// The most positions any of this engine's pool runs had in flight.
    live_peak: AtomicU64,
}

/// State one sweep worker carries from case to case on the incremental
/// path: the previous scenario (patched in place by
/// [`pm_sdwan::FailureScenario::apply_delta_cached`] chains) and PM's
/// reusable buffers. Dropping it between cases reproduces the cold path
/// bit for bit — it holds no decisions, only already-computed state.
#[derive(Debug, Default)]
struct DeltaState<'net> {
    scenario: Option<FailureScenario<'net>>,
    ws: PmWorkspace,
}

impl<'net> SweepEngine<'net> {
    /// Precomputes the [`NetCache`] of `net` and readies a pool of
    /// `opts.jobs` workers (created per sweep; no threads idle between
    /// calls).
    pub fn new(net: &'net SdWan, opts: EvalOptions) -> Self {
        let cache = NetCache::build(net);
        SweepEngine {
            net,
            cache,
            opts,
            live_peak: AtomicU64::new(0),
        }
    }

    /// The network under evaluation.
    pub fn network(&self) -> &'net SdWan {
        self.net
    }

    /// The per-network cache shared by all cases.
    pub fn cache(&self) -> &NetCache {
        &self.cache
    }

    /// Gives up the engine, keeping its per-network cache — for a caller
    /// that outlives the sweeps but still answers cases of the same
    /// network (`pmd`'s beyond-horizon solves).
    pub(crate) fn into_cache(self) -> NetCache {
        self.cache
    }

    /// The cached programmability table.
    pub fn programmability(&self) -> &Programmability {
        self.cache.programmability()
    }

    /// The evaluation options this engine runs with.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// The most scenarios (or timelines) this engine has had in flight
    /// at once over all its sweeps, and the streaming contract's bound on
    /// it, `jobs × batch`. Measured by the engine itself, so it does not
    /// depend on the recorder or on other engines in the process.
    ///
    /// # Panics
    ///
    /// Panics if the peak exceeds the bound: the dispatch broke its contract.
    pub fn live_peak(&self) -> (u64, u64) {
        let peak = self.live_peak.load(Ordering::Relaxed);
        let bound = (self.opts.jobs as u64).saturating_mul(self.opts.batch as u64);
        assert!(
            peak <= bound,
            "live peak {peak} exceeds the contract bound jobs*batch = {bound}"
        );
        (peak, bound)
    }

    /// [`stream_indexed`] with this engine's job count and batch size,
    /// raising [`SweepEngine::live_peak`] to the call's peak.
    pub(crate) fn stream_pool<S, R: Send>(
        &self,
        range: Range<u64>,
        names: PoolNames,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, u64) -> R + Sync,
    ) -> Vec<R> {
        let (results, peak) =
            stream_indexed(range, self.opts.jobs, self.opts.batch, names, init, f);
        self.live_peak.fetch_max(peak, Ordering::Relaxed);
        results
    }

    /// Builds the failure scenario for `failed` from cached state.
    ///
    /// # Errors
    ///
    /// As for [`SdWan::fail`].
    pub fn scenario(&self, failed: &[ControllerId]) -> Result<FailureScenario<'net>, SdwanError> {
        self.net.fail_cached(failed, &self.cache)
    }

    /// Runs all algorithms on one failure case.
    ///
    /// # Panics
    ///
    /// Panics if the case is invalid or an algorithm produces an invalid
    /// plan — both indicate bugs, not data errors.
    pub fn run_case(&self, failed: &[ControllerId]) -> CaseResult {
        self.run_case_in(failed, &mut DeltaState::default())
    }

    /// [`SweepEngine::run_case`] against a worker's carried state (see
    /// [`SweepEngine::with_case`]).
    fn run_case_in(&self, failed: &[ControllerId], state: &mut DeltaState<'net>) -> CaseResult {
        let label = case_label(self.net, failed);
        let case_t0 = pm_obs::enabled().then(Instant::now);
        let _span = pm_obs::span_labeled("sweep.case", label.clone());
        let runs = self.with_case(failed, state, |_, inst, ws| {
            run_algorithms(inst, &self.opts, ws)
        });
        if pm_obs::enabled() {
            pm_obs::count("sweep.cases", 1);
        }
        // Per-case wall time as a histogram, so a live scrape can derive a
        // running p95 (`pmctl obs top`) — the span aggregate only exposes
        // totals and the max.
        if let Some(t0) = case_t0 {
            pm_obs::observe("sweep.case_ns", elapsed_ns(t0));
        }
        CaseResult {
            failed: failed.to_vec(),
            label,
            runs,
        }
    }

    /// Solves one failure case with PM alone and returns the plan itself
    /// — the lookup side of the `pmd` plan store compares against exactly
    /// this. Byte-identical to the PM run inside
    /// [`SweepEngine::run_case`]: same cached instance construction, same
    /// warm-workspace entry point.
    ///
    /// # Panics
    ///
    /// Panics if the case is invalid or PM produces an invalid plan —
    /// both indicate bugs, not data errors.
    pub fn solve_plan(&self, failed: &[ControllerId]) -> SolvedPlan {
        self.solve_plan_in(failed, &mut DeltaState::default())
    }

    fn solve_plan_in(&self, failed: &[ControllerId], state: &mut DeltaState<'net>) -> SolvedPlan {
        let label = case_label(self.net, failed);
        let _span = pm_obs::span_labeled("store.solve", label.clone());
        self.with_case(failed, state, |_, inst, ws| {
            SolvedPlan::solve(failed, label, inst, ws)
        })
        .expect("PM produces a valid plan")
    }

    /// The per-case step every case path shares: leaves `state` at the
    /// scenario for `failed`, builds its cached instance and hands both
    /// to `f` with the worker's PM buffers.
    ///
    /// When `state` carries the previous case's scenario, the new failure
    /// set is reached by a chain of single `(revived, failed)` swaps
    /// patched in place — the dominant cost of a heuristic-only case —
    /// instead of a rebuild. A fresh `state` ([`SweepEngine::run_case`])
    /// takes the cold path.
    /// Consecutive colex positions usually differ in one controller;
    /// across block boundaries (or sampled selections) the symmetric
    /// difference is larger. Every swap reproduces the fresh construction
    /// exactly, so results are byte-identical to the cold path.
    fn with_case<R>(
        &self,
        failed: &[ControllerId],
        state: &mut DeltaState<'net>,
        f: impl FnOnce(&FailureScenario<'net>, &FmssmInstance<'_, '_>, &mut PmWorkspace) -> R,
    ) -> R {
        let DeltaState { scenario: slot, ws } = state;
        match slot.as_mut() {
            Some(prev) if prev.failed_controllers().len() == failed.len() => {
                let outs: Vec<ControllerId> = prev
                    .failed_controllers()
                    .iter()
                    .copied()
                    .filter(|c| !failed.contains(c))
                    .collect();
                let ins: Vec<ControllerId> = failed
                    .iter()
                    .copied()
                    .filter(|c| !prev.failed_controllers().contains(c))
                    .collect();
                for (&remove, &add) in outs.iter().zip(&ins) {
                    prev.apply_delta_cached(remove, add, &self.cache)
                        .expect("symmetric-difference swaps are valid");
                }
                if pm_obs::enabled() {
                    pm_obs::count("sweep.scenario.delta_cases", 1);
                    pm_obs::count("sweep.scenario.delta_swaps", outs.len() as u64);
                }
            }
            _ => *slot = Some(self.scenario(failed).expect("valid failure case")),
        }
        let scenario = slot.as_ref().expect("scenario just advanced");
        let inst_span = pm_obs::span("sweep.instance");
        let inst = FmssmInstance::new(scenario, self.cache.programmability());
        drop(inst_span);
        f(scenario, &inst, ws)
    }

    /// The scenario selection a `f`-failure sweep of this engine executes:
    /// the full colex rank space of f-subsets of the controllers, cut down
    /// to [`EvalOptions::max_scenarios`] by seeded sampling when set.
    pub fn selection(&self, f: usize) -> ScenarioSelection {
        let space = ScenarioSpace::new(self.net.controllers().len(), f);
        match self.opts.max_scenarios {
            Some(max) => ScenarioSelection::sampled(space, max, self.opts.seed),
            None => ScenarioSelection::exhaustive(space),
        }
    }

    /// Runs every `k`-controller-failure case of this engine's
    /// [`SweepEngine::selection`], in ascending colex rank order,
    /// restricted to [`EvalOptions::shard`] when set.
    pub fn sweep(&self, k: usize) -> Vec<CaseResult> {
        let sel = self.selection(k);
        self.sweep_selection(&sel)
    }

    /// Runs the scenarios of `sel` this engine's shard covers, streamed
    /// through [`stream_indexed`] with at most `jobs × batch` in flight,
    /// in position order. The m shards of a selection concatenated in
    /// shard order are byte-identical to the unsharded run.
    pub fn sweep_selection(&self, sel: &ScenarioSelection) -> Vec<CaseResult> {
        let range = sel.shard_range(self.opts.shard);
        if pm_obs::enabled() {
            pm_obs::count_max("sweep.scenario.space_size", sel.space().count());
            pm_obs::count_max("sweep.scenario.selected", sel.len());
            // What `sweep.cases` reaches when every sweep of the run is
            // done: the cases this shard runs, summed over the sweeps.
            pm_obs::count("sweep.scenario.planned", range.end - range.start);
            if sel.is_sampled() {
                pm_obs::count("sweep.scenario.sampled_sweeps", 1);
            }
        }
        self.stream(sel, range, |_, failed, state| {
            self.run_case_in(failed, state)
        })
    }

    /// Solves every scenario of `sel` with PM — the `pmd` plan-store
    /// build — and hands each plan with its position in `sel` to `keep` on
    /// the worker that solved it, so only what `keep` returns outlives the
    /// solve. The whole selection is solved (shards do not apply: a plan
    /// store answers any rank); results come back in ascending position
    /// order, byte-identical at any job count.
    pub fn solve_selection<R: Send>(
        &self,
        sel: &ScenarioSelection,
        keep: impl Fn(u64, SolvedPlan) -> R + Sync,
    ) -> Vec<R> {
        self.stream(sel, 0..sel.len(), |pos, failed, state| {
            keep(pos, self.solve_plan_in(failed, state))
        })
    }

    /// The one streaming case path: the positions of `range` go through
    /// [`stream_indexed`] with [`EvalOptions::jobs`] workers claiming
    /// [`EvalOptions::batch`] positions at a time, so at most
    /// `jobs × batch` scenarios are in flight
    /// ([`SweepEngine::live_peak`]). Each worker unranks its
    /// positions into one reused buffer and runs `case` on the position,
    /// its failure set and the worker's own [`DeltaState`].
    fn stream<R: Send>(
        &self,
        sel: &ScenarioSelection,
        range: Range<u64>,
        case: impl Fn(u64, &[ControllerId], &mut DeltaState<'net>) -> R + Sync,
    ) -> Vec<R> {
        self.stream_pool(
            range,
            SWEEP_POOL,
            || (DeltaState::default(), Vec::new()),
            |(state, failed), pos| {
                sel.scenario_at_into(pos, failed);
                case(pos, failed, state)
            },
        )
    }
}

/// One PM-solved failure case: the plan itself plus its metrics — the
/// unit [`crate::PlanStore`] holds and `pmd` serves.
#[derive(Debug, Clone)]
pub struct SolvedPlan {
    /// The failed controllers, ascending.
    pub failed: Vec<ControllerId>,
    /// The paper-style case label, e.g. `(13,20)`.
    pub label: String,
    /// PM's recovery plan.
    pub plan: RecoveryPlan,
    /// All evaluation metrics of the plan.
    pub metrics: PlanMetrics,
    /// Wall-clock time of the recovery computation.
    pub elapsed: Duration,
}

impl SolvedPlan {
    /// PM's solve → check → metrics step on a built instance: the unit
    /// of the plan-store build ([`SweepEngine::solve_plan`]) and of
    /// `pmd`'s beyond-horizon fallback. `ws` only lends buffers, so the
    /// plan is byte-identical to a cold solve.
    ///
    /// # Errors
    ///
    /// PM's error or the plan validator's, as text.
    pub(crate) fn solve(
        failed: &[ControllerId],
        label: String,
        inst: &FmssmInstance<'_, '_>,
        ws: &mut PmWorkspace,
    ) -> Result<SolvedPlan, String> {
        let pm = Pm::new();
        let t0 = Instant::now();
        let plan = pm.recover_in(inst, ws).map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        let (metrics, _) = inst
            .evaluate(&plan, pm.is_flow_level(), pm.middle_layer_ms())
            .map_err(|e| e.to_string())?;
        Ok(SolvedPlan {
            failed: failed.to_vec(),
            label,
            plan,
            metrics,
            elapsed,
        })
    }
}

/// Wall-clock statistics of one algorithm across a sweep's cases.
#[derive(Debug, Clone)]
pub struct TimingStats {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Number of cases the algorithm ran in.
    pub cases: usize,
    /// Mean per-case computation time.
    pub mean: Duration,
    /// 95th-percentile per-case computation time (nearest-rank).
    pub p95: Duration,
    /// Worst per-case computation time.
    pub max: Duration,
}

/// Per-algorithm timing statistics over a list of cases, in the
/// algorithms' first-seen order.
pub fn timing_stats(cases: &[CaseResult]) -> Vec<TimingStats> {
    let mut order: Vec<&'static str> = Vec::new();
    for case in cases {
        for run in &case.runs {
            if !order.contains(&run.name) {
                order.push(run.name);
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let mut times: Vec<Duration> = cases
                .iter()
                .filter_map(|c| c.run(name))
                .map(|r| r.elapsed)
                .collect();
            times.sort();
            let n = times.len();
            let total: Duration = times.iter().sum();
            // Nearest-rank p95: the ceil(0.95 n)-th smallest value.
            let rank = (n * 95).div_ceil(100).max(1);
            TimingStats {
                algorithm: name,
                cases: n,
                mean: total / n as u32,
                p95: times[rank - 1],
                max: *times.last().expect("at least one case"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;

    #[test]
    fn stream_indexed_matches_serial_and_preserves_position_order() {
        // Uneven per-position cost so completion order differs from
        // position order.
        let f = |_: &mut (), pos: u64| {
            if pos % 5 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            pos * pos
        };
        let (serial, serial_peak) = stream_indexed(3..40, 1, 4, SWEEP_POOL, || (), f);
        let (parallel, parallel_peak) = stream_indexed(3..40, 8, 4, SWEEP_POOL, || (), f);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], 9);
        assert_eq!(serial.len(), 37);
        assert_eq!(serial_peak, 1);
        assert!((4..=8 * 4).contains(&parallel_peak), "{parallel_peak}");
        assert_eq!(
            stream_indexed(5..5, 4, 4, SWEEP_POOL, || (), |_, p| p),
            (vec![], 0)
        );
        assert_eq!(
            stream_indexed(5..6, 4, 1, SWEEP_POOL, || (), |_, p| p + 1),
            (vec![6], 1)
        );
        // Each worker threads one state through the positions it runs,
        // in ascending order.
        let (runs, _) = stream_indexed(0..64, 3, 4, SWEEP_POOL, Vec::new, |seen, pos| {
            seen.push(pos);
            seen.clone()
        });
        for (pos, seen) in runs.iter().enumerate() {
            assert_eq!(seen.last(), Some(&(pos as u64)));
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
        }
    }

    #[test]
    fn engine_matches_serial_harness() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 4,
            ..Default::default()
        };
        let engine = SweepEngine::new(&net, opts.clone());
        let prog = Programmability::compute(&net);
        for case in engine.sweep(1) {
            // Reference: an uncached scenario and instance, fresh buffers.
            let scenario = net.fail(&case.failed).unwrap();
            let inst = FmssmInstance::new(&scenario, &prog);
            let serial = run_algorithms(&inst, &opts, &mut Default::default());
            assert_eq!(case.label, case_label(&net, &case.failed));
            assert_eq!(case.runs.len(), serial.len());
            for (a, b) in case.runs.iter().zip(&serial) {
                assert_eq!(a.name, b.name);
                assert_eq!(
                    a.metrics.per_flow_programmability,
                    b.metrics.per_flow_programmability
                );
                assert_eq!(
                    a.metrics.total_programmability,
                    b.metrics.total_programmability
                );
                assert_eq!(a.metrics.recovered_flows, b.metrics.recovered_flows);
                assert!((a.total_delay - b.total_delay).abs() < 1e-9);
            }
        }
    }

    /// All metric-bearing fields of a case, as a comparable string.
    fn case_fingerprint(c: &CaseResult) -> String {
        let runs: Vec<String> = c
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{}:{}:{}:{}",
                    r.name,
                    r.metrics.total_programmability,
                    r.metrics.recovered_flows,
                    r.metrics.min_programmability
                )
            })
            .collect();
        format!("{}|{}", c.label, runs.join(";"))
    }

    #[test]
    fn streamed_sweep_matches_materialized_cases() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 4,
            batch: 2,
            ..Default::default()
        };
        let engine = SweepEngine::new(&net, opts);
        for k in 1..=3 {
            let streamed = engine.sweep(k);
            // Reference: materialize the same colex sequence and run each
            // case cold.
            let sel = engine.selection(k);
            let reference: Vec<CaseResult> = (0..sel.len())
                .map(|p| engine.run_case(&sel.scenario_at(p)))
                .collect();
            assert_eq!(streamed.len(), reference.len());
            for (a, b) in streamed.iter().zip(&reference) {
                assert_eq!(case_fingerprint(a), case_fingerprint(b), "k = {k}");
            }
        }
    }

    #[test]
    fn shard_union_equals_unsharded() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let base = EvalOptions {
            skip_optimal: true,
            jobs: 3,
            batch: 2,
            ..Default::default()
        };
        let full: Vec<String> = SweepEngine::new(&net, base.clone())
            .sweep(2)
            .iter()
            .map(case_fingerprint)
            .collect();
        for m in [1usize, 2, 4] {
            let mut union = Vec::new();
            for i in 1..=m {
                let opts = EvalOptions {
                    shard: Some((i, m)),
                    ..base.clone()
                };
                union.extend(
                    SweepEngine::new(&net, opts)
                        .sweep(2)
                        .iter()
                        .map(case_fingerprint),
                );
            }
            assert_eq!(union, full, "m = {m} shards must reassemble the sweep");
        }
    }

    #[test]
    fn max_scenarios_caps_and_seeds_the_sweep() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = |max: Option<u64>, seed: u64| EvalOptions {
            skip_optimal: true,
            jobs: 2,
            max_scenarios: max,
            seed,
            ..Default::default()
        };
        // C(6, 3) = 20; a budget of 8 samples, a budget of 100 does not.
        let sampled = SweepEngine::new(&net, opts(Some(8), 1)).sweep(3);
        assert_eq!(sampled.len(), 8);
        let again = SweepEngine::new(&net, opts(Some(8), 1)).sweep(3);
        assert_eq!(
            sampled.iter().map(case_fingerprint).collect::<Vec<_>>(),
            again.iter().map(case_fingerprint).collect::<Vec<_>>(),
        );
        let exhaustive = SweepEngine::new(&net, opts(Some(100), 1)).sweep(3);
        assert_eq!(exhaustive.len(), 20, "oversized budget stays exhaustive");
    }

    #[test]
    fn live_scenario_peak_stays_within_jobs_times_batch() {
        // The recorder is process-global; this is the only pm-bench unit
        // test that enables it, so the counters below are all ours.
        pm_obs::enable();
        pm_obs::reset();
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 2,
            batch: 3,
            ..Default::default()
        };
        let engine = SweepEngine::new(&net, opts);
        assert_eq!(engine.live_peak(), (0, 2 * 3), "nothing streamed yet");
        engine.sweep(2);
        // `live_peak` itself panics on a peak above the bound.
        let (peak, bound) = engine.live_peak();
        assert!(peak >= 1, "peak observed");
        assert_eq!(bound, 2 * 3);
        let counter = |name: &str| {
            pm_obs::snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(
            counter("sweep.scenario.space_size"),
            Some(15),
            "C(6,2) recorded"
        );
        assert!(counter("sweep.scenario.live_peak") >= Some(peak));
    }

    #[test]
    fn timing_stats_shape() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs: 2,
            ..Default::default()
        };
        let engine = SweepEngine::new(&net, opts);
        let cases = engine.sweep(1);
        let stats = timing_stats(&cases);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].algorithm, "RetroFlow");
        for s in &stats {
            assert_eq!(s.cases, cases.len());
            assert!(s.mean <= s.max);
            assert!(s.p95 <= s.max);
        }
    }
}
