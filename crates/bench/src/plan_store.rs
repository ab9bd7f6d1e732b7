//! The precomputed recovery-plan store behind `pmd` (ROADMAP item 1).
//!
//! The paper's promise is *predictable* recovery: when a failure set is
//! observed, the plan must be served, not solved. [`PlanStore::build`]
//! enumerates every failure set of `f ≤ horizon` controllers through
//! [`crate::ScenarioSpace`] and solves them offline with the
//! [`crate::SweepEngine`]'s PM-only delta/warm-start path
//! ([`SweepEngine::solve_selection`]), so at failure time a lookup is one
//! rank computation plus one dense index.
//!
//! ## Layout
//!
//! Plans live in one dense `Vec`, ordered by failure count and then by
//! colexicographic rank within the count — the same order the sweep
//! engine emits. A *global rank* addresses the whole store:
//!
//! ```text
//! rank 0 .. C(n,1)                 — single failures,   colex order
//! rank C(n,1) .. C(n,1)+C(n,2)    — double failures,   colex order
//! ...                              — up to f = horizon
//! ```
//!
//! [`PlanStore::rank_of`] maps a failure set onto its global rank in
//! `O(f)` (Pascal-table binomials), [`PlanStore::get`] is a slice index.
//! Failure sets beyond the horizon are simply not present — the serving
//! layer ([`crate::pmd`]) falls back to an on-demand solve.

use crate::par::{SolvedPlan, SweepEngine};
use crate::scenario_space::{ScenarioSelection, ScenarioSpace};
use pm_sdwan::ControllerId;
use std::time::Duration;

/// One precomputed plan: PM's recovery plan in its stable text form
/// ([`pm_sdwan::RecoveryPlan::to_text`]) plus the summary metrics the
/// serving layer reports with it.
#[derive(Debug, Clone)]
pub struct StoredPlan {
    /// Global rank of this plan in the store.
    pub rank: u64,
    /// The failed controllers, ascending.
    pub failed: Vec<ControllerId>,
    /// The paper-style case label, e.g. `(13,20)`.
    pub label: String,
    /// The plan, serialized with [`pm_sdwan::RecoveryPlan::to_text`].
    pub plan_text: String,
    /// The paper's `obj₁ = r`: least per-flow programmability.
    pub min_programmability: u64,
    /// The paper's `obj₂`: summed per-flow programmability.
    pub total_programmability: u64,
    /// Offline flows recovered with programmability > 0.
    pub recovered_flows: usize,
    /// Offline flows in the scenario.
    pub offline_flows: usize,
    /// Offline switches remapped to an active controller.
    pub recovered_switches: usize,
    /// Offline switches in the scenario.
    pub offline_switches: usize,
    /// Wall-clock nanoseconds of the offline PM solve.
    pub solve_ns: u64,
}

impl StoredPlan {
    pub(crate) fn from_solved(rank: u64, solved: &SolvedPlan, buf: &mut String) -> StoredPlan {
        buf.clear();
        solved.plan.to_text_into(buf);
        StoredPlan {
            rank,
            failed: solved.failed.clone(),
            label: solved.label.clone(),
            plan_text: buf.clone(),
            min_programmability: solved.metrics.min_programmability,
            total_programmability: solved.metrics.total_programmability,
            recovered_flows: solved.metrics.recovered_flows,
            offline_flows: solved.metrics.offline_flows,
            recovered_switches: solved.metrics.recovered_switches,
            offline_switches: solved.metrics.offline_switches,
            solve_ns: u64::try_from(solved.elapsed.as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

/// A dense, rank-indexed store of every `f ≤ horizon` recovery plan.
#[derive(Debug)]
pub struct PlanStore {
    controllers: usize,
    horizon: usize,
    /// `offsets[f-1]` is the global rank of the first `f`-failure plan;
    /// `offsets[horizon]` is the total plan count.
    offsets: Vec<u64>,
    /// Per failure count `f` (index `f-1`), the rank space of its block.
    spaces: Vec<ScenarioSpace>,
    entries: Vec<StoredPlan>,
    build_elapsed: Duration,
}

impl PlanStore {
    /// Solves every failure set of up to `horizon` of the engine's
    /// controllers and stores the plans dense in global-rank order. Runs
    /// on the engine's configured worker pool; the result is
    /// byte-identical at any job count.
    ///
    /// # Panics
    ///
    /// Panics if the store would not fit memory or a case fails to solve
    /// — both indicate bugs or an absurd horizon, not data errors.
    pub fn build(engine: &SweepEngine<'_>, horizon: usize) -> PlanStore {
        let _span = pm_obs::span("store.build");
        let t0 = std::time::Instant::now();
        let controllers = engine.network().controllers().len();
        let mut offsets = Vec::with_capacity(horizon + 1);
        let mut spaces = Vec::with_capacity(horizon);
        let mut entries = Vec::new();
        let mut buf = String::new();
        let mut next_rank = 0u64;
        for f in 1..=horizon {
            offsets.push(next_rank);
            let space = ScenarioSpace::new(controllers, f);
            let sel = ScenarioSelection::exhaustive(space);
            for solved in engine.solve_selection(&sel) {
                entries.push(StoredPlan::from_solved(next_rank, &solved, &mut buf));
                next_rank += 1;
            }
            spaces.push(ScenarioSpace::new(controllers, f));
        }
        offsets.push(next_rank);
        if pm_obs::enabled() {
            pm_obs::count("store.build.plans", next_rank);
        }
        PlanStore {
            controllers,
            horizon,
            offsets,
            spaces,
            entries,
            build_elapsed: t0.elapsed(),
        }
    }

    /// The number of controllers the store was built for.
    pub fn controllers(&self) -> usize {
        self.controllers
    }

    /// The precomputed failure horizon `k` (plans exist for `f ≤ k`).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Total plans held.
    pub fn len(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wall-clock time of the offline build.
    pub fn build_elapsed(&self) -> Duration {
        self.build_elapsed
    }

    /// The plan at global rank `rank`, if within the store.
    pub fn get(&self, rank: u64) -> Option<&StoredPlan> {
        self.entries.get(usize::try_from(rank).ok()?)
    }

    /// The dense block of all `f`-failure plans (empty when `f` is 0 or
    /// beyond the horizon).
    pub fn block(&self, f: usize) -> &[StoredPlan] {
        if f == 0 || f > self.horizon {
            return &[];
        }
        let start = self.offsets[f - 1] as usize;
        let end = self.offsets[f] as usize;
        &self.entries[start..end]
    }

    /// The global rank of `failed`, or `None` when the set is empty, has
    /// duplicates, names an out-of-range controller, or lies beyond the
    /// horizon. Order-insensitive: the set is ranked, not the sequence.
    pub fn rank_of(&self, failed: &[ControllerId]) -> Option<u64> {
        let mut set = failed.to_vec();
        set.sort_unstable();
        set.dedup();
        if set.len() != failed.len() || set.is_empty() {
            return None;
        }
        let f = set.len();
        if f > self.horizon || set.last()?.index() >= self.controllers {
            return None;
        }
        Some(self.offsets[f - 1] + self.spaces[f - 1].rank(&set))
    }

    /// The stored plan for the failure set `failed`, if precomputed.
    pub fn lookup(&self, failed: &[ControllerId]) -> Option<&StoredPlan> {
        self.get(self.rank_of(failed)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::EvalOptions;
    use pm_sdwan::SdWanBuilder;

    fn store(jobs: usize, horizon: usize) -> (pm_sdwan::SdWan, PlanStore) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs,
            ..Default::default()
        };
        let store = {
            let engine = SweepEngine::new(&net, opts);
            PlanStore::build(&engine, horizon)
        };
        (net, store)
    }

    #[test]
    fn dense_layout_covers_all_scenarios_up_to_the_horizon() {
        // ATT paper setup: 6 controllers → C(6,1) + C(6,2) = 21 plans.
        let (_net, store) = store(1, 2);
        assert_eq!(store.controllers(), 6);
        assert_eq!(store.horizon(), 2);
        assert_eq!(store.len(), 21);
        assert_eq!(store.block(1).len(), 6);
        assert_eq!(store.block(2).len(), 15);
        assert!(store.block(0).is_empty());
        assert!(store.block(3).is_empty());
        // Global ranks are the entry indices, and every entry agrees.
        for (i, entry) in (0..store.len()).map(|r| (r, store.get(r).unwrap())) {
            assert_eq!(entry.rank, i);
            assert_eq!(store.rank_of(&entry.failed), Some(i));
            assert!(!entry.plan_text.is_empty() || entry.offline_switches == 0);
        }
        assert!(store.get(21).is_none());
    }

    #[test]
    fn lookup_is_order_insensitive_and_rejects_bad_sets() {
        let (_net, store) = store(2, 2);
        let fwd = store.lookup(&[ControllerId(1), ControllerId(4)]).unwrap();
        let rev = store.lookup(&[ControllerId(4), ControllerId(1)]).unwrap();
        assert_eq!(fwd.rank, rev.rank);
        assert_eq!(fwd.plan_text, rev.plan_text);
        // Empty, duplicate, out-of-range and beyond-horizon sets miss.
        assert!(store.rank_of(&[]).is_none());
        assert!(store.rank_of(&[ControllerId(1), ControllerId(1)]).is_none());
        assert!(store.rank_of(&[ControllerId(9)]).is_none());
        assert!(store
            .rank_of(&[ControllerId(0), ControllerId(1), ControllerId(2)])
            .is_none());
    }

    #[test]
    fn stored_plans_match_fresh_single_case_solves_at_any_job_count() {
        let (net, serial) = store(1, 2);
        let (_net2, parallel) = store(8, 2);
        let engine = SweepEngine::new(
            &net,
            EvalOptions {
                skip_optimal: true,
                ..Default::default()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for rank in 0..serial.len() {
            let a = serial.get(rank).unwrap();
            let b = parallel.get(rank).unwrap();
            assert_eq!(a.plan_text, b.plan_text, "jobs must not change plans");
            let fresh = engine.solve_plan(&a.failed);
            assert_eq!(
                a.plan_text,
                fresh.plan.to_text(),
                "store entry {rank} must equal a cold solve"
            );
            assert_eq!(a.total_programmability, fresh.metrics.total_programmability);
            assert_eq!(a.min_programmability, fresh.metrics.min_programmability);
        }
    }
}
