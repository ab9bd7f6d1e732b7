//! The PM heuristic — Algorithm 1 of the paper.
//!
//! Phase 1 (lines 2–40) repeatedly picks the offline switch that can help
//! the most least-programmable flows, maps it to the nearest active
//! controller with enough capacity (falling back to the roomiest one), and
//! puts least-programmable flows into SDN mode there. When every switch has
//! been visited the pass restarts with the least programmability `σ` raised
//! to the new minimum, for `TOTAL_ITERATIONS` passes. Phase 2 (lines 42–50)
//! then spends any leftover controller capacity on additional SDN-mode
//! selections to maximize total programmability.
//!
//! Two deliberate clarifications of the pseudo-code are configurable:
//!
//! * Line 20–24 scans controllers in ascending delay but has no `break`; we
//!   stop at the first (nearest) fitting controller, matching the prose
//!   ("we test controllers following the ascending order of the propagation
//!   delay"). [`MappingRule::MaxCapacity`] ablates this.
//! * `σ = min(H)` (line 38) is taken over *recoverable* flows by default —
//!   flows with no `β = 1` offline switch would pin `σ` at 0 forever.
//!   [`PmConfig::faithful_sigma`] restores the literal behaviour.
//!
//! Lines 5–15 pick from kept σ-counts: for each switch still in `S*`, the
//! number of its entries whose flow has `h = σ` (0 once tested). They are
//! rebuilt whenever `σ` is set: at the start and at a pass restart (`S*`
//! emptied, or no untested switch with an entry at `σ`). An unseeded start
//! has every `h = 0 = σ`, so its counts are the switch-row lengths; a
//! seeded start and a restart add one per entry of each flow at `σ`,
//! found by one scan of `H` after the scan that sets `σ`. Between rebuilds
//! `H` only rises, so a flow raised off `σ` decrements each untested
//! switch on its row. The untested switches are bucketed by count, one
//! bitset per count value. Invariant: the buckets partition `S*`, each
//! switch in exactly its count's bucket, and a `top` pointer never sits
//! below the highest non-empty one; counts only fall between rebuilds, so
//! `top` only falls. A pick is the lowest set bit of the highest non-empty
//! bucket above 0 — the most entries at `σ`, lowest position on ties — and
//! a decrement or a removal moves one bit.
//!
//! Phase 1 leaves at its first idle pass, one that puts no entry into SDN
//! mode, when the next `σ` equals the idle pass's. Such a pass leaves `H`,
//! `Y` and `A` as they were, and every switch it maps goes to the
//! controller the mapping rule picks again from the same `A`; with the same
//! `σ` the next pass therefore makes the same picks and selects nothing
//! again, and so does every pass after it. Only a seeded first pass can be
//! idle with a new `σ` after it: it runs at `σ = 0` whatever `min(H)` is.
//! Phase 1 costs `O(live passes·(L + E_σ + n·c̄/64))` for `L` offline
//! flows, `E_σ` entries at each pass's `σ`, `n` offline switches and
//! counts up to `c̄`, plus the rows its picks read and the flow rows of the
//! entries it selects — not a per-pick scan's `O(passes·picks·n)`.

use crate::instance::FmssmInstance;
use crate::{PmError, RecoveryAlgorithm};
use pm_sdwan::RecoveryPlan;

/// Dense `Y`: one membership flag per instance entry, numbered
/// switch-major (entry `k` of switch `ip`'s row is
/// `FmssmInstance::switch_row_start(ip) + k`), plus a count of the flags
/// set. The plan is emitted by walking each mapped switch's entry row
/// against the flags, which yields the selections in [`RecoveryPlan`]'s
/// own switch-major order.
#[derive(Debug, Default)]
struct Selections {
    mask: Vec<bool>,
    count: usize,
}

impl Selections {
    /// Re-dimensions for an instance of `entries` entries, clearing all
    /// state. Retains the mask's capacity so repeated sweeps stop paying
    /// an allocation per case.
    fn reset(&mut self, entries: usize) {
        self.mask.clear();
        self.mask.resize(entries, false);
        self.count = 0;
    }

    fn contains(&self, e: usize) -> bool {
        self.mask[e]
    }

    /// Marks entry `e` selected; `false` if it already was.
    fn insert(&mut self, e: usize) -> bool {
        let cell = &mut self.mask[e];
        if *cell {
            return false;
        }
        *cell = true;
        self.count += 1;
        true
    }
}

/// Dense `S*`: the not-yet-tested switch set of one phase-1 pass, as one
/// `(untested, σ-count)` slot per switch plus a live count of untested
/// switches, and the same switches bucketed by σ-count: bucket `c` is a
/// bitset (`words` words) of the untested switches whose count is `c`, so
/// the buckets partition the untested set. `top` bounds the highest
/// non-empty bucket; counts only fall between refills, so it only falls
/// too. Ascending-index scans reproduce the ordered-set iteration this
/// replaced, preserving the lowest-position tie-breaks.
#[derive(Debug, Default)]
struct SwitchPool {
    slots: Vec<(bool, u32)>,
    len: usize,
    words: usize,
    buckets: Vec<u64>,
    top: usize,
}

impl SwitchPool {
    /// Puts every switch of `inst` into `S*` with the σ-counts of an
    /// all-zero `H` at `σ = 0`: each switch's whole row. Reads no entry.
    fn fill_rows(&mut self, inst: &FmssmInstance<'_, '_>) {
        let n = inst.switches().len();
        self.slots.clear();
        self.slots
            .extend((0..n).map(|ip| (true, inst.switch_entries(ip).len() as u32)));
        self.rebucket();
    }

    /// Puts every switch of `inst` back into `S*` and recounts the
    /// σ-counts from the flows at `σ`: `O(L + E_σ)`, keeping capacity.
    fn refill(&mut self, inst: &FmssmInstance<'_, '_>, h: &[u64], sigma: u64) {
        self.slots.clear();
        self.slots.resize(inst.switches().len(), (true, 0));
        for (lp, _) in h.iter().enumerate().filter(|&(_, &v)| v == sigma) {
            for &(ip, _) in inst.flow_entries(lp) {
                self.slots[ip].1 += 1;
            }
        }
        self.rebucket();
    }

    /// Rebuilds the buckets from freshly filled slots.
    fn rebucket(&mut self) {
        let n = self.slots.len();
        self.len = n;
        self.top = self
            .slots
            .iter()
            .map(|&(_, c)| c as usize)
            .max()
            .unwrap_or(0);
        self.words = n.div_ceil(64);
        self.buckets.clear();
        self.buckets.resize((self.top + 1) * self.words, 0);
        for ip in 0..n {
            self.flip(ip, self.slots[ip].1);
        }
    }

    /// Toggles switch `ip`'s bit in bucket `count`.
    fn flip(&mut self, ip: usize, count: u32) {
        self.buckets[count as usize * self.words + ip / 64] ^= 1 << (ip % 64);
    }

    /// Marks `ip` tested; it leaves its bucket and its σ-count drops to 0.
    fn remove(&mut self, ip: usize) {
        if let (true, count) = std::mem::take(&mut self.slots[ip]) {
            self.flip(ip, count);
            self.len -= 1;
        }
    }

    /// Flow `lp` was raised off `σ`: one entry fewer at `σ` on each
    /// untested switch of its row, which moves down one bucket.
    fn flow_left_sigma(&mut self, inst: &FmssmInstance<'_, '_>, lp: usize) {
        for &(ip, _) in inst.flow_entries(lp) {
            if let (true, count) = &mut self.slots[ip] {
                let at = *count as usize * self.words + ip / 64;
                self.buckets[at] ^= 1 << (ip % 64);
                self.buckets[at - self.words] ^= 1 << (ip % 64);
                *count -= 1;
            }
        }
    }

    /// Lines 5–15: the untested switch with the most entries at `σ`, the
    /// lowest position among ties — the lowest set bit of the highest
    /// non-empty bucket above 0; `None` when no switch has an entry at σ.
    fn most_at_sigma(&mut self) -> Option<usize> {
        while self.top > 0 {
            let bucket = &self.buckets[self.top * self.words..(self.top + 1) * self.words];
            if let Some((w, &bits)) = bucket.iter().enumerate().find(|&(_, &bits)| bits != 0) {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            self.top -= 1;
        }
        None
    }

    /// Debug-build invariants: each untested switch sits in exactly its
    /// count's bucket and no tested one in any, and
    /// [`SwitchPool::most_at_sigma`] and its count equal a rescan of every
    /// untested switch's entries.
    #[cfg(debug_assertions)]
    fn assert_counts(&mut self, inst: &FmssmInstance<'_, '_>, h: &[u64], sigma: u64) {
        let mut members = 0;
        for (b, bucket) in self.buckets.chunks_exact(self.words.max(1)).enumerate() {
            for (w, &word) in bucket.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let ip = w * 64 + bits.trailing_zeros() as usize;
                    let slot = self.slots.get(ip);
                    assert_eq!(slot, Some(&(true, b as u32)), "switch {ip} in bucket {b}");
                    members += 1;
                    bits &= bits - 1;
                }
            }
        }
        assert_eq!(
            members, self.len,
            "untested switches missing from the buckets"
        );
        let mut rescan = None;
        for ip in self.iter() {
            let count = entries_at_sigma(inst, h, sigma, ip);
            if count > rescan.map_or(0, |(_, best)| best) {
                rescan = Some((ip, count));
            }
        }
        let kept = self.most_at_sigma().map(|ip| (ip, self.slots[ip].1));
        assert_eq!(
            kept, rescan,
            "σ-counts disagree with a rescan at σ = {sigma}"
        );
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &(untested, _))| untested)
            .map(|(ip, _)| ip)
    }
}

/// The number of switch `ip`'s entries whose flow has `h = σ`: the
/// debug invariant's rescan.
#[cfg(debug_assertions)]
fn entries_at_sigma(inst: &FmssmInstance<'_, '_>, h: &[u64], sigma: u64, ip: usize) -> u32 {
    let row = inst.switch_entries(ip).iter();
    row.filter(|&&(lp, _)| h[lp] == sigma).count() as u32
}

/// Reusable buffers for repeated [`Pm`] runs — the per-case `X`/`Y`/`A`/`H`
/// state plus the phase-1 switch pool. A sweep that calls
/// [`Pm::recover_in`] with the same workspace across cases re-dimensions
/// these buffers in place instead of allocating them per case (the `Y`
/// bitmap alone is `switches × flows` cells), and produces plans identical
/// to fresh [`RecoveryAlgorithm::recover`] calls: every cell is
/// re-initialized from the instance before use.
#[derive(Debug, Default)]
pub struct PmWorkspace {
    x: Vec<Option<usize>>,
    y: Selections,
    pool: SwitchPool,
    a: Vec<i64>,
    h: Vec<u64>,
}

/// How phase 1 picks the next switch to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionRule {
    /// The paper's rule: the switch serving the most flows whose current
    /// programmability equals the least value `σ` (lines 5–15).
    #[default]
    MostLeastProgFlows,
    /// Ablation: the switch with the most traversing flows (`γ`).
    HighestGamma,
    /// Ablation: the lowest-id untested switch.
    LowestId,
}

/// How a newly selected switch is mapped to a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingRule {
    /// The paper's rule: nearest controller whose capacity fits the
    /// switch's `γ`, falling back to the controller with maximum capacity
    /// (lines 20–27).
    #[default]
    NearestWithCapacity,
    /// Ablation: always the controller with the most remaining capacity.
    MaxCapacity,
}

/// Tunables of the PM heuristic. `Default` reproduces the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmConfig {
    /// Switch-selection rule (ablation hook).
    pub selection: SelectionRule,
    /// Controller-mapping rule (ablation hook).
    pub mapping: MappingRule,
    /// Skip phase 2 (lines 42–50) — ablates the third design
    /// consideration, "fully utilizing controllers' control resource".
    pub skip_phase2: bool,
    /// Take `σ = min(H)` literally over *all* offline flows, including
    /// unrecoverable ones (pins `σ` at 0 whenever such flows exist).
    pub faithful_sigma: bool,
}

/// The PM heuristic (paper Algorithm 1).
///
/// # Example
///
/// ```
/// use pm_core::{FmssmInstance, Pm, RecoveryAlgorithm};
/// use pm_sdwan::{ControllerId, Programmability, SdWanBuilder};
///
/// let net = SdWanBuilder::att_paper_setup().build()?;
/// let prog = Programmability::compute(&net);
/// let scenario = net.fail(&[ControllerId(3)])?;
/// let instance = FmssmInstance::new(&scenario, &prog);
/// let plan = Pm::new().recover(&instance)?;
/// instance.evaluate(&plan, false, 0.0)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Pm {
    config: PmConfig,
}

impl Pm {
    /// PM with the paper's default behaviour.
    pub fn new() -> Self {
        Self::default()
    }

    /// PM with explicit tunables (for the ablation benches).
    pub fn with_config(config: PmConfig) -> Self {
        Pm { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PmConfig {
        &self.config
    }
}

impl Pm {
    /// Like [`RecoveryAlgorithm::recover`], but seeded with decisions
    /// carried over from an earlier recovery (successive-failure support):
    /// seeded mappings are kept verbatim (Algorithm 1 line 17 reuses
    /// existing mappings), seeded SDN selections keep their capacity and
    /// contribute to the flows' current programmability. Seed entries
    /// referencing failed controllers or online switches are ignored.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for parity with `recover`.
    pub fn recover_with_seed(
        &self,
        inst: &FmssmInstance<'_, '_>,
        seed: &RecoveryPlan,
    ) -> Result<RecoveryPlan, PmError> {
        self.run(inst, Some(seed), &mut PmWorkspace::default())
    }

    /// Like [`RecoveryAlgorithm::recover`], reusing `ws`'s buffers instead
    /// of allocating fresh per-run state. The plan is identical to an
    /// unseeded `recover` call; only the allocation behaviour differs.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for parity with `recover`.
    pub fn recover_in(
        &self,
        inst: &FmssmInstance<'_, '_>,
        ws: &mut PmWorkspace,
    ) -> Result<RecoveryPlan, PmError> {
        self.run(inst, None, ws)
    }

    /// [`Pm::recover_with_seed`] with workspace reuse, combining the
    /// successive-failure seeding semantics with sweep-friendly buffers.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for parity with `recover`.
    pub fn recover_with_seed_in(
        &self,
        inst: &FmssmInstance<'_, '_>,
        seed: &RecoveryPlan,
        ws: &mut PmWorkspace,
    ) -> Result<RecoveryPlan, PmError> {
        self.run(inst, Some(seed), ws)
    }
}

impl RecoveryAlgorithm for Pm {
    fn name(&self) -> &'static str {
        "PM"
    }

    fn recover(&self, inst: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError> {
        self.run(inst, None, &mut PmWorkspace::default())
    }
}

/// Adds the time since `*t0` to `total` and restarts `*t0` at now: one
/// clock read ends a stage and starts the next. Reads no clock when `*t0`
/// is `None` (recording off).
fn lap(t0: &mut Option<std::time::Instant>, total: &mut u64) {
    if let Some(start) = t0 {
        let now = std::time::Instant::now();
        *total += u64::try_from((now - *start).as_nanos()).unwrap_or(u64::MAX);
        *start = now;
    }
}

impl Pm {
    fn run(
        &self,
        inst: &FmssmInstance<'_, '_>,
        seed: Option<&RecoveryPlan>,
        ws: &mut PmWorkspace,
    ) -> Result<RecoveryPlan, PmError> {
        let _recover_span = pm_obs::span("pm.recover");
        // Read the recording flag once per run; the per-iteration telemetry
        // below is fully skipped (no clock reads) when it is off.
        let obs = pm_obs::enabled();
        let n = inst.switches().len();
        let m = inst.controllers().len();
        let l_count = inst.flows().len();

        ws.x.clear();
        ws.x.resize(n, None);
        ws.y.reset(inst.entry_count());
        ws.a.clear();
        ws.a.extend(inst.residuals().iter().map(|&r| r as i64));
        ws.h.clear();
        ws.h.resize(l_count, 0);
        let PmWorkspace { x, y, a, h, pool } = ws;

        if let Some(seed) = seed {
            for (s, c) in seed.mappings() {
                let (Some(ip), Some(jp)) = (inst.switch_position(s), inst.controller_position(c))
                else {
                    continue; // switch no longer offline or controller failed
                };
                x[ip] = Some(jp);
            }
            for (s, l, c) in seed.sdn_selections() {
                let (Some(ip), Some(lp), Some(jp)) = (
                    inst.switch_position(s),
                    inst.flow_position(l),
                    inst.controller_position(c),
                ) else {
                    continue;
                };
                // A pair with β = 0 is no instance entry, so a seed's
                // invalid selection is dropped.
                let row = inst.switch_entries(ip);
                let Ok(k) = row.binary_search_by_key(&lp, |&(f, _)| f) else {
                    continue;
                };
                if x[ip] != Some(jp) || !y.insert(inst.switch_row_start(ip) + k) {
                    continue;
                }
                h[lp] += row[k].1 as u64;
                a[jp] -= 1;
            }
        }
        let s_star = pool;
        let mut sigma: u64 = 0;
        // With no seed selection every `h` is 0 = σ, so each switch counts
        // its whole row.
        if y.count == 0 {
            s_star.fill_rows(inst);
        } else {
            s_star.refill(inst, h, sigma);
        }
        let total_iterations = inst.total_iterations().max(1);
        let mut passes_skipped = 0;

        // A flow min(H) skips reads as u64::MAX, which no `h` reaches: the
        // scan has no branch to mispredict.
        let faithful = self.config.faithful_sigma;
        let min_h = |h: &[u64]| -> u64 {
            let counted = h.iter().zip(inst.recoverable_flows());
            let low =
                counted.map(|(&v, recoverable)| if faithful || recoverable { v } else { u64::MAX });
            low.min().filter(|&v| v != u64::MAX).unwrap_or(0)
        };

        // Sub-phase time accumulators (nanoseconds); only touched while
        // recording, so the default path never reads the clock here. The
        // clock is read at each pass start and at the end of each stage,
        // which is the next stage's start.
        let mut t_select = 0u64;
        let mut t_map = 0u64;
        let mut t_mode = 0u64;
        let phase1_span = pm_obs::span("pm.phase1");
        for pass in 1..=total_iterations {
            let picks_before = y.count;
            let mut stage_t0 = obs.then(std::time::Instant::now);
            loop {
                // Lines 5–15: find the switch s_{i0} to recover.
                #[cfg(debug_assertions)]
                s_star.assert_counts(inst, h, sigma);
                let i0 = match self.config.selection {
                    SelectionRule::MostLeastProgFlows => s_star.most_at_sigma(),
                    SelectionRule::HighestGamma => s_star
                        .iter()
                        .filter(|&ip| !inst.switch_entries(ip).is_empty())
                        .max_by_key(|&ip| inst.gamma(ip)),
                    SelectionRule::LowestId => s_star
                        .iter()
                        .find(|&ip| !inst.switch_entries(ip).is_empty()),
                };
                lap(&mut stage_t0, &mut t_select);
                let Some(i0) = i0 else {
                    // No switch can serve a least-programmable flow: the
                    // pass is exhausted.
                    break;
                };

                // Lines 17–28: map s_{i0} to controller C_{j0}.
                let j0 = match x[i0] {
                    Some(j) => j,
                    None => {
                        let by_rule = match self.config.mapping {
                            MappingRule::NearestWithCapacity => inst
                                .controllers_by_delay(i0)
                                .find(|&j| a[j] >= inst.gamma(i0) as i64),
                            MappingRule::MaxCapacity => None,
                        };
                        by_rule.unwrap_or_else(|| {
                            // Line 26: the controller with maximum available
                            // control resource.
                            (0..m)
                                .max_by_key(|&j| a[j])
                                .expect("at least one controller")
                        })
                    }
                };
                x[i0] = Some(j0);
                s_star.remove(i0);
                lap(&mut stage_t0, &mut t_map);

                // Lines 31–36: SDN mode for least-programmable flows at s_{i0}.
                let start = inst.switch_row_start(i0);
                for (e, &(lp, pbar)) in (start..).zip(inst.switch_entries(i0)) {
                    if h[lp] <= sigma && !y.contains(e) && a[j0] > 0 {
                        a[j0] -= 1;
                        h[lp] += pbar as u64;
                        y.insert(e);
                        s_star.flow_left_sigma(inst, lp);
                    }
                }
                lap(&mut stage_t0, &mut t_mode);

                // Line 37: the pass ends when every switch was tested.
                if s_star.is_empty() {
                    break;
                }
            }

            // Lines 38–39: restart the pass at σ = min(H). After the last
            // pass nothing reads σ or the σ-counts, so neither is
            // recomputed.
            if pass == total_iterations {
                break;
            }
            let next_sigma = min_h(h);
            if y.count == picks_before && next_sigma == sigma {
                // An idle pass at an unchanged σ: every pass left would
                // repeat it exactly (module docs).
                passes_skipped = total_iterations - pass;
                break;
            }
            sigma = next_sigma;
            s_star.refill(inst, h, sigma);
        }

        drop(phase1_span);
        let phase1_picks = y.count;

        // Lines 42–50: improve the total programmability with leftovers.
        if !self.config.skip_phase2 {
            let _phase2_span = pm_obs::span("pm.phase2");
            for (ip, ctrl) in x.iter().enumerate() {
                if let Some(j0) = *ctrl {
                    let start = inst.switch_row_start(ip);
                    for (e, &(lp, pbar)) in (start..).zip(inst.switch_entries(ip)) {
                        if a[j0] > 0 && !y.contains(e) {
                            a[j0] -= 1;
                            h[lp] += pbar as u64;
                            y.insert(e);
                        }
                    }
                }
            }
        }

        if obs {
            pm_obs::observe("pm.phase1.select_ns", t_select);
            pm_obs::observe("pm.phase1.map_ns", t_map);
            pm_obs::observe("pm.phase1.mode_ns", t_mode);
            pm_obs::count("pm.passes", total_iterations as u64);
            pm_obs::count("pm.passes_skipped", passes_skipped as u64);
            pm_obs::count("pm.switches_mapped", x.iter().flatten().count() as u64);
            pm_obs::count("pm.sdn_mode_picks", y.count as u64);
            pm_obs::count("pm.phase1.sdn_mode_picks", phase1_picks as u64);
            pm_obs::count("pm.phase2.sdn_mode_picks", (y.count - phase1_picks) as u64);
            // β = 1 entries left in legacy mode vs. put into SDN mode.
            pm_obs::count("pm.legacy_mode_left", (inst.entry_count() - y.count) as u64);
            pm_obs::count(
                "pm.flows_touched",
                h.iter().filter(|&&v| v > 0).count() as u64,
            );
            pm_obs::count(
                "pm.capacity_residual_left",
                a.iter().map(|&v| v.max(0) as u64).sum(),
            );
        }

        // Line 51: emit X and Y. Switches, flows and each switch's entry row
        // ascend by id, so the lists come out in the plan's sorted order.
        let mut mapping = Vec::with_capacity(x.iter().flatten().count());
        let mut sdn = Vec::with_capacity(y.count);
        for (ip, ctrl) in x.iter().enumerate() {
            let Some(j) = *ctrl else { continue };
            let (s, c) = (inst.switches()[ip], inst.controllers()[j]);
            mapping.push((s, c));
            let row = (inst.switch_row_start(ip)..).zip(inst.switch_entries(ip));
            sdn.extend(
                row.filter(|&(e, _)| y.contains(e))
                    .map(|(_, &(lp, _))| (s, inst.flows()[lp], c)),
            );
        }
        Ok(RecoveryPlan::from_parts(mapping, Vec::new(), sdn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::{ControllerId, PlanMetrics, Programmability, SdWanBuilder};

    fn setup() -> (pm_sdwan::SdWan, std::sync::Arc<Programmability>) {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        (net, prog)
    }

    #[test]
    fn produces_valid_plans_for_all_single_failures() {
        let (net, prog) = setup();
        for c in 0..6 {
            let sc = net.fail(&[ControllerId(c)]).unwrap();
            let inst = FmssmInstance::new(&sc, &prog);
            let plan = Pm::new().recover(&inst).unwrap();
            plan.validate(&sc, &prog, false).unwrap();
        }
    }

    #[test]
    fn recovers_every_recoverable_flow_on_single_failure() {
        // With one failure the active controllers have ample capacity, so
        // every flow with a β = 1 offline switch must come back (paper
        // Fig. 4(c): 100 % recovery).
        let (net, prog) = setup();
        for c in 0..6 {
            let sc = net.fail(&[ControllerId(c)]).unwrap();
            let inst = FmssmInstance::new(&sc, &prog);
            let plan = Pm::new().recover(&inst).unwrap();
            let metrics = PlanMetrics::compute(&sc, &prog, &plan, 0.0);
            assert_eq!(
                metrics.recovered_flows,
                inst.recoverable_flow_count(),
                "failure of C{c}"
            );
        }
    }

    #[test]
    fn respects_capacity_under_hard_failures() {
        let (net, prog) = setup();
        // The (C13, C20) headline case: capacity-constrained.
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = Pm::new().recover(&inst).unwrap();
        plan.validate(&sc, &prog, false).unwrap();
        let metrics = PlanMetrics::compute(&sc, &prog, &plan, 0.0);
        for u in &metrics.controller_usage {
            assert!(u.used <= u.available);
        }
        assert!(metrics.total_programmability > 0);
    }

    #[test]
    fn recovers_hub_switch_where_switch_level_cannot() {
        // Under (C13, C20), γ(s13) exceeds every residual capacity, so a
        // whole-switch remap is impossible — but PM must still recover s13
        // per-flow (the paper's 315 % anecdote).
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = Pm::new().recover(&inst).unwrap();
        assert!(
            plan.controller_of(pm_sdwan::SwitchId(13)).is_some(),
            "PM must map the hub switch"
        );
        let sdn_at_13 = plan
            .sdn_selections()
            .filter(|&(s, _, _)| s == pm_sdwan::SwitchId(13))
            .count();
        assert!(sdn_at_13 > 0, "PM must recover flows at the hub");
    }

    #[test]
    fn phase2_increases_total_programmability() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let full = Pm::new().recover(&inst).unwrap();
        let no_p2 = Pm::with_config(PmConfig {
            skip_phase2: true,
            ..Default::default()
        })
        .recover(&inst)
        .unwrap();
        let m_full = PlanMetrics::compute(&sc, &prog, &full, 0.0);
        let m_no = PlanMetrics::compute(&sc, &prog, &no_p2, 0.0);
        assert!(m_full.total_programmability >= m_no.total_programmability);
        // The least programmability must not suffer from phase 2.
        assert!(m_full.min_programmability >= m_no.min_programmability);
    }

    #[test]
    fn balanced_recovery_beats_unbalanced_min() {
        // PM's min programmability should match or beat the naive
        // highest-gamma selection ablation on the hard case.
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let pm = Pm::new().recover(&inst).unwrap();
        let abl = Pm::with_config(PmConfig {
            selection: SelectionRule::HighestGamma,
            ..Default::default()
        })
        .recover(&inst)
        .unwrap();
        let m_pm = PlanMetrics::compute(&sc, &prog, &pm, 0.0);
        let m_abl = PlanMetrics::compute(&sc, &prog, &abl, 0.0);
        assert!(
            inst.objective(&m_pm.per_flow_programmability, true)
                >= inst.objective(&m_abl.per_flow_programmability, true) - 1e-9
        );
    }

    #[test]
    fn reused_workspace_matches_fresh_runs() {
        // One workspace across cases of different shapes (different offline
        // switch/flow counts) must reproduce cold runs exactly.
        let (net, prog) = setup();
        let mut ws = PmWorkspace::default();
        let cases: [&[usize]; 4] = [&[3, 4], &[0], &[1, 2, 5], &[3]];
        for failed in cases {
            let failed: Vec<ControllerId> = failed.iter().map(|&c| ControllerId(c)).collect();
            let sc = net.fail(&failed).unwrap();
            let inst = FmssmInstance::new(&sc, &prog);
            let warm = Pm::new().recover_in(&inst, &mut ws).unwrap();
            let cold = Pm::new().recover(&inst).unwrap();
            assert_eq!(warm, cold, "case {failed:?}");
        }
    }

    #[test]
    fn seeded_workspace_matches_seeded_fresh_run() {
        let (net, prog) = setup();
        let sc1 = net.fail(&[ControllerId(3)]).unwrap();
        let inst1 = FmssmInstance::new(&sc1, &prog);
        let seed = Pm::new().recover(&inst1).unwrap();
        let sc2 = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst2 = FmssmInstance::new(&sc2, &prog);
        let mut ws = PmWorkspace::default();
        // Dirty the workspace first, then compare the seeded paths.
        Pm::new().recover_in(&inst1, &mut ws).unwrap();
        let warm = Pm::new()
            .recover_with_seed_in(&inst2, &seed, &mut ws)
            .unwrap();
        let cold = Pm::new().recover_with_seed(&inst2, &seed).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn deterministic() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(1), ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let p1 = Pm::new().recover(&inst).unwrap();
        let p2 = Pm::new().recover(&inst).unwrap();
        assert_eq!(p1, p2);
        // Every ablation variant is deterministic too, and valid on the
        // headline (13,20) case.
        let sc = net.fail(&[ControllerId(3), ControllerId(4)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let ablations: [fn(&mut PmConfig); 5] = [
            |c| c.selection = SelectionRule::HighestGamma,
            |c| c.selection = SelectionRule::LowestId,
            |c| c.mapping = MappingRule::MaxCapacity,
            |c| c.skip_phase2 = true,
            |c| c.faithful_sigma = true,
        ];
        for ablate in ablations {
            let mut config = PmConfig::default();
            ablate(&mut config);
            let plan = Pm::with_config(config).recover(&inst).unwrap();
            plan.validate(&sc, &prog, false).unwrap();
            assert_eq!(plan, Pm::with_config(config).recover(&inst).unwrap());
        }
    }

    /// Algorithm 1 with the default configuration and no seed, running
    /// every phase-1 pass and scanning the untested switches at each pick.
    /// Also returns how many passes ran after the first idle pass whose
    /// next σ was unchanged: the passes [`Pm`] skips.
    fn every_pass(inst: &FmssmInstance<'_, '_>) -> (RecoveryPlan, usize) {
        let (n, m) = (inst.switches().len(), inst.controllers().len());
        let mut x = vec![None; n];
        let mut y = vec![false; inst.entry_count()];
        let mut a: Vec<i64> = inst.residuals().iter().map(|&r| r as i64).collect();
        let mut h = vec![0u64; inst.flows().len()];
        let (mut sigma, mut after_idle, mut idle_seen) = (0, 0, false);
        for _ in 0..inst.total_iterations().max(1) {
            let picks_before = y.iter().filter(|&&picked| picked).count();
            let mut untested = vec![true; n];
            loop {
                let at_sigma = |ip: usize| {
                    let row = inst.switch_entries(ip).iter();
                    row.filter(|&&(lp, _)| h[lp] == sigma).count()
                };
                let Some(i0) = (0..n)
                    .filter(|&ip| untested[ip] && at_sigma(ip) > 0)
                    .max_by_key(|&ip| (at_sigma(ip), std::cmp::Reverse(ip)))
                else {
                    break;
                };
                let j0 = *x[i0].get_or_insert_with(|| {
                    let mut by_delay = inst.controllers_by_delay(i0);
                    by_delay
                        .find(|&j| a[j] >= inst.gamma(i0) as i64)
                        .unwrap_or_else(|| (0..m).max_by_key(|&j| a[j]).unwrap())
                });
                untested[i0] = false;
                let start = inst.switch_row_start(i0);
                for (e, &(lp, pbar)) in (start..).zip(inst.switch_entries(i0)) {
                    if h[lp] <= sigma && !y[e] && a[j0] > 0 {
                        a[j0] -= 1;
                        h[lp] += pbar as u64;
                        y[e] = true;
                    }
                }
                if !untested.contains(&true) {
                    break;
                }
            }
            let recoverable = h.iter().zip(inst.recoverable_flows());
            let next_sigma = recoverable.filter(|&(_, r)| r).map(|(&v, _)| v).min();
            let next_sigma = next_sigma.unwrap_or(0);
            after_idle += usize::from(idle_seen);
            idle_seen |=
                y.iter().filter(|&&picked| picked).count() == picks_before && next_sigma == sigma;
            sigma = next_sigma;
        }
        let (mut mapping, mut sdn) = (Vec::new(), Vec::new());
        for (ip, ctrl) in x.iter().enumerate() {
            let Some(j0) = *ctrl else { continue };
            let (s, c) = (inst.switches()[ip], inst.controllers()[j0]);
            mapping.push((s, c));
            let start = inst.switch_row_start(ip);
            for (e, &(lp, _)) in (start..).zip(inst.switch_entries(ip)) {
                if !y[e] && a[j0] > 0 {
                    a[j0] -= 1;
                    y[e] = true;
                }
                if y[e] {
                    sdn.push((s, inst.flows()[lp], c));
                }
            }
        }
        (
            RecoveryPlan::from_parts(mapping, Vec::new(), sdn),
            after_idle,
        )
    }

    #[test]
    fn idle_exit_matches_every_pass_on_capacity_starved_cases() {
        // Under (C13, C20, C22) and (C2, C5, C13, C22) the active
        // controllers run out of capacity with passes left, so phase 1
        // reaches an idle pass at an unchanged σ and PM leaves it there.
        let (net, prog) = setup();
        for failed in [&[3, 4, 5][..], &[0, 1, 3, 5]] {
            let failed: Vec<ControllerId> = failed.iter().map(|&c| ControllerId(c)).collect();
            let sc = net.fail(&failed).unwrap();
            let inst = FmssmInstance::new(&sc, &prog);
            let (reference, skipped) = every_pass(&inst);
            assert!(skipped > 0, "{failed:?}: no pass to skip");
            assert_eq!(Pm::new().recover(&inst).unwrap(), reference, "{failed:?}");
        }
    }

    #[test]
    fn idle_seeded_first_pass_does_not_end_phase1() {
        // Seed one SDN selection per recoverable flow: every h is then
        // above 0, so the first pass, at σ = 0, selects nothing, while
        // min(H) rises above 0 and the capacity the dropped selections
        // held is free. The second pass must run and select more.
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let full = Pm::new().recover(&inst).unwrap();
        let mut seen = std::collections::HashSet::new();
        let sdn: Vec<_> = full
            .sdn_selections()
            .filter(|&(_, l, _)| seen.insert(l))
            .collect();
        assert_eq!(seen.len(), inst.recoverable_flow_count());
        let seed = RecoveryPlan::from_parts(full.mappings().collect(), Vec::new(), sdn);
        let phase1_only = Pm::with_config(PmConfig {
            skip_phase2: true,
            ..Default::default()
        });
        let plan = phase1_only.recover_with_seed(&inst, &seed).unwrap();
        plan.validate(&sc, &prog, false).unwrap();
        assert!(seed.sdn_selections().all(|(s, l, _)| plan.is_sdn(s, l)));
        assert!(
            plan.sdn_count() > seed.sdn_count(),
            "phase 1 ended after the idle pass at σ = 0"
        );
    }

    #[test]
    fn faithful_sigma_still_valid() {
        let (net, prog) = setup();
        let sc = net.fail(&[ControllerId(3), ControllerId(5)]).unwrap();
        let inst = FmssmInstance::new(&sc, &prog);
        let plan = Pm::with_config(PmConfig {
            faithful_sigma: true,
            ..Default::default()
        })
        .recover(&inst)
        .unwrap();
        plan.validate(&sc, &prog, false).unwrap();
    }
}
