//! Property tests for the dense index-space layout: the flat, arena-indexed
//! tables (programmability lookup, `FmssmInstance` positions, plan
//! validation) must agree everywhere with the ID-native reference semantics
//! they replaced — sparse-map lookups that simply miss on unknown ids.
//!
//! Networks are random Waxman graphs with randomly placed controllers plus
//! the paper's ATT setup; failure sets are random proper subsets of the
//! controllers.
//!
//! The PG, RetroFlow and PM heuristics are also checked against oracles:
//! their straightforward formulations (a rescan of every flow per PG round,
//! one keyed plan insert per decision, a rescan of every untested switch's
//! entries per PM pick), kept here as first written. The shipped versions
//! must give the same plans and the same `pg.*` / `retroflow.*` / `pm.*`
//! counters — PM under all 24 configurations, unseeded and seeded. PG is
//! also held to its oracle where capacity runs out mid-round: on the ATT
//! cases and on Waxman networks whose controllers have a few units of
//! capacity beyond their load.
//!
//! The flat `RecoveryPlan` (three sorted vectors) is checked against
//! `RefPlan`, the ordered-map plan it replaced, kept here as the model:
//! random builder operations, bulk lists and edited plan texts on the ATT
//! (C13, C20) failure must give the same text, lookups, validation
//! verdicts, usage, differences and delay bits.

use pm_core::heuristic::{MappingRule, SelectionRule};
use pm_core::{FmssmInstance, Pg, Pm, PmConfig, PmWorkspace, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{
    ControllerId, FailureScenario, FlowId, NetCache, PlanBuilder, PlanMetrics, Programmability,
    RecoveryPlan, SdWan, SdWanBuilder, SwitchId,
};
use pm_topo::{builders, NodeId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard};

/// The telemetry recorder is process-wide: every test here that runs a
/// heuristic holds this lock, so the counter comparisons see only their own
/// run's counters.
static RECORDER: Mutex<()> = Mutex::new(());

fn recorder_lock() -> MutexGuard<'static, ()> {
    RECORDER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A random connected Waxman network with `m` controllers spread over the
/// node set and all-pairs flows. Fully determined by its arguments.
fn waxman_net(nodes: usize, m: usize, capacity: u32, seed: u64) -> SdWan {
    let graph = builders::waxman(&builders::WaxmanParams {
        nodes,
        seed,
        ..Default::default()
    })
    .expect("valid waxman parameters");
    let mut b = SdWanBuilder::new(graph).allow_overload();
    for i in 0..m {
        b = b.controller(NodeId(i * nodes / m), capacity);
    }
    b.all_pairs_flows().build().expect("network builds")
}

/// A failure set of `k` distinct controllers starting at `start` (mod `m`),
/// leaving at least one survivor.
fn failure_set(m: usize, k: usize, start: usize) -> Vec<ControllerId> {
    (0..k.min(m - 1))
        .map(|i| ControllerId((start + i) % m))
        .collect()
}

/// The legacy view of the programmability table: a sparse map holding only
/// the β = 1 entries, any other key reading as absent.
fn sparse_reference(net: &SdWan, prog: &Programmability) -> HashMap<(FlowId, SwitchId), u32> {
    let mut map = HashMap::new();
    for l in 0..net.flows().len() {
        let l = FlowId(l);
        for &(s, pbar) in prog.flow_entries(l) {
            map.insert((l, s), pbar);
        }
    }
    map
}

/// Flat-table lookups must agree with the sparse reference on the whole
/// id universe *and* beyond it (out-of-range ids read as absent, exactly
/// like a map miss).
fn assert_table_matches_reference(net: &SdWan, prog: &Programmability) {
    let reference = sparse_reference(net, prog);
    for l in 0..net.flows().len() + 2 {
        let l = FlowId(l);
        for s in 0..net.switch_count() + 2 {
            let s = SwitchId(s);
            let want = reference.get(&(l, s)).copied().unwrap_or(0);
            assert_eq!(prog.pbar(l, s), want, "pbar mismatch at ({l:?}, {s:?})");
            assert_eq!(
                prog.beta(l, s),
                want != 0,
                "beta mismatch at ({l:?}, {s:?})"
            );
        }
    }
}

/// Instances built with and without the [`NetCache`] must expose identical
/// dense views, and every positional table must round-trip through the ids.
fn assert_instance_consistent(net: &SdWan, failed: &[ControllerId]) {
    let prog = Programmability::compute(net);
    let cache = NetCache::build(net);
    let plain_sc = net.fail(failed).expect("valid failure set");
    let cached_sc = net.fail_cached(failed, &cache).expect("valid failure set");
    let plain = FmssmInstance::new(&plain_sc, &prog);
    let cached = FmssmInstance::with_cache(&cached_sc, cache.programmability(), &cache);

    assert_eq!(plain.switches(), cached.switches());
    assert_eq!(plain.flows(), cached.flows());
    assert_eq!(plain.controllers(), cached.controllers());
    assert_eq!(plain.residuals(), cached.residuals());
    for ip in 0..plain.switches().len() {
        assert_eq!(plain.switch_entries(ip), cached.switch_entries(ip));
        assert_eq!(plain.gamma(ip), cached.gamma(ip));
        assert!(plain
            .controllers_by_delay(ip)
            .eq(cached.controllers_by_delay(ip)));
        assert_eq!(plain.switch_position(plain.switches()[ip]), Some(ip));
    }
    for lp in 0..plain.flows().len() {
        assert_eq!(plain.flow_entries(lp), cached.flow_entries(lp));
        assert_eq!(plain.flow_position(plain.flows()[lp]), Some(lp));
    }
    for (jp, &c) in plain.controllers().iter().enumerate() {
        assert_eq!(plain.controller_position(c), Some(jp));
        assert_eq!(cached.controller_position(c), Some(jp));
    }
    for &c in failed {
        assert_eq!(
            plain.controller_position(c),
            None,
            "failed {c:?} has no position"
        );
    }
}

/// Every heuristic must produce the same (valid) plan from the cached and
/// uncached instance builds.
fn assert_plans_agree(net: &SdWan, failed: &[ControllerId]) {
    let _recorder = recorder_lock();
    let prog = Programmability::compute(net);
    let cache = NetCache::build(net);
    let plain_sc = net.fail(failed).expect("valid failure set");
    let cached_sc = net.fail_cached(failed, &cache).expect("valid failure set");
    let plain = FmssmInstance::new(&plain_sc, &prog);
    let cached = FmssmInstance::with_cache(&cached_sc, cache.programmability(), &cache);
    let algos: [&dyn RecoveryAlgorithm; 3] = [&Pm::new(), &RetroFlow::new(), &Pg::new()];
    for algo in algos {
        let a = algo.recover(&plain).expect("recovers");
        let b = algo.recover(&cached).expect("recovers");
        assert_eq!(a, b, "{} plan differs cached vs uncached", algo.name());
        a.validate(&plain_sc, &prog, algo.is_flow_level())
            .expect("valid plan");
    }
}

/// Counters as `(name, value)`, sorted by name.
type Counters = Vec<(String, u64)>;

/// PG as first written: each round collects the flows with unused entries,
/// scans them for σ, and inserts every pick into the plan on its own.
fn pg_oracle(inst: &FmssmInstance<'_, '_>) -> (RecoveryPlan, Counters) {
    let m = inst.controllers().len();
    let l_count = inst.flows().len();
    let mut a: Vec<i64> = inst.residuals().iter().map(|&r| r as i64).collect();
    let mut h: Vec<u64> = vec![0; l_count];
    let mut cursor: Vec<usize> = vec![0; l_count];
    let mut plan = PlanBuilder::default();
    let mut rounds = 0u64;
    let mut picks = 0u64;
    loop {
        rounds += 1;
        let active: Vec<usize> = (0..l_count)
            .filter(|&lp| cursor[lp] < inst.flow_entries(lp).len())
            .collect();
        if active.is_empty() || a.iter().all(|&x| x <= 0) {
            break;
        }
        let sigma = active.iter().map(|&lp| h[lp]).min().expect("non-empty");
        let mut progressed = false;
        for &lp in &active {
            if h[lp] != sigma {
                continue;
            }
            let (ip, pbar) = inst.flow_entries(lp)[cursor[lp]];
            cursor[lp] += 1;
            let j = (0..m)
                .max_by_key(|&j| (a[j], std::cmp::Reverse(j)))
                .expect("m > 0");
            if a[j] <= 0 {
                continue;
            }
            a[j] -= 1;
            h[lp] += pbar as u64;
            plan.set_sdn_via(inst.switches()[ip], inst.flows()[lp], inst.controllers()[j]);
            picks += 1;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    #[allow(clippy::needless_range_loop)]
    'outer: for lp in 0..l_count {
        while cursor[lp] < inst.flow_entries(lp).len() {
            let (ip, _pbar) = inst.flow_entries(lp)[cursor[lp]];
            let j = (0..m)
                .max_by_key(|&j| (a[j], std::cmp::Reverse(j)))
                .expect("m > 0");
            if a[j] <= 0 {
                break 'outer;
            }
            cursor[lp] += 1;
            a[j] -= 1;
            plan.set_sdn_via(inst.switches()[ip], inst.flows()[lp], inst.controllers()[j]);
            picks += 1;
        }
    }
    let counters = vec![
        (
            "pg.capacity_residual_left".to_string(),
            a.iter().map(|&v| v.max(0) as u64).sum(),
        ),
        (
            "pg.flows_touched".to_string(),
            h.iter().filter(|&&v| v > 0).count() as u64,
        ),
        ("pg.rounds".to_string(), rounds),
        ("pg.sdn_mode_picks".to_string(), picks),
    ];
    (plan.build(), counters)
}

/// RetroFlow as first written: each adopted switch is mapped, marked
/// whole-switch SDN and given its selections by keyed inserts, in adoption
/// order.
fn retroflow_oracle(inst: &FmssmInstance<'_, '_>) -> (RecoveryPlan, Counters) {
    let n = inst.switches().len();
    let mut a: Vec<i64> = inst.residuals().iter().map(|&r| r as i64).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&ip| (std::cmp::Reverse(inst.gamma(ip)), ip));
    let mut recovered = 0u64;
    let mut legacy = 0u64;
    let mut flows_touched = 0u64;
    let mut plan = PlanBuilder::default();
    for ip in order {
        let cost = inst.gamma(ip) as i64;
        let Some(j) = inst.controllers_by_delay(ip).find(|&j| a[j] >= cost) else {
            legacy += 1;
            continue;
        };
        a[j] -= cost;
        recovered += 1;
        let s = inst.switches()[ip];
        plan.map_switch(s, inst.controllers()[j]);
        plan.set_full_sdn(s);
        for &(lp, _) in inst.switch_entries(ip) {
            plan.set_sdn(s, inst.flows()[lp]);
            flows_touched += 1;
        }
    }
    let counters = vec![
        (
            "retroflow.capacity_residual_left".to_string(),
            a.iter().map(|&v| v.max(0) as u64).sum(),
        ),
        ("retroflow.flows_touched".to_string(), flows_touched),
        ("retroflow.switches_legacy".to_string(), legacy),
        ("retroflow.switches_recovered".to_string(), recovered),
    ];
    (plan.build(), counters)
}

/// PM as first written: each pick of lines 5–15 recounts `h[l] == σ` over
/// every entry of every untested switch, `S*` and `Y` are ordered sets, and
/// the plan is built by keyed inserts.
fn pm_oracle(
    inst: &FmssmInstance<'_, '_>,
    config: PmConfig,
    seed: Option<&RecoveryPlan>,
) -> (RecoveryPlan, Counters) {
    let n = inst.switches().len();
    let m = inst.controllers().len();
    let l_count = inst.flows().len();
    let mut x: Vec<Option<usize>> = vec![None; n];
    let mut y: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut a: Vec<i64> = inst.residuals().iter().map(|&r| r as i64).collect();
    let mut h: Vec<u64> = vec![0; l_count];
    if let Some(seed) = seed {
        for (s, c) in seed.mappings() {
            let (Some(ip), Some(jp)) = (inst.switch_position(s), inst.controller_position(c))
            else {
                continue;
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
            let pbar = inst.programmability().pbar(l, s) as u64;
            if x[ip] != Some(jp) || pbar == 0 || !y.insert((ip, lp)) {
                continue;
            }
            h[lp] += pbar;
            a[jp] -= 1;
        }
    }
    let mut s_star: BTreeSet<usize> = (0..n).collect();
    let mut sigma: u64 = 0;
    let mut test_count = 0usize;
    let total_iterations = inst.total_iterations().max(1);
    let min_h = |h: &[u64]| -> u64 {
        (0..l_count)
            .filter(|&lp| config.faithful_sigma || !inst.flow_entries(lp).is_empty())
            .map(|lp| h[lp])
            .min()
            .unwrap_or(0)
    };
    while test_count < total_iterations {
        let i0 = match config.selection {
            SelectionRule::MostLeastProgFlows => {
                let mut delta = 0usize;
                let mut best = None;
                for &ip in &s_star {
                    let test_num = inst
                        .switch_entries(ip)
                        .iter()
                        .filter(|&&(lp, _)| h[lp] == sigma)
                        .count();
                    if test_num > delta {
                        delta = test_num;
                        best = Some(ip);
                    }
                }
                best
            }
            SelectionRule::HighestGamma => s_star
                .iter()
                .copied()
                .filter(|&ip| !inst.switch_entries(ip).is_empty())
                .max_by_key(|&ip| inst.gamma(ip)),
            SelectionRule::LowestId => s_star
                .iter()
                .copied()
                .find(|&ip| !inst.switch_entries(ip).is_empty()),
        };
        let Some(i0) = i0 else {
            s_star = (0..n).collect();
            test_count += 1;
            sigma = min_h(&h);
            continue;
        };
        let j0 = match x[i0] {
            Some(j) => j,
            None => {
                let by_rule = match config.mapping {
                    MappingRule::NearestWithCapacity => inst
                        .controllers_by_delay(i0)
                        .find(|&j| a[j] >= inst.gamma(i0) as i64),
                    MappingRule::MaxCapacity => None,
                };
                by_rule.unwrap_or_else(|| (0..m).max_by_key(|&j| a[j]).expect("m > 0"))
            }
        };
        x[i0] = Some(j0);
        s_star.remove(&i0);
        for &(lp, pbar) in inst.switch_entries(i0) {
            if h[lp] <= sigma && !y.contains(&(i0, lp)) && a[j0] > 0 {
                a[j0] -= 1;
                h[lp] += pbar as u64;
                y.insert((i0, lp));
            }
        }
        if s_star.is_empty() {
            s_star = (0..n).collect();
            test_count += 1;
            sigma = min_h(&h);
        }
    }
    let phase1_picks = y.len();
    if !config.skip_phase2 {
        for (ip, ctrl) in x.iter().enumerate() {
            if let Some(j0) = *ctrl {
                for &(lp, pbar) in inst.switch_entries(ip) {
                    if a[j0] > 0 && !y.contains(&(ip, lp)) {
                        a[j0] -= 1;
                        h[lp] += pbar as u64;
                        y.insert((ip, lp));
                    }
                }
            }
        }
    }
    let total_entries: usize = (0..n).map(|ip| inst.switch_entries(ip).len()).sum();
    let mut counters: Counters = [
        ("pm.passes", test_count),
        ("pm.switches_mapped", x.iter().flatten().count()),
        ("pm.sdn_mode_picks", y.len()),
        ("pm.phase1.sdn_mode_picks", phase1_picks),
        ("pm.phase2.sdn_mode_picks", y.len() - phase1_picks),
        ("pm.legacy_mode_left", total_entries - y.len()),
        ("pm.flows_touched", h.iter().filter(|&&v| v > 0).count()),
        (
            "pm.capacity_residual_left",
            a.iter().map(|&v| v.max(0) as usize).sum(),
        ),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v as u64))
    .collect();
    counters.sort();
    let mut plan = PlanBuilder::default();
    for (ip, ctrl) in x.iter().enumerate() {
        if let Some(j) = *ctrl {
            plan.map_switch(inst.switches()[ip], inst.controllers()[j]);
        }
    }
    for &(ip, lp) in &y {
        plan.set_sdn(inst.switches()[ip], inst.flows()[lp]);
    }
    (plan.build(), counters)
}

/// Every PM configuration: 3 selection × 2 mapping rules × phase 2 on/off ×
/// literal or recoverable-only `σ`.
fn pm_configs() -> Vec<PmConfig> {
    let mut configs = Vec::new();
    for selection in [
        SelectionRule::MostLeastProgFlows,
        SelectionRule::HighestGamma,
        SelectionRule::LowestId,
    ] {
        for mapping in [MappingRule::NearestWithCapacity, MappingRule::MaxCapacity] {
            for skip_phase2 in [false, true] {
                for faithful_sigma in [false, true] {
                    configs.push(PmConfig {
                        selection,
                        mapping,
                        skip_phase2,
                        faithful_sigma,
                    });
                }
            }
        }
    }
    configs
}

/// A hand-built PM seed for the failure of `failed`: offline switch 0 mapped
/// to a surviving controller with one valid (`β = 1`) selection and one
/// `β = 0` selection there, offline switch 1 mapped to the failed
/// controller `failed[0]` with a selection through it. Only the first
/// mapping and the valid selection may take effect.
fn hand_built_seed(inst: &FmssmInstance<'_, '_>, failed: &[ControllerId]) -> RecoveryPlan {
    let prog = inst.programmability();
    let live = inst.controllers()[0];
    let mut mapping = Vec::new();
    let mut sdn = Vec::new();
    if let Some(&s0) = inst.switches().first() {
        mapping.push((s0, live));
        if let Some(&(lp, _)) = inst.switch_entries(0).first() {
            sdn.push((s0, inst.flows()[lp], live));
        }
        if let Some(&l) = inst.flows().iter().find(|&&l| prog.pbar(l, s0) == 0) {
            sdn.push((s0, l, live));
        }
    }
    if let Some(&s1) = inst.switches().get(1) {
        mapping.push((s1, failed[0]));
        if let Some(&(lp, _)) = inst.switch_entries(1).first() {
            sdn.push((s1, inst.flows()[lp], failed[0]));
        }
    }
    RecoveryPlan::from_parts(mapping, Vec::new(), sdn)
}

/// Runs `recover` with the recorder on and returns its plan and the
/// counters under `prefix` that the run recorded.
fn recover_counted(
    recover: impl FnOnce() -> RecoveryPlan,
    prefix: &str,
) -> (RecoveryPlan, Counters) {
    pm_obs::enable();
    pm_obs::reset();
    let plan = recover();
    let counters = pm_obs::snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect();
    (plan, counters)
}

/// PG equals its oracle on `inst`, plan and `pg.*` counters alike. Returns
/// the level of the round that capacity cut short, as
/// [`mid_round_cut`] reads it from PG's pick count.
fn assert_pg_matches_oracle(inst: &FmssmInstance<'_, '_>, failed: &[ControllerId]) -> Option<u64> {
    let (want, want_counters) = pg_oracle(inst);
    let (got, got_counters) = recover_counted(|| Pg::new().recover(inst).expect("recovers"), "pg.");
    assert_eq!(got, want, "PG plan differs from its oracle on {failed:?}");
    assert_eq!(got_counters, want_counters, "PG counters on {failed:?}");
    mid_round_cut(inst, got.sdn_selections().count())
}

/// Where capacity stopped PG after `picks` picks: the level `h` of the
/// round it cut short, with some but not all of that round's flows
/// served; `None` when PG picked every entry or stopped between two
/// rounds. A round at level `h` serves the flows whose entries so far sum
/// to `h` in `p̄`, so the rounds take the entries in ascending
/// `(h_before, flow position)` order.
fn mid_round_cut(inst: &FmssmInstance<'_, '_>, picks: usize) -> Option<u64> {
    let mut keys = Vec::new();
    for lp in 0..inst.flows().len() {
        let mut h = 0;
        for &(_, pbar) in inst.flow_entries(lp) {
            keys.push((h, lp));
            h += pbar as u64;
        }
    }
    keys.sort_unstable();
    match (picks.checked_sub(1).map(|t| keys[t]), keys.get(picks)) {
        (Some((last, _)), Some(&(next, _))) if last == next => Some(next),
        _ => None,
    }
}

/// A Waxman network like [`waxman_net`] whose controllers have `slack[c]`
/// capacity beyond their normal load, so failures leave PG a few units
/// per survivor instead of the room to pick everything.
fn tight_waxman_net(nodes: usize, slack: &[u32], seed: u64) -> SdWan {
    let m = slack.len();
    let loaded = waxman_net(nodes, m, 0, seed);
    let graph = builders::waxman(&builders::WaxmanParams {
        nodes,
        seed,
        ..Default::default()
    })
    .expect("valid waxman parameters");
    let mut b = SdWanBuilder::new(graph);
    for (c, &extra) in slack.iter().enumerate() {
        let load = loaded.controller_load(ControllerId(c));
        b = b.controller(NodeId(c * nodes / m), load + extra);
    }
    b.all_pairs_flows().build().expect("network builds")
}

/// PG, RetroFlow and PM equal their oracles on the failure of `failed`,
/// plan and counters alike. PM runs under every configuration: unseeded,
/// seeded with the plan of a neighbouring failure set, and seeded with
/// [`hand_built_seed`], all through one workspace carried across runs.
/// Returns PG's [`mid_round_cut`].
fn assert_matches_oracles(
    net: &SdWan,
    prog: &Programmability,
    failed: &[ControllerId],
) -> Option<u64> {
    let _recorder = recorder_lock();
    let sc = net.fail(failed).expect("valid failure set");
    let inst = FmssmInstance::new(&sc, prog);
    let cut = assert_pg_matches_oracle(&inst, failed);
    let (want, want_counters) = retroflow_oracle(&inst);
    let (got, got_counters) = recover_counted(
        || RetroFlow::new().recover(&inst).expect("recovers"),
        "retroflow.",
    );
    assert_eq!(
        got, want,
        "RetroFlow plan differs from its oracle on {failed:?}"
    );
    assert_eq!(
        got_counters, want_counters,
        "RetroFlow counters on {failed:?}"
    );

    let m = net.controllers().len();
    let neighbour: Vec<ControllerId> = match failed {
        [only] => vec![ControllerId((only.index() + 1) % m)],
        [rest @ .., _] => rest.to_vec(),
        [] => unreachable!("a failure set is non-empty"),
    };
    let neighbour_sc = net.fail(&neighbour).expect("valid failure set");
    let neighbour_plan = Pm::new()
        .recover(&FmssmInstance::new(&neighbour_sc, prog))
        .expect("recovers");
    let hand_seed = hand_built_seed(&inst, failed);
    let mut ws = PmWorkspace::default();
    for config in pm_configs() {
        let pm = Pm::with_config(config);
        for (kind, seed) in [
            ("unseeded", None),
            ("neighbour-seeded", Some(&neighbour_plan)),
            ("hand-seeded", Some(&hand_seed)),
        ] {
            let (want, want_counters) = pm_oracle(&inst, config, seed);
            let (got, got_counters) = recover_counted(
                || {
                    match seed {
                        None => pm.recover_in(&inst, &mut ws),
                        Some(seed) => pm.recover_with_seed_in(&inst, seed, &mut ws),
                    }
                    .expect("recovers")
                },
                "pm.",
            );
            assert_eq!(
                got.to_text(),
                want.to_text(),
                "{kind} PM plan differs from its oracle on {failed:?} under {config:?}"
            );
            assert_eq!(
                got_counters, want_counters,
                "{kind} PM counters on {failed:?} under {config:?}"
            );
        }
    }
    cut
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn programmability_table_matches_sparse_reference(
        nodes in 8usize..=14,
        m in 2usize..=4,
        capacity in 50u32..=300,
        seed in 0u64..10_000,
    ) {
        let net = waxman_net(nodes, m, capacity, seed);
        assert_table_matches_reference(&net, &Programmability::compute(&net));
        // The cached compute fills the identical table.
        let cache = NetCache::build(&net);
        assert_table_matches_reference(&net, cache.programmability());
    }

    #[test]
    fn instance_fields_agree_on_random_networks(
        nodes in 8usize..=14,
        m in 2usize..=4,
        capacity in 50u32..=300,
        seed in 0u64..10_000,
        k in 1usize..=3,
        start in 0usize..4,
    ) {
        let net = waxman_net(nodes, m, capacity, seed);
        assert_instance_consistent(&net, &failure_set(m, k, start));
    }

    #[test]
    fn heuristic_plans_agree_on_random_networks(
        nodes in 8usize..=12,
        m in 2usize..=4,
        capacity in 50u32..=300,
        seed in 0u64..10_000,
        k in 1usize..=3,
        start in 0usize..4,
    ) {
        let net = waxman_net(nodes, m, capacity, seed);
        assert_plans_agree(&net, &failure_set(m, k, start));
    }

    #[test]
    fn heuristics_match_oracles_on_random_networks(
        nodes in 10usize..=16,
        capacity in 20u32..=300,
        seed in 0u64..10_000,
        start in 0usize..5,
    ) {
        // Five controllers, so every f = 1..4 leaves a survivor.
        let net = waxman_net(nodes, 5, capacity, seed);
        let prog = Programmability::compute(&net);
        for f in 1..=4 {
            assert_matches_oracles(&net, &prog, &failure_set(5, f, start));
        }
    }
}

#[test]
fn att_setup_agrees_end_to_end() {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup");
    assert_table_matches_reference(&net, &Programmability::compute(&net));
    let m = net.controllers().len();
    for k in 1..=3 {
        let failed = failure_set(m, k, k);
        assert_instance_consistent(&net, &failed);
        assert_plans_agree(&net, &failed);
    }
}

#[test]
fn att_heuristics_match_oracles_on_every_case() {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup");
    let prog = Programmability::compute(&net);
    let m = net.controllers().len();
    let mut cases = 0;
    let mut cut_levels = BTreeSet::new();
    for f in 1..m {
        for failed in pm_bench::combinations(m, f) {
            cut_levels.extend(assert_matches_oracles(&net, &prog, &failed));
            cases += 1;
        }
    }
    assert_eq!(cases, (1 << m) - 2, "every proper non-empty failure set");
    assert!(
        !cut_levels.is_empty(),
        "some ATT case must run out of capacity mid-round"
    );
}

#[test]
fn pg_matches_its_oracle_where_capacity_cuts_a_round() {
    // Survivors get 1..=24 units beyond their load, so the capacity cut
    // lands in the first round (every flow at h = 0) on some cases and in
    // a later one on others.
    let _recorder = recorder_lock();
    let mut cut_levels = BTreeSet::new();
    for seed in 0..12u64 {
        let slack: Vec<u32> = (0..5).map(|c| (seed as u32 * 7 + c * 5) % 24 + 1).collect();
        let net = tight_waxman_net(10 + seed as usize % 7, &slack, seed);
        let prog = Programmability::compute(&net);
        for f in 1..=4 {
            for failed in pm_bench::combinations(5, f) {
                let sc = net.fail(&failed).expect("valid failure set");
                let inst = FmssmInstance::new(&sc, &prog);
                cut_levels.extend(assert_pg_matches_oracle(&inst, &failed));
            }
        }
    }
    assert!(
        cut_levels.contains(&0),
        "a cut in the first round: {cut_levels:?}"
    );
    assert!(
        cut_levels.iter().any(|&h| h > 0),
        "a cut in a later round: {cut_levels:?}"
    );
}

/// The recovery plan as it was before the flat layout: two ordered maps
/// and an ordered set, one keyed insert per decision, one keyed lookup per
/// selection. Kept verbatim (minus docs) as the model the flat
/// [`RecoveryPlan`] must match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RefPlan {
    mapping: BTreeMap<SwitchId, ControllerId>,
    sdn: BTreeMap<(SwitchId, FlowId), ControllerId>,
    full_sdn: BTreeSet<SwitchId>,
}

type Parts = (
    Vec<(SwitchId, ControllerId)>,
    Vec<SwitchId>,
    Vec<(SwitchId, FlowId, ControllerId)>,
);

impl RefPlan {
    fn from_parts(
        mut mappings: Vec<(SwitchId, ControllerId)>,
        mut full_sdn: Vec<SwitchId>,
        mut sdn: Vec<(SwitchId, FlowId, ControllerId)>,
    ) -> Self {
        mappings.sort_unstable_by_key(|&(s, _)| s);
        full_sdn.sort_unstable();
        sdn.sort_unstable_by_key(|&(s, l, _)| (s, l));
        if let Some(w) = mappings.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("switch {} mapped twice", w[0].0);
        }
        if let Some(w) = full_sdn.windows(2).find(|w| w[0] == w[1]) {
            panic!("full-SDN switch {} listed twice", w[0]);
        }
        if let Some(w) = sdn
            .windows(2)
            .find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            panic!("pair ({}, {}) selected twice", w[0].0, w[0].1);
        }
        let mut mapped = mappings.iter().map(|&(s, _)| s).peekable();
        for &s in &full_sdn {
            while mapped.next_if(|&m| m < s).is_some() {}
            assert!(
                mapped.next_if_eq(&s).is_some(),
                "full-SDN switch {s} is unmapped"
            );
        }
        RefPlan {
            mapping: mappings.into_iter().collect(),
            sdn: sdn.into_iter().map(|(s, l, c)| ((s, l), c)).collect(),
            full_sdn: full_sdn.into_iter().collect(),
        }
    }

    fn map_switch(&mut self, s: SwitchId, c: ControllerId) {
        self.mapping.insert(s, c);
    }

    fn controller_of(&self, s: SwitchId) -> Option<ControllerId> {
        self.mapping.get(&s).copied()
    }

    fn set_sdn(&mut self, s: SwitchId, l: FlowId) -> bool {
        let c = self
            .mapping
            .get(&s)
            .copied()
            .expect("switch must be mapped before set_sdn");
        self.sdn.insert((s, l), c).is_none()
    }

    fn set_sdn_via(&mut self, s: SwitchId, l: FlowId, c: ControllerId) -> bool {
        self.sdn.insert((s, l), c).is_none()
    }

    fn set_full_sdn(&mut self, s: SwitchId) {
        assert!(
            self.mapping.contains_key(&s),
            "switch must be mapped before set_full_sdn"
        );
        self.full_sdn.insert(s);
    }

    fn is_full_sdn(&self, s: SwitchId) -> bool {
        self.full_sdn.contains(&s)
    }

    fn is_sdn(&self, s: SwitchId, l: FlowId) -> bool {
        self.sdn.contains_key(&(s, l))
    }

    fn mappings(&self) -> impl Iterator<Item = (SwitchId, ControllerId)> + '_ {
        self.mapping.iter().map(|(&s, &c)| (s, c))
    }

    fn sdn_selections(&self) -> impl Iterator<Item = (SwitchId, FlowId, ControllerId)> + '_ {
        self.sdn.iter().map(|(&(s, l), &c)| (s, l, c))
    }

    fn recovered_switches(&self) -> BTreeSet<SwitchId> {
        let mut set: BTreeSet<SwitchId> = self.mapping.keys().copied().collect();
        set.extend(self.sdn.keys().map(|&(s, _)| s));
        set
    }

    fn controller_usage(&self, scenario: &FailureScenario<'_>) -> BTreeMap<ControllerId, u32> {
        let net = scenario.network();
        let mut usage = BTreeMap::new();
        for &s in &self.full_sdn {
            if let Some(&c) = self.mapping.get(&s) {
                *usage.entry(c).or_insert(0) += net.gamma(s);
            }
        }
        for (&(s, _), &c) in &self.sdn {
            if !self.full_sdn.contains(&s) {
                *usage.entry(c).or_insert(0) += 1;
            }
        }
        usage
    }

    fn validate(
        &self,
        scenario: &FailureScenario<'_>,
        prog: &Programmability,
        flow_level: bool,
    ) -> Result<(), String> {
        for (&s, &c) in &self.mapping {
            if !scenario.is_offline(s) {
                return Err(format!("{s} is not offline"));
            }
            if !scenario.is_active(c) {
                return Err(format!("{c} is not active"));
            }
        }
        for (&(s, l), &c) in &self.sdn {
            if !scenario.is_offline(s) {
                return Err(format!("SDN pair at online switch {s}"));
            }
            if !scenario.is_active(c) {
                return Err(format!(
                    "SDN pair ({s}, {l}) assigned to failed controller {c}"
                ));
            }
            if !scenario.is_offline_flow(l) {
                return Err(format!("{l} is not an offline flow"));
            }
            if !prog.beta(l, s) {
                return Err(format!(
                    "β = 0 for {l} at {s}: SDN mode has no effect (Eq. (1))"
                ));
            }
            match self.mapping.get(&s) {
                Some(&mc) if mc != c => {
                    return Err(format!(
                        "pair ({s}, {l}) uses {c} but {s} is mapped to {mc}"
                    ));
                }
                None if !flow_level => {
                    return Err(format!(
                        "SDN mode for {l} at unmapped switch {s} (switch-level plan)"
                    ));
                }
                _ => {}
            }
        }
        for &s in &self.full_sdn {
            if !self.mapping.contains_key(&s) {
                return Err(format!("full-SDN switch {s} is unmapped"));
            }
        }
        for (c, used) in self.controller_usage(scenario) {
            let avail = scenario.residual_capacity(c);
            if used > avail {
                return Err(format!(
                    "{c} assigned {used} flows but has capacity {avail}"
                ));
            }
        }
        Ok(())
    }

    fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (&s, &c) in &self.mapping {
            let _ = writeln!(out, "map s{} C{}", s.index(), c.index());
        }
        for &s in &self.full_sdn {
            let _ = writeln!(out, "full s{}", s.index());
        }
        for (&(s, l), &c) in &self.sdn {
            let _ = writeln!(out, "sdn s{} f{} C{}", s.index(), l.index(), c.index());
        }
        out
    }

    fn from_text(text: &str) -> Result<RefPlan, String> {
        fn id(token: &str, prefix: char, line_no: usize) -> Result<usize, String> {
            token
                .strip_prefix(prefix)
                .and_then(|rest| rest.parse().ok())
                .ok_or_else(|| format!("line {line_no}: expected {prefix}<number>, got {token}"))
        }
        fn repeated(line_no: usize, what: String) -> String {
            format!("line {line_no}: repeated {what}")
        }
        let mut plan = RefPlan::default();
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["map", s, c] => {
                    let s = SwitchId(id(s, 's', line_no)?);
                    let c = ControllerId(id(c, 'C', line_no)?);
                    if plan.mapping.insert(s, c).is_some() {
                        return Err(repeated(line_no, format!("mapping of {s}")));
                    }
                }
                ["full", s] => {
                    let s = SwitchId(id(s, 's', line_no)?);
                    if !plan.mapping.contains_key(&s) {
                        return Err(format!(
                            "line {line_no}: full-SDN switch {s} not mapped (map lines must come first)"
                        ));
                    }
                    if !plan.full_sdn.insert(s) {
                        return Err(repeated(line_no, format!("full-SDN switch {s}")));
                    }
                }
                ["sdn", s, l, c] => {
                    let s = SwitchId(id(s, 's', line_no)?);
                    let l = FlowId(id(l, 'f', line_no)?);
                    let c = ControllerId(id(c, 'C', line_no)?);
                    if plan.sdn.insert((s, l), c).is_some() {
                        return Err(repeated(line_no, format!("selection ({s}, {l})")));
                    }
                }
                _ => return Err(format!("line {line_no}: unrecognized directive: {line}")),
            }
        }
        Ok(plan)
    }

    fn difference(&self, base: &RefPlan) -> RefPlan {
        let mut delta = RefPlan::default();
        for (&s, &c) in &self.mapping {
            if base.mapping.get(&s) != Some(&c) {
                delta.mapping.insert(s, c);
            }
        }
        for (&(s, l), &c) in &self.sdn {
            if base.sdn.get(&(s, l)) != Some(&c) {
                delta.sdn.insert((s, l), c);
            }
        }
        for &s in &self.full_sdn {
            if !base.full_sdn.contains(&s) && delta.mapping.contains_key(&s) {
                delta.full_sdn.insert(s);
            }
        }
        delta
    }

    fn total_control_delay(&self, scenario: &FailureScenario<'_>) -> f64 {
        self.sdn
            .iter()
            .map(|(&(s, _), &c)| scenario.network().ctrl_delay(s, c))
            .sum()
    }

    /// `PlanMetrics::total_overhead_ms` as it was computed with one
    /// full-SDN lookup per mapping and per selection.
    fn total_overhead(&self, scenario: &FailureScenario<'_>, middle_layer_ms: f64) -> f64 {
        let net = scenario.network();
        let mut total = 0.0;
        for (s, c) in self.mappings() {
            if self.is_full_sdn(s) {
                total += net.gamma(s) as f64 * (net.ctrl_delay(s, c) + middle_layer_ms);
            }
        }
        for (s, _, c) in self.sdn_selections() {
            if !self.is_full_sdn(s) {
                total += net.ctrl_delay(s, c) + middle_layer_ms;
            }
        }
        total
    }

    fn parts(&self) -> Parts {
        (
            self.mappings().collect(),
            self.full_sdn.iter().copied().collect(),
            self.sdn_selections().collect(),
        )
    }
}

/// One random builder step. Switch, flow and controller ids index the
/// network's id ranges (flows two past the end), or, for `on_entry`, an
/// offline `β = 1` pair of the scenario, so that both valid and invalid
/// plans come up.
#[derive(Debug, Clone)]
struct PlanOp {
    kind: u8,
    on_entry: bool,
    entry: usize,
    s: usize,
    l: usize,
    c: usize,
}

fn plan_op() -> impl Strategy<Value = PlanOp> {
    (
        0u8..4,
        0u8..2,
        0usize..1 << 20,
        0usize..64,
        0usize..4096,
        0usize..64,
    )
        .prop_map(|(kind, on_entry, entry, s, l, c)| PlanOp {
            kind,
            on_entry: on_entry == 1,
            entry,
            s,
            l,
            c,
        })
}

/// The ATT paper setup failed at (C13, C20), its programmability table and
/// every offline `β = 1` pair.
struct Att {
    net: SdWan,
    prog: std::sync::Arc<Programmability>,
    entries: Vec<(SwitchId, FlowId)>,
}

fn att() -> &'static Att {
    static ATT: std::sync::OnceLock<Att> = std::sync::OnceLock::new();
    ATT.get_or_init(|| {
        let net = SdWanBuilder::att_paper_setup()
            .build()
            .expect("paper setup");
        let prog = Programmability::compute(&net);
        let sc = net.fail(&ATT_FAILED).expect("valid failure set");
        let mut entries = Vec::new();
        for &l in sc.offline_flows() {
            for &(s, _) in prog.flow_entries(l) {
                if sc.is_offline(s) {
                    entries.push((s, l));
                }
            }
        }
        drop(sc);
        Att { net, prog, entries }
    })
}

/// C13 and C20 of the paper's ATT setup.
const ATT_FAILED: [ControllerId; 2] = [ControllerId(3), ControllerId(4)];

/// Applies `ops` through [`PlanBuilder`] and to a [`RefPlan`] alike. A
/// `set_sdn` or `set_full_sdn` at an unmapped switch (a panic in both)
/// is skipped.
fn build_both(att: &Att, ops: &[PlanOp]) -> (RecoveryPlan, RefPlan) {
    let switches = att.net.switch_count();
    let controllers = att.net.controllers().len();
    let flows = att.net.flows().len() + 2;
    let mut builder = PlanBuilder::default();
    let mut reference = RefPlan::default();
    for op in ops {
        let (s, l) = if op.on_entry {
            att.entries[op.entry % att.entries.len()]
        } else {
            (SwitchId(op.s % switches), FlowId(op.l % flows))
        };
        let c = ControllerId(op.c % controllers);
        match op.kind {
            0 => {
                builder.map_switch(s, c);
                reference.map_switch(s, c);
            }
            1 if reference.controller_of(s).is_some() => {
                assert_eq!(builder.set_sdn(s, l), reference.set_sdn(s, l));
            }
            2 => assert_eq!(builder.set_sdn_via(s, l, c), reference.set_sdn_via(s, l, c)),
            3 if reference.controller_of(s).is_some() => {
                builder.set_full_sdn(s);
                reference.set_full_sdn(s);
            }
            _ => {}
        }
    }
    (builder.build(), reference)
}

/// Every observable of the flat plan equals the model's.
fn assert_plan_matches_model(
    att: &Att,
    sc: &FailureScenario<'_>,
    plan: &RecoveryPlan,
    reference: &RefPlan,
) {
    assert_eq!(plan.to_text(), reference.to_text());
    assert!(plan.mappings().eq(reference.mappings()));
    assert!(plan.sdn_selections().eq(reference.sdn_selections()));
    assert_eq!(plan.sdn_count(), reference.sdn.len());
    for s in (0..att.net.switch_count() + 2).map(SwitchId) {
        assert_eq!(plan.controller_of(s), reference.controller_of(s));
        assert_eq!(plan.is_full_sdn(s), reference.is_full_sdn(s));
        for l in (0..att.net.flows().len() + 2).map(FlowId) {
            assert_eq!(plan.is_sdn(s, l), reference.is_sdn(s, l));
        }
    }
    for flow_level in [false, true] {
        assert_eq!(
            plan.validate(sc, &att.prog, flow_level)
                .map_err(|e| match e {
                    pm_sdwan::SdwanError::InvalidPlan(m) => m,
                    other => other.to_string(),
                }),
            reference.validate(sc, &att.prog, flow_level),
            "validate(flow_level = {flow_level}) of\n{}",
            reference.to_text()
        );
    }
    assert_eq!(plan.controller_usage(sc), reference.controller_usage(sc));
    assert_eq!(
        plan.recovered_switch_count(),
        reference.recovered_switches().len()
    );
    assert_eq!(
        plan.total_control_delay(sc).to_bits(),
        reference.total_control_delay(sc).to_bits()
    );
    for middle_layer_ms in [0.0, 0.48] {
        let metrics = PlanMetrics::compute(sc, &att.prog, plan, middle_layer_ms);
        assert_eq!(
            metrics.total_overhead_ms.to_bits(),
            reference.total_overhead(sc, middle_layer_ms).to_bits()
        );
        assert_eq!(
            metrics.recovered_switches,
            reference.recovered_switches().len()
        );
    }
}

/// Runs `f` on both sides and compares: equal values, or equal panic
/// messages.
fn same_outcome<A, B>(
    flat: impl FnOnce() -> A + std::panic::UnwindSafe,
    model: impl FnOnce() -> B + std::panic::UnwindSafe,
) -> Option<(A, B)> {
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default()
    }
    match (
        std::panic::catch_unwind(flat),
        std::panic::catch_unwind(model),
    ) {
        (Ok(a), Ok(b)) => Some((a, b)),
        (Err(a), Err(b)) => {
            assert_eq!(message(a), message(b), "both panic, alike");
            None
        }
        (a, b) => panic!("one side panics: flat {}, model {}", a.is_ok(), b.is_ok()),
    }
}

/// A text edit applied to both sides' input: a line moved, duplicated,
/// reversed with the rest, or replaced by junk.
#[derive(Debug, Clone)]
enum TextEdit {
    Move(usize, usize),
    Duplicate(usize, usize),
    Reverse,
    Junk(usize),
}

fn text_edit() -> impl Strategy<Value = TextEdit> {
    (0u8..4, 0usize..1 << 20, 0usize..1 << 20).prop_map(|(kind, a, b)| match kind {
        0 => TextEdit::Move(a, b),
        1 => TextEdit::Duplicate(a, b),
        2 => TextEdit::Reverse,
        _ => TextEdit::Junk(a),
    })
}

fn edited_text(text: &str, edits: &[TextEdit]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for edit in edits {
        let n = lines.len().max(1);
        match *edit {
            TextEdit::Move(a, b) if !lines.is_empty() => {
                let line = lines.remove(a % n);
                lines.insert(b % n, line);
            }
            TextEdit::Duplicate(a, b) if !lines.is_empty() => {
                let line = lines[a % n].clone();
                lines.insert(b % (n + 1), line);
            }
            TextEdit::Reverse => lines.reverse(),
            TextEdit::Junk(a) => {
                let junk = ["map s1", "sdn s1 f2 Cx", "full", "# note", ""][a % 5];
                lines.insert(a % (lines.len() + 1), junk.to_string());
            }
            _ => {}
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_plan_matches_the_tree_model(
        ops in proptest::collection::vec(plan_op(), 0..48),
        base_ops in proptest::collection::vec(plan_op(), 0..24),
        order in 0usize..1 << 20,
        repeat in (0u8..4, 0usize..1 << 20),
        edits in proptest::collection::vec(text_edit(), 0..4),
    ) {
        let att = att();
        let sc = att.net.fail(&ATT_FAILED).expect("valid failure set");

        // Builder operations.
        let (plan, reference) = build_both(att, &ops);
        assert_plan_matches_model(att, &sc, &plan, &reference);

        // Bulk construction: the same decision lists, rotated out of
        // order, optionally with one decision repeated.
        let (mut mapping, mut full, mut sdn) = reference.parts();
        let turn = |len: usize| if len == 0 { 0 } else { order % len };
        let turned = turn(mapping.len());
        mapping.rotate_left(turned);
        let turned = turn(sdn.len());
        sdn.rotate_left(turned);
        full.reverse();
        // Kinds 0..3 repeat a mapping, a full-SDN switch or a selection.
        let (which, at) = repeat;
        match which {
            0 if !mapping.is_empty() => mapping.push(mapping[at % mapping.len()]),
            1 if !full.is_empty() => full.push(full[at % full.len()]),
            2 if !sdn.is_empty() => sdn.push(sdn[at % sdn.len()]),
            _ => {}
        }
        let lists = (mapping, full, sdn);
        let model_lists = lists.clone();
        if let Some((bulk, model)) = same_outcome(
            move || RecoveryPlan::from_parts(lists.0, lists.1, lists.2),
            move || RefPlan::from_parts(model_lists.0, model_lists.1, model_lists.2),
        ) {
            prop_assert_eq!(&model, &reference);
            assert_plan_matches_model(att, &sc, &bulk, &model);
        }

        // Text: the plan's own serialization, then edited.
        let text = edited_text(&plan.to_text(), &edits);
        match (RecoveryPlan::from_text(&text), RefPlan::from_text(&text)) {
            (Ok(parsed), Ok(model)) => assert_plan_matches_model(att, &sc, &parsed, &model),
            (Err(pm_sdwan::SdwanError::InvalidPlan(e)), Err(model)) => prop_assert_eq!(e, model),
            (flat, model) => prop_assert!(false, "{text:?}: flat {flat:?}, model {model:?}"),
        }

        // Difference against a second random plan, both ways.
        let (base, base_reference) = build_both(att, &base_ops);
        assert_plan_matches_model(att, &sc, &base, &base_reference);
        assert_plan_matches_model(
            att,
            &sc,
            &plan.difference(&base),
            &reference.difference(&base_reference),
        );
        assert_plan_matches_model(
            att,
            &sc,
            &base.difference(&plan),
            &base_reference.difference(&reference),
        );
    }
}
