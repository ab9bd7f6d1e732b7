//! Property tests for the dense index-space layout: the flat, arena-indexed
//! tables (programmability lookup, `FmssmInstance` positions, plan
//! validation) must agree everywhere with the ID-native reference semantics
//! they replaced — sparse-map lookups that simply miss on unknown ids.
//!
//! Networks are random Waxman graphs with randomly placed controllers plus
//! the paper's ATT setup; failure sets are random proper subsets of the
//! controllers.
//!
//! The PG and RetroFlow heuristics are also checked against oracles: their
//! straightforward formulations (a rescan of every flow per PG round, one
//! keyed plan insert per decision), kept here verbatim. The shipped
//! versions must give the same plans and the same `pg.*` / `retroflow.*`
//! counters.

use pm_core::{FmssmInstance, Pg, Pm, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{
    ControllerId, FlowId, NetCache, Programmability, RecoveryPlan, SdWan, SdWanBuilder, SwitchId,
};
use pm_topo::{builders, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;
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
        assert_eq!(
            plain.controllers_by_delay(ip),
            cached.controllers_by_delay(ip)
        );
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
    let mut plan = RecoveryPlan::new();
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
    (plan, counters)
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
    let mut plan = RecoveryPlan::new();
    for ip in order {
        let cost = inst.gamma(ip) as i64;
        let Some(&j) = inst
            .controllers_by_delay(ip)
            .iter()
            .find(|&&j| a[j] >= cost)
        else {
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
    (plan, counters)
}

/// Runs `algo` with the recorder on and returns its plan and the counters
/// under `prefix` that the run recorded.
fn recover_counted(
    algo: &dyn RecoveryAlgorithm,
    inst: &FmssmInstance<'_, '_>,
    prefix: &str,
) -> (RecoveryPlan, Counters) {
    pm_obs::enable();
    pm_obs::reset();
    let plan = algo.recover(inst).expect("recovers");
    let counters = pm_obs::snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect();
    (plan, counters)
}

/// PG and RetroFlow equal their oracles on the failure of `failed`, plan
/// and counters alike.
fn assert_matches_oracles(net: &SdWan, prog: &Programmability, failed: &[ControllerId]) {
    let _recorder = recorder_lock();
    let sc = net.fail(failed).expect("valid failure set");
    let inst = FmssmInstance::new(&sc, prog);
    let (want, want_counters) = pg_oracle(&inst);
    let (got, got_counters) = recover_counted(&Pg::new(), &inst, "pg.");
    assert_eq!(got, want, "PG plan differs from its oracle on {failed:?}");
    assert_eq!(got_counters, want_counters, "PG counters on {failed:?}");
    let (want, want_counters) = retroflow_oracle(&inst);
    let (got, got_counters) = recover_counted(&RetroFlow::new(), &inst, "retroflow.");
    assert_eq!(
        got, want,
        "RetroFlow plan differs from its oracle on {failed:?}"
    );
    assert_eq!(
        got_counters, want_counters,
        "RetroFlow counters on {failed:?}"
    );
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
    for f in 1..m {
        for failed in pm_bench::combinations(m, f) {
            assert_matches_oracles(&net, &prog, &failed);
            cases += 1;
        }
    }
    assert_eq!(cases, (1 << m) - 2, "every proper non-empty failure set");
}
