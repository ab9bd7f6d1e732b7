//! The incremental solver core's contract: every delta-updated structure
//! is indistinguishable from a fresh build.
//!
//! Property-tested over seeded Waxman WANs (the scale drills' topology
//! family): scenario deltas and workspace-reusing PM runs must equal their
//! cold counterparts exactly,
//! and the sweep engine's delta path must reproduce the recompute path
//! byte for byte at every `--jobs` × `--shard` combination.

use pm_bench::{build_wan, CaseResult, EvalOptions, SweepEngine, WanSpec};
use pm_core::{FmssmInstance, Pm, PmWorkspace, RecoveryAlgorithm};
use pm_sdwan::{ControllerId, FailureScenario, NetCache, Programmability, SdWan};
use pm_topo::rng::DetRng;
use proptest::prelude::*;

/// A small Waxman WAN in the scale binaries' family, sized for test speed.
fn wan(seed: u64, nodes: usize, controllers: usize) -> SdWan {
    build_wan(&WanSpec {
        nodes,
        controllers,
        flows: 96,
        headroom: 1.5,
        seed,
    })
    .net
}

/// `count` distinct f-subsets of `0..m`, each colex-adjacent chains can
/// walk; consecutive sets may differ in several controllers.
fn failure_sets(rng: &mut DetRng, m: usize, f: usize, count: usize) -> Vec<Vec<ControllerId>> {
    let mut sets = Vec::with_capacity(count);
    for _ in 0..count {
        let mut all: Vec<usize> = (0..m).collect();
        for i in 0..f {
            let j = i + (rng.next_u64() as usize) % (m - i);
            all.swap(i, j);
        }
        let mut failed: Vec<ControllerId> = all[..f].iter().map(|&c| ControllerId(c)).collect();
        failed.sort_by_key(|c| c.0);
        sets.push(failed);
    }
    sets
}

/// Advances `scenario` from its current failure set to `next` by a chain
/// of single (revived, failed) swaps — the walk `SweepEngine::with_case`
/// makes.
fn walk_delta(scenario: &mut FailureScenario<'_>, next: &[ControllerId], cache: &NetCache) {
    let outs: Vec<ControllerId> = scenario
        .failed_controllers()
        .iter()
        .copied()
        .filter(|c| !next.contains(c))
        .collect();
    let ins: Vec<ControllerId> = next
        .iter()
        .copied()
        .filter(|c| !scenario.failed_controllers().contains(c))
        .collect();
    assert_eq!(outs.len(), ins.len(), "same failure count either side");
    for (&remove, &add) in outs.iter().zip(&ins) {
        scenario
            .apply_delta_cached(remove, add, cache)
            .expect("symmetric-difference swaps are valid");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta-walked scenarios equal fresh builds, with and without the
    /// cache, field for field (including the bit pattern of the
    /// ideal-delay bound) over random failure-set chains on seeded Waxman
    /// WANs.
    #[test]
    fn scenario_delta_chain_equals_fresh_builds(
        seed in 0u64..1_000,
        nodes in 40usize..100,
        f in 1usize..=3,
    ) {
        let net = wan(seed, nodes, 6);
        let cache = NetCache::build(&net);
        let mut rng = DetRng::seed_from_u64(seed ^ 0x5eed);
        let sets = failure_sets(&mut rng, 6, f, 6);
        let mut rolling = net.fail_cached(&sets[0], &cache).expect("valid case");
        for failed in &sets {
            walk_delta(&mut rolling, failed, &cache);
            let fresh = net.fail(failed).expect("valid case");
            prop_assert!(rolling == fresh, "delta diverged from fail at {failed:?}");
            let cached = net.fail_cached(failed, &cache).expect("valid case");
            prop_assert!(rolling == cached, "delta diverged from fail_cached at {failed:?}");
        }
    }

    /// PM run in a carried workspace produces the same plan as a cold run
    /// on every case of a chain: the workspace reuses allocations, never
    /// decisions.
    #[test]
    fn pm_workspace_chain_equals_cold_runs(
        seed in 0u64..1_000,
        nodes in 40usize..100,
        f in 1usize..=3,
    ) {
        let net = wan(seed, nodes, 6);
        let prog = Programmability::compute(&net);
        let mut rng = DetRng::seed_from_u64(seed ^ 0xcafe);
        let sets = failure_sets(&mut rng, 6, f, 6);
        let mut ws = PmWorkspace::default();
        for failed in &sets {
            let scenario = net.fail(failed).expect("valid case");
            let inst = FmssmInstance::new(&scenario, &prog);
            let warm = Pm::new().recover_in(&inst, &mut ws).expect("PM recovers");
            let cold = Pm::new().recover(&inst).expect("PM recovers");
            prop_assert_eq!(warm, cold, "workspace changed the plan at {:?}", failed);
        }
    }
}

/// One workspace carried across instances whose switch count grows and
/// shrinks, past one and several 64-switch words of the phase-1 buckets,
/// gives every plan a fresh workspace gives.
#[test]
fn pm_workspace_across_growing_and_shrinking_instances_equals_cold_runs() {
    let mut ws = PmWorkspace::default();
    let mut sizes = Vec::new();
    for (nodes, f) in [
        (40, 1),
        (300, 5),
        (60, 2),
        (200, 4),
        (30, 1),
        (300, 3),
        (90, 5),
    ] {
        let net = wan(nodes as u64, nodes, 6);
        let prog = Programmability::compute(&net);
        let failed: Vec<ControllerId> = (0..f).map(ControllerId).collect();
        let scenario = net.fail(&failed).expect("valid case");
        let inst = FmssmInstance::new(&scenario, &prog);
        sizes.push(inst.switches().len());
        let warm = Pm::new().recover_in(&inst, &mut ws).expect("PM recovers");
        let cold = Pm::new().recover(&inst).expect("PM recovers");
        assert_eq!(warm, cold, "{nodes} nodes, {f} failed");
    }
    assert!(sizes.iter().any(|&n| n > 128), "several words: {sizes:?}");
    assert!(sizes.windows(2).any(|w| w[0] > w[1]), "shrinks: {sizes:?}");
}

/// All recorded result fields of a case — everything except wall-clock
/// times — as a comparable string.
fn fingerprint(case: &CaseResult) -> String {
    let runs: Vec<String> = case
        .runs
        .iter()
        .map(|r| {
            format!(
                "{}|{:?}|{}|{:?}",
                r.name,
                r.metrics,
                r.total_delay.to_bits(),
                r.proved_optimal
            )
        })
        .collect();
    format!("{}#{:?}#{}", case.label, case.failed, runs.join(";"))
}

fn sweep_fingerprints(net: &SdWan, opts: EvalOptions) -> Vec<String> {
    SweepEngine::new(net, opts)
        .sweep(2)
        .iter()
        .map(fingerprint)
        .collect()
}

/// The acceptance matrix: delta-path sweeps are byte-identical to the cold
/// recompute path at jobs ∈ {1, 8} × shard m ∈ {1, 3}, and the shards
/// reassemble the unsharded sweep.
#[test]
fn delta_sweeps_match_recompute_across_jobs_and_shards() {
    let net = wan(7, 80, 6);
    let base = EvalOptions {
        skip_optimal: true,
        batch: 4,
        ..Default::default()
    };
    // The cold reference: `run_case` starts every case from a fresh
    // delta state.
    let engine = SweepEngine::new(&net, base.clone());
    let sel = engine.selection(2);
    let reference: Vec<String> = (0..sel.len())
        .map(|pos| fingerprint(&engine.run_case(&sel.scenario_at(pos))))
        .collect();
    assert!(!reference.is_empty());
    for jobs in [1usize, 8] {
        for m in [1usize, 3] {
            let mut union = Vec::new();
            for i in 1..=m {
                let opts = EvalOptions {
                    jobs,
                    shard: (m > 1).then_some((i, m)),
                    ..base.clone()
                };
                union.extend(sweep_fingerprints(&net, opts));
            }
            assert_eq!(
                union, reference,
                "delta path diverged from recompute at jobs={jobs} shards={m}"
            );
        }
    }
}
