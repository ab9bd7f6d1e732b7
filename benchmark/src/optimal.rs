//! `optimal-14`: the exact MILP baseline (`Optimal::solve_detailed`) on a
//! fixed pool of 14-switch Waxman instances — the only workload that
//! gives `pm_milp` work.
//!
//! Exact-solver time is heavy-tailed across instance families: on
//! 13-switch instances with 128–140 flows it ran from 0.1 ms to beyond a
//! 10 s budget, so a pool drawn per seed swung the total several-fold
//! from seed to seed. The pool is therefore fixed: the first 24
//! 14-switch instances whose model covers 110–125 flows, each at most
//! about 0.2 s and 63 branch-and-bound nodes. The seed orders the solves;
//! the pool is solved in passes until the time budget is spent, each pass
//! one round. Node counts and objectives are checked against recorded
//! values on every solve.

use crate::layers::{counter, layer, PrefixTiming, Recording, Traced};
use crate::probe::Probe;
use crate::stats::{median, secs};
use crate::{measure_after_setup, rounds, Measured, Outcome, Round, Sizes};
use pm_core::{FmssmInstance, Optimal, Pm, RecoveryAlgorithm};
use pm_sdwan::{spread_controllers, ControllerId, NetCache, PlanMetrics, SdWan, SdWanBuilder};
use pm_topo::builders::{waxman, WaxmanParams};
use pm_topo::rng::DetRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Seed of the candidate stream the pool is drawn from.
const POOL_SEED: u64 = 42;
/// Flows an instance's FMSSM model must cover to join the pool.
const POOL_FLOWS: std::ops::RangeInclusive<usize> = 110..=125;
/// Switches per instance.
const SWITCHES: usize = 14;
/// Controllers per instance; each instance fails two adjacent ones.
const CONTROLLERS: usize = 4;
/// The solver's budget per instance; every pool instance is proved far
/// within it.
const TIME_LIMIT: Duration = Duration::from_secs(10);

/// One pool instance: a network, its caches and the failure set.
#[derive(Debug)]
pub struct Instance {
    net: SdWan,
    cache: NetCache,
    failed: Vec<ControllerId>,
}

/// Candidate `i` of the stream: farthest-point controllers, capacities
/// 10 % above the realized load, controllers `i mod 4` and `(i+1) mod 4`
/// failed. `None` when it cannot be built or its instance falls outside
/// [`POOL_FLOWS`].
fn candidate(i: u64) -> Option<Instance> {
    let g = layer("layer.topo.waxman", || {
        waxman(&WaxmanParams {
            nodes: SWITCHES,
            seed: POOL_SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i,
            ..Default::default()
        })
    })
    .ok()?;
    let sites = layer("layer.sdwan.placement", || {
        spread_controllers(&g, CONTROLLERS)
    })
    .ok()?;
    let net = layer("layer.sdwan.build", || {
        let mut b = SdWanBuilder::new(g);
        for site in sites {
            b = b.controller(site, 0);
        }
        b.auto_capacity(1.1).build()
    })
    .ok()?;
    let cache = layer("layer.sdwan.netcache", || NetCache::build(&net));
    let c = CONTROLLERS as u64;
    let mut failed = vec![
        ControllerId((i % c) as usize),
        ControllerId(((i + 1) % c) as usize),
    ];
    failed.sort_unstable();
    let flows = {
        let sc = net.fail_cached(&failed, &cache).ok()?;
        FmssmInstance::with_cache(&sc, cache.programmability(), &cache)
            .flows()
            .len()
    };
    POOL_FLOWS
        .contains(&flows)
        .then_some(Instance { net, cache, failed })
}

/// The first `n` candidates that qualify.
pub fn pool(n: usize) -> Vec<Instance> {
    (1..).filter_map(candidate).take(n).collect()
}

/// One instance solved by PM and by Optimal.
#[derive(Debug, Clone, PartialEq)]
pub struct Solve {
    /// Branch-and-bound nodes Optimal explored.
    pub nodes: usize,
    /// Optimal's FMSSM objective, recomputed from its plan.
    pub objective: f64,
    /// PM's objective on the same instance.
    pub pm_objective: f64,
    /// Whether Optimal proved optimality.
    pub proved: bool,
    /// Whether Optimal's plan passed validation.
    pub valid: bool,
    /// PM's solve time, seconds.
    pub pm_s: f64,
    /// Optimal's solve time, seconds.
    pub optimal_s: f64,
}

/// Solves `inst` with PM and then with Optimal, each call in its span.
pub fn solve(inst: &Instance) -> Solve {
    let prog = inst.cache.programmability();
    let sc = layer("layer.sdwan.fail_cached", || {
        inst.net.fail_cached(&inst.failed, &inst.cache)
    })
    .expect("pool instances are valid");
    let fmssm = layer("layer.pm.instance", || {
        FmssmInstance::with_cache(&sc, prog, &inst.cache)
    });
    let objective = |plan| {
        let m = layer("layer.sdwan.metrics", || {
            PlanMetrics::compute(&sc, prog, plan, 0.0)
        });
        fmssm.objective(&m.per_flow_programmability, true)
    };
    let pm = Pm::new();
    let t0 = Instant::now();
    let pm_plan = layer("layer.pm.pm", || pm.recover(&fmssm)).expect("PM always produces a plan");
    let pm_s = secs(t0);
    let t0 = Instant::now();
    let out = layer("layer.pm.optimal", || {
        Optimal::new().time_limit(TIME_LIMIT).solve_detailed(&fmssm)
    })
    .expect("the PM warm start guarantees an incumbent");
    let optimal_s = secs(t0);
    let valid = layer("layer.sdwan.validate", || {
        out.plan.validate(&sc, prog, false)
    })
    .is_ok();
    Solve {
        nodes: out.nodes,
        objective: objective(&out.plan),
        pm_objective: objective(&pm_plan),
        proved: out.proved_optimal(),
        valid,
        pm_s,
        optimal_s,
    }
}

/// Failed checks of `s`, pool instance `idx`: proved optimal, a valid
/// plan, no worse than PM, and the recorded node count and objective.
pub fn check(s: &Solve, idx: usize, expected: &[(usize, f64)]) -> u64 {
    let recorded = expected
        .get(idx)
        .is_none_or(|&(nodes, obj)| nodes == s.nodes && (obj - s.objective).abs() <= 1e-9);
    u64::from(!s.proved)
        + u64::from(!s.valid)
        + u64::from(s.objective < s.pm_objective - 1e-9)
        + u64::from(!recorded)
}

/// Solves the pool in passes, each in a seeded order, until the time
/// budget is spent (at least one pass); each pass is one round.
pub fn run(sizes: &Sizes, seed: u64, seconds: f64, probe: &mut Probe) -> Outcome {
    measure_after_setup(
        sizes,
        probe,
        || pool(sizes.optimal_instances),
        |pool, probe| measure(pool, sizes, seed, seconds, probe),
    )
}

fn measure(
    pool: &[Instance],
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    probe: &mut Probe,
) -> Measured {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let (mut attempted, mut failed) = (0u64, u64::from(pool.len() != sizes.optimal_instances));
    let mut record = vec![(0, 0.0); pool.len()];
    let rounds = rounds(seconds, probe, |_| {
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let (mut optimal_us, mut pm_us) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        for &idx in &order {
            let s = solve(&pool[idx]);
            attempted += 1;
            failed += check(&s, idx, &sizes.expected.optimal);
            record[idx] = (s.nodes, s.objective);
            optimal_us.push(s.optimal_s * 1e6);
            pm_us.push(s.pm_s * 1e6);
        }
        Round {
            ops_per_s: pool.len() as f64 / secs(t0),
            p50_us: median(&optimal_us),
            solve_p50_us: median(&pm_us),
        }
    });
    Measured {
        attempted,
        failed,
        notes: vec![
            ("instances".into(), pool.len().to_string()),
            ("passes".into(), rounds.len().to_string()),
            ("pool_nodes_objective".into(), format!("{record:?}")),
        ],
        ..Measured::over(&rounds)
    }
}

/// Traces one pass over the pool, and its generation.
pub fn trace(sizes: &Sizes) -> Traced {
    let untraced_pool = pool(sizes.optimal_instances);
    let t0 = Instant::now();
    let untraced: Vec<Solve> = untraced_pool.iter().map(solve).collect();
    let untraced_s = secs(t0);
    drop(untraced_pool);

    let rec = Recording::start();
    let pool = pool(sizes.optimal_instances);
    let t0 = Instant::now();
    let traced: Vec<Solve> = pool.iter().map(solve).collect();
    let traced_s = secs(t0);
    let snap = pm_obs::snapshot();

    let nodes: usize = traced.iter().map(|s| s.nodes).sum();
    let optimal_s: f64 = traced.iter().map(|s| s.optimal_s).sum();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let extra = BTreeMap::from([
        ("milp.bb_nodes", nodes as f64),
        ("milp.node_us", optimal_s * 1e6 / nodes.max(1) as f64),
        (
            "milp.pivots_per_node",
            ratio(
                counter(&snap, "milp.simplex.pivots"),
                counter(&snap, "milp.bnb.nodes"),
            ),
        ),
        (
            "milp.basis_reuse_share",
            ratio(
                counter(&snap, "milp.basis.reuse_hits"),
                counter(&snap, "milp.simplex.solves"),
            ),
        ),
    ]);
    let mut out = rec.finish(
        PrefixTiming {
            untraced_s,
            traced_s,
        },
        extra,
    );
    out.attempted = 2 * traced.len() as u64;
    out.failed = traced
        .iter()
        .enumerate()
        .map(|(i, s)| check(s, i, &sizes.expected.optimal))
        .sum::<u64>()
        + traced
            .iter()
            .zip(&untraced)
            .filter(|(a, b)| (a.nodes, a.objective) != (b.nodes, b.objective))
            .count() as u64;
    out
}
