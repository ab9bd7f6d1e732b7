//! Pins the LP kernel's branch-and-bound trajectory.
//!
//! Each solve below must explore exactly the recorded number of nodes,
//! take exactly the recorded number of simplex pivots and bound flips,
//! warm-start exactly as often, and return an objective with exactly the
//! recorded bits. A kernel change that reorders floating-point work moves
//! LP vertices, and with them node counts; this test catches that before
//! the benchmark's pinned pool does.
//!
//! `milp.simplex.refactorizations` is deliberately not pinned: the warm
//! start screens out doomed bases before refactorizing them, so that
//! count may drop while the trajectory stays put.
//!
//! The counters come from the process-global `pm_obs` recorder, which is
//! why this is its own test binary and why every solve runs inside one
//! test function.

use pm_core::{FmssmInstance, Optimal};
use pm_milp::{MilpSolver, MilpStatus, Model, Sense, VarKind};
use pm_sdwan::{spread_controllers, ControllerId, Programmability, SdWanBuilder};
use pm_topo::builders::{self, WaxmanParams};
use pm_topo::rng::DetRng;
use std::time::Duration;

/// What one solve did: nodes, pivots, bound flips, warm-start hits and
/// the objective's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Trajectory {
    nodes: usize,
    pivots: u64,
    bound_flips: u64,
    reuse_hits: u64,
    objective_bits: u64,
}

fn counter(snap: &pm_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// Runs `solve` (which returns its node count and objective) and reads
/// the simplex counters it moved.
fn trajectory(solve: impl FnOnce() -> (usize, f64)) -> Trajectory {
    let before = pm_obs::snapshot();
    let (nodes, objective) = solve();
    let after = pm_obs::snapshot();
    let delta = |name| counter(&after, name) - counter(&before, name);
    Trajectory {
        nodes,
        pivots: delta("milp.simplex.pivots"),
        bound_flips: delta("milp.simplex.bound_flips"),
        reuse_hits: delta("milp.basis.reuse_hits"),
        objective_bits: objective.to_bits(),
    }
}

/// Optimal on seeded small Waxman instance `seed`: 12–14 switches, three
/// or four farthest-point controllers, capacities 10 % above the realized
/// load, two controllers failed. The budget is far above what any of the
/// pinned instances needs, and a solve that hits it fails loudly.
fn optimal_trajectory(seed: u64) -> Trajectory {
    let nodes = 12 + (seed % 3) as usize;
    let ctrls = 3 + (seed % 2) as usize;
    let g = builders::waxman(&WaxmanParams {
        nodes,
        seed: 0x7a1e_c700 ^ seed,
        ..Default::default()
    })
    .expect("waxman graph builds");
    let sites = spread_controllers(&g, ctrls).expect("controllers place");
    let mut b = SdWanBuilder::new(g);
    for site in sites {
        b = b.controller(site, 0);
    }
    let net = b.auto_capacity(1.1).build().expect("network builds");
    let mut failed = vec![
        ControllerId(seed as usize % ctrls),
        ControllerId((seed as usize + 1) % ctrls),
    ];
    failed.sort_unstable();
    let prog = Programmability::compute(&net);
    let scenario = net.fail(&failed).expect("failure applies");
    let inst = FmssmInstance::new(&scenario, &prog);
    trajectory(|| {
        let out = Optimal::new()
            .time_limit(Duration::from_secs(60))
            .solve_detailed(&inst)
            .expect("the PM warm start guarantees an incumbent");
        assert!(out.proved_optimal(), "seed {seed}: {:?}", out.status);
        (out.nodes, out.objective)
    })
}

/// A seeded 0/1 knapsack: 24 items, correlated weights and values,
/// capacity about 40 % of the total weight.
fn knapsack_trajectory() -> Trajectory {
    let mut rng = DetRng::seed_from_u64(0x6b6e_6170);
    let mut m = Model::new();
    let mut weight_terms = Vec::new();
    let mut value_terms = Vec::new();
    let mut total = 0.0;
    for i in 0..24 {
        let x = m.add_binary(format!("x{i}"));
        let w = (10.0 + rng.gen_range(0.0, 40.0)).round();
        let v = (w + rng.gen_range(0.0, 10.0)).round();
        total += w;
        weight_terms.push((x, w));
        value_terms.push((x, v));
    }
    m.add_constraint(weight_terms, Sense::Le, (0.4 * total).round());
    m.maximize(value_terms);
    milp_trajectory(&m)
}

/// A seeded generalized assignment: 12 jobs, each assigned to exactly
/// one of 4 agents (equality rows), agents capacity-limited (inequality
/// rows), minimizing cost.
#[allow(clippy::needless_range_loop)]
fn assignment_trajectory() -> Trajectory {
    const JOBS: usize = 12;
    const AGENTS: usize = 4;
    let mut rng = DetRng::seed_from_u64(0x6173_7367);
    let mut m = Model::new();
    let mut x = Vec::new();
    for j in 0..JOBS {
        let row: Vec<_> = (0..AGENTS)
            .map(|a| m.add_var(format!("x{j}_{a}"), VarKind::Binary))
            .collect();
        x.push(row);
    }
    let size: Vec<Vec<f64>> = (0..JOBS)
        .map(|_| {
            (0..AGENTS)
                .map(|_| (5.0 + rng.gen_range(0.0, 20.0)).round())
                .collect()
        })
        .collect();
    let mut cost = Vec::new();
    for j in 0..JOBS {
        m.add_constraint((0..AGENTS).map(|a| (x[j][a], 1.0)), Sense::Eq, 1.0);
        for a in 0..AGENTS {
            cost.push((x[j][a], -(1.0 + rng.gen_range(0.0, 30.0)).round()));
        }
    }
    for a in 0..AGENTS {
        let load: f64 = (0..JOBS).map(|j| size[j][a]).sum();
        m.add_constraint(
            (0..JOBS).map(|j| (x[j][a], size[j][a])),
            Sense::Le,
            (0.35 * load).round(),
        );
    }
    m.maximize(cost);
    milp_trajectory(&m)
}

fn milp_trajectory(m: &Model) -> Trajectory {
    trajectory(|| {
        let r = MilpSolver::new().solve(m);
        assert_eq!(r.status, MilpStatus::Optimal);
        let objective = r.solution.expect("optimal has a solution").objective;
        (r.nodes_explored, objective)
    })
}

/// `(seed, trajectory)` of each pinned Optimal instance, recorded before
/// the slice kernels and the screened warm start landed.
const OPTIMAL: &[(u64, Trajectory)] = &[
    (0, t(1, 151, 21, 0, 4613929569890107264)),
    (8, t(1, 227, 106, 0, 4613934682029633446)),
    (9, t(187, 23113, 3278, 0, 4613928195164946284)),
    (13, t(31, 1850, 181, 0, 4613905183461164677)),
    (15, t(45, 8828, 1006, 0, 4613932688856531751)),
    (27, t(7, 388, 32, 0, 4613911634522309374)),
    (32, t(15, 1938, 261, 0, 4613480685948069406)),
    (34, t(25, 1506, 223, 0, 4613618979329400897)),
];
const KNAPSACK: Trajectory = t(35, 267, 331, 0, 4645498200004755456);
const ASSIGNMENT: Trajectory = t(7, 310, 55, 0, 13858913059558391808);

const fn t(
    nodes: usize,
    pivots: u64,
    bound_flips: u64,
    reuse_hits: u64,
    objective_bits: u64,
) -> Trajectory {
    Trajectory {
        nodes,
        pivots,
        bound_flips,
        reuse_hits,
        objective_bits,
    }
}

#[test]
fn lp_trajectories_match_the_recorded_ones() {
    pm_obs::enable();
    let mut mismatches = Vec::new();
    let mut check = |name: String, got: Trajectory, want: Trajectory| {
        if got != want {
            mismatches.push(format!("{name}: got {got:?}, recorded {want:?}"));
        }
    };
    for &(seed, want) in OPTIMAL {
        check(
            format!("optimal seed {seed}"),
            optimal_trajectory(seed),
            want,
        );
    }
    check("knapsack".into(), knapsack_trajectory(), KNAPSACK);
    check("assignment".into(), assignment_trajectory(), ASSIGNMENT);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
