//! The one-walk plan check, `FmssmInstance::evaluate`, against the
//! reference it stands in for on every case path: `RecoveryPlan::validate`,
//! then `PlanMetrics::compute` and `RecoveryPlan::total_control_delay`.
//! Both must give the same verdict, the same error text and the same
//! metrics, every `f64` equal bit for bit, for switch- and flow-level
//! checking and with and without a middle-layer delay.
//!
//! Plans: RetroFlow's, PM's and PG's on random Waxman WANs (f = 1..4) and
//! on every ATT case, Optimal's on ATT, the empty plan, a mixed plan (some
//! of PM's mapped switches turned whole-switch SDN, so whole-switch and
//! per-selection overhead terms interleave by switch), and seeded
//! mutations of the heuristic plans that each break one constraint — alone
//! and in pairs, so the first violation in `validate`'s order must win.

use pm_core::{FmssmInstance, Optimal, Pg, Pm, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{
    ControllerId, FlowId, PlanMetrics, Programmability, RecoveryPlan, SdWan, SdWanBuilder,
    SdwanError, SwitchId,
};
use pm_topo::rng::DetRng;
use pm_topo::{builders, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

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

/// The reference: validate, then score.
fn reference(
    inst: &FmssmInstance<'_, '_>,
    plan: &RecoveryPlan,
    flow_level: bool,
    middle_layer_ms: f64,
) -> Result<(PlanMetrics, f64), SdwanError> {
    let (sc, prog) = (inst.scenario(), inst.programmability());
    plan.validate(sc, prog, flow_level)?;
    let metrics = PlanMetrics::compute(sc, prog, plan, middle_layer_ms);
    Ok((metrics, plan.total_control_delay(sc)))
}

/// Every field equal, `f64`s by their bits. The destructuring names every
/// field, so a new one fails to compile until it is compared here.
fn assert_metrics_eq(got: &PlanMetrics, want: &PlanMetrics, plan: &RecoveryPlan) {
    let PlanMetrics {
        per_flow_programmability,
        total_programmability,
        min_programmability,
        recoverable_mask,
        recovered_flows,
        offline_flows,
        recoverable_flows,
        recovered_switches,
        offline_switches,
        controller_usage,
        total_overhead_ms,
        ideal_delay_g,
    } = want;
    let text = || plan.to_text();
    assert_eq!(
        &got.per_flow_programmability,
        per_flow_programmability,
        "{}",
        text()
    );
    assert_eq!(&got.total_programmability, total_programmability);
    assert_eq!(&got.min_programmability, min_programmability);
    assert_eq!(&got.recoverable_mask, recoverable_mask);
    assert_eq!(&got.recovered_flows, recovered_flows);
    assert_eq!(&got.offline_flows, offline_flows);
    assert_eq!(&got.recoverable_flows, recoverable_flows);
    assert_eq!(&got.recovered_switches, recovered_switches, "{}", text());
    assert_eq!(&got.offline_switches, offline_switches);
    assert_eq!(&got.controller_usage, controller_usage, "{}", text());
    assert_eq!(
        got.total_overhead_ms.to_bits(),
        total_overhead_ms.to_bits(),
        "overhead {} vs {} of\n{}",
        got.total_overhead_ms,
        total_overhead_ms,
        text()
    );
    assert_eq!(got.ideal_delay_g.to_bits(), ideal_delay_g.to_bits());
}

/// `evaluate` agrees with the reference on `plan` for both plan families
/// and two middle-layer delays; returns the reference's error texts.
fn assert_parity(inst: &FmssmInstance<'_, '_>, plan: &RecoveryPlan) -> Vec<String> {
    let mut errors = Vec::new();
    for flow_level in [false, true] {
        for middle_layer_ms in [0.0, 0.48] {
            match (
                inst.evaluate(plan, flow_level, middle_layer_ms),
                reference(inst, plan, flow_level, middle_layer_ms),
            ) {
                (Ok((got, got_delay)), Ok((want, want_delay))) => {
                    assert_metrics_eq(&got, &want, plan);
                    assert_eq!(got_delay.to_bits(), want_delay.to_bits(), "total delay");
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got.to_string(), want.to_string(), "{}", plan.to_text());
                    assert_eq!(got, want);
                    errors.push(want.to_string());
                }
                (got, want) => panic!(
                    "verdicts differ (flow_level {flow_level}): evaluate {:?}, reference {:?}\n{}",
                    got.err(),
                    want.err(),
                    plan.to_text()
                ),
            }
        }
    }
    errors
}

/// A plan's three decision lists, edited in place and rebuilt.
#[derive(Clone)]
struct Parts {
    mapping: Vec<(SwitchId, ControllerId)>,
    full: Vec<SwitchId>,
    sdn: Vec<(SwitchId, FlowId, ControllerId)>,
}

impl Parts {
    fn of(plan: &RecoveryPlan) -> Parts {
        Parts {
            mapping: plan.mappings().collect(),
            full: plan.full_sdn_switches().collect(),
            sdn: plan.sdn_selections().collect(),
        }
    }

    fn build(self) -> RecoveryPlan {
        RecoveryPlan::from_parts(self.mapping, self.full, self.sdn)
    }

    fn mapped(&self, s: SwitchId) -> Option<ControllerId> {
        self.mapping.iter().find(|m| m.0 == s).map(|m| m.1)
    }

    /// Maps `s` to `c`, replacing an earlier mapping of `s`.
    fn map(&mut self, s: SwitchId, c: ControllerId) {
        self.mapping.retain(|m| m.0 != s);
        self.mapping.push((s, c));
    }

    /// Selects `(s, l)` via `c`, replacing an earlier selection of it.
    fn select(&mut self, s: SwitchId, l: FlowId, c: ControllerId) {
        self.sdn.retain(|&(t, f, _)| (t, f) != (s, l));
        self.sdn.push((s, l, c));
    }
}

/// What the mutations draw from: one scenario's switches, flows and
/// controllers, each split by whether the failure touches it.
struct Pools {
    offline: Vec<SwitchId>,
    online: Vec<SwitchId>,
    active: Vec<ControllerId>,
    failed: Vec<ControllerId>,
    offline_flows: Vec<FlowId>,
    online_flows: Vec<FlowId>,
    /// Offline `β = 1` pairs.
    pairs: Vec<(SwitchId, FlowId)>,
    /// One past the largest switch, flow and controller id.
    ends: (usize, usize, usize),
}

impl Pools {
    fn of(inst: &FmssmInstance<'_, '_>) -> Pools {
        let net = inst.scenario().network();
        let offline: BTreeSet<_> = inst.switches().iter().copied().collect();
        let offline_flows: BTreeSet<_> = inst.flows().iter().copied().collect();
        let mut pairs = Vec::new();
        for (ip, &s) in inst.switches().iter().enumerate() {
            for &(lp, _) in inst.switch_entries(ip) {
                pairs.push((s, inst.flows()[lp]));
            }
        }
        Pools {
            offline: inst.switches().to_vec(),
            online: (0..net.switch_count())
                .map(SwitchId)
                .filter(|s| !offline.contains(s))
                .collect(),
            active: inst.controllers().to_vec(),
            failed: inst.scenario().failed_controllers().to_vec(),
            offline_flows: inst.flows().to_vec(),
            online_flows: (0..net.flows().len())
                .map(FlowId)
                .filter(|l| !offline_flows.contains(l))
                .collect(),
            pairs,
            ends: (
                net.switch_count(),
                net.flows().len(),
                net.controllers().len(),
            ),
        }
    }
}

fn pick<T: Copy>(rng: &mut DetRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[(rng.next_u64() % items.len() as u64) as usize])
}

/// The violations the mutations plant, one each.
const KINDS: usize = 13;

/// Plants violation `kind` into `parts`; `None` when the scenario offers
/// nothing to plant it with (no online switch, a single survivor, ...).
fn plant(
    kind: usize,
    parts: &mut Parts,
    pools: &Pools,
    prog: &Programmability,
    rng: &mut DetRng,
) -> Option<()> {
    let (switch_end, flow_end, ctrl_end) = pools.ends;
    // A controller `s` may use: its mapping, or any survivor.
    let usable =
        |parts: &Parts, s, rng: &mut DetRng| parts.mapped(s).or_else(|| pick(rng, &pools.active));
    match kind {
        // A mapped online switch.
        0 => {
            let s = pick(rng, &pools.online)?;
            parts.map(s, pick(rng, &pools.active)?);
        }
        // A switch mapped to a failed, then to an out-of-range controller.
        1 => {
            let s = pick(rng, &pools.offline)?;
            parts.map(s, pick(rng, &pools.failed)?);
        }
        2 => {
            let s = pick(rng, &pools.offline)?;
            parts.map(s, ControllerId(ctrl_end + 3));
        }
        // A selection at an online switch.
        3 => {
            let s = pick(rng, &pools.online)?;
            let l = pick(rng, &pools.offline_flows)?;
            parts.select(s, l, pick(rng, &pools.active)?);
        }
        // A selection via a failed, then an out-of-range controller.
        4 => {
            let (s, l) = pick(rng, &pools.pairs)?;
            parts.select(s, l, pick(rng, &pools.failed)?);
        }
        5 => {
            let (s, l) = pick(rng, &pools.pairs)?;
            parts.select(s, l, ControllerId(ctrl_end + 1));
        }
        // A selection of an online, then an out-of-range flow.
        6 => {
            let s = pick(rng, &pools.offline)?;
            let l = pick(rng, &pools.online_flows)?;
            let c = usable(parts, s, rng)?;
            parts.select(s, l, c);
        }
        7 => {
            let s = pick(rng, &pools.offline)?;
            let c = usable(parts, s, rng)?;
            parts.select(s, FlowId(flow_end + 5), c);
        }
        // A β = 0 pair: an offline flow at an offline switch off its path
        // or unable to reroute it.
        8 => {
            let (s, l) = (0..64).find_map(|_| {
                let s = pick(rng, &pools.offline)?;
                let l = pick(rng, &pools.offline_flows)?;
                (!prog.beta(l, s)).then_some((s, l))
            })?;
            let c = usable(parts, s, rng)?;
            parts.select(s, l, c);
        }
        // A pair on a switch mapped to another controller.
        9 => {
            let (s, l) = pick(rng, &pools.pairs)?;
            let mapped = match parts.mapped(s) {
                Some(c) => c,
                None => {
                    let c = pick(rng, &pools.active)?;
                    parts.map(s, c);
                    c
                }
            };
            let others: Vec<_> = pools
                .active
                .iter()
                .copied()
                .filter(|&c| c != mapped)
                .collect();
            parts.select(s, l, pick(rng, &others)?);
        }
        // An unmapped pair: illegal in a switch-level plan only.
        10 => {
            let unmapped: Vec<_> = pools
                .pairs
                .iter()
                .copied()
                .filter(|&(s, _)| parts.mapped(s).is_none())
                .collect();
            let (s, l) = pick(rng, &unmapped)?;
            parts.select(s, l, pick(rng, &pools.active)?);
        }
        // An over-capacity controller: every offline switch mapped to one
        // survivor in whole-switch SDN mode, plus every β = 1 pair.
        11 => {
            let c = pick(rng, &pools.active)?;
            *parts = Parts {
                mapping: pools.offline.iter().map(|&s| (s, c)).collect(),
                full: pools.offline.clone(),
                sdn: pools.pairs.iter().map(|&(s, l)| (s, l, c)).collect(),
            };
        }
        // A mapped out-of-range switch.
        12 => parts.map(SwitchId(switch_end + 2), pick(rng, &pools.active)?),
        _ => unreachable!("{kind} >= KINDS"),
    }
    Some(())
}

/// Checks `plan`, the plans derived from it — the mixed plan, every
/// mutation alone and a seeded pair of them — and returns every error
/// text the reference reported.
fn check_with_mutants(
    inst: &FmssmInstance<'_, '_>,
    pools: &Pools,
    plan: &RecoveryPlan,
    rng: &mut DetRng,
) -> Vec<String> {
    let prog = inst.programmability();
    let mut errors = assert_parity(inst, plan);
    let base = Parts::of(plan);

    let mut mixed = base.clone();
    for &(s, _) in &base.mapping {
        if rng.gen_bool(0.5) && !mixed.full.contains(&s) {
            mixed.full.push(s);
        }
    }
    errors.extend(assert_parity(inst, &mixed.build()));

    for kind in 0..KINDS {
        let mut parts = base.clone();
        if plant(kind, &mut parts, pools, prog, rng).is_some() {
            errors.extend(assert_parity(inst, &parts.build()));
        }
        let mut parts = base.clone();
        let other = (rng.next_u64() % KINDS as u64) as usize;
        if plant(kind, &mut parts, pools, prog, rng).is_some()
            && plant(other, &mut parts, pools, prog, rng).is_some()
        {
            errors.extend(assert_parity(inst, &parts.build()));
        }
    }
    errors
}

/// RetroFlow's, PM's and PG's plans on `failed` and their mutations, plus
/// the empty plan.
fn check_case(
    net: &SdWan,
    prog: &Programmability,
    failed: &[ControllerId],
    seed: u64,
) -> Vec<String> {
    let sc = net.fail(failed).expect("valid failure set");
    let inst = FmssmInstance::new(&sc, prog);
    let pools = Pools::of(&inst);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut errors = assert_parity(&inst, &RecoveryPlan::new());
    let algos: [&dyn RecoveryAlgorithm; 3] = [&RetroFlow::new(), &Pm::new(), &Pg::new()];
    for algo in algos {
        let plan = algo
            .recover(&inst)
            .expect("heuristics always produce a plan");
        errors.extend(check_with_mutants(&inst, &pools, &plan, &mut rng));
    }
    errors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn evaluate_matches_the_reference_on_random_networks(
        nodes in 10usize..=16,
        capacity in 20u32..=300,
        seed in 0u64..10_000,
        start in 0usize..5,
    ) {
        // Five controllers, so every f = 1..4 leaves a survivor.
        let net = waxman_net(nodes, 5, capacity, seed);
        let prog = Programmability::compute(&net);
        for f in 1..=4 {
            let failed: Vec<_> = (0..f).map(|i| ControllerId((start + i) % 5)).collect();
            check_case(&net, &prog, &failed, seed ^ f as u64);
        }
    }
}

#[test]
fn evaluate_matches_the_reference_on_every_att_case() {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup");
    let prog = Programmability::compute(&net);
    let m = net.controllers().len();
    let mut errors = Vec::new();
    for f in 1..m {
        for (i, failed) in pm_bench::combinations(m, f).into_iter().enumerate() {
            errors.extend(check_case(&net, &prog, &failed, (f * 100 + i) as u64));
        }
    }
    // Every violation was planted and reported at least once.
    for needle in [
        "is not offline",
        "is not active",
        "SDN pair at online switch",
        "assigned to failed controller",
        "is not an offline flow",
        "β = 0",
        "is mapped to",
        "at unmapped switch",
        "but has capacity",
    ] {
        assert!(
            errors.iter().any(|e| e.contains(needle)),
            "no plan was rejected for '{needle}'"
        );
    }
}

#[test]
fn evaluate_matches_the_reference_on_optimal_plans() {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup");
    let prog = Programmability::compute(&net);
    for failed in [
        vec![ControllerId(4)],
        vec![ControllerId(3), ControllerId(4)],
    ] {
        let sc = net.fail(&failed).expect("valid failure set");
        let inst = FmssmInstance::new(&sc, &prog);
        let out = Optimal::new()
            .time_limit(Duration::from_millis(300))
            .solve_detailed(&inst)
            .expect("warm start guarantees an incumbent");
        assert!(
            assert_parity(&inst, &out.plan).is_empty(),
            "Optimal's plan is valid"
        );
        let mut rng = DetRng::seed_from_u64(failed.len() as u64);
        check_with_mutants(&inst, &Pools::of(&inst), &out.plan, &mut rng);
    }
}

#[test]
fn the_empty_plan_has_a_negative_zero_delay() {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup");
    let prog = Programmability::compute(&net);
    let sc = net.fail(&[ControllerId(3)]).expect("valid failure set");
    let inst = FmssmInstance::new(&sc, &prog);
    let (metrics, delay) = inst
        .evaluate(&RecoveryPlan::new(), false, 0.0)
        .expect("valid");
    assert_eq!(delay.to_bits(), (-0.0f64).to_bits());
    assert_eq!(format!("{delay:.6}"), "-0.000000");
    assert_eq!(metrics.total_overhead_ms.to_bits(), 0.0f64.to_bits());
}
