//! `RecoveryPlan::to_text_into`, which assembles each line on the stack,
//! against the `writeln!` renderer it replaced: the same bytes for
//! RetroFlow's, PM's and PG's plans on random Waxman WANs (f = 1..4) and
//! on every ATT case, and for hand-built plans whose ids sit at every
//! digit-count boundary up to `usize::MAX`. Every text parses back to
//! the plan it came from.

use pm_core::{FmssmInstance, Pg, Pm, RecoveryAlgorithm, RetroFlow};
use pm_sdwan::{
    ControllerId, FlowId, Programmability, RecoveryPlan, SdWan, SdWanBuilder, SwitchId,
};
use pm_topo::{builders, NodeId};
use proptest::prelude::*;

/// The renderer as it was: one `writeln!` per decision.
fn reference_text(plan: &RecoveryPlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (s, c) in plan.mappings() {
        let _ = writeln!(out, "map s{} C{}", s.index(), c.index());
    }
    for s in plan.full_sdn_switches() {
        let _ = writeln!(out, "full s{}", s.index());
    }
    for (s, l, c) in plan.sdn_selections() {
        let _ = writeln!(out, "sdn s{} f{} C{}", s.index(), l.index(), c.index());
    }
    out
}

/// Byte-identical to the reference, appended after what `out` already
/// holds, and parsed back to `plan`.
fn assert_text(plan: &RecoveryPlan) {
    let want = reference_text(plan);
    assert_eq!(plan.to_text(), want);
    let mut carried = String::from("# carried\n");
    plan.to_text_into(&mut carried);
    assert_eq!(carried.strip_prefix("# carried\n"), Some(want.as_str()));
    assert_eq!(&RecoveryPlan::from_text(&want).expect("parses"), plan);
}

/// RetroFlow's, PM's and PG's plans for every failure set of `sets`.
fn assert_heuristic_texts(net: &SdWan, sets: impl IntoIterator<Item = Vec<ControllerId>>) {
    let prog = Programmability::compute(net);
    let algos: [&dyn RecoveryAlgorithm; 3] = [&RetroFlow::new(), &Pm::new(), &Pg::new()];
    for failed in sets {
        let sc = net.fail(&failed).expect("valid failure set");
        let inst = FmssmInstance::new(&sc, &prog);
        for algo in algos {
            assert_text(&algo.recover(&inst).expect("heuristics always plan"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn heuristic_plans_render_as_before_on_random_networks(
        nodes in 10usize..=16,
        capacity in 20u32..=300,
        seed in 0u64..10_000,
        start in 0usize..5,
    ) {
        let graph = builders::waxman(&builders::WaxmanParams {
            nodes,
            seed,
            ..Default::default()
        })
        .expect("valid waxman parameters");
        let mut b = SdWanBuilder::new(graph).allow_overload();
        for i in 0..5 {
            b = b.controller(NodeId(i * nodes / 5), capacity);
        }
        let net = b.all_pairs_flows().build().expect("network builds");
        // Five controllers, so every f = 1..4 leaves a survivor.
        let sets = (1..=4).map(|f| (0..f).map(|i| ControllerId((start + i) % 5)).collect());
        assert_heuristic_texts(&net, sets);
    }
}

#[test]
fn heuristic_plans_render_as_before_on_every_att_case() {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup");
    let m = net.controllers().len();
    assert_heuristic_texts(&net, (1..m).flat_map(|f| pm_bench::combinations(m, f)));
}

#[test]
fn ids_at_every_digit_boundary_render_as_before() {
    let ids = [0, 9, 10, 99, 100, 1023, u32::MAX as usize, usize::MAX];
    // Each id as a switch, mapped to a controller whose id is another.
    let mapping: Vec<_> = ids
        .iter()
        .zip(ids.iter().rev())
        .map(|(&s, &c)| (SwitchId(s), ControllerId(c)))
        .collect();
    let full: Vec<_> = ids.iter().step_by(2).map(|&s| SwitchId(s)).collect();
    let sdn: Vec<_> = ids
        .iter()
        .flat_map(|&s| {
            ids.iter()
                .map(move |&l| (SwitchId(s), FlowId(l), ControllerId(l ^ s)))
        })
        .collect();
    assert_text(&RecoveryPlan::new());
    assert_text(&RecoveryPlan::from_parts(
        mapping.clone(),
        full.clone(),
        Vec::new(),
    ));
    assert_text(&RecoveryPlan::from_parts(
        Vec::new(),
        Vec::new(),
        sdn.clone(),
    ));
    let plan = RecoveryPlan::from_parts(mapping, full, sdn);
    assert_text(&plan);
    // The widest line holds three 20-digit ids.
    let max = usize::MAX;
    assert!(plan
        .to_text()
        .lines()
        .any(|line| line == format!("sdn s{max} f{max} C0")));
}
