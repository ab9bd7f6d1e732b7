//! Property tests for the SD-WAN domain model: scenario derivation,
//! programmability structure and plan validation on random networks.

use pm_sdwan::{ControllerId, FlowId, PlanBuilder, Programmability, SdWan, SdWanBuilder};
use pm_topo::builders::{waxman, WaxmanParams};
use pm_topo::NodeId;
use proptest::prelude::*;

fn arb_net() -> impl Strategy<Value = SdWan> {
    (6usize..=16, 0u64..500, 2usize..=4).prop_filter_map("buildable", |(nodes, seed, ctrls)| {
        let g = waxman(&WaxmanParams {
            nodes,
            seed,
            ..Default::default()
        })
        .ok()?;
        let mut b = SdWanBuilder::new(g);
        for c in 0..ctrls {
            b = b.controller(NodeId(c * (nodes / ctrls)), 10_000);
        }
        b.build().ok()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scenario derivation invariants: offline flows are exactly the flows
    /// traversing offline switches; active + failed partitions controllers.
    #[test]
    fn failure_scenario_invariants(net in arb_net()) {
        let scenario = net.fail(&[ControllerId(0)]).unwrap();
        for (l, flow) in net.flows().iter().enumerate() {
            let crosses = flow.path.iter().any(|&s| scenario.is_offline(s));
            let listed = scenario.offline_flows().binary_search(&FlowId(l)).is_ok();
            prop_assert_eq!(crosses, listed, "flow {} misclassified", l);
        }
        let total = scenario.active_controllers().len() + scenario.failed_controllers().len();
        prop_assert_eq!(total, net.controllers().len());
        for &c in scenario.active_controllers() {
            prop_assert!(scenario.residual_capacity(c) <= net.controllers()[c.index()].capacity);
        }
        prop_assert!(scenario.ideal_delay_g() >= 0.0);
    }

    /// γ accounting: the sum of per-switch flow counts equals the sum of
    /// path lengths (in nodes) over all flows.
    #[test]
    fn gamma_is_path_node_count(net in arb_net()) {
        let lhs: u64 = net.switches().map(|s| net.gamma(s) as u64).sum();
        let rhs: u64 = net.flows().iter().map(|f| f.path.len() as u64).sum();
        prop_assert_eq!(lhs, rhs);
    }

    /// β = 1 entries always sit on the flow's path, exclude the
    /// destination, and carry p̄ ≥ 2.
    #[test]
    fn programmability_entries_well_formed(net in arb_net()) {
        let prog = Programmability::compute(&net);
        for (l, flow) in net.flows().iter().enumerate() {
            for &(s, p) in prog.flow_entries(FlowId(l)) {
                prop_assert!(flow.traverses(s));
                prop_assert!(s != flow.dst);
                prop_assert!(p >= 2);
                prop_assert_eq!(prog.pbar(FlowId(l), s), p);
                prop_assert!(prog.beta(FlowId(l), s));
            }
            prop_assert_eq!(
                prog.max_programmability(FlowId(l)),
                prog.flow_entries(FlowId(l)).iter().map(|&(_, p)| p as u64).sum::<u64>()
            );
        }
    }

    /// Validation rejects corrupted plans: mapping an online switch, or
    /// selecting a (switch, flow) pair with β = 0.
    #[test]
    fn validation_rejects_corruption(net in arb_net()) {
        let prog = Programmability::compute(&net);
        let scenario = net.fail(&[ControllerId(0)]).unwrap();
        let active = *scenario.active_controllers().first().unwrap();

        // Corruption 1: map an online switch.
        if let Some(online) = net.switches().find(|&s| !scenario.is_offline(s)) {
            let mut plan = PlanBuilder::default();
            plan.map_switch(online, active);
            prop_assert!(plan.build().validate(&scenario, &prog, false).is_err());
        }
        // Corruption 2: select a β = 0 pair (an offline flow at its
        // offline destination switch).
        let bad = scenario.offline_flows().iter().find_map(|&l| {
            let f = net.flow(l);
            scenario.is_offline(f.dst).then_some((l, f.dst))
        });
        if let Some((l, s)) = bad {
            let mut plan = PlanBuilder::default();
            plan.map_switch(s, active);
            plan.set_sdn(s, l);
            prop_assert!(plan.build().validate(&scenario, &prog, false).is_err());
        }
    }

    /// The delay matrix is consistent with shortest-path distances and the
    /// controller ordering the instance derives is non-decreasing.
    #[test]
    fn ctrl_delays_match_dijkstra(net in arb_net()) {
        for (c, ctrl) in net.controllers().iter().enumerate() {
            let spt = pm_topo::paths::dijkstra(net.topology(), ctrl.node);
            for s in net.switches() {
                let expect = spt.dist_to(s.node()).unwrap();
                prop_assert!((net.ctrl_delay(s, ControllerId(c)) - expect).abs() < 1e-9);
            }
        }
    }
}
