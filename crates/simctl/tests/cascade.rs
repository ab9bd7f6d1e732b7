//! Cascading-failure dynamics: validated plans never overload a
//! controller, but a naive whole-network remap onto one controller does —
//! and brings it down (the paper's cascading-failure motivation, \[8\]).

use pm_core::{FmssmInstance, Pm, RecoveryAlgorithm};
use pm_sdwan::{ControllerId, PlanBuilder, Programmability, SdWanBuilder};
use pm_simctl::{CascadeConfig, RecoveryTiming, SimTime, Simulation};

#[test]
fn validated_plans_never_cascade() {
    let net = SdWanBuilder::att_paper_setup().build().unwrap();
    let prog = Programmability::compute(&net);
    let failed = [ControllerId(3), ControllerId(4)];
    let scenario = net.fail(&failed).unwrap();
    let inst = FmssmInstance::new(&scenario, &prog);
    let plan = Pm::new().recover(&inst).unwrap();
    plan.validate(&scenario, &prog, false).unwrap();

    let mut sim = Simulation::new(&net);
    sim.enable_cascade(CascadeConfig {
        delay: SimTime::from_ms(50.0),
    });
    sim.schedule_failure(SimTime::from_ms(0.0), &failed);
    sim.schedule_recovery(
        SimTime::from_ms(10.0),
        &scenario,
        &plan,
        RecoveryTiming::default(),
    );
    let report = sim.run(SimTime::from_ms(300_000.0)).unwrap();
    assert!(
        report.cascaded_controllers.is_empty(),
        "a capacity-validated plan cascaded: {:?}",
        report.cascaded_controllers
    );
    assert!(report.all_flows_deliverable);
}

#[test]
fn naive_single_controller_remap_cascades() {
    // Dump every offline flow onto one controller, ignoring Eq. (3). This
    // is exactly the "without appropriate remapping, active controllers
    // could be overloaded … cascading controller failure" scenario of the
    // paper's introduction.
    let net = SdWanBuilder::att_paper_setup().build().unwrap();
    let prog = Programmability::compute(&net);
    let failed = [ControllerId(3), ControllerId(4)];
    let scenario = net.fail(&failed).unwrap();

    let victim = ControllerId(0); // C2: residual 64 — far too small
    let mut naive = PlanBuilder::default();
    for &s in scenario.offline_switches() {
        naive.map_switch(s, victim);
    }
    for &l in scenario.offline_flows() {
        for &(s, _) in prog.flow_entries(l) {
            if scenario.is_offline(s) {
                naive.set_sdn(s, l);
            }
        }
    }
    let naive = naive.build();
    assert!(
        naive.validate(&scenario, &prog, false).is_err(),
        "the naive plan must violate Eq. (3)"
    );

    let mut sim = Simulation::new(&net);
    sim.enable_cascade(CascadeConfig {
        delay: SimTime::from_ms(50.0),
    });
    sim.schedule_failure(SimTime::from_ms(0.0), &failed);
    sim.schedule_recovery(
        SimTime::from_ms(10.0),
        &scenario,
        &naive,
        RecoveryTiming::default(),
    );
    let report = sim.run(SimTime::from_ms(300_000.0)).unwrap();
    assert!(
        report.cascaded_controllers.contains(&victim),
        "the overloaded controller must cascade: {:?}",
        report.cascaded_controllers
    );
    // After the cascade, the victim's own domain is offline too.
    for &s in net.domain_switches(victim) {
        assert_eq!(sim.master_of(s), None, "{s} still thinks {victim} is alive");
    }
}

#[test]
fn cascade_disabled_by_default() {
    let net = SdWanBuilder::att_paper_setup().build().unwrap();
    let prog = Programmability::compute(&net);
    let failed = [ControllerId(3), ControllerId(4)];
    let scenario = net.fail(&failed).unwrap();
    let victim = ControllerId(0);
    let mut naive = PlanBuilder::default();
    for &s in scenario.offline_switches() {
        naive.map_switch(s, victim);
    }
    for &l in scenario.offline_flows() {
        for &(s, _) in prog.flow_entries(l) {
            if scenario.is_offline(s) {
                naive.set_sdn(s, l);
            }
        }
    }
    let naive = naive.build();
    let mut sim = Simulation::new(&net);
    sim.schedule_failure(SimTime::from_ms(0.0), &failed);
    sim.schedule_recovery(
        SimTime::from_ms(10.0),
        &scenario,
        &naive,
        RecoveryTiming::default(),
    );
    let report = sim.run(SimTime::from_ms(300_000.0)).unwrap();
    assert!(report.cascaded_controllers.is_empty());
}
