//! End-to-end dynamics: failure → legacy fallback → recovery plan applied →
//! programmability restored, with latency and message accounting.

use pm_core::{FmssmInstance, Pg, Pm, RecoveryAlgorithm};
use pm_sdwan::hybrid::TableHit;
use pm_sdwan::{ControllerId, FlowId, Programmability, SdWanBuilder};
use pm_simctl::{RecoveryTiming, SimTime, Simulation};

fn paper_net() -> (pm_sdwan::SdWan, Programmability) {
    let net = SdWanBuilder::att_paper_setup().build().unwrap();
    let prog = Programmability::compute(&net);
    (net, prog)
}

#[test]
fn steady_state_delivers_everything_via_flow_tables() {
    let (net, _) = paper_net();
    let mut sim = Simulation::new(&net);
    let report = sim.run(SimTime::from_ms(1.0)).unwrap();
    assert!(report.all_flows_deliverable);
    // Every on-path hop should hit the flow table in normal operation.
    let f = FlowId(0);
    let flow = net.flow(f);
    let hit = sim.table(flow.src).lookup(f, flow.dst).unwrap();
    assert_eq!(hit.hit, TableHit::FlowTable);
}

#[test]
fn failure_falls_back_to_legacy_but_still_delivers() {
    let (net, _) = paper_net();
    let mut sim = Simulation::new(&net);
    sim.schedule_failure(SimTime::from_ms(100.0), &[ControllerId(3)]);
    let report = sim.run(SimTime::from_ms(200.0)).unwrap();
    // The headline property of hybrid switches: packets keep flowing on
    // OSPF even though programmability is lost.
    assert!(
        report.all_flows_deliverable,
        "undeliverable: {:?}",
        report.undeliverable
    );
    // Offline switches now route via the legacy table.
    let offline = net.domain_switches(ControllerId(3));
    let l = net
        .flows_at(offline[0])
        .iter()
        .copied()
        .find(|&l| net.flow(l).dst != offline[0])
        .unwrap();
    let hit = sim.table(offline[0]).lookup(l, net.flow(l).dst).unwrap();
    assert_eq!(hit.hit, TableHit::LegacyTable);
    assert_eq!(sim.master_of(offline[0]), None);
}

#[test]
fn recovery_restores_control_and_counts_messages() {
    let (net, prog) = paper_net();
    let scenario = net.fail(&[ControllerId(3)]).unwrap();
    let inst = FmssmInstance::new(&scenario, &prog);
    let plan = Pm::new().recover(&inst).unwrap();
    let planned_mods = plan.sdn_count();
    let planned_switches = plan.recovered_switch_count();

    let mut sim = Simulation::new(&net);
    sim.schedule_failure(SimTime::from_ms(100.0), &[ControllerId(3)]);
    sim.schedule_recovery(
        SimTime::from_ms(110.0),
        &scenario,
        &plan,
        RecoveryTiming::default(),
    );
    let report = sim.run(SimTime::from_ms(60_000.0)).unwrap();

    assert_eq!(report.role_requests_sent, planned_switches);
    assert_eq!(report.flow_mods_sent, planned_mods);
    assert_eq!(report.switch_recovery_ms.len(), planned_switches);
    assert!(report.all_flows_deliverable);

    // Every planned switch is controlled by its planned controller.
    for (s, c) in plan.mappings() {
        assert_eq!(sim.master_of(s), Some(c));
    }
    // Recovery latencies are positive and bounded by a sane WAN figure
    // (hundreds of ms even with queueing).
    let mean = report.mean_switch_recovery_ms().unwrap();
    assert!(
        mean > 0.0 && mean < 1_000.0,
        "mean switch recovery {mean} ms"
    );
    let worst = report.max_flow_recovery_ms().unwrap();
    assert!(worst < 1_000.0, "worst flow recovery {worst} ms");
}

#[test]
fn flow_mods_only_after_role_handshake() {
    let (net, prog) = paper_net();
    let scenario = net.fail(&[ControllerId(3)]).unwrap();
    let inst = FmssmInstance::new(&scenario, &prog);
    let plan = Pm::new().recover(&inst).unwrap();
    let mut sim = Simulation::new(&net);
    sim.schedule_failure(SimTime::from_ms(0.0), &[ControllerId(3)]);
    sim.schedule_recovery(
        SimTime::from_ms(10.0),
        &scenario,
        &plan,
        RecoveryTiming::default(),
    );
    let report = sim.run(SimTime::from_ms(60_000.0)).unwrap();
    // For each switch, its earliest flow programmability must be at or
    // after the switch's role handshake completed.
    let switch_time: std::collections::BTreeMap<_, _> =
        report.switch_recovery_ms.iter().copied().collect();
    for &(l, t_flow) in &report.flow_first_program_ms {
        let earliest_switch = plan
            .sdn_selections()
            .filter(|&(_, fl, _)| fl == l)
            .filter_map(|(s, _, _)| switch_time.get(&s))
            .fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(
            t_flow >= earliest_switch - 1e-9,
            "flow {l} programmed at {t_flow} before any of its switches recovered"
        );
    }
}

#[test]
fn middle_layer_slows_recovery() {
    let (net, prog) = paper_net();
    let scenario = net.fail(&[ControllerId(3)]).unwrap();
    let inst = FmssmInstance::new(&scenario, &prog);
    let pm_plan = Pm::new().recover(&inst).unwrap();
    let pg = Pg::new();
    let pg_plan = pg.recover(&inst).unwrap();

    let run = |plan: &pm_sdwan::RecoveryPlan, middle: f64| {
        let mut sim = Simulation::new(&net);
        sim.schedule_failure(SimTime::from_ms(0.0), &[ControllerId(3)]);
        sim.schedule_recovery(
            SimTime::from_ms(10.0),
            &scenario,
            plan,
            RecoveryTiming {
                middle_layer_ms: middle,
                ..Default::default()
            },
        );
        sim.run(SimTime::from_ms(120_000.0)).unwrap()
    };
    let direct = run(&pm_plan, 0.0);
    let via_layer = run(&pg_plan, pg.middle_layer_ms());
    assert!(
        via_layer.mean_flow_recovery_ms().unwrap() > direct.mean_flow_recovery_ms().unwrap(),
        "middle layer must slow mean flow recovery ({:?} vs {:?})",
        via_layer.mean_flow_recovery_ms(),
        direct.mean_flow_recovery_ms()
    );
}

#[test]
fn deterministic_replay() {
    let (net, prog) = paper_net();
    let scenario = net.fail(&[ControllerId(1), ControllerId(3)]).unwrap();
    let inst = FmssmInstance::new(&scenario, &prog);
    let plan = Pm::new().recover(&inst).unwrap();
    let run = || {
        let mut sim = Simulation::new(&net);
        sim.schedule_failure(SimTime::from_ms(5.0), &[ControllerId(1), ControllerId(3)]);
        sim.schedule_recovery(
            SimTime::from_ms(15.0),
            &scenario,
            &plan,
            RecoveryTiming::default(),
        );
        let r = sim.run(SimTime::from_ms(120_000.0)).unwrap();
        (
            r.switch_recovery_ms,
            r.flow_first_program_ms,
            r.flow_mods_sent,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn horizon_stops_simulation_early() {
    let (net, prog) = paper_net();
    let scenario = net.fail(&[ControllerId(3)]).unwrap();
    let inst = FmssmInstance::new(&scenario, &prog);
    let plan = Pm::new().recover(&inst).unwrap();
    let mut sim = Simulation::new(&net);
    sim.schedule_failure(SimTime::from_ms(0.0), &[ControllerId(3)]);
    sim.schedule_recovery(
        SimTime::from_ms(10.0),
        &scenario,
        &plan,
        RecoveryTiming::default(),
    );
    // Stop before the recovery even starts.
    let report = sim.run(SimTime::from_ms(5.0)).unwrap();
    assert_eq!(report.flow_mods_sent, 0);
    assert!(report.switch_recovery_ms.is_empty());
    // Resume to completion.
    let report2 = sim.run(SimTime::from_ms(120_000.0)).unwrap();
    assert!(report2.flow_mods_sent > 0);
}
