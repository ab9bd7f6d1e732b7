//! Beyond the paper's figures: what does recovered programmability *buy*?
//!
//! The paper motivates programmability as the ability to reroute flows
//! under network variation (Section II-A). This drill simulates exactly
//! that: after the (13, 20) double failure and recovery by each algorithm,
//! the most-loaded link gets congested and the traffic engineering loop
//! tries to steer every flow crossing it onto an alternate path with a
//! single programmable deviation (`pm_core::Rerouter`).
//!
//! The fraction of crossing flows each algorithm can move is the utility
//! its recovery actually delivers.
//!
//! Run: `cargo run --release -p pm-bench --bin reroute_drill -- --help` for the flags.

use pm_bench::flags::{run_main, Args, CliError};
use pm_bench::{EvalOptions, SweepEngine};
use pm_core::{FmssmInstance, Pg, Pm, RecoveryAlgorithm, Rerouter, RetroFlow};
use pm_sdwan::{ControllerId, SdWanBuilder, SwitchId};
use std::process::ExitCode;

const HELP: &str =
    "reroute_drill [options]: rerouting around a congested link after the (13,20) failure";

fn main() -> ExitCode {
    run_main(&[HELP], reroute_drill)
}

fn reroute_drill(args: &mut Args, opts: EvalOptions) -> Result<(), CliError> {
    args.finish()?;
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let engine = SweepEngine::new(&net, opts);
    let prog = engine.programmability();
    let failed = [ControllerId(3), ControllerId(4)];
    let scenario = engine.scenario(&failed).expect("valid failure");
    let inst = FmssmInstance::with_cache(&scenario, prog, engine.cache());

    // The most-loaded link by flow count.
    let mut best: Option<(SwitchId, SwitchId, usize)> = None;
    for e in net.topology().edges() {
        let (a, b) = (SwitchId(e.a.index()), SwitchId(e.b.index()));
        let crossing = net
            .flows()
            .iter()
            .filter(|f| {
                f.path
                    .windows(2)
                    .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
            })
            .count();
        if best.map_or(true, |(_, _, c)| crossing > c) {
            best = Some((a, b, crossing));
        }
    }
    let (a, b, crossing_count) = best.expect("topology has edges");
    println!(
        "congested link: {a}–{b} ({} ↔ {}), {crossing_count} flows crossing",
        net.topology().node(a.node()).name,
        net.topology().node(b.node()).name,
    );
    let crossing: Vec<_> = net
        .flows()
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.path
                .windows(2)
                .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
        })
        .map(|(l, _)| pm_sdwan::FlowId(l))
        .collect();

    println!(
        "\n{:<10} {:>10} {:>12} {:>14}",
        "algorithm", "reroutable", "% of crossing", "mean detour(ms)"
    );
    for algo in [
        &RetroFlow::new() as &dyn RecoveryAlgorithm,
        &Pm::new(),
        &Pg::new(),
    ] {
        let plan = algo.recover(&inst).expect("plan");
        let mut rr = Rerouter::new(&scenario, prog, &plan);
        let mut moved = 0usize;
        let mut detour_sum = 0.0;
        for &l in &crossing {
            if let Ok(action) = rr.reroute_around_link(l, a, b) {
                moved += 1;
                let old = pm_topo::paths::path_weight(
                    net.topology(),
                    &net.flow(l)
                        .path
                        .iter()
                        .map(|s| s.node())
                        .collect::<Vec<_>>(),
                )
                .expect("original path valid");
                let new = pm_topo::paths::path_weight(
                    net.topology(),
                    &action.path.iter().map(|s| s.node()).collect::<Vec<_>>(),
                )
                .expect("new path valid");
                detour_sum += new - old;
            }
        }
        println!(
            "{:<10} {:>10} {:>12.0}% {:>14.3}",
            algo.name(),
            format!("{moved}/{}", crossing.len()),
            100.0 * moved as f64 / crossing.len() as f64,
            if moved > 0 {
                detour_sum / moved as f64
            } else {
                0.0
            }
        );
    }
    println!(
        "\n(reroute = one FlowMod at a programmable switch onto a loop-free \
         alternate; the legacy tail needs no further entries)"
    );

    // Part 2: the full TE loop — drive the hottest link's utilization down
    // with up to 32 single-deviation moves under each recovery plan.
    let tm = pm_sdwan::TrafficMatrix::gravity(&net, 10_000.0);
    let base = pm_sdwan::LinkLoads::compute(&net, &tm, &Default::default());
    let capacity = base.max_link().map(|(_, l)| l / 0.8).unwrap_or(1.0);
    println!("\nhotspot relief (gravity traffic, hottest link starts at 80% utilization):");
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>7}",
        "algorithm", "initial", "final", "relief", "moves"
    );
    for algo in [
        &RetroFlow::new() as &dyn RecoveryAlgorithm,
        &Pm::new(),
        &Pg::new(),
    ] {
        let plan = algo.recover(&inst).expect("plan");
        let report =
            pm_core::relieve_hotspots(&scenario, prog, &plan, &tm, capacity, 32).expect("traffic");
        println!(
            "{:<10} {:>11.1}% {:>11.1}% {:>7.1}% {:>7}",
            algo.name(),
            report.initial_utilization * 100.0,
            report.final_utilization * 100.0,
            report.relief() * 100.0,
            report.moves.len()
        );
    }
    Ok(())
}
