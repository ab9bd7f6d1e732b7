//! Library backing `pmctl`, the operator command-line tool of the
//! ProgrammabilityMedic reproduction.
//!
//! Everything is testable without spawning a process: [`run`] takes argv
//! and a writer, so the unit tests drive the exact code the binary runs.
//!
//! ```console
//! pmctl topology                     # describe the evaluation network
//! pmctl plan --fail 13,20            # compute a PM recovery plan
//! pmctl plan --fail 13,20 --algo pg --out plan.txt
//! pmctl check --fail 13,20 --plan plan.txt
//! pmctl compare --fail 13,20        # all four algorithms side by side
//! pmctl simulate --fail 13,20       # discrete-event recovery animation
//! pmctl relieve --fail 13,20        # hotspot relief with the recovered programmability
//! pmctl inspect --fail 13,20        # FMSSM instance diagnostics
//! pmctl repro fig5 --opt-secs 20    # regenerate the paper's Fig. 5
//! pmctl sweep --nodes 1000 --failures 3 --csv out   # 1k-switch failure sweep
//! pmctl simulate --timelines 100 --nodes 1000       # seeded failure timelines
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod obs_cmd;
mod obs_prof;
mod obs_top;
mod repro;
mod serve_cmd;

use pm_bench::figures::{
    scale_case_rows, shard_note, timing_report, write_bench_scale_json, ScaleRunInfo, SpaceInfo,
    SCALE_CASE_HEADERS,
};
use pm_bench::flags::{
    take_opt_secs, take_seed, take_timeline_count, take_timeline_params, Args, Telemetry,
};
use pm_bench::report::{write_csv, write_jsonl};
use pm_bench::timelines::{timeline_rows, write_bench_timeline_json, TimelineRunInfo};
use pm_bench::{build_wan, EvalOptions, SweepEngine, WanSpec, TIMELINE_CASE_HEADERS};
use pm_core::{FmssmInstance, Optimal, Pg, Pm, RecoveryAlgorithm, RetroFlow, TwoStage};
use pm_sdwan::{
    place_controllers, ControllerId, NetCache, PlacementStrategy, PlanMetrics, Programmability,
    RecoveryPlan, SdWan, SdWanBuilder,
};
use pm_simctl::{RecoveryTiming, SimTime, Simulation};
use std::ffi::OsString;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use pm_bench::flags::CliError;

const USAGE: &str = "\
pmctl — ProgrammabilityMedic operator tool

USAGE:
  pmctl topology [network options]
  pmctl plan     --fail N[,N..] [--algo pm|retroflow|pg|optimal|twostage]
                 [--opt-secs S] [--out FILE] [--export-lp FILE]
                 [network options]
  pmctl check    --fail N[,N..] --plan FILE [network options]
  pmctl compare  --fail N[,N..] [--opt-secs S] [network options]
  pmctl simulate --fail N[,N..] [--algo ...] [--cascade] [network options]
  pmctl simulate --timelines N [--horizon-ms MS] [--mean-gap-ms MS]
                 [--max-failed F] [--no-drain] [dispatch options]
                 [--csv DIR] [network options]
                 replay N seeded failure timelines; --csv DIR writes
                 timeline_cases.csv, timeline_cases.jsonl, BENCH_timeline.json
  pmctl relieve  --fail N[,N..] [--algo ...] [--moves M] [network options]
  pmctl inspect  --fail N[,N..] [network options]
  pmctl sweep    [--failures K] [dispatch options] [--csv DIR]
                 [network options]
                 RetroFlow, PM and PG on every K-failure case (default 1);
                 --csv DIR writes scale_cases.csv, scale_cases.jsonl,
                 BENCH_scale.json
  pmctl serve    [--addr HOST:PORT] [--horizon K] [--jobs N] [--workers W]
                 [--port-file PATH] [network options]
                 run pmd: precompute all f <= K plans, serve POST /plan,
                 GET /plans/<rank>, POST /reload, POST /shutdown
  pmctl repro    NAME [evaluation options]   regenerate a paper output
                 (table3, fig4..fig7 and three studies; see pmctl repro help)
  pmctl obs      report|diff|gate|top|flame|critical ...   (see pmctl obs help)

Failed controllers are named by the node they sit at (the paper's
convention): --fail 13,20 fails the controllers at nodes 13 and 20.

network options: one source; the default, the paper's ATT setup, has a
fixed shape. A shape flag the source does not take is a usage error.
  --graphml FILE       load a Topology Zoo GraphML file, with
    --controllers K    controllers placed by k-center (default 6)
    --capacity C       per-controller capacity (default: auto-sized)
  --nodes N            generate a connected Waxman WAN of N switches, with
    --controllers K    controllers placed farthest-point (default 32)
    --flows F          flows routed over bounded endpoint pools (default 1024)
    --headroom H       uniform capacity factor >= 1 over the peak load
                       (default 1.5)
    --seed N           topology and flow seed (default 42); on sweep and
                       simulate --timelines, the dispatch --seed below

dispatch options (sweep, simulate --timelines):
  --jobs N             worker threads (default: all cores); results are
                       identical for every N
  --shard i/m          run only the i-th of m contiguous slices; shard
                       outputs concatenate to the full run
  --max-scenarios N    cap the sweep, sampling without replacement
  --seed N             seed of the sample, the timelines and a --nodes
                       network (default 42)
  --batch N            items materialized per worker dispatch (default 32)

The observability options below are valid on every command.
";

/// The full usage text: the commands, then the shared telemetry flags.
fn usage() -> String {
    format!("{USAGE}\n{}", pm_bench::flags::TELEMETRY_HELP)
}

/// Where a command's network comes from (the network group).
pub(crate) enum NetworkSpec {
    /// The paper's ATT setup; its shape is fixed.
    Att,
    /// A Topology Zoo GraphML file, controllers placed by k-center.
    GraphMl {
        path: PathBuf,
        controllers: usize,
        capacity: Option<u32>,
    },
    /// A generated Waxman WAN ([`pm_bench::build_wan`]).
    Wan(WanSpec),
}

impl NetworkSpec {
    /// The source's name, the `topology.model` of the BENCH artifacts.
    fn model(&self) -> &'static str {
        match self {
            NetworkSpec::Att => "att",
            NetworkSpec::GraphMl { .. } => "graphml",
            NetworkSpec::Wan(_) => "waxman",
        }
    }
}

/// Runs the CLI against `args` (without the program name), writing human
/// output to `out`.
///
/// Arguments are [`OsString`]s so file paths pass through losslessly —
/// a non-UTF-8 temp directory cannot panic the CLI. Flags whose values
/// are *names or numbers* (not paths) still must be valid UTF-8.
///
/// # Errors
///
/// Returns a [`CliError`] carrying the exit code and message.
pub fn run(args: &[OsString], out: &mut dyn Write) -> Result<(), CliError> {
    let mut args = Args::new(args.to_vec());
    // The telemetry flags are global: valid on every command, taken
    // before dispatch so no command's own parsing sees them. Telemetry
    // is exported even when the command failed — a trace of a failed run
    // is exactly what one wants to look at.
    let plane = Telemetry::take(&mut args)?.start()?;
    let result = dispatch(args, out);
    let exported = plane.finish(out);
    result.and(exported)
}

fn dispatch(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.take_first() else {
        return Err(CliError::usage(usage()));
    };
    match command.to_string_lossy().as_ref() {
        "topology" => cmd_topology(args, out),
        "plan" => cmd_plan(args, out),
        "check" => cmd_check(args, out),
        "compare" => cmd_compare(args, out),
        "simulate" => cmd_simulate(args, out),
        "relieve" => cmd_relieve(args, out),
        "inspect" => cmd_inspect(args, out),
        "sweep" => cmd_sweep(args, out),
        "repro" => repro::cmd_repro(args, out),
        "serve" => serve_cmd::cmd_serve(args, out),
        "obs" => obs_cmd::cmd_obs(args, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", usage());
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other}\n\n{}",
            usage()
        ))),
    }
}

/// Takes the network group off `args`: `--graphml FILE [--controllers K]
/// [--capacity C]`, `--nodes N [--controllers K] [--flows F] [--headroom
/// H]`, or neither for the paper's ATT setup. A shape flag the chosen
/// source does not take is a usage error naming it. `seed` is the
/// `--seed` the command's dispatch group already took; without one, a
/// `--nodes` source takes `--seed` itself.
pub(crate) fn parse_network(args: &mut Args, seed: Option<u64>) -> Result<NetworkSpec, CliError> {
    let graphml = args.take_path("--graphml")?;
    let nodes = args.contains("--nodes");
    let (spec, source, foreign): (_, _, &[&str]) = match graphml {
        Some(_) if nodes => {
            return Err(CliError::usage(
                "--graphml and --nodes name two network sources; give one",
            ))
        }
        Some(path) => (
            NetworkSpec::GraphMl {
                path,
                controllers: args
                    .take_parsed("--controllers", "a controller count", |_: &usize| true)?
                    .unwrap_or(6),
                capacity: args.take_parsed("--capacity", "a capacity in flows", |_: &u32| true)?,
            },
            "a --graphml network",
            &["--flows", "--headroom"],
        ),
        None if nodes => {
            let seed = match seed {
                Some(seed) => seed,
                None => take_seed(args)?.unwrap_or(EvalOptions::default().seed),
            };
            let spec = NetworkSpec::Wan(WanSpec::take(args, seed)?);
            (spec, "a --nodes network", &["--capacity"])
        }
        None => (
            NetworkSpec::Att,
            "the paper's ATT network (give --graphml or --nodes)",
            &["--controllers", "--capacity", "--flows", "--headroom"],
        ),
    };
    match foreign.iter().find(|flag| args.contains(flag)) {
        Some(flag) => Err(CliError::usage(format!(
            "{flag} does not apply to {source}"
        ))),
        None => Ok(spec),
    }
}

pub(crate) fn build_network(spec: &NetworkSpec) -> Result<SdWan, CliError> {
    match spec {
        NetworkSpec::Att => SdWanBuilder::att_paper_setup()
            .build()
            .map_err(|e| CliError::runtime(format!("cannot build paper network: {e}"))),
        NetworkSpec::GraphMl {
            path,
            controllers,
            capacity,
        } => {
            let g = pm_topo::zoo::load_graphml_file(path)
                .map_err(|e| CliError::runtime(format!("cannot load {}: {e}", path.display())))?;
            let sites = place_controllers(&g, *controllers, PlacementStrategy::KCenter)
                .map_err(|e| CliError::runtime(format!("placement failed: {e}")))?;
            let mut b = SdWanBuilder::new(g);
            for &s in &sites {
                b = b.controller(s, capacity.unwrap_or(0));
            }
            if capacity.is_none() {
                // Auto-size capacity from the realized loads, 10 % headroom.
                b = b.auto_capacity(1.1);
            }
            b.build()
                .map_err(|e| CliError::runtime(format!("cannot build network: {e}")))
        }
        NetworkSpec::Wan(wan) => Ok(build_wan(wan).net),
    }
}

/// The dispatch group as `sweep` and `simulate --timelines` run it:
/// heuristics only.
fn sweep_options(args: &mut Args) -> Result<EvalOptions, CliError> {
    Ok(EvalOptions {
        skip_optimal: true,
        ..EvalOptions::take_dispatch(args)?
    })
}

/// The closing stdout line of a sweep: the space, its selection and the
/// dispatch's in-flight peak against its `jobs × batch` bound.
fn write_space_line(out: &mut dyn Write, kind: &str, space: &SpaceInfo) {
    let _ = writeln!(
        out,
        "{kind} space {} -> selected {}{}; live peak {} <= bound {}",
        space.size,
        space.selected,
        if space.sampled {
            " (seeded sample)"
        } else {
            ""
        },
        space.live_peak,
        space.live_bound
    );
}

/// Parses `--fail 13,20` (node ids) into controller ids of `net`.
fn parse_failures(net: &SdWan, args: &mut Args) -> Result<Vec<ControllerId>, CliError> {
    let Some(spec) = args.take_str_flag("--fail")? else {
        return Err(CliError::usage("--fail is required (e.g. --fail 13,20)"));
    };
    let mut failed = Vec::new();
    for token in spec.split(',') {
        let node: usize = token
            .trim()
            .parse()
            .map_err(|_| CliError::usage(format!("--fail: bad node id {token}")))?;
        let ctrl = net
            .controllers()
            .iter()
            .position(|c| c.node.index() == node)
            .ok_or_else(|| {
                let sites: Vec<usize> = net.controllers().iter().map(|c| c.node.index()).collect();
                CliError::usage(format!(
                    "no controller at node {node}; controllers sit at {sites:?}"
                ))
            })?;
        failed.push(ControllerId(ctrl));
    }
    Ok(failed)
}

fn parse_algo(args: &mut Args) -> Result<String, CliError> {
    Ok(args.take_str_flag("--algo")?.unwrap_or_else(|| "pm".into()))
}

fn make_algo(name: &str, opt_secs: u64) -> Result<Box<dyn RecoveryAlgorithm>, CliError> {
    match name {
        "pm" => Ok(Box::new(Pm::new())),
        "retroflow" => Ok(Box::new(RetroFlow::new())),
        "pg" => Ok(Box::new(Pg::new())),
        "optimal" => Ok(Box::new(
            Optimal::new().time_limit(Duration::from_secs(opt_secs)),
        )),
        "twostage" => Ok(Box::new(
            TwoStage::new().time_limit_per_stage(Duration::from_secs(opt_secs.max(1) / 2 + 1)),
        )),
        other => Err(CliError::usage(format!(
            "unknown algorithm {other} (pm|retroflow|pg|optimal|twostage)"
        ))),
    }
}

fn parse_opt_secs(args: &mut Args) -> Result<u64, CliError> {
    Ok(take_opt_secs(args)?.unwrap_or(20))
}

fn cmd_topology(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = parse_network(&mut args, None)?;
    args.finish()?;
    let net = build_network(&spec)?;
    let g = net.topology();
    let _ = writeln!(
        out,
        "nodes: {}   undirected links: {}   directed links: {}",
        g.node_count(),
        g.edge_count(),
        g.directed_edge_count()
    );
    let _ = writeln!(
        out,
        "flows: {} (routed on shortest paths)",
        net.flows().len()
    );
    let _ = writeln!(out, "controllers:");
    for (c, ctrl) in net.controllers().iter().enumerate() {
        let cid = ControllerId(c);
        let _ = writeln!(
            out,
            "  C{} at n{} ({}) — domain {:?}, load {}/{}",
            c,
            ctrl.node.index(),
            g.node(ctrl.node).name,
            net.domain_switches(cid)
                .iter()
                .map(|s| s.index())
                .collect::<Vec<_>>(),
            net.controller_load(cid),
            ctrl.capacity
        );
    }
    if let Some(stats) = pm_topo::metrics::graph_stats(g) {
        let _ = writeln!(
            out,
            "degree: min {} / mean {:.1} / max {}; diameter {:.2} ms; \
             mean path {:.2} ms ({:.2} hops)",
            stats.min_degree,
            stats.mean_degree,
            stats.max_degree,
            stats.diameter,
            stats.mean_distance,
            stats.mean_hops
        );
    }
    let max_gamma = net.switches().map(|s| net.gamma(s)).max().unwrap_or(0);
    let hub = net
        .switches()
        .find(|&s| net.gamma(s) == max_gamma)
        .expect("nonempty");
    let _ = writeln!(
        out,
        "busiest switch: s{} ({}) with {} flows",
        hub.index(),
        g.node(hub.node()).name,
        max_gamma
    );
    Ok(())
}

fn print_metrics(out: &mut dyn Write, m: &PlanMetrics) {
    let _ = writeln!(
        out,
        "recovered flows: {}/{} recoverable ({} offline total)",
        m.recovered_flows, m.recoverable_flows, m.offline_flows
    );
    let _ = writeln!(
        out,
        "recovered switches: {}/{}",
        m.recovered_switches, m.offline_switches
    );
    let _ = writeln!(out, "total programmability: {}", m.total_programmability);
    let _ = writeln!(
        out,
        "least programmability (recoverable flows): {}",
        m.min_programmability_recoverable()
    );
    let _ = writeln!(out, "per-flow overhead: {:.3} ms", m.per_flow_overhead_ms());
    for u in &m.controller_usage {
        let _ = writeln!(
            out,
            "  {} used {}/{} ({:.0}%)",
            u.controller,
            u.used,
            u.available,
            u.utilization() * 100.0
        );
    }
}

fn cmd_plan(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = parse_network(&mut args, None)?;
    let net = build_network(&spec)?;
    let failed = parse_failures(&net, &mut args)?;
    let algo_name = parse_algo(&mut args)?;
    let opt_secs = parse_opt_secs(&mut args)?;
    let out_file = args.take_path("--out")?;
    let lp_file = args.take_path("--export-lp")?;
    args.finish()?;

    let algo = make_algo(&algo_name, opt_secs)?;
    let cache = NetCache::build(&net);
    let prog: &Programmability = cache.programmability();
    let scenario = net
        .fail_cached(&failed, &cache)
        .map_err(|e| CliError::runtime(format!("invalid failure: {e}")))?;
    let inst = FmssmInstance::new(&scenario, prog);
    if let Some(path) = lp_file {
        let lp = Optimal::new().export_lp(&inst);
        std::fs::write(&path, lp)
            .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", path.display())))?;
        let _ = writeln!(
            out,
            "FMSSM program P' written to {} (CPLEX LP format)",
            path.display()
        );
    }
    let plan = algo
        .recover(&inst)
        .map_err(|e| CliError::runtime(format!("{} failed: {e}", algo.name())))?;
    let (metrics, _) = inst
        .evaluate(&plan, algo.is_flow_level(), algo.middle_layer_ms())
        .map_err(|e| CliError::runtime(format!("produced plan invalid: {e}")))?;
    let _ = writeln!(out, "algorithm: {}", algo.name());
    print_metrics(out, &metrics);
    match out_file {
        Some(path) => {
            std::fs::write(&path, plan.to_text())
                .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", path.display())))?;
            let _ = writeln!(out, "plan written to {}", path.display());
        }
        None => {
            let _ = writeln!(out, "--- plan ---\n{}", plan.to_text());
        }
    }
    Ok(())
}

fn cmd_check(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = parse_network(&mut args, None)?;
    let net = build_network(&spec)?;
    let failed = parse_failures(&net, &mut args)?;
    let Some(plan_file) = args.take_path("--plan")? else {
        return Err(CliError::usage("--plan FILE is required"));
    };
    args.finish()?;

    let text = std::fs::read_to_string(&plan_file)
        .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", plan_file.display())))?;
    let plan = RecoveryPlan::from_text(&text)
        .map_err(|e| CliError::runtime(format!("cannot parse {}: {e}", plan_file.display())))?;
    let cache = NetCache::build(&net);
    let prog: &Programmability = cache.programmability();
    let scenario = net
        .fail_cached(&failed, &cache)
        .map_err(|e| CliError::runtime(format!("invalid failure: {e}")))?;
    let inst = FmssmInstance::new(&scenario, prog);
    // Accept flow-level plans: a switch-level plan also passes that check.
    match inst.evaluate(&plan, true, 0.0) {
        Ok((metrics, _)) => {
            let _ = writeln!(out, "plan is FEASIBLE for failure of {failed:?}");
            print_metrics(out, &metrics);
            Ok(())
        }
        Err(e) => Err(CliError::runtime(format!("plan is INFEASIBLE: {e}"))),
    }
}

fn cmd_compare(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = parse_network(&mut args, None)?;
    let net = build_network(&spec)?;
    let failed = parse_failures(&net, &mut args)?;
    let opt_secs = parse_opt_secs(&mut args)?;
    args.finish()?;

    let cache = NetCache::build(&net);
    let prog: &Programmability = cache.programmability();
    let scenario = net
        .fail_cached(&failed, &cache)
        .map_err(|e| CliError::runtime(format!("invalid failure: {e}")))?;
    let inst = FmssmInstance::new(&scenario, prog);
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>7} {:>9} {:>12}",
        "algorithm", "flows", "switches", "min", "total", "overhead(ms)"
    );
    for name in ["retroflow", "pm", "pg", "optimal"] {
        compare_row(out, &*make_algo(name, opt_secs)?, &inst)?;
    }
    Ok(())
}

/// One `pmctl compare` row: runs `algo`, validates its plan the way
/// `pmctl plan` does, and prints the plan's metrics.
fn compare_row(
    out: &mut dyn Write,
    algo: &dyn RecoveryAlgorithm,
    inst: &FmssmInstance<'_, '_>,
) -> Result<(), CliError> {
    let name = algo.name();
    let plan = algo
        .recover(inst)
        .map_err(|e| CliError::runtime(format!("{name} failed: {e}")))?;
    let (m, _) = inst
        .evaluate(&plan, algo.is_flow_level(), algo.middle_layer_ms())
        .map_err(|e| CliError::runtime(format!("{name} produced an invalid plan: {e}")))?;
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>7} {:>9} {:>12.3}",
        name,
        format!("{}/{}", m.recovered_flows, m.recoverable_flows),
        format!("{}/{}", m.recovered_switches, m.offline_switches),
        m.min_programmability_recoverable(),
        m.total_programmability,
        m.per_flow_overhead_ms()
    );
    Ok(())
}

fn cmd_simulate(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    if let Some(count) = take_timeline_count(&mut args)? {
        return cmd_simulate_timelines(count, args, out);
    }
    let spec = parse_network(&mut args, None)?;
    let net = build_network(&spec)?;
    let failed = parse_failures(&net, &mut args)?;
    let algo_name = parse_algo(&mut args)?;
    let opt_secs = parse_opt_secs(&mut args)?;
    let cascade = args.take_switch("--cascade")?;
    args.finish()?;

    let algo = make_algo(&algo_name, opt_secs)?;
    let cache = NetCache::build(&net);
    let prog: &Programmability = cache.programmability();
    let scenario = net
        .fail_cached(&failed, &cache)
        .map_err(|e| CliError::runtime(format!("invalid failure: {e}")))?;
    let inst = FmssmInstance::new(&scenario, prog);
    let plan = algo
        .recover(&inst)
        .map_err(|e| CliError::runtime(format!("{} failed: {e}", algo.name())))?;

    let mut sim = Simulation::new(&net);
    if cascade {
        sim.enable_cascade(pm_simctl::CascadeConfig {
            delay: SimTime::from_ms(50.0),
        });
    }
    sim.schedule_failure(SimTime::from_ms(100.0), &failed);
    sim.schedule_recovery(
        SimTime::from_ms(110.0),
        &scenario,
        &plan,
        RecoveryTiming {
            middle_layer_ms: algo.middle_layer_ms(),
            ..Default::default()
        },
    );
    let report = sim
        .run(SimTime::from_ms(600_000.0))
        .map_err(|e| CliError::runtime(format!("simulation failed: {e}")))?;
    let _ = writeln!(out, "algorithm: {}", algo.name());
    let _ = writeln!(
        out,
        "messages: {} role handshakes + {} FlowMods = {} total",
        report.role_requests_sent,
        report.flow_mods_sent,
        report.total_messages()
    );
    if let (Some(sw), Some(fl), Some(worst)) = (
        report.mean_switch_recovery_ms(),
        report.mean_flow_recovery_ms(),
        report.max_flow_recovery_ms(),
    ) {
        let _ = writeln!(out, "mean switch re-control: {sw:.2} ms after failure");
        let _ = writeln!(
            out,
            "mean flow re-programmability: {fl:.2} ms after failure"
        );
        let _ = writeln!(out, "slowest flow: {worst:.2} ms after failure");
    }
    let _ = writeln!(
        out,
        "data plane continuous: {}",
        report.all_flows_deliverable
    );
    if !report.cascaded_controllers.is_empty() {
        let _ = writeln!(
            out,
            "CASCADED CONTROLLERS: {:?}",
            report.cascaded_controllers
        );
    }
    Ok(())
}

/// `pmctl simulate --timelines N`: replays N seeded failure timelines
/// (failures, recoveries, cascades, partitions, flow churn) through the
/// sweep engine. Stdout holds one row per timeline, the totals and the
/// timeline-space line; the rows are identical for every `--jobs`, and
/// `--shard i/m` rows concatenated in shard order equal the unsharded
/// run's.
fn cmd_simulate_timelines(count: u64, mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut opts = sweep_options(&mut args)?;
    let spec = parse_network(&mut args, Some(opts.seed))?;
    let params = take_timeline_params(&mut args)?;
    opts.csv_dir = args.take_path("--csv")?;
    args.finish()?;
    let net = build_network(&spec)?;
    if net.controllers().len() < 2 {
        return Err(CliError::usage(
            "timeline simulation needs at least 2 controllers",
        ));
    }

    let engine = SweepEngine::new(&net, opts.clone());
    let space = engine.timeline_space(count, params);
    let sel = engine.timeline_selection(&space);
    let range = sel.shard_range(opts.shard);
    eprintln!(
        "simulate: replaying {} of {} timeline(s){}{} on a {}-switch {} network, \
         {} thread(s), batch {}...",
        range.end - range.start,
        space.count(),
        if sel.is_sampled() { " [sampled]" } else { "" },
        shard_note(opts.shard, sel.len()),
        net.switch_count(),
        spec.model(),
        opts.jobs,
        opts.batch
    );
    let t0 = Instant::now();
    let reports = engine.sweep_timelines(&space, &sel);
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (live_peak, live_bound) = engine.live_peak();

    for r in &reports {
        let _ = writeln!(
            out,
            "timeline {:>4}: events={:<3} solves={:<3} peak_failed={} \
             fully_recovered={} baseline_restored={} pm_worst_ppm={}",
            r.id,
            r.events,
            r.solves,
            r.peak_failed,
            r.fully_recovered,
            r.baseline_restored,
            r.pm_worst_recovered_ppm
        );
    }
    let events: usize = reports.iter().map(|r| r.events).sum();
    let solves: usize = reports.iter().map(|r| r.solves).sum();
    let recovered = reports.iter().filter(|r| r.fully_recovered).count();
    let _ = writeln!(
        out,
        "total: {} event(s), {} solve(s); {}/{} timeline(s) fully recovered",
        events,
        solves,
        recovered,
        reports.len()
    );
    let info = TimelineRunInfo {
        model: spec.model(),
        nodes: net.switch_count(),
        edges: net.topology().edge_count(),
        seed: opts.seed,
        controllers: net.controllers().len(),
        flows: net.flows().len(),
        space: SpaceInfo {
            size: space.count(),
            selected: sel.len(),
            sampled: sel.is_sampled(),
            shard: opts.shard,
            run: reports.len(),
            live_peak,
            live_bound,
        },
    };
    write_space_line(out, "timeline", &info.space);
    eprintln!("simulate: replayed in {sweep_ms:.1} ms (wall clock)");

    if let Some(dir) = &opts.csv_dir {
        let rows = timeline_rows(&reports);
        write_csv(dir, "timeline_cases", &TIMELINE_CASE_HEADERS, &rows);
        write_jsonl(
            dir,
            "timeline_cases.jsonl",
            &TIMELINE_CASE_HEADERS,
            &rows,
            0,
        );
    }
    write_bench_timeline_json(&opts, &info, sweep_ms, &reports);
    Ok(())
}

fn cmd_inspect(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = parse_network(&mut args, None)?;
    let net = build_network(&spec)?;
    let failed = parse_failures(&net, &mut args)?;
    args.finish()?;

    let cache = NetCache::build(&net);
    let prog: &Programmability = cache.programmability();
    let scenario = net
        .fail_cached(&failed, &cache)
        .map_err(|e| CliError::runtime(format!("invalid failure: {e}")))?;
    let inst = FmssmInstance::new(&scenario, prog);
    let _ = writeln!(
        out,
        "FMSSM instance for failure of {:?}:",
        failed
            .iter()
            .map(|c| net.controllers()[c.index()].node.index())
            .collect::<Vec<_>>()
    );
    let _ = writeln!(
        out,
        "  offline switches N = {}   active controllers M = {}   offline flows L = {}",
        inst.switches().len(),
        inst.controllers().len(),
        inst.flows().len()
    );
    let recoverable = inst.recoverable_flow_count();
    let entries: usize = (0..inst.flows().len())
        .map(|lp| inst.flow_entries(lp).len())
        .sum();
    let capacity: u64 = inst.residuals().iter().map(|&r| u64::from(r)).sum();
    let _ = writeln!(
        out,
        "  recoverable flows: {recoverable} ({} structurally hopeless)",
        inst.flows().len() - recoverable
    );
    let _ = writeln!(
        out,
        "  (switch, flow) β=1 entries: {entries}   total residual capacity: {capacity}"
    );
    let _ = writeln!(
        out,
        "  capacity / recoverable ratio: {:.2}   TOTAL_ITERATIONS: {}   λ: {:.3e}",
        capacity as f64 / recoverable.max(1) as f64,
        inst.total_iterations(),
        inst.lambda()
    );
    let _ = writeln!(
        out,
        "  ideal-recovery delay bound G: {:.1} flow·ms",
        inst.ideal_delay_g()
    );
    for (jp, &c) in inst.controllers().iter().enumerate() {
        let node = net.controllers()[c.index()].node;
        let _ = writeln!(
            out,
            "  {} at n{} ({}): residual {}",
            c,
            node.index(),
            net.topology().node(node).name,
            inst.residuals()[jp]
        );
    }
    // The headline diagnostic: can any single controller absorb the
    // costliest offline switch whole?
    if let Some((ip, &s)) = inst
        .switches()
        .iter()
        .enumerate()
        .max_by_key(|&(ip, _)| inst.gamma(ip))
    {
        let g = inst.gamma(ip);
        let absorbable = inst.residuals().iter().any(|&r| r >= g);
        let _ = writeln!(
            out,
            "  costliest offline switch: {s} (γ = {g}) — whole-switch remap {}",
            if absorbable {
                "POSSIBLE"
            } else {
                "IMPOSSIBLE (per-flow recovery required)"
            }
        );
    }
    Ok(())
}

fn cmd_relieve(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = parse_network(&mut args, None)?;
    let net = build_network(&spec)?;
    let failed = parse_failures(&net, &mut args)?;
    let algo_name = parse_algo(&mut args)?;
    let opt_secs = parse_opt_secs(&mut args)?;
    let max_moves = args
        .take_parsed("--moves", "a move count", |_: &usize| true)?
        .unwrap_or(16);
    args.finish()?;

    let algo = make_algo(&algo_name, opt_secs)?;
    let cache = NetCache::build(&net);
    let prog: &Programmability = cache.programmability();
    let scenario = net
        .fail_cached(&failed, &cache)
        .map_err(|e| CliError::runtime(format!("invalid failure: {e}")))?;
    let inst = FmssmInstance::new(&scenario, prog);
    let plan = algo
        .recover(&inst)
        .map_err(|e| CliError::runtime(format!("{} failed: {e}", algo.name())))?;

    // Gravity traffic sized so the hottest link starts near 80 % of an
    // arbitrary capacity unit.
    let tm = pm_sdwan::TrafficMatrix::gravity(&net, 10_000.0);
    let base = pm_sdwan::LinkLoads::compute(&net, &tm, &Default::default());
    let capacity = base.max_link().map(|(_, l)| l / 0.8).unwrap_or(1.0);
    let report = pm_core::relieve_hotspots(&scenario, prog, &plan, &tm, capacity, max_moves)
        .map_err(|e| CliError::runtime(format!("relief failed: {e}")))?;
    let _ = writeln!(out, "algorithm: {}", algo.name());
    let _ = writeln!(
        out,
        "max utilization: {:.1}% -> {:.1}% ({:.1}% relief) with {} reroutes",
        report.initial_utilization * 100.0,
        report.final_utilization * 100.0,
        report.relief() * 100.0,
        report.moves.len()
    );
    for m in &report.moves {
        let _ = writeln!(
            out,
            "  move {} at {} -> next hop {}",
            m.flow, m.at, m.new_next_hop
        );
    }
    Ok(())
}

/// `pmctl sweep`: runs RetroFlow, PM and PG on every `--failures`-
/// controller failure case of the network (or a seeded sample of them,
/// or one shard). Stdout holds one row per case and the scenario-space
/// line; the rows are identical for every `--jobs`, and `--shard i/m`
/// rows concatenated in shard order equal the unsharded run's. The
/// wall-clock table goes to stderr.
fn cmd_sweep(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut opts = sweep_options(&mut args)?;
    let spec = parse_network(&mut args, Some(opts.seed))?;
    let failures = args
        .take_parsed("--failures", "a failure count", |_: &usize| true)?
        .unwrap_or(1);
    opts.csv_dir = args.take_path("--csv")?;
    args.finish()?;
    let net = build_network(&spec)?;
    let m = net.controllers().len();
    if failures == 0 || failures >= m {
        return Err(CliError::usage(format!(
            "--failures must leave at least one of the {m} controllers standing, got {failures}"
        )));
    }

    let engine = SweepEngine::new(&net, opts.clone());
    let sel = engine.selection(failures);
    let range = sel.shard_range(opts.shard);
    eprintln!(
        "sweep: {} of {} {failures}-failure scenario(s){}{} on a {}-switch {} network, \
         {} thread(s), batch {}...",
        range.end - range.start,
        sel.space().count(),
        if sel.is_sampled() { " [sampled]" } else { "" },
        shard_note(opts.shard, sel.len()),
        net.switch_count(),
        spec.model(),
        opts.jobs,
        opts.batch
    );
    let cases = engine.sweep_selection(&sel);
    let (live_peak, live_bound) = engine.live_peak();

    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>9} {:>12} {:>12}",
        "case", "flows", "switches", "pm_total", "retro_total"
    );
    for case in &cases {
        let pm = case.run("PM").expect("heuristics always run");
        let retro = case.run("RetroFlow").expect("heuristics always run");
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>9} {:>12} {:>12}",
            case.label,
            format!(
                "{}/{}",
                pm.metrics.recovered_flows, pm.metrics.recoverable_flows
            ),
            format!(
                "{}/{}",
                pm.metrics.recovered_switches, pm.metrics.offline_switches
            ),
            pm.metrics.total_programmability,
            retro.metrics.total_programmability
        );
    }
    let info = ScaleRunInfo {
        model: spec.model(),
        nodes: net.switch_count(),
        edges: net.topology().edge_count(),
        seed: opts.seed,
        controllers: m,
        flows: net.flows().len(),
        failures,
        space: SpaceInfo {
            size: sel.space().count(),
            selected: sel.len(),
            sampled: sel.is_sampled(),
            shard: opts.shard,
            run: cases.len(),
            live_peak,
            live_bound,
        },
    };
    write_space_line(out, "scenario", &info.space);
    eprint!("{}", timing_report(&cases));

    if let Some(dir) = &opts.csv_dir {
        let rows = scale_case_rows(&cases);
        write_csv(dir, "scale_cases", &SCALE_CASE_HEADERS, &rows);
        // Only the case label is a string; every other column is numeric.
        write_jsonl(dir, "scale_cases.jsonl", &SCALE_CASE_HEADERS, &rows, 1);
    }
    write_bench_scale_json(&opts, &info, &cases);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsStr;

    fn run_ok_os(args: &[OsString]) -> String {
        let mut out = Vec::new();
        run(args, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    fn run_ok(args: &[&str]) -> String {
        run_ok_os(&args.iter().map(OsString::from).collect::<Vec<_>>())
    }

    fn run_err_os(args: &[OsString]) -> CliError {
        let mut out = Vec::new();
        run(args, &mut out).expect_err("command fails")
    }

    fn run_err(args: &[&str]) -> CliError {
        run_err_os(&args.iter().map(OsString::from).collect::<Vec<_>>())
    }

    /// Builds an argv mixing plain flags and lossless path arguments.
    fn argv(parts: &[&str], paths: &[(&str, &std::path::Path)]) -> Vec<OsString> {
        let mut v: Vec<OsString> = parts.iter().map(OsString::from).collect();
        for (flag, path) in paths {
            v.push(OsString::from(flag));
            v.push(path.as_os_str().to_os_string());
        }
        v
    }

    #[test]
    fn help_prints_usage() {
        let text = run_ok(&["help"]);
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn no_command_is_usage_error() {
        let e = run_err(&[]);
        assert_eq!(e.code, 2);
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let e = run_err(&["frobnicate"]);
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown command"));
    }

    #[test]
    fn topology_describes_paper_network() {
        let text = run_ok(&["topology"]);
        assert!(text.contains("nodes: 25"));
        assert!(text.contains("directed links: 112"));
        assert!(text.contains("busiest switch: s13"));
    }

    #[test]
    fn plan_pm_on_headline_case() {
        let text = run_ok(&["plan", "--fail", "13,20"]);
        assert!(text.contains("algorithm: PM"));
        assert!(text.contains("recovered flows:"));
        assert!(text.contains("map s13"));
    }

    #[test]
    fn plan_save_and_check_roundtrip() {
        let dir = std::env::temp_dir().join("pmctl_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("plan.txt");
        let text = run_ok_os(&argv(&["plan", "--fail", "13"], &[("--out", &path)]));
        assert!(text.contains("plan written"));
        let check = run_ok_os(&argv(&["check", "--fail", "13"], &[("--plan", &path)]));
        assert!(check.contains("FEASIBLE"));
        // Checking against the wrong failure set must fail.
        let err = run_err_os(&argv(&["check", "--fail", "20"], &[("--plan", &path)]));
        assert!(err.message.contains("INFEASIBLE"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_plan_ids_are_infeasible_not_a_panic() {
        // Under --fail 13 (C3 down) s13 is offline, f10 an offline flow
        // through it and C4 active. Each id below is out of range: 2³²,
        // 2³² past an id of the case, or the first id past its range.
        let dir = std::env::temp_dir().join("pmctl_hostile_plan_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("plan.txt");
        let mut plans = Vec::new();
        for s in ["s4294967296", "s4294967309", "s25"] {
            plans.push(format!("map {s} C4\n"));
            plans.push(format!("map {s} C4\nfull {s}\n"));
            plans.push(format!("sdn {s} f10 C4\n"));
        }
        for l in ["f4294967296", "f4294967306", "f600"] {
            plans.push(format!("map s13 C4\nsdn s13 {l} C4\n"));
            plans.push(format!("map s13 C4\nfull s13\nsdn s13 {l} C4\n"));
            plans.push(format!("sdn s13 {l} C4\n"));
        }
        for c in ["C4294967296", "C4294967300", "C6"] {
            plans.push(format!("map s13 {c}\n"));
            plans.push(format!("map s13 {c}\nfull s13\n"));
            plans.push(format!("sdn s13 f10 {c}\n"));
        }
        for plan in plans {
            std::fs::write(&path, &plan).expect("plan file written");
            let err = run_err_os(&argv(&["check", "--fail", "13"], &[("--plan", &path)]));
            assert_eq!(err.code, 1, "{plan}");
            assert!(
                err.message.starts_with("plan is INFEASIBLE"),
                "{plan}: {}",
                err.message
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_paths_pass_through_losslessly() {
        // A path with invalid UTF-8 must flow --out → --plan unmangled;
        // before the OsString refactor this panicked on to_str().unwrap().
        use std::os::unix::ffi::OsStrExt;
        let dir = std::env::temp_dir().join(OsStr::from_bytes(b"pmctl_\xFF_test"));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(OsStr::from_bytes(b"plan_\xFF.txt"));
        let text = run_ok_os(&argv(&["plan", "--fail", "13"], &[("--out", &path)]));
        assert!(text.contains("plan written"));
        let check = run_ok_os(&argv(&["check", "--fail", "13"], &[("--plan", &path)]));
        assert!(check.contains("FEASIBLE"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_text_flag_is_usage_error() {
        use std::os::unix::ffi::OsStrExt;
        let mut args = argv(&["plan", "--fail", "13", "--algo"], &[]);
        args.push(OsStr::from_bytes(b"p\xFFm").to_os_string());
        let e = run_err_os(&args);
        assert_eq!(e.code, 2);
        assert!(e.message.contains("not valid UTF-8"), "{}", e.message);
    }

    #[test]
    fn trace_and_metrics_flags_write_valid_json() {
        let dir = std::env::temp_dir().join("pmctl_obs_test");
        let _ = std::fs::remove_dir_all(&dir);
        let text = run_ok_os(&argv(
            &["plan", "--fail", "13,20"],
            &[("--telemetry", &dir)],
        ));
        assert!(text.contains("trace written to"));
        assert!(text.contains("metrics written to"));
        let t = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        pm_obs::json::validate(&t).expect("trace is valid JSON");
        assert!(t.contains("\"traceEvents\""));
        assert!(t.contains("pm.recover"), "PM spans present in the trace");
        let m = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        pm_obs::json::validate(&m).expect("metrics is valid JSON");
        assert!(m.contains("\"schema_version\""));
        assert!(m.contains("pm.sdn_mode_picks"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_dir_holds_exactly_the_four_artifacts() {
        // The directory does not exist yet: --telemetry creates it, as
        // --csv does.
        let dir = std::env::temp_dir().join("pmctl_telemetry_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("nested");
        run_ok_os(&argv(&["topology"], &[("--telemetry", &out)]));
        let mut names: Vec<String> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "metrics.json",
                "metrics.prom",
                "profile.folded",
                "trace.json"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_per_file_export_flags_are_gone() {
        for flag in ["--trace", "--metrics", "--prom", "--profile"] {
            let e = run_err(&["topology", flag, "x"]);
            assert_eq!(e.code, 2, "{flag}: {}", e.message);
            assert!(
                e.message.contains("unrecognized arguments") && e.message.contains(flag),
                "{flag}: {}",
                e.message
            );
        }
    }

    #[test]
    fn serve_runs_the_live_plane() {
        let dir = std::env::temp_dir().join("pmctl_serve_test");
        let _ = std::fs::remove_dir_all(&dir);
        // An ephemeral-port server around a real command; --serve turns
        // the recorder on, and the export is written once it is torn down.
        let text = run_ok_os(&argv(
            &["plan", "--fail", "13,20", "--serve", "127.0.0.1:0"],
            &[("--telemetry", &dir)],
        ));
        assert!(text.contains("recovered flows"), "{text}");
        let m = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        let doc = pm_obs::baseline::parse_metrics(&m).expect("metrics parse");
        assert!(doc.counters.contains_key("pm.sdn_mode_picks"), "{m}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_flag_writes_a_folded_profile() {
        let dir = std::env::temp_dir().join("pmctl_profile_test");
        let _ = std::fs::remove_dir_all(&dir);
        let text = run_ok_os(&argv(
            &["plan", "--fail", "13,20"],
            &[("--telemetry", &dir)],
        ));
        assert!(text.contains("profile written to"), "{text}");
        // The profile holds the run's recorded spans: it is not empty and
        // every line obeys the folded grammar `frame(;frame)* SELF_NS`.
        let body = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert!(!body.is_empty(), "the plan run recorded spans");
        for line in body.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack and count");
            assert!(
                !stack.is_empty() && stack.split(';').all(|f| !f.is_empty()),
                "{line}"
            );
            count.parse::<u64>().expect("trailing integer count");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_plane_flags_reject_bad_values() {
        let e = run_err(&["topology", "--serve"]);
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--serve"), "{}", e.message);
        let e = run_err(&["topology", "--serve", "256.0.0.1:bogus"]);
        assert_eq!(e.code, 1, "bind failure is a runtime error");
        assert!(
            e.message.contains("cannot serve telemetry"),
            "{}",
            e.message
        );
    }

    #[test]
    fn export_failure_names_the_path_after_writing_the_rest() {
        let dir = std::env::temp_dir().join("pmctl_export_failure_test");
        let _ = std::fs::remove_dir_all(&dir);
        // A directory where trace.json should go makes that one write
        // fail; the artifacts after it are still written.
        std::fs::create_dir_all(dir.join("trace.json")).unwrap();
        let e = run_err_os(&argv(&["topology"], &[("--telemetry", &dir)]));
        assert_eq!(e.code, 1, "{}", e.message);
        assert!(e.message.contains("trace.json"), "{}", e.message);
        assert!(
            dir.join("metrics.json").exists(),
            "later artifacts are still written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_flags_read_as_the_bench_binaries_do() {
        // Every front end parses a shared group with the same function, so
        // pmctl prints that function's very message.
        let message = |group: fn(&mut Args) -> Result<(), CliError>, flags: &[&str]| {
            let mut args = Args::new(flags.iter().map(OsString::from).collect());
            group(&mut args).expect_err("bad flags").message
        };
        assert_eq!(
            run_err(&["sweep", "--batch", "0"]).message,
            message(
                |a| EvalOptions::take_dispatch(a).map(drop),
                &["--batch", "0"]
            )
        );
        assert_eq!(
            run_err(&["simulate", "--timelines", "2", "--horizon-ms", "nan"]).message,
            message(
                |a| take_timeline_params(a).map(drop),
                &["--horizon-ms", "nan"]
            )
        );
        let e = run_err(&["sweep", "--jobs", "2", "--jobs", "2"]);
        assert!(
            e.message.contains("--jobs") && e.message.contains("more than once"),
            "{}",
            e.message
        );
    }

    #[test]
    fn obs_top_rejects_bad_sources() {
        let e = run_err(&["obs", "top"]);
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--url"), "{}", e.message);
        let e = run_err(&["obs", "top", "--url", "127.0.0.1:1", "--frames", "1"]);
        assert_eq!(e.code, 1, "unreachable endpoint is a runtime error");
        let e = run_err(&["obs", "top", "--url", "x", "--ansi", "--plain"]);
        assert_eq!(e.code, 2);
        // Below the documented floor is rejected by name, not clamped.
        let e = run_err(&["obs", "top", "--url", "x", "--interval-ms", "50"]);
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--interval-ms"), "{}", e.message);
    }

    #[test]
    fn compare_lists_all_algorithms() {
        let text = run_ok(&["compare", "--fail", "13,20", "--opt-secs", "1"]);
        for name in ["RetroFlow", "PM", "PG", "Optimal"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    /// PM, then one offline switch remapped onto a failed controller.
    struct MapsToFailed(ControllerId);

    impl RecoveryAlgorithm for MapsToFailed {
        fn name(&self) -> &'static str {
            "stub"
        }

        fn recover(&self, inst: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, pm_core::PmError> {
            let pm = Pm::new().recover(inst)?;
            let mut plan = pm_sdwan::PlanBuilder::default();
            for (s, c) in pm.mappings() {
                plan.map_switch(s, c);
            }
            for (s, l, c) in pm.sdn_selections() {
                plan.set_sdn_via(s, l, c);
            }
            plan.map_switch(inst.switches()[0], self.0);
            Ok(plan.build())
        }
    }

    #[test]
    fn compare_rejects_an_invalid_plan() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let cache = NetCache::build(&net);
        let prog = cache.programmability();
        let failed = [ControllerId(3), ControllerId(4)];
        let scenario = net.fail_cached(&failed, &cache).unwrap();
        let inst = FmssmInstance::new(&scenario, prog);
        let mut out = Vec::new();
        compare_row(&mut out, &Pm::new(), &inst).expect("PM's plan is valid");
        let e = compare_row(&mut out, &MapsToFailed(failed[0]), &inst)
            .expect_err("a plan using a failed controller is rejected");
        assert_eq!(e.code, 1, "an invalid plan is a runtime error");
        assert!(
            e.message.contains("stub produced an invalid plan"),
            "{}",
            e.message
        );
    }

    #[test]
    fn simulate_reports_messages() {
        let text = run_ok(&["simulate", "--fail", "13"]);
        assert!(text.contains("role handshakes"));
        assert!(text.contains("data plane continuous: true"));
    }

    /// Stdout without the live-peak line, whose peak depends on the
    /// schedule.
    fn without_live_peak(text: &str) -> Vec<&str> {
        text.lines().filter(|l| !l.contains("live peak")).collect()
    }

    #[test]
    fn simulate_timelines_is_deterministic_across_jobs() {
        let base = [
            "simulate",
            "--timelines",
            "6",
            "--horizon-ms",
            "4000",
            "--seed",
            "7",
        ];
        let serial = run_ok(&[&base[..], &["--jobs", "1"]].concat());
        let parallel = run_ok(&[&base[..], &["--jobs", "8"]].concat());
        assert!(
            serial.contains("timeline space 6 -> selected 6; live peak"),
            "{serial}"
        );
        assert!(serial.contains("timeline(s) fully recovered"), "{serial}");
        assert_eq!(without_live_peak(&serial), without_live_peak(&parallel));
    }

    #[test]
    fn simulate_timelines_shard_union_matches_unsharded() {
        let base = [
            "simulate",
            "--timelines",
            "5",
            "--horizon-ms",
            "3000",
            "--seed",
            "11",
        ];
        let full = run_ok(&[&base[..], &["--jobs", "2"]].concat());
        let timeline_lines = |s: &str| {
            without_live_peak(s)
                .into_iter()
                .filter(|l| l.starts_with("timeline "))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let mut merged = Vec::new();
        for i in 1..=3 {
            let shard = run_ok(&[&base[..], &["--shard", &format!("{i}/3")]].concat());
            merged.extend(timeline_lines(&shard));
        }
        assert_eq!(merged, timeline_lines(&full));
    }

    #[test]
    fn simulate_timelines_rejects_bad_counts_and_flags() {
        let err = run_err(&["simulate", "--timelines", "0"]);
        assert_eq!(err.code, 2, "{}", err.message);
        let err = run_err(&["simulate", "--timelines", "2", "--horizon-ms", "nope"]);
        assert_eq!(err.code, 2, "{}", err.message);
        let err = run_err(&["simulate", "--timelines", "2", "--max-failed", "0"]);
        assert_eq!(err.code, 2, "{}", err.message);
    }

    #[test]
    fn inspect_shows_instance_shape() {
        let text = run_ok(&["inspect", "--fail", "13,20"]);
        assert!(text.contains("offline switches N = 7"), "{text}");
        assert!(
            text.contains("IMPOSSIBLE"),
            "headline case must flag the hub: {text}"
        );
        let easy = run_ok(&["inspect", "--fail", "20"]);
        assert!(easy.contains("POSSIBLE"), "{easy}");
    }

    #[test]
    fn relieve_reports_utilization() {
        let text = run_ok(&["relieve", "--fail", "13,20", "--moves", "4"]);
        assert!(text.contains("max utilization"), "{text}");
        assert!(text.contains("relief"));
    }

    #[test]
    fn fail_by_unknown_node_is_usage_error() {
        let e = run_err(&["plan", "--fail", "99"]);
        assert_eq!(e.code, 2);
        assert!(e.message.contains("no controller at node 99"));
    }

    #[test]
    fn unconsumed_args_rejected() {
        let e = run_err(&["topology", "--bogus"]);
        assert_eq!(e.code, 2);
    }

    #[test]
    fn plan_exports_lp() {
        let dir = std::env::temp_dir().join("pmctl_lp_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("p_prime.lp");
        let text = run_ok_os(&argv(&["plan", "--fail", "20"], &[("--export-lp", &path)]));
        assert!(text.contains("CPLEX LP format"));
        let lp = std::fs::read_to_string(&path).unwrap();
        assert!(lp.contains("Maximize") && lp.contains("General"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn graphml_network_flows_through_cli() {
        // Export the embedded backbone, load it back through --graphml with
        // k-center placement, and plan a recovery on it.
        let dir = std::env::temp_dir().join("pmctl_graphml_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("net.graphml");
        std::fs::write(
            &path,
            pm_topo::zoo::to_graphml(&pm_topo::att::att_backbone()),
        )
        .unwrap();
        let topo = run_ok_os(&argv(
            &["topology", "--controllers", "4"],
            &[("--graphml", &path)],
        ));
        assert!(topo.contains("nodes: 25"), "{topo}");
        // Controllers sit wherever k-center puts them; read one site back
        // out of the listing to drive a failure.
        let site = topo
            .lines()
            .find_map(|l| {
                let l = l.trim();
                l.strip_prefix("C0 at n")
                    .and_then(|rest| rest.split_whitespace().next().map(|s| s.to_string()))
            })
            .expect("controller listing");
        let plan = run_ok_os(&argv(
            &["plan", "--controllers", "4", "--fail", &site],
            &[("--graphml", &path)],
        ));
        assert!(plan.contains("recovered flows"), "{plan}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_algo_rejected() {
        let e = run_err(&["plan", "--fail", "13", "--algo", "magic"]);
        assert!(e.message.contains("unknown algorithm"));
    }

    #[test]
    fn sweep_runs_every_single_failure_case() {
        let text = run_ok(&["sweep", "--jobs", "2"]);
        assert!(
            text.contains("scenario space 6 -> selected 6; live peak"),
            "{text}"
        );
        // One row per controller, labeled by node id.
        for site in ["(2)", "(5)", "(6)", "(13)", "(20)", "(22)"] {
            assert!(text.contains(site), "missing case {site}: {text}");
        }
    }

    #[test]
    fn each_sweep_reports_its_own_live_peak() {
        // A narrower sweep after a wider one in the same process reports
        // the peak of its own run, within its own jobs × batch.
        let shape = [
            "sweep",
            "--nodes",
            "120",
            "--controllers",
            "8",
            "--flows",
            "64",
            "--failures",
            "2",
        ];
        let wide = run_ok(&[&shape[..], &["--jobs", "2", "--batch", "8"]].concat());
        assert!(wide.contains(" <= bound 16"), "{wide}");
        let narrow = run_ok(&[&shape[..], &["--jobs", "1", "--batch", "1"]].concat());
        assert!(narrow.contains("; live peak 1 <= bound 1"), "{narrow}");
    }

    #[test]
    fn sweep_caps_scenarios_with_a_seeded_sample() {
        let text = run_ok(&["sweep", "--failures", "2", "--max-scenarios", "5"]);
        assert!(
            text.contains("scenario space 15 -> selected 5 (seeded sample)"),
            "{text}"
        );
        // The same seed reproduces the same sample; a different one may not.
        let again = run_ok(&["sweep", "--failures", "2", "--max-scenarios", "5"]);
        assert_eq!(without_live_peak(&text), without_live_peak(&again));
    }

    #[test]
    fn sweep_shard_union_matches_unsharded_csv() {
        let dir = std::env::temp_dir().join("pmctl_sweep_shard_test");
        let _ = std::fs::remove_dir_all(&dir);
        let full_dir = dir.join("full");
        run_ok_os(&argv(
            &["sweep", "--failures", "2"],
            &[("--csv", &full_dir)],
        ));
        let full = std::fs::read_to_string(full_dir.join("scale_cases.csv")).unwrap();
        let mut merged = String::new();
        for i in 1..=3 {
            let shard_dir = dir.join(format!("shard{i}"));
            run_ok_os(&argv(
                &[
                    "sweep",
                    "--failures",
                    "2",
                    "--shard",
                    &format!("{i}/3"),
                    "--jobs",
                    "2",
                ],
                &[("--csv", &shard_dir)],
            ));
            let text = std::fs::read_to_string(shard_dir.join("scale_cases.csv")).unwrap();
            let (header, body) = text.split_once('\n').unwrap();
            if merged.is_empty() {
                merged.push_str(header);
                merged.push('\n');
            }
            merged.push_str(body);
        }
        assert_eq!(full, merged, "shard outputs must merge byte-identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        assert_eq!(run_err(&["sweep", "--failures", "0"]).code, 2);
        assert_eq!(run_err(&["sweep", "--failures", "6"]).code, 2);
        assert_eq!(run_err(&["sweep", "--shard", "3/2"]).code, 2);
        assert_eq!(run_err(&["sweep", "--max-scenarios", "0"]).code, 2);
        // Zero workers / zero-sized batches are usage errors with readable
        // UTF-8 messages naming the flag — never a panic or a division by
        // zero deep in the dispatch loop.
        for flag in ["--batch", "--jobs", "--max-scenarios"] {
            let e = run_err(&["sweep", flag, "many"]);
            assert_eq!(e.code, 2, "{flag}: {}", e.message);
            assert!(e.message.contains(flag), "{flag}: {}", e.message);
        }
        for flag in ["--batch", "--jobs"] {
            let e = run_err(&["sweep", flag, "0"]);
            assert_eq!(e.code, 2, "{flag}: {}", e.message);
            assert!(e.message.contains(flag), "{flag}: {}", e.message);
            assert!(e.message.is_ascii(), "{flag}: {}", e.message);
            let e = run_err(&["simulate", "--timelines", "2", flag, "0"]);
            assert_eq!(e.code, 2, "timelines {flag}: {}", e.message);
            assert!(e.message.contains(flag), "timelines {flag}: {}", e.message);
        }
    }
}
