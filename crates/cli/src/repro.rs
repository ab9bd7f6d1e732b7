//! `pmctl repro NAME`: regenerates one of the paper's outputs (Table III,
//! Figs. 4–7) or one of the three studies beyond them.
//!
//! Every output is one entry of [`OUTPUTS`]: a name, a one-line
//! description, the evaluation flags its body reads and the body.
//! `repro` takes the evaluation flag group and nothing else (the
//! telemetry group is global to pmctl); an evaluation flag the output
//! does not read is a usage error. A body writes its report to `out`; the
//! wall-clock table of Figs. 4–6 goes to stderr so `out` regenerates byte
//! for byte (`tests/results_regen.rs`).

use crate::CliError;
use pm_bench::figures::{run_failure_figure, timing_rows, write_bench_sweep_json, TIMING_HEADERS};
use pm_bench::flags::{Args, EVAL_HELP};
use pm_bench::par::{stream_indexed, SWEEP_POOL};
use pm_bench::report::{pct, render_table, write_csv};
use pm_bench::{CaseResult, EvalOptions, SweepEngine};
use pm_core::{FmssmInstance, Pg, Pm, RecoveryAlgorithm, Rerouter, RetroFlow, SuccessiveRecovery};
use pm_sdwan::{
    ControllerId, FlowId, NetCache, PlanMetrics, RecoveryPlan, SdWan, SdWanBuilder, SwitchId,
};
use pm_topo::att::PAPER_FLOW_COUNTS;
use std::io::{self, Write};

/// One regenerable output.
struct Repro {
    name: &'static str,
    about: &'static str,
    /// The flags of [`EVAL_FLAGS`] the body reads.
    reads: &'static [&'static str],
    run: fn(EvalOptions, &mut dyn Write) -> io::Result<()>,
}

/// The evaluation group's flags; the failure sweeps (Figs. 4–7) read
/// them all.
const EVAL_FLAGS: [&str; 8] = [
    "--opt-secs",
    "--skip-optimal",
    "--csv",
    "--jobs",
    "--shard",
    "--max-scenarios",
    "--seed",
    "--batch",
];

/// Every output `pmctl repro` regenerates, in the order the usage lists
/// them.
const OUTPUTS: [Repro; 8] = [
    Repro {
        name: "table3",
        about: "the paper's Table III, controller domains and per-switch flow counts",
        reads: &["--csv"],
        run: table3,
    },
    Repro {
        name: "fig4",
        about: "the paper's Fig. 4, one controller failure (6 cases, panels a-d)",
        reads: &EVAL_FLAGS,
        run: |opts, out| run_failure_figure(1, "fig4", false, &opts, out),
    },
    Repro {
        name: "fig5",
        about: "the paper's Fig. 5, two controller failures (15 cases, panels a-f)",
        reads: &EVAL_FLAGS,
        run: |opts, out| run_failure_figure(2, "fig5", true, &opts, out),
    },
    Repro {
        name: "fig6",
        about: "the paper's Fig. 6, three controller failures (20 cases, panels a-f)",
        reads: &EVAL_FLAGS,
        run: |opts, out| run_failure_figure(3, "fig6", true, &opts, out),
    },
    Repro {
        name: "fig7",
        about: "the paper's Fig. 7, PM's time as % of Optimal's \
                (--skip-optimal: heuristic timing per case)",
        reads: &EVAL_FLAGS,
        run: fig7,
    },
    Repro {
        name: "capacity_sweep",
        about: "controller-capacity sensitivity of the (13,20) failure",
        reads: &["--jobs"],
        run: capacity_sweep,
    },
    Repro {
        name: "reroute_drill",
        about: "rerouting around a congested link after the (13,20) failure",
        reads: &[],
        run: reroute_drill,
    },
    Repro {
        name: "successive_drill",
        about: "successive failures, incremental recovery vs recompute",
        reads: &["--jobs"],
        run: successive_drill,
    },
];

/// The usage of `repro`: the output names, the evaluation flags and the
/// ones each output reads.
fn repro_usage() -> String {
    let mut text = String::from("USAGE:\n  pmctl repro NAME [evaluation options]\n\nNAME:\n");
    for r in &OUTPUTS {
        text.push_str(&format!("  {:<18} {}\n", r.name, r.about));
    }
    text.push('\n');
    text.push_str(EVAL_HELP);
    text.push_str("\nthe evaluation options each output reads (any other is an error):\n");
    for r in &OUTPUTS {
        let reads = match r.reads.len() {
            0 => "none".to_string(),
            n if n == EVAL_FLAGS.len() => "all".to_string(),
            _ => r.reads.join(" "),
        };
        text.push_str(&format!("  {:<18} {reads}\n", r.name));
    }
    text
}

pub(crate) fn cmd_repro(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let name = args.take_first().unwrap_or_default();
    let name = name.to_string_lossy();
    if matches!(name.as_ref(), "help" | "--help" | "-h") {
        return write!(out, "{}", repro_usage()).map_err(|e| CliError::runtime(e.to_string()));
    }
    let Some(repro) = OUTPUTS.iter().find(|r| r.name == name) else {
        let name = name.escape_default();
        return Err(CliError::usage(format!(
            "no output named '{name}'\n\n{}",
            repro_usage()
        )));
    };
    let ignored: Vec<&str> = EVAL_FLAGS
        .into_iter()
        .filter(|&flag| args.contains(flag) && !repro.reads.contains(&flag))
        .collect();
    if !ignored.is_empty() {
        let verb = if ignored.len() == 1 { "does" } else { "do" };
        return Err(CliError::usage(format!(
            "{} {verb} not apply to repro {}",
            ignored.join(", "),
            repro.name
        )));
    }
    let opts = EvalOptions::take(&mut args)?;
    args.finish()?;
    (repro.run)(opts, out).map_err(|e| CliError::runtime(format!("repro {}: {e}", repro.name)))
}

fn paper_net() -> SdWan {
    SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds")
}

/// RetroFlow's, PM's and PG's plans for `inst`, in that order, each
/// checked against the instance and scored.
fn heuristic_plans(inst: &FmssmInstance<'_, '_>) -> [(&'static str, RecoveryPlan, PlanMetrics); 3] {
    let algos: [&dyn RecoveryAlgorithm; 3] = [&RetroFlow::new(), &Pm::new(), &Pg::new()];
    algos.map(|algo| {
        let plan = algo.recover(inst).expect("plan");
        let (metrics, _) = inst
            .evaluate(&plan, algo.is_flow_level(), algo.middle_layer_ms())
            .expect("valid plan");
        (algo.name(), plan, metrics)
    })
}

/// Table III: the default relationship between controllers, switches and
/// the number of flows in the switches under the ATT topology.
fn table3(opts: EvalOptions, out: &mut dyn Write) -> io::Result<()> {
    let net = paper_net();
    let engine = SweepEngine::new(&net, opts.clone());
    let cache = engine.cache();

    writeln!(
        out,
        "Table III: controllers, switches, and per-switch flow counts (ATT topology)"
    )?;
    writeln!(
        out,
        "(\"ours\" = derived from the embedded ATT-like backbone; \"paper\" = Table III)\n"
    )?;

    let (mut rows, mut load_rows) = (Vec::new(), Vec::new());
    for (c, controller) in net.controllers().iter().enumerate() {
        let (cid, node) = (ControllerId(c), controller.node.index());
        for s in net.domain_switches(cid) {
            rows.push(vec![
                format!("C{node}"),
                format!("s{}", s.index()),
                net.gamma(s).to_string(),
                PAPER_FLOW_COUNTS[s.index()].to_string(),
            ]);
        }
        load_rows.push(vec![
            format!("C{node}"),
            cache.controller_load(cid).to_string(),
            controller.capacity.to_string(),
            cache.residual_capacity(cid).to_string(),
        ]);
    }
    let headers = ["controller", "switch", "flows (ours)", "flows (paper)"];
    writeln!(out, "{}", render_table(&headers, &rows))?;
    let load_headers = ["controller", "load", "capacity", "residual A_j^rest"];
    write!(out, "{}", render_table(&load_headers, &load_rows))?;

    let ours: u32 = net.switches().map(|s| net.gamma(s)).sum();
    let paper: u32 = PAPER_FLOW_COUNTS.iter().sum();
    writeln!(
        out,
        "\ntotal flow-at-switch count: ours {ours}, paper {paper}"
    )?;
    writeln!(
        out,
        "hub switch s13: ours {} flows (max), paper 213 (max)",
        net.gamma(SwitchId(13))
    )?;

    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "table3", &headers, &rows);
    }
    Ok(())
}

/// Fig. 7: PM's computation time as a percentage of Optimal's, for
/// one/two/three controller failures. With `--skip-optimal` there is no
/// Optimal to normalize against, so it reports absolute per-case
/// heuristic timing (mean / p95 / max per algorithm and failure count).
fn fig7(opts: EvalOptions, out: &mut dyn Write) -> io::Result<()> {
    let net = paper_net();
    let engine = SweepEngine::new(&net, opts.clone());

    if opts.skip_optimal {
        return heuristic_timing(&engine, &opts, out);
    }

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for k in 1..=3 {
        let cases = engine.sweep(k);
        let mut ratios = Vec::new();
        for case in &cases {
            let pm = case.run("PM").expect("PM always runs");
            let optimal = case.run("Optimal").expect("Optimal requested");
            let ratio = pm.elapsed.as_secs_f64() / optimal.elapsed.as_secs_f64().max(1e-9);
            csv_rows.push(vec![
                case.label.clone(),
                format!("{:.6}", pm.elapsed.as_secs_f64()),
                format!("{:.6}", optimal.elapsed.as_secs_f64()),
                format!("{:.4}", ratio * 100.0),
                optimal.proved_optimal.unwrap_or(false).to_string(),
            ]);
            ratios.push(ratio);
        }
        if ratios.is_empty() {
            rows.push(vec![
                format!("{k} failure(s)"),
                "-".into(),
                "-".into(),
                "0".into(),
            ]);
            continue;
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        rows.push(vec![
            format!("{k} failure(s)"),
            format!("{:.3}%", mean * 100.0),
            format!("{:.3}%", max * 100.0),
            ratios.len().to_string(),
        ]);
    }
    writeln!(
        out,
        "fig7 — computation time of PM as % of Optimal (lower better)\n"
    )?;
    write!(
        out,
        "{}",
        render_table(
            &["scenario", "mean PM/Optimal", "max PM/Optimal", "cases"],
            &rows
        )
    )?;
    writeln!(
        out,
        "\n(the paper reports 2.54%, 1.77% and 2.18% on average; Optimal runs under a {:?} budget; \
         use --jobs 1 for uncontended measurements)",
        opts.optimal_time_limit
    )?;
    if let Some(dir) = &opts.csv_dir {
        write_csv(
            dir,
            "fig7",
            &[
                "case",
                "pm_secs",
                "optimal_secs",
                "pm_pct_of_optimal",
                "proved_optimal",
            ],
            &csv_rows,
        );
    }
    Ok(())
}

/// The `--skip-optimal` mode of [`fig7`]: absolute heuristic timing over
/// all 41 cases.
fn heuristic_timing(
    engine: &SweepEngine<'_>,
    opts: &EvalOptions,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut rows = Vec::new();
    let mut all_cases = Vec::new();
    let mut sweeps = Vec::new();
    for k in 1..=3 {
        let cases = engine.sweep(k);
        for stat in timing_rows(&cases) {
            let mut row = vec![format!("{k} failure(s)")];
            row.extend(stat);
            rows.push(row);
        }
        all_cases.extend(cases.clone());
        sweeps.push((k, cases));
    }
    let sweep_refs: Vec<(usize, &[CaseResult])> =
        sweeps.iter().map(|(k, c)| (*k, c.as_slice())).collect();
    write_bench_sweep_json(opts, "fig7", &sweep_refs);
    writeln!(
        out,
        "fig7 --skip-optimal — heuristic computation time per case \
         ({} thread(s); wall clock)\n",
        opts.jobs
    )?;
    let mut headers = vec!["scenario"];
    headers.extend(TIMING_HEADERS);
    write!(out, "{}", render_table(&headers, &rows))?;
    writeln!(out, "\noverall (all {} cases):", all_cases.len())?;
    write!(
        out,
        "{}",
        render_table(&TIMING_HEADERS, &timing_rows(&all_cases))
    )?;
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "fig7_timing", &headers, &rows);
    }
    Ok(())
}

/// Controller capacities [`capacity_sweep`] visits; the paper's is 500.
const CAPACITIES: [u32; 8] = [450, 475, 500, 525, 550, 600, 700, 800];

/// Beyond the paper: how each algorithm's recovery of the (13, 20) failure
/// degrades as the controller capacity (the paper's 500) tightens.
/// RetroFlow falls off a cliff once the hub fits nowhere; PM and PG
/// degrade gracefully. Capacity points run in parallel (`--jobs N`).
fn capacity_sweep(opts: EvalOptions, out: &mut dyn Write) -> io::Result<()> {
    let points = 0..CAPACITIES.len() as u64;
    let point = |(): &mut (), i: u64| capacity_point(CAPACITIES[i as usize]);
    let (results, _) = stream_indexed(points, opts.jobs, 1, SWEEP_POOL, || (), point);

    let paper_point_recoverable = results
        .iter()
        .find(|&&(_, capacity, _)| capacity == 500)
        .map(|&(_, _, recoverable)| recoverable)
        .expect("sweep includes the paper's operating point");
    let rows: Vec<Vec<String>> = results.into_iter().map(|(cells, _, _)| cells).collect();

    writeln!(
        out,
        "capacity sensitivity on the (13,20) failure — recovered % of {paper_point_recoverable} \
         recoverable flows (total programmability)\n"
    )?;
    write!(
        out,
        "{}",
        render_table(&["capacity", "residual", "RetroFlow", "PM", "PG"], &rows)
    )?;
    writeln!(out, "\n(paper operating point: capacity 500)")
}

/// One capacity point: its table cells, the capacity and the recoverable
/// flow count.
fn capacity_point(capacity: u32) -> (Vec<String>, u32, usize) {
    let builder = SdWanBuilder::att_paper_setup_with_capacity(capacity);
    // Below ~490 some domain overloads; study that regime too.
    let net = match builder.clone().build() {
        Ok(n) => n,
        Err(_) => builder
            .allow_overload()
            .build()
            .expect("builds with waiver"),
    };
    let cache = NetCache::build(&net);
    let scenario = net
        .fail_cached(&[ControllerId(3), ControllerId(4)], &cache)
        .expect("valid");
    let prog = cache.programmability();
    let inst = FmssmInstance::new(&scenario, prog);

    let mut cells = vec![capacity.to_string()];
    let recoverable = inst.recoverable_flow_count();
    let residual: u32 = inst.residuals().iter().sum();
    cells.push(residual.to_string());
    for (_, _, m) in heuristic_plans(&inst) {
        cells.push(format!(
            "{} ({})",
            pct(m.recovered_flows as f64 / recoverable.max(1) as f64),
            m.total_programmability
        ));
    }
    (cells, capacity, recoverable)
}

/// Does `path` traverse the link `a`–`b`, in either direction?
fn crosses(path: &[SwitchId], a: SwitchId, b: SwitchId) -> bool {
    path.windows(2)
        .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
}

/// Beyond the paper: what recovered programmability buys (Section II-A).
/// After each algorithm recovers the (13, 20) failure, the most-loaded
/// link congests and every flow crossing it is steered onto an alternate
/// path with one programmable deviation (`pm_core::Rerouter`); then the
/// full TE loop relieves the hottest link.
fn reroute_drill(opts: EvalOptions, out: &mut dyn Write) -> io::Result<()> {
    let net = paper_net();
    let engine = SweepEngine::new(&net, opts);
    let prog = engine.programmability();
    let failed = [ControllerId(3), ControllerId(4)];
    let scenario = engine.scenario(&failed).expect("valid failure");
    let inst = FmssmInstance::new(&scenario, prog);
    let plans = heuristic_plans(&inst);

    // The most-loaded link by flow count.
    let mut best: Option<(SwitchId, SwitchId, usize)> = None;
    for e in net.topology().edges() {
        let (a, b) = (SwitchId(e.a.index()), SwitchId(e.b.index()));
        let crossing = net
            .flows()
            .iter()
            .filter(|f| crosses(&f.path, a, b))
            .count();
        if best.map_or(true, |(_, _, c)| crossing > c) {
            best = Some((a, b, crossing));
        }
    }
    let (a, b, crossing_count) = best.expect("topology has edges");
    writeln!(
        out,
        "congested link: {a}–{b} ({} ↔ {}), {crossing_count} flows crossing",
        net.topology().node(a.node()).name,
        net.topology().node(b.node()).name,
    )?;
    let crossing: Vec<_> = net
        .flows()
        .iter()
        .enumerate()
        .filter(|(_, f)| crosses(&f.path, a, b))
        .map(|(l, _)| FlowId(l))
        .collect();

    writeln!(
        out,
        "\n{:<10} {:>10} {:>12} {:>14}",
        "algorithm", "reroutable", "% of crossing", "mean detour(ms)"
    )?;
    let weight = |path: &[SwitchId]| {
        let nodes: Vec<_> = path.iter().map(|s| s.node()).collect();
        pm_topo::paths::path_weight(net.topology(), &nodes)
    };
    for (name, plan, _) in &plans {
        let mut rr = Rerouter::new(&scenario, prog, plan);
        let mut moved = 0usize;
        let mut detour_sum = 0.0;
        for &l in &crossing {
            if let Ok(action) = rr.reroute_around_link(l, a, b) {
                moved += 1;
                let old = weight(&net.flow(l).path).expect("original path valid");
                let new = weight(&action.path).expect("new path valid");
                detour_sum += new - old;
            }
        }
        writeln!(
            out,
            "{:<10} {:>10} {:>12.0}% {:>14.3}",
            name,
            format!("{moved}/{}", crossing.len()),
            100.0 * moved as f64 / crossing.len() as f64,
            if moved > 0 {
                detour_sum / moved as f64
            } else {
                0.0
            }
        )?;
    }
    writeln!(
        out,
        "\n(reroute = one FlowMod at a programmable switch onto a loop-free \
         alternate; the legacy tail needs no further entries)"
    )?;

    // Part 2: the full TE loop — drive the hottest link's utilization down
    // with up to 32 single-deviation moves under each recovery plan.
    let tm = pm_sdwan::TrafficMatrix::gravity(&net, 10_000.0);
    let base = pm_sdwan::LinkLoads::compute(&net, &tm, &Default::default());
    let capacity = base.max_link().map(|(_, l)| l / 0.8).unwrap_or(1.0);
    writeln!(
        out,
        "\nhotspot relief (gravity traffic, hottest link starts at 80% utilization):"
    )?;
    writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>8} {:>7}",
        "algorithm", "initial", "final", "relief", "moves"
    )?;
    for (name, plan, _) in &plans {
        let report =
            pm_core::relieve_hotspots(&scenario, prog, plan, &tm, capacity, 32).expect("traffic");
        writeln!(
            out,
            "{:<10} {:>11.1}% {:>11.1}% {:>7.1}% {:>7}",
            name,
            report.initial_utilization * 100.0,
            report.final_utilization * 100.0,
            report.relief() * 100.0,
            report.moves.len()
        )?;
    }
    Ok(())
}

/// Number of decisions in `b` that are new or changed relative to `a`.
fn churn(a: &RecoveryPlan, b: &RecoveryPlan) -> u64 {
    let changed = b.difference(a);
    (changed.sdn_count() + changed.mappings().count()) as u64
}

/// Beyond the paper: every ordered pair of controller failures played as a
/// sequence, incremental recovery (`pm_core::SuccessiveRecovery`, which
/// pins earlier decisions) against recomputing from scratch at each step.
/// It reports churn (mappings and SDN selections changed between steps:
/// role handshakes and FlowMods) and the final total programmability.
/// Sequences run in parallel (`--jobs N`).
fn successive_drill(opts: EvalOptions, out: &mut dyn Write) -> io::Result<()> {
    let net = paper_net();
    let engine = SweepEngine::new(&net, opts.clone());
    let m = net.controllers().len();

    let pairs: Vec<(usize, usize)> = (0..m)
        .flat_map(|first| (0..m).filter(move |&s| s != first).map(move |s| (first, s)))
        .collect();

    let run = |(): &mut (), i: u64| {
        let (first, second) = pairs[i as usize];
        sequence(&engine, first, second)
    };
    let (sequences, _) =
        stream_indexed(0..pairs.len() as u64, opts.jobs, 1, SWEEP_POOL, || (), run);

    let mut sums = [0u64; 4];
    let mut rows = Vec::new();
    for (label, cells) in &sequences {
        for (sum, cell) in sums.iter_mut().zip(cells) {
            *sum += cell;
        }
        rows.push(
            [label.clone()]
                .into_iter()
                .chain(cells.map(|c| c.to_string()))
                .collect(),
        );
    }
    let [inc_churn, scr_churn, inc_total, scr_total] = sums.map(|sum| sum as f64);

    writeln!(
        out,
        "successive failures: incremental (stable) vs from-scratch recovery\n"
    )?;
    let headers = [
        "sequence",
        "churn incr",
        "churn scratch",
        "total incr",
        "total scratch",
    ];
    write!(out, "{}", render_table(&headers, &rows))?;
    let n = rows.len() as f64;
    writeln!(
        out,
        "\nmeans over {} ordered sequences: churn {:.0} vs {:.0} decisions \
         (incremental saves {:.0}%), total programmability {:.0} vs {:.0} \
         ({:.1}% of from-scratch quality)",
        rows.len(),
        inc_churn / n,
        scr_churn / n,
        100.0 * (1.0 - inc_churn / scr_churn.max(1.0)),
        inc_total / n,
        scr_total / n,
        100.0 * inc_total / scr_total.max(1.0),
    )
}

/// Plays controller `first` then `second` failing, incrementally and from
/// scratch: the sequence's label and its churn and total programmability,
/// incremental then from scratch.
fn sequence(engine: &SweepEngine<'_>, first: usize, second: usize) -> (String, [u64; 4]) {
    let (net, prog) = (engine.network(), engine.programmability());
    let (c1, c2) = (ControllerId(first), ControllerId(second));

    // Incremental: recover c1, then extend for c2.
    let mut rec = SuccessiveRecovery::new();
    rec.on_failure(net, prog, &[c1]).expect("step 1");
    let step1 = rec.plan().clone();
    rec.on_failure(net, prog, &[c2]).expect("step 2");
    let inc_final = rec.plan().clone();

    // From scratch at each step.
    let sc1 = engine.scenario(&[c1]).expect("valid");
    let scratch1 = Pm::new()
        .recover(&FmssmInstance::new(&sc1, prog))
        .expect("pm step 1");
    let sc2 = engine.scenario(&[c1, c2]).expect("valid");
    let inst2 = FmssmInstance::new(&sc2, prog);
    let scratch2 = Pm::new().recover(&inst2).expect("pm step 2");

    let total = |plan| {
        let (m, _) = inst2.evaluate(plan, false, 0.0).expect("valid plan");
        m.total_programmability
    };
    let node = |c: usize| net.controllers()[c].node.index();
    let cells = [
        churn(&step1, &inc_final),
        churn(&scratch1, &scratch2),
        total(&inc_final),
        total(&scratch2),
    ];
    (format!("{} then {}", node(first), node(second)), cells)
}
