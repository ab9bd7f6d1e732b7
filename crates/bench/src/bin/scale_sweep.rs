//! Large-topology failure sweep: the scale drill for the streaming
//! scenario-space engine.
//!
//! Generates a connected Waxman WAN at 1k–10k switches (β shrinks with the
//! node count so the average degree stays in the high single digits),
//! places controllers by farthest-point traversal, partitions domains with
//! the nearest-controller rule, routes a bounded random flow population,
//! and sweeps `--failures` simultaneous controller failures through the
//! three heuristics (the MILP is out of scope at this scale). The whole
//! pipeline avoids any all-pairs computation, so memory and time scale
//! with the controller count and flow pool — not the switch count squared.
//!
//! Artifacts, written with `--csv DIR`: `BENCH_scale.json` (pinned schema:
//! topology, scenario-space accounting including the streaming-dispatch
//! live peak, per-algorithm timing, optional phase breakdown), plus
//! `scale_cases.csv` and `scale_cases.jsonl` holding only deterministic
//! per-case metrics, so the outputs of `--shard i/m` runs concatenated in
//! shard order are byte-identical to the unsharded run.
//!
//! Run: `cargo run --release -p pm-bench --bin scale_sweep -- --help` for
//! the flags.

use pm_bench::figures::{shard_note, timing_rows, write_bench_scale_json, ScaleRunInfo, SpaceInfo};
use pm_bench::flags::{run_main, Args, CliError, WAN_HELP};
use pm_bench::harness::EvalOptions;
use pm_bench::par::{live_peak, SWEEP_POOL};
use pm_bench::report::{render_table, write_csv, write_jsonl};
use pm_bench::wan::{build_wan, scale_beta, WanSpec};
use pm_bench::SweepEngine;
use std::process::ExitCode;

const HELP: &str = "scale_sweep — failure sweep of a generated Waxman WAN at 1k-10k switches

USAGE: scale_sweep [options]

  --failures F         simultaneous failures per scenario (default 3)
";

fn main() -> ExitCode {
    run_main(&[HELP, WAN_HELP], scale_sweep)
}

fn scale_sweep(args: &mut Args, mut opts: EvalOptions) -> Result<(), CliError> {
    let spec = WanSpec::take(args, opts.seed)?;
    let failures = args
        .take_parsed("--failures", "a positive integer", |&f: &usize| f > 0)?
        .unwrap_or(3);
    args.finish()?;
    if failures >= spec.controllers {
        return Err(CliError::usage(format!(
            "--failures must leave at least one controller standing \
             ({failures} failures, {} controllers)",
            spec.controllers
        )));
    }
    // The MILP is out of scope at this scale, and eager cache warming would
    // reintroduce the all-pairs cost the drill exists to avoid.
    opts.skip_optimal = true;
    opts.eager_warm = false;
    // The recorder backs the live-peak accounting below even when no
    // telemetry export was requested.
    pm_obs::enable();

    eprintln!(
        "scale_sweep: generating waxman n={} (beta {:.4}, seed {})...",
        spec.nodes,
        scale_beta(spec.nodes),
        opts.seed
    );
    let wan = build_wan(&spec);
    let (net, edges, flow_count) = (&wan.net, wan.edges, wan.flows);
    eprintln!(
        "scale_sweep: {} edges, {} controllers, {} flows; network built...",
        edges,
        net.controllers().len(),
        flow_count
    );

    let engine = SweepEngine::new(net, opts.clone());
    let sel = engine.selection(failures);
    let range = sel.shard_range(opts.shard);
    let cases_run = (range.end - range.start) as usize;
    let shard_note = shard_note(opts.shard, sel.len());
    eprintln!(
        "scale_sweep: {} of {} scenario(s){}{} on {} thread(s), batch {}...",
        cases_run,
        sel.space().count(),
        if sel.is_sampled() { " [sampled]" } else { "" },
        shard_note,
        opts.jobs,
        opts.batch
    );
    let cases = engine.sweep_selection(&sel);

    // The streaming-dispatch contract: live scenario storage never exceeds
    // jobs × batch entries.
    let (live_peak, live_bound) = live_peak(SWEEP_POOL, &opts);

    let info = ScaleRunInfo {
        nodes: spec.nodes,
        edges,
        seed: opts.seed,
        controllers: net.controllers().len(),
        flows: flow_count,
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

    println!(
        "scale_sweep — {} switches / {} controllers / {} failure(s), {} case(s)\n",
        info.nodes,
        info.controllers,
        info.failures,
        cases.len()
    );
    print!(
        "{}",
        render_table(
            &["algorithm", "mean ms", "p95 ms", "max ms", "cases"],
            &timing_rows(&cases)
        )
    );
    println!(
        "\nscenario space {} -> selected {}{}; live peak {live_peak} <= bound {live_bound}",
        info.space.size,
        info.space.selected,
        if info.space.sampled {
            " (seeded sample)"
        } else {
            ""
        }
    );

    if let Some(dir) = &opts.csv_dir {
        let rows = case_rows(&cases);
        write_csv(dir, "scale_cases", &CASE_HEADERS, &rows);
        // Only the case label is a string; every other column is numeric.
        write_jsonl(dir, "scale_cases.jsonl", &CASE_HEADERS, &rows, 1);
    }
    write_bench_scale_json(&opts, &info, &cases);
    Ok(())
}

/// Columns of the deterministic per-case output: plan metrics only, no
/// wall-clock values, so shard outputs concatenate byte-identically.
const CASE_HEADERS: [&str; 10] = [
    "case",
    "offline_switches",
    "offline_flows",
    "retro_programmability",
    "pm_programmability",
    "pg_programmability",
    "retro_recovered_flows",
    "pm_recovered_flows",
    "pg_recovered_flows",
    "pm_total_delay_ms",
];

/// One [`CASE_HEADERS`] row per case.
fn case_rows(cases: &[pm_bench::CaseResult]) -> Vec<Vec<String>> {
    cases
        .iter()
        .map(|case| {
            let m = |name: &str| case.run(name).expect("heuristics always run");
            let pm = m("PM");
            vec![
                case.label.clone(),
                pm.metrics.offline_switches.to_string(),
                pm.metrics.offline_flows.to_string(),
                m("RetroFlow").metrics.total_programmability.to_string(),
                pm.metrics.total_programmability.to_string(),
                m("PG").metrics.total_programmability.to_string(),
                m("RetroFlow").metrics.recovered_flows.to_string(),
                pm.metrics.recovered_flows.to_string(),
                m("PG").metrics.recovered_flows.to_string(),
                format!("{:.6}", pm.total_delay),
            ]
        })
        .collect()
}
