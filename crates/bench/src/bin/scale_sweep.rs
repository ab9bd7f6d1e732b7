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
//! Artifacts: `BENCH_scale.json` (pinned schema: topology, scenario-space
//! accounting including the streaming-dispatch live peak, per-algorithm
//! timing, optional phase breakdown), plus — with `--csv DIR` —
//! `scale_cases.csv` and `scale_cases.jsonl` holding only deterministic
//! per-case metrics, so the outputs of `--shard i/m` runs concatenated in
//! shard order are byte-identical to the unsharded run.
//!
//! Run: `cargo run --release -p pm-bench --bin scale_sweep -- --help` for
//! the flags.

use pm_bench::figures::{write_bench_scale_json, ScaleRunInfo};
use pm_bench::flags::{run_main, Args, CliError, WAN_HELP};
use pm_bench::harness::EvalOptions;
use pm_bench::report::{render_table, write_csv};
use pm_bench::wan::{build_wan, scale_beta, WanSpec};
use pm_bench::{timing_stats, SweepEngine};
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
    let shard_note = match opts.shard {
        Some((i, m)) => format!(" (shard {i}/{m} of {})", sel.len()),
        None => String::new(),
    };
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
    // jobs × batch entries. The engine counts it; hold it to account here.
    let snap = pm_obs::snapshot();
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let live_peak = counter("sweep.scenario.live_peak");
    let live_bound = (opts.jobs as u64).saturating_mul(opts.batch as u64);
    assert!(
        live_peak <= live_bound,
        "streaming sweep materialized {live_peak} scenarios at once; \
         the contract bound is jobs*batch = {live_bound}"
    );

    let info = ScaleRunInfo {
        nodes: spec.nodes,
        edges,
        seed: opts.seed,
        controllers: net.controllers().len(),
        flows: flow_count,
        failures,
        space_size: sel.space().count(),
        selected: sel.len(),
        sampled: sel.is_sampled(),
        shard: opts.shard,
        cases_run: cases.len(),
        live_peak,
        live_bound,
    };

    println!(
        "scale_sweep — {} switches / {} controllers / {} failure(s), {} case(s)\n",
        info.nodes,
        info.controllers,
        info.failures,
        cases.len()
    );
    let stats = timing_stats(&cases);
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            vec![
                s.algorithm.to_string(),
                format!("{:.3}", s.mean.as_secs_f64() * 1e3),
                format!("{:.3}", s.p95.as_secs_f64() * 1e3),
                format!("{:.3}", s.max.as_secs_f64() * 1e3),
                s.cases.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["algorithm", "mean ms", "p95 ms", "max ms", "cases"],
            &rows
        )
    );
    println!(
        "\nscenario space {} -> selected {}{}; live peak {live_peak} <= bound {live_bound}",
        info.space_size,
        info.selected,
        if info.sampled { " (seeded sample)" } else { "" }
    );

    if let Some(dir) = &opts.csv_dir {
        let (headers, rows) = case_rows(&cases);
        let header_refs: Vec<&str> = headers.to_vec();
        write_csv(dir, "scale_cases", &header_refs, &rows);
        write_case_jsonl(dir, &headers, &rows);
    }
    write_bench_scale_json(&opts, &info, &cases);
    Ok(())
}

/// Deterministic per-case output rows: plan metrics only, no wall-clock
/// values, so shard outputs concatenate byte-identically.
fn case_rows(cases: &[pm_bench::CaseResult]) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
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
    let rows = cases
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
        .collect();
    (headers, rows)
}

/// The same rows as `scale_cases.csv`, one JSON object per line — the
/// mergeable JSON counterpart for sharded runs.
fn write_case_jsonl(dir: &std::path::Path, headers: &[&'static str], rows: &[Vec<String>]) {
    let mut out = String::new();
    for row in rows {
        out.push('{');
        for (i, (h, v)) in headers.iter().zip(row).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Only the case label is a string; every other column is numeric.
            if i == 0 {
                out.push_str(&format!("\"{h}\": \"{v}\""));
            } else {
                out.push_str(&format!("\"{h}\": {v}"));
            }
        }
        out.push_str("}\n");
    }
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("scale_cases.jsonl"), out))
    {
        eprintln!("warning: could not write scale_cases.jsonl: {e}");
    }
}
