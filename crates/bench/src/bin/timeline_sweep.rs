//! Seeded failure-timeline sweep: replays thousands of event schedules —
//! controller failures, recoveries, cascades, partitions, flow churn —
//! against one large Waxman WAN through the streaming timeline engine.
//!
//! Timeline ids index a [`pm_simctl::TimelineSpace`] the way colex ranks
//! index the scenario space, so `--shard i/m` and `--max-scenarios`
//! compose unchanged: m shard outputs concatenated in shard order are
//! byte-identical to the unsharded run, at any `--jobs` count.
//!
//! Artifacts, written with `--csv DIR`: `BENCH_timeline.json` (pinned
//! schema: topology, timeline-space accounting including the
//! streaming-dispatch live peak, aggregate event totals, optional phase
//! breakdown), plus `timeline_cases.csv` and `timeline_cases.jsonl`
//! holding only deterministic per-timeline outcomes.
//!
//! Run: `cargo run --release -p pm-bench --bin timeline_sweep -- --help`
//! for the flags.

use pm_bench::figures::{shard_note, SpaceInfo};
use pm_bench::flags::{
    run_main, take_timeline_count, take_timeline_params, Args, CliError, WAN_HELP,
};
use pm_bench::harness::EvalOptions;
use pm_bench::par::live_peak;
use pm_bench::report::{render_table, write_csv, write_jsonl};
use pm_bench::timelines::{timeline_rows, write_bench_timeline_json, TimelineRunInfo, SIM_POOL};
use pm_bench::wan::{build_wan, WanSpec};
use pm_bench::{SweepEngine, TIMELINE_CASE_HEADERS};
use std::process::ExitCode;

const HELP: &str = "timeline_sweep — seeded failure timelines replayed on a generated Waxman WAN

USAGE: timeline_sweep [options]

timeline options:
  --timelines N        seeded timelines to replay (default 10000)
  --horizon-ms MS      event-generation horizon per timeline (default 10000)
  --mean-gap-ms MS     mean gap between timeline events (default 500)
  --max-failed F       cap on simultaneously failed controllers (default 3)
  --no-drain           do not append recoveries after the horizon
";

fn main() -> ExitCode {
    run_main(&[HELP, WAN_HELP], timeline_sweep)
}

fn timeline_sweep(args: &mut Args, mut opts: EvalOptions) -> Result<(), CliError> {
    let timelines = take_timeline_count(args)?.unwrap_or(10_000);
    let params = take_timeline_params(args)?;
    let spec = WanSpec::take(args, opts.seed)?;
    args.finish()?;
    // Timelines solve with the two heuristics only, and eager cache
    // warming would reintroduce the all-pairs cost the drill avoids.
    opts.skip_optimal = true;
    opts.eager_warm = false;
    // The recorder backs the live-peak accounting even when no telemetry
    // export was requested.
    pm_obs::enable();

    eprintln!(
        "timeline_sweep: generating waxman n={} (seed {})...",
        spec.nodes, opts.seed
    );
    let wan = build_wan(&spec);
    let net = &wan.net;
    eprintln!(
        "timeline_sweep: {} edges, {} controllers, {} flows; network built",
        wan.edges,
        net.controllers().len(),
        wan.flows
    );

    let engine = SweepEngine::new(net, opts.clone());
    let space = engine.timeline_space(timelines, params);
    let sel = engine.timeline_selection(&space);
    let range = sel.shard_range(opts.shard);
    let shard_note = shard_note(opts.shard, sel.len());
    eprintln!(
        "timeline_sweep: {} of {} timeline(s){}{} on {} thread(s), batch {}...",
        range.end - range.start,
        space.count(),
        if sel.is_sampled() { " [sampled]" } else { "" },
        shard_note,
        opts.jobs,
        opts.batch
    );
    let t0 = std::time::Instant::now();
    let reports = engine.sweep_timelines(&space, &sel);
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The streaming-dispatch contract: in-flight timelines never exceed
    // jobs × batch.
    let (live_peak, live_bound) = live_peak(SIM_POOL, &opts);

    let info = TimelineRunInfo {
        nodes: spec.nodes,
        edges: wan.edges,
        seed: opts.seed,
        controllers: net.controllers().len(),
        flows: wan.flows,
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

    let solves: u64 = reports.iter().map(|r| r.solves as u64).sum();
    let events: u64 = reports.iter().map(|r| r.events as u64).sum();
    let recovered = reports.iter().filter(|r| r.fully_recovered).count();
    println!(
        "timeline_sweep — {} switches / {} controllers, {} timeline(s), \
         {} event(s), {} solve(s)\n",
        info.nodes,
        info.controllers,
        reports.len(),
        events,
        solves
    );
    let summary = vec![
        vec!["timelines run".to_string(), reports.len().to_string()],
        vec!["events replayed".to_string(), events.to_string()],
        vec!["recovery solves".to_string(), solves.to_string()],
        vec!["fully recovered".to_string(), recovered.to_string()],
        vec![
            "peak simultaneous failures".to_string(),
            reports
                .iter()
                .map(|r| r.peak_failed)
                .max()
                .unwrap_or(0)
                .to_string(),
        ],
        vec![
            "worst PM recovered (ppm of offline)".to_string(),
            reports
                .iter()
                .map(|r| r.pm_worst_recovered_ppm)
                .min()
                .unwrap_or(1_000_000)
                .to_string(),
        ],
    ];
    print!("{}", render_table(&["metric", "value"], &summary));
    println!(
        "\ntimeline space {} -> selected {}{}; live peak {live_peak} <= bound {live_bound}",
        info.space.size,
        info.space.selected,
        if info.space.sampled {
            " (seeded sample)"
        } else {
            ""
        }
    );

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
