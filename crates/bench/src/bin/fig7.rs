//! Regenerates the paper's Fig. 7: PM's computation time as a percentage of
//! Optimal's, for one/two/three controller failures.
//!
//! With `--skip-optimal` there is no Optimal baseline to normalize against,
//! so the binary reports absolute per-case heuristic timing statistics
//! (mean / p95 / max per algorithm and failure count) instead — the mode
//! used to measure the sweep engine itself.
//!
//! Run: `cargo run --release -p pm-bench --bin fig7 -- --help` for the flags.

use pm_bench::figures::{timing_rows, write_bench_sweep_json, TIMING_HEADERS};
use pm_bench::flags::{run_main, Args, CliError};
use pm_bench::harness::EvalOptions;
use pm_bench::report::{render_table, write_csv};
use pm_bench::SweepEngine;
use pm_sdwan::SdWanBuilder;
use std::process::ExitCode;

const HELP: &str = "fig7 [options]: the paper's Fig. 7, PM's computation time as % of Optimal's (with --skip-optimal: absolute heuristic timing per case)";

fn main() -> ExitCode {
    run_main(&[HELP], fig7)
}

fn fig7(args: &mut Args, opts: EvalOptions) -> Result<(), CliError> {
    args.finish()?;
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let engine = SweepEngine::new(&net, opts.clone());

    if opts.skip_optimal {
        heuristic_timing(&engine, &opts);
        return Ok(());
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
    println!("fig7 — computation time of PM as % of Optimal (lower better)\n");
    print!(
        "{}",
        render_table(
            &["scenario", "mean PM/Optimal", "max PM/Optimal", "cases"],
            &rows
        )
    );
    println!(
        "\n(the paper reports 2.54%, 1.77% and 2.18% on average; Optimal runs under a {:?} budget; \
         use --jobs 1 for uncontended measurements)",
        opts.optimal_time_limit
    );
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

/// The `--skip-optimal` mode: absolute heuristic timing over all 41 cases.
fn heuristic_timing(engine: &SweepEngine<'_>, opts: &EvalOptions) {
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
    let sweep_refs: Vec<(usize, &[pm_bench::CaseResult])> =
        sweeps.iter().map(|(k, c)| (*k, c.as_slice())).collect();
    write_bench_sweep_json(opts, "fig7", &sweep_refs);
    println!(
        "fig7 --skip-optimal — heuristic computation time per case \
         ({} thread(s); wall clock)\n",
        opts.jobs
    );
    let mut headers = vec!["scenario"];
    headers.extend(TIMING_HEADERS);
    print!("{}", render_table(&headers, &rows));
    println!("\noverall (all {} cases):", all_cases.len());
    print!(
        "{}",
        render_table(&TIMING_HEADERS, &timing_rows(&all_cases))
    );
    if let Some(dir) = &opts.csv_dir {
        write_csv(dir, "fig7_timing", &headers, &rows);
    }
}
