//! Shared driver for Fig. 4 / Fig. 5 / Fig. 6 (`pmctl repro fig4` …):
//! run every k-failure combination through the [`SweepEngine`] and write
//! one table per panel, plus per-case computation-time statistics on
//! stderr.

use crate::harness::{CaseResult, EvalOptions};
use crate::par::{timing_stats, SweepEngine};
use crate::report::{box_summary, pct, render_table, write_csv, write_file};
use pm_sdwan::SdWanBuilder;
use std::fmt::Write as _;

/// Algorithm column order for every panel.
const ALGOS: [&str; 4] = ["RetroFlow", "PM", "PG", "Optimal"];

/// One titled metric table of a figure.
pub type Panel = (String, Vec<Vec<String>>);

/// Builds the per-panel metric tables of a failure figure from finished
/// cases. Everything here derives from plan metrics — no wall-clock
/// numbers — so the output is identical however the cases were scheduled.
pub fn build_panels(
    cases: &[CaseResult],
    include_optimal: bool,
    switch_panels: bool,
) -> (Vec<String>, Vec<Panel>) {
    let algo_cols: Vec<&str> = if include_optimal {
        ALGOS.to_vec()
    } else {
        ALGOS[..3].to_vec()
    };

    // A cell for (case, algo) or "-" when the algorithm has no result (the
    // exact solver that failed to prove optimality, as in the paper's
    // Fig. 6 where Optimal appears in only 12 of 20 cases).
    let cell = |case: &CaseResult, algo: &str, f: &dyn Fn(&crate::AlgoRun) -> String| -> String {
        match case.run(algo) {
            None => "-".into(),
            Some(run) => {
                if run.proved_optimal == Some(false) {
                    format!("[{}]", f(run)) // best-effort incumbent, not proven
                } else {
                    f(run)
                }
            }
        }
    };

    let panel = |title: &str, f: &dyn Fn(&crate::AlgoRun) -> String| -> Panel {
        let mut rows = Vec::new();
        for case in cases {
            let mut row = vec![case.label.clone()];
            for algo in &algo_cols {
                row.push(cell(case, algo, f));
            }
            rows.push(row);
        }
        (title.to_string(), rows)
    };

    let mut panels: Vec<Panel> = Vec::new();
    panels.push(panel(
        "(a) path programmability of recovered flows over recoverable offline flows \
         (min/q1/median/q3/max; higher better)",
        &|r| box_summary(r.metrics.programmability_box_recoverable()),
    ));

    // Panel (b): total programmability normalized to RetroFlow.
    {
        let mut rows = Vec::new();
        for case in cases {
            let retro = case
                .run("RetroFlow")
                .map(|r| r.metrics.total_programmability)
                .unwrap_or(0);
            let mut row = vec![case.label.clone()];
            for algo in &algo_cols {
                if retro == 0 {
                    // Normalizing to a zero baseline is meaningless (the
                    // paper has no such case); print the absolute total.
                    row.push(cell(case, algo, &|r| {
                        format!("abs {}", r.metrics.total_programmability)
                    }));
                } else {
                    row.push(cell(case, algo, &|r| {
                        pct(r.metrics.total_programmability as f64 / retro as f64)
                    }));
                }
            }
            rows.push(row);
        }
        panels.push((
            "(b) total path programmability, % of RetroFlow (higher better)".into(),
            rows,
        ));
    }

    panels.push(panel(
        "(c) recovered programmable flows, % of recoverable offline flows",
        &|r| pct(r.metrics.recovered_fraction_of_recoverable()),
    ));

    if switch_panels {
        panels.push(panel("(d) recovered offline switches (count)", &|r| {
            format!(
                "{}/{}",
                r.metrics.recovered_switches, r.metrics.offline_switches
            )
        }));
        panels.push(panel(
            "(e) control resource used / available (flows)",
            &|r| {
                let used = r.metrics.total_capacity_used();
                let avail: u32 = r.metrics.controller_usage.iter().map(|u| u.available).sum();
                format!("{used}/{avail}")
            },
        ));
    }

    panels.push(panel(
        if switch_panels {
            "(f) per-flow communication overhead, ms (lower better)"
        } else {
            "(d) per-flow communication overhead, ms (lower better)"
        },
        &|r| format!("{:.3}", r.metrics.per_flow_overhead_ms()),
    ));

    let mut headers: Vec<String> = vec!["case".into()];
    headers.extend(algo_cols.iter().map(|s| s.to_string()));
    (headers, panels)
}

/// Renders the complete metric report of a failure figure (header line,
/// panels, headline). Byte-identical across runs and `--jobs` values as
/// long as the algorithms themselves are deterministic — wall-clock
/// statistics live in [`timing_report`] instead.
pub fn metrics_report(
    cases: &[CaseResult],
    k: usize,
    fig_name: &str,
    switch_panels: bool,
    opts: &EvalOptions,
) -> String {
    let (headers, panels) = build_panels(cases, !opts.skip_optimal, switch_panels);
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} controller failure(s), {} case(s){}",
        fig_name,
        k,
        cases.len(),
        if opts.skip_optimal {
            ", Optimal skipped"
        } else {
            ""
        }
    );
    if !opts.skip_optimal {
        let proved = cases
            .iter()
            .filter(|c| c.run("Optimal").and_then(|r| r.proved_optimal) == Some(true))
            .count();
        let _ = writeln!(
            out,
            "Optimal proved optimality in {proved} of {} cases within {:?} \
             (bracketed [values] are best-effort incumbents)",
            cases.len(),
            opts.optimal_time_limit
        );
    }
    if cases.is_empty() {
        let _ = writeln!(out, "no failure cases to report");
        return out;
    }
    out.push('\n');
    for (title, rows) in &panels {
        let _ = writeln!(out, "{title}");
        out.push_str(&render_table(&header_refs, rows));
        out.push('\n');
    }

    // Headline number: the best PM-vs-RetroFlow total-programmability gain.
    if let Some((label, gain)) = cases
        .iter()
        .filter_map(|c| {
            let retro = c.run("RetroFlow")?.metrics.total_programmability;
            if retro == 0 {
                return None; // meaningless normalization
            }
            let pm = c.run("PM")?.metrics.total_programmability as f64;
            Some((c.label.clone(), pm / retro as f64))
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    {
        let _ = writeln!(
            out,
            "headline: PM's best total-programmability gain over RetroFlow is {} in case {label}",
            pct(gain)
        );
    }
    out
}

/// Renders per-case computation-time statistics (mean / p95 / max per
/// algorithm). These are wall-clock measurements: they vary run to run
/// and contend for cores at `--jobs` above 1.
pub fn timing_report(cases: &[CaseResult]) -> String {
    if cases.is_empty() {
        return "\nper-case computation time: no cases ran\n".to_string();
    }
    let rows = timing_rows(cases);
    let mut out = String::new();
    out.push_str("\nper-case computation time (wall clock; varies run to run)\n");
    out.push_str(&render_table(&TIMING_HEADERS, &rows));
    out
}

/// Column headers of the timing table / CSV.
pub const TIMING_HEADERS: [&str; 5] = ["algorithm", "mean_ms", "p95_ms", "max_ms", "cases"];

/// The timing table rows (shared by the text report and the CSV file).
pub fn timing_rows(cases: &[CaseResult]) -> Vec<Vec<String>> {
    timing_stats(cases)
        .into_iter()
        .map(|s| {
            vec![
                s.algorithm.to_string(),
                format!("{:.3}", s.mean.as_secs_f64() * 1e3),
                format!("{:.3}", s.p95.as_secs_f64() * 1e3),
                format!("{:.3}", s.max.as_secs_f64() * 1e3),
                s.cases.to_string(),
            ]
        })
        .collect()
}

/// Renders the machine-readable timing baseline `BENCH_sweep.json`: one
/// record per failure count with per-algorithm mean/p95/max per-case sweep
/// time in milliseconds. The tree deliberately carries no serde, so the
/// JSON is hand-formatted here — field order and layout are part of the
/// schema and pinned by the determinism tests.
pub fn bench_sweep_json(figure: &str, jobs: usize, sweeps: &[(usize, &[CaseResult])]) -> String {
    let mut out = bench_json_head(figure, jobs);
    out.push_str("  \"sweeps\": [\n");
    for (si, (k, cases)) in sweeps.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"failures\": {k},");
        let _ = writeln!(out, "      \"cases\": {},", cases.len());
        push_algorithms(&mut out, cases, "      ");
        out.push_str(if si + 1 < sweeps.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes [`bench_sweep_json`] to `BENCH_sweep.json` in the CSV directory.
pub fn write_bench_sweep_json(opts: &EvalOptions, figure: &str, sweeps: &[(usize, &[CaseResult])]) {
    let body = bench_sweep_json(figure, opts.jobs, sweeps);
    write_bench_json(opts, "BENCH_sweep.json", &body);
}

/// Writes a `BENCH_*.json` artifact into the CSV directory; without
/// `--csv` nothing is written. Errors are reported to stderr but not
/// fatal.
pub(crate) fn write_bench_json(opts: &EvalOptions, name: &str, body: &str) {
    if let Some(dir) = &opts.csv_dir {
        write_file(dir, name, body);
    }
}

/// The opening members every `BENCH_*.json` (schema version 1) shares.
pub(crate) fn bench_json_head(figure: &str, jobs: usize) -> String {
    format!("{{\n  \"schema_version\": 1,\n  \"figure\": \"{figure}\",\n  \"jobs\": {jobs},\n")
}

/// Appends the `algorithms` member at `indent`: per-algorithm
/// mean/p95/max per-case time in milliseconds.
fn push_algorithms(out: &mut String, cases: &[CaseResult], indent: &str) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let _ = writeln!(out, "{indent}\"algorithms\": [");
    let stats = timing_stats(cases);
    for (i, s) in stats.iter().enumerate() {
        let _ = write!(
            out,
            "{indent}  {{\"name\": \"{}\", \"mean_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"max_ms\": {:.3}, \"cases\": {}}}",
            s.algorithm,
            ms(s.mean),
            ms(s.p95),
            ms(s.max),
            s.cases
        );
        out.push_str(if i + 1 < stats.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(out, "{indent}]");
}

/// Everything `BENCH_scale.json` records about a `pmctl sweep` run
/// besides the timing table: the topology, the scenario space and how it
/// was cut down (sampling, sharding), and the streaming-dispatch memory
/// high-water mark.
#[derive(Debug, Clone)]
pub struct ScaleRunInfo {
    /// The network source: `att`, `graphml` or `waxman`.
    pub model: &'static str,
    /// Switch count of the topology.
    pub nodes: usize,
    /// Edge count of the topology.
    pub edges: usize,
    /// Seed of the scenario sample (and of a generated topology).
    pub seed: u64,
    /// Number of placed controllers.
    pub controllers: usize,
    /// Number of routed flows.
    pub flows: usize,
    /// Simultaneous controller failures per scenario.
    pub failures: usize,
    /// The scenario space `C(controllers, failures)` and its cut-down.
    pub space: SpaceInfo,
}

/// How a sweep cut its space down — selection, shard, cases run — and
/// the streaming dispatch's in-flight high-water mark.
#[derive(Debug, Clone)]
pub struct SpaceInfo {
    /// Size of the swept space.
    pub size: u64,
    /// Items selected after `--max-scenarios` (equals `size` when
    /// exhaustive).
    pub selected: u64,
    /// Whether the selection is a seeded sample rather than exhaustive.
    pub sampled: bool,
    /// The `--shard i/m` slice this run executed, if any.
    pub shard: Option<(usize, usize)>,
    /// Items actually run (the shard's slice of the selection).
    pub run: usize,
    /// Peak in-flight items ([`crate::SweepEngine::live_peak`]).
    pub live_peak: u64,
    /// The contract bound on `live_peak`: `jobs × batch`.
    pub live_bound: u64,
}

impl SpaceInfo {
    /// Appends the `"{key}"` member, naming the run count `run_key`.
    pub(crate) fn push_json(&self, out: &mut String, key: &str, run_key: &str) {
        let shard = match self.shard {
            Some((i, m)) => format!("\"{i}/{m}\""),
            None => "null".into(),
        };
        let _ = writeln!(
            out,
            "  \"{key}\": {{\"size\": {}, \"selected\": {}, \"sampled\": {}, \"shard\": {shard}, \
             \"{run_key}\": {}, \"live_peak\": {}, \"live_bound\": {}}},",
            self.size, self.selected, self.sampled, self.run, self.live_peak, self.live_bound
        );
    }
}

/// Renders `BENCH_scale.json` (schema version 1): the [`ScaleRunInfo`]
/// header and the per-algorithm timing table of [`bench_sweep_json`].
pub fn bench_scale_json(info: &ScaleRunInfo, jobs: usize, cases: &[CaseResult]) -> String {
    let mut out = bench_json_head("scale_sweep", jobs);
    out.push_str("  \"topology\": {");
    let _ = write!(
        out,
        "\"model\": \"{}\", \"nodes\": {}, \"edges\": {}, \"seed\": {}, \
         \"controllers\": {}, \"flows\": {}, \"failures\": {}",
        info.model, info.nodes, info.edges, info.seed, info.controllers, info.flows, info.failures
    );
    out.push_str("},\n");
    info.space
        .push_json(&mut out, "scenario_space", "cases_run");
    push_algorithms(&mut out, cases, "  ");
    out.push_str("}\n");
    out
}

/// Writes [`bench_scale_json`] to `BENCH_scale.json`, like
/// [`write_bench_sweep_json`].
pub fn write_bench_scale_json(opts: &EvalOptions, info: &ScaleRunInfo, cases: &[CaseResult]) {
    let body = bench_scale_json(info, opts.jobs, cases);
    write_bench_json(opts, "BENCH_scale.json", &body);
}

/// Columns of `scale_cases.csv`: plan metrics only, no wall-clock
/// values, so shard outputs concatenate byte-identically.
pub const SCALE_CASE_HEADERS: [&str; 10] = [
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

/// One [`SCALE_CASE_HEADERS`] row per heuristic-only case.
///
/// # Panics
///
/// Panics if a case lacks a RetroFlow, PM or PG run.
pub fn scale_case_rows(cases: &[CaseResult]) -> Vec<Vec<String>> {
    cases
        .iter()
        .map(|case| {
            let m = |name: &str| case.run(name).expect("heuristics always run");
            let (retro, pm, pg) = (m("RetroFlow"), m("PM"), m("PG"));
            vec![
                case.label.clone(),
                pm.metrics.offline_switches.to_string(),
                pm.metrics.offline_flows.to_string(),
                retro.metrics.total_programmability.to_string(),
                pm.metrics.total_programmability.to_string(),
                pg.metrics.total_programmability.to_string(),
                retro.metrics.recovered_flows.to_string(),
                pm.metrics.recovered_flows.to_string(),
                pg.metrics.recovered_flows.to_string(),
                format!("{:.6}", pm.total_delay),
            ]
        })
        .collect()
}

/// The progress-line note naming the `--shard i/m` slice of a selection
/// of `len` items; empty for an unsharded run.
pub fn shard_note(shard: Option<(usize, usize)>, len: u64) -> String {
    match shard {
        Some((i, m)) => format!(" (shard {i}/{m} of {len})"),
        None => String::new(),
    }
}

/// Runs all `k`-controller-failure cases and writes the paper's panels,
/// one row per case in ascending order of the failed node ids, to `out`;
/// the per-case timing table goes to stderr.
///
/// `fig_name` tags the output ("fig4" …); `switch_panels` adds the
/// recovered-switch and controller-resource panels that Figs. 5 and 6 have
/// but Fig. 4 does not.
pub fn run_failure_figure(
    k: usize,
    fig_name: &str,
    switch_panels: bool,
    opts: &EvalOptions,
    out: &mut dyn std::io::Write,
) -> std::io::Result<()> {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let engine = SweepEngine::new(&net, opts.clone());
    let sel = engine.selection(k);
    let shard_positions = sel.shard_range(opts.shard);
    let case_count = shard_positions.end - shard_positions.start;
    let shard_note = shard_note(opts.shard, sel.len());
    eprintln!(
        "{fig_name}: running {case_count} case(s){shard_note} on {} thread(s)...",
        opts.jobs
    );
    let mut cases = engine.sweep_selection(&sel);
    // The sweep runs in colex order; the paper (and `results/`) lists
    // cases by their failed node ids.
    cases.sort_by_cached_key(|c| {
        c.failed
            .iter()
            .map(|&ctrl| net.controllers()[ctrl.index()].node.index())
            .collect::<Vec<_>>()
    });

    out.write_all(metrics_report(&cases, k, fig_name, switch_panels, opts).as_bytes())?;
    // Wall-clock numbers stay off `out` so it regenerates byte for byte.
    eprint!("{}", timing_report(&cases));

    if let Some(dir) = &opts.csv_dir {
        let (headers, panels) = build_panels(&cases, !opts.skip_optimal, switch_panels);
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        for (i, (_, rows)) in panels.iter().enumerate() {
            write_csv(
                dir,
                &format!("{fig_name}_panel{}", (b'a' + i as u8) as char),
                &header_refs,
                rows,
            );
        }
        write_csv(
            dir,
            &format!("{fig_name}_timing"),
            &TIMING_HEADERS,
            &timing_rows(&cases),
        );
    }
    write_bench_sweep_json(opts, fig_name, &[(k, cases.as_slice())]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;

    fn quick_cases(jobs: usize) -> Vec<CaseResult> {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let opts = EvalOptions {
            skip_optimal: true,
            jobs,
            ..Default::default()
        };
        SweepEngine::new(&net, opts).sweep(1)
    }

    #[test]
    fn metrics_report_is_schedule_independent() {
        let opts = EvalOptions {
            skip_optimal: true,
            ..Default::default()
        };
        let serial = metrics_report(&quick_cases(1), 1, "fig4", false, &opts);
        let parallel = metrics_report(&quick_cases(8), 1, "fig4", false, &opts);
        assert_eq!(serial, parallel);
        assert!(serial.contains("fig4 — 1 controller failure(s), 6 case(s), Optimal skipped"));
    }

    #[test]
    fn panels_have_one_row_per_case() {
        let cases = quick_cases(2);
        let (headers, panels) = build_panels(&cases, false, true);
        assert_eq!(headers, vec!["case", "RetroFlow", "PM", "PG"]);
        assert_eq!(panels.len(), 6);
        for (_, rows) in &panels {
            assert_eq!(rows.len(), cases.len());
        }
    }

    #[test]
    fn timing_rows_cover_all_heuristics() {
        let rows = timing_rows(&quick_cases(2));
        let names: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, vec!["RetroFlow", "PM", "PG"]);
    }

    #[test]
    fn empty_case_list_reports_gracefully() {
        // A sweep can legitimately produce no cases (k > controller
        // count); every report path must cope without panicking.
        let opts = EvalOptions {
            skip_optimal: true,
            ..Default::default()
        };
        let metrics = metrics_report(&[], 7, "figX", false, &opts);
        assert!(metrics.contains("0 case(s)"));
        assert!(metrics.contains("no failure cases to report"));
        let timing = timing_report(&[]);
        assert!(timing.contains("no cases ran"));
        assert!(timing_rows(&[]).is_empty());
        let json = bench_sweep_json("figX", 1, &[(7, &[])]);
        pm_obs::json::validate(&json).expect("valid JSON for an empty sweep");
    }
}
