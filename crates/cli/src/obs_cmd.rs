//! `pmctl obs` — the telemetry analysis subcommands.
//!
//! These read the `metrics.json` that `pmctl --telemetry DIR` writes
//! (schema version 1) and turn it into human-readable reports,
//! baseline diffs, and a CI regression gate:
//!
//! ```console
//! pmctl obs report METRICS.json          # summarize one run
//! pmctl obs diff BASE.json CURRENT.json  # compare two runs
//! pmctl obs gate D/metrics.json --baseline results/baselines/fig7.metrics.json
//! ```
//!
//! `gate` compares against a committed baseline and exits with code 3
//! when a gated (deterministic) quantity moved beyond the thresholds —
//! time-valued metrics are reported but never gate by default, so the
//! check is stable across machines.

use crate::CliError;
use pm_bench::flags::Args;
use pm_obs::baseline::{parse_metrics, MetricsDoc};
use pm_obs::diff::{diff, DiffOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

pub(crate) const OBS_USAGE: &str = "\
pmctl obs — telemetry analysis

USAGE:
  pmctl obs report METRICS.json
  pmctl obs diff BASELINE.json CURRENT.json [diff options] [--md]
  pmctl obs gate CURRENT.json --baseline FILE [diff options]
                 [--md-out FILE]
  pmctl obs top  --url ADDR [--interval-ms N]
                 [--frames N] [--ansi|--plain]
  pmctl obs flame    (PROFILE.folded | --url ADDR) [--top N] [--md]
  pmctl obs critical TRACE.json [--md]

diff options:
  --max-regress P[%]   gated threshold as % of the baseline (default 10%)
  --abs-tol N          absolute slack a gated delta must also exceed
  --gate-time          gate wall-clock metrics too (off by default)

`diff` reports differences (exit 0 either way); `gate` exits 3 when a
gated quantity breaches. The fig7 baseline's CURRENT.json comes from
`pmctl repro fig7 --skip-optimal --jobs 1 --telemetry D`: gate D/metrics.json.

`top` is a live viewer for a running sweep — see `pmctl obs top` with no
source for its own usage.

`flame` renders a folded-stack profile (the profile.folded a --telemetry
run writes, or the live /profile.folded endpoint of a --serve run) as a
hot-path table sorted by self weight. Its stacks are weighted by self
time in ns; any other folded file works too, its counts read as the
weights. `critical` reconstructs the span tree of a --telemetry run's
trace.json and reports exclusive self-time per span plus the critical
path (the longest chain of child spans, with per-worker thread
attribution).
";

/// Exit code for a breached gate: distinct from runtime errors (1) and
/// usage errors (2) so CI can tell "regressed" from "broken".
const GATE_EXIT: i32 = 3;

pub(crate) fn cmd_obs(mut args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let Some(sub) = args.take_first() else {
        return Err(CliError::usage(OBS_USAGE));
    };
    match sub.to_string_lossy().as_ref() {
        "report" => obs_report(&mut args, out),
        "diff" => obs_diff(&mut args, out),
        "gate" => obs_gate(&mut args, out),
        "top" => crate::obs_top::cmd_obs_top(&mut args, out),
        "flame" => crate::obs_prof::cmd_obs_flame(&mut args, out),
        "critical" => crate::obs_prof::cmd_obs_critical(&mut args, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{OBS_USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown obs subcommand {other}\n\n{OBS_USAGE}"
        ))),
    }
}

/// Reads and parses one metrics document, naming the file in any error.
fn load_metrics(path: &Path) -> Result<MetricsDoc, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
    parse_metrics(&text).map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))
}

/// Pulls the shared threshold flags off the argument list.
fn parse_diff_options(args: &mut Args) -> Result<DiffOptions, CliError> {
    let mut opts = DiffOptions::default();
    if let Some(v) = args.take_str_flag("--max-regress")? {
        let raw = v.strip_suffix('%').unwrap_or(&v);
        opts.max_regress_pct = raw
            .parse::<f64>()
            .ok()
            .filter(|p| p.is_finite() && *p >= 0.0)
            .ok_or_else(|| CliError::usage(format!("--max-regress: bad percentage {v}")))?;
    }
    if let Some(tol) = args.take_parsed("--abs-tol", "an integer", |_: &u64| true)? {
        opts.abs_tolerance = tol;
    }
    opts.gate_time_metrics = args.take_switch("--gate-time")?;
    Ok(opts)
}

/// Takes the next positional argument as a path. Shared with the
/// profile analysis subcommands in `obs_prof`.
pub(crate) fn take_operand(args: &mut Args, what: &str) -> Result<PathBuf, CliError> {
    args.take_first()
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage(format!("{what} is required\n\n{OBS_USAGE}")))
}

fn obs_report(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = take_operand(args, "METRICS.json")?;
    args.finish()?;
    let doc = load_metrics(&path)?;
    let _ = writeln!(
        out,
        "metrics report for {} (schema v{})",
        path.display(),
        doc.schema_version
    );
    let _ = writeln!(out);
    let name_w = doc
        .counters
        .keys()
        .chain(doc.histograms.keys())
        .chain(doc.spans.keys())
        .map(String::len)
        .max()
        .unwrap_or(4)
        .max(4);
    let _ = writeln!(out, "counters ({})", doc.counters.len());
    for (name, v) in &doc.counters {
        let _ = writeln!(out, "  {name:<name_w$}  {v}");
    }
    let _ = writeln!(out, "histograms ({})", doc.histograms.len());
    if !doc.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:>10} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "p50<=", "p95<=", "p99<=", "max"
        );
    }
    for (name, h) in &doc.histograms {
        let _ = writeln!(
            out,
            "  {name:<name_w$}  {:>10} {:>12} {:>12} {:>12} {:>12}",
            h.count,
            h.p50(),
            h.p95(),
            h.p99(),
            h.max
        );
    }
    let _ = writeln!(out, "spans ({})", doc.spans.len());
    if !doc.spans.is_empty() {
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:>10} {:>14} {:>14}",
            "name", "count", "total_ns", "max_ns"
        );
    }
    for (name, s) in &doc.spans {
        let _ = writeln!(
            out,
            "  {name:<name_w$}  {:>10} {:>14} {:>14}",
            s.count, s.total_ns, s.max_ns
        );
    }
    Ok(())
}

fn obs_diff(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_diff_options(args)?;
    let markdown = args.take_switch("--md")?;
    let base_path = take_operand(args, "BASELINE.json")?;
    let current_path = take_operand(args, "CURRENT.json")?;
    args.finish()?;
    let base = load_metrics(&base_path)?;
    let current = load_metrics(&current_path)?;
    let report = diff(&base, &current, &opts);
    let _ = write!(
        out,
        "{}",
        if markdown {
            report.markdown()
        } else {
            report.text()
        }
    );
    Ok(())
}

fn obs_gate(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_diff_options(args)?;
    let Some(baseline_path) = args.take_path("--baseline")? else {
        return Err(CliError::usage(format!(
            "--baseline FILE is required\n\n{OBS_USAGE}"
        )));
    };
    let md_out = args.take_path("--md-out")?;
    let current_path = take_operand(args, "CURRENT.json")?;
    args.finish()?;
    let current = load_metrics(&current_path)?;
    let base = load_metrics(&baseline_path)?;
    let report = diff(&base, &current, &opts);
    let _ = write!(out, "{}", report.text());
    if let Some(path) = &md_out {
        pm_obs::write_artifact("gate report", path, &report.markdown())
            .map_err(CliError::runtime)?;
        let _ = writeln!(out, "gate report written to {}", path.display());
    }
    if report.breached() {
        Err(CliError {
            code: GATE_EXIT,
            message: format!(
                "telemetry gate: {} gated quantity(ies) moved beyond thresholds \
                 relative to {}",
                report.breach_count(),
                baseline_path.display()
            ),
        })
    } else {
        Ok(())
    }
}
