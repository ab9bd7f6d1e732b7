//! `pmctl obs flame` and `pmctl obs critical` — the profile analysis
//! subcommands.
//!
//! `flame` renders a folded-stack profile (the `profile.folded` of
//! `--telemetry DIR`, or the live `/profile.folded` endpoint of a
//! `--serve` run) as a sorted
//! hot-path table: per-frame *self* weight (the frame was on top of the
//! stack) and *total* weight (the frame was anywhere on the stack). A
//! `profile.folded` line's weight is self time in ns; any folded file's counts
//! are read the same way, and the table calls them samples.
//! `critical` reconstructs the span tree of a `trace.json` Chrome-trace
//! artifact and reports exclusive self-time per span name plus the
//! critical path — the longest root span, then repeatedly its longest
//! direct child — with per-worker attribution from the thread names.

use crate::CliError;
use pm_bench::flags::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;

/// Per-frame aggregate over a folded profile.
#[derive(Debug)]
struct FrameStat {
    name: String,
    /// Samples with this frame on top of the stack.
    self_samples: u64,
    /// Samples with this frame anywhere on the stack (deduplicated per
    /// line, so recursive frames count once per sample).
    total_samples: u64,
}

/// Parses folded text into per-frame stats plus the sample and stack
/// counts. Frames come back sorted hottest-first: self samples, then
/// total samples, then name.
fn parse_folded(text: &str) -> Result<(Vec<FrameStat>, u64, usize), String> {
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut samples = 0u64;
    let mut stacks = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("bad folded line (no count): {line:?}"))?;
        let count: u64 = count
            .parse()
            .map_err(|_| format!("bad folded line (count not an integer): {line:?}"))?;
        let frames: Vec<&str> = stack.split(';').collect();
        if stack.is_empty() || frames.iter().any(|f| f.is_empty()) {
            return Err(format!("bad folded line (empty frame): {line:?}"));
        }
        samples += count;
        stacks += 1;
        by_name.entry(frames[frames.len() - 1]).or_default().0 += count;
        let mut seen: Vec<&str> = Vec::new();
        for f in frames {
            if !seen.contains(&f) {
                seen.push(f);
                by_name.entry(f).or_default().1 += count;
            }
        }
    }
    let mut out: Vec<FrameStat> = by_name
        .into_iter()
        .map(|(name, (s, t))| FrameStat {
            name: name.to_string(),
            self_samples: s,
            total_samples: t,
        })
        .collect();
    out.sort_by(|a, b| {
        b.self_samples
            .cmp(&a.self_samples)
            .then(b.total_samples.cmp(&a.total_samples))
            .then(a.name.cmp(&b.name))
    });
    Ok((out, samples, stacks))
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub(crate) fn cmd_obs_flame(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let url = args.take_str_flag("--url")?;
    let markdown = args.take_switch("--md")?;
    let top = args
        .take_parsed("--top", "a positive integer", |&n: &usize| n > 0)?
        .unwrap_or(0);
    let (source, body) = match url {
        Some(u) => {
            args.finish()?;
            let host = crate::obs_top::normalize_host(&u);
            let body =
                crate::obs_top::http_get(&host, "/profile.folded").map_err(CliError::runtime)?;
            (format!("http://{host}/profile.folded"), body)
        }
        None => {
            let path = crate::obs_cmd::take_operand(args, "PROFILE.folded (or --url ADDR)")?;
            args.finish()?;
            let body = std::fs::read_to_string(&path)
                .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
            (path.display().to_string(), body)
        }
    };
    let (frames, samples, stacks) =
        parse_folded(&body).map_err(|e| CliError::runtime(format!("{source}: {e}")))?;
    if frames.is_empty() {
        let _ = writeln!(out, "{source}: profile is empty (no samples)");
        return Ok(());
    }
    let shown = if top > 0 {
        top.min(frames.len())
    } else {
        frames.len()
    };
    if markdown {
        let _ = writeln!(out, "## Hot paths — {source}");
        let _ = writeln!(out);
        let _ = writeln!(out, "{samples} samples over {stacks} distinct stacks.");
        let _ = writeln!(out);
        let _ = writeln!(out, "| frame | self% | self | total% | total |");
        let _ = writeln!(out, "|---|---:|---:|---:|---:|");
        for f in &frames[..shown] {
            let _ = writeln!(
                out,
                "| `{}` | {:.1} | {} | {:.1} | {} |",
                f.name,
                pct(f.self_samples, samples),
                f.self_samples,
                pct(f.total_samples, samples),
                f.total_samples
            );
        }
    } else {
        let _ = writeln!(
            out,
            "hot paths for {source} ({samples} samples, {stacks} stacks)"
        );
        let _ = writeln!(out);
        let w = frames[..shown]
            .iter()
            .map(|f| f.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:<w$}  {:>6}  {:>6}  {:>6}  {:>6}",
            "frame", "self%", "self", "total%", "total"
        );
        for f in &frames[..shown] {
            let _ = writeln!(
                out,
                "{:<w$}  {:>6.1}  {:>6}  {:>6.1}  {:>6}",
                f.name,
                pct(f.self_samples, samples),
                f.self_samples,
                pct(f.total_samples, samples),
                f.total_samples
            );
        }
    }
    if shown < frames.len() {
        let _ = writeln!(out);
        let _ = writeln!(out, "(top {shown} of {} frames)", frames.len());
    }
    Ok(())
}

pub(crate) fn cmd_obs_critical(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let markdown = args.take_switch("--md")?;
    let path = crate::obs_cmd::take_operand(args, "TRACE.json")?;
    args.finish()?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
    let doc = pm_obs::json::parse(&text)
        .map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
    let (spans, labels) = pm_obs::prof::spans_from_trace(&doc)
        .map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
    if spans.is_empty() {
        let _ = writeln!(out, "{}: no completed spans in the trace", path.display());
        return Ok(());
    }
    let threads: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    let mut selfs = pm_obs::prof::self_times(&spans);
    selfs.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    let self_sum: u64 = selfs.iter().map(|s| s.self_ns).sum();
    let chain = pm_obs::prof::critical_path(&spans);
    let who = |tid: u64| -> String {
        match labels.get(&tid) {
            Some(l) => format!("tid {tid} ({l})"),
            None => format!("tid {tid}"),
        }
    };
    if markdown {
        let _ = writeln!(out, "## Span-tree analysis — {}", path.display());
        let _ = writeln!(out);
        let _ = writeln!(out, "{} spans on {} thread(s).", spans.len(), threads.len());
        let _ = writeln!(out);
        let _ = writeln!(out, "| span | count | total_ms | self_ms | self% |");
        let _ = writeln!(out, "|---|---:|---:|---:|---:|");
        for s in &selfs {
            let _ = writeln!(
                out,
                "| `{}` | {} | {:.3} | {:.3} | {:.1} |",
                s.name,
                s.count,
                ms(s.total_ns),
                ms(s.self_ns),
                pct(s.self_ns, self_sum)
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "Critical path (longest chain of child spans):");
        let _ = writeln!(out);
        for (i, step) in chain.iter().enumerate() {
            let mut line = format!(
                "{}. `{}` — {:.3} ms on {}",
                i + 1,
                step.name,
                ms(step.dur_ns),
                who(step.tid)
            );
            if let Some(l) = &step.label {
                let _ = write!(line, " — {l}");
            }
            let _ = writeln!(out, "{line}");
        }
    } else {
        let _ = writeln!(
            out,
            "span-tree analysis for {}: {} spans on {} thread(s)",
            path.display(),
            spans.len(),
            threads.len()
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "self time by span (exclusive = inclusive - direct children):"
        );
        let w = selfs.iter().map(|s| s.name.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "  {:<w$}  {:>5}  {:>10}  {:>10}  {:>6}",
            "name", "count", "total_ms", "self_ms", "self%"
        );
        for s in &selfs {
            let _ = writeln!(
                out,
                "  {:<w$}  {:>5}  {:>10.3}  {:>10.3}  {:>6.1}",
                s.name,
                s.count,
                ms(s.total_ns),
                ms(s.self_ns),
                pct(s.self_ns, self_sum)
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "critical path (longest chain of child spans):");
        for step in &chain {
            let mut line = format!(
                "  {}{}  {:.3} ms  {}",
                "  ".repeat(step.depth),
                step.name,
                ms(step.dur_ns),
                who(step.tid)
            );
            if let Some(l) = &step.label {
                let _ = write!(line, "  label={l}");
            }
            let _ = writeln!(out, "{line}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_parsing_attributes_self_and_total_samples() {
        let (frames, samples, stacks) = parse_folded(
            "a 3\n\
             a;b 10\n\
             a;b;c 25\n",
        )
        .expect("well-formed folded text");
        assert_eq!(samples, 38);
        assert_eq!(stacks, 3);
        let by_name: Vec<(&str, u64, u64)> = frames
            .iter()
            .map(|f| (f.name.as_str(), f.self_samples, f.total_samples))
            .collect();
        // Sorted hottest-self first; `a` is on every stack.
        assert_eq!(by_name, vec![("c", 25, 25), ("b", 10, 35), ("a", 3, 38)]);
    }

    #[test]
    fn recursive_frames_count_once_per_sample() {
        let (frames, samples, _) = parse_folded("a;a;a 7\n").expect("recursion parses");
        assert_eq!(samples, 7);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].self_samples, 7);
        assert_eq!(frames[0].total_samples, 7, "deduplicated per line");
    }

    #[test]
    fn malformed_folded_lines_are_reported() {
        for bad in ["justaframe", "a notanumber", "a; 3", ";a 3", " 3"] {
            let err = parse_folded(bad).expect_err(bad);
            assert!(err.contains("bad folded line"), "{bad}: {err}");
        }
    }
}
