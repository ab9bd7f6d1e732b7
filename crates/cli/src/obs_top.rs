//! `pmctl obs top` — a live terminal view of a running sweep.
//!
//! Consumes either the `/timeseries.json` endpoint a `--serve` run
//! exposes (plus `/metrics.json` for the running p95) or the `--events`
//! JSONL stream a sweep writes, and renders per-worker busy%, cases/sec,
//! running p95, live-peak scenario-slot usage and an ETA derived from the
//! scenario-space size. On a terminal it redraws an ANSI screen at a
//! rate-limited cadence; piped anywhere else it falls back to one status
//! line per frame (`--ansi` / `--plain` override the detection).
//!
//! Reading is strictly observational — both sources are produced without
//! the viewer's involvement, so watching a sweep can never change it.

use crate::CliError;
use pm_bench::flags::Args;
use pm_obs::json::Value;
use std::io::{IsTerminal, Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub(crate) const TOP_USAGE: &str = "\
pmctl obs top — live sweep viewer

USAGE:
  pmctl obs top --url ADDR[:PORT]    watch a --serve telemetry endpoint
  pmctl obs top --events FILE        watch a --events JSONL stream

options:
  --interval-ms N   redraw cadence (default 1000, min 100)
  --frames N        stop after N frames (default: until the source ends)
  --ansi | --plain  force full-screen or line output (default: ANSI on a
                    terminal, line mode when piped)
";

/// Socket timeout for one telemetry fetch.
const FETCH_TIMEOUT: Duration = Duration::from_secs(2);

struct TopOptions {
    source: Source,
    interval: Duration,
    frames: u64,
    ansi: Option<bool>,
}

enum Source {
    Url(String),
    Events(PathBuf),
}

/// One frame's worth of derived sweep state, whichever source fed it.
#[derive(Debug, Default, Clone, PartialEq)]
struct FrameStats {
    done: u64,
    total: u64,
    cases_per_sec: f64,
    p95_ms: Option<f64>,
    live_peak: u64,
    /// `(worker key, busy %, items this interval)`, sorted by key.
    workers: Vec<(String, f64, u64)>,
    finished: bool,
}

pub(crate) fn cmd_obs_top(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let opts = parse_top_options(args)?;
    let ansi = opts.ansi.unwrap_or_else(|| std::io::stdout().is_terminal());
    let started = Instant::now();
    let mut frame: u64 = 0;
    let mut prev: Option<(Instant, u64)> = None;
    loop {
        let fetched = match &opts.source {
            Source::Url(host) => fetch_url_stats(host),
            Source::Events(path) => std::fs::read_to_string(path)
                .map(|text| stats_from_events(&text))
                .map_err(|e| format!("cannot read {}: {e}", path.display())),
        };
        let mut stats = match fetched {
            Ok(s) => s,
            Err(e) if frame == 0 => return Err(CliError::runtime(e)),
            Err(_) => {
                // The source answered before and is gone now: the run
                // ended (server dropped with its process). Stop cleanly.
                let _ = writeln!(out, "telemetry source ended after {frame} frame(s)");
                return Ok(());
            }
        };
        // The events stream only gives an average rate; sharpen both
        // sources with a frame-to-frame delta once we have two frames.
        if let Some((t0, done0)) = prev {
            let dt = t0.elapsed().as_secs_f64();
            if dt > 0.0 && stats.done >= done0 {
                stats.cases_per_sec = (stats.done - done0) as f64 / dt;
            }
        }
        prev = Some((Instant::now(), stats.done));
        let _ = out.write_all(render(&stats, started.elapsed(), ansi).as_bytes());
        let _ = out.flush();
        frame += 1;
        if (opts.frames > 0 && frame >= opts.frames) || stats.finished {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

fn parse_top_options(args: &mut Args) -> Result<TopOptions, CliError> {
    let url = args.take_str_flag("--url")?;
    let events = args.take_path("--events")?;
    let interval_ms = args
        .take_parsed("--interval-ms", "milliseconds > 0", |&ms: &u64| ms > 0)?
        .unwrap_or(1000);
    let frames = args
        .take_parsed("--frames", "a frame count", |_: &u64| true)?
        .unwrap_or(0);
    let force_ansi = args.take_switch("--ansi")?;
    let force_plain = args.take_switch("--plain")?;
    args.finish()?;
    if force_ansi && force_plain {
        return Err(CliError::usage("--ansi and --plain are mutually exclusive"));
    }
    let source = match (url, events) {
        (Some(u), None) => Source::Url(normalize_host(&u)),
        (None, Some(p)) => Source::Events(p),
        _ => {
            return Err(CliError::usage(format!(
                "exactly one of --url or --events is required\n\n{TOP_USAGE}"
            )))
        }
    };
    Ok(TopOptions {
        source,
        // The floor keeps a typo'd cadence from hammering the endpoint.
        interval: Duration::from_millis(interval_ms.max(100)),
        frames,
        ansi: match (force_ansi, force_plain) {
            (true, _) => Some(true),
            (_, true) => Some(false),
            _ => None,
        },
    })
}

/// Accepts `host:port`, `http://host:port`, and either with a trailing
/// path, reducing all of them to `host:port`. Shared with
/// `obs flame --url`.
pub(crate) fn normalize_host(url: &str) -> String {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    rest.split('/').next().unwrap_or(rest).to_string()
}

/// A minimal blocking HTTP GET against `host:port`; returns the body.
/// Shared with `obs flame --url`.
pub(crate) fn http_get(host: &str, path: &str) -> Result<String, String> {
    let mut addrs = std::net::ToSocketAddrs::to_socket_addrs(host)
        .map_err(|e| format!("cannot resolve {host}: {e}"))?;
    let addr = addrs
        .next()
        .ok_or_else(|| format!("no address for {host}"))?;
    let mut stream = std::net::TcpStream::connect_timeout(&addr, FETCH_TIMEOUT)
        .map_err(|e| format!("cannot connect to {host}: {e}"))?;
    let _ = stream.set_read_timeout(Some(FETCH_TIMEOUT));
    let _ = stream.set_write_timeout(Some(FETCH_TIMEOUT));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("cannot send request to {host}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response from {host}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {host}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{host}{path}: {status}"));
    }
    Ok(body.to_string())
}

fn fetch_url_stats(host: &str) -> Result<FrameStats, String> {
    let ts_body = http_get(host, "/timeseries.json")?;
    let doc = pm_obs::json::parse(&ts_body).map_err(|e| format!("bad timeseries.json: {e}"))?;
    // The p95 rides on the metrics document; a failure here degrades the
    // display (no p95) rather than killing the viewer.
    let p95_ms = http_get(host, "/metrics.json")
        .ok()
        .and_then(|body| pm_obs::baseline::parse_metrics(&body).ok())
        .and_then(|m| {
            m.histograms
                .get("sweep.case_ns")
                .map(|h| h.p95() as f64 / 1e6)
        });
    let mut stats = stats_from_timeseries(&doc);
    stats.p95_ms = p95_ms;
    Ok(stats)
}

/// Derives frame state from a parsed `/timeseries.json` document.
fn stats_from_timeseries(doc: &Value) -> FrameStats {
    let mut stats = FrameStats::default();
    let total_of = |name: &str| -> u64 {
        doc.get("totals")
            .and_then(|t| t.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    stats.done = total_of("sweep.cases");
    stats.total = total_of("sweep.scenario.selected");
    stats.live_peak = total_of("sweep.scenario.live_peak");
    let intervals = doc
        .get("intervals")
        .and_then(Value::items)
        .unwrap_or_default();
    // The most recent interval with movement carries the current rates
    // (the final drop-interval of a finished run is usually quiet).
    if let Some(iv) = intervals.iter().rev().find(|iv| {
        iv.get("counters")
            .and_then(Value::members)
            .is_some_and(|m| !m.is_empty())
    }) {
        if let Some(Value::Num(rate)) = iv
            .get("counters")
            .and_then(|c| c.get("sweep.cases"))
            .and_then(|c| c.get("rate_per_sec"))
        {
            stats.cases_per_sec = *rate;
        }
        if let Some(workers) = iv.get("workers").and_then(Value::members) {
            for (name, w) in workers {
                let busy = match w.get("busy_pct") {
                    Some(Value::Num(p)) => *p,
                    _ => 0.0,
                };
                let items = w.get("items").and_then(Value::as_u64).unwrap_or(0);
                stats.workers.push((name.clone(), busy, items));
            }
        }
    }
    stats.finished = stats.total > 0 && stats.done >= stats.total;
    stats
}

/// Derives frame state by replaying a `--events` JSONL stream. Tolerates
/// a truncated final line (the stream may be mid-write); `cases_per_sec`
/// is the stream-lifetime average until the caller sharpens it with a
/// frame-to-frame delta.
fn stats_from_events(text: &str) -> FrameStats {
    let mut stats = FrameStats::default();
    let mut last_t_ms = 0u64;
    let mut worker_cases: std::collections::BTreeMap<u64, u64> = Default::default();
    for line in text.lines() {
        let Ok(v) = pm_obs::json::parse(line) else {
            continue; // torn tail of an in-flight write
        };
        let event = match v.get("event") {
            Some(Value::Str(s)) => s.clone(),
            _ => continue,
        };
        match event.as_str() {
            "sweep_start" => {
                stats.total = v.get("cases").and_then(Value::as_u64).unwrap_or(0);
                stats.done = 0;
                worker_cases.clear();
            }
            "case_finish" => {
                stats.done = v.get("done").and_then(Value::as_u64).unwrap_or(stats.done);
                if let Some(Value::Num(p95)) = v.get("p95_ms") {
                    stats.p95_ms = Some(*p95);
                }
                if let Some(w) = v.get("worker").and_then(Value::as_u64) {
                    *worker_cases.entry(w).or_insert(0) += 1;
                }
                if let Some(t) = v.get("t_ms").and_then(Value::as_u64) {
                    last_t_ms = t;
                }
            }
            "sweep_finish" => stats.finished = true,
            _ => {}
        }
    }
    if last_t_ms > 0 {
        stats.cases_per_sec = stats.done as f64 / (last_t_ms as f64 / 1000.0);
    }
    stats.workers = worker_cases
        .into_iter()
        .map(|(w, cases)| (format!("worker.{w}"), f64::NAN, cases))
        .collect();
    stats
}

/// Formats one frame. ANSI mode paints a full screen (cursor home +
/// clear); plain mode emits a single status line.
fn render(stats: &FrameStats, elapsed: Duration, ansi: bool) -> String {
    // A stalled interval (rate 0), a rate poisoned by a zero-length
    // interval (NaN/inf) or an unknown scenario space all have no ETA:
    // render "--" rather than leaking NaN or inf into the frame.
    let rate = if stats.cases_per_sec.is_finite() {
        stats.cases_per_sec
    } else {
        0.0
    };
    let eta = match stats.total.checked_sub(stats.done) {
        Some(0) if stats.total > 0 => "done".to_string(),
        Some(left) if left > 0 && rate > 0.0 => format!("{:.0}s", left as f64 / rate),
        _ => "--".to_string(),
    };
    let p95 = match stats.p95_ms {
        Some(ms) => format!("{ms:.1}ms"),
        None => "-".to_string(),
    };
    let total = if stats.total > 0 {
        stats.total.to_string()
    } else {
        "?".to_string()
    };
    let mut line = format!(
        "cases {}/{total}  rate {rate:.1}/s  p95<= {p95}  live-peak {}  eta {eta}  t {:.0}s",
        stats.done,
        stats.live_peak,
        elapsed.as_secs_f64()
    );
    if !ansi {
        line.push('\n');
        return line;
    }
    let mut out = String::from("\x1b[H\x1b[2J");
    out.push_str("pmctl obs top — live sweep\n\n");
    out.push_str(&line);
    out.push_str("\n\n");
    if stats.workers.is_empty() {
        out.push_str("(no per-worker data yet)\n");
    } else {
        out.push_str("worker            busy%   items\n");
        for (name, busy, items) in &stats.workers {
            let busy = if busy.is_nan() {
                "    -".to_string()
            } else {
                format!("{busy:>5.1}")
            };
            out.push_str(&format!("{name:<16}  {busy}  {items:>6}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_normalization_strips_scheme_and_path() {
        assert_eq!(normalize_host("127.0.0.1:9464"), "127.0.0.1:9464");
        assert_eq!(normalize_host("http://127.0.0.1:9464"), "127.0.0.1:9464");
        assert_eq!(
            normalize_host("http://127.0.0.1:9464/metrics"),
            "127.0.0.1:9464"
        );
    }

    #[test]
    fn timeseries_stats_extract_rates_workers_and_completion() {
        let doc = pm_obs::json::parse(
            r#"{
              "schema_version": 1, "interval_ms": 250, "start_unix_ms": 0,
              "totals": {"sweep.cases": 30, "sweep.scenario.selected": 41,
                         "sweep.scenario.live_peak": 12},
              "intervals": [
                {"index": 0, "end_ms": 250, "dur_ms": 250, "unix_ms": 0,
                 "counters": {"sweep.cases": {"total": 30, "delta": 10, "rate_per_sec": 40.0}},
                 "histograms": {},
                 "workers": {"sweep.worker.0": {"busy_pct": 93.5, "items": 10}}},
                {"index": 1, "end_ms": 500, "dur_ms": 250, "unix_ms": 0,
                 "counters": {}, "histograms": {}, "workers": {}}
              ]
            }"#,
        )
        .unwrap();
        let stats = stats_from_timeseries(&doc);
        assert_eq!(stats.done, 30);
        assert_eq!(stats.total, 41);
        assert_eq!(stats.live_peak, 12);
        assert!((stats.cases_per_sec - 40.0).abs() < 1e-9);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].0, "sweep.worker.0");
        assert_eq!(stats.workers[0].2, 10);
        assert!(!stats.finished, "30 of 41 still running");
    }

    #[test]
    fn events_stats_replay_and_tolerate_truncation() {
        let text = "\
{\"event\": \"sweep_start\", \"t_ms\": 0, \"cases\": 3, \"jobs\": 2}\n\
{\"event\": \"case_start\", \"t_ms\": 1, \"seq\": 0, \"case\": \"(2)\", \"worker\": 0}\n\
{\"event\": \"case_finish\", \"t_ms\": 500, \"seq\": 0, \"case\": \"(2)\", \"worker\": 0, \
\"elapsed_ms\": 499.0, \"done\": 1, \"total\": 3, \"p95_ms\": 499.0}\n\
{\"event\": \"case_finish\", \"t_ms\": 1000, \"seq\": 1, \"case\": \"(5)\", \"worker\": 1, \
\"elapsed_ms\": 400.0, \"done\": 2, \"total\": 3, \"p95_ms\": 499.0}\n\
{\"event\": \"case_finish\", \"t_ms\": 1200, \"se";
        let stats = stats_from_events(text);
        assert_eq!(stats.done, 2, "truncated tail is skipped");
        assert_eq!(stats.total, 3);
        assert_eq!(stats.p95_ms, Some(499.0));
        assert!(!stats.finished);
        // Average rate: 2 cases over the 1.0 s the stream covers.
        assert!((stats.cases_per_sec - 2.0).abs() < 1e-9);
        assert_eq!(stats.workers.len(), 2);

        let finished = format!(
            "{text}\"}}\n{}",
            "{\"event\": \"sweep_finish\", \"t_ms\": 1300, \"cases\": 3, \"elapsed_ms\": 1300}"
        );
        let stats = stats_from_events(&finished);
        assert!(stats.finished);
    }

    #[test]
    fn url_mode_fetches_a_frame_from_a_live_server() {
        let server = pm_obs::MetricsServer::serve("127.0.0.1:0").expect("ephemeral bind");
        let host = server.local_addr().to_string();
        let mut out = Vec::new();
        let mut args = Args::new(
            ["--url", &host, "--frames", "1", "--plain"]
                .iter()
                .map(std::ffi::OsString::from)
                .collect(),
        );
        cmd_obs_top(&mut args, &mut out).expect("one frame against a live endpoint");
        let text = String::from_utf8(out).expect("utf8");
        // No sweep is running, so the frame is sparse but well-formed.
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("cases "), "{text}");
    }

    #[test]
    fn render_modes() {
        let stats = FrameStats {
            done: 10,
            total: 41,
            cases_per_sec: 20.0,
            p95_ms: Some(1.5),
            live_peak: 8,
            workers: vec![("sweep.worker.0".into(), 97.25, 10)],
            finished: false,
        };
        let plain = render(&stats, Duration::from_secs(2), false);
        assert_eq!(plain.lines().count(), 1);
        assert!(plain.contains("cases 10/41"), "{plain}");
        assert!(plain.contains("rate 20.0/s"), "{plain}");
        assert!(plain.contains("p95<= 1.5ms"), "{plain}");
        assert!(plain.contains("eta 2s"), "{plain}");
        let ansi = render(&stats, Duration::from_secs(2), true);
        assert!(ansi.starts_with("\x1b[H\x1b[2J"), "clears the screen");
        assert!(ansi.contains("sweep.worker.0"), "{ansi}");
        assert!(ansi.contains("97.2"), "{ansi}");
        // Unknown totals render as '?', unknown p95 as '-'.
        let sparse = FrameStats::default();
        let plain = render(&sparse, Duration::from_secs(0), false);
        assert!(plain.contains("cases 0/?"), "{plain}");
        assert!(plain.contains("p95<= -"), "{plain}");
    }

    #[test]
    fn idle_intervals_render_a_dashed_eta_not_nan() {
        // A live sweep whose most recent interval was all-idle: work
        // remains but the measured rate is zero, so there is no ETA.
        let idle = FrameStats {
            done: 10,
            total: 41,
            cases_per_sec: 0.0,
            ..FrameStats::default()
        };
        let line = render(&idle, Duration::from_secs(2), false);
        assert!(line.contains("eta --"), "{line}");
        // Rates poisoned by a zero-length interval must not leak NaN or
        // inf into either the rate or the ETA field.
        for bad in [f64::NAN, f64::INFINITY] {
            let poisoned = FrameStats {
                cases_per_sec: bad,
                ..idle.clone()
            };
            let line = render(&poisoned, Duration::from_secs(2), false);
            assert!(line.contains("rate 0.0/s"), "{line}");
            assert!(line.contains("eta --"), "{line}");
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
        // An unknown scenario space has no ETA either (never "done").
        let sparse = FrameStats::default();
        let line = render(&sparse, Duration::from_secs(0), false);
        assert!(line.contains("eta --"), "{line}");
    }
}
