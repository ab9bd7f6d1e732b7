//! `pmctl obs top` — a live terminal view of a running sweep.
//!
//! Polls the `/metrics.json` endpoint a `--serve` run exposes (a failure
//! sweep or a `simulate --timelines` sweep) and renders per-worker busy%,
//! items/sec, running p95, live-peak slot usage and an ETA derived from
//! the items the run plans. On a terminal it redraws an ANSI screen at a
//! rate-limited cadence; piped anywhere else it falls back to one status
//! line per frame (`--ansi` / `--plain` override the detection). It stops after `--frames N`, or when the
//! server goes away with the finished run.
//!
//! The process only exposes counters; rates are the reader's job, as with
//! a Prometheus `rate()`. Each frame keeps the counters of the
//! previous poll and the instant it was read, and divides the differences
//! by the elapsed wall time.
//!
//! Reading is strictly observational — the endpoint serves counters the
//! run records anyway, so watching a sweep can never change it.

use crate::CliError;
use pm_bench::flags::Args;
use pm_bench::timelines::SIM_POOL;
use pm_bench::{PoolNames, SWEEP_POOL};
use pm_obs::baseline::MetricsDoc;
use std::collections::BTreeMap;
use std::io::{IsTerminal, Read, Write};
use std::time::{Duration, Instant};

pub(crate) const TOP_USAGE: &str = "\
pmctl obs top — live sweep viewer

USAGE:
  pmctl obs top --url ADDR[:PORT]    watch a --serve telemetry endpoint

options:
  --interval-ms N   redraw cadence (default 1000, min 100)
  --frames N        stop after N frames (default: until the server goes
                    away)
  --ansi | --plain  force full-screen or line output (default: ANSI on a
                    terminal, line mode when piped)
";

/// Socket timeout for one telemetry fetch.
const FETCH_TIMEOUT: Duration = Duration::from_secs(2);

/// The most [`http_get`] reads of one response, head included.
const RESPONSE_CAP: u64 = 64 << 20;

struct TopOptions {
    poller: Poller,
    interval: Duration,
    frames: u64,
    ansi: Option<bool>,
}

/// A `--serve` endpoint and the counters of its previous poll.
struct Poller {
    host: String,
    prev: Option<(Instant, BTreeMap<String, u64>)>,
}

/// One frame's worth of derived sweep state.
#[derive(Debug, Default, Clone, PartialEq)]
struct FrameStats {
    done: u64,
    total: u64,
    cases_per_sec: f64,
    p95_ms: Option<f64>,
    live_peak: u64,
    /// `(worker key, busy % or NaN when unknown, items)`, sorted by key.
    workers: Vec<(String, f64, u64)>,
}

pub(crate) fn cmd_obs_top(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mut opts = parse_top_options(args)?;
    let ansi = opts.ansi.unwrap_or_else(|| std::io::stdout().is_terminal());
    let started = Instant::now();
    let mut frame: u64 = 0;
    loop {
        let stats = match opts.poller.next_frame() {
            Ok(s) => s,
            Err(e) if frame == 0 => return Err(CliError::runtime(e)),
            Err(_) => {
                // The source answered before and is gone now: the run
                // ended (server dropped with its process). Stop cleanly.
                let _ = writeln!(out, "telemetry source ended after {frame} frame(s)");
                return Ok(());
            }
        };
        let _ = out.write_all(render(&stats, started.elapsed(), ansi).as_bytes());
        let _ = out.flush();
        frame += 1;
        if opts.frames > 0 && frame >= opts.frames {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

impl Poller {
    /// Polls the endpoint once and derives a frame, rates measured against
    /// the previous poll.
    fn next_frame(&mut self) -> Result<FrameStats, String> {
        let host = &self.host;
        let body = http_get(host, "/metrics.json")?;
        let now = Instant::now();
        let doc = pm_obs::baseline::parse_metrics(&body)
            .map_err(|e| format!("bad metrics.json from {host}: {e}"))?;
        let before = self.prev.as_ref().map(|(t, c)| (c, now - *t));
        let stats = stats_from_metrics(&doc, before);
        self.prev = Some((now, doc.counters));
        Ok(stats)
    }
}

fn parse_top_options(args: &mut Args) -> Result<TopOptions, CliError> {
    let url = args.take_str_flag("--url")?;
    // The floor keeps a typo'd cadence from hammering the endpoint.
    let interval_ms = args
        .take_parsed("--interval-ms", "milliseconds >= 100", |&ms: &u64| {
            ms >= 100
        })?
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
    let Some(url) = url else {
        return Err(CliError::usage(format!("--url is required\n\n{TOP_USAGE}")));
    };
    Ok(TopOptions {
        poller: Poller {
            host: normalize_host(&url),
            prev: None,
        },
        interval: Duration::from_millis(interval_ms),
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
    http_get_capped(host, path, RESPONSE_CAP)
}

/// [`http_get`], reading at most `cap` bytes: a longer response is an
/// error naming the host and the cap, never an unbounded allocation.
fn http_get_capped(host: &str, path: &str, cap: u64) -> Result<String, String> {
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
    let mut raw = Vec::new();
    stream
        .take(cap + 1)
        .read_to_end(&mut raw)
        .map_err(|e| format!("cannot read response from {host}: {e}"))?;
    if raw.len() as u64 > cap {
        return Err(format!("response from {host} exceeds the {cap}-byte cap"));
    }
    let raw =
        String::from_utf8(raw).map_err(|e| format!("cannot read response from {host}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {host}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{host}{path}: {status}"));
    }
    Ok(body.to_string())
}

/// What `obs top` reads for one worker pool: the names the pool records
/// under, the counters of items done and of the run's planned total, and
/// the per-item wall-time histogram, if the pool records one.
struct PoolView {
    names: PoolNames,
    done: &'static str,
    planned: &'static str,
    item_ns: Option<&'static str>,
}

/// The failure-case pool of `pmctl sweep` and `pmctl repro`, then the
/// timeline pool of `pmctl simulate --timelines`. Each planned counter
/// sums the shard ranges of every sweep of the run, so it is what the
/// done counter reaches at the end. A replayed timeline is counted by the
/// simulator, not the pool, because a one-job pool records no per-worker
/// counters.
const POOLS: [PoolView; 2] = [
    PoolView {
        names: SWEEP_POOL,
        done: "sweep.cases",
        planned: "sweep.scenario.planned",
        item_ns: Some("sweep.case_ns"),
    },
    PoolView {
        names: SIM_POOL,
        done: "sim.timeline.replays",
        planned: "sim.sweep.planned",
        item_ns: None,
    },
];

/// Derives frame state from a parsed `/metrics.json` poll of the pool
/// whose planned counter `doc` holds (the failure-case pool when neither
/// is there yet). Items done, the planned total, the live peak and the
/// p95 are read off `doc`; items/s, per-worker busy % and items are
/// differences against `prev`, the previous poll's counters and the wall
/// time since it. Without a previous poll the rates are unknown (NaN),
/// and items count from the start.
fn stats_from_metrics(
    doc: &MetricsDoc,
    prev: Option<(&BTreeMap<String, u64>, Duration)>,
) -> FrameStats {
    let pool = POOLS
        .iter()
        .find(|p| doc.counters.contains_key(p.planned))
        .unwrap_or(&POOLS[0]);
    let total_of = |name: &str| doc.counters.get(name).copied().unwrap_or(0);
    let delta_of = |name: &str| {
        let before = prev.and_then(|(c, _)| c.get(name)).copied();
        total_of(name).saturating_sub(before.unwrap_or(0))
    };
    let per_sec = |delta: u64| prev.map_or(f64::NAN, |(_, dt)| delta as f64 / dt.as_secs_f64());
    let worker_prefix = format!("{}.worker.", pool.names.prefix);
    let workers = doc
        .counters
        .keys()
        .filter_map(|name| name.strip_suffix(".busy_ns"))
        .filter(|key| key.starts_with(&worker_prefix))
        .map(|key| {
            // ns busy per s of wall time, as a percentage; NaN stays NaN.
            let busy = per_sec(delta_of(&format!("{key}.busy_ns"))) / 1e7;
            let items = delta_of(&format!("{key}.{}", pool.names.item));
            (key.to_string(), busy.clamp(0.0, 100.0), items)
        })
        .collect();
    FrameStats {
        done: total_of(pool.done),
        total: total_of(pool.planned),
        cases_per_sec: per_sec(delta_of(pool.done)),
        p95_ms: pool
            .item_ns
            .and_then(|name| doc.histograms.get(name))
            .map(|h| h.p95() as f64 / 1e6),
        live_peak: total_of(pool.names.live_peak),
        workers,
    }
}

/// Formats one frame. ANSI mode paints a full screen (cursor home +
/// clear); plain mode emits a single status line.
fn render(stats: &FrameStats, elapsed: Duration, ansi: bool) -> String {
    // A stalled sweep (rate 0), an unknown rate (NaN before a second
    // poll, inf after a zero-length one) or an unknown scenario space
    // all have no ETA: render "--" rather than leaking NaN or inf.
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
    // An unknown busy % (no previous poll) is "-".
    let busy_text = |busy: f64| {
        if busy.is_nan() {
            "-".to_string()
        } else {
            format!("{busy:.1}")
        }
    };
    if !ansi {
        if !stats.workers.is_empty() {
            let busy: Vec<String> = stats.workers.iter().map(|w| busy_text(w.1)).collect();
            line.push_str(&format!("  busy% {}", busy.join(",")));
        }
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
            let busy = busy_text(*busy);
            out.push_str(&format!("{name:<16}  {busy:>5}  {items:>6}\n"));
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

    /// A `/metrics.json` document with the sweep counters a frame reads,
    /// shaped as `repro fig7 --skip-optimal` leaves them: three sweeps of
    /// 6, 15 and 20 cases, so 41 planned while the largest selection is
    /// 20.
    fn metrics_doc(cases: u64, busy_ns: [u64; 2], worker_cases: [u64; 2]) -> MetricsDoc {
        pm_obs::baseline::parse_metrics(&format!(
            r#"{{"schema_version": 1,
              "counters": {{"sweep.cases": {cases}, "sweep.scenario.live_peak": 12,
                "sweep.scenario.planned": 41, "sweep.scenario.selected": 20,
                "sweep.worker.0.busy_ns": {}, "sweep.worker.0.cases": {},
                "sweep.worker.1.busy_ns": {}, "sweep.worker.1.cases": {}}},
              "histograms": {{"sweep.case_ns": {{"count": 1, "sum": 3000000,
                "min": 3000000, "max": 3000000,
                "buckets": [{{"le": 4194303, "count": 1}}]}}}},
              "spans": {{}}}}"#,
            busy_ns[0], worker_cases[0], busy_ns[1], worker_cases[1]
        ))
        .expect("metrics document parses")
    }

    #[test]
    fn metrics_polls_diff_into_rates_busy_and_items() {
        let first = metrics_doc(10, [100_000_000, 0], [6, 4]);
        let stats = stats_from_metrics(&first, None);
        assert_eq!((stats.done, stats.total, stats.live_peak), (10, 41, 12));
        assert!(stats.cases_per_sec.is_nan(), "no rate before a second poll");
        let items: Vec<(&str, u64)> = stats.workers.iter().map(|w| (w.0.as_str(), w.2)).collect();
        assert_eq!(items, [("sweep.worker.0", 6), ("sweep.worker.1", 4)]);
        assert!(
            stats.workers.iter().all(|w| w.1.is_nan()),
            "busy is unknown"
        );
        let ansi = render(&stats, Duration::from_secs(1), true);
        assert!(ansi.contains("sweep.worker.0        -       6"), "{ansi}");
        let plain = render(&stats, Duration::from_secs(1), false);
        assert!(
            plain.contains("rate 0.0/s") && plain.contains("busy% -,-"),
            "{plain}"
        );

        // Half a second later: 20 more cases, worker 0 busy 250 ms of it
        // (50 %), worker 1 busy the whole time.
        let second = metrics_doc(30, [350_000_000, 500_000_000], [18, 12]);
        let stats =
            stats_from_metrics(&second, Some((&first.counters, Duration::from_millis(500))));
        assert_eq!(stats.done, 30);
        assert!(
            (stats.cases_per_sec - 40.0).abs() < 1e-9,
            "{}",
            stats.cases_per_sec
        );
        let busy: Vec<(f64, u64)> = stats.workers.iter().map(|w| (w.1, w.2)).collect();
        assert_eq!(busy, [(50.0, 12), (100.0, 8)]);
        assert_eq!(stats.p95_ms.map(|ms| ms.round()), Some(4.0));
        let plain = render(&stats, Duration::from_secs(2), false);
        assert!(
            plain.contains("rate 40.0/s") && plain.contains("busy% 50.0,100.0"),
            "{plain}"
        );
    }

    #[test]
    fn the_total_is_every_case_the_run_plans() {
        // Past the largest single selection (20) but not done: the
        // third sweep still runs.
        let stats = stats_from_metrics(&metrics_doc(21, [0, 0], [11, 10]), None);
        assert_eq!((stats.done, stats.total), (21, 41));
        let plain = render(&stats, Duration::from_secs(1), false);
        assert!(plain.contains("cases 21/41"), "{plain}");
        assert!(!plain.contains("done"), "{plain}");
        let stats = stats_from_metrics(&metrics_doc(41, [0, 0], [21, 20]), None);
        let plain = render(&stats, Duration::from_secs(2), false);
        assert!(
            plain.contains("cases 41/41") && plain.contains("eta done"),
            "{plain}"
        );
    }

    #[test]
    fn a_timeline_sweep_renders_its_own_pool() {
        // `simulate --timelines 60 --jobs 2`, 20 timelines in: the
        // timeline pool's counters, and none of the failure-case pool's.
        let doc = |replays: u64, busy_ns: [u64; 2], items: [u64; 2]| {
            pm_obs::baseline::parse_metrics(&format!(
                r#"{{"schema_version": 1,
                  "counters": {{"sim.timeline.replays": {replays},
                    "sim.sweep.planned": 60, "sim.sweep.selected": 60,
                    "sim.sweep.live_peak": 64,
                    "sim.sweep.worker.0.busy_ns": {}, "sim.sweep.worker.0.items": {},
                    "sim.sweep.worker.1.busy_ns": {}, "sim.sweep.worker.1.items": {}}}}}"#,
                busy_ns[0], items[0], busy_ns[1], items[1]
            ))
            .expect("metrics document parses")
        };
        let first = doc(20, [100_000_000, 100_000_000], [11, 9]);
        let second = doc(30, [350_000_000, 600_000_000], [16, 14]);
        let stats =
            stats_from_metrics(&second, Some((&first.counters, Duration::from_millis(500))));
        assert_eq!((stats.done, stats.total, stats.live_peak), (30, 60, 64));
        let busy: Vec<(&str, f64, u64)> = stats
            .workers
            .iter()
            .map(|w| (w.0.as_str(), w.1, w.2))
            .collect();
        assert_eq!(
            busy,
            [
                ("sim.sweep.worker.0", 50.0, 5),
                ("sim.sweep.worker.1", 100.0, 5)
            ]
        );
        let plain = render(&stats, Duration::from_secs(2), false);
        assert!(
            plain.contains("cases 30/60")
                && plain.contains("rate 20.0/s")
                && plain.contains("busy% 50.0,100.0"),
            "{plain}"
        );
    }

    #[test]
    fn oversized_responses_stop_at_the_cap() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
        let host = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("one client");
            let mut request = [0u8; 1024];
            let _ = conn.read(&mut request);
            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\n\r\n");
            // Far more than the cap; the client hangs up once it has read
            // past it, so a failed write is expected.
            let chunk = [b'x'; 4096];
            for _ in 0..64 {
                if conn.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let e = http_get_capped(&host, "/metrics.json", 16 << 10).expect_err("over the cap");
        assert!(e.contains(&host) && e.contains("16384-byte cap"), "{e}");
        server.join().unwrap();
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
        };
        let plain = render(&stats, Duration::from_secs(2), false);
        assert_eq!(plain.lines().count(), 1);
        assert!(plain.contains("cases 10/41"), "{plain}");
        assert!(plain.contains("rate 20.0/s"), "{plain}");
        assert!(plain.contains("p95<= 1.5ms"), "{plain}");
        assert!(plain.contains("eta 2s"), "{plain}");
        assert!(plain.trim_end().ends_with("busy% 97.2"), "{plain}");
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
