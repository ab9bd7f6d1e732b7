//! The live telemetry plane's core guarantee: recording and serving are
//! observational only — recorded sweep outputs are byte-identical with
//! the plane fully on versus fully disabled.
//!
//! Enabling the [`pm_obs`] recorder is process-global and one-way, so the
//! whole disabled-then-enabled comparison lives in one test function and
//! the disabled half runs first. The HTTP endpoints are exercised in the
//! enabled phase, against the same process whose sweeps feed the
//! recorder.

use pm_bench::figures::bench_sweep_json;
use pm_bench::{CaseResult, EvalOptions, SweepEngine};
use pm_obs::json::Value;
use pm_sdwan::{SdWan, SdWanBuilder};
use pm_topo::{builders, NodeId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn small_net() -> SdWan {
    SdWanBuilder::new(builders::grid(3, 4))
        .controller(NodeId(0), 200)
        .controller(NodeId(3), 200)
        .controller(NodeId(8), 200)
        .controller(NodeId(11), 200)
        .all_pairs_flows()
        .build()
        .expect("grid network builds")
}

fn options(jobs: usize) -> EvalOptions {
    EvalOptions {
        jobs,
        skip_optimal: true,
        ..EvalOptions::default()
    }
}

/// The `BENCH_sweep.json` body for k = 1..=3 at `jobs`, with the
/// wall-clock lines and the worker count blanked — everything else is a
/// recorded result and must not move when the plane is on.
fn sweep_rows(net: &SdWan, jobs: usize) -> String {
    let opts = options(jobs);
    let engine = SweepEngine::new(net, opts);
    let sweeps: Vec<(usize, Vec<CaseResult>)> = (1..=3).map(|k| (k, engine.sweep(k))).collect();
    let refs: Vec<(usize, &[CaseResult])> =
        sweeps.iter().map(|(k, c)| (*k, c.as_slice())).collect();
    let json = bench_sweep_json("telemetry_plane", jobs, &refs);
    json.lines()
        .filter(|l| !l.contains("\"mean_ms\"") && !l.trim_start().starts_with("\"jobs\":"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Minimal HTTP GET; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

/// A light but real check of the Prometheus 0.0.4 exposition grammar:
/// every line is a comment or `name[{labels}] value`.
fn assert_prometheus_exposition(text: &str) {
    assert!(!text.is_empty(), "exposition must not be empty");
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_and_labels, tail) = match line.rfind('}') {
            Some(end) => (&line[..=end], line[end + 1..].trim_start()),
            None => line.split_once(' ').expect("sample has a value"),
        };
        let name = name_and_labels
            .split('{')
            .next()
            .expect("split never empty");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        let mut tokens = tail.split_whitespace();
        let value = tokens.next().expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "bad sample value in {line:?}"
        );
        assert!(tokens.next().is_none(), "trailing tokens in {line:?}");
    }
}

/// The `sweep.cases` total a live `/metrics.json` poll reports.
fn polled_cases(addr: SocketAddr) -> u64 {
    let (status, body) = http_get(addr, "/metrics.json");
    assert!(status.contains(" 200 "), "{status}");
    let doc = pm_obs::json::parse(&body).expect("metrics.json parses");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_u64),
        Some(1),
        "schema stays v1"
    );
    doc.get("counters")
        .and_then(|c| c.get("sweep.cases"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no sweep.cases counter in:\n{body}"))
}

#[test]
fn live_plane_is_observational_only_and_the_endpoints_serve_it() {
    let net = small_net();

    // Phase 1: fully disabled — nothing in this binary has enabled the
    // recorder yet, let alone started a server.
    assert!(!pm_obs::enabled(), "recorder must start disabled");
    let off_serial = sweep_rows(&net, 1);
    let off_parallel = sweep_rows(&net, 8);
    assert_eq!(off_serial, off_parallel);

    // Phase 2: the full plane, as `--serve` runs it — the recorder on and
    // a live HTTP server. A reader computes rates from two polls, so
    // poll once after each sweep burst.
    pm_obs::enable();
    let server = pm_obs::MetricsServer::serve("127.0.0.1:0").expect("ephemeral bind");
    let addr = server.local_addr();
    let on_serial = sweep_rows(&net, 1);
    let after_serial = polled_cases(addr);
    let on_parallel = sweep_rows(&net, 8);
    let after_parallel = polled_cases(addr);

    assert_eq!(off_serial, on_serial, "jobs=1: the plane changed results");
    assert_eq!(
        off_parallel, on_parallel,
        "jobs=8: the plane changed results"
    );
    assert!(after_serial > 0, "the first burst is counted");
    assert!(
        after_parallel > after_serial,
        "sweep.cases must advance between polls: {after_serial} -> {after_parallel}"
    );

    // The other endpoints answer while the plane is live.
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains(" 200 "), "{status}");
    assert_eq!(body, "ok\n");

    let (status, prom) = http_get(addr, "/metrics");
    assert!(status.contains(" 200 "), "{status}");
    assert_prometheus_exposition(&prom);
    assert!(
        prom.contains(&format!("pm_sweep_cases_total {after_parallel}")),
        "sweep counters exported:\n{prom}"
    );

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains(" 404 "), "{status}");

    drop(server);
}
