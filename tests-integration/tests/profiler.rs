//! The folded profile's core guarantees: recording is observational
//! only (recorded sweep outputs are byte-identical recorder-on versus
//! disabled, serial and parallel), the folded profile obeys the
//! Brendan-Gregg grammar, weighs each stack by exact self time (a held
//! root span's line carries its recorded duration, and the lines ending
//! in a name sum to that name's self time), and the offline self-time
//! analysis reconciles exactly with the span totals the metrics JSON
//! reports.
//!
//! Enabling the [`pm_obs`] recorder is process-global and one-way (it is
//! what `--telemetry` turns on), so the disabled-then-enabled comparison
//! lives in one test function and the disabled half runs first. The
//! `/profile.folded` endpoint plus the HEAD / 405 method grammar are
//! exercised against the same live process.

use pm_bench::figures::bench_sweep_json;
use pm_bench::{CaseResult, EvalOptions, SweepEngine};
use pm_sdwan::{SdWan, SdWanBuilder};
use pm_topo::{builders, NodeId};
use std::collections::BTreeMap;
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
/// recorded result and must not move when the recorder is on.
fn sweep_rows(net: &SdWan, jobs: usize) -> String {
    let opts = options(jobs);
    let engine = SweepEngine::new(net, opts);
    let sweeps: Vec<(usize, Vec<CaseResult>)> = (1..=3).map(|k| (k, engine.sweep(k))).collect();
    let refs: Vec<(usize, &[CaseResult])> =
        sweeps.iter().map(|(k, c)| (*k, c.as_slice())).collect();
    let json = bench_sweep_json("profiler", jobs, &refs);
    json.lines()
        .filter(|l| !l.contains("\"mean_ms\"") && !l.trim_start().starts_with("\"jobs\":"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Minimal HTTP GET; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let (head, body) = raw_request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    );
    (head.lines().next().unwrap_or("").to_string(), body)
}

/// Sends a raw request verbatim; returns (full header block, body).
fn raw_request(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Brendan-Gregg folded grammar: every line is `frame(;frame)* WEIGHT`
/// with non-empty frames and a positive integer weight (self time, ns).
fn assert_folded_grammar(text: &str) {
    for line in text.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line has no weight: {line:?}"));
        assert!(
            !stack.is_empty() && stack.split(';').all(|f| !f.is_empty()),
            "empty frame in folded line: {line:?}"
        );
        let n: u64 = count
            .parse()
            .unwrap_or_else(|_| panic!("folded weight not an integer: {line:?}"));
        assert!(n > 0, "zero-weight folded line: {line:?}");
    }
}

#[test]
fn profiler_is_observational_and_profiles_reconcile_with_metrics() {
    let net = small_net();

    // Phase 1: fully disabled — nothing in this binary has enabled the
    // recorder yet, so there is no profile either.
    assert!(!pm_obs::enabled(), "recorder must start disabled");
    assert_eq!(pm_obs::prof::folded_text(), "", "no profile before a run");
    let off_serial = sweep_rows(&net, 1);
    let off_parallel = sweep_rows(&net, 8);
    assert_eq!(off_serial, off_parallel);

    // Phase 2: the recorder (all `--telemetry` turns on) plus the live
    // HTTP server.
    pm_obs::enable();
    let server = pm_obs::MetricsServer::serve("127.0.0.1:0").expect("ephemeral bind");
    let addr = server.local_addr();

    let on_serial = sweep_rows(&net, 1);
    let on_parallel = sweep_rows(&net, 8);
    assert_eq!(
        off_serial, on_serial,
        "jobs=1: the recorder changed results"
    );
    assert_eq!(
        off_parallel, on_parallel,
        "jobs=8: the recorder changed results"
    );

    // A root span held here, with nothing nested in it: its stack's
    // weight is exactly its recorded duration.
    {
        let _held = pm_obs::span("itest.profiled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let spans = pm_obs::prof::recorded_spans();
    let held = spans
        .iter()
        .find(|s| s.name == "itest.profiled")
        .expect("held span recorded");
    let folded = pm_obs::prof::folded_text();
    assert_folded_grammar(&folded);
    assert!(
        folded
            .lines()
            .any(|l| l == format!("itest.profiled {}", held.dur_ns)),
        "held root span weighs its duration:\n{folded}"
    );

    // Every span has closed, so the live endpoint serves exactly the
    // profile just rendered.
    let (status, body) = http_get(addr, "/profile.folded");
    assert!(status.contains(" 200 "), "{status}");
    assert_eq!(body, folded);

    // The lines ending in a name sum to that name's exclusive time.
    let mut ending: BTreeMap<&str, u64> = BTreeMap::new();
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("grammar checked above");
        let leaf = stack.rsplit(';').next().expect("non-empty stack");
        *ending.entry(leaf).or_default() += weight.parse::<u64>().expect("integer weight");
    }
    let selfs = pm_obs::prof::self_times(&spans);
    let nonzero: BTreeMap<&str, u64> = selfs
        .iter()
        .filter(|st| st.self_ns > 0)
        .map(|st| (st.name.as_str(), st.self_ns))
        .collect();
    assert_eq!(ending, nonzero, "folded weights reconcile with self_times");

    // Method grammar on the same endpoint: HEAD answers like GET with
    // the body suppressed, anything else is 405 with an Allow header.
    let (head, body) = raw_request(
        addr,
        "HEAD /profile.folded HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert!(head.contains(" 200 "), "{head}");
    assert!(body.is_empty(), "HEAD must suppress the body: {body:?}");
    assert!(
        head.contains(&format!("Content-Length: {}", folded.len())),
        "HEAD carries GET's length:\n{head}"
    );
    let (head, _) = raw_request(
        addr,
        "POST /profile.folded HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert!(head.contains(" 405 "), "{head}");
    assert!(head.contains("Allow: GET"), "{head}");
    drop(server);

    // Offline self-time analysis reconciles exactly with the span
    // aggregates the metrics JSON reports: same names, same counts, same
    // inclusive totals; exclusive time never exceeds inclusive.
    let doc =
        pm_obs::baseline::parse_metrics(&pm_obs::metrics_json()).expect("metrics.json parses");
    assert_eq!(
        selfs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        doc.spans.keys().map(String::as_str).collect::<Vec<_>>(),
        "same span names, same order"
    );
    let mut some_exclusive_is_smaller = false;
    for st in &selfs {
        let agg = &doc.spans[&st.name];
        assert_eq!(st.count, agg.count, "{}: count reconciles", st.name);
        assert_eq!(st.total_ns, agg.total_ns, "{}: total reconciles", st.name);
        assert!(st.self_ns <= st.total_ns, "{}: self <= total", st.name);
        some_exclusive_is_smaller |= st.self_ns < st.total_ns;
    }
    assert!(
        some_exclusive_is_smaller,
        "nested sweep spans must shed child time somewhere"
    );

    // The critical path is non-empty and starts at a root whose duration
    // bounds every later step.
    let chain = pm_obs::prof::critical_path(&spans);
    assert!(!chain.is_empty());
    assert_eq!(chain[0].depth, 0);
    for (i, step) in chain.iter().enumerate() {
        assert_eq!(step.depth, i, "depths are consecutive");
        assert!(
            step.dur_ns <= chain[0].dur_ns,
            "children never outlast the chosen root"
        );
    }
}
