//! Golden tests for `pmctl obs diff` / `obs report` / `obs gate` /
//! `obs flame` / `obs critical`: the report text, the markdown render,
//! and every exit code (pass, breach, malformed input, usage error) are
//! pinned against the fixture files in `tests/fixtures/`.

use pm_cli::{run, CliError};
use std::ffi::OsString;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run_obs(args: &[&str]) -> (String, Result<(), CliError>) {
    let argv: Vec<OsString> = args.iter().map(OsString::from).collect();
    let mut out = Vec::new();
    let result = run(&argv, &mut out);
    (String::from_utf8(out).expect("utf-8 output"), result)
}

/// Line-by-line comparison ignoring trailing padding, so the table
/// alignment and every cell stay pinned without invisible-whitespace
/// brittleness in the expected strings.
fn assert_lines(actual: &str, expected: &str) {
    let a: Vec<&str> = actual.lines().map(str::trim_end).collect();
    let e: Vec<&str> = expected.lines().map(str::trim_end).collect();
    assert_eq!(a, e, "full output:\n{actual}");
}

#[test]
fn diff_text_report_is_pinned() {
    let (out, result) = run_obs(&[
        "obs",
        "diff",
        &fixture("base.metrics.json"),
        &fixture("current.metrics.json"),
    ]);
    result.expect("diff reports, it does not fail");
    assert_lines(
        &out,
        "telemetry diff (thresholds: ±10.0% rel, 0 abs; time metrics informational)\n\
         compared 11 quantities: 7 changed, 1 breach(es), 1 added, 0 removed\n\
         \n\
         kind     metric         field     base  current  delta     status\n\
         counter  algo.picks     total     100   123      +23.0%    BREACH\n\
         counter  phase.wall_ns  total     5000  9000     +80.0%    info\n\
         hist     case.lat_ns    p95       15    1023     +6720.0%  info\n\
         hist     case.lat_ns    p99       15    1023     +6720.0%  info\n\
         hist     case.lat_ns    max       8     600      +7400.0%  info\n\
         span     bench.algo     total_ns  900   1500     +66.7%    info\n\
         span     bench.algo     max_ns    400   800      +100.0%   info\n\
         added:   counter sweep.fresh\n\
         verdict: BREACH (1 breach(es))",
    );
}

#[test]
fn diff_markdown_report_is_pinned() {
    let (out, result) = run_obs(&[
        "obs",
        "diff",
        "--md",
        &fixture("base.metrics.json"),
        &fixture("current.metrics.json"),
    ]);
    result.expect("diff reports, it does not fail");
    assert_lines(
        &out,
        "## Telemetry baseline diff\n\
         \n\
         **Verdict: BREACH** — 1 breach(es) in 11 compared quantities \
         (thresholds: ±10.0% rel, 0 abs; time metrics informational).\n\
         \n\
         | kind | metric | field | base | current | delta | status |\n\
         |---|---|---|---:|---:|---:|---|\n\
         | counter | `algo.picks` | total | 100 | 123 | +23.0% | BREACH |\n\
         | counter | `phase.wall_ns` | total | 5000 | 9000 | +80.0% | info |\n\
         | hist | `case.lat_ns` | p95 | 15 | 1023 | +6720.0% | info |\n\
         | hist | `case.lat_ns` | p99 | 15 | 1023 | +6720.0% | info |\n\
         | hist | `case.lat_ns` | max | 8 | 600 | +7400.0% | info |\n\
         | span | `bench.algo` | total_ns | 900 | 1500 | +66.7% | info |\n\
         | span | `bench.algo` | max_ns | 400 | 800 | +100.0% | info |\n\
         \n\
         Only in current: counter sweep.fresh",
    );
}

#[test]
fn report_output_is_pinned() {
    let path = fixture("base.metrics.json");
    let (out, result) = run_obs(&["obs", "report", &path]);
    result.expect("report succeeds");
    assert_lines(
        &out,
        &format!(
            "metrics report for {path} (schema v1)\n\
             \n\
             counters (3)\n\
             \x20 algo.picks     100\n\
             \x20 phase.wall_ns  5000\n\
             \x20 sweep.cases    41\n\
             histograms (1)\n\
             \x20 name                count        p50<=        p95<=        p99<=          max\n\
             \x20 case.lat_ns             4            3           15           15            8\n\
             spans (1)\n\
             \x20 name                count       total_ns         max_ns\n\
             \x20 bench.algo              3            900            400"
        ),
    );
}

#[test]
fn gate_passes_on_identical_documents() {
    let base = fixture("base.metrics.json");
    let (out, result) = run_obs(&["obs", "gate", &base, "--baseline", &base]);
    result.expect("identical documents pass the gate");
    assert!(out.contains("verdict: PASS (0 breach(es))"), "{out}");
}

#[test]
fn gate_breach_exits_3_and_writes_markdown() {
    let dir = std::env::temp_dir().join(format!("pm-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let md = dir.join("gate.md");
    let (out, result) = run_obs(&[
        "obs",
        "gate",
        &fixture("current.metrics.json"),
        "--baseline",
        &fixture("base.metrics.json"),
        "--md-out",
        md.to_str().unwrap(),
    ]);
    let err = result.expect_err("algo.picks moved +23% past the 10% gate");
    assert_eq!(err.code, 3, "{}", err.message);
    assert!(err.message.contains("telemetry gate"), "{}", err.message);
    assert!(out.contains("verdict: BREACH (1 breach(es))"), "{out}");
    let markdown = std::fs::read_to_string(&md).expect("--md-out file written");
    assert!(markdown.starts_with("## Telemetry baseline diff"));
    assert!(markdown.contains("**Verdict: BREACH**"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_thresholds_are_configurable() {
    let args = [
        "obs",
        "gate",
        &fixture("current.metrics.json"),
        "--baseline",
        &fixture("base.metrics.json"),
    ];
    // +23% passes under a 25% threshold…
    let (_, result) = run_obs(&[&args[..], &["--max-regress", "25%"]].concat());
    result.expect("within the widened threshold");
    // …and under a large absolute tolerance.
    let (_, result) = run_obs(&[&args[..], &["--abs-tol", "23"]].concat());
    result.expect("within the absolute tolerance");
    // --gate-time turns every informational time delta into a breach.
    let (out, result) = run_obs(&[&args[..], &["--max-regress", "25%", "--gate-time"]].concat());
    let err = result.expect_err("time metrics gate under --gate-time");
    assert_eq!(err.code, 3);
    assert!(out.contains("BREACH"), "{out}");
}

#[test]
fn flame_table_is_pinned() {
    let path = fixture("profile.folded");
    let (out, result) = run_obs(&["obs", "flame", &path]);
    result.expect("flame renders the fixture profile");
    assert_lines(
        &out,
        &format!(
            "hot paths for {path} (50 samples, 4 stacks)\n\
             \n\
             frame           self%    self  total%   total\n\
             pm.select        50.0      25    50.0      25\n\
             retro.recover    24.0      12    24.0      12\n\
             pm.recover       20.0      10    70.0      35\n\
             sweep.case        6.0       3   100.0      50"
        ),
    );
}

#[test]
fn flame_markdown_and_top_are_pinned() {
    let path = fixture("profile.folded");
    let (out, result) = run_obs(&["obs", "flame", "--md", "--top", "2", &path]);
    result.expect("flame renders markdown");
    assert_lines(
        &out,
        &format!(
            "## Hot paths — {path}\n\
             \n\
             50 samples over 4 distinct stacks.\n\
             \n\
             | frame | self% | self | total% | total |\n\
             |---|---:|---:|---:|---:|\n\
             | `pm.select` | 50.0 | 25 | 50.0 | 25 |\n\
             | `retro.recover` | 24.0 | 12 | 24.0 | 12 |\n\
             \n\
             (top 2 of 4 frames)"
        ),
    );
}

#[test]
fn flame_serves_a_live_profile_over_url() {
    // `obs flame --url` renders whatever the endpoint serves, exactly as
    // it renders the same text from a file. The server serves fixed
    // bodies, so the recorder's state in this process does not matter.
    let serve = |body: String| {
        let mut router = pm_obs::Router::new();
        router.get("/profile.folded", move |_| {
            pm_obs::Response::text(200, body.clone())
        });
        pm_obs::MetricsServer::serve_routed("127.0.0.1:0", router, Default::default())
            .expect("ephemeral bind")
    };
    let path = fixture("profile.folded");
    let server = serve(std::fs::read_to_string(&path).unwrap());
    let host = server.local_addr().to_string();
    let (out, result) = run_obs(&["obs", "flame", "--url", &host]);
    result.expect("live profile renders");
    let (from_file, result) = run_obs(&["obs", "flame", &path]);
    result.expect("fixture profile renders");
    assert_eq!(
        out,
        from_file.replace(&path, &format!("http://{host}/profile.folded")),
    );
    drop(server);

    // An empty profile is reported, not an error.
    let server = serve(String::new());
    let host = server.local_addr().to_string();
    let (out, result) = run_obs(&["obs", "flame", "--url", &host]);
    result.expect("empty live profile is not an error");
    assert!(out.contains("profile is empty (no samples)"), "{out}");
    drop(server);
}

#[test]
fn critical_report_is_pinned() {
    let path = fixture("trace.json");
    let (out, result) = run_obs(&["obs", "critical", &path]);
    result.expect("critical analyzes the fixture trace");
    assert_lines(
        &out,
        &format!(
            "span-tree analysis for {path}: 6 spans on 2 thread(s)\n\
             \n\
             self time by span (exclusive = inclusive - direct children):\n\
             \x20 name          count    total_ms     self_ms   self%\n\
             \x20 pm.recover        2       5.800       4.300    47.8\n\
             \x20 sweep.case        2       8.500       2.700    30.0\n\
             \x20 pm.select         1       1.500       1.500    16.7\n\
             \x20 bench.report      1       0.500       0.500     5.6\n\
             \n\
             critical path (longest chain of child spans):\n\
             \x20 sweep.case  6.000 ms  tid 2 (sweep-worker-0)  label=case (13,20)\n\
             \x20   pm.recover  4.000 ms  tid 2 (sweep-worker-0)\n\
             \x20     pm.select  1.500 ms  tid 2 (sweep-worker-0)"
        ),
    );
}

#[test]
fn critical_markdown_is_pinned() {
    let path = fixture("trace.json");
    let (out, result) = run_obs(&["obs", "critical", "--md", &path]);
    result.expect("critical renders markdown");
    assert_lines(
        &out,
        &format!(
            "## Span-tree analysis — {path}\n\
             \n\
             6 spans on 2 thread(s).\n\
             \n\
             | span | count | total_ms | self_ms | self% |\n\
             |---|---:|---:|---:|---:|\n\
             | `pm.recover` | 2 | 5.800 | 4.300 | 47.8 |\n\
             | `sweep.case` | 2 | 8.500 | 2.700 | 30.0 |\n\
             | `pm.select` | 1 | 1.500 | 1.500 | 16.7 |\n\
             | `bench.report` | 1 | 0.500 | 0.500 | 5.6 |\n\
             \n\
             Critical path (longest chain of child spans):\n\
             \n\
             1. `sweep.case` — 6.000 ms on tid 2 (sweep-worker-0) — case (13,20)\n\
             2. `pm.recover` — 4.000 ms on tid 2 (sweep-worker-0)\n\
             3. `pm.select` — 1.500 ms on tid 2 (sweep-worker-0)"
        ),
    );
}

#[test]
fn flame_and_critical_reject_bad_inputs() {
    // Malformed folded text / trace JSON are runtime errors naming the
    // file; bad flags are usage errors.
    let dir = std::env::temp_dir().join(format!("pm-prof-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad_folded = dir.join("bad.folded");
    std::fs::write(&bad_folded, "frame-without-a-count\n").unwrap();
    let (_, result) = run_obs(&["obs", "flame", bad_folded.to_str().unwrap()]);
    let err = result.expect_err("malformed folded file");
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(err.message.contains("bad folded line"), "{}", err.message);

    let (_, result) = run_obs(&["obs", "critical", &fixture("base.metrics.json")]);
    let err = result.expect_err("metrics JSON is not a trace");
    assert_eq!(err.code, 1, "{}", err.message);
    assert!(err.message.contains("traceEvents"), "{}", err.message);

    for args in [
        vec!["obs", "flame"],
        vec!["obs", "flame", "--top", "0", "x.folded"],
        vec!["obs", "critical"],
    ] {
        let (_, result) = run_obs(&args);
        let err = result.expect_err("usage error");
        assert_eq!(err.code, 2, "{args:?}: {}", err.message);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flame_self_time_reconciles_with_folded_totals() {
    // The sum of per-frame self samples must equal the total sample
    // count: every sample has exactly one leaf frame.
    let body = std::fs::read_to_string(fixture("profile.folded")).unwrap();
    let total: u64 = body
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(_, n)| n.parse::<u64>().unwrap())
        .sum();
    let (out, result) = run_obs(&["obs", "flame", &fixture("profile.folded")]);
    result.expect("flame renders");
    let self_sum: u64 = out
        .lines()
        .skip(3) // header lines
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let _name = cols.next()?;
            let _pct = cols.next()?;
            cols.next()?.parse::<u64>().ok()
        })
        .sum();
    assert_eq!(self_sum, total, "{out}");
}

#[test]
fn malformed_and_missing_inputs_exit_1_naming_the_file() {
    let base = fixture("base.metrics.json");
    for current in [fixture("broken.metrics.json"), fixture("no-such.json")] {
        let (_, result) = run_obs(&["obs", "gate", &current, "--baseline", &base]);
        let err = result.expect_err("bad input is a runtime error");
        assert_eq!(err.code, 1, "{}", err.message);
        assert!(err.message.contains("metrics.json") || err.message.contains("no-such.json"));
    }
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        vec!["obs"],
        vec!["obs", "frobnicate"],
        vec!["obs", "diff", "only-one.json"],
        vec!["obs", "gate", "current.json"], // --baseline missing
        vec!["obs", "report"],
    ] {
        let (_, result) = run_obs(&args);
        let err = result.expect_err("usage error");
        assert_eq!(err.code, 2, "{args:?}: {}", err.message);
    }
    let (out, result) = run_obs(&["obs", "help"]);
    result.expect("obs help prints usage");
    assert!(out.contains("pmctl obs gate"), "{out}");
}

#[test]
fn gate_without_a_current_document_is_a_usage_error() {
    let base = fixture("base.metrics.json");
    let (out, result) = run_obs(&["obs", "gate", "--baseline", &base]);
    let err = result.expect_err("CURRENT.json is required");
    assert_eq!(err.code, 2, "{}", err.message);
    assert!(
        err.message.contains("CURRENT.json is required"),
        "{}",
        err.message
    );
    assert!(
        err.message.contains("pmctl obs gate CURRENT.json"),
        "{}",
        err.message
    );
    assert!(out.is_empty(), "no workload ran: {out}");
}
