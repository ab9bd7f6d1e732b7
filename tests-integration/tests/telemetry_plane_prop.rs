//! Property: the telemetry plane's knob never moves a recorded case row.
//! `--serve` on/off (the recorder plus a live HTTP server that is polled
//! while the sweep runs), at serial and parallel job counts, must leave
//! the `BENCH_sweep.json` case rows byte-identical.
//!
//! This lives in its own test binary: [`pm_obs::enable`] turns on the
//! process-global recorder, which would race the disabled phase of the
//! `telemetry_plane` test if they shared a process. Here the reference
//! rows are simply "no server" — the recorder itself being on or off is
//! the other binary's concern.

use pm_bench::figures::bench_sweep_json;
use pm_bench::{CaseResult, EvalOptions, SweepEngine};
use pm_sdwan::{SdWan, SdWanBuilder};
use pm_topo::{builders, NodeId};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

fn small_net() -> &'static SdWan {
    static NET: OnceLock<SdWan> = OnceLock::new();
    NET.get_or_init(|| {
        SdWanBuilder::new(builders::grid(3, 4))
            .controller(NodeId(0), 200)
            .controller(NodeId(3), 200)
            .controller(NodeId(8), 200)
            .controller(NodeId(11), 200)
            .all_pairs_flows()
            .build()
            .expect("grid network builds")
    })
}

/// `BENCH_sweep.json` for k = 1..=2 at `jobs`, volatile lines blanked.
fn sweep_rows(jobs: usize) -> String {
    let opts = EvalOptions {
        jobs,
        skip_optimal: true,
        ..EvalOptions::default()
    };
    let engine = SweepEngine::new(small_net(), opts);
    let sweeps: Vec<(usize, Vec<CaseResult>)> = (1..=2).map(|k| (k, engine.sweep(k))).collect();
    let refs: Vec<(usize, &[CaseResult])> =
        sweeps.iter().map(|(k, c)| (*k, c.as_slice())).collect();
    let json = bench_sweep_json("telemetry_plane_prop", jobs, &refs);
    json.lines()
        .filter(|l| !l.contains("\"mean_ms\"") && !l.trim_start().starts_with("\"jobs\":"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Reference rows per job count, captured once with no plane active.
fn reference_rows(jobs: usize) -> &'static str {
    static SERIAL: OnceLock<String> = OnceLock::new();
    static PARALLEL: OnceLock<String> = OnceLock::new();
    match jobs {
        1 => SERIAL.get_or_init(|| sweep_rows(1)),
        8 => PARALLEL.get_or_init(|| sweep_rows(8)),
        other => panic!("no reference for jobs={other}"),
    }
}

/// Reads `/metrics.json` off a live server once, as `pmctl obs top --url`
/// does each frame.
fn poll_metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET /metrics.json HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn plane_knobs_never_move_case_rows(
        (jobs, serve) in (0u8..2, 0u8..2)
            .prop_map(|(j, se)| (if j == 0 { 1usize } else { 8 }, se == 1)),
    ) {
        let reference = reference_rows(jobs);
        let server = serve.then(|| {
            pm_obs::enable();
            pm_obs::MetricsServer::serve("127.0.0.1:0").expect("ephemeral bind")
        });
        // A reader polling mid-run takes the recorder's lock from another
        // thread while the workers record.
        let poller = server.as_ref().map(|s| {
            let addr = s.local_addr();
            std::thread::spawn(move || poll_metrics(addr))
        });
        let rows = sweep_rows(jobs);
        if let Some(poller) = poller {
            let raw = poller.join().expect("poller thread");
            prop_assert!(raw.starts_with("HTTP/1.1 200 "), "{}", raw);
        }
        drop(server);
        prop_assert_eq!(
            rows,
            reference,
            "jobs={} serve={} moved the case rows",
            jobs,
            serve
        );
    }
}
