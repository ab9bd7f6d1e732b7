//! Seeded closed-loop load generator for `pmd` (the plan-serving daemon).
//!
//! Replays a deterministic stream of failure-set `POST /plan` requests
//! against a running `pmd` — or, with no `--addr`, against a self-hosted
//! in-process [`PmdService`] on the paper's ATT topology — over persistent
//! keep-alive connections, one per client thread. Measures per-request
//! wall latency and writes `BENCH_serve.json` (schema version 1) with
//! p50/p90/p99/max latency and sustained plans/sec.
//!
//! Run: `cargo run --release -p pm-bench --bin loadgen -- --help` for the
//! flags.
//!
//! `--beyond FRAC` sends that fraction of requests with `horizon + 1`
//! failures, exercising the daemon's on-demand solve fallback; the rest
//! stay within the precomputed store. `--rate R` paces the *total*
//! request rate (requests per second, split across threads); 0 means
//! open throttle.

use pm_bench::flags::{run_plain, Args, CliError};
use pm_bench::{Generation, PmdConfig, PmdService};
use pm_sdwan::SdWanBuilder;
use pm_topo::rng::DetRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const HELP: &str = "loadgen — seeded closed-loop load generator for pmd

USAGE: loadgen [options]

  --addr HOST:PORT     target a running pmd (default: self-host one on the
                       paper's ATT topology)
  --requests N         requests to send (default 20000)
  --threads T          client threads, one keep-alive connection each
                       (default 4)
  --rate R             total requests per second (default 0: open throttle)
  --seed S             seed of the request stream (default 42)
  --beyond FRAC        fraction of requests with horizon + 1 failures
                       (default 0)
  --out PATH           benchmark file to write (default BENCH_serve.json)

self-hosted pmd:
  --horizon K          precompute every failure set of up to K controllers
                       (default 2)
  --jobs N             worker threads of the store build (default: all cores)
  --workers W          HTTP worker threads (default 8)
";

struct Options {
    addr: Option<String>,
    requests: u64,
    threads: usize,
    rate: f64,
    seed: u64,
    beyond: f64,
    pmd: PmdConfig,
    out: PathBuf,
}

fn take_options(args: &mut Args) -> Result<Options, CliError> {
    let addr = args.take_str_flag("--addr")?;
    // Only a self-hosted store is known to have the ATT setup's six
    // controllers; a remote daemon reports its own horizon.
    let att_controllers = pm_topo::att::DEFAULT_DOMAINS.len();
    let pmd = PmdConfig::take(args, addr.is_none().then_some(att_controllers))?;
    let threads = args
        .take_parsed("--threads", "a positive integer", |&t: &usize| t > 0)?
        .unwrap_or(4);
    // The pacing interval threads / rate must be a representable
    // Duration; 0 means no pacing.
    let rate = args
        .take_parsed(
            "--rate",
            "0 or a rate with a representable pacing interval",
            |&r: &f64| {
                r == 0.0
                    || (r.is_finite()
                        && r > 0.0
                        && Duration::try_from_secs_f64(threads as f64 / r).is_ok())
            },
        )?
        .unwrap_or(0.0);
    let options = Options {
        addr,
        requests: args
            .take_parsed("--requests", "an integer", |_: &u64| true)?
            .unwrap_or(20_000),
        threads,
        rate,
        seed: args
            .take_parsed("--seed", "an integer", |_: &u64| true)?
            .unwrap_or(42),
        beyond: args
            .take_parsed("--beyond", "a fraction", |_: &f64| true)?
            .map_or(0.0, |f| f.clamp(0.0, 1.0)),
        pmd,
        out: args
            .take_path("--out")?
            .unwrap_or_else(|| PathBuf::from("BENCH_serve.json")),
    };
    args.finish()?;
    Ok(options)
}

/// A distinct ascending controller-index set of size `f` out of `n`,
/// drawn with a partial Fisher–Yates over the index range.
fn draw_set(rng: &mut DetRng, n: usize, f: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..f {
        let j = i + (rng.next_u64() as usize) % (n - i);
        pool.swap(i, j);
    }
    let mut set: Vec<usize> = pool[..f].to_vec();
    set.sort_unstable();
    set
}

/// One request over an open connection; returns the latency and whether
/// the daemon answered from the store (`true`) or solved on demand.
fn one_request(conn: &mut BufReader<TcpStream>, body: &str) -> std::io::Result<(Duration, bool)> {
    let req = format!(
        "POST /plan HTTP/1.1\r\nHost: pmd\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        body.len()
    );
    let t0 = Instant::now();
    conn.get_mut().write_all(req.as_bytes())?;
    let mut line = String::new();
    conn.read_line(&mut line)?;
    if !line.starts_with("HTTP/1.1 200") {
        // Drain the rest of this response so the connection stays usable,
        // then report the failure.
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            conn.read_line(&mut h)?;
            if h == "\r\n" || h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
        let mut sink = vec![0u8; content_length];
        conn.read_exact(&mut sink)?;
        return Err(std::io::Error::other(line.trim().to_string()));
    }
    let mut content_length = 0usize;
    loop {
        line.clear();
        conn.read_line(&mut line)?;
        if line == "\r\n" || line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut resp = vec![0u8; content_length];
    conn.read_exact(&mut resp)?;
    let elapsed = t0.elapsed();
    let from_store = std::str::from_utf8(&resp)
        .map(|s| s.contains("\"source\": \"store\""))
        .unwrap_or(false);
    Ok((elapsed, from_store))
}

struct ThreadOutcome {
    latencies_ns: Vec<u64>,
    store_hits: u64,
    solved: u64,
    errors: u64,
}

#[allow(clippy::too_many_arguments)]
fn client_thread(
    addr: String,
    requests: u64,
    controllers: usize,
    horizon: usize,
    beyond: f64,
    per_thread_rate: f64,
    seed: u64,
    issued: &AtomicU64,
    total: u64,
) -> ThreadOutcome {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = ThreadOutcome {
        latencies_ns: Vec::with_capacity(requests as usize),
        store_hits: 0,
        solved: 0,
        errors: 0,
    };
    let mut conn: Option<BufReader<TcpStream>> = None;
    let pace = if per_thread_rate > 0.0 {
        Some(Duration::from_secs_f64(1.0 / per_thread_rate))
    } else {
        None
    };
    let start = Instant::now();
    let mut sent = 0u64;
    while issued.fetch_add(1, Ordering::Relaxed) < total {
        if let Some(step) = pace {
            let due = start + step * u32::try_from(sent).unwrap_or(u32::MAX);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        sent += 1;
        let f = if beyond > 0.0 && rng.unit_f64() < beyond {
            (horizon + 1).min(controllers - 1)
        } else {
            1 + (rng.next_u64() as usize) % horizon
        };
        let set = draw_set(&mut rng, controllers, f);
        let ids: Vec<String> = set.iter().map(usize::to_string).collect();
        let body = format!("{{\"controllers\": [{}]}}", ids.join(", "));
        let mut stream = match conn.take() {
            Some(c) => c,
            None => match TcpStream::connect(&addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                    BufReader::new(s)
                }
                Err(_) => {
                    out.errors += 1;
                    continue;
                }
            },
        };
        match one_request(&mut stream, &body) {
            Ok((latency, from_store)) => {
                out.latencies_ns
                    .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
                if from_store {
                    out.store_hits += 1;
                } else {
                    out.solved += 1;
                }
                conn = Some(stream); // keep the socket warm
            }
            Err(_) => out.errors += 1, // drop the socket; reconnect next turn
        }
    }
    out
}

fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

fn main() -> ExitCode {
    run_plain(HELP, |args| loadgen(take_options(args)?))
}

fn loadgen(args: Options) -> Result<(), CliError> {
    // Self-host unless --addr points at a running daemon.
    let hosted: Option<PmdService> = if args.addr.is_none() {
        let cfg = args.pmd;
        eprintln!(
            "loadgen: self-hosting pmd (ATT paper topology, horizon {}, {} HTTP workers)",
            cfg.horizon, cfg.workers
        );
        let source = Box::new(move |id| {
            let net = SdWanBuilder::att_paper_setup()
                .build()
                .map_err(|e| e.to_string())?;
            Ok(Generation::build(id, net, &cfg))
        });
        let svc = PmdService::start("127.0.0.1:0", source, cfg)
            .map_err(|e| CliError::runtime(format!("loadgen: could not self-host pmd: {e}")))?;
        Some(svc)
    } else {
        None
    };
    let addr = match (&hosted, &args.addr) {
        (Some(svc), _) => svc.local_addr().to_string(),
        (None, Some(a)) => a.clone(),
        (None, None) => unreachable!(),
    };

    // Shape facts come from the hosted store, or the daemon's status.
    let (controllers, horizon, plans) = match &hosted {
        Some(svc) => {
            let generation = svc.generation();
            let store = generation.store();
            (store.controllers(), store.horizon(), store.len())
        }
        None => probe_status(&addr).map_err(|e| {
            CliError::runtime(format!(
                "loadgen: {addr} did not answer GET /status.json: {e}"
            ))
        })?,
    };
    eprintln!(
        "loadgen: target {addr} — {controllers} controllers, {plans} stored plans (f <= {horizon})"
    );

    let per_thread_rate = if args.rate > 0.0 {
        args.rate / args.threads as f64
    } else {
        0.0
    };
    let issued = AtomicU64::new(0);
    let t0 = Instant::now();
    let outcomes: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let issued = &issued;
        let handles: Vec<_> = (0..args.threads)
            .map(|t| {
                let addr = addr.clone();
                scope.spawn(move || {
                    client_thread(
                        addr,
                        args.requests.div_ceil(args.threads as u64),
                        controllers,
                        horizon,
                        args.beyond,
                        per_thread_rate,
                        args.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        issued,
                        args.requests,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = t0.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut store_hits, mut solved, mut errors) = (0u64, 0u64, 0u64);
    for o in outcomes {
        latencies.extend_from_slice(&o.latencies_ns);
        store_hits += o.store_hits;
        solved += o.solved;
        errors += o.errors;
    }
    latencies.sort_unstable();
    let ok = latencies.len() as u64;
    let plans_per_sec = ok as f64 / wall.as_secs_f64().max(1e-9);
    let us = |ns: u64| ns as f64 / 1e3;
    let p50 = percentile(&latencies, 0.50);
    let p90 = percentile(&latencies, 0.90);
    let p99 = percentile(&latencies, 0.99);
    let max = latencies.last().copied().unwrap_or(0);

    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"serve\",\n  \"target\": \"{}\",\n  \
         \"self_hosted\": {},\n  \"requests\": {},\n  \"ok\": {ok},\n  \"errors\": {errors},\n  \
         \"threads\": {},\n  \"rate_limit\": {},\n  \"seed\": {},\n  \"beyond_fraction\": {},\n  \
         \"duration_s\": {:.6},\n  \"plans_per_sec\": {plans_per_sec:.1},\n  \
         \"latency_us\": {{\"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}}},\n  \
         \"served\": {{\"store\": {store_hits}, \"solved\": {solved}}},\n  \
         \"store\": {{\"plans\": {plans}, \"horizon\": {horizon}, \"controllers\": {controllers}}}\n}}\n",
        pm_obs::json::escape(&addr),
        hosted.is_some(),
        args.requests,
        args.threads,
        args.rate,
        args.seed,
        args.beyond,
        wall.as_secs_f64(),
        us(p50),
        us(p90),
        us(p99),
        us(max),
    );
    std::fs::write(&args.out, &json).map_err(|e| {
        CliError::runtime(format!(
            "loadgen: could not write {}: {e}",
            args.out.display()
        ))
    })?;

    println!(
        "serve bench: {ok} ok / {errors} err over {:.3}s — {plans_per_sec:.0} plans/sec",
        wall.as_secs_f64()
    );
    println!(
        "latency: p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  max {:.1}us",
        us(p50),
        us(p90),
        us(p99),
        us(max)
    );
    println!(
        "served: {store_hits} from store, {solved} solved on demand -> {}",
        args.out.display()
    );
    Ok(())
}

/// Asks a remote daemon for its store shape via `GET /status.json`.
fn probe_status(addr: &str) -> Result<(usize, usize, u64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /status.json HTTP/1.1\r\nHost: pmd\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or("malformed response")?;
    let v = pm_obs::json::parse(body).map_err(|e| format!("bad status body: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .and_then(pm_obs::json::Value::as_u64)
            .ok_or_else(|| format!("status.json lacks {k}"))
    };
    Ok((
        field("controllers")? as usize,
        field("horizon")? as usize,
        field("plans")?,
    ))
}
