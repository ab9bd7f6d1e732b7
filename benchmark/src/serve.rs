//! `serve-1k`: an in-process `pmd` on the 1k-switch WAN with every f ≤ 3
//! plan precomputed, driven closed-loop over one keep-alive connection.
//! 99 % of requests name f ≤ horizon failures (store hits), 1 % name
//! horizon + 1 (solved on demand).

use crate::http::{generation_of, Conn};
use crate::layers::{self, layer, Algo, CaseRunner, PrefixTiming, Recording, Traced};
use crate::probe::Probe;
use crate::stats::{median, percentile, secs, sort, Fnv64};
use crate::{
    engine_options, measure_after_setup, rounds, Measured, Outcome, Round, ServeNet, Sizes, JOBS,
    NETWORK_SEED,
};
use pm_bench::pmd::GenerationSource;
use pm_bench::{EvalOptions, Generation, PlanStore, PmdConfig, PmdService, SweepEngine};
use pm_sdwan::{ControllerId, SdWan, SdWanBuilder};
use pm_topo::rng::DetRng;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Share of requests beyond the precomputed horizon.
const SOLVE_SHARE: f64 = 0.01;
/// Every 64th successful response has its plan checked.
const VERIFY_STRIDE: u64 = 64;
/// Keep-alive `GET /healthz` round trips in the traced prefix.
const TRACE_HEALTHZ: usize = 2000;
/// Store ranks re-driven through the layers in the traced prefix.
const TRACE_STORE_RANKS: u64 = 1000;

/// Which latency class a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// f ≤ horizon: answered from the plan store.
    Store,
    /// f = horizon + 1: solved on demand.
    Solve,
}

/// `pmd`'s configuration: `jobs = 2` for every store build and two HTTP
/// workers (the trace opens a second connection after closing the first).
fn config(horizon: usize) -> PmdConfig {
    PmdConfig {
        horizon,
        jobs: JOBS,
        batch: engine_options().batch,
        workers: 2,
    }
}

/// The served network, built by the program's own constructor.
fn network(net: ServeNet) -> SdWan {
    match net {
        ServeNet::Att => SdWanBuilder::att_paper_setup()
            .build()
            .expect("the paper topology builds"),
        ServeNet::Wan(shape) => pm_bench::build_wan(&shape.spec(NETWORK_SEED)).net,
    }
}

/// The generation source `pmd` builds from at start and on every reload;
/// `first`, when given, is served as generation 1 instead of a fresh build.
fn source(net: ServeNet, cfg: PmdConfig, first: Option<Generation>) -> GenerationSource {
    let first = Mutex::new(first);
    Box::new(move |id| {
        let prebuilt = first.lock().map_err(|e| e.to_string())?.take();
        Ok(prebuilt.unwrap_or_else(|| Generation::build(id, network(net), &cfg)))
    })
}

fn start(source: GenerationSource, cfg: PmdConfig) -> PmdService {
    PmdService::start("127.0.0.1:0", source, cfg).expect("pmd starts on loopback")
}

/// A seeded request stream for one connection.
#[derive(Debug)]
pub struct Stream {
    rng: DetRng,
    controllers: usize,
    horizon: usize,
}

impl Stream {
    /// The stream of connection `conn` under `seed`.
    pub fn new(seed: u64, conn: u64, controllers: usize, horizon: usize) -> Stream {
        Stream {
            rng: DetRng::seed_from_u64(seed ^ (conn + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            controllers,
            horizon,
        }
    }

    /// The next failure set (ascending controller indices) and its class.
    pub fn next_set(&mut self) -> (Vec<ControllerId>, Class) {
        let (f, class) = if self.rng.unit_f64() < SOLVE_SHARE {
            (self.horizon + 1, Class::Solve)
        } else {
            (
                1 + (self.rng.next_u64() as usize) % self.horizon,
                Class::Store,
            )
        };
        // Partial Fisher–Yates over the controller indices.
        let mut pool: Vec<usize> = (0..self.controllers).collect();
        for i in 0..f {
            let j = i + (self.rng.next_u64() as usize) % (self.controllers - i);
            pool.swap(i, j);
        }
        let mut set: Vec<ControllerId> = pool[..f].iter().map(|&c| ControllerId(c)).collect();
        set.sort_unstable();
        (set, class)
    }
}

/// The `POST /plan` body naming `set` by controller index.
pub fn plan_body(set: &[ControllerId]) -> String {
    let ids: Vec<String> = set.iter().map(|c| c.index().to_string()).collect();
    format!("{{\"controllers\": [{}]}}", ids.join(", "))
}

/// Judges one `/plan` response without a full parse: status 200, a
/// generation stamp no older than the last one seen on this connection,
/// and the source its class implies. `false` counts as a failure.
pub fn response_ok(status: u16, body: &[u8], class: Class, last_generation: &mut u64) -> bool {
    let Some(generation) = generation_of(body) else {
        return false;
    };
    let marker: &[u8] = match class {
        Class::Store => b"\"source\": \"store\"",
        Class::Solve => b"\"source\": \"solved\"",
    };
    let ok = status == 200
        && generation >= *last_generation
        && body.windows(marker.len()).any(|w| w == marker);
    *last_generation = generation.max(*last_generation);
    ok
}

/// Whether the `plan` of a `/plan` response body equals what `gen`
/// itself holds (store hit) or solves (beyond the horizon) for `set`.
pub fn plan_matches(gen: &Generation, set: &[ControllerId], body: &[u8]) -> bool {
    let Some(served) = std::str::from_utf8(body)
        .ok()
        .and_then(|text| pm_obs::json::parse(text).ok())
    else {
        return false;
    };
    let served = served
        .get("plan")
        .and_then(|p| p.as_str())
        .map(str::to_string);
    let expected = match gen.store().lookup(set) {
        Some(entry) => Some(entry.plan_text.clone()),
        None => gen.solve_beyond_horizon(set).ok().map(|p| p.plan_text),
    };
    served.is_some() && served == expected
}

/// Measures `pmd`: one keep-alive connection sends the seeded request
/// list round after round until the window is spent.
pub fn run(sizes: &Sizes, seed: u64, seconds: f64, probe: &mut Probe) -> Outcome {
    let cfg = config(sizes.horizon);
    measure_after_setup(
        sizes,
        probe,
        || start(source(sizes.serve, cfg, None), cfg),
        |svc, probe| measure(svc, sizes, seed, seconds, probe),
    )
}

fn measure(
    svc: &PmdService,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    probe: &mut Probe,
) -> Measured {
    let gen = svc.generation();
    let mut stream = Stream::new(seed, 0, gen.store().controllers(), sizes.horizon);
    let sets: Vec<(Vec<ControllerId>, Class)> =
        (0..sizes.requests).map(|_| stream.next_set()).collect();
    let requests: Vec<String> = sets.iter().map(|(set, _)| plan_body(set)).collect();
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, 0u64);
    let (mut conn, mut body, mut last_generation) = (None, Vec::new(), 0u64);
    let rounds = rounds(seconds, probe, |_| {
        let (mut store_us, mut solve_us) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        for ((set, class), request) in sets.iter().zip(&requests) {
            attempted += 1;
            let c = match conn.as_mut() {
                Some(c) => c,
                None => match Conn::connect(svc.local_addr()) {
                    Ok(c) => conn.insert(c),
                    Err(_) => {
                        failed += 1;
                        continue;
                    }
                },
            };
            let sent_at = Instant::now();
            let sent = c.send("POST", "/plan", request, &mut body);
            let round_trip_us = secs(sent_at) * 1e6;
            let Ok(status) = sent else {
                failed += 1;
                conn = None;
                continue;
            };
            if !response_ok(status, &body, *class, &mut last_generation) {
                failed += 1;
                continue;
            }
            match class {
                Class::Store => store_us.push(round_trip_us),
                Class::Solve => solve_us.push(round_trip_us),
            }
            ok += 1;
            if ok.is_multiple_of(VERIFY_STRIDE) && !plan_matches(&gen, set, &body) {
                failed += 1;
            }
        }
        Round {
            ops_per_s: (store_us.len() + solve_us.len()) as f64 / secs(t0),
            p50_us: median(&store_us),
            solve_p50_us: median(&solve_us),
        }
    });
    let solved = sets.iter().filter(|(_, c)| *c == Class::Solve).count();
    Measured {
        attempted,
        failed,
        notes: vec![
            ("requests".into(), sets.len().to_string()),
            ("solved_per_round".into(), solved.to_string()),
            ("rounds".into(), rounds.len().to_string()),
        ],
        ..Measured::over(&rounds)
    }
}

/// Sends `sets` as `POST /plan` on one connection; each round trip in
/// the span its class names. Returns the wall time, a digest of the
/// response bodies, the store-class body bytes and the failures.
fn drive_requests(
    svc: &PmdService,
    sets: &[(Vec<ControllerId>, Class)],
) -> (f64, u64, Vec<f64>, u64) {
    let mut conn = Conn::connect(svc.local_addr()).expect("connect to pmd");
    let (mut body, mut last_generation, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut digest = Fnv64::default();
    let mut bytes = Vec::new();
    let gen = svc.generation();
    let t0 = Instant::now();
    for (i, (set, class)) in sets.iter().enumerate() {
        let request = plan_body(set);
        let span = match class {
            Class::Store => "layer.http.plan",
            Class::Solve => "layer.http.plan_solve",
        };
        let status = layer(span, || conn.send("POST", "/plan", &request, &mut body))
            .expect("loopback keep-alive request");
        failed += u64::from(!response_ok(status, &body, *class, &mut last_generation));
        if (i as u64 + 1).is_multiple_of(VERIFY_STRIDE) {
            failed += u64::from(!plan_matches(&gen, set, &body));
        }
        digest.write(&body);
        if *class == Class::Store {
            bytes.push(body.len() as f64);
        }
    }
    (secs(t0), digest.finish(), bytes, failed)
}

/// Traces `pmd`: the store build, a re-drive of the first store ranks,
/// the generation build, in-process lookups and fallback solves for the
/// prefix's failure sets, then the prefix itself over one keep-alive
/// connection (after `GET /healthz` round trips).
pub fn trace(sizes: &Sizes, seed: u64) -> Traced {
    let cfg = config(sizes.horizon);
    let untraced_net = network(sizes.serve);
    let mut stream = Stream::new(seed, 0, untraced_net.controllers().len(), sizes.horizon);
    let sets: Vec<(Vec<ControllerId>, Class)> = (0..sizes.trace_requests)
        .map(|_| stream.next_set())
        .collect();

    let (untraced_s, untraced_digest) = {
        let gen = Generation::build(1, untraced_net, &cfg);
        let svc = start(source(sizes.serve, cfg, Some(gen)), cfg);
        let (s, digest, _, _) = drive_requests(&svc, &sets);
        (s, digest)
    };

    let rec = Recording::start();
    let net = match sizes.serve {
        ServeNet::Att => layer("layer.sdwan.build", || network(ServeNet::Att)),
        ServeNet::Wan(shape) => layers::build_wan(&shape.spec(NETWORK_SEED)),
    };
    let opts = EvalOptions {
        jobs: JOBS,
        batch: cfg.batch,
        ..engine_options()
    };
    let engine = layer("layer.sdwan.netcache", || SweepEngine::new(&net, opts));
    let t0 = Instant::now();
    let store = layer("layer.store.build", || {
        PlanStore::build(&engine, cfg.horizon)
    });
    let build_s = secs(t0);
    let busy_ns = layers::worker_busy_ns(&pm_obs::snapshot(), "sweep");
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // The store build's calls, re-driven block by block (each f-block is
    // one colex sequence), must reproduce the stored plans.
    let mut runner = CaseRunner::new(&net, engine.cache());
    for rank in 0..store.len().min(TRACE_STORE_RANKS) {
        let entry = store.get(rank).expect("rank within the store");
        let solved = runner.solve(&entry.failed, &[Algo::Pm]);
        attempted += 1;
        failed += u64::from(solved[0].plan.to_text() != entry.plan_text);
    }
    let plan_bytes = (0..store.len())
        .filter_map(|r| store.get(r))
        .map(|p| {
            std::mem::size_of_val(p)
                + p.failed.capacity() * std::mem::size_of::<ControllerId>()
                + p.label.capacity()
                + p.plan_text.capacity()
        })
        .sum::<usize>() as f64
        / store.len().max(1) as f64;

    let gen = layer("layer.pmd.generation", || {
        Generation::build(1, net.clone(), &cfg)
    });
    let mut lookup_ns: Vec<f64> = Vec::new();
    layer("layer.store.lookup", || {
        for (set, _) in sets.iter().filter(|(_, c)| *c == Class::Store) {
            let t0 = Instant::now();
            std::hint::black_box(store.lookup(std::hint::black_box(set)));
            lookup_ns.push(secs(t0) * 1e9);
        }
    });
    sort(&mut lookup_ns);
    // Fallback solves, and the same sets through the layers a fallback
    // calls (a fresh scenario each time, as `pmd` builds it).
    for (set, _) in sets.iter().filter(|(_, c)| *c == Class::Solve) {
        let served = layer("layer.pmd.fallback", || gen.solve_beyond_horizon(set))
            .expect("beyond-horizon sets solve");
        let solved = CaseRunner::new(&net, engine.cache()).solve(set, &[Algo::Pm]);
        attempted += 1;
        failed += u64::from(solved[0].plan.to_text() != served.plan_text);
    }

    let svc = start(source(sizes.serve, cfg, Some(gen)), cfg);
    let mut conn = Conn::connect(svc.local_addr()).expect("connect to pmd");
    let mut body = Vec::new();
    for _ in 0..TRACE_HEALTHZ {
        let status = layer("layer.http.healthz", || {
            conn.send("GET", "/healthz", "", &mut body)
        });
        attempted += 1;
        failed += u64::from(!matches!(status, Ok(200)));
    }
    drop(conn);
    let (traced_s, traced_digest, resp_bytes, request_failures) = drive_requests(&svc, &sets);
    drop(svc);
    attempted += sets.len() as u64 + 1;
    failed += request_failures + u64::from(traced_digest != untraced_digest);

    let extra = BTreeMap::from([
        (
            "par.busy_share",
            busy_ns as f64 / 1e9 / (JOBS as f64 * build_s),
        ),
        ("store.plan_bytes", plan_bytes),
        ("store.lookup.p50_ns", percentile(&lookup_ns, 50.0)),
        ("store.lookup.p99_ns", percentile(&lookup_ns, 99.0)),
        (
            "sdwan.swaps_per_case",
            runner.swaps as f64 / store.len().min(TRACE_STORE_RANKS) as f64,
        ),
        (
            "http.resp_bytes",
            resp_bytes.iter().sum::<f64>() / resp_bytes.len().max(1) as f64,
        ),
    ]);
    let mut traced = rec.finish(
        PrefixTiming {
            untraced_s,
            traced_s,
        },
        extra,
    );
    traced.attempted = attempted;
    traced.failed = failed;
    traced
}
