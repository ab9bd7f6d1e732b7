//! `pmd`, the resident recovery service (ROADMAP item 1): serves
//! precomputed recovery plans over HTTP so observing a failure set costs
//! a lookup, not a solve.
//!
//! A [`PmdService`] owns one [`Generation`] at a time — a topology, its
//! [`NetCache`], and the [`PlanStore`] of every `f ≤ horizon` plan —
//! behind an `Arc` swap: request handlers clone the current `Arc` under a
//! read lock and answer entirely from that snapshot, so every response is
//! internally consistent with exactly one topology generation however
//! reloads interleave. `POST /reload` builds the next generation *outside*
//! the lock (requests keep serving from the old one) and swaps it in with
//! one short write-lock.
//!
//! Routes, on top of [`pm_obs::Router::with_metrics_routes`]:
//!
//! | route               | behaviour                                      |
//! |---------------------|------------------------------------------------|
//! | `POST /plan`        | JSON failure set → plan (store hit or solve)   |
//! | `GET /plans/:rank`  | plan by global store rank                      |
//! | `GET /status.json`  | generation, store shape, serving counters      |
//! | `POST /reload`      | rebuild the generation, bump its id, swap      |
//! | `POST /shutdown`    | ask the host process to exit cleanly           |
//!
//! `POST /plan` accepts `{"fail": [13, 20]}` (controller *node* ids, the
//! paper's convention and `pmctl --fail`'s) or `{"controllers": [1, 4]}`
//! (controller indices, what [`crate::ScenarioSpace`] ranks). A failure
//! set beyond the precomputed horizon is answered by an on-demand solve
//! that reuses the generation's [`NetCache`] and a thread-warm PM
//! workspace — byte-identical to a cold solve, just not free — and is
//! marked `"source": "solved"` in the response.
//!
//! The process hosting the service decides when to exit: handlers can
//! only *request* shutdown ([`PmdService::wait_for_shutdown`] unblocks).
//! With every crate `#![forbid(unsafe_code)]` there is no signal API, so
//! `POST /shutdown` *is* the daemon's termination signal.

use crate::harness::EvalOptions;
use crate::par::SweepEngine;
use crate::plan_store::{PlanStore, StoredPlan};
use pm_core::{FmssmInstance, Pm, PmWorkspace, RecoveryAlgorithm};
use pm_obs::{json, MetricsServer, Request, Response, Router, ServeConfig};
use pm_sdwan::{ControllerId, NetCache, PlanMetrics, SdWan};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Store and pool sizing for a [`PmdService`].
#[derive(Debug, Clone, Copy)]
pub struct PmdConfig {
    /// Precompute every failure set of up to this many controllers.
    pub horizon: usize,
    /// Worker threads of the offline store build.
    pub jobs: usize,
    /// Scenario batch size of the store build (see [`EvalOptions::batch`]).
    pub batch: usize,
    /// HTTP worker threads serving requests.
    pub workers: usize,
}

impl Default for PmdConfig {
    fn default() -> Self {
        PmdConfig {
            horizon: 2,
            jobs: crate::par::default_jobs(),
            batch: 32,
            workers: 8,
        }
    }
}

/// One immutable serving snapshot: a topology, its caches, and the plan
/// store built from it. Swapped wholesale on reload.
#[derive(Debug)]
pub struct Generation {
    id: u64,
    net: SdWan,
    cache: NetCache,
    store: PlanStore,
}

thread_local! {
    /// Thread-warm PM buffers for beyond-horizon solves: each HTTP worker
    /// carries its workspace from request to request, the warm-start
    /// half of the incremental contract (plans are byte-identical to a
    /// cold solve either way — buffers survive, never decisions).
    static FALLBACK_WS: RefCell<PmWorkspace> = RefCell::new(PmWorkspace::default());
}

impl Generation {
    /// Builds generation `id` from `net`: caches the network once, then
    /// solves the full `f ≤ horizon` store on `cfg.jobs` workers via the
    /// sweep engine's delta/warm-start path.
    pub fn build(id: u64, net: SdWan, cfg: &PmdConfig) -> Generation {
        let _span = pm_obs::span("pmd.generation.build");
        let store = {
            let engine = SweepEngine::new(
                &net,
                EvalOptions {
                    skip_optimal: true,
                    jobs: cfg.jobs,
                    batch: cfg.batch,
                    ..Default::default()
                },
            );
            PlanStore::build(&engine, cfg.horizon)
        };
        let cache = NetCache::build(&net);
        Generation {
            id,
            net,
            cache,
            store,
        }
    }

    /// The generation counter stamped on every response served from it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The topology this generation serves.
    pub fn net(&self) -> &SdWan {
        &self.net
    }

    /// The precomputed plan store.
    pub fn store(&self) -> &PlanStore {
        &self.store
    }

    /// Solves a failure set beyond the precomputed horizon on demand,
    /// reusing the generation's [`NetCache`] and the calling thread's
    /// warm PM workspace. Byte-identical to a cold solve.
    ///
    /// # Errors
    ///
    /// Returns the scenario construction error for sets the network
    /// rejects (e.g. every controller failed).
    pub fn solve_beyond_horizon(&self, failed: &[ControllerId]) -> Result<StoredPlan, String> {
        let _span = pm_obs::span("pmd.fallback_solve");
        let scenario = self
            .net
            .fail_cached(failed, &self.cache)
            .map_err(|e| e.to_string())?;
        let prog = self.cache.programmability();
        let inst = FmssmInstance::with_cache(&scenario, prog, &self.cache);
        let pm = Pm::new();
        let t0 = std::time::Instant::now();
        let plan = FALLBACK_WS
            .with(|ws| pm.recover_in(&inst, &mut ws.borrow_mut()))
            .map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        plan.validate(&scenario, prog, pm.is_flow_level())
            .map_err(|e| e.to_string())?;
        let metrics = PlanMetrics::compute(&scenario, prog, &plan, pm.middle_layer_ms());
        Ok(StoredPlan {
            rank: u64::MAX, // no global rank: not in the store
            failed: failed.to_vec(),
            label: crate::harness::case_label(&self.net, failed),
            plan_text: plan.to_text(),
            min_programmability: metrics.min_programmability,
            total_programmability: metrics.total_programmability,
            recovered_flows: metrics.recovered_flows,
            offline_flows: metrics.offline_flows,
            recovered_switches: metrics.recovered_switches,
            offline_switches: metrics.offline_switches,
            solve_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        })
    }
}

/// Builds the next [`Generation`]: called once at startup with id 1 and
/// once per `POST /reload` with the next id. The closure re-reads
/// whatever its topology source is (a GraphML file on disk, a builder),
/// which is what makes reload a *hot topology swap*.
pub type GenerationSource = Box<dyn Fn(u64) -> Result<Generation, String> + Send + Sync>;

struct PmdShared {
    current: RwLock<Arc<Generation>>,
    source: GenerationSource,
    /// Serializes reloads so concurrent `POST /reload`s build one
    /// generation each, in id order, never interleaved.
    reload: Mutex<()>,
    next_id: AtomicU64,
    store_hits: AtomicU64,
    solved: AtomicU64,
    rejected: AtomicU64,
    reloads: AtomicU64,
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

impl PmdShared {
    fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().expect("generation lock"))
    }

    fn request_shutdown(&self) {
        *self.stop.lock().expect("stop lock") = true;
        self.stop_cv.notify_all();
    }
}

/// A running `pmd` instance: the HTTP listener plus the generation swap
/// it serves from. Dropping it closes the listener.
pub struct PmdService {
    server: MetricsServer,
    shared: Arc<PmdShared>,
}

impl std::fmt::Debug for PmdService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmdService")
            .field("addr", &self.server.local_addr())
            .field("generation", &self.shared.snapshot().id())
            .finish()
    }
}

impl PmdService {
    /// Builds generation 1 from `source`, binds `addr` and starts
    /// serving on `config.workers` HTTP workers.
    ///
    /// # Errors
    ///
    /// Returns the generation build error or the bind error, as text.
    pub fn start(
        addr: impl ToSocketAddrs,
        source: GenerationSource,
        config: PmdConfig,
    ) -> Result<PmdService, String> {
        let first = source(1)?;
        let shared = Arc::new(PmdShared {
            current: RwLock::new(Arc::new(first)),
            source,
            reload: Mutex::new(()),
            next_id: AtomicU64::new(2),
            store_hits: AtomicU64::new(0),
            solved: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
        });
        let router = build_router(&shared);
        let server = MetricsServer::serve_routed(
            addr,
            router,
            ServeConfig {
                workers: config.workers.max(1),
                keep_alive: true,
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(PmdService { server, shared })
    }

    /// The bound address (resolves an ephemeral `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The current serving snapshot.
    pub fn generation(&self) -> Arc<Generation> {
        self.shared.snapshot()
    }

    /// Plans answered from the store / by on-demand solve so far.
    pub fn served(&self) -> (u64, u64) {
        (
            self.shared.store_hits.load(Ordering::Relaxed),
            self.shared.solved.load(Ordering::Relaxed),
        )
    }

    /// Whether `POST /shutdown` has been received.
    pub fn shutdown_requested(&self) -> bool {
        *self.shared.stop.lock().expect("stop lock")
    }

    /// Blocks the calling thread until `POST /shutdown` arrives.
    pub fn wait_for_shutdown(&self) {
        let mut stopped = self.shared.stop.lock().expect("stop lock");
        while !*stopped {
            stopped = self.shared.stop_cv.wait(stopped).expect("stop lock");
        }
    }
}

fn build_router(shared: &Arc<PmdShared>) -> Router {
    let mut r = Router::with_metrics_routes();
    let s = Arc::clone(shared);
    r.post("/plan", move |req| handle_plan(&s, req));
    let s = Arc::clone(shared);
    r.get("/plans/:rank", move |req| handle_plan_rank(&s, req));
    let s = Arc::clone(shared);
    r.get("/status.json", move |_| status_json(&s));
    let s = Arc::clone(shared);
    r.post("/reload", move |_| handle_reload(&s));
    let s = Arc::clone(shared);
    r.post("/shutdown", move |_| {
        s.request_shutdown();
        Response::json(200, "{\"stopping\": true}\n")
    });
    r
}

/// Parses the `POST /plan` body into controller indices of `gen`'s
/// topology: `{"fail": [node ids]}` or `{"controllers": [indices]}`.
fn parse_plan_body(gen: &Generation, body: &str) -> Result<Vec<ControllerId>, String> {
    let value = json::parse(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let fail = value.get("fail");
    let controllers = value.get("controllers");
    let (key, list) = match (fail, controllers) {
        (Some(v), None) => ("fail", v),
        (None, Some(v)) => ("controllers", v),
        (Some(_), Some(_)) => {
            return Err("give either \"fail\" or \"controllers\", not both".into())
        }
        (None, None) => {
            return Err(
                "body must carry a \"fail\" (node ids) or \"controllers\" (indices) array".into(),
            )
        }
    };
    let items = list
        .items()
        .ok_or_else(|| format!("\"{key}\" must be an array of integers"))?;
    if items.is_empty() {
        return Err(format!("\"{key}\" must name at least one controller"));
    }
    let n = gen.net().controllers().len();
    let mut failed = Vec::with_capacity(items.len());
    for item in items {
        let id = item
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be an array of non-negative integers"))?;
        let idx = match key {
            "controllers" => {
                let idx = usize::try_from(id).unwrap_or(usize::MAX);
                if idx >= n {
                    return Err(format!("controller index {id} out of range (have {n})"));
                }
                idx
            }
            _ => gen
                .net()
                .controllers()
                .iter()
                .position(|c| c.node.index() as u64 == id)
                .ok_or_else(|| {
                    let sites: Vec<usize> = gen
                        .net()
                        .controllers()
                        .iter()
                        .map(|c| c.node.index())
                        .collect();
                    format!("no controller at node {id}; controllers sit at {sites:?}")
                })?,
        };
        failed.push(ControllerId(idx));
    }
    failed.sort_unstable();
    let before = failed.len();
    failed.dedup();
    if failed.len() != before {
        return Err("failure set names a controller twice".into());
    }
    if failed.len() >= n {
        return Err("cannot fail every controller".into());
    }
    Ok(failed)
}

fn handle_plan(shared: &PmdShared, req: &Request) -> Response {
    let gen = shared.snapshot();
    let Some(body) = req.body_str() else {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::json_error(400, "body must be UTF-8 JSON");
    };
    let failed = match parse_plan_body(&gen, body) {
        Ok(f) => f,
        Err(e) => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Response::json_error(400, &e);
        }
    };
    match gen.store().lookup(&failed) {
        Some(entry) => {
            shared.store_hits.fetch_add(1, Ordering::Relaxed);
            if pm_obs::enabled() {
                pm_obs::count("pmd.plan.store_hits", 1);
            }
            Response::json(200, plan_json(&gen, entry, "store"))
        }
        None => match gen.solve_beyond_horizon(&failed) {
            Ok(entry) => {
                shared.solved.fetch_add(1, Ordering::Relaxed);
                if pm_obs::enabled() {
                    pm_obs::count("pmd.plan.solved", 1);
                }
                Response::json(200, plan_json(&gen, &entry, "solved"))
            }
            Err(e) => {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                Response::json_error(400, &e)
            }
        },
    }
}

fn handle_plan_rank(shared: &PmdShared, req: &Request) -> Response {
    let gen = shared.snapshot();
    let raw = req.param("rank").unwrap_or("");
    let Ok(rank) = raw.parse::<u64>() else {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::json_error(
            400,
            &format!("rank must be a non-negative integer, got {raw}"),
        );
    };
    match gen.store().get(rank) {
        Some(entry) => {
            shared.store_hits.fetch_add(1, Ordering::Relaxed);
            if pm_obs::enabled() {
                pm_obs::count("pmd.plan.store_hits", 1);
            }
            Response::json(200, plan_json(&gen, entry, "store"))
        }
        None => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            Response::json_error(
                404,
                &format!("rank {rank} beyond the store (have {})", gen.store().len()),
            )
        }
    }
}

fn handle_reload(shared: &PmdShared) -> Response {
    // One reload at a time; requests keep serving the old generation
    // while the next one builds outside the generation lock.
    let _serialized = shared.reload.lock().expect("reload lock");
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    match (shared.source)(id) {
        Ok(gen) => {
            let body = format!(
                "{{\n  \"generation\": {},\n  \"plans\": {},\n  \"horizon\": {},\n  \"controllers\": {}\n}}\n",
                gen.id(),
                gen.store().len(),
                gen.store().horizon(),
                gen.net().controllers().len(),
            );
            *shared.current.write().expect("generation lock") = Arc::new(gen);
            shared.reloads.fetch_add(1, Ordering::Relaxed);
            if pm_obs::enabled() {
                pm_obs::count("pmd.reloads", 1);
            }
            Response::json(200, body)
        }
        Err(e) => Response::json_error(500, &format!("reload failed: {e}")),
    }
}

/// The `/plan` and `/plans/:rank` response body. Every field comes from
/// one generation snapshot, so the response can never mix topologies.
fn plan_json(gen: &Generation, entry: &StoredPlan, source: &str) -> String {
    // Plan lines are at least 8 bytes (`full s0\n`) and escaping grows
    // only their newline, by one byte: an eighth more covers the plan.
    let plan = &entry.plan_text;
    let mut out = String::with_capacity(512 + entry.label.len() + plan.len() + plan.len() / 8);
    out.push_str("{\n  \"schema_version\": 1,\n");
    let _ = writeln!(out, "  \"generation\": {},", gen.id());
    let _ = writeln!(out, "  \"source\": \"{source}\",");
    match source {
        "store" => {
            let _ = writeln!(out, "  \"rank\": {},", entry.rank);
        }
        _ => out.push_str("  \"rank\": null,\n"),
    }
    out.push_str("  \"controllers\": [");
    for (i, c) in entry.failed.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}", c.index());
    }
    out.push_str("],\n  \"label\": \"");
    json::escape_into(&entry.label, &mut out);
    out.push_str("\",\n");
    let _ = writeln!(
        out,
        "  \"min_programmability\": {},",
        entry.min_programmability
    );
    let _ = writeln!(
        out,
        "  \"total_programmability\": {},",
        entry.total_programmability
    );
    let _ = writeln!(out, "  \"recovered_flows\": {},", entry.recovered_flows);
    let _ = writeln!(out, "  \"offline_flows\": {},", entry.offline_flows);
    let _ = writeln!(
        out,
        "  \"recovered_switches\": {},",
        entry.recovered_switches
    );
    let _ = writeln!(out, "  \"offline_switches\": {},", entry.offline_switches);
    let _ = writeln!(
        out,
        "  \"store\": {{\"plans\": {}, \"horizon\": {}, \"controllers\": {}}},",
        gen.store().len(),
        gen.store().horizon(),
        gen.net().controllers().len(),
    );
    out.push_str("  \"plan\": \"");
    json::escape_into(plan, &mut out);
    out.push_str("\"\n}\n");
    out
}

fn status_json(shared: &PmdShared) -> Response {
    let gen = shared.snapshot();
    let mut out = String::with_capacity(256);
    out.push_str("{\n  \"schema_version\": 1,\n");
    let _ = writeln!(out, "  \"generation\": {},", gen.id());
    let _ = writeln!(out, "  \"plans\": {},", gen.store().len());
    let _ = writeln!(out, "  \"horizon\": {},", gen.store().horizon());
    let _ = writeln!(out, "  \"controllers\": {},", gen.net().controllers().len());
    let _ = writeln!(
        out,
        "  \"store_build_ms\": {:.3},",
        gen.store().build_elapsed().as_secs_f64() * 1e3
    );
    let _ = writeln!(
        out,
        "  \"served\": {{\"store\": {}, \"solved\": {}, \"rejected\": {}}},",
        shared.store_hits.load(Ordering::Relaxed),
        shared.solved.load(Ordering::Relaxed),
        shared.rejected.load(Ordering::Relaxed),
    );
    let _ = writeln!(
        out,
        "  \"reloads\": {}",
        shared.reloads.load(Ordering::Relaxed)
    );
    out.push_str("}\n");
    Response::json(200, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::SdWanBuilder;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::Duration;

    fn att_source(cfg: PmdConfig) -> GenerationSource {
        Box::new(move |id| {
            let net = SdWanBuilder::att_paper_setup()
                .build()
                .map_err(|e| e.to_string())?;
            Ok(Generation::build(id, net, &cfg))
        })
    }

    fn service() -> PmdService {
        let cfg = PmdConfig {
            horizon: 2,
            jobs: 2,
            workers: 2,
            ..Default::default()
        };
        PmdService::start("127.0.0.1:0", att_source(cfg), cfg).expect("start")
    }

    /// Sends `raw` on a fresh connection; returns `(status line, body)`.
    fn request_text(addr: SocketAddr, raw: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    fn request(addr: SocketAddr, raw: &str) -> (String, json::Value) {
        let (status, body) = request_text(addr, raw);
        (status, json::parse(&body).unwrap_or(json::Value::Null))
    }

    fn post_text(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
        request_text(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (String, json::Value) {
        let (status, body) = post_text(addr, path, body);
        (status, json::parse(&body).unwrap_or(json::Value::Null))
    }

    fn get(addr: SocketAddr, path: &str) -> (String, json::Value) {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    #[test]
    fn serves_store_hits_fallback_solves_and_rank_lookups() {
        let svc = service();
        let addr = svc.local_addr();
        let gen = svc.generation();

        // A node-id failure set within the horizon: served from the store.
        let label = gen.store().get(0).unwrap().label.clone();
        let node: u64 = label
            .trim_matches(|c| c == '(' || c == ')')
            .parse()
            .expect("single-failure label is one node id");
        let (status, v) = post(addr, "/plan", &format!("{{\"fail\": [{node}]}}"));
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(v.get("source").and_then(|s| s.as_str()), Some("store"));
        assert_eq!(v.get("rank").and_then(json::Value::as_u64), Some(0));

        // Controller indices address the same store.
        let (status, v) = post(addr, "/plan", "{\"controllers\": [1, 4]}");
        assert_eq!(status, "HTTP/1.1 200 OK");
        let rank = v.get("rank").and_then(json::Value::as_u64).expect("ranked");
        let (status, by_rank) = get(addr, &format!("/plans/{rank}"));
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(
            by_rank.get("plan").and_then(|p| p.as_str()),
            v.get("plan").and_then(|p| p.as_str()),
        );

        // Beyond the horizon (3 > 2): solved on demand, no rank, and the
        // plan equals what the store-path solver would produce cold.
        let (status, v) = post(addr, "/plan", "{\"controllers\": [0, 2, 5]}");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(v.get("source").and_then(|s| s.as_str()), Some("solved"));
        assert!(matches!(v.get("rank"), Some(json::Value::Null)));
        let (hits, solved) = svc.served();
        assert_eq!((hits, solved), (3, 1));

        // Bad requests: malformed JSON, unknown node, duplicate, empty,
        // everything-failed, bad rank — all 400/404 JSON errors.
        for (path, body, want) in [
            ("/plan", "{not json", "400"),
            ("/plan", "{\"fail\": [9999]}", "400"),
            ("/plan", "{\"controllers\": [1, 1]}", "400"),
            ("/plan", "{\"fail\": []}", "400"),
            ("/plan", "{\"controllers\": [0,1,2,3,4,5]}", "400"),
            ("/plan", "{}", "400"),
        ] {
            let (status, v) = post(addr, path, body);
            assert!(status.contains(want), "{path} {body}: {status}");
            assert!(v.get("error").is_some(), "{path} {body} carries an error");
        }
        let (status, v) = get(addr, "/plans/100000");
        assert!(status.contains("404"), "{status}");
        assert!(v.get("error").is_some());
    }

    #[test]
    fn reload_swaps_the_generation_and_bumps_its_id() {
        let svc = service();
        let addr = svc.local_addr();
        assert_eq!(svc.generation().id(), 1);
        let (status, v) = post(addr, "/reload", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(v.get("generation").and_then(json::Value::as_u64), Some(2));
        assert_eq!(svc.generation().id(), 2);
        // Responses now stamp the new generation.
        let (_, v) = get(addr, "/plans/0");
        assert_eq!(v.get("generation").and_then(json::Value::as_u64), Some(2));
        let (_, v) = get(addr, "/status.json");
        assert_eq!(v.get("reloads").and_then(json::Value::as_u64), Some(1));
    }

    #[test]
    fn shutdown_endpoint_unblocks_the_waiter() {
        let svc = service();
        let addr = svc.local_addr();
        assert!(!svc.shutdown_requested());
        let (status, _) = post(addr, "/shutdown", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
        svc.wait_for_shutdown(); // must not hang
        assert!(svc.shutdown_requested());
    }

    /// The `plan_json` renderer as it was before it escaped into one
    /// buffer, char-by-char escaper included: the oracle that pins the
    /// wire format of plan responses.
    fn plan_json_oracle(gen: &Generation, entry: &StoredPlan, source: &str) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::with_capacity(entry.plan_text.len() + 512);
        out.push_str("{\n  \"schema_version\": 1,\n");
        let _ = writeln!(out, "  \"generation\": {},", gen.id());
        let _ = writeln!(out, "  \"source\": \"{source}\",");
        match source {
            "store" => {
                let _ = writeln!(out, "  \"rank\": {},", entry.rank);
            }
            _ => out.push_str("  \"rank\": null,\n"),
        }
        let ids: Vec<String> = entry.failed.iter().map(|c| c.index().to_string()).collect();
        let _ = writeln!(out, "  \"controllers\": [{}],", ids.join(", "));
        let _ = writeln!(out, "  \"label\": \"{}\",", escape(&entry.label));
        let _ = writeln!(
            out,
            "  \"min_programmability\": {},",
            entry.min_programmability
        );
        let _ = writeln!(
            out,
            "  \"total_programmability\": {},",
            entry.total_programmability
        );
        let _ = writeln!(out, "  \"recovered_flows\": {},", entry.recovered_flows);
        let _ = writeln!(out, "  \"offline_flows\": {},", entry.offline_flows);
        let _ = writeln!(
            out,
            "  \"recovered_switches\": {},",
            entry.recovered_switches
        );
        let _ = writeln!(out, "  \"offline_switches\": {},", entry.offline_switches);
        let _ = writeln!(
            out,
            "  \"store\": {{\"plans\": {}, \"horizon\": {}, \"controllers\": {}}},",
            gen.store().len(),
            gen.store().horizon(),
            gen.net().controllers().len(),
        );
        let _ = writeln!(out, "  \"plan\": \"{}\"", escape(&entry.plan_text));
        out.push_str("}\n");
        out
    }

    #[test]
    fn plan_bodies_match_the_pinned_renderer() {
        let svc = service();
        let addr = svc.local_addr();
        let gen = svc.generation();
        let body_for = |failed: &[ControllerId]| {
            let ids: Vec<String> = failed.iter().map(|c| c.index().to_string()).collect();
            format!("{{\"controllers\": [{}]}}", ids.join(", "))
        };

        // Every store rank, requested as a failure set.
        assert_eq!(gen.store().len(), 21, "ATT: 6 + 15 plans at horizon 2");
        for rank in 0..gen.store().len() {
            let entry = gen.store().get(rank).expect("stored rank");
            let (status, body) = post_text(addr, "/plan", &body_for(&entry.failed));
            assert_eq!(status, "HTTP/1.1 200 OK", "rank {rank}");
            assert_eq!(body, plan_json_oracle(&gen, entry, "store"), "rank {rank}");
        }

        // One failure set beyond the horizon, solved on demand.
        let failed = [ControllerId(0), ControllerId(2), ControllerId(5)];
        let solved = gen.solve_beyond_horizon(&failed).expect("solvable");
        let (status, body) = post_text(addr, "/plan", &body_for(&failed));
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, plan_json_oracle(&gen, &solved, "solved"));
    }
}
