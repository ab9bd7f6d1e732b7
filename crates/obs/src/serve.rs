//! A minimal in-process HTTP/1.1 server — the serving half of the
//! telemetry plane, and the listener the `pmd` resident recovery daemon
//! builds on (ROADMAP item 1).
//!
//! Zero-dep and deliberately small: a hand-rolled request parser that is
//! strict about what it accepts and bounded in what it buffers, a
//! [`Router`] mapping `(method, path pattern)` pairs onto handler
//! closures, and a fixed worker pool (size [`ServeConfig::workers`])
//! draining an accept queue. Read/write timeouts on every connection mean
//! a stuck or torn client can never wedge a worker for more than
//! `IO_TIMEOUT` (5 s); dropping the [`MetricsServer`] guard closes the
//! listener promptly (the drop handshake flips a stop flag and
//! self-connects to unblock `accept`).
//!
//! Parser limits and their status codes:
//!
//! | condition                                    | response             |
//! |----------------------------------------------|----------------------|
//! | request line + headers over 8 KiB            | `431`                |
//! | body over 1 MiB (`Content-Length` bound)     | `413`                |
//! | malformed request line / header / length     | `400`                |
//! | conflicting repeated `Content-Length`        | `400`                |
//! | `Transfer-Encoding` (chunked uploads)        | `501`                |
//! | unknown path                                 | `404`                |
//! | known path, unregistered method              | `405` + `Allow`      |
//! | torn read (EOF or timeout mid-request)       | silent close         |
//!
//! `HEAD` is answered like `GET` with the body suppressed (same status,
//! `Content-Type` and `Content-Length`). Connections default to
//! `Connection: close`; a server configured with
//! [`ServeConfig::keep_alive`] honours an explicit client
//! `Connection: keep-alive` so load generators can reuse sockets.
//!
//! [`MetricsServer::serve`] keeps its historical shape: it serves the
//! metrics route table ([`Router::with_metrics_routes`]) on one worker
//! with keep-alive off — a metrics endpoint is polled by one scraper, and
//! a backlog of slow clients must never pile threads onto a busy sweep.
//! Serving reads the recorder through the same snapshot path as the file
//! exporters, so a scrape can never perturb recorded results.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Per-connection socket timeout: a client that stalls longer than this
/// is dropped so the worker stays live.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Upper bound on the request head (request line + headers) we buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Upper bound on a request body we accept (`Content-Length`).
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper bound on the bytes drained after rejecting a request, so the
/// close is a clean FIN without an unbounded discard loop.
const MAX_DRAIN_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP request, handed to route handlers.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, ...).
    pub method: String,
    /// Raw path without the query string, e.g. `/plans/7`; never
    /// percent-decoded.
    pub path: String,
    /// The query string after `?`, empty when absent.
    pub query: String,
    /// Body bytes (empty unless the client sent `Content-Length`).
    pub body: Vec<u8>,
    headers: Vec<(String, String)>,
    params: Vec<(String, String)>,
}

impl Request {
    /// The first header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The captured value of pattern parameter `:name`, if the matched
    /// route declared one.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text, if it is valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    fn wants_keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

/// One routed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (`200`, `404`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body (suppressed on the wire for `HEAD`, the
    /// `Content-Length` still names it).
    pub body: String,
    allow: Option<String>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            allow: None,
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json; charset=utf-8",
            body: body.into(),
            allow: None,
        }
    }

    /// A JSON error envelope: `{"error": "<message>"}`.
    pub fn json_error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\": \"{}\"}}\n", crate::json::escape(message)),
        )
    }
}

/// The reason phrase written after a status code.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "",
    }
}

type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

enum Seg {
    Lit(String),
    Param(String),
}

struct Route {
    method: &'static str,
    segs: Vec<Seg>,
    handler: Handler,
}

/// A route table: `(method, path pattern)` pairs mapped onto handlers.
/// Patterns are literal paths whose `:name` segments capture one path
/// segment each, retrievable with [`Request::param`].
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let table: Vec<String> = self
            .routes
            .iter()
            .map(|r| format!("{} {}", r.method, pattern_text(&r.segs)))
            .collect();
        f.debug_struct("Router").field("routes", &table).finish()
    }
}

fn pattern_text(segs: &[Seg]) -> String {
    let mut out = String::new();
    for seg in segs {
        out.push('/');
        match seg {
            Seg::Lit(s) => out.push_str(s),
            Seg::Param(p) => {
                out.push(':');
                out.push_str(p);
            }
        }
    }
    if out.is_empty() {
        out.push('/');
    }
    out
}

impl Router {
    /// An empty route table.
    pub fn new() -> Router {
        Router::default()
    }

    /// The metrics route table [`MetricsServer::serve`] has always
    /// exposed — the base every embedding daemon extends:
    ///
    /// | route                  | body                                     |
    /// |------------------------|------------------------------------------|
    /// | `GET /healthz`         | `ok\n`                                   |
    /// | `GET /metrics`         | [`crate::prometheus_text`] (0.0.4)       |
    /// | `GET /metrics.json`    | [`crate::metrics_json`] (schema v1)      |
    /// | `GET /profile.folded`  | [`crate::prof::folded_text`]             |
    pub fn with_metrics_routes() -> Router {
        let mut r = Router::new();
        r.get("/healthz", |_| Response::text(200, "ok\n"));
        r.get("/metrics", |_| Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: crate::prometheus_text(),
            allow: None,
        });
        r.get("/metrics.json", |_| {
            Response::json(200, crate::metrics_json())
        });
        r.get("/profile.folded", |_| {
            Response::text(200, crate::prof::folded_text())
        });
        r
    }

    /// Registers a `GET` (and implicitly `HEAD`) route.
    pub fn get(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) {
        self.route("GET", pattern, handler);
    }

    /// Registers a `POST` route.
    pub fn post(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) {
        self.route("POST", pattern, handler);
    }

    fn route(
        &mut self,
        method: &'static str,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) {
        let segs = pattern
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| match s.strip_prefix(':') {
                Some(name) => Seg::Param(name.to_string()),
                None => Seg::Lit(s.to_string()),
            })
            .collect();
        self.routes.push(Route {
            method,
            segs,
            handler: Box::new(handler),
        });
    }

    /// Dispatches `req`, filling in pattern parameters. Unknown paths get
    /// `404`; known paths with an unregistered method get `405` with an
    /// `Allow` header naming every registered method. A panicking handler
    /// is caught and answered with `500` so one bad request cannot take a
    /// worker down.
    pub fn dispatch(&self, req: &mut Request) -> Response {
        // HEAD is GET minus the body; match it against GET routes.
        let method = if req.method == "HEAD" {
            "GET"
        } else {
            req.method.as_str()
        };
        let path_segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let mut allowed: Vec<&'static str> = Vec::new();
        for route in &self.routes {
            let Some(params) = match_segs(&route.segs, &path_segs) else {
                continue;
            };
            if route.method != method {
                if !allowed.contains(&route.method) {
                    allowed.push(route.method);
                }
                continue;
            }
            req.params = params;
            let run =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (route.handler)(req)));
            return run.unwrap_or_else(|_| Response::text(500, "internal server error\n"));
        }
        if allowed.is_empty() {
            Response::text(404, "not found\n")
        } else {
            Response {
                allow: Some(allowed.join(", ")),
                ..Response::text(405, "method not allowed\n")
            }
        }
    }
}

fn match_segs(pattern: &[Seg], path: &[&str]) -> Option<Vec<(String, String)>> {
    if pattern.len() != path.len() {
        return None;
    }
    let mut params = Vec::new();
    for (seg, &got) in pattern.iter().zip(path) {
        match seg {
            Seg::Lit(want) if want == got => {}
            Seg::Lit(_) => return None,
            Seg::Param(name) => params.push((name.clone(), got.to_string())),
        }
    }
    Some(params)
}

/// Listener tuning for [`MetricsServer::serve_routed`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads draining the accept queue. `1` handles connections
    /// on the accept thread itself (the metrics plane's historical mode).
    pub workers: usize,
    /// Honour a client's explicit `Connection: keep-alive` and serve
    /// multiple requests per connection. Off, every response closes.
    pub keep_alive: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            keep_alive: false,
        }
    }
}

/// A running HTTP listener. The socket closes when this guard drops.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral
    /// port — read it back with [`local_addr`](Self::local_addr)) and
    /// serves the metrics route table on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, permission, bad addr).
    pub fn serve(addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
        Self::serve_routed(addr, Router::with_metrics_routes(), ServeConfig::default())
    }

    /// Binds `addr` and serves `router` with `config` workers — the
    /// entry point daemons like `pmd` use to mount their own routes next
    /// to the metrics plane's.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, permission, bad addr).
    pub fn serve_routed(
        addr: impl ToSocketAddrs,
        router: Router,
        config: ServeConfig,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let router = Arc::new(router);
        let spawn_err = |e: std::io::Error| {
            std::io::Error::new(e.kind(), format!("cannot spawn serve thread: {e}"))
        };
        let mut workers = Vec::new();
        let accept = if config.workers <= 1 {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("pm-obs-serve".into())
                .spawn(move || {
                    accept_loop(&listener, &stop, |stream| {
                        handle_connection(stream, &router, config);
                    });
                })
                .map_err(spawn_err)?
        } else {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            let rx = Arc::new(Mutex::new(rx));
            for w in 0..config.workers {
                let (rx, router) = (Arc::clone(&rx), Arc::clone(&router));
                let handle = std::thread::Builder::new()
                    .name(format!("pm-obs-serve-{w}"))
                    .spawn(move || loop {
                        // Release the receiver lock before handling so the
                        // other workers keep draining the queue.
                        let conn = rx.lock().expect("serve queue lock").recv();
                        match conn {
                            Ok(stream) => handle_connection(stream, &router, config),
                            Err(_) => return, // accept loop gone: drain done
                        }
                    })
                    .map_err(spawn_err)?;
                workers.push(handle);
            }
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("pm-obs-serve".into())
                .spawn(move || {
                    accept_loop(&listener, &stop, |stream| {
                        let _ = tx.send(stream);
                    });
                })
                .map_err(spawn_err)?
        };
        Ok(MetricsServer {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address — the way to learn the real port after binding
    /// `127.0.0.1:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; the loop re-checks the flag first thing.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread owned the queue sender; with it gone the
        // workers drain what was already accepted and exit.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, mut dispatch: impl FnMut(TcpStream)) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _peer)) => {
                // Responses are small and latency-bound: never let Nagle
                // hold a reply segment back waiting for a delayed ACK.
                let _ = stream.set_nodelay(true);
                dispatch(stream);
            }
            Err(_) => {
                // Transient accept errors (EMFILE, aborted handshakes) must
                // not kill the plane; back off briefly and keep serving.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Reads and discards the rest of a rejected request until EOF, bounded
/// by [`MAX_DRAIN_BYTES`] and the socket timeout.
fn drain_to_eof(reader: &mut BufReader<TcpStream>) {
    let mut sink = [0u8; 4096];
    let mut remaining = MAX_DRAIN_BYTES;
    while remaining > 0 {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => remaining = remaining.saturating_sub(n),
        }
    }
}

/// One parse attempt on a connection.
enum Parsed {
    /// A complete request.
    Ok(Request),
    /// Clean end of the connection (EOF between requests) or a torn read
    /// (EOF or timeout mid-request) — nothing useful can be answered.
    Closed,
    /// A protocol violation: answer `0` and close.
    Reject(Response),
}

fn handle_connection(stream: TcpStream, router: &Router, config: ServeConfig) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            Parsed::Closed => return,
            Parsed::Reject(resp) => {
                // Framing is unknown after a protocol error: always close.
                let _ = write_response(reader.get_mut(), &resp, false, false);
                // Drain what the client is still sending (bounded) so the
                // close is a clean FIN, not an RST that could discard the
                // error response before the client reads it.
                drain_to_eof(&mut reader);
                return;
            }
            Parsed::Ok(mut req) => {
                let keep_alive = config.keep_alive && req.wants_keep_alive();
                let head_only = req.method == "HEAD";
                let resp = router.dispatch(&mut req);
                if crate::enabled() {
                    crate::count("obs.serve.requests", 1);
                }
                if write_response(reader.get_mut(), &resp, head_only, keep_alive).is_err()
                    || !keep_alive
                {
                    return;
                }
            }
        }
    }
}

/// Reads and validates one request from the connection. The request head
/// (request line + headers) shares a [`MAX_REQUEST_BYTES`] budget — a
/// head that exceeds it is `431`, never an unbounded buffer or a hang —
/// and the body is bounded by [`MAX_BODY_BYTES`] (`413` beyond it).
fn read_request(reader: &mut BufReader<TcpStream>) -> Parsed {
    let mut budget = MAX_REQUEST_BYTES;
    let request_line = match read_crlf_line(reader, &mut budget) {
        LineRead::Line(l) => l,
        LineRead::Closed => return Parsed::Closed,
        LineRead::TooLong => return Parsed::Reject(Response::text(431, "request line too long\n")),
        LineRead::Malformed => return Parsed::Reject(Response::text(400, "bad request\n")),
    };
    let mut parts = request_line.split(' ');
    let (method, path, version) = (
        parts.next().unwrap_or(""),
        parts.next().unwrap_or(""),
        parts.next().unwrap_or(""),
    );
    if method.is_empty()
        || !path.starts_with('/')
        || !version.starts_with("HTTP/1.")
        || parts.next().is_some()
    {
        return Parsed::Reject(Response::text(400, "bad request\n"));
    }
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (path.to_string(), String::new()),
    };
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_crlf_line(reader, &mut budget) {
            LineRead::Line(l) => l,
            LineRead::Closed => return Parsed::Closed, // torn mid-head
            LineRead::TooLong => {
                return Parsed::Reject(Response::text(431, "request header fields too large\n"))
            }
            LineRead::Malformed => return Parsed::Reject(Response::text(400, "bad request\n")),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Reject(Response::text(400, "malformed header line\n"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Parsed::Reject(Response::text(501, "transfer encodings not supported\n"));
    }
    // Every `Content-Length` must be plain ASCII digits (no sign, no
    // list) and all of them must agree: a request two parsers could frame
    // differently is refused, not guessed at.
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let len = match v.parse::<usize>() {
            Ok(len) if v.bytes().all(|b| b.is_ascii_digit()) => len,
            _ => return Parsed::Reject(Response::text(400, "malformed content-length\n")),
        };
        if content_length.is_some_and(|first| first != len) {
            return Parsed::Reject(Response::text(400, "conflicting content-length\n"));
        }
        content_length = Some(len);
    }
    let mut body = Vec::new();
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Parsed::Reject(Response::text(413, "request body too large\n"));
        }
        body.resize(len, 0);
        if reader.read_exact(&mut body).is_err() {
            return Parsed::Closed; // torn mid-body
        }
    }
    let method = method.to_string();
    Parsed::Ok(Request {
        method,
        path,
        query,
        body,
        headers,
        params: Vec::new(),
    })
}

enum LineRead {
    Line(String),
    /// EOF or IO error (including a read timeout): close silently.
    Closed,
    /// The shared head budget ran out before the line terminator.
    TooLong,
    /// The line is not UTF-8.
    Malformed,
}

/// Reads one `\r\n`- (or `\n`-) terminated line, charging its bytes to
/// `budget`.
fn read_crlf_line(reader: &mut BufReader<TcpStream>, budget: &mut usize) -> LineRead {
    let mut line = Vec::new();
    let mut bounded = Read::by_ref(reader).take(*budget as u64);
    match bounded.read_until(b'\n', &mut line) {
        Ok(0) | Err(_) => return LineRead::Closed,
        Ok(_) => {}
    }
    *budget -= line.len();
    if line.last() != Some(&b'\n') {
        // No terminator: either the budget cut us off (oversized head) or
        // the client went away mid-line (torn read).
        return if *budget == 0 {
            LineRead::TooLong
        } else {
            LineRead::Closed
        };
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(s) => LineRead::Line(s),
        Err(_) => LineRead::Malformed,
    }
}

fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    head_only: bool,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let reason = reason(resp.status);
    let body = if head_only { "" } else { resp.body.as_str() };
    // One buffer, one write: head and body split across two TCP segments
    // interacts with Nagle + delayed ACK into ~40 ms response stalls. The
    // head's fixed text, status code and length fit in 128 bytes.
    let allow_len = resp.allow.as_ref().map_or(0, String::len);
    let head_len = 128 + reason.len() + resp.content_type.len() + allow_len;
    let mut out = String::with_capacity(head_len + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        resp.content_type,
        resp.body.len()
    );
    if let Some(methods) = &resp.allow {
        let _ = write!(out, "Allow: {methods}\r\n");
    }
    let _ = write!(out, "Connection: {connection}\r\n\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A blocking one-shot HTTP GET against `addr`; returns
    /// `(status line, body)`.
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    #[test]
    fn serves_health_and_metrics() {
        let _g = crate::tests::guard();
        crate::enable();
        crate::reset();
        crate::count("serve.test.counter", 11);
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(
            body.contains("pm_serve_test_counter_total 11"),
            "live prometheus body: {body}"
        );

        let (status, body) = http_get(addr, "/metrics.json");
        assert_eq!(status, "HTTP/1.1 200 OK");
        crate::json::validate(&body).expect("metrics.json parses");
        assert!(body.contains("\"serve.test.counter\": 11"));

        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        // The serve counter itself advanced (live recorder, not a copy).
        let (_, body) = http_get(addr, "/metrics.json");
        assert!(body.contains("\"obs.serve.requests\""), "{body}");
    }

    /// Sends a raw request and returns the full response text. Write
    /// errors are tolerated (the server may reject mid-send) and the
    /// write side is shut down so a rejected request drains to EOF.
    fn raw_request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.write_all(request.as_bytes());
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        raw
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let _g = crate::tests::guard();
        crate::enable();
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        // Non-GET/HEAD verbs get a 405 that names the allowed method.
        for verb in ["POST", "PUT", "DELETE"] {
            let raw = raw_request(
                addr,
                &format!("{verb} /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            );
            assert!(raw.starts_with("HTTP/1.1 405 "), "{raw}");
            assert!(raw.contains("\r\nAllow: GET\r\n"), "{raw}");
        }
        // Allowed requests never carry the Allow header.
        let raw = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(!raw.contains("Allow:"), "{raw}");

        let raw = raw_request(addr, "GARBAGE\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    }

    #[test]
    fn head_matches_get_with_an_empty_body() {
        let _g = crate::tests::guard();
        crate::enable();
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        // Same status and Content-Length as the GET, no body bytes.
        let raw = raw_request(addr, "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{raw}");
        assert!(head.contains("\r\nContent-Length: 3"), "{raw}");
        assert_eq!(body, "", "HEAD must not carry a body");

        // Unknown paths keep their 404 under HEAD too.
        let raw = raw_request(addr, "HEAD /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 404 "), "{raw}");
        assert!(raw.ends_with("\r\n\r\n"), "no body: {raw}");
    }

    #[test]
    fn serves_the_live_folded_profile() {
        let _g = crate::tests::guard();
        crate::enable();
        crate::reset();
        {
            let _s = crate::span("serve.profiled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let dur_ns = crate::prof::recorded_spans()[0].dur_ns;
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let (status, body) = http_get(server.local_addr(), "/profile.folded");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, format!("serve.profiled {dur_ns}\n"));
    }

    #[test]
    fn drop_closes_the_listener_promptly() {
        let server = MetricsServer::serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        drop(server);
        // The port is released: either connect fails outright or the
        // socket EOFs without an HTTP response.
        match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Err(_) => {}
            Ok(mut s) => {
                s.set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                let mut raw = String::new();
                let n = s.read_to_string(&mut raw).unwrap_or(0);
                assert_eq!(n, 0, "no handler should answer: {raw}");
            }
        }
    }

    /// A router with one GET and two POST routes, the shape `pmd` mounts.
    fn demo_router() -> Router {
        let mut r = Router::with_metrics_routes();
        r.post("/plan", |req| match req.body_str() {
            Some(body) if body.contains("ok") => Response::json(200, "{\"plan\": true}\n"),
            _ => Response::json_error(400, "body must mention ok"),
        });
        r.get("/plans/:rank", |req| {
            let rank = req.param("rank").expect("declared parameter");
            match rank.parse::<u64>() {
                Ok(r) => Response::json(200, format!("{{\"rank\": {r}}}\n")),
                Err(_) => Response::json_error(400, "rank must be an integer"),
            }
        });
        r.post("/boom", |_| panic!("handler exploded"));
        r
    }

    fn demo_server(workers: usize, keep_alive: bool) -> MetricsServer {
        MetricsServer::serve_routed(
            "127.0.0.1:0",
            demo_router(),
            ServeConfig {
                workers,
                keep_alive,
            },
        )
        .expect("bind")
    }

    #[test]
    fn routes_post_bodies_and_path_params() {
        let _g = crate::tests::guard();
        let server = demo_server(2, false);
        let addr = server.local_addr();

        let body = "{\"ok\": 1}";
        let raw = raw_request(
            addr,
            &format!(
                "POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(raw.starts_with("HTTP/1.1 200 OK"), "{raw}");
        assert!(raw.ends_with("{\"plan\": true}\n"), "{raw}");

        // Malformed body: 400 with a JSON error envelope.
        let raw = raw_request(
            addr,
            "POST /plan HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nno",
        );
        assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
        assert!(raw.contains("{\"error\": "), "{raw}");

        // Path parameters are captured and handed to the handler.
        let (status, body) = http_get(addr, "/plans/42");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "{\"rank\": 42}\n");
        let (status, _) = http_get(addr, "/plans/x");
        assert_eq!(status, "HTTP/1.1 400 Bad Request");
        // A parameterized route does not swallow deeper paths.
        let (status, _) = http_get(addr, "/plans/42/extra");
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        // GET on a POST-only route names POST in Allow.
        let raw = raw_request(addr, "GET /plan HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 405 "), "{raw}");
        assert!(raw.contains("\r\nAllow: POST\r\n"), "{raw}");
    }

    #[test]
    fn oversized_heads_are_431_not_a_hang() {
        let _g = crate::tests::guard();
        let server = demo_server(1, false);
        let addr = server.local_addr();

        // A request line far beyond the 8 KiB head budget.
        let long = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(3 * MAX_REQUEST_BYTES)
        );
        let raw = raw_request(addr, &long);
        assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");

        // Ordinary request line, oversized header block.
        let raw = raw_request(
            addr,
            &format!(
                "GET /healthz HTTP/1.1\r\nX-Big: {}\r\n\r\n",
                "b".repeat(3 * MAX_REQUEST_BYTES)
            ),
        );
        assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
    }

    #[test]
    fn oversized_and_malformed_bodies_are_rejected() {
        let _g = crate::tests::guard();
        let server = demo_server(1, false);
        let addr = server.local_addr();

        // Content-Length beyond the body bound: rejected before any body
        // byte is read.
        let raw = raw_request(
            addr,
            &format!(
                "POST /plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ),
        );
        assert!(raw.starts_with("HTTP/1.1 413 "), "{raw}");

        // Content-Length must be ASCII digits, and repeated headers must
        // agree. The body is a valid 9-byte plan request, so a signed
        // length (`usize::from_str` reads `+9` as 9) or the first of two
        // conflicting headers would otherwise be served a 200.
        let body = "{\"ok\": 1}";
        for (lengths, want) in [
            ("Content-Length: 9\r\nContent-Length: 9\r\n", "200"),
            ("Content-Length: banana\r\n", "400"),
            ("Content-Length: +9\r\n", "400"),
            ("Content-Length: 9\r\nContent-Length: 10\r\n", "400"),
        ] {
            let raw = raw_request(addr, &format!("POST /plan HTTP/1.1\r\n{lengths}\r\n{body}"));
            assert!(
                raw.starts_with(&format!("HTTP/1.1 {want} ")),
                "{lengths}: {raw}"
            );
        }

        // Chunked uploads are explicitly unimplemented, not mis-framed.
        let raw = raw_request(
            addr,
            "POST /plan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 501 "), "{raw}");

        // A header line without a colon is a 400, not a silent drop.
        let raw = raw_request(addr, "GET /healthz HTTP/1.1\r\nnocolonhere\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    }

    #[test]
    fn torn_reads_close_without_wedging_the_server() {
        let _g = crate::tests::guard();
        let server = demo_server(2, false);
        let addr = server.local_addr();

        // Half a request line, then the client goes away.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = write!(s, "GET /hea");
        }
        // Headers promised, never delivered.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = write!(s, "GET /healthz HTTP/1.1\r\nHost: x\r\n");
        }
        // A body shorter than its Content-Length.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = write!(s, "POST /plan HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort");
        }
        // The listener is still healthy afterwards.
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let _g = crate::tests::guard();
        let server = demo_server(2, true);
        let addr = server.local_addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for i in 0..3 {
            write!(
                s,
                "GET /plans/{i} HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
            )
            .unwrap();
            let mut reader = BufReader::new(&mut s);
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
                if line == "\r\n" {
                    break;
                }
                assert!(
                    !line.to_ascii_lowercase().contains("connection: close"),
                    "keep-alive honoured: {line}"
                );
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert_eq!(
                String::from_utf8(body).unwrap(),
                format!("{{\"rank\": {i}}}\n")
            );
        }
        // Without the explicit header the server closes after one response.
        let (status, _) = http_get(addr, "/plans/9");
        assert_eq!(status, "HTTP/1.1 200 OK");
    }

    #[test]
    fn panicking_handler_answers_500_and_survives() {
        let _g = crate::tests::guard();
        let server = demo_server(1, false);
        let addr = server.local_addr();
        let raw = raw_request(addr, "POST /boom HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(raw.starts_with("HTTP/1.1 500 "), "{raw}");
        // The same worker keeps serving.
        let (status, _) = http_get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
}
