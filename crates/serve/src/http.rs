//! The HTTP/1.1 front end.
//!
//! Built on `std::net` only — the workspace vendors no async runtime. A
//! request is served on one thread, from socket read to socket write:
//!
//! ```text
//!   one non-blocking TcpListener, polled by every worker
//!        │  (a wake accepts at most one connection; it stays with that worker)
//!        ▼
//!   N php-worker threads, each a poll(2) loop over its own sockets:
//!     read → buffer → parse_request (incomplete waits, pipelined in order)
//!       → middleware chain  (rate limit → access log → error pages → encoding)
//!       → admission control (depth: parsed, not yet served; 503)
//!       → Server::step      (faults → breakers → sandbox → memo → replay)
//!       → publish totals → buffered write (POLLOUT while the socket is full)
//! ```
//!
//! The HTTP layer is a *transport* over the same [`Server::step`] the
//! deterministic pool drives: a worker owns a private [`PhpMachine`]
//! wrapped in a `Server`, pulls each request's due faults from one shared
//! global [`FaultPlan`], and serves corpus scripts through the full
//! sandbox/fault/breaker/memo pipeline. With `reset_between_requests` every
//! response is machine-history-independent, so the bytes served over a
//! socket are byte-identical to driving the `Server` directly on the same
//! request indices — the end-to-end test's invariant, and the reason HTTP
//! never becomes a second execution path.
//!
//! Internal endpoints: `GET /health` (liveness) and `GET /metrics`
//! (Prometheus text format, schema in [`crate::metrics_text`]). Application
//! traffic is `GET /run/<corpus-script>`.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, ShedCause};
use crate::breaker::BreakerConfig;
use crate::fault::FaultPlan;
use crate::hist::Histogram;
use crate::memo::MemoCache;
use crate::metrics_text::{render_prometheus, MetricsSnapshot};
use crate::middleware::{
    AccessLog, ErrorPages, IdentityEncoding, Middleware as _, MiddlewareChain, MiddlewareRequest,
    RateLimit,
};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::sandbox::SandboxConfig;
use crate::server::{Scripts, Server, Totals};
use php_interp::MemoTier;
use phpaccel_core::{Engine, PhpMachine};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Hard limits the parser enforces before allocating or trusting anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum request-line length in bytes (414 beyond it).
    pub max_request_line: usize,
    /// Maximum single header line length in bytes (431 beyond it).
    pub max_header_line: usize,
    /// Maximum number of header lines (431 beyond it).
    pub max_headers: usize,
    /// Maximum declared body size in bytes (413 beyond it).
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 8192,
            max_header_line: 8192,
            max_headers: 100,
            max_body: 1 << 20,
        }
    }
}

/// Why a request failed to parse. [`HttpParseError::status`] maps each
/// variant to the response the connection sends before closing; `Eof` and
/// `Io` get no response (the peer is gone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// Clean end of stream before any request byte — a closed keep-alive.
    Eof,
    /// Transport error mid-request.
    Io(ErrorKind),
    /// Request line exceeded [`HttpLimits::max_request_line`].
    RequestLineTooLong,
    /// Request line was not `METHOD TARGET HTTP/x.y`.
    MalformedRequestLine,
    /// HTTP version other than 1.0 / 1.1.
    UnsupportedVersion,
    /// A header line had no colon or an empty name.
    MalformedHeader,
    /// A header line exceeded [`HttpLimits::max_header_line`].
    HeaderTooLong,
    /// More than [`HttpLimits::max_headers`] header lines.
    TooManyHeaders,
    /// `Content-Length` was not a decimal integer.
    InvalidContentLength,
    /// Declared body exceeded [`HttpLimits::max_body`].
    BodyTooLarge,
    /// A `Transfer-Encoding` other than `identity` (chunked is not
    /// implemented; the server never advertises it).
    UnsupportedTransferEncoding,
    /// The stream ended mid-request (truncated headers or body).
    UnexpectedEof,
}

impl HttpParseError {
    /// The status code to answer with, or `None` when the peer is gone and
    /// no response can be delivered.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpParseError::Eof | HttpParseError::Io(_) => None,
            HttpParseError::RequestLineTooLong => Some(414),
            HttpParseError::MalformedRequestLine
            | HttpParseError::MalformedHeader
            | HttpParseError::InvalidContentLength
            | HttpParseError::UnexpectedEof => Some(400),
            HttpParseError::UnsupportedVersion => Some(505),
            HttpParseError::HeaderTooLong | HttpParseError::TooManyHeaders => Some(431),
            HttpParseError::BodyTooLarge => Some(413),
            HttpParseError::UnsupportedTransferEncoding => Some(501),
        }
    }
}

/// HTTP version of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// HTTP/1.0 (keep-alive is opt-in).
    H10,
    /// HTTP/1.1 (keep-alive is the default).
    H11,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, as received (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target (path + query, undecoded).
    pub target: String,
    /// Percent-decoded path component.
    pub path: String,
    /// Decoded query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Protocol version.
    pub version: HttpVersion,
    /// Headers in order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes (excluding the
/// terminator). Distinguishes clean EOF, truncation, and oversize.
fn read_line_bounded<R: BufRead>(
    r: &mut R,
    max: usize,
    oversize: HttpParseError,
) -> Result<Vec<u8>, HttpParseError> {
    let mut buf = Vec::new();
    let mut limited = r.by_ref().take(max as u64 + 2);
    match limited.read_until(b'\n', &mut buf) {
        Ok(_) => {}
        Err(e) => return Err(HttpParseError::Io(e.kind())),
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if buf.len() > max {
            return Err(oversize);
        }
        Ok(buf)
    } else if buf.len() > max {
        Err(oversize)
    } else if buf.is_empty() {
        Err(HttpParseError::Eof)
    } else {
        Err(HttpParseError::UnexpectedEof)
    }
}

/// Decodes `%XX` escapes (and, in query mode, `+` as space). Invalid or
/// truncated escapes pass through literally; the result is lossy UTF-8 —
/// decoding never fails and never panics.
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into a decoded path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(kv, true), String::new()),
        })
        .collect();
    (percent_decode(path, false), pairs)
}

/// Parses one HTTP/1.x request from `r` under `limits`. Never panics on any
/// input (see the `http_parser_prop` proptest); every malformed or
/// oversized input maps to an [`HttpParseError`] the connection can answer
/// and close on.
pub fn parse_request<R: BufRead>(
    r: &mut R,
    limits: &HttpLimits,
) -> Result<HttpRequest, HttpParseError> {
    let line = read_line_bounded(
        r,
        limits.max_request_line,
        HttpParseError::RequestLineTooLong,
    )?;
    let line = String::from_utf8_lossy(&line).into_owned();
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpParseError::MalformedRequestLine),
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpParseError::MalformedRequestLine);
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(HttpParseError::MalformedRequestLine);
    }
    let version = match version {
        "HTTP/1.1" => HttpVersion::H11,
        "HTTP/1.0" => HttpVersion::H10,
        _ => return Err(HttpParseError::UnsupportedVersion),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let raw = match read_line_bounded(r, limits.max_header_line, HttpParseError::HeaderTooLong)
        {
            Ok(raw) => raw,
            // Truncation inside the header block is never a clean EOF.
            Err(HttpParseError::Eof) => return Err(HttpParseError::UnexpectedEof),
            Err(e) => return Err(e),
        };
        if raw.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpParseError::TooManyHeaders);
        }
        let raw = String::from_utf8_lossy(&raw).into_owned();
        let Some((name, value)) = raw.split_once(':') else {
            return Err(HttpParseError::MalformedHeader);
        };
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpParseError::MalformedHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if let Some(te) = find("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpParseError::UnsupportedTransferEncoding);
        }
    }
    let content_length = match find("content-length") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| HttpParseError::InvalidContentLength)?,
        None => 0,
    };
    if content_length > limits.max_body as u64 {
        return Err(HttpParseError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length as usize];
    if content_length > 0 {
        r.read_exact(&mut body).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => HttpParseError::UnexpectedEof,
            kind => HttpParseError::Io(kind),
        })?;
    }

    let keep_alive = match (version, find("connection")) {
        (_, Some(c)) if c.eq_ignore_ascii_case("close") => false,
        (HttpVersion::H10, Some(c)) if c.eq_ignore_ascii_case("keep-alive") => true,
        (HttpVersion::H10, _) => false,
        (HttpVersion::H11, _) => true,
    };
    let (path, query) = split_target(target);
    Ok(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        path,
        query,
        version,
        headers,
        body,
        keep_alive,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The canonical reason phrase for a status code.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// One response under construction (middleware mutates it in place).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers in order, names lowercased. `content-length` and
    /// `connection` are emitted by [`HttpResponse::write_to`] and must not
    /// be set here.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse::new(status)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// A `text/html` response.
    pub fn html(status: u16, body: Vec<u8>) -> Self {
        HttpResponse::new(status)
            .with_header("content-type", "text/html; charset=utf-8")
            .with_body(body)
    }

    /// Appends a header (name lowercased).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers
            .push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// Replaces the body.
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sets or replaces a header in place.
    pub fn set_header(&mut self, name: &str, value: &str) {
        let name = name.to_ascii_lowercase();
        match self.headers.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value.to_string(),
            None => self.headers.push((name, value.to_string())),
        }
    }

    /// Serializes the response, adding `content-length` and `connection`.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        write!(w, "content-length: {}\r\n", self.body.len())?;
        write!(
            w,
            "connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// How long a connection may sit idle, hold a partial request, or hold
/// output its peer does not read before its worker closes it.
const CONN_DEADLINE: Duration = Duration::from_secs(5);

/// Bytes one `read` takes off a socket.
const READ_CHUNK: usize = 16 * 1024;

/// Front-end configuration. The request step reuses the same knobs as
/// [`crate::pool::PoolConfig`], so a loopback run is directly comparable to
/// a pool run.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// PHP worker threads (≥ 1).
    pub workers: usize,
    /// Execution engine on every worker machine.
    pub engine: Engine,
    /// Breaker configuration for every worker's four breakers.
    pub breaker_cfg: BreakerConfig,
    /// Per-request sandbox limits.
    pub sandbox: SandboxConfig,
    /// Global fault plan; workers pull each request's due faults from it.
    pub plan: FaultPlan,
    /// Replay each successful request on a per-worker all-software
    /// reference and count byte mismatches.
    pub reference: bool,
    /// Restore machines to a pristine request boundary after every request.
    /// Required for byte-identity with a directly-driven [`Server`]: a
    /// connection is served by whichever worker accepted it, so responses
    /// must not depend on machine history.
    pub reset_between_requests: bool,
    /// Arena/epoch allocation on worker machines.
    pub arena: bool,
    /// Shared cross-request memo tier.
    pub memo: Option<Arc<MemoCache>>,
    /// Parser limits.
    pub limits: HttpLimits,
    /// Deadline-aware admission control; `None` admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Token-bucket rate limiting `(capacity, refill_per_sec)`; `None`
    /// disables the stage.
    pub rate_limit: Option<(u64, f64)>,
    /// Maximum concurrent connections; beyond it new connections get an
    /// immediate 503 and close.
    pub max_connections: usize,
    /// Maximum requests served per keep-alive connection.
    pub max_keep_alive_requests: usize,
}

impl HttpConfig {
    /// A loopback configuration with `workers` workers, reference replay
    /// and reset-between-requests on, and no faults, admission, or rate
    /// limiting.
    pub fn loopback(workers: usize) -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            engine: Engine::Vm,
            breaker_cfg: BreakerConfig::default(),
            sandbox: SandboxConfig::unlimited(),
            plan: FaultPlan::default(),
            reference: true,
            reset_between_requests: true,
            arena: false,
            memo: None,
            limits: HttpLimits::default(),
            admission: None,
            rate_limit: None,
            max_connections: 256,
            max_keep_alive_requests: 10_000,
        }
    }
}

/// Point-in-time front-door counters (everything that happens to a
/// request outside [`Server::step`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused because `max_connections` was reached.
    pub connections_refused: u64,
    /// Requests parsed successfully.
    pub http_requests: u64,
    /// Requests that failed to parse (answered 4xx/5xx and closed).
    pub parse_errors: u64,
    /// `/run/<name>` lookups that missed the corpus.
    pub not_found: u64,
    /// Non-GET requests refused with 405.
    pub method_not_allowed: u64,
    /// Requests refused with 429 by the rate limiter.
    pub rate_limited: u64,
    /// Arrivals shed by admission control (predicted deadline miss).
    pub shed_over_budget: u64,
    /// Arrivals shed because admission's queue bound was reached.
    pub shed_queue_full: u64,
    /// `/health` requests served.
    pub health_requests: u64,
    /// `/metrics` requests served.
    pub metrics_requests: u64,
}

impl FrontSnapshot {
    /// Total arrivals refused with 503 before reaching a worker.
    pub fn shed_total(&self) -> u64 {
        self.shed_over_budget + self.shed_queue_full
    }
}

#[derive(Debug, Default)]
struct FrontCounters {
    connections: AtomicU64,
    connections_refused: AtomicU64,
    http_requests: AtomicU64,
    parse_errors: AtomicU64,
    not_found: AtomicU64,
    method_not_allowed: AtomicU64,
    shed_over_budget: AtomicU64,
    shed_queue_full: AtomicU64,
    health_requests: AtomicU64,
    metrics_requests: AtomicU64,
}

/// What every worker shares.
struct FrontState {
    /// Non-blocking; every worker polls it and accepts from it.
    listener: TcpListener,
    corpus: Arc<workloads::php_corpus::CorpusCache>,
    /// Requests parsed out of some connection's input and not yet served,
    /// over all workers: admission's queue depth.
    queue_depth: AtomicUsize,
    next_request: AtomicU64,
    admission: Option<Mutex<AdmissionController>>,
    plan: Mutex<FaultPlan>,
    /// Each worker's totals, republished after every request it serves.
    snapshots: Vec<Mutex<Totals>>,
    front: FrontCounters,
    shed_depth: Mutex<Histogram>,
    chain: MiddlewareChain,
    access_log: Arc<AccessLog>,
    rate_limit: Option<Arc<RateLimit>>,
    memo: Option<Arc<MemoCache>>,
    /// [`HttpConfig::reset_between_requests`].
    reset: bool,
    shutdown: AtomicBool,
    /// Open connections over all workers.
    conn_count: AtomicUsize,
    limits: HttpLimits,
    max_connections: usize,
    max_keep_alive_requests: usize,
}

impl FrontState {
    /// Merges the workers' published totals and the front door's counters
    /// into one metrics snapshot. Front sheds are folded into the merged
    /// [`crate::ServeStats`] (`requests`/`shed`/arrival-depth histogram) so
    /// its outcome counters partition every arrival, exactly as in the
    /// overload layer.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let front = FrontSnapshot {
            connections: load(&self.front.connections),
            connections_refused: load(&self.front.connections_refused),
            http_requests: load(&self.front.http_requests),
            parse_errors: load(&self.front.parse_errors),
            not_found: load(&self.front.not_found),
            method_not_allowed: load(&self.front.method_not_allowed),
            rate_limited: self.rate_limit.as_ref().map_or(0, |r| r.limited()),
            shed_over_budget: load(&self.front.shed_over_budget),
            shed_queue_full: load(&self.front.shed_queue_full),
            health_requests: load(&self.front.health_requests),
            metrics_requests: load(&self.front.metrics_requests),
        };
        let mut totals = Totals::default();
        for slot in &self.snapshots {
            totals.merge(&slot.lock().unwrap_or_else(|e| e.into_inner()));
        }
        let sheds = front.shed_total();
        totals.stats.requests += sheds;
        totals.stats.shed += sheds;
        totals
            .stats
            .queue_depth
            .merge(&self.shed_depth.lock().unwrap_or_else(|e| e.into_inner()));
        MetricsSnapshot {
            totals,
            memo: self.memo.as_ref().map(|m| m.stats()),
            front,
        }
    }
}

/// End-of-run report returned by [`HttpServer::shutdown`]: the final
/// [`MetricsSnapshot`] (which the report derefs to, so loopback runs
/// reconcile field for field against pool runs and `/metrics`) plus the
/// access log.
#[derive(Debug)]
pub struct HttpReport {
    /// What `/metrics` would render after the last request.
    pub snapshot: MetricsSnapshot,
    /// The last [`AccessLog::CAPACITY`] access-log lines, oldest first.
    pub access_log: Vec<String>,
}

impl std::ops::Deref for HttpReport {
    type Target = MetricsSnapshot;

    fn deref(&self) -> &MetricsSnapshot {
        &self.snapshot
    }
}

/// A running front end. Dropping the handle without calling
/// [`HttpServer::shutdown`] leaves the threads running for the process
/// lifetime (the `serve_http` binary relies on that).
pub struct HttpServer {
    state: Arc<FrontState>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr())
            .finish()
    }
}

impl HttpServer {
    /// Binds, spawns `cfg.workers` worker threads, and returns a handle.
    /// `corpus` provides the `/run/<name>` scripts.
    pub fn start(
        cfg: HttpConfig,
        corpus: Arc<workloads::php_corpus::CorpusCache>,
    ) -> std::io::Result<HttpServer> {
        assert!(cfg.workers > 0, "the front end needs at least one worker");
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        listener.set_nonblocking(true)?;

        let access_log = Arc::new(AccessLog::new());
        let rate_limit = cfg
            .rate_limit
            .map(|(cap, refill)| Arc::new(RateLimit::new(cap, refill)));
        let mut chain = MiddlewareChain::new();
        if let Some(rl) = &rate_limit {
            chain = chain.with(Arc::clone(rl));
        }
        chain = chain
            .with(Arc::clone(&access_log))
            .with(ErrorPages)
            .with(IdentityEncoding);

        let state = Arc::new(FrontState {
            listener,
            corpus,
            queue_depth: AtomicUsize::new(0),
            next_request: AtomicU64::new(0),
            admission: cfg
                .admission
                .map(|a| Mutex::new(AdmissionController::new(a))),
            plan: Mutex::new(cfg.plan.clone()),
            // One all-zero row per worker until it first publishes, so row
            // `w` of a merged snapshot is always worker `w`.
            snapshots: (0..cfg.workers)
                .map(|_| {
                    Mutex::new(Totals {
                        breaker_states: vec![[0; 4]],
                        worker_uops: vec![0],
                        ..Totals::default()
                    })
                })
                .collect(),
            front: FrontCounters::default(),
            shed_depth: Mutex::new(Histogram::new()),
            chain,
            access_log,
            rate_limit,
            memo: cfg.memo.clone(),
            reset: cfg.reset_between_requests,
            shutdown: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            limits: cfg.limits,
            max_connections: cfg.max_connections.max(1),
            max_keep_alive_requests: cfg.max_keep_alive_requests.max(1),
        });

        let workers = (0..cfg.workers)
            .map(|w| {
                let (state, cfg) = (Arc::clone(&state), cfg.clone());
                std::thread::Builder::new()
                    .name(format!("php-worker-{w}"))
                    .spawn(move || Worker::new(w, &cfg, &state).run())
                    .expect("spawn worker thread")
            })
            .collect();

        Ok(HttpServer { state, workers })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.state.listener.local_addr().expect("bound listener")
    }

    /// A point-in-time metrics snapshot (what `/metrics` renders).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.state.metrics_snapshot()
    }

    /// Stops the workers (each closes its connections), joins them, and
    /// returns the final report.
    pub fn shutdown(self) -> HttpReport {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // No worker accepts once the flag is set, so one connection leaves
        // the shared listener readable for good: every worker's `poll`
        // returns and sees the flag.
        let _ = TcpStream::connect(self.addr());
        for h in self.workers {
            let _ = h.join();
        }
        HttpReport {
            snapshot: self.state.metrics_snapshot(),
            access_log: self.state.access_log.lines(),
        }
    }
}

/// One accepted connection, owned by the worker that accepted it.
struct Conn {
    /// Non-blocking.
    stream: TcpStream,
    /// Received bytes not yet parsed: at most one partial request.
    input: Vec<u8>,
    /// Complete requests not yet served, in arrival order, then whatever
    /// ended the input (a parse error or the peer's end of stream).
    parsed: VecDeque<Result<HttpRequest, HttpParseError>>,
    /// Response bytes owed to the peer, from `written` on.
    output: Vec<u8>,
    written: usize,
    /// Requests served on this connection.
    served: usize,
    /// Nothing more is served; the connection closes once `output` is
    /// written.
    closing: bool,
    /// When the connection began waiting on its peer: idle, partway
    /// through a request, or with output the peer does not take.
    since: Instant,
}

impl Conn {
    /// Response bytes not yet written.
    fn owed(&self) -> usize {
        self.output.len() - self.written
    }

    /// Serves nothing more on this connection.
    fn close(&mut self, state: &FrontState) {
        self.closing = true;
        state
            .queue_depth
            .fetch_sub(self.parsed.len(), Ordering::SeqCst);
        self.parsed.clear();
    }

    /// Closes without writing what is owed: the peer is gone.
    fn abort(&mut self, state: &FrontState) {
        self.close(state);
        self.output.clear();
        self.written = 0;
    }

    /// Reads what the socket holds and parses every complete request in
    /// the input. An incomplete request waits for more bytes.
    fn fill(&mut self, chunk: &mut [u8], state: &FrontState, now: Instant) {
        let eof = match (&self.stream).read(chunk) {
            Ok(0) => true,
            Ok(n) => {
                if self.input.is_empty() {
                    self.since = now;
                }
                self.input.extend_from_slice(&chunk[..n]);
                false
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            Err(_) => return self.abort(state),
        };
        let mut at = 0;
        loop {
            let mut rest = Cursor::new(&self.input[at..]);
            let parsed = match parse_request(&mut rest, &state.limits) {
                Err(HttpParseError::Eof | HttpParseError::UnexpectedEof) if !eof => break,
                parsed => parsed,
            };
            at += rest.position() as usize;
            let ended = parsed.is_err();
            self.parsed.push_back(parsed);
            state.queue_depth.fetch_add(1, Ordering::SeqCst);
            if ended {
                break;
            }
        }
        self.input.drain(..at);
    }

    /// Writes as much owed output as the socket takes.
    fn flush(&mut self, state: &FrontState, now: Instant) {
        while self.owed() > 0 {
            match (&self.stream).write(&self.output[self.written..]) {
                Ok(n) if n > 0 => self.written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                _ => return self.abort(state),
            }
        }
        self.output.clear();
        self.written = 0;
        self.since = now;
    }
}

/// One worker thread: a private [`Server`] and the connections it
/// accepted, served by one readiness loop. A connection stays with the
/// worker that accepted it (per-connection affinity, no stealing); the
/// worker pulls each request's due faults from the one shared plan.
struct Worker<'a> {
    slot: usize,
    state: &'a FrontState,
    server: Server,
}

impl<'a> Worker<'a> {
    fn new(slot: usize, cfg: &HttpConfig, state: &'a FrontState) -> Worker<'a> {
        let mut machine = PhpMachine::specialized();
        machine.set_engine(cfg.engine);
        let (arena, reference) = (cfg.arena, cfg.reference);
        let server = Server::worker(
            machine,
            cfg.breaker_cfg,
            cfg.sandbox,
            arena,
            reference,
            true,
        );
        Worker {
            slot,
            state,
            server,
        }
    }

    /// Until shutdown, polls the listener and this worker's connections,
    /// reads and parses what arrived, serves every complete request in
    /// order, writes the replies, drops connections that are done or past
    /// their deadline, and accepts at most one new connection per wake.
    fn run(mut self) {
        let state = self.state;
        let (mut conns, mut fds) = (Vec::<Conn>::new(), Vec::new());
        let mut chunk = vec![0u8; READ_CHUNK];
        while !state.shutdown.load(Ordering::SeqCst) {
            fds.clear();
            fds.push(PollFd::new(&state.listener, POLLIN));
            fds.extend(
                conns
                    .iter()
                    .map(|c| PollFd::new(&c.stream, if c.owed() > 0 { POLLOUT } else { POLLIN })),
            );
            let timeout = conns
                .iter()
                .map(|c| c.since + CONN_DEADLINE)
                .min()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            poll::wait(&mut fds, timeout).expect("poll the worker's own sockets");

            let now = Instant::now();
            for (c, fd) in conns.iter_mut().zip(&fds[1..]) {
                match fd.revents() {
                    0 => {}
                    _ if c.owed() > 0 => c.flush(state, now),
                    _ => c.fill(&mut chunk, state, now),
                }
            }
            for c in &mut conns {
                self.serve(c, now);
            }
            conns.retain_mut(|c| {
                let done = c.closing && c.owed() == 0;
                let keep = !done && now.duration_since(c.since) < CONN_DEADLINE;
                if !keep {
                    c.close(state);
                    state.conn_count.fetch_sub(1, Ordering::SeqCst);
                }
                keep
            });
            if fds[0].revents() & POLLIN != 0 {
                conns.extend(self.accept(now));
            }
        }
    }

    /// Takes one pending connection off the shared listener, unless another
    /// worker was first, shutdown has begun, or `max_connections` are open
    /// (answered 503 and closed).
    fn accept(&self, now: Instant) -> Option<Conn> {
        let state = self.state;
        if state.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let (stream, _) = state.listener.accept().ok()?;
        if state.conn_count.load(Ordering::SeqCst) >= state.max_connections {
            state
                .front
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
            let mut refusal = Vec::new();
            HttpResponse::new(503)
                .with_header("retry-after", "1")
                .write_to(&mut refusal, false)
                .expect("writing into a Vec cannot fail");
            let _ = (&stream).write_all(&refusal);
            return None;
        }
        stream.set_nonblocking(true).ok()?;
        state.front.connections.fetch_add(1, Ordering::Relaxed);
        state.conn_count.fetch_add(1, Ordering::SeqCst);
        Some(Conn {
            stream,
            input: Vec::new(),
            parsed: VecDeque::new(),
            output: Vec::new(),
            written: 0,
            served: 0,
            closing: false,
            since: now,
        })
    }

    /// Serves the connection's parsed requests in order, each once the
    /// previous reply is written; what ended the input closes it.
    fn serve(&mut self, c: &mut Conn, now: Instant) {
        let state = self.state;
        while !c.closing && c.owed() == 0 {
            let Some(next) = c.parsed.pop_front() else {
                return;
            };
            state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            let (resp, keep_alive) = match next {
                Ok(req) => {
                    state.front.http_requests.fetch_add(1, Ordering::Relaxed);
                    let mreq = MiddlewareRequest {
                        method: &req.method,
                        target: &req.target,
                    };
                    let resp = state.chain.handle(&mreq, || self.route(&req));
                    c.served += 1;
                    let keep_alive = req.keep_alive
                        && c.served < state.max_keep_alive_requests
                        && !state.shutdown.load(Ordering::SeqCst);
                    (resp, keep_alive)
                }
                Err(e) => {
                    // Without a status the peer is gone: there is no one to tell.
                    let Some(status) = e.status() else {
                        return c.close(state);
                    };
                    state.front.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let mut resp = HttpResponse::new(status);
                    let mreq = MiddlewareRequest {
                        method: "-",
                        target: "-",
                    };
                    ErrorPages.after(&mreq, &mut resp);
                    (resp, false)
                }
            };
            resp.write_to(&mut c.output, keep_alive)
                .expect("writing into a Vec cannot fail");
            if !keep_alive {
                c.close(state);
            }
            c.since = now;
            c.flush(state, now);
        }
    }

    /// Routes one parsed request to an endpoint.
    fn route(&mut self, req: &HttpRequest) -> HttpResponse {
        let state = self.state;
        if req.method != "GET" {
            state
                .front
                .method_not_allowed
                .fetch_add(1, Ordering::Relaxed);
            return HttpResponse::new(405).with_header("allow", "GET");
        }
        match req.path.as_str() {
            "/health" => {
                state.front.health_requests.fetch_add(1, Ordering::Relaxed);
                HttpResponse::text(200, "ok\n")
            }
            "/metrics" => {
                state.front.metrics_requests.fetch_add(1, Ordering::Relaxed);
                let body = render_prometheus(&state.metrics_snapshot());
                HttpResponse::new(200)
                    .with_header("content-type", "text/plain; version=0.0.4; charset=utf-8")
                    .with_body(body.into_bytes())
            }
            path => match path.strip_prefix("/run/") {
                Some(name) => self.run_script(name),
                None => {
                    state.front.not_found.fetch_add(1, Ordering::Relaxed);
                    HttpResponse::new(404)
                }
            },
        }
    }

    /// Admits (or sheds) one `/run/<name>` request and serves it through
    /// [`Server::step`], publishing this worker's totals before the reply
    /// is written, so a client holding its reply also sees it counted.
    fn run_script(&mut self, name: &str) -> HttpResponse {
        let state = self.state;
        let Some(script) = state
            .corpus
            .scripts()
            .iter()
            .find(|s| s.entry().name == name)
            .cloned()
        else {
            state.front.not_found.fetch_add(1, Ordering::Relaxed);
            return HttpResponse::new(404);
        };

        // The arrival consumes a global request index whether or not it is
        // admitted — exactly the overload layer's numbering, so fault plans
        // keyed on request indices stay meaningful (a due fault lands on the
        // next admitted request).
        let req = state.next_request.fetch_add(1, Ordering::SeqCst);
        let depth = state.queue_depth.load(Ordering::SeqCst);
        if let Some(ctl) = &state.admission {
            let mut ctl = ctl.lock().unwrap_or_else(|e| e.into_inner());
            let predicted = (depth as u64).saturating_mul(ctl.service_envelope_uops());
            if let AdmissionDecision::Shed(cause) = ctl.decide(predicted, depth) {
                drop(ctl);
                let counter = match cause {
                    ShedCause::OverBudget => &state.front.shed_over_budget,
                    ShedCause::QueueFull => &state.front.shed_queue_full,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                let mut shed_depth = state.shed_depth.lock().unwrap_or_else(|e| e.into_inner());
                shed_depth.record(depth as u64);
                return HttpResponse::new(503).with_header("retry-after", "1");
            }
        }

        // Pull the request's due faults from the shared global plan into
        // this worker's private server. Pulling happens at service time —
        // never at admission — so a shed arrival cannot strand a fault.
        let due = state
            .plan
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take_due(req);
        self.server.schedule_faults(due);

        let mut handler = Scripts {
            pick: |_req| Arc::clone(&script),
            memo: state.memo.clone().map(|m| m as Arc<dyn MemoTier>),
        };
        let (record, service_uops) = self.server.step(req, &mut handler, state.reset);
        // Queue wait has no simulated-µop value on the wall-clock HTTP
        // path, so only arrival depth and service latency are recorded
        // (`queue_wait` stays empty; the overload simulator owns it).
        self.server
            .record_admitted_timing(depth as u64, 0, service_uops);
        if let Some(ctl) = &state.admission {
            ctl.lock()
                .unwrap_or_else(|e| e.into_inner())
                .observe_service(service_uops);
        }
        *state.snapshots[self.slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = self.server.totals();

        match record.outcome.status_code() {
            200 => HttpResponse::html(200, record.response),
            status => HttpResponse::new(status),
        }
    }
}

/// Convenience for tests and tooling: resolves `addr` and issues one
/// blocking GET on a fresh connection, returning `(status, body)`.
pub fn blocking_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes())?;
    let resp = workloads::read_client_response(&mut BufReader::new(stream))?;
    Ok((resp.status, resp.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<HttpRequest, HttpParseError> {
        parse_request(&mut Cursor::new(bytes.to_vec()), &HttpLimits::default())
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse(b"GET /run/tag-cloud?x=1&y=a+b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/run/tag-cloud");
        assert_eq!(
            req.query,
            vec![("x".into(), "1".into()), ("y".into(), "a b".into())]
        );
        assert_eq!(req.version, HttpVersion::H11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive, "1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_body_and_percent_escapes() {
        let req = parse(b"POST /p%20q HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.path, "/p q");
        assert_eq!(req.body, b"abcd");
        // Invalid escapes pass through rather than erroring.
        let req = parse(b"GET /%zz%2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/%zz%2");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive, "1.0 defaults to close");
        let old_ka = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn malformed_inputs_map_to_4xx_5xx() {
        let cases: &[(&[u8], HttpParseError)] = &[
            (b"", HttpParseError::Eof),
            (b"GARBAGE\r\n\r\n", HttpParseError::MalformedRequestLine),
            (b"GET /\r\n\r\n", HttpParseError::MalformedRequestLine),
            (
                b"GET / HTTP/2.0\r\n\r\n",
                HttpParseError::UnsupportedVersion,
            ),
            (
                b"G@T / HTTP/1.1\r\n\r\n",
                HttpParseError::MalformedRequestLine,
            ),
            (
                b"GET noslash HTTP/1.1\r\n\r\n",
                HttpParseError::MalformedRequestLine,
            ),
            (
                b"GET / HTTP/1.1\r\nbroken\r\n\r\n",
                HttpParseError::MalformedHeader,
            ),
            (
                b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
                HttpParseError::MalformedHeader,
            ),
            (
                b"GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
                HttpParseError::InvalidContentLength,
            ),
            (
                b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                HttpParseError::UnsupportedTransferEncoding,
            ),
            (b"GET / HTTP/1.1\r\nHost: x", HttpParseError::UnexpectedEof),
            (
                b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                HttpParseError::UnexpectedEof,
            ),
        ];
        for (bytes, want) in cases {
            let got = parse(bytes).unwrap_err();
            assert_eq!(&got, want, "input {:?}", String::from_utf8_lossy(bytes));
            if !matches!(want, HttpParseError::Eof) {
                assert!(got.status().is_some(), "{want:?} must be answerable");
            }
        }
    }

    #[test]
    fn limits_are_enforced() {
        let limits = HttpLimits {
            max_request_line: 32,
            max_header_line: 32,
            max_headers: 2,
            max_body: 8,
        };
        let parse = |bytes: &[u8]| parse_request(&mut Cursor::new(bytes.to_vec()), &limits);
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        assert_eq!(
            parse(long_line.as_bytes()).unwrap_err(),
            HttpParseError::RequestLineTooLong
        );
        let long_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "v".repeat(64));
        assert_eq!(
            parse(long_header.as_bytes()).unwrap_err(),
            HttpParseError::HeaderTooLong
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n").unwrap_err(),
            HttpParseError::TooManyHeaders
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789").unwrap_err(),
            HttpParseError::BodyTooLarge
        );
    }

    #[test]
    fn response_serialization_has_length_and_connection() {
        let resp = HttpResponse::text(200, "hello");
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 5\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));

        let mut closed = Vec::new();
        resp.write_to(&mut closed, false).unwrap();
        assert!(String::from_utf8(closed)
            .unwrap()
            .contains("connection: close"));
    }

    #[test]
    fn the_client_reader_round_trips_write_to() {
        let resp = HttpResponse::html(404, b"<h1>gone</h1>".to_vec());
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let resp = workloads::read_client_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, b"<h1>gone</h1>");
    }
}
