//! Composable HTTP middleware.
//!
//! The front end wraps its router in a [`MiddlewareChain`] with onion
//! semantics, modeled on the `tokio_php` exemplar's stack (access log →
//! error pages → compression): every stage's [`Middleware::before`] runs
//! outside-in and may short-circuit with its own response (the inner
//! handler and the stages further in never run); [`Middleware::after`] then
//! runs inside-out over whichever response was produced, but only on the
//! stages whose `before` actually ran. A stage therefore always sees `after`
//! for exactly the requests it saw `before` — the contract that lets the
//! access log record and the error-page stage decorate without
//! coordinating with each other.
//!
//! All stages are `Send + Sync` and interior-mutable, because worker
//! threads call the chain concurrently.

use crate::http::HttpResponse;
use std::collections::VecDeque;
use std::sync::Mutex;

/// The request view middleware stages operate on: enough to route and log,
/// without exposing the connection.
#[derive(Debug, Clone)]
pub struct MiddlewareRequest<'a> {
    /// Request method (`GET`, `POST`, …).
    pub method: &'a str,
    /// The raw request target (path + query as received).
    pub target: &'a str,
}

/// One stage of the middleware chain. Both hooks have no-op defaults so a
/// stage implements only the side it needs.
pub trait Middleware: Send + Sync {
    /// Stage name (for diagnostics and the metrics exporter).
    fn name(&self) -> &'static str;

    /// Runs before the inner handler, outside-in. Returning `Some(response)`
    /// short-circuits: the inner handler and all deeper stages are skipped.
    fn before(&self, _req: &MiddlewareRequest<'_>) -> Option<HttpResponse> {
        None
    }

    /// Runs after a response exists, inside-out, on every stage whose
    /// `before` ran for this request.
    fn after(&self, _req: &MiddlewareRequest<'_>, _resp: &mut HttpResponse) {}
}

/// Stages kept behind `Arc` handles still compose into a chain.
impl<M: Middleware + ?Sized> Middleware for std::sync::Arc<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn before(&self, req: &MiddlewareRequest<'_>) -> Option<HttpResponse> {
        (**self).before(req)
    }
    fn after(&self, req: &MiddlewareRequest<'_>, resp: &mut HttpResponse) {
        (**self).after(req, resp)
    }
}

/// An ordered stack of middleware stages around an inner handler.
#[derive(Default)]
pub struct MiddlewareChain {
    stages: Vec<Box<dyn Middleware>>,
}

impl std::fmt::Debug for MiddlewareChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiddlewareChain")
            .field(
                "stages",
                &self.stages.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl MiddlewareChain {
    /// An empty chain: `handle` just runs the inner handler.
    pub fn new() -> Self {
        MiddlewareChain::default()
    }

    /// Appends a stage; earlier-added stages are further *outside*.
    pub fn with(mut self, stage: impl Middleware + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Runs `inner` inside the chain (see module docs for the onion
    /// contract) and returns the final response.
    pub fn handle(
        &self,
        req: &MiddlewareRequest<'_>,
        inner: impl FnOnce() -> HttpResponse,
    ) -> HttpResponse {
        let mut ran = 0;
        let mut response = None;
        for (i, stage) in self.stages.iter().enumerate() {
            ran = i + 1;
            if let Some(resp) = stage.before(req) {
                response = Some(resp);
                break;
            }
        }
        let mut resp = response.unwrap_or_else(inner);
        for stage in self.stages[..ran].iter().rev() {
            stage.after(req, &mut resp);
        }
        resp
    }
}

/// Access log: records one `method target status bytes` line per request
/// after the response is final (so short-circuited responses are logged too),
/// keeping the last [`AccessLog::CAPACITY`] lines.
#[derive(Debug, Default)]
pub struct AccessLog {
    lines: Mutex<VecDeque<String>>,
}

impl AccessLog {
    /// Lines kept; each new line past it replaces the oldest.
    pub const CAPACITY: usize = 4096;

    /// An empty log.
    pub fn new() -> Self {
        AccessLog::default()
    }

    /// The lines kept, oldest first, in completion order.
    pub fn lines(&self) -> Vec<String> {
        let lines = self.lines.lock().unwrap_or_else(|e| e.into_inner());
        lines.iter().cloned().collect()
    }

    /// Number of lines kept (at most [`AccessLog::CAPACITY`]).
    pub fn len(&self) -> usize {
        self.lines.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Middleware for AccessLog {
    fn name(&self) -> &'static str {
        "access-log"
    }

    fn after(&self, req: &MiddlewareRequest<'_>, resp: &mut HttpResponse) {
        let line = format!(
            "{} {} {} {}",
            req.method,
            req.target,
            resp.status,
            resp.body.len()
        );
        let mut lines = self.lines.lock().unwrap_or_else(|e| e.into_inner());
        if lines.len() == Self::CAPACITY {
            lines.pop_front();
        }
        lines.push_back(line);
    }
}

/// Fills empty 4xx/5xx bodies with a minimal HTML error page; responses
/// that already carry a body (including non-empty error bodies from the
/// application) pass through untouched.
#[derive(Debug, Default)]
pub struct ErrorPages;

impl Middleware for ErrorPages {
    fn name(&self) -> &'static str {
        "error-pages"
    }

    fn after(&self, _req: &MiddlewareRequest<'_>, resp: &mut HttpResponse) {
        if resp.status >= 400 && resp.body.is_empty() {
            let reason = crate::http::reason_phrase(resp.status);
            resp.body = format!(
                "<html><head><title>{s} {reason}</title></head>\
                 <body><h1>{s} {reason}</h1></body></html>\n",
                s = resp.status
            )
            .into_bytes();
            resp.set_header("content-type", "text/html; charset=utf-8");
        }
    }
}

/// The honest "compression" stub (stage: innermost). The workspace vendors
/// no deflate/brotli, so this never transforms bytes — it only declares what
/// is true: `Content-Encoding: identity` (unless the application already set
/// an encoding) plus `Vary: Accept-Encoding`, so clients and caches see a
/// well-formed negotiation surface that a real encoder could slot into.
#[derive(Debug, Default)]
pub struct IdentityEncoding;

impl Middleware for IdentityEncoding {
    fn name(&self) -> &'static str {
        "identity-encoding"
    }

    fn after(&self, _req: &MiddlewareRequest<'_>, resp: &mut HttpResponse) {
        if resp.header("content-encoding").is_none() {
            resp.headers
                .push(("content-encoding".into(), "identity".into()));
        }
        if resp.header("vary").is_none() {
            resp.headers.push(("vary".into(), "Accept-Encoding".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn req<'a>(method: &'a str, target: &'a str) -> MiddlewareRequest<'a> {
        MiddlewareRequest { method, target }
    }

    /// A stage recording the order its hooks run in.
    struct Tracer {
        name: &'static str,
        log: Arc<Mutex<Vec<String>>>,
        short_circuit: bool,
    }

    impl Middleware for Tracer {
        fn name(&self) -> &'static str {
            self.name
        }
        fn before(&self, _req: &MiddlewareRequest<'_>) -> Option<HttpResponse> {
            self.log
                .lock()
                .unwrap()
                .push(format!("before:{}", self.name));
            self.short_circuit.then(|| HttpResponse::new(429))
        }
        fn after(&self, _req: &MiddlewareRequest<'_>, _resp: &mut HttpResponse) {
            self.log
                .lock()
                .unwrap()
                .push(format!("after:{}", self.name));
        }
    }

    #[test]
    fn chain_runs_onion_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tracer = |name| Tracer {
            name,
            log: Arc::clone(&log),
            short_circuit: false,
        };
        let chain = MiddlewareChain::new().with(tracer("a")).with(tracer("b"));
        let resp = chain.handle(&req("GET", "/x"), || {
            log.lock().unwrap().push("inner".into());
            HttpResponse::text(200, "hi")
        });
        assert_eq!(resp.status, 200);
        assert_eq!(
            *log.lock().unwrap(),
            vec!["before:a", "before:b", "inner", "after:b", "after:a"]
        );
    }

    #[test]
    fn short_circuit_skips_inner_and_deeper_stages() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tracer = |name, short_circuit| Tracer {
            name,
            log: Arc::clone(&log),
            short_circuit,
        };
        let chain = MiddlewareChain::new()
            .with(tracer("outer", false))
            .with(tracer("limiter", true))
            .with(tracer("never", false));
        let resp = chain.handle(&req("GET", "/x"), || unreachable!("inner must not run"));
        assert_eq!(resp.status, 429);
        // The short-circuiting stage and everything outside it still see
        // `after`; the skipped inner stage sees neither hook.
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                "before:outer",
                "before:limiter",
                "after:limiter",
                "after:outer"
            ]
        );
    }

    #[test]
    fn access_log_records_final_status_including_short_circuits() {
        let log = Arc::new(AccessLog::new());
        let refuser = Tracer {
            name: "refuser",
            log: Arc::new(Mutex::new(Vec::new())),
            short_circuit: true,
        };
        let serving = MiddlewareChain::new().with(Arc::clone(&log));
        let refusing = MiddlewareChain::new().with(Arc::clone(&log)).with(refuser);
        let serve = || HttpResponse::text(200, "body!");
        serving.handle(&req("GET", "/run/x"), serve);
        refusing.handle(&req("GET", "/run/x"), serve); // short-circuited
        let lines = log.lines();
        assert_eq!(lines[0], "GET /run/x 200 5");
        assert!(lines[1].starts_with("GET /run/x 429"));
    }

    #[test]
    fn access_log_keeps_the_last_lines_oldest_first() {
        let log = Arc::new(AccessLog::new());
        let chain = MiddlewareChain::new().with(Arc::clone(&log));
        for i in 1..=5_000 {
            chain.handle(&req("GET", &format!("/run/x?n={i}")), || {
                HttpResponse::text(200, "ok")
            });
        }
        let lines = log.lines();
        assert_eq!((lines.len(), log.len()), (AccessLog::CAPACITY, 4096));
        assert_eq!(lines[0], "GET /run/x?n=905 200 2");
        assert_eq!(lines[4095], "GET /run/x?n=5000 200 2");
    }

    #[test]
    fn error_pages_fill_only_empty_error_bodies() {
        let chain = MiddlewareChain::new().with(ErrorPages);
        let filled = chain.handle(&req("GET", "/x"), || HttpResponse::new(404));
        assert!(String::from_utf8_lossy(&filled.body).contains("404 Not Found"));

        let untouched = chain.handle(&req("GET", "/x"), || HttpResponse::text(404, "custom"));
        assert_eq!(untouched.body, b"custom");

        let ok = chain.handle(&req("GET", "/x"), || HttpResponse::new(204));
        assert!(ok.body.is_empty(), "non-error responses stay empty");
    }

    #[test]
    fn identity_encoding_sets_honest_headers() {
        let chain = MiddlewareChain::new().with(IdentityEncoding);
        let resp = chain.handle(&req("GET", "/x"), || HttpResponse::text(200, "abc"));
        assert_eq!(resp.header("content-encoding"), Some("identity"));
        assert_eq!(resp.header("vary"), Some("Accept-Encoding"));
        assert_eq!(resp.body, b"abc", "bytes are never transformed");
    }
}
