//! End-to-end loopback tests: HTTP is a transport, not a second path.
//!
//! The load-bearing property: a script served over `GET /run/<name>`
//! returns byte-identical responses to the same script served through a
//! direct [`Server`] with the same fault seeds — on both engines. The
//! front end adds sockets, parsing, middleware, a queue, and worker
//! threads, but the execution seam ([`Server::serve_indexed`]) is shared,
//! so nothing about the bytes may change.

use phpaccel_core::{Engine, PhpMachine};
use serve::http::blocking_get;
use serve::{
    parse_prometheus, BreakerConfig, FaultPlan, HttpConfig, HttpServer, SandboxConfig, Server,
};
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;
use workloads::HttpClient;

/// Requests per run: three full cycles through the corpus.
const N: u64 = 36;
const FAULT_SEED: u64 = 11;

fn corpus() -> Arc<CorpusCache> {
    Arc::new(CorpusCache::build())
}

/// Serves requests `0..N` through a direct `Server` (reference replay +
/// reset between requests), returning `(status, body)` per request plus
/// the final `(ok, mismatches)` counters.
fn direct_run(
    corpus: &CorpusCache,
    engine: Engine,
    plan: FaultPlan,
) -> (Vec<(u16, Vec<u8>)>, u64, u64) {
    let mut machine = PhpMachine::specialized();
    machine.set_engine(engine);
    let mut server = Server::new(
        machine,
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    )
    .with_fault_plan(plan)
    .with_reference(PhpMachine::baseline());
    let mut out = Vec::new();
    for i in 0..N {
        let script = Arc::clone(corpus.script_for_request(i));
        let record = server.serve_indexed(i, &mut |m, _req| script.run_memo(m, true, None));
        out.push((record.outcome.status_code(), record.response));
        server.recover_between_requests();
    }
    (out, server.stats().ok, server.stats().mismatches)
}

/// Drives `0..N` serial GETs in corpus order (so HTTP's arrival-order
/// request numbering matches the direct run's indices) and compares every
/// response byte for byte.
fn assert_http_matches_direct(engine: Engine, workers: usize, plan: FaultPlan) {
    let corpus = corpus();
    let (expected, direct_ok, direct_mismatches) = direct_run(&corpus, engine, plan.clone());

    let mut cfg = HttpConfig::loopback(workers);
    cfg.engine = engine;
    cfg.plan = plan;
    let server = HttpServer::start(cfg, Arc::clone(&corpus)).expect("bind http front end");
    let addr = server.addr();

    // One keep-alive connection for the whole run.
    let mut client = HttpClient::connect(addr);
    for (i, (want_status, want_body)) in expected.iter().enumerate() {
        let name = corpus.script_for_request(i as u64).entry().name;
        let resp = client
            .get(&format!("/run/{name}"))
            .unwrap_or_else(|e| panic!("request {i} ({name}): {e}"));
        assert_eq!(
            resp.status, *want_status,
            "request {i} ({name}): status diverged from direct serving"
        );
        if *want_status == 200 {
            assert_eq!(
                resp.body, *want_body,
                "request {i} ({name}): body diverged from direct serving"
            );
        }
    }

    // Workers publish their snapshots after replying, so give the last
    // publish a moment before reading the merged metrics.
    let mut parsed = Vec::new();
    for _ in 0..100 {
        let (status, body) = blocking_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(status, 200);
        parsed = parse_prometheus(std::str::from_utf8(&body).expect("utf-8 metrics"))
            .expect("well-formed prometheus text");
        let served = sample(&parsed, "phpaccel_requests_total");
        if served >= N as f64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(sample(&parsed, "phpaccel_requests_total"), N as f64);
    assert_eq!(
        sample(&parsed, "phpaccel_requests_ok_total"),
        direct_ok as f64
    );
    assert_eq!(
        sample(&parsed, "phpaccel_replay_mismatches_total"),
        direct_mismatches as f64
    );
    assert_eq!(sample(&parsed, "phpaccel_shed_total"), 0.0);

    // The shutdown report must reconcile with both the metrics and the
    // direct run.
    let report = server.shutdown();
    assert_eq!(report.stats.requests, N);
    assert_eq!(report.stats.ok, direct_ok);
    assert_eq!(report.stats.mismatches, direct_mismatches);
    assert_eq!(report.front.shed_total(), 0);
    assert_eq!(
        report.access_log.len() as u64,
        N + report.front.metrics_requests
    );
}

/// First sample with the given exact name (no labels).
fn sample(parsed: &[(String, f64)], name: &str) -> f64 {
    parsed
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

/// Single worker + seeded faults: the HTTP worker's `Server` sees the
/// exact request/fault/breaker sequence the direct run does, so every
/// byte — including through fault detection and degraded requests — must
/// match, on both engines.
#[test]
fn http_matches_direct_serving_with_faults_treewalk() {
    assert_http_matches_direct(Engine::TreeWalk, 1, FaultPlan::seeded(FAULT_SEED, 2, 4, N));
}

#[test]
fn http_matches_direct_serving_with_faults_vm() {
    assert_http_matches_direct(Engine::Vm, 1, FaultPlan::seeded(FAULT_SEED, 2, 4, N));
}

/// Two workers, no faults: with reset-between-requests the responses are
/// machine-history-independent, so dynamic worker assignment must not
/// change a single byte either.
#[test]
fn http_matches_direct_serving_two_workers_treewalk() {
    assert_http_matches_direct(Engine::TreeWalk, 2, FaultPlan::default());
}

#[test]
fn http_matches_direct_serving_two_workers_vm() {
    assert_http_matches_direct(Engine::Vm, 2, FaultPlan::default());
}

/// The operational endpoints and error paths around the hot path.
#[test]
fn health_errors_and_rate_limiting() {
    let corpus = corpus();
    let mut cfg = HttpConfig::loopback(1);
    // A two-token bucket that never refills: deterministic 429 on the
    // third request.
    cfg.rate_limit = Some((2, 0.0));
    let server = HttpServer::start(cfg, Arc::clone(&corpus)).expect("bind http front end");
    let addr = server.addr();

    let (status, body) = blocking_get(addr, "/health").expect("GET /health");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let (status, body) = blocking_get(addr, "/no/such/route").expect("GET 404");
    assert_eq!(status, 404);
    // ErrorPages filled the body.
    assert!(!body.is_empty());

    // Third request: out of tokens.
    let (status, _) = blocking_get(addr, "/health").expect("GET rate-limited");
    assert_eq!(status, 429);

    let report = server.shutdown();
    assert_eq!(report.front.rate_limited, 1);
    assert_eq!(report.front.health_requests, 1);
    assert_eq!(report.front.not_found, 1);

    let server = HttpServer::start(HttpConfig::loopback(1), corpus).expect("bind http front end");
    let addr = server.addr();

    // Method not allowed.
    {
        use std::io::{BufReader, Write};
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer
            .write_all(b"POST /health HTTP/1.1\r\nconnection: close\r\n\r\n")
            .expect("send POST");
        let (status, _) = serve::http::read_response(&mut reader).expect("read 405");
        assert_eq!(status, 405);
    }

    // A malformed request line is answered 400 and the connection closed.
    {
        use std::io::{BufReader, Read, Write};
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer.write_all(b"garbage\r\n\r\n").expect("send garbage");
        let (status, _) = serve::http::read_response(&mut reader).expect("read 400");
        assert_eq!(status, 400);
        // Closed: the next read hits EOF.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("drain");
        assert!(rest.is_empty());
    }

    let report = server.shutdown();
    assert_eq!(report.front.method_not_allowed, 1);
    assert_eq!(report.front.parse_errors, 1);
}

/// Regression: the acceptor kept one `JoinHandle` per connection ever
/// accepted and joined them only at shutdown, so a server facing
/// `Connection: close` clients pinned every dead thread's stack (160 MB of
/// peak RSS after 12 600 connections). It now reaps finished connections on
/// every accept, including those queued behind one that is still open.
#[test]
fn finished_connection_threads_are_reaped_while_serving() {
    use std::io::{BufReader, Write};
    let server = HttpServer::start(HttpConfig::loopback(1), corpus()).expect("bind http front end");
    let addr = server.addr();

    // A keep-alive connection that stays open for the whole test: the
    // oldest handle never finishes.
    let idle = std::net::TcpStream::connect(addr).expect("connect");
    let mut idle_reader = BufReader::new(idle.try_clone().expect("clone"));
    let mut idle_writer = idle;
    idle_writer
        .write_all(b"GET /health HTTP/1.1\r\n\r\n")
        .expect("send keep-alive GET");
    let (status, _) = serve::http::read_response(&mut idle_reader).expect("read 200");
    assert_eq!(status, 200);

    for _ in 0..2_000 {
        let (status, _) = blocking_get(addr, "/health").expect("GET /health");
        assert_eq!(status, 200);
    }
    // The open connection, the last one accepted, and at most a few whose
    // threads had not quite exited when the next accept looked.
    let unjoined = server.unjoined_connection_threads();
    assert!(unjoined <= 8, "{unjoined} connection threads left unjoined");

    drop((idle_reader, idle_writer));
    let report = server.shutdown();
    assert_eq!(report.front.connections, 2_001);
}

/// A worker that has served nothing still has its row: row `w` of the
/// merged snapshot (the `worker="w"` label in `/metrics`) is worker `w`
/// from the first scrape on, not whichever worker published first.
#[test]
fn idle_workers_keep_their_metrics_rows() {
    let server = HttpServer::start(HttpConfig::loopback(3), corpus()).expect("bind http front end");
    let snap = server.metrics_snapshot();
    assert_eq!(snap.worker_uops, vec![0, 0, 0]);
    assert_eq!(snap.breaker_states, vec![[0; 4]; 3]);
    server.shutdown();
}
