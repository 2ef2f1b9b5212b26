//! End-to-end loopback tests: HTTP is a transport, not a second path.
//!
//! The load-bearing property: a script served over `GET /run/<name>`
//! returns byte-identical responses to the same script served through a
//! direct [`Server`] with the same fault seeds — on both engines. The
//! front end adds sockets, parsing, middleware and worker threads, but the
//! execution seam ([`Server::step`]) is shared, so nothing about the bytes
//! may change. The rest checks the workers' readiness loop: partial and
//! pipelined input, many connections per worker, and the request deadline.

use phpaccel_core::{Engine, PhpMachine};
use serve::http::blocking_get;
use serve::{
    parse_prometheus, AdmissionConfig, BreakerConfig, FaultPlan, HttpConfig, HttpServer,
    SandboxConfig, Server,
};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::php_corpus::CorpusCache;
use workloads::{read_client_response, HttpClient};

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
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer
            .write_all(b"POST /health HTTP/1.1\r\nconnection: close\r\n\r\n")
            .expect("send POST");
        let resp = read_client_response(&mut reader).expect("read 405");
        assert_eq!(resp.status, 405);
    }

    // A malformed request line is answered 400 and the connection closed.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer.write_all(b"garbage\r\n\r\n").expect("send garbage");
        let resp = read_client_response(&mut reader).expect("read 400");
        assert_eq!(resp.status, 400);
        // Closed: the next read hits EOF.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("drain");
        assert!(rest.is_empty());
    }

    let report = server.shutdown();
    assert_eq!(report.front.method_not_allowed, 1);
    assert_eq!(report.front.parse_errors, 1);
}

/// Names of this process's threads (`/proc/self/task/*/comm`).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// One worker thread carries every connection: a keep-alive connection
/// stays open and idle while 2 000 `Connection: close` requests are
/// accepted and answered beside it, no thread is spawned per connection or
/// for accepting, and the idle connection is still served afterwards.
#[test]
fn one_worker_serves_every_connection_beside_an_idle_one() {
    let server = HttpServer::start(HttpConfig::loopback(1), corpus()).expect("bind http front end");
    let addr = server.addr();

    let idle = TcpStream::connect(addr).expect("connect");
    let mut idle_reader = BufReader::new(idle.try_clone().expect("clone"));
    let mut idle_writer = idle;
    let keep_alive_get = b"GET /health HTTP/1.1\r\n\r\n";
    idle_writer
        .write_all(keep_alive_get)
        .expect("send keep-alive GET");
    let resp = read_client_response(&mut idle_reader).expect("read 200");
    assert_eq!(resp.status, 200);

    for _ in 0..2_000 {
        let (status, _) = blocking_get(addr, "/health").expect("GET /health");
        assert_eq!(status, 200);
    }
    let names = thread_names();
    assert!(names.iter().any(|n| n == "php-worker-0"), "{names:?}");
    assert!(
        !names
            .iter()
            .any(|n| n.starts_with("http-conn") || n.starts_with("http-acceptor")),
        "{names:?}"
    );

    idle_writer
        .write_all(keep_alive_get)
        .expect("send on the idle connection");
    let resp = read_client_response(&mut idle_reader).expect("read 200");
    assert_eq!(resp.status, 200);

    drop((idle_reader, idle_writer));
    let report = server.shutdown();
    assert_eq!(report.front.connections, 2_001);
}

/// A request that arrives one byte per wake is buffered until complete,
/// while the same worker answers another connection between the bytes.
#[test]
fn a_request_written_a_byte_at_a_time_gets_the_right_answer() {
    let corpus = corpus();
    let server = HttpServer::start(HttpConfig::loopback(1), Arc::clone(&corpus))
        .expect("bind http front end");
    let addr = server.addr();
    let name = corpus.script_for_request(0).entry().name;

    let slow = TcpStream::connect(addr).expect("connect");
    slow.set_nodelay(true).expect("nodelay");
    let mut other = HttpClient::connect(addr);
    for byte in format!("GET /run/{name} HTTP/1.1\r\n\r\n").bytes() {
        (&slow).write_all(&[byte]).expect("send one byte");
        assert_eq!(other.get("/health").expect("GET /health").status, 200);
    }
    let resp = read_client_response(&mut BufReader::new(slow)).expect("read the reply");
    assert_eq!(resp.status, 200);
    let whole = other.get(&format!("/run/{name}")).expect("GET in one go");
    assert_eq!(resp.body, whole.body);
    server.shutdown();
}

/// Two requests in one `write` are both answered, in order.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let corpus = corpus();
    let server = HttpServer::start(HttpConfig::loopback(1), Arc::clone(&corpus))
        .expect("bind http front end");
    let addr = server.addr();
    let (a, b) = (
        corpus.script_for_request(0).entry().name,
        corpus.script_for_request(1).entry().name,
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "GET /run/{a} HTTP/1.1\r\n\r\nGET /run/{b} HTTP/1.1\r\nconnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("send two requests at once");
    let mut reader = BufReader::new(stream);
    let mut next = || {
        let resp = read_client_response(&mut reader).expect("a reply");
        (resp.status, resp.body)
    };
    let (first, second) = (next(), next());

    let want_a = blocking_get(addr, &format!("/run/{a}")).expect("GET a");
    let want_b = blocking_get(addr, &format!("/run/{b}")).expect("GET b");
    assert_ne!(want_a.1, want_b.1, "the two scripts must be told apart");
    assert_eq!((first, second), (want_a, want_b));
    server.shutdown();
}

/// Admission's queue depth is the requests parsed and not yet served: of
/// three pipelined in one `write`, the first sees two waiting behind it and
/// the second one, both over a one-request bound, so only the third runs.
#[test]
fn admission_depth_counts_requests_parsed_but_not_served() {
    let corpus = corpus();
    let mut cfg = HttpConfig::loopback(1);
    cfg.admission = Some(AdmissionConfig {
        budget_uops: 1 << 40,
        queue_capacity: 1,
        ..AdmissionConfig::default()
    });
    let server = HttpServer::start(cfg, Arc::clone(&corpus)).expect("bind http front end");
    let name = corpus.script_for_request(0).entry().name;
    let get = format!("GET /run/{name} HTTP/1.1\r\n\r\n");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(format!("{get}{get}{get}").as_bytes())
        .expect("send three requests at once");
    let mut reader = BufReader::new(stream);
    let statuses: Vec<u16> = (0..3)
        .map(|_| read_client_response(&mut reader).expect("a reply").status)
        .collect();
    assert_eq!(statuses, [503, 503, 200]);
    drop(reader);
    let report = server.shutdown();
    assert_eq!(report.front.shed_queue_full, 2);
    assert_eq!((report.stats.requests, report.stats.ok), (3, 1));
}

/// Four workers, four concurrent keep-alive clients, three corpus cycles
/// each, no faults: every byte equals direct `Server` serving, whichever
/// worker accepted which connection.
#[test]
fn four_workers_and_four_clients_match_direct_serving() {
    const CLIENTS: u64 = 4;
    let corpus = corpus();
    let (expected, _, _) = direct_run(&corpus, Engine::Vm, FaultPlan::default());
    let server = HttpServer::start(HttpConfig::loopback(4), Arc::clone(&corpus))
        .expect("bind http front end");
    let addr = server.addr();

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = HttpClient::connect(addr);
                for (i, (want_status, want_body)) in expected.iter().enumerate() {
                    let name = corpus.script_for_request(i as u64).entry().name;
                    let resp = client
                        .get(&format!("/run/{name}"))
                        .unwrap_or_else(|e| panic!("request {i} ({name}): {e}"));
                    assert_eq!(resp.status, *want_status, "request {i} ({name})");
                    assert_eq!(resp.body, *want_body, "request {i} ({name})");
                }
            });
        }
    });

    let report = server.shutdown();
    assert_eq!(report.stats.requests, CLIENTS * N);
    assert_eq!(report.stats.ok, CLIENTS * N);
    assert_eq!(report.stats.mismatches, 0);
    assert_eq!(report.front.shed_total(), 0);
}

/// A client that trickles one header byte every 500 ms never completes a
/// request, so its connection is closed once the request's first byte is
/// 5 s old; another connection on the same worker is answered throughout.
#[test]
fn a_slowloris_client_is_closed_at_the_request_deadline() {
    let server = HttpServer::start(HttpConfig::loopback(1), corpus()).expect("bind http front end");
    let addr = server.addr();

    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_nodelay(true).expect("nodelay");
    slow.set_read_timeout(Some(Duration::from_millis(500)))
        .expect("read timeout");
    let mut other = HttpClient::connect(addr);
    let start = Instant::now();
    slow.write_all(b"GET /health HTTP/1.1\r\nx-slow: ")
        .expect("send the request line");
    let closed_after = loop {
        assert_eq!(other.get("/health").expect("GET /health").status, 200);
        // Waits up to 500 ms for the server to close the slow connection.
        match slow.read(&mut [0u8; 64]) {
            Ok(0) => break start.elapsed(),
            Ok(_) => panic!("a partial request got an answer"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break start.elapsed(),
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the slow connection was never closed"
        );
        // Fails once the server has closed its end; the read above notices.
        let _ = slow.write_all(b"a");
    };
    assert!(
        (Duration::from_millis(4_500)..Duration::from_millis(6_500)).contains(&closed_after),
        "closed after {closed_after:?}"
    );
    assert_eq!(other.get("/health").expect("GET /health").status, 200);
    server.shutdown();
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
