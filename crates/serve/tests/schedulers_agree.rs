//! The three schedulers drive one request step.
//!
//! A worker pool shards by index, the overload simulator advances a queue on
//! the simulated clock, the HTTP edge hands jobs to whichever worker is free
//! — but each of them serves a request through [`Server::step`] on a
//! [`Server::worker`] and reports [`serve::Totals`]. So the same fault-free
//! stream (VM engine, arena on, reset between requests, reference replay on,
//! no memo tier) through one worker of each must produce the same bytes and
//! the same service µops request for request, and the same totals.

use phpaccel_core::{Engine, PhpMachine};
use serve::http::blocking_get;
use serve::{
    parse_prometheus, render_prometheus, AdmissionConfig, AdmissionController, BreakerConfig,
    HttpConfig, HttpServer, OverloadConfig, OverloadSim, PoolConfig, SandboxConfig, Scripts,
    Server, Totals, WorkerPool,
};
use std::sync::Arc;
use workloads::php_corpus::{CorpusCache, PreparedScript};
use workloads::HttpClient;

/// Four cycles through the corpus.
const N: u64 = 48;

fn vm_machine() -> PhpMachine {
    let mut m = PhpMachine::specialized();
    m.set_engine(Engine::Vm);
    m
}

fn round_robin(cache: &Arc<CorpusCache>) -> Scripts<impl FnMut(u64) -> Arc<PreparedScript>> {
    let cache = Arc::clone(cache);
    Scripts {
        pick: move |req| Arc::clone(cache.script_for_request(req)),
        memo: None,
    }
}

/// What every scheduler must agree on, per request and in total.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    bodies: Vec<Vec<u8>>,
    service_uops: Vec<u64>,
    /// `(requests, ok, mismatches)`.
    counts: (u64, u64, u64),
    worker_uops: Vec<u64>,
    live_blocks: usize,
}

impl Run {
    fn new(bodies: Vec<Vec<u8>>, service_uops: Vec<u64>, totals: &Totals) -> Run {
        let s = &totals.stats;
        Run {
            bodies,
            service_uops,
            counts: (s.requests, s.ok, s.mismatches),
            worker_uops: totals.worker_uops.clone(),
            live_blocks: totals.live_blocks,
        }
    }
}

fn through_pool(cache: &Arc<CorpusCache>) -> Run {
    let cfg = PoolConfig::deterministic(1, N).with_arena(true);
    let report = WorkerPool::new(cfg).run(|_| vm_machine(), |_| round_robin(cache));
    assert!(report.failed_workers.is_empty());
    let bodies = report.records.iter().map(|r| r.response.clone()).collect();
    Run::new(bodies, report.service_uops.clone(), &report)
}

fn through_overload(cache: &Arc<CorpusCache>) -> Run {
    let server = Server::worker(
        vm_machine(),
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
        true,
        true,
        false,
    );
    // Far under capacity: arrivals a second of simulated time apart, a
    // budget no request approaches.
    let controller = AdmissionController::new(AdmissionConfig {
        budget_uops: 1 << 40,
        queue_capacity: 4,
        release_ratio: 0.5,
        service_prior_uops: 1,
    });
    let cfg = OverloadConfig {
        workers: 1,
        warmup: 0,
        slo_windows: 1,
        reset_between_requests: true,
    };
    let mut sim = OverloadSim::new(cfg, server, controller).expect("valid overload config");
    let arrivals: Vec<u64> = (0..N).map(|i| i * 2_000_000_000).collect();
    let report = sim.run(&arrivals, &mut round_robin(cache));
    assert_eq!(report.stats.shed, 0, "under capacity must admit everything");
    assert!(report.records.iter().all(|r| r.wait_uops == 0));
    // The simulator's records carry no bodies: its bytes are checked through
    // replay (`mismatches`), the other two schedulers' directly.
    let service_uops = report.records.iter().map(|r| r.service_uops).collect();
    Run::new(Vec::new(), service_uops, &report)
}

fn through_http(cache: &Arc<CorpusCache>) -> Run {
    let mut cfg = HttpConfig::loopback(1);
    cfg.arena = true;
    let server = HttpServer::start(cfg, Arc::clone(cache)).expect("bind http front end");
    let addr = server.addr();

    // One sequential keep-alive client: arrival order is request order. The
    // worker publishes its totals after it replies, and the latency
    // histogram's sum grows by each request's service µops.
    let mut client = HttpClient::connect(addr);
    let (mut bodies, mut service_uops, mut latency_sum) = (Vec::new(), Vec::new(), 0u64);
    for i in 0..N {
        let name = cache.script_for_request(i).entry().name;
        let resp = client.get(&format!("/run/{name}")).expect("GET /run");
        assert_eq!(resp.status, 200, "request {i} ({name})");
        bodies.push(resp.body);
        let published = loop {
            let snap = server.metrics_snapshot();
            if snap.stats.requests > i {
                break snap.stats.latency.sum();
            }
            std::thread::yield_now();
        };
        service_uops.push(published - latency_sum);
        latency_sum = published;
    }
    // An open keep-alive connection would hold shutdown for its read timeout.
    drop(client);

    let (status, scraped) = blocking_get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);
    let report = server.shutdown();
    assert_eq!(
        parse_prometheus(std::str::from_utf8(&scraped).expect("utf-8 metrics")),
        parse_prometheus(&render_prometheus(&report)),
        "/metrics and the shutdown report render the same totals"
    );
    assert_eq!(report.front.shed_total(), 0);
    Run::new(bodies, service_uops, &report)
}

#[test]
fn pool_overload_and_http_agree_request_for_request() {
    let cache = Arc::new(CorpusCache::build());
    let pool = through_pool(&cache);
    assert_eq!(pool.counts, (N, N, 0));
    assert_eq!(pool.live_blocks, 0);
    assert!(pool.service_uops.iter().all(|&u| u > 0));

    let overload = through_overload(&cache);
    assert_eq!(
        overload,
        Run {
            bodies: Vec::new(),
            ..pool.clone()
        },
        "overload simulator vs pool"
    );
    assert_eq!(through_http(&cache), pool, "HTTP edge vs pool");
}
