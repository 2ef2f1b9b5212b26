//! `http_bench` — loadgen-over-loopback throughput for the HTTP front end.
//!
//! Boots [`serve::HttpServer`] in-process at 1/2/4 workers, drives the
//! `std::net` loopback load generator across every corpus script's
//! `GET /run/<name>` route, and emits `BENCH_http.json`.
//!
//! Correctness gates baked into the run:
//! * every request completes with status 200 (admission and rate limiting
//!   are off, so nothing may shed);
//! * each path serves exactly one distinct body, byte-identical to serving
//!   the same script through a direct [`serve::Server`] (HTTP is a
//!   transport over the same execution seam, never a second path);
//! * every worker's reference replay agrees (`mismatches == 0`).
//!
//! Unlike the pool/overload benches, the timing here is honest wall-clock:
//! the requests traverse real sockets, threads, and queues. Per-request
//! service work is still metered in µops by the workers and exported via
//! `/metrics`; this bench reports end-to-end latency.
//!
//! Usage: `http_bench [--smoke] [--out PATH]`

use phpaccel_core::{Engine, PhpMachine};
use serve::BreakerConfig;
use serve::{HttpConfig, HttpReport, HttpServer, SandboxConfig, Scripts, Server};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use workloads::php_corpus::CorpusCache;
use workloads::{LoopbackConfig, LoopbackLoadGen, LoopbackReport};

/// Worker counts the bench sweeps.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Requests each loadgen client issues (full mode / --smoke).
const FULL_PER_CLIENT: usize = 120;
const SMOKE_PER_CLIENT: usize = 20;
/// Loadgen client threads.
const CLIENTS: usize = 4;

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Serves every corpus script once through a direct [`Server`] (same
/// engine, reference replay, reset between requests) and returns
/// path → expected response bytes.
fn direct_expected(corpus: &CorpusCache) -> BTreeMap<String, Vec<u8>> {
    let mut machine = PhpMachine::specialized();
    machine.set_engine(Engine::Vm);
    let mut server = Server::worker(
        machine,
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
        false,
        true,
        true,
    );
    let mut expected = BTreeMap::new();
    for (i, script) in corpus.scripts().iter().enumerate() {
        let mut handler = Scripts {
            pick: |_req| Arc::clone(script),
            memo: None,
        };
        let (record, _) = server.step(i as u64, &mut handler, true);
        assert_eq!(
            record.outcome.status_code(),
            200,
            "direct serving of {} failed",
            script.entry().name
        );
        expected.insert(format!("/run/{}", script.entry().name), record.response);
    }
    assert_eq!(server.stats().mismatches, 0, "direct replay mismatch");
    expected
}

struct RunResult {
    workers: usize,
    loadgen: LoopbackReport,
    report: HttpReport,
    wall_ms: f64,
}

fn run(
    corpus: &Arc<CorpusCache>,
    workers: usize,
    per_client: usize,
    paths: &[String],
) -> RunResult {
    let cfg = HttpConfig::loopback(workers);
    let server = HttpServer::start(cfg, Arc::clone(corpus)).expect("bind http front end");
    let addr = server.addr();
    let loadgen = LoopbackLoadGen::new(LoopbackConfig {
        clients: CLIENTS,
        requests_per_client: per_client,
        paths: paths.to_vec(),
    });
    let start = Instant::now();
    let report = loadgen.run(addr);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let http_report = server.shutdown();
    RunResult {
        workers,
        loadgen: report,
        report: http_report,
        wall_ms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_http.json")
        .to_string();
    let per_client = if smoke {
        SMOKE_PER_CLIENT
    } else {
        FULL_PER_CLIENT
    };
    let total = (CLIENTS * per_client) as u64;

    println!("http_bench: building the shared compile cache...");
    let corpus = Arc::new(CorpusCache::build());
    let paths: Vec<String> = corpus
        .scripts()
        .iter()
        .map(|s| format!("/run/{}", s.entry().name))
        .collect();
    println!(
        "http_bench: {} corpus scripts; {} clients x {} requests per run",
        corpus.len(),
        CLIENTS,
        per_client
    );
    let expected = direct_expected(&corpus);

    let mut failures: Vec<String> = Vec::new();
    let mut results: Vec<RunResult> = Vec::new();
    for &workers in &WORKER_COUNTS {
        let r = run(&corpus, workers, per_client, &paths);
        println!(
            "  {} worker(s): {} completed, {} errors, {} ok(200), {} replay mismatches, wall {:.0} ms",
            workers,
            r.loadgen.completed,
            r.loadgen.errors,
            r.loadgen.status(200),
            r.report.stats.mismatches,
            r.wall_ms
        );
        results.push(r);
    }

    let mut runs_json = Vec::new();
    for r in &results {
        // Gate 1: nothing sheds, nothing errors — every arrival is a 200.
        if r.loadgen.completed != total || r.loadgen.errors != 0 || r.loadgen.status(200) != total {
            failures.push(format!(
                "{} workers: {} of {} completed, {} errors, {} with status 200",
                r.workers,
                r.loadgen.completed,
                total,
                r.loadgen.errors,
                r.loadgen.status(200)
            ));
        }
        // Gate 2: byte-identity — one distinct body per path, equal to the
        // direct Server's bytes.
        for (path, bodies) in &r.loadgen.bodies {
            if bodies.len() != 1 {
                failures.push(format!(
                    "{} workers: {} served {} distinct bodies",
                    r.workers,
                    path,
                    bodies.len()
                ));
                continue;
            }
            match expected.get(path) {
                Some(want) if want == &bodies[0] => {}
                Some(_) => failures.push(format!(
                    "{} workers: {} body differs from direct Server bytes",
                    r.workers, path
                )),
                None => failures.push(format!("{} workers: unexpected path {}", r.workers, path)),
            }
        }
        // Gate 3: reference replay stayed clean on every worker.
        if r.report.stats.mismatches != 0 {
            failures.push(format!(
                "{} workers: {} replay mismatches",
                r.workers, r.report.stats.mismatches
            ));
        }
        // Gate 4: the front door and the workers agree on volume.
        if r.report.stats.requests != total || r.report.front.http_requests != total {
            failures.push(format!(
                "{} workers: workers served {} and the front door saw {}, expected {}",
                r.workers, r.report.stats.requests, r.report.front.http_requests, total
            ));
        }

        let mut lat = r.loadgen.latencies_us.clone();
        lat.sort_unstable();
        let (p50, p95, p99) = (
            percentile(&lat, 50.0),
            percentile(&lat, 95.0),
            percentile(&lat, 99.0),
        );
        let req_per_s = r.loadgen.completed as f64 / (r.loadgen.wall_us.max(1) as f64 / 1e6);
        println!(
            "  {} worker(s): {:>9.0} req/s (wall), p50/p95/p99 = {}/{}/{} us",
            r.workers, req_per_s, p50, p95, p99
        );
        runs_json.push(format!(
            "    {{\"workers\": {}, \"requests\": {}, \"ok_200\": {}, \"errors\": {}, \
             \"req_per_s\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"replay_mismatches\": {}, \"worker_requests\": {}, \"wall_clock_ms\": {:.1}}}",
            r.workers,
            total,
            r.loadgen.status(200),
            r.loadgen.errors,
            req_per_s,
            p50,
            p95,
            p99,
            r.report.stats.mismatches,
            r.report.stats.requests,
            r.wall_ms
        ));
    }

    let byte_identity = failures.is_empty();
    let json = format!(
        "{{\n  \"bench\": \"http\",\n  \"mode\": \"{}\",\n  \"model\": \"wall-clock over loopback sockets; {} loadgen clients; corpus served via GET /run/<name>\",\n  \"corpus_scripts\": {},\n  \"requests_per_run\": {},\n  \"byte_identity_vs_direct_server\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        CLIENTS,
        corpus.len(),
        total,
        byte_identity,
        runs_json.join(",\n")
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("http_bench: wrote {out_path}");

    if failures.is_empty() {
        println!("http_bench: PASS (all 200s, byte-identical to direct serving, 0 mismatches)");
    } else {
        for f in &failures {
            eprintln!("http_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
