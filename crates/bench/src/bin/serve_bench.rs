//! `serve_bench` — multi-worker pool throughput and latency over the corpus.
//!
//! Drives [`serve::WorkerPool`] at 1/2/4/8 workers over the shared compile
//! cache (every corpus script parsed + analyzed once, executed by all
//! workers), verifies byte-identity of every response against the
//! single-worker reference run, and emits `BENCH_serve.json`.
//!
//! **Timing model.** The host has no spare cores to demonstrate wall-clock
//! parallelism, and the repo's methodology is simulated µops throughout
//! (every figure binary reports metered work, not host time). Workers model
//! the paper's per-core deployment: each owns a private machine, so the
//! pool's simulated elapsed time is the *busiest worker's* metered µops and
//! throughput scales with how evenly the stream shards. Latency percentiles
//! come from per-request µop deltas. Both are converted to seconds at a
//! nominal 1 µop/cycle, 2 GHz clock (the conversion cancels out of every
//! ratio the acceptance criteria check). Host wall-clock per run is also
//! reported for transparency.
//!
//! Usage: `serve_bench [--smoke] [--out PATH]`

use phpaccel_core::PhpMachine;
use serve::{PoolConfig, PoolReport, Scripts, WorkerPool};
use std::sync::Arc;
use std::time::Instant;
use workloads::php_corpus::CorpusCache;

/// Nominal clock for µops → seconds conversion (1 µop per cycle).
const CLOCK_GHZ: f64 = 2.0;
/// Worker counts the bench sweeps.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Requests per run (full mode / --smoke).
const FULL_REQUESTS: u64 = 400;
const SMOKE_REQUESTS: u64 = 80;

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn uops_to_us(uops: u64) -> f64 {
    uops as f64 / (CLOCK_GHZ * 1_000.0)
}

struct RunResult {
    workers: usize,
    report: PoolReport,
    wall_ms: f64,
}

fn run(cache: &Arc<CorpusCache>, workers: usize, requests: u64) -> RunResult {
    let pool = WorkerPool::new(PoolConfig::deterministic(workers, requests));
    let start = Instant::now();
    let report = pool.run(
        |_| PhpMachine::specialized(),
        |_w| Scripts {
            pick: move |req| Arc::clone(cache.script_for_request(req)),
            memo: None,
        },
    );
    RunResult {
        workers,
        report,
        wall_ms: start.elapsed().as_secs_f64() * 1000.0,
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
        .unwrap_or("BENCH_serve.json")
        .to_string();
    let requests = if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS };

    println!("serve_bench: building the shared compile cache...");
    let cache = Arc::new(CorpusCache::build());
    println!(
        "serve_bench: {} corpus scripts parsed + analyzed once; {} requests per run",
        cache.len(),
        requests
    );

    let mut results: Vec<RunResult> = Vec::new();
    for &workers in &WORKER_COUNTS {
        let r = run(&cache, workers, requests);
        println!(
            "  {} worker(s): {} ok, {} replay mismatches, elapsed {} uops, wall {:.0} ms",
            workers,
            r.report.stats.ok,
            r.report.stats.mismatches,
            r.report.simulated_elapsed_uops(),
            r.wall_ms
        );
        results.push(r);
    }

    // Byte-identity: every multi-worker run must reproduce the single-worker
    // responses exactly, request for request.
    let reference = &results[0].report;
    let mut identity_mismatches = 0u64;
    for r in &results[1..] {
        for (a, b) in reference.records.iter().zip(&r.report.records) {
            if a.request != b.request || a.response != b.response {
                identity_mismatches += 1;
            }
        }
    }
    let replay_mismatches: u64 = results.iter().map(|r| r.report.stats.mismatches).sum();
    let mismatches = identity_mismatches + replay_mismatches;

    let base_elapsed = reference.simulated_elapsed_uops() as f64;
    let mut failures: Vec<String> = Vec::new();
    let mut runs_json = Vec::new();
    let mut speedup_at_4 = 0.0;
    for r in &results {
        let report = &r.report;
        let elapsed_uops = report.simulated_elapsed_uops();
        let secs = elapsed_uops as f64 / (CLOCK_GHZ * 1e9);
        let req_per_s = requests as f64 / secs;
        let speedup = base_elapsed / elapsed_uops as f64;
        if r.workers == 4 {
            speedup_at_4 = speedup;
        }
        let mut lat: Vec<u64> = report.service_uops.clone();
        lat.sort_unstable();
        let (p50, p95, p99) = (
            percentile(&lat, 50.0),
            percentile(&lat, 95.0),
            percentile(&lat, 99.0),
        );
        if report.stats.ok != requests {
            failures.push(format!(
                "{} workers: {} of {} requests ok",
                r.workers, report.stats.ok, requests
            ));
        }
        println!(
            "  {} worker(s): {:>12.0} req/s (sim), speedup {:.2}x, p50/p95/p99 = {:.1}/{:.1}/{:.1} us",
            r.workers,
            req_per_s,
            speedup,
            uops_to_us(p50),
            uops_to_us(p95),
            uops_to_us(p99)
        );
        runs_json.push(format!(
            "    {{\"workers\": {}, \"requests\": {}, \"ok\": {}, \"simulated_elapsed_uops\": {}, \
             \"req_per_s\": {:.1}, \"speedup_vs_1_worker\": {:.3}, \"p50_us\": {:.2}, \
             \"p95_us\": {:.2}, \"p99_us\": {:.2}, \"replay_mismatches\": {}, \"wall_clock_ms\": {:.1}}}",
            r.workers,
            requests,
            report.stats.ok,
            elapsed_uops,
            req_per_s,
            speedup,
            uops_to_us(p50),
            uops_to_us(p95),
            uops_to_us(p99),
            report.stats.mismatches,
            r.wall_ms
        ));
    }

    if mismatches != 0 {
        failures.push(format!(
            "{mismatches} mismatches ({identity_mismatches} byte-identity, {replay_mismatches} replay)"
        ));
    }
    if speedup_at_4 < 1.5 {
        failures.push(format!(
            "simulated speedup at 4 workers is {speedup_at_4:.2}x, need >= 1.5x"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"mode\": \"{}\",\n  \"model\": \"simulated-cores: elapsed = max over workers of metered uops; {} GHz nominal clock, 1 uop/cycle\",\n  \"corpus_scripts\": {},\n  \"requests_per_run\": {},\n  \"clock_ghz\": {:.1},\n  \"mismatches\": {},\n  \"speedup_at_4_workers\": {:.3},\n  \"runs\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        CLOCK_GHZ,
        cache.len(),
        requests,
        CLOCK_GHZ,
        mismatches,
        speedup_at_4,
        runs_json.join(",\n")
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("serve_bench: wrote {out_path}");

    if failures.is_empty() {
        println!("serve_bench: PASS (mismatches == 0, 4-worker speedup {speedup_at_4:.2}x)");
    } else {
        for f in &failures {
            eprintln!("serve_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
