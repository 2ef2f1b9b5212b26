//! `serve_bench` — multi-worker pool throughput and latency over the corpus.
//!
//! Drives [`serve::WorkerPool`] at 1/2/4/8 workers over the shared compile
//! cache (every corpus script parsed, analyzed and compiled once, executed
//! by all workers) on the serving configuration (the compiled VM, facts,
//! arena), and emits `BENCH_serve.json`.
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
//! The run fails (exit 1) on any of [`bench::Sweep`]'s gates, a p50 of 0,
//! or a 4-worker speedup under 1.5×.
//!
//! Usage: `serve_bench [--smoke] [--out PATH]`

use bench::{serve_corpus, uops_to_us, Bench, Json, Sweep, CLOCK_GHZ};
use serve::{percentile, PoolConfig};
use std::process::ExitCode;
use workloads::php_corpus::CorpusCache;

/// Requests per run (full mode / --smoke).
const FULL_REQUESTS: u64 = 400;
const SMOKE_REQUESTS: u64 = 80;

fn main() -> ExitCode {
    let bench = Bench::from_env("serve");
    let requests = bench.full_or_smoke(FULL_REQUESTS, SMOKE_REQUESTS);

    println!("serve_bench: building the shared compile cache...");
    let cache = CorpusCache::build();
    println!(
        "serve_bench: {} corpus scripts parsed + analyzed once; {} requests per run",
        cache.len(),
        requests
    );

    let mut sweep = Sweep::run(requests, &["vm"], |workers, _| {
        let cfg = PoolConfig::deterministic(workers, requests).with_arena(true);
        serve_corpus(cfg, &cache, |req| (req % cache.len() as u64) as usize)
    });

    let base_elapsed = sweep.points[0].elapsed(0) as f64;
    let mut runs = Vec::new();
    let mut speedup_at_4 = 0.0;
    for p in &sweep.points {
        let report = &p.legs[0].report;
        let elapsed_uops = p.elapsed(0);
        let req_per_s = requests as f64 / (elapsed_uops as f64 / (CLOCK_GHZ * 1e9));
        let speedup = base_elapsed / elapsed_uops as f64;
        if p.workers == 4 {
            speedup_at_4 = speedup;
        }
        let mut lat: Vec<u64> = report.service_uops.clone();
        lat.sort_unstable();
        let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|q| uops_to_us(percentile(&lat, q)));
        if p50 <= 0.0 {
            sweep
                .failures
                .push(format!("{} workers: p50 latency is 0", p.workers));
        }
        println!(
            "  {} worker(s): {} ok, elapsed {elapsed_uops} uops, {req_per_s:>12.0} req/s (sim), \
             speedup {speedup:.2}x, p50/p95/p99 = {p50:.1}/{p95:.1}/{p99:.1} us, wall {:.0} ms",
            p.workers,
            report.stats.ok,
            p.wall_ms()
        );
        runs.push(Json::Obj(vec![
            ("workers", p.workers.into()),
            ("requests", requests.into()),
            ("ok", report.stats.ok.into()),
            ("simulated_elapsed_uops", elapsed_uops.into()),
            ("req_per_s", Json::Fixed(req_per_s, 1)),
            ("speedup_vs_1_worker", Json::Fixed(speedup, 3)),
            ("p50_us", Json::Fixed(p50, 2)),
            ("p95_us", Json::Fixed(p95, 2)),
            ("p99_us", Json::Fixed(p99, 2)),
            ("replay_mismatches", p.replay_mismatches().into()),
            ("wall_clock_ms", Json::Fixed(p.wall_ms(), 1)),
        ]));
    }
    if speedup_at_4 < 1.5 {
        sweep.failures.push(format!(
            "simulated speedup at 4 workers is {speedup_at_4:.2}x, need >= 1.5x"
        ));
    }

    let doc = bench.document(
        &format!(
            "simulated-cores: elapsed = max over workers of metered uops; {CLOCK_GHZ} GHz \
             nominal clock, 1 uop/cycle; serving configuration (vm, facts, arena)"
        ),
        vec![
            ("corpus_scripts", cache.len().into()),
            ("requests_per_run", requests.into()),
            ("clock_ghz", Json::Fixed(CLOCK_GHZ, 1)),
            ("mismatches", sweep.mismatches.into()),
            ("speedup_at_4_workers", Json::Fixed(speedup_at_4, 3)),
            ("runs", Json::Arr(runs)),
        ],
    );
    bench.finish(
        &doc,
        &sweep.failures,
        &format!("mismatches == 0, 4-worker speedup {speedup_at_4:.2}x"),
    )
}
