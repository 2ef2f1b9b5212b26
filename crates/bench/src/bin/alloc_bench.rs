//! `alloc_bench` — arena/epoch allocation versus classic free lists.
//!
//! Drives the corpus through [`serve::WorkerPool`] at 1/2/4/8 workers under
//! a zipfian request mix (hot scripts dominate, like the paper's
//! trace-driven workloads), twice per worker count: once with the
//! allocator's classic free-list path and once with arena/epoch mode
//! enabled, where every allocation site the region analysis proved
//! request-scoped bump-allocates into a per-request epoch reclaimed in O(1)
//! at the request boundary.
//!
//! The run fails (exit 1) unless:
//!
//! * every response is byte-identical between the two modes, request for
//!   request, at every worker count;
//! * every multi-worker stream reproduces the single-worker stream exactly
//!   (pool determinism), in both modes;
//! * the per-request replay against each worker's all-software baseline
//!   reference reports zero mismatches (the references keep the free-list
//!   path, so arena runs are also cross-checked against classic
//!   allocation);
//! * arena mode reports a measurable teardown-µop reduction and reclaims a
//!   non-zero number of bytes, and no machine leaks live blocks.
//!
//! Results land in `BENCH_alloc.json`.
//!
//! Usage: `alloc_bench [--smoke] [--out PATH]`

use phpaccel_core::PhpMachine;
use serve::{PoolConfig, PoolReport, Scripts, WorkerPool};
use std::sync::Arc;
use std::time::Instant;
use workloads::corpus::{Corpus, CorpusConfig};
use workloads::php_corpus::CorpusCache;

/// Worker counts the bench sweeps.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Requests per run (full mode / --smoke).
const FULL_REQUESTS: u64 = 400;
const SMOKE_REQUESTS: u64 = 80;

/// Zipfian request → script schedule, fixed up front so the mapping depends
/// only on the global request index (identical at every worker count).
fn zipf_schedule(requests: u64, scripts: usize) -> Arc<Vec<usize>> {
    let mut corpus = Corpus::new(CorpusConfig::default());
    Arc::new((0..requests).map(|_| corpus.zipf_pick(scripts)).collect())
}

struct RunResult {
    report: PoolReport,
    wall_ms: f64,
}

fn run(
    cache: &Arc<CorpusCache>,
    schedule: &Arc<Vec<usize>>,
    workers: usize,
    requests: u64,
    arena: bool,
) -> RunResult {
    let pool = WorkerPool::new(PoolConfig::deterministic(workers, requests).with_arena(arena));
    let start = Instant::now();
    let report = pool.run(
        |_| PhpMachine::specialized(),
        |_w| Scripts {
            pick: move |req| Arc::clone(&cache.scripts()[schedule[req as usize]]),
            memo: None,
        },
    );
    RunResult {
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
        .unwrap_or("BENCH_alloc.json")
        .to_string();
    let requests = if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS };

    println!("alloc_bench: building the shared compile cache...");
    let cache = Arc::new(CorpusCache::build());
    let schedule = zipf_schedule(requests, cache.len());
    println!(
        "alloc_bench: {} corpus scripts, {} zipfian requests per run",
        cache.len(),
        requests
    );

    let mut failures: Vec<String> = Vec::new();
    let mut runs_json = Vec::new();
    let mut identity_mismatches = 0u64;
    let mut replay_mismatches = 0u64;
    let mut reference_off: Option<RunResult> = None;
    let mut reference_on: Option<RunResult> = None;

    for &workers in &WORKER_COUNTS {
        let off = run(&cache, &schedule, workers, requests, false);
        let on = run(&cache, &schedule, workers, requests, true);

        // Arena on vs off: byte-identical request for request.
        for (a, b) in off.report.records.iter().zip(&on.report.records) {
            if a.request != b.request || a.response != b.response {
                identity_mismatches += 1;
            }
        }
        // Pool determinism: every stream matches the 1-worker stream of its
        // own mode.
        for (reference, r) in [(&reference_off, &off), (&reference_on, &on)] {
            if let Some(base) = reference {
                for (a, b) in base.report.records.iter().zip(&r.report.records) {
                    if a.request != b.request || a.response != b.response {
                        identity_mismatches += 1;
                    }
                }
            }
        }
        replay_mismatches += off.report.stats.mismatches + on.report.stats.mismatches;

        let off_uops = off.report.simulated_elapsed_uops();
        let on_uops = on.report.simulated_elapsed_uops();
        let s = &on.report.savings;
        println!(
            "  {} worker(s): elapsed {} -> {} uops ({:+.2}%), teardown-uops-saved {}, \
             arena-bytes-reclaimed {}, arena-safe-sites {}",
            workers,
            off_uops,
            on_uops,
            100.0 * (on_uops as f64 - off_uops as f64) / off_uops as f64,
            s.teardown_uops_saved,
            s.arena_bytes_reclaimed,
            s.arena_safe_sites,
        );

        if off.report.stats.ok != requests || on.report.stats.ok != requests {
            failures.push(format!(
                "{workers} workers: {}/{} (off/on) of {requests} requests ok",
                off.report.stats.ok, on.report.stats.ok
            ));
        }
        if s.teardown_uops_saved == 0 {
            failures.push(format!(
                "{workers} workers: no teardown uops saved in arena mode"
            ));
        }
        if s.arena_bytes_reclaimed == 0 {
            failures.push(format!("{workers} workers: no bytes arena-reclaimed"));
        }
        if off.report.live_blocks != 0 || on.report.live_blocks != 0 {
            failures.push(format!(
                "{workers} workers: leaked live blocks (off={}, on={})",
                off.report.live_blocks, on.report.live_blocks
            ));
        }

        runs_json.push(format!(
            "    {{\"workers\": {}, \"requests\": {}, \"ok\": {}, \
             \"elapsed_uops_free_list\": {}, \"elapsed_uops_arena\": {}, \
             \"teardown_uops_saved\": {}, \"arena_bytes_reclaimed\": {}, \
             \"arena_safe_sites\": {}, \"replay_mismatches\": {}, \
             \"wall_clock_ms\": {:.1}}}",
            workers,
            requests,
            on.report.stats.ok,
            off_uops,
            on_uops,
            s.teardown_uops_saved,
            s.arena_bytes_reclaimed,
            s.arena_safe_sites,
            off.report.stats.mismatches + on.report.stats.mismatches,
            off.wall_ms + on.wall_ms,
        ));
        if workers == 1 {
            reference_off = Some(off);
            reference_on = Some(on);
        }
    }

    let mismatches = identity_mismatches + replay_mismatches;
    if mismatches != 0 {
        failures.push(format!(
            "{mismatches} mismatches ({identity_mismatches} byte-identity/determinism, \
             {replay_mismatches} replay)"
        ));
    }

    // Headline: teardown reduction at 4 workers (the paper's per-core sweet
    // spot), as saved teardown µops per request.
    let teardown_saved_total: u64 = reference_on
        .as_ref()
        .map(|r| r.report.savings.teardown_uops_saved)
        .unwrap_or(0);

    let json = format!(
        "{{\n  \"bench\": \"alloc\",\n  \"mode\": \"{}\",\n  \"model\": \"arena/epoch \
         allocation for region-analysis-proven request-scoped sites; O(1) epoch reset at \
         request end vs per-block free-list teardown\",\n  \"corpus_scripts\": {},\n  \
         \"requests_per_run\": {},\n  \"request_mix\": \"zipfian\",\n  \"mismatches\": {},\n  \
         \"teardown_uops_saved_at_1_worker\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        cache.len(),
        requests,
        mismatches,
        teardown_saved_total,
        runs_json.join(",\n")
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("alloc_bench: wrote {out_path}");

    if failures.is_empty() {
        println!("alloc_bench: PASS (mismatches == 0, teardown uops saved at every worker count)");
    } else {
        for f in &failures {
            eprintln!("alloc_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
