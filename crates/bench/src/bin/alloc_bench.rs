//! `alloc_bench` — arena/epoch allocation versus classic free lists.
//!
//! Drives the corpus through [`serve::WorkerPool`] at 1/2/4/8 workers on
//! the serving engine (the compiled VM with facts) under a zipfian request
//! mix (hot scripts dominate, like the paper's trace-driven workloads),
//! twice per worker count: once with the allocator's classic free-list path
//! and once with arena/epoch mode enabled, where every allocation site the
//! region analysis proved request-scoped bump-allocates into a per-request
//! epoch reclaimed in O(1) at the request boundary.
//!
//! The run fails (exit 1) on any of [`bench::Sweep`]'s gates (the two legs
//! byte-identical request for request, each pool-deterministic, replay
//! against the all-software reference clean — the references keep the
//! free-list path, so arena runs are also cross-checked against classic
//! allocation — every request ok, no live blocks), or unless arena mode at
//! every worker count saves teardown µops, reclaims bytes and spends fewer
//! elapsed µops than the free list.
//!
//! Results land in `BENCH_alloc.json`.
//!
//! Usage: `alloc_bench [--smoke] [--out PATH]`

use bench::{serve_corpus, zipf_schedule, Bench, Json, Sweep};
use serve::PoolConfig;
use std::process::ExitCode;
use workloads::php_corpus::CorpusCache;

/// Requests per run (full mode / --smoke).
const FULL_REQUESTS: u64 = 400;
const SMOKE_REQUESTS: u64 = 80;

fn main() -> ExitCode {
    let bench = Bench::from_env("alloc");
    let requests = bench.full_or_smoke(FULL_REQUESTS, SMOKE_REQUESTS);

    println!("alloc_bench: building the shared compile cache...");
    let cache = CorpusCache::build();
    let schedule = zipf_schedule(requests, cache.len());
    // A fact about the corpus, not about a run: the allocation sites the
    // region analysis proved request-scoped, counted once over the scripts.
    let arena_safe_sites: usize = cache
        .scripts()
        .iter()
        .map(|p| p.facts.arena_safe_count())
        .sum();
    println!(
        "alloc_bench: {} corpus scripts ({arena_safe_sites} arena-safe sites), \
         {requests} zipfian requests per run",
        cache.len(),
    );

    let mut sweep = Sweep::run(requests, &["free-list", "arena"], |workers, leg| {
        let cfg = PoolConfig::deterministic(workers, requests).with_arena(leg == 1);
        serve_corpus(cfg, &cache, |req| schedule[req as usize])
    });

    let mut runs = Vec::new();
    for p in &sweep.points {
        let workers = p.workers;
        let (off_uops, on_uops) = (p.elapsed(0), p.elapsed(1));
        let on = &p.legs[1].report;
        let s = &on.savings;
        println!(
            "  {workers} worker(s): elapsed {off_uops} -> {on_uops} uops ({:+.2}%), \
             teardown-uops-saved {}, arena-bytes-reclaimed {}",
            100.0 * (on_uops as f64 - off_uops as f64) / off_uops as f64,
            s.teardown_uops_saved,
            s.arena_bytes_reclaimed,
        );
        let failures = &mut sweep.failures;
        if s.teardown_uops_saved == 0 {
            failures.push(format!(
                "{workers} workers: no teardown uops saved in arena mode"
            ));
        }
        if s.arena_bytes_reclaimed == 0 {
            failures.push(format!("{workers} workers: no bytes arena-reclaimed"));
        }
        if on_uops >= off_uops {
            failures.push(format!(
                "{workers} workers: arena spent {on_uops} elapsed uops vs {off_uops} on the free list"
            ));
        }
        runs.push(Json::Obj(vec![
            ("workers", workers.into()),
            ("requests", requests.into()),
            ("ok", on.stats.ok.into()),
            ("elapsed_uops_free_list", off_uops.into()),
            ("elapsed_uops_arena", on_uops.into()),
            ("teardown_uops_saved", s.teardown_uops_saved.into()),
            ("arena_bytes_reclaimed", s.arena_bytes_reclaimed.into()),
            ("replay_mismatches", p.replay_mismatches().into()),
            ("wall_clock_ms", Json::Fixed(p.wall_ms(), 1)),
        ]));
    }

    // Headline: the 1-worker run's saved teardown µops.
    let teardown_saved = sweep.points[0].legs[1].report.savings.teardown_uops_saved;
    let doc = bench.document(
        "arena/epoch allocation for region-analysis-proven request-scoped sites; O(1) epoch \
         reset at request end vs per-block free-list teardown; serving engine (vm, facts)",
        vec![
            ("corpus_scripts", cache.len().into()),
            ("corpus_arena_safe_sites", arena_safe_sites.into()),
            ("requests_per_run", requests.into()),
            ("request_mix", "zipfian".into()),
            ("mismatches", sweep.mismatches.into()),
            ("teardown_uops_saved_at_1_worker", teardown_saved.into()),
            ("runs", Json::Arr(runs)),
        ],
    );
    bench.finish(
        &doc,
        &sweep.failures,
        "mismatches == 0, arena cheaper with teardown uops saved at every worker count",
    )
}
