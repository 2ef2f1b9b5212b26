//! `memo_bench` — the cross-request memo cache versus plain re-execution.
//!
//! Drives the corpus through [`serve::WorkerPool`] at 1/2/4/8 workers under
//! the zipfian *session* model (hot users dominate and sessions revisit the
//! same scripts — the request shape that makes cross-request memoization
//! pay), twice per worker count: once plain, and once with one shared
//! sharded [`serve::MemoCache`] attached to every worker's scripts, so call
//! sites the effect analysis proved memoizable replay results another
//! worker computed.
//!
//! The run fails (exit 1) unless:
//!
//! * every memo-on response is byte-identical to its memo-off counterpart,
//!   request for request, at every worker count;
//! * every multi-worker stream reproduces the single-worker stream exactly
//!   (pool determinism), in both modes;
//! * the per-request replay against each worker's all-software reference
//!   reports zero mismatches;
//! * the shared tier genuinely engages at every worker count (warm hits,
//!   stores, and dependency invalidations all nonzero) and memo-on spends
//!   measurably fewer elapsed simulated µops than memo-off at 4 and 8
//!   workers.
//!
//! Results land in `BENCH_memo.json`. Response bytes are deterministic at
//! every worker count, but the elapsed-uop figures at >1 worker carry
//! bounded run-to-run jitter: which worker wins the race to store a shared
//! entry (and which then hit it) depends on thread interleaving, and the
//! elapsed metric is the busiest worker's ledger. The reduction stays
//! comfortably positive either way — that, not an exact uop count, is what
//! the bench enforces.
//!
//! Usage: `memo_bench [--smoke] [--out PATH]`

use php_interp::MemoTier;
use phpaccel_core::PhpMachine;
use serve::{MemoCache, PoolConfig, PoolReport, Scripts, WorkerPool};
use std::sync::Arc;
use std::time::Instant;
use workloads::php_corpus::CorpusCache;
use workloads::session::{SessionConfig, SessionModel};

/// Worker counts the bench sweeps.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Requests per run (full mode / --smoke). The smoke run is the shortest
/// whose primaries alone invalidate something at every worker count (the
/// first dependency write that finds a stored entry is past request 80).
const FULL_REQUESTS: u64 = 400;
const SMOKE_REQUESTS: u64 = 120;

/// Session-structured request → script schedule, fixed up front so the
/// mapping depends only on the global request index (identical at every
/// worker count): 64 zipfian users, geometric sessions averaging five
/// steps, a modest write mix.
fn session_schedule(requests: u64, scripts: usize) -> Arc<Vec<usize>> {
    let mut model = SessionModel::new(SessionConfig {
        users: 64,
        continue_prob: 0.8,
        write_prob: 0.15,
        seed: 0x5E55,
    });
    Arc::new(
        model
            .generate(requests as usize, scripts)
            .into_iter()
            .map(|r| r.script)
            .collect(),
    )
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
    memo: Option<Arc<MemoCache>>,
) -> RunResult {
    let mut cfg = PoolConfig::deterministic(workers, requests);
    if let Some(c) = &memo {
        cfg = cfg.with_memo(Arc::clone(c));
    }
    let pool = WorkerPool::new(cfg);
    let tier = memo.map(|c| c as Arc<dyn MemoTier>);
    let start = Instant::now();
    let report = pool.run(
        |_| PhpMachine::specialized(),
        |_w| Scripts {
            pick: move |req| Arc::clone(&cache.scripts()[schedule[req as usize]]),
            memo: tier.clone(),
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
        .unwrap_or("BENCH_memo.json")
        .to_string();
    let requests = if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS };

    println!("memo_bench: building the shared compile cache...");
    let cache = Arc::new(CorpusCache::build());
    let schedule = session_schedule(requests, cache.len());
    println!(
        "memo_bench: {} corpus scripts, {} session-model requests per run",
        cache.len(),
        requests
    );

    let mut failures: Vec<String> = Vec::new();
    let mut runs_json = Vec::new();
    let mut identity_mismatches = 0u64;
    let mut replay_mismatches = 0u64;
    let mut reference_off: Option<RunResult> = None;
    let mut reference_on: Option<RunResult> = None;
    let mut reduction_at = Vec::new();

    for &workers in &WORKER_COUNTS {
        let off = run(&cache, &schedule, workers, requests, None);
        // A fresh shared cache per run: the hit rate measured is what this
        // worker count earns on its own, not inherited warmth.
        let shared = Arc::new(MemoCache::default());
        let on = run(
            &cache,
            &schedule,
            workers,
            requests,
            Some(Arc::clone(&shared)),
        );

        // Memo on vs off: byte-identical request for request.
        for (a, b) in off.report.records.iter().zip(&on.report.records) {
            if a.request != b.request || a.response != b.response {
                identity_mismatches += 1;
            }
        }
        // Pool determinism: every stream matches the 1-worker stream of its
        // own mode (responses only — hit/miss splits legitimately differ
        // with worker interleaving, served bytes may not).
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
        let reduction = 100.0 * (off_uops as f64 - on_uops as f64) / off_uops as f64;
        let snap = on.report.memo.expect("memo-on run snapshots its cache");
        println!(
            "  {} worker(s): elapsed {} -> {} uops ({:+.2}%), cache: entries {} \
             hits {} misses {} stores {} invalidations {}",
            workers,
            off_uops,
            on_uops,
            -reduction,
            snap.entries,
            snap.hits,
            snap.misses,
            snap.stores,
            snap.invalidations,
        );

        if off.report.stats.ok != requests || on.report.stats.ok != requests {
            failures.push(format!(
                "{workers} workers: {}/{} (off/on) of {requests} requests ok",
                off.report.stats.ok, on.report.stats.ok
            ));
        }
        if snap.hits == 0 {
            failures.push(format!(
                "{workers} workers: shared tier never replayed a hit"
            ));
        }
        if snap.stores == 0 {
            failures.push(format!("{workers} workers: no proven site ever stored"));
        }
        if snap.invalidations == 0 {
            failures.push(format!(
                "{workers} workers: dependency writes never invalidated anything"
            ));
        }
        if off.report.live_blocks != 0 || on.report.live_blocks != 0 {
            failures.push(format!(
                "{workers} workers: leaked live blocks (off={}, on={})",
                off.report.live_blocks, on.report.live_blocks
            ));
        }
        if workers >= 4 {
            reduction_at.push((workers, reduction));
            if on_uops >= off_uops {
                failures.push(format!(
                    "{workers} workers: memo-on spent {on_uops} elapsed uops vs \
                     {off_uops} memo-off — no measurable reduction"
                ));
            }
        }

        runs_json.push(format!(
            "    {{\"workers\": {}, \"requests\": {}, \"ok\": {}, \
             \"elapsed_uops_memo_off\": {}, \"elapsed_uops_memo_on\": {}, \
             \"elapsed_uop_reduction_pct\": {:.2}, \"memo_hits\": {}, \
             \"memo_misses\": {}, \"memo_stores\": {}, \"memo_invalidations\": {}, \
             \"cache_entries\": {}, \"replay_mismatches\": {}, \
             \"wall_clock_ms\": {:.1}}}",
            workers,
            requests,
            on.report.stats.ok,
            off_uops,
            on_uops,
            reduction,
            snap.hits,
            snap.misses,
            snap.stores,
            snap.invalidations,
            snap.entries,
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

    let json = format!(
        "{{\n  \"bench\": \"memo\",\n  \"mode\": \"{}\",\n  \"model\": \"effect-analysis-proven \
         memoizable call sites served out of one sharded cross-request cache shared by all \
         workers; keys embed argument and read-set-global values, dependency writes invalidate \
         by fingerprint\",\n  \"corpus_scripts\": {},\n  \"requests_per_run\": {},\n  \
         \"request_mix\": \"zipfian-session\",\n  \"mismatches\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        cache.len(),
        requests,
        mismatches,
        runs_json.join(",\n")
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("memo_bench: wrote {out_path}");

    if failures.is_empty() {
        let headline = reduction_at
            .iter()
            .map(|(w, r)| format!("{r:.1}% at {w} workers"))
            .collect::<Vec<_>>()
            .join(", ");
        println!("memo_bench: PASS (mismatches == 0, elapsed-uop reduction {headline})");
    } else {
        for f in &failures {
            eprintln!("memo_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
