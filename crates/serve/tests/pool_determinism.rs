//! Pool determinism: the same corpus and fault seed must produce the same
//! results at any worker count.
//!
//! Every worker executes scripts out of one shared, `Arc`-held
//! [`CorpusCache`] (parse + analyze once — the shared compile cache), on its
//! own private machine, with the global fault plan partitioned so each fault
//! fires on the worker that serves its request. In the pool's deterministic
//! mode (machines restored to a pristine request boundary between requests)
//! every request's result depends only on its global index, so sharding the
//! stream across 1, 2, 4, or 8 workers must change nothing observable:
//! byte-identical per-request responses, identical merged `StaticSavings`
//! and fault counters, and zero reference-replay mismatches.

use php_interp::MemoTier;
use phpaccel_core::{AccelId, Engine, PhpMachine};
use serve::{FaultPlan, MemoCache, PoolConfig, PoolReport, Scripts, WorkerPool};
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;

const REQUESTS: u64 = 40;
// Chosen so the seeded plan's string-config faults land on requests whose
// scripts actually drive the string accelerator (the corpus round-robin
// changed when the memo entries were added, which retired the old seed).
const SEED: u64 = 3;

fn run_pool_with(
    cache: &Arc<CorpusCache>,
    workers: usize,
    engine: Engine,
    arena: bool,
) -> PoolReport {
    let mut cfg = PoolConfig::deterministic(workers, REQUESTS).with_arena(arena);
    // Two faults per domain: enough to exercise detection on every shard
    // layout, few enough that no breaker reaches its trip threshold (which
    // would make degradation flags depend on the sharding).
    cfg.plan = FaultPlan::seeded(SEED, 2, 4, 36);
    let pool = WorkerPool::new(cfg);
    let cache = Arc::clone(cache);
    pool.run(
        move |_| {
            let mut m = PhpMachine::specialized();
            m.set_engine(engine);
            m
        },
        move |_w| {
            let cache = Arc::clone(&cache);
            move |m: &mut PhpMachine, req: u64| cache.script_for_request(req).run(m, true)
        },
    )
}

/// The pool on the serving engine (the VM with facts), arena off.
fn run_pool(cache: &Arc<CorpusCache>, workers: usize) -> PoolReport {
    run_pool_with(cache, workers, Engine::Vm, false)
}

#[test]
fn pool_results_are_identical_at_any_worker_count() {
    let cache = Arc::new(CorpusCache::build());
    let reference = run_pool(&cache, 1);

    assert_eq!(reference.stats.requests, REQUESTS);
    assert_eq!(reference.stats.ok, REQUESTS);
    assert_eq!(reference.stats.mismatches, 0);
    assert!(reference.records.iter().all(|r| !r.response.is_empty()));
    assert!(
        reference.detected[AccelId::Str.index()] > 0,
        "the seeded plan must actually exercise fault detection"
    );
    assert!(reference.savings.total() > 0, "facts must be applied");

    for workers in [2usize, 4, 8] {
        let got = run_pool(&cache, workers);
        assert_eq!(got.stats, reference.stats, "{workers} workers: stats");
        assert_eq!(
            got.savings, reference.savings,
            "{workers} workers: merged StaticSavings"
        );
        assert_eq!(
            got.injected, reference.injected,
            "{workers} workers: injected faults"
        );
        assert_eq!(
            got.detected, reference.detected,
            "{workers} workers: detected faults"
        );
        assert_eq!(got.stats.mismatches, 0, "{workers} workers: replay");
        // Record-for-record equality covers response bytes, outcomes,
        // degradation flags, and per-request fault deltas at once.
        assert_eq!(
            got.records, reference.records,
            "{workers} workers: per-request records"
        );
    }
}

/// The same determinism guarantee with arena allocation on and the seeded
/// fault plan live: sharding across 1/2/4/8
/// workers changes nothing, and every successful response replays
/// byte-identically on the all-software tree-walk reference machine (the
/// pool's reference machines stay on the default engine, so the replay
/// check here is *also* a cross-engine differential under fault injection).
#[test]
fn vm_pool_results_are_identical_at_any_worker_count() {
    let cache = Arc::new(CorpusCache::build());
    let reference = run_pool_with(&cache, 1, Engine::Vm, true);

    assert_eq!(reference.stats.requests, REQUESTS);
    assert_eq!(reference.stats.ok, REQUESTS);
    assert_eq!(
        reference.stats.mismatches, 0,
        "vm responses must replay byte-identically on the tree-walk reference"
    );
    assert!(reference.records.iter().all(|r| !r.response.is_empty()));
    assert!(
        reference.savings.vm_ops_executed > 0,
        "the vm engine must actually have executed opcodes"
    );
    assert!(
        reference.detected[AccelId::Str.index()] > 0,
        "the seeded plan must exercise fault detection under the vm too"
    );

    for workers in [2usize, 4, 8] {
        let got = run_pool_with(&cache, workers, Engine::Vm, true);
        assert_eq!(got.stats, reference.stats, "vm {workers} workers: stats");
        // Every savings counter — the VM's own op/fusion/transient counters
        // included — must merge to the same totals at any worker count.
        assert_eq!(
            got.savings, reference.savings,
            "vm {workers} workers: merged StaticSavings"
        );
        assert_eq!(
            got.injected, reference.injected,
            "vm {workers} workers: injected faults"
        );
        assert_eq!(
            got.detected, reference.detected,
            "vm {workers} workers: detected faults"
        );
        assert_eq!(got.stats.mismatches, 0, "vm {workers} workers: replay");
        assert_eq!(
            got.records, reference.records,
            "vm {workers} workers: per-request records"
        );
    }
}

/// Memo-on determinism: with a shared cross-request cache attached to the
/// primaries ([`Scripts`] keeps it from the references), hit/miss
/// splits depend on how workers interleave, but the served *bytes* cannot —
/// the tier stores only values-in-key-proven results, so a hit replays
/// exactly what recomputation would produce. Every memo-on response, at any
/// worker count, must equal the memo-off reference byte-for-byte and replay
/// clean against the all-software reference. The VM is the engine that
/// consults the tier.
#[test]
fn memo_pool_serves_identical_bytes_at_any_worker_count() {
    let cache = Arc::new(CorpusCache::build());
    let reference = run_pool(&cache, 1); // memo-off

    for workers in [1usize, 4, 8] {
        let memo = Arc::new(MemoCache::default());
        let mut cfg = PoolConfig::deterministic(workers, REQUESTS).with_memo(Arc::clone(&memo));
        cfg.plan = FaultPlan::seeded(SEED, 2, 4, 36);
        let pool = WorkerPool::new(cfg);
        let scripts = Arc::clone(&cache);
        let tier: Arc<dyn MemoTier> = memo;
        let got = pool.run(
            move |_| {
                let mut m = PhpMachine::specialized();
                m.set_engine(Engine::Vm);
                m
            },
            move |_w| {
                let scripts = Arc::clone(&scripts);
                Scripts {
                    pick: move |req| Arc::clone(scripts.script_for_request(req)),
                    memo: Some(Arc::clone(&tier)),
                }
            },
        );
        let label = format!("x{workers} memo-on");
        assert_eq!(got.stats.mismatches, 0, "{label}: reference replay");
        assert_eq!(got.stats.ok, REQUESTS, "{label}: outcomes");
        assert_eq!(got.records.len(), reference.records.len());
        for (g, r) in got.records.iter().zip(&reference.records) {
            assert_eq!(
                g.response, r.response,
                "{label}: request {} bytes diverged from memo-off",
                r.request
            );
            assert_eq!(g.outcome, r.outcome, "{label}: request {}", r.request);
        }
        // The tier genuinely engaged: proven sites consulted it and the
        // cache-wide snapshot shows resident entries.
        assert!(
            got.stats.memo_hits + got.stats.memo_misses > 0,
            "{label}: no memoizable site executed"
        );
        assert!(got.stats.memo_hits > 0, "{label}: warm tier never replayed");
        let snapshot = got.memo.expect("configured cache is snapshotted");
        assert!(snapshot.stores > 0, "{label}: nothing was cached");
        // The cache's traffic is the workers' traffic: no reference
        // machine is ever handed the tier, so replay neither scores
        // hits nor purges what the primaries stored.
        assert_eq!(
            snapshot.hits + snapshot.misses,
            got.stats.memo_hits + got.stats.memo_misses,
            "{label}: a reference machine reached the shared tier"
        );
    }
}

/// Engine choice is invisible to clients: a tree-walk pool and a VM pool
/// serving the same seeded stream produce byte-identical responses for
/// every request.
#[test]
fn vm_pool_serves_the_same_bytes_as_the_tree_walk_pool() {
    let cache = Arc::new(CorpusCache::build());
    let tree = run_pool_with(&cache, 4, Engine::TreeWalk, true);
    let vm = run_pool_with(&cache, 4, Engine::Vm, true);
    assert_eq!(tree.records.len(), vm.records.len());
    for (t, v) in tree.records.iter().zip(vm.records.iter()) {
        assert_eq!(
            t.response, v.response,
            "request {}: vm pool served different bytes",
            t.request
        );
        assert_eq!(t.outcome, v.outcome, "request {}: outcome", t.request);
    }
    assert_eq!(vm.live_blocks, 0, "vm pool leaked allocator blocks");
    assert_eq!(tree.live_blocks, 0, "tree pool leaked allocator blocks");
}

/// Every worker matches on the corpus cache's one compiled instance of each
/// constant `preg_*` pattern (an `Arc<Regex>` whose lazy DFA sits behind a
/// mutex), so workers now meet inside the regex engine. µops are a function
/// of bytes and calls, never of how warm the DFA is or who warmed it: a mix
/// weighted towards `comment-filter` (the corpus script with `preg_*` sites,
/// one of them a pattern returned from a function) must be record-for-record
/// identical at 1 and 8 workers.
///
/// µops are compared across worker counts on all-software machines, past
/// each machine's first request (its slab allocator carves its pages then):
/// from there on deterministic mode restores the machine completely, so a
/// request costs the same wherever it is served. A specialized machine's
/// accelerator tables warm up over many requests, so its µops depend on the
/// worker count with or without regexes. There the 8-worker run is repeated
/// instead: the same sharding must meter the same µops however the threads
/// interleave on the shared handles.
#[test]
fn shared_regex_handles_keep_the_pool_deterministic() {
    const REGEX_REQUESTS: u64 = 96;
    let cache = Arc::new(CorpusCache::build());
    let comment_filter = cache
        .scripts()
        .iter()
        .position(|s| s.entry().name == "comment-filter")
        .expect("comment-filter is in the corpus");
    let regexes = &cache.scripts()[comment_filter].unit().regexes;
    assert!(regexes.len() >= 2);

    let run = |workers: usize, machine: fn() -> PhpMachine| {
        let cfg = PoolConfig::deterministic(workers, REGEX_REQUESTS).with_arena(true);
        let cache = Arc::clone(&cache);
        WorkerPool::new(cfg).run(
            move |_| {
                let mut m = machine();
                m.set_engine(Engine::Vm);
                m
            },
            move |_w| {
                let cache = Arc::clone(&cache);
                move |m: &mut PhpMachine, req: u64| {
                    // Three requests in four hit the regex script.
                    let script = if req % 4 == 3 {
                        cache.script_for_request(req)
                    } else {
                        &cache.scripts()[comment_filter]
                    };
                    script.run(m, true)
                }
            },
        )
    };

    // (label, machine, whether a request costs the same on any shard)
    for (label, machine, shard_invariant) in [
        (
            "specialized",
            PhpMachine::specialized as fn() -> PhpMachine,
            false,
        ),
        ("baseline", PhpMachine::baseline, true),
    ] {
        let one = run(1, machine);
        assert_eq!(one.stats.ok, REGEX_REQUESTS, "{label}");
        assert_eq!(one.stats.mismatches, 0, "{label}: replay");
        assert!(one.savings.regex_compiles_avoided >= REGEX_REQUESTS);
        let eight = run(8, machine);
        assert_eq!(eight.stats.mismatches, 0, "{label} x8: replay");
        assert_eq!(eight.stats, one.stats, "{label} x8: stats");
        assert_eq!(eight.records, one.records, "{label} x8: records");
        if shard_invariant {
            assert_eq!(
                eight.service_uops[8..],
                one.service_uops[8..],
                "x8: per-request µops"
            );
        }
        let again = run(8, machine);
        assert_eq!(again.service_uops, eight.service_uops, "{label} x8, rerun");
        assert_eq!(again.worker_uops, eight.worker_uops, "{label} x8, rerun");
    }
    assert!(
        regexes.iter().all(|re| re.fsm_states() > 1),
        "the workers ran on the cache's own instances"
    );
}
