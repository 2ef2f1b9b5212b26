//! The paper's three applications on the specialized machine, pinned.
//!
//! `apps_inproc` and the `fig*` binaries read the four accelerator models
//! and the µop ledger. How the host computes them (the matching matrix's
//! row table, the hasher on simulated addresses, bulk ledger charges) is
//! not part of the modelled machine, so a change there must leave every
//! number below where it was. Only a change to the modelled machine may move
//! them, with its reason stated here.
//!
//! Each application runs as `LoadGen` runs it at seed 1: 300 warm-up
//! requests, then 1 000 measured ones, with a context switch every 50.
//!
//! Moved once, for a change to the modelled machine: a map the application
//! never frees explicitly (WordPress's tag and meta views and its template's
//! global symbol table, Drupal's eight field arrays) now dies at
//! `end_request`, which frees its hash-table entries (`hashtable_free`, 2
//! µops). Before, those entries outlived the request, and the next request's
//! maps, given the same descriptor addresses back by the free lists, hit
//! them: 10 018 of WordPress's set hits and all 11 302 of Drupal's updated a
//! dead map's pair, the dead pairs crowded live ones out (68 and 559 get
//! misses), and evicting them wrote 3 981 and 1 675 dead pairs back. Now
//! every get hits and nothing dead is written back; the extra frees cost
//! less than the write-backs. WordPress 43 472 578 → 43 447 731 µops, Drupal
//! 53 528 818 → 53 459 118, MediaWiki (which frees every map it makes)
//! unchanged.
//!
//! Moved a second time, for a change to the modelled machine: WordPress's
//! page template now runs on the VM, compiled once with its facts and
//! fused, instead of on the tree walker. The tree walk built a symbol-table
//! map for its global scope and for every call, and read and wrote every
//! variable through it; the VM keeps variables in frame slots, as the
//! paper's JIT does. Hash-table gets fall 39 382 → 16 000 and sets
//! 45 573 → 22 191, heap mallocs 50 318 → 28 936, and the type-check,
//! refcount and jit-code categories fall with the walk's per-node work.
//! String, regex and the VM tail are identical. WordPress 43 447 731 →
//! 42 470 629 µops; Drupal and MediaWiki, which run no mini-PHP, unchanged.

use php_runtime::Category;
use phpaccel_core::PhpMachine;
use workloads::{AppKind, LoadGen};

/// The measured phase's ledger and accelerator counters, one per line.
fn report(app: AppKind) -> String {
    let mut workload = app.build(1);
    let mut m = PhpMachine::specialized();
    let run = LoadGen {
        warmup: 300,
        measured: 1_000,
        context_switch_every: 50,
    }
    .run(workload.as_mut(), &mut m);
    assert_eq!(run.failed_requests, 0, "{:?}", run.first_error);
    let prof = m.ctx().profiler();
    let categories = prof.category_breakdown();
    let by_category = Category::ALL.map(|c| categories.get(&c).copied().unwrap_or(0));
    let leaf_calls: u64 = prof.leaf_profile().iter().map(|row| row.calls).sum();
    let core = m.core();
    format!(
        "uops {}\ncategories {by_category:?}\nleaf calls {leaf_calls}\n\
         {:?}\n{:?}\n{:?}\n{:?}\n{:?}\nprefetch {:?}",
        prof.total_uops(),
        core.htable.stats(),
        core.heap.stats(),
        core.straccel.stats(),
        core.regex_stats,
        core.reuse.stats(),
        core.heap.prefetch_counters(),
    )
}

const WORDPRESS: &str = "uops 42470629\n\
    categories [143937, 951965, 1579104, 1531567, 2830146, 2818573, 1617337, 30998000]\n\
    leaf calls 792145\n\
    HtStats { gets: 16000, get_hits: 16000, sets: 22191, set_hits: 0, set_inserts: 22191, key_too_long: 0, fills: 0, evict_invalid: 22132, evict_clean: 0, evict_dirty: 59, frees: 5000, freed_entries: 22132, foreachs: 3000, writebacks: 11191, coherence_flushes: 0, accel_cycles: 136764, hinted_hash_skips: 0, hinted_append_inserts: 0, faults_injected: 0, faults_detected: 0 }\n\
    HeapStats { mallocs: 28936, malloc_hits: 28727, malloc_misses: 209, frees: 28936, free_hits: 28936, free_spills: 0, too_large: 8383, flushes: 19, flushed_blocks: 513, accel_cycles: 57872, faults_injected: 0, faults_detected: 0 }\n\
    StrAccelStats { ops: 41213, blocks: 64753, cycles: 194259, bytes: 3291626, active_cells: 14819805, fallbacks: 0, config_loads: 19, config_saves: 19, faults_injected: 0, faults_detected: 0 }\n\
    RegexAccelStats { sieve_calls: 1000, shadow_calls: 3000, shadow_skipping: 3000, shadow_fallbacks: 0, bytes_total: 775194, bytes_scanned: 383366, bytes_skipped_sift: 370179, bytes_skipped_reuse: 23208, uops: 1437275, hv_faults_injected: 0, hv_faults_detected: 0 }\n\
    ReuseStats { lookups: 1000, hits: 892, invalid_misses: 0, trainings: 108, sets: 108, bytes_skipped: 23208, evictions: 0, faults_injected: 0, faults_detected: 0 }\n\
    prefetch (358, 358, 28346)";

const DRUPAL: &str = "uops 53459118\n\
    categories [1073510, 169452, 796079, 703077, 3225000, 2316000, 2150000, 43026000]\n\
    leaf calls 705645\n\
    HtStats { gets: 25000, get_hits: 25000, sets: 45000, set_hits: 0, set_inserts: 37000, key_too_long: 8000, fills: 0, evict_invalid: 35083, evict_clean: 0, evict_dirty: 1917, frees: 12000, freed_entries: 35083, foreachs: 1000, writebacks: 0, coherence_flushes: 0, accel_cycles: 200000, hinted_hash_skips: 0, hinted_append_inserts: 0, faults_injected: 0, faults_detected: 0 }\n\
    HeapStats { mallocs: 39000, malloc_hits: 38810, malloc_misses: 190, frees: 39000, free_hits: 39000, free_spills: 0, too_large: 0, flushes: 19, flushed_blocks: 494, accel_cycles: 78000, faults_injected: 0, faults_detected: 0 }\n\
    StrAccelStats { ops: 1125, blocks: 6545, cycles: 19635, bytes: 413891, active_cells: 2367448, fallbacks: 0, config_loads: 19, config_saves: 19, faults_injected: 0, faults_detected: 0 }\n\
    RegexAccelStats { sieve_calls: 125, shadow_calls: 375, shadow_skipping: 375, shadow_fallbacks: 0, bytes_total: 397324, bytes_scanned: 177172, bytes_skipped_sift: 220277, bytes_skipped_reuse: 0, uops: 703077, hv_faults_injected: 0, hv_faults_detected: 0 }\n\
    ReuseStats { lookups: 0, hits: 0, invalid_misses: 0, trainings: 0, sets: 0, bytes_skipped: 0, evictions: 0, faults_injected: 0, faults_detected: 0 }\n\
    prefetch (379, 379, 25914)";

const MEDIAWIKI: &str = "uops 38801497\n\
    categories [175744, 247600, 1704914, 262239, 2460000, 2451000, 1500000, 30000000]\n\
    leaf calls 606698\n\
    HtStats { gets: 20000, get_hits: 20000, sets: 13000, set_hits: 0, set_inserts: 12162, key_too_long: 838, fills: 0, evict_invalid: 12162, evict_clean: 0, evict_dirty: 0, frees: 2000, freed_entries: 12162, foreachs: 0, writebacks: 0, coherence_flushes: 0, accel_cycles: 98486, hinted_hash_skips: 0, hinted_append_inserts: 0, faults_injected: 0, faults_detected: 0 }\n\
    HeapStats { mallocs: 34167, malloc_hits: 33996, malloc_misses: 171, frees: 34167, free_hits: 34167, free_spills: 0, too_large: 1000, flushes: 19, flushed_blocks: 420, accel_cycles: 68334, faults_injected: 0, faults_detected: 0 }\n\
    StrAccelStats { ops: 15031, blocks: 39192, cycles: 117576, bytes: 2059859, active_cells: 3717050, fallbacks: 0, config_loads: 19, config_saves: 19, faults_injected: 0, faults_detected: 0 }\n\
    RegexAccelStats { sieve_calls: 31, shadow_calls: 124, shadow_skipping: 124, shadow_fallbacks: 0, bytes_total: 133853, bytes_scanned: 77967, bytes_skipped_sift: 56095, bytes_skipped_reuse: 0, uops: 262239, hv_faults_injected: 0, hv_faults_detected: 0 }\n\
    ReuseStats { lookups: 0, hits: 0, invalid_misses: 0, trainings: 0, sets: 0, bytes_skipped: 0, evictions: 0, faults_injected: 0, faults_detected: 0 }\n\
    prefetch (279, 279, 39083)";

#[test]
fn application_statistics_are_pinned() {
    for (app, pinned) in [
        (AppKind::WordPress, WORDPRESS),
        (AppKind::Drupal, DRUPAL),
        (AppKind::MediaWiki, MEDIAWIKI),
    ] {
        assert_eq!(report(app), pinned, "{}", app.label());
    }
}
