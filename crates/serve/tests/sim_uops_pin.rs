//! The simulated clock of the serving configuration, pinned.
//!
//! Host-side optimisations of the metering path (the dense µop ledger, the
//! allocation-free VM loop, shared compiled regexes) must not move a single
//! simulated µop. This runs a fixed request sequence the way one HTTP worker
//! serves it and compares the profiler's total, and its split over the
//! paper's activity categories, with pinned values.
//!
//! The pin has moved twice since the dense ledger (PR 13, 488 012), each
//! time for a change to the modelled machine, not to the instrument — the
//! only kind of change allowed to move it:
//!
//! - PR 16 put the VM's variables in compile-time frame slots, so a variable
//!   access stopped metering a hash probe and a call stopped allocating a
//!   symbol-table array (the paper's §3 inline-caching prior made real for
//!   symbol tables): 488 012 → 357 358.
//! - Operands in the instruction: a literal or variable leaf folds into the
//!   op that consumes it, so the `PushStr`/`PushInt`/`LoadSlot` that fed it
//!   is no longer dispatched. A folded variable still charges its load's
//!   type check and refcount increment, so only `jit-code` falls, by one µop
//!   per op no longer executed: 357 358 → 343 903, every other category
//!   unchanged.
//!
//! That sequence resets the machine after every request, as the in-process
//! benchmark still serves. A second pin drives the same 1 200 requests
//! through `Server::step(.., false)`, the warm path an HTTP worker takes:
//! accelerator state outlives the request, every request ends
//! (`end_request`), and a modelled context switch runs every 50 requests.
//! 343 903 → 268 519 µops; by category, event by event:
//!
//! - `heap` 180 306 → 102 274 (−78 032). The free lists stay stocked, so
//!   `hmmalloc` hits 455 times in 500 instead of 275: the software refills
//!   behind the misses (`slab_malloc`) fall from 1 025 calls and 65 972 µops
//!   to 67 calls and 6 576 (−59 396), and `hmflush` runs at the 24 context
//!   switches instead of after all 1 200 requests, 19 950 → 1 314 µops
//!   (−18 636). The arena's bump, logical-free and epoch-reset charges are
//!   the same 92 384 µops either way.
//! - `hash-map` 9 400 → 12 000 (+2 600). A map dies with its request warm
//!   or cold, so no request finds an earlier one's pairs in the table: the
//!   3 400 sets all insert into an invalid slot and none updates, the 600
//!   gets all hit, and sets, gets and `foreach` charge the same per call
//!   either way. Only the death differs. A reset invalidates the whole
//!   table at no charge; a warm request ends by freeing the entries of each
//!   of its maps still live through the RTT (`hashtable_free`, 2 µops),
//!   1 300 maps over the run: 1 300 × 2 = 2 600.
//! - `string` 32 507 → 32 555 (+48): each of the 24 context switches
//!   reloads the string accelerator's config (`strreadconfig`, 2 µops).
//! - Every other category is unchanged: the engine executes the same ops,
//!   and the memo tier hits the same sites.

use php_interp::MemoTier;
use php_runtime::Category;
use phpaccel_core::{Engine, PhpMachine};
use serve::{BreakerConfig, MemoCache, SandboxConfig, Server};
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;

/// `total_uops` after the sequence below.
const PINNED_SIM_UOPS: u64 = 343_903;

/// The same total by category, in `Category::ALL` order. Before operands
/// moved into the instruction `jit-code` read 56 657.
const PINNED_BY_CATEGORY: [(&str, u64); 8] = [
    ("hash-map", 9_400),
    ("heap", 180_306),
    ("string", 32_507),
    ("regex", 783),
    ("type-check", 53_451),
    ("refcount", 24_254),
    ("jit-code", 43_202),
    ("other", 0),
];

/// `total_uops` after the same sequence served warm.
const PINNED_WARM_SIM_UOPS: u64 = 268_519;

/// The warm total by category, in `Category::ALL` order.
const PINNED_WARM_BY_CATEGORY: [(&str, u64); 8] = [
    ("hash-map", 12_000),
    ("heap", 102_274),
    ("string", 32_555),
    ("regex", 783),
    ("type-check", 53_451),
    ("refcount", 24_254),
    ("jit-code", 43_202),
    ("other", 0),
];

#[test]
fn serving_configuration_sim_uops_are_pinned() {
    let corpus = CorpusCache::build();
    let scripts = corpus.scripts();
    assert_eq!(scripts.len(), 12, "the sequence below is in blocks of 12");
    let memo: Arc<dyn MemoTier> = Arc::new(MemoCache::new(16));

    let mut machine = PhpMachine::specialized();
    machine.set_engine(Engine::Vm);
    machine.ctx().set_arena_enabled(true);
    let mut server = Server::new(
        machine,
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    );

    // 100 blocks of 12: every block serves each script once, in an order
    // that differs from block to block (5 and 12 are coprime).
    for block in 0..100u64 {
        for slot in 0..12u64 {
            let script = &scripts[((slot * 5 + block * 7) % 12) as usize];
            let record = server.serve_indexed(block * 12 + slot, &mut |m, _req| {
                script.run_memo(m, true, Some(Arc::clone(&memo)))
            });
            assert!(record.outcome.is_ok(), "{}", script.entry().name);
            server.recover_between_requests();
        }
    }
    let profiler = server.machine().ctx().profiler();
    let by_category = profiler.category_breakdown();
    let by_category = Category::ALL.map(|c| (c.label(), by_category.get(&c).copied().unwrap_or(0)));
    assert_eq!(by_category, PINNED_BY_CATEGORY);
    assert_eq!(profiler.total_uops(), PINNED_SIM_UOPS);
}

#[test]
fn warm_serving_sim_uops_are_pinned() {
    let corpus = CorpusCache::build();
    let scripts = corpus.scripts();
    let memo: Arc<dyn MemoTier> = Arc::new(MemoCache::new(16));

    let mut machine = PhpMachine::specialized();
    machine.set_engine(Engine::Vm);
    machine.ctx().set_arena_enabled(true);
    let mut server = Server::new(
        machine,
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    );
    for block in 0..100u64 {
        for slot in 0..12u64 {
            let script = &scripts[((slot * 5 + block * 7) % 12) as usize];
            let mut handler =
                |m: &mut PhpMachine, _req: u64| script.run_memo(m, true, Some(Arc::clone(&memo)));
            let (record, _) = server.step(block * 12 + slot, &mut handler, false);
            assert!(record.outcome.is_ok(), "{}", script.entry().name);
        }
    }
    let machine = server.machine();
    assert_eq!(machine.core().context_switches, 1_200 / 50);
    let profiler = machine.ctx().profiler();
    let by_category = profiler.category_breakdown();
    let by_category = Category::ALL.map(|c| (c.label(), by_category.get(&c).copied().unwrap_or(0)));
    assert_eq!(by_category, PINNED_WARM_BY_CATEGORY);
    assert_eq!(profiler.total_uops(), PINNED_WARM_SIM_UOPS);
}
