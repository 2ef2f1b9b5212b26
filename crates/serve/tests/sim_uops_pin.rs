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
