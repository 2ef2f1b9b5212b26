//! The simulated clock of the serving configuration, pinned.
//!
//! Host-side optimisations of the metering path (the dense µop ledger, the
//! allocation-free VM loop, shared compiled regexes) must not move a single
//! simulated µop. This runs a fixed request sequence the way one HTTP worker
//! serves it and compares the profiler's total with a pinned value.
//!
//! The pin has moved once since the dense ledger (PR 13, 488 012): PR 16
//! put the VM's variables in compile-time frame slots, so a variable access
//! stopped metering a hash probe and a call stopped allocating a
//! symbol-table array. That is a change to the modelled machine (the paper's
//! §3 inline-caching prior made real for symbol tables), not to the
//! instrument, and it is the only kind of change allowed to move this
//! number.

use php_interp::MemoTier;
use phpaccel_core::{Engine, PhpMachine};
use serve::{BreakerConfig, MemoCache, SandboxConfig, Server};
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;

/// `total_uops` after the sequence below: 488 012 with symbol-table
/// variables, 357 358 with frame slots (−26.8 %, all of it hash-map and heap
/// events of symbol tables).
const PINNED_SIM_UOPS: u64 = 357_358;

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
    assert_eq!(
        server.machine().ctx().profiler().total_uops(),
        PINNED_SIM_UOPS
    );
}
