//! Warm serving: the request boundary is not fault recovery.
//!
//! `Server::step(.., false)` ends every request (scoped frees, arena epoch
//! reset) and keeps accelerator state across requests; it recovers the
//! machine only after an abnormal exit, a detected fault or a breaker
//! transition. These tests hold the two halves of that: a long warm run
//! leaks nothing, and a fault is recovered on the request that detects it,
//! also when the boundary work detects it.

use phpaccel_core::{AccelId, Engine, PhpMachine};
use serve::{
    BreakerConfig, FaultKind, FaultPlan, PlannedFault, SandboxConfig, Scripts, Server,
    CONTEXT_SWITCH_EVERY,
};
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;

fn vm_server(arena: bool) -> Server {
    let mut machine = PhpMachine::specialized();
    machine.set_engine(Engine::Vm);
    Server::worker(
        machine,
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
        arena,
        true,
        false,
    )
}

/// `(arena allocations, arena epoch resets)` of the machine's allocator.
fn arena_counts(server: &Server) -> (u64, u64) {
    server.machine().ctx().with_allocator(|a| {
        let s = a.stats();
        (s.arena_allocs, s.arena_resets)
    })
}

/// 1 200 warm requests over the corpus, arena on and off: after every one
/// no allocator block is live, and the arena epoch advanced exactly once
/// for each request that bump-allocated (and never for one that did not).
#[test]
fn a_long_warm_run_leaks_nothing_and_resets_the_epoch_per_request() {
    let corpus = Arc::new(CorpusCache::build());
    for arena in [true, false] {
        let mut server = vm_server(arena);
        let mut handler = Scripts {
            pick: |req| Arc::clone(corpus.script_for_request(req)),
            memo: None,
        };
        let mut allocating = 0;
        for req in 0..1_200u64 {
            let (allocs, resets) = arena_counts(&server);
            let (record, _) = server.step(req, &mut handler, false);
            assert!(record.outcome.is_ok(), "request {req}");
            let (allocs_after, resets_after) = arena_counts(&server);
            let allocated = allocs_after > allocs;
            allocating += u64::from(allocated);
            assert_eq!(
                resets_after - resets,
                u64::from(allocated),
                "arena {arena}, request {req}: one epoch reset per allocating request"
            );
            assert_eq!(
                server.totals().live_blocks,
                0,
                "arena {arena}, request {req}: live blocks after the boundary"
            );
        }
        assert_eq!(server.stats().mismatches, 0);
        assert_eq!(
            allocating > 0,
            arena,
            "the arena serves requests iff it is on"
        );
        let totals = server.totals();
        assert_eq!(
            totals.worker_accel[0].context_switches,
            1_200 / CONTEXT_SWITCH_EVERY
        );
        // Warm free lists: most mallocs hit.
        let accel = totals.worker_accel[0];
        assert!(accel.heap_hits * 10 > accel.heap_mallocs * 8, "{accel:?}");
    }
}

/// A clean warm request keeps its free lists stocked and leaves nothing in
/// the hash table (its maps died with it); the request on which a seeded
/// fault is detected ends in `recover_request`, which flushes the free
/// lists and invalidates the table.
#[test]
fn a_detected_fault_recovers_the_machine_on_the_request_that_detects_it() {
    const FAULTY: u64 = 5;
    let corpus = Arc::new(CorpusCache::build());
    let mut server = vm_server(true).with_fault_plan(FaultPlan::new(vec![PlannedFault {
        at_request: FAULTY,
        kind: FaultKind::StringConfig,
    }]));
    let mut handler = Scripts {
        pick: |req| Arc::clone(corpus.script_for_request(req)),
        memo: None,
    };
    for req in 0..=FAULTY {
        let flushes = server.machine().core().heap.stats().flushes;
        let (record, _) = server.step(req, &mut handler, false);
        assert!(record.outcome.is_ok(), "request {req}");
        let core = server.machine().core();
        if req < FAULTY {
            assert_eq!(record.fault_delta, [0; 4], "request {req}");
            assert_eq!(core.htable.occupancy(), 0, "request {req}: maps freed");
            assert_eq!(core.heap.stats().flushes, flushes, "request {req}");
            assert!(
                core.heap.occupancy().iter().sum::<usize>() > 0,
                "request {req}"
            );
        } else {
            assert!(record.fault_delta[AccelId::Str.index()] > 0, "detected");
            assert_eq!(core.htable.occupancy(), 0, "table invalidated");
            assert_eq!(core.heap.stats().flushes, flushes + 1, "free lists flushed");
        }
    }
    assert_eq!(server.stats().mismatches, 0);
}

/// A fault the request itself never meets, found by the work after it: a
/// poisoned free-list node that the request does not pop is caught by the
/// `hmflush` of the context switch at its boundary. The breaker counts it
/// against that request, and the machine recovers before the next one.
#[test]
fn a_fault_detected_at_the_boundary_reaches_the_breaker_and_recovers() {
    let last = CONTEXT_SWITCH_EVERY - 1;
    let breakers = BreakerConfig {
        fault_threshold: 1,
        window: 100,
        base_backoff: 10,
        max_backoff: 10,
    };
    let mut server = Server::new(
        PhpMachine::specialized(),
        breakers,
        SandboxConfig::unlimited(),
    )
    .with_fault_plan(FaultPlan::new(vec![PlannedFault {
        at_request: last,
        kind: FaultKind::HeapFreelist { nth: 0 },
    }]));
    // Every request but the last churns scoped blocks, stocking the free
    // lists; the last touches no heap at all.
    let mut handler = |m: &mut PhpMachine, req: u64| {
        if req < last {
            for i in 0..4 {
                m.alloc_scoped(32 + 16 * i);
            }
        }
        req.to_le_bytes().to_vec()
    };
    for req in 0..=last {
        let flushes = server.machine().core().heap.stats().flushes;
        let (record, _) = server.step(req, &mut handler, false);
        assert!(record.outcome.is_ok(), "request {req}");
        assert_eq!(record.fault_delta, [0; 4], "request {req}");
        let heap = server.machine().core().heap.stats();
        let breaker = server.breaker(AccelId::Heap);
        if req < last {
            assert_eq!(heap.flushes, flushes, "request {req}");
            assert_eq!(breaker.trips, 0, "request {req}");
        } else {
            assert_eq!((heap.faults_injected, heap.faults_detected), (1, 1));
            assert_eq!(breaker.trips, 1, "the boundary detection trips it");
            // The context switch's flush, then the recovery's.
            assert_eq!(heap.flushes, flushes + 2);
        }
    }
    assert_eq!(server.machine().core().context_switches, 1);
}
