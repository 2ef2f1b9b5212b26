//! Host allocations per served request, pinned.
//!
//! The engine's host-side bookkeeping — a value built for a literal, a
//! string built for each part of a concat, a per-request table — costs
//! calls into the allocator, not simulated µops, so only a count of those
//! calls sees it. These tests count them while the twelve corpus scripts are
//! served the way one in-process worker serves them, and while the paper's
//! three applications run on the specialized machine, and hold each count
//! per request under a ceiling. A last test holds a warm machine's live
//! host bytes flat: serving more requests must not grow its footprint.
//!
//! The allocator below counts every `alloc`, `alloc_zeroed` and `realloc` on
//! the calling thread, tracks the thread's live bytes, and forwards each
//! call to [`System`] unchanged.

use php_interp::MemoTier;
use phpaccel_core::{Engine, PhpMachine};
use serve::{BreakerConfig, MemoCache, SandboxConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;
use workloads::AppKind;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocator call that moves the thread's live bytes by `delta`.
fn count_one(delta: i64) {
    // `try_with`: a thread being torn down still allocates through here.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    note_live(delta);
}

fn note_live(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread allocated and has not freed (a block freed on another
/// thread is not subtracted; every test here serves on one thread).
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only thread-local
// `Cell`s with const initializers, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ceiling on host allocations per request in the round robin below. The
/// sequence makes 46.5 since the request-scoped block lists kept their
/// buffers across requests, 46.7 since a hash-table access stopped copying
/// its key and `foreach` its pairs' keys, 53.4 before that, 54.1 when the string
/// accelerator stopped allocating per op and per block, 59.3 before that,
/// and 96.5 before literal and variable operands folded into the ops that
/// consume them.
const MAX_ALLOCS_PER_REQUEST: f64 = 47.8;

#[test]
fn serving_a_request_stays_under_the_host_allocation_ceiling() {
    let corpus = CorpusCache::build();
    let scripts = corpus.scripts();
    let mut machine = PhpMachine::specialized();
    machine.set_engine(Engine::Vm);
    machine.ctx().set_arena_enabled(true);
    let mut server = Server::new(
        machine,
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    );
    let serve_round = |server: &mut Server, round: u64| {
        for (i, script) in scripts.iter().enumerate() {
            let req = round * scripts.len() as u64 + i as u64;
            let record = server.serve_indexed(req, &mut |m, _req| script.run(m, true));
            assert!(record.outcome.is_ok(), "{}", script.entry().name);
            server.recover_between_requests();
        }
    };

    // Warm-up: compiled units, slab pages, per-machine tables and caches.
    for round in 0..5 {
        serve_round(&mut server, round);
    }
    let rounds = 50;
    let before = allocs_so_far();
    for round in 5..5 + rounds {
        serve_round(&mut server, round);
    }
    let requests = rounds * scripts.len() as u64;
    let per_request = (allocs_so_far() - before) as f64 / requests as f64;
    println!("host allocations per request: {per_request:.2}");
    assert!(
        per_request <= MAX_ALLOCS_PER_REQUEST,
        "{per_request:.2} host allocations per request, ceiling {MAX_ALLOCS_PER_REQUEST}"
    );
}

/// Ceilings on host allocations per request of each application on the
/// specialized machine. The applications make 234.1, 156.9 and 122.7 since
/// the request-scoped block lists kept their buffers across requests; they
/// made 236.1, 159.9 and 123.7 once WordPress's page template ran on the VM
/// instead of the tree walker, which built a symbol table per scope and
/// call; 399.8, 159.9 and 123.7 since a hash-table access stopped copying
/// its key and `foreach` its pairs' keys; 506.2, 229.9 and 156.7 before
/// that, 630.1, 246.5 and 161.1 when these ceilings were set before, and
/// 725.8, 255.2 and 222.3 while the string accelerator allocated per op and
/// per block and the prefetcher per drain.
const MAX_APP_ALLOCS_PER_REQUEST: [(AppKind, f64); 3] = [
    (AppKind::WordPress, 240.0),
    (AppKind::Drupal, 161.0),
    (AppKind::MediaWiki, 126.0),
];

#[test]
fn each_application_stays_under_its_host_allocation_ceiling() {
    for (app, ceiling) in MAX_APP_ALLOCS_PER_REQUEST {
        let mut workload = app.build(1);
        let mut machine = PhpMachine::specialized();
        let mut serve = |req: u64| {
            if req > 0 && req.is_multiple_of(50) {
                machine.context_switch();
            }
            workload.handle_request(&mut machine, req);
        };
        // Warm-up as `LoadGen` runs it: 300 requests.
        (0..300).for_each(&mut serve);
        let requests = 500;
        let before = allocs_so_far();
        (300..300 + requests).for_each(&mut serve);
        let per_request = (allocs_so_far() - before) as f64 / requests as f64;
        println!(
            "{}: host allocations per request: {per_request:.2}",
            app.label()
        );
        assert!(
            per_request <= ceiling,
            "{}: {per_request:.2} host allocations per request, ceiling {ceiling}",
            app.label()
        );
    }
}

/// Live host bytes a warm machine may gain over [`FOOTPRINT_REQUESTS`]
/// requests served after its warm-up. The allocator's live-memory timeline,
/// when every machine sampled it, grew the WordPress machine by 254 B a
/// request over this window and the corpus worker by 15 B. Growth into a
/// buffer that doubles can hide between two reallocations, so the window
/// is long.
const MAX_LIVE_GROWTH_BYTES: i64 = 4 * 1024;

/// Requests served between the two live-byte readings.
const FOOTPRINT_REQUESTS: u64 = 20_000;

/// Asserts that `serve`, after `warmup` requests, leaves the thread's live
/// host bytes within [`MAX_LIVE_GROWTH_BYTES`] of their level after
/// [`FOOTPRINT_REQUESTS`] more.
fn assert_flat_footprint(label: &str, warmup: u64, mut serve: impl FnMut(u64)) {
    (0..warmup).for_each(&mut serve);
    let before = live_bytes();
    (warmup..warmup + FOOTPRINT_REQUESTS).for_each(&mut serve);
    let growth = live_bytes() - before;
    println!("{label}: live host bytes grew {growth} B over {FOOTPRINT_REQUESTS} requests");
    assert!(
        growth <= MAX_LIVE_GROWTH_BYTES,
        "{label}: live host bytes grew {growth} B over {FOOTPRINT_REQUESTS} requests, \
         limit {MAX_LIVE_GROWTH_BYTES}"
    );
}

#[test]
fn a_warm_machine_footprint_does_not_grow_with_requests_served() {
    // A corpus worker as an HTTP worker serves: warm, with a memo tier.
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
    assert_flat_footprint("corpus worker", 1_200, |req| {
        let script = &scripts[(req % scripts.len() as u64) as usize];
        let mut handler =
            |m: &mut PhpMachine, _req: u64| script.run_memo(m, true, Some(Arc::clone(&memo)));
        let (record, _) = server.step(req, &mut handler, false);
        assert!(record.outcome.is_ok(), "{}", script.entry().name);
    });

    // Each application as `LoadGen` serves it: a context switch every 50.
    for app in AppKind::PHP_APPS {
        let mut workload = app.build(1);
        let mut machine = PhpMachine::specialized();
        assert_flat_footprint(app.label(), 1_000, |req| {
            if req > 0 && req.is_multiple_of(50) {
                machine.context_switch();
            }
            workload.handle_request(&mut machine, req);
        });
    }
}
