//! Multi-worker request serving.
//!
//! [`WorkerPool`] shards a request stream across N workers, mirroring the
//! paper's per-core deployment: each worker owns a private [`PhpMachine`]
//! (accelerator state is per-core hardware and is never shared), its own
//! slice of the global [`FaultPlan`], and its own circuit breakers. Requests
//! are sharded by index — worker `w` of `W` serves requests `w, w+W, w+2W, …`
//! — so the union of the workers' streams is exactly the single-server
//! stream, and [`Totals::merge`] makes the pool totals the lossless sum of
//! the workers'.
//!
//! What *is* shared is read-only: callers typically drive every worker from
//! one `Arc`-held compile cache (`workloads::php_corpus::CorpusCache`), the
//! software analogue of a bytecode cache shared across server processes.

use crate::breaker::BreakerConfig;
use crate::fault::FaultPlan;
use crate::outcome::{classify_panic, RequestOutcome};
use crate::sandbox::SandboxConfig;
use crate::server::{Handler, RequestRecord, Server, Totals};
use php_interp::{MemoCache, MemoCacheStats};
use phpaccel_core::PhpMachine;
use std::sync::Arc;
use workloads::panic_message;

/// Configuration for one pool run.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of workers (≥ 1).
    pub workers: usize,
    /// Total number of requests across the pool.
    pub requests: u64,
    /// Breaker configuration applied to every worker's four breakers.
    pub breaker_cfg: BreakerConfig,
    /// Sandbox limits applied to every request.
    pub sandbox: SandboxConfig,
    /// Global fault plan; partitioned so each fault fires on the worker
    /// that serves its request (see [`FaultPlan::partition`]).
    pub plan: FaultPlan,
    /// Replay each successful request on a per-worker all-software
    /// [`PhpMachine::baseline`] reference and count byte mismatches.
    pub reference: bool,
    /// Restore machines (and references) to a pristine request boundary
    /// after every request. This makes each request's result independent of
    /// machine history, so responses and per-request counters are identical
    /// at any worker count — the mode the determinism tests and the bench
    /// run in. Off, the workers serve warm (see [`Server::step`]); soaks
    /// leave it off so faults land in live state.
    pub reset_between_requests: bool,
    /// Retain response bytes in the per-request records.
    pub keep_bodies: bool,
    /// Enable the allocator's arena/epoch mode on every worker machine:
    /// allocation sites the region analysis proved request-scoped
    /// bump-allocate into a per-request epoch reclaimed in O(1) at the
    /// request boundary. Reference machines stay on the free-list path, so
    /// the replay check also compares arena mode against classic
    /// allocation byte-for-byte.
    pub arena: bool,
    /// Cross-request memo tier shared by every worker. The pool itself
    /// cannot attach it to the interpreters the handlers build, so handlers
    /// capture their own `Arc` clone of the same cache; carrying it here too
    /// lets the report snapshot the cache-wide counters and makes the run's
    /// memo policy part of its configuration. Whether a reference machine
    /// sees the tier is the handler's doing: [`crate::server::Scripts`]
    /// never hands it one, an opaque closure that captures the tier runs
    /// with it on both machines.
    pub memo: Option<Arc<MemoCache>>,
}

impl PoolConfig {
    /// A deterministic, reference-checked configuration with no faults.
    pub fn deterministic(workers: usize, requests: u64) -> Self {
        PoolConfig {
            workers,
            requests,
            breaker_cfg: BreakerConfig::default(),
            sandbox: SandboxConfig::unlimited(),
            plan: FaultPlan::default(),
            reference: true,
            reset_between_requests: true,
            keep_bodies: true,
            arena: false,
            memo: None,
        }
    }

    /// The same configuration with arena/epoch allocation enabled.
    pub fn with_arena(mut self, arena: bool) -> Self {
        self.arena = arena;
        self
    }

    /// The same configuration sharing `cache` across the workers. Handlers
    /// still attach the cache to the engines they build (see
    /// [`crate::server::Scripts`]).
    pub fn with_memo(mut self, cache: Arc<MemoCache>) -> Self {
        self.memo = Some(cache);
        self
    }
}

/// One worker whose thread died instead of returning a report.
///
/// The sandbox catches handler panics, so a worker thread dying means the
/// failure escaped the per-request isolation — a panic in the worker scaffold
/// itself (machine construction, the handler factory, reference recovery).
/// It is classified like a request panic so operators see OOM/timeout/crash
/// consistently, but it is *per-worker*: the other workers' results survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Index of the worker that died.
    pub worker: usize,
    /// The panic classified through [`classify_panic`].
    pub outcome: RequestOutcome,
    /// The raw panic message.
    pub message: String,
}

impl WorkerFailure {
    /// Classifies the panic payload that worker `worker`'s thread `join`
    /// returned.
    pub(crate) fn from_panic(worker: usize, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = panic_message(payload);
        WorkerFailure {
            worker,
            outcome: classify_panic(message.clone()),
            message,
        }
    }
}

/// The merged result of a pool run: the workers' summed [`Totals`] (which
/// the report derefs to) plus what only a pool has.
#[derive(Debug)]
pub struct PoolReport {
    /// Lossless sum of the surviving workers' totals, one per-worker row
    /// each, in worker order.
    pub totals: Totals,
    /// All request records, sorted by global request index.
    pub records: Vec<RequestRecord>,
    /// Simulated per-request service times in µops, parallel to `records`.
    pub service_uops: Vec<u64>,
    /// End-of-run snapshot of the shared memo cache, when one was
    /// configured. Cache-wide (hits/misses/stores are also in
    /// [`Totals::stats`], summed from the workers' engine counters;
    /// `entries` exists only here).
    pub memo: Option<MemoCacheStats>,
    /// Workers whose threads panicked instead of reporting. Their requests
    /// are absent from `records` and the totals; the surviving workers'
    /// results are merged normally (empty on a healthy run).
    pub failed_workers: Vec<WorkerFailure>,
}

impl std::ops::Deref for PoolReport {
    type Target = Totals;

    fn deref(&self) -> &Totals {
        &self.totals
    }
}

/// A pool of request-serving workers, each wrapping its own [`Server`].
#[derive(Debug)]
pub struct WorkerPool {
    cfg: PoolConfig,
}

impl WorkerPool {
    /// Creates a pool from `cfg`. Panics if `cfg.workers == 0`.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.workers > 0, "a pool needs at least one worker");
        WorkerPool { cfg }
    }

    /// Runs the whole request stream across the workers and merges the
    /// results.
    ///
    /// `make_machine(w)` builds worker `w`'s private machine and
    /// `make_handler(w)` builds its request handler — both are called *on
    /// the worker's thread*, so the handler itself needs no `Send` bound and
    /// may own thread-local state. Handlers see global request indices.
    pub fn run<M, F, H>(&self, make_machine: M, make_handler: F) -> PoolReport
    where
        M: Fn(usize) -> PhpMachine + Sync,
        F: Fn(usize) -> H + Sync,
        H: Handler,
    {
        let cfg = &self.cfg;
        let shards = cfg.plan.partition(cfg.workers);
        let mut totals = Totals::default();
        let mut served: Vec<(RequestRecord, u64)> = Vec::with_capacity(cfg.requests as usize);
        let mut failed_workers = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(w, shard)| {
                    let (make_machine, make_handler) = (&make_machine, &make_handler);
                    scope.spawn(move || {
                        let mut server = Server::worker(
                            make_machine(w),
                            cfg.breaker_cfg,
                            cfg.sandbox,
                            cfg.arena,
                            cfg.reference,
                            cfg.keep_bodies,
                        )
                        .with_fault_plan(shard);
                        let mut handler = make_handler(w);
                        // Modulo sharding: worker `w` of `W` serves requests
                        // `w, w + W, …`, so its breakers, fault shard and
                        // handler all see global request indices.
                        let served: Vec<_> = (w as u64..cfg.requests)
                            .step_by(cfg.workers)
                            .map(|req| server.step(req, &mut handler, cfg.reset_between_requests))
                            .collect();
                        (server.totals(), served)
                    })
                })
                .collect();
            // A worker thread dying must not abort the pool: a panic becomes
            // a classified `WorkerFailure` while every other worker's
            // results are merged normally.
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((worker_totals, worker_served)) => {
                        totals.merge(&worker_totals);
                        served.extend(worker_served);
                    }
                    Err(payload) => {
                        failed_workers.push(WorkerFailure::from_panic(w, payload.as_ref()))
                    }
                }
            }
        });
        // Re-interleave the workers' streams into global request order.
        served.sort_by_key(|(r, _)| r.request);
        let (records, service_uops) = served.into_iter().unzip();
        PoolReport {
            totals,
            records,
            service_uops,
            memo: cfg.memo.as_ref().map(|c| c.stats()),
            failed_workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_handler(_w: usize) -> impl FnMut(&mut PhpMachine, u64) -> Vec<u8> {
        |m: &mut PhpMachine, req: u64| {
            let s = m.transient_str(format!("req {req}"));
            let out = match s {
                php_runtime::PhpValue::Str(s) => m.strtoupper(&s).as_bytes().to_vec(),
                _ => unreachable!(),
            };
            m.end_request();
            out
        }
    }

    #[test]
    fn sharding_covers_every_request_exactly_once() {
        for workers in [1usize, 2, 3, 4, 8] {
            let pool = WorkerPool::new(PoolConfig::deterministic(workers, 21));
            let report = pool.run(|_| PhpMachine::specialized(), echo_handler);
            assert_eq!(report.stats.requests, 21);
            assert!(report.stats.outcomes_partition_requests());
            let indices: Vec<u64> = report.records.iter().map(|r| r.request).collect();
            assert_eq!(indices, (0..21).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(report.service_uops.len(), 21);
            assert_eq!(report.worker_uops.len(), workers);
        }
    }

    /// Regression: one worker's thread panicking (outside the per-request
    /// sandbox — here in machine construction) used to abort the whole pool
    /// via `join().expect(...)`. It must instead surface as a classified
    /// [`WorkerFailure`] while the surviving workers' results merge
    /// normally.
    #[test]
    fn one_worker_panicking_does_not_abort_the_pool() {
        let pool = WorkerPool::new(PoolConfig::deterministic(2, 10));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = pool.run(
            |w| {
                if w == 1 {
                    panic!("worker 1 machine bring-up failed");
                }
                PhpMachine::specialized()
            },
            echo_handler,
        );
        std::panic::set_hook(hook);

        // Worker 0's even-indexed requests survived intact.
        assert_eq!(report.stats.requests, 5);
        assert_eq!(report.stats.ok, 5);
        assert_eq!(report.stats.mismatches, 0);
        let indices: Vec<u64> = report.records.iter().map(|r| r.request).collect();
        assert_eq!(indices, vec![0, 2, 4, 6, 8]);

        // The dead worker is reported, classified, and attributable.
        assert_eq!(report.failed_workers.len(), 1);
        let failure = &report.failed_workers[0];
        assert_eq!(failure.worker, 1);
        assert!(failure.message.contains("bring-up failed"));
        assert!(matches!(failure.outcome, RequestOutcome::Panicked { .. }));

        // A healthy run reports no failures.
        let healthy = WorkerPool::new(PoolConfig::deterministic(2, 10))
            .run(|_| PhpMachine::specialized(), echo_handler);
        assert!(healthy.failed_workers.is_empty());
        assert_eq!(healthy.stats.requests, 10);
    }

    #[test]
    fn pool_totals_equal_sum_of_workers() {
        let pool = WorkerPool::new(PoolConfig::deterministic(4, 20));
        let report = pool.run(|_| PhpMachine::specialized(), echo_handler);
        assert_eq!(report.stats.ok, 20);
        assert_eq!(report.stats.mismatches, 0);
        // Worker totals cover the per-request deltas plus the inter-request
        // recovery work metered between them.
        assert!(report.worker_uops.iter().sum::<u64>() >= report.service_uops.iter().sum::<u64>());
        assert!(report.service_uops.iter().all(|&u| u > 0));
        assert!(report.simulated_elapsed_uops() < report.worker_uops.iter().sum::<u64>());
        assert!(report.all_breakers_closed());
    }
}
