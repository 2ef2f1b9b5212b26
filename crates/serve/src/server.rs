//! The fault-tolerant request server.
//!
//! [`Server`] ties the robustness layer together: before each request it
//! injects any scheduled faults, consults the four per-accelerator circuit
//! breakers to decide hardware vs. software paths, runs the handler inside
//! the sandbox, and feeds detected-fault deltas back into the breakers.
//! Optionally it replays every successful request against an all-software
//! reference machine and checks the response bytes are identical — the
//! degradation guarantee made measurable.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::fault::{FaultKind, FaultPlan, PlannedFault};
use crate::hist::Histogram;
use crate::outcome::RequestOutcome;
use crate::sandbox::{run_sandboxed, SandboxConfig};
use php_interp::MemoTier;
use php_runtime::StaticSavings;
use phpaccel_core::{AccelId, PhpMachine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use workloads::php_corpus::PreparedScript;

/// Heap ceiling used to realize [`FaultKind::AllocatorOom`]: low enough that
/// any real request trips it, high enough that the sandbox's own bookkeeping
/// does not.
const OOM_CLAMP_BYTES: u64 = 512;

/// Requests between two modelled OS context switches on one machine when a
/// run serves warm: the load generator's cadence (`LoadGen`'s
/// `context_switch_every`). The paper's heap manager writes back only on
/// overflow or a context switch (§4.6), so this is when a warm machine's
/// free lists drain.
pub const CONTEXT_SWITCH_EVERY: u64 = 50;

/// Aggregate serving statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests served (any outcome).
    pub requests: u64,
    /// Requests that completed normally.
    pub ok: u64,
    /// Requests killed by the execution budget.
    pub timeouts: u64,
    /// Requests killed by the memory ceiling.
    pub ooms: u64,
    /// Requests that panicked for other reasons.
    pub panics: u64,
    /// Requests refused by admission control before reaching a worker.
    pub shed: u64,
    /// Requests served with the given domain degraded to software.
    pub degraded_requests: [u64; 4],
    /// Successful responses whose bytes differed from the all-software
    /// reference (must stay 0).
    pub mismatches: u64,
    /// Memo-cache hits this server's requests scored (0 with no tier).
    pub memo_hits: u64,
    /// Memo-cache misses at proven-memoizable sites.
    pub memo_misses: u64,
    /// Results this server's requests stored into the shared tier.
    pub memo_stores: u64,
    /// Cache entries this server's global writes invalidated.
    pub memo_invalidations: u64,
    /// Admission-queue depth observed at each arrival (admitted or shed).
    /// Populated only by the overload layer; empty in plain serving.
    pub queue_depth: Histogram,
    /// Queue wait of each admitted request, in simulated µops.
    pub queue_wait: Histogram,
    /// End-to-end latency (queue wait + service) of each admitted request,
    /// in simulated µops.
    pub latency: Histogram,
}

impl ServeStats {
    /// Fraction of *admitted* requests that completed normally, in [0, 1].
    ///
    /// Every abnormal served outcome maps to a 5xx (`Timeout` → 504, OOM
    /// and panic → 500), so this is the non-5xx fraction of the requests
    /// the system accepted: `ok / (requests − shed)`. Shed requests are
    /// deliberate overload back-pressure (503 before any work happens) and
    /// are reported separately ([`ServeStats::shed_fraction`]) — counting
    /// them as failures would make graceful degradation look like an
    /// outage. With nothing admitted the fraction is vacuously 1.
    pub fn availability(&self) -> f64 {
        let admitted = self.requests - self.shed;
        if admitted == 0 {
            1.0
        } else {
            self.ok as f64 / admitted as f64
        }
    }

    /// Fraction of all arrivals refused by admission control, in [0, 1].
    pub fn shed_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shed as f64 / self.requests as f64
        }
    }

    /// Whether the per-outcome counters exactly partition the request count
    /// (`ok + timeouts + ooms + panics + shed == requests`). Holds for any
    /// stats produced by [`Server`], including merged pool totals and
    /// overload runs with shedding.
    pub fn outcomes_partition_requests(&self) -> bool {
        self.ok + self.timeouts + self.ooms + self.panics + self.shed == self.requests
    }

    /// Losslessly folds another worker's statistics into this one: every
    /// counter is summed and the histograms concatenate, so pool totals
    /// equal the sum of the workers'.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.timeouts += other.timeouts;
        self.ooms += other.ooms;
        self.panics += other.panics;
        self.shed += other.shed;
        for i in 0..4 {
            self.degraded_requests[i] += other.degraded_requests[i];
        }
        self.mismatches += other.mismatches;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_stores += other.memo_stores;
        self.memo_invalidations += other.memo_invalidations;
        self.queue_depth.merge(&other.queue_depth);
        self.queue_wait.merge(&other.queue_wait);
        self.latency.merge(&other.latency);
    }
}

/// What a request executes. [`Server`] runs `primary` on the machine under
/// test and, when replay is on, `reference` on the all-software machine;
/// the two must produce the same bytes.
pub trait Handler {
    /// Runs request `req` on the machine under test.
    fn primary(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8>;
    /// Recomputes request `req` on the reference machine.
    fn reference(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8>;
}

/// An opaque closure is its own reference: the same code runs on both
/// machines, so it must be deterministic given `(machine, request index)`.
impl<F: FnMut(&mut PhpMachine, u64) -> Vec<u8> + ?Sized> Handler for F {
    fn primary(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        self(m, req)
    }

    fn reference(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        self(m, req)
    }
}

/// Corpus scripts as requests: `pick(req)` names the script request `req`
/// runs. This is the one place that says how a script runs on each side of
/// the replay check: the machine under test runs its configured engine with
/// the proven facts and the shared memo tier when there is one (only the VM
/// reads either); the reference tree-walks the same source, which never
/// reads facts or a tier, so replay is a recomputation that shares nothing
/// with the run it checks.
pub struct Scripts<P> {
    /// Chooses the script for a request index.
    pub pick: P,
    /// Cross-request memo tier the machines under test share.
    pub memo: Option<Arc<dyn MemoTier>>,
}

impl<P: FnMut(u64) -> Arc<PreparedScript>> Handler for Scripts<P> {
    fn primary(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        (self.pick)(req).run_memo(m, true, self.memo.clone())
    }

    fn reference(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        (self.pick)(req).run(m, false)
    }
}

/// Everything a run reports about its workers beyond the per-request
/// records: the serving statistics plus the counters that live on the
/// machines and breakers. [`Server::totals`] reads one worker's;
/// [`Totals::merge`] sums them, keeping one row per worker where a sum
/// would lose information.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Serving statistics, with the engines' memo counters folded in.
    pub stats: ServeStats,
    /// Static-analysis savings accumulated on the machines.
    pub savings: StaticSavings,
    /// Injected-fault counters per accelerator domain.
    pub injected: [u64; 4],
    /// Detected-fault counters per accelerator domain.
    pub detected: [u64; 4],
    /// Due faults per domain that have not landed: those that found
    /// nothing to corrupt yet and wait for live state, and hint-vector
    /// flips no sieve consumed (see [`PhpMachine::unlanded_hv_flips`]).
    /// Every due fault is either injected or pending.
    pub pending: [u64; 4],
    /// Breaker trips per domain.
    pub trips: [u64; 4],
    /// Breaker recoveries per domain.
    pub recoveries: [u64; 4],
    /// Breaker state per worker per domain: 0 closed, 1 half-open, 2 open.
    pub breaker_states: Vec<[u8; 4]>,
    /// Total metered µops per worker.
    pub worker_uops: Vec<u64>,
    /// Accelerator traffic per worker: how warm each machine runs.
    pub worker_accel: Vec<WorkerAccel>,
    /// Live allocator blocks across the machines (leak check — 0 once
    /// every request ended or recovered).
    pub live_blocks: usize,
}

/// One worker machine's accelerator counters, read off its heap manager,
/// hash table and core. On a warm run the hit rates show the state that
/// outlives a request; on a resetting run every request starts cold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerAccel {
    /// `hmmalloc` calls.
    pub heap_mallocs: u64,
    /// `hmmalloc` calls served from a hardware free list.
    pub heap_hits: u64,
    /// Hash-table `get`s.
    pub htable_gets: u64,
    /// Hash-table `get`s that hit in the table.
    pub htable_hits: u64,
    /// Modelled OS context switches (`hmflush` plus string-config
    /// save/restore).
    pub context_switches: u64,
}

impl Totals {
    /// Folds another worker's (or run's) totals into this one: counters sum,
    /// histograms concatenate, per-worker rows append.
    pub fn merge(&mut self, other: &Totals) {
        self.stats.merge(&other.stats);
        self.savings.accumulate(&other.savings);
        for i in 0..4 {
            self.injected[i] += other.injected[i];
            self.detected[i] += other.detected[i];
            self.pending[i] += other.pending[i];
            self.trips[i] += other.trips[i];
            self.recoveries[i] += other.recoveries[i];
        }
        self.breaker_states.extend_from_slice(&other.breaker_states);
        self.worker_uops.extend_from_slice(&other.worker_uops);
        self.worker_accel.extend_from_slice(&other.worker_accel);
        self.live_blocks += other.live_blocks;
    }

    /// Whether every breaker on every worker is closed.
    pub fn all_breakers_closed(&self) -> bool {
        self.breaker_states.iter().all(|row| *row == [0; 4])
    }

    /// The run's simulated elapsed time in µops: the busiest worker's
    /// total, since workers execute concurrently on private cores.
    pub fn simulated_elapsed_uops(&self) -> u64 {
        self.worker_uops.iter().copied().max().unwrap_or(0)
    }
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request index.
    pub request: u64,
    /// How the sandbox classified the exit.
    pub outcome: RequestOutcome,
    /// Response bytes (empty on abnormal outcomes).
    pub response: Vec<u8>,
    /// Domains that ran on the software path for this request.
    pub degraded: [bool; 4],
    /// Detected-fault delta per domain during this request.
    pub fault_delta: [u64; 4],
}

/// A single-machine request server with sandboxing, fault injection,
/// circuit breaking, and optional byte-identity checking.
pub struct Server {
    machine: PhpMachine,
    /// All-software reference replaying successful requests, if checking.
    reference: Option<PhpMachine>,
    breakers: [CircuitBreaker; 4],
    plan: FaultPlan,
    /// Due faults that found nothing to corrupt (an empty table, drained
    /// free lists): each waits for the first request that leaves live
    /// state to land in.
    pending_faults: Vec<PlannedFault>,
    sandbox: SandboxConfig,
    stats: ServeStats,
    keep_bodies: bool,
    /// Requests served warm (without a reset), for the context-switch
    /// cadence.
    warm_served: u64,
}

impl Server {
    /// Creates a server around `machine`.
    pub fn new(machine: PhpMachine, breaker_cfg: BreakerConfig, sandbox: SandboxConfig) -> Self {
        Server {
            machine,
            reference: None,
            breakers: std::array::from_fn(|_| CircuitBreaker::new(breaker_cfg)),
            plan: FaultPlan::default(),
            pending_faults: Vec::new(),
            sandbox,
            stats: ServeStats::default(),
            keep_bodies: true,
            warm_served: 0,
        }
    }

    /// Brings up one worker, the way every scheduler and bench does:
    /// `machine` is the worker's private machine (already on its engine),
    /// `arena` turns on its arena/epoch allocation, and `reference`
    /// attaches an all-software [`PhpMachine::baseline`] — tree walk, free
    /// lists — that replays every successful request.
    pub fn worker(
        machine: PhpMachine,
        breaker_cfg: BreakerConfig,
        sandbox: SandboxConfig,
        arena: bool,
        reference: bool,
        keep_bodies: bool,
    ) -> Self {
        if arena {
            machine.ctx().set_arena_enabled(true);
        }
        let mut server = Server::new(machine, breaker_cfg, sandbox).with_keep_bodies(keep_bodies);
        if reference {
            server = server.with_reference(PhpMachine::baseline());
        }
        server
    }

    /// Installs a fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Appends faults to the server's plan mid-stream. The HTTP front end
    /// uses this to hand a worker the due faults it pulled from the shared
    /// global plan just before serving a dynamically-assigned request.
    pub fn schedule_faults(
        &mut self,
        faults: impl IntoIterator<Item = crate::fault::PlannedFault>,
    ) {
        self.plan.extend(faults);
    }

    /// Controls whether [`RequestRecord::response`] retains the response
    /// bytes (default `true`). Long soaks set `false` so memory stays
    /// bounded; statistics, breaker feedback, and reference replay are
    /// computed before the bytes are dropped and are unaffected.
    pub fn with_keep_bodies(mut self, keep: bool) -> Self {
        self.keep_bodies = keep;
        self
    }

    /// Replays each successful request on `reference` (normally
    /// [`PhpMachine::baseline`]) and counts byte mismatches. Only valid for
    /// handlers that are deterministic given `(machine, request index)`.
    pub fn with_reference(mut self, reference: PhpMachine) -> Self {
        self.reference = Some(reference);
        self
    }

    /// The machine under test.
    pub fn machine(&self) -> &PhpMachine {
        &self.machine
    }

    /// Mutable access to the machine under test (setup/teardown).
    pub fn machine_mut(&mut self) -> &mut PhpMachine {
        &mut self.machine
    }

    /// One domain's breaker.
    pub fn breaker(&self, id: AccelId) -> &CircuitBreaker {
        &self.breakers[id.index()]
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// This worker's totals so far: the statistics — with the memo traffic
    /// the engines counted on the machine's profiler folded in — plus the
    /// breaker, fault, savings, µop and live-block counters.
    pub fn totals(&self) -> Totals {
        let profiler = self.machine.ctx().profiler();
        let savings = profiler.static_savings();
        let mut stats = self.stats.clone();
        stats.memo_hits = savings.memo_hits;
        stats.memo_misses = savings.memo_misses;
        stats.memo_stores = savings.memo_stores;
        stats.memo_invalidations = savings.memo_invalidations;
        let mut pending = [0; 4];
        for id in self.pending_faults.iter().filter_map(|f| f.kind.domain()) {
            pending[id.index()] += 1;
        }
        pending[AccelId::Regex.index()] += self.machine.unlanded_hv_flips();
        Totals {
            stats,
            savings,
            injected: self.machine.injected_fault_counts(),
            detected: self.machine.detected_fault_counts(),
            pending,
            trips: self.breakers.each_ref().map(|b| b.trips),
            recoveries: self.breakers.each_ref().map(|b| b.recoveries),
            breaker_states: vec![self.breaker_codes()],
            worker_uops: vec![profiler.total_uops()],
            worker_accel: vec![self.accel_counters()],
            live_blocks: self.machine.ctx().with_allocator(|a| a.live_block_count()),
        }
    }

    /// Each breaker's state: 0 closed, 1 half-open, 2 open.
    fn breaker_codes(&self) -> [u8; 4] {
        self.breakers.each_ref().map(|b| match b.state() {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open { .. } => 2,
        })
    }

    fn accel_counters(&self) -> WorkerAccel {
        let core = self.machine.core();
        let (heap, htable) = (core.heap.stats(), core.htable.stats());
        WorkerAccel {
            heap_mallocs: heap.mallocs,
            heap_hits: heap.malloc_hits,
            htable_gets: htable.gets,
            htable_hits: htable.get_hits,
            context_switches: core.context_switches,
        }
    }

    /// Zeroes the statistics, keeping machine, breaker, and fault-plan
    /// state. The overload simulator's warmup boundary uses this — exactly
    /// like the load generator's `reset_metrics` — so measured stats cover
    /// steady state only while warm accelerator state carries over.
    pub fn reset_stats(&mut self) {
        self.stats = ServeStats::default();
    }

    /// Injects one fault into live accelerator state; `false` when the
    /// targeted structure holds nothing left to corrupt (empty, or every
    /// target already carries a latent fault).
    fn inject(&mut self, kind: FaultKind) -> bool {
        let core = self.machine.core_mut();
        match kind {
            FaultKind::HtableEntry { nth } => core.htable.inject_entry_fault(nth),
            FaultKind::HtableRtt { nth } => core.htable.inject_rtt_fault(nth),
            FaultKind::HeapFreelist { nth } => core.heap.inject_freelist_fault(nth),
            FaultKind::StringConfig => core.straccel.inject_config_fault(),
            FaultKind::RegexReuse { nth } => core.reuse.inject_entry_fault(nth),
            FaultKind::RegexHvFlip { bit } => {
                self.machine.arm_hv_flip(bit);
                true
            }
            FaultKind::AllocatorOom => true, // realized as a sandbox ceiling below
        }
    }

    /// The per-request step every scheduler drives: serves request `req`
    /// (see [`Server::serve_indexed`]), measures its service time as the
    /// machine profiler's µop delta, and closes the request boundary.
    ///
    /// With `reset_between_requests` every request ends in
    /// [`Server::recover_between_requests`], so each one starts on a cold,
    /// pristine machine whatever served before it. Without it the run
    /// serves warm: accelerator state outlives the request, as in the
    /// paper. Every request still ends (its maps' hash-table entries freed,
    /// scoped frees, arena epoch reset), but recovery runs only after an
    /// abnormal exit, a detected fault or a breaker transition, and the
    /// machine takes a modelled context switch every
    /// [`CONTEXT_SWITCH_EVERY`] warm requests. Faults the boundary work
    /// detects (including the recovery scrub's) are fed to the breakers as
    /// faults of request `req`, and a warm machine recovers after them.
    ///
    /// The µops travel beside the record, not inside it: records compare
    /// equal across worker counts where a specialized machine's
    /// per-request µops legitimately differ. They cover the request alone,
    /// not the boundary work after it.
    pub fn step<H: Handler + ?Sized>(
        &mut self,
        req: u64,
        handler: &mut H,
        reset_between_requests: bool,
    ) -> (RequestRecord, u64) {
        let breakers_before = self.breaker_codes();
        let before = self.machine.ctx().profiler().total_uops();
        let record = self.execute(req, handler);
        // Saturating: a handler may reset the machine's metrics mid-request.
        let after = self.machine.ctx().profiler().total_uops();
        let service_uops = after.saturating_sub(before);
        let faulted = !record.outcome.is_ok()
            || record.fault_delta != [0; 4]
            || self.breaker_codes() != breakers_before;
        let boundary_before = self.machine.detected_fault_counts();
        let recovered = reset_between_requests || faulted;
        if recovered {
            self.recover_between_requests();
        } else {
            self.machine.end_request();
            if let Some(r) = self.reference.as_mut() {
                r.end_request();
            }
        }
        if !reset_between_requests {
            self.warm_served += 1;
            if self.warm_served.is_multiple_of(CONTEXT_SWITCH_EVERY) {
                self.machine.context_switch();
            }
        }
        // The boundary work checks state too: a map freed through a corrupt
        // RTT entry, a flush over a poisoned free list, the recovery scrub.
        // What it detects is this request's fault: a warm machine recovers,
        // and the breakers count it.
        if !recovered && self.machine.detected_fault_counts() != boundary_before {
            self.recover_between_requests();
        }
        let boundary_after = self.machine.detected_fault_counts();
        for id in AccelId::ALL {
            let i = id.index();
            let detected = boundary_after[i].saturating_sub(boundary_before[i]);
            self.breakers[i].record_faults(req, detected);
        }
        (record, service_uops)
    }

    /// Serves request `req`: injects due faults, applies breaker decisions,
    /// runs `handler` in the sandbox, feeds fault deltas back into the
    /// breakers, and (if configured) byte-compares against the reference.
    /// Indices are the caller's: shed arrivals consume global indices
    /// without ever reaching the server, so an admitted stream is sparse —
    /// yet breakers and the fault plan still key on the *global* index,
    /// keeping fault schedules meaningful whether or not their request was
    /// admitted (a due fault simply lands on the next admitted request).
    pub fn serve_indexed(
        &mut self,
        req: u64,
        handler: &mut dyn FnMut(&mut PhpMachine, u64) -> Vec<u8>,
    ) -> RequestRecord {
        self.execute(req, handler)
    }

    fn execute<H: Handler + ?Sized>(&mut self, req: u64, handler: &mut H) -> RequestRecord {
        let mut force_oom = false;
        let mut due = std::mem::take(&mut self.pending_faults);
        due.extend(self.plan.take_due(req));
        for fault in due {
            if fault.kind == FaultKind::AllocatorOom {
                force_oom = true;
            }
            if !self.inject(fault.kind) {
                self.pending_faults.push(fault);
            }
        }

        let mut degraded = [false; 4];
        for id in AccelId::ALL {
            let allowed = self.breakers[id.index()].allows(req);
            self.machine.set_accel_enabled(id, allowed);
            degraded[id.index()] = !allowed;
            if !allowed {
                self.stats.degraded_requests[id.index()] += 1;
            }
        }

        let before = self.machine.detected_fault_counts();
        let mut sandbox = self.sandbox;
        if force_oom {
            sandbox.memory_limit =
                Some(OOM_CLAMP_BYTES.min(sandbox.memory_limit.unwrap_or(u64::MAX)));
        }
        let mut response = Vec::new();
        let outcome = run_sandboxed(&mut self.machine, sandbox, |m| {
            response = handler.primary(m, req);
        });
        let after = self.machine.detected_fault_counts();

        let mut fault_delta = [0u64; 4];
        for id in AccelId::ALL {
            let i = id.index();
            // Saturating: abnormal-exit recovery (or a metrics reset inside
            // the handler) may shrink a detected-fault counter mid-request;
            // a plain subtraction would underflow and panic the server.
            fault_delta[i] = after[i].saturating_sub(before[i]);
            if fault_delta[i] > 0 {
                self.breakers[i].record_faults(req, fault_delta[i]);
            } else if outcome.is_ok() {
                self.breakers[i].record_success(req);
            }
        }

        self.stats.requests += 1;
        match &outcome {
            RequestOutcome::Ok => self.stats.ok += 1,
            RequestOutcome::Timeout => self.stats.timeouts += 1,
            RequestOutcome::OomKilled => self.stats.ooms += 1,
            RequestOutcome::Panicked { .. } => self.stats.panics += 1,
            // Shedding happens before a request reaches the sandbox
            // (see Server::record_shed); the sandbox never produces it.
            RequestOutcome::Shed => unreachable!("sandbox exits are never Shed"),
        }

        if outcome.is_ok() {
            if let Some(reference) = self.reference.as_mut() {
                let expected = catch_unwind(AssertUnwindSafe(|| handler.reference(reference, req)));
                match expected {
                    Ok(bytes) if bytes == response => {}
                    Ok(_) => self.stats.mismatches += 1,
                    Err(_) => {
                        reference.recover_request();
                        self.stats.mismatches += 1;
                    }
                }
            }
        } else {
            response.clear();
        }
        if !self.keep_bodies {
            response = Vec::new();
        }

        RequestRecord {
            request: req,
            outcome,
            response,
            degraded,
            fault_delta,
        }
    }

    /// Records one arrival refused by admission control at the given queue
    /// depth. The machine, breakers, and fault plan are untouched — the
    /// request never ran — but it still counts toward `requests` so the
    /// outcome partition covers every arrival. Returns the 503 record.
    pub fn record_shed(&mut self, req: u64, queue_depth: u64) -> RequestRecord {
        self.stats.requests += 1;
        self.stats.shed += 1;
        self.stats.queue_depth.record(queue_depth);
        RequestRecord {
            request: req,
            outcome: RequestOutcome::Shed,
            response: Vec::new(),
            degraded: [false; 4],
            fault_delta: [0; 4],
        }
    }

    /// Records the queueing observations of one *admitted* request: the
    /// queue depth it saw on arrival, its queue wait, and its end-to-end
    /// latency (wait + service), all in simulated µops.
    pub fn record_admitted_timing(&mut self, queue_depth: u64, wait_uops: u64, latency_uops: u64) {
        self.stats.queue_depth.record(queue_depth);
        self.stats.queue_wait.record(wait_uops);
        self.stats.latency.record(latency_uops);
    }

    /// Restores the machine — and the reference, if one is attached — to a
    /// pristine request boundary ([`PhpMachine::recover_request`]). A
    /// resetting run calls this between all requests, so every request
    /// observes identical machine history regardless of which worker serves
    /// it; a warm run only after a request that faulted. Statistics are
    /// kept.
    pub fn recover_between_requests(&mut self) {
        self.machine.recover_request();
        if let Some(r) = self.reference.as_mut() {
            r.recover_request();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_runtime::{ArrayKey, PhpValue};

    /// Serves requests `0..n` without resetting between them.
    fn serve_many(server: &mut Server, n: u64, handler: &mut dyn Handler) -> Vec<RequestRecord> {
        (0..n)
            .map(|req| server.step(req, handler, false).0)
            .collect()
    }

    /// A handler exercising the hash-table domain: a persistent map is
    /// mutated and read every request; the response is the rendered map.
    fn htable_handler() -> impl FnMut(&mut PhpMachine, u64) -> Vec<u8> {
        let mut arrays = std::collections::HashMap::new();
        move |m: &mut PhpMachine, req: u64| {
            let arr = arrays
                .entry(m as *const PhpMachine as usize)
                .or_insert_with(|| m.new_persistent_array());
            for k in 0..4u64 {
                m.array_set(
                    arr,
                    ArrayKey::Str(format!("k{k}").into()),
                    PhpValue::Int((req * 10 + k) as i64),
                );
            }
            let mut out = Vec::new();
            for k in 0..4u64 {
                let v = m.array_get(arr, &ArrayKey::Str(format!("k{k}").into()));
                out.extend_from_slice(format!("{v:?};").as_bytes());
            }
            m.end_request();
            out
        }
    }

    fn breaker_cfg() -> BreakerConfig {
        BreakerConfig {
            fault_threshold: 2,
            window: 20,
            base_backoff: 3,
            max_backoff: 12,
        }
    }

    #[test]
    fn faults_trip_breaker_then_recover_with_identical_output() {
        let plan = FaultPlan::new(vec![
            PlannedFault {
                at_request: 2,
                kind: FaultKind::HtableEntry { nth: 0 },
            },
            PlannedFault {
                at_request: 3,
                kind: FaultKind::HtableEntry { nth: 1 },
            },
        ]);
        let mut server = Server::new(
            PhpMachine::specialized(),
            breaker_cfg(),
            SandboxConfig::unlimited(),
        )
        .with_fault_plan(plan)
        .with_reference(PhpMachine::baseline());

        let mut handler = htable_handler();
        let records = serve_many(&mut server, 20, &mut handler);

        // Every request completed; every byte matched the software run.
        assert!(records.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(server.stats().mismatches, 0);
        assert_eq!(server.stats().availability(), 1.0);

        // Both injected faults were detected and tripped the breaker.
        let b = server.breaker(AccelId::Htable);
        assert!(b.trips >= 1, "breaker never tripped");
        assert!(
            server.stats().degraded_requests[AccelId::Htable.index()] >= 1,
            "no degraded requests recorded"
        );
        // ... and the half-open trial succeeded within the backoff window.
        assert!(b.recoveries >= 1, "breaker never recovered");
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.last_recovery_latency.unwrap() <= 12 + 1);
        // Other domains untouched.
        assert_eq!(server.breaker(AccelId::Heap).trips, 0);
        assert_eq!(server.breaker(AccelId::Regex).trips, 0);
    }

    #[test]
    fn forced_oom_is_contained_and_stream_continues() {
        let plan = FaultPlan::new(vec![PlannedFault {
            at_request: 1,
            kind: FaultKind::AllocatorOom,
        }]);
        let mut server = Server::new(
            PhpMachine::specialized(),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        )
        .with_fault_plan(plan);

        // Allocate more than the clamp so the OOM actually fires.
        let mut handler = |m: &mut PhpMachine, _req: u64| {
            let b = m.alloc(2048);
            m.free(b);
            m.end_request();
            b"done".to_vec()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let records = serve_many(&mut server, 3, &mut handler);
        std::panic::set_hook(hook);

        assert_eq!(records[0].outcome, RequestOutcome::Ok);
        assert_eq!(records[1].outcome, RequestOutcome::OomKilled);
        assert_eq!(records[2].outcome, RequestOutcome::Ok, "stream resumed");
        assert_eq!(server.stats().ooms, 1);
        assert_eq!(
            server
                .machine()
                .ctx()
                .with_allocator(|a| a.live_block_count()),
            0,
            "recovery leaked blocks"
        );
    }

    /// Regression for the `fault_delta` underflow: the string accelerator
    /// detects an injected config fault on request 0, then request 1 resets
    /// the machine metrics mid-stream (a load generator's warmup boundary
    /// does exactly this). The server's pre-request snapshot is then larger
    /// than the post-request counter, and the old `after - before` panicked
    /// the server itself with a subtract overflow.
    #[test]
    fn mid_request_counter_reset_does_not_underflow_fault_delta() {
        let mut server = Server::new(
            PhpMachine::specialized(),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        );
        let mut handler = |m: &mut PhpMachine, req: u64| {
            if req == 0 {
                m.core_mut().straccel.inject_config_fault();
                let s = match m.transient_str("Fault Probe".to_string()) {
                    PhpValue::Str(s) => s,
                    _ => unreachable!(),
                };
                let _ = m.strtolower(&s);
            } else {
                m.reset_metrics();
            }
            m.end_request();
            b"ok".to_vec()
        };
        let records = serve_many(&mut server, 2, &mut handler);
        assert!(
            records[0].fault_delta[AccelId::Str.index()] >= 1,
            "request 0 must detect the injected fault"
        );
        assert_eq!(records[1].outcome, RequestOutcome::Ok);
        assert_eq!(
            records[1].fault_delta, [0u64; 4],
            "a shrunken counter clamps to zero, it does not underflow"
        );
        assert!(server.stats().outcomes_partition_requests());
    }

    /// `availability()` counts exactly the non-5xx requests, and the outcome
    /// counters partition the stream.
    #[test]
    fn availability_counts_non_5xx_and_outcomes_partition() {
        let plan = FaultPlan::new(vec![PlannedFault {
            at_request: 1,
            kind: FaultKind::AllocatorOom,
        }]);
        let mut server = Server::new(
            PhpMachine::specialized(),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        )
        .with_fault_plan(plan);
        let mut handler = |m: &mut PhpMachine, _req: u64| {
            let b = m.alloc(2048);
            m.free(b);
            m.end_request();
            b"done".to_vec()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        serve_many(&mut server, 4, &mut handler);
        std::panic::set_hook(hook);

        let s = server.stats();
        assert_eq!(
            s.ok + s.timeouts + s.ooms + s.panics,
            s.requests,
            "outcome counters must partition the request count"
        );
        assert!(s.outcomes_partition_requests());
        // One OOM (a 504/500-class exit) out of four: availability is the
        // non-5xx fraction, not merely "produced bytes".
        assert_eq!(s.ooms, 1);
        assert_eq!(s.availability(), 3.0 / 4.0);
    }

    /// Dropping response bodies changes nothing except the retained bytes:
    /// stats (including reference-replay mismatches), outcomes, degradation
    /// flags, and fault deltas are identical.
    #[test]
    fn dropping_bodies_leaves_stats_and_replay_unchanged() {
        let plan = || {
            FaultPlan::new(vec![
                PlannedFault {
                    at_request: 2,
                    kind: FaultKind::HtableEntry { nth: 0 },
                },
                PlannedFault {
                    at_request: 3,
                    kind: FaultKind::HtableEntry { nth: 1 },
                },
            ])
        };
        let run = |keep: bool| {
            let mut server = Server::new(
                PhpMachine::specialized(),
                breaker_cfg(),
                SandboxConfig::unlimited(),
            )
            .with_fault_plan(plan())
            .with_reference(PhpMachine::baseline())
            .with_keep_bodies(keep);
            let mut handler = htable_handler();
            let records = serve_many(&mut server, 12, &mut handler);
            (records, server.stats().clone())
        };
        let (kept, stats_kept) = run(true);
        let (dropped, stats_dropped) = run(false);

        assert_eq!(stats_kept, stats_dropped);
        assert_eq!(stats_dropped.mismatches, 0, "replay ran before the drop");
        assert!(kept.iter().any(|r| !r.response.is_empty()));
        for (k, d) in kept.iter().zip(&dropped) {
            assert!(d.response.is_empty(), "bodies must not be retained");
            assert_eq!(k.request, d.request);
            assert_eq!(k.outcome, d.outcome);
            assert_eq!(k.degraded, d.degraded);
            assert_eq!(k.fault_delta, d.fault_delta);
        }
    }

    #[test]
    fn merged_stats_equal_sum_of_parts() {
        let a = ServeStats {
            requests: 12,
            ok: 8,
            timeouts: 1,
            ooms: 1,
            panics: 0,
            shed: 2,
            degraded_requests: [1, 2, 3, 4],
            mismatches: 0,
            ..ServeStats::default()
        };
        let b = ServeStats {
            requests: 6,
            ok: 4,
            timeouts: 0,
            ooms: 0,
            panics: 1,
            shed: 1,
            degraded_requests: [4, 3, 2, 1],
            mismatches: 1,
            ..ServeStats::default()
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.requests, 18);
        assert_eq!(merged.ok, 12);
        assert_eq!(merged.timeouts, 1);
        assert_eq!(merged.ooms, 1);
        assert_eq!(merged.panics, 1);
        assert_eq!(merged.shed, 3);
        assert_eq!(merged.degraded_requests, [5, 5, 5, 5]);
        assert_eq!(merged.mismatches, 1);
        assert!(merged.outcomes_partition_requests());
    }

    /// Regression for the `Shed` outcome's accounting: shed requests are
    /// back-pressure, not failures — `availability()` must be computed over
    /// admitted requests only, while `outcomes_partition_requests()` must
    /// still cover every arrival (served *and* shed).
    #[test]
    fn shed_requests_are_not_failures_and_partition_holds() {
        let mut server = Server::new(
            PhpMachine::specialized(),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        );
        let mut handler = |m: &mut PhpMachine, req: u64| {
            m.end_request();
            req.to_string().into_bytes()
        };
        // Arrivals 0 and 2 are admitted; 1 and 3 are shed by the controller.
        let r0 = server.serve_indexed(0, &mut handler);
        let s1 = server.record_shed(1, 3);
        let r2 = server.serve_indexed(2, &mut handler);
        let s3 = server.record_shed(3, 4);

        assert!(r0.outcome.is_ok() && r2.outcome.is_ok());
        assert_eq!(s1.outcome, RequestOutcome::Shed);
        assert_eq!(s1.outcome.status_code(), 503);
        assert!(s3.response.is_empty(), "a shed request never ran");

        let stats = server.stats();
        assert_eq!(stats.requests, 4, "sheds still count as arrivals");
        assert_eq!((stats.ok, stats.shed), (2, 2));
        assert!(
            stats.outcomes_partition_requests(),
            "ok + timeouts + ooms + panics + shed must equal requests"
        );
        // Both admitted requests succeeded: availability is 1.0, not 0.5 —
        // shedding under overload must not read as an outage.
        assert_eq!(stats.availability(), 1.0);
        assert_eq!(stats.shed_fraction(), 0.5);
        assert_eq!(stats.queue_depth.count(), 2, "sheds record arrival depth");

        // All-shed stats stay vacuously available and still partition.
        let mut all_shed = Server::new(
            PhpMachine::specialized(),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        );
        all_shed.record_shed(0, 1);
        assert_eq!(all_shed.stats().availability(), 1.0);
        assert!(all_shed.stats().outcomes_partition_requests());
    }

    #[test]
    fn string_config_fault_degrades_without_byte_changes() {
        let plan = FaultPlan::new(vec![
            PlannedFault {
                at_request: 1,
                kind: FaultKind::StringConfig,
            },
            PlannedFault {
                at_request: 2,
                kind: FaultKind::StringConfig,
            },
        ]);
        let mut server = Server::new(
            PhpMachine::specialized(),
            breaker_cfg(),
            SandboxConfig::unlimited(),
        )
        .with_fault_plan(plan)
        .with_reference(PhpMachine::baseline());

        let mut handler = |m: &mut PhpMachine, req: u64| {
            let s = m.transient_str(format!("  Request {req} <Body> "));
            let s = match s {
                PhpValue::Str(s) => s,
                _ => unreachable!(),
            };
            let t = m.trim(&s);
            let lower = m.strtolower(&t);
            let esc = m.htmlspecialchars(&lower);
            let out = esc.as_bytes().to_vec();
            m.end_request();
            out
        };
        let records = serve_many(&mut server, 12, &mut handler);
        assert!(records.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(server.stats().mismatches, 0);
        let b = server.breaker(AccelId::Str);
        assert!(b.trips >= 1);
        assert_eq!(b.state(), BreakerState::Closed, "should have recovered");
    }

    /// A due fault whose structure holds nothing to corrupt waits, and the
    /// totals report it as pending rather than losing it: until a request
    /// fills the hash table, planned = injected + pending.
    #[test]
    fn fault_on_an_empty_structure_is_reported_pending() {
        let plan = FaultPlan::new(vec![PlannedFault {
            at_request: 0,
            kind: FaultKind::HtableEntry { nth: 0 },
        }]);
        let mut server = Server::new(
            PhpMachine::specialized(),
            breaker_cfg(),
            SandboxConfig::unlimited(),
        )
        .with_fault_plan(plan);
        let ht = AccelId::Htable.index();
        serve_many(&mut server, 3, &mut |_: &mut PhpMachine, _| b"ok".to_vec());
        let totals = server.totals();
        assert_eq!((totals.injected[ht], totals.pending[ht]), (0, 1));
        assert_eq!(totals.pending.iter().sum::<u64>(), 1);

        let mut merged = totals.clone();
        merged.merge(&totals);
        assert_eq!(merged.pending[ht], 2, "merge sums pending faults");

        // Faults land before a request runs: the first request to start
        // with an entry in the table takes it.
        let mut handler = htable_handler();
        for req in 3..5 {
            server.step(req, &mut handler, false);
        }
        let totals = server.totals();
        assert_eq!((totals.injected[ht], totals.pending[ht]), (1, 0));
    }
}
