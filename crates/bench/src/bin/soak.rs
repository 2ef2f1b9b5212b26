//! `soak` — fault-injection soak of the fault-tolerant request server.
//!
//! Drives a deterministic request mix that exercises all four accelerator
//! domains (hash table, heap manager, string unit, regexp engine) through a
//! [`serve::Server`] with a seeded [`serve::FaultPlan`] covering every
//! domain plus forced allocator OOMs, while byte-comparing each successful
//! response against an all-software reference machine.
//!
//! The run fails (exit 1) unless:
//!
//! * every request completes — availability is exactly the planned value
//!   (only the scheduled OOM requests fail);
//! * each domain's faults were detected and tripped its circuit breaker;
//! * each breaker recovered (half-open trial succeeded) and ends closed;
//! * every successful response is byte-identical to the software baseline.
//!
//! The stream is sharded across a `--workers N` [`serve::WorkerPool`]
//! (default 1: the same `Server` sequence, the whole plan in one shard) —
//! each worker gets a private machine, its slice of the (N×-denser) fault
//! plan, and its own breakers — and the pass criteria are asserted on the
//! merged pool totals. Machines are *not* reset between requests: faults
//! must land in live accelerator state. Response bodies are dropped from
//! the per-request records (`keep_bodies = false`) so long soaks run in
//! bounded memory; outcomes, byte-identity replay, and fault deltas are
//! computed before the drop.
//!
//! With `--shed --shape S` the same fault-injected request mix is driven
//! through the overload simulator instead: arrivals follow shape `S`
//! (`steady|diurnal|burst|flash-crowd`) at ~2× the calibrated capacity, a
//! deadline-aware admission controller sheds what would miss the latency
//! budget, and the pass criteria become the overload-survival contract —
//! shedding happened, every *admitted* request succeeded (except the
//! planned OOM kills), replay stayed byte-identical, and every breaker
//! still tripped and recovered. Machines are not reset between requests
//! here either, and `--workers N` selects the *simulated* worker count
//! draining the queue (execution stays single-threaded and deterministic).
//!
//! Every request ends with one corpus script: the primaries execute it on
//! the compiled opcode VM with the proven facts attached, the references
//! tree-walk the same source with no facts, so the byte-identity replay is
//! also a cross-engine differential under live fault injection. With
//! `--memo` a single cross-request [`serve::MemoCache`] is shared by every
//! primary machine for the whole soak (references never see it), so proven
//! call sites replay out of the shared cache while faults, breaker trips,
//! OOM kills, and degradations churn around them. The run additionally
//! fails unless the tier genuinely engaged (stores and warm hits both
//! nonzero).
//!
//! Usage: `soak [seed] [--workers N] [--arena] [--memo] [--shed]
//! [--shape steady|diurnal|burst|flash-crowd]` (default seed 20170613,
//! 1 worker). `--arena` enables the allocator's arena/epoch mode on every
//! primary machine and routes the request-scoped heap churn through the
//! arena-safe entry point — the reference machines stay on the classic
//! free-list path, so byte-identity also cross-checks the two allocators
//! under fault injection and forced OOM kills.

use php_interp::MemoTier;
use php_runtime::{ArrayKey, PhpArray, PhpStr, PhpValue};
use phpaccel_core::{AccelId, Engine, PhpMachine};
use regex_engine::Regex;
use serve::{
    AdmissionConfig, AdmissionController, BreakerConfig, FaultKind, FaultPlan, Handler, MemoCache,
    MemoCacheStats, OverloadConfig, OverloadSim, PlannedFault, PoolConfig, RequestOutcome,
    SandboxConfig, Scripts, Server, Totals, WorkerPool,
};
use std::collections::HashMap;
use std::sync::Arc;
use workloads::php_corpus::{CorpusCache, PreparedScript};
use workloads::{ArrivalConfig, ArrivalShape};

const TOTAL_REQUESTS: u64 = 300;
const BURN_IN: u64 = 20;
const LAST_FAULT: u64 = 220;
const OOM_REQUESTS: [u64; 2] = [60, 150];

/// The request mix: every domain is touched every request, so an injected
/// fault is detected on (or immediately after) the request it lands on, and
/// a half-open trial genuinely exercises the hardware path it is probing.
struct SoakApp<P> {
    rules: Vec<(Regex, Vec<u8>)>,
    author_re: Regex,
    /// Route the request-scoped heap churn through the arena-safe entry
    /// point (a no-op on machines with arena mode off, e.g. references).
    arena: bool,
    /// The corpus script that ends every request, round-robin, with the
    /// cross-request memo tier the primaries share.
    scripts: Scripts<P>,
    /// One persistent array per machine (primary and reference), keyed by
    /// machine address: entries stay live in the hardware hash table across
    /// requests so injected corruption has something to land on.
    arrays: HashMap<usize, PhpArray>,
}

fn soak_app(
    arena: bool,
    scripts: Arc<CorpusCache>,
    memo: Option<Arc<dyn MemoTier>>,
) -> SoakApp<impl FnMut(u64) -> Arc<PreparedScript>> {
    SoakApp {
        arena,
        scripts: Scripts {
            pick: move |req| Arc::clone(scripts.script_for_request(req)),
            memo,
        },
        rules: vec![
            (Regex::new("'").unwrap(), b"&#8217;".to_vec()),
            (Regex::new("\"").unwrap(), b"&#8221;".to_vec()),
            (Regex::new("<br>").unwrap(), b"<br/>".to_vec()),
        ],
        author_re: Regex::new("https://localhost/\\?author=[a-z]+").unwrap(),
        arrays: HashMap::new(),
    }
}

impl<P: FnMut(u64) -> Arc<PreparedScript>> Handler for SoakApp<P> {
    fn primary(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        self.handle(m, req, Scripts::primary)
    }

    fn reference(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        self.handle(m, req, Scripts::reference)
    }
}

impl<P: FnMut(u64) -> Arc<PreparedScript>> SoakApp<P> {
    /// The accelerator phase is the same code on both machines; the script
    /// phase is the side of [`Scripts`] the caller names.
    fn handle(
        &mut self,
        m: &mut PhpMachine,
        req: u64,
        script_phase: fn(&mut Scripts<P>, &mut PhpMachine, u64) -> Vec<u8>,
    ) -> Vec<u8> {
        let mut out = Vec::new();

        // Heap churn: varied request-scoped sizes so free lists stay
        // populated (scoped blocks are reclaimed even when the request is
        // OOM-killed mid-churn). In arena mode only even slots go to the
        // arena: the odd ones keep the free lists busy so HeapFreelist
        // faults still have nodes to poison and the heap breaker still
        // gets exercised.
        for i in 0..6 {
            let arena_safe = self.arena && i % 2 == 0;
            m.alloc_scoped_static(48 + ((req as usize * 13 + i * 37) % 200), arena_safe);
        }

        // Hash-table traffic against the persistent map.
        let mkey = m as *const PhpMachine as usize;
        let arr = self.arrays.entry(mkey).or_insert_with(|| m.new_array());
        for k in 0..6u64 {
            m.array_set(
                arr,
                ArrayKey::Str(format!("key{k}").into()),
                PhpValue::Int((req * 7 + k) as i64),
            );
        }
        for k in 0..6u64 {
            let v = m.array_get(arr, &ArrayKey::Str(format!("key{k}").into()));
            out.extend_from_slice(format!("{v:?};").as_bytes());
        }
        out.extend_from_slice(format!("n={};", m.foreach(arr).len()).as_bytes());

        // String pipeline.
        let s: PhpStr = format!("  <b>Request #{req}</b> & 'friends'  ").into();
        let t = m.trim(&s);
        let lower = m.strtolower(&t);
        let esc = m.htmlspecialchars(&lower);
        let (rep, nrep) = m.str_replace(b"e", b"3", &esc);
        out.extend_from_slice(rep.as_bytes());
        out.extend_from_slice(format!(";r={nrep};p={};", m.explode(b" ", &esc).len()).as_bytes());

        // Regexp engine: texturize (hint vectors) + content reuse.
        let content: PhpStr = format!("Post {req} says 'hi' and \"bye\"<br>fin {}", req % 9).into();
        let tex = m.texturize(&content, &self.rules);
        // The hardware pipeline pads replacements with spaces to keep the
        // hint vector segment-aligned (Figure 11) — that is modeled,
        // intentional skew, so the response folds the padding out before
        // the byte-identity comparison.
        out.extend(tex.as_bytes().iter().copied().filter(|&b| b != b' '));
        let url: PhpStr = format!(
            "https://localhost/?author={}",
            (b'a' + (req % 26) as u8) as char
        )
        .into();
        let hit = m.match_with_reuse(0x4010_0000, &self.author_re, &url);
        out.extend_from_slice(format!(";a={hit:?}").as_bytes());

        out.extend_from_slice(&script_phase(&mut self.scripts, m, req));

        m.end_request();
        out
    }
}

/// Seeded plan over every accelerator domain, plus two forced OOMs.
/// `per_domain` scales with the worker count so each worker's shard still
/// carries enough faults to trip its breakers.
fn build_plan(seed: u64, per_domain: usize) -> FaultPlan {
    let mut faults = FaultPlan::seeded(seed, per_domain, BURN_IN, LAST_FAULT)
        .all()
        .to_vec();
    for at in OOM_REQUESTS {
        faults.push(PlannedFault {
            at_request: at,
            kind: FaultKind::AllocatorOom,
        });
    }
    FaultPlan::new(faults)
}

/// Window spans the whole fault phase so every domain accumulates enough
/// marks to trip; backoff is short enough to recover well before the end.
fn breaker_cfg() -> BreakerConfig {
    BreakerConfig {
        fault_threshold: 2,
        window: LAST_FAULT,
        base_backoff: 10,
        max_backoff: 40,
    }
}

fn sandbox() -> SandboxConfig {
    SandboxConfig {
        fuel: None,
        uop_budget: Some(50_000_000),
        memory_limit: Some(64 << 20),
    }
}

/// A primary: accelerators on, scripts on the compiled opcode VM.
fn machine() -> PhpMachine {
    let mut m = PhpMachine::specialized();
    m.set_engine(Engine::Vm);
    m
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workers: usize = 1;
    let mut seed: u64 = 20_170_613;
    let mut arena = false;
    let mut shed = false;
    let mut memo = false;
    let mut shape = ArrivalShape::Steady;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--memo" {
            memo = true;
        } else if a == "--workers" {
            workers = it
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--workers takes a positive integer");
        } else if a == "--arena" {
            arena = true;
        } else if a == "--shed" {
            shed = true;
        } else if a == "--shape" {
            let name = it.next().expect("--shape takes an arrival shape name");
            shape = ArrivalShape::parse(name).unwrap_or_else(|| {
                panic!("unknown arrival shape {name:?} (steady|diurnal|burst|flash-crowd)")
            });
        } else {
            seed = a.parse().expect("seed must be an integer");
        }
    }
    let scripts = Arc::new(CorpusCache::build());
    let memo_cache = memo.then(|| Arc::new(MemoCache::default()));

    let failures = if shed {
        run_overload(seed, workers, arena, scripts, memo_cache, shape)
    } else {
        run_pool(seed, workers, arena, scripts, memo_cache)
    };
    for f in &failures {
        println!("SOAK FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Prints the per-domain table (and the memo line, with a tier) and returns
/// the failures every mode checks on its totals: each domain's faults were
/// detected and tripped and recovered a breaker, every breaker ended
/// closed, the outcome counters partition the stream, replay stayed
/// byte-identical, and the tier — when there is one — engaged.
fn check_totals(totals: &Totals, memo: Option<MemoCacheStats>) -> Vec<String> {
    let stats = &totals.stats;
    let mut failures = Vec::new();
    println!(
        "{:8} {:>8} {:>8} {:>6} {:>10} {:>9}",
        "domain", "injected", "detected", "trips", "recoveries", "degraded"
    );
    for id in AccelId::ALL {
        let i = id.index();
        println!(
            "{:8} {:>8} {:>8} {:>6} {:>10} {:>9}",
            id.name(),
            totals.injected[i],
            totals.detected[i],
            totals.trips[i],
            totals.recoveries[i],
            stats.degraded_requests[i],
        );
        if totals.detected[i] == 0 {
            failures.push(format!("{}: no faults detected on any worker", id.name()));
        }
        if totals.trips[i] == 0 {
            failures.push(format!("{}: no breaker tripped on any worker", id.name()));
        }
        if totals.recoveries[i] == 0 {
            failures.push(format!("{}: no breaker recovered on any worker", id.name()));
        }
    }
    if !totals.all_breakers_closed() {
        failures.push("a breaker is not closed at end of run".into());
    }
    if !stats.outcomes_partition_requests() {
        failures.push("outcome counters do not partition the request count".into());
    }
    if stats.mismatches != 0 {
        failures.push(format!(
            "{} degraded responses differed from baseline",
            stats.mismatches
        ));
    }
    if let Some(m) = memo {
        println!(
            "memo: entries {}  hits {}  misses {}  stores {}  invalidations {}  \
             (worker-side hits {}  misses {})",
            m.entries,
            m.hits,
            m.misses,
            m.stores,
            m.invalidations,
            stats.memo_hits,
            stats.memo_misses
        );
        if m.stores == 0 {
            failures.push("memo: no proven site ever stored".into());
        }
        if m.hits == 0 {
            failures.push("memo: warm tier never replayed a hit".into());
        }
    }
    failures
}

/// The overload soak: the same fault-injected request mix pushed through
/// the admission-controlled queue at ~2× calibrated capacity with a shaped
/// arrival schedule. Machines are not reset between requests (faults land
/// in live state); `workers` is the *simulated* drain capacity.
fn run_overload(
    seed: u64,
    workers: usize,
    arena: bool,
    scripts: Arc<CorpusCache>,
    memo_cache: Option<Arc<MemoCache>>,
    shape: ArrivalShape,
) -> Vec<String> {
    // Calibrate steady-state service cost of the soak mix (no faults, warm
    // requests only, memo off so capacity is measured at full cost) to
    // scale the arrival gaps and the latency budget.
    let (mean, smax) = {
        let mut server = Server::worker(machine(), breaker_cfg(), sandbox(), arena, false, false);
        let mut app = soak_app(arena, Arc::clone(&scripts), None);
        let (mut total, mut max, mut n) = (0u64, 0u64, 0u64);
        for i in 0..12u64 {
            let (_, s) = server.step(i, &mut app, false);
            if i >= 2 {
                total += s;
                max = max.max(s);
                n += 1;
            }
        }
        (total / n.max(1), max)
    };

    let plan = build_plan(seed, 4);
    let planned = plan.all().len();
    let server = Server::worker(machine(), breaker_cfg(), sandbox(), arena, true, false)
        .with_fault_plan(plan);
    // The budget tolerates a short queue above the conservative service
    // envelope; faults degrade requests to the software path, so leave
    // more headroom than the deterministic bench does.
    let budget = (6 * mean).max(3 * smax);
    let controller = AdmissionController::new(AdmissionConfig {
        budget_uops: budget,
        queue_capacity: 4 * workers,
        release_ratio: 0.5,
        service_prior_uops: smax,
    });
    // Warmup indices 0..8 stay below the fault burn-in (20), so the fault
    // schedule lands entirely in the measured arrival stream.
    let warmup = 8usize;
    let mut sim = OverloadSim::new(
        OverloadConfig {
            workers,
            warmup,
            slo_windows: 10,
            reset_between_requests: false,
        },
        server,
        controller,
    )
    .expect("valid overload config");
    // ~2× offered load on average; the shape modulates the instantaneous
    // rate around that (flash-crowd spikes to ~10×).
    let schedule = ArrivalConfig {
        shape,
        requests: (TOTAL_REQUESTS - warmup as u64) as usize,
        mean_gap_uops: (mean / (2 * workers as u64)).max(1),
        seed,
    }
    .times();

    let tier = memo_cache.clone().map(|c| c as Arc<dyn MemoTier>);
    let mut app = soak_app(arena, scripts, tier);
    // Expected panics (forced OOMs) would otherwise spam stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let report = sim.run(&schedule, &mut app);
    let _ = std::panic::take_hook();

    let stats = &report.stats;
    let admitted = stats.requests - stats.shed;
    println!(
        "== soak: overload survival (seed {seed}, shape {}, {workers} simulated workers) ==",
        shape.name()
    );
    println!(
        "arrivals {}  admitted {}  shed {} ({:.1}%)  ok {}  ooms {}  planned faults {}",
        stats.requests,
        admitted,
        stats.shed,
        report.shed_fraction() * 100.0,
        stats.ok,
        stats.ooms,
        planned
    );
    println!(
        "admitted availability {:.2}%  SLO attainment {:.3}  p50 {}  p99 {} uops (budget {budget})",
        stats.availability() * 100.0,
        report.slo_attainment(),
        report.latency_percentile(50.0),
        report.latency_percentile(99.0),
    );
    println!(
        "admission: engages {}  releases {}  shed over-budget {}  shed queue-full {}  \
         min window attainment {:.3}",
        report.admission.engages,
        report.admission.releases,
        report.admission.shed_over_budget,
        report.admission.shed_queue_full,
        report
            .windows
            .iter()
            .map(|w| w.attainment())
            .fold(f64::INFINITY, f64::min)
    );

    let mut failures = check_totals(&report, memo_cache.map(|c| c.stats()));
    if stats.shed == 0 {
        failures.push("2x offered load never shed anything".to_string());
    }
    // Every admitted request must succeed except the planned OOM kills
    // (shed arrivals postpone a due fault to the next *admitted* request,
    // so both OOMs still land).
    if stats.ooms != OOM_REQUESTS.len() as u64 {
        failures.push(format!(
            "planned OOM kills: {} landed, expected {}",
            stats.ooms,
            OOM_REQUESTS.len()
        ));
    }
    if stats.ok + stats.ooms != admitted {
        failures.push(format!(
            "admitted requests must all serve or OOM-kill: ok {} + ooms {} != admitted {admitted}",
            stats.ok, stats.ooms
        ));
    }
    if failures.is_empty() {
        println!(
            "SOAK PASS (overload): shed early, admitted requests all served, \
             breakers recovered, output byte-identical"
        );
    }
    failures
}

/// The threaded soak: the request stream sharded across a worker pool,
/// with the fault plan densified so each worker's shard still trips its
/// breakers, and the pass criteria asserted on the merged totals.
fn run_pool(
    seed: u64,
    workers: usize,
    arena: bool,
    scripts: Arc<CorpusCache>,
    memo_cache: Option<Arc<MemoCache>>,
) -> Vec<String> {
    let plan = build_plan(seed, 4 * workers);
    let planned = plan.all().len();
    let cfg = PoolConfig {
        workers,
        requests: TOTAL_REQUESTS,
        breaker_cfg: breaker_cfg(),
        sandbox: sandbox(),
        plan,
        reference: true,
        // Faults must land in live accelerator state, so machines keep their
        // history across requests (unlike the deterministic bench mode).
        reset_between_requests: false,
        keep_bodies: false,
        arena,
        memo: memo_cache.clone(),
    };
    let pool = WorkerPool::new(cfg);

    // Expected panics (forced OOMs) would otherwise spam stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let tier = memo_cache.map(|c| c as Arc<dyn MemoTier>);
    let report = pool.run(
        |_| machine(),
        |_w| soak_app(arena, Arc::clone(&scripts), tier.clone()),
    );
    let _ = std::panic::take_hook();

    let stats = &report.stats;
    println!("== soak: fault-tolerant serving (seed {seed}, {workers} workers) ==");
    println!(
        "requests {}  ok {}  timeouts {}  ooms {}  panics {}  planned faults {}",
        stats.requests, stats.ok, stats.timeouts, stats.ooms, stats.panics, planned
    );
    println!(
        "availability {:.2}% (expected {:.2}%)  byte mismatches vs software baseline: {}",
        stats.availability() * 100.0,
        (TOTAL_REQUESTS - OOM_REQUESTS.len() as u64) as f64 / TOTAL_REQUESTS as f64 * 100.0,
        stats.mismatches
    );
    let mut failures = check_totals(&report, report.memo);
    let expected_ok = TOTAL_REQUESTS - OOM_REQUESTS.len() as u64;
    if stats.ok != expected_ok {
        failures.push(format!(
            "availability: {} ok, expected {}",
            stats.ok, expected_ok
        ));
    }
    for at in OOM_REQUESTS {
        if report.records[at as usize].outcome != RequestOutcome::OomKilled {
            failures.push(format!(
                "request {at}: expected OomKilled, got {:?}",
                report.records[at as usize].outcome
            ));
        }
    }
    if report.records.iter().any(|r| !r.response.is_empty()) {
        failures.push("response bodies retained despite keep_bodies = false".into());
    }
    if report.live_blocks != 0 {
        failures.push(format!(
            "worker machines leaked {} live blocks",
            report.live_blocks
        ));
    }
    if failures.is_empty() {
        println!(
            "SOAK PASS ({workers} workers): merged stats clean, every domain detected, tripped and recovered"
        );
    }
    failures
}
