//! The benchmark's whole surface on the program under test.
//!
//! This is the only file that names a type or function from `crates/*`;
//! `README.md` lists every one of them. A change to any of their signatures
//! shows up here and nowhere else in the benchmark.

use accel_heap::{HeapConfig, HeapStats, HwHeapManager, MallocOutcome};
use accel_htable::{HtConfig, HtStats, HwHashTable};
use accel_regex::{regexp_shadow, regexp_sieve, RegexAccelStats, DEFAULT_SEGMENT_SIZE};
use accel_string::{StrAccelConfig, StringAccel};
use php_interp::ast::{FuncDef, Stmt};
use php_interp::{compile, parse, CompileOptions, MemoHit, MemoTier};
use php_runtime::alloc::SlabAllocator;
use php_runtime::{Category, Profiler};
use phpaccel_core::{compare, Engine, PhpMachine};
use regex_engine::Regex;
use serve::{
    parse_request, render_prometheus, AccessLog, AdmissionConfig, AdmissionController,
    BreakerConfig, ErrorPages, HttpConfig, HttpLimits, HttpResponse, HttpServer, IdentityEncoding,
    MemoCache, MiddlewareChain, MiddlewareRequest, SandboxConfig, Server,
};
use std::io::{self, Cursor};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uarch_sim::EnergyModel;
use workloads::php_corpus::{CorpusCache, PreparedScript, ENTRIES};
use workloads::{AppKind, Workload};

/// Shards of the shared memo tier in the serving configuration.
const MEMO_SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// Script names of the corpus, in corpus order, without building it.
pub fn corpus_names() -> Vec<&'static str> {
    ENTRIES.iter().map(|e| e.name).collect()
}

/// Lower-case names of the paper's three applications.
pub fn app_names() -> Vec<String> {
    AppKind::PHP_APPS
        .iter()
        .map(|k| k.label().to_ascii_lowercase())
        .collect()
}

/// The compiled corpus: what `/run/<name>` serves.
#[derive(Clone)]
pub struct Corpus {
    cache: Arc<CorpusCache>,
}

impl Corpus {
    /// Parses, analyzes and compiles every corpus script from source.
    pub fn build() -> Corpus {
        Corpus {
            cache: Arc::new(CorpusCache::build()),
        }
    }

    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn name(&self, script: usize) -> &'static str {
        self.cache.scripts()[script].entry().name
    }

    fn script(&self, script: usize) -> &Arc<PreparedScript> {
        &self.cache.scripts()[script]
    }

    /// The expected body of every script from the all-software reference:
    /// a baseline machine, the tree walker, no analysis facts.
    pub fn reference_bodies(&self) -> Vec<Vec<u8>> {
        let mut machine = PhpMachine::baseline();
        self.cache
            .scripts()
            .iter()
            .map(|s| {
                let body = s.run(&mut machine, false);
                machine.recover_request();
                body
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Machine counters
// ---------------------------------------------------------------------------

/// Everything the benchmark reads off a machine's public statistics,
/// summable across machines. Ratios are computed by the stats types' own
/// methods over the summed counts.
#[derive(Debug, Clone, Default)]
pub struct MachineCounters {
    /// Metered µops by `Category::ALL` order.
    pub uops_by_category: [u64; 8],
    pub total_uops: u64,
    pub accel_cycles: u64,
    pub context_switches: u64,
    pub vm_ops: u64,
    pub vm_fused_ops: u64,
    pub vm_transients_elided: u64,
    pub arena_bytes_reclaimed: u64,
    pub live_blocks: u64,
    pub straccel_cycles: u64,
    pub reuse_lookups: u64,
    pub reuse_hits: u64,
    htable: HtStats,
    heap: HeapStats,
    regex: RegexAccelStats,
}

/// Labels of `MachineCounters::uops_by_category`, in order.
pub fn category_labels() -> [&'static str; 8] {
    Category::ALL.map(Category::label)
}

impl MachineCounters {
    fn read(m: &PhpMachine) -> MachineCounters {
        let prof = m.ctx().profiler();
        let by_cat = prof.category_breakdown();
        let savings = prof.static_savings();
        let core = m.core();
        let (ht, heap, regex, reuse) = (
            core.htable.stats(),
            core.heap.stats(),
            &core.regex_stats,
            core.reuse.stats(),
        );
        MachineCounters {
            uops_by_category: Category::ALL.map(|c| by_cat.get(&c).copied().unwrap_or(0)),
            total_uops: prof.total_uops(),
            accel_cycles: core.accel_cycles(),
            context_switches: core.context_switches,
            vm_ops: savings.vm_ops_executed,
            vm_fused_ops: savings.vm_fused_ops,
            vm_transients_elided: savings.vm_transients_elided,
            arena_bytes_reclaimed: savings.arena_bytes_reclaimed,
            live_blocks: m.ctx().with_allocator(|a| a.live_block_count()) as u64,
            straccel_cycles: core.straccel.stats().cycles,
            reuse_lookups: reuse.lookups,
            reuse_hits: reuse.hits,
            htable: HtStats {
                gets: ht.gets,
                get_hits: ht.get_hits,
                sets: ht.sets,
                key_too_long: ht.key_too_long,
                ..HtStats::default()
            },
            heap: HeapStats {
                mallocs: heap.mallocs,
                malloc_hits: heap.malloc_hits,
                frees: heap.frees,
                free_hits: heap.free_hits,
                ..HeapStats::default()
            },
            regex: RegexAccelStats {
                bytes_total: regex.bytes_total,
                bytes_skipped_sift: regex.bytes_skipped_sift,
                bytes_skipped_reuse: regex.bytes_skipped_reuse,
                ..RegexAccelStats::default()
            },
        }
    }

    pub fn add(&mut self, o: &MachineCounters) {
        for (a, b) in self.uops_by_category.iter_mut().zip(o.uops_by_category) {
            *a += b;
        }
        self.total_uops += o.total_uops;
        self.accel_cycles += o.accel_cycles;
        self.context_switches += o.context_switches;
        self.vm_ops += o.vm_ops;
        self.vm_fused_ops += o.vm_fused_ops;
        self.vm_transients_elided += o.vm_transients_elided;
        self.arena_bytes_reclaimed += o.arena_bytes_reclaimed;
        self.live_blocks += o.live_blocks;
        self.straccel_cycles += o.straccel_cycles;
        self.reuse_lookups += o.reuse_lookups;
        self.reuse_hits += o.reuse_hits;
        self.htable.gets += o.htable.gets;
        self.htable.get_hits += o.htable.get_hits;
        self.htable.sets += o.htable.sets;
        self.htable.key_too_long += o.htable.key_too_long;
        self.heap.mallocs += o.heap.mallocs;
        self.heap.malloc_hits += o.heap.malloc_hits;
        self.heap.frees += o.heap.frees;
        self.heap.free_hits += o.heap.free_hits;
        self.regex.bytes_total += o.regex.bytes_total;
        self.regex.bytes_skipped_sift += o.regex.bytes_skipped_sift;
        self.regex.bytes_skipped_reuse += o.regex.bytes_skipped_reuse;
    }

    pub fn htable_hit_rate(&self) -> f64 {
        self.htable.hit_rate()
    }

    pub fn htable_set_share(&self) -> f64 {
        self.htable.set_share()
    }

    pub fn heap_hit_rate(&self) -> f64 {
        self.heap.hit_rate()
    }

    pub fn regex_skip_fraction(&self) -> f64 {
        self.regex.skip_fraction()
    }
}

// ---------------------------------------------------------------------------
// The in-process serving rig
// ---------------------------------------------------------------------------

/// A memo tier that forwards to the real cache and keeps what was stored,
/// so lookups and stores can be timed later on keys the corpus produces.
struct RecordingMemo {
    cache: MemoCache,
    stored: Mutex<Vec<(String, Vec<String>, MemoHit)>>,
}

impl MemoTier for RecordingMemo {
    fn lookup(&self, key: &str) -> Option<MemoHit> {
        self.cache.lookup(key)
    }

    fn store(&self, key: String, deps: Vec<String>, hit: MemoHit) {
        self.stored
            .lock()
            .expect("memo recorder lock: no holder panics")
            .push((key.clone(), deps.clone(), hit.clone()));
        self.cache.store(key, deps, hit);
    }

    fn invalidate(&self, dep: &str) -> u64 {
        self.cache.invalidate(dep)
    }
}

/// One served request as the rig saw it.
pub struct Served {
    pub ok: bool,
    pub body: Vec<u8>,
    /// When the script itself started and stopped running inside the serve.
    pub interp: (Instant, Instant),
}

/// A private `Server` around a specialized machine in the serving
/// configuration (VM engine, facts on, arena on), as one HTTP worker owns.
pub struct Rig {
    server: Server,
    memo: Option<Arc<RecordingMemo>>,
}

impl Rig {
    /// `memo` attaches a private memo tier (the HTTP workloads share one;
    /// the in-process workloads run without). `reference` replays every
    /// request on an all-software machine and counts mismatches.
    pub fn new(memo: bool, reference: bool) -> Rig {
        let mut server = Server::new(
            serving_machine(Engine::Vm),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        );
        if reference {
            server = server.with_reference(PhpMachine::baseline());
        }
        let memo = memo.then(|| {
            Arc::new(RecordingMemo {
                cache: MemoCache::new(MEMO_SHARDS),
                stored: Mutex::new(Vec::new()),
            })
        });
        Rig { server, memo }
    }

    /// `Server::serve_indexed` on one corpus script.
    pub fn serve(&mut self, corpus: &Corpus, script: usize, req: u64) -> Served {
        let script = corpus.script(script);
        let memo = self.memo.clone();
        let now = Instant::now();
        let mut interp = (now, now);
        let record = self.server.serve_indexed(req, &mut |m, _req| {
            let tier = memo.clone().map(|t| t as Arc<dyn MemoTier>);
            let start = Instant::now();
            let out = script.run_memo(m, true, tier);
            interp = (start, Instant::now());
            out
        });
        Served {
            ok: record.outcome.is_ok(),
            body: record.response,
            interp,
        }
    }

    /// `Server::recover_between_requests`, as every worker does.
    pub fn reset(&mut self) {
        self.server.recover_between_requests();
    }

    /// Zeroes the machine's metrics; accelerator contents stay warm.
    pub fn reset_metrics(&mut self) {
        self.server.machine_mut().reset_metrics();
    }

    pub fn counters(&self) -> MachineCounters {
        MachineCounters::read(self.server.machine())
    }

    pub fn total_uops(&self) -> u64 {
        self.server.machine().ctx().profiler().total_uops()
    }

    /// `(ok, mismatches)` of this rig's server so far.
    pub fn ok_and_mismatches(&self) -> (u64, u64) {
        let s = self.server.stats();
        (s.ok, s.mismatches)
    }

    /// Median-ready samples of `MemoTier::lookup` and `MemoTier::store`
    /// on a fresh `MemoCache`, over the keys this rig's requests stored.
    /// Empty when the rig has no memo tier or nothing was stored.
    pub fn time_memo(&self, rounds: usize) -> (Vec<u64>, Vec<u64>) {
        let Some(memo) = &self.memo else {
            return (Vec::new(), Vec::new());
        };
        let stored = memo
            .stored
            .lock()
            .expect("memo recorder lock: no holder panics")
            .clone();
        let cache = MemoCache::new(MEMO_SHARDS);
        let (mut lookups, mut stores) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            for (key, deps, hit) in &stored {
                let (key, deps, hit) = (key.clone(), deps.clone(), hit.clone());
                let t = Instant::now();
                cache.store(key, deps, hit);
                stores.push(t.elapsed().as_nanos() as u64);
            }
            for (key, _, _) in &stored {
                let t = Instant::now();
                let hit = std::hint::black_box(cache.lookup(key));
                lookups.push(t.elapsed().as_nanos() as u64);
                drop(hit);
            }
        }
        (lookups, stores)
    }
}

fn serving_machine(engine: Engine) -> PhpMachine {
    let mut machine = PhpMachine::specialized();
    machine.set_engine(engine);
    machine.ctx().set_arena_enabled(true);
    machine
}

/// Which script engine a bare run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BareEngine {
    Vm,
    TreeWalk,
}

/// A specialized machine with no `Server` around it: `PreparedScript::run`
/// directly, to price the engine alone.
pub struct BareMachine {
    machine: PhpMachine,
}

impl BareMachine {
    pub fn new(engine: BareEngine) -> BareMachine {
        BareMachine {
            machine: serving_machine(match engine {
                BareEngine::Vm => Engine::Vm,
                BareEngine::TreeWalk => Engine::TreeWalk,
            }),
        }
    }

    /// Runs one script with facts on and restores the request boundary
    /// (untimed); returns the run's duration in ns.
    pub fn run(&mut self, corpus: &Corpus, script: usize) -> u64 {
        let t = Instant::now();
        let out = corpus.script(script).run(&mut self.machine, true);
        let ns = t.elapsed().as_nanos() as u64;
        std::hint::black_box(out);
        self.machine.recover_request();
        ns
    }
}

// ---------------------------------------------------------------------------
// The HTTP front end
// ---------------------------------------------------------------------------

/// What the front end reported at shutdown.
#[derive(Debug, Clone, Default)]
pub struct EdgeReport {
    pub connections: u64,
    pub requests: u64,
    pub shed: u64,
    pub parse_errors: u64,
    pub ok: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_entries: u64,
    pub memo_invalidations: u64,
    pub access_log_lines: u64,
}

/// An in-process `HttpServer` in the serving configuration: VM engine,
/// arena on, a shared memo tier, reference replay off, and no faults,
/// admission control or rate limit.
pub struct EdgeServer {
    server: HttpServer,
}

impl EdgeServer {
    pub fn start(corpus: &Corpus, workers: usize) -> io::Result<EdgeServer> {
        let mut cfg = HttpConfig::loopback(workers);
        cfg.engine = Engine::Vm;
        cfg.arena = true;
        cfg.reference = false;
        cfg.memo = Some(Arc::new(MemoCache::new(MEMO_SHARDS)));
        // One kept-alive connection carries a whole trial.
        cfg.max_keep_alive_requests = usize::MAX;
        Ok(EdgeServer {
            server: HttpServer::start(cfg, Arc::clone(&corpus.cache))?,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// `(requests the workers have published, their summed metered µops)`.
    /// A worker publishes after it replies, so a caller that needs the
    /// count of everything it sent polls until `requests` catches up.
    pub fn published(&self) -> (u64, u64) {
        let snap = self.server.metrics_snapshot();
        (snap.stats.requests, snap.worker_uops.iter().sum())
    }

    /// What `GET /metrics` does: snapshot, then render. Returns the size.
    pub fn render_metrics(&self) -> usize {
        render_prometheus(&self.server.metrics_snapshot()).len()
    }

    pub fn shutdown(self) -> EdgeReport {
        let r = self.server.shutdown();
        let memo = r.memo.unwrap_or_default();
        EdgeReport {
            connections: r.front.connections,
            requests: r.front.http_requests,
            shed: r.front.shed_total() + r.front.connections_refused,
            parse_errors: r.front.parse_errors,
            ok: r.stats.ok,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_entries: memo.entries as u64,
            memo_invalidations: memo.invalidations,
            access_log_lines: r.access_log.len() as u64,
        }
    }
}

/// The edge stages a connection thread runs around a worker, callable one
/// at a time: parse, middleware chain, admission decision, response write.
pub struct EdgeStages {
    limits: HttpLimits,
    chain: MiddlewareChain,
    admission: AdmissionController,
    wire: Vec<u8>,
}

impl Default for EdgeStages {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeStages {
    /// The standard chain `HttpServer::start` builds without a rate limit.
    pub fn new() -> EdgeStages {
        EdgeStages {
            limits: HttpLimits::default(),
            chain: MiddlewareChain::new()
                .with(Arc::new(AccessLog::new()))
                .with(ErrorPages)
                .with(IdentityEncoding),
            admission: AdmissionController::new(AdmissionConfig::default()),
            wire: Vec::new(),
        }
    }

    /// `parse_request` on the bytes the client sends. Returns the target.
    pub fn parse(&self, request: &[u8]) -> Option<String> {
        parse_request(&mut Cursor::new(request), &self.limits)
            .ok()
            .map(|r| r.target)
    }

    /// `MiddlewareChain::handle` around an already-built page.
    pub fn chain(&self, target: &str, body: Vec<u8>) -> (u16, Vec<u8>) {
        let req = MiddlewareRequest {
            method: "GET",
            target,
        };
        let resp = self.chain.handle(&req, || HttpResponse::html(200, body));
        (resp.status, resp.body)
    }

    /// `AdmissionController::decide` at queue depth 0 (predicted wait 0, as
    /// `dispatch_run` computes it) plus the `observe_service` a worker
    /// reports back.
    pub fn admit(&mut self, service_uops: u64) -> bool {
        let decision = self.admission.decide(0, 0);
        self.admission.observe_service(service_uops);
        matches!(decision, serve::AdmissionDecision::Admit)
    }

    /// `HttpResponse::write_to` into memory. Returns the bytes written.
    pub fn write(&mut self, body: Vec<u8>, keep_alive: bool) -> usize {
        self.wire.clear();
        HttpResponse::html(200, body)
            .write_to(&mut self.wire, keep_alive)
            .expect("writing into a Vec cannot fail");
        self.wire.len()
    }
}

// ---------------------------------------------------------------------------
// Front-end build stages (setup cost)
// ---------------------------------------------------------------------------

/// Per-script ns of `parse`, `analyze_with_funcs` and `compile` (facts on,
/// fused: the unit the serving configuration runs).
pub struct BuildTimes {
    pub lex_parse_ns: u64,
    pub analyze_ns: u64,
    pub compile_ns: u64,
}

pub fn time_script_build(corpus: &Corpus, script: usize) -> BuildTimes {
    let source = corpus.script(script).entry().source;
    let t = Instant::now();
    let program = parse(source).expect("corpus scripts parse");
    let lex_parse_ns = t.elapsed().as_nanos() as u64;
    let funcs: Vec<Arc<FuncDef>> = program
        .stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::FuncDef(f) => Some(Arc::new(f.clone())),
            _ => None,
        })
        .collect();
    let t = Instant::now();
    let analysis = php_analysis::analyze_with_funcs(&program, &funcs);
    let analyze_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let unit = compile(
        &program,
        &funcs,
        Some(&analysis.facts),
        CompileOptions { fuse: true },
    );
    let compile_ns = t.elapsed().as_nanos() as u64;
    std::hint::black_box(unit);
    BuildTimes {
        lex_parse_ns,
        analyze_ns,
        compile_ns,
    }
}

// ---------------------------------------------------------------------------
// The paper's applications
// ---------------------------------------------------------------------------

/// Which machine the applications run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppMachine {
    Baseline,
    Specialized,
}

struct App {
    label: &'static str,
    workload: Box<dyn Workload>,
    machine: PhpMachine,
}

/// The paper's three PHP applications, each on its own machine.
pub struct Apps {
    apps: Vec<App>,
}

impl Apps {
    pub fn build(seed: u64, on: AppMachine) -> Apps {
        Apps {
            apps: AppKind::PHP_APPS
                .iter()
                .map(|&kind| App {
                    label: kind.label(),
                    workload: kind.build(seed),
                    machine: match on {
                        AppMachine::Baseline => PhpMachine::baseline(),
                        AppMachine::Specialized => PhpMachine::specialized(),
                    },
                })
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Lower-case app name as used in metric names (see `app_names`).
    pub fn name(&self, app: usize) -> String {
        self.apps[app].label.to_ascii_lowercase()
    }

    /// `Workload::handle_request`; a panic is a failed request and the
    /// machine is recovered, as `LoadGen::run` does.
    pub fn handle(&mut self, app: usize, req: u64) -> bool {
        let a = &mut self.apps[app];
        let (workload, machine) = (&mut a.workload, &mut a.machine);
        let ok = catch_unwind(AssertUnwindSafe(|| workload.handle_request(machine, req))).is_ok();
        if !ok {
            machine.recover_request();
        }
        ok
    }

    pub fn context_switch(&mut self, app: usize) {
        self.apps[app].machine.context_switch();
    }

    pub fn reset_metrics(&mut self, app: usize) {
        self.apps[app].machine.reset_metrics();
    }

    pub fn counters(&self, app: usize) -> MachineCounters {
        MachineCounters::read(&self.apps[app].machine)
    }

    /// Figure 14's quantity for one app: execution time on `specialized`
    /// normalized to `self` (the baseline run of the same requests).
    pub fn normalized_time(&self, specialized: &Apps, app: usize) -> f64 {
        compare(
            self.apps[app].label,
            &self.apps[app].machine,
            &specialized.apps[app].machine,
            &EnergyModel::default(),
        )
        .normalized_specialized()
    }
}

// ---------------------------------------------------------------------------
// Accelerator and runtime micro-rigs
// ---------------------------------------------------------------------------

/// ns per `HwHashTable::get` over a resident working set of short keys.
pub fn time_htable_get(iters: usize) -> f64 {
    let mut table = HwHashTable::new(HtConfig::default());
    let keys: Vec<Vec<u8>> = (0..64).map(|i| format!("field_{i}").into_bytes()).collect();
    for (i, k) in keys.iter().enumerate() {
        table.set(0x1000, k, i as u64);
    }
    let t = Instant::now();
    for i in 0..iters {
        std::hint::black_box(table.get(0x1000, &keys[i % keys.len()]));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// ns per `hmmalloc` + `hmfree` pair of one 48-byte block.
pub fn time_heap_pair(iters: usize) -> f64 {
    let mut heap = HwHeapManager::new(HeapConfig::default());
    let mut alloc = SlabAllocator::new();
    let prof = Profiler::new();
    let t = Instant::now();
    for _ in 0..iters {
        let addr = match heap.hmmalloc(48, &mut alloc, &prof) {
            MallocOutcome::Hit { addr } | MallocOutcome::SoftwareRefill { addr } => addr,
            MallocOutcome::TooLarge => unreachable!("48 bytes is a hardware size class"),
        };
        std::hint::black_box(heap.hmfree(addr, 48, &mut alloc, &prof));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// ns per `SlabAllocator::malloc` + `free` pair of one 48-byte block.
pub fn time_slab_pair(iters: usize) -> f64 {
    let mut alloc = SlabAllocator::new();
    let prof = Profiler::new();
    let t = Instant::now();
    for _ in 0..iters {
        let block = alloc.malloc(48, &prof);
        alloc.free(std::hint::black_box(block), &prof);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// ns per `StringAccel::find` of a needle that is not in `page`.
pub fn time_straccel_find(page: &[u8], iters: usize) -> f64 {
    let mut accel = StringAccel::new(StrAccelConfig::default());
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(
            accel
                .find(page, b"\x01needle\x02", 0)
                .expect("an 8-byte pattern fits the matrix"),
        );
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// `(dfa_ns, sift_ns)` per pass over `page`: a full software scan for every
/// `'` (`Regex::find_all`), and the sieve + shadow pair that WordPress'
/// texturize runs.
pub fn time_regex(page: &[u8], iters: usize) -> (f64, f64) {
    let quote = Regex::new("'").expect("literal pattern");
    let dquote = Regex::new("\"").expect("literal pattern");
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(quote.find_all(page));
    }
    let dfa = t.elapsed().as_nanos() as f64 / iters as f64;
    let mut accel = StringAccel::new(StrAccelConfig::default());
    let t = Instant::now();
    for _ in 0..iters {
        let sieve = regexp_sieve(&quote, page, DEFAULT_SEGMENT_SIZE, &mut accel);
        std::hint::black_box(regexp_shadow(&dquote, page, &sieve.hv));
    }
    (dfa, t.elapsed().as_nanos() as f64 / iters as f64)
}
