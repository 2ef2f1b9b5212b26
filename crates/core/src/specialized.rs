//! The specialized core (§4) and the `PhpMachine` execution facade.
//!
//! [`SpecializedCore`] owns the four accelerators and implements the
//! software-handler fallbacks. [`PhpMachine`] is what workloads program
//! against: the same workload code runs in [`ExecMode::Baseline`] (all
//! software, HHVM-like costs) or [`ExecMode::Specialized`] (accelerators
//! with zero-flag fallbacks), producing comparable cost ledgers.

use crate::config::MachineConfig;
use accel_heap::{FreeOutcome, HwHeapManager, MallocOutcome};
use accel_htable::{Eviction, GetOutcome, HwHashTable, KeyShapeHint, SetOutcome};
use accel_regex::{
    regexp_shadow, regexp_sieve, replace_padded, run_with_reuse, ContentReuseTable, HintVector,
    RegexAccelStats, ShadowMode,
};
use accel_string::StringAccel;
use php_runtime::array::{hash_bytes, ArrayKey, PhpArray};
use php_runtime::context::{ZEND_HASH_DESTROY, ZEND_HASH_UPDATE};
use php_runtime::profile::{Category, Leaf, OpCost};
use php_runtime::strfuncs::StrLib;
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use php_runtime::{AccessStatic, RuntimeContext};
use regex_engine::Regex;

static HASHTABLE_FOREACH: Leaf = Leaf::new("hashtable_foreach", Category::HashMap);
static HASHTABLE_FREE: Leaf = Leaf::new("hashtable_free", Category::HashMap);
static HASHTABLEGET: Leaf = Leaf::new("hashtableget", Category::HashMap);
static HASHTABLESET: Leaf = Leaf::new("hashtableset", Category::HashMap);
static HMFREE: Leaf = Leaf::new("hmfree", Category::Heap);
static HMMALLOC: Leaf = Leaf::new("hmmalloc", Category::Heap);
static HT_DIRTY_WRITEBACK: Leaf = Leaf::new("ht_dirty_writeback", Category::HashMap);
static PCRE_EXEC: Leaf = Leaf::new("pcre_exec", Category::Regex);
static PCRE_REPLACE: Leaf = Leaf::new("pcre_replace", Category::Regex);
static REGEXLOOKUP: Leaf = Leaf::new("regexlookup", Category::Regex);
static REGEXP_SHADOW: Leaf = Leaf::new("regexp_shadow", Category::Regex);
static REGEXP_SIEVE: Leaf = Leaf::new("regexp_sieve", Category::Regex);
static STRINGOP_COMPARE: Leaf = Leaf::new("stringop_compare", Category::String);
static STRINGOP_FIND: Leaf = Leaf::new("stringop_find", Category::String);
static STRINGOP_FINDSET: Leaf = Leaf::new("stringop_findset", Category::String);
static STRINGOP_REPLACE: Leaf = Leaf::new("stringop_replace", Category::String);
static STRINGOP_TRANSLATE: Leaf = Leaf::new("stringop_translate", Category::String);
static STRINGOP_TRIM: Leaf = Leaf::new("stringop_trim", Category::String);
static STRREADCONFIG: Leaf = Leaf::new("strreadconfig", Category::String);
static ZEND_HASH_NEXT_INSERT: Leaf = Leaf::new("zend_hash_next_insert", Category::HashMap);

/// Execution mode of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Unmodified software stack (HHVM-like baseline).
    Baseline,
    /// The §4 specialized core: accelerators + software fallbacks.
    Specialized,
}

/// Identifies one of the four accelerator domains, for per-domain
/// enable masks, fault counters, and circuit breakers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelId {
    /// §4.2 hardware hash table.
    Htable,
    /// §4.3 hardware heap manager.
    Heap,
    /// §4.4 string accelerator.
    Str,
    /// §4.5 regexp acceleration (content reuse table + hint vectors).
    Regex,
}

impl AccelId {
    /// All four domains, in counter-array order.
    pub const ALL: [AccelId; 4] = [AccelId::Htable, AccelId::Heap, AccelId::Str, AccelId::Regex];

    /// Index into `[_; 4]` counter arrays.
    pub fn index(self) -> usize {
        match self {
            AccelId::Htable => 0,
            AccelId::Heap => 1,
            AccelId::Str => 2,
            AccelId::Regex => 3,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AccelId::Htable => "htable",
            AccelId::Heap => "heap",
            AccelId::Str => "string",
            AccelId::Regex => "regex",
        }
    }
}

/// µops to issue an accelerator instruction and consume its result.
const DISPATCH_UOPS: u64 = 2;
/// Software cost of writing one dirty hash-table entry back to its map.
const DIRTY_WRITEBACK_UOPS: u64 = 30;

/// The four accelerators plus bookkeeping.
#[derive(Debug)]
pub struct SpecializedCore {
    /// §4.2 hardware hash table.
    pub htable: HwHashTable,
    /// §4.3 hardware heap manager.
    pub heap: HwHeapManager,
    /// §4.4 string accelerator.
    pub straccel: StringAccel,
    /// §4.5 content reuse table.
    pub reuse: ContentReuseTable,
    /// Aggregate regexp accelerator statistics (Figure 12).
    pub regex_stats: RegexAccelStats,
    /// Context switches observed.
    pub context_switches: u64,
}

impl SpecializedCore {
    /// Builds the core from a configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        SpecializedCore {
            htable: HwHashTable::new(cfg.htable),
            heap: HwHeapManager::new(cfg.heap),
            straccel: StringAccel::new(cfg.straccel),
            reuse: ContentReuseTable::new(cfg.reuse_entries),
            regex_stats: RegexAccelStats::default(),
            context_switches: 0,
        }
    }

    /// Total accelerator cycles consumed so far.
    pub fn accel_cycles(&self) -> u64 {
        self.htable.stats().accel_cycles
            + self.heap.stats().accel_cycles
            + self.straccel.stats().cycles
    }

    /// Executes one accelerator instruction at the architectural level
    /// (§4.6): result register + zero flag. The zero flag set means the
    /// code must branch to the software handler fallback. Heap instructions
    /// need the software allocator and profiler for their handler paths.
    pub fn execute(
        &mut self,
        instr: &crate::isa::AccelInstr,
        alloc: &mut php_runtime::alloc::SlabAllocator,
        prof: &php_runtime::Profiler,
    ) -> crate::isa::InstrResult {
        use crate::isa::{AccelInstr, InstrResult};
        match instr {
            AccelInstr::HashTableGet { base, key } => match self.htable.get(*base, key) {
                GetOutcome::Hit { value_ptr } => InstrResult::ok(value_ptr, 3),
                GetOutcome::Miss | GetOutcome::Unsupported => InstrResult::fallback(3),
            },
            AccelInstr::HashTableSet {
                base,
                key,
                value_ptr,
            } => {
                match self.htable.set(*base, key, *value_ptr) {
                    SetOutcome::Updated => InstrResult::ok(0, 3),
                    SetOutcome::Inserted {
                        eviction: Eviction::DirtyWriteback { evicted },
                    } => {
                        // Overflow: zero flag — software writes the victim back.
                        InstrResult {
                            zero_flag: true,
                            result: evicted.value_ptr,
                            cycles: 3,
                        }
                    }
                    SetOutcome::Inserted { .. } => InstrResult::ok(0, 3),
                    SetOutcome::Unsupported => InstrResult::fallback(1),
                }
            }
            AccelInstr::HmMalloc { size } => match self.heap.hmmalloc(*size, alloc, prof) {
                MallocOutcome::Hit { addr } => InstrResult::ok(addr, 1),
                // Zero flag: the handler already supplied the block; the
                // result register still carries the address.
                MallocOutcome::SoftwareRefill { addr } => InstrResult {
                    zero_flag: true,
                    result: addr,
                    cycles: 1,
                },
                MallocOutcome::TooLarge => InstrResult::fallback(1),
            },
            AccelInstr::HmFree { addr, size } => {
                match self.heap.hmfree(*addr, *size, alloc, prof) {
                    FreeOutcome::Hit => InstrResult::ok(0, 1),
                    FreeOutcome::Spilled | FreeOutcome::TooLarge => InstrResult::fallback(1),
                }
            }
            AccelInstr::HmFlush => {
                let flushed = self.heap.hmflush(alloc, prof) as u64;
                InstrResult::ok(flushed, 1 + flushed)
            }
            AccelInstr::StringOp { .. } => {
                // Data-carrying string ops go through the typed engine API
                // (PhpMachine); at ISA level we only model the invocation.
                InstrResult::ok(0, self.straccel.config().cycles_per_block)
            }
            AccelInstr::StrReadConfig => {
                let cycles = self.straccel.strreadconfig();
                InstrResult::ok(0, cycles)
            }
            AccelInstr::StrWriteConfig => {
                let stored = self.straccel.strwriteconfig();
                InstrResult::ok(stored as u64, 1)
            }
            AccelInstr::RegexLookup { pc, asid } => {
                // Architectural probe: content comes from the pending scan
                // buffer; modeled here with an empty-content lookup, which
                // is a table access without a content hit.
                match self.reuse.regexlookup(*pc, *asid, &[]) {
                    accel_regex::LookupOutcome::Hit { state, .. } => {
                        InstrResult::ok(state as u64, 1)
                    }
                    _ => InstrResult::fallback(1),
                }
            }
            AccelInstr::RegexSet { pc, asid, state } => {
                self.reuse.regexset(*pc, *asid, *state);
                InstrResult::ok(0, 1)
            }
        }
    }
}

/// A heap block handed out by the machine (hardware- or software-served).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MBlock {
    /// Simulated address.
    pub addr: u64,
    /// Requested size.
    pub size: usize,
    hw: bool,
    sw_block: Option<php_runtime::alloc::Block>,
}

/// Encodes an [`ArrayKey`] as hardware key bytes (int keys get a 0xFF-tag
/// prefix so they cannot collide with string keys).
pub fn key_bytes(key: &ArrayKey) -> Vec<u8> {
    match key {
        ArrayKey::Int(i) => {
            let mut v = Vec::with_capacity(9);
            v.push(0xFF);
            v.extend_from_slice(&i.to_le_bytes());
            v
        }
        ArrayKey::Str(s) => s.as_bytes().to_vec(),
    }
}

fn value_token(base: u64, key: &[u8]) -> u64 {
    hash_bytes(key) ^ base.rotate_left(17)
}

/// Which execution engine drives PHP scripts on a machine. The machine
/// itself never interprets anything — this is a mode flag script runners
/// (the tree-walking `Interp`, the compiled opcode VM) consult, carried
/// here so serve/pool/soak handlers can switch engines per machine without
/// changing any handler plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Tree-walking evaluator (`php_interp::Interp`).
    #[default]
    TreeWalk,
    /// Compiled bytecode VM over a fact-specialized `CompiledUnit`.
    Vm,
}

/// The machine workloads run on.
#[derive(Debug)]
pub struct PhpMachine {
    ctx: RuntimeContext,
    core: SpecializedCore,
    cfg: MachineConfig,
    mode: ExecMode,
    engine: Engine,
    scoped: Vec<MBlock>,
    /// Per-domain enable mask — a tripped circuit breaker clears an entry,
    /// degrading that domain to its software path.
    accel_enabled: [bool; 4],
    /// HV bit flip armed for the next texturize sieve (fault injection).
    pending_hv_flip: Option<usize>,
}

impl PhpMachine {
    /// Creates a machine in the given mode.
    pub fn new(mode: ExecMode, cfg: MachineConfig) -> Self {
        PhpMachine {
            ctx: RuntimeContext::new(),
            core: SpecializedCore::new(&cfg),
            cfg,
            mode,
            engine: Engine::default(),
            scoped: Vec::new(),
            accel_enabled: [true; 4],
            pending_hv_flip: None,
        }
    }

    /// A baseline machine with default configuration.
    pub fn baseline() -> Self {
        Self::new(ExecMode::Baseline, MachineConfig::default())
    }

    /// A specialized machine with default configuration.
    pub fn specialized() -> Self {
        Self::new(ExecMode::Specialized, MachineConfig::default())
    }

    /// The runtime context (profiler, allocator, refcount meter).
    pub fn ctx(&self) -> &RuntimeContext {
        &self.ctx
    }

    /// The accelerator complex.
    pub fn core(&self) -> &SpecializedCore {
        &self.core
    }

    /// Mutable accelerator access (experiments).
    pub fn core_mut(&mut self) -> &mut SpecializedCore {
        &mut self.core
    }

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The script engine this machine asks runners to use. Sticky across
    /// requests and request-boundary recovery — an engine choice is part of
    /// the machine's deployment configuration, not per-request state.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Selects the script engine for this machine.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    fn is_specialized(&self) -> bool {
        self.mode == ExecMode::Specialized
    }

    /// Whether accesses in domain `id` take the hardware path right now.
    fn use_accel(&self, id: AccelId) -> bool {
        self.is_specialized() && self.accel_enabled[id.index()]
    }

    /// Enables or disables one accelerator domain. Disabled domains run
    /// their software paths, which are byte-identical by construction
    /// (ground truth lives in the software structures).
    pub fn set_accel_enabled(&mut self, id: AccelId, on: bool) {
        self.accel_enabled[id.index()] = on;
    }

    /// Whether domain `id` is currently enabled.
    pub fn accel_enabled(&self, id: AccelId) -> bool {
        self.accel_enabled[id.index()]
    }

    /// String-accelerator gate: hardware path only when the domain is
    /// enabled AND the config registers pass their parity check. A detected
    /// config fault falls back to software for this op and self-heals.
    fn str_accel_ready(&mut self) -> bool {
        self.use_accel(AccelId::Str) && !self.core.straccel.config_fault_detected()
    }

    /// Arms a hint-vector bit flip to be injected into the next texturize
    /// sieve output (fault injection).
    pub fn arm_hv_flip(&mut self, bit: usize) {
        self.pending_hv_flip = Some(bit);
    }

    /// Detected faults per domain, in [`AccelId::index`] order.
    pub fn detected_fault_counts(&self) -> [u64; 4] {
        [
            self.core.htable.stats().faults_detected,
            self.core.heap.stats().faults_detected,
            self.core.straccel.stats().faults_detected,
            self.core.reuse.stats().faults_detected + self.core.regex_stats.hv_faults_detected,
        ]
    }

    /// Injected faults per domain, in [`AccelId::index`] order.
    pub fn injected_fault_counts(&self) -> [u64; 4] {
        [
            self.core.htable.stats().faults_injected,
            self.core.heap.stats().faults_injected,
            self.core.straccel.stats().faults_injected,
            self.core.reuse.stats().faults_injected + self.core.regex_stats.hv_faults_injected,
        ]
    }

    /// Restores machine invariants after an aborted request (panic, budget
    /// exhaustion, OOM): frees request-scoped blocks, drains the hardware
    /// free lists back to the software allocator (`hmflush`), invalidates
    /// the hardware hash table, and resets string/regexp engine state.
    /// Afterwards the software structures are exactly what a never-
    /// accelerated machine would hold.
    pub fn recover_request(&mut self) {
        // Scoped frees first so hardware-freed segments are on the free
        // lists when the flush drains them.
        self.end_request();
        if self.is_specialized() {
            self.ctx.with_allocator(|a| {
                let prof = self.ctx.profiler();
                self.core.heap.hmflush(a, prof);
            });
            self.core.htable.invalidate_all();
            self.core.straccel.reset_state();
            self.core.reuse.clear();
        }
        self.pending_hv_flip = None;
    }

    fn dispatch(&self, leaf: &'static Leaf) {
        self.ctx.profiler().record(leaf, OpCost::alu(DISPATCH_UOPS));
    }

    /// Resets every metric (profiler, refcount/alloc counters are kept in
    /// the runtime context; accelerator *contents* stay warm) — called after
    /// load-generator warmup so measurements cover steady state only.
    pub fn reset_metrics(&mut self) {
        self.ctx.profiler().reset();
        self.core.htable.reset_stats();
        self.core.heap.reset_stats();
        self.core.straccel.reset_stats();
        self.core.reuse.reset_stats();
        self.core.regex_stats = RegexAccelStats::default();
    }

    /// Applies analysis-time pre-configuration ahead of the first request:
    /// pre-seeds the hardware heap free lists from statically known
    /// allocation sizes, and pre-loads the string-accelerator sift config
    /// when the analysis pre-compiled regexps (the hint-vector sieve will
    /// run). Called when analysis facts are attached; a no-op in baseline
    /// mode, for disabled domains, and on repeat attachment (the heap skips
    /// already-stocked classes, the sift config load is idempotent).
    pub fn apply_prebuilt(&mut self, alloc_sizes: &[usize], has_precompiled_regex: bool) {
        if self.use_accel(AccelId::Heap) && !alloc_sizes.is_empty() {
            let classes = self.ctx.with_allocator(|a| {
                let prof = self.ctx.profiler();
                self.core.heap.preseed(alloc_sizes, a, prof)
            });
            if classes > 0 {
                self.ctx.profiler().note_heap_classes_preseeded(classes);
            }
        }
        if self.use_accel(AccelId::Str) && has_precompiled_regex {
            self.core.straccel.preload_sift_config();
        }
    }

    // -- request lifecycle ----------------------------------------------------

    /// Ends a simulated request: frees request-scoped blocks.
    pub fn end_request(&mut self) {
        let blocks: Vec<MBlock> = std::mem::take(&mut self.scoped);
        for b in blocks {
            self.free(b);
        }
        self.ctx.end_request();
    }

    /// Simulates an OS context switch: `hmflush`, string-accelerator config
    /// save (the hash table is hardware-coherent and needs nothing, §4.6).
    pub fn context_switch(&mut self) {
        if self.is_specialized() {
            self.core.context_switches += 1;
            self.ctx.with_allocator(|a| {
                let prof = self.ctx.profiler();
                self.core.heap.hmflush(a, prof);
            });
            self.core.straccel.strwriteconfig();
            // On resume the config is reloaded.
            let cycles = self.core.straccel.strreadconfig();
            self.ctx
                .profiler()
                .record(&STRREADCONFIG, OpCost::alu(DISPATCH_UOPS + cycles / 2));
        }
    }

    // -- heap -----------------------------------------------------------------

    /// Allocates `size` bytes (hardware path when ≤128 B in specialized
    /// mode).
    pub fn alloc(&mut self, size: usize) -> MBlock {
        if self.use_accel(AccelId::Heap) {
            let prof = self.ctx.profiler();
            let out = self
                .ctx
                .with_allocator(|a| self.core.heap.hmmalloc(size, a, prof));
            match out {
                MallocOutcome::Hit { addr } => {
                    self.dispatch(&HMMALLOC);
                    return MBlock {
                        addr,
                        size,
                        hw: true,
                        sw_block: None,
                    };
                }
                MallocOutcome::SoftwareRefill { addr } => {
                    // Cost already charged by the software handler.
                    self.dispatch(&HMMALLOC);
                    return MBlock {
                        addr,
                        size,
                        hw: true,
                        sw_block: None,
                    };
                }
                MallocOutcome::TooLarge => {}
            }
        }
        let b = self.ctx.malloc(size);
        MBlock {
            addr: b.addr,
            size,
            hw: false,
            sw_block: Some(b),
        }
    }

    /// Frees a block.
    pub fn free(&mut self, block: MBlock) {
        if block.hw {
            let prof = self.ctx.profiler();
            let out = self
                .ctx
                .with_allocator(|a| self.core.heap.hmfree(block.addr, block.size, a, prof));
            debug_assert!(!matches!(out, FreeOutcome::TooLarge));
            self.dispatch(&HMFREE);
        } else if let Some(sw) = block.sw_block {
            self.ctx.free(sw);
        }
    }

    /// Allocates a block that lives until [`PhpMachine::end_request`].
    pub fn alloc_scoped(&mut self, size: usize) -> u64 {
        let b = self.alloc(size);
        let addr = b.addr;
        self.scoped.push(b);
        addr
    }

    /// [`PhpMachine::alloc_scoped`] with a region-analysis verdict. An
    /// arena-safe site (and arena mode on) bump-allocates through the
    /// context's request arena — bypassing both the hardware heap manager
    /// and this machine's scoped free list — so the end-of-request epoch
    /// reset reclaims it in O(1). Everything else takes the normal path,
    /// keeping the hardware heap's live-count invariants untouched.
    pub fn alloc_scoped_static(&mut self, size: usize, arena_safe: bool) -> u64 {
        if arena_safe && self.ctx.arena_enabled() {
            return self.ctx.alloc_scoped_static(size, true).addr;
        }
        self.alloc_scoped(size)
    }

    /// Creates a transient string value: its backing allocation is taken and
    /// immediately recycled (the paper's HTML-tag churn pattern).
    pub fn transient_str(&mut self, s: impl Into<PhpStr>) -> PhpValue {
        let s: PhpStr = s.into();
        let b = self.alloc(s.heap_size());
        self.free(b);
        PhpValue::str(s)
    }

    /// [`PhpMachine::transient_str`] with a region-analysis verdict:
    /// arena-safe transient churn goes through the bump arena instead of
    /// the (hardware or free-list) malloc/free pair.
    pub fn transient_str_static(&mut self, s: impl Into<PhpStr>, arena_safe: bool) -> PhpValue {
        if arena_safe && self.ctx.arena_enabled() {
            return self.ctx.make_transient_str_static(s, true);
        }
        self.transient_str(s)
    }

    // -- hash maps -------------------------------------------------------------

    /// Creates an array registered with the heap.
    pub fn new_array(&mut self) -> PhpArray {
        self.new_array_static(false)
    }

    /// [`PhpMachine::new_array`] with a region-analysis verdict for the
    /// descriptor allocation.
    pub fn new_array_static(&mut self, arena_safe: bool) -> PhpArray {
        let mut a = PhpArray::new();
        let addr = self.alloc_scoped_static(64, arena_safe);
        a.set_base_addr(addr);
        a
    }

    /// Hash GET.
    pub fn array_get(&mut self, arr: &PhpArray, key: &ArrayKey) -> Option<PhpValue> {
        self.array_get_static(arr, key, AccessStatic::default(), KeyShapeHint::Unknown)
    }

    /// Hash GET with static-analysis facts: proven type checks and refcount
    /// increments are skipped (and counted as avoided); a constant-key hint
    /// lets the hardware table skip its hash stage. Returned values are
    /// identical to [`PhpMachine::array_get`].
    pub fn array_get_static(
        &mut self,
        arr: &PhpArray,
        key: &ArrayKey,
        facts: AccessStatic,
        hint: KeyShapeHint,
    ) -> Option<PhpValue> {
        if self.use_accel(AccelId::Htable) {
            let kb = key_bytes(key);
            match self.core.htable.get_hinted(arr.base_addr(), &kb, hint) {
                GetOutcome::Hit { .. } => {
                    self.dispatch(&HASHTABLEGET);
                    let out = arr.get(key).cloned();
                    if let Some(v) = &out {
                        self.ctx.type_check_elidable(v, facts.skip_type_check);
                        self.ctx.refcount_on_copy_elidable(v, facts.elide_rc);
                    }
                    return out;
                }
                GetOutcome::Miss => {
                    // Zero flag: software walk, then fill the table.
                    let out = self.ctx.array_get_static(arr, key, facts);
                    if out.is_some() {
                        let ev = self.core.htable.fill(
                            arr.base_addr(),
                            &kb,
                            value_token(arr.base_addr(), &kb),
                        );
                        self.charge_eviction(ev);
                    }
                    return out;
                }
                GetOutcome::Unsupported => return self.ctx.array_get_static(arr, key, facts),
            }
        }
        self.ctx.array_get_static(arr, key, facts)
    }

    /// Hash SET.
    pub fn array_set(&mut self, arr: &mut PhpArray, key: ArrayKey, value: PhpValue) {
        self.array_set_static(
            arr,
            key,
            value,
            AccessStatic::default(),
            KeyShapeHint::Unknown,
        );
    }

    /// Hash SET with static-analysis facts (see
    /// [`PhpMachine::array_get_static`]).
    pub fn array_set_static(
        &mut self,
        arr: &mut PhpArray,
        key: ArrayKey,
        value: PhpValue,
        facts: AccessStatic,
        hint: KeyShapeHint,
    ) {
        if self.use_accel(AccelId::Htable) {
            let kb = key_bytes(&key);
            let base = arr.base_addr();
            self.ctx.refcount_on_copy_elidable(&value, facts.elide_rc);
            // Ground truth stays in the software map (write-back happens
            // lazily in hardware; the model keeps contents exact).
            let old = arr.insert(key, value);
            if let Some(old) = old {
                self.ctx.refcount_on_drop_elidable(&old, facts.elide_rc);
            }
            match self
                .core
                .htable
                .set_hinted(base, &kb, value_token(base, &kb), hint)
            {
                SetOutcome::Updated => self.dispatch(&HASHTABLESET),
                SetOutcome::Inserted { eviction } => {
                    self.dispatch(&HASHTABLESET);
                    self.charge_eviction(eviction);
                }
                SetOutcome::Unsupported => {
                    // Long key: the software walk cost applies after all.
                    self.ctx
                        .profiler()
                        .record(&ZEND_HASH_UPDATE, OpCost::mixed(90));
                }
            }
            return;
        }
        self.ctx.array_set_static(arr, key, value, facts);
    }

    /// Appends with the next integer key (PHP `$a[] = v`), going through
    /// the same SET path as [`PhpMachine::array_set`].
    pub fn array_push(&mut self, arr: &mut PhpArray, value: PhpValue) -> ArrayKey {
        self.array_push_static(arr, value, AccessStatic::default(), false)
    }

    /// Append with static-analysis facts. When `hinted_append` is set the
    /// analysis proved this site only ever appends fresh integer keys, so
    /// the hardware SET skips its existence probe.
    pub fn array_push_static(
        &mut self,
        arr: &mut PhpArray,
        value: PhpValue,
        facts: AccessStatic,
        hinted_append: bool,
    ) -> ArrayKey {
        self.ctx.refcount_on_copy_elidable(&value, facts.elide_rc);
        let key = arr.push(value);
        if self.use_accel(AccelId::Htable) {
            let kb = key_bytes(&key);
            let base = arr.base_addr();
            let hint = if hinted_append {
                KeyShapeHint::IntAppend
            } else {
                KeyShapeHint::Unknown
            };
            match self
                .core
                .htable
                .set_hinted(base, &kb, value_token(base, &kb), hint)
            {
                SetOutcome::Inserted { eviction } => {
                    self.dispatch(&HASHTABLESET);
                    self.charge_eviction(eviction);
                }
                _ => self.dispatch(&HASHTABLESET),
            }
        } else {
            self.ctx
                .profiler()
                .record(&ZEND_HASH_NEXT_INSERT, OpCost::mixed(55));
        }
        key
    }

    fn charge_eviction(&self, ev: Eviction) {
        if let Eviction::DirtyWriteback { .. } = ev {
            self.ctx
                .profiler()
                .record(&HT_DIRTY_WRITEBACK, OpCost::mixed(DIRTY_WRITEBACK_UOPS));
        }
    }

    /// Hash unset (software path; the hardware entry is invalidated for
    /// coherence).
    pub fn array_remove(&mut self, arr: &mut PhpArray, key: &ArrayKey) -> Option<PhpValue> {
        if self.use_accel(AccelId::Htable) {
            let kb = key_bytes(key);
            self.core.htable.invalidate_key(arr.base_addr(), &kb);
        }
        self.ctx.array_remove(arr, key)
    }

    /// Whole-map free.
    pub fn array_free(&mut self, arr: &PhpArray) {
        if self.use_accel(AccelId::Htable) {
            self.core.htable.free(arr.base_addr());
            self.dispatch(&HASHTABLE_FREE);
            // Software still frees the map structure itself.
            self.ctx
                .profiler()
                .record(&ZEND_HASH_DESTROY, OpCost::mixed(16));
            return;
        }
        self.ctx.array_free(arr);
    }

    /// Ordered iteration (`foreach`): returns pairs in insertion order.
    pub fn foreach(&mut self, arr: &PhpArray) -> Vec<(ArrayKey, PhpValue)> {
        let pairs: Vec<(ArrayKey, PhpValue)> =
            arr.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        if self.use_accel(AccelId::Htable) {
            let out = self.core.htable.foreach(arr.base_addr());
            if out.order_lost || out.evicted_pairs > 0 || out.live_pairs.len() < pairs.len() {
                // Hardware can't replay the full order: software iterates.
                self.ctx.charge_foreach(arr);
            } else {
                self.dispatch(&HASHTABLE_FOREACH);
                self.ctx
                    .profiler()
                    .record(&HASHTABLE_FOREACH, OpCost::alu(pairs.len() as u64 / 4));
            }
        } else {
            self.ctx.charge_foreach(arr);
        }
        pairs
    }

    /// PHP `extract`: imports string-keyed pairs into a symbol-table array.
    pub fn extract(&mut self, symtab: &mut PhpArray, source: &PhpArray) -> usize {
        let pairs = self.foreach(source);
        let mut n = 0;
        for (k, v) in pairs {
            if matches!(k, ArrayKey::Str(_)) {
                self.array_set(symtab, k, v);
                n += 1;
            }
        }
        n
    }

    // -- strings ---------------------------------------------------------------

    fn strlib(&self) -> StrLib<'_> {
        self.ctx.strlib()
    }

    /// `strpos`.
    pub fn strpos(&mut self, haystack: &PhpStr, needle: &[u8], from: usize) -> Option<usize> {
        if self.str_accel_ready() {
            match self.core.straccel.find(haystack.as_bytes(), needle, from) {
                Ok((pos, _cost)) => {
                    self.dispatch(&STRINGOP_FIND);
                    return pos;
                }
                Err(_) => self.core.straccel.note_fallback(),
            }
        }
        self.strlib().strpos(haystack, needle, from)
    }

    /// `strcmp`.
    pub fn strcmp(&mut self, a: &PhpStr, b: &PhpStr) -> std::cmp::Ordering {
        if self.str_accel_ready() {
            let (ord, _) = self.core.straccel.compare(a.as_bytes(), b.as_bytes());
            self.dispatch(&STRINGOP_COMPARE);
            return ord;
        }
        self.strlib().strcmp(a, b)
    }

    /// `strtolower`.
    pub fn strtolower(&mut self, s: &PhpStr) -> PhpStr {
        self.case_convert(s, false)
    }

    /// `strtoupper`.
    pub fn strtoupper(&mut self, s: &PhpStr) -> PhpStr {
        self.case_convert(s, true)
    }

    fn case_convert(&mut self, s: &PhpStr, upper: bool) -> PhpStr {
        if self.str_accel_ready() {
            let (out, _) = self.core.straccel.translate_case(s.as_bytes(), upper);
            self.dispatch(&STRINGOP_TRANSLATE);
            return PhpStr::from_bytes(out);
        }
        if upper {
            self.strlib().strtoupper(s)
        } else {
            self.strlib().strtolower(s)
        }
    }

    /// `trim` with the default whitespace set.
    pub fn trim(&mut self, s: &PhpStr) -> PhpStr {
        if self.str_accel_ready() {
            if let Ok(((start, end), _)) = self
                .core
                .straccel
                .trim_range(s.as_bytes(), StrLib::WHITESPACE)
            {
                self.dispatch(&STRINGOP_TRIM);
                return PhpStr::from_bytes(s.as_bytes()[start..end].to_vec());
            }
            self.core.straccel.note_fallback();
        }
        self.strlib().trim(s, StrLib::WHITESPACE)
    }

    /// Single-byte `str_replace` (accelerated); multi-byte falls back.
    pub fn str_replace(
        &mut self,
        search: &[u8],
        replace: &[u8],
        subject: &PhpStr,
    ) -> (PhpStr, usize) {
        if search.len() == 1 && replace.len() == 1 && self.str_accel_ready() {
            let (out, n, _) =
                self.core
                    .straccel
                    .replace_byte(subject.as_bytes(), search[0], replace[0]);
            self.dispatch(&STRINGOP_REPLACE);
            return (PhpStr::from_bytes(out), n);
        }
        self.strlib().str_replace(search, replace, subject)
    }

    /// `htmlspecialchars`: the accelerator pre-scans for special bytes and
    /// clean strings pass through untouched; dirty strings pay software
    /// encoding from the first special byte on.
    pub fn htmlspecialchars(&mut self, s: &PhpStr) -> PhpStr {
        if self.str_accel_ready() {
            let (first, _) = self
                .core
                .straccel
                .find_byte_set(s.as_bytes(), b"&<>\"'", 0)
                .expect("5-byte set fits");
            self.dispatch(&STRINGOP_FINDSET);
            match first {
                None => return s.clone(),
                Some(pos) => {
                    let head = &s.as_bytes()[..pos];
                    let tail = PhpStr::from_bytes(s.as_bytes()[pos..].to_vec());
                    let encoded = self.strlib().htmlspecialchars(&tail);
                    let mut out = head.to_vec();
                    out.extend_from_slice(encoded.as_bytes());
                    return PhpStr::from_bytes(out);
                }
            }
        }
        self.strlib().htmlspecialchars(s)
    }

    /// `strip_tags`: the accelerator scans for `<`; tag-free strings pass
    /// through untouched, otherwise software strips from the first tag on.
    pub fn strip_tags(&mut self, s: &PhpStr) -> PhpStr {
        if self.str_accel_ready() {
            let (first, _) = self
                .core
                .straccel
                .find_byte_set(s.as_bytes(), b"<", 0)
                .expect("single-byte set fits");
            self.dispatch(&STRINGOP_FINDSET);
            match first {
                None => return s.clone(),
                Some(pos) => {
                    let tail = PhpStr::from_bytes(s.as_bytes()[pos..].to_vec());
                    let stripped = self.strlib().strip_tags(&tail);
                    let mut out = s.as_bytes()[..pos].to_vec();
                    out.extend_from_slice(stripped.as_bytes());
                    return PhpStr::from_bytes(out);
                }
            }
        }
        self.strlib().strip_tags(s)
    }

    /// `sprintf` (software; format interpretation doesn't map to the matrix).
    pub fn sprintf(&mut self, format: &PhpStr, args: &[PhpValue]) -> PhpStr {
        self.strlib().sprintf(format, args)
    }

    /// `implode` (software copy path).
    pub fn implode(&mut self, glue: &[u8], pieces: &[PhpStr]) -> PhpStr {
        self.strlib().implode(glue, pieces)
    }

    /// `explode` (software; separators found via the accelerated find when
    /// specialized).
    pub fn explode(&mut self, sep: &[u8], s: &PhpStr) -> Vec<PhpStr> {
        if !sep.is_empty() && sep.len() < 16 && self.str_accel_ready() {
            let mut parts = Vec::new();
            let mut pos = 0;
            let b = s.as_bytes();
            loop {
                match self.core.straccel.find(b, sep, pos) {
                    Ok((Some(at), _)) => {
                        parts.push(PhpStr::from_bytes(b[pos..at].to_vec()));
                        pos = at + sep.len();
                    }
                    _ => {
                        parts.push(PhpStr::from_bytes(b[pos..].to_vec()));
                        break;
                    }
                }
            }
            self.dispatch(&STRINGOP_FIND);
            return parts;
        }
        self.strlib().explode(sep, s)
    }

    /// `nl2br` (software).
    pub fn nl2br(&mut self, s: &PhpStr) -> PhpStr {
        self.strlib().nl2br(s)
    }

    // -- regular expressions -----------------------------------------------------

    fn charge_regex(&self, leaf: &'static Leaf, uops: u64) {
        self.ctx.profiler().record(leaf, OpCost::mixed(uops));
    }

    /// `preg_match`-style boolean search (no sifting context).
    pub fn preg_match(&mut self, re: &Regex, subject: &PhpStr) -> bool {
        let (m, stats) = re.is_match(subject.as_bytes());
        self.charge_regex(&PCRE_EXEC, stats.uops);
        m
    }

    /// A single-pattern `preg_replace`: sieve-accelerated matching with
    /// *exact* splicing. Whitespace-padded replacements exist only to keep
    /// the hint vector aligned for later shadow passes of a texturize
    /// pipeline; a lone replace has no downstream consumer, so its output
    /// must be byte-identical to the software path.
    pub fn preg_replace(&mut self, re: &Regex, subject: &PhpStr, replacement: &[u8]) -> PhpStr {
        if !self.use_accel(AccelId::Regex) {
            let (out, _n, stats) = re.replace_all(subject.as_bytes(), replacement);
            self.charge_regex(&PCRE_REPLACE, stats.uops);
            return PhpStr::from_bytes(out);
        }
        let bytes = subject.as_bytes();
        let sieve = regexp_sieve(re, bytes, self.cfg.segment_size, &mut self.core.straccel);
        self.charge_regex(&REGEXP_SIEVE, sieve.uops);
        self.core.regex_stats.note_sieve(&sieve, bytes.len());
        let mut cur = bytes.to_vec();
        for m in sieve.matches.iter().rev() {
            cur.splice(m.start..m.end, replacement.iter().copied());
        }
        PhpStr::from_bytes(cur)
    }

    /// Runs a *texturize pipeline*: a series of consecutive regexps over the
    /// same content (Figure 11). In specialized mode the first regexp acts
    /// as the sieve and the rest as shadows; replacements keep the HV
    /// aligned through whitespace padding.
    pub fn texturize(&mut self, content: &PhpStr, rules: &[(Regex, Vec<u8>)]) -> PhpStr {
        if !self.use_accel(AccelId::Regex) {
            let mut cur = content.as_bytes().to_vec();
            for (re, repl) in rules {
                let (out, _n, stats) = re.replace_all(&cur, repl);
                self.charge_regex(&PCRE_REPLACE, stats.uops);
                cur = out;
            }
            return PhpStr::from_bytes(cur);
        }

        let seg = self.cfg.segment_size;
        let mut cur = content.as_bytes().to_vec();
        let mut hv: Option<HintVector> = None;
        for (i, (re, repl)) in rules.iter().enumerate() {
            if i == 0 {
                // Sieve: full scan + HV generation via the string accelerator.
                let sieve = regexp_sieve(re, &cur, seg, &mut self.core.straccel);
                self.charge_regex(&REGEXP_SIEVE, sieve.uops);
                self.core.regex_stats.note_sieve(&sieve, cur.len());
                let mut hv_new = sieve.hv;
                cur = apply_padded_replacements(&cur, &sieve.matches, repl, &mut hv_new);
                if let Some(bit) = self.pending_hv_flip.take() {
                    hv_new.inject_bit_flip(bit);
                    self.core.regex_stats.hv_faults_injected += 1;
                }
                hv = Some(hv_new);
            } else {
                let hv_ref = hv.as_mut().expect("sieve ran first");
                if !hv_ref.parity_ok() {
                    // Parity failure: a flipped dirty→clean bit would let a
                    // shadow skip real matches. Degrade to the conservative
                    // all-dirty vector — the shadow scans everything and
                    // output stays correct.
                    *hv_ref = HintVector::all_dirty(hv_ref.segments(), hv_ref.segment_size());
                    self.core.regex_stats.hv_faults_detected += 1;
                }
                let shadow = regexp_shadow(re, &cur, hv_ref);
                self.charge_regex(&REGEXP_SHADOW, shadow.uops);
                self.core.regex_stats.note_shadow(&shadow, cur.len());
                if matches!(shadow.mode, ShadowMode::Skipping { .. }) {
                    cur = apply_padded_replacements(&cur, &shadow.matches, repl, hv_ref);
                } else {
                    // Full-scan fallback already matched everything.
                    cur = apply_padded_replacements(&cur, &shadow.matches, repl, hv_ref);
                }
            }
        }
        PhpStr::from_bytes(cur)
    }

    /// Anchored match through the content reuse table (`regexlookup`/
    /// `regexset`), e.g. repeated author-URL parsing (Figure 13).
    pub fn match_with_reuse(&mut self, pc: u64, re: &Regex, subject: &PhpStr) -> Option<usize> {
        if self.use_accel(AccelId::Regex) {
            let run = run_with_reuse(re, pc, 1, subject.as_bytes(), &mut self.core.reuse);
            self.dispatch(&REGEXLOOKUP);
            self.charge_regex(
                &PCRE_EXEC,
                regex_engine::SW_UOPS_PER_CALL + run.bytes_scanned * regex_engine::SW_UOPS_PER_BYTE,
            );
            self.core.regex_stats.bytes_total += subject.len() as u64;
            self.core.regex_stats.bytes_scanned += run.bytes_scanned;
            let reuse_stats = *self.core.reuse.stats();
            self.core.regex_stats.note_reuse(&reuse_stats);
            return run.match_end;
        }
        let (m, scanned) = re.match_at(subject.as_bytes(), 0);
        self.charge_regex(
            &PCRE_EXEC,
            regex_engine::SW_UOPS_PER_CALL + scanned * regex_engine::SW_UOPS_PER_BYTE,
        );
        m.map(|m| m.end)
    }
}

/// Applies non-overlapping `matches` (in ascending order) as padded
/// replacements, back to front so earlier offsets stay valid; the HV is
/// updated in place.
fn apply_padded_replacements(
    content: &[u8],
    matches: &[regex_engine::Match],
    replacement: &[u8],
    hv: &mut HintVector,
) -> Vec<u8> {
    let mut cur = content.to_vec();
    for m in matches.iter().rev() {
        let edit = replace_padded(&cur, m.start, m.end, replacement, hv);
        cur = edit.content;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machines() -> (PhpMachine, PhpMachine) {
        (PhpMachine::baseline(), PhpMachine::specialized())
    }

    /// Send-audit for the worker pool: a `PhpMachine` (the whole per-core
    /// state bundle — runtime context plus all four accelerators) must be
    /// movable into a worker thread. It is deliberately *not* `Sync`:
    /// accelerator state mirrors private per-core hardware and is never
    /// shared between workers.
    #[test]
    fn php_machine_is_send_for_worker_ownership() {
        fn assert_send<T: Send>() {}
        assert_send::<PhpMachine>();
        assert_send::<SpecializedCore>();
    }

    #[test]
    fn array_ops_agree_across_modes() {
        let (mut base, mut spec) = machines();
        for m in [&mut base, &mut spec] {
            let mut a = m.new_array();
            m.array_set(&mut a, ArrayKey::from("title"), PhpValue::from("Hello"));
            m.array_set(&mut a, ArrayKey::from("views"), PhpValue::from(42i64));
            m.array_set(&mut a, ArrayKey::Int(7), PhpValue::from(7i64));
            assert!(m
                .array_get(&a, &ArrayKey::from("title"))
                .unwrap()
                .loose_eq(&PhpValue::from("Hello")));
            assert!(m
                .array_get(&a, &ArrayKey::Int(7))
                .unwrap()
                .loose_eq(&PhpValue::from(7i64)));
            assert!(m.array_get(&a, &ArrayKey::from("nope")).is_none());
            let keys: Vec<String> = m.foreach(&a).iter().map(|(k, _)| k.to_string()).collect();
            assert_eq!(keys, ["title", "views", "7"]);
            m.array_remove(&mut a, &ArrayKey::from("views"));
            assert!(m.array_get(&a, &ArrayKey::from("views")).is_none());
            m.array_free(&a);
        }
    }

    #[test]
    fn specialized_hash_gets_cost_less() {
        let (mut base, mut spec) = machines();
        for m in [&mut base, &mut spec] {
            let mut a = m.new_array();
            for i in 0..50 {
                m.array_set(
                    &mut a,
                    ArrayKey::from(format!("key{i}")),
                    PhpValue::from(i as i64),
                );
            }
            for _ in 0..10 {
                for i in 0..50 {
                    m.array_get(&a, &ArrayKey::from(format!("key{i}")));
                }
            }
        }
        let b_hash = base.ctx().profiler().category_breakdown()[&Category::HashMap];
        let s_hash = spec.ctx().profiler().category_breakdown()[&Category::HashMap];
        assert!(
            (s_hash as f64) < b_hash as f64 * 0.35,
            "specialized hash µops {s_hash} vs baseline {b_hash}"
        );
        assert!(spec.core().htable.stats().hit_rate() > 0.8);
    }

    #[test]
    fn specialized_heap_reuse_cost_less() {
        let (mut base, mut spec) = machines();
        for m in [&mut base, &mut spec] {
            for _ in 0..500 {
                let b1 = m.alloc(48);
                let b2 = m.alloc(96);
                m.free(b1);
                m.free(b2);
            }
        }
        let b = base.ctx().profiler().category_breakdown()[&Category::Heap];
        let s = spec.ctx().profiler().category_breakdown()[&Category::Heap];
        assert!((s as f64) < b as f64 * 0.25, "heap µops {s} vs {b}");
        assert!(spec.core().heap.stats().hit_rate() > 0.9);
    }

    #[test]
    fn string_ops_agree_and_accelerate() {
        let (mut base, mut spec) = machines();
        let s = PhpStr::from("  The Quick <b>Brown</b> Fox's Tale  ");
        for m in [&mut base, &mut spec] {
            assert_eq!(m.strpos(&s, b"Quick", 0), Some(6));
            assert_eq!(
                m.strtolower(&s).to_string_lossy(),
                s.to_string_lossy().to_lowercase()
            );
            assert_eq!(
                m.trim(&s).to_string_lossy(),
                "The Quick <b>Brown</b> Fox's Tale"
            );
            let (r, n) = m.str_replace(b"o", b"0", &s);
            assert_eq!(n, 2);
            assert!(r.to_string_lossy().contains("Br0wn"));
            let html = m.htmlspecialchars(&s);
            assert!(html.to_string_lossy().contains("&lt;b&gt;"));
            assert!(html.to_string_lossy().contains("&#039;"));
        }
        let b = base.ctx().profiler().category_breakdown()[&Category::String];
        let s_uops = spec.ctx().profiler().category_breakdown()[&Category::String];
        assert!(s_uops < b, "specialized string µops {s_uops} vs {b}");
        assert!(spec.core().straccel.stats().ops > 0);
    }

    #[test]
    fn clean_html_passthrough_is_cheap() {
        let mut spec = PhpMachine::specialized();
        let clean = PhpStr::from("just regular words with no markup at all");
        let out = spec.htmlspecialchars(&clean);
        assert_eq!(out.to_string_lossy(), clean.to_string_lossy());
    }

    #[test]
    fn texturize_agrees_across_modes() {
        let rules = vec![
            (Regex::new("'").unwrap(), b"&#8217;".to_vec()),
            (Regex::new("\"").unwrap(), b"&#8221;".to_vec()),
            (Regex::new("\\n").unwrap(), b"<br/>".to_vec()),
        ];
        let content = PhpStr::from(
            "It's a \"wonderful\" day\nwith lots of plain text following the punctuation \
             and then some more plain text that the shadows can skip entirely",
        );
        let (mut base, mut spec) = machines();
        let out_b = base.texturize(&content, &rules);
        let out_s = spec.texturize(&content, &rules);
        // Padding may add whitespace; stripping spaces the outputs agree.
        let squash = |s: &PhpStr| {
            s.as_bytes()
                .iter()
                .filter(|&&b| b != b' ')
                .copied()
                .collect::<Vec<u8>>()
        };
        assert_eq!(squash(&out_b), squash(&out_s));
        assert!(out_s.to_string_lossy().contains("&#8217;"));
        assert!(spec.core().regex_stats.bytes_skipped_sift > 0);
    }

    /// Regression: a lone `preg_replace` must splice exactly — the padded
    /// replacement trick is only valid inside a texturize pipeline, and it
    /// used to leak trailing spaces into specialized-mode output whenever
    /// the replacement was shorter than the match.
    #[test]
    fn preg_replace_is_byte_exact_across_modes() {
        let (mut base, mut spec) = machines();
        let cases = [
            ("!!+", "!", "first comment!!!"),
            ("o+", "0", "foo boo oooo"),
            ("ab", "xyz", "drab slab"), // growing replacement
            ("z+", "-", "no match here"),
        ];
        for (pat, repl, subject) in cases {
            let re = Regex::new(pat).unwrap();
            let s = PhpStr::from(subject);
            let out_b = base.preg_replace(&re, &s, repl.as_bytes());
            let out_s = spec.preg_replace(&re, &s, repl.as_bytes());
            assert_eq!(
                out_b.as_bytes(),
                out_s.as_bytes(),
                "{pat} on {subject:?} diverged"
            );
            let (sw, _, _) = re.replace_all(s.as_bytes(), repl.as_bytes());
            assert_eq!(out_s.as_bytes(), &sw[..], "not byte-exact vs software");
        }
    }

    #[test]
    fn reuse_path_agrees_and_skips() {
        let re = Regex::new("https://localhost/\\?author=[a-z]+").unwrap();
        let (mut base, mut spec) = machines();
        for name in ["ann", "bob", "cat", "dan"] {
            let url = PhpStr::from(format!("https://localhost/?author={name}"));
            let b = base.match_with_reuse(0x400, &re, &url);
            let s = spec.match_with_reuse(0x400, &re, &url);
            assert_eq!(b, s);
            assert_eq!(b, Some(url.len()));
        }
        assert!(spec.core().reuse.stats().hits >= 1);
        assert!(spec.core().reuse.stats().bytes_skipped > 0);
    }

    #[test]
    fn context_switch_flushes_heap() {
        let mut spec = PhpMachine::specialized();
        let b = spec.alloc(32);
        spec.free(b); // hardware free list now holds a block
        spec.context_switch();
        assert_eq!(spec.core().heap.stats().flushes, 1);
        assert!(spec.core().heap.occupancy().iter().all(|&n| n == 0));
    }

    #[test]
    fn end_request_releases_scoped_blocks() {
        let mut spec = PhpMachine::specialized();
        spec.alloc_scoped(64);
        let _arr = spec.new_array();
        spec.end_request();
        let live = spec.ctx().with_allocator(|a| a.live_block_count());
        assert_eq!(live, 0);
    }

    #[test]
    fn arena_mode_end_request_releases_all_blocks() {
        let mut spec = PhpMachine::specialized();
        spec.ctx().set_arena_enabled(true);
        spec.alloc_scoped_static(64, true); // arena
        spec.alloc_scoped_static(64, false); // hardware/scoped path
        let _arr = spec.new_array_static(true);
        let _ = spec.transient_str_static(PhpStr::from("churned html tag"), true);
        assert!(spec.ctx().with_allocator(|a| a.arena_block_count()) >= 2);
        spec.end_request();
        assert_eq!(spec.ctx().with_allocator(|a| a.live_block_count()), 0);
        let savings = spec.ctx().profiler().static_savings();
        assert!(savings.arena_bytes_reclaimed >= 64 * 2);
    }

    #[test]
    fn arena_mode_recover_request_restores_software_truth() {
        // The recovery invariant must hold with arena mode on: scoped and
        // arena blocks all reclaimed, hardware free lists drained.
        let mut spec = PhpMachine::specialized();
        spec.ctx().set_arena_enabled(true);
        let mut a = spec.new_array_static(true);
        for i in 0..10 {
            spec.array_set(&mut a, ArrayKey::from(format!("k{i}")), PhpValue::from(i));
        }
        let b = spec.alloc(64);
        spec.free(b); // hardware free list holds a segment
        spec.recover_request();
        assert_eq!(spec.ctx().with_allocator(|al| al.live_block_count()), 0);
        assert_eq!(spec.ctx().with_allocator(|al| al.arena_block_count()), 0);
        assert!(spec.core().heap.occupancy().iter().all(|&n| n == 0));
    }

    #[test]
    fn arena_verdicts_are_inert_when_arena_disabled() {
        // Call sites pass verdicts unconditionally; with arena mode off the
        // *_static entry points must behave exactly like their plain twins.
        let mut spec = PhpMachine::specialized();
        spec.alloc_scoped_static(64, true);
        let _ = spec.transient_str_static(PhpStr::from("x"), true);
        let _arr = spec.new_array_static(true);
        assert_eq!(spec.ctx().with_allocator(|a| a.arena_block_count()), 0);
        spec.end_request();
        assert_eq!(spec.ctx().with_allocator(|a| a.live_block_count()), 0);
        assert_eq!(
            spec.ctx().profiler().static_savings().arena_bytes_reclaimed,
            0
        );
    }

    #[test]
    fn disabled_domains_degrade_to_software_with_identical_results() {
        let mut base = PhpMachine::baseline();
        let mut spec = PhpMachine::specialized();
        for id in AccelId::ALL {
            spec.set_accel_enabled(id, false);
            assert!(!spec.accel_enabled(id));
        }
        let s = PhpStr::from("  Mixed <b>Case</b> Content  ");
        for m in [&mut base, &mut spec] {
            let mut a = m.new_array();
            m.array_set(&mut a, ArrayKey::from("k"), PhpValue::from(1i64));
            assert!(m.array_get(&a, &ArrayKey::from("k")).is_some());
            assert_eq!(
                m.strtolower(&s).as_bytes(),
                s.to_string_lossy().to_lowercase().as_bytes()
            );
            let b = m.alloc(48);
            m.free(b);
        }
        // No hardware traffic on the disabled machine.
        assert_eq!(spec.core().htable.stats().gets, 0);
        assert_eq!(spec.core().heap.stats().mallocs, 0);
        assert_eq!(spec.core().straccel.stats().ops, 0);
    }

    #[test]
    fn string_config_fault_falls_back_once_then_self_heals() {
        let mut spec = PhpMachine::specialized();
        let s = PhpStr::from("AbC");
        spec.core_mut().straccel.inject_config_fault();
        let out = spec.strtolower(&s);
        assert_eq!(out.as_bytes(), b"abc", "software fallback is correct");
        assert_eq!(spec.detected_fault_counts()[AccelId::Str.index()], 1);
        // Next op runs accelerated again.
        let before = spec.core().straccel.stats().ops;
        spec.strtolower(&s);
        assert!(spec.core().straccel.stats().ops > before);
    }

    #[test]
    fn hv_flip_detected_and_texturize_output_unchanged() {
        let rules = vec![
            (Regex::new("'").unwrap(), b"&#8217;".to_vec()),
            (Regex::new("\"").unwrap(), b"&#8221;".to_vec()),
        ];
        let content = PhpStr::from(
            "It's a \"plain\" day with much clean trailing text that shadows would skip \
             and even more filler text to make several clean segments here",
        );
        let mut clean = PhpMachine::specialized();
        let expect = clean.texturize(&content, &rules);
        let mut faulty = PhpMachine::specialized();
        faulty.arm_hv_flip(3);
        let got = faulty.texturize(&content, &rules);
        assert_eq!(expect.as_bytes(), got.as_bytes());
        assert_eq!(faulty.injected_fault_counts()[AccelId::Regex.index()], 1);
        assert_eq!(faulty.detected_fault_counts()[AccelId::Regex.index()], 1);
    }

    #[test]
    fn recover_request_restores_software_truth() {
        let mut spec = PhpMachine::specialized();
        let mut a = spec.new_array();
        for i in 0..20 {
            spec.array_set(
                &mut a,
                ArrayKey::from(format!("k{i}")),
                PhpValue::from(i as i64),
            );
        }
        let b = spec.alloc(64);
        spec.free(b); // hardware free list holds a segment
        spec.core_mut().htable.inject_entry_fault(0);
        spec.recover_request();
        // All scoped blocks freed, hardware lists drained, table empty.
        assert_eq!(spec.ctx().with_allocator(|al| al.live_block_count()), 0);
        assert!(spec.core().heap.occupancy().iter().all(|&n| n == 0));
        let out = spec.core_mut().htable.foreach(u64::MAX); // arbitrary base: nothing live
        assert!(out.live_pairs.is_empty());
        // A fresh request works normally afterwards.
        let mut a2 = spec.new_array();
        spec.array_set(&mut a2, ArrayKey::from("x"), PhpValue::from(9i64));
        assert!(spec.array_get(&a2, &ArrayKey::from("x")).is_some());
    }

    #[test]
    fn extract_imports_into_symtab() {
        let mut spec = PhpMachine::specialized();
        let mut src = spec.new_array();
        spec.array_set(&mut src, ArrayKey::from("a"), PhpValue::from(1i64));
        spec.array_set(&mut src, ArrayKey::Int(0), PhpValue::from(2i64));
        spec.array_set(&mut src, ArrayKey::from("b"), PhpValue::from(3i64));
        let mut symtab = spec.new_array();
        let n = spec.extract(&mut symtab, &src);
        assert_eq!(n, 2);
        assert_eq!(symtab.len(), 2);
    }
}
