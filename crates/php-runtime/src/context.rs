//! `RuntimeContext` — the VM facade wiring allocator, profiler, refcount
//! meter, and string library together.
//!
//! Every *metered* runtime operation flows through this type so its cost is
//! attributed to the right leaf function and category. Workloads and the
//! interpreter hold a single context per simulated request stream.

use crate::alloc::{Block, SlabAllocator, ARENA_CLASS};
use crate::array::{ArrayKey, PhpArray, WalkCost};
use crate::profile::{Category, Leaf, OpCost, Profiler};
use crate::refcount::RefcountMeter;
use crate::strfuncs::StrLib;
use crate::string::PhpStr;
use crate::value::PhpValue;
use std::cell::{Cell, RefCell};

/// One dynamic type check.
pub static ZVAL_TYPE_CHECK: Leaf = Leaf::new("zval_type_check", Category::TypeCheck);
/// Whole-map deallocation.
pub static ZEND_HASH_DESTROY: Leaf = Leaf::new("zend_hash_destroy", Category::HashMap);
/// Software hash SET walk.
pub static ZEND_HASH_UPDATE: Leaf = Leaf::new("zend_hash_update", Category::HashMap);
static ZEND_HASH_FIND: Leaf = Leaf::new("zend_hash_find", Category::HashMap);
static ZEND_HASH_DEL: Leaf = Leaf::new("zend_hash_del", Category::HashMap);
static ZEND_HASH_FOREACH: Leaf = Leaf::new("zend_hash_foreach", Category::HashMap);
static JIT_COMPILED_CODE: Leaf = Leaf::new("jit_compiled_code", Category::JitCode);

/// Kind of hash-map request, used by accelerator integration and statistics
/// (§4.2 distinguishes GET and SET mixes: "relatively higher percentage of
/// SET requests (ranging from 15-25%)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashOp {
    /// Read of a key.
    Get,
    /// Write of a key.
    Set,
    /// Key removal.
    Unset,
    /// Whole-map deallocation.
    Free,
    /// Ordered iteration.
    Foreach,
}

/// A recorded hash-map access, consumed by the hardware hash table model.
#[derive(Debug, Clone, PartialEq)]
pub struct HashEvent {
    /// Request kind.
    pub op: HashOp,
    /// Base address of the map.
    pub base_addr: u64,
    /// Key (cloned; int keys rendered canonically).
    pub key: Option<ArrayKey>,
    /// Software walk cost that was charged.
    pub sw_uops: u64,
}

/// Static-analysis facts applying to one hash-map access: which parts of its
/// dynamic bookkeeping were proven unnecessary ahead of time. The default is
/// "no facts" — full dynamic metering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStatic {
    /// Refcount traffic for the moved value is provably elidable.
    pub elide_rc: bool,
    /// The fetched value's type is statically proven (skip the type check).
    pub skip_type_check: bool,
}

/// The runtime context.
#[derive(Debug)]
pub struct RuntimeContext {
    profiler: Profiler,
    allocator: RefCell<SlabAllocator>,
    refcount: RefcountMeter,
    scoped_blocks: RefCell<Vec<Block>>,
    hash_events: RefCell<Vec<HashEvent>>,
    record_hash_events: Cell<bool>,
    get_count: Cell<u64>,
    set_count: Cell<u64>,
    fuel: Cell<Option<u64>>,
    uop_deadline: Cell<Option<u64>>,
}

impl Default for RuntimeContext {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeContext {
    /// Creates a fresh context.
    pub fn new() -> Self {
        RuntimeContext {
            profiler: Profiler::new(),
            allocator: RefCell::new(SlabAllocator::new()),
            refcount: RefcountMeter::new(),
            scoped_blocks: RefCell::new(Vec::new()),
            hash_events: RefCell::new(Vec::new()),
            record_hash_events: Cell::new(false),
            get_count: Cell::new(0),
            set_count: Cell::new(0),
            fuel: Cell::new(None),
            uop_deadline: Cell::new(None),
        }
    }

    // -- execution budget ----------------------------------------------------

    /// Arms (or with `None`, disarms) the step-count fuel budget. Each
    /// interpreter step consumes one unit via
    /// [`RuntimeContext::consume_fuel`]; exhaustion makes that call report
    /// `false` so callers can abort the request cleanly.
    pub fn set_fuel(&self, fuel: Option<u64>) {
        self.fuel.set(fuel);
    }

    /// Remaining fuel, or `None` when unmetered.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.fuel.get()
    }

    /// Arms (or disarms) the wall-clock-equivalent deadline, expressed as a
    /// ceiling on the profiler's cumulative µop count.
    pub fn set_uop_deadline(&self, deadline: Option<u64>) {
        self.uop_deadline.set(deadline);
    }

    /// The armed µop deadline, if any.
    pub fn uop_deadline(&self) -> Option<u64> {
        self.uop_deadline.get()
    }

    /// Consumes `n` units of fuel. Returns `false` once the fuel budget is
    /// exhausted or the µop deadline has passed — the caller must then stop
    /// executing. With no budget armed this always returns `true`.
    pub fn consume_fuel(&self, n: u64) -> bool {
        if let Some(f) = self.fuel.get() {
            if f < n {
                self.fuel.set(Some(0));
                return false;
            }
            self.fuel.set(Some(f - n));
        }
        if let Some(deadline) = self.uop_deadline.get() {
            if self.profiler.total_uops() >= deadline {
                return false;
            }
        }
        true
    }

    /// The profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The refcount meter.
    pub fn refcount(&self) -> &RefcountMeter {
        &self.refcount
    }

    /// Runs `f` with the slab allocator borrowed mutably.
    pub fn with_allocator<R>(&self, f: impl FnOnce(&mut SlabAllocator) -> R) -> R {
        f(&mut self.allocator.borrow_mut())
    }

    /// A string-library handle bound to this context's profiler.
    pub fn strlib(&self) -> StrLib<'_> {
        StrLib::new(&self.profiler)
    }

    // -- heap ---------------------------------------------------------------

    /// Allocates `size` bytes through the software slab allocator.
    pub fn malloc(&self, size: usize) -> Block {
        self.allocator.borrow_mut().malloc(size, &self.profiler)
    }

    /// Turns the allocator's request-arena mode on or off for this context.
    pub fn set_arena_enabled(&self, enabled: bool) {
        self.allocator.borrow_mut().set_arena_enabled(enabled);
    }

    /// Whether arena mode is on.
    pub fn arena_enabled(&self) -> bool {
        self.allocator.borrow().arena_enabled()
    }

    /// Allocates `size` bytes from the request arena when arena mode is on
    /// (falling back to the free-list path otherwise). Callers must only use
    /// this for allocations the region analysis proved arena-safe.
    pub fn arena_malloc(&self, size: usize) -> Block {
        self.allocator
            .borrow_mut()
            .arena_malloc(size, &self.profiler)
    }

    /// Frees a block.
    pub fn free(&self, block: Block) {
        self.allocator.borrow_mut().free(block, &self.profiler);
    }

    /// Allocates a block that lives until [`RuntimeContext::end_request`]
    /// (request-arena lifetime, like PHP's per-request memory).
    pub fn alloc_scoped(&self, size: usize) -> Block {
        let b = self.malloc(size);
        self.scoped_blocks.borrow_mut().push(b);
        b
    }

    /// [`RuntimeContext::alloc_scoped`] with a region-analysis verdict:
    /// arena-safe sites bump-allocate into the request arena and skip the
    /// scoped free list entirely — the epoch reset in
    /// [`RuntimeContext::end_request`] reclaims them in O(1).
    pub fn alloc_scoped_static(&self, size: usize, arena_safe: bool) -> Block {
        if arena_safe {
            let b = self.arena_malloc(size);
            if b.class == ARENA_CLASS {
                return b;
            }
            // Arena off (or huge request): fell through to the free-list
            // path, so the block must be torn down per-block as usual.
            self.scoped_blocks.borrow_mut().push(b);
            return b;
        }
        self.alloc_scoped(size)
    }

    /// Frees all request-scoped blocks (end of a simulated request), then
    /// resets the arena epoch: every arena block still live is reclaimed in
    /// one constant-cost operation, and the saved teardown work is booked
    /// into the static-savings counters. The list's buffer is put back empty
    /// for the next request; a panic mid-drain loses the list, so no block is
    /// ever freed twice.
    pub fn end_request(&self) {
        let mut blocks = std::mem::take(&mut *self.scoped_blocks.borrow_mut());
        let mut alloc = self.allocator.borrow_mut();
        for b in blocks.drain(..) {
            alloc.free(b, &self.profiler);
        }
        *self.scoped_blocks.borrow_mut() = blocks;
        let report = alloc.reset_arena_epoch(&self.profiler);
        if report.blocks_reclaimed > 0 {
            self.profiler
                .note_arena_reset(report.bytes_reclaimed, report.uops_saved);
        }
    }

    /// Creates a string *value*, charging its transient heap allocation and
    /// immediate release — the paper's "once a HTML tag is produced [...]
    /// the memory associated with these strings are recycled" churn pattern.
    pub fn make_transient_str(&self, s: impl Into<PhpStr>) -> PhpValue {
        let s: PhpStr = s.into();
        let b = self.malloc(s.heap_size());
        self.free(b);
        PhpValue::str(s)
    }

    /// [`RuntimeContext::make_transient_str`] with a region-analysis
    /// verdict: an arena-safe transient string churns through the bump
    /// arena (cheap alloc, logical free) instead of the free lists.
    pub fn make_transient_str_static(&self, s: impl Into<PhpStr>, arena_safe: bool) -> PhpValue {
        if !arena_safe {
            return self.make_transient_str(s);
        }
        let s: PhpStr = s.into();
        let b = self.arena_malloc(s.heap_size());
        self.free(b);
        PhpValue::str(s)
    }

    /// Creates a new array with a simulated base address (request-scoped).
    pub fn new_array(&self) -> PhpArray {
        self.new_array_static(false)
    }

    /// [`RuntimeContext::new_array`] with a region-analysis verdict for the
    /// descriptor allocation.
    pub fn new_array_static(&self, arena_safe: bool) -> PhpArray {
        let mut a = PhpArray::new();
        let b = self.alloc_scoped_static(64, arena_safe); // descriptor allocation
        a.set_base_addr(b.addr);
        a
    }

    // -- type checks & refcounting -------------------------------------------

    /// Charges one dynamic type check (the overhead checked-load \[22\]
    /// removes).
    pub fn type_check(&self, _v: &PhpValue) {
        self.type_check_n(1);
    }

    /// Charges `n` dynamic type checks; the ledger counts `n` calls of
    /// [`RuntimeContext::type_check`].
    pub fn type_check_n(&self, n: u64) {
        self.profiler
            .record_n(&ZVAL_TYPE_CHECK, PhpValue::type_check_cost(), n);
    }

    /// Charges refcount traffic for copying a value (inc) if refcounted.
    pub fn refcount_on_copy(&self, v: &PhpValue) {
        if v.is_refcounted() {
            self.refcount.inc(&self.profiler);
        }
    }

    /// Charges refcount traffic for destroying a value (dec) if refcounted.
    pub fn refcount_on_drop(&self, v: &PhpValue) {
        if v.is_refcounted() {
            self.refcount.dec(&self.profiler);
        }
    }

    /// Like [`RuntimeContext::refcount_on_copy`], but when `elide` is set the
    /// increment was statically proven removable (non-escaping temporary):
    /// nothing is charged and the avoided op is counted instead.
    pub fn refcount_on_copy_elidable(&self, v: &PhpValue, elide: bool) {
        if !v.is_refcounted() {
            return;
        }
        if elide {
            self.profiler.note_rc_inc_avoided();
        } else {
            self.refcount.inc(&self.profiler);
        }
    }

    /// Like [`RuntimeContext::refcount_on_drop`], with static elision.
    pub fn refcount_on_drop_elidable(&self, v: &PhpValue, elide: bool) {
        if !v.is_refcounted() {
            return;
        }
        if elide {
            self.profiler.note_rc_dec_avoided();
        } else {
            self.refcount.dec(&self.profiler);
        }
    }

    /// Charges a dynamic type check unless static analysis proved the value's
    /// type (`skip`), in which case the avoided check is counted.
    pub fn type_check_elidable(&self, v: &PhpValue, skip: bool) {
        if skip {
            self.profiler.note_type_check_avoided();
        } else {
            self.type_check(v);
        }
    }

    // -- metered hash-map operations -----------------------------------------

    /// Enables recording of hash events for accelerator replay.
    pub fn set_record_hash_events(&self, on: bool) {
        self.record_hash_events.set(on);
    }

    /// Drains the recorded hash events.
    pub fn take_hash_events(&self) -> Vec<HashEvent> {
        std::mem::take(&mut *self.hash_events.borrow_mut())
    }

    fn log_hash(&self, op: HashOp, base: u64, key: Option<&ArrayKey>, wc: Option<&WalkCost>) {
        match op {
            HashOp::Get => self.get_count.set(self.get_count.get() + 1),
            HashOp::Set => self.set_count.set(self.set_count.get() + 1),
            _ => {}
        }
        if self.record_hash_events.get() {
            self.hash_events.borrow_mut().push(HashEvent {
                op,
                base_addr: base,
                key: key.cloned(),
                sw_uops: wc.map(|w| w.cost.uops).unwrap_or(0),
            });
        }
    }

    /// GET/SET counts so far — `(gets, sets)`; the paper reports SET shares
    /// of 15–25 % for these applications.
    pub fn hash_op_counts(&self) -> (u64, u64) {
        (self.get_count.get(), self.set_count.get())
    }

    /// Metered hash GET: charges the software walk (≈ 90.66 µops average),
    /// a type check on the fetched value, and refcount traffic for the copy.
    pub fn array_get(&self, arr: &PhpArray, key: &ArrayKey) -> Option<PhpValue> {
        self.array_get_static(arr, key, AccessStatic::default())
    }

    /// [`RuntimeContext::array_get`] with static-analysis facts: the walk is
    /// still charged, but proven-unnecessary type checks and refcount
    /// increments are skipped (and counted as avoided).
    pub fn array_get_static(
        &self,
        arr: &PhpArray,
        key: &ArrayKey,
        facts: AccessStatic,
    ) -> Option<PhpValue> {
        let (found, wc) = arr.get_with_cost(key);
        self.profiler.record(&ZEND_HASH_FIND, wc.cost);
        self.log_hash(HashOp::Get, arr.base_addr(), Some(key), Some(&wc));
        let out = found.cloned();
        if let Some(v) = &out {
            self.type_check_elidable(v, facts.skip_type_check);
            self.refcount_on_copy_elidable(v, facts.elide_rc);
        }
        out
    }

    /// Metered hash SET.
    pub fn array_set(&self, arr: &mut PhpArray, key: ArrayKey, value: PhpValue) {
        self.array_set_static(arr, key, value, AccessStatic::default());
    }

    /// [`RuntimeContext::array_set`] with static-analysis facts: proven
    /// refcount traffic (inc of the stored value, dec of the overwritten one)
    /// is skipped and counted as avoided.
    pub fn array_set_static(
        &self,
        arr: &mut PhpArray,
        key: ArrayKey,
        value: PhpValue,
        facts: AccessStatic,
    ) {
        self.refcount_on_copy_elidable(&value, facts.elide_rc);
        let logged_key = key.clone();
        let (old, wc) = arr.insert_with_cost(key, value);
        self.profiler.record(&ZEND_HASH_UPDATE, wc.cost);
        self.log_hash(HashOp::Set, arr.base_addr(), Some(&logged_key), Some(&wc));
        if let Some(old) = old {
            self.refcount_on_drop_elidable(&old, facts.elide_rc);
        }
    }

    /// Metered hash unset.
    pub fn array_remove(&self, arr: &mut PhpArray, key: &ArrayKey) -> Option<PhpValue> {
        let (old, wc) = arr.remove_with_cost(key);
        self.profiler.record(&ZEND_HASH_DEL, wc.cost);
        self.log_hash(HashOp::Unset, arr.base_addr(), Some(key), Some(&wc));
        if let Some(v) = &old {
            self.refcount_on_drop(v);
        }
        old
    }

    /// Metered whole-map free (hash maps are freed when their request scope
    /// or function scope ends).
    pub fn array_free(&self, arr: &PhpArray) {
        self.profiler
            .record(&ZEND_HASH_DESTROY, OpCost::mixed(16 + 6 * arr.len() as u64));
        self.log_hash(HashOp::Free, arr.base_addr(), None, None);
    }

    /// Charges a metered ordered iteration (`foreach`).
    pub fn charge_foreach(&self, arr: &PhpArray) {
        self.profiler.record(&ZEND_HASH_FOREACH, arr.foreach_cost());
        self.log_hash(HashOp::Foreach, arr.base_addr(), None, None);
    }

    /// Charges interpreter/JIT "compiled code" work not belonging to any
    /// library category.
    pub fn charge_jit(&self, uops: u64) {
        self.profiler
            .record(&JIT_COMPILED_CODE, OpCost::mixed(uops));
    }

    /// Charges miscellaneous VM work to `leaf`, which the caller declared
    /// (or interned) in [`Category::Other`].
    pub fn charge_other(&self, leaf: &'static Leaf, uops: u64) {
        debug_assert_eq!(leaf.category(), Category::Other);
        self.profiler.record(leaf, OpCost::mixed(uops));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_ops_charge_hash_category() {
        let ctx = RuntimeContext::new();
        let mut a = ctx.new_array();
        ctx.array_set(&mut a, ArrayKey::from("k"), PhpValue::from("v"));
        let v = ctx.array_get(&a, &ArrayKey::from("k")).unwrap();
        assert!(v.loose_eq(&PhpValue::from("v")));
        let breakdown = ctx.profiler().category_breakdown();
        assert!(breakdown[&Category::HashMap] > 0);
        assert!(breakdown[&Category::RefCount] > 0);
        assert!(breakdown[&Category::TypeCheck] > 0);
        let (gets, sets) = ctx.hash_op_counts();
        assert_eq!((gets, sets), (1, 1));
    }

    #[test]
    fn hash_events_recorded_when_enabled() {
        let ctx = RuntimeContext::new();
        ctx.set_record_hash_events(true);
        let mut a = ctx.new_array();
        ctx.array_set(&mut a, ArrayKey::from("x"), PhpValue::from(1i64));
        ctx.array_get(&a, &ArrayKey::from("x"));
        ctx.array_free(&a);
        let ev = ctx.take_hash_events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].op, HashOp::Set);
        assert_eq!(ev[1].op, HashOp::Get);
        assert_eq!(ev[2].op, HashOp::Free);
        assert_eq!(ev[0].base_addr, a.base_addr());
        assert!(ev[1].sw_uops > 0);
        assert!(ctx.take_hash_events().is_empty(), "drained");
    }

    #[test]
    fn request_scope_frees_blocks() {
        let ctx = RuntimeContext::new();
        ctx.alloc_scoped(32);
        ctx.alloc_scoped(64);
        let live = ctx.with_allocator(|a| a.live_block_count());
        assert_eq!(live, 2);
        ctx.end_request();
        let live = ctx.with_allocator(|a| a.live_block_count());
        assert_eq!(live, 0);
    }

    #[test]
    fn arena_scoped_blocks_reclaimed_at_end_request() {
        let ctx = RuntimeContext::new();
        ctx.set_arena_enabled(true);
        ctx.alloc_scoped_static(32, true); // arena
        ctx.alloc_scoped_static(64, false); // free list
        assert_eq!(ctx.with_allocator(|a| a.live_block_count()), 2);
        assert_eq!(ctx.with_allocator(|a| a.arena_block_count()), 1);
        ctx.end_request();
        assert_eq!(ctx.with_allocator(|a| a.live_block_count()), 0);
        let s = ctx.profiler().static_savings();
        assert_eq!(s.arena_bytes_reclaimed, 32);
    }

    #[test]
    fn arena_safe_verdict_is_inert_with_arena_off() {
        // Verdicts flow unconditionally from call sites; with arena mode
        // off they must change nothing versus the plain scoped path.
        let ctx = RuntimeContext::new();
        ctx.alloc_scoped_static(32, true);
        let _ = ctx.make_transient_str_static("abcdef", true);
        assert_eq!(ctx.with_allocator(|a| a.arena_block_count()), 0);
        ctx.end_request();
        assert_eq!(ctx.with_allocator(|a| a.live_block_count()), 0);
        assert_eq!(ctx.profiler().static_savings().arena_bytes_reclaimed, 0);
    }

    #[test]
    fn transient_str_charges_malloc_and_free() {
        let ctx = RuntimeContext::new();
        let v = ctx.make_transient_str("hello world");
        assert!(v.loose_eq(&PhpValue::from("hello world")));
        let stats = ctx.with_allocator(|a| a.stats().clone());
        assert_eq!(stats.mallocs, 1);
        assert_eq!(stats.frees, 1);
    }

    #[test]
    fn new_array_has_base_addr() {
        let ctx = RuntimeContext::new();
        let a = ctx.new_array();
        let b = ctx.new_array();
        assert_ne!(a.base_addr(), 0);
        assert_ne!(a.base_addr(), b.base_addr());
    }

    #[test]
    fn fuel_budget_exhausts() {
        let ctx = RuntimeContext::new();
        assert!(ctx.consume_fuel(1_000_000), "unmetered by default");
        ctx.set_fuel(Some(3));
        assert!(ctx.consume_fuel(2));
        assert_eq!(ctx.fuel_remaining(), Some(1));
        assert!(!ctx.consume_fuel(2), "over budget");
        assert_eq!(ctx.fuel_remaining(), Some(0));
        assert!(!ctx.consume_fuel(1), "stays exhausted");
        ctx.set_fuel(None);
        assert!(ctx.consume_fuel(1), "disarmed");
    }

    #[test]
    fn uop_deadline_trips_after_charges() {
        let ctx = RuntimeContext::new();
        ctx.set_uop_deadline(Some(10));
        assert!(ctx.consume_fuel(1));
        ctx.charge_jit(50);
        assert!(!ctx.consume_fuel(1), "deadline passed");
        ctx.set_uop_deadline(None);
        assert!(ctx.consume_fuel(1), "disarmed");
    }
}
