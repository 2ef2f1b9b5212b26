//! Leaf-function profiler.
//!
//! The paper's analysis rests on `perf`-style leaf-function profiles of the
//! PHP applications (Figures 1, 3, 4, 5). Our substitution is an in-runtime
//! profiler: every runtime library operation attributes its simulated cost
//! (micro-ops, branches, loads, stores) to a named leaf function tagged with
//! one of the paper's activity categories.
//!
//! Costs are *simulated micro-ops*, not wall-clock time; the
//! `uarch-sim` crate converts them to cycles through a core model.
//!
//! The ledger is dense: a leaf function is a `'static` [`Leaf`] descriptor
//! that a process-wide registry numbers on first use, and a [`Profiler`] is
//! a vector indexed by that number. Recording an event is an index and a few
//! adds, so the simulated clock costs the host almost nothing to keep.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard};

/// Activity category of a leaf function.
///
/// The first four are the paper's acceleration targets (§3, Figure 4); the
/// rest cover abstraction overheads with known prior solutions and the
/// remainder of the execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Hash map access (GET/SET/free/foreach walks).
    HashMap,
    /// Heap management (malloc/free slab paths).
    Heap,
    /// String manipulation (copy/match/modify library functions).
    String,
    /// Regular expression processing.
    Regex,
    /// Dynamic type checks (addressed by checked-load \[22\]).
    TypeCheck,
    /// Reference counting (addressed by hardware refcounting \[46\]).
    RefCount,
    /// JIT-compiled application code (the interpreter's own work here).
    JitCode,
    /// Everything else (VM plumbing, request handling, ...).
    Other,
}

impl Category {
    /// All categories in presentation order.
    pub const ALL: [Category; 8] = [
        Category::HashMap,
        Category::Heap,
        Category::String,
        Category::Regex,
        Category::TypeCheck,
        Category::RefCount,
        Category::JitCode,
        Category::Other,
    ];

    /// Short label used by the figure harnesses.
    pub fn label(self) -> &'static str {
        match self {
            Category::HashMap => "hash-map",
            Category::Heap => "heap",
            Category::String => "string",
            Category::Regex => "regex",
            Category::TypeCheck => "type-check",
            Category::RefCount => "refcount",
            Category::JitCode => "jit-code",
            Category::Other => "other",
        }
    }

    /// Is this one of the four acceleration targets of §4?
    pub fn is_accel_target(self) -> bool {
        matches!(
            self,
            Category::HashMap | Category::Heap | Category::String | Category::Regex
        )
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost of one invocation of a leaf function, in simulated micro-ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Total micro-ops.
    pub uops: u64,
    /// Conditional/indirect branches among them.
    pub branches: u64,
    /// Data loads among them.
    pub loads: u64,
    /// Data stores among them.
    pub stores: u64,
}

impl OpCost {
    /// A pure-ALU cost.
    pub fn alu(uops: u64) -> Self {
        OpCost {
            uops,
            ..Default::default()
        }
    }

    /// A mixed cost with typical library-routine proportions:
    /// ~22% branches (paper §2), ~30% loads, ~12% stores.
    pub fn mixed(uops: u64) -> Self {
        OpCost {
            uops,
            branches: uops * 22 / 100,
            loads: uops * 30 / 100,
            stores: uops * 12 / 100,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: OpCost) -> OpCost {
        OpCost {
            uops: self.uops + other.uops,
            branches: self.branches + other.branches,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
        }
    }

    /// Scale every component by an integer factor.
    pub fn scaled(self, k: u64) -> OpCost {
        OpCost {
            uops: self.uops * k,
            branches: self.branches * k,
            loads: self.loads * k,
            stores: self.stores * k,
        }
    }
}

/// Accumulated statistics for one leaf function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Category tag.
    pub category: Option<Category>,
    /// Invocation count.
    pub calls: u64,
    /// Total cost across calls.
    pub cost: OpCost,
}

/// A snapshot row of the profile, sorted hottest-first by [`Profiler::leaf_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Leaf function name.
    pub name: String,
    /// Category.
    pub category: Category,
    /// Invocations.
    pub calls: u64,
    /// Total micro-ops.
    pub uops: u64,
    /// Fraction of total profile micro-ops, in \[0, 1\].
    pub share: f64,
}

/// Work proven unnecessary by static analysis (the `php-analysis` crate) and
/// skipped at run time. These are *avoided* costs: nothing is charged to the
/// profile for them; the counters exist so experiments can report how much
/// dynamic-type-check and refcount traffic specialization removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticSavings {
    /// Dynamic type checks skipped because operand types were proven.
    pub type_checks_avoided: u64,
    /// Refcount increments skipped on proven-non-escaping temporaries.
    pub rc_incs_avoided: u64,
    /// Refcount decrements skipped on proven-non-escaping temporaries.
    pub rc_decs_avoided: u64,
    /// User-call boundaries crossed with an interprocedural summary in hand
    /// (facts survived instead of dropping to ⊤).
    pub summaries_applied: u64,
    /// `preg_*` compiles skipped because the analysis compiled the constant
    /// pattern ahead of time.
    pub regex_compiles_avoided: u64,
    /// Hardware heap size classes whose free lists were pre-seeded from
    /// statically known allocation sizes.
    pub heap_classes_preseeded: u64,
    /// Tainted-sink lints the attached analysis raised for the program.
    pub taint_lints_flagged: u64,
    /// Allocation sites the region analysis proved arena-safe (die at
    /// request end; served by the bump arena instead of free lists).
    pub arena_safe_sites: u64,
    /// Bytes reclaimed wholesale by O(1) arena epoch resets instead of
    /// per-block free-list teardown.
    pub arena_bytes_reclaimed: u64,
    /// µops the per-block end-of-request teardown would have cost, saved by
    /// arena epoch resets.
    pub teardown_uops_saved: u64,
    /// Opcodes executed by the compiled-bytecode VM (zero under the
    /// tree-walking engine).
    pub vm_ops_executed: u64,
    /// Fused superinstructions among the executed opcodes.
    pub vm_fused_ops: u64,
    /// Transient string allocations elided by fused opcodes (concat
    /// intermediates, echo-of-string materializations).
    pub vm_transients_elided: u64,
    /// Cross-request memo-cache hits: a memoizable call site answered from
    /// the shared tier instead of re-executing the callee.
    pub memo_hits: u64,
    /// Memoizable sites that executed because no entry (or a stale entry)
    /// was cached under their dependency key.
    pub memo_misses: u64,
    /// Results stored into the shared memo tier after a miss.
    pub memo_stores: u64,
    /// Memo entries invalidated by writes to variables in their read-sets.
    pub memo_invalidations: u64,
}

impl StaticSavings {
    /// Total avoided operations.
    pub fn total(&self) -> u64 {
        self.type_checks_avoided + self.rc_incs_avoided + self.rc_decs_avoided
    }

    /// Adds another tally into this one, counter by counter. Server pools
    /// use this to fold per-worker savings into a lossless total.
    pub fn accumulate(&mut self, other: &StaticSavings) {
        self.type_checks_avoided += other.type_checks_avoided;
        self.rc_incs_avoided += other.rc_incs_avoided;
        self.rc_decs_avoided += other.rc_decs_avoided;
        self.summaries_applied += other.summaries_applied;
        self.regex_compiles_avoided += other.regex_compiles_avoided;
        self.heap_classes_preseeded += other.heap_classes_preseeded;
        self.taint_lints_flagged += other.taint_lints_flagged;
        self.arena_safe_sites += other.arena_safe_sites;
        self.arena_bytes_reclaimed += other.arena_bytes_reclaimed;
        self.teardown_uops_saved += other.teardown_uops_saved;
        self.vm_ops_executed += other.vm_ops_executed;
        self.vm_fused_ops += other.vm_fused_ops;
        self.vm_transients_elided += other.vm_transients_elided;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.memo_stores += other.memo_stores;
        self.memo_invalidations += other.memo_invalidations;
    }
}

/// A leaf function: its name, its activity category, and the dense id the
/// registry hands out the first time it is charged.
///
/// Declare one as a `static` next to the code that charges it:
///
/// ```
/// use php_runtime::profile::{Category, Leaf, OpCost, Profiler};
///
/// static ZEND_HASH_FIND: Leaf = Leaf::new("zend_hash_find", Category::HashMap);
/// let p = Profiler::new();
/// p.record(&ZEND_HASH_FIND, OpCost::mixed(90));
/// assert_eq!(p.function("zend_hash_find").unwrap().calls, 1);
/// ```
///
/// The name is the leaf's identity. Descriptors that share a name share one
/// ledger slot and must agree on the category.
#[derive(Debug)]
pub struct Leaf {
    name: &'static str,
    category: Category,
    /// [`UNREGISTERED`] until the first charge. `Relaxed` everywhere: the id
    /// publishes nothing but itself, the registry's tables are read under
    /// its mutex.
    id: AtomicU32,
}

const UNREGISTERED: u32 = u32::MAX;

/// Every leaf charged so far, by id and by name.
#[derive(Default)]
struct Registry {
    leaves: Vec<&'static Leaf>,
    by_name: HashMap<&'static str, u32>,
}

impl Registry {
    fn find(&self, name: &str) -> Option<&'static Leaf> {
        self.by_name.get(name).map(|&id| self.leaves[id as usize])
    }

    fn push(&mut self, leaf: &'static Leaf) {
        let id = self.leaves.len() as u32;
        self.by_name.insert(leaf.name, id);
        self.leaves.push(leaf);
        leaf.id.store(id, Ordering::Relaxed);
    }
}

static REGISTRY: LazyLock<Mutex<Registry>> = LazyLock::new(Mutex::default);

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .lock()
        .expect("leaf registry lock: no holder panics")
}

impl Leaf {
    /// A descriptor for leaf function `name` in `category`.
    pub const fn new(name: &'static str, category: Category) -> Leaf {
        Leaf {
            name,
            category,
            id: AtomicU32::new(UNREGISTERED),
        }
    }

    /// The descriptor for a name that is only known at run time (a workload
    /// building its own leaf table). Returns the registered descriptor of
    /// that name if there is one. Otherwise the new descriptor is leaked and
    /// lives as long as the process, so intern names from a fixed set, once,
    /// and keep the handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered under another category.
    pub fn intern(name: &str, category: Category) -> &'static Leaf {
        let mut reg = registry();
        let leaf = reg.find(name).unwrap_or_else(|| {
            let leaf = Box::leak(Box::new(Leaf::new(Box::leak(name.into()), category)));
            reg.push(leaf);
            leaf
        });
        drop(reg);
        leaf.check_category(category);
        leaf
    }

    /// The leaf function's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The activity category it is charged to.
    pub fn category(&self) -> Category {
        self.category
    }

    fn check_category(&self, category: Category) {
        assert_eq!(
            self.category, category,
            "leaf {:?} declared under two categories",
            self.name
        );
    }

    #[inline]
    fn id(&'static self) -> usize {
        match self.id.load(Ordering::Relaxed) {
            UNREGISTERED => self.register(),
            id => id as usize,
        }
    }

    #[cold]
    #[inline(never)]
    fn register(&'static self) -> usize {
        let mut reg = registry();
        match reg.find(self.name) {
            Some(first) => {
                drop(reg);
                first.check_category(self.category);
                let id = first.id.load(Ordering::Relaxed);
                self.id.store(id, Ordering::Relaxed);
            }
            None => reg.push(self),
        }
        self.id.load(Ordering::Relaxed) as usize
    }
}

/// Every leaf registered so far, in id order. One entry per name.
pub fn registered_leaves() -> Vec<&'static Leaf> {
    registry().leaves.clone()
}

/// One leaf's ledger slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    calls: u64,
    cost: OpCost,
}

/// First charge of a leaf this ledger has no slot for yet.
#[cold]
#[inline(never)]
fn grow(slots: &mut Vec<Slot>, id: usize) {
    slots.resize(id + 1, Slot::default());
}

/// The profiler. Interior-mutable so that runtime operations can record
/// through a shared reference (`&RuntimeContext`).
#[derive(Debug, Default)]
pub struct Profiler {
    /// Indexed by leaf id; grows when a leaf beyond its end is first charged.
    slots: RefCell<Vec<Slot>>,
    total: Cell<OpCost>,
    paused_depth: Cell<u32>,
    savings: RefCell<StaticSavings>,
    logging_events: Cell<bool>,
    event_log: RefCell<Vec<(&'static Leaf, OpCost)>>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one invocation of `leaf` with `cost`.
    #[inline]
    pub fn record(&self, leaf: &'static Leaf, cost: OpCost) {
        if self.paused_depth.get() > 0 {
            return;
        }
        self.total.set(self.total.get().plus(cost));
        let id = leaf.id();
        let mut slots = self.slots.borrow_mut();
        if id >= slots.len() {
            grow(&mut slots, id);
        }
        let slot = &mut slots[id];
        slot.calls += 1;
        slot.cost = slot.cost.plus(cost);
        if self.logging_events.get() {
            self.log_event(leaf, cost);
        }
    }

    #[cold]
    #[inline(never)]
    fn log_event(&self, leaf: &'static Leaf, cost: OpCost) {
        self.event_log.borrow_mut().push((leaf, cost));
    }

    /// Turns the event log on or off. While it is on, every event the
    /// ledger takes is also appended to the log, in order; the
    /// ledger-equivalence test replays it into a string-keyed reference.
    pub fn set_event_log(&self, on: bool) {
        self.logging_events.set(on);
    }

    /// Drains the event log.
    pub fn take_event_log(&self) -> Vec<(&'static Leaf, OpCost)> {
        std::mem::take(&mut *self.event_log.borrow_mut())
    }

    /// Temporarily disables recording (e.g. while replaying a trace).
    /// Must be balanced with [`Profiler::resume`].
    pub fn pause(&self) {
        self.paused_depth.set(self.paused_depth.get() + 1);
    }

    /// Re-enables recording after a [`Profiler::pause`].
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `pause`.
    pub fn resume(&self) {
        let depth = self.paused_depth.get();
        assert!(depth > 0, "resume without pause");
        self.paused_depth.set(depth - 1);
    }

    /// Total micro-ops recorded so far.
    #[inline]
    pub fn total_uops(&self) -> u64 {
        self.total.get().uops
    }

    /// Total cost recorded so far.
    pub fn total_cost(&self) -> OpCost {
        self.total.get()
    }

    /// The leaves charged since the last [`Profiler::reset`], with their
    /// slots, in id order.
    fn charged(&self) -> Vec<(&'static Leaf, Slot)> {
        let slots = self.slots.borrow();
        let reg = registry();
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.calls > 0)
            .map(|(id, s)| (reg.leaves[id], *s))
            .collect()
    }

    /// Number of distinct leaf functions charged since the last
    /// [`Profiler::reset`].
    pub fn function_count(&self) -> usize {
        self.slots.borrow().iter().filter(|s| s.calls > 0).count()
    }

    /// Stats for one function, if it was charged since the last
    /// [`Profiler::reset`].
    pub fn function(&self, name: &str) -> Option<FuncStats> {
        let leaf = registry().find(name)?;
        let slot = *self.slots.borrow().get(leaf.id())?;
        (slot.calls > 0).then_some(FuncStats {
            category: Some(leaf.category),
            calls: slot.calls,
            cost: slot.cost,
        })
    }

    /// Aggregated micro-ops per category.
    pub fn category_breakdown(&self) -> HashMap<Category, u64> {
        let mut out = HashMap::new();
        for (leaf, slot) in self.charged() {
            *out.entry(leaf.category).or_insert(0) += slot.cost.uops;
        }
        out
    }

    /// The leaf-function profile, hottest first (Figure 1 / Figure 3 input).
    pub fn leaf_profile(&self) -> Vec<ProfileRow> {
        let total = self.total.get().uops.max(1) as f64;
        let mut rows: Vec<ProfileRow> = self
            .charged()
            .into_iter()
            .map(|(leaf, s)| ProfileRow {
                name: leaf.name.to_owned(),
                category: leaf.category,
                calls: s.calls,
                uops: s.cost.uops,
                share: s.cost.uops as f64 / total,
            })
            .collect();
        rows.sort_by(|a, b| b.uops.cmp(&a.uops).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Cumulative share covered by the hottest `n` functions (Figure 1's
    /// "about 100 functions account for about 65% of cycles").
    pub fn cumulative_share(&self, n: usize) -> f64 {
        self.leaf_profile().iter().take(n).map(|r| r.share).sum()
    }

    /// Clears all recorded data.
    pub fn reset(&self) {
        self.slots.borrow_mut().fill(Slot::default());
        self.total.set(OpCost::default());
        *self.savings.borrow_mut() = StaticSavings::default();
    }

    // -- statically avoided work ---------------------------------------------

    /// Notes a dynamic type check proven unnecessary and skipped.
    pub fn note_type_check_avoided(&self) {
        self.savings.borrow_mut().type_checks_avoided += 1;
    }

    /// Notes a refcount increment proven unnecessary and skipped.
    pub fn note_rc_inc_avoided(&self) {
        self.savings.borrow_mut().rc_incs_avoided += 1;
    }

    /// Notes a refcount decrement proven unnecessary and skipped.
    pub fn note_rc_dec_avoided(&self) {
        self.savings.borrow_mut().rc_decs_avoided += 1;
    }

    /// Notes a call evaluated with an interprocedural summary attached.
    pub fn note_summary_applied(&self) {
        self.savings.borrow_mut().summaries_applied += 1;
    }

    /// Notes a regex compile skipped thanks to analysis-time compilation.
    pub fn note_regex_compile_avoided(&self) {
        self.savings.borrow_mut().regex_compiles_avoided += 1;
    }

    /// Notes `n` heap size classes pre-seeded from static allocation sizes.
    pub fn note_heap_classes_preseeded(&self, n: u64) {
        self.savings.borrow_mut().heap_classes_preseeded += n;
    }

    /// Notes `n` tainted-sink lints flagged by the attached analysis.
    pub fn note_taint_lints(&self, n: u64) {
        self.savings.borrow_mut().taint_lints_flagged += n;
    }

    /// Notes `n` allocation sites the region analysis proved arena-safe.
    pub fn note_arena_safe_sites(&self, n: u64) {
        self.savings.borrow_mut().arena_safe_sites += n;
    }

    /// Notes one arena epoch reset: `bytes` reclaimed in O(1) and the
    /// `uops_saved` a per-block free-list teardown would have cost instead.
    pub fn note_arena_reset(&self, bytes: u64, uops_saved: u64) {
        let mut savings = self.savings.borrow_mut();
        savings.arena_bytes_reclaimed += bytes;
        savings.teardown_uops_saved += uops_saved;
    }

    /// Notes one compiled-VM run: opcodes executed, fused superinstructions
    /// among them, and transient allocations those superinstructions elided.
    pub fn note_vm_execution(&self, ops: u64, fused: u64, transients_elided: u64) {
        let mut savings = self.savings.borrow_mut();
        savings.vm_ops_executed += ops;
        savings.vm_fused_ops += fused;
        savings.vm_transients_elided += transients_elided;
    }

    /// Notes one memo-cache hit: the memoized result was replayed and the
    /// callee body skipped.
    pub fn note_memo_hit(&self) {
        self.savings.borrow_mut().memo_hits += 1;
    }

    /// Notes one memo-cache miss (the site executed normally).
    pub fn note_memo_miss(&self) {
        self.savings.borrow_mut().memo_misses += 1;
    }

    /// Notes one result stored into the memo tier.
    pub fn note_memo_store(&self) {
        self.savings.borrow_mut().memo_stores += 1;
    }

    /// Notes `n` memo entries invalidated by a dependency write.
    pub fn note_memo_invalidations(&self, n: u64) {
        self.savings.borrow_mut().memo_invalidations += n;
    }

    /// Work skipped thanks to static analysis so far.
    pub fn static_savings(&self) -> StaticSavings {
        *self.savings.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static FIND: Leaf = Leaf::new("zend_hash_find", Category::HashMap);
    static TRIM: Leaf = Leaf::new("php_trim", Category::String);

    #[test]
    fn record_accumulates_per_function() {
        let p = Profiler::new();
        p.record(&FIND, OpCost::mixed(90));
        p.record(&FIND, OpCost::mixed(90));
        p.record(&TRIM, OpCost::alu(30));
        let f = p.function("zend_hash_find").unwrap();
        assert_eq!(f.category, Some(Category::HashMap));
        assert_eq!(f.calls, 2);
        assert_eq!(f.cost.uops, 180);
        assert_eq!(p.total_uops(), 210);
        assert_eq!(p.function_count(), 2);
        assert!(p.function("never_charged_anywhere").is_none());
    }

    #[test]
    fn leaf_profile_is_sorted_hottest_first() {
        let p = Profiler::new();
        p.record(Leaf::intern("t_cold", Category::Other), OpCost::alu(1));
        p.record(Leaf::intern("t_hot", Category::JitCode), OpCost::alu(100));
        p.record(Leaf::intern("t_warm", Category::String), OpCost::alu(10));
        let rows = p.leaf_profile();
        assert_eq!(rows[0].name, "t_hot");
        assert_eq!(rows[0].category, Category::JitCode);
        assert_eq!(rows[1].name, "t_warm");
        assert_eq!(rows[2].name, "t_cold");
        assert!((rows[0].share - 100.0 / 111.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_share_sums_top_n() {
        let p = Profiler::new();
        for i in 0..10 {
            let leaf = Leaf::intern(&format!("t_f{i}"), Category::Other);
            p.record(leaf, OpCost::alu(10));
        }
        assert!((p.cumulative_share(5) - 0.5).abs() < 1e-12);
        assert!((p.cumulative_share(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn category_breakdown_aggregates() {
        let p = Profiler::new();
        p.record(Leaf::intern("t_heap_a", Category::Heap), OpCost::alu(69));
        p.record(Leaf::intern("t_heap_b", Category::Heap), OpCost::alu(37));
        p.record(Leaf::intern("t_regex", Category::Regex), OpCost::alu(10));
        let m = p.category_breakdown();
        assert_eq!(m[&Category::Heap], 106);
        assert_eq!(m[&Category::Regex], 10);
        assert!(!m.contains_key(&Category::String));
    }

    #[test]
    fn pause_suppresses_recording() {
        let p = Profiler::new();
        p.pause();
        p.record(&TRIM, OpCost::alu(5));
        p.resume();
        assert_eq!(p.total_uops(), 0);
        assert_eq!(p.function_count(), 0);
        p.record(&TRIM, OpCost::alu(5));
        assert_eq!(p.total_uops(), 5);
    }

    #[test]
    #[should_panic(expected = "resume without pause")]
    fn unbalanced_resume_panics() {
        Profiler::new().resume();
    }

    #[test]
    fn mixed_cost_proportions() {
        let c = OpCost::mixed(100);
        assert_eq!(c.branches, 22);
        assert_eq!(c.loads, 30);
        assert_eq!(c.stores, 12);
    }

    #[test]
    fn reset_clears_everything() {
        let p = Profiler::new();
        p.record(&TRIM, OpCost::alu(5));
        p.note_type_check_avoided();
        p.reset();
        assert_eq!(p.total_uops(), 0);
        assert_eq!(p.function_count(), 0);
        assert!(p.function("php_trim").is_none());
        assert!(p.leaf_profile().is_empty());
        assert_eq!(p.static_savings(), StaticSavings::default());
        // A leaf charged before the reset is counted again once it recurs.
        p.record(&TRIM, OpCost::alu(5));
        assert_eq!(p.function_count(), 1);
    }

    #[test]
    fn descriptors_of_one_name_share_a_slot() {
        static TWIN: Leaf = Leaf::new("t_twin", Category::Heap);
        let p = Profiler::new();
        p.record(&TWIN, OpCost::alu(1));
        let interned = Leaf::intern("t_twin", Category::Heap);
        assert!(std::ptr::eq(interned, &TWIN));
        static LATE_TWIN: Leaf = Leaf::new("t_twin", Category::Heap);
        p.record(&LATE_TWIN, OpCost::alu(1));
        assert_eq!(p.function("t_twin").unwrap().calls, 2);
        assert_eq!(p.function_count(), 1);
        let names: Vec<&str> = registered_leaves().iter().map(|l| l.name()).collect();
        assert_eq!(names.iter().filter(|n| **n == "t_twin").count(), 1);
    }

    #[test]
    #[should_panic(expected = "declared under two categories")]
    fn one_name_cannot_have_two_categories() {
        Leaf::intern("t_two_cats", Category::Heap);
        Leaf::intern("t_two_cats", Category::String);
    }

    #[test]
    fn static_savings_accumulate() {
        let p = Profiler::new();
        p.note_type_check_avoided();
        p.note_type_check_avoided();
        p.note_rc_inc_avoided();
        p.note_rc_dec_avoided();
        let s = p.static_savings();
        assert_eq!(s.type_checks_avoided, 2);
        assert_eq!(s.rc_incs_avoided, 1);
        assert_eq!(s.rc_decs_avoided, 1);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn categories_expose_accel_targets() {
        assert!(Category::HashMap.is_accel_target());
        assert!(Category::Regex.is_accel_target());
        assert!(!Category::RefCount.is_accel_target());
        assert_eq!(Category::ALL.len(), 8);
    }
}
