//! The hardware heap manager (§4.3, Figure 9) and its ISA-visible
//! semantics (`hmmalloc`, `hmfree`, `hmflush` — §4.6).

use crate::freelist::HwFreeList;
use crate::prefetch::{sw_class_for, PrefetchConfig, Prefetcher};
use crate::size_class::{SizeClassTable, HW_CLASS_COUNT};
use php_runtime::alloc::SlabAllocator;
use php_runtime::profile::{Category, Leaf, OpCost};
use php_runtime::{AddrSet, Profiler};

static HM_EAGER_MEMORY_UPDATE: Leaf = Leaf::new("hm_eager_memory_update", Category::Heap);
static HM_OVERFLOW_SPILL: Leaf = Leaf::new("hm_overflow_spill", Category::Heap);
static HMFLUSH: Leaf = Leaf::new("hmflush", Category::Heap);

/// Memory-update policy (design consideration vs. Mallacc \[48\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// Paper's choice: "we instead lazily update the memory's heap manager
    /// data structure only on overflow or during context switches."
    #[default]
    Lazy,
    /// Mallacc-style: "eagerly updates the memory's head pointer and linked
    /// list on all malloc and free requests" — ablation baseline.
    Eager,
}

/// µops a software handler spends on an eager memory update per request.
const EAGER_UPDATE_UOPS: u64 = 6;
/// µops of the software handler on an hmfree overflow: "updates the content
/// of the second-to-last block [...] (which can be done using a single str
/// instruction)".
const OVERFLOW_STORE_UOPS: u64 = 8;

/// Configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapConfig {
    /// Entries per hardware free list (paper: 32 — "enough flexibility to
    /// the prefetcher in hiding the prefetch latency").
    pub freelist_entries: usize,
    /// Prefetcher settings.
    pub prefetch: PrefetchConfig,
    /// Memory update policy.
    pub update_policy: UpdatePolicy,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            freelist_entries: 32,
            prefetch: PrefetchConfig::default(),
            update_policy: UpdatePolicy::Lazy,
        }
    }
}

/// Result of an `hmmalloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MallocOutcome {
    /// Served from a hardware free list in 1 cycle.
    Hit {
        /// The block address.
        addr: u64,
    },
    /// Hardware class empty — zero flag set; the software handler supplied
    /// the block (cost already charged).
    SoftwareRefill {
        /// The block address.
        addr: u64,
    },
    /// Request too large for the comparator — plain software malloc path
    /// (caller goes through [`SlabAllocator`] directly).
    TooLarge,
}

impl MallocOutcome {
    /// The address, when the request was served.
    pub fn addr(&self) -> Option<u64> {
        match self {
            MallocOutcome::Hit { addr } | MallocOutcome::SoftwareRefill { addr } => Some(*addr),
            MallocOutcome::TooLarge => None,
        }
    }
}

/// Result of an `hmfree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeOutcome {
    /// Pushed onto the hardware free list in 1 cycle.
    Hit,
    /// Free list full — zero flag set; software spilled the block to the
    /// software free list (single-store handler).
    Spilled,
    /// Block class unknown to hardware — software free path.
    TooLarge,
}

/// Statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// hmmalloc requests within hardware range.
    pub mallocs: u64,
    /// hmmalloc hardware hits.
    pub malloc_hits: u64,
    /// hmmalloc software refills (zero flag).
    pub malloc_misses: u64,
    /// hmfree requests within range.
    pub frees: u64,
    /// hmfree hardware hits.
    pub free_hits: u64,
    /// hmfree spills (zero flag).
    pub free_spills: u64,
    /// Requests above 128 B (went fully software).
    pub too_large: u64,
    /// Context-switch flushes.
    pub flushes: u64,
    /// Blocks written back by flushes.
    pub flushed_blocks: u64,
    /// Accelerator cycles.
    pub accel_cycles: u64,
    /// Free-list nodes poisoned by the fault-injection hook.
    pub faults_injected: u64,
    /// Poisoned nodes caught by the parity check on pop/flush.
    pub faults_detected: u64,
}

impl HeapStats {
    /// Hardware hit rate over in-range requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.mallocs + self.frees;
        if total == 0 {
            return 0.0;
        }
        (self.malloc_hits + self.free_hits) as f64 / total as f64
    }
}

/// The hardware heap manager.
#[derive(Debug)]
pub struct HwHeapManager {
    cfg: HeapConfig,
    lists: Vec<HwFreeList>,
    prefetcher: Prefetcher,
    stats: HeapStats,
    now: u64,
    /// Free-list nodes whose stored metadata no longer passes parity
    /// (injected faults); caught when the node is next popped or flushed.
    poisoned: AddrSet,
}

impl Default for HwHeapManager {
    fn default() -> Self {
        Self::new(HeapConfig::default())
    }
}

impl HwHeapManager {
    /// Builds the manager.
    pub fn new(cfg: HeapConfig) -> Self {
        HwHeapManager {
            cfg,
            lists: (0..HW_CLASS_COUNT)
                .map(|_| HwFreeList::new(cfg.freelist_entries))
                .collect(),
            prefetcher: Prefetcher::new(cfg.prefetch),
            stats: HeapStats::default(),
            now: 0,
            poisoned: AddrSet::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    /// Prefetcher counters `(issued, landed, dry)`.
    pub fn prefetch_counters(&self) -> (u64, u64, u64) {
        self.prefetcher.counters()
    }

    /// Enables/disables the prefetcher (ablation).
    pub fn set_prefetch_enabled(&mut self, on: bool) {
        self.prefetcher.set_enabled(on);
    }

    fn step(&mut self, alloc: &mut SlabAllocator) {
        self.now += 1;
        for (class, addr) in self.prefetcher.drain_completed(self.now) {
            if !self.lists[class].push_tail(addr) {
                // List filled up meanwhile: hand the block back to software.
                alloc.return_segment(sw_class_for(class), addr);
            }
        }
    }

    fn charge_eager_update(&self, prof: &Profiler) {
        if self.cfg.update_policy == UpdatePolicy::Eager {
            prof.record(
                &HM_EAGER_MEMORY_UPDATE,
                OpCost {
                    uops: EAGER_UPDATE_UOPS,
                    branches: 1,
                    loads: 1,
                    stores: 2,
                },
            );
        }
    }

    /// `hmmalloc size` — returns a block of at most 128 bytes, or signals
    /// the software path.
    pub fn hmmalloc(
        &mut self,
        size: usize,
        alloc: &mut SlabAllocator,
        prof: &Profiler,
    ) -> MallocOutcome {
        self.step(alloc);
        let Some(class) = SizeClassTable::classify(size) else {
            self.stats.too_large += 1;
            return MallocOutcome::TooLarge;
        };
        self.stats.mallocs += 1;
        self.stats.accel_cycles += 1; // §5.1: 1 cycle per hardware request
        let outcome = match self.lists[class].pop_head() {
            Some(addr) if self.poisoned.remove(&addr) => {
                // Parity caught a poisoned node: quarantine the block back
                // to the software free list and let the software handler
                // serve the request from a fresh carve.
                self.stats.faults_detected += 1;
                alloc.return_segment(sw_class_for(class), addr);
                self.stats.malloc_misses += 1;
                let fresh = alloc.carve_for_hardware(sw_class_for(class), prof);
                alloc.note_hardware_alloc(sw_class_for(class), fresh, size);
                MallocOutcome::SoftwareRefill { addr: fresh }
            }
            Some(addr) => {
                self.stats.malloc_hits += 1;
                alloc.note_hardware_alloc(sw_class_for(class), addr, size);
                self.charge_eager_update(prof);
                MallocOutcome::Hit { addr }
            }
            None => {
                // Zero flag → software handler retrieves a block at software
                // cost and returns it to the core.
                self.stats.malloc_misses += 1;
                let addr = alloc.carve_for_hardware(sw_class_for(class), prof);
                alloc.note_hardware_alloc(sw_class_for(class), addr, size);
                MallocOutcome::SoftwareRefill { addr }
            }
        };
        let len = self.lists[class].len();
        self.prefetcher.maybe_issue(class, len, self.now, alloc);
        outcome
    }

    /// `hmfree addr, size`.
    pub fn hmfree(
        &mut self,
        addr: u64,
        size: usize,
        alloc: &mut SlabAllocator,
        prof: &Profiler,
    ) -> FreeOutcome {
        self.step(alloc);
        let Some(class) = SizeClassTable::classify(size) else {
            self.stats.too_large += 1;
            return FreeOutcome::TooLarge;
        };
        self.stats.frees += 1;
        self.stats.accel_cycles += 1;
        alloc.note_hardware_free(addr);
        if self.lists[class].push_head(addr) {
            self.stats.free_hits += 1;
            self.charge_eager_update(prof);
            FreeOutcome::Hit
        } else {
            // Zero flag → software handler links the block into the software
            // free list with a single store.
            self.stats.free_spills += 1;
            prof.record(
                &HM_OVERFLOW_SPILL,
                OpCost {
                    uops: OVERFLOW_STORE_UOPS,
                    branches: 1,
                    loads: 1,
                    stores: 1,
                },
            );
            alloc.return_segment(sw_class_for(class), addr);
            FreeOutcome::Spilled
        }
    }

    /// `hmflush` — context switch: "the hardware heap manager must flush its
    /// entries to the memory's heap manager data structure." Resumable; here
    /// modeled as one call returning the number of blocks flushed.
    pub fn hmflush(&mut self, alloc: &mut SlabAllocator, prof: &Profiler) -> usize {
        self.stats.flushes += 1;
        let mut flushed = 0;
        for class in 0..HW_CLASS_COUNT {
            for addr in self.lists[class].drain_all() {
                if self.poisoned.remove(&addr) {
                    // Parity caught the node on the way out; the segment is
                    // still reclaimed by software, so nothing leaks.
                    self.stats.faults_detected += 1;
                }
                alloc.return_segment(sw_class_for(class), addr);
                flushed += 1;
            }
        }
        self.stats.flushed_blocks += flushed as u64;
        prof.record(&HMFLUSH, OpCost::mixed(10 + 3 * flushed as u64));
        flushed
    }

    /// Fault-injection hook: poisons the `nth` resident free-list node not
    /// already poisoned (across all classes, newest first). The parity
    /// check catches it when the node is next popped or flushed. Returns
    /// `false`, and counts nothing, when no resident node is left to
    /// poison: every hardware free list is empty or already poisoned.
    pub fn inject_freelist_fault(&mut self, nth: usize) -> bool {
        let mut nodes = Vec::new();
        for list in &self.lists {
            nodes.extend(
                list.snapshot()
                    .into_iter()
                    .filter(|addr| !self.poisoned.contains(addr)),
            );
        }
        if nodes.is_empty() {
            return false;
        }
        self.poisoned.insert(nodes[nth % nodes.len()]);
        self.stats.faults_injected += 1;
        true
    }

    /// Resets statistics counters (contents and free lists stay).
    pub fn reset_stats(&mut self) {
        self.stats = HeapStats::default();
    }

    /// Current hardware free-list occupancy per class.
    pub fn occupancy(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Send-audit: per-core accelerator state must be movable into a worker
    /// thread (it stays worker-private, so `Sync` is not required).
    #[test]
    fn hw_heap_manager_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HwHeapManager>();
    }

    fn setup() -> (HwHeapManager, SlabAllocator, Profiler) {
        (
            HwHeapManager::default(),
            SlabAllocator::new(),
            Profiler::new(),
        )
    }

    #[test]
    fn first_malloc_misses_then_reuse_hits() {
        let (mut hm, mut alloc, prof) = setup();
        let m1 = hm.hmmalloc(48, &mut alloc, &prof);
        assert!(matches!(m1, MallocOutcome::SoftwareRefill { .. }));
        let addr = m1.addr().unwrap();
        assert_eq!(hm.hmfree(addr, 48, &mut alloc, &prof), FreeOutcome::Hit);
        let m2 = hm.hmmalloc(48, &mut alloc, &prof);
        assert_eq!(m2, MallocOutcome::Hit { addr });
        assert_eq!(hm.stats().malloc_hits, 1);
        assert_eq!(hm.stats().malloc_misses, 1);
    }

    #[test]
    fn too_large_goes_software() {
        let (mut hm, mut alloc, prof) = setup();
        assert_eq!(hm.hmmalloc(129, &mut alloc, &prof), MallocOutcome::TooLarge);
        assert_eq!(
            hm.hmfree(0x1000, 4096, &mut alloc, &prof),
            FreeOutcome::TooLarge
        );
        assert_eq!(hm.stats().too_large, 2);
    }

    #[test]
    fn strong_reuse_gives_high_hit_rate() {
        // The paper's claim: strong memory reuse ⇒ "in the common case it
        // satisfies the requests from the hardware free list".
        let (mut hm, mut alloc, prof) = setup();
        for _ in 0..2000 {
            let a = hm.hmmalloc(32, &mut alloc, &prof).addr().unwrap();
            let b = hm.hmmalloc(64, &mut alloc, &prof).addr().unwrap();
            hm.hmfree(a, 32, &mut alloc, &prof);
            hm.hmfree(b, 64, &mut alloc, &prof);
        }
        assert!(
            hm.stats().hit_rate() > 0.95,
            "hit rate {}",
            hm.stats().hit_rate()
        );
    }

    #[test]
    fn free_list_overflow_spills_to_software() {
        let (mut hm, mut alloc, prof) = setup();
        // Free 40 blocks of one class without allocating: 32 fit, rest spill.
        let blocks: Vec<u64> = (0..40)
            .map(|_| alloc.carve_for_hardware(0, &prof))
            .collect();
        for &addr in &blocks {
            alloc.note_hardware_alloc(0, addr, 16);
        }
        let mut spills = 0;
        for addr in blocks {
            if hm.hmfree(addr, 16, &mut alloc, &prof) == FreeOutcome::Spilled {
                spills += 1;
            }
        }
        assert_eq!(spills, 8);
        assert_eq!(hm.occupancy()[0], 32);
    }

    #[test]
    fn hmflush_returns_blocks_to_software() {
        let (mut hm, mut alloc, prof) = setup();
        let a = hm.hmmalloc(16, &mut alloc, &prof).addr().unwrap();
        let b = hm.hmmalloc(16, &mut alloc, &prof).addr().unwrap();
        hm.hmfree(a, 16, &mut alloc, &prof);
        hm.hmfree(b, 16, &mut alloc, &prof);
        let flushed = hm.hmflush(&mut alloc, &prof);
        assert_eq!(flushed, 2);
        assert!(hm.occupancy().iter().all(|&n| n == 0));
        // After a flush the blocks are reachable through software again.
        let m = alloc.malloc(16, &prof);
        assert!(m.addr == a || m.addr == b);
    }

    #[test]
    fn prefetcher_refills_from_software_free_list() {
        let (mut hm, mut alloc, prof) = setup();
        // Build up a software free list by allocating+freeing in software.
        let blocks: Vec<_> = (0..64).map(|_| alloc.malloc(16, &prof)).collect();
        for b in blocks {
            alloc.free(b, &prof);
        }
        // First hardware malloc misses, but triggers prefetching.
        let _ = hm.hmmalloc(16, &mut alloc, &prof);
        // Subsequent operations land the prefetches; hit rate recovers.
        let mut hits = 0;
        for _ in 0..20 {
            if matches!(
                hm.hmmalloc(16, &mut alloc, &prof),
                MallocOutcome::Hit { .. }
            ) {
                hits += 1;
            }
        }
        assert!(
            hits > 10,
            "prefetcher should convert misses to hits, got {hits}"
        );
        let (issued, landed, _) = hm.prefetch_counters();
        assert!(issued > 0 && landed > 0);
    }

    #[test]
    fn eager_policy_charges_update_cost() {
        let lazy_cfg = HeapConfig {
            update_policy: UpdatePolicy::Lazy,
            ..HeapConfig::default()
        };
        let eager_cfg = HeapConfig {
            update_policy: UpdatePolicy::Eager,
            ..HeapConfig::default()
        };

        let run = |cfg: HeapConfig| {
            let mut hm = HwHeapManager::new(cfg);
            let mut alloc = SlabAllocator::new();
            let prof = Profiler::new();
            for _ in 0..100 {
                let a = hm.hmmalloc(32, &mut alloc, &prof).addr().unwrap();
                hm.hmfree(a, 32, &mut alloc, &prof);
            }
            prof.total_uops()
        };
        assert!(
            run(eager_cfg) > run(lazy_cfg),
            "eager updates must cost more"
        );
    }

    #[test]
    fn poisoned_node_detected_on_pop_and_quarantined() {
        let (mut hm, mut alloc, prof) = setup();
        let a = hm.hmmalloc(32, &mut alloc, &prof).addr().unwrap();
        hm.hmfree(a, 32, &mut alloc, &prof);
        assert!(hm.inject_freelist_fault(0));
        assert_eq!(hm.stats().faults_injected, 1);
        // Pop hits the poisoned node: detected, software refill serves it.
        let m = hm.hmmalloc(32, &mut alloc, &prof);
        assert!(matches!(m, MallocOutcome::SoftwareRefill { .. }));
        assert_eq!(hm.stats().faults_detected, 1);
        // Accounting stays balanced: the quarantined segment was returned.
        hm.hmfree(m.addr().unwrap(), 32, &mut alloc, &prof);
        let _ = hm.hmflush(&mut alloc, &prof);
        assert_eq!(alloc.live_block_count(), 0);
    }

    #[test]
    fn poisoned_node_detected_on_flush() {
        let (mut hm, mut alloc, prof) = setup();
        let a = hm.hmmalloc(16, &mut alloc, &prof).addr().unwrap();
        hm.hmfree(a, 16, &mut alloc, &prof);
        assert!(hm.inject_freelist_fault(0));
        let flushed = hm.hmflush(&mut alloc, &prof);
        assert_eq!(flushed, 1);
        assert_eq!(hm.stats().faults_detected, 1);
        // The block is reachable through software again.
        let m = alloc.malloc(16, &prof);
        assert_eq!(m.addr, a);
    }

    #[test]
    fn inject_with_empty_lists_reports_nothing_to_poison() {
        let (mut hm, _, _) = setup();
        assert!(!hm.inject_freelist_fault(0));
        assert_eq!(hm.stats().faults_injected, 0);
    }

    #[test]
    fn inject_skips_a_node_already_poisoned() {
        let (mut hm, mut alloc, prof) = setup();
        let a = hm.hmmalloc(32, &mut alloc, &prof).addr().unwrap();
        hm.hmfree(a, 32, &mut alloc, &prof);
        assert!(hm.inject_freelist_fault(0));
        // The one resident node is poisoned: nothing is left to corrupt,
        // so the second fault is not counted (the server keeps it pending).
        assert!(!hm.inject_freelist_fault(1));
        assert_eq!(hm.stats().faults_injected, 1);
        let _ = hm.hmflush(&mut alloc, &prof);
        assert_eq!(hm.stats().faults_detected, 1);
    }

    #[test]
    fn accounting_stays_balanced() {
        let (mut hm, mut alloc, prof) = setup();
        let mut live = Vec::new();
        for i in 0..100 {
            live.push((
                hm.hmmalloc(16 + i % 112, &mut alloc, &prof).addr().unwrap(),
                16 + i % 112,
            ));
        }
        for (addr, size) in live {
            hm.hmfree(addr, size, &mut alloc, &prof);
        }
        assert_eq!(alloc.live_block_count(), 0);
    }
}
