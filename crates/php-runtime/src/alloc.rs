//! Software slab allocator — the VM's baseline heap manager.
//!
//! §4.3 of the paper: "the VM typically uses the well-known slab allocation
//! technique. [...] the VM allocates a large chunk of memory and breaks it up
//! into smaller segments of a fixed size according to the slab class's size
//! and stores the pointer to those segments in the associated free list."
//!
//! This is a *simulated* allocator: it manages a synthetic address space and
//! charges micro-op costs to the profiler (§5.2: malloc ≈ 69 µops, free ≈ 37
//! µops on average, assuming cache hits). It also collects the statistics the
//! paper's Figure 8 is built from: the allocation-size CDF and the per-slab
//! live-memory timeline. The timeline is off unless a caller turns it on
//! ([`SlabAllocator::set_timeline_interval`]), so a serving machine's host
//! memory does not grow with the requests it serves.

use crate::addr::{AddrMap, AddrSet};
use crate::profile::{Category, Leaf, OpCost, Profiler};

static SLAB_MALLOC: Leaf = Leaf::new("slab_malloc", Category::Heap);
static SLAB_FREE: Leaf = Leaf::new("slab_free", Category::Heap);
static KERNEL_MMAP_ALLOC: Leaf = Leaf::new("kernel_mmap_alloc", Category::Heap);
static KERNEL_MMAP_FREE: Leaf = Leaf::new("kernel_mmap_free", Category::Heap);
static ARENA_BUMP_ALLOC: Leaf = Leaf::new("arena_bump_alloc", Category::Heap);
static ARENA_LOGICAL_FREE: Leaf = Leaf::new("arena_logical_free", Category::Heap);
static ARENA_EPOCH_RESET: Leaf = Leaf::new("arena_epoch_reset", Category::Heap);

/// Granularity of the small size classes, in bytes (§4.3: 8 slabs cover
/// requests up to 128 B).
pub const SMALL_CLASS_GRANULARITY: usize = 16;
/// Number of small size classes (16 B .. 128 B).
pub const SMALL_CLASS_COUNT: usize = 8;
/// Largest request served by a slab class; anything bigger goes to the
/// (expensive) kernel path.
pub const MAX_SLAB_SIZE: usize = 4096;

/// Rounded sizes of all slab classes.
pub const CLASS_SIZES: [usize; 14] = [
    16, 32, 48, 64, 80, 96, 112, 128, // the 8 small classes
    192, 256, 512, 1024, 2048, 4096, // large classes
];

/// Simulated chunk size carved into slab segments.
const CHUNK_BYTES: u64 = 256 * 1024;

/// Pseudo-class index marking a block served by the request arena (see
/// [`SlabAllocator::arena_malloc`]). Distinct from `usize::MAX`, which marks
/// huge kernel-path blocks.
pub const ARENA_CLASS: usize = usize::MAX - 1;

/// Micro-op costs of the software paths (calibrated so that the measured
/// averages land near the paper's 69 / 37 µops; see `tab_uops`).
mod cost {
    /// malloc fast path: size-class lookup + free-list pop.
    pub const MALLOC_FAST: u64 = 62;
    /// malloc carving a fresh segment from the current chunk.
    pub const MALLOC_CARVE: u64 = 150;
    /// malloc needing a new chunk from the kernel.
    pub const MALLOC_REFILL: u64 = 900;
    /// malloc of an over-4096-byte request (kernel mmap path).
    pub const MALLOC_HUGE: u64 = 1800;
    /// free fast path: push onto free list.
    pub const FREE_FAST: u64 = 36;
    /// free of a huge block.
    pub const FREE_HUGE: u64 = 700;
    /// arena bump allocation: limit check + pointer increment.
    pub const ARENA_BUMP: u64 = 10;
    /// arena needing a new chunk from the kernel.
    pub const ARENA_REFILL: u64 = 900;
    /// logical free of an arena block: live-byte accounting only, the
    /// memory itself is reclaimed wholesale at epoch reset.
    pub const ARENA_FREE: u64 = 4;
    /// O(1) epoch reset: rewind the bump pointer, zero the counters.
    pub const ARENA_RESET: u64 = 40;
}

/// A live allocation handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    /// Simulated virtual address (16-byte aligned, never 0).
    pub addr: u64,
    /// Requested size in bytes.
    pub size: usize,
    /// Index into [`CLASS_SIZES`], or `usize::MAX` for huge blocks.
    pub class: usize,
    /// Arena epoch that produced this block ([`ARENA_CLASS`] blocks only;
    /// 0 for free-list and huge blocks, whose validity is tracked through
    /// the allocator's live-block map instead). Lets [`SlabAllocator::free`]
    /// reject a stale handle whose address was recycled by an epoch reset.
    pub epoch: u64,
}

/// One sample of the per-slab live-memory timeline (Figure 8b/8c).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// Allocation-event counter at the time of the sample.
    pub tick: u64,
    /// Live bytes per small class (length [`SMALL_CLASS_COUNT`]).
    pub live_small: [u64; SMALL_CLASS_COUNT],
    /// Live bytes in large classes combined.
    pub live_large: u64,
}

/// Aggregate allocator statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AllocStats {
    /// malloc calls per class index (last slot = huge).
    pub allocs_by_class: Vec<u64>,
    /// free calls per class index (last slot = huge).
    pub frees_by_class: Vec<u64>,
    /// Histogram of requested sizes in 16-byte bins up to 4096 (bin 255 =
    /// huge). Drives the Figure 8a CDF.
    pub size_histogram: Vec<u64>,
    /// Free-list hit count (malloc served without carving).
    pub freelist_hits: u64,
    /// malloc calls total.
    pub mallocs: u64,
    /// free calls total.
    pub frees: u64,
    /// Total µops spent in malloc.
    pub malloc_uops: u64,
    /// Total µops spent in free.
    pub free_uops: u64,
    /// Peak live bytes.
    pub peak_live: u64,
    /// Allocations served by the request arena (bump path).
    pub arena_allocs: u64,
    /// Arena epoch resets performed.
    pub arena_resets: u64,
    /// Bytes reclaimed wholesale by epoch resets (blocks that were still
    /// live when the epoch ended).
    pub arena_bytes_reclaimed: u64,
}

impl AllocStats {
    /// Average micro-ops per malloc (§5.2 reports 69).
    pub fn avg_malloc_uops(&self) -> f64 {
        if self.mallocs == 0 {
            0.0
        } else {
            self.malloc_uops as f64 / self.mallocs as f64
        }
    }

    /// Average micro-ops per free (§5.2 reports 37).
    pub fn avg_free_uops(&self) -> f64 {
        if self.frees == 0 {
            0.0
        } else {
            self.free_uops as f64 / self.frees as f64
        }
    }

    /// Fraction of mallocs requesting at most `bytes` (Figure 8a).
    ///
    /// Total zero — no allocations recorded, or a default-constructed stats
    /// value whose histogram is empty — yields `0.0` rather than dividing
    /// by (or indexing into) nothing.
    pub fn cdf_at(&self, bytes: usize) -> f64 {
        if self.size_histogram.is_empty() {
            return 0.0;
        }
        let total: u64 = self.size_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let bin = (bytes / SMALL_CLASS_GRANULARITY).min(self.size_histogram.len() - 1);
        let cum: u64 = self.size_histogram[..=bin].iter().sum();
        cum as f64 / total as f64
    }
}

/// Summary of one arena epoch reset (see [`SlabAllocator::reset_arena_epoch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaEpochReport {
    /// Arena blocks still live when the epoch ended, reclaimed wholesale.
    pub blocks_reclaimed: u64,
    /// Bytes those blocks occupied.
    pub bytes_reclaimed: u64,
    /// µops the free-list teardown of those blocks would have cost, minus
    /// the constant reset cost actually charged.
    pub uops_saved: u64,
}

/// Per-request bump arena. Arena blocks are never entered into
/// `live_blocks` or any free list — their liveness is a handful of counters,
/// which is what makes the end-of-epoch reset O(1).
struct ArenaState {
    /// Bump pointer within the current arena chunk.
    bump: u64,
    /// Starts of every chunk the arena owns, in acquisition order. Chunks
    /// are retained across epochs: a reset rewinds to `chunks[0]` and later
    /// refills walk this list before asking the kernel for a fresh range,
    /// so multi-chunk epochs recycle their whole address space too.
    chunks: Vec<u64>,
    /// Index into `chunks` of the chunk `bump` points into.
    cur_chunk: usize,
    /// End of the current chunk.
    chunk_end: u64,
    /// Monotonically increasing epoch id (starts at 1), stamped into every
    /// arena [`Block`] so frees can reject stale handles from an earlier
    /// epoch whose addresses have been recycled.
    epoch: u64,
    /// Addresses logically freed this epoch — double-free detection for
    /// the arena path, mirroring the free-list path's `live_blocks` panic.
    /// Simulator integrity state only (like `live_blocks` itself): its
    /// maintenance charges no simulated µops.
    freed: AddrSet,
    /// Live arena blocks (allocated minus logically freed) this epoch.
    block_count: u64,
    /// Live arena bytes per slab class this epoch. Fixed-size, so zeroing
    /// it at reset is a constant-time operation.
    live_by_class: [u64; CLASS_SIZES.len()],
}

impl ArenaState {
    fn new() -> Self {
        ArenaState {
            bump: 0,
            chunks: Vec::new(),
            cur_chunk: 0,
            chunk_end: 0,
            epoch: 1,
            freed: AddrSet::default(),
            block_count: 0,
            live_by_class: [0; CLASS_SIZES.len()],
        }
    }

    fn live_bytes(&self) -> u64 {
        self.live_by_class.iter().sum()
    }

    /// Whether the bump state is already fully rewound (nothing allocated
    /// since the last reset).
    fn rewound(&self) -> bool {
        match self.chunks.first() {
            Some(&first) => self.cur_chunk == 0 && self.bump == first,
            None => true,
        }
    }
}

struct SizeClass {
    /// Segment size in bytes.
    size: usize,
    /// Free segment addresses (LIFO for reuse locality).
    free: Vec<u64>,
    /// Bump pointer within the current chunk.
    bump: u64,
    /// End of the current chunk.
    chunk_end: u64,
    /// Live bytes.
    live: u64,
}

/// The software slab allocator.
///
/// All methods take a [`Profiler`] so costs are attributed to the
/// `malloc`/`free` leaf functions in the [`Category::Heap`] category.
pub struct SlabAllocator {
    classes: Vec<SizeClass>,
    /// addr -> (class index, requested size); huge blocks use class=usize::MAX.
    live_blocks: AddrMap<(usize, usize)>,
    next_addr: u64,
    stats: AllocStats,
    timeline: Vec<TimelineSample>,
    /// Allocation events between timeline samples; 0 means the timeline is
    /// off (see [`SlabAllocator::set_timeline_interval`]).
    timeline_interval: u64,
    tick: u64,
    total_live: u64,
    /// Per-request memory ceiling (the `memory_limit` ini analogue). `None`
    /// means unlimited.
    memory_limit: Option<u64>,
    /// Request arena (epoch) state.
    arena: ArenaState,
    /// Whether [`arena_malloc`] bump-allocates or falls through to the
    /// free-list path. Off by default; flipped per-machine by callers that
    /// trust the region analysis.
    ///
    /// [`arena_malloc`]: SlabAllocator::arena_malloc
    arena_enabled: bool,
}

impl std::fmt::Debug for SlabAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabAllocator")
            .field("live_blocks", &self.live_blocks.len())
            .field("total_live", &self.total_live)
            .field("tick", &self.tick)
            .finish()
    }
}

impl Default for SlabAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl SlabAllocator {
    /// Creates an allocator with the standard class layout.
    pub fn new() -> Self {
        let classes = CLASS_SIZES
            .iter()
            .map(|&size| SizeClass {
                size,
                free: Vec::new(),
                bump: 0,
                chunk_end: 0,
                live: 0,
            })
            .collect();
        SlabAllocator {
            classes,
            live_blocks: AddrMap::default(),
            next_addr: 0x1000,
            stats: AllocStats {
                allocs_by_class: vec![0; CLASS_SIZES.len() + 1],
                frees_by_class: vec![0; CLASS_SIZES.len() + 1],
                size_histogram: vec![0; 257],
                ..Default::default()
            },
            timeline: Vec::new(),
            timeline_interval: 0,
            tick: 0,
            total_live: 0,
            memory_limit: None,
            arena: ArenaState::new(),
            arena_enabled: false,
        }
    }

    /// Turns the request-arena mode on or off. Affects only
    /// [`arena_malloc`]; `malloc` always uses the free-list path.
    ///
    /// [`arena_malloc`]: SlabAllocator::arena_malloc
    pub fn set_arena_enabled(&mut self, enabled: bool) {
        self.arena_enabled = enabled;
    }

    /// Whether arena mode is on.
    pub fn arena_enabled(&self) -> bool {
        self.arena_enabled
    }

    /// Sets the per-request memory ceiling (`None` = unlimited). When an
    /// allocation would push live bytes past the ceiling, [`malloc`] panics
    /// with an "Allowed memory size ... exhausted" message the request
    /// sandbox catches and converts into an OOM outcome.
    ///
    /// [`malloc`]: SlabAllocator::malloc
    pub fn set_memory_limit(&mut self, limit: Option<u64>) {
        self.memory_limit = limit;
    }

    /// The configured memory ceiling, if any.
    pub fn memory_limit(&self) -> Option<u64> {
        self.memory_limit
    }

    fn check_memory_limit(&self, incoming: usize) {
        if let Some(limit) = self.memory_limit {
            if self.total_live + incoming as u64 > limit {
                panic!(
                    "Allowed memory size of {limit} bytes exhausted \
                     (tried to allocate {incoming} bytes)"
                );
            }
        }
    }

    /// Turns the live-memory timeline on, sampling it every `every`
    /// allocation events. It is off by default: the timeline is a
    /// measurement instrument (Figure 8), and a sample kept per 64 events
    /// would grow a serving machine's host memory with every request.
    pub fn set_timeline_interval(&mut self, every: u64) {
        self.timeline_interval = every.max(1);
    }

    /// Index of the slab class serving `size`, or `None` for huge requests.
    pub fn class_for(size: usize) -> Option<usize> {
        if size == 0 || size > MAX_SLAB_SIZE {
            return None;
        }
        Some(match CLASS_SIZES.binary_search(&size) {
            Ok(i) => i,
            Err(i) => i,
        })
    }

    /// Allocates `size` bytes.
    ///
    /// Charges the software malloc cost to the profiler and returns a
    /// simulated block. Zero-size requests are rounded up to 1 byte.
    pub fn malloc(&mut self, size: usize, prof: &Profiler) -> Block {
        let size = size.max(1);
        self.check_memory_limit(size);
        self.tick += 1;
        self.stats.mallocs += 1;
        let bin = (size / SMALL_CLASS_GRANULARITY).min(256);
        self.stats.size_histogram[bin] += 1;

        let block = match Self::class_for(size) {
            Some(ci) => {
                let (addr, uops) = self.small_alloc(ci);
                self.stats.allocs_by_class[ci] += 1;
                self.stats.malloc_uops += uops;
                prof.record(&SLAB_MALLOC, OpCost::mixed(uops));
                self.classes[ci].live += self.classes[ci].size as u64;
                self.total_live += self.classes[ci].size as u64;
                self.live_blocks.insert(addr, (ci, size));
                Block {
                    addr,
                    size,
                    class: ci,
                    epoch: 0,
                }
            }
            None => {
                let addr = self.fresh_range(size as u64);
                *self.stats.allocs_by_class.last_mut().unwrap() += 1;
                self.stats.malloc_uops += cost::MALLOC_HUGE;
                prof.record(&KERNEL_MMAP_ALLOC, OpCost::mixed(cost::MALLOC_HUGE));
                self.total_live += size as u64;
                self.live_blocks.insert(addr, (usize::MAX, size));
                Block {
                    addr,
                    size,
                    class: usize::MAX,
                    epoch: 0,
                }
            }
        };
        self.stats.peak_live = self.stats.peak_live.max(self.total_live);
        self.sample_if_due();
        block
    }

    fn small_alloc(&mut self, ci: usize) -> (u64, u64) {
        if let Some(addr) = self.classes[ci].free.pop() {
            self.stats.freelist_hits += 1;
            return (addr, cost::MALLOC_FAST);
        }
        let seg = self.classes[ci].size as u64;
        if self.classes[ci].bump + seg > self.classes[ci].chunk_end {
            let start = self.fresh_range(CHUNK_BYTES);
            self.classes[ci].bump = start;
            self.classes[ci].chunk_end = start + CHUNK_BYTES;
            let addr = self.classes[ci].bump;
            self.classes[ci].bump += seg;
            return (addr, cost::MALLOC_REFILL);
        }
        let addr = self.classes[ci].bump;
        self.classes[ci].bump += seg;
        (addr, cost::MALLOC_CARVE)
    }

    /// Allocates `size` bytes from the request arena when arena mode is on
    /// and the size fits a slab class; otherwise behaves exactly like
    /// [`malloc`](SlabAllocator::malloc).
    ///
    /// Arena blocks bump-allocate at a fraction of the free-list cost and
    /// are reclaimed wholesale by [`reset_arena_epoch`]. They charge the
    /// same rounded (class) size against `total_live` as the free-list path
    /// would, so memory-limit behaviour is identical in both modes. Huge
    /// (>4096 B) requests always take the kernel path: they are not
    /// request-churn, and keeping them out of the arena keeps the epoch
    /// cheap to reason about.
    ///
    /// [`reset_arena_epoch`]: SlabAllocator::reset_arena_epoch
    pub fn arena_malloc(&mut self, size: usize, prof: &Profiler) -> Block {
        if !self.arena_enabled {
            return self.malloc(size, prof);
        }
        let size = size.max(1);
        let Some(ci) = Self::class_for(size) else {
            return self.malloc(size, prof);
        };
        let rounded = CLASS_SIZES[ci] as u64;
        self.check_memory_limit(size);
        self.tick += 1;
        self.stats.mallocs += 1;
        self.stats.arena_allocs += 1;
        let bin = (size / SMALL_CLASS_GRANULARITY).min(256);
        self.stats.size_histogram[bin] += 1;
        self.stats.allocs_by_class[ci] += 1;
        let uops = if self.arena.bump + rounded > self.arena.chunk_end {
            if self.arena.cur_chunk + 1 < self.arena.chunks.len() {
                // Advance into a chunk the arena already owns (recycled by
                // an earlier epoch reset) — a pointer swap, no kernel trip.
                self.arena.cur_chunk += 1;
                let start = self.arena.chunks[self.arena.cur_chunk];
                self.arena.bump = start;
                self.arena.chunk_end = start + CHUNK_BYTES;
                cost::ARENA_BUMP
            } else {
                let start = self.fresh_range(CHUNK_BYTES);
                self.arena.chunks.push(start);
                self.arena.cur_chunk = self.arena.chunks.len() - 1;
                self.arena.bump = start;
                self.arena.chunk_end = start + CHUNK_BYTES;
                cost::ARENA_REFILL
            }
        } else {
            cost::ARENA_BUMP
        };
        let addr = self.arena.bump;
        self.arena.bump += rounded;
        self.stats.malloc_uops += uops;
        prof.record(&ARENA_BUMP_ALLOC, OpCost::mixed(uops));
        self.arena.block_count += 1;
        self.arena.live_by_class[ci] += rounded;
        self.total_live += rounded;
        self.stats.peak_live = self.stats.peak_live.max(self.total_live);
        self.sample_if_due();
        Block {
            addr,
            size,
            class: ARENA_CLASS,
            epoch: self.arena.epoch,
        }
    }

    /// Logical free of an arena block: cheap counter updates so live-byte
    /// and live-block accounting stay in lockstep with free-list mode. The
    /// address itself is not recycled until [`reset_arena_epoch`].
    ///
    /// # Panics
    ///
    /// Like the free-list path, panics on double free or on a stale handle
    /// from a previous epoch (whose address an epoch reset may have handed
    /// to a different block) — simulation bugs, not recoverable conditions.
    ///
    /// [`reset_arena_epoch`]: SlabAllocator::reset_arena_epoch
    fn arena_free(&mut self, block: Block, prof: &Profiler) {
        let ci = Self::class_for(block.size).expect("arena block with non-slab size");
        let rounded = CLASS_SIZES[ci] as u64;
        assert_eq!(
            block.epoch, self.arena.epoch,
            "arena free of a stale block from a previous epoch"
        );
        assert!(
            self.arena.freed.insert(block.addr),
            "arena double free at {:#x}",
            block.addr
        );
        assert!(
            self.arena.block_count > 0 && self.arena.live_by_class[ci] >= rounded,
            "arena free without a matching live arena block"
        );
        self.tick += 1;
        self.stats.frees += 1;
        self.stats.frees_by_class[ci] += 1;
        self.stats.free_uops += cost::ARENA_FREE;
        prof.record(&ARENA_LOGICAL_FREE, OpCost::mixed(cost::ARENA_FREE));
        self.arena.block_count -= 1;
        self.arena.live_by_class[ci] -= rounded;
        self.total_live -= rounded;
        self.sample_if_due();
    }

    /// Ends the current arena epoch in O(1): every arena block still live is
    /// reclaimed by rewinding the bump pointer and zeroing the (fixed-size)
    /// counters — no per-block walk, no free-list pushes. Charges a single
    /// constant reset cost and reports what a free-list teardown of the same
    /// blocks would have cost instead.
    ///
    /// Sound only if no arena block is referenced after the reset — the
    /// contract the region analysis (`php-analysis::region`) certifies per
    /// allocation site.
    pub fn reset_arena_epoch(&mut self, prof: &Profiler) -> ArenaEpochReport {
        let blocks = self.arena.block_count;
        let bytes = self.arena.live_bytes();
        if blocks == 0 && bytes == 0 && self.arena.rewound() {
            // Nothing allocated since the last reset: no handles to
            // invalidate, so the epoch id need not advance either.
            return ArenaEpochReport::default();
        }
        self.tick += 1;
        self.stats.arena_resets += 1;
        self.stats.arena_bytes_reclaimed += bytes;
        self.stats.free_uops += cost::ARENA_RESET;
        prof.record(&ARENA_EPOCH_RESET, OpCost::mixed(cost::ARENA_RESET));
        self.total_live -= bytes;
        self.arena.block_count = 0;
        self.arena.live_by_class = [0; CLASS_SIZES.len()];
        // Rewind to the *first* owned chunk: chunks acquired by a spilling
        // epoch stay owned and are reused by later refills, so the epoch's
        // whole address range recycles, not just its last chunk.
        self.arena.cur_chunk = 0;
        if let Some(&first) = self.arena.chunks.first() {
            self.arena.bump = first;
            self.arena.chunk_end = first + CHUNK_BYTES;
        }
        self.arena.epoch += 1;
        self.arena.freed.clear();
        self.sample_if_due();
        ArenaEpochReport {
            blocks_reclaimed: blocks,
            bytes_reclaimed: bytes,
            uops_saved: (blocks * cost::FREE_FAST).saturating_sub(cost::ARENA_RESET),
        }
    }

    /// Live arena blocks this epoch.
    pub fn arena_block_count(&self) -> usize {
        self.arena.block_count as usize
    }

    /// Live arena bytes this epoch.
    pub fn arena_live_bytes(&self) -> u64 {
        self.arena.live_bytes()
    }

    fn fresh_range(&mut self, bytes: u64) -> u64 {
        let addr = self.next_addr;
        self.next_addr += (bytes + 15) & !15;
        addr
    }

    /// Frees a previously allocated block.
    ///
    /// # Panics
    ///
    /// Panics on double free or on a block this allocator never produced —
    /// those are simulation bugs, not recoverable conditions.
    pub fn free(&mut self, block: Block, prof: &Profiler) {
        if block.class == ARENA_CLASS {
            self.arena_free(block, prof);
            return;
        }
        let (ci, size) = self
            .live_blocks
            .remove(&block.addr)
            .expect("free of unknown or already-freed block");
        assert_eq!(size, block.size, "free with mismatched size");
        self.tick += 1;
        self.stats.frees += 1;
        if ci == usize::MAX {
            *self.stats.frees_by_class.last_mut().unwrap() += 1;
            self.stats.free_uops += cost::FREE_HUGE;
            prof.record(&KERNEL_MMAP_FREE, OpCost::mixed(cost::FREE_HUGE));
            self.total_live -= size as u64;
        } else {
            self.stats.frees_by_class[ci] += 1;
            self.stats.free_uops += cost::FREE_FAST;
            prof.record(&SLAB_FREE, OpCost::mixed(cost::FREE_FAST));
            self.classes[ci].free.push(block.addr);
            self.classes[ci].live -= self.classes[ci].size as u64;
            self.total_live -= self.classes[ci].size as u64;
        }
        self.sample_if_due();
    }

    /// Pops a free segment of class `ci` *without* charging the malloc cost
    /// — used by the hardware heap manager's prefetcher to refill hardware
    /// free lists (§4.3). Returns `None` when the software free list is
    /// empty (the prefetcher then triggers a carve at software cost).
    pub fn steal_free_segment(&mut self, ci: usize) -> Option<u64> {
        self.classes.get_mut(ci)?.free.pop()
    }

    /// Carves a fresh segment for class `ci` on behalf of the hardware heap
    /// manager, charging the software cost. Used when the prefetcher misses.
    pub fn carve_for_hardware(&mut self, ci: usize, prof: &Profiler) -> u64 {
        let (addr, uops) = self.small_alloc(ci);
        prof.record(&SLAB_MALLOC, OpCost::mixed(uops));
        self.stats.malloc_uops += uops;
        self.stats.mallocs += 1;
        self.stats.allocs_by_class[ci] += 1;
        addr
    }

    /// Returns a segment to class `ci`'s software free list on behalf of the
    /// hardware heap manager (overflow eviction / `hmflush`).
    pub fn return_segment(&mut self, ci: usize, addr: u64) {
        self.classes[ci].free.push(addr);
    }

    /// Registers a hardware-served allocation so the live-memory accounting
    /// stays correct (the hardware manager serves the request, but the block
    /// is logically part of the heap).
    pub fn note_hardware_alloc(&mut self, ci: usize, addr: u64, size: usize) {
        self.check_memory_limit(size);
        self.tick += 1;
        let bin = (size / SMALL_CLASS_GRANULARITY).min(256);
        self.stats.size_histogram[bin] += 1;
        self.classes[ci].live += self.classes[ci].size as u64;
        self.total_live += self.classes[ci].size as u64;
        self.stats.peak_live = self.stats.peak_live.max(self.total_live);
        self.live_blocks.insert(addr, (ci, size));
        self.sample_if_due();
    }

    /// Unregisters a hardware-served free.
    pub fn note_hardware_free(&mut self, addr: u64) {
        if let Some((ci, _size)) = self.live_blocks.remove(&addr) {
            if ci != usize::MAX {
                self.classes[ci].live -= self.classes[ci].size as u64;
                self.total_live -= self.classes[ci].size as u64;
            }
        }
        self.tick += 1;
        self.sample_if_due();
    }

    /// Takes a timeline sample when the timeline is on and this event is
    /// due.
    fn sample_if_due(&mut self) {
        if self.timeline_interval != 0 && self.tick.is_multiple_of(self.timeline_interval) {
            self.sample_timeline();
        }
    }

    fn sample_timeline(&mut self) {
        let mut live_small = [0u64; SMALL_CLASS_COUNT];
        for (i, slot) in live_small.iter_mut().enumerate() {
            *slot = self.classes[i].live + self.arena.live_by_class[i];
        }
        let live_large: u64 = self.classes[SMALL_CLASS_COUNT..]
            .iter()
            .map(|c| c.live)
            .sum::<u64>()
            + self.arena.live_by_class[SMALL_CLASS_COUNT..]
                .iter()
                .sum::<u64>();
        self.timeline.push(TimelineSample {
            tick: self.tick,
            live_small,
            live_large,
        });
    }

    /// Live bytes right now.
    pub fn live_bytes(&self) -> u64 {
        self.total_live
    }

    /// Number of live blocks, counting arena blocks not yet reclaimed —
    /// kept in lockstep with free-list mode so differential live-block
    /// checks see identical counts whether arena mode is on or off.
    pub fn live_block_count(&self) -> usize {
        self.live_blocks.len() + self.arena.block_count as usize
    }

    /// Aggregate statistics (Figure 8a, §5.2 µop table).
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// The live-memory timeline (Figure 8b/8c); empty unless
    /// [`SlabAllocator::set_timeline_interval`] turned it on.
    pub fn timeline(&self) -> &[TimelineSample] {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof() -> Profiler {
        Profiler::new()
    }

    #[test]
    fn class_for_rounds_up() {
        assert_eq!(SlabAllocator::class_for(1), Some(0));
        assert_eq!(SlabAllocator::class_for(16), Some(0));
        assert_eq!(SlabAllocator::class_for(17), Some(1));
        assert_eq!(SlabAllocator::class_for(128), Some(7));
        assert_eq!(SlabAllocator::class_for(129), Some(8));
        assert_eq!(SlabAllocator::class_for(4096), Some(13));
        assert_eq!(SlabAllocator::class_for(4097), None);
        assert_eq!(SlabAllocator::class_for(0), None);
    }

    #[test]
    fn malloc_free_roundtrip_reuses_address() {
        let mut a = SlabAllocator::new();
        let p = prof();
        let b1 = a.malloc(24, &p);
        a.free(b1, &p);
        let b2 = a.malloc(30, &p); // same class (32B)
        assert_eq!(b1.addr, b2.addr, "LIFO free list should recycle");
        assert_eq!(a.stats().freelist_hits, 1);
    }

    #[test]
    fn live_accounting_balances() {
        let mut a = SlabAllocator::new();
        let p = prof();
        let blocks: Vec<Block> = (0..100).map(|i| a.malloc(8 + i % 120, &p)).collect();
        assert_eq!(a.live_block_count(), 100);
        assert!(a.live_bytes() > 0);
        for b in blocks {
            a.free(b, &p);
        }
        assert_eq!(a.live_block_count(), 0);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "free of unknown")]
    fn double_free_panics() {
        let mut a = SlabAllocator::new();
        let p = prof();
        let b = a.malloc(16, &p);
        a.free(b, &p);
        a.free(b, &p);
    }

    #[test]
    #[should_panic(expected = "Allowed memory size")]
    fn memory_limit_exceeded_panics() {
        let mut a = SlabAllocator::new();
        let p = prof();
        a.set_memory_limit(Some(64));
        let _ = a.malloc(32, &p);
        let _ = a.malloc(64, &p); // 32 (rounded) + 64 > 64 → OOM
    }

    #[test]
    fn memory_limit_cleared_allows_allocation() {
        let mut a = SlabAllocator::new();
        let p = prof();
        a.set_memory_limit(Some(16));
        a.set_memory_limit(None);
        let b = a.malloc(4096, &p);
        a.free(b, &p);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn huge_allocation_uses_kernel_path() {
        let mut a = SlabAllocator::new();
        let p = prof();
        let b = a.malloc(100_000, &p);
        assert_eq!(b.class, usize::MAX);
        assert!(p.function("kernel_mmap_alloc").is_some());
        a.free(b, &p);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn avg_costs_near_paper_with_reuse() {
        // With strong memory reuse (paper §4.3) nearly every malloc hits the
        // free list, so the average should approach the fast-path cost and
        // land in the neighbourhood of the paper's 69 µops.
        let mut a = SlabAllocator::new();
        let p = prof();
        for _ in 0..2000 {
            let b1 = a.malloc(48, &p);
            let b2 = a.malloc(96, &p);
            a.free(b1, &p);
            a.free(b2, &p);
        }
        let avg = a.stats().avg_malloc_uops();
        assert!((55.0..85.0).contains(&avg), "avg malloc µops {avg}");
        let avg_f = a.stats().avg_free_uops();
        assert!((30.0..45.0).contains(&avg_f), "avg free µops {avg_f}");
    }

    #[test]
    fn size_cdf_reflects_small_dominance() {
        let mut a = SlabAllocator::new();
        let p = prof();
        let mut live = Vec::new();
        for i in 0..1000 {
            let size = if i % 10 == 0 { 600 } else { 16 + (i % 8) * 16 };
            live.push(a.malloc(size, &p));
        }
        let cdf128 = a.stats().cdf_at(128);
        assert!(cdf128 > 0.85, "≤128B should dominate, got {cdf128}");
        for b in live {
            a.free(b, &p);
        }
    }

    #[test]
    fn timeline_records_flat_reuse() {
        let mut a = SlabAllocator::new();
        a.set_timeline_interval(8);
        let p = prof();
        // Steady-state churn: allocate 4, free 4, repeatedly.
        for _ in 0..200 {
            let bs: Vec<Block> = (0..4).map(|_| a.malloc(32, &p)).collect();
            for b in bs {
                a.free(b, &p);
            }
        }
        let tl = a.timeline();
        assert!(tl.len() > 10);
        // Live memory for the 32B class stays bounded (strong reuse ⇒ flat).
        let max_live = tl.iter().map(|s| s.live_small[1]).max().unwrap();
        assert!(max_live <= 4 * 32);
    }

    #[test]
    fn timeline_is_off_until_an_interval_is_set() {
        let mut a = SlabAllocator::new();
        let p = prof();
        for _ in 0..500 {
            let b = a.malloc(32, &p);
            a.free(b, &p);
        }
        assert!(a.timeline().is_empty());
        a.set_timeline_interval(64);
        for _ in 0..64 {
            let b = a.malloc(32, &p);
            a.free(b, &p);
        }
        assert_eq!(a.timeline().len(), 2);
    }

    #[test]
    fn zero_request_stats_are_all_zero() {
        // Satellite: division-by-zero / empty-state hardening. A freshly
        // built allocator and a default-constructed AllocStats (empty
        // histogram!) must both answer without panicking.
        let a = SlabAllocator::new();
        assert_eq!(a.stats().avg_malloc_uops(), 0.0);
        assert_eq!(a.stats().avg_free_uops(), 0.0);
        assert_eq!(a.stats().cdf_at(0), 0.0);
        assert_eq!(a.stats().cdf_at(128), 0.0);
        assert_eq!(a.stats().cdf_at(usize::MAX), 0.0);
        assert!(a.timeline().is_empty());

        let empty = AllocStats::default();
        assert!(empty.size_histogram.is_empty());
        assert_eq!(empty.cdf_at(64), 0.0);
        assert_eq!(empty.avg_malloc_uops(), 0.0);
        assert_eq!(empty.avg_free_uops(), 0.0);
    }

    #[test]
    fn arena_disabled_falls_through_to_freelist() {
        let mut a = SlabAllocator::new();
        let p = prof();
        let b = a.arena_malloc(32, &p);
        assert_ne!(b.class, ARENA_CLASS);
        assert_eq!(a.arena_block_count(), 0);
        a.free(b, &p);
        assert_eq!(a.live_block_count(), 0);
    }

    #[test]
    fn arena_alloc_and_logical_free_balance() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        let p = prof();
        let b1 = a.arena_malloc(24, &p); // class 1 → 32 B
        let b2 = a.arena_malloc(100, &p); // class 6 → 112 B
        assert_eq!(b1.class, ARENA_CLASS);
        assert_eq!(a.arena_block_count(), 2);
        assert_eq!(a.live_block_count(), 2);
        assert_eq!(a.live_bytes(), 32 + 112);
        assert_eq!(a.arena_live_bytes(), 32 + 112);
        a.free(b1, &p);
        assert_eq!(a.arena_block_count(), 1);
        assert_eq!(a.live_bytes(), 112);
        a.free(b2, &p);
        assert_eq!(a.live_block_count(), 0);
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.stats().arena_allocs, 2);
    }

    #[test]
    fn arena_epoch_reset_reclaims_everything_in_one_op() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        let p = prof();
        for _ in 0..50 {
            let _ = a.arena_malloc(48, &p);
        }
        assert_eq!(a.arena_block_count(), 50);
        let frees_before = a.stats().frees;
        let report = a.reset_arena_epoch(&p);
        assert_eq!(report.blocks_reclaimed, 50);
        assert_eq!(report.bytes_reclaimed, 50 * 48);
        assert_eq!(report.uops_saved, 50 * cost::FREE_FAST - cost::ARENA_RESET);
        assert_eq!(a.arena_block_count(), 0);
        assert_eq!(a.live_block_count(), 0);
        assert_eq!(a.live_bytes(), 0);
        // O(1): the reset retires no per-block free events.
        assert_eq!(a.stats().frees, frees_before);
        assert_eq!(a.stats().arena_resets, 1);
        assert_eq!(a.stats().arena_bytes_reclaimed, 50 * 48);
        // An empty epoch resets to a no-op report.
        let empty = a.reset_arena_epoch(&p);
        assert_eq!(empty, ArenaEpochReport::default());
    }

    #[test]
    fn arena_reset_recycles_chunk_addresses() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        let p = prof();
        let first = a.arena_malloc(64, &p);
        let _ = a.arena_malloc(64, &p);
        a.reset_arena_epoch(&p);
        let again = a.arena_malloc(64, &p);
        assert_eq!(again.addr, first.addr, "reset rewinds the bump pointer");
    }

    #[test]
    #[should_panic(expected = "arena double free")]
    fn arena_double_free_panics() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        let p = prof();
        let b = a.arena_malloc(32, &p);
        // A second live block of the same class keeps the aggregate
        // counters satisfied — only the per-address check can catch this.
        let _live = a.arena_malloc(32, &p);
        a.free(b, &p);
        a.free(b, &p);
    }

    #[test]
    #[should_panic(expected = "stale block from a previous epoch")]
    fn arena_stale_epoch_free_panics() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        let p = prof();
        let stale = a.arena_malloc(32, &p);
        a.reset_arena_epoch(&p);
        // The reset recycled the address: this block now owns it.
        let fresh = a.arena_malloc(32, &p);
        assert_eq!(stale.addr, fresh.addr);
        a.free(stale, &p);
    }

    #[test]
    fn arena_multi_chunk_epoch_recycles_every_chunk() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        let p = prof();
        // 64 blocks of the 4096-byte class fill one 256 KiB chunk; the
        // 65th spills into a second. Both chunks must recycle on reset.
        let first: Vec<u64> = (0..65).map(|_| a.arena_malloc(4096, &p).addr).collect();
        a.reset_arena_epoch(&p);
        let second: Vec<u64> = (0..65).map(|_| a.arena_malloc(4096, &p).addr).collect();
        assert_eq!(
            first, second,
            "reset must rewind to the epoch's first chunk"
        );
    }

    #[test]
    fn arena_huge_requests_take_kernel_path() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        let p = prof();
        let b = a.arena_malloc(100_000, &p);
        assert_eq!(b.class, usize::MAX);
        assert_eq!(a.arena_block_count(), 0);
        a.free(b, &p);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn arena_respects_memory_limit_like_freelist_mode() {
        // Arena charges the same rounded class size against total_live as
        // the free-list path, so OOM behaviour is mode-independent.
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        a.set_memory_limit(Some(64));
        let p = prof();
        let _ = a.arena_malloc(32, &p);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = a.arena_malloc(64, &p);
        }));
        assert!(r.is_err(), "32 (rounded) + 64 > 64 must OOM in arena mode");
    }

    #[test]
    fn arena_timeline_includes_arena_live_bytes() {
        let mut a = SlabAllocator::new();
        a.set_arena_enabled(true);
        a.set_timeline_interval(1);
        let p = prof();
        let _ = a.arena_malloc(32, &p); // small class 1
        let _ = a.arena_malloc(600, &p); // large class (1024)
        let last = a.timeline().last().unwrap().clone();
        assert_eq!(last.live_small[1], 32);
        assert_eq!(last.live_large, 1024);
    }

    #[test]
    fn hardware_interop_keeps_accounting() {
        let mut a = SlabAllocator::new();
        let p = prof();
        let b = a.malloc(32, &p);
        a.free(b, &p);
        // Prefetcher steals the freed segment for the hardware free list.
        let seg = a.steal_free_segment(1).unwrap();
        assert_eq!(seg, b.addr);
        // Hardware serves an allocation from it.
        a.note_hardware_alloc(1, seg, 30);
        assert_eq!(a.live_block_count(), 1);
        a.note_hardware_free(seg);
        assert_eq!(a.live_block_count(), 0);
        // Overflow: hardware returns the segment to software.
        a.return_segment(1, seg);
        let again = a.malloc(32, &p);
        assert_eq!(again.addr, seg);
    }
}
