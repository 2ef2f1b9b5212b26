//! # accel-heap
//!
//! Model of the ISCA 2017 paper's **hardware heap manager** (§4.3,
//! Figure 9): a comparator bounding requests to 128 bytes, a size-class
//! table of 8 slabs, 32-entry hardware free lists with head/tail pointers,
//! and a pointer-chasing prefetcher that refills them from the software
//! slab allocator. Memory's heap structures are updated **lazily** — only
//! on overflow or context switch (`hmflush`) — in contrast to eager
//! Mallacc-style designs (exposed as an ablation via
//! [`UpdatePolicy::Eager`]).
//!
//! ```
//! use accel_heap::{HwHeapManager, MallocOutcome};
//! use php_runtime::{alloc::SlabAllocator, Profiler};
//!
//! let mut hm = HwHeapManager::default();
//! let mut alloc = SlabAllocator::new();
//! let prof = Profiler::new();
//! let block = hm.hmmalloc(48, &mut alloc, &prof);
//! let addr = block.addr().expect("served");
//! hm.hmfree(addr, 48, &mut alloc, &prof);
//! assert!(matches!(hm.hmmalloc(48, &mut alloc, &prof), MallocOutcome::Hit { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod freelist;
pub mod manager;
pub mod prefetch;
pub mod size_class;

pub use freelist::HwFreeList;
pub use manager::{FreeOutcome, HeapConfig, HeapStats, HwHeapManager, MallocOutcome, UpdatePolicy};
pub use prefetch::{PrefetchConfig, Prefetcher};
pub use size_class::{SizeClassTable, HW_CLASS_COUNT, MAX_HW_REQUEST};
