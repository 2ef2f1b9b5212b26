//! Pointer-based free-list prefetcher.
//!
//! §4.3: "A prefetcher ensures that the free lists stay populated with
//! available memory blocks so that a request for memory allocation can hide
//! the latency of software involvement whenever possible. We use a
//! pointer-based prefetcher to prefetch the next available memory blocks
//! from the software heap manager structure."
//!
//! The model: when a hardware free list drops below its low watermark, the
//! prefetcher walks the software free list (pointer chasing, off the
//! critical path) and queues blocks for the hardware tail. Each prefetch
//! completes after a fixed latency measured in manager operations — if the
//! core allocates faster than the prefetcher can chase pointers, misses
//! still happen, which is what makes the 32-entry list depth meaningful.

use crate::size_class::HW_CLASS_COUNT;
use php_runtime::alloc::SlabAllocator;

/// An in-flight prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inflight {
    class: usize,
    addr: u64,
    completes_at: u64,
}

/// Prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Refill when a list has fewer than this many entries.
    pub low_watermark: usize,
    /// Target fill level after refilling.
    pub high_watermark: usize,
    /// Completion latency in manager operations (memory round-trip).
    pub latency_ops: u64,
    /// Maximum outstanding prefetches (MSHR-like bound).
    pub max_inflight: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            low_watermark: 8,
            high_watermark: 24,
            latency_ops: 4,
            max_inflight: 16,
        }
    }
}

/// The prefetcher.
#[derive(Debug)]
pub struct Prefetcher {
    cfg: PrefetchConfig,
    inflight: Vec<Inflight>,
    /// Completed prefetches per class, ready to land in hardware tails.
    issued: u64,
    landed: u64,
    /// No software block was available to steal when asked.
    dry_misses: u64,
    enabled: bool,
}

impl Prefetcher {
    /// Creates a prefetcher.
    pub fn new(cfg: PrefetchConfig) -> Self {
        Prefetcher {
            cfg,
            inflight: Vec::new(),
            issued: 0,
            landed: 0,
            dry_misses: 0,
            enabled: true,
        }
    }

    /// Enables/disables prefetching (ablation hook).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether prefetching is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// `(issued, landed, dry_misses)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.issued, self.landed, self.dry_misses)
    }

    /// Considers issuing prefetches for `class` given its current hardware
    /// free-list length. Steals block addresses from the software allocator's
    /// free list (no core cost — pointer chasing happens off critical path).
    /// `now` must not decrease from call to call: with one fixed latency,
    /// prefetches then complete in the order they were issued.
    pub fn maybe_issue(
        &mut self,
        class: usize,
        hw_len: usize,
        now: u64,
        alloc: &mut SlabAllocator,
    ) {
        assert!(class < HW_CLASS_COUNT);
        if !self.enabled || hw_len >= self.cfg.low_watermark {
            return;
        }
        let inflight_for_class = self.inflight.iter().filter(|p| p.class == class).count();
        let want = self
            .cfg
            .high_watermark
            .saturating_sub(hw_len + inflight_for_class)
            .min(self.cfg.max_inflight.saturating_sub(self.inflight.len()));
        for _ in 0..want {
            // The software allocator's slab classes are finer (16B) than a
            // direct 1:1 map would suggest; the runtime wires hardware class
            // i to software class of the same segment size (2*(i+1)*8 bytes
            // = software class index 2i+1 with 16B granularity... the
            // manager passes the right software class in `sw_class`).
            match alloc.steal_free_segment(sw_class_for(class)) {
                Some(addr) => {
                    self.issued += 1;
                    self.inflight.push(Inflight {
                        class,
                        addr,
                        completes_at: now + self.cfg.latency_ops,
                    });
                }
                None => {
                    self.dry_misses += 1;
                    break;
                }
            }
        }
    }

    /// Drains prefetches that have completed by `now`, oldest first; the
    /// manager pushes them at the hardware tails. Yields `(class, addr)`
    /// pairs; any that no longer fit must be returned to software by the
    /// caller. Costs nothing while the oldest prefetch is still in flight.
    pub fn drain_completed(&mut self, now: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
        debug_assert!(self
            .inflight
            .windows(2)
            .all(|w| w[0].completes_at <= w[1].completes_at));
        let done = self.inflight.partition_point(|p| p.completes_at <= now);
        self.landed += done as u64;
        self.inflight.drain(..done).map(|p| (p.class, p.addr))
    }

    /// Outstanding prefetch count.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }
}

/// Maps a hardware size class (16B granularity, 8 classes) to the software
/// slab class of identical segment size in [`php_runtime::alloc::CLASS_SIZES`].
pub fn sw_class_for(hw_class: usize) -> usize {
    // CLASS_SIZES = [16,32,48,64,80,96,112,128, ...]; identical layout for
    // the first 8 entries, so the mapping is the identity.
    hw_class
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_runtime::Profiler;

    #[test]
    fn issues_only_below_watermark() {
        let mut pf = Prefetcher::new(PrefetchConfig::default());
        let mut alloc = SlabAllocator::new();
        pf.maybe_issue(0, 20, 0, &mut alloc); // above low watermark
        assert_eq!(pf.inflight_len(), 0);
        pf.maybe_issue(0, 2, 0, &mut alloc); // below, but software list empty
        assert_eq!(pf.inflight_len(), 0);
        let (_, _, dry) = pf.counters();
        assert!(dry > 0);
    }

    #[test]
    fn steals_from_software_free_list() {
        let mut pf = Prefetcher::new(PrefetchConfig {
            latency_ops: 2,
            ..Default::default()
        });
        let mut alloc = SlabAllocator::new();
        let prof = Profiler::new();
        // Populate the software free list for 16B class.
        let blocks: Vec<_> = (0..10).map(|_| alloc.malloc(16, &prof)).collect();
        for b in blocks {
            alloc.free(b, &prof);
        }
        pf.maybe_issue(0, 0, 0, &mut alloc);
        assert!(pf.inflight_len() > 0);
        assert_eq!(pf.drain_completed(1).count(), 0, "latency not elapsed");
        let done: Vec<_> = pf.drain_completed(2).collect();
        assert_eq!(done.len(), pf.counters().1 as usize);
        assert!(done.iter().all(|&(c, _)| c == 0));
    }

    #[test]
    fn disabled_prefetcher_is_inert() {
        let mut pf = Prefetcher::new(PrefetchConfig::default());
        pf.set_enabled(false);
        let mut alloc = SlabAllocator::new();
        let prof = Profiler::new();
        let b = alloc.malloc(16, &prof);
        alloc.free(b, &prof);
        pf.maybe_issue(0, 0, 0, &mut alloc);
        assert_eq!(pf.inflight_len(), 0);
    }

    #[test]
    fn inflight_bounded() {
        let mut pf = Prefetcher::new(PrefetchConfig {
            max_inflight: 4,
            ..Default::default()
        });
        let mut alloc = SlabAllocator::new();
        let prof = Profiler::new();
        let blocks: Vec<_> = (0..50).map(|_| alloc.malloc(16, &prof)).collect();
        for b in blocks {
            alloc.free(b, &prof);
        }
        pf.maybe_issue(0, 0, 0, &mut alloc);
        assert!(pf.inflight_len() <= 4);
    }

    #[test]
    fn sw_class_mapping_sizes_agree() {
        use crate::size_class::SizeClassTable;
        for c in 0..HW_CLASS_COUNT {
            assert_eq!(
                php_runtime::alloc::CLASS_SIZES[sw_class_for(c)],
                SizeClassTable::class_bytes(c)
            );
        }
    }
}
