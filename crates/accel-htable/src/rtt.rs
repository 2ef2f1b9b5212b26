//! Reverse translation table (RTT).
//!
//! §4.2: the RTT is "indexed by the base address of a requested hash map.
//! Each RTT entry stores back pointers to the set of hash table entries
//! containing key-value pairs of a hash map. Each RTT entry also has a write
//! pointer [...] Consequently, each entry in the RTT is implemented using a
//! circular buffer." It serves two purposes:
//!
//! * `Free`: invalidate every hash-table entry of a dying map without a
//!   full-table scan;
//! * `foreach`: replay key-value pairs in insertion order.

use std::collections::HashMap;

/// One slot of an RTT circular buffer: a back pointer into the hash table,
/// or invalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Points at hash-table entry `idx`; `seq` is the insertion sequence
    /// number (monotonic per map) used to replay order.
    Live { idx: u32, seq: u64 },
    /// Entry was evicted from the hash table; the pair now lives only in
    /// memory. The sequence number is retained so order replay stays exact.
    Evicted { seq: u64 },
    /// Unused.
    Empty,
}

/// A single RTT entry: circular back-pointer buffer + write pointer.
#[derive(Debug, Clone)]
struct RttEntry {
    slots: Vec<Slot>,
    write_ptr: usize,
    next_seq: u64,
    /// The circular buffer wrapped over live history — insertion order can
    /// no longer be replayed fully from hardware.
    order_lost: bool,
}

impl RttEntry {
    /// A fresh entry over `slots`, an all-[`Slot::Empty`] buffer.
    fn new(slots: Vec<Slot>) -> Self {
        RttEntry {
            slots,
            write_ptr: 0,
            next_seq: 0,
            order_lost: false,
        }
    }
}

/// What `foreach` can replay from hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderReplay {
    /// Hash-table entry indices in insertion order (live entries only).
    pub live_in_order: Vec<u32>,
    /// Number of pairs whose entries were evicted (must be fetched from the
    /// software map, but their *positions* in the order are known).
    pub evicted: usize,
    /// Insertion sequence numbers for the live entries (parallel to
    /// `live_in_order`).
    pub live_seqs: Vec<u64>,
    /// `true` when the circular buffer wrapped and hardware can no longer
    /// guarantee the order — software must iterate the memory map instead.
    pub order_lost: bool,
}

/// The reverse translation table.
#[derive(Debug)]
pub struct Rtt {
    entries: HashMap<u64, RttEntry>,
    /// Circular-buffer capacity per map.
    slots_per_entry: usize,
    /// Maximum number of maps tracked concurrently.
    capacity: usize,
    /// Emptied circular buffers of maps dropped by [`Rtt::clear`], handed
    /// to the next maps tracked (at most `capacity` of them ever exist).
    spare: Vec<Vec<Slot>>,
}

impl Rtt {
    /// Creates an RTT tracking up to `capacity` maps with `slots_per_entry`
    /// back pointers each.
    pub fn new(capacity: usize, slots_per_entry: usize) -> Self {
        assert!(capacity > 0 && slots_per_entry > 0);
        Rtt {
            entries: HashMap::new(),
            slots_per_entry,
            capacity,
            spare: Vec::new(),
        }
    }

    /// Forgets every tracked map, keeping the allocations: the state after
    /// `clear` is indistinguishable from a new table's.
    pub fn clear(&mut self) {
        for (_, mut e) in self.entries.drain() {
            e.slots.fill(Slot::Empty);
            self.spare.push(e.slots);
        }
    }

    /// Whether a map is currently tracked.
    pub fn tracks(&self, base: u64) -> bool {
        self.entries.contains_key(&base)
    }

    /// Number of maps tracked.
    pub fn tracked_maps(&self) -> usize {
        self.entries.len()
    }

    /// Base addresses of all tracked maps, sorted (deterministic order for
    /// fault-injection targeting).
    pub fn tracked_bases(&self) -> Vec<u64> {
        let mut bases: Vec<u64> = self.entries.keys().copied().collect();
        bases.sort_unstable();
        bases
    }

    /// Records an insertion of hash-table entry `idx` for map `base`.
    /// Returns the map that had to be dropped to make room, if any (its
    /// hash-table entries must then be flushed by the caller).
    #[must_use]
    pub fn record_insert(&mut self, base: u64, idx: u32) -> Option<u64> {
        let mut displaced = None;
        if !self.entries.contains_key(&base) && self.entries.len() >= self.capacity {
            // Capacity eviction: drop the map with the oldest latest-seq
            // (approximate LRU over maps).
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.next_seq)
                .map(|(b, _)| b)
                .expect("nonempty");
            self.entries.remove(&victim);
            displaced = Some(victim);
        }
        let e = self.entries.entry(base).or_insert_with(|| {
            let slots = self.spare.pop();
            RttEntry::new(slots.unwrap_or_else(|| vec![Slot::Empty; self.slots_per_entry]))
        });
        let seq = e.next_seq;
        e.next_seq += 1;
        let pos = e.write_ptr;
        if !matches!(e.slots[pos], Slot::Empty) {
            // Wrapping over history: order replay is no longer complete.
            e.order_lost = true;
        }
        e.slots[pos] = Slot::Live { idx, seq };
        e.write_ptr = (pos + 1) % e.slots.len();
        displaced
    }

    /// Marks the back pointer at hash-table entry `idx` of `base` as
    /// evicted (§4.2: "When an entry is evicted from the hash table, its
    /// back pointer in the RTT is invalidated").
    pub fn invalidate_backpointer(&mut self, base: u64, idx: u32) {
        if let Some(e) = self.entries.get_mut(&base) {
            for slot in e.slots.iter_mut() {
                if let Slot::Live { idx: i, seq } = *slot {
                    if i == idx {
                        *slot = Slot::Evicted { seq };
                        return;
                    }
                }
            }
        }
    }

    /// Handles a `Free` of map `base`: returns the hash-table entry indices
    /// to invalidate and drops the RTT entry.
    pub fn free_map(&mut self, base: u64) -> Vec<u32> {
        match self.entries.remove(&base) {
            None => Vec::new(),
            Some(e) => e
                .slots
                .into_iter()
                .filter_map(|s| match s {
                    Slot::Live { idx, .. } => Some(idx),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Replays insertion order for a `foreach` of map `base`.
    pub fn replay_order(&self, base: u64) -> OrderReplay {
        match self.entries.get(&base) {
            None => OrderReplay {
                live_in_order: Vec::new(),
                evicted: 0,
                live_seqs: Vec::new(),
                order_lost: false,
            },
            Some(e) => {
                let mut live: Vec<(u64, u32)> = Vec::new();
                let mut evicted = 0;
                for slot in &e.slots {
                    match *slot {
                        Slot::Live { idx, seq } => live.push((seq, idx)),
                        Slot::Evicted { .. } => evicted += 1,
                        Slot::Empty => {}
                    }
                }
                live.sort_unstable();
                OrderReplay {
                    live_in_order: live.iter().map(|&(_, i)| i).collect(),
                    live_seqs: live.iter().map(|&(s, _)| s).collect(),
                    evicted,
                    order_lost: e.order_lost,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_replay_order() {
        let mut rtt = Rtt::new(8, 16);
        assert!(rtt.record_insert(0x10, 5).is_none());
        assert!(rtt.record_insert(0x10, 9).is_none());
        assert!(rtt.record_insert(0x10, 2).is_none());
        let r = rtt.replay_order(0x10);
        assert_eq!(r.live_in_order, vec![5, 9, 2]);
        assert_eq!(r.evicted, 0);
        assert!(!r.order_lost);
    }

    #[test]
    fn eviction_keeps_order_positions() {
        let mut rtt = Rtt::new(8, 16);
        let _ = rtt.record_insert(0x10, 1);
        let _ = rtt.record_insert(0x10, 2);
        let _ = rtt.record_insert(0x10, 3);
        rtt.invalidate_backpointer(0x10, 2);
        let r = rtt.replay_order(0x10);
        assert_eq!(r.live_in_order, vec![1, 3]);
        assert_eq!(r.evicted, 1);
        // Re-insertion after eviction goes to the end of the order —
        // "the RTT can still guarantee the required insertion order
        // invariant" because the pair gets a fresh sequence number.
        let _ = rtt.record_insert(0x10, 7);
        let r = rtt.replay_order(0x10);
        assert_eq!(r.live_in_order, vec![1, 3, 7]);
        assert_eq!(*r.live_seqs.last().unwrap(), 3);
    }

    #[test]
    fn free_returns_live_backpointers_only() {
        let mut rtt = Rtt::new(8, 16);
        let _ = rtt.record_insert(0x20, 4);
        let _ = rtt.record_insert(0x20, 6);
        rtt.invalidate_backpointer(0x20, 4);
        let mut idxs = rtt.free_map(0x20);
        idxs.sort_unstable();
        assert_eq!(idxs, vec![6]);
        assert!(!rtt.tracks(0x20));
        assert!(rtt.free_map(0x20).is_empty());
    }

    #[test]
    fn wrap_marks_order_lost() {
        let mut rtt = Rtt::new(8, 4);
        for i in 0..4 {
            let _ = rtt.record_insert(0x30, i);
        }
        assert!(!rtt.replay_order(0x30).order_lost);
        let _ = rtt.record_insert(0x30, 99);
        assert!(rtt.replay_order(0x30).order_lost);
    }

    #[test]
    fn capacity_eviction_displaces_oldest_map() {
        let mut rtt = Rtt::new(2, 8);
        assert!(rtt.record_insert(0x1, 0).is_none());
        assert!(rtt.record_insert(0x2, 1).is_none());
        let displaced = rtt.record_insert(0x3, 2);
        assert!(displaced.is_some());
        assert_eq!(rtt.tracked_maps(), 2);
        assert!(rtt.tracks(0x3));
    }

    #[test]
    fn clear_forgets_every_map_and_reuses_the_buffers() {
        let mut rtt = Rtt::new(8, 4);
        for i in 0..5 {
            let _ = rtt.record_insert(0x10, i);
        }
        let _ = rtt.record_insert(0x20, 9);
        rtt.clear();
        assert_eq!(rtt.tracked_maps(), 0);
        assert_eq!(rtt.spare.len(), 2);
        // A recycled buffer starts empty: order intact, sequence from zero.
        let _ = rtt.record_insert(0x10, 7);
        assert_eq!(rtt.spare.len(), 1);
        let r = rtt.replay_order(0x10);
        assert_eq!((r.live_in_order, r.live_seqs), (vec![7], vec![0]));
        assert!(!r.order_lost);
    }

    #[test]
    fn separate_maps_do_not_interfere() {
        let mut rtt = Rtt::new(8, 8);
        let _ = rtt.record_insert(0xA, 1);
        let _ = rtt.record_insert(0xB, 2);
        rtt.invalidate_backpointer(0xA, 1);
        assert_eq!(rtt.replay_order(0xB).live_in_order, vec![2]);
        assert_eq!(rtt.replay_order(0xA).evicted, 1);
    }
}
