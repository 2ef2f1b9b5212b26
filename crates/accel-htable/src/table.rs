//! The hardware hash table (§4.2, Figure 6).
//!
//! "When a key is looked up in the hash table in our design, several
//! consecutive entries are accessed in parallel, starting from the first
//! indexed entry, to find a match." GET and SET are both served in hardware
//! (unlike memcached-style GET-only tables \[55\]); `Free` and `foreach` are
//! supported through the RTT; replacement prefers invalid, then clean, then
//! LRU-dirty entries (dirty replacement needs a software write-back).

use crate::entry::{Entry, SmallKey, MAX_KEY_BYTES};
use crate::rtt::{OrderReplay, Rtt};
use crate::stats::{HtStats, HASH_CYCLES, PROBE_CYCLES};
use std::collections::HashSet;

/// Configuration of the hardware hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtConfig {
    /// Total entries (power of two). Paper default: 512.
    pub entries: usize,
    /// Consecutive entries probed in parallel per access. Paper default: 4.
    pub probe_width: usize,
    /// Maps tracked by the RTT.
    pub rtt_maps: usize,
    /// Back-pointer slots per RTT entry.
    pub rtt_slots: usize,
}

impl Default for HtConfig {
    fn default() -> Self {
        HtConfig {
            entries: 512,
            probe_width: 4,
            rtt_maps: 128,
            rtt_slots: 64,
        }
    }
}

/// Static key-shape hint supplied by ahead-of-time analysis (the
/// `php-analysis` crate). The hint never changes *what* an access returns —
/// only which pipeline stages the hardware can skip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KeyShapeHint {
    /// Key is a compile-time string constant: its hash was precomputed at
    /// specialization time, so the hash stage is skipped.
    ConstStr,
    /// Key is the array's next integer key (`$a[] = v` append): provably
    /// fresh, so the existence probe on SET is skipped.
    IntAppend,
    /// No static information; full hash + probe.
    #[default]
    Unknown,
}

/// Result of a GET request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetOutcome {
    /// Key found; value pointer returned, zero flag clear.
    Hit {
        /// Pointer to the value in memory.
        value_ptr: u64,
    },
    /// Not present: zero flag raised, software handler performs the walk
    /// (and typically calls [`HwHashTable::fill`] afterwards).
    Miss,
    /// Key exceeds the inline limit; hardware not involved.
    Unsupported,
}

/// What replacement had to do to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// Used an invalid entry: free.
    None,
    /// Replaced a clean entry silently.
    Clean,
    /// Replaced the LRU dirty entry; the returned pair must be written back
    /// to its software map by the handler (the "associated software cost").
    DirtyWriteback {
        /// The evicted dirty entry.
        evicted: Entry,
    },
}

/// Result of a SET request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOutcome {
    /// Existing entry updated in place.
    Updated,
    /// New entry inserted (dirty); `eviction` says what made room.
    Inserted {
        /// Replacement action taken.
        eviction: Eviction,
    },
    /// Key exceeds the inline limit; software handles the SET.
    Unsupported,
}

/// Result of a `foreach` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeachOutcome {
    /// `(key bytes, value_ptr)` pairs held in hardware, in insertion order.
    pub live_pairs: Vec<(Vec<u8>, u64)>,
    /// Pairs whose entries were evicted — present in memory, order known.
    pub evicted_pairs: usize,
    /// Dirty pairs written back to memory so software iteration sees them.
    pub written_back: usize,
    /// Order could not be replayed (RTT wrap) — software iterates memory.
    pub order_lost: bool,
}

/// The hardware hash table accelerator.
#[derive(Debug)]
pub struct HwHashTable {
    cfg: HtConfig,
    entries: Vec<Entry>,
    rtt: Rtt,
    clock: u64,
    stats: HtStats,
    /// Entries whose parity no longer checks out (injected faults). The
    /// corruption is caught on the next access; a full overwrite repairs it.
    corrupt_entries: HashSet<usize>,
    /// Maps whose RTT back-pointer buffer is untrusted (injected faults).
    corrupt_rtt: HashSet<u64>,
}

impl Default for HwHashTable {
    fn default() -> Self {
        Self::new(HtConfig::default())
    }
}

impl HwHashTable {
    /// Builds the table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `probe_width` is 0 or
    /// exceeds `entries`.
    pub fn new(cfg: HtConfig) -> Self {
        assert!(
            cfg.entries.is_power_of_two(),
            "entry count must be a power of two"
        );
        assert!(cfg.probe_width >= 1 && cfg.probe_width <= cfg.entries);
        HwHashTable {
            cfg,
            entries: vec![Entry::invalid(); cfg.entries],
            rtt: Rtt::new(cfg.rtt_maps, cfg.rtt_slots),
            clock: 0,
            stats: HtStats::default(),
            corrupt_entries: HashSet::new(),
            corrupt_rtt: HashSet::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HtConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &HtStats {
        &self.stats
    }

    /// Simplified hardware hash over `(base, key)` (§4.2: hash "on the
    /// combined value of the key and the base address of the requested hash
    /// map").
    fn index_of(&self, base: u64, key: &SmallKey) -> usize {
        let mut h: u64 = base ^ 0x9E37_79B9_7F4A_7C15;
        for &b in key.as_bytes() {
            h = h.wrapping_mul(0x100_0000_01B3) ^ b as u64;
        }
        (h as usize) & (self.cfg.entries - 1)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn probe(&self, base: u64, key: &SmallKey) -> Option<usize> {
        let start = self.index_of(base, key);
        (0..self.cfg.probe_width)
            .map(|i| (start + i) & (self.cfg.entries - 1))
            .find(|&idx| self.entries[idx].matches(base, key))
    }

    /// GET request (`hashtableget`).
    pub fn get(&mut self, base: u64, key: &[u8]) -> GetOutcome {
        self.get_hinted(base, key, KeyShapeHint::Unknown)
    }

    /// GET with a static key-shape hint: a `ConstStr` key skips the hash
    /// stage (its hash was folded in at specialization time). Results are
    /// identical to [`HwHashTable::get`]; only the cycle charge differs.
    pub fn get_hinted(&mut self, base: u64, key: &[u8], hint: KeyShapeHint) -> GetOutcome {
        if key.len() > MAX_KEY_BYTES {
            self.stats.key_too_long += 1;
            return GetOutcome::Unsupported;
        }
        self.stats.gets += 1;
        if hint == KeyShapeHint::ConstStr {
            self.stats.hinted_hash_skips += 1;
            self.stats.accel_cycles += PROBE_CYCLES;
        } else {
            self.stats.accel_cycles += HASH_CYCLES + PROBE_CYCLES;
        }
        let key = SmallKey::new(key).expect("length checked");
        match self.probe(base, &key) {
            Some(idx) => {
                if self.corrupt_entries.remove(&idx) {
                    // Parity mismatch: drop the entry and report a miss so
                    // the software walk re-fetches the true pair.
                    self.stats.faults_detected += 1;
                    self.rtt.invalidate_backpointer(base, idx as u32);
                    self.entries[idx].valid = false;
                    self.entries[idx].dirty = false;
                    return GetOutcome::Miss;
                }
                self.stats.get_hits += 1;
                let now = self.tick();
                let e = &mut self.entries[idx];
                e.last_access = now;
                GetOutcome::Hit {
                    value_ptr: e.value_ptr,
                }
            }
            None => GetOutcome::Miss,
        }
    }

    /// Software fill after a GET miss: "control transfers to the software to
    /// retrieve the key-value pair from memory and places it into the hash
    /// table." The pair is inserted *clean*.
    pub fn fill(&mut self, base: u64, key: &[u8], value_ptr: u64) -> Eviction {
        if key.len() > MAX_KEY_BYTES {
            self.stats.key_too_long += 1;
            return Eviction::None;
        }
        self.stats.fills += 1;
        let key = SmallKey::new(key).expect("length checked");
        self.insert(base, key, value_ptr, false)
    }

    /// SET request (`hashtableset`). Never misses: an absent key is inserted
    /// dirty; memory is only updated lazily (write-back policy).
    pub fn set(&mut self, base: u64, key: &[u8], value_ptr: u64) -> SetOutcome {
        self.set_hinted(base, key, value_ptr, KeyShapeHint::Unknown)
    }

    /// SET with a static key-shape hint. `ConstStr` skips the hash stage;
    /// `IntAppend` additionally skips the existence probe — the analysis
    /// proved the key fresh, so the entry is inserted directly.
    pub fn set_hinted(
        &mut self,
        base: u64,
        key: &[u8],
        value_ptr: u64,
        hint: KeyShapeHint,
    ) -> SetOutcome {
        if key.len() > MAX_KEY_BYTES {
            self.stats.key_too_long += 1;
            self.stats.sets += 1;
            return SetOutcome::Unsupported;
        }
        self.stats.sets += 1;
        self.stats.accel_cycles += match hint {
            KeyShapeHint::ConstStr => {
                self.stats.hinted_hash_skips += 1;
                PROBE_CYCLES
            }
            KeyShapeHint::IntAppend => {
                self.stats.hinted_append_inserts += 1;
                HASH_CYCLES
            }
            KeyShapeHint::Unknown => HASH_CYCLES + PROBE_CYCLES,
        };
        let key = SmallKey::new(key).expect("length checked");
        if hint != KeyShapeHint::IntAppend {
            if let Some(idx) = self.probe(base, &key) {
                if self.corrupt_entries.remove(&idx) {
                    // Parity mismatch on the probe read; the full overwrite
                    // below repairs the entry in place.
                    self.stats.faults_detected += 1;
                }
                self.stats.set_hits += 1;
                let now = self.tick();
                let e = &mut self.entries[idx];
                e.value_ptr = value_ptr;
                e.dirty = true;
                e.last_access = now;
                return SetOutcome::Updated;
            }
        }
        self.stats.set_inserts += 1;
        let eviction = self.insert(base, key, value_ptr, true);
        SetOutcome::Inserted { eviction }
    }

    fn insert(&mut self, base: u64, key: SmallKey, value_ptr: u64, dirty: bool) -> Eviction {
        let start = self.index_of(base, &key);
        let way = |i: usize| (start + i) & (self.cfg.entries - 1);

        // 1. Invalid entry?
        let slot = (0..self.cfg.probe_width)
            .map(way)
            .find(|&i| !self.entries[i].valid);
        // 2. Otherwise prefer a clean entry (LRU among clean).
        let (slot, eviction) = match slot {
            Some(s) => {
                self.stats.evict_invalid += 1;
                (s, Eviction::None)
            }
            None => {
                let clean = (0..self.cfg.probe_width)
                    .map(way)
                    .filter(|&i| !self.entries[i].dirty)
                    .min_by_key(|&i| self.entries[i].last_access);
                match clean {
                    Some(s) => {
                        self.stats.evict_clean += 1;
                        let old = self.entries[s];
                        self.rtt.invalidate_backpointer(old.base_addr, s as u32);
                        (s, Eviction::Clean)
                    }
                    None => {
                        // 3. LRU dirty entry, with software write-back.
                        let s = (0..self.cfg.probe_width)
                            .map(way)
                            .min_by_key(|&i| self.entries[i].last_access)
                            .expect("probe_width >= 1");
                        self.stats.evict_dirty += 1;
                        let old = self.entries[s];
                        self.rtt.invalidate_backpointer(old.base_addr, s as u32);
                        (s, Eviction::DirtyWriteback { evicted: old })
                    }
                }
            }
        };
        if self.corrupt_entries.remove(&slot) {
            // Replacement read the victim entry; parity flagged it.
            self.stats.faults_detected += 1;
        }
        let now = self.tick();
        self.entries[slot] = Entry {
            key,
            base_addr: base,
            value_ptr,
            dirty,
            valid: true,
            last_access: now,
        };
        if let Some(displaced_map) = self.rtt.record_insert(base, slot as u32) {
            // RTT capacity eviction: flush the displaced map's entries.
            self.flush_map_entries(displaced_map);
        }
        eviction
    }

    /// `Free` request: deallocating map `base`. The RTT invalidates the
    /// map's entries; nothing is written back ("short-lived hash maps mostly
    /// stay in the hash table throughout their lifetime without ever being
    /// written back to the memory").
    pub fn free(&mut self, base: u64) -> usize {
        self.stats.frees += 1;
        self.stats.accel_cycles += PROBE_CYCLES;
        if self.corrupt_rtt.remove(&base) {
            // Back pointers are untrusted: fall back to a full-table scan
            // to invalidate the dying map's entries.
            self.stats.faults_detected += 1;
            let _ = self.rtt.free_map(base);
            let n = self.scan_invalidate(base);
            self.stats.freed_entries += n as u64;
            return n;
        }
        let idxs = self.rtt.free_map(base);
        let n = idxs.len();
        for idx in idxs {
            self.corrupt_entries.remove(&(idx as usize));
            self.entries[idx as usize].valid = false;
            self.entries[idx as usize].dirty = false;
        }
        self.stats.freed_entries += n as u64;
        n
    }

    /// `foreach` request: replays insertion order via the RTT and writes
    /// dirty pairs back so the memory map is consistent for iteration.
    pub fn foreach(&mut self, base: u64) -> ForeachOutcome {
        self.stats.foreachs += 1;
        if self.corrupt_rtt.remove(&base) {
            // The circular buffer is untrusted: invalidate the map's entries
            // by scan and tell software to iterate the memory map instead.
            self.stats.faults_detected += 1;
            let _ = self.rtt.free_map(base);
            self.scan_invalidate(base);
            return ForeachOutcome {
                live_pairs: Vec::new(),
                evicted_pairs: 0,
                written_back: 0,
                order_lost: true,
            };
        }
        let OrderReplay {
            live_in_order,
            evicted,
            mut order_lost,
            ..
        } = self.rtt.replay_order(base);
        let mut live_pairs = Vec::with_capacity(live_in_order.len());
        let mut written_back = 0;
        for idx in live_in_order {
            if self.corrupt_entries.remove(&(idx as usize)) {
                // Parity mismatch mid-replay: drop the entry and force the
                // software iteration path for this foreach.
                self.stats.faults_detected += 1;
                self.rtt.invalidate_backpointer(base, idx);
                self.entries[idx as usize].valid = false;
                self.entries[idx as usize].dirty = false;
                order_lost = true;
                continue;
            }
            let e = &mut self.entries[idx as usize];
            if e.dirty {
                e.dirty = false;
                written_back += 1;
            }
            live_pairs.push((e.key.as_bytes().to_vec(), e.value_ptr));
        }
        self.stats.writebacks += written_back as u64;
        self.stats.accel_cycles += HASH_CYCLES + live_pairs.len() as u64;
        ForeachOutcome {
            live_pairs,
            evicted_pairs: evicted,
            written_back,
            order_lost,
        }
    }

    /// Software-initiated invalidation of one key (a software `unset` of a
    /// key that may be cached in hardware). Returns whether it was present.
    pub fn invalidate_key(&mut self, base: u64, key: &[u8]) -> bool {
        let Some(key) = SmallKey::new(key) else {
            return false;
        };
        match self.probe(base, &key) {
            Some(idx) => {
                self.corrupt_entries.remove(&idx);
                self.rtt.invalidate_backpointer(base, idx as u32);
                self.entries[idx].valid = false;
                self.entries[idx].dirty = false;
                true
            }
            None => false,
        }
    }

    /// Coherence event for map `base` (remote coherence request or L2
    /// eviction enforcing inclusion): flush the map's entries, returning
    /// dirty pairs the handler must write back, after which the software map
    /// must be marked stale.
    pub fn coherence_flush(&mut self, base: u64) -> Vec<Entry> {
        self.stats.coherence_flushes += 1;
        self.flush_map_entries(base)
    }

    fn flush_map_entries(&mut self, base: u64) -> Vec<Entry> {
        let idxs = self.rtt.free_map(base);
        let mut dirty = Vec::new();
        for idx in idxs {
            self.corrupt_entries.remove(&(idx as usize));
            let e = &mut self.entries[idx as usize];
            if e.dirty {
                dirty.push(*e);
                self.stats.writebacks += 1;
            }
            e.valid = false;
            e.dirty = false;
        }
        dirty
    }

    /// Invalidates every entry of `base` by a full-table scan (the recovery
    /// path when the RTT cannot be trusted). Returns entries invalidated.
    fn scan_invalidate(&mut self, base: u64) -> usize {
        let mut n = 0;
        for (idx, e) in self.entries.iter_mut().enumerate() {
            if e.valid && e.base_addr == base {
                self.corrupt_entries.remove(&idx);
                e.valid = false;
                e.dirty = false;
                n += 1;
            }
        }
        n
    }

    /// Fault-injection hook: flips bits in the `nth` valid entry's value
    /// pointer, as a particle strike would. The corruption is caught by the
    /// parity check on the entry's next access. Returns `false` when the
    /// table holds no valid entry to corrupt.
    pub fn inject_entry_fault(&mut self, nth: usize) -> bool {
        let victims: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid)
            .map(|(i, _)| i)
            .collect();
        if victims.is_empty() {
            return false;
        }
        let idx = victims[nth % victims.len()];
        self.entries[idx].value_ptr ^= 0xDEAD_BEEF;
        self.corrupt_entries.insert(idx);
        self.stats.faults_injected += 1;
        true
    }

    /// Fault-injection hook: marks the RTT back-pointer buffer of the `nth`
    /// tracked map as corrupt. Detected on the map's next `foreach`/`Free`,
    /// which then falls back to a full-table scan. Returns `false` when the
    /// RTT tracks no map.
    pub fn inject_rtt_fault(&mut self, nth: usize) -> bool {
        let bases = self.rtt.tracked_bases();
        if bases.is_empty() {
            return false;
        }
        self.corrupt_rtt.insert(bases[nth % bases.len()]);
        self.stats.faults_injected += 1;
        true
    }

    /// Full hardware invalidation (the sandbox recovery path): drops every
    /// entry and the whole RTT without write-back — the software maps are
    /// the ground truth, so nothing is lost. Clears any latent corruption.
    /// Returns the number of live entries dropped.
    pub fn invalidate_all(&mut self) -> usize {
        let mut n = 0;
        for e in &mut self.entries {
            n += usize::from(e.valid);
            e.valid = false;
            e.dirty = false;
        }
        self.rtt.clear();
        self.corrupt_entries.clear();
        self.corrupt_rtt.clear();
        n
    }

    /// Number of valid entries (occupancy).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Resets counters but not contents.
    pub fn reset_stats(&mut self) {
        self.stats = HtStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> HwHashTable {
        HwHashTable::default()
    }

    /// Send-audit: per-core accelerator state must be movable into a worker
    /// thread (it stays worker-private, so `Sync` is not required).
    #[test]
    fn hw_hash_table_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HwHashTable>();
    }

    #[test]
    fn get_miss_fill_then_hit() {
        let mut t = table();
        assert_eq!(t.get(0x100, b"title"), GetOutcome::Miss);
        t.fill(0x100, b"title", 0xDEAD);
        assert_eq!(
            t.get(0x100, b"title"),
            GetOutcome::Hit { value_ptr: 0xDEAD }
        );
        assert_eq!(t.stats().gets, 2);
        assert_eq!(t.stats().get_hits, 1);
    }

    #[test]
    fn set_never_misses_and_updates() {
        let mut t = table();
        match t.set(0x100, b"k", 1) {
            SetOutcome::Inserted {
                eviction: Eviction::None,
            } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(t.set(0x100, b"k", 2), SetOutcome::Updated);
        assert_eq!(t.get(0x100, b"k"), GetOutcome::Hit { value_ptr: 2 });
    }

    #[test]
    fn same_key_different_base_are_distinct() {
        let mut t = table();
        t.set(0x100, b"k", 1);
        t.set(0x200, b"k", 2);
        assert_eq!(t.get(0x100, b"k"), GetOutcome::Hit { value_ptr: 1 });
        assert_eq!(t.get(0x200, b"k"), GetOutcome::Hit { value_ptr: 2 });
    }

    #[test]
    fn long_keys_unsupported() {
        let mut t = table();
        let long = [b'x'; 25];
        assert_eq!(t.get(0x1, &long), GetOutcome::Unsupported);
        assert_eq!(t.set(0x1, &long, 9), SetOutcome::Unsupported);
        assert_eq!(t.stats().key_too_long, 2);
    }

    #[test]
    fn free_invalidates_whole_map() {
        let mut t = table();
        for i in 0..10u64 {
            t.set(0x300, format!("key{i}").as_bytes(), i);
        }
        let n = t.free(0x300);
        assert_eq!(n, 10);
        for i in 0..10u64 {
            assert_eq!(t.get(0x300, format!("key{i}").as_bytes()), GetOutcome::Miss);
        }
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn foreach_replays_insertion_order_and_cleans() {
        let mut t = table();
        t.set(0x400, b"first", 1);
        t.set(0x400, b"second", 2);
        t.set(0x400, b"third", 3);
        let out = t.foreach(0x400);
        let keys: Vec<&[u8]> = out.live_pairs.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"first".as_slice(), b"second", b"third"]);
        assert_eq!(out.written_back, 3);
        assert!(!out.order_lost);
        // Second foreach: nothing dirty anymore.
        let out2 = t.foreach(0x400);
        assert_eq!(out2.written_back, 0);
    }

    #[test]
    fn tiny_table_set_causes_dirty_writeback() {
        let mut t = HwHashTable::new(HtConfig {
            entries: 4,
            probe_width: 4,
            rtt_maps: 8,
            rtt_slots: 8,
        });
        // Fill all 4 ways dirty for one base, then one more insert.
        let mut writebacks = 0;
        for i in 0..5u64 {
            if let SetOutcome::Inserted {
                eviction: Eviction::DirtyWriteback { .. },
            } = t.set(0x10, format!("k{i}").as_bytes(), i)
            {
                writebacks += 1;
            }
        }
        assert!(
            writebacks >= 1,
            "fifth dirty insert into 4-entry table must evict dirty"
        );
        assert_eq!(t.stats().evict_dirty as usize, writebacks);
    }

    #[test]
    fn clean_entries_preferred_over_dirty_for_replacement() {
        let mut t = HwHashTable::new(HtConfig {
            entries: 4,
            probe_width: 4,
            rtt_maps: 8,
            rtt_slots: 8,
        });
        t.set(0x10, b"d1", 1); // dirty
        t.fill(0x10, b"c1", 2); // clean
        t.set(0x10, b"d2", 3); // dirty
        t.set(0x10, b"d3", 4); // dirty
                               // Table full (4 entries). Next insert should evict the clean one.
        match t.set(0x10, b"new", 5) {
            SetOutcome::Inserted {
                eviction: Eviction::Clean,
            } => {}
            other => panic!("expected clean eviction, got {other:?}"),
        }
        assert_eq!(t.get(0x10, b"c1"), GetOutcome::Miss);
        assert_eq!(t.get(0x10, b"d1"), GetOutcome::Hit { value_ptr: 1 });
    }

    #[test]
    fn coherence_flush_returns_dirty_pairs() {
        let mut t = table();
        t.set(0x500, b"a", 1);
        t.fill(0x500, b"b", 2);
        let dirty = t.coherence_flush(0x500);
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].value_ptr, 1);
        assert_eq!(t.get(0x500, b"a"), GetOutcome::Miss);
        assert_eq!(t.get(0x500, b"b"), GetOutcome::Miss);
    }

    #[test]
    fn hit_rate_reasonable_for_short_lived_maps() {
        // The paper's Figure 7: even small tables get decent hit rates
        // because short-lived maps are written and read before eviction.
        let mut t = HwHashTable::new(HtConfig {
            entries: 256,
            probe_width: 4,
            rtt_maps: 64,
            rtt_slots: 32,
        });
        for map in 0..200u64 {
            let base = 0x1000 + map * 0x100;
            for k in 0..8u64 {
                t.set(base, format!("var{k}").as_bytes(), k);
            }
            for k in 0..8u64 {
                let _ = t.get(base, format!("var{k}").as_bytes());
            }
            t.free(base);
        }
        let hr = t.stats().hit_rate();
        assert!(hr > 0.8, "hit rate {hr}");
    }

    #[test]
    fn lru_updated_on_get() {
        let mut t = HwHashTable::new(HtConfig {
            entries: 4,
            probe_width: 4,
            rtt_maps: 8,
            rtt_slots: 8,
        });
        t.fill(0x10, b"a", 1);
        t.fill(0x10, b"b", 2);
        t.fill(0x10, b"c", 3);
        t.fill(0x10, b"d", 4);
        // Touch "a" so "b" becomes LRU among clean.
        let _ = t.get(0x10, b"a");
        t.fill(0x10, b"e", 5);
        assert_eq!(t.get(0x10, b"a"), GetOutcome::Hit { value_ptr: 1 });
        assert_eq!(t.get(0x10, b"b"), GetOutcome::Miss);
    }

    #[test]
    fn const_str_hint_skips_hash_cycles() {
        let mut t = table();
        t.set_hinted(0x100, b"title", 1, KeyShapeHint::ConstStr);
        let after_set = t.stats().accel_cycles;
        assert_eq!(after_set, PROBE_CYCLES);
        assert_eq!(
            t.get_hinted(0x100, b"title", KeyShapeHint::ConstStr),
            GetOutcome::Hit { value_ptr: 1 }
        );
        assert_eq!(t.stats().accel_cycles, after_set + PROBE_CYCLES);
        assert_eq!(t.stats().hinted_hash_skips, 2);
    }

    #[test]
    fn append_hint_inserts_without_probe() {
        let mut t = table();
        for i in 0..5u64 {
            let mut kb = vec![0xFF];
            kb.extend_from_slice(&i.to_le_bytes());
            match t.set_hinted(0x200, &kb, i, KeyShapeHint::IntAppend) {
                SetOutcome::Inserted { .. } => {}
                other => panic!("append must insert, got {other:?}"),
            }
        }
        assert_eq!(t.stats().hinted_append_inserts, 5);
        assert_eq!(t.stats().set_hits, 0);
        assert_eq!(t.stats().accel_cycles, 5 * HASH_CYCLES);
        // The inserted entries are real: unhinted GETs find them.
        let mut kb = vec![0xFF];
        kb.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(t.get(0x200, &kb), GetOutcome::Hit { value_ptr: 3 });
    }

    #[test]
    fn hinted_and_unhinted_sets_agree_on_contents() {
        let (mut a, mut b) = (table(), table());
        a.set(0x1, b"k", 7);
        b.set_hinted(0x1, b"k", 7, KeyShapeHint::ConstStr);
        assert_eq!(a.get(0x1, b"k"), b.get(0x1, b"k"));
        assert!(a.stats().accel_cycles > b.stats().accel_cycles);
    }

    #[test]
    fn injected_entry_fault_detected_on_get() {
        let mut t = table();
        t.set(0x100, b"k", 7);
        assert!(t.inject_entry_fault(0));
        assert_eq!(t.stats().faults_injected, 1);
        // Parity catches the corruption; the access reports a miss so the
        // software walk fetches the true value.
        assert_eq!(t.get(0x100, b"k"), GetOutcome::Miss);
        assert_eq!(t.stats().faults_detected, 1);
        // Refill restores a clean, correct entry.
        t.fill(0x100, b"k", 7);
        assert_eq!(t.get(0x100, b"k"), GetOutcome::Hit { value_ptr: 7 });
    }

    #[test]
    fn injected_entry_fault_repaired_by_set() {
        let mut t = table();
        t.set(0x100, b"k", 7);
        assert!(t.inject_entry_fault(0));
        assert_eq!(t.set(0x100, b"k", 9), SetOutcome::Updated);
        assert_eq!(t.stats().faults_detected, 1);
        assert_eq!(t.get(0x100, b"k"), GetOutcome::Hit { value_ptr: 9 });
    }

    #[test]
    fn injected_rtt_fault_forces_software_iteration() {
        let mut t = table();
        t.set(0x100, b"a", 1);
        t.set(0x100, b"b", 2);
        assert!(t.inject_rtt_fault(0));
        let out = t.foreach(0x100);
        assert!(out.order_lost, "corrupt RTT must force software iteration");
        assert!(out.live_pairs.is_empty());
        assert_eq!(t.stats().faults_detected, 1);
        // The map's entries were scan-invalidated; nothing stale remains.
        assert_eq!(t.get(0x100, b"a"), GetOutcome::Miss);
    }

    #[test]
    fn injected_rtt_fault_detected_on_free() {
        let mut t = table();
        t.set(0x100, b"a", 1);
        t.set(0x100, b"b", 2);
        assert!(t.inject_rtt_fault(0));
        assert_eq!(t.free(0x100), 2, "scan fallback still frees both");
        assert_eq!(t.stats().faults_detected, 1);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn invalidate_all_clears_contents_and_corruption() {
        let mut t = table();
        t.set(0x100, b"a", 1);
        t.set(0x200, b"b", 2);
        t.inject_entry_fault(0);
        t.inject_rtt_fault(0);
        assert_eq!(t.invalidate_all(), 2);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.get(0x100, b"a"), GetOutcome::Miss);
        assert_eq!(t.get(0x200, b"b"), GetOutcome::Miss);
        // No latent corruption to detect after the wipe.
        t.set(0x100, b"a", 1);
        assert_eq!(t.get(0x100, b"a"), GetOutcome::Hit { value_ptr: 1 });
        assert_eq!(t.stats().faults_detected, 0);
    }

    #[test]
    fn inject_on_empty_table_reports_nothing_to_corrupt() {
        let mut t = table();
        assert!(!t.inject_entry_fault(0));
        assert!(!t.inject_rtt_fault(0));
        assert_eq!(t.stats().faults_injected, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        HwHashTable::new(HtConfig {
            entries: 500,
            probe_width: 4,
            rtt_maps: 8,
            rtt_slots: 8,
        });
    }
}
