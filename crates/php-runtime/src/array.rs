//! `PhpArray` — PHP's insertion-ordered hash map (zend-array equivalent).
//!
//! This is the software hash map the paper's hardware hash table accelerates
//! (§4.2). Layout follows PHP 7's design: an insertion-ordered bucket vector
//! plus a power-of-two hash index with per-bucket collision chains. The
//! paper's coherence discussion relies on exactly this split: "The software
//! hash map stores each key/value pair in a table ordered based on insertion,
//! and also stores a pointer to that table in a hash table for fast lookup."
//!
//! Every lookup/insert reports its *walk cost* (hash computation + probe
//! chain) so the runtime can charge the §5.2 figure of ~90.66 µops per
//! software hash map walk.

use crate::profile::OpCost;
use crate::string::PhpStr;
use crate::value::PhpValue;
use std::fmt;

/// An array key: PHP arrays accept integer and string keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArrayKey {
    /// Integer key.
    Int(i64),
    /// String key.
    Str(PhpStr),
}

impl ArrayKey {
    /// DJB2-style hash, the "simplified hash function" spirit of §4.2.
    pub fn hash(&self) -> u64 {
        match self {
            ArrayKey::Int(i) => {
                // Fibonacci scrambling of the integer key.
                (*i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
            ArrayKey::Str(s) => hash_bytes(s.as_bytes()),
        }
    }

    /// µop cost of hashing this key in software (per-byte loop for strings).
    pub fn hash_cost(&self) -> u64 {
        match self {
            ArrayKey::Int(_) => 4,
            ArrayKey::Str(s) => 12 + 2 * s.len() as u64,
        }
    }
}

/// DJB2 hash over bytes.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 5381;
    for &b in bytes {
        h = h.wrapping_mul(33) ^ b as u64;
    }
    h
}

impl From<i64> for ArrayKey {
    fn from(i: i64) -> Self {
        ArrayKey::Int(i)
    }
}

impl From<&str> for ArrayKey {
    fn from(s: &str) -> Self {
        ArrayKey::Str(PhpStr::from(s))
    }
}

impl From<String> for ArrayKey {
    fn from(s: String) -> Self {
        ArrayKey::Str(PhpStr::from(s))
    }
}

impl From<PhpStr> for ArrayKey {
    fn from(s: PhpStr) -> Self {
        ArrayKey::Str(s)
    }
}

impl fmt::Display for ArrayKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayKey::Int(i) => write!(f, "{i}"),
            ArrayKey::Str(s) => write!(f, "{s}"),
        }
    }
}

#[derive(Debug, Clone)]
struct Bucket {
    key: ArrayKey,
    hash: u64,
    value: PhpValue,
    /// Next bucket index in this hash chain, or `EMPTY`.
    next: i32,
}

const EMPTY: i32 = -1;
/// µops per probe step of a software walk (bucket load, hash compare, key
/// compare, branch).
const PROBE_UOPS: u64 = 22;
/// Fixed µops around a walk (index load, masking, result handling,
/// type-check glue in the VM).
const WALK_FIXED_UOPS: u64 = 38;

/// Result of a software walk: whether it hit, and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkCost {
    /// Probe-chain length traversed (≥1 when the index slot was occupied).
    pub probes: u32,
    /// Total micro-op cost of the walk.
    pub cost: OpCost,
}

fn walk_cost(key: &ArrayKey, probes: u32) -> WalkCost {
    let uops = WALK_FIXED_UOPS + key.hash_cost() + PROBE_UOPS * probes as u64;
    WalkCost {
        probes,
        cost: OpCost {
            uops,
            branches: 3 + probes as u64,
            loads: 4 + 2 * probes as u64,
            stores: 1,
        },
    }
}

/// PHP's insertion-ordered hash array.
#[derive(Clone, Default)]
pub struct PhpArray {
    buckets: Vec<Option<Bucket>>,
    index: Vec<i32>,
    mask: u64,
    len: usize,
    next_int_key: i64,
    /// Simulated base address of this map in the heap (used by the hardware
    /// hash table, which keys on `(base_addr, key)`).
    base_addr: u64,
}

impl PhpArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        Self::with_capacity(8)
    }

    /// Creates an empty array with space for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let index_size = cap.next_power_of_two().max(8);
        PhpArray {
            buckets: Vec::with_capacity(cap),
            index: vec![EMPTY; index_size],
            mask: index_size as u64 - 1,
            len: 0,
            next_int_key: 0,
            base_addr: 0,
        }
    }

    /// Builds an array from key/value pairs.
    pub fn from_pairs<K: Into<ArrayKey>>(pairs: impl IntoIterator<Item = (K, PhpValue)>) -> Self {
        let mut a = PhpArray::new();
        for (k, v) in pairs {
            a.insert(k.into(), v);
        }
        a
    }

    /// Builds a list-like array (sequential int keys).
    pub fn from_values(values: impl IntoIterator<Item = PhpValue>) -> Self {
        let mut a = PhpArray::new();
        for v in values {
            a.push(v);
        }
        a
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the simulated base heap address (done by the runtime when the
    /// array is allocated).
    pub fn set_base_addr(&mut self, addr: u64) {
        self.base_addr = addr;
    }

    /// Simulated base heap address.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    fn find(&self, key: &ArrayKey) -> (Option<usize>, u32) {
        let h = key.hash();
        let mut idx = self.index[(h & self.mask) as usize];
        let mut probes = 0;
        while idx != EMPTY {
            probes += 1;
            let b = self.buckets[idx as usize]
                .as_ref()
                .expect("chain points at tombstone");
            if b.hash == h && b.key == *key {
                return (Some(idx as usize), probes);
            }
            idx = b.next;
        }
        (None, probes.max(1))
    }

    /// Looks up `key`. Unmetered (for plumbing and tests).
    pub fn get(&self, key: &ArrayKey) -> Option<&PhpValue> {
        let (slot, _) = self.find(key);
        slot.map(|i| &self.buckets[i].as_ref().unwrap().value)
    }

    /// Looks up `key`, also reporting the software walk cost (the paper's
    /// ~90.66-µop hash map walk).
    pub fn get_with_cost(&self, key: &ArrayKey) -> (Option<&PhpValue>, WalkCost) {
        let (slot, probes) = self.find(key);
        let wc = walk_cost(key, probes);
        (slot.map(|i| &self.buckets[i].as_ref().unwrap().value), wc)
    }

    /// Whether `key` exists.
    pub fn contains_key(&self, key: &ArrayKey) -> bool {
        self.find(key).0.is_some()
    }

    /// Inserts or overwrites `key`. Returns the previous value. Unmetered.
    pub fn insert(&mut self, key: ArrayKey, value: PhpValue) -> Option<PhpValue> {
        self.insert_with_cost(key, value).0
    }

    /// Inserts or overwrites `key`, reporting the walk cost (a SET walks the
    /// chain too before appending).
    pub fn insert_with_cost(
        &mut self,
        key: ArrayKey,
        value: PhpValue,
    ) -> (Option<PhpValue>, WalkCost) {
        if let ArrayKey::Int(i) = key {
            self.next_int_key = self.next_int_key.max(i + 1);
        }
        let (slot, probes) = self.find(&key);
        let mut wc = walk_cost(&key, probes);
        // A SET that inserts pays for the append + index update.
        match slot {
            Some(i) => {
                let old = std::mem::replace(&mut self.buckets[i].as_mut().unwrap().value, value);
                (Some(old), wc)
            }
            None => {
                wc.cost = wc.cost.plus(OpCost {
                    uops: 14,
                    branches: 1,
                    loads: 1,
                    stores: 3,
                });
                self.append(key, value);
                (None, wc)
            }
        }
    }

    fn append(&mut self, key: ArrayKey, value: PhpValue) {
        if self.len + 1 > self.index.len() * 3 / 4 || self.buckets.len() >= self.index.len() {
            self.rehash(self.index.len() * 2);
        }
        let h = key.hash();
        let slot = (h & self.mask) as usize;
        let bucket = Bucket {
            key,
            hash: h,
            value,
            next: self.index[slot],
        };
        self.index[slot] = self.buckets.len() as i32;
        self.buckets.push(Some(bucket));
        self.len += 1;
    }

    fn rehash(&mut self, new_size: usize) {
        let new_size = new_size.next_power_of_two().max(8);
        // Compact tombstones while rebuilding.
        let old: Vec<Bucket> = std::mem::take(&mut self.buckets)
            .into_iter()
            .flatten()
            .collect();
        self.index = vec![EMPTY; new_size];
        self.mask = new_size as u64 - 1;
        self.buckets = Vec::with_capacity(old.len());
        for mut b in old {
            let slot = (b.hash & self.mask) as usize;
            b.next = self.index[slot];
            self.index[slot] = self.buckets.len() as i32;
            self.buckets.push(Some(b));
        }
    }

    /// Appends with the next integer key (PHP `$a[] = v`).
    pub fn push(&mut self, value: PhpValue) -> ArrayKey {
        let key = ArrayKey::Int(self.next_int_key);
        self.next_int_key += 1;
        self.append(key.clone(), value);
        key
    }

    /// Removes `key`, returning its value. Leaves a tombstone (insertion
    /// order of the rest is preserved, like PHP).
    pub fn remove(&mut self, key: &ArrayKey) -> Option<PhpValue> {
        self.remove_with_cost(key).0
    }

    /// Removes `key`, reporting the walk cost.
    pub fn remove_with_cost(&mut self, key: &ArrayKey) -> (Option<PhpValue>, WalkCost) {
        let h = key.hash();
        let slot = (h & self.mask) as usize;
        let mut idx = self.index[slot];
        let mut prev: i32 = EMPTY;
        let mut probes = 0;
        while idx != EMPTY {
            probes += 1;
            let b = self.buckets[idx as usize].as_ref().unwrap();
            if b.hash == h && b.key == *key {
                let next = b.next;
                if prev == EMPTY {
                    self.index[slot] = next;
                } else {
                    self.buckets[prev as usize].as_mut().unwrap().next = next;
                }
                let removed = self.buckets[idx as usize].take().unwrap();
                self.len -= 1;
                let mut wc = walk_cost(key, probes);
                wc.cost = wc.cost.plus(OpCost {
                    uops: 10,
                    branches: 1,
                    loads: 1,
                    stores: 2,
                });
                return (Some(removed.value), wc);
            }
            prev = idx;
            idx = b.next;
        }
        (None, walk_cost(key, probes.max(1)))
    }

    /// Iterates `(key, value)` in insertion order (PHP `foreach` semantics —
    /// the property the hardware RTT must preserve, §4.2).
    pub fn iter(&self) -> impl Iterator<Item = (&ArrayKey, &PhpValue)> {
        self.buckets.iter().flatten().map(|b| (&b.key, &b.value))
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &ArrayKey> {
        self.iter().map(|(k, _)| k)
    }

    /// Values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &PhpValue> {
        self.iter().map(|(_, v)| v)
    }

    /// µop cost of a full software `foreach` over this array.
    pub fn foreach_cost(&self) -> OpCost {
        OpCost::mixed(12 + 9 * self.len as u64)
    }

    /// Simulated heap footprint: header + bucket storage + index.
    pub fn heap_size(&self) -> usize {
        56 + self.buckets.capacity() * 32 + self.index.len() * 4
    }
}

impl FromIterator<(ArrayKey, PhpValue)> for PhpArray {
    fn from_iter<T: IntoIterator<Item = (ArrayKey, PhpValue)>>(iter: T) -> Self {
        PhpArray::from_pairs(iter)
    }
}

impl Extend<(ArrayKey, PhpValue)> for PhpArray {
    fn extend<T: IntoIterator<Item = (ArrayKey, PhpValue)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl fmt::Debug for PhpArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(k, v)| (k.to_string(), v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> ArrayKey {
        ArrayKey::from(s)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut a = PhpArray::new();
        a.insert(k("name"), PhpValue::from("alice"));
        a.insert(ArrayKey::Int(3), PhpValue::from(42i64));
        assert_eq!(a.len(), 2);
        assert!(a
            .get(&k("name"))
            .unwrap()
            .loose_eq(&PhpValue::from("alice")));
        assert!(a
            .get(&ArrayKey::Int(3))
            .unwrap()
            .loose_eq(&PhpValue::from(42i64)));
        assert!(a.get(&k("missing")).is_none());
    }

    #[test]
    fn overwrite_returns_previous() {
        let mut a = PhpArray::new();
        a.insert(k("x"), PhpValue::from(1i64));
        let old = a.insert(k("x"), PhpValue::from(2i64)).unwrap();
        assert!(old.loose_eq(&PhpValue::from(1i64)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn insertion_order_preserved_across_growth() {
        let mut a = PhpArray::new();
        for i in 0..100 {
            a.insert(k(&format!("key{i}")), PhpValue::from(i as i64));
        }
        let keys: Vec<String> = a.keys().map(|x| x.to_string()).collect();
        let expected: Vec<String> = (0..100).map(|i| format!("key{i}")).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn push_uses_next_int_key() {
        let mut a = PhpArray::new();
        a.push(PhpValue::from(10i64));
        a.insert(ArrayKey::Int(7), PhpValue::Null);
        let key = a.push(PhpValue::from(11i64));
        assert_eq!(key, ArrayKey::Int(8), "next int key follows the max");
    }

    #[test]
    fn remove_preserves_order_of_rest() {
        let mut a = PhpArray::from_pairs([
            ("a", PhpValue::from(1i64)),
            ("b", PhpValue::from(2i64)),
            ("c", PhpValue::from(3i64)),
        ]);
        assert!(a.remove(&k("b")).is_some());
        assert!(a.remove(&k("b")).is_none());
        let keys: Vec<String> = a.keys().map(|x| x.to_string()).collect();
        assert_eq!(keys, ["a", "c"]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn removed_key_reinserted_goes_to_end() {
        let mut a =
            PhpArray::from_pairs([("a", PhpValue::from(1i64)), ("b", PhpValue::from(2i64))]);
        a.remove(&k("a"));
        a.insert(k("a"), PhpValue::from(9i64));
        let keys: Vec<String> = a.keys().map(|x| x.to_string()).collect();
        assert_eq!(keys, ["b", "a"]);
    }

    #[test]
    fn walk_cost_in_paper_range() {
        // With realistic dynamic keys the average software walk should land
        // near the paper's 90.66 µops.
        let mut a = PhpArray::new();
        for i in 0..200 {
            a.insert(k(&format!("post_meta_{i}")), PhpValue::from(i as i64));
        }
        let mut total = 0u64;
        for i in 0..200 {
            let (_, wc) = a.get_with_cost(&k(&format!("post_meta_{i}")));
            total += wc.cost.uops;
        }
        let avg = total as f64 / 200.0;
        assert!((60.0..130.0).contains(&avg), "avg walk µops {avg}");
    }

    #[test]
    fn collision_chains_resolve() {
        // Force collisions through a tiny index: all keys still retrievable.
        let mut a = PhpArray::with_capacity(8);
        for i in 0..64 {
            a.insert(ArrayKey::Int(i * 1024), PhpValue::from(i));
        }
        for i in 0..64 {
            assert!(a
                .get(&ArrayKey::Int(i * 1024))
                .unwrap()
                .loose_eq(&PhpValue::from(i)));
        }
    }

    #[test]
    fn tombstones_compacted_on_rehash() {
        let mut a = PhpArray::new();
        for i in 0..50 {
            a.insert(ArrayKey::Int(i), PhpValue::from(i));
        }
        for i in 0..25 {
            a.remove(&ArrayKey::Int(i * 2));
        }
        // Trigger growth → compaction.
        for i in 100..200 {
            a.insert(ArrayKey::Int(i), PhpValue::from(i));
        }
        assert_eq!(a.len(), 125);
        assert!(a.get(&ArrayKey::Int(1)).is_some());
        assert!(a.get(&ArrayKey::Int(0)).is_none());
    }

    #[test]
    fn foreach_cost_scales_with_len() {
        let a = PhpArray::from_values((0..10).map(PhpValue::from));
        let b = PhpArray::from_values((0..100).map(PhpValue::from));
        assert!(b.foreach_cost().uops > a.foreach_cost().uops);
    }
}
