//! Cross-request memoization: the value model and cache interface behind
//! the sites `php-analysis` proves memoizable.
//!
//! The analysis (`effects.rs` in `php-analysis`) marks a user-call site
//! memoizable only when the callee — transitively — writes no globals,
//! calls no nondeterministic builtin (`rand`, `time`), and hides nothing
//! behind an unknown call or `extract`. Its observable behaviour is then a
//! pure function of (callee, argument values, values of the globals in its
//! read-set, bytes it echoes). The compiled VM (its `MemoEnter` and
//! `MemoStore` ops) builds a **canonical key** from exactly those inputs
//! and consults a [`MemoTier`]:
//!
//! * **hit** — replay the stored return value (deep-copied back into the
//!   requesting machine's heap) and append the stored echo bytes, skipping
//!   the callee entirely;
//! * **miss** — run the callee, then store `(return value, echoed bytes)`
//!   under the key together with the site's dependency fingerprint (its
//!   read-set names).
//!
//! Soundness does **not** rest on invalidation: the key embeds the *values*
//! of every global the callee may read, so a stale entry can never be
//! returned for a state it was not computed in — workers with divergent
//! global state simply build divergent keys. Write-triggered invalidation
//! (every global store purges entries whose fingerprint names the written
//! variable) is a freshness/capacity mechanism layered on top: it keeps the
//! shared tier from accumulating dead generations of hot entries.
//!
//! Keys are namespaced per program (the [`MemoHandle`] carries the
//! namespace), because node-local site identity does not survive across
//! different scripts sharing one cache tier.
//!
//! [`MemoCache`] is the tier every server, bench and test uses.

use php_runtime::array::ArrayKey;
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use phpaccel_core::PhpMachine;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Maximum array nesting depth a value may have and still be memoized.
/// Deeper (or cyclic) values make the site silently non-memoizable at
/// runtime — correctness never depends on a value being cacheable.
const MAX_VALUE_DEPTH: u32 = 16;

/// An owned, `Send + Sync` deep copy of a [`PhpValue`]. The engine's values
/// hold `Rc` interior mutability and cannot cross threads; the memo tier
/// stores this flattened form and reconstructs a fresh heap value on a hit.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoValue {
    /// PHP `null`.
    Null,
    /// PHP `bool`.
    Bool(bool),
    /// PHP `int`.
    Int(i64),
    /// PHP `float`.
    Float(f64),
    /// PHP `string` (raw bytes).
    Str(Vec<u8>),
    /// PHP `array`, in insertion order (order is observable via `foreach`).
    Array(Vec<(MemoArrayKey, MemoValue)>),
}

/// Owned array key for [`MemoValue::Array`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoArrayKey {
    /// Integer key.
    Int(i64),
    /// String key (raw bytes).
    Str(Vec<u8>),
}

impl MemoValue {
    /// Deep-copies a runtime value into the owned form. `None` when the
    /// value nests deeper than [`MAX_VALUE_DEPTH`] (covers cyclic arrays).
    pub fn from_php(v: &PhpValue) -> Option<MemoValue> {
        Self::from_php_at(v, 0)
    }

    fn from_php_at(v: &PhpValue, depth: u32) -> Option<MemoValue> {
        if depth > MAX_VALUE_DEPTH {
            return None;
        }
        Some(match v {
            PhpValue::Null => MemoValue::Null,
            PhpValue::Bool(b) => MemoValue::Bool(*b),
            PhpValue::Int(i) => MemoValue::Int(*i),
            PhpValue::Float(f) => MemoValue::Float(*f),
            PhpValue::Str(s) => MemoValue::Str(s.as_bytes().to_vec()),
            PhpValue::Array(rc) => {
                let borrowed = rc.borrow();
                let mut pairs = Vec::with_capacity(borrowed.len());
                for (k, val) in borrowed.iter() {
                    let key = match k {
                        ArrayKey::Int(i) => MemoArrayKey::Int(*i),
                        ArrayKey::Str(s) => MemoArrayKey::Str(s.as_bytes().to_vec()),
                    };
                    pairs.push((key, Self::from_php_at(val, depth + 1)?));
                }
                MemoValue::Array(pairs)
            }
        })
    }

    /// Reconstructs a fresh runtime value in `m`'s heap. Array construction
    /// goes through the machine so the replayed value is metered and lives
    /// on the ordinary free-list path (a memo hit may escape anywhere).
    pub fn to_php(&self, m: &mut PhpMachine) -> PhpValue {
        match self {
            MemoValue::Null => PhpValue::Null,
            MemoValue::Bool(b) => PhpValue::Bool(*b),
            MemoValue::Int(i) => PhpValue::Int(*i),
            MemoValue::Float(f) => PhpValue::Float(*f),
            MemoValue::Str(bytes) => PhpValue::str(PhpStr::from_bytes(bytes.clone())),
            MemoValue::Array(pairs) => {
                let mut arr = m.new_array();
                for (k, v) in pairs {
                    let key = match k {
                        MemoArrayKey::Int(i) => ArrayKey::Int(*i),
                        MemoArrayKey::Str(bytes) => {
                            ArrayKey::Str(PhpStr::from_bytes(bytes.clone()))
                        }
                    };
                    let value = v.to_php(m);
                    m.array_set(&mut arr, key, value);
                }
                PhpValue::array(arr)
            }
        }
    }
}

/// Appends a canonical, collision-free serialization of `v` to `out`.
/// Returns `false` (leaving `out` in an unspecified state) when the value
/// is too deep to serialize — the caller must then skip memoization.
pub fn canon_value(v: &PhpValue, out: &mut String) -> bool {
    canon_value_at(v, out, 0)
}

fn canon_bytes(bytes: &[u8], out: &mut String) {
    out.push_str(&bytes.len().to_string());
    out.push(':');
    for &b in bytes {
        // Printable ASCII stays literal (minus the escape char); everything
        // else is %XX. Length-prefixed, so no delimiter ambiguity.
        if b.is_ascii_graphic() && b != b'%' || b == b' ' {
            out.push(b as char);
        } else {
            out.push('%');
            out.push_str(&format!("{b:02x}"));
        }
    }
}

fn canon_value_at(v: &PhpValue, out: &mut String, depth: u32) -> bool {
    if depth > MAX_VALUE_DEPTH {
        return false;
    }
    match v {
        PhpValue::Null => out.push('n'),
        PhpValue::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        PhpValue::Int(i) => {
            out.push('i');
            out.push_str(&i.to_string());
        }
        PhpValue::Float(f) => {
            // Bit pattern: exact, distinguishes 0.0 from -0.0 (echo doesn't,
            // but arithmetic downstream of a replayed value can).
            out.push('f');
            out.push_str(&format!("{:x}", f.to_bits()));
        }
        PhpValue::Str(s) => {
            out.push('s');
            canon_bytes(s.as_bytes(), out);
        }
        PhpValue::Array(rc) => {
            out.push_str("a{");
            let borrowed = rc.borrow();
            for (k, val) in borrowed.iter() {
                match k {
                    ArrayKey::Int(i) => {
                        out.push('k');
                        out.push_str(&i.to_string());
                        out.push('=');
                    }
                    ArrayKey::Str(s) => {
                        out.push('K');
                        canon_bytes(s.as_bytes(), out);
                        out.push('=');
                    }
                }
                if !canon_value_at(val, out, depth + 1) {
                    return false;
                }
                out.push(';');
            }
            out.push('}');
        }
    }
    out.push('|');
    true
}

/// What a memo hit replays: the callee's return value and the bytes it
/// echoed while computing it.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoHit {
    /// Deep-copied return value.
    pub value: MemoValue,
    /// Output the callee produced, appended verbatim on replay.
    pub output: Vec<u8>,
}

/// A shared memoization tier. [`MemoCache`] is the implementation every
/// server, bench and test uses; the trait is the seam for wrappers that
/// observe or forward its calls.
pub trait MemoTier: Send + Sync {
    /// Looks up `key`, cloning the stored result on a hit.
    fn lookup(&self, key: &str) -> Option<MemoHit>;
    /// Stores a computed result under `key`. `deps` is the site's
    /// dependency fingerprint: the (namespaced) names of every global the
    /// callee may read, used by [`MemoTier::invalidate`].
    fn store(&self, key: String, deps: Vec<String>, hit: MemoHit);
    /// Purges every entry whose fingerprint names `dep`. Returns how many
    /// entries were dropped.
    fn invalidate(&self, dep: &str) -> u64;
}

/// An engine's attachment to a memo tier: the shared cache plus the
/// program namespace its keys live under.
#[derive(Clone)]
pub struct MemoHandle {
    /// The shared tier.
    pub tier: Arc<dyn MemoTier>,
    /// Program namespace — two scripts sharing a tier must not collide even
    /// when they define a same-named function.
    pub namespace: String,
}

impl std::fmt::Debug for MemoHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoHandle")
            .field("namespace", &self.namespace)
            .finish_non_exhaustive()
    }
}

impl MemoHandle {
    /// Creates a handle over `tier` with keys namespaced by `namespace`.
    pub fn new(tier: Arc<dyn MemoTier>, namespace: impl Into<String>) -> Self {
        MemoHandle {
            tier,
            namespace: namespace.into(),
        }
    }

    /// The namespaced dependency name for global `name` — the string both
    /// fingerprints and invalidations use.
    pub fn dep_key(&self, name: &str) -> String {
        format!("{}\u{1}{}", self.namespace, name)
    }

    /// Builds the canonical lookup key for a call site: callee name,
    /// argument values, and the current values of the read-set globals
    /// (fetched through `read_dep`). `None` when any value is too deep to
    /// serialize, in which case the site must execute normally.
    pub fn build_key(
        &self,
        func: &str,
        args: &[PhpValue],
        deps: &[String],
        mut read_dep: impl FnMut(&str) -> PhpValue,
    ) -> Option<String> {
        let mut key = String::with_capacity(64);
        key.push_str(&self.namespace);
        key.push('\u{1}');
        key.push_str(func);
        key.push('(');
        for a in args {
            if !canon_value(a, &mut key) {
                return None;
            }
        }
        key.push(')');
        for dep in deps {
            key.push('@');
            key.push_str(dep);
            key.push('=');
            if !canon_value(&read_dep(dep), &mut key) {
                return None;
            }
        }
        Some(key)
    }

    /// Purges entries depending on global `name` (namespaced). Returns the
    /// number of entries dropped.
    pub fn invalidate(&self, name: &str) -> u64 {
        self.tier.invalidate(&self.dep_key(name))
    }
}

/// Default shard count — comfortably above typical worker counts so two
/// workers rarely queue on the same lock.
pub const DEFAULT_SHARDS: usize = 16;

/// Point-in-time counters for a [`MemoCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries dropped by dependency invalidation.
    pub invalidations: u64,
    /// Shards cleared after a lock-poisoning panic (see
    /// [`MemoCache`]'s poisoning policy; stays 0 in healthy operation).
    pub poison_recoveries: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

#[derive(Default)]
struct Shard {
    /// key → (dependency fingerprint, cached result).
    entries: HashMap<String, (Vec<String>, MemoHit)>,
    /// dep → keys of resident entries fingerprinted on it (same shard as
    /// the entry, so invalidation walks shards without cross-locking).
    by_dep: HashMap<String, HashSet<String>>,
}

/// The shared [`MemoTier`]: an APCu-style in-memory cache shared by every
/// worker of a pool, sharded by key hash with one lock per shard, so
/// concurrent workers contend only when their keys collide on a shard —
/// bucket-level locking, the software analogue of the paper's banked
/// hash-table storage.
///
/// **Poisoning policy:** a worker panicking while it holds a shard lock
/// (the sandbox catches handler panics *after* any `MemoTier` call inside
/// the handler unwinds through it) used to leave that shard's mutex
/// poisoned forever — every later `.lock().unwrap()` by every worker then
/// panicked, permanently killing lookups on a sixteenth of the key space.
/// Instead, a poisoned shard is recovered via `into_inner` and **cleared**:
/// the interrupted operation may have half-applied its entry/dep-index
/// updates, and dropping the shard's entries is always safe (a memo cache
/// only ever re-computes), while trusting them is not. Recoveries are
/// counted in [`MemoCacheStats::poison_recoveries`].
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    invalidations: AtomicU64,
    poison_recoveries: AtomicU64,
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for MemoCache {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

/// FNV-1a over the key bytes: stable across runs (unlike `HashMap`'s
/// per-instance seeded hasher), so shard placement — and therefore lock
/// contention — is reproducible.
fn shard_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl MemoCache {
    /// Creates a cache with `shards` independently locked buckets
    /// (minimum 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        MemoCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(shard_hash(key) % self.shards.len() as u64) as usize]
    }

    /// Locks one shard, recovering from poisoning per the policy in the
    /// type docs: clear the shard (its state may be half-applied), unpoison
    /// the mutex so later locks don't re-clear, and count the recovery.
    fn lock_shard<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                shard.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.entries.clear();
                guard.by_dep.clear();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Counter snapshot plus resident-entry count.
    pub fn stats(&self) -> MemoCacheStats {
        // Sum entries first: visiting the shards may itself recover a
        // poisoned lock, and that recovery belongs in this snapshot.
        let entries = self
            .shards
            .iter()
            .map(|s| self.lock_shard(s).entries.len())
            .sum();
        MemoCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = self.lock_shard(s);
            s.entries.clear();
            s.by_dep.clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.stores.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
        self.poison_recoveries.store(0, Ordering::Relaxed);
    }
}

impl MemoTier for MemoCache {
    fn lookup(&self, key: &str) -> Option<MemoHit> {
        let hit = self
            .lock_shard(self.shard(key))
            .entries
            .get(key)
            .map(|(_, h)| h.clone());
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn store(&self, key: String, deps: Vec<String>, hit: MemoHit) {
        let mut shard = self.lock_shard(self.shard(&key));
        for dep in &deps {
            shard
                .by_dep
                .entry(dep.clone())
                .or_default()
                .insert(key.clone());
        }
        shard.entries.insert(key, (deps, hit));
        drop(shard);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    fn invalidate(&self, dep: &str) -> u64 {
        let mut dropped = 0u64;
        for s in &self.shards {
            let mut shard = self.lock_shard(s);
            let Some(keys) = shard.by_dep.remove(dep) else {
                continue;
            };
            for key in keys {
                if let Some((deps, _)) = shard.entries.remove(&key) {
                    dropped += 1;
                    // Unlink the entry from its *other* dependency lists so
                    // they never accumulate dead keys.
                    for other in deps.iter().filter(|d| d.as_str() != dep) {
                        if let Some(set) = shard.by_dep.get_mut(other) {
                            set.remove(&key);
                            if set.is_empty() {
                                shard.by_dep.remove(other);
                            }
                        }
                    }
                }
            }
        }
        if dropped > 0 {
            self.invalidations.fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(tier: Arc<dyn MemoTier>) -> MemoHandle {
        MemoHandle::new(tier, "t")
    }

    #[test]
    fn canon_distinguishes_types_and_bytes() {
        let mut a = String::new();
        let mut b = String::new();
        assert!(canon_value(&PhpValue::Int(1), &mut a));
        assert!(canon_value(&PhpValue::str("1"), &mut b));
        assert_ne!(a, b, "int 1 vs string \"1\"");
        let (mut c, mut d) = (String::new(), String::new());
        assert!(canon_value(&PhpValue::str("a%b"), &mut c));
        assert!(canon_value(&PhpValue::str("a%25b"), &mut d));
        assert_ne!(c, d, "escape char must round-trip losslessly");
    }

    #[test]
    fn canon_is_order_sensitive_for_arrays() {
        use php_runtime::array::PhpArray;
        let mut x = PhpArray::new();
        x.insert(ArrayKey::Str(PhpStr::from("a")), PhpValue::Int(1));
        x.insert(ArrayKey::Str(PhpStr::from("b")), PhpValue::Int(2));
        let mut y = PhpArray::new();
        y.insert(ArrayKey::Str(PhpStr::from("b")), PhpValue::Int(2));
        y.insert(ArrayKey::Str(PhpStr::from("a")), PhpValue::Int(1));
        let (mut sx, mut sy) = (String::new(), String::new());
        assert!(canon_value(&PhpValue::array(x), &mut sx));
        assert!(canon_value(&PhpValue::array(y), &mut sy));
        assert_ne!(sx, sy, "foreach order is observable");
    }

    #[test]
    fn deep_values_refuse_to_serialize() {
        let mut v = PhpValue::array(php_runtime::array::PhpArray::new());
        for _ in 0..20 {
            let mut outer = php_runtime::array::PhpArray::new();
            outer.insert(ArrayKey::Int(0), v);
            v = PhpValue::array(outer);
        }
        let mut out = String::new();
        assert!(!canon_value(&v, &mut out));
        assert!(MemoValue::from_php(&v).is_none());
    }

    #[test]
    fn memo_value_round_trips_through_a_machine() {
        use php_runtime::array::PhpArray;
        let mut m = PhpMachine::baseline();
        let mut arr = PhpArray::new();
        arr.insert(ArrayKey::Str(PhpStr::from("k")), PhpValue::str("v"));
        arr.insert(ArrayKey::Int(7), PhpValue::Float(1.5));
        let original = PhpValue::array(arr);
        let stored = MemoValue::from_php(&original).unwrap();
        let replayed = stored.to_php(&mut m);
        let (mut a, mut b) = (String::new(), String::new());
        assert!(canon_value(&original, &mut a));
        assert!(canon_value(&replayed, &mut b));
        assert_eq!(a, b, "replayed value must be canonically identical");
    }

    #[test]
    fn namespaces_do_not_collide() {
        let tier: Arc<dyn MemoTier> = Arc::new(MemoCache::default());
        let a = MemoHandle::new(tier.clone(), "script-a");
        let b = MemoHandle::new(tier.clone(), "script-b");
        let ka = a.build_key("f", &[], &[], |_| PhpValue::Null).unwrap();
        let kb = b.build_key("f", &[], &[], |_| PhpValue::Null).unwrap();
        assert_ne!(ka, kb);
        tier.store(
            ka,
            vec![a.dep_key("g")],
            MemoHit {
                value: MemoValue::Int(1),
                output: vec![],
            },
        );
        assert!(tier.lookup(&kb).is_none());
        assert_eq!(b.invalidate("g"), 0, "b's g is not a's g");
        assert_eq!(a.invalidate("g"), 1);
    }

    #[test]
    fn dep_values_are_part_of_the_key() {
        let h = handle(Arc::new(MemoCache::default()));
        let k1 = h
            .build_key("f", &[], &["g".into()], |_| PhpValue::Int(1))
            .unwrap();
        let k2 = h
            .build_key("f", &[], &["g".into()], |_| PhpValue::Int(2))
            .unwrap();
        assert_ne!(k1, k2, "a dep write always changes the key");
    }

    fn hit(n: i64) -> MemoHit {
        MemoHit {
            value: MemoValue::from_php(&PhpValue::Int(n)).unwrap(),
            output: format!("out{n}").into_bytes(),
        }
    }

    #[test]
    fn store_lookup_and_counters() {
        let cache = MemoCache::new(4);
        assert!(cache.lookup("a").is_none());
        cache.store("a".into(), vec!["d1".into()], hit(1));
        let got = cache.lookup("a").expect("stored entry");
        assert_eq!(got.output, b"out1");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn invalidation_drops_only_fingerprinted_entries() {
        let cache = MemoCache::new(4);
        cache.store("a".into(), vec!["d1".into(), "d2".into()], hit(1));
        cache.store("b".into(), vec!["d2".into()], hit(2));
        cache.store("c".into(), vec![], hit(3));
        assert_eq!(cache.invalidate("d2"), 2, "a and b fingerprint d2");
        assert!(cache.lookup("a").is_none());
        assert!(cache.lookup("b").is_none());
        assert!(cache.lookup("c").is_some(), "no deps, never invalidated");
        assert_eq!(cache.stats().invalidations, 2);
        // d1's list must not retain a's dead key.
        assert_eq!(cache.invalidate("d1"), 0);
    }

    #[test]
    fn invalidation_leaves_no_empty_dependency_set() {
        let cache = MemoCache::new(1);
        cache.store("a".into(), vec!["d1".into(), "d2".into()], hit(1));
        assert_eq!(cache.invalidate("d1"), 1);
        let shard = cache.shards[0].lock().unwrap();
        assert!(
            shard.by_dep.is_empty(),
            "d2's set must go with its last key"
        );
    }

    #[test]
    fn single_shard_still_works() {
        let cache = MemoCache::new(0); // clamped to 1
        cache.store("x".into(), vec!["g".into()], hit(9));
        assert!(cache.lookup("x").is_some());
        assert_eq!(cache.invalidate("g"), 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn concurrent_workers_share_one_cache() {
        let cache = Arc::new(MemoCache::new(8));
        std::thread::scope(|scope| {
            for w in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50 {
                        let key = format!("k{}", i % 10);
                        if cache.lookup(&key).is_none() {
                            cache.store(key, vec![format!("dep{w}")], hit(i));
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 200);
        assert!(s.entries <= 10, "at most one entry per distinct key");
        assert!(s.hits > 0, "shared entries must be visible across threads");
    }

    /// Regression: a panic while a shard lock was held poisoned the mutex,
    /// and every later `.lock().unwrap()` — from *any* worker — panicked,
    /// permanently killing that shard. Poisoned shards must instead recover:
    /// cleared once, counted once, fully usable afterwards.
    #[test]
    fn poisoned_shard_recovers_cleared_and_usable() {
        let cache = Arc::new(MemoCache::new(1)); // one shard: every key hits it
        cache.store("a".into(), vec!["d".into()], hit(1));
        assert!(cache.lookup("a").is_some());

        // Poison the only shard: panic while holding its lock.
        let poisoner = Arc::clone(&cache);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("worker died holding the shard lock");
        })
        .join();
        std::panic::set_hook(hook);
        assert!(cache.shards[0].is_poisoned());

        // First touch recovers: the shard is cleared (half-applied state is
        // untrustworthy), not wedged.
        assert!(cache.lookup("a").is_none(), "recovered shard starts empty");
        assert!(!cache.shards[0].is_poisoned(), "mutex must be unpoisoned");

        // The shard is fully usable again, and the recovery was counted
        // exactly once — later locks must not re-clear.
        cache.store("b".into(), vec!["d".into()], hit(2));
        assert!(cache.lookup("b").is_some());
        assert_eq!(cache.invalidate("d"), 1);
        let stats = cache.stats();
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = MemoCache::default();
        cache.store("a".into(), vec!["d".into()], hit(1));
        cache.lookup("a");
        cache.clear();
        assert_eq!(cache.stats(), MemoCacheStats::default());
    }
}
