//! Maps and sets keyed by simulated addresses.
//!
//! The models key their bookkeeping by the addresses the simulated
//! allocator hands out: live blocks, freed arena blocks, RTT entries,
//! poisoned free-list nodes. Those keys come from inside the simulator, so
//! no client can choose them to collide, and SipHash's flooding resistance
//! buys nothing there. What they need is a hash whose low bits vary:
//! addresses are multiples of 16, so a hash that passes the key through
//! (or multiplies it and keeps the low bits) would crowd every key into a
//! sixteenth of the buckets. [`AddrHasher`] runs each word through a 64-bit
//! finalizer instead. It is seedless, so iteration order repeats from run
//! to run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for simulated addresses: every word written goes through
/// murmur3's 64-bit finalizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

/// murmur3's `fmix64`: every input bit affects every output bit.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = fmix64(self.0 ^ n);
    }
}

/// A map keyed by simulated address.
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// A set of simulated addresses.
pub type AddrSet = HashSet<u64, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(addr: u64) -> u64 {
        BuildHasherDefault::<AddrHasher>::default().hash_one(addr)
    }

    #[test]
    fn aligned_addresses_spread_over_the_low_bits() {
        // 1 024 blocks 16 bytes apart, as the slab allocator carves them:
        // the low 7 bits (a 128-bucket table) must take every value.
        let mut seen = [0u32; 128];
        for i in 0..1024u64 {
            seen[(hash(0x1000 + 16 * i) & 127) as usize] += 1;
        }
        assert!(seen.iter().all(|&n| (2..=20).contains(&n)), "{seen:?}");
    }

    #[test]
    fn hashing_repeats_and_maps_work() {
        assert_eq!(hash(0x1230), hash(0x1230));
        assert_ne!(hash(0x1230), hash(0x1240));
        let mut m = AddrMap::default();
        m.insert(0x1000, "a");
        m.insert(0x1010, "b");
        assert_eq!(m.get(&0x1010), Some(&"b"));
        let s: AddrSet = [0x20, 0x30].into_iter().collect();
        assert!(s.contains(&0x20) && !s.contains(&0x40));
    }
}
