//! The seeded request-mix generator: a shuffle in blocks, so every block of
//! `scripts` requests covers the corpus exactly once (equal weights) while
//! the order inside each block depends on the seed.

/// SplitMix64: small, seedable, and good enough to shuffle twelve items.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias at n ≤ 4096 is below
    /// 2⁻⁵², far under anything the benchmark can resolve.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `len` script indices in `0..scripts`, as consecutive independently
/// shuffled blocks of `scripts`. A trailing partial block is a prefix of a
/// shuffled block.
pub fn block_shuffle(seed: u64, scripts: usize, len: usize) -> Vec<u16> {
    assert!(scripts > 0 && scripts <= u16::MAX as usize);
    let mut rng = Rng::new(seed);
    let mut block: Vec<u16> = (0..scripts as u16).collect();
    let mut out = Vec::with_capacity(len + scripts);
    while out.len() < len {
        rng.shuffle(&mut block);
        out.extend_from_slice(&block);
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_order() {
        assert_eq!(block_shuffle(7, 12, 1200), block_shuffle(7, 12, 1200));
    }

    #[test]
    fn different_seed_gives_different_order() {
        assert_ne!(block_shuffle(7, 12, 1200), block_shuffle(8, 12, 1200));
    }

    #[test]
    fn every_block_covers_the_corpus_once() {
        let seq = block_shuffle(42, 12, 12 * 50);
        for block in seq.chunks(12) {
            let mut seen = block.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<u16>>());
        }
    }

    #[test]
    fn partial_tail_has_no_repeats() {
        let seq = block_shuffle(3, 12, 12 * 4 + 5);
        assert_eq!(seq.len(), 53);
        let mut tail = seq[48..].to_vec();
        tail.sort_unstable();
        tail.dedup();
        assert_eq!(tail.len(), 5);
    }
}
