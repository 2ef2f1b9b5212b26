//! TAGE branch predictor (Seznec \[63\]) plus a bimodal reference predictor.
//!
//! §2: "We experimented with the state-of-the-art TAGE branch predictor with
//! 32KB storage budget. The branch mispredictions per kilo-instructions
//! (MPKI) for the three PHP applications considered in this work are 17.26,
//! 14.48, and 15.14," versus ≈2.9 for SPEC CPU2006. The gap comes from
//! data-dependent branches whose outcomes no history predicts.
//!
//! This is a working TAGE: a bimodal base table plus tagged tables indexed
//! by geometrically increasing global-history lengths, with provider/altpred
//! selection, useful counters, allocation on misprediction, and periodic
//! usefulness reset.

/// Configuration (defaults approximate a 32 KB budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 of bimodal entries (14 → 16K 2-bit counters = 4 KB).
    pub bimodal_bits: usize,
    /// log2 of each tagged table's entries.
    pub tagged_bits: usize,
    /// Number of tagged tables.
    pub tables: usize,
    /// Shortest history length; table *i* uses `min_hist * 2^i`.
    pub min_hist: usize,
    /// Tag width in bits.
    pub tag_bits: usize,
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig {
            bimodal_bits: 14,
            tagged_bits: 10,
            tables: 6,
            min_hist: 4,
            tag_bits: 11,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter, -4..=3; ≥0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness.
    useful: u8,
}

/// Prediction bookkeeping carried from predict to update.
#[derive(Debug, Clone, Copy)]
pub struct Lookup {
    pred: bool,
    alt_pred: bool,
    provider: Option<(usize, usize)>, // (table, index)
    alt_provider: Option<(usize, usize)>,
    bimodal_index: usize,
    indices: [usize; 16],
    tags: [u16; 16],
}

/// Predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl PredStats {
    /// Mispredicts per kilo-instruction.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / instructions as f64
        }
    }

    /// Prediction accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            1.0 - self.mispredicts as f64 / self.predictions as f64
        }
    }
}

/// The TAGE predictor.
#[derive(Debug)]
pub struct Tage {
    cfg: TageConfig,
    bimodal: Vec<u8>, // 2-bit counters
    tagged: Vec<Vec<TaggedEntry>>,
    hist: u128,
    /// Path history (lower bits of recent PCs) folded into the index.
    path: u64,
    tick: u64,
    stats: PredStats,
}

impl Default for Tage {
    fn default() -> Self {
        Self::new(TageConfig::default())
    }
}

impl Tage {
    /// Builds the predictor.
    ///
    /// # Panics
    ///
    /// Panics when more than 16 tagged tables are configured.
    pub fn new(cfg: TageConfig) -> Self {
        assert!(cfg.tables <= 16, "at most 16 tagged tables");
        Tage {
            cfg,
            bimodal: vec![2; 1 << cfg.bimodal_bits], // weakly taken
            tagged: vec![vec![TaggedEntry::default(); 1 << cfg.tagged_bits]; cfg.tables],
            hist: 0,
            path: 0,
            tick: 0,
            stats: PredStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &PredStats {
        &self.stats
    }

    fn hist_len(&self, table: usize) -> usize {
        (self.cfg.min_hist << table).min(128)
    }

    fn fold(&self, pc: u64, table: usize, width: usize) -> u64 {
        // Hash pc, truncated global history, and path history. Not the exact
        // folded-CSR circuit, but a faithful function of the same inputs.
        let hl = self.hist_len(table);
        let h = if hl >= 128 {
            self.hist
        } else {
            self.hist & ((1u128 << hl) - 1)
        };
        let mut x = pc ^ (pc >> 7) ^ self.path.rotate_left(table as u32);
        x ^= (h as u64) ^ ((h >> 64) as u64).rotate_left(31);
        x ^= (table as u64).wrapping_mul(0x517c_c1b7);
        // splitmix64 finalizer: full avalanche so every history bit reaches
        // every index/tag bit.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x & ((1 << width) - 1)
    }

    /// Predicts the branch at `pc`; the returned [`Lookup`] must be passed
    /// to [`Tage::update`] with the real outcome.
    pub fn predict(&self, pc: u64) -> (bool, Lookup) {
        let bimodal_index = (pc >> 2) as usize & ((1 << self.cfg.bimodal_bits) - 1);
        let mut lk = Lookup {
            pred: self.bimodal[bimodal_index] >= 2,
            alt_pred: self.bimodal[bimodal_index] >= 2,
            provider: None,
            alt_provider: None,
            bimodal_index,
            indices: [0; 16],
            tags: [0; 16],
        };
        for t in 0..self.cfg.tables {
            let idx = self.fold(pc, t, self.cfg.tagged_bits) as usize;
            let tag = self.fold(pc.rotate_left(9), t, self.cfg.tag_bits) as u16 | 1;
            lk.indices[t] = idx;
            lk.tags[t] = tag;
            if self.tagged[t][idx].tag == tag {
                lk.alt_provider = lk.provider;
                lk.alt_pred = lk.pred;
                lk.provider = Some((t, idx));
                lk.pred = self.tagged[t][idx].ctr >= 0;
            }
        }
        (lk.pred, lk)
    }

    /// Updates predictor state with the real outcome; returns whether the
    /// prediction was correct and records statistics.
    pub fn update(&mut self, pc: u64, taken: bool, lk: Lookup) -> bool {
        let correct = lk.pred == taken;
        self.stats.predictions += 1;
        if !correct {
            self.stats.mispredicts += 1;
        }

        // Provider update.
        match lk.provider {
            Some((t, i)) => {
                let e = &mut self.tagged[t][i];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if lk.pred != lk.alt_pred {
                    if correct {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let c = &mut self.bimodal[lk.bimodal_index];
                *c = if taken {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
            }
        }

        // Allocation on misprediction in a longer-history table.
        if !correct {
            let start = lk.provider.map(|(t, _)| t + 1).unwrap_or(0);
            let mut allocated = false;
            for t in start..self.cfg.tables {
                let i = lk.indices[t];
                if self.tagged[t][i].useful == 0 {
                    self.tagged[t][i] = TaggedEntry {
                        tag: lk.tags[t],
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for t in start..self.cfg.tables {
                    let i = lk.indices[t];
                    self.tagged[t][i].useful = self.tagged[t][i].useful.saturating_sub(1);
                }
            }
        }

        // Periodic graceful usefulness reset.
        self.tick += 1;
        if self.tick.is_multiple_of(1 << 18) {
            for table in &mut self.tagged {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }

        // History update (path history bounded to 16 bits, as in hardware).
        self.hist = (self.hist << 1) | taken as u128;
        self.path = ((self.path << 1) ^ (pc >> 2)) & 0xFFFF;
        correct
    }

    /// Convenience: predict + update in one call; returns correctness.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let (_, lk) = self.predict(pc);
        self.update(pc, taken, lk)
    }
}

/// A plain bimodal predictor (reference point).
#[derive(Debug)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: usize,
    stats: PredStats,
}

impl Bimodal {
    /// Builds a bimodal predictor with `1 << bits` 2-bit counters.
    pub fn new(bits: usize) -> Self {
        Bimodal {
            table: vec![2; 1 << bits],
            mask: (1 << bits) - 1,
            stats: PredStats::default(),
        }
    }

    /// Predict + update; returns correctness.
    pub fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let i = (pc >> 2) as usize & self.mask;
        let pred = self.table[i] >= 2;
        let correct = pred == taken;
        self.stats.predictions += 1;
        if !correct {
            self.stats.mispredicts += 1;
        }
        self.table[i] = if taken {
            (self.table[i] + 1).min(3)
        } else {
            self.table[i].saturating_sub(1)
        };
        correct
    }

    /// Statistics.
    pub fn stats(&self) -> &PredStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn learns_biased_branches() {
        let mut t = Tage::default();
        for _ in 0..2000 {
            t.observe(0x400, true);
        }
        assert!(
            t.stats().accuracy() > 0.98,
            "accuracy {}",
            t.stats().accuracy()
        );
    }

    #[test]
    fn learns_patterned_history() {
        // Period-4 pattern T T N T — bimodal cannot learn this, TAGE can.
        let pattern = [true, true, false, true];
        let mut tage = Tage::default();
        let mut bim = Bimodal::new(14);
        for i in 0..40_000 {
            let taken = pattern[i % 4];
            tage.observe(0x800, taken);
            bim.observe(0x800, taken);
        }
        assert!(
            tage.stats().accuracy() > 0.95,
            "tage should learn the pattern, accuracy {}",
            tage.stats().accuracy()
        );
        assert!(
            tage.stats().accuracy() > bim.stats().accuracy() + 0.1,
            "tage {} vs bimodal {}",
            tage.stats().accuracy(),
            bim.stats().accuracy()
        );
    }

    #[test]
    fn correlated_branches_exploit_history() {
        // Branch B repeats the outcome of branch A (global correlation).
        let mut t = Tage::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut correct_b = 0;
        let n = 30_000;
        for i in 0..n {
            let a: bool = rng.gen();
            t.observe(0x100, a);
            let ok = t.observe(0x200, a);
            if i > n / 2 && ok {
                correct_b += 1;
            }
        }
        let acc_b = correct_b as f64 / (n / 2 - 1) as f64;
        assert!(acc_b > 0.9, "correlated branch accuracy {acc_b}");
    }

    #[test]
    fn random_branches_stay_unpredictable() {
        let mut t = Tage::default();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50_000 {
            t.observe(0x300, rng.gen());
        }
        let acc = t.stats().accuracy();
        assert!((0.4..0.6).contains(&acc), "random branch accuracy {acc}");
    }

    #[test]
    fn mpki_metric() {
        let s = PredStats {
            predictions: 1000,
            mispredicts: 30,
        };
        assert!((s.mpki(10_000) - 3.0).abs() < 1e-12);
    }
}
