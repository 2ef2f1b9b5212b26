//! The string accelerator engine: block loop, glue logic, configuration
//! registers.
//!
//! §5.1: "At 2GHz, the string accelerator requires a maximum of 3 cycles to
//! process up to 64 character blocks." §4.4: wrap-around between blocks is
//! handled "by buffering previous matching matrix values, and feeding them
//! into the glue-logic sub-block" — modeled here by overlapping consecutive
//! blocks by `pattern_len - 1` bytes, which is observationally equivalent.

use crate::matrix::{
    ascii_compare, diagonal_and, priority_encode, BlockMatch, ConfigError, MatrixConfig, RowSpec,
    MAX_BLOCK_WIDTH, MAX_ROWS,
};
use crate::ops::{AccelCost, StrAccelStats, Unsupported};
use std::cmp::Ordering;

/// Hardware geometry of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrAccelConfig {
    /// Subject bytes per block (matrix columns). Max 64.
    pub block_width: usize,
    /// Matrix rows (max pattern / set size).
    pub max_rows: usize,
    /// Rows capable of inequality compares (§4.4: 6).
    pub inequality_rows: usize,
    /// Cycles per block (§5.1: 3).
    pub cycles_per_block: u64,
}

impl Default for StrAccelConfig {
    fn default() -> Self {
        StrAccelConfig {
            block_width: 64,
            max_rows: 16,
            inequality_rows: 6,
            cycles_per_block: 3,
        }
    }
}

/// The string accelerator.
#[derive(Debug)]
pub struct StringAccel {
    cfg: StrAccelConfig,
    /// Currently loaded matrix configuration (complex ops keep it across
    /// calls; `strreadconfig` reloads it after context switches).
    loaded: Option<MatrixConfig>,
    /// Saved configuration (`strwriteconfig` destination).
    saved: Option<MatrixConfig>,
    /// Configuration registers no longer pass parity (injected fault);
    /// caught by [`StringAccel::config_fault_detected`] before the next op.
    faulted: bool,
    stats: StrAccelStats,
}

impl Default for StringAccel {
    fn default() -> Self {
        Self::new(StrAccelConfig::default())
    }
}

impl StringAccel {
    /// Builds the accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `block_width` exceeds 64 or is zero, or `max_rows`
    /// exceeds 16.
    pub fn new(cfg: StrAccelConfig) -> Self {
        assert!(cfg.block_width > 0 && cfg.block_width <= MAX_BLOCK_WIDTH);
        assert!(cfg.max_rows <= MAX_ROWS);
        assert!(cfg.cycles_per_block > 0);
        StringAccel {
            cfg,
            loaded: None,
            saved: None,
            faulted: false,
            stats: StrAccelStats::default(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> &StrAccelConfig {
        &self.cfg
    }

    /// Statistics.
    pub fn stats(&self) -> &StrAccelStats {
        &self.stats
    }

    fn note(&mut self, cost: AccelCost) {
        self.stats.ops += 1;
        self.stats.cycles += cost.cycles;
        self.stats.bytes += cost.bytes;
        self.stats.active_cells += cost.active_cells;
        self.stats.blocks += cost.cycles / self.cfg.cycles_per_block;
    }

    /// Resets statistics counters (configuration registers stay).
    pub fn reset_stats(&mut self) {
        self.stats = StrAccelStats::default();
    }

    /// Records a software fallback (for fair end-to-end accounting).
    pub fn note_fallback(&mut self) {
        self.stats.fallbacks += 1;
    }

    /// Fault-injection hook: flips bits in the matrix configuration
    /// registers. The parity check catches it before the next operation.
    /// Returns `false`, and counts nothing, when a fault is already latent:
    /// the registers hold one parity flag, so a second fault would be
    /// counted but never detected.
    pub fn inject_config_fault(&mut self) -> bool {
        if self.faulted {
            return false;
        }
        self.faulted = true;
        self.stats.faults_injected += 1;
        true
    }

    /// Register parity checkpoint, consulted before dispatching an
    /// operation. On a latent fault this clears the untrusted configuration
    /// registers, counts the detection plus a software fallback, and returns
    /// `true` — the caller must run the software routine for this op.
    pub fn config_fault_detected(&mut self) -> bool {
        if !self.faulted {
            return false;
        }
        self.faulted = false;
        self.loaded = None;
        self.saved = None;
        self.stats.faults_detected += 1;
        self.stats.fallbacks += 1;
        true
    }

    /// Full state reset (the sandbox recovery path): drops both
    /// configuration registers and any latent fault, which counts as
    /// detected — the scrub found it. Other statistics stay.
    pub fn reset_state(&mut self) {
        self.loaded = None;
        self.saved = None;
        if std::mem::take(&mut self.faulted) {
            self.stats.faults_detected += 1;
        }
    }

    /// Loads `rows` into the matrix for the next scan. The row table is
    /// built only when `rows` differ from the loaded configuration; on an
    /// error the loaded configuration stays.
    fn load(&mut self, rows: impl Iterator<Item = RowSpec> + Clone) -> Result<(), Unsupported> {
        if let Some(loaded) = &self.loaded {
            if loaded.rows().iter().copied().eq(rows.clone()) {
                return Ok(());
            }
        }
        let config = MatrixConfig::new(rows.collect(), self.cfg.max_rows, self.cfg.inequality_rows)
            .map_err(|e| match e {
                ConfigError::TooManyRows {
                    requested,
                    available,
                } => Unsupported::PatternTooLong {
                    len: requested,
                    rows: available,
                },
                ConfigError::TooManyRanges { .. } => Unsupported::TooManyRanges,
            })?;
        self.loaded = Some(config);
        Ok(())
    }

    /// The configuration [`StringAccel::load`] put in the matrix.
    fn matrix(&self) -> &MatrixConfig {
        self.loaded
            .as_ref()
            .expect("an op loads its rows before scanning")
    }

    /// `strwriteconfig`: stores the current matrix configuration (before a
    /// context switch). Returns whether anything was stored.
    pub fn strwriteconfig(&mut self) -> bool {
        self.stats.config_saves += 1;
        self.saved = self.loaded.clone();
        self.saved.is_some()
    }

    /// `strreadconfig`: reloads the saved configuration "if it is not
    /// already configured" (§4.6). Returns the cycles spent.
    pub fn strreadconfig(&mut self) -> u64 {
        self.stats.config_loads += 1;
        if self.loaded == self.saved {
            return 1; // already configured: 1 check cycle
        }
        self.loaded = self.saved.clone();
        let rows = self.loaded.as_ref().map(|c| c.rows().len()).unwrap_or(0) as u64;
        1 + rows // one cycle per row loaded from memory
    }

    /// Whether a matrix configuration is loaded (tests/context-switch).
    pub fn configured(&self) -> bool {
        self.loaded.is_some()
    }

    /// Generic block scan under the loaded configuration: applies
    /// `f(block_match, block_len, base_offset)` per block until it returns
    /// `Some(T)`. Overlap supports patterns spanning block boundaries.
    fn scan_blocks<T>(
        &mut self,
        subject: &[u8],
        overlap: usize,
        mut f: impl FnMut(&BlockMatch, usize, usize) -> Option<T>,
    ) -> (Option<T>, AccelCost) {
        let width = self.cfg.block_width;
        assert!(overlap < width, "overlap must be smaller than a block");
        let stride = width - overlap;
        let config = self.matrix();
        let mut cost = AccelCost::default();
        let mut found = None;
        let mut pos = 0usize;
        while pos < subject.len() || (pos == 0 && subject.is_empty()) {
            let end = (pos + width).min(subject.len());
            let block = &subject[pos..end];
            let bm = ascii_compare(config, block);
            cost.cycles += self.cfg.cycles_per_block;
            cost.bytes += block.len() as u64;
            cost.active_cells += bm.active_cells();
            found = f(&bm, block.len(), pos);
            if found.is_some() || end == subject.len() {
                break;
            }
            pos += stride;
        }
        self.note(cost);
        (found, cost)
    }

    /// `stringop[find]`: offset of the first occurrence of `pattern` at or
    /// after `from`.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the pattern exceeds the matrix geometry — the
    /// caller must use the software routine.
    pub fn find(
        &mut self,
        subject: &[u8],
        pattern: &[u8],
        from: usize,
    ) -> Result<(Option<usize>, AccelCost), Unsupported> {
        if pattern.is_empty() || pattern.len() >= self.cfg.block_width {
            return Err(Unsupported::PatternTooLong {
                len: pattern.len(),
                rows: self.cfg.max_rows.min(self.cfg.block_width - 1),
            });
        }
        self.load(pattern.iter().map(|&b| RowSpec::Equal(b)))?;
        let subject = &subject[from.min(subject.len())..];
        let plen = pattern.len();
        let (found, cost) = self.scan_blocks(subject, plen - 1, |bm, blen, base| {
            priority_encode(diagonal_and(bm, blen)).map(|c| base + c)
        });
        Ok((found.map(|p| p + from), cost))
    }

    /// `stringop[findset]`: first byte in `set` (≤ rows) at or after `from`.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the set exceeds the matrix rows.
    pub fn find_byte_set(
        &mut self,
        subject: &[u8],
        set: &[u8],
        from: usize,
    ) -> Result<(Option<usize>, AccelCost), Unsupported> {
        if set.len() > self.cfg.max_rows {
            return Err(Unsupported::SetTooLarge {
                len: set.len(),
                rows: self.cfg.max_rows,
            });
        }
        self.load(set.iter().map(|&b| RowSpec::Equal(b)))?;
        let subject_tail = &subject[from.min(subject.len())..];
        let (found, cost) = self.scan_blocks(subject_tail, 0, |bm, _blen, base| {
            priority_encode(bm.any()).map(|c| base + c)
        });
        Ok((found.map(|p| p + from), cost))
    }

    /// `stringop[compare]`: three-way compare of two strings, 64 B/block.
    pub fn compare(&mut self, a: &[u8], b: &[u8]) -> (Ordering, AccelCost) {
        let n = a.len().min(b.len());
        let width = self.cfg.block_width;
        let mut cost = AccelCost::default();
        let mut pos = 0;
        while pos < n {
            let end = (pos + width).min(n);
            cost.cycles += self.cfg.cycles_per_block;
            cost.bytes += (end - pos) as u64;
            cost.active_cells += (end - pos) as u64;
            if a[pos..end] != b[pos..end] {
                // Priority-encode the first differing byte inside the block.
                let i = (pos..end).find(|&i| a[i] != b[i]).expect("blocks differ");
                self.note(cost);
                return (a[i].cmp(&b[i]), cost);
            }
            pos = end;
        }
        self.note(cost);
        (a.len().cmp(&b.len()), cost)
    }

    /// `stringop[translate]` for case conversion: maps `[lo..=hi]` by XOR
    /// 0x20 (the ASCII case bit) through the output logic. Used for
    /// `strtoupper`/`strtolower`.
    pub fn translate_case(&mut self, subject: &[u8], to_upper: bool) -> (Vec<u8>, AccelCost) {
        let (lo, hi) = if to_upper { (b'a', b'z') } else { (b'A', b'Z') };
        self.load([RowSpec::Range { lo, hi }].into_iter())
            .expect("single range row always fits");
        let mut out = subject.to_vec();
        let (_, cost) = self.scan_blocks(subject, 0, |bm, blen, base| {
            let mut mask = bm.any();
            while mask != 0 {
                let c = mask.trailing_zeros() as usize;
                if c < blen {
                    out[base + c] ^= 0x20;
                }
                mask &= mask - 1;
            }
            None::<()>
        });
        (out, cost)
    }

    /// `stringop[replace]`: substitutes every `from` byte with `to`.
    /// Returns `(result, replacements, cost)`.
    pub fn replace_byte(
        &mut self,
        subject: &[u8],
        from: u8,
        to: u8,
    ) -> (Vec<u8>, usize, AccelCost) {
        self.load([RowSpec::Equal(from)].into_iter())
            .expect("single row always fits");
        let mut out = subject.to_vec();
        let mut count = 0usize;
        let (_, cost) = self.scan_blocks(subject, 0, |bm, blen, base| {
            let mut mask = bm.any();
            while mask != 0 {
                let c = mask.trailing_zeros() as usize;
                if c < blen {
                    out[base + c] = to;
                    count += 1;
                }
                mask &= mask - 1;
            }
            None::<()>
        });
        (out, count, cost)
    }

    /// `stringop[trim]`: returns the `(start, end)` byte range of the
    /// subject with `set` bytes stripped from both ends.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the trim set exceeds the matrix rows.
    pub fn trim_range(
        &mut self,
        subject: &[u8],
        set: &[u8],
    ) -> Result<((usize, usize), AccelCost), Unsupported> {
        if set.len() > self.cfg.max_rows {
            return Err(Unsupported::SetTooLarge {
                len: set.len(),
                rows: self.cfg.max_rows,
            });
        }
        self.load(set.iter().map(|&b| RowSpec::Equal(b)))?;
        // Leading scan: first byte NOT in the set.
        let (lead, c1) = self.scan_blocks(subject, 0, |bm, blen, base| {
            let not = !bm.any() & mask_of(blen);
            priority_encode(not).map(|c| base + c)
        });
        let start = lead.unwrap_or(subject.len());
        // Trailing scan in software order but hardware blocks (the shifter
        // aligns reversed reads in real hardware).
        let mut end = subject.len();
        let mut c2 = AccelCost::default();
        while end > start {
            let blk_start = end.saturating_sub(self.cfg.block_width).max(start);
            let block = &subject[blk_start..end];
            let bm = ascii_compare(self.matrix(), block);
            c2.cycles += self.cfg.cycles_per_block;
            c2.bytes += block.len() as u64;
            c2.active_cells += bm.active_cells();
            let not = !bm.any() & mask_of(block.len());
            if not != 0 {
                let last = 63 - not.leading_zeros() as usize;
                end = blk_start + last + 1;
                break;
            }
            end = blk_start;
        }
        self.note(c2);
        Ok(((start, end.max(start)), c1.plus(c2)))
    }

    /// `stringop[span]`: length of the prefix whose bytes all fall in the
    /// given ranges (ctype-style scans).
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when more ranges than inequality rows are requested.
    pub fn span_ranges(
        &mut self,
        subject: &[u8],
        ranges: &[(u8, u8)],
    ) -> Result<(usize, AccelCost), Unsupported> {
        self.load(ranges.iter().map(|&(lo, hi)| RowSpec::Range { lo, hi }))?;
        let (stop, cost) = self.scan_blocks(subject, 0, |bm, blen, base| {
            let not = !bm.any() & mask_of(blen);
            priority_encode(not).map(|c| base + c)
        });
        Ok((stop.unwrap_or(subject.len()), cost))
    }

    /// Hint-vector sift (§4.5 support): marks each `segment_size`-byte
    /// segment that contains at least one *special* character (outside
    /// `[A-Za-z0-9_.,-]` + space). This is the sieve's extra work.
    pub fn sift_special(&mut self, subject: &[u8], segment_size: usize) -> (Vec<bool>, AccelCost) {
        assert!(segment_size > 0);
        self.load(SIFT_ROWS.iter().copied())
            .expect("sift config fits");
        let nseg = subject.len().div_ceil(segment_size);
        let mut hints = vec![false; nseg];
        let (_, cost) = self.scan_blocks(subject, 0, |bm, blen, base| {
            let mut special = !bm.any() & mask_of(blen);
            while special != 0 {
                let c = special.trailing_zeros() as usize;
                hints[(base + c) / segment_size] = true;
                special &= special - 1;
            }
            None::<()>
        });
        (hints, cost)
    }
}

/// The rows the hint-vector sift runs with. Regular characters: 3 ranges +
/// 5 equality rows = 8 rows, well within 16 rows / 6 inequality rows.
const SIFT_ROWS: [RowSpec; 8] = [
    RowSpec::Range { lo: b'A', hi: b'Z' },
    RowSpec::Range { lo: b'a', hi: b'z' },
    RowSpec::Range { lo: b'0', hi: b'9' },
    RowSpec::Equal(b'_'),
    RowSpec::Equal(b'.'),
    RowSpec::Equal(b','),
    RowSpec::Equal(b'-'),
    RowSpec::Equal(b' '),
];

fn mask_of(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel() -> StringAccel {
        StringAccel::default()
    }

    /// Send-audit: per-core accelerator state must be movable into a worker
    /// thread (it stays worker-private, so `Sync` is not required).
    #[test]
    fn string_accel_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StringAccel>();
    }

    #[test]
    fn config_fault_detected_once_then_clean() {
        let mut a = accel();
        let _ = a.find(b"subject text", b"tex", 0).unwrap();
        assert!(a.configured());
        assert!(a.inject_config_fault());
        assert_eq!(a.stats().faults_injected, 1);
        // The parity checkpoint catches the fault exactly once and drops
        // the untrusted registers.
        assert!(a.config_fault_detected());
        assert!(!a.configured());
        assert_eq!(a.stats().faults_detected, 1);
        assert_eq!(a.stats().fallbacks, 1);
        assert!(!a.config_fault_detected());
        // Subsequent ops run clean and correct.
        let (pos, _) = a.find(b"subject text", b"tex", 0).unwrap();
        assert_eq!(pos, Some(8));
    }

    #[test]
    fn reset_state_clears_registers_and_fault() {
        let mut a = accel();
        let _ = a.find(b"abc", b"b", 0).unwrap();
        a.strwriteconfig();
        assert!(a.inject_config_fault());
        a.reset_state();
        assert!(!a.configured());
        assert!(!a.config_fault_detected());
    }

    #[test]
    fn a_second_fault_on_a_latent_one_is_refused() {
        let mut a = accel();
        assert!(a.inject_config_fault());
        assert!(!a.inject_config_fault());
        assert_eq!(a.stats().faults_injected, 1);
        assert!(a.config_fault_detected());
        assert_eq!(a.stats().faults_detected, 1);
        // Once detected, the registers can be faulted again.
        assert!(a.inject_config_fault());
        assert_eq!(a.stats().faults_injected, 2);
    }

    #[test]
    fn reset_state_counts_a_latent_fault_as_detected() {
        let mut a = accel();
        a.reset_state();
        assert_eq!(a.stats().faults_detected, 0);
        assert!(a.inject_config_fault());
        a.reset_state();
        assert_eq!(a.stats().faults_detected, 1);
        assert_eq!(a.stats().fallbacks, 0);
        // The fault is gone: nothing is left to detect or count again.
        a.reset_state();
        assert!(!a.config_fault_detected());
        assert_eq!(a.stats().faults_detected, 1);
    }

    #[test]
    fn find_matches_software_semantics() {
        let mut a = accel();
        let subject = b"the quick brown fox jumps over the lazy dog";
        let (pos, _) = a.find(subject, b"fox", 0).unwrap();
        assert_eq!(pos, Some(16));
        let (pos, _) = a.find(subject, b"the", 1).unwrap();
        assert_eq!(pos, Some(31));
        let (pos, _) = a.find(subject, b"cat", 0).unwrap();
        assert_eq!(pos, None);
    }

    #[test]
    fn find_across_block_boundary() {
        let mut a = accel();
        // Place the pattern straddling the 64-byte boundary.
        let mut subject = vec![b'x'; 62];
        subject.extend_from_slice(b"needle");
        subject.extend_from_slice(&[b'y'; 30]);
        let (pos, cost) = a.find(&subject, b"needle", 0).unwrap();
        assert_eq!(pos, Some(62));
        assert!(cost.cycles >= 6, "needs at least two blocks");
    }

    #[test]
    fn find_rejects_long_patterns() {
        let mut a = accel();
        let long = vec![b'p'; 17];
        assert!(a.find(b"subject", &long, 0).is_err());
        assert!(a.find(b"subject", b"", 0).is_err());
    }

    #[test]
    fn cost_reflects_three_cycles_per_block() {
        let mut a = accel();
        let subject = vec![b'a'; 256];
        let (_, cost) = a.find(&subject, b"zz", 0).unwrap();
        // 256 bytes, stride 63 → 5 blocks → 15 cycles.
        assert_eq!(cost.cycles / 3, cost.cycles.div_ceil(3), "multiple of 3");
        assert!(cost.bytes >= 256);
        assert!(cost.cycles <= 18);
    }

    #[test]
    fn throughput_beats_byte_at_a_time() {
        let mut a = accel();
        let subject = vec![b'a'; 4096];
        let _ = a.find(&subject, b"qq", 0).unwrap();
        assert!(
            a.stats().bytes_per_cycle() > 8.0,
            "{}",
            a.stats().bytes_per_cycle()
        );
    }

    #[test]
    fn find_byte_set_first_of_any() {
        let mut a = accel();
        let (pos, _) = a.find_byte_set(b"hello <b>world", b"<>&\"'", 0).unwrap();
        assert_eq!(pos, Some(6));
        let (pos, _) = a.find_byte_set(b"plain text only", b"<>&", 0).unwrap();
        assert_eq!(pos, None);
    }

    #[test]
    fn compare_three_way() {
        let mut a = accel();
        assert_eq!(a.compare(b"abc", b"abc").0, Ordering::Equal);
        assert_eq!(a.compare(b"abc", b"abd").0, Ordering::Less);
        assert_eq!(a.compare(b"abcd", b"abc").0, Ordering::Greater);
        let big_a = vec![b'x'; 200];
        let mut big_b = big_a.clone();
        big_b[150] = b'y';
        assert_eq!(a.compare(&big_a, &big_b).0, Ordering::Less);
    }

    #[test]
    fn case_translation() {
        let mut a = accel();
        let (up, _) = a.translate_case(b"Hello, World! 123", true);
        assert_eq!(up, b"HELLO, WORLD! 123");
        let (low, _) = a.translate_case(b"Hello, World! 123", false);
        assert_eq!(low, b"hello, world! 123");
    }

    #[test]
    fn replace_byte_counts() {
        let mut a = accel();
        let (out, n, _) = a.replace_byte(b"a-b-c-d", b'-', b'_');
        assert_eq!(out, b"a_b_c_d");
        assert_eq!(n, 3);
    }

    #[test]
    fn trim_range_strips_both_ends() {
        let mut a = accel();
        let ((s, e), _) = a.trim_range(b"  hello  ", b" \t\n\r").unwrap();
        assert_eq!(&b"  hello  "[s..e], b"hello");
        let ((s, e), _) = a.trim_range(b"     ", b" ").unwrap();
        assert_eq!(s, e, "all-whitespace trims to empty");
        let ((s, e), _) = a.trim_range(b"abc", b" ").unwrap();
        assert_eq!((s, e), (0, 3));
    }

    #[test]
    fn trim_longer_than_block() {
        let mut a = accel();
        let mut subject = vec![b' '; 100];
        subject.extend_from_slice(b"core");
        subject.extend(vec![b' '; 100]);
        let ((s, e), _) = a.trim_range(&subject, b" ").unwrap();
        assert_eq!(&subject[s..e], b"core");
    }

    #[test]
    fn span_ranges_prefix() {
        let mut a = accel();
        let (n, _) = a
            .span_ranges(b"abc123!rest", &[(b'a', b'z'), (b'0', b'9')])
            .unwrap();
        assert_eq!(n, 6);
        let (n, _) = a.span_ranges(b"!!!", &[(b'a', b'z')]).unwrap();
        assert_eq!(n, 0);
        // 7 ranges exceed the 6 inequality rows.
        let too_many = [(0u8, 1u8); 7];
        assert!(a.span_ranges(b"x", &too_many).is_err());
    }

    #[test]
    fn sift_special_marks_segments() {
        let mut a = accel();
        //            seg0: clean       seg1: has '<'      seg2: clean
        let subject = b"abcdefgh12345678<tag>bcdefghijklmn abcdefghijklm";
        let (hints, _) = a.sift_special(subject, 16);
        assert_eq!(hints.len(), 3);
        assert!(!hints[0]);
        assert!(hints[1]);
        assert!(!hints[2]);
    }

    #[test]
    fn config_save_restore_cycle() {
        let mut a = accel();
        let _ = a.sift_special(b"some content here", 16);
        assert!(a.configured());
        assert!(a.strwriteconfig());
        // Context switch wipes the matrix...
        let _ = a.translate_case(b"ABC", false); // different config now loaded
        let cycles = a.strreadconfig();
        assert!(cycles > 1, "restore should reload rows");
        let cycles2 = a.strreadconfig();
        assert_eq!(cycles2, 1, "already configured");
        assert_eq!(a.stats().config_loads, 2);
        assert_eq!(a.stats().config_saves, 1);
    }

    /// Every engine op once, over subjects of one to several blocks: the
    /// simulated counters must not move when the host computes them
    /// differently.
    #[test]
    fn stats_after_every_op_are_pinned() {
        let mut a = accel();
        let page: Vec<u8> = b"Lorem <b>ipsum</b> dolor, sit_amet 42 & more.\n"
            .iter()
            .copied()
            .cycle()
            .take(300)
            .collect();
        assert_eq!(a.find(&page, b"amet", 5).unwrap().0, Some(30));
        assert_eq!(a.find(&page, b"absent!", 0).unwrap().0, None);
        assert_eq!(a.find_byte_set(&page, b"&<>\"'", 100).unwrap().0, Some(100));
        assert_eq!(a.compare(&page, &page[..200]).0, Ordering::Greater);
        assert_eq!(a.translate_case(&page, true).0[..5], *b"LOREM");
        assert_eq!(a.replace_byte(&page, b' ', b'_').1, 38);
        let padded = b"  \t padded \n ";
        assert_eq!(a.trim_range(padded, b" \t\n").unwrap().0, (4, 10));
        assert_eq!(
            a.span_ranges(&page, &[(b'A', b'Z'), (b'a', b'z')])
                .unwrap()
                .0,
            5
        );
        assert_eq!(a.sift_special(&page, 16).0.len(), 19);
        assert_eq!(
            a.find_utf8("naïve café", "café", 0).unwrap().0,
            Some((7, 6))
        );
        let s = *a.stats();
        assert_eq!(
            (s.ops, s.cycles, s.bytes, s.active_cells, s.blocks),
            (11, 93, 1656, 6340, 31)
        );
    }

    #[test]
    fn empty_subject_is_cheap_and_correct() {
        let mut a = accel();
        let (pos, _) = a.find(b"", b"x", 0).unwrap();
        assert_eq!(pos, None);
        let (hints, _) = a.sift_special(b"", 16);
        assert!(hints.is_empty());
    }
}

impl StringAccel {
    /// UTF-8 aware find (§4.4: "Multi-byte character sets (Unicode) can be
    /// handled by grouping the single-byte characters comparisons"): the
    /// pattern's UTF-8 bytes occupy consecutive matrix rows — exactly the
    /// machinery of [`StringAccel::find`] — and the returned offset is
    /// additionally reported as a character index.
    ///
    /// Returns `Ok(Some((byte_offset, char_index)))` on a match.
    ///
    /// # Errors
    ///
    /// [`Unsupported`] when the pattern's UTF-8 encoding exceeds the matrix
    /// rows.
    pub fn find_utf8(
        &mut self,
        subject: &str,
        pattern: &str,
        from_byte: usize,
    ) -> Result<(Option<(usize, usize)>, AccelCost), Unsupported> {
        let (pos, cost) = self.find(subject.as_bytes(), pattern.as_bytes(), from_byte)?;
        // UTF-8's self-synchronizing property guarantees a byte-level match
        // of a valid pattern begins on a character boundary.
        let out = pos.map(|byte_offset| {
            let char_index = subject[..byte_offset].chars().count();
            (byte_offset, char_index)
        });
        Ok((out, cost))
    }
}

#[cfg(test)]
mod utf8_tests {
    use super::*;

    #[test]
    fn multibyte_pattern_found_with_char_index() {
        let mut a = StringAccel::default();
        let subject = "naïve café résumé";
        let (found, _) = a.find_utf8(subject, "café", 0).unwrap();
        let (byte_off, char_idx) = found.unwrap();
        assert_eq!(&subject[byte_off..byte_off + "café".len()], "café");
        assert_eq!(char_idx, 6);
    }

    #[test]
    fn multibyte_no_false_positive_on_continuation_bytes() {
        let mut a = StringAccel::default();
        // 'é' = C3 A9; 'é'+'©' share C3/A9-adjacent bytes — search for a
        // sequence that appears only as a character, never as a byte slice.
        let subject = "ééé©©©";
        let (found, _) = a.find_utf8(subject, "é©", 0).unwrap();
        let (byte_off, char_idx) = found.unwrap();
        assert_eq!(char_idx, 2);
        assert_eq!(&subject[byte_off..byte_off + "é©".len()], "é©");
        let (none, _) = a.find_utf8(subject, "©é", 0).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn four_byte_emoji_grouping() {
        let mut a = StringAccel::default();
        let subject = "plain text 🚀 more text";
        let (found, _) = a.find_utf8(subject, "🚀", 0).unwrap();
        let (byte_off, char_idx) = found.unwrap();
        assert_eq!(char_idx, 11);
        assert_eq!(&subject[byte_off..byte_off + 4], "🚀");
    }

    #[test]
    fn long_multibyte_pattern_unsupported() {
        let mut a = StringAccel::default();
        // 5 emoji = 20 bytes > 16 matrix rows → software fallback.
        assert!(a.find_utf8("xxx", "🚀🚀🚀🚀🚀", 0).is_err());
    }
}
