//! The matching matrix: ASCII compare rows over a multi-byte subject block.
//!
//! §4.4: "ASCII compare uses combinational logic to find the presence of
//! pattern characters within the subject string to populate a matching
//! matrix. This operation is done in parallel [...] we allow 6 of our
//! matching matrix rows to also support inequality comparisons [...] Entries
//! within the ASCII compare matrix that are unused during a given operation
//! can be clock-gated."
//!
//! A block is at most 64 bytes, so one row's compare results pack into a
//! `u64` column bitmask (bit *c* = subject byte *c* satisfied the row).

/// Maximum subject-block width (columns).
pub const MAX_BLOCK_WIDTH: usize = 64;

/// What one matrix row compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSpec {
    /// Equality with one byte (any row supports this).
    Equal(u8),
    /// Inclusive range `[lo, hi]` — needs one of the 6 inequality rows.
    Range {
        /// Low bound.
        lo: u8,
        /// High bound.
        hi: u8,
    },
    /// Row unused (clock-gated).
    Disabled,
}

impl RowSpec {
    /// Does byte `b` satisfy this row?
    pub fn matches(&self, b: u8) -> bool {
        match *self {
            RowSpec::Equal(x) => b == x,
            RowSpec::Range { lo, hi } => lo <= b && b <= hi,
            RowSpec::Disabled => false,
        }
    }

    /// Whether the row needs inequality comparators.
    pub fn needs_inequality(&self) -> bool {
        matches!(self, RowSpec::Range { .. })
    }
}

/// Error building a matrix configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// More rows requested than the matrix has.
    TooManyRows {
        /// Rows requested.
        requested: usize,
        /// Rows available.
        available: usize,
    },
    /// More range rows than the hardware's inequality rows.
    TooManyRanges {
        /// Range rows requested.
        requested: usize,
        /// Inequality rows available.
        available: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyRows {
                requested,
                available,
            } => {
                write!(f, "pattern needs {requested} rows, matrix has {available}")
            }
            ConfigError::TooManyRanges {
                requested,
                available,
            } => {
                write!(
                    f,
                    "pattern needs {requested} range rows, hardware has {available}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Rows the matrix has (§4.4). A row-table entry holds one bit per row.
pub const MAX_ROWS: usize = 16;

/// A loaded matrix configuration (the state `strwriteconfig` saves and
/// `strreadconfig` restores, §4.6).
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    rows: Vec<RowSpec>,
    /// The ASCII compare stage as a table: bit *r* of `lut[b]` is set when
    /// byte `b` satisfies row *r*, so one lookup settles a whole column.
    lut: [u16; 256],
}

/// `lut` is a function of `rows`.
impl PartialEq for MatrixConfig {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl Eq for MatrixConfig {}

impl MatrixConfig {
    /// Builds a configuration, validating against the hardware limits.
    /// `max_rows` is capped at [`MAX_ROWS`].
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the rows don't fit the matrix geometry.
    pub fn new(
        rows: Vec<RowSpec>,
        max_rows: usize,
        inequality_rows: usize,
    ) -> Result<MatrixConfig, ConfigError> {
        let max_rows = max_rows.min(MAX_ROWS);
        if rows.len() > max_rows {
            return Err(ConfigError::TooManyRows {
                requested: rows.len(),
                available: max_rows,
            });
        }
        let ranges = rows.iter().filter(|r| r.needs_inequality()).count();
        if ranges > inequality_rows {
            return Err(ConfigError::TooManyRanges {
                requested: ranges,
                available: inequality_rows,
            });
        }
        let mut lut = [0u16; 256];
        for (r, row) in rows.iter().enumerate() {
            let bytes = match *row {
                RowSpec::Equal(x) => x..=x,
                RowSpec::Range { lo, hi } => lo..=hi,
                RowSpec::Disabled => continue,
            };
            for b in bytes {
                lut[usize::from(b)] |= 1 << r;
            }
        }
        Ok(MatrixConfig { rows, lut })
    }

    /// The row specs.
    pub fn rows(&self) -> &[RowSpec] {
        &self.rows
    }

    /// Active (non-disabled) row count — drives the clock-gating energy model.
    pub fn active_rows(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| !matches!(r, RowSpec::Disabled))
            .count()
    }
}

/// Result of comparing one block: per-row column bitmasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMatch {
    masks: [u64; MAX_ROWS],
    rows: usize,
    any: u64,
    active_cells: u64,
}

impl BlockMatch {
    /// `masks()[r]` bit `c` set ⇔ `block[c]` satisfies row `r`; one mask
    /// per configured row.
    pub fn masks(&self) -> &[u64] {
        &self.masks[..self.rows]
    }

    /// Bit `c` set ⇔ `block[c]` satisfies at least one row.
    pub fn any(&self) -> u64 {
        self.any
    }

    /// Number of matrix cells that toggled (energy accounting).
    pub fn active_cells(&self) -> u64 {
        self.active_cells
    }
}

/// Populates the matching matrix for `block` under `config` — the ASCII
/// compare stage. All columns evaluate in parallel in hardware; here one
/// row-table lookup per column, and the energy model counts every active
/// row's cell in every column.
pub fn ascii_compare(config: &MatrixConfig, block: &[u8]) -> BlockMatch {
    assert!(block.len() <= MAX_BLOCK_WIDTH, "block wider than matrix");
    let mut masks = [0u64; MAX_ROWS];
    let mut any = 0u64;
    let mut bit = 1u64;
    for &b in block {
        let mut hits = config.lut[usize::from(b)];
        if hits != 0 {
            any |= bit;
            while hits != 0 {
                // `% MAX_ROWS` changes nothing; it spares a bounds check.
                masks[hits.trailing_zeros() as usize % MAX_ROWS] |= bit;
                hits &= hits - 1;
            }
        }
        bit <<= 1;
    }
    BlockMatch {
        masks,
        rows: config.rows.len(),
        any,
        active_cells: (config.active_rows() * block.len()) as u64,
    }
}

/// Diagonal AND over the matrix (§4.4: "Operations that require matching of
/// multiple characters use AND gates of diagonal entries within the matching
/// matrix to find the position of consecutive character matches").
///
/// Returns a bitmask of *start* columns `c` such that for every row `r`,
/// `block[c + r]` satisfied row `r`. Start positions whose pattern would run
/// past the block are excluded (the engine's carry buffer handles
/// wrap-around).
pub fn diagonal_and(matches: &BlockMatch, block_len: usize) -> u64 {
    let rows = matches.rows;
    if rows == 0 || block_len == 0 || rows > block_len {
        return 0;
    }
    let mut acc = !0u64;
    for (r, &mask) in matches.masks().iter().enumerate() {
        acc &= mask >> r;
    }
    // Mask off start positions that would overflow the block.
    let valid = block_len - rows + 1;
    acc & valid_mask(valid)
}

fn valid_mask(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// Priority encoder: index of the first valid match (§4.4: "use a priority
/// encoder to find the first instance of a valid match").
pub fn priority_encode(mask: u64) -> Option<usize> {
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(rows: Vec<RowSpec>) -> MatrixConfig {
        MatrixConfig::new(rows, 16, 6).unwrap()
    }

    /// The row-by-row compare the row table replaced: the reference the
    /// table must agree with. Returns per-row masks and active cells.
    fn row_by_row(config: &MatrixConfig, block: &[u8]) -> (Vec<u64>, u64) {
        let mut masks = Vec::with_capacity(config.rows.len());
        let mut active_cells = 0u64;
        for row in &config.rows {
            let mut mask = 0u64;
            if !matches!(row, RowSpec::Disabled) {
                active_cells += block.len() as u64;
                for (c, &b) in block.iter().enumerate() {
                    if row.matches(b) {
                        mask |= 1 << c;
                    }
                }
            }
            masks.push(mask);
        }
        (masks, active_cells)
    }

    /// Bytes biased toward a small alphabet, so equality rows hit often.
    fn byte() -> impl Strategy<Value = u8> {
        prop_oneof![3 => any::<u8>(), 1 => 0x60u8..0x68]
    }

    fn row() -> impl Strategy<Value = RowSpec> {
        prop_oneof![
            byte().prop_map(RowSpec::Equal),
            (byte(), byte()).prop_map(|(lo, hi)| RowSpec::Range { lo, hi }),
            (0u8..1).prop_map(|_| RowSpec::Disabled),
        ]
    }

    /// Up to 16 rows; ranges past the sixth become equality rows.
    fn rows() -> impl Strategy<Value = Vec<RowSpec>> {
        prop::collection::vec(row(), 0..MAX_ROWS + 1).prop_map(|mut rows| {
            let mut ranges = 0;
            for r in &mut rows {
                if let RowSpec::Range { lo, .. } = *r {
                    ranges += 1;
                    if ranges > 6 {
                        *r = RowSpec::Equal(lo);
                    }
                }
            }
            rows
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn row_table_agrees_with_row_by_row_compare(
            rows in rows(),
            block in prop::collection::vec(byte(), 0..MAX_BLOCK_WIDTH + 1),
        ) {
            let config = cfg(rows);
            let m = ascii_compare(&config, &block);
            let (masks, active_cells) = row_by_row(&config, &block);
            prop_assert_eq!(m.masks(), masks.as_slice());
            prop_assert_eq!(m.any(), masks.iter().fold(0, |a, &b| a | b));
            prop_assert_eq!(m.active_cells(), active_cells);
        }
    }

    #[test]
    fn equality_rows_populate_masks() {
        let c = cfg(vec![RowSpec::Equal(b'a'), RowSpec::Equal(b'b')]);
        let m = ascii_compare(&c, b"abab");
        assert_eq!(m.masks()[0], 0b0101);
        assert_eq!(m.masks()[1], 0b1010);
        assert_eq!(m.active_cells(), 8);
    }

    #[test]
    fn range_rows_match_spans() {
        let c = cfg(vec![RowSpec::Range { lo: b'a', hi: b'z' }]);
        let m = ascii_compare(&c, b"aZ9z");
        assert_eq!(m.masks()[0], 0b1001);
    }

    #[test]
    fn disabled_rows_are_clock_gated() {
        let c = cfg(vec![RowSpec::Equal(b'x'), RowSpec::Disabled]);
        let m = ascii_compare(&c, b"xxxx");
        assert_eq!(
            m.active_cells(),
            4,
            "disabled row contributes no active cells"
        );
        assert_eq!(m.masks()[1], 0);
    }

    #[test]
    fn diagonal_and_finds_consecutive_match() {
        // Figure 10's example: subject "babc", pattern "abc".
        let c = cfg(vec![
            RowSpec::Equal(b'a'),
            RowSpec::Equal(b'b'),
            RowSpec::Equal(b'c'),
        ]);
        let m = ascii_compare(&c, b"babc");
        let d = diagonal_and(&m, 4);
        assert_eq!(priority_encode(d), Some(1));
    }

    #[test]
    fn diagonal_and_excludes_overflow_starts() {
        let c = cfg(vec![RowSpec::Equal(b'a'), RowSpec::Equal(b'b')]);
        let m = ascii_compare(&c, b"xxxa"); // 'a' at the last column
        assert_eq!(diagonal_and(&m, 4), 0, "match would run past the block");
    }

    #[test]
    fn priority_encoder_first_bit() {
        assert_eq!(priority_encode(0), None);
        assert_eq!(priority_encode(0b1000), Some(3));
        assert_eq!(priority_encode(0b1010), Some(1));
    }

    #[test]
    fn config_limits_enforced() {
        let rows: Vec<RowSpec> = (0..17).map(|_| RowSpec::Equal(b'x')).collect();
        assert!(matches!(
            MatrixConfig::new(rows, 16, 6),
            Err(ConfigError::TooManyRows { .. })
        ));
        let ranges: Vec<RowSpec> = (0..7).map(|_| RowSpec::Range { lo: 0, hi: 1 }).collect();
        assert!(matches!(
            MatrixConfig::new(ranges, 16, 6),
            Err(ConfigError::TooManyRanges { .. })
        ));
    }

    #[test]
    fn pattern_longer_than_block_matches_nothing() {
        let c = cfg(vec![RowSpec::Equal(b'a'); 5]);
        let m = ascii_compare(&c, b"aaaa");
        assert_eq!(diagonal_and(&m, 4), 0);
    }
}
