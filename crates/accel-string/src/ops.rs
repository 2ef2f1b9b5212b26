//! Operation descriptors and cost accounting for the string accelerator.

/// Cost of one accelerator invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelCost {
    /// Accelerator cycles (3 per up-to-64-byte block at 2 GHz, §5.1).
    pub cycles: u64,
    /// Subject bytes streamed through the matrix.
    pub bytes: u64,
    /// Matrix cells active (clock-gating-aware energy proxy).
    pub active_cells: u64,
}

impl AccelCost {
    /// Component-wise sum.
    pub fn plus(self, o: AccelCost) -> AccelCost {
        AccelCost {
            cycles: self.cycles + o.cycles,
            bytes: self.bytes + o.bytes,
            active_cells: self.active_cells + o.active_cells,
        }
    }
}

/// Why an operation could not run on the accelerator (software fallback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsupported {
    /// Pattern longer than the matrix has rows.
    PatternTooLong {
        /// Pattern length.
        len: usize,
        /// Matrix rows.
        rows: usize,
    },
    /// Needed more inequality rows than the hardware provides.
    TooManyRanges,
    /// Set larger than the matrix has rows.
    SetTooLarge {
        /// Set size.
        len: usize,
        /// Matrix rows.
        rows: usize,
    },
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsupported::PatternTooLong { len, rows } => {
                write!(f, "pattern of {len} bytes exceeds {rows} matrix rows")
            }
            Unsupported::TooManyRanges => write!(f, "too many range comparisons"),
            Unsupported::SetTooLarge { len, rows } => {
                write!(f, "byte set of {len} exceeds {rows} matrix rows")
            }
        }
    }
}

impl std::error::Error for Unsupported {}

/// Aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrAccelStats {
    /// Operations served by the accelerator.
    pub ops: u64,
    /// Blocks processed.
    pub blocks: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Total subject bytes.
    pub bytes: u64,
    /// Total active matrix cells.
    pub active_cells: u64,
    /// Operations that fell back to software.
    pub fallbacks: u64,
    /// Configuration loads (`strreadconfig`).
    pub config_loads: u64,
    /// Configuration saves (`strwriteconfig`).
    pub config_saves: u64,
    /// Configuration-register faults injected (testing hook).
    pub faults_injected: u64,
    /// Faults caught by the register parity check before an operation.
    pub faults_detected: u64,
}

impl StrAccelStats {
    /// Mean bytes per cycle achieved (the concurrency headline of §4.4).
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bytes as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_sums() {
        let a = AccelCost {
            cycles: 3,
            bytes: 64,
            active_cells: 128,
        };
        let b = AccelCost {
            cycles: 3,
            bytes: 10,
            active_cells: 20,
        };
        let c = a.plus(b);
        assert_eq!(c.cycles, 6);
        assert_eq!(c.bytes, 74);
        assert_eq!(c.active_cells, 148);
    }

    #[test]
    fn throughput_metric() {
        let s = StrAccelStats {
            cycles: 30,
            bytes: 640,
            ..Default::default()
        };
        assert!((s.bytes_per_cycle() - 21.333).abs() < 0.01);
        assert_eq!(StrAccelStats::default().bytes_per_cycle(), 0.0);
    }
}
