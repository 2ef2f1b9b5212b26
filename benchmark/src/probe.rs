//! The host-speed probe. The host is a shared VM whose speed changes by a
//! half for minutes at a time, whatever the program under test does. A fixed
//! piece of the benchmark's own work, run just before and just after a
//! trial's timed block, says how fast the host was meanwhile. The reading
//! qualifies the measured numbers (`loadgen.calib_ms`, and a `note` when it
//! moved within a run); it never changes them (README, "How steady it is").

use crate::mix::Rng;
use std::time::Instant;

/// A random walk of read-modify-writes over a 256 KiB table with a
/// data-dependent branch. It never changes, so how long a slice of it takes
/// says how fast the host is right now.
pub struct Probe {
    table: Vec<u64>,
    rng: Rng,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    const SLOTS: usize = 32 << 10;
    /// A slice is three parts of this many steps each.
    const STEPS: usize = 500_000;

    pub fn new() -> Probe {
        Probe {
            table: vec![0; Self::SLOTS],
            rng: Rng::new(0x5eed),
        }
    }

    fn part(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..Self::STEPS {
            let r = self.rng.next_u64();
            let slot = &mut self.table[(r >> 40) as usize % Self::SLOTS];
            if (*slot ^ r) & 4 == 0 {
                *slot = slot.wrapping_add(r);
            } else {
                *slot ^= r.rotate_left(17);
            }
            acc = acc.wrapping_add(*slot);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Runs one slice (about 4 ms) and returns how long it took in seconds:
    /// three times the median of its three parts, so that one interrupt
    /// does not read as a slow host.
    pub fn slice(&mut self) -> f64 {
        let mut parts = [self.part(), self.part(), self.part()];
        parts.sort_by(f64::total_cmp);
        3.0 * parts[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_takes_time() {
        let mut p = Probe::new();
        assert!(p.slice() > 0.0);
        assert!(p.slice() > 0.0);
    }
}
