//! Reference-counting cost model.
//!
//! "Reference counting constitutes a major source of overhead in these PHP
//! applications as it is spread across compiled code and many library
//! functions" (§3). Rust's `Rc` does the actual memory management; this
//! module *meters* the refcount traffic so the abstraction-overhead analysis
//! (Figure 3) and the hardware-refcounting prior optimization \[46\] have real
//! numbers to work from.

use crate::profile::{Category, Leaf, OpCost, Profiler};
use std::cell::Cell;

static ZVAL_REFCOUNT_INC: Leaf = Leaf::new("zval_refcount_inc", Category::RefCount);
static ZVAL_REFCOUNT_DEC: Leaf = Leaf::new("zval_refcount_dec", Category::RefCount);

/// Micro-ops charged per software refcount increment (load, add, store).
pub const INC_UOPS: u64 = 3;
/// Micro-ops charged per software refcount decrement (load, sub, branch to
/// zero-check, store).
pub const DEC_UOPS: u64 = 5;

/// Counts refcount operations and charges their software cost.
#[derive(Debug, Default)]
pub struct RefcountMeter {
    incs: Cell<u64>,
    decs: Cell<u64>,
}

impl RefcountMeter {
    /// New meter with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a refcount increment (value copied / aliased).
    pub fn inc(&self, prof: &Profiler) {
        self.incs.set(self.incs.get() + 1);
        prof.record(
            &ZVAL_REFCOUNT_INC,
            OpCost {
                uops: INC_UOPS,
                branches: 0,
                loads: 1,
                stores: 1,
            },
        );
    }

    /// Records a refcount decrement (value destroyed / overwritten).
    pub fn dec(&self, prof: &Profiler) {
        self.decs.set(self.decs.get() + 1);
        prof.record(
            &ZVAL_REFCOUNT_DEC,
            OpCost {
                uops: DEC_UOPS,
                branches: 1,
                loads: 1,
                stores: 1,
            },
        );
    }

    /// Records `n` increments at once (bulk copies, array dup).
    pub fn inc_n(&self, n: u64, prof: &Profiler) {
        self.incs.set(self.incs.get() + n);
        prof.record(
            &ZVAL_REFCOUNT_INC,
            OpCost {
                uops: INC_UOPS,
                branches: 0,
                loads: 1,
                stores: 1,
            }
            .scaled(n),
        );
    }

    /// Total increments observed.
    pub fn incs(&self) -> u64 {
        self.incs.get()
    }

    /// Total decrements observed.
    pub fn decs(&self) -> u64 {
        self.decs.get()
    }

    /// Total refcount operations.
    pub fn total(&self) -> u64 {
        self.incs.get() + self.decs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_charges() {
        let m = RefcountMeter::new();
        let p = Profiler::new();
        m.inc(&p);
        m.inc(&p);
        m.dec(&p);
        assert_eq!(m.incs(), 2);
        assert_eq!(m.decs(), 1);
        assert_eq!(m.total(), 3);
        assert_eq!(p.total_uops(), 2 * INC_UOPS + DEC_UOPS);
        let f = p.function("zval_refcount_dec").unwrap();
        assert_eq!(f.category, Some(Category::RefCount));
    }

    #[test]
    fn bulk_inc() {
        let m = RefcountMeter::new();
        let p = Profiler::new();
        m.inc_n(10, &p);
        assert_eq!(m.incs(), 10);
        assert_eq!(p.total_uops(), 10 * INC_UOPS);
    }
}
