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
        self.dec_n(1, prof);
    }

    /// Records `n` decrements, each charged as [`RefcountMeter::dec`] charges
    /// one: the ledger counts `n` calls.
    pub fn dec_n(&self, n: u64, prof: &Profiler) {
        self.decs.set(self.decs.get() + n);
        prof.record_n(
            &ZVAL_REFCOUNT_DEC,
            OpCost {
                uops: DEC_UOPS,
                branches: 1,
                loads: 1,
                stores: 1,
            },
            n,
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
    fn dec_n_is_n_decs() {
        let (bulk, single) = (RefcountMeter::new(), RefcountMeter::new());
        let (pb, ps) = (Profiler::new(), Profiler::new());
        bulk.dec_n(4, &pb);
        for _ in 0..4 {
            single.dec(&ps);
        }
        assert_eq!(bulk.decs(), 4);
        assert_eq!(bulk.decs(), single.decs());
        assert_eq!(pb.leaf_profile(), ps.leaf_profile());
        assert_eq!(pb.total_cost(), ps.total_cost());
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
