//! The VM "tail": the hundreds of flat leaf functions real PHP
//! applications spend most of their time in (Figure 1).
//!
//! "The PHP web applications exhibit significant diversity, having very
//! flat execution profiles — the hottest single function (JIT compiled
//! code) is responsible for only 10-12% of cycles, and they take about 100
//! functions to account for about 65% of cycles." Request handling, DB
//! drivers, autoloaders, serializers, session management — none of it is
//! one of the four accelerated categories, and none of it shrinks under
//! the prior optimizations. This module charges that long tail, plus the
//! refcount/type-check traffic that pervades all of it.

use php_runtime::context::ZVAL_TYPE_CHECK;
use php_runtime::{Category, Leaf};
use phpaccel_core::PhpMachine;
use std::sync::LazyLock;

/// Number of distinct tail leaf functions.
pub const TAIL_FUNCTIONS: usize = 150;

/// The tail's leaf descriptors, `vm_leaf_000` onwards, interned once.
static TAIL_LEAVES: LazyLock<Vec<&'static Leaf>> = LazyLock::new(|| {
    (0..TAIL_FUNCTIONS)
        .map(|k| Leaf::intern(&format!("vm_leaf_{k:03}"), Category::Other))
        .collect()
});

/// Per-request VM-tail parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmTail {
    /// Overall scale: the hottest function (JIT code) gets `10 × scale`
    /// µops; tail function *k* gets `60 × scale / (k + 6)`.
    pub scale: u64,
    /// Refcount increments + decrements charged per request.
    pub refcount_ops: u64,
    /// Dynamic type checks charged per request.
    pub type_checks: u64,
}

impl VmTail {
    /// Charges the tail for one request.
    pub fn charge(&self, m: &PhpMachine) {
        let ctx = m.ctx();
        // The hottest single function: JIT-compiled code (~10-12 %).
        ctx.charge_jit(10 * self.scale);
        // A flat, heavy tail of VM leaf functions.
        for (k, leaf) in TAIL_LEAVES.iter().enumerate() {
            ctx.charge_other(leaf, 60 * self.scale / (k as u64 + 6));
        }
        // Abstraction overheads spread across everything (§3).
        let half = self.refcount_ops / 2;
        ctx.refcount().inc_n(half, ctx.profiler());
        ctx.refcount()
            .dec_n((self.refcount_ops - half) / 8, ctx.profiler());
        ctx.type_check_n(self.type_checks / 4);
        // The remaining checks charged as one call.
        ctx.profiler().record(
            &ZVAL_TYPE_CHECK,
            php_runtime::OpCost {
                uops: 3 * (self.type_checks - self.type_checks / 4),
                branches: self.type_checks,
                loads: self.type_checks,
                stores: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_runtime::Category;

    #[test]
    fn tail_is_flat_and_jit_topped() {
        let m = PhpMachine::baseline();
        let tail = VmTail {
            scale: 100,
            refcount_ops: 400,
            type_checks: 300,
        };
        tail.charge(&m);
        let rows = m.ctx().profiler().leaf_profile();
        assert!(rows.len() > 140);
        assert_eq!(rows[0].name, "jit_compiled_code");
        assert!(rows[0].share < 0.15, "hottest ≤ ~12%: {}", rows[0].share);
        // Flat tail: takes many functions to cover 65 %.
        let mut cum = 0.0;
        let mut needed = 0;
        for r in &rows {
            cum += r.share;
            needed += 1;
            if cum >= 0.65 {
                break;
            }
        }
        assert!(needed > 20, "needed {needed} functions for 65%");
    }

    #[test]
    fn charges_refcount_and_typecheck() {
        let m = PhpMachine::baseline();
        VmTail {
            scale: 10,
            refcount_ops: 100,
            type_checks: 80,
        }
        .charge(&m);
        let cats = m.ctx().profiler().category_breakdown();
        assert!(cats[&Category::RefCount] > 0);
        assert!(cats[&Category::TypeCheck] > 0);
    }
}
