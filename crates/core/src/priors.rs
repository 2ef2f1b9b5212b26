//! Models of the prior-work optimizations applied in §3.
//!
//! "We apply several hardware and software optimizations from prior research
//! together to these applications": inline caching \[31, 32\] + hash-map
//! inlining \[40\], checked-load hardware type checks \[22\], hardware reference
//! counting \[46\], and kernel-allocation tuning. The goal of §3 is to shrink
//! abstraction overheads so the four fundamental activity categories emerge
//! (Figure 3 / Figure 4).
//!
//! The optimizations are applied *analytically* to a measured leaf-function
//! profile: each targets specific categories/leaf functions with a
//! configured µop reduction. This mirrors the paper, which models these
//! prior proposals in simulation rather than re-implementing each.

use crate::config::PriorsConfig;
use php_runtime::profile::{Category, ProfileRow, Profiler};
use std::collections::HashMap;

/// Which prior optimization touched a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorOpt {
    /// Inline caching + hash-map inlining on predictable-key accesses.
    IcHmi,
    /// Checked-load hardware type checks.
    CheckedLoad,
    /// Hardware reference counting.
    HwRefcount,
    /// Kernel allocation tuning.
    AllocTuning,
}

impl PriorOpt {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PriorOpt::IcHmi => "inline-caching+HMI",
            PriorOpt::CheckedLoad => "checked-load",
            PriorOpt::HwRefcount => "hw-refcounting",
            PriorOpt::AllocTuning => "kernel-alloc-tuning",
        }
    }
}

/// Result of applying the prior optimizations to a profile.
#[derive(Debug, Clone)]
pub struct PriorsOutcome {
    /// Hottest-first rows before.
    pub before: Vec<ProfileRow>,
    /// Rows after, same order as `before` (shares recomputed).
    pub after: Vec<ProfileRow>,
    /// Total µops before.
    pub uops_before: u64,
    /// Total µops after.
    pub uops_after: u64,
    /// µops removed, attributed per optimization.
    pub saved_by: HashMap<PriorOpt, u64>,
}

impl PriorsOutcome {
    /// Execution fraction remaining (paper: 88.15 % on average).
    pub fn remaining_fraction(&self) -> f64 {
        if self.uops_before == 0 {
            return 1.0;
        }
        self.uops_after as f64 / self.uops_before as f64
    }

    /// Adjusted µops per category.
    pub fn category_breakdown_after(&self) -> HashMap<Category, u64> {
        let mut m = HashMap::new();
        for r in &self.after {
            *m.entry(r.category).or_insert(0) += r.uops;
        }
        m
    }
}

fn reduction_for(row: &ProfileRow, cfg: &PriorsConfig) -> Option<(PriorOpt, f64)> {
    match row.category {
        Category::TypeCheck => Some((PriorOpt::CheckedLoad, cfg.type_check_reduction)),
        Category::RefCount => Some((PriorOpt::HwRefcount, cfg.refcount_reduction)),
        Category::Heap if row.name.starts_with("kernel_mmap") => {
            Some((PriorOpt::AllocTuning, cfg.kernel_alloc_reduction))
        }
        Category::HashMap if row.name.starts_with("zend_hash") => Some((
            PriorOpt::IcHmi,
            cfg.predictable_key_fraction * cfg.ic_hmi_reduction,
        )),
        _ => None,
    }
}

/// Applies the four prior optimizations to profile rows.
pub fn apply_to_rows(rows: &[ProfileRow], cfg: &PriorsConfig) -> PriorsOutcome {
    let uops_before: u64 = rows.iter().map(|r| r.uops).sum();
    let mut saved_by: HashMap<PriorOpt, u64> = HashMap::new();
    let mut after: Vec<ProfileRow> = rows.to_vec();
    for row in after.iter_mut() {
        if let Some((opt, frac)) = reduction_for(row, cfg) {
            let saved = (row.uops as f64 * frac) as u64;
            row.uops -= saved;
            *saved_by.entry(opt).or_insert(0) += saved;
        }
    }
    let uops_after: u64 = after.iter().map(|r| r.uops).sum();
    let total_after = uops_after.max(1) as f64;
    for row in after.iter_mut() {
        row.share = row.uops as f64 / total_after;
    }
    PriorsOutcome {
        before: rows.to_vec(),
        after,
        uops_before,
        uops_after,
        saved_by,
    }
}

/// Convenience: applies the priors to a live profiler's current profile.
pub fn apply(profiler: &Profiler, cfg: &PriorsConfig) -> PriorsOutcome {
    apply_to_rows(&profiler.leaf_profile(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_runtime::profile::{Leaf, OpCost};

    fn sample_profiler() -> Profiler {
        let p = Profiler::new();
        for (name, category, uops) in [
            ("zend_hash_find", Category::HashMap, 10_000),
            ("zval_type_check", Category::TypeCheck, 5_000),
            ("zval_refcount_inc", Category::RefCount, 4_000),
            ("kernel_mmap_alloc", Category::Heap, 2_000),
            ("slab_malloc", Category::Heap, 6_000),
            ("php_trim", Category::String, 3_000),
        ] {
            p.record(Leaf::intern(name, category), OpCost::mixed(uops));
        }
        p
    }

    #[test]
    fn reductions_target_right_functions() {
        let out = apply(&sample_profiler(), &PriorsConfig::default());
        let find = |rows: &[ProfileRow], n: &str| rows.iter().find(|r| r.name == n).unwrap().uops;
        // Checked-load: −90 %.
        assert_eq!(find(&out.after, "zval_type_check"), 500);
        // HW refcount: −90 %.
        assert_eq!(find(&out.after, "zval_refcount_inc"), 400);
        // Kernel tuning: −60 %.
        assert_eq!(find(&out.after, "kernel_mmap_alloc"), 800);
        // IC+HMI: −(0.35 × 0.85) ≈ −29.75 %.
        assert_eq!(find(&out.after, "zend_hash_find"), 10_000 - 2975);
        // Untouched categories stay.
        assert_eq!(find(&out.after, "php_trim"), 3_000);
        assert_eq!(find(&out.after, "slab_malloc"), 6_000);
    }

    #[test]
    fn remaining_fraction_below_one() {
        let out = apply(&sample_profiler(), &PriorsConfig::default());
        let f = out.remaining_fraction();
        assert!(f < 1.0 && f > 0.5, "remaining {f}");
        assert_eq!(
            out.uops_before - out.uops_after,
            out.saved_by.values().sum::<u64>()
        );
    }

    #[test]
    fn shares_renormalized() {
        let out = apply(&sample_profiler(), &PriorsConfig::default());
        let total: f64 = out.after.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survivors_gain_share() {
        // Figure 3: "the contributions of the remaining functions in the
        // overall distribution have gone up."
        let out = apply(&sample_profiler(), &PriorsConfig::default());
        let before_share = out
            .before
            .iter()
            .find(|r| r.name == "php_trim")
            .unwrap()
            .share;
        let after_share = out
            .after
            .iter()
            .find(|r| r.name == "php_trim")
            .unwrap()
            .share;
        assert!(after_share > before_share);
    }

    #[test]
    fn all_saved_sources_present() {
        let out = apply(&sample_profiler(), &PriorsConfig::default());
        assert_eq!(out.saved_by.len(), 4);
        assert!(out.saved_by[&PriorOpt::HwRefcount] > 0);
    }
}
