//! The simulated clock of the reference engine, pinned.
//!
//! The server replays every successful request on the fact-free tree walk
//! and byte-compares the response, so that walk is the definition of a
//! correct answer. `sim_uops_pin.rs` pins what the served VM charges; this
//! pins what the reference charges: every corpus script, run once on a
//! fresh baseline machine and once on a fresh specialized machine, with no
//! analysis facts and no memo tier, split over the paper's activity
//! categories. A change to the tree walker that is not meant to move the
//! model must leave every row as it is.

use php_runtime::Category;
use phpaccel_core::{Engine, PhpMachine};
use workloads::php_corpus::CorpusCache;

/// µops per category, in `Category::ALL` order (hash-map, heap, string,
/// regex, type-check, refcount, jit-code, other).
type Row = (&'static str, [u64; 8]);

/// One fact-free tree walk per script on `PhpMachine::baseline()`.
const PINNED_BASELINE: [Row; 12] = [
    ("page-template", [4080, 8290, 207, 0, 207, 163, 300, 0]),
    ("lint-demo", [436, 2870, 0, 0, 12, 17, 66, 0]),
    ("tag-cloud", [3060, 7304, 2, 0, 162, 121, 255, 0]),
    ("comment-filter", [4662, 7408, 290, 783, 171, 207, 426, 0]),
    ("search-echo", [959, 3552, 95, 0, 9, 30, 45, 0]),
    ("node-render", [1456, 3402, 44, 0, 69, 50, 138, 0]),
    ("block-cache", [10358, 14424, 54, 0, 747, 274, 969, 0]),
    ("word-stats", [2918, 2280, 182, 0, 90, 80, 207, 0]),
    ("banking-interest", [3396, 1934, 0, 0, 207, 0, 276, 0]),
    ("support-search", [2492, 3118, 114, 0, 87, 89, 198, 0]),
    ("price-helpers", [1640, 3070, 0, 0, 72, 21, 144, 0]),
    ("session-token", [392, 3758, 18, 0, 42, 12, 84, 0]),
];

/// The same walk on `PhpMachine::specialized()`.
const PINNED_SPECIALIZED: [Row; 12] = [
    ("page-template", [152, 6420, 78, 0, 207, 163, 300, 0]),
    ("lint-demo", [94, 2714, 0, 0, 12, 17, 66, 0]),
    ("tag-cloud", [80, 5930, 2, 0, 162, 121, 255, 0]),
    ("comment-filter", [272, 6236, 69, 783, 171, 207, 426, 0]),
    ("search-echo", [24, 3180, 68, 0, 9, 30, 45, 0]),
    ("node-render", [34, 3028, 2, 0, 69, 50, 138, 0]),
    ("block-cache", [378, 9206, 54, 0, 747, 274, 969, 0]),
    ("word-stats", [74, 1970, 125, 0, 90, 80, 207, 0]),
    ("banking-interest", [80, 1810, 0, 0, 207, 0, 276, 0]),
    ("support-search", [64, 2870, 114, 0, 87, 89, 198, 0]),
    ("price-helpers", [90, 2294, 0, 0, 72, 21, 144, 0]),
    ("session-token", [44, 3042, 18, 0, 42, 12, 84, 0]),
];

fn measure(fresh: fn() -> PhpMachine) -> Vec<Row> {
    CorpusCache::build()
        .scripts()
        .iter()
        .map(|script| {
            let mut m = fresh();
            assert_eq!(
                m.engine(),
                Engine::TreeWalk,
                "the reference is the tree walk"
            );
            script.run(&mut m, false);
            let by_category = m.ctx().profiler().category_breakdown();
            let row = Category::ALL.map(|c| by_category.get(&c).copied().unwrap_or(0));
            (script.entry().name, row)
        })
        .collect()
}

#[test]
fn fact_free_tree_walk_uops_are_pinned_on_the_baseline_machine() {
    assert_eq!(measure(PhpMachine::baseline), PINNED_BASELINE);
}

#[test]
fn fact_free_tree_walk_uops_are_pinned_on_the_specialized_machine() {
    assert_eq!(measure(PhpMachine::specialized), PINNED_SPECIALIZED);
}
