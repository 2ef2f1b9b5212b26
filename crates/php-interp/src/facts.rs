//! `AnalysisFacts` — the side-table through which static analysis feeds the
//! interpreter and the accelerators.
//!
//! The `php-analysis` crate lowers a [`Program`](crate::ast::Program) into
//! CFGs, runs its data-flow analyses, and records what it proved *here*,
//! keyed by node ids it assigns during lowering. The AST types themselves
//! are never mutated: nodes are identified by address, so the facts are only
//! valid for the exact `Program` instance that was analyzed (templates are
//! parsed once and interpreted per-request, so that instance is long-lived).
//! Once built, the table is read-only, `Send + Sync`, and identity-stable:
//! wrapping the analyzed `Program` and its facts in `Arc`s and handing clones
//! of those `Arc`s to worker threads preserves every node address, so all
//! workers see the same facts without re-parsing or re-analyzing — the
//! software analogue of a shared bytecode cache.
//! A missing entry always means "no facts" — the interpreter falls back to
//! fully dynamic behaviour, which keeps attachment of stale or foreign facts
//! harmless for correctness.
//!
//! Every fact is *work-elision* metadata: skip a dynamic type check, skip
//! metering an inc/dec pair on a proven-non-escaping temporary, or let the
//! hardware hash table skip its hash/probe stage for a proven key shape.
//! None of them change what a program computes, only what bookkeeping the
//! runtime performs — interpreter output is byte-identical with facts
//! attached or not.

use crate::ast::{Expr, Stmt};
use regex_engine::Regex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Identifier of an AST node, assigned in lowering order by `php-analysis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Statically proven shape of a hash-map key at one access site. Mirrors the
/// hardware hint (`accel_htable::KeyShapeHint`) without depending on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KeyShape {
    /// Compile-time constant string key (hash foldable at specialization).
    ConstStr,
    /// Fresh integer append (`$a[] = v` on an append-only array).
    IntAppend,
    /// Nothing proven.
    #[default]
    Unknown,
}

/// The facts side-table. Built by `php-analysis`, consumed by
/// [`Interp`](crate::eval::Interp) via `set_facts`.
#[derive(Debug, Default)]
pub struct AnalysisFacts {
    expr_ids: HashMap<usize, NodeId>,
    stmt_ids: HashMap<usize, NodeId>,
    next: u32,
    /// Per-`Expr::Bin` node: (lhs type proven, rhs type proven).
    bin_typed: HashMap<NodeId, (bool, bool)>,
    /// Expression nodes (`Var` / `Index`) whose fetched value's refcount
    /// increment is elidable (consumed transiently, never escapes).
    rc_elide_read: HashSet<NodeId>,
    /// Statement nodes (`Assign` / `Foreach`) whose stored value's inc and
    /// overwritten value's dec are elidable.
    rc_elide_store: HashSet<NodeId>,
    /// Key shape proven for `Expr::Index` reads and `Stmt::Assign` writes.
    key_shape: HashMap<NodeId, KeyShape>,
    /// Per-`Expr::Call` node: the regex compiled at analysis time from a
    /// constant-propagated `preg_*` pattern argument. Both engines share
    /// this one handle instead of compiling per request, so its lazy DFA
    /// and first-byte table stay warm across requests and workers.
    precompiled_regex: HashMap<NodeId, Arc<Regex>>,
    /// `Expr::Call` nodes of user functions resolved through an
    /// interprocedural summary (counted at runtime as a savings win).
    call_summarized: HashSet<NodeId>,
    /// Byte sizes of statically known allocation sites (constant-string
    /// transients, fresh arrays): fed to the hardware heap's free-list
    /// pre-seeding when the facts are attached.
    alloc_size_hints: Vec<usize>,
    /// Number of tainted-sink lints the analysis raised for this program.
    taint_lint_count: usize,
    /// Allocation sites (echo materializations, concat transients, array
    /// literals, autovivified arrays) the region analysis proved die with
    /// the request: eligible for arena/epoch allocation. Expression and
    /// statement sites share one id space, so one set covers both.
    arena_safe: HashSet<NodeId>,
    /// Functions whose symbol-table array is provably request-scoped (no
    /// `extract` poisoning). A missing name means "not proven" — the
    /// interpreter keeps the free-list path.
    symtab_arena_safe: HashSet<String>,
    /// `Expr::Call` sites the effect analysis proved memoizable across
    /// requests: the callee is (transitively) write-free and deterministic,
    /// so its result is a pure function of arguments plus the globals in
    /// its read-set. The stored fingerprint drives key construction and
    /// write-triggered invalidation.
    memo_sites: HashMap<NodeId, MemoSiteFact>,
    /// The union of every memo site's `deps`: the only globals whose writes
    /// can match a stored fingerprint.
    memo_deps: HashSet<String>,
}

/// What the engines need to memoize one proven call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoSiteFact {
    /// Callee name (part of the cache key).
    pub func: String,
    /// Dependency fingerprint: every global the callee may (transitively)
    /// read, sorted. Their *values* enter the key; their *names* drive
    /// invalidation.
    pub deps: Vec<String>,
}

fn expr_addr(e: &Expr) -> usize {
    e as *const Expr as usize
}

fn stmt_addr(s: &Stmt) -> usize {
    s as *const Stmt as usize
}

impl AnalysisFacts {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    // -- construction (used by php-analysis) ---------------------------------

    /// Assigns (or returns the existing) id for an expression node.
    pub fn intern_expr(&mut self, e: &Expr) -> NodeId {
        let next = &mut self.next;
        *self.expr_ids.entry(expr_addr(e)).or_insert_with(|| {
            let id = NodeId(*next);
            *next += 1;
            id
        })
    }

    /// Assigns (or returns the existing) id for a statement node.
    pub fn intern_stmt(&mut self, s: &Stmt) -> NodeId {
        let next = &mut self.next;
        *self.stmt_ids.entry(stmt_addr(s)).or_insert_with(|| {
            let id = NodeId(*next);
            *next += 1;
            id
        })
    }

    /// Records which operands of a `Bin` node have statically proven types.
    pub fn set_bin_typed(&mut self, id: NodeId, lhs: bool, rhs: bool) {
        if lhs || rhs {
            self.bin_typed.insert(id, (lhs, rhs));
        }
    }

    /// Marks a read node's refcount increment as elidable.
    pub fn mark_rc_elide_read(&mut self, id: NodeId) {
        self.rc_elide_read.insert(id);
    }

    /// Marks a store statement's refcount pair as elidable.
    pub fn mark_rc_elide_store(&mut self, id: NodeId) {
        self.rc_elide_store.insert(id);
    }

    /// Records the proven key shape for an access site.
    pub fn set_key_shape(&mut self, id: NodeId, shape: KeyShape) {
        if shape != KeyShape::Unknown {
            self.key_shape.insert(id, shape);
        }
    }

    /// Stores the analysis-time-compiled regex for a `preg_*` call site.
    pub fn set_precompiled_regex(&mut self, id: NodeId, re: Regex) {
        self.precompiled_regex.insert(id, Arc::new(re));
    }

    /// Marks a user-call site as resolved through a function summary.
    pub fn mark_call_summarized(&mut self, id: NodeId) {
        self.call_summarized.insert(id);
    }

    /// Records one statically known allocation size (bytes).
    pub fn add_alloc_size_hint(&mut self, size: usize) {
        self.alloc_size_hints.push(size);
    }

    /// Records how many tainted-sink lints the analysis raised.
    pub fn set_taint_lint_count(&mut self, n: usize) {
        self.taint_lint_count = n;
    }

    /// Marks an allocation site (expression or statement id) as arena-safe:
    /// the region analysis proved the allocation never outlives the request.
    pub fn mark_arena_safe(&mut self, id: NodeId) {
        self.arena_safe.insert(id);
    }

    /// Records whether `name`'s symbol-table array is arena-safe. Only
    /// positive verdicts are stored; absence means "use the free list".
    pub fn set_symtab_arena_safe(&mut self, name: &str, safe: bool) {
        if safe {
            self.symtab_arena_safe.insert(name.to_string());
        }
    }

    /// Marks a call site as memoizable with the given fingerprint.
    pub fn set_memo_site(&mut self, id: NodeId, fact: MemoSiteFact) {
        self.memo_deps.extend(fact.deps.iter().cloned());
        self.memo_sites.insert(id, fact);
    }

    // -- queries (used by the interpreter) -----------------------------------

    /// The id of an expression node, if it belongs to the analyzed program.
    pub fn expr_id(&self, e: &Expr) -> Option<NodeId> {
        self.expr_ids.get(&expr_addr(e)).copied()
    }

    /// The id of a statement node, if it belongs to the analyzed program.
    pub fn stmt_id(&self, s: &Stmt) -> Option<NodeId> {
        self.stmt_ids.get(&stmt_addr(s)).copied()
    }

    /// Whether the operand types of a `Bin` node were proven: `(lhs, rhs)`.
    pub fn bin_typed(&self, e: &Expr) -> (bool, bool) {
        self.expr_id(e)
            .and_then(|id| self.bin_typed.get(&id).copied())
            .unwrap_or((false, false))
    }

    /// Whether a read node's refcount increment is elidable.
    pub fn rc_elide_read(&self, e: &Expr) -> bool {
        self.expr_id(e)
            .is_some_and(|id| self.rc_elide_read.contains(&id))
    }

    /// Whether a store statement's refcount pair is elidable.
    pub fn rc_elide_store(&self, s: &Stmt) -> bool {
        self.stmt_id(s)
            .is_some_and(|id| self.rc_elide_store.contains(&id))
    }

    /// The proven key shape of an `Index` read.
    pub fn key_shape_expr(&self, e: &Expr) -> KeyShape {
        self.expr_id(e)
            .and_then(|id| self.key_shape.get(&id).copied())
            .unwrap_or_default()
    }

    /// The proven key shape of an `Assign` write.
    pub fn key_shape_stmt(&self, s: &Stmt) -> KeyShape {
        self.stmt_id(s)
            .and_then(|id| self.key_shape.get(&id).copied())
            .unwrap_or_default()
    }

    /// The analysis-time-compiled regex for a `preg_*` call site, if any.
    pub fn precompiled_regex(&self, e: &Expr) -> Option<&Arc<Regex>> {
        self.expr_id(e)
            .and_then(|id| self.precompiled_regex.get(&id))
    }

    /// Whether a user-call site was resolved through a function summary.
    pub fn call_summarized(&self, e: &Expr) -> bool {
        self.expr_id(e)
            .is_some_and(|id| self.call_summarized.contains(&id))
    }

    /// Statically known allocation sizes (bytes), for heap pre-seeding.
    pub fn alloc_size_hints(&self) -> &[usize] {
        &self.alloc_size_hints
    }

    /// Number of tainted-sink lints the analysis raised.
    pub fn taint_lint_count(&self) -> usize {
        self.taint_lint_count
    }

    /// Whether an expression's allocation site is proven arena-safe.
    pub fn arena_safe_expr(&self, e: &Expr) -> bool {
        self.expr_id(e)
            .is_some_and(|id| self.arena_safe.contains(&id))
    }

    /// Whether a statement's allocation site (autovivified array) is proven
    /// arena-safe.
    pub fn arena_safe_stmt(&self, s: &Stmt) -> bool {
        self.stmt_id(s)
            .is_some_and(|id| self.arena_safe.contains(&id))
    }

    /// Whether `name`'s symbol-table array is proven arena-safe.
    pub fn symtab_arena_safe(&self, name: &str) -> bool {
        self.symtab_arena_safe.contains(name)
    }

    /// Number of proven arena-safe allocation sites (node sites plus
    /// symbol-table verdicts), for the savings counters.
    pub fn arena_safe_count(&self) -> usize {
        self.arena_safe.len() + self.symtab_arena_safe.len()
    }

    /// Number of `preg_*` sites with an analysis-time-compiled pattern.
    pub fn precompiled_regex_count(&self) -> usize {
        self.precompiled_regex.len()
    }

    /// The memo fingerprint of a call site, if the analysis proved it
    /// memoizable.
    pub fn memo_site(&self, e: &Expr) -> Option<&MemoSiteFact> {
        self.expr_id(e).and_then(|id| self.memo_sites.get(&id))
    }

    /// Whether some memo site's fingerprint names global `name`, i.e. whether
    /// a write to it can invalidate anything.
    pub fn is_memo_dep(&self, name: &str) -> bool {
        self.memo_deps.contains(name)
    }

    /// Number of proven-memoizable call sites.
    pub fn memo_site_count(&self) -> usize {
        self.memo_sites.len()
    }

    // -- summary counts (used by reports) ------------------------------------

    /// Number of nodes interned.
    pub fn node_count(&self) -> usize {
        self.expr_ids.len() + self.stmt_ids.len()
    }

    /// Number of `Bin` operand slots with proven types.
    pub fn typed_operand_count(&self) -> usize {
        self.bin_typed
            .values()
            .map(|(l, r)| *l as usize + *r as usize)
            .sum()
    }

    /// Number of elidable read nodes.
    pub fn rc_elide_read_count(&self) -> usize {
        self.rc_elide_read.len()
    }

    /// Number of elidable store statements.
    pub fn rc_elide_store_count(&self) -> usize {
        self.rc_elide_store.len()
    }

    /// Number of access sites with a proven key shape, by shape.
    pub fn key_shape_counts(&self) -> (usize, usize) {
        let consts = self
            .key_shape
            .values()
            .filter(|s| **s == KeyShape::ConstStr)
            .count();
        let appends = self
            .key_shape
            .values()
            .filter(|s| **s == KeyShape::IntAppend)
            .count();
        (consts, appends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn facts_key_on_node_identity_not_equality() {
        let prog = parse("$a = 1 + 2; $b = 1 + 2;").unwrap();
        let Stmt::Assign { value: v1, .. } = &prog.stmts[0] else {
            panic!()
        };
        let Stmt::Assign { value: v2, .. } = &prog.stmts[1] else {
            panic!()
        };
        assert_eq!(v1, v2, "structurally equal");
        let mut f = AnalysisFacts::new();
        let id = f.intern_expr(v1);
        f.set_bin_typed(id, true, true);
        assert_eq!(f.bin_typed(v1), (true, true));
        // The twin node carries no facts: identity, not structure.
        assert_eq!(f.bin_typed(v2), (false, false));
        // A clone is a different instance → no facts (safe fallback).
        let cloned = v1.clone();
        assert_eq!(f.bin_typed(&cloned), (false, false));
    }

    #[test]
    fn interning_is_idempotent() {
        let prog = parse("$x = 1;").unwrap();
        let s = &prog.stmts[0];
        let mut f = AnalysisFacts::new();
        let a = f.intern_stmt(s);
        let b = f.intern_stmt(s);
        assert_eq!(a, b);
        assert_eq!(f.stmt_id(s), Some(a));
    }

    #[test]
    fn facts_are_send_and_sync_for_arc_sharing() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisFacts>();
    }

    #[test]
    fn arc_sharing_preserves_node_identity() {
        use std::sync::Arc;
        let prog = Arc::new(parse("$a = 1 + 2;").unwrap());
        let Stmt::Assign { value, .. } = &prog.stmts[0] else {
            panic!()
        };
        let mut f = AnalysisFacts::new();
        let id = f.intern_expr(value);
        f.set_bin_typed(id, true, true);
        let facts = Arc::new(f);
        // Another thread holding clones of the same Arcs resolves the same
        // node to the same facts: addresses survive the Arc round-trip.
        let (p2, f2) = (Arc::clone(&prog), Arc::clone(&facts));
        std::thread::spawn(move || {
            let Stmt::Assign { value, .. } = &p2.stmts[0] else {
                panic!()
            };
            assert_eq!(f2.bin_typed(value), (true, true));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unknown_shapes_not_stored() {
        let prog = parse("$x = $a['k'];").unwrap();
        let Stmt::Assign { value, .. } = &prog.stmts[0] else {
            panic!()
        };
        let mut f = AnalysisFacts::new();
        let id = f.intern_expr(value);
        f.set_key_shape(id, KeyShape::Unknown);
        assert_eq!(f.key_shape_counts(), (0, 0));
        f.set_key_shape(id, KeyShape::ConstStr);
        assert_eq!(f.key_shape_expr(value), KeyShape::ConstStr);
        assert_eq!(f.key_shape_counts(), (1, 0));
    }
}
