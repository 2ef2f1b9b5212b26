//! # php-analysis
//!
//! Static data-flow analysis over the mini-PHP AST: the software half of the
//! paper's specialization story. Where the accelerators (§4) make dynamic
//! work cheap, this crate *removes* dynamic work the interpreter provably
//! does not need — the dynamic type checks, refcount traffic, and hash-table
//! probe stages that §2–3 measure as the dominant overheads of server-side
//! PHP.
//!
//! The pipeline:
//!
//! 1. [`mod@cfg`] lowers each scope (the script plus every function) into a
//!    control-flow graph of basic blocks, referencing AST nodes by address.
//! 2. [`solver`] is a generic monotone framework — join-semilattice trait,
//!    forward/backward worklist solver, widening threshold.
//! 3. [`callgraph`] builds the direct-call graph and condenses it into
//!    SCCs; [`summary`] computes bottom-up function summaries over it
//!    (return type/constant, transitive global writes, per-parameter
//!    retention), which the intraprocedural analyses consume through a
//!    [`summary::CallerView`].
//! 4. The per-scope analyses run on the solver: type inference with
//!    constant propagation ([`types`]), refcount-elision escape analysis
//!    ([`escape`]), liveness ([`liveness`]), whole-program taint
//!    ([`taint`]), and the key-shape/lint work folded into the commit pass
//!    ([`commit`]).
//! 5. Results land in a [`php_interp::AnalysisFacts`] side-table keyed by
//!    node identity — the AST is never mutated, and a missing entry always
//!    means "fall back to fully dynamic". The interpreter consults the table
//!    to skip metered type checks and refcount pairs, pass key-shape hints
//!    to the hardware hash table, reuse analysis-time-compiled `preg_*`
//!    patterns, and pre-seed the hardware heap's free lists.
//!
//! ```
//! use php_analysis::analyze;
//! use php_interp::parse;
//!
//! let prog = parse("$n = 1; $m = $n + 2; echo $m;").unwrap();
//! let analysis = analyze(&prog);
//! assert!(analysis.report.typed_operands() > 0);
//! // Attach to an interpreter with `interp.set_facts(analysis.facts.into())`.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod commit;
pub mod effects;
pub mod escape;
pub mod knowledge;
pub mod liveness;
pub mod region;
pub mod report;
pub mod solver;
pub mod summary;
pub mod taint;
pub mod types;

use php_interp::ast::{FuncDef, Program};
use php_interp::AnalysisFacts;
use std::sync::Arc;

pub use callgraph::CallGraph;
pub use effects::{EffectSummary, Effects, FuncEffect, Purity};
pub use region::{CrossSet, RegionInfo, RegionStats};
pub use report::{Lint, LintKind, Report, ScopeReport};
pub use solver::{Direction, Lattice};
pub use summary::{CallerView, FuncSummary, Summaries};
pub use types::{ConstVal, Ty, TypeEnv};

/// Knobs for [`analyze_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Compute call-graph summaries, thread them through every pass, and run
    /// the whole-program taint analysis. Off reproduces the intraprocedural
    /// pipeline exactly (every call boundary treated as opaque).
    pub interprocedural: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            interprocedural: true,
        }
    }
}

/// Everything the analysis produced for one program.
#[derive(Debug)]
pub struct Analysis {
    /// The side-table of proven facts, keyed by node identity of the
    /// analyzed `Program` instance. Attach with
    /// [`Interp::set_facts`](php_interp::Interp::set_facts).
    pub facts: AnalysisFacts,
    /// Per-scope statistics and lint diagnostics.
    pub report: Report,
}

/// Analyzes `prog`: lowers every scope, runs the data-flow analyses to
/// fixpoint, and commits proven facts and lints.
///
/// The returned facts are valid only for this exact `Program` instance
/// (nodes are identified by address); attaching them to a clone is harmless
/// but proves nothing.
pub fn analyze(prog: &Program) -> Analysis {
    analyze_with_funcs(prog, &[])
}

/// Like [`analyze`], but function bodies are taken from `shared` (matched by
/// name) rather than from `prog`'s own definitions.
///
/// The interpreter clones hoisted function definitions into its own table, so
/// facts keyed on `prog`'s nodes can never match inside function bodies.
/// Pre-registering the same `Arc<FuncDef>` instances with
/// [`Interp::predefine_funcs`](php_interp::Interp::predefine_funcs) and
/// analyzing with them here keeps node identities aligned end to end.
pub fn analyze_with_funcs(prog: &Program, shared: &[Arc<FuncDef>]) -> Analysis {
    analyze_with_options(prog, shared, AnalyzeOptions::default())
}

/// Like [`analyze_with_funcs`], with explicit [`AnalyzeOptions`].
pub fn analyze_with_options(
    prog: &Program,
    shared: &[Arc<FuncDef>],
    opts: AnalyzeOptions,
) -> Analysis {
    let scopes = cfg::lower_program_with(prog, shared);
    let cg = callgraph::CallGraph::build(&scopes);
    let sums = opts
        .interprocedural
        .then(|| summary::compute_summaries(&scopes, &cg));
    let view = match &sums {
        Some(s) => CallerView::of(s),
        None => CallerView::EMPTY,
    };
    let regions = region::analyze_regions(&scopes, &view);
    let mut facts = AnalysisFacts::new();
    let mut report = Report::default();
    for (i, scope) in scopes.iter().enumerate() {
        let escapes = escape::escaping_vars_with(scope, &view);
        let type_in = types::solve_types_with(scope, &view);
        let live_out = liveness::solve_liveness(scope);
        let mut scope_report = commit::commit_scope(
            scope,
            &escapes,
            view,
            &type_in,
            &live_out,
            &mut facts,
            &mut report.lints,
        );
        let stats =
            region::commit_regions(scope, &regions, i, &view, &mut facts, &mut report.lints);
        scope_report.arena_safe_sites = stats.arena_safe_sites;
        scope_report.cross_request_sites = stats.cross_request_sites;
        // The function's own symbol table is an allocation site too: its
        // hash map dies when the frame pops, so it is arena-eligible unless
        // the scope's lifetimes are unprovable (`extract` poisoning).
        if !scope.is_main {
            facts.set_symtab_arena_safe(&scope.name, !regions.cross[i].all);
        }
        report.scopes.push(scope_report);
    }
    if opts.interprocedural {
        let n = taint::taint_lints(&scopes, &cg, &view, &mut report.lints);
        facts.set_taint_lint_count(n);
    }
    if let Some(sums) = &sums {
        // Effect/purity pass: prove cross-request memoizable call sites and
        // lint the cache-shaped-but-nondeterministic near-misses.
        let eff = effects::compute_effects(&scopes, &cg);
        let memo =
            effects::commit_memo_sites(prog, &scopes, &eff, sums, &mut facts, &mut report.lints);
        for (i, n) in memo.per_scope.iter().enumerate() {
            report.scopes[i].memo_sites = *n;
        }
        report.effects = effects::effect_rows(&eff, &memo);
    }
    Analysis { facts, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_interp::parse;

    #[test]
    fn end_to_end_facts_for_a_typed_snippet() {
        let prog = parse("$n = 1; $m = $n + 2; $s = 'a' . 'b'; echo $m, $s;").unwrap();
        let a = analyze(&prog);
        assert!(a.report.typed_operands() > 0, "{:?}", a.report);
        assert!(a.report.rc_elided_sites() > 0, "{:?}", a.report);
        assert_eq!(a.facts.typed_operand_count(), a.report.typed_operands());
    }

    #[test]
    fn const_string_keys_and_appends_are_hinted() {
        let prog = parse(
            "$row = array(); $row['name'] = 'x'; echo $row['name']; \
             $list = array(); $list[] = 1; $list[] = 2;",
        )
        .unwrap();
        let a = analyze(&prog);
        let (consts, appends) = a.facts.key_shape_counts();
        assert!(consts >= 2, "write + read through 'name': {:?}", a.report);
        assert_eq!(appends, 2, "{:?}", a.report);
    }

    // -- golden lint outputs over three fixed snippets -----------------------

    fn lint_lines(src: &str) -> Vec<String> {
        let prog = parse(src).unwrap();
        analyze(&prog)
            .report
            .lints
            .iter()
            .map(|l| l.to_string())
            .collect()
    }

    #[test]
    fn golden_lints_use_before_assign_and_dead_store() {
        let lines = lint_lines(
            "function f($a) {\n\
             \x20 $x = $a;\n\
             \x20 $x = 2;\n\
             \x20 echo $u;\n\
             \x20 return $x;\n\
             }",
        );
        assert_eq!(
            lines,
            vec![
                "[dead-store] f: value assigned to $x is never read",
                "[use-before-assign] f: variable $u is used but never assigned",
            ]
        );
    }

    #[test]
    fn golden_lints_type_guard_and_constant_condition() {
        let lines = lint_lines(
            "$s = 'hello';\n\
             if (is_string($s)) { echo $s; }\n\
             while (1 > 2) { echo 'never'; }",
        );
        assert_eq!(
            lines,
            vec![
                "[type-guard] <main>: is_string($s) is always true: $s is Str",
                "[constant-condition] <main>: condition is always false",
            ]
        );
    }

    #[test]
    fn golden_lints_maybe_assigned() {
        let lines = lint_lines(
            "if ($cond) { $v = 1; }\n\
             echo $v;",
        );
        assert_eq!(
            lines,
            vec![
                "[use-before-assign] <main>: variable $cond is used but never assigned",
                "[use-before-assign] <main>: variable $v may be used before assignment",
            ]
        );
    }

    #[test]
    fn quiet_code_produces_no_lints() {
        let lines = lint_lines("$a = 1; $b = $a + 1; echo $b;");
        assert!(lines.is_empty(), "{lines:?}");
    }
}
