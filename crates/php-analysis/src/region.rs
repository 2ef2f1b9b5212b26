//! Region/lifetime analysis: which allocation sites provably die with the
//! request?
//!
//! The paper's heap-manager wins (§4.3) ride on PHP's request-scoped memory
//! lifetimes — almost everything a request allocates is garbage the moment
//! the response is sent. This pass makes that property *checkable per site*
//! over a three-point region lattice:
//!
//! ```text
//!   Transient ⊑ Request ⊏ CrossRequest
//! ```
//!
//! `Transient` values die within their statement (echo materializations,
//! concat temporaries), `Request` values die by end of request (locals,
//! callee frames, returned values consumed by request-scoped code), and
//! `CrossRequest` values may survive the request: stored into a `global`,
//! passed to a callee whose matching parameter is itself cross-request
//! (stored into a global the callee writes, forwarded onward, or returned
//! into a cross-request consumer — `$g = id($x)` poisons `$x` through
//! `id`'s return), swallowed by an `extract`-poisoned scope, or returned
//! into a cross-request consumer.
//! Only the `CrossRequest` point matters for allocation policy: a site is
//! **arena-safe** iff its value's region is below `CrossRequest`, because
//! the arena epoch spans the whole request — within-request escapes
//! (returns, plain stores, foreach) still die inside the epoch.
//!
//! The pass is flow-insensitive like [`crate::escape`], but *coarser on
//! purpose*: escape analysis asks "does the value outlive the expression?"
//! (for refcount elision) while this asks "does it outlive the request?"
//! (for memory placement). A variable can escape its statement and still be
//! arena-safe.
//!
//! Soundness posture: every over-approximation degrades toward
//! `CrossRequest`, which keeps a site on the free-list path — never
//! arena-corrupting. In particular an unsummarized callee
//! ([`CallerView::EMPTY`]) makes every argument cross-request, mirroring
//! the escape analysis' "missing summary ⇒ everything escapes" contract.
//!
//! Verdicts land in [`AnalysisFacts`] as per-site arena flags, and each
//! escaping site raises a `[cross-request-escape]` lint, which
//! `analyze --gate` turns into a CI failure unless allowlisted.

use crate::cfg::{item_exprs, walk_exprs, Item, ScopeCfg};
use crate::knowledge::{consumes_args_transiently, is_builtin};
use crate::report::{Lint, LintKind};
use crate::summary::CallerView;
use php_interp::ast::{BinOp, Expr, LValue, Stmt};
use php_interp::AnalysisFacts;
use std::collections::{BTreeMap, BTreeSet};

/// The variables of one scope whose values may outlive the request.
#[derive(Debug, Default)]
pub struct CrossSet {
    /// `extract()` was seen: every lifetime in the scope is unprovable.
    pub all: bool,
    /// Individually cross-request variables.
    pub vars: BTreeSet<String>,
}

impl CrossSet {
    /// Whether `name`'s value may outlive the request.
    pub fn contains(&self, name: &str) -> bool {
        self.all || self.vars.contains(name)
    }
}

/// Whole-program region results: one [`CrossSet`] per scope (parallel to
/// the lowered scope list), the functions whose return value reaches a
/// cross-request consumer in some caller, and per-function parameter
/// cross-request vectors.
#[derive(Debug, Default)]
pub struct RegionInfo {
    /// Per-scope cross-request variable sets, in scope order.
    pub cross: Vec<CrossSet>,
    /// Functions whose returned value may be stored cross-request.
    pub ret_cross: BTreeSet<String>,
    /// Per function: which parameters' values may outlive the request —
    /// i.e. the parameter variable is in the function's own cross set. A
    /// call argument at such a position inherits cross-request-ness: the
    /// argument's value aliases the parameter (and, when the callee
    /// returns it, the call result).
    pub param_cross: BTreeMap<String, Vec<bool>>,
}

impl RegionInfo {
    /// May argument `i` of a call to `name` outlive the *request* (not
    /// merely the call)? With a non-opaque summary, the callee's own cross
    /// set answers: the argument aliases the callee's parameter, so it can
    /// outlive the request exactly when the parameter can — stored into a
    /// global the callee writes, forwarded to a retaining sub-callee, or
    /// returned into a cross-request consumer (`global $g; $g = id($x)`
    /// poisons `$x` through `id`'s return, even though `id` writes no
    /// globals). Unknown or opaque callees, and names the fixpoint has no
    /// row for, degrade to `true`; surplus arguments are discarded by the
    /// callee and answer `false`. Builtins never retain values across
    /// requests in this runtime (the regex cache clones pattern bytes
    /// rather than keeping the value); argument-returning builtins are
    /// handled by [`value_sources`] instead.
    pub fn arg_crosses_request(&self, view: &CallerView<'_>, name: &str, i: usize) -> bool {
        match view.summary(name) {
            Some(s) if !s.opaque_effects => self
                .param_cross
                .get(name)
                .is_none_or(|p| p.get(i).copied().unwrap_or(false)),
            _ => true,
        }
    }
}

/// Per-scope site statistics from [`commit_regions`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RegionStats {
    /// Sites proven to die with the request.
    pub arena_safe_sites: usize,
    /// Sites that may outlive the request.
    pub cross_request_sites: usize,
}

/// The variables whose values an expression's result can alias: plain
/// variable reads, ternary branches, array-literal elements (the literal's
/// value holds them), indexed reads (the element shares the array's
/// storage), and arguments of builtins that can return an argument
/// (`max($a, $b)` yields one of the two unchanged). User-call results are
/// handled by the fixpoint instead — the seed pass poisons retained
/// arguments through [`RegionInfo::param_cross`] and [`call_roots`] feeds
/// `ret_cross` — so user calls contribute no variable roots here.
fn value_sources(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Var(n) => {
            out.insert(n.clone());
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            match then {
                Some(t) => value_sources(t, out),
                None => value_sources(cond, out), // elvis reuses the condition value
            }
            value_sources(otherwise, out);
        }
        Expr::ArrayLit(items) => {
            for (_, v) in items {
                value_sources(v, out);
            }
        }
        Expr::Index { base, .. } => value_sources(base, out),
        Expr::Call { name, args } if is_builtin(name) && !consumes_args_transiently(name) => {
            for a in args {
                value_sources(a, out);
            }
        }
        _ => {}
    }
}

/// Function names whose return value an expression can yield — directly,
/// through ternary branches, out of array-literal elements and indexed
/// reads, or forwarded through a callee that retains the corresponding
/// argument (`$g = wrap(id($x))` can store `id`'s result when `wrap`
/// returns its parameter).
fn call_roots<'a>(e: &'a Expr, view: &CallerView<'_>, out: &mut BTreeSet<&'a str>) {
    match e {
        Expr::Call { name, args } => {
            out.insert(name);
            for (i, a) in args.iter().enumerate() {
                let forwards = if is_builtin(name) {
                    !consumes_args_transiently(name)
                } else {
                    view.arg_retained(name, i)
                };
                if forwards {
                    call_roots(a, view, out);
                }
            }
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            match then {
                Some(t) => call_roots(t, view, out),
                None => call_roots(cond, view, out),
            }
            call_roots(otherwise, view, out);
        }
        Expr::ArrayLit(items) => {
            for (_, v) in items {
                call_roots(v, view, out);
            }
        }
        Expr::Index { base, .. } => call_roots(base, view, out),
        _ => {}
    }
}

/// Computes the cross-request variable set of one scope under the current
/// fixpoint state: `info.ret_cross` says whether some caller stores this
/// function's result cross-request (making returned value sources
/// cross-request too), and `info.param_cross` refines which call arguments
/// the callees can carry past the request.
fn cross_request_vars(scope: &ScopeCfg<'_>, view: &CallerView<'_>, info: &RegionInfo) -> CrossSet {
    let returns_cross = info.ret_cross.contains(&scope.name);
    let mut cross = CrossSet {
        all: false,
        vars: scope.globals.clone(),
    };
    // Seed: extract poisoning and arguments whose values a callee can
    // carry past the request (see `RegionInfo::arg_crosses_request`).
    for block in &scope.cfg.blocks {
        for item in &block.items {
            for e in item_exprs(item) {
                walk_exprs(e, &mut |x| {
                    if let Expr::Call { name, args } = x {
                        if name == "extract" {
                            cross.all = true;
                        } else if !is_builtin(name) {
                            for (i, a) in args.iter().enumerate() {
                                if info.arg_crosses_request(view, name, i) {
                                    value_sources(a, &mut cross.vars);
                                }
                            }
                        }
                    }
                });
            }
        }
    }
    if cross.all {
        return cross;
    }
    // Backward closure: anything assigned into a cross-request holder (or
    // returned to a cross-request consumer, or iterated into a
    // cross-request binding) is itself cross-request.
    loop {
        let before = cross.vars.len();
        for block in &scope.cfg.blocks {
            for item in &block.items {
                match item {
                    Item::Stmt(Stmt::Assign { target, value }) => {
                        let t = match target {
                            LValue::Var(n) => n,
                            LValue::Index { var, .. } => var,
                        };
                        if cross.contains(t) {
                            value_sources(value, &mut cross.vars);
                        }
                    }
                    Item::Stmt(Stmt::Return(Some(e))) if returns_cross => {
                        value_sources(e, &mut cross.vars);
                    }
                    Item::ForeachBind(Stmt::Foreach {
                        key_var,
                        value_var,
                        array,
                        ..
                    }) if cross.contains(value_var)
                        || key_var.as_deref().is_some_and(|k| cross.contains(k)) =>
                    {
                        value_sources(array, &mut cross.vars);
                    }
                    _ => {}
                }
            }
        }
        if cross.vars.len() == before {
            return cross;
        }
    }
}

/// Computes cross-request sets for every scope, the set of functions
/// returning into cross-request consumers, and the per-function parameter
/// cross vectors, iterating the three to a joint fixpoint: a cross
/// assignment `$g = f()` makes `f` return-cross, which can grow `f`'s own
/// cross set, which can poison `f`'s parameters — making arguments at
/// `f`'s call sites cross-request in *their* scopes, and so on. All three
/// states only ever grow, so the iteration terminates.
pub fn analyze_regions(scopes: &[ScopeCfg<'_>], view: &CallerView<'_>) -> RegionInfo {
    let mut info = RegionInfo::default();
    // Optimistic seed rows so the fixpoint grows monotonically from ⊥; a
    // *missing* row means "unknown function" and degrades to cross.
    for s in scopes {
        if !s.is_main {
            info.param_cross
                .insert(s.name.clone(), vec![false; s.params.len()]);
        }
    }
    loop {
        let cross: Vec<CrossSet> = scopes
            .iter()
            .map(|s| cross_request_vars(s, view, &info))
            .collect();
        info.cross = cross;
        let mut changed = false;
        // Parameter verdicts follow directly from the new cross sets.
        for (scope, cross) in scopes.iter().zip(&info.cross) {
            if scope.is_main {
                continue;
            }
            let row: Vec<bool> = scope.params.iter().map(|p| cross.contains(p)).collect();
            let entry = info
                .param_cross
                .get_mut(&scope.name)
                .expect("param_cross row seeded for every function scope");
            if *entry != row {
                *entry = row;
                changed = true;
            }
        }
        // Return-cross discovery: any call whose result can flow into a
        // cross-request holder — a cross assignment target, the return of
        // an already-return-cross function, or a foreach whose bindings
        // are cross-request.
        let before = info.ret_cross.len();
        for (scope, cross) in scopes.iter().zip(&info.cross) {
            for block in &scope.cfg.blocks {
                for item in &block.items {
                    let (store_crosses, value) = match item {
                        Item::Stmt(Stmt::Assign { target, value }) => {
                            let t = match target {
                                LValue::Var(n) => n,
                                LValue::Index { var, .. } => var,
                            };
                            (cross.contains(t), value)
                        }
                        Item::Stmt(Stmt::Return(Some(e))) => {
                            (info.ret_cross.contains(&scope.name), e)
                        }
                        Item::ForeachBind(Stmt::Foreach {
                            key_var,
                            value_var,
                            array,
                            ..
                        }) => (
                            cross.contains(value_var)
                                || key_var.as_deref().is_some_and(|k| cross.contains(k)),
                            array,
                        ),
                        _ => continue,
                    };
                    if store_crosses {
                        let mut roots = BTreeSet::new();
                        call_roots(value, view, &mut roots);
                        info.ret_cross.extend(roots.into_iter().map(String::from));
                    }
                }
            }
        }
        changed |= info.ret_cross.len() > before;
        if !changed {
            return info;
        }
    }
}

/// One scope's region commit state.
struct RegionCommitter<'a, 'f> {
    scope: &'a ScopeCfg<'a>,
    info: &'a RegionInfo,
    cross: &'a CrossSet,
    returns_cross: bool,
    view: &'a CallerView<'a>,
    facts: &'f mut AnalysisFacts,
    lints: &'f mut Vec<Lint>,
    stats: RegionStats,
    /// Deduplicates identical lint messages within the scope.
    noted: BTreeSet<String>,
}

/// Reason attached to every site in an `extract`-poisoned scope.
const POISONED: &str = "extract() makes every lifetime in the scope unprovable";

impl RegionCommitter<'_, '_> {
    /// Records one site verdict: arena-safe (fact) or escaping (lint).
    fn site(
        &mut self,
        id_of: impl FnOnce(&mut AnalysisFacts) -> php_interp::NodeId,
        what: &str,
        esc: Option<&str>,
    ) {
        match esc {
            Some(reason) => {
                self.stats.cross_request_sites += 1;
                let message = format!("{what} may outlive the request: {reason}");
                if self.noted.insert(message.clone()) {
                    self.lints.push(Lint {
                        kind: LintKind::CrossRequestEscape,
                        scope: self.scope.name.clone(),
                        message,
                    });
                }
            }
            None => {
                let id = id_of(self.facts);
                self.facts.mark_arena_safe(id);
                self.stats.arena_safe_sites += 1;
            }
        }
    }

    /// Classifies every allocation site inside `e`, with `esc` carrying the
    /// escape reason of the surrounding context (a cross-request store or
    /// retained call argument), if any.
    fn classify(&mut self, e: &Expr, esc: Option<&str>) {
        let esc = if self.cross.all { Some(POISONED) } else { esc };
        match e {
            Expr::Bin { op, lhs, rhs } => {
                if *op == BinOp::Concat {
                    self.site(|f| f.intern_expr(e), "concatenated string", esc);
                }
                self.classify(lhs, esc);
                self.classify(rhs, esc);
            }
            Expr::ArrayLit(items) => {
                self.site(|f| f.intern_expr(e), "array literal", esc);
                for (k, v) in items {
                    if let Some(k) = k {
                        self.classify(k, esc);
                    }
                    self.classify(v, esc);
                }
            }
            Expr::Call { name, args } => {
                for (i, a) in args.iter().enumerate() {
                    let owned;
                    let arg_esc = match esc {
                        Some(r) => Some(r),
                        None if !is_builtin(name)
                            && self.info.arg_crosses_request(self.view, name, i) =>
                        {
                            owned =
                                format!("argument {i} of {name}() may be retained across requests");
                            Some(owned.as_str())
                        }
                        None => None,
                    };
                    self.classify(a, arg_esc);
                }
            }
            Expr::Index { base, key } => {
                self.classify(base, esc);
                self.classify(key, esc);
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                self.classify(cond, esc);
                if let Some(t) = then {
                    self.classify(t, esc);
                }
                self.classify(otherwise, esc);
            }
            Expr::Not(x) | Expr::Neg(x) => self.classify(x, esc),
            _ => {}
        }
    }

    fn visit_item(&mut self, item: &Item<'_>) {
        match item {
            // `echo` materializes each part as a transient string — the
            // canonical arena citizen; only poisoning can demote it.
            Item::Stmt(Stmt::Echo(parts)) => {
                for p in parts {
                    self.site(|f| f.intern_expr(p), "echoed string", None);
                    self.classify(p, None);
                }
            }
            Item::Stmt(s @ Stmt::Assign { target, value }) => {
                let tvar = match target {
                    LValue::Var(n) => n,
                    LValue::Index { var, .. } => var,
                };
                let owned;
                let esc = if self.cross.contains(tvar) && !self.cross.all {
                    owned = format!("stored into cross-request ${tvar}");
                    Some(owned.as_str())
                } else {
                    None
                };
                if let LValue::Index { key, .. } = target {
                    // `$a[k] = v` with `$a` unset autovivifies `$a`'s array
                    // descriptor: the descriptor's region is `$a`'s region.
                    self.site(|f| f.intern_stmt(s), "autovivified array", esc);
                    if let Some(k) = key {
                        self.classify(k, None);
                    }
                }
                self.classify(value, esc);
            }
            Item::Stmt(Stmt::Return(Some(e))) => {
                let esc = self
                    .returns_cross
                    .then_some("returned to a cross-request consumer");
                self.classify(e, esc);
            }
            Item::Stmt(Stmt::Expr(e)) => self.classify(e, None),
            Item::Cond(e) => self.classify(e, None),
            Item::ForeachEnter(Stmt::Foreach { array, .. }) => self.classify(array, None),
            _ => {}
        }
    }
}

/// Replays `scope` (the `idx`-th entry of the scope list `info` was solved
/// over) under its cross-request solution, marking arena-safe sites in
/// `facts` and raising `[cross-request-escape]` lints for the rest;
/// returns the site counts.
pub fn commit_regions(
    scope: &ScopeCfg<'_>,
    info: &RegionInfo,
    idx: usize,
    view: &CallerView<'_>,
    facts: &mut AnalysisFacts,
    lints: &mut Vec<Lint>,
) -> RegionStats {
    let mut c = RegionCommitter {
        scope,
        info,
        cross: &info.cross[idx],
        returns_cross: info.ret_cross.contains(&scope.name),
        view,
        facts,
        lints,
        stats: RegionStats::default(),
        noted: BTreeSet::new(),
    };
    for block in &scope.cfg.blocks {
        for item in &block.items {
            c.visit_item(item);
        }
    }
    c.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::cfg::lower_program;
    use crate::summary::compute_summaries;
    use php_interp::parse;

    fn regions_of(src: &str) -> (Vec<String>, RegionInfo) {
        let prog = parse(src).unwrap();
        let scopes = lower_program(&prog);
        let cg = CallGraph::build(&scopes);
        let sums = compute_summaries(&scopes, &cg);
        let view = CallerView::of(&sums);
        let info = analyze_regions(&scopes, &view);
        (scopes.iter().map(|s| s.name.clone()).collect(), info)
    }

    fn main_cross(src: &str) -> CrossSet {
        let (names, mut info) = regions_of(src);
        let i = names.iter().position(|n| n == "<main>").unwrap();
        info.cross.swap_remove(i)
    }

    #[test]
    fn locals_and_transients_stay_request_scoped() {
        let c = main_cross("$t = 'x' . 'y'; $u = $t; echo $u; $a = array(1);");
        assert!(!c.all);
        assert!(c.vars.is_empty(), "{c:?}");
    }

    #[test]
    fn globals_and_their_sources_are_cross_request() {
        let c = main_cross("global $g; $tmp = 'a' . 'b'; $g = $tmp; $x = 1;");
        assert!(c.contains("g"), "global binding");
        assert!(c.contains("tmp"), "flows into the global (closure)");
        assert!(!c.contains("x"));
    }

    #[test]
    fn extract_poisons_every_lifetime() {
        let c = main_cross("extract($req); $t = 'x';");
        assert!(c.all);
        assert!(c.contains("anything"));
    }

    #[test]
    fn unknown_callee_args_cross_summarized_transient_args_do_not() {
        // `t` only echoes its argument; `k` stores it into a global.
        let c = main_cross(
            "function t($a) { echo $a; }\n\
             function k($v) { global $keep; $keep = $v; }\n\
             $x = 'x'; t($x); $y = 'y'; k($y); unknown_fn($z);",
        );
        assert!(!c.contains("x"), "transient arg of summarized callee");
        assert!(c.contains("y"), "retained by a global-writing callee");
        assert!(c.contains("z"), "unknown callee: assume the worst");
    }

    #[test]
    fn return_into_cross_consumer_propagates_into_the_callee() {
        let (names, info) = regions_of(
            "function mk() { $r = array(1); return $r; }\n\
             global $cache; $cache = mk();",
        );
        assert!(info.ret_cross.contains("mk"));
        let i = names.iter().position(|n| n == "mk").unwrap();
        assert!(
            info.cross[i].contains("r"),
            "returned local is cross-request in a return-cross function"
        );
    }

    #[test]
    fn identity_return_into_global_poisons_the_argument() {
        // `id` writes no globals, but returns its argument — storing the
        // result into a global keeps $x alive past the request.
        let c = main_cross(
            "function id($v) { return $v; }\n\
             global $g; $x = 'a' . 'b'; $g = id($x);",
        );
        assert!(c.contains("x"), "argument escapes through id's return");
    }

    #[test]
    fn retained_return_chain_poisons_through_nested_calls() {
        let c = main_cross(
            "function id($v) { return $v; }\n\
             function wrap($p) { return $p; }\n\
             global $g; $x = 'a' . 'b'; $g = wrap(id($x));",
        );
        assert!(c.contains("x"), "two retained returns deep");
    }

    #[test]
    fn frame_local_stash_keeps_argument_request_scoped() {
        // Retention into the callee's own frame is only Request-level: the
        // frame dies with the request, so the argument stays arena-safe.
        let c = main_cross(
            "function stash($v) { $l = $v; return 1; }\n\
             $x = 'a' . 'b'; stash($x);",
        );
        assert!(
            !c.contains("x"),
            "frame-local retention dies with the request"
        );
    }

    #[test]
    fn array_literal_flow_into_global_poisons_elements() {
        let c = main_cross("global $g; $x = 'a' . 'b'; $a = array($x); $g = $a;");
        assert!(c.contains("a"), "flows into the global");
        assert!(c.contains("x"), "element of a cross-request array");
    }

    #[test]
    fn indexed_read_into_global_poisons_the_array() {
        // `$g = $a[0]` shares $a's element storage with the global.
        let c = main_cross("global $g; $g = $a[0];");
        assert!(c.contains("a"));
    }

    #[test]
    fn builtin_returning_an_argument_forwards_cross_request() {
        // `max` can yield either argument unchanged.
        let c = main_cross("global $g; $g = max($x, $y);");
        assert!(c.contains("x") && c.contains("y"), "{c:?}");
    }

    #[test]
    fn foreach_consumed_call_result_marks_ret_cross() {
        let (names, info) = regions_of(
            "function mk() { $r = array(1); return $r; }\n\
             global $g; foreach (mk() as $v) { $g[0] = $v; }",
        );
        assert!(info.ret_cross.contains("mk"), "{:?}", info.ret_cross);
        let i = names.iter().position(|n| n == "mk").unwrap();
        assert!(info.cross[i].contains("r"));
    }

    fn commit(src: &str) -> (Vec<Lint>, RegionStats, php_interp::AnalysisFacts) {
        let prog = parse(src).unwrap();
        let scopes = lower_program(&prog);
        let cg = CallGraph::build(&scopes);
        let sums = compute_summaries(&scopes, &cg);
        let view = CallerView::of(&sums);
        let info = analyze_regions(&scopes, &view);
        let mut facts = php_interp::AnalysisFacts::new();
        let mut lints = Vec::new();
        let mut total = RegionStats::default();
        for (i, scope) in scopes.iter().enumerate() {
            let s = commit_regions(scope, &info, i, &view, &mut facts, &mut lints);
            total.arena_safe_sites += s.arena_safe_sites;
            total.cross_request_sites += s.cross_request_sites;
        }
        (lints, total, facts)
    }

    #[test]
    fn clean_code_is_fully_arena_safe() {
        let (lints, stats, _) = commit("$s = 'a' . 'b'; echo $s; $a = array(1, 2); $a[] = 3;");
        assert!(lints.is_empty(), "{lints:?}");
        assert!(stats.arena_safe_sites >= 3, "{stats:?}");
        assert_eq!(stats.cross_request_sites, 0);
    }

    #[test]
    fn cross_request_stores_lint_and_stay_off_the_arena() {
        let (lints, stats, _) = commit("global $g; $g = 'a' . 'b';");
        assert_eq!(stats.cross_request_sites, 1, "{stats:?}");
        assert_eq!(
            lints.iter().map(ToString::to_string).collect::<Vec<_>>(),
            vec![
                "[cross-request-escape] <main>: concatenated string may \
                 outlive the request: stored into cross-request $g"
            ]
        );
    }

    #[test]
    fn identity_return_site_stays_off_the_arena() {
        // The allocation behind $x must keep the free-list path: its value
        // reaches $g through id's return, so reclaiming it at the epoch
        // reset would free memory still reachable cross-request.
        let (lints, stats, _) = commit(
            "function id($v) { return $v; }\n\
             global $g; $x = 'a' . 'b'; $g = id($x);",
        );
        assert!(stats.cross_request_sites >= 1, "{stats:?}");
        assert!(
            lints
                .iter()
                .any(|l| l.to_string().contains("stored into cross-request $x")),
            "{lints:?}"
        );
    }

    #[test]
    fn verdicts_land_on_the_exact_nodes() {
        let src = "$safe = 'a' . 'b'; global $g; $g = 'c' . 'd';";
        let prog = parse(src).unwrap();
        let scopes = lower_program(&prog);
        let view = CallerView::EMPTY;
        let info = analyze_regions(&scopes, &view);
        let mut facts = php_interp::AnalysisFacts::new();
        let mut lints = Vec::new();
        commit_regions(&scopes[0], &info, 0, &view, &mut facts, &mut lints);
        let php_interp::ast::Stmt::Assign { value: safe, .. } = &prog.stmts[0] else {
            panic!()
        };
        let php_interp::ast::Stmt::Assign {
            value: escaping, ..
        } = &prog.stmts[2]
        else {
            panic!()
        };
        assert!(facts.arena_safe_expr(safe));
        assert!(!facts.arena_safe_expr(escaping));
    }

    #[test]
    fn empty_view_degrades_user_call_args_to_cross_request() {
        // Same source, intraprocedural view: the summary is missing, so the
        // argument must be assumed retained across requests (sound default).
        let src = "function t($a) { echo $a; } t(array(1));";
        let prog = parse(src).unwrap();
        let scopes = lower_program(&prog);
        let info = analyze_regions(&scopes, &CallerView::EMPTY);
        let mut facts = php_interp::AnalysisFacts::new();
        let mut lints = Vec::new();
        let stats = commit_regions(
            &scopes[0],
            &info,
            0,
            &CallerView::EMPTY,
            &mut facts,
            &mut lints,
        );
        assert_eq!(stats.cross_request_sites, 1, "{stats:?}");
        assert_eq!(lints.len(), 1);
        assert!(lints[0].to_string().contains("argument 0 of t()"));
    }
}
