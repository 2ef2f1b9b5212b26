//! Context-insensitive, whole-program taint analysis in Yama's style.
//!
//! *Sources* are the request-bound variables of `<main>` (see
//! [`crate::knowledge::REQUEST_SOURCES`]) and anything `extract` conjures.
//! *Sanitizers* are the builtins of [`crate::knowledge::builtin_sanitizes`];
//! every other builtin propagates the taint of its arguments. *Sinks* are
//! `echo`, the pattern argument of `preg_match`/`preg_replace`, and dynamic
//! hash-table keys.
//!
//! Taint crosses call boundaries context-insensitively: if *any* caller
//! passes a tainted argument at position `i`, parameter `i` is tainted in
//! every context, and each function gets a single return-taint bit. The
//! program-level fixpoint (parameter taint, return taint, tainted globals)
//! is reached in a few passes because all three grow monotonically; a final
//! flow-sensitive replay of each scope then reports every tainted sink as a
//! [`LintKind::TaintedSink`] lint.

use crate::callgraph::CallGraph;
use crate::cfg::{Item, ScopeCfg};
use crate::knowledge::{builtin_sanitizes, is_builtin};
use crate::report::{Lint, LintKind};
use crate::solver::{self, Direction, Lattice, NO_WIDENING};
use crate::summary::CallerView;
use php_interp::ast::{Expr, LValue, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// Which variables hold attacker-controlled bytes at one program point.
#[derive(Debug, Clone, PartialEq)]
struct TaintEnv {
    reachable: bool,
    /// `extract` (or an opaque callee) ran: every variable is suspect.
    all: bool,
    tainted: BTreeSet<String>,
}

impl TaintEnv {
    fn is_tainted(&self, name: &str) -> bool {
        self.all || self.tainted.contains(name)
    }

    fn set(&mut self, name: &str, tainted: bool) {
        if tainted {
            self.tainted.insert(name.to_string());
        } else {
            self.tainted.remove(name);
        }
    }
}

impl Lattice for TaintEnv {
    fn bottom() -> Self {
        TaintEnv {
            reachable: false,
            all: false,
            tainted: BTreeSet::new(),
        }
    }

    fn join_with(&mut self, other: &Self) -> bool {
        if !other.reachable {
            return false;
        }
        if !self.reachable {
            *self = other.clone();
            return true;
        }
        let mut changed = false;
        if other.all && !self.all {
            self.all = true;
            changed = true;
        }
        for name in &other.tainted {
            changed |= self.tainted.insert(name.clone());
        }
        changed
    }
}

/// The whole-program state iterated to fixpoint.
#[derive(Debug, Default, PartialEq)]
struct TaintState {
    /// Per function: which parameters any caller taints.
    param_taint: BTreeMap<String, Vec<bool>>,
    /// Per function: may its return value be tainted?
    ret_taint: BTreeMap<String, bool>,
    /// Globals any scope may store tainted data into.
    global_taint: BTreeSet<String>,
}

impl TaintState {
    fn calls_tainted_ret(&self, name: &str) -> bool {
        self.ret_taint.get(name).copied().unwrap_or(true)
    }
}

/// Taint of one expression under `env` and the current program state.
fn taint_of(e: &Expr, env: &TaintEnv, st: &TaintState) -> bool {
    match e {
        Expr::Null | Expr::Bool(_) | Expr::Int(_) | Expr::Float(_) | Expr::Str(_) => false,
        Expr::Var(name) => env.is_tainted(name),
        Expr::Index { base, .. } => taint_of(base, env, st),
        Expr::ArrayLit(items) => items
            .iter()
            .any(|(k, v)| k.as_ref().is_some_and(|k| taint_of(k, env, st)) || taint_of(v, env, st)),
        Expr::Call { name, args } => {
            if is_builtin(name) {
                !builtin_sanitizes(name) && args.iter().any(|a| taint_of(a, env, st))
            } else {
                st.calls_tainted_ret(name)
            }
        }
        Expr::Bin { op, lhs, rhs } => {
            use php_interp::ast::BinOp::*;
            match op {
                // Only concatenation carries attacker bytes into the result;
                // arithmetic and comparisons reduce to numbers/booleans.
                Concat => taint_of(lhs, env, st) || taint_of(rhs, env, st),
                _ => false,
            }
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            let t = match then {
                Some(t) => taint_of(t, env, st),
                None => taint_of(cond, env, st),
            };
            t || taint_of(otherwise, env, st)
        }
        Expr::Not(_) | Expr::Neg(_) => false,
    }
}

/// Call-boundary effects on the taint environment, mirroring
/// [`crate::types::apply_call_effects`].
fn apply_call_effects(
    item: &Item<'_>,
    scope: &ScopeCfg<'_>,
    env: &mut TaintEnv,
    st: &TaintState,
    view: &CallerView<'_>,
) {
    use crate::cfg::{item_exprs, walk_exprs};
    use crate::summary::CallEffect;
    for e in item_exprs(item) {
        walk_exprs(e, &mut |x| {
            if let Expr::Call { name, .. } = x {
                if name == "extract" {
                    env.all = true;
                } else if !is_builtin(name) {
                    match view.effect(name) {
                        CallEffect::Writes(globals) => {
                            for g in globals {
                                if scope.is_main || scope.globals.contains(g) {
                                    env.set(g, st.global_taint.contains(g));
                                }
                            }
                        }
                        CallEffect::Opaque => env.all = true,
                    }
                }
            }
        });
    }
}

/// Binding effects of one item on the taint environment.
fn apply_bindings(item: &Item<'_>, env: &mut TaintEnv, st: &TaintState) {
    match item {
        Item::Stmt(Stmt::Assign { target, value }) => {
            let vt = taint_of(value, env, st);
            match target {
                LValue::Var(name) => env.set(name, vt),
                LValue::Index { var, key } => {
                    // A tainted element (or key) taints the whole array;
                    // clean writes cannot *clear* array taint.
                    let kt = key.as_ref().is_some_and(|k| taint_of(k, env, st));
                    if vt || kt {
                        env.set(var, true);
                    }
                }
            }
        }
        Item::Stmt(Stmt::Global(names)) => {
            for n in names {
                env.set(n, st.global_taint.contains(n));
            }
        }
        Item::ForeachBind(Stmt::Foreach {
            array,
            key_var,
            value_var,
            ..
        }) => {
            let at = taint_of(array, env, st);
            if let Some(k) = key_var {
                env.set(k, at);
            }
            env.set(value_var, at);
        }
        _ => {}
    }
}

/// The boundary environment of one scope under the current state.
fn boundary(scope: &ScopeCfg<'_>, st: &TaintState) -> TaintEnv {
    let mut env = TaintEnv {
        reachable: true,
        all: false,
        tainted: BTreeSet::new(),
    };
    if scope.is_main {
        for &src in crate::knowledge::REQUEST_SOURCES {
            env.tainted.insert(src.to_string());
        }
    } else if let Some(pt) = st.param_taint.get(&scope.name) {
        for (p, &t) in scope.params.iter().zip(pt) {
            if t {
                env.tainted.insert(p.clone());
            }
        }
    }
    env
}

/// Solves the flow-sensitive taint dataflow of one scope; returns per-block
/// entry environments.
fn solve_scope(scope: &ScopeCfg<'_>, st: &TaintState, view: &CallerView<'_>) -> Vec<TaintEnv> {
    let succs = scope.cfg.succ_lists();
    solver::solve(
        &succs,
        &[scope.cfg.entry],
        &boundary(scope, st),
        Direction::Forward,
        &mut |b, input| {
            let mut env = input.clone();
            for item in &scope.cfg.blocks[b].items {
                if !env.reachable {
                    break;
                }
                apply_call_effects(item, scope, &mut env, st, view);
                apply_bindings(item, &mut env, st);
            }
            env
        },
        NO_WIDENING,
    )
}

/// One whole-program pass: re-solves every scope and folds what it learns
/// (argument taint at call sites, return taint, tainted global stores) back
/// into `st`. Returns whether anything grew.
fn propagate(scopes: &[ScopeCfg<'_>], st: &mut TaintState, view: &CallerView<'_>) -> bool {
    use crate::cfg::{item_exprs, walk_exprs};
    let before = std::mem::take(st);
    let mut next = TaintState {
        param_taint: before.param_taint.clone(),
        ret_taint: before.ret_taint.clone(),
        global_taint: before.global_taint.clone(),
    };
    for scope in scopes {
        let sol = solve_scope(scope, &before, view);
        for (b, block) in scope.cfg.blocks.iter().enumerate() {
            let mut env = sol[b].clone();
            for item in &block.items {
                if !env.reachable {
                    break;
                }
                apply_call_effects(item, scope, &mut env, &before, view);
                // Call-site argument taint feeds callee parameters.
                for e in item_exprs(item) {
                    walk_exprs(e, &mut |x| {
                        if let Expr::Call { name, args } = x {
                            if !is_builtin(name) {
                                if let Some(pt) = next.param_taint.get_mut(name) {
                                    for (i, a) in args.iter().enumerate().take(pt.len()) {
                                        pt[i] |= taint_of(a, &env, &before);
                                    }
                                }
                            }
                        }
                    });
                }
                // Return taint and tainted global stores.
                match item {
                    Item::Stmt(Stmt::Return(Some(e)))
                        if !scope.is_main && taint_of(e, &env, &before) =>
                    {
                        next.ret_taint.insert(scope.name.clone(), true);
                    }
                    Item::Stmt(Stmt::Assign { target, value }) => {
                        let name = match target {
                            LValue::Var(n) => n,
                            LValue::Index { var, .. } => var,
                        };
                        let global_store = scope.is_main || scope.globals.contains(name);
                        if global_store && taint_of(value, &env, &before) {
                            next.global_taint.insert(name.clone());
                        }
                    }
                    _ => {}
                }
                apply_bindings(item, &mut env, &before);
            }
        }
    }
    let changed = next != before;
    *st = next;
    changed
}

/// A sink the final replay found fed by tainted data.
fn sink_lint(lints: &mut Vec<Lint>, scope: &str, message: String) {
    lints.push(Lint {
        kind: LintKind::TaintedSink,
        scope: scope.to_string(),
        message,
    });
}

/// Names the first tainted variable inside a sink expression for the lint
/// message (empty when the taint comes from no nameable variable).
fn describe(e: &Expr, env: &TaintEnv) -> String {
    fn first_tainted<'e>(e: &'e Expr, env: &TaintEnv) -> Option<&'e str> {
        match e {
            Expr::Var(n) if env.is_tainted(n) => Some(n),
            Expr::Index { base, .. } => first_tainted(base, env),
            Expr::Bin { lhs, rhs, .. } => {
                first_tainted(lhs, env).or_else(|| first_tainted(rhs, env))
            }
            Expr::Call { args, .. } => args.iter().find_map(|a| first_tainted(a, env)),
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => then
                .as_deref()
                .or(Some(cond))
                .and_then(|t| first_tainted(t, env))
                .or_else(|| first_tainted(otherwise, env)),
            _ => None,
        }
    }
    first_tainted(e, env)
        .map(|n| format!(" (${n})"))
        .unwrap_or_default()
}

/// Runs the whole-program taint analysis and appends one
/// [`LintKind::TaintedSink`] lint per sink reached by unsanitized request
/// input.
pub fn taint_lints(
    scopes: &[ScopeCfg<'_>],
    _cg: &CallGraph,
    view: &CallerView<'_>,
    lints: &mut Vec<Lint>,
) {
    use crate::cfg::{item_exprs, walk_exprs};
    // Seed parameter/return maps so growth is observable.
    let mut st = TaintState::default();
    for scope in scopes {
        if !scope.is_main {
            st.param_taint
                .insert(scope.name.clone(), vec![false; scope.params.len()]);
            st.ret_taint.insert(scope.name.clone(), false);
        }
    }
    while propagate(scopes, &mut st, view) {}

    // Final replay: report sinks. One lint per sinking statement.
    for scope in scopes {
        let sol = solve_scope(scope, &st, view);
        for (b, block) in scope.cfg.blocks.iter().enumerate() {
            let mut env = sol[b].clone();
            for item in &block.items {
                if !env.reachable {
                    break;
                }
                apply_call_effects(item, scope, &mut env, &st, view);
                match item {
                    Item::Stmt(Stmt::Echo(parts)) => {
                        if let Some(p) = parts.iter().find(|p| taint_of(p, &env, &st)) {
                            sink_lint(
                                lints,
                                &scope.name,
                                format!("request input reaches echo sink{}", describe(p, &env)),
                            );
                        }
                    }
                    Item::Stmt(Stmt::Assign {
                        target: LValue::Index { key: Some(k), .. },
                        ..
                    }) if taint_of(k, &env, &st) => {
                        sink_lint(
                            lints,
                            &scope.name,
                            format!("request input used as hash-table key{}", describe(k, &env)),
                        );
                    }
                    _ => {}
                }
                // Expression-level sinks: regex patterns and index keys.
                let mut site_lints = Vec::new();
                for e in item_exprs(item) {
                    walk_exprs(e, &mut |x| match x {
                        Expr::Call { name, args }
                            if matches!(name.as_str(), "preg_match" | "preg_replace") =>
                        {
                            if let Some(pat) = args.first() {
                                if taint_of(pat, &env, &st) {
                                    site_lints.push(format!(
                                        "request input used as {name} pattern{}",
                                        describe(pat, &env)
                                    ));
                                }
                            }
                        }
                        Expr::Index { key, .. } if taint_of(key, &env, &st) => {
                            site_lints.push(format!(
                                "request input used as hash-table key{}",
                                describe(key, &env)
                            ));
                        }
                        _ => {}
                    });
                }
                for m in site_lints {
                    sink_lint(lints, &scope.name, m);
                }
                apply_bindings(item, &mut env, &st);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::lower_program;
    use crate::summary::{compute_summaries, Summaries};
    use php_interp::parse;

    fn lints_for(src: &str) -> Vec<String> {
        let prog = parse(src).unwrap();
        let scopes = lower_program(&prog);
        let cg = CallGraph::build(&scopes);
        let sums: Summaries = compute_summaries(&scopes, &cg);
        let mut lints = Vec::new();
        taint_lints(&scopes, &cg, &CallerView::of(&sums), &mut lints);
        lints.iter().map(|l| l.to_string()).collect()
    }

    #[test]
    fn unsanitized_request_echo_is_flagged_and_sanitized_is_not() {
        let lines = lints_for("echo $title;");
        assert_eq!(
            lines,
            vec!["[tainted-sink] <main>: request input reaches echo sink ($title)"]
        );
        assert!(lints_for("echo htmlspecialchars($title);").is_empty());
    }

    #[test]
    fn taint_propagates_through_builtins_and_assignments() {
        let lines = lints_for("$t = strtolower(trim($title)); echo 'x' . $t;");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("echo sink ($t)"));
        // Numeric reduction sanitizes.
        assert!(lints_for("$n = strlen($title); echo $n;").is_empty());
    }

    #[test]
    fn taint_crosses_call_boundaries_both_ways() {
        // Parameter direction: main's tainted arg reaches the callee's echo.
        let lines = lints_for("function show($x) { echo $x; } show($title);");
        assert_eq!(
            lines,
            vec!["[tainted-sink] show: request input reaches echo sink ($x)"]
        );
        // Return direction: the callee launders nothing.
        let lines = lints_for("function id($x) { return $x; } echo id($title);");
        assert_eq!(lines.len(), 1, "{lines:?}");
        // A sanitizing callee clears it.
        let lines =
            lints_for("function safe($x) { return htmlspecialchars($x); } echo safe($title);");
        assert!(lines.is_empty(), "{lines:?}");
    }

    #[test]
    fn regex_and_hash_key_sinks_fire() {
        let lines = lints_for("preg_match($title, 'subject');");
        assert_eq!(
            lines,
            vec!["[tainted-sink] <main>: request input used as preg_match pattern ($title)"]
        );
        let lines = lints_for("$m = array(); $m[$title] = 1;");
        assert_eq!(
            lines,
            vec!["[tainted-sink] <main>: request input used as hash-table key ($title)"]
        );
    }

    #[test]
    fn locally_assigned_names_are_not_sources() {
        assert!(lints_for("$title = 'safe'; echo $title;").is_empty());
        assert!(lints_for("$cond = 1; echo $unrelated;").is_empty());
    }
}
