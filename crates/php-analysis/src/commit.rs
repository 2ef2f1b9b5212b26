//! The commit pass: replays each scope with its fixpoint solutions in hand,
//! writes proven facts into the [`AnalysisFacts`] side-table, and emits the
//! lint diagnostics.
//!
//! This is the only pass that interns AST nodes — everything the
//! interpreter will later look up by node identity is recorded here.

use crate::cfg::{item_exprs, walk_exprs, Item, ScopeCfg};
use crate::escape::EscapeSet;
use crate::knowledge::{guard_ty, is_builtin};
use crate::liveness::{apply_item_backward, LiveSet};
use crate::report::{Lint, LintKind, ScopeReport};
use crate::summary::CallerView;
use crate::types::{apply_bindings, apply_call_effects, const_of, ty_of, ConstVal, Ty, TypeEnv};
use php_interp::ast::{BinOp, Expr, LValue, Stmt};
use php_interp::{strip_delimiters, AnalysisFacts, KeyShape};
use regex_engine::Regex;
use std::collections::BTreeSet;

/// Statically evaluates the truthiness of a constant expression.
fn const_truth(e: &Expr) -> Option<bool> {
    match e {
        Expr::Null => Some(false),
        Expr::Bool(b) => Some(*b),
        Expr::Int(i) => Some(*i != 0),
        Expr::Float(f) => Some(*f != 0.0),
        Expr::Str(s) => Some(!s.is_empty() && s != "0"),
        Expr::Not(x) => const_truth(x).map(|b| !b),
        Expr::Bin { op, lhs, rhs } => {
            let (l, r) = (const_int(lhs)?, const_int(rhs)?);
            Some(match op {
                BinOp::Eq => l == r,
                BinOp::Ne => l != r,
                BinOp::Lt => l < r,
                BinOp::Gt => l > r,
                BinOp::Le => l <= r,
                BinOp::Ge => l >= r,
                BinOp::And => l != 0 && r != 0,
                BinOp::Or => l != 0 || r != 0,
                _ => return None,
            })
        }
        _ => None,
    }
}

fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(i) => Some(*i),
        Expr::Bool(b) => Some(*b as i64),
        Expr::Neg(x) => const_int(x).map(|i| i.wrapping_neg()),
        _ => None,
    }
}

/// One scope's commit state.
struct Committer<'a, 'f> {
    scope: &'a ScopeCfg<'a>,
    escapes: &'a EscapeSet,
    view: CallerView<'a>,
    facts: &'f mut AnalysisFacts,
    lints: &'f mut Vec<Lint>,
    report: ScopeReport,
    /// Deduplicates use-before-assign per variable.
    warned_unassigned: BTreeSet<String>,
}

impl Committer<'_, '_> {
    fn lint(&mut self, kind: LintKind, message: String) {
        self.lints.push(Lint {
            kind,
            scope: self.scope.name.clone(),
            message,
        });
    }

    /// Facts and lints derived from the expressions of one item, under the
    /// environment holding *before* the item's bindings take effect.
    fn visit_exprs(&mut self, item: &Item<'_>, env: &TypeEnv) {
        for top in item_exprs(item) {
            walk_exprs(top, &mut |e| match e {
                Expr::Var(name) => {
                    // Use-before-assign: reachable read of a variable not
                    // assigned on every path (and possibly on none).
                    if env.reachable && !env.any && !self.warned_unassigned.contains(name) {
                        let assigned = env.vars.get(name).is_some_and(|f| f.definite);
                        if !assigned {
                            self.warned_unassigned.insert(name.clone());
                            let how = if env.vars.contains_key(name) {
                                "may be used before assignment"
                            } else {
                                "is used but never assigned"
                            };
                            self.lint(LintKind::UseBeforeAssign, format!("variable ${name} {how}"));
                        }
                    }
                    // Reads of non-escaping variables are transient: elide
                    // the refcount increment on the fetch.
                    if !self.escapes.contains(name) {
                        let id = self.facts.intern_expr(e);
                        self.facts.mark_rc_elide_read(id);
                        self.report.rc_elided_reads += 1;
                    }
                }
                Expr::Bin { lhs, rhs, .. } => {
                    self.report.bin_ops += 1;
                    self.report.operand_slots += 2;
                    let (lt, rt) = (ty_of(lhs, env, &self.view), ty_of(rhs, env, &self.view));
                    let (lk, rk) = (lt.is_known(), rt.is_known());
                    self.report.typed_operands += lk as usize + rk as usize;
                    if lk || rk {
                        let id = self.facts.intern_expr(e);
                        self.facts.set_bin_typed(id, lk, rk);
                    }
                }
                Expr::Call { name, args } => {
                    if is_builtin(name) {
                        // `preg_*` with a constant-propagated pattern:
                        // compile at analysis time, through the exact same
                        // path the interpreter would use per request.
                        if name == "preg_match" || name == "preg_replace" {
                            if let Some(ConstVal::Str(pat)) =
                                args.first().and_then(|a| const_of(a, env, &self.view))
                            {
                                if let Some(re) =
                                    strip_delimiters(&pat).and_then(|p| Regex::new(p).ok())
                                {
                                    let id = self.facts.intern_expr(e);
                                    self.facts.set_precompiled_regex(id, re);
                                    self.report.preg_precompiled += 1;
                                }
                            }
                        }
                    } else if self.view.call_benefits(name) {
                        let id = self.facts.intern_expr(e);
                        self.facts.mark_call_summarized(id);
                        self.report.summarized_calls += 1;
                    }
                }
                // `$a['lit']`: the key's hash folds at specialization.
                Expr::Index { base, key }
                    if matches!(**base, Expr::Var(_)) && matches!(**key, Expr::Str(_)) =>
                {
                    let id = self.facts.intern_expr(e);
                    self.facts.set_key_shape(id, KeyShape::ConstStr);
                    self.report.const_str_sites += 1;
                }
                _ => {}
            });
        }
    }

    /// Condition lints: constant conditions and decided type guards.
    fn visit_cond(&mut self, cond: &Expr, env: &TypeEnv) {
        if !env.reachable {
            return;
        }
        if let Some(truth) = const_truth(cond) {
            self.lint(
                LintKind::ConstantCondition,
                format!("condition is always {truth}"),
            );
            return;
        }
        // `is_*($x)` where $x's type is proven.
        if let Expr::Call { name, args } = cond {
            if let (Some(guard), [Expr::Var(var)]) = (guard_ty(name), args.as_slice()) {
                if !env.any {
                    if let Some(f) = env.vars.get(var) {
                        if f.definite && f.ty.is_known() {
                            let outcome = f.ty == guard;
                            self.lint(
                                LintKind::AlwaysTrueGuard,
                                format!("{name}(${var}) is always {outcome}: ${var} is {:?}", f.ty),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Statement-level facts: store elision, key shapes, dead stores.
    fn visit_stmt(&mut self, item: &Item<'_>, env: &TypeEnv, live_after: &LiveSet) {
        match item {
            Item::Stmt(s @ Stmt::Assign { target, .. }) => {
                let id = self.facts.intern_stmt(s);
                match target {
                    LValue::Var(name) => {
                        if !self.escapes.contains(name) {
                            self.facts.mark_rc_elide_store(id);
                            self.report.rc_elided_stores += 1;
                        }
                        if env.reachable && !live_after.0.contains(name) {
                            self.lint(
                                LintKind::DeadStore,
                                format!("value assigned to ${name} is never read"),
                            );
                        }
                    }
                    LValue::Index {
                        key: Some(Expr::Str(_)),
                        ..
                    } => {
                        self.facts.set_key_shape(id, KeyShape::ConstStr);
                        self.report.const_str_sites += 1;
                    }
                    LValue::Index { var, key: None } => {
                        // `$a[] = v` appends a fresh monotonic integer key —
                        // provable when $a is known to be an array here.
                        if !env.any
                            && env
                                .vars
                                .get(var)
                                .is_some_and(|f| f.definite && f.ty == Ty::Arr)
                        {
                            self.facts.set_key_shape(id, KeyShape::IntAppend);
                            self.report.int_append_sites += 1;
                        }
                    }
                    LValue::Index { .. } => {}
                }
            }
            Item::ForeachBind(
                s @ Stmt::Foreach {
                    key_var, value_var, ..
                },
            ) => {
                let binds_escape = self.escapes.contains(value_var)
                    || key_var.as_deref().is_some_and(|k| self.escapes.contains(k));
                if !binds_escape {
                    let id = self.facts.intern_stmt(s);
                    self.facts.mark_rc_elide_store(id);
                    self.report.rc_elided_stores += 1;
                }
            }
            _ => {}
        }
    }
}

/// Replays `scope` under its type and liveness solutions, filling `facts`
/// and appending to `lints`; returns the scope's statistics. Call
/// boundaries are judged through `view` — pass [`CallerView::EMPTY`] for
/// intraprocedural behavior.
pub fn commit_scope<'a>(
    scope: &'a ScopeCfg<'a>,
    escapes: &'a EscapeSet,
    view: CallerView<'a>,
    type_in: &[TypeEnv],
    live_out: &[LiveSet],
    facts: &mut AnalysisFacts,
    lints: &mut Vec<Lint>,
) -> ScopeReport {
    let mut c = Committer {
        scope,
        escapes,
        view,
        facts,
        lints,
        report: ScopeReport {
            name: scope.name.clone(),
            blocks: scope.cfg.blocks.len(),
            ..ScopeReport::default()
        },
        warned_unassigned: BTreeSet::new(),
    };

    for (b, block) in scope.cfg.blocks.iter().enumerate() {
        // Per-item live-after sets, computed backward from the block exit.
        let mut after = vec![LiveSet::default(); block.items.len()];
        let mut live = live_out[b].clone();
        for (i, item) in block.items.iter().enumerate().rev() {
            after[i] = live.clone();
            apply_item_backward(item, &mut live);
        }

        let mut env = type_in[b].clone();
        for (item, live_after) in block.items.iter().zip(&after) {
            // Mirror the transfer function's order: call effects first, so
            // expression types are judged in the post-call environment.
            apply_call_effects(item, scope, &mut env, &view);
            c.visit_exprs(item, &env);
            if let Item::Cond(cond) = item {
                c.visit_cond(cond, &env);
            }
            c.visit_stmt(item, &env, live_after);
            apply_bindings(item, &mut env, &view);
        }
    }
    c.report
}
