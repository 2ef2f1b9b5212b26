//! Lowering of the mini-PHP AST into per-scope control-flow graphs.
//!
//! Each scope — the top-level script (`<main>`) and every function body —
//! becomes one [`Cfg`] of basic blocks. Blocks hold straight-line [`Item`]s
//! (statements, branch conditions, `foreach` bindings) that reference AST
//! nodes by address; the AST itself is never copied or mutated, which is what
//! lets [`AnalysisFacts`](php_interp::AnalysisFacts) key results by node
//! identity later.

use php_interp::ast::{Expr, FuncDef, Program, Stmt};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// One step of straight-line work inside a basic block.
#[derive(Debug, Clone, Copy)]
pub enum Item<'a> {
    /// A non-branching statement (`Expr`, `Assign`, `Echo`, `Return`,
    /// `Global`). `Return` always ends its block.
    Stmt(&'a Stmt),
    /// A branch or loop condition, evaluated at the end of its block; the
    /// block then has two successors (taken, not taken).
    Cond(&'a Expr),
    /// Evaluation of a `foreach` statement's array expression, once at loop
    /// entry. Carries the whole `Stmt::Foreach`.
    ForeachEnter(&'a Stmt),
    /// The per-iteration key/value binding of a `foreach`, at the start of
    /// the loop body. Carries the whole `Stmt::Foreach`.
    ForeachBind(&'a Stmt),
}

/// A basic block: straight-line items plus successor edges.
#[derive(Debug, Default)]
pub struct Block<'a> {
    /// Items in execution order.
    pub items: Vec<Item<'a>>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
}

/// A per-scope control-flow graph.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// All blocks; ids index into this vector.
    pub blocks: Vec<Block<'a>>,
    /// The entry block.
    pub entry: BlockId,
    /// The single synthetic exit block (every `return` and the fall-off end
    /// of the scope lead here).
    pub exit: BlockId,
}

impl Cfg<'_> {
    /// Successor lists, one per block, for the generic solver.
    pub fn succ_lists(&self) -> Vec<Vec<usize>> {
        self.blocks.iter().map(|b| b.succs.clone()).collect()
    }
}

/// A lowered scope: `<main>` or one user function.
#[derive(Debug)]
pub struct ScopeCfg<'a> {
    /// `"<main>"` or the function name.
    pub name: String,
    /// Parameter names (empty for `<main>`).
    pub params: Vec<String>,
    /// Variables declared `global` anywhere in this scope.
    pub globals: BTreeSet<String>,
    /// Whether this is the top-level script scope.
    pub is_main: bool,
    /// The control-flow graph.
    pub cfg: Cfg<'a>,
}

struct Lowerer<'a> {
    blocks: Vec<Block<'a>>,
    exit: BlockId,
    /// Stack of `(continue_target, break_target)` for enclosing loops.
    loops: Vec<(BlockId, BlockId)>,
    globals: BTreeSet<String>,
    funcs: Vec<&'a FuncDef>,
}

impl<'a> Lowerer<'a> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Lowers `stmts` starting in block `cur`; returns the block where
    /// control continues afterwards.
    fn lower(&mut self, mut cur: BlockId, stmts: &'a [Stmt]) -> BlockId {
        for s in stmts {
            match s {
                Stmt::Expr(_) | Stmt::Assign { .. } | Stmt::Echo(_) => {
                    self.blocks[cur].items.push(Item::Stmt(s));
                }
                Stmt::Global(names) => {
                    self.globals.extend(names.iter().cloned());
                    self.blocks[cur].items.push(Item::Stmt(s));
                }
                Stmt::FuncDef(f) => {
                    self.funcs.push(f);
                }
                Stmt::Return(_) => {
                    self.blocks[cur].items.push(Item::Stmt(s));
                    self.edge(cur, self.exit);
                    // Anything after a return is unreachable: give it a
                    // fresh block with no predecessors.
                    cur = self.new_block();
                }
                Stmt::Break => {
                    if let Some(&(_, brk)) = self.loops.last() {
                        self.edge(cur, brk);
                    }
                    cur = self.new_block();
                }
                Stmt::Continue => {
                    if let Some(&(cont, _)) = self.loops.last() {
                        self.edge(cur, cont);
                    }
                    cur = self.new_block();
                }
                Stmt::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    self.blocks[cur].items.push(Item::Cond(cond));
                    let t = self.new_block();
                    let e = self.new_block();
                    self.edge(cur, t);
                    self.edge(cur, e);
                    let t_end = self.lower(t, then);
                    let e_end = self.lower(e, otherwise);
                    let join = self.new_block();
                    self.edge(t_end, join);
                    self.edge(e_end, join);
                    cur = join;
                }
                Stmt::While { cond, body } => {
                    let header = self.new_block();
                    self.edge(cur, header);
                    self.blocks[header].items.push(Item::Cond(cond));
                    let b = self.new_block();
                    let after = self.new_block();
                    self.edge(header, b);
                    self.edge(header, after);
                    self.loops.push((header, after));
                    let b_end = self.lower(b, body);
                    self.loops.pop();
                    self.edge(b_end, header);
                    cur = after;
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                } => {
                    cur = self.lower(cur, std::slice::from_ref(init));
                    let header = self.new_block();
                    self.edge(cur, header);
                    self.blocks[header].items.push(Item::Cond(cond));
                    let b = self.new_block();
                    let after = self.new_block();
                    let stepb = self.new_block();
                    self.edge(header, b);
                    self.edge(header, after);
                    // `continue` re-runs the step, not the condition.
                    self.loops.push((stepb, after));
                    let b_end = self.lower(b, body);
                    self.loops.pop();
                    self.edge(b_end, stepb);
                    let step_end = self.lower(stepb, std::slice::from_ref(step));
                    self.edge(step_end, header);
                    cur = after;
                }
                Stmt::Foreach { body, .. } => {
                    self.blocks[cur].items.push(Item::ForeachEnter(s));
                    let header = self.new_block();
                    self.edge(cur, header);
                    let b = self.new_block();
                    let after = self.new_block();
                    self.edge(header, b);
                    self.edge(header, after);
                    // The binding happens only when the body is entered.
                    self.blocks[b].items.push(Item::ForeachBind(s));
                    self.loops.push((header, after));
                    let b_end = self.lower(b, body);
                    self.loops.pop();
                    self.edge(b_end, header);
                    cur = after;
                }
            }
        }
        cur
    }
}

fn lower_scope<'a>(
    name: String,
    params: Vec<String>,
    stmts: &'a [Stmt],
    is_main: bool,
) -> (ScopeCfg<'a>, Vec<&'a FuncDef>) {
    let mut lw = Lowerer {
        blocks: vec![Block::default(), Block::default()],
        exit: 1,
        loops: Vec::new(),
        globals: BTreeSet::new(),
        funcs: Vec::new(),
    };
    let end = lw.lower(0, stmts);
    lw.edge(end, lw.exit);
    let scope = ScopeCfg {
        name,
        params,
        globals: lw.globals,
        is_main,
        cfg: Cfg {
            blocks: lw.blocks,
            entry: 0,
            exit: 1,
        },
    };
    (scope, lw.funcs)
}

/// Lowers a whole program into scopes: `<main>` first, then every function
/// definition found anywhere (including those nested inside other bodies).
pub fn lower_program(prog: &Program) -> Vec<ScopeCfg<'_>> {
    lower_program_with(prog, &[])
}

/// Like [`lower_program`], but any discovered function whose name appears in
/// `shared` is lowered from the shared instance's body instead of the
/// program's own definition. Use this when the interpreter will execute
/// pre-registered shared definitions
/// ([`Interp::predefine_funcs`](php_interp::Interp::predefine_funcs)), so the
/// node identities the facts are keyed by match what actually runs.
pub fn lower_program_with<'a>(prog: &'a Program, shared: &'a [Arc<FuncDef>]) -> Vec<ScopeCfg<'a>> {
    let overrides: BTreeMap<&str, &FuncDef> =
        shared.iter().map(|f| (f.name.as_str(), &**f)).collect();
    let (main, mut pending) = lower_scope("<main>".into(), Vec::new(), &prog.stmts, true);
    let mut out = vec![main];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    while let Some(f) = pending.pop() {
        let f = overrides.get(f.name.as_str()).copied().unwrap_or(f);
        if !seen.insert(f.name.clone()) {
            continue;
        }
        let (scope, nested) = lower_scope(f.name.clone(), f.params.clone(), &f.body, false);
        pending.extend(nested);
        out.push(scope);
    }
    out
}

/// Visits `e` and every sub-expression, pre-order.
pub fn walk_exprs<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Index { base, key } => {
            walk_exprs(base, f);
            walk_exprs(key, f);
        }
        Expr::ArrayLit(items) => {
            for (k, v) in items {
                if let Some(k) = k {
                    walk_exprs(k, f);
                }
                walk_exprs(v, f);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::Bin { lhs, rhs, .. } => {
            walk_exprs(lhs, f);
            walk_exprs(rhs, f);
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            walk_exprs(cond, f);
            if let Some(t) = then {
                walk_exprs(t, f);
            }
            walk_exprs(otherwise, f);
        }
        Expr::Not(x) | Expr::Neg(x) => walk_exprs(x, f),
        _ => {}
    }
}

/// The top-level expressions an item evaluates, in evaluation order.
pub fn item_exprs<'a>(item: &Item<'a>) -> Vec<&'a Expr> {
    use php_interp::ast::LValue;
    match item {
        Item::Stmt(Stmt::Expr(e)) => vec![e],
        Item::Stmt(Stmt::Assign { target, value }) => {
            let mut out = Vec::new();
            if let LValue::Index { key: Some(k), .. } = target {
                out.push(k);
            }
            out.push(value);
            out
        }
        Item::Stmt(Stmt::Echo(es)) => es.iter().collect(),
        Item::Stmt(Stmt::Return(Some(e))) => vec![e],
        Item::Cond(e) => vec![e],
        Item::ForeachEnter(Stmt::Foreach { array, .. }) => vec![array],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_interp::parse;

    fn scopes(src: &str) -> Vec<(String, usize)> {
        let prog = parse(src).unwrap();
        lower_program(&prog)
            .iter()
            .map(|s| (s.name.clone(), s.cfg.blocks.len()))
            .collect()
    }

    #[test]
    fn straight_line_is_two_blocks() {
        // entry + exit.
        assert_eq!(scopes("$a = 1; echo $a;"), vec![("<main>".into(), 2)]);
    }

    #[test]
    fn if_else_shape() {
        let prog = parse("if ($c) { $a = 1; } else { $a = 2; } echo $a;").unwrap();
        let lowered = lower_program(&prog);
        let cfg = &lowered[0].cfg;
        // entry, exit, then, else, join.
        assert_eq!(cfg.blocks.len(), 5);
        // Entry ends with the condition and branches two ways.
        assert!(matches!(
            cfg.blocks[cfg.entry].items.last(),
            Some(Item::Cond(_))
        ));
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 2);
        // Both branches meet at the join, which flows to exit.
        let [t, e] = cfg.blocks[cfg.entry].succs[..] else {
            panic!()
        };
        assert_eq!(cfg.blocks[t].succs, cfg.blocks[e].succs);
        let join = cfg.blocks[t].succs[0];
        assert_eq!(cfg.blocks[join].succs, vec![cfg.exit]);
    }

    #[test]
    fn while_loop_has_back_edge() {
        let prog = parse("while ($c) { $i = $i + 1; }").unwrap();
        let lowered = lower_program(&prog);
        let cfg = &lowered[0].cfg;
        // Find the header: the block holding the condition.
        let header = cfg
            .blocks
            .iter()
            .position(|b| matches!(b.items.first(), Some(Item::Cond(_))))
            .unwrap();
        let body = cfg.blocks[header].succs[0];
        assert!(
            cfg.blocks[body].succs.contains(&header),
            "loop body must branch back to the header"
        );
    }

    #[test]
    fn break_exits_the_loop() {
        let prog = parse("while (true) { break; } echo 'x';").unwrap();
        let lowered = lower_program(&prog);
        let cfg = &lowered[0].cfg;
        let header = cfg
            .blocks
            .iter()
            .position(|b| matches!(b.items.first(), Some(Item::Cond(_))))
            .unwrap();
        let [body, after] = cfg.blocks[header].succs[..] else {
            panic!()
        };
        // The body's flow (via break) reaches the after-loop block without
        // going back through the header.
        assert!(cfg.blocks[body].succs.contains(&after));
    }

    #[test]
    fn return_ends_the_block() {
        let prog = parse("function f() { return 1; echo 'dead'; }").unwrap();
        let lowered = lower_program(&prog);
        let f = lowered.iter().find(|s| s.name == "f").unwrap();
        // The entry block ends at the return; the trailing echo lands in a
        // block with no predecessors.
        let entry = &f.cfg.blocks[f.cfg.entry];
        assert_eq!(entry.succs, vec![f.cfg.exit]);
        assert!(matches!(
            entry.items.last(),
            Some(Item::Stmt(Stmt::Return(_)))
        ));
    }

    #[test]
    fn functions_become_their_own_scopes() {
        let names: Vec<String> = {
            let prog = parse("function a() { function b() {} } $x = 1;").unwrap();
            lower_program(&prog)
                .iter()
                .map(|s| s.name.clone())
                .collect()
        };
        assert!(names.contains(&"<main>".to_string()));
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"b".to_string()));
    }
}
