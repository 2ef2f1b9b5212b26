//! Compile-pass specialization tests: known facts must lower to the exact
//! specialized opcode, and absent (or empty) facts must fall back to the
//! generic form.
//!
//! Facts are keyed by node identity, so each test parses once, interns the
//! precise AST node it wants to specialize, and compiles that same
//! `Program` instance — mirroring how `php_corpus::prepare` keeps the
//! analyzed program alive for the engines.
//!
//! Re-pinned when variables moved into frame slots: a variable access is no
//! longer a hash probe, so `StoreSlot`/`LoadSlot` carry no constant-key hint
//! and a function frame has no symbol table for a region verdict to place.

use php_interp::ast::{BinOp, Expr, LValue, Stmt};
use php_interp::{compile, parse, AnalysisFacts, CompileOptions, CompiledUnit, KeyShape, Op};
use phpaccel_core::KeyShapeHint;

fn unfused() -> CompileOptions {
    CompileOptions { fuse: false }
}

/// All main-body ops matching `pred` (specialization happens in place, so
/// the tests assert on the single matching instruction).
fn find(unit: &CompiledUnit, pred: impl Fn(&Op) -> bool) -> Vec<&Op> {
    unit.main.iter().filter(|op| pred(op)).collect()
}

#[test]
fn proven_operand_types_bake_skip_flags_into_binop() {
    let program = parse("$x = 1 + 2;").unwrap();
    let Stmt::Assign { value, .. } = &program.stmts[0] else {
        panic!("expected assignment");
    };

    let mut facts = AnalysisFacts::default();
    let id = facts.intern_expr(value);
    facts.set_bin_typed(id, true, true);

    let unit = compile(&program, &[], Some(&facts), unfused());
    let bins = find(&unit, |op| matches!(op, Op::Bin { .. }));
    assert_eq!(bins.len(), 1);
    assert!(
        matches!(
            bins[0],
            Op::Bin {
                op: BinOp::Add,
                skip_lhs: true,
                skip_rhs: true,
                ..
            }
        ),
        "typed add must carry both skip flags: {:?}",
        bins[0]
    );
    assert!(unit.specialized);

    // Same program, no facts: the generic checked form.
    let generic = compile(&program, &[], None, unfused());
    let bins = find(&generic, |op| matches!(op, Op::Bin { .. }));
    assert!(
        matches!(
            bins[0],
            Op::Bin {
                skip_lhs: false,
                skip_rhs: false,
                ..
            }
        ),
        "unproven operands must keep the dynamic type checks: {:?}",
        bins[0]
    );
    assert!(!generic.specialized);
}

#[test]
fn rc_elidable_assignment_compiles_to_elided_store() {
    let program = parse("$x = 5;").unwrap();
    let mut facts = AnalysisFacts::default();
    let id = facts.intern_stmt(&program.stmts[0]);
    facts.mark_rc_elide_store(id);

    let unit = compile(&program, &[], Some(&facts), unfused());
    let stores = find(&unit, |op| matches!(op, Op::StoreSlot { .. }));
    assert_eq!(stores.len(), 1);
    assert!(
        matches!(stores[0], Op::StoreSlot { elide_rc: true, .. }),
        "proven store must elide the refcount pair: {:?}",
        stores[0]
    );

    // Empty facts table attached: specialized unit, but every verdict
    // defaults to the safe generic form.
    let empty = AnalysisFacts::default();
    let unit = compile(&program, &[], Some(&empty), unfused());
    let stores = find(&unit, |op| matches!(op, Op::StoreSlot { .. }));
    assert!(
        matches!(
            stores[0],
            Op::StoreSlot {
                elide_rc: false,
                slot: 0
            }
        ),
        "empty facts must fall back to the generic store: {:?}",
        stores[0]
    );
    assert!(
        unit.specialized,
        "attached-but-empty facts still specialize"
    );
}

#[test]
fn arena_safe_array_literal_compiles_to_arena_allocation() {
    let program = parse("$a = array(1, 2);").unwrap();
    let Stmt::Assign { value, .. } = &program.stmts[0] else {
        panic!("expected assignment");
    };
    assert!(matches!(value, Expr::ArrayLit(_)));

    let mut facts = AnalysisFacts::default();
    let id = facts.intern_expr(value);
    facts.mark_arena_safe(id);

    let unit = compile(&program, &[], Some(&facts), unfused());
    let allocs = find(&unit, |op| matches!(op, Op::NewArray { .. }));
    assert_eq!(allocs.len(), 1);
    assert!(
        matches!(allocs[0], Op::NewArray { arena: true }),
        "region-proven literal must bump-allocate: {:?}",
        allocs[0]
    );

    let generic = compile(&program, &[], Some(&AnalysisFacts::default()), unfused());
    let allocs = find(&generic, |op| matches!(op, Op::NewArray { .. }));
    assert!(
        matches!(allocs[0], Op::NewArray { arena: false }),
        "unproven literal must stay on the free-list path: {:?}",
        allocs[0]
    );
}

#[test]
fn const_key_shape_bakes_probe_hint_into_index_ops() {
    let program = parse("echo $a['k'];").unwrap();
    let Stmt::Echo(parts) = &program.stmts[0] else {
        panic!("expected echo");
    };
    let index_expr = &parts[0];
    assert!(matches!(index_expr, Expr::Index { .. }));

    let mut facts = AnalysisFacts::default();
    let id = facts.intern_expr(index_expr);
    facts.set_key_shape(id, KeyShape::ConstStr);

    // Unfused: the hint rides on the generic IndexGet.
    let unit = compile(&program, &[], Some(&facts), unfused());
    let gets = find(&unit, |op| matches!(op, Op::IndexGet { .. }));
    assert_eq!(gets.len(), 1);
    assert!(
        matches!(
            gets[0],
            Op::IndexGet {
                hint: KeyShapeHint::ConstStr,
                ..
            }
        ),
        "proven key shape must reach the probe: {:?}",
        gets[0]
    );

    // Fused: PushStr + IndexGet collapse into IndexConst, hint preserved.
    let fused = compile(&program, &[], Some(&facts), CompileOptions { fuse: true });
    let gets = find(&fused, |op| matches!(op, Op::IndexConst { .. }));
    assert_eq!(gets.len(), 1, "fusion must produce IndexConst");
    assert!(
        matches!(
            gets[0],
            Op::IndexConst {
                hint: KeyShapeHint::ConstStr,
                ..
            }
        ),
        "fusion must preserve the probe hint: {:?}",
        gets[0]
    );

    // No facts: unknown shape.
    let generic = compile(&program, &[], None, unfused());
    let gets = find(&generic, |op| matches!(op, Op::IndexGet { .. }));
    assert!(
        matches!(
            gets[0],
            Op::IndexGet {
                hint: KeyShapeHint::Unknown,
                ..
            }
        ),
        "unproven key must probe generically: {:?}",
        gets[0]
    );
}

#[test]
fn arena_safe_indexed_store_site_reaches_autovivification() {
    let program = parse("$a[0] = 1;").unwrap();
    let stmt = &program.stmts[0];
    assert!(matches!(
        stmt,
        Stmt::Assign {
            target: LValue::Index { .. },
            ..
        }
    ));

    let mut facts = AnalysisFacts::default();
    let id = facts.intern_stmt(stmt);
    facts.mark_arena_safe(id);

    let unit = compile(&program, &[], Some(&facts), unfused());
    let bases = find(&unit, |op| matches!(op, Op::LoadIndexBase { .. }));
    assert_eq!(bases.len(), 1);
    assert!(
        matches!(bases[0], Op::LoadIndexBase { arena: true, .. }),
        "proven site must autovivify into the arena: {:?}",
        bases[0]
    );

    let generic = compile(&program, &[], None, unfused());
    let bases = find(&generic, |op| matches!(op, Op::LoadIndexBase { .. }));
    assert!(
        matches!(bases[0], Op::LoadIndexBase { arena: false, .. }),
        "unproven site must not touch the arena: {:?}",
        bases[0]
    );
}

#[test]
fn compiled_function_frames_are_slots_whatever_the_symtab_verdict() {
    let program = parse("function f($x) { $y = $x + 1; return $y; } echo f(1);").unwrap();
    let mut facts = AnalysisFacts::default();
    facts.set_symtab_arena_safe("f", true);

    let unit = compile(&program, &[], Some(&facts), unfused());
    let f = &unit.funcs[unit.func_index["f"] as usize];
    assert_eq!(f.n_params, 1);
    assert_eq!(f.slots.get("x"), Some(0), "parameters take the first slots");
    assert_eq!(f.slots.get("y"), Some(1));
    assert_eq!(f.slots.len(), 2);
    assert!(unit.main_slots.is_empty(), "main names no variable");

    // The symtab verdict (still consumed by the tree-walker) has nothing to
    // place in a compiled frame.
    let generic = compile(&program, &[], Some(&AnalysisFacts::default()), unfused());
    let g = &generic.funcs[generic.func_index["f"] as usize];
    assert_eq!(f.code, g.code);
}
