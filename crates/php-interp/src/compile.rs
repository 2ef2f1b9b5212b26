//! Bytecode compilation: lowers a [`Program`] plus optional
//! [`AnalysisFacts`] into a flat [`CompiledUnit`] of *specialized* opcodes.
//!
//! The compiler is the facts side-table's one reader, and it folds each
//! verdict into the instruction itself: a `Bin` whose operand types were
//! proven compiles to an opcode with its skip flags baked in, an RC-elidable
//! store carries `elide_rc`, a `ConstStr` access site carries the hash-stage
//! hint, and an arena-safe allocation site carries its arena flag. At run
//! time the VM never touches the facts table at all — the unit is
//! self-contained (name/const/regex pools included) and `Send + Sync`, so
//! one `Arc<CompiledUnit>` serves every worker, the software analogue of a
//! shared bytecode cache.
//!
//! With [`CompileOptions::fuse`] on, the hot consumers take their leaves
//! inside the instruction, as Zend's `CONST`/`CV` operands do: a string or
//! integer literal or a variable read becomes an [`Operand`] of the
//! [`Op::ConcatN`], [`Op::EchoValue`], [`Op::Bin`], [`Op::CallBuiltin`],
//! [`Op::IndexGet`] or [`Op::StoreIndexKeyed`] that consumes it, and no
//! `PushStr`/`PushInt`/`LoadSlot` feeds it. Concat trees also flatten into
//! one `ConcatN` (one transient instead of one per join), and an `echo` of
//! an already-string value skips the transient. A variable operand is read
//! when the op runs, after the leaves before it were evaluated, so it folds
//! only when no later leaf of the same op contains a call (the only way an
//! expression can write a variable); otherwise it is loaded onto the stack
//! in tree order.
//!
//! Variable names are resolved here, not at run time: every body (each
//! function and main) gets a [`SlotMap`] with one frame slot per variable it
//! names, parameters first, and every variable-touching opcode carries the
//! slot index. The map itself stays on the unit for the few by-name paths
//! (`extract`, request variables, memo dependency reads).

use crate::ast::{BinOp, Expr, FuncDef, LValue, Program, Stmt};
use crate::builtins;
use crate::facts::{AnalysisFacts, KeyShape};
use php_runtime::string::PhpStr;
use phpaccel_core::KeyShapeHint;
use regex_engine::Regex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Compilation switches.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Fold leaves into their consumers as [`Operand`]s and flatten concat
    /// chains. Off = a 1:1 lowering whose per-step work mirrors the
    /// tree-walker, for measuring the fusion delta in isolation.
    pub fuse: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { fuse: true }
    }
}

/// Longest concat chain [`Op::ConcatN`] will flatten (bounded by the
/// `skip_mask` width); longer chains fall back to nested [`Op::Bin`]s.
pub const MAX_CONCAT_FLATTEN: usize = 64;

/// Where an op finds one of its inputs. Only a fused unit folds a leaf; the
/// 1:1 lowering passes every input on the stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Evaluated by the code before the op and popped off the value stack
    /// (several `Stack` inputs sit on it in operand order).
    Stack,
    /// A variable, read in place from the running frame.
    Slot {
        /// Frame slot of the variable.
        slot: u32,
        /// Proven: the read's refcount increment is elidable.
        elide_rc: bool,
    },
    /// A string literal: a const-pool index.
    Const(u32),
    /// An integer literal.
    Int(i64),
}

/// One opcode of the compiled VM. Jump targets are instruction indices
/// within the containing body (main or one function), `slot` operands index
/// that body's frame, and every pool index (`name`, const string, regex,
/// message) points into the owning [`CompiledUnit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push `null`.
    PushNull,
    /// Push a boolean literal.
    PushBool(bool),
    /// Push an integer literal.
    PushInt(i64),
    /// Push a float literal.
    PushFloat(f64),
    /// Push a string literal from the const pool.
    PushStr(u32),
    /// Discard the top of stack.
    Pop,
    /// Push a variable's value (`Null` when unset).
    LoadSlot {
        /// Frame slot of the variable.
        slot: u32,
        /// Proven: the fetched value's refcount increment is elidable.
        elide_rc: bool,
    },
    /// Pop a value and store it into a variable.
    StoreSlot {
        /// Frame slot of the variable.
        slot: u32,
        /// Proven: the stored/overwritten refcount pair is elidable.
        elide_rc: bool,
    },
    /// Push `base[key]` with PHP coercions.
    IndexGet {
        /// The indexed value.
        base: Operand,
        /// The key.
        key: Operand,
        /// Proven RC-elidable read.
        elide_rc: bool,
        /// Proven key shape for the hash probe.
        hint: KeyShapeHint,
    },
    /// Push the array bound to a variable for an indexed store,
    /// autovivifying `null` into a fresh array (arena-placed when the
    /// site was proven request-local). Errors on non-array, non-null.
    LoadIndexBase {
        /// Frame slot of the array variable.
        slot: u32,
        /// Arena verdict for the autovivified array.
        arena: bool,
    },
    /// Pop the base array [`Op::LoadIndexBase`] pushed and store
    /// `base[key] = value` (stacked inputs sit in value→base→key order).
    StoreIndexKeyed {
        /// The stored value: never a variable, which the base load may have
        /// just autovivified.
        value: Operand,
        /// The key.
        key: Operand,
        /// Proven RC-elidable store.
        elide_rc: bool,
        /// Proven key shape for the hash probe.
        hint: KeyShapeHint,
    },
    /// Pop base array and value; append `base[] = value`.
    StoreAppend {
        /// Proven RC-elidable store.
        elide_rc: bool,
        /// Proven fresh-integer append (next-key stage skippable).
        int_append: bool,
    },
    /// Push a fresh empty array (arena-placed when proven request-local).
    NewArray {
        /// Arena verdict for the array descriptor.
        arena: bool,
    },
    /// Pop key then value; insert into the array at top of stack
    /// (which stays on the stack). Array-literal building block.
    ArrayInsert,
    /// Pop a value; append to the array at top of stack (which stays).
    ArrayAppend,
    /// Push `lhs op rhs`. Never `And`/`Or` (those compile to jumps).
    /// Type-check skip flags are the facts' proven operand types, baked in.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Lhs operand type proven — dynamic check elided.
        skip_lhs: bool,
        /// Rhs operand type proven — dynamic check elided.
        skip_rhs: bool,
        /// Arena verdict for a concat result transient.
        arena: bool,
    },
    /// Pop; push logical negation.
    Not,
    /// Pop; push arithmetic negation.
    Neg,
    /// Pop; push the value's truthiness as a `Bool`.
    ToBool,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalsePop(u32),
    /// Peek; jump when truthy, keeping the value on the stack.
    JumpIfTruePeek(u32),
    /// Peek; jump when falsy, keeping the value on the stack.
    JumpIfFalsePeek(u32),
    /// Enter a metered loop: push a fresh iteration counter.
    PushGuard,
    /// Count one iteration of the innermost metered loop; fail with the
    /// pooled message when the cap (1,000,000) is exceeded.
    GuardTick {
        /// Message-pool index of the cap-exceeded error.
        msg: u32,
    },
    /// Leave a metered loop: pop its iteration counter.
    PopGuard,
    /// Pop an array value; snapshot its pairs onto the iterator stack.
    /// Errors on non-array (`foreach over non-array`).
    IterInit,
    /// Advance the innermost iterator: bind the key/value variables and
    /// fall through, or jump to `end` when exhausted.
    IterNext {
        /// Frame slot of the value variable.
        value: u32,
        /// Frame slot of the key variable, when bound.
        key: Option<u32>,
        /// Proven RC-elidable store for the per-iteration binds.
        elide_rc: bool,
        /// Jump target on exhaustion (the matching [`Op::IterPop`]).
        end: u32,
    },
    /// Drop the innermost iterator.
    IterPop,
    /// (Re)bind a function name at run time — a nested `function`
    /// definition reached in execution order.
    DefineFunc {
        /// Function-table index of the compiled body.
        func: u32,
    },
    /// Direct call: the callee was resolved at compile time (its name is
    /// never rebound at run time). Pops `argc` arguments.
    CallUser {
        /// Function-table index.
        func: u32,
        /// Argument count.
        argc: u32,
        /// The analysis kept facts alive across this call boundary.
        summarized: bool,
    },
    /// Direct builtin call: the name shadows no user function.
    CallBuiltin {
        /// Name-pool index of the builtin.
        name: u32,
        /// The arguments, in order.
        args: Box<[Operand]>,
        /// Regex-pool index of the analysis-time-compiled pattern.
        regex: Option<u32>,
    },
    /// Late-bound call: resolve through the runtime function table, then
    /// the builtins. Pops `argc` arguments.
    CallDynamic {
        /// Name-pool index of the callee.
        name: u32,
        /// Argument count.
        argc: u32,
        /// Regex-pool index of the analysis-time-compiled pattern.
        regex: Option<u32>,
        /// Facts survived this call boundary (counted only when the name
        /// resolves to a user function, mirroring the tree-walker).
        summarized: bool,
    },
    /// Pop the return value and leave the current body.
    Return,
    /// Pop a value and echo it the way the tree-walker does: stringify,
    /// materialize a transient, append to output.
    Echo {
        /// Arena verdict for the transient.
        arena: bool,
    },
    /// `global $x`: from here on the frame's slot stands for main's
    /// variable. A no-op in main, where the two are the same slot.
    Global {
        /// Frame slot of the variable in the executing body.
        slot: u32,
        /// Its slot in main's frame.
        main: u32,
    },
    /// Unconditional runtime error with a pooled message
    /// (`break`/`continue` outside a loop).
    Fail {
        /// Message-pool index.
        msg: u32,
    },
    // ---- fused superinstructions (emitted only with `fuse` on) ----------
    /// Push the concatenation of a flattened concat tree as ONE transient,
    /// eliding the `n-2` intermediate transients the nested form would
    /// allocate.
    ConcatN {
        /// The leaves, in order (at most [`MAX_CONCAT_FLATTEN`]; never an
        /// `Int`, which folds as its decimal string).
        parts: Box<[Operand]>,
        /// Bit `i` set = operand `i`'s type was proven (check elided).
        skip_mask: u64,
        /// Arena verdict (root concat site) for the result transient.
        arena: bool,
    },
    /// Fused echo: a value that is already a string is appended to the
    /// output directly, with no transient materialization.
    EchoValue {
        /// The echoed value.
        value: Operand,
        /// Arena verdict for the non-string conversion transient.
        arena: bool,
    },
    // ---- cross-request memoization (emitted only when the facts prove
    //      the call site memoizable; see `php-analysis` effects pass) -----
    /// Consult the shared memo tier before the `CallUser` that follows.
    /// The callee's arguments are on the stack; on a hit they are popped,
    /// the cached return value pushed, the cached echo bytes appended, and
    /// control jumps to `skip` (past the matching [`Op::MemoStore`]). On a
    /// miss (or with no tier attached) execution falls through.
    MemoEnter {
        /// Index into [`CompiledUnit::memo_sites`].
        site: u32,
        /// Jump target on a hit: the instruction after the `MemoStore`.
        skip: u32,
    },
    /// Store the result of the preceding `CallUser` (return value on top of
    /// stack, left in place; echo bytes since the matching `MemoEnter`)
    /// into the shared tier.
    MemoStore {
        /// Index into [`CompiledUnit::memo_sites`].
        site: u32,
    },
}

/// Declares [`OpKind`] with its name table, its index-ordered variant list,
/// [`OP_KIND_COUNT`] and [`Op::kind`] from one list of variants.
macro_rules! op_kinds {
    ($($kind:ident),* $(,)?) => {
        /// Dense opcode classification for the per-opcode execution counters
        /// (satellite of the profile output). One variant per [`Op`] variant.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        #[repr(usize)]
        pub enum OpKind {
            $($kind),*
        }

        /// Number of [`OpKind`] variants (counter-array size).
        pub const OP_KIND_COUNT: usize = [$(OpKind::$kind),*].len();

        impl Op {
            /// The dense classification of this opcode.
            pub fn kind(&self) -> OpKind {
                match self {
                    $(Op::$kind { .. } => OpKind::$kind),*
                }
            }
        }

        impl OpKind {
            /// Stable display name.
            pub fn name(self) -> &'static str {
                match self {
                    $(OpKind::$kind => stringify!($kind)),*
                }
            }

            /// All kinds, in index order.
            pub fn all() -> [OpKind; OP_KIND_COUNT] {
                [$(OpKind::$kind),*]
            }
        }
    };
}

op_kinds! {
    PushNull, PushBool, PushInt, PushFloat, PushStr, Pop, LoadSlot, StoreSlot,
    IndexGet, LoadIndexBase, StoreIndexKeyed, StoreAppend, NewArray,
    ArrayInsert, ArrayAppend, Bin, Not, Neg, ToBool, Jump, JumpIfFalsePop,
    JumpIfTruePeek, JumpIfFalsePeek, PushGuard, GuardTick, PopGuard, IterInit,
    IterNext, IterPop, DefineFunc, CallUser, CallBuiltin, CallDynamic, Return,
    Echo, Global, Fail, ConcatN, EchoValue, MemoEnter, MemoStore,
}

impl OpKind {
    /// Whether this kind is a fusion-produced superinstruction.
    pub fn is_fused(self) -> bool {
        matches!(self, OpKind::ConcatN | OpKind::EchoValue)
    }
}

/// One compiled function body.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// PHP-visible name.
    pub name: String,
    /// Number of parameters; they occupy frame slots `0..n_params`.
    pub n_params: u32,
    /// The frame layout: one slot per variable the body names.
    pub slots: SlotMap,
    /// Body code.
    pub code: Vec<Op>,
}

/// One body's frame layout, fixed at compile time: slot → name and back.
/// Opcodes carry slot indices; the names serve the by-name paths that remain
/// (`extract`, request variables, memo dependency reads and invalidations).
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl SlotMap {
    /// The slot of `name`, if the body mentions it.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The variable a slot holds.
    pub fn name(&self, slot: usize) -> &str {
        &self.names[slot]
    }

    /// Frame size in slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the body names no variable at all.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Appends a slot for `name` unconditionally (parameters are positional:
    /// of two sharing a name the later one is what the body reads).
    fn push(&mut self, name: &str) -> u32 {
        let slot = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), slot);
        slot
    }

    fn intern(&mut self, name: &str) -> u32 {
        match self.get(name) {
            Some(slot) => slot,
            None => self.push(name),
        }
    }
}

/// A compiled program: flat code plus every pool it references. Immutable
/// and `Send + Sync` once built — share one behind an `Arc` across workers.
#[derive(Debug, Clone, Default)]
pub struct CompiledUnit {
    /// Top-level code (function definitions hoisted out).
    pub main: Vec<Op>,
    /// Main's frame layout: every variable main names, plus every name a
    /// `global` statement or a memo dependency refers to.
    pub main_slots: SlotMap,
    /// Per main slot: some memo site depends on the variable, so a write to
    /// it must purge the tier (the union of `memo_sites[*].deps`).
    pub memo_dep: Vec<bool>,
    /// All compiled function bodies (hoisted and nested).
    pub funcs: Vec<CompiledFunc>,
    /// Hoisted name bindings active when execution starts.
    pub func_index: HashMap<String, u32>,
    /// Builtin and late-bound callee name pool.
    pub names: Vec<String>,
    /// String-literal pool.
    pub consts: Vec<PhpStr>,
    /// Analysis-time-compiled regex pool: handles to the facts' own
    /// patterns, shared by every request that runs the unit.
    pub regexes: Vec<Arc<Regex>>,
    /// Runtime error-message pool.
    pub msgs: Vec<String>,
    /// Facts were attached at compile time.
    pub specialized: bool,
    /// Facts side-channel: memoizable call sites, indexed by
    /// [`Op::MemoEnter`]/[`Op::MemoStore`]'s `site` operand.
    pub memo_sites: Vec<MemoSiteInfo>,
}

/// Static description of one proven-memoizable call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoSiteInfo {
    /// Callee name (part of the memo key).
    pub func: String,
    /// Number of arguments on the stack at the `MemoEnter`.
    pub argc: u32,
    /// Globals in the callee's transitive read set; their current values are
    /// folded into the key and they double as invalidation fingerprints.
    pub deps: Vec<String>,
}

/// Compiles a program (plus the shared pre-registered function instances the
/// corpus layer hands every engine) into a [`CompiledUnit`].
///
/// `predefined` mirrors [`crate::Interp::predefine_funcs`]: those exact
/// instances are compiled for the hoisted bindings (facts interned over them
/// apply), and a program-level definition of the same name defers to them.
pub fn compile(
    prog: &Program,
    predefined: &[Arc<FuncDef>],
    facts: Option<&AnalysisFacts>,
    opts: CompileOptions,
) -> CompiledUnit {
    let mut c = Compiler {
        facts,
        opts,
        unit: CompiledUnit {
            specialized: facts.is_some(),
            ..CompiledUnit::default()
        },
        name_map: HashMap::new(),
        const_map: HashMap::new(),
        msg_map: HashMap::new(),
        nested_defs: HashSet::new(),
        bodies: Vec::new(),
        main_slots: SlotMap::default(),
    };
    collect_nested_defs(&prog.stmts, true, &mut c.nested_defs);

    // Phase 1: establish the hoisted bindings. Pre-registered instances win
    // (last registration, like repeated `predefine_funcs` inserts); among
    // top-level definitions of one name the first wins (`or_insert`).
    let mut order: Vec<&FuncDef> = Vec::new();
    let mut bound: HashSet<&str> = HashSet::new();
    for def in predefined {
        if bound.insert(&def.name) {
            order.push(def);
        } else {
            // A later registration replaces the earlier one.
            for slot in order.iter_mut() {
                if slot.name == def.name {
                    *slot = def;
                }
            }
        }
    }
    for s in &prog.stmts {
        if let Stmt::FuncDef(f) = s {
            if bound.insert(&f.name) {
                order.push(f);
            }
        }
    }
    // Reserve the slots first so call resolution inside any body sees the
    // complete hoisted table.
    for (i, def) in order.iter().enumerate() {
        c.unit.func_index.insert(def.name.clone(), i as u32);
        c.bodies.push(None);
    }
    // Phase 2: compile the bodies (may append further slots for nested
    // definitions).
    for (i, def) in order.into_iter().enumerate() {
        c.bodies[i] = Some(c.func(def));
    }

    // Main body: hoisted definitions are skipped, like the tree-walker.
    let mut b = Body::default();
    for s in &prog.stmts {
        if matches!(s, Stmt::FuncDef(_)) {
            continue;
        }
        c.stmt(&mut b, s);
    }
    c.unit.main = c.finish_body(b);
    // Every memo dependency gets a main slot (a callee can read a global
    // main itself never names), so key building and invalidation never
    // leave the frame.
    let deps = c.unit.memo_sites.iter().flat_map(|site| &site.deps);
    let deps: Vec<u32> = deps.map(|dep| c.main_slots.intern(dep)).collect();
    c.unit.memo_dep = vec![false; c.main_slots.len()];
    for slot in deps {
        c.unit.memo_dep[slot as usize] = true;
    }
    c.unit.main_slots = c.main_slots;
    c.unit.funcs = c
        .bodies
        .into_iter()
        .map(|f| f.expect("every reserved slot compiled"))
        .collect();
    c.unit
}

fn collect_nested_defs(stmts: &[Stmt], top: bool, out: &mut HashSet<String>) {
    for s in stmts {
        match s {
            Stmt::FuncDef(f) => {
                if !top {
                    out.insert(f.name.clone());
                }
                collect_nested_defs(&f.body, false, out);
            }
            Stmt::If {
                then, otherwise, ..
            } => {
                collect_nested_defs(then, false, out);
                collect_nested_defs(otherwise, false, out);
            }
            Stmt::While { body, .. } | Stmt::Foreach { body, .. } => {
                collect_nested_defs(body, false, out);
            }
            Stmt::For {
                init, step, body, ..
            } => {
                collect_nested_defs(std::slice::from_ref(init), false, out);
                collect_nested_defs(std::slice::from_ref(step), false, out);
                collect_nested_defs(body, false, out);
            }
            _ => {}
        }
    }
}

/// A body being compiled: its code, the loop-patching stack, and — for a
/// function — its frame layout (`None` = main, whose layout lives on the
/// [`Compiler`] because `global` statements in any body add to it).
#[derive(Default)]
struct Body {
    code: Vec<Op>,
    /// Per enclosing loop, innermost last: its pending `break` (`true`) and
    /// `continue` (`false`) jumps.
    loops: Vec<Vec<(usize, bool)>>,
    slots: Option<SlotMap>,
}

impl Body {
    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize, target: usize) {
        let t = target as u32;
        match &mut self.code[at] {
            Op::Jump(x)
            | Op::JumpIfFalsePop(x)
            | Op::JumpIfTruePeek(x)
            | Op::JumpIfFalsePeek(x) => *x = t,
            Op::IterNext { end, .. } => *end = t,
            Op::MemoEnter { skip, .. } => *skip = t,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }
}

struct Compiler<'f> {
    facts: Option<&'f AnalysisFacts>,
    opts: CompileOptions,
    unit: CompiledUnit,
    name_map: HashMap<String, u32>,
    const_map: HashMap<String, u32>,
    msg_map: HashMap<String, u32>,
    nested_defs: HashSet<String>,
    bodies: Vec<Option<CompiledFunc>>,
    main_slots: SlotMap,
}

impl<'f> Compiler<'f> {
    fn name(&mut self, s: &str) -> u32 {
        intern(&mut self.unit.names, &mut self.name_map, s)
    }

    fn constant(&mut self, s: &str) -> u32 {
        intern(&mut self.unit.consts, &mut self.const_map, s)
    }

    fn msg(&mut self, s: &str) -> u32 {
        intern(&mut self.unit.msgs, &mut self.msg_map, s)
    }

    /// The frame slot of `name` in the body being compiled.
    fn slot(&mut self, b: &mut Body, name: &str) -> u32 {
        b.slots
            .as_mut()
            .unwrap_or(&mut self.main_slots)
            .intern(name)
    }

    fn func(&mut self, def: &FuncDef) -> CompiledFunc {
        let mut slots = SlotMap::default();
        for p in &def.params {
            slots.push(p);
        }
        let mut b = Body {
            slots: Some(slots),
            ..Body::default()
        };
        for s in &def.body {
            self.stmt(&mut b, s);
        }
        CompiledFunc {
            name: def.name.clone(),
            n_params: def.params.len() as u32,
            slots: b.slots.take().expect("set above"),
            code: self.finish_body(b),
        }
    }

    fn finish_body(&mut self, b: Body) -> Vec<Op> {
        debug_assert!(b.loops.is_empty(), "unbalanced loop frames");
        b.code
    }

    fn stmt(&mut self, b: &mut Body, s: &Stmt) {
        match s {
            Stmt::Expr(e) => {
                self.expr(b, e);
                b.emit(Op::Pop);
            }
            Stmt::Assign { target, value } => {
                // Value evaluates before the target is touched (tree order).
                // Only a keyed element store takes it as an operand, and
                // never as a variable: the base load below may autovivify
                // that very variable.
                let value = match target {
                    LValue::Index { key: Some(_), .. } => self.operand(b, value, false),
                    _ => {
                        self.expr(b, value);
                        Operand::Stack
                    }
                };
                let (elide, shape) = match self.facts {
                    Some(f) => (f.rc_elide_store(s), f.key_shape_stmt(s)),
                    None => (false, KeyShape::Unknown),
                };
                match target {
                    LValue::Var(name) => {
                        let slot = self.slot(b, name);
                        b.emit(Op::StoreSlot {
                            slot,
                            elide_rc: elide,
                        });
                    }
                    LValue::Index { var, key } => {
                        let arena = self.facts.is_some_and(|f| f.arena_safe_stmt(s));
                        let slot = self.slot(b, var);
                        b.emit(Op::LoadIndexBase { slot, arena });
                        match key {
                            Some(kexpr) => {
                                // Key evaluates after autovivification, as in
                                // the tree-walker.
                                let key = self.operand(b, kexpr, true);
                                b.emit(Op::StoreIndexKeyed {
                                    value,
                                    key,
                                    elide_rc: elide,
                                    hint: shape.into(),
                                });
                            }
                            None => {
                                b.emit(Op::StoreAppend {
                                    elide_rc: elide,
                                    int_append: shape == KeyShape::IntAppend,
                                });
                            }
                        }
                    }
                }
            }
            Stmt::Echo(parts) => {
                for p in parts {
                    let arena = self.facts.is_some_and(|f| f.arena_safe_expr(p));
                    // The generic `Echo` mirrors the tree-walker exactly
                    // (always materializes a transient); the fused
                    // `EchoValue` skips it for a string.
                    let op = if self.opts.fuse {
                        let value = self.operand(b, p, true);
                        Op::EchoValue { value, arena }
                    } else {
                        self.expr(b, p);
                        Op::Echo { arena }
                    };
                    b.emit(op);
                }
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                self.expr(b, cond);
                let jf = b.emit(Op::JumpIfFalsePop(u32::MAX));
                for s in then {
                    self.stmt(b, s);
                }
                if otherwise.is_empty() {
                    b.patch(jf, b.code.len());
                } else {
                    let jend = b.emit(Op::Jump(u32::MAX));
                    b.patch(jf, b.code.len());
                    for s in otherwise {
                        self.stmt(b, s);
                    }
                    b.patch(jend, b.code.len());
                }
            }
            Stmt::While { cond, body } => {
                let cap = self.msg("while loop exceeded iteration cap");
                b.emit(Op::PushGuard);
                let head = |c: &mut Self, b: &mut Body| c.guarded_test(b, cond, cap);
                self.lower_loop(b, head, body, None, Op::PopGuard);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let cap = self.msg("for loop exceeded iteration cap");
                self.stmt(b, init);
                b.emit(Op::PushGuard);
                let head = |c: &mut Self, b: &mut Body| c.guarded_test(b, cond, cap);
                self.lower_loop(b, head, body, Some(step), Op::PopGuard);
            }
            Stmt::Foreach {
                array,
                key_var,
                value_var,
                body,
            } => {
                self.expr(b, array);
                b.emit(Op::IterInit);
                let elide = self.facts.is_some_and(|f| f.rc_elide_store(s));
                // Value slot before key slot: the order the names appear in.
                let value = self.slot(b, value_var);
                let key = key_var.as_ref().map(|k| self.slot(b, k));
                let next = Op::IterNext {
                    value,
                    key,
                    elide_rc: elide,
                    end: u32::MAX,
                };
                self.lower_loop(b, |_, b| b.emit(next), body, None, Op::IterPop);
            }
            Stmt::FuncDef(f) => {
                // A nested definition executed at run time (hoisted
                // top-level definitions never reach here).
                let compiled = self.func(f);
                let idx = self.bodies.len() as u32;
                self.bodies.push(Some(compiled));
                b.emit(Op::DefineFunc { func: idx });
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(b, e),
                    None => {
                        b.emit(Op::PushNull);
                    }
                }
                b.emit(Op::Return);
            }
            Stmt::Global(names) => {
                for n in names {
                    let slot = self.slot(b, n);
                    let main = self.main_slots.intern(n);
                    b.emit(Op::Global { slot, main });
                }
            }
            Stmt::Break | Stmt::Continue if b.loops.is_empty() => {
                let msg = self.msg("break/continue outside loop");
                b.emit(Op::Fail { msg });
            }
            Stmt::Break | Stmt::Continue => {
                let at = b.emit(Op::Jump(u32::MAX));
                let jumps = b.loops.last_mut().expect("checked");
                jumps.push((at, matches!(s, Stmt::Break)));
            }
        }
    }

    /// A metered loop's head: the exit test, whose jump out it returns, then
    /// the iteration tick.
    fn guarded_test(&mut self, b: &mut Body, cond: &Expr, cap: u32) -> usize {
        self.expr(b, cond);
        let exit = b.emit(Op::JumpIfFalsePop(u32::MAX));
        b.emit(Op::GuardTick { msg: cap });
        exit
    }

    /// Lowers a loop from its head on: `head` emits the code that runs
    /// before each iteration and returns its jump out of the loop; then
    /// come the body, the `step` statement (where `continue` lands; the head
    /// when there is none), the jump back to the head, and `close`, where
    /// the jump out and `break` land.
    fn lower_loop(
        &mut self,
        b: &mut Body,
        head: impl FnOnce(&mut Self, &mut Body) -> usize,
        body: &[Stmt],
        step: Option<&Stmt>,
        close: Op,
    ) {
        let loop_at = b.code.len();
        let exit = head(self, b);
        b.loops.push(Vec::new());
        for s in body {
            self.stmt(b, s);
        }
        let jumps = b.loops.pop().expect("pushed above");
        let next_at = match step {
            Some(step) => {
                let at = b.code.len();
                self.stmt(b, step);
                at
            }
            None => loop_at,
        };
        b.emit(Op::Jump(loop_at as u32));
        let end = b.code.len();
        b.patch(exit, end);
        for (at, is_break) in jumps {
            b.patch(at, if is_break { end } else { next_at });
        }
        b.emit(close);
    }

    fn expr(&mut self, b: &mut Body, e: &Expr) {
        match e {
            Expr::Null => {
                b.emit(Op::PushNull);
            }
            Expr::Bool(v) => {
                b.emit(Op::PushBool(*v));
            }
            Expr::Int(v) => {
                b.emit(Op::PushInt(*v));
            }
            Expr::Float(v) => {
                b.emit(Op::PushFloat(*v));
            }
            Expr::Str(s) => {
                let i = self.constant(s);
                b.emit(Op::PushStr(i));
            }
            Expr::Var(name) => {
                let elide = self.facts.is_some_and(|f| f.rc_elide_read(e));
                let slot = self.slot(b, name);
                b.emit(Op::LoadSlot {
                    slot,
                    elide_rc: elide,
                });
            }
            Expr::Index { base, key } => {
                let base = self.operand(b, base, !calls(key));
                let key = self.operand(b, key, true);
                let (elide, shape) = match self.facts {
                    Some(f) => (f.rc_elide_read(e), f.key_shape_expr(e)),
                    None => (false, KeyShape::Unknown),
                };
                b.emit(Op::IndexGet {
                    base,
                    key,
                    elide_rc: elide,
                    hint: shape.into(),
                });
            }
            Expr::ArrayLit(items) => {
                let arena = self.facts.is_some_and(|f| f.arena_safe_expr(e));
                b.emit(Op::NewArray { arena });
                for (k, vexpr) in items {
                    // Value before key, matching the tree-walker.
                    self.expr(b, vexpr);
                    match k {
                        Some(kexpr) => {
                            self.expr(b, kexpr);
                            b.emit(Op::ArrayInsert);
                        }
                        None => {
                            b.emit(Op::ArrayAppend);
                        }
                    }
                }
            }
            Expr::Call { name, args } => {
                let rebindable = self.nested_defs.contains(name);
                let user = self.unit.func_index.get(name).copied();
                let user = user.filter(|_| !rebindable);
                let builtin =
                    user.is_none() && !rebindable && builtins::NAMES.contains(&name.as_str());
                // Only a builtin takes operands: a user callee reads its
                // arguments off the stack into its frame.
                let operands = if builtin {
                    self.operands(b, &args.iter().collect::<Vec<_>>())
                } else {
                    args.iter().for_each(|a| self.expr(b, a));
                    Vec::new()
                };
                let argc = args.len() as u32;
                let summarized = self.facts.is_some_and(|f| f.call_summarized(e));
                let regex = self.facts.and_then(|f| f.precompiled_regex(e)).map(|re| {
                    let i = self.unit.regexes.len() as u32;
                    self.unit.regexes.push(Arc::clone(re));
                    i
                });
                let op = match user {
                    Some(func) => Op::CallUser {
                        func,
                        argc,
                        summarized,
                    },
                    None if builtin => Op::CallBuiltin {
                        name: self.name(name),
                        args: operands.into(),
                        regex,
                    },
                    None => Op::CallDynamic {
                        name: self.name(name),
                        argc,
                        regex,
                        summarized,
                    },
                };
                // A proven-memoizable resolved user call is bracketed with
                // MemoEnter/MemoStore; the enter's `skip` jumps past the
                // store on a hit.
                let memo = match &op {
                    Op::CallUser { .. } => self.facts.and_then(|f| f.memo_site(e)).map(|m| {
                        let site = self.unit.memo_sites.len() as u32;
                        self.unit.memo_sites.push(MemoSiteInfo {
                            func: m.func.clone(),
                            argc,
                            deps: m.deps.clone(),
                        });
                        site
                    }),
                    _ => None,
                };
                match memo {
                    Some(site) => {
                        let enter = b.emit(Op::MemoEnter {
                            site,
                            skip: u32::MAX,
                        });
                        b.emit(op);
                        b.emit(Op::MemoStore { site });
                        b.patch(enter, b.code.len());
                    }
                    None => {
                        b.emit(op);
                    }
                }
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                self.expr(b, cond);
                match then {
                    Some(t) => {
                        let jf = b.emit(Op::JumpIfFalsePop(u32::MAX));
                        self.expr(b, t);
                        let jend = b.emit(Op::Jump(u32::MAX));
                        b.patch(jf, b.code.len());
                        self.expr(b, otherwise);
                        b.patch(jend, b.code.len());
                    }
                    None => {
                        // Elvis: a truthy condition is itself the result.
                        let jt = b.emit(Op::JumpIfTruePeek(u32::MAX));
                        b.emit(Op::Pop);
                        self.expr(b, otherwise);
                        b.patch(jt, b.code.len());
                    }
                }
            }
            Expr::Not(inner) => {
                self.expr(b, inner);
                b.emit(Op::Not);
            }
            Expr::Neg(inner) => {
                self.expr(b, inner);
                b.emit(Op::Neg);
            }
            Expr::Bin { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    // The left side's truth value decides when it is false
                    // (`And`) or true (`Or`).
                    self.expr(b, lhs);
                    b.emit(Op::ToBool);
                    let decided = match op {
                        BinOp::And => Op::JumpIfFalsePeek(u32::MAX),
                        _ => Op::JumpIfTruePeek(u32::MAX),
                    };
                    let jump = b.emit(decided);
                    b.emit(Op::Pop);
                    self.expr(b, rhs);
                    b.emit(Op::ToBool);
                    b.patch(jump, b.code.len());
                }
                BinOp::Concat if self.opts.fuse => {
                    let mut leaves: Vec<(&Expr, bool)> = Vec::new();
                    flatten_concat(e, self.facts, &mut leaves);
                    if leaves.len() <= MAX_CONCAT_FLATTEN {
                        let exprs: Vec<&Expr> = leaves.iter().map(|(leaf, _)| *leaf).collect();
                        let parts = self.operands(b, &exprs);
                        // An integer literal's one use in a concat is its
                        // decimal form.
                        let parts = parts.into_iter().map(|p| match p {
                            Operand::Int(i) => Operand::Const(self.constant(&i.to_string())),
                            p => p,
                        });
                        let parts = parts.collect();
                        let skip = leaves.iter().enumerate().filter(|(_, (_, skip))| *skip);
                        let skip_mask = skip.fold(0, |mask, (i, _)| mask | 1 << i);
                        let arena = self.facts.is_some_and(|f| f.arena_safe_expr(e));
                        b.emit(Op::ConcatN {
                            parts,
                            skip_mask,
                            arena,
                        });
                    } else {
                        self.bin_generic(b, e, *op, lhs, rhs);
                    }
                }
                _ => self.bin_generic(b, e, *op, lhs, rhs),
            },
        }
    }

    fn bin_generic(&mut self, b: &mut Body, e: &Expr, op: BinOp, lhs: &Expr, rhs: &Expr) {
        let lhs = self.operand(b, lhs, !calls(rhs));
        let rhs = self.operand(b, rhs, true);
        let (skip_lhs, skip_rhs) = self.facts.map(|f| f.bin_typed(e)).unwrap_or((false, false));
        let arena = self.facts.is_some_and(|f| f.arena_safe_expr(e));
        b.emit(Op::Bin {
            op,
            lhs,
            rhs,
            skip_lhs,
            skip_rhs,
            arena,
        });
    }

    /// Lowers `e` as one input of an op. With fusion on, a string or
    /// integer literal folds into the op, and so does a variable when
    /// `var_ok` (no later input of the op contains a call); anything else is
    /// evaluated onto the stack.
    fn operand(&mut self, b: &mut Body, e: &Expr, var_ok: bool) -> Operand {
        match e {
            _ if !self.opts.fuse => {}
            Expr::Str(s) => return Operand::Const(self.constant(s)),
            Expr::Int(i) => return Operand::Int(*i),
            Expr::Var(name) if var_ok => {
                let elide_rc = self.facts.is_some_and(|f| f.rc_elide_read(e));
                let slot = self.slot(b, name);
                return Operand::Slot { slot, elide_rc };
            }
            _ => {}
        }
        self.expr(b, e);
        Operand::Stack
    }

    /// [`Compiler::operand`] over one op's inputs, in order.
    fn operands(&mut self, b: &mut Body, leaves: &[&Expr]) -> Vec<Operand> {
        let mut out = Vec::with_capacity(leaves.len());
        for (i, leaf) in leaves.iter().enumerate() {
            let var_ok = !leaves[i + 1..].iter().any(|later| calls(later));
            out.push(self.operand(b, leaf, var_ok));
        }
        out
    }
}

/// The index of `s` in one of the unit's pools, appended on first use;
/// `index` maps each pooled string to its index.
fn intern<T: for<'s> From<&'s str>>(
    pool: &mut Vec<T>,
    index: &mut HashMap<String, u32>,
    s: &str,
) -> u32 {
    if let Some(&i) = index.get(s) {
        return i;
    }
    pool.push(T::from(s));
    index.insert(s.to_string(), pool.len() as u32 - 1);
    pool.len() as u32 - 1
}

/// Whether evaluating `e` can call a function: the one way an expression
/// can write a variable (`extract`, or a user function through `global`).
fn calls(e: &Expr) -> bool {
    match e {
        Expr::Call { .. } => true,
        Expr::Index { base: x, key: y } | Expr::Bin { lhs: x, rhs: y, .. } => calls(x) || calls(y),
        Expr::ArrayLit(items) => items
            .iter()
            .any(|(k, v)| k.as_ref().is_some_and(calls) || calls(v)),
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => calls(cond) || then.as_deref().is_some_and(calls) || calls(otherwise),
        Expr::Not(x) | Expr::Neg(x) => calls(x),
        _ => false,
    }
}

/// Collects the leaves of a concat tree left-to-right. Each leaf carries the
/// type-proven flag its immediate parent `Bin` recorded for that side;
/// intermediate concat results disappear entirely (they are statically
/// strings).
fn flatten_concat<'e>(e: &'e Expr, facts: Option<&AnalysisFacts>, out: &mut Vec<(&'e Expr, bool)>) {
    let Expr::Bin {
        op: BinOp::Concat,
        lhs,
        rhs,
    } = e
    else {
        unreachable!("flatten_concat on a non-concat node");
    };
    let (skip_l, skip_r) = facts.map(|f| f.bin_typed(e)).unwrap_or((false, false));
    for (side, skip) in [(lhs, skip_l), (rhs, skip_r)] {
        if matches!(
            side.as_ref(),
            Expr::Bin {
                op: BinOp::Concat,
                ..
            }
        ) {
            flatten_concat(side, facts, out);
        } else {
            out.push((side, skip));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn unit(src: &str, fuse: bool) -> CompiledUnit {
        let prog = parse(src).unwrap();
        compile(&prog, &[], None, CompileOptions { fuse })
    }

    #[test]
    fn unit_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<CompiledUnit>();
    }

    #[test]
    fn op_kind_indices_are_dense_and_named() {
        for (i, k) in OpKind::all().into_iter().enumerate() {
            assert_eq!(k as usize, i);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn parameters_take_the_first_slots_and_main_owns_every_global() {
        let u = unit(
            "function f($a, $b) { global $g; $c = $a; return $c . $b . $g; } \
             $x = 1; echo f($x, 2);",
            false,
        );
        let f = &u.funcs[0];
        assert_eq!((f.n_params, f.slots.len()), (2, 4));
        let slots = ["a", "b", "g", "c"].map(|name| f.slots.get(name));
        assert_eq!(slots, [Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(f.slots.get("x"), None, "main's variable is not f's");
        // `global $g` in f gave main a slot before main's own `$x`.
        assert_eq!(
            (u.main_slots.get("g"), u.main_slots.get("x")),
            (Some(0), Some(1))
        );
        assert_eq!(u.main_slots.name(1), "x");
        assert!(f.code.contains(&Op::Global { slot: 2, main: 0 }));
        assert_eq!(u.memo_dep, [false, false], "no facts, no memo sites");
    }

    #[test]
    fn jumps_stay_in_bounds_after_fusion() {
        let src = "$s = ''; for ($i = 0; $i < 3; $i++) { \
                   if ($i == 1) { continue; } $s = $s . 'x' . $i; echo $s; } \
                   echo 'done';";
        for fuse in [false, true] {
            let u = unit(src, fuse);
            for op in &u.main {
                let t = match op {
                    Op::Jump(t)
                    | Op::JumpIfFalsePop(t)
                    | Op::JumpIfTruePeek(t)
                    | Op::JumpIfFalsePeek(t) => *t,
                    Op::IterNext { end, .. } => *end,
                    _ => continue,
                };
                assert!(
                    (t as usize) <= u.main.len(),
                    "target {t} out of bounds in {:?}",
                    u.main
                );
            }
        }
    }

    /// `src`'s fused main code, one op per line.
    fn fused_listing(src: &str) -> String {
        let u = unit(src, true);
        u.main.iter().map(|op| format!("{op:?}\n")).collect()
    }

    #[test]
    fn fusion_folds_literals_and_variables_into_their_consumers() {
        let listing = fused_listing("echo 'a', $x, 7; $y = $a['k'] . 'b' . $x . 7;");
        assert_eq!(listing, "\
EchoValue { value: Const(0), arena: false }
EchoValue { value: Slot { slot: 0, elide_rc: false }, arena: false }
EchoValue { value: Int(7), arena: false }
IndexGet { base: Slot { slot: 1, elide_rc: false }, key: Const(1), elide_rc: false, hint: Unknown }
ConcatN { parts: [Stack, Const(2), Slot { slot: 0, elide_rc: false }, Const(3)], skip_mask: 0, arena: false }
StoreSlot { slot: 2, elide_rc: false }
");
        let u = unit("$y = 'b' . 7;", true);
        assert_eq!(u.consts, [PhpStr::from("b"), PhpStr::from("7")]);
    }

    #[test]
    fn a_variable_before_a_call_is_loaded_in_tree_order() {
        let src = "function f() { return 1; } $s = $x . f() . $x; $t = $x + f() - $x;";
        assert_eq!(fused_listing(src), "\
LoadSlot { slot: 0, elide_rc: false }
CallUser { func: 0, argc: 0, summarized: false }
ConcatN { parts: [Stack, Stack, Slot { slot: 0, elide_rc: false }], skip_mask: 0, arena: false }
StoreSlot { slot: 1, elide_rc: false }
LoadSlot { slot: 0, elide_rc: false }
CallUser { func: 0, argc: 0, summarized: false }
Bin { op: Add, lhs: Stack, rhs: Stack, skip_lhs: false, skip_rhs: false, arena: false }
Bin { op: Sub, lhs: Stack, rhs: Slot { slot: 0, elide_rc: false }, skip_lhs: false, skip_rhs: false, arena: false }
StoreSlot { slot: 2, elide_rc: false }
");
    }

    #[test]
    fn unfused_unit_has_no_superinstructions() {
        let src = "echo 'a', $x; $y = $a['k'] . 'b' . $x; $z['k'] = strlen('s') + 1;";
        let u = unit(src, false);
        let stacked = |ops: &[Operand]| ops.iter().all(|o| *o == Operand::Stack);
        let folds = |op: &Op| match op {
            Op::Bin { lhs, rhs, .. } => !stacked(&[*lhs, *rhs]),
            Op::IndexGet { base, key, .. } => !stacked(&[*base, *key]),
            Op::StoreIndexKeyed { value, key, .. } => !stacked(&[*value, *key]),
            Op::CallBuiltin { args, .. } => !stacked(args),
            op => op.kind().is_fused(),
        };
        assert!(!u.main.iter().any(folds), "{:?}", u.main);
    }

    #[test]
    fn break_continue_outside_loop_compile_to_fail() {
        let u = unit("break;", false);
        assert!(matches!(u.main[0], Op::Fail { .. }));
        let u = unit("function f() { continue; } f();", false);
        assert!(u.funcs[0]
            .code
            .iter()
            .any(|op| matches!(op, Op::Fail { .. })));
    }

    #[test]
    fn shadowed_builtin_compiles_to_user_call() {
        let u = unit("function strlen($s) { return 7; } echo strlen('xy');", true);
        assert!(
            u.main.iter().any(|op| matches!(op, Op::CallUser { .. })),
            "{:?}",
            u.main
        );
    }

    #[test]
    fn nested_redefinition_forces_dynamic_call() {
        let u = unit(
            "function f() { return 1; } \
             if (true) { function f() { return 2; } } echo f();",
            false,
        );
        assert!(
            u.main.iter().any(|op| matches!(op, Op::CallDynamic { .. })),
            "{:?}",
            u.main
        );
        assert!(u.main.iter().any(|op| matches!(op, Op::DefineFunc { .. })));
    }
}
