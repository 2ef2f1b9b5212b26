//! Bytecode compilation: lowers a [`Program`] plus optional
//! [`AnalysisFacts`] into a flat [`CompiledUnit`] of *specialized* opcodes.
//!
//! Where the tree-walker consults the facts side-table on every visit, the
//! compiler folds each verdict into the instruction itself: a `Bin` whose
//! operand types were proven compiles to an opcode with its skip flags baked
//! in, an RC-elidable store carries `elide_rc`, a `ConstStr` access site
//! carries the hash-stage hint, and an arena-safe allocation site carries its
//! arena flag. At run time the VM never touches the facts table at all — the
//! unit is self-contained (name/const/regex pools included) and `Send +
//! Sync`, so one `Arc<CompiledUnit>` serves every worker, the software
//! analogue of a shared bytecode cache.
//!
//! With [`CompileOptions::fuse`] on, a second pass builds
//! *superinstructions* for the measured-hot patterns: concat trees flatten
//! into [`Op::ConcatN`] (one transient allocation instead of one per join),
//! `echo` sites become [`Op::EchoValue`] (no transient for an
//! already-string value), and a peephole pass fuses statically adjacent
//! pairs (`PushStr`+`EchoValue` → [`Op::EchoConst`], `LoadSlot`+`EchoValue`
//! → [`Op::EchoVar`], `PushStr`+`IndexGet` → [`Op::IndexConst`]) wherever
//! the second instruction is not a jump target.
//!
//! Variable names are resolved here, not at run time: every body (each
//! function and main) gets a [`SlotMap`] with one frame slot per variable it
//! names, parameters first, and every variable-touching opcode carries the
//! slot index. The map itself stays on the unit for the few by-name paths
//! (`extract`, request variables, memo dependency reads).

use crate::ast::{BinOp, Expr, FuncDef, LValue, Program, Stmt};
use crate::builtins;
use crate::eval::hint_of;
use crate::facts::{AnalysisFacts, KeyShape};
use php_runtime::string::PhpStr;
use phpaccel_core::KeyShapeHint;
use regex_engine::Regex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Compilation switches.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Run the superinstruction-fusion pass (concat flattening, echo
    /// fast paths, adjacent-pair peephole). Off = a 1:1 lowering whose
    /// per-step work mirrors the tree-walker, for measuring the fusion
    /// delta in isolation.
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
    /// Pop key then base; push `base[key]` with PHP coercions.
    IndexGet {
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
    /// Pop key, base array, and value (pushed in value→base→key order);
    /// store `base[key] = value`.
    StoreIndexKeyed {
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
    /// Pop rhs then lhs; push `lhs op rhs`. Never `And`/`Or` (those
    /// compile to jumps). Type-check skip flags are the facts' proven
    /// operand types, baked in.
    Bin {
        /// The operator.
        op: BinOp,
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
    /// Direct builtin call: the name shadows no user function. Pops
    /// `argc` arguments.
    CallBuiltin {
        /// Name-pool index of the builtin.
        name: u32,
        /// Argument count.
        argc: u32,
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
    /// Pop `n` values and push their concatenation as ONE transient —
    /// a flattened concat tree that elides the `n-2` intermediate
    /// transients the nested form would allocate.
    ConcatN {
        /// Number of operands (≤ [`MAX_CONCAT_FLATTEN`]).
        n: u32,
        /// Bit `i` set = operand `i`'s type was proven (check elided).
        skip_mask: u64,
        /// Arena verdict (root concat site) for the result transient.
        arena: bool,
    },
    /// Fused echo: a value that is already a string is appended to the
    /// output directly, with no transient materialization.
    EchoValue {
        /// Arena verdict for the non-string conversion transient.
        arena: bool,
    },
    /// Fused `PushStr` + `EchoValue`: emit a const-pool string.
    EchoConst {
        /// Const-pool index.
        s: u32,
    },
    /// Fused `LoadSlot` + `EchoValue`.
    EchoVar {
        /// Frame slot of the variable.
        slot: u32,
        /// Proven RC-elidable read.
        elide_rc: bool,
        /// Arena verdict for the non-string conversion transient.
        arena: bool,
    },
    /// Fused `PushStr` + `IndexGet`: pop base, push `base[const]`.
    IndexConst {
        /// Const-pool index of the key.
        key: u32,
        /// Proven RC-elidable read.
        elide_rc: bool,
        /// Proven key shape for the hash probe.
        hint: KeyShapeHint,
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

/// Declares [`OpKind`] with its name table, its index-ordered variant list
/// and [`OP_KIND_COUNT`] from one list of variants.
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
    Echo, Global, Fail, ConcatN, EchoValue, EchoConst, EchoVar, IndexConst,
    MemoEnter, MemoStore,
}

impl OpKind {
    /// Whether this kind is a fusion-produced superinstruction.
    pub fn is_fused(self) -> bool {
        matches!(
            self,
            OpKind::ConcatN
                | OpKind::EchoValue
                | OpKind::EchoConst
                | OpKind::EchoVar
                | OpKind::IndexConst
        )
    }
}

impl Op {
    /// The dense classification of this opcode.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::PushNull => OpKind::PushNull,
            Op::PushBool(_) => OpKind::PushBool,
            Op::PushInt(_) => OpKind::PushInt,
            Op::PushFloat(_) => OpKind::PushFloat,
            Op::PushStr(_) => OpKind::PushStr,
            Op::Pop => OpKind::Pop,
            Op::LoadSlot { .. } => OpKind::LoadSlot,
            Op::StoreSlot { .. } => OpKind::StoreSlot,
            Op::IndexGet { .. } => OpKind::IndexGet,
            Op::LoadIndexBase { .. } => OpKind::LoadIndexBase,
            Op::StoreIndexKeyed { .. } => OpKind::StoreIndexKeyed,
            Op::StoreAppend { .. } => OpKind::StoreAppend,
            Op::NewArray { .. } => OpKind::NewArray,
            Op::ArrayInsert => OpKind::ArrayInsert,
            Op::ArrayAppend => OpKind::ArrayAppend,
            Op::Bin { .. } => OpKind::Bin,
            Op::Not => OpKind::Not,
            Op::Neg => OpKind::Neg,
            Op::ToBool => OpKind::ToBool,
            Op::Jump(_) => OpKind::Jump,
            Op::JumpIfFalsePop(_) => OpKind::JumpIfFalsePop,
            Op::JumpIfTruePeek(_) => OpKind::JumpIfTruePeek,
            Op::JumpIfFalsePeek(_) => OpKind::JumpIfFalsePeek,
            Op::PushGuard => OpKind::PushGuard,
            Op::GuardTick { .. } => OpKind::GuardTick,
            Op::PopGuard => OpKind::PopGuard,
            Op::IterInit => OpKind::IterInit,
            Op::IterNext { .. } => OpKind::IterNext,
            Op::IterPop => OpKind::IterPop,
            Op::DefineFunc { .. } => OpKind::DefineFunc,
            Op::CallUser { .. } => OpKind::CallUser,
            Op::CallBuiltin { .. } => OpKind::CallBuiltin,
            Op::CallDynamic { .. } => OpKind::CallDynamic,
            Op::Return => OpKind::Return,
            Op::Echo { .. } => OpKind::Echo,
            Op::Global { .. } => OpKind::Global,
            Op::Fail { .. } => OpKind::Fail,
            Op::ConcatN { .. } => OpKind::ConcatN,
            Op::EchoValue { .. } => OpKind::EchoValue,
            Op::EchoConst { .. } => OpKind::EchoConst,
            Op::EchoVar { .. } => OpKind::EchoVar,
            Op::IndexConst { .. } => OpKind::IndexConst,
            Op::MemoEnter { .. } => OpKind::MemoEnter,
            Op::MemoStore { .. } => OpKind::MemoStore,
        }
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
    /// The fusion pass ran.
    pub fused: bool,
    /// Facts were attached at compile time.
    pub specialized: bool,
    /// Facts side-channel: statically known allocation sizes for heap
    /// free-list pre-seeding (mirrors `Interp::set_facts`).
    pub alloc_size_hints: Vec<usize>,
    /// Facts side-channel: taint lints to book into the savings counters.
    pub taint_lints: u64,
    /// Facts side-channel: proven arena-safe allocation sites.
    pub arena_safe_sites: u64,
    /// Facts side-channel: whether any regex was precompiled (preloads the
    /// string-engine sieve config).
    pub has_precompiled_regex: bool,
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
            fused: opts.fuse,
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
    if let Some(f) = facts {
        c.unit.alloc_size_hints = f.alloc_size_hints().to_vec();
        c.unit.taint_lints = f.taint_lint_count() as u64;
        c.unit.arena_safe_sites = f.arena_safe_count() as u64;
        c.unit.has_precompiled_regex = f.precompiled_regex_count() > 0;
    }

    // Phase 1: establish the hoisted bindings. Pre-registered instances win
    // (last registration, like repeated `predefine_funcs` inserts); among
    // top-level definitions of one name the first wins (`or_insert`).
    enum Pending<'p> {
        Shared(Arc<FuncDef>),
        Ast(&'p FuncDef),
    }
    let mut order: Vec<(String, Pending<'_>)> = Vec::new();
    let mut bound: HashSet<String> = HashSet::new();
    for def in predefined {
        if bound.insert(def.name.clone()) {
            order.push((def.name.clone(), Pending::Shared(Arc::clone(def))));
        } else {
            // A later registration replaces the earlier one.
            for slot in order.iter_mut() {
                if slot.0 == def.name {
                    slot.1 = Pending::Shared(Arc::clone(def));
                }
            }
        }
    }
    for s in &prog.stmts {
        if let Stmt::FuncDef(f) = s {
            if bound.insert(f.name.clone()) {
                order.push((f.name.clone(), Pending::Ast(f)));
            }
        }
    }
    // Reserve the slots first so call resolution inside any body sees the
    // complete hoisted table.
    for (i, (name, _)) in order.iter().enumerate() {
        c.unit.func_index.insert(name.clone(), i as u32);
        c.bodies.push(None);
    }
    // Phase 2: compile the bodies (may append further slots for nested
    // definitions).
    for (i, (_, pending)) in order.iter().enumerate() {
        let compiled = match pending {
            Pending::Shared(def) => c.func(def),
            Pending::Ast(def) => c.func(def),
        };
        c.bodies[i] = Some(compiled);
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
    loops: Vec<LoopFrame>,
    slots: Option<SlotMap>,
}

/// Pending jumps of one enclosing loop.
#[derive(Default)]
struct LoopFrame {
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
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
        if let Some(&i) = self.name_map.get(s) {
            return i;
        }
        let i = self.unit.names.len() as u32;
        self.unit.names.push(s.to_string());
        self.name_map.insert(s.to_string(), i);
        i
    }

    fn constant(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.const_map.get(s) {
            return i;
        }
        let i = self.unit.consts.len() as u32;
        self.unit.consts.push(PhpStr::from(s));
        self.const_map.insert(s.to_string(), i);
        i
    }

    fn msg(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.msg_map.get(s) {
            return i;
        }
        let i = self.unit.msgs.len() as u32;
        self.unit.msgs.push(s.to_string());
        self.msg_map.insert(s.to_string(), i);
        i
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
        if self.opts.fuse {
            fuse_pairs(b.code)
        } else {
            b.code
        }
    }

    fn emit(&mut self, b: &mut Body, op: Op) -> usize {
        b.code.push(op);
        b.code.len() - 1
    }

    fn patch(&mut self, b: &mut Body, at: usize, target: usize) {
        let t = target as u32;
        match &mut b.code[at] {
            Op::Jump(x)
            | Op::JumpIfFalsePop(x)
            | Op::JumpIfTruePeek(x)
            | Op::JumpIfFalsePeek(x) => *x = t,
            Op::IterNext { end, .. } => *end = t,
            Op::MemoEnter { skip, .. } => *skip = t,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn stmt(&mut self, b: &mut Body, s: &Stmt) {
        match s {
            Stmt::Expr(e) => {
                self.expr(b, e);
                self.emit(b, Op::Pop);
            }
            Stmt::Assign { target, value } => {
                // Value evaluates before the target is touched (tree order).
                self.expr(b, value);
                let (elide, shape) = match self.facts {
                    Some(f) => (f.rc_elide_store(s), f.key_shape_stmt(s)),
                    None => (false, KeyShape::Unknown),
                };
                match target {
                    LValue::Var(name) => {
                        let slot = self.slot(b, name);
                        self.emit(
                            b,
                            Op::StoreSlot {
                                slot,
                                elide_rc: elide,
                            },
                        );
                    }
                    LValue::Index { var, key } => {
                        let arena = self.facts.is_some_and(|f| f.arena_safe_stmt(s));
                        let slot = self.slot(b, var);
                        self.emit(b, Op::LoadIndexBase { slot, arena });
                        match key {
                            Some(kexpr) => {
                                // Key evaluates after autovivification, as in
                                // the tree-walker.
                                self.expr(b, kexpr);
                                self.emit(
                                    b,
                                    Op::StoreIndexKeyed {
                                        elide_rc: elide,
                                        hint: hint_of(shape),
                                    },
                                );
                            }
                            None => {
                                self.emit(
                                    b,
                                    Op::StoreAppend {
                                        elide_rc: elide,
                                        int_append: shape == KeyShape::IntAppend,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            Stmt::Echo(parts) => {
                for p in parts {
                    self.expr(b, p);
                    let arena = self.facts.is_some_and(|f| f.arena_safe_expr(p));
                    // The generic `Echo` mirrors the tree-walker exactly
                    // (always materializes a transient); the fusion pass
                    // rewrites it to the string-fast-path `EchoValue`.
                    let op = if self.opts.fuse {
                        Op::EchoValue { arena }
                    } else {
                        Op::Echo { arena }
                    };
                    self.emit(b, op);
                }
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                self.expr(b, cond);
                let jf = self.emit(b, Op::JumpIfFalsePop(u32::MAX));
                for s in then {
                    self.stmt(b, s);
                }
                if otherwise.is_empty() {
                    let end = b.code.len();
                    self.patch(b, jf, end);
                } else {
                    let jend = self.emit(b, Op::Jump(u32::MAX));
                    let else_at = b.code.len();
                    self.patch(b, jf, else_at);
                    for s in otherwise {
                        self.stmt(b, s);
                    }
                    let end = b.code.len();
                    self.patch(b, jend, end);
                }
            }
            Stmt::While { cond, body } => {
                let cap = self.msg("while loop exceeded iteration cap");
                self.emit(b, Op::PushGuard);
                let loop_at = b.code.len();
                self.expr(b, cond);
                let jexit = self.emit(b, Op::JumpIfFalsePop(u32::MAX));
                self.emit(b, Op::GuardTick { msg: cap });
                b.loops.push(LoopFrame::default());
                for s in body {
                    self.stmt(b, s);
                }
                let frame = b.loops.pop().expect("pushed above");
                self.emit(b, Op::Jump(loop_at as u32));
                let end = b.code.len(); // the PopGuard below
                self.patch(b, jexit, end);
                for at in frame.break_patches {
                    self.patch(b, at, end);
                }
                for at in frame.continue_patches {
                    self.patch(b, at, loop_at);
                }
                self.emit(b, Op::PopGuard);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let cap = self.msg("for loop exceeded iteration cap");
                self.stmt(b, init);
                self.emit(b, Op::PushGuard);
                let loop_at = b.code.len();
                self.expr(b, cond);
                let jexit = self.emit(b, Op::JumpIfFalsePop(u32::MAX));
                self.emit(b, Op::GuardTick { msg: cap });
                b.loops.push(LoopFrame::default());
                for s in body {
                    self.stmt(b, s);
                }
                let frame = b.loops.pop().expect("pushed above");
                let step_at = b.code.len();
                self.stmt(b, step);
                self.emit(b, Op::Jump(loop_at as u32));
                let end = b.code.len();
                self.patch(b, jexit, end);
                for at in frame.break_patches {
                    self.patch(b, at, end);
                }
                for at in frame.continue_patches {
                    self.patch(b, at, step_at);
                }
                self.emit(b, Op::PopGuard);
            }
            Stmt::Foreach {
                array,
                key_var,
                value_var,
                body,
            } => {
                self.expr(b, array);
                self.emit(b, Op::IterInit);
                let elide = self.facts.is_some_and(|f| f.rc_elide_store(s));
                // Value slot before key slot: the order the names appear in.
                let value = self.slot(b, value_var);
                let key = key_var.as_ref().map(|k| self.slot(b, k));
                let loop_at = b.code.len();
                let next = self.emit(
                    b,
                    Op::IterNext {
                        value,
                        key,
                        elide_rc: elide,
                        end: u32::MAX,
                    },
                );
                b.loops.push(LoopFrame::default());
                for s in body {
                    self.stmt(b, s);
                }
                let frame = b.loops.pop().expect("pushed above");
                self.emit(b, Op::Jump(loop_at as u32));
                let end = b.code.len(); // the IterPop below
                self.patch(b, next, end);
                for at in frame.break_patches {
                    self.patch(b, at, end);
                }
                for at in frame.continue_patches {
                    self.patch(b, at, loop_at);
                }
                self.emit(b, Op::IterPop);
            }
            Stmt::FuncDef(f) => {
                // A nested definition executed at run time (hoisted
                // top-level definitions never reach here).
                let compiled = self.func(f);
                let idx = self.bodies.len() as u32;
                self.bodies.push(Some(compiled));
                self.emit(b, Op::DefineFunc { func: idx });
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(b, e),
                    None => {
                        self.emit(b, Op::PushNull);
                    }
                }
                self.emit(b, Op::Return);
            }
            Stmt::Global(names) => {
                for n in names {
                    let slot = self.slot(b, n);
                    let main = self.main_slots.intern(n);
                    self.emit(b, Op::Global { slot, main });
                }
            }
            Stmt::Break => {
                if b.loops.is_empty() {
                    let msg = self.msg("break/continue outside loop");
                    self.emit(b, Op::Fail { msg });
                } else {
                    let at = self.emit(b, Op::Jump(u32::MAX));
                    b.loops.last_mut().expect("checked").break_patches.push(at);
                }
            }
            Stmt::Continue => {
                if b.loops.is_empty() {
                    let msg = self.msg("break/continue outside loop");
                    self.emit(b, Op::Fail { msg });
                } else {
                    let at = self.emit(b, Op::Jump(u32::MAX));
                    b.loops
                        .last_mut()
                        .expect("checked")
                        .continue_patches
                        .push(at);
                }
            }
        }
    }

    fn expr(&mut self, b: &mut Body, e: &Expr) {
        match e {
            Expr::Null => {
                self.emit(b, Op::PushNull);
            }
            Expr::Bool(v) => {
                self.emit(b, Op::PushBool(*v));
            }
            Expr::Int(v) => {
                self.emit(b, Op::PushInt(*v));
            }
            Expr::Float(v) => {
                self.emit(b, Op::PushFloat(*v));
            }
            Expr::Str(s) => {
                let i = self.constant(s);
                self.emit(b, Op::PushStr(i));
            }
            Expr::Var(name) => {
                let elide = self.facts.is_some_and(|f| f.rc_elide_read(e));
                let slot = self.slot(b, name);
                self.emit(
                    b,
                    Op::LoadSlot {
                        slot,
                        elide_rc: elide,
                    },
                );
            }
            Expr::Index { base, key } => {
                self.expr(b, base);
                self.expr(b, key);
                let (elide, shape) = match self.facts {
                    Some(f) => (f.rc_elide_read(e), f.key_shape_expr(e)),
                    None => (false, KeyShape::Unknown),
                };
                self.emit(
                    b,
                    Op::IndexGet {
                        elide_rc: elide,
                        hint: hint_of(shape),
                    },
                );
            }
            Expr::ArrayLit(items) => {
                let arena = self.facts.is_some_and(|f| f.arena_safe_expr(e));
                self.emit(b, Op::NewArray { arena });
                for (k, vexpr) in items {
                    // Value before key, matching the tree-walker.
                    self.expr(b, vexpr);
                    match k {
                        Some(kexpr) => {
                            self.expr(b, kexpr);
                            self.emit(b, Op::ArrayInsert);
                        }
                        None => {
                            self.emit(b, Op::ArrayAppend);
                        }
                    }
                }
            }
            Expr::Call { name, args } => {
                for a in args {
                    self.expr(b, a);
                }
                let argc = args.len() as u32;
                let summarized = self.facts.is_some_and(|f| f.call_summarized(e));
                let regex = self.facts.and_then(|f| f.precompiled_regex(e)).map(|re| {
                    let i = self.unit.regexes.len() as u32;
                    self.unit.regexes.push(Arc::clone(re));
                    i
                });
                let rebindable = self.nested_defs.contains(name);
                let op = match self.unit.func_index.get(name) {
                    Some(&func) if !rebindable => Op::CallUser {
                        func,
                        argc,
                        summarized,
                    },
                    None if !rebindable && builtins::NAMES.contains(&name.as_str()) => {
                        Op::CallBuiltin {
                            name: self.name(name),
                            argc,
                            regex,
                        }
                    }
                    _ => Op::CallDynamic {
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
                        let enter = self.emit(
                            b,
                            Op::MemoEnter {
                                site,
                                skip: u32::MAX,
                            },
                        );
                        self.emit(b, op);
                        self.emit(b, Op::MemoStore { site });
                        let after = b.code.len();
                        self.patch(b, enter, after);
                    }
                    None => {
                        self.emit(b, op);
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
                        let jf = self.emit(b, Op::JumpIfFalsePop(u32::MAX));
                        self.expr(b, t);
                        let jend = self.emit(b, Op::Jump(u32::MAX));
                        let else_at = b.code.len();
                        self.patch(b, jf, else_at);
                        self.expr(b, otherwise);
                        let end = b.code.len();
                        self.patch(b, jend, end);
                    }
                    None => {
                        // Elvis: a truthy condition is itself the result.
                        let jt = self.emit(b, Op::JumpIfTruePeek(u32::MAX));
                        self.emit(b, Op::Pop);
                        self.expr(b, otherwise);
                        let end = b.code.len();
                        self.patch(b, jt, end);
                    }
                }
            }
            Expr::Not(inner) => {
                self.expr(b, inner);
                self.emit(b, Op::Not);
            }
            Expr::Neg(inner) => {
                self.expr(b, inner);
                self.emit(b, Op::Neg);
            }
            Expr::Bin { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.expr(b, lhs);
                    self.emit(b, Op::ToBool);
                    let jf = self.emit(b, Op::JumpIfFalsePeek(u32::MAX));
                    self.emit(b, Op::Pop);
                    self.expr(b, rhs);
                    self.emit(b, Op::ToBool);
                    let end = b.code.len();
                    self.patch(b, jf, end);
                }
                BinOp::Or => {
                    self.expr(b, lhs);
                    self.emit(b, Op::ToBool);
                    let jt = self.emit(b, Op::JumpIfTruePeek(u32::MAX));
                    self.emit(b, Op::Pop);
                    self.expr(b, rhs);
                    self.emit(b, Op::ToBool);
                    let end = b.code.len();
                    self.patch(b, jt, end);
                }
                BinOp::Concat if self.opts.fuse => {
                    let mut leaves: Vec<(&Expr, bool)> = Vec::new();
                    flatten_concat(e, self.facts, &mut leaves);
                    if leaves.len() >= 3 && leaves.len() <= MAX_CONCAT_FLATTEN {
                        let mut mask = 0u64;
                        for (i, (leaf, skip)) in leaves.iter().enumerate() {
                            self.expr(b, leaf);
                            if *skip {
                                mask |= 1 << i;
                            }
                        }
                        let arena = self.facts.is_some_and(|f| f.arena_safe_expr(e));
                        self.emit(
                            b,
                            Op::ConcatN {
                                n: leaves.len() as u32,
                                skip_mask: mask,
                                arena,
                            },
                        );
                    } else {
                        self.bin_generic(b, e, *op, lhs, rhs);
                    }
                }
                _ => self.bin_generic(b, e, *op, lhs, rhs),
            },
        }
    }

    fn bin_generic(&mut self, b: &mut Body, e: &Expr, op: BinOp, lhs: &Expr, rhs: &Expr) {
        self.expr(b, lhs);
        self.expr(b, rhs);
        let (skip_lhs, skip_rhs) = self.facts.map(|f| f.bin_typed(e)).unwrap_or((false, false));
        let arena = self.facts.is_some_and(|f| f.arena_safe_expr(e));
        self.emit(
            b,
            Op::Bin {
                op,
                skip_lhs,
                skip_rhs,
                arena,
            },
        );
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
    if matches!(
        lhs.as_ref(),
        Expr::Bin {
            op: BinOp::Concat,
            ..
        }
    ) {
        flatten_concat(lhs, facts, out);
    } else {
        out.push((lhs, skip_l));
    }
    if matches!(
        rhs.as_ref(),
        Expr::Bin {
            op: BinOp::Concat,
            ..
        }
    ) {
        flatten_concat(rhs, facts, out);
    } else {
        out.push((rhs, skip_r));
    }
}

/// The adjacent-pair peephole: fuses `PushStr`+`EchoValue`,
/// `LoadSlot`+`EchoValue`, and `PushStr`+`IndexGet` wherever the second
/// instruction is not a jump target, then remaps every jump across the
/// renumbering.
fn fuse_pairs(code: Vec<Op>) -> Vec<Op> {
    let mut targets: HashSet<usize> = HashSet::new();
    for op in &code {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalsePop(t)
            | Op::JumpIfTruePeek(t)
            | Op::JumpIfFalsePeek(t) => {
                targets.insert(*t as usize);
            }
            Op::IterNext { end, .. } => {
                targets.insert(*end as usize);
            }
            Op::MemoEnter { skip, .. } => {
                targets.insert(*skip as usize);
            }
            _ => {}
        }
    }
    let mut map = vec![0usize; code.len() + 1];
    let mut out: Vec<Op> = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        map[i] = out.len();
        let fused = if i + 1 < code.len() && !targets.contains(&(i + 1)) {
            match (&code[i], &code[i + 1]) {
                (Op::PushStr(s), Op::EchoValue { .. }) => Some(Op::EchoConst { s: *s }),
                (Op::LoadSlot { slot, elide_rc }, Op::EchoValue { arena }) => Some(Op::EchoVar {
                    slot: *slot,
                    elide_rc: *elide_rc,
                    arena: *arena,
                }),
                (Op::PushStr(s), Op::IndexGet { elide_rc, hint }) => Some(Op::IndexConst {
                    key: *s,
                    elide_rc: *elide_rc,
                    hint: *hint,
                }),
                _ => None,
            }
        } else {
            None
        };
        if let Some(op) = fused {
            out.push(op);
            // Nothing jumps to the consumed slot (checked above); point it
            // past the fused op so the map stays monotone.
            map[i + 1] = out.len();
            i += 2;
        } else {
            out.push(code[i].clone());
            i += 1;
        }
    }
    map[code.len()] = out.len();
    for op in &mut out {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalsePop(t)
            | Op::JumpIfTruePeek(t)
            | Op::JumpIfFalsePeek(t) => *t = map[*t as usize] as u32,
            Op::IterNext { end, .. } => *end = map[*end as usize] as u32,
            Op::MemoEnter { skip, .. } => *skip = map[*skip as usize] as u32,
            _ => {}
        }
    }
    out
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

    #[test]
    fn fusion_produces_superinstructions() {
        let u = unit("echo 'a', $x; $y = $a['k'] . 'b' . $x;", true);
        let kinds: Vec<OpKind> = u.main.iter().map(Op::kind).collect();
        assert!(kinds.contains(&OpKind::EchoConst), "{kinds:?}");
        assert!(kinds.contains(&OpKind::EchoVar), "{kinds:?}");
        assert!(kinds.contains(&OpKind::IndexConst), "{kinds:?}");
        assert!(kinds.contains(&OpKind::ConcatN), "{kinds:?}");
    }

    #[test]
    fn unfused_unit_has_no_superinstructions() {
        let u = unit("echo 'a', $x; $y = $a['k'] . 'b' . $x;", false);
        assert!(
            u.main.iter().all(|op| !op.kind().is_fused()),
            "{:?}",
            u.main
        );
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
