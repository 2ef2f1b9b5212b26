//! The compiled-bytecode VM: executes a [`CompiledUnit`] over a
//! [`PhpMachine`].
//!
//! Dispatch charges one µop per opcode to the `jit_compiled_code` bucket
//! (the tree-walker charges three per AST node visit, six per statement), so
//! the same script costs measurably less interpreter overhead — and a fused
//! unit additionally skips the transient string allocations the generic
//! lowering performs. Program *output* is byte-identical to
//! [`crate::Interp`] on every program: the differential harness and the
//! serving layer's replay machinery gate exactly that.
//!
//! An op reads each [`Operand`] where it lives: off the value stack, in
//! place in the frame, or from the unit's const pool, whose bytes `ConcatN`
//! and `EchoValue` append without making a value. A variable operand is
//! charged the type check and refcount increment of the `LoadSlot` it
//! replaces, so folding a leaf takes only that op's dispatch µop off the
//! simulated clock.
//!
//! Variables live in frame slots the compiler assigned: one `Vec<Slot>`
//! holds every active frame back to back (main at offset 0, each call's
//! frame at the end), and a variable access is an indexed load or store that
//! charges the type check and refcount traffic of the symbol-table access it
//! replaces, minus the hash-table events. A name the running body never
//! mentions (an `extract`ed key, an unused request variable) goes to the
//! frame's spill symbol table, a metered [`PhpArray`] created on first use.
//! Loop iteration caps and the recursion limit use the tree-walker's
//! constants and messages, and builtins run through the shared
//! [`builtins::Host`] dispatch.

use crate::builtins;
use crate::compile::{CompiledUnit, Op, OpKind, Operand, SlotMap, OP_KIND_COUNT};
use crate::eval::{binop_eval, cached_regex, index_read, key_of, RuntimeError, MAX_DEPTH};
use crate::memo::{MemoHandle, MemoHit, MemoValue};
use php_runtime::array::{ArrayKey, PhpArray};
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use php_runtime::AccessStatic;
use phpaccel_core::PhpMachine;
use regex_engine::Regex;
use std::collections::HashMap;
use std::sync::Arc;

/// µops charged to the JIT bucket per executed opcode (vs 3 per AST node in
/// the tree-walker). A fused superinstruction is still one opcode: one
/// charge.
pub const VM_OP_UOPS: u64 = 1;

/// Per-opcode (and, on request, adjacent-pair) execution counters for one
/// VM run.
#[derive(Debug, Clone)]
pub struct OpcodeTally {
    counts: [u64; OP_KIND_COUNT],
    /// Dynamic (prev, next) pairs for *statically adjacent* opcodes — the
    /// population the operand folding was measured from. A flat
    /// `OP_KIND_COUNT × OP_KIND_COUNT` table, row = prev, allocated only when
    /// [`Vm::count_pairs`] asks for it: `analyze` reads it, the serving path
    /// reads the three totals.
    pairs: Option<Box<[u64]>>,
    /// Total opcodes executed.
    pub total: u64,
    /// Fused superinstructions executed.
    pub fused: u64,
    /// Transient string allocations elided by fused opcodes.
    pub transients_elided: u64,
}

impl Default for OpcodeTally {
    fn default() -> Self {
        OpcodeTally {
            counts: [0; OP_KIND_COUNT],
            pairs: None,
            total: 0,
            fused: 0,
            transients_elided: 0,
        }
    }
}

impl OpcodeTally {
    /// A tally that also counts statically adjacent pairs.
    fn with_pairs() -> Self {
        let pairs = vec![0; OP_KIND_COUNT * OP_KIND_COUNT].into_boxed_slice();
        OpcodeTally {
            pairs: Some(pairs),
            ..OpcodeTally::default()
        }
    }

    /// Executions of one opcode kind.
    pub fn count(&self, k: OpKind) -> u64 {
        self.counts[k as usize]
    }

    /// Opcode kinds by execution count, descending.
    pub fn top_ops(&self) -> Vec<(OpKind, u64)> {
        let mut v: Vec<(OpKind, u64)> = OpKind::all()
            .into_iter()
            .map(|k| (k, self.counts[k as usize]))
            .filter(|(_, n)| *n > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.name().cmp(b.0.name())));
        v
    }

    /// Statically adjacent opcode pairs by execution count, descending
    /// (none unless [`Vm::count_pairs`] asked for them).
    pub fn top_pairs(&self) -> Vec<((OpKind, OpKind), u64)> {
        let Some(pairs) = &self.pairs else {
            return Vec::new();
        };
        let mut v: Vec<((OpKind, OpKind), u64)> = OpKind::all()
            .into_iter()
            .flat_map(|prev| OpKind::all().map(|next| (prev, next)))
            .map(|(prev, next)| ((prev, next), pairs[pair_slot(prev, next)]))
            .filter(|(_, n)| *n > 0)
            .collect();
        v.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0 .0.name().cmp(b.0 .0.name()))
                .then(a.0 .1.name().cmp(b.0 .1.name()))
        });
        v
    }

    /// Counts one executed opcode; `adjacent_prev` is the opcode before it
    /// when that one is also its static predecessor.
    pub fn note(&mut self, kind: OpKind, adjacent_prev: Option<OpKind>) {
        self.counts[kind as usize] += 1;
        self.total += 1;
        if kind.is_fused() {
            self.fused += 1;
        }
        if let (Some(pairs), Some(prev)) = (&mut self.pairs, adjacent_prev) {
            pairs[pair_slot(prev, kind)] += 1;
        }
    }
}

fn pair_slot(prev: OpKind, next: OpKind) -> usize {
    prev as usize * OP_KIND_COUNT + next as usize
}

/// How many of an op's operands sit on the stack.
fn stacked(ops: &[Operand]) -> usize {
    ops.iter().filter(|o| **o == Operand::Stack).count()
}

/// How one body's execution ended.
enum ChunkExit {
    /// Ran off the end.
    Finished,
    /// Hit a `Return` opcode.
    Returned(PhpValue),
}

/// One variable slot of a frame.
#[derive(Clone)]
enum Slot {
    /// Never written: reads as `null` and, like a symbol-table miss,
    /// charges no type check.
    Unset,
    Value(PhpValue),
    /// `global $x` ran in this frame: the variable is main's slot.
    Global(u32),
}

/// The running body's frame.
struct Frame {
    /// Index of the frame's slot 0 in [`Vm::slots`].
    base: usize,
    /// Function-table index of the body; `None` in main.
    func: Option<u32>,
    /// Symbol table for names the body never mentions, created on first
    /// use. Write-only by construction: a name that can be read has a slot.
    spill: Option<PhpArray>,
}

/// Reads a memo dependency straight off main's frame: key building is
/// bookkeeping, not program work, so it bypasses the metered load.
fn read_dep(slots: &[Slot], main: &SlotMap, dep: &str) -> PhpValue {
    match main.get(dep).map(|slot| &slots[slot as usize]) {
        Some(Slot::Value(v)) => v.clone(),
        _ => PhpValue::Null,
    }
}

/// One in-flight memoizable call between its `MemoEnter` miss and its
/// `MemoStore`.
struct PendingMemo {
    site: u32,
    key: String,
    /// Handle clones of the arguments, so the key can be rebuilt at store
    /// time: a callee that mutated an argument (or a dep through an alias)
    /// changes the rebuilt key and the entry is not stored.
    args: Vec<PhpValue>,
    out_mark: usize,
}

/// The VM. Holds the same per-request state as [`crate::Interp`] (output
/// buffer, regex cache, recursion depth) plus the bytecode machine state
/// (frame slots, value/iterator/guard stacks and the runtime
/// function-binding table).
pub struct Vm<'m> {
    machine: &'m mut PhpMachine,
    unit: Arc<CompiledUnit>,
    /// Every active frame's slots, main's first.
    slots: Vec<Slot>,
    frame: Frame,
    stack: Vec<PhpValue>,
    iters: Vec<(Vec<(ArrayKey, PhpValue)>, usize)>,
    guards: Vec<u64>,
    /// Live name → function-table bindings once a `DefineFunc` has rebound
    /// a name; until then the unit's hoisted table is the live one.
    rebound_funcs: Option<HashMap<String, u32>>,
    output: Vec<u8>,
    regex_cache: HashMap<String, Arc<Regex>>,
    depth: usize,
    tally: OpcodeTally,
    /// Shared memo tier; `MemoEnter`/`MemoStore` are no-ops when absent.
    memo: Option<MemoHandle>,
    /// In-flight memo sites, LIFO — every executed `MemoEnter` that falls
    /// through pushes one entry (`None` when the key was unbuildable) and
    /// the matching `MemoStore` pops it.
    memo_pending: Vec<Option<PendingMemo>>,
    /// Deterministic per-request PRNG state for the `rand` builtin
    /// (mirrors [`crate::Interp`]'s).
    rand_state: u64,
}

impl<'m> Vm<'m> {
    /// Creates a VM for one request over `unit`.
    pub fn new(machine: &'m mut PhpMachine, unit: Arc<CompiledUnit>) -> Self {
        Vm {
            machine,
            slots: vec![Slot::Unset; unit.main_slots.len()],
            frame: Frame {
                base: 0,
                func: None,
                spill: None,
            },
            unit,
            stack: Vec::new(),
            iters: Vec::new(),
            guards: Vec::new(),
            rebound_funcs: None,
            output: Vec::new(),
            regex_cache: HashMap::new(),
            depth: 0,
            tally: OpcodeTally::default(),
            memo: None,
            memo_pending: Vec::new(),
            rand_state: builtins::RAND_SEED,
        }
    }

    /// Attaches the shared cross-request memo tier. Without one every
    /// `MemoEnter`/`MemoStore` is a no-op and the unit runs exactly as
    /// compiled.
    pub fn set_memo(&mut self, handle: MemoHandle) {
        self.memo = Some(handle);
    }

    /// The machine.
    pub fn machine(&mut self) -> &mut PhpMachine {
        self.machine
    }

    /// Everything `echo`ed so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Takes the output buffer.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.output)
    }

    /// The opcode execution counters accumulated so far.
    pub fn tally(&self) -> &OpcodeTally {
        &self.tally
    }

    /// Also counts statically adjacent opcode pairs from here on.
    pub fn count_pairs(&mut self) {
        self.tally = OpcodeTally::with_pairs();
    }

    /// How many runtime regex compiles this VM performed (one per pattern
    /// its cache holds; analysis-precompiled patterns never count).
    pub fn regex_compile_count(&self) -> u64 {
        self.regex_cache.len() as u64
    }

    /// Runs the unit's main body.
    ///
    /// A unit compiled with facts first applies their static
    /// pre-configuration: heap free-list pre-seeding, sieve preloading, and
    /// the taint/arena savings bookkeeping happen before the first opcode.
    /// The per-opcode execution counters are flushed into the profiler
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on evaluation failure, exactly as the
    /// tree-walker would for the same program.
    pub fn run(&mut self) -> Result<(), RuntimeError> {
        let unit = Arc::clone(&self.unit);
        if unit.specialized {
            self.machine
                .apply_prebuilt(&unit.alloc_size_hints, unit.has_precompiled_regex);
            self.machine
                .ctx()
                .profiler()
                .note_taint_lints(unit.taint_lints);
            self.machine
                .ctx()
                .profiler()
                .note_arena_safe_sites(unit.arena_safe_sites);
        }
        let result = self.run_chunk(&unit.main).map(|_| ());
        // Main never unwinds its stacks on error; clear them so a reused VM
        // (not a pattern today, but cheap insurance) starts clean.
        self.stack.clear();
        self.iters.clear();
        self.guards.clear();
        self.memo_pending.clear();
        self.machine.ctx().profiler().note_vm_execution(
            self.tally.total,
            self.tally.fused,
            self.tally.transients_elided,
        );
        result
    }

    fn fuel_step(&mut self) -> Result<(), RuntimeError> {
        if self.machine.ctx().consume_fuel(1) {
            Ok(())
        } else {
            Err(RuntimeError::timeout("maximum execution budget exceeded"))
        }
    }

    /// The absolute index of a frame slot, following a `global` binding.
    fn resolve(&self, slot: u32) -> usize {
        let at = self.frame.base + slot as usize;
        match self.slots[at] {
            Slot::Global(main) => main as usize,
            _ => at,
        }
    }

    /// The value in a frame slot (absolute index), uncharged; `None` when
    /// never written.
    fn var_at(&self, at: usize) -> Option<&PhpValue> {
        match &self.slots[at] {
            Slot::Value(v) => Some(v),
            _ => None,
        }
    }

    /// A variable read in place: the symbol-table GET's type check and
    /// refcount increment, without the hash probe. An unset variable reads
    /// as `null` and, like a symbol-table miss, charges nothing.
    fn load_at(&self, at: usize, elide_rc: bool) -> &PhpValue {
        let Some(v) = self.var_at(at) else {
            return &PhpValue::Null;
        };
        let ctx = self.machine.ctx();
        ctx.type_check(v);
        ctx.refcount_on_copy_elidable(v, elide_rc);
        v
    }

    fn load(&self, slot: u32, elide_rc: bool) -> &PhpValue {
        self.load_at(self.resolve(slot), elide_rc)
    }

    /// An operand's value, as the `PushStr`/`PushInt`/`LoadSlot` it replaces
    /// would have pushed it; a `Stack` operand is popped.
    fn operand(&mut self, o: Operand) -> PhpValue {
        match o {
            Operand::Stack => self.pop(),
            Operand::Slot { slot, elide_rc } => self.load(slot, elide_rc).clone(),
            Operand::Const(c) => PhpValue::str(self.unit.consts[c as usize].clone()),
            Operand::Int(i) => PhpValue::Int(i),
        }
    }

    /// The values of an op's operands in order; its `Stack` operands are the
    /// top of the stack, in order.
    fn operands(&mut self, ops: &[Operand]) -> Vec<PhpValue> {
        let base = self.stack.len() - stacked(ops);
        let mut at = base;
        let values = ops
            .iter()
            .map(|o| match o {
                Operand::Stack => {
                    at += 1;
                    std::mem::take(&mut self.stack[at - 1])
                }
                o => self.operand(*o),
            })
            .collect();
        self.stack.truncate(base);
        values
    }

    /// A `ConcatN`'s bytes, built in one buffer sized up front. Each leaf is
    /// read where it lives (the stack from `at`, the frame, the const pool)
    /// and charged as its producer and the op's own check would charge it.
    fn concat(&self, parts: &[Operand], skip_mask: u64, at: usize) -> PhpStr {
        let leaves = || {
            let mut stacked = self.stack[at..].iter();
            parts.iter().map(move |p| match *p {
                Operand::Const(c) => Err(self.unit.consts[c as usize].as_bytes()),
                Operand::Slot { slot, .. } => {
                    Ok(self.var_at(self.resolve(slot)).unwrap_or(&PhpValue::Null))
                }
                _ => Ok(stacked.next().expect("one stacked value per Stack leaf")),
            })
        };
        let ctx = self.machine.ctx();
        let mut size = 0;
        for ((i, part), leaf) in parts.iter().enumerate().zip(leaves()) {
            if let Operand::Slot { slot, elide_rc } = *part {
                self.load(slot, elide_rc);
            }
            // The check's cost does not depend on the value checked.
            ctx.type_check_elidable(leaf.unwrap_or(&PhpValue::Null), skip_mask & (1 << i) != 0);
            size += match leaf {
                Err(bytes) => bytes.len(),
                Ok(PhpValue::Str(s)) => s.len(),
                Ok(_) => 20, // room for a number
            };
        }
        let mut s = PhpStr::with_capacity(size);
        for leaf in leaves() {
            match leaf {
                Ok(v) => v.append_php_string(s.as_bytes_mut()),
                Err(bytes) => s.push_bytes(bytes),
            }
        }
        s
    }

    /// A variable write: the symbol-table SET's refcount pair, without the
    /// hash probe.
    fn store_at(&mut self, at: usize, value: PhpValue, elide_rc: bool) {
        let ctx = self.machine.ctx();
        ctx.refcount_on_copy_elidable(&value, elide_rc);
        if let Slot::Value(old) = std::mem::replace(&mut self.slots[at], Slot::Value(value)) {
            ctx.refcount_on_drop_elidable(&old, elide_rc);
        }
        self.memo_invalidate(at);
    }

    fn store(&mut self, slot: u32, value: PhpValue, elide_rc: bool) {
        self.store_at(self.resolve(slot), value, elide_rc);
    }

    /// The variable at `at` was (re)written: if it is a global some memo
    /// site depends on, purge the entries whose fingerprint names it.
    /// Freshness/capacity only — soundness comes from dep *values* being
    /// part of every key.
    fn memo_invalidate(&self, at: usize) {
        if self.unit.memo_dep.get(at) != Some(&true) {
            return;
        }
        if let Some(handle) = &self.memo {
            let n = handle.invalidate(self.unit.main_slots.name(at));
            if n > 0 {
                self.machine.ctx().profiler().note_memo_invalidations(n);
            }
        }
    }

    /// Sets a variable of the running body by name, as workload drivers bind
    /// request variables and `extract` binds keys (mirroring
    /// [`crate::Interp::set_var_public`]): its slot when the body mentions
    /// the name, the frame's spill table otherwise.
    pub fn set_var_public(&mut self, name: &str, value: PhpValue) {
        let map = match self.frame.func {
            Some(f) => &self.unit.funcs[f as usize].slots,
            None => &self.unit.main_slots,
        };
        if let Some(slot) = map.get(name) {
            return self.store(slot, value, false);
        }
        let mut table = match self.frame.spill.take() {
            Some(table) => table,
            None => self.machine.new_array(),
        };
        self.machine
            .array_set(&mut table, ArrayKey::from(name), value);
        self.frame.spill = Some(table);
    }

    fn pop(&mut self) -> PhpValue {
        self.stack
            .pop()
            .expect("compiler-verified stack discipline")
    }

    fn pop_args(&mut self, argc: u32) -> Vec<PhpValue> {
        let at = self.stack.len() - argc as usize;
        self.stack.split_off(at)
    }

    fn access(elide_rc: bool) -> AccessStatic {
        AccessStatic {
            elide_rc,
            skip_type_check: false,
        }
    }

    fn call_builtin(
        &mut self,
        name: &str,
        args: Vec<PhpValue>,
        regex: Option<u32>,
    ) -> Result<PhpValue, RuntimeError> {
        struct VmHost<'a, 'm> {
            vm: &'a mut Vm<'m>,
            regex: Option<u32>,
        }
        impl builtins::Host for VmHost<'_, '_> {
            fn machine(&mut self) -> &mut PhpMachine {
                self.vm.machine
            }
            fn set_var(&mut self, name: &str, value: PhpValue) {
                self.vm.set_var_public(name, value);
            }
            fn next_rand(&mut self) -> i64 {
                builtins::rand_step(&mut self.vm.rand_state)
            }
            fn regex(&mut self, pattern: &str) -> Result<Arc<Regex>, RuntimeError> {
                if let Some(i) = self.regex {
                    let re = Arc::clone(&self.vm.unit.regexes[i as usize]);
                    self.vm
                        .machine
                        .ctx()
                        .profiler()
                        .note_regex_compile_avoided();
                    return Ok(re);
                }
                cached_regex(&mut self.vm.regex_cache, pattern)
            }
        }
        builtins::dispatch(&mut VmHost { vm: self, regex }, name, args)
    }

    /// Calls a user function with the top `argc` stack values as arguments.
    fn invoke(&mut self, func: u32, argc: u32) -> Result<PhpValue, RuntimeError> {
        if self.depth >= MAX_DEPTH {
            return Err(RuntimeError::new("maximum call depth exceeded"));
        }
        self.depth += 1;
        let unit = Arc::clone(&self.unit);
        let f = &unit.funcs[func as usize];
        // The new frame goes on the end of the slot vector. Arguments move
        // off the value stack into the parameter slots (surplus ones are
        // dropped, missing ones are `null`); every other slot starts unset.
        let base = self.slots.len();
        let n_params = f.n_params as usize;
        let args_at = self.stack.len() - argc as usize;
        for v in self.stack.drain(args_at..).take(n_params) {
            self.machine.ctx().refcount_on_copy(&v);
            self.slots.push(Slot::Value(v));
        }
        self.slots
            .resize(base + n_params, Slot::Value(PhpValue::Null));
        self.slots.resize(base + f.slots.len(), Slot::Unset);
        let frame = Frame {
            base,
            func: Some(func),
            spill: None,
        };
        let caller = std::mem::replace(&mut self.frame, frame);
        let stack_mark = self.stack.len();
        let iter_mark = self.iters.len();
        let guard_mark = self.guards.len();
        let memo_mark = self.memo_pending.len();
        let result = self.run_chunk(&f.code);
        // A mid-body `Return` or error leaves partial frames behind; drop
        // everything this call pushed.
        self.stack.truncate(stack_mark);
        self.iters.truncate(iter_mark);
        self.guards.truncate(guard_mark);
        self.memo_pending.truncate(memo_mark);
        self.slots.truncate(base);
        let frame = std::mem::replace(&mut self.frame, caller);
        if let Some(spill) = frame.spill {
            self.machine.array_free(&spill);
        }
        self.depth -= 1;
        match result? {
            ChunkExit::Returned(v) => Ok(v),
            ChunkExit::Finished => Ok(PhpValue::Null),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_chunk(&mut self, code: &[Op]) -> Result<ChunkExit, RuntimeError> {
        let unit = Arc::clone(&self.unit);
        let mut pc = 0usize;
        let mut prev_pc = usize::MAX;
        while pc < code.len() {
            self.fuel_step()?;
            self.machine.ctx().charge_jit(VM_OP_UOPS);
            let op = &code[pc];
            let adjacent =
                (self.tally.pairs.is_some() && prev_pc != usize::MAX && pc == prev_pc + 1)
                    .then(|| code[prev_pc].kind());
            self.tally.note(op.kind(), adjacent);
            prev_pc = pc;
            pc += 1;
            match op {
                Op::PushNull => self.stack.push(PhpValue::Null),
                Op::PushBool(b) => self.stack.push(PhpValue::Bool(*b)),
                Op::PushInt(i) => self.stack.push(PhpValue::Int(*i)),
                Op::PushFloat(f) => self.stack.push(PhpValue::Float(*f)),
                Op::PushStr(i) => self
                    .stack
                    .push(PhpValue::str(unit.consts[*i as usize].clone())),
                Op::Pop => {
                    self.pop();
                }
                Op::LoadSlot { slot, elide_rc } => {
                    let v = self.load(*slot, *elide_rc).clone();
                    self.stack.push(v);
                }
                Op::StoreSlot { slot, elide_rc } => {
                    let v = self.pop();
                    self.store(*slot, v, *elide_rc);
                }
                Op::IndexGet {
                    base,
                    key,
                    elide_rc,
                    hint,
                } => {
                    let key = self.operand(*key);
                    let base = self.operand(*base);
                    let v = index_read(self.machine, base, &key, Self::access(*elide_rc), *hint)?;
                    self.stack.push(v);
                }
                Op::LoadIndexBase { slot, arena } => {
                    let at = self.resolve(*slot);
                    let v = match self.load_at(at, false).clone() {
                        base @ PhpValue::Array(_) => {
                            // Only store paths flow through LoadIndexBase:
                            // an element of the variable is about to be
                            // written without passing through `store_at`.
                            self.memo_invalidate(at);
                            base
                        }
                        PhpValue::Null => {
                            let a = self.machine.new_array_static(*arena);
                            let v2 = PhpValue::array(a);
                            self.store_at(at, v2.clone(), false);
                            v2
                        }
                        other => {
                            return Err(RuntimeError::new(format!(
                                "cannot index into {}",
                                other.type_name()
                            )))
                        }
                    };
                    self.stack.push(v);
                }
                Op::StoreIndexKeyed {
                    value,
                    key,
                    elide_rc,
                    hint,
                } => {
                    let key = self.operand(*key);
                    let PhpValue::Array(rc) = self.pop() else {
                        unreachable!("LoadIndexBase always pushes an array");
                    };
                    let value = self.operand(*value);
                    let (k, st) = (key_of(&key), Self::access(*elide_rc));
                    self.machine
                        .array_set_static(&mut rc.borrow_mut(), k, value, st, *hint);
                }
                Op::StoreAppend {
                    elide_rc,
                    int_append,
                } => {
                    let base = self.pop();
                    let value = self.pop();
                    let PhpValue::Array(rc) = base else {
                        unreachable!("LoadIndexBase always pushes an array");
                    };
                    let st = Self::access(*elide_rc);
                    self.machine
                        .array_push_static(&mut rc.borrow_mut(), value, st, *int_append);
                }
                Op::NewArray { arena } => {
                    let a = self.machine.new_array_static(*arena);
                    self.stack.push(PhpValue::array(a));
                }
                Op::ArrayInsert => {
                    let key = self.pop();
                    let value = self.pop();
                    let PhpValue::Array(rc) = self.stack.last().expect("array under insert") else {
                        unreachable!("NewArray pushed an array");
                    };
                    let rc = rc.clone();
                    let k = key_of(&key);
                    self.machine.array_set(&mut rc.borrow_mut(), k, value);
                }
                Op::ArrayAppend => {
                    let value = self.pop();
                    let PhpValue::Array(rc) = self.stack.last().expect("array under append") else {
                        unreachable!("NewArray pushed an array");
                    };
                    let rc = rc.clone();
                    self.machine.array_push(&mut rc.borrow_mut(), value);
                }
                Op::Bin {
                    op,
                    lhs,
                    rhs,
                    skip_lhs,
                    skip_rhs,
                    arena,
                } => {
                    let r = self.operand(*rhs);
                    let l = self.operand(*lhs);
                    self.machine.ctx().type_check_elidable(&l, *skip_lhs);
                    self.machine.ctx().type_check_elidable(&r, *skip_rhs);
                    let v = binop_eval(self.machine, &mut self.output, *op, l, r, *arena)?;
                    self.stack.push(v);
                }
                Op::ConcatN {
                    parts,
                    skip_mask,
                    arena,
                } => {
                    let at = self.stack.len() - stacked(parts);
                    let s = self.concat(parts, *skip_mask, at);
                    self.stack.truncate(at);
                    // One transient for the whole chain: the n-2 intermediate
                    // allocations the nested lowering performs are elided.
                    self.tally.transients_elided += parts.len() as u64 - 2;
                    let v = self.machine.transient_str_static(s, *arena);
                    self.stack.push(v);
                }
                Op::Not => {
                    let v = self.pop();
                    self.stack.push(PhpValue::Bool(!v.to_bool()));
                }
                Op::Neg => {
                    let v = self.pop();
                    self.stack.push(match v {
                        PhpValue::Float(f) => PhpValue::Float(-f),
                        other => PhpValue::Int(-other.to_int()),
                    });
                }
                Op::ToBool => {
                    let v = self.pop();
                    self.stack.push(PhpValue::Bool(v.to_bool()));
                }
                Op::Jump(t) => pc = *t as usize,
                Op::JumpIfFalsePop(t) => {
                    let v = self.pop();
                    if !v.to_bool() {
                        pc = *t as usize;
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    if self.stack.last().expect("peek").to_bool() {
                        pc = *t as usize;
                    }
                }
                Op::JumpIfFalsePeek(t) => {
                    if !self.stack.last().expect("peek").to_bool() {
                        pc = *t as usize;
                    }
                }
                Op::PushGuard => self.guards.push(0),
                Op::GuardTick { msg } => {
                    let g = self.guards.last_mut().expect("guard pushed");
                    *g += 1;
                    if *g > 1_000_000 {
                        return Err(RuntimeError::new(unit.msgs[*msg as usize].clone()));
                    }
                }
                Op::PopGuard => {
                    self.guards.pop();
                }
                Op::IterInit => {
                    let v = self.pop();
                    let PhpValue::Array(rc) = v else {
                        return Err(RuntimeError::new("foreach over non-array"));
                    };
                    let pairs = {
                        let borrowed = rc.borrow();
                        self.machine.foreach(&borrowed)
                    };
                    self.iters.push((pairs, 0));
                }
                Op::IterNext {
                    value,
                    key,
                    elide_rc,
                    end,
                } => {
                    let (pairs, pos) = self.iters.last_mut().expect("iter pushed");
                    if *pos >= pairs.len() {
                        pc = *end as usize;
                    } else {
                        let (k, v) = pairs[*pos].clone();
                        *pos += 1;
                        if let Some(key_slot) = key {
                            self.store(*key_slot, PhpValue::from(k), *elide_rc);
                        }
                        self.store(*value, v, *elide_rc);
                    }
                }
                Op::IterPop => {
                    self.iters.pop();
                }
                Op::DefineFunc { func } => {
                    let name = unit.funcs[*func as usize].name.clone();
                    self.rebound_funcs
                        .get_or_insert_with(|| unit.func_index.clone())
                        .insert(name, *func);
                }
                Op::CallUser {
                    func,
                    argc,
                    summarized,
                } => {
                    if *summarized {
                        self.machine.ctx().profiler().note_summary_applied();
                    }
                    let v = self.invoke(*func, *argc)?;
                    self.stack.push(v);
                }
                Op::MemoEnter { site, skip } => {
                    if let Some(handle) = self.memo.clone() {
                        let info = &unit.memo_sites[*site as usize];
                        let argc = info.argc as usize;
                        let key = {
                            let args = &self.stack[self.stack.len() - argc..];
                            handle.build_key(&info.func, args, &info.deps, |dep| {
                                read_dep(&self.slots, &unit.main_slots, dep)
                            })
                        };
                        match key {
                            Some(k) => {
                                if let Some(hit) = handle.tier.lookup(&k) {
                                    self.machine.ctx().profiler().note_memo_hit();
                                    let at = self.stack.len() - argc;
                                    self.stack.truncate(at);
                                    self.output.extend_from_slice(&hit.output);
                                    let v = hit.value.to_php(self.machine);
                                    self.stack.push(v);
                                    pc = *skip as usize;
                                } else {
                                    self.machine.ctx().profiler().note_memo_miss();
                                    // Handle clones only: the snapshot lets
                                    // the store rebuild the key after the
                                    // call and refuse mutation-unstable
                                    // executions.
                                    let args = self.stack[self.stack.len() - argc..].to_vec();
                                    self.memo_pending.push(Some(PendingMemo {
                                        site: *site,
                                        key: k,
                                        args,
                                        out_mark: self.output.len(),
                                    }));
                                }
                            }
                            // Unkeyable (too-deep value): run the call
                            // normally; the store below sees `None` and
                            // skips.
                            None => self.memo_pending.push(None),
                        }
                    }
                }
                Op::MemoStore { site } => {
                    if let Some(handle) = self.memo.clone() {
                        if let Some(Some(p)) = self.memo_pending.pop() {
                            debug_assert_eq!(p.site, *site, "memo enter/store pairing");
                            let info = &unit.memo_sites[*site as usize];
                            // Rebuild the key from the argument snapshot and
                            // fresh dep reads: if the callee mutated an
                            // argument or a dep through an alias the keys
                            // differ and the entry is not stored — replaying
                            // it later could skip that mutation.
                            let stable = handle
                                .build_key(&info.func, &p.args, &info.deps, |dep| {
                                    read_dep(&self.slots, &unit.main_slots, dep)
                                })
                                .is_some_and(|k| k == p.key);
                            if stable {
                                let ret =
                                    self.stack.last().expect("CallUser pushed a return value");
                                if let Some(value) = MemoValue::from_php(ret) {
                                    let deps =
                                        info.deps.iter().map(|d| handle.dep_key(d)).collect();
                                    let output = self.output[p.out_mark..].to_vec();
                                    handle.tier.store(p.key, deps, MemoHit { value, output });
                                    self.machine.ctx().profiler().note_memo_store();
                                }
                            }
                        }
                    }
                }
                Op::CallBuiltin { name, args, regex } => {
                    let args = self.operands(args);
                    let v = self.call_builtin(&unit.names[*name as usize], args, *regex)?;
                    self.stack.push(v);
                }
                Op::CallDynamic {
                    name,
                    argc,
                    regex,
                    summarized,
                } => {
                    let name = &unit.names[*name as usize];
                    let funcs = self.rebound_funcs.as_ref().unwrap_or(&unit.func_index);
                    let v = match funcs.get(name).copied() {
                        Some(func) => {
                            // Summaries only apply when the call resolves to
                            // a user function, as in the tree-walker.
                            if *summarized {
                                self.machine.ctx().profiler().note_summary_applied();
                            }
                            self.invoke(func, *argc)?
                        }
                        None => {
                            let args = self.pop_args(*argc);
                            self.call_builtin(name, args, *regex)?
                        }
                    };
                    self.stack.push(v);
                }
                Op::Return => {
                    let v = self.pop();
                    return Ok(ChunkExit::Returned(v));
                }
                Op::Echo { arena } => {
                    let v = self.pop();
                    let s = v.to_php_string();
                    // echo materializes output bytes: allocator churn
                    // (identical to the tree-walker's charging).
                    let tv = self.machine.transient_str_static(s.clone(), *arena);
                    let _ = tv;
                    self.output.extend_from_slice(s.as_bytes());
                }
                Op::EchoValue {
                    value: Operand::Const(c),
                    ..
                } => {
                    self.output
                        .extend_from_slice(unit.consts[*c as usize].as_bytes());
                    self.tally.transients_elided += 1;
                }
                Op::EchoValue { value, arena } => {
                    let v = self.operand(*value);
                    self.echo_fast(v, *arena);
                }
                Op::Global { slot, main } => {
                    // Whatever the frame held under that name is dropped, as
                    // the tree-walker's shadowed local becomes unreachable.
                    let at = self.frame.base + *slot as usize;
                    if at != *main as usize {
                        self.slots[at] = Slot::Global(*main);
                    }
                }
                Op::Fail { msg } => {
                    return Err(RuntimeError::new(unit.msgs[*msg as usize].clone()));
                }
            }
        }
        Ok(ChunkExit::Finished)
    }

    /// Fused echo: strings go straight to the output buffer (the transient
    /// copy the generic path materializes is elided); everything else still
    /// converts through a transient, whose bytes are then appended.
    fn echo_fast(&mut self, v: PhpValue, arena: bool) {
        if let PhpValue::Str(s) = &v {
            self.output.extend_from_slice(s.as_bytes());
            self.tally.transients_elided += 1;
        } else {
            let tv = self.machine.transient_str_static(v.to_php_string(), arena);
            tv.append_php_string(&mut self.output);
        }
    }
}

/// Compiles and runs `src` on `machine` with default options — the VM
/// counterpart of [`crate::Interp::run`], for tests and small drivers.
///
/// # Errors
///
/// Returns [`RuntimeError`] on parse or evaluation failure.
pub fn run_src(machine: &mut PhpMachine, src: &str) -> Result<Vec<u8>, RuntimeError> {
    let prog = crate::parse(src)?;
    let unit = Arc::new(crate::compile::compile(
        &prog,
        &[],
        None,
        crate::compile::CompileOptions::default(),
    ));
    let mut vm = Vm::new(machine, unit);
    let r = vm.run();
    let out = vm.take_output();
    r.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::parse;

    /// Runs `src` on both engines (VM fused and unfused) and asserts all
    /// three outputs (or errors) agree byte-for-byte.
    fn both(src: &str) -> Result<String, RuntimeError> {
        let mut m = PhpMachine::specialized();
        let tree = {
            let mut i = crate::Interp::new(&mut m);
            let r = i.run(src);
            r.map(|()| String::from_utf8_lossy(i.output()).into_owned())
        };
        for fuse in [false, true] {
            let prog = parse(src).unwrap();
            let unit = Arc::new(compile(&prog, &[], None, CompileOptions { fuse }));
            let mut m2 = PhpMachine::specialized();
            let mut vm = Vm::new(&mut m2, unit);
            let r = vm.run();
            let vm_out = r.map(|()| String::from_utf8_lossy(vm.output()).into_owned());
            match (&tree, &vm_out) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "fuse={fuse} src={src}"),
                (Err(a), Err(b)) => {
                    assert_eq!(a.message, b.message, "fuse={fuse} src={src}")
                }
                (a, b) => panic!("engines disagree (fuse={fuse}): tree={a:?} vm={b:?}"),
            }
        }
        tree
    }

    #[test]
    fn arithmetic_and_echo() {
        assert_eq!(both("$x = 2 + 3 * 4; echo $x;").unwrap(), "14");
        assert_eq!(both("echo 7, ' ', -7, ' ', 0;").unwrap(), "7 -7 0");
    }

    #[test]
    fn string_concat() {
        assert_eq!(
            both("$name = 'World'; echo 'Hello, ' . $name . '!';").unwrap(),
            "Hello, World!"
        );
    }

    #[test]
    fn arrays_and_foreach_order() {
        assert_eq!(
            both(
                "$a = array('b' => 2, 'a' => 1); $a['c'] = 3; \
                 foreach ($a as $k => $v) { echo $k, '=', $v, ';'; }"
            )
            .unwrap(),
            "b=2;a=1;c=3;"
        );
    }

    #[test]
    fn append_and_autovivify() {
        assert_eq!(
            both(
                "$a = []; $a[] = 'x'; $a[] = 'y'; echo count($a), $a[1]; \
                  $b['k'] = 5; echo $b['k'];"
            )
            .unwrap(),
            "2y5"
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            both(
                "function fib($n) { if ($n < 2) { return $n; } \
                 return fib($n - 1) + fib($n - 2); } echo fib(10);"
            )
            .unwrap(),
            "55"
        );
    }

    #[test]
    fn loops_break_continue() {
        assert_eq!(
            both(
                "$s = ''; for ($i = 0; $i < 10; $i++) { \
                 if ($i == 2) { continue; } if ($i == 5) { break; } $s .= $i; } \
                 $n = 3; while ($n > 0) { $s .= 'w'; $n--; } echo $s;"
            )
            .unwrap(),
            "0134www"
        );
    }

    #[test]
    fn globals() {
        assert_eq!(
            both(
                "$config = 'prod'; function env() { global $config; return $config; } \
                 echo env();"
            )
            .unwrap(),
            "prod"
        );
    }

    #[test]
    fn division_by_zero_warns_inline() {
        assert_eq!(
            both("echo 'a'; $x = 1 / 0; echo 'b', $x ? 't' : 'f';").unwrap(),
            "aWarning: Division by zero\nbf"
        );
    }

    #[test]
    fn ternary_and_elvis_short_circuit() {
        assert_eq!(both("echo true ? 'safe' : 1 / 0;").unwrap(), "safe");
        assert_eq!(both("$x = ''; echo $x ?: 'default';").unwrap(), "default");
        assert_eq!(both("$x = 'set'; echo $x ?: 'default';").unwrap(), "set");
    }

    #[test]
    fn and_or_return_bools_and_short_circuit() {
        assert_eq!(
            both(
                "echo (false && 1 / 0) ? 'y' : 'n'; echo (true || 1 / 0) ? 'y' : 'n'; \
                  $v = 3 && 2; echo is_bool($v) ? 'B' : '?';"
            )
            .unwrap(),
            "nyB"
        );
    }

    #[test]
    fn builtins_and_preg() {
        assert_eq!(
            both(
                "echo strtoupper('abc'), '|', substr('abcdef', 1, 3), '|'; \
                 if (preg_match('/[0-9]+/', 'order 42')) { echo 'yes'; } \
                 echo preg_replace('/o/', '0', 'foo');"
            )
            .unwrap(),
            "ABC|bcd|yesf00"
        );
    }

    #[test]
    fn extract_sets_vars() {
        assert_eq!(
            both("$d = array('t' => 'Hi', 'n' => 7); extract($d); echo $t, $n;").unwrap(),
            "Hi7"
        );
    }

    #[test]
    fn nested_function_redefinition() {
        assert_eq!(
            both(
                "function f() { return 1; } echo f(); \
                 if (true) { function f() { return 2; } } echo f();"
            )
            .unwrap(),
            "12"
        );
    }

    #[test]
    fn errors_match_tree_walker() {
        for src in [
            "mystery();",
            "function f($n) { return f($n + 1); } f(0);",
            "foreach (42 as $v) { echo $v; }",
            "$x = 'str'; $x['k'] = 1;",
            "$n = 5; echo $n['k'];",
            "break;",
        ] {
            assert!(both(src).is_err(), "{src}");
        }
    }

    #[test]
    fn parameters_sharing_a_name_read_the_last_one() {
        assert_eq!(
            both("function f($a, $a) { return $a; } echo f(1, 2);").unwrap(),
            "2"
        );
    }

    #[test]
    fn call_depth_error_unwinds_every_frame() {
        let prog = parse("$m = 1; function f($n) { $l = $n; return f($n + 1); } f(0);").unwrap();
        let unit = Arc::new(compile(&prog, &[], None, CompileOptions::default()));
        let mut m = PhpMachine::specialized();
        let mut vm = Vm::new(&mut m, unit);
        assert_eq!(vm.run().unwrap_err().message, "maximum call depth exceeded");
        // Back to main's one-slot frame.
        assert_eq!((vm.slots.len(), vm.frame.base, vm.depth), (1, 0, 0));
        assert!(vm.frame.func.is_none() && vm.frame.spill.is_none());
    }

    #[test]
    fn main_level_return_stops_execution() {
        assert_eq!(both("echo 'a'; return; echo 'b';").unwrap(), "a");
    }

    #[test]
    fn string_byte_indexing() {
        assert_eq!(both("$s = 'abc'; echo $s[1], $s[9];").unwrap(), "b");
    }

    #[test]
    fn fuel_exhaustion_yields_timeout() {
        let mut m = PhpMachine::baseline();
        m.ctx().set_fuel(Some(50));
        let err = run_src(&mut m, "$s = 0; while (true) { $s = $s + 1; }")
            .expect_err("must run out of fuel");
        assert!(err.is_timeout(), "{err}");
    }

    #[test]
    fn vm_charges_fewer_jit_uops_than_tree() {
        let src = "$s = ''; for ($i = 0; $i < 50; $i++) { $s = $s . 'x' . $i; } echo $s;";
        let jit = |m: &PhpMachine| {
            m.ctx()
                .profiler()
                .category_breakdown()
                .get(&php_runtime::Category::JitCode)
                .copied()
                .unwrap_or(0)
        };
        let mut mt = PhpMachine::specialized();
        let mut i = crate::Interp::new(&mut mt);
        i.run(src).unwrap();
        let tree_jit = jit(&mt);
        let mut mv = PhpMachine::specialized();
        run_src(&mut mv, src).unwrap();
        let vm_jit = jit(&mv);
        assert!(
            vm_jit * 2 < tree_jit,
            "vm jit {vm_jit} not well under tree jit {tree_jit}"
        );
    }

    #[test]
    fn tally_counts_ops_and_pairs() {
        let prog = parse("echo 'a'; echo 'b'; $x = 1 + 2; echo $x;").unwrap();
        let unit = Arc::new(compile(&prog, &[], None, CompileOptions { fuse: true }));
        for pairs in [false, true] {
            let mut m = PhpMachine::specialized();
            let mut vm = Vm::new(&mut m, Arc::clone(&unit));
            if pairs {
                vm.count_pairs();
            }
            vm.run().unwrap();
            let t = vm.tally();
            assert_eq!(t.count(OpKind::EchoValue), 3);
            assert_eq!((t.total, t.fused), (5, 3));
            assert_eq!(t.top_ops().len(), 3);
            assert_eq!(t.top_pairs().len(), if pairs { 4 } else { 0 });
        }
    }
}
