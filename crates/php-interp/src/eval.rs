//! Tree-walking evaluator over [`PhpMachine`].
//!
//! Variables live in *symbol tables* backed by [`PhpArray`] — exactly the
//! structure §4.2 describes ("A symbol table is implemented using a hash
//! map"), so interpreting a script generates genuine hash-map traffic with
//! dynamic key names, plus allocator churn for every string produced.
//! Interpreter dispatch overhead is charged to the `jit_compiled_code`
//! bucket, standing in for HHVM's translated code.

use crate::ast::*;
use crate::builtins;
use crate::facts::{AnalysisFacts, KeyShape};
use crate::memo::{MemoHandle, MemoHit, MemoValue};
use crate::parser::{parse, ParseError};
use php_runtime::array::{ArrayKey, PhpArray};
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use php_runtime::AccessStatic;
use phpaccel_core::{KeyShapeHint, PhpMachine};
use regex_engine::Regex;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// What class of failure a [`RuntimeError`] represents. The serving layer's
/// sandbox maps each kind to a different request outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Ordinary evaluation failure (PHP fatal error).
    Fatal,
    /// The request's execution budget — step fuel or µop deadline — ran out.
    Timeout,
}

/// Runtime error.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// Message.
    pub message: String,
    /// Failure class.
    pub kind: ErrorKind,
}

impl RuntimeError {
    /// Creates an ordinary (fatal) error.
    pub fn new(message: impl Into<String>) -> Self {
        RuntimeError {
            message: message.into(),
            kind: ErrorKind::Fatal,
        }
    }

    /// Creates a budget-exhaustion error.
    pub fn timeout(message: impl Into<String>) -> Self {
        RuntimeError {
            message: message.into(),
            kind: ErrorKind::Timeout,
        }
    }

    /// Whether this error is a budget exhaustion rather than a PHP fatal.
    pub fn is_timeout(&self) -> bool {
        self.kind == ErrorKind::Timeout
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "php runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

impl From<ParseError> for RuntimeError {
    fn from(e: ParseError) -> Self {
        RuntimeError::new(e.to_string())
    }
}

/// Control flow result of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(PhpValue),
}

struct Scope {
    table: PhpArray,
    globals: HashSet<String>,
}

/// The interpreter.
pub struct Interp<'m> {
    machine: &'m mut PhpMachine,
    funcs: HashMap<String, Arc<FuncDef>>,
    scopes: Vec<Scope>,
    output: Vec<u8>,
    regex_cache: HashMap<String, Arc<Regex>>,
    /// Runtime regex compiles performed (regex-cache misses).
    regex_compiles: u64,
    /// Recursion guard.
    depth: usize,
    /// Static-analysis facts for the program being run (see
    /// [`crate::facts`]). `None` = fully dynamic execution.
    facts: Option<Arc<AnalysisFacts>>,
    /// Shared cross-request memo tier (see [`crate::memo`]). `None` = no
    /// memoization; proven-memoizable sites just execute.
    memo: Option<MemoHandle>,
    /// Engine-local `rand` stream state (see [`builtins::RAND_SEED`]).
    rand_state: u64,
}

pub(crate) fn hint_of(shape: KeyShape) -> KeyShapeHint {
    match shape {
        KeyShape::ConstStr => KeyShapeHint::ConstStr,
        KeyShape::IntAppend => KeyShapeHint::IntAppend,
        KeyShape::Unknown => KeyShapeHint::Unknown,
    }
}

/// µops charged to the JIT bucket per interpreted AST node.
const NODE_UOPS: u64 = 3;
/// Maximum call depth (shared with the compiled VM so recursion behaves
/// identically on both engines).
pub(crate) const MAX_DEPTH: usize = 64;

/// The PHP array key a value coerces to (shared by both engines).
pub(crate) fn key_of(v: &PhpValue) -> ArrayKey {
    match v {
        PhpValue::Int(i) => ArrayKey::Int(*i),
        PhpValue::Bool(b) => ArrayKey::Int(*b as i64),
        other => ArrayKey::Str(other.to_php_string()),
    }
}

/// Emits a PHP `E_WARNING`-style diagnostic into an output stream.
pub(crate) fn warn_into(out: &mut Vec<u8>, msg: &str) {
    out.extend_from_slice(b"Warning: ");
    out.extend_from_slice(msg.as_bytes());
    out.push(b'\n');
}

/// Evaluates a non-short-circuit binary operation on already-evaluated
/// operands. One definition shared by the tree-walker and the compiled VM so
/// PHP's numeric promotion, division-by-zero warnings, and concat allocation
/// behavior cannot diverge between engines. Operand type checks are the
/// caller's job (they depend on per-engine fact plumbing).
pub(crate) fn binop_eval(
    machine: &mut PhpMachine,
    out: &mut Vec<u8>,
    op: BinOp,
    l: PhpValue,
    r: PhpValue,
    arena_safe: bool,
) -> Result<PhpValue, RuntimeError> {
    use BinOp::*;
    let numeric = |l: &PhpValue, r: &PhpValue| {
        matches!(l, PhpValue::Float(_)) || matches!(r, PhpValue::Float(_))
    };
    Ok(match op {
        Add => {
            if numeric(&l, &r) {
                PhpValue::Float(l.to_float() + r.to_float())
            } else {
                PhpValue::Int(l.to_int().wrapping_add(r.to_int()))
            }
        }
        Sub => {
            if numeric(&l, &r) {
                PhpValue::Float(l.to_float() - r.to_float())
            } else {
                PhpValue::Int(l.to_int().wrapping_sub(r.to_int()))
            }
        }
        Mul => {
            if numeric(&l, &r) {
                PhpValue::Float(l.to_float() * r.to_float())
            } else {
                PhpValue::Int(l.to_int().wrapping_mul(r.to_int()))
            }
        }
        Div => {
            let d = r.to_float();
            if d == 0.0 {
                // PHP 7 semantics: E_WARNING, expression yields false.
                warn_into(out, "Division by zero");
                return Ok(PhpValue::Bool(false));
            }
            let q = l.to_float() / d;
            if q.fract() == 0.0 && !numeric(&l, &r) {
                PhpValue::Int(q as i64)
            } else {
                PhpValue::Float(q)
            }
        }
        Mod => {
            let d = r.to_int();
            if d == 0 {
                // PHP 7 emits the same warning for `%` with a 0 divisor.
                warn_into(out, "Division by zero");
                return Ok(PhpValue::Bool(false));
            }
            // wrapping_rem: i64::MIN % -1 is 0 in PHP, a Rust overflow.
            PhpValue::Int(l.to_int().wrapping_rem(d))
        }
        Concat => {
            let mut s = l.to_php_string();
            s.push_bytes(r.to_php_string().as_bytes());
            // Concatenation allocates the result string.
            machine.transient_str_static(s, arena_safe)
        }
        Eq => PhpValue::Bool(l.loose_eq(&r)),
        Ne => PhpValue::Bool(!l.loose_eq(&r)),
        Lt => cmp_eval(machine, l, r, |o| o == std::cmp::Ordering::Less),
        Gt => cmp_eval(machine, l, r, |o| o == std::cmp::Ordering::Greater),
        Le => cmp_eval(machine, l, r, |o| o != std::cmp::Ordering::Greater),
        Ge => cmp_eval(machine, l, r, |o| o != std::cmp::Ordering::Less),
        And | Or => unreachable!("handled by short-circuit"),
    })
}

pub(crate) fn cmp_eval(
    machine: &mut PhpMachine,
    l: PhpValue,
    r: PhpValue,
    f: impl Fn(std::cmp::Ordering) -> bool,
) -> PhpValue {
    let ord = match (&l, &r) {
        (PhpValue::Str(a), PhpValue::Str(b)) => machine.strcmp(a, b),
        _ => l
            .to_float()
            .partial_cmp(&r.to_float())
            .unwrap_or(std::cmp::Ordering::Equal),
    };
    PhpValue::Bool(f(ord))
}

/// Reads `base[key]` with PHP coercions: hash lookup on arrays, byte
/// indexing on strings, error otherwise. Shared by both engines.
pub(crate) fn index_read(
    machine: &mut PhpMachine,
    base: PhpValue,
    key: &PhpValue,
    st: AccessStatic,
    hint: KeyShapeHint,
) -> Result<PhpValue, RuntimeError> {
    match base {
        PhpValue::Array(rc) => {
            let k = key_of(key);
            let borrowed = rc.borrow();
            Ok(machine
                .array_get_static(&borrowed, &k, st, hint)
                .unwrap_or(PhpValue::Null))
        }
        PhpValue::Str(s) => {
            let i = key.to_int();
            let b = s.as_bytes();
            if i >= 0 && (i as usize) < b.len() {
                Ok(PhpValue::str(PhpStr::from_bytes(vec![b[i as usize]])))
            } else {
                Ok(PhpValue::str(""))
            }
        }
        other => Err(RuntimeError::new(format!(
            "cannot index {}",
            other.type_name()
        ))),
    }
}

impl<'m> Interp<'m> {
    /// Creates an interpreter over a machine.
    pub fn new(machine: &'m mut PhpMachine) -> Self {
        let table = machine.new_array();
        Interp {
            machine,
            funcs: HashMap::new(),
            scopes: vec![Scope {
                table,
                globals: HashSet::new(),
            }],
            output: Vec::new(),
            regex_cache: HashMap::new(),
            regex_compiles: 0,
            depth: 0,
            facts: None,
            memo: None,
            rand_state: builtins::RAND_SEED,
        }
    }

    /// Attaches static-analysis facts. Facts are keyed by node identity, so
    /// they only take effect when the exact analyzed [`Program`] instance is
    /// run; any other program falls back to fully dynamic execution.
    ///
    /// Attaching also forwards the analysis' static pre-configuration to the
    /// machine (heap free-list pre-seeding from known allocation sizes,
    /// string-engine sieve config preloading when regexes were precompiled)
    /// and books the taint lints into the savings counters. All of it is
    /// work-elision only — program output is unchanged.
    pub fn set_facts(&mut self, facts: Arc<AnalysisFacts>) {
        self.machine.apply_prebuilt(
            facts.alloc_size_hints(),
            facts.precompiled_regex_count() > 0,
        );
        self.machine
            .ctx()
            .profiler()
            .note_taint_lints(facts.taint_lint_count() as u64);
        self.machine
            .ctx()
            .profiler()
            .note_arena_safe_sites(facts.arena_safe_count() as u64);
        self.facts = Some(facts);
    }

    /// Detaches static-analysis facts.
    pub fn clear_facts(&mut self) {
        self.facts = None;
    }

    /// Attaches a shared memo tier. Only sites the attached facts prove
    /// memoizable consult it, so without facts this is inert.
    pub fn set_memo(&mut self, handle: MemoHandle) {
        self.memo = Some(handle);
    }

    /// Detaches the memo tier.
    pub fn clear_memo(&mut self) {
        self.memo = None;
    }

    /// Draws the next value of the engine's deterministic `rand` stream.
    pub(crate) fn next_rand(&mut self) -> i64 {
        builtins::rand_step(&mut self.rand_state)
    }

    /// Pre-registers shared function definitions. Hoisting in
    /// [`Interp::run_program`] keeps an already-registered name instead of
    /// cloning the program's definition, so facts interned over these exact
    /// instances (via `php-analysis`) stay valid inside function bodies.
    pub fn predefine_funcs<I: IntoIterator<Item = Arc<FuncDef>>>(&mut self, defs: I) {
        for def in defs {
            self.funcs.insert(def.name.clone(), def);
        }
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

    /// Parses and runs a source string.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on parse or evaluation failure.
    pub fn run(&mut self, src: &str) -> Result<(), RuntimeError> {
        let prog = parse(src)?;
        self.run_program(&prog)
    }

    /// Runs a parsed program.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on evaluation failure.
    pub fn run_program(&mut self, prog: &Program) -> Result<(), RuntimeError> {
        // Hoist function definitions. Pre-registered shared instances (see
        // `predefine_funcs`) win over fresh clones so node-identity facts
        // keep working inside bodies.
        for s in &prog.stmts {
            if let Stmt::FuncDef(f) = s {
                self.funcs
                    .entry(f.name.clone())
                    .or_insert_with(|| Arc::new(f.clone()));
            }
        }
        for s in &prog.stmts {
            if matches!(s, Stmt::FuncDef(_)) {
                continue;
            }
            match self.stmt(s)? {
                Flow::Normal => {}
                Flow::Return(_) => break,
                Flow::Break | Flow::Continue => {
                    return Err(RuntimeError::new("break/continue outside loop"))
                }
            }
        }
        Ok(())
    }

    /// Calls a user-defined function by name (used by workload drivers).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if the function is unknown or fails.
    pub fn call_function(
        &mut self,
        name: &str,
        args: Vec<PhpValue>,
    ) -> Result<PhpValue, RuntimeError> {
        let def = self
            .funcs
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("undefined function {name}")))?;
        self.invoke(&def, args)
    }

    fn invoke(&mut self, def: &FuncDef, args: Vec<PhpValue>) -> Result<PhpValue, RuntimeError> {
        if self.depth >= MAX_DEPTH {
            return Err(RuntimeError::new("maximum call depth exceeded"));
        }
        self.depth += 1;
        // The frame's symbol table dies when the scope pops — arena-eligible
        // when the region analysis cleared the function.
        let symtab_arena = self
            .facts
            .as_ref()
            .is_some_and(|f| f.symtab_arena_safe(&def.name));
        let table = self.machine.new_array_static(symtab_arena);
        self.scopes.push(Scope {
            table,
            globals: HashSet::new(),
        });
        for (i, p) in def.params.iter().enumerate() {
            let v = args.get(i).cloned().unwrap_or(PhpValue::Null);
            self.set_var(p, v);
        }
        let mut ret = PhpValue::Null;
        let mut result = Ok(());
        for s in &def.body {
            match self.stmt(s) {
                Ok(Flow::Return(v)) => {
                    ret = v;
                    break;
                }
                Ok(Flow::Normal) => {}
                Ok(Flow::Break | Flow::Continue) => {
                    result = Err(RuntimeError::new("break/continue outside loop"));
                    break;
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // Function scope ends: its symbol table (a short-lived hash map!)
        // is freed — the pattern the hardware hash table exploits.
        let scope = self.scopes.pop().expect("scope pushed above");
        self.machine.array_free(&scope.table);
        self.depth -= 1;
        result.map(|()| ret)
    }

    /// Runs one proven-memoizable call through the memo tier: replay on a
    /// hit (return value + echoed bytes), execute-and-store on a miss. A
    /// key that fails to build (value too deep) executes normally.
    fn call_memoized(
        &mut self,
        def: &FuncDef,
        vals: Vec<PhpValue>,
        site: &crate::facts::MemoSiteFact,
    ) -> Result<PhpValue, RuntimeError> {
        let handle = self.memo.clone().expect("checked by caller");
        // Dependency values are read straight from the global symbol table,
        // bypassing the (fault-injectable) accelerator path: the key must
        // reflect architecturally true state.
        let globals = &self.scopes[0].table;
        let key = handle.build_key(&site.func, &vals, &site.deps, |dep| {
            globals
                .get(&ArrayKey::from(dep))
                .cloned()
                .unwrap_or(PhpValue::Null)
        });
        let Some(key) = key else {
            return self.invoke(def, vals);
        };
        if let Some(hit) = handle.tier.lookup(&key) {
            self.machine.ctx().profiler().note_memo_hit();
            self.output.extend_from_slice(&hit.output);
            return Ok(hit.value.to_php(self.machine));
        }
        self.machine.ctx().profiler().note_memo_miss();
        let out_mark = self.output.len();
        // Keep cheap handle clones of the arguments: after the call the key
        // is rebuilt from them plus fresh dep reads, and the entry is stored
        // only if nothing shifted. A callee that mutates an argument array —
        // or a dep's array through an alias — is thereby never cached.
        let snapshot = vals.clone();
        let ret = self.invoke(def, vals)?;
        let stable = {
            let globals = &self.scopes[0].table;
            handle
                .build_key(&site.func, &snapshot, &site.deps, |dep| {
                    globals
                        .get(&ArrayKey::from(dep))
                        .cloned()
                        .unwrap_or(PhpValue::Null)
                })
                .is_some_and(|k| k == key)
        };
        if !stable {
            return Ok(ret);
        }
        if let Some(value) = MemoValue::from_php(&ret) {
            let deps = site.deps.iter().map(|d| handle.dep_key(d)).collect();
            handle.tier.store(
                key,
                deps,
                MemoHit {
                    value,
                    output: self.output[out_mark..].to_vec(),
                },
            );
            self.machine.ctx().profiler().note_memo_store();
        }
        Ok(ret)
    }

    /// Purges memo entries depending on global `name` after a write to it.
    /// The tier is namespaced per program, so only a name in some memo
    /// site's fingerprint can match an entry; every other write skips the
    /// tier.
    fn memo_invalidate_global(&mut self, name: &str) {
        let Some(handle) = &self.memo else { return };
        if self.facts.as_ref().is_some_and(|f| f.is_memo_dep(name)) {
            let n = handle.invalidate(name);
            if n > 0 {
                self.machine.ctx().profiler().note_memo_invalidations(n);
            }
        }
    }

    fn scope_index_for(&self, name: &str) -> usize {
        let cur = self.scopes.len() - 1;
        if cur > 0 && self.scopes[cur].globals.contains(name) {
            0
        } else {
            cur
        }
    }

    fn get_var(&mut self, name: &str) -> PhpValue {
        self.get_var_static(name, AccessStatic::default(), KeyShapeHint::Unknown)
    }

    fn get_var_static(&mut self, name: &str, st: AccessStatic, hint: KeyShapeHint) -> PhpValue {
        let idx = self.scope_index_for(name);
        let table = std::mem::replace(&mut self.scopes[idx].table, PhpArray::new());
        let v = self
            .machine
            .array_get_static(&table, &ArrayKey::from(name), st, hint)
            .unwrap_or(PhpValue::Null);
        self.scopes[idx].table = table;
        v
    }

    fn set_var(&mut self, name: &str, value: PhpValue) {
        self.set_var_static(name, value, AccessStatic::default(), KeyShapeHint::Unknown);
    }

    fn set_var_static(
        &mut self,
        name: &str,
        value: PhpValue,
        st: AccessStatic,
        hint: KeyShapeHint,
    ) {
        let idx = self.scope_index_for(name);
        let mut table = std::mem::replace(&mut self.scopes[idx].table, PhpArray::new());
        self.machine
            .array_set_static(&mut table, ArrayKey::from(name), value, st, hint);
        self.scopes[idx].table = table;
        // A global write drops memo entries fingerprinted on this name.
        // (Soundness never depends on this — dep *values* are in the key —
        // but it keeps the shared tier free of dead generations.)
        if idx == 0 {
            self.memo_invalidate_global(name);
        }
    }

    fn key_of(v: &PhpValue) -> ArrayKey {
        key_of(v)
    }

    /// Charges one interpreter step against the armed execution budget.
    fn fuel_step(&mut self) -> Result<(), RuntimeError> {
        if self.machine.ctx().consume_fuel(1) {
            Ok(())
        } else {
            Err(RuntimeError::timeout("maximum execution budget exceeded"))
        }
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Flow, RuntimeError> {
        self.fuel_step()?;
        self.machine.ctx().charge_jit(NODE_UOPS * 2);
        match s {
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.expr(value)?;
                let (elide, shape, site_known) = match &self.facts {
                    Some(f) => (
                        f.rc_elide_store(s),
                        f.key_shape_stmt(s),
                        f.stmt_id(s).is_some(),
                    ),
                    None => (false, KeyShape::Unknown, false),
                };
                let st = AccessStatic {
                    elide_rc: elide,
                    skip_type_check: false,
                };
                match target {
                    LValue::Var(name) => {
                        // Symbol-table keys are literal variable names, so a
                        // known site always carries a constant-key hint.
                        let hint = if site_known {
                            KeyShapeHint::ConstStr
                        } else {
                            KeyShapeHint::Unknown
                        };
                        self.set_var_static(name, v, st, hint);
                    }
                    LValue::Index { var, key } => {
                        let arr_val = self.get_var(var);
                        let rc = match arr_val {
                            PhpValue::Array(rc) => rc,
                            PhpValue::Null => {
                                let arena =
                                    self.facts.as_ref().is_some_and(|f| f.arena_safe_stmt(s));
                                let a = self.machine.new_array_static(arena);
                                let v2 = PhpValue::array(a);
                                self.set_var(var, v2.clone());
                                match v2 {
                                    PhpValue::Array(rc) => rc,
                                    _ => unreachable!(),
                                }
                            }
                            other => {
                                return Err(RuntimeError::new(format!(
                                    "cannot index into {}",
                                    other.type_name()
                                )))
                            }
                        };
                        match key {
                            Some(kexpr) => {
                                let kv = self.expr(kexpr)?;
                                let k = Self::key_of(&kv);
                                self.machine.array_set_static(
                                    &mut rc.borrow_mut(),
                                    k,
                                    v,
                                    st,
                                    hint_of(shape),
                                );
                            }
                            None => {
                                self.machine.array_push_static(
                                    &mut rc.borrow_mut(),
                                    v,
                                    st,
                                    shape == KeyShape::IntAppend,
                                );
                            }
                        }
                        // An in-place element write mutates the global's
                        // value without passing through `set_var`: trigger
                        // the fingerprint invalidation here too.
                        if self.scope_index_for(var) == 0 {
                            self.memo_invalidate_global(var);
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Echo(parts) => {
                for p in parts {
                    let v = self.expr(p)?;
                    let s = v.to_php_string();
                    // echo materializes output bytes: allocator churn.
                    let arena = self.facts.as_ref().is_some_and(|f| f.arena_safe_expr(p));
                    let tv = self.machine.transient_str_static(s.clone(), arena);
                    let _ = tv;
                    self.output.extend_from_slice(s.as_bytes());
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let c = self.expr(cond)?.to_bool();
                let body = if c { then } else { otherwise };
                for s in body {
                    match self.stmt(s)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
                let mut guard = 0u64;
                while self.expr(cond)?.to_bool() {
                    guard += 1;
                    if guard > 1_000_000 {
                        return Err(RuntimeError::new("while loop exceeded iteration cap"));
                    }
                    match self.run_loop_body(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmt(init)?;
                let mut guard = 0u64;
                while self.expr(cond)?.to_bool() {
                    guard += 1;
                    if guard > 1_000_000 {
                        return Err(RuntimeError::new("for loop exceeded iteration cap"));
                    }
                    match self.run_loop_body(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    self.stmt(step)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach {
                array,
                key_var,
                value_var,
                body,
            } => {
                let arr = self.expr(array)?;
                let PhpValue::Array(rc) = arr else {
                    return Err(RuntimeError::new("foreach over non-array"));
                };
                let pairs = {
                    let borrowed = rc.borrow();
                    self.machine.foreach(&borrowed)
                };
                let (elide, site_known) = match &self.facts {
                    Some(f) => (f.rc_elide_store(s), f.stmt_id(s).is_some()),
                    None => (false, false),
                };
                let st = AccessStatic {
                    elide_rc: elide,
                    skip_type_check: false,
                };
                let hint = if site_known {
                    KeyShapeHint::ConstStr
                } else {
                    KeyShapeHint::Unknown
                };
                for (k, v) in pairs {
                    if let Some(kv) = key_var {
                        let key_value = match &k {
                            ArrayKey::Int(i) => PhpValue::Int(*i),
                            ArrayKey::Str(s) => PhpValue::str(s.clone()),
                        };
                        self.set_var_static(kv, key_value, st, hint);
                    }
                    self.set_var_static(value_var, v, st, hint);
                    match self.run_loop_body(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::FuncDef(f) => {
                self.funcs.insert(f.name.clone(), Arc::new(f.clone()));
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.expr(e)?,
                    None => PhpValue::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Global(names) => {
                let cur = self.scopes.len() - 1;
                for n in names {
                    self.scopes[cur].globals.insert(n.clone());
                }
                Ok(Flow::Normal)
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn run_loop_body(&mut self, body: &[Stmt]) -> Result<Flow, RuntimeError> {
        for s in body {
            match self.stmt(s)? {
                Flow::Normal => {}
                Flow::Continue => return Ok(Flow::Continue),
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn expr(&mut self, e: &Expr) -> Result<PhpValue, RuntimeError> {
        self.fuel_step()?;
        self.machine.ctx().charge_jit(NODE_UOPS);
        match e {
            Expr::Null => Ok(PhpValue::Null),
            Expr::Bool(b) => Ok(PhpValue::Bool(*b)),
            Expr::Int(i) => Ok(PhpValue::Int(*i)),
            Expr::Float(f) => Ok(PhpValue::Float(*f)),
            Expr::Str(s) => Ok(PhpValue::str(s.as_str())),
            Expr::Var(name) => {
                let (elide, site_known) = match &self.facts {
                    Some(f) => (f.rc_elide_read(e), f.expr_id(e).is_some()),
                    None => (false, false),
                };
                let st = AccessStatic {
                    elide_rc: elide,
                    skip_type_check: false,
                };
                let hint = if site_known {
                    KeyShapeHint::ConstStr
                } else {
                    KeyShapeHint::Unknown
                };
                Ok(self.get_var_static(name, st, hint))
            }
            Expr::Index { base, key } => {
                let b = self.expr(base)?;
                let kv = self.expr(key)?;
                let (elide, shape) = match &self.facts {
                    Some(f) => (f.rc_elide_read(e), f.key_shape_expr(e)),
                    None => (false, KeyShape::Unknown),
                };
                let st = AccessStatic {
                    elide_rc: elide,
                    skip_type_check: false,
                };
                index_read(self.machine, b, &kv, st, hint_of(shape))
            }
            Expr::ArrayLit(items) => {
                let arena = self.facts.as_ref().is_some_and(|f| f.arena_safe_expr(e));
                let mut a = self.machine.new_array_static(arena);
                for (k, vexpr) in items {
                    let v = self.expr(vexpr)?;
                    match k {
                        Some(kexpr) => {
                            let kv = self.expr(kexpr)?;
                            self.machine.array_set(&mut a, Self::key_of(&kv), v);
                        }
                        None => {
                            self.machine.array_push(&mut a, v);
                        }
                    }
                }
                Ok(PhpValue::array(a))
            }
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a)?);
                }
                if let Some(def) = self.funcs.get(name).cloned() {
                    // A summarized site: the analysis kept facts alive across
                    // this call boundary instead of dropping to ⊤.
                    if self.facts.as_ref().is_some_and(|f| f.call_summarized(e)) {
                        self.machine.ctx().profiler().note_summary_applied();
                    }
                    // A proven-memoizable site with a tier attached: key on
                    // (callee, args, read-set values) and replay on a hit.
                    let site = self
                        .memo
                        .is_some()
                        .then(|| self.facts.as_ref().and_then(|f| f.memo_site(e)).cloned())
                        .flatten();
                    if let Some(site) = site {
                        return self.call_memoized(&def, vals, &site);
                    }
                    return self.invoke(&def, vals);
                }
                builtins::call(self, name, vals, Some(e))
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let c = self.expr(cond)?;
                if c.to_bool() {
                    match then {
                        Some(t) => self.expr(t),
                        None => Ok(c), // elvis
                    }
                } else {
                    self.expr(otherwise)
                }
            }
            Expr::Not(inner) => Ok(PhpValue::Bool(!self.expr(inner)?.to_bool())),
            Expr::Neg(inner) => {
                let v = self.expr(inner)?;
                Ok(match v {
                    PhpValue::Float(f) => PhpValue::Float(-f),
                    other => PhpValue::Int(-other.to_int()),
                })
            }
            Expr::Bin { op, lhs, rhs } => {
                // Short-circuit logical ops.
                if *op == BinOp::And {
                    let l = self.expr(lhs)?.to_bool();
                    return Ok(PhpValue::Bool(l && self.expr(rhs)?.to_bool()));
                }
                if *op == BinOp::Or {
                    let l = self.expr(lhs)?.to_bool();
                    return Ok(PhpValue::Bool(l || self.expr(rhs)?.to_bool()));
                }
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                // Operand types proven by analysis skip the dynamic check —
                // the checked-load elision the facts table exists for.
                let (skip_l, skip_r) = self
                    .facts
                    .as_ref()
                    .map(|f| f.bin_typed(e))
                    .unwrap_or((false, false));
                self.machine.ctx().type_check_elidable(&l, skip_l);
                self.machine.ctx().type_check_elidable(&r, skip_r);
                // `binop` never sees the AST node, so the concat site's
                // arena verdict is resolved here and passed down.
                let arena = self.facts.as_ref().is_some_and(|f| f.arena_safe_expr(e));
                Ok(self.binop(*op, l, r, arena)?)
            }
        }
    }

    fn binop(
        &mut self,
        op: BinOp,
        l: PhpValue,
        r: PhpValue,
        arena_safe: bool,
    ) -> Result<PhpValue, RuntimeError> {
        binop_eval(self.machine, &mut self.output, op, l, r, arena_safe)
    }

    /// Compiles (and caches) a `/pattern/`-delimited preg pattern, returning
    /// a handle to the cached instance.
    pub(crate) fn compile_regex(&mut self, pattern: &str) -> Result<Arc<Regex>, RuntimeError> {
        if !self.regex_cache.contains_key(pattern) {
            let inner = strip_delimiters(pattern)
                .ok_or_else(|| RuntimeError::new(format!("bad preg pattern {pattern:?}")))?;
            let re =
                Regex::new(inner).map_err(|e| RuntimeError::new(format!("regex error: {e}")))?;
            self.regex_compiles += 1;
            self.regex_cache.insert(pattern.to_owned(), Arc::new(re));
        }
        Ok(Arc::clone(&self.regex_cache[pattern]))
    }

    /// The compiled regex for a `preg_*` pattern argument: the analysis-time
    /// handle recorded for this call site when one exists (counted as an
    /// avoided compile), otherwise a runtime compile through the per-request
    /// cache.
    pub(crate) fn regex_for(
        &mut self,
        site: Option<&Expr>,
        pattern: &str,
    ) -> Result<Arc<Regex>, RuntimeError> {
        if let (Some(site), Some(f)) = (site, self.facts.as_ref()) {
            if let Some(re) = f.precompiled_regex(site) {
                let re = Arc::clone(re);
                self.machine.ctx().profiler().note_regex_compile_avoided();
                return Ok(re);
            }
        }
        self.compile_regex(pattern)
    }

    /// How many runtime regex compiles this interpreter performed (cache
    /// misses in [`Interp::compile_regex`]; analysis-precompiled patterns
    /// never count).
    pub fn regex_compile_count(&self) -> u64 {
        self.regex_compiles
    }

    /// Sets a variable in the current scope (used by builtins like
    /// `extract`).
    pub fn set_var_public(&mut self, name: &str, value: PhpValue) {
        self.set_var(name, value);
    }
}

/// Strips PCRE delimiters (`/.../mods`); returns the inner pattern.
///
/// Public so `php-analysis` can compile constant patterns at analysis time
/// through the exact same path the interpreter uses at runtime.
pub fn strip_delimiters(p: &str) -> Option<&str> {
    let b = p.as_bytes();
    let delim = *b.first()?;
    if delim.is_ascii_alphanumeric() {
        return None;
    }
    let close = p.rfind(delim as char)?;
    if close == 0 {
        return None;
    }
    Some(&p[1..close])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(src: &str) -> (String, PhpMachine) {
        let mut m = PhpMachine::specialized();
        let out = {
            let mut i = Interp::new(&mut m);
            i.run(src).unwrap();
            String::from_utf8_lossy(i.output()).into_owned()
        };
        (out, m)
    }

    #[test]
    fn arithmetic_and_echo() {
        let (out, _) = run_src("$x = 2 + 3 * 4; echo $x;");
        assert_eq!(out, "14");
    }

    #[test]
    fn string_concat_and_interp_free_quotes() {
        let (out, _) = run_src("$name = 'World'; echo 'Hello, ' . $name . '!';");
        assert_eq!(out, "Hello, World!");
    }

    #[test]
    fn arrays_and_foreach_order() {
        let (out, _) = run_src(
            "$a = array('b' => 2, 'a' => 1); $a['c'] = 3; \
             foreach ($a as $k => $v) { echo $k, '=', $v, ';'; }",
        );
        assert_eq!(out, "b=2;a=1;c=3;");
    }

    #[test]
    fn append_and_count() {
        let (out, _) = run_src("$a = []; $a[] = 'x'; $a[] = 'y'; echo count($a), $a[1];");
        assert_eq!(out, "2y");
    }

    #[test]
    fn functions_and_recursion() {
        let (out, _) = run_src(
            "function fib($n) { if ($n < 2) { return $n; } return fib($n - 1) + fib($n - 2); } \
             echo fib(10);",
        );
        assert_eq!(out, "55");
    }

    #[test]
    fn while_and_for_loops() {
        let (out, _) = run_src(
            "$s = 0; for ($i = 1; $i <= 5; $i++) { $s += $i; } \
             $n = 3; while ($n > 0) { $s += 100; $n--; } echo $s;",
        );
        assert_eq!(out, "315");
    }

    #[test]
    fn break_continue() {
        let (out, _) = run_src(
            "$s = ''; for ($i = 0; $i < 10; $i++) { \
               if ($i == 2) { continue; } if ($i == 5) { break; } $s .= $i; } echo $s;",
        );
        assert_eq!(out, "0134");
    }

    #[test]
    fn globals() {
        let (out, _) = run_src(
            "$config = 'prod'; function env() { global $config; return $config; } echo env();",
        );
        assert_eq!(out, "prod");
    }

    #[test]
    fn builtin_string_functions() {
        let (out, _) = run_src(
            "echo strtoupper('abc'), '|', strlen('hello'), '|', trim('  x  '), '|', \
             str_replace('o', '0', 'foo'), '|', substr('abcdef', 1, 3);",
        );
        assert_eq!(out, "ABC|5|x|f00|bcd");
    }

    #[test]
    fn preg_functions() {
        let (out, _) = run_src(
            "if (preg_match('/[0-9]+/', 'order 42')) { echo 'yes'; } \
             echo preg_replace('/o/', '0', 'foo boo');",
        );
        assert_eq!(out, "yesf00 b00");
    }

    #[test]
    fn htmlspecialchars_builtin() {
        let (out, _) = run_src("echo htmlspecialchars('<a>&</a>');");
        assert_eq!(out, "&lt;a&gt;&amp;&lt;/a&gt;");
    }

    #[test]
    fn implode_explode() {
        let (out, _) =
            run_src("$parts = explode(',', 'a,b,c'); echo count($parts), implode('-', $parts);");
        assert_eq!(out, "3a-b-c");
    }

    #[test]
    fn extract_builtin() {
        let (out, _) = run_src(
            "$data = array('title' => 'Hi', 'views' => 7); extract($data); echo $title, $views;",
        );
        assert_eq!(out, "Hi7");
    }

    #[test]
    fn interpreting_charges_jit_and_hash_categories() {
        let (_, m) = run_src("$a = ['k' => 1]; foreach ($a as $v) { echo $v; }");
        let cats = m.ctx().profiler().category_breakdown();
        assert!(cats[&php_runtime::Category::JitCode] > 0);
        assert!(cats[&php_runtime::Category::HashMap] > 0);
        // Variable accesses went through the hardware hash table.
        assert!(m.core().htable.stats().sets > 0);
    }

    #[test]
    fn baseline_and_specialized_agree_on_output() {
        let src = r#"
            function render($post) {
                $out = '<h1>' . htmlspecialchars($post['title']) . '</h1>';
                foreach ($post['tags'] as $tag) {
                    $out .= '<span>' . strtolower($tag) . '</span>';
                }
                return $out;
            }
            $post = array('title' => 'A <b>day</b>', 'tags' => array('News', 'PHP'));
            echo render($post);
        "#;
        let run_in = |mut m: PhpMachine| {
            let mut i = Interp::new(&mut m);
            i.run(src).unwrap();
            String::from_utf8_lossy(i.output()).into_owned()
        };
        let b = run_in(PhpMachine::baseline());
        let s = run_in(PhpMachine::specialized());
        assert_eq!(b, s);
        assert!(b.contains("&lt;b&gt;"));
        assert!(b.contains("<span>news</span>"));
    }

    #[test]
    fn division_by_zero_warns_and_yields_false() {
        // PHP 7: `1 / 0` raises E_WARNING and the expression evaluates to
        // false — it is not a fatal error.
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        i.run("$x = 1 / 0; echo is_bool($x) && !$x ? 'F' : '?';")
            .unwrap();
        let out = String::from_utf8(i.take_output()).unwrap();
        assert!(out.contains("Warning: Division by zero"), "{out}");
        assert!(out.ends_with('F'), "{out}");
    }

    #[test]
    fn modulo_by_zero_warns_and_yields_false() {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        i.run("$x = 7 % 0; echo is_bool($x) && !$x ? 'F' : '?';")
            .unwrap();
        let out = String::from_utf8(i.take_output()).unwrap();
        assert!(out.contains("Warning: Division by zero"), "{out}");
        assert!(out.ends_with('F'), "{out}");
    }

    #[test]
    fn modulo_int_min_by_negative_one_is_zero() {
        // i64::MIN % -1 overflows in Rust; PHP yields 0.
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        i.run("$m = -9223372036854775807 - 1; echo $m % (0 - 1);")
            .unwrap();
        assert_eq!(i.output(), b"0");
    }

    #[test]
    fn undefined_function_errors() {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        assert!(i.run("mystery();").is_err());
    }

    #[test]
    fn recursion_depth_capped() {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        assert!(i.run("function f($n) { return f($n + 1); } f(0);").is_err());
    }

    #[test]
    fn fuel_exhaustion_yields_timeout_error() {
        let mut m = PhpMachine::baseline();
        m.ctx().set_fuel(Some(50));
        let mut i = Interp::new(&mut m);
        let err = i
            .run("$s = 0; while (true) { $s = $s + 1; }")
            .expect_err("must run out of fuel");
        assert!(err.is_timeout(), "{err}");
        assert_eq!(err.kind, ErrorKind::Timeout);
    }

    #[test]
    fn uop_deadline_yields_timeout_error() {
        let mut m = PhpMachine::baseline();
        m.ctx().set_uop_deadline(Some(2_000));
        let mut i = Interp::new(&mut m);
        let err = i
            .run("$s = ''; while (true) { $s = $s . 'x'; }")
            .expect_err("must hit the deadline");
        assert!(err.is_timeout(), "{err}");
    }

    #[test]
    fn unmetered_run_is_unaffected() {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        i.run("$s = 0; for ($i = 0; $i < 100; $i++) { $s += $i; } echo $s;")
            .unwrap();
        assert_eq!(i.output(), b"4950");
    }

    #[test]
    fn fatal_errors_are_not_timeouts() {
        let err = RuntimeError::new("boom");
        assert!(!err.is_timeout());
        assert_eq!(err.kind, ErrorKind::Fatal);
    }
}

#[cfg(test)]
mod ternary_tests {
    use super::*;

    fn eval(src: &str) -> String {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        i.run(src).unwrap();
        String::from_utf8_lossy(i.output()).into_owned()
    }

    #[test]
    fn ternary_selects_branch() {
        assert_eq!(eval("echo 1 < 2 ? 'yes' : 'no';"), "yes");
        assert_eq!(eval("echo 2 < 1 ? 'yes' : 'no';"), "no");
    }

    #[test]
    fn ternary_nests_right_associative() {
        assert_eq!(
            eval("$n = 5; echo $n < 3 ? 'low' : ($n < 7 ? 'mid' : 'high');"),
            "mid"
        );
    }

    #[test]
    fn elvis_operator() {
        assert_eq!(eval("$x = ''; echo $x ?: 'default';"), "default");
        assert_eq!(eval("$x = 'set'; echo $x ?: 'default';"), "set");
    }

    #[test]
    fn ternary_in_assignment_and_call() {
        assert_eq!(
            eval("$t = strlen('abc') == 3 ? strtoupper('ok') : 'bad'; echo $t;"),
            "OK"
        );
    }

    #[test]
    fn ternary_short_circuits() {
        // The untaken branch must not execute (division by zero would emit a
        // warning into the output).
        assert_eq!(eval("echo true ? 'safe' : 1 / 0;"), "safe");
    }
}
