//! Cross-engine differential harness: the compiled opcode VM must be
//! observationally identical to the tree-walking evaluator.
//!
//! The VM is only allowed to remove *metered* work — dispatch overhead,
//! transient intermediates, fact-checked guards. It must never change what
//! a script prints, which error it raises, or how many heap blocks survive
//! the request boundary. This harness runs every corpus program and a
//! family of generated programs through the tree walker and through the VM
//! (fusion on and off × facts on and off × arena on and off) and demands
//! byte-identical output plus identical end-of-request live-block counts.
//!
//! The pinned tests at the bottom each encode an evaluation-order,
//! short-circuit or variable-scope rule (the VM keeps variables in
//! compile-time frame slots, the tree walker in symbol-table arrays); they
//! assert the exact expected bytes so a regression fails with a readable
//! diff rather than a generated-program dump.

use php_analysis::analyze_with_funcs;
use php_interp::ast::{FuncDef, Stmt};
use php_interp::{compile, parse, CompileOptions, Interp, MemoCache, MemoHandle, MemoTier, Vm};
use phpaccel_core::{Engine, PhpMachine};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use workloads::php_corpus;

/// Which execution engine to run a generated source through.
#[derive(Debug, Clone, Copy)]
enum Runner {
    Tree,
    Vm { fused: bool },
}

/// Runs `src` on a fresh specialized machine under `runner`, returning the
/// output bytes and the end-of-request live-block count. Mirrors
/// `php_corpus::prepare`: function bodies are shared between the analysis
/// and the engines so facts keyed on node identity stay valid inside them.
fn run_src_on(src: &str, runner: Runner, with_facts: bool, arena: bool) -> (Vec<u8>, usize) {
    run_src_memo(src, runner, with_facts, arena, None)
}

fn run_src_memo(
    src: &str,
    runner: Runner,
    with_facts: bool,
    arena: bool,
    memo: Option<Arc<dyn MemoTier>>,
) -> (Vec<u8>, usize) {
    let (result, live) = try_run_src(src, runner, with_facts, arena, memo);
    let out = result.unwrap_or_else(|e| panic!("{runner:?} fails: {e}\n{src}"));
    (out, live)
}

/// [`run_src_memo`] for programs that may fail: the error message in place
/// of the output. The request boundary is crossed either way.
fn try_run_src(
    src: &str,
    runner: Runner,
    with_facts: bool,
    arena: bool,
    memo: Option<Arc<dyn MemoTier>>,
) -> (Result<Vec<u8>, String>, usize) {
    let program =
        parse(src).unwrap_or_else(|e| panic!("generated program fails to parse: {e:?}\n{src}"));
    let shared: Vec<Arc<FuncDef>> = program
        .stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::FuncDef(f) => Some(Arc::new(f.clone())),
            _ => None,
        })
        .collect();
    let analysis = analyze_with_funcs(&program, &shared);
    let facts = Arc::new(analysis.facts);
    let mut m = PhpMachine::specialized();
    if arena {
        m.ctx().set_arena_enabled(true);
    }
    let out = match runner {
        Runner::Tree => {
            let mut interp = Interp::new(&mut m);
            interp.predefine_funcs(shared.iter().cloned());
            if with_facts {
                interp.set_facts(Arc::clone(&facts));
            }
            if let Some(t) = memo {
                interp.set_memo(MemoHandle::new(t, "vm-diff"));
            }
            let r = interp.run_program(&program);
            r.map(|()| interp.take_output()).map_err(|e| e.message)
        }
        Runner::Vm { fused } => {
            let unit = Arc::new(compile(
                &program,
                &shared,
                with_facts.then_some(&*facts),
                CompileOptions { fuse: fused },
            ));
            let mut vm = Vm::new(&mut m, unit);
            if let Some(t) = memo {
                vm.set_memo(MemoHandle::new(t, "vm-diff"));
            }
            let r = vm.run();
            r.map(|()| vm.take_output()).map_err(|e| e.message)
        }
    };
    m.end_request();
    let live = m.ctx().with_allocator(|a| a.live_block_count());
    (out, live)
}

/// Runs `src` through the tree walker and both VM variants across the full
/// facts × arena matrix, asserting byte-identical output and identical
/// end-of-request live blocks everywhere. Returns the (unique) output.
fn assert_engines_agree(src: &str) -> Vec<u8> {
    let (reference, _) = run_src_on(src, Runner::Tree, false, false);
    for with_facts in [false, true] {
        for arena in [false, true] {
            let (out_tree, live_tree) = run_src_on(src, Runner::Tree, with_facts, arena);
            assert_eq!(
                out_tree, reference,
                "tree walk (facts={with_facts}, arena={arena}) diverged from itself:\n{src}"
            );
            for fused in [false, true] {
                let (out_vm, live_vm) = run_src_on(src, Runner::Vm { fused }, with_facts, arena);
                assert_eq!(
                    out_vm,
                    out_tree,
                    "vm (fused={fused}, facts={with_facts}, arena={arena}) changed the output of:\n{src}\n\
                     tree: {:?}\nvm:   {:?}",
                    String::from_utf8_lossy(&out_tree),
                    String::from_utf8_lossy(&out_vm),
                );
                assert_eq!(
                    live_vm, live_tree,
                    "vm (fused={fused}, facts={with_facts}, arena={arena}) changed live blocks of:\n{src}"
                );
            }
        }
    }

    // Memo axis: one tier shared across engines, so the VM replays entries
    // the tree walker stored (and vice versa) — cross-engine cache
    // compatibility is byte-checked here, not assumed. Facts stay on (memo
    // sites only exist in the facts table).
    let tier: Arc<dyn MemoTier> = Arc::new(MemoCache::default());
    for arena in [false, true] {
        let (out_tree, live_tree) =
            run_src_memo(src, Runner::Tree, true, arena, Some(Arc::clone(&tier)));
        assert_eq!(
            out_tree, reference,
            "tree walk (memo, arena={arena}) changed the output of:\n{src}"
        );
        for fused in [false, true] {
            let (out_vm, live_vm) = run_src_memo(
                src,
                Runner::Vm { fused },
                true,
                arena,
                Some(Arc::clone(&tier)),
            );
            assert_eq!(
                out_vm, reference,
                "vm (memo, fused={fused}, arena={arena}) changed the output of:\n{src}"
            );
            assert_eq!(
                live_vm, live_tree,
                "vm (memo, fused={fused}, arena={arena}) changed live blocks of:\n{src}"
            );
        }
    }
    reference
}

// -- corpus ------------------------------------------------------------------

/// Every corpus program, tree walk vs VM, across facts × fusion × arena.
/// This is the acceptance gate for the compile pass: the prepared script
/// caches all four `CompiledUnit` variants, and each must reproduce the
/// tree walker's bytes and leave the allocator in the same state.
#[test]
fn corpus_programs_are_engine_invariant() {
    for entry in php_corpus::ENTRIES {
        let p = php_corpus::prepare(entry);
        for with_facts in [false, true] {
            for arena in [false, true] {
                let mut m_tree = PhpMachine::specialized();
                if arena {
                    m_tree.ctx().set_arena_enabled(true);
                }
                let out_tree = p.run(&mut m_tree, with_facts);
                m_tree.end_request();
                let live_tree = m_tree.ctx().with_allocator(|a| a.live_block_count());

                for fused in [false, true] {
                    let mut m_vm = PhpMachine::specialized();
                    if arena {
                        m_vm.ctx().set_arena_enabled(true);
                    }
                    let out_vm = p.run_vm(&mut m_vm, with_facts, fused);
                    m_vm.end_request();
                    let live_vm = m_vm.ctx().with_allocator(|a| a.live_block_count());
                    assert_eq!(
                        out_vm, out_tree,
                        "{}/{} (facts={with_facts}, fused={fused}, arena={arena}): \
                         vm changed the output",
                        entry.app, entry.name
                    );
                    assert_eq!(
                        live_vm, live_tree,
                        "{}/{} (facts={with_facts}, fused={fused}, arena={arena}): \
                         vm changed the end-of-request live-block count",
                        entry.app, entry.name
                    );
                }
            }
        }
    }
}

/// Corpus programs with the cross-request memo tier attached: one warm tier
/// per entry is shared between the tree walker and both VM variants, across
/// the arena axis, and every run must reproduce the memo-off tree walker's
/// bytes and end-of-request live-block count.
#[test]
fn corpus_programs_are_memo_invariant_across_engines() {
    for entry in php_corpus::ENTRIES {
        let p = php_corpus::prepare(entry);
        for arena in [false, true] {
            let mut m_off = PhpMachine::specialized();
            if arena {
                m_off.ctx().set_arena_enabled(true);
            }
            let out_off = p.run(&mut m_off, true);
            m_off.end_request();
            let live_off = m_off.ctx().with_allocator(|a| a.live_block_count());

            let tier: Arc<dyn MemoTier> = Arc::new(MemoCache::default());
            let mut runs: Vec<(String, Vec<u8>, usize)> = Vec::new();
            for pass in ["cold", "warm"] {
                let mut m = PhpMachine::specialized();
                if arena {
                    m.ctx().set_arena_enabled(true);
                }
                let out = p.run_memo(&mut m, true, Some(Arc::clone(&tier)));
                m.end_request();
                let live = m.ctx().with_allocator(|a| a.live_block_count());
                runs.push((format!("tree/{pass}"), out, live));
            }
            for fused in [false, true] {
                let mut m = PhpMachine::specialized();
                if arena {
                    m.ctx().set_arena_enabled(true);
                }
                let out = p.run_vm_memo(&mut m, true, fused, Some(Arc::clone(&tier)));
                m.end_request();
                let live = m.ctx().with_allocator(|a| a.live_block_count());
                runs.push((format!("vm/fused={fused}"), out, live));
            }
            for (label, out, live) in &runs {
                assert_eq!(
                    out, &out_off,
                    "{}/{} (arena={arena}, {label}): memo changed the output",
                    entry.app, entry.name
                );
                assert_eq!(
                    live, &live_off,
                    "{}/{} (arena={arena}, {label}): memo changed the \
                     end-of-request live-block count",
                    entry.app, entry.name
                );
            }
        }
    }
}

/// The engine seam itself: a machine switched to [`Engine::Vm`] must make
/// `PreparedScript::run` — the entry point the server, pool, soak, and
/// bench all use — produce the same bytes the default tree-walk engine
/// does, with no caller-side changes.
#[test]
fn engine_dispatch_on_machine_is_transparent() {
    for entry in php_corpus::ENTRIES {
        let p = php_corpus::prepare(entry);
        let mut m_tree = PhpMachine::specialized();
        assert_eq!(m_tree.engine(), Engine::TreeWalk);
        let out_tree = p.run(&mut m_tree, true);

        let mut m_vm = PhpMachine::specialized();
        m_vm.set_engine(Engine::Vm);
        let out_vm = p.run(&mut m_vm, true);
        assert_eq!(
            out_vm, out_tree,
            "{}/{}: Engine::Vm dispatch changed the output",
            entry.app, entry.name
        );
    }
}

// -- generated programs ------------------------------------------------------
//
// Each segment contributes one helper function `segN(..)` plus main-scope
// statements exercising it. Unlike the facts-differential generator (which
// targets the interprocedural analyses), these segments target the VM
// codegen paths where evaluation order is easiest to get wrong: operand
// order around side-effecting calls, short-circuit evaluation, loop
// control flow, indexed assignment, and array iteration.

#[derive(Debug, Clone)]
enum Seg {
    /// `segN($x) = $x * k + c`, called with literal `a`.
    Arith { k: i64, c: i64, a: i64 },
    /// Appends a tag to a global log and returns `v` — the probe other
    /// segments use to observe evaluation order.
    Probe { v: i64 },
    /// A `for` loop with `continue` on multiples of `skip` and `break`
    /// past `stop`.
    Loop { n: i64, skip: i64, stop: i64 },
    /// Builds an array with literal and computed keys, writes through a
    /// probed index, and reads it back.
    Index { base: i64 },
    /// `&&` / `||` chains whose right-hand sides are probed calls: the
    /// log shows exactly which operands were evaluated.
    Short { a: i64, b: i64 },
    /// Ternary and elvis over probed operands.
    Cond { c: i64 },
    /// A foreach over a literal array concatenating key:value pairs.
    Each { len: usize },
    /// `extract` onto a parameter, onto a local read afterwards, and of a
    /// key the body never names — in a function and at main scope.
    Extract { v: i64 },
    /// `global` after a local write of the name and inside a branch that is
    /// or is not taken, plus a global that only functions ever name.
    Global { take: bool, v: i64 },
    /// Recursion with a local per activation and a parameter named like the
    /// `$log` global, which it must not alias.
    Recur { n: i64 },
    /// A never-written read, an append that auto-vivifies an unset local,
    /// and foreach key/value variables read after the loop.
    Fresh { len: usize },
}

fn seg_strategy() -> impl Strategy<Value = Seg> {
    prop_oneof![
        (1i64..9, 0i64..50, 0i64..60).prop_map(|(k, c, a)| Seg::Arith { k, c, a }),
        (0i64..40).prop_map(|v| Seg::Probe { v }),
        (1i64..12, 2i64..5, 1i64..10).prop_map(|(n, skip, stop)| Seg::Loop { n, skip, stop }),
        (0i64..30).prop_map(|base| Seg::Index { base }),
        (0i64..3, 0i64..3).prop_map(|(a, b)| Seg::Short { a, b }),
        (0i64..4).prop_map(|c| Seg::Cond { c }),
        (1usize..5).prop_map(|len| Seg::Each { len }),
        (0i64..9).prop_map(|v| Seg::Extract { v }),
        (any::<bool>(), 0i64..9).prop_map(|(take, v)| Seg::Global { take, v }),
        (0i64..5).prop_map(|n| Seg::Recur { n }),
        (1usize..4).prop_map(|len| Seg::Fresh { len }),
    ]
}

/// Renders the segments into one mini-PHP source: helper functions first,
/// then the main-scope driver. Every program starts a `$log` global so the
/// probe segments can record evaluation order into the output.
fn render(segs: &[Seg]) -> String {
    let mut funcs = String::new();
    let mut main = String::from("$log = '';\n");
    for (i, seg) in segs.iter().enumerate() {
        match seg {
            Seg::Arith { k, c, a } => {
                let _ = writeln!(funcs, "function seg{i}($x) {{ return $x * {k} + {c}; }}");
                let _ = writeln!(main, "echo 'a{i}:', seg{i}({a}), ';';");
            }
            Seg::Probe { v } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ global $log; $log = $log . 'p{i}'; return $x + {v}; }}"
                );
                let _ = writeln!(main, "echo 'p{i}:', seg{i}({v}), ';';");
            }
            Seg::Loop { n, skip, stop } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($n) {{ $acc = ''; \
                     for ($j = 0; $j < $n; $j = $j + 1) {{ \
                     if ($j % {skip} == 0) {{ continue; }} \
                     if ($j > {stop}) {{ break; }} \
                     $acc = $acc . $j; }} return $acc; }}"
                );
                let _ = writeln!(main, "echo 'l{i}:', seg{i}({n}), ';';");
            }
            Seg::Index { base } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ global $log; $log = $log . 'i{i}'; return $x; }}"
                );
                let _ = writeln!(
                    main,
                    "$arr{i} = array('k' => {base}, 1, 2); \
                     $arr{i}[seg{i}(0)] = seg{i}(7) + 1; \
                     echo 'x{i}:', $arr{i}[0], $arr{i}['k'], ';';"
                );
            }
            Seg::Short { a, b } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ global $log; $log = $log . 's{i}'; return $x; }}"
                );
                let _ = writeln!(
                    main,
                    "$u{i} = {a} && seg{i}(1); $v{i} = {b} || seg{i}(0); \
                     echo 'b{i}:', $u{i} ? 'T' : 'F', $v{i} ? 'T' : 'F', ';';"
                );
            }
            Seg::Cond { c } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ global $log; $log = $log . 'c{i}'; return $x; }}"
                );
                let _ = writeln!(
                    main,
                    "echo 'q{i}:', {c} ? seg{i}(1) : seg{i}(2), ';', seg{i}({c}) ?: 9, ';';"
                );
            }
            Seg::Each { len } => {
                let items: Vec<String> = (0..*len).map(|j| format!("'v{j}'")).collect();
                let _ = writeln!(
                    funcs,
                    "function seg{i}($a) {{ $s = ''; foreach ($a as $k => $v) \
                     {{ $s = $s . $k . ':' . $v . ','; }} return $s; }}"
                );
                let _ = writeln!(
                    main,
                    "echo 'e{i}:', seg{i}(array({})), ';';",
                    items.join(", ")
                );
            }
            Seg::Extract { v } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($p) {{ $q = 'q';                      extract(array('p' => $p + {v}, 'q' => 'Q', 'nobody{i}' => 1));                      return $p . $q; }}"
                );
                let _ = writeln!(
                    main,
                    "$m{i} = 'm'; extract(array('m{i}' => 'M{v}', 'ghost{i}' => 2));                      echo 't{i}:', seg{i}({v}), $m{i}, ';';"
                );
            }
            Seg::Global { take, v } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($t) {{ $g{i} = 'local'; $r = $g{i};                      if ($t) {{ global $g{i}; }} return $r . '/' . $g{i}; }}\n\
                     function seg{i}b() {{ global $h{i}; $h{i} = $h{i} . 'w'; return $h{i}; }}"
                );
                let _ = writeln!(
                    main,
                    "$g{i} = 'G{v}'; echo 'g{i}:', seg{i}({}), ',', seg{i}b(), seg{i}b(), ';';",
                    *take as i64
                );
            }
            Seg::Recur { n } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($n, $log) {{ $mine = $n * 2;                      if ($n > 0) {{ $below = seg{i}($n - 1, $log . $n); }}                      else {{ $below = $log; }} return $below . ':' . $mine; }}"
                );
                let _ = writeln!(main, "echo 'r{i}:', seg{i}({n}, 'L'), ';';");
            }
            Seg::Fresh { len } => {
                let items: Vec<String> = (0..*len).map(|j| format!("'w{j}'")).collect();
                let _ = writeln!(
                    funcs,
                    "function seg{i}($a) {{ $fresh[] = 1; $fresh[] = $never;                      foreach ($a as $k => $v) {{ $seen = $k; }}                      return count($fresh) . (is_null($never) ? 'N' : '?') . $k . $v . $seen; }}"
                );
                let _ = writeln!(
                    main,
                    "foreach (array({0}) as $fk{i} => $fv{i}) {{ }}                      echo 'f{i}:', seg{i}(array({0})), $fk{i}, $fv{i}, ';';",
                    items.join(", ")
                );
            }
        }
    }
    main.push_str("echo 'log:', $log;\n");
    format!("{funcs}{main}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn generated_programs_are_engine_invariant(
        segs in prop::collection::vec(seg_strategy(), 1..6),
    ) {
        let src = render(&segs);
        // assert_engines_agree covers the full facts × fusion × arena matrix.
        assert_engines_agree(&src);
    }
}

// -- pinned evaluation-order regressions -------------------------------------

/// Indexed assignment evaluates the assigned *value* before the base is
/// loaded or the key is evaluated. A VM that naively emits base, key, value
/// in syntactic order logs "KV" here and reads a stale global.
#[test]
fn pinned_indexed_assign_value_before_base_and_key() {
    let src = "function v() { global $log; $log = $log . 'V'; return 7; }\n\
               function k() { global $log; $log = $log . 'K'; return 1; }\n\
               $log = '';\n\
               $a = array(0, 0);\n\
               $a[k()] = v();\n\
               echo $log, ':', $a[1];";
    assert_eq!(assert_engines_agree(src), b"VK:7");
}

/// Array-literal entries evaluate the value before the key, entry by entry.
#[test]
fn pinned_array_literal_value_before_key() {
    let src = "function v() { global $log; $log = $log . 'V'; return 'x'; }\n\
               function k() { global $log; $log = $log . 'K'; return 'kk'; }\n\
               $log = '';\n\
               $a = array(k() => v(), 1 => 'y');\n\
               echo $log, ':', $a['kk'], $a[1];";
    assert_eq!(assert_engines_agree(src), b"VK:xy");
}

/// `?:` (elvis) returns the *condition's value* when truthy — not a
/// re-evaluation, not a bool — and never touches the fallback.
#[test]
fn pinned_elvis_returns_condition_and_skips_fallback() {
    let src = "function f() { global $log; $log = $log . 'F'; return 'fb'; }\n\
               function c() { global $log; $log = $log . 'C'; return 'hi'; }\n\
               $log = '';\n\
               echo c() ?: f(), ':', $log;";
    assert_eq!(assert_engines_agree(src), b"hi:C");
}

/// `&&` and `||` short-circuit: the right operand must not run when the
/// left decides the result, and the result is a bool either way.
#[test]
fn pinned_and_or_short_circuit_and_return_bool() {
    let src = "function t() { global $log; $log = $log . 'T'; return 1; }\n\
               $log = '';\n\
               $a = 0 && t();\n\
               $b = 1 || t();\n\
               $c = 1 && t();\n\
               echo $log, ':', $a ? 'y' : 'n', $b ? 'y' : 'n', $c ? 'y' : 'n';";
    assert_eq!(assert_engines_agree(src), b"T:nyy");
}

/// Division by zero emits its warning *into the output stream* at the point
/// of evaluation — fused echo paths must preserve the interleaving.
#[test]
fn pinned_div_by_zero_warning_interleaves_with_echo() {
    let src = "echo 'before;';\n\
               echo 10 % 0 ? 'y' : 'n';\n\
               echo ';after';";
    assert_eq!(
        assert_engines_agree(src),
        b"before;Warning: Division by zero\nn;after"
    );
}

/// String concatenation evaluates left-to-right even when fusion flattens
/// the tree into one `ConcatN` superinstruction.
#[test]
fn pinned_concat_chain_evaluates_left_to_right() {
    let src = "function p($t) { global $log; $log = $log . $t; return $t; }\n\
               $log = '';\n\
               echo p('a') . p('b') . p('c') . p('d'), ':', $log;";
    assert_eq!(assert_engines_agree(src), b"abcd:abcd");
}

// -- pinned operand-folding rules --------------------------------------------
//
// A fused op reads a variable operand when it runs, after every earlier
// input was evaluated. So a variable folds only when no later input of the
// same op can call anything; otherwise it is loaded in tree order, before
// the call that rewrites it.

/// A later concat leaf rewrites an earlier leaf's variable, through a user
/// function's `global` and through `extract`, in main and in a function.
#[test]
fn pinned_concat_reads_a_variable_before_a_later_leaf_rewrites_it() {
    let src = "function bump() { global $x; $x = 'B'; return '!'; }\n\
               function local() { $v = 'a'; return $v . extract(array('v' => 'b')) . $v; }\n\
               $x = 'A';\n\
               $s = 'x';\n\
               echo $x . '-' . bump() . $x, ',', $s . extract(array('s' => 'y')) . $s, ',', local();";
    assert_eq!(assert_engines_agree(src), b"A-!B,x1y,a1b");
}

/// Either operand of a binary op: the left one is read before the right
/// one's call rewrites it, the right one after the left one's call did.
#[test]
fn pinned_bin_reads_its_left_variable_before_the_right_call() {
    let src = "function inc() { global $n; $n = $n + 10; return 1; }\n\
               $n = 1;\n\
               echo $n + inc(), ',', inc() + $n, ',', $n > inc(), ',', $n;";
    assert_eq!(assert_engines_agree(src), b"2,22,1,31");
}

/// A builtin's arguments and an index read's base: an earlier argument
/// (or the base) is read before a later argument (or the key) calls.
#[test]
fn pinned_builtin_arguments_and_index_base_are_read_in_order() {
    let src = "function grow() { global $a; $a = array('k' => 'new'); return 'k'; }\n\
               $t = 'old';\n\
               $a = array('k' => 'old');\n\
               echo str_repeat($t, extract(array('t' => 'new')) + 1), ',', $t, ',';\n\
               echo $a[grow()], ',', $a['k'];";
    assert_eq!(assert_engines_agree(src), b"oldold,new,old,new");
}

// -- pinned variable-scope rules ---------------------------------------------
//
// The VM resolves every variable name to a frame slot at compile time; the
// by-name paths that remain (`extract`, `global`) have to land on the same
// variable a later static read finds.

/// `extract` onto a name the body mentions writes that variable's slot, in
/// main and in a function (where a parameter is the target), and the next
/// static read sees it.
#[test]
fn pinned_extract_onto_a_slot_is_seen_by_a_static_read() {
    let src =
        "function f($p) { $q = 'q'; extract(array('p' => 'P', 'q' => 'Q')); return $p . $q; }\n\
               $m = 'm';\n\
               extract(array('m' => 'M', 'late' => 'L'));\n\
               echo f('p'), $m, $late;";
    assert_eq!(assert_engines_agree(src), b"PQML");
}

/// `extract` of names no code mentions lands in the frame's spill table:
/// nothing can read them back, and no block outlives the request
/// (`assert_engines_agree` compares the live-block counts).
#[test]
fn pinned_extract_of_unmentioned_names_spills_and_leaks_nothing() {
    let src = "function f() { extract(array('nobody' => 1, 'nothing' => 2)); return 'f'; }\n\
               echo extract(array('ghost' => 1, 7 => 'skipped')), f(), f();";
    assert_eq!(assert_engines_agree(src), b"1ff");
}

/// `global $x` takes effect when the statement executes: a local written
/// before it is shadowed from then on, and a `global` in a branch not taken
/// binds nothing.
#[test]
fn pinned_global_binds_when_executed() {
    let src =
        "function late() { $x = 'local'; $seen = $x; global $x; $x = $x . '!'; return $seen; }\n\
               function skipped($t) { $x = 'mine'; if ($t) { global $x; } return $x; }\n\
               $x = 'G';\n\
               echo late(), ',', $x, ',', skipped(0), ',', skipped(1);";
    assert_eq!(assert_engines_agree(src), b"local,G!,mine,G!");
}

/// A global main never mentions still persists between the functions that
/// name it.
#[test]
fn pinned_global_main_never_mentions_is_shared_between_functions() {
    let src = "function put($v) { global $hidden; $hidden = $v; }\n\
               function get() { global $hidden; return $hidden; }\n\
               echo is_null(get()) ? 'null' : 'set'; put('kept'); echo ',', get();";
    assert_eq!(assert_engines_agree(src), b"null,kept");
}

/// A parameter named like a global is the frame's own variable.
#[test]
fn pinned_parameter_named_like_a_global_does_not_alias_it() {
    let src = "function f($g) { $g = $g . '+'; return $g; }\n\
               $g = 'G';\n\
               echo f('arg'), ',', $g;";
    assert_eq!(assert_engines_agree(src), b"arg+,G");
}

/// Every activation of a recursive function has its own frame: a local
/// written before the recursive call still holds its value after it.
#[test]
fn pinned_recursion_gives_each_activation_its_own_frame() {
    let src = "function down($n) { $mine = $n; if ($n > 0) { $below = down($n - 1); } \
               else { $below = ''; } return $below . $mine; }\n\
               echo down(4);";
    assert_eq!(assert_engines_agree(src), b"01234");
}

/// Unbounded recursion fails with the tree walker's message on every VM
/// variant, and the unwound request leaves the allocator as the tree
/// walker's does.
#[test]
fn pinned_call_depth_error_unwinds_every_frame() {
    let src = "function f($n) { $a = array($n); return f($n + 1); } echo 'in'; f(0); echo 'out';";
    let (tree, live_tree) = try_run_src(src, Runner::Tree, true, false, None);
    assert_eq!(tree, Err("maximum call depth exceeded".to_string()));
    for fused in [false, true] {
        for with_facts in [false, true] {
            let (vm, live_vm) = try_run_src(src, Runner::Vm { fused }, with_facts, false, None);
            assert_eq!(vm, tree, "fused={fused} facts={with_facts}");
            assert_eq!(live_vm, live_tree, "fused={fused} facts={with_facts}");
        }
    }
}

/// A never-written variable reads as `null`, in main and in a function.
#[test]
fn pinned_never_written_variable_reads_as_null() {
    let src = "function f() { return is_null($never) ? 'n' : '?'; }\n\
               echo f(), is_null($nor_this) ? 'n' : '?', '[', $nor_this, ']';";
    assert_eq!(assert_engines_agree(src), b"nn[]");
}

/// `$a[] = v` on an unset local creates the array in the variable's slot.
#[test]
fn pinned_append_auto_vivifies_an_unset_local() {
    let src =
        "function f() { $a[] = 'x'; $a[] = 'y'; $b['k'] = count($a); return $a[1] . $b['k']; }\n\
               $m[] = 'main'; echo f(), $m[0];";
    assert_eq!(assert_engines_agree(src), b"y2main");
}

/// `foreach` binds ordinary variables: the last key and value are readable
/// after the loop.
#[test]
fn pinned_foreach_variables_survive_the_loop() {
    let src = "function f($a) { foreach ($a as $k => $v) { } return $k . '=' . $v; }\n\
               foreach (array('p' => 1, 'q' => 2) as $mk => $mv) { }\n\
               echo f(array('a' => 'x', 'b' => 'y')), ',', $mk, $mv;";
    assert_eq!(assert_engines_agree(src), b"b=y,q2");
}

/// A function defined inside another exists once the outer one has run, and
/// a redefinition reached at run time replaces the hoisted body; each body
/// has its own frame layout.
#[test]
fn pinned_nested_and_redefined_functions_keep_their_own_frames() {
    let src = "function outer($x) { function inner($y) { $x = 'inner'; return $x . $y; } \
               return inner($x) . $x; }\n\
               function again($a) { return 'first' . $a; }\n\
               echo outer('o'), ',', again(1);\n\
               if (true) { function again($b, $a) { return 'second' . $a . $b; } }\n\
               echo ',', again(1, 2);";
    assert_eq!(assert_engines_agree(src), b"inneroo,first1,second21");
}
