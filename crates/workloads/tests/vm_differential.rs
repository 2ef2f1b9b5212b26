//! Cross-engine differential harness: the compiled opcode VM must be
//! observationally identical to the fact-free tree walk, the reference the
//! server replays every request on.
//!
//! The VM is only allowed to remove *metered* work — dispatch overhead,
//! transient intermediates, and the type checks, refcount traffic, probe
//! stages and regex compiles its facts elide. It must never change what
//! a script prints, which error it raises, or how many heap blocks survive
//! the request boundary. This harness runs every corpus program and two
//! families of generated programs (one aimed at evaluation order, one at
//! the call-heavy shapes the interprocedural analyses reason about) once
//! through the fact-free tree walk and through the VM (fusion on and off ×
//! facts on and off × arena on and off × memo tier on and off) and holds
//! every VM run to the tree walk's bytes and end-of-request live-block
//! count.
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

/// How the VM runs a source: the compiled-unit variant and what is attached.
#[derive(Debug, Clone, Copy)]
struct VmRun {
    fused: bool,
    with_facts: bool,
    arena: bool,
}

/// Every VM variant: fusion × facts × arena.
fn vm_variants() -> impl Iterator<Item = VmRun> {
    [false, true].into_iter().flat_map(|fused| {
        [false, true].into_iter().flat_map(move |with_facts| {
            [false, true].map(move |arena| VmRun {
                fused,
                with_facts,
                arena,
            })
        })
    })
}

/// The end-of-request live-block count: crosses the request boundary (so an
/// arena epoch is reclaimed) and counts what survives.
fn live_after_request(m: &mut PhpMachine) -> usize {
    m.end_request();
    m.ctx().with_allocator(|a| a.live_block_count())
}

/// The fact-free tree walk of `src` on a fresh specialized machine: its
/// output, or the error message in its place, and the end-of-request
/// live-block count.
fn try_run_tree(src: &str) -> (Result<Vec<u8>, String>, usize) {
    let program =
        parse(src).unwrap_or_else(|e| panic!("generated program fails to parse: {e:?}\n{src}"));
    let mut m = PhpMachine::specialized();
    let out = {
        let mut interp = Interp::new(&mut m);
        let r = interp.run_program(&program);
        r.map(|()| interp.take_output()).map_err(|e| e.message)
    };
    (out, live_after_request(&mut m))
}

/// Runs `src` on the VM on a fresh specialized machine as `run` says, with
/// `memo` attached when given. Mirrors `php_corpus::prepare`: function
/// bodies are shared between the analysis and the compiler so facts keyed
/// on node identity stay valid inside them.
fn try_run_vm(
    src: &str,
    run: VmRun,
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
    let unit = Arc::new(compile(
        &program,
        &shared,
        run.with_facts.then_some(&analysis.facts),
        CompileOptions { fuse: run.fused },
    ));
    let mut m = PhpMachine::specialized();
    if run.arena {
        m.ctx().set_arena_enabled(true);
    }
    let out = {
        let mut vm = Vm::new(&mut m, unit);
        if let Some(t) = memo {
            vm.set_memo(MemoHandle::new(t, "vm-diff"));
        }
        let r = vm.run();
        r.map(|()| vm.take_output()).map_err(|e| e.message)
    };
    (out, live_after_request(&mut m))
}

/// Runs `src` once through the fact-free tree walk and through every VM
/// variant, with and without a memo tier, asserting byte-identical output
/// and identical end-of-request live blocks everywhere. Returns the
/// (unique) output.
fn assert_engines_agree(src: &str) -> Vec<u8> {
    let (reference, live_ref) = try_run_tree(src);
    let reference = reference.unwrap_or_else(|e| panic!("tree walk fails: {e}\n{src}"));
    // Memo axis: one tier across every facts run, so all but the first
    // replay entries an earlier variant stored. Memo sites only exist in
    // facts-compiled units, so the tier is inert without facts.
    let tier: Arc<dyn MemoTier> = Arc::new(MemoCache::default());
    for run in vm_variants() {
        for memo in [None, Some(Arc::clone(&tier))] {
            let label = format!("{run:?}, memo={}", memo.is_some());
            let (out, live) = try_run_vm(src, run, memo);
            let out = out.unwrap_or_else(|e| panic!("vm ({label}) fails: {e}\n{src}"));
            assert_eq!(
                out,
                reference,
                "vm ({label}) changed the output of:\n{src}\n\
                 tree: {:?}\nvm:   {:?}",
                String::from_utf8_lossy(&reference),
                String::from_utf8_lossy(&out),
            );
            assert_eq!(
                live, live_ref,
                "vm ({label}) changed live blocks of:\n{src}"
            );
        }
    }
    reference
}

// -- corpus ------------------------------------------------------------------

/// Every corpus program, fact-free tree walk vs VM across facts × fusion ×
/// arena. This is the acceptance gate for the compile pass: each of the
/// four `CompiledUnit` variants the prepared script compiles must reproduce
/// the reference's bytes and leave the allocator in the same state.
#[test]
fn corpus_programs_are_engine_invariant() {
    for entry in php_corpus::ENTRIES {
        let p = php_corpus::prepare(entry);
        let mut m_tree = PhpMachine::specialized();
        let out_tree = p.run(&mut m_tree, false);
        let live_tree = live_after_request(&mut m_tree);
        for run in vm_variants() {
            let mut m_vm = PhpMachine::specialized();
            m_vm.ctx().set_arena_enabled(run.arena);
            let unit = Arc::new(p.compile(run.with_facts, run.fused));
            let out_vm = p.run_unit(&mut m_vm, &unit, None);
            let live_vm = live_after_request(&mut m_vm);
            assert_eq!(
                out_vm, out_tree,
                "{}/{} ({run:?}): vm changed the output",
                entry.app, entry.name
            );
            assert_eq!(
                live_vm, live_tree,
                "{}/{} ({run:?}): vm changed the end-of-request live-block count",
                entry.app, entry.name
            );
        }
    }
}

/// Corpus programs with the cross-request memo tier attached: a cold and a
/// warm run against one tier per entry and VM variant, across the arena
/// axis, must each reproduce the fact-free tree walk's bytes and
/// end-of-request live-block count.
#[test]
fn corpus_programs_are_memo_invariant() {
    for entry in php_corpus::ENTRIES {
        let p = php_corpus::prepare(entry);
        let mut m_ref = PhpMachine::specialized();
        let out_ref = p.run(&mut m_ref, false);
        let live_ref = live_after_request(&mut m_ref);
        for run in vm_variants().filter(|r| r.with_facts) {
            let unit = Arc::new(p.compile(true, run.fused));
            let tier: Arc<dyn MemoTier> = Arc::new(MemoCache::default());
            for pass in ["cold", "warm"] {
                let mut m = PhpMachine::specialized();
                m.ctx().set_arena_enabled(run.arena);
                let out = p.run_unit(&mut m, &unit, Some(Arc::clone(&tier)));
                let live = live_after_request(&mut m);
                assert_eq!(
                    out, out_ref,
                    "{}/{} ({run:?}, {pass}): memo changed the output",
                    entry.app, entry.name
                );
                assert_eq!(
                    live, live_ref,
                    "{}/{} ({run:?}, {pass}): memo changed the end-of-request \
                     live-block count",
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
// statements exercising it. Unlike the call-heavy generator below (which
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
        // assert_engines_agree covers the full fusion × facts × arena × memo
        // matrix.
        assert_engines_agree(&src);
    }
}

// -- generated call-heavy programs -------------------------------------------
//
// Each segment contributes one helper function `segN($x)` plus the main-scope
// statements that exercise it. Segments cover the interprocedural features
// the facts are derived from: constant arithmetic across a call, string
// returns feeding concats, constant `preg_*` patterns returned from helpers,
// global writes inside callees, self-recursion (an SCC in the call graph),
// and chains calling the previous segment's helper.

#[derive(Debug, Clone)]
enum CallSeg {
    /// `segN($x) = $x * k + c`, called with literal `a`.
    Arith { k: i64, c: i64, a: i64 },
    /// `segN($x) = lit . $x . '!'`, called with a literal string.
    Concat { lit: String, arg: String },
    /// `segN()` returns a constant pattern; main feeds it to `preg_match`.
    Pattern { pat: &'static str, subject: String },
    /// `segN($x)` writes a global the caller also reads.
    Global { v: i64 },
    /// Self-recursive countdown — a non-trivial SCC for the summary pass.
    Recur { n: i64, base: i64 },
    /// Calls the previous segment's helper twice and concatenates.
    Chain { a: i64 },
}

fn call_seg_strategy() -> impl Strategy<Value = CallSeg> {
    prop_oneof![
        (1i64..9, 0i64..50, 0i64..60).prop_map(|(k, c, a)| CallSeg::Arith { k, c, a }),
        ("[a-z]{0,6}", "[a-z0-9]{0,8}").prop_map(|(lit, arg)| CallSeg::Concat { lit, arg }),
        (
            prop::sample::select(vec!["[a-z]+", "[0-9]+", "wp", "ab"]),
            "[a-z ]{0,16}"
        )
            .prop_map(|(pat, subject)| CallSeg::Pattern { pat, subject }),
        (0i64..40).prop_map(|v| CallSeg::Global { v }),
        (0i64..6, 0i64..10).prop_map(|(n, base)| CallSeg::Recur { n, base }),
        (0i64..20).prop_map(|a| CallSeg::Chain { a }),
    ]
}

/// Renders the segments into one mini-PHP source: all helper functions first,
/// then the main-scope driver, then a foreach epilogue re-calling `seg0` so
/// every program ends with a loop full of calls.
fn render_calls(segs: &[CallSeg]) -> String {
    let mut funcs = String::new();
    let mut main = String::new();
    for (i, seg) in segs.iter().enumerate() {
        match seg {
            CallSeg::Arith { k, c, a } => {
                let _ = writeln!(funcs, "function seg{i}($x) {{ return $x * {k} + {c}; }}");
                let _ = writeln!(main, "$r{i} = seg{i}({a}); echo 'a{i}:', $r{i}, ';';");
            }
            CallSeg::Concat { lit, arg } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ return '{lit}' . $x . '!'; }}"
                );
                let _ = writeln!(main, "$s{i} = seg{i}('{arg}'); echo $s{i}, ';';");
            }
            CallSeg::Pattern { pat, subject } => {
                let _ = writeln!(funcs, "function seg{i}($x) {{ return '/{pat}/'; }}");
                let _ = writeln!(
                    main,
                    "$m{i} = preg_match(seg{i}(0), '{subject}'); echo 'm{i}:', $m{i}, ';';"
                );
            }
            CallSeg::Global { v } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ global $gv{i}; $gv{i} = $x + 1; return $gv{i}; }}"
                );
                let _ = writeln!(
                    main,
                    "$gv{i} = 5; $t{i} = seg{i}({v}); echo $t{i}, ':', $gv{i}, ';';"
                );
            }
            CallSeg::Recur { n, base } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ return $x ? seg{i}($x - 1) : {base}; }}"
                );
                let _ = writeln!(main, "echo 'r{i}:', seg{i}({n}), ';';");
            }
            CallSeg::Chain { a } => {
                if i == 0 {
                    let _ = writeln!(funcs, "function seg{i}($x) {{ return $x + 1; }}");
                } else {
                    let j = i - 1;
                    let _ = writeln!(
                        funcs,
                        "function seg{i}($x) {{ return seg{j}($x) . '|' . seg{j}($x); }}"
                    );
                }
                let _ = writeln!(main, "echo 'c{i}:', seg{i}({a}), ';';");
            }
        }
    }
    main.push_str("foreach (array(1, 2, 3) as $it) { echo seg0($it), ','; }\n");
    format!("{funcs}{main}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn generated_call_heavy_programs_are_facts_invariant(
        segs in prop::collection::vec(call_seg_strategy(), 1..6),
    ) {
        // The memo tier is shared across the facts variants, so every run
        // after the first replays what an earlier one stored. The
        // `CallSeg::Global` helpers write globals inside callees — exactly
        // the shape the effect analysis must refuse to memoize — so any
        // unsoundness in the purity verdicts shows up as a byte diff.
        assert_engines_agree(&render_calls(&segs));
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
    let (tree, live_tree) = try_run_tree(src);
    assert_eq!(tree, Err("maximum call depth exceeded".to_string()));
    for run in vm_variants().filter(|r| !r.arena) {
        let (vm, live_vm) = try_run_vm(src, run, None);
        assert_eq!(vm, tree, "{run:?}");
        assert_eq!(live_vm, live_tree, "{run:?}");
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
