//! Differential soundness harness for the static analyses.
//!
//! The facts table is only allowed to remove *metered* work — type checks,
//! refcount traffic, hash-table probe stages, regex compiles. Attaching it
//! must never change what a script prints or how many heap blocks survive
//! the request. This harness runs every corpus program, plus a family of
//! generated call-heavy programs, both fully dynamic and with facts
//! attached, and demands byte-identical output and identical live-block
//! counts.

use php_analysis::analyze_with_funcs;
use php_interp::ast::{FuncDef, Stmt};
use php_interp::{parse, Interp, MemoCache, MemoHandle, MemoTier};
use phpaccel_core::PhpMachine;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use workloads::php_corpus;

/// Runs `src` on a fresh specialized machine, returning the output bytes and
/// the *end-of-request* live-block count (after the request boundary, so an
/// arena epoch has been reclaimed). Mirrors `php_corpus::prepare`: function
/// bodies are shared between the analysis and the interpreter so facts stay
/// valid inside them.
fn run_generated_with(
    src: &str,
    with_facts: bool,
    arena: bool,
    memo: Option<Arc<dyn MemoTier>>,
) -> (Vec<u8>, usize) {
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
    let out = {
        let mut interp = Interp::new(&mut m);
        interp.predefine_funcs(shared.iter().cloned());
        if with_facts {
            interp.set_facts(facts);
        }
        if let Some(t) = memo {
            interp.set_memo(MemoHandle::new(t, "diff-test"));
        }
        interp
            .run_program(&program)
            .unwrap_or_else(|e| panic!("generated program fails: {e:?}\n{src}"));
        interp.take_output()
    };
    m.end_request();
    let live = m.ctx().with_allocator(|a| a.live_block_count());
    (out, live)
}

fn run_generated(src: &str, with_facts: bool) -> (Vec<u8>, usize) {
    run_generated_with(src, with_facts, false, None)
}

#[test]
fn corpus_programs_are_facts_invariant() {
    for entry in php_corpus::ENTRIES {
        let p = php_corpus::prepare(entry);
        let mut m_dyn = PhpMachine::specialized();
        let out_dyn = p.run(&mut m_dyn, false);
        let mut m_facts = PhpMachine::specialized();
        let out_facts = p.run(&mut m_facts, true);
        assert_eq!(
            out_dyn, out_facts,
            "{}/{}: facts changed the output",
            entry.app, entry.name
        );
        let live_dyn = m_dyn.ctx().with_allocator(|a| a.live_block_count());
        let live_facts = m_facts.ctx().with_allocator(|a| a.live_block_count());
        assert_eq!(
            live_dyn, live_facts,
            "{}/{}: facts changed the live-block count",
            entry.app, entry.name
        );
    }
}

/// Arena/epoch mode is a pure allocation-policy change: with the same facts
/// attached, routing region-proven sites through the bump arena must not
/// change a byte of output, and after the request-boundary epoch reset both
/// machines must hold the same number of live blocks (escaping allocations
/// only — the arena's were reclaimed in O(1), the free lists' one by one).
#[test]
fn corpus_programs_are_arena_invariant() {
    for entry in php_corpus::ENTRIES {
        let p = php_corpus::prepare(entry);

        let mut m_off = PhpMachine::specialized();
        let out_off = p.run(&mut m_off, true);
        m_off.end_request();

        let mut m_on = PhpMachine::specialized();
        m_on.ctx().set_arena_enabled(true);
        let out_on = p.run(&mut m_on, true);
        m_on.end_request();

        assert_eq!(
            out_off, out_on,
            "{}/{}: arena mode changed the output",
            entry.app, entry.name
        );
        let live_off = m_off.ctx().with_allocator(|a| a.live_block_count());
        let live_on = m_on.ctx().with_allocator(|a| a.live_block_count());
        assert_eq!(
            live_off, live_on,
            "{}/{}: arena mode changed the end-of-request live-block count",
            entry.app, entry.name
        );
    }
}

/// Memo mode is a pure evaluation shortcut: with a warm cross-request tier
/// attached (second run against the same cache, so hits actually replay),
/// every corpus program must print the same bytes and leave the same number
/// of live blocks after the request boundary as the memo-off run — with and
/// without the arena underneath.
#[test]
fn corpus_programs_are_memo_invariant() {
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
            for label in ["cold", "warm"] {
                let mut m_on = PhpMachine::specialized();
                if arena {
                    m_on.ctx().set_arena_enabled(true);
                }
                let out_on = p.run_memo(&mut m_on, true, Some(Arc::clone(&tier)));
                m_on.end_request();
                let live_on = m_on.ctx().with_allocator(|a| a.live_block_count());
                assert_eq!(
                    out_off, out_on,
                    "{}/{} (arena={arena}, {label}): memo changed the output",
                    entry.app, entry.name
                );
                assert_eq!(
                    live_off, live_on,
                    "{}/{} (arena={arena}, {label}): memo changed the \
                     end-of-request live-block count",
                    entry.app, entry.name
                );
            }
        }
    }
}

// -- generated call-heavy programs -------------------------------------------
//
// Each segment contributes one helper function `segN($x)` plus the main-scope
// statements that exercise it. Segments cover the interprocedural features:
// constant arithmetic across a call, string returns feeding concats, constant
// `preg_*` patterns returned from helpers, global writes inside callees,
// self-recursion (an SCC in the call graph), and chains calling the previous
// segment's helper.

#[derive(Debug, Clone)]
enum Seg {
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

fn seg_strategy() -> impl Strategy<Value = Seg> {
    prop_oneof![
        (1i64..9, 0i64..50, 0i64..60).prop_map(|(k, c, a)| Seg::Arith { k, c, a }),
        ("[a-z]{0,6}", "[a-z0-9]{0,8}").prop_map(|(lit, arg)| Seg::Concat { lit, arg }),
        (
            prop::sample::select(vec!["[a-z]+", "[0-9]+", "wp", "ab"]),
            "[a-z ]{0,16}"
        )
            .prop_map(|(pat, subject)| Seg::Pattern { pat, subject }),
        (0i64..40).prop_map(|v| Seg::Global { v }),
        (0i64..6, 0i64..10).prop_map(|(n, base)| Seg::Recur { n, base }),
        (0i64..20).prop_map(|a| Seg::Chain { a }),
    ]
}

/// Renders the segments into one mini-PHP source: all helper functions first,
/// then the main-scope driver, then a foreach epilogue re-calling `seg0` so
/// every program ends with a loop full of calls.
fn render(segs: &[Seg]) -> String {
    let mut funcs = String::new();
    let mut main = String::new();
    for (i, seg) in segs.iter().enumerate() {
        match seg {
            Seg::Arith { k, c, a } => {
                let _ = writeln!(funcs, "function seg{i}($x) {{ return $x * {k} + {c}; }}");
                let _ = writeln!(main, "$r{i} = seg{i}({a}); echo 'a{i}:', $r{i}, ';';");
            }
            Seg::Concat { lit, arg } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ return '{lit}' . $x . '!'; }}"
                );
                let _ = writeln!(main, "$s{i} = seg{i}('{arg}'); echo $s{i}, ';';");
            }
            Seg::Pattern { pat, subject } => {
                let _ = writeln!(funcs, "function seg{i}($x) {{ return '/{pat}/'; }}");
                let _ = writeln!(
                    main,
                    "$m{i} = preg_match(seg{i}(0), '{subject}'); echo 'm{i}:', $m{i}, ';';"
                );
            }
            Seg::Global { v } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ global $gv{i}; $gv{i} = $x + 1; return $gv{i}; }}"
                );
                let _ = writeln!(
                    main,
                    "$gv{i} = 5; $t{i} = seg{i}({v}); echo $t{i}, ':', $gv{i}, ';';"
                );
            }
            Seg::Recur { n, base } => {
                let _ = writeln!(
                    funcs,
                    "function seg{i}($x) {{ return $x ? seg{i}($x - 1) : {base}; }}"
                );
                let _ = writeln!(main, "echo 'r{i}:', seg{i}({n}), ';';");
            }
            Seg::Chain { a } => {
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
        segs in prop::collection::vec(seg_strategy(), 1..6),
    ) {
        let src = render(&segs);
        let (out_dyn, live_dyn) = run_generated(&src, false);
        let (out_facts, live_facts) = run_generated(&src, true);
        prop_assert_eq!(&out_dyn, &out_facts, "facts changed the output of:\n{}", src);
        prop_assert_eq!(live_dyn, live_facts, "facts changed live blocks of:\n{}", src);

        // Same facts, arena mode on: the allocation policy must be invisible.
        let (out_arena, live_arena) = run_generated_with(&src, true, true, None);
        prop_assert_eq!(&out_dyn, &out_arena, "arena mode changed the output of:\n{}", src);
        prop_assert_eq!(
            live_dyn, live_arena,
            "arena mode changed end-of-request live blocks of:\n{}", src
        );

        // Memo axis: run the same program twice against one warm tier (so
        // second-request replays actually fire where the analysis proved a
        // site), then once more with the arena on top. The generated
        // `Seg::Global` helpers write globals inside callees — exactly the
        // shape the effect analysis must refuse to memoize — so any
        // unsoundness in the purity verdicts shows up as a byte diff here.
        let tier: Arc<dyn MemoTier> = Arc::new(MemoCache::default());
        for label in ["cold", "warm"] {
            let (out_memo, live_memo) =
                run_generated_with(&src, true, false, Some(Arc::clone(&tier)));
            prop_assert_eq!(
                &out_dyn, &out_memo,
                "memo ({}) changed the output of:\n{}", label, src
            );
            prop_assert_eq!(
                live_dyn, live_memo,
                "memo ({}) changed end-of-request live blocks of:\n{}", label, src
            );
        }
        let (out_am, live_am) = run_generated_with(&src, true, true, Some(tier));
        prop_assert_eq!(
            &out_dyn, &out_am,
            "memo x arena changed the output of:\n{}", src
        );
        prop_assert_eq!(
            live_dyn, live_am,
            "memo x arena changed end-of-request live blocks of:\n{}", src
        );
    }
}
