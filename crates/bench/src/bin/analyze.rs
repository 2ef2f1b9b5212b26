//! `analyze` — static-analysis reports over the mini-PHP corpus.
//!
//! For every corpus script: per-function type-inference coverage, elidable
//! refcount counts, proven key shapes, and the four lint diagnostics
//! (use-before-assign, dead-store, type-guard, constant-condition). Each
//! script is then executed by tree walk without facts, the byte reference,
//! and on the serving engine (the compiled VM with facts) to verify the
//! outputs are byte-identical and to measure what the facts save (skipped
//! type checks, elided refcount ops, hash-table operations) and which
//! opcodes run.
//!
//! Usage: `analyze [--corpus APP] [--gate ALLOWLIST]` where APP is one of
//! the corpus applications (e.g. `wordpress`); default is all of them. For
//! `wordpress` the full request workload is also driven through the load
//! generator with analysis enabled, showing the per-request savings.
//!
//! `--gate FILE` turns lints into errors: every lint must be covered by a
//! substring line in FILE (blank lines and `#` comments ignored), and the
//! run exits 1 listing any uncovered lint. `scripts/check.sh` uses this to
//! keep the corpus lint-clean modulo the intentional examples.

use bench::{header, quick_load, serving_machine};
use php_analysis::report::parse_allowlist;
use php_interp::{MemoTier, SimpleMemo, Vm};
use phpaccel_core::PhpMachine;
use std::sync::Arc;
use workloads::php_corpus;
use workloads::{WordPress, Workload};

/// Loads the gate allowlist through the lint-registry parser: one substring
/// per line, `#` comments allowed, `[kind]` prefixes validated against
/// [`php_analysis::LintKind::ALL`] so a typoed kind fails the run instead
/// of silently never matching.
fn load_allowlist(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read allowlist {path}: {e}");
        std::process::exit(2);
    });
    parse_allowlist(&text).unwrap_or_else(|e| {
        eprintln!("bad allowlist {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut filter: Option<String> = None;
    let mut gate: Option<Vec<String>> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--corpus" => {
                filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--corpus requires an application name");
                    std::process::exit(2);
                }));
            }
            "--gate" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--gate requires an allowlist file");
                    std::process::exit(2);
                });
                gate = Some(load_allowlist(&path));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: analyze [--corpus APP] [--gate ALLOWLIST]");
                std::process::exit(2);
            }
        }
    }

    let apps = match &filter {
        Some(app) => {
            if !php_corpus::apps().contains(&app.as_str()) {
                eprintln!(
                    "unknown corpus app {app:?}; known: {:?}",
                    php_corpus::apps()
                );
                std::process::exit(2);
            }
            vec![app.as_str()]
        }
        None => php_corpus::apps(),
    };

    header(
        "analyze — static specialization of the mini-PHP corpus",
        "type checks, refcount pairs, and hash stages removed before the \
         accelerators ever see them",
    );

    let mut unallowed: Vec<String> = Vec::new();
    for app in &apps {
        for entry in php_corpus::for_app(app) {
            let prepared = php_corpus::prepare(entry);
            println!("\n── {}/{} ──", entry.app, entry.name);
            for scope in &prepared.report.scopes {
                println!("  {scope}");
            }
            if prepared.report.lints.is_empty() {
                println!("  lints: none");
            } else {
                for lint in &prepared.report.lints {
                    println!("  {lint}");
                    if let Some(allow) = &gate {
                        let line = lint.to_string();
                        if !allow.iter().any(|a| line.contains(a.as_str())) {
                            unallowed.push(format!("{}/{}: {line}", entry.app, entry.name));
                        }
                    }
                }
            }
            println!(
                "  interproc: summarized-calls={} preg-precompiled={}",
                prepared.report.summarized_calls(),
                prepared.report.preg_precompiled(),
            );

            // Effect summaries: the per-function verdicts the memo pass is
            // grounded in — transitive global read/write sets and the
            // purity lattice point, plus how many call sites were proven
            // memoizable on the strength of each row.
            for f in &prepared.report.effects {
                let mark = if f.opaque { " opaque" } else { "" };
                println!(
                    "  effect: {}() {}{mark} reads=[{}] writes=[{}] echoes={} memo-sites={}",
                    f.name,
                    f.purity.name(),
                    f.reads.join(","),
                    f.writes.join(","),
                    f.echoes,
                    f.memo_sites,
                );
            }

            // The byte reference: a tree walk with no facts. Then the
            // serving engine, the VM with facts, whose savings are printed
            // and whose dynamic opcode mix — the top-10 opcodes and
            // statically adjacent pairs — is the data the superinstruction
            // selection in `php_interp::compile` is grounded in.
            let mut off = PhpMachine::specialized();
            let plain = prepared.run(&mut off, false);
            let mut on = serving_machine();
            let tally = {
                let mut vm = Vm::new(&mut on, Arc::clone(prepared.vm_unit(true, true)));
                if entry.needs_request_vars {
                    php_corpus::bind_request_vars_vm(&mut vm);
                }
                if let Err(e) = vm.run() {
                    eprintln!("FAIL: {}/{} vm run errored: {e:?}", entry.app, entry.name);
                    std::process::exit(1);
                }
                if vm.take_output() != plain {
                    eprintln!(
                        "FAIL: {}/{} output diverged on the vm engine with analysis on",
                        entry.app, entry.name
                    );
                    std::process::exit(1);
                }
                vm.tally().clone()
            };
            let s = on.ctx().profiler().static_savings();
            let ht = on.core().htable.stats();
            println!(
                "  verify: outputs byte-identical on/off ({} bytes)",
                plain.len()
            );
            println!(
                "  saved:  type-checks={} rc-incs={} rc-decs={} \
                 ht-hash-skips={} ht-append-inserts={}",
                s.type_checks_avoided,
                s.rc_incs_avoided,
                s.rc_decs_avoided,
                ht.hinted_hash_skips,
                ht.hinted_append_inserts,
            );
            println!(
                "  saved:  summaries-applied={} regex-compiles-avoided={} \
                 heap-classes-preseeded={} taint-lints={}",
                s.summaries_applied,
                s.regex_compiles_avoided,
                s.heap_classes_preseeded,
                s.taint_lints_flagged,
            );

            // Memoization demo: two requests against one cross-request
            // tier. The cold request stores at every proven site, the warm
            // one replays — and both must still print the memo-off bytes.
            let tier: Arc<dyn MemoTier> = Arc::new(SimpleMemo::new());
            let mut warm = (0, 0, 0, 0);
            for pass in ["cold", "warm"] {
                let mut m = serving_machine();
                let out = prepared.run_memo(&mut m, true, Some(Arc::clone(&tier)));
                if out != plain {
                    eprintln!(
                        "FAIL: {}/{} output diverged with the memo tier ({pass})",
                        entry.app, entry.name
                    );
                    std::process::exit(1);
                }
                let ms = m.ctx().profiler().static_savings();
                warm = (
                    ms.memo_hits,
                    ms.memo_misses,
                    ms.memo_stores,
                    ms.memo_invalidations,
                );
            }
            println!(
                "  memo:   sites={} warm-request: hits={} misses={} \
                 stores={} invalidations={}",
                prepared.report.memo_sites(),
                warm.0,
                warm.1,
                warm.2,
                warm.3,
            );

            println!(
                "  vm:     ops-executed={} fused-ops={} transients-elided={}",
                tally.total, tally.fused, tally.transients_elided,
            );
            let ops: Vec<String> = tally
                .top_ops()
                .into_iter()
                .take(10)
                .map(|(k, n)| format!("{}={n}", k.name()))
                .collect();
            println!("  vm-ops: {}", ops.join(" "));
            let pairs: Vec<String> = tally
                .top_pairs()
                .into_iter()
                .take(10)
                .map(|((a, b), n)| format!("{}+{}={n}", a.name(), b.name()))
                .collect();
            println!("  vm-pairs: {}", pairs.join(" "));
        }
    }

    if let Some(allow) = &gate {
        if unallowed.is_empty() {
            println!(
                "\ngate: all lints covered by the allowlist ({} patterns)",
                allow.len()
            );
        } else {
            eprintln!("\ngate: {} lint(s) not in the allowlist:", unallowed.len());
            for line in &unallowed {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    }

    if apps.contains(&"wordpress") {
        println!("\n── wordpress workload (load generator, analysis enabled) ──");
        let mut app = WordPress::new(0xA11A);
        app.enable_static_analysis();
        let mut m = PhpMachine::specialized();
        let summary = quick_load().run(&mut app, &mut m);
        let s = m.ctx().profiler().static_savings();
        let ht = m.core().htable.stats();
        println!(
            "  requests={} total-uops={}",
            summary.requests, summary.total_uops
        );
        println!(
            "  saved:  type-checks={} rc-incs={} rc-decs={} (total {})",
            s.type_checks_avoided,
            s.rc_incs_avoided,
            s.rc_decs_avoided,
            s.total(),
        );
        println!(
            "  saved:  summaries-applied={} regex-compiles-avoided={} \
             heap-classes-preseeded={} taint-lints={}",
            s.summaries_applied,
            s.regex_compiles_avoided,
            s.heap_classes_preseeded,
            s.taint_lints_flagged,
        );
        println!(
            "  htable: hinted-hash-skips={} hinted-append-inserts={}",
            ht.hinted_hash_skips, ht.hinted_append_inserts
        );
    }
}
