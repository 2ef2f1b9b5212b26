//! Host cost of keeping the simulated clock: the µop ledger, the opcode
//! tally, variable access in the VM loop and a `preg_match` on a warm
//! prebuilt pattern. These time the *instrument*, not the model; the
//! paper's quantities are the µops the same calls meter.
//!
//! The criterion stand-in reports whole nanoseconds per iteration, so every
//! routine does [`BATCH`] events per iteration: read "ns/iter" as ns per
//! thousand events.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use php_interp::compile::{compile, CompileOptions, OpKind};
use php_interp::{parse, OpcodeTally, Vm};
use php_runtime::profile::{Category, Leaf, OpCost, Profiler};
use php_runtime::{ArrayKey, PhpStr, PhpValue, RuntimeContext};
use phpaccel_core::PhpMachine;
use regex_engine::Regex;

/// Events per timed iteration.
const BATCH: usize = 1_000;

static BENCH_LEAF: Leaf = Leaf::new("bench_metering_leaf", Category::Other);

fn bench_ledger(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger (x1000)");
    g.bench_function("Profiler::record hit", |b| {
        let prof = Profiler::new();
        b.iter(|| {
            for _ in 0..BATCH {
                prof.record(black_box(&BENCH_LEAF), OpCost::mixed(90));
            }
        })
    });
    g.bench_function("RuntimeContext::charge_jit", |b| {
        let ctx = RuntimeContext::new();
        b.iter(|| {
            for _ in 0..BATCH {
                ctx.charge_jit(black_box(1));
            }
        })
    });
    g.bench_function("OpcodeTally::note", |b| {
        let mut tally = OpcodeTally::default();
        b.iter(|| {
            for _ in 0..BATCH / 2 {
                tally.note(black_box(OpKind::LoadSlot), Some(OpKind::StoreSlot));
                tally.note(black_box(OpKind::StoreSlot), Some(OpKind::LoadSlot));
            }
            tally.total
        })
    });
    g.finish();
}

fn bench_vm_vars(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm loop (x1000)");
    // What a variable read and write cost while variables lived in a
    // symbol-table array (PR 13 measured the VM's `LoadVar` + `StoreVar`
    // pair at 212 ns): one metered hash GET and one SET with a string key.
    // The tree-walker and the VM's spill table still pay this.
    g.bench_function("symtab get + set pair", |b| {
        let mut m = PhpMachine::baseline();
        let mut table = m.new_array();
        let (x, y) = (ArrayKey::from("x"), ArrayKey::from("y"));
        m.array_set(&mut table, x.clone(), PhpValue::str("v"));
        b.iter(|| {
            for _ in 0..BATCH {
                let v = m.array_get(&table, black_box(&x)).expect("bound above");
                m.array_set(&mut table, y.clone(), v);
            }
        })
    });
    // A straight line of `$y = $x;`: one LoadSlot and one StoreSlot each
    // (plus the dispatch, the fuel step and the type-check and refcount
    // charges under them). The first statement binds `$x`; `Vm::new` and
    // `end_request` are once per thousand pairs.
    g.bench_function("LoadSlot + StoreSlot pair", |b| {
        let src = format!("$x = 'v'; {}", "$y = $x; ".repeat(BATCH));
        let prog = parse(&src).expect("the bench script parses");
        let unit = Arc::new(compile(&prog, &[], None, CompileOptions { fuse: true }));
        let mut m = PhpMachine::baseline();
        b.iter(|| {
            let mut vm = Vm::new(&mut m, Arc::clone(&unit));
            vm.run().expect("the bench script runs");
            drop(vm);
            m.end_request();
        })
    });
    g.finish();
}

fn bench_preg(c: &mut Criterion) {
    let mut g = c.benchmark_group("regex (x1000)");
    g.bench_function("preg_match, warm shared pattern", |b| {
        let re = Arc::new(Regex::new("[0-9]+").expect("the bench pattern compiles"));
        let subject = PhpStr::from("order number 42 shipped");
        let mut m = PhpMachine::specialized();
        assert!(m.preg_match(&re, &subject));
        b.iter(|| {
            for _ in 0..BATCH {
                black_box(m.preg_match(black_box(&re), &subject));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ledger, bench_vm_vars, bench_preg);
criterion_main!(benches);
