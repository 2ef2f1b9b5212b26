//! Cross-crate integration tests: full workloads through the runtime,
//! interpreter, accelerators, and accounting.

use phpaccel::core::{compare, Engine, ExecMode, MachineConfig, PhpMachine};
use phpaccel::interp::Interp;
use phpaccel::runtime::array::ArrayKey;
use phpaccel::runtime::value::PhpValue;
use phpaccel::runtime::Category;
use phpaccel::uarch::EnergyModel;
use phpaccel::workloads::{AppKind, LoadGen};

fn small_load() -> LoadGen {
    LoadGen {
        warmup: 6,
        measured: 18,
        context_switch_every: 7,
    }
}

#[test]
fn every_app_runs_in_both_modes_without_leaks() {
    for kind in [
        AppKind::WordPress,
        AppKind::Drupal,
        AppKind::MediaWiki,
        AppKind::SpecWebBanking,
        AppKind::SpecWebEcommerce,
    ] {
        for mode in [ExecMode::Baseline, ExecMode::Specialized] {
            let mut app = kind.build(9);
            let mut m = PhpMachine::new(mode, MachineConfig::default());
            let summary = small_load().run(app.as_mut(), &mut m);
            assert!(summary.total_uops > 0, "{kind:?} {mode:?} did no work");
            let live = m.ctx().with_allocator(|a| a.live_block_count());
            assert_eq!(live, 0, "{kind:?} {mode:?} leaked {live} blocks");
        }
    }
}

#[test]
fn figure14_ordering_holds_for_all_apps() {
    let energy = EnergyModel::default();
    let mut improvements = Vec::new();
    for kind in AppKind::PHP_APPS {
        let cfg = MachineConfig::default();
        let mut base_app = kind.build(5);
        let mut spec_app = kind.build(5);
        let mut base = PhpMachine::new(ExecMode::Baseline, cfg.clone());
        let mut spec = PhpMachine::new(ExecMode::Specialized, cfg);
        small_load().run(base_app.as_mut(), &mut base);
        small_load().run(spec_app.as_mut(), &mut spec);
        let cmp = compare(kind.label(), &base, &spec, &energy);
        assert!(
            cmp.normalized_priors() < 1.0,
            "{kind:?}: priors should help"
        );
        assert!(
            cmp.normalized_specialized() < cmp.normalized_priors(),
            "{kind:?}: accelerators should help beyond priors"
        );
        assert!(cmp.energy_saving > 0.0, "{kind:?}: energy should drop");
        improvements.push((kind, cmp.improvement_over_priors()));
    }
    // Drupal benefits least (paper Figure 14).
    let drupal = improvements
        .iter()
        .find(|(k, _)| *k == AppKind::Drupal)
        .unwrap()
        .1;
    assert!(
        improvements.iter().all(|&(_, v)| drupal <= v + 1e-9),
        "Drupal should benefit least: {improvements:?}"
    );
}

#[test]
fn specialized_outputs_match_baseline_through_interpreter() {
    let script = r#"
        function summarize($post) {
            $s = strtoupper(substr($post['body'], 0, 20));
            $count = 0;
            foreach ($post['tags'] as $t) { $count = $count + 1; }
            return $s . '|' . $count . '|' . htmlspecialchars($post['title']);
        }
        $post = array(
            'title' => 'A & B <test>',
            'body' => "it's a long body with plenty of words in it",
            'tags' => array('x', 'y', 'z'),
        );
        echo summarize($post);
        echo preg_replace('/o/', '0', 'foo boo');
    "#;
    let run = |mut m: PhpMachine| {
        let mut i = Interp::new(&mut m);
        i.run(script).unwrap();
        String::from_utf8_lossy(i.output()).into_owned()
    };
    let b = run(PhpMachine::baseline());
    let s = run(PhpMachine::specialized());
    assert_eq!(b, s);
    assert!(b.contains("A &amp; B &lt;test&gt;"));
    assert!(b.contains("f00 b00"));
}

#[test]
fn context_switches_preserve_correctness() {
    let mut m = PhpMachine::specialized();
    let mut arr = m.new_array();
    for i in 0..30 {
        m.array_set(
            &mut arr,
            ArrayKey::from(format!("k{i}")),
            PhpValue::from(i as i64),
        );
    }
    let blocks: Vec<_> = (0..10).map(|_| m.alloc(64)).collect();
    m.context_switch();
    // All data still reachable afterwards.
    for i in 0..30 {
        let v = m.array_get(&arr, &ArrayKey::from(format!("k{i}"))).unwrap();
        assert!(v.loose_eq(&PhpValue::from(i as i64)));
    }
    for b in blocks {
        m.free(b);
    }
    m.end_request();
    assert_eq!(m.ctx().with_allocator(|a| a.live_block_count()), 0);
}

#[test]
fn profiler_categories_cover_the_paper_inventory() {
    let mut app = AppKind::WordPress.build(4);
    let mut m = PhpMachine::baseline();
    small_load().run(app.as_mut(), &mut m);
    let cats = m.ctx().profiler().category_breakdown();
    for cat in Category::ALL {
        assert!(
            cats.get(&cat).copied().unwrap_or(0) > 0,
            "category {cat:?} unexercised"
        );
    }
}

#[test]
fn flat_profile_property_of_php_apps() {
    let mut app = AppKind::MediaWiki.build(8);
    let mut m = PhpMachine::baseline();
    LoadGen {
        warmup: 5,
        measured: 30,
        context_switch_every: 0,
    }
    .run(app.as_mut(), &mut m);
    let prof = m.ctx().profiler();
    assert!(
        prof.function_count() > 120,
        "flat profile needs many leaves"
    );
    assert!(prof.cumulative_share(1) < 0.35, "hottest fn bounded");
    assert!(prof.cumulative_share(100) > 0.60, "100 fns majority");
}

#[test]
fn accelerator_statistics_are_consistent() {
    let mut app = AppKind::WordPress.build(6);
    let mut m = PhpMachine::specialized();
    small_load().run(app.as_mut(), &mut m);
    let ht = m.core().htable.stats();
    assert!(ht.get_hits <= ht.gets);
    assert!(ht.set_hits + ht.set_inserts <= ht.sets);
    assert!(ht.hit_rate() <= 1.0 && ht.hit_rate() >= 0.0);
    let heap = m.core().heap.stats();
    assert_eq!(heap.mallocs, heap.malloc_hits + heap.malloc_misses);
    assert_eq!(heap.frees, heap.free_hits + heap.free_spills);
    let s = m.core().straccel.stats();
    assert!(s.bytes >= s.blocks, "blocks process at least a byte each");
    let r = m.core().regex_stats;
    assert!(r.bytes_scanned + r.bytes_skipped_sift <= r.bytes_total + r.bytes_scanned);
}

#[test]
fn machine_config_knobs_are_respected() {
    let mut cfg = MachineConfig::default();
    cfg.htable.entries = 16;
    cfg.heap.freelist_entries = 4;
    let mut m = PhpMachine::new(ExecMode::Specialized, cfg);
    let mut arr = m.new_array();
    for i in 0..100 {
        m.array_set(
            &mut arr,
            ArrayKey::from(format!("key{i}")),
            PhpValue::from(i as i64),
        );
    }
    // Tiny table: dirty evictions must have happened.
    assert!(m.core().htable.stats().evict_dirty > 0);
    for _ in 0..20 {
        let b = m.alloc(32);
        m.free(b);
    }
    m.end_request();
}

#[test]
fn static_analysis_preserves_corpus_outputs_exactly() {
    use phpaccel::workloads::php_corpus;
    for entry in php_corpus::ENTRIES {
        let prepared = php_corpus::prepare(entry);
        for mode in [ExecMode::Baseline, ExecMode::Specialized] {
            let mut off = PhpMachine::new(mode, MachineConfig::default());
            let mut on = PhpMachine::new(mode, MachineConfig::default());
            on.set_engine(Engine::Vm);
            let plain = prepared.run(&mut off, false);
            let specialized = prepared.run(&mut on, true);
            assert_eq!(
                plain, specialized,
                "{}/{} output diverged with analysis enabled ({mode:?})",
                entry.app, entry.name
            );
            assert_eq!(off.ctx().profiler().static_savings().total(), 0);
        }
    }
}

#[test]
fn static_analysis_saves_work_on_the_wordpress_workload() {
    use phpaccel::workloads::php_corpus;
    // The WordPress scripts of the corpus, three requests each, on the
    // serving engine: compiled with the facts against compiled without.
    let scripts: Vec<_> = php_corpus::for_app("wordpress")
        .into_iter()
        .map(php_corpus::prepare)
        .collect();
    let run = |mode: ExecMode, with_facts: bool| {
        let mut m = PhpMachine::new(mode, MachineConfig::default());
        m.set_engine(Engine::Vm);
        let mut out = Vec::new();
        for _ in 0..3 {
            for p in &scripts {
                out.extend(p.run(&mut m, with_facts));
                m.end_request();
            }
        }
        (out, m)
    };
    for mode in [ExecMode::Baseline, ExecMode::Specialized] {
        let (bytes_on, on) = run(mode, true);
        let (bytes_off, off) = run(mode, false);
        assert_eq!(
            bytes_on, bytes_off,
            "facts must not change a byte ({mode:?})"
        );

        let s = on.ctx().profiler().static_savings();
        assert!(
            s.type_checks_avoided > 0,
            "no type checks avoided ({mode:?})"
        );
        assert!(
            s.rc_incs_avoided > 0,
            "no refcount increments elided ({mode:?})"
        );
        assert!(
            s.rc_decs_avoided > 0,
            "no refcount decrements elided ({mode:?})"
        );
        if mode == ExecMode::Specialized {
            assert!(
                on.core().htable.stats().hinted_hash_skips > 0,
                "no hinted probes"
            );
        }
        assert_eq!(off.ctx().profiler().static_savings().total(), 0);
        // Analysis only ever removes metered work.
        let (u_on, u_off) = (
            on.ctx().profiler().total_uops(),
            off.ctx().profiler().total_uops(),
        );
        assert!(
            u_on < u_off,
            "analysis must shrink the µop stream ({mode:?}): {u_on} vs {u_off}"
        );
    }
}

#[test]
fn mid_request_panic_recovery_matches_never_accelerated_run() {
    use phpaccel::runtime::PhpStr;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // The same request sequence — including one request that panics midway
    // and is recovered — on a baseline and a specialized machine. After
    // `recover_request` (hmflush, hash-table invalidate, engine resets) the
    // software map contents, the rendered follow-up output, and the slab
    // allocator accounting must be indistinguishable between the modes.
    let run = |mode: ExecMode| -> (Vec<u8>, u64, usize) {
        let mut m = PhpMachine::new(mode, MachineConfig::default());
        let mut arr = m.new_array();

        // Request 0: normal traffic across all domains.
        for k in 0..8u64 {
            m.array_set(
                &mut arr,
                ArrayKey::Str(format!("k{k}").into()),
                PhpValue::Int(k as i64 * 3),
            );
        }
        let s: PhpStr = "  Mixed CASE <tag>  ".into();
        let t = m.trim(&s);
        let _ = m.strtolower(&t);
        m.end_request();

        // Doomed request: mutates the map, allocates, touches the string
        // unit — then dies mid-flight.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            for k in 0..5u64 {
                m.array_set(
                    &mut arr,
                    ArrayKey::Str(format!("k{k}").into()),
                    PhpValue::Int(1000 + k as i64),
                );
            }
            m.alloc_scoped(256);
            m.alloc_scoped(512);
            let s: PhpStr = "half-done request".into();
            let _ = m.strtoupper(&s);
            panic!("simulated mid-request crash");
        }));
        std::panic::set_hook(hook);
        assert!(crashed.is_err());
        m.recover_request();

        // Follow-up request: render everything that survived.
        let mut out = Vec::new();
        for (k, v) in m.foreach(&arr) {
            out.extend_from_slice(format!("{k:?}={v:?};").as_bytes());
        }
        for k in 0..8u64 {
            let v = m.array_get(&arr, &ArrayKey::Str(format!("k{k}").into()));
            out.extend_from_slice(format!("{v:?},").as_bytes());
        }
        let s: PhpStr = "  After & Recovery  ".into();
        let t = m.trim(&s);
        let esc = m.htmlspecialchars(&t);
        out.extend_from_slice(esc.as_bytes());
        m.end_request();

        let (live_bytes, live_blocks) = m
            .ctx()
            .with_allocator(|a| (a.live_bytes(), a.live_block_count()));
        (out, live_bytes, live_blocks)
    };

    let (base_out, base_bytes, base_blocks) = run(ExecMode::Baseline);
    let (spec_out, spec_bytes, spec_blocks) = run(ExecMode::Specialized);
    assert_eq!(
        base_out, spec_out,
        "post-recovery output diverged between modes"
    );
    assert_eq!(
        (base_bytes, base_blocks),
        (spec_bytes, spec_blocks),
        "slab allocator accounting diverged after recovery"
    );
    assert_eq!(base_blocks, 0, "recovery must leave no live blocks");
}
