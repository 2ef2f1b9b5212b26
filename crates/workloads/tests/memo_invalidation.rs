//! Invalidation soundness for the cross-request memo tier.
//!
//! The memo key embeds the *values* of every read-set global, so a stale
//! replay is impossible by construction — these tests pin that down by
//! writing to a dependency between two calls of a memoized function (a
//! direct global rebind, and an indexed write through the global's array)
//! and checking the second call observes the new value on the compiled VM,
//! the engine that consumes the memo tier, with the write-triggered
//! invalidation counters actually firing.

use php_analysis::analyze_with_funcs;
use php_interp::ast::{FuncDef, Stmt};
use php_interp::{compile, parse, CompileOptions, MemoCache, MemoHandle, MemoHit, MemoTier, Vm};
use phpaccel_core::PhpMachine;
use std::sync::{Arc, Mutex};

/// Runs `src` once on the VM on a fresh machine, compiled with facts and
/// with the given memo tier (if any); returns the output bytes and the
/// machine's memo counters `(hits, misses, stores, invalidations)`.
fn run_once(src: &str, tier: Option<Arc<dyn MemoTier>>) -> (Vec<u8>, (u64, u64, u64, u64)) {
    let program = parse(src).expect("test source parses");
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
        Some(&analysis.facts),
        CompileOptions { fuse: true },
    ));
    let mut m = PhpMachine::specialized();
    let mut vm = Vm::new(&mut m, unit);
    if let Some(t) = tier {
        vm.set_memo(MemoHandle::new(t, "inval-test"));
    }
    vm.run().expect("test source runs on vm");
    let out = vm.take_output();
    let s = m.ctx().profiler().static_savings();
    (
        out,
        (
            s.memo_hits,
            s.memo_misses,
            s.memo_stores,
            s.memo_invalidations,
        ),
    )
}

/// A direct rebind of a read-set global between two identical calls: the
/// second call must see the new value, never the cached first result.
const DIRECT_REBIND: &str = r#"
$cfg = 'A';
function render($x) {
    global $cfg;
    return $x . ':' . $cfg;
}
echo render('a');
$cfg = 'B';
echo render('a');
"#;

/// The same hazard through an indexed write: the dependency is an array
/// global and the write lands on one of its keys, not the binding itself.
const INDEXED_WRITE: &str = r#"
$conf = array();
$conf['mode'] = 'fast';
function mode_line($p) {
    global $conf;
    return $p . '=' . $conf['mode'];
}
echo mode_line('m');
$conf['mode'] = 'slow';
echo mode_line('m');
"#;

#[test]
fn dependency_writes_never_replay_stale_values() {
    for (name, src, expected) in [
        ("direct-rebind", DIRECT_REBIND, "a:Aa:B"),
        ("indexed-write", INDEXED_WRITE, "m=fastm=slow"),
    ] {
        let (plain, _) = run_once(src, None);
        assert_eq!(plain, expected.as_bytes(), "{name} memo-off");

        let tier = Arc::new(MemoCache::default());
        let (memoized, (hits, misses, stores, invalidations)) = run_once(src, Some(tier));
        assert_eq!(
            memoized, plain,
            "{name}: a dependency write must flow into the next call, not be \
             shadowed by a stale memo entry"
        );
        assert_eq!(hits, 0, "{name}: both keys are distinct");
        assert!(misses >= 2 && stores >= 1, "{name}");
        assert!(
            invalidations >= 1,
            "{name}: the write must purge the fingerprinted entry, got \
             hits={hits} misses={misses} stores={stores}"
        );
    }
}

/// Across requests against one warm tier: a dependency-free helper replays,
/// while an entry whose dependency is rewritten at the top of every request
/// is invalidated before it could ever be (incorrectly or not) reused with
/// the counters to prove it.
#[test]
fn warm_tier_hits_are_dependency_faithful_across_requests() {
    let tier: Arc<MemoCache> = Arc::new(MemoCache::default());
    let mut outputs = Vec::new();
    let mut last = (0, 0, 0, 0);
    for _ in 0..3 {
        let (out, counters) = run_once(DIRECT_REBIND, Some(tier.clone() as Arc<dyn MemoTier>));
        outputs.push(out);
        last = counters;
    }
    assert!(
        outputs.iter().all(|o| o == &outputs[0]),
        "requests must be reproducible"
    );
    // Every request rebinds $cfg twice, so entries fingerprinted on it are
    // purged each request: the warm tier keeps serving misses, and the
    // per-request invalidation counter stays live.
    let (hits, _misses, _stores, invalidations) = last;
    assert_eq!(hits, 0, "rewritten deps must not accumulate hits");
    assert!(invalidations >= 1);
}

/// A tier that records the dependency name of every `invalidate` call it
/// receives, over a [`MemoCache`] that does the work.
#[derive(Default)]
struct RecordingTier {
    inner: MemoCache,
    invalidate_calls: Mutex<Vec<String>>,
}

impl MemoTier for RecordingTier {
    fn lookup(&self, key: &str) -> Option<MemoHit> {
        self.inner.lookup(key)
    }
    fn store(&self, key: String, deps: Vec<String>, hit: MemoHit) {
        self.inner.store(key, deps, hit);
    }
    fn invalidate(&self, dep: &str) -> u64 {
        self.invalidate_calls.lock().unwrap().push(dep.to_string());
        self.inner.invalidate(dep)
    }
}

/// A memoized helper that reads no global: nothing a script writes can match
/// a stored fingerprint.
const NO_DEPS: &str = r#"
$a = 1;
$list = array();
function square($x) {
    return $x * $x;
}
echo square(3);
$a = 2;
$list[] = $a;
foreach ($list as $k => $v) { echo $k, $v; }
echo square(3);
"#;

/// `$cfg` is a dependency, `$other` and `$log` are not; the dependency is
/// rebound, written through an index, and bound by a `foreach`.
const MIXED_WRITES: &str = r#"
$cfg = array('m' => 'A');
$other = 1;
function render($x) {
    global $cfg;
    return $x . ':' . $cfg['m'];
}
echo render('a');
$other = 2;
$cfg['m'] = 'B';
$log = array();
$log[] = $other;
echo render('a');
foreach (array(array('m' => 'C')) as $cfg) { echo render('a'); }
"#;

/// The tier is namespaced per script, so only a write to a name in some memo
/// site's `deps` can match an entry: every other main-scope write must not
/// reach `MemoTier::invalidate` at all.
#[test]
fn the_tier_is_asked_to_invalidate_only_for_dependency_writes() {
    let tier = Arc::new(RecordingTier::default());
    let (out, (hits, _, stores, _)) = run_once(NO_DEPS, Some(tier.clone() as Arc<dyn MemoTier>));
    assert_eq!(out, b"9029");
    assert!(stores >= 1 && hits >= 1, "square must be a memo site");
    assert_eq!(
        *tier.invalidate_calls.lock().unwrap(),
        Vec::<String>::new(),
        "no memo site has a dependency, so no write can invalidate"
    );

    let tier = Arc::new(RecordingTier::default());
    let (out, (_, _, stores, invalidations)) =
        run_once(MIXED_WRITES, Some(tier.clone() as Arc<dyn MemoTier>));
    assert_eq!(out, b"a:Aa:Ba:C");
    assert!(stores >= 2 && invalidations >= 2);
    // One call per write of `$cfg` (rebind, element write, foreach bind),
    // none for `$other` or `$log`.
    let dep = MemoHandle::new(tier.clone() as Arc<dyn MemoTier>, "inval-test").dep_key("cfg");
    assert_eq!(
        *tier.invalidate_calls.lock().unwrap(),
        vec![dep.clone(), dep.clone(), dep]
    );
}
