//! A corpus of mini-PHP scripts for the static-analysis tooling.
//!
//! Entries are grouped by application so `analyze --corpus wordpress`
//! reports on just that app. The WordPress group includes the live page
//! template ([`crate::wordpress::TEMPLATE`]) next to standalone snippets in
//! each application's characteristic style; the WordPress group collectively
//! triggers all four lint diagnostics.

use php_interp::ast::{FuncDef, Stmt};
use php_interp::{
    parse, AnalysisFacts, CompileOptions, CompiledUnit, Interp, MemoHandle, MemoTier, Program, Vm,
};
use php_runtime::array::ArrayKey;
use php_runtime::value::PhpValue;
use phpaccel_core::{Engine, PhpMachine};
use std::sync::Arc;

/// One mini-PHP script in the corpus.
#[derive(Debug)]
pub struct CorpusEntry {
    /// Application the script belongs to.
    pub app: &'static str,
    /// Short script name.
    pub name: &'static str,
    /// The mini-PHP source.
    pub source: &'static str,
    /// Whether the script reads the request variables `$title`, `$tags`,
    /// `$meta` from the environment ([`PreparedScript::run`] binds them).
    pub needs_request_vars: bool,
}

/// Exercises every lint: a dead store, an always-true `is_string` guard, a
/// constant condition, and a use-before-assign read.
const WP_LINT_DEMO: &str = r#"
$status = 'publish';
$status = 'draft';
if (is_string($status)) {
    echo 'status:', $status;
}
if (1 > 2) {
    echo 'unreachable';
}
echo $missing;
"#;

/// Builtin-only loop work: proven operand types, const-string keys, and
/// integer-append inserts.
const WP_TAG_CLOUD: &str = r#"
$counts = array();
$counts['php'] = 10;
$counts['perf'] = 7;
$tags = array('php', 'perf', 'cache');
$out = '';
foreach ($tags as $t) {
    $out = $out . '<a href="/tag/' . $t . '">' . $t . '</a> ';
}
$list = array();
$list[] = strlen($out);
$list[] = $counts['php'] + $counts['perf'];
echo $out, 'total=', $list[1];
"#;

/// Call-heavy comment pipeline: helper functions whose summaries carry
/// types, constants, and purity across call boundaries — including a
/// constant `preg_*` pattern returned *from a function*, which only the
/// interprocedural constant propagation can pre-compile.
const WP_COMMENT_FILTER: &str = r#"
function shout_pattern() {
    return '/[A-Z][A-Z]+/';
}
function clean($text) {
    return trim(strip_tags($text));
}
function format_comment($author, $text) {
    $t = clean($text);
    if (preg_match(shout_pattern(), $t)) {
        $t = strtolower($t);
    }
    $t = preg_replace('/!!+/', '!', $t);
    return '<p><b>' . $author . '</b>: ' . $t . '</p>';
}
$comments = array('Great <em>post</em>!', '  FIRST comment!!! ', 'measured take');
$out = '';
foreach ($comments as $c) {
    $out = $out . format_comment('reader', $c);
}
echo $out;
"#;

/// Leaf helpers called from `<main>`: with summaries the callers keep
/// concrete types (and locals survive the calls); without them every call
/// poisons the whole script scope.
const SPECWEB_PRICE_HELPERS: &str = r#"
function add_fee($n) {
    return $n + 25;
}
function label($s) {
    return '[' . $s . ']';
}
$name = 'cart';
$subtotal = 100;
$fee = add_fee($subtotal);
$total = $fee + add_fee(80);
$line = label($name) . ' total=' . $total;
echo $line, ' fee=', $fee, ' for ', $name;
"#;

/// Intentional tainted-sink demo: raw request input reaches an echo before
/// the sanitized copy does. The taint allowlist in `scripts/` names it.
const WP_SEARCH_ECHO: &str = r#"
$q = trim($title);
echo '<h1>Results for ', $q, '</h1>';
echo '<p class="safe">', htmlspecialchars($q), '</p>';
"#;

const DRUPAL_NODE_RENDER: &str = r#"
$node = array();
$node['title'] = 'About';
$node['status'] = 1;
$node['body'] = 'Company history.';
$out = '<h2>' . htmlspecialchars($node['title']) . '</h2>';
if ($node['status'] == 1) {
    $out = $out . '<div>' . $node['body'] . '</div>';
}
echo $out;
"#;

const MEDIAWIKI_WORD_STATS: &str = r#"
$lines = array('== History ==', 'The wiki grew quickly.', '* bullet item');
$words = 0;
$chars = 0;
foreach ($lines as $line) {
    $t = trim($line);
    $words = $words + str_word_count($t);
    $chars = $chars + strlen($t);
}
echo 'words=', $words, ' chars=', $chars;
"#;

const SPECWEB_BANKING: &str = r#"
$balance = 1200;
$rate = 3;
$years = 4;
$interest = 0;
for ($y = 1; $y <= $years; $y = $y + 1) {
    $interest = $interest + $balance * $rate / 100;
}
echo 'interest=', $interest;
"#;

const SPECWEB_SUPPORT: &str = r#"
$docs = array('alpha manual', 'beta install guide', 'gamma faq');
$total = 0;
$longest = '';
foreach ($docs as $d) {
    $total = $total + str_word_count($d);
    if (strlen($d) > strlen($longest)) {
        $longest = $d;
    }
}
echo 'words=', $total, ' longest=', $longest;
"#;

/// Render-cache idiom: pure block helpers plus a `global`-reading header
/// builder. Every call site here is proven memoizable by the effect
/// analysis, so with a shared tier attached the blocks render once and
/// replay on every later request — the workload `memo_bench` measures.
/// (The `$site` assignment invalidates `page_header`'s fingerprint each
/// request, keeping the invalidation path exercised too.)
const DRUPAL_BLOCK_CACHE: &str = r#"
$site = 'Daily Build';
$blocks = array('recent', 'popular', 'archive');
function block_title($name) {
    return '<h3>' . ucfirst($name) . '</h3>';
}
function block_body($name, $rows) {
    $out = '<ul>';
    for ($i = 1; $i <= $rows; $i = $i + 1) {
        $out = $out . '<li>' . $name . ' item ' . $i . '</li>';
    }
    return $out . '</ul>';
}
function page_header($title) {
    global $site;
    return '<header>' . $site . ' | ' . $title . '</header>';
}
$out = page_header('Blocks');
foreach ($blocks as $b) {
    $out = $out . block_title($b) . block_body($b, 3);
}
echo $out;
"#;

/// The classic "cached a session token" near-miss: `fresh_token` is
/// cache-shaped — write-free, argument never retained — but draws from
/// `rand()`/`time()`, so the effect analysis refuses to memoize it and
/// raises `[nondeterministic-cacheable]` instead. The allowlist in
/// `scripts/taint-allowlist.txt` names it as an intentional demo; `greet`
/// stays memoizable.
const SPECWEB_SESSION_TOKEN: &str = r#"
function fresh_token($user) {
    return $user . '-' . rand(1000, 9999) . '-' . time();
}
function greet($user) {
    return 'Welcome back, ' . ucfirst($user) . '.';
}
echo greet('visitor'), ' session=', fresh_token('visitor');
"#;

/// All corpus scripts, grouped by app.
pub const ENTRIES: &[CorpusEntry] = &[
    CorpusEntry {
        app: "wordpress",
        name: "page-template",
        source: crate::wordpress::TEMPLATE,
        needs_request_vars: true,
    },
    CorpusEntry {
        app: "wordpress",
        name: "lint-demo",
        source: WP_LINT_DEMO,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "wordpress",
        name: "tag-cloud",
        source: WP_TAG_CLOUD,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "wordpress",
        name: "comment-filter",
        source: WP_COMMENT_FILTER,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "wordpress",
        name: "search-echo",
        source: WP_SEARCH_ECHO,
        needs_request_vars: true,
    },
    CorpusEntry {
        app: "drupal",
        name: "node-render",
        source: DRUPAL_NODE_RENDER,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "drupal",
        name: "block-cache",
        source: DRUPAL_BLOCK_CACHE,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "mediawiki",
        name: "word-stats",
        source: MEDIAWIKI_WORD_STATS,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "specweb",
        name: "banking-interest",
        source: SPECWEB_BANKING,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "specweb",
        name: "support-search",
        source: SPECWEB_SUPPORT,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "specweb",
        name: "price-helpers",
        source: SPECWEB_PRICE_HELPERS,
        needs_request_vars: false,
    },
    CorpusEntry {
        app: "specweb",
        name: "session-token",
        source: SPECWEB_SESSION_TOKEN,
        needs_request_vars: false,
    },
];

/// Entries belonging to `app`.
pub fn for_app(app: &str) -> Vec<&'static CorpusEntry> {
    ENTRIES.iter().filter(|e| e.app == app).collect()
}

/// Distinct application names, in corpus order.
pub fn apps() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for e in ENTRIES {
        if !out.contains(&e.app) {
            out.push(e.app);
        }
    }
    out
}

/// The request variables the WordPress page template reads (`$title`,
/// `$tags`, `$meta`), at fixed sample values built on `m`: both engines
/// bind these, so the allocations they charge are identical.
fn request_vars(m: &mut PhpMachine) -> Vec<(&'static str, PhpValue)> {
    let title = PhpValue::from("Corpus & 'Sample' Title");
    let mut tags = m.new_array();
    for t in ["  News ", "PHP", " Perf"] {
        let v = PhpValue::from(t);
        m.array_push(&mut tags, v);
    }
    let mut meta = m.new_array();
    m.array_set(&mut meta, ArrayKey::from("views"), PhpValue::from(42i64));
    m.array_set(&mut meta, ArrayKey::from("likes"), PhpValue::from(7i64));
    vec![
        ("title", title),
        ("tags", PhpValue::array(tags)),
        ("meta", PhpValue::array(meta)),
    ]
}

/// A parsed and analyzed corpus script, compiled once for serving.
///
/// The program, its facts and its compiled unit live behind `Arc`s, so a
/// `PreparedScript` (itself usually `Arc`-wrapped via [`CorpusCache`]) can
/// be shared across worker threads: the facts key on node addresses inside
/// the program's statement buffer, and that buffer is never moved or cloned
/// once prepared, so every worker resolves the same facts for the same
/// sites.
#[derive(Debug)]
pub struct PreparedScript {
    entry: &'static CorpusEntry,
    program: Arc<Program>,
    /// Function definitions the facts are interned over and the compiler
    /// compiles, so facts stay valid inside bodies. The tree walk
    /// pre-registers them too (see [`Interp::predefine_funcs`]).
    shared_funcs: Vec<Arc<FuncDef>>,
    /// Facts proven over `program` and `shared_funcs`.
    pub facts: Arc<AnalysisFacts>,
    /// Per-scope statistics and lints.
    pub report: php_analysis::Report,
    /// The serving unit: compiled with the facts, fused. Every worker on
    /// the VM executes this one shared bytecode.
    unit: Arc<CompiledUnit>,
}

/// Parses, analyzes and compiles one corpus entry.
pub fn prepare(entry: &'static CorpusEntry) -> PreparedScript {
    let program = parse(entry.source).unwrap_or_else(|e| {
        panic!(
            "corpus script {}/{} fails to parse: {e:?}",
            entry.app, entry.name
        )
    });
    let shared_funcs: Vec<Arc<FuncDef>> = program
        .stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::FuncDef(f) => Some(Arc::new(f.clone())),
            _ => None,
        })
        .collect();
    let analysis = php_analysis::analyze_with_funcs(&program, &shared_funcs);
    let facts = Arc::new(analysis.facts);
    let serving = CompileOptions { fuse: true };
    let unit = php_interp::compile(&program, &shared_funcs, Some(&facts), serving);
    // Wrapping after analysis is sound: the move relocates only the `Program`
    // struct itself, while the statement nodes the facts point at live in its
    // heap-allocated `stmts` buffer, whose address is stable.
    PreparedScript {
        entry,
        program: Arc::new(program),
        shared_funcs,
        facts,
        report: analysis.report,
        unit: Arc::new(unit),
    }
}

/// Shared compile cache: every corpus entry parsed and analyzed exactly once,
/// the software analogue of a bytecode cache shared by server workers.
///
/// Build it once, wrap it in an `Arc`, and hand clones to worker threads —
/// each worker executes the cached `Arc<Program>`/`Arc<AnalysisFacts>` pairs
/// on its own private `PhpMachine` without re-parsing or re-analyzing.
#[derive(Debug)]
pub struct CorpusCache {
    scripts: Vec<Arc<PreparedScript>>,
}

impl CorpusCache {
    /// Parses and analyzes the whole corpus ([`ENTRIES`], in order).
    pub fn build() -> Self {
        CorpusCache {
            scripts: ENTRIES.iter().map(|e| Arc::new(prepare(e))).collect(),
        }
    }

    /// The cached scripts, in corpus order.
    pub fn scripts(&self) -> &[Arc<PreparedScript>] {
        &self.scripts
    }

    /// Number of cached scripts.
    pub fn len(&self) -> usize {
        self.scripts.len()
    }

    /// Whether the cache is empty (it never is after [`CorpusCache::build`]).
    pub fn is_empty(&self) -> bool {
        self.scripts.is_empty()
    }

    /// The script a request cycles onto: request `n` runs script
    /// `n % len()`, so any contiguous block of requests covers the corpus
    /// round-robin regardless of how requests are sharded across workers.
    pub fn script_for_request(&self, request: u64) -> &Arc<PreparedScript> {
        &self.scripts[(request % self.scripts.len() as u64) as usize]
    }
}

impl PreparedScript {
    /// The corpus entry this script was prepared from.
    pub fn entry(&self) -> &'static CorpusEntry {
        self.entry
    }

    /// The serving unit: compiled with the facts and fused.
    pub fn unit(&self) -> &Arc<CompiledUnit> {
        &self.unit
    }

    /// Compiles another variant of the script, with or without the facts
    /// and fusion. Nothing caches it: ablations and differential tests
    /// compile the variant they compare once and run it through
    /// [`PreparedScript::run_unit`].
    pub fn compile(&self, with_facts: bool, fused: bool) -> CompiledUnit {
        php_interp::compile(
            &self.program,
            &self.shared_funcs,
            with_facts.then_some(&*self.facts),
            CompileOptions { fuse: fused },
        )
    }

    /// Runs the script once on `m` and returns its output, dispatching on
    /// the machine's configured [`Engine`]. The VM executes the serving
    /// unit when `with_facts` is set; without it, it compiles a fact-free
    /// fused unit for this one call, which only tests ask for. The tree
    /// walk is the fact-free reference: it executes the cached
    /// `Arc<Program>` and ignores `with_facts`. Output is byte-identical
    /// across all of them.
    pub fn run(&self, m: &mut PhpMachine, with_facts: bool) -> Vec<u8> {
        self.run_memo(m, with_facts, None)
    }

    /// [`PreparedScript::run`] with an optional shared memo tier attached.
    /// Keys are namespaced by the entry name, so many scripts can share one
    /// tier (e.g. `php_interp::MemoCache`) without colliding on same-named
    /// functions. Only facts-proven sites on the VM consult the tier, so
    /// `with_facts: false` leaves it inert, and the tree walk ignores it.
    pub fn run_memo(
        &self,
        m: &mut PhpMachine,
        with_facts: bool,
        memo: Option<Arc<dyn MemoTier>>,
    ) -> Vec<u8> {
        match m.engine() {
            Engine::TreeWalk => {
                let mut interp = Interp::new(m);
                interp.predefine_funcs(self.shared_funcs.iter().cloned());
                if self.entry.needs_request_vars {
                    for (name, v) in request_vars(interp.machine()) {
                        interp.set_var_public(name, v);
                    }
                }
                interp.run_program(&self.program).unwrap_or_else(|e| {
                    panic!(
                        "corpus script {}/{} fails: {e:?}",
                        self.entry.app, self.entry.name
                    )
                });
                interp.take_output()
            }
            Engine::Vm if with_facts => self.run_unit(m, &self.unit, memo),
            Engine::Vm => self.run_unit(m, &Arc::new(self.compile(false, true)), memo),
        }
    }

    /// Runs `unit` (the serving unit or a variant from
    /// [`PreparedScript::compile`]) once on the VM, whatever the machine's
    /// engine, and returns its output. See [`PreparedScript::vm`].
    pub fn run_unit(
        &self,
        m: &mut PhpMachine,
        unit: &Arc<CompiledUnit>,
        memo: Option<Arc<dyn MemoTier>>,
    ) -> Vec<u8> {
        let mut vm = self.vm(m, unit, memo);
        vm.run().unwrap_or_else(|e| {
            panic!(
                "corpus script {}/{} fails on vm: {e:?}",
                self.entry.app, self.entry.name
            )
        });
        vm.take_output()
    }

    /// A VM on `m` ready to run `unit` as this script: the memo tier
    /// attached, then the request variables bound. The
    /// `MemoEnter`/`MemoStore` opcodes exist only in facts-compiled units,
    /// so without facts the tier is inert.
    pub fn vm<'m>(
        &self,
        m: &'m mut PhpMachine,
        unit: &Arc<CompiledUnit>,
        memo: Option<Arc<dyn MemoTier>>,
    ) -> Vm<'m> {
        let mut vm = Vm::new(m, Arc::clone(unit));
        if let Some(tier) = memo {
            vm.set_memo(MemoHandle::new(tier, self.entry.name));
        }
        if self.entry.needs_request_vars {
            for (name, v) in request_vars(vm.machine()) {
                vm.set_var_public(name, v);
            }
        }
        vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_analysis::LintKind;

    #[test]
    fn every_entry_parses_and_runs() {
        for entry in ENTRIES {
            let p = prepare(entry);
            let mut m = PhpMachine::baseline();
            let out = p.run(&mut m, false);
            assert!(
                !out.is_empty(),
                "{}/{} produced no output",
                entry.app,
                entry.name
            );
        }
    }

    /// A specialized machine on the serving engine.
    fn vm_machine() -> PhpMachine {
        let mut m = PhpMachine::specialized();
        m.set_engine(Engine::Vm);
        m
    }

    #[test]
    fn outputs_are_byte_identical_with_facts_on_and_off() {
        for entry in ENTRIES {
            let p = prepare(entry);
            let mut off = PhpMachine::specialized();
            let mut on = vm_machine();
            let plain = p.run(&mut off, false);
            let specialized = p.run(&mut on, true);
            assert_eq!(
                plain, specialized,
                "{}/{} output diverged with analysis enabled",
                entry.app, entry.name
            );
        }
    }

    #[test]
    fn wordpress_corpus_triggers_all_four_lints() {
        let mut kinds = Vec::new();
        for entry in for_app("wordpress") {
            kinds.extend(prepare(entry).report.lints.iter().map(|l| l.kind));
        }
        for kind in [
            LintKind::UseBeforeAssign,
            LintKind::DeadStore,
            LintKind::AlwaysTrueGuard,
            LintKind::ConstantCondition,
        ] {
            assert!(kinds.contains(&kind), "missing {kind} in {kinds:?}");
        }
    }

    /// Acceptance: turning on the interprocedural layer must *strictly*
    /// increase both proven operand types and elidable refcount pairs over
    /// the corpus — summaries keep caller environments alive across calls
    /// and release arguments the callee provably never retains.
    #[test]
    fn interprocedural_mode_strictly_improves_precision() {
        use php_analysis::{analyze_with_options, AnalyzeOptions};
        let mut typed = (0usize, 0usize);
        let mut rc = (0usize, 0usize);
        let mut summarized = 0;
        let mut precompiled = 0;
        for entry in ENTRIES {
            let program = parse(entry.source).unwrap();
            let intra = analyze_with_options(
                &program,
                &[],
                AnalyzeOptions {
                    interprocedural: false,
                },
            );
            let inter = analyze_with_options(&program, &[], AnalyzeOptions::default());
            typed.0 += intra.report.typed_operands();
            typed.1 += inter.report.typed_operands();
            rc.0 += intra.report.rc_elided_sites();
            rc.1 += inter.report.rc_elided_sites();
            summarized += inter.report.summarized_calls();
            precompiled += inter.report.preg_precompiled();
            assert_eq!(
                intra.report.summarized_calls(),
                0,
                "intraprocedural mode must not claim summary wins"
            );
        }
        assert!(typed.1 > typed.0, "typed operands: {typed:?}");
        assert!(rc.1 > rc.0, "rc-elidable sites: {rc:?}");
        assert!(summarized > 0, "no call site used a summary");
        assert!(precompiled > 0, "no constant preg pattern was precompiled");
    }

    /// The comment-filter entry's flagship win: its `preg_match` pattern
    /// comes out of a *function call*, so only constant-return propagation
    /// through the call graph can compile it at analysis time.
    #[test]
    fn const_return_pattern_is_precompiled_across_the_call() {
        let entry = ENTRIES.iter().find(|e| e.name == "comment-filter").unwrap();
        let p = prepare(entry);
        assert!(
            p.facts.precompiled_regex_count() >= 2,
            "literal and const-return patterns both precompile, got {}",
            p.facts.precompiled_regex_count()
        );
        assert!(p.report.summarized_calls() > 0);
    }

    /// Acceptance: compiled with facts, the comment-filter entry performs
    /// *zero* runtime regex compiles — both `preg_*` sites reuse handles
    /// compiled once at analysis time.
    #[test]
    fn precompiled_patterns_remove_all_runtime_regex_compiles() {
        let entry = ENTRIES.iter().find(|e| e.name == "comment-filter").unwrap();
        let p = prepare(entry);
        let compiles = |with_facts: bool| {
            let mut m = PhpMachine::specialized();
            let mut vm = Vm::new(&mut m, Arc::new(p.compile(with_facts, true)));
            vm.run().unwrap();
            vm.regex_compile_count()
        };
        assert!(
            compiles(false) > 0,
            "fully dynamic mode must compile per request"
        );
        assert_eq!(
            compiles(true),
            0,
            "precompiled handles must cover every preg_* site"
        );
    }

    /// The VM matches on the unit's (the facts') own compiled patterns, not
    /// on per-call copies: one request leaves those instances' lazy DFAs
    /// materialized, and the next request adds no states to them.
    #[test]
    fn precompiled_patterns_stay_warm_across_requests() {
        let entry = ENTRIES.iter().find(|e| e.name == "comment-filter").unwrap();
        let p = prepare(entry);
        let unit = p.unit();
        assert!(unit.regexes.len() >= 2);
        let states = |unit: &CompiledUnit| -> Vec<usize> {
            unit.regexes.iter().map(|re| re.fsm_states()).collect()
        };
        let cold = states(unit);
        let mut m = vm_machine();
        p.run(&mut m, true);
        let warm = states(unit);
        assert!(
            warm.iter().zip(&cold).all(|(w, c)| w > c),
            "the shared handles never ran: {cold:?} -> {warm:?}"
        );
        p.run(&mut m, true);
        assert_eq!(states(unit), warm, "a rerun rebuilt DFA states");
    }

    /// Every one of the interprocedural savings counters fires somewhere in
    /// the corpus, so `analyze` never reports a structurally-zero column.
    #[test]
    fn interprocedural_savings_counters_all_fire() {
        let mut summaries = 0u64;
        let mut regex_avoided = 0u64;
        for entry in ENTRIES {
            let p = prepare(entry);
            let mut m = vm_machine();
            p.run(&mut m, true);
            let s = m.ctx().profiler().static_savings();
            summaries += s.summaries_applied;
            regex_avoided += s.regex_compiles_avoided;
        }
        assert!(summaries > 0, "no summarized call executed");
        assert!(regex_avoided > 0, "no precompiled regex was reused");
    }

    /// The search-echo entry exists to keep the taint lint (and its
    /// allowlist entry) exercised end to end.
    #[test]
    fn search_echo_raises_a_tainted_sink_lint() {
        let entry = ENTRIES.iter().find(|e| e.name == "search-echo").unwrap();
        let p = prepare(entry);
        assert!(
            p.report
                .lints
                .iter()
                .any(|l| l.kind == LintKind::TaintedSink && l.message.contains("($q)")),
            "{:?}",
            p.report.lints
        );
        let lints = &p.report.lints;
        let tainted = lints.iter().filter(|l| l.kind == LintKind::TaintedSink);
        assert_eq!(tainted.count(), 1, "the sanitized echo is clean");
    }

    /// Tentpole invariant: one shared cache, many threads, byte-identical
    /// output. Each thread runs every cached script on the VM with facts on
    /// its own machine and must reproduce the single-threaded fact-free
    /// reference exactly — proving the facts stay identity-stable under
    /// `Arc` sharing.
    #[test]
    fn shared_cache_is_byte_identical_across_threads() {
        let cache = std::sync::Arc::new(CorpusCache::build());
        assert_eq!(cache.len(), ENTRIES.len());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CorpusCache>();
        assert_send_sync::<PreparedScript>();

        let reference: Vec<Vec<u8>> = cache
            .scripts()
            .iter()
            .map(|p| p.run(&mut PhpMachine::specialized(), true))
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    cache
                        .scripts()
                        .iter()
                        .map(|p| {
                            let out = p.run(&mut vm_machine(), true);
                            // Facts resolved, not just tolerated: the regex
                            // sites this entry precompiled must be visible
                            // through the shared Arc on this thread too.
                            (out, p.facts.precompiled_regex_count())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            let got = h.join().unwrap();
            for (i, (out, precompiled)) in got.iter().enumerate() {
                assert_eq!(out, &reference[i], "{} diverged", ENTRIES[i].name);
                assert_eq!(
                    *precompiled,
                    cache.scripts()[i].facts.precompiled_regex_count()
                );
            }
        }
    }

    #[test]
    fn block_cache_proves_memoizable_sites() {
        let entry = ENTRIES.iter().find(|e| e.name == "block-cache").unwrap();
        let p = prepare(entry);
        assert!(
            p.report.memo_sites() >= 3,
            "header + title + body sites: {:?}",
            p.report.scopes
        );
        assert!(p.facts.memo_site_count() >= 3);
    }

    #[test]
    fn session_token_raises_nondeterministic_cacheable() {
        let entry = ENTRIES.iter().find(|e| e.name == "session-token").unwrap();
        let p = prepare(entry);
        assert!(
            p.report.lints.iter().any(|l| {
                l.kind == LintKind::NondeterministicCacheable && l.message.contains("fresh_token")
            }),
            "{:?}",
            p.report.lints
        );
        assert!(p.report.memo_sites() >= 1, "greet stays memoizable");
    }

    /// Acceptance: a shared memo tier never changes a single output byte —
    /// every corpus entry, on the VM, repeated requests against the same
    /// warm tier.
    #[test]
    fn memo_tier_replays_byte_identical_output() {
        use php_interp::MemoCache;
        for entry in ENTRIES {
            let p = prepare(entry);
            let reference = p.run(&mut PhpMachine::specialized(), false);
            let tier = Arc::new(MemoCache::default());
            for req in 0..3 {
                let out = p.run_memo(&mut vm_machine(), true, Some(tier.clone()));
                assert_eq!(
                    out, reference,
                    "{}/{} request {req} diverged with memo on",
                    entry.app, entry.name
                );
            }
        }
    }

    /// The warm tier actually replays: the second request of the render-cache
    /// entry scores hits on the VM and skips the helpers' work.
    #[test]
    fn warm_tier_scores_hits_on_second_request() {
        use php_interp::MemoCache;
        let entry = ENTRIES.iter().find(|e| e.name == "block-cache").unwrap();
        let p = prepare(entry);
        let tier = Arc::new(MemoCache::default());
        let mut m1 = vm_machine();
        p.run_memo(&mut m1, true, Some(tier.clone()));
        let s1 = m1.ctx().profiler().static_savings();
        assert_eq!(s1.memo_hits, 0, "cold tier cannot hit");
        assert!(s1.memo_stores > 0, "cold run must populate");

        let mut m2 = vm_machine();
        p.run_memo(&mut m2, true, Some(tier.clone()));
        let s2 = m2.ctx().profiler().static_savings();
        assert!(s2.memo_hits > 0, "warm tier must replay");
    }

    #[test]
    fn corpus_covers_types_rc_and_key_shapes() {
        let mut typed = 0;
        let mut rc = 0;
        let mut consts = 0;
        let mut appends = 0;
        for entry in ENTRIES {
            let p = prepare(entry);
            typed += p.report.typed_operands();
            rc += p.report.rc_elided_sites();
            let (c, a) = p.facts.key_shape_counts();
            consts += c;
            appends += a;
        }
        assert!(typed > 0 && rc > 0 && consts > 0 && appends > 0);
    }
}
